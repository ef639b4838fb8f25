//! Sharded vs serial round-synchronous network execution.
//!
//! Measures `rtx_net::run_sharded` wall time on one thread
//! (`ShardOptions::serial()`) against `ShardOptions::sharded(n)` on
//! ring / grid / random topologies from
//! 64 to 1024 nodes. Each iteration executes a *fixed* transition
//! budget (not to-quiescence), so serial and sharded runs do exactly
//! the same work — the executors are bit-identical by construction —
//! and the ratio is pure executor overhead vs parallel win.
//!
//! `net-sharded-tc` is the exception: Theorem 6(5)'s distributed
//! transitive closure of a fixed digraph, run to quiescence, where each
//! step applies `T_P`.
//!
//! `net-setup` times the set-up stages of a sparse flood —
//! `Network::grid`, `HorizontalPartition::concentrate` and
//! `Configuration::initial_lean` — at 10⁴, 3·10⁴ and 10⁵ nodes, so a
//! row divided by its node count is a set-up cost per node.
//!
//! On a multicore host the sharded executor should beat serial from
//! ~256 nodes at 4 threads (per-node heartbeat/delivery steps dominate
//! and parallelize; the barrier merge is cheap). On a single-core host
//! the sharded rows degrade to serial plus coordination overhead —
//! check `nproc` before reading the numbers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Calibration, Criterion};
use rtx_bench::{fixed_digraph, set_input};
use rtx_calm::constructions::datalog_dist::{distribute_datalog, transitive_closure_program};
use rtx_calm::constructions::flood::{flood_transducer, FloodMode};
use rtx_net::{
    run_sharded, run_sparse_from, Configuration, DeliveryPolicy, HorizontalPartition, Network,
    NodeId, RunBudget, ShardOptions,
};
use rtx_relational::Schema;

/// Rounds of work per iteration: each round is one heartbeat per node
/// plus up to one delivery per node, so the budget is `2 * ROUNDS * n`.
const ROUNDS: usize = 8;

/// Calibration for the `net-*` groups: single iterations here run
/// tens of milliseconds (a whole network to a step budget), so the
/// default 200ms sampling budget exhausts before the MAD converges
/// and the record lands `calibrated: 0` (the PR-7 baseline's
/// `net-sharded/serial/ring-256` showed a 28ms MAD). Raise the floor
/// so every committed record calibrates; `RTX_BENCH_BUDGET_MS` can
/// still push it higher.
fn net_cal() -> Option<Calibration> {
    Calibration::auto().map(|c| Calibration {
        budget: c.budget.max(std::time::Duration::from_millis(4000)),
        ..c
    })
}

fn topologies() -> Vec<(&'static str, Network)> {
    vec![
        ("ring-64", Network::ring(64).unwrap()),
        ("ring-256", Network::ring(256).unwrap()),
        ("grid-256", Network::grid(16, 16).unwrap()),
        (
            "random-256",
            Network::random_connected_seeded(256, 0.01, 7).unwrap(),
        ),
        ("grid-1024", Network::grid(32, 32).unwrap()),
    ]
}

fn bench_parallel_vs_serial(c: &mut Criterion) {
    let schema = rtx_relational::Schema::new().with("S", 1);
    let input = set_input(8);
    let mut group = c.benchmark_group("net-sharded");
    group.sample_size(3);
    for (label, net) in topologies() {
        let t = flood_transducer(&schema, FloodMode::Dedup, None).unwrap();
        let p = HorizontalPartition::round_robin(&net, &input);
        let budget = RunBudget::steps(2 * ROUNDS * net.len());
        group.bench_with_input(BenchmarkId::new("serial", label), &net, |b, net| {
            b.iter_with(net_cal(), || {
                let out = run_sharded(net, &t, &p, &ShardOptions::serial(), &budget).unwrap();
                assert!(out.outcome.steps > 0);
                out.outcome.messages_enqueued
            })
        });
        group.bench_with_input(BenchmarkId::new("sharded-4", label), &net, |b, net| {
            b.iter_with(net_cal(), || {
                let out = run_sharded(net, &t, &p, &ShardOptions::sharded(4), &budget).unwrap();
                assert!(out.outcome.steps > 0);
                out.outcome.messages_enqueued
            })
        });
    }
    group.finish();
}

fn bench_thread_sweep(c: &mut Criterion) {
    let schema = rtx_relational::Schema::new().with("S", 1);
    let input = set_input(8);
    let net = Network::grid(16, 16).unwrap();
    let t = flood_transducer(&schema, FloodMode::Dedup, None).unwrap();
    let p = HorizontalPartition::round_robin(&net, &input);
    let budget = RunBudget::steps(2 * ROUNDS * net.len());
    let mut group = c.benchmark_group("net-threads-grid-256");
    group.sample_size(3);
    group.bench_function(BenchmarkId::from_parameter("serial"), |b| {
        b.iter_with(net_cal(), || {
            run_sharded(&net, &t, &p, &ShardOptions::serial(), &budget)
                .unwrap()
                .outcome
                .steps
        })
    });
    for threads in [2usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                b.iter_with(net_cal(), || {
                    run_sharded(&net, &t, &p, &ShardOptions::sharded(threads), &budget)
                        .unwrap()
                        .outcome
                        .steps
                })
            },
        );
    }
    group.finish();
}

/// Per-edge outbox batching: to-quiescence dissemination runs with one
/// delivery per node per round vs `DeliveryPolicy::Batch(k)`. Batching
/// amortizes the per-round heartbeat sweep and barrier over up to `k`
/// delivery sub-phases, so fewer total rounds (and fewer no-op
/// heartbeats) reach the same quiescent configuration.
fn bench_delivery_batching(c: &mut Criterion) {
    let schema = rtx_relational::Schema::new().with("S", 1);
    let input = set_input(8);
    let mut group = c.benchmark_group("net-delivery-batch");
    group.sample_size(3);
    for (label, net) in [
        ("ring-64", Network::ring(64).unwrap()),
        ("grid-256", Network::grid(16, 16).unwrap()),
    ] {
        let t = flood_transducer(&schema, FloodMode::Dedup, None).unwrap();
        let p = HorizontalPartition::round_robin(&net, &input);
        let budget = RunBudget::steps(50_000_000);
        for (plabel, policy) in [
            ("one", DeliveryPolicy::One),
            ("batch-4", DeliveryPolicy::Batch(4)),
            ("batch-16", DeliveryPolicy::Batch(16)),
        ] {
            let opts = ShardOptions::serial().with_delivery(policy);
            group.bench_with_input(BenchmarkId::new(plabel, label), &net, |b, net| {
                b.iter_with(net_cal(), || {
                    let out = run_sharded(net, &t, &p, &opts, &budget).unwrap();
                    assert!(out.outcome.quiescent);
                    out.rounds
                })
            });
        }
    }
    group.finish();
}

/// The event-driven sparse executor at scale: one seeded fact in the
/// corner of a long grid, so the active frontier is a BFS wave bounded
/// by the short grid side — well under 1% of the network — while the
/// dense round-synchronous executor would heartbeat every node every
/// round. Quiescing this workload densely costs at least
/// `diameter × n` node-steps (the wave needs ≥ diameter rounds, each
/// heartbeating all n nodes), so each iteration asserts the sparse
/// step count stays ≥10× below that bound, and that the scheduled
/// frontier never exceeds the 1% warm-up chunk plus a few wave fronts.
///
/// Scales: 10⁴ and 10⁵ nodes always; the 10⁶-node row only when
/// `RTX_BENCH_HUGE` is set (it is minutes of work on small hosts).
/// Initial configurations come from `Configuration::initial_lean`,
/// which skips the Θ(n²) `All`-fact population for oblivious machines.
fn bench_sparse_frontier(c: &mut Criterion) {
    let schema = rtx_relational::Schema::new().with("S", 1);
    let input = set_input(1);
    let mut group = c.benchmark_group("net-sparse");
    group.sample_size(2);
    let mut scales = vec![("grid-10k", 500usize, 20usize), ("grid-100k", 1000, 100)];
    if std::env::var_os("RTX_BENCH_HUGE").is_some() {
        scales.push(("grid-1m", 10_000, 100));
    }
    for (label, w, h) in scales {
        let net = Network::grid(w, h).unwrap();
        let n = net.len();
        let diameter = w + h - 2;
        let t = flood_transducer(&schema, FloodMode::Dedup, None).unwrap();
        let p = HorizontalPartition::concentrate(&net, &input, &NodeId::sym("n0")).unwrap();
        let budget = RunBudget::steps(usize::MAX / 2);
        group.bench_with_input(BenchmarkId::new("sparse", label), &net, |b, net| {
            b.iter_with(net_cal(), || {
                let cfg = Configuration::initial_lean(net, &t, &p).unwrap();
                let out = run_sparse_from(net, &t, cfg, &ShardOptions::serial(), &budget).unwrap();
                assert!(out.outcome.quiescent);
                assert!(
                    out.max_active <= n / 100 + 8 * h,
                    "{label}: frontier {} too wide",
                    out.max_active
                );
                assert!(
                    out.outcome.steps * 10 <= diameter * n,
                    "{label}: sparse took {} steps, dense lower bound is {}",
                    out.outcome.steps,
                    diameter * n
                );
                out.outcome.steps
            })
        });
    }
    group.finish();
}

/// The set-up of the Dedup flood of one fact from `n0` (perfbench's
/// flood-sparse set-up) as a size curve: each stage of it at 10⁴,
/// 3·10⁴ and 10⁵ nodes. A row includes dropping what it built.
fn bench_net_setup(c: &mut Criterion) {
    let schema = Schema::new().with("S", 1);
    let input = set_input(1);
    let t = flood_transducer(&schema, FloodMode::Dedup, None).unwrap();
    let origin = NodeId::sym("n0");
    let mut group = c.benchmark_group("net-setup");
    group.sample_size(5);
    for (label, w, h) in [
        ("10k", 500usize, 20usize),
        ("30k", 1000, 30),
        ("100k", 1000, 100),
    ] {
        group.bench_function(BenchmarkId::new("grid", label), |b| {
            b.iter_with(net_cal(), || Network::grid(w, h).unwrap().len())
        });
        let net = Network::grid(w, h).unwrap();
        group.bench_function(BenchmarkId::new("concentrate", label), |b| {
            b.iter_with(net_cal(), || {
                HorizontalPartition::concentrate(&net, &input, &origin).unwrap()
            })
        });
        let p = HorizontalPartition::concentrate(&net, &input, &origin).unwrap();
        group.bench_function(BenchmarkId::new("initial-lean", label), |b| {
            b.iter_with(net_cal(), || {
                Configuration::initial_lean(&net, &t, &p).unwrap()
            })
        });
    }
    group.finish();
}

/// Theorem 6(5)'s distributed transitive closure of a fixed 64-vertex,
/// 96-edge digraph on an 8-ring, run to quiescence serially and on two
/// threads: a network whose steps apply `T_P`, the heavy-step shape
/// where sharding can pay for its barrier.
fn bench_sharded_tc(c: &mut Criterion) {
    let input = fixed_digraph(64, 96);
    let t =
        distribute_datalog(&transitive_closure_program(), &"T".into(), FloodMode::Dedup).unwrap();
    let net = Network::ring(8).unwrap();
    let p = HorizontalPartition::round_robin(&net, &input);
    let budget = RunBudget::steps(5_000_000);
    let mut group = c.benchmark_group("net-sharded-tc");
    group.sample_size(3);
    for (label, opts) in [
        ("serial", ShardOptions::serial()),
        ("threads-2", ShardOptions::sharded(2)),
    ] {
        group.bench_function(BenchmarkId::new(label, "ring-8"), |b| {
            b.iter_with(net_cal(), || {
                let out = run_sharded(&net, &t, &p, &opts, &budget).unwrap();
                assert!(out.outcome.quiescent);
                out.outcome.steps
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_parallel_vs_serial,
    bench_thread_sweep,
    bench_delivery_batching,
    bench_sparse_frontier,
    bench_net_setup,
    bench_sharded_tc
);
criterion_main!(benches);
