//! Overhead of the fault-injection layer.
//!
//! `chaos-overhead/*` runs the round-synchronous executor three ways on
//! the same fixed transition budget:
//!
//! * `off` — the plain [`run_sharded`] entry point (no hook at all);
//! * `noop-hook` — [`run_sharded_faulted`] under the **empty**
//!   [`FaultPlan`]: the hook is consulted for every sent copy and every
//!   node status, but every answer is "no fault" (delay 0, node up) —
//!   this is the pure price of the seam;
//! * `active` — a duplicating, delaying plan: not schedule-identical
//!   (it does more deliveries), but it prices a realistic chaos
//!   workload — every copy pays the seeded splitmix draws plus the
//!   maturity queue.
//!
//! `off` and `noop-hook` produce bit-identical transition sequences, so
//! that ratio is the pure price of the fault seam at delay 0. The
//! budget is fixed (not to-quiescence) for the same reason as
//! `bench_net`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rtx_bench::set_input;
use rtx_calm::constructions::flood::{flood_transducer, FloodMode};
use rtx_chaos::{FaultPlan, FaultSession, LinkFaults};
use rtx_net::{
    run_sharded, run_sharded_faulted, HorizontalPartition, Network, RunBudget, ShardOptions,
};

/// Rounds of work per iteration (budget = `2 * ROUNDS * n`, as in
/// `bench_net`).
const ROUNDS: usize = 8;

fn topologies() -> Vec<(&'static str, Network)> {
    vec![
        ("ring-64", Network::ring(64).unwrap()),
        ("grid-256", Network::grid(16, 16).unwrap()),
    ]
}

fn bench_chaos_overhead(c: &mut Criterion) {
    let schema = rtx_relational::Schema::new().with("S", 1);
    let input = set_input(8);
    let mut group = c.benchmark_group("chaos-overhead");
    group.sample_size(3);
    for (label, net) in topologies() {
        let t = flood_transducer(&schema, FloodMode::Dedup, None).unwrap();
        let p = HorizontalPartition::round_robin(&net, &input);
        let budget = RunBudget::steps(2 * ROUNDS * net.len());
        group.bench_with_input(BenchmarkId::new("off", label), &net, |b, net| {
            b.iter(|| {
                let out = run_sharded(net, &t, &p, &ShardOptions::serial(), &budget).unwrap();
                assert!(out.outcome.steps > 0);
                out.outcome.messages_enqueued
            })
        });
        let noop = FaultSession::new(FaultPlan::none(), 0xBE7C);
        group.bench_with_input(BenchmarkId::new("noop-hook", label), &net, |b, net| {
            b.iter(|| {
                let mut hook = noop.clone();
                let out =
                    run_sharded_faulted(net, &t, &p, &ShardOptions::serial(), &budget, &mut hook)
                        .unwrap();
                assert!(out.outcome.steps > 0);
                out.outcome.messages_enqueued
            })
        });
        let mut plan = FaultPlan::none();
        plan.default_link = LinkFaults {
            delay: (0, 2),
            dup_millis: 500,
            drop_millis: 0,
        };
        let active = FaultSession::new(plan, 0xBE7C);
        group.bench_with_input(BenchmarkId::new("active", label), &net, |b, net| {
            b.iter(|| {
                let mut hook = active.clone();
                let out =
                    run_sharded_faulted(net, &t, &p, &ShardOptions::serial(), &budget, &mut hook)
                        .unwrap();
                assert!(out.outcome.steps > 0);
                out.outcome.messages_enqueued
            })
        });
    }
    group.finish();
}

criterion_group!(chaos, bench_chaos_overhead);
criterion_main!(chaos);
