//! EX-3b / THM-6.2 benchmark: distributed transitive closure —
//! convergence cost vs input size, topology, and partition skew.
//!
//! `distributed-tc/digraph/{32,64,128}` is Theorem 6(5)'s `T_P`
//! transducer on `fixed_digraph(n, 3n/2)` over a 4-ring, run to
//! quiescence: every transition outputs the node's whole `T`, so a row
//! divided by its steps (776, 1,544 and 3,080) is the cost of a
//! node-step as |T| grows (220, 1,537 and 5,472 pairs).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rtx_bench::{chain_input, fixed_digraph};
use rtx_calm::constructions::datalog_dist::{distribute_datalog, transitive_closure_program};
use rtx_calm::constructions::flood::FloodMode;
use rtx_calm::examples::ex3_transitive_closure;
use rtx_net::{run, FifoRoundRobin, HorizontalPartition, Network, RunBudget};

fn bench_tc(c: &mut Criterion) {
    let t = ex3_transitive_closure(true).unwrap();
    let mut group = c.benchmark_group("distributed-tc");
    group.sample_size(10);

    for n in [3usize, 5, 7] {
        let input = chain_input("S", n);
        let net = Network::ring(3).unwrap();
        group.bench_with_input(BenchmarkId::new("chain-length", n), &n, |b, _| {
            b.iter(|| {
                let p = HorizontalPartition::round_robin(&net, &input);
                let out = run(
                    &net,
                    &t,
                    &p,
                    &mut FifoRoundRobin::new(),
                    &RunBudget::steps(5_000_000),
                )
                .unwrap();
                assert!(out.quiescent);
                out.steps
            })
        });
    }

    let input = chain_input("S", 5);
    for (label, net) in [
        ("line4", Network::line(4).unwrap()),
        ("ring4", Network::ring(4).unwrap()),
        ("clique4", Network::clique(4).unwrap()),
    ] {
        group.bench_function(BenchmarkId::new("topology", label), |b| {
            b.iter(|| {
                let p = HorizontalPartition::round_robin(&net, &input);
                run(
                    &net,
                    &t,
                    &p,
                    &mut FifoRoundRobin::new(),
                    &RunBudget::steps(5_000_000),
                )
                .unwrap()
                .steps
            })
        });
    }

    // partition skew: balanced vs all-at-one-node
    let net = Network::line(4).unwrap();
    group.bench_function("partition/balanced", |b| {
        b.iter(|| {
            let p = HorizontalPartition::round_robin(&net, &input);
            run(
                &net,
                &t,
                &p,
                &mut FifoRoundRobin::new(),
                &RunBudget::steps(5_000_000),
            )
            .unwrap()
            .steps
        })
    });
    group.bench_function("partition/concentrated", |b| {
        b.iter(|| {
            let owner = net.nodes().next().unwrap();
            let p = HorizontalPartition::concentrate(&net, &input, owner).unwrap();
            run(
                &net,
                &t,
                &p,
                &mut FifoRoundRobin::new(),
                &RunBudget::steps(5_000_000),
            )
            .unwrap()
            .steps
        })
    });

    let tp =
        distribute_datalog(&transitive_closure_program(), &"T".into(), FloodMode::Dedup).unwrap();
    let ring = Network::ring(4).unwrap();
    for n in [32u64, 64, 128] {
        let input = fixed_digraph(n, 3 * n as usize / 2);
        group.bench_with_input(BenchmarkId::new("digraph", n), &n, |b, _| {
            b.iter(|| {
                let p = HorizontalPartition::round_robin(&ring, &input);
                let out = run(
                    &ring,
                    &tp,
                    &p,
                    &mut FifoRoundRobin::new(),
                    &RunBudget::steps(5_000_000),
                )
                .unwrap();
                assert!(out.quiescent);
                out.steps
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_tc);
criterion_main!(benches);
