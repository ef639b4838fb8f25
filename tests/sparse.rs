//! Property tests for the event-driven sparse executor
//! (`rtx_net::run_sparse`): output and quiescence-verdict agreement
//! with the fair serial reference on random topologies, budgets, and
//! fault plans; bit-identical replay across thread counts; and the
//! scheduler-fairness satellite — every built-in scheduler quiesces
//! the flooder on random connected topologies.

use proptest::prelude::*;
use rtx::calm::constructions::flood::{flood_transducer, FloodMode};
use rtx::chaos::{Crash, CrashKind, FaultPlan, FaultSession, LinkFaults, Partition};
use rtx::net::{
    run, Configuration, FifoRoundRobin, HorizontalPartition, LifoRoundRobin, Network, NodeId,
    RandomScheduler, RunBudget, Scheduler, ShardOptions,
};
use rtx::query::QueryRef;
use rtx::relational::{fact, Fact, Instance, Schema};
use rtx::transducer::Transducer;
use std::collections::BTreeSet;
use std::sync::Arc;

fn set_instance(values: &[i64]) -> Instance {
    let sch = Schema::new().with("S", 1);
    let facts: Vec<Fact> = values.iter().map(|&v| fact!("S", v)).collect();
    Instance::from_facts(sch, facts).unwrap()
}

/// Identity output over the flooded relation, so output comparisons
/// between executors are about real quiescent outputs, not empty sets.
fn identity_out() -> QueryRef {
    let prog = rtx::query::parser::parse_program("T(X) :- S(X).").unwrap();
    Arc::new(rtx::query::DatalogQuery::new(prog, "T").unwrap())
}

/// Whether `cfg` is a fixpoint of the network: every buffer is empty,
/// and one more heartbeat at any node changes no state and sends
/// nothing — what a quiescent verdict certifies.
fn is_fixpoint(net: &Network, t: &Transducer, cfg: &Configuration) -> bool {
    let silence = Instance::empty(t.schema().message().clone());
    net.nodes().all(|node| {
        let res = t.step(cfg.state(node).unwrap(), &silence).unwrap();
        cfg.buffer(node).is_empty() && !res.state_changed && res.sent.is_empty()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole invariant: on random connected topologies and
    /// random partitions, the sparse executor reaches the same
    /// quiescent output (global and per node) as the paper-faithful
    /// fair serial reference — and sparse execution is bit-identical
    /// across every thread count.
    #[test]
    fn sparse_equals_fair_serial_reference(
        values in proptest::collection::btree_set(0i64..40, 1..5),
        nodes in 2usize..9,
        topo_seed in 0u64..500,
        part_seed in 0u64..500) {
        use rand::SeedableRng;
        let input = set_instance(&values.iter().copied().collect::<Vec<_>>());
        let net = Network::random_connected_seeded(nodes, 0.2, topo_seed).unwrap();
        let t = flood_transducer(input.schema(), FloodMode::Dedup, Some(identity_out())).unwrap();
        let mut prng = rand::rngs::StdRng::seed_from_u64(part_seed);
        let p = HorizontalPartition::random(&net, &input, 0.1, &mut prng);
        let budget = RunBudget::steps(500_000);
        let reference = run(&net, &t, &p, &mut FifoRoundRobin::new(), &budget).unwrap();
        prop_assert!(reference.quiescent);
        let sparse = rtx::net::run_sparse(
            &net, &t, &p, &ShardOptions::serial().with_log(), &budget).unwrap();
        prop_assert!(sparse.outcome.quiescent, "sparse run failed to certify quiescence");
        prop_assert_eq!(&sparse.outcome.output, &reference.output);
        prop_assert_eq!(&sparse.outcome.outputs_per_node, &reference.outputs_per_node);
        for threads in [2usize, 3, 4, 8] {
            let opts = ShardOptions::sharded(threads).with_log();
            let sharded = rtx::net::run_sparse(&net, &t, &p, &opts, &budget).unwrap();
            prop_assert_eq!(&sharded.log, &sparse.log,
                            "sparse log diverged: threads={}", threads);
            prop_assert_eq!(sharded.outcome.steps, sparse.outcome.steps);
            prop_assert_eq!(sharded.rounds, sparse.rounds);
            prop_assert_eq!(sharded.max_active, sparse.max_active);
            prop_assert!(sharded.outcome.final_config == sparse.outcome.final_config,
                         "sparse final configuration diverged: threads={}", threads);
        }
    }

    /// Budget truncation: a sparse run cut at an arbitrary step cap is
    /// still deterministic across thread counts, and never overshoots.
    #[test]
    fn sparse_budget_truncation_deterministic(
        values in proptest::collection::btree_set(0i64..40, 1..4),
        nodes in 2usize..8,
        topo_seed in 0u64..300,
        cap in 1usize..40) {
        let input = set_instance(&values.iter().copied().collect::<Vec<_>>());
        let net = Network::random_connected_seeded(nodes, 0.2, topo_seed).unwrap();
        let t = flood_transducer(input.schema(), FloodMode::Dedup, Some(identity_out())).unwrap();
        let p = HorizontalPartition::round_robin(&net, &input);
        let budget = RunBudget::steps(cap);
        let serial = rtx::net::run_sparse(
            &net, &t, &p, &ShardOptions::serial().with_log(), &budget).unwrap();
        prop_assert!(serial.outcome.steps <= cap);
        let sharded = rtx::net::run_sparse(
            &net, &t, &p, &ShardOptions::sharded(3).with_log(), &budget).unwrap();
        prop_assert_eq!(&sharded.log, &serial.log);
        prop_assert!(sharded.outcome.final_config == serial.outcome.final_config);
    }

    /// Fault plans: under random fair plans (delays, a healing
    /// partition, a crash/restart), the sparse executor agrees with the
    /// dense faulted executor on output, per-node outputs, and the
    /// quiescence verdict — the fault hooks re-arm crashed, restarted,
    /// and partition-healed nodes correctly. Every quiescent verdict of
    /// either executor is a fixpoint: a parked node's heartbeat really
    /// is a no-op.
    #[test]
    fn sparse_faulted_agrees_with_dense_faulted(
        values in proptest::collection::btree_set(0i64..40, 1..4),
        nodes in 3usize..8,
        topo_seed in 0u64..300,
        fault_seed in 0u64..1000) {
        let input = set_instance(&values.iter().copied().collect::<Vec<_>>());
        let net = Network::random_connected_seeded(nodes, 0.2, topo_seed).unwrap();
        let t = flood_transducer(input.schema(), FloodMode::Dedup, Some(identity_out())).unwrap();
        let p = HorizontalPartition::round_robin(&net, &input);
        let budget = RunBudget::steps(500_000);
        // Derive the plan's shape from one seed (the compat proptest
        // macro caps each test at six generated parameters).
        let delay = (fault_seed % 3) as u32;
        let crash_node = (fault_seed / 3) as usize % nodes;
        let crash_at = 1 + fault_seed / 7 % 4;
        let down_for = 1 + fault_seed / 11 % 3;
        let side: BTreeSet<usize> = (0..nodes).filter(|i| i % 2 == 0).collect();
        let plan = FaultPlan {
            default_link: LinkFaults::delayed(delay),
            partitions: vec![Partition { side, from: 1, heal: 4 }],
            crashes: vec![Crash {
                node: crash_node,
                at: crash_at,
                restart: Some(crash_at + down_for),
                kind: CrashKind::PersistentEdb,
            }],
            ..FaultPlan::default()
        };
        let session = FaultSession::new(plan, fault_seed);
        let dense = rtx::net::run_sharded_faulted(
            &net, &t, &p, &ShardOptions::serial(), &budget, &mut session.clone()).unwrap();
        let sparse = rtx::net::run_sparse_faulted(
            &net, &t, &p, &ShardOptions::serial(), &budget, &mut session.clone()).unwrap();
        prop_assert_eq!(sparse.outcome.quiescent, dense.outcome.quiescent,
                        "quiescence verdicts diverged");
        prop_assert_eq!(&sparse.outcome.output, &dense.outcome.output);
        prop_assert_eq!(&sparse.outcome.outputs_per_node, &dense.outcome.outputs_per_node);
        for out in [&dense, &sparse] {
            if out.outcome.quiescent {
                prop_assert!(is_fixpoint(&net, &t, &out.outcome.final_config),
                             "a quiescent verdict left a productive heartbeat");
            }
        }
        // And the faulted sparse run replays identically when sharded.
        let sharded = rtx::net::run_sparse_faulted(
            &net, &t, &p, &ShardOptions::sharded(4), &budget, &mut session.clone()).unwrap();
        prop_assert!(sharded.outcome.final_config == sparse.outcome.final_config);
    }

    /// Scheduler-fairness satellite: every built-in scheduler — FIFO
    /// round-robin, LIFO round-robin, and the random scheduler at its
    /// default and near-degenerate heartbeat probabilities — quiesces
    /// the dedup flooder on random connected topologies within budget,
    /// reaching the same output (the flooder is confluent).
    #[test]
    fn every_scheduler_quiesces_the_flooder(
        values in proptest::collection::btree_set(0i64..40, 1..4),
        nodes in 2usize..8,
        topo_seed in 0u64..300,
        sched_seed in 0u64..1000) {
        let input = set_instance(&values.iter().copied().collect::<Vec<_>>());
        let net = Network::random_connected_seeded(nodes, 0.2, topo_seed).unwrap();
        let t = flood_transducer(input.schema(), FloodMode::Dedup, Some(identity_out())).unwrap();
        let p = HorizontalPartition::round_robin(&net, &input);
        let budget = RunBudget::steps(1_000_000);
        let reference = run(&net, &t, &p, &mut FifoRoundRobin::new(), &budget).unwrap();
        prop_assert!(reference.quiescent);
        let mut schedulers: Vec<(&str, Box<dyn Scheduler>)> = vec![
            ("lifo", Box::new(LifoRoundRobin::new())),
            ("random", Box::new(RandomScheduler::seeded(sched_seed))),
            ("random-p0.999",
             Box::new(RandomScheduler::seeded(sched_seed).with_heartbeat_prob(0.999))),
            ("random-p1.0-clamped",
             Box::new(RandomScheduler::seeded(sched_seed).with_heartbeat_prob(1.0))),
        ];
        for (name, sched) in schedulers.iter_mut() {
            let out = run(&net, &t, &p, sched.as_mut(), &budget).unwrap();
            prop_assert!(out.quiescent, "{} failed to quiesce the flooder", name);
            prop_assert_eq!(&out.output, &reference.output,
                            "{} diverged from the FIFO reference", name);
        }
    }
}

/// The point of the whole exercise, at test scale: the sparse executor
/// quiesces a long mostly-idle line in S steps, while the dense
/// executor cannot quiesce the same workload even with a 10× step
/// budget — its every-node-every-round sweeps burn the budget on no-op
/// heartbeats.
#[test]
fn sparse_step_advantage_on_long_line() {
    let net = Network::line(400).unwrap();
    let input = set_instance(&[7]);
    let t = flood_transducer(input.schema(), FloodMode::Dedup, Some(identity_out())).unwrap();
    let p = HorizontalPartition::concentrate(&net, &input, &NodeId::sym("n0")).unwrap();
    let sparse = rtx::net::run_sparse(
        &net,
        &t,
        &p,
        &ShardOptions::serial(),
        &RunBudget::steps(10_000_000),
    )
    .unwrap();
    assert!(sparse.outcome.quiescent);
    let s = sparse.outcome.steps;
    let dense = rtx::net::run_sharded(
        &net,
        &t,
        &p,
        &ShardOptions::serial(),
        &RunBudget::steps(10 * s),
    )
    .unwrap();
    assert!(
        !dense.outcome.quiescent,
        "dense executor quiesced within 10x the sparse budget ({} steps)",
        10 * s
    );
    assert_eq!(
        sparse.outcome.output.len(),
        1,
        "the flooded fact reached everyone"
    );
    assert!(
        sparse.max_active < 40,
        "frontier stayed under 10% of the line"
    );
}
