//! Property tests for the sharded round-synchronous runtime
//! (`rtx_net::run_sharded`): the determinism invariant — sharded
//! execution is bit-identical to the serial reference for every thread
//! count — plus output agreement with the seed drivers, the replay of
//! dense logs as runs of real transitions, and the pinned schedules of
//! both round executors.

use proptest::prelude::*;
use rtx::calm::constructions::datalog_dist::{distribute_datalog, transitive_closure_program};
use rtx::calm::constructions::distribute::distribute_monotone;
use rtx::calm::constructions::flood::{flood_transducer, FloodMode};
use rtx::net::{
    run, Configuration, FifoRoundRobin, HorizontalPartition, Network, NodeId, RunBudget,
    ShardOptions, TransitionKind,
};
use rtx::query::{Query, QueryRef};
use rtx::relational::{fact, Fact, Instance, Schema, Tuple};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

fn set_instance(values: &[i64]) -> Instance {
    let sch = Schema::new().with("S", 1);
    let facts: Vec<Fact> = values.iter().map(|&v| fact!("S", v)).collect();
    Instance::from_facts(sch, facts).unwrap()
}

/// Identity output over the flooded relation, so heartbeats of nodes
/// that know a fact have output.
fn identity_out() -> QueryRef {
    let prog = rtx::query::parser::parse_program("T(X) :- S(X).").unwrap();
    Arc::new(rtx::query::DatalogQuery::new(prog, "T").unwrap())
}

fn edge_instance(pairs: &[(u8, u8)]) -> Instance {
    let sch = Schema::new().with("S", 2);
    let mut i = Instance::empty(sch);
    for &(a, b) in pairs {
        i.insert_fact(fact!("S", a as i64, b as i64)).unwrap();
    }
    i
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole invariant: for random connected topologies, random
    /// partitions, and every thread count, the sharded FIFO
    /// round-synchronous run is bit-identical to the
    /// serial reference — same quiescent output, same per-node outputs,
    /// same step/message counters, same final configuration, and the
    /// same transition log, record for record.
    #[test]
    fn sharded_equals_serial_bit_for_bit(
        values in proptest::collection::btree_set(0i64..40, 1..5),
        nodes in 2usize..9,
        topo_seed in 0u64..500,
        part_seed in 0u64..500) {
        use rand::SeedableRng;
        let input = set_instance(&values.iter().copied().collect::<Vec<_>>());
        let net = Network::random_connected_seeded(nodes, 0.2, topo_seed).unwrap();
        let t = flood_transducer(input.schema(), FloodMode::Dedup, None).unwrap();
        let mut prng = rand::rngs::StdRng::seed_from_u64(part_seed);
        let p = HorizontalPartition::random(&net, &input, 0.1, &mut prng);
        let budget = RunBudget::steps(500_000);
        let serial = rtx::net::run_sharded(
            &net, &t, &p, &ShardOptions::serial().with_log(), &budget).unwrap();
        prop_assert!(serial.outcome.quiescent);
        for threads in [2usize, 3, 4, 8] {
            let opts = ShardOptions::sharded(threads).with_log();
            let sharded = rtx::net::run_sharded(&net, &t, &p, &opts, &budget).unwrap();
            prop_assert_eq!(&sharded.outcome.output, &serial.outcome.output,
                            "output diverged: threads={}", threads);
            prop_assert_eq!(&sharded.outcome.outputs_per_node,
                            &serial.outcome.outputs_per_node);
            prop_assert_eq!(sharded.outcome.steps, serial.outcome.steps);
            prop_assert_eq!(sharded.outcome.heartbeats, serial.outcome.heartbeats);
            prop_assert_eq!(sharded.outcome.deliveries, serial.outcome.deliveries);
            prop_assert_eq!(sharded.outcome.messages_enqueued,
                            serial.outcome.messages_enqueued);
            prop_assert_eq!(sharded.rounds, serial.rounds);
            prop_assert!(sharded.outcome.final_config == serial.outcome.final_config,
                         "final configuration diverged: threads={}", threads);
            prop_assert_eq!(&sharded.log, &serial.log,
                            "transition log diverged: threads={}", threads);
        }
    }

    /// The dense schedule answers a parked node's heartbeat at the
    /// coordinator instead of stepping the node; its log must still be
    /// a run of real transitions. On random connected topologies, at 1
    /// and 3 threads, the log of a Dedup flood with an identity output
    /// (so parked nodes have output to answer with) and of Theorem
    /// 6(5)'s distributed transitive closure (whose steps read what the
    /// node's previous transition added) replays record by record
    /// through `Transducer::step` from the initial configuration: same
    /// output, sends and state change at every record, and the replayed
    /// states are the final configuration.
    #[test]
    fn dense_log_is_a_run_of_real_transitions(
        values in proptest::collection::btree_set(0i64..40, 1..5),
        pairs in proptest::collection::vec((0u8..6, 0u8..6), 1..8),
        nodes in 2usize..9,
        topo_seed in 0u64..500,
        part_seed in 0u64..500) {
        use rand::SeedableRng;
        let net = Network::random_connected_seeded(nodes, 0.2, topo_seed).unwrap();
        let flood_input = set_instance(&values.iter().copied().collect::<Vec<_>>());
        let flood =
            flood_transducer(flood_input.schema(), FloodMode::Dedup, Some(identity_out())).unwrap();
        let mut tc_input = Instance::empty(Schema::new().with("E", 2));
        for &(a, b) in &pairs {
            tc_input.insert_fact(fact!("E", a as i64, b as i64)).unwrap();
        }
        let tc = distribute_datalog(&transitive_closure_program(), &"T".into(), FloodMode::Dedup)
            .unwrap();
        let mut prng = rand::rngs::StdRng::seed_from_u64(part_seed);
        for (t, input) in [(&flood, &flood_input), (&tc, &tc_input)] {
            let p = HorizontalPartition::random(&net, input, 0.1, &mut prng);
            let initial = Configuration::initial(&net, t, &p).unwrap();
            for threads in [1usize, 3] {
                let opts = ShardOptions::sharded(threads).with_log();
                let out = rtx::net::run_sharded(&net, t, &p, &opts, &RunBudget::steps(500_000))
                    .unwrap();
                prop_assert!(out.outcome.quiescent);
                let log = out.log.as_ref().expect("the log was requested");
                prop_assert_eq!(log.len(), out.outcome.steps);
                let silence = Instance::empty(t.schema().message().clone());
                let mut states: BTreeMap<NodeId, Instance> = net
                    .nodes()
                    .map(|n| (*n, initial.state(n).unwrap().clone()))
                    .collect();
                // Each node's records' outputs, unioned.
                let mut outputs: BTreeMap<NodeId, BTreeSet<Tuple>> = BTreeMap::new();
                for (i, rec) in log.iter().enumerate() {
                    let received = match &rec.kind {
                        TransitionKind::Heartbeat => silence.clone(),
                        TransitionKind::Delivery(f) => {
                            let mut r = silence.clone();
                            r.insert_fact(f.clone()).unwrap();
                            r
                        }
                    };
                    let state = states.get_mut(&rec.node).unwrap();
                    let res = t.step(state, &received).unwrap();
                    prop_assert_eq!(&rec.output, &res.output,
                                    "record {} ({}): output differs from the step", i, t.name());
                    prop_assert_eq!(rec.sent_facts, res.sent.fact_count(),
                                    "record {} ({}): sends differ from the step", i, t.name());
                    prop_assert_eq!(rec.state_changed, res.state_changed,
                                    "record {} ({}): state change differs from the step", i, t.name());
                    *state = res.new_state;
                    outputs.entry(rec.node).or_default().extend(rec.output.iter().cloned());
                }
                for (n, st) in &states {
                    prop_assert!(out.outcome.final_config.state(n) == Some(st),
                                 "replayed state of {} differs from the final configuration", n);
                }
                let all: BTreeSet<&Tuple> = outputs.values().flatten().collect();
                prop_assert!(out.outcome.output.iter().eq(all),
                             "the run's output is not the union of the records' outputs");
                for (n, acc) in &out.outcome.outputs_per_node {
                    let want = outputs.get(n).cloned().unwrap_or_default();
                    prop_assert!(acc.iter().eq(&want),
                                 "{}'s output is not the union of its records' outputs", n);
                }
            }
        }
    }

    /// Cross-driver agreement: the round-synchronous executor and the
    /// seed's scheduler-driven driver compute the same query answer on
    /// distributed transitive closure.
    #[test]
    fn sharded_tc_agrees_with_seed_driver(
        pairs in proptest::collection::vec((0u8..5, 0u8..5), 1..7),
        nodes in 2usize..6,
        topo_seed in 0u64..300) {
        let input = edge_instance(&pairs);
        let q: QueryRef = {
            let p = rtx::query::parser::parse_program(
                "T(X,Y) :- S(X,Y). T(X,Z) :- T(X,Y), S(Y,Z).").unwrap();
            Arc::new(rtx::query::DatalogQuery::new(p, "T").unwrap())
        };
        let expected = q.eval(&input).unwrap();
        let t = distribute_monotone(q, input.schema(), FloodMode::Dedup).unwrap();
        let net = Network::random_connected_seeded(nodes, 0.3, topo_seed).unwrap();
        let p = HorizontalPartition::round_robin(&net, &input);
        let budget = RunBudget::steps(500_000);
        let seed_run = run(&net, &t, &p, &mut FifoRoundRobin::new(), &budget).unwrap();
        let sharded = rtx::net::run_sharded(
            &net, &t, &p, &ShardOptions::sharded(4), &budget).unwrap();
        prop_assert!(seed_run.quiescent && sharded.outcome.quiescent);
        prop_assert_eq!(&sharded.outcome.output, &expected);
        prop_assert_eq!(&sharded.outcome.output, &seed_run.output);
    }
}

/// The counters a round schedule is pinned by: steps, heartbeats,
/// deliveries, messages enqueued, rounds, `max_active` and the
/// quiescence verdict.
type Schedule = (usize, usize, usize, usize, usize, usize, bool);

fn schedule_of(out: &rtx::net::ShardRunOutcome) -> Schedule {
    let o = &out.outcome;
    (
        o.steps,
        o.heartbeats,
        o.deliveries,
        o.messages_enqueued,
        out.rounds,
        out.max_active,
        o.quiescent,
    )
}

/// Pins the exact schedules of both round executors — the dense one,
/// which heartbeats every up node every round, and the sparse one,
/// which skips the heartbeats of parked nodes — on plain, batched,
/// budget-cut and faulted
/// runs (one fair and one crash-faulty plan
/// drawn from `FaultPlanStrategy`, plus a node crashed forever). Any
/// change to either schedule's round structure, stopping rule or fault
/// handling moves one of these numbers. Every run is repeated on three
/// worker shards, which must reproduce the serial schedule.
#[test]
fn round_schedules_are_pinned() {
    use rand::SeedableRng;
    use rtx::chaos::{
        directed_edges, Adversary, Crash, CrashKind, FaultPlan, FaultPlanStrategy, FaultSession,
    };
    use rtx::net::{
        run_sharded, run_sharded_faulted, run_sparse, run_sparse_faulted, DeliveryPolicy,
        ShardRunOutcome,
    };

    let input = set_instance(&[1, 2, 3, 4, 5]);
    let t = flood_transducer(input.schema(), FloodMode::Dedup, None).unwrap();
    let grid = Network::grid(3, 3).unwrap();
    let p = HorizontalPartition::round_robin(&grid, &input);
    let line = Network::line(6).unwrap();
    let p_line = HorizontalPartition::round_robin(&line, &input);
    let plan = |adversary, seed| {
        let strategy = FaultPlanStrategy {
            nodes: grid.len(),
            edges: directed_edges(&grid),
            max_delay: 3,
            max_hold: 4,
            horizon: 5,
            adversary,
        };
        strategy.generate(&mut rand::rngs::StdRng::seed_from_u64(seed))
    };
    let fair = FaultSession::new(plan(Adversary::Fair, 8), 31);
    let crashy = FaultSession::new(plan(Adversary::CrashFaulty, 22), 57);
    let mut forever = FaultPlan::none();
    forever.crashes.push(Crash {
        node: 5,
        at: 2,
        restart: None,
        kind: CrashKind::PersistentEdb,
    });
    let forever = FaultSession::new(forever, 1);
    let full = RunBudget::steps(500_000);

    type Runner<'a> = Box<dyn Fn(&ShardOptions) -> ShardRunOutcome + 'a>;
    let cases: Vec<(&str, Runner, Schedule)> = vec![
        (
            "dense plain",
            Box::new(|o| run_sharded(&grid, &t, &p, o, &full).unwrap()),
            (309, 189, 120, 120, 21, 9, true),
        ),
        (
            "sparse plain",
            Box::new(|o| run_sparse(&grid, &t, &p, o, &full).unwrap()),
            (162, 42, 120, 120, 22, 9, true),
        ),
        (
            "dense batch(4)",
            Box::new(|o| {
                let o = o.clone().with_delivery(DeliveryPolicy::Batch(4));
                run_sharded(&grid, &t, &p, &o, &full).unwrap()
            }),
            (174, 54, 120, 120, 6, 9, true),
        ),
        (
            "sparse batch(4)",
            Box::new(|o| {
                let o = o.clone().with_delivery(DeliveryPolicy::Batch(4));
                run_sparse(&grid, &t, &p, &o, &full).unwrap()
            }),
            (146, 26, 120, 120, 7, 9, true),
        ),
        (
            "dense cut at 11 steps",
            Box::new(|o| run_sharded(&grid, &t, &p, o, &RunBudget::steps(11)).unwrap()),
            (11, 9, 2, 19, 1, 9, false),
        ),
        (
            "sparse cut at 11 steps",
            Box::new(|o| run_sparse(&grid, &t, &p, o, &RunBudget::steps(11)).unwrap()),
            (11, 5, 6, 28, 3, 4, false),
        ),
        (
            "dense fair plan",
            Box::new(|o| run_sharded_faulted(&grid, &t, &p, o, &full, &mut fair.clone()).unwrap()),
            (603, 368, 235, 235, 41, 9, true),
        ),
        (
            "sparse fair plan",
            Box::new(|o| run_sparse_faulted(&grid, &t, &p, o, &full, &mut fair.clone()).unwrap()),
            (279, 44, 235, 235, 42, 9, true),
        ),
        (
            "dense crash-faulty plan",
            Box::new(|o| {
                run_sharded_faulted(&grid, &t, &p, o, &full, &mut crashy.clone()).unwrap()
            }),
            (620, 383, 237, 241, 43, 9, true),
        ),
        (
            "sparse crash-faulty plan",
            Box::new(|o| run_sparse_faulted(&grid, &t, &p, o, &full, &mut crashy.clone()).unwrap()),
            (290, 45, 245, 247, 47, 9, true),
        ),
        (
            "dense crashed forever",
            Box::new(|o| {
                let budget = RunBudget::steps(5_000);
                run_sharded_faulted(&line, &t, &p_line, o, &budget, &mut forever.clone()).unwrap()
            }),
            (5000, 4958, 42, 46, 992, 6, false),
        ),
        (
            "sparse crashed forever",
            Box::new(|o| {
                let budget = RunBudget::steps(5_000);
                run_sparse_faulted(&line, &t, &p_line, o, &budget, &mut forever.clone()).unwrap()
            }),
            (62, 22, 40, 45, 14, 5, false),
        ),
    ];
    for (name, run, pinned) in &cases {
        let serial = schedule_of(&run(&ShardOptions::serial()));
        assert_eq!(serial, *pinned, "{name}: serial schedule moved");
        let sharded = schedule_of(&run(&ShardOptions::sharded(3)));
        assert_eq!(sharded, *pinned, "{name}: sharded schedule moved");
    }
}
