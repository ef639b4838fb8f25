//! The chaos subsystem's acceptance properties:
//!
//! * replay determinism — any explorer-reported run is exactly
//!   reproducible from `(FaultPlan, seed)`;
//! * serial ≡ sharded bit-identity holds with fault injection enabled,
//!   for every thread count and delivery batching;
//! * crashed-then-restarted nodes with persistent EDB reach the same
//!   quiescent output as an uncrashed run for monotone programs, on
//!   both executors;
//! * the explorer finds no divergence across ≥ 200 seeded adversarial
//!   runs for the repo's monotone example programs, and finds + shrinks
//!   a diverging schedule pair for a known coordination-requiring one.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rtx_calm::examples;
use rtx_chaos::{
    cross_validate, directed_edges, explore, explore_dedalus, Adversary, Crash, CrashKind,
    ExplorerOptions, FaultPlan, FaultPlanStrategy, FaultSession,
};
use rtx_dedalus::{DRule, DTime, DedalusOptions, DedalusProgram, TemporalFacts};
use rtx_net::fault::FaultHook;
use rtx_net::{
    run_sharded, run_sharded_faulted, run_sparse_faulted, DeliveryPolicy, HorizontalPartition,
    NetError, Network, RunBudget, ShardOptions, ShardRunOutcome,
};
use rtx_query::atom;
use rtx_relational::{fact, Instance, Schema};
use rtx_transducer::Transducer;

fn input_s1(vals: &[i64]) -> Instance {
    Instance::from_facts(
        Schema::new().with("S", 1),
        vals.iter().map(|&v| fact!("S", v)).collect::<Vec<_>>(),
    )
    .unwrap()
}

fn input_s2(pairs: &[(i64, i64)]) -> Instance {
    Instance::from_facts(
        Schema::new().with("S", 2),
        pairs
            .iter()
            .map(|&(a, b)| fact!("S", a, b))
            .collect::<Vec<_>>(),
    )
    .unwrap()
}

fn strategy_for(net: &Network, adversary: Adversary) -> FaultPlanStrategy {
    FaultPlanStrategy {
        nodes: net.len(),
        edges: directed_edges(net),
        max_delay: 4,
        max_hold: 6,
        horizon: 5,
        adversary,
    }
}

/// A faulted round-based entry point: `run_sharded_faulted` or
/// `run_sparse_faulted`, whose signatures match.
type FaultedRun = fn(
    &Network,
    &Transducer,
    &HorizontalPartition,
    &ShardOptions,
    &RunBudget,
    &mut dyn FaultHook,
) -> Result<ShardRunOutcome, NetError>;

/// Both round schedules, named for assertion messages: the dense one
/// and the one that skips the heartbeats of parked nodes.
const SCHEDULES: [(&str, FaultedRun); 2] = [
    ("dense", run_sharded_faulted),
    ("sparse", run_sparse_faulted),
];

/// Draw a random fair plan from a seed (for the proptest properties,
/// whose strategies must be `proptest` strategies — we tunnel the plan
/// through its generating seed so shrinking works on the seed space).
fn random_plan(net: &Network, adversary: Adversary, plan_seed: u64) -> FaultPlan {
    let mut rng = StdRng::seed_from_u64(plan_seed);
    strategy_for(net, adversary).generate(&mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Acceptance: replay determinism. A faulted run is a pure function
    /// of `(topology, program, partition, FaultPlan, seed)` — bit for
    /// bit, including the transition log — on both round schedules.
    #[test]
    fn faulted_runs_replay_bit_for_bit(plan_seed in 0u64..1_000_000, seed in 0u64..1_000_000) {
        let net = Network::ring(5).unwrap();
        let t = examples::ex3_transitive_closure(true).unwrap();
        let p = HorizontalPartition::round_robin(&net, &input_s2(&[(1, 2), (2, 3), (3, 4)]));
        let plan = random_plan(&net, Adversary::CrashFaulty, plan_seed);
        let session = FaultSession::new(plan, seed);
        let opts = ShardOptions::serial().with_log();
        let budget = RunBudget::steps(60_000);
        for (name, run) in SCHEDULES {
            let a = run(&net, &t, &p, &opts, &budget, &mut session.clone()).unwrap();
            let b = run(&net, &t, &p, &opts, &budget, &mut session.clone()).unwrap();
            prop_assert_eq!(a.log.as_ref(), b.log.as_ref(), "{}", name);
            prop_assert_eq!(&a.outcome.final_config, &b.outcome.final_config);
            prop_assert_eq!(&a.outcome.output, &b.outcome.output);
            prop_assert_eq!(a.outcome.steps, b.outcome.steps);
        }
    }

    /// Acceptance: serial ≡ sharded bit-identity with fault injection
    /// enabled, across both round schedules, thread counts and delivery
    /// batching.
    #[test]
    fn serial_sharded_identity_under_faults(plan_seed in 0u64..1_000_000, seed in 0u64..1_000_000) {
        let net = Network::grid(3, 2).unwrap();
        let t = examples::ex3_transitive_closure(true).unwrap();
        let p = HorizontalPartition::round_robin(&net, &input_s2(&[(1, 2), (2, 3), (1, 4)]));
        let plan = random_plan(&net, Adversary::CrashFaulty, plan_seed);
        let session = FaultSession::new(plan, seed);
        let budget = RunBudget::steps(60_000);
        for (name, run) in SCHEDULES {
            for delivery in [DeliveryPolicy::One, DeliveryPolicy::Batch(4)] {
                let serial_opts = ShardOptions::serial().with_delivery(delivery).with_log();
                let serial =
                    run(&net, &t, &p, &serial_opts, &budget, &mut session.clone()).unwrap();
                for threads in [2usize, 4] {
                    let opts = ShardOptions::sharded(threads).with_delivery(delivery).with_log();
                    let sharded =
                        run(&net, &t, &p, &opts, &budget, &mut session.clone()).unwrap();
                    prop_assert_eq!(sharded.log.as_ref(), serial.log.as_ref(),
                        "{} threads={} delivery={:?}", name, threads, delivery);
                    prop_assert_eq!(&sharded.outcome.final_config, &serial.outcome.final_config);
                    prop_assert_eq!(sharded.rounds, serial.rounds);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Satellite: a crashed-then-restarted node with persistent EDB
    /// reaches the same quiescent output as an uncrashed run for
    /// monotone programs, on both round schedules. The monotone program is
    /// the paper's naive distributed TC (Example 3, unconditional
    /// flooding): its output quiesces at the global closure even though
    /// its buffers never drain, so the runs compare outputs at the
    /// reference target.
    #[test]
    fn persistent_edb_crash_is_harmless_for_monotone_programs(
        node in 0usize..4,
        at in 1u64..8,
        window in 1u64..8,
        seed in 0u64..1_000_000,
    ) {
        let net = Network::ring(4).unwrap();
        let t = examples::ex3_transitive_closure(false).unwrap();
        prop_assert!(rtx_transducer::Classification::of(&t).monotone);
        let p = HorizontalPartition::round_robin(&net, &input_s2(&[(1, 2), (2, 3), (3, 1)]));
        // fault-free reference: the output converges to the closure
        let reference = run_sharded(
            &net, &t, &p, &ShardOptions::serial(), &RunBudget::steps(4_000),
        ).unwrap();
        prop_assert!(!reference.outcome.output.is_empty());
        let mut plan = FaultPlan::none();
        plan.crashes.push(Crash {
            node,
            at,
            restart: Some(at + window),
            kind: CrashKind::PersistentEdb,
        });
        let session = FaultSession::new(plan, seed);
        let budget = RunBudget::steps(60_000).until_output(reference.outcome.output.clone());
        for (name, run) in SCHEDULES {
            let round = run(
                &net, &t, &p, &ShardOptions::serial(), &budget, &mut session.clone(),
            ).unwrap();
            prop_assert!(round.outcome.reached_target,
                "{} round schedule must recover the reference output, got {:?}",
                name, round.outcome.output);
        }
    }
}

/// Acceptance: the explorer finds no divergence across ≥ 200 seeded
/// adversarial runs for the repo's monotone example programs.
#[test]
fn explorer_finds_no_divergence_for_monotone_examples() {
    let opts = ExplorerOptions::auto()
        .with_runs(200)
        .with_seed(rtx_core::env::parse_u64("RTX_CHAOS_SEED").unwrap_or(0xCA1A_0005))
        .with_budget(RunBudget::steps(8_000));

    // Example 3a: equality selection (messageless, monotone).
    let net = Network::line(3).unwrap();
    let t = examples::ex3_equality_selection().unwrap();
    let full = input_s2(&[(1, 1), (1, 2), (5, 5)]);
    let p = HorizontalPartition::round_robin(&net, &full);
    let check = cross_validate(&net, &t, &p, &opts).unwrap();
    assert!(check.classification.monotone);
    assert!(
        check.report.consistent(),
        "eq-selection diverged: {:?}",
        check.report.divergence
    );
    assert!(check.agrees());
    assert_eq!(check.report.runs_executed, 200);

    // Example 3b: naive distributed transitive closure (monotone,
    // unconditionally flooding — output quiesces, buffers do not).
    let net = Network::ring(4).unwrap();
    let t = examples::ex3_transitive_closure(false).unwrap();
    let p = HorizontalPartition::round_robin(&net, &input_s2(&[(1, 2), (2, 3), (3, 4)]));
    let check = cross_validate(&net, &t, &p, &opts).unwrap();
    assert!(check.classification.monotone);
    assert!(
        check.report.consistent(),
        "monotone TC diverged under a fair adversary: {:?}",
        check.report.divergence
    );
    assert!(check.agrees());
    assert_eq!(check.report.runs_executed, 200);
    assert_eq!(
        check.report.reference.len(),
        6,
        "closure of the 4-cycle... "
    ); // 1→2,2→3,3→4 edges: closure pairs
}

/// Acceptance: the explorer finds **and shrinks** a diverging schedule
/// pair for a known coordination-requiring program — the paper's
/// Example 2, whose output is the first element each node happens to
/// receive.
#[test]
fn explorer_finds_and_shrinks_divergence_for_first_element() {
    let net = Network::line(3).unwrap();
    let t = examples::ex2_first_element().unwrap();
    let p = HorizontalPartition::round_robin(&net, &input_s1(&[10, 20, 30]));
    let opts = ExplorerOptions::auto()
        .with_runs(200)
        .with_budget(RunBudget::steps(20_000));
    let report = explore(&net, &t, &p, &opts).unwrap();
    let div = report
        .divergence
        .expect("the first-element network must diverge under reordering");
    assert_ne!(div.observed, div.expected, "the pair must actually differ");
    assert!(
        !div.plan.is_none(),
        "some fault must be load-bearing in the minimized plan"
    );
    // The minimized plan must itself still exhibit the divergence —
    // i.e. the reported run replays from (FaultPlan, seed).
    let session = FaultSession::new(div.plan.clone(), div.seed);
    let budget = RunBudget {
        max_steps: opts.budget.max_steps,
        target_output: Some(div.expected.clone()),
    };
    let serial = ShardOptions::serial();
    let replay = run_sharded_faulted(&net, &t, &p, &serial, &budget, &mut session.clone()).unwrap();
    assert_eq!(
        replay.outcome.output, div.observed,
        "the minimized divergence must replay exactly"
    );
    // The divergence is localized: the witness fact really separates
    // the two outputs, and it is pinned to a concrete replay round.
    let loc = div
        .localization
        .as_ref()
        .expect("a replayable divergence must localize");
    if loc.extra {
        assert!(
            !div.expected.contains(&loc.fact),
            "an extra witness must be absent from the reference"
        );
    } else {
        assert!(
            div.expected.contains(&loc.fact) && !div.observed.contains(&loc.fact),
            "a missing witness must separate expected from observed"
        );
    }
    assert!(loc.round >= 1, "rounds are 1-based in the round executors");
    // And the classifier knows this program is not monotone, so the
    // divergence does not refute CALM.
    let check = cross_validate(&net, &t, &p, &opts.with_runs(40)).unwrap();
    assert!(!check.classification.monotone);
    assert!(check.agrees());
}

/// The consistent-but-nonmonotone examples stay consistent under the
/// fair adversary (the classifier is conservative; the explorer
/// certifies what it cannot).
#[test]
fn fair_adversary_respects_consistent_nonmonotone_examples() {
    let opts = ExplorerOptions::auto()
        .with_runs(48)
        .with_budget(RunBudget::steps(20_000));
    // dedup transitive closure (negation in the send rules)
    let net = Network::line(3).unwrap();
    let t = examples::ex3_transitive_closure(true).unwrap();
    let p = HorizontalPartition::round_robin(&net, &input_s2(&[(1, 2), (2, 3)]));
    let report = explore(&net, &t, &p, &opts).unwrap();
    assert!(report.consistent(), "{:?}", report.divergence);
    assert!(report.reference_quiescent);

    // the echo transducer (consistent per topology)
    let t = examples::ex4_echo().unwrap();
    let p = HorizontalPartition::round_robin(&net, &input_s1(&[7, 8]));
    let report = explore(&net, &t, &p, &opts).unwrap();
    assert!(report.consistent(), "{:?}", report.divergence);
}

/// The Dedalus side of the explorer: a monotone persist-and-close
/// program converges to the same limit database under every async
/// fault plan (reseeded, widened, duplicating), while a first-arrival
/// race diverges — and the diverging plan is shrunk.
#[test]
fn dedalus_explorer_separates_confluent_from_racy_programs() {
    let opts = ExplorerOptions::auto().with_runs(64);
    let base = DedalusOptions {
        max_ticks: 120,
        async_max_delay: 3,
        seed: 0,
        async_faults: None,
    };

    // Confluent: persisted edges arrive over an async channel, the
    // closure is re-derived deductively each tick. Any delivery order
    // reaches the same limit.
    let confluent = DedalusProgram::new(vec![
        DRule::persist("s", 2),
        DRule::persist("sent", 2),
        DRule::persist("e", 2),
        DRule::new(atom!("m"; @"X", @"Y"), DTime::Async)
            .when(atom!("s"; @"X", @"Y"))
            .unless(atom!("sent"; @"X", @"Y")),
        DRule::new(atom!("sent"; @"X", @"Y"), DTime::Next).when(atom!("s"; @"X", @"Y")),
        DRule::new(atom!("e"; @"X", @"Y"), DTime::Same).when(atom!("m"; @"X", @"Y")),
        DRule::new(atom!("t"; @"X", @"Y"), DTime::Same).when(atom!("e"; @"X", @"Y")),
        DRule::new(atom!("t"; @"X", @"Z"), DTime::Same)
            .when(atom!("t"; @"X", @"Y"))
            .when(atom!("e"; @"Y", @"Z")),
    ])
    .unwrap();
    let mut edb = TemporalFacts::new();
    edb.insert(0, fact!("s", 1, 2));
    edb.insert(0, fact!("s", 2, 3));
    edb.insert(1, fact!("s", 3, 4));
    let report = explore_dedalus(&confluent, &edb, &base, &opts).unwrap();
    assert!(report.reference_converged);
    assert!(report.consistent(), "{:?}", report.divergence);
    assert_eq!(report.runs_executed, 64);
    assert!(report.reference.contains_fact(&fact!("t", 1, 4)));

    // Racy: the first arrival wins; different async schedules crown
    // different winners (or joint winners on a tie).
    let racy = DedalusProgram::new(vec![
        DRule::persist("s", 1),
        DRule::persist("sent", 1),
        DRule::persist("won", 1),
        DRule::persist("taken", 0),
        DRule::new(atom!("m"; @"X"), DTime::Async)
            .when(atom!("s"; @"X"))
            .unless(atom!("sent"; @"X")),
        DRule::new(atom!("sent"; @"X"), DTime::Next).when(atom!("s"; @"X")),
        DRule::new(atom!("won"; @"X"), DTime::Next)
            .when(atom!("m"; @"X"))
            .unless(atom!("taken")),
        DRule::new(atom!("taken"), DTime::Next).when(atom!("m"; @"X")),
    ])
    .unwrap();
    let mut edb = TemporalFacts::new();
    edb.insert(0, fact!("s", 1));
    edb.insert(0, fact!("s", 2));
    let report = explore_dedalus(&racy, &edb, &base, &opts).unwrap();
    let div = report
        .divergence
        .expect("the first-arrival race must diverge across async schedules");
    assert!(report.reference_converged);
    // The shrinker always strips duplication: removing a duplicate
    // never changes first-arrival times, so the race outcome survives
    // the candidate and the smaller plan is kept. (Extra delay can be
    // load-bearing for a given seed — the race outcome is a function
    // of the delay draws — so no claim is made about it.)
    assert_eq!(div.plan.dup_millis, 0, "minimized: {:?}", div.plan);
}

/// Send-once protocols are *not* crash-tolerant: a persistent-EDB
/// crash of the bridge node on a line permanently starves the far side
/// of facts the originator will never resend. The **global** output
/// union hides this (every fact's originator outputs it anyway) — the
/// per-node comparison exposes it, which is exactly what
/// `ExplorerOptions::per_node` is for. This is the boundary the CALM
/// theorems draw: soft-state loss is outside the fair-run space, and
/// only monotone, retransmitting programs survive it (see the
/// `persistent_edb_crash_is_harmless_for_monotone_programs` property).
#[test]
fn crash_faulty_adversary_breaks_send_once_dissemination_per_node() {
    let net = Network::line(3).unwrap();
    let t = examples::ex3_transitive_closure(true).unwrap();
    // all input at n0: dissemination must cross the n1 bridge exactly
    // once, because the dedup send rules never retransmit
    let p = HorizontalPartition::concentrate(
        &net,
        &input_s2(&[(1, 2), (2, 3)]),
        &rtx_relational::Value::sym("n0"),
    )
    .unwrap();
    let opts = ExplorerOptions::auto()
        .with_runs(160)
        .with_adversary(Adversary::CrashFaulty)
        .with_budget(RunBudget::steps(20_000))
        .per_node();
    let report = explore(&net, &t, &p, &opts).unwrap();
    let div = report
        .divergence
        .expect("a persistent-EDB crash around the bridge must starve a node");
    assert!(div.per_node);
    assert!(
        div.plan
            .crashes
            .iter()
            .any(|c| c.kind == CrashKind::PersistentEdb),
        "the minimized plan must pin the loss on a wiping crash: {}",
        div.plan
    );
    // The localization names the starved node and the fact it never
    // outputs: a wipe only loses state, so no node can emit anything
    // the fault-free run would not.
    let loc = div
        .localization
        .as_ref()
        .expect("a per-node divergence must localize");
    assert!(
        !loc.extra,
        "soft-state loss starves, it cannot invent facts: {loc:?}"
    );
    assert!(
        div.expected.contains(&loc.fact),
        "the starved fact exists in the global reference (the union hides the loss)"
    );
    assert!(loc.round >= 1);
    // The same program under the same adversary is *globally*
    // consistent: the union never notices the starved node.
    let global = explore(
        &net,
        &t,
        &p,
        &ExplorerOptions {
            per_node: false,
            ..opts
        },
    )
    .unwrap();
    assert!(global.consistent(), "{:?}", global.divergence);
}
