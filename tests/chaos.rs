//! Workspace-level chaos smoke: the facade re-exports, the
//! `RTX_CHAOS_*` environment wiring, and fault injection composed with
//! the sharded executor at the machine's parallelism (CI also runs this
//! suite under a pinned `RTX_CHAOS_SEED`).

use rtx::calm::examples;
use rtx::chaos::{explore, Crash, CrashKind, ExplorerOptions, FaultPlan, FaultSession, LinkFaults};
use rtx::net::{run_sharded_faulted, HorizontalPartition, Network, RunBudget, ShardOptions};
use rtx::relational::{fact, Instance, Schema};

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

/// A plan exercising every fault family at once.
fn kitchen_sink_plan() -> FaultPlan {
    let mut plan = FaultPlan::none();
    plan.default_link = LinkFaults {
        delay: (0, 3),
        dup_millis: 300,
        drop_millis: 0,
    };
    plan.partitions.push(rtx::chaos::Partition {
        side: [0, 1].into_iter().collect(),
        from: 2,
        heal: 6,
    });
    plan.crashes.push(Crash {
        node: 2,
        at: 3,
        restart: Some(7),
        kind: CrashKind::PersistentEdb,
    });
    plan
}

#[test]
fn faulted_auto_sharded_run_matches_serial_bit_for_bit() {
    let net = Network::grid(3, 2).unwrap();
    let t = examples::ex3_transitive_closure(true).unwrap();
    let p = HorizontalPartition::round_robin(&net, &input_s2(&[(1, 2), (2, 3), (3, 4)]));
    let budget = RunBudget::steps(100_000);
    let seed = rtx_core::env::parse_u64("RTX_CHAOS_SEED").unwrap_or(0x000C_7A05);
    let session = FaultSession::new(kitchen_sink_plan(), seed);
    let serial = run_sharded_faulted(
        &net,
        &t,
        &p,
        &ShardOptions::serial().with_log(),
        &budget,
        &mut session.clone(),
    )
    .unwrap();
    // As many workers as the machine runs in parallel (at least two) —
    // fault injection must be bit-identical regardless.
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get().max(2));
    let auto = run_sharded_faulted(
        &net,
        &t,
        &p,
        &ShardOptions::sharded(threads).with_log(),
        &budget,
        &mut session.clone(),
    )
    .unwrap();
    assert_eq!(auto.log, serial.log);
    assert_eq!(auto.outcome.final_config, serial.outcome.final_config);
    assert_eq!(auto.outcome.output, serial.outcome.output);
    assert!(serial.outcome.quiescent);
}

#[test]
fn explorer_options_honor_the_chaos_env() {
    let opts = ExplorerOptions::auto();
    if let Some(seed) = rtx_core::env::parse_u64("RTX_CHAOS_SEED") {
        assert_eq!(opts.seed, seed, "RTX_CHAOS_SEED must drive the explorer");
    }
    if let Some(runs) = rtx_core::env::parse_positive_usize("RTX_CHAOS_RUNS") {
        assert_eq!(opts.runs, runs, "RTX_CHAOS_RUNS must drive the explorer");
    }
}

#[test]
fn facade_explore_certifies_the_dedup_flooder() {
    let net = Network::ring(4).unwrap();
    let t = examples::ex3_transitive_closure(true).unwrap();
    let p = HorizontalPartition::round_robin(&net, &input_s2(&[(1, 2), (2, 3)]));
    let opts = ExplorerOptions::auto()
        .with_runs(24)
        .with_budget(RunBudget::steps(20_000));
    let report = explore(&net, &t, &p, &opts).unwrap();
    assert!(report.consistent(), "{:?}", report.divergence);
    assert!(report.reference_quiescent);
    assert_eq!(report.runs_executed, 24);
}
