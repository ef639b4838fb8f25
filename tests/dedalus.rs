//! `DedalusRuntime::run` against the reference tick loop
//! (`rtx_ref::dedalus`) on hand-written programs: every timing class,
//! time entanglement in inductive and deductive rules (beside a user
//! relation named `now`), a carry that retracts every tick, and both
//! async delay paths (the plain seeded draw and `AsyncFaultPlan`s that
//! widen and duplicate deliveries).
//! The randomized versions are `tests/properties.rs` and
//! `tests/incremental.rs`.

mod common;

use common::runtime_and_reference;
use rtx::dedalus::{parse_dedalus, AsyncFaultPlan, DRule, DTime, DedalusOptions, DedalusProgram};
use rtx::query::atom;
use rtx::relational::{fact, Fact};

/// All three timing classes plus negation: `e` edges close into `t`
/// within a tick, `m` is sent asynchronously until the inductive `done`
/// latch flips, and its deliveries are recorded in `got`. The carry
/// drops each `m` delivery after its tick, so the maintained fixpoint
/// sees genuine retractions.
fn three_timing_classes() -> (DedalusProgram, Vec<(u64, Fact)>) {
    let p = DedalusProgram::new(vec![
        DRule::persist("e", 2),
        DRule::persist("got", 1),
        DRule::persist("done", 0),
        DRule::new(atom!("t"; @"X", @"Y"), DTime::Same).when(atom!("e"; @"X", @"Y")),
        DRule::new(atom!("t"; @"X", @"Z"), DTime::Same)
            .when(atom!("t"; @"X", @"Y"))
            .when(atom!("e"; @"Y", @"Z")),
        DRule::new(atom!("m"; @"X"), DTime::Async)
            .when(atom!("e"; @"X", @"Y"))
            .unless(atom!("done")),
        DRule::new(atom!("got"; @"X"), DTime::Same).when(atom!("m"; @"X")),
        DRule::new(atom!("done"), DTime::Next).when(atom!("e"; @"X", @"Y")),
    ])
    .unwrap();
    let arrivals = vec![
        (0, fact!("e", 1, 2)),
        (2, fact!("e", 2, 3)),
        (3, fact!("e", 3, 4)),
    ];
    (p, arrivals)
}

#[test]
fn all_timing_classes_match_the_reference() {
    let (p, arrivals) = three_timing_classes();
    for seed in [0u64, 7, 42] {
        let opts = DedalusOptions {
            max_ticks: 80,
            async_max_delay: 3,
            seed,
            async_faults: None,
        };
        let (runtime, reference) = runtime_and_reference(&p, &arrivals, &opts);
        assert!(reference.converged_at.is_some(), "seed {seed}");
        assert_eq!(runtime, reference, "seed {seed}");
    }
}

#[test]
fn retracting_carry_matches_the_reference_under_fault_plans() {
    let (p, arrivals) = three_timing_classes();
    for seed in [0u64, 7, 42] {
        let opts = DedalusOptions {
            max_ticks: 80,
            async_max_delay: 3,
            seed: 0,
            async_faults: Some(AsyncFaultPlan {
                seed,
                extra_delay: (0, 3),
                dup_millis: 500,
            }),
        };
        let (runtime, reference) = runtime_and_reference(&p, &arrivals, &opts);
        assert!(reference.converged_at.is_some(), "seed {seed}");
        assert_eq!(runtime, reference, "seed {seed}");
    }
}

#[test]
fn entangled_inductive_rules_match_the_reference() {
    // tick(T)@next ← go, T = now: a fresh value every tick, so the run
    // never converges.
    let p = DedalusProgram::new(vec![
        DRule::persist("go", 0),
        DRule::persist("tick", 1),
        DRule::new(atom!("tick"; @"T"), DTime::Next)
            .when(atom!("go"))
            .with_time_var("T"),
    ])
    .unwrap();
    let opts = DedalusOptions {
        max_ticks: 8,
        ..Default::default()
    };
    let (runtime, reference) = runtime_and_reference(&p, &[(0, fact!("go"))], &opts);
    assert_eq!(reference.ticks.len(), 8);
    assert_eq!(runtime, reference);
}

#[test]
fn entangled_deductive_rules_match_the_reference() {
    // A deductive rule that names the time variable reads the tick from
    // the clock fact, so its derivations change every tick under the
    // maintained fixpoint.
    let p = DedalusProgram::new(vec![
        DRule::persist("go", 0),
        DRule::new(atom!("stamp"; @"T"), DTime::Same)
            .when(atom!("go"))
            .with_time_var("T"),
    ])
    .unwrap();
    let opts = DedalusOptions {
        max_ticks: 6,
        ..Default::default()
    };
    let (runtime, reference) = runtime_and_reference(&p, &[(0, fact!("go"))], &opts);
    assert!(reference.ticks[5].contains(&fact!("stamp", 5)));
    assert_eq!(runtime, reference);
}

#[test]
fn token_ring_carry_matches_the_reference() {
    // A one-hot token walks a ring: each tick the carry drops the old
    // position and adds the next one — every tick retracts.
    let p = DedalusProgram::new(vec![
        DRule::persist("n", 2),
        DRule::new(atom!("at"; @"Y"), DTime::Next)
            .when(atom!("at"; @"X"))
            .when(atom!("n"; @"X", @"Y")),
        DRule::new(atom!("seen"; @"X"), DTime::Same).when(atom!("at"; @"X")),
        DRule::persist("seen", 1),
    ])
    .unwrap();
    let mut arrivals: Vec<(u64, Fact)> =
        (0..5i64).map(|i| (0, fact!("n", i, (i + 1) % 5))).collect();
    arrivals.push((0, fact!("at", 0)));
    let opts = DedalusOptions {
        max_ticks: 20,
        ..Default::default()
    };
    let (runtime, reference) = runtime_and_reference(&p, &arrivals, &opts);
    assert_eq!(runtime, reference);
    // every node got visited
    let last = reference.ticks.last().unwrap();
    for i in 0..5i64 {
        assert!(last.contains(&fact!("seen", i)));
    }
}

#[test]
fn a_relation_named_now_beside_entangled_rules_matches_the_reference() {
    // `now` names a user relation in atom position and the time
    // variable in term position; the clock relation the runtime reads
    // the tick from is neither, so nothing collides.
    let p = parse_dedalus(
        "now(X)@next :- now(X).
         seen(X, now) :- now(X), X != now.
         seen(X, T)@next :- seen(X, T).
         late(now)@next :- now(X), !seen(X, 1).",
    )
    .unwrap();
    let opts = DedalusOptions {
        max_ticks: 7,
        ..Default::default()
    };
    let arrivals = [(0, fact!("now", 1)), (2, fact!("now", 2))];
    let (runtime, reference) = runtime_and_reference(&p, &arrivals, &opts);
    assert!(reference.ticks[6].contains(&fact!("seen", 2, 6)));
    assert!(reference.ticks[6].contains(&fact!("late", 5)));
    assert_eq!(runtime, reference);
}
