//! Property tests for the cross-tick incremental fixpoint engine:
//!
//! * `MaintainedFixpoint` ≡ from-scratch `Program::eval` on random
//!   stratified programs (negation across strata included) under random
//!   ± delta schedules, including retraction-heavy ones and IDB seed
//!   changes;
//! * its support counts ≡ `rtx_ref::support_counts` after every delta
//!   of random interleaved insert/delete schedules;
//! * the Dedalus runtime, whose maintained fixpoint takes the carry's
//!   dropped facts as retractions, replays the reference tick loop of
//!   `rtx-ref` tick for tick on programs whose carries drop facts every
//!   tick.

mod common;

use proptest::prelude::*;
use rtx::dedalus::{AsyncFaultPlan, DRule, DTime, DedalusOptions, DedalusProgram};
use rtx::query::incremental::MaintainedFixpoint;
use rtx::query::{atom, Atom, Literal, Program, Rule, Term, Var};
use rtx::relational::{fact, Fact, Instance, InstanceDelta, Schema};
use std::collections::BTreeSet;

/// A random stratified program over EDB {E/2, S/1} with a recursive
/// middle layer {T/2, U/1} (negation on EDB only) and a top layer
/// {V/1} that may negate the middle layer — so random runs exercise
/// recursion, intra-stratum interplay, *and* negation across strata.
fn random_layered_program(seed: u64, n_rules: usize) -> Program {
    use rand::{Rng, SeedableRng};
    const VARS: [&str; 4] = ["X", "Y", "Z", "W"];
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut rules = Vec::new();
    for ri in 0..n_rules.max(2) {
        // Alternate layers so both are always populated.
        let top_layer = ri % 2 == 1;
        let n_body = rng.gen_range(1usize..=3);
        let mut body = Vec::new();
        let mut body_vars: Vec<Var> = Vec::new();
        for _ in 0..n_body {
            let choice = if top_layer {
                rng.gen_range(0usize..5)
            } else {
                rng.gen_range(0usize..4)
            };
            let (pred, arity) = match choice {
                0 => ("E", 2),
                1 => ("S", 1),
                2 => ("T", 2),
                3 => ("U", 1),
                _ => ("V", 1),
            };
            let terms: Vec<Term> = (0..arity)
                .map(|_| {
                    let v = VARS[rng.gen_range(0usize..VARS.len())];
                    body_vars.push(Var::new(v));
                    Term::var(v)
                })
                .collect();
            body.push(Literal::Pos(Atom::new(pred, terms)));
        }
        let pick = |rng: &mut rand::rngs::StdRng, vars: &[Var]| -> Var {
            vars[rng.gen_range(0usize..vars.len())]
        };
        if rng.gen_range(0usize..3) == 0 {
            // Bottom layer negates EDB; top layer may negate the middle
            // layer (strictly lower — stratifiable by construction).
            let v = pick(&mut rng, &body_vars);
            let neg = if top_layer && rng.gen_range(0usize..2) == 0 {
                Atom::new("U", vec![Term::Var(v)])
            } else {
                Atom::new("S", vec![Term::Var(v)])
            };
            body.push(Literal::Neg(neg));
        }
        if rng.gen_range(0usize..3) == 0 {
            let a = pick(&mut rng, &body_vars);
            let b = pick(&mut rng, &body_vars);
            body.push(Literal::Diseq(Term::Var(a), Term::Var(b)));
        }
        let (head_pred, head_arity) = if top_layer {
            ("V", 1)
        } else if rng.gen_range(0usize..2) == 0 {
            ("T", 2)
        } else {
            ("U", 1)
        };
        let head_terms: Vec<Term> = (0..head_arity)
            .map(|_| Term::Var(pick(&mut rng, &body_vars)))
            .collect();
        rules
            .push(Rule::new(Atom::new(head_pred, head_terms), body).expect("safe by construction"));
    }
    Program::new(rules).expect("consistent arities by construction")
}

fn full_schema() -> Schema {
    Schema::new()
        .with("E", 2)
        .with("S", 1)
        .with("T", 2)
        .with("U", 1)
        .with("V", 1)
}

/// Turn a ± schedule step into facts over the small shared domain.
fn step_facts(pairs: &[(u8, u8)], singles: &[u8], seeds: &[(u8, u8)]) -> Vec<Fact> {
    let mut out = Vec::new();
    for &(a, b) in pairs {
        out.push(fact!("E", a as i64, b as i64));
    }
    for &v in singles {
        out.push(fact!("S", v as i64));
    }
    for &(a, b) in seeds {
        out.push(fact!("T", a as i64, b as i64));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole equivalence: a maintained fixpoint advanced by a
    /// random ± schedule always equals a from-scratch evaluation of
    /// the same base — outputs and bookkeeping alike. Removal steps
    /// draw from the same small domain as insertions, so schedules are
    /// genuinely retraction-heavy, and IDB seed facts come and go too.
    #[test]
    fn maintained_fixpoint_equals_scratch(
        prog_seed in 0u64..10_000,
        n_rules in 2usize..7,
        schedule in proptest::collection::vec(
            (proptest::collection::vec((0u8..5, 0u8..5), 0..5),
             proptest::collection::vec(0u8..5, 0..3),
             proptest::collection::vec((0u8..5, 0u8..5), 0..4),
             proptest::collection::vec(0u8..5, 0..2),
             proptest::collection::vec((0u8..5, 0u8..5), 0..2)),
            1..6)) {
        let p = random_layered_program(prog_seed, n_rules);
        let mut base = Instance::empty(full_schema());
        let mut fix = MaintainedFixpoint::new(&p).unwrap();
        fix.initialize(&base).unwrap();
        for (add_pairs, add_singles, rem_pairs, rem_singles, seeds) in &schedule {
            // `seeds` adds exogenous T facts (IDB seed support); the
            // final teardown below retracts them again.
            let added = step_facts(add_pairs, add_singles, seeds);
            let removed = step_facts(rem_pairs, rem_singles, &[]);
            let delta = InstanceDelta::from_parts(added, removed);
            base.apply_delta(&delta).unwrap();
            let maintained = fix.apply(&delta).unwrap();
            let scratch = p.eval(&base).unwrap();
            prop_assert_eq!(maintained, &scratch);
        }
        // Tear everything down: the maintained store must come back to
        // the fixpoint of the (possibly empty) remainder.
        let all: Vec<Fact> = base.facts().collect();
        let delta = InstanceDelta::from_parts(Vec::new(), all);
        base.apply_delta(&delta).unwrap();
        let maintained = fix.apply(&delta).unwrap();
        prop_assert_eq!(maintained, &p.eval(&base).unwrap());
    }
}

/// Programs for the support-count property: linear recursion, the
/// recursive predicate twice in one body, stratified negation above
/// and inside a recursive stratum, and recursive heads with a
/// constant, a repeated variable or no arguments at all.
const SUPPORT_PROGRAMS: [&str; 5] = [
    "T(X,Y) :- E(X,Y). T(X,Z) :- T(X,Y), E(Y,Z).",
    "T(X,Y) :- E(X,Y). T(X,Z) :- T(X,Y), T(Y,Z).",
    "T(X,Y) :- E(X,Y). T(X,Z) :- T(X,Y), E(Y,Z).
     U(X) :- S(X), !T(X,X). V(X,Y) :- T(X,Y), !S(Y), X != Y.",
    "R(X) :- S(X). R(Y) :- R(X), E(X,Y).
     T(X,Y) :- E(X,Y), !R(X). T(X,Z) :- T(X,Y), T(Y,Z), !S(Z).",
    "T(X,Y) :- E(X,Y). T(X,Z) :- T(X,Y), E(Y,Z).
     T(0,X) :- Go, S(X). T(X,X) :- T(X,Y), S(Y). Go :- T(X,X).",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// After every delta of a random interleaved insert/delete
    /// schedule — over EDB facts and IDB seeds alike — the maintained
    /// fixpoint is the reference fixpoint, and every fact's kept
    /// support count is its reference count: its rule firings over the
    /// fixpoint plus 1 if it is a seed.
    #[test]
    fn support_counts_match_the_reference(
        which in 0usize..SUPPORT_PROGRAMS.len(),
        schedule in proptest::collection::vec(
            proptest::collection::vec((0u8..3, 0u8..3, 0u8..3, any::<bool>()), 1..8),
            1..10),
    ) {
        let p = rtx::query::parser::parse_program(SUPPORT_PROGRAMS[which]).unwrap();
        let schema = Schema::new()
            .with("E", 2)
            .with("S", 1)
            .with("R", 1)
            .with("T", 2)
            .with("U", 1)
            .with("V", 2)
            .with("Go", 0);
        let mut base = Instance::empty(schema);
        let mut fix = MaintainedFixpoint::new(&p).unwrap();
        fix.initialize(&base).unwrap();
        for ops in &schedule {
            let (mut added, mut removed) = (Vec::new(), Vec::new());
            for &(kind, a, b, insert) in ops {
                let (a, b) = (a as i64, b as i64);
                let f = match kind {
                    0 => fact!("E", a, b),
                    1 => fact!("S", a),
                    _ => fact!("T", a, b),
                };
                if insert { added.push(f) } else { removed.push(f) }
            }
            let delta = InstanceDelta::from_parts(added, removed);
            base.apply_delta(&delta).unwrap();
            fix.apply(&delta).unwrap();
            let facts: BTreeSet<Fact> = fix.current().facts().collect();
            prop_assert_eq!(&facts, &rtx_ref::eval(&p, &base));
            let support = rtx_ref::support_counts(&p, &base);
            prop_assert_eq!(support.len(), facts.len());
            for (f, &count) in &support {
                prop_assert_eq!(fix.support(f), count, "support of {}", f);
            }
        }
    }
}

/// A Dedalus program exercising every timing class whose carry drops
/// facts every tick: a one-hot token walks the `n` graph (`at` is
/// *not* persisted — each tick retracts the old position), reachability
/// is recomputed deductively from the moving token, and a negation
/// stratum reports the unreached nodes.
fn token_program() -> DedalusProgram {
    DedalusProgram::new(vec![
        DRule::persist("n", 2),
        DRule::persist("e", 2),
        DRule::persist("s", 1),
        DRule::persist("got", 1),
        // inductive, non-persisting: the carry retracts the old `at`
        DRule::new(atom!("at"; @"Y"), DTime::Next)
            .when(atom!("at"; @"X"))
            .when(atom!("n"; @"X", @"Y")),
        // deductive stratum 0: reach from the token over e-edges
        DRule::new(atom!("reach"; @"X"), DTime::Same).when(atom!("at"; @"X")),
        DRule::new(atom!("reach"; @"Y"), DTime::Same)
            .when(atom!("reach"; @"X"))
            .when(atom!("e"; @"X", @"Y")),
        // deductive stratum 1: negation across strata
        DRule::new(atom!("unreached"; @"X"), DTime::Same)
            .when(atom!("s"; @"X"))
            .unless(atom!("reach"; @"X")),
        // async + record
        DRule::new(atom!("m"; @"X"), DTime::Async).when(atom!("at"; @"X")),
        DRule::new(atom!("got"; @"X"), DTime::Same).when(atom!("m"; @"X")),
    ])
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The maintained fixpoint through the whole Dedalus loop ≡ the
    /// reference tick loop — ticks and convergence tick — on random
    /// token graphs, edge sets, arrival schedules and delivery seeds,
    /// under the plain seeded async draw and under a widening,
    /// duplicating `AsyncFaultPlan`. The token carry retracts facts
    /// every tick, so this is the retraction-heavy schedule of the DRed
    /// path.
    #[test]
    fn dedalus_incremental_fixpoint_equals_scratch(
        token_edges in proptest::collection::vec((0u8..4, 0u8..4), 1..6),
        e_edges in proptest::collection::vec((0u8..4, 0u8..4), 0..6),
        nodes in proptest::collection::btree_set(0u8..4, 1..4),
        spread in 0u64..3,
        run_seed in 0u64..500) {
        let p = token_program();
        let mut arrivals: Vec<(u64, Fact)> = Vec::new();
        for (i, &(a, b)) in token_edges.iter().enumerate() {
            arrivals.push(((i as u64) % (spread + 1), fact!("n", a as i64, b as i64)));
        }
        for (i, &(a, b)) in e_edges.iter().enumerate() {
            arrivals.push(((i as u64) % (spread + 1), fact!("e", a as i64, b as i64)));
        }
        for &v in &nodes {
            arrivals.push((0, fact!("s", v as i64)));
        }
        arrivals.push((0, fact!("at", 0)));
        let plain = DedalusOptions { max_ticks: 40, async_max_delay: 2, seed: run_seed, async_faults: None };
        let faulted = DedalusOptions {
            async_faults: Some(AsyncFaultPlan { seed: run_seed, extra_delay: (0, 2), dup_millis: 500 }),
            ..plain.clone()
        };
        for opts in [&plain, &faulted] {
            let (runtime, reference) = common::runtime_and_reference(&p, &arrivals, opts);
            prop_assert_eq!(runtime.converged_at, reference.converged_at);
            prop_assert_eq!(&runtime.ticks, &reference.ticks);
        }
    }
}

/// The DRed unit case at workspace level: over-deletion must re-derive
/// alternately supported facts, and cyclic support must not keep facts
/// alive (see `rtx_query::incremental` for the engine-level tests).
#[test]
fn over_deletion_rederivation_is_handled() {
    let p =
        rtx::query::parser::parse_program("T(X,Y) :- E(X,Y). T(X,Z) :- T(X,Y), E(Y,Z).").unwrap();
    let sch = Schema::new().with("E", 2).with("T", 2);
    let mut base = Instance::empty(sch);
    for (a, b) in [(1i64, 2i64), (2, 3), (3, 1), (1, 3)] {
        base.insert_fact(fact!("E", a, b)).unwrap();
    }
    let mut fix = MaintainedFixpoint::new(&p).unwrap();
    fix.initialize(&base).unwrap();
    // Break the cycle: everything reachable-only-through-(3,1) must go,
    // while T(1,3) (doubly derivable) survives via the direct edge.
    let delta = InstanceDelta::from_parts(Vec::new(), vec![fact!("E", 3, 1)]);
    base.apply_delta(&delta).unwrap();
    fix.apply(&delta).unwrap();
    assert_eq!(fix.current(), &p.eval(&base).unwrap());
    assert!(fix.current().contains_fact(&fact!("T", 1, 3)));
    assert!(!fix.current().contains_fact(&fact!("T", 3, 3)));
    assert!(fix.stats().facts_rederived > 0, "{:?}", fix.stats());
    assert!(fix.stats().facts_retracted > 0);
}

/// Maintenance commits what it derives a batch at a time. A 64-edge
/// chain maintained edge by edge puts its 2,080 closure facts in `T`,
/// well inside the runs regime, and retracting edges from the middle
/// over-deletes and re-derives some of them; through all of it no point
/// insert or remove reaches a runs-regime relation, where each would
/// probe every level of the spine.
#[test]
fn maintaining_a_closure_writes_no_point_into_a_spine() {
    let p =
        rtx::query::parser::parse_program("T(X,Y) :- E(X,Y). T(X,Z) :- T(X,Y), E(Y,Z).").unwrap();
    let mut base = Instance::empty(Schema::new().with("E", 2).with("T", 2));
    let mut fix = MaintainedFixpoint::new(&p).unwrap();
    fix.initialize(&base).unwrap();
    let point_writes = rtx::relational::runs_point_writes();
    let mut apply = |fix: &mut MaintainedFixpoint, added: Vec<Fact>, removed: Vec<Fact>| {
        let delta = InstanceDelta::from_parts(added, removed);
        base.apply_delta(&delta).unwrap();
        fix.apply(&delta).unwrap();
        assert_eq!(fix.current(), &p.eval(&base).unwrap());
    };
    for i in 0..64i64 {
        apply(&mut fix, vec![fact!("E", i, i + 1)], vec![]);
    }
    let t = fix.current().relation(&"T".into()).unwrap();
    assert_eq!(t.len(), 64 * 65 / 2);
    assert!(!t.in_small_regime());
    for i in [40i64, 20] {
        let bypass = fact!("E", i - 1, i + 1);
        apply(&mut fix, vec![bypass], vec![fact!("E", i, i + 1)]);
    }
    assert!(fix.stats().facts_rederived > 0, "{:?}", fix.stats());
    assert_eq!(
        rtx::relational::runs_point_writes() - point_writes,
        0,
        "point writes reached a runs-regime relation"
    );
}
