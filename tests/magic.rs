//! Property tests for goal-directed evaluation: the magic-sets
//! rewrite must be **answer-equivalent** to full materialization — the
//! reference fixpoint (`rtx_ref::eval`) filtered by the pattern — on
//! random stratified programs (recursion, negation, nonequalities) ×
//! random bound/free query patterns — plus directed tests pinning the adornment of repeated
//! predicates, the strictly-smaller derivation counts that justify
//! the rewrite, seed rebinding through the maintained fixpoint, and
//! the fallback paths (all-free patterns, EDB patterns, rewrites that
//! would be unstratifiable).

use proptest::prelude::*;
use rtx::query::parser::parse_program;
use rtx::query::{atom, Atom, Program, Term};
use rtx::relational::{fact, Instance, Relation, Schema};

/// The same always-stratified pool as `tests/storage.rs`: stratum 1 is
/// positive (optionally recursive) over the EDB `e`, stratum 2 negates
/// stratum-1 predicates. Index 0 is mandatory so `p` is always defined.
const RULE_POOL: [&str; 8] = [
    "p(X,Y) :- e(X,Y).",
    "p(X,Z) :- p(X,Y), e(Y,Z).",
    "q(X) :- e(X,Y).",
    "q(Y) :- e(X,Y).",
    "r(X,Y) :- e(X,Y), !p(Y,X).",
    "s(X) :- q(X), !p(X,X).",
    "s(Y) :- e(X,Y), X != Y.",
    "w(X,Y) :- e(X,Y), q(Y), !s(X).",
];

/// Query targets drawn from the pool's predicates (plus the EDB —
/// an exercised fallback path).
const TARGETS: [(&str, usize); 6] = [("p", 2), ("q", 1), ("r", 2), ("s", 1), ("w", 2), ("e", 2)];

fn random_program(picks: &[bool]) -> String {
    let mut src = String::from(RULE_POOL[0]);
    for (i, rule) in RULE_POOL.iter().enumerate().skip(1) {
        if *picks.get(i - 1).unwrap_or(&false) {
            src.push(' ');
            src.push_str(rule);
        }
    }
    src
}

fn edge_instance(pairs: &[(u8, u8)]) -> Instance {
    let mut i = Instance::empty(Schema::new().with("e", 2));
    for &(a, b) in pairs {
        i.insert_fact(fact!("e", a as i64, b as i64)).unwrap();
    }
    i
}

/// Build a pattern for `pred` with the given per-position bound mask
/// and constants; free positions get distinct variables.
fn pattern_of(pred: &str, mask: &[bool], consts: &[i64]) -> Atom {
    let names = ["A", "B", "C"];
    let terms: Vec<Term> = mask
        .iter()
        .enumerate()
        .map(|(i, b)| {
            if *b {
                Term::cons(consts[i])
            } else {
                Term::var(names[i])
            }
        })
        .collect();
    Atom::new(pred, terms)
}

/// The answer by full materialization: every fact of the reference
/// fixpoint that matches `pattern`.
fn materialized(program: &Program, pattern: &Atom, db: &Instance) -> Relation {
    let facts = rtx_ref::eval(program, db).into_iter();
    let matching = facts.filter(|f| f.rel() == &pattern.pred && pattern.matches(f.tuple()));
    Relation::from_tuples(pattern.arity(), matching.map(|f| f.tuple().clone())).unwrap()
}

fn chain_db(n: i64) -> Instance {
    let mut db = Instance::empty(Schema::new().with("e", 2));
    for i in 0..n {
        db.insert_fact(fact!("e", i, i + 1)).unwrap();
    }
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Magic ≡ materialize on random programs × random patterns: same
    /// answers whether the query's bound constants drive a rewrite or a
    /// full fixpoint plus filter.
    #[test]
    fn magic_matches_materialization(
        pairs in proptest::collection::vec((0u8..6, 0u8..6), 0..14),
        picks in proptest::collection::vec(any::<bool>(), RULE_POOL.len() - 1),
        target in 0usize..TARGETS.len(),
        mask in proptest::collection::vec(any::<bool>(), 2),
        consts in proptest::collection::vec(0i64..6, 2),
    ) {
        let program = parse_program(&random_program(&picks)).unwrap();
        let (pred, arity) = TARGETS[target];
        if program.signature().arity(&pred.into()) != Some(arity) {
            // This random program never mentions the target (e.g. `w`
            // without its rule picked): nothing to query.
            return Ok(());
        }
        let pattern = pattern_of(pred, &mask[..arity], &consts);
        let magic = program.for_query(&pattern).unwrap();
        let db = edge_instance(&pairs);
        prop_assert_eq!(
            magic.answer(&db).unwrap(),
            materialized(&program, &pattern, &db),
            "pattern {} over {:?}", &pattern, &picks
        );
    }

    /// Rebinding a maintained magic query to new constants via the ±
    /// seed delta gives the same answers as building the new query
    /// from scratch.
    #[test]
    fn maintained_rebind_matches_scratch(
        pairs in proptest::collection::vec((0u8..6, 0u8..6), 1..14),
        first in 0i64..6,
        second in 0i64..6,
    ) {
        let program = parse_program("p(X,Y) :- e(X,Y). p(X,Z) :- p(X,Y), e(Y,Z).").unwrap();
        let db = edge_instance(&pairs);
        let q1 = program
            .for_query(&pattern_of("p", &[true, false], &[first, 0]))
            .unwrap();
        prop_assert!(q1.is_magic());
        let mut fix = q1.maintained(&db).unwrap();
        prop_assert_eq!(
            q1.answer_from(fix.current()).unwrap(),
            q1.answer(&db).unwrap()
        );
        let (q2, delta) = q1
            .rebind(&pattern_of("p", &[true, false], &[second, 0]))
            .unwrap();
        fix.apply(&delta).unwrap();
        prop_assert_eq!(
            q2.answer_from(fix.current()).unwrap(),
            q2.answer(&db).unwrap(),
            "rebind {} -> {} over {:?}", first, second, &pairs
        );
    }
}

/// One predicate demanded under several adornments in the same
/// rewrite: `p` is queried bound-free but also feeds `two` through a
/// bound-bound occurrence — both adorned versions coexist and the
/// answers stay exact.
#[test]
fn repeated_predicate_under_multiple_adornments() {
    let program = parse_program(
        "p(X,Y) :- e(X,Y).
         p(X,Z) :- p(X,Y), e(Y,Z).
         two(X,Z) :- p(X,Y), p(Y,Z).",
    )
    .unwrap();
    let pattern = atom!("two"; 0, @"Z");
    let magic = program.for_query(&pattern).unwrap();
    assert!(magic.is_magic());
    let db = edge_instance(&[(0, 1), (1, 2), (2, 3), (4, 5)]);
    let m = magic.answer(&db).unwrap();
    assert_eq!(m, materialized(&program, &pattern, &db));
    assert_eq!(m.len(), 2); // two(0,2), two(0,3)
                            // Both adornments of `p` appear in the rewritten program.
    let names: Vec<String> = magic
        .program()
        .idb_predicates()
        .iter()
        .map(|r| r.to_string())
        .collect();
    assert!(names.iter().any(|n| n == "p__bf"), "got {names:?}");
    assert!(names.iter().any(|n| n == "two__bf"), "got {names:?}");
}

/// Repeated variables in the pattern (`p(A, A)`) are answered through
/// the rewrite of the per-position shape plus an exact filter.
#[test]
fn repeated_pattern_variable_is_filtered_exactly() {
    let program = parse_program("p(X,Y) :- e(X,Y). p(X,Z) :- p(X,Y), e(Y,Z).").unwrap();
    let pattern = atom!("p"; @"A", @"A");
    let magic = program.for_query(&pattern).unwrap();
    let db = edge_instance(&[(1, 2), (2, 1), (2, 3)]);
    let m = magic.answer(&db).unwrap();
    assert_eq!(m, materialized(&program, &pattern, &db));
    assert_eq!(m.len(), 2); // p(1,1) and p(2,2) through the cycle
}

/// The derivation counters prove the point of the rewrite: a bound
/// transitive-closure lookup on a chain derives O(n) facts under
/// magic against O(n²) under materialization.
#[test]
fn magic_derives_strictly_fewer_facts_on_bound_tc() {
    let program = parse_program("p(X,Y) :- e(X,Y). p(X,Z) :- p(X,Y), e(Y,Z).").unwrap();
    let db = chain_db(64);
    let pattern = atom!("p"; 0, @"Y");
    let magic = program.for_query(&pattern).unwrap();
    let (ma, ms) = magic.answer_with_stats(&db).unwrap();
    let (_, fs) = program.eval_with_stats(&db).unwrap();
    assert_eq!(ma, materialized(&program, &pattern, &db));
    assert_eq!(ma.len(), 64);
    assert!(
        ms.eval_derived() < fs.eval_derived(),
        "magic must derive strictly fewer: {} vs {}",
        ms.eval_derived(),
        fs.eval_derived()
    );
    // …and not marginally fewer: the demand-reachable set is linear.
    assert!(ms.eval_derived() * 8 < fs.eval_derived());
    assert!(ms.eval_considered() < fs.eval_considered());
}

/// Fallback paths: all-free patterns, EDB targets, and rewrites that
/// would push demand for a negated predicate through its own negation
/// all answer via materialization — never wrongly, never magically.
#[test]
fn fallback_paths_answer_by_materialization() {
    let program = parse_program("p(X,Y) :- e(X,Y). p(X,Z) :- p(X,Y), e(Y,Z).").unwrap();
    let free = program.for_query(&atom!("p"; @"X", @"Y")).unwrap();
    assert!(!free.is_magic());
    let edb = program.for_query(&atom!("e"; 1, @"Y")).unwrap();
    assert!(!edb.is_magic());

    // Stratified as written, but the rewrite would make demand for
    // `q` flow through `p`, which negates `q`: rejected → fallback.
    let tricky = parse_program(
        "p(X) :- e(X,Y), p(Y), !q(Y).
         p(X) :- s(X).
         q(X) :- g(X).",
    )
    .unwrap();
    assert!(tricky.stratify().is_ok());
    let q = tricky.for_query(&atom!("p"; 1)).unwrap();
    assert!(!q.is_magic());
    let schema = Schema::new()
        .with("e", 2)
        .with("s", 1)
        .with("g", 1)
        .with("p", 1)
        .with("q", 1);
    let db =
        Instance::from_facts(schema, [fact!("e", 1, 2), fact!("s", 2), fact!("g", 3)]).unwrap();
    // p(2) from s(2); p(1) from e(1,2) ∧ p(2) ∧ ¬q(2); the pattern
    // p(1) then filters to just (1).
    let ans = q.answer(&db).unwrap();
    assert_eq!(ans, materialized(&tricky, &atom!("p"; 1), &db));
    assert_eq!(ans.len(), 1);
    assert!(ans.contains(&rtx::relational::tuple![1]));
}

/// `Program::for_query` sends a bound pattern through the magic
/// rewrite, and the rewrite answers like materialization.
#[test]
fn bound_pattern_goes_magic_and_answers_like_materialize() {
    let program = parse_program("p(X,Y) :- e(X,Y). p(X,Z) :- p(X,Y), e(Y,Z).").unwrap();
    let pattern = atom!("p"; 0, @"Y");
    let q = program.for_query(&pattern).unwrap();
    assert!(q.is_magic());
    let db = chain_db(8);
    assert_eq!(
        q.answer(&db).unwrap(),
        materialized(&program, &pattern, &db)
    );
}
