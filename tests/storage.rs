//! Property tests for the storage engine: relations in both regimes
//! (the small unsorted log and promoted sorted runs) against plain
//! `BTreeSet<Tuple>` models, under the schedules that exercise every
//! adoption path — random interleaved inserts and deletes,
//! `diff`/`apply_delta` round trips, set algebra, and the relation-wise
//! `Instance::union` against a fact-set model — plus random
//! stratified programs and the incremental fixpoint against the naive
//! reference semantics in `rtx-ref`, and directed tests pinning the
//! promotion boundary and hysteresis. Plus the spine of sorted runs
//! under writes, bulk writes and clones that keep being written, index
//! views carried across a fold, determinism of the process-wide value
//! interner, and the batch updates of `CountedRelation` against a count
//! model.

use proptest::prelude::*;
use rtx::query::MaintainedFixpoint;
use rtx::relational::{
    fact, CountedRelation, Fact, Instance, RelError, Relation, Run, Schema, Tuple, Value, Vid,
    PROMOTE_LEN, REENTRY_LEN,
};
use std::collections::{BTreeMap, BTreeSet};

fn tuple2(a: u8, b: u8) -> Tuple {
    vec![Value::Int(a as i64), Value::Int(b as i64)].into()
}

/// Tuples disjoint from every `tuple2` value, enough of them to carry a
/// relation past the hysteresis floor into the runs regime.
fn ballast() -> Vec<Tuple> {
    (0..=REENTRY_LEN as i64)
        .map(|i| vec![Value::Int(1000 + i), Value::Int(i)].into())
        .collect()
}

/// A relation over `pairs` and its `BTreeSet` model — with the ballast
/// added to both when `big`, so the relation starts out promoted.
fn relation_and_model(pairs: &[(u8, u8)], big: bool) -> (Relation, BTreeSet<Tuple>) {
    let mut model: BTreeSet<Tuple> = pairs.iter().map(|&(a, b)| tuple2(a, b)).collect();
    if big {
        model.extend(ballast());
    }
    let rel = Relation::from_tuples(2, model.iter().cloned()).unwrap();
    assert_eq!(rel.in_small_regime(), !big);
    (rel, model)
}

fn assert_matches(rel: &Relation, model: &BTreeSet<Tuple>) {
    assert_eq!(rel.len(), model.len());
    assert!(rel.iter().eq(model.iter()), "iteration is the sorted order");
}

/// One mutation in a randomized schedule: `(insert?, a, b)` — insert
/// `(a, b)` when the flag is set, otherwise remove it. (The compat
/// proptest has no mapping combinators, so schedules stay raw tuples.)
fn op_strategy() -> (
    proptest::strategy::Any<bool>,
    std::ops::Range<u8>,
    std::ops::Range<u8>,
) {
    (any::<bool>(), 0u8..12, 0u8..12)
}

fn edge_instance(pairs: &[(u8, u8)]) -> Instance {
    let mut i = Instance::empty(Schema::new().with("e", 2));
    for &(a, b) in pairs {
        i.insert_fact(fact!("e", a as i64, b as i64)).unwrap();
    }
    i
}

/// The pool of always-safe stratified rules a random program draws
/// from: stratum 1 is positive (and optionally recursive) over the EDB
/// `E`, stratum 2 negates stratum-1 predicates. Index 0 is mandatory so
/// `P` is never undefined under negation.
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

/// One step of a spine schedule, `(kind, a, b, n)`: see
/// `spine_step`.
fn spine_op() -> (
    std::ops::Range<u8>,
    std::ops::Range<u8>,
    std::ops::Range<u8>,
    std::ops::Range<u8>,
) {
    (0u8..7, 0u8..40, 0u8..40, 0u8..48)
}

/// `n` pairs on a stride-7 walk through the 40×40 grid from `(a, b)`:
/// a batch that lands anywhere in a relation's order.
fn batch(a: u8, b: u8, n: u8) -> BTreeSet<Tuple> {
    (0..n as u16)
        .map(|i| {
            let k = (a as u16 * 40 + b as u16 + 7 * i) % 1600;
            tuple2((k / 40) as u8, (k % 40) as u8)
        })
        .collect()
}

/// Apply one spine-schedule step to `rels[n % len]` and its model:
/// 0 insert `(a, b)`, 1 remove it, 2 absorb a batch as a run (for odd
/// `a`, only its rows not held, through `absorb_fresh`), 3 apply
/// a delta adding one batch and removing another, 4 clone into another
/// slot (both copies keep being written), 5 remove a run of held rows
/// and rows not held, 6 a read that seals pending writes (a
/// negated-atom probe) or folds (a scan).
fn spine_step(rels: &mut Vec<(Relation, BTreeSet<Tuple>)>, (kind, a, b, n): (u8, u8, u8, u8)) {
    let i = n as usize % rels.len();
    let (rel, model) = &mut rels[i];
    match kind {
        0 => assert_eq!(
            rel.insert(tuple2(a, b)).unwrap(),
            model.insert(tuple2(a, b))
        ),
        1 => assert_eq!(rel.remove(&tuple2(a, b)), model.remove(&tuple2(a, b))),
        2 if a % 2 == 0 => {
            let rows = batch(a, b, n);
            let added = rows.iter().filter(|t| !model.contains(*t)).count();
            let run = Run::from_sorted(2, rows.iter());
            assert_eq!(rel.absorb_run(&run).unwrap(), added);
            model.extend(rows);
        }
        2 => {
            let rows: BTreeSet<Tuple> = (batch(a, b, n).into_iter())
                .filter(|t| !model.contains(t))
                .collect();
            let run = Run::from_sorted(2, rows.iter());
            assert_eq!(rel.absorb_fresh(&run).unwrap(), rows.len());
            model.extend(rows);
        }
        3 => {
            let gone: BTreeSet<Tuple> = model
                .iter()
                .skip(a as usize)
                .step_by(2)
                .take(n as usize)
                .cloned()
                .collect();
            let mut to: BTreeSet<Tuple> = model.difference(&gone).cloned().collect();
            to.extend(batch(a, b, n / 4).into_iter().filter(|t| !gone.contains(t)));
            // Diffed against a clone, so the target's spine is not folded.
            let target = Relation::from_tuples(2, to.iter().cloned()).unwrap();
            let delta = target.diff(&rel.clone()).unwrap();
            rel.apply_delta(&delta).unwrap();
            *model = to;
        }
        4 => {
            let copy = (rel.clone(), model.clone());
            if rels.len() < 4 {
                rels.push(copy);
            } else {
                rels[(i + 1) % 4] = copy;
            }
        }
        5 => {
            let rows: BTreeSet<Tuple> = (model.iter().skip(b as usize).step_by(3))
                .take(n as usize)
                .cloned()
                .chain(batch(a, b, n / 4))
                .collect();
            let removed = rows.iter().filter(|t| model.contains(*t)).count();
            let run = Run::from_sorted(2, rows.iter());
            assert_eq!(rel.remove_run(&run).unwrap(), removed);
            model.retain(|t| !rows.contains(t));
        }
        _ if a % 2 == 0 => {
            let key = [
                Vid::from_value(&Value::Int(a as i64)),
                Vid::from_value(&Value::Int(b as i64)),
            ];
            assert_eq!(rel.contains_vids(&key), model.contains(&tuple2(a, b)));
        }
        _ => assert!(rel.iter().eq(model.iter())),
    }
    let (rel, model) = &rels[i];
    assert_eq!(rel.len(), model.len());
    assert_eq!(rel.contains(&tuple2(a, b)), model.contains(&tuple2(a, b)));
}

/// Every read path of `rel` against its model: scans, membership by
/// tuple and by interned key, and a rule firing that probes the second
/// (non-prefix) column through each level's permutation view. The scan
/// reads a clone, which shares the levels but folds on its own, so the
/// schedule keeps its levels and removed rows.
fn check_reads(rel: &Relation, model: &BTreeSet<Tuple>) {
    assert_matches(&rel.clone(), model);
    for t in model.iter().chain(&batch(3, 5, 40)) {
        let key: Vec<Vid> = t.iter().map(Vid::from_value).collect();
        assert_eq!(rel.contains(t), model.contains(t), "{t}");
        assert_eq!(rel.contains_vids(&key), model.contains(t), "{t}");
    }
    let program = rtx::query::parser::parse_program("q(X) :- k(Y), r(X,Y).").unwrap();
    let mut db = Instance::empty(Schema::new().with("r", 2).with("k", 1));
    db.set_relation("r", rel.clone()).unwrap();
    let ks = [1i64, 2, 3, 5, 8, 13, 21, 34];
    for k in ks {
        db.insert_fact(fact!("k", k)).unwrap();
    }
    let q: BTreeSet<Fact> = program
        .eval(&db)
        .unwrap()
        .facts()
        .filter(|f| f.rel().as_str() == "q")
        .collect();
    let want: BTreeSet<Fact> = model
        .iter()
        .filter(|t| ks.iter().any(|&k| t.values()[1] == Value::Int(k)))
        .map(|t| Fact::new("q", Tuple::new(vec![t.values()[0]])))
        .collect();
    assert_eq!(q, want);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The spine of sorted runs agrees with a `BTreeSet` model on every
    /// read path under random interleavings of point writes, run
    /// absorption and removal, delta application and clones that keep
    /// being written — batches of up to 47 rows over a relation of up to
    /// 1,600 cross the level merges, and removals cross the fold of the
    /// removed rows. Each relation is read after every step and in full
    /// every eighth step and at the end, and every pair is diffed,
    /// compared and combined by set algebra against the models.
    #[test]
    fn spine_matches_btree_across_clones_and_bulk_writes(
        ops in proptest::collection::vec(spine_op(), 1..60),
    ) {
        let (rel, model) = relation_and_model(&[], true);
        let mut rels = vec![(rel, model)];
        for (step, &op) in ops.iter().enumerate() {
            spine_step(&mut rels, op);
            if step % 8 == 7 {
                for (rel, model) in &rels {
                    check_reads(rel, model);
                }
            }
        }
        for (rel, model) in &rels {
            check_reads(rel, model);
        }
        for (x, mx) in &rels {
            for (y, my) in &rels {
                let delta = x.diff(y).unwrap();
                prop_assert_eq!(delta.added(), &mx.difference(my).cloned().collect::<Vec<_>>()[..]);
                prop_assert_eq!(delta.removed(), &my.difference(mx).cloned().collect::<Vec<_>>()[..]);
                prop_assert_eq!(x == y, mx == my);
                prop_assert_eq!(x.cmp(y), mx.iter().cmp(my.iter()));
                assert_matches(&x.union(y).unwrap(), &mx.union(my).cloned().collect());
                assert_matches(&x.intersect(y).unwrap(), &mx.intersection(my).cloned().collect());
                assert_matches(&x.difference(y).unwrap(), &mx.difference(my).cloned().collect());
                prop_assert_eq!(x.is_subset(y), mx.is_subset(my));
            }
        }
    }

    /// `CountedRelation`'s batch add, subtract and clear agree with a
    /// `BTreeMap<Tuple, u64>` model on every count, and each batch
    /// answers exactly the rows whose presence flipped: 0 → positive on
    /// add, positive → 0 on subtract and clear. Rows of arity 2 over
    /// integers key the table packed; rows of arity 3 with a symbol key
    /// it by ids. A subtraction past a row's support is
    /// `NegativeSupport`, and ends the schedule.
    #[test]
    fn counted_batches_match_a_count_model(
        ops in proptest::collection::vec(
            (0u8..8, proptest::collection::vec((0u8..5, 0u8..5, 0u8..3), 0..8)),
            1..24),
        wide in any::<bool>(),
    ) {
        let row = |a: u8, b: u8| -> Tuple {
            let mut values = vec![Value::Int(a as i64), Value::Int(b as i64)];
            if wide {
                values.push(Value::sym(if a.is_multiple_of(2) { "even" } else { "odd" }));
            }
            values.into()
        };
        let arity = if wide { 3 } else { 2 };
        let mut counted = CountedRelation::empty(arity);
        let mut model: BTreeMap<Tuple, u64> = BTreeMap::new();
        for (op, batch) in &ops {
            let kind = match op {
                0..=2 => "add",
                3..=5 => "sub",
                6 => "clear",
                _ => "overdraw",
            };
            let have = |t: &Tuple| model.get(t).copied().unwrap_or(0);
            // One multiplicity per distinct row: a subtraction keeps
            // within the row's support, and an overdraw takes one more
            // than the first row has.
            let mut rows: BTreeMap<Tuple, u64> = BTreeMap::new();
            for &(a, b, k) in batch {
                let t = row(a, b);
                let k = match kind {
                    "sub" => u64::from(k).min(have(&t)),
                    "clear" => 0,
                    _ => u64::from(k),
                };
                rows.insert(t, k);
            }
            let overdraw = match (kind, rows.iter_mut().next()) {
                ("overdraw", Some((t, k))) => {
                    *k = have(t) + 1;
                    Some((have(t), *k))
                }
                _ => None,
            };
            let run = Run::from_sorted(arity, rows.keys());
            let firings: Vec<u64> = rows.values().copied().collect();
            let answer = match kind {
                "add" => counted.add_run(&run, &firings),
                "clear" => counted.clear_run(&run),
                _ => counted.sub_run(&run, &firings),
            };
            if let Some((have, retract)) = overdraw {
                prop_assert!(matches!(answer, Err(RelError::NegativeSupport { have: h, retract: r })
                    if h == have && r == retract));
                break;
            }
            let mut flipped: Vec<Tuple> = Vec::new();
            for (t, &k) in &rows {
                let before = model.get(t).copied().unwrap_or(0);
                let after = match kind {
                    "add" => before + k,
                    "clear" => 0,
                    _ => before - k,
                };
                if (before == 0) != (after == 0) {
                    flipped.push(t.clone());
                }
                if after == 0 {
                    model.remove(t);
                } else {
                    model.insert(t.clone(), after);
                }
            }
            let answer = answer.unwrap();
            prop_assert_eq!(answer.rows(), &flipped[..]);
            for a in 0..5 {
                for b in 0..5 {
                    let t = row(a, b);
                    prop_assert_eq!(counted.count(&t), model.get(&t).copied().unwrap_or(0));
                }
            }
            let present = Relation::from_tuples(arity, model.keys().cloned()).unwrap();
            prop_assert!(counted.supports_exactly(&present));
        }
    }

    /// Relations agree with a `BTreeSet` model tuple-for-tuple under
    /// any interleaving of inserts and deletes, starting small (the
    /// schedule grows and shrinks the tombstone log) and starting
    /// promoted (it forces tail accumulation, run adoption and
    /// un-deletes in the runs regime).
    #[test]
    fn columnar_matches_btree_under_mutation_schedules(
        ops in proptest::collection::vec(op_strategy(), 0..60),
    ) {
        for big in [false, true] {
            let (mut rel, mut model) = relation_and_model(&[], big);
            for op in &ops {
                let (ins, a, b) = *op;
                if ins {
                    prop_assert_eq!(
                        rel.insert(tuple2(a, b)).unwrap(),
                        model.insert(tuple2(a, b)),
                        "insert novelty must agree"
                    );
                } else {
                    prop_assert_eq!(rel.remove(&tuple2(a, b)), model.remove(&tuple2(a, b)));
                }
                prop_assert_eq!(rel.len(), model.len());
            }
            prop_assert!(rel.iter().eq(model.iter()), "iteration is the sorted order");
            let rebuilt = Relation::from_tuples(2, model.iter().cloned()).unwrap();
            prop_assert_eq!(&rel, &rebuilt);
            for a in 0..12u8 {
                for b in 0..12u8 {
                    prop_assert_eq!(rel.contains(&tuple2(a, b)), model.contains(&tuple2(a, b)));
                }
            }
        }
    }

    /// `diff` names exactly the model's set differences, and
    /// `apply_delta` moves a relation in either regime to the target.
    #[test]
    fn deltas_transport_across_engines(
        from in proptest::collection::vec((0u8..10, 0u8..10), 0..25),
        to in proptest::collection::vec((0u8..10, 0u8..10), 0..25),
    ) {
        for (big_from, big_to) in [(false, false), (false, true), (true, false), (true, true)] {
            let (r_from, m_from) = relation_and_model(&from, big_from);
            let (r_to, m_to) = relation_and_model(&to, big_to);
            let delta = r_to.diff(&r_from).unwrap();
            let added: Vec<Tuple> = m_to.difference(&m_from).cloned().collect();
            let removed: Vec<Tuple> = m_from.difference(&m_to).cloned().collect();
            prop_assert_eq!(delta.added(), &added[..]);
            prop_assert_eq!(delta.removed(), &removed[..]);

            let mut r = r_from.clone();
            r.apply_delta(&delta).unwrap();
            assert_matches(&r, &m_to);
            prop_assert_eq!(&r, &r_to);
        }
    }

    /// The set algebra (union / intersect / difference / subset) gives
    /// the model's answers whichever regime holds either operand.
    #[test]
    fn set_algebra_agrees_across_engines(
        xs in proptest::collection::vec((0u8..8, 0u8..8), 0..20),
        ys in proptest::collection::vec((0u8..8, 0u8..8), 0..20),
    ) {
        for (big_x, big_y) in [(false, false), (false, true), (true, false), (true, true)] {
            let (rx, mx) = relation_and_model(&xs, big_x);
            let (ry, my) = relation_and_model(&ys, big_y);
            assert_matches(&rx.union(&ry).unwrap(), &mx.union(&my).cloned().collect());
            assert_matches(&rx.intersect(&ry).unwrap(), &mx.intersection(&my).cloned().collect());
            assert_matches(&rx.difference(&ry).unwrap(), &mx.difference(&my).cloned().collect());
            prop_assert_eq!(rx.is_subset(&ry), mx.is_subset(&my));
            prop_assert_eq!(rx == ry, mx == my);
        }
    }

    /// `Run::is_subset` gives the model's answer over packed keys
    /// (integer runs of arity 1 and 2) and over rows (a symbol column
    /// rules packing out). `ys` is `xs` plus some pairs and minus
    /// others, so both answers come up often in both directions.
    #[test]
    fn run_subset_agrees_with_the_model(
        xs in proptest::collection::vec((0u8..8, 0u8..8), 0..30),
        extra in proptest::collection::vec((0u8..8, 0u8..8), 0..4),
        dropped in proptest::collection::vec(0usize..30, 0..3),
    ) {
        let encodings: [fn(u8, u8) -> Tuple; 3] = [
            |a, _| vec![Value::Int(a as i64)].into(),
            tuple2,
            |a, b| vec![Value::sym(format!("sub-{a}").as_str()), Value::Int(b as i64)].into(),
        ];
        for encode in encodings {
            let mx: BTreeSet<Tuple> = xs.iter().map(|&(a, b)| encode(a, b)).collect();
            let mut my = mx.clone();
            my.extend(extra.iter().map(|&(a, b)| encode(a, b)));
            for &i in &dropped {
                if let Some((a, b)) = xs.get(i) {
                    my.remove(&encode(*a, *b));
                }
            }
            let arity = mx.iter().chain(&my).next().map_or(2, Tuple::arity);
            let (rx, ry) = (Run::from_sorted(arity, mx.iter()), Run::from_sorted(arity, my.iter()));
            prop_assert_eq!(rx.is_subset(&ry), mx.is_subset(&my));
            prop_assert_eq!(ry.is_subset(&rx), my.is_subset(&mx));
            prop_assert!(rx.is_subset(&rx));
        }
    }

    /// `Instance::union` is the union of the two fact sets. The sides
    /// share `E` (horizontal partitions overlap) and each holds a
    /// relation the other lacks; either side's `E` starts in the small
    /// regime or padded past the hysteresis floor into runs.
    #[test]
    fn instance_union_matches_the_fact_set_model(
        xs in proptest::collection::vec((0u8..6, 0u8..6), 0..12),
        ys in proptest::collection::vec((0u8..6, 0u8..6), 0..12),
        ss in proptest::collection::vec(0i64..6, 0..4),
    ) {
        for (big_x, big_y) in [(false, false), (false, true), (true, false), (true, true)] {
            let (ex, mx) = relation_and_model(&xs, big_x);
            let (ey, my) = relation_and_model(&ys, big_y);
            let mut x = Instance::empty(Schema::new().with("E", 2).with("S", 1));
            x.set_relation("E", ex).unwrap();
            let mut y = Instance::empty(Schema::new().with("E", 2).with("M", 1));
            y.set_relation("E", ey).unwrap();
            let mut model: BTreeSet<Fact> =
                mx.union(&my).map(|t| Fact::new("E", t.clone())).collect();
            for &v in &ss {
                x.insert_fact(fact!("S", v)).unwrap();
                y.insert_fact(fact!("M", v + 1)).unwrap();
                model.insert(fact!("S", v));
                model.insert(fact!("M", v + 1));
            }
            let u = x.union(&y).unwrap();
            prop_assert_eq!(u.facts().collect::<BTreeSet<_>>(), model.clone());
            prop_assert_eq!(u.fact_count(), model.len());
            let fact_by_fact = Instance::from_facts(u.schema().clone(), model).unwrap();
            prop_assert_eq!(&u, &fact_by_fact);
            prop_assert_eq!(&y.union(&x).unwrap(), &u);
        }
    }

    /// Random stratified programs (negation, disequality, recursion)
    /// evaluate to exactly the facts of the naive reference semantics.
    #[test]
    fn stratified_evaluation_is_engine_independent(
        pairs in proptest::collection::vec((0u8..6, 0u8..6), 0..14),
        picks in proptest::collection::vec(any::<bool>(), RULE_POOL.len() - 1),
    ) {
        let program = rtx::query::parser::parse_program(&random_program(&picks)).unwrap();
        let db = edge_instance(&pairs);
        let engine: BTreeSet<Fact> = program.eval(&db).unwrap().facts().collect();
        prop_assert_eq!(engine, rtx_ref::eval(&program, &db));
    }

    /// The incremental fixpoint over a random schedule of EDB deltas
    /// agrees with from-scratch evaluation and with the reference
    /// semantics after every tick — the counting/DRed path against the
    /// oracle.
    #[test]
    fn incremental_fixpoint_matches_scratch_on_both_engines(
        base in proptest::collection::vec((0u8..6, 0u8..6), 0..10),
        ticks in proptest::collection::vec(
            proptest::collection::vec(op_strategy(), 1..6), 0..5),
        picks in proptest::collection::vec(any::<bool>(), RULE_POOL.len() - 1),
    ) {
        let program = rtx::query::parser::parse_program(&random_program(&picks)).unwrap();
        let mut db = edge_instance(&base);
        let mut maintained = MaintainedFixpoint::new(&program).unwrap();
        maintained.initialize(&db).unwrap();
        for tick in &ticks {
            let mut next = db.clone();
            for op in tick {
                let (ins, a, b) = *op;
                if ins {
                    next.insert_fact(fact!("e", a as i64, b as i64)).unwrap();
                } else {
                    next.remove_fact(&fact!("e", a as i64, b as i64));
                }
            }
            let delta = next.diff(&db);
            db = next;
            let incr = maintained.apply(&delta).unwrap().clone();
            let scratch = program.eval(&db).unwrap();
            prop_assert_eq!(&incr, &scratch);
            let facts: BTreeSet<Fact> = incr.facts().collect();
            prop_assert_eq!(facts, rtx_ref::eval(&program, &db));
        }
    }

    /// A fold carries the permutation views cached on its input: after
    /// `apply_sorted`, every view of the result probes exactly like a
    /// view sorted from scratch — the same rows in the same (scan)
    /// order within each key group — for every key present and one
    /// absent. Column subsets come in either order, so views on `[1, 0]`
    /// or `[2, 0]` are permutations too.
    #[test]
    fn views_survive_a_fold(
        rows in proptest::collection::vec((0u8..4, 0u8..4, 0u8..4), 0..40),
        subsets in proptest::collection::vec((1u8..8, any::<bool>()), 1..4),
        adds in proptest::collection::vec((0u8..5, 0u8..4, 0u8..4), 0..12),
        dels in proptest::collection::vec((0u8..4, 0u8..4, 0u8..4), 0..12),
    ) {
        let tuple3 = |&(a, b, c): &(u8, u8, u8)| -> Tuple {
            [a, b, c].iter().map(|&v| Value::Int(v as i64)).collect::<Vec<_>>().into()
        };
        let before: BTreeSet<Tuple> = rows.iter().map(tuple3).collect();
        let del: BTreeSet<Tuple> = dels.iter().map(tuple3).collect();
        let add: BTreeSet<Tuple> = adds.iter().map(tuple3).filter(|t| !del.contains(t)).collect();
        let model: BTreeSet<Tuple> = before.difference(&del).chain(&add).cloned().collect();
        let base = Run::from_sorted(3, before.iter());
        let views: Vec<Vec<usize>> = subsets
            .iter()
            .map(|&(mask, reversed)| {
                let mut cols: Vec<usize> = (0..3).filter(|c| mask >> c & 1 == 1).collect();
                if reversed {
                    cols.reverse();
                }
                cols
            })
            .collect();
        for cols in &views {
            base.view(cols);
        }
        let to_vec = |set: BTreeSet<Tuple>| set.into_iter().collect::<Vec<_>>();
        let folded = base.apply_sorted(&to_vec(add), &to_vec(del));
        prop_assert!(folded.rows().iter().eq(model.iter()));
        let fresh = Run::from_sorted(3, model.iter());
        let absent = tuple3(&(9, 9, 9));
        for cols in &views {
            let (carried, sorted) = (folded.view(cols), fresh.view(cols));
            for t in model.iter().chain([&absent]) {
                let key: Vec<Vid> = cols.iter().map(|&c| Vid::from_value(&t.values()[c])).collect();
                prop_assert_eq!(
                    carried.probe_rows(&key).collect::<Vec<_>>(),
                    sorted.probe_rows(&key).collect::<Vec<_>>(),
                    "view {:?}, key of {}", cols, t
                );
            }
        }
    }

    /// Interner determinism: interning the same value always yields the
    /// same id, the id round-trips to the value, and id-level ordering
    /// agrees with value ordering.
    #[test]
    fn interner_is_deterministic_and_order_faithful(
        ints in proptest::collection::vec(-1000i64..1000, 0..40),
        syms in proptest::collection::vec(0u16..40, 0..20),
    ) {
        let mut values: Vec<Value> = ints.iter().map(|&i| Value::Int(i)).collect();
        values.extend(syms.iter().map(|n| Value::sym(format!("storage-sym-{n}").as_str())));
        for v in &values {
            let id = Vid::from_value(v);
            prop_assert_eq!(id, Vid::from_value(v), "same value, same id");
            prop_assert_eq!(&id.value(), v, "ids round-trip");
            prop_assert_eq!(id.cmp_value(v), std::cmp::Ordering::Equal);
        }
        for a in &values {
            for b in &values {
                let (ia, ib) = (Vid::from_value(a), Vid::from_value(b));
                prop_assert_eq!(
                    ia.cmp_structural(ib), a.cmp(b),
                    "structural id order mirrors value order"
                );
                if ia.raw_ordered() && ib.raw_ordered() {
                    prop_assert_eq!(
                        ia.raw().cmp(&ib.raw()), a.cmp(b),
                        "inline ids compare by raw bits"
                    );
                }
            }
        }
    }
}

/// A promoted relation's permutation view survives point writes and
/// the folds that absorb them: each probe after a batch of inserts and
/// removes folds the tails into a new run generation, whose view is
/// carried from the last one, and answers like the model.
#[test]
fn relation_views_survive_point_writes_and_folds() {
    let (mut rel, mut model) = relation_and_model(&[(1, 2), (2, 2), (3, 1)], true);
    let check = |rel: &Relation, model: &BTreeSet<Tuple>| {
        let run = rel.columnar_run();
        let view = run.view(&[1]);
        for b in 0..12 {
            let want: Vec<Tuple> = model
                .iter()
                .filter(|t| t.values()[1] == Value::Int(b))
                .cloned()
                .collect();
            let got: Vec<Tuple> = view
                .probe_rows(&[Vid::from_value(&Value::Int(b))])
                .map(|i| run.rows()[i].clone())
                .collect();
            assert_eq!(got, want, "second column {b}");
        }
        assert_matches(rel, model);
    };
    check(&rel, &model);
    // (inserts, removes) per batch
    let batches = [
        (vec![(4, 2), (5, 1), (0, 2)], vec![(2, 2), (3, 1), (9, 9)]),
        (vec![(2, 2), (7, 0)], vec![(4, 2), (1, 2)]),
        (vec![(3, 1)], vec![]),
    ];
    for (inserts, removes) in &batches {
        let folds = rel.storage_stats().folds;
        for &(a, b) in inserts {
            assert_eq!(
                rel.insert(tuple2(a, b)).unwrap(),
                model.insert(tuple2(a, b))
            );
        }
        for &(a, b) in removes {
            assert_eq!(rel.remove(&tuple2(a, b)), model.remove(&tuple2(a, b)));
        }
        check(&rel, &model);
        assert_eq!(rel.storage_stats().folds, folds + 1, "one fold per batch");
    }
}

/// Interning is deterministic across threads racing on the same fresh
/// symbols: every thread resolves each name to the same id.
#[test]
fn interner_agrees_across_racing_threads() {
    let names: Vec<String> = (0..64).map(|i| format!("storage-race-{i}")).collect();
    let ids: Vec<Vec<Vid>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let names = &names;
                scope.spawn(move || {
                    names
                        .iter()
                        .map(|n| Vid::from_value(&Value::sym(n.as_str())))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for other in &ids[1..] {
        assert_eq!(&ids[0], other);
    }
    for (n, id) in names.iter().zip(&ids[0]) {
        assert_eq!(id.value(), Value::sym(n.as_str()));
    }
}

/// Instances built from a fact stream hold exactly its set of facts,
/// and `Instance::diff`/`apply_delta` transport an instance to any
/// target at the instance level too.
#[test]
fn instance_deltas_transport_across_engines() {
    let schema = Schema::new().with("E", 2).with("S", 1);
    let facts: Vec<Fact> = vec![
        fact!("E", 1, 2),
        fact!("E", 2, 3),
        fact!("S", 7),
        fact!("E", 1, 2), // duplicate: second insert is a no-op
    ];
    let model: BTreeSet<Fact> = facts.iter().cloned().collect();
    let inst = Instance::from_facts(schema.clone(), facts).unwrap();
    assert_eq!(inst.facts().collect::<BTreeSet<_>>(), model);
    assert_eq!(inst.fact_count(), 3);

    let mut target =
        Instance::from_facts(schema.clone(), vec![fact!("E", 9, 9), fact!("S", 7)]).unwrap();
    let delta = inst.diff(&target);
    target.apply_delta(&delta).unwrap();
    assert_eq!(target, inst);
    assert_eq!(target.facts().collect::<BTreeSet<_>>(), model);
}

/// A name the two sides declare at different arities is an error,
/// whether or not either side populates it.
#[test]
fn instance_union_rejects_a_name_at_two_arities() {
    let unary = Instance::from_facts(Schema::new().with("R", 1), vec![fact!("R", 1)]).unwrap();
    let binary = Instance::from_facts(Schema::new().with("R", 2), vec![fact!("R", 1, 2)]).unwrap();
    let declared = Instance::empty(Schema::new().with("R", 2));
    for other in [&binary, &declared] {
        assert!(matches!(
            unary.union(other),
            Err(RelError::ArityMismatch { .. })
        ));
        assert!(other.union(&unary).is_err());
    }
}

/// Directed promotion-boundary test: inserting to N−1 stays in the
/// small regime, the Nth insert promotes (exactly once), and N+1
/// keeps the promoted representation — all equal to the model at
/// every boundary.
#[test]
fn adaptive_promotion_boundary_pins_threshold() {
    let n = PROMOTE_LEN;
    let mut rel = Relation::empty(1);
    let mut model: BTreeSet<Tuple> = BTreeSet::new();
    for i in 0..(n + 1) as i64 {
        rel.insert(vec![Value::Int(i)].into()).unwrap();
        model.insert(vec![Value::Int(i)].into());
        let len = (i + 1) as usize;
        if len < n {
            assert!(rel.in_small_regime(), "below N stays small (len {len})");
            assert_eq!(rel.storage_stats().promotions, 0);
        } else {
            assert!(
                !rel.in_small_regime(),
                "N and beyond are promoted (len {len})"
            );
            assert_eq!(rel.storage_stats().promotions, 1, "promotion happens once");
        }
        // Probe, don't scan: an ordered read above the floor is an
        // order demand, which would promote early.
        assert_eq!(rel.len(), model.len());
        assert!(model.iter().all(|t| rel.contains(t)));
    }
    assert_matches(&rel, &model);
}

/// Directed hysteresis test: churn (scan + insert/remove cycles) at
/// the re-entry floor never promotes, while the same churn one above
/// the floor promotes exactly once and never demotes back on point
/// removals.
#[test]
fn adaptive_churn_at_hysteresis_edge_does_not_flap() {
    let floor = REENTRY_LEN;
    let at_floor =
        Relation::from_tuples(1, (0..floor as i64).map(|i| vec![Value::Int(i)].into())).unwrap();
    // Grown by point inserts so it is genuinely in the small regime
    // one above the floor (a bulk construction above the floor would
    // start out promoted).
    let mut above = Relation::empty(1);
    for i in 0..=(floor as i64) {
        above.insert(vec![Value::Int(i)].into()).unwrap();
    }
    assert!(above.in_small_regime());
    let churn = |mut r: Relation| {
        for _ in 0..16 {
            let _ = r.iter().count(); // order demand
            assert!(r.remove(&vec![Value::Int(0)].into()));
            assert!(r.insert(vec![Value::Int(0)].into()).unwrap());
        }
        r
    };
    let at_floor = churn(at_floor);
    assert!(at_floor.in_small_regime(), "churn at the floor stays small");
    assert_eq!(at_floor.storage_stats().promotions, 0);
    let above = churn(above);
    assert!(!above.in_small_regime(), "churn above the floor promotes");
    assert_eq!(above.storage_stats().promotions, 1, "…exactly once");
}

/// Directed clear-and-regrow test at the instance level: a relation
/// grown past the promotion threshold, then bulk-replaced by a tiny
/// value through `set_relation`, re-enters the small regime — and can
/// grow right back up, re-promoting.
#[test]
fn adaptive_clear_and_regrow_reenters_small_regime() {
    let n = PROMOTE_LEN;
    let schema = Schema::new().with("E", 2);
    let mut inst = Instance::empty(schema);
    for i in 0..n as i64 {
        inst.insert_fact(fact!("E", i, i)).unwrap();
    }
    let name = "E".into();
    let big = inst.relation(&name).unwrap();
    assert!(!big.in_small_regime(), "grown past N: promoted");

    // Bulk replace with a tiny relation: re-enters the small regime.
    let tiny = Relation::from_tuples(2, vec![tuple2(1, 1)]).unwrap();
    inst.set_relation("E", tiny).unwrap();
    let small = inst.relation(&name).unwrap();
    assert_eq!(small.len(), 1);
    assert!(
        small.in_small_regime(),
        "bulk rebuild re-enters the small regime"
    );

    // …and a query output (a sorted run) landing via set_relation
    // re-enters the small regime too.
    let as_output = Relation::from_run(Run::from_sorted(2, [tuple2(2, 2)].iter()));
    assert!(!as_output.in_small_regime());
    inst.set_relation("E", as_output).unwrap();
    let rehoused = inst.relation(&name).unwrap();
    assert!(rehoused.in_small_regime());
    assert!(rehoused.contains(&tuple2(2, 2)));

    // Regrow: promotes again.
    for i in 0..n as i64 {
        inst.insert_fact(fact!("E", i, -i)).unwrap();
    }
    let regrown = inst.relation(&name).unwrap();
    assert!(!regrown.in_small_regime(), "regrowth re-promotes");
}
