//! Goal-directed query benchmarks: a bound point lookup on large
//! recursive instances, answered three ways —
//!
//! * `materialize`: evaluate the whole program bottom-up
//!   (`Program::eval`), keep the tuples matching the pattern;
//! * `magic`: the magic-sets rewrite (`Program::for_query`), deriving
//!   only the demand-reachable facts;
//! * `magic-rebind`: a maintained magic fixpoint whose binding
//!   changes between measurements — the ± seed delta path, where the
//!   previous demand is retracted and the new one derived
//!   incrementally.
//!
//! Instances: transitive closure on a chain (reachable set is O(n),
//! full closure O(n²) — the headline ≥10× case at n ≥ 1k) and
//! same-generation on a balanced binary tree (the classic
//! magic-sets example, where bound demand prunes the quadratic
//! sg-pairs space to one root-to-leaf spine's worth).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rtx_query::parser::parse_program;
use rtx_query::{atom, Atom, Program};
use rtx_relational::{fact, Instance, Relation, Schema};

fn chain_db(n: i64) -> Instance {
    let mut db = Instance::empty(Schema::new().with("e", 2));
    for i in 0..n {
        db.insert_fact(fact!("e", i, i + 1)).unwrap();
    }
    db
}

/// A balanced binary tree with `levels` levels as `par(child, parent)`
/// edges; node ids are heap order (root 1).
fn tree_db(levels: u32) -> Instance {
    let mut db = Instance::empty(Schema::new().with("par", 2));
    for child in 2..(1i64 << levels) {
        db.insert_fact(fact!("par", child, child / 2)).unwrap();
    }
    db
}

/// The answer by full materialization: the pattern's matches in the
/// whole fixpoint.
fn materialize(program: &Program, pattern: &Atom, db: &Instance) -> Relation {
    let rel = program.eval(db).unwrap().relation(&pattern.pred).unwrap();
    let matching = rel.iter().filter(|t| pattern.matches(t)).cloned();
    Relation::from_tuples(pattern.arity(), matching).unwrap()
}

fn tc_program() -> Program {
    parse_program("p(X,Y) :- e(X,Y). p(X,Z) :- p(X,Y), e(Y,Z).").unwrap()
}

fn sg_program() -> Program {
    parse_program(
        "sg(X,X) :- par(X,P).
         sg(X,Y) :- par(X,XP), sg(XP,YP), par(Y,YP).",
    )
    .unwrap()
}

fn bench_magic(c: &mut Criterion) {
    let mut group = c.benchmark_group("magic");
    group.sample_size(10);

    for n in [256i64, 1024] {
        let db = chain_db(n);
        let program = tc_program();
        let pattern = atom!("p"; 0, @"Y");
        let magic = program.for_query(&pattern).unwrap();
        assert!(magic.is_magic());
        // The rewrite must not change the answer.
        assert_eq!(
            magic.answer(&db).unwrap(),
            materialize(&program, &pattern, &db)
        );

        group.bench_with_input(BenchmarkId::new("tc-point-materialize", n), &n, |b, _| {
            b.iter(|| materialize(&program, &pattern, &db).len())
        });
        group.bench_with_input(BenchmarkId::new("tc-point-magic", n), &n, |b, _| {
            b.iter(|| magic.answer(&db).unwrap().len())
        });

        // Rebind: keep one maintained fixpoint and move the bound
        // constant each iteration — only the demand delta is
        // re-derived.
        let mut fix = magic.maintained(&db).unwrap();
        let mut current = magic.clone();
        let mut next_const = 1i64;
        group.bench_with_input(BenchmarkId::new("tc-point-magic-rebind", n), &n, |b, _| {
            b.iter(|| {
                let (q2, delta) = current.rebind(&atom!("p"; next_const, @"Y")).unwrap();
                next_const = (next_const + 1) % n;
                fix.apply(&delta).unwrap();
                current = q2;
                current.answer_from(fix.current()).unwrap().len()
            })
        });
    }

    for levels in [7u32, 9] {
        let db = tree_db(levels);
        let program = sg_program();
        let leaf = 1i64 << (levels - 1); // leftmost leaf
        let pattern = atom!("sg"; leaf, @"Y");
        let magic = program.for_query(&pattern).unwrap();
        assert!(magic.is_magic());
        assert_eq!(
            magic.answer(&db).unwrap(),
            materialize(&program, &pattern, &db)
        );

        let n = 1i64 << levels;
        group.bench_with_input(BenchmarkId::new("sg-point-materialize", n), &n, |b, _| {
            b.iter(|| materialize(&program, &pattern, &db).len())
        });
        group.bench_with_input(BenchmarkId::new("sg-point-magic", n), &n, |b, _| {
            b.iter(|| magic.answer(&db).unwrap().len())
        });
    }

    group.finish();
}

criterion_group!(benches, bench_magic);
criterion_main!(benches);
