//! Substrate benchmarks: query-language evaluation — semi-naive
//! Datalog transitive closure and FO conjunctive / quantified queries
//! on chains of growing length, and the dedup flood's UCQ¬ send and
//! insert queries at growing store sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rtx_bench::chain_input;
use rtx_calm::constructions::flood::{flood_transducer, FloodMode};
use rtx_calm::constructions::{msg_rel, store_rel};
use rtx_query::atom;
use rtx_query::{DatalogQuery, FoQuery, Formula, Query};
use rtx_relational::{fact, tuple, Fact, Instance, RelName, Schema};

fn bench_query(c: &mut Criterion) {
    let program =
        rtx_query::parser::parse_program("T(X,Y) :- E(X,Y). T(X,Z) :- T(X,Y), E(Y,Z).").unwrap();

    let mut group = c.benchmark_group("datalog-tc");
    group.sample_size(10);
    for n in [8usize, 16, 32] {
        let input = chain_input("E", n);
        let semi = DatalogQuery::new(program.clone(), "T").unwrap();
        group.bench_with_input(BenchmarkId::new("semi-naive", n), &n, |b, _| {
            b.iter(|| semi.eval(&input).unwrap().len())
        });
    }
    group.finish();

    // The same evaluator at the sizes where the join access path
    // dominates.
    let mut group = c.benchmark_group("datalog-tc-joins");
    group.sample_size(10);
    for n in [32usize, 64, 128] {
        let input = chain_input("E", n);
        let indexed = DatalogQuery::new(program.clone(), "T").unwrap();
        let expect = n * (n + 1) / 2;
        group.bench_with_input(BenchmarkId::new("indexed", n), &n, |b, _| {
            b.iter(|| {
                let out = indexed.eval(&input).unwrap();
                assert_eq!(out.len(), expect);
                out.len()
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("fo-eval");
    group.sample_size(10);
    // A conjunctive formula compiles to one rule that fires once; the
    // quantified sentence compiles to a three-rule stratified program.
    let conjunctive = FoQuery::new(
        ["X", "Z"],
        Formula::exists(
            ["Y"],
            Formula::and([
                Formula::atom(atom!("E"; @"X", @"Y")),
                Formula::atom(atom!("E"; @"Y", @"Z")),
            ]),
        ),
    )
    .unwrap();
    let quantified = FoQuery::sentence(Formula::forall(
        ["X", "Y"],
        Formula::or([
            Formula::not(Formula::atom(atom!("E"; @"X", @"Y"))),
            Formula::exists(["Z"], Formula::atom(atom!("E"; @"Y", @"Z"))),
        ]),
    ))
    .unwrap();
    for n in [8usize, 16, 64, 128] {
        let input = chain_input("E", n);
        group.bench_with_input(BenchmarkId::new("two-hop-join", n), &n, |b, _| {
            b.iter(|| conjunctive.eval(&input).unwrap().len())
        });
        group.bench_with_input(BenchmarkId::new("forall-sentence", n), &n, |b, _| {
            b.iter(|| quantified.eval(&input).unwrap().len())
        });
    }
    group.finish();

    // The two-hop join at scale: the second E atom probes on its bound
    // first column.
    let mut group = c.benchmark_group("two-hop-join");
    group.sample_size(10);
    for n in [64usize, 256] {
        let input = chain_input("E", n);
        group.bench_with_input(BenchmarkId::new("indexed", n), &n, |b, _| {
            b.iter(|| {
                let out = conjunctive.eval(&input).unwrap();
                assert_eq!(out.len(), n - 1);
                out.len()
            })
        });
    }
    group.finish();

    // The flood transducer's UCQ¬ queries (Lemma 5(2), dedup mode) on
    // one node's I' = I ∪ I_rcv: two local facts, one received fact
    // already stored, and a store of n facts — sizes at the small
    // regime's hysteresis floor (64) and promotion threshold (256).
    // Each evaluation reads a fresh copy of I', as a transducer step
    // does, so no sorted view survives from the previous one.
    let s: RelName = "S".into();
    let t = flood_transducer(&Schema::new().with("S", 1), FloodMode::Dedup, None).unwrap();
    let snd = t.snd_query(&msg_rel(&s)).unwrap();
    let ins = t.ins_query(&store_rel(&s)).unwrap();
    let mut group = c.benchmark_group("ucq-eval");
    group.sample_size(10);
    for n in [4i64, 64, 256] {
        let mut facts = vec![
            fact!("S", 0),
            fact!("S", n),
            Fact::new(msg_rel(&s), tuple![n / 2]),
        ];
        facts.extend((0..n).map(|i| Fact::new(store_rel(&s), tuple![i])));
        let combined = t.schema().combined_schema().clone();
        let db = Instance::from_facts(combined, facts).unwrap();
        for (name, q) in [("flood-send", snd), ("flood-insert", ins)] {
            group.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                b.iter(|| {
                    let fresh = db.clone();
                    q.eval(&fresh).unwrap().len()
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_query);
criterion_main!(benches);
