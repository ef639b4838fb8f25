//! THM-18 benchmark: the Dedalus Turing-machine simulation — ticks and
//! wall time vs word length, against the direct interpreter baseline —
//! plus `DedalusRuntime::run` with its cross-tick maintained fixpoint
//! on a transitive-closure workload and on the TM program
//! (`dedalus-tc-fixpoint`, `dedalus-tm-fixpoint`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rtx_dedalus::{
    simulate_word, DedalusOptions, DedalusProgram, DedalusRuntime, InputSchedule, TemporalFacts,
};
use rtx_machine::machines;
use rtx_query::atom;
use rtx_relational::Fact;

fn bench_dedalus(c: &mut Criterion) {
    let opts = DedalusOptions {
        max_ticks: 5000,
        async_max_delay: 1,
        seed: 0,
        async_faults: None,
    };
    let mut group = c.benchmark_group("dedalus-tm");
    group.sample_size(10);
    let m = machines::even_as();
    for len in [2usize, 4, 6] {
        let word: String = "ab".repeat(len / 2);
        group.bench_with_input(BenchmarkId::new("dedalus-even-as", len), &len, |b, _| {
            b.iter(|| {
                let out = simulate_word(&m, &word, InputSchedule::AllAtZero, &opts).unwrap();
                assert!(out.converged_at.is_some());
                out.ticks
            })
        });
        group.bench_with_input(
            BenchmarkId::new("interpreter-even-as", len),
            &len,
            |b, _| b.iter(|| m.run(&word, 1_000_000).unwrap().accepted()),
        );
    }
    let pal = machines::palindrome();
    for (label, word) in [("aa", "aa"), ("abba", "abba")] {
        group.bench_function(BenchmarkId::new("dedalus-palindrome", label), |b| {
            b.iter(|| {
                simulate_word(&pal, word, InputSchedule::AllAtZero, &opts)
                    .unwrap()
                    .ticks
            })
        });
    }
    group.finish();
}

/// `DedalusRuntime::run` maintaining its deductive IDB across ticks
/// (counting-based DRed) under the tick's base ±. The TC workload is
/// the maintenance sweet spot — after the arrival ticks the base stops
/// changing and maintenance is a no-op. A chain of n edges derives
/// n(n+1)/2 closure facts, so its rows read as a curve of the cost per
/// derived fact; n = 256 is dedalus-churn's chain. The TM workload
/// retracts and re-derives a few facts every tick (head moves, state
/// flips), so it measures the DRed path under churn, on tiny batches.
/// The rows keep their `incremental` label.
fn bench_fixpoint(c: &mut Criterion) {
    let mut group = c.benchmark_group("dedalus-tc-fixpoint");
    group.sample_size(10);
    let program = tc_program();
    let rt = DedalusRuntime::new(&program).unwrap();
    for n in [32usize, 64, 128, 256] {
        // One edge arrives per tick: the run spans ~n ticks, each with
        // a one-fact base delta — maintenance touches only the new
        // paths.
        let mut edb = TemporalFacts::new();
        for i in 0..n as i64 {
            edb.insert(
                i as u64,
                Fact::new(
                    "e",
                    rtx_relational::Tuple::new(vec![
                        rtx_relational::Value::int(i),
                        rtx_relational::Value::int(i + 1),
                    ]),
                ),
            );
        }
        let opts = DedalusOptions {
            max_ticks: n as u64 + 8,
            async_max_delay: 1,
            seed: 0,
            async_faults: None,
        };
        group.bench_with_input(BenchmarkId::new("incremental", n), &n, |b, _| {
            b.iter(|| {
                let trace = rt.run(&edb, &opts).unwrap();
                assert!(trace.converged_at.is_some());
                trace.last().fact_count()
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("dedalus-tm-fixpoint");
    group.sample_size(10);
    let m = machines::even_as();
    let program = rtx_dedalus::compile_tm(&m).unwrap();
    let rt = DedalusRuntime::new(&program).unwrap();
    let opts = DedalusOptions {
        max_ticks: 5000,
        async_max_delay: 1,
        seed: 0,
        async_faults: None,
    };
    for len in [6usize, 8] {
        let word: String = "ab".repeat(len / 2);
        let input = rtx_machine::encode_word(&word, m.input_alphabet().iter().copied()).unwrap();
        let edb = TemporalFacts::all_at_zero(&input);
        group.bench_with_input(BenchmarkId::new("incremental", len), &len, |b, _| {
            b.iter(|| {
                let trace = rt.run(&edb, &opts).unwrap();
                assert!(trace.converged_at.is_some());
                trace.ticks.len()
            })
        });
    }
    group.finish();
}

/// Persisted edges, within-tick transitive closure.
fn tc_program() -> DedalusProgram {
    DedalusProgram::new(vec![
        rtx_dedalus::DRule::persist("e", 2),
        rtx_dedalus::DRule::new(atom!("t"; @"X", @"Y"), rtx_dedalus::DTime::Same)
            .when(atom!("e"; @"X", @"Y")),
        rtx_dedalus::DRule::new(atom!("t"; @"X", @"Z"), rtx_dedalus::DTime::Same)
            .when(atom!("t"; @"X", @"Y"))
            .when(atom!("e"; @"Y", @"Z")),
    ])
    .unwrap()
}

criterion_group!(benches, bench_dedalus, bench_fixpoint);
criterion_main!(benches);
