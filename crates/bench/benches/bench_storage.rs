//! Storage-engine microbenchmarks on the operations the relational
//! kernel actually spends time in — bulk construction, tail inserts
//! with adoption, delta application (run merge), and membership probes
//! — plus a `storage-adaptive/threshold-sweep` group that measures
//! insert/remove/probe/scan at relation sizes straddling the promotion
//! threshold, the empirical basis for `PROMOTE_LEN = 256`, and a
//! `storage-spine` group for a relation that grows in small batches
//! while it is cloned and probed. Bench ids keep their `-adaptive`
//! suffix so they line up with the recorded baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rtx_relational::{Relation, Run, Tuple, Value, Vid};

/// `n` two-column tuples in a shuffled-but-deterministic order, so
/// bulk construction pays a real sort and tail inserts land mid-run.
fn scattered(n: usize) -> Vec<Tuple> {
    (0..n)
        .map(|i| {
            let a = (i * 7919) % n;
            vec![Value::Int(a as i64), Value::Int(i as i64)].into()
        })
        .collect()
}

fn bench_storage(c: &mut Criterion) {
    let mut group = c.benchmark_group("storage-columnar");
    group.sample_size(10);
    for n in [1024usize, 8192] {
        let tuples = scattered(n);
        group.bench_with_input(BenchmarkId::new("from-tuples-adaptive", n), &n, |b, _| {
            b.iter(|| Relation::from_tuples(2, tuples.clone()).unwrap().len())
        });

        // Tail inserts over a sorted base: the runs regime absorbs them
        // into its mutable tail, then re-adopts on read.
        let fresh: Vec<Tuple> = (0..n / 8)
            .map(|i| vec![Value::Int(-(i as i64) - 1), Value::Int(i as i64)].into())
            .collect();
        let base = Relation::from_tuples(2, tuples.clone()).unwrap();
        group.bench_with_input(BenchmarkId::new("insert-tail-adaptive", n), &n, |b, _| {
            b.iter(|| {
                let mut r = base.clone();
                for t in &fresh {
                    r.insert(t.clone()).unwrap();
                }
                // Force the merged view the way a reader would.
                assert!(r.iter().count() == n + fresh.len());
                r.len()
            })
        });

        // Delta application: adds and removes in one batch — the run
        // merge path.
        let mut target = base.clone();
        for t in &fresh {
            target.insert(t.clone()).unwrap();
        }
        for t in tuples.iter().step_by(16) {
            target.remove(t);
        }
        let delta = target.diff(&base).unwrap();
        group.bench_with_input(BenchmarkId::new("delta-apply-adaptive", n), &n, |b, _| {
            b.iter(|| {
                let mut r = base.clone();
                r.apply_delta(&delta).unwrap();
                assert!(r.iter().count() == target.len());
                r.len()
            })
        });

        // Point membership over the whole key range: galloping into
        // sorted runs.
        group.bench_with_input(BenchmarkId::new("probe-adaptive", n), &n, |b, _| {
            b.iter(|| {
                let mut hits = 0usize;
                for t in tuples.iter().step_by(3) {
                    if base.contains(t) {
                        hits += 1;
                    }
                }
                hits
            })
        });
    }
    group.finish();
}

/// The threshold sweep: the round executors' workload shape — point
/// inserts, removes, probes, and occasional ordered scans on relations
/// of a few dozen to a few thousand tuples — at sizes straddling the
/// promotion threshold (16/64 stay in the small regime under the
/// default threshold, 256 promotes exactly at the boundary, 1024 runs
/// promoted).
fn bench_threshold_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("storage-adaptive");
    group.sample_size(10);
    for n in [16usize, 64, 256, 1024] {
        let tuples = scattered(n);
        // insert: grow from empty by point inserts (the transducer
        // round shape), reading nothing.
        group.bench_with_input(
            BenchmarkId::new("threshold-sweep-insert-adaptive", n),
            &n,
            |b, _| {
                b.iter(|| {
                    let mut r = Relation::empty(2);
                    for t in &tuples {
                        r.insert(t.clone()).unwrap();
                    }
                    r.len()
                })
            },
        );

        // remove: drain half of a built relation fact by fact.
        let base = Relation::from_tuples(2, tuples.clone()).unwrap();
        group.bench_with_input(
            BenchmarkId::new("threshold-sweep-remove-adaptive", n),
            &n,
            |b, _| {
                b.iter(|| {
                    let mut r = base.clone();
                    for t in tuples.iter().step_by(2) {
                        r.remove(t);
                    }
                    r.len()
                })
            },
        );

        // probe: membership over the whole key range, half misses.
        let probes: Vec<Tuple> = (0..n)
            .map(|i| {
                let a = (i * 7919) % n;
                let b = if i % 2 == 0 { i as i64 } else { -1 };
                vec![Value::Int(a as i64), Value::Int(b)].into()
            })
            .collect();
        group.bench_with_input(
            BenchmarkId::new("threshold-sweep-probe-adaptive", n),
            &n,
            |b, _| {
                b.iter(|| {
                    let mut hits = 0usize;
                    for t in &probes {
                        if base.contains(t) {
                            hits += 1;
                        }
                    }
                    hits
                })
            },
        );

        // scan: ordered iteration after a point mutation — the
        // order-demand cost (sort for small, fold for promoted).
        group.bench_with_input(
            BenchmarkId::new("threshold-sweep-scan-adaptive", n),
            &n,
            |b, _| {
                b.iter(|| {
                    let mut r = base.clone();
                    r.remove(&tuples[0]);
                    r.insert(tuples[0].clone()).unwrap();
                    r.iter().count()
                })
            },
        );
    }
    group.finish();
}

/// The access pattern of dedalus-churn's `t` and tc-distributed's `T`:
/// 256 steps that each absorb a run of `n / 256` new rows into a
/// relation of `n` rows, keep a clone (as a Dedalus trace keeps every
/// tick), and probe the second column — the non-prefix view a join
/// binds — on every level, skipping removed rows as the join does.
fn bench_spine(c: &mut Criterion) {
    let mut group = c.benchmark_group("storage-spine");
    group.sample_size(10);
    for n in [1024usize, 8192, 32768] {
        let row =
            |i: usize| -> Tuple { vec![Value::Int(i as i64), Value::Int((i % 97) as i64)].into() };
        let base = Relation::from_tuples(2, (0..n).map(row)).unwrap();
        let k = n / 256;
        let batches: Vec<Run> = (0..256)
            .map(|s| {
                let rows: Vec<Tuple> = (0..k).map(|j| row(n + s * k + j)).collect();
                Run::from_sorted(2, rows.iter())
            })
            .collect();
        group.bench_with_input(BenchmarkId::new("append-clone-probe", n), &n, |b, _| {
            b.iter(|| {
                let mut r = base.clone();
                let mut clones = Vec::with_capacity(batches.len());
                let mut hits = 0usize;
                for (s, batch) in batches.iter().enumerate() {
                    r.absorb_run(batch).unwrap();
                    clones.push(r.clone());
                    let key = [Vid::from_value(&Value::Int((s % 97) as i64))];
                    let spine = r.spine();
                    for level in spine.levels() {
                        let view = level.view(&[1]);
                        hits += (view.probe_rows(&key))
                            .filter(|&i| spine.is_live(level, i))
                            .count();
                    }
                }
                assert_eq!(r.len(), n + 256 * k);
                (hits, clones.len())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_storage, bench_threshold_sweep, bench_spine);
criterion_main!(benches);
