//! Observability overhead: the same two tier-1 workloads — the
//! grid-256 flood on the sharded executor (`net-sharded`'s shape) and
//! the Dedalus incremental transitive closure
//! (`dedalus-tc-fixpoint`'s shape) — measured at each `RTX_TRACE`
//! level.
//!
//! The `off` rows are the satellite proof obligation: with the
//! instrumentation compiled in but disabled, every hook is one relaxed
//! atomic load, so `off` must sit within noise (≤ 2% geomean) of the
//! same workloads' pre-observability records in `BENCH_baseline.json`
//! (`net-sharded/serial/grid-256`, `dedalus-tc-fixpoint/*` — compare
//! with `bench_diff`). The `counters` and `full` rows price the knob:
//! counters is end-of-run registry publishing, full additionally
//! buffers every span/instant event.

use criterion::{criterion_group, criterion_main, BenchmarkId, Calibration, Criterion};
use rtx_bench::set_input;
use rtx_calm::constructions::flood::{flood_transducer, FloodMode};
use rtx_dedalus::{DedalusOptions, DedalusProgram, DedalusRuntime, TemporalFacts};
use rtx_net::{run_sharded, HorizontalPartition, Network, RunBudget, ShardOptions};
use rtx_obs::trace;
use rtx_obs::TraceLevel;
use rtx_query::atom;
use rtx_relational::Fact;

/// Match the `net-*` calibration floor (see `bench_net.rs`): whole-run
/// iterations need a larger sampling budget to converge.
fn net_cal() -> Option<Calibration> {
    Calibration::auto().map(|c| Calibration {
        budget: c.budget.max(std::time::Duration::from_millis(4000)),
        ..c
    })
}

const LEVELS: [(&str, TraceLevel); 3] = [
    ("off", TraceLevel::Off),
    ("counters", TraceLevel::Counters),
    ("full", TraceLevel::Full),
];

fn bench_trace_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace-overhead");
    group.sample_size(5);

    // The net-sharded grid-256 workload: fixed transition budget, same
    // shape as `net-sharded/serial/grid-256`.
    let schema = rtx_relational::Schema::new().with("S", 1);
    let input = set_input(8);
    let net = Network::grid(16, 16).unwrap();
    let t = flood_transducer(&schema, FloodMode::Dedup, None).unwrap();
    let p = HorizontalPartition::round_robin(&net, &input);
    let budget = RunBudget::steps(2 * 8 * net.len());
    for (label, level) in LEVELS {
        group.bench_with_input(BenchmarkId::new("net-grid-256", label), &level, |b, &lv| {
            let _guard = trace::level_guard(lv);
            b.iter_with(net_cal(), || {
                // Each iteration is one capture frame, so full-level
                // event buffers cannot accumulate across iterations.
                let (out, _trace) = trace::capture_run(|| {
                    run_sharded(&net, &t, &p, &ShardOptions::serial(), &budget).unwrap()
                });
                assert!(out.outcome.steps > 0);
                out.outcome.messages_enqueued
            })
        });
    }

    // The dedalus-tc-fixpoint workload: incremental maintenance under
    // one-edge-per-tick arrivals, same shape as
    // `dedalus-tc-fixpoint/incremental/64`.
    let program = DedalusProgram::new(vec![
        rtx_dedalus::DRule::persist("e", 2),
        rtx_dedalus::DRule::new(atom!("t"; @"X", @"Y"), rtx_dedalus::DTime::Same)
            .when(atom!("e"; @"X", @"Y")),
        rtx_dedalus::DRule::new(atom!("t"; @"X", @"Z"), rtx_dedalus::DTime::Same)
            .when(atom!("t"; @"X", @"Y"))
            .when(atom!("e"; @"Y", @"Z")),
    ])
    .unwrap();
    let rt = DedalusRuntime::new(&program).unwrap();
    let n = 64usize;
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
    for (label, level) in LEVELS {
        group.bench_with_input(
            BenchmarkId::new("dedalus-tc-64", label),
            &level,
            |b, &lv| {
                let _guard = trace::level_guard(lv);
                b.iter(|| {
                    let (trace_out, _trace) = trace::capture_run(|| rt.run(&edb, &opts).unwrap());
                    assert!(trace_out.converged_at.is_some());
                    trace_out.ticks.len()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_trace_overhead);
criterion_main!(benches);
