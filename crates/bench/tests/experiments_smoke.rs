//! Smoke test: the `exp_examples` and `exp_trace` experiments must run
//! cleanly.
//!
//! Calls the library entry points in-process (the binaries are thin
//! wrappers over the same functions), so the fast experiments can
//! never silently rot without failing tier-1. The slower experiment
//! binaries are compile-checked by `cargo build`/`cargo bench
//! --no-run` and documented in `EXPERIMENTS.md`.
//!
//! Both experiments publish into the process-global `rtx_obs`
//! registry, and `exp_trace` reconciles a registry delta against its
//! own run, so the two tests serialize on [`obs_lock`].

use std::sync::{Mutex, MutexGuard, OnceLock};

/// Serialize tests that publish into or read deltas of the global
/// metrics registry.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

#[test]
fn exp_examples_runs_cleanly() {
    let _g = obs_lock();
    rtx_bench::experiments::run_examples();
}

#[test]
fn exp_trace_captures_and_reconciles() {
    let _g = obs_lock();
    let (out, trace) = rtx_bench::experiments::trace_grid_flood();
    assert!(out.outcome.quiescent, "the grid flood must quiesce");
    assert!(
        !trace.events.is_empty(),
        "forced-full capture saw no events"
    );
    assert_eq!(trace.dropped, 0, "trace buffer overflowed");
    // The span tree covers rounds → phases → per-node steps.
    let lines = trace.canonical_lines();
    for needle in ["B net:round", "B net:phase.deliver", "B net:step.deliver"] {
        assert!(
            lines.iter().any(|l| l.starts_with(needle)),
            "no `{needle}` event in the captured trace"
        );
    }
    // Chrome JSON round-trips through the validator…
    let doc = trace.to_chrome_json();
    let n = rtx_obs::RunTrace::validate_chrome_json(&doc).expect("valid Chrome trace");
    assert!(n >= trace.events.len());
    // …and the registry delta reconciles exactly with the outcome.
    rtx_bench::experiments::reconcile_trace(&out, &trace);
}
