//! The metrics registry: named counters and log2-bucket histograms
//! behind one snapshot/diff/serialize interface.
//!
//! Publishing is gated on [`crate::counting`] by the callers (one
//! relaxed atomic load at `RTX_TRACE=off`); values themselves are
//! plain `u64`s behind a mutex — every publish site is a cold path
//! (end of a run, a promotion, a stratum close), never a per-tuple
//! loop.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

/// A fixed-64-log2-bucket histogram. Bucket `i` holds values whose
/// bit length is `i` (bucket 0 is exactly zero; the top bucket
/// saturates), so merge and diff are bucketwise and allocation-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hist {
    /// Per-bucket observation counts.
    pub buckets: [u64; 64],
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
}

impl Default for Hist {
    fn default() -> Hist {
        Hist {
            buckets: [0; 64],
            count: 0,
            sum: 0,
        }
    }
}

impl Hist {
    /// The bucket index for a value: its bit length, clamped to 63.
    pub fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros() as usize).min(63)
    }

    /// Record one observation.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Bucketwise `self - earlier` (saturating), for snapshot diffs.
    pub fn diff(&self, earlier: &Hist) -> Hist {
        let mut out = Hist {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            ..Hist::default()
        };
        for i in 0..64 {
            out.buckets[i] = self.buckets[i].saturating_sub(earlier.buckets[i]);
        }
        out
    }

    /// Bucketwise merge.
    pub fn absorb(&mut self, other: &Hist) {
        for i in 0..64 {
            self.buckets[i] += other.buckets[i];
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// No observations?
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of the observed values (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, Hist>,
}

/// A process-global (or test-local) registry of named counters and
/// histograms.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

impl Registry {
    /// A fresh, empty registry (tests; the process normally uses
    /// [`Registry::global`]).
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The process-global registry every instrumented crate publishes
    /// into.
    pub fn global() -> &'static Registry {
        GLOBAL.get_or_init(Registry::default)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Add `delta` to the named counter.
    pub fn add(&self, name: &str, delta: u64) {
        if delta == 0 {
            return;
        }
        let mut g = self.lock();
        match g.counters.get_mut(name) {
            Some(v) => *v += delta,
            None => {
                g.counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Record one observation into the named histogram.
    pub fn record(&self, name: &str, value: u64) {
        let mut g = self.lock();
        match g.hists.get_mut(name) {
            Some(h) => h.record(value),
            None => {
                let mut h = Hist::default();
                h.record(value);
                g.hists.insert(name.to_string(), h);
            }
        }
    }

    /// A point-in-time copy of every counter and histogram.
    pub fn snapshot(&self) -> Snapshot {
        let g = self.lock();
        Snapshot {
            counters: g.counters.clone(),
            hists: g.hists.clone(),
        }
    }
}

/// Convenience: add to a named counter in the global registry when
/// counting is enabled (and not inside [`uncounted`] on this thread).
#[inline]
pub fn add(name: &str, delta: u64) {
    if crate::counting() && !UNCOUNTED.get() {
        Registry::global().add(name, delta);
    }
}

/// Convenience: record into a named histogram in the global registry
/// when counting is enabled (and not inside [`uncounted`] on this
/// thread).
#[inline]
pub fn record(name: &str, value: u64) {
    if crate::counting() && !UNCOUNTED.get() {
        Registry::global().record(name, value);
    }
}

thread_local! {
    static UNCOUNTED: Cell<bool> = const { Cell::new(false) };
}

/// Run `f` with this thread's [`add`]s and [`record`]s to the global
/// registry dropped: for a debug cross-check that repeats counted work,
/// so the counters still describe the run and nothing else.
pub fn uncounted<T>(f: impl FnOnce() -> T) -> T {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            UNCOUNTED.set(self.0);
        }
    }
    let _restore = Restore(UNCOUNTED.replace(true));
    f()
}

/// An immutable copy of a registry's state, with diff/merge algebra
/// and JSON serialization. `diff` then `absorb` of the earlier
/// snapshot round-trips, and diffs against the empty snapshot are the
/// identity — the algebra `tests/obs.rs` pins.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histograms by name.
    pub hists: BTreeMap<String, Hist>,
}

impl Snapshot {
    /// The named counter's value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named histogram, if any observation was recorded.
    pub fn hist(&self, name: &str) -> Option<&Hist> {
        self.hists.get(name)
    }

    /// Nothing recorded?
    pub fn is_empty(&self) -> bool {
        self.counters.values().all(|v| *v == 0) && self.hists.values().all(Hist::is_empty)
    }

    /// `self - earlier`, entrywise saturating: the activity between
    /// two snapshots of the same registry. Zero entries are dropped.
    pub fn diff(&self, earlier: &Snapshot) -> Snapshot {
        let mut out = Snapshot::default();
        for (name, v) in &self.counters {
            let d = v.saturating_sub(earlier.counter(name));
            if d > 0 {
                out.counters.insert(name.clone(), d);
            }
        }
        for (name, h) in &self.hists {
            let d = match earlier.hists.get(name) {
                Some(e) => h.diff(e),
                None => h.clone(),
            };
            if !d.is_empty() {
                out.hists.insert(name.clone(), d);
            }
        }
        out
    }

    /// Entrywise merge of another snapshot into this one.
    pub fn absorb(&mut self, other: &Snapshot) {
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, h) in &other.hists {
            self.hists.entry(name.clone()).or_default().absorb(h);
        }
    }

    /// Serialize as one JSON object:
    /// `{"counters":{..},"hists":{name:{"count":..,"sum":..,"buckets":[[bit,count],..]},..}}`.
    /// Histogram buckets are emitted sparsely as `[bucket, count]`
    /// pairs. Keys are emitted in sorted order, so equal snapshots
    /// serialize identically.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        let mut first = true;
        for (name, v) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("{}:{}", crate::json::quote(name), v));
        }
        out.push_str("},\"hists\":{");
        let mut first = true;
        for (name, h) in &self.hists {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{}:{{\"count\":{},\"sum\":{},\"mean\":{},\"buckets\":[",
                crate::json::quote(name),
                h.count,
                h.sum,
                h.mean()
            ));
            let mut bfirst = true;
            for (i, c) in h.buckets.iter().enumerate() {
                if *c > 0 {
                    if !bfirst {
                        out.push(',');
                    }
                    bfirst = false;
                    out.push_str(&format!("[{i},{c}]"));
                }
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }
}
