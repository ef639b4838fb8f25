//! Host speed, measured by fixed reference computations timed beside
//! every run call and every set-up.
//!
//! The benchmark runs on shared virtual machines whose speed drifts as
//! other tenants load the host's caches and memory: with no code change,
//! flood-dense's median run call went from 2.92 s to 1.18 s within four
//! minutes, and set-up time moved with it. The reference computations
//! are pure Rust in this crate and never change, so their times track the
//! host alone. Dividing a timing by the host factor (reference time ÷ its
//! quiet-host time) rescales it to a quiet host and takes most of that
//! drift out, while a change to the library moves the rescaled time in
//! full.
//!
//! Two sizes are used. The run reference ([`reference_s`]) works on a few
//! MB, beyond the per-core cache, like a run call. The set-up reference
//! ([`setup_reference_s`]) works on a few KB and takes tens of µs, like the
//! smallest set-ups: it is timed right before each set-up, so the two
//! share the host's state of that moment.

use crate::workloads::Rng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The run reference's time on a quiet 2-vCPU Xeon VM at 2.1 GHz, where
/// the benchmark was defined: the factor is 1 there.
pub const QUIET_S: f64 = 0.036;

/// The set-up reference's time on the same quiet host: [`QUIET_S`] times
/// the largest ratio of the two references' medians (0.00083) seen with
/// both timed in one process on that VM. Its small working set makes the
/// set-up reference far less sensitive to the host's memory load than
/// the run reference, so that ratio is largest when the host is quietest.
pub const QUIET_SETUP_S: f64 = 0.000_030;

const KEYS: usize = 100_000;
const SETUP_KEYS: usize = 256;

/// Run `reference` until `budget` seconds are spent, and at least once,
/// pushing each time onto `times`.
pub fn sample(reference: fn() -> f64, times: &mut Vec<f64>, budget: f64) {
    let mut spent = 0.0;
    while spent < budget || spent == 0.0 {
        let t = reference();
        times.push(t);
        spent += t;
    }
}

/// Wall time of one run reference computation.
pub fn reference_s() -> f64 {
    reference(KEYS)
}

/// Wall time of one set-up reference computation.
pub fn setup_reference_s() -> f64 {
    reference(SETUP_KEYS)
}

/// Ordered-map inserts and lookups, small allocations and a clone, on
/// `keys` entries: the operations the library's hot paths are made of.
fn reference(keys: usize) -> f64 {
    let t0 = Instant::now();
    let mut rng = Rng::new(0x5eed);
    let mut map: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for _ in 0..keys {
        let k = rng.next();
        map.insert(k, vec![k; 4]);
    }
    let mut rng = Rng::new(0x5eed);
    let mut sum = 0u64;
    for _ in 0..keys {
        let k = rng.next();
        sum = sum.wrapping_add(map.get(&k).map_or(0, |v| v[3]));
    }
    let copy = black_box(map.clone());
    black_box(sum);
    drop(copy);
    drop(map);
    t0.elapsed().as_secs_f64()
}
