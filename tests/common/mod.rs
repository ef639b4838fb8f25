//! Shared by the Dedalus tests: one run of the runtime and one of the
//! reference tick loop (`rtx_ref::dedalus`) on the same input.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtx::dedalus::{DedalusOptions, DedalusProgram, DedalusRuntime, TemporalFacts};
use rtx::relational::Fact;
use rtx_ref::Ticks;

/// Run `program` on `arrivals` through `DedalusRuntime::run` and through
/// `rtx_ref::dedalus`, returning `(runtime, reference)` as plain sets.
///
/// The reference draws its `@async` delays the way `opts` asks the
/// runtime to: the plain seeded draw, one per head in sorted fact
/// order, or the pure per-head decisions of `opts.async_faults`.
pub fn runtime_and_reference(
    program: &DedalusProgram,
    arrivals: &[(u64, Fact)],
    opts: &DedalusOptions,
) -> (Ticks, Ticks) {
    let mut edb = TemporalFacts::new();
    for (tick, fact) in arrivals {
        edb.insert(*tick, fact.clone());
    }
    let trace = DedalusRuntime::new(program)
        .unwrap()
        .run(&edb, opts)
        .unwrap();
    let runtime = Ticks {
        ticks: trace.ticks.iter().map(|db| db.facts().collect()).collect(),
        converged_at: trace.converged_at,
    };
    let max = opts.async_max_delay.max(1);
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let plan = opts.async_faults;
    let reference = rtx_ref::dedalus(program, arrivals, opts.max_ticks, |now, k, _| match plan {
        None => vec![rng.gen_range(1..=max)],
        Some(plan) => plan.delays(now, k, max),
    });
    (runtime, reference)
}
