//! The Dedalus runtime: tick-by-tick temporal evaluation.
//!
//! A temporal instance assigns facts to timestamps. Each tick `t`:
//!
//! 1. the tick's base facts are gathered — EDB arrivals at `t`, heads of
//!    inductive rules fired at `t−1`, and asynchronous heads whose chosen
//!    timestamp is `t`;
//! 2. the **deductive** rules (which must be stratifiable — the paper
//!    requires modular stratification for a deterministic semantics) are
//!    evaluated to fixpoint over the base, with the entangled time
//!    variable bound to `t` through the base's clock fact;
//! 3. **inductive** rules fire once against the completed tick database,
//!    scheduling their heads at `t+1`;
//! 4. **asynchronous** rules fire once, scheduling each derived head at a
//!    seeded-random later timestamp (the paper's nondeterministic
//!    construct modelling asynchronous communication).
//!
//! The run stops at the tick budget or at *convergence* — the executable
//! reading of the paper's eventual consistency (`Π(I)|m = Π(I)|n` for all
//! `m ≥ n`): the tick database repeats, no EDB arrivals remain, and every
//! pending asynchronous delivery is already in the database.
//!
//! [`DedalusRuntime::run`] computes this in one loop over a persistent
//! store advanced by per-tick deltas. Each timing class is translated
//! to Datalog once, and a rule that names the time variable reads the
//! tick from the reserved [`CLOCK`] relation: the loop inserts the fact
//! `@clock(t)` into the tick's base, and the carry retracts it, since no
//! `@next` rule derives it. So the rules never change between ticks,
//! one `MaintainedFixpoint` keeps the IDB across ticks for every
//! program, and the `@next` and `@async` classes are one `T_P` step
//! each. The naive tick loop the runtime is tested against lives in the
//! `rtx-ref` crate.

use crate::ast::{DRule, DTime, DedalusProgram, CLOCK};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtx_query::{EvalError, MaintainedFixpoint, Program};
use rtx_relational::{Fact, Instance, InstanceDelta, RelName, Schema, Tuple, Value};
use std::collections::BTreeMap;

/// EDB facts with arrival timestamps.
#[derive(Clone, Debug, Default)]
pub struct TemporalFacts {
    arrivals: BTreeMap<u64, Vec<Fact>>,
}

impl TemporalFacts {
    /// No facts.
    pub fn new() -> Self {
        TemporalFacts::default()
    }

    /// All facts arrive at tick 0.
    pub fn all_at_zero(instance: &Instance) -> Self {
        let mut t = TemporalFacts::new();
        for f in instance.facts() {
            t.insert(0, f);
        }
        t
    }

    /// Scatter the facts of an instance over ticks `0..=spread` with a
    /// seeded RNG — "input facts can arrive at any timestamp".
    pub fn scattered(instance: &Instance, spread: u64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = TemporalFacts::new();
        for f in instance.facts() {
            t.insert(rng.gen_range(0..=spread), f);
        }
        t
    }

    /// Add one fact at a tick.
    pub fn insert(&mut self, tick: u64, fact: Fact) {
        self.arrivals.entry(tick).or_default().push(fact);
    }

    /// The last tick with an arrival.
    pub fn last_arrival(&self) -> Option<u64> {
        self.arrivals.keys().next_back().copied()
    }

    fn at(&self, tick: u64) -> &[Fact] {
        self.arrivals.get(&tick).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total number of scheduled facts.
    pub fn len(&self) -> usize {
        self.arrivals.values().map(Vec::len).sum()
    }

    /// No facts at all?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A fault plan for the asynchronous rules: replaces the uniform
/// `1..=async_max_delay` delay draw with a seeded, *pure* per-fact
/// decision (splitmix64 keyed by `(seed, tick, fact index)`), optionally
/// widening delays and duplicating deliveries. Because every decision
/// is a pure function of the key, a faulted run is exactly reproducible
/// from `(program, EDB, DedalusOptions)` — the chaos explorer varies
/// these plans to probe the eventual consistency of a program over many
/// adversarial async schedules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AsyncFaultPlan {
    /// Seed of the pure decision stream (independent of
    /// [`DedalusOptions::seed`], which feeds the plain draw).
    pub seed: u64,
    /// Extra delay added on top of the base `1..=async_max_delay` draw,
    /// drawn uniformly from this inclusive range.
    pub extra_delay: (u64, u64),
    /// Per-mille probability that a derived head is delivered twice
    /// (the duplicate draws its own delay) — the paper's duplicating
    /// network, for async rules.
    pub dup_millis: u16,
}

impl AsyncFaultPlan {
    /// The plan that only reseeds the delay stream (no widening, no
    /// duplication).
    pub fn reseeded(seed: u64) -> AsyncFaultPlan {
        AsyncFaultPlan {
            seed,
            extra_delay: (0, 0),
            dup_millis: 0,
        }
    }

    /// The delays (one per delivered copy) of the `k`-th async head
    /// derived at `now`, each in `1..=max_delay + extra`.
    pub fn delays(&self, now: u64, k: usize, max_delay: u64) -> Vec<u64> {
        let draw = |salt: u64| mix(&[self.seed, now, k as u64, salt]);
        let one = |salt: u64| {
            let base = 1 + draw(salt) % max_delay.max(1);
            let (lo, hi) = self.extra_delay;
            let extra = if hi <= lo {
                lo
            } else {
                lo + draw(salt + 1) % (hi - lo + 1)
            };
            base + extra
        };
        let mut delays = vec![one(0)];
        if self.dup_millis > 0 && draw(100) % 1000 < self.dup_millis as u64 {
            delays.push(one(200));
        }
        delays
    }
}

use rtx_core::mix::fold as mix;

/// Options for a Dedalus run.
#[derive(Clone, Debug)]
pub struct DedalusOptions {
    /// Maximum number of ticks; [`DedalusRuntime::run`] rejects 0 with
    /// [`EvalError::ZeroBudget`], since a run without a tick has no
    /// database.
    pub max_ticks: u64,
    /// Maximum async delivery delay (delays are 1..=max).
    pub async_max_delay: u64,
    /// Seed for async timestamp choices.
    pub seed: u64,
    /// When set, async delivery timestamps are decided by this fault
    /// plan instead of the plain seeded draw (see [`AsyncFaultPlan`]).
    pub async_faults: Option<AsyncFaultPlan>,
}

impl Default for DedalusOptions {
    fn default() -> Self {
        DedalusOptions {
            max_ticks: 500,
            async_max_delay: 3,
            seed: 0,
            async_faults: None,
        }
    }
}

/// The observable result of a run.
#[derive(Clone, Debug)]
pub struct Trace {
    /// The database at each tick (never holding the runtime's
    /// [`CLOCK`] fact). Consecutive ticks share storage: each tick's
    /// relations are clones of the maintained fixpoint's, which share
    /// every sorted run a tick did not write (see
    /// `rtx_relational::Relation`), so a tick costs O(Δ) rows on top
    /// of the one before, not a full copy.
    pub ticks: Vec<Instance>,
    /// The first tick from which the database provably repeats forever.
    pub converged_at: Option<u64>,
}

impl Trace {
    /// The final tick's database.
    pub fn last(&self) -> &Instance {
        self.ticks.last().expect("at least one tick")
    }

    /// Did the run converge (eventual consistency)?
    pub fn converged(&self) -> bool {
        self.converged_at.is_some()
    }

    /// Is a nullary predicate true in the limit?
    pub fn holds(&self, pred: &str) -> bool {
        self.last()
            .relation(&RelName::new(pred))
            .map(|r| r.as_bool())
            .unwrap_or(false)
    }
}

/// The Dedalus evaluator: the program's timing classes, each
/// translated to Datalog once.
pub struct DedalusRuntime<'p> {
    program: &'p DedalusProgram,
    /// The deductive rules, run to fixpoint within a tick.
    deductive: Program,
    /// The inductive rules, fired once per tick into the carry.
    inductive: Program,
    /// The asynchronous rules, fired once per tick into the deliveries.
    asynchronous: Program,
    /// Does some rule read the [`CLOCK`]?
    clocked: bool,
}

impl<'p> DedalusRuntime<'p> {
    /// Prepare a runtime for a program.
    pub fn new(program: &'p DedalusProgram) -> Result<Self, EvalError> {
        let class = |timing| -> Result<Program, EvalError> {
            let rules = program.rules_with(timing).map(DRule::translate);
            Program::new(rules.collect::<Result<_, _>>()?)
        };
        let deductive = class(DTime::Same)?;
        // surface stratification problems at construction time
        deductive.stratify()?;
        Ok(DedalusRuntime {
            program,
            deductive,
            inductive: class(DTime::Next)?,
            asynchronous: class(DTime::Async)?,
            clocked: program.rules().iter().any(|r| r.time_var().is_some()),
        })
    }

    /// Working schema: program signature ∪ EDB fact relations, plus
    /// the [`CLOCK`] when some rule reads it.
    fn schema(&self, edb: &TemporalFacts) -> Result<Schema, EvalError> {
        let mut s = self.program.signature().clone();
        for f in edb.arrivals.values().flatten() {
            if f.rel().as_str() == CLOCK {
                return Err(EvalError::Other(format!(
                    "`{CLOCK}` is reserved for the Dedalus clock"
                )));
            }
            s.declare(f.rel().clone(), f.arity())?;
        }
        if self.clocked {
            s.declare(CLOCK, 1)?;
        }
        Ok(s)
    }

    /// Run the program on a temporal EDB.
    ///
    /// One persistent `base` instance is advanced by per-tick deltas
    /// instead of being rebuilt, and the deductive fixpoint is
    /// maintained *across* ticks: the tick's base ± — the clock fact,
    /// arrivals, async deliveries, and the facts the carry dropped
    /// (first-class retractions, the previous clock fact among them) —
    /// feeds a [`MaintainedFixpoint`], which evaluates from scratch
    /// only on the first tick. The `@next` and `@async` rules fire on
    /// the tick's copy of its database.
    ///
    /// Fails with [`EvalError::ZeroBudget`] when `opts.max_ticks` is 0.
    pub fn run(&self, edb: &TemporalFacts, opts: &DedalusOptions) -> Result<Trace, EvalError> {
        if opts.max_ticks == 0 {
            return Err(EvalError::ZeroBudget {
                budget: "max_ticks",
            });
        }
        let schema = self.schema(edb)?;
        let mut rng = StdRng::seed_from_u64(opts.seed);
        // The persistent store: always equals carry(now) ∪ arrivals so
        // far this tick. Between ticks it is advanced by the (usually
        // tiny, for persistence-style programs) carry delta.
        let mut base: Instance = Instance::empty(schema.clone());
        let mut pending_async: BTreeMap<u64, Vec<Fact>> = BTreeMap::new();
        let mut ticks: Vec<Instance> = Vec::new();
        let mut converged_at = None;
        let mut fixpoint = MaintainedFixpoint::new(&self.deductive)?;
        // The tick's base ± relative to the previous tick's evaluated
        // base: carry-dropped facts arrive here as retractions, the
        // clock fact, carry additions, EDB arrivals and async deliveries
        // as insertions.
        let mut tick_added: Vec<Fact> = Vec::new();
        let mut tick_removed: Vec<Fact> = Vec::new();

        for now in 0..opts.max_ticks {
            let _tick_span = rtx_obs::trace::span("dedalus", "tick", &[("tick", now as i64)]);
            // 1. base facts: the clock and this tick's arrivals join the
            // carried store
            let clock =
                (self.clocked).then(|| Fact::new(CLOCK, Tuple::new([Value::Int(now as i64)])));
            let delivered = pending_async.remove(&now).unwrap_or_default();
            let arrivals = clock.iter().chain(edb.at(now)).cloned().chain(delivered);
            for f in arrivals {
                if base.insert_fact(f.clone())? {
                    tick_added.push(f);
                }
            }

            // 2. deductive fixpoint
            let mut db = if fixpoint.is_initialized() {
                let delta = InstanceDelta::from_parts(
                    std::mem::take(&mut tick_added),
                    std::mem::take(&mut tick_removed),
                );
                fixpoint.apply(&delta)?.clone()
            } else {
                tick_added.clear();
                tick_removed.clear();
                fixpoint.initialize(&base)?.clone()
            };

            // 3. inductive rules → carry to now+1, the step's relations
            // taken as they are
            let next_carry = self.inductive.tp_step(&db)?;

            // 4. async rules → pending deliveries, the delays drawn for
            // the heads in sorted fact order
            let heads = self.asynchronous.tp_step(&db)?;
            schedule_async(heads.facts(), now, opts, &mut rng, &mut pending_async);

            // The clock is the runtime's, not the program's: no tick of
            // the trace shows it.
            if let Some(f) = &clock {
                db.remove_fact(f);
            }

            // 5. convergence detection: the tick database repeats, no
            // input remains, and every pending asynchronous delivery is
            // *idempotent* (already present in the stable database — an
            // async rule over persisted state re-derives the same facts
            // forever, which is still eventually consistent).
            let stable = ticks.last() == Some(&db);
            let arrivals_done = edb.last_arrival().map(|l| l < now).unwrap_or(true);
            let async_idempotent = pending_async
                .values()
                .flatten()
                .all(|f| db.contains_fact(f));
            ticks.push(db);
            if stable && arrivals_done && async_idempotent {
                converged_at = Some(now);
                break;
            }
            // 6. advance the store to the next tick's carry by delta —
            // carry-dropped facts become the next tick's retractions
            let delta = next_carry.diff(&base);
            base.apply_delta(&delta)?;
            (tick_added, tick_removed) = delta.into_parts();
        }
        publish_run(ticks.len(), converged_at);
        Ok(Trace {
            ticks,
            converged_at,
        })
    }
}

/// Publish one Dedalus run's `dedalus.*` counters into the global
/// [`rtx_obs`] registry.
fn publish_run(ticks: usize, converged_at: Option<u64>) {
    if !rtx_obs::counting() {
        return;
    }
    rtx_obs::registry::add("dedalus.runs", 1);
    rtx_obs::registry::add("dedalus.ticks", ticks as u64);
    if converged_at.is_some() {
        rtx_obs::registry::add("dedalus.converged_runs", 1);
    }
}

/// Schedule the tick's async heads: the plain seeded uniform draw, or
/// the pure per-fact decisions of an [`AsyncFaultPlan`] when one is
/// set. The plain path consumes `rng` once per head in fact order; the
/// fault path consumes nothing from it (its decisions are pure),
/// keeping the two regimes cleanly separated.
fn schedule_async<'f>(
    facts: impl Iterator<Item = Fact> + 'f,
    now: u64,
    opts: &DedalusOptions,
    rng: &mut StdRng,
    pending_async: &mut BTreeMap<u64, Vec<Fact>>,
) {
    match &opts.async_faults {
        None => {
            for f in facts {
                let delay = rng.gen_range(1..=opts.async_max_delay.max(1));
                pending_async.entry(now + delay).or_default().push(f);
            }
        }
        Some(plan) => {
            for (k, f) in facts.enumerate() {
                for delay in plan.delays(now, k, opts.async_max_delay.max(1)) {
                    pending_async
                        .entry(now + delay)
                        .or_default()
                        .push(f.clone());
                }
            }
        }
    }
}

/// Convenience: run a program in one call.
pub fn run_dedalus(
    program: &DedalusProgram,
    edb: &TemporalFacts,
    opts: &DedalusOptions,
) -> Result<Trace, EvalError> {
    DedalusRuntime::new(program)?.run(edb, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{DRule, DTime};
    use rtx_query::atom;
    use rtx_relational::fact;

    fn persist(pred: &str, arity: usize) -> DRule {
        DRule::persist(pred, arity)
    }

    #[test]
    fn persistence_carries_facts_forward() {
        let p = DedalusProgram::new(vec![persist("s", 1)]).unwrap();
        let mut edb = TemporalFacts::new();
        edb.insert(0, fact!("s", 1));
        edb.insert(3, fact!("s", 2));
        let trace = run_dedalus(&p, &edb, &DedalusOptions::default()).unwrap();
        assert!(trace.converged());
        let last = trace.last();
        assert!(last.contains_fact(&fact!("s", 1)));
        assert!(last.contains_fact(&fact!("s", 2)));
        // converged shortly after the last arrival
        assert!(trace.converged_at.unwrap() >= 4);
        assert!(trace.converged_at.unwrap() <= 6);
    }

    #[test]
    fn deductive_rules_close_within_a_tick() {
        // tc within the tick, over persisted edges
        let p = DedalusProgram::new(vec![
            persist("e", 2),
            DRule::new(atom!("t"; @"X", @"Y"), DTime::Same).when(atom!("e"; @"X", @"Y")),
            DRule::new(atom!("t"; @"X", @"Z"), DTime::Same)
                .when(atom!("t"; @"X", @"Y"))
                .when(atom!("e"; @"Y", @"Z")),
        ])
        .unwrap();
        let mut edb = TemporalFacts::new();
        edb.insert(0, fact!("e", 1, 2));
        edb.insert(1, fact!("e", 2, 3));
        let trace = run_dedalus(&p, &edb, &DedalusOptions::default()).unwrap();
        assert!(trace.converged());
        assert!(trace.last().contains_fact(&fact!("t", 1, 3)));
        // at tick 0 only the first edge exists
        assert!(!trace.ticks[0].contains_fact(&fact!("t", 1, 3)));
    }

    #[test]
    fn inductive_counter_with_entanglement_mints_values() {
        // tick(T)@next ← go, T = now : records timestamps as data
        let p = DedalusProgram::new(vec![
            persist("go", 0),
            persist("tick", 1),
            DRule::new(atom!("tick"; @"T"), DTime::Next)
                .when(atom!("go"))
                .with_time_var("T"),
        ])
        .unwrap();
        let mut edb = TemporalFacts::new();
        edb.insert(0, fact!("go"));
        let opts = DedalusOptions {
            max_ticks: 6,
            ..Default::default()
        };
        let trace = run_dedalus(&p, &edb, &opts).unwrap();
        // never converges (a fresh timestamp every tick) within budget
        assert!(!trace.converged());
        let last = trace.last();
        assert!(last.contains_fact(&fact!("tick", 0)));
        assert!(last.contains_fact(&fact!("tick", 3)));
    }

    #[test]
    fn async_rules_deliver_with_seeded_delay() {
        let p = DedalusProgram::new(vec![
            persist("sent", 1),
            persist("got", 1),
            // send once: m(X)@async ← s(X); record: got(X) ← m(X)
            DRule::new(atom!("m"; @"X"), DTime::Async).when(atom!("s"; @"X")),
            DRule::new(atom!("got"; @"X"), DTime::Same).when(atom!("m"; @"X")),
        ])
        .unwrap();
        let mut edb = TemporalFacts::new();
        edb.insert(0, fact!("s", 9));
        let opts = DedalusOptions {
            max_ticks: 50,
            async_max_delay: 4,
            seed: 13,
            async_faults: None,
        };
        let trace = run_dedalus(&p, &edb, &opts).unwrap();
        assert!(trace.converged());
        assert!(trace.last().contains_fact(&fact!("got", 9)));
        // delivery was strictly later than tick 0
        assert!(!trace.ticks[0].contains_fact(&fact!("got", 9)));
        // deterministic per seed
        let t2 = run_dedalus(&p, &edb, &opts).unwrap();
        assert_eq!(trace.ticks.len(), t2.ticks.len());
    }

    #[test]
    fn non_stratifiable_deductive_rules_rejected() {
        let p = DedalusProgram::new(vec![
            DRule::new(atom!("p"; @"X"), DTime::Same)
                .when(atom!("s"; @"X"))
                .unless(atom!("q"; @"X")),
            DRule::new(atom!("q"; @"X"), DTime::Same)
                .when(atom!("s"; @"X"))
                .unless(atom!("p"; @"X")),
        ])
        .unwrap();
        assert!(DedalusRuntime::new(&p).is_err());
    }

    #[test]
    fn negation_across_ticks_is_fine() {
        // "not yet seen" latch: fire(X)@next ← s(X), ¬done; done@next ← s(X)
        let p = DedalusProgram::new(vec![
            persist("done", 0),
            persist("fired", 1),
            DRule::new(atom!("fired"; @"X"), DTime::Next)
                .when(atom!("s"; @"X"))
                .unless(atom!("done")),
            DRule::new(atom!("done"), DTime::Next).when(atom!("s"; @"X")),
            persist("s", 1),
        ])
        .unwrap();
        let mut edb = TemporalFacts::new();
        edb.insert(0, fact!("s", 1));
        let trace = run_dedalus(&p, &edb, &DedalusOptions::default()).unwrap();
        assert!(trace.converged());
        assert!(trace.last().contains_fact(&fact!("fired", 1)));
    }

    #[test]
    fn a_zero_tick_budget_is_a_typed_error() {
        let p = DedalusProgram::new(vec![persist("s", 1)]).unwrap();
        let mut edb = TemporalFacts::new();
        edb.insert(0, fact!("s", 1));
        let opts = DedalusOptions {
            max_ticks: 0,
            ..Default::default()
        };
        assert_eq!(
            run_dedalus(&p, &edb, &opts).unwrap_err(),
            EvalError::ZeroBudget {
                budget: "max_ticks"
            }
        );
        // one tick is enough for a trace with a last database
        let opts = DedalusOptions {
            max_ticks: 1,
            ..Default::default()
        };
        let trace = run_dedalus(&p, &edb, &opts).unwrap();
        assert_eq!(trace.ticks.len(), 1);
        assert!(trace.last().contains_fact(&fact!("s", 1)));
    }

    #[test]
    fn the_clock_stays_out_of_the_trace_and_the_edb() {
        let p = DedalusProgram::new(vec![
            persist("go", 0),
            DRule::new(atom!("stamp"; @"T"), DTime::Same)
                .when(atom!("go"))
                .with_time_var("T"),
        ])
        .unwrap();
        let mut edb = TemporalFacts::new();
        edb.insert(0, fact!("go"));
        let opts = DedalusOptions {
            max_ticks: 3,
            ..Default::default()
        };
        let trace = run_dedalus(&p, &edb, &opts).unwrap();
        for (now, db) in trace.ticks.iter().enumerate() {
            let facts: Vec<Fact> = db.facts().collect();
            assert_eq!(facts, vec![fact!("go"), fact!("stamp", now as i64)]);
        }
        // An EDB fact cannot forge the tick.
        edb.insert(1, Fact::new(CLOCK, Tuple::new([Value::Int(7)])));
        assert!(run_dedalus(&p, &edb, &opts).is_err());
    }

    #[test]
    fn temporal_facts_helpers() {
        let sch = Schema::new().with("s", 1);
        let i = Instance::from_facts(sch, vec![fact!("s", 1), fact!("s", 2)]).unwrap();
        let zero = TemporalFacts::all_at_zero(&i);
        assert_eq!(zero.len(), 2);
        assert_eq!(zero.last_arrival(), Some(0));
        let scattered = TemporalFacts::scattered(&i, 5, 3);
        assert_eq!(scattered.len(), 2);
        assert!(scattered.last_arrival().unwrap() <= 5);
        assert!(!scattered.is_empty());
        assert!(TemporalFacts::new().is_empty());
    }
}
