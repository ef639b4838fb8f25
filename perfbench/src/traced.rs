//! The traced run: per-layer attribution from outside the library.
//!
//! Each layer is timed at its public entry points: a delegating `Query`
//! around every transducer query, a delegating FIFO `Scheduler`, and
//! replays of the run through `Transducer::step` (from the round
//! executors' transition log) and through `MaintainedFixpoint::apply`
//! (from the Dedalus trace). Counts come
//! from the `rtx_obs` registry at the `counters` level. Each boundary
//! keeps one sum and one count, never a span per call. A replay that does
//! not reproduce the run fails the traced run.

use crate::workloads::{self, Expected, Inputs, Outcome, Setup, SetupParts, Work, Workload};
use crate::Report;
use rtx_net::{
    Action, Configuration, FifoRoundRobin, Network, Scheduler, TransitionKind, TransitionLog,
};
use rtx_obs::{Registry, Snapshot, TraceLevel};
use rtx_query::{EvalError, MaintainedFixpoint, Query, QueryRef};
use rtx_relational::{Instance, RelName, Relation, Symbol};
use rtx_transducer::{Transducer, TransducerBuilder};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The per-layer metrics, in print order, with their units.
pub const METRICS: &[(&str, &str)] = &[
    ("setup.topology_s", "s"),
    ("setup.config_s", "s"),
    ("intern.symbols", "count"),
    ("net.steps", "count"),
    ("net.rounds", "count"),
    ("net.deliveries", "count"),
    ("net.messages", "count"),
    ("net.max_active", "count"),
    ("net.us_per_step", "us"),
    ("net.self_s", "s"),
    ("net.self_share", "ratio"),
    ("net.schedule_s", "s"),
    ("transducer.step_s", "s"),
    ("transducer.self_s", "s"),
    ("transducer.noop_share", "ratio"),
    ("transducer.heartbeat_us", "us"),
    ("query.eval_s", "s"),
    ("query.eval_share", "ratio"),
    ("query.evals", "count"),
    ("query.considered", "count"),
    ("query.derived", "count"),
    ("storage.promotions", "count"),
    ("storage.demotions", "count"),
    ("storage.folds", "count"),
    ("storage.promotions_per_step", "ratio"),
    ("fixpoint.apply_s", "s"),
    ("fixpoint.apply_share", "ratio"),
    ("fixpoint.facts_retracted", "count"),
    ("fixpoint.facts_rederived", "count"),
    ("fixpoint.strata_incremental", "count"),
    ("fixpoint.strata_rebuilt", "count"),
    ("fixpoint.rederived_per_retracted", "ratio"),
    ("dedalus.ticks", "count"),
    ("dedalus.self_s", "s"),
    ("dedalus.trace_facts", "count"),
    ("trace.overhead", "ratio"),
];

/// One sum and one count of wall time at a boundary.
#[derive(Default)]
pub struct Clock {
    nanos: AtomicU64,
    calls: AtomicU64,
}

impl Clock {
    fn add(&self, d: Duration) {
        self.nanos.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    /// Read and zero: `(seconds, calls)`.
    fn take(&self) -> (f64, u64) {
        let ns = self.nanos.swap(0, Ordering::Relaxed);
        (ns as f64 * 1e-9, self.calls.swap(0, Ordering::Relaxed))
    }
}

/// A query that times every `eval` of the query it wraps and delegates
/// every other method, so classification and `initial_lean` see the
/// same transducer.
#[derive(Debug)]
struct TimedQuery {
    inner: QueryRef,
    clock: Arc<Clock>,
}

impl std::fmt::Debug for Clock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Clock")
    }
}

impl Query for TimedQuery {
    fn arity(&self) -> usize {
        self.inner.arity()
    }
    fn eval(&self, db: &Instance) -> Result<Relation, EvalError> {
        let t0 = Instant::now();
        let r = self.inner.eval(db);
        self.clock.add(t0.elapsed());
        r
    }
    fn is_monotone_syntactic(&self) -> bool {
        self.inner.is_monotone_syntactic()
    }
    fn referenced_relations(&self) -> BTreeSet<RelName> {
        self.inner.referenced_relations()
    }
    fn is_always_empty(&self) -> bool {
        self.inner.is_always_empty()
    }
    fn describe(&self) -> String {
        self.inner.describe()
    }
}

/// Rebuild `t` through `TransducerBuilder` with every query timed.
fn timed_transducer(t: &Transducer, clock: &Arc<Clock>) -> Result<Transducer, String> {
    let wrap = |q: &QueryRef| -> QueryRef {
        Arc::new(TimedQuery {
            inner: q.clone(),
            clock: clock.clone(),
        })
    };
    let s = t.schema();
    let mut b = TransducerBuilder::new(t.name())
        .input_schema(s.input())
        .output_arity(s.output_arity());
    for (rel, k) in s.message().iter() {
        b = b.message_relation(rel.clone(), k);
        if let Some(q) = t.snd_query(rel) {
            b = b.send(rel.clone(), wrap(q));
        }
    }
    for (rel, k) in s.memory().iter() {
        b = b.memory_relation(rel.clone(), k);
        if let Some(q) = t.ins_query(rel) {
            b = b.insert(rel.clone(), wrap(q));
        }
        if let Some(q) = t.del_query(rel) {
            b = b.delete(rel.clone(), wrap(q));
        }
    }
    b.output(wrap(t.out_query()))
        .build()
        .map_err(|e| format!("rebuilding the transducer: {e:?}"))
}

/// A FIFO scheduler that times `next_action`.
struct TimedFifo {
    inner: FifoRoundRobin,
    clock: Clock,
}

impl Scheduler for TimedFifo {
    fn next_action(&mut self, cfg: &Configuration, net: &Network) -> Action {
        let t0 = Instant::now();
        let a = self.inner.next_action(cfg, net);
        self.clock.add(t0.elapsed());
        a
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// What a replay through `Transducer::step` measured.
struct StepReplay {
    step_s: f64,
    query_s: f64,
    steps: u64,
    noops: u64,
}

/// Replay a round executor's transition log through `Transducer::step`
/// from the initial configuration, and check that it ends in the run's
/// final configuration node for node.
fn replay_log(
    t: &Transducer,
    clock: &Clock,
    net: &Network,
    initial: &Configuration,
    log: &TransitionLog,
    fin: &Configuration,
) -> Result<StepReplay, String> {
    let mut states = BTreeMap::new();
    for n in net.nodes() {
        let s = initial
            .state(n)
            .ok_or("initial configuration lacks a node")?;
        states.insert(*n, s.clone());
    }
    let empty = Instance::empty(t.schema().message().clone());
    clock.take();
    let (mut step_time, mut steps, mut noops) = (Duration::ZERO, 0, 0);
    for rec in log.iter() {
        let received = match &rec.kind {
            TransitionKind::Heartbeat => None,
            TransitionKind::Delivery(f) => {
                let mut r = empty.clone();
                r.insert_fact(f.clone()).map_err(|e| format!("{e:?}"))?;
                Some(r)
            }
        };
        let state = states
            .get(&rec.node)
            .ok_or("replay names an unknown node")?;
        let t0 = Instant::now();
        let res = t
            .step(state, received.as_ref().unwrap_or(&empty))
            .map_err(|e| format!("replayed step: {e:?}"))?;
        step_time += t0.elapsed();
        steps += 1;
        if &res.new_state == state && res.sent.fact_count() == 0 && res.output.is_empty() {
            noops += 1;
        }
        states.insert(rec.node, res.new_state);
    }
    for (n, s) in &states {
        if fin.state(n) != Some(s) {
            return Err(format!("replay diverges from the run at node {n}"));
        }
    }
    Ok(StepReplay {
        step_s: step_time.as_secs_f64(),
        query_s: clock.take().0,
        steps,
        noops,
    })
}

/// What the Dedalus replay measured.
struct FixpointReplay {
    apply_s: f64,
    /// The `fixpoint.*` counters the run must match.
    counters: [(&'static str, u64); 4],
}

/// Replay the run's per-tick base deltas through
/// `MaintainedFixpoint::apply` on the closure program, checking every
/// tick's `t` against the trace.
fn replay_fixpoint(ticks: &[Instance]) -> Result<FixpointReplay, String> {
    let program = rtx_query::parser::parse_program(workloads::CHURN_CLOSURE)
        .map_err(|e| format!("closure program: {e:?}"))?;
    let mut fix = MaintainedFixpoint::new(&program).map_err(|e| format!("{e:?}"))?;
    let t: RelName = "t".into();
    let base_of = |db: &Instance| -> Result<Instance, String> {
        let mut b = db.clone();
        b.set_relation(t.clone(), Relation::empty(2))
            .map_err(|e| format!("{e:?}"))?;
        Ok(b)
    };
    let mut apply = Duration::ZERO;
    let mut prev: Option<Instance> = None;
    for (tick, db) in ticks.iter().enumerate() {
        let base = base_of(db)?;
        let got = match &prev {
            None => fix.initialize(&base),
            Some(p) => {
                let delta = base.diff(p);
                let t0 = Instant::now();
                let r = fix.apply(&delta);
                apply += t0.elapsed();
                r
            }
        }
        .map_err(|e| format!("replayed fixpoint: {e:?}"))?;
        if got.relation(&t).ok() != db.relation(&t).ok() {
            return Err(format!("replayed t diverges from the run at tick {tick}"));
        }
        prev = Some(base);
    }
    let s = fix.stats();
    let counters = [
        ("fixpoint.facts_retracted", s.facts_retracted),
        ("fixpoint.facts_rederived", s.facts_rederived),
        ("fixpoint.strata_incremental", s.strata_incremental),
        ("fixpoint.strata_rebuilt", s.strata_rebuilt),
    ];
    Ok(FixpointReplay {
        apply_s: apply.as_secs_f64(),
        counters,
    })
}

/// Mean `Transducer::heartbeat` over the final states, repeated until
/// at least 64 calls and 20 ms have been timed.
fn heartbeat_us(t: &Transducer, net: &Network, fin: &Configuration) -> Result<f64, String> {
    let states: Vec<&Instance> = net.nodes().filter_map(|n| fin.state(n)).collect();
    if states.is_empty() {
        return Ok(0.0);
    }
    let (mut calls, mut spent) = (0u64, Duration::ZERO);
    while calls < 64 || spent < Duration::from_millis(20) {
        for s in &states {
            let t0 = Instant::now();
            t.heartbeat(s).map_err(|e| format!("heartbeat: {e:?}"))?;
            spent += t0.elapsed();
            calls += 1;
        }
    }
    Ok(spent.as_secs_f64() * 1e6 / calls as f64)
}

/// Folds recorded by the storage of every final state's relations.
fn folds<'a>(states: impl Iterator<Item = &'a Instance>) -> u64 {
    states
        .flat_map(|s| s.storage_stats())
        .map(|(_, st)| st.folds)
        .sum()
}

/// The id of a never-seen symbol: how many symbols are interned.
fn fresh_symbol_id() -> u32 {
    static PROBES: AtomicU64 = AtomicU64::new(0);
    let n = PROBES.fetch_add(1, Ordering::Relaxed);
    Symbol::new(format!("perfbench.probe.{}.{n}", std::process::id())).id()
}

/// Run `f` at the `counters` trace level and return its registry delta.
fn counted<T>(f: impl FnOnce() -> T) -> (T, Snapshot) {
    let before = Registry::global().snapshot();
    rtx_obs::trace::set_level(TraceLevel::Counters);
    let out = f();
    rtx_obs::trace::set_level(TraceLevel::Off);
    (out, Registry::global().snapshot().diff(&before))
}

/// Untraced run, traced run and replay are made this many times, in
/// turn, and each metric is the median over the repetitions: the host's
/// speed drifts by tens of percent over seconds, and a layer share taken
/// from one run and one replay would mostly measure that drift.
const REPEATS: usize = 3;

/// Per-layer metrics of one workload; a metric a workload lacks reads 0.
pub fn traced(w: Workload, inputs: &Inputs) -> Report {
    let mut out = Report::default();
    let mut medians = Sample::new();
    if let Err(e) = traced_into(w, inputs, &mut out, &mut medians) {
        out.failed += 1;
        out.errors.push(e);
    }
    out.metrics = METRICS
        .iter()
        .map(|(name, unit)| (*name, *unit, medians.get(name).copied().unwrap_or(0.0)))
        .collect();
    out
}

type Sample = BTreeMap<&'static str, f64>;

fn traced_into(
    w: Workload,
    inputs: &Inputs,
    out: &mut Report,
    medians: &mut Sample,
) -> Result<(), String> {
    let expected = Expected::of(inputs);

    // Set-up, three times after a warm-up, keeping the median part times.
    workloads::setup(inputs, &mut SetupParts::default())?;
    let (mut topo, mut config) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let mut p = SetupParts::default();
        workloads::setup(inputs, &mut p)?;
        topo.push(p.topology.as_secs_f64());
        config.push(p.config.as_secs_f64());
    }
    let mut common = Sample::new();
    common.insert("setup.topology_s", crate::median(&mut topo));
    common.insert("setup.config_s", crate::median(&mut config));
    common.insert("intern.symbols", fresh_symbol_id() as f64);

    let mut samples = Vec::new();
    for _ in 0..REPEATS {
        out.attempted += 1;
        let mut setup = workloads::setup(inputs, &mut SetupParts::default())?;
        let t0 = Instant::now();
        let plain = workloads::run(w, &mut setup);
        let wall = t0.elapsed().as_secs_f64();
        plain
            .and_then(|o| workloads::check(&expected, &o, &setup))
            .map_err(|e| format!("untraced run: {e}"))?;

        out.attempted += 1;
        let setup = workloads::setup(inputs, &mut SetupParts::default())?;
        let mut m = common.clone();
        let (run_s, work) = match &setup {
            Setup::Net { .. } => traced_net(w, &setup, &expected, &mut m)?,
            Setup::Churn { .. } => traced_churn(&setup, &expected, &mut m)?,
        };
        m.insert("trace.overhead", run_s / wall);
        out.work = work;
        samples.push(m);
    }
    for (name, _) in METRICS {
        let mut v: Vec<f64> = samples
            .iter()
            .map(|m| m.get(name).copied().unwrap_or(0.0))
            .collect();
        medians.insert(name, crate::median(&mut v));
    }
    Ok(())
}

/// Registry counters reported as they are.
const COUNTERS: [(&str, &str); 12] = [
    ("net.steps", "net.steps"),
    ("net.deliveries", "net.deliveries"),
    ("net.messages", "net.messages_enqueued"),
    ("query.considered", "query.considered"),
    ("query.derived", "query.derived"),
    ("storage.promotions", "storage.promotions"),
    ("storage.demotions", "storage.demotions"),
    ("fixpoint.facts_retracted", "fixpoint.facts_retracted"),
    ("fixpoint.facts_rederived", "fixpoint.facts_rederived"),
    ("fixpoint.strata_incremental", "fixpoint.strata_incremental"),
    ("fixpoint.strata_rebuilt", "fixpoint.strata_rebuilt"),
    ("dedalus.ticks", "dedalus.ticks"),
];

fn insert_counters(m: &mut Sample, snap: &Snapshot) {
    for (metric, counter) in COUNTERS {
        m.insert(metric, snap.counter(counter) as f64);
    }
}

/// A network workload's traced run and its replay through
/// `Transducer::step`. Returns the traced run time.
fn traced_net(
    w: Workload,
    setup: &Setup,
    expected: &Expected,
    m: &mut Sample,
) -> Result<(f64, Work), String> {
    let Setup::Net {
        net,
        transducer,
        config,
    } = setup
    else {
        return Err("not a network workload".into());
    };
    let initial = config.clone().ok_or("set-up without a configuration")?;
    let clock = Arc::new(Clock::default());
    let timed = timed_transducer(transducer, &clock)?;
    let mut sched = TimedFifo {
        inner: FifoRoundRobin::new(),
        clock: Clock::default(),
    };
    let log = w != Workload::TcDistributed;
    let ((res, run_s), snap) = counted(|| {
        let t0 = Instant::now();
        let res = workloads::run_net(w, net, &timed, initial.clone(), log, &mut sched);
        (res, t0.elapsed().as_secs_f64())
    });
    let outcome = res?;
    let work = workloads::check(expected, &outcome, setup)?;
    insert_counters(m, &snap);
    let (query_s, evals) = clock.take();
    m.insert("query.eval_s", query_s);
    m.insert("query.evals", evals as f64);
    m.insert("query.eval_share", query_s / run_s);
    let steps = snap.counter("net.steps");
    let per_step = steps.max(1) as f64;
    m.insert("net.us_per_step", run_s * 1e6 / per_step);

    // The round executors' transition log is replayed; tc-distributed's
    // schedule is not, so its replay metrics read 0.
    let fin = match &outcome {
        Outcome::Rounds(o) => {
            let log = o.log.as_ref().ok_or("no transition log")?;
            m.insert("net.rounds", o.rounds as f64);
            m.insert("net.max_active", o.max_active as f64);
            let fin = &o.outcome.final_config;
            let replay = replay_log(&timed, &clock, net, &initial, log, fin)?;
            if replay.steps != steps {
                return Err(format!(
                    "replay took {} steps, the run {steps}",
                    replay.steps
                ));
            }
            m.insert("net.self_s", run_s - replay.step_s);
            m.insert("net.self_share", (run_s - replay.step_s) / run_s);
            m.insert("transducer.step_s", replay.step_s);
            m.insert("transducer.self_s", replay.step_s - replay.query_s);
            m.insert("transducer.noop_share", replay.noops as f64 / per_step);
            fin
        }
        Outcome::Scheduled(o) => {
            m.insert("net.schedule_s", sched.clock.take().0);
            m.insert("net.rounds", sched.inner.rounds() as f64);
            &o.final_config
        }
        Outcome::Ticks(_) => return Err("network workload produced ticks".into()),
    };
    m.insert(
        "transducer.heartbeat_us",
        heartbeat_us(transducer, net, fin)?,
    );
    m.insert(
        "storage.folds",
        folds(net.nodes().filter_map(|n| fin.state(n))) as f64,
    );
    m.insert(
        "storage.promotions_per_step",
        snap.counter("storage.promotions") as f64 / per_step,
    );
    Ok((run_s, work))
}

/// dedalus-churn's traced run and its replay through
/// `MaintainedFixpoint::apply`. Returns the traced run time.
fn traced_churn(setup: &Setup, expected: &Expected, m: &mut Sample) -> Result<(f64, Work), String> {
    let Setup::Churn { program, edb } = setup else {
        return Err("not the Dedalus workload".into());
    };
    let ((res, run_s), snap) = counted(|| {
        let t0 = Instant::now();
        let res = workloads::run_churn(program, edb);
        (res, t0.elapsed().as_secs_f64())
    });
    let outcome = res?;
    let mut work = workloads::check(expected, &outcome, setup)?;
    let Outcome::Ticks(trace) = &outcome else {
        return Err("dedalus-churn produced no trace".into());
    };
    let replay = replay_fixpoint(&trace.ticks)?;
    for (name, replayed) in replay.counters {
        let run = snap.counter(name);
        if replayed != run {
            return Err(format!("replay counts {name} = {replayed}, the run {run}"));
        }
    }
    insert_counters(m, &snap);
    let retracted = snap.counter("fixpoint.facts_retracted");
    let rederived = snap.counter("fixpoint.facts_rederived");
    m.insert("fixpoint.apply_s", replay.apply_s);
    m.insert("fixpoint.apply_share", replay.apply_s / run_s);
    m.insert(
        "fixpoint.rederived_per_retracted",
        rederived as f64 / retracted.max(1) as f64,
    );
    m.insert("dedalus.self_s", run_s - replay.apply_s);
    m.insert("dedalus.trace_facts", workloads::trace_facts(trace) as f64);
    m.insert(
        "storage.folds",
        folds(trace.ticks.last().into_iter()) as f64,
    );
    work.push(("facts_retracted", retracted));
    work.push(("facts_rederived", rederived));
    Ok((run_s, work))
}
