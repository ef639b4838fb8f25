//! The schedule explorer and empirical eventual-consistency checker.
//!
//! The paper's consistency notion quantifies over **all** fair runs:
//! a transducer network is consistent when every fair run produces the
//! same quiescent output. [`explore`] probes that universally
//! quantified claim empirically: it executes `runs` adversarial runs —
//! a small set of targeted heuristics (starve one edge, burst then
//! partition, duplicate everything) followed by seeded random search
//! over [`FaultPlanStrategy`] — and compares every quiescent output
//! against the fault-free reference. The verdict is either *consistent
//! over N runs* or a **minimized** diverging schedule: the offending
//! fault plan is shrunk with the compat-proptest shrinker until every
//! remaining fault is load-bearing, giving a smallest-found pair of
//! schedules (the fault-free reference run and the minimized faulted
//! run) whose outputs differ.
//!
//! [`cross_validate`] ties the loop back to the CALM classifier: a
//! syntactically monotone transducer is coordination-free (Theorem 12),
//! so a fair-adversary divergence would refute
//! `rtx_transducer::Classification` — the explorer is the empirical
//! court for the classifier's verdicts. [`explore_dedalus`] plays the
//! same game for Dedalus programs over async fault plans.

use crate::plan::FaultPlan;
use crate::plan::{mix, Crash, CrashKind, LinkFaults, Partition};
use crate::session::FaultSession;
use crate::strategy::{Adversary, AsyncPlanStrategy, FaultPlanStrategy};
use proptest::{shrink_failure, Strategy, TestCaseError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rtx_dedalus::{AsyncFaultPlan, DedalusOptions, DedalusProgram, DedalusRuntime, TemporalFacts};
use rtx_net::{
    run_sharded, run_sharded_faulted, HorizontalPartition, NetError, Network, NodeId, RunBudget,
    ShardOptions,
};
use rtx_query::EvalError;
use rtx_relational::{Instance, Relation, Tuple};
use rtx_transducer::{Classification, Transducer};
use std::collections::BTreeMap;

/// Explorer configuration.
#[derive(Clone, Debug)]
pub struct ExplorerOptions {
    /// Total adversarial runs (heuristics first, then random search).
    pub runs: usize,
    /// Base seed: every plan and every per-run decision seed derives
    /// from it, so an explorer invocation is replayable end to end.
    pub seed: u64,
    /// Cap on random per-link delays (scheduling units).
    pub max_delay: u32,
    /// Cap on partition/crash window lengths.
    pub max_hold: u64,
    /// Cap on fault event start times.
    pub horizon: u64,
    /// Per-run step budget.
    pub budget: RunBudget,
    /// The adversary space searched.
    pub adversary: Adversary,
    /// Minimize diverging plans with the proptest shrinker.
    pub shrink: bool,
    /// Compare **per-node** outputs instead of the global union. The
    /// paper's consistency notion is about the global output `out(ρ)`
    /// (the default); the per-node check is strictly stronger and
    /// catches localized losses — e.g. a persistent-EDB crash starving
    /// one node of a dissemination — that the union hides because every
    /// fact's originator outputs it anyway. Disables the early-exit
    /// target (a run must quiesce or exhaust its budget).
    pub per_node: bool,
}

impl ExplorerOptions {
    /// Environment-resolved defaults: `RTX_CHAOS_RUNS` (default 64)
    /// and `RTX_CHAOS_SEED` (default `0xC4A05EED`), a fair adversary,
    /// and a 200k-step budget per run.
    pub fn auto() -> ExplorerOptions {
        ExplorerOptions {
            runs: rtx_core::env::parse_positive_usize("RTX_CHAOS_RUNS").unwrap_or(64),
            seed: rtx_core::env::parse_u64("RTX_CHAOS_SEED").unwrap_or(0xC4A0_5EED),
            max_delay: 4,
            max_hold: 8,
            horizon: 6,
            budget: RunBudget::steps(200_000),
            adversary: Adversary::Fair,
            shrink: true,
            per_node: false,
        }
    }

    /// Override the run count.
    pub fn with_runs(mut self, runs: usize) -> Self {
        self.runs = runs;
        self
    }

    /// Override the base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the adversary space.
    pub fn with_adversary(mut self, adversary: Adversary) -> Self {
        self.adversary = adversary;
        self
    }

    /// Override the per-run budget.
    pub fn with_budget(mut self, budget: RunBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Compare per-node outputs instead of the global union.
    pub fn per_node(mut self) -> Self {
        self.per_node = true;
        self
    }
}

/// Where a divergence first becomes visible: the earliest point in the
/// minimized faulted replay at which its outputs are known to depart
/// from the fault-free reference.
///
/// Computed by replaying the minimized `(plan, seed)` once with the
/// transition log enabled and walking the log in application order.
/// An **extra** fact is pinned to the exact transition that emitted it;
/// a **missing** fact has no emitting transition to point at, so it is
/// pinned to the round the replay ended in — the run completed (or
/// exhausted its budget) without ever deriving the fact.
#[derive(Clone, Debug)]
pub struct Localization {
    /// The node that witnesses the divergence: the emitter of an extra
    /// fact, or the node a missing fact was expected at (in global
    /// mode, the first node that outputs it in the reference run).
    pub node: NodeId,
    /// The witness output tuple.
    pub fact: Tuple,
    /// `true` when the faulted run emitted a fact the reference never
    /// outputs; `false` when an expected fact never appeared.
    pub extra: bool,
    /// The first divergent round (1-based): the emitting transition's
    /// round for an extra fact, the replay's final round for a missing
    /// one.
    pub round: u64,
}

/// A minimized pair of diverging schedules: the fault-free reference
/// run against the smallest-found faulted run with a different output.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// The minimized fault plan (replay with [`FaultSession::new`]
    /// under `seed`).
    pub plan: FaultPlan,
    /// The per-run decision seed of the diverging run.
    pub seed: u64,
    /// The run index at which the original divergence surfaced.
    pub found_at_run: usize,
    /// Shrinking steps accepted while minimizing.
    pub shrink_steps: usize,
    /// The reference (fault-free) output.
    pub expected: Relation,
    /// The diverging run's output.
    pub observed: Relation,
    /// Was the divergence in the per-node outputs? When set, `expected`
    /// and `observed` (the global unions) may coincide — the difference
    /// is at individual nodes (see [`ExplorerOptions::per_node`]).
    pub per_node: bool,
    /// Which node, which fact, and which round the divergence first
    /// surfaces at in the minimized replay. `None` only if the logged
    /// replay found no witness (e.g. the early-exit target stopped the
    /// replay at exact agreement).
    pub localization: Option<Localization>,
    /// The full trace of the minimized diverging replay, captured at
    /// forced [`rtx_obs::TraceLevel::Full`] regardless of `RTX_TRACE`.
    /// `trace.node_timeline(node)` of the localized node is the
    /// round-by-round divergence listing `exp_chaos` prints.
    pub trace: rtx_obs::RunTrace,
}

/// The explorer's verdict for one `(network, transducer, partition)`.
#[derive(Clone, Debug)]
pub struct ExploreReport {
    /// The probed transducer's name.
    pub program: String,
    /// Runs actually executed (the search stops at the first
    /// divergence).
    pub runs_executed: usize,
    /// How many of the executed runs were targeted heuristics.
    pub heuristic_runs: usize,
    /// The fault-free reference output.
    pub reference: Relation,
    /// Did the reference run quiesce within budget?
    pub reference_quiescent: bool,
    /// The minimized divergence, when one was found.
    pub divergence: Option<Divergence>,
}

impl ExploreReport {
    /// No divergence found over the executed runs.
    ///
    /// This is a bounded-confidence **empirical** verdict: runs are
    /// step-budgeted and (in global mode) early-exit at exact output
    /// agreement, so a divergence that only manifests past the budget
    /// — or whose output passes exactly through the reference before
    /// growing — can be missed. A `false` verdict, by contrast, always
    /// carries a real, replayable, budget-confirmed divergence.
    pub fn consistent(&self) -> bool {
        self.divergence.is_none()
    }
}

/// The targeted heuristic plans for a topology: starve each directed
/// edge, isolate each node behind a late-healing partition after a
/// fault-free burst, and duplicate everything. Deterministic and
/// bounded (at most 8 starved edges and 4 isolated nodes).
pub fn heuristic_plans(
    nodes: usize,
    edges: &[(usize, usize)],
    opts: &ExplorerOptions,
) -> Vec<FaultPlan> {
    let mut plans = Vec::new();
    // duplicate-everything: the paper's duplicating network, maximally
    for dup_delay in [0u32, 2] {
        let mut p = FaultPlan::none();
        p.default_link = LinkFaults {
            delay: (0, dup_delay),
            dup_millis: 1000,
            drop_millis: 0,
        };
        plans.push(p);
    }
    // starve-one-edge: hold one directed edge's messages much longer
    for &(s, d) in edges.iter().take(8) {
        let mut p = FaultPlan::none();
        p.links.insert(
            (s, d),
            LinkFaults::delayed((opts.max_hold as u32).max(opts.max_delay)),
        );
        plans.push(p);
    }
    // burst-then-partition: run fault-free for a burst, then cut one
    // node off until a late heal
    for node in 0..nodes.min(4) {
        let mut p = FaultPlan::none();
        p.partitions.push(Partition {
            side: [node].into_iter().collect(),
            from: 2,
            heal: 2 + opts.max_hold.max(1),
        });
        plans.push(p);
    }
    if opts.adversary == Adversary::CrashFaulty {
        // crash each node once with soft-state loss
        for node in 0..nodes.min(4) {
            let mut p = FaultPlan::none();
            p.crashes.push(Crash {
                node,
                at: 2,
                restart: Some(2 + opts.max_hold.max(1)),
                kind: CrashKind::PersistentEdb,
            });
            plans.push(p);
        }
    }
    plans
}

/// The directed edges of a network, by ascending node index.
pub fn directed_edges(net: &Network) -> Vec<(usize, usize)> {
    let nodes: Vec<&NodeId> = net.nodes().collect();
    let index: BTreeMap<&NodeId, usize> = nodes.iter().enumerate().map(|(i, n)| (*n, i)).collect();
    let mut edges = Vec::new();
    for (i, n) in nodes.iter().enumerate() {
        for m in net.neighbors(n) {
            edges.push((i, index[m]));
        }
    }
    edges
}

/// Execute `runs` adversarial runs of `(net, transducer, partition)`
/// and check empirical eventual consistency against the fault-free
/// reference. See the module docs for the search structure; every run
/// is replayable from the report (plan + seed), and the whole search is
/// replayable from `opts.seed`.
pub fn explore(
    net: &Network,
    transducer: &Transducer,
    partition: &HorizontalPartition,
    opts: &ExplorerOptions,
) -> Result<ExploreReport, NetError> {
    let serial = ShardOptions::serial();
    let reference = run_sharded(net, transducer, partition, &serial, &opts.budget)?;
    let expected = reference.outcome.output.clone();
    let edges = directed_edges(net);
    let strategy = FaultPlanStrategy {
        nodes: net.len(),
        edges,
        max_delay: opts.max_delay,
        max_hold: opts.max_hold,
        horizon: opts.horizon,
        adversary: opts.adversary,
    };
    let heuristics = heuristic_plans(net.len(), &strategy.edges, opts);
    let heuristic_runs = heuristics.len().min(opts.runs);
    // Early-exit budget: a consistent run stops the moment its global
    // output reaches the reference exactly. Outputs accumulate
    // monotonically, so a run that jumps *past* the reference (a
    // proper superset without ever equaling it) still runs on and is
    // caught by the comparison at budget end — but a run whose output
    // passes through the reference exactly and would only later exceed
    // it is stopped at the equality point and counted consistent.
    // That is a deliberate cost/soundness trade: `consistent` is a
    // bounded-confidence empirical verdict either way (a divergence
    // past the step budget is equally invisible), while reported
    // divergences are always real. The stronger per-node check cannot
    // early-exit — nodes finish at different times — so it runs to
    // quiescence or budget.
    let run_budget = if opts.per_node {
        opts.budget.clone()
    } else {
        RunBudget {
            max_steps: opts.budget.max_steps,
            target_output: Some(expected.clone()),
        }
    };
    let diverges = |out: &rtx_net::ShardRunOutcome| {
        if opts.per_node {
            out.outcome.outputs_per_node != reference.outcome.outputs_per_node
        } else {
            out.outcome.output != expected
        }
    };
    let mut runs_executed = 0usize;
    for i in 0..opts.runs {
        let plan = if i < heuristics.len() {
            heuristics[i].clone()
        } else {
            let mut rng = StdRng::seed_from_u64(mix(&[opts.seed, i as u64, 0x9E4]));
            strategy.generate(&mut rng)
        };
        let seed = mix(&[opts.seed, i as u64, 0xF00D]);
        let mut session = FaultSession::new(plan.clone(), seed);
        let mut run = |budget: &RunBudget| {
            run_sharded_faulted(net, transducer, partition, &serial, budget, &mut session)
        };
        let out = run(&run_budget)?;
        runs_executed += 1;
        if diverges(&out) {
            // Confirm at an escalated budget before reporting: a fair
            // plan only delays delivery, so a slow-but-consistent run
            // that merely exhausted its step budget mid-dissemination
            // must not refute the program (a false CALM refutation).
            // Only divergences that survive 4× the per-run budget are
            // reported; the shrinker then checks candidates at the
            // same escalated budget.
            let confirm_budget = RunBudget {
                max_steps: run_budget.max_steps.saturating_mul(4),
                target_output: run_budget.target_output.clone(),
            };
            let confirm = run(&confirm_budget)?;
            if !diverges(&confirm) {
                continue; // slow, not divergent
            }
            let divergence = minimize(
                net,
                transducer,
                partition,
                &strategy,
                plan,
                seed,
                i,
                &confirm_budget,
                &expected,
                &reference.outcome.outputs_per_node,
                &diverges,
                opts,
            )?;
            return Ok(ExploreReport {
                program: transducer.name().to_string(),
                runs_executed,
                heuristic_runs: heuristic_runs.min(runs_executed),
                reference: expected,
                reference_quiescent: reference.outcome.quiescent,
                divergence: Some(divergence),
            });
        }
    }
    Ok(ExploreReport {
        program: transducer.name().to_string(),
        runs_executed,
        heuristic_runs,
        reference: expected,
        reference_quiescent: reference.outcome.quiescent,
        divergence: None,
    })
}

/// Minimize a diverging plan with the compat-proptest shrinker, then
/// replay the minimum with the transition log enabled to capture its
/// output and localize the divergence.
#[allow(clippy::too_many_arguments)]
fn minimize(
    net: &Network,
    transducer: &Transducer,
    partition: &HorizontalPartition,
    strategy: &FaultPlanStrategy,
    plan: FaultPlan,
    seed: u64,
    found_at_run: usize,
    budget: &RunBudget,
    expected: &Relation,
    expected_per_node: &BTreeMap<NodeId, Relation>,
    diverges: &dyn Fn(&rtx_net::ShardRunOutcome) -> bool,
    opts: &ExplorerOptions,
) -> Result<Divergence, NetError> {
    let serial = ShardOptions::serial();
    let (min_plan, _msg, shrink_steps) = if opts.shrink {
        let check = |candidate: &FaultPlan| -> Result<(), TestCaseError> {
            let mut session = FaultSession::new(candidate.clone(), seed);
            match run_sharded_faulted(net, transducer, partition, &serial, budget, &mut session) {
                // An erroring candidate is treated as non-diverging, so
                // shrinking steers away from it.
                Err(_) => Ok(()),
                Ok(out) if diverges(&out) => Err(TestCaseError::fail("diverges")),
                Ok(_) => Ok(()),
            }
        };
        shrink_failure(strategy, plan, TestCaseError::fail("diverges"), check)
    } else {
        (plan, TestCaseError::fail("diverges"), 0)
    };
    let mut session = FaultSession::new(min_plan.clone(), seed);
    let logged = ShardOptions::serial().with_log();
    // Replay the minimum at forced-full trace level: the divergence
    // report embeds the replay's event timeline whatever `RTX_TRACE`
    // says (the capture frame keeps it out of any enclosing trace).
    let (out, trace) = {
        let _full = rtx_obs::trace::level_guard(rtx_obs::TraceLevel::Full);
        rtx_obs::trace::capture_run(|| {
            run_sharded_faulted(net, transducer, partition, &logged, budget, &mut session)
        })
    };
    let out = out?;
    rtx_obs::registry::add("chaos.divergences", 1);
    rtx_obs::registry::add("chaos.shrink_steps", shrink_steps as u64);
    let localization = localize(&out, expected, expected_per_node, opts.per_node);
    Ok(Divergence {
        plan: min_plan,
        seed,
        found_at_run,
        shrink_steps,
        expected: expected.clone(),
        observed: out.outcome.output,
        per_node: opts.per_node,
        localization,
        trace,
    })
}

/// Walk a logged faulted replay and pin down the first point where it
/// departs from the reference outputs (see [`Localization`]).
///
/// Extra facts win over missing ones: the log is scanned in application
/// order, so the first transition emitting a fact the reference never
/// outputs (at that node in per-node mode, anywhere in global mode) is
/// the earliest observable divergence. Only when the faulted outputs
/// are a strict subset of the reference's does the missing-fact case
/// apply, and then no single round "causes" the loss — the whole
/// remaining run fails to derive the fact — so the replay's final round
/// is reported.
fn localize(
    out: &rtx_net::ShardRunOutcome,
    expected: &Relation,
    expected_per_node: &BTreeMap<NodeId, Relation>,
    per_node: bool,
) -> Option<Localization> {
    let log = out.log.as_ref()?;
    for rec in log.iter() {
        let allowed = if per_node {
            expected_per_node.get(&rec.node)
        } else {
            Some(expected)
        };
        for t in rec.output.iter() {
            if !allowed.is_some_and(|r| r.contains(t)) {
                return Some(Localization {
                    node: rec.node,
                    fact: t.clone(),
                    extra: true,
                    round: rec.round,
                });
            }
        }
    }
    let last_round = out.rounds as u64;
    if per_node {
        for (node, exp) in expected_per_node {
            let got = out.outcome.outputs_per_node.get(node);
            for t in exp.iter() {
                if !got.is_some_and(|r| r.contains(t)) {
                    return Some(Localization {
                        node: *node,
                        fact: t.clone(),
                        extra: false,
                        round: last_round,
                    });
                }
            }
        }
    } else {
        for t in expected.iter() {
            if !out.outcome.output.contains(t) {
                // Pin the loss on the node that derives the fact in the
                // fault-free run (ties broken by node order).
                let node = expected_per_node
                    .iter()
                    .find(|(_, r)| r.contains(t))
                    .map(|(n, _)| *n)?;
                return Some(Localization {
                    node,
                    fact: t.clone(),
                    extra: false,
                    round: last_round,
                });
            }
        }
    }
    None
}

/// The classifier's verdict cross-validated against the explorer.
#[derive(Clone, Debug)]
pub struct CalmCrossCheck {
    /// The syntactic CALM classification of the transducer.
    pub classification: Classification,
    /// The explorer's empirical report.
    pub report: ExploreReport,
}

impl CalmCrossCheck {
    /// Does the empirical evidence agree with the classifier?
    /// Syntactic monotonicity is sound for coordination-freeness
    /// (Theorem 12), so `monotone ⟹ no fair-adversary divergence`; a
    /// violation refutes the classifier (or the fault layer). The
    /// converse direction is not checked — non-monotone programs may
    /// still be consistent (the classifier is conservative).
    pub fn agrees(&self) -> bool {
        !self.classification.monotone || self.report.consistent()
    }
}

/// Classify `transducer` syntactically and stress the verdict with the
/// explorer under a **fair** adversary (whatever `opts.adversary`
/// says — the theorems only speak about fair runs).
pub fn cross_validate(
    net: &Network,
    transducer: &Transducer,
    partition: &HorizontalPartition,
    opts: &ExplorerOptions,
) -> Result<CalmCrossCheck, NetError> {
    let fair = opts.clone().with_adversary(Adversary::Fair);
    Ok(CalmCrossCheck {
        classification: Classification::of(transducer),
        report: explore(net, transducer, partition, &fair)?,
    })
}

/// A diverging pair of Dedalus async schedules.
#[derive(Clone, Debug)]
pub struct DedalusDivergence {
    /// The minimized async fault plan.
    pub plan: AsyncFaultPlan,
    /// The run index at which the divergence surfaced.
    pub found_at_run: usize,
    /// Shrinking steps accepted while minimizing.
    pub shrink_steps: usize,
    /// Did the diverging run converge at all?
    pub converged: bool,
}

/// The explorer's verdict for a Dedalus program.
#[derive(Clone, Debug)]
pub struct DedalusExploreReport {
    /// Runs executed (stops at the first divergence).
    pub runs_executed: usize,
    /// Did the reference run converge?
    pub reference_converged: bool,
    /// The reference run's limit database.
    pub reference: Instance,
    /// The minimized divergence, when found.
    pub divergence: Option<DedalusDivergence>,
}

impl DedalusExploreReport {
    /// No divergence found.
    pub fn consistent(&self) -> bool {
        self.divergence.is_none()
    }
}

/// Probe the eventual consistency of a Dedalus program over `runs`
/// adversarial async schedules: each run replaces the plain delay draw
/// with a seeded [`AsyncFaultPlan`] (reseeded, widened, duplicating)
/// and compares the converged limit database against the reference
/// run's. Divergences are minimized with the same shrinker.
///
/// Limits are compared **modulo in-flight messages**: facts whose
/// predicate heads an async rule are ephemeral channel state (a
/// duplicated delivery can land in the tick the database happens to
/// stabilize at), so the observable outcome is the limit restricted to
/// everything else.
pub fn explore_dedalus(
    program: &DedalusProgram,
    edb: &TemporalFacts,
    base: &DedalusOptions,
    opts: &ExplorerOptions,
) -> Result<DedalusExploreReport, EvalError> {
    use rtx_dedalus::DTime;
    let channels: std::collections::BTreeSet<rtx_relational::RelName> = program
        .rules_with(DTime::Async)
        .map(|r| r.head().pred.clone())
        .collect();
    let observable = |db: &Instance| -> Vec<rtx_relational::Fact> {
        db.facts().filter(|f| !channels.contains(f.rel())).collect()
    };
    let runtime = DedalusRuntime::new(program)?;
    let reference = runtime.run(edb, base)?;
    let ref_converged = reference.converged();
    let ref_db = reference.last().clone();
    let ref_observable = observable(&ref_db);
    let strategy = AsyncPlanStrategy {
        max_extra: opts.max_hold,
    };
    let agrees = |plan: &AsyncFaultPlan| -> Result<bool, EvalError> {
        let run_opts = DedalusOptions {
            async_faults: Some(*plan),
            ..base.clone()
        };
        let trace = runtime.run(edb, &run_opts)?;
        Ok(trace.converged() == ref_converged
            && (!ref_converged || observable(trace.last()) == ref_observable))
    };
    let mut runs_executed = 0usize;
    for i in 0..opts.runs {
        let mut rng = StdRng::seed_from_u64(mix(&[opts.seed, i as u64, 0xDEDA]));
        let plan = strategy.generate(&mut rng);
        runs_executed += 1;
        if !agrees(&plan)? {
            let (min_plan, _msg, shrink_steps) = if opts.shrink {
                let check = |candidate: &AsyncFaultPlan| -> Result<(), TestCaseError> {
                    match agrees(candidate) {
                        Err(_) | Ok(true) => Ok(()),
                        Ok(false) => Err(TestCaseError::fail("diverges")),
                    }
                };
                shrink_failure(&strategy, plan, TestCaseError::fail("diverges"), check)
            } else {
                (plan, TestCaseError::fail("diverges"), 0)
            };
            let run_opts = DedalusOptions {
                async_faults: Some(min_plan),
                ..base.clone()
            };
            let converged = runtime.run(edb, &run_opts)?.converged();
            return Ok(DedalusExploreReport {
                runs_executed,
                reference_converged: ref_converged,
                reference: ref_db,
                divergence: Some(DedalusDivergence {
                    plan: min_plan,
                    found_at_run: i,
                    shrink_steps,
                    converged,
                }),
            });
        }
    }
    Ok(DedalusExploreReport {
        runs_executed,
        reference_converged: ref_converged,
        reference: ref_db,
        divergence: None,
    })
}
