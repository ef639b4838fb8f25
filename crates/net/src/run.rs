//! Run drivers and schedulers.
//!
//! The paper's runs are infinite fair sequences of heartbeat and delivery
//! transitions; their *output* reaches a quiescence point after finitely
//! many steps (Proposition 1). The driver executes a finite prefix: it
//! follows a pluggable [`Scheduler`] while messages are in flight, probes
//! for stability when all buffers are empty, and stops at quiescence, at
//! a target output, or at the step budget.

use crate::config::{Configuration, TransitionRecord};
use crate::error::NetError;
use crate::partition::HorizontalPartition;
use crate::topology::{Network, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtx_relational::Relation;
use rtx_transducer::Transducer;
use std::collections::{BTreeMap, VecDeque};

/// One schedulable global transition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Action {
    /// Heartbeat at a node.
    Heartbeat(NodeId),
    /// Deliver the buffered fact at the given index of a node's buffer.
    Deliver(NodeId, usize),
}

/// Chooses the next transition. The driver only consults the scheduler
/// while at least one buffer is nonempty; all-empty configurations are
/// handled by deterministic stability rounds.
pub trait Scheduler {
    /// Pick the next action for the configuration.
    fn next_action(&mut self, cfg: &Configuration, net: &Network) -> Action;

    /// Diagnostic name.
    fn name(&self) -> &'static str;
}

/// Round-based FIFO scheduler: each round heartbeats every node once,
/// then delivers the *oldest* buffered fact at every node that has mail.
///
/// This realizes the FIFO-buffer, round-synchronous runs used in the
/// proof of Theorem 16.
#[derive(Debug, Default)]
pub struct FifoRoundRobin {
    pending: VecDeque<PlannedAction>,
    rounds: usize,
}

#[derive(Debug, Clone)]
enum PlannedAction {
    Heartbeat(NodeId),
    DeliverOldest(NodeId),
    DeliverNewest(NodeId),
}

impl FifoRoundRobin {
    /// New FIFO round-robin scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of *completed* scheduling rounds: a round is counted only
    /// once every action planned for it has been consumed — returned to
    /// the driver or skipped because its target buffer was empty. After
    /// the first action of a fresh round this still reports the previous
    /// total, and a round cut short by a step budget is not counted.
    pub fn rounds(&self) -> usize {
        self.rounds
    }
}

/// Shared round-robin drain loop: pop planned actions, skipping
/// deliveries whose buffer is empty, replanning via `plan` when the
/// queue runs dry, and crediting `rounds` exactly when the last planned
/// action of a round is consumed.
fn drain_round_robin(
    pending: &mut VecDeque<PlannedAction>,
    rounds: &mut usize,
    cfg: &Configuration,
    plan: impl Fn(&mut VecDeque<PlannedAction>),
) -> Action {
    loop {
        let planned = match pending.pop_front() {
            Some(p) => p,
            None => {
                plan(pending);
                continue;
            }
        };
        let round_done = pending.is_empty();
        let action = match planned {
            PlannedAction::Heartbeat(n) => Some(Action::Heartbeat(n)),
            PlannedAction::DeliverOldest(n) => {
                (!cfg.buffer(&n).is_empty()).then_some(Action::Deliver(n, 0))
            }
            PlannedAction::DeliverNewest(n) => {
                let len = cfg.buffer(&n).len();
                (len > 0).then(|| Action::Deliver(n, len - 1))
            }
        };
        if round_done {
            *rounds += 1;
        }
        if let Some(a) = action {
            return a;
        }
    }
}

impl Scheduler for FifoRoundRobin {
    fn next_action(&mut self, cfg: &Configuration, net: &Network) -> Action {
        drain_round_robin(&mut self.pending, &mut self.rounds, cfg, |pending| {
            for n in net.nodes() {
                pending.push_back(PlannedAction::Heartbeat(*n));
            }
            for n in net.nodes() {
                pending.push_back(PlannedAction::DeliverOldest(*n));
            }
        })
    }

    fn name(&self) -> &'static str {
        "fifo-round-robin"
    }
}

/// Like [`FifoRoundRobin`] but delivers the *newest* buffered fact —
/// an adversarial ordering that exhibits the non-FIFO behaviour the
/// paper explicitly allows ("messages are not necessarily received in
/// the order they have been sent").
#[derive(Debug, Default)]
pub struct LifoRoundRobin {
    pending: VecDeque<PlannedAction>,
    rounds: usize,
}

impl LifoRoundRobin {
    /// New LIFO round-robin scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of *completed* scheduling rounds, with the same
    /// consumed-not-planned semantics as [`FifoRoundRobin::rounds`].
    pub fn rounds(&self) -> usize {
        self.rounds
    }
}

impl Scheduler for LifoRoundRobin {
    fn next_action(&mut self, cfg: &Configuration, net: &Network) -> Action {
        drain_round_robin(&mut self.pending, &mut self.rounds, cfg, |pending| {
            for n in net.nodes() {
                pending.push_back(PlannedAction::Heartbeat(*n));
            }
            for n in net.nodes() {
                pending.push_back(PlannedAction::DeliverNewest(*n));
            }
        })
    }

    fn name(&self) -> &'static str {
        "lifo-round-robin"
    }
}

/// Seeded random scheduler: picks a random node; delivers a uniformly
/// random buffered fact with high probability, heartbeats otherwise.
/// Statistically fair — every buffered fact is eventually delivered with
/// probability 1, and every node heartbeats infinitely often.
///
/// Fairness is enforced, not merely probable: the heartbeat probability
/// is clamped strictly below 1 (see [`RandomScheduler::MAX_HEARTBEAT_PROB`]),
/// and after [`RandomScheduler::MAX_HEARTBEAT_RUN`] consecutive heartbeat
/// picks while mail is buffered the scheduler forces a delivery. At the
/// default probability the backstop is statistically unreachable, so
/// seeded runs are unchanged; near the boundary it bounds the time until
/// any buffered fact is delivered.
#[derive(Debug)]
pub struct RandomScheduler {
    rng: StdRng,
    heartbeat_prob: f64,
    consecutive_heartbeats: u32,
}

impl RandomScheduler {
    /// Upper clamp for [`Self::with_heartbeat_prob`]. Exactly 1.0 would
    /// make `next_action` heartbeat forever while mail is buffered, so
    /// the driver would spin until `max_steps` without ever delivering —
    /// precisely the unfair schedule the paper's runs exclude.
    pub const MAX_HEARTBEAT_PROB: f64 = 0.999_999;

    /// Deterministic fairness backstop: after this many consecutive
    /// heartbeat picks with mail buffered, the next pick is a delivery.
    pub const MAX_HEARTBEAT_RUN: u32 = 512;

    /// New random scheduler from a seed.
    pub fn seeded(seed: u64) -> Self {
        RandomScheduler {
            rng: StdRng::seed_from_u64(seed),
            heartbeat_prob: 0.25,
            consecutive_heartbeats: 0,
        }
    }

    /// Adjust the heartbeat probability.
    ///
    /// The value is clamped to `[0.0, Self::MAX_HEARTBEAT_PROB]` —
    /// strictly below 1, so that a delivery always has positive
    /// probability; together with the [`Self::MAX_HEARTBEAT_RUN`]
    /// backstop this guarantees buffers drain within a bounded number
    /// of steps even for `with_heartbeat_prob(1.0)`.
    pub fn with_heartbeat_prob(mut self, p: f64) -> Self {
        self.heartbeat_prob = p.clamp(0.0, Self::MAX_HEARTBEAT_PROB);
        self
    }
}

impl Scheduler for RandomScheduler {
    fn next_action(&mut self, cfg: &Configuration, net: &Network) -> Action {
        let nodes: Vec<&NodeId> = net.nodes().collect();
        // The forced-delivery check precedes the RNG draw so that on the
        // non-degenerate path the draw sequence (and thus every existing
        // seeded run) is unchanged.
        let force_delivery = self.consecutive_heartbeats >= Self::MAX_HEARTBEAT_RUN;
        if !force_delivery && self.rng.gen_bool(self.heartbeat_prob) {
            self.consecutive_heartbeats += 1;
            let n = nodes[self.rng.gen_range(0..nodes.len())];
            return Action::Heartbeat(*n);
        }
        let with_mail: Vec<&NodeId> = cfg.nodes_with_mail().collect();
        if with_mail.is_empty() {
            // No starvation possible without mail (the driver only
            // consults schedulers while some buffer is nonempty).
            self.consecutive_heartbeats = 0;
            let n = nodes[self.rng.gen_range(0..nodes.len())];
            return Action::Heartbeat(*n);
        }
        self.consecutive_heartbeats = 0;
        let n = with_mail[self.rng.gen_range(0..with_mail.len())];
        let idx = self.rng.gen_range(0..cfg.buffer(n).len());
        Action::Deliver(*n, idx)
    }

    fn name(&self) -> &'static str {
        "random"
    }
}

/// Stop conditions and budgets for a run.
#[derive(Clone, Debug)]
pub struct RunBudget {
    /// Maximum number of global transitions.
    pub max_steps: usize,
    /// Stop early once the accumulated global output equals this relation
    /// (used to drive paper-faithful but non-draining transducers, whose
    /// buffers never empty although the output quiesces).
    ///
    /// An **empty** target is ignored: the initial output trivially equals
    /// it, so an empty expected answer can only be certified by reaching
    /// quiescence. Note also that outputs accumulate monotonically, so a
    /// run that would eventually *overshoot* the target passes through it;
    /// treat `reached_target` as "produced exactly the target so far".
    pub target_output: Option<Relation>,
}

impl RunBudget {
    /// A budget with the given step cap and no output target.
    pub fn steps(max_steps: usize) -> Self {
        RunBudget {
            max_steps,
            target_output: None,
        }
    }

    /// Add an output target.
    pub fn until_output(mut self, target: Relation) -> Self {
        self.target_output = Some(target);
        self
    }
}

impl Default for RunBudget {
    fn default() -> Self {
        RunBudget::steps(100_000)
    }
}

/// The observable result of a (finite prefix of a) run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Global accumulated output `out(ρ)` = union over all transitions.
    pub output: Relation,
    /// Output accumulated per node.
    pub outputs_per_node: BTreeMap<NodeId, Relation>,
    /// Total global transitions executed.
    pub steps: usize,
    /// Heartbeat transitions executed.
    pub heartbeats: usize,
    /// Delivery transitions executed.
    pub deliveries: usize,
    /// Total facts sent (a fact sent to `d` neighbors counts `d` times).
    pub messages_enqueued: usize,
    /// Did the run reach quiescence (all buffers empty, every heartbeat a
    /// no-op)?
    pub quiescent: bool,
    /// Did the run reach the requested target output?
    pub reached_target: bool,
    /// The final configuration.
    pub final_config: Configuration,
}

impl RunOutcome {
    /// Publish this run's counters into the global metrics registry
    /// (`net.*`), under the same names the round executors use — one
    /// schema for every driver (see `rtx_obs`).
    pub fn publish(&self) {
        if !rtx_obs::counting() {
            return;
        }
        rtx_obs::registry::add("net.runs", 1);
        rtx_obs::registry::add("net.steps", self.steps as u64);
        rtx_obs::registry::add("net.heartbeats", self.heartbeats as u64);
        rtx_obs::registry::add("net.deliveries", self.deliveries as u64);
        rtx_obs::registry::add("net.messages_enqueued", self.messages_enqueued as u64);
        if self.quiescent {
            rtx_obs::registry::add("net.quiescent_runs", 1);
        }
    }
}

/// Absorb `out`, one transition's output, into the run's output `run`
/// and, where the executor keeps one, the node's accumulator `node`;
/// `true` when `run` grew. Every node's accumulator is a subset of the
/// run's output, so only `fresh = out ∖ node` can be new to the run.
/// When it is empty — a node outputting what it output before — nothing
/// grows and `run` is not read; otherwise only `fresh` is probed against
/// `run`. [`Relation::difference`] skips the levels of `out` that `node`
/// shares by handle, so a transition costs what it added.
///
/// An accumulator that the union leaves equal to `out` takes `out`'s
/// handle, which counts decide (see `grow`); any other takes the rows it
/// lacks.
pub(crate) fn absorb_output(
    run: &mut Relation,
    node: Option<&mut Relation>,
    out: &Relation,
) -> Result<bool, NetError> {
    if out.is_empty() {
        return Ok(false);
    }
    let owned;
    let fresh = match node {
        Some(node) => {
            owned = out.difference(node).map_err(NetError::Rel)?;
            if owned.is_empty() {
                return Ok(false);
            }
            grow(node, &owned, out)?;
            &owned
        }
        None => out,
    };
    let new = fresh.difference(run).map_err(NetError::Rel)?;
    if new.is_empty() {
        return Ok(false);
    }
    grow(run, &new, out)?;
    Ok(true)
}

/// `acc ∪= out`, given `rows = out ∖ acc`. `acc ⊆ out` exactly when
/// `|acc| + |rows| = |out|`, and then `acc` takes `out`'s handle;
/// otherwise it absorbs `rows`, which it holds none of.
fn grow(acc: &mut Relation, rows: &Relation, out: &Relation) -> Result<(), NetError> {
    if acc.len() + rows.len() == out.len() {
        *acc = out.clone();
    } else {
        acc.absorb_fresh_rows(rows).map_err(NetError::Rel)?;
    }
    Ok(())
}

/// The output accumulators' invariant, checked in debug builds when a
/// run ends: the run's output is the union of the nodes' outputs.
pub(crate) fn check_outputs<'a>(run: &Relation, per_node: impl IntoIterator<Item = &'a Relation>) {
    if !cfg!(debug_assertions) {
        return;
    }
    let mut union = Relation::empty(run.arity());
    for out in per_node {
        union = union
            .union(out)
            .unwrap_or_else(|e| panic!("a node's output: {e}"));
    }
    assert!(
        union == *run,
        "the run's output is not the union of the nodes' outputs"
    );
}

/// Drive a run of `(net, transducer)` from the initial configuration for
/// `partition`, following `scheduler`.
pub fn run(
    net: &Network,
    transducer: &Transducer,
    partition: &HorizontalPartition,
    scheduler: &mut dyn Scheduler,
    budget: &RunBudget,
) -> Result<RunOutcome, NetError> {
    let cfg = Configuration::initial(net, transducer, partition)?;
    run_from(net, transducer, cfg, scheduler, budget)
}

/// Drive a run from an explicit starting configuration.
pub fn run_from(
    net: &Network,
    transducer: &Transducer,
    mut cfg: Configuration,
    scheduler: &mut dyn Scheduler,
    budget: &RunBudget,
) -> Result<RunOutcome, NetError> {
    cfg.check_network(net)?;
    let t0 = rtx_obs::counting().then(std::time::Instant::now);
    let arity = transducer.schema().output_arity();
    // Each node's accumulated output, by network index.
    let mut outputs_per_node: Vec<Relation> = vec![Relation::empty(arity); net.len()];
    let mut output = Relation::empty(arity);
    let initial_buffered = cfg.buffered_total();
    let mut steps = 0usize;
    let mut heartbeats = 0usize;
    let mut deliveries = 0usize;
    let mut messages_enqueued = 0usize;
    let mut quiescent = false;
    let mut reached_target = false;

    // Returns whether the global output grew.
    let absorb = |rec: &TransitionRecord,
                  output: &mut Relation,
                  outputs_per_node: &mut [Relation]|
     -> Result<bool, NetError> {
        let node = net.index_of(&rec.node).map(|i| &mut outputs_per_node[i]);
        absorb_output(output, node, &rec.output)
    };
    // Message conservation, checked in debug builds after every step:
    // each copy buffered at the start or enqueued since was delivered
    // or is still buffered.
    let conserved = |cfg: &Configuration, enqueued: usize, delivered: usize| {
        debug_assert_eq!(
            initial_buffered + enqueued,
            delivered + cfg.buffered_total(),
            "messages are not conserved (initial + enqueued vs delivered + buffered)"
        );
    };

    'outer: while steps < budget.max_steps {
        if let Some(target) = &budget.target_output {
            if !target.is_empty() && &output == target {
                reached_target = true;
                break;
            }
        }
        if cfg.all_buffers_empty() {
            // Stability round: heartbeat every node once. If the whole
            // round is a no-op (and produced no new output), the
            // configuration repeats forever: quiescence.
            let mut all_quiet = true;
            for n in net.nodes() {
                if steps >= budget.max_steps {
                    break 'outer;
                }
                let rec = cfg.apply_heartbeat(net, transducer, n)?;
                steps += 1;
                heartbeats += 1;
                messages_enqueued += rec.enqueued;
                conserved(&cfg, messages_enqueued, deliveries);
                let new_out = absorb(&rec, &mut output, &mut outputs_per_node)?;
                if rec.state_changed || rec.sent_facts > 0 || new_out {
                    all_quiet = false;
                }
            }
            if all_quiet {
                quiescent = true;
                break;
            }
            continue;
        }
        let action = scheduler.next_action(&cfg, net);
        let rec = match action {
            Action::Heartbeat(n) => {
                heartbeats += 1;
                cfg.apply_heartbeat(net, transducer, &n)?
            }
            Action::Deliver(n, idx) => {
                deliveries += 1;
                cfg.apply_delivery(net, transducer, &n, idx)?
            }
        };
        steps += 1;
        messages_enqueued += rec.enqueued;
        conserved(&cfg, messages_enqueued, deliveries);
        absorb(&rec, &mut output, &mut outputs_per_node)?;
    }

    if let Some(target) = &budget.target_output {
        if &output == target && (quiescent || !target.is_empty()) {
            reached_target = true;
        }
    }

    check_outputs(&output, &outputs_per_node);
    let out = RunOutcome {
        output,
        outputs_per_node: net.nodes().copied().zip(outputs_per_node).collect(),
        steps,
        heartbeats,
        deliveries,
        messages_enqueued,
        quiescent,
        reached_target,
        final_config: cfg,
    };
    if let Some(t0) = t0 {
        out.publish();
        rtx_obs::registry::record("net.run_ns", t0.elapsed().as_nanos() as u64);
    }
    Ok(out)
}

/// Outcome of a heartbeat-only run (the coordination-freeness probe).
#[derive(Clone, Debug)]
pub struct HeartbeatOnlyOutcome {
    /// Accumulated output.
    pub output: Relation,
    /// Rounds executed (each round heartbeats every node once).
    pub rounds: usize,
    /// Whether a global heartbeat fixpoint was reached. Note: facts may
    /// have been *sent* (they pile up in buffers and are never delivered);
    /// quiescence of the *output* is what the definition asks for.
    pub fixpoint: bool,
    /// Final configuration (with possibly nonempty buffers).
    pub final_config: Configuration,
}

/// Run only heartbeat transitions, round-robin, until the output and
/// all states stabilize or `max_rounds` is hit.
///
/// This implements the paper's coordination-freeness probe: "a run in
/// which a quiescence point is reached by only performing heartbeat
/// transitions". Messages may be sent — they are simply never delivered
/// within the probe (a legal run prefix: delivery is merely postponed).
pub fn run_heartbeats_only(
    net: &Network,
    transducer: &Transducer,
    partition: &HorizontalPartition,
    max_rounds: usize,
) -> Result<HeartbeatOnlyOutcome, NetError> {
    let mut cfg = Configuration::initial(net, transducer, partition)?;
    let arity = transducer.schema().output_arity();
    let mut output = Relation::empty(arity);
    for round in 0..max_rounds {
        let mut quiet = true;
        for n in net.nodes() {
            let rec = cfg.apply_heartbeat(net, transducer, n)?;
            let new_out = absorb_output(&mut output, None, &rec.output)?;
            if rec.state_changed || new_out {
                quiet = false;
            }
            // sends do not break the fixpoint: the probe never delivers,
            // and resending the same messages does not change any state.
        }
        if quiet {
            return Ok(HeartbeatOnlyOutcome {
                output,
                rounds: round + 1,
                fixpoint: true,
                final_config: cfg,
            });
        }
    }
    Ok(HeartbeatOnlyOutcome {
        output,
        rounds: max_rounds,
        fixpoint: false,
        final_config: cfg,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtx_query::{atom, CqBuilder, QueryRef, Term, UcqQuery};
    use rtx_relational::{fact, tuple, Fact, Instance, Schema};
    use rtx_transducer::TransducerBuilder;
    use std::sync::Arc;

    fn cq(rule: rtx_query::Rule) -> QueryRef {
        Arc::new(UcqQuery::single(rule))
    }

    /// `cfg` with `fact` appended to the buffer of `node`.
    fn with_mail(cfg: Configuration, node: &str, fact: Fact) -> Configuration {
        let node = rtx_relational::Value::sym(node);
        Configuration::from_parts(cfg.into_parts().into_iter().map(|(n, st, mut buf)| {
            if n == node {
                buf.push(fact.clone());
            }
            (n, st, buf)
        }))
    }

    /// Deduplicating flooder: sends unseen S/M facts, stores everything
    /// in T, outputs T. Terminates (buffers drain) on every topology.
    fn dedup_flooder() -> Transducer {
        let send = rtx_query::UcqQuery::new(
            1,
            vec![
                CqBuilder::head(vec![Term::var("X")])
                    .when(atom!("S"; @"X"))
                    .unless(atom!("T"; @"X"))
                    .build()
                    .unwrap(),
                CqBuilder::head(vec![Term::var("X")])
                    .when(atom!("M"; @"X"))
                    .unless(atom!("T"; @"X"))
                    .build()
                    .unwrap(),
            ],
        )
        .unwrap();
        let store = rtx_query::UcqQuery::new(
            1,
            vec![
                CqBuilder::head(vec![Term::var("X")])
                    .when(atom!("S"; @"X"))
                    .build()
                    .unwrap(),
                CqBuilder::head(vec![Term::var("X")])
                    .when(atom!("M"; @"X"))
                    .build()
                    .unwrap(),
            ],
        )
        .unwrap();
        TransducerBuilder::new("dedup-flooder")
            .input_relation("S", 1)
            .message_relation("M", 1)
            .memory_relation("T", 1)
            .output_arity(1)
            .send("M", Arc::new(send))
            .insert("T", Arc::new(store))
            .output(cq(CqBuilder::head(vec![Term::var("X")])
                .when(atom!("T"; @"X"))
                .build()
                .unwrap()))
            .build()
            .unwrap()
    }

    fn input_s(vals: &[i64]) -> Instance {
        Instance::from_facts(
            Schema::new().with("S", 1),
            vals.iter().map(|&v| fact!("S", v)).collect::<Vec<_>>(),
        )
        .unwrap()
    }

    #[test]
    fn run_from_rejects_a_configuration_for_another_network() {
        let t = dedup_flooder();
        let full = input_s(&[1, 2, 3]);
        let line2 = Network::line(2).unwrap();
        let line3 = Network::line(3).unwrap();
        let initial = |net: &Network| {
            let p = HorizontalPartition::round_robin(net, &full);
            Configuration::initial(net, &t, &p).unwrap()
        };
        // A smaller configuration would leave n2 without a buffer; a
        // larger one would never schedule its extra node.
        for (net, cfg_net) in [(&line3, &line2), (&line2, &line3)] {
            let mut sched = FifoRoundRobin::new();
            let budget = RunBudget::steps(10_000);
            let err = run_from(net, &t, initial(cfg_net), &mut sched, &budget).unwrap_err();
            assert!(matches!(err, NetError::Topology(_)), "{err:?}");
        }
    }

    #[test]
    fn flooding_reaches_quiescence_on_line() {
        let net = Network::line(4).unwrap();
        let t = dedup_flooder();
        let full = input_s(&[1, 2, 3]);
        let p = HorizontalPartition::round_robin(&net, &full);
        let mut sched = FifoRoundRobin::new();
        let out = run(&net, &t, &p, &mut sched, &RunBudget::steps(10_000)).unwrap();
        assert!(out.quiescent, "dedup flooding must quiesce");
        assert_eq!(out.output.len(), 3);
        // every node ends with the full set
        for per in out.outputs_per_node.values() {
            assert_eq!(per.len(), 3);
        }
        assert!(out.deliveries > 0);
        assert!(out.messages_enqueued > 0);
    }

    #[test]
    fn schedulers_agree_on_consistent_transducer() {
        let net = Network::ring(5).unwrap();
        let t = dedup_flooder();
        let full = input_s(&[10, 20, 30, 40]);
        let p = HorizontalPartition::round_robin(&net, &full);
        let budget = RunBudget::steps(50_000);
        let fifo = run(&net, &t, &p, &mut FifoRoundRobin::new(), &budget).unwrap();
        let lifo = run(&net, &t, &p, &mut LifoRoundRobin::new(), &budget).unwrap();
        let rand1 = run(&net, &t, &p, &mut RandomScheduler::seeded(42), &budget).unwrap();
        let rand2 = run(&net, &t, &p, &mut RandomScheduler::seeded(1337), &budget).unwrap();
        assert_eq!(fifo.output, lifo.output);
        assert_eq!(fifo.output, rand1.output);
        assert_eq!(fifo.output, rand2.output);
        assert!(fifo.quiescent && lifo.quiescent && rand1.quiescent && rand2.quiescent);
    }

    #[test]
    fn runs_are_reproducible_per_seed() {
        let net = Network::star(4).unwrap();
        let t = dedup_flooder();
        let full = input_s(&[1, 2]);
        let p = HorizontalPartition::round_robin(&net, &full);
        let budget = RunBudget::default();
        let a = run(&net, &t, &p, &mut RandomScheduler::seeded(7), &budget).unwrap();
        let b = run(&net, &t, &p, &mut RandomScheduler::seeded(7), &budget).unwrap();
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.messages_enqueued, b.messages_enqueued);
        assert_eq!(a.output, b.output);
    }

    #[test]
    fn target_output_stops_early() {
        let net = Network::line(3).unwrap();
        let t = dedup_flooder();
        let full = input_s(&[5]);
        let p = HorizontalPartition::concentrate(&net, &full, &rtx_relational::Value::sym("n0"))
            .unwrap();
        let target = Relation::from_tuples(1, vec![tuple![5]]).unwrap();
        let budget = RunBudget::steps(10_000).until_output(target);
        let out = run(&net, &t, &p, &mut FifoRoundRobin::new(), &budget).unwrap();
        assert!(out.reached_target);
    }

    #[test]
    fn budget_exhaustion_reports_non_quiescent() {
        let net = Network::line(3).unwrap();
        let t = dedup_flooder();
        let full = input_s(&[1, 2, 3, 4]);
        let p = HorizontalPartition::round_robin(&net, &full);
        let out = run(
            &net,
            &t,
            &p,
            &mut FifoRoundRobin::new(),
            &RunBudget::steps(3),
        )
        .unwrap();
        assert!(!out.quiescent);
        assert_eq!(out.steps, 3);
    }

    #[test]
    fn heartbeat_only_probe_with_full_replication() {
        // with the full input everywhere, the dedup flooder outputs
        // everything in round 1 without any delivery
        let net = Network::ring(4).unwrap();
        let t = dedup_flooder();
        let full = input_s(&[1, 2]);
        let p = HorizontalPartition::replicate(&net, &full);
        let probe = run_heartbeats_only(&net, &t, &p, 50).unwrap();
        assert!(probe.fixpoint);
        assert_eq!(probe.output.len(), 2);
    }

    #[test]
    fn heartbeat_only_probe_fails_on_concentrated_partition() {
        let net = Network::line(3).unwrap();
        let t = dedup_flooder();
        let full = input_s(&[1, 2]);
        let p = HorizontalPartition::concentrate(&net, &full, &rtx_relational::Value::sym("n0"))
            .unwrap();
        let probe = run_heartbeats_only(&net, &t, &p, 50).unwrap();
        // only n0's own facts are output; others never hear of them
        assert!(probe.fixpoint);
        assert_eq!(probe.output.len(), 2); // n0 outputs its own copy
                                           // (output is global union; n1, n2 output nothing)
        let n2 = rtx_relational::Value::sym("n2");
        let st = probe.final_config.state(&n2).unwrap();
        assert!(st.relation(&"T".into()).unwrap().is_empty());
    }

    #[test]
    fn single_node_network_only_heartbeats() {
        let net = Network::single();
        let t = dedup_flooder();
        let full = input_s(&[1, 2]);
        let p = HorizontalPartition::replicate(&net, &full);
        let out = run(
            &net,
            &t,
            &p,
            &mut FifoRoundRobin::new(),
            &RunBudget::default(),
        )
        .unwrap();
        assert!(out.quiescent);
        assert_eq!(out.deliveries, 0);
        assert_eq!(out.output.len(), 2);
    }

    /// Regression: `rounds()` used to increment when a round was
    /// *planned*, reporting 1 immediately after the first action of the
    /// run. It must report a round only once all its planned actions
    /// have been consumed (returned or skipped).
    #[test]
    fn fifo_rounds_count_consumed_rounds_only() {
        let net = Network::line(3).unwrap();
        let t = dedup_flooder();
        let p = HorizontalPartition::round_robin(&net, &input_s(&[]));
        // one buffered fact at n1; never applied, so the plan's skip
        // logic sees a stable configuration
        let cfg = with_mail(
            Configuration::initial(&net, &t, &p).unwrap(),
            "n1",
            fact!("M", 7),
        );
        let mut sched = FifoRoundRobin::new();
        // round plan: HB n0, n1, n2 then DeliverOldest n0 (skip), n1, n2 (skip)
        for expected_rounds in [0usize, 0, 0] {
            assert!(matches!(
                sched.next_action(&cfg, &net),
                Action::Heartbeat(_)
            ));
            assert_eq!(sched.rounds(), expected_rounds);
        }
        // the delivery at n1 consumes the skipped n0 entry but leaves n2
        // planned: the round is not yet complete
        assert!(matches!(
            sched.next_action(&cfg, &net),
            Action::Deliver(_, 0)
        ));
        assert_eq!(sched.rounds(), 0);
        // the next call drains the skipped n2 entry (completing round 1)
        // and starts round 2
        assert!(matches!(
            sched.next_action(&cfg, &net),
            Action::Heartbeat(_)
        ));
        assert_eq!(sched.rounds(), 1);
    }

    /// Regression companion: a run interrupted by its step budget in the
    /// middle of a round must not count the partial round.
    #[test]
    fn fifo_rounds_not_counted_on_interrupted_budget() {
        let net = Network::line(3).unwrap();
        let t = dedup_flooder();
        let p = HorizontalPartition::round_robin(&net, &input_s(&[]));
        let cfg = with_mail(
            Configuration::initial(&net, &t, &p).unwrap(),
            "n1",
            fact!("M", 7),
        );
        let mut sched = FifoRoundRobin::new();
        let out = run_from(&net, &t, cfg, &mut sched, &RunBudget::steps(2)).unwrap();
        assert_eq!(out.steps, 2);
        assert_eq!(sched.rounds(), 0, "partial rounds must not be counted");
    }

    #[test]
    fn lifo_rounds_counter_matches_fifo_semantics() {
        let net = Network::line(2).unwrap();
        let t = dedup_flooder();
        let p = HorizontalPartition::round_robin(&net, &input_s(&[]));
        let cfg = with_mail(
            Configuration::initial(&net, &t, &p).unwrap(),
            "n0",
            fact!("M", 1),
        );
        let mut sched = LifoRoundRobin::new();
        // plan: HB n0, HB n1, DeliverNewest n0, DeliverNewest n1 (skip)
        sched.next_action(&cfg, &net);
        sched.next_action(&cfg, &net);
        assert_eq!(sched.rounds(), 0);
        // delivering at n0 leaves n1 planned; the skip on the *next* call
        // completes the round
        assert!(matches!(
            sched.next_action(&cfg, &net),
            Action::Deliver(_, _)
        ));
        assert_eq!(sched.rounds(), 0);
        sched.next_action(&cfg, &net);
        assert_eq!(sched.rounds(), 1);
    }

    /// Regression: `with_heartbeat_prob(1.0)` used to heartbeat forever
    /// while mail was buffered, spinning until `max_steps`. The clamp +
    /// forced-delivery backstop must drain the dedup flooder within a
    /// modest budget.
    #[test]
    fn heartbeat_prob_one_still_drains() {
        let net = Network::line(4).unwrap();
        let t = dedup_flooder();
        let p = HorizontalPartition::round_robin(&net, &input_s(&[1, 2, 3]));
        let mut sched = RandomScheduler::seeded(9).with_heartbeat_prob(1.0);
        let out = run(&net, &t, &p, &mut sched, &RunBudget::steps(50_000)).unwrap();
        assert!(out.quiescent, "p=1.0 must still drain: {} steps", out.steps);
        assert_eq!(out.output.len(), 3);
        assert!(out.deliveries > 0);
    }

    #[test]
    fn heartbeat_prob_near_one_still_drains() {
        let net = Network::line(4).unwrap();
        let t = dedup_flooder();
        let p = HorizontalPartition::round_robin(&net, &input_s(&[1, 2, 3]));
        let mut sched = RandomScheduler::seeded(11).with_heartbeat_prob(0.999);
        let out = run(&net, &t, &p, &mut sched, &RunBudget::steps(200_000)).unwrap();
        assert!(out.quiescent, "p=0.999 must drain: {} steps", out.steps);
        assert_eq!(out.output.len(), 3);
    }

    /// The output accumulator against `BTreeSet` models: random call
    /// sequences over 3 nodes (and calls that keep no node accumulator,
    /// as the heartbeat probe makes), whose outputs are clones of one
    /// relation that keeps growing (shared levels, then merges), fresh
    /// relations in either regime, relations with removed rows, and
    /// empty ones. After every call both kinds of accumulator and the
    /// returned flag must be the model's.
    #[test]
    fn absorb_output_matches_a_set_model() {
        use rtx_relational::{Run, Tuple};
        use std::collections::BTreeSet;
        let row = |i: i64| tuple![i, i % 5];
        let rel = |rows: &BTreeSet<Tuple>| Relation::from_tuples(2, rows.iter().cloned()).unwrap();
        for seed in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut grower = Relation::from_run(Run::from_sorted(2, [row(0)].iter()));
            let mut next = 0i64;
            let mut run_acc = Relation::empty(2);
            let mut nodes = vec![Relation::empty(2); 3];
            let mut run_model = BTreeSet::new();
            let mut node_models = vec![BTreeSet::new(); 3];
            for call in 0..60 {
                let out = match rng.gen_range(0..5u32) {
                    0 => Relation::empty(2),
                    1 | 2 => {
                        let batch: Vec<Tuple> = (0..rng.gen_range(1..40usize))
                            .map(|_| {
                                next += 1;
                                row(next)
                            })
                            .collect();
                        grower
                            .absorb_fresh(&Run::from_sorted(2, batch.iter()))
                            .unwrap();
                        grower.clone()
                    }
                    3 => {
                        // Small or past the floor, over the grower's rows too.
                        let n = if rng.gen_bool(0.5) { 8 } else { 120 };
                        let rows = (0..n).map(|_| row(rng.gen_range(0..=next + 20)));
                        Relation::from_tuples(2, rows).unwrap()
                    }
                    _ => {
                        let mut out = grower.clone();
                        let gone: BTreeSet<Tuple> =
                            (0..4).map(|_| row(rng.gen_range(0..=next))).collect();
                        out.remove_run(&Run::from_sorted(2, gone.iter())).unwrap();
                        out
                    }
                };
                let k = rng.gen_range(0..4usize);
                let grew = absorb_output(&mut run_acc, nodes.get_mut(k), &out).unwrap();
                // Read after the call: `iter` folds `out`, and a clone of
                // a folded relation holds the fold, not the shared levels.
                let rows: BTreeSet<Tuple> = out.iter().cloned().collect();
                if let Some(model) = node_models.get_mut(k) {
                    model.extend(rows.iter().cloned());
                }
                let before = run_model.len();
                run_model.extend(rows);
                let at = format!("seed {seed}, call {call}, node {k}");
                assert_eq!(grew, run_model.len() > before, "{at}: the flag");
                assert!(run_acc == rel(&run_model), "{at}: the run's output");
                for (i, (acc, model)) in nodes.iter().zip(&node_models).enumerate() {
                    assert!(*acc == rel(model), "{at}: node {i}'s output");
                }
            }
        }
    }

    #[test]
    fn scheduler_names() {
        assert_eq!(FifoRoundRobin::new().name(), "fifo-round-robin");
        assert_eq!(LifoRoundRobin::new().name(), "lifo-round-robin");
        assert_eq!(RandomScheduler::seeded(1).name(), "random");
    }
}
