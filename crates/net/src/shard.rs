//! Round-based network execution: one coordinator, two schedules.
//!
//! The paper's runs interleave heartbeat and delivery transitions one at
//! a time; [`crate::run`] realizes that faithfully but steps a single
//! node per global transition, so nothing exploits multicore. This
//! module runs the network in **rounds**, whose unit of parallelism is a
//! phase:
//!
//! 1. **Fault phase** (under a [`FaultHook`] only) — the coordinator
//!    releases matured in-flight copies, resolves every node's status
//!    and runs restart wipes. None of this is a paper transition.
//! 2. **Heartbeat phase** — the scheduled up nodes perform a heartbeat
//!    transition. A heartbeat reads only the node's own state, so all
//!    heartbeats of a round are independent and run in parallel across
//!    shards. Sent facts land in per-node outboxes.
//! 3. **Barrier merge** — the coordinator appends outboxes to the
//!    destination buffers in a fixed (sender, edge) order, so buffer
//!    contents are independent of shard interleaving.
//! 4. **Delivery phase** — every up node with mail at the barrier
//!    delivers its oldest buffered fact (FIFO buffers). The delivered
//!    facts are removed *before* the phase, so deliveries of a round
//!    are independent too and run in parallel; their outboxes merge at
//!    the next barrier.
//!
//! Both round schedules park nodes by one rule ([`ActivationSet`]): a
//! quiet heartbeat — no state change, no sends — parks a node, and only
//! a transition that changed its state, or a restart, arms it again.
//! A parked node's heartbeat is a deterministic function of an
//! unchanged state, so it repeats the quiet heartbeat it parked on. The
//! schedules differ in what they do with that heartbeat and in how
//! quiescence is certified:
//!
//! * [`run_sharded`] heartbeats every up node every round — the FIFO
//!   round-synchronous runs of the proof of Theorem 16. A parked node's
//!   heartbeat is *answered* at the coordinator from its park record
//!   (the quiet heartbeat's output), without stepping the node; it is
//!   still counted, logged and traced like any other step. Quiescence
//!   is a full round of no-op heartbeats on empty buffers.
//! * [`run_sparse`](crate::run_sparse) skips a parked node's heartbeat
//!   and schedules only armed, cold and mailed nodes; quiescence is an
//!   empty activation set (see [`crate::sparse`]).
//!
//! Debug builds check the parking rule when a run ends: every parked
//! node is stepped once more on its final state, outside the metrics
//! registry and the trace, and must change nothing, send nothing and
//! output what its park record holds (in the sparse schedule, which
//! keeps no records, nothing it has not output already).
//!
//! Every such run is a legal run of the paper's semantics (a particular
//! fair interleaving: deliveries of a round are simply scheduled after
//! all its heartbeats), and it is **deterministic by construction**:
//! any [`ShardOptions::threads`] produces the same transitions, in the
//! same order, as one thread — bit-identical outputs, final
//! configuration and [`TransitionLog`].
//! The invariant is property-tested in the workspace suites
//! `tests/sharded.rs` and `tests/sparse.rs` (and in this module's tests).

use crate::config::{
    check_stepped_state, wipe_memory_relations, ActivationSet, Configuration, TransitionKind,
    TransitionLog, TransitionRecord,
};
use crate::error::NetError;
use crate::fault::{FaultHook, NodeFault};
use crate::partition::HorizontalPartition;
use crate::run::{absorb_output, check_outputs, RunBudget, RunOutcome};
use crate::topology::{Network, NodeId};
use rtx_obs::trace;
use rtx_relational::{Fact, Instance, Relation};
use rtx_transducer::{Added, Transducer};
use std::collections::BTreeMap;
use std::sync::{mpsc, Arc};

/// How many buffered facts each node may deliver per round.
///
/// Batching amortizes the per-round barrier cost over up to `k`
/// delivery transitions: a round becomes one heartbeat phase followed
/// by up to `k` delivery sub-phases, each delivering one fact per node
/// with mail in deterministic prefix order. Every batched run is still
/// a legal run of the paper's one-transition-at-a-time semantics (the
/// sub-phases are just scheduled back to back), and serial ≡ sharded
/// is preserved by the same barrier construction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DeliveryPolicy {
    /// One delivery per node per round (the PR 3 behavior).
    #[default]
    One,
    /// Up to `k` deliveries per node per round (clamped to ≥ 1).
    Batch(usize),
}

impl DeliveryPolicy {
    /// Maximum delivery sub-phases per round.
    pub fn per_round(&self) -> usize {
        match self {
            DeliveryPolicy::One => 1,
            DeliveryPolicy::Batch(k) => (*k).max(1),
        }
    }
}

/// Options for a round-based run.
#[derive(Clone, Debug)]
pub struct ShardOptions {
    /// Worker threads. Node states are partitioned across them, each
    /// owning a contiguous block of the node order, and each phase's
    /// transitions are computed in parallel and merged
    /// deterministically. Clamped to at least 1 and at most the node
    /// count; 1 runs every step on the caller's thread.
    pub threads: usize,
    /// Per-round delivery batching.
    pub delivery: DeliveryPolicy,
    /// Record the full [`TransitionLog`] (costly on long runs; used by
    /// the determinism property tests).
    pub record_log: bool,
}

impl ShardOptions {
    /// One thread, one delivery per round, no log.
    pub fn serial() -> Self {
        ShardOptions::sharded(1)
    }

    /// Sharded execution with an explicit thread count.
    pub fn sharded(threads: usize) -> Self {
        ShardOptions {
            threads,
            delivery: DeliveryPolicy::One,
            record_log: false,
        }
    }

    /// Replace the per-round delivery batching policy.
    pub fn with_delivery(mut self, delivery: DeliveryPolicy) -> Self {
        self.delivery = delivery;
        self
    }

    /// Record the transition log.
    pub fn with_log(mut self) -> Self {
        self.record_log = true;
        self
    }
}

/// The result of a round-synchronous run.
#[derive(Clone, Debug)]
pub struct ShardRunOutcome {
    /// The observable outcome, in the same shape as [`crate::run`].
    pub outcome: RunOutcome,
    /// Rounds executed (each round is one heartbeat phase and at most
    /// one delivery phase).
    pub rounds: usize,
    /// Worker threads actually used ([`ShardOptions::threads`] after
    /// clamping).
    pub threads_used: usize,
    /// High-water mark of a single phase's job count — the active
    /// frontier. The dense schedule heartbeats every up node each
    /// round, so there this is typically the node count; the sparse
    /// schedule's ([`crate::sparse`]) whole point is keeping it small.
    pub max_active: usize,
    /// The transition log, when [`ShardOptions::record_log`] was set.
    pub log: Option<TransitionLog>,
}

/// One computed local transition, before the barrier merge.
struct StepOut {
    output: Relation,
    sent: Vec<Fact>,
    state_changed: bool,
    /// Trace events recorded while computing this step (empty below
    /// `RTX_TRACE=full`). Drained from the executing thread's buffer
    /// per job, so the coordinator can splice them back in node order
    /// at the barrier — the merged trace is deterministic regardless
    /// of which shard ran the job.
    events: Vec<rtx_obs::Event>,
}

/// What a phase job does at its node.
#[derive(Clone, Debug)]
enum JobKind {
    /// A heartbeat transition.
    Heartbeat,
    /// A delivery transition of the given fact.
    Deliver(Fact),
    /// A fault event, not a paper transition: clear the node's memory
    /// relations (restart under the persistent-EDB semantics). Produces
    /// no output and no sends, and is excluded from step counts and the
    /// transition log.
    WipeMemory,
}

/// A phase job: the target node index plus what to do there.
type Job = (usize, JobKind);

/// A phase job as a worker shard receives it: its position in the
/// phase, then the job.
type ShardJob = (usize, usize, JobKind);

/// Phase execution backends. Both compute, for each job `(idx, rcv)`,
/// the local transition of node `idx` and update that node's state;
/// the coordinator merges the results identically for both, which is
/// what makes sharded ≡ serial hold by construction.
enum Engine<'scope> {
    Serial {
        states: Vec<Instance>,
        added: AddedSlots,
        transducer: &'scope Transducer,
    },
    Sharded(ShardedEngine<'scope>),
}

/// Each node's last transition's
/// [`StepResult::added`](rtx_transducer::StepResult::added), which the
/// node's next transition reads ([`Transducer::step_after`]), by the
/// node's position in its engine. A transducer whose steps report no
/// additions gets no slots, so its nodes pay nothing. A restart's
/// memory wipe empties the node's slot, so its next step evaluates in
/// full.
struct AddedSlots(Vec<Option<Added>>);

impl AddedSlots {
    fn new(transducer: &Transducer, nodes: usize) -> Self {
        let slots = if transducer.delta_relations().is_empty() {
            0
        } else {
            nodes
        };
        AddedSlots((0..slots).map(|_| None).collect())
    }

    fn get_mut(&mut self, pos: usize) -> Option<&mut Option<Added>> {
        self.0.get_mut(pos)
    }
}

struct ShardedEngine<'scope> {
    /// Shard owning each node index.
    owner: Vec<usize>,
    /// Per-worker job senders.
    to_workers: Vec<mpsc::Sender<Vec<ShardJob>>>,
    /// Shared reply channel.
    from_workers: mpsc::Receiver<WorkerReply>,
    /// Scoped worker handles (joined on drop of the scope).
    #[allow(dead_code)]
    handles: Vec<std::thread::ScopedJoinHandle<'scope, ()>>,
}

enum WorkerReply {
    /// Phase results, each with its job's position in the phase, or the
    /// failing node's index plus its error.
    Phase(Result<Vec<(usize, StepOut)>, (usize, NetError)>),
    Final(Vec<(usize, Instance)>),
}

impl Engine<'_> {
    /// Execute one phase. Returns the step results in job order.
    fn execute(&mut self, jobs: Vec<Job>) -> Result<Vec<StepOut>, NetError> {
        match self {
            Engine::Serial {
                states,
                added,
                transducer,
            } => {
                let mut out = Vec::with_capacity(jobs.len());
                for (idx, received) in jobs {
                    let slot = added.get_mut(idx);
                    out.push(step_node(
                        transducer,
                        &mut states[idx],
                        slot,
                        received,
                        idx,
                    )?);
                }
                Ok(out)
            }
            Engine::Sharded(sh) => {
                let n_jobs = jobs.len();
                let mut batches: Vec<Vec<ShardJob>> = vec![Vec::new(); sh.to_workers.len()];
                for (pos, (idx, received)) in jobs.into_iter().enumerate() {
                    batches[sh.owner[idx]].push((pos, idx, received));
                }
                for (tx, batch) in sh.to_workers.iter().zip(batches) {
                    tx.send(batch).map_err(|_| worker_gone())?;
                }
                let mut out: Vec<Option<StepOut>> = (0..n_jobs).map(|_| None).collect();
                // Keep the error of the lowest node index, so the
                // reported error matches the serial engine's (which
                // fails at the first erroring job in node order)
                // regardless of worker timing.
                let mut first_err: Option<(usize, NetError)> = None;
                for _ in 0..sh.to_workers.len() {
                    match sh.from_workers.recv().map_err(|_| worker_gone())? {
                        WorkerReply::Phase(Ok(results)) => {
                            for (pos, res) in results {
                                out[pos] = Some(res);
                            }
                        }
                        WorkerReply::Phase(Err((idx, e))) => {
                            if first_err.as_ref().is_none_or(|(i, _)| idx < *i) {
                                first_err = Some((idx, e));
                            }
                        }
                        WorkerReply::Final(_) => return Err(worker_gone()),
                    }
                }
                match first_err {
                    Some((_, e)) => Err(e),
                    None => out.into_iter().map(|r| r.ok_or_else(worker_gone)).collect(),
                }
            }
        }
    }

    /// Tear down the engine and return the final states, in node order.
    fn finish(self, n_nodes: usize) -> Result<Vec<Instance>, NetError> {
        match self {
            Engine::Serial { states, .. } => Ok(states),
            Engine::Sharded(sh) => {
                drop(sh.to_workers); // workers see the hangup and reply Final
                let mut slots: Vec<Option<Instance>> = (0..n_nodes).map(|_| None).collect();
                for _ in 0..sh.handles.len() {
                    match sh.from_workers.recv().map_err(|_| worker_gone())? {
                        WorkerReply::Final(states) => {
                            for (idx, st) in states {
                                slots[idx] = Some(st);
                            }
                        }
                        WorkerReply::Phase(_) => return Err(worker_gone()),
                    }
                }
                slots
                    .into_iter()
                    .map(|s| s.ok_or_else(worker_gone))
                    .collect()
            }
        }
    }
}

fn worker_gone() -> NetError {
    NetError::Topology("sharded runtime: a worker shard terminated unexpectedly".into())
}

/// Perform one job on `state` in place, returning the observable
/// parts, and keep the node's [`AddedSlots`] slot, when it has one.
/// `idx` is the node index, carried only by the trace events.
fn step_node(
    transducer: &Transducer,
    state: &mut Instance,
    added: Option<&mut Option<Added>>,
    kind: JobKind,
    idx: usize,
) -> Result<StepOut, NetError> {
    let tracing = rtx_obs::tracing();
    let mark = if tracing { trace::mark() } else { 0 };
    let span_name = match &kind {
        JobKind::Heartbeat => "step.heartbeat",
        JobKind::Deliver(_) => "step.deliver",
        JobKind::WipeMemory => "step.wipe",
    };
    if tracing {
        trace::begin("net", span_name, &[("node", idx as i64)]);
    }
    let mut out = step_node_inner(transducer, state, added, kind)?;
    check_stepped_state(transducer, state, idx);
    if tracing {
        if !out.sent.is_empty() {
            trace::instant(
                "net",
                "sent",
                &[("node", idx as i64), ("facts", out.sent.len() as i64)],
            );
        }
        trace::end("net", span_name);
        out.events = trace::take_since(mark);
    }
    Ok(out)
}

fn step_node_inner(
    transducer: &Transducer,
    state: &mut Instance,
    added: Option<&mut Option<Added>>,
    kind: JobKind,
) -> Result<StepOut, NetError> {
    let mut rcv = Instance::empty(transducer.schema().message().clone());
    match kind {
        JobKind::Heartbeat => {}
        JobKind::Deliver(f) => {
            rcv.insert_fact(f).map_err(NetError::Rel)?;
        }
        JobKind::WipeMemory => {
            if let Some(slot) = added {
                *slot = None;
            }
            let cleared = wipe_memory_relations(transducer, state).map_err(NetError::Rel)?;
            return Ok(StepOut {
                output: Relation::empty(transducer.schema().output_arity()),
                sent: Vec::new(),
                state_changed: cleared,
                events: Vec::new(),
            });
        }
    }
    let prev = added.as_deref().and_then(Option::as_ref);
    let res = transducer
        .step_in_place(state, &rcv, prev)
        .map_err(NetError::Eval)?;
    if let Some(slot) = added {
        *slot = res.added;
    }
    Ok(StepOut {
        output: res.output,
        sent: res.sent.facts().collect(),
        state_changed: res.state_changed,
        events: Vec::new(),
    })
}

/// Drive a dense round-synchronous run of `(net, transducer)` from the
/// initial configuration for `partition`: every up node heartbeats
/// every round.
///
/// See the module docs for the round structure. The budget's
/// `max_steps` counts individual transitions exactly as [`crate::run`]
/// does; a phase is truncated (in node order) rather than overshooting
/// the budget, so `steps ≤ max_steps` always holds.
pub fn run_sharded(
    net: &Network,
    transducer: &Transducer,
    partition: &HorizontalPartition,
    opts: &ShardOptions,
    budget: &RunBudget,
) -> Result<ShardRunOutcome, NetError> {
    let cfg = Configuration::initial(net, transducer, partition)?;
    run_sharded_from(net, transducer, cfg, opts, budget)
}

/// [`run_sharded`] from an explicit configuration.
pub fn run_sharded_from(
    net: &Network,
    transducer: &Transducer,
    cfg: Configuration,
    opts: &ShardOptions,
    budget: &RunBudget,
) -> Result<ShardRunOutcome, NetError> {
    run_rounds(net, transducer, cfg, opts, budget, None, Schedule::Dense)
}

/// [`run_sharded`] under fault injection: every sent copy's fate and
/// every node's per-round status are decided by `faults` (see
/// [`crate::fault`]). The hook is consulted only at the coordinator's
/// deterministic merge points, so serial and sharded execution remain
/// bit-identical under any fault hook, any thread count, and any
/// [`DeliveryPolicy`].
pub fn run_sharded_faulted(
    net: &Network,
    transducer: &Transducer,
    partition: &HorizontalPartition,
    opts: &ShardOptions,
    budget: &RunBudget,
    faults: &mut dyn FaultHook,
) -> Result<ShardRunOutcome, NetError> {
    let cfg = Configuration::initial(net, transducer, partition)?;
    run_sharded_faulted_from(net, transducer, cfg, opts, budget, faults)
}

/// [`run_sharded_faulted`] from an explicit configuration.
pub fn run_sharded_faulted_from(
    net: &Network,
    transducer: &Transducer,
    cfg: Configuration,
    opts: &ShardOptions,
    budget: &RunBudget,
    faults: &mut dyn FaultHook,
) -> Result<ShardRunOutcome, NetError> {
    let schedule = Schedule::Dense;
    run_rounds(net, transducer, cfg, opts, budget, Some(faults), schedule)
}

/// Which nodes a heartbeat phase schedules, and what becomes of a
/// parked node's heartbeat.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Schedule {
    /// Every up node, every round; a parked node's heartbeat is
    /// answered from its park record (the dense schedule of
    /// [`run_sharded`]).
    Dense,
    /// Armed nodes and a warm-up chunk of cold ones; a parked node's
    /// heartbeat is skipped (the sparse schedule of
    /// [`crate::run_sparse`]).
    Sparse,
}

/// Spawn `threads` worker shards inside `scope`, each owning a
/// contiguous block of the node order (topology-aware for
/// line/ring/grid namings, where adjacent nodes tend to be adjacent in
/// the order), and return the engine facade. The assignment affects
/// load balance only — never results: the barrier merge is in node
/// order regardless of which shard computed a step.
fn spawn_sharded_engine<'scope, 'env>(
    scope: &'scope std::thread::Scope<'scope, 'env>,
    transducer: &'env Transducer,
    states: Vec<Instance>,
    threads: usize,
) -> Engine<'scope> {
    let n = states.len();
    let owner: Vec<usize> = (0..n).map(|i| i * threads / n).collect();
    let mut shard_states: Vec<Vec<(usize, Instance)>> = vec![Vec::new(); threads];
    for (i, st) in states.into_iter().enumerate() {
        shard_states[owner[i]].push((i, st));
    }
    let (reply_tx, from_workers) = mpsc::channel();
    let mut to_workers = Vec::with_capacity(threads);
    let mut handles = Vec::with_capacity(threads);
    for shard in shard_states {
        let (job_tx, job_rx) = mpsc::channel::<Vec<ShardJob>>();
        to_workers.push(job_tx);
        let reply_tx = reply_tx.clone();
        handles.push(scope.spawn(move || worker_loop(transducer, shard, job_rx, reply_tx)));
    }
    Engine::Sharded(ShardedEngine {
        owner,
        to_workers,
        from_workers,
        handles,
    })
}

/// Validate `cfg` against `net`, start the engine `opts.threads` asks
/// for, and drive the run under `schedule`. Every round-based entry
/// point lands here. Configuration and network index their nodes
/// alike, by name, so the coordinator works on the configuration's
/// vectors and reads adjacency from the network
/// ([`Network::neighbor_indices`], ascending — the serial drivers'
/// enqueue order).
pub(crate) fn run_rounds(
    net: &Network,
    transducer: &Transducer,
    cfg: Configuration,
    opts: &ShardOptions,
    budget: &RunBudget,
    faults: Option<&mut dyn FaultHook>,
    schedule: Schedule,
) -> Result<ShardRunOutcome, NetError> {
    cfg.check_network(net)?;
    let (nodes, states, buffers) = cfg.into_vectors();
    let threads = opts.threads.min(nodes.len()).max(1);
    std::thread::scope(|scope| {
        let engine = if threads > 1 {
            spawn_sharded_engine(scope, transducer, states, threads)
        } else {
            let added = AddedSlots::new(transducer, states.len());
            Engine::Serial {
                states,
                added,
                transducer,
            }
        };
        let barrier = Barrier::new(transducer, net, nodes, buffers, faults, opts, schedule);
        drive(barrier, engine, threads, opts, budget)
    })
}

/// A worker shard: owns the states of its nodes for the whole run,
/// executes its slice of each phase, and hands the states back when the
/// job channel closes.
fn worker_loop(
    transducer: &Transducer,
    mut shard: Vec<(usize, Instance)>,
    jobs: mpsc::Receiver<Vec<ShardJob>>,
    replies: mpsc::Sender<WorkerReply>,
) {
    // The shard owns a contiguous block of node indices from `first`.
    let first = shard.first().map_or(0, |(idx, _)| *idx);
    let mut added = AddedSlots::new(transducer, shard.len());
    let _unwinding = ReplyOnPanic(&replies);
    while let Ok(batch) = jobs.recv() {
        let mut results = Vec::with_capacity(batch.len());
        let mut err = None;
        for (job_pos, idx, received) in batch {
            let pos = idx.wrapping_sub(first);
            if shard.get(pos).is_none_or(|(owned, _)| *owned != idx) {
                err = Some((idx, worker_gone()));
                break;
            }
            match step_node(
                transducer,
                &mut shard[pos].1,
                added.get_mut(pos),
                received,
                idx,
            ) {
                Ok(res) => results.push((job_pos, res)),
                Err(e) => {
                    err = Some((idx, e));
                    break;
                }
            }
        }
        let reply = match err {
            Some(e) => WorkerReply::Phase(Err(e)),
            None => WorkerReply::Phase(Ok(results)),
        };
        if replies.send(reply).is_err() {
            return; // coordinator went away
        }
    }
    let _ = replies.send(WorkerReply::Final(shard));
}

/// Replies for a worker that panics (a debug check, say) while the
/// coordinator waits for its phase. The other workers keep the reply
/// channel open, so without this reply the coordinator would wait
/// forever; with it the run fails and the scope re-raises the panic.
struct ReplyOnPanic<'a>(&'a mpsc::Sender<WorkerReply>);

impl Drop for ReplyOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let _ = self
                .0
                .send(WorkerReply::Phase(Err((usize::MAX, worker_gone()))));
        }
    }
}

/// Everything the barrier merge and the fault phase write: buffers,
/// in-flight copies, the activation tracker, park records, outputs,
/// counters and log.
struct Barrier<'a, 'f> {
    transducer: &'a Transducer,
    /// The topology, read by index.
    net: &'a Network,
    /// The network's nodes, by index.
    nodes: Arc<[NodeId]>,
    schedule: Schedule,
    faults: Option<&'f mut dyn FaultHook>,
    buffers: Vec<Vec<Fact>>,
    /// In-flight copies under fault injection: maturity round → the
    /// copies released into destination buffers at its start, in the
    /// deterministic order the merge produced them.
    held: BTreeMap<u64, Vec<(usize, Fact)>>,
    /// Cold, armed and parked nodes, and nodes with mail. `mail` is
    /// exactly the set of nonempty buffers.
    act: ActivationSet,
    /// Park records of the dense schedule: the output of the quiet
    /// heartbeat each parked node parked on, kept only when nonempty.
    /// A parked node's heartbeat is answered from it.
    parked_output: BTreeMap<usize, Relation>,
    output: Relation,
    /// Each node's accumulated output, by index, kept only once
    /// nonempty: most nodes of a large network output nothing.
    node_outputs: BTreeMap<usize, Relation>,
    /// The outcome's map of every node to its output. It is built,
    /// every output empty, with the barrier, while the states are
    /// small — collecting a map of every node briefly holds a second
    /// copy of its entries — and filled from `node_outputs` when the
    /// run ends.
    outputs_per_node: BTreeMap<NodeId, Relation>,
    messages_enqueued: usize,
    /// Message accounting for the conservation check: the copies
    /// buffered at the start and those a crash's buffer loss discarded.
    initial_buffered: usize,
    lost_to_crashes: usize,
    log: Option<TransitionLog>,
}

impl<'a, 'f> Barrier<'a, 'f> {
    fn new(
        transducer: &'a Transducer,
        net: &'a Network,
        nodes: Arc<[NodeId]>,
        buffers: Vec<Vec<Fact>>,
        faults: Option<&'f mut dyn FaultHook>,
        opts: &ShardOptions,
        schedule: Schedule,
    ) -> Self {
        let arity = transducer.schema().output_arity();
        let mut act = match schedule {
            Schedule::Dense => ActivationSet::all_armed(nodes.len()),
            Schedule::Sparse => ActivationSet::all_cold(nodes.len()),
        };
        for (i, buf) in buffers.iter().enumerate() {
            if !buf.is_empty() {
                act.note_enqueue(i);
            }
        }
        Barrier {
            transducer,
            net,
            node_outputs: BTreeMap::new(),
            outputs_per_node: nodes.iter().map(|n| (*n, Relation::empty(arity))).collect(),
            nodes,
            schedule,
            faults,
            initial_buffered: buffers.iter().map(Vec::len).sum(),
            buffers,
            held: BTreeMap::new(),
            act,
            parked_output: BTreeMap::new(),
            output: Relation::empty(arity),
            messages_enqueued: 0,
            lost_to_crashes: 0,
            log: opts.record_log.then(TransitionLog::new),
        }
    }

    /// Message conservation, checked in debug builds after every merge
    /// and fault phase: every copy ever enqueued or buffered at the
    /// start was delivered (one of `deliveries`), is still buffered, is
    /// held in flight, or was lost with a crashed node's buffer.
    fn check_conservation(&self, now: u64, deliveries: usize) {
        if cfg!(debug_assertions) {
            let buffered: usize = self.buffers.iter().map(Vec::len).sum();
            let held: usize = self.held.values().map(Vec::len).sum();
            assert_eq!(
                self.initial_buffered + self.messages_enqueued,
                deliveries + buffered + held + self.lost_to_crashes,
                "round {now}: messages are not conserved \
                 (initial + enqueued vs delivered + buffered + held + lost)"
            );
        }
    }

    /// Merge one phase at the barrier, in job (= node) order. `jobs` is
    /// every transition of the phase; `results` holds one step per job
    /// the engine ran, which is every job but the heartbeats of parked
    /// nodes — the dense schedule answers those here
    /// ([`Barrier::answer`]). For each step: splice trace events, absorb
    /// outputs, arm or park the node, append outboxes to the
    /// destination buffers (consulting the fault hook for each copy's
    /// fate), and build the log records. Returns, per job, whether the
    /// step was a no-op: no state change, no sends, no new output.
    fn merge(
        &mut self,
        now: u64,
        jobs: Vec<Job>,
        results: Vec<StepOut>,
    ) -> Result<Vec<(usize, bool)>, NetError> {
        let mut results = results.into_iter();
        let mut quiet = Vec::with_capacity(jobs.len());
        for (idx, kind) in jobs {
            let heartbeat = matches!(kind, JobKind::Heartbeat);
            if heartbeat && self.act.is_parked(idx) {
                self.answer(now, idx);
                quiet.push((idx, true));
                continue;
            }
            let mut res = results.next().ok_or_else(worker_gone)?;
            trace::splice(std::mem::take(&mut res.events));
            // A node's entry is made by its first nonempty output.
            let node = (!res.output.is_empty()).then(|| {
                (self.node_outputs.entry(idx))
                    .or_insert_with(|| Relation::empty(res.output.arity()))
            });
            let new_out = absorb_output(&mut self.output, node, &res.output)?;
            quiet.push((idx, !res.state_changed && res.sent.is_empty() && !new_out));
            if heartbeat {
                self.note_heartbeat(idx, &res);
            } else if res.state_changed {
                self.act.arm(idx);
            }
            let mut enqueued = 0usize;
            for &d in self.net.neighbor_indices(idx) {
                let d = d as usize;
                match self.faults.as_deref_mut() {
                    None => {
                        for f in &res.sent {
                            enqueue(&mut self.buffers, &mut self.act, d, f.clone());
                            enqueued += 1;
                        }
                    }
                    Some(fh) => {
                        for (k, f) in res.sent.iter().enumerate() {
                            let fate = fh.on_send(now, idx, d, k, f);
                            fate.trace(idx, d);
                            for &delay in &fate.delays {
                                if delay == 0 {
                                    enqueue(&mut self.buffers, &mut self.act, d, f.clone());
                                } else {
                                    let copy = (d, f.clone());
                                    self.held.entry(now + delay).or_default().push(copy);
                                }
                                enqueued += 1;
                            }
                        }
                    }
                }
            }
            self.messages_enqueued += enqueued;
            if let Some(log) = &mut self.log {
                log.push(TransitionRecord {
                    node: self.nodes[idx],
                    round: now,
                    kind: match kind {
                        JobKind::Heartbeat => TransitionKind::Heartbeat,
                        JobKind::Deliver(f) => TransitionKind::Delivery(f),
                        JobKind::WipeMemory => unreachable!("wipes are not merged"),
                    },
                    output: res.output,
                    sent_facts: res.sent.len(),
                    enqueued,
                    state_changed: res.state_changed,
                });
            }
        }
        if results.next().is_some() {
            return Err(worker_gone());
        }
        Ok(quiet)
    }

    /// Park or arm `idx` after a heartbeat the engine ran. A quiet one —
    /// no state change, no sends — parks the node; the dense schedule
    /// keeps its output as the node's park record.
    fn note_heartbeat(&mut self, idx: usize, res: &StepOut) {
        let quiet = !res.state_changed && res.sent.is_empty();
        self.act.note_heartbeat(idx, quiet);
        match self.schedule {
            Schedule::Dense if quiet => {
                if res.output.is_empty() {
                    self.parked_output.remove(&idx);
                } else {
                    self.parked_output.insert(idx, res.output.clone());
                }
            }
            Schedule::Dense => {}
            Schedule::Sparse => {
                if rtx_obs::tracing() {
                    let name = if quiet { "park" } else { "arm.active" };
                    trace::instant("sparse", name, &[("node", idx as i64)]);
                }
            }
        }
    }

    /// Answer a parked node's heartbeat without stepping the node: it
    /// repeats the quiet heartbeat the node parked on — no state change,
    /// no sends, the park record's output, which was accumulated then.
    /// It is traced and logged like a heartbeat the engine ran.
    fn answer(&mut self, now: u64, idx: usize) {
        debug_assert_eq!(self.schedule, Schedule::Dense);
        if rtx_obs::tracing() {
            trace::begin("net", "step.heartbeat", &[("node", idx as i64)]);
            trace::end("net", "step.heartbeat");
        }
        if let Some(log) = &mut self.log {
            let output = match self.parked_output.get(&idx) {
                Some(out) => out.clone(),
                None => Relation::empty(self.output.arity()),
            };
            log.push(TransitionRecord {
                node: self.nodes[idx],
                round: now,
                kind: TransitionKind::Heartbeat,
                output,
                sent_facts: 0,
                enqueued: 0,
                state_changed: false,
            });
        }
    }

    /// The parking rule, checked in debug builds when a run ends: each
    /// parked node's heartbeat, stepped once on its final state outside
    /// the registry and the trace, changes no state, sends nothing and
    /// outputs its park record — in the sparse schedule, which keeps no
    /// records, nothing the node has not output already.
    fn check_parked(&self, states: &[Instance]) {
        if !cfg!(debug_assertions) {
            return;
        }
        let silence = Instance::empty(self.transducer.schema().message().clone());
        for (idx, state) in states.iter().enumerate() {
            if !self.act.is_parked(idx) {
                continue;
            }
            let mark = trace::mark();
            let res = rtx_obs::registry::uncounted(|| self.transducer.step(state, &silence));
            drop(trace::take_since(mark));
            let node = self.nodes[idx];
            let res = res.unwrap_or_else(|e| panic!("parked node {node}'s heartbeat failed: {e}"));
            assert!(
                !res.state_changed,
                "parked node {node}'s heartbeat changes its state"
            );
            assert!(res.sent.is_empty(), "parked node {node}'s heartbeat sends");
            match self.schedule {
                Schedule::Dense => {
                    let record = self.parked_output.get(&idx);
                    assert!(
                        record.map_or(res.output.is_empty(), |r| *r == res.output),
                        "parked node {node}'s heartbeat outputs other than its park record"
                    );
                }
                Schedule::Sparse => assert!(
                    (self.node_outputs.get(&idx))
                        .map_or(res.output.is_empty(), |acc| res.output.is_subset(acc)),
                    "parked node {node}'s heartbeat outputs something new"
                ),
            }
        }
    }
}

/// Append `fact` to `dst`'s buffer. Only the first fact of an empty
/// buffer touches the tracker: `mail` is exactly the set of nonempty
/// buffers, so a later copy would not change it.
fn enqueue(buffers: &mut [Vec<Fact>], act: &mut ActivationSet, dst: usize, fact: Fact) {
    if buffers[dst].is_empty() {
        act.note_enqueue(dst);
    }
    debug_assert!(act.has_mail(dst));
    buffers[dst].push(fact);
}

/// The round coordinator shared by both schedules and both engines. All
/// ordering decisions (phase truncation, delivery picks, outbox merge,
/// record order) are made here from engine-independent data, which is
/// why the engines agree bit for bit.
fn drive(
    mut bar: Barrier<'_, '_>,
    mut engine: Engine<'_>,
    threads_used: usize,
    opts: &ShardOptions,
    budget: &RunBudget,
) -> Result<ShardRunOutcome, NetError> {
    let n = bar.nodes.len();
    let t0 = rtx_obs::counting().then(std::time::Instant::now);
    let sparse = bar.schedule == Schedule::Sparse;
    let mut steps = 0usize;
    let mut heartbeats = 0usize;
    let mut deliveries = 0usize;
    let mut rounds = 0usize;
    let mut max_active = 0usize;
    let mut quiescent = false;
    let mut reached_target = false;
    // The sparse schedule must heartbeat every cold node once before it
    // may park (an initial state can produce output or sends). Sweeping
    // them all in round 1 would schedule the whole network in a single
    // phase, so the warm-up is rate-limited to 1% of the network (at
    // least one node) per round: warm-up still costs exactly n
    // heartbeats in total, but the scheduled frontier stays bounded by
    // the event-driven frontier plus the sweep chunk. A node stops
    // being cold only once it actually heartbeat, so budget truncation
    // and down-phases never skip a node's first heartbeat.
    let warmup_chunk = n.div_ceil(100);
    // Which nodes are down this round (skip heartbeat and delivery).
    let mut down = vec![false; n];
    // Consecutive rounds that executed no transition at all.
    let mut idle_rounds = 0usize;

    while steps < budget.max_steps {
        if let Some(target) = &budget.target_output {
            if !target.is_empty() && &bar.output == target {
                reached_target = true;
                break;
            }
        }
        rounds += 1;
        let now = rounds as u64;
        let _round_span = trace::span("net", "round", &[("round", now as i64)]);

        // Fault phase (coordinator-only, deterministic): release
        // matured in-flight copies, resolve node statuses, run restart
        // wipes. Statuses are resolved for *all* nodes — fault plans
        // key decisions on (round, node), so skipping parked nodes
        // would change fates. Fault-free runs skip this entirely.
        let mut fault_horizon_passed = true;
        if let Some(fh) = bar.faults.as_deref_mut() {
            let _fault_span = trace::span("net", "phase.fault", &[]);
            let due: Vec<u64> = bar.held.range(..=now).map(|(k, _)| *k).collect();
            for k in due {
                for (dst, fact) in bar.held.remove(&k).unwrap_or_default() {
                    rtx_obs::event!("net", "fault.release", "node" => dst);
                    enqueue(&mut bar.buffers, &mut bar.act, dst, fact);
                }
            }
            let mut wipes: Vec<Job> = Vec::new();
            for (i, d) in down.iter_mut().enumerate() {
                match fh.node_fault(now, i) {
                    NodeFault::Up => {
                        if *d {
                            // implicit restart (a heal): arm
                            bar.act.arm(i);
                            if sparse {
                                rtx_obs::event!("sparse", "arm.heal", "node" => i);
                            }
                        }
                        *d = false;
                    }
                    NodeFault::CrashNow { lose_buffer } => {
                        *d = true;
                        rtx_obs::event!("net", "fault.crash", "node" => i, "lose_buffer" => lose_buffer as i64);
                        if lose_buffer {
                            bar.lost_to_crashes += bar.buffers[i].len();
                            bar.buffers[i].clear();
                            bar.act.note_buffer_lost(i);
                        }
                    }
                    NodeFault::Down => *d = true,
                    NodeFault::RestartNow { wipe_memory } => {
                        *d = false;
                        bar.act.arm(i);
                        rtx_obs::event!("net", "fault.restart", "node" => i, "wipe_memory" => wipe_memory as i64);
                        if sparse {
                            rtx_obs::event!("sparse", "arm.restart", "node" => i);
                        }
                        if wipe_memory {
                            wipes.push((i, JobKind::WipeMemory));
                        }
                    }
                }
            }
            if !wipes.is_empty() {
                // Execute the wipes as their own phase; the StepOuts
                // carry no outputs or sends by construction, so only
                // their trace events are kept (in node order).
                for mut res in engine.execute(wipes)? {
                    trace::splice(std::mem::take(&mut res.events));
                }
            }
            fault_horizon_passed = now > fh.quiet_after() && bar.held.is_empty();
            bar.check_conservation(now, deliveries);
        }

        // Stability probe. The sparse schedule certifies quiescence in
        // O(active) before the heartbeat phase: nothing cold or armed,
        // no mail, nothing in flight, no future fault events — parked
        // nodes need not be woken, their heartbeats are provably
        // no-ops (see `crate::sparse`). A dense run needs a whole round
        // of quiet heartbeats on buffers that were empty before it.
        if sparse && bar.act.is_quiet() && bar.held.is_empty() && fault_horizon_passed {
            debug_assert!(bar.buffers.iter().all(Vec::is_empty));
            quiescent = true;
            break;
        }
        let no_mail = bar.act.mail_count() == 0;

        // Heartbeat phase, ascending, truncated at the budget. Dense:
        // every up node, the parked ones answered at the barrier.
        // Sparse: the armed up nodes plus this round's warm-up chunk.
        let mut hb_nodes: Vec<usize> = if sparse {
            let mut hb: Vec<usize> = bar.act.armed_nodes().filter(|&i| !down[i]).collect();
            let armed = hb.len();
            let cold = bar.act.cold_nodes().filter(|&i| !down[i]);
            hb.extend(cold.take(warmup_chunk));
            if hb.len() > armed {
                hb.sort_unstable();
                hb.dedup();
            }
            hb
        } else {
            (0..n).filter(|&i| !down[i]).collect()
        };
        hb_nodes.truncate(budget.max_steps - steps);
        let hb_count = hb_nodes.len();
        let hb_jobs: Vec<Job> = hb_nodes
            .into_iter()
            .map(|i| (i, JobKind::Heartbeat))
            .collect();
        let run_jobs: Vec<Job> = hb_jobs
            .iter()
            .filter(|(i, _)| !bar.act.is_parked(*i))
            .cloned()
            .collect();
        max_active = max_active.max(hb_count);
        let hb_span = trace::span("net", "phase.heartbeat", &[("jobs", hb_count as i64)]);
        let results = engine.execute(run_jobs)?;
        let quiet = bar.merge(now, hb_jobs, results)?;
        bar.check_conservation(now, deliveries);
        drop(hb_span);
        steps += hb_count;
        heartbeats += hb_count;
        if !sparse
            && no_mail
            && hb_count == n
            && fault_horizon_passed
            && quiet.iter().all(|&(_, q)| q)
        {
            // A whole round of no-op heartbeats on empty buffers, with
            // no in-flight copies and no future node fault events: the
            // configuration repeats forever — quiescence.
            quiescent = true;
            break;
        }
        if steps >= budget.max_steps {
            break;
        }
        if let Some(target) = &budget.target_output {
            if !target.is_empty() && &bar.output == target {
                reached_target = true;
                break;
            }
        }

        // Delivery phase(s): one fact per up node with mail per
        // sub-phase, up to the batching policy's cap, truncated at the
        // budget. Facts are removed before each sub-phase, so the
        // deliveries of a sub-phase are independent and run in
        // parallel; their outboxes merge at the sub-phase barrier
        // (visible to the next sub-phase, exactly as in back-to-back
        // singleton rounds).
        let mut delivered_this_round = 0usize;
        for sub in 0..opts.delivery.per_round() {
            if steps >= budget.max_steps {
                break;
            }
            let quota = budget.max_steps - steps;
            let mail_now: Vec<usize> = bar.act.mail_nodes().filter(|&i| !down[i]).collect();
            let mut dl_jobs: Vec<Job> = Vec::new();
            for i in mail_now {
                if dl_jobs.len() >= quota {
                    break;
                }
                let buf = &mut bar.buffers[i];
                if buf.is_empty() {
                    bar.act.note_buffer_lost(i);
                    continue;
                }
                dl_jobs.push((i, JobKind::Deliver(buf.remove(0))));
                bar.act.note_delivery(i, buf.is_empty());
            }
            if dl_jobs.is_empty() {
                break;
            }
            let dl_count = dl_jobs.len();
            max_active = max_active.max(dl_count);
            let _dl_span = trace::span(
                "net",
                "phase.deliver",
                &[("sub", sub as i64), ("jobs", dl_count as i64)],
            );
            let results = engine.execute(dl_jobs.clone())?;
            bar.merge(now, dl_jobs, results)?;
            steps += dl_count;
            deliveries += dl_count;
            bar.check_conservation(now, deliveries);
            delivered_this_round += dl_count;
        }
        if hb_count == 0 && delivered_this_round == 0 {
            if fault_horizon_passed {
                // Everything schedulable is down, nothing matured, and
                // the fault plan has no further node events: the
                // network is stuck forever. Stop (non-quiescent)
                // instead of spinning.
                break;
            }
            // A restart (or an in-flight copy) is still ahead. Idle
            // rounds consume no budget steps, so a hook with a distant
            // horizon could spin unboundedly — cap consecutive idle
            // rounds at the step budget (an idle streak longer than the
            // budget could never be followed by that much work anyway).
            idle_rounds += 1;
            if idle_rounds > budget.max_steps {
                break;
            }
        } else {
            idle_rounds = 0;
        }
    }

    if let Some(target) = &budget.target_output {
        if &bar.output == target && (quiescent || !target.is_empty()) {
            reached_target = true;
        }
    }

    let states = engine.finish(n)?;
    let elapsed = t0.map(|t0| t0.elapsed());
    bar.check_parked(&states);
    check_outputs(&bar.output, bar.node_outputs.values());
    // The map's keys are the nodes, in index order.
    let mut outputs_per_node = bar.outputs_per_node;
    let mut outputs = bar.node_outputs.into_iter().peekable();
    for (i, slot) in outputs_per_node.values_mut().enumerate() {
        if let Some((_, out)) = outputs.next_if(|(j, _)| *j == i) {
            *slot = out;
        }
    }
    let final_config = Configuration::from_vectors(bar.nodes, states, bar.buffers);
    let out = ShardRunOutcome {
        outcome: RunOutcome {
            output: bar.output,
            outputs_per_node,
            steps,
            heartbeats,
            deliveries,
            messages_enqueued: bar.messages_enqueued,
            quiescent,
            reached_target,
            final_config,
        },
        rounds,
        threads_used,
        max_active,
        log: bar.log,
    };
    if let Some(elapsed) = elapsed {
        out.publish();
        rtx_obs::registry::record("net.run_ns", elapsed.as_nanos() as u64);
    }
    Ok(out)
}

impl ShardRunOutcome {
    /// Publish this run's counters into the global metrics registry
    /// (`net.*`), making the ad-hoc outcome counters a view over the
    /// registry: a registry snapshot diff across the run reconciles
    /// exactly with these fields (asserted in `tests/obs.rs`).
    pub fn publish(&self) {
        if !rtx_obs::counting() {
            return;
        }
        rtx_obs::registry::add("net.runs", 1);
        rtx_obs::registry::add("net.rounds", self.rounds as u64);
        rtx_obs::registry::add("net.steps", self.outcome.steps as u64);
        rtx_obs::registry::add("net.heartbeats", self.outcome.heartbeats as u64);
        rtx_obs::registry::add("net.deliveries", self.outcome.deliveries as u64);
        rtx_obs::registry::add(
            "net.messages_enqueued",
            self.outcome.messages_enqueued as u64,
        );
        if self.outcome.quiescent {
            rtx_obs::registry::add("net.quiescent_runs", 1);
        }
        rtx_obs::registry::record("net.max_active", self.max_active as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{run, FifoRoundRobin};
    use rtx_query::{atom, CqBuilder, QueryRef, Term, UcqQuery};
    use rtx_relational::{fact, Instance, Schema};
    use rtx_transducer::TransducerBuilder;
    use std::sync::Arc;

    // The whole simulation stack must be shareable across shard
    // threads: a compile-time check of the ownership story.
    const _: () = {
        const fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Transducer>();
        assert_send_sync::<Network>();
        assert_send_sync::<Configuration>();
        assert_send_sync::<Arc<Transducer>>();
        assert_send_sync::<QueryRef>();
    };

    fn cq(rule: rtx_query::Rule) -> QueryRef {
        Arc::new(UcqQuery::single(rule))
    }

    /// Deduplicating flooder (same machine as the run.rs tests).
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
    fn serial_round_run_quiesces_and_disseminates() {
        let net = Network::line(4).unwrap();
        let t = dedup_flooder();
        let p = HorizontalPartition::round_robin(&net, &input_s(&[1, 2, 3]));
        let out = run_sharded(
            &net,
            &t,
            &p,
            &ShardOptions::serial(),
            &RunBudget::steps(100_000),
        )
        .unwrap();
        assert!(out.outcome.quiescent);
        assert_eq!(out.outcome.output.len(), 3);
        assert_eq!(out.threads_used, 1);
        assert!(out.rounds > 0);
        for per in out.outcome.outputs_per_node.values() {
            assert_eq!(per.len(), 3);
        }
    }

    #[test]
    fn sharded_matches_serial_bit_for_bit() {
        let net = Network::ring(6).unwrap();
        let t = dedup_flooder();
        let p = HorizontalPartition::round_robin(&net, &input_s(&[10, 20, 30, 40]));
        let budget = RunBudget::steps(100_000);
        let serial =
            run_sharded(&net, &t, &p, &ShardOptions::serial().with_log(), &budget).unwrap();
        for threads in [2, 3, 4, 8] {
            let opts = ShardOptions::sharded(threads).with_log();
            let sharded = run_sharded(&net, &t, &p, &opts, &budget).unwrap();
            assert_eq!(sharded.outcome.output, serial.outcome.output);
            assert_eq!(
                sharded.outcome.outputs_per_node,
                serial.outcome.outputs_per_node
            );
            assert_eq!(sharded.outcome.steps, serial.outcome.steps);
            assert_eq!(sharded.outcome.final_config, serial.outcome.final_config);
            assert_eq!(sharded.log, serial.log, "threads={threads}");
            assert_eq!(sharded.rounds, serial.rounds);
        }
    }

    #[test]
    fn round_run_agrees_with_seed_fifo_driver() {
        let net = Network::ring4_with_chord();
        let t = dedup_flooder();
        let p = HorizontalPartition::round_robin(&net, &input_s(&[7, 8, 9]));
        let budget = RunBudget::steps(100_000);
        let seed = run(&net, &t, &p, &mut FifoRoundRobin::new(), &budget).unwrap();
        let rounds = run_sharded(&net, &t, &p, &ShardOptions::serial(), &budget).unwrap();
        assert!(seed.quiescent && rounds.outcome.quiescent);
        assert_eq!(seed.output, rounds.outcome.output);
    }

    #[test]
    fn budget_truncation_is_exact_and_deterministic() {
        let net = Network::line(5).unwrap();
        let t = dedup_flooder();
        let p = HorizontalPartition::round_robin(&net, &input_s(&[1, 2, 3, 4]));
        for cap in [1usize, 3, 7, 12] {
            let budget = RunBudget::steps(cap);
            let serial =
                run_sharded(&net, &t, &p, &ShardOptions::serial().with_log(), &budget).unwrap();
            let sharded =
                run_sharded(&net, &t, &p, &ShardOptions::sharded(3).with_log(), &budget).unwrap();
            assert_eq!(serial.outcome.steps, cap);
            assert!(!serial.outcome.quiescent);
            assert_eq!(sharded.log, serial.log, "cap={cap}");
        }
    }

    #[test]
    fn target_output_stops_early() {
        let net = Network::line(3).unwrap();
        let t = dedup_flooder();
        let p = HorizontalPartition::concentrate(&net, &input_s(&[5]), &NodeId::sym("n0")).unwrap();
        let target = Relation::from_tuples(1, vec![rtx_relational::tuple![5]]).unwrap();
        let budget = RunBudget::steps(10_000).until_output(target);
        let out = run_sharded(&net, &t, &p, &ShardOptions::sharded(2), &budget).unwrap();
        assert!(out.outcome.reached_target);
    }

    #[test]
    fn single_node_network_only_heartbeats() {
        let net = Network::single();
        let t = dedup_flooder();
        let p = HorizontalPartition::replicate(&net, &input_s(&[1, 2]));
        let out = run_sharded(
            &net,
            &t,
            &p,
            &ShardOptions::sharded(8),
            &RunBudget::default(),
        )
        .unwrap();
        assert!(out.outcome.quiescent);
        assert_eq!(out.outcome.deliveries, 0);
        assert_eq!(out.outcome.output.len(), 2);
        assert_eq!(out.threads_used, 1, "thread count clamps to node count");
    }

    #[test]
    fn batched_delivery_is_confluent_and_saves_rounds() {
        let net = Network::grid(3, 3).unwrap();
        let t = dedup_flooder();
        let p = HorizontalPartition::round_robin(&net, &input_s(&[1, 2, 3, 4, 5]));
        let budget = RunBudget::steps(200_000);
        let one = run_sharded(&net, &t, &p, &ShardOptions::serial(), &budget).unwrap();
        for k in [2usize, 4, 16] {
            let opts = ShardOptions::serial().with_delivery(DeliveryPolicy::Batch(k));
            let batched = run_sharded(&net, &t, &p, &opts, &budget).unwrap();
            assert!(batched.outcome.quiescent);
            assert_eq!(batched.outcome.output, one.outcome.output, "k={k}");
            assert!(
                batched.rounds < one.rounds,
                "k={k}: {} !< {}",
                batched.rounds,
                one.rounds
            );
        }
    }

    #[test]
    fn batched_delivery_sharded_matches_serial_bit_for_bit() {
        let net = Network::ring(6).unwrap();
        let t = dedup_flooder();
        let p = HorizontalPartition::round_robin(&net, &input_s(&[10, 20, 30, 40]));
        let budget = RunBudget::steps(100_000);
        for k in [3usize, 8] {
            let base = ShardOptions::serial()
                .with_delivery(DeliveryPolicy::Batch(k))
                .with_log();
            let serial = run_sharded(&net, &t, &p, &base, &budget).unwrap();
            for threads in [2, 4] {
                let opts = ShardOptions::sharded(threads)
                    .with_delivery(DeliveryPolicy::Batch(k))
                    .with_log();
                let sharded = run_sharded(&net, &t, &p, &opts, &budget).unwrap();
                assert_eq!(sharded.log, serial.log, "k={k} threads={threads}");
                assert_eq!(sharded.outcome.final_config, serial.outcome.final_config);
                assert_eq!(sharded.rounds, serial.rounds);
            }
        }
    }

    #[test]
    fn batched_delivery_respects_step_budget_exactly() {
        let net = Network::line(5).unwrap();
        let t = dedup_flooder();
        let p = HorizontalPartition::round_robin(&net, &input_s(&[1, 2, 3, 4]));
        for cap in [1usize, 6, 11] {
            let budget = RunBudget::steps(cap);
            let opts = ShardOptions::serial().with_delivery(DeliveryPolicy::Batch(4));
            let out = run_sharded(&net, &t, &p, &opts, &budget).unwrap();
            assert_eq!(out.outcome.steps, cap);
        }
    }

    #[test]
    fn delivery_policy_per_round_clamps() {
        assert_eq!(DeliveryPolicy::One.per_round(), 1);
        assert_eq!(DeliveryPolicy::Batch(0).per_round(), 1);
        assert_eq!(DeliveryPolicy::Batch(7).per_round(), 7);
        assert_eq!(DeliveryPolicy::default(), DeliveryPolicy::One);
    }

    #[test]
    fn thread_count_clamps_to_one_and_to_the_node_count() {
        let net = Network::line(4).unwrap();
        let t = dedup_flooder();
        let p = HorizontalPartition::round_robin(&net, &input_s(&[1, 2]));
        let budget = RunBudget::steps(10_000);
        for (threads, used) in [(0, 1), (1, 1), (3, 3), (6, 4)] {
            let opts = ShardOptions::sharded(threads);
            let out = run_sharded(&net, &t, &p, &opts, &budget).unwrap();
            assert_eq!(out.threads_used, used, "threads={threads}");
        }
        assert_eq!(ShardOptions::serial().threads, 1);
    }

    /// A hand-written hook: delays every copy on edge (0→1) by 2
    /// rounds, duplicates everything sent to node 2, crashes node 3 at
    /// round 2 and restarts it (memory wiped) at round 4.
    struct TestHook;
    impl FaultHook for TestHook {
        fn on_send(&mut self, _t: u64, src: usize, dst: usize, _k: usize, _f: &Fact) -> SendFate {
            if src == 0 && dst == 1 {
                SendFate::delayed(2)
            } else if dst == 2 {
                SendFate::copies(vec![0, 0])
            } else {
                SendFate::deliver()
            }
        }
        fn node_fault(&mut self, t: u64, node: usize) -> NodeFault {
            match (node, t) {
                (3, 2) => NodeFault::CrashNow { lose_buffer: true },
                (3, 3) => NodeFault::Down,
                (3, 4) => NodeFault::RestartNow { wipe_memory: true },
                _ => NodeFault::Up,
            }
        }
        fn quiet_after(&self) -> u64 {
            4
        }
    }

    use crate::fault::{FaultHook, NodeFault, SendFate};

    #[test]
    fn faulted_run_quiesces_and_stays_serial_sharded_identical() {
        let net = Network::ring(6).unwrap();
        let t = dedup_flooder();
        let p = HorizontalPartition::round_robin(&net, &input_s(&[10, 20, 30, 40]));
        let budget = RunBudget::steps(100_000);
        let serial = run_sharded_faulted(
            &net,
            &t,
            &p,
            &ShardOptions::serial().with_log(),
            &budget,
            &mut TestHook,
        )
        .unwrap();
        assert!(serial.outcome.quiescent);
        for threads in [2, 4] {
            for delivery in [DeliveryPolicy::One, DeliveryPolicy::Batch(4)] {
                let opts = ShardOptions::sharded(threads)
                    .with_delivery(delivery)
                    .with_log();
                let base_opts = ShardOptions::serial().with_delivery(delivery).with_log();
                let base =
                    run_sharded_faulted(&net, &t, &p, &base_opts, &budget, &mut TestHook).unwrap();
                let sharded =
                    run_sharded_faulted(&net, &t, &p, &opts, &budget, &mut TestHook).unwrap();
                assert_eq!(sharded.log, base.log, "threads={threads} {delivery:?}");
                assert_eq!(sharded.outcome.final_config, base.outcome.final_config);
                assert_eq!(sharded.outcome.output, base.outcome.output);
                assert_eq!(sharded.rounds, base.rounds);
            }
        }
    }

    #[test]
    fn faulted_run_replays_identically() {
        let net = Network::grid(3, 3).unwrap();
        let t = dedup_flooder();
        let p = HorizontalPartition::round_robin(&net, &input_s(&[1, 2, 3]));
        let budget = RunBudget::steps(100_000);
        let opts = ShardOptions::serial().with_log();
        let a = run_sharded_faulted(&net, &t, &p, &opts, &budget, &mut TestHook).unwrap();
        let b = run_sharded_faulted(&net, &t, &p, &opts, &budget, &mut TestHook).unwrap();
        assert_eq!(a.log, b.log);
        assert_eq!(a.outcome.final_config, b.outcome.final_config);
    }

    #[test]
    fn no_faults_hook_matches_plain_run_bit_for_bit() {
        let net = Network::line(5).unwrap();
        let t = dedup_flooder();
        let p = HorizontalPartition::round_robin(&net, &input_s(&[1, 2, 3, 4]));
        let budget = RunBudget::steps(100_000);
        let opts = ShardOptions::serial().with_log();
        let plain = run_sharded(&net, &t, &p, &opts, &budget).unwrap();
        let hooked =
            run_sharded_faulted(&net, &t, &p, &opts, &budget, &mut crate::fault::NoFaults).unwrap();
        assert_eq!(plain.log, hooked.log);
        assert_eq!(plain.outcome.final_config, hooked.outcome.final_config);
        assert_eq!(plain.rounds, hooked.rounds);
    }

    #[test]
    fn dead_forever_network_terminates_without_quiescence() {
        struct AllDown;
        impl FaultHook for AllDown {
            fn on_send(&mut self, _: u64, _: usize, _: usize, _: usize, _: &Fact) -> SendFate {
                SendFate::deliver()
            }
            fn node_fault(&mut self, t: u64, _n: usize) -> NodeFault {
                if t == 1 {
                    NodeFault::CrashNow { lose_buffer: true }
                } else {
                    NodeFault::Down
                }
            }
            fn quiet_after(&self) -> u64 {
                1
            }
        }
        let net = Network::line(3).unwrap();
        let t = dedup_flooder();
        let p = HorizontalPartition::round_robin(&net, &input_s(&[1, 2]));
        let out = run_sharded_faulted(
            &net,
            &t,
            &p,
            &ShardOptions::serial(),
            &RunBudget::steps(100_000),
            &mut AllDown,
        )
        .unwrap();
        assert!(!out.outcome.quiescent);
        assert_eq!(out.outcome.steps, 0, "no node ever transitioned");
    }
}
