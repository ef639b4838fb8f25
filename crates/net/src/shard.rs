//! Sharded, round-synchronous network execution.
//!
//! The paper's runs interleave heartbeat and delivery transitions one at
//! a time; [`crate::run`] realizes that faithfully but steps a single
//! node per global transition, so nothing exploits multicore. This
//! module adds a **round-synchronous** executor whose unit of
//! parallelism is a round:
//!
//! 1. **Heartbeat phase** — every node performs a heartbeat transition.
//!    A heartbeat reads only the node's own state, so all heartbeats of
//!    a round are independent and run in parallel across shards. Sent
//!    facts land in per-node outboxes.
//! 2. **Barrier merge** — the coordinator appends outboxes to the
//!    destination buffers in a fixed (sender, edge) order, so buffer
//!    contents are independent of shard interleaving.
//! 3. **Delivery phase** — every node whose buffer was nonempty at the
//!    barrier delivers exactly one buffered fact (the oldest under
//!    [`RoundScheduling::Fifo`]; a seeded-random one under
//!    [`RoundScheduling::Random`]). The delivered facts are removed
//!    *before* the phase, so deliveries of a round are independent too
//!    and run in parallel; their outboxes merge at the next barrier.
//!
//! Every such run is a legal run of the paper's semantics (a particular
//! fair interleaving: deliveries of a round are simply scheduled after
//! all its heartbeats), and it is **deterministic by construction**:
//! [`ExecMode::Sharded`] with any thread count and any [`ShardPlan`]
//! produces the same transitions, in the same order, as
//! [`ExecMode::Serial`] — bit-identical outputs, final configuration
//! and [`TransitionLog`]. The invariant is property-tested in the
//! workspace suite `tests/sharded.rs` (and in this module's tests).
//!
//! The thread count honours the `RTX_NET_THREADS` environment variable
//! (see [`ExecMode::sharded_auto`]).

use crate::config::{
    wipe_memory_relations, Configuration, TransitionKind, TransitionLog, TransitionRecord,
};
use crate::error::NetError;
use crate::fault::{FaultHook, NodeFault};
use crate::partition::HorizontalPartition;
use crate::run::{RunBudget, RunOutcome};
use crate::topology::{Network, NodeId};
use rtx_obs::trace;
use rtx_relational::{Fact, Instance, Relation};
use rtx_transducer::Transducer;
use std::collections::BTreeMap;
use std::sync::mpsc;

/// How rounds are executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Single-threaded reference executor (the ablation baseline): the
    /// same round-synchronous algorithm, all steps on the caller's
    /// thread.
    Serial,
    /// Multi-threaded executor: node states are partitioned across
    /// `threads` worker shards; each phase's transitions are computed in
    /// parallel and merged deterministically.
    Sharded {
        /// Number of worker threads (clamped to at least 1 and at most
        /// the node count).
        threads: usize,
    },
}

impl ExecMode {
    /// Sharded execution with an automatically chosen thread count: the
    /// `RTX_NET_THREADS` environment variable when set to a positive
    /// integer, otherwise [`std::thread::available_parallelism`].
    pub fn sharded_auto() -> ExecMode {
        ExecMode::Sharded {
            threads: auto_threads(),
        }
    }

    /// The configured thread count (1 for [`ExecMode::Serial`]).
    pub fn threads(&self) -> usize {
        match self {
            ExecMode::Serial => 1,
            ExecMode::Sharded { threads } => (*threads).max(1),
        }
    }
}

/// The `RTX_NET_THREADS` override, else available parallelism, else 1.
fn auto_threads() -> usize {
    rtx_core::env::parse_positive_usize("RTX_NET_THREADS").unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// How nodes are assigned to worker shards.
///
/// The assignment affects load balance only — never results: the
/// barrier merge is in node order regardless of which shard computed a
/// step.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ShardPlan {
    /// Contiguous blocks of the node order (topology-aware for
    /// line/ring/grid namings, where adjacent nodes tend to be adjacent
    /// in the order).
    #[default]
    Contiguous,
    /// Node `i` goes to shard `i mod shards`.
    RoundRobin,
    /// FNV-1a hash of the node id modulo the shard count.
    Hash,
}

impl ShardPlan {
    /// The shard owning node `idx` (of `n_nodes`) under `shards` shards.
    pub fn assign(&self, idx: usize, node: &NodeId, n_nodes: usize, shards: usize) -> usize {
        debug_assert!(idx < n_nodes);
        let shards = shards.max(1);
        match self {
            ShardPlan::Contiguous => idx * shards / n_nodes.max(1),
            ShardPlan::RoundRobin => idx % shards,
            ShardPlan::Hash => {
                let mut h: u64 = 0xcbf2_9ce4_8422_2325;
                for b in node.to_string().bytes() {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x100_0000_01b3);
                }
                (h % shards as u64) as usize
            }
        }
    }
}

/// Which buffered fact each node delivers per round.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RoundScheduling {
    /// Deliver the oldest buffered fact (FIFO buffers — the
    /// round-synchronous runs used in the proof of Theorem 16).
    #[default]
    Fifo,
    /// Deliver a uniformly random buffered fact, drawn from a splitmix
    /// stream keyed by `(seed, round, node)` — deterministic for a given
    /// seed and independent of thread count, but exercising non-FIFO
    /// reorderings.
    Random {
        /// Stream seed.
        seed: u64,
    },
}

impl RoundScheduling {
    /// The buffer index to deliver at `node_idx` in `round` from a
    /// buffer of length `len` (which must be nonzero).
    pub(crate) fn pick(&self, round: usize, node_idx: usize, len: usize) -> usize {
        match self {
            RoundScheduling::Fifo => 0,
            RoundScheduling::Random { seed } => {
                let mut x = seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add((round as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9))
                    .wrapping_add((node_idx as u64).wrapping_mul(0x94d0_49bb_1331_11eb));
                // splitmix64 finalizer
                x ^= x >> 30;
                x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
                x ^= x >> 27;
                x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
                x ^= x >> 31;
                (x % len as u64) as usize
            }
        }
    }
}

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

/// Options for a sharded run.
#[derive(Clone, Debug)]
pub struct ShardOptions {
    /// Serial reference or sharded execution.
    pub mode: ExecMode,
    /// Node-to-shard assignment.
    pub plan: ShardPlan,
    /// Per-round delivery choice.
    pub scheduling: RoundScheduling,
    /// Per-round delivery batching.
    pub delivery: DeliveryPolicy,
    /// Record the full [`TransitionLog`] (costly on long runs; used by
    /// the determinism property tests).
    pub record_log: bool,
}

impl Default for ShardOptions {
    /// Auto-sharded FIFO execution. Resolves the thread count (env
    /// read + parallelism probe) at construction — inside tight loops
    /// prefer [`ShardOptions::serial`] / [`ShardOptions::sharded`],
    /// which don't probe.
    fn default() -> Self {
        ShardOptions {
            mode: ExecMode::sharded_auto(),
            ..ShardOptions::serial()
        }
    }
}

impl ShardOptions {
    /// The serial reference configuration (FIFO, one delivery per
    /// round, no log).
    pub fn serial() -> Self {
        ShardOptions {
            mode: ExecMode::Serial,
            plan: ShardPlan::Contiguous,
            scheduling: RoundScheduling::Fifo,
            delivery: DeliveryPolicy::One,
            record_log: false,
        }
    }

    /// Sharded execution with an explicit thread count.
    pub fn sharded(threads: usize) -> Self {
        ShardOptions {
            mode: ExecMode::Sharded { threads },
            ..ShardOptions::serial()
        }
    }

    /// Replace the shard plan.
    pub fn with_plan(mut self, plan: ShardPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Replace the per-round delivery scheduling.
    pub fn with_scheduling(mut self, scheduling: RoundScheduling) -> Self {
        self.scheduling = scheduling;
        self
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
    /// Worker threads actually used (1 for [`ExecMode::Serial`]).
    pub threads_used: usize,
    /// High-water mark of a single phase's job count — the active
    /// frontier. The dense round-synchronous executor heartbeats every
    /// up node each round, so here this is typically the node count;
    /// the sparse executor's ([`crate::sparse`]) whole point is keeping
    /// it small.
    pub max_active: usize,
    /// The transition log, when [`ShardOptions::record_log`] was set.
    pub log: Option<TransitionLog>,
}

/// One computed local transition, before the barrier merge.
pub(crate) struct StepOut {
    pub(crate) output: Relation,
    pub(crate) sent: Vec<Fact>,
    pub(crate) state_changed: bool,
    /// Trace events recorded while computing this step (empty below
    /// `RTX_TRACE=full`). Drained from the executing thread's buffer
    /// per job, so the coordinator can splice them back in node order
    /// at the barrier — the merged trace is deterministic regardless
    /// of which shard ran the job.
    pub(crate) events: Vec<rtx_obs::Event>,
}

/// What a phase job does at its node.
#[derive(Clone, Debug)]
pub(crate) enum JobKind {
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
pub(crate) type Job = (usize, JobKind);

/// Phase execution backends. Both compute, for each job `(idx, rcv)`,
/// the local transition of node `idx` and update that node's state;
/// the coordinator merges the results identically for both, which is
/// what makes sharded ≡ serial hold by construction. Shared with the
/// event-driven executor in [`crate::sparse`], whose coordinator feeds
/// the same engines much smaller phases.
pub(crate) enum Engine<'scope> {
    Serial {
        states: Vec<Instance>,
        transducer: &'scope Transducer,
    },
    Sharded(ShardedEngine<'scope>),
}

pub(crate) struct ShardedEngine<'scope> {
    /// Shard owning each node index.
    owner: Vec<usize>,
    /// Per-worker job senders.
    to_workers: Vec<mpsc::Sender<Vec<Job>>>,
    /// Shared reply channel.
    from_workers: mpsc::Receiver<WorkerReply>,
    /// Scoped worker handles (joined on drop of the scope).
    #[allow(dead_code)]
    handles: Vec<std::thread::ScopedJoinHandle<'scope, ()>>,
}

enum WorkerReply {
    /// Phase results, or the failing node's index plus its error.
    Phase(Result<Vec<(usize, StepOut)>, (usize, NetError)>),
    Final(Vec<(usize, Instance)>),
}

impl Engine<'_> {
    /// Execute one phase. Returns the step results keyed by node index.
    pub(crate) fn execute(&mut self, jobs: Vec<Job>) -> Result<BTreeMap<usize, StepOut>, NetError> {
        match self {
            Engine::Serial { states, transducer } => {
                let mut out = BTreeMap::new();
                for (idx, received) in jobs {
                    let res = step_node(transducer, &mut states[idx], received, idx)?;
                    out.insert(idx, res);
                }
                Ok(out)
            }
            Engine::Sharded(sh) => {
                let mut batches: Vec<Vec<Job>> = vec![Vec::new(); sh.to_workers.len()];
                for (idx, received) in jobs {
                    batches[sh.owner[idx]].push((idx, received));
                }
                for (tx, batch) in sh.to_workers.iter().zip(batches) {
                    tx.send(batch).map_err(|_| worker_gone())?;
                }
                let mut out = BTreeMap::new();
                // Keep the error of the lowest node index, so the
                // reported error matches the serial engine's (which
                // fails at the first erroring job in node order)
                // regardless of worker timing.
                let mut first_err: Option<(usize, NetError)> = None;
                for _ in 0..sh.to_workers.len() {
                    match sh.from_workers.recv().map_err(|_| worker_gone())? {
                        WorkerReply::Phase(Ok(results)) => {
                            for (idx, res) in results {
                                out.insert(idx, res);
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
                    None => Ok(out),
                }
            }
        }
    }

    /// Tear down the engine and return the final states, in node order.
    pub(crate) fn finish(self, n_nodes: usize) -> Result<Vec<Instance>, NetError> {
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

pub(crate) fn worker_gone() -> NetError {
    NetError::Topology("sharded runtime: a worker shard terminated unexpectedly".into())
}

/// Perform one job on `state` in place, returning the observable
/// parts. `idx` is the node index, carried only by the trace events.
pub(crate) fn step_node(
    transducer: &Transducer,
    state: &mut Instance,
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
    let mut out = step_node_inner(transducer, state, kind)?;
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
    kind: JobKind,
) -> Result<StepOut, NetError> {
    let mut rcv = Instance::empty(transducer.schema().message().clone());
    match kind {
        JobKind::Heartbeat => {}
        JobKind::Deliver(f) => {
            rcv.insert_fact(f).map_err(NetError::Rel)?;
        }
        JobKind::WipeMemory => {
            let cleared = wipe_memory_relations(transducer, state).map_err(NetError::Rel)?;
            return Ok(StepOut {
                output: Relation::empty(transducer.schema().output_arity()),
                sent: Vec::new(),
                state_changed: cleared,
                events: Vec::new(),
            });
        }
    }
    let res = transducer.step(state, &rcv).map_err(NetError::Eval)?;
    *state = res.new_state;
    Ok(StepOut {
        output: res.output,
        sent: res.sent.facts().collect(),
        state_changed: res.state_changed,
        events: Vec::new(),
    })
}

/// Drive a round-synchronous run of `(net, transducer)` from the
/// initial configuration for `partition`.
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

/// Drive a round-synchronous run from an explicit configuration.
pub fn run_sharded_from(
    net: &Network,
    transducer: &Transducer,
    cfg: Configuration,
    opts: &ShardOptions,
    budget: &RunBudget,
) -> Result<ShardRunOutcome, NetError> {
    run_sharded_inner(net, transducer, cfg, opts, budget, None)
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
    run_sharded_inner(net, transducer, cfg, opts, budget, Some(faults))
}

/// A configuration decomposed into indexed parallel arrays: node ids,
/// states, buffers, and adjacency (neighbor indices).
pub(crate) type Decomposed = (Vec<NodeId>, Vec<Instance>, Vec<Vec<Fact>>, Vec<Vec<usize>>);

/// Validate `cfg` against `net` and decompose it into the indexed shape
/// the round executors work on. The adjacency lists are in node-index
/// order; BTreeSet neighbor order coincides with ascending node order,
/// matching the serial drivers' enqueue order. Shared by the
/// round-synchronous and the sparse executor.
pub(crate) fn decompose(net: &Network, cfg: Configuration) -> Result<Decomposed, NetError> {
    let parts = cfg.into_parts();
    if parts.len() != net.len() || !parts.iter().all(|(n, _, _)| net.contains(n)) {
        return Err(NetError::Topology(
            "configuration nodes differ from the network's".into(),
        ));
    }
    let nodes: Vec<NodeId> = parts.iter().map(|(n, _, _)| *n).collect();
    let mut states: Vec<Instance> = Vec::with_capacity(parts.len());
    let mut buffers: Vec<Vec<Fact>> = Vec::with_capacity(parts.len());
    for (_, st, buf) in parts {
        states.push(st);
        buffers.push(buf);
    }
    let index: BTreeMap<&NodeId, usize> = nodes.iter().enumerate().map(|(i, n)| (n, i)).collect();
    let adj: Vec<Vec<usize>> = nodes
        .iter()
        .map(|n| net.neighbors(n).map(|m| index[m]).collect())
        .collect();
    Ok((nodes, states, buffers, adj))
}

/// Spawn the worker shards for a sharded run inside `scope` and return
/// the engine facade. Callers with `threads <= 1` should construct
/// [`Engine::Serial`] directly instead.
pub(crate) fn spawn_sharded_engine<'scope, 'env>(
    scope: &'scope std::thread::Scope<'scope, 'env>,
    transducer: &'env Transducer,
    nodes: &[NodeId],
    states: Vec<Instance>,
    plan: ShardPlan,
    threads: usize,
) -> Engine<'scope> {
    let owner: Vec<usize> = nodes
        .iter()
        .enumerate()
        .map(|(i, n)| plan.assign(i, n, nodes.len(), threads))
        .collect();
    let mut shard_states: Vec<Vec<(usize, Instance)>> = vec![Vec::new(); threads];
    for (i, st) in states.into_iter().enumerate() {
        shard_states[owner[i]].push((i, st));
    }
    let (reply_tx, from_workers) = mpsc::channel();
    let mut to_workers = Vec::with_capacity(threads);
    let mut handles = Vec::with_capacity(threads);
    for shard in shard_states {
        let (job_tx, job_rx) = mpsc::channel::<Vec<Job>>();
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

fn run_sharded_inner(
    net: &Network,
    transducer: &Transducer,
    cfg: Configuration,
    opts: &ShardOptions,
    budget: &RunBudget,
    faults: Option<&mut dyn FaultHook>,
) -> Result<ShardRunOutcome, NetError> {
    let (nodes, states, buffers, adj) = decompose(net, cfg)?;
    let threads = opts.mode.threads().min(nodes.len()).max(1);
    match opts.mode {
        ExecMode::Sharded { .. } if threads > 1 => std::thread::scope(|scope| {
            let engine =
                spawn_sharded_engine(scope, transducer, &nodes, states, opts.plan, threads);
            drive(
                net, transducer, &nodes, &adj, buffers, engine, threads, opts, budget, faults,
            )
        }),
        _ => {
            let engine = Engine::Serial { states, transducer };
            drive(
                net, transducer, &nodes, &adj, buffers, engine, 1, opts, budget, faults,
            )
        }
    }
}

/// A worker shard: owns the states of its nodes for the whole run,
/// executes its slice of each phase, and hands the states back when the
/// job channel closes.
fn worker_loop(
    transducer: &Transducer,
    mut shard: Vec<(usize, Instance)>,
    jobs: mpsc::Receiver<Vec<Job>>,
    replies: mpsc::Sender<WorkerReply>,
) {
    let mut slot: BTreeMap<usize, usize> = shard
        .iter()
        .enumerate()
        .map(|(pos, (idx, _))| (*idx, pos))
        .collect();
    while let Ok(batch) = jobs.recv() {
        let mut results = Vec::with_capacity(batch.len());
        let mut err = None;
        for (idx, received) in batch {
            let pos = match slot.get(&idx) {
                Some(&p) => p,
                None => {
                    err = Some((idx, worker_gone()));
                    break;
                }
            };
            match step_node(transducer, &mut shard[pos].1, received, idx) {
                Ok(res) => results.push((idx, res)),
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
    slot.clear();
    let _ = replies.send(WorkerReply::Final(shard));
}

/// The coordinator loop shared by both engines. All ordering decisions
/// (phase truncation, delivery picks, outbox merge, record order) are
/// made here from engine-independent data, which is why the two engines
/// agree bit for bit.
#[allow(clippy::too_many_arguments)]
fn drive(
    net: &Network,
    transducer: &Transducer,
    nodes: &[NodeId],
    adj: &[Vec<usize>],
    mut buffers: Vec<Vec<Fact>>,
    mut engine: Engine<'_>,
    threads_used: usize,
    opts: &ShardOptions,
    budget: &RunBudget,
    mut faults: Option<&mut dyn FaultHook>,
) -> Result<ShardRunOutcome, NetError> {
    let n = nodes.len();
    let t0 = rtx_obs::counting().then(std::time::Instant::now);
    let arity = transducer.schema().output_arity();
    let mut output = Relation::empty(arity);
    let mut outputs_per_node: BTreeMap<NodeId, Relation> = nodes
        .iter()
        .map(|nd| (*nd, Relation::empty(arity)))
        .collect();
    let mut steps = 0usize;
    let mut heartbeats = 0usize;
    let mut deliveries = 0usize;
    let mut messages_enqueued = 0usize;
    let mut rounds = 0usize;
    let mut max_active = 0usize;
    let mut quiescent = false;
    let mut reached_target = false;
    let mut log = opts.record_log.then(TransitionLog::new);
    // In-flight copies under fault injection: maturity round → the
    // copies released into destination buffers at its start, in the
    // deterministic order the merge produced them.
    let mut held: BTreeMap<u64, Vec<(usize, Fact)>> = BTreeMap::new();
    // Which nodes are down this round (skip heartbeat and delivery).
    let mut down = vec![false; n];
    // Consecutive rounds that executed no transition at all.
    let mut idle_rounds = 0usize;

    // Merge one phase's results at the barrier, in node order: absorb
    // outputs, append outboxes to destination buffers (consulting the
    // fault hook for each copy's fate), build records.
    let merge = |now: u64,
                 jobs: Vec<Job>,
                 results: &mut BTreeMap<usize, StepOut>,
                 buffers: &mut Vec<Vec<Fact>>,
                 held: &mut BTreeMap<u64, Vec<(usize, Fact)>>,
                 faults: &mut Option<&mut dyn FaultHook>,
                 output: &mut Relation,
                 outputs_per_node: &mut BTreeMap<NodeId, Relation>,
                 messages_enqueued: &mut usize,
                 log: &mut Option<TransitionLog>|
     -> Result<bool, NetError> {
        let mut all_quiet = true;
        for (idx, kind) in jobs {
            let mut res = results.remove(&idx).ok_or_else(worker_gone)?;
            trace::splice(std::mem::take(&mut res.events));
            let new_out = !res.output.is_subset(output);
            if res.state_changed || !res.sent.is_empty() || new_out {
                all_quiet = false;
            }
            *output = output.union(&res.output).map_err(NetError::Rel)?;
            let per = outputs_per_node.get_mut(&nodes[idx]).expect("known node");
            *per = per.union(&res.output).map_err(NetError::Rel)?;
            let mut enqueued = 0usize;
            for &d in &adj[idx] {
                match faults {
                    None => {
                        for f in &res.sent {
                            buffers[d].push(f.clone());
                            enqueued += 1;
                        }
                    }
                    Some(fh) => {
                        for (k, f) in res.sent.iter().enumerate() {
                            let fate = fh.on_send(now, idx, d, k, f);
                            fate.trace(idx, d);
                            for &delay in &fate.delays {
                                if delay == 0 {
                                    buffers[d].push(f.clone());
                                } else {
                                    held.entry(now + delay).or_default().push((d, f.clone()));
                                }
                                enqueued += 1;
                            }
                        }
                    }
                }
            }
            *messages_enqueued += enqueued;
            if let Some(log) = log {
                log.push(TransitionRecord {
                    node: nodes[idx],
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
        Ok(all_quiet)
    };

    while steps < budget.max_steps {
        if let Some(target) = &budget.target_output {
            if !target.is_empty() && &output == target {
                reached_target = true;
                break;
            }
        }
        rounds += 1;
        let now = rounds as u64;
        let _round_span = trace::span("net", "round", &[("round", now as i64)]);

        // Fault phase (coordinator-only, deterministic): release
        // matured in-flight copies, resolve node statuses, run restart
        // wipes. None of this counts as paper transitions.
        let mut fault_horizon_passed = true;
        if let Some(fh) = faults.as_deref_mut() {
            let _fault_span = trace::span("net", "phase.fault", &[]);
            let due: Vec<u64> = held.range(..=now).map(|(k, _)| *k).collect();
            for k in due {
                for (dst, fact) in held.remove(&k).unwrap_or_default() {
                    rtx_obs::event!("net", "fault.release", "node" => dst);
                    buffers[dst].push(fact);
                }
            }
            let mut wipes: Vec<Job> = Vec::new();
            for (i, d) in down.iter_mut().enumerate() {
                match fh.node_fault(now, i) {
                    NodeFault::Up => *d = false,
                    NodeFault::CrashNow { lose_buffer } => {
                        *d = true;
                        rtx_obs::event!("net", "fault.crash", "node" => i, "lose_buffer" => lose_buffer as i64);
                        if lose_buffer {
                            buffers[i].clear();
                        }
                    }
                    NodeFault::Down => *d = true,
                    NodeFault::RestartNow { wipe_memory } => {
                        *d = false;
                        rtx_obs::event!("net", "fault.restart", "node" => i, "wipe_memory" => wipe_memory as i64);
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
                let mut results = engine.execute(wipes.clone())?;
                for (idx, _) in wipes {
                    if let Some(mut res) = results.remove(&idx) {
                        trace::splice(std::mem::take(&mut res.events));
                    }
                }
            }
            fault_horizon_passed = now > fh.quiet_after() && held.is_empty();
        }

        let stable_probe = buffers.iter().all(Vec::is_empty);

        // Heartbeat phase: every up node, truncated at the budget.
        let quota = budget.max_steps - steps;
        let hb_jobs: Vec<Job> = (0..n)
            .filter(|&i| !down[i])
            .take(quota)
            .map(|i| (i, JobKind::Heartbeat))
            .collect();
        let hb_count = hb_jobs.len();
        max_active = max_active.max(hb_count);
        let hb_span = trace::span("net", "phase.heartbeat", &[("jobs", hb_count as i64)]);
        let mut results = engine.execute(hb_jobs.clone())?;
        let all_quiet = merge(
            now,
            hb_jobs,
            &mut results,
            &mut buffers,
            &mut held,
            &mut faults,
            &mut output,
            &mut outputs_per_node,
            &mut messages_enqueued,
            &mut log,
        )?;
        drop(hb_span);
        steps += hb_count;
        heartbeats += hb_count;
        if stable_probe && all_quiet && hb_count == n && fault_horizon_passed {
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
            if !target.is_empty() && &output == target {
                reached_target = true;
                break;
            }
        }

        // Delivery phase(s): one fact per node with mail per sub-phase,
        // up to the batching policy's cap, truncated at the budget.
        // Facts are removed before each sub-phase, so the deliveries of
        // a sub-phase are independent and run in parallel; their
        // outboxes merge at the sub-phase barrier (visible to the next
        // sub-phase, exactly as in back-to-back singleton rounds).
        let mut delivered_this_round = 0usize;
        for sub in 0..opts.delivery.per_round() {
            if steps >= budget.max_steps {
                break;
            }
            let quota = budget.max_steps - steps;
            let mut dl_jobs: Vec<Job> = Vec::new();
            for (i, buf) in buffers.iter_mut().enumerate() {
                if dl_jobs.len() >= quota {
                    break;
                }
                if !buf.is_empty() && !down[i] {
                    let pick = opts.scheduling.pick(rounds, i, buf.len());
                    dl_jobs.push((i, JobKind::Deliver(buf.remove(pick))));
                }
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
            let mut results = engine.execute(dl_jobs.clone())?;
            merge(
                now,
                dl_jobs,
                &mut results,
                &mut buffers,
                &mut held,
                &mut faults,
                &mut output,
                &mut outputs_per_node,
                &mut messages_enqueued,
                &mut log,
            )?;
            steps += dl_count;
            deliveries += dl_count;
            delivered_this_round += dl_count;
        }
        if hb_count == 0 && delivered_this_round == 0 {
            if fault_horizon_passed {
                // Every node is down, nothing matured, and the fault
                // plan has no further node events: the network is dead
                // forever. Stop (non-quiescent) instead of spinning.
                break;
            }
            // All nodes down but a restart (or an in-flight copy) is
            // still ahead. Idle rounds consume no budget steps, so a
            // hook with a distant horizon could spin unboundedly —
            // cap consecutive idle rounds at the step budget (an idle
            // streak longer than the budget could never be followed by
            // that much work anyway).
            idle_rounds += 1;
            if idle_rounds > budget.max_steps {
                break;
            }
        } else {
            idle_rounds = 0;
        }
    }

    if let Some(target) = &budget.target_output {
        if &output == target && (quiescent || !target.is_empty()) {
            reached_target = true;
        }
    }

    let states = engine.finish(n)?;
    let final_config = Configuration::from_parts(
        nodes
            .iter()
            .cloned()
            .zip(states)
            .zip(buffers)
            .map(|((nd, st), buf)| (nd, st, buf)),
    );
    debug_assert_eq!(net.len(), n);
    let out = ShardRunOutcome {
        outcome: RunOutcome {
            output,
            outputs_per_node,
            steps,
            heartbeats,
            deliveries,
            messages_enqueued,
            quiescent,
            reached_target,
            final_config,
        },
        rounds,
        threads_used,
        max_active,
        log,
    };
    if let Some(t0) = t0 {
        out.publish();
        rtx_obs::registry::record("net.run_ns", t0.elapsed().as_nanos() as u64);
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

    fn cq(rule: rtx_query::CqRule) -> QueryRef {
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
            for plan in [
                ShardPlan::Contiguous,
                ShardPlan::RoundRobin,
                ShardPlan::Hash,
            ] {
                let opts = ShardOptions::sharded(threads).with_plan(plan).with_log();
                let sharded = run_sharded(&net, &t, &p, &opts, &budget).unwrap();
                assert_eq!(sharded.outcome.output, serial.outcome.output);
                assert_eq!(
                    sharded.outcome.outputs_per_node,
                    serial.outcome.outputs_per_node
                );
                assert_eq!(sharded.outcome.steps, serial.outcome.steps);
                assert_eq!(sharded.outcome.final_config, serial.outcome.final_config);
                assert_eq!(sharded.log, serial.log, "threads={threads} plan={plan:?}");
                assert_eq!(sharded.rounds, serial.rounds);
            }
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
    fn random_scheduling_is_deterministic_and_confluent_here() {
        let net = Network::grid(3, 3).unwrap();
        let t = dedup_flooder();
        let p = HorizontalPartition::round_robin(&net, &input_s(&[1, 2, 3, 4, 5]));
        let budget = RunBudget::steps(200_000);
        let fifo = run_sharded(&net, &t, &p, &ShardOptions::serial(), &budget).unwrap();
        for seed in [1u64, 42, 1337] {
            let opts = ShardOptions::sharded(4)
                .with_scheduling(RoundScheduling::Random { seed })
                .with_log();
            let a = run_sharded(&net, &t, &p, &opts, &budget).unwrap();
            let b = run_sharded(&net, &t, &p, &opts, &budget).unwrap();
            assert_eq!(a.log, b.log, "same seed must replay identically");
            assert!(a.outcome.quiescent);
            assert_eq!(a.outcome.output, fifo.outcome.output);
        }
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
    fn shard_plans_cover_all_shards() {
        let nodes: Vec<NodeId> = (0..16).map(|i| NodeId::sym(format!("n{i}"))).collect();
        for plan in [
            ShardPlan::Contiguous,
            ShardPlan::RoundRobin,
            ShardPlan::Hash,
        ] {
            let mut hit = [false; 4];
            for (i, n) in nodes.iter().enumerate() {
                let s = plan.assign(i, n, nodes.len(), 4);
                assert!(s < 4);
                hit[s] = true;
            }
            assert!(hit.iter().all(|&h| h), "{plan:?} left a shard empty");
        }
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
    fn exec_mode_threads_and_auto() {
        assert_eq!(ExecMode::Serial.threads(), 1);
        assert_eq!(ExecMode::Sharded { threads: 0 }.threads(), 1);
        assert_eq!(ExecMode::Sharded { threads: 6 }.threads(), 6);
        assert!(ExecMode::sharded_auto().threads() >= 1);
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

    #[test]
    fn round_scheduling_picks_in_range() {
        let r = RoundScheduling::Random { seed: 9 };
        for round in 0..20 {
            for node in 0..10 {
                for len in 1..6 {
                    let i = r.pick(round, node, len);
                    assert!(i < len);
                }
            }
        }
        assert_eq!(RoundScheduling::Fifo.pick(3, 4, 5), 0);
    }
}
