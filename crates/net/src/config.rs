//! System configurations and global transitions (paper, Section 3).
//!
//! A configuration maps every node to a transducer state and a buffer of
//! undelivered messages. The paper's buffers are multisets; ours keep
//! arrival order as well, so that schedulers can realize FIFO behaviour
//! (the proof of Theorem 16 constructs a run with FIFO buffers), LIFO
//! behaviour, or arbitrary reorderings — the multiset semantics is
//! recovered by ignoring the order.
//!
//! A configuration is stored by dense node index, like its
//! [`Network`]: one shared, name-sorted node list, and the states,
//! buffers and last additions as vectors in that order. Names remain
//! the identity and the order everything observable follows.

use crate::error::NetError;
use crate::partition::HorizontalPartition;
use crate::topology::{Network, NodeId};
use rtx_relational::{Fact, FactMultiset, Instance, Relation};
use rtx_transducer::{all_relation, Added, Transducer};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// What kind of global transition happened.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransitionKind {
    /// `γ1 --v,∅--> γ2`: a node transitions without reading messages.
    Heartbeat,
    /// `γ1 --v,{f}--> γ2`: a node reads a single fact from its buffer.
    Delivery(Fact),
}

/// A record of one applied global transition.
#[derive(Clone, Debug, PartialEq)]
pub struct TransitionRecord {
    /// The node that transitioned.
    pub node: NodeId,
    /// The 1-based round the transition executed in, when the record
    /// was produced by a round executor ([`crate::run_sharded`],
    /// [`crate::run_sparse`]); 0 for scheduler-driven applications
    /// ([`Configuration::apply_heartbeat`] and friends), which have no
    /// round structure.
    pub round: u64,
    /// Heartbeat or delivery (with the delivered fact).
    pub kind: TransitionKind,
    /// The output `J_out` of the local transition.
    pub output: Relation,
    /// Number of facts sent (each is enqueued at every neighbor).
    pub sent_facts: usize,
    /// Number of buffer entries added across all neighbors.
    pub enqueued: usize,
    /// Did the node's state change?
    pub state_changed: bool,
}

impl TransitionRecord {
    /// A transition that changed nothing observable.
    pub fn is_noop(&self) -> bool {
        !self.state_changed && self.sent_facts == 0 && self.output.is_empty()
    }
}

/// An ordered log of applied transitions.
///
/// The sharded runtime builds one log per run by appending phase records
/// in a fixed node order, so two runs agree step for step exactly when
/// their logs are equal — the determinism invariant of
/// [`crate::run_sharded`] is stated (and property-tested) as log
/// equality. Logs from disjoint shards merge by concatenation.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TransitionLog {
    records: Vec<TransitionRecord>,
}

impl TransitionLog {
    /// An empty log.
    pub fn new() -> Self {
        TransitionLog::default()
    }

    /// Append one record.
    pub fn push(&mut self, rec: TransitionRecord) {
        self.records.push(rec);
    }

    /// Append every record of `other`, in order (shard merge).
    pub fn merge(&mut self, other: TransitionLog) {
        self.records.extend(other.records);
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Is the log empty?
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The records, in application order.
    pub fn records(&self) -> &[TransitionRecord] {
        &self.records
    }

    /// Iterate over the records.
    pub fn iter(&self) -> impl Iterator<Item = &TransitionRecord> {
        self.records.iter()
    }
}

impl FromIterator<TransitionRecord> for TransitionLog {
    fn from_iter<I: IntoIterator<Item = TransitionRecord>>(iter: I) -> Self {
        TransitionLog {
            records: iter.into_iter().collect(),
        }
    }
}

/// A configuration of a transducer network.
#[derive(Clone)]
pub struct Configuration {
    /// The nodes, strictly ascending by name; position `i` of each
    /// vector below belongs to `nodes[i]`. Shared by handle with the
    /// [`Network`] the configuration was built on, if any
    /// ([`Configuration::from_parts`] builds its own).
    nodes: Arc<[NodeId]>,
    states: Vec<Instance>,
    buffers: Vec<Vec<Fact>>,
    /// Each node's last transition's
    /// [`StepResult::added`](rtx_transducer::StepResult::added), which
    /// its next transition reads ([`Transducer::step_after`]); empty
    /// until a transition reports additions. Not part of the
    /// configuration's value: equality and `Debug` ignore it, and
    /// [`Configuration::into_parts`] drops it, so a node's first
    /// transition after a reassembly evaluates in full.
    added: Vec<Option<Added>>,
}

impl PartialEq for Configuration {
    fn eq(&self, other: &Self) -> bool {
        self.nodes == other.nodes && self.states == other.states && self.buffers == other.buffers
    }
}

impl Eq for Configuration {}

impl Configuration {
    /// The initial configuration for a horizontal partition: every node
    /// holds its input fragment, `Id`/`All` are set, memory and buffers
    /// are empty (paper, Section 4).
    ///
    /// `All` is built once, in one bulk construction, and every node
    /// shares it by handle, so set-up costs one `All` rather than one
    /// per node.
    pub fn initial(
        net: &Network,
        transducer: &Transducer,
        partition: &HorizontalPartition,
    ) -> Result<Self, NetError> {
        Configuration::with_all(net, transducer, partition, &all_relation(&net.node_set()))
    }

    /// Like [`Configuration::initial`], but the `All` system relation is
    /// populated *on demand*: only when some query of the transducer
    /// actually references `All` (per [`rtx_transducer::Classification`],
    /// the same syntactic check the obliviousness analysis uses).
    ///
    /// [`Configuration::initial`] already shares one `All` across the
    /// nodes, so the eager form costs one `n`-tuple relation plus a
    /// handle per node; the lean form skips even that, and leaves
    /// every node's `All` empty for transducers that never read it
    /// (every oblivious machine, including the flooding constructions).
    /// For transducers that do reference `All` this is identical to
    /// [`Configuration::initial`]; for the rest, the only difference is
    /// the absent (never-consulted) `All` tuples, so run outputs, logs,
    /// and quiescence verdicts are unaffected — only `final_config`
    /// comparisons against eagerly-built configurations would notice.
    pub fn initial_lean(
        net: &Network,
        transducer: &Transducer,
        partition: &HorizontalPartition,
    ) -> Result<Self, NetError> {
        let uses_all = rtx_transducer::Classification::of(transducer)
            .system_usage
            .uses_all;
        let all = if uses_all {
            all_relation(&net.node_set())
        } else {
            Relation::empty(1)
        };
        Configuration::with_all(net, transducer, partition, &all)
    }

    /// The initial configuration with every node sharing `all` as its
    /// `All` relation. The partition's fragments are in node order too,
    /// so one walk pairs each node with its fragment.
    fn with_all(
        net: &Network,
        transducer: &Transducer,
        partition: &HorizontalPartition,
        all: &Relation,
    ) -> Result<Self, NetError> {
        let mut fragments = partition.iter().peekable();
        let mut states = Vec::with_capacity(net.len());
        for node in net.nodes() {
            // Skip fragments of nodes the network lacks.
            while fragments.next_if(|(n, _)| *n < node).is_some() {}
            let Some((_, fragment)) = fragments.next_if(|(n, _)| *n == node) else {
                return Err(NetError::Partition(format!("no fragment for node {node}")));
            };
            let state = transducer
                .schema()
                .initial_state_with_all(fragment, node, all)
                .map_err(NetError::Rel)?;
            states.push(state);
        }
        Ok(Configuration::from_vectors(
            Arc::clone(net.node_list()),
            states,
            vec![Vec::new(); net.len()],
        ))
    }

    /// A configuration over `nodes` (strictly ascending), with
    /// `states` and `buffers` in the same order.
    pub(crate) fn from_vectors(
        nodes: Arc<[NodeId]>,
        states: Vec<Instance>,
        buffers: Vec<Vec<Fact>>,
    ) -> Self {
        debug_assert!(nodes.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(states.len() == nodes.len() && buffers.len() == nodes.len());
        Configuration {
            nodes,
            states,
            buffers,
            added: Vec::new(),
        }
    }

    /// The node list, states and buffers, in node order (the inverse of
    /// [`Configuration::from_vectors`]).
    pub(crate) fn into_vectors(self) -> (Arc<[NodeId]>, Vec<Instance>, Vec<Vec<Fact>>) {
        (self.nodes, self.states, self.buffers)
    }

    /// Decompose into per-node `(state, buffer)` pairs, in node order.
    ///
    /// This is the shape the sharded runtime works on: states are
    /// distributed to worker shards (each node's state is only ever read
    /// and written by its owning shard) while buffers stay with the
    /// coordinator, which merges outboxes into them in a fixed order.
    /// [`Configuration::from_parts`] reassembles the configuration.
    pub fn into_parts(self) -> Vec<(NodeId, Instance, Vec<Fact>)> {
        self.nodes
            .iter()
            .copied()
            .zip(self.states)
            .zip(self.buffers)
            .map(|((n, st), buf)| (n, st, buf))
            .collect()
    }

    /// Reassemble a configuration from per-node parts (inverse of
    /// [`Configuration::into_parts`]). The parts may come in any order;
    /// of two parts for one node, the later wins.
    pub fn from_parts(parts: impl IntoIterator<Item = (NodeId, Instance, Vec<Fact>)>) -> Self {
        let mut parts: Vec<(NodeId, Instance, Vec<Fact>)> = parts.into_iter().collect();
        // A stable sort keeps repeated nodes in their given order.
        parts.sort_by_key(|p| p.0);
        let mut nodes = Vec::with_capacity(parts.len());
        let mut states = Vec::with_capacity(parts.len());
        let mut buffers = Vec::with_capacity(parts.len());
        let mut parts = parts.into_iter().peekable();
        while let Some((n, st, buf)) = parts.next() {
            if parts.peek().is_some_and(|(m, _, _)| *m == n) {
                continue;
            }
            nodes.push(n);
            states.push(st);
            buffers.push(buf);
        }
        Configuration::from_vectors(nodes.into(), states, buffers)
    }

    /// The position of `node` in the node order.
    fn position(&self, node: &NodeId) -> Option<usize> {
        self.nodes.binary_search(node).ok()
    }

    /// The state of a node.
    pub fn state(&self, node: &NodeId) -> Option<&Instance> {
        self.position(node).map(|i| &self.states[i])
    }

    /// The message buffer of a node, in arrival order.
    pub fn buffer(&self, node: &NodeId) -> &[Fact] {
        self.position(node).map_or(&[], |i| &self.buffers[i])
    }

    /// The buffer of a node as a multiset (order-insensitive view).
    pub fn buffer_multiset(&self, node: &NodeId) -> FactMultiset {
        self.buffer(node).iter().cloned().collect()
    }

    /// Are all buffers empty?
    pub fn all_buffers_empty(&self) -> bool {
        self.buffers.iter().all(Vec::is_empty)
    }

    /// Total number of undelivered messages.
    pub fn buffered_total(&self) -> usize {
        self.buffers.iter().map(Vec::len).sum()
    }

    /// Nodes with a nonempty buffer, in order.
    pub fn nodes_with_mail(&self) -> impl Iterator<Item = &NodeId> {
        self.nodes
            .iter()
            .zip(&self.buffers)
            .filter(|(_, b)| !b.is_empty())
            .map(|(n, _)| n)
    }

    /// Check that this configuration is over exactly `net`'s nodes —
    /// a configuration built for another network would leave a node
    /// without a buffer or never schedule one. Then the configuration's
    /// positions are the network's indices.
    pub(crate) fn check_network(&self, net: &Network) -> Result<(), NetError> {
        if self.nodes == *net.node_list() {
            Ok(())
        } else {
            Err(NetError::Topology(
                "configuration nodes differ from the network's".into(),
            ))
        }
    }

    /// Apply a heartbeat transition at `node`.
    pub fn apply_heartbeat(
        &mut self,
        net: &Network,
        transducer: &Transducer,
        node: &NodeId,
    ) -> Result<TransitionRecord, NetError> {
        let empty = Instance::empty(transducer.schema().message().clone());
        self.apply(
            net,
            transducer,
            node,
            empty,
            TransitionKind::Heartbeat,
            None,
        )
    }

    /// Apply a delivery transition at `node`, reading the buffered fact
    /// at `index` (single-fact delivery, per the paper). The fact leaves
    /// the buffer only when the transition succeeds: a rejected delivery
    /// leaves the configuration as it was.
    pub fn apply_delivery(
        &mut self,
        net: &Network,
        transducer: &Transducer,
        node: &NodeId,
        index: usize,
    ) -> Result<TransitionRecord, NetError> {
        let i = self
            .position(node)
            .ok_or_else(|| NetError::Topology(format!("unknown node {node}")))?;
        let Some(fact) = self.buffers[i].get(index).cloned() else {
            return Err(NetError::Partition(format!(
                "delivery index {index} out of range for node {node} (buffer has {})",
                self.buffers[i].len()
            )));
        };
        let mut received = Instance::empty(transducer.schema().message().clone());
        received.insert_fact(fact.clone()).map_err(NetError::Rel)?;
        self.apply(
            net,
            transducer,
            node,
            received,
            TransitionKind::Delivery(fact),
            Some(index),
        )
    }

    /// Step `node` on `received`. `delivered` is the buffer index of the
    /// delivered fact, which leaves the buffer once the step succeeded.
    fn apply(
        &mut self,
        net: &Network,
        transducer: &Transducer,
        node: &NodeId,
        received: Instance,
        kind: TransitionKind,
        delivered: Option<usize>,
    ) -> Result<TransitionRecord, NetError> {
        let i = self
            .position(node)
            .ok_or_else(|| NetError::Topology(format!("unknown node {node}")))?;
        if !net.contains(node) {
            return Err(NetError::Topology(format!(
                "node {node} is not in the network"
            )));
        }
        // The neighbours' positions here, ascending.
        let targets: Vec<usize> = net
            .neighbors(node)
            .map(|m| {
                self.position(m)
                    .ok_or_else(|| NetError::Topology(format!("neighbor {m} has no buffer")))
            })
            .collect::<Result<_, _>>()?;
        let prev = self.added.get(i).and_then(Option::as_ref);
        let res = transducer
            .step_in_place(&mut self.states[i], &received, prev)
            .map_err(NetError::Eval)?;
        check_stepped_state(transducer, &self.states[i], node);
        if let Some(index) = delivered {
            self.buffers[i].remove(index);
        }
        let sent: Vec<Fact> = res.sent.facts().collect();
        for &j in &targets {
            self.buffers[j].extend(sent.iter().cloned());
        }
        if res.added.is_some() && self.added.is_empty() {
            self.added.resize_with(self.nodes.len(), || None);
        }
        if let Some(slot) = self.added.get_mut(i) {
            *slot = res.added;
        }
        Ok(TransitionRecord {
            node: *node,
            round: 0,
            kind,
            output: res.output,
            sent_facts: sent.len(),
            enqueued: sent.len() * targets.len(),
            state_changed: res.state_changed,
        })
    }
}

/// Activation tracking for the round coordinator: which node indices
/// are *cold* (have not heartbeat yet), which are *armed* (their next
/// heartbeat must be evaluated) and which have *mail* (must be offered a
/// delivery). A node that is neither cold nor armed is *parked*. The
/// dense schedule starts with [`ActivationSet::all_armed`], the sparse
/// schedule ([`crate::sparse`]) with [`ActivationSet::all_cold`].
///
/// Both round schedules park by one rule:
///
/// * a cold node may not park before its first heartbeat, because an
///   initial state can produce output or sends — the sparse schedule
///   sweeps cold nodes through a rate-limited warm-up;
/// * a *quiet* heartbeat — no state change, no sends — parks the node,
///   whether or not it has mail;
/// * only a transition that changed the node's state, or a restart (or
///   a healed partition), arms it again ([`ActivationSet::arm`]);
/// * a fact enqueued to a node marks its mail, and a drained or lost
///   buffer drops the mark; neither arms the node.
///
/// A heartbeat is a deterministic function of the node's state, so
/// while a node stays parked every heartbeat repeats the quiet one it
/// parked on: no state change, no sends, the same output — already
/// accumulated. The dense schedule answers such a heartbeat without
/// stepping the node; the sparse schedule skips it. Parking never
/// starves mail: the executor offers every `mail` node a delivery each
/// round, armed or parked. Dually, quiescence may be certified from
/// [`ActivationSet::is_quiet`] without waking the whole network.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ActivationSet {
    armed: BTreeSet<usize>,
    mail: BTreeSet<usize>,
    /// `warm[i]`: node `i` is not cold.
    warm: Vec<bool>,
    /// The lowest cold index; `warm.len()` once no node is cold.
    cold_from: usize,
}

impl ActivationSet {
    /// The tracker for `n` nodes, all armed, no mail.
    pub fn all_armed(n: usize) -> Self {
        ActivationSet {
            armed: (0..n).collect(),
            mail: BTreeSet::new(),
            warm: vec![true; n],
            cold_from: n,
        }
    }

    /// The tracker for `n` nodes, all cold, no mail.
    pub fn all_cold(n: usize) -> Self {
        ActivationSet {
            armed: BTreeSet::new(),
            mail: BTreeSet::new(),
            warm: vec![false; n],
            cold_from: 0,
        }
    }

    /// A fact was enqueued to `node`: mark mail.
    pub fn note_enqueue(&mut self, node: usize) {
        self.mail.insert(node);
    }

    /// `node` heartbeat; `quiet` means no state change and no sends. A
    /// quiet heartbeat parks the node, any other arms it.
    pub fn note_heartbeat(&mut self, node: usize, quiet: bool) {
        self.warm[node] = true;
        while self.warm.get(self.cold_from) == Some(&true) {
            self.cold_from += 1;
        }
        if quiet {
            self.armed.remove(&node);
        } else {
            self.armed.insert(node);
        }
    }

    /// `node` was handed a buffered fact to deliver;
    /// `buffer_now_empty` reports whether its buffer drained. Whether
    /// the delivery arms the node depends on its outcome: see
    /// [`ActivationSet::arm`].
    pub fn note_delivery(&mut self, node: usize, buffer_now_empty: bool) {
        if buffer_now_empty {
            self.mail.remove(&node);
        }
    }

    /// Arm `node`: a transition changed its state, or it restarted (or
    /// a partition around it healed).
    pub fn arm(&mut self, node: usize) {
        self.armed.insert(node);
    }

    /// `node`'s buffer was lost to a crash: drop its mail mark.
    pub fn note_buffer_lost(&mut self, node: usize) {
        self.mail.remove(&node);
    }

    /// Armed node indices, ascending (the deterministic work queue).
    pub fn armed_nodes(&self) -> impl Iterator<Item = usize> + '_ {
        self.armed.iter().copied()
    }

    /// Cold node indices, ascending (the warm-up queue).
    pub fn cold_nodes(&self) -> impl Iterator<Item = usize> + '_ {
        (self.cold_from..self.warm.len()).filter(|&i| !self.warm[i])
    }

    /// Node indices with pending mail, ascending.
    pub fn mail_nodes(&self) -> impl Iterator<Item = usize> + '_ {
        self.mail.iter().copied()
    }

    /// Is `node` armed?
    pub fn is_armed(&self, node: usize) -> bool {
        self.armed.contains(&node)
    }

    /// Is `node` parked: neither cold nor armed?
    pub fn is_parked(&self, node: usize) -> bool {
        self.warm.get(node) == Some(&true) && !self.armed.contains(&node)
    }

    /// Does `node` have pending mail?
    pub fn has_mail(&self, node: usize) -> bool {
        self.mail.contains(&node)
    }

    /// Number of armed nodes.
    pub fn armed_count(&self) -> usize {
        self.armed.len()
    }

    /// Number of nodes with pending mail.
    pub fn mail_count(&self) -> usize {
        self.mail.len()
    }

    /// Size of the active frontier: nodes that are armed or have mail.
    pub fn active_count(&self) -> usize {
        self.armed.union(&self.mail).count()
    }

    /// No node is cold or armed and no node has mail — together with
    /// empty in-flight state this certifies quiescence.
    pub fn is_quiet(&self) -> bool {
        self.cold_from == self.warm.len() && self.armed.is_empty() && self.mail.is_empty()
    }
}

/// The in-place step's postcondition, checked in debug builds after
/// every transition either executor makes: the stepped state is still
/// an instance of the state schema and populates no message relation.
/// A message relation left in a state would be a stored forged
/// message, read again by every later transition of the node.
pub(crate) fn check_stepped_state(
    transducer: &Transducer,
    state: &Instance,
    node: impl fmt::Display,
) {
    if cfg!(debug_assertions) {
        let schema = transducer.schema();
        assert!(
            state.schema() == schema.state_schema(),
            "node {node}: a step left its state under another schema"
        );
        if let Some((rel, _)) = (state.relations()).find(|(rel, _)| schema.message().contains(rel))
        {
            panic!("node {node}: a step left message relation {rel} in its state");
        }
    }
}

/// Clear the memory relations of a transducer state in place; `true`
/// when anything was cleared. The round coordinator's restart jobs run
/// this under the persistent-EDB semantics: the input fragment and
/// `Id`/`All` are durable, soft state is lost.
pub(crate) fn wipe_memory_relations(
    transducer: &Transducer,
    state: &mut Instance,
) -> Result<bool, rtx_relational::RelError> {
    let mut cleared = false;
    let mem: Vec<(rtx_relational::RelName, usize)> = transducer
        .schema()
        .memory()
        .iter()
        .map(|(n, a)| (n.clone(), a))
        .collect();
    for (name, arity) in mem {
        let nonempty = state
            .relation_ref(&name)
            .map(|r| !r.is_empty())
            .unwrap_or(false);
        if nonempty {
            state.set_relation(name, Relation::empty(arity))?;
            cleared = true;
        }
    }
    Ok(cleared)
}

impl fmt::Debug for Configuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "configuration:")?;
        for ((n, st), buf) in self.nodes.iter().zip(&self.states).zip(&self.buffers) {
            writeln!(
                f,
                "  {n}: state {} facts, buffer {} msgs",
                st.fact_count(),
                buf.len()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtx_query::{atom, CqBuilder, QueryRef, Term, UcqQuery};
    use rtx_relational::{fact, Schema, Tuple};
    use rtx_transducer::TransducerBuilder;
    use std::sync::Arc;

    fn cq(rule: rtx_query::Rule) -> QueryRef {
        Arc::new(UcqQuery::single(rule))
    }

    /// Sends local S on every step; stores received M facts in T.
    fn flooder() -> Transducer {
        TransducerBuilder::new("flooder")
            .input_relation("S", 1)
            .message_relation("M", 1)
            .memory_relation("T", 1)
            .output_arity(1)
            .send(
                "M",
                cq(CqBuilder::head(vec![Term::var("X")])
                    .when(atom!("S"; @"X"))
                    .build()
                    .unwrap()),
            )
            .insert(
                "T",
                cq(CqBuilder::head(vec![Term::var("X")])
                    .when(atom!("M"; @"X"))
                    .build()
                    .unwrap()),
            )
            .output(cq(CqBuilder::head(vec![Term::var("X")])
                .when(atom!("T"; @"X"))
                .build()
                .unwrap()))
            .build()
            .unwrap()
    }

    fn setup() -> (Network, Transducer, Configuration) {
        let net = Network::line(2).unwrap();
        let t = flooder();
        let full = Instance::from_facts(Schema::new().with("S", 1), vec![fact!("S", 7)]).unwrap();
        let p = HorizontalPartition::concentrate(&net, &full, &rtx_relational::Value::sym("n0"))
            .unwrap();
        let cfg = Configuration::initial(&net, &t, &p).unwrap();
        (net, t, cfg)
    }

    #[test]
    fn initial_configuration_shape() {
        let (net, _, cfg) = setup();
        assert!(cfg.all_buffers_empty());
        for n in net.nodes() {
            let st = cfg.state(n).unwrap();
            assert!(st.contains_fact(&Fact::new("Id", rtx_relational::Tuple::new(vec![*n]))));
            assert_eq!(st.relation(&"All".into()).unwrap().len(), 2);
        }
        assert_eq!(
            cfg.state(&rtx_relational::Value::sym("n0"))
                .unwrap()
                .relation(&"S".into())
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn heartbeat_floods_to_neighbors() {
        let (net, t, mut cfg) = setup();
        let n0 = rtx_relational::Value::sym("n0");
        let n1 = rtx_relational::Value::sym("n1");
        let rec = cfg.apply_heartbeat(&net, &t, &n0).unwrap();
        assert_eq!(rec.sent_facts, 1);
        assert_eq!(rec.enqueued, 1); // one neighbor
        assert_eq!(cfg.buffer(&n1).len(), 1);
        assert!(cfg.buffer(&n0).is_empty()); // no self-delivery
    }

    #[test]
    fn delivery_consumes_one_copy_and_updates_state() {
        let (net, t, mut cfg) = setup();
        let n0 = rtx_relational::Value::sym("n0");
        let n1 = rtx_relational::Value::sym("n1");
        cfg.apply_heartbeat(&net, &t, &n0).unwrap();
        cfg.apply_heartbeat(&net, &t, &n0).unwrap(); // second copy
        assert_eq!(cfg.buffer(&n1).len(), 2);
        let rec = cfg.apply_delivery(&net, &t, &n1, 0).unwrap();
        assert!(matches!(rec.kind, TransitionKind::Delivery(_)));
        assert!(rec.state_changed);
        assert_eq!(cfg.buffer(&n1).len(), 1);
        assert!(cfg.state(&n1).unwrap().contains_fact(&fact!("T", 7)));
        // second delivery of the same fact: state no longer changes
        let rec2 = cfg.apply_delivery(&net, &t, &n1, 0).unwrap();
        assert!(!rec2.state_changed);
    }

    #[test]
    fn delivery_index_out_of_range() {
        let (net, t, mut cfg) = setup();
        let n1 = rtx_relational::Value::sym("n1");
        assert!(cfg.apply_delivery(&net, &t, &n1, 0).is_err());
    }

    #[test]
    fn buffer_multiset_view() {
        let (net, t, mut cfg) = setup();
        let n0 = rtx_relational::Value::sym("n0");
        let n1 = rtx_relational::Value::sym("n1");
        cfg.apply_heartbeat(&net, &t, &n0).unwrap();
        cfg.apply_heartbeat(&net, &t, &n0).unwrap();
        let ms = cfg.buffer_multiset(&n1);
        assert_eq!(ms.count(&fact!("M", 7)), 2);
        assert_eq!(cfg.buffered_total(), 2);
        assert_eq!(cfg.nodes_with_mail().count(), 1);
    }

    #[test]
    fn unknown_node_errors() {
        let (net, t, mut cfg) = setup();
        let zz = rtx_relational::Value::sym("zz");
        assert!(cfg.apply_heartbeat(&net, &t, &zz).is_err());
    }

    #[test]
    fn configuration_for_another_network_errors() {
        let (line2, t, cfg2) = setup();
        let line3 = Network::line(3).unwrap();
        let full = Instance::from_facts(Schema::new().with("S", 1), vec![fact!("S", 7)]).unwrap();
        let p3 = HorizontalPartition::replicate(&line3, &full);
        let cfg3 = Configuration::initial(&line3, &t, &p3).unwrap();
        assert!(cfg2.check_network(&line2).is_ok());
        assert!(cfg2.check_network(&line3).is_err());
        assert!(cfg3.check_network(&line2).is_err());
        // On line(3), line(2)'s n1 has a neighbor n2 without a buffer.
        let mut c = cfg2.clone();
        let n1 = rtx_relational::Value::sym("n1");
        let err = c.apply_heartbeat(&line3, &t, &n1).unwrap_err();
        assert!(matches!(err, NetError::Topology(_)), "{err:?}");
        assert!(c == cfg2, "a rejected step leaves the configuration alone");
        // On line(2), line(3)'s n2 is not a node at all.
        let mut c = cfg3.clone();
        let n2 = rtx_relational::Value::sym("n2");
        let err = c.apply_heartbeat(&line2, &t, &n2).unwrap_err();
        assert!(matches!(err, NetError::Topology(_)), "{err:?}");
        assert!(c == cfg3);
    }

    #[test]
    fn a_rejected_delivery_keeps_its_fact() {
        let (line2, t, mut cfg2) = setup();
        let (n0, n1) = (
            rtx_relational::Value::sym("n0"),
            rtx_relational::Value::sym("n1"),
        );
        cfg2.apply_heartbeat(&line2, &t, &n0).unwrap(); // M(7) for n1
        let before = cfg2.buffer(&n1).to_vec();
        assert_eq!(before.len(), 1);
        // On line(3), n1's neighbor n2 has no buffer: the step is refused.
        let line3 = Network::line(3).unwrap();
        let mut c = cfg2.clone();
        let err = c.apply_delivery(&line3, &t, &n1, 0).unwrap_err();
        assert!(matches!(err, NetError::Topology(_)), "{err:?}");
        assert_eq!(c.buffer(&n1), &before[..]);
        assert!(
            c == cfg2,
            "a rejected delivery leaves the configuration alone"
        );
        // A step that fails keeps the fact too.
        let failing = TransducerBuilder::new("failing")
            .input_relation("S", 1)
            .message_relation("M", 1)
            .memory_relation("T", 1)
            .output_arity(1)
            .output(Arc::new(rtx_query::NativeQuery::new(
                "fails",
                1,
                [],
                |_| Err(rtx_query::EvalError::Other("refused".into())),
            )))
            .build()
            .unwrap();
        let mut c = cfg2.clone();
        let err = c.apply_delivery(&line2, &failing, &n1, 0).unwrap_err();
        assert!(matches!(err, NetError::Eval(_)), "{err:?}");
        assert_eq!(c.buffer(&n1), &before[..]);
        assert!(c == cfg2);
        // The same delivery on its own network consumes the fact.
        cfg2.apply_delivery(&line2, &t, &n1, 0).unwrap();
        assert!(cfg2.buffer(&n1).is_empty());
    }

    #[test]
    fn parts_round_trip() {
        let (net, t, mut cfg) = setup();
        let n0 = rtx_relational::Value::sym("n0");
        cfg.apply_heartbeat(&net, &t, &n0).unwrap(); // nonempty buffer at n1
        let copy = cfg.clone();
        let parts = cfg.into_parts();
        assert_eq!(parts.len(), 2);
        let back = Configuration::from_parts(parts);
        assert_eq!(back, copy);
    }

    #[test]
    fn transition_log_merge_and_equality() {
        let (net, t, mut cfg) = setup();
        let n0 = rtx_relational::Value::sym("n0");
        let n1 = rtx_relational::Value::sym("n1");
        let r0 = cfg.apply_heartbeat(&net, &t, &n0).unwrap();
        let r1 = cfg.apply_heartbeat(&net, &t, &n1).unwrap();
        let mut a = TransitionLog::new();
        a.push(r0.clone());
        let b: TransitionLog = [r1.clone()].into_iter().collect();
        a.merge(b);
        assert_eq!(a.len(), 2);
        assert!(!a.is_empty());
        let c: TransitionLog = [r0, r1].into_iter().collect();
        assert_eq!(a, c);
        assert_eq!(a.iter().count(), a.records().len());
    }

    #[test]
    fn noop_detection() {
        let (net, t, mut cfg) = setup();
        let n1 = rtx_relational::Value::sym("n1");
        // n1 has no input: heartbeat sends nothing, changes nothing
        let rec = cfg.apply_heartbeat(&net, &t, &n1).unwrap();
        assert!(rec.is_noop());
    }

    /// The shared, bulk-built `All` gives the same configuration as the
    /// fact-by-fact construction — every `All` tuple inserted at every
    /// node — on random topologies on both sides of the storage regimes.
    #[test]
    fn shared_all_matches_the_fact_by_fact_configuration() {
        let t = flooder();
        let full = Instance::from_facts(
            Schema::new().with("S", 1),
            (0..10i64).map(|v| fact!("S", v)).collect::<Vec<_>>(),
        )
        .unwrap();
        for (n, seed) in [(2, 1), (7, 2), (64, 3), (65, 4), (300, 5)] {
            let net = Network::random_connected_seeded(n, 0.05, seed).unwrap();
            let p = HorizontalPartition::round_robin(&net, &full);
            let shared = Configuration::initial(&net, &t, &p).unwrap();
            let by_fact = Configuration::from_parts(net.nodes().map(|node| {
                let mut st = p
                    .fragment(node)
                    .unwrap()
                    .widen(t.schema().state_schema().clone())
                    .unwrap();
                st.insert_fact(Fact::new("Id", Tuple::new(vec![*node])))
                    .unwrap();
                for v in net.nodes() {
                    st.insert_fact(Fact::new("All", Tuple::new(vec![*v])))
                        .unwrap();
                }
                (*node, st, Vec::new())
            }));
            assert_eq!(shared, by_fact, "{n} nodes");
        }
    }

    #[test]
    fn initial_lean_skips_all_for_oblivious_transducers() {
        let net = Network::line(3).unwrap();
        let t = flooder(); // references neither Id nor All
        let full = Instance::from_facts(Schema::new().with("S", 1), vec![fact!("S", 7)]).unwrap();
        let p = HorizontalPartition::round_robin(&net, &full);
        let lean = Configuration::initial_lean(&net, &t, &p).unwrap();
        let eager = Configuration::initial(&net, &t, &p).unwrap();
        for n in net.nodes() {
            let st = lean.state(n).unwrap();
            assert!(st.relation(&"All".into()).unwrap().is_empty(), "{n}");
            // Id stays: it is O(1) per node and some fault tooling reads it
            assert_eq!(st.relation(&"Id".into()).unwrap().len(), 1);
            // everything except All matches the eager configuration
            let es = eager.state(n).unwrap();
            for rel in ["S", "T", "Id"] {
                assert_eq!(
                    st.relation(&rel.into()).unwrap(),
                    es.relation(&rel.into()).unwrap()
                );
            }
        }
    }

    #[test]
    fn initial_lean_populates_all_when_referenced() {
        // a transducer whose output query reads All
        let t = TransducerBuilder::new("all-reader")
            .input_relation("S", 1)
            .message_relation("M", 1)
            .output_arity(1)
            .output(cq(CqBuilder::head(vec![Term::var("X")])
                .when(atom!("All"; @"X"))
                .build()
                .unwrap()))
            .build()
            .unwrap();
        let net = Network::line(3).unwrap();
        let full = Instance::from_facts(Schema::new().with("S", 1), Vec::new()).unwrap();
        let p = HorizontalPartition::replicate(&net, &full);
        let lean = Configuration::initial_lean(&net, &t, &p).unwrap();
        let eager = Configuration::initial(&net, &t, &p).unwrap();
        assert_eq!(lean, eager, "All-referencing transducers get the full set");
    }

    #[test]
    fn activation_set_parks_and_rearms() {
        let mut act = ActivationSet::all_armed(3);
        assert_eq!(act.armed_count(), 3);
        assert_eq!(act.mail_count(), 0);
        assert!(!act.is_quiet());
        // quiet heartbeats park nodes 0 and 2; node 1 was loud
        act.note_heartbeat(0, true);
        act.note_heartbeat(1, false);
        act.note_heartbeat(2, true);
        assert!(act.is_parked(0) && act.is_armed(1) && act.is_parked(2));
        // an enqueue marks mail but leaves the node parked
        act.note_enqueue(2);
        assert!(act.is_parked(2) && act.has_mail(2));
        assert_eq!(act.mail_nodes().collect::<Vec<_>>(), vec![2]);
        // a quiet heartbeat parks a node with pending mail too
        act.note_heartbeat(1, true);
        act.note_enqueue(1);
        assert!(act.is_parked(1) && act.has_mail(1));
        // a delivery that drains the buffer clears mail; by itself it
        // arms nothing — a state change does
        act.note_delivery(2, true);
        assert!(act.is_parked(2) && !act.has_mail(2));
        act.note_delivery(1, true);
        act.arm(1);
        assert!(act.is_armed(1) && !act.has_mail(1));
        assert_eq!(act.active_count(), 1);
        // the armed node's next quiet heartbeat parks it again
        act.note_heartbeat(1, true);
        assert!(act.is_quiet());
        // a restart arms
        act.arm(0);
        assert_eq!(act.armed_nodes().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn cold_nodes_warm_up_in_index_order() {
        let mut act = ActivationSet::all_cold(4);
        assert_eq!(act.cold_nodes().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        assert!(!act.is_quiet() && !act.is_parked(0));
        // a node armed before its turn warms up when it heartbeats
        act.arm(2);
        act.note_heartbeat(2, true);
        assert!(act.is_parked(2));
        assert_eq!(act.cold_nodes().collect::<Vec<_>>(), vec![0, 1, 3]);
        act.note_heartbeat(0, false);
        act.note_heartbeat(1, true);
        assert_eq!(act.cold_nodes().collect::<Vec<_>>(), vec![3]);
        act.note_heartbeat(3, true);
        act.note_heartbeat(0, true);
        assert_eq!(act.cold_nodes().count(), 0);
        assert!(act.is_quiet());
    }

    #[test]
    fn activation_set_buffer_loss_clears_mail() {
        let mut act = ActivationSet::all_armed(2);
        act.note_enqueue(1);
        act.note_delivery(1, false); // one of two facts delivered
        assert!(act.has_mail(1));
        act.note_buffer_lost(1);
        assert!(!act.has_mail(1));
    }
}
