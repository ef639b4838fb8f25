//! Network topologies.
//!
//! A network is a finite, **connected**, undirected graph over a set of
//! nodes drawn from **dom** (paper, Section 3) — connectivity is what
//! lets information flow reach every node.
//!
//! # Representation
//!
//! Nodes are indexed densely by their position in name order, and the
//! adjacency is stored by index in compressed sparse rows: one offsets
//! array and one targets array, each node's neighbours ascending. A
//! node therefore costs its name, one offset and its edges. Names
//! remain the public identity and the order: [`Network::nodes`] and
//! [`Network::neighbors`] yield names ascending, exactly as a
//! name-keyed map would, and the by-name accessors find a node's index
//! by binary search in the sorted node list. The round coordinator
//! works on the indices directly.

use crate::error::NetError;
use rand::seq::SliceRandom;
use rand::Rng;
use rtx_relational::Value;
use std::collections::{BTreeSet, VecDeque};
use std::fmt;
use std::sync::Arc;

/// A node identifier — a plain data element, since the paper stores node
/// ids in relations (`Id`, `All`).
pub type NodeId = Value;

/// A finite connected undirected graph.
#[derive(Clone, PartialEq, Eq)]
pub struct Network {
    /// The nodes, strictly ascending by name; a node's index is its
    /// position. Shared by handle with the configurations built on it.
    nodes: Arc<[NodeId]>,
    /// Node `i`'s neighbours are `targets[offsets[i]..offsets[i + 1]]`,
    /// ascending.
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

/// An index in the network's `u32` index space.
fn index32(i: usize) -> u32 {
    u32::try_from(i).expect("a network has fewer than 2^32 nodes and edges")
}

impl Network {
    /// Build from explicit nodes and undirected edges.
    ///
    /// Validates: at least one node, edges reference known nodes, no
    /// self-loops, and the graph is connected. Repeated nodes and
    /// repeated edges count once.
    pub fn from_edges(
        nodes: impl IntoIterator<Item = NodeId>,
        edges: impl IntoIterator<Item = (NodeId, NodeId)>,
    ) -> Result<Self, NetError> {
        let mut names: Vec<NodeId> = nodes.into_iter().collect();
        names.sort_unstable();
        names.dedup();
        if names.is_empty() {
            return Err(NetError::Topology(
                "a network needs at least one node".into(),
            ));
        }
        let mut pairs = Vec::new();
        for (a, b) in edges {
            if a == b {
                return Err(NetError::Topology(format!("self-loop on node {a}")));
            }
            match (names.binary_search(&a), names.binary_search(&b)) {
                (Ok(i), Ok(j)) => {
                    pairs.extend([(index32(i), index32(j)), (index32(j), index32(i))])
                }
                _ => {
                    return Err(NetError::Topology(format!(
                        "edge ({a},{b}) references unknown node"
                    )))
                }
            }
        }
        let net = Network::from_pairs(names.into(), pairs);
        if !net.is_connected() {
            return Err(NetError::Topology("network is not connected".into()));
        }
        Ok(net)
    }

    /// Build from `k` generated node names and edges between their
    /// generation indices, known to form a connected graph by
    /// construction (the shape generators below): each name is built
    /// and interned once, edges are wired by index, and the O(N+E)
    /// connectivity pass is skipped, which keeps generation cheap at
    /// 10⁵–10⁶ nodes. Connectivity and self-loop-freedom are still
    /// asserted in debug builds.
    fn generated(k: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Self {
        debug_assert!(k > 0);
        // The names with their generation indices, in name order.
        let mut named: Vec<(NodeId, usize)> = (0..k).map(|g| (Self::node_name(g), g)).collect();
        named.sort_unstable();
        let mut position = vec![0u32; k];
        for (p, &(_, g)) in named.iter().enumerate() {
            position[g] = index32(p);
        }
        let names: Arc<[NodeId]> = named.into_iter().map(|(n, _)| n).collect();
        let mut pairs = Vec::new();
        for (a, b) in edges {
            debug_assert_ne!(a, b, "generator produced a self-loop");
            let (i, j) = (position[a], position[b]);
            pairs.extend([(i, j), (j, i)]);
        }
        let net = Network::from_pairs(names, pairs);
        debug_assert!(
            net.is_connected(),
            "generator produced a disconnected graph"
        );
        net
    }

    /// The compressed rows of directed index pairs (each undirected edge
    /// in both directions), by a counting sort into rows; each row is
    /// then sorted and its repeats collapse.
    fn from_pairs(nodes: Arc<[NodeId]>, pairs: Vec<(u32, u32)>) -> Self {
        let n = nodes.len();
        let mut offsets = vec![0u32; n + 1];
        for &(i, _) in &pairs {
            offsets[i as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut targets = vec![0u32; pairs.len()];
        for (i, j) in pairs {
            let c = &mut cursor[i as usize];
            targets[*c as usize] = j;
            *c += 1;
        }
        // Sort each row and compact it left past earlier rows' repeats.
        let mut len = 0usize;
        for i in 0..n {
            let (start, end) = (offsets[i] as usize, offsets[i + 1] as usize);
            targets[start..end].sort_unstable();
            offsets[i] = index32(len);
            for r in start..end {
                if r == start || targets[r] != targets[r - 1] {
                    targets[len] = targets[r];
                    len += 1;
                }
            }
        }
        offsets[n] = index32(len);
        targets.truncate(len);
        targets.shrink_to_fit();
        Network {
            nodes,
            offsets,
            targets,
        }
    }

    fn node_name(i: usize) -> NodeId {
        Value::sym(format!("n{i}"))
    }

    /// The single-node network (no edges; the paper's degenerate case
    /// where only heartbeat transitions exist).
    pub fn single() -> Self {
        Network::from_edges([Self::node_name(0)], []).expect("one node is connected")
    }

    /// A line `n0 – n1 – … – n{k-1}`.
    pub fn line(k: usize) -> Result<Self, NetError> {
        if k == 0 {
            return Err(NetError::Topology(
                "a network needs at least one node".into(),
            ));
        }
        Ok(Network::generated(k, (1..k).map(|i| (i - 1, i))))
    }

    /// A ring `n0 – n1 – … – n{k-1} – n0` (k ≥ 3).
    pub fn ring(k: usize) -> Result<Self, NetError> {
        if k < 3 {
            return Err(NetError::Topology("a ring needs at least 3 nodes".into()));
        }
        Ok(Network::generated(k, (0..k).map(|i| (i, (i + 1) % k))))
    }

    /// The 4-ring `1–2–3–4–1` with an added chord `2–4` — the network
    /// `R'` in the proof of Theorem 16.
    pub fn ring4_with_chord() -> Self {
        let nodes: Vec<NodeId> = (0..4).map(Self::node_name).collect();
        let mut edges: Vec<(NodeId, NodeId)> = (0..4)
            .map(|i| (Self::node_name(i), Self::node_name((i + 1) % 4)))
            .collect();
        edges.push((Self::node_name(1), Self::node_name(3)));
        Network::from_edges(nodes, edges).expect("fixed graph is valid")
    }

    /// A star with a hub and `k-1` leaves.
    pub fn star(k: usize) -> Result<Self, NetError> {
        if k == 0 {
            return Err(NetError::Topology(
                "a network needs at least one node".into(),
            ));
        }
        Ok(Network::generated(k, (1..k).map(|i| (0, i))))
    }

    /// The complete graph on `k` nodes.
    pub fn clique(k: usize) -> Result<Self, NetError> {
        let nodes: Vec<NodeId> = (0..k).map(Self::node_name).collect();
        let mut edges = Vec::new();
        for i in 0..k {
            for j in (i + 1)..k {
                edges.push((Self::node_name(i), Self::node_name(j)));
            }
        }
        Network::from_edges(nodes, edges)
    }

    /// A `w × h` grid: node `n{y*w+x}` sits at column `x`, row `y`, and
    /// connects to its right and down neighbors. The workhorse topology
    /// of the scale benches (`bench_net`): diameter `w+h-2` with bounded
    /// degree.
    pub fn grid(w: usize, h: usize) -> Result<Self, NetError> {
        if w == 0 || h == 0 {
            return Err(NetError::Topology(
                "a grid needs at least one row and one column".into(),
            ));
        }
        let at = |x: usize, y: usize| y * w + x;
        let mut edges = Vec::new();
        for y in 0..h {
            for x in 0..w {
                if x + 1 < w {
                    edges.push((at(x, y), at(x + 1, y)));
                }
                if y + 1 < h {
                    edges.push((at(x, y), at(x, y + 1)));
                }
            }
        }
        Ok(Network::generated(w * h, edges))
    }

    /// [`Network::random_connected`] from a bare seed — the convenient
    /// form for benches and property tests that don't hold an RNG.
    pub fn random_connected_seeded(
        k: usize,
        extra_edge_prob: f64,
        seed: u64,
    ) -> Result<Self, NetError> {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        Network::random_connected(k, extra_edge_prob, &mut rng)
    }

    /// A random connected graph: a random spanning tree plus each extra
    /// edge independently with probability `extra_edge_prob`.
    pub fn random_connected(
        k: usize,
        extra_edge_prob: f64,
        rng: &mut impl Rng,
    ) -> Result<Self, NetError> {
        if k == 0 {
            return Err(NetError::Topology(
                "a network needs at least one node".into(),
            ));
        }
        let nodes: Vec<NodeId> = (0..k).map(Self::node_name).collect();
        let mut order: Vec<usize> = (0..k).collect();
        order.shuffle(rng);
        let mut edges = Vec::new();
        // random spanning tree: attach each node to a random earlier node
        for i in 1..k {
            let parent = order[rng.gen_range(0..i)];
            edges.push((Self::node_name(order[i]), Self::node_name(parent)));
        }
        for i in 0..k {
            for j in (i + 1)..k {
                if rng.gen_bool(extra_edge_prob.clamp(0.0, 1.0)) {
                    edges.push((Self::node_name(i), Self::node_name(j)));
                }
            }
        }
        Network::from_edges(nodes, edges)
    }

    /// The nodes, ascending by name.
    pub fn nodes(&self) -> impl Iterator<Item = &NodeId> {
        self.nodes.iter()
    }

    /// The node set.
    pub fn node_set(&self) -> BTreeSet<NodeId> {
        self.nodes.iter().copied().collect()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Never true — construction requires at least one node.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.targets.len() / 2
    }

    /// Does the network contain this node?
    pub fn contains(&self, n: &NodeId) -> bool {
        self.index_of(n).is_some()
    }

    /// The neighbors of a node, ascending by name.
    pub fn neighbors(&self, n: &NodeId) -> impl Iterator<Item = &NodeId> {
        let row = self
            .index_of(n)
            .map_or(&[][..], |i| self.neighbor_indices(i));
        row.iter().map(|&j| &self.nodes[j as usize])
    }

    /// The nodes in index order (ascending by name), shared by handle.
    pub(crate) fn node_list(&self) -> &Arc<[NodeId]> {
        &self.nodes
    }

    /// The index of a node: its position in [`Network::nodes`].
    pub(crate) fn index_of(&self, n: &NodeId) -> Option<usize> {
        self.nodes.binary_search(n).ok()
    }

    /// The indices of node `i`'s neighbours, ascending.
    pub(crate) fn neighbor_indices(&self, i: usize) -> &[u32] {
        &self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Graph diameter (longest shortest path); `0` for a single node.
    pub fn diameter(&self) -> usize {
        (0..self.len())
            .map(|start| self.bfs(start).into_iter().flatten().max().unwrap_or(0))
            .max()
            .unwrap_or(0)
    }

    /// Hop distances from `start`, by index; `None` where unreachable.
    fn bfs(&self, start: usize) -> Vec<Option<usize>> {
        let mut dist = vec![None; self.len()];
        dist[start] = Some(0);
        let mut queue = VecDeque::from([start]);
        while let Some(i) = queue.pop_front() {
            let d = dist[i].unwrap_or(0) + 1;
            for &j in self.neighbor_indices(i) {
                let j = j as usize;
                if dist[j].is_none() {
                    dist[j] = Some(d);
                    queue.push_back(j);
                }
            }
        }
        dist
    }

    fn is_connected(&self) -> bool {
        !self.is_empty() && self.bfs(0).iter().all(Option::is_some)
    }
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Network[{} nodes: ", self.len())?;
        let mut first = true;
        for (i, n) in self.nodes.iter().enumerate() {
            for &j in self.neighbor_indices(i) {
                if i < j as usize {
                    if !first {
                        write!(f, ", ")?;
                    }
                    first = false;
                    write!(f, "{n}–{}", self.nodes[j as usize])?;
                }
            }
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn line_ring_star_clique_shapes() {
        let l = Network::line(4).unwrap();
        assert_eq!(l.len(), 4);
        assert_eq!(l.edge_count(), 3);
        assert_eq!(l.diameter(), 3);

        let r = Network::ring(5).unwrap();
        assert_eq!(r.edge_count(), 5);
        assert_eq!(r.diameter(), 2);

        let s = Network::star(5).unwrap();
        assert_eq!(s.edge_count(), 4);
        assert_eq!(s.diameter(), 2);

        let c = Network::clique(5).unwrap();
        assert_eq!(c.edge_count(), 10);
        assert_eq!(c.diameter(), 1);
    }

    #[test]
    fn single_node_network() {
        let n = Network::single();
        assert_eq!(n.len(), 1);
        assert_eq!(n.edge_count(), 0);
        assert_eq!(n.diameter(), 0);
    }

    #[test]
    fn ring4_with_chord_matches_theorem16() {
        let n = Network::ring4_with_chord();
        assert_eq!(n.len(), 4);
        assert_eq!(n.edge_count(), 5);
        // chord 2–4 is n1–n3 in zero-based naming
        assert!(n
            .neighbors(&Value::sym("n1"))
            .any(|m| m == &Value::sym("n3")));
    }

    #[test]
    fn grid_shape() {
        let g = Network::grid(4, 3).unwrap();
        assert_eq!(g.len(), 12);
        // (w-1)*h horizontal + w*(h-1) vertical
        assert_eq!(g.edge_count(), 3 * 3 + 4 * 2);
        assert_eq!(g.diameter(), 4 + 3 - 2);
        // corner n0 has exactly two neighbors: right (n1) and down (n4)
        let nbrs: Vec<_> = g.neighbors(&Value::sym("n0")).collect();
        assert_eq!(nbrs.len(), 2);
        assert!(nbrs.contains(&&Value::sym("n1")));
        assert!(nbrs.contains(&&Value::sym("n4")));
        // degenerate grids are lines / single nodes
        assert_eq!(Network::grid(1, 1).unwrap().len(), 1);
        assert_eq!(Network::grid(5, 1).unwrap().diameter(), 4);
        assert!(Network::grid(0, 3).is_err());
        assert!(Network::grid(3, 0).is_err());
    }

    #[test]
    fn random_connected_seeded_is_reproducible() {
        let a = Network::random_connected_seeded(10, 0.1, 77).unwrap();
        let b = Network::random_connected_seeded(10, 0.1, 77).unwrap();
        assert_eq!(a, b);
        let c = Network::random_connected_seeded(10, 0.1, 78).unwrap();
        assert_eq!(c.len(), 10); // different seed still connected
    }

    #[test]
    fn disconnected_rejected() {
        let nodes = vec![Value::sym("a"), Value::sym("b"), Value::sym("c")];
        let edges = vec![(Value::sym("a"), Value::sym("b"))];
        assert!(matches!(
            Network::from_edges(nodes, edges),
            Err(NetError::Topology(_))
        ));
    }

    #[test]
    fn self_loops_and_unknown_nodes_rejected() {
        let nodes = vec![Value::sym("a"), Value::sym("b")];
        assert!(
            Network::from_edges(nodes.clone(), vec![(Value::sym("a"), Value::sym("a"))]).is_err()
        );
        assert!(Network::from_edges(nodes, vec![(Value::sym("a"), Value::sym("zz"))]).is_err());
    }

    #[test]
    fn empty_rejected() {
        assert!(Network::from_edges([], []).is_err());
        assert!(Network::ring(2).is_err());
    }

    #[test]
    fn random_connected_is_connected_across_seeds() {
        for seed in 0..10u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = Network::random_connected(12, 0.1, &mut rng).unwrap();
            assert_eq!(n.len(), 12);
            // from_edges validated connectivity already; sanity:
            assert!(n.diameter() < 12);
        }
    }

    #[test]
    fn neighbors_are_symmetric() {
        let n = Network::line(3).unwrap();
        let n0 = Value::sym("n0");
        let n1 = Value::sym("n1");
        assert!(n.neighbors(&n0).any(|m| m == &n1));
        assert!(n.neighbors(&n1).any(|m| m == &n0));
    }

    #[test]
    fn debug_render() {
        let n = Network::line(3).unwrap();
        let d = format!("{n:?}");
        assert!(d.contains("n0–n1"));
    }
}
