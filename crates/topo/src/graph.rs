//! The runtime topology graph.
//!
//! A [`Topology`] is an undirected multigraph over node indices, where each
//! edge carries the [`LinkId`] of the physical link realising it. It is the
//! structure routing operates on and the structure the Closed Ring Control
//! rewrites when it reconfigures the fabric.
//!
//! Each node's adjacency is a vector kept sorted by `(neighbour, link)` as
//! edges are inserted, so [`Topology::neighbors`] hands out a slice in the
//! deterministic order routing's tie-breaking relies on, without a lookup,
//! a copy or a sort per call.

use rackfabric_phy::LinkId;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet, VecDeque};

/// Index of a node (sled) in the rack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The raw index.
    pub fn as_u32(self) -> u32 {
        self.0
    }
    /// The raw index as usize.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One undirected adjacency: neighbour node and the physical link used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Adjacency {
    /// The neighbouring node.
    pub neighbor: NodeId,
    /// The physical link realising this edge.
    pub link: LinkId,
}

/// An undirected multigraph of nodes connected by physical links.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Topology {
    node_count: usize,
    /// `adjacency[n]` lists node `n`'s edges, kept sorted by
    /// `(neighbor, link)` as they are inserted.
    adjacency: Vec<Vec<Adjacency>>,
    /// Reverse index: which node pair a link connects.
    link_endpoints: HashMap<LinkId, (NodeId, NodeId)>,
}

impl Topology {
    /// Creates a topology with `node_count` nodes and no edges.
    pub fn new(node_count: usize) -> Self {
        Topology {
            node_count,
            adjacency: vec![Vec::new(); node_count],
            link_endpoints: HashMap::new(),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.node_count as u32).map(NodeId)
    }

    /// Number of edges (physical links) in the graph.
    pub fn edge_count(&self) -> usize {
        self.link_endpoints.len()
    }

    /// Adds an undirected edge between `a` and `b` realised by `link`.
    ///
    /// # Panics
    /// Panics if either node is out of range, if `a == b`, or if the link id
    /// is already present.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId, link: LinkId) {
        assert!(a.index() < self.node_count, "node {a:?} out of range");
        assert!(b.index() < self.node_count, "node {b:?} out of range");
        assert_ne!(a, b, "self loops are not allowed");
        assert!(
            !self.link_endpoints.contains_key(&link),
            "link {link:?} already in topology"
        );
        for (from, to) in [(a, b), (b, a)] {
            let adjs = &mut self.adjacency[from.index()];
            let at = adjs.partition_point(|adj| (adj.neighbor, adj.link) < (to, link));
            adjs.insert(at, Adjacency { neighbor: to, link });
        }
        self.link_endpoints.insert(link, (a, b));
    }

    /// Removes the edge realised by `link`, returning its endpoints.
    pub fn remove_edge(&mut self, link: LinkId) -> Option<(NodeId, NodeId)> {
        let (a, b) = self.link_endpoints.remove(&link)?;
        // `retain` keeps the survivors in their sorted order.
        for n in [a, b] {
            self.adjacency[n.index()].retain(|adj| adj.link != link);
        }
        Some((a, b))
    }

    /// Neighbours of `n` (with the links reaching them), sorted by neighbour
    /// id then link id for determinism. The order is kept at insertion, so
    /// this is a plain slice of the graph (empty for an unknown node).
    #[inline]
    pub fn neighbors(&self, n: NodeId) -> &[Adjacency] {
        self.adjacency.get(n.index()).map_or(&[], Vec::as_slice)
    }

    /// Degree of node `n`.
    pub fn degree(&self, n: NodeId) -> usize {
        self.neighbors(n).len()
    }

    /// The endpoints of `link`, if it is part of the topology.
    pub fn endpoints(&self, link: LinkId) -> Option<(NodeId, NodeId)> {
        self.link_endpoints.get(&link).copied()
    }

    /// All links between `a` and `b` (parallel links possible), sorted.
    pub fn links_between(&self, a: NodeId, b: NodeId) -> Vec<LinkId> {
        // One neighbour's run of the sorted adjacency is sorted by link.
        self.neighbors(a)
            .iter()
            .filter(|adj| adj.neighbor == b)
            .map(|adj| adj.link)
            .collect()
    }

    /// All link ids, sorted.
    pub fn links(&self) -> Vec<LinkId> {
        let mut v: Vec<LinkId> = self.link_endpoints.keys().copied().collect();
        v.sort();
        v
    }

    /// True if every node can reach every other node.
    pub fn is_connected(&self) -> bool {
        if self.node_count == 0 {
            return true;
        }
        let mut seen = HashSet::new();
        let mut queue = VecDeque::new();
        queue.push_back(NodeId(0));
        seen.insert(NodeId(0));
        while let Some(n) = queue.pop_front() {
            for adj in self.neighbors(n) {
                if seen.insert(adj.neighbor) {
                    queue.push_back(adj.neighbor);
                }
            }
        }
        seen.len() == self.node_count
    }

    /// Hop distances from `src` to every reachable node (BFS).
    pub fn distances_from(&self, src: NodeId) -> HashMap<NodeId, usize> {
        let mut dist = HashMap::new();
        let mut queue = VecDeque::new();
        dist.insert(src, 0usize);
        queue.push_back(src);
        while let Some(n) = queue.pop_front() {
            let d = dist[&n];
            for adj in self.neighbors(n) {
                if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(adj.neighbor) {
                    e.insert(d + 1);
                    queue.push_back(adj.neighbor);
                }
            }
        }
        dist
    }

    /// The longest shortest path in hops (None if disconnected or empty).
    pub fn diameter(&self) -> Option<usize> {
        if self.node_count == 0 || !self.is_connected() {
            return None;
        }
        let mut best = 0;
        for n in self.nodes() {
            let d = self.distances_from(n);
            best = best.max(*d.values().max().unwrap_or(&0));
        }
        Some(best)
    }

    /// Mean shortest-path hop count over all ordered node pairs (None if
    /// disconnected).
    pub fn average_path_length(&self) -> Option<f64> {
        if self.node_count < 2 || !self.is_connected() {
            return None;
        }
        let mut total = 0usize;
        let mut pairs = 0usize;
        for n in self.nodes() {
            let d = self.distances_from(n);
            for (m, hops) in d {
                if m != n {
                    total += hops;
                    pairs += 1;
                }
            }
        }
        Some(total as f64 / pairs as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: usize) -> Topology {
        let mut t = Topology::new(n);
        for i in 0..n - 1 {
            t.add_edge(NodeId(i as u32), NodeId(i as u32 + 1), LinkId(i as u64));
        }
        t
    }

    #[test]
    fn add_and_query_edges() {
        let t = line(4);
        assert_eq!(t.node_count(), 4);
        assert_eq!(t.edge_count(), 3);
        assert_eq!(t.degree(NodeId(0)), 1);
        assert_eq!(t.degree(NodeId(1)), 2);
        assert_eq!(t.neighbors(NodeId(1)).len(), 2);
        assert_eq!(t.endpoints(LinkId(0)), Some((NodeId(0), NodeId(1))));
        assert_eq!(t.links_between(NodeId(1), NodeId(2)), vec![LinkId(1)]);
        assert!(t.links_between(NodeId(0), NodeId(3)).is_empty());
        assert_eq!(t.links().len(), 3);
    }

    #[test]
    #[should_panic(expected = "self loops")]
    fn self_loops_are_rejected() {
        let mut t = Topology::new(2);
        t.add_edge(NodeId(0), NodeId(0), LinkId(0));
    }

    #[test]
    #[should_panic(expected = "already in topology")]
    fn duplicate_link_ids_are_rejected() {
        let mut t = Topology::new(3);
        t.add_edge(NodeId(0), NodeId(1), LinkId(0));
        t.add_edge(NodeId(1), NodeId(2), LinkId(0));
    }

    #[test]
    fn parallel_links_are_allowed() {
        let mut t = Topology::new(2);
        t.add_edge(NodeId(0), NodeId(1), LinkId(0));
        t.add_edge(NodeId(0), NodeId(1), LinkId(1));
        assert_eq!(
            t.links_between(NodeId(0), NodeId(1)),
            vec![LinkId(0), LinkId(1)]
        );
        assert_eq!(t.degree(NodeId(0)), 2);
    }

    #[test]
    fn remove_edge_disconnects() {
        let mut t = line(3);
        assert!(t.is_connected());
        let removed = t.remove_edge(LinkId(1)).unwrap();
        assert_eq!(removed, (NodeId(1), NodeId(2)));
        assert!(!t.is_connected());
        assert_eq!(t.edge_count(), (2 - 1)); // one of two original edges left
        assert!(t.remove_edge(LinkId(1)).is_none(), "double remove is None");
    }

    #[test]
    fn distances_and_diameter_of_a_line() {
        let t = line(5);
        let d = t.distances_from(NodeId(0));
        assert_eq!(d[&NodeId(4)], 4);
        assert_eq!(t.diameter(), Some(4));
        let apl = t.average_path_length().unwrap();
        assert!(apl > 1.0 && apl < 4.0);
    }

    #[test]
    fn diameter_of_disconnected_graph_is_none() {
        let mut t = Topology::new(4);
        t.add_edge(NodeId(0), NodeId(1), LinkId(0));
        t.add_edge(NodeId(2), NodeId(3), LinkId(1));
        assert!(!t.is_connected());
        assert_eq!(t.diameter(), None);
        assert_eq!(t.average_path_length(), None);
    }

    #[test]
    fn empty_and_singleton_graphs() {
        let t = Topology::new(0);
        assert!(t.is_connected());
        let t1 = Topology::new(1);
        assert!(t1.is_connected());
        assert_eq!(t1.diameter(), Some(0));
    }
}
