//! Routing over the topology graph.
//!
//! The Closed Ring Control expresses its per-link prices as a cost map; this
//! module turns costs into paths. Six algorithms are provided:
//!
//! * [`shortest_path`] — plain BFS by hop count (the static baseline; the
//!   **minimal** policy of a dragonfly).
//! * [`dijkstra`] — minimum-cost path under an arbitrary per-link cost map
//!   (what the CRC uses, with its price tags as costs).
//! * [`ecmp_paths`] — all minimum-hop paths, for equal-cost multi-path
//!   spreading in the fat-tree baseline.
//! * [`dimension_ordered`] — X-then-Y routing on grid/torus specs, the
//!   deadlock-free default of mesh NoCs.
//! * [`valiant_route`] — Valiant load balancing: detour through a
//!   flow-hashed intermediate rack (dragonfly group), trading path length
//!   for adversarial-traffic immunity.
//! * [`adaptive_route`] — UGAL-style congestion-sensed choice between the
//!   minimal and the Valiant path under the CRC's current price map.
//!
//! Every algorithm is a pure function of `(topology, racks, cost map,
//! flow id)` — no internal randomness — which is what lets the sharded
//! engine's per-shard route caches agree byte-for-byte at any shard count.

use crate::arena::LinkArena;
use crate::graph::{NodeId, Topology};
use crate::spec::{TopologyKind, TopologySpec};
use rackfabric_phy::LinkId;
use serde::{Deserialize, Serialize};
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// A route: the sequence of links to traverse plus the node sequence
/// (one node more than links).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Route {
    /// Visited nodes, starting with the source and ending with the
    /// destination.
    pub nodes: Vec<NodeId>,
    /// Links traversed, in order.
    pub links: Vec<LinkId>,
}

impl Route {
    /// A route from a node to itself.
    pub fn trivial(node: NodeId) -> Route {
        Route {
            nodes: vec![node],
            links: Vec::new(),
        }
    }
    /// Number of hops (links traversed).
    pub fn hops(&self) -> usize {
        self.links.len()
    }
    /// The source node.
    pub fn source(&self) -> NodeId {
        *self.nodes.first().expect("route has at least one node")
    }
    /// The destination node.
    pub fn destination(&self) -> NodeId {
        *self.nodes.last().expect("route has at least one node")
    }
    /// The nodes strictly between source and destination.
    pub fn intermediate_nodes(&self) -> &[NodeId] {
        if self.nodes.len() <= 2 {
            &[]
        } else {
            &self.nodes[1..self.nodes.len() - 1]
        }
    }
}

/// Which algorithm a fabric uses to pick paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum RoutingAlgorithm {
    /// Minimum hop count (BFS).
    #[default]
    ShortestHop,
    /// Minimum cost under the CRC's current price map (Dijkstra).
    MinCost,
    /// Equal-cost multi-path over minimum-hop routes, selected by flow id.
    Ecmp,
    /// Dimension-ordered (X then Y) routing; only valid on grid/torus specs.
    DimensionOrdered,
    /// Valiant load balancing: route via a flow-hashed intermediate rack
    /// (dragonfly group), falling back to minimal when no detour exists.
    Valiant,
    /// UGAL-style adaptive routing: per flow, pick the cheaper of the
    /// minimal and the Valiant path under the CRC's current price map
    /// (ties go minimal, so an uncongested fabric routes minimally).
    Adaptive,
}

impl RoutingAlgorithm {
    /// True when routes depend on the flow id, so route caches must key the
    /// flow into their selector instead of sharing one route per node pair.
    pub fn per_flow(self) -> bool {
        matches!(
            self,
            RoutingAlgorithm::Ecmp | RoutingAlgorithm::Valiant | RoutingAlgorithm::Adaptive
        )
    }

    /// True when routes depend on the CRC's price map, so the engine must
    /// refresh its cost snapshot and invalidate cached routes every control
    /// epoch.
    pub fn cost_aware(self) -> bool {
        matches!(self, RoutingAlgorithm::MinCost | RoutingAlgorithm::Adaptive)
    }
}

/// BFS shortest path by hop count. Ties are broken deterministically by
/// neighbour id, so the route is the one [`shortest_path_tree`] holds for
/// `dst`. Returns `None` if `dst` is unreachable.
pub fn shortest_path(topo: &Topology, src: NodeId, dst: NodeId) -> Option<Route> {
    shortest_path_avoiding(topo, src, dst, |_| false)
}

/// A single-source predecessor tree: `tree[n]` is the `(parent, link)` pair
/// reaching node `n`, dense-indexed by node. Produced by
/// [`shortest_path_tree`] / [`dijkstra_tree`], consumed by
/// [`route_from_tree`]. Dense vectors (not maps) because route-cache misses
/// build one of these per source per control epoch — a measured hot spot.
pub type PredecessorTree = Vec<Option<(NodeId, LinkId)>>;

/// BFS shortest-path *tree* from `src`, covering every reachable node. One
/// call amortises route construction for all destinations of a source.
pub fn shortest_path_tree(topo: &Topology, src: NodeId) -> PredecessorTree {
    bfs_tree(topo, src, None, |_| false)
}

/// The one BFS behind [`shortest_path_tree`] and [`shortest_path`]:
/// neighbours are visited in id order, nodes where `banned` holds are
/// skipped (`stop` is always admitted), and the search ends as soon as it
/// reaches `stop`.
fn bfs_tree(
    topo: &Topology,
    src: NodeId,
    stop: Option<NodeId>,
    banned: impl Fn(NodeId) -> bool,
) -> PredecessorTree {
    let mut prev: PredecessorTree = vec![None; topo.node_count()];
    let mut queue = VecDeque::new();
    queue.push_back(src);
    while let Some(n) = queue.pop_front() {
        for adj in topo.neighbors(n) {
            let next = adj.neighbor;
            let skip = next == src || prev[next.index()].is_some();
            if skip || (Some(next) != stop && banned(next)) {
                continue;
            }
            prev[next.index()] = Some((n, adj.link));
            if Some(next) == stop {
                return prev;
            }
            queue.push_back(next);
        }
    }
    prev
}

/// Dijkstra minimum-cost *tree* from `src` under `costs`. Equal-cost nodes
/// settle in node-id order, so the tree is deterministic. Links missing
/// from `costs` get `default_cost`; links with non-finite or negative cost
/// are unusable.
pub fn dijkstra_tree(
    topo: &Topology,
    src: NodeId,
    costs: &HashMap<LinkId, f64>,
    default_cost: f64,
) -> PredecessorTree {
    dijkstra_tree_by(topo, src, map_cost(costs, default_cost))
}

/// The per-link cost lookup of a cost map: links missing from `costs` cost
/// `default_cost`.
fn map_cost(costs: &HashMap<LinkId, f64>, default_cost: f64) -> impl Fn(LinkId) -> f64 + '_ {
    move |link| costs.get(&link).copied().unwrap_or(default_cost)
}

/// The per-link cost lookup over `costs`, a vector dense by `arena`'s
/// [`LinkIdx`](crate::arena::LinkIdx): what the engines route by. A link
/// the arena lacks costs 1.0, as a link missing from a cost map does under
/// the engines' default cost.
pub fn dense_cost<'a>(arena: &'a LinkArena, costs: &'a [f64]) -> impl Fn(LinkId) -> f64 + 'a {
    move |link| arena.index(link).map_or(1.0, |idx| costs[idx.index()])
}

/// The traversal behind [`dijkstra_tree`], generic over the per-link cost
/// lookup: the route cache reads a dense cost vector ([`dense_cost`]), the
/// map-taking signature a hash lookup.
pub(crate) fn dijkstra_tree_by(
    topo: &Topology,
    src: NodeId,
    cost_of: impl Fn(LinkId) -> f64,
) -> PredecessorTree {
    #[derive(PartialEq)]
    struct Item {
        cost: f64,
        node: NodeId,
    }
    impl Eq for Item {}
    impl Ord for Item {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            other
                .cost
                .partial_cmp(&self.cost)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| other.node.cmp(&self.node))
        }
    }
    impl PartialOrd for Item {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    let mut dist = vec![f64::INFINITY; topo.node_count()];
    let mut prev: PredecessorTree = vec![None; topo.node_count()];
    let mut heap = BinaryHeap::new();
    dist[src.index()] = 0.0;
    heap.push(Item {
        cost: 0.0,
        node: src,
    });
    while let Some(Item { cost, node }) = heap.pop() {
        if cost > dist[node.index()] {
            continue;
        }
        for adj in topo.neighbors(node) {
            let link_cost = cost_of(adj.link);
            if !link_cost.is_finite() || link_cost < 0.0 {
                continue;
            }
            let next = cost + link_cost;
            if next < dist[adj.neighbor.index()] {
                dist[adj.neighbor.index()] = next;
                prev[adj.neighbor.index()] = Some((node, adj.link));
                heap.push(Item {
                    cost: next,
                    node: adj.neighbor,
                });
            }
        }
    }
    prev
}

/// Reconstructs the route from `src` to `dst` out of a predecessor tree.
/// Returns `None` when `dst` is unreachable.
pub fn route_from_tree(src: NodeId, dst: NodeId, tree: &PredecessorTree) -> Option<Route> {
    if src == dst {
        return Some(Route::trivial(src));
    }
    tree.get(dst.index())?.as_ref()?;
    let mut nodes = vec![dst];
    let mut links = Vec::new();
    let mut cur = dst;
    while cur != src {
        let (p, l) = tree[cur.index()].expect("tree path is connected");
        links.push(l);
        nodes.push(p);
        cur = p;
    }
    nodes.reverse();
    links.reverse();
    Some(Route { nodes, links })
}

/// Dijkstra minimum-cost path: the route [`dijkstra_tree`] holds for `dst`.
/// Links missing from `costs` get `default_cost`; links with non-finite or
/// negative cost are treated as unusable. Returns `None` when `dst` is
/// unreachable or `src` is not a node of `topo`.
pub fn dijkstra(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    costs: &HashMap<LinkId, f64>,
    default_cost: f64,
) -> Option<Route> {
    if src == dst {
        return Some(Route::trivial(src));
    }
    if src.index() >= topo.node_count() {
        return None;
    }
    route_from_tree(src, dst, &dijkstra_tree(topo, src, costs, default_cost))
}

/// Every minimum-hop path from `src` to `dst`, capped at `max_paths`
/// (enumeration is exponential in pathological graphs). Paths are returned in
/// a deterministic order.
pub fn ecmp_paths(topo: &Topology, src: NodeId, dst: NodeId, max_paths: usize) -> Vec<Route> {
    if src == dst {
        return vec![Route::trivial(src)];
    }
    // BFS distances from dst so we can walk only along shortest-path DAG edges.
    let dist_to_dst = topo.distances_from(dst);
    if !dist_to_dst.contains_key(&src) {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut stack = vec![(src, Route::trivial(src))];
    while let Some((node, route)) = stack.pop() {
        if out.len() >= max_paths {
            break;
        }
        if node == dst {
            out.push(route);
            continue;
        }
        let d = dist_to_dst[&node];
        // Deterministic order: iterate neighbours sorted (reverse for stack).
        let mut nexts: Vec<_> = topo
            .neighbors(node)
            .iter()
            .copied()
            .filter(|adj| {
                dist_to_dst
                    .get(&adj.neighbor)
                    .is_some_and(|&nd| nd + 1 == d)
            })
            .collect();
        nexts.reverse();
        for adj in nexts {
            let mut r = route.clone();
            r.nodes.push(adj.neighbor);
            r.links.push(adj.link);
            stack.push((adj.neighbor, r));
        }
    }
    out
}

/// Simple splitmix hash of a flow id, shared by every flow-hashed selector
/// so spreading quality is uniform across policies.
fn splitmix(flow_id: u64) -> u64 {
    let mut h = flow_id.wrapping_add(0x9E37_79B9_7F4A_7C15);
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    h
}

/// How many minimum-hop paths [`ecmp_select`] spreads flows over.
const ECMP_PATHS: u32 = 16;

/// Selects one of the ECMP paths by hashing `flow_id` (deterministic): the
/// path `ecmp_paths(topo, src, dst, 16)[splitmix(flow_id) % len]`, found
/// without enumerating paths.
///
/// One dense BFS from `dst` gives hop distances; then each node closer to
/// `dst` than `src` counts its shortest-path continuations (parallel links
/// count separately), capped at 16. [`ecmp_paths`] enumerates paths
/// depth-first in adjacency order, so the `idx`-th path leaves each node
/// through the first successor whose count exceeds what is left of `idx`
/// after subtracting the counts of the successors before it. The cap
/// cannot change a choice: `idx` stays below 16, so a capped count of 16
/// exceeds it exactly when the true count does.
pub fn ecmp_select(topo: &Topology, src: NodeId, dst: NodeId, flow_id: u64) -> Option<Route> {
    if src == dst {
        return Some(Route::trivial(src));
    }
    let n = topo.node_count();
    if src.index() >= n || dst.index() >= n {
        return None;
    }
    // BFS from dst until src is dequeued: every node at most as far from
    // dst as src then holds its final distance, and `order` lists the
    // nodes by distance.
    let mut dist = vec![u32::MAX; n];
    let mut order = vec![dst];
    dist[dst.index()] = 0;
    let mut head = 0;
    while let Some(&node) = order.get(head) {
        head += 1;
        if node == src {
            break;
        }
        for adj in topo.neighbors(node) {
            if dist[adj.neighbor.index()] == u32::MAX {
                dist[adj.neighbor.index()] = dist[node.index()] + 1;
                order.push(adj.neighbor);
            }
        }
    }
    if dist[src.index()] == u32::MAX {
        return None;
    }
    // The next hops of `node` on its shortest paths toward dst.
    let dist = &dist;
    let toward_dst = |node: NodeId| {
        let d = dist[node.index()];
        topo.neighbors(node)
            .iter()
            .filter(move |adj| dist[adj.neighbor.index()].wrapping_add(1) == d)
    };
    let mut count = vec![0u32; n];
    count[dst.index()] = 1;
    for &node in &order[1..head] {
        count[node.index()] = toward_dst(node).fold(0, |c, adj| {
            (c + count[adj.neighbor.index()]).min(ECMP_PATHS)
        });
    }
    let mut idx = (splitmix(flow_id) % count[src.index()] as u64) as u32;
    let hops = dist[src.index()] as usize;
    let mut route = Route {
        nodes: Vec::with_capacity(hops + 1),
        links: Vec::with_capacity(hops),
    };
    route.nodes.push(src);
    let mut node = src;
    while node != dst {
        for adj in toward_dst(node) {
            let c = count[adj.neighbor.index()];
            if c <= idx {
                idx -= c;
                continue;
            }
            route.nodes.push(adj.neighbor);
            route.links.push(adj.link);
            node = adj.neighbor;
            break;
        }
    }
    Some(route)
}

/// Valiant load balancing over the rack (dragonfly group) structure:
/// `flow_id` hashes to an intermediate rack distinct from both endpoints'
/// racks, and the route is the minimal path to that rack's representative
/// (its smallest node — a router under the dragonfly builder) stitched to
/// the minimal path onward. Falls back to the plain minimal path when fewer
/// than three racks exist or the endpoints share a rack (no useful detour).
///
/// `racks` is the node-to-rack table from
/// [`TopologySpec::rack_of`](crate::spec::TopologySpec::rack_of).
pub fn valiant_route(
    topo: &Topology,
    racks: &[u32],
    src: NodeId,
    dst: NodeId,
    flow_id: u64,
) -> Option<Route> {
    if src == dst {
        return Some(Route::trivial(src));
    }
    let (src_rack, dst_rack) = match (racks.get(src.index()), racks.get(dst.index())) {
        (Some(&s), Some(&d)) => (s, d),
        _ => return shortest_path(topo, src, dst),
    };
    let rack_count = racks.iter().map(|&r| r as u64 + 1).max().unwrap_or(0);
    let excluded = if src_rack == dst_rack { 1 } else { 2 };
    let candidates = rack_count.saturating_sub(excluded);
    if src_rack == dst_rack || candidates == 0 {
        return shortest_path(topo, src, dst);
    }
    // Hash into the candidate racks, skipping the endpoints' own racks.
    let mut pick = splitmix(flow_id) % candidates;
    let (lo, hi) = if src_rack < dst_rack {
        (src_rack as u64, dst_rack as u64)
    } else {
        (dst_rack as u64, src_rack as u64)
    };
    if pick >= lo {
        pick += 1;
    }
    if pick >= hi {
        pick += 1;
    }
    // Representative: the smallest node of the picked rack (racks are
    // numbered in node order, so the first match is the minimum).
    let rep = racks
        .iter()
        .position(|&r| r as u64 == pick)
        .map(|i| NodeId(i as u32))?;
    // Each leg must stay out of the *other* endpoint's rack — otherwise BFS
    // tie-breaking can route the second leg back through the source group
    // and re-traverse exactly the congested global link the detour was
    // meant to dodge. When a leg cannot avoid the rack (e.g. grid racks
    // form a path), fall back to the unconstrained leg.
    let leg1 = shortest_path_avoiding(topo, src, rep, |n| racks[n.index()] == dst_rack)
        .or_else(|| shortest_path(topo, src, rep))?;
    let leg2 = shortest_path_avoiding(topo, rep, dst, |n| racks[n.index()] == src_rack)
        .or_else(|| shortest_path(topo, rep, dst))?;
    let mut nodes = leg1.nodes;
    nodes.extend_from_slice(&leg2.nodes[1..]);
    let mut links = leg1.links;
    links.extend_from_slice(&leg2.links);
    Some(Route { nodes, links })
}

/// BFS shortest path skipping every node where `banned` holds (`src` and
/// `dst` are always admitted). Same deterministic tie-breaking as
/// [`shortest_path`], which is this search with nothing banned.
fn shortest_path_avoiding(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    banned: impl Fn(NodeId) -> bool,
) -> Option<Route> {
    if src == dst {
        return Some(Route::trivial(src));
    }
    route_from_tree(src, dst, &bfs_tree(topo, src, Some(dst), banned))
}

/// Total cost of a route under the per-link lookup `cost_of` (a
/// [`dense_cost`] in the engines). Summed in traversal order, so the result
/// is bit-exact for the same route and costs on every shard.
pub fn route_cost(route: &Route, cost_of: impl Fn(LinkId) -> f64) -> f64 {
    route.links.iter().map(|&l| cost_of(l)).sum()
}

/// UGAL-style adaptive routing: compares the minimal path against the
/// flow's Valiant detour under the CRC's current prices (`cost_of`, see
/// [`dense_cost`]) and takes the strictly cheaper one (ties go minimal, so
/// an unpriced fabric routes minimally — the Valiant path can never win on
/// hop count alone).
pub fn adaptive_route(
    topo: &Topology,
    racks: &[u32],
    src: NodeId,
    dst: NodeId,
    flow_id: u64,
    cost_of: impl Fn(LinkId) -> f64,
) -> Option<Route> {
    let minimal = shortest_path(topo, src, dst)?;
    let Some(valiant) = valiant_route(topo, racks, src, dst, flow_id) else {
        return Some(minimal);
    };
    if route_cost(&valiant, &cost_of) < route_cost(&minimal, &cost_of) {
        Some(valiant)
    } else {
        Some(minimal)
    }
}

/// Dimension-ordered (X-then-Y) routing for grid and torus specs. Routes
/// along the column dimension first, then the row dimension, taking the
/// wrap-around link on a torus when it is shorter. Returns `None` for specs
/// without 2-D coordinates or if a required link is missing from the
/// topology.
pub fn dimension_ordered(
    spec: &TopologySpec,
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
) -> Option<Route> {
    if !matches!(spec.kind, TopologyKind::Grid | TopologyKind::Torus) {
        return None;
    }
    let (rows, cols) = spec.dims?;
    let (mut r, mut c) = spec.coordinates(src)?;
    let (dr, dc) = spec.coordinates(dst)?;
    let torus = spec.kind == TopologyKind::Torus;
    let id = |r: usize, c: usize| NodeId((r * cols + c) as u32);

    let mut route = Route::trivial(src);
    let step = |route: &mut Route, from: NodeId, to: NodeId| -> Option<()> {
        let links = topo.links_between(from, to);
        let link = *links.first()?;
        route.nodes.push(to);
        route.links.push(link);
        Some(())
    };

    // Column (X) dimension first.
    while c != dc {
        let next_c = next_coordinate(c, dc, cols, torus);
        let from = id(r, c);
        let to = id(r, next_c);
        step(&mut route, from, to)?;
        c = next_c;
    }
    // Then row (Y) dimension.
    while r != dr {
        let next_r = next_coordinate(r, dr, rows, torus);
        let from = id(r, c);
        let to = id(next_r, c);
        step(&mut route, from, to)?;
        r = next_r;
    }
    Some(route)
}

/// The next coordinate moving from `cur` toward `dst` along a dimension of
/// size `n`, going through the wrap-around when `torus` and it is strictly
/// shorter.
fn next_coordinate(cur: usize, dst: usize, n: usize, torus: bool) -> usize {
    if cur == dst {
        return cur;
    }
    let forward = (dst + n - cur) % n; // hops going +1 with wrap
    let backward = (cur + n - dst) % n; // hops going -1 with wrap
    if !torus {
        if dst > cur {
            cur + 1
        } else {
            cur - 1
        }
    } else if forward <= backward {
        (cur + 1) % n
    } else {
        (cur + n - 1) % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TopologySpec;
    use rackfabric_phy::PhyState;
    use rackfabric_sim::units::BitRate;

    fn build(spec: &TopologySpec) -> Topology {
        let mut phy = PhyState::new();
        spec.instantiate(&mut phy, BitRate::from_gbps(25))
    }

    #[test]
    fn shortest_path_on_a_line() {
        let spec = TopologySpec::line(6, 1);
        let topo = build(&spec);
        let r = shortest_path(&topo, NodeId(0), NodeId(5)).unwrap();
        assert_eq!(r.hops(), 5);
        assert_eq!(r.source(), NodeId(0));
        assert_eq!(r.destination(), NodeId(5));
        assert_eq!(r.intermediate_nodes().len(), 4);
        assert_eq!(r.nodes.len(), r.links.len() + 1);
        // Self route.
        assert_eq!(
            shortest_path(&topo, NodeId(2), NodeId(2)).unwrap().hops(),
            0
        );
    }

    #[test]
    fn shortest_path_unreachable_is_none() {
        let mut topo = Topology::new(4);
        topo.add_edge(NodeId(0), NodeId(1), LinkId(0));
        assert!(shortest_path(&topo, NodeId(0), NodeId(3)).is_none());
    }

    #[test]
    fn torus_shortest_uses_wraparound() {
        let spec = TopologySpec::torus(4, 4, 1);
        let topo = build(&spec);
        // Node 0 (0,0) to node 3 (0,3): 1 hop via wrap instead of 3.
        let r = shortest_path(&topo, NodeId(0), NodeId(3)).unwrap();
        assert_eq!(r.hops(), 1);
    }

    #[test]
    fn dijkstra_avoids_expensive_links() {
        let spec = TopologySpec::ring(6, 1);
        let topo = build(&spec);
        // Going 0 -> 3 both ways is 3 hops; make one direction expensive.
        let cheap = shortest_path(&topo, NodeId(0), NodeId(3)).unwrap();
        let mut costs = HashMap::new();
        // Penalise the first link of the BFS-chosen path heavily.
        costs.insert(cheap.links[0], 100.0);
        let r = dijkstra(&topo, NodeId(0), NodeId(3), &costs, 1.0).unwrap();
        assert_eq!(r.hops(), 3, "the other way round the ring is still 3 hops");
        assert_ne!(r.links[0], cheap.links[0], "must avoid the priced-up link");
    }

    #[test]
    fn dijkstra_treats_infinite_cost_as_unusable() {
        let spec = TopologySpec::line(3, 1);
        let topo = build(&spec);
        let mut costs = HashMap::new();
        for l in topo.links() {
            costs.insert(l, f64::INFINITY);
        }
        assert!(dijkstra(&topo, NodeId(0), NodeId(2), &costs, 1.0).is_none());
    }

    #[test]
    fn dijkstra_prefers_fewer_hops_with_uniform_costs() {
        let spec = TopologySpec::grid(3, 3, 1);
        let topo = build(&spec);
        let r = dijkstra(&topo, NodeId(0), NodeId(8), &HashMap::new(), 1.0).unwrap();
        assert_eq!(r.hops(), 4);
    }

    #[test]
    fn ecmp_finds_all_grid_paths() {
        let spec = TopologySpec::grid(2, 2, 1);
        let topo = build(&spec);
        // 0 -> 3 has exactly two 2-hop paths.
        let paths = ecmp_paths(&topo, NodeId(0), NodeId(3), 8);
        assert_eq!(paths.len(), 2);
        assert!(paths.iter().all(|p| p.hops() == 2));
        // Selection is deterministic per flow id and covers both paths.
        let a = ecmp_select(&topo, NodeId(0), NodeId(3), 1).unwrap();
        let b = ecmp_select(&topo, NodeId(0), NodeId(3), 1).unwrap();
        assert_eq!(a, b);
        let picks: std::collections::HashSet<Vec<LinkId>> = (0..32)
            .map(|f| ecmp_select(&topo, NodeId(0), NodeId(3), f).unwrap().links)
            .collect();
        assert_eq!(
            picks.len(),
            2,
            "different flows should spread over both paths"
        );
    }

    /// `ecmp_select` picks the path the flow hash indexes among the first 16
    /// that [`ecmp_paths`] enumerates — how it selected before it counted
    /// paths instead — for every ordered pair and flows 0..16, on fabrics
    /// with more than 16 shortest paths per pair and with parallel links.
    #[test]
    fn ecmp_select_picks_the_enumerated_path() {
        let mut parallel = build(&TopologySpec::grid(3, 3, 1));
        let fresh = LinkId(parallel.links().last().unwrap().0 + 1);
        parallel.add_edge(NodeId(1), NodeId(4), fresh);
        let mut cut = build(&TopologySpec::grid(3, 3, 1));
        for adj in cut.neighbors(NodeId(4)).to_vec() {
            cut.remove_edge(adj.link);
        }
        let torus = build(&TopologySpec::torus(4, 4, 1));
        assert!(
            ecmp_paths(&torus, NodeId(0), NodeId(10), 64).len() > 16,
            "some pair must have more shortest paths than the cap"
        );
        let fabrics = [
            build(&TopologySpec::grid(6, 6, 1)),
            torus,
            build(&TopologySpec::fat_tree(16, 8, 2, 2)),
            build(&TopologySpec::dragonfly(4, 2, 2, 1)),
            parallel,
            cut,
        ];
        for topo in &fabrics {
            for src in topo.nodes() {
                for dst in topo.nodes() {
                    let paths = ecmp_paths(topo, src, dst, 16);
                    for flow in 0..16 {
                        let want = (!paths.is_empty())
                            .then(|| paths[(splitmix(flow) % paths.len() as u64) as usize].clone());
                        assert_eq!(
                            ecmp_select(topo, src, dst, flow),
                            want,
                            "{src:?} -> {dst:?}, flow {flow}"
                        );
                    }
                }
            }
        }
        let cut = &fabrics[5];
        assert_eq!(ecmp_select(cut, NodeId(0), NodeId(4), 3), None);
        assert_eq!(ecmp_select(cut, NodeId(4), NodeId(8), 3), None);
        assert_eq!(
            ecmp_select(cut, NodeId(4), NodeId(4), 3),
            Some(Route::trivial(NodeId(4)))
        );
        let parallel = &fabrics[4];
        let picks: std::collections::HashSet<Vec<LinkId>> = (0..64)
            .map(|f| {
                ecmp_select(parallel, NodeId(1), NodeId(4), f)
                    .unwrap()
                    .links
            })
            .collect();
        assert_eq!(picks.len(), 2, "parallel links are separate paths");
    }

    #[test]
    fn ecmp_respects_max_paths_cap() {
        let spec = TopologySpec::grid(3, 3, 1);
        let topo = build(&spec);
        let paths = ecmp_paths(&topo, NodeId(0), NodeId(8), 3);
        assert!(paths.len() <= 3);
        assert!(!paths.is_empty());
    }

    #[test]
    fn dimension_ordered_routes_x_then_y() {
        let spec = TopologySpec::grid(4, 4, 1);
        let topo = build(&spec);
        // (0,0) -> (2,3): 3 column hops then 2 row hops.
        let r = dimension_ordered(&spec, &topo, NodeId(0), NodeId(11)).unwrap();
        assert_eq!(r.hops(), 5);
        // The first moves change only the column.
        let coords: Vec<(usize, usize)> = r
            .nodes
            .iter()
            .map(|n| spec.coordinates(*n).unwrap())
            .collect();
        assert_eq!(coords[0].0, coords[1].0, "first hop stays in the same row");
        assert_eq!(
            coords[3].1, coords[4].1,
            "last hops stay in the same column"
        );
    }

    #[test]
    fn dimension_ordered_on_torus_uses_wrap() {
        let spec = TopologySpec::torus(4, 4, 1);
        let topo = build(&spec);
        // (0,0) -> (0,3) should use the wrap-around: 1 hop.
        let r = dimension_ordered(&spec, &topo, NodeId(0), NodeId(3)).unwrap();
        assert_eq!(r.hops(), 1);
        // (0,0) -> (3,3) is 1 + 1 with both wraps.
        let r2 = dimension_ordered(&spec, &topo, NodeId(0), NodeId(15)).unwrap();
        assert_eq!(r2.hops(), 2);
    }

    #[test]
    fn dimension_ordered_rejects_non_mesh_specs() {
        let spec = TopologySpec::ring(5, 1);
        let topo = build(&spec);
        assert!(dimension_ordered(&spec, &topo, NodeId(0), NodeId(2)).is_none());
    }

    #[test]
    fn valiant_detours_through_a_third_group() {
        let spec = TopologySpec::dragonfly(4, 2, 2, 1);
        let topo = build(&spec);
        let racks = spec.rack_of();
        // Hosts in groups 0 and 1 (group block = 6 nodes, routers first).
        let src = NodeId(2);
        let dst = NodeId(8);
        let minimal = shortest_path(&topo, src, dst).unwrap();
        // Some flow must pick a detour longer than minimal that transits a
        // rack that is neither endpoint's.
        let mut detoured = false;
        for flow in 0..16u64 {
            let r = valiant_route(&topo, &racks, src, dst, flow).unwrap();
            assert_eq!(r.source(), src);
            assert_eq!(r.destination(), dst);
            // Deterministic per flow id.
            assert_eq!(r, valiant_route(&topo, &racks, src, dst, flow).unwrap());
            let transits: std::collections::HashSet<u32> = r
                .intermediate_nodes()
                .iter()
                .map(|n| racks[n.index()])
                .collect();
            if r.hops() > minimal.hops() {
                assert!(
                    transits
                        .iter()
                        .any(|&g| g != racks[src.index()] && g != racks[dst.index()]),
                    "longer path must transit a third group"
                );
                detoured = true;
            }
        }
        assert!(detoured, "flow hashing must reach a detour");
    }

    #[test]
    fn valiant_falls_back_without_a_detour_rack() {
        // 2 groups: no third rack to detour through.
        let spec = TopologySpec::dragonfly(2, 2, 1, 1);
        let topo = build(&spec);
        let racks = spec.rack_of();
        let minimal = shortest_path(&topo, NodeId(2), NodeId(6)).unwrap();
        for flow in 0..4u64 {
            let r = valiant_route(&topo, &racks, NodeId(2), NodeId(6), flow).unwrap();
            assert_eq!(r, minimal);
        }
        // Same-rack pairs route minimally too.
        let intra = valiant_route(&topo, &racks, NodeId(2), NodeId(3), 9).unwrap();
        assert_eq!(
            intra.hops(),
            shortest_path(&topo, NodeId(2), NodeId(3)).unwrap().hops()
        );
    }

    #[test]
    fn adaptive_prefers_minimal_until_prices_bite() {
        let spec = TopologySpec::dragonfly(4, 2, 2, 1);
        let topo = build(&spec);
        let racks = spec.rack_of();
        let src = NodeId(2);
        let dst = NodeId(8);
        let minimal = shortest_path(&topo, src, dst).unwrap();
        // Unpriced fabric: every flow routes minimally.
        for flow in 0..8u64 {
            let r = adaptive_route(&topo, &racks, src, dst, flow, |_| 1.0).unwrap();
            assert_eq!(r, minimal);
        }
        // Price the minimal path's links sky-high: flows whose Valiant
        // detour avoids them switch over.
        let mut costs = HashMap::new();
        for l in &minimal.links {
            costs.insert(*l, 1000.0);
        }
        let cost_of = |l: LinkId| costs.get(&l).copied().unwrap_or(1.0);
        let mut switched = false;
        for flow in 0..16u64 {
            let r = adaptive_route(&topo, &racks, src, dst, flow, cost_of).unwrap();
            if r != minimal {
                switched = true;
                assert!(route_cost(&r, cost_of) < route_cost(&minimal, cost_of));
            }
        }
        assert!(switched, "congestion pricing must divert some flows");
    }

    #[test]
    fn policy_trait_helpers_classify_algorithms() {
        use RoutingAlgorithm::*;
        assert!(Ecmp.per_flow() && Valiant.per_flow() && Adaptive.per_flow());
        assert!(!ShortestHop.per_flow() && !MinCost.per_flow());
        assert!(MinCost.cost_aware() && Adaptive.cost_aware());
        assert!(!ShortestHop.cost_aware() && !Valiant.cost_aware() && !Ecmp.cost_aware());
    }

    #[test]
    fn routes_match_shortest_lengths_on_grid() {
        let spec = TopologySpec::grid(4, 4, 1);
        let topo = build(&spec);
        for dst in 1..16u32 {
            let bfs = shortest_path(&topo, NodeId(0), NodeId(dst)).unwrap();
            let dor = dimension_ordered(&spec, &topo, NodeId(0), NodeId(dst)).unwrap();
            assert_eq!(
                bfs.hops(),
                dor.hops(),
                "DOR on a mesh is minimal (dst {dst})"
            );
        }
    }
}
