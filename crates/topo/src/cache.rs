//! Epoch-invalidated route caching.
//!
//! Flow admission used to re-run BFS/Dijkstra for every injected packet —
//! by far the most expensive per-packet work in the fabric model. Within one
//! *topology epoch* (the interval between reconfigurations, and between
//! price updates for cost-aware routing) the route for a `(src, dst)` pair
//! is a pure function, so it can be computed once, interned against the
//! [`LinkArena`], and reused by every subsequent train of that pair.
//!
//! An [`InternedRoute`] is one shared allocation: each hop a node and the
//! dense link leaving it. Cloning it bumps a reference count, and the
//! lookups below lend it rather than clone it.
//!
//! Three policies share one epoch counter:
//!
//! * **Single-path routing** (shortest hop, min cost) goes through
//!   [`RouteCache::tree_route`]: one BFS/Dijkstra tree per source per
//!   epoch. The first lookup from a source in an epoch builds that source's
//!   predecessor tree and interns its links against the arena once. A route
//!   is walked out of the tree (in a scratch buffer the cache reuses, then
//!   copied into its one allocation) only on its first lookup, then kept
//!   densely by destination, so a repeat lookup is two vector indexes and
//!   no hashing. A lookup counts as a hit exactly when its source's tree
//!   already existed this epoch.
//! * **UGAL-style adaptive routing** goes through
//!   [`RouteCache::adaptive_route`], keyed by `(src, dst, flow)`. Its two
//!   candidates, the minimal route and the flow's Valiant detour, do not
//!   depend on prices, so they are kept until the topology changes and a
//!   price update only re-prices them, summing the new costs over their
//!   hops.
//! * **Per-flow routing** (ECMP, Valiant) and the other per-pair algorithms
//!   go through [`RouteCache::get_or_compute`], a map keyed by
//!   `(src, dst, selector)`.
//!
//! The two keyed maps hash a key as three words with one rotate, xor and
//! multiply each, not with std's SipHash: they sit on every injection under
//! the per-flow and adaptive policies.
//!
//! Invalidation is by epoch counter: bumping the epoch makes every cached
//! tree and entry stale without touching them (stale state is overwritten
//! on next access), so invalidation is O(1) no matter how much is cached.
//! A second counter, the topology epoch, guards the adaptive candidates.

use crate::arena::{LinkArena, LinkIdx};
use crate::graph::{NodeId, Topology};
use crate::routing::{
    dense_cost, dijkstra_tree_by, route_cost, shortest_path, shortest_path_tree, valiant_route,
    Route,
};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// One hop of an interned route: a node and the dense index of the link
/// leaving it toward the next node (`None` at the destination).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Hop {
    node: NodeId,
    link: Option<LinkIdx>,
}

/// A route resolved against a [`LinkArena`]: its nodes and the dense links
/// between them, in one shared allocation. Cloning the handle bumps a
/// reference count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InternedRoute {
    hops: Arc<[Hop]>,
}

impl InternedRoute {
    /// Interns `route` against `arena`. Returns `None` when the route
    /// references a link the arena does not know (a torn-down link id from a
    /// previous epoch) — callers should recompute the route.
    pub fn intern(route: Route, arena: &LinkArena) -> Option<InternedRoute> {
        Self::try_intern(route, arena).ok()
    }

    /// [`intern`](Self::intern), handing `route` back on failure.
    fn try_intern(route: Route, arena: &LinkArena) -> Result<InternedRoute, Route> {
        let Some((&dst, nodes)) = route.nodes.split_last() else {
            return Err(route);
        };
        if nodes.len() != route.links.len() {
            return Err(route);
        }
        let hops: Option<Arc<[Hop]>> = nodes
            .iter()
            .zip(&route.links)
            .map(|(&node, &id)| {
                let link = Some(arena.index(id)?);
                Some(Hop { node, link })
            })
            .chain([Some(Hop {
                node: dst,
                link: None,
            })])
            .collect();
        match hops {
            Some(hops) => Ok(InternedRoute { hops }),
            None => Err(route),
        }
    }

    /// Number of hops (links traversed).
    #[inline]
    pub fn hops(&self) -> usize {
        self.hops.len() - 1
    }

    /// The `i`-th node: the source at 0, the destination at
    /// [`hops`](Self::hops).
    #[inline]
    pub fn node(&self, i: usize) -> NodeId {
        self.hops[i].node
    }

    /// The dense link from node `i` to node `i + 1`.
    #[inline]
    pub fn link(&self, i: usize) -> LinkIdx {
        self.hops[i]
            .link
            .expect("the destination has no outgoing link")
    }

    /// The route's cost under `costs`, dense by the arena's [`LinkIdx`]:
    /// the same sum, in the same order, as [`route_cost`] under
    /// [`dense_cost`] over the un-interned route.
    pub fn cost(&self, costs: &[f64]) -> f64 {
        self.hops
            .iter()
            .filter_map(|hop| hop.link)
            .map(|link| costs[link.index()])
            .sum()
    }
}

/// Hit/miss counters of a [`RouteCache`], cheap to copy into run metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to recompute (cold or stale entry).
    pub misses: u64,
}

impl RouteCacheStats {
    /// Fraction of lookups served from the cache (0 when never queried).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Cache key: a source/destination pair plus a selector discriminating
/// routes that legitimately differ per flow on the same pair (ECMP).
type Key = (NodeId, NodeId, u64);

/// The hasher of the per-flow maps: per word, rotate, xor and multiply
/// (the Fx hash). The keys are simulation state, never external input, so
/// SipHash's resistance to chosen keys buys nothing; and the maps are only
/// looked up, never iterated, so the hash cannot reach an output.
#[derive(Default)]
struct KeyHasher(u64);

impl KeyHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.add(u64::from(byte));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map keyed by [`Key`] under [`KeyHasher`].
type KeyMap<V> = HashMap<Key, V, BuildHasherDefault<KeyHasher>>;

/// A predecessor-tree edge reaching a node: its parent and the arena index
/// of the link between them (`None` when the arena lacks the link).
type TreeEdge = (NodeId, Option<LinkIdx>);

/// One source's single-path state: its predecessor tree and the routes
/// looked up from it, both dense by node index.
#[derive(Debug, Default)]
struct SourceTree {
    /// The epoch the tree was built in (`None`: never built).
    epoch: Option<u64>,
    /// `parent[n]` is the tree edge reaching `n`.
    parent: Vec<Option<TreeEdge>>,
    /// `routes[dst]` is `None` until `dst` is first looked up, then the
    /// answer (which may be "no route").
    routes: Vec<Option<Option<InternedRoute>>>,
}

impl SourceTree {
    /// The route from `src` to `dst` walked out of the tree, exactly as
    /// [`route_from_tree`](crate::routing::route_from_tree) followed by
    /// [`InternedRoute::intern`] would build it. The walk runs in `scratch`,
    /// so the route is the one allocation it makes.
    fn walk(
        parent: &[Option<TreeEdge>],
        src: NodeId,
        dst: NodeId,
        scratch: &mut Vec<Hop>,
    ) -> Option<InternedRoute> {
        scratch.clear();
        scratch.push(Hop {
            node: dst,
            link: None,
        });
        let mut cur = dst;
        while cur != src {
            let (prev, link) = parent[cur.index()]?;
            scratch.push(Hop {
                node: prev,
                link: Some(link?),
            });
            cur = prev;
        }
        scratch.reverse();
        Some(InternedRoute {
            hops: Arc::from(&scratch[..]),
        })
    }
}

/// A UGAL candidate route: interned, or kept raw for pricing when the arena
/// lacks one of its links (choosing it then answers `None`, as interning
/// the choice would). Boxed, because only a topology the arena was not
/// built from produces it.
type Candidate = Result<InternedRoute, Box<Route>>;

fn candidate(route: Route, arena: &LinkArena) -> Candidate {
    InternedRoute::try_intern(route, arena).map_err(Box::new)
}

/// A candidate's cost under `costs`: bit-identical to [`route_cost`] under
/// [`dense_cost`] over the un-interned route.
fn priced(candidate: &Candidate, arena: &LinkArena, costs: &[f64]) -> f64 {
    match candidate {
        Ok(interned) => interned.cost(costs),
        Err(route) => route_cost(route, dense_cost(arena, costs)),
    }
}

/// One adaptive `(src, dst, flow)`: its candidates, built once per topology
/// epoch, and the answer chosen between them once per epoch.
#[derive(Debug, Default)]
struct AdaptiveEntry {
    /// The topology epoch the candidates were built in (`None`: never).
    topology_epoch: Option<u64>,
    /// The epoch `answer` was chosen in (`None`: never).
    epoch: Option<u64>,
    /// The minimal route and the flow's Valiant detour, if one exists;
    /// `None` when no minimal route exists.
    candidates: Option<(Candidate, Option<Candidate>)>,
    answer: Option<InternedRoute>,
}

/// An epoch-tagged cache of interned routes.
///
/// `None` answers are cached too: "no route exists right now" is just as
/// expensive to recompute as a route.
#[derive(Debug, Default)]
pub struct RouteCache {
    epoch: u64,
    topology_epoch: u64,
    /// Per-pair routes and the epoch each was computed in.
    entries: KeyMap<(Option<u64>, Option<InternedRoute>)>,
    adaptive: KeyMap<AdaptiveEntry>,
    /// Single-path trees, dense by source node index.
    trees: Vec<SourceTree>,
    /// The buffer tree walks run in.
    scratch: Vec<Hop>,
    stats: RouteCacheStats,
}

impl RouteCache {
    /// An empty cache at epoch 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current epoch.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Invalidates every cached route in O(1) by advancing the epoch, but
    /// keeps the price-free adaptive candidates. Call on every price update
    /// when routing is cost-aware.
    pub fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Invalidates every cached route and adaptive candidate in O(1). Call
    /// whenever the topology changes.
    pub fn bump_topology_epoch(&mut self) {
        self.topology_epoch += 1;
        self.bump_epoch();
    }

    /// The single-path route from `src` to `dst` in the current epoch: the
    /// hop-count (BFS) tree when `costs` is `None`, the min-cost (Dijkstra)
    /// tree under `costs` otherwise. `costs` is dense by `arena`'s
    /// [`LinkIdx`] (see [`dense_cost`]; links the arena lacks cost 1), and
    /// builds the same tree as [`dijkstra_tree`](crate::routing::dijkstra_tree)
    /// over the equivalent cost map.
    ///
    /// The first lookup from `src` in an epoch is a miss and builds its
    /// tree; every later one is a hit, and interns its route out of the tree
    /// the first time `dst` is asked for. A destination the tree does not
    /// reach, or reaches over a link `arena` lacks, is a cached `None`.
    pub fn tree_route(
        &mut self,
        topo: &Topology,
        arena: &LinkArena,
        costs: Option<&[f64]>,
        src: NodeId,
        dst: NodeId,
    ) -> Option<&InternedRoute> {
        if self.trees.len() <= src.index() {
            self.trees.resize_with(src.index() + 1, SourceTree::default);
        }
        let tree = &mut self.trees[src.index()];
        if tree.epoch == Some(self.epoch) {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
            let parents = match costs {
                None => shortest_path_tree(topo, src),
                Some(costs) => dijkstra_tree_by(topo, src, dense_cost(arena, costs)),
            };
            tree.epoch = Some(self.epoch);
            tree.parent.clear();
            tree.parent.extend(
                parents
                    .into_iter()
                    .map(|edge| edge.map(|(prev, id)| (prev, arena.index(id)))),
            );
            tree.routes.clear();
            tree.routes.resize(tree.parent.len(), None);
        }
        let SourceTree { parent, routes, .. } = tree;
        let scratch = &mut self.scratch;
        routes
            .get_mut(dst.index())?
            .get_or_insert_with(|| SourceTree::walk(parent, src, dst, scratch))
            .as_ref()
    }

    /// The UGAL-style adaptive route of flow `flow` from `src` to `dst`:
    /// what [`adaptive_route`](crate::routing::adaptive_route) under `costs`
    /// (dense by `arena`'s [`LinkIdx`], see [`dense_cost`]) followed by
    /// [`InternedRoute::intern`] builds.
    ///
    /// The first lookup of a `(src, dst, flow)` in an epoch is a miss and
    /// chooses between the two candidates under `costs`; it rebuilds the
    /// candidates only when the topology epoch moved since they were built.
    #[allow(clippy::too_many_arguments)]
    pub fn adaptive_route(
        &mut self,
        topo: &Topology,
        arena: &LinkArena,
        racks: &[u32],
        costs: &[f64],
        src: NodeId,
        dst: NodeId,
        flow: u64,
    ) -> Option<&InternedRoute> {
        let entry = self.adaptive.entry((src, dst, flow)).or_default();
        if entry.epoch == Some(self.epoch) {
            self.stats.hits += 1;
            return entry.answer.as_ref();
        }
        self.stats.misses += 1;
        if entry.topology_epoch != Some(self.topology_epoch) {
            entry.topology_epoch = Some(self.topology_epoch);
            entry.candidates = shortest_path(topo, src, dst).map(|minimal| {
                let valiant = valiant_route(topo, racks, src, dst, flow);
                (
                    candidate(minimal, arena),
                    valiant.map(|route| candidate(route, arena)),
                )
            });
        }
        entry.epoch = Some(self.epoch);
        entry.answer = entry.candidates.as_ref().and_then(|(minimal, valiant)| {
            let chosen = match valiant {
                Some(valiant) if priced(valiant, arena, costs) < priced(minimal, arena, costs) => {
                    valiant
                }
                _ => minimal,
            };
            chosen.as_ref().ok().cloned()
        });
        entry.answer.as_ref()
    }

    /// Looks up the route for `(src, dst, selector)` in the current epoch,
    /// computing and caching it via `compute` on a miss.
    pub fn get_or_compute(
        &mut self,
        src: NodeId,
        dst: NodeId,
        selector: u64,
        compute: impl FnOnce() -> Option<InternedRoute>,
    ) -> Option<&InternedRoute> {
        let (epoch, route) = self.entries.entry((src, dst, selector)).or_default();
        if *epoch == Some(self.epoch) {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
            *epoch = Some(self.epoch);
            *route = compute();
        }
        route.as_ref()
    }

    /// Hit/miss counters accumulated since construction.
    #[inline]
    pub fn stats(&self) -> RouteCacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::{adaptive_route, dijkstra_tree, route_from_tree, shortest_path};
    use crate::spec::TopologySpec;
    use rackfabric_phy::{LinkId, PhyState};
    use rackfabric_sim::units::BitRate;

    fn setup() -> (crate::graph::Topology, LinkArena) {
        let mut phy = PhyState::new();
        let topo = TopologySpec::grid(3, 3, 1).instantiate(&mut phy, BitRate::from_gbps(25));
        let arena = LinkArena::build(&topo);
        (topo, arena)
    }

    #[test]
    fn caches_within_an_epoch_and_recomputes_after_bump() {
        let (topo, arena) = setup();
        let mut cache = RouteCache::new();
        let mut computes = 0;
        for _ in 0..5 {
            let r = cache.get_or_compute(NodeId(0), NodeId(8), 0, || {
                computes += 1;
                shortest_path(&topo, NodeId(0), NodeId(8))
                    .and_then(|r| InternedRoute::intern(r, &arena))
            });
            assert_eq!(r.unwrap().hops(), 4);
        }
        assert_eq!(computes, 1, "one compute serves the whole epoch");
        assert_eq!(cache.stats().hits, 4);
        assert_eq!(cache.stats().misses, 1);

        cache.bump_epoch();
        cache.get_or_compute(NodeId(0), NodeId(8), 0, || {
            computes += 1;
            None
        });
        assert_eq!(computes, 2, "bumping the epoch invalidates the entry");
    }

    #[test]
    fn selector_discriminates_ecmp_flows() {
        let (_, _) = setup();
        let mut cache = RouteCache::new();
        cache.get_or_compute(NodeId(0), NodeId(1), 7, || None);
        cache.get_or_compute(NodeId(0), NodeId(1), 8, || None);
        assert_eq!(cache.stats().misses, 2, "different selectors are distinct");
        cache.get_or_compute(NodeId(0), NodeId(1), 7, || None);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn negative_results_are_cached() {
        let mut cache = RouteCache::new();
        let mut computes = 0;
        for _ in 0..3 {
            let r = cache.get_or_compute(NodeId(0), NodeId(5), 0, || {
                computes += 1;
                None
            });
            assert!(r.is_none());
        }
        assert_eq!(computes, 1, "'no route' is cached like any other answer");
    }

    #[test]
    fn interning_fails_for_unknown_links() {
        let (topo, arena) = setup();
        let route = shortest_path(&topo, NodeId(0), NodeId(8)).unwrap();
        let mut broken = route.clone();
        broken.links[0] = rackfabric_phy::LinkId(9999);
        assert!(InternedRoute::intern(route, &arena).is_some());
        assert!(InternedRoute::intern(broken, &arena).is_none());
    }

    fn grid4() -> (crate::graph::Topology, LinkArena) {
        let mut phy = PhyState::new();
        let topo = TopologySpec::grid(4, 4, 1).instantiate(&mut phy, BitRate::from_gbps(25));
        let arena = LinkArena::build(&topo);
        (topo, arena)
    }

    /// A deterministic, non-uniform price per link.
    fn skewed_costs(topo: &crate::graph::Topology) -> HashMap<LinkId, f64> {
        topo.links()
            .into_iter()
            .enumerate()
            .map(|(i, id)| (id, 1.0 + (i * 7 % 5) as f64))
            .collect()
    }

    /// `costs` lowered onto `arena`, as the engines hand it to `tree_route`.
    fn lowered(arena: &LinkArena, costs: &HashMap<LinkId, f64>) -> Vec<f64> {
        arena
            .iter()
            .map(|(_, id)| costs.get(&id).copied().unwrap_or(1.0))
            .collect()
    }

    /// What the cache must answer: the tree built afresh over the cost map,
    /// walked with `route_from_tree` and interned.
    fn expected(
        topo: &crate::graph::Topology,
        arena: &LinkArena,
        costs: Option<&HashMap<LinkId, f64>>,
        src: NodeId,
        dst: NodeId,
    ) -> Option<InternedRoute> {
        let tree = match costs {
            None => shortest_path_tree(topo, src),
            Some(costs) => dijkstra_tree(topo, src, costs, 1.0),
        };
        route_from_tree(src, dst, &tree).and_then(|r| InternedRoute::intern(r, arena))
    }

    #[test]
    fn tree_routes_match_walking_and_interning_the_tree() {
        let (topo, arena) = grid4();
        let costs = skewed_costs(&topo);
        let dense = lowered(&arena, &costs);
        let mut differs = false;
        for (costs, dense) in [(None, None), (Some(&costs), Some(&dense[..]))] {
            let mut cache = RouteCache::new();
            for src in topo.nodes() {
                for dst in topo.nodes() {
                    let got = cache.tree_route(&topo, &arena, dense, src, dst);
                    let want = expected(&topo, &arena, costs, src, dst);
                    assert_eq!(got, want.as_ref(), "{src:?} -> {dst:?}");
                    assert!(want.is_some(), "the grid is connected");
                    differs |= want != expected(&topo, &arena, None, src, dst);
                }
            }
        }
        assert!(differs, "the cost map must move some min-cost route");
    }

    #[test]
    fn a_source_misses_once_per_epoch() {
        let (topo, arena) = grid4();
        let costs = lowered(&arena, &skewed_costs(&topo));
        let n = topo.node_count() as u64;
        for costs in [None, Some(&costs[..])] {
            let mut cache = RouteCache::new();
            for epoch in 1..=2 {
                for src in topo.nodes() {
                    // Start at a different destination per source: the
                    // first lookup misses whichever destination it asks.
                    for i in 0..n {
                        let dst = NodeId(((src.0 as u64 + 5 + i) % n) as u32);
                        let before = cache.stats();
                        let first = cache.tree_route(&topo, &arena, costs, src, dst).cloned();
                        let misses = cache.stats().misses - before.misses;
                        assert_eq!(misses, (i == 0) as u64, "{src:?} -> {dst:?}");
                        let again = cache.tree_route(&topo, &arena, costs, src, dst);
                        assert!(
                            Arc::ptr_eq(&first.unwrap().hops, &again.unwrap().hops),
                            "a repeat lookup serves the same allocation"
                        );
                    }
                }
                let stats = cache.stats();
                assert_eq!(stats.misses, n * epoch, "one miss per source per epoch");
                assert_eq!(stats.hits, (2 * n * n - n) * epoch);
                cache.bump_epoch();
            }
        }
    }

    #[test]
    fn unreachable_destinations_are_cached_as_none() {
        let (mut topo, _) = grid4();
        // Cut the corner node off the grid.
        for adj in topo.neighbors(NodeId(0)).to_vec() {
            topo.remove_edge(adj.link);
        }
        let arena = LinkArena::build(&topo);
        let costs = lowered(&arena, &skewed_costs(&topo));
        for costs in [None, Some(&costs[..])] {
            let mut cache = RouteCache::new();
            for _ in 0..2 {
                assert!(cache
                    .tree_route(&topo, &arena, costs, NodeId(5), NodeId(0))
                    .is_none());
            }
            assert!(cache
                .tree_route(&topo, &arena, costs, NodeId(5), NodeId(15))
                .is_some());
            assert_eq!(cache.stats(), RouteCacheStats { hits: 2, misses: 1 });
            let isolated = cache.tree_route(&topo, &arena, costs, NodeId(0), NodeId(0));
            let trivial = InternedRoute::intern(Route::trivial(NodeId(0)), &arena);
            assert_eq!(isolated, trivial.as_ref());
            assert_eq!(isolated.unwrap().hops(), 0);
            assert!(cache
                .tree_route(&topo, &arena, costs, NodeId(0), NodeId(15))
                .is_none());
        }
    }

    #[test]
    fn a_tree_through_a_link_the_arena_lacks_yields_none() {
        let (mut topo, arena) = grid4();
        // Re-lay the 0-1 link under an id the arena has never seen.
        let old = topo.links_between(NodeId(0), NodeId(1));
        assert_eq!(old.len(), 1);
        topo.remove_edge(old[0]);
        topo.add_edge(NodeId(0), NodeId(1), rackfabric_phy::LinkId(9999));
        let mut cache = RouteCache::new();
        let mut missing = 0;
        for dst in topo.nodes() {
            let got = cache.tree_route(&topo, &arena, None, NodeId(0), dst);
            let want = expected(&topo, &arena, None, NodeId(0), dst);
            assert_eq!(got, want.as_ref(), "0 -> {dst:?}");
            missing += got.is_none() as usize;
        }
        assert!(missing > 0, "the tree crosses the unknown link");
        assert!(cache
            .tree_route(&topo, &arena, None, NodeId(0), NodeId(1))
            .is_none());
        assert!(cache
            .tree_route(&topo, &arena, None, NodeId(0), NodeId(4))
            .is_some());
        assert_eq!(cache.stats().misses, 1);
    }

    /// A priced dragonfly: 4 groups of 2 routers with 2 hosts each.
    fn dragonfly() -> (crate::graph::Topology, LinkArena, Vec<u32>) {
        let spec = TopologySpec::dragonfly(4, 2, 2, 1);
        let mut phy = PhyState::new();
        let topo = spec.instantiate(&mut phy, BitRate::from_gbps(25));
        let arena = LinkArena::build(&topo);
        (topo, arena, spec.rack_of())
    }

    /// Price book `k` over `arena`: uniform for 0, skewed differently for
    /// every other `k`.
    fn price_book(arena: &LinkArena, k: usize) -> Vec<f64> {
        arena
            .iter()
            .map(|(idx, _)| 1.0 + (idx.index() * (3 * k + 4) % 7 * k) as f64 * 40.0)
            .collect()
    }

    /// What the adaptive lookup must answer: UGAL under `costs`, interned.
    fn ugal(
        topo: &crate::graph::Topology,
        arena: &LinkArena,
        racks: &[u32],
        costs: &[f64],
        key: Key,
    ) -> Option<InternedRoute> {
        let (src, dst, flow) = key;
        adaptive_route(topo, racks, src, dst, flow, dense_cost(arena, costs))
            .and_then(|r| InternedRoute::intern(r, arena))
    }

    fn keys(topo: &crate::graph::Topology) -> Vec<Key> {
        let mut keys = Vec::new();
        for src in topo.nodes() {
            for dst in topo.nodes() {
                keys.extend((0..4).map(|flow| (src, dst, flow)));
            }
        }
        keys
    }

    #[test]
    fn adaptive_routes_match_ugal_across_price_updates() {
        let (topo, arena, racks) = dragonfly();
        let keys = keys(&topo);
        let mut cache = RouteCache::new();
        let mut first: HashMap<Key, InternedRoute> = HashMap::new();
        let mut detours = 0;
        for k in 0..4 {
            let costs = price_book(&arena, k);
            for &(src, dst, flow) in &keys {
                let want = ugal(&topo, &arena, &racks, &costs, (src, dst, flow));
                let got = cache
                    .adaptive_route(&topo, &arena, &racks, &costs, src, dst, flow)
                    .cloned();
                assert_eq!(got, want, "book {k}: {src:?} -> {dst:?}");
                let got = got.expect("the dragonfly is connected");
                let again = cache.adaptive_route(&topo, &arena, &racks, &costs, src, dst, flow);
                assert!(
                    Arc::ptr_eq(&got.hops, &again.unwrap().hops),
                    "a repeat lookup hits"
                );
                let first = first.entry((src, dst, flow)).or_insert_with(|| got.clone());
                if got == *first {
                    assert!(
                        Arc::ptr_eq(&got.hops, &first.hops),
                        "a price update re-prices the candidates, never rebuilds them"
                    );
                } else {
                    detours += 1;
                }
            }
            cache.bump_epoch();
        }
        assert!(
            detours > 0,
            "some price book must move a flow onto its detour"
        );
        let n = keys.len() as u64;
        assert_eq!(
            cache.stats(),
            RouteCacheStats {
                hits: 4 * n,
                misses: 4 * n
            }
        );
    }

    #[test]
    fn adaptive_routes_follow_a_topology_change() {
        let (mut topo, arena, racks) = dragonfly();
        let keys = keys(&topo);
        let costs = price_book(&arena, 2);
        let mut cache = RouteCache::new();
        let before: Vec<_> = keys
            .iter()
            .map(|&(src, dst, flow)| {
                cache
                    .adaptive_route(&topo, &arena, &racks, &costs, src, dst, flow)
                    .cloned()
            })
            .collect();
        // Cut one global link: the routes over it must move.
        let global = topo.links_between(NodeId(0), NodeId(6));
        assert_eq!(global.len(), 1, "routers 0 and 6 share a global link");
        topo.remove_edge(global[0]);
        let arena = LinkArena::build(&topo);
        let costs = price_book(&arena, 2);
        cache.bump_topology_epoch();
        let mut moved = 0;
        for (&(src, dst, flow), before) in keys.iter().zip(&before) {
            let want = ugal(&topo, &arena, &racks, &costs, (src, dst, flow));
            let got = cache
                .adaptive_route(&topo, &arena, &racks, &costs, src, dst, flow)
                .cloned();
            assert_eq!(got, want, "{src:?} -> {dst:?}");
            moved += (got != *before) as u32;
        }
        assert!(moved > 0, "the cut link carried some route");
    }

    #[test]
    fn hit_rate_counts() {
        let stats = RouteCacheStats { hits: 3, misses: 1 };
        assert!((stats.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(RouteCacheStats::default().hit_rate(), 0.0);
    }
}
