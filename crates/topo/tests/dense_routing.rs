//! Dense routing inputs build the same trees as the map-keyed reference.
//!
//! A seeded property test over grid, torus and dragonfly fabrics, each
//! edited by random `add_edge`/`remove_edge` calls (parallel links
//! included). After every edit batch it checks that:
//!
//! * `Topology::neighbors` is the node's edges collected and then sorted by
//!   `(neighbor, link)`, even though the order is now kept at insertion;
//! * the route cache's min-cost trees, read from a `LinkIdx`-indexed cost
//!   vector, equal `dijkstra_tree` over the equivalent cost map, for random
//!   costs (ties, infinite and negative ones) and maps that omit links;
//! * `LinkArena::index` round-trips every interned id and answers `None`
//!   for removed ids and for ids past its table;
//! * `shortest_path` answers every pair with the route its BFS tree holds,
//!   and `dijkstra` and `shortest_path` from a source outside the topology
//!   answer `None`.

use rackfabric_phy::{LinkId, PhyState};
use rackfabric_sim::units::BitRate;
use rackfabric_sim::DetRng;
use rackfabric_topo::graph::Adjacency;
use rackfabric_topo::routing::{
    dense_cost, dijkstra, dijkstra_tree, route_cost, route_from_tree, shortest_path,
    shortest_path_tree,
};
use rackfabric_topo::{InternedRoute, LinkArena, NodeId, RouteCache, Topology, TopologySpec};
use std::collections::{BTreeMap, HashMap};

const CASES: u64 = 8;
const EDIT_ROUNDS: usize = 4;

fn specs() -> Vec<TopologySpec> {
    vec![
        TopologySpec::grid(3, 4, 2),
        TopologySpec::grid(5, 5, 1),
        TopologySpec::torus(4, 4, 2),
        TopologySpec::torus(3, 5, 1),
        TopologySpec::dragonfly(4, 2, 2, 1),
        TopologySpec::dragonfly(5, 3, 1, 1),
    ]
}

/// The reference adjacency of `n`: every edge touching it, collected from
/// the edge list and sorted the way `neighbors` used to sort on each call.
fn reference_neighbors(edges: &BTreeMap<LinkId, (NodeId, NodeId)>, n: NodeId) -> Vec<Adjacency> {
    let mut v: Vec<Adjacency> = edges
        .iter()
        .filter_map(|(&link, &(a, b))| {
            let neighbor = if a == n {
                b
            } else if b == n {
                a
            } else {
                return None;
            };
            Some(Adjacency { neighbor, link })
        })
        .collect();
    v.sort_by_key(|adj| (adj.neighbor, adj.link));
    v
}

/// A random edit batch: removals of live links and additions of fresh
/// ones, half of them parallel to an existing edge. Fresh ids continue
/// the dense id sequence, as `PhyState` would hand them out.
fn edit(
    rng: &mut DetRng,
    topo: &mut Topology,
    edges: &mut BTreeMap<LinkId, (NodeId, NodeId)>,
    removed: &mut Vec<LinkId>,
    next_id: &mut u64,
) {
    let nodes = topo.node_count();
    for _ in 0..1 + rng.index(6) {
        if !edges.is_empty() && rng.chance(0.5) {
            let victim = *edges.keys().nth(rng.index(edges.len())).unwrap();
            assert_eq!(topo.remove_edge(victim), edges.remove(&victim));
            removed.push(victim);
        } else {
            let (a, b) = if !edges.is_empty() && rng.chance(0.5) {
                // A parallel link beside an existing edge, either way round.
                let &(a, b) = edges.values().nth(rng.index(edges.len())).unwrap();
                if rng.chance(0.5) {
                    (a, b)
                } else {
                    (b, a)
                }
            } else {
                let a = rng.index(nodes);
                let b = (a + 1 + rng.index(nodes - 1)) % nodes;
                (NodeId(a as u32), NodeId(b as u32))
            };
            let link = LinkId(*next_id);
            *next_id += 1;
            topo.add_edge(a, b, link);
            edges.insert(link, (a, b));
        }
    }
}

/// A random cost map over the live links: some omitted (default 1.0),
/// some tied, some unusable.
fn random_costs(rng: &mut DetRng, topo: &Topology) -> HashMap<LinkId, f64> {
    let mut costs = HashMap::new();
    for link in topo.links() {
        let cost = match rng.index(8) {
            0 => continue,
            1 => f64::INFINITY,
            2 => -1.0,
            3 => 2.0,
            4 => 0.5,
            _ => 0.05 + 4.0 * rng.next_f64(),
        };
        costs.insert(link, cost);
    }
    costs
}

fn check_dense_state(
    rng: &mut DetRng,
    topo: &Topology,
    edges: &BTreeMap<LinkId, (NodeId, NodeId)>,
    removed: &[LinkId],
    context: &str,
) {
    for n in topo.nodes() {
        assert_eq!(
            topo.neighbors(n),
            reference_neighbors(edges, n).as_slice(),
            "{context}: neighbors({n:?})"
        );
    }

    let arena = LinkArena::build(topo);
    assert_eq!(arena.len(), edges.len(), "{context}: arena size");
    for &id in edges.keys() {
        let idx = arena
            .index(id)
            .unwrap_or_else(|| panic!("{context}: {id:?} not interned"));
        assert_eq!(arena.link_id(idx), id, "{context}: round trip of {id:?}");
    }
    for &id in removed {
        assert_eq!(arena.index(id), None, "{context}: removed {id:?}");
    }
    let past = edges.keys().last().map_or(0, |id| id.0 + 1);
    for id in [past, past + 1, past + 1000, u64::MAX] {
        assert_eq!(
            arena.index(LinkId(id)),
            None,
            "{context}: LinkId({id}) past the table"
        );
    }

    for src in topo.nodes() {
        let tree = shortest_path_tree(topo, src);
        for dst in topo.nodes() {
            assert_eq!(
                shortest_path(topo, src, dst),
                route_from_tree(src, dst, &tree),
                "{context}: shortest_path {src:?} -> {dst:?}"
            );
        }
    }
    let outside = NodeId(topo.node_count() as u32);
    assert_eq!(shortest_path(topo, outside, NodeId(0)), None, "{context}");

    for round in 0..3 {
        let map = random_costs(rng, topo);
        assert_eq!(
            dijkstra(topo, outside, NodeId(0), &map, 1.0),
            None,
            "{context}, costs {round}: dijkstra from outside the topology"
        );
        let dense: Vec<f64> = arena
            .iter()
            .map(|(_, id)| map.get(&id).copied().unwrap_or(1.0))
            .collect();
        let by_map = |l: LinkId| map.get(&l).copied().unwrap_or(1.0);
        let mut cache = RouteCache::new();
        for src in topo.nodes() {
            let tree = dijkstra_tree(topo, src, &map, 1.0);
            for dst in topo.nodes() {
                let got = cache.tree_route(topo, &arena, Some(&dense), src, dst);
                let raw = route_from_tree(src, dst, &tree);
                let want = raw.clone().and_then(|r| InternedRoute::intern(r, &arena));
                assert_eq!(
                    got,
                    want.as_ref(),
                    "{context}, costs {round}: {src:?} -> {dst:?}"
                );
                if let (Some(route), Some(raw)) = (got, raw) {
                    assert_eq!(
                        route_cost(&raw, dense_cost(&arena, &dense)).to_bits(),
                        route_cost(&raw, by_map).to_bits(),
                        "{context}, costs {round}: cost of {src:?} -> {dst:?}"
                    );
                    assert_eq!(
                        route.cost(&dense).to_bits(),
                        route_cost(&raw, by_map).to_bits(),
                        "{context}, costs {round}: interned cost of {src:?} -> {dst:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn dense_routing_inputs_match_the_map_reference() {
    for case in 0..CASES {
        for spec in specs() {
            let mut rng = DetRng::new(0xD0_5E00 + case);
            let mut phy = PhyState::new();
            let mut topo = spec.instantiate(&mut phy, BitRate::from_gbps(25));
            let mut edges: BTreeMap<LinkId, (NodeId, NodeId)> = topo
                .links()
                .into_iter()
                .map(|id| (id, topo.endpoints(id).unwrap()))
                .collect();
            let mut next_id = edges.keys().last().map_or(0, |id| id.0 + 1);
            let mut removed = Vec::new();
            let name = &spec.name;
            check_dense_state(
                &mut rng,
                &topo,
                &edges,
                &removed,
                &format!("case {case} {name}"),
            );
            for round in 0..EDIT_ROUNDS {
                edit(&mut rng, &mut topo, &mut edges, &mut removed, &mut next_id);
                let context = format!("case {case} {name} after edit {round}");
                check_dense_state(&mut rng, &topo, &edges, &removed, &context);
            }
        }
    }
}
