//! Declarative topology specifications and builders.
//!
//! A [`TopologySpec`] describes the desired shape of the fabric — which node
//! pairs are connected, with how many lanes, over which medium and length —
//! without committing to physical link identities. The spec is what the
//! Closed Ring Control reasons about when it plans a reconfiguration (the
//! paper's Figure 2 moves from a 2-lane grid spec to a 1-lane torus spec);
//! [`TopologySpec::instantiate`] realises a spec against a
//! [`PhyState`], creating the physical links and
//! returning the runtime [`Topology`].

use crate::graph::{NodeId, Topology};
use rackfabric_phy::media::{Media, MediaKind};
use rackfabric_phy::PhyState;
use rackfabric_sim::units::{BitRate, Length};
use serde::{Deserialize, Serialize};

/// The named topology families the builders can generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TopologyKind {
    /// A 1-D chain (used for the Figure-1 hop-count sweep).
    Line,
    /// A 1-D ring.
    Ring,
    /// A 2-D mesh without wrap-around.
    Grid,
    /// A 2-D torus (grid plus wrap-around links).
    Torus,
    /// An n-dimensional hypercube.
    Hypercube,
    /// A two-level folded-Clos built from rack switches (the conventional
    /// packet-switched baseline).
    FatTree,
    /// A dragonfly: fully connected router groups joined by one global link
    /// per group pair (the HPC-interconnect scale-out family).
    Dragonfly,
}

/// Physical placement class of a link: whether the cable stays inside one
/// rack or crosses between racks.
///
/// The class is a **topology** property — it comes from the spec builders,
/// never from a shard partition — which is what lets the sharded engine's
/// conservative lookahead be computed from the inter-rack class alone while
/// staying shard-count-independent: racks are the connected components of
/// the intra-rack subgraph (see [`TopologySpec::rack_of`]), shard partitions
/// align to rack boundaries, and therefore every partition cut link is
/// inter-rack by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LinkClass {
    /// A cable inside one rack (sled-to-sled backplane or in-rack fibre).
    IntraRack,
    /// A cable between racks (the longer run that funds lookahead).
    InterRack,
}

/// One desired edge of the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EdgeSpec {
    /// First endpoint.
    pub a: NodeId,
    /// Second endpoint.
    pub b: NodeId,
    /// Number of lanes the link should bundle.
    pub lanes: usize,
    /// Cable length.
    pub length: Length,
    /// Medium family.
    pub media: MediaKind,
    /// Placement class (intra- vs inter-rack).
    pub class: LinkClass,
}

impl EdgeSpec {
    /// Canonical (min, max) form of the node pair.
    pub fn pair(&self) -> (NodeId, NodeId) {
        if self.a <= self.b {
            (self.a, self.b)
        } else {
            (self.b, self.a)
        }
    }
}

/// A full topology description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopologySpec {
    /// Human-readable name (e.g. `"grid-4x4-2lane"`).
    pub name: String,
    /// Which family this spec belongs to.
    pub kind: TopologyKind,
    /// Number of nodes.
    pub nodes: usize,
    /// Desired edges.
    pub edges: Vec<EdgeSpec>,
    /// Grid/torus dimensions when applicable (rows, cols).
    pub dims: Option<(usize, usize)>,
}

/// Default intra-rack cable length between adjacent sleds: the paper assumes
/// a switch (i.e. a sled hop) every 2 metres.
pub const DEFAULT_HOP_LENGTH: Length = Length::from_m(2);

/// Default inter-rack cable length for [`TopologySpec::with_rack_spacing`]:
/// a 20 m overhead-tray run between rack rows, the short end of what the
/// Slingshot/dragonfly literature assumes for inter-group cables. Applied
/// opt-in (the builders default every edge to [`DEFAULT_HOP_LENGTH`]-scale
/// cables so existing campaigns keep their bytes); the extra flight time on
/// the inter-rack class is what funds the sharded engine's longer
/// conservative windows.
pub const DEFAULT_INTER_RACK_LENGTH: Length = Length::from_m(20);

impl TopologySpec {
    /// A 1-D chain of `n` nodes.
    pub fn line(n: usize, lanes: usize) -> TopologySpec {
        let edges = (0..n.saturating_sub(1))
            .map(|i| EdgeSpec {
                a: NodeId(i as u32),
                b: NodeId(i as u32 + 1),
                lanes,
                length: DEFAULT_HOP_LENGTH,
                media: MediaKind::OpticalFiber,
                class: LinkClass::InterRack,
            })
            .collect();
        TopologySpec {
            name: format!("line-{n}-{lanes}lane"),
            kind: TopologyKind::Line,
            nodes: n,
            edges,
            dims: None,
        }
    }

    /// A ring of `n` nodes.
    pub fn ring(n: usize, lanes: usize) -> TopologySpec {
        assert!(n >= 3, "a ring needs at least 3 nodes");
        let edges = (0..n)
            .map(|i| EdgeSpec {
                a: NodeId(i as u32),
                b: NodeId(((i + 1) % n) as u32),
                lanes,
                length: DEFAULT_HOP_LENGTH,
                media: MediaKind::OpticalFiber,
                class: LinkClass::InterRack,
            })
            .collect();
        TopologySpec {
            name: format!("ring-{n}-{lanes}lane"),
            kind: TopologyKind::Ring,
            nodes: n,
            edges,
            dims: None,
        }
    }

    /// A `rows x cols` 2-D mesh without wrap-around, `lanes` lanes per link.
    pub fn grid(rows: usize, cols: usize, lanes: usize) -> TopologySpec {
        assert!(rows >= 1 && cols >= 1);
        let id = |r: usize, c: usize| NodeId((r * cols + c) as u32);
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    // Along a row: sled-to-sled inside one rack.
                    edges.push(EdgeSpec {
                        a: id(r, c),
                        b: id(r, c + 1),
                        lanes,
                        length: DEFAULT_HOP_LENGTH,
                        media: MediaKind::OpticalFiber,
                        class: LinkClass::IntraRack,
                    });
                }
                if r + 1 < rows {
                    // Across rows: rack-to-rack.
                    edges.push(EdgeSpec {
                        a: id(r, c),
                        b: id(r + 1, c),
                        lanes,
                        length: DEFAULT_HOP_LENGTH,
                        media: MediaKind::OpticalFiber,
                        class: LinkClass::InterRack,
                    });
                }
            }
        }
        TopologySpec {
            name: format!("grid-{rows}x{cols}-{lanes}lane"),
            kind: TopologyKind::Grid,
            nodes: rows * cols,
            edges,
            dims: Some((rows, cols)),
        }
    }

    /// A `rows x cols` 2-D torus, `lanes` lanes per link (the grid plus
    /// wrap-around links; wrap-around cables are longer).
    pub fn torus(rows: usize, cols: usize, lanes: usize) -> TopologySpec {
        assert!(rows >= 2 && cols >= 2, "a torus needs at least 2x2 nodes");
        let mut spec = TopologySpec::grid(rows, cols, lanes);
        let id = |r: usize, c: usize| NodeId((r * cols + c) as u32);
        // Wrap-around links span the rack dimension: length scales with the
        // number of hops they replace.
        let wrap_len_rows = Length::from_m((2 * (rows.max(2) - 1)) as u64);
        let wrap_len_cols = Length::from_m((2 * (cols.max(2) - 1)) as u64);
        if cols > 2 {
            for r in 0..rows {
                spec.edges.push(EdgeSpec {
                    a: id(r, cols - 1),
                    b: id(r, 0),
                    lanes,
                    length: wrap_len_cols,
                    media: MediaKind::OpticalFiber,
                    class: LinkClass::IntraRack,
                });
            }
        }
        if rows > 2 {
            for c in 0..cols {
                spec.edges.push(EdgeSpec {
                    a: id(rows - 1, c),
                    b: id(0, c),
                    lanes,
                    length: wrap_len_rows,
                    media: MediaKind::OpticalFiber,
                    class: LinkClass::InterRack,
                });
            }
        }
        spec.name = format!("torus-{rows}x{cols}-{lanes}lane");
        spec.kind = TopologyKind::Torus;
        spec
    }

    /// A hypercube of dimension `dim` (2^dim nodes), `lanes` lanes per link.
    pub fn hypercube(dim: u32, lanes: usize) -> TopologySpec {
        let n = 1usize << dim;
        let mut edges = Vec::new();
        for node in 0..n {
            for bit in 0..dim {
                let peer = node ^ (1usize << bit);
                if peer > node {
                    edges.push(EdgeSpec {
                        a: NodeId(node as u32),
                        b: NodeId(peer as u32),
                        lanes,
                        length: DEFAULT_HOP_LENGTH,
                        media: MediaKind::OpticalFiber,
                        class: LinkClass::InterRack,
                    });
                }
            }
        }
        TopologySpec {
            name: format!("hypercube-{dim}d-{lanes}lane"),
            kind: TopologyKind::Hypercube,
            nodes: n,
            edges,
            dims: None,
        }
    }

    /// A two-level folded-Clos: `hosts` leaf nodes are split across
    /// `ceil(hosts / radix)` leaf switches, all connected to `spines` spine
    /// switches. Node ids: hosts first, then leaf switches, then spines.
    /// This is the conventional packet-switched baseline fabric.
    pub fn fat_tree(hosts: usize, radix: usize, spines: usize, lanes: usize) -> TopologySpec {
        assert!(hosts >= 1 && radix >= 1 && spines >= 1);
        let leaves = hosts.div_ceil(radix);
        let nodes = hosts + leaves + spines;
        let leaf_id = |l: usize| NodeId((hosts + l) as u32);
        let spine_id = |s: usize| NodeId((hosts + leaves + s) as u32);
        let mut edges = Vec::new();
        for h in 0..hosts {
            edges.push(EdgeSpec {
                a: NodeId(h as u32),
                b: leaf_id(h / radix),
                lanes,
                length: DEFAULT_HOP_LENGTH,
                media: MediaKind::CopperDac,
                class: LinkClass::IntraRack,
            });
        }
        for l in 0..leaves {
            for s in 0..spines {
                edges.push(EdgeSpec {
                    a: leaf_id(l),
                    b: spine_id(s),
                    lanes,
                    length: Length::from_m(4),
                    media: MediaKind::OpticalFiber,
                    class: LinkClass::InterRack,
                });
            }
        }
        TopologySpec {
            name: format!("fattree-{hosts}h-{leaves}l-{spines}s"),
            kind: TopologyKind::FatTree,
            nodes,
            edges,
            dims: None,
        }
    }

    /// A dragonfly of `groups` fully connected router groups, each with
    /// `routers_per_group` routers carrying `hosts_per_router` hosts.
    ///
    /// Node ids per group are contiguous — routers first, then hosts — so
    /// every group is one rack under [`TopologySpec::rack_of`] (all
    /// intra-group cables are [`LinkClass::IntraRack`]) and the smallest
    /// node of each rack is a router. Link classes split the dragonfly's
    /// two latency tiers exactly the way the sharded engine wants them:
    ///
    /// * **local** links (router↔host, router↔router inside a group) are
    ///   `IntraRack` at [`DEFAULT_HOP_LENGTH`], so a group never straddles
    ///   a shard boundary;
    /// * **global** links (one per unordered group pair, spread round-robin
    ///   over each group's routers) are `InterRack` optical runs at
    ///   [`DEFAULT_INTER_RACK_LENGTH`], so every partition cut is a
    ///   long-latency global cable and its flight time funds the
    ///   conservative lookahead. [`TopologySpec::with_rack_spacing`]
    ///   stretches exactly these.
    pub fn dragonfly(
        groups: usize,
        routers_per_group: usize,
        hosts_per_router: usize,
        lanes: usize,
    ) -> TopologySpec {
        assert!(groups >= 2, "a dragonfly needs at least 2 groups");
        assert!(routers_per_group >= 1 && hosts_per_router >= 1 && lanes >= 1);
        let group_size = routers_per_group * (1 + hosts_per_router);
        let router = |g: usize, r: usize| NodeId((g * group_size + r) as u32);
        let host = |g: usize, r: usize, k: usize| {
            NodeId((g * group_size + routers_per_group + r * hosts_per_router + k) as u32)
        };
        let mut edges = Vec::new();
        for g in 0..groups {
            // Local tier: an all-to-all among the group's routers plus the
            // host downlinks — one rack's worth of short cables.
            for r in 0..routers_per_group {
                for r2 in (r + 1)..routers_per_group {
                    edges.push(EdgeSpec {
                        a: router(g, r),
                        b: router(g, r2),
                        lanes,
                        length: DEFAULT_HOP_LENGTH,
                        media: MediaKind::OpticalFiber,
                        class: LinkClass::IntraRack,
                    });
                }
                for k in 0..hosts_per_router {
                    edges.push(EdgeSpec {
                        a: router(g, r),
                        b: host(g, r, k),
                        lanes,
                        length: DEFAULT_HOP_LENGTH,
                        media: MediaKind::CopperDac,
                        class: LinkClass::IntraRack,
                    });
                }
            }
        }
        // Global tier: one link per unordered group pair. Each group numbers
        // its g-1 global ports by destination group (skipping itself) and
        // spreads them round-robin over its routers, the standard dragonfly
        // cabling.
        for g1 in 0..groups {
            for g2 in (g1 + 1)..groups {
                let port1 = g2 - 1; // g2 > g1, so no self-skip adjustment.
                let port2 = g1; // g1 < g2: ports below g2 map directly.
                edges.push(EdgeSpec {
                    a: router(g1, port1 % routers_per_group),
                    b: router(g2, port2 % routers_per_group),
                    lanes,
                    length: DEFAULT_INTER_RACK_LENGTH,
                    media: MediaKind::OpticalFiber,
                    class: LinkClass::InterRack,
                });
            }
        }
        TopologySpec {
            name: format!(
                "dragonfly-{groups}g-{routers_per_group}a-{hosts_per_router}h-{lanes}lane"
            ),
            kind: TopologyKind::Dragonfly,
            nodes: groups * group_size,
            edges,
            dims: None,
        }
    }

    /// Total lanes demanded by the spec (a proxy for SerDes / power cost).
    pub fn total_lanes(&self) -> usize {
        self.edges.iter().map(|e| e.lanes).sum()
    }

    /// The (row, col) coordinate of a node for grid/torus specs.
    pub fn coordinates(&self, n: NodeId) -> Option<(usize, usize)> {
        let (rows, cols) = self.dims?;
        let idx = n.index();
        if idx >= rows * cols {
            return None;
        }
        Some((idx / cols, idx % cols))
    }

    /// Stretches every inter-rack edge to at least `length` (intra-rack
    /// edges are untouched). Longer inter-rack cables directly buy the
    /// sharded engine a longer conservative lookahead, at the cost of the
    /// extra propagation delay every cross-rack packet pays.
    pub fn with_rack_spacing(mut self, length: Length) -> TopologySpec {
        for edge in &mut self.edges {
            if edge.class == LinkClass::InterRack {
                edge.length = edge.length.max(length);
            }
        }
        self
    }

    /// The rack of every node: connected components of the **intra-rack**
    /// subgraph, numbered in increasing order of their smallest node index
    /// (so racks of row-major builders are contiguous index ranges). Nodes
    /// touched by no intra-rack edge form singleton racks.
    ///
    /// This is a pure function of the spec — never of a partition — and the
    /// invariant the sharded engine builds on: an intra-rack edge always has
    /// both endpoints in one rack, so any link between different racks is
    /// inter-rack class by construction.
    pub fn rack_of(&self) -> Vec<u32> {
        // Union-find over intra-rack edges.
        let mut parent: Vec<u32> = (0..self.nodes as u32).collect();
        fn find(parent: &mut [u32], n: u32) -> u32 {
            let mut root = n;
            while parent[root as usize] != root {
                root = parent[root as usize];
            }
            let mut cur = n;
            while parent[cur as usize] != root {
                let next = parent[cur as usize];
                parent[cur as usize] = root;
                cur = next;
            }
            root
        }
        for e in &self.edges {
            if e.class != LinkClass::IntraRack {
                continue;
            }
            if e.a.index() >= self.nodes || e.b.index() >= self.nodes {
                continue;
            }
            let ra = find(&mut parent, e.a.as_u32());
            let rb = find(&mut parent, e.b.as_u32());
            if ra != rb {
                // Root at the smaller index so component roots are the
                // component minima — rack numbering below then follows
                // node order deterministically.
                let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
                parent[hi as usize] = lo;
            }
        }
        let mut rack = vec![u32::MAX; self.nodes];
        let mut next = 0u32;
        for n in 0..self.nodes as u32 {
            let root = find(&mut parent, n);
            if rack[root as usize] == u32::MAX {
                rack[root as usize] = next;
                next += 1;
            }
            rack[n as usize] = rack[root as usize];
        }
        rack
    }

    /// Number of racks (see [`TopologySpec::rack_of`]).
    pub fn rack_count(&self) -> usize {
        self.rack_of()
            .iter()
            .map(|&r| r as usize + 1)
            .max()
            .unwrap_or(0)
    }

    /// Dense per-[`LinkIdx`](crate::arena::LinkIdx) mask over `arena`: true
    /// when the link's endpoints lie in different racks. This is the link
    /// set the sharded engine's lookahead minimises over — every partition
    /// cut link crosses racks (partitions align to rack boundaries), so the
    /// minimum inter-rack latency lower-bounds every cross-shard train. The
    /// mask is derived from [`TopologySpec::rack_of`], not from the class
    /// tags, so links created by reconfiguration plans are classified by the
    /// same rule that aligns partitions.
    pub fn inter_rack_mask(&self, arena: &crate::arena::LinkArena) -> Vec<bool> {
        let rack = self.rack_of();
        arena
            .iter()
            .map(|(idx, _)| {
                let (a, b) = arena.endpoints(idx);
                match (rack.get(a.index()), rack.get(b.index())) {
                    (Some(ra), Some(rb)) => ra != rb,
                    // Nodes beyond the spec (never produced by the
                    // builders): treat as inter-rack, the conservative side.
                    _ => true,
                }
            })
            .collect()
    }

    /// Realises the spec: creates every physical link in `phy` and returns
    /// the runtime topology graph referencing the created link ids.
    pub fn instantiate(&self, phy: &mut PhyState, lane_rate: BitRate) -> Topology {
        let mut topo = Topology::new(self.nodes);
        for e in &self.edges {
            let link = phy.add_link(
                e.a.as_u32(),
                e.b.as_u32(),
                Media::of_kind(e.media),
                e.length,
                e.lanes,
                lane_rate,
            );
            topo.add_edge(e.a, e.b, link);
        }
        topo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_and_ring_shapes() {
        let line = TopologySpec::line(8, 2);
        assert_eq!(line.nodes, 8);
        assert_eq!(line.edges.len(), 7);
        let ring = TopologySpec::ring(8, 1);
        assert_eq!(ring.edges.len(), 8);
        assert_eq!(ring.total_lanes(), 8);
    }

    #[test]
    fn grid_edge_count_and_coordinates() {
        let g = TopologySpec::grid(4, 4, 2);
        // 2 * r * c - r - c edges in an r x c mesh.
        assert_eq!(g.edges.len(), 2 * 4 * 4 - 4 - 4);
        assert_eq!(g.nodes, 16);
        assert_eq!(g.coordinates(NodeId(0)), Some((0, 0)));
        assert_eq!(g.coordinates(NodeId(5)), Some((1, 1)));
        assert_eq!(g.coordinates(NodeId(15)), Some((3, 3)));
        assert_eq!(g.coordinates(NodeId(16)), None);
        assert_eq!(g.total_lanes(), g.edges.len() * 2);
    }

    #[test]
    fn torus_adds_wraparound_links() {
        let g = TopologySpec::grid(4, 4, 2);
        let t = TopologySpec::torus(4, 4, 1);
        // 4 row wraps + 4 column wraps.
        assert_eq!(t.edges.len(), g.edges.len() + 8);
        assert_eq!(t.kind, TopologyKind::Torus);
        // Wrap links are longer than mesh links.
        let max_len = t.edges.iter().map(|e| e.length).max().unwrap();
        assert!(max_len > DEFAULT_HOP_LENGTH);
        // A 1-lane torus uses no more SerDes lanes than a 2-lane grid of the
        // same size — the resource trade at the heart of the paper's Figure 2.
        assert!(t.total_lanes() <= g.total_lanes());
    }

    #[test]
    fn hypercube_degree_is_dimension() {
        let h = TopologySpec::hypercube(4, 1);
        assert_eq!(h.nodes, 16);
        assert_eq!(h.edges.len(), 16 * 4 / 2);
    }

    #[test]
    fn fat_tree_shape() {
        let f = TopologySpec::fat_tree(16, 8, 2, 4);
        // 16 hosts, 2 leaves, 2 spines.
        assert_eq!(f.nodes, 16 + 2 + 2);
        // 16 host uplinks + 2*2 leaf-spine links.
        assert_eq!(f.edges.len(), 16 + 4);
    }

    #[test]
    fn instantiate_builds_matching_phy_links() {
        let spec = TopologySpec::grid(3, 3, 2);
        let mut phy = PhyState::new();
        let topo = spec.instantiate(&mut phy, BitRate::from_gbps(25));
        assert_eq!(topo.node_count(), 9);
        assert_eq!(topo.edge_count(), spec.edges.len());
        assert_eq!(phy.link_count(), spec.edges.len());
        assert!(topo.is_connected());
        // Every topology link exists in the phy state with the right lane count.
        for link_id in topo.links() {
            let l = phy.link(link_id).expect("link must exist in phy");
            assert_eq!(l.total_lanes(), 2);
            let (a, b) = topo.endpoints(link_id).unwrap();
            assert!(l.connects(a.as_u32(), b.as_u32()));
        }
    }

    #[test]
    fn grid_and_torus_diameters() {
        let mut phy = PhyState::new();
        let grid = TopologySpec::grid(4, 4, 1).instantiate(&mut phy, BitRate::from_gbps(25));
        let mut phy2 = PhyState::new();
        let torus = TopologySpec::torus(4, 4, 1).instantiate(&mut phy2, BitRate::from_gbps(25));
        // Torus wrap-around halves the diameter of the mesh.
        assert_eq!(grid.diameter(), Some(6));
        assert_eq!(torus.diameter(), Some(4));
        assert!(torus.average_path_length().unwrap() < grid.average_path_length().unwrap());
    }

    #[test]
    fn edge_spec_pair_helpers() {
        let e1 = EdgeSpec {
            a: NodeId(3),
            b: NodeId(1),
            lanes: 1,
            length: DEFAULT_HOP_LENGTH,
            media: MediaKind::OpticalFiber,
            class: LinkClass::IntraRack,
        };
        let e2 = EdgeSpec {
            a: NodeId(1),
            b: NodeId(3),
            lanes: 2,
            length: DEFAULT_HOP_LENGTH,
            media: MediaKind::OpticalFiber,
            class: LinkClass::IntraRack,
        };
        assert_eq!(e1.pair(), e2.pair());
        assert_eq!(e1.pair(), (NodeId(1), NodeId(3)));
    }

    #[test]
    fn dragonfly_shape_and_classes() {
        let d = TopologySpec::dragonfly(3, 2, 2, 1);
        // 3 groups x (2 routers + 4 hosts).
        assert_eq!(d.nodes, 18);
        assert_eq!(d.kind, TopologyKind::Dragonfly);
        // Per group: 1 router-router + 4 host links; plus C(3,2) globals.
        assert_eq!(d.edges.len(), 3 * 5 + 3);
        let globals: Vec<_> = d
            .edges
            .iter()
            .filter(|e| e.class == LinkClass::InterRack)
            .collect();
        assert_eq!(globals.len(), 3, "one global link per group pair");
        for e in &globals {
            assert_eq!(e.length, DEFAULT_INTER_RACK_LENGTH);
            assert_ne!(e.a.index() / 6, e.b.index() / 6, "globals cross groups");
        }
        // Local links stay inside one group block.
        for e in d.edges.iter().filter(|e| e.class == LinkClass::IntraRack) {
            assert_eq!(e.a.index() / 6, e.b.index() / 6);
            assert_eq!(e.length, DEFAULT_HOP_LENGTH);
        }
        let mut phy = PhyState::new();
        let topo = d.instantiate(&mut phy, BitRate::from_gbps(25));
        assert!(topo.is_connected());
    }

    #[test]
    fn dragonfly_groups_are_racks_led_by_a_router() {
        let d = TopologySpec::dragonfly(4, 3, 2, 1);
        let racks = d.rack_of();
        assert_eq!(d.rack_count(), 4, "one rack per group");
        let group_size = 3 * (1 + 2);
        for (n, &rack) in racks.iter().enumerate() {
            assert_eq!(
                rack as usize,
                n / group_size,
                "node {n} racks with its group"
            );
        }
        // The smallest node of each rack is router 0 of the group — the
        // deterministic Valiant representative.
        for g in 0..4 {
            assert_eq!(racks[g * group_size] as usize, g);
        }
    }

    #[test]
    fn dragonfly_scales_past_a_thousand_hosts() {
        let d = TopologySpec::dragonfly(9, 8, 16, 2);
        assert_eq!(d.nodes, 9 * (8 + 8 * 16));
        let hosts = d.nodes - 9 * 8;
        assert!(hosts >= 1000, "{hosts} hosts");
        // 1152 host links + 9 * C(8,2) locals + C(9,2) globals.
        assert_eq!(d.edges.len(), 1152 + 9 * 28 + 36);
        assert_eq!(d.rack_count(), 9);
        // Rack spacing stretches exactly the 36 global cables.
        let spaced = d.with_rack_spacing(Length::from_m(50));
        let stretched = spaced
            .edges
            .iter()
            .filter(|e| e.length == Length::from_m(50))
            .count();
        assert_eq!(stretched, 36);
    }

    #[test]
    fn grid_racks_are_rows() {
        let g = TopologySpec::grid(4, 3, 1);
        let racks = g.rack_of();
        for (n, &rack) in racks.iter().enumerate() {
            assert_eq!(rack, (n / 3) as u32, "node {n} sits in its row's rack");
        }
        assert_eq!(g.rack_count(), 4);
        // Torus wrap links stay within rows, so the racks are unchanged.
        let t = TopologySpec::torus(4, 4, 1);
        assert_eq!(t.rack_count(), 4);
    }

    #[test]
    fn fat_tree_racks_pair_host_blocks_with_their_leaf() {
        let f = TopologySpec::fat_tree(16, 8, 2, 1);
        let racks = f.rack_of();
        assert_eq!(
            f.rack_count(),
            2 + 2,
            "2 host+leaf racks, 2 singleton spines"
        );
        // Hosts 0..8 + leaf 16 share a rack; hosts 8..16 + leaf 17 share the next.
        for h in 0..8 {
            assert_eq!(racks[h], racks[16]);
            assert_eq!(racks[8 + h], racks[17]);
        }
        assert_ne!(racks[16], racks[17]);
        // Spines are their own racks.
        assert_ne!(racks[18], racks[16]);
        assert_ne!(racks[19], racks[18]);
    }

    #[test]
    fn all_inter_rack_builders_have_singleton_racks() {
        for spec in [
            TopologySpec::line(5, 1),
            TopologySpec::ring(6, 1),
            TopologySpec::hypercube(3, 1),
        ] {
            let n = spec.nodes;
            assert_eq!(spec.rack_count(), n, "{}: one rack per node", spec.name);
            let racks = spec.rack_of();
            for (i, &r) in racks.iter().enumerate() {
                assert_eq!(r as usize, i);
            }
        }
    }

    #[test]
    fn rack_spacing_stretches_only_inter_rack_links() {
        let spacing = Length::from_m(20);
        let g = TopologySpec::grid(3, 3, 1).with_rack_spacing(spacing);
        for e in &g.edges {
            match e.class {
                LinkClass::IntraRack => assert_eq!(e.length, DEFAULT_HOP_LENGTH),
                LinkClass::InterRack => assert_eq!(e.length, spacing),
            }
        }
        // Already-longer cables (torus wraps) are never shortened.
        let t = TopologySpec::torus(8, 8, 1).with_rack_spacing(Length::from_m(1));
        let max_len = t.edges.iter().map(|e| e.length).max().unwrap();
        assert!(max_len >= Length::from_m(14));
    }

    #[test]
    fn inter_rack_mask_marks_exactly_the_rack_crossing_links() {
        let spec = TopologySpec::grid(3, 3, 1);
        let mut phy = PhyState::new();
        let topo = spec.instantiate(&mut phy, BitRate::from_gbps(25));
        let arena = crate::arena::LinkArena::build(&topo);
        let racks = spec.rack_of();
        let mask = spec.inter_rack_mask(&arena);
        assert_eq!(mask.len(), arena.len());
        let inter = mask.iter().filter(|&&m| m).count();
        assert_eq!(inter, 6, "the 6 vertical links cross racks");
        for (idx, _) in arena.iter() {
            let (a, b) = arena.endpoints(idx);
            assert_eq!(mask[idx.index()], racks[a.index()] != racks[b.index()],);
        }
    }
}
