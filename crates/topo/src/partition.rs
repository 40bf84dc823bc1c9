//! Partitioning a fabric into shards (rack groups).
//!
//! The sharded engine splits the fabric's dense per-link/per-port state
//! along the [`LinkIdx`]/[`PortIdx`] boundary: every
//! node — and with it every directed port the node transmits on — is owned
//! by exactly one **shard**, and links whose endpoints live in different
//! shards form the **cut**. Packet trains crossing a cut link are handed
//! between shards through mailboxes; the minimum latency across the cut
//! bounds how far shards may run ahead of each other (the conservative
//! lookahead).
//!
//! Shards are built from whole **racks** (the connected components of the
//! intra-rack link subgraph, [`TopologySpec::rack_of`](crate::spec::TopologySpec::rack_of)):
//! consecutive rack ids are grouped into contiguous rack ranges, and a node
//! belongs to the shard of its rack. Because intra-rack links by definition
//! join nodes of the same rack — and racks are never split across shards —
//! **every cut link is inter-rack by construction**. That is the invariant
//! the conservative lookahead relies on: it minimises latency over the
//! inter-rack link class only, and no envelope can cross shards faster than
//! that minimum. Every builder numbers racks in node order (row bands of a
//! torus, host-block+leaf cells of a Clos), so rack ranges are the same
//! grouping a multi-rack deployment would cable.
//!
//! Rack ranges are balanced (sizes differ by at most one rack) and then
//! greedily min-cut refined: shard boundaries shift one rack at a time,
//! staying balanced, whenever that strictly reduces the number of cut
//! links. A partition is a pure function of `(rack table, shard count,
//! arena)`; the cut mask additionally depends on the link set and is
//! rebuilt together with the [`LinkArena`] after whole-rack
//! reconfigurations. Requesting more shards than there are racks clamps to
//! the rack count (a rack is never split).

use crate::arena::{LinkArena, LinkIdx, PortIdx};
use crate::graph::NodeId;

/// A node-to-shard assignment plus the derived cut-edge metadata for one
/// topology epoch.
#[derive(Debug, Clone)]
pub struct FabricPartition {
    shards: usize,
    /// `node index -> shard`.
    owner: Vec<u32>,
    /// `LinkIdx -> crosses a shard boundary`.
    cut: Vec<bool>,
    cut_count: usize,
}

impl FabricPartition {
    /// Partitions the fabric into `shards` contiguous **rack** groups and
    /// derives the cut mask from `arena`. `racks` is the node-to-rack table
    /// from [`TopologySpec::rack_of`](crate::spec::TopologySpec::rack_of);
    /// whole racks are never split, so `shards` is clamped to
    /// `1..=rack_count`.
    ///
    /// The rack ranges are **balanced** (sizes differ by at most one rack)
    /// and then **min-cut refined**: boundaries between adjacent shards are
    /// greedily nudged one rack at a time — staying balanced and keeping
    /// every shard non-empty — whenever the shift strictly reduces the
    /// number of links crossing shard boundaries. On a dragonfly sharded by
    /// group the cut is invariant (all group pairs are linked), but on
    /// fabrics with uneven inter-rack wiring the refinement parks the
    /// remainder racks where the cut is thinnest. The whole construction is
    /// a pure function of `(rack table, shard count, arena link endpoints)`,
    /// and results never depend on it — ownership only decides *where* an
    /// event executes, never what it computes.
    pub fn build(racks: &[u32], shards: usize, arena: &LinkArena) -> Self {
        assert!(!racks.is_empty(), "cannot partition an empty fabric");
        let rack_count = racks.iter().map(|&r| r as usize + 1).max().unwrap_or(1);
        let shards = shards.clamp(1, rack_count);
        // Balanced contiguous chunking: the first `rem` shards carry one
        // extra rack. `boundary[i]` is the first rack of shard `i + 1`.
        let base = rack_count / shards;
        let rem = rack_count % shards;
        let mut boundary: Vec<usize> = Vec::with_capacity(shards - 1);
        let mut start = 0;
        for s in 0..shards - 1 {
            start += base + usize::from(s < rem);
            boundary.push(start);
        }
        // Link weight between each rack pair, for the cut-aware refinement.
        let mut weights: std::collections::HashMap<(u32, u32), usize> =
            std::collections::HashMap::new();
        for (idx, _) in arena.iter() {
            let (a, b) = arena.endpoints(idx);
            if let (Some(&ra), Some(&rb)) = (racks.get(a.index()), racks.get(b.index())) {
                if ra != rb {
                    let pair = if ra < rb { (ra, rb) } else { (rb, ra) };
                    *weights.entry(pair).or_insert(0) += 1;
                }
            }
        }
        let mut weights: Vec<((u32, u32), usize)> = weights.into_iter().collect();
        weights.sort_unstable();
        let shard_of = |boundary: &[usize], rack: u32| -> usize {
            boundary.partition_point(|&b| b <= rack as usize)
        };
        let cut_of = |boundary: &[usize]| -> usize {
            weights
                .iter()
                .filter(|((ra, rb), _)| shard_of(boundary, *ra) != shard_of(boundary, *rb))
                .map(|(_, w)| w)
                .sum()
        };
        let balanced = |boundary: &[usize]| -> bool {
            let mut lo = rack_count;
            let mut hi = 0;
            let mut prev = 0;
            for &b in boundary.iter().chain(std::iter::once(&rack_count)) {
                if b <= prev {
                    return false; // an empty shard
                }
                lo = lo.min(b - prev);
                hi = hi.max(b - prev);
                prev = b;
            }
            hi - lo <= 1
        };
        // Greedy first-improvement passes: deterministic (left to right,
        // strict decrease only) and bounded.
        let mut best = cut_of(&boundary);
        for _ in 0..rack_count {
            let mut improved = false;
            for i in 0..boundary.len() {
                for delta in [-1isize, 1] {
                    let shifted = boundary[i].wrapping_add_signed(delta);
                    let mut candidate = boundary.clone();
                    candidate[i] = shifted;
                    if !balanced(&candidate) {
                        continue;
                    }
                    let cut = cut_of(&candidate);
                    if cut < best {
                        boundary = candidate;
                        best = cut;
                        improved = true;
                    }
                }
            }
            if !improved {
                break;
            }
        }
        let owner: Vec<u32> = racks
            .iter()
            .map(|&r| shard_of(&boundary, r) as u32)
            .collect();
        let cut = arena.cut_mask(&owner);
        let cut_count = cut.iter().filter(|&&c| c).count();
        FabricPartition {
            shards,
            owner,
            cut,
            cut_count,
        }
    }

    /// Rebuilds the cut mask against a fresh arena (the ownership is
    /// unchanged — reconfigurations alter links, not nodes).
    pub fn recut(&mut self, arena: &LinkArena) {
        self.cut = arena.cut_mask(&self.owner);
        self.cut_count = self.cut.iter().filter(|&&c| c).count();
    }

    /// Number of shards.
    #[inline]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Number of nodes partitioned.
    #[inline]
    pub fn nodes(&self) -> usize {
        self.owner.len()
    }

    /// The shard owning `node`.
    #[inline]
    pub fn owner(&self, node: NodeId) -> usize {
        self.owner[node.index()] as usize
    }

    /// The full node-to-shard table.
    #[inline]
    pub fn owners(&self) -> &[u32] {
        &self.owner
    }

    /// Number of cut links in this epoch.
    #[inline]
    pub fn cut_count(&self) -> usize {
        self.cut_count
    }

    /// Iterates the cut links in dense order.
    pub fn cut_links(&self) -> impl Iterator<Item = LinkIdx> + '_ {
        self.cut
            .iter()
            .enumerate()
            .filter(|(_, &c)| c)
            .map(|(i, _)| LinkIdx(i as u32))
    }

    /// The shard owning a directed port (the shard of its transmitting
    /// node).
    #[inline]
    pub fn port_owner(&self, arena: &LinkArena, port: PortIdx) -> usize {
        self.owner(arena.port_node(port))
    }

    /// Number of nodes owned by `shard`.
    pub fn shard_size(&self, shard: usize) -> usize {
        self.owner.iter().filter(|&&o| o as usize == shard).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TopologySpec;
    use rackfabric_phy::PhyState;
    use rackfabric_sim::units::BitRate;

    fn arena_of(spec: &TopologySpec) -> LinkArena {
        let mut phy = PhyState::new();
        let topo = spec.instantiate(&mut phy, BitRate::from_gbps(25));
        LinkArena::build(&topo)
    }

    #[test]
    fn contiguous_ranges_cover_every_node() {
        let spec = TopologySpec::grid(4, 4, 1);
        let arena = arena_of(&spec);
        let p = FabricPartition::build(&spec.rack_of(), 4, &arena);
        assert_eq!(p.shards(), 4);
        assert_eq!(p.nodes(), 16);
        // Row-major grid + contiguous ranges = one row per shard.
        for n in 0..16u32 {
            assert_eq!(p.owner(NodeId(n)), (n / 4) as usize);
        }
        let sizes: Vec<usize> = (0..4).map(|s| p.shard_size(s)).collect();
        assert_eq!(sizes, vec![4, 4, 4, 4]);
    }

    #[test]
    fn cut_links_are_exactly_the_inter_row_links() {
        let spec = TopologySpec::grid(4, 4, 1);
        let arena = arena_of(&spec);
        let p = FabricPartition::build(&spec.rack_of(), 4, &arena);
        // A 4x4 grid split into rows cuts the 12 vertical links.
        assert_eq!(p.cut_count(), 12);
        for link in p.cut_links() {
            let (a, b) = arena.endpoints(link);
            assert_ne!(p.owner(a), p.owner(b));
        }
        let uncut = arena.len() - p.cut_count();
        assert_eq!(uncut, 12, "the 12 horizontal links stay internal");
    }

    #[test]
    fn single_shard_has_no_cut() {
        let spec = TopologySpec::torus(4, 4, 1);
        let arena = arena_of(&spec);
        let p = FabricPartition::build(&spec.rack_of(), 1, &arena);
        assert_eq!(p.shards(), 1);
        assert_eq!(p.cut_count(), 0);
        assert_eq!(p.cut_links().count(), 0);
    }

    #[test]
    fn shard_count_is_clamped_to_node_count() {
        let spec = TopologySpec::line(3, 1);
        let arena = arena_of(&spec);
        let p = FabricPartition::build(&spec.rack_of(), 64, &arena);
        assert_eq!(p.shards(), 3);
        assert_eq!(p.cut_count(), 2);
    }

    #[test]
    fn port_owner_follows_the_transmitting_node() {
        let spec = TopologySpec::grid(2, 2, 1);
        let arena = arena_of(&spec);
        let p = FabricPartition::build(&spec.rack_of(), 2, &arena);
        for (idx, _) in arena.iter() {
            let (a, b) = arena.endpoints(idx);
            let pa = arena.port(a, idx);
            let pb = arena.port(b, idx);
            assert_eq!(p.port_owner(&arena, pa), p.owner(a));
            assert_eq!(p.port_owner(&arena, pb), p.owner(b));
            assert_eq!(arena.port_node(pa), a);
            assert_eq!(arena.port_node(pb), b);
        }
    }

    #[test]
    fn dragonfly_group_sharding_cuts_only_global_links() {
        let spec = TopologySpec::dragonfly(4, 2, 2, 1);
        let arena = arena_of(&spec);
        let racks = spec.rack_of();
        // One shard per group: every cut link is a global (inter-rack) link.
        let p = FabricPartition::build(&racks, 4, &arena);
        assert_eq!(p.shards(), 4);
        assert_eq!(p.cut_count(), 6, "C(4,2) global links, all cut");
        let inter = spec.inter_rack_mask(&arena);
        for link in p.cut_links() {
            assert!(inter[link.index()], "cut links must be inter-rack");
        }
        // Fewer shards than groups: still balanced whole-group chunks.
        let p2 = FabricPartition::build(&racks, 3, &arena);
        assert_eq!(p2.shards(), 3);
        let sizes: Vec<usize> = (0..3).map(|s| p2.shard_size(s)).collect();
        let group = 2 * (1 + 2);
        assert!(
            sizes.iter().all(|&s| s == group || s == 2 * group),
            "{sizes:?}"
        );
    }

    #[test]
    fn remainder_racks_never_collapse_a_shard() {
        // 9 racks over 4 shards used to chunk div_ceil = 3,3,3,<empty>;
        // balanced chunking keeps all four shards populated.
        let spec = TopologySpec::grid(9, 2, 1);
        let arena = arena_of(&spec);
        let p = FabricPartition::build(&spec.rack_of(), 4, &arena);
        assert_eq!(p.shards(), 4);
        let mut sizes: Vec<usize> = (0..4).map(|s| p.shard_size(s)).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![4, 4, 4, 6], "2-node racks, sizes 2/2/2/3 racks");
    }

    #[test]
    fn refinement_moves_the_boundary_off_the_fat_seam() {
        use crate::spec::{EdgeSpec, LinkClass, TopologyKind};
        use rackfabric_phy::media::MediaKind;
        use rackfabric_sim::units::Length;
        // Five 2-node racks in a chain; the r2-r3 seam carries 5 parallel
        // links, every other seam 1. A balanced 2-way split is 3+2 racks:
        // the naive boundary after rack 2 cuts the fat seam (5 links), the
        // refined boundary after rack 1 cuts a thin one (1 link).
        let mut edges = Vec::new();
        let edge = |a: u32, b: u32, class: LinkClass| EdgeSpec {
            a: NodeId(a),
            b: NodeId(b),
            lanes: 1,
            length: Length::from_m(2),
            media: MediaKind::OpticalFiber,
            class,
        };
        for r in 0..5u32 {
            edges.push(edge(2 * r, 2 * r + 1, LinkClass::IntraRack));
        }
        for (a, b, n) in [(1, 2, 1), (3, 4, 1), (5, 6, 5), (7, 8, 1)] {
            for _ in 0..n {
                edges.push(edge(a, b, LinkClass::InterRack));
            }
        }
        let spec = TopologySpec {
            name: "seam-chain".into(),
            kind: TopologyKind::Line,
            nodes: 10,
            edges,
            dims: None,
        };
        let arena = arena_of(&spec);
        let racks = spec.rack_of();
        assert_eq!(spec.rack_count(), 5);
        let p = FabricPartition::build(&racks, 2, &arena);
        assert_eq!(p.shards(), 2);
        assert_eq!(p.cut_count(), 1, "refinement must dodge the 5-link seam");
        assert_eq!(p.owner(NodeId(4)), 1, "rack 2 moves to the second shard");
        assert_eq!(p.shard_size(0), 4, "racks 0..2");
        assert_eq!(p.shard_size(1), 6, "racks 2..5");
    }

    #[test]
    fn recut_tracks_a_rebuilt_arena() {
        let spec = TopologySpec::grid(2, 2, 1);
        let mut phy = PhyState::new();
        let mut topo = spec.instantiate(&mut phy, BitRate::from_gbps(25));
        let arena = LinkArena::build(&topo);
        let mut p = FabricPartition::build(&spec.rack_of(), 2, &arena);
        let before = p.cut_count();
        // Remove one cut link and recut.
        let victim = p.cut_links().next().unwrap();
        topo.remove_edge(arena.link_id(victim));
        let rebuilt = LinkArena::build(&topo);
        p.recut(&rebuilt);
        assert_eq!(p.cut_count(), before - 1);
    }
}
