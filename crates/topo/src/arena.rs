//! Dense interning of links and directed ports.
//!
//! `LinkId`s are global, sparse physical identities (they survive
//! reconfigurations and keep growing as links are split and re-bundled), so
//! per-link simulation state keyed by `LinkId` needs a hash map — and the
//! per-packet datapath was paying one or more hash lookups per hop. A
//! [`LinkArena`] is built once per topology epoch and assigns every live
//! link a dense [`LinkIdx`] (and every *directed use* of a link a dense
//! [`PortIdx`]), so the hot path indexes plain vectors instead.
//!
//! The arena is rebuilt — and every consumer's dense state migrated — only
//! when the topology itself changes (a whole-rack reconfiguration), which is
//! rare and slow-path by construction.
//!
//! The reverse index `LinkId -> LinkIdx` is an array too, indexed by the raw
//! id. That relies on the **dense-id invariant**: `PhyState` hands out
//! `LinkId`s densely from 0 and never reuses one, so the table is as long as
//! the highest live id plus one, and the ids retired by splits and bundles
//! leave only a few empty slots. An id that was removed, or lies past the
//! end of the table, answers `None`.

use crate::graph::{NodeId, Topology};
use rackfabric_phy::LinkId;

/// Dense index of a live link within one topology epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkIdx(pub u32);

impl LinkIdx {
    /// The raw index as usize.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Dense index of a directed port (one endpoint's transmitting use of a
/// link) within one topology epoch. Each link owns exactly two ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortIdx(pub u32);

impl PortIdx {
    /// The raw index as usize.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A dense link/port interning table built from a [`Topology`].
///
/// Link ids are interned in sorted order, so the mapping is deterministic
/// for a given topology regardless of construction history.
#[derive(Debug, Clone, Default)]
pub struct LinkArena {
    /// `LinkIdx -> LinkId`.
    ids: Vec<LinkId>,
    /// `LinkIdx -> (endpoint_a, endpoint_b)` with `a < b`.
    endpoints: Vec<(NodeId, NodeId)>,
    /// Reverse index `LinkId.0 -> LinkIdx` (see the module docs for the
    /// dense-id invariant), read by route interning, min-cost routing's
    /// per-edge cost lookups and migrations.
    index_of: Vec<Option<LinkIdx>>,
}

impl LinkArena {
    /// Interns every link of `topo`.
    pub fn build(topo: &Topology) -> Self {
        let ids = topo.links(); // sorted
        let mut endpoints = Vec::with_capacity(ids.len());
        let mut index_of = vec![None; ids.last().map_or(0, |id| table_slot(*id) + 1)];
        for (i, &id) in ids.iter().enumerate() {
            let (a, b) = topo.endpoints(id).expect("listed link has endpoints");
            let pair = if a <= b { (a, b) } else { (b, a) };
            endpoints.push(pair);
            index_of[table_slot(id)] = Some(LinkIdx(i as u32));
        }
        LinkArena {
            ids,
            endpoints,
            index_of,
        }
    }

    /// Number of interned links.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if no links are interned.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Number of directed ports (two per link).
    #[inline]
    pub fn port_count(&self) -> usize {
        self.ids.len() * 2
    }

    /// The physical id of an interned link.
    #[inline]
    pub fn link_id(&self, idx: LinkIdx) -> LinkId {
        self.ids[idx.index()]
    }

    /// The dense index of a physical link, if it is part of this epoch.
    #[inline]
    pub fn index(&self, id: LinkId) -> Option<LinkIdx> {
        self.index_of.get(table_slot(id)).copied().flatten()
    }

    /// The canonical `(min, max)` endpoints of an interned link.
    #[inline]
    pub fn endpoints(&self, idx: LinkIdx) -> (NodeId, NodeId) {
        self.endpoints[idx.index()]
    }

    /// The directed port for `from` transmitting onto `link`. `from` must be
    /// one of the link's endpoints.
    #[inline]
    pub fn port(&self, from: NodeId, link: LinkIdx) -> PortIdx {
        let (a, _) = self.endpoints[link.index()];
        let side = (from != a) as u32;
        PortIdx(link.0 * 2 + side)
    }

    /// The link an interned port transmits onto.
    #[inline]
    pub fn port_link(&self, port: PortIdx) -> LinkIdx {
        LinkIdx(port.0 / 2)
    }

    /// The node transmitting on an interned port (the inverse of
    /// [`LinkArena::port`]).
    #[inline]
    pub fn port_node(&self, port: PortIdx) -> NodeId {
        let (a, b) = self.endpoints[(port.0 / 2) as usize];
        if port.0.is_multiple_of(2) {
            a
        } else {
            b
        }
    }

    /// The **cut mask** of a node-ownership assignment: `mask[idx]` is true
    /// when the link's endpoints are owned by different shards. This is the
    /// per-epoch cut-edge metadata a sharded engine derives its conservative
    /// lookahead and mailbox routing from; it is rebuilt together with the
    /// arena on whole-rack reconfigurations.
    pub fn cut_mask(&self, owner_of_node: &[u32]) -> Vec<bool> {
        self.endpoints
            .iter()
            .map(|&(a, b)| owner_of_node[a.index()] != owner_of_node[b.index()])
            .collect()
    }

    /// Iterates `(LinkIdx, LinkId)` pairs in dense order.
    pub fn iter(&self) -> impl Iterator<Item = (LinkIdx, LinkId)> + '_ {
        self.ids
            .iter()
            .enumerate()
            .map(|(i, &id)| (LinkIdx(i as u32), id))
    }
}

/// The reverse-index slot of `id`: the raw id, saturated so an id beyond
/// the address space lands past the end of any table.
#[inline]
fn table_slot(id: LinkId) -> usize {
    usize::try_from(id.0).unwrap_or(usize::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TopologySpec;
    use rackfabric_phy::PhyState;
    use rackfabric_sim::units::BitRate;

    fn grid_arena() -> (Topology, LinkArena) {
        let mut phy = PhyState::new();
        let topo = TopologySpec::grid(3, 3, 1).instantiate(&mut phy, BitRate::from_gbps(25));
        let arena = LinkArena::build(&topo);
        (topo, arena)
    }

    #[test]
    fn interns_every_link_densely_and_deterministically() {
        let (topo, arena) = grid_arena();
        assert_eq!(arena.len(), topo.edge_count());
        assert_eq!(arena.port_count(), 2 * topo.edge_count());
        // Round trip id -> idx -> id.
        for id in topo.links() {
            let idx = arena.index(id).expect("live link interned");
            assert_eq!(arena.link_id(idx), id);
        }
        // Dense indices are 0..len in sorted-id order.
        let ids: Vec<LinkId> = arena.iter().map(|(_, id)| id).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted);
    }

    #[test]
    fn ports_distinguish_directions_and_stay_in_range() {
        let (topo, arena) = grid_arena();
        let mut seen = std::collections::HashSet::new();
        for id in topo.links() {
            let idx = arena.index(id).unwrap();
            let (a, b) = arena.endpoints(idx);
            let pa = arena.port(a, idx);
            let pb = arena.port(b, idx);
            assert_ne!(pa, pb, "the two directions get distinct ports");
            assert_eq!(arena.port_link(pa), idx);
            assert_eq!(arena.port_link(pb), idx);
            assert!(pa.index() < arena.port_count());
            assert!(pb.index() < arena.port_count());
            assert!(seen.insert(pa));
            assert!(seen.insert(pb));
        }
        assert_eq!(seen.len(), arena.port_count());
    }

    #[test]
    fn unknown_links_are_not_interned() {
        let (_, arena) = grid_arena();
        assert_eq!(arena.index(LinkId(10_000)), None);
    }

    #[test]
    fn rebuild_after_edge_change_reinterns() {
        let (mut topo, arena) = grid_arena();
        let victim = topo.links()[0];
        topo.remove_edge(victim);
        let rebuilt = LinkArena::build(&topo);
        assert_eq!(rebuilt.len(), arena.len() - 1);
        assert_eq!(rebuilt.index(victim), None);
    }
}
