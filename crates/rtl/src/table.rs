//! Dense binding tables: the node- and variable-keyed components of a
//! [`Binding`](crate::Binding), held without hashing.
//!
//! A [`NodeTable`] holds one `u32` slot per DFG node, indexed by
//! [`NodeId::index`]; a [`VarTable`] holds `(variable, register)` pairs
//! sorted by variable. Both iterate in ascending key order, the order the
//! fingerprint hashes them in.

use crate::instance::RegId;
use hsyn_dfg::{NodeId, VarRef};
use std::fmt;
use std::ops::Index;

/// An id a [`NodeTable`] slot holds: a dense `u32` index, with one value
/// reserved to mark an unbound slot.
pub trait SlotId: Copy + Eq + fmt::Debug {
    /// The reserved "unbound" value (`u32::MAX`), never a real id.
    const UNBOUND: Self;
}

/// A map from the nodes of one DFG to ids: one slot per node, indexed by
/// [`NodeId::index`], [`SlotId::UNBOUND`] where the node is unbound.
/// Lookups are an array load and iteration is in ascending node order.
#[derive(Clone, PartialEq, Eq)]
pub struct NodeTable<T> {
    slots: Vec<T>,
}

impl<T> Default for NodeTable<T> {
    fn default() -> Self {
        NodeTable { slots: Vec::new() }
    }
}

impl<T: SlotId> NodeTable<T> {
    /// A table of `node_count` unbound slots.
    pub(crate) fn with_nodes(node_count: usize) -> Self {
        NodeTable {
            slots: vec![T::UNBOUND; node_count],
        }
    }

    /// The id bound to `n`; `None` when `n` is unbound or beyond the table.
    pub fn get(&self, n: NodeId) -> Option<T> {
        self.slots
            .get(n.index())
            .copied()
            .filter(|&id| id != T::UNBOUND)
    }

    /// Bind `n` to `id`, growing the table to cover `n`; the previous id,
    /// if any.
    ///
    /// # Panics
    ///
    /// If `id` is the reserved [`SlotId::UNBOUND`] value.
    pub fn insert(&mut self, n: NodeId, id: T) -> Option<T> {
        assert!(id != T::UNBOUND, "the unbound marker is not an id");
        let i = n.index();
        if i >= self.slots.len() {
            self.slots.resize(i + 1, T::UNBOUND);
        }
        let old = std::mem::replace(&mut self.slots[i], id);
        (old != T::UNBOUND).then_some(old)
    }

    /// Unbind `n`; the id it was bound to, if any.
    pub fn remove(&mut self, n: NodeId) -> Option<T> {
        let slot = self.slots.get_mut(n.index())?;
        let old = std::mem::replace(slot, T::UNBOUND);
        (old != T::UNBOUND).then_some(old)
    }

    /// `(node, id)` for every bound node, in ascending node order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, T)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, &id)| id != T::UNBOUND)
            .map(|(i, &id)| (NodeId::from_index(i), id))
    }

    /// Number of bound nodes (one pass over the slots).
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|&&id| id != T::UNBOUND).count()
    }

    /// Whether no node is bound.
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(|&id| id == T::UNBOUND)
    }
}

/// The id bound to a node.
///
/// # Panics
///
/// If the node is unbound, as indexing a `HashMap` with a missing key does.
impl<T: SlotId> Index<&NodeId> for NodeTable<T> {
    type Output = T;

    fn index(&self, n: &NodeId) -> &T {
        match self.slots.get(n.index()) {
            Some(id) if *id != T::UNBOUND => id,
            _ => panic!("node {n} is unbound"),
        }
    }
}

impl<T: SlotId> fmt::Debug for NodeTable<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// A map from variables to registers: `(variable, register)` pairs sorted
/// by variable, so a lookup is a binary search and iteration is in
/// ascending variable order.
#[derive(Clone, Default)]
pub struct VarTable {
    pairs: Vec<(VarRef, RegId)>,
}

impl VarTable {
    /// A table from pairs already sorted by variable, without repeats (the
    /// order of [`StorageAnalysis::stored_vars`](crate::StorageAnalysis)).
    pub(crate) fn from_sorted(pairs: Vec<(VarRef, RegId)>) -> Self {
        debug_assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0));
        VarTable { pairs }
    }

    /// The register holding `v`, if `v` is stored.
    pub fn get(&self, v: VarRef) -> Option<RegId> {
        self.pairs
            .binary_search_by_key(&v, |&(k, _)| k)
            .ok()
            .map(|i| self.pairs[i].1)
    }

    /// Store `v` in `reg`; the previous register, if any.
    pub fn insert(&mut self, v: VarRef, reg: RegId) -> Option<RegId> {
        match self.pairs.binary_search_by_key(&v, |&(k, _)| k) {
            Ok(i) => Some(std::mem::replace(&mut self.pairs[i].1, reg)),
            Err(i) => {
                self.pairs.insert(i, (v, reg));
                None
            }
        }
    }

    /// Drop `v`; the register it was stored in, if any.
    pub fn remove(&mut self, v: VarRef) -> Option<RegId> {
        let i = self.pairs.binary_search_by_key(&v, |&(k, _)| k).ok()?;
        Some(self.pairs.remove(i).1)
    }

    /// `(variable, register)` pairs in ascending variable order.
    pub fn iter(&self) -> impl Iterator<Item = (VarRef, RegId)> + '_ {
        self.pairs.iter().copied()
    }

    /// Every register, mutably, in ascending variable order.
    pub fn regs_mut(&mut self) -> impl Iterator<Item = &mut RegId> + '_ {
        self.pairs.iter_mut().map(|(_, r)| r)
    }

    /// Number of stored variables.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether no variable is stored.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

/// The register holding a variable.
///
/// # Panics
///
/// If the variable is not stored.
impl Index<&VarRef> for VarTable {
    type Output = RegId;

    fn index(&self, v: &VarRef) -> &RegId {
        match self.pairs.binary_search_by_key(v, |&(k, _)| k) {
            Ok(i) => &self.pairs[i].1,
            Err(_) => panic!("variable {}.{} is not stored", v.node, v.port),
        }
    }
}

impl fmt::Debug for VarTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::FuInstId;

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    fn f(i: usize) -> FuInstId {
        FuInstId::from_index(i)
    }

    #[test]
    fn node_table_inserts_overwrites_and_removes() {
        let mut t = NodeTable::with_nodes(4);
        assert!(t.is_empty());
        assert_eq!(t.insert(n(2), f(7)), None);
        assert_eq!(t.get(n(2)), Some(f(7)));
        assert_eq!(
            t.insert(n(2), f(3)),
            Some(f(7)),
            "overwrite returns the old id"
        );
        assert_eq!(t.get(n(2)), Some(f(3)));
        assert_eq!(t.len(), 1);
        assert_eq!(t.remove(n(2)), Some(f(3)));
        assert_eq!(t.remove(n(2)), None, "a second remove finds nothing");
        assert!(t.is_empty());
        // Inserting beyond the table grows it.
        assert_eq!(t.insert(n(9), f(0)), None);
        assert_eq!(t.get(n(9)), Some(f(0)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn node_table_get_of_unbound_or_out_of_range_is_none() {
        let mut t: NodeTable<FuInstId> = NodeTable::with_nodes(3);
        assert_eq!(t.get(n(1)), None, "unbound");
        assert_eq!(t.get(n(3)), None, "one past the end");
        assert_eq!(t.get(n(1_000)), None, "far out of range");
        assert_eq!(NodeTable::<FuInstId>::default().get(n(0)), None, "empty");
        assert_eq!(t.remove(n(50)), None, "remove out of range");
        t.insert(n(0), f(1));
        assert_eq!(t.get(n(1)), None, "a neighbour stays unbound");
    }

    #[test]
    #[should_panic(expected = "unbound")]
    fn node_table_index_panics_on_an_unbound_node() {
        let mut t = NodeTable::with_nodes(3);
        t.insert(n(0), f(1));
        assert_eq!(t[&n(0)], f(1));
        let _ = t[&n(1)];
    }

    #[test]
    #[should_panic(expected = "unbound")]
    fn node_table_index_panics_beyond_the_table() {
        let t: NodeTable<FuInstId> = NodeTable::with_nodes(3);
        let _ = t[&n(3)];
    }

    #[test]
    #[should_panic(expected = "unbound marker")]
    fn node_table_rejects_the_unbound_marker_as_an_id() {
        NodeTable::with_nodes(1).insert(n(0), FuInstId::UNBOUND);
    }

    #[test]
    fn node_table_iterates_in_ascending_node_order() {
        let mut t = NodeTable::default();
        for (node, fu) in [(5, 0), (1, 2), (8, 1), (3, 2)] {
            t.insert(n(node), f(fu));
        }
        t.remove(n(8));
        let got: Vec<_> = t.iter().collect();
        assert_eq!(got, vec![(n(1), f(2)), (n(3), f(2)), (n(5), f(0))]);
        assert_eq!(
            format!("{t:?}"),
            "{NodeId(1): FuInstId(2), NodeId(3): FuInstId(2), NodeId(5): FuInstId(0)}"
        );
    }

    fn v(node: usize, port: u16) -> VarRef {
        VarRef::new(n(node), port)
    }

    fn r(i: usize) -> RegId {
        RegId::from_index(i)
    }

    #[test]
    fn var_table_inserts_overwrites_removes_and_stays_sorted() {
        let mut t = VarTable::default();
        for (var, reg) in [(v(4, 0), 0), (v(1, 1), 1), (v(4, 1), 2), (v(1, 0), 3)] {
            assert_eq!(t.insert(var, r(reg)), None);
        }
        assert_eq!(t.insert(v(4, 0), r(9)), Some(r(0)), "overwrite");
        assert_eq!(t[&v(4, 0)], r(9));
        assert_eq!(t.remove(v(1, 1)), Some(r(1)));
        assert_eq!(t.remove(v(1, 1)), None);
        assert_eq!(t.get(v(2, 0)), None, "never stored");
        assert_eq!(t.len(), 3);
        let keys: Vec<_> = t.iter().map(|(var, _)| var).collect();
        assert_eq!(keys, vec![v(1, 0), v(4, 0), v(4, 1)]);
        for reg in t.regs_mut() {
            *reg = r(0);
        }
        assert!(t.iter().all(|(_, reg)| reg == r(0)));
    }

    #[test]
    #[should_panic(expected = "not stored")]
    fn var_table_index_panics_on_an_unstored_variable() {
        let t = VarTable::from_sorted(vec![(v(0, 0), r(0))]);
        let _ = t[&v(0, 1)];
    }
}
