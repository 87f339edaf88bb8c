//! Memory access ordering and bank analysis.
//!
//! Loads and stores carry no data edges between each other, so the graph
//! alone does not order them. Their semantics follow *program order* (node
//! insertion order): [`mem_order_pairs`] materializes the minimal dependence
//! pairs — every access depends on the last store of its memory, and every
//! store depends on the accesses since the previous store — which the
//! scheduler consumes as serialization edges and [`mem_topo_order`] folds
//! into a topological order for behavioral evaluation. Hierarchical nodes
//! with memory bindings count as read-write accesses of every bound memory,
//! which is what keeps parent and callee accesses to a shared bank in
//! lockstep.
//!
//! On top of program order, a memory bank is a limited per-cycle resource:
//! a bank accepts at most `ports` accesses per cycle, so within each
//! `(memory, bank)` group [`mem_serial_edges`] chains the accesses
//! `access[i] → access[i + ports]` — the same serialization mechanism
//! functional units use (paper, Section 4), and by pigeonhole no valid
//! schedule can then issue more than `ports` same-bank accesses in one
//! cycle. Bank assignment is deterministic: an access whose address port is
//! driven by a constant maps to bank `address mod banks` ([`bank_of`]);
//! accesses with data-dependent addresses — and hierarchical calls bound to
//! the memory, whose internal access pattern is opaque here — conservatively
//! conflict with *every* bank.
//!
//! The free functions here compute from scratch. [`Dfg::mem_order_pairs`],
//! [`Dfg::mem_topo_order`] and [`Dfg::mem_serial_edges`] answer the same
//! questions from a per-graph cache that every graph mutation drops
//! (bank reassignment included), so a builder that schedules one graph
//! many times derives them once.

use crate::analysis::CycleError;
use crate::graph::{Dfg, MemId, MemObject, NodeId, NodeKind};
use std::sync::OnceLock;

/// The lazily derived memory facts of one [`Dfg`]: program-order pairs,
/// the memory-aware topological order and the serialization edges. Derived
/// data: never compared, never cloned, reset by every graph mutation.
#[derive(Debug, Default)]
pub(crate) struct MemCache {
    pairs: OnceLock<Vec<(NodeId, NodeId)>>,
    /// Only filled when `pairs` is non-empty; otherwise the graph's cached
    /// zero-delay order answers.
    topo: OnceLock<Result<Vec<NodeId>, CycleError>>,
    serial: OnceLock<Vec<(NodeId, NodeId)>>,
}

impl Dfg {
    /// [`mem_order_pairs`], computed on first use and cached until the next
    /// mutation of this graph.
    pub fn mem_order_pairs(&self) -> &[(NodeId, NodeId)] {
        self.mem_cache().pairs.get_or_init(|| mem_order_pairs(self))
    }

    /// [`mem_topo_order`], computed on first use and cached until the next
    /// mutation of this graph. A graph without memory dependence pairs
    /// answers with its zero-delay order ([`Dfg::topo_order`]).
    ///
    /// # Errors
    ///
    /// As [`mem_topo_order`].
    pub fn mem_topo_order(&self) -> Result<&[NodeId], CycleError> {
        let pairs = self.mem_order_pairs();
        if pairs.is_empty() {
            return self.topo_order();
        }
        self.mem_cache()
            .topo
            .get_or_init(|| topo_with_pairs(self, pairs))
            .as_deref()
            .map_err(|_| CycleError)
    }

    /// [`mem_serial_edges`], computed on first use and cached until the
    /// next mutation of this graph ([`Dfg::set_mem_banks`] included).
    ///
    /// # Panics
    ///
    /// As [`mem_serial_edges`].
    pub fn mem_serial_edges(&self) -> &[(NodeId, NodeId)] {
        self.mem_cache().serial.get_or_init(|| {
            if self.mem_count() == 0 {
                return Vec::new();
            }
            let order = self
                .mem_topo_order()
                .expect("memory serialization requires a validated (acyclic) DFG");
            serial_edges(self, self.mem_order_pairs(), order)
        })
    }
}

/// How a node touches a memory.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Access {
    Read,
    Write,
}

/// All `(node, access)` pairs touching `mem`, in program (node-id) order.
fn accesses_of(g: &Dfg, mem: MemId) -> Vec<(NodeId, Access)> {
    let mut out = Vec::new();
    for (nid, node) in g.nodes() {
        match node.kind() {
            NodeKind::Load { mem: m } if *m == mem => out.push((nid, Access::Read)),
            NodeKind::Store { mem: m } if *m == mem => out.push((nid, Access::Write)),
            // A callee bound to the memory may both read and write it.
            NodeKind::Hier { .. } if node.mem_binds().contains(&mem) => {
                out.push((nid, Access::Write));
            }
            _ => {}
        }
    }
    out
}

/// The memory dependence pairs of `g`: for each memory, in program order,
/// each access depends on the last write and each write depends on every
/// access since the previous write. Pairs are `(predecessor, successor)`
/// and deterministic (memories in declaration order, accesses in node-id
/// order).
pub fn mem_order_pairs(g: &Dfg) -> Vec<(NodeId, NodeId)> {
    let mut pairs = Vec::new();
    for (mid, _) in g.mems() {
        let mut last_writer: Option<NodeId> = None;
        let mut readers_since: Vec<NodeId> = Vec::new();
        for (nid, access) in accesses_of(g, mid) {
            match access {
                Access::Read => {
                    if let Some(w) = last_writer {
                        pairs.push((w, nid));
                    }
                    readers_since.push(nid);
                }
                Access::Write => {
                    if readers_since.is_empty() {
                        if let Some(w) = last_writer {
                            pairs.push((w, nid));
                        }
                    } else {
                        for &r in &readers_since {
                            pairs.push((r, nid));
                        }
                    }
                    last_writer = Some(nid);
                    readers_since.clear();
                }
            }
        }
    }
    pairs
}

/// Topological order of `g` over zero-delay data edges *plus* the memory
/// dependence pairs of [`mem_order_pairs`] — the iteration order behavioral
/// evaluation must use so same-iteration stores are visible to later loads.
///
/// # Errors
///
/// Returns [`CycleError`] if the combined dependence relation is cyclic
/// (e.g. a load feeding, through data edges, a store that program order
/// places before it).
pub fn mem_topo_order(g: &Dfg) -> Result<Vec<NodeId>, CycleError> {
    let pairs = mem_order_pairs(g);
    if pairs.is_empty() {
        return crate::analysis::topo_order(g);
    }
    topo_with_pairs(g, &pairs)
}

/// Kahn's algorithm over zero-delay data edges plus `pairs`.
fn topo_with_pairs(g: &Dfg, pairs: &[(NodeId, NodeId)]) -> Result<Vec<NodeId>, CycleError> {
    let n = g.node_count();
    let mut indeg = vec![0usize; n];
    let mut extra_out: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for (_, e) in g.edges() {
        if e.delay == 0 {
            indeg[e.to.index()] += 1;
        }
    }
    for &(a, b) in pairs {
        indeg[b.index()] += 1;
        extra_out[a.index()].push(b);
    }
    let adj = g.adj();
    let mut queue: std::collections::VecDeque<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(i) = queue.pop_front() {
        let nid = NodeId::from_index(i);
        order.push(nid);
        for &ei in adj.out_edge_indices(nid) {
            let e = g.edge(crate::graph::EdgeId::from_index(ei as usize));
            if e.delay == 0 {
                let t = e.to.index();
                indeg[t] -= 1;
                if indeg[t] == 0 {
                    queue.push_back(t);
                }
            }
        }
        for &b in &extra_out[i] {
            let t = b.index();
            indeg[t] -= 1;
            if indeg[t] == 0 {
                queue.push_back(t);
            }
        }
    }
    if order.len() != n {
        return Err(CycleError);
    }
    Ok(order)
}

/// The compile-time address of access `node` if its address port is driven
/// directly by a constant (after wrapping into the memory's word range).
pub fn const_address(g: &Dfg, node: NodeId) -> Option<i64> {
    let mem = g.node(node).kind().mem_access()?;
    let e = g.driver(node, 0)?;
    match g.node(e.from.node).kind() {
        NodeKind::Const { value } if e.delay == 0 => {
            Some(value.rem_euclid(i64::from(g.mem(mem).words.max(1))))
        }
        _ => None,
    }
}

/// The bank a word address maps to: word `w` lives in bank `w % banks`.
pub fn bank_of(mem: &MemObject, addr: i64) -> u32 {
    (addr.rem_euclid(i64::from(mem.banks.max(1)))) as u32
}

/// Deterministic bank assignment for every node of `g`: `Some(bank)` for a
/// load or store whose address is a compile-time constant, `None` for
/// accesses with unknown addresses and for all non-access nodes.
pub fn bank_assignment(g: &Dfg) -> Vec<Option<u32>> {
    g.node_ids()
        .map(|nid| {
            let mem = g.node(nid).kind().mem_access()?;
            let addr = const_address(g, nid)?;
            Some(bank_of(g.mem(mem), addr))
        })
        .collect()
}

/// ASAP start levels over zero-delay data edges *plus* the memory
/// dependence `pairs`, visiting nodes in `order` (the memory-aware
/// topological order), with every schedulable node lasting one level.
/// These are the priorities the port-conflict chains sort by: because every
/// access has nonzero duration, the levels strictly increase along any
/// dependence path, so chains built in level order can never conflict with
/// data or program-order dependencies.
fn mem_asap_levels(g: &Dfg, pairs: &[(NodeId, NodeId)], order: &[NodeId]) -> Vec<u64> {
    let n = g.node_count();
    let mut extra_out: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for &(a, b) in pairs {
        extra_out[a.index()].push(b);
    }
    let adj = g.adj();
    let mut finish = vec![0u64; n];
    let mut level = vec![0u64; n];
    for &nid in order {
        // Start from the eagerly-propagated program-order level (below):
        // overwriting it with the data-edge level alone would let a
        // shallow-address load sort *before* the store it must follow,
        // and the port chain would then close a cycle with the
        // program-order pair.
        let mut s = level[nid.index()];
        for &ei in adj.in_edge_indices(nid) {
            let e = g.edge(crate::graph::EdgeId::from_index(ei as usize));
            if e.delay == 0 {
                s = s.max(finish[e.from.node.index()]);
            }
        }
        level[nid.index()] = s;
        let dur = u64::from(g.node(nid).kind().is_schedulable());
        finish[nid.index()] = finish[nid.index()].max(s + dur);
        for &b in &extra_out[nid.index()] {
            // Program-order successor: starts after this access finishes.
            // Propagated eagerly (predecessors precede in the topo order).
            level[b.index()] = level[b.index()].max(finish[nid.index()]);
            finish[b.index()] = finish[b.index()].max(finish[nid.index()]);
        }
    }
    level
}

/// All memory serialization edges of `g`, ready to pass to a scheduler as
/// ordering edges: the program-order dependence pairs (correctness)
/// followed by the per-`(memory, bank)` port-conflict chains (resource
/// limits). Deterministic — memories in declaration order, banks
/// ascending, chain members ordered by (memory-aware ASAP level, node id) —
/// and duplicate pairs are emitted once. Computed from scratch;
/// [`Dfg::mem_serial_edges`] caches it.
///
/// # Panics
///
/// Panics if the combined dependence relation is cyclic; validate the
/// hierarchy first ([`crate::Hierarchy::validate`] rejects such graphs).
pub fn mem_serial_edges(g: &Dfg) -> Vec<(NodeId, NodeId)> {
    if g.mem_count() == 0 {
        return Vec::new();
    }
    let order = mem_topo_order(g).expect("memory serialization requires a validated (acyclic) DFG");
    serial_edges(g, &mem_order_pairs(g), &order)
}

/// [`mem_serial_edges`] from already derived program-order `pairs` and
/// memory-aware topological `order`.
fn serial_edges(g: &Dfg, pairs: &[(NodeId, NodeId)], order: &[NodeId]) -> Vec<(NodeId, NodeId)> {
    let mut edges = pairs.to_vec();
    let levels = mem_asap_levels(g, pairs, order);
    let banks_of = bank_assignment(g);
    for (mid, mem) in g.mems() {
        // Accesses of this memory, in node-id order.
        let accesses: Vec<NodeId> = g
            .node_ids()
            .filter(|&nid| {
                let node = g.node(nid);
                node.kind().mem_access() == Some(mid)
                    || (matches!(node.kind(), NodeKind::Hier { .. })
                        && node.mem_binds().contains(&mid))
            })
            .collect();
        let ports = mem.ports.max(1) as usize;
        for bank in 0..mem.banks.max(1) {
            // Known same-bank accesses plus every unknown-address access.
            let mut members: Vec<NodeId> = accesses
                .iter()
                .copied()
                .filter(|&nid| banks_of[nid.index()].is_none_or(|b| b == bank))
                .collect();
            members.sort_by_key(|n| (levels[n.index()], n.index()));
            for i in 0..members.len().saturating_sub(ports) {
                edges.push((members[i], members[i + ports]));
            }
        }
    }
    // Bank chains can duplicate program-order pairs (and each other, for
    // unknown-address accesses present in several bank groups).
    let mut seen = std::collections::HashSet::new();
    edges.retain(|&e| seen.insert(e));
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::MemObject;
    use crate::Operation;

    /// store a[0]=x; l1=a[0]; l2=a[1]; store a[1]=l1+l2
    fn mem_chain() -> (Dfg, Vec<NodeId>) {
        let mut g = Dfg::new("mc");
        let m = g.add_mem(MemObject::owned("a", 4, 16));
        let x = g.add_input("x");
        let a0 = g.add_const("a0", 0);
        let a1 = g.add_const("a1", 1);
        let st0 = g.add_store(m, "st0", a0, x);
        let l1 = g.add_load(m, "l1", a0);
        let l2 = g.add_load(m, "l2", a1);
        let s = g.add_op(Operation::Add, "s", &[l1, l2]);
        let st1 = g.add_store(m, "st1", a1, s);
        g.add_output("y", l1);
        (g, vec![st0, l1.node, l2.node, st1])
    }

    #[test]
    fn order_pairs_chain_through_stores() {
        let (g, ids) = mem_chain();
        let pairs = mem_order_pairs(&g);
        // st0 -> l1, st0 -> l2, l1 -> st1, l2 -> st1.
        assert_eq!(
            pairs,
            vec![
                (ids[0], ids[1]),
                (ids[0], ids[2]),
                (ids[1], ids[3]),
                (ids[2], ids[3]),
            ]
        );
    }

    #[test]
    fn mem_topo_order_respects_program_order() {
        let (g, ids) = mem_chain();
        let order = mem_topo_order(&g).unwrap();
        let pos = |n: NodeId| order.iter().position(|&x| x == n).unwrap();
        assert!(pos(ids[0]) < pos(ids[1]));
        assert!(pos(ids[2]) < pos(ids[3]));
    }

    #[test]
    fn hier_bind_acts_as_write() {
        let mut g = Dfg::new("h");
        let m = g.add_mem(MemObject::owned("buf", 8, 16));
        let a0 = g.add_const("a0", 0);
        let x = g.add_input("x");
        let st = g.add_store(m, "st", a0, x);
        // Callee id is irrelevant to ordering; bind the memory.
        let call = g.add_hier_with_mems(crate::DfgId::from_index(0), "f", &[x], &[m]);
        let l = g.add_load(m, "l", a0);
        g.add_output("y", l);
        let pairs = mem_order_pairs(&g);
        assert_eq!(pairs, vec![(st, call), (call, l.node)]);
    }

    #[test]
    fn const_address_wraps_and_requires_const() {
        let mut g = Dfg::new("ca");
        let m = g.add_mem(MemObject::owned("a", 4, 16));
        let k = g.add_const("k", 6);
        let x = g.add_input("x");
        let l1 = g.add_load(m, "l1", k);
        let l2 = g.add_load(m, "l2", x);
        let s = g.add_op(Operation::Add, "s", &[l1, l2]);
        g.add_output("y", s);
        assert_eq!(const_address(&g, l1.node), Some(2)); // 6 mod 4
        assert_eq!(const_address(&g, l2.node), None);
    }

    /// The cached edges and order follow a bank reassignment: the read
    /// after `set_mem_banks` equals a fresh computation, not the cached one.
    #[test]
    fn cached_memory_edges_drop_on_rebank() {
        let mut g = Dfg::new("ld4");
        let m = g.add_mem(MemObject::owned("a", 8, 16));
        let mut acc: Option<crate::VarRef> = None;
        for i in 0..4 {
            let k = g.add_const(format!("k{i}"), i);
            let l = g.add_load(m, format!("l{i}"), k);
            acc = Some(match acc {
                None => l,
                Some(p) => g.add_op(Operation::Add, format!("s{i}"), &[p, l]),
            });
        }
        g.add_store(m, "st", acc.unwrap(), acc.unwrap());
        g.add_output("y", acc.unwrap());
        let one_bank = g.mem_serial_edges().to_vec();
        assert_eq!(one_bank, mem_serial_edges(&g));
        assert_eq!(g.mem_topo_order().unwrap(), mem_topo_order(&g).unwrap());
        assert_eq!(g.set_mem_banks(m, 2), 1);
        assert_eq!(g.mem_serial_edges(), mem_serial_edges(&g));
        assert_ne!(
            g.mem_serial_edges(),
            one_bank,
            "two banks chain differently"
        );
        assert_eq!(g.mem_topo_order().unwrap(), mem_topo_order(&g).unwrap());
        assert_eq!(g.mem_order_pairs(), mem_order_pairs(&g));
        // A graph edit drops the cache too.
        let k = g.add_const("k_late", 1);
        let l = g.add_load(m, "late", k);
        g.add_output("z", l);
        assert_eq!(g.mem_serial_edges(), mem_serial_edges(&g));
        assert_eq!(g.mem_order_pairs(), mem_order_pairs(&g));
    }

    #[test]
    fn bank_mapping_is_modular() {
        let m = MemObject::owned("a", 8, 16).with_banks(2);
        assert_eq!(bank_of(&m, 0), 0);
        assert_eq!(bank_of(&m, 3), 1);
        assert_eq!(bank_of(&m, 6), 0);
    }
}
