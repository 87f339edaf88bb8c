//! Flat CSR adjacency arena over a [`Dfg`]'s edge list.
//!
//! The graph itself stores nodes and edges in append-only `Vec` arenas with
//! dense `u32` ids, but the seed accessors ([`Dfg::in_edges`],
//! [`Dfg::out_edges`], [`Dfg::driver`]) answered every query with a linear
//! scan of the whole edge list — O(E) per node, O(V·E) for the schedulers
//! and O(E) *per operand per simulated sample* for the power simulator.
//! [`Adjacency`] is the compressed-sparse-row form of the same information:
//! three offset/index arrays built in one O(V + E) pass, giving
//!
//! * `in_edge_indices(n)`  — the edges entering `n`, as a contiguous slice,
//! * `out_edge_indices(n)` — the edges leaving `n`, as a contiguous slice,
//! * `driver_edge(n, p)`   — the edge driving input port `p` of `n`, O(1).
//!
//! **Order invariant**: within each slice, edge indices appear in strictly
//! ascending edge-id order — exactly the order the old linear scans
//! produced — and `driver_edge` returns the *lowest-indexed* matching edge,
//! exactly what `Edge::find` returned. Every consumer therefore observes
//! byte-identical iteration order, which is what keeps schedules,
//! fingerprints, and golden reports unchanged by this layer.
//!
//! **Lifecycle**: [`Dfg`] caches one `Adjacency` lazily (see [`Dfg::adj`])
//! and drops the cache on any mutation that adds nodes or edges. Retargeting
//! a hierarchical node ([`Dfg::replace_hier_callee`] — the only graph edit
//! the synthesis moves perform) changes a node's *kind* but no edge, so the
//! cache survives move application and rollback untouched.
//!
//! The adjacency also carries the graph's zero-delay topological order
//! ([`Dfg::topo_order`]), computed on first use from the same slices. It
//! depends only on the edge list, so it lives and dies with the adjacency:
//! `connect` and `push_node`, the only mutators that change the graph's
//! shape, drop both at once.
//!
//! ```
//! use hsyn_dfg::{Dfg, Operation};
//!
//! let mut g = Dfg::new("mac");
//! let a = g.add_input("a");
//! let b = g.add_input("b");
//! let c = g.add_input("c");
//! let m = g.add_op(Operation::Mult, "m", &[a, b]);
//! let s = g.add_op(Operation::Add, "s", &[m, c]);
//! g.add_output("y", s);
//!
//! let adj = g.adj();
//! assert_eq!(adj.in_degree(s.node), 2);
//! let drv = adj.driver_edge(s.node, 0).expect("port 0 driven");
//! assert_eq!(g.edge(drv).from.node, m.node);
//! // The CSR answers agree with a linear scan of the edge arena.
//! let scanned: Vec<u32> = g
//!     .edges()
//!     .filter(|(_, e)| e.to == s.node)
//!     .map(|(id, _)| id.index() as u32)
//!     .collect();
//! assert_eq!(adj.in_edge_indices(s.node), &scanned[..]);
//! ```

use crate::analysis::CycleError;
use crate::graph::{Dfg, EdgeId, NodeId};
use std::sync::OnceLock;

/// Sentinel for "no edge" slots in the driver table.
const NONE: u32 = u32::MAX;

/// CSR-style adjacency of one [`Dfg`]: per-node predecessor/successor edge
/// slices plus an O(1) input-port driver table. Built once per graph
/// version by [`Adjacency::build`] (normally via the [`Dfg::adj`] cache).
#[derive(Clone, Debug, Default)]
pub struct Adjacency {
    /// `in_start[n]..in_start[n+1]` bounds node `n`'s slice of `in_edges`.
    in_start: Vec<u32>,
    /// Edge indices entering each node, ascending within each slice.
    in_edges: Vec<u32>,
    /// `out_start[n]..out_start[n+1]` bounds node `n`'s slice of `out_edges`.
    out_start: Vec<u32>,
    /// Edge indices leaving each node, ascending within each slice.
    out_edges: Vec<u32>,
    /// `driver_start[n]..driver_start[n+1]` bounds node `n`'s port slots.
    driver_start: Vec<u32>,
    /// Per-(node, in-port) driving edge index, [`NONE`] when undriven.
    drivers: Vec<u32>,
    /// Zero-delay topological order of the owning graph, built on first
    /// use by [`Adjacency::topo_order`].
    topo: OnceLock<Result<Vec<NodeId>, CycleError>>,
}

impl Adjacency {
    /// Build the adjacency of `g` in one counting-sort pass: O(V + E) time,
    /// no per-node allocation.
    pub fn build(g: &Dfg) -> Self {
        let n = g.node_count();
        let mut in_start = vec![0u32; n + 1];
        let mut out_start = vec![0u32; n + 1];
        // Port-slot count per node: one slot per in-port seen on any edge.
        let mut ports = vec![0u32; n];
        for (_, e) in g.edges() {
            in_start[e.to.index() + 1] += 1;
            out_start[e.from.node.index() + 1] += 1;
            let p = &mut ports[e.to.index()];
            *p = (*p).max(u32::from(e.to_port) + 1);
        }
        for i in 0..n {
            in_start[i + 1] += in_start[i];
            out_start[i + 1] += out_start[i];
        }
        let mut driver_start = vec![0u32; n + 1];
        for i in 0..n {
            driver_start[i + 1] = driver_start[i] + ports[i];
        }
        let mut in_edges = vec![0u32; in_start[n] as usize];
        let mut out_edges = vec![0u32; out_start[n] as usize];
        let mut drivers = vec![NONE; driver_start[n] as usize];
        // Cursor copies of the starts; filling in edge-id order keeps each
        // slice ascending, matching the old linear-scan iteration order.
        let mut in_cur = in_start.clone();
        let mut out_cur = out_start.clone();
        for (id, e) in g.edges() {
            let ei = u32::try_from(id.index()).expect("edge count fits in u32");
            let t = e.to.index();
            in_edges[in_cur[t] as usize] = ei;
            in_cur[t] += 1;
            let f = e.from.node.index();
            out_edges[out_cur[f] as usize] = ei;
            out_cur[f] += 1;
            let slot = driver_start[t] as usize + usize::from(e.to_port);
            // First edge wins, as `Iterator::find` did on the flat list.
            if drivers[slot] == NONE {
                drivers[slot] = ei;
            }
        }
        Adjacency {
            in_start,
            in_edges,
            out_start,
            out_edges,
            driver_start,
            drivers,
            topo: OnceLock::new(),
        }
    }

    /// The zero-delay topological order of `g`, the graph this adjacency
    /// was built from: Kahn's algorithm with a FIFO queue seeded in node
    /// order, successors visited in ascending edge-id order. Computed on
    /// first call and cached with the adjacency.
    pub(crate) fn topo_order(&self, g: &Dfg) -> Result<&[NodeId], CycleError> {
        self.topo
            .get_or_init(|| self.kahn(g))
            .as_deref()
            .map_err(|_| CycleError)
    }

    fn kahn(&self, g: &Dfg) -> Result<Vec<NodeId>, CycleError> {
        let n = g.node_count();
        let mut indeg = vec![0usize; n];
        for (_, e) in g.edges() {
            if e.delay == 0 {
                indeg[e.to.index()] += 1;
            }
        }
        // A FIFO keeps sibling order close to insertion order, which keeps
        // downstream heuristics deterministic.
        let mut queue: std::collections::VecDeque<usize> =
            (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = queue.pop_front() {
            let nid = NodeId::from_index(i);
            order.push(nid);
            for &ei in self.out_edge_indices(nid) {
                let e = g.edge(EdgeId::from_index(ei as usize));
                if e.delay == 0 {
                    let t = e.to.index();
                    indeg[t] -= 1;
                    if indeg[t] == 0 {
                        queue.push_back(t);
                    }
                }
            }
        }
        if order.len() != n {
            return Err(CycleError);
        }
        Ok(order)
    }

    /// Number of nodes this adjacency describes.
    pub fn node_count(&self) -> usize {
        self.in_start.len().saturating_sub(1)
    }

    /// Indices (into the owning graph's edge arena) of the edges entering
    /// `node`, in ascending edge-id order.
    pub fn in_edge_indices(&self, node: NodeId) -> &[u32] {
        let i = node.index();
        &self.in_edges[self.in_start[i] as usize..self.in_start[i + 1] as usize]
    }

    /// Indices of the edges leaving any output port of `node`, in ascending
    /// edge-id order.
    pub fn out_edge_indices(&self, node: NodeId) -> &[u32] {
        let i = node.index();
        &self.out_edges[self.out_start[i] as usize..self.out_start[i + 1] as usize]
    }

    /// Number of edges entering `node`.
    pub fn in_degree(&self, node: NodeId) -> usize {
        self.in_edge_indices(node).len()
    }

    /// Number of edges leaving `node`.
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.out_edge_indices(node).len()
    }

    /// The edge driving input port `port` of `node`, if present — O(1).
    /// Returns the lowest-indexed matching edge, like the seed's linear
    /// `find`.
    pub fn driver_edge(&self, node: NodeId, port: u16) -> Option<EdgeId> {
        let i = node.index();
        let lo = self.driver_start[i] as usize;
        let hi = self.driver_start[i + 1] as usize;
        let slot = lo + usize::from(port);
        if slot >= hi {
            return None;
        }
        match self.drivers[slot] {
            NONE => None,
            ei => Some(EdgeId::from_index(ei as usize)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::VarRef;
    use crate::op::Operation;

    fn mac() -> Dfg {
        let mut g = Dfg::new("mac");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let m = g.add_op(Operation::Mult, "m", &[a, b]);
        let s = g.add_op(Operation::Add, "s", &[m, c]);
        g.add_output("y", s);
        g
    }

    fn feedback() -> Dfg {
        // y[n] = x[n] + y[n-1]: a delay-1 self-loop on the adder.
        let mut g = Dfg::new("acc");
        let x = g.add_input("x");
        let acc = g.add_op_detached(Operation::Add, "acc");
        g.connect(x, acc, 0, 0);
        g.connect(VarRef::new(acc, 0), acc, 1, 1);
        g.add_output("y", VarRef::new(acc, 0));
        g
    }

    /// Edge ids of the whole arena matching `keep`, in arena order: the
    /// linear scan every CSR slice must reproduce.
    fn scan(g: &Dfg, keep: impl Fn(&crate::Edge) -> bool) -> Vec<u32> {
        g.edges()
            .filter(|(_, e)| keep(e))
            .map(|(id, _)| id.index() as u32)
            .collect()
    }

    /// Every CSR answer must equal the linear-scan reference, in order.
    fn assert_matches_scan(g: &Dfg) {
        let adj = Adjacency::build(g);
        assert_eq!(adj.node_count(), g.node_count());
        for n in g.node_ids() {
            let ins = scan(g, |e| e.to == n);
            assert_eq!(adj.in_edge_indices(n), &ins[..], "in-edges of {n}");
            let outs = scan(g, |e| e.from.node == n);
            assert_eq!(adj.out_edge_indices(n), &outs[..], "out-edges of {n}");
            for port in 0..8u16 {
                let first = scan(g, |e| e.to == n && e.to_port == port).first().copied();
                let fast = adj.driver_edge(n, port).map(|id| id.index() as u32);
                assert_eq!(fast, first, "driver of {n}.{port}");
            }
        }
    }

    #[test]
    fn csr_matches_linear_scans() {
        assert_matches_scan(&mac());
        assert_matches_scan(&feedback());
        assert_matches_scan(&Dfg::new("empty"));
    }

    #[test]
    fn cache_survives_callee_retarget_and_invalidates_on_growth() {
        let mut h = crate::Hierarchy::new();
        let leaf_a = h.add_dfg(mac());
        let leaf_b = h.add_dfg(mac());
        let mut top = Dfg::new("top");
        let x = top.add_input("x");
        let y = top.add_input("y");
        let z = top.add_input("z");
        let call = top.add_hier(leaf_a, "call", &[x, y, z]);
        top.add_output("o", VarRef::new(call, 0));

        let before: Vec<u32> = top.adj().in_edge_indices(call).to_vec();
        // Retargeting the callee (the only move-time graph edit) keeps the
        // cache valid: no edge changed.
        top.replace_hier_callee(call, leaf_b);
        assert_eq!(top.adj().in_edge_indices(call), before.as_slice());
        assert_matches_scan(&top);

        // Growing the graph invalidates and rebuilds.
        let w = top.add_input("w");
        top.connect(w, call, 3, 0);
        assert_eq!(top.adj().in_degree(call), 4);
        assert_matches_scan(&top);
    }

    #[test]
    fn duplicate_drivers_resolve_to_first_edge() {
        // Pre-validation graphs may transiently double-drive a port; the
        // CSR must answer like the linear `find` (lowest edge id).
        let mut g = Dfg::new("dup");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let s = g.add_op_detached(Operation::Add, "s");
        g.connect(a, s, 0, 0);
        g.connect(b, s, 0, 0); // duplicate driver for port 0
        g.connect(b, s, 1, 0);
        assert_matches_scan(&g);
        let drv = g.adj().driver_edge(s, 0).unwrap();
        assert_eq!(g.edge(drv).from, a);
    }
}
