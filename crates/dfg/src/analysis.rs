//! Graph analyses over single-level DFGs: topological order, longest paths,
//! ASAP/ALAP levels, and mobility. These are the pure-graph building blocks;
//! the resource-aware scheduler lives in the `hsyn-sched` crate.

use crate::graph::{Dfg, EdgeId, NodeId};

/// Error returned when an analysis requires acyclicity that does not hold.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CycleError;

impl std::fmt::Display for CycleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("zero-delay subgraph contains a cycle")
    }
}

impl std::error::Error for CycleError {}

/// Topological order of `g` over zero-delay edges: an owned copy of the
/// order [`Dfg::topo_order`] caches with the graph's adjacency.
///
/// # Errors
///
/// Returns [`CycleError`] if the zero-delay subgraph is cyclic.
pub fn topo_order(g: &Dfg) -> Result<Vec<NodeId>, CycleError> {
    g.topo_order().map(<[NodeId]>::to_vec)
}

fn node_id(index: usize) -> NodeId {
    // NodeId construction is crate-internal; analysis lives in-crate.
    crate::graph::NodeId::new(index)
}

/// As-soon-as-possible start levels: the longest path (in accumulated node
/// durations) from any source to each node, over zero-delay edges.
///
/// `duration(n)` is the time the node occupies before its result is ready;
/// nodes like inputs, constants, and outputs conventionally take 0.
///
/// Returns `(start, finish)` per node, indexed by [`NodeId::index`].
///
/// # Errors
///
/// Returns [`CycleError`] if the zero-delay subgraph is cyclic.
pub fn asap(
    g: &Dfg,
    mut duration: impl FnMut(NodeId) -> u64,
) -> Result<(Vec<u64>, Vec<u64>), CycleError> {
    let order = g.topo_order()?;
    let n = g.node_count();
    let adj = g.adj();
    let mut start = vec![0u64; n];
    let mut finish = vec![0u64; n];
    for &nid in order {
        let mut s = 0;
        for &ei in adj.in_edge_indices(nid) {
            let e = g.edge(EdgeId::from_index(ei as usize));
            if e.delay == 0 {
                s = s.max(finish[e.from.node.index()]);
            }
        }
        start[nid.index()] = s;
        finish[nid.index()] = s + duration(nid);
    }
    Ok((start, finish))
}

/// As-late-as-possible start levels under a global `deadline`: the latest
/// start of each node such that every zero-delay successor chain completes by
/// `deadline`.
///
/// Returns the start level per node. Nodes with no successors may start as
/// late as `deadline - duration`.
///
/// # Errors
///
/// Returns [`CycleError`] if the zero-delay subgraph is cyclic, and
/// [`CycleError`] is also returned when `deadline` is smaller than the
/// critical path (levels would go negative) — callers distinguish via
/// [`critical_path`].
pub fn alap(
    g: &Dfg,
    deadline: u64,
    mut duration: impl FnMut(NodeId) -> u64,
) -> Result<Vec<u64>, CycleError> {
    let order = g.topo_order()?;
    let n = g.node_count();
    let adj = g.adj();
    let mut latest_finish = vec![deadline; n];
    for &nid in order.iter().rev() {
        let d = duration(nid);
        let lf = latest_finish[nid.index()];
        if lf < d {
            return Err(CycleError);
        }
        let ls = lf - d;
        for &ei in adj.in_edge_indices(nid) {
            let e = g.edge(EdgeId::from_index(ei as usize));
            if e.delay == 0 {
                let p = e.from.node.index();
                latest_finish[p] = latest_finish[p].min(ls);
            }
        }
    }
    let mut start = vec![0u64; n];
    for i in 0..n {
        let d = duration(node_id(i));
        if latest_finish[i] < d {
            return Err(CycleError);
        }
        start[i] = latest_finish[i] - d;
    }
    Ok(start)
}

/// Length of the critical (longest-duration) zero-delay path through `g`.
///
/// # Errors
///
/// Returns [`CycleError`] if the zero-delay subgraph is cyclic.
pub fn critical_path(g: &Dfg, duration: impl FnMut(NodeId) -> u64) -> Result<u64, CycleError> {
    let (_, finish) = asap(g, duration)?;
    Ok(finish.into_iter().max().unwrap_or(0))
}

/// Per-node mobility (ALAP start − ASAP start) under `deadline`.
///
/// # Errors
///
/// Returns [`CycleError`] on a cyclic zero-delay subgraph or when `deadline`
/// is infeasible (shorter than the critical path).
pub fn mobility(
    g: &Dfg,
    deadline: u64,
    mut duration: impl FnMut(NodeId) -> u64,
) -> Result<Vec<u64>, CycleError> {
    let (asap_start, _) = asap(g, &mut duration)?;
    let alap_start = alap(g, deadline, &mut duration)?;
    Ok(asap_start
        .iter()
        .zip(&alap_start)
        .map(|(&a, &l)| l.saturating_sub(a))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dfg, Operation};

    /// Diamond: y = (a+b) * (a-b); durations: add/sub 1, mult 3.
    fn diamond() -> Dfg {
        let mut g = Dfg::new("diamond");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let s = g.add_op(Operation::Add, "s", &[a, b]);
        let d = g.add_op(Operation::Sub, "d", &[a, b]);
        let m = g.add_op(Operation::Mult, "m", &[s, d]);
        g.add_output("y", m);
        g
    }

    fn dur(g: &Dfg) -> impl FnMut(NodeId) -> u64 + '_ {
        |n| match g.node(n).kind() {
            crate::NodeKind::Op(Operation::Mult) => 3,
            crate::NodeKind::Op(_) => 1,
            _ => 0,
        }
    }

    #[test]
    fn topo_order_respects_edges() {
        let g = diamond();
        let order = topo_order(&g).unwrap();
        let pos: Vec<usize> = (0..g.node_count())
            .map(|i| order.iter().position(|n| n.index() == i).unwrap())
            .collect();
        for (_, e) in g.edges() {
            assert!(pos[e.from.node.index()] < pos[e.to.index()]);
        }
    }

    #[test]
    fn asap_longest_path() {
        let g = diamond();
        let (start, finish) = asap(&g, dur(&g)).unwrap();
        let m = g.nodes().find(|(_, n)| n.name() == "m").unwrap().0;
        assert_eq!(start[m.index()], 1);
        assert_eq!(finish[m.index()], 4);
        assert_eq!(critical_path(&g, dur(&g)).unwrap(), 4);
    }

    #[test]
    fn alap_pushes_slack_late() {
        let g = diamond();
        let alap_start = alap(&g, 10, dur(&g)).unwrap();
        let s = g.nodes().find(|(_, n)| n.name() == "s").unwrap().0;
        let m = g.nodes().find(|(_, n)| n.name() == "m").unwrap().0;
        // m must start by 10-3=7 at the latest... but its output feeds the
        // output node (duration 0) so ALAP(m) = 7; adders by 6.
        assert_eq!(alap_start[m.index()], 7);
        assert_eq!(alap_start[s.index()], 6);
    }

    #[test]
    fn alap_rejects_infeasible_deadline() {
        let g = diamond();
        assert!(alap(&g, 3, dur(&g)).is_err());
        assert!(alap(&g, 4, dur(&g)).is_ok());
    }

    #[test]
    fn mobility_zero_on_critical_path() {
        let g = diamond();
        let mob = mobility(&g, 4, dur(&g)).unwrap();
        // With deadline == critical path everything on it has zero mobility.
        let m = g.nodes().find(|(_, n)| n.name() == "m").unwrap().0;
        assert_eq!(mob[m.index()], 0);
        let mob6 = mobility(&g, 6, dur(&g)).unwrap();
        assert_eq!(mob6[m.index()], 2);
    }

    #[test]
    fn feedback_is_ignored_by_levels() {
        let mut g = Dfg::new("acc");
        let x = g.add_input("x");
        let n = g.add_op_detached(Operation::Add, "acc");
        g.connect(x, n, 0, 0);
        g.connect(crate::VarRef::new(n, 0), n, 1, 1);
        g.add_output("y", crate::VarRef::new(n, 0));
        let (start, _) = asap(&g, |nid| {
            if g.node(nid).kind().is_schedulable() {
                1
            } else {
                0
            }
        })
        .unwrap();
        assert_eq!(start[n.index()], 0);
    }

    #[test]
    fn cycle_detected() {
        let mut g = Dfg::new("cyc");
        let a = g.add_input("a");
        let n1 = g.add_op_detached(Operation::Add, "n1");
        let n2 = g.add_op_detached(Operation::Add, "n2");
        g.connect(a, n1, 0, 0);
        g.connect(crate::VarRef::new(n2, 0), n1, 1, 0);
        g.connect(crate::VarRef::new(n1, 0), n2, 0, 0);
        g.connect(a, n2, 1, 0);
        assert_eq!(topo_order(&g).unwrap_err(), CycleError);
        assert!(asap(&g, |_| 1).is_err());
    }
}
