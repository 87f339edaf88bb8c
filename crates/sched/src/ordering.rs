use crate::sweep::{RankQueue, TopoOrder};
use hsyn_dfg::{Dfg, EdgeId, NodeId};

/// Derive serialization edges for nodes sharing a resource (paper, Section
/// 4: "Before scheduling, we derive an ordering for the operations that
/// need to execute on the same functional unit or RTL module").
///
/// `groups` lists the nodes sharing each resource; no node may be in two
/// groups. A group's members are ordered by ascending `priority`
/// (typically unconstrained-ASAP start cycles), ties broken by node index
/// for determinism; consecutive pairs become ordering edges. Groups are
/// laid out by their smallest member, so the edge order is fixed by the
/// nodes, not by the order the groups come in.
///
/// `kept(members)` may hand back a group's chain from an earlier
/// derivation instead of sorting the group again; it must be the chain
/// this function would derive, which holds when the group had the same
/// members at the same priorities. An incremental rebuild keeps every
/// group its edit left alone; `|_| None` derives every chain.
///
/// The resulting edges may conflict with data dependencies (making the
/// combined graph cyclic); the scheduler reports that as
/// [`SchedError::Cycle`](crate::SchedError::Cycle) and the candidate
/// assignment is rejected.
pub fn derive_orderings<'k, M: AsRef<[NodeId]>>(
    groups: impl IntoIterator<Item = M>,
    priority: &[u64],
    mut kept: impl FnMut(&[NodeId]) -> Option<&'k [(NodeId, NodeId)]>,
) -> Vec<(NodeId, NodeId)> {
    let mut groups: Vec<(NodeId, M)> = groups
        .into_iter()
        .filter(|g| g.as_ref().len() > 1)
        .map(|g| (*g.as_ref().iter().min().expect("two members"), g))
        .collect();
    // Disjoint groups have distinct smallest members.
    groups.sort_unstable_by_key(|(first, _)| *first);
    let mut edges = Vec::new();
    let mut sorted: Vec<(u64, NodeId)> = Vec::new();
    for (_, members) in &groups {
        let members = members.as_ref();
        if let Some(chain) = kept(members) {
            edges.extend_from_slice(chain);
            continue;
        }
        // Node indices are distinct, so the records are too.
        sorted.clear();
        sorted.extend(
            members
                .iter()
                .map(|&n| (priority.get(n.index()).copied().unwrap_or(0), n)),
        );
        sorted.sort_unstable();
        edges.extend(sorted.windows(2).map(|pair| (pair[0].1, pair[1].1)));
    }
    edges
}

/// Unconstrained ASAP start cycles usable as ordering priorities: the
/// longest path in *cycles* assuming each schedulable node takes
/// `dur_cycles` cycles and free nodes take zero.
pub fn asap_priority(g: &Dfg, dur_cycles: impl FnMut(NodeId) -> u64) -> Vec<u64> {
    let dur: Vec<u64> = g.node_ids().map(dur_cycles).collect();
    asap_priority_from(g, |n| dur[n.index()], None).0
}

/// What [`asap_priority_from`] restarts from: the priorities of the same
/// DFG before some nodes' durations changed.
#[derive(Clone, Copy, Debug)]
pub struct Reprioritize<'p> {
    /// The priorities before the change.
    pub prev: &'p [u64],
    /// A topological order of the DFG's zero-delay edges; the order of any
    /// schedule of it qualifies ([`Rescheduled::order`](crate::Rescheduled::order)).
    pub order: &'p TopoOrder,
    /// Nodes whose duration changed.
    pub changed: &'p [NodeId],
}

/// [`asap_priority`] from per-node durations `dur`, optionally restarting
/// from earlier priorities: only
/// the successors of `from.changed` are visited, in topological order, and
/// a node whose priority comes out unchanged does not pass the visit on. A
/// node's priority depends only on its predecessors' priorities and
/// durations, so the result equals a pass from scratch. Also returns the
/// nodes whose priority differs from `from.prev` (none from scratch).
///
/// # Panics
///
/// From scratch, if the zero-delay subgraph is cyclic.
pub fn asap_priority_from(
    g: &Dfg,
    dur: impl Fn(NodeId) -> u64,
    from: Option<Reprioritize<'_>>,
) -> (Vec<u64>, Vec<NodeId>) {
    let n = g.node_count();
    let adj = g.adj();
    let successors = |v: NodeId| {
        adj.out_edge_indices(v).iter().filter_map(|&ei| {
            let e = g.edge(EdgeId::from_index(ei as usize));
            (e.delay == 0).then_some(e.to)
        })
    };
    let (order, mut prio, mut queue) = match from {
        None => (
            g.topo_order()
                .expect("ordering requires an acyclic zero-delay subgraph"),
            vec![0u64; n],
            RankQueue::full(n),
        ),
        Some(p) => {
            let mut q = RankQueue::empty(n);
            for &c in p.changed {
                for w in successors(c) {
                    q.push(p.order.of(w));
                }
            }
            (&p.order.order[..], p.prev.to_vec(), q)
        }
    };
    let mut moved = Vec::new();
    while let Some(r) = queue.pop() {
        let v = order[r];
        let start = g
            .in_edges(v)
            .filter(|(_, e)| e.delay == 0)
            .map(|(_, e)| prio[e.from.node.index()] + dur(e.from.node))
            .max()
            .unwrap_or(0);
        if let Some(p) = from {
            if start == prio[v.index()] {
                continue;
            }
            moved.push(v);
            for w in successors(v) {
                queue.push(p.order.of(w));
            }
        }
        prio[v.index()] = start;
    }
    (prio, moved)
}
