use hsyn_dfg::{Dfg, NodeId};

/// Derive serialization edges for nodes sharing a resource (paper, Section
/// 4: "Before scheduling, we derive an ordering for the operations that
/// need to execute on the same functional unit or RTL module").
///
/// Nodes mapped to the same key by `assignment` are ordered by ascending
/// `priority` (typically unconstrained-ASAP start cycles), ties broken by
/// node index for determinism; consecutive pairs become ordering edges.
/// Keys are dense resource indices (the builder's FU groups, then its
/// submodule groups): they number the groups through a table as long as
/// the largest key, with no hashing.
///
/// The resulting edges may conflict with data dependencies (making the
/// combined graph cyclic); the scheduler reports that as
/// [`SchedError::Cycle`](crate::SchedError::Cycle) and the candidate
/// assignment is rejected.
pub fn derive_orderings(
    g: &Dfg,
    mut assignment: impl FnMut(NodeId) -> Option<usize>,
    priority: &[u64],
) -> Vec<(NodeId, NodeId)> {
    /// A key no group has been numbered for yet.
    const UNNUMBERED: u32 = u32::MAX;
    // Groups are numbered by their first member in node order, which is
    // also their smallest member, so the edge order is fixed by the nodes.
    // Every member is one `(group, priority, node)` record; one sort lays
    // the groups out in number order, each in ascending priority.
    let mut number: Vec<u32> = Vec::new();
    let mut groups = 0u32;
    let mut members: Vec<(u32, u64, u32)> = Vec::new();
    for nid in g.node_ids() {
        let Some(k) = assignment(nid) else {
            continue;
        };
        if k >= number.len() {
            number.resize(k + 1, UNNUMBERED);
        }
        if number[k] == UNNUMBERED {
            number[k] = groups;
            groups += 1;
        }
        let prio = priority.get(nid.index()).copied().unwrap_or(0);
        members.push((number[k], prio, nid.index() as u32));
    }
    // Node indices are distinct, so the records are too.
    members.sort_unstable();
    members
        .windows(2)
        .filter(|pair| pair[0].0 == pair[1].0)
        .map(|pair| {
            (
                NodeId::from_index(pair[0].2 as usize),
                NodeId::from_index(pair[1].2 as usize),
            )
        })
        .collect()
}

/// Unconstrained ASAP start cycles usable as ordering priorities: the
/// longest path in *cycles* assuming each schedulable node takes
/// `dur_cycles` cycles and free nodes take zero.
pub fn asap_priority(g: &Dfg, dur_cycles: impl FnMut(NodeId) -> u64) -> Vec<u64> {
    let (start, _) = hsyn_dfg::analysis::asap(g, dur_cycles)
        .expect("ordering requires an acyclic zero-delay subgraph");
    start
}
