use hsyn_dfg::{Dfg, NodeId};
use std::collections::HashMap;
use std::hash::Hash;

/// Derive serialization edges for nodes sharing a resource (paper, Section
/// 4: "Before scheduling, we derive an ordering for the operations that
/// need to execute on the same functional unit or RTL module").
///
/// Nodes mapped to the same key by `assignment` are ordered by ascending
/// `priority` (typically unconstrained-ASAP start cycles), ties broken by
/// node index for determinism; consecutive pairs become ordering edges.
///
/// The resulting edges may conflict with data dependencies (making the
/// combined graph cyclic); the scheduler reports that as
/// [`SchedError::Cycle`](crate::SchedError::Cycle) and the candidate
/// assignment is rejected.
pub fn derive_orderings<K: Eq + Hash>(
    g: &Dfg,
    mut assignment: impl FnMut(NodeId) -> Option<K>,
    priority: &[u64],
) -> Vec<(NodeId, NodeId)> {
    // Groups are numbered by their first member in node order, which is
    // also their smallest member: the edge order is deterministic
    // regardless of hash iteration.
    let mut number: HashMap<K, usize> = HashMap::new();
    let mut groups: Vec<Vec<NodeId>> = Vec::new();
    for nid in g.node_ids() {
        if let Some(k) = assignment(nid) {
            let gi = *number.entry(k).or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[gi].push(nid);
        }
    }
    let mut edges = Vec::new();
    for group in &mut groups {
        group.sort_by_key(|n| (priority.get(n.index()).copied().unwrap_or(0), n.index()));
        for pair in group.windows(2) {
            edges.push((pair[0], pair[1]));
        }
    }
    edges
}

/// Unconstrained ASAP start cycles usable as ordering priorities: the
/// longest path in *cycles* assuming each schedulable node takes
/// `dur_cycles` cycles and free nodes take zero.
pub fn asap_priority(g: &Dfg, dur_cycles: impl FnMut(NodeId) -> u64) -> Vec<u64> {
    let (start, _) = hsyn_dfg::analysis::asap(g, dur_cycles)
        .expect("ordering requires an acyclic zero-delay subgraph");
    start
}
