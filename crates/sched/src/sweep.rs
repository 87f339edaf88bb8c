//! The worklist of the incremental passes: nodes due for a visit, taken in
//! topological order.

use hsyn_dfg::NodeId;

/// A topological order of a graph and its inverse: `order[r]` is the node
/// of rank `r`, `rank[n]` the rank of node `n`.
///
/// The incremental passes ([`asap_priority_from`](crate::asap_priority_from),
/// [`schedule_from`](crate::schedule_from)) restart from the order an
/// earlier pass left, and visit the nodes they must in rank order.
#[derive(Clone, Debug, Default)]
pub struct TopoOrder {
    /// Node of each rank.
    pub order: Vec<NodeId>,
    /// Rank of each node, by [`NodeId::index`].
    pub rank: Vec<u32>,
}

impl TopoOrder {
    /// The order `order` with its rank table.
    pub fn new(order: Vec<NodeId>) -> Self {
        let mut rank = vec![0u32; order.len()];
        for (r, n) in order.iter().enumerate() {
            rank[n.index()] = r as u32;
        }
        TopoOrder { order, rank }
    }

    /// Rank of `n`.
    pub(crate) fn of(&self, n: NodeId) -> usize {
        self.rank[n.index()] as usize
    }
}

/// Nodes due for a visit, held as bits indexed by rank: they come out in
/// rank order, and a visit may queue its successors (which rank later)
/// while the sweep runs.
pub(crate) struct RankQueue {
    words: Vec<u64>,
    /// First word that may still hold a set bit.
    cursor: usize,
}

impl RankQueue {
    /// No node queued, ranks `0..n`.
    pub(crate) fn empty(n: usize) -> Self {
        RankQueue {
            words: vec![0; n.div_ceil(64)],
            cursor: 0,
        }
    }

    /// Every rank in `0..n` queued: a pass from scratch.
    pub(crate) fn full(n: usize) -> Self {
        let mut q = RankQueue {
            words: vec![u64::MAX; n.div_ceil(64)],
            cursor: 0,
        };
        if let Some(last) = q.words.last_mut().filter(|_| !n.is_multiple_of(64)) {
            *last = (1u64 << (n % 64)) - 1;
        }
        q
    }

    /// Queue `rank` (a no-op when it is queued already).
    pub(crate) fn push(&mut self, rank: usize) {
        self.words[rank / 64] |= 1 << (rank % 64);
        self.cursor = self.cursor.min(rank / 64);
    }

    /// Take the lowest queued rank.
    pub(crate) fn pop(&mut self) -> Option<usize> {
        while let Some(w) = self.words.get_mut(self.cursor) {
            if *w != 0 {
                let bit = w.trailing_zeros() as usize;
                *w &= *w - 1;
                return Some(self.cursor * 64 + bit);
            }
            self.cursor += 1;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_come_out_in_order_and_pushes_join_the_sweep() {
        let mut q = RankQueue::empty(200);
        for r in [130, 3, 64, 3] {
            q.push(r);
        }
        assert_eq!(q.pop(), Some(3));
        q.push(70);
        let rest: Vec<usize> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(rest, vec![64, 70, 130]);

        let mut full = RankQueue::full(65);
        let all: Vec<usize> = std::iter::from_fn(|| full.pop()).collect();
        assert_eq!(all, (0..65).collect::<Vec<_>>());
        assert_eq!(RankQueue::full(0).pop(), None);
    }
}
