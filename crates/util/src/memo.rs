//! One bounded memo table for every engine and analysis memo.
//!
//! A [`BoundedMemo`] is a hash map with an entry cap and its own traffic
//! count. It has exactly one policy: an insert that finds `CAP` entries
//! already held clears the table first. A clear keeps the counts, so a
//! memo reports every lookup it ever answered or missed. Each cap is a
//! bound, not a tuning knob, and lives as a `const` beside the memo that
//! uses it.

use std::collections::HashMap;
use std::hash::Hash;

/// Hits and misses of one memo.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoCount {
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that fell through to a fresh computation.
    pub misses: u64,
}

impl MemoCount {
    /// Add `other`'s counts to these.
    pub fn absorb(&mut self, other: MemoCount) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

/// A memo of at most `CAP` entries that counts its own lookups.
#[derive(Debug)]
pub struct BoundedMemo<K, V, const CAP: usize> {
    map: HashMap<K, V>,
    count: MemoCount,
}

impl<K, V, const CAP: usize> Default for BoundedMemo<K, V, CAP> {
    fn default() -> Self {
        BoundedMemo {
            map: HashMap::new(),
            count: MemoCount::default(),
        }
    }
}

impl<K: Eq + Hash, V, const CAP: usize> BoundedMemo<K, V, CAP> {
    /// The entry stored under `key`, counted as one hit, or `None`,
    /// counted as one miss.
    pub fn get(&mut self, key: &K) -> Option<&mut V> {
        let found = self.map.get_mut(key);
        if found.is_some() {
            self.count.hits += 1;
        } else {
            self.count.misses += 1;
        }
        found
    }

    /// Store `value` under `key`, clearing the table first when it already
    /// holds `CAP` entries.
    pub fn insert(&mut self, key: K, value: V) {
        if self.map.len() >= CAP {
            self.map.clear();
        }
        self.map.insert(key, value);
    }

    /// Every lookup so far, across clears.
    pub fn count(&self) -> MemoCount {
        self.count
    }

    /// Entries held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no entry is held.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Every stored value, for tests that corrupt entries.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.map.values_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_full_memo_is_cleared_and_keeps_its_counts() {
        const CAP: usize = 4;
        let mut memo = BoundedMemo::<u64, u64, CAP>::default();
        for k in 0..CAP as u64 {
            assert!(memo.get(&k).is_none());
            memo.insert(k, k * 10);
        }
        assert_eq!(memo.len(), CAP);
        assert_eq!(memo.get(&2).copied(), Some(20));
        assert_eq!(memo.count(), MemoCount { hits: 1, misses: 4 });

        memo.insert(99, 990);
        assert_eq!(memo.len(), 1, "full: cleared, then the new entry");
        assert_eq!(memo.get(&99).copied(), Some(990));
        assert!(memo.get(&2).is_none(), "a cleared key misses");
        assert_eq!(
            memo.count(),
            MemoCount { hits: 2, misses: 5 },
            "the clear kept the counts"
        );
    }
}
