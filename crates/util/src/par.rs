//! Deterministic parallel map on scoped threads.
//!
//! The H-SYN outer loops (operating-point sweep, laxity×objective grid)
//! are embarrassingly parallel, but the reports they produce must be
//! byte-identical to a serial run. [`par_map`] guarantees that: work items
//! are claimed from an atomic counter, results land in a slot vector at
//! the item's input index, and the caller receives them in input order —
//! thread scheduling can change *when* an item runs, never *where* its
//! result goes.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolve a `parallelism` knob to a concrete worker count.
///
/// `None` means "use what the machine offers"
/// ([`std::thread::available_parallelism`], falling back to 1);
/// `Some(n)` is clamped to at least 1.
pub fn effective_threads(parallelism: Option<usize>) -> usize {
    match parallelism {
        Some(n) => n.max(1),
        None => std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// Apply `f` to every item of `items`, using up to `threads` worker
/// threads, and return the results **in input order**.
///
/// `f` receives the item's input index alongside the item, so callers can
/// implement total-order tiebreaks ("first index wins") that are
/// independent of thread scheduling. With `threads <= 1` (or one item)
/// the map runs inline on the caller's thread — no spawn, identical
/// results.
///
/// # Panics
///
/// Propagates a panic from `f` after all workers finish.
pub fn par_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        // More workers than items would leave the excess idle.
        for _ in 0..threads.min(n) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(i, &items[i]);
                *slots[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("worker filled every claimed slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<usize> = (0..64).collect();
        for threads in [1, 2, 4, 8] {
            let out = par_map(threads, &items, |i, &x| {
                assert_eq!(i, x);
                x * 10
            });
            assert_eq!(out, (0..64).map(|x| x * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_equals_serial_on_stateful_work() {
        let items: Vec<u64> = (0..40).collect();
        let work = |_: usize, &seed: &u64| {
            let mut r = crate::Rng::seed_from_u64(seed);
            (0..100).map(|_| r.next_u64() & 0xFF).sum::<u64>()
        };
        let serial = par_map(1, &items, work);
        let parallel = par_map(4, &items, work);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(4, &empty, |_, &x| x).is_empty());
        assert_eq!(par_map(4, &[9u32], |_, &x| x + 1), vec![10]);
    }

    #[test]
    fn effective_threads_resolves_the_knob() {
        assert_eq!(effective_threads(Some(3)), 3);
        assert_eq!(effective_threads(Some(0)), 1);
        assert!(effective_threads(None) >= 1);
    }
}
