//! A small lazy-deletion min-heap over `(primary tag, secondary tag,
//! session)` triples, shared by the single-heap schedulers (WFQ by finish
//! tag, SCFQ by finish tag, SFQ by start tag).
//!
//! Entries are invalidated by bumping a per-session generation counter;
//! stale tops are discarded on pop/peek. Each backlog episode pushes exactly
//! one entry, so the heap size is bounded by the number of backlog episodes
//! in flight and every operation is O(log N) amortized.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use super::scheduler::SessionId;

#[derive(Debug, Clone, Copy, PartialEq)]
struct Entry {
    primary: f64,
    secondary: f64,
    id: SessionId,
    generation: u64,
}

impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Inverted for min-heap behaviour on (primary, secondary, id).
        (other.primary, other.secondary, other.id.0)
            .partial_cmp(&(self.primary, self.secondary, self.id.0))
            // lint:allow(L002): callers only push finite tags
            .expect("tags must not be NaN")
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Lazy min-heap of backlogged sessions ordered by a tag pair.
#[derive(Debug, Clone, Default)]
pub(crate) struct TagHeap {
    heap: BinaryHeap<Entry>,
    generations: Vec<u64>,
    live: usize,
}

impl TagHeap {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, id: SessionId) {
        if id.0 >= self.generations.len() {
            self.generations.resize(id.0 + 1, 0);
        }
    }

    /// Adds a session keyed by `(primary, secondary)`. The session must not
    /// already be present.
    pub(crate) fn push(&mut self, id: SessionId, primary: f64, secondary: f64) {
        debug_assert!(primary.is_finite() && secondary.is_finite());
        self.ensure(id);
        self.generations[id.0] += 1;
        self.heap.push(Entry {
            primary,
            secondary,
            id,
            generation: self.generations[id.0],
        });
        self.live += 1;
    }

    /// Removes and returns the minimum `(primary, secondary, id)` member
    /// together with its primary tag.
    pub(crate) fn pop_min(&mut self) -> Option<(SessionId, f64, f64)> {
        while let Some(top) = self.heap.pop() {
            if self.generations[top.id.0] == top.generation {
                self.generations[top.id.0] += 1;
                self.live -= 1;
                return Some((top.id, top.primary, top.secondary));
            }
        }
        None
    }

    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    pub(crate) fn clear(&mut self) {
        self.heap.clear();
        for g in &mut self.generations {
            *g += 1;
        }
        self.live = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_order_with_ties_by_secondary_then_id() {
        let mut h = TagHeap::new();
        h.push(SessionId(2), 1.0, 5.0);
        h.push(SessionId(0), 1.0, 5.0);
        h.push(SessionId(1), 1.0, 4.0);
        h.push(SessionId(3), 0.5, 9.0);
        assert_eq!(h.pop_min().unwrap().0, SessionId(3));
        assert_eq!(h.pop_min().unwrap().0, SessionId(1));
        assert_eq!(h.pop_min().unwrap().0, SessionId(0));
        assert_eq!(h.pop_min().unwrap().0, SessionId(2));
        assert_eq!(h.pop_min(), None);
    }

    #[test]
    fn clear_invalidates() {
        let mut h = TagHeap::new();
        h.push(SessionId(0), 1.0, 1.0);
        h.clear();
        assert_eq!(h.len(), 0);
        assert_eq!(h.pop_min(), None);
        h.push(SessionId(0), 2.0, 2.0);
        assert_eq!(h.pop_min().unwrap().1, 2.0);
    }
}
