//! The future-event list.
//!
//! [`EventCalendar`] is the pending-event contract the engine runs on;
//! [`HeapCalendar`], a binary heap with `O(log n)` per operation, is its
//! implementation — the right one for the event populations this
//! simulator produces (a handful of pending events per running job,
//! tens of thousands at most). Cancellation goes through [`EventId`]
//! handles using lazy deletion: a cancelled id is remembered and the
//! entry discarded when it surfaces, so cancellation is `O(1)`.

use crate::event::{Event, EventId};
use crate::time::SimTime;

/// Membership set for live event ids.
///
/// The engine issues ids densely from a counter, so a bitmask indexed
/// by id beats a hash set: insert/remove/contains are a shift and a
/// mask, with no hashing on the per-event hot path. Memory is one bit
/// per id ever issued (a 10M-event run costs ~1.2 MiB), which is the
/// right trade for ids that are sequential — callers synthesizing
/// sparse ids by hand (`EventId::from_raw`) pay proportionally.
#[derive(Default)]
struct IdSet {
    words: Vec<u64>,
    len: usize,
}

impl IdSet {
    fn new() -> Self {
        IdSet::default()
    }

    fn with_capacity(ids: usize) -> Self {
        IdSet { words: Vec::with_capacity(ids.div_ceil(64)), len: 0 }
    }

    /// Inserts `id`; returns `false` if it was already present.
    fn insert(&mut self, id: u64) -> bool {
        let (w, mask) = ((id / 64) as usize, 1u64 << (id % 64));
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        if self.words[w] & mask != 0 {
            return false;
        }
        self.words[w] |= mask;
        self.len += 1;
        true
    }

    /// Removes `id`; returns `false` if it was not present.
    fn remove(&mut self, id: u64) -> bool {
        let (w, mask) = ((id / 64) as usize, 1u64 << (id % 64));
        let Some(word) = self.words.get_mut(w) else { return false };
        if *word & mask == 0 {
            return false;
        }
        *word &= !mask;
        self.len -= 1;
        true
    }

    fn contains(&self, id: u64) -> bool {
        self.words.get((id / 64) as usize).is_some_and(|w| w & (1u64 << (id % 64)) != 0)
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// The pending-event set abstraction used by the simulation engine.
pub trait EventCalendar<E> {
    /// Inserts a scheduled event.
    fn insert(&mut self, ev: Event<E>);

    /// Cancels a previously inserted event. Returns `true` if the event was
    /// still pending (i.e. had not fired and had not already been
    /// cancelled).
    fn cancel(&mut self, id: EventId) -> bool;

    /// Removes and returns the earliest pending event (FIFO among equal
    /// times).
    fn pop(&mut self) -> Option<Event<E>>;

    /// The time of the earliest pending event without removing it.
    fn peek_time(&mut self) -> Option<SimTime>;

    /// Number of live (non-cancelled) pending events.
    fn len(&self) -> usize;

    /// Whether no live events remain.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---------------------------------------------------------------------------
// Binary-heap calendar
// ---------------------------------------------------------------------------

struct HeapEntry<E>(Event<E>);

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.0.key() == other.0.key()
    }
}
impl<E> Eq for HeapEntry<E> {}
impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we need earliest-first.
        other.0.key().cmp(&self.0.key())
    }
}

/// Binary-heap future-event list with lazy cancellation.
///
/// The set of live (inserted, not yet popped or cancelled) ids is tracked
/// explicitly, so cancelling a stale handle — one that already fired or
/// was already cancelled — is a safe no-op rather than a count corruption.
pub struct HeapCalendar<E> {
    heap: std::collections::BinaryHeap<HeapEntry<E>>,
    live_ids: IdSet,
}

impl<E> Default for HeapCalendar<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapCalendar<E> {
    /// Creates an empty calendar.
    pub fn new() -> Self {
        HeapCalendar { heap: std::collections::BinaryHeap::new(), live_ids: IdSet::new() }
    }

    /// Creates an empty calendar with room for `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        HeapCalendar {
            heap: std::collections::BinaryHeap::with_capacity(cap),
            live_ids: IdSet::with_capacity(cap),
        }
    }

    /// Discards cancelled entries sitting at the top of the heap.
    fn skim(&mut self) {
        while let Some(top) = self.heap.peek() {
            if self.live_ids.contains(top.0.id.0) {
                break;
            }
            self.heap.pop();
        }
    }
}

impl<E> EventCalendar<E> for HeapCalendar<E> {
    fn insert(&mut self, ev: Event<E>) {
        assert!(self.live_ids.insert(ev.id.0), "duplicate event id {:?}", ev.id);
        self.heap.push(HeapEntry(ev));
    }

    fn cancel(&mut self, id: EventId) -> bool {
        self.live_ids.remove(id.0)
    }

    fn pop(&mut self) -> Option<Event<E>> {
        self.skim();
        let ev = self.heap.pop()?.0;
        self.live_ids.remove(ev.id.0);
        Some(ev)
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        self.skim();
        self.heap.peek().map(|e| e.0.time)
    }

    fn len(&self) -> usize {
        self.live_ids.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: f64, id: u64) -> Event<u32> {
        Event { time: SimTime::new(t), id: EventId(id), payload: id as u32 }
    }

    fn drain<C: EventCalendar<u32>>(cal: &mut C) -> Vec<(f64, u64)> {
        let mut out = Vec::new();
        while let Some(e) = cal.pop() {
            out.push((e.time.seconds(), e.id.raw()));
        }
        out
    }

    #[test]
    fn heap_orders_by_time() {
        let mut c = HeapCalendar::new();
        c.insert(ev(3.0, 0));
        c.insert(ev(1.0, 1));
        c.insert(ev(2.0, 2));
        assert_eq!(drain(&mut c), vec![(1.0, 1), (2.0, 2), (3.0, 0)]);
    }

    #[test]
    fn heap_fifo_among_equal_times() {
        let mut c = HeapCalendar::new();
        c.insert(ev(1.0, 0));
        c.insert(ev(1.0, 1));
        c.insert(ev(1.0, 2));
        assert_eq!(drain(&mut c), vec![(1.0, 0), (1.0, 1), (1.0, 2)]);
    }

    #[test]
    fn heap_cancel_removes_event() {
        let mut c = HeapCalendar::new();
        c.insert(ev(1.0, 0));
        c.insert(ev(2.0, 1));
        assert!(c.cancel(EventId(0)));
        assert!(!c.cancel(EventId(0)), "double cancel must fail");
        assert_eq!(c.len(), 1);
        assert_eq!(drain(&mut c), vec![(2.0, 1)]);
    }

    #[test]
    fn heap_peek_skips_cancelled() {
        let mut c = HeapCalendar::new();
        c.insert(ev(1.0, 0));
        c.insert(ev(2.0, 1));
        c.cancel(EventId(0));
        assert_eq!(c.peek_time(), Some(SimTime::new(2.0)));
    }

    #[test]
    fn heap_empty_pop_is_none() {
        let mut c: HeapCalendar<u32> = HeapCalendar::new();
        assert!(c.pop().is_none());
        assert!(c.peek_time().is_none());
        assert!(c.is_empty());
    }
}
