//! Property tests: the heap calendar is observationally equivalent to a
//! naive sorted-list reference, i.e. it behaves like a sorted multiset.

use desim::{Event, EventCalendar, EventId, HeapCalendar, SimTime};
use proptest::prelude::*;

/// A scripted operation against a calendar.
#[derive(Clone, Debug)]
enum Op {
    /// Insert an event at the given (non-negative) time.
    Insert(f64),
    /// Cancel the i-th inserted event (modulo inserts so far).
    Cancel(usize),
    /// Pop the earliest event.
    Pop,
    /// Peek at the earliest event's time without removing it.
    Peek,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0.0f64..1000.0).prop_map(Op::Insert),
        1 => any::<usize>().prop_map(Op::Cancel),
        2 => Just(Op::Pop),
        1 => Just(Op::Peek),
    ]
}

/// The reference calendar: a plain `Vec` scanned for the earliest live
/// `(time, id)` key on every pop and peek, with eager cancellation.
#[derive(Default)]
struct SortedList {
    events: Vec<Event<u64>>,
}

impl SortedList {
    fn earliest(&self) -> Option<usize> {
        (0..self.events.len()).min_by(|&a, &b| {
            let (ea, eb) = (&self.events[a], &self.events[b]);
            ea.time.cmp(&eb.time).then(ea.id.raw().cmp(&eb.id.raw()))
        })
    }
}

impl EventCalendar<u64> for SortedList {
    fn insert(&mut self, ev: Event<u64>) {
        self.events.push(ev);
    }

    fn cancel(&mut self, id: EventId) -> bool {
        let before = self.events.len();
        self.events.retain(|e| e.id != id);
        self.events.len() < before
    }

    fn pop(&mut self) -> Option<Event<u64>> {
        self.earliest().map(|i| self.events.remove(i))
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        self.earliest().map(|i| self.events[i].time)
    }

    fn len(&self) -> usize {
        self.events.len()
    }
}

/// Runs a script against one calendar, returning the observable trace.
fn run<C: EventCalendar<u64>>(mut cal: C, ops: &[Op]) -> Vec<(u64, Option<(f64, u64)>)> {
    let mut trace = Vec::new();
    let mut ids: Vec<EventId> = Vec::new();
    let mut next = 0u64;
    let mut last_popped = 0.0f64;
    for op in ops {
        match op {
            Op::Insert(t) => {
                // Calendars (like the engine) only ever see non-decreasing
                // insert times relative to the last pop.
                let t = last_popped + t;
                let id = EventId::for_tests(next);
                ids.push(id);
                cal.insert(Event { time: SimTime::new(t), id, payload: next });
                next += 1;
            }
            Op::Cancel(i) => {
                if !ids.is_empty() {
                    let id = ids[i % ids.len()];
                    let ok = cal.cancel(id);
                    trace.push((u64::MAX, Some((if ok { 1.0 } else { 0.0 }, id.raw()))));
                }
            }
            Op::Pop => {
                let got = cal.pop().map(|e| {
                    last_popped = e.time.seconds();
                    (e.time.seconds(), e.id.raw())
                });
                trace.push((cal.len() as u64, got));
            }
            Op::Peek => {
                let got = cal.peek_time().map(|t| (t.seconds(), 0));
                trace.push((cal.len() as u64, got));
            }
        }
    }
    // Drain the remainder.
    while let Some(e) = cal.pop() {
        trace.push((cal.len() as u64, Some((e.time.seconds(), e.id.raw()))));
    }
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The heap calendar and the sorted-list reference produce
    /// identical traces for any script of inserts, cancels, and pops.
    #[test]
    fn heap_matches_the_sorted_reference(ops in proptest::collection::vec(op_strategy(), 0..200)) {
        let heap_trace = run(HeapCalendar::new(), &ops);
        let reference_trace = run(SortedList::default(), &ops);
        prop_assert_eq!(heap_trace, reference_trace);
    }

    /// Popping drains events in non-decreasing time order with FIFO ties.
    #[test]
    fn pops_are_time_ordered(times in proptest::collection::vec(0.0f64..1e6, 1..300)) {
        let mut cal = HeapCalendar::new();
        for (i, &t) in times.iter().enumerate() {
            cal.insert(Event { time: SimTime::new(t), id: EventId::for_tests(i as u64), payload: i });
        }
        let mut prev: Option<(f64, u64)> = None;
        while let Some(e) = cal.pop() {
            let key = (e.time.seconds(), e.id.raw());
            if let Some(p) = prev {
                prop_assert!(key > p, "out of order: {:?} after {:?}", key, p);
            }
            prev = Some(key);
        }
    }

    /// len() always equals inserted - popped - cancelled.
    #[test]
    fn len_is_consistent(ops in proptest::collection::vec(op_strategy(), 0..150)) {
        let mut cal: HeapCalendar<u64> = HeapCalendar::new();
        let mut ids = Vec::new();
        let mut live = 0usize;
        let mut next = 0u64;
        let mut last_popped = 0.0f64;
        for op in &ops {
            match op {
                Op::Insert(t) => {
                    let id = EventId::for_tests(next);
                    ids.push(id);
                    // Honor the engine's contract: never schedule into the past.
                    cal.insert(Event { time: SimTime::new(last_popped + *t), id, payload: next });
                    next += 1;
                    live += 1;
                }
                Op::Cancel(i) => {
                    if !ids.is_empty() {
                        let id = ids[i % ids.len()];
                        if cal.cancel(id) {
                            live -= 1;
                        }
                    }
                }
                Op::Pop => {
                    if let Some(e) = cal.pop() {
                        last_popped = e.time.seconds();
                        live -= 1;
                    }
                }
                Op::Peek => {
                    let _ = cal.peek_time();
                }
            }
            prop_assert_eq!(cal.len(), live);
        }
    }
}
