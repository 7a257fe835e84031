//! The simulation driver.
//!
//! [`Simulation`] owns the clock and the future-event list. User code
//! drives it in a pull loop:
//!
//! ```
//! use desim::{Simulation, Duration};
//!
//! #[derive(Debug)]
//! enum Ev { Ping(u32) }
//!
//! let mut sim = Simulation::new();
//! sim.schedule_in(Duration::new(1.0), Ev::Ping(0));
//! while let Some(ev) = sim.step() {
//!     match ev.payload {
//!         Ev::Ping(n) if n < 3 => {
//!             sim.schedule_in(Duration::new(1.0), Ev::Ping(n + 1));
//!         }
//!         _ => {}
//!     }
//! }
//! assert_eq!(sim.now().seconds(), 4.0);
//! ```
//!
//! Pulling events (instead of registering callbacks) keeps the borrow
//! structure trivial: the handler has full `&mut` access to both the
//! simulation and the model state.

use crate::calendar::{EventCalendar, HeapCalendar};
use crate::event::{Event, EventId};
use crate::time::{Duration, SimTime};

/// A discrete-event simulation: a clock plus a pending-event calendar,
/// generic over the payload type `E`. The calendar is a
/// [`HeapCalendar`].
pub struct Simulation<E> {
    now: SimTime,
    next_id: u64,
    calendar: HeapCalendar<E>,
}

impl<E> Default for Simulation<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Simulation<E> {
    /// Creates a simulation at time zero.
    pub fn new() -> Self {
        Simulation { now: SimTime::ZERO, next_id: 0, calendar: HeapCalendar::new() }
    }

    /// The current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events still pending.
    pub fn events_pending(&self) -> usize {
        self.calendar.len()
    }

    /// Schedules `payload` at the absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) -> EventId {
        assert!(at >= self.now, "cannot schedule into the past: {at:?} < {:?}", self.now);
        let id = EventId(self.next_id);
        self.next_id += 1;
        self.calendar.insert(Event { time: at, id, payload });
        id
    }

    /// Schedules `payload` after a delay from the current time.
    pub fn schedule_in(&mut self, delay: Duration, payload: E) -> EventId {
        let at = self.now + delay;
        self.schedule_at(at, payload)
    }

    /// Cancels a pending event. Returns `true` if the event had not yet
    /// fired or been cancelled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.calendar.cancel(id)
    }

    /// Removes and returns the next event, advancing the clock to its time.
    /// Returns `None` when the calendar is empty.
    pub fn step(&mut self) -> Option<Event<E>> {
        let ev = self.calendar.pop()?;
        debug_assert!(ev.time >= self.now, "event calendar returned a past event");
        self.now = ev.time;
        Some(ev)
    }

    /// The time of the next pending event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.calendar.peek_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Ev {
        A,
        B,
    }

    #[test]
    fn clock_starts_at_zero() {
        let sim: Simulation<Ev> = Simulation::new();
        assert_eq!(sim.now(), SimTime::ZERO);
        assert_eq!(sim.events_pending(), 0);
    }

    #[test]
    fn step_advances_clock_in_order() {
        let mut sim = Simulation::new();
        sim.schedule_at(SimTime::new(5.0), Ev::B);
        sim.schedule_at(SimTime::new(2.0), Ev::A);
        let e1 = sim.step().expect("pending event");
        assert_eq!(e1.payload, Ev::A);
        assert_eq!(sim.now(), SimTime::new(2.0));
        let e2 = sim.step().expect("pending event");
        assert_eq!(e2.payload, Ev::B);
        assert_eq!(sim.now(), SimTime::new(5.0));
        assert!(sim.step().is_none());
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut sim = Simulation::new();
        sim.schedule_at(SimTime::new(3.0), Ev::A);
        sim.step();
        sim.schedule_in(Duration::new(2.0), Ev::B);
        let e = sim.step().expect("pending event");
        assert_eq!(e.time, SimTime::new(5.0));
    }

    #[test]
    fn same_time_events_fifo() {
        let mut sim = Simulation::new();
        sim.schedule_at(SimTime::new(1.0), 0u32);
        sim.schedule_at(SimTime::new(1.0), 1u32);
        sim.schedule_at(sim.now(), 2u32); // at t=0, fires first
        let order: Vec<u32> = std::iter::from_fn(|| sim.step().map(|e| e.payload)).collect();
        assert_eq!(order, vec![2, 0, 1]);
    }

    #[test]
    fn cancellation() {
        let mut sim = Simulation::new();
        let id = sim.schedule_at(SimTime::new(1.0), Ev::A);
        sim.schedule_at(SimTime::new(2.0), Ev::B);
        assert!(sim.cancel(id));
        assert!(!sim.cancel(id));
        assert_eq!(sim.events_pending(), 1);
        assert_eq!(sim.step().map(|e| e.payload), Some(Ev::B));
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_the_past_panics() {
        let mut sim = Simulation::new();
        sim.schedule_at(SimTime::new(5.0), Ev::A);
        sim.step();
        sim.schedule_at(SimTime::new(1.0), Ev::B);
    }

    #[test]
    fn peek_does_not_advance() {
        let mut sim = Simulation::new();
        sim.schedule_at(SimTime::new(4.0), Ev::A);
        assert_eq!(sim.peek_time(), Some(SimTime::new(4.0)));
        assert_eq!(sim.now(), SimTime::ZERO);
    }
}
