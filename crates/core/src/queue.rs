//! FCFS queues with the paper's enable/disable bookkeeping (§2.5).
//!
//! A queue whose head job does not fit is *disabled* until the next job
//! departs from the system; at each departure, disabled queues are
//! re-enabled *in the order in which they were disabled*.

use std::collections::VecDeque;

use desim::SimTime;

use crate::audit::SimObserver;
use crate::job::{JobId, SubmitQueue};

/// The order in which waiting jobs may be started (every policy's
/// queues accept any of these; the paper's experiments are all FCFS).
///
/// Both backfilling variants need runtime estimates: a job's submitted
/// [`coalloc_workload::JobRequest::estimate`] when present, otherwise a
/// configured multiplier on its base service time.
#[derive(
    Clone, Copy, Debug, Default, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum QueueDiscipline {
    /// Strict first-come first-served: only the head may start (§2.5).
    #[default]
    Fcfs,
    /// EASY backfilling (Lifka '95): the head gets a reservation at the
    /// earliest time enough processors free up; any later job may jump
    /// ahead if it fits now *and* is estimated to finish strictly before
    /// that reservation.
    Easy,
    /// Conservative backfilling: a backfilled job must not delay *any*
    /// earlier-queued job's reservation, not just the head's.
    Conservative,
}

impl QueueDiscipline {
    /// Parses a discipline name as written on a command line.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "fcfs" => Some(QueueDiscipline::Fcfs),
            "easy" => Some(QueueDiscipline::Easy),
            "conservative" | "cons" => Some(QueueDiscipline::Conservative),
            _ => None,
        }
    }

    /// The canonical lowercase label (inverse of [`QueueDiscipline::parse`]).
    pub fn label(self) -> &'static str {
        match self {
            QueueDiscipline::Fcfs => "fcfs",
            QueueDiscipline::Easy => "easy",
            QueueDiscipline::Conservative => "conservative",
        }
    }

    /// Whether this discipline may start jobs other than the head.
    pub fn backfills(self) -> bool {
        self != QueueDiscipline::Fcfs
    }
}

impl core::fmt::Display for QueueDiscipline {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for QueueDiscipline {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        QueueDiscipline::parse(s)
            .ok_or_else(|| format!("unknown queue discipline `{s}` (fcfs|easy|conservative)"))
    }
}

/// A FIFO queue of waiting jobs plus an enabled flag.
#[derive(Clone, Debug, Default)]
pub struct JobQueue {
    items: VecDeque<JobId>,
    enabled: bool,
}

impl JobQueue {
    /// An empty, enabled queue.
    pub fn new() -> Self {
        JobQueue { items: VecDeque::new(), enabled: true }
    }

    /// Appends a job.
    pub fn push(&mut self, id: JobId) {
        self.items.push_back(id);
    }

    /// Prepends a job — the `RequeueFront` interrupt policy's re-entry
    /// point: a job killed by a cluster failure keeps its FCFS age by
    /// going back to the head of its queue.
    pub fn push_front(&mut self, id: JobId) {
        self.items.push_front(id);
    }

    /// The job at the head (the only one FCFS may start).
    pub fn head(&self) -> Option<JobId> {
        self.items.front().copied()
    }

    /// Removes and returns the head job.
    pub fn pop(&mut self) -> Option<JobId> {
        self.items.pop_front()
    }

    /// The job at position `i` (0 = head), if any.
    pub fn get(&self, i: usize) -> Option<JobId> {
        self.items.get(i).copied()
    }

    /// Removes and returns the job at position `i` — a scan's mid-queue
    /// extraction (backfilling, and GB's pass; a head step only pops).
    pub fn remove(&mut self, i: usize) -> Option<JobId> {
        self.items.remove(i)
    }

    /// Number of waiting jobs.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether no jobs wait here.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether the scheduler may currently look at this queue.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Disables the queue (its head did not fit).
    pub fn disable(&mut self) {
        self.enabled = false;
    }

    /// Re-enables the queue (a job departed).
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// [`JobQueue::disable`], announcing the transition to the observer
    /// (only when the queue was actually enabled, so repeated disables
    /// emit one event). `label` names this queue in the event stream.
    pub fn disable_observed(
        &mut self,
        now: SimTime,
        label: SubmitQueue,
        obs: &mut dyn SimObserver,
    ) {
        if self.enabled {
            obs.on_queue_disabled(now, label);
        }
        self.disable();
    }
}

/// A set of queues plus the disable-order bookkeeping the paper's LS and
/// LP policies require.
///
/// Jobs enter and leave through [`QueueSet::queue_mut`]; a queue is
/// disabled through the set, so the set records the disable order.
#[derive(Clone, Debug, Default)]
pub struct QueueSet {
    queues: Vec<JobQueue>,
    /// Indices of disabled queues, in the order they were disabled.
    disabled_order: Vec<usize>,
}

impl QueueSet {
    /// `n` empty, enabled queues.
    pub fn new(n: usize) -> Self {
        assert!(n > 0);
        QueueSet { queues: (0..n).map(|_| JobQueue::new()).collect(), disabled_order: Vec::new() }
    }

    /// Number of queues.
    pub fn len(&self) -> usize {
        self.queues.len()
    }

    /// Whether the set holds no queues (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.queues.is_empty()
    }

    /// Access one queue.
    pub fn queue(&self, i: usize) -> &JobQueue {
        &self.queues[i]
    }

    /// Mutable access to one queue, to push, pop or start its jobs.
    pub fn queue_mut(&mut self, i: usize) -> &mut JobQueue {
        &mut self.queues[i]
    }

    /// Disables queue `i`, recording its position in the disable order.
    pub fn disable(&mut self, i: usize) {
        if self.queues[i].is_enabled() {
            self.queues[i].disable();
            self.disabled_order.push(i);
        }
    }

    /// [`QueueSet::disable`], announcing the transition to the observer
    /// (only when queue `i` was actually enabled).
    pub fn disable_observed(&mut self, i: usize, now: SimTime, obs: &mut dyn SimObserver) {
        if self.queues[i].is_enabled() {
            obs.on_queue_disabled(now, SubmitQueue::Local(i));
        }
        self.disable(i);
    }

    /// Re-enables every disabled queue in the order it was disabled
    /// (called at job departures). Callers that need the re-enable order
    /// use [`QueueSet::enable_all_into`]; this variant discards it
    /// without allocating.
    pub fn enable_all(&mut self) {
        for &i in &self.disabled_order {
            self.queues[i].enable();
        }
        self.disabled_order.clear();
    }

    /// [`QueueSet::enable_all`], appending the re-enable order to `out`
    /// (the caller-owned buffer pattern: no allocation once `out` has
    /// capacity).
    pub fn enable_all_into(&mut self, out: &mut Vec<usize>) {
        for &i in &self.disabled_order {
            self.queues[i].enable();
            out.push(i);
        }
        self.disabled_order.clear();
    }

    /// Every queue's length, in queue order.
    pub fn lengths(&self) -> impl Iterator<Item = usize> + '_ {
        self.queues.iter().map(JobQueue::len)
    }

    /// Total jobs waiting across all queues: a sum of one O(1) length
    /// per queue (one per cluster).
    pub fn total_queued(&self) -> usize {
        self.lengths().sum()
    }

    /// Whether at least one queue is empty (LP's global-queue gate).
    pub fn any_empty(&self) -> bool {
        self.queues.iter().any(JobQueue::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Indices of the set's enabled queues, ascending.
    fn enabled(s: &QueueSet) -> Vec<usize> {
        (0..s.queues.len()).filter(|&i| s.queues[i].is_enabled()).collect()
    }

    #[test]
    fn fifo_order() {
        let mut q = JobQueue::new();
        q.push(JobId(1));
        q.push(JobId(2));
        assert_eq!(q.head(), Some(JobId(1)));
        assert_eq!(q.pop(), Some(JobId(1)));
        assert_eq!(q.pop(), Some(JobId(2)));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn enable_disable_flag() {
        let mut q = JobQueue::new();
        assert!(q.is_enabled());
        q.disable();
        assert!(!q.is_enabled());
        q.enable();
        assert!(q.is_enabled());
    }

    #[test]
    fn queue_set_disable_order_preserved() {
        let mut s = QueueSet::new(4);
        s.disable(2);
        s.disable(0);
        s.disable(3);
        assert_eq!(enabled(&s), vec![1]);
        let mut order = Vec::new();
        s.enable_all_into(&mut order);
        assert_eq!(order, vec![2, 0, 3], "re-enabled in disable order");
        assert_eq!(enabled(&s), vec![0, 1, 2, 3]);
        order.clear();
        s.enable_all_into(&mut order);
        assert!(order.is_empty(), "nothing left disabled");
    }

    #[test]
    fn double_disable_recorded_once() {
        let mut s = QueueSet::new(2);
        s.disable(1);
        s.disable(1);
        let mut order = Vec::new();
        s.enable_all_into(&mut order);
        assert_eq!(order, vec![1]);
    }

    #[test]
    fn enable_all_without_order() {
        let mut s = QueueSet::new(3);
        s.disable(2);
        s.disable(0);
        s.enable_all();
        assert_eq!(enabled(&s), vec![0, 1, 2]);
        let mut order = Vec::new();
        s.enable_all_into(&mut order);
        assert!(order.is_empty(), "enable_all drained the disable order");
    }

    #[test]
    fn push_front_takes_the_head() {
        let mut q = JobQueue::new();
        q.push(JobId(1));
        q.push(JobId(2));
        q.push_front(JobId(9));
        assert_eq!(q.head(), Some(JobId(9)));
        assert_eq!(q.pop(), Some(JobId(9)));
        assert_eq!(q.pop(), Some(JobId(1)));
    }

    #[test]
    fn queue_set_counters() {
        let mut s = QueueSet::new(3);
        s.queue_mut(0).push(JobId(1));
        s.queue_mut(0).push(JobId(2));
        s.queue_mut(2).push(JobId(3));
        assert_eq!(s.total_queued(), 3);
        assert!(s.any_empty(), "queue 1 is empty");
        s.queue_mut(1).push_front(JobId(4));
        assert!(!s.any_empty());
        assert_eq!(s.len(), 3);
        assert_eq!(s.queue_mut(0).pop(), Some(JobId(1)));
        assert_eq!(s.queue_mut(1).pop(), Some(JobId(4)));
        assert_eq!(s.queue_mut(1).pop(), None);
        assert_eq!(s.lengths().collect::<Vec<_>>(), vec![1, 0, 1]);
        assert_eq!(s.total_queued(), 2);
    }
}
