//! In-flight job state.

use std::collections::VecDeque;

use coalloc_workload::JobSpec;
use desim::{Duration, EventId, SimTime};

/// Identifies a job within one simulation run (its arrival index).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct JobId(pub u64);

/// The queue a job was submitted to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SubmitQueue {
    /// The local queue of cluster `i` (LS: all jobs; LP: single-component
    /// jobs).
    Local(usize),
    /// The global queue (GS: all jobs; LP: multi-component jobs).
    Global,
}

/// Placements of up to this many components are stored inline in the
/// job's state — the paper's systems have at most five clusters and
/// unordered splits cap at four components, so in practice no placement
/// on the hot start path touches the heap.
const INLINE_ASSIGNMENTS: usize = 4;

/// `(cluster, processors)` pairs with inline storage for small
/// placements and a heap spill for wider ones. Equality sees only the
/// logical slice, so the two storage forms compare equal.
#[derive(Clone, Debug)]
enum Assignments {
    Inline { len: u8, buf: [(usize, u32); INLINE_ASSIGNMENTS] },
    Heap(Vec<(usize, u32)>),
}

impl Assignments {
    fn from_slice(pairs: &[(usize, u32)]) -> Self {
        if pairs.len() <= INLINE_ASSIGNMENTS {
            let mut buf = [(0usize, 0u32); INLINE_ASSIGNMENTS];
            buf[..pairs.len()].copy_from_slice(pairs);
            Assignments::Inline { len: pairs.len() as u8, buf }
        } else {
            Assignments::Heap(pairs.to_vec())
        }
    }

    fn from_vec(pairs: Vec<(usize, u32)>) -> Self {
        if pairs.len() <= INLINE_ASSIGNMENTS {
            Assignments::from_slice(&pairs)
        } else {
            Assignments::Heap(pairs)
        }
    }

    fn as_slice(&self) -> &[(usize, u32)] {
        match self {
            Assignments::Inline { len, buf } => &buf[..usize::from(*len)],
            Assignments::Heap(v) => v,
        }
    }
}

impl PartialEq for Assignments {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Assignments {}

/// Where each component of a started job runs: `(cluster, processors)`
/// pairs over *distinct* clusters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Placement {
    assignments: Assignments,
}

impl Placement {
    fn validate(assignments: &[(usize, u32)]) {
        assert!(!assignments.is_empty(), "a placement needs at least one component");
        assert!(assignments.iter().all(|&(_, p)| p > 0), "components are non-empty");
        // Quadratic distinctness scan: placements have at most one
        // component per cluster, so this stays tiny — and allocation-free,
        // which the hot start path relies on (starting a paper-scale job
        // touches no heap memory at all).
        for (i, &(c, _)) in assignments.iter().enumerate() {
            assert!(
                assignments[..i].iter().all(|&(d, _)| d != c),
                "components must go to distinct clusters"
            );
        }
    }

    /// Builds a placement from `(cluster, processors)` pairs.
    ///
    /// # Panics
    /// Panics if two components share a cluster (unordered requests place
    /// components on distinct clusters, §2.3) or any component is empty.
    pub fn new(assignments: Vec<(usize, u32)>) -> Self {
        Self::validate(&assignments);
        Placement { assignments: Assignments::from_vec(assignments) }
    }

    /// Builds a placement from a borrowed slice of pairs — the hot-path
    /// constructor: placements of at most four components (every real
    /// configuration) are stored inline with no heap allocation.
    ///
    /// # Panics
    /// Same validation as [`Placement::new`].
    pub fn from_slice(assignments: &[(usize, u32)]) -> Self {
        Self::validate(assignments);
        Placement { assignments: Assignments::from_slice(assignments) }
    }

    /// Builds a placement *without* the distinct-cluster check, so
    /// audit tests can hand the auditor an invalid placement that the
    /// public constructor would reject.
    #[cfg(test)]
    pub(crate) fn raw(assignments: Vec<(usize, u32)>) -> Self {
        Placement { assignments: Assignments::from_vec(assignments) }
    }

    /// The `(cluster, processors)` pairs.
    pub fn assignments(&self) -> &[(usize, u32)] {
        self.assignments.as_slice()
    }

    /// Total processors across components.
    pub fn total(&self) -> u32 {
        self.assignments.as_slice().iter().map(|&(_, p)| p).sum()
    }
}

/// One job from arrival to departure.
#[derive(Clone, Debug)]
pub struct ActiveJob {
    /// The sampled request and base service time.
    pub spec: JobSpec,
    /// Arrival (submission) time.
    pub arrival: SimTime,
    /// Which queue the job went to.
    pub queue: SubmitQueue,
    /// Assigned processors, set when the job starts.
    pub placement: Option<Placement>,
    /// Start time, set when the job starts.
    pub start: Option<SimTime>,
}

impl ActiveJob {
    /// A freshly arrived job.
    pub fn new(spec: JobSpec, arrival: SimTime, queue: SubmitQueue) -> Self {
        ActiveJob { spec, arrival, queue, placement: None, start: None }
    }

    /// The service time this job will hold its processors for: the base
    /// time, extended by the workload's factor for the number of clusters
    /// it spans (§2.4; see
    /// [`coalloc_workload::Workload::extension_factor`], which grows with
    /// the span when a spread penalty is set).
    ///
    /// Once the job is placed, the *actual* placement decides: a flexible
    /// request that landed in a single cluster does all its communication
    /// locally and is not extended. Before placement (and for the static
    /// request kinds, equivalently) the request's component count is
    /// used.
    pub fn occupancy_in(&self, workload: &coalloc_workload::Workload) -> Duration {
        let span = match &self.placement {
            Some(p) => p.assignments().len(),
            None => self.spec.request.num_components(),
        };
        self.spec.base_service.scaled(workload.extension_factor(span))
    }

    /// Whether the job has started.
    pub fn started(&self) -> bool {
        self.start.is_some()
    }
}

/// A running job's entry in the [`JobTable`]'s running list: when the
/// job leaves, and when backfilling expects it to.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Running {
    /// The running job.
    pub id: JobId,
    /// Its pending departure event. The scheduler that starts a job
    /// cannot know it: until the engine schedules the departure right
    /// after the pass and records it here, it holds an id no event has.
    pub departure: EventId,
    /// When that departure fires.
    pub end: SimTime,
    /// Backfilling's estimate of the job's end, in seconds:
    /// `f64::INFINITY` when the discipline does not backfill (or every
    /// estimate is infinite).
    pub est_end: f64,
}

/// The jobs of one simulation run still in the system, indexed by
/// [`JobId`], and the one registry of which of them run.
///
/// A sliding window from the oldest job not yet [removed](Self::remove)
/// to the newest one: ids stay arrival indices and keep counting, and
/// removing the oldest live job drops every removed slot in front of
/// the next one. Memory is therefore proportional to the arrivals since
/// the oldest live job, not to all arrivals — a job that never starts
/// pins the window, which then grows as an append-only table would.
///
/// Beside the window, a compact list holds one entry per running job
/// (its pending departure and backfilling's estimate of its end), so
/// the few jobs that run are found without walking the queued ones.
/// [`JobTable::mark_started`] appends an entry, and a departure
/// ([`JobTable::remove`]) or a fault kill (`JobTable::interrupt`)
/// swap-removes it: the list is in start order, except that the last
/// entry takes each removed one's place.
#[derive(Debug, Default)]
pub struct JobTable {
    /// Slot `i` holds job `base + i`; `None` once removed.
    jobs: VecDeque<Option<ActiveJob>>,
    /// The id of the first slot.
    base: u64,
    /// One entry per running job.
    running: Vec<Running>,
}

impl JobTable {
    /// An empty table.
    pub fn new() -> Self {
        JobTable::default()
    }

    /// Inserts a job, returning its id: the number of jobs inserted
    /// before it.
    pub fn insert(&mut self, job: ActiveJob) -> JobId {
        let id = JobId(self.base + self.jobs.len() as u64);
        self.jobs.push_back(Some(job));
        id
    }

    /// The window position of `id`, if it is not below the window.
    fn index(&self, id: JobId) -> Option<usize> {
        usize::try_from(id.0.checked_sub(self.base)?).ok()
    }

    /// Immutable access.
    ///
    /// # Panics
    /// Panics if the job was removed or never inserted.
    pub fn get(&self, id: JobId) -> &ActiveJob {
        match self.index(id).and_then(|i| self.jobs.get(i)) {
            Some(Some(job)) => job,
            _ => missing(id),
        }
    }

    /// Mutable access.
    ///
    /// # Panics
    /// Panics if the job was removed or never inserted.
    pub fn get_mut(&mut self, id: JobId) -> &mut ActiveJob {
        match self.index(id).and_then(|i| self.jobs.get_mut(i)) {
            Some(Some(job)) => job,
            _ => missing(id),
        }
    }

    /// Removes a job that left the system and returns it; the window
    /// then starts at the oldest job still present. A running job's
    /// entry leaves the running list with it.
    ///
    /// # Panics
    /// Panics if the job was removed already or never inserted.
    pub fn remove(&mut self, id: JobId) -> ActiveJob {
        let slot = self.index(id).and_then(|i| self.jobs.get_mut(i));
        let job = slot.and_then(Option::take).unwrap_or_else(|| missing(id));
        while let Some(None) = self.jobs.front() {
            self.jobs.pop_front();
            self.base += 1;
        }
        if job.started() {
            self.running.swap_remove(self.running_index(id));
        }
        job
    }

    /// Marks a job started: records its placement and start time, and
    /// appends its entry to the running list with backfilling's
    /// estimate of its end. The departure is the engine's to record
    /// once it schedules the event.
    pub fn mark_started(&mut self, id: JobId, placement: Placement, now: SimTime, est_end: f64) {
        let job = self.get_mut(id);
        debug_assert!(!job.started(), "job started twice");
        debug_assert_eq!(
            placement.total(),
            job.spec.request.total(),
            "placement must cover the whole request"
        );
        job.placement = Some(placement);
        job.start = Some(now);
        self.running.push(Running {
            id,
            departure: EventId::from_raw(u64::MAX),
            end: SimTime::MAX,
            est_end,
        });
    }

    /// Stops a running job that a fault killed: it goes back to
    /// waiting (it stays in the table) and leaves the running list.
    /// Returns the placement it held and when it started.
    ///
    /// # Panics
    /// Panics if the job is not running.
    pub(crate) fn interrupt(&mut self, id: JobId) -> (Placement, SimTime) {
        self.running.swap_remove(self.running_index(id));
        let job = self.get_mut(id);
        let placement = job.placement.take().expect("a running job is placed");
        let start = job.start.take().expect("a running job has started");
        (placement, start)
    }

    /// The running jobs' entries: in start order, except that each
    /// removal moved the last entry into the removed one's place.
    pub(crate) fn running(&self) -> &[Running] {
        &self.running
    }

    /// The running-list entry of `id`.
    ///
    /// # Panics
    /// Panics if the job is not running.
    pub(crate) fn running_entry(&self, id: JobId) -> &Running {
        &self.running[self.running_index(id)]
    }

    /// Mutable access to the running-list entry of `id`.
    ///
    /// # Panics
    /// Panics if the job is not running.
    pub(crate) fn running_entry_mut(&mut self, id: JobId) -> &mut Running {
        let i = self.running_index(id);
        &mut self.running[i]
    }

    /// Where `id`'s entry sits in the running list.
    fn running_index(&self, id: JobId) -> usize {
        self.running.iter().position(|r| r.id == id).unwrap_or_else(|| not_running(id))
    }
}

#[cold]
fn missing(id: JobId) -> ! {
    panic!("job {} is not in the job table: it left the system or never arrived", id.0)
}

#[cold]
fn not_running(id: JobId) -> ! {
    panic!("job {} is not running", id.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use coalloc_workload::JobRequest;

    fn spec(components: Vec<u32>, service: f64) -> JobSpec {
        JobSpec { request: JobRequest::new(components), base_service: Duration::new(service) }
    }

    #[test]
    fn placement_rejects_duplicate_clusters() {
        let ok = Placement::new(vec![(0, 8), (1, 8)]);
        assert_eq!(ok.total(), 16);
        let result = std::panic::catch_unwind(|| Placement::new(vec![(0, 8), (0, 8)]));
        assert!(result.is_err(), "duplicate cluster must panic");
    }

    #[test]
    fn occupancy_extends_multi_jobs() {
        let workload = coalloc_workload::Workload::das(16);
        let single = ActiveJob::new(spec(vec![8], 100.0), SimTime::ZERO, SubmitQueue::Local(0));
        let multi = ActiveJob::new(spec(vec![8, 8], 100.0), SimTime::ZERO, SubmitQueue::Global);
        assert_eq!(single.occupancy_in(&workload).seconds(), 100.0);
        assert_eq!(multi.occupancy_in(&workload).seconds(), 125.0);
    }

    #[test]
    fn occupancy_charges_the_spread_penalty_per_spanned_cluster() {
        // A three-cluster job pays extension_factor(3) = 1.25 + penalty;
        // without a penalty it pays the paper's constant 1.25.
        let mut workload = coalloc_workload::Workload::das(16);
        workload.spread_penalty = 0.05;
        let mut job =
            ActiveJob::new(spec(vec![8, 8, 8], 100.0), SimTime::ZERO, SubmitQueue::Global);
        job.placement = Some(Placement::new(vec![(0, 8), (1, 8), (2, 8)]));
        assert_eq!(job.occupancy_in(&workload).seconds(), 130.0);
        workload.spread_penalty = 0.0;
        assert_eq!(job.occupancy_in(&workload).seconds(), 125.0);
        // The placement, not the request, decides: the same job placed
        // on one cluster is not extended at all.
        job.placement = Some(Placement::new(vec![(0, 24)]));
        assert_eq!(job.occupancy_in(&workload).seconds(), 100.0);
    }

    #[test]
    fn table_insert_and_start() {
        let mut t = JobTable::new();
        let id =
            t.insert(ActiveJob::new(spec(vec![4, 4], 10.0), SimTime::ZERO, SubmitQueue::Global));
        assert_eq!(id, JobId(0));
        assert!(!t.get(id).started());
        t.mark_started(id, Placement::new(vec![(0, 4), (3, 4)]), SimTime::new(5.0), 25.0);
        assert!(t.get(id).started());
        assert_eq!(t.get(id).start, Some(SimTime::new(5.0)));
        assert_eq!((t.running_entry(id).id, t.running_entry(id).est_end), (id, 25.0));
    }

    /// A table of `n` jobs; job `i` has a base service of `10 + i` s.
    fn table_of(n: u64) -> (JobTable, Vec<JobId>) {
        let mut t = JobTable::new();
        let ids = (0..n)
            .map(|i| {
                let s = spec(vec![4], 10.0 + i as f64);
                t.insert(ActiveJob::new(s, SimTime::ZERO, SubmitQueue::Global))
            })
            .collect();
        (t, ids)
    }

    #[test]
    fn removing_out_of_order_keeps_every_other_id_readable() {
        let (mut t, ids) = table_of(6);
        for &gone in &[ids[3], ids[0], ids[5]] {
            assert_eq!(t.remove(gone).spec.base_service.seconds(), 10.0 + gone.0 as f64);
        }
        for &id in &[ids[1], ids[2], ids[4]] {
            assert_eq!(t.get(id).spec.base_service.seconds(), 10.0 + id.0 as f64);
            t.get_mut(id).start = Some(SimTime::new(1.0));
            assert!(t.get(id).started());
        }
    }

    #[test]
    fn the_window_advances_only_past_a_removed_prefix() {
        let (mut t, ids) = table_of(5);
        t.remove(ids[1]);
        t.remove(ids[2]);
        assert_eq!((t.base, t.jobs.len()), (0, 5), "job 0 still pins the window");
        t.remove(ids[0]);
        assert_eq!((t.base, t.jobs.len()), (3, 2), "0–2 dropped, 3 is the oldest live job");
        t.remove(ids[4]);
        assert_eq!((t.base, t.jobs.len()), (3, 2));
        t.remove(ids[3]);
        assert_eq!((t.base, t.jobs.len()), (5, 0), "an empty table holds no slot");
    }

    #[test]
    fn ids_keep_counting_after_removals() {
        let (mut t, ids) = table_of(3);
        for id in ids {
            t.remove(id);
        }
        let next = t.insert(ActiveJob::new(spec(vec![4], 1.0), SimTime::ZERO, SubmitQueue::Global));
        assert_eq!(next, JobId(3));
        assert_eq!(t.get(next).spec.base_service.seconds(), 1.0);
    }

    #[test]
    #[should_panic(expected = "job 1 is not in the job table")]
    fn reading_a_removed_id_panics() {
        let (mut t, ids) = table_of(3);
        t.remove(ids[1]);
        t.get(ids[1]);
    }

    #[test]
    #[should_panic(expected = "job 0 is not in the job table")]
    fn reading_an_id_below_the_window_panics() {
        let (mut t, ids) = table_of(2);
        t.remove(ids[0]);
        t.get(ids[0]);
    }

    #[test]
    #[should_panic(expected = "job 2 is not in the job table")]
    fn removing_twice_panics() {
        let (mut t, ids) = table_of(4);
        t.remove(ids[2]);
        t.remove(ids[2]);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)] // the check is a debug_assert
    fn mismatched_placement_total_debug_panics() {
        let mut t = JobTable::new();
        let id =
            t.insert(ActiveJob::new(spec(vec![4, 4], 10.0), SimTime::ZERO, SubmitQueue::Global));
        t.mark_started(id, Placement::new(vec![(0, 4)]), SimTime::new(1.0), f64::INFINITY);
    }

    /// Starts `id` at t = 1 on cluster 0, estimated to end at `100 + id`.
    fn start(t: &mut JobTable, id: JobId) {
        t.mark_started(id, Placement::new(vec![(0, 4)]), SimTime::new(1.0), 100.0 + id.0 as f64);
    }

    fn running_ids(t: &JobTable) -> Vec<u64> {
        t.running().iter().map(|r| r.id.0).collect()
    }

    #[test]
    fn the_running_list_holds_the_running_jobs_in_start_order_with_swap_removal() {
        let (mut t, ids) = table_of(6);
        for &id in &[ids[3], ids[0], ids[1], ids[4]] {
            start(&mut t, id);
        }
        assert_eq!(running_ids(&t), [3, 0, 1, 4], "start order; queued jobs 2 and 5 are absent");
        t.remove(ids[0]);
        assert_eq!(running_ids(&t), [3, 4, 1], "the last entry takes the removed one's place");
        start(&mut t, ids[5]);
        assert_eq!(running_ids(&t), [3, 4, 1, 5]);
        t.interrupt(ids[3]);
        assert_eq!(running_ids(&t), [5, 4, 1]);
        // Removing a queued job leaves the list alone.
        t.remove(ids[2]);
        assert_eq!(running_ids(&t), [5, 4, 1]);
        let entry = t.running_entry(ids[4]);
        assert_eq!((entry.id, entry.est_end), (ids[4], 104.0));
    }

    #[test]
    fn interrupt_and_remove_each_drop_the_entry() {
        let (mut t, ids) = table_of(3);
        start(&mut t, ids[0]);
        start(&mut t, ids[1]);
        let departure = EventId::from_raw(7);
        *t.running_entry_mut(ids[1]) =
            Running { departure, end: SimTime::new(42.0), ..*t.running_entry(ids[1]) };
        assert_eq!(t.running_entry(ids[1]).departure, departure);
        // A killed job hands back what it held and waits again.
        let (placement, started) = t.interrupt(ids[1]);
        assert_eq!((placement.total(), started), (4, SimTime::new(1.0)));
        assert!(!t.get(ids[1]).started(), "an interrupted job is queued again");
        assert_eq!(running_ids(&t), [0]);
        // It can start again, and a departure removes it for good.
        start(&mut t, ids[1]);
        assert_eq!(running_ids(&t), [0, 1]);
        t.remove(ids[1]);
        assert_eq!(running_ids(&t), [0]);
        // An aborted victim is interrupted, then removed while queued.
        t.interrupt(ids[0]);
        t.remove(ids[0]);
        assert!(t.running().is_empty());
    }

    #[test]
    #[should_panic(expected = "job 1 is not running")]
    fn the_entry_of_a_queued_job_panics() {
        let (mut t, ids) = table_of(2);
        start(&mut t, ids[0]);
        t.running_entry(ids[1]);
    }

    #[test]
    #[should_panic(expected = "job 0 is not running")]
    fn the_entry_of_an_interrupted_job_panics() {
        let (mut t, ids) = table_of(2);
        start(&mut t, ids[0]);
        t.interrupt(ids[0]);
        t.running_entry_mut(ids[0]);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn an_active_job_stays_208_bytes() {
        // Saturated runs hold thousands of queued jobs in the window, so
        // a field that only running jobs need belongs in the running
        // list: 40 more bytes here raised a contended sweep's peak
        // resident memory by a tenth.
        assert_eq!(std::mem::size_of::<ActiveJob>(), 208);
    }
}
