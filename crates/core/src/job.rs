//! In-flight job state.

use coalloc_workload::JobSpec;
use desim::{Duration, SimTime};

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

/// The table of all jobs seen by one simulation run, indexed by [`JobId`].
#[derive(Debug, Default)]
pub struct JobTable {
    jobs: Vec<ActiveJob>,
}

impl JobTable {
    /// An empty table.
    pub fn new() -> Self {
        JobTable { jobs: Vec::new() }
    }

    /// An empty table with room for `cap` jobs.
    pub fn with_capacity(cap: usize) -> Self {
        JobTable { jobs: Vec::with_capacity(cap) }
    }

    /// Inserts a job, returning its id.
    pub fn insert(&mut self, job: ActiveJob) -> JobId {
        let id = JobId(self.jobs.len() as u64);
        self.jobs.push(job);
        id
    }

    /// Immutable access.
    pub fn get(&self, id: JobId) -> &ActiveJob {
        &self.jobs[id.0 as usize]
    }

    /// Mutable access.
    pub fn get_mut(&mut self, id: JobId) -> &mut ActiveJob {
        &mut self.jobs[id.0 as usize]
    }

    /// Number of jobs ever inserted.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether no jobs have been inserted.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Marks a job started: records its placement and start time.
    pub fn mark_started(&mut self, id: JobId, placement: Placement, now: SimTime) {
        let job = self.get_mut(id);
        debug_assert!(!job.started(), "job started twice");
        debug_assert_eq!(
            placement.total(),
            job.spec.request.total(),
            "placement must cover the whole request"
        );
        job.placement = Some(placement);
        job.start = Some(now);
    }
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
        t.mark_started(id, Placement::new(vec![(0, 4), (3, 4)]), SimTime::new(5.0));
        assert!(t.get(id).started());
        assert_eq!(t.get(id).start, Some(SimTime::new(5.0)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)] // the check is a debug_assert
    fn mismatched_placement_total_debug_panics() {
        let mut t = JobTable::new();
        let id =
            t.insert(ActiveJob::new(spec(vec![4, 4], 10.0), SimTime::ZERO, SubmitQueue::Global));
        t.mark_started(id, Placement::new(vec![(0, 4)]), SimTime::new(1.0));
    }
}
