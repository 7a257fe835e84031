//! The scheduling policies of §2.5: GS, LS, LP — plus SC, the
//! single-cluster FCFS baseline (GS on a one-cluster system).
//!
//! All schedulers are FCFS within a queue: only the head of a queue may
//! start. A queue whose head does not fit is disabled until the next
//! departure.

mod flex;
mod gb;
mod gs;
mod lp;
mod ls;

pub use flex::PolicyOptions;
pub use gb::GlobalBackfill;
pub use gs::GlobalScheduler;
pub use lp::LocalPriority;
pub use ls::LocalSchedulers;

pub(crate) use flex::{estimated_occupancy, replay_shadow, FlexEngine, Pass};

use coalloc_workload::{JobSpec, QueueRouting};
use desim::{RngStream, SimTime};

use crate::audit::{NullObserver, SimObserver};
use crate::job::{JobId, JobTable, SubmitQueue};
use crate::placement::PlacementRule;
use crate::system::{MultiCluster, SystemSpec};

/// A co-allocation scheduling policy.
///
/// The simulation loop drives a scheduler through three entry points:
/// [`Scheduler::route`] + [`Scheduler::enqueue`] at each arrival,
/// [`Scheduler::on_departure`] at each departure, and
/// [`Scheduler::schedule_into`] after both.
///
/// # The allocation-free contract
///
/// The scheduling pass runs after *every* event, so its entry points
/// must not touch the heap in steady state:
///
/// * [`Scheduler::schedule_into`] appends started jobs to a
///   **caller-owned scratch buffer**. The caller clears it before the
///   pass and owns its capacity across passes; the scheduler only
///   appends. Any internal per-pass working set (e.g. LS's round
///   snapshot) must likewise live in a reused buffer owned by the
///   scheduler.
/// * [`Scheduler::queued`] never walks a queue: policies sum one O(1)
///   length per queue (one per cluster at most, plus a global queue) —
///   the loop reads it after every event for backlog tracking.
/// * [`Scheduler::on_departure`] re-enables queues in place; it must
///   not return or build collections.
///
/// The allocating conveniences ([`Scheduler::schedule`],
/// [`Scheduler::schedule_observed`], [`Scheduler::queue_lengths`]) are
/// provided for tests and one-off diagnostics only.
pub trait Scheduler: Send {
    /// The policy's short name (GS/LS/LP/SC).
    fn name(&self) -> &'static str;

    /// Decides which queue a new job goes to (may consume routing
    /// randomness).
    fn route(&mut self, spec: &JobSpec) -> SubmitQueue;

    /// Appends a job (already recorded in the table with its queue) to
    /// that queue.
    fn enqueue(&mut self, id: JobId, queue: SubmitQueue);

    /// A job departed: re-enable queues according to the policy's rules.
    fn on_departure(&mut self);

    /// A specific job left the system (completion or fault kill). Only
    /// the backfilling disciplines care — they track running jobs'
    /// estimated ends for the reservation replay — so the default is a
    /// no-op. Called in addition to (before) [`Scheduler::on_departure`]
    /// for completions.
    fn job_departed(&mut self, id: JobId) {
        let _ = id;
    }

    /// A running malleable job was resized to `new_placement` (see
    /// [`crate::fault::ResizePolicy`]); backfilling schedulers rescale
    /// their estimate of its end. Default no-op.
    fn job_resized(&mut self, now: SimTime, id: JobId, new_placement: &crate::job::Placement) {
        let _ = (now, id, new_placement);
    }

    /// Re-queues a job killed by a cluster failure at the *head* of its
    /// queue, preserving its FCFS age (the `RequeueFront` interrupt
    /// policy). The default falls back to [`Scheduler::enqueue`] — a
    /// plain re-queue at the tail — so schedulers without an
    /// age-preserving re-entry point still work, documented as losing
    /// the victim's position.
    fn requeue_front(&mut self, id: JobId, queue: SubmitQueue) {
        self.enqueue(id, queue);
    }

    /// Starts every job the policy can start now, announcing each
    /// placement decision (and each queue disable) to `obs`. Placements
    /// are applied to `system` and recorded in `table`; the started ids
    /// are appended to `started` — the caller-owned scratch buffer of
    /// the allocation-free contract (cleared by the caller, never by
    /// the scheduler) — so the simulation loop can schedule their
    /// departures.
    ///
    /// Observers are passive: a scheduler must make identical decisions
    /// whatever `obs` is (see [`crate::audit`]).
    fn schedule_into(
        &mut self,
        now: SimTime,
        system: &mut MultiCluster,
        table: &mut JobTable,
        obs: &mut dyn SimObserver,
        started: &mut Vec<JobId>,
    );

    /// [`Scheduler::schedule_into`] returning a fresh vector (tests and
    /// external harnesses; allocates, so not for the event loop).
    fn schedule_observed(
        &mut self,
        now: SimTime,
        system: &mut MultiCluster,
        table: &mut JobTable,
        obs: &mut dyn SimObserver,
    ) -> Vec<JobId> {
        let mut started = Vec::new();
        self.schedule_into(now, system, table, obs, &mut started);
        started
    }

    /// [`Scheduler::schedule_observed`] without an observer (the
    /// pre-audit entry point; unit tests and external harnesses use
    /// this).
    fn schedule(
        &mut self,
        now: SimTime,
        system: &mut MultiCluster,
        table: &mut JobTable,
    ) -> Vec<JobId> {
        self.schedule_observed(now, system, table, &mut NullObserver)
    }

    /// Number of jobs currently waiting in all queues, summed from the
    /// queues' lengths without walking them — see the allocation-free
    /// contract; always equals the sum of [`Scheduler::queue_lengths`].
    fn queued(&self) -> usize;

    /// Number of queues this policy schedules from (local queues first,
    /// then the global queue if any) — the length
    /// [`Scheduler::queue_lengths_into`] writes.
    fn num_queues(&self) -> usize;

    /// Appends the current length of every queue to `out`, for
    /// per-queue diagnostics (local queues first, then the global queue
    /// if any).
    fn queue_lengths_into(&self, out: &mut Vec<usize>);

    /// [`Scheduler::queue_lengths_into`] returning a fresh vector
    /// (diagnostics; allocates).
    fn queue_lengths(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.num_queues());
        self.queue_lengths_into(&mut out);
        out
    }
}

/// Which policy to build; the unit of comparison in every figure.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum PolicyKind {
    /// One global queue + one global scheduler for all jobs.
    Gs,
    /// Per-cluster local queues; single-component jobs stay local,
    /// multi-component jobs are co-allocated system-wide.
    Ls,
    /// Local queues for single-component jobs with priority, a global
    /// queue for multi-component jobs.
    Lp,
    /// Single-cluster FCFS on total requests (the comparison baseline).
    Sc,
    /// GS with aggressive backfilling (extension; not in the paper).
    Gb,
}

impl PolicyKind {
    /// The paper's label for this policy.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Gs => "GS",
            PolicyKind::Ls => "LS",
            PolicyKind::Lp => "LP",
            PolicyKind::Sc => "SC",
            PolicyKind::Gb => "GB",
        }
    }

    /// Whether the policy uses local queues (and therefore a routing
    /// distribution).
    pub fn has_local_queues(self) -> bool {
        matches!(self, PolicyKind::Ls | PolicyKind::Lp)
    }

    /// Builds the scheduler for the given system with the default
    /// options (rigid jobs, strict FCFS), which reproduce the paper's
    /// model exactly. `routing` is used by LS (all jobs) and LP
    /// (single-component jobs) and must have one weight per cluster of
    /// `system`; `rng` drives routing decisions; `rule` is the placement
    /// rule (the paper uses Worst Fit).
    pub fn build(
        self,
        system: &SystemSpec,
        routing: QueueRouting,
        rng: RngStream,
        rule: PlacementRule,
    ) -> Box<dyn Scheduler> {
        let clusters = system.num_clusters();
        match self {
            PolicyKind::Gs | PolicyKind::Sc => Box::new(GlobalScheduler::new(rule)),
            PolicyKind::Ls => Box::new(LocalSchedulers::new(clusters, routing, rng, rule)),
            PolicyKind::Lp => Box::new(LocalPriority::new(clusters, routing, rng, rule)),
            PolicyKind::Gb => Box::new(GlobalBackfill::new(rule)),
        }
    }
}

impl core::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared helpers for policy unit tests.

    use coalloc_workload::{JobRequest, JobSpec};
    use desim::{Duration, SimTime};

    use crate::job::{ActiveJob, JobId, JobTable};
    use crate::system::MultiCluster;

    use super::Scheduler;

    /// Builds a job spec with the given components and a 100 s service.
    pub fn spec(components: &[u32]) -> JobSpec {
        JobSpec {
            request: JobRequest::new(components.to_vec()),
            base_service: Duration::new(100.0),
        }
    }

    /// Submits a job through the full route/insert/enqueue path.
    pub fn submit(
        policy: &mut dyn Scheduler,
        table: &mut JobTable,
        components: &[u32],
        now: f64,
    ) -> JobId {
        let s = spec(components);
        let q = policy.route(&s);
        let id = table.insert(ActiveJob::new(s, SimTime::new(now), q));
        policy.enqueue(id, q);
        id
    }

    /// Runs one scheduling pass at t=`now`.
    pub fn pass(
        policy: &mut dyn Scheduler,
        system: &mut MultiCluster,
        table: &mut JobTable,
        now: f64,
    ) -> Vec<JobId> {
        policy.schedule(SimTime::new(now), system, table)
    }

    /// Departs a started job: releases processors and notifies the policy.
    pub fn depart(
        policy: &mut dyn Scheduler,
        system: &mut MultiCluster,
        table: &JobTable,
        id: JobId,
    ) {
        let placement = table.get(id).placement.clone().expect("job started");
        system.release(&placement);
        policy.on_departure();
    }
}
