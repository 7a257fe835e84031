//! GS — the global scheduler (§2.5, policy 1), and SC.
//!
//! "The system has one global scheduler with one global queue, for both
//! single- and multi-component jobs. All jobs are submitted to the global
//! queue. The global scheduler knows at any moment the number of idle
//! processors in each cluster and based on this information chooses the
//! clusters for each job."
//!
//! FCFS: only the head of the queue may start; when it does not fit, the
//! queue is disabled until the next departure. Arrivals cannot increase
//! the number of idle processors, so re-checking the head before a
//! departure is a guaranteed miss, and the latch skips it.
//!
//! SC, the single-cluster FCFS baseline ("for comparison, we consider
//! the single-cluster case where there are only single-component jobs
//! and we use FCFS as scheduling policy", §2.5), *is* this scheduler run
//! over a one-cluster system (e.g.
//! [`crate::system::MultiCluster::das_single_cluster`]) fed with total
//! requests ([`coalloc_workload::Workload::single_cluster`]): choosing a
//! cluster is trivial, moldability is vacuous, and EASY and conservative
//! backfilling apply exactly as under GS.

use coalloc_workload::JobSpec;
use desim::SimTime;

use crate::audit::{PlacementScope, SimObserver};
use crate::job::{JobId, JobTable, Placement, SubmitQueue};
use crate::placement::PlacementRule;
use crate::queue::JobQueue;
use crate::system::MultiCluster;

use super::{FlexEngine, Pass, PolicyOptions, Scheduler};

/// The GS policy: one global FCFS queue over the whole system (and SC on
/// a one-cluster system).
#[derive(Debug)]
pub struct GlobalScheduler {
    queue: JobQueue,
    flex: FlexEngine,
}

impl GlobalScheduler {
    /// Builds the policy with the given placement rule (the paper uses
    /// Worst Fit) and the default options — rigid jobs, strict FCFS.
    pub fn new(rule: PlacementRule) -> Self {
        GlobalScheduler::with_options(rule, PolicyOptions::default())
    }

    /// [`GlobalScheduler::new`] with explicit disposition/discipline
    /// options.
    pub fn with_options(rule: PlacementRule, opts: PolicyOptions) -> Self {
        GlobalScheduler { queue: JobQueue::new(), flex: FlexEngine::new(rule, opts) }
    }
}

impl Scheduler for GlobalScheduler {
    fn name(&self) -> &'static str {
        "GS"
    }

    fn route(&mut self, _spec: &JobSpec) -> SubmitQueue {
        SubmitQueue::Global
    }

    fn enqueue(&mut self, id: JobId, queue: SubmitQueue) {
        debug_assert_eq!(queue, SubmitQueue::Global, "GS has only the global queue");
        self.queue.push(id);
    }

    fn on_departure(&mut self) {
        self.queue.enable();
    }

    fn requeue_front(&mut self, id: JobId, queue: SubmitQueue) {
        debug_assert_eq!(queue, SubmitQueue::Global, "GS has only the global queue");
        self.queue.push_front(id);
    }

    fn job_departed(&mut self, id: JobId) {
        self.flex.note_departed(id);
    }

    fn job_resized(&mut self, now: SimTime, id: JobId, new_placement: &Placement) {
        self.flex.note_resized(now, id, new_placement);
    }

    fn schedule_into(
        &mut self,
        now: SimTime,
        system: &mut MultiCluster,
        table: &mut JobTable,
        obs: &mut dyn SimObserver,
        started: &mut Vec<JobId>,
    ) {
        let mut p = Pass { now, system, table, obs, started };
        // GS chooses clusters for every component, including
        // single-component jobs (it has "the freedom to choose the
        // clusters for the single-component jobs", §3.1.1).
        let scope = |_: &_| PlacementScope::System;
        // A disabled queue's head failed to fit since the last
        // departure, so the head loop is skipped; a backfilling
        // discipline still scans behind the (still-reserved) head, since
        // newly arrived jobs may fit around it.
        if self.queue.is_enabled() {
            while self.flex.start_head(&mut p, &mut self.queue, SubmitQueue::Global, scope) {}
            if !self.queue.is_empty() {
                self.queue.disable_observed(now, SubmitQueue::Global, p.obs);
            }
        }
        self.flex.backfill(&mut p, &mut self.queue, SubmitQueue::Global, scope);
    }

    fn queued(&self) -> usize {
        self.queue.len()
    }

    fn num_queues(&self) -> usize {
        1
    }

    fn queue_lengths_into(&self, out: &mut Vec<usize>) {
        out.push(self.queue.len());
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::*;
    use super::*;
    use crate::job::JobTable;

    fn setup() -> (GlobalScheduler, MultiCluster, JobTable) {
        (
            GlobalScheduler::new(PlacementRule::WorstFit),
            MultiCluster::das_multicluster(),
            JobTable::new(),
        )
    }

    #[test]
    fn starts_fitting_jobs_in_fcfs_order() {
        let (mut p, mut sys, mut table) = setup();
        let a = submit(&mut p, &mut table, &[16, 16], 0.0);
        let b = submit(&mut p, &mut table, &[8], 0.0);
        let started = pass(&mut p, &mut sys, &mut table, 0.0);
        assert_eq!(started, vec![a, b]);
        assert_eq!(sys.total_busy(), 40);
        assert_eq!(p.queued(), 0);
    }

    #[test]
    fn head_of_line_blocking() {
        let (mut p, mut sys, mut table) = setup();
        // Fill the system so a (32,32,32,32) job blocks.
        let filler = submit(&mut p, &mut table, &[32], 0.0);
        pass(&mut p, &mut sys, &mut table, 0.0);
        let big = submit(&mut p, &mut table, &[32, 32, 32, 32], 1.0);
        let small = submit(&mut p, &mut table, &[1], 1.0);
        let started = pass(&mut p, &mut sys, &mut table, 1.0);
        assert!(started.is_empty(), "FCFS: the small job must wait behind the big one");
        assert_eq!(p.queued(), 2);
        // After the filler departs the big job fills the whole system;
        // the small job stays blocked behind zero idle processors.
        depart(&mut p, &mut sys, &table, filler);
        let started = pass(&mut p, &mut sys, &mut table, 2.0);
        assert_eq!(started, vec![big]);
        assert_eq!(sys.total_busy(), 128);
        assert_eq!(p.queued(), 1);
        // When the big job departs, the small one finally runs.
        depart(&mut p, &mut sys, &table, big);
        let started = pass(&mut p, &mut sys, &mut table, 3.0);
        assert_eq!(started, vec![small]);
        assert_eq!(sys.total_busy(), 1);
    }

    #[test]
    fn single_component_jobs_go_anywhere() {
        let (mut p, mut sys, mut table) = setup();
        // Load cluster 0 heavily; a single-component job must pick another.
        submit(&mut p, &mut table, &[30], 0.0);
        pass(&mut p, &mut sys, &mut table, 0.0);
        submit(&mut p, &mut table, &[30], 0.0);
        let started = pass(&mut p, &mut sys, &mut table, 0.0);
        assert_eq!(started.len(), 1);
        assert_eq!(sys.total_busy(), 60);
        // Worst Fit put them on different clusters.
        let idle = sys.idle_per_cluster();
        assert_eq!(idle.iter().filter(|&&x| x == 2).count(), 2, "{idle:?}");
    }

    #[test]
    fn requeue_front_restores_the_head() {
        let (mut p, mut sys, mut table) = setup();
        let a = submit(&mut p, &mut table, &[32, 32], 0.0);
        let b = submit(&mut p, &mut table, &[8], 0.0);
        let started = pass(&mut p, &mut sys, &mut table, 0.0);
        assert_eq!(started, vec![a, b]);
        // a is killed by a fault and re-queued at the front: it must
        // start again before any newer job.
        sys.release(table.get(a).placement.as_ref().unwrap());
        let c = submit(&mut p, &mut table, &[4], 1.0);
        table.get_mut(a).placement = None;
        table.get_mut(a).start = None;
        p.requeue_front(a, SubmitQueue::Global);
        p.on_departure();
        let started = pass(&mut p, &mut sys, &mut table, 1.0);
        assert_eq!(started, vec![a, c], "the victim keeps its FCFS age");
    }

    #[test]
    fn queue_length_reporting() {
        let (mut p, mut sys, mut table) = setup();
        submit(&mut p, &mut table, &[32, 32, 32, 32], 0.0);
        pass(&mut p, &mut sys, &mut table, 0.0);
        submit(&mut p, &mut table, &[32, 32, 32, 32], 0.0);
        submit(&mut p, &mut table, &[1], 0.0);
        pass(&mut p, &mut sys, &mut table, 0.0);
        assert_eq!(p.queue_lengths(), vec![2]);
        assert_eq!(p.name(), "GS");
    }

    #[test]
    fn sc_is_fcfs_on_one_cluster() {
        let mut p = GlobalScheduler::new(PlacementRule::WorstFit);
        let mut sys = MultiCluster::das_single_cluster();
        let mut table = JobTable::new();
        let a = submit(&mut p, &mut table, &[100], 0.0);
        let b = submit(&mut p, &mut table, &[100], 0.0); // blocks: only 28 idle
        let c = submit(&mut p, &mut table, &[10], 0.0); // waits behind b
        let started = pass(&mut p, &mut sys, &mut table, 0.0);
        assert_eq!(started, vec![a]);
        assert_eq!(p.queued(), 2);
        depart(&mut p, &mut sys, &table, a);
        let started = pass(&mut p, &mut sys, &mut table, 1.0);
        assert_eq!(started, vec![b, c], "b first (FCFS), then c fits too");
        assert_eq!(sys.total_busy(), 110);
    }

    #[test]
    fn sc_whole_system_job_drains_the_cluster() {
        // §3.2: "When a job requiring 128 processors is at the top of the
        // queue, SC waits for the entire system to become empty."
        let mut p = GlobalScheduler::new(PlacementRule::WorstFit);
        let mut sys = MultiCluster::das_single_cluster();
        let mut table = JobTable::new();
        let a = submit(&mut p, &mut table, &[64], 0.0);
        pass(&mut p, &mut sys, &mut table, 0.0);
        let big = submit(&mut p, &mut table, &[128], 1.0);
        submit(&mut p, &mut table, &[1], 1.0);
        assert!(pass(&mut p, &mut sys, &mut table, 1.0).is_empty());
        depart(&mut p, &mut sys, &table, a);
        let started = pass(&mut p, &mut sys, &mut table, 2.0);
        assert_eq!(started, vec![big]);
        assert_eq!(sys.total_busy(), 128);
    }
}
