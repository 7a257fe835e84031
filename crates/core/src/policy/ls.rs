//! LS — local schedulers with local queues (§2.5, policy 2).
//!
//! "Each cluster has its own local scheduler with a local queue. All
//! queues receive both single- and multi-component jobs and each local
//! scheduler has global knowledge about the numbers of idle processors.
//! However, single-component jobs are scheduled only on the local
//! cluster. The multi-component jobs are co-allocated over the entire
//! system. When scheduling is performed all enabled queues are repeatedly
//! visited, and in each round at most one job from each queue is started.
//! When the job at the head of a queue does not fit, the queue is
//! disabled until the next job departs from the system. At each job
//! departure the queues are enabled in the same order in which they were
//! disabled."
//!
//! LS's strength (§3.1.1): a job can be chosen from any of the local
//! queues, "which generates a form of backfilling with a window equal to
//! the number of clusters".

use coalloc_workload::{JobSpec, QueueRouting, RequestKind};
use desim::{RngStream, SimTime};

use crate::audit::{PlacementScope, SimObserver};
use crate::job::{ActiveJob, JobId, JobTable, SubmitQueue};
use crate::placement::PlacementRule;
use crate::queue::QueueSet;
use crate::system::MultiCluster;

use super::{FlexEngine, Pass, PolicyOptions, Scheduler};

/// The scope LS places a job under: multi-component (and ordered) jobs
/// are co-allocated system-wide, single-component jobs are confined to
/// the cluster of their queue.
fn ls_scope(job: &ActiveJob, q: usize) -> PlacementScope {
    if job.spec.request.is_multi() || job.spec.request.kind() == RequestKind::Ordered {
        PlacementScope::System
    } else {
        PlacementScope::Cluster(q)
    }
}

/// The LS policy: one local FCFS queue per cluster.
#[derive(Debug)]
pub struct LocalSchedulers {
    queues: QueueSet,
    routing: QueueRouting,
    rng: RngStream,
    flex: FlexEngine,
    /// Enabled queues in visiting order: initially cluster order; queues
    /// drop out when disabled and re-join in disable order at departures.
    visit: Vec<usize>,
    /// Per-round snapshot of `visit`, reused across passes so a round
    /// allocates nothing once its capacity covers the clusters.
    round: Vec<usize>,
}

impl LocalSchedulers {
    /// Builds the policy for `clusters` clusters with the given routing of
    /// submitted jobs to local queues.
    pub fn new(
        clusters: usize,
        routing: QueueRouting,
        rng: RngStream,
        rule: PlacementRule,
    ) -> Self {
        LocalSchedulers::with_options(clusters, routing, rng, rule, PolicyOptions::default())
    }

    /// [`LocalSchedulers::new`] with explicit disposition/discipline
    /// options.
    pub fn with_options(
        clusters: usize,
        routing: QueueRouting,
        rng: RngStream,
        rule: PlacementRule,
        opts: PolicyOptions,
    ) -> Self {
        assert_eq!(routing.queues(), clusters, "routing must cover exactly the local queues");
        LocalSchedulers {
            queues: QueueSet::new(clusters),
            routing,
            rng,
            flex: FlexEngine::new(rule, opts),
            visit: (0..clusters).collect(),
            round: Vec::with_capacity(clusters),
        }
    }
}

impl Scheduler for LocalSchedulers {
    fn name(&self) -> &'static str {
        "LS"
    }

    fn route(&mut self, _spec: &JobSpec) -> SubmitQueue {
        SubmitQueue::Local(self.routing.pick(&mut self.rng))
    }

    fn enqueue(&mut self, id: JobId, queue: SubmitQueue) {
        match queue {
            SubmitQueue::Local(q) => self.queues.queue_mut(q).push(id),
            SubmitQueue::Global => panic!("LS has no global queue"),
        }
    }

    fn on_departure(&mut self) {
        // Disabled queues re-join the visit order in disable order,
        // appended straight into the reused `visit` buffer.
        self.queues.enable_all_into(&mut self.visit);
    }

    fn requeue_front(&mut self, id: JobId, queue: SubmitQueue) {
        match queue {
            SubmitQueue::Local(q) => self.queues.queue_mut(q).push_front(id),
            SubmitQueue::Global => panic!("LS has no global queue"),
        }
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
        // `round` is swapped out of self so the visits can borrow self
        // mutably; its capacity survives the swap (mem::take leaves an
        // unallocated empty Vec behind for the duration of the pass).
        let mut round = std::mem::take(&mut self.round);
        loop {
            let mut progress = false;
            // Snapshot: in each round every currently enabled queue is
            // visited once (at most one start per queue per round).
            round.clear();
            round.extend_from_slice(&self.visit);
            for &q in &round {
                let queue = self.queues.queue_mut(q);
                if !queue.is_enabled() || queue.is_empty() {
                    continue; // disabled earlier in this pass, or idle
                }
                let label = SubmitQueue::Local(q);
                if self.flex.start_head(&mut p, queue, label, |job| ls_scope(job, q)) {
                    progress = true;
                } else {
                    self.queues.disable_observed(q, now, p.obs);
                    self.visit.retain(|&x| x != q);
                }
            }
            if !progress {
                break;
            }
        }
        self.round = round;
        // Within-queue backfilling (EASY/conservative): the visit rounds
        // above already backfill *across* queues ("a window equal to the
        // number of clusters"); the disciplines add the within-queue
        // dimension, scanning past each blocked head under its shadow
        // reservation.
        for q in 0..self.queues.len() {
            let queue = self.queues.queue_mut(q);
            self.flex.backfill(&mut p, queue, SubmitQueue::Local(q), |job| ls_scope(job, q));
        }
    }

    fn queued(&self) -> usize {
        self.queues.total_queued()
    }

    fn num_queues(&self) -> usize {
        self.queues.len()
    }

    fn queue_lengths_into(&self, out: &mut Vec<usize>) {
        out.extend(self.queues.lengths());
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::*;
    use super::*;
    use crate::job::ActiveJob;

    fn setup() -> (LocalSchedulers, MultiCluster, JobTable) {
        let p = LocalSchedulers::new(
            4,
            QueueRouting::balanced(4),
            RngStream::new(99),
            PlacementRule::WorstFit,
        );
        (p, MultiCluster::das_multicluster(), JobTable::new())
    }

    /// Submits a job directly to a chosen local queue (bypassing routing).
    fn submit_to(
        p: &mut LocalSchedulers,
        table: &mut JobTable,
        q: usize,
        components: &[u32],
        now: f64,
    ) -> JobId {
        let s = spec(components);
        let id = table.insert(ActiveJob::new(s, SimTime::new(now), SubmitQueue::Local(q)));
        p.enqueue(id, SubmitQueue::Local(q));
        id
    }

    #[test]
    fn single_component_jobs_stay_local() {
        let (mut p, mut sys, mut table) = setup();
        // A 30-processor job in queue 2 must run on cluster 2 even if
        // other clusters are emptier (they are equally empty here).
        let a = submit_to(&mut p, &mut table, 2, &[30], 0.0);
        let started = pass(&mut p, &mut sys, &mut table, 0.0);
        assert_eq!(started, vec![a]);
        assert_eq!(table.get(a).placement.as_ref().expect("started").assignments(), &[(2, 30)]);
        // A second local job in queue 2 that does not fit there waits,
        // even though clusters 0/1/3 are empty.
        let b = submit_to(&mut p, &mut table, 2, &[10], 1.0);
        let started = pass(&mut p, &mut sys, &mut table, 1.0);
        assert!(started.is_empty(), "job {b:?} is restricted to its full local cluster");
        assert_eq!(p.queued(), 1);
    }

    #[test]
    fn multi_component_jobs_spread_over_all_clusters() {
        let (mut p, mut sys, mut table) = setup();
        let a = submit_to(&mut p, &mut table, 0, &[16, 16, 16], 0.0);
        pass(&mut p, &mut sys, &mut table, 0.0);
        let placement = table.get(a).placement.as_ref().expect("started");
        assert_eq!(placement.assignments().len(), 3);
        assert_eq!(sys.total_busy(), 48);
    }

    #[test]
    fn backfilling_across_queues() {
        let (mut p, mut sys, mut table) = setup();
        // Occupy one processor so a whole-system job cannot start.
        submit_to(&mut p, &mut table, 3, &[1], 0.0);
        pass(&mut p, &mut sys, &mut table, 0.0);
        // Queue 0's head needs the whole system and blocks queue 0 only;
        // jobs in other queues still start (the backfilling window).
        submit_to(&mut p, &mut table, 0, &[32, 32, 32, 32], 1.0);
        let small1 = submit_to(&mut p, &mut table, 1, &[8], 1.0);
        let small2 = submit_to(&mut p, &mut table, 2, &[8], 1.0);
        let started = pass(&mut p, &mut sys, &mut table, 1.0);
        assert!(started.contains(&small1) && started.contains(&small2));
        assert_eq!(started.len(), 2, "big job blocked, others proceed");
    }

    #[test]
    fn disabled_queue_waits_for_departure() {
        let (mut p, mut sys, mut table) = setup();
        let filler = submit_to(&mut p, &mut table, 0, &[32], 0.0);
        pass(&mut p, &mut sys, &mut table, 0.0);
        // Head of queue 0 does not fit locally -> queue 0 disabled.
        let waiting = submit_to(&mut p, &mut table, 0, &[16], 1.0);
        assert!(pass(&mut p, &mut sys, &mut table, 1.0).is_empty());
        // Another arrival to queue 0 cannot start (queue disabled), even
        // a tiny one that would fit: FCFS within the queue.
        submit_to(&mut p, &mut table, 0, &[1], 2.0);
        assert!(pass(&mut p, &mut sys, &mut table, 2.0).is_empty());
        assert_eq!(p.queued(), 2);
        // Departure re-enables; the waiting job starts, then the tiny one.
        depart(&mut p, &mut sys, &table, filler);
        let started = pass(&mut p, &mut sys, &mut table, 3.0);
        assert_eq!(started.len(), 2);
        assert_eq!(started[0], waiting);
    }

    #[test]
    fn multiple_rounds_drain_queues() {
        let (mut p, mut sys, mut table) = setup();
        // Three jobs in one queue, all fitting: one starts per round, all
        // start within one schedule() call.
        for _ in 0..3 {
            submit_to(&mut p, &mut table, 1, &[8], 0.0);
        }
        let started = pass(&mut p, &mut sys, &mut table, 0.0);
        assert_eq!(started.len(), 3);
        assert_eq!(sys.idle(1), 32 - 24);
    }

    #[test]
    fn routing_respects_weights() {
        let mut p = LocalSchedulers::new(
            4,
            QueueRouting::unbalanced(4),
            RngStream::new(5),
            PlacementRule::WorstFit,
        );
        let mut to_first = 0;
        let n = 20_000;
        for _ in 0..n {
            match p.route(&spec(&[1])) {
                SubmitQueue::Local(0) => to_first += 1,
                SubmitQueue::Local(_) => {}
                SubmitQueue::Global => panic!("LS routes locally"),
            }
        }
        let f = f64::from(to_first) / f64::from(n);
        assert!((f - 0.4).abs() < 0.02, "first-queue share {f}");
    }

    /// Fills all four clusters from the four local queues and returns the
    /// filler ids.
    fn fill_system(
        p: &mut LocalSchedulers,
        sys: &mut MultiCluster,
        table: &mut JobTable,
    ) -> Vec<JobId> {
        let fillers: Vec<JobId> = (0..4).map(|q| submit_to(p, table, q, &[32], 0.0)).collect();
        let started = pass(p, sys, table, 0.0);
        assert_eq!(started.len(), 4);
        fillers
    }

    #[test]
    fn reenable_order_decides_contention() {
        // Two queues hold competing (32,32) jobs; after two departures
        // only one fits. The queue disabled *first* is re-enabled (and
        // visited) first, so it wins.
        let (mut p, mut sys, mut table) = setup();
        let fillers = fill_system(&mut p, &mut sys, &mut table);
        // Disable q1 first, then q2 (each pass hits a non-fitting head).
        let m1 = submit_to(&mut p, &mut table, 1, &[32, 32], 1.0);
        assert!(pass(&mut p, &mut sys, &mut table, 1.0).is_empty());
        let m2 = submit_to(&mut p, &mut table, 2, &[32, 32], 2.0);
        assert!(pass(&mut p, &mut sys, &mut table, 2.0).is_empty());
        // Free clusters 0 and 1; one (32,32) fits now.
        depart(&mut p, &mut sys, &table, fillers[0]);
        depart(&mut p, &mut sys, &table, fillers[1]);
        let started = pass(&mut p, &mut sys, &mut table, 3.0);
        assert_eq!(started, vec![m1], "the first-disabled queue wins");
        assert_eq!(p.queued(), 1);
        let _ = m2;
    }

    #[test]
    fn reenable_order_decides_contention_reversed() {
        // Mirror of the above with the disable order flipped: q2 first.
        let (mut p, mut sys, mut table) = setup();
        let fillers = fill_system(&mut p, &mut sys, &mut table);
        let m2 = submit_to(&mut p, &mut table, 2, &[32, 32], 1.0);
        assert!(pass(&mut p, &mut sys, &mut table, 1.0).is_empty());
        let m1 = submit_to(&mut p, &mut table, 1, &[32, 32], 2.0);
        assert!(pass(&mut p, &mut sys, &mut table, 2.0).is_empty());
        depart(&mut p, &mut sys, &table, fillers[0]);
        depart(&mut p, &mut sys, &table, fillers[1]);
        let started = pass(&mut p, &mut sys, &mut table, 3.0);
        assert_eq!(started, vec![m2], "disable order reversed, winner flips");
        let _ = m1;
    }

    #[test]
    fn never_disabled_queues_are_visited_before_reenabled_ones() {
        // Queue 3 was never disabled; it is visited before a re-enabled
        // queue in the same pass and takes the contested processors.
        let (mut p, mut sys, mut table) = setup();
        let fillers = fill_system(&mut p, &mut sys, &mut table);
        // Disable q0 (head (32,32) does not fit).
        let m0 = submit_to(&mut p, &mut table, 0, &[32, 32], 1.0);
        assert!(pass(&mut p, &mut sys, &mut table, 1.0).is_empty());
        // Queue 3 receives a competing (32,32) but is NOT disabled (no
        // pass runs while it would block... it must queue behind nothing).
        let m3 = submit_to(&mut p, &mut table, 3, &[32, 32], 2.0);
        // Two departures open exactly one (32,32) slot and re-enable q0.
        depart(&mut p, &mut sys, &table, fillers[1]);
        depart(&mut p, &mut sys, &table, fillers[2]);
        let started = pass(&mut p, &mut sys, &mut table, 3.0);
        // Visit order: q3 (still in the base order, never disabled)
        // precedes the re-enabled q0.
        assert_eq!(started, vec![m3]);
        let _ = m0;
    }

    #[test]
    fn requeue_front_precedes_older_waiters() {
        let (mut p, mut sys, mut table) = setup();
        // a runs on cluster 1; b waits behind it in the same queue.
        let a = submit_to(&mut p, &mut table, 1, &[30], 0.0);
        pass(&mut p, &mut sys, &mut table, 0.0);
        let b = submit_to(&mut p, &mut table, 1, &[30], 1.0);
        assert!(pass(&mut p, &mut sys, &mut table, 1.0).is_empty());
        // a is killed and re-queued at the front: it starts before b.
        sys.release(table.get(a).placement.as_ref().unwrap());
        table.get_mut(a).placement = None;
        table.get_mut(a).start = None;
        p.requeue_front(a, SubmitQueue::Local(1));
        p.on_departure();
        let started = pass(&mut p, &mut sys, &mut table, 2.0);
        assert_eq!(started, vec![a], "the victim regains the head");
        let _ = b;
    }

    #[test]
    fn queue_lengths_per_cluster() {
        let (mut p, mut sys, mut table) = setup();
        submit_to(&mut p, &mut table, 0, &[32], 0.0);
        pass(&mut p, &mut sys, &mut table, 0.0);
        submit_to(&mut p, &mut table, 0, &[32], 0.0);
        submit_to(&mut p, &mut table, 3, &[32], 0.0);
        pass(&mut p, &mut sys, &mut table, 0.0);
        assert_eq!(p.queue_lengths(), vec![1, 0, 0, 0]);
    }
}
