//! GB — GS with aggressive backfilling (an extension).
//!
//! The paper attributes LS's advantage to "a form of backfilling with a
//! window equal to the number of clusters" (§3.1.1). GB makes that
//! mechanism explicit on the GS substrate: one global queue, but when
//! the head does not fit, the scheduler scans past it and starts, in
//! queue order, every job that does fit (aggressive backfilling,
//! without reservations). Comparing GS, GB and LS separates what the
//! paper's local queues buy from what backfilling itself buys.
//!
//! No-starvation caveat: without reservations a steady stream of small
//! jobs can starve a large head job — the classic trade-off this
//! variant exists to exhibit.

use coalloc_workload::JobSpec;
use desim::SimTime;

use crate::audit::{PlacementScope, SimObserver};
use crate::job::{JobId, JobTable, SubmitQueue};
use crate::placement::PlacementRule;
use crate::queue::JobQueue;
use crate::system::MultiCluster;

use super::{FlexEngine, Pass, PolicyOptions, Scheduler};

/// The GB policy: a global queue with aggressive (no-reservation)
/// backfilling.
///
/// Under the `Easy`/`Conservative` disciplines GB trades its
/// aggressiveness for the same reservation-bounded scan as GS: the head
/// gets a shadow-time reservation and only estimated-short jobs may
/// pass it — the no-starvation caveat above then no longer applies.
/// Unlike GS, GB has no disable latch: it offers the head on every pass.
#[derive(Debug)]
pub struct GlobalBackfill {
    queue: JobQueue,
    flex: FlexEngine,
}

impl GlobalBackfill {
    /// Builds the policy with the given placement rule and the default
    /// options (rigid jobs, aggressive FCFS-order backfilling).
    pub fn new(rule: PlacementRule) -> Self {
        GlobalBackfill::with_options(rule, PolicyOptions::default())
    }

    /// [`GlobalBackfill::new`] with explicit disposition/discipline
    /// options.
    pub fn with_options(rule: PlacementRule, opts: PolicyOptions) -> Self {
        GlobalBackfill { queue: JobQueue::new(), flex: FlexEngine::new(rule, opts) }
    }
}

impl Scheduler for GlobalBackfill {
    fn name(&self) -> &'static str {
        "GB"
    }

    fn route(&mut self, _spec: &JobSpec) -> SubmitQueue {
        SubmitQueue::Global
    }

    fn enqueue(&mut self, id: JobId, queue: SubmitQueue) {
        debug_assert_eq!(queue, SubmitQueue::Global, "GB has only the global queue");
        self.queue.push(id);
    }

    fn on_departure(&mut self) {
        // Nothing to re-enable: GB has no disable latch.
    }

    fn requeue_front(&mut self, id: JobId, queue: SubmitQueue) {
        debug_assert_eq!(queue, SubmitQueue::Global, "GB has only the global queue");
        self.queue.push_front(id);
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
        let scope = |_: &_| PlacementScope::System;
        if self.flex.backfills() {
            while self.flex.start_head(&mut p, &mut self.queue, SubmitQueue::Global, scope) {}
            self.flex.backfill(&mut p, &mut self.queue, SubmitQueue::Global, scope);
        } else {
            // The paper-era pass: start every job that fits, in queue
            // order, without reservations.
            self.flex.scan(&mut p, &mut self.queue, SubmitQueue::Global, scope, 0, None);
        }
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
    use coalloc_workload::{JobDisposition, JobRequest};
    use desim::Duration;
    use proptest::prelude::*;

    use super::super::testutil::*;
    use super::*;
    use crate::audit::NullObserver;
    use crate::job::{ActiveJob, Placement};

    fn setup() -> (GlobalBackfill, MultiCluster, JobTable) {
        (
            GlobalBackfill::new(PlacementRule::WorstFit),
            MultiCluster::das_multicluster(),
            JobTable::new(),
        )
    }

    #[test]
    fn backfills_past_a_blocked_head() {
        let (mut p, mut sys, mut table) = setup();
        let filler = submit(&mut p, &mut table, &[1], 0.0);
        pass(&mut p, &mut sys, &mut table, 0.0);
        let big = submit(&mut p, &mut table, &[32, 32, 32, 32], 1.0);
        let small = submit(&mut p, &mut table, &[8], 1.0);
        let started = pass(&mut p, &mut sys, &mut table, 1.0);
        // GS would start nothing here; GB starts the small job past the
        // blocked whole-system job.
        assert_eq!(started, vec![small]);
        assert_eq!(p.queued(), 1);
        let _ = (filler, big);
    }

    #[test]
    fn prefers_queue_order_among_fitting_jobs() {
        let (mut p, mut sys, mut table) = setup();
        submit(&mut p, &mut table, &[31], 0.0);
        pass(&mut p, &mut sys, &mut table, 0.0);
        // Three candidates, all fitting: started in FIFO order.
        let a = submit(&mut p, &mut table, &[8], 1.0);
        let b = submit(&mut p, &mut table, &[8], 1.0);
        let c = submit(&mut p, &mut table, &[8], 1.0);
        let started = pass(&mut p, &mut sys, &mut table, 1.0);
        assert_eq!(started, vec![a, b, c]);
    }

    #[test]
    fn starvation_is_possible_without_reservation() {
        let (mut p, mut sys, mut table) = setup();
        // Keep one processor of one cluster busy forever.
        submit(&mut p, &mut table, &[1], 0.0);
        pass(&mut p, &mut sys, &mut table, 0.0);
        let big = submit(&mut p, &mut table, &[32, 32, 32, 32], 1.0);
        // A stream of small jobs keeps starting; the big job never does.
        for i in 0..5 {
            let small = submit(&mut p, &mut table, &[4], 2.0 + f64::from(i));
            let started = pass(&mut p, &mut sys, &mut table, 2.0 + f64::from(i));
            assert_eq!(started, vec![small]);
        }
        assert!(!table.get(big).started(), "the whole-system job is starved");
    }

    #[test]
    fn requeue_front_goes_ahead_of_waiting_jobs() {
        let (mut p, mut sys, mut table) = setup();
        let a = submit(&mut p, &mut table, &[8], 0.0);
        pass(&mut p, &mut sys, &mut table, 0.0);
        let b = submit(&mut p, &mut table, &[8], 1.0);
        sys.release(table.get(a).placement.as_ref().unwrap());
        table.get_mut(a).placement = None;
        table.get_mut(a).start = None;
        p.requeue_front(a, SubmitQueue::Global);
        let started = pass(&mut p, &mut sys, &mut table, 1.0);
        assert_eq!(started, vec![a, b], "the victim scans first");
    }

    #[test]
    fn name_and_counters() {
        let (mut p, mut sys, mut table) = setup();
        assert_eq!(p.name(), "GB");
        submit(&mut p, &mut table, &[32, 32, 32, 32], 0.0);
        pass(&mut p, &mut sys, &mut table, 0.0);
        assert_eq!(p.queue_lengths(), vec![0]);
    }

    /// The restart-from-front loop GB ran before its single forward
    /// scan: start the *first* job in queue order that fits, then start
    /// over from the head. A one-job queue per attempt turns
    /// `start_head` into "try this job".
    fn restart_from_front(flex: &mut FlexEngine, p: &mut Pass<'_>, queue: &mut JobQueue) {
        'outer: loop {
            for pos in 0..queue.len() {
                let mut one = JobQueue::new();
                one.push(queue.get(pos).expect("pos < len"));
                if flex.start_head(p, &mut one, SubmitQueue::Global, |_| PlacementScope::System) {
                    queue.remove(pos);
                    continue 'outer;
                }
            }
            break;
        }
    }

    /// A request drawn for up to five clusters: its structure (0
    /// unordered, 1 ordered, 2 flexible, 3 total), component sizes, and
    /// a number that sets a flexible total and the ordered targets.
    type RawRequest = (u8, Vec<u32>, u32);

    /// Cuts a [`RawRequest`] down to a `clusters`-cluster system.
    fn request(raw: &RawRequest, clusters: usize) -> JobRequest {
        let (kind, sizes, n) = raw;
        let sizes = sizes[..sizes.len().min(clusters)].to_vec();
        match kind {
            0 => JobRequest::new(sizes),
            1 => {
                let targets = (0..sizes.len()).map(|i| (i + *n as usize) % clusters).collect();
                JobRequest::ordered(sizes, targets)
            }
            2 => JobRequest::flexible(*n, 16, clusters),
            _ => JobRequest::total_request(sizes[0]),
        }
    }

    /// Cluster capacities, the busy processors of each, and a queue.
    fn scenario() -> impl Strategy<Value = (Vec<u32>, Vec<u32>, Vec<JobRequest>)> {
        let raw = (0u8..4, prop::collection::vec(1u32..=40, 1..=5), 1u32..=100);
        (
            2usize..=5,
            prop::collection::vec((8u32..=48, 0.0f64..=1.0), 5),
            prop::collection::vec(raw, 1..12),
        )
            .prop_map(|(clusters, cells, raws)| {
                let caps = cells[..clusters].iter().map(|&(c, _)| c).collect();
                let busy =
                    cells[..clusters].iter().map(|&(c, f)| (f64::from(c) * f) as u32).collect();
                let queue = raws.iter().map(|raw| request(raw, clusters)).collect();
                (caps, busy, queue)
            })
    }

    /// A system with `busy` processors taken and a table of `requests`.
    fn load(caps: &[u32], busy: &[u32], requests: &[JobRequest]) -> (MultiCluster, JobTable) {
        let mut system = MultiCluster::new(caps);
        let taken: Vec<(usize, u32)> =
            busy.iter().enumerate().filter(|(_, &b)| b > 0).map(|(c, &b)| (c, b)).collect();
        if !taken.is_empty() {
            system.apply(&Placement::new(taken));
        }
        let mut table = JobTable::new();
        for request in requests {
            let spec = JobSpec { request: request.clone(), base_service: Duration::new(100.0) };
            table.insert(ActiveJob::new(spec, SimTime::ZERO, SubmitQueue::Global));
        }
        (system, table)
    }

    proptest! {
        #[test]
        fn one_forward_scan_starts_what_restarting_from_the_front_starts(
            case in scenario(),
            rule in prop_oneof![
                Just(PlacementRule::WorstFit),
                Just(PlacementRule::BestFit),
                Just(PlacementRule::FirstFit)
            ],
            disposition in prop_oneof![Just(JobDisposition::Rigid), Just(JobDisposition::Moldable)],
        ) {
            let (caps, busy, requests) = case;
            let opts = PolicyOptions { disposition, ..PolicyOptions::default() };
            let ids: Vec<JobId> = (0..requests.len() as u64).map(JobId).collect();

            let (mut sys_scan, mut table_scan) = load(&caps, &busy, &requests);
            let mut gb = GlobalBackfill::with_options(rule, opts.clone());
            for &id in &ids {
                gb.enqueue(id, SubmitQueue::Global);
            }
            let scanned = gb.schedule(SimTime::ZERO, &mut sys_scan, &mut table_scan);

            let (mut sys_restart, mut table_restart) = load(&caps, &busy, &requests);
            let mut queue = JobQueue::new();
            for &id in &ids {
                queue.push(id);
            }
            let mut restarted = Vec::new();
            let mut p = Pass {
                now: SimTime::ZERO,
                system: &mut sys_restart,
                table: &mut table_restart,
                obs: &mut NullObserver,
                started: &mut restarted,
            };
            restart_from_front(&mut FlexEngine::new(rule, opts), &mut p, &mut queue);

            prop_assert_eq!(&scanned, &restarted);
            prop_assert_eq!(sys_scan.idle_per_cluster(), sys_restart.idle_per_cluster());
            for id in scanned {
                let (a, b) = (table_scan.get(id), table_restart.get(id));
                prop_assert_eq!(&a.placement, &b.placement);
                prop_assert_eq!(&a.spec.request, &b.spec.request);
            }
        }
    }
}
