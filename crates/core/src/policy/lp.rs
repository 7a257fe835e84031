//! LP — local queues with priority over a global queue (§2.5, policy 3).
//!
//! "Each cluster has its own local scheduler with a local queue and all
//! the single-component jobs are distributed among the local queues, and
//! there is a global scheduler with a global queue where all the
//! multi-component jobs are placed. The local schedulers have priority:
//! the global scheduler can schedule jobs only when at least one local
//! queue is empty. When a job departs, if one or more of the local queues
//! are empty both the global queue and the local queues are enabled. If
//! no local queue is empty only the local queues are enabled and
//! repeatedly visited; the global queue is enabled and added to the list
//! of queues which are visited when at least one of the local queues gets
//! empty. When both the global queue and the local queues are enabled at
//! job departures, they are always enabled starting with the global
//! queue."

use coalloc_workload::{JobSpec, QueueRouting, RequestKind};
use desim::{RngStream, SimTime};

use crate::audit::{PlacementScope, SimObserver};
use crate::job::{ActiveJob, JobId, JobTable, Placement, SubmitQueue};
use crate::placement::PlacementRule;
use crate::queue::{JobQueue, QueueSet};
use crate::system::MultiCluster;

use super::{FlexEngine, Pass, PolicyOptions, Scheduler};

/// The scope LP places a locally queued job under: ordered requests name
/// their cluster themselves, everything else is confined to the queue's
/// own cluster.
fn lp_local_scope(job: &ActiveJob, q: usize) -> PlacementScope {
    if job.spec.request.kind() == RequestKind::Ordered {
        PlacementScope::System
    } else {
        PlacementScope::Cluster(q)
    }
}

/// The LP policy: per-cluster local queues for single-component jobs, one
/// low-priority global queue for multi-component jobs.
#[derive(Debug)]
pub struct LocalPriority {
    queues: QueueSet,
    routing: QueueRouting,
    rng: RngStream,
    global: JobQueue,
    flex: FlexEngine,
}

impl LocalPriority {
    /// Builds the policy for `clusters` clusters; `routing` spreads the
    /// single-component jobs over the local queues.
    pub fn new(
        clusters: usize,
        routing: QueueRouting,
        rng: RngStream,
        rule: PlacementRule,
    ) -> Self {
        LocalPriority::with_options(clusters, routing, rng, rule, PolicyOptions::default())
    }

    /// [`LocalPriority::new`] with explicit disposition/discipline
    /// options.
    pub fn with_options(
        clusters: usize,
        routing: QueueRouting,
        rng: RngStream,
        rule: PlacementRule,
        opts: PolicyOptions,
    ) -> Self {
        assert_eq!(routing.queues(), clusters, "routing must cover exactly the local queues");
        LocalPriority {
            queues: QueueSet::new(clusters),
            routing,
            rng,
            global: JobQueue::new(),
            flex: FlexEngine::new(rule, opts),
        }
    }
}

impl Scheduler for LocalPriority {
    fn name(&self) -> &'static str {
        "LP"
    }

    fn route(&mut self, spec: &JobSpec) -> SubmitQueue {
        if spec.request.is_multi() {
            SubmitQueue::Global
        } else if spec.request.kind() == RequestKind::Ordered {
            // An ordered single-component job belongs to the queue of the
            // cluster it names.
            SubmitQueue::Local(spec.request.targets().expect("ordered")[0])
        } else {
            SubmitQueue::Local(self.routing.pick(&mut self.rng))
        }
    }

    fn enqueue(&mut self, id: JobId, queue: SubmitQueue) {
        match queue {
            SubmitQueue::Global => self.global.push(id),
            SubmitQueue::Local(q) => self.queues.queue_mut(q).push(id),
        }
    }

    fn on_departure(&mut self) {
        // Locals are always re-enabled; the global queue only when some
        // local queue is empty ("starting with the global queue" is
        // realized by visiting it first in every scheduling round).
        self.queues.enable_all();
        if self.queues.any_empty() {
            self.global.enable();
        }
    }

    fn requeue_front(&mut self, id: JobId, queue: SubmitQueue) {
        match queue {
            SubmitQueue::Global => self.global.push_front(id),
            SubmitQueue::Local(q) => self.queues.queue_mut(q).push_front(id),
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
        let global_scope = |_: &_| PlacementScope::System;
        loop {
            let mut progress = false;
            // The global queue is visited first whenever it may
            // schedule: it is enabled and at least one local queue is
            // empty.
            if self.global.is_enabled() && self.queues.any_empty() {
                if self.flex.start_head(&mut p, &mut self.global, SubmitQueue::Global, global_scope)
                {
                    progress = true;
                } else if !self.global.is_empty() {
                    self.global.disable_observed(now, SubmitQueue::Global, p.obs);
                }
            }
            for q in 0..self.queues.len() {
                let queue = self.queues.queue_mut(q);
                if !queue.is_enabled() || queue.is_empty() {
                    continue;
                }
                let label = SubmitQueue::Local(q);
                if self.flex.start_head(&mut p, queue, label, |job| lp_local_scope(job, q)) {
                    progress = true;
                    // "The global queue is enabled … when at least one of
                    // the local queues gets empty."
                    if self.queues.queue(q).is_empty() {
                        self.global.enable();
                    }
                } else {
                    self.queues.disable_observed(q, now, p.obs);
                }
            }
            if !progress {
                break;
            }
        }
        // Backfilling (EASY/conservative). Backfilled global jobs are
        // still global jobs, so "the global scheduler can schedule jobs
        // only when at least one local queue is empty" applies to them
        // too.
        if self.queues.any_empty() {
            self.flex.backfill(&mut p, &mut self.global, SubmitQueue::Global, global_scope);
        }
        for q in 0..self.queues.len() {
            let queue = self.queues.queue_mut(q);
            self.flex.backfill(&mut p, queue, SubmitQueue::Local(q), |job| lp_local_scope(job, q));
        }
    }

    fn job_departed(&mut self, id: JobId) {
        self.flex.note_departed(id);
    }

    fn job_resized(&mut self, now: SimTime, id: JobId, new_placement: &Placement) {
        self.flex.note_resized(now, id, new_placement);
    }

    fn queued(&self) -> usize {
        self.queues.total_queued() + self.global.len()
    }

    fn num_queues(&self) -> usize {
        self.queues.len() + 1
    }

    fn queue_lengths_into(&self, out: &mut Vec<usize>) {
        out.extend(self.queues.lengths());
        out.push(self.global.len());
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::*;
    use super::*;
    use crate::job::ActiveJob;

    fn setup() -> (LocalPriority, MultiCluster, JobTable) {
        let p = LocalPriority::new(
            4,
            QueueRouting::balanced(4),
            RngStream::new(7),
            PlacementRule::WorstFit,
        );
        (p, MultiCluster::das_multicluster(), JobTable::new())
    }

    fn submit_local(
        p: &mut LocalPriority,
        table: &mut JobTable,
        q: usize,
        size: u32,
        now: f64,
    ) -> JobId {
        let s = spec(&[size]);
        let id = table.insert(ActiveJob::new(s, SimTime::new(now), SubmitQueue::Local(q)));
        p.enqueue(id, SubmitQueue::Local(q));
        id
    }

    fn submit_global(
        p: &mut LocalPriority,
        table: &mut JobTable,
        components: &[u32],
        now: f64,
    ) -> JobId {
        let s = spec(components);
        let id = table.insert(ActiveJob::new(s, SimTime::new(now), SubmitQueue::Global));
        p.enqueue(id, SubmitQueue::Global);
        id
    }

    #[test]
    fn routing_splits_by_component_count() {
        let (mut p, _, _) = setup();
        assert!(matches!(p.route(&spec(&[16])), SubmitQueue::Local(_)));
        assert_eq!(p.route(&spec(&[16, 16])), SubmitQueue::Global);
    }

    #[test]
    fn global_runs_when_a_local_queue_is_empty() {
        let (mut p, mut sys, mut table) = setup();
        // All local queues empty -> gate open.
        let g = submit_global(&mut p, &mut table, &[16, 16], 0.0);
        let started = pass(&mut p, &mut sys, &mut table, 0.0);
        assert_eq!(started, vec![g]);
    }

    #[test]
    fn global_blocked_while_no_local_queue_is_empty() {
        let (mut p, mut sys, mut table) = setup();
        // Fill every cluster and leave one waiting job in every local
        // queue, so no local queue is empty.
        let mut fillers = Vec::new();
        for q in 0..4 {
            fillers.push(submit_local(&mut p, &mut table, q, 32, 0.0));
        }
        pass(&mut p, &mut sys, &mut table, 0.0);
        for q in 0..4 {
            submit_local(&mut p, &mut table, q, 1, 0.0);
        }
        assert!(pass(&mut p, &mut sys, &mut table, 0.0).is_empty());
        // A small global job arrives; no local queue is empty, so the
        // gate is closed.
        let g = submit_global(&mut p, &mut table, &[1, 1], 1.0);
        depart(&mut p, &mut sys, &table, fillers[0]);
        let started = pass(&mut p, &mut sys, &mut table, 2.0);
        // Only cluster 0's local job starts; the global job needs idle
        // processors in *two* distinct clusters and all others are full —
        // and by then the gate closes again anyway.
        assert_eq!(started.len(), 1);
        assert!(!started.contains(&g));
        // A second departure frees cluster 1: its local job starts, and
        // with two clusters partly idle and queue 0 empty the gate is
        // open, so the global job is co-allocated.
        depart(&mut p, &mut sys, &table, fillers[1]);
        let started = pass(&mut p, &mut sys, &mut table, 3.0);
        assert_eq!(started.len(), 2);
        assert!(started.contains(&g));
        assert_eq!(started[0], g, "the global queue is visited first");
    }

    #[test]
    fn gate_opens_mid_pass_when_local_queue_drains() {
        let (mut p, mut sys, mut table) = setup();
        // One waiting local job per queue; system empty.
        for q in 0..4 {
            submit_local(&mut p, &mut table, q, 8, 0.0);
        }
        let g = submit_global(&mut p, &mut table, &[8, 8], 0.0);
        let started = pass(&mut p, &mut sys, &mut table, 0.0);
        // Locals start (draining their queues), the gate opens, and the
        // global job starts in a later round of the same pass.
        assert_eq!(started.len(), 5);
        assert_eq!(*started.last().expect("five started"), g);
    }

    #[test]
    fn global_disabled_until_departure_after_misfit() {
        let (mut p, mut sys, mut table) = setup();
        let filler = submit_local(&mut p, &mut table, 0, 32, 0.0);
        pass(&mut p, &mut sys, &mut table, 0.0);
        // Global head needs 32 in every cluster: does not fit -> disabled.
        let big = submit_global(&mut p, &mut table, &[32, 32, 32, 32], 1.0);
        assert!(pass(&mut p, &mut sys, &mut table, 1.0).is_empty());
        // Even though the gate is open (locals empty), the global queue is
        // disabled, so a newly fitting small global job behind it waits.
        submit_global(&mut p, &mut table, &[4, 4], 2.0);
        assert!(pass(&mut p, &mut sys, &mut table, 2.0).is_empty());
        depart(&mut p, &mut sys, &table, filler);
        let started = pass(&mut p, &mut sys, &mut table, 3.0);
        assert_eq!(started[0], big, "FCFS in the global queue");
        assert_eq!(started.len(), 1, "the (4,4) job waits: no processors left");
    }

    #[test]
    fn global_first_visit_can_take_a_local_cluster() {
        let (mut p, mut sys, mut table) = setup();
        // The gate is open (queues 1–3 empty), so the global queue is
        // visited first: Worst Fit ties break to clusters 0 and 1, and
        // the local job of cluster 0 is left blocked on its own cluster.
        let l = submit_local(&mut p, &mut table, 0, 30, 0.0);
        let g = submit_global(&mut p, &mut table, &[30, 30], 0.0);
        let started = pass(&mut p, &mut sys, &mut table, 0.0);
        assert_eq!(started, vec![g]);
        assert_eq!(p.queued(), 1);
        // Once the global job departs, the local one runs on cluster 0.
        depart(&mut p, &mut sys, &table, g);
        let started = pass(&mut p, &mut sys, &mut table, 1.0);
        assert_eq!(started, vec![l]);
        assert_eq!(table.get(l).placement.as_ref().expect("started").assignments(), &[(0, 30)]);
    }

    #[test]
    fn requeue_front_works_for_both_queue_kinds() {
        let (mut p, mut sys, mut table) = setup();
        // A running global job is killed; it must start again before a
        // younger global job.
        let g = submit_global(&mut p, &mut table, &[16, 16], 0.0);
        pass(&mut p, &mut sys, &mut table, 0.0);
        let g2 = submit_global(&mut p, &mut table, &[16, 16], 1.0);
        sys.release(table.get(g).placement.as_ref().unwrap());
        table.get_mut(g).placement = None;
        table.get_mut(g).start = None;
        p.requeue_front(g, SubmitQueue::Global);
        p.on_departure();
        let started = pass(&mut p, &mut sys, &mut table, 1.0);
        assert_eq!(started[0], g, "the global victim regains its head");
        assert!(started.contains(&g2));
        // Same for a local victim (size 16: the two running global jobs
        // leave only 16 idle on cluster 2).
        let a = submit_local(&mut p, &mut table, 2, 16, 2.0);
        pass(&mut p, &mut sys, &mut table, 2.0);
        let b = submit_local(&mut p, &mut table, 2, 16, 3.0);
        sys.release(table.get(a).placement.as_ref().unwrap());
        table.get_mut(a).placement = None;
        table.get_mut(a).start = None;
        p.requeue_front(a, SubmitQueue::Local(2));
        p.on_departure();
        let started = pass(&mut p, &mut sys, &mut table, 3.0);
        assert_eq!(started, vec![a], "the local victim precedes {b:?}");
    }

    #[test]
    fn queue_lengths_include_global_tail() {
        let (mut p, mut sys, mut table) = setup();
        submit_local(&mut p, &mut table, 1, 32, 0.0);
        pass(&mut p, &mut sys, &mut table, 0.0);
        submit_local(&mut p, &mut table, 1, 2, 0.0);
        submit_global(&mut p, &mut table, &[32, 32, 32, 32], 0.0);
        pass(&mut p, &mut sys, &mut table, 0.0);
        assert_eq!(p.queue_lengths(), vec![0, 1, 0, 0, 1]);
        assert_eq!(p.queued(), 2);
        assert_eq!(p.name(), "LP");
    }
}
