//! The disposition/discipline engine shared by every policy.
//!
//! Two orthogonal axes extend the paper's rigid-FCFS model:
//!
//! * **Disposition** ([`coalloc_workload::JobDisposition`]): `Moldable`
//!   jobs re-choose their component split at schedule time against the
//!   current idle vector (the smallest feasible component count wins —
//!   the least wide-area extension the system admits right now);
//!   `Malleable` jobs additionally grow/shrink while running (driven by
//!   the session, see `sim::session`).
//! * **Discipline** ([`crate::queue::QueueDiscipline`]): EASY and
//!   conservative backfilling let estimated-short jobs jump a blocked
//!   queue head if they cannot delay its reservation.
//!
//! Both axes are carried by [`PolicyOptions`] and implemented by the
//! per-scheduler [`FlexEngine`]. The default options (`Rigid` + `Fcfs`)
//! make the engine fully passive: no running-set tracking, no estimate
//! arithmetic, and the exact event stream of the pre-flex schedulers —
//! the byte-identity regression tests pin this.

use coalloc_workload::{JobDisposition, JobRequest, RequestKind, Workload};
use desim::{Duration, SimTime};

use crate::audit::{PlacementDecision, PlacementScope, SimObserver};
use crate::job::{ActiveJob, JobId, JobTable, Placement, SubmitQueue};
use crate::placement::{place_scoped, PlacementRule};
use crate::queue::{JobQueue, QueueDiscipline};
use crate::system::MultiCluster;

/// The policy-independent scheduling options threaded from
/// [`crate::SimConfig`] into every scheduler.
#[derive(Clone, Debug)]
pub struct PolicyOptions {
    /// How much placement freedom jobs grant after submission.
    pub disposition: JobDisposition,
    /// The order in which waiting jobs may start.
    pub discipline: QueueDiscipline,
    /// Runtime-estimate multiplier on the base service time for jobs
    /// submitted without an explicit [`JobRequest::estimate`] (the
    /// backfilling disciplines need an estimated end for every job;
    /// `f64::INFINITY` disables backfilling entirely, collapsing EASY
    /// onto FCFS).
    pub estimate_factor: f64,
    /// The workload model, for the wide-area extension factor the
    /// estimates must include (estimates mirror the occupancy model:
    /// base service times the extension for the spanned clusters).
    pub workload: Workload,
}

impl Default for PolicyOptions {
    /// The paper's model: rigid jobs, strict FCFS. The workload field is
    /// never consulted on this passive path (estimates and moldable
    /// splits are both off), so the DAS default is a placeholder.
    fn default() -> Self {
        PolicyOptions {
            disposition: JobDisposition::Rigid,
            discipline: QueueDiscipline::Fcfs,
            estimate_factor: 2.0,
            workload: Workload::das(16),
        }
    }
}

/// The estimated occupancy of a job spanning `span` clusters: its
/// submitted estimate (or `estimate_factor` times its base service)
/// times the wide-area extension factor — the exact arithmetic the
/// schedulers and the invariant auditor must share, so the auditor can
/// re-derive backfilling decisions bit-for-bit.
pub(crate) fn estimated_occupancy(
    workload: &Workload,
    estimate_factor: f64,
    request: &JobRequest,
    base_service: Duration,
    span: usize,
) -> f64 {
    let base = request.estimate().unwrap_or(estimate_factor * base_service.seconds());
    base * workload.extension_factor(span)
}

/// Replays the running jobs' releases (sorted ascending by estimated
/// end) onto `scratch_idle` (pre-loaded with the current idle vector)
/// and returns the earliest estimated time `request` fits under
/// `scope` — the *shadow time* backfilling reserves for a blocked
/// queue head. `f64::INFINITY` when even a fully drained system cannot
/// fit it (or every estimate is infinite).
///
/// Shared verbatim by the schedulers and the invariant auditor.
pub(crate) fn replay_shadow(
    scratch_idle: &mut [u32],
    releases: &[(f64, Placement)],
    request: &JobRequest,
    scope: PlacementScope,
    rule: PlacementRule,
    now: f64,
) -> f64 {
    // A request with more components than clusters can never fit, at any
    // time (the placement layer asserts on it rather than failing).
    if scope == PlacementScope::System
        && request.kind() == RequestKind::Unordered
        && request.num_components() > scratch_idle.len()
    {
        return f64::INFINITY;
    }
    if place_scoped(scratch_idle, request, scope, rule).is_some() {
        return now;
    }
    for (t, p) in releases {
        for &(cluster, procs) in p.assignments() {
            scratch_idle[cluster] += procs;
        }
        if place_scoped(scratch_idle, request, scope, rule).is_some() {
            return *t;
        }
    }
    f64::INFINITY
}

/// One tracked running job: the estimated end backfilling replays, and
/// the placement whose release the replay applies.
#[derive(Debug, Clone)]
struct RunningEst {
    id: JobId,
    est_end: f64,
    placement: Placement,
}

/// What one scheduling pass works on: the clock, the machine, the job
/// table, the observer, and the caller-owned buffer that started jobs
/// are appended to (see [`super::Scheduler::schedule_into`]).
pub(crate) struct Pass<'a> {
    pub(crate) now: SimTime,
    pub(crate) system: &'a mut MultiCluster,
    pub(crate) table: &'a mut JobTable,
    pub(crate) obs: &'a mut dyn SimObserver,
    pub(crate) started: &'a mut Vec<JobId>,
}

/// The per-scheduler engine implementing both option axes and the two
/// steps every policy is built from.
///
/// Every queue is FCFS, so a policy only ever offers a queue's head
/// ([`FlexEngine::start_head`]) or scans behind it
/// ([`FlexEngine::scan`], [`FlexEngine::backfill`]); the policies keep
/// only where jobs queue, the scope they are placed under, and when a
/// queue may schedule. Under the default options the engine is pure
/// pass-through (see the module docs).
#[derive(Debug)]
pub(crate) struct FlexEngine {
    opts: PolicyOptions,
    rule: PlacementRule,
    /// Running jobs, tracked only when the discipline backfills.
    running: Vec<RunningEst>,
    /// Reused scratch: releases sorted by (est_end, id) for the replay.
    releases: Vec<(f64, Placement)>,
    /// Reused scratch: the idle vector the replay mutates.
    shadow_idle: Vec<u32>,
}

impl FlexEngine {
    pub(crate) fn new(rule: PlacementRule, opts: PolicyOptions) -> Self {
        FlexEngine {
            opts,
            rule,
            running: Vec::new(),
            releases: Vec::new(),
            shadow_idle: Vec::new(),
        }
    }

    /// Whether the discipline may start non-head jobs (and the engine
    /// therefore tracks the running set).
    pub(crate) fn backfills(&self) -> bool {
        self.opts.discipline.backfills()
    }

    /// Whether later candidates must respect every earlier queued job's
    /// reservation, not just the head's.
    fn conservative(&self) -> bool {
        self.opts.discipline == QueueDiscipline::Conservative
    }

    /// The estimated end a job would have if started now with the given
    /// placement span.
    fn est_end(&self, now: f64, job: &ActiveJob, span: usize) -> f64 {
        now + estimated_occupancy(
            &self.opts.workload,
            self.opts.estimate_factor,
            &job.spec.request,
            job.spec.base_service,
            span,
        )
    }

    /// Disposition-aware fit check (no events, nothing committed).
    ///
    /// Rigid jobs place their submitted request as-is. Moldable and
    /// malleable jobs probe system-wide splits of their total in
    /// ascending component count, starting from the submitted split —
    /// the smallest feasible count wins, so whenever the submitted
    /// split fits the decision (and the event stream) is identical to
    /// the rigid one. Cluster-scoped attempts (LS/LP single-component
    /// confinement) and ordered requests never mold.
    ///
    /// Returns the placement plus the re-split request when the split
    /// changed.
    fn find_placement(
        &self,
        idle: &[u32],
        request: &JobRequest,
        scope: PlacementScope,
    ) -> Option<(Placement, Option<JobRequest>)> {
        if let Some(p) = place_scoped(idle, request, scope, self.rule) {
            return Some((p, None));
        }
        if self.opts.disposition == JobDisposition::Rigid
            || scope != PlacementScope::System
            || request.kind() != RequestKind::Unordered
        {
            return None;
        }
        // Probe wider even splits: more, smaller components fragment
        // better at the price of the wide-area extension — moldability
        // trades run time for start time.
        let total = request.total() as usize;
        let max_n = idle.len().min(total);
        for n in request.num_components() + 1..=max_n {
            let candidate = request.resplit_even(n);
            if let Some(p) = place_scoped(idle, &candidate, scope, self.rule) {
                return Some((p, Some(candidate)));
            }
        }
        None
    }

    /// Attempts to start `id` now: disposition-aware placement, the
    /// backfilling reservation check, event emission (a molded split
    /// first, then the placement decision), the system/table commit and
    /// running-set tracking. `max_est_end` is the backfilling bound —
    /// the candidate may only start if its estimated end lies *strictly*
    /// before it (`None` for queue heads, which hold no one up).
    ///
    /// Returns whether the job started; a failed attempt emits nothing
    /// and changes nothing. The caller removes a started job from its
    /// queue.
    fn try_start_job(
        &mut self,
        p: &mut Pass<'_>,
        id: JobId,
        queue: SubmitQueue,
        scope: PlacementScope,
        max_est_end: Option<f64>,
    ) -> bool {
        let now = p.now;
        let job = p.table.get(id);
        let found = self.find_placement(p.system.idle_per_cluster(), &job.spec.request, scope);
        let Some((placement, molded)) = found else {
            return false;
        };
        if let Some(bound) = max_est_end {
            let est = self.est_end(now.seconds(), job, placement.assignments().len());
            if est >= bound {
                return false;
            }
        }
        if let Some(new_request) = molded {
            p.obs.on_job_molded(now, id, &job.spec.request, &new_request);
            p.table.get_mut(id).spec.request = new_request;
        }
        p.obs.on_placement(
            now,
            &PlacementDecision {
                id,
                queue,
                scope,
                idle_before: p.system.idle_per_cluster(),
                placement: &placement,
            },
        );
        p.system.apply(&placement);
        if self.backfills() {
            let est_end =
                self.est_end(now.seconds(), p.table.get(id), placement.assignments().len());
            self.running.push(RunningEst { id, est_end, placement: placement.clone() });
        }
        p.table.mark_started(id, placement, now);
        true
    }

    /// Offers `queue`'s head under the scope `scope` picks for it. On a
    /// fit the job starts, leaves the queue and is appended to
    /// `p.started`. Returns whether it started — `false` for an empty
    /// queue too. A policy's disable latch is its own business.
    pub(crate) fn start_head(
        &mut self,
        p: &mut Pass<'_>,
        queue: &mut JobQueue,
        label: SubmitQueue,
        scope: impl Fn(&ActiveJob) -> PlacementScope,
    ) -> bool {
        let Some(head) = queue.head() else {
            return false;
        };
        let fits = self.try_start_job(p, head, label, scope(p.table.get(head)), None);
        if fits {
            queue.pop();
            p.started.push(head);
        }
        fits
    }

    /// Starts, in queue order from position `from`, every job that fits
    /// and — under a `bound` — whose estimated end lies strictly before
    /// it. Conservative backfilling folds each skipped job's shadow into
    /// the bound, so later candidates cannot delay any earlier queued
    /// job either.
    ///
    /// With no bound this is GB's pass: one forward scan makes the same
    /// starts as restarting from the front after every start. Whether a
    /// request fits is monotone in the idle vector, so a job skipped
    /// before a start still does not fit after it, and a failed attempt
    /// emits nothing and changes nothing (see DESIGN.md §11).
    pub(crate) fn scan(
        &mut self,
        p: &mut Pass<'_>,
        queue: &mut JobQueue,
        label: SubmitQueue,
        scope: impl Fn(&ActiveJob) -> PlacementScope,
        from: usize,
        mut bound: Option<f64>,
    ) {
        let mut pos = from;
        while let Some(id) = queue.get(pos) {
            let job_scope = scope(p.table.get(id));
            if self.try_start_job(p, id, label, job_scope, bound) {
                queue.remove(pos);
                p.started.push(id);
                continue;
            }
            if let Some(b) = bound.filter(|_| self.conservative()) {
                let request = &p.table.get(id).spec.request;
                let shadow =
                    self.shadow(p.system.idle_per_cluster(), request, job_scope, p.now.seconds());
                bound = Some(b.min(shadow));
            }
            pos += 1;
        }
    }

    /// The EASY/conservative backfilling scan behind `queue`'s blocked
    /// head (a no-op under FCFS): later jobs may start iff their
    /// estimated end lies strictly before the head's shadow time.
    ///
    /// The bound survives each successful backfill unchanged: a legal
    /// backfill releases (by estimate) strictly before the bound, so
    /// replaying the enlarged running set at the bound time yields the
    /// same idle vector — the head still fits there. Each skipped job's
    /// reservation under conservative backfilling is protected by the
    /// same argument. The scan ignores the queue's disable latch, which
    /// only pins the head whose reservation it protects.
    pub(crate) fn backfill(
        &mut self,
        p: &mut Pass<'_>,
        queue: &mut JobQueue,
        label: SubmitQueue,
        scope: impl Fn(&ActiveJob) -> PlacementScope,
    ) {
        if !self.backfills() || queue.len() < 2 {
            return;
        }
        let head = p.table.get(queue.head().expect("len >= 2"));
        let shadow = self.shadow(
            p.system.idle_per_cluster(),
            &head.spec.request,
            scope(head),
            p.now.seconds(),
        );
        self.scan(p, queue, label, scope, 1, Some(shadow));
    }

    /// The shadow time of a blocked queue head: the earliest estimated
    /// time its request fits, replaying the tracked running set (see
    /// [`replay_shadow`]).
    fn shadow(
        &mut self,
        idle: &[u32],
        request: &JobRequest,
        scope: PlacementScope,
        now: f64,
    ) -> f64 {
        self.releases.clear();
        self.releases.extend(self.running.iter().map(|r| (r.est_end, r.placement.clone())));
        // Stable sort: equal estimates keep their (deterministic) start
        // order, so the replay is reproducible for a given seed.
        self.releases.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("estimates are never NaN"));
        self.shadow_idle.clear();
        self.shadow_idle.extend_from_slice(idle);
        replay_shadow(&mut self.shadow_idle, &self.releases, request, scope, self.rule, now)
    }

    /// A tracked job departed (or was killed by a fault).
    pub(crate) fn note_departed(&mut self, id: JobId) {
        if let Some(pos) = self.running.iter().position(|r| r.id == id) {
            self.running.swap_remove(pos);
        }
    }

    /// A tracked job was resized: its estimated remaining time scales
    /// by the inverse of its processor-count change *and* by the ratio
    /// of the wide-area extension factors for the new and old spans —
    /// the same base-work conservation the session applies to the
    /// actual departure. When the span is unchanged the factor ratio is
    /// exactly `1.0` (IEEE `x / x`), so same-span resizes keep their
    /// historical bit pattern.
    pub(crate) fn note_resized(&mut self, now: SimTime, id: JobId, new_placement: &Placement) {
        if let Some(entry) = self.running.iter_mut().find(|r| r.id == id) {
            let old_total = f64::from(entry.placement.total());
            let new_total = f64::from(new_placement.total());
            if entry.est_end.is_finite() {
                let f_old =
                    self.opts.workload.extension_factor(entry.placement.assignments().len());
                let f_new = self.opts.workload.extension_factor(new_placement.assignments().len());
                let t = now.seconds();
                entry.est_end = t + (entry.est_end - t) * old_total / new_total * (f_new / f_old);
            }
            entry.placement = new_placement.clone();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::NullObserver;
    use crate::job::JobTable;
    use desim::Duration;

    fn opts(disposition: JobDisposition, discipline: QueueDiscipline) -> PolicyOptions {
        PolicyOptions { disposition, discipline, ..PolicyOptions::default() }
    }

    fn engine(disposition: JobDisposition, discipline: QueueDiscipline) -> FlexEngine {
        FlexEngine::new(PlacementRule::WorstFit, opts(disposition, discipline))
    }

    /// Attempts `id` at t=0 as a queue head (`bound` = `None`) or as a
    /// backfilling candidate under `bound`.
    fn attempt(
        engine: &mut FlexEngine,
        system: &mut MultiCluster,
        table: &mut JobTable,
        id: JobId,
        bound: Option<f64>,
    ) -> bool {
        let mut started = Vec::new();
        let mut p = Pass {
            now: SimTime::new(0.0),
            system,
            table,
            obs: &mut NullObserver,
            started: &mut started,
        };
        engine.try_start_job(&mut p, id, SubmitQueue::Global, PlacementScope::System, bound)
    }

    fn job(table: &mut JobTable, components: &[u32]) -> JobId {
        let spec = coalloc_workload::JobSpec {
            request: JobRequest::new(components.to_vec()),
            base_service: Duration::new(100.0),
        };
        table.insert(ActiveJob::new(spec, SimTime::new(0.0), SubmitQueue::Global))
    }

    #[test]
    fn rigid_engine_is_pass_through() {
        let mut engine = engine(JobDisposition::Rigid, QueueDiscipline::Fcfs);
        let mut system = MultiCluster::das_multicluster();
        let mut table = JobTable::new();
        let id = job(&mut table, &[16, 16]);
        assert!(attempt(&mut engine, &mut system, &mut table, id, None));
        assert!(engine.running.is_empty(), "no tracking under FCFS");
        assert_eq!(table.get(id).spec.request.components(), &[16, 16], "no molding under Rigid");
    }

    #[test]
    fn moldable_splits_wider_when_the_submitted_split_is_blocked() {
        let mut engine = engine(JobDisposition::Moldable, QueueDiscipline::Fcfs);
        let mut system = MultiCluster::das_multicluster();
        // Occupy so the idle vector is (16, 16, 16, 32): a (32,32) job is
        // blocked (only one cluster has 32 idle), an even 3-way split
        // (22,21,21) is too (only one cluster has ≥21 idle), but the
        // 4-way re-split (16,16,16,16) fits everywhere.
        system.apply(&Placement::new(vec![(0, 16), (1, 16), (2, 16)]));
        let mut table = JobTable::new();
        let id = job(&mut table, &[32, 32]);
        assert!(attempt(&mut engine, &mut system, &mut table, id, None));
        assert_eq!(table.get(id).spec.request.components(), &[16, 16, 16, 16]);
        assert_eq!(table.get(id).spec.request.total(), 64, "molding conserves the total");
    }

    #[test]
    fn moldable_prefers_the_submitted_split_when_it_fits() {
        let mut engine = engine(JobDisposition::Moldable, QueueDiscipline::Fcfs);
        let mut system = MultiCluster::das_multicluster();
        let mut table = JobTable::new();
        let id = job(&mut table, &[32, 32]);
        assert!(attempt(&mut engine, &mut system, &mut table, id, None));
        assert_eq!(table.get(id).spec.request.components(), &[32, 32], "smallest n wins");
    }

    #[test]
    fn backfill_bound_blocks_long_estimates() {
        let mut engine = engine(JobDisposition::Rigid, QueueDiscipline::Easy);
        let mut system = MultiCluster::das_multicluster();
        let mut table = JobTable::new();
        let id = job(&mut table, &[8]);
        // Estimated end = 0 + 2.0 × 100 = 200: a bound of 150 rejects,
        // 250 admits.
        assert!(!attempt(&mut engine, &mut system, &mut table, id, Some(150.0)));
        assert!(attempt(&mut engine, &mut system, &mut table, id, Some(250.0)));
        assert_eq!(engine.running.len(), 1, "backfilling tracks the running set");
        engine.note_departed(id);
        assert!(engine.running.is_empty());
    }

    #[test]
    fn shadow_replays_releases_in_estimate_order() {
        let mut engine = engine(JobDisposition::Rigid, QueueDiscipline::Easy);
        engine.running.push(RunningEst {
            id: JobId(0),
            est_end: 300.0,
            placement: Placement::new(vec![(0, 32), (1, 32)]),
        });
        engine.running.push(RunningEst {
            id: JobId(1),
            est_end: 150.0,
            placement: Placement::new(vec![(2, 32)]),
        });
        // Idle (0,0,0,32): a (32,32) head fits only once the 150-ending
        // job frees cluster 2.
        let head = JobRequest::new(vec![32, 32]);
        let s = engine.shadow(&[0, 0, 0, 32], &head, PlacementScope::System, 10.0);
        assert_eq!(s, 150.0);
        // A whole-system head needs both releases.
        let big = JobRequest::new(vec![32, 32, 32, 32]);
        let s = engine.shadow(&[0, 0, 0, 32], &big, PlacementScope::System, 10.0);
        assert_eq!(s, 300.0);
        // An impossible head shadows at infinity.
        let impossible = JobRequest::new(vec![33, 33, 33, 33, 33]);
        let s = engine.shadow(&[0, 0, 0, 32], &impossible, PlacementScope::System, 10.0);
        assert!(s.is_infinite());
    }

    #[test]
    fn infinite_estimates_disable_backfilling() {
        let mut engine = FlexEngine::new(
            PlacementRule::WorstFit,
            PolicyOptions {
                estimate_factor: f64::INFINITY,
                ..opts(JobDisposition::Rigid, QueueDiscipline::Easy)
            },
        );
        let mut system = MultiCluster::das_multicluster();
        let mut table = JobTable::new();
        let id = job(&mut table, &[8]);
        // Even an infinite bound rejects an infinite estimate (∞ < ∞ is
        // false) — EASY with no information degenerates to FCFS.
        assert!(!attempt(&mut engine, &mut system, &mut table, id, Some(f64::INFINITY)));
    }

    #[test]
    fn resize_rescales_the_estimate() {
        let mut engine = engine(JobDisposition::Malleable, QueueDiscipline::Easy);
        engine.running.push(RunningEst {
            id: JobId(3),
            est_end: 100.0,
            placement: Placement::new(vec![(0, 16)]),
        });
        // Doubling the processors at t=20 halves the remaining estimate.
        engine.note_resized(SimTime::new(20.0), JobId(3), &Placement::new(vec![(0, 32)]));
        assert!((engine.running[0].est_end - 60.0).abs() < 1e-12);
        assert_eq!(engine.running[0].placement.total(), 32);
    }

    #[test]
    fn span_changing_resize_re_derives_the_extension() {
        // The regression the satellite fix guards: a 2→1-cluster shrink
        // sheds the 1.25 wide-area extension, so the remaining estimate
        // must scale by old_total/new_total × (f_new/f_old) — the old
        // formula conserved *extended* seconds and over-estimated the
        // coalesced remainder by 25%.
        let mut engine = engine(JobDisposition::Malleable, QueueDiscipline::Easy);
        engine.running.push(RunningEst {
            id: JobId(7),
            est_end: 100.0,
            placement: Placement::new(vec![(0, 16), (1, 16)]),
        });
        // At t=20: remaining 80 extended seconds over 32 procs across two
        // clusters shrink to 16 procs in one: 80 × (32/16) × (1.0/1.25) =
        // 128, not the old formula's 160.
        engine.note_resized(SimTime::new(20.0), JobId(7), &Placement::new(vec![(0, 16)]));
        assert!((engine.running[0].est_end - 148.0).abs() < 1e-12);
        assert_eq!(engine.running[0].placement.assignments().len(), 1);
    }
}
