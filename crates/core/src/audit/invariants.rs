//! The invariant auditor: re-derives every decision and records
//! violations of the paper's scheduling rules.

use std::collections::VecDeque;

use coalloc_workload::{JobRequest, RequestKind, Workload};
use desim::{Duration, SimTime};

use crate::job::{ActiveJob, JobId, Placement, SubmitQueue};
use crate::placement::{place_scoped, PlacementRule};
use crate::policy::{estimated_occupancy, replay_shadow};
use crate::queue::QueueDiscipline;
use crate::sim::network::{self, cluster_mask, ShareScratch};
use crate::sim::{NetworkSpec, SimConfig};
use crate::system::SystemSpec;

use super::{PlacementDecision, PlacementScope, Resize, SimObserver};

/// Relative tolerance for time/occupancy comparisons; far below any
/// real discrepancy (a mis-applied 1.25 extension is a 25% error).
const TOL: f64 = 1e-9;

/// Relative tolerance for the mirrored-flow checks under a bandwidth-
/// sharing network model. The auditor accrues progress eagerly at every
/// observed event while the engine accrues lazily, so the two disagree
/// by accumulated rounding (ulps per rebalance) rather than exactly —
/// still six orders of magnitude below a mis-applied extension.
const NET_TOL: f64 = 1e-6;

/// How many violations are kept verbatim; the total count keeps
/// growing so a flood is still visible.
const MAX_RECORDED: usize = 200;

/// The kinds of rule violations the auditor can detect.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// A placement claimed more processors than a cluster had idle (or
    /// a release pushed a cluster above its capacity).
    CapacityExceeded,
    /// Two components of one job were assigned to the same cluster.
    DuplicateCluster,
    /// The chosen assignment differs from what the configured placement
    /// rule (Worst Fit in the paper) dictates for the observed idle
    /// state, or does not cover the request.
    PlacementRuleViolation,
    /// A job started while an earlier job in the same queue was still
    /// waiting (FCFS overtaking; GB is exempt — it backfills by
    /// design).
    FcfsOvertaking,
    /// A job's occupancy does not equal base service times the
    /// extension factor for the clusters it spans — the factor was
    /// dropped, doubled, or applied to a single-cluster job.
    ExtensionMismatch,
    /// An event carried a time earlier than its predecessor's.
    NonMonotonicTime,
    /// An event contradicts the job lifecycle (started twice, placed
    /// while not waiting, completed while not running, …).
    JobStateError,
    /// The idle snapshot a scheduler reported disagrees with the
    /// auditor's independently tracked ledger.
    LedgerMismatch,
    /// A component was assigned to a cluster that a failure had taken
    /// fully offline.
    AllocationOnDownCluster,
    /// A job started ahead of a fault victim that was re-queued at the
    /// head of its queue to preserve its FCFS age.
    RequeueOrderViolation,
    /// Fault bookkeeping went wrong: a cluster went down with victims
    /// still running on it, an interruption released processors a job
    /// did not hold, a repair hit a cluster that was not down, or an
    /// interruption hit a job that was not running.
    InterruptAccountingError,
    /// Under a backfilling discipline, a job overtook its queue head
    /// although its own estimated end exceeds the head's shadow
    /// reservation — the backfill may delay the very job it was
    /// supposed to slip past (the EASY contract, §backfilling).
    ReservationViolation,
    /// A blocked queue head was still waiting after its shadow
    /// reservation time had passed: backfilled jobs starved the head
    /// beyond the bound the discipline promised.
    BackfillStarvation,
    /// A malleable resize did not conserve the job's remaining *base*
    /// work: `(old_end − now)·old_processors/f_old` differs from
    /// `(new_end − now)·new_processors/f_new` (where `f` is the
    /// wide-area extension factor for the clusters spanned on each
    /// side — a span-changing resize must re-derive its extension), or
    /// the resize released a placement the job did not hold.
    ResizeConservation,
    /// Under a bandwidth-sharing network model
    /// ([`crate::sim::NetworkSpec`]), a multi-cluster job's
    /// gross work was not conserved: the departure or resize time the
    /// engine scheduled disagrees with the auditor's independently
    /// mirrored max-min fair flow rates — work was created, destroyed,
    /// or an extension applied other than exactly once along the way.
    WorkConservation,
}

impl core::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{self:?}")
    }
}

/// One detected violation.
#[derive(Clone, Debug)]
pub struct Violation {
    /// What rule was broken.
    pub kind: ViolationKind,
    /// Simulated time of the offending event.
    pub t: f64,
    /// The job involved, if any.
    pub job: Option<u64>,
    /// Human-readable specifics.
    pub detail: String,
}

impl core::fmt::Display for Violation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "[t={:.6}] {}", self.t, self.kind)?;
        if let Some(j) = self.job {
            write!(f, " job {j}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum JobState {
    Waiting,
    Placed,
    Running,
    Done,
}

#[derive(Clone, Debug)]
struct JobInfo {
    request: JobRequest,
    base_service: f64,
    queue: SubmitQueue,
    state: JobState,
    start: f64,
    occupancy: f64,
    span: usize,
    assignments: Vec<(usize, u32)>,
    /// The job is a fault victim re-queued at the head of its queue;
    /// starting any other job from that queue ahead of it violates the
    /// preserved FCFS age.
    requeued_front: bool,
    /// Estimated release time while running (the same arithmetic the
    /// backfilling schedulers use), for re-deriving shadow bounds.
    est_end: f64,
}

/// The auditor's independent mirror of one wide-area flow under a
/// bandwidth-sharing network model: the remaining *base* work and the
/// current stretch (extension factor inflated by bandwidth contention),
/// accrued eagerly at every observed flow-set change. The engine keeps
/// the same state lazily; both accruals are exact for piecewise-
/// constant rates, so they agree to rounding.
#[derive(Clone, Debug)]
struct MirrorFlow {
    id: u64,
    /// Bitmask of the clusters the job spans (the flow's endpoints).
    mask: u64,
    /// The nominal wide-area extension factor for the job's span.
    factor: f64,
    /// Remaining base service seconds.
    remaining: f64,
    /// Current slowdown: wall seconds per remaining base second.
    stretch: f64,
    /// When `remaining` was last accrued.
    since: f64,
}

/// An observer that checks, at every event, that the simulation obeys
/// the paper's rules (see [`ViolationKind`] for the list). It keeps its
/// own idle-processor ledger and waiting-queue mirror, so a buggy
/// scheduler cannot vouch for itself.
///
/// Attach it via [`crate::sim::SimBuilder::run_observed`]; inspect
/// [`InvariantAuditor::violations`] or call
/// [`InvariantAuditor::assert_clean`] afterwards.
#[derive(Clone, Debug)]
pub struct InvariantAuditor {
    system: SystemSpec,
    idle: Vec<u32>,
    /// Per-cluster *effective* capacity: the full capacity, lowered to
    /// the remaining-usable count while a failure has the cluster down.
    effective: Vec<u32>,
    workload: Workload,
    rule: PlacementRule,
    /// FCFS is enforced per queue unless the policy overtakes by design
    /// (GB's aggressive backfilling, or a backfilling discipline).
    strict_fcfs: bool,
    /// The queue discipline the run declared; overtakes under a
    /// backfilling discipline are checked against the head's shadow
    /// reservation instead of being flat violations.
    discipline: QueueDiscipline,
    /// The estimate multiplier the run declared, for mirroring the
    /// schedulers' estimated ends bit-for-bit.
    estimate_factor: f64,
    /// Whether the shadow reservation is also an upper bound on the
    /// head's real start (sound only for single-queue policies with
    /// overrun-side estimates and no faults) — arms BackfillStarvation.
    starvation_armed: bool,
    /// Overtaken queue heads still waiting: `(queue, head, bound)` —
    /// the head must start by `bound` or the run starved it.
    head_watch: Vec<(SubmitQueue, u64, f64)>,
    waiting_local: Vec<VecDeque<u64>>,
    waiting_global: VecDeque<u64>,
    jobs: Vec<Option<JobInfo>>,
    /// The bandwidth-sharing model the run declared, if any. A
    /// *contended* (finite-capacity) network arms the mirrored-flow
    /// work-conservation checks and disarms the nominal held-interval,
    /// resize-conservation, and starvation bounds for the jobs the
    /// network stretches (their timing is load-dependent by design).
    network: Option<NetworkSpec>,
    /// Mirrored wide-area flows of the running multi-cluster jobs, in
    /// start order as the engine keeps them (pairwise shares depend on
    /// flow order).
    flows: Vec<MirrorFlow>,
    /// The mirror's own buffers for the engine's share kernel.
    flow_shares: Vec<f64>,
    share_scratch: ShareScratch,
    last_t: f64,
    violations: Vec<Violation>,
    total: usize,
}

/// What happened to a job's position in its queue mirror when it was
/// placed (resolved first so violations can be reported without holding
/// a borrow on the mirror).
enum FifoOutcome {
    Head,
    Overtook(Vec<u64>),
    Absent,
    NoSuchQueue,
}

impl InvariantAuditor {
    /// An auditor for runs of `cfg` (system shape, workload extension
    /// model, placement rule, and FCFS strictness all follow the
    /// configuration).
    pub fn new(cfg: &SimConfig) -> Self {
        let mut auditor = Self::with_parts(
            cfg.system.clone(),
            cfg.workload.clone(),
            cfg.rule,
            cfg.policy != crate::policy::PolicyKind::Gb,
        )
        .with_discipline(cfg.discipline, cfg.estimate_factor);
        // The starvation bound is sound only when the watched queue is
        // the sole consumer of the system: under LS/LP another queue's
        // head may legally take processors the shadow replay counted on.
        auditor.starvation_armed &= matches!(
            cfg.policy,
            crate::policy::PolicyKind::Gs
                | crate::policy::PolicyKind::Sc
                | crate::policy::PolicyKind::Gb
        );
        auditor.network = cfg.network;
        auditor
    }

    /// An auditor from explicit parts (for harnesses that drive the
    /// scheduler without a [`SimConfig`]).
    pub fn with_parts(
        system: SystemSpec,
        workload: Workload,
        rule: PlacementRule,
        strict_fcfs: bool,
    ) -> Self {
        let clusters = system.num_clusters();
        InvariantAuditor {
            idle: system.capacities().to_vec(),
            effective: system.capacities().to_vec(),
            system,
            workload,
            rule,
            strict_fcfs,
            discipline: QueueDiscipline::Fcfs,
            estimate_factor: 2.0,
            starvation_armed: false,
            head_watch: Vec::new(),
            waiting_local: vec![VecDeque::new(); clusters],
            waiting_global: VecDeque::new(),
            jobs: Vec::new(),
            network: None,
            flows: Vec::new(),
            flow_shares: Vec::new(),
            share_scratch: ShareScratch::default(),
            last_t: f64::NEG_INFINITY,
            violations: Vec::new(),
            total: 0,
        }
    }

    /// Declares the run's queue discipline and estimate multiplier.
    ///
    /// A backfilling discipline relaxes strict FCFS into the shadow-
    /// reservation check ([`ViolationKind::ReservationViolation`]) and
    /// arms the head-starvation bound when the estimates are on the
    /// overrun side (`estimate_factor ≥ 1` and finite).
    #[must_use]
    pub fn with_discipline(mut self, discipline: QueueDiscipline, estimate_factor: f64) -> Self {
        self.strict_fcfs = self.strict_fcfs && discipline == QueueDiscipline::Fcfs;
        self.starvation_armed =
            discipline.backfills() && estimate_factor >= 1.0 && estimate_factor.is_finite();
        self.discipline = discipline;
        self.estimate_factor = estimate_factor;
        self
    }

    /// Declares the run's bandwidth-sharing network model (for
    /// harnesses that build the auditor from parts;
    /// [`InvariantAuditor::new`] picks it up from the configuration).
    #[must_use]
    pub fn with_network(mut self, spec: NetworkSpec) -> Self {
        self.network = Some(spec);
        self
    }

    /// The recorded violations (capped at an internal limit; see
    /// [`InvariantAuditor::total_violations`] for the full count).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Total violations detected, including any beyond the recording
    /// cap.
    pub fn total_violations(&self) -> usize {
        self.total
    }

    /// Whether the run broke no rules.
    pub fn is_clean(&self) -> bool {
        self.total == 0
    }

    /// Whether any recorded violation is of `kind`.
    pub fn has(&self, kind: ViolationKind) -> bool {
        self.violations.iter().any(|v| v.kind == kind)
    }

    /// A one-line summary plus the first recorded violations.
    pub fn report(&self) -> String {
        use core::fmt::Write as _;
        let mut s = format!("{} violation(s)", self.total);
        for v in self.violations.iter().take(10) {
            let _ = write!(s, "\n  {v}");
        }
        if self.total > 10 {
            let _ = write!(s, "\n  … and {} more", self.total - 10);
        }
        s
    }

    /// Panics with [`InvariantAuditor::report`] if any violation was
    /// detected.
    ///
    /// # Panics
    /// When the audited run broke any rule.
    pub fn assert_clean(&self) {
        assert!(self.is_clean(), "audit failed: {}", self.report());
    }

    fn violation(&mut self, kind: ViolationKind, t: f64, job: Option<u64>, detail: String) {
        self.total += 1;
        if self.violations.len() < MAX_RECORDED {
            self.violations.push(Violation { kind, t, job, detail });
        }
    }

    fn check_time(&mut self, now: SimTime) -> f64 {
        let t = now.seconds();
        if t < self.last_t {
            let last = self.last_t;
            self.violation(
                ViolationKind::NonMonotonicTime,
                t,
                None,
                format!("event at {t} after one at {last}"),
            );
        } else {
            self.last_t = t;
        }
        t
    }

    fn job_mut(&mut self, id: JobId) -> Option<&mut JobInfo> {
        self.jobs.get_mut(id.0 as usize).and_then(Option::as_mut)
    }

    fn unknown_job(&mut self, t: f64, id: JobId, context: &str) {
        self.violation(
            ViolationKind::JobStateError,
            t,
            Some(id.0),
            format!("{context} for a job never seen arriving"),
        );
    }

    /// Removes `id` from the mirror of `queue`, reporting how it sat in
    /// FIFO order.
    fn take_from_fifo(&mut self, queue: SubmitQueue, id: u64) -> FifoOutcome {
        let fifo = match queue {
            SubmitQueue::Global => &mut self.waiting_global,
            SubmitQueue::Local(i) => match self.waiting_local.get_mut(i) {
                Some(f) => f,
                None => return FifoOutcome::NoSuchQueue,
            },
        };
        match fifo.iter().position(|&j| j == id) {
            Some(0) => {
                fifo.pop_front();
                FifoOutcome::Head
            }
            Some(p) => {
                let ahead: Vec<u64> = fifo.iter().take(p).copied().collect();
                fifo.remove(p);
                FifoOutcome::Overtook(ahead)
            }
            None => FifoOutcome::Absent,
        }
    }

    /// The estimated occupancy the schedulers would compute for this
    /// request at the given span (shared arithmetic — see
    /// [`estimated_occupancy`]).
    fn est_occupancy(&self, request: &JobRequest, base_service: f64, span: usize) -> f64 {
        estimated_occupancy(
            &self.workload,
            self.estimate_factor,
            request,
            Duration::new(base_service),
            span,
        )
    }

    /// The scope a queue head is placed under: system-wide from the
    /// global queue; from a local queue, cluster-confined unless the
    /// request is multi-component or ordered (the LS/LP §2.5 rule —
    /// both policies agree on every request shape their local queues
    /// can hold).
    fn head_scope(queue: SubmitQueue, request: &JobRequest) -> PlacementScope {
        match queue {
            SubmitQueue::Global => PlacementScope::System,
            SubmitQueue::Local(q) => {
                if request.is_multi() || request.kind() == RequestKind::Ordered {
                    PlacementScope::System
                } else {
                    PlacementScope::Cluster(q)
                }
            }
        }
    }

    /// Re-derives the shadow reservation of a blocked head from the
    /// auditor's own ledger and running-set mirror: the earliest
    /// estimated time `request` fits under `scope`.
    fn shadow_bound(&self, request: &JobRequest, scope: PlacementScope, now: f64) -> f64 {
        let mut releases: Vec<(f64, Placement)> = self
            .jobs
            .iter()
            .flatten()
            .filter(|info| info.state == JobState::Running && !info.assignments.is_empty())
            .filter(|info| {
                // A corrupt duplicate-cluster placement was already
                // flagged; skip it rather than panic in the replay.
                let mut cs: Vec<usize> = info.assignments.iter().map(|&(c, _)| c).collect();
                cs.sort_unstable();
                cs.dedup();
                cs.len() == info.assignments.len()
            })
            .map(|info| (info.est_end, Placement::new(info.assignments.clone())))
            .collect();
        releases.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("estimates are never NaN"));
        let mut idle = self.idle.clone();
        replay_shadow(&mut idle, &releases, request, scope, self.rule, now)
    }

    /// Under a backfilling discipline, an overtake is legal only below
    /// the overtaken head's shadow reservation; when the starvation
    /// bound is sound, the head goes under watch until it starts.
    fn check_reservation(
        &mut self,
        t: f64,
        id: JobId,
        queue: SubmitQueue,
        head: u64,
        est_end: f64,
    ) {
        let head_info = self
            .jobs
            .get(head as usize)
            .and_then(Option::as_ref)
            .map(|info| (info.request.clone(), info.base_service));
        let Some((head_request, _)) = head_info else {
            return; // the mirror is already corrupt; other checks fired
        };
        let scope = Self::head_scope(queue, &head_request);
        let bound = self.shadow_bound(&head_request, scope, t);
        if est_end > bound + TOL * bound.abs().max(1.0) {
            self.violation(
                ViolationKind::ReservationViolation,
                t,
                Some(id.0),
                format!(
                    "backfilled with estimated end {est_end} past head {head}'s reservation \
                     at {bound}"
                ),
            );
        }
        if self.starvation_armed
            && !self.net_contended()
            && bound.is_finite()
            && !self.head_watch.iter().any(|&(q, h, _)| q == queue && h == head)
        {
            self.head_watch.push((queue, head, bound));
        }
    }

    /// Whether a *contended* bandwidth-sharing network is in play — an
    /// uncontended (infinite-capacity) one collapses onto the faithful
    /// model, so every nominal check stays armed.
    fn net_contended(&self) -> bool {
        self.network.is_some_and(|n| !n.is_uncontended())
    }

    /// Accrues every mirrored flow's remaining base work up to `t` at
    /// its current stretch. Exact between flow-set changes (the rates
    /// are piecewise constant), so eager accrual here matches the
    /// engine's lazy accrual to rounding.
    fn accrue_flows(&mut self, t: f64) {
        for flow in &mut self.flows {
            let dt = t - flow.since;
            if dt > 0.0 {
                // Deliberately unclamped: a job held past its work
                // running dry shows up as negative remaining at
                // completion rather than being silently absorbed.
                flow.remaining -= dt / flow.stretch;
            }
            flow.since = t;
        }
    }

    /// Recomputes every mirrored flow's stretch from the max-min fair
    /// shares of the current flow set.
    fn rebalance_flows(&mut self) {
        let Some(net) = self.network else { return };
        net.shares_into(
            self.flows.iter().map(|f| f.mask),
            &mut self.flow_shares,
            &mut self.share_scratch,
        );
        for (flow, &share) in self.flows.iter_mut().zip(&self.flow_shares) {
            flow.stretch = network::stretch(flow.factor, share);
        }
    }

    /// Drops the mirrored flow of `id` (job completed, killed, or
    /// shrunk out of the wide area) and rebalances the survivors.
    fn remove_flow(&mut self, t: f64, id: u64) -> Option<MirrorFlow> {
        let pos = self.flows.iter().position(|f| f.id == id)?;
        self.accrue_flows(t);
        let flow = self.flows.remove(pos);
        self.rebalance_flows();
        Some(flow)
    }
}

impl SimObserver for InvariantAuditor {
    fn on_arrival(&mut self, now: SimTime, id: JobId, job: &ActiveJob) {
        let t = self.check_time(now);
        let slot = id.0 as usize;
        if slot < self.jobs.len() && self.jobs[slot].is_some() {
            self.violation(
                ViolationKind::JobStateError,
                t,
                Some(id.0),
                "arrived twice".to_string(),
            );
            return;
        }
        if slot >= self.jobs.len() {
            self.jobs.resize(slot + 1, None);
        }
        // An explicit estimate *below* the base service is an underrun:
        // the job outlives its estimated release, so the shadow bound
        // is no longer an upper bound on the head's start.
        if job.spec.request.estimate().is_some_and(|e| e < job.spec.base_service.seconds()) {
            self.starvation_armed = false;
            self.head_watch.clear();
        }
        self.jobs[slot] = Some(JobInfo {
            request: job.spec.request.clone(),
            base_service: job.spec.base_service.seconds(),
            queue: job.queue,
            state: JobState::Waiting,
            start: 0.0,
            occupancy: 0.0,
            span: 0,
            assignments: Vec::new(),
            requeued_front: false,
            est_end: 0.0,
        });
    }

    fn on_enqueue(&mut self, now: SimTime, id: JobId, queue: SubmitQueue) {
        let t = self.check_time(now);
        let known = match self.job_mut(id) {
            Some(info) => Some((info.state, info.queue)),
            None => None,
        };
        let Some((state, routed)) = known else {
            self.unknown_job(t, id, "enqueue");
            return;
        };
        if state != JobState::Waiting {
            self.violation(
                ViolationKind::JobStateError,
                t,
                Some(id.0),
                format!("enqueued while {state:?}"),
            );
        }
        if routed != queue {
            self.violation(
                ViolationKind::JobStateError,
                t,
                Some(id.0),
                format!("routed to {routed:?} but enqueued on {queue:?}"),
            );
        }
        let pushed = match queue {
            SubmitQueue::Global => {
                self.waiting_global.push_back(id.0);
                true
            }
            SubmitQueue::Local(i) => match self.waiting_local.get_mut(i) {
                Some(fifo) => {
                    fifo.push_back(id.0);
                    true
                }
                None => false,
            },
        };
        if !pushed {
            self.violation(
                ViolationKind::JobStateError,
                t,
                Some(id.0),
                format!("enqueued on nonexistent {queue:?}"),
            );
        }
    }

    fn on_pass(&mut self, now: SimTime, _trigger: super::PassTrigger) {
        let t = self.check_time(now);
        // A watched head still waiting past its reservation has been
        // starved (watches are cleared the moment a head is placed, so
        // every live entry is still waiting).
        if !self.head_watch.is_empty() {
            let expired: Vec<(SubmitQueue, u64, f64)> = self
                .head_watch
                .iter()
                .copied()
                .filter(|&(_, _, bound)| t > bound + TOL * bound.abs().max(1.0))
                .collect();
            for (queue, head, bound) in expired {
                self.head_watch.retain(|&(q, h, _)| !(q == queue && h == head));
                self.violation(
                    ViolationKind::BackfillStarvation,
                    t,
                    Some(head),
                    format!(
                        "head of {queue:?} still waiting at {t}, past its reservation at {bound}"
                    ),
                );
            }
        }
    }

    fn on_pass_end(&mut self, now: SimTime, started: &[JobId]) {
        let t = self.check_time(now);
        for &id in started {
            let state = self.job_mut(id).map(|info| info.state);
            if state != Some(JobState::Placed) {
                self.violation(
                    ViolationKind::JobStateError,
                    t,
                    Some(id.0),
                    format!("reported started by a pass while {state:?}"),
                );
            }
        }
    }

    fn on_queue_disabled(&mut self, now: SimTime, _queue: SubmitQueue) {
        self.check_time(now);
    }

    fn on_placement(&mut self, now: SimTime, decision: &PlacementDecision<'_>) {
        let t = self.check_time(now);
        let id = decision.id;
        let assignments = decision.placement.assignments().to_vec();

        // The scheduler's view of the system must match the auditor's
        // independent ledger.
        if decision.idle_before != self.idle.as_slice() {
            let (seen, ledger) = (decision.idle_before.to_vec(), self.idle.clone());
            self.violation(
                ViolationKind::LedgerMismatch,
                t,
                Some(id.0),
                format!("scheduler saw idle {seen:?}, ledger says {ledger:?}"),
            );
        }

        // No component may land on a cluster a failure took fully
        // offline (the ledger also catches partial-outage overflow as
        // CapacityExceeded below).
        for &(c, _) in &assignments {
            if self.effective.get(c).copied() == Some(0) {
                self.violation(
                    ViolationKind::AllocationOnDownCluster,
                    t,
                    Some(id.0),
                    format!("component assigned to down cluster {c}"),
                );
            }
        }

        // Components on distinct clusters (§2.3).
        let mut clusters: Vec<usize> = assignments.iter().map(|&(c, _)| c).collect();
        clusters.sort_unstable();
        clusters.dedup();
        if clusters.len() != assignments.len() {
            self.violation(
                ViolationKind::DuplicateCluster,
                t,
                Some(id.0),
                format!("assignments {assignments:?} share a cluster"),
            );
        }

        // Lifecycle + FCFS + rule conformance need the job's record.
        let known = self
            .jobs
            .get(id.0 as usize)
            .and_then(Option::as_ref)
            .map(|info| (info.request.clone(), info.state, info.base_service));
        let Some((request, state, base_service)) = known else {
            self.unknown_job(t, id, "placement");
            return;
        };
        if state != JobState::Waiting {
            self.violation(
                ViolationKind::JobStateError,
                t,
                Some(id.0),
                format!("placed while {state:?}"),
            );
        }

        // FCFS: only the head of a queue may start (unless the policy
        // backfills by design). Either way the job leaves the mirror.
        self.head_watch.retain(|&(_, h, _)| h != id.0);
        match self.take_from_fifo(decision.queue, id.0) {
            FifoOutcome::Head => {}
            FifoOutcome::Overtook(ahead) => {
                if self.discipline.backfills() {
                    // Overtaking is the discipline working as designed —
                    // but only below the overtaken head's reservation.
                    let est_end = t + self.est_occupancy(&request, base_service, clusters.len());
                    self.check_reservation(t, id, decision.queue, ahead[0], est_end);
                } else if self.strict_fcfs {
                    // Overtaking a fault victim that was re-queued at
                    // the head to preserve its FCFS age is its own,
                    // more specific violation.
                    let victims: Vec<u64> = ahead
                        .iter()
                        .copied()
                        .filter(|&j| {
                            self.jobs
                                .get(j as usize)
                                .and_then(Option::as_ref)
                                .is_some_and(|info| info.requeued_front)
                        })
                        .collect();
                    if victims.is_empty() {
                        self.violation(
                            ViolationKind::FcfsOvertaking,
                            t,
                            Some(id.0),
                            format!("started ahead of waiting jobs {ahead:?}"),
                        );
                    } else {
                        self.violation(
                            ViolationKind::RequeueOrderViolation,
                            t,
                            Some(id.0),
                            format!("started ahead of re-queued fault victims {victims:?}"),
                        );
                    }
                }
            }
            FifoOutcome::Absent => self.violation(
                ViolationKind::JobStateError,
                t,
                Some(id.0),
                format!("placed but never waiting on {:?}", decision.queue),
            ),
            FifoOutcome::NoSuchQueue => self.violation(
                ViolationKind::JobStateError,
                t,
                Some(id.0),
                format!("placed from nonexistent {:?}", decision.queue),
            ),
        }

        // The placement must be exactly what the configured rule picks
        // given the idle state (Worst Fit in decreasing component
        // order, §2.3) — and must cover the request.
        let total: u32 = assignments.iter().map(|&(_, p)| p).sum();
        if total != request.total() {
            let want = request.total();
            self.violation(
                ViolationKind::PlacementRuleViolation,
                t,
                Some(id.0),
                format!("assignments cover {total} processors, request wants {want}"),
            );
        }
        let expected = place_scoped(&self.idle, &request, decision.scope, self.rule);
        match expected {
            Some(exp) if exp.assignments() == assignments.as_slice() => {}
            Some(exp) => {
                let want = exp.assignments().to_vec();
                let rule = self.rule;
                self.violation(
                    ViolationKind::PlacementRuleViolation,
                    t,
                    Some(id.0),
                    format!("{rule:?} dictates {want:?}, scheduler chose {assignments:?}"),
                );
            }
            None => {
                let idle = self.idle.clone();
                self.violation(
                    ViolationKind::PlacementRuleViolation,
                    t,
                    Some(id.0),
                    format!("placed {assignments:?} although nothing fits in idle {idle:?}"),
                );
            }
        }

        // Apply to the ledger; going below zero idle is a capacity
        // breach.
        for &(c, p) in &assignments {
            let shortfall = match self.idle.get_mut(c) {
                Some(idle) if *idle >= p => {
                    *idle -= p;
                    None
                }
                Some(idle) => {
                    let have = *idle;
                    *idle = 0;
                    Some(format!("component of {p} on cluster {c} with only {have} idle"))
                }
                None => Some(format!("component on nonexistent cluster {c}")),
            };
            if let Some(detail) = shortfall {
                self.violation(ViolationKind::CapacityExceeded, t, Some(id.0), detail);
            }
        }

        let span = clusters.len();
        if let Some(info) = self.job_mut(id) {
            info.state = JobState::Placed;
            info.span = span;
            info.assignments = assignments;
            info.requeued_front = false;
        }
    }

    fn on_start(&mut self, now: SimTime, id: JobId, _job: &ActiveJob, occupancy: Duration) {
        let t = self.check_time(now);
        let occ = occupancy.seconds();
        let est = self
            .jobs
            .get(id.0 as usize)
            .and_then(Option::as_ref)
            .map(|info| self.est_occupancy(&info.request, info.base_service, info.span));
        let known = match self.job_mut(id) {
            Some(info) => {
                let snapshot = (info.state, info.base_service, info.span);
                info.state = JobState::Running;
                info.start = t;
                info.occupancy = occ;
                info.est_end = t + est.unwrap_or(0.0);
                Some(snapshot)
            }
            None => None,
        };
        let Some((state, base, span)) = known else {
            self.unknown_job(t, id, "start");
            return;
        };
        if state != JobState::Placed {
            self.violation(
                ViolationKind::JobStateError,
                t,
                Some(id.0),
                format!("started while {state:?}"),
            );
            return; // span is meaningless without a placement
        }
        // The wide-area extension applies exactly once, and only to the
        // clusters the job actually spans (§2.4). Under a network model
        // this is still the *nominal* occupancy the engine announces —
        // contention reshapes the departure later, not the start.
        let factor = self.workload.extension_factor(span);
        let expected = base * factor;
        if (occ - expected).abs() > TOL * expected.max(1.0) {
            self.violation(
                ViolationKind::ExtensionMismatch,
                t,
                Some(id.0),
                format!(
                    "occupancy {occ} but base {base} × factor {factor} (span {span}) = {expected}"
                ),
            );
        }
        // A multi-cluster job opens a wide-area flow: mirror it, with
        // the full base service ahead of it at the nominal stretch.
        if span >= 2 && self.net_contended() {
            let mask = self
                .jobs
                .get(id.0 as usize)
                .and_then(Option::as_ref)
                .map_or(0, |info| cluster_mask(&info.assignments));
            self.accrue_flows(t);
            self.flows.push(MirrorFlow {
                id: id.0,
                mask,
                factor,
                remaining: base,
                stretch: factor,
                since: t,
            });
            self.rebalance_flows();
        }
    }

    fn on_completion(&mut self, now: SimTime, id: JobId, _job: &ActiveJob) {
        let t = self.check_time(now);
        let known = match self.job_mut(id) {
            Some(info) => {
                let snapshot = (info.state, info.start, info.occupancy);
                info.state = JobState::Done;
                Some((snapshot, std::mem::take(&mut info.assignments)))
            }
            None => None,
        };
        let Some(((state, start, occ), assignments)) = known else {
            self.unknown_job(t, id, "completion");
            return;
        };
        if state != JobState::Running {
            self.violation(
                ViolationKind::JobStateError,
                t,
                Some(id.0),
                format!("completed while {state:?}"),
            );
        }
        let held = t - start;
        if state == JobState::Running {
            if let Some(flow) = self.remove_flow(t, id.0) {
                // The generalized check: under bandwidth sharing the
                // held interval is load-dependent, but integrating the
                // mirrored flow's rate over it must consume exactly the
                // job's base work — gross-work conservation, of which
                // "extension applied exactly once" is the uncontended
                // special case.
                let residual = flow.remaining;
                if residual.abs() > NET_TOL * occ.max(1.0) {
                    self.violation(
                        ViolationKind::WorkConservation,
                        t,
                        Some(id.0),
                        format!(
                            "departed with {residual} base seconds unaccounted for at the \
                             mirrored flow rates (held {held}, nominal occupancy {occ})"
                        ),
                    );
                }
            } else if (held - occ).abs() > TOL * occ.max(1.0) {
                self.violation(
                    ViolationKind::ExtensionMismatch,
                    t,
                    Some(id.0),
                    format!("held processors for {held}, occupancy was {occ}"),
                );
            }
        }
        for (c, p) in assignments {
            // Releases are bounded by the *effective* capacity: while a
            // cluster is degraded, its offline processors cannot come
            // back via a job completion.
            let overflow = match self.idle.get_mut(c) {
                Some(idle) => {
                    *idle += p;
                    if *idle > self.effective[c] {
                        let (have, cap) = (*idle, self.effective[c]);
                        *idle = cap;
                        Some(format!("release left cluster {c} with {have} idle of {cap}"))
                    } else {
                        None
                    }
                }
                None => Some(format!("release on nonexistent cluster {c}")),
            };
            if let Some(detail) = overflow {
                self.violation(ViolationKind::CapacityExceeded, t, Some(id.0), detail);
            }
        }
    }

    fn on_cluster_down(&mut self, now: SimTime, cluster: usize, remaining: u32) {
        let t = self.check_time(now);
        // A failure invalidates every estimated release (victims are
        // killed or shrunk off-schedule): the starvation bound is no
        // longer sound for the rest of the run.
        self.starvation_armed = false;
        self.head_watch.clear();
        let Some(&cap) = self.system.capacities().get(cluster) else {
            self.violation(
                ViolationKind::InterruptAccountingError,
                t,
                None,
                format!("failure of nonexistent cluster {cluster}"),
            );
            return;
        };
        // Every running component on the cluster must have been
        // interrupted first, and earlier outages must have been
        // repaired (fault traces alternate down/up per cluster) — so
        // the ledger must show the cluster entirely idle at full
        // effective capacity.
        let (idle, eff) = (self.idle[cluster], self.effective[cluster]);
        if eff != cap {
            self.violation(
                ViolationKind::InterruptAccountingError,
                t,
                None,
                format!("cluster {cluster} failed while already degraded to {eff}/{cap}"),
            );
        } else if idle != cap {
            self.violation(
                ViolationKind::InterruptAccountingError,
                t,
                None,
                format!(
                    "cluster {cluster} went down with {} processors still held by running jobs",
                    cap - idle
                ),
            );
        }
        self.idle[cluster] = remaining.min(cap);
        self.effective[cluster] = remaining.min(cap);
    }

    fn on_cluster_up(&mut self, now: SimTime, cluster: usize) {
        let t = self.check_time(now);
        let Some(&cap) = self.system.capacities().get(cluster) else {
            self.violation(
                ViolationKind::InterruptAccountingError,
                t,
                None,
                format!("repair of nonexistent cluster {cluster}"),
            );
            return;
        };
        let eff = self.effective[cluster];
        if eff >= cap {
            self.violation(
                ViolationKind::InterruptAccountingError,
                t,
                None,
                format!("repair of cluster {cluster} which was not down"),
            );
            return;
        }
        self.idle[cluster] += cap - eff;
        self.effective[cluster] = cap;
    }

    fn on_job_interrupted(
        &mut self,
        now: SimTime,
        job: &ActiveJob,
        info: &super::Interruption<'_>,
    ) {
        let t = self.check_time(now);
        let id = info.id;
        let was = self.jobs.get(id.0 as usize).and_then(Option::as_ref).map(|i| i.state);
        let Some(state) = was else {
            self.unknown_job(t, id, "interruption");
            return;
        };
        if state != JobState::Running {
            self.violation(
                ViolationKind::InterruptAccountingError,
                t,
                Some(id.0),
                format!("interrupted while {state:?}"),
            );
        }
        // The released placement must be exactly what the job held.
        let held = self.jobs[id.0 as usize].as_ref().map(|i| i.assignments.clone());
        let released: Vec<(usize, u32)> = info.released.assignments().to_vec();
        if held.as_deref() != Some(released.as_slice()) {
            self.violation(
                ViolationKind::InterruptAccountingError,
                t,
                Some(id.0),
                format!("released {released:?} but held {held:?}"),
            );
        }
        // Return the processors to the ledger, bounded by the effective
        // capacities (the failed cluster is not degraded yet — the
        // session applies the outage after the victims are handled).
        for (c, p) in released {
            let overflow = match self.idle.get_mut(c) {
                Some(idle) => {
                    *idle += p;
                    if *idle > self.effective[c] {
                        let (have, cap) = (*idle, self.effective[c]);
                        *idle = cap;
                        Some(format!("interruption left cluster {c} with {have} idle of {cap}"))
                    } else {
                        None
                    }
                }
                None => Some(format!("interruption released on nonexistent cluster {c}")),
            };
            if let Some(detail) = overflow {
                self.violation(ViolationKind::InterruptAccountingError, t, Some(id.0), detail);
            }
        }
        // An interrupted job stops computing: its wide-area flow (if
        // the network model mirrors one) closes with it.
        self.remove_flow(t, id.0);
        // The victim's fate: back into the queue mirror (possibly with
        // a re-split request), or out of the system entirely.
        if let Some(slot) = self.jobs.get_mut(id.0 as usize).and_then(Option::as_mut) {
            slot.assignments.clear();
            slot.span = 0;
            slot.request = job.spec.request.clone();
            match info.disposition {
                crate::fault::InterruptPolicy::Abort => slot.state = JobState::Done,
                crate::fault::InterruptPolicy::RequeueFront
                | crate::fault::InterruptPolicy::RequeueBack => slot.state = JobState::Waiting,
            }
        }
        match info.disposition {
            crate::fault::InterruptPolicy::Abort => {}
            disposition => {
                let front = disposition == crate::fault::InterruptPolicy::RequeueFront;
                let pushed = match job.queue {
                    SubmitQueue::Global => {
                        if front {
                            self.waiting_global.push_front(id.0);
                        } else {
                            self.waiting_global.push_back(id.0);
                        }
                        true
                    }
                    SubmitQueue::Local(i) => match self.waiting_local.get_mut(i) {
                        Some(fifo) => {
                            if front {
                                fifo.push_front(id.0);
                            } else {
                                fifo.push_back(id.0);
                            }
                            true
                        }
                        None => false,
                    },
                };
                if !pushed {
                    self.violation(
                        ViolationKind::JobStateError,
                        t,
                        Some(id.0),
                        format!("re-queued on nonexistent {:?}", job.queue),
                    );
                } else if front {
                    if let Some(slot) = self.jobs.get_mut(id.0 as usize).and_then(Option::as_mut) {
                        slot.requeued_front = true;
                    }
                }
            }
        }
    }

    fn on_job_molded(&mut self, now: SimTime, id: JobId, from: &JobRequest, to: &JobRequest) {
        let t = self.check_time(now);
        let known = self
            .jobs
            .get(id.0 as usize)
            .and_then(Option::as_ref)
            .map(|info| (info.state, info.request.clone()));
        let Some((state, mirrored)) = known else {
            self.unknown_job(t, id, "molding");
            return;
        };
        if state != JobState::Waiting {
            self.violation(
                ViolationKind::JobStateError,
                t,
                Some(id.0),
                format!("molded while {state:?}"),
            );
        }
        if mirrored != *from {
            self.violation(
                ViolationKind::JobStateError,
                t,
                Some(id.0),
                format!("molded from {:?} but submitted {:?}", from.components(), mirrored),
            );
        }
        if from.total() != to.total() {
            let (was, is) = (from.total(), to.total());
            self.violation(
                ViolationKind::PlacementRuleViolation,
                t,
                Some(id.0),
                format!("molding changed the total: {was} processors to {is}"),
            );
        }
        // The mirror carries the molded split *before* the placement
        // hook, matching the emission order, so the rule-conformance
        // check re-derives the placement from the split actually used.
        if let Some(info) = self.job_mut(id) {
            info.request = to.clone();
        }
    }

    fn on_job_resized(&mut self, now: SimTime, _job: &ActiveJob, resize: &Resize<'_>) {
        let t = self.check_time(now);
        let id = resize.id;
        let known = self
            .jobs
            .get(id.0 as usize)
            .and_then(Option::as_ref)
            .map(|info| (info.state, info.assignments.clone()));
        let Some((state, held)) = known else {
            self.unknown_job(t, id, "resize");
            return;
        };
        if state != JobState::Running {
            self.violation(
                ViolationKind::JobStateError,
                t,
                Some(id.0),
                format!("resized while {state:?}"),
            );
            return;
        }
        // The released placement must be exactly what the job held.
        let from: Vec<(usize, u32)> = resize.from.assignments().to_vec();
        if held != from {
            self.violation(
                ViolationKind::ResizeConservation,
                t,
                Some(id.0),
                format!("resize released {from:?} but the job held {held:?}"),
            );
        }
        // Return the old placement to the ledger, then charge the new
        // one — the same capacity rules as a completion plus placement.
        for &(c, p) in &from {
            let overflow = match self.idle.get_mut(c) {
                Some(idle) => {
                    *idle += p;
                    if *idle > self.effective[c] {
                        let (have, cap) = (*idle, self.effective[c]);
                        *idle = cap;
                        Some(format!("resize left cluster {c} with {have} idle of {cap}"))
                    } else {
                        None
                    }
                }
                None => Some(format!("resize released on nonexistent cluster {c}")),
            };
            if let Some(detail) = overflow {
                self.violation(ViolationKind::CapacityExceeded, t, Some(id.0), detail);
            }
        }
        let to: Vec<(usize, u32)> = resize.to.assignments().to_vec();
        let mut to_clusters: Vec<usize> = to.iter().map(|&(c, _)| c).collect();
        to_clusters.sort_unstable();
        to_clusters.dedup();
        if to_clusters.len() != to.len() {
            self.violation(
                ViolationKind::DuplicateCluster,
                t,
                Some(id.0),
                format!("resized assignments {to:?} share a cluster"),
            );
        }
        for &(c, p) in &to {
            if self.effective.get(c).copied() == Some(0) {
                self.violation(
                    ViolationKind::AllocationOnDownCluster,
                    t,
                    Some(id.0),
                    format!("resize assigned a component to down cluster {c}"),
                );
            }
            let shortfall = match self.idle.get_mut(c) {
                Some(idle) if *idle >= p => {
                    *idle -= p;
                    None
                }
                Some(idle) => {
                    let have = *idle;
                    *idle = 0;
                    Some(format!("resized component of {p} on cluster {c} with only {have} idle"))
                }
                None => Some(format!("resized component on nonexistent cluster {c}")),
            };
            if let Some(detail) = shortfall {
                self.violation(ViolationKind::CapacityExceeded, t, Some(id.0), detail);
            }
        }
        let old_total = f64::from(resize.from.total());
        let new_total = f64::from(resize.to.total());
        let f_old = self.workload.extension_factor(resize.from.assignments().len());
        let f_new = self.workload.extension_factor(to_clusters.len());
        if self.net_contended() && self.flows.iter().any(|f| f.id == id.0) {
            // Under bandwidth sharing the engine prices the remainder at
            // the resized flow's max-min share: mirror the same step and
            // check the scheduled end against the mirror's.
            self.accrue_flows(t);
            let pos = self.flows.iter().position(|f| f.id == id.0).expect("found above");
            self.flows[pos].remaining *= old_total / new_total;
            self.flows[pos].factor = f_new;
            self.flows[pos].mask = cluster_mask(&to);
            let expected = if to_clusters.len() < 2 {
                // Shrunk out of the wide area: the remainder runs at the
                // new span's (single-cluster) factor, uncontended.
                let flow = self.flows.remove(pos);
                self.rebalance_flows();
                t + flow.remaining * f_new
            } else {
                self.rebalance_flows();
                let flow = self.flows.iter().find(|f| f.id == id.0).expect("still mirrored");
                t + flow.remaining * flow.stretch
            };
            let scheduled = resize.new_end.seconds();
            if (scheduled - expected).abs() > NET_TOL * expected.abs().max(1.0) {
                self.violation(
                    ViolationKind::WorkConservation,
                    t,
                    Some(id.0),
                    format!(
                        "resize rescheduled the departure to {scheduled} but the mirrored \
                         flow rates imply {expected}"
                    ),
                );
            }
        } else {
            // Base-work conservation: the remaining *base* work (gross
            // work deflated by each side's extension factor — a
            // span-changing resize re-derives its extension) is
            // invariant across the resize. The engine derives the new
            // end as `t + work/new_total`, so recovering the work
            // multiplies one rounding ulp of the (large) clock value by
            // the processor count — the tolerance must cover that
            // magnitude, not just the (possibly tiny) remaining work
            // itself.
            let old_work = (resize.old_end.seconds() - t) * old_total / f_old;
            let new_work = (resize.new_end.seconds() - t) * new_total / f_new;
            let ulp_work = f64::EPSILON
                * resize.new_end.seconds().abs().max(resize.old_end.seconds().abs())
                * f64::from(resize.to.total().max(resize.from.total()));
            if resize.new_end.seconds() < t - TOL
                || (old_work - new_work).abs() > TOL * old_work.abs().max(1.0) + 4.0 * ulp_work
            {
                self.violation(
                    ViolationKind::ResizeConservation,
                    t,
                    Some(id.0),
                    format!(
                        "remaining base work changed: {old_work} processor-seconds released \
                         (span factor {f_old}), {new_work} rescheduled (span factor {f_new})"
                    ),
                );
            }
        }
        // Mirror the new placement; the held-interval and estimate
        // checks follow the rescheduled departure from here on. The
        // estimate rescale mirrors the schedulers' own arithmetic
        // (processor ratio times the extension-factor ratio).
        if let Some(info) = self.job_mut(id) {
            info.span = to_clusters.len();
            info.assignments = to;
            info.occupancy = resize.new_end.seconds() - info.start;
            if info.est_end.is_finite() && new_total > 0.0 {
                info.est_end = t + (info.est_end - t) * old_total / new_total * (f_new / f_old);
            }
        }
    }

    fn on_run_end(&mut self, now: SimTime) {
        self.check_time(now);
        // Every processor not held by a job the mirror still has running
        // must be idle again: a drained run has returned all of them (up
        // to the effective capacity — a trace may leave a cluster down
        // at the end of the run), and a constant-backlog run, which
        // stops with the machine busy, exactly the running jobs' share.
        let mut held = vec![0u32; self.idle.len()];
        for info in self.jobs.iter().flatten().filter(|info| info.state == JobState::Running) {
            for &(c, procs) in &info.assignments {
                if let Some(h) = held.get_mut(c) {
                    *h += procs;
                }
            }
        }
        for (i, held) in held.into_iter().enumerate() {
            let (idle, eff) = (self.idle[i], self.effective[i]);
            if u64::from(idle) + u64::from(held) != u64::from(eff) {
                self.violation(
                    ViolationKind::JobStateError,
                    now.seconds(),
                    None,
                    format!(
                        "run ended with cluster {i} at {idle}/{eff} idle, {held} held by running jobs"
                    ),
                );
            }
        }
    }
}
