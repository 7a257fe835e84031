//! Mutation-style tests: wire deliberately broken schedulers (or a
//! broken occupancy model) into the *real* simulation loop and prove
//! the [`InvariantAuditor`] trips the expected, distinct
//! [`ViolationKind`] for each seeded bug — and stays silent on the
//! faithful simulator.

use coalloc_workload::{JobRequest, JobSpec, Workload};
use desim::{Duration, SimTime};

use crate::feed::{JobFeed, StochasticFeed};
use crate::job::{ActiveJob, JobId, JobTable, Placement, SubmitQueue};
use crate::placement::{place_request, PlacementRule};
use crate::policy::{GlobalScheduler, PolicyKind, Scheduler};
use crate::sim::{OccupancyModel, Session, SimBuilder, SimConfig, SimOutcome};
use crate::system::{MultiCluster, SystemSpec};

use super::{
    Interruption, InvariantAuditor, JsonlSink, PassTrigger, PlacementDecision, PlacementScope,
    SimObserver, ViolationKind,
};
use crate::fault::InterruptPolicy;

/// A fixed, scripted job stream for the mutant scenarios.
struct VecFeed {
    jobs: std::vec::IntoIter<(f64, JobSpec)>,
}

impl VecFeed {
    /// `(arrival_seconds, components, base_service_seconds)` per job.
    fn new(jobs: &[(f64, &[u32], f64)]) -> Self {
        let jobs: Vec<(f64, JobSpec)> = jobs
            .iter()
            .map(|&(t, components, service)| {
                (
                    t,
                    JobSpec {
                        request: JobRequest::new(components.to_vec()),
                        base_service: Duration::new(service),
                    },
                )
            })
            .collect();
        VecFeed { jobs: jobs.into_iter() }
    }
}

impl JobFeed for VecFeed {
    fn next_job(&mut self) -> Option<(SimTime, JobSpec)> {
        self.jobs.next().map(|(t, spec)| (SimTime::new(t), spec))
    }
}

/// A config for scripted runs: the 4×32 system under GS (strict FCFS),
/// with the knobs the stochastic feed would use left at harmless
/// values.
fn scripted_cfg(jobs: u64) -> SimConfig {
    let mut cfg = SimConfig::das(PolicyKind::Gs, 32, 0.5);
    cfg.total_jobs = jobs;
    cfg.warmup_jobs = 0;
    cfg.batch_size = 1;
    cfg
}

/// Runs `feed` through the real event loop under an explicit, boxed
/// scheduler and occupancy model: the seam every mutant is wired in
/// through. Release builds have no such seam — [`SimBuilder`] always
/// builds the config's own policy.
fn run_seeded<F: JobFeed, O: SimObserver>(
    cfg: &SimConfig,
    feed: &mut F,
    mut policy: Box<dyn Scheduler>,
    model: OccupancyModel,
    obs: &mut O,
    offered: f64,
) -> SimOutcome {
    Session::new(cfg, feed, policy.as_mut(), obs, offered, model).run()
}

#[test]
fn an_explicit_scheduler_reproduces_the_config_built_one() {
    // The seam itself is faithful: the config's own policy wired in
    // through it reproduces the builder's run bit for bit, so a
    // mutant's violations come from its seeded bug alone.
    let mut cfg = SimConfig::das(PolicyKind::Gb, 16, 0.5);
    cfg.total_jobs = 4_000;
    cfg.warmup_jobs = 400;
    cfg.batch_size = 100;
    let master = desim::RngStream::new(cfg.seed);
    let policy =
        cfg.policy.build(&cfg.system, cfg.routing.clone(), master.labelled("routing"), cfg.rule);
    let mut feed = StochasticFeed::new(
        cfg.workload.clone(),
        cfg.arrival_rate,
        cfg.arrival_cv2,
        cfg.total_jobs,
        &master,
    );
    let mut sink = JsonlSink::new(Vec::new());
    let offered = cfg.offered_gross_utilization();
    let explicit =
        run_seeded(&cfg, &mut feed, policy, OccupancyModel::Faithful, &mut sink, offered);
    assert!(!sink.finish().expect("log written").is_empty());
    let json = |out: &SimOutcome| serde_json::to_string(out).expect("SimOutcome serializes");
    assert_eq!(json(&explicit), json(&SimBuilder::new(&cfg).run()), "explicit scheduler vs run");
}

// ---------------------------------------------------------------------
// Mutant 1: FCFS overtaking. A scheduler that scans the whole queue and
// starts the *first fitting* job — correct placements, wrong order.
// ---------------------------------------------------------------------

struct OvertakingScheduler {
    queue: std::collections::VecDeque<JobId>,
    rule: PlacementRule,
}

impl Scheduler for OvertakingScheduler {
    fn name(&self) -> &'static str {
        "GS-overtaking-mutant"
    }

    fn route(&mut self, _spec: &JobSpec) -> SubmitQueue {
        SubmitQueue::Global
    }

    fn enqueue(&mut self, id: JobId, _queue: SubmitQueue) {
        self.queue.push_back(id);
    }

    fn on_departure(&mut self) {}

    fn schedule_into(
        &mut self,
        now: SimTime,
        system: &mut MultiCluster,
        table: &mut JobTable,
        obs: &mut dyn SimObserver,
        started: &mut Vec<JobId>,
    ) {
        loop {
            let idle = system.idle_per_cluster();
            let hit = self.queue.iter().enumerate().find_map(|(pos, &id)| {
                place_request(idle, &table.get(id).spec.request, self.rule).map(|p| (pos, id, p))
            });
            match hit {
                Some((pos, id, placement)) => {
                    obs.on_placement(
                        now,
                        &PlacementDecision {
                            id,
                            queue: SubmitQueue::Global,
                            scope: PlacementScope::System,
                            idle_before: system.idle_per_cluster(),
                            placement: &placement,
                        },
                    );
                    system.apply(&placement);
                    table.mark_started(id, placement, now, f64::INFINITY);
                    self.queue.remove(pos);
                    started.push(id);
                }
                None => break,
            }
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

#[test]
fn overtaking_mutant_trips_fcfs_overtaking() {
    // A (64 → [32,32]) fills two clusters; B (128) blocks; C (8) fits.
    // A faithful GS leaves C waiting behind B — the mutant starts it.
    let cfg = scripted_cfg(3);
    let mut feed = VecFeed::new(&[
        (0.0, &[32, 32], 1000.0),
        (1.0, &[32, 32, 32, 32], 1000.0),
        (2.0, &[8], 1000.0),
    ]);
    let mut auditor = InvariantAuditor::new(&cfg);
    let policy = Box::new(OvertakingScheduler {
        queue: std::collections::VecDeque::new(),
        rule: PlacementRule::WorstFit,
    });
    run_seeded(&cfg, &mut feed, policy, OccupancyModel::Faithful, &mut auditor, f64::NAN);
    assert!(
        auditor.has(ViolationKind::FcfsOvertaking),
        "expected FcfsOvertaking, got: {}",
        auditor.report()
    );
    assert!(!auditor.has(ViolationKind::PlacementRuleViolation), "{}", auditor.report());
    assert!(!auditor.has(ViolationKind::ExtensionMismatch), "{}", auditor.report());
}

#[test]
fn overtaking_is_by_design_for_gb() {
    // The same scan-ahead behaviour is GB's documented backfilling; with
    // `policy: Gb` the auditor relaxes FCFS and the run is clean.
    let mut cfg = scripted_cfg(3);
    cfg.policy = PolicyKind::Gb;
    let mut feed = VecFeed::new(&[
        (0.0, &[32, 32], 1000.0),
        (1.0, &[32, 32, 32, 32], 1000.0),
        (2.0, &[8], 1000.0),
    ]);
    let mut auditor = InvariantAuditor::new(&cfg);
    let policy = Box::new(OvertakingScheduler {
        queue: std::collections::VecDeque::new(),
        rule: PlacementRule::WorstFit,
    });
    run_seeded(&cfg, &mut feed, policy, OccupancyModel::Faithful, &mut auditor, f64::NAN);
    auditor.assert_clean();
}

// ---------------------------------------------------------------------
// Mutant 2: Best Fit instead of Worst Fit. The stock GS scheduler with
// the wrong placement rule, audited against the configured Worst Fit.
// ---------------------------------------------------------------------

#[test]
fn best_fit_mutant_trips_placement_rule_violation() {
    // After [16] lands on cluster 0, an [8] job separates the rules:
    // Worst Fit picks an empty cluster, Best Fit squeezes into 0.
    let cfg = scripted_cfg(2);
    assert_eq!(cfg.rule, PlacementRule::WorstFit);
    let mut feed = VecFeed::new(&[(0.0, &[16], 1000.0), (1.0, &[8], 1000.0)]);
    let mut auditor = InvariantAuditor::new(&cfg);
    let policy = Box::new(GlobalScheduler::new(PlacementRule::BestFit));
    run_seeded(&cfg, &mut feed, policy, OccupancyModel::Faithful, &mut auditor, f64::NAN);
    assert!(
        auditor.has(ViolationKind::PlacementRuleViolation),
        "expected PlacementRuleViolation, got: {}",
        auditor.report()
    );
    assert!(!auditor.has(ViolationKind::FcfsOvertaking), "{}", auditor.report());
    assert!(!auditor.has(ViolationKind::ExtensionMismatch), "{}", auditor.report());
}

// ---------------------------------------------------------------------
// Mutant 3: the wide-area extension applied twice. The stock GS
// scheduler, but occupancies scaled by the extension factor a second
// time on top of the already-extended service.
// ---------------------------------------------------------------------

#[test]
fn double_extension_mutant_trips_extension_mismatch() {
    let cfg = scripted_cfg(2);
    // One multi-component job (hit by the 1.25× factor twice under the
    // mutant) and one single-component job (factor 1, unaffected).
    let mut feed = VecFeed::new(&[(0.0, &[32, 32], 100.0), (1.0, &[8], 100.0)]);
    let mut auditor = InvariantAuditor::new(&cfg);
    let policy = Box::new(GlobalScheduler::new(PlacementRule::WorstFit));
    run_seeded(&cfg, &mut feed, policy, OccupancyModel::DoubleExtension, &mut auditor, f64::NAN);
    assert!(
        auditor.has(ViolationKind::ExtensionMismatch),
        "expected ExtensionMismatch, got: {}",
        auditor.report()
    );
    assert!(!auditor.has(ViolationKind::FcfsOvertaking), "{}", auditor.report());
    assert!(!auditor.has(ViolationKind::PlacementRuleViolation), "{}", auditor.report());
}

#[test]
fn double_extension_is_invisible_on_single_component_jobs() {
    // Factor 1.0 twice is still 1.0: the mutant only betrays itself on
    // multi-component jobs, and the auditor agrees.
    let cfg = scripted_cfg(2);
    let mut feed = VecFeed::new(&[(0.0, &[8], 100.0), (1.0, &[4], 100.0)]);
    let mut auditor = InvariantAuditor::new(&cfg);
    let policy = Box::new(GlobalScheduler::new(PlacementRule::WorstFit));
    run_seeded(&cfg, &mut feed, policy, OccupancyModel::DoubleExtension, &mut auditor, f64::NAN);
    auditor.assert_clean();
}

// ---------------------------------------------------------------------
// Control: the unmutated simulator is clean under every policy.
// ---------------------------------------------------------------------

#[test]
fn faithful_runs_are_clean_for_every_policy() {
    for policy in [PolicyKind::Gs, PolicyKind::Ls, PolicyKind::Lp, PolicyKind::Gb] {
        let mut cfg = SimConfig::das(policy, 32, 0.6);
        cfg.total_jobs = 400;
        cfg.warmup_jobs = 50;
        let mut auditor = InvariantAuditor::new(&cfg);
        SimBuilder::new(&cfg).run_observed(&mut auditor);
        assert!(auditor.is_clean(), "{policy:?}: {}", auditor.report());
    }
    let mut cfg = SimConfig::das_single_cluster(0.6);
    cfg.total_jobs = 400;
    cfg.warmup_jobs = 50;
    let mut auditor = InvariantAuditor::new(&cfg);
    SimBuilder::new(&cfg).run_observed(&mut auditor);
    assert!(auditor.is_clean(), "Sc: {}", auditor.report());
}

// ---------------------------------------------------------------------
// Synthetic event sequences for the kinds no end-to-end mutant reaches:
// the auditor is fed hand-crafted (and subtly corrupt) event streams.
// ---------------------------------------------------------------------

fn synthetic_auditor() -> InvariantAuditor {
    InvariantAuditor::with_parts(
        SystemSpec::das_multicluster(),
        Workload::das(32),
        PlacementRule::WorstFit,
        true,
    )
}

/// Arrive + enqueue one global job, returning its id and table.
fn arrive(
    auditor: &mut InvariantAuditor,
    table: &mut JobTable,
    components: &[u32],
    t: f64,
) -> JobId {
    let spec = JobSpec {
        request: JobRequest::new(components.to_vec()),
        base_service: Duration::new(100.0),
    };
    let id = table.insert(ActiveJob::new(spec, SimTime::new(t), SubmitQueue::Global));
    auditor.on_arrival(SimTime::new(t), id, table.get(id));
    auditor.on_enqueue(SimTime::new(t), id, SubmitQueue::Global);
    id
}

/// Places a job exactly as Worst Fit dictates on `idle`, reports the
/// decision and the start, and mirrors the ledger change into `idle`.
fn place_and_start(
    auditor: &mut InvariantAuditor,
    table: &mut JobTable,
    idle: &mut [u32],
    id: JobId,
    t: f64,
) -> Placement {
    let p = place_request(idle, &table.get(id).spec.request, PlacementRule::WorstFit)
        .expect("request fits the idle system");
    auditor.on_placement(
        SimTime::new(t),
        &PlacementDecision {
            id,
            queue: SubmitQueue::Global,
            scope: PlacementScope::System,
            idle_before: idle,
            placement: &p,
        },
    );
    for &(c, n) in p.assignments() {
        idle[c] -= n;
    }
    let occ = 100.0 * Workload::das(32).extension_factor(p.assignments().len());
    table.mark_started(id, p.clone(), SimTime::new(t), f64::INFINITY);
    auditor.on_start(SimTime::new(t), id, table.get(id), Duration::new(occ));
    p
}

#[test]
fn non_monotonic_time_is_caught() {
    let mut auditor = synthetic_auditor();
    auditor.on_pass(SimTime::new(1.0), PassTrigger::Arrival);
    auditor.on_pass(SimTime::new(0.5), PassTrigger::Departure);
    assert!(auditor.has(ViolationKind::NonMonotonicTime), "{}", auditor.report());
}

#[test]
fn duplicate_cluster_is_caught() {
    let mut auditor = synthetic_auditor();
    let mut table = JobTable::new();
    let id = arrive(&mut auditor, &mut table, &[8, 8], 0.0);
    let bogus = Placement::raw(vec![(0, 8), (0, 8)]);
    auditor.on_placement(
        SimTime::new(0.0),
        &PlacementDecision {
            id,
            queue: SubmitQueue::Global,
            scope: PlacementScope::System,
            idle_before: &[32, 32, 32, 32],
            placement: &bogus,
        },
    );
    assert!(auditor.has(ViolationKind::DuplicateCluster), "{}", auditor.report());
}

#[test]
fn capacity_exceeded_is_caught() {
    let mut auditor = synthetic_auditor();
    let mut table = JobTable::new();
    // A first, rule-conformant placement empties one cluster …
    let a = arrive(&mut auditor, &mut table, &[32], 0.0);
    let first =
        place_request(&[32, 32, 32, 32], &table.get(a).spec.request, PlacementRule::WorstFit)
            .expect("fits an idle system");
    let target = first.assignments()[0].0;
    auditor.on_placement(
        SimTime::new(0.0),
        &PlacementDecision {
            id: a,
            queue: SubmitQueue::Global,
            scope: PlacementScope::System,
            idle_before: &[32, 32, 32, 32],
            placement: &first,
        },
    );
    // … then a second 32-wide component lands on that same full cluster.
    let b = arrive(&mut auditor, &mut table, &[32], 1.0);
    let bogus = Placement::new(vec![(target, 32)]);
    let mut honest_idle = vec![32u32; 4];
    honest_idle[target] = 0;
    auditor.on_placement(
        SimTime::new(1.0),
        &PlacementDecision {
            id: b,
            queue: SubmitQueue::Global,
            scope: PlacementScope::System,
            idle_before: &honest_idle,
            placement: &bogus,
        },
    );
    assert!(auditor.has(ViolationKind::CapacityExceeded), "{}", auditor.report());
    assert!(!auditor.has(ViolationKind::LedgerMismatch), "{}", auditor.report());
}

#[test]
fn job_state_errors_are_caught() {
    let mut auditor = synthetic_auditor();
    let mut table = JobTable::new();
    // Starting a job the auditor never saw arrive.
    let spec = JobSpec { request: JobRequest::new(vec![8]), base_service: Duration::new(1.0) };
    let ghost = table.insert(ActiveJob::new(spec, SimTime::new(0.0), SubmitQueue::Global));
    auditor.on_start(SimTime::new(0.0), ghost, table.get(ghost), Duration::new(1.0));
    assert!(auditor.has(ViolationKind::JobStateError), "{}", auditor.report());

    // Completing a job that is still waiting.
    let mut auditor = synthetic_auditor();
    let id = arrive(&mut auditor, &mut table, &[8], 0.0);
    auditor.on_completion(SimTime::new(1.0), id, table.get(id));
    assert!(auditor.has(ViolationKind::JobStateError), "{}", auditor.report());
}

#[test]
fn ledger_mismatch_is_caught() {
    let mut auditor = synthetic_auditor();
    let mut table = JobTable::new();
    let id = arrive(&mut auditor, &mut table, &[8], 0.0);
    // The assignment itself is exactly what Worst Fit dictates on the
    // true (all-idle) system; only the reported snapshot lies.
    let p = Placement::new(vec![(0, 8)]);
    auditor.on_placement(
        SimTime::new(0.0),
        &PlacementDecision {
            id,
            queue: SubmitQueue::Global,
            scope: PlacementScope::System,
            idle_before: &[31, 32, 32, 32],
            placement: &p,
        },
    );
    assert!(auditor.has(ViolationKind::LedgerMismatch), "{}", auditor.report());
    assert!(!auditor.has(ViolationKind::CapacityExceeded), "{}", auditor.report());
}

// ---------------------------------------------------------------------
// Fault-injection mutants: each of the three fault-era violation kinds
// proven by a seeded corrupt event sequence, plus a clean control.
// ---------------------------------------------------------------------

#[test]
fn allocation_on_down_cluster_is_caught() {
    let mut auditor = synthetic_auditor();
    let mut table = JobTable::new();
    // Cluster 0 fails cleanly (idle, full capacity) — then a component
    // is assigned to it anyway.
    auditor.on_cluster_down(SimTime::new(0.0), 0, 0);
    let id = arrive(&mut auditor, &mut table, &[8], 1.0);
    let bogus = Placement::new(vec![(0, 8)]);
    auditor.on_placement(
        SimTime::new(1.0),
        &PlacementDecision {
            id,
            queue: SubmitQueue::Global,
            scope: PlacementScope::System,
            idle_before: &[0, 32, 32, 32],
            placement: &bogus,
        },
    );
    assert!(
        auditor.has(ViolationKind::AllocationOnDownCluster),
        "expected AllocationOnDownCluster, got: {}",
        auditor.report()
    );
    assert!(!auditor.has(ViolationKind::InterruptAccountingError), "{}", auditor.report());
    assert!(!auditor.has(ViolationKind::RequeueOrderViolation), "{}", auditor.report());
}

#[test]
fn requeue_order_violation_is_distinct_from_fcfs_overtaking() {
    let mut auditor = synthetic_auditor();
    let mut table = JobTable::new();
    let mut idle = vec![32u32; 4];
    // A runs, B waits behind it.
    let a = arrive(&mut auditor, &mut table, &[8], 0.0);
    let pa = place_and_start(&mut auditor, &mut table, &mut idle, a, 0.0);
    let b = arrive(&mut auditor, &mut table, &[8], 1.0);
    // A's cluster fails: A is re-queued at the *front* to preserve its
    // FCFS age.
    let fc = pa.assignments()[0].0;
    auditor.on_job_interrupted(
        SimTime::new(2.0),
        table.get(a),
        &Interruption {
            id: a,
            cluster: fc,
            released: &pa,
            disposition: InterruptPolicy::RequeueFront,
            resplit: false,
        },
    );
    for &(c, n) in pa.assignments() {
        idle[c] += n;
    }
    auditor.on_cluster_down(SimTime::new(2.0), fc, 0);
    idle[fc] = 0;
    // Starting B now jumps the re-queued victim: the specific
    // RequeueOrderViolation, not the generic FcfsOvertaking.
    let pb = place_request(&idle, &table.get(b).spec.request, PlacementRule::WorstFit)
        .expect("fits the surviving clusters");
    auditor.on_placement(
        SimTime::new(3.0),
        &PlacementDecision {
            id: b,
            queue: SubmitQueue::Global,
            scope: PlacementScope::System,
            idle_before: &idle,
            placement: &pb,
        },
    );
    assert!(
        auditor.has(ViolationKind::RequeueOrderViolation),
        "expected RequeueOrderViolation, got: {}",
        auditor.report()
    );
    assert!(!auditor.has(ViolationKind::FcfsOvertaking), "{}", auditor.report());
    assert!(!auditor.has(ViolationKind::InterruptAccountingError), "{}", auditor.report());
}

#[test]
fn interrupt_accounting_errors_are_caught() {
    // (a) The interruption releases a placement the job never held.
    let mut auditor = synthetic_auditor();
    let mut table = JobTable::new();
    let mut idle = vec![32u32; 4];
    let a = arrive(&mut auditor, &mut table, &[8], 0.0);
    let pa = place_and_start(&mut auditor, &mut table, &mut idle, a, 0.0);
    let c = pa.assignments()[0].0;
    let wrong = Placement::new(vec![(c, 4)]);
    auditor.on_job_interrupted(
        SimTime::new(1.0),
        table.get(a),
        &Interruption {
            id: a,
            cluster: c,
            released: &wrong,
            disposition: InterruptPolicy::RequeueBack,
            resplit: false,
        },
    );
    assert!(auditor.has(ViolationKind::InterruptAccountingError), "{}", auditor.report());

    // (b) Interrupting a job that is still waiting.
    let mut auditor = synthetic_auditor();
    let b = arrive(&mut auditor, &mut table, &[8], 0.0);
    let ghost = Placement::new(vec![(1, 8)]);
    auditor.on_job_interrupted(
        SimTime::new(1.0),
        table.get(b),
        &Interruption {
            id: b,
            cluster: 1,
            released: &ghost,
            disposition: InterruptPolicy::RequeueBack,
            resplit: false,
        },
    );
    assert!(auditor.has(ViolationKind::InterruptAccountingError), "{}", auditor.report());

    // (c) Repairing a cluster that was never down.
    let mut auditor = synthetic_auditor();
    auditor.on_cluster_up(SimTime::new(0.0), 2);
    assert!(auditor.has(ViolationKind::InterruptAccountingError), "{}", auditor.report());

    // (d) A failure arriving with victims still running on the cluster.
    let mut auditor = synthetic_auditor();
    let mut table = JobTable::new();
    let mut idle = vec![32u32; 4];
    let d = arrive(&mut auditor, &mut table, &[8], 0.0);
    let pd = place_and_start(&mut auditor, &mut table, &mut idle, d, 0.0);
    auditor.on_cluster_down(SimTime::new(1.0), pd.assignments()[0].0, 0);
    assert!(auditor.has(ViolationKind::InterruptAccountingError), "{}", auditor.report());
}

// ---------------------------------------------------------------------
// Backfilling and malleability mutants: ReservationViolation,
// BackfillStarvation, and ResizeConservation each proven by a seeded
// corrupt event sequence, with clean controls and neighbor silence.
// ---------------------------------------------------------------------

fn backfill_auditor() -> InvariantAuditor {
    synthetic_auditor().with_discipline(crate::queue::QueueDiscipline::Easy, 2.0)
}

/// Arrive + enqueue one global job with an explicit base service.
fn arrive_with_service(
    auditor: &mut InvariantAuditor,
    table: &mut JobTable,
    components: &[u32],
    service: f64,
    t: f64,
) -> JobId {
    let spec = JobSpec {
        request: JobRequest::new(components.to_vec()),
        base_service: Duration::new(service),
    };
    let id = table.insert(ActiveJob::new(spec, SimTime::new(t), SubmitQueue::Global));
    auditor.on_arrival(SimTime::new(t), id, table.get(id));
    auditor.on_enqueue(SimTime::new(t), id, SubmitQueue::Global);
    id
}

/// The EASY scenario shared by the backfilling mutants: A ([32], 100s)
/// holds cluster 0 with estimated end 200 (factor 2); B (the whole
/// system) blocks at the head with its reservation at A's estimated
/// release; C ([8], `c_service`) backfills past B.
fn easy_scenario(
    auditor: &mut InvariantAuditor,
    table: &mut JobTable,
    c_service: f64,
) -> (JobId, JobId, JobId) {
    let mut idle = vec![32u32; 4];
    let a = arrive_with_service(auditor, table, &[32], 100.0, 0.0);
    place_and_start(auditor, table, &mut idle, a, 0.0);
    let b = arrive_with_service(auditor, table, &[32, 32, 32, 32], 100.0, 1.0);
    let c = arrive_with_service(auditor, table, &[8], c_service, 2.0);
    let pc = place_request(&idle, &table.get(c).spec.request, PlacementRule::WorstFit)
        .expect("the backfiller fits the surviving idle");
    auditor.on_placement(
        SimTime::new(2.0),
        &PlacementDecision {
            id: c,
            queue: SubmitQueue::Global,
            scope: PlacementScope::System,
            idle_before: &idle,
            placement: &pc,
        },
    );
    table.mark_started(c, pc, SimTime::new(2.0), f64::INFINITY);
    auditor.on_start(SimTime::new(2.0), c, table.get(c), Duration::new(c_service));
    (a, b, c)
}

#[test]
fn long_backfill_trips_reservation_violation() {
    // C's estimated end (2 + 2×150 = 302) lands past B's reservation at
    // 200 — an EASY scheduler must not have started it.
    let mut auditor = backfill_auditor();
    let mut table = JobTable::new();
    easy_scenario(&mut auditor, &mut table, 150.0);
    assert!(
        auditor.has(ViolationKind::ReservationViolation),
        "expected ReservationViolation, got: {}",
        auditor.report()
    );
    assert!(!auditor.has(ViolationKind::FcfsOvertaking), "{}", auditor.report());
    assert!(!auditor.has(ViolationKind::BackfillStarvation), "{}", auditor.report());
}

#[test]
fn short_backfill_respects_the_reservation() {
    // The same overtake with a short C (estimated end 102 < 200) is the
    // discipline working as designed: no violation of any kind.
    let mut auditor = backfill_auditor();
    let mut table = JobTable::new();
    easy_scenario(&mut auditor, &mut table, 50.0);
    auditor.assert_clean();
}

#[test]
fn starved_head_trips_backfill_starvation() {
    // A legal backfill, but the head is still waiting at t = 300 — past
    // its reservation at 200. The pass at 300 flags the starvation.
    let mut auditor = backfill_auditor();
    let mut table = JobTable::new();
    easy_scenario(&mut auditor, &mut table, 50.0);
    auditor.on_pass(SimTime::new(300.0), PassTrigger::Departure);
    assert!(
        auditor.has(ViolationKind::BackfillStarvation),
        "expected BackfillStarvation, got: {}",
        auditor.report()
    );
    assert!(!auditor.has(ViolationKind::ReservationViolation), "{}", auditor.report());
    assert!(!auditor.has(ViolationKind::FcfsOvertaking), "{}", auditor.report());
}

#[test]
fn head_started_by_its_reservation_is_clean() {
    // Control: C and A complete on time, B starts at t = 100 (before its
    // reservation at 200) — the watch clears and the late pass is quiet.
    let mut auditor = backfill_auditor();
    let mut table = JobTable::new();
    let (a, b, c) = easy_scenario(&mut auditor, &mut table, 50.0);
    auditor.on_completion(SimTime::new(52.0), c, table.get(c));
    auditor.on_completion(SimTime::new(100.0), a, table.get(a));
    let idle = vec![32u32; 4];
    let pb = place_request(&idle, &table.get(b).spec.request, PlacementRule::WorstFit)
        .expect("the head fits the drained system");
    auditor.on_placement(
        SimTime::new(100.0),
        &PlacementDecision {
            id: b,
            queue: SubmitQueue::Global,
            scope: PlacementScope::System,
            idle_before: &idle,
            placement: &pb,
        },
    );
    let span = pb.assignments().len();
    let occ = 100.0 * Workload::das(32).extension_factor(span);
    table.mark_started(b, pb, SimTime::new(100.0), f64::INFINITY);
    auditor.on_start(SimTime::new(100.0), b, table.get(b), Duration::new(occ));
    auditor.on_pass(SimTime::new(300.0), PassTrigger::Departure);
    auditor.assert_clean();
}

#[test]
fn non_conserving_resize_trips_resize_conservation() {
    // Doubling A's processors at t = 20 must pull its departure from 100
    // to 60 (80 remaining seconds × 16/32). The mutant reschedules to 80,
    // quietly shrinking the job's remaining work.
    let mut auditor = backfill_auditor();
    let mut table = JobTable::new();
    let mut idle = vec![32u32; 4];
    let a = arrive_with_service(&mut auditor, &mut table, &[16], 100.0, 0.0);
    let pa = place_and_start(&mut auditor, &mut table, &mut idle, a, 0.0);
    let cluster = pa.assignments()[0].0;
    let grown = Placement::new(vec![(cluster, 32)]);
    auditor.on_job_resized(
        SimTime::new(20.0),
        table.get(a),
        &super::Resize {
            id: a,
            from: &pa,
            to: &grown,
            old_end: SimTime::new(100.0),
            new_end: SimTime::new(80.0),
        },
    );
    assert!(
        auditor.has(ViolationKind::ResizeConservation),
        "expected ResizeConservation, got: {}",
        auditor.report()
    );
    assert!(!auditor.has(ViolationKind::CapacityExceeded), "{}", auditor.report());
    assert!(!auditor.has(ViolationKind::DuplicateCluster), "{}", auditor.report());

    // Releasing a placement the job never held is the same kind.
    let mut auditor = backfill_auditor();
    let mut table = JobTable::new();
    let mut idle = vec![32u32; 4];
    let b = arrive_with_service(&mut auditor, &mut table, &[16], 100.0, 0.0);
    let pb = place_and_start(&mut auditor, &mut table, &mut idle, b, 0.0);
    let cluster = pb.assignments()[0].0;
    let phantom = Placement::new(vec![(cluster, 8)]);
    auditor.on_job_resized(
        SimTime::new(20.0),
        table.get(b),
        &super::Resize {
            id: b,
            from: &phantom,
            to: &Placement::new(vec![(cluster, 16)]),
            old_end: SimTime::new(100.0),
            new_end: SimTime::new(100.0),
        },
    );
    assert!(auditor.has(ViolationKind::ResizeConservation), "{}", auditor.report());
}

#[test]
fn conserving_resize_passes_the_audit() {
    // The faithful resize: to 32 processors at t = 20, departure moved to
    // 60, completion at 60 — clean end to end.
    let mut auditor = backfill_auditor();
    let mut table = JobTable::new();
    let mut idle = vec![32u32; 4];
    let a = arrive_with_service(&mut auditor, &mut table, &[16], 100.0, 0.0);
    let pa = place_and_start(&mut auditor, &mut table, &mut idle, a, 0.0);
    let cluster = pa.assignments()[0].0;
    let grown = Placement::new(vec![(cluster, 32)]);
    auditor.on_job_resized(
        SimTime::new(20.0),
        table.get(a),
        &super::Resize {
            id: a,
            from: &pa,
            to: &grown,
            old_end: SimTime::new(100.0),
            new_end: SimTime::new(60.0),
        },
    );
    auditor.on_completion(SimTime::new(60.0), a, table.get(a));
    auditor.assert_clean();
}

#[test]
fn span_changing_resize_with_stale_extension_trips_resize_conservation() {
    // A 2→1-cluster shrink sheds the 1.25 wide-area extension: the
    // remaining base work at t = 25 is (125 − 25)·32/1.25 = 2560
    // processor-seconds, which 16 unextended processors clear by
    // t = 185. The mutant conserves *extended* seconds instead (the
    // pre-fix engine formula), rescheduling to 25 + 100·32/16 = 225 —
    // base work was silently created.
    let mut auditor = backfill_auditor();
    let mut table = JobTable::new();
    let mut idle = vec![32u32; 4];
    let a = arrive_with_service(&mut auditor, &mut table, &[16, 16], 100.0, 0.0);
    let pa = place_and_start(&mut auditor, &mut table, &mut idle, a, 0.0);
    let survivor = Placement::new(vec![(pa.assignments()[0].0, 16)]);
    auditor.on_job_resized(
        SimTime::new(25.0),
        table.get(a),
        &super::Resize {
            id: a,
            from: &pa,
            to: &survivor,
            old_end: SimTime::new(125.0),
            new_end: SimTime::new(225.0),
        },
    );
    assert!(
        auditor.has(ViolationKind::ResizeConservation),
        "expected ResizeConservation, got: {}",
        auditor.report()
    );
    assert!(!auditor.has(ViolationKind::ExtensionMismatch), "{}", auditor.report());

    // The re-derived end (base work re-extended at the new span's
    // factor 1.0) is clean through completion.
    let mut auditor = backfill_auditor();
    let mut table = JobTable::new();
    let mut idle = vec![32u32; 4];
    let b = arrive_with_service(&mut auditor, &mut table, &[16, 16], 100.0, 0.0);
    let pb = place_and_start(&mut auditor, &mut table, &mut idle, b, 0.0);
    let survivor = Placement::new(vec![(pb.assignments()[0].0, 16)]);
    auditor.on_job_resized(
        SimTime::new(25.0),
        table.get(b),
        &super::Resize {
            id: b,
            from: &pb,
            to: &survivor,
            old_end: SimTime::new(125.0),
            new_end: SimTime::new(185.0),
        },
    );
    auditor.on_completion(SimTime::new(185.0), b, table.get(b));
    auditor.assert_clean();
}

// ---------------------------------------------------------------------
// Network-model mutants: under a contended bandwidth-sharing fabric the
// auditor mirrors every wide-area flow's max-min fair rate; a departure
// that ignores the contention (the nominal, uncontended end) leaves
// base work unaccounted and trips WorkConservation.
// ---------------------------------------------------------------------

fn network_auditor() -> InvariantAuditor {
    synthetic_auditor().with_network(crate::sim::NetworkSpec::backbone(1.0))
}

/// The shared scenario: two 2-cluster jobs (base 100 s, factor 1.25)
/// on a capacity-1 backbone. A runs alone until B starts at t = 40
/// (stretch 1.25, 68 base seconds left); overlapped, each flow gets
/// share ½ and stretch 1.5, so A's remaining 68 finish at t = 142; B
/// then runs alone again (32 base seconds left at stretch 1.25) and
/// honestly departs at t = 182.
fn contended_pair(auditor: &mut InvariantAuditor, table: &mut JobTable) -> (JobId, JobId) {
    let mut idle = vec![32u32; 4];
    let a = arrive(auditor, table, &[16, 16], 0.0);
    place_and_start(auditor, table, &mut idle, a, 0.0);
    let b = arrive(auditor, table, &[16, 16], 40.0);
    place_and_start(auditor, table, &mut idle, b, 40.0);
    auditor.on_completion(SimTime::new(142.0), a, table.get(a));
    (a, b)
}

#[test]
fn nominal_departure_under_contention_trips_work_conservation() {
    // The mutant departs B at its nominal uncontended end, 40 + 125 =
    // 165 — but at the mirrored rates B still owes 32 − 23/1.25 = 13.6
    // base seconds then.
    let mut auditor = network_auditor();
    let mut table = JobTable::new();
    let (_, b) = contended_pair(&mut auditor, &mut table);
    auditor.on_completion(SimTime::new(165.0), b, table.get(b));
    assert!(
        auditor.has(ViolationKind::WorkConservation),
        "expected WorkConservation, got: {}",
        auditor.report()
    );
    assert!(!auditor.has(ViolationKind::ExtensionMismatch), "{}", auditor.report());
    assert!(!auditor.has(ViolationKind::ResizeConservation), "{}", auditor.report());
}

#[test]
fn bandwidth_shared_departures_pass_the_audit() {
    // Control: both departures follow the shared-bandwidth schedule and
    // the run is clean — including A's, whose own rate changed twice.
    let mut auditor = network_auditor();
    let mut table = JobTable::new();
    let (_, b) = contended_pair(&mut auditor, &mut table);
    auditor.on_completion(SimTime::new(182.0), b, table.get(b));
    auditor.assert_clean();
}

#[test]
fn contended_network_runs_are_clean() {
    // End to end: the real engine's lazily-accrued flows and the
    // auditor's eagerly-accrued mirror must agree on every departure,
    // under both topologies.
    for spec in [crate::sim::NetworkSpec::backbone(1.0), crate::sim::NetworkSpec::pairwise(2.0)] {
        let mut cfg = SimConfig::das(PolicyKind::Gs, 32, 0.6);
        cfg.total_jobs = 400;
        cfg.warmup_jobs = 50;
        cfg.network = Some(spec);
        let mut auditor = InvariantAuditor::new(&cfg);
        SimBuilder::new(&cfg).run_observed(&mut auditor);
        assert!(auditor.is_clean(), "{spec:?}: {}", auditor.report());
    }
}

#[test]
fn molding_that_changes_the_total_is_caught() {
    // A mold must conserve the processor total: [32,32] re-split to
    // three 16s silently sheds 16 processors.
    let mut auditor = backfill_auditor();
    let mut table = JobTable::new();
    let id = arrive(&mut auditor, &mut table, &[32, 32], 0.0);
    let submitted = table.get(id).spec.request.clone();
    auditor.on_job_molded(SimTime::new(0.0), id, &submitted, &JobRequest::new(vec![16, 16, 16]));
    assert!(
        auditor.has(ViolationKind::PlacementRuleViolation),
        "expected PlacementRuleViolation, got: {}",
        auditor.report()
    );

    // The conserving mold is clean, and the rule-conformance check
    // follows the *molded* split on the subsequent placement.
    let mut auditor = backfill_auditor();
    let mut table = JobTable::new();
    let id = arrive(&mut auditor, &mut table, &[32, 32], 0.0);
    let submitted = table.get(id).spec.request.clone();
    let molded = JobRequest::new(vec![16, 16, 16, 16]);
    auditor.on_job_molded(SimTime::new(0.0), id, &submitted, &molded);
    let idle = vec![32u32; 4];
    let p = place_request(&idle, &molded, PlacementRule::WorstFit)
        .expect("the molded split fits the idle system");
    auditor.on_placement(
        SimTime::new(0.0),
        &PlacementDecision {
            id,
            queue: SubmitQueue::Global,
            scope: PlacementScope::System,
            idle_before: &idle,
            placement: &p,
        },
    );
    auditor.assert_clean();
}

#[test]
fn clean_fault_sequence_passes_the_audit() {
    // The full failure lifecycle done right: victim interrupted with
    // exactly its held placement, cluster down, repair, victim restarted
    // first — no violation of any kind.
    let mut auditor = synthetic_auditor();
    let mut table = JobTable::new();
    let mut idle = vec![32u32; 4];
    let a = arrive(&mut auditor, &mut table, &[8], 0.0);
    let pa = place_and_start(&mut auditor, &mut table, &mut idle, a, 0.0);
    let fc = pa.assignments()[0].0;
    auditor.on_job_interrupted(
        SimTime::new(1.0),
        table.get(a),
        &Interruption {
            id: a,
            cluster: fc,
            released: &pa,
            disposition: InterruptPolicy::RequeueFront,
            resplit: false,
        },
    );
    for &(cl, n) in pa.assignments() {
        idle[cl] += n;
    }
    auditor.on_cluster_down(SimTime::new(1.0), fc, 0);
    idle[fc] = 0;
    auditor.on_cluster_up(SimTime::new(2.0), fc);
    idle[fc] = 32;
    let pa2 = place_request(&idle, &table.get(a).spec.request, PlacementRule::WorstFit)
        .expect("fits the repaired system");
    auditor.on_placement(
        SimTime::new(3.0),
        &PlacementDecision {
            id: a,
            queue: SubmitQueue::Global,
            scope: PlacementScope::System,
            idle_before: &idle,
            placement: &pa2,
        },
    );
    auditor.assert_clean();
}
