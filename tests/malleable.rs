//! Moldable/malleable dispositions and backfilling disciplines, locked
//! down four ways: the auditor certifies the full policy × disposition
//! × discipline matrix, degenerate configurations collapse
//! byte-identically onto the rigid/FCFS baseline, sweeps stay
//! thread-count invariant, and two adversarial scenarios pin the
//! re-split confinement rule and the backfilling reservation bound.

use coalloc::core::{
    ActiveJob, FaultSpec, InvariantAuditor, JobFeed, JobId, JsonlSink, PolicyKind, QueueDiscipline,
    ResizePolicy, SimBuilder, SimConfig, SimObserver, SimOutcome, SweepConfig, SystemSpec, Tee,
};
use coalloc::desim::{Duration, SimTime};
use coalloc::workload::{JobDisposition, JobRequest, JobSizeDist, JobSpec, QueueRouting};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Property layer: the whole matrix audits clean.
// ---------------------------------------------------------------------

/// One cell of the policy × disposition × discipline matrix, with the
/// usual scale/seed knobs and optional fault injection (the only way to
/// reach the malleable shrink path).
#[derive(Debug, Clone)]
struct MatrixScenario {
    policy: PolicyKind,
    disposition: JobDisposition,
    discipline: QueueDiscipline,
    estimate_factor: f64,
    resize: ResizePolicy,
    limit: u32,
    util: f64,
    jobs: u64,
    seed: u64,
    das2: bool,
    faulty: bool,
}

fn matrix_scenario() -> impl Strategy<Value = MatrixScenario> {
    (
        (
            prop_oneof![
                Just(PolicyKind::Gs),
                Just(PolicyKind::Ls),
                Just(PolicyKind::Lp),
                Just(PolicyKind::Sc),
                Just(PolicyKind::Gb)
            ],
            prop_oneof![
                Just(JobDisposition::Rigid),
                Just(JobDisposition::Moldable),
                Just(JobDisposition::Malleable)
            ],
            prop_oneof![
                Just(QueueDiscipline::Fcfs),
                Just(QueueDiscipline::Easy),
                Just(QueueDiscipline::Conservative)
            ],
            prop_oneof![Just(1.0f64), Just(2.0), Just(5.0), Just(f64::INFINITY)],
            prop_oneof![Just(ResizePolicy::GrowAndShrink), Just(ResizePolicy::ShrinkOnly)],
        ),
        (
            prop_oneof![Just(16u32), Just(32u32)],
            0.3f64..0.7,
            100u64..300,
            any::<u64>(),
            proptest::bool::ANY,
            proptest::bool::ANY,
        ),
    )
        .prop_map(
            |(
                (policy, disposition, discipline, estimate_factor, resize),
                (limit, util, jobs, seed, das2, faulty),
            )| {
                MatrixScenario {
                    policy,
                    disposition,
                    discipline,
                    estimate_factor,
                    resize,
                    limit,
                    util,
                    jobs,
                    seed,
                    das2,
                    faulty,
                }
            },
        )
}

fn matrix_cfg(sc: &MatrixScenario) -> SimConfig {
    let mut cfg = if sc.das2 {
        SimConfig::heterogeneous(sc.policy, sc.limit, sc.util, SystemSpec::das2())
    } else if sc.policy == PolicyKind::Sc {
        SimConfig::das_single_cluster(sc.util)
    } else {
        SimConfig::das(sc.policy, sc.limit, sc.util)
    };
    cfg.total_jobs = sc.jobs;
    cfg.warmup_jobs = sc.jobs / 10;
    cfg.seed = sc.seed;
    cfg.disposition = sc.disposition;
    cfg.discipline = sc.discipline;
    cfg.estimate_factor = sc.estimate_factor;
    cfg.resize = sc.resize;
    if sc.faulty {
        cfg.faults = Some(FaultSpec::Exponential { mttf: 60_000.0, mttr: 5_000.0 });
    }
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every policy, under every disposition and every queue discipline
    /// (with and without faults, on the 4×32 DAS and the 72+4×32 DAS2
    /// geometries), audits clean: no reservation violated by a
    /// backfilled job, no starved queue head, every resize conserving
    /// processor-seconds, and the usual capacity/ordering/accounting
    /// invariants intact. Jobs are conserved end to end.
    #[test]
    fn disposition_discipline_matrix_audits_clean(sc in matrix_scenario()) {
        let cfg = matrix_cfg(&sc);
        let mut auditor = InvariantAuditor::new(&cfg);
        let out = SimBuilder::new(&cfg).run_observed(&mut auditor);
        prop_assert!(auditor.is_clean(), "{:?}: {}", sc, auditor.report());
        prop_assert_eq!(
            out.arrivals,
            out.completed + out.residual_queued as u64,
            "{:?}", sc
        );
    }
}

/// Regression: a long SC malleable run drives the clock past 1e5
/// seconds, where recovering a job's remaining work from its
/// rescheduled departure multiplies one rounding ulp of the clock by
/// the full 128-processor width — the resize-conservation tolerance
/// must absorb that magnitude (it once flagged ~3e-9 processor-seconds
/// of phantom non-conservation on exactly this run). The matrix
/// proptest above stays short; this pins the large-clock regime.
#[test]
fn long_malleable_runs_conserve_work_at_large_clock_values() {
    let mut cfg = SimConfig::das_single_cluster(0.5);
    cfg.total_jobs = 8_000;
    cfg.warmup_jobs = 1_000;
    cfg.disposition = JobDisposition::Malleable;
    cfg.discipline = QueueDiscipline::Conservative;
    let mut auditor = InvariantAuditor::new(&cfg);
    SimBuilder::new(&cfg).run_observed(&mut auditor);
    assert!(auditor.is_clean(), "{}", auditor.report());
}

// ---------------------------------------------------------------------
// Equivalence layer: degenerate configurations are *bit-identical* to
// the baseline, event log included.
// ---------------------------------------------------------------------

/// Runs one simulation and returns the serialized outcome plus the full
/// JSONL event log.
fn outcome_and_log(cfg: &SimConfig) -> (String, Vec<u8>) {
    let mut sink = JsonlSink::new(Vec::new());
    let out = SimBuilder::new(cfg).run_observed(&mut sink);
    let json = serde_json::to_string(&out).expect("outcomes serialize");
    (json, sink.finish().expect("in-memory log"))
}

/// With every sampled size either 1 (one component, nothing to split)
/// or 128 (already split across all four clusters — the re-split probe
/// has nowhere to widen), the moldable disposition can never change a
/// split: its runs must be byte-identical to the rigid ones, event
/// stream included.
#[test]
fn moldable_with_a_single_admissible_split_is_bit_identical_to_rigid() {
    let base = |disposition: JobDisposition| {
        let mut cfg = SimConfig::das(PolicyKind::Gs, 32, 0.5);
        cfg.workload.sizes = JobSizeDist::custom("pinned", &[(1, 0.4), (128, 0.6)]);
        cfg.arrival_rate = cfg.workload.rate_for_gross_utilization(0.5, 128);
        cfg.total_jobs = 4_000;
        cfg.warmup_jobs = 400;
        cfg.disposition = disposition;
        cfg
    };
    let (rigid, rigid_log) = outcome_and_log(&base(JobDisposition::Rigid));
    let (moldable, moldable_log) = outcome_and_log(&base(JobDisposition::Moldable));
    assert_eq!(rigid, moldable, "outcomes must match exactly");
    assert_eq!(rigid_log, moldable_log, "event logs must be byte-identical");
    assert!(
        !String::from_utf8(moldable_log).expect("JSONL is UTF-8").contains("\"molded\""),
        "nothing may mold when no alternative split exists"
    );
}

/// The complement of the test above: once alternative splits *are*
/// admissible (size-64 jobs under limit 32 can fragment into three or
/// four components), the moldable trajectory genuinely diverges and the
/// log records the molding decisions.
#[test]
fn moldable_diverges_when_wider_splits_are_admissible() {
    let base = |disposition: JobDisposition| {
        let mut cfg = SimConfig::das(PolicyKind::Gs, 32, 0.7);
        cfg.workload.sizes = JobSizeDist::custom("fragmenting", &[(8, 0.5), (64, 0.5)]);
        cfg.arrival_rate = cfg.workload.rate_for_gross_utilization(0.7, 128);
        cfg.total_jobs = 4_000;
        cfg.warmup_jobs = 400;
        cfg.disposition = disposition;
        cfg
    };
    let (rigid, _) = outcome_and_log(&base(JobDisposition::Rigid));
    let (moldable, moldable_log) = outcome_and_log(&base(JobDisposition::Moldable));
    assert_ne!(rigid, moldable, "blocked [32,32] jobs must take a wider split");
    assert!(
        String::from_utf8(moldable_log).expect("JSONL is UTF-8").contains("\"molded\""),
        "the divergence must come from recorded molding decisions"
    );
}

/// An infinite estimate factor makes every estimated finish infinite,
/// so no job ever beats a reservation: both backfilling disciplines
/// collapse onto FCFS, byte for byte, under every policy whose FCFS
/// baseline is strict. (GB is excluded here — its "FCFS" *is* the
/// greedy bypass, so the infinite factor makes it stricter than its
/// own baseline; the test below pins that down.)
#[test]
fn infinite_estimates_collapse_backfilling_onto_fcfs() {
    for policy in [PolicyKind::Gs, PolicyKind::Ls, PolicyKind::Lp, PolicyKind::Sc] {
        let base = |discipline: QueueDiscipline, factor: f64| {
            let mut cfg = if policy == PolicyKind::Sc {
                SimConfig::das_single_cluster(0.6)
            } else {
                SimConfig::das(policy, 16, 0.6)
            };
            cfg.total_jobs = 4_000;
            cfg.warmup_jobs = 400;
            cfg.discipline = discipline;
            cfg.estimate_factor = factor;
            cfg
        };
        let (fcfs, fcfs_log) = outcome_and_log(&base(QueueDiscipline::Fcfs, 2.0));
        for discipline in [QueueDiscipline::Easy, QueueDiscipline::Conservative] {
            let (bf, bf_log) = outcome_and_log(&base(discipline, f64::INFINITY));
            assert_eq!(fcfs, bf, "{policy}/{}: outcome must match FCFS", discipline.label());
            assert_eq!(
                fcfs_log,
                bf_log,
                "{policy}/{}: event log must be byte-identical to FCFS",
                discipline.label()
            );
        }
    }
}

/// GB's baseline already lets any fitting job bypass the queue with no
/// estimate check at all. Under EASY with an infinite estimate factor
/// the reservation test rejects every bypass, so GB degrades to strict
/// FCFS — *worse* for waiting jobs than its own greedy default.
#[test]
fn infinite_estimates_disable_gb_bypass() {
    let base = |discipline: QueueDiscipline, factor: f64| {
        let mut cfg = SimConfig::das(PolicyKind::Gb, 16, 0.6);
        cfg.total_jobs = 4_000;
        cfg.warmup_jobs = 400;
        cfg.discipline = discipline;
        cfg.estimate_factor = factor;
        cfg
    };
    let greedy = SimBuilder::new(&base(QueueDiscipline::Fcfs, 2.0)).run();
    let strict = SimBuilder::new(&base(QueueDiscipline::Easy, f64::INFINITY)).run();
    assert!(
        strict.metrics.mean_wait > greedy.metrics.mean_wait,
        "with no admissible backfill GB must wait strictly longer than its greedy \
         baseline: strict {} vs greedy {}",
        strict.metrics.mean_wait,
        greedy.metrics.mean_wait
    );
}

// ---------------------------------------------------------------------
// Thread-count invariance with the new axes enabled.
// ---------------------------------------------------------------------

fn sweep_with_threads(threads: usize, make_cfg: impl Fn(f64) -> SimConfig + Sync) -> Vec<f64> {
    let mut sweep_cfg = SweepConfig::quick();
    sweep_cfg.utilizations = vec![0.3, 0.5];
    sweep_cfg.threads = threads;
    sweep_cfg.audit = true;
    coalloc::core::sweep(make_cfg, &sweep_cfg)
        .into_iter()
        .flat_map(|p| {
            assert!(p.outcome.failures.is_empty(), "audited replication failed");
            [p.outcome.response.mean, p.outcome.gross_utilization]
        })
        .collect()
}

/// An audited moldable + EASY sweep gives bitwise-equal statistics on
/// one thread and on four.
#[test]
fn moldable_easy_sweeps_are_thread_count_invariant() {
    let make = |util: f64| {
        let mut cfg = SimConfig::das(PolicyKind::Ls, 16, util);
        cfg.total_jobs = 2_000;
        cfg.warmup_jobs = 200;
        cfg.batch_size = 100;
        cfg.disposition = JobDisposition::Moldable;
        cfg.discipline = QueueDiscipline::Easy;
        cfg
    };
    assert_eq!(sweep_with_threads(1, make), sweep_with_threads(4, make));
}

/// The same for malleable jobs under conservative backfilling *with*
/// faults: grow/shrink resizes ride the fault process, and the audited
/// sweep still does not depend on the worker count.
#[test]
fn malleable_conservative_faulty_sweeps_are_thread_count_invariant() {
    let make = |util: f64| {
        let mut cfg = SimConfig::das(PolicyKind::Gs, 16, util);
        cfg.total_jobs = 2_000;
        cfg.warmup_jobs = 200;
        cfg.batch_size = 100;
        cfg.disposition = JobDisposition::Malleable;
        cfg.discipline = QueueDiscipline::Conservative;
        cfg.resize = ResizePolicy::GrowAndShrink;
        cfg.faults = Some(FaultSpec::Exponential { mttf: 80_000.0, mttr: 4_000.0 });
        cfg
    };
    assert_eq!(sweep_with_threads(1, make), sweep_with_threads(4, make));
}

// ---------------------------------------------------------------------
// Scripted scenarios: a deterministic feed plus a start-time recorder.
// ---------------------------------------------------------------------

/// Replays a fixed list of `(arrival_seconds, spec)` pairs.
struct ScriptFeed {
    jobs: std::vec::IntoIter<(f64, JobSpec)>,
}

impl ScriptFeed {
    fn new(jobs: Vec<(f64, JobSpec)>) -> Self {
        ScriptFeed { jobs: jobs.into_iter() }
    }
}

impl JobFeed for ScriptFeed {
    fn next_job(&mut self) -> Option<(SimTime, JobSpec)> {
        self.jobs.next().map(|(t, spec)| (SimTime::new(t), spec))
    }
}

/// Records when each job started (indexed by arrival order).
#[derive(Default)]
struct StartTimes {
    starts: std::collections::BTreeMap<u64, f64>,
}

impl SimObserver for StartTimes {
    fn on_start(&mut self, now: SimTime, id: JobId, _job: &ActiveJob, _occupancy: Duration) {
        self.starts.insert(id.0, now.seconds());
    }
}

/// A single-component job with an exact runtime estimate.
fn exact_job(size: u32, service: f64) -> JobSpec {
    JobSpec {
        request: JobRequest::new(vec![size]).with_estimate(service),
        base_service: Duration::new(service),
    }
}

// ---------------------------------------------------------------------
// Regression: re-splitting must respect local-queue confinement.
// ---------------------------------------------------------------------

/// An interrupted (32,32) job waiting in the local queue of a
/// 32-processor DAS2 cluster sees every other 32-cluster fail: one
/// surviving 72-processor cluster could hold the re-split [64] — but a
/// single-component job is confined to its *own* queue's cluster, where
/// 64 processors will never exist. Adopting that split (as the code did
/// before the confinement check) strands the job forever; keeping the
/// (32,32) split lets it restart as soon as its home cluster repairs.
#[test]
fn resplit_never_adopts_a_split_its_local_queue_cannot_start() {
    let mut cfg = SimConfig::heterogeneous(PolicyKind::Ls, 32, 0.5, SystemSpec::das2());
    // Route the job to the local queue of cluster 1 (capacity 32).
    cfg.routing = QueueRouting::custom(&[0.0, 1.0, 0.0, 0.0, 0.0]);
    cfg.total_jobs = 1;
    cfg.warmup_jobs = 0;
    // Down the three idle 32-clusters, then the victim's: at the last
    // failure only the 72-cluster survives, so the [64] re-split passes
    // the system-wide fit check and only confinement can reject it.
    cfg.faults = Some(
        FaultSpec::parse(
            "down:100:2:0,down:110:3:0,down:120:4:0,down:130:1:0,\
             up:200:1,up:210:2,up:220:3,up:230:4",
        )
        .expect("scripted trace is well-formed"),
    );
    let spec =
        JobSpec { request: JobRequest::new(vec![32, 32]), base_service: Duration::new(1_000.0) };
    let mut feed = ScriptFeed::new(vec![(0.0, spec)]);
    let mut auditor = InvariantAuditor::new(&cfg);
    let out: SimOutcome = SimBuilder::new(&cfg).feed(&mut feed, 0.5).run_observed(&mut auditor);
    assert!(auditor.is_clean(), "{}", auditor.report());
    assert_eq!(
        out.completed, 1,
        "the job must keep its (32,32) split and restart after the repair"
    );
    assert_eq!(out.residual_queued, 0);
}

// ---------------------------------------------------------------------
// Backfilling bounds the head's wait; greedy bypass does not.
// ---------------------------------------------------------------------

/// An adversarial stream for the 4×32 system: one 32-job pins a cluster
/// for 100 s, a whole-system job queues behind it at t=1, and short
/// 32-jobs keep arriving every 5 s until t≈600 — each fits some idle
/// cluster the moment it arrives.
fn starvation_stream() -> Vec<(f64, JobSpec)> {
    let mut jobs = vec![
        (0.0, exact_job(32, 100.0)),
        (
            1.0,
            JobSpec {
                request: JobRequest::new(vec![32, 32, 32, 32]).with_estimate(10.0),
                base_service: Duration::new(10.0),
            },
        ),
    ];
    let mut t = 2.0;
    while t < 600.0 {
        jobs.push((t, exact_job(32, 10.0)));
        t += 5.0;
    }
    jobs
}

fn run_starvation_stream(policy: PolicyKind, discipline: QueueDiscipline) -> StartTimes {
    let mut cfg = SimConfig::das(policy, 32, 0.5);
    cfg.total_jobs = 200;
    cfg.warmup_jobs = 0;
    cfg.discipline = discipline;
    cfg.estimate_factor = 1.0;
    let mut feed = ScriptFeed::new(starvation_stream());
    let mut starts = StartTimes::default();
    let mut auditor = InvariantAuditor::new(&cfg);
    SimBuilder::new(&cfg)
        .feed(&mut feed, 0.5)
        .run_observed(&mut Tee::new(&mut starts, &mut auditor));
    assert!(auditor.is_clean(), "{policy}/{}: {}", discipline.label(), auditor.report());
    starts
}

/// GB's greedy bypass starves the whole-system job (id 1) for as long
/// as the short stream lasts; EASY and conservative backfilling start
/// it exactly at its reservation — the moment the pinning job departs —
/// while still backfilling plenty of shorts ahead of it.
#[test]
fn backfilling_bounds_the_heads_wait_where_greedy_bypass_starves_it() {
    let head = 1u64;

    let greedy = run_starvation_stream(PolicyKind::Gb, QueueDiscipline::Fcfs);
    let greedy_head = greedy.starts[&head];
    assert!(
        greedy_head > 500.0,
        "greedy bypass must starve the head until the stream dries up, started {greedy_head}"
    );

    let fcfs = run_starvation_stream(PolicyKind::Gs, QueueDiscipline::Fcfs);
    assert_eq!(fcfs.starts[&head], 100.0, "FCFS starts the head at the pinning job's departure");
    let fcfs_early = fcfs.starts.iter().filter(|&(&id, &t)| id > head && t < 100.0).count();
    assert_eq!(fcfs_early, 0, "strict FCFS lets nothing overtake the head");

    for discipline in [QueueDiscipline::Easy, QueueDiscipline::Conservative] {
        let bf = run_starvation_stream(PolicyKind::Gs, discipline);
        assert_eq!(
            bf.starts[&head],
            100.0,
            "{}: the head must start exactly at its reservation",
            discipline.label()
        );
        let early = bf.starts.iter().filter(|&(&id, &t)| id > head && t < 100.0).count();
        assert!(
            early >= 10,
            "{}: short jobs with estimated finishes before the reservation must \
             backfill, saw {early}",
            discipline.label()
        );
    }
}
