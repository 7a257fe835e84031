//! The two in-process sweep workloads: `paper-campaign` (Fig 3's
//! limit-16 panel to the 5 % CI target, then Table 3's constant-backlog
//! maxima) and `network-contended` (GS and LS over a contended pairwise
//! network). Both drive the real engine through `sweep_on` on one
//! 2-worker `WorkerPool`.
//!
//! An iteration's unit of results is its sweeps, obtained three ways:
//! **cold**, computed from scratch with a fresh checkpoint and no cache,
//! as a campaign runs; **warm**, the same sweeps answered by a
//! `ScenarioCache` holding every replication; **rehydrated**, answered
//! by a fresh cache over a `ResultStore` holding them, reopened from
//! disk as after a restart.

use std::path::{Path, PathBuf};
use std::time::Instant;

use coalloc::core::{
    maximal_utilization, point_digest, sweep_on, ResultStore, RoundReport, SaturationConfig,
    ScenarioCache, SweepConfig, SweepPoint, SweepStats, WorkerPool,
};
use coalloc::experiments::Scale;
use coalloc::scenario::ScenarioSpec;

use crate::layers::{self, EngineLayers, Keyed};
use crate::refs::{self, Digests, References, Tally, FAILED};
use crate::report::{Counts, Report};
use crate::stats::median;
use crate::sys;

/// Worker threads of the sweep pool (the container's `nproc`).
pub const WORKERS: usize = 2;

/// Stand-alone set-ups timed before each iteration; `setup_s` is the
/// median over all of a run's.
const SETUP_REPEATS: usize = 25;

/// Times an iteration's unit is obtained warm, and rehydrated.
const REPEATS: usize = 5;

/// The contended network of `network-contended`.
const NETWORK: &str = "1:pairwise";

/// Which sweep workload, at which size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Fig 3 limit-16 panel plus Table 3.
    PaperCampaign,
    /// GS and LS at limit 16 over `--network 1:pairwise`.
    NetworkContended,
}

/// Everything one iteration runs, built from raw strings through the
/// same parse path the CLI and `serve` use.
struct Plan {
    sweeps: Vec<(String, ScenarioSpec)>,
    sweep_cfg: SweepConfig,
    saturation: Vec<(String, SaturationConfig)>,
    /// Every point's configuration digest (the grid layer's output), per
    /// sweep: the keys its replications are cached and stored under.
    digests: Vec<Vec<u64>>,
}

fn build_plan(kind: Kind, toy: bool, seed: u64) -> Plan {
    let scale = if toy { Scale::Quick } else { Scale::Full };
    let (policies, network): (&[&str], _) = match kind {
        Kind::PaperCampaign => (&["GS", "LS", "LP", "SC"], None),
        Kind::NetworkContended => (&["GS", "LS"], Some(NETWORK)),
    };
    let sweeps: Vec<(String, ScenarioSpec)> =
        policies.iter().map(|p| (p.to_string(), layers::parse_spec(p, network, scale))).collect();
    let mut sweep_cfg = scale.sweep();
    sweep_cfg.base_seed = seed;
    sweep_cfg.threads = WORKERS;
    if toy {
        sweep_cfg.utilizations = vec![0.3, 0.6];
    }
    let digests = sweeps
        .iter()
        .map(|(_, spec)| {
            let make = spec.make_cfg();
            sweep_cfg.utilizations.iter().map(|&u| point_digest(&make(u))).collect()
        })
        .collect();
    let saturation = match kind {
        Kind::NetworkContended => Vec::new(),
        Kind::PaperCampaign => {
            let mut cfgs: Vec<(String, SaturationConfig)> = [16u32, 24, 32]
                .iter()
                .map(|&l| (format!("sat-GS{l}"), SaturationConfig::das_gs(l)))
                .collect();
            cfgs.push(("sat-SC".to_string(), SaturationConfig::das_sc()));
            for (_, c) in &mut cfgs {
                c.seed = seed;
                c.measured_departures = scale.saturation_departures();
                if toy {
                    c.warmup_departures = 500;
                    c.measured_departures = 2_000;
                }
            }
            cfgs
        }
    };
    Plan { sweeps, sweep_cfg, saturation, digests }
}

/// Times spawning a pool and building every configuration: the work
/// between a user starting the campaign and the first replication being
/// able to start.
fn set_up(kind: Kind, toy: bool, seed: u64) -> f64 {
    let t0 = Instant::now();
    let pool = WorkerPool::new(WORKERS);
    let plan = build_plan(kind, toy, seed);
    let s = t0.elapsed().as_secs_f64();
    drop((pool, plan));
    s
}

/// Per round of a traced cold pass: wall seconds and the workers' CPU
/// seconds in it.
type RoundSpans = Vec<(f64, f64)>;

/// What one iteration measured.
struct Iteration {
    cold_s: f64,
    warm_s: Vec<f64>,
    rehydrated_s: Vec<f64>,
    /// Wall seconds of Table 3's four runs (paper-campaign only).
    saturation_s: Option<f64>,
    /// `VmHWM` over this iteration alone (the high-water mark is reset
    /// when it starts).
    peak_rss_mib: f64,
    cold_cpu_s: f64,
    events: u64,
    counts: Counts,
    digests: Digests,
    /// Warm and rehydrated results checked against cold.
    repeat_tally: Tally,
    /// A warm or rehydrated pass that simulated, or missed the place it
    /// must be served from.
    problems: Vec<String>,
    /// Every cold replication under its cache key.
    keyed: Vec<Keyed>,
    /// Every cold sweep point, in sweep order.
    points: Vec<SweepPoint>,
    /// Cold wall seconds and the workers' CPU over them (traced only).
    pool_cpu: Option<(f64, f64)>,
    rounds: RoundSpans,
}

/// Files a sweep's per-replication `mean_response` bits under
/// `label@utilization`, and its replications under their cache keys.
fn collect(
    label: &str,
    digests_of_points: &[u64],
    base_seed: u64,
    points: &[SweepPoint],
    out: &mut Digests,
    keyed: Option<&mut Vec<Keyed>>,
) {
    let mut keyed = keyed;
    for (p, &digest) in points.iter().zip(digests_of_points) {
        let o = &p.outcome;
        let total = o.runs.len() + o.failures.len();
        let mut runs = o.runs.iter();
        let mut vals = Vec::with_capacity(total);
        for rep in 0..total as u64 {
            let run = if o.failures.iter().any(|f| f.rep == rep) { None } else { runs.next() };
            vals.push(run.map_or(FAILED, |r| r.metrics.mean_response.to_bits()));
            if let (Some(run), Some(k)) = (run, keyed.as_deref_mut()) {
                k.push(((digest, base_seed, rep), run.clone()));
            }
        }
        out.insert(format!("{label}@{:.2}", p.target_utilization), vals);
    }
}

/// The run's one worker pool and the thread ids of its workers.
struct Pool {
    pool: WorkerPool,
    workers: Vec<u64>,
}

impl Pool {
    fn new() -> Self {
        let before = sys::own_tids();
        let pool = WorkerPool::new(WORKERS);
        let workers = sys::own_tids().into_iter().filter(|t| !before.contains(t)).collect();
        Pool { pool, workers }
    }

    /// CPU seconds the workers have used so far.
    fn worker_cpu_s(&self) -> f64 {
        self.workers.iter().map(|&t| sys::task_cpu_ns(t)).sum::<u64>() as f64 * 1e-9
    }
}

/// Obtains one sweep once more through `cache` (no checkpoint): wall
/// seconds, its points and the engine's stats.
fn repeat_sweep(
    spec: &ScenarioSpec,
    sweep_cfg: &SweepConfig,
    pool: &Pool,
    cache: &ScenarioCache,
) -> (f64, Vec<SweepPoint>, SweepStats) {
    let mut cfg = sweep_cfg.clone();
    cfg.checkpoint = None;
    let t0 = Instant::now();
    let (points, stats) = sweep_on(&pool.pool, Some(cache), spec.make_cfg(), &cfg, |_| {});
    (t0.elapsed().as_secs_f64(), points, stats)
}

fn run_iteration(
    kind: Kind,
    toy: bool,
    seed: u64,
    pool: &Pool,
    work: &Path,
    traced: bool,
) -> std::io::Result<Iteration> {
    sys::reset_peak_rss();
    let plan = build_plan(kind, toy, seed);
    let base_seed = plan.sweep_cfg.base_seed;

    let mut counts = Counts::default();
    let mut digests = Digests::new();
    let mut rounds = RoundSpans::new();
    let mut events = 0u64;
    let mut keyed = Vec::new();
    let mut points_all = Vec::new();
    let (mut cold_s, mut cold_cpu_s, mut worker_cpu_s) = (0.0, 0.0, 0.0);
    // Sample r of warm (rehydrated) is the sum of every sweep's r-th
    // warm (rehydrated) pass.
    let mut warm_s = vec![0.0; REPEATS];
    let mut rehydrated_s = vec![0.0; REPEATS];
    let mut repeat_tally = Tally::default();
    let mut problems = Vec::new();
    let store_dir = work.join("store");
    let _ = std::fs::remove_dir_all(&store_dir);

    // Each sweep runs cold, then warm and rehydrated right after, so an
    // iteration's samples of all three spread over its whole run time.
    for ((label, spec), point_digests) in plan.sweeps.iter().zip(&plan.digests) {
        // Cold: the campaign as a user runs it, with a fresh checkpoint
        // (a stale one would resume) and no cache.
        let mut cfg = plan.sweep_cfg.clone();
        let checkpoint = checkpoint_path(work, label);
        let _ = std::fs::remove_file(&checkpoint);
        cfg.checkpoint = Some(checkpoint);
        let cpu0 = sys::process_cpu_s();
        let wcpu0 = if traced { pool.worker_cpu_s() } else { 0.0 };
        let t0 = Instant::now();
        let mut last = (t0, wcpu0);
        let (points, stats) =
            sweep_on(&pool.pool, None, spec.make_cfg(), &cfg, |_: &RoundReport| {
                if traced {
                    let now = (Instant::now(), pool.worker_cpu_s());
                    rounds.push(((now.0 - last.0).as_secs_f64(), now.1 - last.1));
                    last = now;
                }
            });
        cold_s += t0.elapsed().as_secs_f64();
        cold_cpu_s += sys::process_cpu_s() - cpu0;
        if traced {
            worker_cpu_s += pool.worker_cpu_s() - wcpu0;
        }
        counts.add(&format!("queue.rounds.{label}"), stats.rounds as u64);
        counts.add(&format!("queue.reps.{label}"), stats.executed);
        counts.add("grid.points", points.len() as u64);
        let runs = points.iter().flat_map(|p| &p.outcome.runs);
        events += runs.map(|r| r.arrivals + r.completed).sum::<u64>();
        let mut mine = Vec::new();
        let mut cold = Digests::new();
        collect(label, point_digests, base_seed, &points, &mut cold, Some(&mut mine));
        let reps = mine.len() as u64;

        // Warm and rehydrated must give the cold results, simulating
        // nothing: warm from memory, rehydrated from disk.
        let mut check = |phase: &str, points: &[SweepPoint], stats: SweepStats, disk: u64| {
            let mut got = Digests::new();
            collect(label, point_digests, base_seed, points, &mut got, None);
            repeat_tally += refs::check(&got, &cold);
            let served = (stats.executed, stats.cache_hits, stats.disk_hits);
            if served != (0, reps, disk) {
                problems.push(format!(
                    "{phase} pass of {label}: (executed, hits, disk hits) = {served:?}, \
                     expected {:?}",
                    (0, reps, disk)
                ));
            }
        };
        let cache = ScenarioCache::new();
        for ((d, s, r), out) in &mine {
            cache.store(*d, *s, *r, Ok(out.clone()));
        }
        for sample in &mut warm_s {
            let (wall, points, stats) = repeat_sweep(spec, &plan.sweep_cfg, pool, &cache);
            *sample += wall;
            check("warm", &points, stats, 0);
        }
        drop(cache);
        // The iteration's store gains this sweep's replications; a fresh
        // cache reopens it (a restart) before each pass.
        let store = ResultStore::open(&store_dir)?;
        for ((d, s, r), out) in &mine {
            store.append(*d, *s, *r, &Ok(out.clone()));
        }
        drop(store);
        for sample in &mut rehydrated_s {
            let cache = ScenarioCache::with(Some(ResultStore::open(&store_dir)?), None);
            let (wall, points, stats) = repeat_sweep(spec, &plan.sweep_cfg, pool, &cache);
            *sample += wall;
            check("rehydrated", &points, stats, reps);
        }
        digests.extend(cold);
        keyed.extend(mine);
        points_all.extend(points);
    }
    counts.add("session.events", events);
    counts.add("cache.hits.warm", keyed.len() as u64);
    counts.add("cache.disk_hits.rehydrated", keyed.len() as u64);
    let pool_cpu = traced.then_some((cold_s, worker_cpu_s));

    // Table 3 once; its maxima are checked like the sweeps' results.
    let saturation_s = (!plan.saturation.is_empty()).then(|| {
        let t1 = Instant::now();
        let mut departures = 0;
        for (label, c) in &plan.saturation {
            let r = maximal_utilization(c);
            departures += c.warmup_departures + r.departures;
            digests.insert(label.clone(), vec![r.max_gross_utilization.to_bits()]);
        }
        counts.add("saturation.departures", departures);
        t1.elapsed().as_secs_f64()
    });
    let peak_rss_mib = sys::peak_rss_mib(None);

    Ok(Iteration {
        cold_s,
        warm_s,
        rehydrated_s,
        saturation_s,
        peak_rss_mib,
        cold_cpu_s,
        events,
        counts,
        digests,
        repeat_tally,
        problems,
        keyed,
        points: points_all,
        pool_cpu,
        rounds,
    })
}

fn checkpoint_path(work: &Path, label: &str) -> PathBuf {
    work.join(format!("checkpoint-{label}.json"))
}

/// The workload's name as the command line gives it.
fn name(kind: Kind) -> &'static str {
    match kind {
        Kind::PaperCampaign => "paper-campaign",
        Kind::NetworkContended => "network-contended",
    }
}

/// Seconds one iteration takes on the reference host (2 vCPUs); a run
/// sizes its fixed iteration count from its time budget with it, so the
/// inputs of a run depend only on its seed and budget, never on speed.
fn nominal_iteration_s(kind: Kind, toy: bool) -> f64 {
    match (kind, toy) {
        (_, true) => 0.2,
        (Kind::PaperCampaign, false) => 5.0,
        (Kind::NetworkContended, false) => 5.0,
    }
}

/// The base seed of iteration `i`: the run's seed itself, then fresh
/// substreams of it. Each iteration is a whole campaign on its own seed,
/// so a run's medians average over seeds as well as over host noise.
fn iteration_seed(seed: u64, i: usize) -> u64 {
    if i == 0 {
        seed
    } else {
        coalloc::core::replication_seed(seed, i as u64)
    }
}

/// Milliseconds of every sample in `xs` (seconds), pooled.
fn pooled_ms<'a>(xs: impl IntoIterator<Item = &'a Vec<f64>>) -> Vec<f64> {
    xs.into_iter().flatten().map(|s| s * 1e3).collect()
}

/// Runs a sweep workload: a fixed number of iterations sized from
/// `seconds` and, when `traced`, one more traced iteration (on the first
/// iteration's seed) plus the layer replays of its replications.
pub fn run(
    kind: Kind,
    toy: bool,
    seed: u64,
    seconds: f64,
    traced: bool,
    refs: &References,
    work: &Path,
) -> std::io::Result<Report> {
    let mut report = Report::default();
    // Every iteration runs on the run's one pool, as a user's campaign
    // would; spawning it is part of each timed set-up.
    let pool = Pool::new();
    let n = ((seconds / nominal_iteration_s(kind, toy)).round() as usize).max(1);
    let mut iters: Vec<Iteration> = Vec::with_capacity(n);
    let mut setups = Vec::with_capacity(n * SETUP_REPEATS);
    for i in 0..n {
        let sub = iteration_seed(seed, i);
        setups.extend((0..SETUP_REPEATS).map(|_| set_up(kind, toy, sub)));
        let it = run_iteration(kind, toy, sub, &pool, work, false)?;
        record(&mut report, refs, kind, sub, &it);
        iters.push(it);
    }
    let rate: Vec<f64> = iters.iter().map(|i| i.events as f64 / i.cold_cpu_s).collect();
    for (i, it) in iters.iter().enumerate() {
        let table3 = it.saturation_s.map_or(String::new(), |s| format!(", Table 3 {s:.4} s"));
        eprintln!(
            "perfbench: iteration {i}: seed {}, {} replications, cold {:.3} s, warm {:.2} ms, \
             rehydrated {:.2} ms, {:.0} events/CPU-s{table3}, peak {:.1} MiB",
            iteration_seed(seed, i),
            it.keyed.len(),
            it.cold_s,
            median(&it.warm_s) * 1e3,
            median(&it.rehydrated_s) * 1e3,
            rate[i],
            it.peak_rss_mib
        );
    }
    if !traced {
        report.metric("setup_s", median(&setups), "s");
        let cold: Vec<f64> = iters.iter().map(|i| i.cold_s * 1e3).collect();
        report.metric("cold_ms", median(&cold), "ms");
        report.metric("warm_ms", median(&pooled_ms(iters.iter().map(|i| &i.warm_s))), "ms");
        let rehydrated = pooled_ms(iters.iter().map(|i| &i.rehydrated_s));
        report.metric("rehydrated_ms", median(&rehydrated), "ms");
        report.metric("events_per_cpu_s", median(&rate), "events/CPU-s");
        let peaks: Vec<f64> = iters.iter().map(|i| i.peak_rss_mib).collect();
        report.metric("peak_rss_mb", median(&peaks), "MiB");
        report.metric("ok_share", report.tally.ok_share(), "ratio");
        return Ok(report);
    }

    // The traced iteration: the first iteration's work again, with round
    // spans and per-worker CPU recorded from the round callback; its
    // results and counts must repeat the untraced ones exactly.
    let it = run_iteration(kind, toy, seed, &pool, work, true)?;
    record(&mut report, refs, kind, seed, &it);
    let per_rep = |i: &Iteration| i.cold_s / i.keyed.len() as f64;
    report.overhead(
        "cold_ms per replication",
        per_rep(&it),
        median(&iters.iter().map(per_rep).collect::<Vec<_>>()),
    );

    let reps = it.counts.get_prefix("queue.reps.");
    let points = it.counts.get("grid.points");
    report.metric("queue.rounds", it.counts.get_prefix("queue.rounds.") as f64, "count");
    report.metric("queue.reps", reps as f64, "count");
    report.metric("queue.reps_per_point", reps as f64 / points as f64, "count");
    let (wall, cpu) = it.pool_cpu.expect("traced iterations record pool CPU");
    report.metric("pool.busy_share", cpu / (WORKERS as f64 * wall), "ratio");
    let idle: f64 = it.rounds.iter().map(|(w, c)| WORKERS as f64 * w - c).sum();
    report.metric("pool.round_idle_s", idle, "s");
    report.metric("cache.executed.cold", reps as f64, "count");
    report.metric("cache.hits.warm", it.counts.get("cache.hits.warm") as f64, "count");
    let disk = it.counts.get("cache.disk_hits.rehydrated");
    report.metric("cache.disk_hits.rehydrated", disk as f64, "count");

    let plan = build_plan(kind, toy, seed);
    report.metric("grid.points", points as f64, "count");
    let planned = plan.digests.iter().map(Vec::len).sum::<usize>() as u64;
    report.check_count("grid.points (plan vs sweeps)", planned, points);
    let scale = plan.sweeps[0].1.scale;
    let network = (kind == Kind::NetworkContended).then_some(NETWORK);
    let (parse_us, digest_us) = layers::grid_costs(
        || layers::parse_spec("GS", network, scale),
        &plan.sweep_cfg.utilizations,
    );
    report.metric("scenario.parse_us", parse_us, "us");
    report.metric("grid.digest_us", digest_us, "us");
    layers::result_layers(&it.keyed, &work.join("store-layer"), &mut report)?;
    layers::encode_layer(&it.points, &mut report);
    let saturation = if plan.saturation.is_empty() {
        vec![layers::saturation_probe(scale, seed)]
    } else {
        plan.saturation.iter().map(|(_, c)| c.clone()).collect()
    };
    layers::saturation_layer(&saturation, &mut report);

    let mut engine = EngineLayers::new();
    for (spec, point, rep, expected) in replications(&plan, &it) {
        let cfg = spec.config(point).with_seed(coalloc::core::replication_seed(seed, rep));
        let got = engine.replay(&cfg).metrics.mean_response.to_bits();
        if got != expected {
            report.drift.push(format!(
                "replay of {} @{point:.2} rep {rep} gave mean_response bits {got:016x}, \
                 the sweep {expected:016x}",
                spec.policy.label()
            ));
        }
    }
    report.check_count("session.events (replay vs sweep)", it.events, engine.events());
    engine.report(&mut report);
    Ok(report)
}

/// Checks an iteration's results and counts against the reference for
/// its seed, and its warm and rehydrated passes against its cold one.
fn record(report: &mut Report, refs: &References, kind: Kind, seed: u64, it: &Iteration) {
    report.check_results(refs, refs.key(name(kind), seed), &it.digests, &it.counts);
    report.tally += it.repeat_tally;
    report.drift.extend(it.problems.iter().cloned());
}

/// Every replication an iteration ran, in sweep, point and replication
/// order: its scenario, utilization, replication index, and the
/// `mean_response` bits the sweep recorded for it.
fn replications<'p>(plan: &'p Plan, it: &Iteration) -> Vec<(&'p ScenarioSpec, f64, u64, u64)> {
    let mut out = Vec::new();
    for (label, spec) in &plan.sweeps {
        for &u in &plan.sweep_cfg.utilizations {
            let reps = it.digests.get(&format!("{label}@{u:.2}")).map_or(&[][..], Vec::as_slice);
            for (rep, &bits) in reps.iter().enumerate() {
                if bits != FAILED {
                    out.push((spec, u, rep as u64, bits));
                }
            }
        }
    }
    out
}
