//! Layer attribution from outside the program. Engine layers: a
//! workload's own replications replayed single-threaded, once plainly
//! (session cost), once with the network model unset, once under a
//! recording [`SimObserver`], and then the recorded inputs of each layer
//! replayed through that layer's public functions alone. Result layers:
//! the same outcomes claimed from a [`ScenarioCache`], appended to and
//! read back from a [`ResultStore`], and encoded as result points.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use coalloc::core::experiment::cache::Claim;
use coalloc::core::{
    maximal_utilization, place_scoped, ActiveJob, JobFeed, JobId, Metrics, PlacementDecision,
    PlacementScope, ResultStore, SaturationConfig, ScenarioCache, SimBuilder, SimConfig,
    SimObserver, SimOutcome, StochasticFeed, SweepPoint,
};
use coalloc::desim::{Duration, Event, EventCalendar, EventId, HeapCalendar, RngStream, SimTime};
use coalloc::experiments::Scale;
use coalloc::scenario::ScenarioSpec;
use coalloc::workload::JobRequest;

use crate::report::Report;
use crate::stats::{histogram_p50, median};

/// Width of a pass-duration histogram bucket, in nanoseconds.
const PASS_BUCKET_NS: f64 = 10.0;
/// Buckets in the pass-duration histogram (passes beyond the last are
/// counted in it).
const PASS_BUCKETS: usize = 100_000;

/// One calendar operation the session performed.
enum CalOp {
    Insert(SimTime),
    /// The arrival after the one just popped is scheduled; its time is
    /// only known once that arrival is observed.
    InsertNextArrival,
    Pop,
}

/// A recorded placement input: the idle vector before the decision,
/// the job, and the scope it was placed in.
struct Decision {
    idle: Vec<u32>,
    id: JobId,
    scope: PlacementScope,
}

/// The observer: counts and spans for every replication, plus each
/// layer's inputs for the micro-replays.
struct Recorder {
    requests: Vec<Option<JobRequest>>,
    ops: Vec<CalOp>,
    arrival_times: Vec<SimTime>,
    decisions: Vec<Decision>,
    completions: Vec<(SimTime, ActiveJob)>,
    passes: u64,
    empty_passes: u64,
    queue_disables: u64,
    placements: u64,
    starts: u64,
    flow_changes: u64,
    pass_start: Option<Instant>,
    pass_ns: u64,
    pass_hist: Vec<u64>,
}

impl Recorder {
    fn new(pass_hist: Vec<u64>) -> Self {
        Recorder {
            requests: Vec::new(),
            ops: Vec::new(),
            arrival_times: Vec::new(),
            decisions: Vec::new(),
            completions: Vec::new(),
            passes: 0,
            empty_passes: 0,
            queue_disables: 0,
            placements: 0,
            starts: 0,
            flow_changes: 0,
            pass_start: None,
            pass_ns: 0,
            pass_hist,
        }
    }
}

fn spans_clusters(job: &ActiveJob) -> bool {
    job.placement.as_ref().is_some_and(|p| p.assignments().len() >= 2)
}

impl SimObserver for Recorder {
    fn on_arrival(&mut self, now: SimTime, id: JobId, job: &ActiveJob) {
        self.ops.push(CalOp::Pop);
        self.ops.push(CalOp::InsertNextArrival);
        self.arrival_times.push(now);
        let i = id.0 as usize;
        if self.requests.len() <= i {
            self.requests.resize(i + 1, None);
        }
        self.requests[i] = Some(job.spec.request.clone());
    }

    fn on_pass(&mut self, _now: SimTime, _trigger: coalloc::core::PassTrigger) {
        self.passes += 1;
        self.pass_start = Some(Instant::now());
    }

    fn on_pass_end(&mut self, _now: SimTime, started: &[JobId]) {
        if let Some(t) = self.pass_start.take() {
            let ns = t.elapsed().as_nanos() as u64;
            self.pass_ns += ns;
            let bucket = ((ns as f64 / PASS_BUCKET_NS) as usize).min(PASS_BUCKETS - 1);
            self.pass_hist[bucket] += 1;
        }
        if started.is_empty() {
            self.empty_passes += 1;
        }
    }

    fn on_queue_disabled(&mut self, _now: SimTime, _queue: coalloc::core::SubmitQueue) {
        self.queue_disables += 1;
    }

    fn on_placement(&mut self, _now: SimTime, d: &PlacementDecision<'_>) {
        self.placements += 1;
        self.decisions.push(Decision { idle: d.idle_before.to_vec(), id: d.id, scope: d.scope });
    }

    fn on_start(&mut self, now: SimTime, _id: JobId, job: &ActiveJob, occupancy: Duration) {
        self.starts += 1;
        self.flow_changes += u64::from(spans_clusters(job));
        self.ops.push(CalOp::Insert(now + occupancy));
    }

    fn on_completion(&mut self, now: SimTime, _id: JobId, job: &ActiveJob) {
        self.flow_changes += u64::from(spans_clusters(job));
        self.ops.push(CalOp::Pop);
        self.completions.push((now, job.clone()));
    }
}

/// Per-layer totals over every replayed replication.
#[derive(Default)]
pub struct EngineLayers {
    replications: u64,
    events: u64,
    peak_backlog: usize,
    plain_s: f64,
    faithful_s: f64,
    faithful_events: u64,
    observed_s: f64,
    passes: u64,
    empty_passes: u64,
    queue_disables: u64,
    pass_ns: u64,
    pass_hist: Vec<u64>,
    placements: u64,
    starts: u64,
    placement_s: f64,
    cal_ops: u64,
    cal_s: f64,
    departures: u64,
    metrics_s: f64,
    jobs: u64,
    feed_s: f64,
    flow_changes: u64,
    extension: f64,
    /// Replications whose observed run differed from the plain one
    /// (observers are passive, so this must stay 0).
    observer_changed_runs: u64,
}

impl EngineLayers {
    /// Empty totals.
    pub fn new() -> Self {
        EngineLayers { pass_hist: vec![0; PASS_BUCKETS], ..Self::default() }
    }

    /// Simulated arrivals plus completions over every replay.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Replays one replication and returns its plain run's outcome.
    pub fn replay(&mut self, cfg: &SimConfig) -> SimOutcome {
        let t = Instant::now();
        let plain = SimBuilder::new(cfg).run();
        self.plain_s += t.elapsed().as_secs_f64();
        self.replications += 1;
        self.events += plain.arrivals + plain.completed;
        self.peak_backlog = self.peak_backlog.max(plain.peak_backlog);
        self.extension += plain.metrics.achieved_extension;

        // The same replication with the network model unset (for a
        // workload without one, the same run again).
        let mut faithful = cfg.clone();
        faithful.network = None;
        let t = Instant::now();
        let out = SimBuilder::new(&faithful).run();
        self.faithful_s += t.elapsed().as_secs_f64();
        self.faithful_events += out.arrivals + out.completed;

        let mut rec = Recorder::new(std::mem::take(&mut self.pass_hist));
        let t = Instant::now();
        let observed = SimBuilder::new(cfg).run_observed(&mut rec);
        self.observed_s += t.elapsed().as_secs_f64();
        if observed.metrics.mean_response.to_bits() != plain.metrics.mean_response.to_bits() {
            self.observer_changed_runs += 1;
        }
        self.passes += rec.passes;
        self.empty_passes += rec.empty_passes;
        self.queue_disables += rec.queue_disables;
        self.pass_ns += rec.pass_ns;
        self.placements += rec.placements;
        self.starts += rec.starts;
        self.flow_changes += rec.flow_changes;
        self.micro_replays(cfg, &rec);
        self.pass_hist = rec.pass_hist;
        plain
    }

    fn micro_replays(&mut self, cfg: &SimConfig, rec: &Recorder) {
        // Calendar: the run's inserts and pops, in order. The session
        // schedules the first arrival before its loop starts, and each
        // arrival schedules the next.
        let mut times: Vec<Option<SimTime>> = Vec::with_capacity(rec.ops.len() + 1);
        times.extend(rec.arrival_times.first().map(|&t| Some(t)));
        let mut next_arrival = 1;
        for op in &rec.ops {
            match op {
                CalOp::Insert(t) => times.push(Some(*t)),
                CalOp::InsertNextArrival => {
                    times.extend(rec.arrival_times.get(next_arrival).map(|&t| Some(t)));
                    next_arrival += 1;
                }
                CalOp::Pop => times.push(None),
            }
        }
        let mut cal: HeapCalendar<()> = HeapCalendar::with_capacity(1024);
        let t = Instant::now();
        for (i, op) in times.iter().enumerate() {
            match op {
                Some(time) => {
                    cal.insert(Event { time: *time, id: EventId::from_raw(i as u64), payload: () })
                }
                None => {
                    black_box(cal.pop());
                }
            }
        }
        self.cal_s += t.elapsed().as_secs_f64();
        self.cal_ops += times.len() as u64;

        // Placement: every recorded decision's inputs, re-decided.
        let rule = cfg.rule;
        let t = Instant::now();
        for d in &rec.decisions {
            let request = rec.requests[d.id.0 as usize].as_ref().expect("placed jobs arrived");
            black_box(place_scoped(black_box(&d.idle), request, d.scope, rule));
        }
        self.placement_s += t.elapsed().as_secs_f64();

        // Metrics: every completion recorded as a departure.
        let clusters = cfg.system.num_clusters();
        let mut m = Metrics::new(cfg.capacity(), clusters + 1, cfg.batch_size);
        let t = Instant::now();
        for (now, job) in &rec.completions {
            m.record_departure(*now, black_box(job));
        }
        self.metrics_s += t.elapsed().as_secs_f64();
        black_box(m.report(rec.completions.last().map_or(SimTime::ZERO, |c| c.0)));
        self.departures += rec.completions.len() as u64;

        // Workload: the same job stream, pulled from a fresh feed.
        let mut feed = StochasticFeed::new(
            cfg.workload.clone(),
            cfg.arrival_rate,
            cfg.arrival_cv2,
            cfg.total_jobs,
            &RngStream::new(cfg.seed),
        );
        let t = Instant::now();
        let mut jobs = 0u64;
        while let Some(job) = feed.next_job() {
            black_box(job);
            jobs += 1;
        }
        self.feed_s += t.elapsed().as_secs_f64();
        self.jobs += jobs;
    }

    /// Adds this workload's engine-layer metrics to `report`.
    pub fn report(&self, report: &mut Report) {
        let n = self.replications as f64;
        report.check_count(
            "observed runs that differ from plain runs",
            0,
            self.observer_changed_runs,
        );
        report.metric("session.replications", n, "count");
        report.metric("session.events", self.events as f64, "count");
        report.metric("session.peak_backlog", self.peak_backlog as f64, "count");
        report.metric("session.ns_per_event", self.plain_s * 1e9 / self.events as f64, "ns");
        report.metric("network.flow_changes", self.flow_changes as f64, "count");
        report.metric("network.achieved_extension", self.extension / n, "ratio");
        let faithful = self.faithful_s / self.faithful_events as f64;
        let modelled = self.plain_s / self.events as f64;
        report.metric("network.event_cost_ratio", modelled / faithful, "ratio");
        report.check_count("placement.calls vs job starts", self.starts, self.placements);
        report.metric("workload.jobs", self.jobs as f64, "count");
        report.metric("workload.ns_per_job", self.feed_s * 1e9 / self.jobs as f64, "ns");
        report.metric("calendar.ops", self.cal_ops as f64, "count");
        report.metric("calendar.ns_per_op", self.cal_s * 1e9 / self.cal_ops as f64, "ns");
        report.metric("policy.passes", self.passes as f64, "count");
        report.metric("policy.queue_disables", self.queue_disables as f64, "count");
        report.metric(
            "policy.empty_pass_share",
            self.empty_passes as f64 / self.passes as f64,
            "ratio",
        );
        report.metric("policy.pass_ns_p50", histogram_p50(&self.pass_hist, PASS_BUCKET_NS), "ns");
        report.metric("policy.busy_share", self.pass_ns as f64 * 1e-9 / self.observed_s, "ratio");
        report.metric("placement.calls", self.placements as f64, "count");
        report.metric(
            "placement.ns_per_call",
            self.placement_s * 1e9 / self.placements as f64,
            "ns",
        );
        report.metric(
            "metrics.ns_per_departure",
            self.metrics_s * 1e9 / self.departures as f64,
            "ns",
        );
    }
}

/// One replication's outcome under its cache and store key
/// `(point digest, base seed, replication)`.
pub type Keyed = ((u64, u64, u64), SimOutcome);

/// The cache and store layers on a workload's own results: claim hits on
/// a cache holding them; appends into a fresh store under `dir`, the
/// store's size, compaction, reopening, and reads of every record.
pub fn result_layers(outcomes: &[Keyed], dir: &Path, report: &mut Report) -> std::io::Result<()> {
    let n = outcomes.len() as f64;
    let cache = ScenarioCache::new();
    for ((d, s, r), out) in outcomes {
        match cache.claim(*d, *s, *r) {
            Claim::Reserved(res) => res.fulfil(Ok(out.clone())),
            _ => report.drift.push("cache: a fresh key was not reservable".to_string()),
        }
    }
    let per_pass: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for ((d, s, r), _) in outcomes {
                black_box(cache.claim(*d, *s, *r));
            }
            t.elapsed().as_secs_f64() * 1e9 / n
        })
        .collect();
    report.metric("cache.claim_ns", median(&per_pass), "ns");

    let _ = std::fs::remove_dir_all(dir);
    let store = ResultStore::open(dir)?;
    let t = Instant::now();
    for ((d, s, r), out) in outcomes {
        store.append(*d, *s, *r, &Ok(out.clone()));
    }
    report.metric("store.append_us", t.elapsed().as_secs_f64() * 1e6 / n, "us");
    report.metric("store.records", store.len() as f64, "count");
    report.metric("store.bytes", crate::sys::dir_bytes(dir).0 as f64, "bytes");
    let t = Instant::now();
    store.compact()?;
    report.metric("store.compact_ms", t.elapsed().as_secs_f64() * 1e3, "ms");
    drop(store);
    let opens: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let s = ResultStore::open(dir);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            drop(s);
            ms
        })
        .collect();
    report.metric("store.open_ms", median(&opens), "ms");
    let store = ResultStore::open(dir)?;
    let t = Instant::now();
    let mut misses = 0;
    for ((d, s, r), _) in outcomes {
        misses += u64::from(store.get(*d, *s, *r).is_none());
    }
    report.metric("store.get_us", t.elapsed().as_secs_f64() * 1e6 / n, "us");
    report.check_count("store gets that missed", 0, misses);
    Ok(())
}

/// Result encoding: one unit's points serialized as `serve` and
/// `sweep --json` do; its size, and the median time of 50 encodes.
pub fn encode_layer(points: &[SweepPoint], report: &mut Report) {
    let per: Vec<f64> = (0..50)
        .map(|_| {
            let t = Instant::now();
            black_box(serde_json::to_string(black_box(points)).expect("points encode"));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let bytes = serde_json::to_string(points).expect("points encode").len();
    report.metric("result.bytes", bytes as f64, "bytes");
    report.metric("result.encode_us", median(&per), "us");
}

/// The constant-backlog run a workload without Table 3 times its
/// saturation layer on: GS at limit 16, its own policy and limit (the
/// saturation model has no network), on the workload's seed and scale.
pub fn saturation_probe(scale: Scale, seed: u64) -> SaturationConfig {
    let mut c = SaturationConfig::das_gs(16);
    c.seed = seed;
    c.measured_departures = scale.saturation_departures();
    c
}

/// The saturation layer: `maximal_utilization` over `cfgs`, departures
/// (warm-up included) and wall nanoseconds per departure.
pub fn saturation_layer(cfgs: &[SaturationConfig], report: &mut Report) {
    let t = Instant::now();
    let mut departures = 0;
    for c in cfgs {
        departures += c.warmup_departures + black_box(maximal_utilization(c)).departures;
    }
    let ns = t.elapsed().as_secs_f64() * 1e9;
    report.metric("saturation.departures", departures as f64, "count");
    report.metric("saturation.ns_per_departure", ns / departures as f64, "ns");
}

/// Parses a limit-16 scenario through the one parse path the CLI and
/// `serve` share.
pub fn parse_spec(policy: &str, network: Option<&str>, scale: Scale) -> ScenarioSpec {
    ScenarioSpec::parse(
        Some(policy),
        Some(16),
        None,
        None,
        None,
        None,
        None,
        None,
        network,
        None,
        None,
        scale,
    )
    .expect("benchmark scenarios are valid")
}

/// Median microseconds per scenario parse + `make_cfg` (with one point's
/// configuration built), and per `point_digest` call.
pub fn grid_costs(parse: impl Fn() -> ScenarioSpec, utilizations: &[f64]) -> (f64, f64) {
    const REPEATS: usize = 200;
    let parse_us: Vec<f64> = (0..REPEATS)
        .map(|i| {
            let t = Instant::now();
            let make = parse().make_cfg();
            black_box(make(utilizations[i % utilizations.len()]));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let spec = parse();
    let cfgs: Vec<SimConfig> = utilizations.iter().map(|&u| spec.config(u)).collect();
    let digest_us: Vec<f64> = (0..REPEATS)
        .map(|i| {
            let cfg = &cfgs[i % cfgs.len()];
            let t = Instant::now();
            black_box(coalloc::core::point_digest(black_box(cfg)));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    (median(&parse_us), median(&digest_us))
}
