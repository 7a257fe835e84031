//! `serve-study`: one closed-loop client (one request outstanding)
//! drives `coalloc-exp serve --store <dir> --threads 2` through three
//! phases of same-shaped sweep requests.
//!
//! * **cold** — request `i` runs on a fresh base seed, so the daemon
//!   executes every replication and writes it to the store;
//! * **warm** — the same requests again, several passes, on the same
//!   daemon: answered from memory only;
//! * **rehydrated** — the daemon restarted over that store, once per
//!   pass, so every measured request is a disk hit.
//!
//! Warm passes and rehydrated lives alternate after the cold phase. A
//! request is the workload's unit of results.

use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

use coalloc::core::{point_digest, replication_seed, SweepPoint};
use coalloc::experiments::Scale;
use coalloc::scenario::ScenarioSpec;

use crate::layers::{self, EngineLayers, Keyed};
use crate::refs::{self, Digests, References, Tally, FAILED};
use crate::report::{Counts, Report};
use crate::stats::{median, tail};
use crate::sys;

/// Warm passes over the cold requests, and daemon lives (one pass
/// each) in the rehydrated phase.
const PASSES: usize = 15;

/// Daemons started over the store and stopped unused before each
/// rehydrated life: more samples of `setup_s`, no requests.
const EXTRA_SETUPS: usize = 2;

/// Consecutive requests a tail is taken over: rank 90 of 100, the
/// highest percentile with ten samples beyond it. A phase's tail is the
/// median over its windows, so one burst of host noise moves one window.
const TAIL_WINDOW: usize = 100;

/// Seconds of the time budget per window of cold requests.
const SECONDS_PER_COLD_WINDOW: f64 = 30.0;

/// Cold requests whose replications a traced run replays through the
/// engine layers (every cold result feeds the cache and store layers).
const REPLAYED_REQUESTS: usize = 10;

/// The request shape every phase sends.
struct Shape {
    utilizations: Vec<f64>,
    reps: u64,
}

impl Shape {
    fn new(toy: bool) -> Self {
        if toy {
            Shape { utilizations: vec![0.3, 0.5], reps: 2 }
        } else {
            Shape { utilizations: (6..=13).map(|i| f64::from(i) * 0.05).collect(), reps: 5 }
        }
    }

    fn spec(&self) -> ScenarioSpec {
        layers::parse_spec("GS", None, Scale::Quick)
    }

    /// The cache key digest of each point.
    fn digests(&self) -> Vec<u64> {
        let make = self.spec().make_cfg();
        self.utilizations.iter().map(|&u| point_digest(&make(u))).collect()
    }

    fn line(&self, id: &str, seed: u64) -> String {
        let utils: Vec<String> = self.utilizations.iter().map(|u| format!("{u}")).collect();
        format!(
            "{{\"id\":\"{id}\",\"kind\":\"sweep\",\"policy\":\"GS\",\"limit\":16,\
             \"utilizations\":[{}],\"min_reps\":{r},\"max_reps\":{r},\"seed\":{seed}}}",
            utils.join(","),
            r = self.reps
        )
    }

    fn tasks(&self) -> u64 {
        self.utilizations.len() as u64 * self.reps
    }
}

/// The base seed of cold request `i`: a fresh substream per request.
fn request_seed(seed: u64, i: usize) -> u64 {
    replication_seed(seed, i as u64)
}

/// A running daemon and the client's ends of its pipes. Dropping it
/// kills and reaps a daemon that is still running.
struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Spawns the daemon over `store` and waits until it answers; returns
    /// it with the seconds from spawn to ready (store recovery included).
    fn spawn(exe: &Path, store: &Path, log: &Path) -> std::io::Result<(Daemon, f64)> {
        let t0 = Instant::now();
        let mut child = Command::new(exe)
            .arg("serve")
            .arg("--store")
            .arg(store)
            .args(["--threads", "2"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(std::fs::File::create(log)?)
            .spawn()?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut d = Daemon { child, stdin: Some(stdin), stdout };
        // Readiness probe: a cancel of an unknown id is answered on the
        // daemon's read thread, so the reply means the store is open and
        // requests are being read.
        d.send("{\"id\":\"ready\",\"kind\":\"cancel\",\"target\":\"perfbench-ready-probe\"}")?;
        let mut line = String::new();
        d.stdout.read_line(&mut line)?;
        if !line.contains("\"id\":\"ready\"") {
            return Err(std::io::Error::other(format!("unexpected readiness reply: {line}")));
        }
        Ok((d, t0.elapsed().as_secs_f64()))
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    fn send(&mut self, line: &str) -> std::io::Result<()> {
        let stdin = self.stdin.as_mut().expect("daemon stdin open");
        stdin.write_all(line.as_bytes())?;
        stdin.write_all(b"\n")?;
        stdin.flush()
    }

    /// Sends one request and reads events until its terminal one. When
    /// `traced`, records each round's wall seconds and the daemon's
    /// CPU seconds in it.
    fn request(&mut self, line: &str, traced: bool) -> std::io::Result<Reply> {
        let pid = self.pid();
        let cpu = || if traced { sys::live_threads_cpu_s(pid) } else { 0.0 };
        let t0 = Instant::now();
        let mut last = (0.0, cpu());
        self.send(line)?;
        let mut rounds = Vec::new();
        let mut buf = String::new();
        loop {
            buf.clear();
            if self.stdout.read_line(&mut buf)? == 0 {
                return Err(std::io::Error::other("daemon closed its output mid-request"));
            }
            let now = t0.elapsed().as_secs_f64();
            if buf.contains("\"event\":\"round\"") {
                if traced {
                    let c = cpu();
                    rounds.push((now - last.0, c - last.1));
                    last = (now, c);
                }
                continue;
            }
            let line = buf.trim_end();
            return Ok(Reply {
                latency_s: now,
                rounds,
                result: parse_result(line),
                points: line
                    .split_once("\"points\":")
                    .and_then(|(_, p)| p.strip_suffix('}'))
                    .map(str::to_string),
            });
        }
    }

    /// Closes stdin, letting the daemon drain and exit, and checks it
    /// exited cleanly.
    fn finish(mut self) -> std::io::Result<()> {
        drop(self.stdin.take());
        let status = self.child.wait()?;
        if status.success() {
            Ok(())
        } else {
            Err(std::io::Error::other(format!("daemon exited with {status}")))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The counters of a sweep `result` event; `None` for any other
/// terminal event (`error`, `timeout`, `cancelled`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct ResultFields {
    rounds: u64,
    executed: u64,
    cache_hits: u64,
    disk_hits: u64,
}

fn parse_result(line: &str) -> Option<ResultFields> {
    // Everything before `points` is a handful of counters; parse only
    // that prefix, not the (large) points array.
    let (head, _) = line.split_once(",\"points\":")?;
    let v = serde::value::parse(&format!("{head}}}")).ok()?;
    let num = |name: &str| match serde::value::field(&v, name) {
        Ok(serde::value::Value::Uint(n)) => Some(*n),
        _ => None,
    };
    if !matches!(serde::value::field(&v, "event"), Ok(serde::value::Value::String(e)) if e == "result")
    {
        return None;
    }
    Some(ResultFields {
        rounds: num("rounds")?,
        executed: num("executed")?,
        cache_hits: num("cache_hits")?,
        disk_hits: num("disk_hits")?,
    })
}

struct Reply {
    latency_s: f64,
    /// Per round: wall seconds and daemon CPU seconds (traced only).
    rounds: Vec<(f64, f64)>,
    result: Option<ResultFields>,
    points: Option<String>,
}

impl Reply {
    fn digest(&self) -> u64 {
        match (&self.result, &self.points) {
            (Some(_), Some(p)) => refs::fnv1a(p.as_bytes()),
            _ => FAILED,
        }
    }
}

/// What one phase measured.
#[derive(Default)]
struct Phase {
    latencies_ms: Vec<f64>,
    /// Per round of every request: wall and daemon CPU seconds.
    rounds: Vec<(f64, f64)>,
    daemon_cpu_s: f64,
    digests: Digests,
    totals: ResultFields,
    /// Each request's result points, parsed (cold phase only).
    points: Vec<Vec<SweepPoint>>,
}

impl Phase {
    fn record(&mut self, i: usize, reply: Reply, keep_points: bool) {
        self.latencies_ms.push(reply.latency_s * 1e3);
        self.rounds.extend(reply.rounds.iter().copied());
        self.digests.entry(format!("req-{i}")).or_default().push(reply.digest());
        if let Some(r) = reply.result {
            self.totals.rounds += r.rounds;
            self.totals.executed += r.executed;
            self.totals.cache_hits += r.cache_hits;
            self.totals.disk_hits += r.disk_hits;
        }
        if keep_points {
            let parsed = reply.points.as_deref().and_then(|p| serde_json::from_str(p).ok());
            self.points.push(parsed.unwrap_or_default());
        }
    }

    /// Simulated arrivals plus completions behind the kept points.
    fn events(&self) -> u64 {
        let runs = self.points.iter().flatten().flat_map(|p| &p.outcome.runs);
        runs.map(|r| r.arrivals + r.completed).sum()
    }
}

/// One full cold → warm → rehydrated study.
struct Study {
    cold: Phase,
    warm: Phase,
    rehydrated: Phase,
    setups_s: Vec<f64>,
    daemon_peak_mib: f64,
    warm_ups: Tally,
}

fn run_phase(
    d: &mut Daemon,
    shape: &Shape,
    seeds: &[u64],
    traced: bool,
    phase: &mut Phase,
    keep_points: bool,
) -> std::io::Result<()> {
    let cpu0 = sys::pid_cpu_s(d.pid());
    for (i, &s) in seeds.iter().enumerate() {
        let reply = d.request(&shape.line(&format!("q{i}"), s), traced)?;
        phase.record(i, reply, keep_points);
    }
    phase.daemon_cpu_s += sys::pid_cpu_s(d.pid()) - cpu0;
    Ok(())
}

/// Sends the unmeasured warm-up request a fresh daemon answers before
/// its measured ones, so first-request effects of a new process (page
/// faults, lazily spawned threads) land in no phase's percentiles. Its
/// key lies outside the measured set: executed in the cold life, a disk
/// hit in every rehydrated one. It still counts as an operation.
fn warm_up(d: &mut Daemon, shape: &Shape, seed: u64, tally: &mut Tally) -> std::io::Result<()> {
    let reply = d.request(&shape.line("warm-up", seed), false)?;
    tally.attempted += 1;
    tally.failed += u64::from(reply.result.is_none());
    Ok(())
}

fn run_study(
    exe: &Path,
    work: &Path,
    shape: &Shape,
    seeds: &[u64],
    warm_up_seed: u64,
    traced: bool,
) -> std::io::Result<Study> {
    let store = work.join("store");
    let _ = std::fs::remove_dir_all(&store);
    let mut study = Study {
        cold: Phase::default(),
        warm: Phase::default(),
        rehydrated: Phase::default(),
        setups_s: Vec::new(),
        daemon_peak_mib: 0.0,
        warm_ups: Tally::default(),
    };

    let (mut warm, _) = Daemon::spawn(exe, &store, &work.join("daemon-cold.log"))?;
    warm_up(&mut warm, shape, warm_up_seed, &mut study.warm_ups)?;
    run_phase(&mut warm, shape, seeds, traced, &mut study.cold, true)?;

    // Warm passes and rehydrated lives alternate, so both phases span
    // the same stretch of the run and a burst of host noise cannot fall
    // on one phase alone. The cold daemon stays up (idle) while each
    // restarted one serves; the restarted ones open a copy of the store
    // taken after cold, so two live daemons never share segment files.
    let rehydrated = work.join("store-rehydrated");
    copy_dir(&store, &rehydrated)?;
    for _ in 0..PASSES {
        run_phase(&mut warm, shape, seeds, traced, &mut study.warm, false)?;
        let log = work.join("daemon-rehydrated.log");
        for _ in 0..EXTRA_SETUPS {
            let (d, ready_s) = Daemon::spawn(exe, &rehydrated, &log)?;
            study.setups_s.push(ready_s);
            d.finish()?;
        }
        let (mut d, ready_s) = Daemon::spawn(exe, &rehydrated, &log)?;
        study.setups_s.push(ready_s);
        warm_up(&mut d, shape, warm_up_seed, &mut study.warm_ups)?;
        run_phase(&mut d, shape, seeds, traced, &mut study.rehydrated, false)?;
        d.finish()?;
    }
    study.daemon_peak_mib = sys::peak_rss_mib(Some(warm.pid()));
    warm.finish()?;
    Ok(study)
}

/// Copies the regular files of directory `from` into a fresh `to`.
fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

fn counts_of(study: &Study) -> Counts {
    let mut c = Counts::default();
    for (name, p) in
        [("cold", &study.cold), ("warm", &study.warm), ("rehydrated", &study.rehydrated)]
    {
        c.add(&format!("cache.hits.{name}"), p.totals.cache_hits);
        c.add(&format!("cache.misses.{name}"), p.totals.executed);
        c.add(&format!("cache.disk_hits.{name}"), p.totals.disk_hits);
        c.add(&format!("serve.rounds.{name}"), p.totals.rounds);
        c.add(&format!("serve.requests.{name}"), p.latencies_ms.len() as u64);
    }
    c.add("session.events", study.cold.events());
    c
}

/// Checks a study's results: cold (and every count) against the
/// reference for `key`, warm and rehydrated byte-identical to cold, and
/// each phase served from where it must be (cold executes everything,
/// warm only memory hits, rehydrated only disk hits).
fn check(study: &Study, shape: &Shape, refs: &References, key: String, report: &mut Report) {
    report.check_results(refs, key, &study.cold.digests, &counts_of(study));
    let cold = &study.cold.digests;
    let repeated = |passes: usize| -> Digests {
        cold.iter().map(|(k, v)| (k.clone(), v.repeat(passes))).collect()
    };
    report.tally += refs::check(&study.warm.digests, &repeated(PASSES));
    report.tally += refs::check(&study.rehydrated.digests, &repeated(PASSES));
    report.tally += study.warm_ups;

    let n = study.cold.latencies_ms.len() as u64;
    let tasks = shape.tasks();
    let want = |executed, hits, disk| ResultFields {
        rounds: 0,
        executed,
        cache_hits: hits,
        disk_hits: disk,
    };
    let got = |p: &Phase| ResultFields { rounds: 0, ..p.totals };
    let m = PASSES as u64;
    for (name, phase, expected) in [
        ("cold", &study.cold, want(n * tasks, 0, 0)),
        ("warm", &study.warm, want(0, m * n * tasks, 0)),
        ("rehydrated", &study.rehydrated, want(0, m * n * tasks, m * n * tasks)),
    ] {
        if got(phase) != expected {
            report
                .drift
                .push(format!("{name} phase served {:?}, expected {expected:?}", got(phase)));
        }
    }
}

/// Runs the study (and, when `traced`, a traced repeat plus the
/// in-process cache, store, encode and session measurements).
pub fn run(
    exe: &Path,
    toy: bool,
    seed: u64,
    seconds: f64,
    traced: bool,
    refs: &References,
    work: &Path,
) -> std::io::Result<Report> {
    let shape = Shape::new(toy);
    let windows = ((seconds / SECONDS_PER_COLD_WINDOW).round() as usize).max(1);
    let cold_n = TAIL_WINDOW * windows;
    let seeds: Vec<u64> = (0..cold_n).map(|i| request_seed(seed, i)).collect();
    let warm_up_seed = request_seed(seed, cold_n);
    let mut report = Report::default();

    // The request count is part of the inputs, so part of the key.
    let key = refs.key(&format!("serve-study-{cold_n}req"), seed);
    let study = run_study(exe, work, &shape, &seeds, warm_up_seed, false)?;
    check(&study, &shape, refs, key.clone(), &mut report);
    for (name, p) in
        [("cold", &study.cold), ("warm", &study.warm), ("rehydrated", &study.rehydrated)]
    {
        let tails: Vec<f64> =
            p.latencies_ms.chunks_exact(TAIL_WINDOW).filter_map(|w| Some(tail(w)?.0)).collect();
        eprintln!(
            "perfbench: {name}: p50 {:.3} ms of {} same-shaped requests; tail {:.3} ms, the \
             median over {} windows of {TAIL_WINDOW} of each window's p90",
            median(&p.latencies_ms),
            p.latencies_ms.len(),
            median(&tails),
            tails.len()
        );
    }

    if !traced {
        report.metric("setup_s", median(&study.setups_s), "s");
        report.metric("cold_ms", median(&study.cold.latencies_ms), "ms");
        report.metric("warm_ms", median(&study.warm.latencies_ms), "ms");
        report.metric("rehydrated_ms", median(&study.rehydrated.latencies_ms), "ms");
        let rate = study.cold.events() as f64 / study.cold.daemon_cpu_s;
        report.metric("events_per_cpu_s", rate, "events/CPU-s");
        report.metric("peak_rss_mb", study.daemon_peak_mib, "MiB");
        report.metric("ok_share", report.tally.ok_share(), "ratio");
        return Ok(report);
    }

    let traced_study = run_study(exe, work, &shape, &seeds, warm_up_seed, true)?;
    check(&traced_study, &shape, refs, key, &mut report);
    for (name, u, t) in [
        ("cold", &study.cold, &traced_study.cold),
        ("warm", &study.warm, &traced_study.warm),
        ("rehydrated", &study.rehydrated, &traced_study.rehydrated),
    ] {
        let (um, tm) = (median(&u.latencies_ms), median(&t.latencies_ms));
        eprintln!("perfbench: tracing overhead on {name}_ms: {:+.1} %", 100.0 * (tm - um) / um);
    }
    report.overhead(
        "cold_ms",
        median(&traced_study.cold.latencies_ms),
        median(&study.cold.latencies_ms),
    );

    // Counts are per request, the workload's unit.
    let t = &traced_study;
    let n = t.cold.latencies_ms.len() as f64;
    let per = |x: u64| x as f64 / n;
    report.metric("queue.rounds", per(t.cold.totals.rounds), "count");
    report.metric("queue.reps", per(t.cold.totals.executed), "count");
    let points = shape.utilizations.len() as f64;
    report.metric("queue.reps_per_point", per(t.cold.totals.executed) / points, "count");
    let cold_wall: f64 = t.cold.latencies_ms.iter().sum::<f64>() * 1e-3;
    report.metric("pool.busy_share", t.cold.daemon_cpu_s / (2.0 * cold_wall), "ratio");
    let idle: f64 = t.cold.rounds.iter().map(|(w, c)| 2.0 * w - c).sum();
    report.metric("pool.round_idle_s", idle / n, "s");
    report.metric("cache.executed.cold", per(t.cold.totals.executed), "count");
    let repeated = n * PASSES as f64;
    report.metric("cache.hits.warm", t.warm.totals.cache_hits as f64 / repeated, "count");
    let disk = t.rehydrated.totals.disk_hits as f64 / repeated;
    report.metric("cache.disk_hits.rehydrated", disk, "count");
    report.metric("grid.points", points, "count");
    let (parse_us, digest_us) = layers::grid_costs(|| shape.spec(), &shape.utilizations);
    report.metric("scenario.parse_us", parse_us, "us");
    report.metric("grid.digest_us", digest_us, "us");

    let (keyed, utils) = keyed_cold(&shape, &seeds, &t.cold);
    layers::result_layers(&keyed, &work.join("store-layer"), &mut report)?;
    layers::encode_layer(&t.cold.points[0], &mut report);
    layers::saturation_layer(&[layers::saturation_probe(Scale::Quick, seed)], &mut report);

    // The engine layers on the first cold requests' replications; each
    // replay must give the daemon's result.
    let spec = shape.spec();
    let replayed = REPLAYED_REQUESTS * shape.tasks() as usize;
    let mut engine = EngineLayers::new();
    let mut events = 0;
    for (((_, s, rep), out), u) in keyed.iter().zip(&utils).take(replayed) {
        let cfg = spec.config(*u).with_seed(replication_seed(*s, *rep));
        let got = engine.replay(&cfg);
        events += out.arrivals + out.completed;
        if got.metrics.mean_response.to_bits() != out.metrics.mean_response.to_bits() {
            report.drift.push(format!("replay of seed {s} @{u:.2} rep {rep} differs from serve"));
        }
    }
    report.check_count("session.events (replay vs serve)", events, engine.events());
    engine.report(&mut report);
    Ok(report)
}

/// Every cold replication the daemon returned, under its cache key, in
/// request, point and replication order, with its point's utilization.
fn keyed_cold(shape: &Shape, seeds: &[u64], cold: &Phase) -> (Vec<Keyed>, Vec<f64>) {
    let digests = shape.digests();
    let (mut keyed, mut utils) = (Vec::new(), Vec::new());
    for (points, &seed) in cold.points.iter().zip(seeds) {
        for (p, &d) in points.iter().zip(&digests) {
            for (rep, run) in p.outcome.runs.iter().enumerate() {
                keyed.push(((d, seed, rep as u64), run.clone()));
                utils.push(p.target_utilization);
            }
        }
    }
    (keyed, utils)
}
