//! The coalloc benchmark program; see `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <paper-campaign|network-contended|serve-study>
//!           --seed <n> --seconds <s> --trace <0|1> --daemon <coalloc-exp>
//!           [--toy] [--pin <reference.json>]
//! perfbench --selftest --daemon <coalloc-exp>
//! ```
//!
//! Human-readable progress goes to stderr; the last line of stdout is
//! the result object `{"correct", "attempted", "failed", "metrics"}`.

mod layers;
mod refs;
mod report;
mod serve_study;
mod stats;
mod sweeps;
mod sys;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use report::Report;

/// The seed the pinned reference digests belong to (the repository's
/// default base seed).
const DEFAULT_SEED: u64 = 2003;

/// Where runs keep their checkpoints, stores and logs, relative to the
/// checkout root they are started from.
const WORK_DIR: &str = ".bench_work";

const WORKLOADS: [&str; 3] = ["paper-campaign", "network-contended", "serve-study"];

/// The command line; see the module docs.
struct Args {
    workload: String,
    seed: u64,
    /// The time budget a run's amount of work is sized from.
    seconds: f64,
    trace: bool,
    /// The `coalloc-exp` binary serve-study drives.
    daemon: Option<PathBuf>,
    /// Toy-size inputs (the self-test's).
    toy: bool,
    /// Flip one digest of every reference handed out (the self-test's
    /// deliberately wrong pin).
    corrupt: bool,
    /// Write the run's result sets into this reference file.
    pin: Option<PathBuf>,
    selftest: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        daemon: None,
        toy: false,
        corrupt: false,
        pin: None,
        selftest: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--daemon" => a.daemon = Some(PathBuf::from(value()?)),
            "--pin" => a.pin = Some(PathBuf::from(value()?)),
            "--toy" => a.toy = true,
            "--selftest" => a.selftest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    // The self-test always runs at toy size.
    a.toy |= a.selftest;
    if !a.selftest && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    Ok(a)
}

/// Runs one workload and returns its report (the caller prints it).
fn run_workload(
    workload: &str,
    a: &Args,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Report, String> {
    let size = if a.toy { "toy" } else { "full" };
    let refs = refs::References::new(size, a.corrupt, &Path::new(WORK_DIR).join("references"));
    eprintln!(
        "perfbench: {workload} ({size}), seed {seed}, {seconds} s budget, trace {}",
        u8::from(trace)
    );
    let work = Path::new(WORK_DIR).join(workload);
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;

    let cpu0 = sys::thread_cpu_s();
    let steal0 = sys::steal_s();
    let t0 = Instant::now();
    let kind = match workload {
        "paper-campaign" => Some(sweeps::Kind::PaperCampaign),
        "network-contended" => Some(sweeps::Kind::NetworkContended),
        _ => None,
    };
    let mut report = match kind {
        Some(kind) => sweeps::run(kind, a.toy, seed, seconds, trace, &refs, &work),
        None => {
            let daemon = a.daemon.as_deref().ok_or("serve-study needs --daemon <coalloc-exp>")?;
            serve_study::run(daemon, a.toy, seed, seconds, trace, &refs, &work)
        }
    }
    .map_err(|e| format!("{workload}: {e}"))?;
    // The environment self-report: for reading noise, never for
    // filtering it.
    let bench_cpu = sys::thread_cpu_s() - cpu0;
    let steal = sys::steal_s() - steal0;
    eprintln!(
        "perfbench-env {{\"wall_s\": {:.3}, \"bench_cpu_s\": {bench_cpu:.3}, \"steal_s\": {steal:.2}}}",
        t0.elapsed().as_secs_f64()
    );
    if trace {
        report.metric("env.bench_cpu_s", bench_cpu, "s");
        report.metric("env.steal_s", steal, "s");
    }
    for d in &report.drift {
        eprintln!("perfbench: DRIFT: {d}");
    }
    if report.tally.failed > 0 {
        eprintln!(
            "perfbench: {} of {} operations did not match their reference",
            report.tally.failed, report.tally.attempted
        );
    }
    let _ = std::fs::remove_dir_all(&work);
    Ok(report)
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if a.selftest {
        return selftest(&a);
    }
    let report = match run_workload(&a.workload, &a, a.seed, a.seconds, a.trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    if let Some(path) = &a.pin {
        for (key, set) in &report.results {
            if let Err(e) = refs::pin(path, key, set) {
                eprintln!("perfbench: writing {}: {e}", path.display());
                return ExitCode::from(1);
            }
            eprintln!("perfbench: pinned {key} into {}", path.display());
        }
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}

/// Metric names with their units.
type Declared = Vec<(String, String)>;

/// Metric names and units `BENCHMARK.json` declares, end-to-end and
/// per-layer.
fn declared() -> Result<(Declared, Declared), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json: {e}"))?;
    let v = serde::value::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| -> Result<Declared, String> {
        let Ok(serde::value::Value::Array(items)) = serde::value::field(&v, key) else {
            return Err(format!("BENCHMARK.json has no {key} list"));
        };
        Ok(items
            .iter()
            .filter_map(|m| {
                let s = |k: &str| match serde::value::field(m, k) {
                    Ok(serde::value::Value::String(s)) => Some(s.clone()),
                    _ => None,
                };
                Some((s("name")?, s("unit")?))
            })
            .collect())
    };
    Ok((list("end_to_end")?, list("per_layer")?))
}

/// The toy-size self-test: every workload runs traced and untraced at
/// the default seed and prints exactly the metrics `BENCHMARK.json`
/// declares for that mode (end-to-end untraced, per-layer traced), each
/// in its declared unit; every run is correct; and a deliberately
/// corrupted pinned digest drives `ok_share` below 1.
fn selftest(a: &Args) -> ExitCode {
    let mut failures: Vec<String> = Vec::new();
    let (e2e, per_layer) = match declared() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("selftest: {e}");
            return ExitCode::from(1);
        }
    };
    for workload in WORKLOADS {
        for trace in [false, true] {
            let declared = if trace { &per_layer } else { &e2e };
            match run_workload(workload, a, DEFAULT_SEED, 1.0, trace) {
                Err(e) => failures.push(format!("{workload}: {e}")),
                Ok(r) => {
                    if !r.correct() {
                        failures.push(format!("{workload} trace {trace}: run not correct"));
                    }
                    let printed = r.units();
                    for (name, unit) in &printed {
                        if !declared.iter().any(|(n, u)| n == name && u == unit) {
                            failures.push(format!(
                                "{workload} trace {trace}: {name} [{unit}] is not declared"
                            ));
                        }
                    }
                    for (name, _) in declared {
                        if !printed.iter().any(|(n, _)| n == name) {
                            failures.push(format!("{workload} trace {trace}: {name} is missing"));
                        }
                    }
                    if !trace && r.value("ok_share") != Some(1.0) {
                        failures.push(format!("{workload}: ok_share is not 1"));
                    }
                }
            }
        }
    }
    let corrupted =
        Args { corrupt: true, workload: String::new(), daemon: a.daemon.clone(), pin: None, ..*a };
    for workload in ["paper-campaign", "serve-study"] {
        match run_workload(workload, &corrupted, DEFAULT_SEED, 1.0, false) {
            Ok(r) if r.value("ok_share").is_some_and(|s| s < 1.0) && !r.correct() => {
                eprintln!(
                    "selftest: a wrong pinned digest gives {workload} ok_share {:?}",
                    r.value("ok_share")
                );
            }
            Ok(_) => failures.push(format!("{workload}: a wrong pinned digest went unnoticed")),
            Err(e) => failures.push(format!("{workload} (corrupted reference): {e}")),
        }
    }
    if failures.is_empty() {
        eprintln!("selftest: ok");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("selftest: FAIL: {f}");
        }
        ExitCode::from(1)
    }
}
