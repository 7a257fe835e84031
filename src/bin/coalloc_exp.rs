//! `coalloc-exp` — regenerates every table and figure of Bucur & Epema
//! (HPDC 2003) from the simulator.
//!
//! ```text
//! coalloc-exp <target> [--full] [--save <dir>]
//! coalloc-exp list        every target, one line each
//! coalloc-exp all         every table and figure, in paper order
//! ```
//!
//! --full runs paper-scale simulations (tens of CPU-minutes); the
//! default quick scale reproduces every qualitative shape in ~a minute.
//! One table, [`TARGETS`], names every target: the usage line, `list`,
//! dispatch and `all` all read it.
//!
//! Argument errors never panic: every parser returns a
//! [`CoallocError`], every configuration is validated before it runs,
//! and `main` prints `error: <what>` on stderr and exits with status 2
//! (status 1 is reserved for failed contract checks such as `--audit`
//! and `--assert-precision`).

use std::io::Write;
use std::path::Path;
use std::process::ExitCode;

use coalloc::core::CoallocError;
use coalloc::experiments::{self, Scale};

/// The options of the subcommands that take more than `--full`.
const COMMAND_OPTIONS: &str = "\
runjson <GS|LS|LP|SC|GB> <limit> <utilization>
        [--events <path>] [--audit] [--warmup auto|N]
        [--capacities a,b,c] [--faults <spec>]
        [--interrupt front|back|abort]
        [--disposition rigid|moldable|malleable]
        [--queue-discipline fcfs|easy|conservative]
        [--estimate-factor X] [--network <net>]   (JSON SimOutcome)
sweep <GS|LS|LP|SC|GB> <limit> [--utils a,b,c] [--rel-ci X]
      [--min-reps N] [--max-reps N] [--warmup auto|N]
      [--checkpoint <path>] [--assert-precision] [--audit]
      [--capacities a,b,c] [--faults <spec>]
      [--interrupt front|back|abort] [--inject-panic U]
      [--disposition rigid|moldable|malleable]
      [--queue-discipline fcfs|easy|conservative]
      [--estimate-factor X] [--network <net>]
      [--store <dir>] [--cache-cap N]
      [--json]   (adaptive sweep; stats table or JSON points)
serve [--threads N] [--full] [--store <dir>] [--cache-cap N]
      (JSONL request daemon on stdin/stdout; --store makes
       results crash-safe across restarts)
fault specs: exp:MTTF:MTTR or down:T:K[:R],up:T:K,...
network specs: <bandwidth>[:backbone|:pairwise] (concurrent-flow units; `inf` = uncontended)";

fn usage() -> ExitCode {
    let mut names = String::from("targets:");
    let mut width = names.len();
    for t in TARGETS {
        if width + 1 + t.name.len() > 72 {
            names.push_str("\n        ");
            width = 8;
        }
        names.push(' ');
        names.push_str(t.name);
        width += 1 + t.name.len();
    }
    eprintln!("usage: coalloc-exp <target> [--full] [--save <dir>]\n{names}\n{COMMAND_OPTIONS}");
    ExitCode::from(2)
}

/// Renders a [`CoallocError`] the way a Unix tool should: one `error:`
/// line on stderr, usage, exit status 2.
fn fail(e: CoallocError) -> ExitCode {
    eprintln!("error: {e}");
    usage()
}

/// Finds a `--flag value` pair anywhere in `args`; a flag present
/// without its value is an error, an absent flag is `None`.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, CoallocError> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(v) => Ok(Some(v.as_str())),
            None => Err(CoallocError::MissingValue { flag: flag.to_string() }),
        },
    }
}

/// Parses an optional `--flag value` through [`std::str::FromStr`],
/// naming the flag and the expected shape on failure.
fn parse_flag<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
    want: &str,
) -> Result<Option<T>, CoallocError> {
    flag_value(args, flag)?
        .map(|v| v.parse().map_err(|_| CoallocError::invalid(flag, v, want)))
        .transpose()
}

/// Parses the shared scenario axes of a `runjson` or `sweep` command
/// line (`<policy> <limit>` positionals plus the scenario flags) into
/// the validated [`coalloc::scenario::ScenarioSpec`] both the CLI and
/// `serve` build configurations from.
fn scenario_spec(
    args: &[String],
    scale: Scale,
) -> Result<coalloc::scenario::ScenarioSpec, CoallocError> {
    let limit = args
        .get(1)
        .map(|v| {
            v.parse::<u32>()
                .map_err(|_| CoallocError::invalid("<limit>", v, "a component-size limit"))
        })
        .transpose()?;
    coalloc::scenario::ScenarioSpec::parse(
        args.first().map(String::as_str),
        limit,
        flag_value(args, "--capacities")?,
        flag_value(args, "--faults")?,
        flag_value(args, "--interrupt")?,
        flag_value(args, "--disposition")?,
        flag_value(args, "--queue-discipline")?,
        parse_flag(args, "--estimate-factor", "a positive multiplier (or `inf`)")?,
        flag_value(args, "--network")?,
        flag_value(args, "--warmup")?,
        parse_flag(args, "--inject-panic", "a utilization")?,
        scale,
    )
}

/// Runs the JSONL request daemon on stdin/stdout: one JSON request per
/// input line, streamed JSON events per output line, all requests
/// sharing one worker pool and one scenario cache. `--store <dir>`
/// backs the cache with the crash-safe on-disk result store (a
/// restarted daemon rehydrates instead of re-executing); `--cache-cap
/// <n>` bounds the in-memory cache with LRU eviction. See
/// [`coalloc::serve`] for the protocol, including `cancel`, `shutdown`,
/// and per-request `timeout_ms`.
fn serve_cmd(args: &[String], scale: Scale) -> Result<ExitCode, CoallocError> {
    let opts = coalloc::serve::ServeOptions {
        threads: parse_flag(args, "--threads", "a worker count")?.unwrap_or(0),
        default_scale: scale,
        store: flag_value(args, "--store")?.map(std::path::PathBuf::from),
        cache_cap: parse_flag(args, "--cache-cap", "an entry count")?,
    };
    let durable = opts.store.is_some();
    let summary = coalloc::serve::serve_with(std::io::stdin().lock(), std::io::stdout(), &opts)
        .map_err(|e| CoallocError::io("serving requests", e))?;
    eprintln!(
        "served {} requests ({} errors); scenario cache: {} hits, {} misses",
        summary.requests, summary.errors, summary.cache_hits, summary.cache_misses
    );
    if durable || summary.cancelled > 0 {
        eprintln!(
            "durability: {} disk hits, {} requests cancelled or timed out",
            summary.disk_hits, summary.cancelled
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// Runs a precision-targeted adaptive sweep for one policy and prints
/// the per-point statistics table. `--assert-precision` exits nonzero if
/// a non-saturated point neither met the relative-CI target nor spent
/// the replication cap (the adaptive engine's contract). `--faults`
/// injects cluster failures into every replication; `--inject-panic U`
/// deliberately breaks the configuration at utilization `U` to
/// demonstrate panic isolation (the point shows up in the `fail`
/// column, the process still exits 0).
fn sweep_cmd(args: &[String], scale: Scale) -> Result<ExitCode, CoallocError> {
    use coalloc::core::experiment::{sweep_on, ResultStore, ScenarioCache, WorkerPool};
    use coalloc::core::report;
    let spec = scenario_spec(args, scale)?;
    let mut cfg = scale.sweep();
    if let Some(utils) = flag_value(args, "--utils")? {
        cfg.utilizations = utils
            .split(',')
            .map(|u| {
                u.parse().map_err(|_| {
                    CoallocError::invalid("--utils", u, "comma-separated utilizations")
                })
            })
            .collect::<Result<_, _>>()?;
    }
    if let Some(v) = parse_flag(args, "--rel-ci", "a relative half-width like 0.05")? {
        cfg.rel_ci_target = v;
    }
    if let Some(v) = parse_flag(args, "--min-reps", "a replication count")? {
        cfg.min_replications = v;
    }
    if let Some(v) = parse_flag(args, "--max-reps", "a replication count")? {
        cfg.max_replications = v;
    }
    cfg.checkpoint = flag_value(args, "--checkpoint")?.map(std::path::PathBuf::from);
    cfg.audit = args.iter().any(|a| a == "--audit");
    cfg.validate()?;
    // A cache only with `--store` (the crash-safe result store behind
    // it lets a re-run, or a serve daemon on the same directory,
    // rehydrate finished replications) or `--cache-cap`.
    let cache_cap: Option<usize> = parse_flag(args, "--cache-cap", "an entry count")?;
    let disk = flag_value(args, "--store")?
        .map(|dir| {
            ResultStore::open(dir)
                .map_err(|e| CoallocError::io(format!("opening result store {dir}"), e))
        })
        .transpose()?;
    let cache =
        (disk.is_some() || cache_cap.is_some()).then(|| ScenarioCache::with(disk, cache_cap));
    let pool = WorkerPool::new(cfg.threads);
    let (points, stats) = sweep_on(&pool, cache.as_ref(), spec.make_cfg(), &cfg, |_| {});
    if let Some(cache) = &cache {
        eprintln!(
            "sweep: {} replications executed, {} cache hits ({} rehydrated from disk)",
            stats.executed, stats.cache_hits, stats.disk_hits
        );
        if let Some(store) = cache.disk_store() {
            if store.fragmented() {
                if let Err(e) = store.compact() {
                    eprintln!("warning: result store compaction failed ({e})");
                }
            }
        }
    }
    if args.iter().any(|a| a == "--json") {
        // The exact bytes `serve` embeds in its result events — clients
        // can diff the two representations with `cmp`.
        println!("{}", serde_json::to_string(&points).expect("SweepPoints serialize"));
    } else {
        let title = format!(
            "Adaptive sweep: {}, rel-CI target {:.0}%, {}..{} reps",
            spec.label(),
            100.0 * cfg.rel_ci_target,
            cfg.min_replications,
            cfg.max_replications
        );
        println!("{}", report::sweep_stats_table(&title, &points));
    }
    for p in &points {
        for f in &p.outcome.failures {
            eprintln!(
                "failed replication at util {:.2}: rep {} (seed {}): {}",
                p.target_utilization, f.rep, f.seed, f.cause
            );
        }
    }
    if args.iter().any(|a| a == "--assert-precision") {
        let mut failed = false;
        for p in &points {
            let o = &p.outcome;
            if o.saturated || o.runs.is_empty() {
                continue;
            }
            let met = o.response.relative_error() <= cfg.rel_ci_target;
            let capped = (o.runs.len() + o.failures.len()) as u64 >= cfg.max_replications;
            if !met && !capped {
                eprintln!(
                    "point {:.2}: rel err {:.3} above target {:.3} with only {} reps",
                    p.target_utilization,
                    o.response.relative_error(),
                    cfg.rel_ci_target,
                    o.runs.len()
                );
                failed = true;
            }
        }
        if failed {
            return Ok(ExitCode::from(1));
        }
        eprintln!("precision contract holds for all {} points", points.len());
    }
    Ok(ExitCode::SUCCESS)
}

/// Runs one simulation of the config a sweep with the same flags
/// replicates (batch size included; the seed is the config's default)
/// and prints the full outcome as JSON. `--events <path>` additionally writes the structured
/// decision-event log (one JSON object per line); `--audit` attaches the
/// invariant auditor and exits nonzero if the run broke any of the
/// paper's rules; `--faults` and `--interrupt` inject cluster failures.
fn runjson(args: &[String], scale: Scale) -> Result<ExitCode, CoallocError> {
    use coalloc::core::{InvariantAuditor, JsonlSink, SimBuilder, Tee};
    let spec = scenario_spec(args, scale)?;
    let util = match args.get(2) {
        Some(v) => v.parse().ok().filter(|u: &f64| *u > 0.0 && u.is_finite()).ok_or_else(|| {
            CoallocError::invalid("<utilization>", v, "a positive gross utilization")
        })?,
        None => return Err(CoallocError::MissingValue { flag: "<utilization>".to_string() }),
    };
    let events_path = flag_value(args, "--events")?.map(std::path::PathBuf::from);
    let audit = args.iter().any(|a| a == "--audit");
    let cfg = spec.config(util);
    cfg.validate()?;

    let mut sink = match events_path {
        Some(path) => {
            let file = std::fs::File::create(&path)
                .map_err(|e| CoallocError::io(format!("creating {}", path.display()), e))?;
            Some(JsonlSink::new(std::io::BufWriter::new(file)))
        }
        None => None,
    };
    let mut auditor = audit.then(|| InvariantAuditor::new(&cfg));

    let out = match (&mut sink, &mut auditor) {
        (Some(sink), Some(auditor)) => {
            SimBuilder::new(&cfg).run_observed(&mut Tee::new(sink, auditor))
        }
        (Some(sink), None) => SimBuilder::new(&cfg).run_observed(sink),
        (None, Some(auditor)) => SimBuilder::new(&cfg).run_observed(auditor),
        (None, None) => SimBuilder::new(&cfg).run(),
    };
    if let Some(sink) = sink {
        let n = sink.events_written();
        sink.finish().map_err(|e| CoallocError::io("writing event log", e))?;
        eprintln!("wrote {n} events");
    }
    println!("{}", serde_json::to_string_pretty(&out).expect("SimOutcome serializes"));
    if let Some(auditor) = auditor {
        eprintln!("audit: {}", auditor.report());
        if !auditor.is_clean() {
            return Ok(ExitCode::from(1));
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Renders a section's text at a scale.
type Render = fn(Scale) -> String;

/// What naming a target does.
#[derive(Clone, Copy)]
enum Action {
    /// Prints a section of the evaluation under its heading; `all`
    /// prints every section, in table order.
    Section(&'static str, Render),
    /// Prints a section that `all` leaves out: it redraws data a section
    /// already prints.
    Redraw(&'static str, Render),
    /// Runs a subcommand on the arguments after the target's name.
    Command(fn(&[String], Scale) -> Result<ExitCode, CoallocError>),
    /// Prints every section.
    All,
    /// Prints every target but itself, with what it does.
    List,
}

/// A command-line target: its name, what `list` says it does, and what
/// naming it does.
struct Target {
    name: &'static str,
    what: &'static str,
    action: Action,
}

impl Target {
    const fn new(name: &'static str, action: Action) -> Self {
        Target { name, what: "", action }
    }

    const fn about(self, what: &'static str) -> Self {
        Target { what, ..self }
    }
}

use Action::{Command, Redraw, Section};

/// Every target, sections in the order `all` prints them.
const TARGETS: &[Target] = &[
    Target::new("table1", Section("Table 1", |_| experiments::table1()))
        .about("fractions of jobs with power-of-two sizes (paper Table 1)"),
    Target::new("fig1", Section("Figure 1", |_| experiments::fig1()))
        .about("density of job-request sizes (paper Fig 1)"),
    Target::new("fig2", Section("Figure 2", |_| experiments::fig2()))
        .about("density of service times (paper Fig 2)"),
    Target::new("table2", Section("Table 2", |_| experiments::table2()))
        .about("component-count fractions per limit (paper Table 2)"),
    Target::new("fig3", Section("Figure 3", experiments::fig3))
        .about("response vs gross utilization, 6 panels (paper Fig 3)"),
    Target::new("fig4", Section("Figure 4", experiments::fig4))
        .about("per-queue responses near LP saturation (paper Fig 4)"),
    Target::new("fig5", Section("Figure 5", experiments::fig5))
        .about("DAS-s-64 vs DAS-s-128 (paper Fig 5)"),
    Target::new("fig6", Section("Figure 6", experiments::fig6))
        .about("per-policy limit comparison (paper Fig 6)"),
    Target::new("fig7", Section("Figure 7", experiments::fig7))
        .about("gross vs net utilization curves (paper Fig 7)"),
    Target::new("table3", Section("Table 3", experiments::table3))
        .about("maximal utilizations, GS + SC (paper Table 3)"),
    Target::new("ratios", Section("Gross/net ratios (§4)", |_| experiments::ratios()))
        .about("closed-form gross/net ratios (paper section 4)"),
    Target::new("table3x", Section("Table 3 (extended)", experiments::table3_extended))
        .about("maximal utilizations for every policy (extension)"),
    Target::new("packing", Section("Packing analysis (§3.3)", |_| experiments::packing()))
        .about("mechanized section 3.3 packing analysis"),
    Target::new("scorecard", Section("Conclusions scorecard", experiments::scorecard))
        .about("all headline claims re-evaluated, PASS/FAIL"),
    Target::new("reqtypes", Section("Extension: request structures", experiments::request_types))
        .about("ordered vs unordered vs flexible requests (extension)"),
    Target::new("placement", Section("Ablation: placement rules", experiments::placement_rules))
        .about("Worst/Best/First Fit ablation"),
    Target::new("backfill", Section("Extension: backfilling", experiments::backfilling))
        .about("GS vs GB (aggressive backfilling) vs LS (extension)"),
    Target::new("dispositions", Section("Extension: job dispositions", experiments::dispositions))
        .about("rigid vs moldable vs malleable jobs per policy (extension)"),
    Target::new(
        "extfactor",
        Section("Extension: extension-factor sensitivity", experiments::extension_sensitivity),
    )
    .about("extension-factor sensitivity (viability conclusion)"),
    Target::new("burstiness", Section("Extension: arrival burstiness", experiments::burstiness))
        .about("arrival-burstiness sensitivity (extension)"),
    Target::new(
        "network",
        Section("Extension: bandwidth-sharing network", experiments::network_load),
    )
    .about("bandwidth-sharing wide-area network (extension)"),
    Target::new(
        "correlation",
        Section("Extension: size-service correlation", experiments::correlation),
    )
    .about("size-service correlation sensitivity (extension)"),
    Target::new("das2", Section("Extension: the real DAS2 geometry", experiments::das2))
        .about("the real 72+4x32 DAS2 geometry (extension)"),
    Target::new("plot", Redraw("Terminal plot (Fig 3, limit 16)", experiments::terminal_plot))
        .about("ASCII terminal plot of the headline panel"),
    Target::new("runjson", Command(runjson)).about("one simulation, full JSON outcome"),
    Target::new("sweep", Command(sweep_cmd))
        .about("adaptive-replication sweep with per-point CI stats"),
    Target::new("serve", Command(serve_cmd))
        .about("JSONL sweep/saturation daemon with a shared scenario cache"),
    Target::new("list", Action::List),
    Target::new("all", Action::All).about("everything above, in paper order"),
];

/// Prints a section under its heading and, with a save directory,
/// writes its text to `<dir>/<slug>.txt`. Stdout write errors are
/// ignored so `coalloc-exp ... | head` exits quietly instead of
/// panicking on the closed pipe.
fn emit(heading: &str, text: &str, save_dir: Option<&Path>) -> Result<(), CoallocError> {
    let rule = "=============================================================";
    let _ = writeln!(std::io::stdout(), "{rule}\n== {heading}\n{rule}\n{text}");
    if let Some(dir) = save_dir {
        let slug: String = heading
            .to_lowercase()
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        let file = dir.join(format!("{slug}.txt"));
        std::fs::write(&file, text)
            .map_err(|e| CoallocError::io(format!("writing {}", file.display()), e))?;
    }
    Ok(())
}

/// Runs one target with the arguments after its name.
fn run(target: &Target, args: &[String], scale: Scale) -> Result<ExitCode, CoallocError> {
    let sections: Vec<(&str, Render)> = match target.action {
        Command(run) => return run(args, scale),
        Action::List => {
            // The listing leaves itself out.
            for t in TARGETS.iter().filter(|t| !matches!(t.action, Action::List)) {
                if writeln!(std::io::stdout(), "{:<12} {}", t.name, t.what).is_err() {
                    break; // reader (e.g. `| head`) closed the pipe
                }
            }
            return Ok(ExitCode::SUCCESS);
        }
        Section(heading, render) | Redraw(heading, render) => vec![(heading, render)],
        Action::All => TARGETS
            .iter()
            .filter_map(|t| match t.action {
                Section(heading, render) => Some((heading, render)),
                _ => None,
            })
            .collect(),
    };
    let save_dir = flag_value(args, "--save")?.map(std::path::PathBuf::from);
    if let Some(dir) = &save_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| CoallocError::io(format!("creating {}", dir.display()), e))?;
    }
    for (heading, render) in sections {
        emit(heading, &render(scale), save_dir.as_deref())?;
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(name) = args.first() else {
        return usage();
    };
    let scale = if args.iter().any(|a| a == "--full") { Scale::Full } else { Scale::Quick };
    match TARGETS.iter().find(|t| t.name == name) {
        Some(target) => run(target, &args[1..], scale).unwrap_or_else(fail),
        None => {
            fail(CoallocError::UnknownTarget { name: name.to_string(), what: "target".to_string() })
        }
    }
}
