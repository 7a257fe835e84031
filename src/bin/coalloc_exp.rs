//! `coalloc-exp` — regenerates every table and figure of Bucur & Epema
//! (HPDC 2003) from the simulator.
//!
//! ```text
//! coalloc-exp <target> [--full]
//!
//! targets:
//!   table1 table2 table3 ratios        the paper's tables and §4 ratios
//!   fig1 fig2 fig3 fig4 fig5 fig6 fig7 the paper's figures (data series)
//!   all                                everything, in paper order
//!
//! --full runs paper-scale simulations (tens of CPU-minutes); the
//! default quick scale reproduces every qualitative shape in ~a minute.
//! ```
//!
//! Argument errors never panic: every parser returns a
//! [`CoallocError`], every configuration is validated before it runs,
//! and `main` prints `error: <what>` on stderr and exits with status 2
//! (status 1 is reserved for failed contract checks such as `--audit`
//! and `--assert-precision`).

use std::process::ExitCode;

use coalloc::core::CoallocError;
use coalloc::experiments::{self, Scale};

fn usage() -> ExitCode {
    eprintln!(
        "usage: coalloc-exp <target> [--full] [--save <dir>]\n\
         targets: table1 table2 table3 ratios fig1..fig7 packing\n\
         \x20        reqtypes placement backfill dispositions extfactor\n\
         \x20        burstiness network plot all\n\
         \x20        runjson <GS|LS|LP|SC|GB> <limit> <utilization>\n\
         \x20                [--events <path>] [--audit] [--warmup auto|N]\n\
         \x20                [--capacities a,b,c] [--faults <spec>]\n\
         \x20                [--interrupt front|back|abort]\n\
         \x20                [--disposition rigid|moldable|malleable]\n\
         \x20                [--queue-discipline fcfs|easy|conservative]\n\
         \x20                [--estimate-factor X] [--network <net>]   (JSON SimOutcome)\n\
         \x20        sweep <GS|LS|LP|SC|GB> <limit> [--utils a,b,c] [--rel-ci X]\n\
         \x20              [--min-reps N] [--max-reps N] [--warmup auto|N]\n\
         \x20              [--checkpoint <path>] [--assert-precision] [--audit]\n\
         \x20              [--capacities a,b,c] [--faults <spec>]\n\
         \x20              [--interrupt front|back|abort] [--inject-panic U]\n\
         \x20              [--disposition rigid|moldable|malleable]\n\
         \x20              [--queue-discipline fcfs|easy|conservative]\n\
         \x20              [--estimate-factor X] [--network <net>]\n\
         \x20              [--store <dir>] [--cache-cap N]\n\
         \x20              [--json]   (adaptive sweep; stats table or JSON points)\n\
         \x20        serve [--threads N] [--full] [--store <dir>] [--cache-cap N]\n\
         \x20              (JSONL request daemon on stdin/stdout; --store makes\n\
         \x20               results crash-safe across restarts)\n\
         fault specs: exp:MTTF:MTTR or down:T:K[:R],up:T:K,...\n\
         network specs: <bandwidth>[:backbone|:pairwise] (concurrent-flow units; `inf` = uncontended)"
    );
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
    use coalloc::core::experiment::sweep;
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
    let store_dir = flag_value(args, "--store")?.map(std::path::PathBuf::from);
    let cache_cap: Option<usize> = parse_flag(args, "--cache-cap", "an entry count")?;
    let points = if store_dir.is_some() || cache_cap.is_some() {
        // Durable sweep: run through a scenario cache backed by the
        // crash-safe result store, so a re-run (or a later serve
        // daemon pointed at the same directory) rehydrates finished
        // replications instead of re-executing them.
        use coalloc::core::experiment::{ResultStore, ScenarioCache, WorkerPool};
        let disk = match &store_dir {
            Some(dir) => Some(ResultStore::open(dir).map_err(|e| {
                CoallocError::io(format!("opening result store {}", dir.display()), e)
            })?),
            None => None,
        };
        let pool = WorkerPool::new(0);
        let cache = ScenarioCache::with(disk, cache_cap);
        let (points, stats) =
            coalloc::core::experiment::sweep_on(&pool, Some(&cache), spec.make_cfg(), &cfg, |_| {});
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
        points
    } else {
        sweep(spec.make_cfg(), &cfg)
    };
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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return usage();
    }
    let scale = if args.iter().any(|a| a == "--full") { Scale::Full } else { Scale::Quick };
    let save_dir: Option<std::path::PathBuf> = args
        .iter()
        .position(|a| a == "--save")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from);
    if let Some(dir) = &save_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            return fail(CoallocError::io(format!("creating {}", dir.display()), e));
        }
    }
    let target = args.first().map(String::as_str).unwrap_or("");
    if target == "runjson" {
        return runjson(&args[1..], scale).unwrap_or_else(fail);
    }
    if target == "sweep" {
        return sweep_cmd(&args[1..], scale).unwrap_or_else(fail);
    }
    if target == "serve" {
        return serve_cmd(&args[1..], scale).unwrap_or_else(fail);
    }
    if target == "list" {
        for (name, what) in [
            ("table1", "fractions of jobs with power-of-two sizes (paper Table 1)"),
            ("fig1", "density of job-request sizes (paper Fig 1)"),
            ("fig2", "density of service times (paper Fig 2)"),
            ("table2", "component-count fractions per limit (paper Table 2)"),
            ("fig3", "response vs gross utilization, 6 panels (paper Fig 3)"),
            ("fig4", "per-queue responses near LP saturation (paper Fig 4)"),
            ("fig5", "DAS-s-64 vs DAS-s-128 (paper Fig 5)"),
            ("fig6", "per-policy limit comparison (paper Fig 6)"),
            ("fig7", "gross vs net utilization curves (paper Fig 7)"),
            ("table3", "maximal utilizations, GS + SC (paper Table 3)"),
            ("ratios", "closed-form gross/net ratios (paper section 4)"),
            ("table3x", "maximal utilizations for every policy (extension)"),
            ("packing", "mechanized section 3.3 packing analysis"),
            ("scorecard", "all headline claims re-evaluated, PASS/FAIL"),
            ("reqtypes", "ordered vs unordered vs flexible requests (extension)"),
            ("placement", "Worst/Best/First Fit ablation"),
            ("backfill", "GS vs GB (aggressive backfilling) vs LS (extension)"),
            ("dispositions", "rigid vs moldable vs malleable jobs per policy (extension)"),
            ("extfactor", "extension-factor sensitivity (viability conclusion)"),
            ("burstiness", "arrival-burstiness sensitivity (extension)"),
            ("network", "bandwidth-sharing wide-area network (extension)"),
            ("correlation", "size-service correlation sensitivity (extension)"),
            ("das2", "the real 72+4x32 DAS2 geometry (extension)"),
            ("plot", "ASCII terminal plot of the headline panel"),
            ("runjson", "one simulation, full JSON outcome"),
            ("sweep", "adaptive-replication sweep with per-point CI stats"),
            ("serve", "JSONL sweep/saturation daemon with a shared scenario cache"),
            ("all", "everything above, in paper order"),
        ] {
            use std::io::Write;
            if writeln!(std::io::stdout(), "{name:<12} {what}").is_err() {
                break; // reader (e.g. `| head`) closed the pipe
            }
        }
        return ExitCode::SUCCESS;
    }
    let known = [
        "table1",
        "table2",
        "table3",
        "ratios",
        "fig1",
        "fig2",
        "fig3",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "reqtypes",
        "placement",
        "backfill",
        "dispositions",
        "extfactor",
        "burstiness",
        "network",
        "correlation",
        "das2",
        "packing",
        "table3x",
        "scorecard",
        "plot",
        "list",
        "all",
        "runjson",
    ];
    if !known.contains(&target) {
        return fail(CoallocError::UnknownTarget {
            name: target.to_string(),
            what: "target".to_string(),
        });
    }

    // Write with errors ignored so `coalloc-exp ... | head` exits
    // quietly instead of panicking on the closed pipe.
    let emit = |name: &str, text: String| {
        use std::io::Write;
        let mut out = std::io::stdout();
        let _ = writeln!(out, "=============================================================");
        let _ = writeln!(out, "== {name}");
        let _ = writeln!(out, "=============================================================");
        let _ = writeln!(out, "{text}");
        if let Some(dir) = &save_dir {
            let slug: String = name
                .to_lowercase()
                .chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .collect();
            let file = dir.join(format!("{slug}.txt"));
            std::fs::write(&file, &text).expect("can write the result file");
        }
    };

    let run_one = |name: &str| match name {
        "table1" => emit("Table 1", experiments::table1()),
        "table2" => emit("Table 2", experiments::table2()),
        "table3" => emit("Table 3", experiments::table3(scale)),
        "table3x" => emit("Table 3 (extended)", experiments::table3_extended(scale)),
        "ratios" => emit("Gross/net ratios (§4)", experiments::ratios()),
        "packing" => emit("Packing analysis (§3.3)", experiments::packing()),
        "scorecard" => emit("Conclusions scorecard", experiments::scorecard(scale)),
        "fig1" => emit("Figure 1", experiments::fig1()),
        "fig2" => emit("Figure 2", experiments::fig2()),
        "fig3" => emit("Figure 3", experiments::fig3(scale)),
        "fig4" => emit("Figure 4", experiments::fig4(scale)),
        "fig5" => emit("Figure 5", experiments::fig5(scale)),
        "fig6" => emit("Figure 6", experiments::fig6(scale)),
        "fig7" => emit("Figure 7", experiments::fig7(scale)),
        "reqtypes" => emit("Extension: request structures", experiments::request_types(scale)),
        "placement" => emit("Ablation: placement rules", experiments::placement_rules(scale)),
        "plot" => emit("Terminal plot (Fig 3, limit 16)", experiments::terminal_plot(scale)),
        "backfill" => emit("Extension: backfilling", experiments::backfilling(scale)),
        "dispositions" => emit("Extension: job dispositions", experiments::dispositions(scale)),
        "burstiness" => emit("Extension: arrival burstiness", experiments::burstiness(scale)),
        "network" => emit("Extension: bandwidth-sharing network", experiments::network_load(scale)),
        "correlation" => {
            emit("Extension: size-service correlation", experiments::correlation(scale))
        }
        "das2" => emit("Extension: the real DAS2 geometry", experiments::das2(scale)),
        "extfactor" => emit(
            "Extension: extension-factor sensitivity",
            experiments::extension_sensitivity(scale),
        ),
        _ => unreachable!("validated above"),
    };

    if target == "all" {
        for name in [
            "table1",
            "fig1",
            "fig2",
            "table2",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "table3",
            "ratios",
            "table3x",
            "packing",
            "scorecard",
            "reqtypes",
            "placement",
            "backfill",
            "dispositions",
            "extfactor",
            "burstiness",
            "network",
            "correlation",
            "das2",
        ] {
            run_one(name);
        }
    } else {
        run_one(target);
    }
    ExitCode::SUCCESS
}
