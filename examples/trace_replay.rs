//! Trace-driven replay: instead of sampling distributions derived from
//! a log (the paper's method), feed the log's actual arrivals, sizes
//! and runtimes through the scheduler, compressing time to sweep the
//! offered load.
//!
//! Run with: `cargo run --release --example trace_replay [path.swf]`
//!
//! A given SWF log need not be in submit order: the replay takes its
//! records in submit order (records that share a submit time keep their
//! log order). The warm-up is a tenth of the log, at most 2 000 jobs, so
//! a short log still leaves jobs to measure.

use coalloc::core::report::format_table;
use coalloc::core::{PolicyKind, SimBuilder, SimConfig};
use coalloc::trace::{self, DasLogConfig};

fn main() {
    let log = match std::env::args().nth(1) {
        Some(path) => {
            let text = std::fs::read_to_string(&path).expect("readable SWF file");
            trace::parse_swf(&text).expect("valid SWF")
        }
        None => trace::generate_das1_log(&DasLogConfig { jobs: 20_000, ..Default::default() }),
    };
    println!("replaying {} jobs from {:?}", log.len(), log.source);
    println!();

    let mut rows = Vec::new();
    for time_scale in [1.5, 1.0, 0.75, 0.5] {
        let mut row = vec![format!("{time_scale:.2}")];
        let mut offered = 0.0;
        for policy in [PolicyKind::Ls, PolicyKind::Gs, PolicyKind::Sc] {
            let mut cfg = if policy == PolicyKind::Sc {
                SimConfig::das_single_cluster(0.5) // rate ignored in replay
            } else {
                SimConfig::das(policy, 16, 0.5)
            };
            cfg.warmup_jobs = (log.len() as u64 / 10).min(2_000);
            let out = SimBuilder::new(&cfg).trace(&log, time_scale).run();
            offered = out.offered_gross_utilization;
            row.push(format!(
                "{:.0}{}",
                out.metrics.mean_response,
                if out.saturated { "*" } else { "" }
            ));
        }
        row.insert(1, format!("{offered:.3}"));
        rows.push(row);
    }
    println!(
        "{}",
        format_table(
            "Replay: mean response (s) vs time compression (limit 16; * = saturated)",
            &["time scale", "offered util", "LS", "GS", "SC"],
            &rows
        )
    );
    println!("Unlike the Poisson model, the replay keeps the log's day/night");
    println!("burstiness, so saturation arrives at a lower average utilization.");
}
