//! The paper's figures, regenerated as gnuplot-style data series.

use coalloc_core::experiment::SweepPoint;
use coalloc_core::report::{ascii_plot, format_figure, format_table, Series};
use coalloc_core::{PolicyKind, SimConfig};
use coalloc_trace::{generate_das1_log, DasLogConfig};
use coalloc_workload::Workload;

use super::{scaled, sweep, Scale};

/// Builds the configuration family for a multicluster policy sweep.
fn das_family(
    policy: PolicyKind,
    limit: u32,
    balanced: bool,
    cut64: bool,
    scale: Scale,
) -> impl Fn(f64) -> SimConfig {
    move |util| {
        let mut cfg = scaled(SimConfig::das(policy, limit, util), scale);
        if cut64 {
            cfg.workload = Workload::das_cut64(limit);
            cfg.arrival_rate = cfg.workload.rate_for_gross_utilization(util, 128);
        }
        if !balanced {
            cfg = cfg.unbalanced();
        }
        cfg
    }
}

/// Builds the configuration family for the SC baseline sweep.
fn sc_family(cut64: bool, scale: Scale) -> impl Fn(f64) -> SimConfig {
    move |util| {
        let mut cfg = scaled(SimConfig::das_single_cluster(util), scale);
        if cut64 {
            cfg.workload = Workload::single_cluster_cut64();
            cfg.arrival_rate = cfg.workload.rate_for_gross_utilization(util, 128);
        }
        cfg
    }
}

/// One policy's response curve: SC on its one cluster, the others on
/// the DAS multicluster under `limit` and the queue balance.
pub(super) fn sweep_policy(
    policy: PolicyKind,
    limit: u32,
    balanced: bool,
    cut64: bool,
    scale: Scale,
) -> Vec<SweepPoint> {
    if policy == PolicyKind::Sc {
        sweep(sc_family(cut64, scale), &scale.sweep())
    } else {
        sweep(das_family(policy, limit, balanced, cut64, scale), &scale.sweep())
    }
}

/// **Figure 1** — the density of job-request sizes of the (synthetic)
/// DAS1 log, split into powers of two and other numbers as in the paper.
pub fn fig1() -> String {
    let log = generate_das1_log(&DasLogConfig::default());
    let density = coalloc_trace::size_density(&log);
    let powers = Series {
        name: "powers of 2".to_string(),
        points: density
            .iter()
            .filter(|&&(s, _)| s.is_power_of_two())
            .map(|&(s, c)| (f64::from(s), c as f64))
            .collect(),
    };
    let others = Series {
        name: "other numbers".to_string(),
        points: density
            .iter()
            .filter(|&&(s, _)| !s.is_power_of_two())
            .map(|&(s, c)| (f64::from(s), c as f64))
            .collect(),
    };
    format_figure(
        "Fig 1. The density of the job-request sizes for the largest DAS1 cluster (128 processors)",
        &[powers, others],
    )
}

/// **Figure 2** — the density of service times of the (synthetic) DAS1
/// log (10-second bins over [0, 900]).
pub fn fig2() -> String {
    let log = generate_das1_log(&DasLogConfig::default());
    let hist = coalloc_trace::runtime_histogram(&log, 10.0, 910.0);
    let series = Series {
        name: "service-time density".to_string(),
        points: hist.series().iter().map(|&(mid, c)| (mid, c as f64)).collect(),
    };
    format_figure(
        "Fig 2. The density of the service times for the largest DAS1 cluster (128 processors)",
        &[series],
    )
}

/// **Figure 3** — mean response time vs gross utilization for the four
/// policies, for component-size limits 16/24/32, with balanced and
/// unbalanced local queues (six panels).
pub fn fig3(scale: Scale) -> String {
    let mut out = String::new();
    let sc = sweep_policy(PolicyKind::Sc, 0, true, false, scale);
    for &balanced in &[true, false] {
        for &limit in &[16u32, 24, 32] {
            let mut series = Vec::new();
            for policy in [PolicyKind::Ls, PolicyKind::Gs, PolicyKind::Lp] {
                let pts = sweep_policy(policy, limit, balanced, false, scale);
                series.push(Series::response_vs_gross(policy.label().to_string(), &pts));
            }
            series.push(Series::response_vs_gross("SC", &sc));
            let title = format!(
                "Fig 3. Response time vs gross utilization, limit {limit}, {} local queues",
                if balanced { "balanced" } else { "unbalanced" }
            );
            out.push_str(&format_figure(&title, &series));
        }
    }
    out
}

/// **Figure 4** — average response times (local queues / total average /
/// global queue) for each policy at a utilization close to LP's
/// saturation, for the three limits, balanced and unbalanced.
pub fn fig4(scale: Scale) -> String {
    // The paper's charts are taken at these gross utilizations (printed
    // in each chart).
    const UTIL_AT_LIMIT: &[(u32, f64)] = &[(16, 0.552), (24, 0.463), (32, 0.544)];
    let mut out = String::new();
    for &balanced in &[true, false] {
        for &(limit, util) in UTIL_AT_LIMIT {
            let mut rows = Vec::new();
            for policy in [PolicyKind::Gs, PolicyKind::Ls, PolicyKind::Lp, PolicyKind::Sc] {
                let cfg = if policy == PolicyKind::Sc {
                    scaled(SimConfig::das_single_cluster(util), scale)
                } else {
                    let mut c = scaled(SimConfig::das(policy, limit, util), scale);
                    if !balanced {
                        c = c.unbalanced();
                    }
                    c
                };
                let outc = coalloc_core::SimBuilder::new(&cfg).run();
                let m = &outc.metrics;
                let fmt = |x: Option<f64>| x.map_or("-".to_string(), |x| format!("{x:.0}"));
                rows.push(vec![
                    policy.label().to_string(),
                    fmt(m.response_local),
                    format!("{:.0}{}", m.mean_response, if outc.saturated { "*" } else { "" }),
                    fmt(m.response_global),
                ]);
            }
            let workload = Workload::das(limit);
            let title = format!(
                "Fig 4. Response times at gross utilization {util} (limit {limit}, {} queues);\n\
                 gross/net ratio {:.3}; * = saturated (global queue grows without bound)",
                if balanced { "balanced" } else { "unbalanced" },
                workload.gross_net_ratio()
            );
            out.push_str(&format_table(
                &title,
                &["policy", "local", "total average", "global"],
                &rows,
            ));
            out.push('\n');
        }
    }
    out
}

/// **Figure 5** — the effect of limiting the total job size: DAS-s-64 vs
/// DAS-s-128 for all four policies (limit 16, balanced queues).
pub fn fig5(scale: Scale) -> String {
    let mut series = Vec::new();
    for &cut64 in &[true, false] {
        let tag = if cut64 { "64" } else { "128" };
        for policy in [PolicyKind::Sc, PolicyKind::Ls, PolicyKind::Lp, PolicyKind::Gs] {
            let pts = sweep_policy(policy, 16, true, cut64, scale);
            series.push(Series::response_vs_gross(format!("{} {tag}", policy.label()), &pts));
        }
    }
    format_figure(
        "Fig 5. Response times for maximal total job size 64 and 128 \
         (job-component-size limit 16, balanced local queues)",
        &series,
    )
}

/// **Figure 6** — per-policy comparison of the three component-size
/// limits: LS and LP with balanced and unbalanced queues, GS (five
/// panels).
pub fn fig6(scale: Scale) -> String {
    let mut out = String::new();
    let panels: &[(PolicyKind, bool, &str)] = &[
        (PolicyKind::Ls, true, "LS, balanced"),
        (PolicyKind::Lp, true, "LP, balanced"),
        (PolicyKind::Gs, true, "GS"),
        (PolicyKind::Ls, false, "LS, unbalanced"),
        (PolicyKind::Lp, false, "LP, unbalanced"),
    ];
    for &(policy, balanced, label) in panels {
        let mut series = Vec::new();
        for &limit in &[16u32, 24, 32] {
            let pts = sweep_policy(policy, limit, balanced, false, scale);
            series.push(Series::response_vs_gross(format!("{} {limit}", policy.label()), &pts));
        }
        out.push_str(&format_figure(
            &format!("Fig 6. Performance of {label} depending on the job-component-size limit"),
            &series,
        ));
    }
    out
}

/// **Figure 7** — response time as a function of both the gross and the
/// net utilization for LS, LP and GS and the three limits (balanced
/// queues; nine panels).
pub fn fig7(scale: Scale) -> String {
    let mut out = String::new();
    for policy in [PolicyKind::Ls, PolicyKind::Lp, PolicyKind::Gs] {
        for &limit in &[16u32, 24, 32] {
            let pts = sweep_policy(policy, limit, true, false, scale);
            let series = vec![
                Series::response_vs_gross(format!("{} {limit} gross", policy.label()), &pts),
                Series::response_vs_net(format!("{} {limit} net", policy.label()), &pts),
            ];
            out.push_str(&format_figure(
                &format!(
                    "Fig 7. Response time vs gross and net utilization, {} limit {limit}",
                    policy.label()
                ),
                &series,
            ));
        }
    }
    out
}

/// A terminal rendering of the paper's headline panel (Fig 3, limit 16,
/// balanced): response time vs gross utilization for all four policies,
/// as an ASCII scatter plot.
pub fn terminal_plot(scale: Scale) -> String {
    let mut series = Vec::new();
    for policy in [PolicyKind::Ls, PolicyKind::Gs, PolicyKind::Lp] {
        let pts = sweep_policy(policy, 16, true, false, scale);
        series.push(Series::response_vs_gross(policy.label(), &pts));
    }
    let sc = sweep_policy(PolicyKind::Sc, 0, true, false, scale);
    series.push(Series::response_vs_gross("SC", &sc));
    ascii_plot(
        "Mean response time (y) vs gross utilization (x), limit 16, balanced queues",
        &series,
        72,
        20,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_has_both_series() {
        let f = fig1();
        assert!(f.contains("# powers of 2"));
        assert!(f.contains("# other numbers"));
        // Size 64 dominates (19% of ~30k jobs ≈ 5700 ± noise).
        let line64 = f.lines().find(|l| l.starts_with("64.0000")).expect("size 64 present");
        let count: f64 =
            line64.split_whitespace().nth(1).expect("y value").parse().expect("number");
        assert!(count > 5_000.0, "{line64}");
    }

    #[test]
    fn fig2_is_short_biased() {
        let f = fig2();
        let first = f.lines().find(|l| l.starts_with("5.0000")).expect("first bin");
        let y: f64 = first.split_whitespace().nth(1).expect("y").parse().expect("number");
        assert!(y > 500.0, "first 10-second bin holds many jobs: {first}");
    }
}
