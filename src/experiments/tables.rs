//! The paper's tables.

use coalloc_core::report::format_table;
use coalloc_core::saturation::{
    bisect_max_utilization, maximal_utilization, ProbePlan, SaturationConfig,
};
use coalloc_trace::{generate_das1_log, DasLogConfig};
use coalloc_workload::{JobSizeDist, Workload};

use super::Scale;

/// **Table 1** — the fractions of jobs with sizes powers of two, measured
/// on the synthetic DAS1 log (the construction guarantees the paper's
/// values in expectation).
pub fn table1() -> String {
    let log = generate_das1_log(&DasLogConfig::default());
    let fractions = coalloc_trace::power_of_two_fractions(&log);
    let rows: Vec<Vec<String>> = fractions
        .iter()
        .map(|&(size, frac)| vec![size.to_string(), format!("{frac:.3}")])
        .collect();
    format_table(
        "Table 1. The fractions of jobs with sizes powers of two",
        &["total job size", "fraction of the jobs"],
        &rows,
    )
}

/// **Table 2** — the fractions of jobs with 1..=4 components for the
/// DAS-s-128 distribution and the three job-component-size limits,
/// computed exactly from the distribution.
pub fn table2() -> String {
    let dist = JobSizeDist::das_s_128();
    let rows: Vec<Vec<String>> = [16u32, 24, 32]
        .iter()
        .map(|&limit| {
            let f = coalloc_workload::component_count_fractions(&dist, limit, 4);
            let mut row = vec![limit.to_string()];
            row.extend(f.iter().map(|x| format!("{x:.3}")));
            row
        })
        .collect();
    format_table(
        "Table 2. The fractions of jobs with the different numbers of components\n\
         for the DAS-s-128 distribution and the three job-component-size limits",
        &["size limit", "1", "2", "3", "4"],
        &rows,
    )
}

/// **Table 3** — the maximal gross and net utilizations of GS for the
/// three component-size limits, from constant-backlog simulation, plus
/// the SC baseline the paper quotes alongside it.
pub fn table3(scale: Scale) -> String {
    let mut rows = Vec::new();
    for limit in [16u32, 24, 32] {
        let mut cfg = SaturationConfig::das_gs(limit);
        cfg.measured_departures = scale.saturation_departures();
        let r = maximal_utilization(&cfg);
        rows.push(vec![
            limit.to_string(),
            format!("{:.3}", r.max_gross_utilization),
            format!("{:.3}", r.max_net_utilization),
        ]);
    }
    let mut sc = SaturationConfig::das_sc();
    sc.measured_departures = scale.saturation_departures();
    let r = maximal_utilization(&sc);
    rows.push(vec![
        "SC".to_string(),
        format!("{:.3}", r.max_gross_utilization),
        format!("{:.3}", r.max_net_utilization),
    ]);
    format_table(
        "Table 3. The maximal gross and net utilizations for different\n\
         job-component-size limits for the GS policy (and the SC baseline)",
        &["size limit", "gross", "net"],
        &rows,
    )
}

/// **§4 ratios** — the closed-form ratio of gross to net utilization per
/// component-size limit (independent of the scheduling policy).
pub fn ratios() -> String {
    let rows: Vec<Vec<String>> = [16u32, 24, 32]
        .iter()
        .map(|&limit| {
            let w = Workload::das(limit);
            vec![
                limit.to_string(),
                format!("{:.4}", w.gross_net_ratio()),
                format!("{:.3}", w.multi_fraction()),
            ]
        })
        .collect();
    format_table(
        "Ratio of gross to net utilization (closed form, §4) and the\n\
         fraction of multi-component jobs per component-size limit",
        &["size limit", "gross/net ratio", "multi fraction"],
        &rows,
    )
}

/// **Table 3, extended** — maximal utilization of *every* policy per
/// limit: GS and SC by the paper's constant-backlog method, LS and LP by
/// open-system bisection (the constant-backlog method is only valid for
/// a single global queue). The six searches run on the harness's worker
/// pool and probe each utilization with a single replication.
pub fn table3_extended(scale: Scale) -> String {
    use coalloc_core::{PolicyKind, SimConfig};
    let plan = ProbePlan { replications: 1 };
    let mut rows = Vec::new();
    for limit in [16u32, 24, 32] {
        for policy in [PolicyKind::Ls, PolicyKind::Lp] {
            let make_cfg = |util| {
                let mut cfg = SimConfig::das(policy, limit, util);
                cfg.total_jobs = scale.total_jobs() / 2;
                cfg.warmup_jobs = scale.warmup_jobs() / 2;
                cfg
            };
            let max = bisect_max_utilization(super::pool(), make_cfg, 0.2, 1.0, 0.02, &plan, None)
                .unwrap_or_else(|e| panic!("{} limit {limit}: {e:?}", policy.label()));
            let net = max / coalloc_workload::Workload::das(limit).gross_net_ratio();
            rows.push(vec![
                format!("{} limit {limit}", policy.label()),
                format!("{max:.3}"),
                format!("{net:.3}"),
                "bisection".to_string(),
            ]);
        }
        let mut cfg = SaturationConfig::das_gs(limit);
        cfg.measured_departures = scale.saturation_departures();
        let r = maximal_utilization(&cfg);
        rows.push(vec![
            format!("GS limit {limit}"),
            format!("{:.3}", r.max_gross_utilization),
            format!("{:.3}", r.max_net_utilization),
            "constant backlog".to_string(),
        ]);
    }
    let mut sc = SaturationConfig::das_sc();
    sc.measured_departures = scale.saturation_departures();
    let r = maximal_utilization(&sc);
    rows.push(vec![
        "SC".to_string(),
        format!("{:.3}", r.max_gross_utilization),
        format!("{:.3}", r.max_net_utilization),
        "constant backlog".to_string(),
    ]);
    format_table(
        "Table 3 (extended): maximal gross and net utilizations for every policy",
        &["configuration", "gross", "net", "method"],
        &rows,
    )
}

/// The §3.3 packing analysis: how each popular size splits under each
/// limit and whether two identical jobs co-fit in an empty 4×32 system.
pub fn packing() -> String {
    let mut out = String::new();
    for limit in [16u32, 24, 32] {
        out.push_str(&coalloc_core::packing_report(limit));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_contains_all_powers() {
        let t = table1();
        for p in ["1", "2", "4", "8", "16", "32", "64", "128"] {
            assert!(t.lines().any(|l| l.trim_start().starts_with(p)), "missing row {p}\n{t}");
        }
    }

    #[test]
    fn table2_matches_paper_values() {
        let t = table2();
        assert!(t.contains("0.513"), "{t}");
        assert!(t.contains("0.738"), "{t}");
        assert!(t.contains("0.780"), "{t}");
        assert!(t.contains("0.200"), "{t}");
    }

    #[test]
    fn ratios_match_closed_form() {
        let t = ratios();
        assert!(t.contains("1.2181"), "{t}");
        assert!(t.contains("1.17"), "{t}");
        assert!(t.contains("1.15"), "{t}");
    }
}
