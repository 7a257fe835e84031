//! Analytic validation of the simulator on degenerate configurations
//! with known closed-form results: M/M/1, M/M/c (Erlang-C), and M/D/1.

use coalloc::core::{PlacementRule, PolicyKind, SimBuilder, SimConfig, SystemSpec};
use coalloc::workload::{JobSizeDist, QueueRouting, ServiceDist, Workload};

fn queueing_cfg(servers: u32, service: ServiceDist, lambda: f64, seed: u64) -> SimConfig {
    SimConfig {
        policy: PolicyKind::Sc,
        workload: Workload::custom(JobSizeDist::custom("unit", &[(1, 1.0)]), service, 1, 1)
            .with_extension(1.0),
        routing: QueueRouting::balanced(1),
        system: SystemSpec::new([servers]),
        arrival_rate: lambda,
        arrival_cv2: 1.0,
        total_jobs: 150_000,
        warmup_jobs: 15_000,
        warmup: coalloc::core::Warmup::Fixed,
        batch_size: 1_000,
        rule: PlacementRule::WorstFit,
        record_series: false,
        seed,
        faults: None,
        interrupt: coalloc::core::InterruptPolicy::RequeueFront,
        disposition: coalloc::workload::JobDisposition::Rigid,
        discipline: coalloc::core::QueueDiscipline::Fcfs,
        estimate_factor: 2.0,
        resize: coalloc::core::ResizePolicy::GrowAndShrink,
        network: None,
    }
}

/// M/M/1 mean response time: 1 / (mu - lambda).
#[test]
fn mm1_mean_response() {
    let mu = 1.0 / 100.0;
    for rho in [0.3, 0.6, 0.8] {
        let lambda = rho * mu;
        let cfg = queueing_cfg(1, ServiceDist::exponential(100.0), lambda, 7);
        let out = SimBuilder::new(&cfg).run();
        let exact = coalloc::desim::queueing::mm1_mean_response(lambda, mu);
        let rel = (out.metrics.mean_response - exact).abs() / exact;
        assert!(rel < 0.05, "rho {rho}: simulated {} vs exact {exact}", out.metrics.mean_response);
    }
}

/// M/M/c mean response via Erlang-C.
#[test]
fn mmc_mean_response() {
    let mu = 1.0 / 200.0;
    for (c, rho) in [(4u32, 0.7), (32, 0.8)] {
        let lambda = rho * f64::from(c) * mu;
        let cfg = queueing_cfg(c, ServiceDist::exponential(200.0), lambda, 11);
        let out = SimBuilder::new(&cfg).run();
        let exact = coalloc::desim::queueing::mmc_mean_response(lambda, mu, c);
        let rel = (out.metrics.mean_response - exact).abs() / exact;
        assert!(rel < 0.05, "M/M/{c} rho {rho}: {} vs {exact}", out.metrics.mean_response);
    }
}

/// M/D/1 mean waiting time: Pollaczek–Khinchine with zero service
/// variance halves the M/M/1 queueing delay.
#[test]
fn md1_mean_response() {
    let service = 100.0;
    let mu = 1.0 / service;
    for rho in [0.4, 0.7] {
        let lambda = rho * mu;
        let cfg = queueing_cfg(1, ServiceDist::deterministic(service), lambda, 13);
        let out = SimBuilder::new(&cfg).run();
        let exact = coalloc::desim::queueing::md1_mean_response(lambda, service);
        let rel = (out.metrics.mean_response - exact).abs() / exact;
        assert!(rel < 0.05, "M/D/1 rho {rho}: {} vs {exact}", out.metrics.mean_response);
    }
}

/// Utilization law: measured utilization equals lambda * E[S] / c.
#[test]
fn utilization_law() {
    let cfg = queueing_cfg(8, ServiceDist::exponential(50.0), 0.1, 17);
    let out = SimBuilder::new(&cfg).run();
    let expected = 0.1 * 50.0 / 8.0;
    assert!(
        (out.metrics.gross_utilization - expected).abs() < 0.02,
        "measured {} vs expected {expected}",
        out.metrics.gross_utilization
    );
    // Unit jobs, extension 1: gross equals net up to window-edge effects
    // (jobs spanning the warm-up boundary count differently).
    assert!((out.metrics.gross_utilization - out.metrics.net_utilization).abs() < 0.005);
}

/// Little's law: the time-average number of jobs in the system equals
/// throughput times mean response time, for every policy.
#[test]
fn littles_law_holds() {
    for policy in [PolicyKind::Gs, PolicyKind::Ls, PolicyKind::Lp] {
        let mut cfg = SimConfig::das(policy, 16, 0.5);
        cfg.total_jobs = 30_000;
        cfg.warmup_jobs = 3_000;
        let out = SimBuilder::new(&cfg).run();
        let m = &out.metrics;
        let l = m.mean_jobs_in_system;
        let lam_w = m.throughput * m.mean_response;
        let rel = (l - lam_w).abs() / l.max(1e-9);
        assert!(rel < 0.08, "{policy}: L {l:.1} vs lambda*W {lam_w:.1} (rel err {rel:.3})");
    }
}

/// Percentiles are ordered and bracket the mean sensibly.
#[test]
fn response_percentiles_are_ordered() {
    let mut cfg = SimConfig::das(PolicyKind::Ls, 16, 0.5);
    cfg.total_jobs = 20_000;
    cfg.warmup_jobs = 2_000;
    let out = SimBuilder::new(&cfg).run();
    let m = &out.metrics;
    assert!(m.median_response > 0.0);
    assert!(
        m.median_response < m.mean_response,
        "right-skewed responses: median {} < mean {}",
        m.median_response,
        m.mean_response
    );
    assert!(
        m.p95_response > m.mean_response,
        "p95 {} above the mean {}",
        m.p95_response,
        m.mean_response
    );
    assert!(m.p95_response <= m.max_response);
}

/// Identical-jobs saturation: the constant-backlog simulation must hit
/// the exact analytic packing limit for a workload of identical jobs.
#[test]
fn identical_jobs_saturation_matches_packing_formula() {
    use coalloc::core::saturation::{maximal_utilization, SaturationConfig};
    use coalloc::workload::{JobSizeDist, ServiceDist, Workload};
    for (total, limit) in [(48u32, 16u32), (64, 24), (64, 16), (20, 20)] {
        let exact = coalloc::core::identical_jobs_max_utilization(&[32, 32, 32, 32], total, limit);
        let mut cfg = SaturationConfig::das_gs(limit);
        cfg.workload = coalloc::workload::Workload {
            sizes: JobSizeDist::custom("identical", &[(total, 1.0)]),
            ..Workload::das(limit)
        }
        .with_extension(1.0);
        cfg.workload.service = ServiceDist::exponential(100.0);
        cfg.warmup_departures = 500;
        cfg.measured_departures = 4_000;
        let measured = maximal_utilization(&cfg).max_gross_utilization;
        assert!(
            (measured - exact).abs() < 0.02,
            "size {total} limit {limit}: measured {measured:.3} vs exact {exact:.3}"
        );
    }
}

/// Queue-level Little's law: mean queue length equals throughput times
/// mean waiting time.
#[test]
fn littles_law_for_the_queue() {
    let mut cfg = SimConfig::das(PolicyKind::Gs, 16, 0.55);
    cfg.total_jobs = 30_000;
    cfg.warmup_jobs = 3_000;
    let out = SimBuilder::new(&cfg).run();
    let m = &out.metrics;
    let lq = m.mean_queue_length;
    let lam_wq = m.throughput * m.mean_wait;
    let rel = (lq - lam_wq).abs() / lq.max(1e-9);
    assert!(rel < 0.1, "Lq {lq:.1} vs lambda*Wq {lam_wq:.1} (rel {rel:.3})");
}
