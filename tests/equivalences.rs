//! Degenerate-configuration equivalences: structurally different setups
//! that must produce identical or tightly related results.

use coalloc::core::{PlacementRule, PolicyKind, SimBuilder, SimConfig, SystemSpec};
use coalloc::workload::{JobSizeDist, QueueRouting, ServiceDist, Workload};

/// GS on a one-cluster system is exactly SC: same queue, same FCFS, and
/// "choosing a cluster" is trivial. Identical seeds must give identical
/// trajectories.
#[test]
fn gs_on_one_cluster_equals_sc() {
    let base = |policy: PolicyKind| {
        let mut cfg = SimConfig::das_single_cluster(0.5);
        cfg.policy = policy;
        cfg.total_jobs = 10_000;
        cfg.warmup_jobs = 1_000;
        cfg
    };
    let sc = SimBuilder::new(&base(PolicyKind::Sc)).run();
    let gs = SimBuilder::new(&base(PolicyKind::Gs)).run();
    assert_eq!(sc.metrics.mean_response, gs.metrics.mean_response);
    assert_eq!(sc.metrics.gross_utilization, gs.metrics.gross_utilization);
    assert_eq!(sc.completed, gs.completed);
}

/// With the component-size limit at the maximum job size and a single
/// cluster, every job is single-component and no extension ever applies:
/// gross utilization equals net utilization exactly.
#[test]
fn no_splitting_means_no_extension() {
    let cfg = {
        let mut cfg = SimConfig::das_single_cluster(0.4);
        cfg.total_jobs = 8_000;
        cfg.warmup_jobs = 800;
        cfg
    };
    assert_eq!(cfg.workload.multi_fraction(), 0.0);
    let out = SimBuilder::new(&cfg).run();
    // Gross and net differ only by window-edge effects (a job departing
    // inside the window may have been running before it opened).
    assert!(
        (out.metrics.gross_utilization - out.metrics.net_utilization).abs() < 0.01,
        "gross {} vs net {}",
        out.metrics.gross_utilization,
        out.metrics.net_utilization
    );
    assert_eq!(out.metrics.response_multi, 0.0);
}

/// Setting the extension factor to 1 collapses gross onto net for every
/// policy, even with co-allocation.
#[test]
fn extension_one_collapses_gross_and_net() {
    for policy in [PolicyKind::Gs, PolicyKind::Ls, PolicyKind::Lp] {
        let mut cfg = SimConfig::das(policy, 16, 0.4);
        cfg.workload.extension = 1.0;
        cfg.arrival_rate = cfg.workload.rate_for_gross_utilization(0.4, 128);
        cfg.total_jobs = 8_000;
        cfg.warmup_jobs = 800;
        let out = SimBuilder::new(&cfg).run();
        assert!(
            (out.metrics.gross_utilization - out.metrics.net_utilization).abs() < 0.02,
            "{policy}: gross {} vs net {}",
            out.metrics.gross_utilization,
            out.metrics.net_utilization
        );
    }
}

/// Common random numbers: all policies see the identical job stream for
/// the same seed, so at near-zero load (every job starts immediately)
/// the multicluster policies measure identical mean responses.
#[test]
fn common_random_numbers_align_policies_at_zero_load() {
    let outs: Vec<f64> = [PolicyKind::Gs, PolicyKind::Ls, PolicyKind::Lp]
        .iter()
        .map(|&policy| {
            let mut cfg = SimConfig::das(policy, 16, 0.02);
            cfg.total_jobs = 4_000;
            cfg.warmup_jobs = 400;
            SimBuilder::new(&cfg).run().metrics.mean_response
        })
        .collect();
    assert!(
        (outs[0] - outs[1]).abs() < 1.0 && (outs[1] - outs[2]).abs() < 1.0,
        "at zero load every policy starts every job immediately: {outs:?}"
    );
}

/// A cluster of c processors fed with size-c jobs behaves as an M/M/1
/// queue whose "customer" is the whole cluster.
#[test]
fn whole_cluster_jobs_are_mm1() {
    let mean_service = 100.0;
    let rho = 0.6;
    let lambda = rho / mean_service;
    let cfg = SimConfig {
        policy: PolicyKind::Sc,
        workload: Workload::custom(
            JobSizeDist::custom("whole", &[(32, 1.0)]),
            ServiceDist::exponential(mean_service),
            32,
            1,
        )
        .with_extension(1.0),
        routing: QueueRouting::balanced(1),
        system: SystemSpec::new([32]),
        arrival_rate: lambda,
        arrival_cv2: 1.0,
        total_jobs: 120_000,
        warmup_jobs: 12_000,
        warmup: coalloc::core::Warmup::Fixed,
        batch_size: 1_000,
        rule: PlacementRule::WorstFit,
        record_series: false,
        seed: 23,
        faults: None,
        interrupt: coalloc::core::InterruptPolicy::RequeueFront,
        disposition: coalloc::workload::JobDisposition::Rigid,
        discipline: coalloc::core::QueueDiscipline::Fcfs,
        estimate_factor: 2.0,
        resize: coalloc::core::ResizePolicy::GrowAndShrink,
        network: None,
    };
    let out = SimBuilder::new(&cfg).run();
    let exact = mean_service / (1.0 - rho);
    let rel = (out.metrics.mean_response - exact).abs() / exact;
    assert!(rel < 0.05, "simulated {} vs exact {exact}", out.metrics.mean_response);
}

/// Job conservation: arrivals are exactly completed plus still-queued.
#[test]
fn job_conservation() {
    for policy in [PolicyKind::Gs, PolicyKind::Ls, PolicyKind::Lp] {
        for util in [0.3, 0.9] {
            let mut cfg = SimConfig::das(policy, 24, util);
            cfg.total_jobs = 5_000;
            cfg.warmup_jobs = 500;
            let out = SimBuilder::new(&cfg).run();
            assert_eq!(
                out.arrivals,
                out.completed + out.residual_queued as u64,
                "{policy} at {util}"
            );
        }
    }
}
