//! Integration tests for the extension features: request structures
//! (JSSPP taxonomy), placement-rule ablation, and heterogeneous systems.

use coalloc::core::{PlacementRule, PolicyKind, SimBuilder, SimConfig, SystemSpec};
use coalloc::workload::{QueueRouting, RequestKind, Workload};

fn gs_with_kind(kind: RequestKind, util: f64) -> coalloc::core::SimOutcome {
    let mut cfg = SimConfig::das(PolicyKind::Gs, 16, util);
    cfg.workload = cfg.workload.with_request_kind(kind);
    cfg.total_jobs = 15_000;
    cfg.warmup_jobs = 1_500;
    SimBuilder::new(&cfg).run()
}

/// JSSPP ordering: placement freedom pays. Flexible < unordered <
/// ordered in mean response time at a fixed arrival rate.
#[test]
fn request_structure_ordering() {
    for util in [0.45, 0.55] {
        let flexible = gs_with_kind(RequestKind::Flexible, util).metrics.mean_response;
        let unordered = gs_with_kind(RequestKind::Unordered, util).metrics.mean_response;
        let ordered = gs_with_kind(RequestKind::Ordered, util).metrics.mean_response;
        assert!(
            flexible < unordered,
            "util {util}: flexible {flexible} must beat unordered {unordered}"
        );
        assert!(
            unordered < ordered,
            "util {util}: unordered {unordered} must beat ordered {ordered}"
        );
    }
}

/// Flexible requests that fit in a single cluster pay no wide-area
/// extension, so the measured gross utilization lies *below* the offered
/// one (which is computed from the static split classification).
#[test]
fn flexible_jobs_save_extension_when_coalesced() {
    let out = gs_with_kind(RequestKind::Flexible, 0.4);
    assert!(
        out.metrics.gross_utilization < 0.99 * out.offered_gross_utilization,
        "measured {} should undershoot offered {}",
        out.metrics.gross_utilization,
        out.offered_gross_utilization
    );
    // Unordered requests have no such freedom: measured tracks offered.
    let base = gs_with_kind(RequestKind::Unordered, 0.4);
    assert!(
        (base.metrics.gross_utilization - base.offered_gross_utilization).abs() < 0.02,
        "measured {} vs offered {}",
        base.metrics.gross_utilization,
        base.offered_gross_utilization
    );
}

/// The offered gross utilization is computed from the *unordered split*
/// spans for every request kind (see `Workload::gross_net_ratio`). That
/// classification is exact for ordered requests (users pick clusters
/// but keep the same split) and for total requests on a single cluster
/// (no extension at all), so the measured gross utilization must track
/// the offered one for both — only Flexible is an approximation.
#[test]
fn offered_utilization_is_exact_for_ordered_and_total_requests() {
    let ordered = gs_with_kind(RequestKind::Ordered, 0.4);
    assert!(
        (ordered.metrics.gross_utilization - ordered.offered_gross_utilization).abs() < 0.02,
        "ordered: measured {} vs offered {}",
        ordered.metrics.gross_utilization,
        ordered.offered_gross_utilization
    );
    let mut cfg = SimConfig::das_single_cluster(0.4);
    cfg.total_jobs = 15_000;
    cfg.warmup_jobs = 1_500;
    assert_eq!(cfg.workload.request_kind, RequestKind::Total);
    let total = SimBuilder::new(&cfg).run();
    assert!(
        (total.metrics.gross_utilization - total.offered_gross_utilization).abs() < 0.02,
        "total/SC: measured {} vs offered {}",
        total.metrics.gross_utilization,
        total.offered_gross_utilization
    );
}

/// The placement-rule ablation: on this workload Worst Fit (the paper's
/// choice) is not catastrophically different from Best/First Fit, and
/// all three run to completion at moderate load.
#[test]
fn placement_rules_all_run() {
    let mut responses = Vec::new();
    for rule in [PlacementRule::WorstFit, PlacementRule::BestFit, PlacementRule::FirstFit] {
        let mut cfg = SimConfig::das(PolicyKind::Gs, 16, 0.45);
        cfg.rule = rule;
        cfg.total_jobs = 12_000;
        cfg.warmup_jobs = 1_200;
        let out = SimBuilder::new(&cfg).run();
        assert!(!out.saturated, "{rule:?} saturated at 0.45");
        responses.push((rule, out.metrics.mean_response));
    }
    let max = responses.iter().map(|&(_, r)| r).fold(0.0, f64::max);
    let min = responses.iter().map(|&(_, r)| r).fold(f64::INFINITY, f64::min);
    assert!(max / min < 2.0, "rules within 2x of each other: {responses:?}");
}

/// The model supports clusters of different sizes (the DAS2 itself is
/// 72 + 4×32): LS runs on a heterogeneous five-cluster system.
#[test]
fn heterogeneous_five_cluster_system() {
    let workload = Workload { clusters: 5, ..Workload::das(16) };
    let rate = workload.rate_for_gross_utilization(0.45, 200);
    let cfg = SimConfig {
        policy: PolicyKind::Ls,
        workload,
        routing: QueueRouting::custom(&[0.36, 0.16, 0.16, 0.16, 0.16]),
        system: SystemSpec::new([72, 32, 32, 32, 32]),
        arrival_rate: rate,
        arrival_cv2: 1.0,
        total_jobs: 12_000,
        warmup_jobs: 1_200,
        warmup: coalloc::core::Warmup::Fixed,
        batch_size: 200,
        rule: PlacementRule::WorstFit,
        record_series: false,
        seed: 5,
        faults: None,
        interrupt: coalloc::core::InterruptPolicy::RequeueFront,
        disposition: coalloc::workload::JobDisposition::Rigid,
        discipline: coalloc::core::QueueDiscipline::Fcfs,
        estimate_factor: 2.0,
        resize: coalloc::core::ResizePolicy::GrowAndShrink,
        network: None,
    };
    let out = SimBuilder::new(&cfg).run();
    assert!(!out.saturated, "five-cluster DAS2 at 0.45 must be stable");
    assert!(out.metrics.gross_utilization > 0.4);
    assert_eq!(out.arrivals, 12_000);
}

/// Ordered requests through LS and LP honor their targets (placement on
/// the named clusters), end to end.
#[test]
fn ordered_requests_respect_targets_under_all_policies() {
    for policy in [PolicyKind::Gs, PolicyKind::Ls, PolicyKind::Lp] {
        let mut cfg = SimConfig::das(policy, 16, 0.3);
        cfg.workload = cfg.workload.with_request_kind(RequestKind::Ordered);
        cfg.total_jobs = 5_000;
        cfg.warmup_jobs = 500;
        let out = SimBuilder::new(&cfg).run();
        assert_eq!(
            out.arrivals,
            out.completed + out.residual_queued as u64,
            "{policy}: conservation"
        );
        assert!(out.metrics.departures > 0, "{policy}");
    }
}

/// GB (GS + aggressive backfilling) strictly improves on plain GS — the
/// backfilling mechanism, made explicit, is what LS's local queues
/// approximate with a window of 4.
#[test]
fn backfilling_beats_strict_fcfs() {
    for util in [0.5, 0.6] {
        let mk = |policy| {
            let mut cfg = SimConfig::das(policy, 16, util);
            cfg.total_jobs = 15_000;
            cfg.warmup_jobs = 1_500;
            SimBuilder::new(&cfg).run().metrics.mean_response
        };
        let gs = mk(PolicyKind::Gs);
        let gb = mk(PolicyKind::Gb);
        assert!(gb < gs, "util {util}: GB {gb} must beat GS {gs}");
    }
}

/// The viability conclusion: LS's *net* take-off utilization degrades
/// monotonically as the extension factor grows; at extension 1.0 the
/// multicluster is close to SC, at 2.0 it is far behind.
#[test]
fn extension_factor_controls_viability() {
    let ls_at = |ext: f64| {
        let mut cfg = SimConfig::das(PolicyKind::Ls, 16, 0.5);
        cfg.workload.extension = ext;
        cfg.arrival_rate = cfg.workload.rate_for_gross_utilization(0.5, 128);
        cfg.total_jobs = 15_000;
        cfg.warmup_jobs = 1_500;
        let out = SimBuilder::new(&cfg).run();
        (out.metrics.mean_response, out.metrics.net_utilization)
    };
    let (r10, n10) = ls_at(1.0);
    let (r125, n125) = ls_at(1.25);
    let (r20, n20) = ls_at(2.0);
    // At a fixed offered *gross* utilization, a larger extension means
    // less net capacity delivered...
    assert!(n10 > n125 && n125 > n20, "net utils {n10:.3} {n125:.3} {n20:.3}");
    // ...and (at the same gross operating point) no better response.
    assert!(r10 <= r125 * 1.1, "responses {r10:.0} vs {r125:.0}");
    let _ = r20;
}

/// Burstier arrivals (interarrival CV² > 1) strictly degrade response
/// times at the same offered load.
#[test]
fn burstiness_degrades_response() {
    let ls_at = |cv2: f64| {
        let mut cfg = SimConfig::das(PolicyKind::Ls, 16, 0.5);
        cfg.arrival_cv2 = cv2;
        cfg.total_jobs = 15_000;
        cfg.warmup_jobs = 1_500;
        SimBuilder::new(&cfg).run().metrics.mean_response
    };
    let poisson = ls_at(1.0);
    let bursty = ls_at(4.0);
    let very_bursty = ls_at(16.0);
    assert!(poisson < bursty, "{poisson} < {bursty}");
    assert!(bursty < very_bursty, "{bursty} < {very_bursty}");
}

/// A spread penalty (extension growing with the number of clusters
/// spanned) hurts the small-limit workloads most: at limit 16 nearly a
/// quarter of jobs span 4 clusters.
#[test]
fn spread_penalty_degrades_wide_jobs() {
    let ls_at = |penalty: f64| {
        let mut cfg = SimConfig::das(PolicyKind::Ls, 16, 0.5);
        cfg.workload.spread_penalty = penalty;
        // Same arrival rate in both runs: the penalty adds load.
        cfg.total_jobs = 15_000;
        cfg.warmup_jobs = 1_500;
        SimBuilder::new(&cfg).run()
    };
    let flat = ls_at(0.0);
    let penalized = ls_at(0.15);
    assert!(
        penalized.metrics.mean_response > flat.metrics.mean_response,
        "penalty must slow things down: {} vs {}",
        penalized.metrics.mean_response,
        flat.metrics.mean_response
    );
    assert!(
        penalized.metrics.gross_utilization > flat.metrics.gross_utilization,
        "penalty burns extra gross capacity: {} vs {}",
        penalized.metrics.gross_utilization,
        flat.metrics.gross_utilization
    );
    // Net utilization (useful work) is unchanged by the penalty.
    assert!(
        (penalized.metrics.net_utilization - flat.metrics.net_utilization).abs() < 0.02,
        "net {} vs {}",
        penalized.metrics.net_utilization,
        flat.metrics.net_utilization
    );
}

/// Size-service correlation raises response times at a matched offered
/// load (bigger jobs both pack worse and run longer).
#[test]
fn correlation_degrades_response() {
    let at = |alpha: f64| {
        let mut cfg = SimConfig::das(PolicyKind::Gs, 16, 0.5);
        cfg.workload.size_service_exponent = alpha;
        cfg.arrival_rate = cfg.workload.rate_for_gross_utilization(0.5, 128);
        cfg.total_jobs = 15_000;
        cfg.warmup_jobs = 1_500;
        SimBuilder::new(&cfg).run().metrics.mean_response
    };
    let independent = at(0.0);
    let correlated = at(1.0);
    assert!(
        correlated > 1.2 * independent,
        "correlated {correlated:.0} vs independent {independent:.0}"
    );
}
