//! Integration tests for the bandwidth-sharing occupancy model: the
//! infinite-bandwidth collapse onto the faithful model, the
//! load-dependence of the achieved extension under a finite backbone,
//! pairwise-link topologies, and audit-cleanliness of contended runs.

use coalloc::core::{InvariantAuditor, NetworkSpec, PolicyKind, SimBuilder, SimConfig, SimOutcome};

const POLICIES: [PolicyKind; 5] =
    [PolicyKind::Gs, PolicyKind::Ls, PolicyKind::Lp, PolicyKind::Sc, PolicyKind::Gb];

fn config(policy: PolicyKind, util: f64, network: Option<NetworkSpec>) -> SimConfig {
    let mut cfg = if policy == PolicyKind::Sc {
        SimConfig::das_single_cluster(util)
    } else {
        SimConfig::das(policy, 16, util)
    };
    cfg.total_jobs = 6_000;
    cfg.warmup_jobs = 600;
    cfg.network = network;
    cfg
}

fn run(policy: PolicyKind, util: f64, network: Option<NetworkSpec>) -> SimOutcome {
    SimBuilder::new(&config(policy, util, network)).run()
}

/// Infinite bandwidth never contends, so every flow keeps a full share,
/// every stretch stays at the nominal extension factor, and no departure
/// is ever rescheduled: the event stream — and hence every outcome
/// statistic — is bit-identical to the faithful model's, for all five
/// policies.
#[test]
fn infinite_bandwidth_collapses_to_the_faithful_model() {
    for policy in POLICIES {
        for util in [0.45, 0.65] {
            let faithful = run(policy, util, None);
            let collapsed = run(policy, util, Some(NetworkSpec::backbone(f64::INFINITY)));
            assert_eq!(
                faithful.metrics.mean_response, collapsed.metrics.mean_response,
                "{policy:?} util {util}: mean response must be bit-identical"
            );
            assert_eq!(
                faithful.metrics.gross_utilization, collapsed.metrics.gross_utilization,
                "{policy:?} util {util}: gross utilization must be bit-identical"
            );
            assert_eq!(faithful.completed, collapsed.completed);
            assert_eq!(
                faithful.metrics.achieved_extension, collapsed.metrics.achieved_extension,
                "{policy:?} util {util}: achieved extension must be bit-identical"
            );
        }
    }
}

/// An uncontended network still reproduces the paper's nominal factor:
/// every multi-component departure held exactly `extension` times its
/// base work.
#[test]
fn uncontended_runs_achieve_the_nominal_extension() {
    let out = run(PolicyKind::Gs, 0.55, Some(NetworkSpec::backbone(f64::INFINITY)));
    assert!((out.metrics.achieved_extension - 1.25).abs() < 1e-12);
}

/// Under a finite backbone the achieved extension exceeds the nominal
/// 1.25 and rises monotonically with the offered utilization (up to the
/// saturation knee, where offered load stops being carried load).
#[test]
fn achieved_extension_rises_with_load_under_finite_bandwidth() {
    let net = Some(NetworkSpec::backbone(1.0));
    let mut last = 1.25;
    for util in [0.3, 0.45, 0.55] {
        let out = run(PolicyKind::Gs, util, net);
        let achieved = out.metrics.achieved_extension;
        assert!(
            achieved > last,
            "util {util}: achieved extension {achieved} did not rise above {last}"
        );
        assert!(out.metrics.mean_active_flows > 0.0);
        last = achieved;
    }
}

/// Pairwise links only contend flows sharing a cluster pair, so at equal
/// per-link capacity the pairwise fabric stretches jobs no more than one
/// shared backbone of the same capacity does.
#[test]
fn pairwise_links_contend_no_more_than_a_shared_backbone() {
    let backbone = run(PolicyKind::Gs, 0.55, Some(NetworkSpec::backbone(1.0)));
    let pairwise = run(PolicyKind::Gs, 0.55, Some(NetworkSpec::pairwise(1.0)));
    assert!(pairwise.metrics.achieved_extension > 1.25, "pairwise links must contend at 0.55");
    assert!(
        pairwise.metrics.achieved_extension <= backbone.metrics.achieved_extension,
        "pairwise {} must not exceed backbone {}",
        pairwise.metrics.achieved_extension,
        backbone.metrics.achieved_extension
    );
}

/// A contended run passes the full invariant audit — including the
/// gross-work conservation check that replays every flow's bandwidth
/// shares — through the public API, for both topologies. Capacity-1
/// pairwise links are the tightest case: pairwise shares depend on flow
/// order, so the auditor's mirror must keep flows in start order as the
/// engine does.
#[test]
fn contended_runs_audit_clean() {
    for net in [NetworkSpec::backbone(1.0), NetworkSpec::pairwise(2.0), NetworkSpec::pairwise(1.0)]
    {
        for policy in [PolicyKind::Gs, PolicyKind::Ls] {
            let cfg = config(policy, 0.55, Some(net));
            let mut auditor = InvariantAuditor::new(&cfg);
            SimBuilder::new(&cfg).run_observed(&mut auditor);
            assert!(auditor.is_clean(), "{policy:?} under {net:?}: {}", auditor.report());
        }
    }
}

/// The `--network` CLI grammar round-trips through `FromStr`.
#[test]
fn network_spec_parses_the_cli_grammar() {
    let backbone: NetworkSpec = "4".parse().expect("bare bandwidth");
    assert_eq!(backbone, NetworkSpec::backbone(4.0));
    let pairwise: NetworkSpec = "2.5:pairwise".parse().expect("pairwise spec");
    assert_eq!(pairwise, NetworkSpec::pairwise(2.5));
    let inf: NetworkSpec = "inf".parse().expect("inf spec");
    assert!(inf.is_uncontended());
    assert!("0".parse::<NetworkSpec>().is_err());
    assert!("-1:backbone".parse::<NetworkSpec>().is_err());
    assert!("1:ring".parse::<NetworkSpec>().is_err());
}
