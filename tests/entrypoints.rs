//! The front door's equivalences: every run goes through
//! `SimBuilder::{run, run_observed}` over a job source set on the
//! builder, and runs that express the same simulation must produce a
//! bit-identical `SimOutcome` — and, where an observer is involved, a
//! byte-identical JSONL event log. This pins the builder against the
//! behaviour the golden regression suite was recorded under.

use coalloc::core::{JsonlSink, PolicyKind, SimBuilder, SimConfig, SimOutcome, StochasticFeed};
use coalloc::desim::RngStream;
use coalloc::trace::{generate_das1_log, DasLogConfig};

/// A quick fixed-seed configuration (fixed warmup, because a feed run
/// never resolves auto warmup, so the feed and default sources run the
/// same config).
fn cfg(policy: PolicyKind) -> SimConfig {
    let mut cfg = SimConfig::das(policy, 16, 0.5);
    cfg.total_jobs = 4_000;
    cfg.warmup_jobs = 400;
    cfg.batch_size = 100;
    cfg
}

/// Bit-identical comparison via the serialized outcome: every field —
/// including each f64's exact bits, rendered by the same formatter —
/// must match.
fn assert_same(a: &SimOutcome, b: &SimOutcome, what: &str) {
    let a = serde_json::to_string(a).expect("SimOutcome serializes");
    let b = serde_json::to_string(b).expect("SimOutcome serializes");
    assert_eq!(a, b, "{what}: entry points disagree");
}

/// The stochastic feed exactly as the builder's default source builds
/// it.
fn feed_for(cfg: &SimConfig) -> StochasticFeed {
    StochasticFeed::new(
        cfg.workload.clone(),
        cfg.arrival_rate,
        cfg.arrival_cv2,
        cfg.total_jobs,
        &RngStream::new(cfg.seed),
    )
}

#[test]
fn repeated_runs_are_bit_identical() {
    for policy in [PolicyKind::Gs, PolicyKind::Ls, PolicyKind::Sc] {
        let cfg = cfg(policy);
        assert_same(&SimBuilder::new(&cfg).run(), &SimBuilder::new(&cfg).run(), policy.label());
    }
}

#[test]
fn observers_are_passive_and_event_logs_deterministic() {
    let cfg = cfg(PolicyKind::Ls);
    let plain = SimBuilder::new(&cfg).run();
    let mut sink_a = JsonlSink::new(Vec::new());
    let observed = SimBuilder::new(&cfg).run_observed(&mut sink_a);
    assert_same(&plain, &observed, "run vs run_observed");
    let mut sink_b = JsonlSink::new(Vec::new());
    SimBuilder::new(&cfg).run_observed(&mut sink_b);
    let log_a = sink_a.finish().expect("log written");
    let log_b = sink_b.finish().expect("log written");
    assert!(!log_a.is_empty(), "the observed run must log events");
    assert_eq!(log_a, log_b, "JSONL event logs must be byte-identical");
}

#[test]
fn trace_runs_are_deterministic() {
    let log = generate_das1_log(&DasLogConfig { jobs: 2_000, ..DasLogConfig::default() });
    let cfg = cfg(PolicyKind::Gs);
    let a = SimBuilder::new(&cfg).trace(&log, 10.0).run();
    let b = SimBuilder::new(&cfg).trace(&log, 10.0).run();
    assert_same(&a, &b, "trace");
}

#[test]
fn an_explicit_feed_matches_the_all_in_one_stochastic_path() {
    let cfg = cfg(PolicyKind::Gs);
    let offered = cfg.offered_gross_utilization();
    let explicit = SimBuilder::new(&cfg).feed(&mut feed_for(&cfg), offered).run();
    // The default source builds the identical feed internally.
    assert_same(&explicit, &SimBuilder::new(&cfg).run(), "feed vs default source");
}

#[test]
fn feed_observed_matches_feed_and_logs_deterministically() {
    let cfg = cfg(PolicyKind::Lp);
    let offered = cfg.offered_gross_utilization();
    let plain = SimBuilder::new(&cfg).feed(&mut feed_for(&cfg), offered).run();
    let mut sink_a = JsonlSink::new(Vec::new());
    let observed =
        SimBuilder::new(&cfg).feed(&mut feed_for(&cfg), offered).run_observed(&mut sink_a);
    assert_same(&plain, &observed, "feed run vs observed feed run");
    let mut sink_b = JsonlSink::new(Vec::new());
    SimBuilder::new(&cfg).feed(&mut feed_for(&cfg), offered).run_observed(&mut sink_b);
    let log_a = sink_a.finish().expect("log written");
    assert_eq!(
        log_a,
        sink_b.finish().expect("log written"),
        "JSONL event logs must be byte-identical"
    );
    // Observed, the default source logs the same events as the explicit feed.
    let mut sink_default = JsonlSink::new(Vec::new());
    SimBuilder::new(&cfg).run_observed(&mut sink_default);
    assert_eq!(
        log_a,
        sink_default.finish().expect("log written"),
        "feed and default-source JSONL event logs must be byte-identical"
    );
}
