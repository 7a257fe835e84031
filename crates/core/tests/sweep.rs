//! Behavioral suite of the sweep engine: adaptive stopping, determinism
//! across thread counts, panic isolation, checkpoint resume and
//! rejection, and replication sharing through the scenario cache.
//!
//! These exercises live against the public API on purpose — they pin the
//! engine's observable contract, not its layering (which the
//! `experiment/` submodules test internally).

use std::path::PathBuf;

use coalloc_core::{
    point_digest, replication_seed, sweep, sweep_on, PolicyKind, ScenarioCache, SimConfig,
    SweepCheckpoint, SweepConfig, WorkerPool, CHECKPOINT_VERSION,
};

fn quick_cfg(policy: PolicyKind) -> impl Fn(f64) -> SimConfig + Sync {
    move |util| {
        let mut cfg = SimConfig::das(policy, 16, util);
        cfg.total_jobs = 4_000;
        cfg.warmup_jobs = 500;
        cfg.batch_size = 100;
        cfg
    }
}

#[test]
fn sweep_returns_one_point_per_utilization() {
    let points = sweep(quick_cfg(PolicyKind::Gs), &SweepConfig::quick());
    assert_eq!(points.len(), 3);
    for p in &points {
        assert_eq!(p.outcome.runs.len(), 2);
        assert!(p.outcome.response.mean > 0.0);
    }
}

#[test]
fn response_grows_with_utilization() {
    let points = sweep(quick_cfg(PolicyKind::Gs), &SweepConfig::quick());
    assert!(
        points[0].outcome.response.mean < points[2].outcome.response.mean,
        "response must grow from util 0.2 to 0.6: {} vs {}",
        points[0].outcome.response.mean,
        points[2].outcome.response.mean
    );
}

#[test]
fn parallel_equals_serial() {
    let mut serial_cfg = SweepConfig::quick();
    serial_cfg.threads = 1;
    let mut parallel_cfg = SweepConfig::quick();
    parallel_cfg.threads = 4;
    let a = sweep(quick_cfg(PolicyKind::Ls), &serial_cfg);
    let b = sweep(quick_cfg(PolicyKind::Ls), &parallel_cfg);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.outcome.response.mean, y.outcome.response.mean);
        assert_eq!(x.outcome.gross_utilization, y.outcome.gross_utilization);
    }
}

#[test]
fn adaptive_engine_stops_by_precision_or_cap() {
    let mut cfg = SweepConfig::quick();
    cfg.utilizations = vec![0.3, 0.6];
    cfg.min_replications = 2;
    cfg.max_replications = 5;
    cfg.rel_ci_target = 0.15;
    let points = sweep(quick_cfg(PolicyKind::Gs), &cfg);
    for p in &points {
        let n = p.outcome.runs.len() as u64;
        assert!((2..=5).contains(&n), "replications {n} outside bounds");
        assert!(
            p.outcome.saturated
                || p.outcome.response.relative_error() <= 0.15
                || n == cfg.max_replications,
            "point {} stopped early: rel {} at n {n}",
            p.target_utilization,
            p.outcome.response.relative_error()
        );
    }
}

#[test]
fn adaptive_replication_count_follows_the_target() {
    // A loose target stops every stable point at the minimum; an
    // unreachably tight target drives the same points to the cap.
    let mut cfg = SweepConfig::quick();
    cfg.utilizations = vec![0.3, 0.5];
    cfg.min_replications = 2;
    cfg.max_replications = 4;
    cfg.rel_ci_target = 10.0;
    let loose = sweep(quick_cfg(PolicyKind::Gs), &cfg);
    for p in &loose {
        assert_eq!(p.outcome.runs.len(), 2, "loose target must stop at the minimum");
    }
    cfg.rel_ci_target = 1e-6;
    let tight = sweep(quick_cfg(PolicyKind::Gs), &cfg);
    for p in &tight {
        assert_eq!(p.outcome.runs.len(), 4, "unreachable target must drive to the cap");
    }
    // The first min_replications runs are shared: the tight sweep
    // extends the loose one, it does not reshuffle seeds.
    for (l, t) in loose.iter().zip(&tight) {
        for (a, b) in l.outcome.runs.iter().zip(&t.outcome.runs) {
            assert_eq!(a.metrics.mean_response, b.metrics.mean_response);
        }
    }
}

#[test]
fn audited_sweep_is_bit_identical_and_clean() {
    let mut audited_cfg = SweepConfig::quick();
    audited_cfg.utilizations = vec![0.4];
    audited_cfg.audit = true;
    let mut plain_cfg = audited_cfg.clone();
    plain_cfg.audit = false;
    // The auditor panics inside the sweep on any violation, so a
    // returned result is certified clean; and observers are passive,
    // so the numbers match the unaudited sweep exactly.
    let audited = sweep(quick_cfg(PolicyKind::Ls), &audited_cfg);
    let plain = sweep(quick_cfg(PolicyKind::Ls), &plain_cfg);
    for (a, p) in audited.iter().zip(&plain) {
        assert_eq!(a.outcome.response.mean, p.outcome.response.mean);
        assert_eq!(a.outcome.gross_utilization, p.outcome.gross_utilization);
    }
}

#[test]
fn replication_seeds_are_common_random_numbers() {
    // Replication r's seed depends only on (base_seed, rep): the
    // same at every utilization and for every policy.
    assert_eq!(replication_seed(2003, 0), replication_seed(2003, 0));
    assert_ne!(replication_seed(2003, 0), replication_seed(2003, 1));
    assert_ne!(replication_seed(2003, 0), replication_seed(2004, 0));
    // And no longer the old base_seed + rep scheme.
    assert_ne!(replication_seed(2003, 1), 2004);
}

#[test]
fn aggregation_flags_saturation_and_keeps_ci_clean() {
    let mut cfg = SweepConfig::quick();
    cfg.utilizations = vec![1.5];
    cfg = cfg.fixed_replications(1);
    let points = sweep(quick_cfg(PolicyKind::Gs), &cfg);
    let o = &points[0].outcome;
    assert!(o.saturated);
    // The saturated run's garbage mean response stays out of the CI.
    assert_eq!(o.response.n, 0, "no non-saturated observations");
    assert!(o.response.half_width.is_infinite());
    assert_eq!(o.runs.len(), 1, "the raw run is kept");
}

#[test]
fn saturated_points_stop_at_the_minimum() {
    let mut cfg = SweepConfig::quick();
    cfg.utilizations = vec![1.5];
    cfg.min_replications = 2;
    cfg.max_replications = 8;
    cfg.rel_ci_target = 0.01;
    let points = sweep(quick_cfg(PolicyKind::Gs), &cfg);
    assert!(points[0].outcome.saturated);
    assert_eq!(points[0].outcome.runs.len(), 2, "no precision chasing past saturation");
}

#[test]
fn empty_response_classes_stay_out_of_aggregates() {
    // GS: every job is global, so the local class must be None —
    // not an average over per-run 0.0 placeholders.
    let points = sweep(quick_cfg(PolicyKind::Gs), &SweepConfig::quick());
    for p in &points {
        assert_eq!(p.outcome.response_local, None);
        assert!(p.outcome.response_global.is_some());
    }
    // LS routes everything locally: the global class is None.
    let points = sweep(quick_cfg(PolicyKind::Ls), &SweepConfig::quick());
    for p in &points {
        assert_eq!(p.outcome.response_global, None);
        assert!(p.outcome.response_local.is_some());
    }
}

/// A config builder whose high-utilization point panics inside the
/// run (warm-up swallows every job, which `SimConfig::validate`
/// rejects) while the low point is healthy — the fixture for the
/// panic-isolation tests.
fn partly_failing_cfg() -> impl Fn(f64) -> SimConfig + Sync {
    move |util| {
        let mut cfg = SimConfig::das(PolicyKind::Gs, 16, util);
        cfg.total_jobs = 4_000;
        cfg.warmup_jobs = if util > 0.45 { 4_000 } else { 500 };
        cfg.batch_size = 100;
        cfg
    }
}

#[test]
fn panicking_replications_are_isolated_and_recorded() {
    let mut cfg = SweepConfig::quick();
    cfg.utilizations = vec![0.3, 0.5];
    cfg = cfg.fixed_replications(2);
    let points = sweep(partly_failing_cfg(), &cfg);
    // The healthy point is untouched by its neighbour's panics.
    let ok = &points[0].outcome;
    assert_eq!(ok.runs.len(), 2);
    assert!(ok.failures.is_empty());
    assert!(ok.response.mean > 0.0);
    // The broken point recorded every panic instead of propagating:
    // failures keep their replication index and seed, and the
    // response estimate simply has no observations.
    let bad = &points[1].outcome;
    assert!(bad.runs.is_empty());
    assert_eq!(bad.failures.len(), 2);
    assert_eq!(bad.failures[0].rep, 0);
    assert_eq!(bad.failures[1].rep, 1);
    assert_eq!(bad.failures[0].seed, replication_seed(cfg.base_seed, 0));
    assert_eq!(bad.failures[1].seed, replication_seed(cfg.base_seed, 1));
    assert!(bad.failures[0].cause.contains("warm-up"), "cause: {}", bad.failures[0].cause);
    assert_eq!(bad.response.n, 0);
    assert!(bad.response.half_width.is_infinite());
}

#[test]
fn failures_are_deterministic_across_thread_counts() {
    let mut serial = SweepConfig::quick();
    serial.utilizations = vec![0.3, 0.5];
    serial = serial.fixed_replications(2);
    let mut parallel = serial.clone();
    serial.threads = 1;
    parallel.threads = 4;
    let a = sweep(partly_failing_cfg(), &serial);
    let b = sweep(partly_failing_cfg(), &parallel);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.outcome.response.mean, y.outcome.response.mean);
        assert_eq!(x.outcome.runs.len(), y.outcome.runs.len());
        assert_eq!(x.outcome.failures, y.outcome.failures);
    }
}

fn cp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("coalloc_sweep_cp_{}_{tag}.json", std::process::id()))
}

#[test]
fn checkpoint_records_failures_and_resumes_identically() {
    let path = cp_path("resume");
    let _ = std::fs::remove_file(&path);
    let mut cfg = SweepConfig::quick();
    cfg.utilizations = vec![0.3, 0.5];
    cfg = cfg.fixed_replications(2);
    cfg.checkpoint = Some(path.clone());
    let first = sweep(partly_failing_cfg(), &cfg);
    let cp: SweepCheckpoint =
        serde_json::from_str(&std::fs::read_to_string(&path).expect("checkpoint written"))
            .expect("checkpoint parses");
    assert_eq!(cp.version, CHECKPOINT_VERSION);
    assert_eq!(cp.failures.len(), 2);
    assert_eq!(cp.failures[1].len(), 2, "failures are part of the on-disk state");
    // Resuming the finished sweep re-runs nothing and reproduces the
    // result, failed replications included.
    let second = sweep(partly_failing_cfg(), &cfg);
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.outcome.response.mean, b.outcome.response.mean);
        assert_eq!(a.outcome.runs.len(), b.outcome.runs.len());
        assert_eq!(a.outcome.failures, b.outcome.failures);
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn resume_runs_only_the_missing_replications() {
    let path = cp_path("partial");
    let _ = std::fs::remove_file(&path);
    // Phase one stops at the configured cap of 2; phase two raises the
    // cap to 4 under the same scenario and resumes.
    let mut partial = SweepConfig::quick();
    partial.utilizations = vec![0.3, 0.5];
    partial = partial.fixed_replications(2);
    partial.checkpoint = Some(path.clone());
    sweep(quick_cfg(PolicyKind::Gs), &partial);

    let mut full = partial.clone();
    full = full.fixed_replications(4);
    let pool = WorkerPool::new(2);
    let (resumed, stats) = sweep_on(&pool, None, quick_cfg(PolicyKind::Gs), &full, |_| {});
    assert_eq!(stats.resumed, 4, "two points × two checkpointed replications");
    assert_eq!(stats.executed, 4, "only the two new replications per point ran");

    // And the spliced result is bit-identical to a clean 4-rep sweep.
    let mut clean = full.clone();
    clean.checkpoint = None;
    let fresh = sweep(quick_cfg(PolicyKind::Gs), &clean);
    for (a, b) in resumed.iter().zip(&fresh) {
        assert_eq!(a.outcome.response.mean, b.outcome.response.mean);
        assert_eq!(a.outcome.runs.len(), b.outcome.runs.len());
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn checkpoint_from_a_different_scenario_is_rejected() {
    // The regression behind the full-scenario fingerprint: a checkpoint
    // written under GS used to match a later LS sweep with the same
    // (version, seed, grid), silently resuming GS outcomes as LS data.
    let path = cp_path("scenario");
    let _ = std::fs::remove_file(&path);
    let mut cfg = SweepConfig::quick();
    cfg.utilizations = vec![0.3, 0.5];
    cfg = cfg.fixed_replications(2);
    cfg.checkpoint = Some(path.clone());
    let gs = sweep(quick_cfg(PolicyKind::Gs), &cfg);
    assert!(path.exists(), "GS sweep checkpointed");

    // Same sweep config, different policy: the file must be rejected
    // and the LS sweep must equal a checkpoint-free LS sweep.
    let ls_resumed = sweep(quick_cfg(PolicyKind::Ls), &cfg);
    let mut clean = cfg.clone();
    clean.checkpoint = None;
    let ls_fresh = sweep(quick_cfg(PolicyKind::Ls), &clean);
    for (r, f) in ls_resumed.iter().zip(&ls_fresh) {
        assert_eq!(
            r.outcome.response.mean, f.outcome.response.mean,
            "stale GS checkpoint leaked into the LS sweep"
        );
    }
    // Sanity: the two policies genuinely differ here, so a leak would
    // have been visible.
    assert!(gs
        .iter()
        .zip(&ls_fresh)
        .any(|(a, b)| a.outcome.response.mean != b.outcome.response.mean));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn truncated_checkpoint_restarts_cleanly() {
    let path = cp_path("truncated");
    let _ = std::fs::remove_file(&path);
    let mut cfg = SweepConfig::quick();
    cfg.utilizations = vec![0.3];
    cfg = cfg.fixed_replications(2);
    cfg.checkpoint = Some(path.clone());
    let fresh = sweep(quick_cfg(PolicyKind::Gs), &cfg);
    // Simulate a checkpoint cut off mid-write (e.g. a full disk on a
    // non-atomic filesystem): keep only the first half of the bytes.
    let text = std::fs::read_to_string(&path).expect("checkpoint written");
    std::fs::write(&path, &text[..text.len() / 2]).expect("truncate");
    let resumed = sweep(quick_cfg(PolicyKind::Gs), &cfg);
    for (a, b) in fresh.iter().zip(&resumed) {
        assert_eq!(a.outcome.response.mean, b.outcome.response.mean);
        assert_eq!(a.outcome.gross_utilization, b.outcome.gross_utilization);
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn bit_flipped_checkpoint_restarts_cleanly() {
    let path = cp_path("bitflip");
    let _ = std::fs::remove_file(&path);
    let mut cfg = SweepConfig::quick();
    cfg.utilizations = vec![0.3];
    cfg = cfg.fixed_replications(2);
    cfg.checkpoint = Some(path.clone());
    let fresh = sweep(quick_cfg(PolicyKind::Gs), &cfg);
    // Flip a bit inside the stored base seed: the file still parses,
    // but the fingerprint no longer matches this sweep and the
    // corrupt state is discarded rather than trusted.
    let mut bytes = std::fs::read(&path).expect("checkpoint written");
    let needle = b"\"base_seed\":";
    let pos =
        bytes.windows(needle.len()).position(|w| w == needle).expect("base_seed field present")
            + needle.len();
    bytes[pos] ^= 0x01;
    std::fs::write(&path, &bytes).expect("corrupt");
    let resumed = sweep(quick_cfg(PolicyKind::Gs), &cfg);
    for (a, b) in fresh.iter().zip(&resumed) {
        assert_eq!(a.outcome.response.mean, b.outcome.response.mean);
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn pre_fingerprint_era_checkpoint_restarts_cleanly() {
    // A v2 file has no `scenario` field: deserialization fails and the
    // sweep restarts rather than trusting a half-understood file.
    let path = cp_path("v2");
    let v2 = r#"{"version":2,"base_seed":2003,"utilizations":[0.3],"runs":[[]],"failures":[[]]}"#;
    std::fs::write(&path, v2).expect("write v2 checkpoint");
    let mut cfg = SweepConfig::quick();
    cfg.utilizations = vec![0.3];
    cfg = cfg.fixed_replications(1);
    cfg.checkpoint = Some(path.clone());
    let points = sweep(quick_cfg(PolicyKind::Gs), &cfg);
    assert_eq!(points[0].outcome.runs.len(), 1, "sweep restarted and ran");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn overlapping_sweeps_share_cached_replications_bit_identically() {
    // Two grids overlapping at 0.3 and 0.5, one shared cache: the
    // second sweep answers the shared points from memory — the serve
    // daemon's memoization contract — and still matches isolated runs.
    let pool = WorkerPool::new(2);
    let cache = ScenarioCache::new();
    let mut first = SweepConfig::quick();
    first.utilizations = vec![0.2, 0.3, 0.5];
    first = first.fixed_replications(2);
    let mut second = first.clone();
    second.utilizations = vec![0.3, 0.5, 0.6];

    let (a, sa) = sweep_on(&pool, Some(&cache), quick_cfg(PolicyKind::Gs), &first, |_| {});
    assert_eq!(sa.cache_hits, 0);
    assert_eq!(sa.executed, 6);
    let (b, sb) = sweep_on(&pool, Some(&cache), quick_cfg(PolicyKind::Gs), &second, |_| {});
    assert_eq!(sb.cache_hits, 4, "0.3 and 0.5 × two replications come from the cache");
    assert_eq!(sb.executed, 2, "only 0.6 simulates");
    assert!(cache.hits() >= 4);

    // Shared points are bit-identical between the two sweeps, and both
    // match an isolated, cache-free sweep.
    assert_eq!(a[1].outcome.response.mean, b[0].outcome.response.mean);
    assert_eq!(a[2].outcome.response.mean, b[1].outcome.response.mean);
    let isolated = sweep(quick_cfg(PolicyKind::Gs), &second);
    for (x, y) in b.iter().zip(&isolated) {
        assert_eq!(x.outcome.response.mean, y.outcome.response.mean);
        assert_eq!(x.outcome.gross_utilization, y.outcome.gross_utilization);
    }
}

#[test]
fn the_cache_is_scenario_keyed_never_cross_policy() {
    // Same grid, same seed, different policy: zero sharing.
    let pool = WorkerPool::new(2);
    let cache = ScenarioCache::new();
    let cfg = SweepConfig::quick().fixed_replications(2);
    let (gs, _) = sweep_on(&pool, Some(&cache), quick_cfg(PolicyKind::Gs), &cfg, |_| {});
    let (ls, stats) = sweep_on(&pool, Some(&cache), quick_cfg(PolicyKind::Ls), &cfg, |_| {});
    assert_eq!(stats.cache_hits, 0, "a different policy is a different scenario");
    assert!(gs.iter().zip(&ls).any(|(a, b)| a.outcome.response.mean != b.outcome.response.mean));
    // And the digests say so directly.
    assert_ne!(
        point_digest(&quick_cfg(PolicyKind::Gs)(0.4)),
        point_digest(&quick_cfg(PolicyKind::Ls)(0.4))
    );
}

#[test]
fn round_reports_stream_per_round_counts() {
    let pool = WorkerPool::new(2);
    let mut cfg = SweepConfig::quick();
    cfg.utilizations = vec![0.3];
    cfg = cfg.fixed_replications(2);
    let mut rounds = Vec::new();
    let (_, stats) = sweep_on(&pool, None, quick_cfg(PolicyKind::Gs), &cfg, |r| rounds.push(*r));
    assert_eq!(stats.rounds, rounds.len());
    assert_eq!(rounds[0].round, 1);
    assert_eq!(rounds[0].tasks, 2);
    assert_eq!(rounds[0].executed, 2);
    assert_eq!(rounds[0].cache_hits, 0);
    assert_eq!(rounds.last().unwrap().open_points, 0, "the last round closes the sweep");
}
