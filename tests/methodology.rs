//! Simulation-methodology integration tests: common random numbers,
//! KS-based distribution checks, and replay-vs-sampling consistency.

use coalloc::core::{PolicyKind, SimBuilder, SimConfig};
use coalloc::desim::{ks_same_distribution, ks_statistic, RngStream};
use coalloc::trace::{generate_das1_log, DasLogConfig};
use coalloc::workload::Workload;

/// Common random numbers: comparing LS and GS with the *same* seeds
/// gives a much lower-variance estimate of their difference than with
/// independent seeds — the reason every policy shares the master seed's
/// labelled substreams.
#[test]
fn common_random_numbers_reduce_variance() {
    let run_pair = |seed_a: u64, seed_b: u64| {
        let mk = |policy: PolicyKind, seed: u64| {
            let mut cfg = SimConfig::das(policy, 16, 0.5).with_seed(seed);
            cfg.total_jobs = 6_000;
            cfg.warmup_jobs = 600;
            SimBuilder::new(&cfg).run().metrics.mean_response
        };
        mk(PolicyKind::Gs, seed_a) - mk(PolicyKind::Ls, seed_b)
    };
    let n = 8;
    // CRN: both policies see seed k.
    let crn: Vec<f64> = (0..n).map(|k| run_pair(100 + k, 100 + k)).collect();
    // Independent: different seeds per policy.
    let indep: Vec<f64> = (0..n).map(|k| run_pair(200 + 2 * k, 201 + 2 * k)).collect();
    let var = |xs: &[f64]| {
        let m = xs.iter().sum::<f64>() / xs.len() as f64;
        xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
    };
    let (v_crn, v_indep) = (var(&crn), var(&indep));
    assert!(v_crn < v_indep, "CRN variance {v_crn:.0} must undercut independent {v_indep:.0}");
}

/// The synthetic log's sampled sizes match the master pmf by a KS test.
#[test]
fn log_sizes_match_the_pmf() {
    let log = generate_das1_log(&DasLogConfig { jobs: 10_000, ..Default::default() });
    let observed: Vec<f64> = log.jobs.iter().map(|j| f64::from(j.size)).collect();
    // Reference sample drawn straight from the pmf.
    let dist = coalloc::workload::JobSizeDist::das_s_128();
    let mut rng = RngStream::new(77);
    let reference: Vec<f64> = (0..10_000).map(|_| f64::from(dist.sample(&mut rng))).collect();
    assert!(
        ks_same_distribution(&observed, &reference, 0.001),
        "KS distance {}",
        ks_statistic(&observed, &reference)
    );
}

/// Replaying the synthetic log at its natural pace produces a response
/// profile whose *service-dependent floor* matches stochastic sampling:
/// the same jobs at low load take the same (extended) service times.
#[test]
fn replay_and_sampling_agree_at_low_load() {
    let log = generate_das1_log(&DasLogConfig { jobs: 8_000, ..Default::default() });
    // Stretch the log to near-zero load so every job starts on arrival.
    let mut cfg = SimConfig::das(PolicyKind::Gs, 16, 0.1);
    cfg.warmup_jobs = 800;
    let replay = SimBuilder::new(&cfg).trace(&log, 10.0).run();
    // At near-zero load the mean response equals the mean (extended)
    // occupancy of the log's jobs.
    let w = Workload::das(16);
    let expected: f64 = log
        .jobs
        .iter()
        .map(|j| {
            let n = coalloc::workload::component_count(j.size, 16, 4);
            j.runtime * w.extension_factor(n)
        })
        .sum::<f64>()
        / log.len() as f64;
    let got = replay.metrics.mean_response;
    assert!(
        (got - expected).abs() / expected < 0.1,
        "replay mean response {got:.0} vs expected occupancy {expected:.0}"
    );
}
