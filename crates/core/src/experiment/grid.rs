//! Sweep scenarios and their fingerprints.
//!
//! A sweep is a *scenario* — everything that determines a replication's
//! outcome except the replication index — crossed with a target-
//! utilization grid. The scenario is identified by a 64-bit digest of
//! the **full** simulation configuration (policy, system shape,
//! workload, disposition, discipline, faults, network, warm-up, run
//! lengths, …) with the per-replication seed normalized out. That
//! digest is the checkpoint fingerprint *and* the scenario-cache key:
//! two sweeps agree on a point's replication exactly when their digests
//! and base seeds agree, in which case the replication is bit-identical
//! and may be shared or resumed freely.

use std::path::PathBuf;

use desim::stopping::StoppingRule;

use crate::error::{ensure, ConfigError};
use crate::sim::SimConfig;

/// Configuration of a sweep over target gross utilizations.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// The target gross utilizations to simulate (the x-axis).
    pub utilizations: Vec<f64>,
    /// Replications every point runs before the first assessment.
    pub min_replications: u64,
    /// Hard cap on replications per point.
    pub max_replications: u64,
    /// Target relative 95 % half-width of the mean response per point
    /// (0.05 = ±5 %). Points stop adding replications once they meet it.
    pub rel_ci_target: f64,
    /// Base seed; replication `r` runs on the substream-derived seed
    /// [`super::replication_seed`]`(base_seed, r)` at every utilization.
    pub base_seed: u64,
    /// Worker threads; 0 means one per available core.
    pub threads: usize,
    /// Checkpoint file: completed replications are written here after
    /// every round, and a matching file is loaded before the first.
    pub checkpoint: Option<PathBuf>,
    /// Attach a fresh [`crate::audit::InvariantAuditor`] to every
    /// replication and panic on any violation. Observers are passive, so
    /// an audited sweep produces bit-identical results to an unaudited
    /// one — at the cost of the auditor's bookkeeping per event.
    pub audit: bool,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            utilizations: (1..=9).map(|i| f64::from(i) * 0.1).collect(),
            min_replications: 3,
            max_replications: 12,
            rel_ci_target: 0.05,
            base_seed: 2003,
            threads: 0,
            checkpoint: None,
            audit: false,
        }
    }
}

impl SweepConfig {
    /// A reduced sweep for fast test/CI runs: fixed two replications
    /// (min = max), so the adaptive engine never adds rounds.
    pub fn quick() -> Self {
        SweepConfig {
            utilizations: vec![0.2, 0.4, 0.6],
            min_replications: 2,
            max_replications: 2,
            rel_ci_target: 0.05,
            base_seed: 2003,
            threads: 0,
            checkpoint: None,
            audit: false,
        }
    }

    /// Pins the engine to exactly `n` replications per point (min = max),
    /// recovering the classic fixed-replication design.
    pub fn fixed_replications(mut self, n: u64) -> Self {
        self.min_replications = n;
        self.max_replications = n;
        self
    }

    /// The worker-pool width this configuration asks for: `threads`,
    /// with 0 resolved to one per available core.
    pub(crate) fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
        } else {
            self.threads
        }
    }

    /// Checks the grid and the replication bounds: at least one
    /// utilization, each positive and finite; at least one replication,
    /// a cap no lower than the minimum; and a positive, finite
    /// relative-CI target. [`super::sweep_on`] panics with the returned
    /// error's message; front ends call this first and report it.
    pub fn validate(&self) -> Result<(), ConfigError> {
        ensure(
            !self.utilizations.is_empty(),
            "utilizations",
            "sweep needs at least one utilization",
        )?;
        for &u in &self.utilizations {
            ensure(
                u > 0.0 && u.is_finite(),
                "utilizations",
                format_args!("target utilizations must be positive and finite, got {u}"),
            )?;
        }
        ensure(
            self.min_replications > 0,
            "min_replications",
            "sweep needs at least one replication",
        )?;
        ensure(
            self.max_replications >= self.min_replications,
            "max_replications",
            "replication cap below the minimum",
        )?;
        ensure(
            self.rel_ci_target > 0.0 && self.rel_ci_target.is_finite(),
            "rel_ci_target",
            "relative-CI target must be positive and finite",
        )
    }

    pub(crate) fn rule(&self) -> StoppingRule {
        StoppingRule::new(self.rel_ci_target, self.min_replications, self.max_replications)
    }
}

/// FNV-1a over a byte string: small, dependency-free, and stable for a
/// given build — exactly the lifetime a checkpoint, cache entry, or
/// store record has (all are optimizations over re-running, never
/// sources of truth). The result store frames every record with it.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The scenario digest of one sweep point: a hash of the complete
/// [`SimConfig`] with the seed normalized to zero (the sweep overwrites
/// it with [`super::replication_seed`] per replication, so it is not
/// part of the scenario). Every field that can change a replication's
/// outcome — policy, system, workload, faults, network, disposition,
/// discipline, warm-up, run lengths — feeds the digest through the
/// config's `Debug` rendering, so adding a scenario axis to `SimConfig`
/// automatically widens the fingerprint.
pub fn point_digest(cfg: &SimConfig) -> u64 {
    let normalized = cfg.clone().with_seed(0);
    fnv1a(format!("{normalized:?}").as_bytes())
}

/// The fingerprint of a whole sweep: the base seed and the per-point
/// scenario digests, folded in grid order. Checkpoints carry this value
/// and refuse to resume under any other scenario.
pub fn sweep_digest(base_seed: u64, point_digests: &[u64]) -> u64 {
    let mut bytes = Vec::with_capacity(8 * (1 + point_digests.len()));
    bytes.extend_from_slice(&base_seed.to_le_bytes());
    for d in point_digests {
        bytes.extend_from_slice(&d.to_le_bytes());
    }
    fnv1a(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyKind;

    #[test]
    fn digest_ignores_the_seed_but_nothing_else() {
        let cfg = SimConfig::das(PolicyKind::Gs, 16, 0.5);
        assert_eq!(point_digest(&cfg), point_digest(&cfg.clone().with_seed(99)));

        let mut other = cfg.clone();
        other.policy = PolicyKind::Ls;
        assert_ne!(point_digest(&cfg), point_digest(&other));

        let mut other = cfg.clone();
        other.disposition = coalloc_workload::JobDisposition::Moldable;
        assert_ne!(point_digest(&cfg), point_digest(&other));

        let mut other = cfg.clone();
        other.discipline = crate::queue::QueueDiscipline::Easy;
        assert_ne!(point_digest(&cfg), point_digest(&other));

        let mut other = cfg.clone();
        other.faults = Some(crate::fault::FaultSpec::parse("exp:50000:5000").unwrap());
        assert_ne!(point_digest(&cfg), point_digest(&other));

        let mut other = cfg.clone();
        other.network = Some("2".parse().unwrap());
        assert_ne!(point_digest(&cfg), point_digest(&other));

        let other = SimConfig::heterogeneous(
            PolicyKind::Gs,
            16,
            0.5,
            crate::system::SystemSpec::new([72, 32, 32, 32, 32]),
        );
        assert_ne!(point_digest(&cfg), point_digest(&other));
    }

    #[test]
    fn sweep_digest_depends_on_base_seed_and_grid_order() {
        let a = point_digest(&SimConfig::das(PolicyKind::Gs, 16, 0.3));
        let b = point_digest(&SimConfig::das(PolicyKind::Gs, 16, 0.5));
        assert_ne!(a, b, "different utilizations are different scenarios");
        assert_ne!(sweep_digest(2003, &[a, b]), sweep_digest(2004, &[a, b]));
        assert_ne!(sweep_digest(2003, &[a, b]), sweep_digest(2003, &[b, a]));
        assert_eq!(sweep_digest(2003, &[a, b]), sweep_digest(2003, &[a, b]));
    }
}
