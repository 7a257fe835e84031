//! Sweep scenarios and their fingerprints.
//!
//! A sweep is a *scenario* — everything that determines a replication's
//! outcome except the replication index — crossed with a target-
//! utilization grid. The scenario is identified by a 64-bit digest of
//! the **full** simulation configuration (policy, system shape,
//! workload with its size and service-time tables, disposition,
//! discipline, faults, network, warm-up, run lengths, …) with the
//! per-replication seed normalized out. The digest is a structural
//! hash: every field is fed through its [`Hash`] impl, floats by bit
//! pattern, into a fixed-state word hasher. That digest is the
//! checkpoint fingerprint *and* the scenario-cache and result-store
//! key: two sweeps agree on a point's replication exactly when their
//! digests and base seeds agree, in which case the replication is
//! bit-identical and may be shared or resumed freely.

use std::hash::{Hash, Hasher};
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

/// MurmurHash64A's multiplier and shift.
const MUL: u64 = 0xc6a4_a793_5bd1_e995;
const SHIFT: u32 = 47;

/// The hasher behind the digests and the result store's frame checksum:
/// fixed state (no per-process keys, so a digest is the same in every
/// process of a build — the lifetime a checkpoint, cache entry or store
/// record has) and whole 8-byte words. Each word is mixed by
/// multiply-and-xorshift before it enters the state, MurmurHash64A's
/// step, so a difference anywhere in a word, a float's sign bit
/// included, spreads over the whole state. Every step is a bijection —
/// of the word for a fixed state and of the state for a fixed word, and
/// so is [`finish`](Hasher::finish) — so two inputs of one length that
/// differ in a single word always hash differently.
pub(crate) struct DigestHasher(u64);

impl DigestHasher {
    pub(crate) fn new() -> Self {
        DigestHasher(0x243f_6a88_85a3_08d3)
    }

    #[inline]
    fn word(&mut self, w: u64) {
        let mut k = w.wrapping_mul(MUL);
        k ^= k >> SHIFT;
        k = k.wrapping_mul(MUL);
        self.0 = (self.0 ^ k).wrapping_mul(MUL);
    }
}

impl Hasher for DigestHasher {
    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> SHIFT;
        h = h.wrapping_mul(MUL);
        h ^ (h >> SHIFT)
    }

    /// The length, then the bytes as little-endian words, the last one
    /// zero-padded: strings that differ only in trailing zeros differ.
    fn write(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.word(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            self.word(u64::from_le_bytes(last));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.word(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.word(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.word(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.word(n as u64);
    }

    /// Enum discriminants.
    fn write_isize(&mut self, n: isize) {
        self.word(n as u64);
    }
}

/// The scenario digest of one sweep point: a structural hash of the
/// complete [`SimConfig`] with the seed normalized to zero (the sweep
/// overwrites it with [`super::replication_seed`] per replication, so
/// it is not part of the scenario). Every field that can change a
/// replication's outcome — policy, system, workload with its size and
/// service-time tables, faults, network, disposition, discipline,
/// warm-up, run lengths — is fed through its [`Hash`] impl, floats by
/// bit pattern. Those impls destructure each struct without `..`, so a
/// new scenario field fails to compile until it feeds the digest.
///
/// Digests are stable within a build, not across changes to the
/// hashing. This structural hash replaced FNV-1a over the config's
/// `Debug` text and so changed every key: the result store's segment
/// magic moved to `COALSTO3` then (it is `COALSTO4` since the store's
/// payloads became binary), so records an earlier build stored are
/// recomputed once, and an earlier build's checkpoints restart on the
/// fingerprint mismatch.
pub fn point_digest(cfg: &SimConfig) -> u64 {
    let mut state = DigestHasher::new();
    cfg.hash_with_seed(0, &mut state);
    state.finish()
}

/// The fingerprint of a whole sweep: the base seed and the per-point
/// scenario digests, folded in grid order. Checkpoints carry this value
/// and refuse to resume under any other scenario.
pub fn sweep_digest(base_seed: u64, point_digests: &[u64]) -> u64 {
    let mut state = DigestHasher::new();
    base_seed.hash(&mut state);
    point_digests.hash(&mut state);
    state.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultSpec, InterruptPolicy, ResizePolicy};
    use crate::placement::PlacementRule;
    use crate::policy::PolicyKind;
    use crate::queue::QueueDiscipline;
    use crate::sim::{NetworkSpec, Warmup};
    use crate::system::SystemSpec;
    use coalloc_workload::{JobDisposition, JobSizeDist, QueueRouting, RequestKind, ServiceDist};

    #[test]
    fn digest_ignores_the_seed_but_nothing_else() {
        let cfg = SimConfig::das(PolicyKind::Gs, 16, 0.5);
        assert_eq!(point_digest(&cfg), point_digest(&cfg.clone().with_seed(99)));

        // One edit per field of `SimConfig` and of its workload.
        type Edit = fn(&mut SimConfig);
        let edits: Vec<(&str, Edit)> = vec![
            ("policy", |c| c.policy = PolicyKind::Ls),
            ("sizes", |c| c.workload.sizes = JobSizeDist::das_s_64()),
            ("service", |c| c.workload.service = ServiceDist::exponential(300.0)),
            ("service cap", |c| c.workload.service = ServiceDist::das_t_900().with_cap(600.0)),
            ("limit", |c| c.workload.limit = 24),
            ("clusters", |c| c.workload.clusters = 3),
            ("extension", |c| c.workload.extension = 1.5),
            ("spread_penalty", |c| c.workload.spread_penalty = 0.1),
            ("request_kind", |c| c.workload.request_kind = RequestKind::Ordered),
            ("size_service_exponent", |c| c.workload.size_service_exponent = 0.5),
            ("routing", |c| c.routing = QueueRouting::unbalanced(4)),
            ("routing weights", |c| {
                c.routing = QueueRouting::custom(&[1.0, 1.0, 1.0, 1.0 + 1e-12])
            }),
            ("system", |c| c.system = SystemSpec::new([32, 32, 32, 33])),
            ("arrival_rate", |c| c.arrival_rate = f64::from_bits(c.arrival_rate.to_bits() + 1)),
            ("arrival_cv2", |c| c.arrival_cv2 = 2.0),
            ("total_jobs", |c| c.total_jobs += 1),
            ("warmup_jobs", |c| c.warmup_jobs += 1),
            ("warmup", |c| c.warmup = Warmup::Auto),
            ("batch_size", |c| c.batch_size = 200),
            ("rule", |c| c.rule = PlacementRule::BestFit),
            ("record_series", |c| c.record_series = true),
            ("faults", |c| c.faults = FaultSpec::parse("exp:50000:5000").ok()),
            ("fault trace", |c| c.faults = FaultSpec::parse("down:100:0,up:200:0").ok()),
            ("interrupt", |c| c.interrupt = InterruptPolicy::Abort),
            ("disposition", |c| c.disposition = JobDisposition::Moldable),
            ("discipline", |c| c.discipline = QueueDiscipline::Easy),
            ("estimate_factor", |c| c.estimate_factor = 3.0),
            ("resize", |c| c.resize = ResizePolicy::ShrinkOnly),
            ("network", |c| c.network = Some(NetworkSpec::backbone(2.0))),
            ("network topology", |c| c.network = Some(NetworkSpec::pairwise(2.0))),
        ];
        let mut seen = vec![point_digest(&cfg)];
        for (field, edit) in &edits {
            let mut other = cfg.clone();
            edit(&mut other);
            let digest = point_digest(&other);
            assert!(!seen.contains(&digest), "editing `{field}` gives a digest seen before");
            seen.push(digest);
        }

        // Bit patterns, not values: a float's sign alone is a new scenario.
        let mut negated = cfg.clone();
        negated.workload.spread_penalty = -0.0;
        assert_ne!(point_digest(&cfg), point_digest(&negated));
        // So does a value nested in a list: one fault event's time.
        let mut faults = cfg.clone();
        faults.faults = FaultSpec::parse("down:100:0,up:200:0").ok();
        let mut later = cfg.clone();
        later.faults = FaultSpec::parse("down:100:0,up:201:0").ok();
        assert_ne!(point_digest(&faults), point_digest(&later));

        let other = SimConfig::heterogeneous(
            PolicyKind::Gs,
            16,
            0.5,
            SystemSpec::new([72, 32, 32, 32, 32]),
        );
        assert_ne!(point_digest(&cfg), point_digest(&other));
    }

    #[test]
    fn digest_sees_the_service_time_table() {
        // One name, two bin widths: the `Debug` text rendered both
        // tables as the bare word `Empirical`, so these shared a key.
        let log = coalloc_trace::generate_das1_log(&coalloc_trace::DasLogConfig {
            jobs: 2_000,
            ..Default::default()
        });
        let with_bins = |width: f64| {
            let mut cfg = SimConfig::das(PolicyKind::Gs, 16, 0.5);
            cfg.workload.service = ServiceDist::from_trace("DAS1 runtimes", &log, width);
            cfg
        };
        assert_ne!(point_digest(&with_bins(10.0)), point_digest(&with_bins(60.0)));
        assert_eq!(point_digest(&with_bins(10.0)), point_digest(&with_bins(10.0)));
    }

    #[test]
    fn point_digest_hashes_the_seed_normalized_config() {
        let cfg = SimConfig::das(PolicyKind::Lp, 24, 0.6).with_seed(77);
        let mut state = DigestHasher::new();
        cfg.clone().with_seed(0).hash(&mut state);
        assert_eq!(point_digest(&cfg), state.finish());
    }

    #[test]
    fn byte_strings_that_differ_only_in_trailing_zeros_differ() {
        let digest = |bytes: &[u8]| {
            let mut state = DigestHasher::new();
            state.write(bytes);
            state.finish()
        };
        assert_ne!(digest(b"a"), digest(b"a\0"));
        assert_ne!(digest(&[0; 8]), digest(&[0; 16]));
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
