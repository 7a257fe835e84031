//! The experiment harness: one function per table and figure of the
//! paper's evaluation, each returning plain text in the layout the paper
//! reports (tables as aligned rows, figures as gnuplot-style `x y`
//! series). The `coalloc-exp` binary wraps these; EXPERIMENTS.md records
//! paper-vs-measured for each.
//!
//! Every target runs on one process-wide engine: a [`WorkerPool`] and a
//! [`ScenarioCache`] that live as long as the process. The paper's
//! figures share most of their curves (Fig 3's panels reappear in Figs
//! 5–7, and the scorecard re-reads them), and a replication is shared
//! whenever two targets ask for equal configurations, whichever targets
//! they are.

pub mod extensions;
pub mod figures;
pub mod scorecard;
pub mod tables;

pub use extensions::{
    backfilling, burstiness, correlation, das2, dispositions, extension_sensitivity, network_load,
    placement_rules, request_types,
};
pub use figures::{fig1, fig2, fig3, fig4, fig5, fig6, fig7, terminal_plot};
pub use scorecard::scorecard;
pub use tables::{packing, ratios, table1, table2, table3, table3_extended};

use std::sync::OnceLock;

use coalloc_core::experiment::{sweep_on, ScenarioCache, SweepConfig, SweepPoint, WorkerPool};
use coalloc_core::SimConfig;

/// How big the experiment runs are.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Small runs for tests and smoke checks (minutes of CPU overall).
    Quick,
    /// Paper-scale runs (tens of minutes of CPU overall).
    Full,
}

impl Scale {
    /// Arrivals generated per simulation run.
    pub fn total_jobs(self) -> u64 {
        match self {
            Scale::Quick => 8_000,
            Scale::Full => 40_000,
        }
    }

    /// Warm-up departures discarded per run.
    pub fn warmup_jobs(self) -> u64 {
        match self {
            Scale::Quick => 1_000,
            Scale::Full => 4_000,
        }
    }

    /// Floor of replications the adaptive engine spends per sweep point.
    pub fn min_replications(self) -> u64 {
        match self {
            Scale::Quick => 2,
            Scale::Full => 3,
        }
    }

    /// Cap of replications the adaptive engine may spend per point.
    pub fn max_replications(self) -> u64 {
        match self {
            Scale::Quick => 4,
            Scale::Full => 8,
        }
    }

    /// Target relative 95 % CI half-width on the mean response.
    pub fn rel_ci_target(self) -> f64 {
        match self {
            Scale::Quick => 0.2,
            Scale::Full => 0.05,
        }
    }

    /// The utilization grid of the response-time curves.
    pub fn utilizations(self) -> Vec<f64> {
        match self {
            Scale::Quick => vec![0.3, 0.45, 0.55, 0.65, 0.75],
            Scale::Full => (6..=17).map(|i| f64::from(i) * 0.05).collect(), // 0.30..=0.85
        }
    }

    /// Departures measured in a constant-backlog saturation run.
    pub fn saturation_departures(self) -> u64 {
        match self {
            Scale::Quick => 8_000,
            Scale::Full => 40_000,
        }
    }

    /// The sweep configuration for this scale.
    pub fn sweep(self) -> SweepConfig {
        SweepConfig {
            utilizations: self.utilizations(),
            min_replications: self.min_replications(),
            max_replications: self.max_replications(),
            rel_ci_target: self.rel_ci_target(),
            base_seed: 2003,
            threads: 0,
            checkpoint: None,
            audit: false,
        }
    }
}

/// Applies this scale's run sizes to a simulation configuration.
pub fn scaled(mut cfg: SimConfig, scale: Scale) -> SimConfig {
    cfg.total_jobs = scale.total_jobs();
    cfg.warmup_jobs = scale.warmup_jobs();
    cfg.batch_size = (scale.total_jobs() / 40).max(50);
    cfg
}

/// The pool and cache every harness sweep and search runs on. It lives
/// in a static, so it is never dropped: its workers idle between
/// sweeps and end with the process.
struct Engine {
    pool: WorkerPool,
    cache: ScenarioCache,
}

fn engine() -> &'static Engine {
    static ENGINE: OnceLock<Engine> = OnceLock::new();
    ENGINE.get_or_init(|| Engine { pool: WorkerPool::new(0), cache: ScenarioCache::new() })
}

/// The process-wide worker pool (one worker per core).
pub(crate) fn pool() -> &'static WorkerPool {
    &engine().pool
}

/// Runs an adaptive sweep on the process-wide pool, answering every
/// replication an earlier sweep already ran from the process-wide cache.
pub(crate) fn sweep(make_cfg: impl Fn(f64) -> SimConfig, cfg: &SweepConfig) -> Vec<SweepPoint> {
    let engine = engine();
    sweep_on(&engine.pool, Some(&engine.cache), make_cfg, cfg, |_| {}).0
}
