//! The simulation layer: configuration, warm-up lifecycle, the Session
//! engine and what a run reports.
//!
//! Every run goes through [`SimBuilder`], which sets the job source
//! and hands the event loop to the crate-private `Session`:
//!
//! ```
//! use coalloc_core::{PolicyKind, SimBuilder, SimConfig};
//! let mut cfg = SimConfig::das(PolicyKind::Gs, 16, 0.4);
//! cfg.total_jobs = 2_000;
//! cfg.warmup_jobs = 200;
//! let outcome = SimBuilder::new(&cfg).run();
//! assert_eq!(outcome.completed, 2_000);
//! ```

mod config;
pub(crate) mod network;
mod outcome;
mod session;
mod warmup;

pub use config::{SimConfig, Warmup};
pub use network::{NetworkSpec, NetworkTopology};
pub use outcome::SimOutcome;
pub use session::SimBuilder;
#[cfg(test)]
pub(crate) use {outcome::OccupancyModel, session::Session};
