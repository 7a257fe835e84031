//! # coalloc — trace-based simulation of processor co-allocation policies
//! in multiclusters
//!
//! A production-quality Rust reproduction of Bucur & Epema, *Trace-Based
//! Simulations of Processor Co-Allocation Policies in Multiclusters*
//! (HPDC 2003), as a four-crate workspace re-exported here:
//!
//! * [`desim`] — the discrete-event simulation engine (the CSIM-18 role);
//! * [`trace`] — SWF-subset trace I/O and the synthetic DAS1 log;
//! * [`workload`] — DAS-s-128 / DAS-s-64 / DAS-t-900 distributions,
//!   request splitting, arrivals, routing;
//! * [`core`] — the multicluster system, the GS/LS/LP/SC policies,
//!   Worst-Fit placement, metrics, sweeps, and saturation analysis;
//! * [`experiments`] — the harness that regenerates every table and
//!   figure of the paper (also exposed by the `coalloc-exp` binary).
//!
//! ## Quickstart
//!
//! ```
//! use coalloc::core::{PolicyKind, SimBuilder, SimConfig};
//!
//! // LS on the 4×32 DAS multicluster, component-size limit 16,
//! // offered gross utilization 0.4 (short run for the doctest).
//! let mut cfg = SimConfig::das(PolicyKind::Ls, 16, 0.4);
//! cfg.total_jobs = 2_000;
//! cfg.warmup_jobs = 200;
//! let out = SimBuilder::new(&cfg).run();
//! assert!(out.metrics.mean_response > 0.0);
//! assert!(!out.saturated);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub use coalloc_core as core;
pub use coalloc_trace as trace;
pub use coalloc_workload as workload;
pub use desim;

pub mod experiments;
pub mod scenario;
pub mod serve;
