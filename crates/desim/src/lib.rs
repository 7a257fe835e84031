//! # desim — a deterministic discrete-event simulation engine
//!
//! This crate is the simulation substrate for the `coalloc` workspace, the
//! role played by the commercial CSIM-18 package in Bucur & Epema's HPDC'03
//! study of processor co-allocation. It provides:
//!
//! * a simulated clock and a future-event list ([`Simulation`]) over a
//!   binary-heap calendar ([`HeapCalendar`]) with `O(1)` cancellation;
//! * reproducible, independently seedable random streams ([`RngStream`]);
//! * the variate generators a trace-driven queueing study needs
//!   ([`Exponential`], [`EmpiricalDiscrete`], [`EmpiricalContinuous`], …);
//! * output analysis: streaming moments, time-weighted averages,
//!   histograms, batch-means confidence intervals ([`stats`]), MSER
//!   warm-up truncation and sequential stopping rules;
//! * closed-form queueing results (M/M/1, M/M/c, M/D/1) that the
//!   simulator is validated against ([`queueing`]).
//!
//! Determinism is a design rule: every source of randomness is an explicit
//! [`RngStream`], event ties break FIFO by schedule order, and no global
//! state exists, so a run is a pure function of its configuration and seed.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod calendar;
pub mod dist;
pub mod engine;
pub mod event;
pub mod ks;
pub mod quantile;
pub mod queueing;
pub mod rng;
pub mod stats;
pub mod stopping;
pub mod time;
pub mod warmup;

pub use calendar::{EventCalendar, HeapCalendar};
pub use dist::{
    Deterministic, EmpiricalContinuous, EmpiricalDiscrete, Erlang, Exponential, HyperExponential,
    Variate,
};
pub use engine::Simulation;
pub use event::{Event, EventId};
pub use ks::{ks_critical, ks_same_distribution, ks_statistic};
pub use quantile::P2Quantile;
pub use rng::RngStream;
pub use stats::{BatchMeans, Estimate, Histogram, TimeWeighted, Welford};
pub use stopping::{Decision, StopReason, StoppingRule};
pub use time::{Duration, SimTime};
pub use warmup::{autocorrelation, mser, mser5, MserResult};
