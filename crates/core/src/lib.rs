//! # coalloc-core — trace-based simulation of processor co-allocation
//! policies in multiclusters
//!
//! A faithful reimplementation of the simulator behind Bucur & Epema,
//! *Trace-Based Simulations of Processor Co-Allocation Policies in
//! Multiclusters* (HPDC 2003): rigid jobs, space sharing, unordered
//! requests placed Worst-Fit on distinct clusters, and the GS / LS / LP
//! multicluster scheduling policies compared against single-cluster FCFS
//! (SC).
//!
//! Start with [`SimConfig::das`] and [`SimBuilder`] for a single run
//! (`SimBuilder::new(&cfg).run()`), [`SystemSpec`] +
//! [`SimConfig::heterogeneous`] for non-DAS cluster geometries, or
//! [`experiment`] for the response-time-vs-utilization sweeps behind the
//! paper's figures and [`saturation`] for the maximal-utilization
//! measurements behind Table 3.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod analysis;
pub mod audit;
pub mod error;
pub mod experiment;
pub mod fault;
pub mod feed;
pub mod job;
pub mod metrics;
pub mod placement;
pub mod policy;
pub mod queue;
pub mod report;
pub mod saturation;
pub mod sim;
pub mod system;

pub use analysis::{
    fits_after, identical_jobs_max_utilization, max_identical_packing, packing_report,
    packing_rows, residual_idle, self_compatible, PackingRow,
};
pub use audit::{
    EventRecord, Interruption, InvariantAuditor, JsonlSink, NullObserver, PassTrigger,
    PlacementDecision, PlacementScope, Resize, SimObserver, Tee, Violation, ViolationKind,
};
pub use error::{CoallocError, ConfigError};
pub use experiment::{
    point_digest, replication_seed, sweep, sweep_digest, sweep_on, sweep_on_cancellable,
    CancelReason, CancelToken, FailedReplication, RecoveryReport, ReplicatedOutcome, ResultStore,
    RoundReport, ScenarioCache, SweepCheckpoint, SweepConfig, SweepPoint, SweepStats, WorkerPool,
    CHECKPOINT_VERSION,
};
pub use fault::{FaultEvent, FaultKind, FaultSpec, FaultTrace, InterruptPolicy, ResizePolicy};
pub use feed::{BacklogFeed, JobFeed, StochasticFeed, TraceFeed};
pub use job::{ActiveJob, JobId, JobTable, Placement, SubmitQueue};
pub use metrics::{Metrics, MetricsReport};
pub use placement::{
    place_flexible, place_on_cluster, place_ordered, place_request, place_scoped, place_unordered,
    PlacementRule,
};
pub use policy::{
    GlobalBackfill, GlobalScheduler, LocalPriority, LocalSchedulers, PolicyKind, PolicyOptions,
    Scheduler,
};
pub use queue::QueueDiscipline;
pub use saturation::{
    bisect_max_utilization, maximal_utilization, BisectionError, ProbePlan, SaturationConfig,
    SaturationResult,
};
pub use sim::{NetworkSpec, NetworkTopology, SimBuilder, SimConfig, SimOutcome, Warmup};
pub use system::{MultiCluster, SystemSpec, SystemSpecError};
