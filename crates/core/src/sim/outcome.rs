//! What a run reports, and how started jobs occupy their processors.

use coalloc_workload::Workload;
use desim::Duration;

use super::network::NetworkSpec;
use crate::job::ActiveJob;
use crate::metrics::MetricsReport;

/// The outcome of one simulation run.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct SimOutcome {
    /// Policy label.
    pub policy: String,
    /// The offered gross utilization (from the arrival rate).
    pub offered_gross_utilization: f64,
    /// Everything measured in the observation window.
    pub metrics: MetricsReport,
    /// Arrivals generated.
    pub arrivals: u64,
    /// Jobs completed over the whole run.
    pub completed: u64,
    /// Jobs still waiting in queues when the run ended.
    pub residual_queued: usize,
    /// Jobs waiting at the instant the last arrival was generated — the
    /// backlog an ever-running system would carry.
    pub backlog_at_last_arrival: usize,
    /// Largest backlog seen during the run.
    pub peak_backlog: usize,
    /// Whether the run shows saturation: at the end of the arrival
    /// process a substantial fraction of all jobs was still waiting
    /// (queues grow without bound in steady state).
    pub saturated: bool,
    /// Final simulated time in seconds.
    pub end_time: f64,
    /// Raw response series (empty unless `record_series` was set).
    pub response_series: Vec<f64>,
}

/// How the wide-area extension enters a started job's occupancy.
///
/// `Faithful` is the paper's model and what every run uses unless
/// [`crate::sim::SimConfig::network`] selects `Network`. Test builds add
/// `DoubleExtension`, a seeded bug for mutation-testing the
/// [`crate::audit::InvariantAuditor`]: it lets the test suite prove the
/// auditor catches a mis-applied extension factor in the *full*
/// simulation loop, not a synthetic event stream.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum OccupancyModel {
    /// Base service × extension factor for the spanned clusters,
    /// applied exactly once (§2.4).
    Faithful,
    /// The extension factor applied twice to multi-cluster jobs (a
    /// seeded bug).
    #[cfg(test)]
    DoubleExtension,
    /// Load-dependent extension: multi-cluster jobs contend for the
    /// finite inter-cluster bandwidth of a [`NetworkSpec`], so the
    /// achieved extension grows with the number of concurrent flows.
    /// An infinite-capacity spec reproduces `Faithful` bit for bit.
    Network(NetworkSpec),
}

impl OccupancyModel {
    /// The *nominal* occupancy a started job is initially scheduled
    /// with. `Network` starts every flow at full share (stretch = the
    /// nominal factor) and only reschedules when contention actually
    /// changes the stretch, so its nominal occupancy is the faithful
    /// one.
    pub(crate) fn occupancy(self, job: &ActiveJob, workload: &Workload) -> Duration {
        let faithful = job.occupancy_in(workload);
        match self {
            OccupancyModel::Faithful | OccupancyModel::Network(_) => faithful,
            #[cfg(test)]
            OccupancyModel::DoubleExtension => {
                let span = job.placement.as_ref().map_or(1, |p| p.assignments().len());
                faithful.scaled(workload.extension_factor(span))
            }
        }
    }

    /// The network spec, when this model carries one.
    pub(crate) fn network(self) -> Option<NetworkSpec> {
        match self {
            OccupancyModel::Network(spec) => Some(spec),
            _ => None,
        }
    }
}
