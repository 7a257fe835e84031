//! The multicluster system (§2.2): `C` clusters of possibly different
//! sizes with identical processor service rates.

use crate::job::Placement;
use crate::placement::MAX_CLUSTERS;

/// A first-class description of a multicluster's shape: how many
/// clusters, and how many processors each has.
///
/// `SystemSpec` replaces the raw `Vec<u32>` capacity lists that used to
/// be threaded ad hoc through configs, policies, the auditor and the
/// CLI. It validates itself ([`SystemSpec::validate`]), knows its own
/// totals, renders itself (`4×32`, `72+32+32+32+32`), parses the CLI's
/// `--capacities a,b,c` syntax, and derives the capacity-proportional
/// queue routing a heterogeneous system wants.
#[derive(Clone, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct SystemSpec {
    capacities: Vec<u32>,
}

/// Why a [`SystemSpec`] (possibly combined with a component-size limit)
/// is unusable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SystemSpecError {
    /// The capacity list is empty.
    Empty,
    /// A cluster has zero processors.
    ZeroCapacity {
        /// Index of the offending cluster.
        cluster: usize,
    },
    /// More clusters than the placement bitmask supports.
    TooManyClusters {
        /// The requested cluster count.
        clusters: usize,
    },
    /// The workload's component-size limit exceeds the smallest cluster,
    /// so some components could never be placed there.
    LimitExceedsSmallestCluster {
        /// The component-size limit.
        limit: u32,
        /// The smallest cluster's capacity.
        min_capacity: u32,
    },
}

impl core::fmt::Display for SystemSpecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            SystemSpecError::Empty => write!(f, "a system needs at least one cluster"),
            SystemSpecError::ZeroCapacity { cluster } => {
                write!(f, "cluster {cluster} has zero capacity")
            }
            SystemSpecError::TooManyClusters { clusters } => {
                write!(f, "{clusters} clusters exceed the supported maximum of {MAX_CLUSTERS}")
            }
            SystemSpecError::LimitExceedsSmallestCluster { limit, min_capacity } => write!(
                f,
                "component-size limit {limit} exceeds the smallest cluster \
                 ({min_capacity} processors)"
            ),
        }
    }
}

impl std::error::Error for SystemSpecError {}

impl SystemSpec {
    /// Builds a spec from per-cluster capacities (not yet validated; see
    /// [`SystemSpec::validate`]).
    pub fn new(capacities: impl Into<Vec<u32>>) -> Self {
        SystemSpec { capacities: capacities.into() }
    }

    /// A homogeneous system: `clusters` clusters of `capacity` each.
    pub fn homogeneous(clusters: usize, capacity: u32) -> Self {
        SystemSpec { capacities: vec![capacity; clusters] }
    }

    /// The paper's simulated multicluster: 4 clusters of 32 processors.
    pub fn das_multicluster() -> Self {
        SystemSpec::homogeneous(4, 32)
    }

    /// The paper's single-cluster comparison system: 128 processors.
    pub fn das_single_cluster() -> Self {
        SystemSpec::new([128])
    }

    /// The real DAS-2 geometry: one 72-processor cluster plus four of 32.
    pub fn das2() -> Self {
        SystemSpec::new([72, 32, 32, 32, 32])
    }

    /// Parses the CLI's `--capacities a,b,c,...` syntax.
    pub fn parse(s: &str) -> Result<Self, String> {
        let capacities = s
            .split(',')
            .map(|part| {
                part.trim()
                    .parse::<u32>()
                    .map_err(|_| format!("bad capacity {part:?} in {s:?} (want e.g. 72,32,32)"))
            })
            .collect::<Result<Vec<u32>, String>>()?;
        let spec = SystemSpec::new(capacities);
        spec.validate().map_err(|e| e.to_string())?;
        Ok(spec)
    }

    /// Per-cluster capacities.
    pub fn capacities(&self) -> &[u32] {
        &self.capacities
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.capacities.len()
    }

    /// Total processors across all clusters.
    pub fn total_capacity(&self) -> u32 {
        self.capacities.iter().sum()
    }

    /// Capacity of the smallest cluster (0 for an empty spec).
    pub fn min_capacity(&self) -> u32 {
        self.capacities.iter().copied().min().unwrap_or(0)
    }

    /// Whether every cluster has the same capacity.
    pub fn is_homogeneous(&self) -> bool {
        self.capacities.windows(2).all(|w| w[0] == w[1])
    }

    /// Checks the spec is usable: at least one cluster, no zero-capacity
    /// cluster, and no more clusters than placement supports.
    pub fn validate(&self) -> Result<(), SystemSpecError> {
        if self.capacities.is_empty() {
            return Err(SystemSpecError::Empty);
        }
        if let Some(cluster) = self.capacities.iter().position(|&c| c == 0) {
            return Err(SystemSpecError::ZeroCapacity { cluster });
        }
        if self.capacities.len() > MAX_CLUSTERS {
            return Err(SystemSpecError::TooManyClusters { clusters: self.capacities.len() });
        }
        Ok(())
    }

    /// Checks a component-size limit against the smallest cluster: a
    /// component larger than its cluster can never be placed.
    pub fn validate_limit(&self, limit: u32) -> Result<(), SystemSpecError> {
        self.validate()?;
        if limit > self.min_capacity() {
            return Err(SystemSpecError::LimitExceedsSmallestCluster {
                limit,
                min_capacity: self.min_capacity(),
            });
        }
        Ok(())
    }

    /// The queue routing that loads each cluster in proportion to its
    /// capacity — the natural choice for heterogeneous systems (balanced
    /// routing would overload the small clusters).
    pub fn proportional_routing(&self) -> coalloc_workload::QueueRouting {
        let total = f64::from(self.total_capacity());
        let weights: Vec<f64> = self.capacities.iter().map(|&c| f64::from(c) / total).collect();
        coalloc_workload::QueueRouting::custom(&weights)
    }

    /// The offered gross utilization an arrival rate generates on this
    /// system under the given workload.
    pub fn offered_gross_utilization(
        &self,
        workload: &coalloc_workload::Workload,
        arrival_rate: f64,
    ) -> f64 {
        arrival_rate * workload.mean_gross_work() / f64::from(self.total_capacity())
    }
}

impl core::fmt::Display for SystemSpec {
    /// `4×32` for homogeneous systems, `72+32+32+32+32` otherwise.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.is_homogeneous() && !self.capacities.is_empty() {
            write!(f, "{}\u{d7}{}", self.capacities.len(), self.capacities[0])
        } else {
            let mut first = true;
            for &c in &self.capacities {
                if !first {
                    f.write_str("+")?;
                }
                write!(f, "{c}")?;
                first = false;
            }
            Ok(())
        }
    }
}

impl std::str::FromStr for SystemSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        SystemSpec::parse(s)
    }
}

/// The processors of a multicluster system. Processors are identical
/// and exclusively allocated (space sharing, §1): a job component
/// occupies its processors from start to departure.
///
/// Per cluster the system keeps its capacity, its usable idle count and
/// the processors an outage took offline; whatever is neither idle nor
/// offline is busy. The idle counts are one flat vector, so the
/// schedulers' fit checks ([`MultiCluster::idle_per_cluster`]) borrow a
/// slice instead of collecting a fresh `Vec` on every placement attempt.
#[derive(Clone, Debug)]
pub struct MultiCluster {
    /// Processors per cluster.
    capacity: Vec<u32>,
    /// Usable idle processors per cluster. Under an outage the offline
    /// share is not idle, so fit checks see only usable processors.
    idle: Vec<u32>,
    /// Processors currently offline per cluster (0 = healthy). Empty
    /// until the first fault touches the system, so fault-free runs pay
    /// nothing.
    outage: Vec<u32>,
}

impl MultiCluster {
    /// Builds a system from per-cluster capacities.
    ///
    /// # Panics
    /// Panics on an empty list or a cluster without processors.
    pub fn new(capacities: &[u32]) -> Self {
        assert!(!capacities.is_empty(), "a system needs at least one cluster");
        assert!(capacities.iter().all(|&c| c > 0), "a cluster needs at least one processor");
        MultiCluster {
            capacity: capacities.to_vec(),
            idle: capacities.to_vec(),
            outage: Vec::new(),
        }
    }

    /// Builds a system from a validated [`SystemSpec`].
    ///
    /// # Panics
    /// Panics with the spec's own error message if the spec is invalid.
    pub fn from_spec(spec: &SystemSpec) -> Self {
        if let Err(e) = spec.validate() {
            panic!("{e}");
        }
        MultiCluster::new(spec.capacities())
    }

    /// The paper's simulated multicluster: 4 clusters of 32 processors.
    pub fn das_multicluster() -> Self {
        MultiCluster::new(&[32, 32, 32, 32])
    }

    /// The paper's single-cluster comparison system: 128 processors.
    pub fn das_single_cluster() -> Self {
        MultiCluster::new(&[128])
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.capacity.len()
    }

    /// Total processors across all clusters.
    pub fn total_capacity(&self) -> u32 {
        self.capacity.iter().sum()
    }

    /// Total busy processors.
    pub fn total_busy(&self) -> u32 {
        (0..self.num_clusters()).map(|k| self.busy(k)).sum()
    }

    /// Processors of one cluster currently allocated.
    fn busy(&self, cluster: usize) -> u32 {
        self.effective_capacity(cluster) - self.idle[cluster]
    }

    /// Idle processors in each cluster, as a borrowed slice (no
    /// allocation; apply/release keep it). Offline processors are not
    /// idle: under an outage the entries are the *usable* idle counts.
    pub fn idle_per_cluster(&self) -> &[u32] {
        &self.idle
    }

    /// Idle *usable* processors in one cluster.
    pub fn idle(&self, cluster: usize) -> u32 {
        self.idle[cluster]
    }

    /// Capacity of one cluster.
    pub fn capacity(&self, cluster: usize) -> u32 {
        self.capacity[cluster]
    }

    /// Processors of one cluster currently offline (0 when healthy).
    fn outage_of(&self, cluster: usize) -> u32 {
        self.outage.get(cluster).copied().unwrap_or(0)
    }

    /// Usable capacity of one cluster: full capacity minus the outage.
    pub fn effective_capacity(&self, cluster: usize) -> u32 {
        self.capacity[cluster] - self.outage_of(cluster)
    }

    /// Total processors currently offline across all clusters.
    pub fn total_offline(&self) -> u32 {
        self.outage.iter().sum()
    }

    /// Whether the cluster is (fully or partially) down.
    pub fn is_degraded(&self, cluster: usize) -> bool {
        self.outage_of(cluster) > 0
    }

    /// Takes a cluster down to `remaining` usable processors (0 for a
    /// full outage). The cluster must be healthy and *empty* — the
    /// session kills every running component on it first.
    ///
    /// # Panics
    /// Panics if the cluster is already degraded, still has busy
    /// processors, or `remaining` is not below its capacity.
    pub fn set_down(&mut self, cluster: usize, remaining: u32) {
        let cap = self.capacity[cluster];
        assert!(!self.is_degraded(cluster), "cluster {cluster} is already down");
        assert_eq!(
            self.busy(cluster),
            0,
            "cluster {cluster} still has busy processors; kill its jobs first"
        );
        assert!(remaining < cap, "remaining {remaining} is not below capacity {cap}");
        if self.outage.is_empty() {
            self.outage = vec![0; self.capacity.len()];
        }
        self.outage[cluster] = cap - remaining;
        self.idle[cluster] = remaining;
    }

    /// Repairs a cluster back to full capacity.
    ///
    /// # Panics
    /// Panics if the cluster is not down.
    pub fn set_up(&mut self, cluster: usize) {
        let offline = self.outage_of(cluster);
        assert!(offline > 0, "cluster {cluster} is not down");
        self.outage[cluster] = 0;
        self.idle[cluster] += offline;
    }

    /// Applies a placement: allocates every component's processors.
    ///
    /// # Panics
    /// Panics if a component needs more processors than its cluster has
    /// usable and idle — placements must come from a fit check against
    /// the current state, so over-allocation is always a bug.
    pub fn apply(&mut self, placement: &Placement) {
        for &(cluster, procs) in placement.assignments() {
            let idle = &mut self.idle[cluster];
            assert!(
                procs <= *idle,
                "allocating {procs} processors on cluster {cluster} but only {idle} usable"
            );
            *idle -= procs;
        }
    }

    /// Undoes a placement: releases every component's processors.
    ///
    /// # Panics
    /// Panics if a component releases more processors than its cluster
    /// has busy.
    pub fn release(&mut self, placement: &Placement) {
        for &(cluster, procs) in placement.assignments() {
            let busy = self.busy(cluster);
            assert!(
                procs <= busy,
                "releasing {procs} processors on cluster {cluster} but only {busy} busy"
            );
            self.idle[cluster] += procs;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn das_geometries() {
        let mc = MultiCluster::das_multicluster();
        assert_eq!(mc.num_clusters(), 4);
        assert_eq!(mc.total_capacity(), 128);
        let sc = MultiCluster::das_single_cluster();
        assert_eq!(sc.num_clusters(), 1);
        assert_eq!(sc.total_capacity(), 128);
    }

    #[test]
    fn apply_and_release_roundtrip() {
        let mut mc = MultiCluster::das_multicluster();
        let p = Placement::new(vec![(0, 16), (2, 16), (3, 10)]);
        mc.apply(&p);
        assert_eq!(mc.total_busy(), 42);
        assert_eq!(mc.idle_per_cluster(), vec![16, 32, 16, 22]);
        mc.release(&p);
        assert_eq!(mc.total_busy(), 0);
    }

    #[test]
    fn heterogeneous_capacities() {
        // The DAS2 itself is 72+32+32+32+32; the model allows different
        // cluster sizes even though the paper simulates equal ones.
        let mc = MultiCluster::new(&[72, 32, 32, 32, 32]);
        assert_eq!(mc.total_capacity(), 200);
        assert_eq!(mc.capacity(0), 72);
        assert_eq!(mc.idle(0), 72);
    }

    #[test]
    #[should_panic(expected = "at least one cluster")]
    fn empty_system_rejected() {
        MultiCluster::new(&[]);
    }

    #[test]
    #[should_panic(expected = "a cluster needs at least one processor")]
    fn zero_capacity_rejected() {
        MultiCluster::new(&[32, 0]);
    }

    #[test]
    #[should_panic(expected = "allocating 13 processors on cluster 1 but only 12 usable")]
    fn over_allocation_panics() {
        let mut mc = MultiCluster::das_multicluster();
        mc.apply(&Placement::new(vec![(1, 20)]));
        mc.apply(&Placement::new(vec![(0, 4), (1, 13)]));
    }

    #[test]
    #[should_panic(expected = "releasing 9 processors on cluster 2 but only 8 busy")]
    fn over_release_panics() {
        let mut mc = MultiCluster::das_multicluster();
        mc.apply(&Placement::new(vec![(2, 8)]));
        mc.release(&Placement::new(vec![(2, 9)]));
    }

    #[test]
    #[should_panic(expected = "releasing 1 processors on cluster 0 but only 0 busy")]
    fn releasing_offline_processors_panics() {
        // Offline processors are neither idle nor busy: a degraded
        // cluster with nothing running has nothing to release.
        let mut mc = MultiCluster::das_multicluster();
        mc.set_down(0, 8);
        mc.release(&Placement::new(vec![(0, 1)]));
    }

    #[test]
    fn spec_accessors_and_das_geometries() {
        let das = SystemSpec::das_multicluster();
        assert_eq!(das.num_clusters(), 4);
        assert_eq!(das.total_capacity(), 128);
        assert_eq!(das.min_capacity(), 32);
        assert!(das.is_homogeneous());
        assert_eq!(das.capacities(), &[32, 32, 32, 32]);
        let das2 = SystemSpec::das2();
        assert_eq!(das2.total_capacity(), 200);
        assert!(!das2.is_homogeneous());
        assert_eq!(SystemSpec::das_single_cluster().num_clusters(), 1);
        let mc = MultiCluster::from_spec(&das2);
        assert_eq!(mc.total_capacity(), 200);
        assert_eq!(mc.capacity(0), 72);
    }

    #[test]
    fn spec_validation_rejects_empty() {
        assert_eq!(SystemSpec::new(Vec::new()).validate(), Err(SystemSpecError::Empty));
    }

    #[test]
    fn spec_validation_rejects_zero_capacity_clusters() {
        assert_eq!(
            SystemSpec::new([32, 0, 32]).validate(),
            Err(SystemSpecError::ZeroCapacity { cluster: 1 })
        );
    }

    #[test]
    fn spec_validation_rejects_too_many_clusters() {
        assert_eq!(
            SystemSpec::homogeneous(65, 1).validate(),
            Err(SystemSpecError::TooManyClusters { clusters: 65 })
        );
        assert_eq!(SystemSpec::homogeneous(64, 1).validate(), Ok(()));
    }

    #[test]
    fn spec_validation_rejects_limits_exceeding_the_smallest_cluster() {
        let spec = SystemSpec::new([8, 120]);
        assert_eq!(
            spec.validate_limit(16),
            Err(SystemSpecError::LimitExceedsSmallestCluster { limit: 16, min_capacity: 8 })
        );
        assert_eq!(spec.validate_limit(8), Ok(()));
        // Error messages carry the numbers a user needs.
        let msg = spec.validate_limit(16).unwrap_err().to_string();
        assert!(msg.contains("16") && msg.contains("smallest cluster"), "{msg}");
    }

    #[test]
    #[should_panic(expected = "zero capacity")]
    fn from_spec_panics_on_invalid_specs() {
        let _ = MultiCluster::from_spec(&SystemSpec::new([4, 0]));
    }

    #[test]
    fn spec_display_and_parse_roundtrip() {
        assert_eq!(SystemSpec::das_multicluster().to_string(), "4\u{d7}32");
        assert_eq!(SystemSpec::das2().to_string(), "72+32+32+32+32");
        assert_eq!(SystemSpec::parse("72,32, 32,32,32"), Ok(SystemSpec::das2()));
        assert!(SystemSpec::parse("72,x").is_err());
        assert!(SystemSpec::parse("").is_err());
        assert!(SystemSpec::parse("32,0").is_err(), "parse validates");
        let parsed: SystemSpec = "128".parse().expect("FromStr works");
        assert_eq!(parsed, SystemSpec::das_single_cluster());
    }

    #[test]
    fn set_down_and_up_track_effective_capacity() {
        let mut mc = MultiCluster::das_multicluster();
        mc.set_down(1, 0);
        assert!(mc.is_degraded(1));
        assert_eq!(mc.effective_capacity(1), 0);
        assert_eq!(mc.idle(1), 0);
        assert_eq!(mc.total_offline(), 32);
        assert_eq!(mc.idle_per_cluster(), vec![32, 0, 32, 32]);
        mc.set_up(1);
        assert!(!mc.is_degraded(1));
        assert_eq!(mc.idle(1), 32);
        assert_eq!(mc.total_offline(), 0);
    }

    #[test]
    fn partial_outage_leaves_remaining_processors_usable() {
        let mut mc = MultiCluster::das_multicluster();
        mc.set_down(2, 8);
        assert_eq!(mc.effective_capacity(2), 8);
        assert_eq!(mc.idle(2), 8);
        // Work fits within the remaining share, and releases cleanly.
        let p = Placement::new(vec![(2, 8)]);
        mc.apply(&p);
        assert_eq!(mc.idle(2), 0);
        assert_eq!(mc.total_busy(), 8);
        mc.release(&p);
        assert_eq!(mc.idle(2), 8);
        mc.set_up(2);
        assert_eq!(mc.idle(2), 32);
    }

    #[test]
    #[should_panic(expected = "only 8 usable")]
    fn apply_beyond_the_remaining_share_panics() {
        let mut mc = MultiCluster::das_multicluster();
        mc.set_down(2, 8);
        mc.apply(&Placement::new(vec![(2, 9)]));
    }

    #[test]
    #[should_panic(expected = "kill its jobs first")]
    fn set_down_requires_an_empty_cluster() {
        let mut mc = MultiCluster::das_multicluster();
        mc.apply(&Placement::new(vec![(0, 4)]));
        mc.set_down(0, 0);
    }

    #[test]
    #[should_panic(expected = "already down")]
    fn double_down_panics() {
        let mut mc = MultiCluster::das_multicluster();
        mc.set_down(0, 0);
        mc.set_down(0, 0);
    }

    #[test]
    #[should_panic(expected = "not down")]
    fn repairing_a_healthy_cluster_panics() {
        let mut mc = MultiCluster::das_multicluster();
        mc.set_up(3);
    }

    #[test]
    fn proportional_routing_matches_capacities() {
        let routing = SystemSpec::das2().proportional_routing();
        assert_eq!(routing.queues(), 5);
        let w = routing.shares();
        assert!((w[0] - 0.36).abs() < 1e-12, "{w:?}");
        assert!((w[1] - 0.16).abs() < 1e-12, "{w:?}");
    }
}
