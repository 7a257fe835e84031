//! Component placement (§2.3).
//!
//! "To determine whether an unordered request fits, we try to schedule its
//! components in decreasing order of their sizes on distinct clusters. We
//! use Worst Fit (WF) to place the components on clusters."
//!
//! Worst Fit is the paper's rule; Best Fit and First Fit are provided as
//! ablation alternatives (see the placement bench and DESIGN.md).

use crate::audit::PlacementScope;
use crate::job::Placement;

/// How a component picks among the clusters it fits on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum PlacementRule {
    /// Pick the cluster with the *most* idle processors (the paper).
    WorstFit,
    /// Pick the cluster with the *fewest* idle processors that still fits.
    BestFit,
    /// Pick the lowest-numbered cluster that fits.
    FirstFit,
}

/// The largest system [`place_unordered`] supports: the already-used
/// clusters of an attempt are tracked in a `u64` bitmask so a *failed*
/// fit check touches no heap memory at all (fit checks dominate the
/// scheduling pass under load).
pub const MAX_CLUSTERS: usize = 64;

impl PlacementRule {
    /// Chooses a cluster index for a component of `size` among clusters
    /// whose current idle counts are `idle`, excluding clusters whose
    /// bit is set in `used`. Ties break to the lowest index.
    fn choose(self, idle: &[u32], used: u64, size: u32) -> Option<usize> {
        let mut best: Option<(usize, u32)> = None;
        for (i, &free) in idle.iter().enumerate() {
            if used & (1 << i) != 0 || free < size {
                continue;
            }
            match self {
                PlacementRule::FirstFit => return Some(i),
                PlacementRule::WorstFit => {
                    if best.is_none_or(|(_, b)| free > b) {
                        best = Some((i, free));
                    }
                }
                PlacementRule::BestFit => {
                    if best.is_none_or(|(_, b)| free < b) {
                        best = Some((i, free));
                    }
                }
            }
        }
        best.map(|(i, _)| i)
    }
}

/// Attempts to place an unordered request: components (given non-
/// increasing) go to *distinct* clusters, greedily in size order, each
/// choosing its cluster by `rule`. Returns `None` if some component finds
/// no cluster — the request does not fit now.
///
/// `idle` is the current idle count of every cluster; it is not modified.
///
/// ```
/// use coalloc_core::{place_unordered, PlacementRule};
/// let idle = [10, 30, 20, 5];
/// let p = place_unordered(&idle, &[16, 8], PlacementRule::WorstFit).unwrap();
/// // Worst Fit: the 16 goes to the emptiest cluster (1), the 8 to the next (2).
/// assert_eq!(p.assignments(), &[(1, 16), (2, 8)]);
/// assert!(place_unordered(&idle, &[25, 25], PlacementRule::WorstFit).is_none());
/// ```
pub fn place_unordered(idle: &[u32], components: &[u32], rule: PlacementRule) -> Option<Placement> {
    debug_assert!(
        components.windows(2).all(|w| w[0] >= w[1]),
        "components must be non-increasing: {components:?}"
    );
    assert!(
        components.len() <= idle.len(),
        "{} components cannot go to {} distinct clusters",
        components.len(),
        idle.len()
    );
    assert!(idle.len() <= MAX_CLUSTERS, "at most {MAX_CLUSTERS} clusters supported");
    // Stack-only placement: the chosen assignments live in a fixed
    // array and the distinctness constraint in a bitmask, so neither a
    // failed attempt nor a paper-scale success touches the heap — the
    // resulting `Placement` stores small assignment lists inline.
    let mut pairs = [(0usize, 0u32); MAX_CLUSTERS];
    if rule == PlacementRule::WorstFit && components.len() > 1 {
        // Worst Fit fast path. `idle` is not decremented between
        // components (distinctness is the only coupling), so greedy WF
        // pairs the j-th largest component with the j-th cluster in
        // (idle desc, index asc) order; the attempt fails iff some
        // component outgrows its cluster in that pairing. One partial
        // selection sort replaces a full cluster scan per component.
        let m = components.len();
        let mut order = [0u8; MAX_CLUSTERS];
        for (slot, o) in order.iter_mut().enumerate().take(idle.len()) {
            *o = slot as u8;
        }
        for j in 0..m {
            let mut best = j;
            for i in j + 1..idle.len() {
                let (c, b) = (order[i] as usize, order[best] as usize);
                // Ties break to the lowest cluster index, as in `choose`
                // (earlier swaps scramble the scan order, so position
                // order alone does not give that).
                if idle[c] > idle[b] || (idle[c] == idle[b] && c < b) {
                    best = i;
                }
            }
            order.swap(j, best);
            let cluster = order[j] as usize;
            if idle[cluster] < components[j] {
                return None;
            }
            pairs[j] = (cluster, components[j]);
        }
        return Some(Placement::from_slice(&pairs[..m]));
    }
    let mut used: u64 = 0;
    for (slot, &comp) in components.iter().enumerate() {
        let cluster = rule.choose(idle, used, comp)?;
        used |= 1 << cluster;
        pairs[slot] = (cluster, comp);
    }
    Some(Placement::from_slice(&pairs[..components.len()]))
}

/// Attempts to place a single-component job on one *specific* cluster
/// (LS restricts single-component jobs to their local cluster, §2.5).
pub fn place_on_cluster(idle: &[u32], cluster: usize, size: u32) -> Option<Placement> {
    if idle[cluster] >= size {
        Some(Placement::from_slice(&[(cluster, size)]))
    } else {
        None
    }
}

/// Attempts to place an *ordered* request: `components[i]` must run on
/// cluster `targets[i]` — the scheduler has no freedom (the JSSPP
/// request-taxonomy extension).
pub fn place_ordered(idle: &[u32], components: &[u32], targets: &[usize]) -> Option<Placement> {
    assert_eq!(components.len(), targets.len(), "one target per component");
    for (&comp, &t) in components.iter().zip(targets) {
        assert!(t < idle.len(), "target cluster {t} does not exist");
        if idle[t] < comp {
            return None;
        }
    }
    Some(Placement::new(components.iter().zip(targets).map(|(&c, &t)| (t, c)).collect()))
}

/// Attempts to place a *flexible* request for `total` processors: the
/// scheduler splits the total over the clusters' idle processors, taking
/// chunks from clusters in the preference order of `rule` (Worst Fit:
/// emptiest first). Fits whenever the system-wide idle count suffices —
/// flexible requests never suffer multicluster fragmentation.
pub fn place_flexible(idle: &[u32], total: u32, rule: PlacementRule) -> Option<Placement> {
    assert!(total > 0, "a request needs at least one processor");
    if idle.iter().map(|&x| u64::from(x)).sum::<u64>() < u64::from(total) {
        return None;
    }
    let mut order: Vec<usize> = (0..idle.len()).filter(|&i| idle[i] > 0).collect();
    match rule {
        PlacementRule::WorstFit => order.sort_by_key(|&i| (std::cmp::Reverse(idle[i]), i)),
        PlacementRule::BestFit => order.sort_by_key(|&i| (idle[i], i)),
        PlacementRule::FirstFit => {}
    }
    let mut remaining = total;
    let mut assignments = Vec::new();
    for i in order {
        if remaining == 0 {
            break;
        }
        let take = idle[i].min(remaining);
        assignments.push((i, take));
        remaining -= take;
    }
    debug_assert_eq!(remaining, 0, "total idle was checked above");
    Some(Placement::new(assignments))
}

/// Places any request according to its structure: the single dispatch
/// point policies use.
pub fn place_request(
    idle: &[u32],
    request: &coalloc_workload::JobRequest,
    rule: PlacementRule,
) -> Option<Placement> {
    use coalloc_workload::RequestKind;
    match request.kind() {
        RequestKind::Unordered | RequestKind::Total => {
            place_unordered(idle, request.components(), rule)
        }
        RequestKind::Ordered => place_ordered(
            idle,
            request.components(),
            request.targets().expect("ordered requests carry targets"),
        ),
        RequestKind::Flexible => place_flexible(idle, request.total(), rule),
    }
}

/// Places a request within a [`PlacementScope`]: system-wide via
/// [`place_request`], or restricted to one cluster via
/// [`place_on_cluster`] (how LS/LP treat single-component jobs). This
/// is the function the policies *and* the invariant auditor share, so
/// the auditor recomputes decisions with exactly the production code
/// path.
pub fn place_scoped(
    idle: &[u32],
    request: &coalloc_workload::JobRequest,
    scope: PlacementScope,
    rule: PlacementRule,
) -> Option<Placement> {
    match scope {
        PlacementScope::System => place_request(idle, request, rule),
        PlacementScope::Cluster(c) => place_on_cluster(idle, c, request.total()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worst_fit_prefers_emptiest() {
        let idle = [10, 30, 20, 5];
        let p = place_unordered(&idle, &[8], PlacementRule::WorstFit).expect("fits");
        assert_eq!(p.assignments(), &[(1, 8)]);
    }

    #[test]
    fn best_fit_prefers_fullest_that_fits() {
        let idle = [10, 30, 20, 5];
        let p = place_unordered(&idle, &[8], PlacementRule::BestFit).expect("fits");
        assert_eq!(p.assignments(), &[(0, 8)]);
    }

    #[test]
    fn first_fit_takes_lowest_index() {
        let idle = [10, 30, 20, 5];
        let p = place_unordered(&idle, &[8], PlacementRule::FirstFit).expect("fits");
        assert_eq!(p.assignments(), &[(0, 8)]);
    }

    #[test]
    fn components_go_to_distinct_clusters() {
        let idle = [32, 32, 32, 32];
        let p = place_unordered(&idle, &[16, 16, 16, 16], PlacementRule::WorstFit).expect("fits");
        let mut clusters: Vec<usize> = p.assignments().iter().map(|&(c, _)| c).collect();
        clusters.sort_unstable();
        assert_eq!(clusters, vec![0, 1, 2, 3]);
    }

    #[test]
    fn fails_when_any_component_has_no_cluster() {
        let idle = [20, 20, 20, 20];
        // (22, 21, 21) cannot fit anywhere.
        assert!(place_unordered(&idle, &[22, 21, 21], PlacementRule::WorstFit).is_none());
        // Two components of 20 fit, three do not once clusters are distinct.
        let idle2 = [20, 20, 5, 5];
        assert!(place_unordered(&idle2, &[20, 20], PlacementRule::WorstFit).is_some());
        assert!(place_unordered(&idle2, &[20, 20, 20], PlacementRule::WorstFit).is_none());
    }

    #[test]
    fn paper_packing_pathology_limit_24() {
        // §3.3: after placing (22,21,21) in an empty 4×32 system the idle
        // vector is (10,11,11,32); a second size-64 job split as
        // (22,21,21) does not fit, while (16,16,16,16) and (32,32) would.
        let mut idle = [32u32, 32, 32, 32];
        let p = place_unordered(&idle, &[22, 21, 21], PlacementRule::WorstFit).expect("fits");
        for &(c, n) in p.assignments() {
            idle[c] -= n;
        }
        let mut sorted = idle;
        sorted.sort_unstable();
        assert_eq!(sorted, [10, 11, 11, 32]);
        assert!(place_unordered(&idle, &[22, 21, 21], PlacementRule::WorstFit).is_none());
        // Under limit 16 the second job *would* fit in the 16-split world:
        let mut idle16 = [32u32, 32, 32, 32];
        let p16 =
            place_unordered(&idle16, &[16, 16, 16, 16], PlacementRule::WorstFit).expect("fits");
        for &(c, n) in p16.assignments() {
            idle16[c] -= n;
        }
        assert!(place_unordered(&idle16, &[16, 16, 16, 16], PlacementRule::WorstFit).is_some());
    }

    #[test]
    fn worst_fit_ties_break_low_index() {
        let idle = [32, 32, 32, 32];
        let p = place_unordered(&idle, &[8, 8], PlacementRule::WorstFit).expect("fits");
        assert_eq!(p.assignments(), &[(0, 8), (1, 8)]);
    }

    #[test]
    fn place_on_cluster_respects_target() {
        let idle = [10, 2, 30, 30];
        assert!(place_on_cluster(&idle, 1, 8).is_none());
        let p = place_on_cluster(&idle, 0, 8).expect("fits");
        assert_eq!(p.assignments(), &[(0, 8)]);
    }

    #[test]
    #[should_panic(expected = "distinct clusters")]
    fn too_many_components_panics() {
        place_unordered(&[32, 32], &[8, 8, 8], PlacementRule::WorstFit);
    }
}

#[cfg(test)]
mod request_kind_tests {
    use super::*;
    use coalloc_workload::JobRequest;

    #[test]
    fn ordered_requires_exact_targets() {
        let idle = [32, 5, 32, 32];
        assert!(place_ordered(&idle, &[16, 16], &[0, 2]).is_some());
        // Cluster 1 has only 5 idle; ordered cannot re-route.
        assert!(place_ordered(&idle, &[16, 16], &[0, 1]).is_none());
        // The unordered version of the same request fits fine.
        assert!(place_unordered(&idle, &[16, 16], PlacementRule::WorstFit).is_some());
    }

    #[test]
    fn ordered_placement_lands_on_targets() {
        let p = place_ordered(&[32, 32, 32, 32], &[8, 4], &[3, 1]).expect("fits");
        assert_eq!(p.assignments(), &[(3, 8), (1, 4)]);
    }

    #[test]
    fn flexible_fits_whenever_total_idle_suffices() {
        // (22,21,21) unordered does not fit in (20,20,20,4), but a
        // flexible request for 64 does: 64 <= 20+20+20+4.
        let idle = [20, 20, 20, 4];
        assert!(place_unordered(&idle, &[22, 21, 21], PlacementRule::WorstFit).is_none());
        let p = place_flexible(&idle, 64, PlacementRule::WorstFit).expect("fits");
        assert_eq!(p.total(), 64);
        assert_eq!(p.assignments(), &[(0, 20), (1, 20), (2, 20), (3, 4)]);
    }

    #[test]
    fn flexible_worst_fit_prefers_emptiest() {
        let idle = [5, 30, 10, 0];
        let p = place_flexible(&idle, 8, PlacementRule::WorstFit).expect("fits");
        assert_eq!(p.assignments(), &[(1, 8)], "whole chunk from the emptiest cluster");
        let p = place_flexible(&idle, 35, PlacementRule::WorstFit).expect("fits");
        assert_eq!(p.assignments(), &[(1, 30), (2, 5)]);
    }

    #[test]
    fn flexible_best_and_first_fit_orders() {
        let idle = [5, 30, 10, 2];
        let p = place_flexible(&idle, 7, PlacementRule::BestFit).expect("fits");
        assert_eq!(p.assignments(), &[(3, 2), (0, 5)], "fullest-first consumes fragments");
        let p = place_flexible(&idle, 7, PlacementRule::FirstFit).expect("fits");
        assert_eq!(p.assignments(), &[(0, 5), (1, 2)]);
    }

    #[test]
    fn flexible_insufficient_idle_fails() {
        assert!(place_flexible(&[3, 3], 7, PlacementRule::WorstFit).is_none());
    }

    #[test]
    fn dispatch_follows_request_kind() {
        let idle = [20, 20, 20, 4];
        let unordered = JobRequest::from_total(64, 24, 4); // (22,21,21)
        assert!(place_request(&idle, &unordered, PlacementRule::WorstFit).is_none());
        let flexible = JobRequest::flexible(64, 24, 4);
        assert!(place_request(&idle, &flexible, PlacementRule::WorstFit).is_some());
        let ordered = JobRequest::ordered(vec![20, 20], vec![0, 1]);
        let p = place_request(&idle, &ordered, PlacementRule::WorstFit).expect("fits");
        assert_eq!(p.assignments(), &[(0, 20), (1, 20)]);
        let total = JobRequest::total_request(20);
        assert!(place_request(&idle, &total, PlacementRule::WorstFit).is_some());
    }
}
