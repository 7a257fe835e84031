//! Job requests (§2.3): unordered tuples of component sizes, plus the
//! analytic component-count fractions behind the paper's Table 2.
//!
//! Besides the paper's **unordered** requests (and the single-cluster
//! **total** requests), the request-structure taxonomy of the authors'
//! earlier JSSPP studies ([6, 7] in the paper) is implemented as an
//! extension: **ordered** requests pin every component to a specific
//! cluster, and **flexible** requests let the scheduler split the total
//! over the clusters any way it likes.

use crate::jobsize::JobSizeDist;
use crate::split::component_count;

/// The structure of a co-allocation request (the taxonomy of the
/// authors' JSSPP'00/'01 studies; the HPDC'03 paper evaluates
/// `Unordered` against single-cluster `Total`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum RequestKind {
    /// Component sizes only; the scheduler picks distinct clusters.
    Unordered,
    /// Every component names its cluster (users choose, e.g. for data
    /// locality); the scheduler has no placement freedom.
    Ordered,
    /// Only the total matters; the scheduler may split it arbitrarily
    /// over the clusters' idle processors.
    Flexible,
    /// One component on one cluster (the SC baseline's requests).
    Total,
}

/// Requests of up to this many components store them inline — every
/// configuration in the paper (≤ 5 clusters) samples jobs without
/// touching the heap, which the simulator's hot arrival path relies on.
const INLINE_COMPONENTS: usize = 8;

/// Component sizes with inline storage for small tuples and a heap
/// spill for systems of more than [`INLINE_COMPONENTS`] clusters.
/// Equality and serialization see only the logical slice, so the two
/// storage forms are indistinguishable (serialized as a plain sequence,
/// exactly like the `Vec<u32>` it replaced).
#[derive(Clone, Debug)]
enum Components {
    Inline { len: u8, buf: [u32; INLINE_COMPONENTS] },
    Heap(Vec<u32>),
}

impl Components {
    fn from_vec(v: Vec<u32>) -> Self {
        if v.len() <= INLINE_COMPONENTS {
            let mut buf = [0u32; INLINE_COMPONENTS];
            buf[..v.len()].copy_from_slice(&v);
            Components::Inline { len: v.len() as u8, buf }
        } else {
            Components::Heap(v)
        }
    }

    /// The split of `total` into `n` non-increasing parts (the layout of
    /// [`crate::split::split_evenly`]), built without an allocation when
    /// it fits inline.
    fn from_even_split(total: u32, n: usize) -> Self {
        if n <= INLINE_COMPONENTS {
            assert!(total as usize >= n, "cannot split {total} into {n} non-empty components");
            let base = total / n as u32;
            let rem = (total % n as u32) as usize;
            let mut buf = [0u32; INLINE_COMPONENTS];
            for (i, slot) in buf[..n].iter_mut().enumerate() {
                *slot = base + u32::from(i < rem);
            }
            Components::Inline { len: n as u8, buf }
        } else {
            Components::Heap(crate::split::split_evenly(total, n))
        }
    }

    fn as_slice(&self) -> &[u32] {
        match self {
            Components::Inline { len, buf } => &buf[..usize::from(*len)],
            Components::Heap(v) => v,
        }
    }
}

impl PartialEq for Components {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Components {}

impl serde::Serialize for Components {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl serde::Deserialize for Components {
    fn from_value(v: &serde::value::Value) -> Result<Self, serde::value::Error> {
        Vec::<u32>::from_value(v).map(Components::from_vec)
    }
}

/// A co-allocation request: component sizes plus the request structure.
///
/// For `Unordered`, `Flexible` and `Total` requests the components are
/// kept in non-increasing order (the placement order of §2.3); for
/// `Ordered` requests the tuple order is the cluster assignment and is
/// preserved, with [`JobRequest::targets`] naming each component's
/// cluster.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct JobRequest {
    components: Components,
    /// For `Ordered`: the cluster index of each component.
    targets: Option<Vec<usize>>,
    kind: RequestKind,
    /// User-supplied runtime estimate in seconds (trace-derived or set by
    /// the harness), consumed by the backfilling disciplines. `None` means
    /// no estimate was submitted; schedulers fall back to a multiplier on
    /// the base service time.
    estimate: Option<f64>,
}

// Estimates are finite by construction (validated in `with_estimate`),
// so float equality is total here, as for `Components` above.
impl Eq for JobRequest {}

impl JobRequest {
    /// Builds an unordered request from component sizes (sorted
    /// internally).
    ///
    /// # Panics
    /// Panics on an empty component list or a zero-size component.
    pub fn new(mut components: Vec<u32>) -> Self {
        assert!(!components.is_empty(), "a request needs at least one component");
        assert!(components.iter().all(|&c| c > 0), "components must be positive");
        components.sort_unstable_by(|a, b| b.cmp(a));
        JobRequest {
            components: Components::from_vec(components),
            targets: None,
            kind: RequestKind::Unordered,
            estimate: None,
        }
    }

    /// Builds the unordered request for a job of `total` processors under
    /// the given component-size limit on `clusters` clusters. This is the
    /// sampling hot path: the even split is written straight into the
    /// inline buffer (already non-increasing by construction), so no heap
    /// allocation happens for paper-scale systems.
    pub fn from_total(total: u32, limit: u32, clusters: usize) -> Self {
        JobRequest {
            components: Components::from_even_split(total, component_count(total, limit, clusters)),
            targets: None,
            kind: RequestKind::Unordered,
            estimate: None,
        }
    }

    /// A single-component (total) request.
    pub fn total_request(total: u32) -> Self {
        assert!(total > 0, "a request needs at least one processor");
        JobRequest {
            components: Components::from_even_split(total, 1),
            targets: None,
            kind: RequestKind::Total,
            estimate: None,
        }
    }

    /// Builds an ordered request: `components[i]` must run on cluster
    /// `targets[i]`.
    ///
    /// # Panics
    /// Panics on length mismatch, empty/zero components, or duplicate
    /// target clusters.
    pub fn ordered(components: Vec<u32>, targets: Vec<usize>) -> Self {
        assert_eq!(components.len(), targets.len(), "one target cluster per component");
        assert!(!components.is_empty(), "a request needs at least one component");
        assert!(components.iter().all(|&c| c > 0), "components must be positive");
        let mut t = targets.clone();
        t.sort_unstable();
        let before = t.len();
        t.dedup();
        assert_eq!(before, t.len(), "ordered components must name distinct clusters");
        JobRequest {
            components: Components::from_vec(components),
            targets: Some(targets),
            kind: RequestKind::Ordered,
            estimate: None,
        }
    }

    /// Builds a flexible request for `total` processors. The `limit` and
    /// `clusters` pre-split is kept only for classification (routing,
    /// offered-load accounting); the scheduler repacks at placement time.
    pub fn flexible(total: u32, limit: u32, clusters: usize) -> Self {
        JobRequest {
            components: Components::from_even_split(total, component_count(total, limit, clusters)),
            targets: None,
            kind: RequestKind::Flexible,
            estimate: None,
        }
    }

    /// The request structure.
    pub fn kind(&self) -> RequestKind {
        self.kind
    }

    /// Component sizes: non-increasing, except for `Ordered` requests
    /// where the order matches [`JobRequest::targets`].
    pub fn components(&self) -> &[u32] {
        self.components.as_slice()
    }

    /// For `Ordered` requests, the cluster index of each component.
    pub fn targets(&self) -> Option<&[usize]> {
        self.targets.as_deref()
    }

    /// Total processors requested.
    pub fn total(&self) -> u32 {
        self.components.as_slice().iter().sum()
    }

    /// Number of components.
    pub fn num_components(&self) -> usize {
        self.components.as_slice().len()
    }

    /// Whether the job is classified multi-component (for routing and
    /// offered-load accounting). The *actual* wide-area extension is
    /// decided by the placement a job receives — relevant for `Flexible`
    /// requests, which may end up in a single cluster.
    pub fn is_multi(&self) -> bool {
        self.components.as_slice().len() > 1
    }

    /// The largest component.
    pub fn max_component(&self) -> u32 {
        *self.components.as_slice().iter().max().expect("non-empty")
    }

    /// The submitted runtime estimate in seconds, if any.
    pub fn estimate(&self) -> Option<f64> {
        self.estimate
    }

    /// Returns this request carrying the given runtime estimate.
    ///
    /// # Panics
    /// Panics on a non-finite or non-positive estimate.
    pub fn with_estimate(mut self, estimate: f64) -> Self {
        assert!(estimate.is_finite() && estimate > 0.0, "estimate must be finite and positive");
        self.estimate = Some(estimate);
        self
    }

    /// Returns this request re-split into the given component layout,
    /// preserving the kind and estimate — the adoption step of the
    /// moldable disposition (targets make no sense for a re-split, so
    /// this is restricted to unadorned unordered requests).
    ///
    /// # Panics
    /// Panics when the new layout's total differs from the original, or
    /// on an `Ordered` request.
    pub fn resplit_even(&self, n: usize) -> Self {
        assert!(self.targets.is_none(), "ordered requests cannot be re-split");
        assert!(n > 0, "a request needs at least one component");
        JobRequest {
            components: Components::from_even_split(self.total(), n),
            targets: None,
            kind: self.kind,
            estimate: self.estimate,
        }
    }
}

impl core::fmt::Display for JobRequest {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self.kind {
            RequestKind::Flexible => write!(f, "flex({})", self.total()),
            RequestKind::Ordered => {
                write!(f, "[")?;
                let targets = self.targets.as_ref().expect("ordered has targets");
                for (i, (c, t)) in self.components.as_slice().iter().zip(targets).enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{c}@{t}")?;
                }
                write!(f, "]")
            }
            _ => {
                write!(f, "(")?;
                for (i, c) in self.components.as_slice().iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// The fractions of jobs having 1..=`clusters` components under the given
/// size distribution and component-size limit — the paper's **Table 2**,
/// computed exactly from the distribution rather than by sampling.
pub fn component_count_fractions(dist: &JobSizeDist, limit: u32, clusters: usize) -> Vec<f64> {
    let mut fractions = vec![0.0f64; clusters];
    for (size, p) in dist.support() {
        let n = component_count(size, limit, clusters);
        fractions[n - 1] += p;
    }
    fractions
}

/// The fraction of jobs that become multi-component under the given limit
/// (the complement of Table 2's single-component column).
pub fn multi_component_fraction(dist: &JobSizeDist, limit: u32, clusters: usize) -> f64 {
    1.0 - component_count_fractions(dist, limit, clusters)[0]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_normalizes_order() {
        let r = JobRequest::new(vec![3, 9, 6]);
        assert_eq!(r.components(), &[9, 6, 3]);
        assert_eq!(r.total(), 18);
        assert_eq!(r.num_components(), 3);
        assert!(r.is_multi());
        assert_eq!(r.max_component(), 9);
        assert_eq!(format!("{r}"), "(9,6,3)");
    }

    #[test]
    fn total_request_is_single() {
        let r = JobRequest::total_request(64);
        assert!(!r.is_multi());
        assert_eq!(r.total(), 64);
    }

    #[test]
    fn from_total_matches_paper_example() {
        assert_eq!(JobRequest::from_total(64, 16, 4).components(), &[16, 16, 16, 16]);
        assert_eq!(JobRequest::from_total(64, 24, 4).components(), &[22, 21, 21]);
        assert_eq!(JobRequest::from_total(64, 32, 4).components(), &[32, 32]);
    }

    #[test]
    #[should_panic(expected = "at least one component")]
    fn empty_request_rejected() {
        JobRequest::new(vec![]);
    }

    #[test]
    fn table2_fractions_sum_to_one() {
        let dist = JobSizeDist::das_s_128();
        for limit in [16u32, 24, 32] {
            let f = component_count_fractions(&dist, limit, 4);
            assert_eq!(f.len(), 4);
            let total: f64 = f.iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "limit {limit}: {f:?}");
            assert!(f.iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }

    #[test]
    fn table2_qualitative_shape() {
        // Paper Table 2: the single-component fraction *grows* with the
        // limit (0.513 → 0.738 → 0.780 in the paper's log).
        let dist = JobSizeDist::das_s_128();
        let f16 = component_count_fractions(&dist, 16, 4);
        let f24 = component_count_fractions(&dist, 24, 4);
        let f32 = component_count_fractions(&dist, 32, 4);
        assert!(f16[0] < f24[0] && f24[0] < f32[0], "{} {} {}", f16[0], f24[0], f32[0]);
        // Around half the jobs are single-component at limit 16, and
        // roughly three quarters at limits 24 and 32.
        // The size pmf is reconstructed so that Table 2 is matched to
        // within a couple of thousandths (see trace::das).
        assert!((f16[0] - 0.513).abs() < 0.002, "limit16 single {:.3}", f16[0]);
        assert!((f16[1] - 0.267).abs() < 0.002, "limit16 two-comp {:.3}", f16[1]);
        assert!((f16[3] - 0.211).abs() < 0.002, "limit16 four-comp {:.3}", f16[3]);
        assert!((f24[0] - 0.738).abs() < 0.002, "limit24 single {:.3}", f24[0]);
        assert!((f24[1] - 0.051).abs() < 0.002, "limit24 two-comp {:.3}", f24[1]);
        assert!((f24[2] - 0.194).abs() < 0.003, "limit24 three-comp {:.3}", f24[2]);
        assert!((f32[0] - 0.780).abs() < 0.002, "limit32 single {:.3}", f32[0]);
        // Limit 32 sends size-64 jobs (19% of all) to exactly 2 components.
        assert!((f32[1] - 0.200).abs() < 0.002, "limit32 two-comp {:.3}", f32[1]);
        assert!((f32[2] - 0.003).abs() < 0.002, "limit32 three-comp {:.3}", f32[2]);
        assert!((f32[3] - 0.017).abs() < 0.002, "limit32 four-comp {:.3}", f32[3]);
    }

    #[test]
    fn multi_fraction_decreases_with_limit() {
        let dist = JobSizeDist::das_s_128();
        let m16 = multi_component_fraction(&dist, 16, 4);
        let m24 = multi_component_fraction(&dist, 24, 4);
        let m32 = multi_component_fraction(&dist, 32, 4);
        assert!(m16 > m24 && m24 > m32);
        // §3.1.1: ~49% multi-component at limit 16, ~26%/22% at 24/32.
        assert!((m16 - 0.487).abs() < 0.005, "m16 {m16:.3}");
        assert!((m24 - 0.262).abs() < 0.005, "m24 {m24:.3}");
        assert!((m32 - 0.220).abs() < 0.005, "m32 {m32:.3}");
    }
}
// (request-kind tests appended alongside the original unordered tests)
#[cfg(test)]
mod kind_tests {
    use super::*;

    #[test]
    fn ordered_preserves_order_and_targets() {
        let r = JobRequest::ordered(vec![8, 16, 4], vec![2, 0, 3]);
        assert_eq!(r.kind(), RequestKind::Ordered);
        assert_eq!(r.components(), &[8, 16, 4]);
        assert_eq!(r.targets(), Some(&[2usize, 0, 3][..]));
        assert_eq!(r.total(), 28);
        assert_eq!(r.max_component(), 16);
        assert_eq!(format!("{r}"), "[8@2,16@0,4@3]");
    }

    #[test]
    #[should_panic(expected = "distinct clusters")]
    fn ordered_rejects_duplicate_targets() {
        JobRequest::ordered(vec![8, 8], vec![1, 1]);
    }

    #[test]
    #[should_panic(expected = "one target cluster per component")]
    fn ordered_rejects_length_mismatch() {
        JobRequest::ordered(vec![8, 8], vec![1]);
    }

    #[test]
    fn flexible_keeps_classification_split() {
        let r = JobRequest::flexible(64, 16, 4);
        assert_eq!(r.kind(), RequestKind::Flexible);
        assert_eq!(r.components(), &[16, 16, 16, 16], "pre-split kept for classification");
        assert!(r.is_multi());
        assert_eq!(format!("{r}"), "flex(64)");
    }

    #[test]
    fn kinds_of_basic_constructors() {
        assert_eq!(JobRequest::new(vec![4, 4]).kind(), RequestKind::Unordered);
        assert_eq!(JobRequest::from_total(64, 16, 4).kind(), RequestKind::Unordered);
        assert_eq!(JobRequest::total_request(64).kind(), RequestKind::Total);
        assert_eq!(JobRequest::total_request(64).targets(), None);
    }
}
