//! The wide-area network model a [`SimConfig::network`] selects: a
//! finite-bandwidth fabric whose max-min fair shares make the effective
//! extension of co-allocated jobs load-dependent.
//!
//! The paper charges every multi-component job a *constant* wide-area
//! extension (base service × 1.25, §2.4). Under the network model the
//! extension becomes emergent instead: every running multi-cluster job
//! holds one *flow* through the fabric, flows get max-min fair bandwidth
//! shares, and a flow at share `s ∈ (0, 1]` runs with stretch
//! `g(s) = 1 + (f − 1)/s`, where `f` is the workload's nominal
//! extension factor for the job's span. At full share the stretch is
//! exactly `f` (an uncontended fabric reproduces the paper bit for
//! bit); as shares shrink, only the *communication* part of the
//! extension dilates — computation is local and unaffected, which is
//! why the stretch is `1 + (f − 1)/s` and not `f/s`.
//!
//! [`SimConfig::network`]: crate::sim::SimConfig::network

use std::hash::{Hash, Hasher};
use std::str::FromStr;

use crate::error::{ensure, ConfigError};

/// How inter-cluster bandwidth is laid out.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum NetworkTopology {
    /// One shared wide-area backbone: every multi-cluster flow crosses
    /// the same link, so `n` concurrent flows each get share
    /// `min(1, capacity / n)`.
    #[default]
    SharedBackbone,
    /// A dedicated link per cluster *pair*, each of the configured
    /// capacity. A flow spanning clusters `{a, b, c}` uses all three
    /// pairwise links; shares are max-min fair (progressive filling)
    /// across the link set.
    PairwiseLinks,
}

/// A finite-bandwidth wide-area fabric for multi-cluster jobs.
///
/// `capacity` is measured in *concurrent-flow units*: a link of
/// capacity `c` sustains `c` flows at full share before contention
/// begins (capacity 1 means the second concurrent flow already halves
/// both shares). `f64::INFINITY` is legal and collapses the model onto
/// the paper's constant extension bit for bit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetworkSpec {
    /// Link capacity in concurrent-flow units (must be positive; may be
    /// `f64::INFINITY`).
    pub capacity: f64,
    /// Link layout: one shared backbone, or one link per cluster pair.
    pub topology: NetworkTopology,
}

impl Hash for NetworkSpec {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let NetworkSpec { capacity, topology } = self;
        capacity.to_bits().hash(state);
        topology.hash(state);
    }
}

impl NetworkSpec {
    /// A shared backbone of the given capacity.
    pub fn backbone(capacity: f64) -> Self {
        NetworkSpec { capacity, topology: NetworkTopology::SharedBackbone }
    }

    /// Per-cluster-pair links of the given capacity.
    pub fn pairwise(capacity: f64) -> Self {
        NetworkSpec { capacity, topology: NetworkTopology::PairwiseLinks }
    }

    /// Whether the fabric can never slow a flow down (infinite
    /// capacity ⇒ every share is 1 ⇒ every stretch is the nominal
    /// extension factor).
    pub fn is_uncontended(&self) -> bool {
        self.capacity.is_infinite()
    }

    /// Rejects a spec no simulation should run with.
    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        ensure(
            self.capacity > 0.0,
            "network",
            format_args!("network capacity must be positive (may be `inf`), got {}", self.capacity),
        )
    }

    /// Max-min fair shares, one per flow, given each flow's cluster
    /// bitmask, written to `out` (cleared first) in flow order. Shares
    /// are in `(0, 1]` — a flow never runs faster than its own endpoints
    /// allow, whatever the fabric capacity.
    ///
    /// Allocation-free once `out` and `scratch` have grown to the largest
    /// flow set they have seen. Deterministic: shares depend only on the
    /// mask sequence, and the arithmetic is fixed-order, so equal mask
    /// sequences yield bit-equal shares.
    pub(crate) fn shares_into(
        &self,
        masks: impl IntoIterator<Item = u64>,
        out: &mut Vec<f64>,
        scratch: &mut ShareScratch,
    ) {
        out.clear();
        if self.is_uncontended() {
            out.extend(masks.into_iter().map(|_| 1.0));
            return;
        }
        match self.topology {
            NetworkTopology::SharedBackbone => {
                let n = masks.into_iter().count();
                out.resize(n, (self.capacity / n as f64).min(1.0));
            }
            NetworkTopology::PairwiseLinks => self.pairwise_shares_into(masks, out, scratch),
        }
    }

    /// Progressive filling (water-filling) over the pairwise links: all
    /// unfrozen flows rise at the same rate; whenever a link saturates,
    /// its flows freeze at their current rate. A per-flow cap of 1
    /// (the endpoints' own speed) acts as a virtual access link.
    ///
    /// Flows with equal masks cross the same links, so they always rise
    /// and freeze together: the filling runs over mask classes × links,
    /// weighting each class by its flow count. Links are enumerated in
    /// first-appearance order (flow order, then `(a, b)` with `a < b`),
    /// and each link in a round is charged only with the flows the links
    /// before it left unfrozen. That is the per-flow reference loop's
    /// order (see the tests), and contended results are pinned to it
    /// bit for bit; DESIGN.md §13 records the over-commit it allows.
    fn pairwise_shares_into(
        &self,
        masks: impl IntoIterator<Item = u64>,
        out: &mut Vec<f64>,
        scratch: &mut ShareScratch,
    ) {
        let ShareScratch { classes, class_of, links } = scratch;
        classes.clear();
        class_of.clear();
        links.clear();
        for mask in masks {
            let k = match classes.iter().position(|c| c.mask == mask) {
                Some(k) => k,
                None => {
                    // A new mask's pairs `(a, b)`, `a < b`, lowest first,
                    // join the links where they first appear.
                    let mut rest = mask;
                    while rest != 0 {
                        let a = rest & rest.wrapping_neg();
                        rest ^= a;
                        let mut above = rest;
                        while above != 0 {
                            let b = above & above.wrapping_neg();
                            above ^= b;
                            if !links.iter().any(|&(link, _)| link == a | b) {
                                links.push((a | b, 0.0));
                            }
                        }
                    }
                    classes.push(MaskClass { mask, flows: 0, share: 0.0, frozen: false });
                    classes.len() - 1
                }
            };
            classes[k].flows += 1;
            class_of.push(k as u32);
        }
        let cap = self.capacity;
        // Unfrozen flows crossing `link`.
        let active = |classes: &[MaskClass], link: u64| -> u32 {
            classes.iter().filter(|c| !c.frozen && (c.mask & link) == link).map(|c| c.flows).sum()
        };
        while classes.iter().any(|c| !c.frozen) {
            // The common increment every unfrozen flow can still take:
            // limited by the tightest link and by the per-flow cap of 1.
            let mut delta = f64::INFINITY;
            for &(link, used) in links.iter() {
                let n = active(classes, link);
                if n > 0 {
                    delta = delta.min((cap - used) / f64::from(n));
                }
            }
            for c in classes.iter().filter(|c| !c.frozen) {
                delta = delta.min(1.0 - c.share);
            }
            debug_assert!(delta.is_finite(), "every unfrozen flow crosses some link");
            let delta = delta.max(0.0);
            for c in classes.iter_mut().filter(|c| !c.frozen) {
                c.share += delta;
            }
            for (link, used) in links.iter_mut() {
                let n = active(classes, *link);
                *used += delta * f64::from(n);
                if n > 0 && cap - *used <= 1e-12 * cap {
                    for c in classes.iter_mut().filter(|c| (c.mask & *link) == *link) {
                        c.frozen = true;
                    }
                }
            }
            for c in classes.iter_mut().filter(|c| !c.frozen && c.share >= 1.0) {
                c.share = 1.0;
                c.frozen = true;
            }
        }
        out.extend(class_of.iter().map(|&k| classes[k as usize].share));
    }
}

/// Reusable buffers for [`NetworkSpec::shares_into`]. Each caller (the
/// engine's network state, the auditor's flow mirror) owns one; the
/// buffers grow to the largest flow set seen and are never shrunk.
#[derive(Clone, Debug, Default)]
pub(crate) struct ShareScratch {
    /// Distinct flow masks in first-appearance order.
    classes: Vec<MaskClass>,
    /// Each flow's index into `classes`, in flow order.
    class_of: Vec<u32>,
    /// Pairwise links in first-appearance order: the two-bit mask of the
    /// cluster pair and the bandwidth committed on it so far.
    links: Vec<(u64, f64)>,
}

/// The flows sharing one cluster mask, which rise and freeze together.
#[derive(Clone, Copy, Debug)]
struct MaskClass {
    mask: u64,
    /// How many flows carry this mask.
    flows: u32,
    /// Every one of those flows' share so far.
    share: f64,
    frozen: bool,
}

/// The stretch a flow at bandwidth share `share` runs with, given its
/// nominal extension factor. At full share this is *exactly* the
/// factor — not `1 + (factor − 1)`, whose float round trip could
/// differ in the last bit — so an uncontended fabric collapses onto
/// the paper's constant extension bit for bit.
pub(crate) fn stretch(factor: f64, share: f64) -> f64 {
    if share >= 1.0 {
        factor
    } else {
        1.0 + (factor - 1.0) / share
    }
}

/// A flow's endpoints: the bitmask of the clusters a placement's
/// assignments use (bit `c` set when a component runs on cluster `c`;
/// `MAX_CLUSTERS == 64` fits a `u64`).
pub(crate) fn cluster_mask(assignments: &[(usize, u32)]) -> u64 {
    assignments.iter().fold(0u64, |m, &(c, _)| m | (1u64 << c))
}

impl FromStr for NetworkSpec {
    type Err = String;

    /// Parses `bw[:topology]` — e.g. `2`, `inf`, `1.5:backbone`,
    /// `2:pairwise`.
    fn from_str(s: &str) -> Result<Self, String> {
        let (bw, topo) = match s.split_once(':') {
            Some((bw, topo)) => (bw, Some(topo)),
            None => (s, None),
        };
        let capacity: f64 = match bw {
            "inf" => f64::INFINITY,
            other => other
                .parse()
                .map_err(|_| format!("bad bandwidth {other:?}: want a positive number or `inf`"))?,
        };
        if capacity.is_nan() || capacity <= 0.0 {
            return Err(format!("bandwidth must be positive, got {capacity}"));
        }
        let topology = match topo {
            None | Some("backbone") => NetworkTopology::SharedBackbone,
            Some("pairwise") => NetworkTopology::PairwiseLinks,
            Some(other) => return Err(format!("bad topology {other:?}: want backbone|pairwise")),
        };
        Ok(NetworkSpec { capacity, topology })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl NetworkSpec {
        /// The kernel on fresh buffers, for tests that want a `Vec`.
        fn shares(&self, masks: &[u64]) -> Vec<f64> {
            let mut out = Vec::new();
            self.shares_into(masks.iter().copied(), &mut out, &mut ShareScratch::default());
            out
        }
    }

    /// The per-flow progressive-filling loop the kernel replaced, kept
    /// as its reference: a `Vec` of flow indices per link, links in
    /// first-appearance order, one flow at a time.
    fn reference_shares(net: &NetworkSpec, masks: &[u64]) -> Vec<f64> {
        let n = masks.len();
        if n == 0 {
            return Vec::new();
        }
        if net.is_uncontended() {
            return vec![1.0; n];
        }
        if net.topology == NetworkTopology::SharedBackbone {
            return vec![(net.capacity / n as f64).min(1.0); n];
        }
        let mut links: Vec<(f64, Vec<usize>)> = Vec::new();
        let mut pair_of = std::collections::BTreeMap::new();
        for (i, &mask) in masks.iter().enumerate() {
            let clusters: Vec<u32> = (0..64).filter(|&c| mask & (1u64 << c) != 0).collect();
            for (ai, &a) in clusters.iter().enumerate() {
                for &b in &clusters[ai + 1..] {
                    let li = *pair_of.entry((a, b)).or_insert_with(|| {
                        links.push((net.capacity, Vec::new()));
                        links.len() - 1
                    });
                    links[li].1.push(i);
                }
            }
        }
        let mut share = vec![0.0f64; n];
        let mut frozen = vec![false; n];
        let mut used: Vec<f64> = vec![0.0; links.len()];
        while frozen.iter().any(|&f| !f) {
            let mut delta = f64::INFINITY;
            for (li, (cap, flows)) in links.iter().enumerate() {
                let active = flows.iter().filter(|&&i| !frozen[i]).count();
                if active > 0 {
                    delta = delta.min((cap - used[li]) / active as f64);
                }
            }
            for (i, &f) in frozen.iter().enumerate() {
                if !f {
                    delta = delta.min(1.0 - share[i]);
                }
            }
            let delta = delta.max(0.0);
            for i in 0..n {
                if !frozen[i] {
                    share[i] += delta;
                }
            }
            for (li, (cap, flows)) in links.iter().enumerate() {
                let active = flows.iter().filter(|&&i| !frozen[i]).count();
                used[li] += delta * active as f64;
                if active > 0 && cap - used[li] <= 1e-12 * cap {
                    for &i in flows {
                        frozen[i] = true;
                    }
                }
            }
            for i in 0..n {
                if !frozen[i] && share[i] >= 1.0 {
                    share[i] = 1.0;
                    frozen[i] = true;
                }
            }
        }
        share
    }

    /// A fixed-seed SplitMix64 stream for generated flow sets.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// A cluster mask of at least two of `clusters` clusters.
        fn mask(&mut self, clusters: u64) -> u64 {
            loop {
                let mask = self.below(1 << clusters);
                if mask.count_ones() >= 2 {
                    return mask;
                }
            }
        }
    }

    /// The total share of the flows crossing the link between the two
    /// clusters of `link`.
    fn link_load(masks: &[u64], shares: &[f64], link: u64) -> f64 {
        masks.iter().zip(shares).filter(|&(&m, _)| (m & link) == link).map(|(_, &s)| s).sum()
    }

    #[test]
    fn kernel_matches_the_per_flow_reference_bit_for_bit() {
        let mut rng = SplitMix(2003);
        let mut sets = vec![vec![0b111, 0b11, 0b101], vec![0b101, 0b111, 0b11]];
        for i in 0..4_000 {
            let clusters = 2 + rng.below(7);
            let flows = 1 + rng.below(64) as usize;
            // Half the sets draw from a small palette, so that mask
            // classes hold many flows; the rest are free-form.
            let palette: Vec<u64> = (0..1 + rng.below(8)).map(|_| rng.mask(clusters)).collect();
            let set = (0..flows)
                .map(|_| {
                    if i % 2 == 0 {
                        palette[rng.below(palette.len() as u64) as usize]
                    } else {
                        rng.mask(clusters)
                    }
                })
                .collect();
            sets.push(set);
        }
        // One set of buffers across every call: stale state must not leak.
        let mut out = Vec::new();
        let mut scratch = ShareScratch::default();
        let bits = |shares: &[f64]| shares.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        for masks in &sets {
            for capacity in [0.3, 0.5, 1.0, 1.5, 2.0, 3.0, f64::INFINITY] {
                for net in [NetworkSpec::backbone(capacity), NetworkSpec::pairwise(capacity)] {
                    net.shares_into(masks.iter().copied(), &mut out, &mut scratch);
                    assert_eq!(
                        bits(&out),
                        bits(&reference_shares(&net, masks)),
                        "{net:?} on {masks:?}: kernel {out:?}"
                    );
                }
            }
        }
    }

    /// The over-commit the per-link charging order allows, recorded
    /// rather than fixed (DESIGN.md §13): at capacity 1 the (0,1) link
    /// freezes the wide flow at 0.5 before link (0,2) is charged, so
    /// flow `0b101` rises to 1 and link (0,2) carries 1.5, where max-min
    /// fairness gives every flow 0.5. Reordering the same flows
    /// over-commits link (0,1) instead.
    #[test]
    fn pairwise_filling_over_commits_a_link_in_flow_order() {
        let net = NetworkSpec::pairwise(1.0);
        let masks = [0b111, 0b11, 0b101];
        let shares = net.shares(&masks);
        assert_eq!(shares, vec![0.5, 0.5, 1.0]);
        assert_eq!(link_load(&masks, &shares, 0b101), 1.5);
        let masks = [0b101, 0b111, 0b11];
        let shares = net.shares(&masks);
        assert_eq!(shares, vec![0.5, 0.5, 1.0]);
        assert_eq!(link_load(&masks, &shares, 0b11), 1.5);
    }

    #[test]
    fn backbone_shares_split_evenly_and_cap_at_one() {
        let net = NetworkSpec::backbone(2.0);
        assert_eq!(net.shares(&[0b11]), vec![1.0]);
        assert_eq!(net.shares(&[0b11, 0b101]), vec![1.0, 1.0]);
        assert_eq!(net.shares(&[0b11, 0b101, 0b110, 0b1001]), vec![0.5, 0.5, 0.5, 0.5]);
    }

    #[test]
    fn infinite_capacity_gives_full_shares_everywhere() {
        for net in [NetworkSpec::backbone(f64::INFINITY), NetworkSpec::pairwise(f64::INFINITY)] {
            assert!(net.is_uncontended());
            assert_eq!(net.shares(&[0b11, 0b11, 0b1111]), vec![1.0, 1.0, 1.0]);
        }
    }

    #[test]
    fn pairwise_shares_are_max_min_fair() {
        let net = NetworkSpec::pairwise(1.0);
        // Two flows on disjoint pairs never contend.
        assert_eq!(net.shares(&[0b11, 0b1100]), vec![1.0, 1.0]);
        // Two flows on the same pair split the link.
        assert_eq!(net.shares(&[0b11, 0b11]), vec![0.5, 0.5]);
        // A wide flow crossing a contended link freezes there; the flow
        // it shares the (0,1) link with gets the same bottleneck share,
        // while a flow on an untouched pair keeps full speed.
        let shares = net.shares(&[0b111, 0b11, 0b110000]);
        assert!((shares[0] - 0.5).abs() < 1e-12, "{shares:?}");
        assert!((shares[1] - 0.5).abs() < 1e-12, "{shares:?}");
        assert!((shares[2] - 1.0).abs() < 1e-12, "{shares:?}");
    }

    #[test]
    fn pairwise_filling_gives_unequal_shares_under_asymmetric_load() {
        // Three flows on pair (0,1), one alone on (2,3): the lone flow
        // saturates its own cap at 1, the crowd splits their link.
        let net = NetworkSpec::pairwise(1.0);
        let shares = net.shares(&[0b11, 0b11, 0b11, 0b1100]);
        for s in &shares[..3] {
            assert!((s - 1.0 / 3.0).abs() < 1e-12, "{shares:?}");
        }
        assert!((shares[3] - 1.0).abs() < 1e-12, "{shares:?}");
    }

    #[test]
    fn stretch_is_exactly_the_factor_at_full_share() {
        assert_eq!(stretch(1.25, 1.0), 1.25);
        assert_eq!(stretch(1.25, 2.0), 1.25);
        // Half share doubles the communication part only.
        assert!((stretch(1.25, 0.5) - 1.5).abs() < 1e-15);
        // A span-1 factor of 1.0 never stretches.
        assert_eq!(stretch(1.0, 0.25), 1.0);
    }

    #[test]
    fn cluster_mask_folds_assignments() {
        assert_eq!(cluster_mask(&[(0, 4), (2, 4), (3, 2)]), 0b1101);
        assert_eq!(cluster_mask(&[]), 0);
    }

    #[test]
    fn parses_the_cli_grammar() {
        assert_eq!("2".parse::<NetworkSpec>().unwrap(), NetworkSpec::backbone(2.0));
        assert_eq!("inf".parse::<NetworkSpec>().unwrap(), NetworkSpec::backbone(f64::INFINITY));
        assert_eq!("1.5:backbone".parse::<NetworkSpec>().unwrap(), NetworkSpec::backbone(1.5));
        assert_eq!("2:pairwise".parse::<NetworkSpec>().unwrap(), NetworkSpec::pairwise(2.0));
        assert!("0".parse::<NetworkSpec>().is_err());
        assert!("-1".parse::<NetworkSpec>().is_err());
        assert!("nan".parse::<NetworkSpec>().is_err());
        assert!("2:ring".parse::<NetworkSpec>().is_err());
    }
}
