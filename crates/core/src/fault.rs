//! Cluster failure and repair processes (fault injection).
//!
//! The paper's multicluster motivation — wide-area systems whose
//! clusters come and go — is modelled by a per-run fault process that
//! injects `ClusterDown(k)` / `ClusterUp(k)` events into the event
//! calendar of every run ([`crate::SimBuilder`]). A down cluster's capacity drops
//! to a configured *remaining* processor count (0 for a full outage),
//! every running component on it is killed, and an [`InterruptPolicy`]
//! decides the victim job's fate.
//!
//! Two fault sources are supported:
//!
//! * [`FaultSpec::Exponential`] — a seeded, deterministic per-cluster
//!   failure/repair process: times to failure and repair are exponential
//!   with the given means, drawn from a dedicated `"faults"` RNG label
//!   (sub-streamed per cluster) so enabling faults never perturbs the
//!   arrival/size/service streams.
//! * [`FaultSpec::Trace`] — a scripted [`FaultTrace`] of explicit
//!   down/up events for exactly reproducible scenarios.
//!
//! With no fault spec configured the simulator is bit-identical to the
//! fault-free engine (golden logs and regression values stand).

use std::hash::{Hash, Hasher};

use crate::system::SystemSpec;

/// What happens to a running job whose processors are killed by a
/// cluster failure.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum InterruptPolicy {
    /// Re-queue the victim at the *head* of its submit queue, preserving
    /// its FCFS age: no job that arrived later may start before it.
    #[default]
    RequeueFront,
    /// Re-queue the victim at the *tail* of its submit queue: it loses
    /// its age and waits behind everything already queued.
    RequeueBack,
    /// Drop the victim: it leaves the system without completing.
    Abort,
}

impl InterruptPolicy {
    /// Parses a policy name: `front`/`requeue-front`, `back`/
    /// `requeue-back`, or `abort`.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "front" | "requeue-front" => Ok(InterruptPolicy::RequeueFront),
            "back" | "requeue-back" => Ok(InterruptPolicy::RequeueBack),
            "abort" => Ok(InterruptPolicy::Abort),
            other => Err(format!("unknown interrupt policy `{other}` (want front|back|abort)")),
        }
    }

    /// Stable lower-case label (also the JSONL `trigger` value of
    /// `job_interrupted` events).
    pub fn label(self) -> &'static str {
        match self {
            InterruptPolicy::RequeueFront => "requeue-front",
            InterruptPolicy::RequeueBack => "requeue-back",
            InterruptPolicy::Abort => "abort",
        }
    }
}

impl core::fmt::Display for InterruptPolicy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for InterruptPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        InterruptPolicy::parse(s)
    }
}

/// How malleable jobs may change shape while running
/// ([`coalloc_workload::JobDisposition::Malleable`] only; rigid and
/// moldable jobs never resize).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ResizePolicy {
    /// Shrink away from failed clusters *and* grow onto processors left
    /// idle by departures when the queue is empty.
    #[default]
    GrowAndShrink,
    /// Only shrink on failures; never grow.
    ShrinkOnly,
}

impl ResizePolicy {
    /// Parses a policy name: `grow-shrink`/`grow` or `shrink-only`/`shrink`.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "grow-shrink" | "grow" => Ok(ResizePolicy::GrowAndShrink),
            "shrink-only" | "shrink" => Ok(ResizePolicy::ShrinkOnly),
            other => Err(format!("unknown resize policy `{other}` (want grow-shrink|shrink-only)")),
        }
    }

    /// Stable lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            ResizePolicy::GrowAndShrink => "grow-shrink",
            ResizePolicy::ShrinkOnly => "shrink-only",
        }
    }
}

impl core::fmt::Display for ResizePolicy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for ResizePolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ResizePolicy::parse(s)
    }
}

/// One scripted fault event.
#[derive(Clone, Copy, Debug, PartialEq, Hash)]
pub enum FaultKind {
    /// The cluster fails, leaving `remaining` processors usable (0 for a
    /// full outage). All components running on the cluster are killed
    /// regardless of `remaining` — the machines rebooted.
    Down {
        /// Usable processors while the cluster is down.
        remaining: u32,
    },
    /// The cluster is repaired to full capacity.
    Up,
}

/// A scripted fault event: at time `at`, cluster `cluster` goes down
/// (to a remaining capacity) or comes back up.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    /// Simulated time of the event (seconds).
    pub at: f64,
    /// The affected cluster index.
    pub cluster: usize,
    /// Down (with remaining capacity) or up.
    pub kind: FaultKind,
}

impl Hash for FaultEvent {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let FaultEvent { at, cluster, kind } = self;
        at.to_bits().hash(state);
        cluster.hash(state);
        kind.hash(state);
    }
}

/// A validated script of fault events: times are non-negative and
/// non-decreasing, and per cluster the events alternate down → up,
/// starting with a down (clusters begin healthy).
#[derive(Clone, Debug, Default, PartialEq, Hash)]
pub struct FaultTrace {
    events: Vec<FaultEvent>,
}

impl FaultTrace {
    /// Builds a trace, validating ordering and per-cluster alternation.
    pub fn new(events: Vec<FaultEvent>) -> Result<Self, String> {
        let mut last = 0.0f64;
        // Tracks whether each cluster mentioned so far is currently down.
        let mut down: Vec<(usize, bool)> = Vec::new();
        for (i, ev) in events.iter().enumerate() {
            if !ev.at.is_finite() || ev.at < 0.0 {
                return Err(format!("event {i}: time {} is not a finite non-negative", ev.at));
            }
            if ev.at < last {
                return Err(format!("event {i}: time {} goes backwards (after {last})", ev.at));
            }
            last = ev.at;
            let state = match down.iter_mut().find(|(c, _)| *c == ev.cluster) {
                Some((_, s)) => s,
                None => {
                    down.push((ev.cluster, false));
                    &mut down.last_mut().expect("just pushed").1
                }
            };
            match ev.kind {
                FaultKind::Down { .. } => {
                    if *state {
                        return Err(format!("event {i}: cluster {} is already down", ev.cluster));
                    }
                    *state = true;
                }
                FaultKind::Up => {
                    if !*state {
                        return Err(format!("event {i}: cluster {} is not down", ev.cluster));
                    }
                    *state = false;
                }
            }
        }
        Ok(FaultTrace { events })
    }

    /// The validated events, in time order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Checks the trace against a concrete system: cluster indices must
    /// exist and a down event's remaining capacity must be *below* the
    /// cluster's full capacity (equal would be a no-op "failure").
    pub fn validate_for(&self, system: &SystemSpec) -> Result<(), String> {
        let caps = system.capacities();
        for (i, ev) in self.events.iter().enumerate() {
            let Some(&cap) = caps.get(ev.cluster) else {
                return Err(format!(
                    "event {i}: cluster {} out of range (system has {})",
                    ev.cluster,
                    caps.len()
                ));
            };
            if let FaultKind::Down { remaining } = ev.kind {
                if remaining >= cap {
                    return Err(format!(
                        "event {i}: remaining {remaining} is not below cluster {}'s capacity {cap}",
                        ev.cluster
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Where fault events come from.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultSpec {
    /// Independent per-cluster exponential failure/repair processes:
    /// time to failure has mean `mttf`, repair takes an exponential time
    /// with mean `mttr`, and a failure takes the whole cluster down
    /// (remaining capacity 0). Sampled from the dedicated `"faults"`
    /// RNG label, sub-streamed per cluster.
    Exponential {
        /// Mean time to failure (seconds).
        mttf: f64,
        /// Mean time to repair (seconds).
        mttr: f64,
    },
    /// A scripted, exactly reproducible event sequence.
    Trace(FaultTrace),
}

impl Hash for FaultSpec {
    fn hash<H: Hasher>(&self, state: &mut H) {
        core::mem::discriminant(self).hash(state);
        match self {
            FaultSpec::Exponential { mttf, mttr } => {
                mttf.to_bits().hash(state);
                mttr.to_bits().hash(state);
            }
            FaultSpec::Trace(trace) => trace.hash(state),
        }
    }
}

impl FaultSpec {
    /// Parses a fault spec:
    ///
    /// * `exp:MTTF:MTTR` — exponential failure/repair with the given
    ///   mean seconds;
    /// * a comma-separated event list, each `down:T:K[:R]` (cluster `K`
    ///   fails at time `T` with `R` remaining processors, default 0) or
    ///   `up:T:K` (cluster `K` repaired at time `T`).
    pub fn parse(s: &str) -> Result<Self, String> {
        if let Some(rest) = s.strip_prefix("exp:") {
            let mut parts = rest.split(':');
            let mttf = parse_time(parts.next(), "MTTF")?;
            let mttr = parse_time(parts.next(), "MTTR")?;
            if parts.next().is_some() {
                return Err("trailing fields after exp:MTTF:MTTR".to_string());
            }
            if mttf <= 0.0 {
                return Err(format!("MTTF must be positive, got {mttf}"));
            }
            if mttr <= 0.0 {
                return Err(format!("MTTR must be positive, got {mttr}"));
            }
            return Ok(FaultSpec::Exponential { mttf, mttr });
        }
        let mut events = Vec::new();
        for item in s.split(',') {
            let fields: Vec<&str> = item.split(':').collect();
            let event = match fields.as_slice() {
                ["down", t, k] => FaultEvent {
                    at: parse_time(Some(t), "time")?,
                    cluster: parse_cluster(k)?,
                    kind: FaultKind::Down { remaining: 0 },
                },
                ["down", t, k, r] => FaultEvent {
                    at: parse_time(Some(t), "time")?,
                    cluster: parse_cluster(k)?,
                    kind: FaultKind::Down {
                        remaining: r
                            .parse::<u32>()
                            .map_err(|_| format!("bad remaining capacity `{r}`"))?,
                    },
                },
                ["up", t, k] => FaultEvent {
                    at: parse_time(Some(t), "time")?,
                    cluster: parse_cluster(k)?,
                    kind: FaultKind::Up,
                },
                _ => return Err(format!("bad fault event `{item}` (want down:T:K[:R] or up:T:K)")),
            };
            events.push(event);
        }
        FaultTrace::new(events).map(FaultSpec::Trace)
    }

    /// Checks the spec against a concrete system.
    pub fn validate_for(&self, system: &SystemSpec) -> Result<(), String> {
        match self {
            FaultSpec::Exponential { mttf, mttr } => {
                if !(mttf.is_finite() && *mttf > 0.0) {
                    return Err(format!("MTTF must be positive and finite, got {mttf}"));
                }
                if !(mttr.is_finite() && *mttr > 0.0) {
                    return Err(format!("MTTR must be positive and finite, got {mttr}"));
                }
                Ok(())
            }
            FaultSpec::Trace(trace) => trace.validate_for(system),
        }
    }
}

fn parse_time(field: Option<&str>, what: &str) -> Result<f64, String> {
    let raw = field.ok_or_else(|| format!("missing {what}"))?;
    let v: f64 = raw.parse().map_err(|_| format!("bad {what} `{raw}`"))?;
    if !v.is_finite() || v < 0.0 {
        return Err(format!("{what} must be finite and non-negative, got {raw}"));
    }
    Ok(v)
}

fn parse_cluster(raw: &str) -> Result<usize, String> {
    raw.parse::<usize>().map_err(|_| format!("bad cluster index `{raw}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn down(at: f64, cluster: usize, remaining: u32) -> FaultEvent {
        FaultEvent { at, cluster, kind: FaultKind::Down { remaining } }
    }

    fn up(at: f64, cluster: usize) -> FaultEvent {
        FaultEvent { at, cluster, kind: FaultKind::Up }
    }

    #[test]
    fn trace_accepts_alternating_events() {
        let t = FaultTrace::new(vec![down(10.0, 2, 0), up(50.0, 2), down(60.0, 2, 8)])
            .expect("valid trace");
        assert_eq!(t.events().len(), 3);
        t.validate_for(&SystemSpec::das_multicluster()).expect("fits the DAS system");
    }

    #[test]
    fn trace_rejects_time_going_backwards() {
        let err = FaultTrace::new(vec![down(10.0, 0, 0), up(5.0, 0)]).unwrap_err();
        assert!(err.contains("backwards"), "{err}");
    }

    #[test]
    fn trace_rejects_double_down_and_orphan_up() {
        let err = FaultTrace::new(vec![down(1.0, 0, 0), down(2.0, 0, 0)]).unwrap_err();
        assert!(err.contains("already down"), "{err}");
        let err = FaultTrace::new(vec![up(1.0, 3)]).unwrap_err();
        assert!(err.contains("not down"), "{err}");
    }

    #[test]
    fn trace_validates_against_the_system() {
        let das = SystemSpec::das_multicluster();
        let t = FaultTrace::new(vec![down(1.0, 7, 0)]).expect("ordering fine");
        assert!(t.validate_for(&das).unwrap_err().contains("out of range"));
        let t = FaultTrace::new(vec![down(1.0, 0, 32)]).expect("ordering fine");
        assert!(t.validate_for(&das).unwrap_err().contains("not below"));
        let t = FaultTrace::new(vec![down(1.0, 0, 31)]).expect("ordering fine");
        t.validate_for(&das).expect("31 of 32 remaining is a partial outage");
    }

    #[test]
    fn spec_parses_exponential() {
        let spec = FaultSpec::parse("exp:50000:5000").expect("parses");
        assert_eq!(spec, FaultSpec::Exponential { mttf: 50_000.0, mttr: 5_000.0 });
        spec.validate_for(&SystemSpec::das_multicluster()).expect("positive means");
        assert!(FaultSpec::parse("exp:0:5").is_err(), "zero MTTF rejected at validation");
        assert!(FaultSpec::parse("exp:50:5:9").is_err());
        assert!(FaultSpec::parse("exp:abc:5").is_err());
    }

    #[test]
    fn zero_mttf_rejected_by_validation() {
        let spec = FaultSpec::Exponential { mttf: 0.0, mttr: 5.0 };
        assert!(spec.validate_for(&SystemSpec::das_multicluster()).is_err());
    }

    #[test]
    fn spec_parses_event_lists() {
        let spec = FaultSpec::parse("down:100:1,up:200:1,down:300:0:16").expect("parses");
        let FaultSpec::Trace(trace) = spec else { panic!("expected a trace") };
        assert_eq!(trace.events(), &[down(100.0, 1, 0), up(200.0, 1), down(300.0, 0, 16)]);
    }

    #[test]
    fn spec_parse_reports_the_offending_item() {
        let err = FaultSpec::parse("down:100:1,sideways:3:4").unwrap_err();
        assert!(err.contains("sideways"), "{err}");
        let err = FaultSpec::parse("down:-5:1").unwrap_err();
        assert!(err.contains("-5"), "{err}");
    }

    #[test]
    fn interrupt_policy_parses_and_displays() {
        assert_eq!(InterruptPolicy::parse("front"), Ok(InterruptPolicy::RequeueFront));
        assert_eq!(InterruptPolicy::parse("requeue-back"), Ok(InterruptPolicy::RequeueBack));
        assert_eq!(InterruptPolicy::parse("abort"), Ok(InterruptPolicy::Abort));
        assert_eq!(InterruptPolicy::default(), InterruptPolicy::RequeueFront);
        assert_eq!(InterruptPolicy::RequeueBack.to_string(), "requeue-back");
        assert!("sideways".parse::<InterruptPolicy>().is_err());
    }
}
