//! Scenario specifications shared by the `coalloc-exp` command line and
//! the `serve` request protocol.
//!
//! A [`ScenarioSpec`] is the parsed, validated form of "which simulation
//! family to run": policy, component-size limit, system geometry,
//! faults, disposition, discipline, network, warm-up — every axis of
//! [`SimConfig`] a sweep varies *besides* the target utilization and the
//! replication seed. Both front ends funnel their raw strings through
//! [`ScenarioSpec::parse`], so a CLI sweep and a `serve` request with
//! the same parameters build byte-for-byte identical [`SimConfig`]s —
//! the property the scenario cache's bit-identical sharing rests on.

use coalloc_core::{
    CoallocError, FaultSpec, InterruptPolicy, NetworkSpec, PolicyKind, QueueDiscipline, SimConfig,
    SystemSpec, Warmup,
};
use coalloc_workload::JobDisposition;

use crate::experiments::{scaled, Scale};

/// A parsed `--warmup auto|N` specification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WarmupSpec {
    /// Auto-resolved warm-up (Welch-style heuristic inside the run).
    Auto,
    /// A fixed number of warm-up jobs.
    Fixed(u64),
}

impl WarmupSpec {
    /// Parses `auto` or a job count.
    pub fn parse(s: &str) -> Result<Self, CoallocError> {
        if s == "auto" {
            return Ok(WarmupSpec::Auto);
        }
        s.parse()
            .map(WarmupSpec::Fixed)
            .map_err(|_| CoallocError::invalid("--warmup", s, "`auto` or a job count"))
    }
}

/// Everything that identifies a simulation family; see the module docs.
#[derive(Clone, Debug)]
pub struct ScenarioSpec {
    /// The scheduling policy under test.
    pub policy: PolicyKind,
    /// Component-size limit of the request splitter.
    pub limit: u32,
    /// Heterogeneous cluster capacities; `None` = the DAS default
    /// geometry (single-cluster for SC).
    pub system: Option<SystemSpec>,
    /// Cluster fault injection.
    pub faults: Option<FaultSpec>,
    /// Requeue policy for fault victims.
    pub interrupt: Option<InterruptPolicy>,
    /// Rigid, moldable, or malleable jobs.
    pub disposition: Option<JobDisposition>,
    /// FCFS, EASY, or conservative backfilling.
    pub discipline: Option<QueueDiscipline>,
    /// Runtime-estimate multiplier for backfilling.
    pub estimate_factor: Option<f64>,
    /// Finite-bandwidth wide-area fabric.
    pub network: Option<NetworkSpec>,
    /// Warm-up override.
    pub warmup: Option<WarmupSpec>,
    /// Deliberately break the configuration at this utilization (panic
    /// isolation demos and tests).
    pub inject_panic: Option<f64>,
    /// Quick or paper-scale run lengths.
    pub scale: Scale,
}

impl ScenarioSpec {
    /// Parses and validates a scenario from raw string-level inputs (the
    /// common denominator of CLI flags and JSON request fields): every
    /// axis parses, the limit is positive, and the scenario's config
    /// passes [`SimConfig::validate`]. Every error is a typed
    /// [`CoallocError`] naming the offending field — never a panic once
    /// the sweep is underway.
    #[allow(clippy::too_many_arguments)]
    pub fn parse(
        policy: Option<&str>,
        limit: Option<u32>,
        system: Option<&str>,
        faults: Option<&str>,
        interrupt: Option<&str>,
        disposition: Option<&str>,
        discipline: Option<&str>,
        estimate_factor: Option<f64>,
        network: Option<&str>,
        warmup: Option<&str>,
        inject_panic: Option<f64>,
        scale: Scale,
    ) -> Result<Self, CoallocError> {
        let policy = parse_policy(policy)?;
        let limit = limit.ok_or_else(|| CoallocError::MissingValue { flag: "<limit>".into() })?;
        if limit == 0 {
            return Err(CoallocError::invalid("<limit>", "0", "a positive component-size limit"));
        }
        let spec = ScenarioSpec {
            policy,
            limit,
            system: system
                .map(|s| {
                    s.parse().map_err(|_| {
                        CoallocError::invalid("--capacities", s, "comma-separated processor counts")
                    })
                })
                .transpose()?,
            faults: faults
                .map(|s| {
                    FaultSpec::parse(s)
                        .map_err(|detail| CoallocError::FaultSpec { spec: s.into(), detail })
                })
                .transpose()?,
            interrupt: interrupt
                .map(|s| {
                    InterruptPolicy::parse(s)
                        .map_err(|_| CoallocError::invalid("--interrupt", s, "front|back|abort"))
                })
                .transpose()?,
            disposition: disposition
                .map(|s| {
                    JobDisposition::parse(s).ok_or_else(|| {
                        CoallocError::invalid("--disposition", s, "rigid|moldable|malleable")
                    })
                })
                .transpose()?,
            discipline: discipline
                .map(|s| {
                    QueueDiscipline::parse(s).ok_or_else(|| {
                        CoallocError::invalid("--queue-discipline", s, "fcfs|easy|conservative")
                    })
                })
                .transpose()?,
            estimate_factor: match estimate_factor {
                Some(v) if v.is_nan() || v <= 0.0 => {
                    return Err(CoallocError::invalid(
                        "--estimate-factor",
                        &format!("{v}"),
                        "a positive multiplier",
                    ));
                }
                other => other,
            },
            network: network
                .map(|s| {
                    s.parse().map_err(|_| {
                        CoallocError::invalid("--network", s, "<bandwidth>[:backbone|:pairwise]")
                    })
                })
                .transpose()?,
            warmup: warmup.map(WarmupSpec::parse).transpose()?,
            inject_panic,
            scale,
        };
        // A scenario no run can execute fails here instead of in every
        // replication. `inject_panic` stays out of the checked config: it
        // exists to fail inside a replication.
        ScenarioSpec { inject_panic: None, ..spec.clone() }.config(0.5).validate()?;
        Ok(spec)
    }

    /// The simulation configuration of this scenario at one target
    /// utilization (seed left at the config default; the sweep engine
    /// overwrites it per replication).
    pub fn config(&self, util: f64) -> SimConfig {
        let mut c = match &self.system {
            Some(sys) => scaled(
                SimConfig::heterogeneous(self.policy, self.limit, util, sys.clone()),
                self.scale,
            ),
            None if self.policy == PolicyKind::Sc => {
                scaled(SimConfig::das_single_cluster(util), self.scale)
            }
            None => scaled(SimConfig::das(self.policy, self.limit, util), self.scale),
        };
        c.faults = self.faults.clone();
        if let Some(p) = self.interrupt {
            c.interrupt = p;
        }
        if let Some(d) = self.disposition {
            c.disposition = d;
        }
        if let Some(d) = self.discipline {
            c.discipline = d;
        }
        if let Some(f) = self.estimate_factor {
            c.estimate_factor = f;
        }
        c.network = self.network;
        match self.warmup {
            None => {}
            Some(WarmupSpec::Auto) => c.warmup = Warmup::Auto,
            Some(WarmupSpec::Fixed(n)) => {
                c.warmup_jobs = n;
                c.warmup = Warmup::Fixed;
            }
        }
        if let Some(p) = self.inject_panic {
            if (util - p).abs() < 1e-9 {
                // A warm-up that swallows every job fails validation
                // inside the replication — the canonical "one point is
                // broken, the sweep must survive" scenario.
                c.warmup_jobs = c.total_jobs;
            }
        }
        c
    }

    /// An owned `make_cfg` closure for the sweep engine, safe to move
    /// into a request-handler thread.
    pub fn make_cfg(&self) -> impl Fn(f64) -> SimConfig + Send + Sync + 'static {
        let spec = self.clone();
        move |util| spec.config(util)
    }

    /// A human-readable scenario summary for report titles.
    pub fn label(&self) -> String {
        let mut s = format!("{} limit {}", self.policy.label(), self.limit);
        if let Some(sys) = &self.system {
            s.push_str(&format!(", system {sys}"));
        }
        if self.faults.is_some() {
            s.push_str(", faults");
        }
        if let Some(d) = self.disposition {
            s.push_str(&format!(", {}", d.label()));
        }
        if let Some(d) = self.discipline {
            s.push_str(&format!(", {}", d.label()));
        }
        if self.network.is_some() {
            s.push_str(", network");
        }
        s
    }
}

/// Parses a policy name (`GS`/`LS`/`LP`/`SC`/`GB`).
pub fn parse_policy(arg: Option<&str>) -> Result<PolicyKind, CoallocError> {
    match arg {
        Some("GS") => Ok(PolicyKind::Gs),
        Some("LS") => Ok(PolicyKind::Ls),
        Some("LP") => Ok(PolicyKind::Lp),
        Some("SC") => Ok(PolicyKind::Sc),
        Some("GB") => Ok(PolicyKind::Gb),
        other => Err(CoallocError::UnknownTarget {
            name: other.unwrap_or("<missing>").to_string(),
            what: "policy".to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A GS scenario with the given limit, warm-up and injected panic.
    fn gs(
        limit: Option<u32>,
        warmup: Option<&str>,
        inject_panic: Option<f64>,
    ) -> Result<ScenarioSpec, CoallocError> {
        ScenarioSpec::parse(
            Some("GS"),
            limit,
            None,
            None,
            None,
            None,
            None,
            None,
            None,
            warmup,
            inject_panic,
            Scale::Quick,
        )
    }

    fn gs16() -> ScenarioSpec {
        gs(Some(16), None, None).expect("valid scenario")
    }

    #[test]
    fn cli_and_request_paths_build_identical_configs() {
        // The bit-identity contract: one parse entry point, so equal
        // inputs give configs with equal scenario digests.
        let a = gs16();
        let b = gs16();
        assert_eq!(
            coalloc_core::point_digest(&a.config(0.4)),
            coalloc_core::point_digest(&b.config(0.4)),
        );
    }

    #[test]
    fn every_axis_is_validated_with_typed_errors() {
        let bad_policy = ScenarioSpec::parse(
            Some("XX"),
            Some(16),
            None,
            None,
            None,
            None,
            None,
            None,
            None,
            None,
            None,
            Scale::Quick,
        );
        assert!(bad_policy.is_err());
        let bad_faults = ScenarioSpec::parse(
            Some("GS"),
            Some(16),
            None,
            Some("bogus"),
            None,
            None,
            None,
            None,
            None,
            None,
            None,
            Scale::Quick,
        );
        assert!(matches!(bad_faults, Err(CoallocError::FaultSpec { .. })));
        let bad_warmup = ScenarioSpec::parse(
            Some("GS"),
            Some(16),
            None,
            None,
            None,
            None,
            None,
            None,
            None,
            Some("soon"),
            None,
            Scale::Quick,
        );
        assert!(bad_warmup.is_err());
        let bad_estimate = ScenarioSpec::parse(
            Some("GS"),
            Some(16),
            None,
            None,
            None,
            None,
            None,
            Some(-1.0),
            None,
            None,
            None,
            Scale::Quick,
        );
        assert!(bad_estimate.is_err());
        assert!(gs(Some(0), None, None).is_err(), "a zero limit");
        // Every axis parses, but the warm-up swallows every job.
        let swallowed = gs(Some(16), Some("8000"), None);
        assert!(matches!(swallowed, Err(CoallocError::Config(e)) if e.field == "warmup_jobs"));
    }

    #[test]
    fn inject_panic_breaks_exactly_one_point() {
        let spec = gs(Some(16), None, Some(0.5)).expect("the injected panic is not validated");
        let broken = spec.config(0.5);
        assert_eq!(broken.warmup_jobs, broken.total_jobs);
        let healthy = spec.config(0.3);
        assert!(healthy.warmup_jobs < healthy.total_jobs);
    }
}
