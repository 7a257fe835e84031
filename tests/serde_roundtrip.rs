//! Machine-readable output: every result type serializes to JSON and
//! comes back intact (the contract behind `coalloc-exp runjson` and the
//! serde derives across the workspace).

use coalloc::core::{PolicyKind, SimBuilder, SimConfig};

#[test]
fn sim_outcome_roundtrips_through_json() {
    let mut cfg = SimConfig::das(PolicyKind::Ls, 16, 0.4);
    cfg.total_jobs = 2_000;
    cfg.warmup_jobs = 200;
    let out = SimBuilder::new(&cfg).run();
    let json = serde_json::to_string(&out).expect("serializes");
    assert!(json.contains("\"policy\":\"LS\""));
    let back: coalloc::core::SimOutcome = serde_json::from_str(&json).expect("parses");
    assert_eq!(back.policy, out.policy);
    assert_eq!(back.completed, out.completed);
    assert_eq!(back.metrics.departures, out.metrics.departures);
    assert!((back.metrics.mean_response - out.metrics.mean_response).abs() < 1e-12);
}

#[test]
fn sweep_points_serialize() {
    use coalloc::core::experiment::{sweep, SweepConfig};
    let mut sc = SweepConfig::quick();
    sc.utilizations = vec![0.3];
    // Two replications give a finite CI half-width: JSON has no
    // representation for f64::INFINITY (it becomes null).
    sc = sc.fixed_replications(2);
    let pts = sweep(
        |util| {
            let mut cfg = SimConfig::das(PolicyKind::Gs, 16, util);
            cfg.total_jobs = 1_000;
            cfg.warmup_jobs = 100;
            // Enough batches for a finite CI (JSON cannot carry infinity).
            cfg.batch_size = 100;
            cfg
        },
        &sc,
    );
    let json = serde_json::to_string(&pts).expect("serializes");
    let back: Vec<coalloc::core::SweepPoint> = serde_json::from_str(&json).expect("parses");
    assert_eq!(back.len(), 1);
    assert_eq!(back[0].outcome.runs.len(), 2);
}

#[test]
fn saturation_and_packing_serialize() {
    let rows = coalloc::core::packing_rows(24);
    let json = serde_json::to_string(&rows).expect("serializes");
    let back: Vec<coalloc::core::PackingRow> = serde_json::from_str(&json).expect("parses");
    assert_eq!(back, rows);
}

mod bytes {
    //! The JSON writer's exact bytes. The goldens under `tests/golden/`
    //! were recorded by the earlier serializer, which built an owned
    //! value tree and then printed it; the streaming writer must print
    //! the same bytes.

    use coalloc::core::experiment::{FailedReplication, ReplicatedOutcome};
    use coalloc::core::{MetricsReport, SimOutcome, SweepPoint};
    use coalloc::desim::stats::Estimate;
    use proptest::prelude::*;

    fn metrics(x: f64) -> MetricsReport {
        MetricsReport {
            response: Estimate { mean: x, half_width: f64::INFINITY, n: 1 },
            mean_response: x,
            max_response: f64::MAX,
            response_local: Some(1e21),
            response_global: None,
            response_single: 1e-7,
            response_multi: 5e-324,
            response_per_queue: vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY],
            mean_wait: -0.0,
            response_by_size: vec![],
            median_response: 0.1 + 0.2,
            p95_response: 123_456.789,
            mean_jobs_in_system: 1.0,
            mean_queue_length: 0.0,
            throughput: 1e-3,
            gross_utilization: 0.5,
            net_utilization: 2.5e-8,
            departures: u64::MAX,
            window_seconds: 1e16,
            availability: 1.0,
            interruptions: 0,
            wasted_processor_seconds: 9_007_199_254_740_993.0,
            achieved_extension: 1.25,
            mean_active_flows: 2.5e-8,
        }
    }

    fn outcome(policy: &str, x: f64) -> SimOutcome {
        SimOutcome {
            policy: policy.to_string(),
            offered_gross_utilization: -0.0,
            metrics: metrics(x),
            arrivals: u64::MAX,
            completed: 0,
            residual_queued: 7,
            backlog_at_last_arrival: usize::MAX,
            peak_backlog: 42,
            saturated: false,
            end_time: -1e21,
            response_series: vec![-0.0, 1e-7, f64::NAN],
        }
    }

    #[test]
    fn sweep_points_write_the_recorded_bytes() {
        let full = SweepPoint {
            target_utilization: -0.0,
            outcome: ReplicatedOutcome {
                response: Estimate { mean: 827.1489226324, half_width: f64::INFINITY, n: u64::MAX },
                gross_utilization: 1e21,
                net_utilization: 1e-7,
                response_local: Some(f64::MAX),
                response_global: None,
                saturated: true,
                runs: vec![outcome("G\"S\\\n\u{1}é", 3.5)],
                failures: vec![FailedReplication {
                    rep: 3,
                    seed: u64::MAX,
                    cause: "boom \"quoted\" back\\slash\nnew\u{1}line é\t\r\u{1f}".to_string(),
                }],
            },
        };
        let empty = SweepPoint {
            target_utilization: 0.85,
            outcome: ReplicatedOutcome {
                response: Estimate { mean: 0.0, half_width: f64::NAN, n: 0 },
                gross_utilization: f64::NEG_INFINITY,
                net_utilization: f64::INFINITY,
                response_local: None,
                response_global: Some(-0.0),
                saturated: false,
                runs: vec![],
                failures: vec![],
            },
        };
        let json = serde_json::to_string(&[full, empty][..]).expect("serializes");
        assert_eq!(format!("{json}\n"), include_str!("golden/sweep_points.json"));
    }

    #[test]
    fn pretty_output_keeps_the_recorded_layout_and_negative_zero() {
        let mut out = outcome("LS", 278.0);
        out.metrics.response = Estimate { mean: 278.0, half_width: 12.5, n: 40 };
        out.response_series = vec![];
        let json = serde_json::to_string_pretty(&out).expect("serializes");
        assert_eq!(format!("{json}\n"), include_str!("golden/sim_outcome_pretty.json"));
        assert!(json.contains("\"offered_gross_utilization\": -0,"));
    }

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    enum Shape {
        Round,
        Square,
    }

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    struct Meters(f64);

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    struct Triple(u32, String, Option<f64>);

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    struct Nothing {}

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    struct Holder {
        shape: Shape,
        len: Meters,
        triple: Triple,
        nothing: Nothing,
        shapes: Vec<Shape>,
    }

    fn to_string(value: &impl serde::Serialize) -> String {
        serde_json::to_string(value).expect("serializes")
    }

    #[test]
    fn every_derived_shape_writes_json_and_reads_back() {
        assert_eq!(to_string(&Shape::Square), "\"Square\"");
        assert_eq!(to_string(&Meters(-1.5)), "-1.5");
        assert_eq!(to_string(&Triple(7, "a\"b".into(), None)), "[7,\"a\\\"b\",null]");
        assert_eq!(to_string(&Nothing {}), "{}");

        let holder = Holder {
            shape: Shape::Round,
            len: Meters(2.0),
            triple: Triple(0, "{[,:]} \\\"".into(), Some(1e-7)),
            nothing: Nothing {},
            shapes: vec![],
        };
        let json = to_string(&holder);
        assert_eq!(
            json,
            r#"{"shape":"Round","len":2,"triple":[0,"{[,:]} \\\"",0.0000001],"nothing":{},"shapes":[]}"#
        );
        assert_eq!(serde_json::from_str::<Holder>(&json).expect("parses"), holder);
        // Punctuation inside strings is copied, not laid out.
        let pretty = serde_json::to_string_pretty(&holder).expect("serializes");
        assert_eq!(
            pretty,
            "{\n  \"shape\": \"Round\",\n  \"len\": 2,\n  \"triple\": [\n    0,\n    \
             \"{[,:]} \\\\\\\"\",\n    0.0000001\n  ],\n  \"nothing\": {},\n  \"shapes\": []\n}"
        );
        assert_eq!(serde_json::from_str::<Holder>(&pretty).expect("parses"), holder);
    }

    /// Any finite float but `-0.0`, which is written `-0` and so reads
    /// back as the integer 0 (the recorded goldens pin how it is written).
    fn finite() -> impl Strategy<Value = f64> {
        prop_oneof![
            any::<u64>().prop_map(|bits| {
                let x = f64::from_bits(bits);
                if x.is_finite() && bits != (-0.0f64).to_bits() {
                    x
                } else {
                    0.0
                }
            }),
            -1e6..1e6f64,
            Just(5e-324),
            Just(f64::MAX),
            Just(f64::MIN),
        ]
    }

    fn sim_outcome() -> impl Strategy<Value = SimOutcome> {
        (
            "[\u{0}-\u{7f}é€😀]{0,12}",
            proptest::collection::vec(finite(), 30),
            proptest::collection::vec(any::<u64>(), 10),
            proptest::collection::vec(finite(), 0..6),
        )
            .prop_map(|(policy, xs, ns, series)| {
                let mut x = xs.into_iter();
                let mut f = move || x.next().expect("enough floats");
                let mut n = ns.into_iter();
                let mut u = move || n.next().expect("enough integers");
                let opt = |bits: u64, v: f64| (bits & 1 == 1).then_some(v);
                let (flags, some_local, some_global) = (u(), f(), f());
                SimOutcome {
                    policy,
                    offered_gross_utilization: f(),
                    metrics: MetricsReport {
                        response: Estimate { mean: f(), half_width: f(), n: u() },
                        mean_response: f(),
                        max_response: f(),
                        response_local: opt(flags, some_local),
                        response_global: opt(flags >> 1, some_global),
                        response_single: f(),
                        response_multi: f(),
                        response_per_queue: vec![f(), f()],
                        mean_wait: f(),
                        response_by_size: vec![f(); (flags >> 2) as usize % 4],
                        median_response: f(),
                        p95_response: f(),
                        mean_jobs_in_system: f(),
                        mean_queue_length: f(),
                        throughput: f(),
                        gross_utilization: f(),
                        net_utilization: f(),
                        departures: u(),
                        window_seconds: f(),
                        availability: f(),
                        interruptions: u(),
                        wasted_processor_seconds: f(),
                        achieved_extension: f(),
                        mean_active_flows: f(),
                    },
                    arrivals: u(),
                    completed: u(),
                    residual_queued: u() as usize,
                    backlog_at_last_arrival: u() as usize,
                    peak_backlog: u() as usize,
                    saturated: flags >> 4 & 1 == 1,
                    end_time: f(),
                    response_series: series,
                }
            })
    }

    /// Every scalar of an outcome by name, floats as bit patterns.
    fn fields(o: &SimOutcome) -> Vec<(&'static str, Option<u64>)> {
        let m = &o.metrics;
        let mut out = vec![
            ("offered_gross_utilization", Some(o.offered_gross_utilization.to_bits())),
            ("response.mean", Some(m.response.mean.to_bits())),
            ("response.half_width", Some(m.response.half_width.to_bits())),
            ("response.n", Some(m.response.n)),
            ("mean_response", Some(m.mean_response.to_bits())),
            ("max_response", Some(m.max_response.to_bits())),
            ("response_local", m.response_local.map(f64::to_bits)),
            ("response_global", m.response_global.map(f64::to_bits)),
            ("response_single", Some(m.response_single.to_bits())),
            ("response_multi", Some(m.response_multi.to_bits())),
            ("mean_wait", Some(m.mean_wait.to_bits())),
            ("median_response", Some(m.median_response.to_bits())),
            ("p95_response", Some(m.p95_response.to_bits())),
            ("mean_jobs_in_system", Some(m.mean_jobs_in_system.to_bits())),
            ("mean_queue_length", Some(m.mean_queue_length.to_bits())),
            ("throughput", Some(m.throughput.to_bits())),
            ("gross_utilization", Some(m.gross_utilization.to_bits())),
            ("net_utilization", Some(m.net_utilization.to_bits())),
            ("departures", Some(m.departures)),
            ("window_seconds", Some(m.window_seconds.to_bits())),
            ("availability", Some(m.availability.to_bits())),
            ("interruptions", Some(m.interruptions)),
            ("wasted_processor_seconds", Some(m.wasted_processor_seconds.to_bits())),
            ("achieved_extension", Some(m.achieved_extension.to_bits())),
            ("mean_active_flows", Some(m.mean_active_flows.to_bits())),
            ("arrivals", Some(o.arrivals)),
            ("completed", Some(o.completed)),
            ("residual_queued", Some(o.residual_queued as u64)),
            ("backlog_at_last_arrival", Some(o.backlog_at_last_arrival as u64)),
            ("peak_backlog", Some(o.peak_backlog as u64)),
            ("saturated", Some(u64::from(o.saturated))),
            ("end_time", Some(o.end_time.to_bits())),
        ];
        let series = [
            ("response_per_queue", &m.response_per_queue),
            ("response_by_size", &m.response_by_size),
            ("response_series", &o.response_series),
        ];
        for (name, xs) in series {
            out.push((name, Some(xs.len() as u64)));
            out.extend(xs.iter().map(|x| (name, Some(x.to_bits()))));
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Written JSON reads back to the same outcome, every float bit
        /// for bit.
        #[test]
        fn sim_outcomes_roundtrip_bit_for_bit(out in sim_outcome()) {
            let json = serde_json::to_string(&out).expect("serializes");
            let back: SimOutcome = serde_json::from_str(&json).expect("parses");
            prop_assert_eq!(&back.policy, &out.policy);
            prop_assert_eq!(fields(&back), fields(&out));
        }
    }
}
