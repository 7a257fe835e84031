//! Golden-value regression tests: the simulator is deterministic given a
//! seed, so any change to scheduling, placement, RNG streams, or metric
//! accounting shows up here as a changed number. If a change is
//! *intentional* (a semantics fix), re-record the constants and say why
//! in the commit.
//!
//! A small tolerance absorbs platform differences in `ln`/`exp`
//! rounding; it is far below any behavioural change.

use coalloc::core::{
    maximal_utilization, InvariantAuditor, JsonlSink, NetworkSpec, PolicyKind, SaturationConfig,
    SimBuilder, SimConfig,
};

const TOL: f64 = 1e-6;

fn golden_cfg(policy: PolicyKind) -> SimConfig {
    let mut cfg = if policy == PolicyKind::Sc {
        SimConfig::das_single_cluster(0.5)
    } else {
        SimConfig::das(policy, 16, 0.5)
    };
    cfg.total_jobs = 5_000;
    cfg.warmup_jobs = 500;
    cfg
}

#[test]
fn golden_outcomes_per_policy() {
    // (policy, mean response, gross utilization, completed) recorded at
    // seed 2003, 5000 jobs, limit 16, offered gross utilization 0.5.
    let golden = [
        (PolicyKind::Gs, 827.1489226324, 0.5182814697, 5000u64),
        (PolicyKind::Ls, 899.6597261147, 0.5177620484, 5000),
        (PolicyKind::Lp, 900.8306689215, 0.5182893231, 5000),
        (PolicyKind::Gb, 529.6248038409, 0.5178595931, 5000),
        (PolicyKind::Sc, 622.1386886713, 0.5171377042, 5000),
    ];
    for (policy, resp, gross, completed) in golden {
        let out = SimBuilder::new(&golden_cfg(policy)).run();
        assert!(
            (out.metrics.mean_response - resp).abs() < TOL * resp,
            "{policy}: mean response {} != golden {resp}",
            out.metrics.mean_response
        );
        assert!(
            (out.metrics.gross_utilization - gross).abs() < TOL,
            "{policy}: gross {} != golden {gross}",
            out.metrics.gross_utilization
        );
        assert_eq!(out.completed, completed, "{policy}");
    }
}

#[test]
fn golden_contended_network_outcomes() {
    // (policy, network, mean response, achieved extension, completed)
    // recorded at seed 2003, 5000 jobs, limit 16, offered gross
    // utilization 0.5, under a capacity-1 fabric of either topology.
    // These pin the max-min share kernel: a kernel change that moves a
    // single share moves a departure and with it these numbers.
    let golden = [
        (PolicyKind::Gs, NetworkSpec::pairwise(1.0), 1112.9494341408, 1.3804428348, 5000u64),
        (PolicyKind::Ls, NetworkSpec::pairwise(1.0), 1147.8244953000, 1.3848748991, 5000),
        (PolicyKind::Gs, NetworkSpec::backbone(1.0), 1514.8955713257, 1.5162198297, 5000),
        (PolicyKind::Ls, NetworkSpec::backbone(1.0), 1483.8273978406, 1.5266170865, 5000),
    ];
    for (policy, net, resp, ext, completed) in golden {
        let mut cfg = golden_cfg(policy);
        cfg.network = Some(net);
        let out = SimBuilder::new(&cfg).run();
        assert!(
            (out.metrics.mean_response - resp).abs() < TOL * resp,
            "{policy} under {net:?}: mean response {} != golden {resp}",
            out.metrics.mean_response
        );
        assert!(
            (out.metrics.achieved_extension - ext).abs() < TOL,
            "{policy} under {net:?}: achieved extension {} != golden {ext}",
            out.metrics.achieved_extension
        );
        assert_eq!(out.completed, completed, "{policy} under {net:?}");
    }
}

#[test]
fn golden_table3_maxima() {
    // (config, bits of gross, bits of net, departures, bits of window)
    // of constant-backlog runs at seed 2003, 500 warm-up and 2000
    // measured departures. Pinned bit for bit: the backlog refill draws
    // the same size, service and routing streams as the open runs, so
    // any change to the refill order, the busy accounting or the
    // gross formula shows here. LS and LP route every refill, so they
    // also pin the routing stream's consumption.
    let golden = [
        ("GS16", 0x3fe603b7a27b6603u64, 0x3fe212a367720939u64, 2000u64, 0x4107d424ee6d8c7au64),
        ("GS24", 0x3fe1a02a5c333ebc, 0x3fde1efb4a0e1f37, 2000, 0x410c8be247fac74d),
        ("GS32", 0x3fe656fb727aec17, 0x3fe351b425473d88, 2000, 0x41064ea2d364fa12),
        ("SC", 0x3fe7d58137ee3a05, 0x3fe7d58137ee3a05, 2000, 0x4101fdf86ad7bcda),
        ("LS16", 0x3fe5cd21861bf60b, 0x3fe1e5d35e087042, 2000, 0x410802a83c4eaba0),
        ("LP16", 0x3fe5b885647db5a0, 0x3fe1d4e7ee4fa019, 2000, 0x4107a5e3c342e19d),
    ];
    for (label, gross, net, departures, window) in golden {
        let mut cfg = match label {
            "GS16" => SaturationConfig::das_gs(16),
            "GS24" => SaturationConfig::das_gs(24),
            "GS32" => SaturationConfig::das_gs(32),
            "SC" => SaturationConfig::das_sc(),
            "LS16" => SaturationConfig { policy: PolicyKind::Ls, ..SaturationConfig::das_gs(16) },
            _ => SaturationConfig { policy: PolicyKind::Lp, ..SaturationConfig::das_gs(16) },
        };
        cfg.warmup_departures = 500;
        cfg.measured_departures = 2_000;
        let r = maximal_utilization(&cfg);
        assert_eq!(
            r.max_gross_utilization.to_bits(),
            gross,
            "{label}: gross {}",
            r.max_gross_utilization
        );
        assert_eq!(r.max_net_utilization.to_bits(), net, "{label}: net {}", r.max_net_utilization);
        assert_eq!(r.departures, departures, "{label}");
        assert_eq!(r.window_seconds.to_bits(), window, "{label}: window {}", r.window_seconds);
    }
}

#[test]
fn observers_do_not_perturb_the_golden_outcomes() {
    // Observers are passive by contract: the audited run must reproduce
    // the exact golden numbers of the unobserved run, and a faithful
    // run must audit clean.
    let cfg = golden_cfg(PolicyKind::Gs);
    let mut auditor = InvariantAuditor::new(&cfg);
    let out = SimBuilder::new(&cfg).run_observed(&mut auditor);
    auditor.assert_clean();
    assert!(
        (out.metrics.mean_response - 827.1489226324).abs() < TOL * 827.0,
        "observer perturbed the run: mean response {}",
        out.metrics.mean_response
    );
}

/// The JSONL event log of a small fixed-seed GS run, as bytes.
fn event_log() -> Vec<u8> {
    let mut cfg = SimConfig::das(PolicyKind::Gs, 16, 0.5);
    cfg.total_jobs = 300;
    cfg.warmup_jobs = 50;
    let mut sink = JsonlSink::new(Vec::new());
    SimBuilder::new(&cfg).run_observed(&mut sink);
    sink.finish().expect("writing to a Vec cannot fail")
}

#[test]
fn golden_event_log_is_byte_stable() {
    // Same config + seed → byte-identical JSONL, run-to-run and across
    // concurrently running threads (the simulator shares no hidden
    // mutable state).
    let reference = event_log();
    assert!(!reference.is_empty());
    let first = reference.split(|&b| b == b'\n').next().unwrap();
    assert!(
        first.starts_with(br#"{"seq":0,"t":"#),
        "schema drift in the first record: {}",
        String::from_utf8_lossy(first)
    );
    assert_eq!(reference, event_log(), "two identical runs diverged");
    let handles: Vec<_> = (0..4).map(|_| std::thread::spawn(event_log)).collect();
    for (i, h) in handles.into_iter().enumerate() {
        let log = h.join().expect("event-log thread panicked");
        assert_eq!(log, reference, "thread {i} produced a different log");
    }
}

#[test]
fn golden_job_stream() {
    // The first jobs drawn from the DAS workload at seed 2003 are pinned:
    // any change to the RNG, the pmf, or the splitting rule shows here.
    let master = coalloc::desim::RngStream::new(2003);
    let mut sizes = master.labelled("sizes");
    let mut service = master.labelled("service");
    let w = coalloc::workload::Workload::das(16);
    let first: Vec<(u32, usize)> = (0..8)
        .map(|_| {
            let j = w.sample(&mut sizes, &mut service);
            (j.request.total(), j.request.num_components())
        })
        .collect();
    assert_eq!(
        first,
        vec![(2, 1), (1, 1), (64, 4), (8, 1), (5, 1), (64, 4), (1, 1), (2, 1)],
        "job stream changed — was an RNG or distribution change intended?"
    );
}
