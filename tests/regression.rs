//! Golden-value regression tests: the simulator is deterministic given a
//! seed, so any change to scheduling, placement, RNG streams, or metric
//! accounting shows up here as a changed number. If a change is
//! *intentional* (a semantics fix), re-record the constants and say why
//! in the commit.
//!
//! A small tolerance absorbs platform differences in `ln`/`exp`
//! rounding; it is far below any behavioural change.

use coalloc::core::{
    maximal_utilization, FaultSpec, InvariantAuditor, JsonlSink, NetworkSpec, PolicyKind,
    QueueDiscipline, SaturationConfig, SimBuilder, SimConfig,
};
use coalloc::workload::JobDisposition;

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

/// 64-bit FNV-1a: a hash whose value is fixed by its definition, unlike
/// std's `DefaultHasher`, which may change between Rust releases.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// One extended-schedule case: seed 2003, 1 500 jobs, offered gross
/// utilization 0.6, SC on its one cluster, the others on 4×32 at
/// limit 16. Returns the pinned triple: the mean response's bit
/// pattern, the completed count, and the FNV-1a of the JSONL log.
fn extended_case(
    policy: PolicyKind,
    disposition: JobDisposition,
    discipline: QueueDiscipline,
    faulty: bool,
) -> (u64, u64, u64) {
    let mut cfg = if policy == PolicyKind::Sc {
        SimConfig::das_single_cluster(0.6)
    } else {
        SimConfig::das(policy, 16, 0.6)
    };
    cfg.total_jobs = 1_500;
    cfg.warmup_jobs = 150;
    cfg.disposition = disposition;
    cfg.discipline = discipline;
    if faulty {
        cfg.faults = Some(FaultSpec::Exponential { mttf: 60_000.0, mttr: 5_000.0 });
    }
    let mut sink = JsonlSink::new(Vec::new());
    let out = SimBuilder::new(&cfg).run_observed(&mut sink);
    let log = sink.finish().expect("writing to a Vec cannot fail");
    (out.metrics.mean_response.to_bits(), out.completed, fnv1a64(&log))
}

#[test]
fn golden_extended_schedules_per_policy() {
    // Every policy under {fcfs, easy, conservative} x {rigid, moldable},
    // plus one malleable conservative run with exp:60000:5000 faults.
    // The invariant auditor accepts any legal schedule, so these pin the
    // one the policies choose: a refactor that backfilled a different
    // legal job, or re-split a job differently, moves the log hash.
    use JobDisposition::{Malleable, Moldable, Rigid};
    use PolicyKind::{Gb, Gs, Lp, Ls, Sc};
    use QueueDiscipline::{Conservative as Cons, Easy, Fcfs};
    let golden = [
        (Gs, Rigid, Fcfs, false, 0x40972aadb8fa7643, 1500, 0xc887d4bd487d7e76),
        (Gs, Rigid, Easy, false, 0x408437816c3e7437, 1500, 0xac04ca3f6041b2b6),
        (Gs, Rigid, Cons, false, 0x408c3b5ccef1f116, 1500, 0x2e2d9c0ced347e80),
        (Gs, Moldable, Fcfs, false, 0x4095a9359b5fbcc9, 1500, 0x7e75a4aff85ac1b5),
        (Gs, Moldable, Easy, false, 0x408241bceaa1eab0, 1500, 0xed8dc30aa83820eb),
        (Gs, Moldable, Cons, false, 0x408a39f346d4cfd3, 1500, 0xa69af92c6fd5fe29),
        (Gs, Malleable, Cons, true, 0x4096cec7598574c7, 1500, 0x1fb87355998cf689),
        (Ls, Rigid, Fcfs, false, 0x409e24fed1915ab5, 1500, 0xa3a8da414f908d02),
        (Ls, Rigid, Easy, false, 0x4087558124f2434d, 1500, 0x2921fb16846e334c),
        (Ls, Rigid, Cons, false, 0x4089a85a8af8b8c3, 1500, 0x51c996253f61e0e6),
        (Ls, Moldable, Fcfs, false, 0x40a0a783725d615c, 1500, 0xe3e6fc85c90b6f3e),
        (Ls, Moldable, Easy, false, 0x408553abac2a6b53, 1500, 0x0df4a0a8db5d274a),
        (Ls, Moldable, Cons, false, 0x408857fa07e33a76, 1500, 0x8fa3581267db98e5),
        (Ls, Malleable, Cons, true, 0x409eaf69a17b22f8, 1500, 0xe09c23a30a0545c1),
        (Lp, Rigid, Fcfs, false, 0x40a6fbe54bd813f4, 1500, 0xd95c14141168816d),
        (Lp, Rigid, Easy, false, 0x4085c6f79684ea5e, 1500, 0x09dbc9a4278087d2),
        (Lp, Rigid, Cons, false, 0x409870d6a4bdcb2d, 1500, 0x48a683ead65cab34),
        (Lp, Moldable, Fcfs, false, 0x40a046fd35ff6968, 1500, 0x33d95a19c5ffa958),
        (Lp, Moldable, Easy, false, 0x4084699120a01bf0, 1500, 0x81d2706d82333a34),
        (Lp, Moldable, Cons, false, 0x4095d476df084a0f, 1500, 0x0522ce294d053229),
        (Lp, Malleable, Cons, true, 0x409f694aa0ba19d3, 1500, 0x36e1f96b05b891ee),
        (Sc, Rigid, Fcfs, false, 0x408b3f501d99b789, 1500, 0x43d9b802c5e154bd),
        (Sc, Rigid, Easy, false, 0x407e2a2e3bdfe30a, 1500, 0x76de5fc75f8707a4),
        (Sc, Rigid, Cons, false, 0x4083d3aaeeb7d3fb, 1500, 0x2d8a84f0de2238d9),
        (Sc, Moldable, Fcfs, false, 0x408b3f501d99b789, 1500, 0x43d9b802c5e154bd),
        (Sc, Moldable, Easy, false, 0x407e2a2e3bdfe30a, 1500, 0x76de5fc75f8707a4),
        (Sc, Moldable, Cons, false, 0x4083d3aaeeb7d3fb, 1500, 0x2d8a84f0de2238d9),
        (Sc, Malleable, Cons, true, 0x40be2e0ad2e21850, 1500, 0x7bf05972dda0d61d),
        (Gb, Rigid, Fcfs, false, 0x4086036af3a1c16f, 1500, 0xbf1fd5781584d91b),
        (Gb, Rigid, Easy, false, 0x408437816c3e7437, 1500, 0x8a04b6658091a1f8),
        (Gb, Rigid, Cons, false, 0x408c3b5ccef1f116, 1500, 0x83084dfb246a63a3),
        (Gb, Moldable, Fcfs, false, 0x4084d9291103342a, 1500, 0x2859c3b3a6ba279a),
        (Gb, Moldable, Easy, false, 0x408241bceaa1eab0, 1500, 0xfc17f82c76a5bab8),
        (Gb, Moldable, Cons, false, 0x408a39f346d4cfd3, 1500, 0xd6ced936f7d57324),
        (Gb, Malleable, Cons, true, 0x4096cec7598574c7, 1500, 0x616b044dad0229b1),
    ];
    for (policy, disposition, discipline, faulty, resp, completed, log) in golden {
        let got = extended_case(policy, disposition, discipline, faulty);
        assert_eq!(
            got,
            (resp, completed, log),
            "{policy} {disposition:?} {discipline:?} faulty={faulty}: mean response {}",
            f64::from_bits(got.0)
        );
    }
}
