//! Using the simulator as a general queueing tool with a custom
//! workload, validated against exact M/M/c (Erlang-C) results.
//!
//! A single cluster fed with single-processor jobs and exponential
//! service is exactly an M/M/c queue, for which the mean response time
//! is known in closed form. This example runs the full co-allocation
//! simulator on that degenerate configuration and compares.
//!
//! Run with: `cargo run --release --example custom_workload`

use coalloc::core::{PolicyKind, SimBuilder, SimConfig, SystemSpec};
use coalloc::workload::{JobSizeDist, QueueRouting, ServiceDist, Workload};

use coalloc::desim::queueing::mmc_mean_response;

fn main() {
    let c = 16u32; // servers
    let mean_service = 120.0;
    let workload = Workload::custom(
        JobSizeDist::custom("unit jobs", &[(1, 1.0)]),
        ServiceDist::exponential(mean_service),
        1,
        1,
    )
    .with_extension(1.0);

    println!("M/M/{c} validation: unit-size jobs, exponential service (mean {mean_service}s)");
    println!("{:>6} {:>12} {:>12} {:>8}", "rho", "simulated", "Erlang-C", "error");
    for rho in [0.3, 0.5, 0.7, 0.85] {
        let lambda = rho * f64::from(c) / mean_service;
        let cfg = SimConfig {
            policy: PolicyKind::Sc,
            workload: workload.clone(),
            routing: QueueRouting::balanced(1),
            system: SystemSpec::new([c]),
            arrival_rate: lambda,
            arrival_cv2: 1.0,
            total_jobs: 200_000,
            warmup_jobs: 20_000,
            warmup: coalloc::core::Warmup::Fixed,
            batch_size: 2_000,
            rule: coalloc::core::PlacementRule::WorstFit,
            record_series: false,
            seed: 42,
            faults: None,
            interrupt: coalloc::core::InterruptPolicy::RequeueFront,
            disposition: coalloc::workload::JobDisposition::Rigid,
            discipline: coalloc::core::QueueDiscipline::Fcfs,
            estimate_factor: 2.0,
            resize: coalloc::core::ResizePolicy::GrowAndShrink,
            network: None,
        };
        let out = SimBuilder::new(&cfg).run();
        let exact = mmc_mean_response(lambda, 1.0 / mean_service, c);
        let err = (out.metrics.mean_response - exact).abs() / exact;
        println!(
            "{rho:>6.2} {:>12.1} {:>12.1} {:>7.2}%",
            out.metrics.mean_response,
            exact,
            100.0 * err
        );
    }
    println!();
    println!("The simulator reproduces the analytic M/M/c response times, which");
    println!("validates the event engine, the FCFS queueing, and the statistics");
    println!("pipeline underneath the co-allocation study.");
}
