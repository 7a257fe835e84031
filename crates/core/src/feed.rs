//! Job feeds: where the simulated job stream comes from.
//!
//! The paper *samples distributions* derived from a log (stochastic
//! feed); the natural companion for a trace-based simulator is *direct
//! replay* of a log's arrivals, sizes and runtimes (trace feed), with a
//! time-scale knob to vary the offered load as trace-driven studies do.
//! Table 3's maximal utilization needs a third kind: a *constant
//! backlog* that keeps the queues topped up instead of arriving on a
//! clock (backlog feed).

use coalloc_trace::Trace;
use coalloc_workload::{ArrivalProcess, JobRequest, JobSpec, Workload};
use desim::{Duration, RngStream, SimTime};

/// A source of jobs for the simulation loop: each call yields the next
/// job's absolute arrival time and specification, or `None` when the
/// stream ends.
pub trait JobFeed {
    /// The next arrival, in non-decreasing time order.
    fn next_job(&mut self) -> Option<(SimTime, JobSpec)>;

    /// The constant-backlog floor this feed holds, or 0 (the default)
    /// for a feed of timed arrivals. A run ([`crate::SimBuilder`]) reads
    /// it once; for a floor above 0 it schedules no arrival events,
    /// tops the queues up to the floor at the start of every scheduling
    /// pass (the first at t = 0) with jobs from [`JobFeed::next_job`]
    /// stamped with the pass's time, and stops after the pass that
    /// follows departure number `total_jobs`.
    fn backlog(&self) -> usize {
        0
    }
}

/// The paper's stochastic feed: Poisson (or bursty renewal) arrivals,
/// i.i.d. sizes and service times sampled from the workload model.
pub struct StochasticFeed {
    workload: Workload,
    arrivals: ArrivalProcess,
    size_rng: RngStream,
    service_rng: RngStream,
    gap_rng: RngStream,
    clock: SimTime,
    remaining: u64,
}

impl StochasticFeed {
    /// Builds a feed of `total_jobs` jobs at the given rate and
    /// interarrival CV², drawing all randomness from substreams of
    /// `master`.
    pub fn new(
        workload: Workload,
        rate: f64,
        arrival_cv2: f64,
        total_jobs: u64,
        master: &RngStream,
    ) -> Self {
        StochasticFeed {
            workload,
            arrivals: ArrivalProcess::with_cv2(rate, arrival_cv2),
            size_rng: master.labelled("sizes"),
            service_rng: master.labelled("service"),
            gap_rng: master.labelled("arrivals"),
            clock: SimTime::ZERO,
            remaining: total_jobs,
        }
    }
}

impl JobFeed for StochasticFeed {
    fn next_job(&mut self) -> Option<(SimTime, JobSpec)> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.clock += self.arrivals.next_gap(&mut self.gap_rng);
        let spec = self.workload.sample(&mut self.size_rng, &mut self.service_rng);
        Some((self.clock, spec))
    }
}

/// The paper's constant backlog (§4, Table 3): an endless stream of
/// jobs sampled from the workload model, drawn whenever fewer than
/// `floor` jobs wait. Sizes and service times come from the same
/// `"sizes"`/`"service"` substreams as [`StochasticFeed`]'s, so a
/// backlog run and an open run on one seed see the same job sequence.
pub struct BacklogFeed {
    workload: Workload,
    floor: usize,
    size_rng: RngStream,
    service_rng: RngStream,
}

impl BacklogFeed {
    /// Builds a feed that keeps at least `floor` jobs waiting, drawing
    /// all randomness from substreams of `master`.
    ///
    /// # Panics
    /// Panics on a zero floor, which would be an open system with no
    /// arrivals.
    pub fn new(workload: Workload, floor: usize, master: &RngStream) -> Self {
        assert!(floor > 0, "backlog must be positive");
        BacklogFeed {
            workload,
            floor,
            size_rng: master.labelled("sizes"),
            service_rng: master.labelled("service"),
        }
    }
}

impl JobFeed for BacklogFeed {
    /// The next job; its time is meaningless (the session stamps each
    /// refill with the time of the pass that draws it).
    fn next_job(&mut self) -> Option<(SimTime, JobSpec)> {
        Some((SimTime::ZERO, self.workload.sample(&mut self.size_rng, &mut self.service_rng)))
    }

    fn backlog(&self) -> usize {
        self.floor
    }
}

/// Direct replay of a workload log: the log's submit times (compressed
/// by `time_scale` — values below 1 increase the offered load), its
/// sizes (split under the configured limit), and its runtimes as base
/// service times.
pub struct TraceFeed {
    /// `(submit_seconds, size, runtime_seconds)` in submit order
    /// (records sharing a submit time in log order).
    jobs: std::vec::IntoIter<(f64, u32, f64)>,
    limit: u32,
    clusters: usize,
    time_scale: f64,
}

impl TraceFeed {
    /// Builds a replay feed from a log.
    ///
    /// Records with a non-positive runtime — cancelled or failed jobs,
    /// common in real logs — are **skipped**, not replayed: such a job
    /// never occupied processors, and replaying it with a clamped
    /// near-zero runtime (as an earlier version did) injects phantom
    /// arrivals that perturb queue order and the arrival count. Size
    /// the run by [`TraceFeed::len`], not by the raw log length.
    ///
    /// Real logs are not always in submit order, so the records replay
    /// in submit order whatever the log's order. The sort is stable:
    /// records that share a submit time keep their log order.
    ///
    /// # Panics
    /// Panics on a non-positive time scale, a submit time that is not
    /// a number, or a log with no positive-runtime record left to
    /// replay.
    pub fn new(trace: &Trace, limit: u32, clusters: usize, time_scale: f64) -> Self {
        assert!(!trace.is_empty(), "cannot replay an empty log");
        assert!(time_scale > 0.0 && time_scale.is_finite(), "time scale must be positive");
        let mut jobs: Vec<(f64, u32, f64)> = trace
            .jobs
            .iter()
            .filter(|j| j.runtime > 0.0)
            .map(|j| (j.submit, j.size, j.runtime))
            .collect();
        assert!(!jobs.is_empty(), "cannot replay a log with no positive-runtime jobs");
        jobs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("submit times are comparable"));
        TraceFeed { jobs: jobs.into_iter(), limit, clusters, time_scale }
    }

    /// Jobs remaining to replay (zero-runtime records already filtered).
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the feed is exhausted.
    pub fn is_empty(&self) -> bool {
        self.jobs.len() == 0
    }
}

impl JobFeed for TraceFeed {
    fn next_job(&mut self) -> Option<(SimTime, JobSpec)> {
        let (submit, size, runtime) = self.jobs.next()?;
        // The log's recorded runtime doubles as the job's runtime
        // estimate: backfilling disciplines replay the trace with
        // perfect per-job estimates instead of a global multiplier.
        let spec = JobSpec {
            request: JobRequest::from_total(size, self.limit, self.clusters).with_estimate(runtime),
            base_service: Duration::new(runtime),
        };
        Some((SimTime::new(submit * self.time_scale), spec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coalloc_trace::{DasLogConfig, JobStatus, TraceJob};

    #[test]
    fn stochastic_feed_is_monotone_and_bounded() {
        let master = RngStream::new(1);
        let mut feed = StochasticFeed::new(Workload::das(16), 0.1, 1.0, 100, &master);
        let mut prev = SimTime::ZERO;
        let mut count = 0;
        while let Some((t, spec)) = feed.next_job() {
            assert!(t >= prev);
            assert!(spec.request.total() >= 1);
            prev = t;
            count += 1;
        }
        assert_eq!(count, 100);
    }

    #[test]
    fn backlog_feed_is_endless_and_draws_the_stochastic_job_sequence() {
        // Same seed, same substreams: the backlog's jobs are the open
        // feed's jobs, without the arrival clock.
        let master = RngStream::new(7);
        let mut open = StochasticFeed::new(Workload::das(16), 0.1, 1.0, 50, &master);
        let mut backlog = BacklogFeed::new(Workload::das(16), 50, &master);
        assert_eq!(backlog.backlog(), 50);
        assert_eq!(open.backlog(), 0, "timed feeds hold no backlog");
        while let Some((_, spec)) = open.next_job() {
            assert_eq!(backlog.next_job().map(|(_, s)| s), Some(spec));
        }
        assert!(backlog.next_job().is_some(), "a backlog never runs dry");
    }

    #[test]
    fn trace_feed_replays_in_order_with_scaling() {
        let mut trace = Trace::new("toy", 128);
        for (i, (submit, size, rt)) in
            [(0.0, 64u32, 100.0), (10.0, 8, 50.0), (30.0, 128, 900.0)].iter().enumerate()
        {
            trace.jobs.push(TraceJob {
                id: i as u32 + 1,
                submit: *submit,
                size: *size,
                runtime: *rt,
                user: 0,
                status: JobStatus::Completed,
            });
        }
        let mut feed = TraceFeed::new(&trace, 16, 4, 0.5);
        let (t1, s1) = feed.next_job().expect("first job");
        assert_eq!(t1, SimTime::ZERO);
        assert_eq!(s1.request.components(), &[16, 16, 16, 16]);
        assert_eq!(s1.base_service.seconds(), 100.0);
        assert_eq!(s1.request.estimate(), Some(100.0), "runtime doubles as the estimate");
        let (t2, _) = feed.next_job().expect("second job");
        assert_eq!(t2, SimTime::new(5.0), "time compressed by 0.5");
        let (t3, s3) = feed.next_job().expect("third job");
        assert_eq!(t3, SimTime::new(15.0));
        assert_eq!(s3.request.num_components(), 4);
        assert!(feed.next_job().is_none());
    }

    #[test]
    fn trace_feed_replays_the_synthetic_log() {
        let log =
            coalloc_trace::generate_das1_log(&DasLogConfig { jobs: 500, ..Default::default() });
        let mut feed = TraceFeed::new(&log, 16, 4, 1.0);
        let mut count = 0;
        let mut prev = SimTime::ZERO;
        while let Some((t, _)) = feed.next_job() {
            assert!(t >= prev);
            prev = t;
            count += 1;
        }
        assert_eq!(count, 500);
    }

    fn toy_trace(records: &[(f64, u32, f64)]) -> Trace {
        let mut trace = Trace::new("toy", 128);
        for (i, &(submit, size, runtime)) in records.iter().enumerate() {
            trace.jobs.push(TraceJob {
                id: i as u32 + 1,
                submit,
                size,
                runtime,
                user: 0,
                status: JobStatus::Completed,
            });
        }
        trace
    }

    #[test]
    fn zero_runtime_records_are_skipped() {
        // The middle record is a cancelled job (runtime 0): it is not
        // replayed at all — the old clamp to f64::MIN_POSITIVE turned it
        // into a phantom near-instantaneous arrival.
        let trace = toy_trace(&[(0.0, 8, 100.0), (5.0, 16, 0.0), (9.0, 4, 50.0)]);
        let mut feed = TraceFeed::new(&trace, 16, 4, 1.0);
        assert_eq!(feed.len(), 2);
        let (t1, s1) = feed.next_job().expect("first job");
        assert_eq!((t1, s1.request.total()), (SimTime::ZERO, 8));
        let (t2, s2) = feed.next_job().expect("second job");
        assert_eq!((t2, s2.request.total()), (SimTime::new(9.0), 4));
        assert!(s2.base_service.seconds() > 0.0);
        assert!(feed.next_job().is_none());
        assert!(feed.is_empty());
    }

    #[test]
    fn an_out_of_order_log_replays_in_submit_order() {
        // Stable: the two records submitted at 50 keep their log order.
        let trace =
            toy_trace(&[(100.0, 8, 10.0), (50.0, 4, 20.0), (200.0, 2, 30.0), (50.0, 1, 40.0)]);
        let mut feed = TraceFeed::new(&trace, 16, 4, 1.0);
        let mut replayed = Vec::new();
        while let Some((t, spec)) = feed.next_job() {
            replayed.push((t.seconds(), spec.request.total()));
        }
        assert_eq!(replayed, [(50.0, 4), (50.0, 1), (100.0, 8), (200.0, 2)]);
    }

    #[test]
    #[should_panic(expected = "no positive-runtime")]
    fn all_zero_runtime_log_rejected() {
        TraceFeed::new(&toy_trace(&[(0.0, 8, 0.0), (1.0, 4, 0.0)]), 16, 4, 1.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_trace_rejected() {
        TraceFeed::new(&Trace::new("empty", 8), 16, 4, 1.0);
    }
}
