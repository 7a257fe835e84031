//! Run-time metrics: response times (overall, per class, per queue) and
//! gross vs net utilization (§2.4, §4).
//!
//! * **Gross utilization** — time-average fraction of processors
//!   allocated; jobs hold processors for their *extended* service time,
//!   "since there is no preemption for communication".
//! * **Net utilization** — only computation plus fast local
//!   communication counts: the non-extended service times. Measured as
//!   the net processor-seconds of jobs departing in the observation
//!   window over capacity × window.

use desim::stats::{BatchMeans, Estimate, TimeWeighted, Welford};
use desim::{P2Quantile, SimTime};

use crate::job::{ActiveJob, SubmitQueue};

/// The job-size classes used for the per-size response breakdown: the
/// buckets mirror the power-of-two structure of the DAS workload.
pub const SIZE_CLASS_BOUNDS: &[u32] = &[8, 16, 32, 64, u32::MAX];

/// Human-readable labels for [`SIZE_CLASS_BOUNDS`].
pub fn size_class_labels() -> Vec<&'static str> {
    vec!["1-8", "9-16", "17-32", "33-64", "65+"]
}

fn size_class(total: u32) -> usize {
    SIZE_CLASS_BOUNDS.iter().position(|&b| total <= b).expect("last bound is MAX")
}

/// Collects metrics over an observation window (opened after warm-up).
#[derive(Debug)]
pub struct Metrics {
    capacity: u32,
    window_start: SimTime,
    /// Gross busy processors as a time-weighted signal.
    busy: TimeWeighted,
    /// Net processor-seconds completed in the window.
    net_work: f64,
    response_all: Welford,
    response_batches: BatchMeans,
    response_local: Welford,
    response_global: Welford,
    response_single: Welford,
    response_multi: Welford,
    response_per_queue: Vec<Welford>,
    response_median: P2Quantile,
    response_p95: P2Quantile,
    wait_all: Welford,
    response_by_size: Vec<Welford>,
    /// Raw response observations, kept only when series recording is on.
    series: Option<Vec<f64>>,
    /// Jobs in the system (queued + running), time-weighted, for the
    /// Little's-law cross-check L = λ·W.
    in_system: TimeWeighted,
    /// Jobs waiting in queues, time-weighted (queue-level Little's law:
    /// Lq = λ·Wq).
    queued: TimeWeighted,
    /// Processors offline due to cluster failures, time-weighted (zero
    /// for the whole run unless fault injection is on).
    unavailable: TimeWeighted,
    /// Running jobs killed by cluster failures in the window.
    interruptions: u64,
    /// Processor-seconds of partial work thrown away by those kills
    /// (processors held × time since the victim's start).
    wasted_work: f64,
    /// Concurrent wide-area flows (running multi-cluster jobs),
    /// time-weighted; only updated under the network occupancy model.
    flows: TimeWeighted,
    /// Seconds multi-cluster jobs actually held their processors, summed
    /// over measured departures (numerator of the achieved extension).
    ext_held: f64,
    /// The same jobs' base service seconds (denominator).
    ext_base: f64,
    departures_in_window: u64,
    batch_size: u64,
}

impl Metrics {
    /// Creates a collector for a system of `capacity` processors and
    /// `queues` queues, batching response times by `batch_size`.
    pub fn new(capacity: u32, queues: usize, batch_size: u64) -> Self {
        Metrics {
            capacity,
            window_start: SimTime::ZERO,
            busy: TimeWeighted::new(SimTime::ZERO, 0.0),
            net_work: 0.0,
            response_all: Welford::new(),
            response_batches: BatchMeans::new(batch_size),
            response_local: Welford::new(),
            response_global: Welford::new(),
            response_single: Welford::new(),
            response_multi: Welford::new(),
            response_per_queue: (0..queues.max(1)).map(|_| Welford::new()).collect(),
            response_median: P2Quantile::new(0.5),
            response_p95: P2Quantile::new(0.95),
            wait_all: Welford::new(),
            response_by_size: (0..SIZE_CLASS_BOUNDS.len()).map(|_| Welford::new()).collect(),
            series: None,
            in_system: TimeWeighted::new(SimTime::ZERO, 0.0),
            queued: TimeWeighted::new(SimTime::ZERO, 0.0),
            unavailable: TimeWeighted::new(SimTime::ZERO, 0.0),
            interruptions: 0,
            wasted_work: 0.0,
            flows: TimeWeighted::new(SimTime::ZERO, 0.0),
            ext_held: 0.0,
            ext_base: 0.0,
            departures_in_window: 0,
            batch_size,
        }
    }

    /// Records the current number of waiting jobs (called after every
    /// scheduling pass).
    pub fn record_queue_length(&mut self, now: SimTime, queued: usize) {
        self.queued.update(now, queued as f64);
    }

    /// Turns on recording of the raw response-time series (for MSER-style
    /// warm-up analysis); costs one `f64` per measured departure.
    pub fn record_series(&mut self) {
        self.series = Some(Vec::new());
    }

    /// Records a job entering the system (submission).
    pub fn record_arrival(&mut self, now: SimTime) {
        self.in_system.add(now, 1.0);
    }

    /// Records processors becoming busy (a job started).
    pub fn record_allocate(&mut self, now: SimTime, procs: u32) {
        self.busy.add(now, f64::from(procs));
    }

    /// Records processors becoming idle (a job departed).
    pub fn record_release(&mut self, now: SimTime, procs: u32) {
        self.busy.add(now, -f64::from(procs));
    }

    /// Records the total number of offline processors after a failure
    /// or repair changed it.
    pub fn record_outage_level(&mut self, now: SimTime, offline: u32) {
        self.unavailable.update(now, f64::from(offline));
    }

    /// Records a running job killed by a cluster failure, throwing away
    /// `wasted` processor-seconds of partial work.
    pub fn record_interruption(&mut self, now: SimTime, wasted: f64) {
        let _ = now;
        self.interruptions += 1;
        self.wasted_work += wasted;
    }

    /// Records the number of concurrent wide-area flows after the flow
    /// set changed (network occupancy model only; fault-free faithful
    /// runs never call this, so `mean_active_flows` reports 0 there).
    pub fn record_flow_level(&mut self, now: SimTime, flows: usize) {
        self.flows.update(now, flows as f64);
    }

    /// Discards everything gathered so far and restarts the observation
    /// window at `now` (end of warm-up). Busy-processor tracking keeps its
    /// current level.
    pub fn reset_window(&mut self, now: SimTime) {
        self.busy.update(now, self.busy.value());
        self.busy.reset_window(now);
        self.window_start = now;
        self.net_work = 0.0;
        self.response_batches = BatchMeans::new(self.batch_size);
        self.response_all = Welford::new();
        self.response_local = Welford::new();
        self.response_global = Welford::new();
        self.response_single = Welford::new();
        self.response_multi = Welford::new();
        for w in &mut self.response_per_queue {
            *w = Welford::new();
        }
        self.response_median = P2Quantile::new(0.5);
        self.response_p95 = P2Quantile::new(0.95);
        self.wait_all = Welford::new();
        for w in &mut self.response_by_size {
            *w = Welford::new();
        }
        if let Some(series) = &mut self.series {
            series.clear();
        }
        let pop = self.in_system.value();
        self.in_system.update(now, pop);
        self.in_system.reset_window(now);
        let q = self.queued.value();
        self.queued.update(now, q);
        self.queued.reset_window(now);
        let off = self.unavailable.value();
        self.unavailable.update(now, off);
        self.unavailable.reset_window(now);
        self.interruptions = 0;
        self.wasted_work = 0.0;
        let fl = self.flows.value();
        self.flows.update(now, fl);
        self.flows.reset_window(now);
        self.ext_held = 0.0;
        self.ext_base = 0.0;
        self.departures_in_window = 0;
    }

    /// Records a job leaving the system, regardless of the window (the
    /// Little's-law population must always balance).
    pub fn record_exit(&mut self, now: SimTime) {
        self.in_system.add(now, -1.0);
    }

    /// Records a job departure inside the observation window.
    pub fn record_departure(&mut self, now: SimTime, job: &ActiveJob) {
        let response = (now - job.arrival).seconds();
        self.response_all.add(response);
        self.response_batches.add(response);
        self.response_median.add(response);
        self.response_p95.add(response);
        if let Some(start) = job.start {
            self.wait_all.add((start - job.arrival).seconds());
        }
        self.response_by_size[size_class(job.spec.request.total())].add(response);
        if let Some(series) = &mut self.series {
            series.push(response);
        }
        match job.queue {
            SubmitQueue::Local(i) => {
                self.response_local.add(response);
                if i < self.response_per_queue.len() {
                    self.response_per_queue[i].add(response);
                }
            }
            SubmitQueue::Global => {
                self.response_global.add(response);
                let last = self.response_per_queue.len() - 1;
                self.response_per_queue[last].add(response);
            }
        }
        if job.spec.request.is_multi() {
            self.response_multi.add(response);
        } else {
            self.response_single.add(response);
        }
        self.net_work += f64::from(job.spec.request.total()) * job.spec.base_service.seconds();
        // The achieved extension: how long multi-cluster jobs *actually*
        // held their processors relative to their base service. Under
        // the faithful model this is the nominal extension factor by
        // construction; under the network model it grows with load.
        if let (Some(p), Some(start)) = (&job.placement, job.start) {
            if p.assignments().len() >= 2 {
                self.ext_held += (now - start).seconds();
                self.ext_base += job.spec.base_service.seconds();
            }
        }
        self.departures_in_window += 1;
    }

    /// Produces the final report at time `now`.
    pub fn report(&self, now: SimTime) -> MetricsReport {
        let window = (now - self.window_start).seconds();
        let denom = f64::from(self.capacity) * window;
        MetricsReport {
            response: self.response_batches.estimate(),
            mean_response: self.response_all.mean(),
            max_response: if self.response_all.count() > 0 { self.response_all.max() } else { 0.0 },
            response_local: self.response_local.mean_opt(),
            response_global: self.response_global.mean_opt(),
            response_single: self.response_single.mean(),
            response_multi: self.response_multi.mean(),
            response_per_queue: self.response_per_queue.iter().map(Welford::mean).collect(),
            mean_wait: self.wait_all.mean(),
            response_by_size: self.response_by_size.iter().map(Welford::mean).collect(),
            median_response: self.response_median.estimate(),
            p95_response: self.response_p95.estimate(),
            mean_jobs_in_system: self.in_system.average(now),
            mean_queue_length: self.queued.average(now),
            throughput: if window > 0.0 { self.departures_in_window as f64 / window } else { 0.0 },
            gross_utilization: if denom > 0.0 { self.busy.integral(now) / denom } else { 0.0 },
            net_utilization: if denom > 0.0 { self.net_work / denom } else { 0.0 },
            departures: self.departures_in_window,
            window_seconds: window,
            availability: if denom > 0.0 {
                1.0 - self.unavailable.integral(now) / denom
            } else {
                1.0
            },
            interruptions: self.interruptions,
            wasted_processor_seconds: self.wasted_work,
            achieved_extension: if self.ext_base > 0.0 {
                self.ext_held / self.ext_base
            } else {
                0.0
            },
            mean_active_flows: self.flows.average(now),
        }
    }

    /// The recorded raw response series (empty unless
    /// [`Metrics::record_series`] was called).
    pub fn take_series(&mut self) -> Vec<f64> {
        self.series.take().unwrap_or_default()
    }
}

/// The measured quantities of one simulation run's observation window.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct MetricsReport {
    /// Batch-means estimate of the mean response time (with 95 % CI).
    pub response: Estimate,
    /// Plain sample mean response time over the window.
    pub mean_response: f64,
    /// Largest observed response time.
    pub max_response: f64,
    /// Mean response of jobs submitted to local queues (LS/LP), `None`
    /// when no measured job used one — under GS/SC every job is global,
    /// and a 0.0 here used to be averaged into sweep aggregates as if it
    /// were a measurement.
    pub response_local: Option<f64>,
    /// Mean response of jobs submitted to the global queue (GS/LP),
    /// `None` when the class is empty (LS routes everything locally).
    pub response_global: Option<f64>,
    /// Mean response of single-component jobs.
    pub response_single: f64,
    /// Mean response of multi-component jobs.
    pub response_multi: f64,
    /// Mean response per queue (local queues first, global last).
    pub response_per_queue: Vec<f64>,
    /// Mean waiting time (start − arrival) of measured jobs.
    pub mean_wait: f64,
    /// Mean response per job-size class (see
    /// [`size_class_labels`]; zero for empty classes).
    pub response_by_size: Vec<f64>,
    /// Streaming (P²) estimate of the median response time.
    pub median_response: f64,
    /// Streaming (P²) estimate of the 95th-percentile response time.
    pub p95_response: f64,
    /// Time-average number of jobs in the system (queued + running).
    pub mean_jobs_in_system: f64,
    /// Time-average number of jobs waiting in queues.
    pub mean_queue_length: f64,
    /// Departures per simulated second in the window.
    pub throughput: f64,
    /// Measured gross utilization (extended occupancy).
    pub gross_utilization: f64,
    /// Measured net utilization (base service only).
    pub net_utilization: f64,
    /// Departures inside the window.
    pub departures: u64,
    /// Window length in simulated seconds.
    pub window_seconds: f64,
    /// Time-average fraction of processors *available* in the window
    /// (1.0 for fault-free runs).
    pub availability: f64,
    /// Running jobs killed by cluster failures in the window.
    pub interruptions: u64,
    /// Processor-seconds of partial work those kills threw away.
    pub wasted_processor_seconds: f64,
    /// Work-weighted mean of (held time / base service) over measured
    /// multi-cluster departures — the extension the run *achieved*.
    /// Exactly the nominal factor under the faithful model; rises with
    /// load under the network model ([`crate::sim::NetworkSpec`]); 0.0 when no
    /// multi-cluster job was measured (e.g. SC).
    pub achieved_extension: f64,
    /// Time-average number of concurrent wide-area flows (running
    /// multi-cluster jobs); 0.0 unless the network model is active.
    pub mean_active_flows: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use coalloc_workload::{JobRequest, JobSpec};
    use desim::Duration;

    fn job(components: &[u32], service: f64, arrival: f64, queue: SubmitQueue) -> ActiveJob {
        ActiveJob::new(
            JobSpec {
                request: JobRequest::new(components.to_vec()),
                base_service: Duration::new(service),
            },
            SimTime::new(arrival),
            queue,
        )
    }

    #[test]
    fn utilization_accounting() {
        let mut m = Metrics::new(100, 1, 10);
        // 50 processors busy over [0, 100): gross integral 5000.
        m.record_allocate(SimTime::ZERO, 50);
        m.record_release(SimTime::new(100.0), 50);
        let j = job(&[50], 80.0, 0.0, SubmitQueue::Global);
        m.record_departure(SimTime::new(100.0), &j);
        let r = m.report(SimTime::new(100.0));
        assert!((r.gross_utilization - 0.5).abs() < 1e-12);
        // Net: 50 procs × 80 s = 4000 over 100×100.
        assert!((r.net_utilization - 0.4).abs() < 1e-12);
        assert_eq!(r.departures, 1);
        assert!((r.mean_response - 100.0).abs() < 1e-12);
    }

    #[test]
    fn class_and_queue_breakdown() {
        let mut m = Metrics::new(128, 5, 10);
        let a = job(&[8], 10.0, 0.0, SubmitQueue::Local(0));
        let b = job(&[8, 8], 10.0, 0.0, SubmitQueue::Global);
        m.record_departure(SimTime::new(50.0), &a);
        m.record_departure(SimTime::new(150.0), &b);
        let r = m.report(SimTime::new(200.0));
        assert!((r.response_local.expect("local jobs measured") - 50.0).abs() < 1e-12);
        assert!((r.response_global.expect("global jobs measured") - 150.0).abs() < 1e-12);
        assert!((r.response_single - 50.0).abs() < 1e-12);
        assert!((r.response_multi - 150.0).abs() < 1e-12);
        assert!((r.mean_response - 100.0).abs() < 1e-12);
        assert!((r.response_per_queue[0] - 50.0).abs() < 1e-12);
        assert!((r.response_per_queue[4] - 150.0).abs() < 1e-12);
    }

    #[test]
    fn warmup_reset_discards_history() {
        let mut m = Metrics::new(10, 1, 5);
        m.record_allocate(SimTime::ZERO, 10);
        let j = job(&[10], 5.0, 0.0, SubmitQueue::Global);
        m.record_departure(SimTime::new(10.0), &j);
        m.reset_window(SimTime::new(100.0));
        // After reset: still 10 busy, but nothing measured yet.
        let r = m.report(SimTime::new(200.0));
        assert_eq!(r.departures, 0);
        assert!((r.gross_utilization - 1.0).abs() < 1e-12, "busy level carries over");
        assert_eq!(r.net_utilization, 0.0);
        assert_eq!(r.mean_response, 0.0);
        assert!((r.window_seconds - 100.0).abs() < 1e-12);
    }

    #[test]
    fn wait_and_size_class_breakdown() {
        let mut m = Metrics::new(128, 1, 10);
        let mut a = job(&[8], 10.0, 0.0, SubmitQueue::Global);
        a.start = Some(SimTime::new(30.0)); // waited 30 s
        let mut b = job(&[64], 10.0, 0.0, SubmitQueue::Global);
        b.start = Some(SimTime::new(0.0)); // no wait
        m.record_departure(SimTime::new(100.0), &a);
        m.record_departure(SimTime::new(100.0), &b);
        let r = m.report(SimTime::new(100.0));
        assert!((r.mean_wait - 15.0).abs() < 1e-12);
        let labels = size_class_labels();
        assert_eq!(labels.len(), r.response_by_size.len());
        // Size 8 lands in class "1-8", size 64 in "33-64".
        assert!((r.response_by_size[0] - 100.0).abs() < 1e-12);
        assert!((r.response_by_size[3] - 100.0).abs() < 1e-12);
        assert_eq!(r.response_by_size[1], 0.0, "empty class reports 0");
    }

    #[test]
    fn empty_queue_classes_report_none() {
        // A GS-style run: every job global, the local class untouched.
        let mut m = Metrics::new(128, 1, 10);
        let j = job(&[8], 10.0, 0.0, SubmitQueue::Global);
        m.record_departure(SimTime::new(50.0), &j);
        let r = m.report(SimTime::new(100.0));
        assert_eq!(r.response_local, None, "no local jobs -> no local mean");
        assert!(r.response_global.is_some());
    }

    #[test]
    fn size_class_boundaries() {
        assert_eq!(size_class(1), 0);
        assert_eq!(size_class(8), 0);
        assert_eq!(size_class(9), 1);
        assert_eq!(size_class(16), 1);
        assert_eq!(size_class(17), 2);
        assert_eq!(size_class(32), 2);
        assert_eq!(size_class(64), 3);
        assert_eq!(size_class(65), 4);
        assert_eq!(size_class(128), 4);
    }

    #[test]
    fn series_recording_roundtrip() {
        let mut m = Metrics::new(16, 1, 5);
        m.record_series();
        let j = job(&[4], 3.0, 0.0, SubmitQueue::Global);
        m.record_departure(SimTime::new(50.0), &j);
        m.record_departure(SimTime::new(80.0), &j);
        let series = m.take_series();
        assert_eq!(series, vec![50.0, 80.0]);
        assert!(m.take_series().is_empty(), "take drains the buffer");
    }

    #[test]
    fn busy_never_negative_invariant() {
        let mut m = Metrics::new(10, 1, 5);
        m.record_allocate(SimTime::ZERO, 4);
        m.record_release(SimTime::new(1.0), 4);
        assert_eq!(m.busy.value(), 0.0);
    }
}
