//! The layered Session engine: arrivals, scheduling passes, departures.
//!
//! [`SimBuilder`] is the single front door: it resolves the warm-up
//! lifecycle, builds the feed and the scheduler, and hands a fully
//! wired [`Session`] its event loop. That loop is the simulator's only
//! one: open runs (stochastic or trace feeds) and Table 3's
//! constant-backlog runs ([`crate::feed::BacklogFeed`]) both go through
//! it.

use std::borrow::Cow;

use coalloc_workload::{JobDisposition, JobRequest, JobSpec, RequestKind};
use desim::{Duration, EventId, Exponential, RngStream, SimTime, Simulation, Variate};

use crate::audit::{Interruption, NullObserver, PassTrigger, Resize, SimObserver};
use crate::fault::{FaultKind, FaultSpec, InterruptPolicy, ResizePolicy};
use crate::feed::{JobFeed, StochasticFeed, TraceFeed};
use crate::job::{ActiveJob, JobId, JobTable, Placement};
use crate::metrics::Metrics;
use crate::policy::{PolicyKind, PolicyOptions, Scheduler};
use crate::system::MultiCluster;

use super::config::{SimConfig, Warmup};
use super::network::{self, cluster_mask, NetworkSpec, ShareScratch};
use super::outcome::{OccupancyModel, SimOutcome};
use super::warmup::resolve_auto_warmup;

/// Events driving the co-allocation simulation.
#[derive(Debug, Clone, Copy)]
enum SimEvent {
    /// The next job arrives.
    Arrival,
    /// A running job finishes and releases its processors. The job
    /// table records this event as the job's pending departure, and
    /// the departure path checks that it is.
    Departure(JobId),
    /// A cluster fails; `remaining` of its processors stay usable.
    ClusterDown { cluster: usize, remaining: u32 },
    /// A failed cluster is repaired to full capacity.
    ClusterUp(usize),
}

/// How fault events are generated over a run.
#[derive(Debug)]
enum FaultDriver {
    /// Every event came from a [`crate::fault::FaultTrace`] and was
    /// pre-scheduled when the session started.
    Scripted,
    /// Exponential failure/repair processes, one independent RNG stream
    /// per cluster (`labelled("faults").substream(k)`, so enabling
    /// faults does not perturb the workload's streams). A repair is
    /// always scheduled after a failure; the *next* failure is drawn
    /// only while arrivals remain, so the event queue drains.
    Exponential { mttf: f64, mttr: f64, streams: Vec<RngStream> },
}

/// The per-run fault-injection state; absent (`None` in
/// [`EngineState`]) for fault-free runs, which therefore take only a
/// handful of branch checks over the pre-fault engine.
#[derive(Debug)]
struct FaultState {
    interrupt: InterruptPolicy,
    driver: FaultDriver,
}

/// One running multi-cluster job's wide-area flow under
/// [`OccupancyModel::Network`].
///
/// Progress accrual is *lazy*: `remaining` is the flow's remaining base
/// service as of `since`, and between stretch changes the flow drains
/// linearly at rate `1/stretch` wall-seconds per base-second, so
/// deferring the subtraction until the stretch actually changes (or the
/// flow leaves) is exact — no per-event bookkeeping on unaffected flows.
#[derive(Debug)]
struct NetFlow {
    id: JobId,
    /// Cluster bitmask of the placement (the flow's endpoints).
    mask: u64,
    /// Nominal extension factor for the current span.
    factor: f64,
    /// Remaining base-service seconds as of `since`.
    remaining: f64,
    /// Current stretch: wall-seconds per base-second. Equals `factor`
    /// at full bandwidth share, `1 + (factor − 1)/share` below it.
    stretch: f64,
    /// When `remaining` was last made current.
    since: SimTime,
}

/// The per-run network state; absent (`None` in [`EngineState`]) unless
/// the run uses [`OccupancyModel::Network`], so faithful runs pay only
/// an `Option` check per flow-set change.
///
/// Flows live in a `Vec` in start order: removal is `O(running multi
/// jobs)` — a few dozen at most — and iteration order (and with it
/// every float reduction) is deterministic. The share buffers are
/// reused across rebalances, so a flow-set change allocates nothing.
#[derive(Debug)]
struct NetState {
    spec: NetworkSpec,
    flows: Vec<NetFlow>,
    /// Each flow's bandwidth share, in flow order, as of the last
    /// rebalance.
    shares: Vec<f64>,
    scratch: ShareScratch,
}

/// The one front door to a simulation run.
///
/// A run's job source is set on the builder: without a call to
/// [`SimBuilder::feed`] or [`SimBuilder::trace`] it samples the
/// config's stochastic workload. Either terminal method then runs it:
/// [`SimBuilder::run`] plain, [`SimBuilder::run_observed`] with a
/// [`SimObserver`] attached.
///
/// ```
/// use coalloc_core::{PolicyKind, SimBuilder, SimConfig};
/// let mut cfg = SimConfig::das(PolicyKind::Gs, 16, 0.4);
/// cfg.total_jobs = 2_000;
/// cfg.warmup_jobs = 200;
/// let outcome = SimBuilder::new(&cfg).run();
/// assert_eq!(outcome.arrivals, 2_000);
/// ```
pub struct SimBuilder<'a> {
    cfg: &'a SimConfig,
    source: Source<'a>,
}

/// Where a run's jobs come from.
enum Source<'a> {
    /// Sampled from the config's workload, arrival rate and seed.
    Stochastic,
    /// A caller's feed and the offered gross utilization it reports.
    Feed(&'a mut dyn JobFeed, f64),
    /// A log replayed at a time scale.
    Trace(&'a coalloc_trace::Trace, f64),
}

impl<'a> SimBuilder<'a> {
    /// Starts a builder for the given configuration, sampling its
    /// stochastic workload.
    pub fn new(cfg: &'a SimConfig) -> Self {
        SimBuilder { cfg, source: Source::Stochastic }
    }

    /// Runs a caller's [`JobFeed`] instead; `offered` is the offered
    /// gross utilization the outcome reports (the feed knows it, the
    /// engine does not derive it). A feed cannot be replayed for a
    /// pilot run, so the run measures after `warmup_jobs` as given,
    /// also under [`Warmup::Auto`].
    pub fn feed(self, feed: &'a mut dyn JobFeed, offered: f64) -> Self {
        SimBuilder { source: Source::Feed(feed, offered), ..self }
    }

    /// Replays a log instead: its submit times (compressed by
    /// `time_scale`; values < 1 raise the offered load), sizes (split
    /// under the workload's limit) and runtimes replace the stochastic
    /// sampling. The workload's size/service distributions are
    /// ignored; its limit, clusters and extension model still apply.
    /// The run is sized by [`TraceFeed::len`], its offered load comes
    /// from the raw log, and a [`Warmup::Auto`] pilot replays the same
    /// log.
    pub fn trace(self, trace: &'a coalloc_trace::Trace, time_scale: f64) -> Self {
        SimBuilder { source: Source::Trace(trace, time_scale), ..self }
    }

    /// Runs one simulation to completion (all arrivals generated, then
    /// the system drained of *running* jobs; waiting jobs that can never
    /// start are left queued and reported).
    ///
    /// # Panics
    /// Panics with [`SimConfig::validate`]'s message on an invalid
    /// config.
    pub fn run(self) -> SimOutcome {
        self.run_observed(&mut NullObserver)
    }

    /// [`SimBuilder::run`] with an observer attached (see
    /// [`crate::audit`]). Observers are passive: the outcome is
    /// bit-identical to the unobserved run's. Generic over the observer
    /// so the [`NullObserver`] path monomorphizes to the unobserved
    /// loop (every hook is an empty inlined default).
    pub fn run_observed<O: SimObserver>(self, obs: &mut O) -> SimOutcome {
        execute(self.cfg, self.source, obs)
    }
}

/// The shared work of every run: size a replay by its feed, resolve
/// [`Warmup::Auto`] with a pilot over the same source, validate the
/// config once, then run the policy's *concrete* scheduler type through the
/// monomorphized event loop. The scheduler hooks run after every event,
/// so keeping them direct (inlinable) calls measurably raises events/s
/// — see DESIGN.md and EXPERIMENTS.md (BENCH_2).
fn execute<O: SimObserver>(cfg: &SimConfig, source: Source<'_>, obs: &mut O) -> SimOutcome {
    let mut cfg = Cow::Borrowed(cfg);
    let mut replay = None;
    if let Source::Trace(trace, time_scale) = source {
        let feed = TraceFeed::new(trace, cfg.workload.limit, cfg.workload.clusters, time_scale);
        // The feed drops zero-runtime records (cancelled jobs); the run
        // is sized by what will actually be replayed, not the raw log
        // length.
        cfg.to_mut().total_jobs = feed.len() as u64;
        replay = Some(feed);
    }
    if cfg.warmup == Warmup::Auto {
        let pilot_source = match source {
            Source::Stochastic => Some(Source::Stochastic),
            // Replay is deterministic, so MSER judges exactly the series
            // the measured run will produce.
            Source::Trace(trace, time_scale) => Some(Source::Trace(trace, time_scale)),
            Source::Feed(..) => None,
        };
        // The pilot validates every field but the warm-up it replaces;
        // the measured run's warm-up is checked below, once resolved.
        if let Some(pilot_source) = pilot_source {
            let resolved =
                resolve_auto_warmup(&cfg, |pilot| execute(pilot, pilot_source, &mut NullObserver));
            cfg = Cow::Owned(resolved);
        }
    }
    cfg.validate().unwrap_or_else(|e| panic!("{e}"));
    let mut stochastic;
    let (feed, offered): (&mut dyn JobFeed, f64) = match source {
        Source::Stochastic => {
            stochastic = StochasticFeed::new(
                cfg.workload.clone(),
                cfg.arrival_rate,
                cfg.arrival_cv2,
                cfg.total_jobs,
                &RngStream::new(cfg.seed),
            );
            (&mut stochastic, cfg.offered_gross_utilization())
        }
        Source::Feed(feed, offered) => (feed, offered),
        Source::Trace(trace, time_scale) => {
            // Offered gross utilization of the replay: the log's gross
            // work over its (scaled) span times the capacity. The span
            // ends at the latest submit, wherever the log records it.
            let last = trace.jobs.iter().map(|j| j.submit).fold(f64::NEG_INFINITY, f64::max);
            let span = last * time_scale;
            let ratio = cfg.workload.gross_net_ratio();
            let work: f64 =
                trace.jobs.iter().map(|j| f64::from(j.size) * j.runtime).sum::<f64>() * ratio;
            let offered =
                if span > 0.0 { work / (span * f64::from(cfg.capacity())) } else { f64::NAN };
            (replay.as_mut().expect("a trace source built its feed"), offered)
        }
    };
    let cfg = &*cfg;
    let model = cfg.network.map_or(OccupancyModel::Faithful, OccupancyModel::Network);
    let routing_rng = RngStream::new(cfg.seed).labelled("routing");
    let opts = PolicyOptions {
        disposition: cfg.disposition,
        discipline: cfg.discipline,
        estimate_factor: cfg.estimate_factor,
        workload: cfg.workload.clone(),
    };
    let clusters = cfg.system.num_clusters();
    let (routing, rule) = (cfg.routing.clone(), cfg.rule);
    match cfg.policy {
        PolicyKind::Gs | PolicyKind::Sc => {
            let mut s = crate::policy::GlobalScheduler::with_options(rule, opts);
            Session::new(cfg, feed, &mut s, obs, offered, model).run()
        }
        PolicyKind::Ls => {
            let mut s = crate::policy::LocalSchedulers::with_options(
                clusters,
                routing,
                routing_rng,
                rule,
                opts,
            );
            Session::new(cfg, feed, &mut s, obs, offered, model).run()
        }
        PolicyKind::Lp => {
            let mut s = crate::policy::LocalPriority::with_options(
                clusters,
                routing,
                routing_rng,
                rule,
                opts,
            );
            Session::new(cfg, feed, &mut s, obs, offered, model).run()
        }
        PolicyKind::Gb => {
            let mut s = crate::policy::GlobalBackfill::with_options(rule, opts);
            Session::new(cfg, feed, &mut s, obs, offered, model).run()
        }
    }
}

/// The growing-and-draining state of one run: the machine the event
/// loop mutates. Split out of [`Session`] so arrivals, departures and
/// scheduling passes each read as a focused step over named state.
struct EngineState {
    system: MultiCluster,
    /// The jobs in the system, queued or running: a job leaves it when
    /// it departs or is aborted by a fault, so the table spans only
    /// the arrivals since the oldest job still present. Its running
    /// list is the one registry of running jobs: each one's pending
    /// departure and backfilling estimate.
    table: JobTable,
    metrics: Metrics,
    sim: Simulation<SimEvent>,
    /// The spec of the next scheduled Arrival event.
    pending: Option<JobSpec>,
    /// The feed's constant-backlog floor ([`JobFeed::backlog`]); 0 for
    /// a feed of timed arrivals.
    backlog: usize,
    /// Caller-owned scratch for the scheduling pass (see the Scheduler
    /// trait's allocation-free contract): cleared per pass, capacity
    /// reused for the whole run.
    started: Vec<JobId>,
    generated: u64,
    completed: u64,
    backlog_at_last_arrival: usize,
    peak_backlog: usize,
    /// Fault-injection state; `None` unless the config enables faults.
    faults: Option<FaultState>,
    /// Wide-area flow state; `None` unless the run uses
    /// [`OccupancyModel::Network`].
    net: Option<NetState>,
}

impl EngineState {
    /// Whether jobs are still to arrive: a timed arrival is pending, or
    /// the feed is an endless backlog. Exponential faults keep failing
    /// clusters only while this holds, so the calendar can drain.
    fn arrivals_remain(&self) -> bool {
        self.pending.is_some() || self.backlog > 0
    }
}

/// One fully wired simulation: a config, a feed, a scheduler and an
/// observer, ready to run the event loop to completion.
///
/// [`SimBuilder`] builds every session of a release build; the
/// mutation tests (`audit::mutants`) build one directly to run a
/// deliberately broken scheduler or occupancy model through the real
/// loop.
pub(crate) struct Session<'a, F, S, O>
where
    F: JobFeed + ?Sized,
    S: Scheduler + ?Sized,
    O: SimObserver,
{
    cfg: &'a SimConfig,
    feed: &'a mut F,
    scheduler: &'a mut S,
    observer: &'a mut O,
    offered: f64,
    model: OccupancyModel,
}

impl<'a, F, S, O> Session<'a, F, S, O>
where
    F: JobFeed + ?Sized,
    S: Scheduler + ?Sized,
    O: SimObserver,
{
    /// Wires a session together. `offered` is the offered gross
    /// utilization reported in the outcome (the feed knows it; the
    /// session does not derive it). The config is taken as valid:
    /// [`SimBuilder`] checks it before it gets here.
    pub(crate) fn new(
        cfg: &'a SimConfig,
        feed: &'a mut F,
        scheduler: &'a mut S,
        observer: &'a mut O,
        offered: f64,
        model: OccupancyModel,
    ) -> Self {
        Session { cfg, feed, scheduler, observer, offered, model }
    }

    /// Runs the event loop to completion and reports the outcome.
    ///
    /// A feed with a [`JobFeed::backlog`] floor has no arrival events:
    /// a first pass at t = 0 fills the queues, every pass tops them up
    /// again, and the run stops after the pass that follows departure
    /// number `total_jobs` (the machine is still busy then, by design).
    pub(crate) fn run(mut self) -> SimOutcome {
        let mut st = self.init();
        if st.backlog > 0 {
            self.pass(&mut st, SimTime::ZERO, PassTrigger::Arrival);
        }
        while let Some(ev) = st.sim.step() {
            let now = st.sim.now();
            let trigger = match ev.payload {
                SimEvent::Arrival => self.arrival(&mut st, now),
                SimEvent::Departure(id) => self.departure(&mut st, now, id, ev.id),
                SimEvent::ClusterDown { cluster, remaining } => {
                    self.cluster_down(&mut st, now, cluster, remaining)
                }
                SimEvent::ClusterUp(cluster) => self.cluster_up(&mut st, now, cluster),
            };
            // A scheduling pass follows every arrival and every departure.
            self.pass(&mut st, now, trigger);
            if st.backlog > 0 && st.completed >= self.cfg.total_jobs {
                break;
            }
        }
        self.finish(st)
    }

    /// Builds the engine state and primes the first arrival (a backlog
    /// feed has none: its jobs arrive inside the passes).
    fn init(&mut self) -> EngineState {
        let backlog = self.feed.backlog();
        let mut metrics =
            Metrics::new(self.cfg.capacity(), self.scheduler.num_queues(), self.cfg.batch_size);
        if self.cfg.record_series {
            metrics.record_series();
        }
        let mut st = EngineState {
            system: MultiCluster::from_spec(&self.cfg.system),
            table: JobTable::new(),
            metrics,
            sim: Simulation::new(),
            pending: None,
            backlog,
            started: Vec::new(),
            generated: 0,
            completed: 0,
            backlog_at_last_arrival: 0,
            peak_backlog: 0,
            faults: None,
            net: self.model.network().map(|spec| NetState {
                spec,
                flows: Vec::new(),
                shares: Vec::new(),
                scratch: ShareScratch::default(),
            }),
        };
        if backlog == 0 {
            if let Some((t, spec)) = self.feed.next_job() {
                st.pending = Some(spec);
                st.sim.schedule_at(t, SimEvent::Arrival);
            }
        }
        if let Some(spec) = &self.cfg.faults {
            let arrivals = st.arrivals_remain();
            st.faults = Some(self.prime_faults(spec, &mut st.sim, arrivals));
        }
        st
    }

    /// Builds the fault state and schedules the initial fault events:
    /// the whole script for a [`FaultSpec::Trace`], or the first
    /// failure of each cluster for [`FaultSpec::Exponential`] (only
    /// while arrivals remain, so an empty feed stays an empty run).
    fn prime_faults(
        &self,
        spec: &FaultSpec,
        sim: &mut Simulation<SimEvent>,
        has_arrivals: bool,
    ) -> FaultState {
        let driver = match spec {
            FaultSpec::Trace(trace) => {
                for ev in trace.events() {
                    let payload = match ev.kind {
                        FaultKind::Down { remaining } => {
                            SimEvent::ClusterDown { cluster: ev.cluster, remaining }
                        }
                        FaultKind::Up => SimEvent::ClusterUp(ev.cluster),
                    };
                    sim.schedule_at(SimTime::new(ev.at), payload);
                }
                FaultDriver::Scripted
            }
            FaultSpec::Exponential { mttf, mttr } => {
                let base = RngStream::new(self.cfg.seed).labelled("faults");
                let mut streams: Vec<RngStream> =
                    (0..self.cfg.system.num_clusters()).map(|k| base.substream(k as u64)).collect();
                if has_arrivals {
                    let dist = Exponential::with_mean(*mttf);
                    for (k, stream) in streams.iter_mut().enumerate() {
                        let at = SimTime::new(dist.sample(stream));
                        sim.schedule_at(at, SimEvent::ClusterDown { cluster: k, remaining: 0 });
                    }
                }
                FaultDriver::Exponential { mttf: *mttf, mttr: *mttr, streams }
            }
        };
        FaultState { interrupt: self.cfg.interrupt, driver }
    }

    /// One arrival: admit the pending job and draw the next arrival
    /// from the feed.
    fn arrival(&mut self, st: &mut EngineState, now: SimTime) -> PassTrigger {
        let spec = st.pending.take().expect("an Arrival always has a pending spec");
        self.admit(st, now, spec);
        if let Some((t, spec)) = self.feed.next_job() {
            st.pending = Some(spec);
            st.sim.schedule_at(t.max(now), SimEvent::Arrival);
        } else {
            st.backlog_at_last_arrival = self.scheduler.queued();
        }
        PassTrigger::Arrival
    }

    /// A job enters the system at `now`: route, record, enqueue.
    fn admit(&mut self, st: &mut EngineState, now: SimTime, spec: JobSpec) {
        st.generated += 1;
        let queue = self.scheduler.route(&spec);
        let id = st.table.insert(ActiveJob::new(spec, now, queue));
        self.observer.on_arrival(now, id, st.table.get(id));
        self.scheduler.enqueue(id, queue);
        self.observer.on_enqueue(now, id, queue);
        st.metrics.record_arrival(now);
    }

    /// One departure: release processors, measure the job (outside the
    /// warm-up window), and let the policy re-enable queues.
    ///
    /// # Panics
    /// Panics if `event` is not the departure the table recorded for
    /// the job — an event the engine moved or cancelled fired anyway —
    /// or if the job is not running.
    fn departure(
        &mut self,
        st: &mut EngineState,
        now: SimTime,
        id: JobId,
        event: EventId,
    ) -> PassTrigger {
        let recorded = st.table.running_entry(id).departure;
        assert_eq!(event, recorded, "job {} departed on a stale event", id.0);
        // Borrow the placement out of the table for the release
        // (it stays the job's state); cloning it here would put
        // one heap round-trip on every departure.
        let job = st.table.get(id);
        let placement = job.placement.as_ref().expect("departing job was started");
        st.system.release(placement);
        let released = placement.total();
        self.observer.on_completion(now, id, job);
        st.metrics.record_release(now, released);
        st.metrics.record_exit(now);
        st.completed += 1;
        if st.completed == self.cfg.warmup_jobs {
            st.metrics.reset_window(now);
        } else if st.completed >= self.cfg.warmup_jobs {
            st.metrics.record_departure(now, job);
        }
        st.table.remove(id);
        self.scheduler.on_departure();
        // A departing multi-cluster job frees its bandwidth: the
        // surviving flows speed up and their departures move forward.
        if self.net_remove(st, now, id) {
            self.net_rebalance(st, now);
        }
        PassTrigger::Departure
    }

    /// One cluster failure: every job running a component on the
    /// cluster is killed (its partial work is lost — there is no
    /// checkpointing), each victim's fate follows the configured
    /// [`InterruptPolicy`], the cluster is degraded to `remaining`
    /// usable processors, and — under the exponential driver — the
    /// repair is scheduled.
    fn cluster_down(
        &mut self,
        st: &mut EngineState,
        now: SimTime,
        cluster: usize,
        remaining: u32,
    ) -> PassTrigger {
        // The table's running list answers "who runs here?" without
        // walking the queued jobs; sorted by job id to keep the victim
        // order (and thus the run) independent of the list's order.
        let table = &st.table;
        let mut victims: Vec<JobId> = table
            .running()
            .iter()
            .map(|r| r.id)
            .filter(|&id| {
                let placement = table.get(id).placement.as_ref().expect("a running job is placed");
                placement.assignments().iter().any(|&(c, _)| c == cluster)
            })
            .collect();
        victims.sort_unstable_by_key(|id| id.0);
        let mut net_changed = false;
        for &id in &victims {
            // A malleable multi-component victim sheds only the failed
            // component and keeps running on its surviving clusters —
            // the `ShrinkOnly` half of every ResizePolicy.
            if self.cfg.disposition == JobDisposition::Malleable
                && self.try_shrink(st, now, id, cluster)
            {
                continue;
            }
            let cancelled = st.sim.cancel(st.table.running_entry(id).departure);
            debug_assert!(cancelled, "a running job's departure event was pending");
            // Drop the victim's flow *now*: a later victim's shrink
            // rebalances the fabric and must not move a departure this
            // victim no longer has.
            net_changed |= self.net_remove(st, now, id);
            let (placement, start) = st.table.interrupt(id);
            st.system.release(&placement);
            st.metrics.record_release(now, placement.total());
            st.metrics
                .record_interruption(now, f64::from(placement.total()) * (now - start).seconds());
            let resplit = self.maybe_resplit(st, id, cluster, remaining);
            let disposition = st.faults.as_ref().expect("faults enabled").interrupt;
            let job = st.table.get(id);
            let queue = job.queue;
            let info = Interruption { id, cluster, released: &placement, disposition, resplit };
            self.observer.on_job_interrupted(now, job, &info);
            match disposition {
                InterruptPolicy::RequeueFront => self.scheduler.requeue_front(id, queue),
                InterruptPolicy::RequeueBack => self.scheduler.enqueue(id, queue),
                // The job leaves the system with nothing to show for it.
                InterruptPolicy::Abort => {
                    st.metrics.record_exit(now);
                    st.table.remove(id);
                }
            }
        }
        if net_changed {
            self.net_rebalance(st, now);
        }
        st.system.set_down(cluster, remaining);
        self.observer.on_cluster_down(now, cluster, remaining);
        st.metrics.record_outage_level(now, st.system.total_offline());
        // Requeued victims and the changed idle state invalidate every
        // queue-disabled latch (GS's "arrivals never increase idle"
        // skip does not cover faults), so fault events count as
        // departures for the schedulers' re-enable logic.
        self.scheduler.on_departure();
        if let FaultDriver::Exponential { mttr, streams, .. } =
            &mut st.faults.as_mut().expect("faults enabled").driver
        {
            let repair = Exponential::with_mean(*mttr).sample(&mut streams[cluster]);
            st.sim.schedule_at(now + Duration::new(repair), SimEvent::ClusterUp(cluster));
        }
        PassTrigger::Fault
    }

    /// One cluster repair: full capacity returns, and — under the
    /// exponential driver, while arrivals remain — the next failure of
    /// this cluster is scheduled.
    fn cluster_up(&mut self, st: &mut EngineState, now: SimTime, cluster: usize) -> PassTrigger {
        st.system.set_up(cluster);
        self.observer.on_cluster_up(now, cluster);
        st.metrics.record_outage_level(now, st.system.total_offline());
        self.scheduler.on_departure();
        let has_arrivals = st.arrivals_remain();
        if let FaultDriver::Exponential { mttf, streams, .. } =
            &mut st.faults.as_mut().expect("faults enabled").driver
        {
            if has_arrivals {
                let next = Exponential::with_mean(*mttf).sample(&mut streams[cluster]);
                st.sim.schedule_at(
                    now + Duration::new(next),
                    SimEvent::ClusterDown { cluster, remaining: 0 },
                );
            }
        }
        PassTrigger::Fault
    }

    /// Recomputes every flow's bandwidth share after the flow set
    /// changed, and for each flow whose stretch changed: accrues its
    /// progress at the old rate, adopts the new stretch, and moves its
    /// departure to the re-derived end ([`move_departure`]). Flows
    /// whose stretch did not change are untouched — in particular, an
    /// uncontended (infinite-capacity) fabric never cancels anything,
    /// so its event sequence is bit-identical to
    /// [`OccupancyModel::Faithful`]'s.
    fn net_rebalance(&mut self, st: &mut EngineState, now: SimTime) {
        let EngineState { net, sim, table, .. } = st;
        let Some(NetState { spec, flows, shares, scratch }) = net.as_mut() else { return };
        if flows.is_empty() {
            return;
        }
        spec.shares_into(flows.iter().map(|f| f.mask), shares, scratch);
        for (flow, &share) in flows.iter_mut().zip(shares.iter()) {
            let stretch = network::stretch(flow.factor, share);
            if stretch == flow.stretch {
                continue;
            }
            let dt = (now - flow.since).seconds();
            if dt > 0.0 {
                flow.remaining = (flow.remaining - dt / flow.stretch).max(0.0);
            }
            flow.since = now;
            flow.stretch = stretch;
            let new_end = now + Duration::new(flow.remaining * stretch);
            move_departure(sim, table, flow.id, new_end);
        }
    }

    /// Drops a departing (or killed) job's flow, if it held one.
    /// Returns whether the flow set changed — the caller rebalances.
    fn net_remove(&mut self, st: &mut EngineState, now: SimTime, id: JobId) -> bool {
        let EngineState { net, metrics, .. } = st;
        let Some(net) = net.as_mut() else { return false };
        let before = net.flows.len();
        net.flows.retain(|f| f.id != id);
        if net.flows.len() == before {
            return false;
        }
        metrics.record_flow_level(now, net.flows.len());
        true
    }

    /// Re-derives a resized flow job's departure time under the network
    /// model: accrue progress at the old stretch, rescale the remaining
    /// base work by the processor ratio (work conservation), adopt the
    /// new span's extension factor and mask, and price the remainder at
    /// the share the *new* flow set gives this flow. A job shrinking to
    /// a single cluster leaves the fabric entirely. The caller schedules
    /// the returned end itself and runs [`Session::net_rebalance`]
    /// afterwards for everyone else (this flow's stretch is already
    /// current, so the rebalance skips it).
    #[allow(clippy::too_many_arguments)]
    fn net_resize(
        &mut self,
        st: &mut EngineState,
        now: SimTime,
        id: JobId,
        old_total: f64,
        new_total: f64,
        f_new: f64,
        new_mask: u64,
    ) -> SimTime {
        let EngineState { net, metrics, .. } = st;
        let net = net.as_mut().expect("network resize path");
        let idx = net
            .flows
            .iter()
            .position(|f| f.id == id)
            .expect("a resized multi-cluster job holds a flow");
        {
            let flow = &mut net.flows[idx];
            let dt = (now - flow.since).seconds();
            if dt > 0.0 {
                flow.remaining = (flow.remaining - dt / flow.stretch).max(0.0);
            }
            flow.since = now;
            flow.remaining *= old_total / new_total;
            flow.factor = f_new;
            flow.mask = new_mask;
        }
        if new_mask.count_ones() < 2 {
            // The job no longer spans clusters: no flow, no extension
            // (factor 1), remaining base work runs at full speed.
            let flow = net.flows.remove(idx);
            metrics.record_flow_level(now, net.flows.len());
            return now + Duration::new(flow.remaining * f_new);
        }
        net.spec.shares_into(net.flows.iter().map(|f| f.mask), &mut net.shares, &mut net.scratch);
        let flow = &mut net.flows[idx];
        flow.stretch = network::stretch(f_new, net.shares[idx]);
        now + Duration::new(flow.remaining * flow.stretch)
    }

    /// Shrinks a running malleable job away from a failed cluster: the
    /// failed component is dropped, the surviving components keep
    /// running, and the departure is pushed back so the remaining work
    /// (processor-seconds of *base* service) is conserved — the
    /// remaining extended seconds are deflated by the old span's
    /// extension factor, scaled by the processor ratio, and re-extended
    /// at the new span's factor (a 2→1-cluster shrink sheds the
    /// wide-area extension altogether and finishes *earlier*).
    /// Returns false (no shrink; the caller falls back to the kill
    /// path) for single-component placements, which have nothing to
    /// survive on.
    fn try_shrink(
        &mut self,
        st: &mut EngineState,
        now: SimTime,
        id: JobId,
        cluster: usize,
    ) -> bool {
        let job = st.table.get(id);
        let old = job.placement.clone().expect("victim was started");
        if old.assignments().len() < 2 {
            return false;
        }
        let old_end = st.table.running_entry(id).end;
        let surviving: Vec<(usize, u32)> =
            old.assignments().iter().copied().filter(|&(c, _)| c != cluster).collect();
        debug_assert!(!surviving.is_empty(), "multi-component victim keeps >=1 component");
        let new = Placement::new(surviving);
        let old_total = f64::from(old.total());
        let new_total = f64::from(new.total());
        // Dropping a component changes the spanned-cluster count, and
        // with it the wide-area extension: conserve the remaining *base*
        // work and re-extend it at the new span. For same-span resizes
        // `f_new / f_old` is exactly 1.0 (IEEE x/x), so this reduces to
        // the plain processor-ratio formula bit for bit.
        let f_old = self.cfg.workload.extension_factor(old.assignments().len());
        let f_new = self.cfg.workload.extension_factor(new.assignments().len());
        let ratio = f_new / f_old;
        let new_end = if st.net.is_some() {
            self.net_resize(
                st,
                now,
                id,
                old_total,
                new_total,
                f_new,
                cluster_mask(new.assignments()),
            )
        } else {
            now + Duration::new(rescaled((old_end - now).seconds(), old_total, new_total, ratio))
        };
        // Swap the allocation: the failed component's processors return
        // to (what is about to become) the degraded cluster, the rest
        // stay busy.
        st.system.release(&old);
        st.system.apply(&new);
        st.metrics.record_release(now, old.total() - new.total());
        self.commit_resize(st, now, &Resize { id, from: &old, to: &new, old_end, new_end }, ratio);
        // The shrunk flow's mask changed (or it left the fabric), so the
        // surviving flows' shares may have too.
        self.net_rebalance(st, now);
        true
    }

    /// Grows one running malleable job onto idle processors after a
    /// departure left the queues empty: the job with the *latest*
    /// scheduled departure (ties to the smallest id) expands each of
    /// its components up to the workload's component-size limit within
    /// its own cluster — the span (and thus the wide-area extension) is
    /// unchanged — and its departure moves forward conserving the
    /// remaining work.
    fn maybe_grow(&mut self, st: &mut EngineState, now: SimTime) {
        // Latest departure wins, ties to the smallest job id — the
        // explicit tie-break keeps the choice independent of the
        // running list's order.
        let mut best: Option<(SimTime, JobId)> = None;
        for r in st.table.running() {
            let better =
                best.is_none_or(|(bend, bid)| r.end > bend || (r.end == bend && r.id.0 < bid.0));
            if better {
                best = Some((r.end, r.id));
            }
        }
        let Some((old_end, id)) = best else { return };
        let old = st.table.get(id).placement.clone().expect("a running job is placed");
        let limit = self.cfg.workload.limit;
        let mut grown = Vec::with_capacity(old.assignments().len());
        let mut extras = Vec::new();
        for &(c, procs) in old.assignments() {
            let extra = st.system.idle(c).min(limit.saturating_sub(procs));
            grown.push((c, procs + extra));
            if extra > 0 {
                extras.push((c, extra));
            }
        }
        if extras.is_empty() {
            return;
        }
        let new = Placement::new(grown);
        let old_total = f64::from(old.total());
        let new_total = f64::from(new.total());
        // Growth is per-cluster: the span — and with it the extension
        // factor and the flow's link set — is unchanged, so conserving
        // extended seconds and conserving base seconds coincide.
        let span = old.assignments().len();
        let new_end = if st.net.is_some() && span >= 2 {
            let f = self.cfg.workload.extension_factor(span);
            self.net_resize(st, now, id, old_total, new_total, f, cluster_mask(new.assignments()))
        } else {
            now + Duration::new(rescaled((old_end - now).seconds(), old_total, new_total, 1.0))
        };
        st.system.apply(&Placement::new(extras));
        st.metrics.record_allocate(now, new.total() - old.total());
        self.commit_resize(st, now, &Resize { id, from: &old, to: &new, old_end, new_end }, 1.0);
    }

    /// The common tail of a shrink and a grow, once the processors have
    /// moved: the departure moves to `resize.new_end`, backfilling's
    /// estimate rescales as the actual time left did (`ratio` as in
    /// [`rescaled`]), the table takes the new placement, and the
    /// observer sees the resize with both already applied.
    fn commit_resize(
        &mut self,
        st: &mut EngineState,
        now: SimTime,
        resize: &Resize<'_>,
        ratio: f64,
    ) {
        let Resize { id, from, to, new_end, .. } = *resize;
        move_departure(&mut st.sim, &mut st.table, id, new_end);
        let run = st.table.running_entry_mut(id);
        let (old_total, new_total) = (f64::from(from.total()), f64::from(to.total()));
        run.est_end = rescaled_estimate(now, run.est_end, old_total, new_total, ratio);
        st.table.get_mut(id).placement = Some(to.clone());
        self.observer.on_job_resized(now, st.table.get(id), resize);
    }

    /// Re-splits an interrupted unordered multi-component request when
    /// the failure leaves fewer up clusters than it has components
    /// (components must land on distinct clusters, §2.3, so the old
    /// split could never start before the repair). The new split is
    /// adopted only when its largest component fits the largest
    /// surviving effective capacity; otherwise the job keeps its
    /// request and waits for the repair.
    fn maybe_resplit(
        &self,
        st: &mut EngineState,
        id: JobId,
        cluster: usize,
        remaining: u32,
    ) -> bool {
        let request = &st.table.get(id).spec.request;
        if request.kind() != RequestKind::Unordered || !request.is_multi() {
            return false;
        }
        // Effective capacities as they will stand once this failure is
        // applied (`set_down` runs after the victims are handled).
        let mut surviving = 0usize;
        let mut max_eff = 0u32;
        for k in 0..self.cfg.system.num_clusters() {
            let eff = if k == cluster { remaining } else { st.system.effective_capacity(k) };
            if eff > 0 {
                surviving += 1;
                max_eff = max_eff.max(eff);
            }
        }
        if surviving == 0 || request.num_components() <= surviving {
            return false;
        }
        let candidate = JobRequest::from_total(request.total(), self.cfg.workload.limit, surviving);
        if candidate.max_component() > max_eff {
            return false;
        }
        // Local-queue confinement: a job waiting in a local queue that
        // re-splits down to a *single* component will be offered only to
        // that queue's own cluster (LS's §2.5 rule), so a split that
        // fits some surviving cluster but not *that* one would wait
        // forever — even after the repair. Keep the old request instead
        // and wait for the repair.
        if candidate.num_components() == 1 {
            if let crate::job::SubmitQueue::Local(q) = st.table.get(id).queue {
                let eff = if q == cluster { remaining } else { st.system.effective_capacity(q) };
                if candidate.max_component() > eff {
                    return false;
                }
            }
        }
        st.table.get_mut(id).spec.request = candidate;
        true
    }

    /// One scheduling pass: top a constant backlog up to its floor,
    /// start everything that fits, schedule the departures of the
    /// started jobs, and track the backlog.
    fn pass(&mut self, st: &mut EngineState, now: SimTime, trigger: PassTrigger) {
        while self.scheduler.queued() < st.backlog {
            let (_, spec) = self.feed.next_job().expect("a backlog feed never runs dry");
            self.admit(st, now, spec);
        }
        self.observer.on_pass(now, trigger);
        st.started.clear();
        self.scheduler.schedule_into(
            now,
            &mut st.system,
            &mut st.table,
            self.observer,
            &mut st.started,
        );
        self.observer.on_pass_end(now, &st.started);
        let mut net_started = false;
        for &id in &st.started {
            let job = st.table.get(id);
            let occupancy: Duration = self.model.occupancy(job, &self.cfg.workload);
            let procs = job.spec.request.total();
            let placement = job.placement.as_ref().expect("started job was placed");
            let span = placement.assignments().len();
            let mask = cluster_mask(placement.assignments());
            let base = job.spec.base_service.seconds();
            self.observer.on_start(now, id, job, occupancy);
            st.metrics.record_allocate(now, procs);
            let end = now + occupancy;
            // The scheduler listed the job as running; its departure is
            // the engine's to schedule and record.
            let run = st.table.running_entry_mut(id);
            run.departure = st.sim.schedule_at(end, SimEvent::Departure(id));
            run.end = end;
            // A multi-cluster start opens a wide-area flow. Its initial
            // stretch is the nominal factor (the occupancy above), which
            // is already on the calendar; the rebalance below reschedules
            // it only if the fabric is actually contended.
            if span >= 2 {
                if let Some(net) = st.net.as_mut() {
                    let factor = self.cfg.workload.extension_factor(span);
                    net.flows.push(NetFlow {
                        id,
                        mask,
                        factor,
                        remaining: base,
                        stretch: factor,
                        since: now,
                    });
                    net_started = true;
                }
            }
        }
        if net_started {
            let level = st.net.as_ref().map_or(0, |n| n.flows.len());
            st.metrics.record_flow_level(now, level);
            self.net_rebalance(st, now);
        }
        // A departure that leaves the queues empty hands the freed
        // processors to a running malleable job (the grow half of
        // `ResizePolicy::GrowAndShrink`): queued jobs always have
        // priority over growth, so this runs only when nobody waits.
        if trigger == PassTrigger::Departure
            && self.cfg.disposition == JobDisposition::Malleable
            && self.cfg.resize == ResizePolicy::GrowAndShrink
            && self.scheduler.queued() == 0
        {
            self.maybe_grow(st, now);
        }
        let queued_now = self.scheduler.queued();
        st.metrics.record_queue_length(now, queued_now);
        st.peak_backlog = st.peak_backlog.max(queued_now);
        debug_assert!(
            st.system.total_busy() <= self.cfg.capacity(),
            "more processors busy than exist"
        );
    }

    /// Ends the run: final observer hook, saturation heuristic, report.
    fn finish(self, mut st: EngineState) -> SimOutcome {
        let now = st.sim.now();
        self.observer.on_run_end(now);
        let residual = self.scheduler.queued();
        // Saturation heuristic: if a non-trivial share of all generated
        // jobs was still waiting when the arrival process ended, the
        // queues were growing without bound (the post-arrival drain
        // always empties them, so the *final* residual is not
        // informative; jobs that can never fit are the exception and
        // show up in `residual_queued`).
        let saturated = st.backlog_at_last_arrival as f64
            > (0.02 * self.cfg.total_jobs as f64).max(50.0)
            || residual > 0;

        let report = st.metrics.report(now);
        SimOutcome {
            policy: self.cfg.policy.label().to_string(),
            offered_gross_utilization: self.offered,
            metrics: report,
            arrivals: st.generated,
            completed: st.completed,
            residual_queued: residual,
            backlog_at_last_arrival: st.backlog_at_last_arrival,
            peak_backlog: st.peak_backlog,
            saturated,
            end_time: now.seconds(),
            response_series: st.metrics.take_series(),
        }
    }
}

/// Moves running job `id`'s departure to `end`: cancels the event the
/// table recorded and schedules, and records, a new one.
fn move_departure(sim: &mut Simulation<SimEvent>, table: &mut JobTable, id: JobId, end: SimTime) {
    let run = table.running_entry_mut(id);
    let cancelled = sim.cancel(run.departure);
    debug_assert!(cancelled, "a running job's departure event was pending");
    run.departure = sim.schedule_at(end, SimEvent::Departure(id));
    run.end = end;
}

/// The time left after a resize: `left` seconds scale by the processor
/// ratio `old_total / new_total` and by `ratio`, the new span's
/// extension factor over the old span's, so the remaining base work is
/// conserved. A grow keeps its span and passes exactly 1.0.
fn rescaled(left: f64, old_total: f64, new_total: f64, ratio: f64) -> f64 {
    left * old_total / new_total * ratio
}

/// Backfilling's estimate of a job's end after a resize at `now`: the
/// estimated time left rescales as the actual time left does
/// ([`rescaled`]). An infinite estimate stays infinite.
fn rescaled_estimate(
    now: SimTime,
    est_end: f64,
    old_total: f64,
    new_total: f64,
    ratio: f64,
) -> f64 {
    if !est_end.is_finite() {
        return est_end;
    }
    let t = now.seconds();
    t + rescaled(est_end - t, old_total, new_total, ratio)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyKind;
    use crate::system::SystemSpec;

    #[test]
    fn resize_rescales_the_estimate() {
        // Doubling the processors at t=20 halves the remaining estimate.
        let est = rescaled_estimate(SimTime::new(20.0), 100.0, 16.0, 32.0, 1.0);
        assert!((est - 60.0).abs() < 1e-12);
        // An infinite estimate (no backfilling) stays infinite.
        let none = rescaled_estimate(SimTime::new(20.0), f64::INFINITY, 16.0, 32.0, 1.0);
        assert_eq!(none, f64::INFINITY);
    }

    #[test]
    fn span_changing_resize_re_derives_the_extension() {
        // The regression this guards: a 2→1-cluster shrink sheds the
        // 1.25 wide-area extension, so the remaining estimate must scale
        // by old_total/new_total × (f_new/f_old) — the old formula
        // conserved *extended* seconds and over-estimated the coalesced
        // remainder by 25%.
        let workload = coalloc_workload::Workload::das(16);
        let ratio = workload.extension_factor(1) / workload.extension_factor(2);
        // At t=20: remaining 80 extended seconds over 32 procs across two
        // clusters shrink to 16 procs in one: 80 × (32/16) × (1.0/1.25) =
        // 128, not the old formula's 160.
        let est = rescaled_estimate(SimTime::new(20.0), 100.0, 32.0, 16.0, ratio);
        assert!((est - 148.0).abs() < 1e-12);
    }

    fn quick(policy: PolicyKind, limit: u32, util: f64) -> SimConfig {
        let mut cfg = SimConfig::das(policy, limit, util);
        cfg.total_jobs = 6_000;
        cfg.warmup_jobs = 1_000;
        cfg.batch_size = 100;
        cfg
    }

    fn run(cfg: &SimConfig) -> SimOutcome {
        SimBuilder::new(cfg).run()
    }

    #[test]
    fn run_completes_and_conserves_jobs() {
        let cfg = quick(PolicyKind::Gs, 16, 0.4);
        let out = run(&cfg);
        assert_eq!(out.arrivals, 6_000);
        assert_eq!(out.completed as usize + out.residual_queued, 6_000);
        assert!(!out.saturated, "residual {}", out.residual_queued);
        assert!(out.metrics.mean_response > 0.0);
        assert!(out.end_time > 0.0);
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let cfg = quick(PolicyKind::Ls, 16, 0.5);
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.metrics.mean_response, b.metrics.mean_response);
        assert_eq!(a.completed, b.completed);
        let c = run(&cfg.clone().with_seed(999));
        assert_ne!(a.metrics.mean_response, c.metrics.mean_response);
    }

    #[test]
    fn measured_utilization_tracks_offered() {
        let cfg = quick(PolicyKind::Gs, 32, 0.4);
        let out = run(&cfg);
        let offered = out.offered_gross_utilization;
        assert!((offered - 0.4).abs() < 1e-9);
        assert!(
            (out.metrics.gross_utilization - offered).abs() < 0.08,
            "measured {} vs offered {offered}",
            out.metrics.gross_utilization
        );
        // Gross exceeds net by roughly the closed-form ratio.
        let ratio = out.metrics.gross_utilization / out.metrics.net_utilization;
        let expected = cfg.workload.gross_net_ratio();
        assert!((ratio - expected).abs() < 0.05, "ratio {ratio} vs {expected}");
    }

    #[test]
    fn all_policies_run_at_moderate_load() {
        for policy in [PolicyKind::Gs, PolicyKind::Ls, PolicyKind::Lp] {
            let out = run(&quick(policy, 16, 0.3));
            assert!(!out.saturated, "{policy} saturated at 0.3");
            assert!(out.metrics.departures > 0, "{policy}");
        }
        let sc = {
            let mut cfg = SimConfig::das_single_cluster(0.3);
            cfg.total_jobs = 6_000;
            cfg.warmup_jobs = 1_000;
            run(&cfg)
        };
        assert!(!sc.saturated);
    }

    #[test]
    fn overload_is_detected_as_saturation() {
        let cfg = quick(PolicyKind::Gs, 16, 1.4);
        let out = run(&cfg);
        assert!(out.saturated, "offered 1.4 must saturate; residual {}", out.residual_queued);
    }

    #[test]
    fn response_includes_extension() {
        // At very low load every job starts immediately: single-component
        // mean response ≈ mean base service; multi-component ≈ 1.25×.
        let mut cfg = quick(PolicyKind::Gs, 16, 0.05);
        cfg.total_jobs = 4_000;
        cfg.warmup_jobs = 500;
        let out = run(&cfg);
        let m = &out.metrics;
        let base = cfg.workload.service.mean_secs();
        assert!(
            (m.response_single - base).abs() < 0.1 * base,
            "single {} vs base {base}",
            m.response_single
        );
        assert!(
            (m.response_multi - 1.25 * base).abs() < 0.1 * base,
            "multi {} vs extended {}",
            m.response_multi,
            1.25 * base
        );
    }

    #[test]
    fn auto_warmup_is_deterministic_and_leaves_jobs_measured() {
        let mut cfg = quick(PolicyKind::Gs, 16, 0.5);
        cfg.warmup = Warmup::Auto;
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.metrics.mean_response, b.metrics.mean_response, "pilot + rerun deterministic");
        // MSER truncates within the first half of the series, so at
        // least half the departures stay in the observation window.
        assert!(
            a.metrics.departures >= cfg.total_jobs / 2,
            "only {} of {} departures measured",
            a.metrics.departures,
            cfg.total_jobs
        );
        assert!(a.metrics.mean_response > 0.0);
    }

    /// The outcome's every field, each float's exact bits included.
    fn json(out: &SimOutcome) -> String {
        serde_json::to_string(out).expect("SimOutcome serializes")
    }

    #[test]
    fn a_feed_run_keeps_its_warmup_under_auto() {
        // A caller's feed cannot be replayed for a pilot, so a feed run
        // measures after `warmup_jobs` even under `Warmup::Auto`.
        let fixed_cfg = quick(PolicyKind::Gs, 16, 0.5);
        let mut auto_cfg = fixed_cfg.clone();
        auto_cfg.warmup = Warmup::Auto;
        let feed = |cfg: &SimConfig| {
            StochasticFeed::new(
                cfg.workload.clone(),
                cfg.arrival_rate,
                cfg.arrival_cv2,
                cfg.total_jobs,
                &RngStream::new(cfg.seed),
            )
        };
        let offered = fixed_cfg.offered_gross_utilization();
        let fixed = SimBuilder::new(&fixed_cfg).feed(&mut feed(&fixed_cfg), offered).run();
        let auto = SimBuilder::new(&auto_cfg).feed(&mut feed(&auto_cfg), offered).run();
        assert_eq!(json(&auto), json(&fixed));
        assert_eq!(auto.metrics.departures, fixed_cfg.total_jobs - fixed_cfg.warmup_jobs);
        // The default source does resolve the warm-up.
        assert_ne!(json(&SimBuilder::new(&auto_cfg).run()), json(&auto));
        // Recorded through the entry points that predate `feed`.
        assert_eq!(auto.metrics.mean_response.to_bits(), 0x408b_b86b_7bb7_5fc0);
    }

    #[test]
    fn sc_has_no_multi_jobs() {
        let mut cfg = SimConfig::das_single_cluster(0.4);
        cfg.total_jobs = 4_000;
        cfg.warmup_jobs = 500;
        let out = run(&cfg);
        assert_eq!(out.metrics.response_multi, 0.0, "no multi-component jobs under SC");
        // Gross equals net for SC (no extension applies).
        let m = &out.metrics;
        assert!(
            (m.gross_utilization - m.net_utilization).abs() < 0.01,
            "gross {} vs net {}",
            m.gross_utilization,
            m.net_utilization
        );
    }

    #[test]
    fn heterogeneous_session_runs_under_every_multicluster_policy() {
        for policy in [PolicyKind::Gs, PolicyKind::Ls, PolicyKind::Lp, PolicyKind::Gb] {
            let mut cfg = SimConfig::heterogeneous(policy, 16, 0.35, SystemSpec::das2());
            cfg.total_jobs = 5_000;
            cfg.warmup_jobs = 500;
            cfg.batch_size = 100;
            let out = run(&cfg);
            assert_eq!(out.arrivals, 5_000, "{policy}");
            assert!(!out.saturated, "{policy} saturated at 0.35");
        }
    }
}

#[cfg(test)]
mod trace_replay_tests {
    use super::*;
    use crate::policy::PolicyKind;
    use coalloc_trace::{generate_das1_log, DasLogConfig, JobStatus, Trace, TraceJob};

    fn run_trace(cfg: &SimConfig, trace: &coalloc_trace::Trace, time_scale: f64) -> SimOutcome {
        SimBuilder::new(cfg).trace(trace, time_scale).run()
    }

    #[test]
    fn replay_runs_the_whole_log() {
        let log = generate_das1_log(&DasLogConfig { jobs: 4_000, ..Default::default() });
        let mut cfg = SimConfig::das(PolicyKind::Ls, 16, 0.5); // rate ignored
        cfg.warmup_jobs = 400;
        let out = run_trace(&cfg, &log, 1.0);
        assert_eq!(out.arrivals, 4_000);
        assert_eq!(out.completed as usize + out.residual_queued, 4_000);
        assert!(out.metrics.mean_response > 0.0);
        assert!(out.offered_gross_utilization.is_finite());
    }

    #[test]
    fn compressing_time_raises_load_and_response() {
        let log = generate_das1_log(&DasLogConfig { jobs: 6_000, ..Default::default() });
        let mut cfg = SimConfig::das(PolicyKind::Gs, 16, 0.5);
        cfg.warmup_jobs = 600;
        let relaxed = run_trace(&cfg, &log, 1.0);
        let compressed = run_trace(&cfg, &log, 0.25);
        assert!(
            compressed.offered_gross_utilization > 2.0 * relaxed.offered_gross_utilization,
            "offered {} vs {}",
            compressed.offered_gross_utilization,
            relaxed.offered_gross_utilization
        );
        assert!(
            compressed.metrics.mean_response > relaxed.metrics.mean_response,
            "response {} vs {}",
            compressed.metrics.mean_response,
            relaxed.metrics.mean_response
        );
    }

    #[test]
    fn replay_skips_zero_runtime_records() {
        // Cancelled jobs (runtime 0) do not enter the replay: the run is
        // sized by the filtered feed, so arrivals and the conservation
        // identity both reflect only real jobs.
        let mut log = generate_das1_log(&DasLogConfig { jobs: 3_000, ..Default::default() });
        for j in log.jobs.iter_mut().step_by(10) {
            j.runtime = 0.0;
        }
        let mut cfg = SimConfig::das(PolicyKind::Gs, 16, 0.5);
        cfg.warmup_jobs = 200;
        let out = run_trace(&cfg, &log, 1.0);
        assert_eq!(out.arrivals, 2_700);
        assert_eq!(out.completed as usize + out.residual_queued, 2_700);
    }

    #[test]
    fn an_auto_warmup_replay_is_the_fixed_replay_at_the_resolved_warmup() {
        let log = generate_das1_log(&DasLogConfig { jobs: 3_000, ..Default::default() });
        // MSER replaces the configured warm-up, so the run is the same
        // whether it is 300 or `SimConfig::das`'s 5 000 — more jobs than
        // the log holds, which only the resolved warm-up must undercut.
        for configured in [300, SimConfig::das(PolicyKind::Ls, 16, 0.5).warmup_jobs] {
            let mut cfg = SimConfig::das(PolicyKind::Ls, 16, 0.5);
            cfg.warmup_jobs = configured;
            cfg.batch_size = 100;
            cfg.warmup = Warmup::Auto;
            let auto = run_trace(&cfg, &log, 0.75);
            // The pilot replays the same trace, so this is the resolution
            // the auto run made.
            let resolved = resolve_auto_warmup(&cfg, |pilot| run_trace(pilot, &log, 0.75));
            assert_eq!(resolved.warmup, Warmup::Fixed);
            let fixed = run_trace(&resolved, &log, 0.75);
            let json =
                |out: &SimOutcome| serde_json::to_string(out).expect("SimOutcome serializes");
            assert_eq!(json(&auto), json(&fixed), "configured warm-up {configured}");
            // Recorded through the entry points that predate `trace`.
            assert_eq!(resolved.warmup_jobs, 20);
            assert_eq!(auto.metrics.departures, 2_980);
            assert_eq!(auto.metrics.mean_response.to_bits(), 0x4086_6470_2d3d_b229);
        }
    }

    #[test]
    fn an_out_of_order_log_replays_like_the_sorted_log() {
        let log = |records: &[(u32, f64)]| {
            let mut log = Trace::new("toy", 128);
            log.jobs.extend(records.iter().map(|&(id, submit)| TraceJob {
                id,
                submit,
                size: 16 * id,
                runtime: 400.0,
                user: 0,
                status: JobStatus::Completed,
            }));
            log
        };
        let mut cfg = SimConfig::das(PolicyKind::Gs, 16, 0.5);
        cfg.warmup_jobs = 0;
        let json = |out: &SimOutcome| serde_json::to_string(out).expect("SimOutcome serializes");
        let sorted = run_trace(&cfg, &log(&[(2, 50.0), (1, 100.0), (3, 200.0)]), 1.0);
        assert_eq!(sorted.arrivals, 3);
        // The second order's last record is not its latest submit.
        for records in [[(1, 100.0), (2, 50.0), (3, 200.0)], [(3, 200.0), (1, 100.0), (2, 50.0)]] {
            let replay = run_trace(&cfg, &log(&records), 1.0);
            assert_eq!(json(&replay), json(&sorted), "{records:?}");
        }
    }

    #[test]
    fn replay_is_deterministic_per_policy() {
        let log = generate_das1_log(&DasLogConfig { jobs: 2_000, ..Default::default() });
        let cfg = {
            let mut c = SimConfig::das(PolicyKind::Lp, 16, 0.5);
            c.warmup_jobs = 200;
            c
        };
        let a = run_trace(&cfg, &log, 1.0);
        let b = run_trace(&cfg, &log, 1.0);
        assert_eq!(a.metrics.mean_response, b.metrics.mean_response);
    }
}
