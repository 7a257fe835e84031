//! Proves the Scheduler allocation-free contract with a counting global
//! allocator: in the steady-state event cycle — departure release,
//! queue re-enable, scheduling pass, including passes that *start* jobs
//! — the simulator performs **zero** heap allocations (placements of
//! paper-scale jobs are stored inline in the job's state). Whole runs
//! extend the contract to the event loop, the calendar, the metrics and
//! the network model: a run ten times longer allocates only what its
//! growing buffers need, never per event. The same runs prove the
//! bounded-memory contract: a run holds the jobs still in the system
//! and the events pending for them, not every job it has seen, so a run
//! ten times longer peaks at most [`SLACK`] more heap bytes.
//!
//! This is a single `#[test]` in its own integration-test binary on
//! purpose: the counter is process-global, so concurrently running
//! tests would pollute the measured sections.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use coalloc_core::audit::NullObserver;
use coalloc_core::job::{ActiveJob, JobId, JobTable, SubmitQueue};
use coalloc_core::placement::PlacementRule;
use coalloc_core::policy::PolicyKind;
use coalloc_core::system::{MultiCluster, SystemSpec};
use coalloc_core::{BacklogFeed, NetworkSpec, SimBuilder, SimConfig};
use coalloc_workload::{JobRequest, JobSpec, QueueRouting};
use desim::{Duration, RngStream, SimTime};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);
/// Heap bytes held now, and the most held at once since the last reset.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        if new_size > layout.size() {
            grow(new_size - layout.size());
        } else {
            shrink(layout.size() - new_size);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.fetch_add(1, Ordering::Relaxed);
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` and returns `(result, allocations, frees)` performed by it.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let a0 = ALLOCS.load(Ordering::Relaxed);
    let f0 = FREES.load(Ordering::Relaxed);
    let out = f();
    let a1 = ALLOCS.load(Ordering::Relaxed);
    let f1 = FREES.load(Ordering::Relaxed);
    (out, a1 - a0, f1 - f0)
}

/// How much higher a run ten times longer may peak: room for buffers
/// that a longer run's rarer excursions (a longer queue, more pending
/// events) double once more, far below the 208 bytes per job an
/// append-only job table would add for 18 000 more jobs (3.7 MB).
const SLACK: usize = 256 * 1024;

/// Runs `f` and returns the most heap it held at once beyond what was
/// live when it started; its result is dropped inside the measurement.
fn peak_heap<T>(f: impl FnOnce() -> T) -> usize {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    drop(f());
    PEAK.load(Ordering::Relaxed) - base
}

/// Runs `run` for 2 000 and for 20 000 jobs: the longer run may make at
/// most 64 more allocations (buffers that grow by doubling) and peak at
/// most [`SLACK`] more heap bytes.
fn assert_length_free<T>(what: &str, run: impl Fn(u64) -> T) {
    let measure = |jobs| counted(|| peak_heap(|| run(jobs)));
    let ((short_peak, short, _), (long_peak, long, _)) = (measure(2_000), measure(20_000));
    assert!(
        long <= short + 64,
        "{what}: a 20 000-job run made {long} allocations, a 2 000-job run {short}"
    );
    assert!(
        long_peak <= short_peak + SLACK,
        "{what}: a 20 000-job run peaked at {long_peak} heap bytes, a 2 000-job run at \
         {short_peak}"
    );
}

fn spec(components: &[u32]) -> JobSpec {
    JobSpec { request: JobRequest::new(components.to_vec()), base_service: Duration::new(100.0) }
}

fn submit(
    table: &mut JobTable,
    policy: &mut Box<dyn coalloc_core::policy::Scheduler>,
    components: &[u32],
    queue: SubmitQueue,
) -> JobId {
    let id = table.insert(ActiveJob::new(spec(components), SimTime::ZERO, queue));
    policy.enqueue(id, queue);
    id
}

/// Releases a started job's processors and runs the departure hook —
/// exactly what the event loop does on `SimEvent::Departure`.
fn depart(
    table: &JobTable,
    system: &mut MultiCluster,
    policy: &mut Box<dyn coalloc_core::policy::Scheduler>,
    id: JobId,
) {
    let placement = table.get(id).placement.as_ref().expect("job was started");
    system.release(placement);
    policy.on_departure();
}

#[test]
fn steady_state_event_cycle_is_allocation_free() {
    let mut obs = NullObserver;
    let now = SimTime::ZERO;

    // ---- GS: global queue over the 4×32 multicluster ----
    let mut system = MultiCluster::new(&[32, 32, 32, 32]);
    let mut policy = PolicyKind::Gs.build(
        &SystemSpec::das_multicluster(),
        QueueRouting::balanced(4),
        RngStream::new(7),
        PlacementRule::WorstFit,
    );
    let mut table = JobTable::new();
    let mut started: Vec<JobId> = Vec::with_capacity(16);

    // Warm-up (allocations allowed): fill the whole system, then queue a
    // job that cannot start; the pass that rejects it disables the queue
    // and warms every internal buffer.
    let filler = submit(&mut table, &mut policy, &[32, 32, 32, 32], SubmitQueue::Global);
    started.clear();
    policy.schedule_into(now, &mut system, &mut table, &mut obs, &mut started);
    assert_eq!(started, vec![filler]);
    let waiting = submit(&mut table, &mut policy, &[8], SubmitQueue::Global);
    started.clear();
    policy.schedule_into(now, &mut system, &mut table, &mut obs, &mut started);
    assert!(started.is_empty());

    // Steady state, section 1: a scheduling pass that starts nothing.
    let ((), a, f) = counted(|| {
        started.clear();
        policy.schedule_into(now, &mut system, &mut table, &mut obs, &mut started);
    });
    assert!(started.is_empty());
    assert_eq!((a, f), (0, 0), "GS no-start pass must not touch the heap");

    // Section 2: departure release + queue re-enable.
    let ((), a, f) = counted(|| depart(&table, &mut system, &mut policy, filler));
    assert_eq!((a, f), (0, 0), "GS departure release must not touch the heap");

    // Section 3: a pass that starts one job is also allocation-free —
    // the Placement is stored inline in the job's state.
    let ((), a, f) = counted(|| {
        started.clear();
        policy.schedule_into(now, &mut system, &mut table, &mut obs, &mut started);
    });
    assert_eq!(started, vec![waiting]);
    assert_eq!((a, f), (0, 0), "GS start pass must not touch the heap");

    // ---- LS: per-cluster local queues, disable/re-enable bookkeeping ----
    let mut system = MultiCluster::new(&[32, 32, 32, 32]);
    let mut policy = PolicyKind::Ls.build(
        &SystemSpec::das_multicluster(),
        QueueRouting::balanced(4),
        RngStream::new(7),
        PlacementRule::WorstFit,
    );
    let mut table = JobTable::new();

    // Warm-up: fill all four clusters from their local queues, then
    // block queue 0 so it gets disabled (warming the disable list).
    let fillers: Vec<JobId> =
        (0..4).map(|q| submit(&mut table, &mut policy, &[32], SubmitQueue::Local(q))).collect();
    started.clear();
    policy.schedule_into(now, &mut system, &mut table, &mut obs, &mut started);
    assert_eq!(started.len(), 4);
    let waiting = submit(&mut table, &mut policy, &[16], SubmitQueue::Local(0));
    started.clear();
    policy.schedule_into(now, &mut system, &mut table, &mut obs, &mut started);
    assert!(started.is_empty(), "queue 0 head does not fit its full cluster");

    // Steady state: departure on cluster 0 re-enables queue 0 in place…
    let ((), a, f) = counted(|| depart(&table, &mut system, &mut policy, fillers[0]));
    assert_eq!((a, f), (0, 0), "LS departure + re-enable must not touch the heap");

    // …and the next pass starts the waiting local job, touching no heap.
    let ((), a, f) = counted(|| {
        started.clear();
        policy.schedule_into(now, &mut system, &mut table, &mut obs, &mut started);
    });
    assert_eq!(started, vec![waiting]);
    assert_eq!((a, f), (0, 0), "LS start pass must not touch the heap");

    // ---- Whole runs: neither allocations nor memory scale with the
    // run length ----
    // A 20 000-job run may allocate more than a 2 000-job one only where
    // a buffer grows (amortized doubling: a few reallocations each),
    // never per event, and it holds only the jobs still in the system —
    // with no network, a contended backbone, and contended pairwise
    // links alike. LP saturates the backbone at this load — its queue,
    // and with it the run's memory, grows with the run — so it runs
    // without one.
    let backbone = Some(NetworkSpec::backbone(1.0));
    for policy in [PolicyKind::Gs, PolicyKind::Ls, PolicyKind::Lp] {
        for network in [None, backbone, Some(NetworkSpec::pairwise(1.0))] {
            if policy == PolicyKind::Lp && network == backbone {
                continue;
            }
            assert_length_free(&format!("{policy:?} under {network:?}"), |jobs| {
                let mut cfg = SimConfig::das(policy, 16, 0.55);
                cfg.total_jobs = jobs;
                cfg.warmup_jobs = jobs / 10;
                cfg.network = network;
                SimBuilder::new(&cfg).run()
            });
        }
    }
    // Table 3's constant backlog: the queues never drain, and every
    // departure admits a job.
    assert_length_free("a GS constant-backlog run", |departures| {
        let mut cfg = SimConfig::das(PolicyKind::Gs, 16, 1.0);
        cfg.total_jobs = departures;
        cfg.warmup_jobs = departures / 10;
        let mut feed = BacklogFeed::new(cfg.workload.clone(), 50, &RngStream::new(cfg.seed));
        SimBuilder::new(&cfg).feed(&mut feed, f64::NAN).run()
    });
}
