//! Proves the Scheduler allocation-free contract with a counting global
//! allocator: in the steady-state event cycle — departure release,
//! queue re-enable, scheduling pass, including passes that *start* jobs
//! — the simulator performs **zero** heap allocations (placements of
//! paper-scale jobs are stored inline in the job's state). Whole runs
//! extend the contract to the event loop, the calendar, the metrics and
//! the network model: a run ten times longer allocates only what its
//! growing buffers need, never per event.
//!
//! This is a single `#[test]` in its own integration-test binary on
//! purpose: the counter is process-global, so concurrently running
//! tests would pollute the measured sections.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use coalloc_core::audit::NullObserver;
use coalloc_core::job::{ActiveJob, JobId, JobTable, SubmitQueue};
use coalloc_core::placement::PlacementRule;
use coalloc_core::policy::PolicyKind;
use coalloc_core::system::{MultiCluster, SystemSpec};
use coalloc_core::{NetworkSpec, SimBuilder, SimConfig};
use coalloc_workload::{JobRequest, JobSpec, QueueRouting};
use desim::{Duration, RngStream, SimTime};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.fetch_add(1, Ordering::Relaxed);
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

    // ---- Whole runs: allocations do not scale with the run length ----
    // A 20 000-job run may allocate more than a 2 000-job one only where
    // a buffer grows (amortized doubling: a few reallocations each),
    // never per event — with no network, a contended backbone, and
    // contended pairwise links alike.
    for policy in [PolicyKind::Gs, PolicyKind::Ls] {
        for network in [None, Some(NetworkSpec::backbone(1.0)), Some(NetworkSpec::pairwise(1.0))] {
            let run_allocs = |jobs: u64| {
                let mut cfg = SimConfig::das(policy, 16, 0.55);
                cfg.total_jobs = jobs;
                cfg.warmup_jobs = jobs / 10;
                cfg.network = network;
                let (_, a, _) = counted(|| SimBuilder::new(&cfg).run());
                a
            };
            let (short, long) = (run_allocs(2_000), run_allocs(20_000));
            assert!(
                long <= short + 64,
                "{policy:?} under {network:?}: a 20 000-job run made {long} allocations, \
                 a 2 000-job run {short}"
            );
        }
    }
}
