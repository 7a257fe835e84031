//! The persistent, panic-isolating worker pool every replication runs
//! on.
//!
//! Earlier revisions spawned a fresh set of scoped threads for every
//! sweep round; a long-running service cannot afford that, so the pool
//! is now a first-class object: `N` workers live for the pool's
//! lifetime, batches of [`SimConfig`]s are submitted from any thread
//! (concurrent submitters interleave on the same workers), and each
//! batch's results come back slotted by task index.
//!
//! The hot path is lock-free: workers claim task indices from one
//! atomic cursor per batch, so runs never contend on a results lock.
//! Because results are re-slotted by index after completion, the
//! outcome of a batch is deterministic whatever the interleaving or
//! worker count.
//!
//! Each replication runs under [`std::panic::catch_unwind`]: a panic
//! (invariant violation under `audit`, a configuration bug) becomes an
//! `Err` carrying the panic message instead of unwinding the worker, so
//! the remaining tasks — and every later batch — still run.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use super::cancel::CancelToken;
use super::relock;
use crate::audit::InvariantAuditor;
use crate::sim::{SimBuilder, SimConfig, SimOutcome};

/// The payload of a caught replication panic, rendered as a string.
/// `panic!`/`assert!` payloads are `&str` or `String`; anything else
/// (a `panic_any` with a custom type) gets a placeholder.
fn panic_cause(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one replication, catching panics. Under `audit` a fresh
/// [`InvariantAuditor`] observes the run and any violation panics —
/// which this function then catches like any other replication failure.
pub(crate) fn execute_isolated(cfg: &SimConfig, audit: bool) -> Result<SimOutcome, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if audit {
            let mut auditor = InvariantAuditor::new(cfg);
            let outcome = SimBuilder::new(cfg).run_observed(&mut auditor);
            assert!(
                auditor.is_clean(),
                "invariant violations at seed {}: {}",
                cfg.seed,
                auditor.report()
            );
            outcome
        } else {
            SimBuilder::new(cfg).run()
        }
    }))
    .map_err(panic_cause)
}

/// One submitted unit of work: a batch of replications and its result
/// slots. Shared between the submitter (which waits on `done`) and the
/// workers (which claim indices from `next`).
struct Batch {
    cfgs: Vec<SimConfig>,
    audit: bool,
    /// When set, workers check the token before starting each task and
    /// skip (leaving the slot empty) once it fires — cancellation is
    /// cooperative at replication granularity, never mid-simulation.
    cancel: Option<CancelToken>,
    /// The lock-free task cursor: `fetch_add` claims the next index.
    next: AtomicUsize,
    /// Results, slotted by task index as workers finish.
    slots: Vec<Mutex<Option<Result<SimOutcome, String>>>>,
    /// Completed-task count; the batch is done when it reaches
    /// `cfgs.len()`, signalled through `done`.
    progress: Mutex<usize>,
    done: Condvar,
}

impl Batch {
    fn is_exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.cfgs.len()
    }
}

struct PoolState {
    /// Batches with unclaimed tasks, in submission order. Fully claimed
    /// batches are popped by whichever worker notices.
    batches: VecDeque<Arc<Batch>>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    work_ready: Condvar,
}

/// A persistent pool of simulation workers; see the module docs.
///
/// Dropping the pool shuts the workers down after the queued batches
/// drain (submitters hold the batch until completion, so no submitted
/// work is ever lost).
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns a pool of `threads` workers (0 = one per available core).
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
        } else {
            threads
        };
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState { batches: VecDeque::new(), shutdown: false }),
            work_ready: Condvar::new(),
        });
        let workers = (0..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// The number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Runs a batch of replications and returns results in task order.
    /// Blocks until the batch completes; concurrent callers share the
    /// same workers, their batches interleaving at task granularity.
    ///
    /// Under a cooperative [`CancelToken`] workers check the token
    /// before starting each task, so once it fires the remaining tasks
    /// are *skipped* and come back `None` (tasks already executing
    /// finish — cancellation lands at replication boundaries). Without
    /// a token every slot is `Some`.
    pub fn run(
        &self,
        cfgs: Vec<SimConfig>,
        audit: bool,
        cancel: Option<&CancelToken>,
    ) -> Vec<Option<Result<SimOutcome, String>>> {
        if cfgs.is_empty() {
            return Vec::new();
        }
        let n = cfgs.len();
        let batch = Arc::new(Batch {
            slots: (0..n).map(|_| Mutex::new(None)).collect(),
            next: AtomicUsize::new(0),
            progress: Mutex::new(0),
            done: Condvar::new(),
            cancel: cancel.cloned(),
            cfgs,
            audit,
        });
        relock(&self.shared.state).batches.push_back(Arc::clone(&batch));
        self.shared.work_ready.notify_all();
        let mut completed = relock(&batch.progress);
        while *completed < n {
            completed =
                batch.done.wait(completed).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        drop(completed);
        batch.slots.iter().map(|s| relock(s).take()).collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        relock(&self.shared.state).shutdown = true;
        self.shared.work_ready.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        // Find the oldest batch with unclaimed work, discarding fully
        // claimed ones; park when there is none.
        let batch = {
            let mut st = relock(&shared.state);
            loop {
                while st.batches.front().is_some_and(|b| b.is_exhausted()) {
                    st.batches.pop_front();
                }
                if let Some(b) = st.batches.front() {
                    break Arc::clone(b);
                }
                if st.shutdown {
                    return;
                }
                st = shared.work_ready.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        // Drain the batch: claim indices lock-free until it runs dry. A
        // fired cancel token skips the remaining tasks (slots stay
        // empty) but still counts them, so the submitter wakes promptly.
        loop {
            let i = batch.next.fetch_add(1, Ordering::Relaxed);
            let Some(cfg) = batch.cfgs.get(i) else { break };
            if !batch.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                let result = execute_isolated(cfg, batch.audit);
                *relock(&batch.slots[i]) = Some(result);
            }
            let mut done = relock(&batch.progress);
            *done += 1;
            if *done == batch.cfgs.len() {
                batch.done.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyKind;

    /// The outcome of a task that ran and succeeded.
    fn ok(slot: &Option<Result<SimOutcome, String>>) -> &SimOutcome {
        slot.as_ref().expect("task ran").as_ref().expect("task succeeded")
    }

    fn tiny(util: f64, seed: u64) -> SimConfig {
        let mut cfg = SimConfig::das(PolicyKind::Gs, 16, util);
        cfg.total_jobs = 800;
        cfg.warmup_jobs = 100;
        cfg.batch_size = 50;
        cfg.with_seed(seed)
    }

    #[test]
    fn results_come_back_in_task_order_at_any_width() {
        let cfgs: Vec<SimConfig> = (0..6).map(|i| tiny(0.3, 2003 + i)).collect();
        let serial = WorkerPool::new(1).run(cfgs.clone(), false, None);
        let wide = WorkerPool::new(4).run(cfgs, false, None);
        assert_eq!(serial.len(), 6);
        for (a, b) in serial.iter().zip(&wide) {
            let (a, b) = (ok(a), ok(b));
            assert_eq!(a.metrics.mean_response, b.metrics.mean_response);
        }
    }

    #[test]
    fn a_pool_outlives_many_batches_and_concurrent_submitters() {
        let pool = Arc::new(WorkerPool::new(2));
        let solo = pool.run(vec![tiny(0.3, 7)], false, None);
        let handles: Vec<_> = (0..3)
            .map(|k| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    pool.run(vec![tiny(0.3, 7), tiny(0.4, 7 + k)], false, None)
                })
            })
            .collect();
        for h in handles {
            let rs = h.join().expect("submitter");
            // Task 0 is the same config everywhere: results must agree
            // with the solo batch bit for bit.
            assert_eq!(ok(&rs[0]).metrics.mean_response, ok(&solo[0]).metrics.mean_response);
        }
    }

    #[test]
    fn panics_are_isolated_per_task_and_workers_survive() {
        let pool = WorkerPool::new(2);
        let mut poisoned = tiny(0.3, 7);
        poisoned.warmup_jobs = poisoned.total_jobs; // fails validation inside the run
        let results = pool.run(vec![tiny(0.3, 7), poisoned, tiny(0.4, 7)], false, None);
        ok(&results[0]);
        assert!(results[1].as_ref().expect("ran").as_ref().is_err_and(|e| e.contains("warm-up")));
        ok(&results[2]);
        // The pool is still alive and serves the next batch.
        ok(&pool.run(vec![tiny(0.3, 7)], false, None)[0]);
    }

    #[test]
    fn a_poisoned_pool_lock_does_not_take_down_later_batches() {
        let pool = WorkerPool::new(2);
        let shared = Arc::clone(&pool.shared);
        let poisoner = std::thread::spawn(move || {
            let _guard = shared.state.lock().unwrap();
            panic!("poison the pool lock while holding it");
        });
        assert!(poisoner.join().is_err(), "the poisoner panics by design");
        // The pool lock is now poisoned. Before lock-poisoning recovery
        // this panicked on `.expect("pool lock")` — one crashed thread
        // wedged every later submitter — whereas a long-lived daemon
        // must keep serving.
        ok(&pool.run(vec![tiny(0.3, 7)], false, None)[0]);
    }

    #[test]
    fn a_fired_token_skips_every_remaining_task_and_the_pool_survives() {
        let pool = WorkerPool::new(2);
        let token = CancelToken::new();
        token.cancel();
        let skipped = pool.run(vec![tiny(0.3, 7), tiny(0.4, 8)], false, Some(&token));
        assert_eq!(skipped.len(), 2);
        assert!(skipped.iter().all(Option::is_none), "a fired token skips every task");
        // The pool is unaffected: a token-free batch runs normally, and
        // a live token leaves results intact.
        ok(&pool.run(vec![tiny(0.3, 7)], false, None)[0]);
        let live = CancelToken::new();
        ok(&pool.run(vec![tiny(0.3, 7)], false, Some(&live))[0]);
    }
}
