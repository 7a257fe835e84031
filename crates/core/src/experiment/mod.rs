//! Response-time-vs-utilization sweeps — the machinery behind every
//! figure in the paper's evaluation — layered as an engine:
//!
//! * [`grid`] — what a sweep *is*: the [`SweepConfig`] scenario grid and
//!   its fingerprint ([`point_digest`] / [`sweep_digest`]), the identity
//!   under which results may be cached, checkpointed, and shared.
//! * [`queue`] — the resumable [`ReplicationQueue`]: plans each round of
//!   `(point, replication)` tasks purely from completed state, so
//!   results are deterministic for a fixed seed at any thread count.
//! * [`pool`] — the persistent [`WorkerPool`] the tasks run on:
//!   lock-free task claiming, panic isolation per replication,
//!   concurrent submitters sharing one set of workers.
//! * [`cache`] — the [`ScenarioCache`]: memoized per-replication
//!   outcomes keyed by `(scenario digest, base seed, replication)`, so
//!   overlapping sweeps share replications bit-identically.
//! * [`checkpoint`] — fingerprinted on-disk resume state, written
//!   atomically after every round.
//! * [`store`] — the crash-safe [`ResultStore`]: an append-only,
//!   checksummed segment log behind the cache, so a restarted daemon
//!   answers previously computed replications from disk instead of
//!   re-executing them.
//! * [`cancel`] — the cooperative [`CancelToken`] checked at
//!   replication boundaries, so a request can be cancelled or timed out
//!   without losing completed work or wedging its peers.
//!
//! [`sweep`] is a thin client of [`sweep_on`], which wires the five
//! layers together; `coalloc-exp serve` drives the same entry point
//! with a long-lived pool and cache.
//!
//! Replication seeds are derived via [`RngStream::substream`] from the
//! base seed and the replication index *only*, so two sweeps with the
//! same base seed see common random numbers at every replication across
//! policies and utilizations — the variance-reduction discipline behind
//! comparing policies point by point, and the reason overlapping grids
//! can share cached replications.

pub mod cache;
pub mod cancel;
pub mod checkpoint;
pub mod grid;
pub mod outcome;
pub mod pool;
pub mod queue;
pub mod store;

pub use cache::ScenarioCache;
pub use cancel::{CancelReason, CancelToken};
pub use checkpoint::{SweepCheckpoint, CHECKPOINT_VERSION};
pub use grid::{point_digest, sweep_digest, SweepConfig};
pub use outcome::{FailedReplication, ReplicatedOutcome, SweepPoint};
pub use pool::WorkerPool;
pub use queue::{RepTask, ReplicationQueue};
pub use store::{RecoveryReport, ResultStore};

use desim::RngStream;

use crate::sim::SimConfig;

/// Poison-safe lock used across the experiment layer: a panicking
/// holder leaves the guarded data intact (every critical section here
/// is a single insert/claim/append), so recover the guard instead of
/// cascading the panic into every later request of a long-lived daemon.
pub(crate) fn relock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The master seed of replication `rep` under `base_seed`: an
/// independent substream derived from `(base_seed, rep)` alone. Every
/// policy and utilization sees the *same* seed at replication `rep`, so
/// compared sweeps run on common random numbers, and adding utilization
/// points or changing the policy never reshuffles the randomness of
/// existing replications.
pub fn replication_seed(base_seed: u64, rep: u64) -> u64 {
    RngStream::new(base_seed).substream(rep).seed()
}

/// What one engine round did; streamed to [`sweep_on`]'s observer as the
/// round completes (the hook behind `coalloc-exp serve`'s progress
/// events).
#[derive(Clone, Copy, Debug)]
pub struct RoundReport {
    /// 1-based round number.
    pub round: usize,
    /// Tasks the queue planned this round.
    pub tasks: usize,
    /// Tasks answered from the scenario cache (memory and disk).
    pub cache_hits: usize,
    /// Cache hits answered by rehydrating the backing disk store (a
    /// subset of `cache_hits`; 0 without a store).
    pub disk_hits: usize,
    /// Tasks that actually simulated.
    pub executed: usize,
    /// Points the stopping rule still keeps open after the round.
    pub open_points: usize,
}

/// Where a finished sweep's replications came from.
#[derive(Clone, Copy, Debug, Default)]
pub struct SweepStats {
    /// Engine rounds run.
    pub rounds: usize,
    /// Replications that simulated.
    pub executed: u64,
    /// Replications answered from the scenario cache (memory and disk).
    pub cache_hits: u64,
    /// Cache hits answered by rehydrating the backing disk store (a
    /// subset of `cache_hits`; 0 without a store).
    pub disk_hits: u64,
    /// Replications recovered from the checkpoint before round one.
    pub resumed: u64,
}

/// Runs an adaptive sweep on an existing [`WorkerPool`], optionally
/// memoizing replications in a [`ScenarioCache`] and reporting each
/// round to `on_round`. This is the full engine; [`sweep`] is a thin
/// wrapper, and `coalloc-exp serve` calls it with a process-lifetime
/// pool and cache shared across requests.
///
/// `make_cfg` builds the simulation template for a target utilization;
/// it is called once per point, on the calling thread. The engine
/// replicates every point until its relative 95 % CI meets
/// `rel_ci_target` (or the cap / saturation ends it), planning each
/// round from completed state only, so the result is bit-identical for
/// a fixed base seed at any pool width, with or without the cache, and
/// across checkpoint interruptions.
pub fn sweep_on<F, R>(
    pool: &WorkerPool,
    cache: Option<&ScenarioCache>,
    make_cfg: F,
    sweep_cfg: &SweepConfig,
    on_round: R,
) -> (Vec<SweepPoint>, SweepStats)
where
    F: Fn(f64) -> SimConfig,
    R: FnMut(&RoundReport),
{
    sweep_on_cancellable(pool, cache, make_cfg, sweep_cfg, None, on_round)
        .expect("sweeps without a token never cancel")
}

/// [`sweep_on`] under a cooperative [`CancelToken`]: the token is
/// checked at every round boundary, before each replication a worker
/// starts, and while waiting on a peer's reservation. Once it fires the
/// sweep returns `Err(CancelReason)` promptly — replications already
/// executing finish first (cancellation lands at replication
/// boundaries, never mid-simulation), completed results are still
/// published to the cache (and its store) for whoever asks next, and
/// every unfulfilled reservation is dropped so waiting peers re-claim
/// and finish the work themselves. A cancelled sweep records nothing:
/// the checkpoint and the returned points are all-or-nothing, so
/// cancellation can never perturb the bit-identical results of a later
/// uncancelled run.
pub fn sweep_on_cancellable<F, R>(
    pool: &WorkerPool,
    cache: Option<&ScenarioCache>,
    make_cfg: F,
    sweep_cfg: &SweepConfig,
    cancel: Option<&CancelToken>,
    mut on_round: R,
) -> Result<(Vec<SweepPoint>, SweepStats), CancelReason>
where
    F: Fn(f64) -> SimConfig,
    R: FnMut(&RoundReport),
{
    sweep_cfg.validate().unwrap_or_else(|e| panic!("{e}"));
    // One template per point; replications clone it and swap the seed.
    // The digests fingerprint the whole scenario (seed normalized out).
    let templates: Vec<SimConfig> = sweep_cfg.utilizations.iter().map(|&u| make_cfg(u)).collect();
    let digests: Vec<u64> = templates.iter().map(point_digest).collect();
    let scenario = sweep_digest(sweep_cfg.base_seed, &digests);

    let mut stats = SweepStats::default();
    let mut queue = match sweep_cfg
        .checkpoint
        .as_deref()
        .and_then(|p| checkpoint::load_checkpoint(p, sweep_cfg, scenario))
    {
        Some((runs, failures)) => {
            stats.resumed = runs.iter().map(Vec::len).sum::<usize>() as u64
                + failures.iter().map(Vec::len).sum::<usize>() as u64;
            ReplicationQueue::resume(sweep_cfg.rule(), runs, failures)
        }
        None => ReplicationQueue::new(templates.len(), sweep_cfg.rule()),
    };

    loop {
        if let Some(reason) = cancel.and_then(CancelToken::state) {
            return Err(reason);
        }
        let plan = queue.plan_round();
        if plan.is_empty() {
            break;
        }
        stats.rounds += 1;

        // Results land in slots aligned with the plan so recording stays
        // strictly in plan order — per-point runs must be in replication
        // order or aggregates (and stopping decisions) would drift.
        //
        // With a cache, the deadlock-free sharing protocol (see
        // [`cache`]): claim every task without blocking — hits fill
        // their slots, fresh reservations become this round's pool
        // batch, keys a concurrent sweep already reserved are deferred —
        // then execute and fulfil our own reservations, and only then
        // wait on the peers'. An abandoned peer reservation (its sweep
        // panicked) comes back `None`; re-claim and execute it ourselves.
        let mut slots: Vec<Option<Result<crate::sim::SimOutcome, String>>> =
            (0..plan.len()).map(|_| None).collect();
        let mut cache_hits = 0usize;
        let mut disk_hits = 0usize;
        let mut round_executed = 0usize;
        let mut pending: Vec<usize> = (0..plan.len()).collect();
        while !pending.is_empty() {
            let mut miss_slots = Vec::new();
            let mut miss_res: Vec<Option<cache::Reservation<'_>>> = Vec::new();
            let mut miss_cfgs = Vec::new();
            let mut busy = Vec::new();
            for i in pending {
                let task = plan[i];
                let seed = replication_seed(sweep_cfg.base_seed, task.rep);
                match cache.map(|c| c.claim(digests[task.point], sweep_cfg.base_seed, task.rep)) {
                    Some(cache::Claim::Hit { result, disk }) => {
                        slots[i] = Some(*result);
                        cache_hits += 1;
                        disk_hits += usize::from(disk);
                    }
                    Some(cache::Claim::Busy) => busy.push(i),
                    Some(cache::Claim::Reserved(res)) => {
                        miss_slots.push(i);
                        miss_res.push(Some(res));
                        miss_cfgs.push(templates[task.point].clone().with_seed(seed));
                    }
                    None => {
                        miss_slots.push(i);
                        miss_res.push(None);
                        miss_cfgs.push(templates[task.point].clone().with_seed(seed));
                    }
                }
            }
            let results = pool.run(miss_cfgs, sweep_cfg.audit, cancel);
            let mut skipped = false;
            let mut batch_executed = 0usize;
            for ((i, res), result) in miss_slots.into_iter().zip(miss_res).zip(results) {
                match result {
                    Some(result) => {
                        batch_executed += 1;
                        // Completed replications are published even when
                        // the round is about to be abandoned: they are
                        // valid, deterministic results a peer (or the
                        // retried request) reuses.
                        if let Some(res) = res {
                            res.fulfil(result.clone());
                        }
                        slots[i] = Some(result);
                    }
                    // A skipped task: the token fired mid-batch. Its
                    // reservation drops here, waking waiting peers to
                    // re-claim and execute the key themselves.
                    None => skipped = true,
                }
            }
            round_executed += batch_executed;
            stats.executed += batch_executed as u64;
            if skipped {
                return Err(cancel
                    .and_then(CancelToken::state)
                    .unwrap_or(cancel::CancelReason::Cancelled));
            }
            pending = Vec::new();
            for i in busy {
                let task = plan[i];
                let c = cache.expect("busy claims only happen with a cache");
                // We hold no reservations past this point, so abandoning
                // the wait on cancellation blocks nobody.
                match c.wait_cancellable(digests[task.point], sweep_cfg.base_seed, task.rep, cancel)
                {
                    Ok(Some(r)) => {
                        slots[i] = Some(r);
                        cache_hits += 1;
                    }
                    Ok(None) => pending.push(i),
                    Err(reason) => return Err(reason),
                }
            }
        }
        stats.cache_hits += cache_hits as u64;
        stats.disk_hits += disk_hits as u64;

        for (task, slot) in plan.iter().zip(slots) {
            let seed = replication_seed(sweep_cfg.base_seed, task.rep);
            queue.record(*task, seed, slot.expect("every planned task resolved"));
        }

        if let Some(path) = sweep_cfg.checkpoint.as_deref() {
            let (runs, failures) = queue.state();
            checkpoint::save_checkpoint(path, sweep_cfg, scenario, runs, failures);
        }
        on_round(&RoundReport {
            round: stats.rounds,
            tasks: plan.len(),
            cache_hits,
            disk_hits,
            executed: round_executed,
            open_points: queue.open_points(),
        });
    }

    Ok((queue.into_points(&sweep_cfg.utilizations), stats))
}

/// Runs an adaptive sweep: `make_cfg` builds the simulation for a target
/// utilization; the engine replicates every point until its relative
/// 95 % CI meets `rel_ci_target` (or the cap / saturation ends it),
/// running each round's mixed batch through the worker pool. A
/// convenience over [`sweep_on`] with a sweep-lifetime pool and no
/// cache.
pub fn sweep<F>(make_cfg: F, sweep_cfg: &SweepConfig) -> Vec<SweepPoint>
where
    F: Fn(f64) -> SimConfig,
{
    let pool = WorkerPool::new(sweep_cfg.threads);
    sweep_on(&pool, None, make_cfg, sweep_cfg, |_| {}).0
}
