//! The scenario cache: memoized per-replication outcomes shared across
//! sweeps, optionally bounded in memory and backed by a crash-safe disk
//! store.
//!
//! A replication is fully determined by `(scenario digest, base seed,
//! replication index)` — the digest pins every configuration axis, and
//! the seed is the base seed's substream at the index (common random
//! numbers). Two sweeps whose utilization grids overlap therefore ask
//! for *the same* replications at the shared points, and a long-running
//! `coalloc-exp serve` process answers the second request from memory,
//! bit-identically, instead of re-simulating.
//!
//! Concurrent requests share in-flight work too: [`ScenarioCache::claim`]
//! reserves a key so only one requester executes it, and peers wait for
//! the stored result ([`ScenarioCache::wait_cancellable`]). The deadlock-free
//! protocol is *claim everything without blocking, execute and fulfil
//! your own reservations, only then wait on other people's* — every
//! waiter is past its own stores, so every pending key has an owner that
//! finishes without waiting.
//!
//! Two optional capacities bound a long-lived daemon
//! ([`ScenarioCache::with`]):
//!
//! * a **disk store** ([`super::store::ResultStore`]): every completed
//!   result is written through on fulfilment, and a memory miss falls
//!   back to the store before reserving — so a restarted daemon answers
//!   previously computed replications as *disk hits* instead of
//!   re-executing them, bit-identically (a stored result and a re-run
//!   are the same pure function of the key);
//! * a **memory cap**: completed entries carry an LRU stamp, and
//!   inserting past the cap evicts the least-recently-used completed
//!   entries (never pending reservations — those are owned obligations).
//!   With a store attached, evicted entries remain disk hits; without
//!   one, a re-claim simply re-executes deterministically.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use super::cancel::{CancelReason, CancelToken};
use super::relock;
use super::store::ResultStore;
use crate::sim::SimOutcome;

/// Key of one memoized replication: `(point scenario digest, base seed,
/// replication index)`. See [`super::grid::point_digest`].
type Key = (u64, u64, u64);

enum Entry {
    /// Reserved by a live [`Reservation`]; the result is on its way.
    Pending,
    /// A completed replication (boxed: outcomes are large, pendings are
    /// plentiful) with its last-touch LRU stamp.
    Done { result: Box<Result<SimOutcome, String>>, stamp: u64 },
}

/// The guarded state: the entry map plus the LRU clock and a completed
/// count kept incrementally so cap checks are O(1).
#[derive(Default)]
struct CacheMap {
    map: HashMap<Key, Entry>,
    /// Monotonic touch clock; every hit or insert advances it.
    tick: u64,
    /// `Done` entries currently held.
    done: usize,
}

impl CacheMap {
    fn stamp(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Inserts a completed result (replacing a pending reservation or a
    /// stale duplicate) and evicts down to `cap` if one is set.
    fn insert_done(&mut self, key: Key, result: Result<SimOutcome, String>, cap: Option<usize>) {
        let stamp = self.stamp();
        let prior = self.map.insert(key, Entry::Done { result: Box::new(result), stamp });
        if !matches!(prior, Some(Entry::Done { .. })) {
            self.done += 1;
        }
        if let Some(cap) = cap {
            self.evict_to(cap);
        }
    }

    /// Evicts least-recently-used completed entries until at most `cap`
    /// remain. Pending reservations are never evicted: they are owned
    /// obligations with waiters, not cached data.
    fn evict_to(&mut self, cap: usize) {
        if self.done <= cap {
            return;
        }
        let mut stamps: Vec<(u64, Key)> = self
            .map
            .iter()
            .filter_map(|(k, e)| match e {
                Entry::Done { stamp, .. } => Some((*stamp, *k)),
                Entry::Pending => None,
            })
            .collect();
        stamps.sort_unstable();
        for &(_, key) in stamps.iter().take(self.done - cap) {
            self.map.remove(&key);
        }
        self.done = cap;
    }
}

/// A concurrent memo of completed replications, keyed by scenario
/// digest, base seed, and replication index. Failed replications are
/// cached too — a deterministic panic would only repeat.
#[derive(Default)]
pub struct ScenarioCache {
    inner: Mutex<CacheMap>,
    changed: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
    disk_hits: AtomicU64,
    disk: Option<ResultStore>,
    cap: Option<usize>,
}

/// What [`ScenarioCache::claim`] found; never blocks.
pub enum Claim<'a> {
    /// The replication is memoized; here it is. `disk` marks a result
    /// rehydrated from the backing store rather than found in memory.
    Hit {
        /// The memoized result.
        result: Box<Result<SimOutcome, String>>,
        /// Whether the hit came from the disk store.
        disk: bool,
    },
    /// Nobody has it: the key is now reserved for this caller, who must
    /// [`Reservation::fulfil`] it (dropping the reservation un-reserves).
    Reserved(Reservation<'a>),
    /// Another requester reserved it; [`ScenarioCache::wait_cancellable`]
    /// after fulfilling your own reservations.
    Busy,
}

/// An exclusive obligation to compute one replication; see [`Claim`].
pub struct Reservation<'a> {
    cache: &'a ScenarioCache,
    key: Key,
    fulfilled: bool,
}

impl Reservation<'_> {
    /// Publishes the computed result — written through to the disk
    /// store first, when one is attached — and wakes every waiter.
    pub fn fulfil(mut self, result: Result<SimOutcome, String>) {
        self.fulfilled = true;
        self.cache.write_through(self.key, &result);
        let mut inner = relock(&self.cache.inner);
        inner.insert_done(self.key, result, self.cache.cap);
        self.cache.changed.notify_all();
    }
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        if self.fulfilled {
            return;
        }
        // The owner died (a panicking handler unwound past the engine)
        // or its request was cancelled: un-reserve so waiters stop
        // waiting and re-claim the key.
        let mut inner = relock(&self.cache.inner);
        if matches!(inner.map.get(&self.key), Some(Entry::Pending)) {
            inner.map.remove(&self.key);
        }
        self.cache.changed.notify_all();
    }
}

impl ScenarioCache {
    /// An unbounded, memory-only cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// A cache with an optional backing [`ResultStore`] (write-through
    /// on fulfilment, fallback on memory misses) and an optional cap on
    /// completed entries held in memory (LRU eviction past it).
    pub fn with(disk: Option<ResultStore>, cap: Option<usize>) -> Self {
        ScenarioCache { disk, cap, ..Self::default() }
    }

    /// The backing disk store, when one is attached.
    pub fn disk_store(&self) -> Option<&ResultStore> {
        self.disk.as_ref()
    }

    fn write_through(&self, key: Key, result: &Result<SimOutcome, String>) {
        if let Some(store) = &self.disk {
            let (digest, seed, rep) = key;
            store.append(digest, seed, rep, result);
        }
    }

    /// Claims one replication without blocking; counts a hit or a miss
    /// (a [`Claim::Busy`] counts on the eventual
    /// [`Self::wait_cancellable`] instead).
    /// A memory miss consults the backing store before reserving: a
    /// stored result is rehydrated into memory and returned as a disk
    /// hit.
    pub fn claim(&self, point_digest: u64, base_seed: u64, rep: u64) -> Claim<'_> {
        let key = (point_digest, base_seed, rep);
        let mut inner = relock(&self.inner);
        let touch = inner.tick + 1;
        match inner.map.get_mut(&key) {
            Some(Entry::Done { result, stamp }) => {
                let result = result.clone();
                *stamp = touch;
                inner.tick = touch;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Claim::Hit { result, disk: false }
            }
            Some(Entry::Pending) => Claim::Busy,
            None => {
                if let Some(store) = &self.disk {
                    if let Some(result) = store.get(point_digest, base_seed, rep) {
                        inner.insert_done(key, result.clone(), self.cap);
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        self.disk_hits.fetch_add(1, Ordering::Relaxed);
                        return Claim::Hit { result: Box::new(result), disk: true };
                    }
                }
                inner.map.insert(key, Entry::Pending);
                self.misses.fetch_add(1, Ordering::Relaxed);
                Claim::Reserved(Reservation { cache: self, key, fulfilled: false })
            }
        }
    }

    /// Blocks until a [`Claim::Busy`] key resolves. `Ok(Some)` (counted
    /// as a hit) is the peer's result; `Ok(None)` means the peer
    /// abandoned its reservation — re-[`claim`](Self::claim) and execute
    /// it yourself. Only call after fulfilling your own reservations.
    ///
    /// With a token, returns `Err(CancelReason)` as soon as it fires
    /// (checked every few tens of milliseconds), leaving the key to its
    /// owner. The waiter holds no reservation here, so abandoning the
    /// wait frees nothing and blocks nobody.
    pub fn wait_cancellable(
        &self,
        point_digest: u64,
        base_seed: u64,
        rep: u64,
        cancel: Option<&CancelToken>,
    ) -> Result<Option<Result<SimOutcome, String>>, CancelReason> {
        let key = (point_digest, base_seed, rep);
        let mut inner = relock(&self.inner);
        loop {
            match inner.map.get(&key) {
                Some(Entry::Done { result, .. }) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(Some(result.as_ref().clone()));
                }
                Some(Entry::Pending) => {
                    if let Some(reason) = cancel.and_then(CancelToken::state) {
                        return Err(reason);
                    }
                    inner = match cancel {
                        // Bounded waits so the token is re-checked even
                        // if no fulfilment ever wakes us.
                        Some(_) => {
                            let (guard, _) = self
                                .changed
                                .wait_timeout(inner, Duration::from_millis(25))
                                .unwrap_or_else(std::sync::PoisonError::into_inner);
                            guard
                        }
                        None => self
                            .changed
                            .wait(inner)
                            .unwrap_or_else(std::sync::PoisonError::into_inner),
                    };
                }
                None => return Ok(None),
            }
        }
    }

    /// Memoizes a completed replication directly (no reservation
    /// needed), writing through to the disk store when one is attached.
    /// Concurrent stores of the same key are harmless: determinism
    /// guarantees they carry equal values.
    pub fn store(
        &self,
        point_digest: u64,
        base_seed: u64,
        rep: u64,
        result: Result<SimOutcome, String>,
    ) {
        let key = (point_digest, base_seed, rep);
        self.write_through(key, &result);
        let mut inner = relock(&self.inner);
        inner.insert_done(key, result, self.cap);
        self.changed.notify_all();
    }

    /// Lookups answered without execution since construction (memory
    /// and disk hits both count).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that fell through to execution since construction.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Hits answered by rehydrating the backing store (a subset of
    /// [`Self::hits`]).
    pub fn disk_hits(&self) -> u64 {
        self.disk_hits.load(Ordering::Relaxed)
    }

    /// Memoized replications currently held in memory (pending
    /// reservations not included).
    pub fn entries(&self) -> usize {
        relock(&self.inner).done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::pool::execute_isolated;
    use crate::policy::PolicyKind;
    use crate::sim::SimConfig;

    fn temp_store(tag: &str) -> ResultStore {
        let dir = std::env::temp_dir().join(format!("coalloc-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ResultStore::open(dir).expect("store opens")
    }

    #[test]
    fn claim_counts_hits_and_misses_and_returns_stored_results() {
        let cache = ScenarioCache::new();
        assert!(matches!(cache.claim(1, 2, 0), Claim::Reserved(_)));
        assert_eq!((cache.hits(), cache.misses()), (0, 1));

        let mut cfg = SimConfig::das(PolicyKind::Gs, 16, 0.3);
        cfg.total_jobs = 800;
        cfg.warmup_jobs = 100;
        let outcome = execute_isolated(&cfg, false);
        cache.store(1, 2, 0, outcome.clone());
        assert_eq!(cache.entries(), 1);

        let Claim::Hit { result, disk: false } = cache.claim(1, 2, 0) else {
            panic!("stored entry is a memory hit");
        };
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(result.unwrap().metrics.mean_response, outcome.unwrap().metrics.mean_response);

        cache.store(1, 2, 1, Err("poisoned".into()));
        let Claim::Hit { result, .. } = cache.claim(1, 2, 1) else {
            panic!("failure memoized");
        };
        assert!(result.is_err());
    }

    #[test]
    fn claims_are_exclusive_and_waiters_get_the_fulfilled_result() {
        let cache = std::sync::Arc::new(ScenarioCache::new());
        let res = match cache.claim(7, 7, 0) {
            Claim::Reserved(r) => r,
            _ => panic!("first claim reserves"),
        };
        assert!(matches!(cache.claim(7, 7, 0), Claim::Busy));

        let waiter = {
            let cache = std::sync::Arc::clone(&cache);
            std::thread::spawn(move || cache.wait_cancellable(7, 7, 0, None))
        };
        res.fulfil(Err("done".into()));
        let got = waiter.join().expect("waiter").expect("no token").expect("fulfilled");
        assert_eq!(got.unwrap_err(), "done");
        assert!(matches!(cache.claim(7, 7, 0), Claim::Hit { .. }));
    }

    #[test]
    fn an_abandoned_reservation_unblocks_waiters_for_a_reclaim() {
        let cache = std::sync::Arc::new(ScenarioCache::new());
        let res = match cache.claim(9, 9, 3) {
            Claim::Reserved(r) => r,
            _ => panic!("first claim reserves"),
        };
        let waiter = {
            let cache = std::sync::Arc::clone(&cache);
            std::thread::spawn(move || cache.wait_cancellable(9, 9, 3, None))
        };
        drop(res);
        let got = waiter.join().expect("waiter").expect("no token");
        assert!(got.is_none(), "abandonment reported");
        assert!(matches!(cache.claim(9, 9, 3), Claim::Reserved(_)), "key is free again");
    }

    #[test]
    fn the_cap_evicts_least_recently_used_entries_first() {
        let cache = ScenarioCache::with(None, Some(2));
        cache.store(1, 0, 0, Err("a".into()));
        cache.store(2, 0, 0, Err("b".into()));
        // Touch `a` so `b` becomes the LRU entry.
        assert!(matches!(cache.claim(1, 0, 0), Claim::Hit { .. }));
        cache.store(3, 0, 0, Err("c".into()));
        assert_eq!(cache.entries(), 2, "the cap holds");

        // `b` was evicted; `a` (touched) and `c` (newest) survive.
        assert!(matches!(cache.claim(2, 0, 0), Claim::Reserved(_)), "LRU entry evicted");
        assert!(matches!(cache.claim(1, 0, 0), Claim::Hit { disk: false, .. }));
        assert!(matches!(cache.claim(3, 0, 0), Claim::Hit { disk: false, .. }));
    }

    #[test]
    fn eviction_never_touches_pending_reservations() {
        let cache = ScenarioCache::with(None, Some(1));
        let res = match cache.claim(1, 0, 0) {
            Claim::Reserved(r) => r,
            _ => panic!("first claim reserves"),
        };
        cache.store(2, 0, 0, Err("b".into()));
        cache.store(3, 0, 0, Err("c".into()));
        assert!(matches!(cache.claim(1, 0, 0), Claim::Busy), "reservation survives eviction");
        res.fulfil(Err("a".into()));
        assert!(matches!(cache.claim(1, 0, 0), Claim::Hit { .. }));
    }

    #[test]
    fn an_evicted_entry_comes_back_as_a_disk_hit() {
        let cache = ScenarioCache::with(Some(temp_store("evict")), Some(1));
        cache.store(1, 0, 0, Err("a".into()));
        cache.store(2, 0, 0, Err("b".into()));
        assert_eq!(cache.entries(), 1, "memory stays capped");

        // `a` left memory, but the write-through store still has it.
        match cache.claim(1, 0, 0) {
            Claim::Hit { result, disk } => {
                assert!(disk, "rehydrated from the store");
                assert_eq!(result.unwrap_err(), "a");
            }
            _ => panic!("evicted entry must be a disk hit"),
        }
        assert_eq!(cache.disk_hits(), 1);
        let dir = cache.disk_store().expect("store attached").dir().to_path_buf();
        drop(cache);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn a_fresh_cache_over_an_old_store_rehydrates_instead_of_reserving() {
        let store = temp_store("rehydrate");
        let dir = store.dir().to_path_buf();
        {
            let cache = ScenarioCache::with(Some(store), None);
            cache.store(5, 6, 0, Err("first life".into()));
        }
        // A second cache over the same directory: the restart path.
        let cache =
            ScenarioCache::with(Some(ResultStore::open(&dir).expect("store reopens")), None);
        match cache.claim(5, 6, 0) {
            Claim::Hit { result, disk } => {
                assert!(disk);
                assert_eq!(result.unwrap_err(), "first life");
            }
            _ => panic!("the restarted cache must answer from disk"),
        }
        // Now in memory: the second claim is a plain hit.
        assert!(matches!(cache.claim(5, 6, 0), Claim::Hit { disk: false, .. }));
        assert_eq!(cache.disk_hits(), 1);
        drop(cache);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn a_cancelled_wait_returns_the_reason_and_leaves_the_key_reserved() {
        let cache = std::sync::Arc::new(ScenarioCache::new());
        let res = match cache.claim(4, 4, 0) {
            Claim::Reserved(r) => r,
            _ => panic!("first claim reserves"),
        };
        let token = CancelToken::new();
        let waiter = {
            let cache = std::sync::Arc::clone(&cache);
            let token = token.clone();
            std::thread::spawn(move || cache.wait_cancellable(4, 4, 0, Some(&token)))
        };
        token.cancel();
        assert!(matches!(waiter.join().expect("waiter"), Err(CancelReason::Cancelled)));
        // The owner is unaffected and can still fulfil.
        assert!(matches!(cache.claim(4, 4, 0), Claim::Busy));
        res.fulfil(Err("owned".into()));
        assert!(matches!(cache.claim(4, 4, 0), Claim::Hit { .. }));
    }
}
