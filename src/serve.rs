//! `coalloc-exp serve` — simulation as a service over JSONL.
//!
//! A long-running process reads one JSON request per line on stdin and
//! streams JSON events back on stdout. Requests are handled
//! concurrently on one process-lifetime [`WorkerPool`]; per-replication
//! results are memoized in one [`ScenarioCache`], so concurrent or
//! consecutive requests whose utilization grids overlap share
//! replications bit-identically (common-random-number substreams make a
//! replication a pure function of `(scenario, base seed, index)`).
//!
//! With [`ServeOptions::store`] the cache writes through to a
//! crash-safe on-disk [`ResultStore`]: a restarted daemon rehydrates
//! previously computed replications as *disk hits* instead of
//! re-executing them, and a SIGKILL loses at most the replication that
//! was mid-append. [`ServeOptions::cache_cap`] bounds the in-memory
//! cache with LRU eviction (evicted entries remain disk hits when a
//! store is attached).
//!
//! ## Protocol
//!
//! Request line (`kind: "sweep"`):
//!
//! ```json
//! {"id":"a","kind":"sweep","policy":"GS","limit":16,
//!  "utilizations":[0.2,0.4],"min_reps":2,"max_reps":2,"rel_ci":0.05,
//!  "seed":2003,"audit":true,"checkpoint":"cp.json","full":false}
//! ```
//!
//! plus the optional scenario axes (`capacities`, `faults`,
//! `interrupt`, `disposition`, `discipline`, `estimate_factor`,
//! `network`, `warmup`, `inject_panic`) with the same string syntax as
//! the CLI flags. `kind: "saturation"` instead takes `lo`, `hi`,
//! `tolerance`, and `replications` and runs the replicated bisection
//! ([`bisect_max_utilization`]); it checks those four before its first
//! probe, and its first two probes check that `lo` is stable and `hi`
//! saturated, so a bad value or a bracket that misses the threshold is
//! an `error` event naming the field, not a panic.
//!
//! Request lifecycle controls:
//!
//! * `"timeout_ms": N` on any sweep/saturation request arms a deadline;
//!   a request past it stops at the next replication boundary and
//!   reports `{"id":...,"event":"timeout"}` instead of a result.
//! * `{"kind":"cancel","target":"a"}` cancels the in-flight request
//!   whose `id` is `a` (falling back to the cancel line's own `id` when
//!   `target` is omitted); the cancelled request reports
//!   `{"id":"a","event":"cancelled"}`. Cancellation is cooperative:
//!   replications already executing finish, completed results stay
//!   cached for whoever asks next, and reservations are released so
//!   waiting peers re-claim and complete the shared work.
//! * `{"kind":"shutdown"}` stops reading input, drains in-flight
//!   requests, flushes/compacts the store, acknowledges with
//!   `{"id":...,"event":"shutdown"}` as the final event, and exits 0
//!   (stdin EOF drains the same way, without the acknowledgement).
//!
//! Response lines, interleaved across in-flight requests as rounds
//! complete (match them up by `id`):
//!
//! ```json
//! {"id":"a","event":"round","round":1,"tasks":4,"cache_hits":2,"executed":2,"open_points":0}
//! {"id":"a","event":"result","rounds":1,"resumed":0,"executed":2,"cache_hits":2,"points":[...]}
//! {"id":"b","event":"result","max_utilization":0.61}
//! {"id":"x","event":"error","error":"unknown policy `XX`"}
//! ```
//!
//! A malformed or failing request produces an `error` event for that
//! request only — the daemon and its pool keep serving, and the process
//! still exits 0 (an unwritable stdout is the one fatal error: the
//! daemon cancels in-flight work, drains, and exits nonzero). The
//! `points` array of a sweep result is serialized by the same code path
//! as `coalloc-exp sweep --json`, and is always the final field of its
//! line, so the two render byte-identically. Without a store the event
//! shapes are exactly the historical ones; with `--store` attached,
//! round and sweep-result events additionally carry `disk_hits` (before
//! `points`, which stays last).

use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use coalloc_core::experiment::{
    CancelReason, CancelToken, ResultStore, ScenarioCache, SweepConfig, WorkerPool,
};
use coalloc_core::{bisect_max_utilization, BisectionError, CoallocError, ProbePlan};

use crate::experiments::Scale;
use crate::scenario::ScenarioSpec;

/// One parsed request line. Every field is optional at the protocol
/// level; the request handler reports missing required fields as typed
/// per-request errors.
#[derive(Clone, Debug, serde::Deserialize)]
pub struct ServeRequest {
    /// Correlates response events with requests; echoed on every line.
    pub id: Option<String>,
    /// `"sweep"`, `"saturation"`, `"cancel"`, or `"shutdown"`.
    pub kind: Option<String>,
    /// Policy name (`GS`/`LS`/`LP`/`SC`/`GB`).
    pub policy: Option<String>,
    /// Component-size limit.
    pub limit: Option<u32>,
    /// Paper-scale run lengths instead of quick.
    pub full: Option<bool>,
    /// `--capacities` equivalent.
    pub capacities: Option<String>,
    /// `--faults` equivalent.
    pub faults: Option<String>,
    /// `--interrupt` equivalent.
    pub interrupt: Option<String>,
    /// `--disposition` equivalent.
    pub disposition: Option<String>,
    /// `--queue-discipline` equivalent.
    pub discipline: Option<String>,
    /// `--estimate-factor` equivalent.
    pub estimate_factor: Option<f64>,
    /// `--network` equivalent.
    pub network: Option<String>,
    /// `--warmup` equivalent.
    pub warmup: Option<String>,
    /// `--inject-panic` equivalent.
    pub inject_panic: Option<f64>,
    /// Sweep: the target-utilization grid.
    pub utilizations: Option<Vec<f64>>,
    /// Sweep: replication floor per point.
    pub min_reps: Option<u64>,
    /// Sweep: replication cap per point.
    pub max_reps: Option<u64>,
    /// Sweep: relative 95 % CI target.
    pub rel_ci: Option<f64>,
    /// Sweep: base seed (default 2003).
    pub seed: Option<u64>,
    /// Sweep: audit every replication.
    pub audit: Option<bool>,
    /// Sweep: checkpoint file path.
    pub checkpoint: Option<String>,
    /// Saturation: stable lower bracket.
    pub lo: Option<f64>,
    /// Saturation: saturated upper bracket.
    pub hi: Option<f64>,
    /// Saturation: bisection tolerance.
    pub tolerance: Option<f64>,
    /// Saturation: probe replications (majority vote).
    pub replications: Option<u64>,
    /// Deadline for this request in milliseconds; past it the request
    /// stops at the next replication boundary with a `timeout` event.
    pub timeout_ms: Option<u64>,
    /// `cancel`: the `id` of the in-flight request to cancel.
    pub target: Option<String>,
}

/// One response line, written field by field in protocol order:
/// `{"id":…,"event":…` and then whatever the event carries.
///
/// A sweep result's `points` is deliberately its LAST field: everything
/// after `"points":` up to the closing `}` is exactly
/// `serde_json::to_string(&points)` — the same bytes `coalloc-exp sweep
/// --json` prints — so clients and CI can compare results byte for byte.
struct EventLine(String);

impl EventLine {
    fn new(id: &str, event: &str) -> Self {
        let mut line = EventLine(String::from("{\"id\":"));
        serde::value::escape_into(id, &mut line.0);
        line.field("event", event)
    }

    /// Appends `,"name":value`.
    fn field(mut self, name: &str, value: &(impl serde::Serialize + ?Sized)) -> Self {
        self.0.push_str(",\"");
        self.0.push_str(name);
        self.0.push_str("\":");
        value.write_json(&mut self.0);
        self
    }

    /// Appends the field only when `present`: round and sweep-result
    /// lines carry `disk_hits` (the cache hits answered by rehydrating
    /// the disk store) only when a store is attached, so storeless
    /// daemons emit the historical bytes exactly.
    fn field_if(self, present: bool, name: &str, value: &impl serde::Serialize) -> Self {
        if present {
            self.field(name, value)
        } else {
            self
        }
    }

    fn finish(mut self) -> String {
        self.0.push('}');
        self.0
    }
}

/// How to run the serve loop; see [`serve_with`].
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Worker threads for the shared pool (0 = one per core).
    pub threads: usize,
    /// Run lengths for requests that don't say `full`.
    pub default_scale: Scale,
    /// Directory of the crash-safe result store; `None` = memory only.
    pub store: Option<PathBuf>,
    /// Completed entries kept in memory before LRU eviction; `None` =
    /// unbounded.
    pub cache_cap: Option<usize>,
}

/// What a serve session did, for the operator log.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeSummary {
    /// Request lines read (including malformed ones).
    pub requests: u64,
    /// Requests that ended in an `error` event.
    pub errors: u64,
    /// Requests that ended cancelled or timed out.
    pub cancelled: u64,
    /// Replications answered from the scenario cache (memory or disk).
    pub cache_hits: u64,
    /// Replications that simulated.
    pub cache_misses: u64,
    /// Cache hits answered by rehydrating the disk store.
    pub disk_hits: u64,
}

fn send(tx: &mpsc::Sender<String>, line: String) {
    // The writer thread only exits after the channel drains; a send
    // failure means the output pipe died, in which case the results
    // have nowhere to go anyway.
    let _ = tx.send(line);
}

fn error_event(tx: &mpsc::Sender<String>, id: &str, error: String) {
    send(tx, EventLine::new(id, "error").field("error", &error).finish());
}

/// The in-band terminal event of a cancelled or timed-out request
/// (`event` is `"cancelled"` or `"timeout"`) and the acknowledgement of
/// a `shutdown` request (`event` is `"shutdown"`).
fn lifecycle_event(tx: &mpsc::Sender<String>, id: &str, event: &str) {
    send(tx, EventLine::new(id, event).finish());
}

fn missing(field: &str) -> CoallocError {
    CoallocError::MissingValue { flag: field.to_string() }
}

/// Builds the scenario and sweep configuration a request describes.
/// Shared with nothing else on purpose: everything scenario-level goes
/// through [`ScenarioSpec::parse`], the same entry point the CLI uses.
fn spec_of(req: &ServeRequest, default_scale: Scale) -> Result<ScenarioSpec, CoallocError> {
    let scale = match req.full {
        Some(true) => Scale::Full,
        Some(false) => Scale::Quick,
        None => default_scale,
    };
    ScenarioSpec::parse(
        req.policy.as_deref(),
        req.limit,
        req.capacities.as_deref(),
        req.faults.as_deref(),
        req.interrupt.as_deref(),
        req.disposition.as_deref(),
        req.discipline.as_deref(),
        req.estimate_factor,
        req.network.as_deref(),
        req.warmup.as_deref(),
        req.inject_panic,
        scale,
    )
}

fn sweep_config(req: &ServeRequest, scale: Scale) -> Result<SweepConfig, CoallocError> {
    let mut cfg = scale.sweep();
    cfg.utilizations = req.utilizations.clone().ok_or_else(|| missing("utilizations"))?;
    if let Some(v) = req.min_reps {
        cfg.min_replications = v;
    }
    if let Some(v) = req.max_reps {
        cfg.max_replications = v;
    }
    if let Some(v) = req.rel_ci {
        cfg.rel_ci_target = v;
    }
    if let Some(v) = req.seed {
        cfg.base_seed = v;
    }
    cfg.audit = req.audit.unwrap_or(false);
    cfg.checkpoint = req.checkpoint.as_ref().map(std::path::PathBuf::from);
    cfg.validate()?;
    Ok(cfg)
}

/// Runs one request to completion, streaming round events. `Ok(None)`
/// is a completed request, `Ok(Some(reason))` one that was cancelled or
/// timed out (its lifecycle event has already been sent).
fn handle_request(
    req: &ServeRequest,
    id: &str,
    pool: &WorkerPool,
    cache: &ScenarioCache,
    cancel: &CancelToken,
    tx: &mpsc::Sender<String>,
    default_scale: Scale,
) -> Result<Option<CancelReason>, CoallocError> {
    let disk = cache.disk_store().is_some();
    let spec = spec_of(req, default_scale)?;
    match req.kind.as_deref() {
        Some("sweep") => {
            let cfg = sweep_config(req, spec.scale)?;
            let run = coalloc_core::sweep_on_cancellable(
                pool,
                Some(cache),
                spec.make_cfg(),
                &cfg,
                Some(cancel),
                |r| {
                    let round = EventLine::new(id, "round")
                        .field("round", &r.round)
                        .field("tasks", &r.tasks)
                        .field("cache_hits", &r.cache_hits)
                        .field_if(disk, "disk_hits", &r.disk_hits)
                        .field("executed", &r.executed)
                        .field("open_points", &r.open_points);
                    send(tx, round.finish());
                },
            );
            match run {
                Ok((points, stats)) => {
                    let result = EventLine::new(id, "result")
                        .field("rounds", &stats.rounds)
                        .field("resumed", &stats.resumed)
                        .field("executed", &stats.executed)
                        .field("cache_hits", &stats.cache_hits)
                        .field_if(disk, "disk_hits", &stats.disk_hits)
                        .field("points", &points);
                    send(tx, result.finish());
                    Ok(None)
                }
                Err(reason) => {
                    lifecycle_event(tx, id, reason.label());
                    Ok(Some(reason))
                }
            }
        }
        Some("saturation") => {
            let plan = ProbePlan { replications: req.replications.unwrap_or(3) };
            let (lo, hi) = (req.lo.unwrap_or(0.3), req.hi.unwrap_or(1.2));
            let tolerance = req.tolerance.unwrap_or(0.05);
            match bisect_max_utilization(
                pool,
                spec.make_cfg(),
                lo,
                hi,
                tolerance,
                &plan,
                Some(cancel),
            ) {
                Ok(max) => {
                    send(tx, EventLine::new(id, "result").field("max_utilization", &max).finish());
                    Ok(None)
                }
                Err(BisectionError::Config(e)) => Err(e.into()),
                Err(BisectionError::Cancelled(reason)) => {
                    lifecycle_event(tx, id, reason.label());
                    Ok(Some(reason))
                }
            }
        }
        other => Err(CoallocError::UnknownTarget {
            name: other.unwrap_or("<missing>").to_string(),
            what: "request kind".to_string(),
        }),
    }
}

/// In-flight request registry: `id -> cancel token`, registered
/// synchronously in the read loop *before* the handler thread spawns,
/// so a `cancel` line arriving immediately after its target always
/// finds it.
type TokenRegistry = Arc<Mutex<HashMap<String, CancelToken>>>;

fn registry_lock(
    tokens: &TokenRegistry,
) -> std::sync::MutexGuard<'_, HashMap<String, CancelToken>> {
    tokens.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Runs the serve loop. Returns when `input` reaches EOF or a
/// `shutdown` request arrives, after every in-flight request has
/// completed and the store (if any) has been flushed and compacted.
///
/// Every request — including a line that is not valid JSON — produces
/// at least one event; failures are per-request `error` events, never a
/// dead daemon. Panics inside a request handler (a configuration bug)
/// are caught and reported the same way.
/// The one fatal failure is the output side dying (broken pipe): the
/// daemon stops accepting requests, cancels in-flight work, drains, and
/// returns the write error so the process can exit nonzero.
pub fn serve_with<R: BufRead, W: Write + Send + 'static>(
    input: R,
    output: W,
    opts: &ServeOptions,
) -> std::io::Result<ServeSummary> {
    let pool = Arc::new(WorkerPool::new(opts.threads));
    let disk = match &opts.store {
        Some(dir) => {
            let store = ResultStore::open(dir)?;
            let rec = store.recovery();
            eprintln!(
                "serve: result store {} rehydrated {} records \
                 ({} superseded, {} damaged segments)",
                dir.display(),
                rec.live,
                rec.superseded,
                rec.damaged_segments
            );
            Some(store)
        }
        None => None,
    };
    let cache = Arc::new(ScenarioCache::with(disk, opts.cache_cap));
    let errors = Arc::new(AtomicU64::new(0));
    let cancelled = Arc::new(AtomicU64::new(0));
    let tokens: TokenRegistry = Arc::new(Mutex::new(HashMap::new()));
    let writer_dead = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::channel::<String>();

    // One writer owns the output: events from concurrent handlers
    // interleave at line granularity, flushed per line so clients see
    // rounds as they complete. A write failure (broken pipe) marks the
    // daemon dead instead of panicking the join below.
    let writer = {
        let dead = Arc::clone(&writer_dead);
        std::thread::spawn(move || -> std::io::Result<W> {
            let mut output = output;
            for line in rx {
                let wrote = output
                    .write_all(line.as_bytes())
                    .and_then(|()| output.write_all(b"\n"))
                    .and_then(|()| output.flush());
                if let Err(e) = wrote {
                    dead.store(true, Ordering::Release);
                    return Err(e);
                }
            }
            Ok(output)
        })
    };

    let default_scale = opts.default_scale;
    let mut summary = ServeSummary::default();
    let mut handlers = Vec::new();
    let mut shutdown_id: Option<String> = None;
    for line in input.lines() {
        if writer_dead.load(Ordering::Acquire) {
            break;
        }
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        summary.requests += 1;
        let req: ServeRequest = match serde_json::from_str(&line) {
            Ok(req) => req,
            Err(e) => {
                errors.fetch_add(1, Ordering::Relaxed);
                error_event(&tx, "?", format!("unreadable request: {e}"));
                continue;
            }
        };
        let id = req.id.clone().unwrap_or_else(|| "?".to_string());
        match req.kind.as_deref() {
            // Lifecycle kinds are handled synchronously on the read
            // thread: a cancel must land before the next line is read,
            // and a shutdown must stop the read loop itself.
            Some("cancel") => {
                let target = req.target.clone().or_else(|| req.id.clone());
                let found = target.as_ref().and_then(|t| registry_lock(&tokens).get(t).cloned());
                match (target, found) {
                    (Some(_), Some(token)) => token.cancel(),
                    (Some(t), None) => {
                        errors.fetch_add(1, Ordering::Relaxed);
                        error_event(&tx, &id, format!("no in-flight request `{t}` to cancel"));
                    }
                    (None, _) => {
                        errors.fetch_add(1, Ordering::Relaxed);
                        error_event(&tx, &id, "cancel needs a `target` id".to_string());
                    }
                }
                continue;
            }
            Some("shutdown") => {
                shutdown_id = Some(id);
                break;
            }
            _ => {}
        }
        let token = match req.timeout_ms {
            Some(ms) => CancelToken::with_timeout(Duration::from_millis(ms)),
            None => CancelToken::new(),
        };
        registry_lock(&tokens).insert(id.clone(), token.clone());
        // Join the handlers that have finished: an unjoined thread keeps
        // its stack mapped, so a long-lived daemon would otherwise grow
        // by one stack per request it ever answered.
        let (finished, running) =
            handlers.into_iter().partition::<Vec<_>, _>(std::thread::JoinHandle::is_finished);
        handlers = running;
        for h in finished {
            let _ = h.join();
        }
        let (pool, cache, tx) = (Arc::clone(&pool), Arc::clone(&cache), tx.clone());
        let (errors, cancelled, tokens) =
            (Arc::clone(&errors), Arc::clone(&cancelled), Arc::clone(&tokens));
        handlers.push(std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                handle_request(&req, &id, &pool, &cache, &token, &tx, default_scale)
            }));
            registry_lock(&tokens).remove(&id);
            match outcome {
                Ok(Ok(None)) => {}
                Ok(Ok(Some(_reason))) => {
                    cancelled.fetch_add(1, Ordering::Relaxed);
                }
                Ok(Err(e)) => {
                    errors.fetch_add(1, Ordering::Relaxed);
                    error_event(&tx, &id, e.to_string());
                }
                Err(payload) => {
                    errors.fetch_add(1, Ordering::Relaxed);
                    let cause = payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_string());
                    error_event(&tx, &id, format!("request panicked: {cause}"));
                }
            }
        }));
    }
    if writer_dead.load(Ordering::Acquire) {
        // Nobody can see further results: wind in-flight work down at
        // the next replication boundary instead of simulating into a
        // dead pipe.
        for token in registry_lock(&tokens).values() {
            token.cancel();
        }
    }
    for h in handlers {
        let _ = h.join();
    }
    if let Some(id) = shutdown_id {
        lifecycle_event(&tx, &id, "shutdown");
    }
    drop(tx);
    let writer_result = writer.join();

    // Graceful exit: appends were flushed as they happened; compaction
    // folds restart-duplicated segments into one. Failure to compact
    // degrades disk usage, never correctness.
    if let Some(store) = cache.disk_store() {
        if store.fragmented() {
            if let Err(e) = store.compact() {
                eprintln!("warning: result store compaction failed ({e}); leaving segments as-is");
            }
        }
    }

    summary.errors = errors.load(Ordering::Relaxed);
    summary.cancelled = cancelled.load(Ordering::Relaxed);
    summary.cache_hits = cache.hits();
    summary.cache_misses = cache.misses();
    summary.disk_hits = cache.disk_hits();
    match writer_result {
        Ok(Ok(_)) => Ok(summary),
        Ok(Err(e)) => Err(e),
        Err(_) => Err(std::io::Error::other("writer thread panicked")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Shared(Arc<std::sync::Mutex<Vec<u8>>>);
    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn run_opts(lines: &str, opts: &ServeOptions) -> (Vec<serde::value::Value>, ServeSummary) {
        let buf = Arc::new(std::sync::Mutex::new(Vec::new()));
        let summary =
            serve_with(lines.as_bytes(), Shared(Arc::clone(&buf)), opts).expect("serve runs");
        let text = String::from_utf8(buf.lock().unwrap().clone()).expect("utf8 output");
        let events = text
            .lines()
            .map(|l| serde::value::parse(l).expect("every output line is JSON"))
            .collect();
        (events, summary)
    }

    fn run_lines(lines: &str) -> (Vec<serde::value::Value>, ServeSummary) {
        let opts =
            ServeOptions { threads: 2, default_scale: Scale::Quick, store: None, cache_cap: None };
        run_opts(lines, &opts)
    }

    fn field<'a>(ev: &'a serde::value::Value, name: &str) -> &'a serde::value::Value {
        serde::value::field(ev, name).expect("event is an object")
    }

    /// The keys of the first `kind` event, in order.
    fn keys_of<'a>(events: &'a [serde::value::Value], kind: &str) -> Vec<&'a str> {
        match events.iter().find(|e| str_field(e, "event") == kind) {
            Some(serde::value::Value::Object(fields)) => {
                fields.iter().map(|(k, _)| k.as_str()).collect()
            }
            other => panic!("no {kind} object event: {other:?}"),
        }
    }

    const ROUND_KEYS: [&str; 8] =
        ["id", "event", "round", "tasks", "cache_hits", "disk_hits", "executed", "open_points"];
    const RESULT_KEYS: [&str; 8] =
        ["id", "event", "rounds", "resumed", "executed", "cache_hits", "disk_hits", "points"];

    /// `keys` without `disk_hits`: the shape of a storeless daemon's
    /// events.
    fn storeless(keys: [&str; 8]) -> Vec<&str> {
        keys.into_iter().filter(|&k| k != "disk_hits").collect()
    }

    fn str_field(ev: &serde::value::Value, name: &str) -> String {
        match field(ev, name) {
            serde::value::Value::String(s) => s.clone(),
            other => panic!("field {name} is {other:?}"),
        }
    }

    #[test]
    fn malformed_and_failing_requests_error_per_request_not_per_process() {
        let input = concat!(
            "this is not json\n",
            r#"{"id":"bad-policy","kind":"sweep","policy":"XX","limit":16,"utilizations":[0.3]}"#,
            "\n",
            r#"{"id":"bad-kind","kind":"resonate","policy":"GS","limit":16}"#,
            "\n",
            r#"{"id":"ok","kind":"sweep","policy":"GS","limit":16,"utilizations":[0.2],"min_reps":1,"max_reps":1}"#,
            "\n",
        );
        let (events, summary) = run_lines(input);
        assert_eq!(summary.requests, 4);
        assert_eq!(summary.errors, 3);
        let errors: Vec<_> = events.iter().filter(|e| str_field(e, "event") == "error").collect();
        assert_eq!(errors.len(), 3);
        // The healthy request still completed on the same daemon.
        let results: Vec<_> = events.iter().filter(|e| str_field(e, "event") == "result").collect();
        assert_eq!(results.len(), 1);
        assert_eq!(str_field(results[0], "id"), "ok");
    }

    #[test]
    fn an_invalid_bisection_bracket_reports_and_the_daemon_survives() {
        let input = concat!(
            // Both brackets stable: the bisection returns an error naming
            // `hi`, and the daemon answers the next request.
            r#"{"id":"sat","kind":"saturation","policy":"GS","limit":16,"lo":0.05,"hi":0.1,"replications":1}"#,
            "\n",
            r#"{"id":"after","kind":"sweep","policy":"GS","limit":16,"utilizations":[0.2],"min_reps":1,"max_reps":1}"#,
            "\n",
        );
        let (events, summary) = run_lines(input);
        assert_eq!(summary.errors, 1);
        let err = events
            .iter()
            .find(|e| str_field(e, "event") == "error")
            .expect("bracket failure reported");
        assert_eq!(str_field(err, "id"), "sat");
        let error = str_field(err, "error");
        assert!(error.starts_with("invalid hi: ") && error.contains("still stable"), "{error}");
        assert!(!error.contains("panicked"), "{error}");
        assert!(events
            .iter()
            .any(|e| str_field(e, "event") == "result" && str_field(e, "id") == "after"));
    }

    #[test]
    fn overlapping_requests_share_the_cache() {
        let a = r#"{"id":"a","kind":"sweep","policy":"GS","limit":16,"utilizations":[0.2,0.4],"min_reps":2,"max_reps":2}"#;
        let b = r#"{"id":"b","kind":"sweep","policy":"GS","limit":16,"utilizations":[0.4,0.6],"min_reps":2,"max_reps":2}"#;
        let (events, summary) = run_lines(&format!("{a}\n{b}\n"));
        assert_eq!(summary.errors, 0);
        assert!(summary.cache_hits >= 2, "0.4's replications answered from memory");
        // Round events stream before results and echo per-round counts;
        // without a store neither event carries `disk_hits`.
        assert_eq!(keys_of(&events, "round"), storeless(ROUND_KEYS));
        assert_eq!(keys_of(&events, "result"), storeless(RESULT_KEYS));
    }

    #[test]
    fn an_expired_deadline_reports_timeout_and_the_daemon_keeps_serving() {
        let input = concat!(
            r#"{"id":"late","kind":"sweep","policy":"GS","limit":16,"utilizations":[0.2],"min_reps":2,"max_reps":2,"timeout_ms":0}"#,
            "\n",
            r#"{"id":"ok","kind":"sweep","policy":"GS","limit":16,"utilizations":[0.2],"min_reps":1,"max_reps":1}"#,
            "\n",
        );
        let (events, summary) = run_lines(input);
        assert_eq!(summary.cancelled, 1);
        assert_eq!(summary.errors, 0);
        assert!(events
            .iter()
            .any(|e| str_field(e, "event") == "timeout" && str_field(e, "id") == "late"));
        assert!(events
            .iter()
            .any(|e| str_field(e, "event") == "result" && str_field(e, "id") == "ok"));
    }

    #[test]
    fn an_expired_saturation_deadline_reports_one_timeout_and_the_daemon_keeps_serving() {
        let input = concat!(
            r#"{"id":"late","kind":"saturation","policy":"GS","limit":16,"lo":0.3,"hi":1.2,"replications":1,"timeout_ms":0}"#,
            "\n",
            r#"{"id":"ok","kind":"sweep","policy":"GS","limit":16,"utilizations":[0.2],"min_reps":1,"max_reps":1}"#,
            "\n",
        );
        let (events, summary) = run_lines(input);
        assert_eq!(summary.cancelled, 1);
        assert_eq!(summary.errors, 0);
        let late: Vec<String> = events
            .iter()
            .filter(|e| str_field(e, "id") == "late")
            .map(|e| str_field(e, "event"))
            .collect();
        assert_eq!(late, ["timeout"], "the search's only event is its timeout");
        assert!(events
            .iter()
            .any(|e| str_field(e, "event") == "result" && str_field(e, "id") == "ok"));
    }

    #[test]
    fn cancelling_an_unknown_target_is_a_request_error_not_a_dead_daemon() {
        let input = concat!(
            r#"{"id":"c","kind":"cancel","target":"ghost"}"#,
            "\n",
            r#"{"id":"ok","kind":"sweep","policy":"GS","limit":16,"utilizations":[0.2],"min_reps":1,"max_reps":1}"#,
            "\n",
        );
        let (events, summary) = run_lines(input);
        assert_eq!(summary.errors, 1);
        let err = events.iter().find(|e| str_field(e, "event") == "error").expect("cancel error");
        assert!(str_field(err, "error").contains("ghost"));
        assert!(events.iter().any(|e| str_field(e, "event") == "result"));
    }

    #[test]
    fn shutdown_drains_in_flight_work_and_acknowledges_last() {
        let input = concat!(
            r#"{"id":"work","kind":"sweep","policy":"GS","limit":16,"utilizations":[0.2],"min_reps":2,"max_reps":2}"#,
            "\n",
            r#"{"id":"down","kind":"shutdown"}"#,
            "\n",
            r#"{"id":"never","kind":"sweep","policy":"GS","limit":16,"utilizations":[0.2]}"#,
            "\n",
        );
        let (events, summary) = run_lines(input);
        // The line after shutdown is never read.
        assert_eq!(summary.requests, 2);
        assert!(events
            .iter()
            .any(|e| str_field(e, "event") == "result" && str_field(e, "id") == "work"));
        let last = events.last().expect("shutdown acknowledged");
        assert_eq!(str_field(last, "event"), "shutdown");
        assert_eq!(str_field(last, "id"), "down");
        assert!(!events.iter().any(|e| str_field(e, "id") == "never"));
    }

    #[test]
    fn a_store_backed_daemon_reports_disk_hits_on_its_second_life() {
        let dir = std::env::temp_dir().join(format!("coalloc-serve-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = ServeOptions {
            threads: 2,
            default_scale: Scale::Quick,
            store: Some(dir.clone()),
            cache_cap: None,
        };
        let req = concat!(
            r#"{"id":"a","kind":"sweep","policy":"GS","limit":16,"utilizations":[0.2],"min_reps":2,"max_reps":2}"#,
            "\n"
        );
        let (_, first) = run_opts(req, &opts);
        assert_eq!(first.disk_hits, 0);
        assert!(first.cache_misses > 0, "first life executes");

        // Same request on a fresh daemon over the same store directory:
        // every replication is a disk hit, nothing re-executes.
        let (events, second) = run_opts(req, &opts);
        assert_eq!(second.cache_misses, 0, "second life re-executes nothing");
        assert_eq!(second.disk_hits, first.cache_misses);
        let result =
            events.iter().find(|e| str_field(e, "event") == "result").expect("rehydrated result");
        match field(result, "disk_hits") {
            serde::value::Value::Uint(n) => assert!(*n > 0, "disk hits surfaced in-band"),
            other => panic!("disk_hits is {other:?}"),
        }
        // With a store, `disk_hits` sits before `points`, which stays last.
        assert_eq!(keys_of(&events, "round"), ROUND_KEYS);
        assert_eq!(keys_of(&events, "result"), RESULT_KEYS);
        std::fs::remove_dir_all(&dir).ok();
    }
}
