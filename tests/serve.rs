//! Process-level tests of `coalloc-exp serve`: the JSONL daemon must
//! share cached replications across concurrent overlapping requests
//! bit-identically, resume checkpointed sweeps across a kill-and-restart
//! without re-running completed work, and survive panic-injected
//! replications as per-request data — never as a dead daemon.

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};

/// Runs the real `coalloc-exp` binary with `args`, feeding `input` on
/// stdin, and returns `(stdout, stderr, success)`.
fn run_exp(args: &[&str], input: &str) -> (String, String, bool) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_coalloc-exp"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("coalloc-exp spawns");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(input.as_bytes())
        .expect("request lines written");
    let out = child.wait_with_output().expect("coalloc-exp runs");
    (
        String::from_utf8(out.stdout).expect("utf8 stdout"),
        String::from_utf8(out.stderr).expect("utf8 stderr"),
        out.status.success(),
    )
}

fn serve(input: &str) -> (String, String, bool) {
    run_exp(&["serve", "--threads", "2"], input)
}

/// The JSON events of one request id, in arrival order.
fn events_for<'a>(stdout: &'a str, id: &str) -> Vec<&'a str> {
    let tag = format!("\"id\":\"{id}\"");
    stdout.lines().filter(|l| l.contains(&tag)).collect()
}

/// The `points` array of a request's result event — exactly the bytes
/// `coalloc-exp sweep --json` would print (minus the newline).
fn points_of(stdout: &str, id: &str) -> String {
    let line = events_for(stdout, id)
        .into_iter()
        .find(|l| l.contains("\"event\":\"result\""))
        .unwrap_or_else(|| panic!("request {id} has a result event in:\n{stdout}"));
    let start = line.find("\"points\":").expect("sweep results carry points");
    line[start + "\"points\":".len()..line.len() - 1].to_string()
}

fn field_u64(line: &str, name: &str) -> u64 {
    let tag = format!("\"{name}\":");
    let start = line.find(&tag).unwrap_or_else(|| panic!("{name} in {line}")) + tag.len();
    line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("integer field")
}

#[test]
fn overlapping_concurrent_requests_share_the_cache_bit_identically() {
    let a = r#"{"id":"a","kind":"sweep","policy":"GS","limit":16,"utilizations":[0.25,0.45],"min_reps":2,"max_reps":2,"audit":true}"#;
    let b = r#"{"id":"b","kind":"sweep","policy":"GS","limit":16,"utilizations":[0.45,0.6],"min_reps":2,"max_reps":2,"audit":true}"#;
    let (stdout, stderr, ok) = serve(&format!("{a}\n{b}\n"));
    assert!(ok, "serve exits 0: {stderr}");

    // The shared 0.45 point ran once: whichever request claimed it first
    // executed its two replications, the other waited and hit.
    let hits: u64 = ["a", "b"]
        .iter()
        .map(|id| {
            let result = events_for(&stdout, id)
                .into_iter()
                .find(|l| l.contains("\"event\":\"result\""))
                .expect("both requests complete");
            field_u64(result, "cache_hits")
        })
        .sum();
    assert_eq!(hits, 2, "0.45's two replications answered from the shared cache:\n{stdout}");

    // And sharing never changes the numbers: each request's points are
    // byte-identical to a fresh single-request isolated run.
    for (id, utils) in [("a", "0.25,0.45"), ("b", "0.45,0.6")] {
        let (isolated, iso_err, iso_ok) = run_exp(
            &[
                "sweep",
                "GS",
                "16",
                "--utils",
                utils,
                "--min-reps",
                "2",
                "--max-reps",
                "2",
                "--audit",
                "--json",
            ],
            "",
        );
        assert!(iso_ok, "isolated sweep runs: {iso_err}");
        assert_eq!(
            points_of(&stdout, id),
            isolated.trim_end(),
            "request {id}: serve result differs from the isolated sweep"
        );
    }
}

#[test]
fn a_killed_serve_resumes_its_checkpoint_without_rerunning() {
    let dir = std::env::temp_dir().join(format!("serve-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let cp = dir.join("resume.json");
    let cp_str = cp.display().to_string();
    let req = format!(
        r#"{{"id":"r","kind":"sweep","policy":"LS","limit":16,"utilizations":[0.3,0.5],"min_reps":2,"max_reps":2,"checkpoint":"{cp_str}"}}"#
    );

    // First daemon completes the sweep and dies (EOF plays the kill: the
    // checkpoint was flushed after every round, which is what a SIGKILL
    // mid-flight would leave behind).
    let (first, stderr, ok) = serve(&format!("{req}\n"));
    assert!(ok, "first daemon exits 0: {stderr}");
    assert!(cp.exists(), "checkpoint written");
    let first_points = points_of(&first, "r");

    // A fresh daemon (empty in-memory cache) resumes from the file:
    // everything is recovered, nothing re-executes, bytes match.
    let (second, stderr, ok) = serve(&format!("{req}\n"));
    assert!(ok, "second daemon exits 0: {stderr}");
    let result = events_for(&second, "r")
        .into_iter()
        .find(|l| l.contains("\"event\":\"result\""))
        .expect("resumed request completes");
    assert_eq!(field_u64(result, "resumed"), 4, "all four replications recovered");
    assert_eq!(field_u64(result, "executed"), 0, "nothing re-ran");
    assert_eq!(points_of(&second, "r"), first_points, "resume is bit-identical");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_restarted_store_daemon_rehydrates_instead_of_re_executing() {
    let dir = std::env::temp_dir().join(format!("serve-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = dir.display().to_string();
    let req = r#"{"id":"d","kind":"sweep","policy":"GS","limit":16,"utilizations":[0.3,0.5],"min_reps":2,"max_reps":2}"#;

    // First life executes everything and appends each replication to
    // the store as it completes (EOF plays the crash-free shutdown; the
    // kill-mid-stream variant is CI's serve-durability job).
    let (first, stderr, ok) =
        run_exp(&["serve", "--threads", "2", "--store", &store], &format!("{req}\n"));
    assert!(ok, "first daemon exits 0: {stderr}");
    let result = events_for(&first, "d")
        .into_iter()
        .find(|l| l.contains("\"event\":\"result\""))
        .expect("first life completes");
    assert_eq!(field_u64(result, "executed"), 4, "first life simulates all four replications");
    assert_eq!(field_u64(result, "disk_hits"), 0);
    let first_points = points_of(&first, "d");

    // Second life over the same directory: every replication is a disk
    // hit, nothing re-executes, and the points are byte-identical.
    let (second, stderr, ok) =
        run_exp(&["serve", "--threads", "2", "--store", &store], &format!("{req}\n"));
    assert!(ok, "second daemon exits 0: {stderr}");
    assert!(stderr.contains("rehydrated"), "restart reports rehydration: {stderr}");
    let result = events_for(&second, "d")
        .into_iter()
        .find(|l| l.contains("\"event\":\"result\""))
        .expect("second life completes");
    assert_eq!(field_u64(result, "executed"), 0, "nothing re-ran:\n{second}");
    assert_eq!(field_u64(result, "disk_hits"), 4, "all four answered from disk");
    assert_eq!(points_of(&second, "d"), first_points, "rehydration is bit-identical");

    // And the durable daemon's numbers match a storeless sweep exactly:
    // the store is invisible in the results.
    let (isolated, iso_err, iso_ok) = run_exp(
        &[
            "sweep",
            "GS",
            "16",
            "--utils",
            "0.3,0.5",
            "--min-reps",
            "2",
            "--max-reps",
            "2",
            "--json",
        ],
        "",
    );
    assert!(iso_ok, "isolated sweep runs: {iso_err}");
    assert_eq!(first_points, isolated.trim_end(), "store never perturbs results");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_corrupted_store_costs_only_the_damaged_suffix_never_the_daemon() {
    let dir = std::env::temp_dir().join(format!("serve-corrupt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = dir.display().to_string();
    let req = r#"{"id":"c","kind":"sweep","policy":"GS","limit":16,"utilizations":[0.3],"min_reps":2,"max_reps":2}"#;

    let (first, stderr, ok) =
        run_exp(&["serve", "--threads", "2", "--store", &store], &format!("{req}\n"));
    assert!(ok, "first daemon exits 0: {stderr}");
    let first_points = points_of(&first, "c");

    // Tear the tail off the newest segment — the torn-write shape a
    // power cut leaves behind.
    let mut segments: Vec<_> = std::fs::read_dir(&dir)
        .expect("store dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .collect();
    segments.sort();
    let victim = segments.last().expect("store has a segment");
    let len = std::fs::metadata(victim).expect("segment metadata").len();
    let file = std::fs::OpenOptions::new().write(true).open(victim).expect("open segment");
    file.set_len(len.saturating_sub(7)).expect("truncate segment");
    drop(file);

    // The restarted daemon drops the damaged suffix, re-executes only
    // what was lost, and still answers bit-identically — exit 0, never
    // a crash.
    let (second, stderr, ok) =
        run_exp(&["serve", "--threads", "2", "--store", &store], &format!("{req}\n"));
    assert!(ok, "daemon survives a torn segment: {stderr}");
    let result = events_for(&second, "c")
        .into_iter()
        .find(|l| l.contains("\"event\":\"result\""))
        .expect("request completes over the damaged store");
    assert!(field_u64(result, "executed") <= 1, "only the torn record re-ran:\n{second}");
    assert!(field_u64(result, "disk_hits") >= 1, "the intact prefix rehydrated:\n{second}");
    assert_eq!(points_of(&second, "c"), first_points, "recovery is bit-identical");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_cancelled_request_reports_in_band_and_the_daemon_keeps_serving() {
    // `big` would run up to 400 replications; the cancel lands as soon
    // as the read loop sees it (lifecycle kinds are handled on the read
    // thread), so `big` stops at the next replication boundary. `peer`
    // overlaps `big`'s first replications: whatever completed before the
    // cancel is cached for it, and whatever was reserved is released for
    // it to claim — either way it completes.
    let big = r#"{"id":"big","kind":"sweep","policy":"GS","limit":16,"utilizations":[0.3],"min_reps":400,"max_reps":400}"#;
    let cancel = r#"{"id":"big","kind":"cancel"}"#;
    let peer = r#"{"id":"peer","kind":"sweep","policy":"GS","limit":16,"utilizations":[0.3],"min_reps":2,"max_reps":2}"#;
    let (stdout, stderr, ok) = serve(&format!("{big}\n{cancel}\n{peer}\n"));
    assert!(ok, "serve exits 0: {stderr}");
    assert!(
        events_for(&stdout, "big").iter().any(|l| l.contains("\"event\":\"cancelled\"")),
        "cancelled request reports in-band:\n{stdout}"
    );
    assert!(
        !events_for(&stdout, "big").iter().any(|l| l.contains("\"event\":\"result\"")),
        "a cancelled request has no result:\n{stdout}"
    );
    assert!(
        events_for(&stdout, "peer").iter().any(|l| l.contains("\"event\":\"result\"")),
        "the waiting peer completes after the cancel frees reservations:\n{stdout}"
    );
}

#[test]
fn shutdown_drains_in_flight_work_and_exits_zero() {
    let work = r#"{"id":"w","kind":"sweep","policy":"GS","limit":16,"utilizations":[0.3],"min_reps":2,"max_reps":2}"#;
    let down = r#"{"id":"down","kind":"shutdown"}"#;
    let (stdout, stderr, ok) = serve(&format!("{work}\n{down}\n"));
    assert!(ok, "shutdown exits 0: {stderr}");
    assert!(
        events_for(&stdout, "w").iter().any(|l| l.contains("\"event\":\"result\"")),
        "in-flight work drains before shutdown:\n{stdout}"
    );
    let last = stdout.lines().last().expect("events emitted");
    assert!(
        last.contains("\"event\":\"shutdown\"") && last.contains("\"id\":\"down\""),
        "shutdown acknowledged as the final event:\n{stdout}"
    );
}

#[test]
fn panic_injected_replications_surface_as_failures_not_a_dead_daemon() {
    let poisoned = r#"{"id":"p","kind":"sweep","policy":"LS","limit":16,"utilizations":[0.3,0.5],"min_reps":2,"max_reps":2,"inject_panic":0.5}"#;
    let after = r#"{"id":"q","kind":"sweep","policy":"LS","limit":16,"utilizations":[0.3],"min_reps":1,"max_reps":1}"#;
    let (stdout, stderr, ok) = serve(&format!("{poisoned}\n{after}\n"));
    assert!(ok, "serve exits 0: {stderr}");

    // The poisoned point's replications come back as recorded failures
    // inside a normal result event...
    let points = points_of(&stdout, "p");
    assert!(points.contains("\"cause\""), "failures are data in the response:\n{points}");
    // ...while the healthy point still carries real runs.
    assert!(points.contains("\"mean_response\""), "healthy points unaffected:\n{points}");
    // ...and the daemon lived to serve the next request.
    assert!(
        events_for(&stdout, "q").iter().any(|l| l.contains("\"event\":\"result\"")),
        "daemon survives poisoned replications:\n{stdout}"
    );
}

/// A long-lived daemon does not keep a thread stack per request: each
/// finished request's handler is joined before the next one spawns.
/// Left unjoined, 200 handlers add about 400 lines to the daemon's
/// `/proc/<pid>/maps` (a stack and its guard page each).
#[cfg(target_os = "linux")]
#[test]
fn a_closed_loop_of_requests_does_not_grow_the_daemons_mappings() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_coalloc-exp"))
        .args(["serve", "--threads", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("coalloc-exp spawns");
    let maps = format!("/proc/{}/maps", child.id());
    let mappings = || std::fs::read_to_string(&maps).expect("daemon maps readable").lines().count();
    let mut stdin = child.stdin.take().expect("piped stdin");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let req = r#"{"id":"w","kind":"sweep","policy":"GS","limit":16,"utilizations":[0.3],"min_reps":1,"max_reps":1}"#;
    // Sends one request and reads up to its result: one in flight at a time.
    let mut ask = || {
        writeln!(stdin, "{req}").expect("request written");
        let mut line = String::new();
        while !line.contains("\"event\":\"result\"") {
            line.clear();
            assert!(stdout.read_line(&mut line).expect("event read") > 0, "daemon answers");
        }
    };

    ask(); // executes the replication; every later request is a cache hit
    let before = mappings();
    for _ in 0..200 {
        ask();
    }
    let after = mappings();
    drop(stdin);
    assert!(child.wait().expect("daemon exits").success(), "daemon exits 0 at EOF");
    assert!(after <= before + 32, "maps grew from {before} to {after} lines over 200 requests");
}
