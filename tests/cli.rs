//! Process-level tests of the `coalloc-exp` argument contract: a bad
//! argument or a scenario no run can execute is a typed error (exit 2
//! on the command line, one `error` event in `serve`), never a panic (a
//! saturation bracket that misses the threshold included) and never a
//! sweep whose every replication fails; `--inject-panic` still fails
//! only inside its point's replications; and `runjson` runs exactly the
//! config `ScenarioSpec` builds.

use std::io::Write;
use std::process::{Command, Output, Stdio};

use coalloc::core::experiment::SweepPoint;
use coalloc::core::SimBuilder;
use coalloc::experiments::Scale;
use coalloc::scenario::ScenarioSpec;

/// Runs the real `coalloc-exp` binary with `args`, feeding `input` on
/// stdin.
fn run_exp(args: &[&str], input: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_coalloc-exp"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("coalloc-exp spawns");
    child.stdin.take().expect("piped stdin").write_all(input.as_bytes()).expect("stdin written");
    child.wait_with_output().expect("coalloc-exp runs")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8(bytes.to_vec()).expect("utf8 output")
}

#[test]
fn argument_and_scenario_errors_exit_2_without_panicking() {
    // A `--save` directory where the result file cannot be written: its
    // name is taken by a directory.
    let save = std::env::temp_dir().join(format!("coalloc-cli-save-{}", std::process::id()));
    std::fs::create_dir_all(save.join("table_1.txt")).expect("temporary save directory");
    let unwritable = vec!["table1", "--save", save.to_str().expect("UTF-8 temp path")];
    let cases = [
        "sweep GS 16 --utils 0.3 --min-reps 0",
        "sweep GS 16 --utils 0.3 --min-reps 3 --max-reps 1",
        "sweep GS 16 --utils 0.3 --rel-ci 0",
        "sweep GS 16 --utils 0.3 --rel-ci nan",
        "sweep GS 16 --utils -0.2",
        "runjson GS 16 -1",
        "runjson GS 16 nan",
        "sweep GS 0 --utils 0.3",
        "runjson GS 0 0.5",
        "runjson GS 16 0.5 --warmup 99999999",
        "runjson LS 16 0.5 --capacities 8,8",
        // Valid flags, but no replication of either scenario can run.
        "sweep LS 16 --utils 0.3 --capacities 8,8",
        "sweep GS 16 --utils 0.3 --warmup 8000",
        "table1 --save",
    ];
    for args in cases.iter().map(|a| a.split(' ').collect()).chain([unwritable]) {
        let out = run_exp(&args, "");
        let (args, stderr) = (args.join(" "), text(&out.stderr));
        assert_eq!(out.status.code(), Some(2), "`{args}` exits 2:\n{stderr}");
        assert!(stderr.lines().any(|l| l.starts_with("error: ")), "`{args}`:\n{stderr}");
        assert!(!stderr.contains("panicked"), "`{args}` panicked:\n{stderr}");
    }
    let _ = std::fs::remove_dir_all(&save);
}

#[test]
fn serve_reports_each_invalid_request_as_one_error_naming_the_field() {
    let requests = [
        ("limit", r#"{"id":"limit","kind":"sweep","policy":"GS","limit":0,"utilizations":[0.3]}"#),
        (
            "utilizations",
            r#"{"id":"utilizations","kind":"sweep","policy":"GS","limit":16,"utilizations":[-0.2]}"#,
        ),
        (
            "warmup",
            r#"{"id":"warmup","kind":"sweep","policy":"GS","limit":16,"utilizations":[0.3],"warmup":"8000"}"#,
        ),
        // Saturation searches are checked before their first probe.
        (
            "lo",
            r#"{"id":"lo","kind":"saturation","policy":"GS","limit":16,"lo":-1,"hi":1.2,"replications":1}"#,
        ),
        ("hi", r#"{"id":"hi","kind":"saturation","policy":"GS","limit":16,"lo":0.3,"hi":3}"#),
        (
            "tolerance",
            r#"{"id":"tolerance","kind":"saturation","policy":"GS","limit":16,"tolerance":0}"#,
        ),
        (
            "replications",
            r#"{"id":"replications","kind":"saturation","policy":"GS","limit":16,"replications":0}"#,
        ),
    ];
    let input: String = requests.iter().map(|(_, line)| format!("{line}\n")).collect();
    let out = run_exp(&["serve", "--threads", "2"], &input);
    let stdout = text(&out.stdout);
    assert!(out.status.success(), "serve exits 0:\n{}", text(&out.stderr));
    for (field, _) in requests {
        let tag = format!("\"id\":\"{field}\"");
        let events: Vec<&str> = stdout.lines().filter(|l| l.contains(&tag)).collect();
        assert_eq!(events.len(), 1, "one event for `{field}`:\n{stdout}");
        let event = events[0];
        assert!(event.contains("\"event\":\"error\""), "{event}");
        let error = event.split("\"error\":").nth(1).expect("error text");
        assert!(error.contains(field), "the error names `{field}`: {event}");
        assert!(!error.contains("request panicked"), "{event}");
    }
}

#[test]
fn serve_reports_a_bracket_that_misses_the_threshold_as_one_error_naming_the_bound() {
    let requests = [
        // Both bounds stable: the search would converge to `hi`.
        (
            "hi",
            r#"{"id":"hi","kind":"saturation","policy":"GS","limit":16,"lo":0.05,"hi":0.1,"replications":1}"#,
        ),
        // Both bounds saturated.
        (
            "lo",
            r#"{"id":"lo","kind":"saturation","policy":"GS","limit":16,"lo":1.5,"hi":1.8,"replications":1}"#,
        ),
    ];
    let input: String = requests.iter().map(|(_, line)| format!("{line}\n")).collect();
    let out = run_exp(&["serve", "--threads", "2"], &input);
    let (stdout, stderr) = (text(&out.stdout), text(&out.stderr));
    assert!(out.status.success(), "serve exits 0:\n{stderr}");
    assert!(!stderr.contains("panicked"), "no panic reaches stderr:\n{stderr}");
    for (field, _) in requests {
        let tag = format!("\"id\":\"{field}\"");
        let events: Vec<&str> = stdout.lines().filter(|l| l.contains(&tag)).collect();
        assert_eq!(events.len(), 1, "one event for `{field}`:\n{stdout}");
        let event = events[0];
        assert!(event.contains("\"event\":\"error\""), "{event}");
        assert!(event.contains(&format!("invalid {field}: bisection bracket invalid")), "{event}");
    }
}

#[test]
fn inject_panic_still_fails_only_its_point_inside_the_replications() {
    let out = run_exp(
        &[
            "sweep",
            "LS",
            "16",
            "--utils",
            "0.3,0.5",
            "--min-reps",
            "2",
            "--max-reps",
            "2",
            "--inject-panic",
            "0.5",
            "--json",
        ],
        "",
    );
    assert!(out.status.success(), "exits 0:\n{}", text(&out.stderr));
    let points: Vec<SweepPoint> = serde_json::from_str(&text(&out.stdout)).expect("JSON points");
    let spent: Vec<(f64, usize, usize)> = points
        .iter()
        .map(|p| (p.target_utilization, p.outcome.runs.len(), p.outcome.failures.len()))
        .collect();
    assert_eq!(spent, [(0.3, 2, 0), (0.5, 0, 2)], "runs and failures per point");
    assert!(points[1].outcome.failures.iter().all(|f| f.cause.contains("warm-up")));
}

#[test]
fn runjson_runs_the_config_scenario_spec_builds() {
    let spec = ScenarioSpec::parse(
        Some("GS"),
        Some(16),
        None,
        None,
        None,
        None,
        None,
        None,
        None,
        None,
        None,
        Scale::Quick,
    )
    .expect("valid scenario");
    let expected = SimBuilder::new(&spec.config(0.5)).run();
    let out = run_exp(&["runjson", "GS", "16", "0.5"], "");
    assert!(out.status.success(), "{}", text(&out.stderr));
    let printed = serde_json::to_string_pretty(&expected).expect("outcome serializes");
    assert_eq!(text(&out.stdout), format!("{printed}\n"));
}
