//! What a run prints: named metrics with units, the operation tally
//! behind `ok_share`, exact-count drift, and the final JSON line.

use std::collections::BTreeMap;

use crate::refs::{Digests, References, Tally};

/// Exact counts a workload must repeat across iterations, phases and
/// between traced and untraced runs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts(BTreeMap<String, u64>);

impl Counts {
    /// Adds `n` to counter `name`.
    pub fn add(&mut self, name: &str, n: u64) {
        *self.0.entry(name.to_string()).or_default() += n;
    }

    /// Counter `name` (0 if never counted).
    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    /// Every counter, by name.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.0.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// The sum of every counter whose name starts with `prefix`.
    pub fn get_prefix(&self, prefix: &str) -> u64 {
        self.0.iter().filter(|(k, _)| k.starts_with(prefix)).map(|(_, v)| v).sum()
    }
}

impl Tally {
    /// Operations whose result matched its reference ÷ attempted.
    pub fn ok_share(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }
}

/// One run's results.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Exact counts that did not repeat; any entry fails the run.
    pub drift: Vec<String>,
    /// The run's result sets by reference key (what `--pin` writes).
    pub results: Vec<(String, Digests)>,
}

impl Report {
    /// Records a metric. A non-finite value is a benchmark defect: it
    /// is reported as drift instead of printed.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        if value.is_finite() {
            self.metrics.push((name.to_string(), value, unit));
        } else {
            self.drift.push(format!("metric {name} is not finite ({value})"));
        }
    }

    /// Records that `what` drifted unless `expected == got`.
    pub fn check_count(&mut self, what: &str, expected: u64, got: u64) {
        if expected != got {
            self.drift.push(format!("{what}: expected {expected}, got {got}"));
        }
    }

    /// Compares every counter of `got` against `expected`.
    pub fn check_counts(&mut self, what: &str, expected: &Counts, got: &Counts) {
        let names: std::collections::BTreeSet<&String> =
            expected.0.keys().chain(got.0.keys()).collect();
        for name in names {
            let (e, g) = (expected.get(name), got.get(name));
            if e != g {
                self.drift.push(format!("{what}: count {name} drifted from {e} to {g}"));
            }
        }
    }

    /// Checks one result set (digests plus exact counts) against its
    /// reference and keeps it for pinning.
    pub fn check_results(
        &mut self,
        refs: &References,
        key: String,
        digests: &Digests,
        counts: &Counts,
    ) {
        let set = crate::refs::with_counts(digests, counts);
        let (tally, want) = refs.check(&key, &set);
        self.tally += tally;
        self.check_counts(&key, &want, counts);
        self.results.push((key, set));
    }

    /// Reports the tracing overhead of `metric`: the traced value minus
    /// the untraced median, in seconds and as a share of the median.
    pub fn overhead(&mut self, metric: &str, traced: f64, untraced_median: f64) {
        eprintln!(
            "perfbench: tracing overhead on {metric}: traced {traced:.4} vs untraced median \
             {untraced_median:.4} ({:+.1} %)",
            100.0 * (traced - untraced_median) / untraced_median
        );
        self.metric("trace.overhead_share", (traced - untraced_median) / untraced_median, "ratio");
    }

    /// Whether every operation matched and no count drifted.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.drift.is_empty()
    }

    /// The metrics recorded so far: name and unit.
    pub fn units(&self) -> Vec<(&str, &str)> {
        self.metrics.iter().map(|(n, _, u)| (n.as_str(), *u)).collect()
    }

    /// The value of metric `name`, if recorded.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _, _)| n == name).map(|(_, v, _)| *v)
    }

    /// The final line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn final_line_has_the_four_keys_and_units() {
        let mut r = Report { tally: Tally { attempted: 4, failed: 1 }, ..Report::default() };
        r.metric("cold_ms", 1.25, "ms");
        r.metric("ok_share", r.tally.ok_share(), "ratio");
        let line = r.json();
        let v = serde::value::parse(&line).expect("valid JSON");
        assert_eq!(serde::value::field(&v, "correct").unwrap(), &serde::value::Value::Bool(false));
        assert!(line.contains("\"ok_share\": {\"value\": 0.75, \"unit\": \"ratio\"}"));
    }

    #[test]
    fn drift_and_non_finite_values_fail_the_run() {
        let mut r = Report { tally: Tally { attempted: 1, failed: 0 }, ..Report::default() };
        assert!(r.correct());
        r.metric("x", f64::NAN, "s");
        assert!(!r.correct());
        let mut a = Counts::default();
        a.add("queue.rounds", 3);
        let mut r = Report::default();
        r.check_counts("iteration", &a, &Counts::default());
        assert_eq!(r.drift.len(), 1);
    }
}
