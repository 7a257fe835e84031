//! The correctness gate behind `ok_share`.
//!
//! Every operation a workload performs (a replication, a saturation
//! run, a serve request) yields one 64-bit digest of its result, filed
//! under a label (`GS@0.30`, `sat-GS16`, `req-17`); the exact counts a
//! run must repeat ride along under `count:` labels. A run's set for one
//! base seed is checked against the set pinned in `reference.json`, or
//! else against the set an earlier run in the same checkout remembered
//! for that seed (so a seed's results must repeat byte for byte across
//! runs), or else it is remembered for the next run. A missing, extra
//! or different digest, and every failed operation, counts as failed; a
//! count that differs is drift.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use serde::value::Value;

use crate::report::Counts;

/// Marks an operation that failed outright (a panicked replication, an
/// `error` or `timeout` event); never equal to a real result's digest
/// by convention, and always counted as failed.
pub const FAILED: u64 = u64::MAX;

/// Result digests by label, one per operation, in operation order.
pub type Digests = BTreeMap<String, Vec<u64>>;

/// FNV-1a over a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// The pinned references, compiled in so a run never depends on where
/// it is started from.
const PINNED: &str = include_str!("../reference.json");

fn parse_text(text: &str) -> Result<BTreeMap<String, Digests>, String> {
    let Value::Object(sets) = serde::value::parse(text).map_err(|e| e.to_string())? else {
        return Err("not a JSON object".to_string());
    };
    let mut out = BTreeMap::new();
    for (key, set) in sets {
        let Value::Object(groups) = set else { return Err(format!("{key} is not an object")) };
        let mut digests = Digests::new();
        for (label, vals) in groups {
            let Value::Array(vals) = vals else { return Err(format!("{key}/{label}: not a list")) };
            let vals = vals
                .iter()
                .map(|v| match v {
                    Value::String(s) => u64::from_str_radix(s, 16).ok(),
                    _ => None,
                })
                .collect::<Option<Vec<u64>>>()
                .ok_or_else(|| format!("{key}/{label}: digests must be hex strings"))?;
            digests.insert(label, vals);
        }
        out.insert(key, digests);
    }
    Ok(out)
}

/// Label prefix of the exact counts carried in a digest set.
const COUNT: &str = "count:";

/// A run's digests with its exact counts folded in under `count:`
/// labels.
pub fn with_counts(digests: &Digests, counts: &Counts) -> Digests {
    let mut set = digests.clone();
    for (name, n) in counts.iter() {
        set.insert(format!("{COUNT}{name}"), vec![n]);
    }
    set
}

/// The exact counts carried in a digest set.
pub fn counts(set: &Digests) -> Counts {
    let mut c = Counts::default();
    for (label, vals) in set {
        if let Some(name) = label.strip_prefix(COUNT) {
            c.add(name, vals.iter().sum());
        }
    }
    c
}

/// Where a run's results are checked against; see the module docs.
pub struct References {
    size: &'static str,
    corrupt: bool,
    remembered: PathBuf,
}

impl References {
    /// References for runs of `size` (`full` or `toy`); sets are
    /// remembered under `dir`. With `corrupt`, every reference handed
    /// out has one digest flipped (the self-test's wrong pin).
    pub fn new(size: &'static str, corrupt: bool, dir: &Path) -> Self {
        References { size, corrupt, remembered: dir.to_path_buf() }
    }

    /// The reference key of `workload` at base seed `seed`.
    pub fn key(&self, workload: &str, seed: u64) -> String {
        format!("{workload}/{}/{seed}", self.size)
    }

    fn remembered_path(&self, key: &str) -> PathBuf {
        self.remembered.join(format!("{}.json", key.replace('/', "-")))
    }

    /// Checks `set` against the reference for `key`: returns the
    /// operation tally and the counts the reference holds. With no
    /// reference yet, the set is remembered for later runs (and its own
    /// counts returned).
    pub fn check(&self, key: &str, set: &Digests) -> (Tally, Counts) {
        let pinned = parse_text(PINNED).expect("reference.json parses").remove(key);
        let remembered = || {
            let text = std::fs::read_to_string(self.remembered_path(key)).ok()?;
            parse_text(&text).ok()?.remove(key)
        };
        let Some(mut reference) = pinned.or_else(remembered) else {
            let _ = std::fs::create_dir_all(&self.remembered);
            let _ = write_sets(&self.remembered_path(key), [(key, set)]);
            return (check(set, set), counts(set));
        };
        if self.corrupt {
            corrupt(&mut reference);
        }
        (check(set, &reference), counts(&reference))
    }
}

/// Writes `set` under `key` into the reference file at `path`, keeping
/// every other key.
pub fn pin(path: &Path, key: &str, set: &Digests) -> std::io::Result<()> {
    let mut all = match std::fs::read_to_string(path) {
        Ok(text) => parse_text(&text).map_err(std::io::Error::other)?,
        Err(_) => BTreeMap::new(),
    };
    all.insert(key.to_string(), set.clone());
    write_sets(path, all.iter().map(|(k, v)| (k.as_str(), v)))
}

/// Writes digest sets as a reference file: one line per label, digests
/// as 16-digit hex strings. Written to a temporary file and renamed, so
/// an interrupted run never leaves a truncated reference behind.
fn write_sets<'a>(
    path: &Path,
    sets: impl IntoIterator<Item = (&'a str, &'a Digests)>,
) -> std::io::Result<()> {
    let all: Vec<(&str, &Digests)> = sets.into_iter().collect();
    let mut out = String::from("{\n");
    for (i, (key, set)) in all.iter().enumerate() {
        out.push_str(&format!("  \"{key}\": {{\n"));
        for (j, (label, vals)) in set.iter().enumerate() {
            let vals: Vec<String> = vals.iter().map(|v| format!("\"{v:016x}\"")).collect();
            let sep = if j + 1 == set.len() { "" } else { "," };
            out.push_str(&format!("    \"{label}\": [{}]{sep}\n", vals.join(", ")));
        }
        let sep = if i + 1 == all.len() { "" } else { "," };
        out.push_str(&format!("  }}{sep}\n"));
    }
    out.push_str("}\n");
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, out)?;
    std::fs::rename(tmp, path)
}

/// Operations attempted and failed against a reference.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations performed, plus referenced ones that never happened.
    pub attempted: u64,
    /// Operations whose digest did not match, that failed outright, or
    /// that the reference expected but the run never performed.
    pub failed: u64,
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// The result digests of a set, without its counts.
fn results(set: &Digests) -> impl Iterator<Item = (&String, &Vec<u64>)> {
    set.iter().filter(|(l, _)| !l.starts_with(COUNT))
}

/// Checks a run's digests against a reference, position by position.
pub fn check(run: &Digests, reference: &Digests) -> Tally {
    let mut t = Tally::default();
    for (label, vals) in results(run) {
        t.attempted += vals.len() as u64;
        match reference.get(label) {
            Some(r) if r.len() == vals.len() => {
                t.failed +=
                    vals.iter().zip(r).filter(|(v, r)| **v == FAILED || v != r).count() as u64;
            }
            _ => t.failed += vals.len() as u64,
        }
    }
    for (label, r) in results(reference) {
        if !run.contains_key(label) {
            t.attempted += r.len() as u64;
            t.failed += r.len() as u64;
        }
    }
    t
}

/// Flips one bit of the first result digest, for the self-test's proof
/// that a wrong reference lowers `ok_share`.
fn corrupt(reference: &mut Digests) {
    let first = reference
        .iter_mut()
        .filter(|(l, _)| !l.starts_with(COUNT))
        .find_map(|(_, v)| v.first_mut());
    if let Some(v) = first {
        *v ^= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(pairs: &[(&str, &[u64])]) -> Digests {
        pairs.iter().map(|(l, v)| (l.to_string(), v.to_vec())).collect()
    }

    #[test]
    fn mismatches_failures_and_gaps_all_count() {
        let reference = set(&[("a", &[1, 2, 3]), ("b", &[4]), ("c", &[5, 6])]);
        assert_eq!(check(&reference, &reference), Tally { attempted: 6, failed: 0 });
        let run = set(&[("a", &[1, 9, FAILED]), ("b", &[4, 4])]);
        // a: two bad; b: wrong length, both bad; c: never ran, both bad.
        assert_eq!(check(&run, &reference), Tally { attempted: 7, failed: 6 });
    }

    #[test]
    fn corrupting_a_reference_fails_one_operation() {
        let run = set(&[("a", &[1, 2])]);
        let mut reference = run.clone();
        corrupt(&mut reference);
        assert_eq!(check(&run, &reference), Tally { attempted: 2, failed: 1 });
    }

    #[test]
    fn pinned_file_parses() {
        parse_text(PINNED).expect("reference.json parses");
    }
}
