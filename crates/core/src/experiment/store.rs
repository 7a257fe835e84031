//! The crash-safe on-disk result store behind the scenario cache.
//!
//! A [`ResultStore`] is an append-only, checksummed segment log of
//! completed replications keyed `(point_digest, base_seed, rep)` — the
//! same key as [`super::cache::ScenarioCache`], which writes through to
//! the store and falls back to it on memory misses. Because a
//! replication is a pure function of its key (common random numbers,
//! full-scenario digests), a restarted daemon that reopens its store
//! answers previously computed replications from disk, bit-identically,
//! instead of re-executing them.
//!
//! ## Format
//!
//! A store is a directory of segment files `store-<n>.seg`. Each
//! segment starts with an 8-byte magic (`COALSTO3`) followed by framed
//! records:
//!
//! ```text
//! [u32 le payload len][u64 le FNV-1a(key ‖ payload)][u64 le digest][u64 le seed][u64 le rep][payload]
//! ```
//!
//! where the key is the 24 header bytes after the checksum and the
//! payload is the JSON rendering of one record (key again, plus
//! outcome-or-failure). Appends go to a segment opened by *this*
//! process only — a reopened store never appends after an old tail, so
//! a damaged suffix can never corrupt the framing of later writes —
//! and every append is handed to the operating system in one write
//! before [`append`](ResultStore::append) returns.
//!
//! ## Recovery contract
//!
//! [`open`](ResultStore::open) verifies every frame's length bound and
//! checksum and indexes the key from the frame header; it parses no
//! JSON. Recovery is sequential per segment and **drops only the
//! damaged suffix**: a truncated tail (the process was SIGKILLed
//! mid-append) or a bit-flipped length, checksum, key or payload byte
//! stops the scan of that segment with a warning on stderr — every
//! frame before the damage is kept, recovery never panics, and a
//! zero-length file contributes nothing. A file without the current
//! magic (a foreign file, or a segment written by an earlier format, or
//! keyed by an earlier build's scenario digest) is ignored with a
//! warning and deleted by the next compaction.
//!
//! [`get`](ResultStore::get) verifies the frame's checksum again and
//! parses its payload. A payload that is not a record, or whose key
//! differs from its frame header's, reads as a miss with a warning and
//! leaves the rest of its segment served. The store is an optimization
//! over re-running, never the source of truth, so dropping a record is
//! always safe.
//!
//! ## Compaction
//!
//! Duplicate keys (a record superseded by a newer append, or segments
//! overlapping after repeated restarts) are *dead*: the index keeps
//! only the newest. [`compact`](ResultStore::compact) copies every live
//! frame, checksum re-verified, into one fresh segment (unique temp
//! file, `sync_all`, atomic rename, directory sync) and deletes the old
//! segments, so a long-lived daemon's disk footprint tracks its live
//! entries. A writer holds a file lock on its segment while it appends,
//! and compaction keeps a locked segment, or one that grew past the
//! length this store scanned and appended, so a peer process appending
//! to the same directory loses nothing, even after it exits.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, ErrorKind, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use super::checkpoint::unique_tmp_path;
use crate::sim::SimOutcome;

/// Key of one stored replication: `(point scenario digest, base seed,
/// replication index)` — identical to the scenario-cache key.
type Key = (u64, u64, u64);

/// Magic bytes opening every segment file (name + format version).
/// Version 3 keys records by the structural scenario digest; a segment
/// of an earlier version holds keys no lookup produces any more.
const MAGIC: &[u8; 8] = b"COALSTO3";

/// Offset of the bytes the checksum covers: the key, then the payload.
const CHECKED_FROM: usize = 4 + 8;

/// Frame header size: u32 payload length + u64 checksum + the three
/// u64 words of the key.
const FRAME_HEADER: usize = CHECKED_FROM + 3 * 8;

/// Upper bound on one record's payload; a "length" beyond it is a
/// corrupt frame, not a real record (keeps a bit-flipped length from
/// asking for a multi-gigabyte read).
const MAX_PAYLOAD: u32 = 64 * 1024 * 1024;

/// One record's JSON payload: the key plus either a completed outcome
/// or a failure cause (the cache memoizes both — a deterministic panic
/// would only repeat).
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
struct StoreRecord {
    digest: u64,
    seed: u64,
    rep: u64,
    outcome: Option<SimOutcome>,
    cause: Option<String>,
}

impl StoreRecord {
    fn from_result(key: Key, result: &Result<SimOutcome, String>) -> Self {
        let (digest, seed, rep) = key;
        match result {
            Ok(o) => StoreRecord { digest, seed, rep, outcome: Some(o.clone()), cause: None },
            Err(c) => StoreRecord { digest, seed, rep, outcome: None, cause: Some(c.clone()) },
        }
    }

    fn into_result(self) -> Option<(Key, Result<SimOutcome, String>)> {
        let key = (self.digest, self.seed, self.rep);
        match (self.outcome, self.cause) {
            (Some(o), None) => Some((key, Ok(o))),
            (None, Some(c)) => Some((key, Err(c))),
            // Neither or both: not a shape this store ever writes.
            _ => None,
        }
    }
}

/// Where a live record lives on disk.
#[derive(Clone, Copy, Debug)]
struct Loc {
    /// Index into `StoreInner::segments`.
    seg: usize,
    /// Byte offset of the frame (the length word) within the segment.
    offset: u64,
    /// Payload length.
    len: u32,
}

/// One segment file and the handle every read of it goes through.
struct Segment {
    path: PathBuf,
    /// `None` when the file could not be opened; nothing is indexed in
    /// it then.
    reader: Option<File>,
    /// The file's length as this store scanned it, grown by this
    /// store's own appends: bytes past it are a peer's.
    len: u64,
}

impl Segment {
    /// Reads the frame at `loc` (header and payload) into `frame`.
    fn read_frame(&self, loc: Loc, frame: &mut Vec<u8>) -> std::io::Result<()> {
        let mut file = self.reader.as_ref().ok_or(ErrorKind::NotFound)?;
        frame.resize(FRAME_HEADER + loc.len as usize, 0);
        file.seek(SeekFrom::Start(loc.offset))?;
        file.read_exact(frame)
    }

    /// Whether the segment may hold records this store never indexed: a
    /// peer store still appends to it (its writer holds the file lock),
    /// or appended to it after this store scanned it and has since
    /// closed it (the file is longer than `len`).
    fn has_peer_records(&self) -> bool {
        let Some(file) = &self.reader else { return false };
        // Once the lock is ours no peer is mid-append, so the length is
        // final.
        file.try_lock().is_err() || file.metadata().map_or(true, |m| m.len() > self.len)
    }
}

struct StoreInner {
    /// Live segment files, oldest first; the active one (if any) is
    /// last.
    segments: Vec<Segment>,
    /// Newest location of every key.
    index: HashMap<Key, Loc>,
    /// The segment this process appends to (the last of `segments`),
    /// opened lazily.
    writer: Option<File>,
    /// Next segment number to try.
    next_segment: u64,
    /// Records superseded by a newer append or dropped as duplicates at
    /// load — reclaimable by [`ResultStore::compact`].
    dead: u64,
    /// Appends that failed (disk full, permissions); the store keeps
    /// serving from what it has.
    append_errors: u64,
}

/// What [`ResultStore::open`] recovered, for the operator log.
#[derive(Clone, Copy, Debug, Default)]
pub struct RecoveryReport {
    /// Checksum-valid frames indexed (newest per key); their payloads
    /// are parsed when read.
    pub live: u64,
    /// Records superseded by a newer duplicate during the scan.
    pub superseded: u64,
    /// Segments whose tail was damaged (truncated or bit-flipped) or
    /// that lack the current magic; only the damaged suffix was dropped.
    pub damaged_segments: u64,
}

/// The crash-safe on-disk result store; see the module docs.
pub struct ResultStore {
    dir: PathBuf,
    inner: Mutex<StoreInner>,
    recovery: RecoveryReport,
}

/// Poison-safe lock: a panicking holder leaves the data intact (every
/// mutation below is a single insert/append), so recover the guard
/// instead of cascading the panic into every later request.
fn relock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl ResultStore {
    /// Opens (creating if needed) the store directory and indexes every
    /// checksum-valid frame of its segments. Damage is contained, never
    /// fatal: a truncated or bit-flipped segment loses only its suffix,
    /// with a warning on stderr.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<ResultStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut numbered: Vec<(u64, PathBuf)> = Vec::new();
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            if let Some(n) = segment_number(&path) {
                numbered.push((n, path));
            }
        }
        numbered.sort();
        let next_segment = numbered.last().map_or(0, |(n, _)| n + 1);

        let mut index: HashMap<Key, Loc> = HashMap::new();
        let mut recovery = RecoveryReport::default();
        let mut segments = Vec::with_capacity(numbered.len());
        for (seg, (_, path)) in numbered.into_iter().enumerate() {
            let (segment, intact) = scan_segment(path, seg, &mut index, &mut recovery);
            recovery.damaged_segments += u64::from(!intact);
            segments.push(segment);
        }
        recovery.live = index.len() as u64;
        Ok(ResultStore {
            dir,
            inner: Mutex::new(StoreInner {
                segments,
                index,
                writer: None,
                next_segment,
                dead: recovery.superseded,
                append_errors: 0,
            }),
            recovery,
        })
    }

    /// What [`open`](Self::open) recovered.
    pub fn recovery(&self) -> RecoveryReport {
        self.recovery
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Live records currently indexed.
    pub fn len(&self) -> usize {
        relock(&self.inner).index.len()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Segment files currently on disk.
    pub fn segments(&self) -> usize {
        relock(&self.inner).segments.len()
    }

    /// Whether compaction would reclaim anything: dead records exist or
    /// the log is spread over more than one segment.
    pub fn fragmented(&self) -> bool {
        let inner = relock(&self.inner);
        inner.dead > 0 || inner.segments.len() > 1
    }

    /// Reads one record back, verifying its checksum again (the bytes
    /// may have rotted since recovery) and parsing its payload once the
    /// store lock is released. Any damage, a payload that is not a
    /// record, or a payload of another key reads as a miss — the caller
    /// re-executes, which is always correct.
    pub fn get(&self, digest: u64, seed: u64, rep: u64) -> Option<Result<SimOutcome, String>> {
        let key = (digest, seed, rep);
        let mut frame = Vec::new();
        let (read, path, offset) = {
            let inner = relock(&self.inner);
            let loc = *inner.index.get(&key)?;
            let seg = inner.segments.get(loc.seg)?;
            (seg.read_frame(loc, &mut frame), seg.path.clone(), loc.offset)
        };
        match read.map_err(|e| e.to_string()).and_then(|()| decode_record(&frame, key)) {
            Ok(result) => Some(result),
            Err(e) => {
                eprintln!(
                    "warning: result store record at {}:{offset} unreadable ({e}); \
                     treating as a miss",
                    path.display()
                );
                None
            }
        }
    }

    /// Appends one record and hands it to the operating system before
    /// returning, so a SIGKILL after `append` never loses the record. A
    /// failed append (disk full, permissions) warns on stderr and the
    /// store keeps serving — durability degrades, correctness does not.
    pub fn append(&self, digest: u64, seed: u64, rep: u64, result: &Result<SimOutcome, String>) {
        let key = (digest, seed, rep);
        let record = StoreRecord::from_result(key, result);
        let payload = serde_json::to_string(&record).expect("store record serializes");
        let frame = encode_frame(key, payload.as_bytes());
        let mut inner = relock(&self.inner);
        if let Err(e) = inner.append_frame(&self.dir, key, &frame) {
            // The segment's tail is unknown now: the next append starts
            // a fresh one.
            inner.writer = None;
            inner.append_errors += 1;
            if inner.append_errors <= 3 {
                eprintln!("warning: result store append failed ({e}); continuing without it");
            }
        }
    }

    /// Copies every live frame, its checksum re-verified, into one
    /// fresh segment (temp file + atomic rename) and deletes the old
    /// segments, except one that may hold a peer store's records: the
    /// peer still appends to it (its writer holds the file lock), or it
    /// grew past what this store scanned and appended. Safe at any time:
    /// a crash mid-compaction leaves either the old segments or the new
    /// one plus harmless duplicates, both of which recover fully.
    pub fn compact(&self) -> std::io::Result<()> {
        let mut inner = relock(&self.inner);
        inner.writer = None; // closes the active segment

        // Key order, for a deterministic layout.
        let mut live: Vec<(Key, Loc)> = inner.index.iter().map(|(k, l)| (*k, *l)).collect();
        live.sort_unstable_by_key(|&(key, _)| key);

        let (target, _) = claim_segment(&self.dir, &mut inner.next_segment)?;
        let tmp = unique_tmp_path(&target);
        let mut out = BufWriter::new(File::create(&tmp)?);
        out.write_all(MAGIC)?;
        let mut offset = MAGIC.len() as u64;
        let mut index = HashMap::with_capacity(live.len());
        let mut frame = Vec::new();
        for (key, loc) in live {
            let seg = &inner.segments[loc.seg];
            let verified = match seg.read_frame(loc, &mut frame) {
                Ok(()) if check_frame(&frame) == Some((key, frame.len())) => Ok(()),
                Ok(()) => Err("corrupt frame".to_string()),
                Err(e) => Err(e.to_string()),
            };
            if let Err(e) = verified {
                eprintln!(
                    "warning: dropping unreadable store record during compaction \
                     ({}:{}: {e})",
                    seg.path.display(),
                    loc.offset
                );
                continue;
            }
            out.write_all(&frame)?;
            index.insert(key, Loc { seg: 0, offset, len: loc.len });
            offset += frame.len() as u64;
        }
        out.into_inner().map_err(|e| e.into_error())?.sync_all()?;
        std::fs::rename(&tmp, &target)?;
        // The rename must be durable before the segments it replaces go.
        File::open(&self.dir)?.sync_all()?;
        let reader = File::open(&target).ok();
        let compacted = Segment { path: target, reader, len: offset };
        let old = std::mem::replace(&mut inner.segments, vec![compacted]);
        inner.index = index;
        inner.dead = 0;
        drop(inner);
        for seg in old {
            // A peer's records are in no index here, so their segment
            // stays (the frames copied from it are harmless duplicates).
            if !seg.has_peer_records() {
                let _ = std::fs::remove_file(&seg.path);
            }
        }
        Ok(())
    }
}

impl StoreInner {
    fn append_frame(&mut self, dir: &Path, key: Key, frame: &[u8]) -> std::io::Result<()> {
        if self.writer.is_none() {
            let (path, mut file) = claim_segment(dir, &mut self.next_segment)?;
            // Held while this store appends: a peer's compaction keeps a
            // locked segment instead of deleting it.
            file.lock()?;
            let reader = File::open(&path)?;
            file.write_all(MAGIC)?;
            self.segments.push(Segment { path, reader: Some(reader), len: MAGIC.len() as u64 });
            self.writer = Some(file);
        }
        let seg = self.segments.len() - 1;
        let writer = self.writer.as_mut().expect("active segment just ensured");
        let segment = &mut self.segments[seg];
        let offset = segment.len;
        // Counted before the write: a failed write leaves the file no
        // longer than this, so compaction never takes it for a peer's.
        segment.len += frame.len() as u64;
        writer.write_all(frame)?;
        let len = (frame.len() - FRAME_HEADER) as u32;
        if self.index.insert(key, Loc { seg, offset, len }).is_some() {
            self.dead += 1;
        }
        Ok(())
    }
}

/// The segment number of `store-<n>.seg`, or `None` for foreign files.
fn segment_number(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let digits = name.strip_prefix("store-")?.strip_suffix(".seg")?;
    digits.parse().ok()
}

/// Creates the lowest free segment file from `*next` on. `create_new`
/// makes the claim atomic: when a peer process already holds a number,
/// this one moves on to the next instead of failing.
fn claim_segment(dir: &Path, next: &mut u64) -> std::io::Result<(PathBuf, File)> {
    loop {
        let path = dir.join(format!("store-{:06}.seg", *next));
        *next += 1;
        match OpenOptions::new().create_new(true).write(true).open(&path) {
            Ok(file) => return Ok((path, file)),
            Err(e) if e.kind() == ErrorKind::AlreadyExists => continue,
            Err(e) => return Err(e),
        }
    }
}

/// FNV-1a over a byte string: small, dependency-free, and stable, so
/// a frame written by one build verifies in the next.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One frame's bytes: length, checksum, key, payload.
fn encode_frame(key: Key, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&[0; 8]);
    for word in [key.0, key.1, key.2] {
        frame.extend_from_slice(&word.to_le_bytes());
    }
    frame.extend_from_slice(payload);
    let checksum = fnv1a(&frame[CHECKED_FROM..]);
    frame[4..CHECKED_FROM].copy_from_slice(&checksum.to_le_bytes());
    frame
}

/// Checks the frame at the head of `bytes` without reading its
/// payload: `Some((header key, total frame length))` when the length is
/// plausible, the bytes are all present, and the checksum over key and
/// payload matches.
fn check_frame(bytes: &[u8]) -> Option<(Key, usize)> {
    let header = bytes.get(..FRAME_HEADER)?;
    let word = |at: usize| u64::from_le_bytes(header[at..at + 8].try_into().expect("8 bytes"));
    let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes"));
    if len > MAX_PAYLOAD {
        return None;
    }
    let end = FRAME_HEADER + len as usize;
    if fnv1a(bytes.get(CHECKED_FROM..end)?) != word(4) {
        return None;
    }
    Some(((word(12), word(20), word(28)), end))
}

/// Verifies a frame re-read for `key` and parses its payload: the
/// checksum must match, the header must carry `key`, and the payload
/// must be a record of that same key.
fn decode_record(frame: &[u8], key: Key) -> Result<Result<SimOutcome, String>, String> {
    match check_frame(frame) {
        Some((header, len)) if header == key && len == frame.len() => {}
        Some(_) => return Err("frame header carries another key".into()),
        None => return Err("corrupt frame".into()),
    }
    let payload = std::str::from_utf8(&frame[FRAME_HEADER..]).map_err(|e| e.to_string())?;
    let record: StoreRecord = serde_json::from_str(payload).map_err(|e| e.to_string())?;
    match record.into_result() {
        Some((k, result)) if k == key => Ok(result),
        Some((k, _)) => Err(format!("payload holds key {k:?}, not the frame's")),
        None => Err("payload is not a store record".into()),
    }
}

/// Scans one segment into the index, newest record winning. Returns the
/// segment later reads go through and `false` as its second value
/// (after warning) when a damaged suffix was dropped or the file is not
/// a segment of this format; the frames before any damage are kept.
fn scan_segment(
    path: PathBuf,
    seg: usize,
    index: &mut HashMap<Key, Loc>,
    recovery: &mut RecoveryReport,
) -> (Segment, bool) {
    let mut bytes = Vec::new();
    let read = File::open(&path).and_then(|mut f| f.read_to_end(&mut bytes).map(|_| f));
    let segment = match read {
        Ok(f) => Segment { reader: Some(f), len: bytes.len() as u64, path },
        Err(e) => {
            eprintln!("warning: cannot read store segment {} ({e}); skipping", path.display());
            return (Segment { path, reader: None, len: 0 }, false);
        }
    };
    if bytes.is_empty() {
        // A segment created but never written (or truncated to nothing):
        // nothing to recover, nothing to warn about.
        return (segment, true);
    }
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        eprintln!(
            "warning: store segment {} has no valid header; ignoring the file",
            segment.path.display()
        );
        return (segment, false);
    }
    let mut offset = MAGIC.len();
    while offset < bytes.len() {
        let Some((key, frame_len)) = check_frame(&bytes[offset..]) else {
            eprintln!(
                "warning: store segment {} damaged at byte {offset}; \
                 dropping the suffix ({} records recovered so far)",
                segment.path.display(),
                index.len()
            );
            return (segment, false);
        };
        let loc = Loc { seg, offset: offset as u64, len: (frame_len - FRAME_HEADER) as u32 };
        if index.insert(key, loc).is_some() {
            recovery.superseded += 1;
        }
        offset += frame_len;
    }
    (segment, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::pool::execute_isolated;
    use crate::policy::PolicyKind;
    use crate::sim::SimConfig;

    fn temp_store_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("coalloc-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn outcome(seed: u64) -> Result<SimOutcome, String> {
        let mut cfg = SimConfig::das(PolicyKind::Gs, 16, 0.3);
        cfg.total_jobs = 400;
        cfg.warmup_jobs = 50;
        execute_isolated(&cfg.with_seed(seed), false)
    }

    /// The failure cause stored under a key, or `None` on a miss /
    /// non-failure (`SimOutcome` has no `PartialEq`, so tests compare
    /// causes and individual metrics instead of whole results).
    fn stored_err(store: &ResultStore, digest: u64, seed: u64, rep: u64) -> Option<String> {
        match store.get(digest, seed, rep) {
            Some(Err(cause)) => Some(cause),
            _ => None,
        }
    }

    #[test]
    fn appended_records_survive_a_reopen_bit_identically() {
        let dir = temp_store_dir("roundtrip");
        let ok = outcome(7);
        {
            let store = ResultStore::open(&dir).expect("store opens");
            store.append(1, 2, 0, &ok);
            store.append(1, 2, 1, &Err("boom".into()));
            assert_eq!(store.len(), 2);
        }
        let store = ResultStore::open(&dir).expect("store reopens");
        assert_eq!(store.len(), 2);
        assert_eq!(store.recovery().live, 2);
        let back = store.get(1, 2, 0).expect("stored outcome");
        assert_eq!(back.unwrap().metrics.mean_response, ok.as_ref().unwrap().metrics.mean_response);
        assert_eq!(stored_err(&store, 1, 2, 1), Some("boom".into()));
        assert!(store.get(9, 9, 9).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn newest_duplicate_wins_and_compaction_reclaims_the_dead() {
        let dir = temp_store_dir("compact");
        let store = ResultStore::open(&dir).expect("store opens");
        store.append(1, 2, 0, &Err("old".into()));
        store.append(1, 2, 0, &Err("new".into()));
        store.append(3, 4, 0, &Err("live".into()));
        assert!(store.fragmented(), "a superseded record is reclaimable");
        assert_eq!(stored_err(&store, 1, 2, 0), Some("new".into()));

        store.compact().expect("compaction succeeds");
        assert_eq!(store.segments(), 1);
        assert!(!store.fragmented());
        assert_eq!(store.len(), 2);
        assert_eq!(stored_err(&store, 1, 2, 0), Some("new".into()));
        assert_eq!(stored_err(&store, 3, 4, 0), Some("live".into()));

        // And the compacted layout recovers like any other.
        drop(store);
        let reopened = ResultStore::open(&dir).expect("store reopens");
        assert_eq!(reopened.len(), 2);
        assert_eq!(stored_err(&reopened, 1, 2, 0), Some("new".into()));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The segment files of a store directory, oldest first.
    fn segment_files(dir: &Path) -> Vec<PathBuf> {
        let mut segs: Vec<PathBuf> = std::fs::read_dir(dir)
            .expect("store dir")
            .map(|e| e.expect("entry").path())
            .filter(|p| segment_number(p).is_some())
            .collect();
        segs.sort();
        segs
    }

    /// The single segment a fresh store wrote.
    fn only_segment(dir: &Path) -> PathBuf {
        let mut segs = segment_files(dir);
        assert_eq!(segs.len(), 1, "expected exactly one segment");
        segs.pop().expect("one segment")
    }

    #[test]
    fn a_truncated_tail_loses_only_the_damaged_suffix() {
        let dir = temp_store_dir("truncated");
        {
            let store = ResultStore::open(&dir).expect("store opens");
            for rep in 0..4 {
                store.append(1, 2, rep, &Err(format!("r{rep}")));
            }
        }
        let seg = only_segment(&dir);
        let len = std::fs::metadata(&seg).expect("segment metadata").len();
        // Cut into the last record's payload: a mid-append SIGKILL.
        let file = std::fs::OpenOptions::new().write(true).open(&seg).expect("segment opens");
        file.set_len(len - 7).expect("truncate");

        let store = ResultStore::open(&dir).expect("recovery never fails");
        assert_eq!(store.len(), 3, "only the torn record is lost");
        assert_eq!(store.recovery().damaged_segments, 1);
        for rep in 0..3 {
            assert_eq!(stored_err(&store, 1, 2, rep), Some(format!("r{rep}")));
        }
        assert!(store.get(1, 2, 3).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_bit_flipped_record_drops_it_and_the_suffix_but_keeps_the_prefix() {
        // Four equal-sized frames follow the magic. Flip one bit around
        // 60% of the file, in the third frame's seed word, or in its
        // payload: records before it must survive, the flipped one and
        // everything after must go.
        for tag in ["60pct", "key", "payload"] {
            let dir = temp_store_dir(&format!("bitflip-{tag}"));
            {
                let store = ResultStore::open(&dir).expect("store opens");
                for rep in 0..4 {
                    store.append(1, 2, rep, &Err(format!("r{rep}")));
                }
            }
            let seg = only_segment(&dir);
            let mut bytes = std::fs::read(&seg).expect("segment bytes");
            let third = MAGIC.len() + 2 * (bytes.len() - MAGIC.len()) / 4;
            let at = match tag {
                "60pct" => bytes.len() * 6 / 10,
                "key" => third + CHECKED_FROM + 8 + 3,
                _ => third + FRAME_HEADER + 5,
            };
            bytes[at] ^= 0x40;
            std::fs::write(&seg, &bytes).expect("rewrite segment");

            let store = ResultStore::open(&dir).expect("recovery never fails");
            assert!(store.len() < 4, "{tag}: the damaged record is gone");
            assert!(!store.is_empty(), "{tag}: the undamaged prefix survives");
            assert_eq!(store.recovery().damaged_segments, 1, "{tag}");
            for rep in 0..store.len() as u64 {
                assert_eq!(stored_err(&store, 1, 2, rep), Some(format!("r{rep}")), "{tag}");
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn zero_length_and_foreign_files_recover_to_an_empty_store() {
        let dir = temp_store_dir("empty");
        std::fs::create_dir_all(&dir).expect("dir");
        std::fs::write(dir.join("store-000000.seg"), b"").expect("zero-length segment");
        std::fs::write(dir.join("store-000001.seg"), b"not a segment at all").expect("foreign");
        std::fs::write(dir.join("README.txt"), b"ignored").expect("unrelated file");

        let store = ResultStore::open(&dir).expect("recovery never fails");
        assert_eq!(store.len(), 0);
        assert_eq!(store.recovery().damaged_segments, 1, "only the foreign segment warns");
        // The store still accepts appends (to a fresh segment).
        store.append(5, 5, 0, &Err("after recovery".into()));
        drop(store);
        let reopened = ResultStore::open(&dir).expect("store reopens");
        assert_eq!(stored_err(&reopened, 5, 5, 0), Some("after recovery".into()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_appenders_interleave_without_corruption() {
        let dir = temp_store_dir("concurrent");
        let store = std::sync::Arc::new(ResultStore::open(&dir).expect("store opens"));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let store = std::sync::Arc::clone(&store);
                s.spawn(move || {
                    for rep in 0..25u64 {
                        store.append(t, 0, rep, &Err(format!("{t}/{rep}")));
                    }
                });
            }
        });
        assert_eq!(store.len(), 100);
        drop(store);
        let reopened = ResultStore::open(&dir).expect("store reopens");
        assert_eq!(reopened.len(), 100, "every interleaved record recovers");
        assert_eq!(stored_err(&reopened, 3, 0, 24), Some("3/24".into()));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A segment of this format holding `frames`, as written bytes.
    fn segment_of(frames: &[Vec<u8>]) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        for frame in frames {
            bytes.extend_from_slice(frame);
        }
        bytes
    }

    /// A checksum-valid frame whose payload is the record of `payload_key`.
    fn record_frame(header_key: Key, payload_key: Key, cause: &str) -> Vec<u8> {
        let record = StoreRecord::from_result(payload_key, &Err(cause.into()));
        encode_frame(header_key, serde_json::to_string(&record).expect("encodes").as_bytes())
    }

    #[test]
    fn a_payload_that_is_not_its_frames_record_is_a_miss_and_keeps_the_suffix() {
        let dir = temp_store_dir("bad-payload");
        std::fs::create_dir_all(&dir).expect("dir");
        let bytes = segment_of(&[
            record_frame((1, 2, 0), (1, 2, 0), "r0"),
            encode_frame((1, 2, 1), b"{\"not\":\"a record\"}"),
            record_frame((1, 2, 2), (1, 2, 2), "r2"),
            record_frame((1, 2, 3), (9, 9, 9), "someone else's"),
            record_frame((1, 2, 4), (1, 2, 4), "r4"),
        ]);
        std::fs::write(dir.join("store-000000.seg"), &bytes).expect("segment");

        let store = ResultStore::open(&dir).expect("recovery never fails");
        assert_eq!(store.recovery().damaged_segments, 0, "every frame's checksum holds");
        assert_eq!(store.recovery().live, 5);
        for rep in [0, 2, 4] {
            assert_eq!(stored_err(&store, 1, 2, rep), Some(format!("r{rep}")));
        }
        assert!(store.get(1, 2, 1).is_none(), "an unparseable payload is a miss");
        assert!(store.get(1, 2, 3).is_none(), "a payload of another key is a miss");
        assert!(store.get(9, 9, 9).is_none(), "only header keys are indexed");

        // A re-executed replication supersedes the bad frame.
        store.append(1, 2, 1, &Err("recomputed".into()));
        assert_eq!(stored_err(&store, 1, 2, 1), Some("recomputed".into()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_segment_of_the_previous_format_is_ignored_and_compacted_away() {
        let dir = temp_store_dir("old-magic");
        std::fs::create_dir_all(&dir).expect("dir");
        // `COALSTO2` framing is this format's; its keys are digests of
        // the config's `Debug` text, which no lookup produces any more.
        let mut old = b"COALSTO2".to_vec();
        old.extend_from_slice(&record_frame((1, 2, 0), (1, 2, 0), "v2"));
        let old_path = dir.join("store-000000.seg");
        std::fs::write(&old_path, &old).expect("old segment");

        let store = ResultStore::open(&dir).expect("recovery never fails");
        assert_eq!(store.recovery().damaged_segments, 1);
        assert!(store.is_empty());
        assert!(store.get(1, 2, 0).is_none(), "an old record is recomputed, not read");
        store.append(1, 2, 0, &Err("v3".into()));
        assert_eq!(segment_files(&dir).len(), 2, "the append opened a fresh segment");
        assert_eq!(std::fs::read(&old_path).expect("old segment stays"), old);

        store.compact().expect("compaction succeeds");
        let remaining = only_segment(&dir);
        assert!(!old_path.exists(), "compaction deletes the old-format segment");
        assert_eq!(&std::fs::read(&remaining).expect("segment")[..MAGIC.len()], MAGIC);
        drop(store);
        let reopened = ResultStore::open(&dir).expect("store reopens");
        assert_eq!(reopened.recovery().damaged_segments, 0);
        assert_eq!(stored_err(&reopened, 1, 2, 0), Some("v3".into()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_keeps_a_segment_a_peer_is_still_appending_to() {
        let dir = temp_store_dir("peer-compact");
        let a = ResultStore::open(&dir).expect("store opens");
        a.append(1, 0, 0, &Err("a before b opened".into()));
        let b = ResultStore::open(&dir).expect("store opens again");
        a.append(1, 0, 1, &Err("a after b opened".into()));
        b.append(2, 0, 0, &Err("b".into()));
        b.compact().expect("compaction succeeds");
        a.append(1, 0, 2, &Err("a after b compacted".into()));
        drop((a, b));

        let reopened = ResultStore::open(&dir).expect("store reopens");
        let found: Vec<bool> = [(1, 0, 0), (1, 0, 1), (2, 0, 0), (1, 0, 2)]
            .iter()
            .map(|&(digest, seed, rep)| stored_err(&reopened, digest, seed, rep).is_some())
            .collect();
        assert_eq!(found, [true; 4], "every record of both stores survives");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_keeps_a_segment_a_closed_peer_grew_after_the_scan() {
        let dir = temp_store_dir("closed-peer-compact");
        let a = ResultStore::open(&dir).expect("store opens");
        a.append(1, 0, 0, &Err("a before b opened".into()));
        let b = ResultStore::open(&dir).expect("store opens again");
        a.append(1, 0, 1, &Err("a after b opened".into()));
        // A exits (or is killed): its lock is gone, its second record is
        // in no index of B's.
        drop(a);
        b.append(2, 0, 0, &Err("b".into()));
        b.compact().expect("compaction succeeds");
        drop(b);

        let reopened = ResultStore::open(&dir).expect("store reopens");
        let found: Vec<bool> = [(1, 0, 0), (1, 0, 1), (2, 0, 0)]
            .iter()
            .map(|&(digest, seed, rep)| stored_err(&reopened, digest, seed, rep).is_some())
            .collect();
        assert_eq!(found, [true; 3], "the closed peer's late record survives");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_writer_that_loses_the_segment_number_race_takes_the_next_one() {
        let dir = temp_store_dir("race");
        let first = ResultStore::open(&dir).expect("store opens");
        let second = ResultStore::open(&dir).expect("store opens again");
        // Both stores would claim segment 0; the second gets it.
        second.append(2, 0, 0, &Err("second".into()));
        first.append(1, 0, 0, &Err("first".into()));
        assert_eq!(stored_err(&first, 1, 0, 0), Some("first".into()));
        // The second store's next number is the first store's segment
        // now: compaction claims its target the same way, so it never
        // renames over a segment a peer is writing.
        second.compact().expect("compaction succeeds");
        drop((first, second));

        let reopened = ResultStore::open(&dir).expect("store reopens");
        assert_eq!(reopened.recovery().damaged_segments, 0);
        assert_eq!(stored_err(&reopened, 1, 0, 0), Some("first".into()));
        assert_eq!(stored_err(&reopened, 2, 0, 0), Some("second".into()));
        std::fs::remove_dir_all(&dir).ok();
    }
}
