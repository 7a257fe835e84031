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
//! segment starts with an 8-byte magic (`COALSTO4`) followed by framed
//! records:
//!
//! ```text
//! [u32 le payload len][u64 le checksum(key ‖ payload)][u64 le digest][u64 le seed][u64 le rep][payload]
//! ```
//!
//! where the key is the 24 header bytes after the checksum. The
//! checksum is the scenario digest's hasher
//! ([`point_digest`](super::point_digest)'s) over key ‖ payload: their
//! byte length, then their little-endian 8-byte words (the last one
//! zero-padded), each mixed in by MurmurHash64A's step. Each step is a
//! bijection, so damage confined to one word — a flipped bit, a torn
//! byte — always changes the checksum.
//!
//! The payload is binary, every number little-endian:
//!
//! ```text
//! [u64 digest][u64 seed][u64 rep]            the key again
//! [u8 tag] 0 = Ok:  every field of SimOutcome
//!          1 = Err: the failure cause, a string
//! ```
//!
//! An outcome is its fields, its `MetricsReport`'s and their
//! `Estimate`'s, in declaration order: an `f64` as its bit pattern
//! (`to_bits`, so NaN payloads, infinities and −0.0 come back exactly),
//! a `u64` or `usize` as a u64, a `bool` as one 0/1 byte, an `Option`
//! as a 0/1 byte and then its value when present, a string or a vector
//! as a u32 length and then its UTF-8 bytes or its items. Appends go to
//! a segment opened by *this* process only — a reopened store never
//! appends after an old tail, so a damaged suffix can never corrupt the
//! framing of later writes — and every append is handed to the
//! operating system in one write before
//! [`append`](ResultStore::append) returns.
//!
//! ## Recovery contract
//!
//! [`open`](ResultStore::open) verifies every frame's length bound and
//! checksum and indexes the key from the frame header; it decodes no
//! payload, and it reads one frame at a time through a buffer, so
//! opening a store takes memory for its largest frame, not for its
//! size. Recovery is sequential per segment and **drops only the
//! damaged suffix**: a truncated tail (the process was SIGKILLed
//! mid-append) or a bit-flipped length, checksum, key or payload byte
//! stops the scan of that segment with a warning on stderr — every
//! frame before the damage is kept, recovery never panics, and a
//! zero-length file contributes nothing. A file without the current
//! magic (a foreign file, or a segment of an earlier format:
//! `COALSTO3` held JSON payloads under an FNV-1a checksum, and the
//! formats before it keyed records by an earlier scenario digest) is
//! ignored with a warning and deleted by the next compaction, so a
//! store an earlier build wrote is recomputed once; there is no second
//! reader.
//!
//! [`get`](ResultStore::get) verifies the frame's checksum again and
//! decodes its payload strictly: an unknown tag or flag byte, a length
//! longer than the bytes left, a string that is not UTF-8, trailing
//! bytes, or a payload whose key differs from its frame header's reads
//! as a miss with a warning and leaves the rest of its segment served.
//! Decoding never panics, and no length is trusted before the bytes it
//! counts are there, so a corrupt one allocates nothing. The store is
//! an optimization over re-running, never the source of truth, so
//! dropping a record is always safe.
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
use std::hash::Hasher;
use std::io::{BufReader, BufWriter, ErrorKind, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use desim::Estimate;

use super::checkpoint::unique_tmp_path;
use super::grid::DigestHasher;
use super::relock;
use crate::metrics::MetricsReport;
use crate::sim::SimOutcome;

/// Key of one stored replication: `(point scenario digest, base seed,
/// replication index)` — identical to the scenario-cache key.
type Key = (u64, u64, u64);

/// Magic bytes opening every segment file (name + format version).
/// Version 4 stores binary payloads under the word-wise checksum; a
/// segment of an earlier version is recomputed, not read. Any change to
/// the frame or payload layout must bump it.
const MAGIC: &[u8; 8] = b"COALSTO4";

/// Offset of the bytes the checksum covers: the key, then the payload.
const CHECKED_FROM: usize = 4 + 8;

/// Frame header size: u32 payload length + u64 checksum + the three
/// u64 words of the key.
const FRAME_HEADER: usize = CHECKED_FROM + 3 * 8;

/// Upper bound on one record's payload; a "length" beyond it is a
/// corrupt frame, not a real record (keeps a bit-flipped length from
/// asking for a multi-gigabyte read).
const MAX_PAYLOAD: u32 = 64 * 1024 * 1024;

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
    /// Shared so a read can name the file in a warning without
    /// allocating under the store lock.
    path: Arc<Path>,
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
    /// are decoded when read.
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
    /// may have rotted since recovery) and decoding its payload once the
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
        let payload = encode_payload(key, result);
        if payload.len() > MAX_PAYLOAD as usize {
            // Recovery would take the frame for a corrupt length and drop
            // the rest of its segment; this record is recomputed instead.
            eprintln!(
                "warning: result store record of {} bytes exceeds the {MAX_PAYLOAD}-byte \
                 bound; not stored",
                payload.len()
            );
            return;
        }
        let frame = encode_frame(key, &payload);
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
        let compacted = Segment { path: target.into(), reader, len: offset };
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
            self.segments.push(Segment {
                path: path.into(),
                reader: Some(reader),
                len: MAGIC.len() as u64,
            });
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

/// The checksum of key ‖ payload: [`DigestHasher`] over their length
/// and 8-byte words (see the module docs).
fn checksum(checked: &[u8]) -> u64 {
    let mut hasher = DigestHasher::new();
    hasher.write(checked);
    hasher.finish()
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
    let checksum = checksum(&frame[CHECKED_FROM..]);
    frame[4..CHECKED_FROM].copy_from_slice(&checksum.to_le_bytes());
    frame
}

/// One record's payload: its key again, then the result (the cache
/// memoizes failures too — a deterministic panic would only repeat).
fn encode_payload(key: Key, result: &Result<SimOutcome, String>) -> Vec<u8> {
    let mut out = Vec::with_capacity(512);
    for word in [key.0, key.1, key.2] {
        word.put(&mut out);
    }
    result.put(&mut out);
    out
}

/// Decodes a payload [`encode_payload`] wrote for `key`. Strict: a
/// payload of another key, or one that [`Field::take`] rejects or that
/// has bytes left over, is an error.
fn decode_payload(mut input: &[u8], key: Key) -> Result<Result<SimOutcome, String>, String> {
    let input = &mut input;
    let stored: Key = (Field::take(input)?, Field::take(input)?, Field::take(input)?);
    if stored != key {
        return Err(format!("payload holds key {stored:?}, not the frame's"));
    }
    let result = Field::take(input)?;
    if !input.is_empty() {
        return Err(format!("{} bytes trail the record", input.len()));
    }
    Ok(result)
}

/// A value with a fixed binary encoding in a payload (layout in the
/// module docs). `take` reads one value off the front of `input` and
/// fails, without panicking, on bytes no `put` writes.
trait Field: Sized {
    fn put(&self, out: &mut Vec<u8>);
    fn take(input: &mut &[u8]) -> Result<Self, &'static str>;
}

/// The next `n` bytes of `input`, if that many are left.
fn take_bytes<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], &'static str> {
    let (head, rest) = input.split_at_checked(n).ok_or("a length runs past the payload")?;
    *input = rest;
    Ok(head)
}

/// Writes a string's or vector's length. One longer than `u32::MAX`
/// makes the payload longer than [`MAX_PAYLOAD`], which is never stored.
fn put_len(len: usize, out: &mut Vec<u8>) {
    u32::try_from(len).unwrap_or(u32::MAX).put(out);
}

impl Field for u8 {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }

    fn take(input: &mut &[u8]) -> Result<Self, &'static str> {
        let (&byte, rest) = input.split_first().ok_or("the payload ends early")?;
        *input = rest;
        Ok(byte)
    }
}

impl Field for u32 {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn take(input: &mut &[u8]) -> Result<Self, &'static str> {
        let (head, rest) = input.split_first_chunk().ok_or("the payload ends early")?;
        *input = rest;
        Ok(u32::from_le_bytes(*head))
    }
}

impl Field for u64 {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn take(input: &mut &[u8]) -> Result<Self, &'static str> {
        let (head, rest) = input.split_first_chunk().ok_or("the payload ends early")?;
        *input = rest;
        Ok(u64::from_le_bytes(*head))
    }
}

impl Field for usize {
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }

    fn take(input: &mut &[u8]) -> Result<Self, &'static str> {
        usize::try_from(u64::take(input)?).map_err(|_| "a count exceeds usize")
    }
}

impl Field for f64 {
    fn put(&self, out: &mut Vec<u8>) {
        self.to_bits().put(out);
    }

    fn take(input: &mut &[u8]) -> Result<Self, &'static str> {
        u64::take(input).map(f64::from_bits)
    }
}

impl Field for bool {
    fn put(&self, out: &mut Vec<u8>) {
        u8::from(*self).put(out);
    }

    fn take(input: &mut &[u8]) -> Result<Self, &'static str> {
        match u8::take(input)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err("a flag byte is neither 0 nor 1"),
        }
    }
}

impl<T: Field> Field for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        self.is_some().put(out);
        if let Some(value) = self {
            value.put(out);
        }
    }

    fn take(input: &mut &[u8]) -> Result<Self, &'static str> {
        if bool::take(input)? {
            T::take(input).map(Some)
        } else {
            Ok(None)
        }
    }
}

impl Field for String {
    fn put(&self, out: &mut Vec<u8>) {
        put_len(self.len(), out);
        out.extend_from_slice(self.as_bytes());
    }

    fn take(input: &mut &[u8]) -> Result<Self, &'static str> {
        let len = u32::take(input)? as usize;
        let bytes = take_bytes(input, len)?;
        std::str::from_utf8(bytes).map(str::to_owned).map_err(|_| "a string is not UTF-8")
    }
}

impl Field for Vec<f64> {
    fn put(&self, out: &mut Vec<u8>) {
        put_len(self.len(), out);
        for x in self {
            x.put(out);
        }
    }

    fn take(input: &mut &[u8]) -> Result<Self, &'static str> {
        let len = u32::take(input)? as usize;
        // The items' bytes must all be there before anything is
        // allocated for them.
        let size = len.checked_mul(8).ok_or("a length runs past the payload")?;
        let mut items = take_bytes(input, size)?;
        (0..len).map(|_| f64::take(&mut items)).collect()
    }
}

impl Field for Result<SimOutcome, String> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Ok(outcome) => {
                0u8.put(out);
                outcome.put(out);
            }
            Err(cause) => {
                1u8.put(out);
                cause.put(out);
            }
        }
    }

    fn take(input: &mut &[u8]) -> Result<Self, &'static str> {
        match u8::take(input)? {
            0 => SimOutcome::take(input).map(Ok),
            1 => String::take(input).map(Err),
            _ => Err("unknown result tag"),
        }
    }
}

// The struct codecs destructure without `..` and decode by name, so a
// new field fails to compile until the codec carries it; decoding must
// name the fields in declaration order, the order they were written.

impl Field for Estimate {
    fn put(&self, out: &mut Vec<u8>) {
        let Estimate { mean, half_width, n } = self;
        mean.put(out);
        half_width.put(out);
        n.put(out);
    }

    fn take(input: &mut &[u8]) -> Result<Self, &'static str> {
        Ok(Estimate {
            mean: Field::take(input)?,
            half_width: Field::take(input)?,
            n: Field::take(input)?,
        })
    }
}

impl Field for MetricsReport {
    fn put(&self, out: &mut Vec<u8>) {
        let MetricsReport {
            response,
            mean_response,
            max_response,
            response_local,
            response_global,
            response_single,
            response_multi,
            response_per_queue,
            mean_wait,
            response_by_size,
            median_response,
            p95_response,
            mean_jobs_in_system,
            mean_queue_length,
            throughput,
            gross_utilization,
            net_utilization,
            departures,
            window_seconds,
            availability,
            interruptions,
            wasted_processor_seconds,
            achieved_extension,
            mean_active_flows,
        } = self;
        response.put(out);
        mean_response.put(out);
        max_response.put(out);
        response_local.put(out);
        response_global.put(out);
        response_single.put(out);
        response_multi.put(out);
        response_per_queue.put(out);
        mean_wait.put(out);
        response_by_size.put(out);
        median_response.put(out);
        p95_response.put(out);
        mean_jobs_in_system.put(out);
        mean_queue_length.put(out);
        throughput.put(out);
        gross_utilization.put(out);
        net_utilization.put(out);
        departures.put(out);
        window_seconds.put(out);
        availability.put(out);
        interruptions.put(out);
        wasted_processor_seconds.put(out);
        achieved_extension.put(out);
        mean_active_flows.put(out);
    }

    fn take(input: &mut &[u8]) -> Result<Self, &'static str> {
        Ok(MetricsReport {
            response: Field::take(input)?,
            mean_response: Field::take(input)?,
            max_response: Field::take(input)?,
            response_local: Field::take(input)?,
            response_global: Field::take(input)?,
            response_single: Field::take(input)?,
            response_multi: Field::take(input)?,
            response_per_queue: Field::take(input)?,
            mean_wait: Field::take(input)?,
            response_by_size: Field::take(input)?,
            median_response: Field::take(input)?,
            p95_response: Field::take(input)?,
            mean_jobs_in_system: Field::take(input)?,
            mean_queue_length: Field::take(input)?,
            throughput: Field::take(input)?,
            gross_utilization: Field::take(input)?,
            net_utilization: Field::take(input)?,
            departures: Field::take(input)?,
            window_seconds: Field::take(input)?,
            availability: Field::take(input)?,
            interruptions: Field::take(input)?,
            wasted_processor_seconds: Field::take(input)?,
            achieved_extension: Field::take(input)?,
            mean_active_flows: Field::take(input)?,
        })
    }
}

impl Field for SimOutcome {
    fn put(&self, out: &mut Vec<u8>) {
        let SimOutcome {
            policy,
            offered_gross_utilization,
            metrics,
            arrivals,
            completed,
            residual_queued,
            backlog_at_last_arrival,
            peak_backlog,
            saturated,
            end_time,
            response_series,
        } = self;
        policy.put(out);
        offered_gross_utilization.put(out);
        metrics.put(out);
        arrivals.put(out);
        completed.put(out);
        residual_queued.put(out);
        backlog_at_last_arrival.put(out);
        peak_backlog.put(out);
        saturated.put(out);
        end_time.put(out);
        response_series.put(out);
    }

    fn take(input: &mut &[u8]) -> Result<Self, &'static str> {
        Ok(SimOutcome {
            policy: Field::take(input)?,
            offered_gross_utilization: Field::take(input)?,
            metrics: Field::take(input)?,
            arrivals: Field::take(input)?,
            completed: Field::take(input)?,
            residual_queued: Field::take(input)?,
            backlog_at_last_arrival: Field::take(input)?,
            peak_backlog: Field::take(input)?,
            saturated: Field::take(input)?,
            end_time: Field::take(input)?,
            response_series: Field::take(input)?,
        })
    }
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
    if checksum(bytes.get(CHECKED_FROM..end)?) != word(4) {
        return None;
    }
    Some(((word(12), word(20), word(28)), end))
}

/// Verifies a frame re-read for `key` and decodes its payload: the
/// checksum must match, the header must carry `key`, and the payload
/// must be a record of that same key.
fn decode_record(frame: &[u8], key: Key) -> Result<Result<SimOutcome, String>, String> {
    match check_frame(frame) {
        Some((header, len)) if header == key && len == frame.len() => {}
        Some(_) => return Err("frame header carries another key".into()),
        None => return Err("corrupt frame".into()),
    }
    decode_payload(&frame[FRAME_HEADER..], key)
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
    let opened = File::open(&path).and_then(|f| Ok((f.metadata()?.len(), f)));
    let (len, file) = match opened {
        Ok(opened) => opened,
        Err(e) => {
            eprintln!("warning: cannot read store segment {} ({e}); skipping", path.display());
            return (Segment { path: path.into(), reader: None, len: 0 }, false);
        }
    };
    let end = scan_frames(&file, len, |key, offset, payload_len| {
        if index.insert(key, Loc { seg, offset, len: payload_len }).is_some() {
            recovery.superseded += 1;
        }
    });
    let segment = Segment { path: path.into(), reader: Some(file), len };
    match end {
        ScanEnd::Intact => return (segment, true),
        ScanEnd::NoHeader => eprintln!(
            "warning: store segment {} has no valid header; ignoring the file",
            segment.path.display()
        ),
        ScanEnd::DamagedAt(offset) => eprintln!(
            "warning: store segment {} damaged at byte {offset}; \
             dropping the suffix ({} records recovered so far)",
            segment.path.display(),
            index.len()
        ),
    }
    (segment, false)
}

/// Where the scan of one segment stopped.
#[derive(Debug, PartialEq, Eq)]
enum ScanEnd {
    /// Every frame was valid (or the file is empty: a segment created
    /// but never written holds nothing to recover).
    Intact,
    /// The file does not start with the current magic.
    NoHeader,
    /// The frame at this byte offset is truncated or fails its length
    /// bound or checksum; the frames before it were kept.
    DamagedAt(u64),
}

/// Verifies the frames in the first `len` bytes of `file` in order,
/// handing each valid frame's key, offset and payload length to
/// `each`. It reads through a buffer, one frame in memory at a time,
/// so opening a store needs memory for its largest frame, not for its
/// bytes.
fn scan_frames(file: &File, len: u64, mut each: impl FnMut(Key, u64, u32)) -> ScanEnd {
    if len == 0 {
        return ScanEnd::Intact;
    }
    let mut reader = BufReader::new(Read::take(file, len));
    let mut magic = [0u8; MAGIC.len()];
    if reader.read_exact(&mut magic).is_err() || &magic != MAGIC {
        return ScanEnd::NoHeader;
    }
    let mut frame = Vec::new();
    let mut offset = MAGIC.len() as u64;
    while offset < len {
        let Some((key, frame_len)) = next_frame(&mut reader, len - offset, &mut frame) else {
            return ScanEnd::DamagedAt(offset);
        };
        each(key, offset, (frame_len - FRAME_HEADER) as u32);
        offset += frame_len as u64;
    }
    ScanEnd::Intact
}

/// Reads the frame at the reader's position into `frame` and checks it
/// ([`check_frame`]). `left` is how many bytes the scan has left, so a
/// length word that points past them is damage, found before its
/// payload is read or allocated.
fn next_frame(reader: &mut impl Read, left: u64, frame: &mut Vec<u8>) -> Option<(Key, usize)> {
    frame.resize(FRAME_HEADER, 0);
    reader.read_exact(frame).ok()?;
    let len = u32::from_le_bytes(frame[..4].try_into().expect("4 bytes"));
    if len > MAX_PAYLOAD || (FRAME_HEADER as u64 + u64::from(len)) > left {
        return None;
    }
    frame.resize(FRAME_HEADER + len as usize, 0);
    reader.read_exact(&mut frame[FRAME_HEADER..]).ok()?;
    check_frame(frame)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::pool::execute_isolated;
    use crate::policy::PolicyKind;
    use crate::sim::SimConfig;
    use proptest::prelude::*;

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
    fn a_length_past_the_end_of_the_file_is_damage_at_its_frame() {
        // The third frame's length word claims 1 MB — within the frame
        // bound, but more bytes than the file holds.
        let dir = temp_store_dir("long-length");
        std::fs::create_dir_all(&dir).expect("dir");
        let frames: Vec<Vec<u8>> =
            (0..4).map(|rep| record_frame((1, 2, rep), (1, 2, rep), &format!("r{rep}"))).collect();
        let third = (MAGIC.len() + frames[0].len() + frames[1].len()) as u64;
        let mut bytes = segment_of(&frames);
        let at = third as usize;
        bytes[at..at + 4].copy_from_slice(&1_000_000u32.to_le_bytes());
        assert!(1_000_000 <= MAX_PAYLOAD && 1_000_000 > bytes.len());
        let seg = dir.join("store-000000.seg");
        std::fs::write(&seg, &bytes).expect("segment");

        let file = File::open(&seg).expect("segment opens");
        let mut offsets = Vec::new();
        let end = scan_frames(&file, bytes.len() as u64, |_, offset, _| offsets.push(offset));
        assert_eq!(end, ScanEnd::DamagedAt(third));
        assert_eq!(offsets, [MAGIC.len() as u64, (MAGIC.len() + frames[0].len()) as u64]);

        let store = ResultStore::open(&dir).expect("recovery never fails");
        assert_eq!(store.len(), 2, "the frames before the damage are kept");
        assert_eq!(store.recovery().damaged_segments, 1);
        for rep in 0..2 {
            assert_eq!(stored_err(&store, 1, 2, rep), Some(format!("r{rep}")));
        }
        assert!(store.get(1, 2, 2).is_none() && store.get(1, 2, 3).is_none());
        std::fs::remove_dir_all(&dir).ok();
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
        encode_frame(header_key, &encode_payload(payload_key, &Err(cause.into())))
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
        // `COALSTO3` held JSON payloads under an FNV-1a checksum. The
        // frame here is even this format's: the magic alone turns the
        // segment away.
        let mut old = b"COALSTO3".to_vec();
        old.extend_from_slice(&record_frame((1, 2, 0), (1, 2, 0), "v3"));
        let old_path = dir.join("store-000000.seg");
        std::fs::write(&old_path, &old).expect("old segment");

        let store = ResultStore::open(&dir).expect("recovery never fails");
        assert_eq!(store.recovery().damaged_segments, 1);
        assert!(store.is_empty());
        assert!(store.get(1, 2, 0).is_none(), "an old record is recomputed, not read");
        store.append(1, 2, 0, &Err("v4".into()));
        assert_eq!(segment_files(&dir).len(), 2, "the append opened a fresh segment");
        assert_eq!(std::fs::read(&old_path).expect("old segment stays"), old);

        store.compact().expect("compaction succeeds");
        let remaining = only_segment(&dir);
        assert!(!old_path.exists(), "compaction deletes the old-format segment");
        assert_eq!(&std::fs::read(&remaining).expect("segment")[..MAGIC.len()], MAGIC);
        drop(store);
        let reopened = ResultStore::open(&dir).expect("store reopens");
        assert_eq!(reopened.recovery().damaged_segments, 0);
        assert_eq!(stored_err(&reopened, 1, 2, 0), Some("v4".into()));
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

    /// Floats a payload must carry bit for bit: the special values, NaN
    /// and infinity bit patterns with random payloads and signs, and
    /// arbitrary bit patterns.
    fn any_f64(rng: &mut TestRng) -> f64 {
        const SPECIAL: [f64; 6] =
            [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0];
        match rng.below(4) {
            0 => SPECIAL[rng.below(SPECIAL.len() as u64) as usize],
            1 => f64::from_bits(0x7ff0_0000_0000_0000 | rng.next_u64()),
            _ => f64::from_bits(rng.next_u64()),
        }
    }

    /// Empty, short and long vectors.
    fn any_vec(rng: &mut TestRng) -> Vec<f64> {
        let len = match rng.below(3) {
            0 => 0,
            1 => rng.below(8),
            _ => rng.below(5_000),
        };
        (0..len).map(|_| any_f64(rng)).collect()
    }

    /// Strings of one- to four-byte UTF-8 characters, empty ones included.
    fn any_string(rng: &mut TestRng) -> String {
        const CHARS: [char; 6] = ['G', 'S', 'é', 'ß', '漢', '🦀'];
        (0..rng.below(24)).map(|_| CHARS[rng.below(CHARS.len() as u64) as usize]).collect()
    }

    fn any_option(rng: &mut TestRng) -> Option<f64> {
        (rng.below(2) == 1).then(|| any_f64(rng))
    }

    /// Arbitrary results a store may hold: mostly outcomes, some causes.
    struct AnyResult;

    impl Strategy for AnyResult {
        type Value = Result<SimOutcome, String>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            if rng.below(5) == 0 {
                return Err(any_string(rng));
            }
            let metrics = MetricsReport {
                response: Estimate {
                    mean: any_f64(rng),
                    half_width: any_f64(rng),
                    n: rng.next_u64(),
                },
                mean_response: any_f64(rng),
                max_response: any_f64(rng),
                response_local: any_option(rng),
                response_global: any_option(rng),
                response_single: any_f64(rng),
                response_multi: any_f64(rng),
                response_per_queue: any_vec(rng),
                mean_wait: any_f64(rng),
                response_by_size: any_vec(rng),
                median_response: any_f64(rng),
                p95_response: any_f64(rng),
                mean_jobs_in_system: any_f64(rng),
                mean_queue_length: any_f64(rng),
                throughput: any_f64(rng),
                gross_utilization: any_f64(rng),
                net_utilization: any_f64(rng),
                departures: rng.next_u64(),
                window_seconds: any_f64(rng),
                availability: any_f64(rng),
                interruptions: rng.next_u64(),
                wasted_processor_seconds: any_f64(rng),
                achieved_extension: any_f64(rng),
                mean_active_flows: any_f64(rng),
            };
            Ok(SimOutcome {
                policy: any_string(rng),
                offered_gross_utilization: any_f64(rng),
                metrics,
                arrivals: rng.next_u64(),
                completed: rng.next_u64(),
                residual_queued: rng.next_u64() as usize,
                backlog_at_last_arrival: rng.next_u64() as usize,
                peak_backlog: rng.next_u64() as usize,
                saturated: rng.below(2) == 1,
                end_time: any_f64(rng),
                response_series: any_vec(rng),
            })
        }
    }

    /// Every value of a result as words, floats by bit pattern (so a
    /// NaN's payload and a zero's sign count), listed field by field
    /// apart from the codec.
    fn words(result: &Result<SimOutcome, String>) -> Vec<u64> {
        let text = |s: &str| {
            let mut w = vec![s.len() as u64];
            w.extend(s.bytes().map(u64::from));
            w
        };
        let floats = |xs: &[f64]| {
            let mut w = vec![xs.len() as u64];
            w.extend(xs.iter().map(|x| x.to_bits()));
            w
        };
        let option = |x: &Option<f64>| x.map_or(vec![0], |x| vec![1, x.to_bits()]);
        let outcome = match result {
            Ok(outcome) => outcome,
            Err(cause) => return [vec![1], text(cause)].concat(),
        };
        let SimOutcome {
            policy,
            offered_gross_utilization,
            metrics,
            arrivals,
            completed,
            residual_queued,
            backlog_at_last_arrival,
            peak_backlog,
            saturated,
            end_time,
            response_series,
        } = outcome;
        let MetricsReport {
            response,
            mean_response,
            max_response,
            response_local,
            response_global,
            response_single,
            response_multi,
            response_per_queue,
            mean_wait,
            response_by_size,
            median_response,
            p95_response,
            mean_jobs_in_system,
            mean_queue_length,
            throughput,
            gross_utilization,
            net_utilization,
            departures,
            window_seconds,
            availability,
            interruptions,
            wasted_processor_seconds,
            achieved_extension,
            mean_active_flows,
        } = metrics;
        let Estimate { mean, half_width, n } = response;
        let scalars = [
            offered_gross_utilization,
            mean,
            half_width,
            mean_response,
            max_response,
            response_single,
            response_multi,
            mean_wait,
            median_response,
            p95_response,
            mean_jobs_in_system,
            mean_queue_length,
            throughput,
            gross_utilization,
            net_utilization,
            window_seconds,
            availability,
            wasted_processor_seconds,
            achieved_extension,
            mean_active_flows,
            end_time,
        ];
        let counts = [
            *n,
            *departures,
            *interruptions,
            *arrivals,
            *completed,
            *residual_queued as u64,
            *backlog_at_last_arrival as u64,
            *peak_backlog as u64,
            u64::from(*saturated),
        ];
        [
            vec![0],
            text(policy),
            scalars.iter().map(|x| x.to_bits()).collect(),
            counts.to_vec(),
            option(response_local),
            option(response_global),
            floats(response_per_queue),
            floats(response_by_size),
            floats(response_series),
        ]
        .concat()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn payloads_round_trip_bit_for_bit(result in AnyResult, digest in any::<u64>()) {
            let key = (digest, 2003, 7);
            let payload = encode_payload(key, &result);
            let back = decode_payload(&payload, key);
            prop_assert!(back.is_ok(), "{:?}", back.err());
            let back = back.expect("checked above");
            prop_assert_eq!(words(&back), words(&result));
            // A payload of one key is no record of another.
            prop_assert!(decode_payload(&payload, (digest ^ 1, 2003, 7)).is_err());
        }
    }

    #[test]
    fn truncated_extended_corrupt_and_random_payloads_are_misses() {
        let key = (3, 5, 7);
        let payload = encode_payload(key, &outcome(7));
        assert!(decode_payload(&payload, key).is_ok());
        for end in 0..payload.len() {
            assert!(decode_payload(&payload[..end], key).is_err(), "a payload cut at byte {end}");
        }
        let extended = [&payload[..], &[0]].concat();
        assert!(decode_payload(&extended, key).is_err(), "a trailing byte");

        // After the key: the result tag, the policy's length and bytes
        // ("GS"); the payload ends with the empty response series' length.
        let corrupt = |at: usize, bytes: &[u8]| {
            let mut bad = payload.clone();
            bad[at..at + bytes.len()].copy_from_slice(bytes);
            decode_payload(&bad, key).err()
        };
        let end = payload.len();
        assert_eq!(corrupt(24, &[2]).as_deref(), Some("unknown result tag"));
        assert_eq!(corrupt(29, &[0xff]).as_deref(), Some("a string is not UTF-8"));
        // Lengths far beyond the payload are refused before anything is
        // allocated for them.
        let too_long = Some("a length runs past the payload");
        assert_eq!(corrupt(25, &u32::MAX.to_le_bytes()).as_deref(), too_long);
        assert_eq!(corrupt(end - 4, &u32::MAX.to_le_bytes()).as_deref(), too_long);

        // Random bytes, alone and after a valid key and `Ok` tag.
        let mut rng = TestRng::new(2003);
        for _ in 0..2_000 {
            let noise: Vec<u8> = (0..rng.below(600)).map(|_| rng.next_u64() as u8).collect();
            assert!(decode_payload(&noise, key).is_err());
            assert!(decode_payload(&[&payload[..25], &noise].concat(), key).is_err());
        }
    }

    #[test]
    fn every_single_bit_flip_of_a_frame_is_caught_at_open() {
        let dir = temp_store_dir("every-flip");
        std::fs::create_dir_all(&dir).expect("dir");
        let path = dir.join("store-000000.seg");
        let key = (3, 5, 7);
        let mut bytes = segment_of(&[encode_frame(key, &encode_payload(key, &outcome(7)))]);
        for bit in MAGIC.len() * 8..bytes.len() * 8 {
            bytes[bit / 8] ^= 1 << (bit % 8);
            std::fs::write(&path, &bytes).expect("segment");
            let store = ResultStore::open(&dir).expect("recovery never fails");
            assert!(store.is_empty(), "a flip of bit {bit} went unnoticed");
            assert_eq!(store.recovery().damaged_segments, 1);
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
        std::fs::write(&path, &bytes).expect("segment");
        let store = ResultStore::open(&dir).expect("store opens");
        assert!(store.get(3, 5, 7).is_some(), "the unflipped frame reads back");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An outcome with a distinct value in every field.
    fn fixed_outcome() -> SimOutcome {
        SimOutcome {
            policy: "GS".into(),
            offered_gross_utilization: 0.5,
            metrics: MetricsReport {
                response: Estimate { mean: 1.0, half_width: f64::INFINITY, n: 2 },
                mean_response: 3.0,
                max_response: 4.0,
                response_local: None,
                response_global: Some(5.0),
                response_single: 6.0,
                response_multi: 7.0,
                response_per_queue: vec![8.0],
                mean_wait: 9.0,
                response_by_size: vec![10.0, -0.0],
                median_response: 11.0,
                p95_response: 12.0,
                mean_jobs_in_system: 13.0,
                mean_queue_length: 14.0,
                throughput: 15.0,
                gross_utilization: 16.0,
                net_utilization: 17.0,
                departures: 18,
                window_seconds: 19.0,
                availability: 20.0,
                interruptions: 21,
                wasted_processor_seconds: 22.0,
                achieved_extension: 23.0,
                mean_active_flows: 24.0,
            },
            arrivals: 25,
            completed: 26,
            residual_queued: 27,
            backlog_at_last_arrival: 28,
            peak_backlog: 29,
            saturated: true,
            end_time: f64::NAN,
            response_series: Vec::new(),
        }
    }

    #[test]
    fn the_frame_layout_is_pinned() {
        let key = (1, 2, 3);
        let frame = encode_frame(key, &encode_payload(key, &Ok(fixed_outcome())));
        let hex: String = frame.iter().map(|b| format!("{b:02x}")).collect();
        // The header (length, checksum, key), then the payload.
        let golden = concat!(
            "360100007bda5caf5ec322ce",
            "010000000000000002000000000000000300000000000000",
            "0100000000000000020000000000000003000000000000000002000000475300",
            "0000000000e03f000000000000f03f000000000000f07f020000000000000000",
            "0000000000084000000000000010400001000000000000144000000000000018",
            "400000000000001c400100000000000000000020400000000000002240020000",
            "0000000000000024400000000000000080000000000000264000000000000028",
            "400000000000002a400000000000002c400000000000002e4000000000000030",
            "4000000000000031401200000000000000000000000000334000000000000034",
            "4015000000000000000000000000003640000000000000374000000000000038",
            "4019000000000000001a000000000000001b000000000000001c000000000000",
            "001d0000000000000001000000000000f87f00000000",
        );
        assert_eq!(
            hex, golden,
            "the frame layout changed; a layout change must bump MAGIC, so that stores \
             of the old layout are recomputed instead of misread"
        );
    }
}
