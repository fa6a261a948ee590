//! Durability for [`BloomStore`]: per-shard snapshots plus an append-only
//! write log with group-commit batching, and generation-aware recovery.
//!
//! The paper's chosen-insertion adversary matters most against a
//! *long-lived* filter: pollution accumulates over the filter's lifetime, so
//! a store that loses its bits on restart resets the experiment (and, in a
//! real deployment, forces a full replay from the source of truth). This
//! module makes a restarted store come back with its exact bit state —
//! accumulated pollution, alarm trajectories and all.
//!
//! ## Exact copies and per-shard fences
//!
//! Replay must apply every logged write exactly once. Only the bits of a
//! plain filter are idempotent: the per-shard insert count is not (it feeds
//! the pollution alarms), a counting filter's counters are not (a doubled
//! increment leaves a zombie member `DELETE` cannot clear, a doubled
//! decrement drops an unrelated member), and replaying any write twice
//! breaks bit-for-bit recovery. So a snapshot copies each shard **under
//! the shard write lock**, which holds off that shard's writers for the
//! copy alone, and records the shard's *fence*: how many records the WAL
//! segment it just rotated to had been handed at that moment. Writers
//! apply and then log under the shard read lock, so at the fence every
//! write the copy holds is logged below it and no write above it is in the
//! copy. Replay of that segment skips the shard's records below its fence
//! ([`RecoveryReport::skipped_in_snapshot`]). The ones count is not
//! persisted; recovery recounts it from the copied words.
//!
//! ## Write-ahead log and group commit
//!
//! Every write reaches the log through one path. The store routes a
//! batch into per-shard buckets (a scalar insert or remove is a one-item
//! batch), applies each bucket to its shard first and *then* appends it to
//! the WAL buffer as one item record — insert or remove, the same body
//! under a different record kind — **while still holding the shard lock**
//! (read lock for item records, write lock for rotations). That makes WAL
//! order consistent with generation changes: a record tagged generation
//! `g` can never appear after the `RotateBegin` that retired `g`. The
//! fsync wait happens *outside* the shard lock via group commit:
//! concurrent committers elect one leader to `write` + `fsync` the whole
//! buffer while the rest wait on a condvar, so one `fsync` amortises over
//! every write that arrived while the previous one was in flight
//! ([`SyncPolicy::GroupCommit`]). [`SyncPolicy::OsOnly`] skips the fsync:
//! records still reach `write(2)` before the write returns, so they
//! survive a process kill (`SIGKILL`), just not an OS crash.
//!
//! ## Snapshot ⇄ WAL protocol
//!
//! A snapshot first rotates the WAL to a fresh segment, then copies the
//! shards one at a time (recording each one's fence), streaming each copy
//! into a tmp file as it is taken, then atomically publishes
//! `snapshot-<seq>.evbs` (fsync + rename) recording the first WAL segment
//! to replay on top. Because log records are appended only *after* their write
//! was applied, every record in the rotated-out segments is already
//! reflected in the copy; records racing into the new segment are in the
//! copy exactly when they sit below their shard's fence. Old segments and
//! snapshots are pruned after the rename.
//!
//! ## Streaming I/O
//!
//! Neither side materialises a file. The snapshot writer holds a shard's
//! write lock for the copy of its generation words only; it encodes the
//! record, computes its CRC and writes it through one fixed-size
//! `BufWriter` after releasing the lock, so a snapshot costs one shard's
//! words of spare memory. Recovery reads the snapshot through a
//! `BufReader`, checks the header before building anything, and hands each
//! generation record's words straight to [`FilterBackend::from_words`];
//! it then replays each WAL segment record by record through one reused
//! buffer. Both sides share one record framing (`RecordWriter` and
//! `RecordReader`); WAL records take the same framing encoded in place
//! (`encode_record`), straight into the segment buffer, which the
//! group-commit leader hands back after each flush so appends reuse its
//! capacity.
//!
//! Every record is guarded by a CRC-32 over the reflected IEEE polynomial,
//! computed by slicing-by-8 (eight bytes per step over eight `const`
//! tables). It equals the bytewise loop bit for bit, so format version 3's
//! bytes are unchanged.
//!
//! ## Recovery
//!
//! [`BloomStore::recover`] loads the newest snapshot (every record is
//! length-prefixed and CRC-checked; decode never panics on corrupt or
//! truncated files, and a damaged newest snapshot is a typed error with no
//! fallback to an older one, which the publish has already pruned),
//! rebuilds each shard's generations from the word arrays, then replays
//! the WAL segments the snapshot names in order.
//! Insert and remove records follow one rule. A record for the shard's
//! active or draining generation is applied to that generation. A record
//! from a rotated-out generation is discarded — replaying it would
//! resurrect exactly the polluted bits a completed rotation dropped. A
//! record whose generation runs *ahead* of its shard (no log this module
//! writes holds one) rolls the shard forward by rotating it, completing
//! a rotation in flight first, and is then applied, so no logged write is
//! lost; each forced rotation step counts in
//! [`RecoveryReport::anomalies`]. A torn final record (the crash cut a
//! `write` short) is tolerated as a clean end of log. Recovery finishes by
//! writing a fresh snapshot, so boot time is bounded by the WAL tail, not
//! the store's lifetime.
//!
//! Hardened stores refuse persistence with
//! [`PersistError::HardenedStore`]: their bits are derived under secret
//! keys that this module deliberately never writes to disk, so a restored
//! word array would be unanswerable garbage. (The WAL would replay, but a
//! fresh-keyed store diverges bit-for-bit — surfacing a typed error beats
//! quietly changing the store's contents.) The durable posture for a
//! hardened store is replay from the source of truth under a fresh key.

use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, BufWriter, Read, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use evilbloom_fault::{self as fault, FaultPoint};
use evilbloom_filters::{BackendKind, FilterBackend};
use evilbloom_metrics::{log_info, log_warn};
use evilbloom_trace::TraceEvent;

use crate::metrics::StoreMetrics;
use crate::shard::Generation;
use crate::store::BloomStore;

/// Group-commit fsyncs at or above this latency are forensically notable:
/// on any healthy disk a data fsync lands well under this, so crossing it
/// means the device stalled — exactly the confounder to rule out when a
/// latency spike coincides with an attack window.
const WAL_FSYNC_STALL_NS: u64 = 20_000_000;

/// How the write-ahead log trades durability against insert latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// Records reach `write(2)` before the insert returns (they survive a
    /// process crash / `SIGKILL`) but are never explicitly fsynced — an OS
    /// crash can lose the tail. The fastest durable-enough default for the
    /// attack-lab use case.
    #[default]
    OsOnly,
    /// Every insert waits until its record is fsynced. Concurrent inserts
    /// group-commit: one leader fsyncs the whole buffer while the rest wait,
    /// so the per-insert cost amortises under load.
    GroupCommit,
}

/// Configuration of a store's persistence layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistConfig {
    /// Directory holding `snapshot-<seq>.evbs` and `wal-<seq>.evbw` files
    /// (created if missing).
    pub dir: PathBuf,
    /// Durability policy of the write-ahead log.
    pub sync: SyncPolicy,
    /// Whether inserts are logged at all. With the WAL disabled only
    /// explicit snapshots persist state; inserts after the last snapshot
    /// are lost on restart.
    pub wal: bool,
}

impl PersistConfig {
    /// Persistence in `dir` with the default [`SyncPolicy::OsOnly`] WAL.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        PersistConfig { dir: dir.into(), sync: SyncPolicy::default(), wal: true }
    }

    /// Same, with group-commit fsync on every insert.
    pub fn fsync(dir: impl Into<PathBuf>) -> Self {
        PersistConfig { dir: dir.into(), sync: SyncPolicy::GroupCommit, wal: true }
    }

    /// Snapshot-only persistence (no insert log).
    pub fn snapshot_only(dir: impl Into<PathBuf>) -> Self {
        PersistConfig { dir: dir.into(), sync: SyncPolicy::OsOnly, wal: false }
    }
}

/// A persistence failure. File-format problems are typed (never panics),
/// I/O problems carry the underlying error.
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem failure.
    Io(io::Error),
    /// A snapshot or WAL file failed structural validation (bad magic,
    /// CRC mismatch, counts that do not add up, …).
    Corrupt {
        /// File that failed validation.
        file: String,
        /// What was wrong with it.
        what: &'static str,
    },
    /// The file was written by an incompatible format version.
    BadVersion {
        /// File carrying the version.
        file: String,
        /// The version it carries.
        version: u8,
    },
    /// The snapshot's geometry does not match the store configuration it
    /// claims (e.g. the parameter derivation changed between builds).
    ConfigMismatch(&'static str),
    /// Persistence was asked of a hardened store. Hardened bits are derived
    /// under secret keys that are never written to disk, so a restored word
    /// array could not answer queries; see the module docs.
    HardenedStore,
    /// Persistence was asked of a backend family that opts out of word-array
    /// snapshots (a scalable filter's slice stack has no fixed geometry).
    UnsupportedBackend(BackendKind),
    /// Recovery found no valid snapshot in the directory.
    NoSnapshot,
    /// A previous WAL write failed; the log is no longer trustworthy,
    /// appends have been disabled and the store is in degraded read-only
    /// mode until a snapshot repairs it. Carries the original error text.
    WalBroken(String),
    /// The store already has persistence attached.
    AlreadyPersistent,
    /// The operation needs persistence but none is attached (e.g. a
    /// `SNAPSHOT` command against a store started without a data directory).
    NotPersistent,
}

impl core::fmt::Display for PersistError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "persistence I/O error: {e}"),
            PersistError::Corrupt { file, what } => write!(f, "corrupt {file}: {what}"),
            PersistError::BadVersion { file, version } => {
                write!(f, "{file}: unsupported format version {version}")
            }
            PersistError::ConfigMismatch(what) => {
                write!(f, "snapshot does not match the store configuration: {what}")
            }
            PersistError::HardenedStore => write!(
                f,
                "hardened stores refuse persistence: their bits are derived under \
                 secret keys that are never written to disk"
            ),
            PersistError::UnsupportedBackend(kind) => {
                write!(f, "the {kind} backend does not support word-array persistence")
            }
            PersistError::NoSnapshot => write!(f, "no valid snapshot found in the directory"),
            PersistError::WalBroken(e) => write!(f, "write-ahead log is broken: {e}"),
            PersistError::AlreadyPersistent => write!(f, "persistence is already attached"),
            PersistError::NotPersistent => write!(f, "no persistence is attached to this store"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// Outcome of a completed snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// Sequence number of the snapshot file (`snapshot-<seq>.evbs`).
    pub seq: u64,
    /// First WAL segment recovery replays on top of this snapshot.
    pub wal_seq: u64,
    /// Shards recorded.
    pub shards: u32,
    /// Bytes written.
    pub bytes: u64,
}

/// What recovery found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Sequence of the snapshot restored from.
    pub snapshot_seq: u64,
    /// WAL segments replayed.
    pub wal_segments: u64,
    /// Logged inserts applied, counted per item.
    pub replayed_inserts: u64,
    /// Logged removes applied, counted per item (deletable backends only).
    pub replayed_removes: u64,
    /// Rotation records applied.
    pub replayed_rotations: u64,
    /// Records skipped because the snapshot's copy of their shard already
    /// holds them (they precede the shard's fence).
    pub skipped_in_snapshot: u64,
    /// Logged items (insert or remove) discarded because their generation
    /// was rotated out (replaying them would resurrect dropped pollution).
    pub discarded_stale: u64,
    /// Records that do not fit the shard they name: each rotation step a
    /// shard was forced through to meet a record ahead of it, plus any
    /// record that could not be applied (should not occur with logs this
    /// module wrote; tolerated, counted).
    pub anomalies: u64,
    /// Whether the last WAL segment ended mid-record (a crash cut a write
    /// short) — tolerated as a clean end of log.
    pub torn_tail: bool,
}

// ---------------------------------------------------------------------------
// File format primitives: CRC-framed little-endian records.
// ---------------------------------------------------------------------------

/// Format version shared by snapshot and WAL files. Bump on incompatible
/// layout changes; files of any other version are rejected with
/// [`PersistError::BadVersion`], never misread. Version 2 added the
/// backend-family byte pair to the snapshot header, the `REMOVE` WAL record
/// and, later, the per-shard fence record (optional on read: a snapshot
/// without one replays its whole WAL tail). Version 3 packs counting cells
/// as 4-bit nibbles, sixteen per word, where version 2 spent a byte on each.
pub const PERSIST_FORMAT_VERSION: u8 = 3;

const SNAPSHOT_MAGIC: &[u8; 4] = b"EVBS";
const WAL_MAGIC: &[u8; 4] = b"EVBW";

const REC_SNAP_HEADER: u8 = 0x01;
const REC_SNAP_GENERATION: u8 = 0x02;
const REC_SNAP_END: u8 = 0x03;
const REC_SNAP_FENCE: u8 = 0x04;
const REC_WAL_INSERT: u8 = 0x10;
const REC_WAL_ROTATE_BEGIN: u8 = 0x11;
const REC_WAL_ROTATE_COMPLETE: u8 = 0x12;
const REC_WAL_REMOVE: u8 = 0x13;

const ROLE_ACTIVE: u8 = 0;
const ROLE_DRAINING: u8 = 1;

/// Cap on a single record body (a corrupt length prefix must not balloon
/// memory). Sized for the largest legitimate record: one shard's word array
/// (a 1-billion-bit shard is 128 MiB) or one insert batch (bounded by the
/// server frame cap, 16 MiB).
const MAX_RECORD_BYTES: u32 = 256 * 1024 * 1024;

/// Buffer between the snapshot encoder and its tmp file.
const SNAPSHOT_WRITE_BUFFER: usize = 64 * 1024;

/// Buffer between a snapshot or WAL file and the record reader.
const READ_BUFFER: usize = 64 * 1024;

/// Words the snapshot encoder converts to bytes per write.
const WORDS_PER_CHUNK: usize = 512;

/// Slicing-by-8 tables (Kounavis & Berry, "A Systematic Approach to
/// Building High Performance Software-Based CRC Generators", ISCC 2005):
/// `CRC_TABLES[0]` is the classic bytewise table of the reflected IEEE
/// polynomial `0xEDB88320`, and `CRC_TABLES[s][b]` is the register after
/// byte `b` is followed by `s` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut s = 1;
        while s < 8 {
            let prev = tables[s - 1][i];
            tables[s][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            s += 1;
        }
        i += 1;
    }
    tables
}

/// Folds `bytes` into a running CRC-32 register (start from `!0`, finish
/// with `!`), so a record can be checksummed piece by piece as it streams.
/// Eight bytes take one step of eight table lookups (slicing-by-8); the
/// tail of fewer than eight goes byte by byte. Same IEEE polynomial as the
/// bytewise loop, so every format-3 byte on disk is unchanged.
fn crc32_update(mut c: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let lo = c ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC-32 (IEEE 802.3), the checksum guarding every record.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(!0, bytes)
}

/// The length prefix of a `body_len`-byte record body. The reader refuses a
/// body over the cap, so writing one would lose it on recovery.
fn record_len(body_len: usize) -> io::Result<u32> {
    u32::try_from(body_len)
        .ok()
        .filter(|&len| len <= MAX_RECORD_BYTES)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "record exceeds the cap"))
}

/// Streams one framed record, `[body_len u32][type u8][body][crc32]` with
/// the CRC covering type + body, into `out` as its body arrives in pieces:
/// the snapshot writer never holds an encoded generation in memory.
struct RecordWriter<'a, W: Write> {
    out: &'a mut W,
    crc: u32,
    left: usize,
}

impl<'a, W: Write> RecordWriter<'a, W> {
    fn begin(out: &'a mut W, kind: u8, body_len: usize) -> io::Result<Self> {
        let len = record_len(body_len)?;
        out.write_all(&len.to_le_bytes())?;
        out.write_all(&[kind])?;
        Ok(RecordWriter { out, crc: crc32_update(!0, &[kind]), left: body_len })
    }

    fn put(&mut self, bytes: &[u8]) -> io::Result<()> {
        debug_assert!(bytes.len() <= self.left, "record body overruns its length prefix");
        self.left -= bytes.len();
        self.crc = crc32_update(self.crc, bytes);
        self.out.write_all(bytes)
    }

    fn finish(self) -> io::Result<()> {
        debug_assert_eq!(self.left, 0, "record body falls short of its length prefix");
        self.out.write_all(&(!self.crc).to_le_bytes())
    }
}

/// Writes one framed record whose body is already in one piece.
fn put_record(out: &mut impl Write, kind: u8, body: &[u8]) -> io::Result<()> {
    let mut record = RecordWriter::begin(out, kind, body.len())?;
    record.put(body)?;
    record.finish()
}

/// Encodes one framed record straight onto the end of `out`, with the same
/// framing as [`RecordWriter`]: `body` appends exactly `body_len` bytes in
/// place, and the CRC then covers type + body in one pass. The cap is
/// checked before the first byte is appended, so a refused record leaves
/// `out` untouched.
fn encode_record(
    out: &mut Vec<u8>,
    kind: u8,
    body_len: usize,
    body: impl FnOnce(&mut Vec<u8>),
) -> io::Result<()> {
    let len = record_len(body_len)?;
    out.reserve(4 + 1 + body_len + 4);
    out.extend_from_slice(&len.to_le_bytes());
    let start = out.len();
    out.push(kind);
    body(out);
    debug_assert_eq!(out.len() - start - 1, body_len, "record body disagrees with its length");
    let crc = !crc32_update(!0, &out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// What the next [`RecordReader::next`] call found.
#[derive(Debug, PartialEq, Eq)]
enum RecordRead {
    /// A structurally valid record of this type; its body is
    /// [`RecordReader::body`].
    Record(u8),
    /// The input ends cleanly, on a record boundary.
    End,
    /// The input ends inside a record — a torn tail (a clean cut for WAL
    /// replay; fatal for snapshots).
    Torn,
    /// The record is complete but fails validation (CRC mismatch, hostile
    /// length).
    Corrupt(&'static str),
}

/// Reads `buf.len()` bytes unless the input ends first; returns how many it
/// read.
fn read_full(input: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match input.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

/// Reads the records [`RecordWriter`] frames, one at a time, into one
/// reused buffer. Never panics on any input; only a failing read of the
/// underlying file is an error.
struct RecordReader<R: Read> {
    input: R,
    /// Type byte then body of the last record read: the CRC's span.
    record: Vec<u8>,
}

impl<R: Read> RecordReader<R> {
    fn new(input: R) -> Self {
        RecordReader { input, record: Vec::new() }
    }

    fn next(&mut self) -> io::Result<RecordRead> {
        let mut len = [0u8; 4];
        match read_full(&mut self.input, &mut len)? {
            0 => return Ok(RecordRead::End),
            4 => {}
            _ => return Ok(RecordRead::Torn),
        }
        let body_len = u32::from_le_bytes(len);
        if body_len > MAX_RECORD_BYTES {
            return Ok(RecordRead::Corrupt("record length exceeds the record cap"));
        }
        // `take` grows the buffer only as far as the input really reaches,
        // so a corrupt length under the cap costs no more than the file.
        let span = 1 + u64::from(body_len);
        self.record.clear();
        (&mut self.input).take(span).read_to_end(&mut self.record)?;
        let mut crc = [0u8; 4];
        if (self.record.len() as u64) < span || read_full(&mut self.input, &mut crc)? < 4 {
            return Ok(RecordRead::Torn);
        }
        if crc32(&self.record) != u32::from_le_bytes(crc) {
            return Ok(RecordRead::Corrupt("record CRC mismatch"));
        }
        Ok(RecordRead::Record(self.record[0]))
    }

    /// Body of the record the last [`RecordReader::next`] returned.
    fn body(&self) -> &[u8] {
        &self.record[1..]
    }

    /// Whether the input ends here.
    fn at_end(&mut self) -> io::Result<bool> {
        Ok(read_full(&mut self.input, &mut [0u8; 1])? == 0)
    }
}

/// Bounds-checked little-endian cursor over a record body; every accessor
/// errors (`None`) instead of panicking.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn bytes(&mut self, len: usize) -> Option<&'a [u8]> {
        if self.buf.len() - self.pos < len {
            return None;
        }
        let slice = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.bytes(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.bytes(8)?.try_into().ok()?))
    }

    fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

// ---------------------------------------------------------------------------
// WAL writer with group commit.
// ---------------------------------------------------------------------------

struct WalState {
    file: File,
    seq: u64,
    /// Encoded records not yet handed to `write(2)`.
    buf: Vec<u8>,
    /// Log sequence number the next appended record gets.
    next_lsn: u64,
    /// LSN of the first record appended to the current segment, so
    /// `next_lsn - segment_lsn` is that record's position in the segment.
    segment_lsn: u64,
    /// Every record below this has reached `write(2)`.
    written_lsn: u64,
    /// … and `fsync`.
    durable_lsn: u64,
    /// A flush leader is currently writing outside the lock.
    flushing: bool,
    /// First unrecoverable write error; appends are disabled once set.
    broken: Option<String>,
}

/// The group-commit write-ahead log writer.
struct WalWriter {
    state: Mutex<WalState>,
    flushed: Condvar,
    sync: SyncPolicy,
    dir: PathBuf,
    /// Shared telemetry: fsync latency, batch sizes, the broken-flag gauge.
    metrics: Arc<StoreMetrics>,
}

impl WalWriter {
    /// Creates segment `wal-<seq>.evbw` (truncating any torn leftover of
    /// the same seq) and returns a writer positioned after its header.
    fn create(
        dir: &Path,
        seq: u64,
        sync: SyncPolicy,
        metrics: Arc<StoreMetrics>,
    ) -> Result<WalWriter, PersistError> {
        let mut file =
            OpenOptions::new().write(true).create(true).truncate(true).open(wal_path(dir, seq))?;
        file.write_all(&wal_header(seq))?;
        if sync == SyncPolicy::GroupCommit {
            file.sync_data()?;
        }
        Ok(WalWriter {
            state: Mutex::new(WalState {
                file,
                seq,
                buf: Vec::new(),
                next_lsn: 1,
                segment_lsn: 1,
                written_lsn: 0,
                durable_lsn: 0,
                flushing: false,
                broken: None,
            }),
            flushed: Condvar::new(),
            sync,
            dir: dir.to_path_buf(),
            metrics,
        })
    }

    /// Records the first unrecoverable write error: appends become no-ops,
    /// the gauges flip, the degraded-mode entry event lands in the flight
    /// recorder, and the operator hears about it immediately. The store is
    /// now in degraded read-only mode — the serve layer refuses writes —
    /// until a successful snapshot repairs the log ([`WalWriter::repair`]).
    fn mark_broken(&self, state: &mut WalState, error: &io::Error) {
        if state.broken.is_some() {
            return;
        }
        log_warn!("write-ahead log broken ({error}); degraded read-only mode entered");
        self.metrics.wal_broken.set(1.0);
        self.metrics.degraded.set(1.0);
        self.metrics.record_event(TraceEvent::DegradedEntered { wal_seq: state.seq });
        state.broken = Some(error.to_string());
    }

    /// Appends an encoded record to the in-memory buffer and returns its
    /// LSN, or `None` if the log is broken. Called *under the shard lock*
    /// so log order matches apply order; it never touches the filesystem.
    fn append(&self, record: impl FnOnce(&mut Vec<u8>) -> io::Result<()>) -> Option<u64> {
        let mut s = self.state.lock().expect("wal lock poisoned");
        if s.broken.is_some() {
            return None;
        }
        if let Err(e) = fault::check_io(FaultPoint::WalAppend) {
            self.mark_broken(&mut s, &e);
            return None;
        }
        if let Err(e) = record(&mut s.buf) {
            self.mark_broken(&mut s, &e);
            return None;
        }
        let lsn = s.next_lsn;
        s.next_lsn += 1;
        Some(lsn)
    }

    /// Waits until `lsn` is durable under the configured policy, electing a
    /// flush leader as needed (the group-commit core). Called *outside* the
    /// shard lock. Errors mark the log broken; later appends no-op.
    fn commit(&self, lsn: u64) {
        let mut s = self.state.lock().expect("wal lock poisoned");
        loop {
            if s.broken.is_some() {
                return;
            }
            let reached = match self.sync {
                SyncPolicy::OsOnly => s.written_lsn,
                SyncPolicy::GroupCommit => s.durable_lsn,
            };
            if reached >= lsn {
                return;
            }
            if s.flushing {
                s = self.flushed.wait(s).expect("wal lock poisoned");
                continue;
            }
            // Become the leader: take the whole buffer (covering every
            // append so far, ours and any group-commit followers') and
            // write + fsync it outside the lock.
            s.flushing = true;
            let mut buf = std::mem::take(&mut s.buf);
            let upto = s.next_lsn - 1;
            let batch = upto.saturating_sub(s.written_lsn);
            let file = s.file.try_clone();
            drop(s);
            let result = file.and_then(|mut file| {
                fault::check_io(FaultPoint::WalFsync)?;
                file.write_all(&buf)?;
                if self.sync == SyncPolicy::GroupCommit {
                    let fsync_started = Instant::now();
                    file.sync_data()?;
                    let fsync_ns = fsync_started.elapsed().as_nanos() as u64;
                    self.metrics.wal_fsync_ns.record(fsync_ns);
                    if fsync_ns >= WAL_FSYNC_STALL_NS {
                        self.metrics
                            .record_event(TraceEvent::WalFsyncStall { latency_ns: fsync_ns });
                        log_info!("wal fsync stalled for {}ms", fsync_ns / 1_000_000);
                    }
                }
                Ok(())
            });
            s = self.state.lock().expect("wal lock poisoned");
            s.flushing = false;
            // Hand the drained buffer back, so appends reuse its capacity
            // instead of regrowing a fresh `Vec` after every flush. If a
            // follower appended meanwhile, the shared buffer holds its
            // records and stays.
            if s.buf.is_empty() {
                buf.clear();
                s.buf = buf;
            }
            match result {
                Ok(()) => {
                    if batch > 0 {
                        self.metrics.group_commit_batch.record(batch);
                    }
                    s.written_lsn = s.written_lsn.max(upto);
                    if self.sync == SyncPolicy::GroupCommit {
                        s.durable_lsn = s.durable_lsn.max(upto);
                    }
                }
                Err(e) => self.mark_broken(&mut s, &e),
            }
            self.flushed.notify_all();
        }
    }

    /// Flushes everything buffered, fsyncs the current segment, then
    /// switches appends to a fresh segment `seq + 1`. Returns the new
    /// segment's seq (the first segment a snapshot taken *after* this call
    /// must replay).
    fn rotate(&self) -> Result<u64, PersistError> {
        let mut s = self.state.lock().expect("wal lock poisoned");
        while s.flushing {
            s = self.flushed.wait(s).expect("wal lock poisoned");
        }
        if let Some(e) = &s.broken {
            return Err(PersistError::WalBroken(e.clone()));
        }
        let buf = std::mem::take(&mut s.buf);
        let result = (|| {
            fault::check_io(FaultPoint::WalFsync)?;
            s.file.write_all(&buf)?;
            s.file.sync_data()?;
            self.switch_segment(&mut s)
        })();
        if let Err(e) = &result {
            self.mark_broken(&mut s, e);
        }
        self.flushed.notify_all();
        result.map_err(PersistError::Io)
    }

    /// Opens segment `seq + 1` (truncating any torn leftover), writes and
    /// fsyncs its header, then switches appends to it: every LSN handed
    /// out so far counts as written and durable. On error the state is
    /// left as it was. Returns the new segment's seq.
    fn switch_segment(&self, s: &mut WalState) -> io::Result<u64> {
        let seq = s.seq + 1;
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(wal_path(&self.dir, seq))?;
        file.write_all(&wal_header(seq))?;
        file.sync_data()?;
        s.file = file;
        s.seq = seq;
        s.segment_lsn = s.next_lsn;
        s.written_lsn = s.next_lsn - 1;
        s.durable_lsn = s.next_lsn - 1;
        Ok(seq)
    }

    fn broken(&self) -> Option<String> {
        self.state.lock().expect("wal lock poisoned").broken.clone()
    }

    /// How many records the current segment has been handed so far: the
    /// position the next record will take in it.
    fn segment_records(&self) -> u64 {
        let s = self.state.lock().expect("wal lock poisoned");
        s.next_lsn - s.segment_lsn
    }

    /// Repairs a broken log: discards the unwritable buffer (every record
    /// in it was applied in memory *before* being appended, so the snapshot
    /// about to be taken captures its effects) and switches appends to a
    /// fresh segment `seq + 1`. The broken flag is deliberately **left
    /// set** — the caller clears it via [`WalWriter::heal`] only once the
    /// covering snapshot has published, so a crash between repair and
    /// publish keeps the store refusing writes instead of silently logging
    /// into a segment no snapshot names.
    fn repair(&self) -> Result<u64, PersistError> {
        let mut s = self.state.lock().expect("wal lock poisoned");
        while s.flushing {
            s = self.flushed.wait(s).expect("wal lock poisoned");
        }
        fault::check_io(FaultPoint::WalFsync)?;
        let seq = self.switch_segment(&mut s)?;
        s.buf.clear();
        self.flushed.notify_all();
        Ok(seq)
    }

    /// Clears the broken flag (and its gauges) after a successful repair
    /// snapshot. Returns whether the log was actually broken.
    fn heal(&self) -> bool {
        let mut s = self.state.lock().expect("wal lock poisoned");
        if s.broken.take().is_some() {
            self.metrics.wal_broken.set(0.0);
            self.metrics.degraded.set(0.0);
            self.flushed.notify_all();
            true
        } else {
            false
        }
    }
}

fn wal_header(seq: u64) -> Vec<u8> {
    let mut header = Vec::with_capacity(21);
    header.extend_from_slice(WAL_MAGIC);
    header.push(PERSIST_FORMAT_VERSION);
    header.extend_from_slice(&seq.to_le_bytes());
    let crc = crc32(&header);
    header.extend_from_slice(&crc.to_le_bytes());
    header
}

const WAL_HEADER_BYTES: usize = 4 + 1 + 8 + 4;

pub(crate) fn wal_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq}.evbw"))
}

pub(crate) fn snapshot_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("snapshot-{seq}.evbs"))
}

// ---------------------------------------------------------------------------
// The store-facing persistence handle.
// ---------------------------------------------------------------------------

/// A store's attached persistence: the WAL writer plus snapshot sequencing.
/// Held inside [`BloomStore`]; all methods take `&self`.
pub struct StorePersistence {
    dir: PathBuf,
    wal: Option<WalWriter>,
    /// Sequence the *next* snapshot gets (the newest on disk is one less).
    next_snapshot_seq: AtomicU64,
    /// Serialises snapshot writers (concurrent SNAPSHOT commands).
    snapshot_lock: Mutex<()>,
    /// Shared telemetry: commit-wait and snapshot histograms.
    metrics: Arc<StoreMetrics>,
}

impl core::fmt::Debug for StorePersistence {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("StorePersistence")
            .field("dir", &self.dir)
            .field("wal", &self.wal.is_some())
            .finish()
    }
}

impl StorePersistence {
    pub(crate) fn create(
        config: &PersistConfig,
        wal_seq: u64,
        next_snapshot_seq: u64,
        metrics: Arc<StoreMetrics>,
    ) -> Result<StorePersistence, PersistError> {
        fs::create_dir_all(&config.dir)?;
        let wal = if config.wal {
            Some(WalWriter::create(&config.dir, wal_seq, config.sync, Arc::clone(&metrics))?)
        } else {
            None
        };
        Ok(StorePersistence {
            dir: config.dir.clone(),
            wal,
            next_snapshot_seq: AtomicU64::new(next_snapshot_seq),
            snapshot_lock: Mutex::new(()),
            metrics,
        })
    }

    /// The directory snapshots and WAL segments live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The first WAL write error, if the log has broken. Appends are
    /// disabled once set (the store is in degraded read-only mode); the
    /// next successful snapshot repairs the log and clears it.
    pub fn wal_error(&self) -> Option<String> {
        self.wal.as_ref().and_then(WalWriter::broken)
    }

    /// Logs one applied per-shard bucket of inserts or removes as one item
    /// record. Called under that shard's read lock.
    pub(crate) fn log_items(
        &self,
        op: ItemOp,
        shard: usize,
        generation: u64,
        items: &[&[u8]],
    ) -> Option<u64> {
        let wal = self.wal.as_ref()?;
        let payload: usize = items.iter().map(|i| 4 + i.len()).sum();
        wal.append(|out| {
            encode_record(out, op.record_kind(), 4 + 8 + 4 + payload, |body| {
                body.extend_from_slice(&(shard as u32).to_le_bytes());
                body.extend_from_slice(&generation.to_le_bytes());
                body.extend_from_slice(&(items.len() as u32).to_le_bytes());
                for item in items {
                    body.extend_from_slice(&(item.len() as u32).to_le_bytes());
                    body.extend_from_slice(item);
                }
            })
        })
    }

    /// Logs a rotation phase. Called under the shard write lock.
    pub(crate) fn log_rotation(&self, shard: usize, generation: u64, begin: bool) -> Option<u64> {
        let wal = self.wal.as_ref()?;
        let kind = if begin { REC_WAL_ROTATE_BEGIN } else { REC_WAL_ROTATE_COMPLETE };
        wal.append(|out| {
            encode_record(out, kind, 4 + 8, |body| {
                body.extend_from_slice(&(shard as u32).to_le_bytes());
                body.extend_from_slice(&generation.to_le_bytes());
            })
        })
    }

    /// Waits until `lsn` is durable. Called outside the shard lock. The
    /// recorded latency is the full append-to-durable wait the inserting
    /// caller pays (including any group-commit queueing behind a leader).
    pub(crate) fn commit(&self, lsn: u64) {
        if let Some(wal) = &self.wal {
            let started = Instant::now();
            wal.commit(lsn);
            self.metrics.wal_append_ns.record(started.elapsed().as_nanos() as u64);
        }
    }

    /// Writes a snapshot of `store` and prunes superseded files. See the
    /// module docs for the full protocol.
    pub(crate) fn snapshot<B: FilterBackend>(
        &self,
        store: &BloomStore<B>,
    ) -> Result<SnapshotInfo, PersistError> {
        let started = Instant::now();
        let _serialised = self.snapshot_lock.lock().expect("snapshot lock poisoned");
        // 1. Rotate the WAL first: every record in the segments this closes
        //    was appended after its write was applied, so the copy below is
        //    guaranteed to contain it. A *broken* WAL is repaired
        //    instead — appends switch to a fresh segment and this snapshot
        //    captures the applied-but-unlogged state; degraded mode (the
        //    broken flag) only clears once the snapshot has published.
        let was_broken = self.wal_error().is_some();
        let wal_seq = match &self.wal {
            Some(wal) if was_broken => wal.repair()?,
            Some(wal) => wal.rotate()?,
            None => 0,
        };
        let seq = self.next_snapshot_seq.fetch_add(1, Ordering::SeqCst);

        // 2. Copy each shard under its write lock, which covers the copy
        //    only, and stream it into a tmp file once the lock is released
        //    (see `write_snapshot`).
        let final_path = snapshot_path(&self.dir, seq);
        let tmp_path = self.dir.join(format!("snapshot-{seq}.tmp"));
        fault::check_io(FaultPoint::SnapshotWrite)?;
        let bytes = match self.write_snapshot(store, seq, wal_seq, &tmp_path) {
            Ok(bytes) => bytes,
            Err(e) => {
                drop(fs::remove_file(&tmp_path));
                return Err(e);
            }
        };

        // 3. Publish atomically: rename the fsynced tmp file, then prune.
        fs::rename(&tmp_path, &final_path)?;
        if let Ok(dir) = File::open(&self.dir) {
            drop(dir.sync_all()); // directory durability is best-effort
        }
        self.prune(seq, wal_seq);
        self.metrics.snapshot_ns.record(started.elapsed().as_nanos() as u64);
        self.metrics.snapshot_bytes.add(bytes);
        self.metrics.record_event(TraceEvent::SnapshotTaken { seq, bytes });
        if was_broken {
            if let Some(wal) = &self.wal {
                wal.heal();
            }
            self.metrics.record_event(TraceEvent::DegradedExited { snapshot_seq: seq });
            log_info!("snapshot {seq} repaired the write-ahead log; degraded mode exited");
        }
        Ok(SnapshotInfo { seq, wal_seq, shards: store.shard_count() as u32, bytes })
    }

    /// Writes snapshot `seq` to `path` shard by shard, fsyncs it and
    /// returns the bytes written. Each shard's generation words are copied
    /// under its write lock, which pins the generation pair and holds off
    /// writers for the copy alone; the lock is released before the copy is
    /// encoded, checksummed and streamed out, so at most one shard's words
    /// are held beyond the store itself. The shard's fence is the new
    /// segment's record count at the copy point: its records there below
    /// the fence are in the copy, the rest are not, so replay skips
    /// exactly the former.
    fn write_snapshot<B: FilterBackend>(
        &self,
        store: &BloomStore<B>,
        seq: u64,
        wal_seq: u64,
        path: &Path,
    ) -> Result<u64, PersistError> {
        let mut out = BufWriter::with_capacity(SNAPSHOT_WRITE_BUFFER, File::create(path)?);
        out.write_all(SNAPSHOT_MAGIC)?;
        out.write_all(&[PERSIST_FORMAT_VERSION])?;
        let config = store.config();
        let params = store.shard_params();
        let mut header = Vec::with_capacity(46);
        header.extend_from_slice(&(config.shards as u32).to_le_bytes());
        header.extend_from_slice(&config.capacity.to_le_bytes());
        header.extend_from_slice(&config.target_fpp.to_bits().to_le_bytes());
        header.extend_from_slice(&params.m.to_le_bytes());
        header.extend_from_slice(&params.k.to_le_bytes());
        header.extend_from_slice(&seq.to_le_bytes());
        header.extend_from_slice(&wal_seq.to_le_bytes());
        header.push(B::KIND.code());
        header.push(B::persist_aux(store.options()));
        put_record(&mut out, REC_SNAP_HEADER, &header)?;

        let mut generations = 0u32;
        let mut fences = Vec::with_capacity(store.shard_count() * 8);
        for index in 0..store.shard_count() {
            let (fence, active, draining) =
                store.shard(index).with_generations_exclusive(|active, draining| {
                    let active = GenerationCopy::take(active)?;
                    let draining = draining.map(GenerationCopy::take).transpose()?;
                    let fence = self.wal.as_ref().map_or(0, WalWriter::segment_records);
                    Ok::<_, PersistError>((fence, active, draining))
                })?;
            active.write(&mut out, index, ROLE_ACTIVE)?;
            generations += 1;
            if let Some(draining) = draining {
                draining.write(&mut out, index, ROLE_DRAINING)?;
                generations += 1;
            }
            fences.extend_from_slice(&fence.to_le_bytes());
        }
        put_record(&mut out, REC_SNAP_FENCE, &fences)?;
        put_record(&mut out, REC_SNAP_END, &generations.to_le_bytes())?;
        let mut file = out.into_inner().map_err(io::IntoInnerError::into_error)?;
        file.sync_all()?;
        Ok(file.stream_position()?)
    }

    /// Removes snapshots older than `keep_snapshot` and WAL segments below
    /// `keep_wal`. Best-effort: a prune failure only costs disk.
    fn prune(&self, keep_snapshot: u64, keep_wal: u64) {
        let Ok(entries) = fs::read_dir(&self.dir) else { return };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let stale = match parse_file_seq(&name) {
                Some(PersistFile::Snapshot(seq)) => seq < keep_snapshot,
                Some(PersistFile::Wal(seq)) => seq < keep_wal,
                None => name.ends_with(".tmp"),
            };
            if stale {
                drop(fs::remove_file(entry.path()));
            }
        }
    }
}

/// One generation's state, taken under the shard write lock so the words
/// and the insert count are one consistent state, and encoded after it is
/// released.
struct GenerationCopy {
    id: u64,
    inserted: u64,
    m: u64,
    words: Vec<u64>,
}

impl GenerationCopy {
    fn take<B: FilterBackend>(generation: &Generation<B>) -> Result<Self, PersistError> {
        let filter = &generation.filter;
        // The ones count is not persisted: recovery recounts it from the words.
        let Some(words) = filter.snapshot_words() else {
            // `enable_persistence` gates on `persist_words_len`, so only a
            // backend lying about its own capability can reach this.
            return Err(PersistError::UnsupportedBackend(B::KIND));
        };
        Ok(GenerationCopy { id: generation.id, inserted: filter.inserted(), m: filter.m(), words })
    }

    /// Streams the generation's snapshot record, a bounded chunk of words
    /// at a time.
    fn write(&self, out: &mut impl Write, shard: usize, role: u8) -> io::Result<()> {
        let mut prefix = Vec::with_capacity(4 + 1 + 8 + 8 + 8 + 4);
        prefix.extend_from_slice(&(shard as u32).to_le_bytes());
        prefix.push(role);
        prefix.extend_from_slice(&self.id.to_le_bytes());
        prefix.extend_from_slice(&self.inserted.to_le_bytes());
        prefix.extend_from_slice(&self.m.to_le_bytes());
        prefix.extend_from_slice(&(self.words.len() as u32).to_le_bytes());
        let body_len = prefix.len() + self.words.len() * 8;
        let mut record = RecordWriter::begin(out, REC_SNAP_GENERATION, body_len)?;
        record.put(&prefix)?;
        let mut chunk = [0u8; 8 * WORDS_PER_CHUNK];
        for words in self.words.chunks(WORDS_PER_CHUNK) {
            for (bytes, word) in chunk.chunks_exact_mut(8).zip(words) {
                bytes.copy_from_slice(&word.to_le_bytes());
            }
            record.put(&chunk[..words.len() * 8])?;
        }
        record.finish()
    }
}

#[derive(Debug, PartialEq, Eq)]
enum PersistFile {
    Snapshot(u64),
    Wal(u64),
}

fn parse_file_seq(name: &str) -> Option<PersistFile> {
    if let Some(seq) = name.strip_prefix("snapshot-").and_then(|r| r.strip_suffix(".evbs")) {
        return seq.parse().ok().map(PersistFile::Snapshot);
    }
    if let Some(seq) = name.strip_prefix("wal-").and_then(|r| r.strip_suffix(".evbw")) {
        return seq.parse().ok().map(PersistFile::Wal);
    }
    None
}

// ---------------------------------------------------------------------------
// Snapshot decoding.
// ---------------------------------------------------------------------------

/// A snapshot's header record: the configuration the rest of the file is
/// checked against, and that recovery rebuilds the store from.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SnapshotHeader {
    pub(crate) shards: u32,
    pub(crate) capacity: u64,
    pub(crate) target_fpp: f64,
    pub(crate) m: u64,
    pub(crate) k: u32,
    pub(crate) seq: u64,
    pub(crate) wal_seq: u64,
    /// Backend family code ([`BackendKind::code`]) the snapshot was written
    /// by.
    pub(crate) backend: u8,
    /// Backend-specific options byte ([`FilterBackend::persist_aux`]).
    pub(crate) backend_aux: u8,
}

impl SnapshotHeader {
    /// The [`BackendKind`] the snapshot claims, if its code is known.
    pub(crate) fn backend_kind(&self) -> Option<BackendKind> {
        BackendKind::from_code(self.backend)
    }
}

/// One decoded generation record.
pub(crate) struct SnapshotGeneration {
    pub(crate) shard: u32,
    /// [`ROLE_ACTIVE`] or [`ROLE_DRAINING`].
    pub(crate) role: u8,
    pub(crate) id: u64,
    pub(crate) inserted: u64,
    pub(crate) words: Vec<u64>,
}

/// Streams a snapshot file record by record. [`SnapshotReader::open`]
/// validates the magic, the version and the header record before anything
/// is built from them; each [`SnapshotReader::next_generation`] then
/// decodes one generation's words, so recovery holds one record beyond the
/// store it rebuilds. Never panics on arbitrary bytes. A snapshot with a
/// torn tail is *invalid* (unlike a WAL — the tmp + rename publish
/// protocol means a real snapshot is never torn).
pub(crate) struct SnapshotReader {
    path: PathBuf,
    records: RecordReader<BufReader<File>>,
    header: SnapshotHeader,
    /// Generation records decoded so far; the end record must agree.
    generations: u32,
    /// Per shard, how many leading records of WAL segment `wal_seq` the
    /// copy already holds (replay skips that shard's records among them).
    fences: Option<Vec<u64>>,
}

fn corrupt(file: &Path, what: &'static str) -> PersistError {
    PersistError::Corrupt { file: file.display().to_string(), what }
}

impl SnapshotReader {
    /// Opens a snapshot and validates everything up to its header record.
    pub(crate) fn open(path: &Path) -> Result<SnapshotReader, PersistError> {
        let mut input = BufReader::with_capacity(READ_BUFFER, File::open(path)?);
        let mut magic = [0u8; 5];
        if read_full(&mut input, &mut magic)? < magic.len() || &magic[..4] != SNAPSHOT_MAGIC {
            return Err(corrupt(path, "missing snapshot magic"));
        }
        if magic[4] != PERSIST_FORMAT_VERSION {
            return Err(PersistError::BadVersion {
                file: path.display().to_string(),
                version: magic[4],
            });
        }
        let mut records = RecordReader::new(input);
        match records.next()? {
            RecordRead::Record(REC_SNAP_HEADER) => {}
            RecordRead::Record(_) => return Err(corrupt(path, "first record is not the header")),
            RecordRead::End | RecordRead::Torn => return Err(corrupt(path, "truncated header")),
            RecordRead::Corrupt(what) => return Err(corrupt(path, what)),
        }
        let mut c = Cursor::new(records.body());
        let (
            Some(shards),
            Some(capacity),
            Some(target_fpp),
            Some(m),
            Some(k),
            Some(seq),
            Some(wal_seq),
            Some(backend),
            Some(backend_aux),
        ) = (c.u32(), c.u64(), c.f64(), c.u64(), c.u32(), c.u64(), c.u64(), c.u8(), c.u8())
        else {
            return Err(corrupt(path, "short header record"));
        };
        if !c.done() {
            return Err(corrupt(path, "trailing bytes in header record"));
        }
        let header = SnapshotHeader {
            shards,
            capacity,
            target_fpp,
            m,
            k,
            seq,
            wal_seq,
            backend,
            backend_aux,
        };
        Ok(SnapshotReader {
            path: path.to_path_buf(),
            records,
            header,
            generations: 0,
            fences: None,
        })
    }

    pub(crate) fn header(&self) -> SnapshotHeader {
        self.header
    }

    /// The next generation record, or `None` once the end record has
    /// matched the generation count and nothing trails it.
    pub(crate) fn next_generation(&mut self) -> Result<Option<SnapshotGeneration>, PersistError> {
        let path = &self.path;
        loop {
            let kind = match self.records.next()? {
                RecordRead::Record(kind) => kind,
                RecordRead::End | RecordRead::Torn => {
                    return Err(corrupt(path, "truncated snapshot"))
                }
                RecordRead::Corrupt(what) => return Err(corrupt(path, what)),
            };
            let body = self.records.body();
            let mut c = Cursor::new(body);
            match kind {
                REC_SNAP_GENERATION => {
                    let (
                        Some(shard),
                        Some(role),
                        Some(id),
                        Some(inserted),
                        Some(gen_m),
                        Some(count),
                    ) = (c.u32(), c.u8(), c.u64(), c.u64(), c.u64(), c.u32())
                    else {
                        return Err(corrupt(path, "short generation record"));
                    };
                    if shard >= self.header.shards || role > ROLE_DRAINING {
                        return Err(corrupt(path, "generation record out of range"));
                    }
                    // The word count is NOT validated against `m` here: the
                    // words-per-bit ratio is backend-specific (a counting
                    // filter packs sixteen cells per word), so the
                    // backend's `from_words` is the authority on it.
                    if gen_m != self.header.m {
                        return Err(corrupt(path, "generation geometry mismatch"));
                    }
                    let Some(bytes) = (count as usize).checked_mul(8).and_then(|len| c.bytes(len))
                    else {
                        return Err(corrupt(path, "short word array"));
                    };
                    if !c.done() {
                        return Err(corrupt(path, "trailing bytes in generation record"));
                    }
                    let words = bytes
                        .chunks_exact(8)
                        .map(|w| u64::from_le_bytes(w.try_into().expect("8 bytes")))
                        .collect();
                    self.generations += 1;
                    return Ok(Some(SnapshotGeneration { shard, role, id, inserted, words }));
                }
                REC_SNAP_FENCE => {
                    if self.fences.is_some() {
                        return Err(corrupt(path, "duplicate fence record"));
                    }
                    if body.len() != self.header.shards as usize * 8 {
                        return Err(corrupt(path, "fence record does not match the shard count"));
                    }
                    self.fences = Some((0..self.header.shards).map_while(|_| c.u64()).collect());
                }
                REC_SNAP_END => {
                    if c.u32() != Some(self.generations) || !c.done() {
                        return Err(corrupt(path, "end-record generation count mismatch"));
                    }
                    if !self.records.at_end()? {
                        return Err(corrupt(path, "trailing bytes after end record"));
                    }
                    return Ok(None);
                }
                _ => return Err(corrupt(path, "unknown record type")),
            }
        }
    }

    /// The per-shard fences, once [`SnapshotReader::next_generation`] has
    /// returned `None`. Empty for a snapshot written before fences were
    /// recorded: replay then applies its whole WAL tail.
    pub(crate) fn into_fences(self) -> Vec<u64> {
        self.fences.unwrap_or_default()
    }
}

// ---------------------------------------------------------------------------
// WAL decoding.
// ---------------------------------------------------------------------------

/// The write an item record logs. Inserts and removes share one record
/// body and differ only in the record kind byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ItemOp {
    Insert,
    Remove,
}

impl ItemOp {
    fn record_kind(self) -> u8 {
        match self {
            ItemOp::Insert => REC_WAL_INSERT,
            ItemOp::Remove => REC_WAL_REMOVE,
        }
    }
}

/// One decoded WAL record, borrowing its items from the reader's buffer.
pub(crate) enum WalRecord<'a> {
    Items { op: ItemOp, shard: u32, generation: u64, items: Vec<&'a [u8]> },
    RotateBegin { shard: u32, generation: u64 },
    RotateComplete { shard: u32, generation: u64 },
}

impl<'a> WalRecord<'a> {
    /// The shard the record applies to.
    pub(crate) fn shard(&self) -> u32 {
        match *self {
            WalRecord::Items { shard, .. }
            | WalRecord::RotateBegin { shard, .. }
            | WalRecord::RotateComplete { shard, .. } => shard,
        }
    }

    /// Decodes a CRC-checked record body; `None` if it does not parse.
    fn decode(kind: u8, body: &'a [u8]) -> Option<Self> {
        let mut c = Cursor::new(body);
        let record = match kind {
            REC_WAL_INSERT | REC_WAL_REMOVE => {
                let (shard, generation, count) = (c.u32()?, c.u64()?, c.u32()?);
                // Each item costs at least its 4-byte length field.
                if count as usize > body.len() / 4 {
                    return None;
                }
                let items = (0..count)
                    .map(|_| c.u32().and_then(|len| c.bytes(len as usize)))
                    .collect::<Option<Vec<_>>>()?;
                let op = if kind == REC_WAL_INSERT { ItemOp::Insert } else { ItemOp::Remove };
                WalRecord::Items { op, shard, generation, items }
            }
            REC_WAL_ROTATE_BEGIN => {
                WalRecord::RotateBegin { shard: c.u32()?, generation: c.u64()? }
            }
            REC_WAL_ROTATE_COMPLETE => {
                WalRecord::RotateComplete { shard: c.u32()?, generation: c.u64()? }
            }
            _ => return None,
        };
        c.done().then_some(record)
    }
}

/// Streams one WAL segment record by record through one reused buffer,
/// tolerating a torn tail. The first record that is torn, fails its CRC or
/// does not parse ends the log there (the segment cannot be trusted past
/// it) and sets [`WalReader::torn`]. Never panics on arbitrary input.
pub(crate) struct WalReader<R: Read> {
    records: RecordReader<R>,
    torn: bool,
    ended: bool,
}

impl WalReader<BufReader<File>> {
    /// Opens segment `seq` at `path` and validates its header.
    pub(crate) fn open(path: &Path, seq: u64) -> Result<Self, PersistError> {
        let mut input = BufReader::with_capacity(READ_BUFFER, File::open(path)?);
        let mut header = [0u8; WAL_HEADER_BYTES];
        let read = read_full(&mut input, &mut header)?;
        check_wal_header(path, &header[..read], seq)?;
        Ok(WalReader::new(input))
    }
}

impl<R: Read> WalReader<R> {
    /// A reader over a segment body, its header already consumed.
    fn new(input: R) -> Self {
        WalReader { records: RecordReader::new(input), torn: false, ended: false }
    }

    /// The next record, or `None` at the end of the log.
    pub(crate) fn next(&mut self) -> Result<Option<WalRecord<'_>>, PersistError> {
        if self.ended {
            return Ok(None);
        }
        let read = self.records.next()?;
        let record = match read {
            RecordRead::Record(kind) => WalRecord::decode(kind, self.records.body()),
            RecordRead::End | RecordRead::Torn | RecordRead::Corrupt(_) => None,
        };
        if record.is_none() {
            self.ended = true;
            self.torn = read != RecordRead::End;
        }
        Ok(record)
    }

    /// Whether the log ended mid-record or at a record that failed to
    /// validate rather than cleanly.
    pub(crate) fn torn(&self) -> bool {
        self.torn
    }
}

/// Validates the header bytes of WAL segment `seq`.
fn check_wal_header(path: &Path, bytes: &[u8], seq: u64) -> Result<(), PersistError> {
    if bytes.len() < WAL_HEADER_BYTES || &bytes[..4] != WAL_MAGIC {
        return Err(corrupt(path, "missing WAL magic"));
    }
    if bytes[4] != PERSIST_FORMAT_VERSION {
        return Err(PersistError::BadVersion {
            file: path.display().to_string(),
            version: bytes[4],
        });
    }
    let header_seq = u64::from_le_bytes(bytes[5..13].try_into().expect("8 bytes"));
    let crc = u32::from_le_bytes(bytes[13..17].try_into().expect("4 bytes"));
    if crc32(&bytes[..13]) != crc {
        return Err(corrupt(path, "WAL header CRC mismatch"));
    }
    if header_seq != seq {
        return Err(corrupt(path, "WAL header seq does not match its file name"));
    }
    Ok(())
}

/// Scans a persistence directory for the newest snapshot and the sorted WAL
/// segment seqs.
pub(crate) fn scan_dir(dir: &Path) -> Result<(Option<u64>, Vec<u64>), PersistError> {
    let mut newest_snapshot = None;
    let mut wal_seqs = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        match parse_file_seq(&name.to_string_lossy()) {
            Some(PersistFile::Snapshot(seq)) => {
                newest_snapshot = Some(newest_snapshot.map_or(seq, |s: u64| s.max(seq)));
            }
            Some(PersistFile::Wal(seq)) => wal_seqs.push(seq),
            None => {}
        }
    }
    wal_seqs.sort_unstable();
    Ok((newest_snapshot, wal_seqs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_answer() {
        // The classic check value: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bytewise CRC-32 loop, one table lookup per byte: the reference
    /// the sliced [`crc32_update`] must agree with.
    fn crc32_bytewise(mut c: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c
    }

    /// Seeded LCG bytes.
    fn soup(len: usize, mut state: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn sliced_crc32_matches_the_bytewise_loop() {
        // Every length 0..=64 at every start offset 0..8 walks each table
        // and every head/tail split of a slicing step.
        let bytes = soup(64 + 8, 0xC3C3_0001);
        for start in 0..8 {
            for len in 0..=64 {
                let piece = &bytes[start..start + len];
                assert_eq!(
                    crc32_update(!0, piece),
                    crc32_bytewise(!0, piece),
                    "start {start}, len {len}"
                );
            }
        }
        let big = soup(1 << 20, 0xC3C3_0002);
        assert_eq!(crc32_update(!0, &big), crc32_bytewise(!0, &big), "1 MiB");
    }

    #[test]
    fn crc32_update_streams_across_any_split() {
        // The snapshot writer checksums a record piece by piece.
        let bytes = soup(100, 0xC3C3_0003);
        let whole = crc32_update(!0, &bytes);
        for cut in 0..=bytes.len() {
            let (head, tail) = bytes.split_at(cut);
            assert_eq!(crc32_update(crc32_update(!0, head), tail), whole, "cut at {cut}");
        }
    }

    #[test]
    fn in_place_records_match_the_streamed_framing() {
        let mut in_place = vec![0xAA];
        encode_record(&mut in_place, 0x42, 5, |out| out.extend_from_slice(b"hello"))
            .expect("under the cap");
        encode_record(&mut in_place, 0x43, 0, |_| {}).expect("under the cap");
        let mut streamed = vec![0xAA];
        put_record(&mut streamed, 0x42, b"hello").expect("a Vec sink never fails");
        put_record(&mut streamed, 0x43, b"").expect("a Vec sink never fails");
        assert_eq!(in_place, streamed);
    }

    #[test]
    fn an_over_cap_record_leaves_the_buffer_untouched() {
        let mut out = b"earlier records".to_vec();
        let over = MAX_RECORD_BYTES as usize + 1;
        let refused = encode_record(&mut out, REC_WAL_INSERT, over, |_| {
            unreachable!("the cap is checked before the body is encoded")
        });
        assert_eq!(refused.expect_err("over the cap").kind(), io::ErrorKind::InvalidInput);
        assert_eq!(out, b"earlier records");
    }

    /// Hands out at most `step` bytes per `read`, as a file or a buffer
    /// refill may.
    struct Trickle<'a> {
        bytes: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(self.step).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    #[test]
    fn record_framing_roundtrip() {
        let mut out = Vec::new();
        put_record(&mut out, 0x42, b"hello").expect("a Vec sink never fails");
        put_record(&mut out, 0x43, b"").expect("a Vec sink never fails");
        // Short reads split every length prefix, body and CRC somewhere.
        for step in [1, 2, 3, usize::MAX] {
            let mut reader = RecordReader::new(Trickle { bytes: &out, step });
            assert_eq!(reader.next().expect("read"), RecordRead::Record(0x42), "step {step}");
            assert_eq!(reader.body(), b"hello");
            assert_eq!(reader.next().expect("read"), RecordRead::Record(0x43), "step {step}");
            assert_eq!(reader.body(), b"");
            assert_eq!(reader.next().expect("read"), RecordRead::End, "step {step}");
        }
    }

    #[test]
    fn record_framing_detects_torn_and_corrupt() {
        let mut out = Vec::new();
        put_record(&mut out, 1, b"payload").expect("a Vec sink never fails");
        for cut in 1..out.len() {
            assert_eq!(
                RecordReader::new(&out[..cut]).next().expect("read"),
                RecordRead::Torn,
                "cut at {cut} must read as torn"
            );
        }
        let mut flipped = out.clone();
        flipped[6] ^= 0xFF; // corrupt the body
        assert!(matches!(RecordReader::new(&flipped[..]).next(), Ok(RecordRead::Corrupt(_))));
        // A hostile length prefix is rejected before allocation.
        let mut hostile = Vec::new();
        hostile.extend_from_slice(&u32::MAX.to_le_bytes());
        hostile.extend_from_slice(&[0; 16]);
        assert!(matches!(RecordReader::new(&hostile[..]).next(), Ok(RecordRead::Corrupt(_))));
    }

    #[test]
    fn streamed_generation_record_matches_one_piece_framing() {
        // The snapshot encoder streams a generation record in word chunks;
        // it must frame exactly what the one-piece writer frames.
        let copy = GenerationCopy {
            id: 3,
            inserted: 99,
            m: 64 * 1500,
            words: (0..1500u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect(),
        };
        let mut streamed = Vec::new();
        copy.write(&mut streamed, 5, ROLE_DRAINING).expect("a Vec sink never fails");
        let mut body = Vec::new();
        body.extend_from_slice(&5u32.to_le_bytes());
        body.push(ROLE_DRAINING);
        body.extend_from_slice(&3u64.to_le_bytes());
        body.extend_from_slice(&99u64.to_le_bytes());
        body.extend_from_slice(&(64u64 * 1500).to_le_bytes());
        body.extend_from_slice(&1500u32.to_le_bytes());
        for word in &copy.words {
            body.extend_from_slice(&word.to_le_bytes());
        }
        let mut whole = Vec::new();
        put_record(&mut whole, REC_SNAP_GENERATION, &body).expect("a Vec sink never fails");
        assert_eq!(streamed, whole);
    }

    #[test]
    fn wal_decode_never_panics_on_byte_soup() {
        // Seeded LCG byte soup, read through buffers both smaller and larger
        // than a record: decode must end the log, never panic.
        let mut state = 0x5EED_1234_u64;
        for len in [0usize, 1, 7, 64, 513, 4096] {
            let bytes: Vec<u8> = (0..len)
                .map(|_| {
                    state =
                        state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    (state >> 56) as u8
                })
                .collect();
            for capacity in [1, 16, READ_BUFFER] {
                let mut wal = WalReader::new(BufReader::with_capacity(capacity, &bytes[..]));
                while wal.next().expect("in-memory reads never fail").is_some() {}
                assert_eq!(wal.torn(), !bytes.is_empty(), "soup of {len} bytes");
            }
        }
    }

    #[test]
    fn parse_file_seq_recognises_both_kinds() {
        assert_eq!(parse_file_seq("snapshot-7.evbs"), Some(PersistFile::Snapshot(7)));
        assert_eq!(parse_file_seq("wal-12.evbw"), Some(PersistFile::Wal(12)));
        assert_eq!(parse_file_seq("snapshot-7.tmp"), None);
        assert_eq!(parse_file_seq("wal-x.evbw"), None);
    }
}
