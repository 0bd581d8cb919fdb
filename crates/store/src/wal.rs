//! Per-shard write-ahead log: the store's durability layer.
//!
//! Every shard appends its consensus-decided slots to one append-only
//! file (`shard-{s}.wal`), records first, fsync in **group commit**
//! batches ([`DurabilityConfig::group_commit`] decided records per
//! fsync), so the combining hot path keeps its throughput. Checkpoint
//! installs rotate the file: the new file starts with the checkpoint
//! record and keeps only the slot records the snapshot does not cover,
//! written tmp-file-then-rename so a crash mid-rotation leaves either
//! the old file or the new one, never a hybrid.
//!
//! # Where the I/O runs
//!
//! The log calls the two [`SlotSink`] methods under the shard's replica
//! write lock and its durable-cursor lock, so they only touch memory:
//! `slot_decided` encodes the frame onto the shard's buffer,
//! `checkpoint_installed` decides whether a rotation pays, drops the
//! covered prefix and stashes the encoded file image. Every
//! [`WalMedia`] call is made by one routine, under the shard's **I/O
//! lock** and no other: the crate-private `ShardWal::settle` runs it
//! after the combiner has let go of the replica, [`ShardWal::flush`]
//! runs it unconditionally. A commit copies the unwritten suffix out
//! under the buffer lock, releases it, then appends and syncs — so
//! other clients' ops on the same shard are decided, buffered and
//! **acknowledged while a batch syncs**. A sync starts once
//! `group_commit` records are pending; the acknowledged-but-unsynced
//! tail of a shard is at most 2 × `group_commit` records: the
//! `slot_decided` that reaches that
//! bound blocks on the I/O lock (still holding the replica, so the
//! shard's writers and readers wait behind it) until the commit in
//! flight is done. The holder of the I/O lock re-checks before it lets
//! go, so a quiescent store never sits on a full batch.
//!
//! Lock order is replica → durable cursor → buffer. The I/O lock is
//! only ever *waited for* with the buffer lock released, and its holder
//! takes nothing but the buffer lock, so there is no cycle. There is no
//! flusher thread: the deterministic simulator runs the whole store on
//! one seeded loop, and in a single-threaded run every media call lands
//! where it always did, between two decided slots. (One difference: a
//! batch that fills on the very slot that rotates is absorbed by the
//! rotation's `replace`, which makes it durable anyway, instead of
//! being synced first and rewritten a moment later.)
//!
//! # Record format
//!
//! Mirrors `wire.rs` discipline: length-prefixed, checksummed frames
//! with a **total** decoder — no input, torn, mutated, or malicious,
//! makes [`scan`] panic. Each frame is
//!
//! ```text
//! [len: u32 LE][checksum: u64 LE][body: len bytes]
//! ```
//!
//! where `checksum` is FNV-1a 64 over `body` and `body` starts with a
//! tag byte:
//!
//! ```text
//! 0x01 slot/single:  [tag][slot u64][opid u32][digest u64][word u64]
//! 0x02 slot/batch:   [tag][slot u64][opid u32][digest u64][count u32][count × word u64]
//! 0x03 checkpoint:   [tag][slot u64][digest u64][count u32][count × word u64]
//! ```
//!
//! `digest` is the log's rolling decided-opid digest *after* the slot
//! (or over the checkpoint's covered prefix) — recovery cross-checks it
//! record by record, so a consensus cell that mutates a re-ingested
//! decision is caught immediately. [`scan`] stops at the first bad
//! length, checksum, or malformed body and reports the valid prefix:
//! a torn tail (the expected crash artifact) simply truncates.
//!
//! # Media
//!
//! File I/O goes through the [`WalMedia`] trait so the deterministic
//! simulator can model a disk that survives `kill -9` (with seeded torn
//! writes at fsync boundaries) while production uses [`FsMedia`]. I/O
//! failures are **never swallowed**: the writer latches the first
//! [`WalIoError`], stops logging, and surfaces it through
//! [`Store::durability_error`](crate::Store::durability_error) — a
//! store that cannot persist refuses loudly instead of pretending.

use crate::metrics::Histogram;
use ff_universal::{SlotRecord, SlotSink};
use parking_lot::{Mutex, MutexGuard};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Frame tag: a single-op decided slot.
const TAG_SLOT_SINGLE: u8 = 0x01;
/// Frame tag: a batch decided slot (one slot, many ops).
const TAG_SLOT_BATCH: u8 = 0x02;
/// Frame tag: an installed checkpoint snapshot.
const TAG_CHECKPOINT: u8 = 0x03;

/// Frame header: `[len u32][checksum u64]`.
const HEADER_LEN: usize = 12;

/// Upper bound on one record body — rejects absurd lengths from
/// corrupt headers before any allocation.
pub const MAX_RECORD_LEN: usize = 1 << 22;

/// FNV-1a 64 over a byte slice (the frame checksum).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut d: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        d = (d ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    d
}

/// Durability knobs, part of [`StoreConfig`](crate::StoreConfig).
#[derive(Clone, Debug, PartialEq)]
pub struct DurabilityConfig {
    /// Directory holding one `shard-{s}.wal` per shard. `None` disables
    /// durability entirely (the pre-WAL in-memory store).
    pub data_dir: Option<PathBuf>,
    /// Decided records per write+fsync batch (group commit). 1 syncs
    /// every record; larger values amortize the syscalls over a batch
    /// at the cost of a longer unsynced tail lost on crash. Records are
    /// tens of bytes, so the default batches hundreds of them into one
    /// modest write.
    ///
    /// A sync *starts* when this many records are pending and runs
    /// under no shard lock, so ops decided meanwhile are acknowledged
    /// before it returns: a crash can lose up to 2 × `group_commit`
    /// acknowledged records per shard, never more — the writer whose
    /// record reaches that bound waits for the sync in flight (and the
    /// shard's other clients wait behind it).
    pub group_commit: usize,
    /// Extra reclaimable log bytes required — beyond the snapshot's own
    /// size — before a checkpoint boundary triggers a rotation. A
    /// rotation rewrites the whole file and costs two fsyncs however
    /// small the file is, so this models that fixed cost in byte units:
    /// 0 rotates at every boundary where the snapshot is no larger than
    /// the records it drops (deterministic, for tests); the default
    /// keeps rotations rare enough that replaying the longer tail on
    /// recovery is the cheaper side of the trade.
    pub rotate_cost: usize,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            data_dir: None,
            group_commit: 512,
            rotate_cost: 256 * 1024,
        }
    }
}

impl DurabilityConfig {
    /// Durability on: log to `dir` with the default group commit.
    pub fn in_dir(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            data_dir: Some(dir.into()),
            ..DurabilityConfig::default()
        }
    }

    /// Is durability enabled?
    pub fn enabled(&self) -> bool {
        self.data_dir.is_some()
    }
}

/// A typed I/O failure on the WAL path: which operation, on which
/// file, and the OS error. Continue of PR 6's `ShutdownError` pattern —
/// fsync/open/rename failures become values, never `let _ =`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalIoError {
    /// The failed operation (`"open"`, `"append"`, `"fsync"`,
    /// `"rename"`, …).
    pub op: &'static str,
    /// The file (or directory) the operation targeted.
    pub path: String,
    /// The underlying error, stringified.
    pub detail: String,
}

impl std::fmt::Display for WalIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wal {} on {}: {}", self.op, self.path, self.detail)
    }
}

impl std::error::Error for WalIoError {}

/// The WAL's storage backend: a flat namespace of append-only files.
/// Production is [`FsMedia`]; the DST substitutes an in-memory disk
/// with crash semantics (unsynced suffixes are lost, the last write may
/// tear). Calls on different names may overlap (each shard does its I/O
/// under its own lock); the store never overlaps two calls on one name.
pub trait WalMedia: Send + Sync {
    /// The full current contents of `name`, or `None` if it does not
    /// exist.
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, WalIoError>;

    /// Append `bytes` to `name` (creating it if absent). Not durable
    /// until [`WalMedia::sync`].
    fn append(&self, name: &str, bytes: &[u8]) -> Result<(), WalIoError>;

    /// Make every append to `name` durable (fsync).
    fn sync(&self, name: &str) -> Result<(), WalIoError>;

    /// Atomically and durably replace `name`'s contents (write to a
    /// temp file, fsync, rename): after a crash, readers see either the
    /// old contents or the new — never a mix.
    fn replace(&self, name: &str, contents: &[u8]) -> Result<(), WalIoError>;
}

/// [`WalMedia`] over a real directory: one file per name, fsync via
/// `sync_data`, replace via tmp-file + rename + directory fsync.
pub struct FsMedia {
    dir: PathBuf,
    /// Cached append handles (reopened after a replace so appends go to
    /// the renamed-in file, not the unlinked old one). A call clones its
    /// handle out, so no syscall runs under this store-wide lock; that
    /// an `append` never runs beside a `replace` of the same name — it
    /// would land in the unlinked inode — is the caller's per-shard I/O
    /// lock's doing.
    files: Mutex<std::collections::HashMap<String, Arc<std::fs::File>>>,
}

impl FsMedia {
    /// Open (creating if needed) `dir` as a WAL directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, WalIoError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| WalIoError {
            op: "create-dir",
            path: dir.display().to_string(),
            detail: e.to_string(),
        })?;
        Ok(FsMedia {
            dir,
            files: Mutex::new(std::collections::HashMap::new()),
        })
    }

    /// The directory this media writes into.
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    fn with_handle<R>(
        &self,
        name: &str,
        op: &'static str,
        f: impl FnOnce(&std::fs::File) -> std::io::Result<R>,
    ) -> Result<R, WalIoError> {
        let file = {
            let mut files = self.files.lock();
            match files.get(name) {
                Some(file) => Arc::clone(file),
                None => {
                    let file = std::fs::OpenOptions::new()
                        .create(true)
                        .append(true)
                        .open(self.path(name))
                        .map_err(|e| WalIoError {
                            op: "open",
                            path: self.path(name).display().to_string(),
                            detail: e.to_string(),
                        })?;
                    let file = Arc::new(file);
                    files.insert(name.to_string(), Arc::clone(&file));
                    file
                }
            }
        };
        f(&file).map_err(|e| WalIoError {
            op,
            path: self.path(name).display().to_string(),
            detail: e.to_string(),
        })
    }
}

impl WalMedia for FsMedia {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, WalIoError> {
        match std::fs::read(self.path(name)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(WalIoError {
                op: "read",
                path: self.path(name).display().to_string(),
                detail: e.to_string(),
            }),
        }
    }

    fn append(&self, name: &str, bytes: &[u8]) -> Result<(), WalIoError> {
        use std::io::Write;
        self.with_handle(name, "append", |mut f| f.write_all(bytes))
    }

    fn sync(&self, name: &str) -> Result<(), WalIoError> {
        self.with_handle(name, "fsync", |f| f.sync_data())
    }

    fn replace(&self, name: &str, contents: &[u8]) -> Result<(), WalIoError> {
        let tmp = self.path(&format!("{name}.tmp"));
        let io = |op: &'static str, path: &std::path::Path, e: std::io::Error| WalIoError {
            op,
            path: path.display().to_string(),
            detail: e.to_string(),
        };
        std::fs::write(&tmp, contents).map_err(|e| io("write-tmp", &tmp, e))?;
        std::fs::File::open(&tmp)
            .and_then(|f| f.sync_data())
            .map_err(|e| io("fsync-tmp", &tmp, e))?;
        let dst = self.path(name);
        std::fs::rename(&tmp, &dst).map_err(|e| io("rename", &dst, e))?;
        // Make the rename itself durable (directory entry update).
        std::fs::File::open(&self.dir)
            .and_then(|d| d.sync_all())
            .map_err(|e| io("fsync-dir", &self.dir, e))?;
        // Drop the cached append handle: it points at the unlinked old
        // inode.
        self.files.lock().remove(name);
        Ok(())
    }
}

/// One decoded WAL entry.
#[derive(Clone, Debug, PartialEq)]
pub enum WalEntry {
    /// A decided slot and its record.
    Slot {
        /// The log slot index.
        slot: usize,
        /// The decided operation id.
        opid: u32,
        /// The rolling decided-opid digest after applying this slot.
        digest_after: u64,
        /// The announced record the slot decided.
        record: SlotRecord,
    },
    /// An installed checkpoint snapshot covering slots `[0, slot)`.
    Checkpoint {
        /// First slot not covered by the snapshot.
        slot: usize,
        /// The rolling digest over the covered prefix.
        digest: u64,
        /// The `Replicated::encode_snapshot` words.
        words: Vec<u64>,
    },
}

/// What [`scan`] found: the decodable prefix plus how the file ends.
#[derive(Clone, Debug, Default)]
pub struct WalScan {
    /// Every entry of the valid prefix, in file order.
    pub entries: Vec<WalEntry>,
    /// Bytes of the valid prefix (recovery truncates here).
    pub valid_len: usize,
    /// Bytes past the valid prefix (the torn or corrupt tail).
    pub torn_bytes: usize,
    /// Why the scan stopped early (`None` on a clean end-of-file).
    pub corrupt: Option<String>,
}

/// Decode as much of `bytes` as checksums allow. **Total**: returns for
/// every input, never panics — a bad length, checksum, or body ends the
/// valid prefix and the rest is reported as the torn tail.
pub fn scan(bytes: &[u8]) -> WalScan {
    let mut out = WalScan::default();
    let mut off = 0usize;
    let stop = |mut out: WalScan, off: usize, why: &str, total: usize| {
        out.valid_len = off;
        out.torn_bytes = total - off;
        out.corrupt = Some(why.to_string());
        out
    };
    loop {
        if off == bytes.len() {
            out.valid_len = off;
            return out;
        }
        // `[len u32][checksum u64]`, taken off the front as arrays: a
        // header that is not all there has no other way through.
        let header = bytes[off..]
            .split_first_chunk::<4>()
            .and_then(|(len, rest)| Some((len, rest.split_first_chunk::<8>()?)));
        let Some((len, (checksum, rest))) = header else {
            return stop(out, off, "truncated header", bytes.len());
        };
        let len = u32::from_le_bytes(*len) as usize;
        if len == 0 || len > MAX_RECORD_LEN {
            return stop(out, off, "bad record length", bytes.len());
        }
        let Some(body) = rest.get(..len) else {
            return stop(out, off, "truncated body", bytes.len());
        };
        if fnv1a(body) != u64::from_le_bytes(*checksum) {
            return stop(out, off, "checksum mismatch", bytes.len());
        }
        match decode_body(body) {
            Some(entry) => out.entries.push(entry),
            None => return stop(out, off, "malformed record body", bytes.len()),
        }
        off += HEADER_LEN + len;
    }
}

/// Decode one checksum-verified body; `None` on any malformation.
fn decode_body(body: &[u8]) -> Option<WalEntry> {
    let u64_at = |i: usize| -> Option<u64> {
        Some(u64::from_le_bytes(body.get(i..i + 8)?.try_into().ok()?))
    };
    let u32_at = |i: usize| -> Option<u32> {
        Some(u32::from_le_bytes(body.get(i..i + 4)?.try_into().ok()?))
    };
    match *body.first()? {
        TAG_SLOT_SINGLE => {
            // [tag][slot 8][opid 4][digest 8][word 8] = 29 bytes.
            if body.len() != 29 {
                return None;
            }
            Some(WalEntry::Slot {
                slot: usize::try_from(u64_at(1)?).ok()?,
                opid: u32_at(9)?,
                digest_after: u64_at(13)?,
                record: SlotRecord::Single(u64_at(21)?),
            })
        }
        TAG_SLOT_BATCH => {
            // [tag][slot 8][opid 4][digest 8][count 4][count × 8].
            let count = u32_at(21)? as usize;
            if count == 0 || body.len() != 25 + 8 * count {
                return None;
            }
            let words: Vec<u64> = (0..count)
                .map(|i| u64_at(25 + 8 * i))
                .collect::<Option<_>>()?;
            Some(WalEntry::Slot {
                slot: usize::try_from(u64_at(1)?).ok()?,
                opid: u32_at(9)?,
                digest_after: u64_at(13)?,
                record: SlotRecord::Batch(Arc::from(words)),
            })
        }
        TAG_CHECKPOINT => {
            // [tag][slot 8][digest 8][count 4][count × 8].
            let count = u32_at(17)? as usize;
            if body.len() != 21 + 8 * count {
                return None;
            }
            Some(WalEntry::Checkpoint {
                slot: usize::try_from(u64_at(1)?).ok()?,
                digest: u64_at(9)?,
                words: (0..count)
                    .map(|i| u64_at(21 + 8 * i))
                    .collect::<Option<_>>()?,
            })
        }
        _ => None,
    }
}

/// Append one frame to `out`: reserve the header, let `body` write the
/// body in place, then patch the length and checksum in — no scratch
/// vector per record.
fn frame_into(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0u8; HEADER_LEN]);
    body(out);
    let (header, written) = out[start..].split_at_mut(HEADER_LEN);
    header[..4].copy_from_slice(&(written.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&fnv1a(written).to_le_bytes());
}

/// Append one decided slot to `out` as a framed record.
fn encode_slot_into(
    out: &mut Vec<u8>,
    slot: usize,
    opid: u32,
    digest_after: u64,
    record: &SlotRecord,
) {
    frame_into(out, |body| {
        let tag = match record {
            SlotRecord::Single(_) => TAG_SLOT_SINGLE,
            SlotRecord::Batch(_) => TAG_SLOT_BATCH,
        };
        body.push(tag);
        body.extend_from_slice(&(slot as u64).to_le_bytes());
        body.extend_from_slice(&opid.to_le_bytes());
        body.extend_from_slice(&digest_after.to_le_bytes());
        match record {
            SlotRecord::Single(w) => body.extend_from_slice(&w.to_le_bytes()),
            SlotRecord::Batch(ws) => {
                body.extend_from_slice(&(ws.len() as u32).to_le_bytes());
                for w in ws.iter() {
                    body.extend_from_slice(&w.to_le_bytes());
                }
            }
        }
    });
}

/// Encode one decided slot as a framed record.
pub fn encode_slot(slot: usize, opid: u32, digest_after: u64, record: &SlotRecord) -> Vec<u8> {
    let mut out = Vec::new();
    encode_slot_into(&mut out, slot, opid, digest_after, record);
    out
}

/// Bytes of a checkpoint frame carrying `words` snapshot words.
fn checkpoint_frame_len(words: usize) -> usize {
    HEADER_LEN + 21 + 8 * words
}

/// Append one installed checkpoint to `out` as a framed record.
fn encode_checkpoint_into(out: &mut Vec<u8>, slot: usize, digest: u64, words: &[u64]) {
    frame_into(out, |body| {
        body.push(TAG_CHECKPOINT);
        body.extend_from_slice(&(slot as u64).to_le_bytes());
        body.extend_from_slice(&digest.to_le_bytes());
        body.extend_from_slice(&(words.len() as u32).to_le_bytes());
        for w in words {
            body.extend_from_slice(&w.to_le_bytes());
        }
    });
}

/// Encode one installed checkpoint as a framed record.
pub fn encode_checkpoint(slot: usize, digest: u64, words: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(checkpoint_frame_len(words.len()));
    encode_checkpoint_into(&mut out, slot, digest, words);
    out
}

/// The slot frames a shard's file holds past its checkpoint, as one
/// byte buffer plus an index: what the next rotation keeps a suffix of.
/// Slots arrive in order, so a rotation drops a prefix.
#[derive(Default)]
pub(crate) struct SlotFrames {
    bytes: Vec<u8>,
    /// `(slot, end)` per frame, in slot order; `end` counts bytes since
    /// the buffer was created, so dropping a prefix shifts nothing.
    index: VecDeque<(usize, u64)>,
    /// Bytes dropped off the front so far (`end - dropped` indexes
    /// `bytes`).
    dropped: u64,
}

impl SlotFrames {
    /// Encode one decided slot onto the end.
    pub(crate) fn push(&mut self, slot: usize, opid: u32, digest_after: u64, record: &SlotRecord) {
        encode_slot_into(&mut self.bytes, slot, opid, digest_after, record);
        self.index
            .push_back((slot, self.dropped + self.bytes.len() as u64));
    }

    /// Frames of slots below `slot`: how many, and their total bytes.
    fn below(&self, slot: usize) -> (usize, usize) {
        let frames = self.index.partition_point(|(s, _)| *s < slot);
        let bytes = match frames {
            0 => 0,
            n => (self.index[n - 1].1 - self.dropped) as usize,
        };
        (frames, bytes)
    }

    /// Drop the frames of slots below `slot`.
    fn drop_below(&mut self, slot: usize) {
        let (frames, bytes) = self.below(slot);
        self.index.drain(..frames);
        self.bytes.drain(..bytes);
        self.dropped += bytes as u64;
    }

    /// Where the buffer ends, in bytes since it was created — like the
    /// index, a position no prefix drop moves.
    fn end(&self) -> u64 {
        self.dropped + self.bytes.len() as u64
    }

    /// The buffered bytes from position `from` (see [`Self::end`]) on;
    /// `from` must not lie in the dropped prefix.
    fn since(&self, from: u64) -> &[u8] {
        &self.bytes[(from - self.dropped) as usize..]
    }
}

/// The WAL file name of shard `s`.
pub fn shard_file(s: usize) -> String {
    format!("shard-{s}.wal")
}

/// Live WAL counters (one set per store, summed over shards).
#[derive(Debug, Default)]
pub struct WalStats {
    /// Decided records appended.
    pub records: AtomicU64,
    /// fsyncs issued (group commits + rotations).
    pub fsyncs: AtomicU64,
    /// Checkpoint rotations written.
    pub checkpoints: AtomicU64,
    /// Records made durable per fsync (the group-commit batch size).
    pub batch: Histogram,
    /// Slot records replayed by recovery.
    pub replayed: AtomicU64,
    /// Checkpoint snapshots loaded by recovery.
    pub loaded_checkpoints: AtomicU64,
    /// Shard files recovery found torn or corrupt (and truncated).
    pub torn_tails: AtomicU64,
}

impl WalStats {
    /// The counters as a [`DurabilitySnapshot`] for metrics export.
    pub fn snapshot(&self) -> crate::metrics::DurabilitySnapshot {
        crate::metrics::DurabilitySnapshot {
            records_logged: self.records.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            batch_p50: self.batch.quantile(0.50),
            batch_p95: self.batch.quantile(0.95),
            records_replayed: self.replayed.load(Ordering::Relaxed),
            checkpoints_loaded: self.loaded_checkpoints.load(Ordering::Relaxed),
            torn_tails: self.torn_tails.load(Ordering::Relaxed),
        }
    }
}

/// A rotation `checkpoint_installed` decided on and encoded, waiting
/// for the commit routine to hand it to the media.
struct Rotation {
    /// The whole new file: the checkpoint frame, then every frame
    /// buffered at or above its slot when it was cut.
    image: Vec<u8>,
    /// [`WalInner::sunk`] when it was cut: its `replace` makes that
    /// many records durable (the snapshot covers the dropped ones).
    upto: u64,
}

/// Mutable writer state of one shard's WAL, under one lock (the
/// *buffer lock*). No media call is made while it is held.
struct WalInner {
    /// Every slot frame since the last rotation, kept for the next
    /// rotation's tail. Records are encoded straight onto its end.
    frames: SlotFrames,
    /// How far `frames` has been handed to the media, as a
    /// [`SlotFrames::end`] position; the rest is the group-commit
    /// buffer. Group commit batches the `write` syscalls too, not just
    /// the fsyncs — one record per `append` would cost more than the
    /// sync it amortizes.
    written: u64,
    /// Records sunk so far.
    sunk: u64,
    /// How many of them a sync or a rotation has made durable; the
    /// difference is the pending tail, a commit in flight included.
    durable: u64,
    /// A rotation waiting for its `replace`. A newer one supersedes it:
    /// its image holds everything the older one's would have.
    rotation: Option<Rotation>,
    /// The slot of the last checkpoint rotated in or stashed (0 = none
    /// yet).
    ckpt_slot: usize,
    /// The first I/O error, if any: the WAL refuses further writes.
    error: Option<WalIoError>,
}

impl WalInner {
    /// Is there media work to do: a stashed rotation, a full batch, or
    /// records below `upto` (a flush's target) still pending?
    fn due(&self, group_commit: u64, upto: u64) -> bool {
        self.error.is_none()
            && (self.rotation.is_some()
                || self.sunk - self.durable >= group_commit
                || self.durable < upto)
    }
}

/// One shard's write-ahead log writer; also the [`SlotSink`] attached
/// to the shard's `UniversalLog`.
pub struct ShardWal {
    media: Arc<dyn WalMedia>,
    name: String,
    group_commit: u64,
    rotate_cost: usize,
    inner: Mutex<WalInner>,
    /// The shard's I/O lock: its holder is the one thread calling the
    /// media for this shard. It guards the buffer a commit copies its
    /// batch into, kept for the next commit.
    io: Mutex<Vec<u8>>,
    stats: Arc<WalStats>,
}

impl ShardWal {
    /// A writer for shard `s` over `media`, sharing `stats` with its
    /// siblings.
    pub fn new(
        media: Arc<dyn WalMedia>,
        s: usize,
        group_commit: usize,
        rotate_cost: usize,
        stats: Arc<WalStats>,
    ) -> Self {
        ShardWal {
            media,
            name: shard_file(s),
            group_commit: group_commit.max(1) as u64,
            rotate_cost,
            inner: Mutex::new(WalInner {
                frames: SlotFrames::default(),
                written: 0,
                sunk: 0,
                durable: 0,
                rotation: None,
                ckpt_slot: 0,
                error: None,
            }),
            io: Mutex::new(Vec::new()),
            stats,
        }
    }

    /// The first I/O error this writer hit, if any (it stopped logging
    /// at that point).
    pub fn error(&self) -> Option<WalIoError> {
        self.inner.lock().error.clone()
    }

    /// Rewrite the file from recovered state: the (optional) checkpoint
    /// frame followed by the replayed tail frames — the compacted,
    /// torn-tail-free image recovery continues from. Seeds the writer's
    /// rotation cache with the same tail.
    pub(crate) fn reset_from_recovery(
        &self,
        ckpt: Option<(usize, Vec<u8>)>,
        tail: SlotFrames,
    ) -> Result<(), WalIoError> {
        let (ckpt_slot, mut contents) = ckpt.unwrap_or_default();
        contents.extend_from_slice(&tail.bytes);
        self.media.replace(&self.name, &contents)?;
        let mut inner = self.inner.lock();
        inner.written = tail.end();
        inner.frames = tail;
        inner.ckpt_slot = ckpt_slot;
        Ok(())
    }

    /// Latch `e` as this writer's fatal error (first one wins).
    fn fail(&self, inner: &mut WalInner, e: WalIoError) {
        if inner.error.is_none() {
            eprintln!("ff-store wal: shard log {} failed: {e}", self.name);
            inner.error = Some(e);
        }
    }

    /// The one routine that calls the media once the store is open.
    /// Holding the I/O lock, do what is [due](WalInner::due) — a
    /// stashed rotation first, then the unwritten suffix as one append
    /// and sync — until nothing is. The buffer lock is held to pick the
    /// work and to book its outcome, never across a media call; an
    /// error latches and ends the loop.
    fn commit(&self, mut io: MutexGuard<'_, Vec<u8>>, upto: u64) {
        let mut inner = self.inner.lock();
        while inner.due(self.group_commit, upto) {
            let rotation = inner.rotation.take();
            let (covered, end) = match &rotation {
                Some(rotation) => (rotation.upto, inner.written),
                None => {
                    // Copied, not borrowed: a rotation stashed while
                    // the append runs shifts the buffer's bytes.
                    io.clear();
                    io.extend_from_slice(inner.frames.since(inner.written));
                    (inner.sunk, inner.frames.end())
                }
            };
            drop(inner);
            let result = match &rotation {
                Some(rotation) => self.media.replace(&self.name, &rotation.image),
                None => self
                    .media
                    .append(&self.name, &io)
                    .and_then(|()| self.media.sync(&self.name)),
            };
            inner = self.inner.lock();
            match result {
                Ok(()) => {
                    // A rotation stashed meanwhile has already moved
                    // `written` past this batch.
                    inner.written = inner.written.max(end);
                    if covered > inner.durable {
                        self.stats.batch.record(covered - inner.durable);
                        inner.durable = covered;
                    }
                    self.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
                    if rotation.is_some() {
                        self.stats.checkpoints.fetch_add(1, Ordering::Relaxed);
                    }
                }
                Err(e) => self.fail(&mut inner, e),
            }
        }
        // Let go of the I/O lock while the buffer lock still shows
        // nothing due: a record sunk from here on finds the I/O lock
        // free, so no full batch is left without a committer.
        drop(io);
    }

    /// Do the media work the sinks left due, unless another thread is
    /// at it already (it re-checks before it lets go). The combiner
    /// calls this after every pass, holding no lock.
    pub(crate) fn settle(&self) {
        if !self.inner.lock().due(self.group_commit, 0) {
            return;
        }
        if let Some(io) = self.io.try_lock() {
            self.commit(io, 0);
        }
    }

    /// Make everything sunk before the call durable (shutdown /
    /// verification edge), waiting out a commit another thread has in
    /// flight. On return that holds, or an error is latched.
    pub fn flush(&self) {
        let upto = self.inner.lock().sunk;
        self.commit(self.io.lock(), upto);
    }
}

impl SlotSink for ShardWal {
    fn slot_decided(&self, slot: usize, opid: u32, record: &SlotRecord, digest_after: u64) {
        let mut inner = self.inner.lock();
        if inner.error.is_some() {
            return;
        }
        inner.frames.push(slot, opid, digest_after, record);
        inner.sunk += 1;
        self.stats.records.fetch_add(1, Ordering::Relaxed);
        // Back-pressure: two batches pending means one is syncing and a
        // second filled behind it. Wait for the I/O lock — with the
        // buffer lock released, or its holder could never finish — and
        // commit whatever is still due by then.
        if inner.sunk - inner.durable >= self.group_commit.saturating_mul(2) {
            drop(inner);
            self.commit(self.io.lock(), 0);
        }
    }

    fn checkpoint_installed(&self, slot: usize, digest: u64, words: &[u64]) {
        let mut inner = self.inner.lock();
        if inner.error.is_some() {
            return;
        }
        // Concurrent handles can emit checkpoints out of order (the
        // installer of boundary S+k may report before S's); rotating
        // back to an older checkpoint would lose records, so only ever
        // roll forward.
        if slot <= inner.ckpt_slot {
            return;
        }
        // Rotation is compaction, and it costs a full-file rewrite plus
        // two fsyncs. Only pay that when the record frames it drops
        // outweigh the snapshot it writes; skipped boundaries cost
        // nothing (the snapshot is not even encoded) — recovery replays
        // the longer tail from the last checkpoint that *did* reach the
        // file.
        let ckpt_len = checkpoint_frame_len(words.len());
        let (_, reclaimed) = inner.frames.below(slot);
        if reclaimed < ckpt_len.saturating_add(self.rotate_cost) {
            return;
        }
        inner.frames.drop_below(slot);
        let mut image = Vec::with_capacity(ckpt_len + inner.frames.bytes.len());
        encode_checkpoint_into(&mut image, slot, digest, words);
        image.extend_from_slice(&inner.frames.bytes);
        // The image holds every buffered frame at or above `slot` and
        // the snapshot covers the rest, so its `replace` leaves nothing
        // buffered so far to append, and makes all of it durable.
        inner.written = inner.frames.end();
        inner.ckpt_slot = slot;
        inner.rotation = Some(Rotation {
            image,
            upto: inner.sunk,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&encode_slot(0, 7, 0x1111, &SlotRecord::Single(42)));
        bytes.extend_from_slice(&encode_slot(
            1,
            8,
            0x2222,
            &SlotRecord::Batch(Arc::from(vec![1u64, 2, 3])),
        ));
        bytes.extend_from_slice(&encode_checkpoint(2, 0x3333, &[9, 9, 9]));
        bytes
    }

    #[test]
    fn scan_round_trips_all_record_kinds() {
        let bytes = sample_frames();
        let scan = scan(&bytes);
        assert!(scan.corrupt.is_none(), "{:?}", scan.corrupt);
        assert_eq!(scan.valid_len, bytes.len());
        assert_eq!(scan.torn_bytes, 0);
        assert_eq!(scan.entries.len(), 3);
        assert_eq!(
            scan.entries[0],
            WalEntry::Slot {
                slot: 0,
                opid: 7,
                digest_after: 0x1111,
                record: SlotRecord::Single(42)
            }
        );
        assert_eq!(
            scan.entries[2],
            WalEntry::Checkpoint {
                slot: 2,
                digest: 0x3333,
                words: vec![9, 9, 9]
            }
        );
    }

    #[test]
    fn scan_truncates_at_torn_tail() {
        let bytes = sample_frames();
        let first = encode_slot(0, 7, 0x1111, &SlotRecord::Single(42)).len();
        // Cut mid-second-record: the valid prefix is exactly one record.
        let torn = &bytes[..first + 5];
        let scan = scan(torn);
        assert_eq!(scan.entries.len(), 1);
        assert_eq!(scan.valid_len, first);
        assert_eq!(scan.torn_bytes, 5);
        assert!(scan.corrupt.is_some());
    }

    #[test]
    fn scan_stops_at_flipped_byte() {
        let mut bytes = sample_frames();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        let scan = scan(&bytes);
        // Whatever record the flip landed in, everything before decodes
        // and nothing panics.
        assert!(scan.corrupt.is_some());
        assert!(scan.valid_len <= mid);
    }

    #[test]
    fn scan_rejects_absurd_length_without_allocating() {
        let mut bytes = vec![0u8; HEADER_LEN];
        bytes[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let scan = scan(&bytes);
        assert!(scan.entries.is_empty());
        assert_eq!(scan.corrupt.as_deref(), Some("bad record length"));
    }

    #[test]
    fn slot_frames_index_survives_prefix_drops() {
        let mut frames = SlotFrames::default();
        let single = encode_slot(0, 0, 0, &SlotRecord::Single(0)).len();
        for slot in 10..16 {
            frames.push(slot, slot as u32, 0, &SlotRecord::Single(slot as u64));
        }
        assert_eq!(frames.below(10), (0, 0));
        assert_eq!(frames.below(13), (3, 3 * single));
        frames.drop_below(13);
        // Offsets are relative to the shortened buffer again, and what
        // is left is exactly the encoding of slots 13..16.
        assert_eq!(frames.below(15), (2, 2 * single));
        frames.push(16, 16, 0, &SlotRecord::Batch(Arc::from(vec![1u64, 2])));
        frames.drop_below(15);
        let scanned = scan(&frames.bytes);
        assert!(scanned.corrupt.is_none());
        let slots: Vec<usize> = scanned
            .entries
            .iter()
            .map(|e| match e {
                WalEntry::Slot { slot, .. } => *slot,
                WalEntry::Checkpoint { .. } => panic!("no checkpoint was pushed"),
            })
            .collect();
        assert_eq!(slots, vec![15, 16]);
        assert_eq!(frames.below(usize::MAX), (2, frames.bytes.len()));
    }

    /// A writer over a fresh temp dir with group commit 4 and rotation
    /// at every boundary that pays.
    fn test_writer(
        tag: &str,
    ) -> (
        std::path::PathBuf,
        Arc<dyn WalMedia>,
        Arc<WalStats>,
        ShardWal,
    ) {
        let dir = std::env::temp_dir().join(format!("ff-wal-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let media: Arc<dyn WalMedia> = Arc::new(FsMedia::open(&dir).unwrap());
        let stats = Arc::new(WalStats::default());
        let wal = ShardWal::new(Arc::clone(&media), 0, 4, 0, Arc::clone(&stats));
        (dir, media, stats, wal)
    }

    fn sink_slots(wal: &ShardWal, slots: std::ops::Range<usize>, settle: bool) {
        for slot in slots {
            wal.slot_decided(
                slot,
                slot as u32,
                &SlotRecord::Single(slot as u64),
                slot as u64,
            );
            if settle {
                wal.settle();
            }
        }
    }

    /// The file's checkpoint slot (if it starts with one) and the slots
    /// of the records after it; the file must scan clean.
    fn file_slots(media: &Arc<dyn WalMedia>) -> (Option<usize>, Vec<usize>) {
        let scanned = scan(&media.read(&shard_file(0)).unwrap().unwrap_or_default());
        assert!(scanned.corrupt.is_none(), "{:?}", scanned.corrupt);
        let mut ckpt = None;
        let mut slots = Vec::new();
        for (i, e) in scanned.entries.iter().enumerate() {
            match e {
                WalEntry::Checkpoint { slot, .. } => {
                    assert_eq!(i, 0, "a checkpoint past the head of the file");
                    ckpt = Some(*slot);
                }
                WalEntry::Slot { slot, .. } => slots.push(*slot),
            }
        }
        (ckpt, slots)
    }

    #[test]
    fn writer_group_commits_and_rotates() {
        // Driven as a combiner drives it: settle after every pass.
        let (dir, media, stats, wal) = test_writer("settled");
        sink_slots(&wal, 0..6, true);
        // 6 records, group commit 4: one fsync so far, 2 pending.
        assert_eq!(stats.fsyncs.load(Ordering::Relaxed), 1);
        assert_eq!(file_slots(&media), (None, vec![0, 1, 2, 3]));
        wal.checkpoint_installed(4, 0xabc, &[1, 2]);
        // The sink only stashes the rotation; the file is as it was.
        assert_eq!(file_slots(&media), (None, vec![0, 1, 2, 3]));
        wal.settle();
        // Rotation: checkpoint first, then only slots >= 4.
        assert_eq!(file_slots(&media), (Some(4), vec![4, 5]));
        assert_eq!(stats.fsyncs.load(Ordering::Relaxed), 2);
        assert_eq!(stats.checkpoints.load(Ordering::Relaxed), 1);
        // A stale (older) checkpoint must not roll the file back.
        wal.checkpoint_installed(2, 0xdef, &[3]);
        wal.settle();
        assert_eq!(file_slots(&media), (Some(4), vec![4, 5]));
        // The rotation made the two pending records durable: the next
        // batch is four more, appended after the rotated-in image.
        sink_slots(&wal, 6..10, true);
        assert_eq!(stats.fsyncs.load(Ordering::Relaxed), 3);
        assert_eq!(file_slots(&media), (Some(4), vec![4, 5, 6, 7, 8, 9]));
        assert!(wal.error().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_sink_driven_without_settle_syncs_at_twice_the_batch_and_on_flush() {
        // Verify's observer, `audit`'s catch-up and raw handles sink
        // slots with no combiner behind them: nothing reaches the media
        // until the tail bound, and `flush` covers the rest.
        let (dir, media, stats, wal) = test_writer("unsettled");
        sink_slots(&wal, 0..7, false);
        assert_eq!(stats.fsyncs.load(Ordering::Relaxed), 0);
        assert_eq!(media.read(&shard_file(0)).unwrap(), None);
        // The 8th record is 2 x group commit: it commits all eight.
        sink_slots(&wal, 7..8, false);
        assert_eq!(stats.fsyncs.load(Ordering::Relaxed), 1);
        assert_eq!(file_slots(&media), (None, (0..8).collect()));
        // A rotation and three more records sit in memory...
        sink_slots(&wal, 8..10, false);
        wal.checkpoint_installed(8, 0xabc, &[1, 2]);
        sink_slots(&wal, 10..11, false);
        assert_eq!(file_slots(&media), (None, (0..8).collect()));
        // ...until flush: the rotation first, then the record behind it.
        wal.flush();
        assert_eq!(file_slots(&media), (Some(8), vec![8, 9, 10]));
        assert_eq!(stats.fsyncs.load(Ordering::Relaxed), 3);
        assert_eq!(stats.records.load(Ordering::Relaxed), 11);
        // Nothing pending: a second flush touches nothing.
        wal.flush();
        assert_eq!(stats.fsyncs.load(Ordering::Relaxed), 3);
        assert!(wal.error().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// A valid WAL image derived deterministically from draw seeds:
    /// each seed picks a record kind and its payload.
    fn frames_from_seeds(seeds: &[u64]) -> Vec<u8> {
        let mut out = Vec::new();
        for (i, &x) in seeds.iter().enumerate() {
            match x % 3 {
                0 => out.extend_from_slice(&encode_slot(
                    i,
                    x as u32,
                    x ^ 0x1111,
                    &SlotRecord::Single(x >> 3),
                )),
                1 => {
                    let ws: Vec<u64> = (0..1 + (x % 4)).map(|j| x.wrapping_mul(j + 1)).collect();
                    out.extend_from_slice(&encode_slot(
                        i,
                        x as u32,
                        x >> 7,
                        &SlotRecord::Batch(Arc::from(ws)),
                    ));
                }
                _ => {
                    let ws: Vec<u64> = (0..(x % 4)).map(|j| x ^ j).collect();
                    out.extend_from_slice(&encode_checkpoint(i + 1, x >> 11, &ws));
                }
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // The decoder is total: any byte soup, any truncation point,
        // any single-byte mutation — scan returns, never panics, and
        // the valid prefix re-scans identically.
        #[test]
        fn scan_is_total_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
            let s = scan(&bytes);
            prop_assert!(s.valid_len + s.torn_bytes == bytes.len());
            let again = scan(&bytes[..s.valid_len]);
            prop_assert!(again.corrupt.is_none());
            prop_assert_eq!(again.entries.len(), s.entries.len());
        }

        #[test]
        fn scan_survives_truncation_of_valid_logs(
            seeds in proptest::collection::vec(any::<u64>(), 0..8),
            cut in any::<u16>(),
        ) {
            let wal = frames_from_seeds(&seeds);
            let cut = cut as usize % (wal.len() + 1);
            let s = scan(&wal[..cut]);
            // Truncation only ever shortens the entry list; the valid
            // prefix always re-decodes cleanly.
            prop_assert!(s.valid_len <= cut);
            prop_assert!(scan(&wal[..s.valid_len]).corrupt.is_none());
        }

        #[test]
        fn scan_survives_single_byte_mutation(
            seeds in proptest::collection::vec(any::<u64>(), 1..8),
            at in any::<u16>(),
            xor in any::<u8>(),
        ) {
            let mut mutated = frames_from_seeds(&seeds);
            let at = at as usize % mutated.len();
            mutated[at] ^= xor | 1;
            let s = scan(&mutated);
            // Never panics; whatever survives is a decodable prefix.
            prop_assert!(scan(&mutated[..s.valid_len]).corrupt.is_none());
        }
    }
}
