//! Crash recovery: rebuild a store's shards from their write-ahead
//! logs.
//!
//! [`Store::recover`](crate::Store::recover) runs this per shard:
//!
//! 1. read the shard's WAL file and [`scan`] it —
//!    the decoder is total, so a torn tail or corrupt record just ends
//!    the valid prefix;
//! 2. load the newest valid checkpoint snapshot (if any) straight into
//!    the log via the existing consensus-decided checkpoint machinery;
//! 3. replay the slot records after it **op-by-op through real
//!    consensus cells**
//!    ([`Handle::ingest_recovered`](ff_universal::Handle::ingest_recovered)):
//!    every record is re-announced under its original opid and
//!    re-decided, so digests, checkpoints and truncation behave exactly
//!    as in live operation — and a cell that mutates a re-ingested
//!    decision (the naive backend under faults) is caught by the
//!    per-record digest cross-check and surfaced as
//!    [`RecoverError::ReplayDivergence`], never served as data;
//! 4. rewrite the WAL as the compacted image (checkpoint + replayed
//!    tail), dropping the torn tail on disk too.
//!
//! Replay stops — without panicking, without guessing — at the first
//! slot-sequence break: everything after a gap is unusable because the
//! log's slots are decided in order.

use crate::map::KvMap;
use crate::wal::{encode_checkpoint, scan, shard_file, SlotFrames, WalIoError, WalMedia, WalStats};
use ff_universal::{Handle, UniversalLog};
use std::sync::Arc;

/// Why recovery refused to produce a store.
#[derive(Clone, Debug, PartialEq)]
pub enum RecoverError {
    /// The configuration has durability disabled — there is nothing to
    /// recover from.
    DurabilityDisabled,
    /// The configuration itself is invalid.
    Config(crate::ConfigError),
    /// An I/O failure on the WAL path (open/read/rename/fsync).
    Io(WalIoError),
    /// Replay through the consensus cells decided something other than
    /// the recorded history (or the digest cross-check failed): the
    /// backend mutated a re-ingested decision. Recovery refuses to
    /// serve the resulting state.
    ReplayDivergence {
        /// The shard whose replay diverged.
        shard: usize,
        /// The slot at which the divergence was detected.
        slot: usize,
    },
    /// The newest checkpoint passed its checksum but its words are not
    /// a map snapshot (a length that disagrees with its header, a word
    /// wider than 56 bits, or keys out of order or repeated). Recovery
    /// refuses it rather than load a map other than the one that was
    /// checkpointed.
    BadCheckpoint {
        /// The shard whose checkpoint was refused.
        shard: usize,
        /// The checkpoint's slot.
        slot: usize,
    },
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::DurabilityDisabled => {
                write!(f, "recovery needs a durability data dir in the config")
            }
            RecoverError::Config(e) => write!(f, "invalid StoreConfig: {e}"),
            RecoverError::Io(e) => write!(f, "durability I/O failure: {e}"),
            RecoverError::ReplayDivergence { shard, slot } => write!(
                f,
                "shard {shard} replay diverged from the recorded history at slot {slot}"
            ),
            RecoverError::BadCheckpoint { shard, slot } => write!(
                f,
                "shard {shard} checkpoint at slot {slot} is not a map snapshot"
            ),
        }
    }
}

impl std::error::Error for RecoverError {}

impl From<WalIoError> for RecoverError {
    fn from(e: WalIoError) -> Self {
        RecoverError::Io(e)
    }
}

/// What recovery found and did for one shard.
#[derive(Clone, Debug)]
pub struct ShardRecovery {
    /// The shard index.
    pub shard: usize,
    /// The checkpoint snapshot slot loaded, if the WAL held one.
    pub checkpoint_slot: Option<usize>,
    /// Slot records replayed through consensus after the checkpoint.
    pub records_replayed: usize,
    /// Decodable records discarded after a slot-sequence break.
    pub records_skipped: usize,
    /// Bytes past the valid prefix (the torn/corrupt tail, truncated).
    pub torn_bytes: usize,
    /// Why the WAL's valid prefix ended early (`None` = clean tail).
    pub corrupt: Option<String>,
    /// The log's next slot after recovery.
    pub end_slot: usize,
}

/// The whole store's recovery outcome.
#[derive(Clone, Debug)]
pub struct RecoveryReport {
    /// One entry per shard.
    pub shards: Vec<ShardRecovery>,
}

impl RecoveryReport {
    /// Total slot records replayed across shards.
    pub fn records_replayed(&self) -> u64 {
        self.shards.iter().map(|s| s.records_replayed as u64).sum()
    }

    /// Checkpoint snapshots loaded across shards.
    pub fn checkpoints_loaded(&self) -> u64 {
        self.shards
            .iter()
            .filter(|s| s.checkpoint_slot.is_some())
            .count() as u64
    }

    /// Shards whose WAL ended in a torn or corrupt tail.
    pub fn torn_tails(&self) -> u64 {
        self.shards
            .iter()
            .filter(|s| s.corrupt.is_some() || s.torn_bytes > 0)
            .count() as u64
    }

    /// One-line human summary.
    pub fn render(&self) -> String {
        format!(
            "recovered {} shard(s): {} checkpoint(s) loaded, {} record(s) replayed, {} torn tail(s) truncated",
            self.shards.len(),
            self.checkpoints_loaded(),
            self.records_replayed(),
            self.torn_tails(),
        )
    }
}

/// Recover one shard's log from its WAL. Returns the shard outcome plus
/// the re-encoded (checkpoint, tail) frames the writer seeds its
/// rotation cache — and the compacted on-disk image — from.
///
/// Must run before the shard has any other handles (the replay cells
/// are decided single-proposer).
pub(crate) fn recover_shard(
    log: &Arc<UniversalLog>,
    shard: usize,
    media: &Arc<dyn WalMedia>,
    stats: &WalStats,
    interval: usize,
) -> Result<RecoveredShard, RecoverError> {
    let bytes = media.read(&shard_file(shard))?.unwrap_or_default();
    let scanned = scan(&bytes);
    let mut corrupt = scanned.corrupt.clone();

    // The newest checkpoint whose slot is a real boundary. A
    // checksum-valid record claiming an off-boundary slot is corruption
    // the frame CRC cannot see; it is simply never chosen.
    let chosen = scanned
        .entries
        .iter()
        .enumerate()
        .filter_map(|(i, e)| match e {
            crate::wal::WalEntry::Checkpoint {
                slot,
                digest,
                words,
            } if *slot > 0 && slot.is_multiple_of(interval) => Some((i, *slot, *digest, words)),
            _ => None,
        })
        .next_back();

    let mut ckpt_frame = None;
    let mut expected = 0usize;
    let mut tail_start = 0usize;
    if let Some((idx, slot, digest, words)) = chosen {
        if !KvMap::is_snapshot(words) {
            return Err(RecoverError::BadCheckpoint { shard, slot });
        }
        log.install_recovered_snapshot(slot, digest, words.clone());
        ckpt_frame = Some((slot, encode_checkpoint(slot, digest, words)));
        expected = slot;
        tail_start = idx + 1;
        stats
            .loaded_checkpoints
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    // The replay handle bootstraps from the just-installed snapshot
    // (state, digest, start slot) and is dropped afterwards — its
    // truncation watermark unregisters on drop. It never invokes, so
    // its pid is free for later clients.
    let mut replayer = Handle::new(Arc::clone(log), REPLAY_PID, KvMap::default());
    let mut tail_frames = SlotFrames::default();
    let mut replayed = 0usize;
    let mut skipped = 0usize;
    for (i, entry) in scanned.entries.iter().enumerate().skip(tail_start) {
        match entry {
            crate::wal::WalEntry::Slot {
                slot,
                opid,
                digest_after,
                record,
            } if *slot == expected => {
                let agreed = replayer.ingest_recovered(*opid, record.clone());
                if !agreed || replayer.digest() != *digest_after || log.divergence_detected() {
                    return Err(RecoverError::ReplayDivergence { shard, slot: *slot });
                }
                tail_frames.push(*slot, *opid, *digest_after, record);
                expected += 1;
                replayed += 1;
            }
            _ => {
                // A slot out of sequence (or a stray checkpoint record)
                // after the loaded snapshot: the decided order cannot
                // have a gap, so everything from here on is unusable.
                skipped = scanned.entries.len() - i;
                corrupt.get_or_insert_with(|| "slot sequence break".to_string());
                break;
            }
        }
    }
    stats
        .replayed
        .fetch_add(replayed as u64, std::sync::atomic::Ordering::Relaxed);
    if corrupt.is_some() || scanned.torn_bytes > 0 {
        stats
            .torn_tails
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    Ok(RecoveredShard {
        outcome: ShardRecovery {
            shard,
            checkpoint_slot: chosen.map(|(_, slot, _, _)| slot),
            records_replayed: replayed,
            records_skipped: skipped,
            torn_bytes: scanned.torn_bytes,
            corrupt,
            end_slot: expected,
        },
        ckpt_frame,
        tail_frames,
    })
}

/// The pid the temporary replay handle runs under. It never invokes an
/// operation, so it cannot collide with the opids of real clients; 1023
/// is the same reserved pid the verify observer uses, and both exist
/// only while no clients run.
const REPLAY_PID: u16 = 1023;

/// [`recover_shard`]'s full result: the report entry plus the frames
/// that seed the shard's fresh WAL writer.
pub(crate) struct RecoveredShard {
    pub outcome: ShardRecovery,
    pub ckpt_frame: Option<(usize, Vec<u8>)>,
    pub tail_frames: SlotFrames,
}
