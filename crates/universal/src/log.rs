//! The wait-free operation log: Herlihy's universal construction over
//! one-shot consensus cells.
//!
//! Every log slot is a fresh consensus cell from a [`CellFactory`].
//! A process announces its operation's payload, then walks the log
//! proposing its operation id at each slot; whatever the slot decides is
//! applied to the process's local replica, and the process keeps walking
//! until a slot decides *its* operation. Because each slot's cell is
//! consensus, all replicas apply the same operation sequence — provided
//! the cells actually are consensus, which under functional faults is
//! exactly what Section 4's constructions buy (and what naive cells
//! lose — experiment E10).
//!
//! Both classic formulations are provided: the **lock-free** one
//! ([`UniversalLog::new`] — some process completes whenever a slot is
//! decided) and the **wait-free** one with Herlihy-style helping
//! ([`UniversalLog::with_helping`] — slot `k` proposes the pending
//! operation of process `k mod n`, so every announced operation is
//! decided within a bounded number of slots no matter how its owner is
//! scheduled).
//!
//! # Bounded logs: checkpoint + truncation
//!
//! An append-only log grows without bound. With
//! [`UniversalLog::checkpoint_every`] the log periodically replaces its
//! decided prefix by a snapshot and frees the prefix's cells and
//! announce entries. A snapshot is an encoded **base** plus the records
//! decided since it (the **suffix**): Herlihy's construction defines a
//! replica's state as the replay of the decided log, so replaying the
//! suffix over the base *is* the state at the snapshot slot, and the
//! base need not be re-encoded at every boundary. The log re-encodes a
//! live replica only once the suffix holds at least as many ops as the
//! base has words, so encoding costs amortised O(1) words per op
//! however large the state; a durability sink that encodes the replica
//! itself (see [`CheckpointWords`]) hands its words back as the new
//! base. The subtlety is that *truncation must itself be
//! agreed on*: if replicas disagreed about which prefix was dropped,
//! a replica could silently skip (or re-apply) operations. So every
//! checkpoint boundary is decided by a dedicated **boundary consensus
//! cell** from the same factory as the log's cells — replicas agree on
//! the snapshot slot exactly as they agree on every operation, and a
//! boundary cell deciding anything else is proof the cells are broken
//! (the decision is recorded via [`UniversalLog::divergence_detected`]
//! and truncation is disabled rather than risking data loss). Physical
//! truncation additionally waits until every live [`Handle`] has passed
//! the snapshot slot (per-handle watermarks), so no replica ever needs
//! a dropped cell or a retired announce entry.

use crate::consensus_cell::CellFactory;
use crate::object::Replicated;
use ff_consensus::Consensus;
use ff_spec::{fnv1a, Input, FNV_BASIS};
use parking_lot::Mutex;
use std::cell::OnceCell;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Bits of an operation id reserved for the sequence number.
const SEQ_BITS: u32 = 22;

/// Sequence numbers live in `[0, 2²²)` and wrap (see
/// [`UniversalLog::announce_fresh`] for why reuse is sound).
const SEQ_MASK: u32 = (1 << SEQ_BITS) - 1;

/// An operation id: proposer plus per-proposer sequence number, packed
/// into the `u32` a consensus cell decides.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct OpId {
    /// Proposing process (< 1024).
    pub pid: u16,
    /// Per-proposer sequence number (< 2²²).
    pub seq: u32,
}

impl OpId {
    /// Pack into a consensus input.
    pub fn pack(self) -> u32 {
        assert!(self.pid < 1 << 10, "pid {} exceeds 10 bits", self.pid);
        assert!(
            self.seq < 1 << SEQ_BITS,
            "seq {} exceeds {} bits",
            self.seq,
            SEQ_BITS
        );
        ((self.pid as u32) << SEQ_BITS) | self.seq
    }

    /// Unpack from a consensus decision.
    pub fn unpack(v: u32) -> Self {
        OpId {
            pid: (v >> SEQ_BITS) as u16,
            seq: v & ((1 << SEQ_BITS) - 1),
        }
    }
}

/// Hasher for the opid-keyed announce table: one multiply. Opids are
/// minted by this program as `pid << 22 | seq` with consecutive `seq`,
/// so they are already distinct and an odd multiplier spreads a run of
/// them over distinct buckets — SipHash's collision resistance buys
/// nothing here. (Recovery re-announces opids read from the WAL, but
/// only from checksum-verified records this program wrote.)
#[derive(Default)]
struct OpIdHasher(u64);

impl Hasher for OpIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u32(&mut self, opid: u32) {
        self.0 = (opid as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

type AnnounceTable = HashMap<u32, SlotRecord, BuildHasherDefault<OpIdHasher>>;

/// An announced operation record: a single encoded op word, or a
/// combiner's batch of op words. A batch is decided by **one** consensus
/// decision (its opid occupies one slot) but is applied op-by-op on
/// every replica, so `Replicated` semantics, checkpoint boundaries, and
/// the decided-opid digests are unchanged — the digest folds the
/// record's opid once, and replicas agree on the record's contents
/// because the announce happens-before the propose.
///
/// Public because it is also the unit of durability: a [`SlotSink`]
/// receives each decided slot's record, and recovery feeds records back
/// through [`Handle::ingest_recovered`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SlotRecord {
    /// One encoded op word.
    Single(u64),
    /// A combiner's batch of encoded op words (applied op-by-op).
    Batch(Arc<[u64]>),
}

impl SlotRecord {
    /// The record's op words, in apply order.
    pub fn ops(&self) -> &[u64] {
        match self {
            SlotRecord::Single(w) => std::slice::from_ref(w),
            SlotRecord::Batch(ws) => ws,
        }
    }
}

/// The [`Replicated::encode_snapshot`] words of an installed checkpoint,
/// encoded only if a sink asks for them. The installing replica is at
/// exactly the checkpoint slot while the sink runs, so [`Self::get`]
/// encodes it then (unless the log already did at this boundary) and
/// the words become the log's new snapshot base.
pub struct CheckpointWords<'a> {
    words: OnceCell<Arc<Vec<u64>>>,
    encode: &'a dyn Fn() -> Arc<Vec<u64>>,
}

impl<'a> CheckpointWords<'a> {
    /// Words that `encode` produces on the first [`Self::get`].
    pub fn lazy(encode: &'a dyn Fn() -> Arc<Vec<u64>>) -> Self {
        CheckpointWords {
            words: OnceCell::new(),
            encode,
        }
    }

    /// The snapshot words, encoded on the first call.
    pub fn get(&self) -> &[u64] {
        self.words.get_or_init(self.encode)
    }
}

/// Receives the decided log as it becomes final: every decided slot
/// exactly once, in slot order, plus every installed checkpoint — the
/// seam a write-ahead log plugs into. Implementations must not call
/// back into the log (they run under the log's durability lock).
pub trait SlotSink: Send + Sync {
    /// Slot `slot` decided `record` under operation id `opid`;
    /// `digest_after` is the rolling decided-opid digest over slots
    /// `[0, slot]`.
    fn slot_decided(&self, slot: usize, opid: u32, record: &SlotRecord, digest_after: u64);

    /// A checkpoint snapshot covering slots `[0, slot)` was installed,
    /// carrying `digest` over the covered prefix. Called at every
    /// installed boundary, after every slot below `slot` has been
    /// delivered via [`SlotSink::slot_decided`]. `words` encodes the
    /// snapshot only when asked: a sink that lets the boundary pass
    /// costs no encode (and may call back into the log through it).
    fn checkpoint_installed(&self, slot: usize, digest: u64, words: &CheckpointWords<'_>);
}

/// Exactly-once, in-order delivery state for the [`SlotSink`]: slots
/// are *applied* concurrently by many handles, so decided records are
/// buffered by slot and drained as a contiguous run.
#[derive(Default)]
struct DurableCursor {
    /// The next slot to deliver (everything below was delivered, or was
    /// covered by a recovered snapshot).
    next: usize,
    /// Out-of-order decided slots awaiting delivery.
    buffered: BTreeMap<usize, (u32, SlotRecord, u64)>,
}

/// A chain of consensus cells: index `k` lives at `cells[k - base]`;
/// indices below `base` have been truncated away by a checkpoint. The
/// log's slots are one chain, its checkpoint boundaries another.
#[derive(Default)]
struct CellChain {
    base: usize,
    cells: Vec<Arc<dyn Consensus>>,
    /// Truncated cells nothing else holds, for the factory to renew
    /// instead of building a new one (see [`CellFactory::make_from`]).
    spare: Vec<Arc<dyn Consensus>>,
}

impl CellChain {
    /// Extend the chain through index `k`, each new cell minted by
    /// `factory` — from a spare when there is one. Either way the
    /// factory mints exactly one cell per index, in index order, so
    /// its per-cell salts (and every fault stream) do not depend on
    /// which cells were renewed.
    fn extend_through(&mut self, k: usize, factory: &dyn CellFactory) {
        while self.base + self.cells.len() <= k {
            let cell = match self.spare.pop() {
                Some(spare) => factory.make_from(spare),
                None => factory.make(),
            };
            self.cells.push(cell);
        }
    }

    /// Free the cells below index `cut`, keeping up to `keep` of them
    /// as spares: only those no handle still holds (`Arc::get_mut`
    /// proves nobody can be deciding on them).
    fn truncate_below(&mut self, cut: usize, keep: usize) {
        if self.base >= cut {
            return;
        }
        let drop_n = (cut - self.base).min(self.cells.len());
        for mut cell in self.cells.drain(..drop_n) {
            if self.spare.len() < keep && Arc::get_mut(&mut cell).is_some() {
                self.spare.push(cell);
            }
        }
        self.base += drop_n;
    }
}

/// The latest installed checkpoint: an encoded base plus the records
/// decided since it, which replayed over the base give the state at
/// `slot`.
struct Snapshot {
    /// First slot NOT covered by the snapshot (replicas resume here).
    slot: usize,
    /// Rolling digest over the decided opids of slots `[0, slot)`.
    digest: u64,
    /// The [`Replicated::encode_snapshot`] words of the state at slot
    /// `slot - suffix.len()`.
    base: Arc<Vec<u64>>,
    /// The records of slots `[slot - suffix.len(), slot)`, in order.
    suffix: Vec<SlotRecord>,
    /// Ops in `suffix`: once they reach `base.len()`, the next install
    /// re-encodes the base.
    suffix_ops: usize,
    /// Opids decided below `slot` whose announce entries can be freed
    /// once every live handle has passed `slot`.
    retired: Vec<u32>,
}

impl Snapshot {
    /// A snapshot at `slot` whose base is `words`, with nothing to replay.
    fn encoded(slot: usize, digest: u64, words: Vec<u64>) -> Self {
        Snapshot {
            slot,
            digest,
            base: Arc::new(words),
            suffix: Vec::new(),
            suffix_ops: 0,
            retired: Vec::new(),
        }
    }
}

/// What a registering handle bootstraps from: the snapshot's slot and
/// rolling digest, its base words and the suffix to replay over them.
struct SnapshotView {
    slot: usize,
    digest: u64,
    base: Arc<Vec<u64>>,
    suffix: Vec<SlotRecord>,
}

/// Checkpoint bookkeeping, all under one lock so snapshot reads and
/// watermark registration are atomic with respect to truncation.
#[derive(Default)]
struct CheckpointState {
    snapshot: Option<Snapshot>,
    /// Digest observed at each crossed boundary slot (pruned below the
    /// snapshot slot at truncation time).
    boundary_digests: Vec<(usize, u64)>,
    /// Per-live-handle progress: each handle's `next_slot`, stored by
    /// the handle after every applied slot and read here at truncation
    /// time. A stale (lower) read only delays truncation.
    watermarks: Vec<Arc<AtomicUsize>>,
    installed: u64,
    /// Replica encodes, by the log or through [`CheckpointWords`].
    encoded: u64,
}

/// The shared core: the cell chain plus the announce table.
pub struct UniversalLog {
    factory: Arc<dyn CellFactory>,
    cells: Mutex<CellChain>,
    /// `base + cells.len()` of `cells`, published under its lock so the
    /// read fast path can observe the tail without taking it.
    tail: AtomicUsize,
    announce: Mutex<AnnounceTable>,
    /// Helping (Herlihy's wait-free upgrade): when `Some(n)`, slot `k`
    /// is reserved for helping process `k mod n`'s pending operation.
    helping_n: Option<usize>,
    /// Pending (announced, not yet decided) operation per process.
    pending: Mutex<HashMap<u16, u32>>,
    /// Checkpoint interval in slots (`None` → unbounded append-only log).
    interval: Option<usize>,
    /// One consensus cell per checkpoint boundary, deciding the slot the
    /// prefix is cut at; indexed by boundary number and pruned below the
    /// installed snapshot at truncation.
    boundaries: Mutex<CellChain>,
    ckpt: Mutex<CheckpointState>,
    /// Poison flag: the cells were caught misbehaving (boundary cell
    /// decided a foreign value, digest mismatch between replicas, or a
    /// decided-but-never-announced opid). Truncation stops permanently.
    diverged: AtomicBool,
    /// Exactly-once in-order delivery cursor for the durability sink.
    durable: Mutex<DurableCursor>,
    /// The attached durability sink, if any (see [`SlotSink`]); set at
    /// most once, so the per-slot check is one atomic load.
    sink: OnceLock<Arc<dyn SlotSink>>,
    /// Where each pid resumes minting after recovery: one past the
    /// *last* replayed sequence number of that pid (the most recent
    /// mint — after a wrap that is not the largest).
    seq_floors: Mutex<HashMap<u16, u32>>,
}

impl UniversalLog {
    /// A fresh log over `factory`'s cells, in the lock-free formulation
    /// (no helping: some process completes whenever a slot is decided,
    /// but an individual process can starve under an unfair scheduler).
    pub fn new(factory: Arc<dyn CellFactory>) -> Self {
        Self::build(factory, None)
    }

    fn build(factory: Arc<dyn CellFactory>, helping_n: Option<usize>) -> Self {
        UniversalLog {
            factory,
            cells: Mutex::new(CellChain::default()),
            tail: AtomicUsize::new(0),
            announce: Mutex::new(AnnounceTable::default()),
            helping_n,
            pending: Mutex::new(HashMap::new()),
            interval: None,
            boundaries: Mutex::new(CellChain::default()),
            ckpt: Mutex::new(CheckpointState::default()),
            diverged: AtomicBool::new(false),
            durable: Mutex::new(DurableCursor::default()),
            sink: OnceLock::new(),
            seq_floors: Mutex::new(HashMap::new()),
        }
    }

    /// Enable checkpointing: every `interval` decided slots, replicas
    /// agree (through a boundary consensus cell) on a snapshot slot,
    /// the first replica to cross it installs the snapshot — extending
    /// the suffix with the interval's records, or re-encoding its state
    /// as a fresh [`Replicated::encode_snapshot`] base once the suffix
    /// holds as many ops as the base has words — and the decided prefix
    /// is freed once every live handle has passed the slot. The replica
    /// type driving the log must support snapshots. Configure before
    /// creating handles.
    pub fn checkpoint_every(mut self, interval: usize) -> Self {
        assert!(interval >= 2, "checkpoint interval must be at least 2");
        self.interval = Some(interval);
        self
    }

    /// A log with Herlihy-style **helping** for up to `n` processes
    /// (pids `0 … n-1`): slot `k` proposes the pending operation of
    /// process `k mod n` when one exists, so every announced operation is
    /// decided within a bounded number of slots regardless of its owner's
    /// scheduling — the wait-free formulation.
    pub fn with_helping(factory: Arc<dyn CellFactory>, n: usize) -> Self {
        assert!(n >= 1, "helping needs at least one process");
        Self::build(factory, Some(n))
    }

    /// Register `opid` as `pid`'s pending operation (announce-for-help).
    fn register_pending(&self, pid: u16, opid: u32) {
        if self.helping_n.is_some() {
            self.pending.lock().insert(pid, opid);
        }
    }

    /// Clear `pid`'s pending entry if it still refers to `opid`.
    fn clear_pending(&self, pid: u16, opid: u32) {
        if self.helping_n.is_some() {
            let mut pending = self.pending.lock();
            if pending.get(&pid) == Some(&opid) {
                pending.remove(&pid);
            }
        }
    }

    /// The operation slot `k` should propose on behalf of the helped
    /// process, if any: the pending op of process `k mod n` that the
    /// proposer has not yet seen decided.
    fn help_target(&self, slot: usize, already_applied: &impl Fn(u32) -> bool) -> Option<u32> {
        let n = self.helping_n?;
        let helped = (slot % n) as u16;
        let candidate = *self.pending.lock().get(&helped)?;
        if already_applied(candidate) {
            None
        } else {
            Some(candidate)
        }
    }

    /// Publicly visible helping mode (for reports).
    pub fn helping(&self) -> Option<usize> {
        self.helping_n
    }

    /// Announce an operation on behalf of a process without walking the
    /// log — the "slow process" whose work others must finish. Used by
    /// tests and demos of the helping mechanism; normal callers go
    /// through [`Handle::invoke`].
    pub fn announce_for(&self, pid: u16, seq: u32, payload: u64) -> u32 {
        let opid = OpId { pid, seq }.pack();
        self.announce_as(opid, SlotRecord::Single(payload));
        self.register_pending(pid, opid);
        opid
    }

    /// The cell deciding slot `k` (created on demand).
    fn cell(&self, k: usize) -> Arc<dyn Consensus> {
        let mut chain = self.cells.lock();
        assert!(
            k >= chain.base,
            "slot {k} was already truncated (log base is {})",
            chain.base
        );
        if chain.base + chain.cells.len() <= k {
            chain.extend_through(k, &*self.factory);
            self.tail
                .store(chain.base + chain.cells.len(), Ordering::SeqCst);
        }
        let i = k - chain.base;
        Arc::clone(&chain.cells[i])
    }

    /// The consensus cell deciding checkpoint boundary `b` (the cut at
    /// slot `(b + 1) * interval`), created on demand.
    fn boundary_cell(&self, b: usize) -> Arc<dyn Consensus> {
        let mut chain = self.boundaries.lock();
        assert!(
            b >= chain.base,
            "boundary {b} was already pruned (boundary base is {})",
            chain.base
        );
        chain.extend_through(b, &*self.factory);
        let i = b - chain.base;
        Arc::clone(&chain.cells[i])
    }

    /// Publish `record` under a caller-chosen opid (recovery replays
    /// records under their original ids; [`Self::announce_for`] takes
    /// the sequence number from its caller).
    fn announce_as(&self, opid: u32, record: SlotRecord) {
        self.announce.lock().insert(opid, record);
    }

    /// Mint `pid`'s next operation id and publish `record` under it,
    /// before the id is proposed anywhere.
    ///
    /// Sequence numbers wrap modulo 2²². Reuse is sound because an opid
    /// only has to be unambiguous while some replica can still resolve
    /// it, which is exactly while it sits in the announce table:
    /// entries are retired once every live handle has passed the
    /// snapshot covering their slot, and handles prune their own opid
    /// windows at the same point. So the mint skips any id still in the
    /// table (a few hundred at most, against 2²² candidates).
    fn announce_fresh(&self, pid: u16, next_seq: &mut u32, record: SlotRecord) -> u32 {
        let mut announce = self.announce.lock();
        for _ in 0..=SEQ_MASK {
            let opid = OpId {
                pid,
                seq: *next_seq,
            }
            .pack();
            *next_seq = (*next_seq + 1) & SEQ_MASK;
            if let Entry::Vacant(free) = announce.entry(opid) {
                free.insert(record);
                return opid;
            }
        }
        panic!("all 2^{SEQ_BITS} operation ids of pid {pid} are live: truncation has stalled");
    }

    /// Withdraw an announced opid that lost every proposal it was used
    /// in (so no cell decided it and no replica will ever resolve it).
    fn retract(&self, opid: u32) {
        self.announce.lock().remove(&opid);
    }

    /// The record of a decided operation. The announce happens-before
    /// the propose (both through this table's lock), so with correct
    /// cells a decided id is always resolvable; `None` means a cell
    /// decided a value nobody proposed — proof the cells are broken.
    fn record_of(&self, opid: u32) -> Option<SlotRecord> {
        self.announce.lock().get(&opid).cloned()
    }

    /// Attach a durability sink. From this point every decided slot at
    /// or above the durable cursor is delivered exactly once, in slot
    /// order. Attach before handles run (or immediately after recovery
    /// replay) so no decided slot slips past unrecorded.
    ///
    /// # Panics
    /// If a sink is already attached: a log has one for its lifetime.
    pub fn set_slot_sink(&self, sink: Arc<dyn SlotSink>) {
        // Without a sink nothing tracks the cursor, so start it at the
        // log's end: everything created so far is decided (nothing is
        // running yet) and was either replayed by recovery or predates
        // the sink.
        let mut cur = self.durable.lock();
        cur.next = cur.next.max(self.slots_created());
        assert!(
            self.sink.set(sink).is_ok(),
            "a durability sink is already attached to this log"
        );
    }

    /// A handle applied `record` at `slot`: buffer it and deliver the
    /// contiguous run to the sink. Slots below the cursor were already
    /// delivered by another handle (replicas all decide the same
    /// sequence) and are dropped.
    fn offer_durable(&self, slot: usize, opid: u32, record: &SlotRecord, digest_after: u64) {
        let Some(sink) = self.sink.get() else {
            return;
        };
        let mut cur = self.durable.lock();
        if slot < cur.next {
            return;
        }
        if slot == cur.next && cur.buffered.is_empty() {
            // In-order arrival, nothing buffered: deliver without a
            // buffer round trip — this is every slot of a
            // single-writer run.
            cur.next += 1;
            sink.slot_decided(slot, opid, record, digest_after);
            return;
        }
        cur.buffered
            .entry(slot)
            .or_insert_with(|| (opid, record.clone(), digest_after));
        // Drain under the cursor lock so sink appends stay in slot order.
        while let Some((opid, record, digest)) = {
            let next = cur.next;
            cur.buffered.remove(&next)
        } {
            let at = cur.next;
            cur.next += 1;
            sink.slot_decided(at, opid, &record, digest);
        }
    }

    /// Deliver an installed checkpoint to the sink (called by the
    /// installing handle after [`Self::observe_boundary`] returns, so
    /// no checkpoint lock is held). `words` is filled if the install
    /// encoded; otherwise `encode` encodes the installing replica, which
    /// sits at exactly `slot`, should the sink ask.
    fn emit_checkpoint(
        &self,
        slot: usize,
        digest: u64,
        words: OnceCell<Arc<Vec<u64>>>,
        encode: &dyn Fn() -> Option<Vec<u64>>,
    ) {
        let Some(sink) = self.sink.get() else {
            return;
        };
        let encode_base = || {
            let words = Arc::new(encode_or_panic(encode));
            self.adopt_base(slot, &words);
            words
        };
        let view = CheckpointWords {
            words,
            encode: &encode_base,
        };
        sink.checkpoint_installed(slot, digest, &view);
    }

    /// A sink encoded the replica that installed the checkpoint at
    /// `slot`: make its words the snapshot base, dropping the suffix
    /// records they cover (a later install may already have extended
    /// the suffix past `slot`).
    fn adopt_base(&self, slot: usize, words: &Arc<Vec<u64>>) {
        let mut ckpt = self.ckpt.lock();
        ckpt.encoded += 1;
        let Some(snap) = ckpt.snapshot.as_mut() else {
            return;
        };
        let base_slot = snap.slot - snap.suffix.len();
        if base_slot < slot && slot <= snap.slot {
            for record in snap.suffix.drain(..slot - base_slot) {
                snap.suffix_ops -= record.ops().len();
            }
            snap.base = Arc::clone(words);
        }
    }

    /// Seed the log from a recovered checkpoint, before any handle or
    /// slot exists: the chain base, durable cursor and snapshot all
    /// start at `slot`, exactly as if this process had installed the
    /// checkpoint and truncated below it in a previous life.
    ///
    /// # Panics
    /// If the log has no checkpoint interval, `slot` is not a positive
    /// boundary multiple, or the log has already been used.
    pub fn install_recovered_snapshot(&self, slot: usize, digest: u64, words: Vec<u64>) {
        let interval = self
            .interval
            .expect("recovered snapshots need a checkpointed log");
        assert!(
            slot > 0 && slot.is_multiple_of(interval),
            "recovered snapshot slot {slot} is not a checkpoint boundary (interval {interval})"
        );
        {
            let mut chain = self.cells.lock();
            assert!(
                chain.base == 0 && chain.cells.is_empty(),
                "recovered snapshots must install before the log is used"
            );
            chain.base = slot;
            self.tail.store(slot, Ordering::SeqCst);
        }
        let mut ckpt = self.ckpt.lock();
        assert!(
            ckpt.snapshot.is_none() && ckpt.watermarks.is_empty(),
            "recovered snapshots must install before any handle exists"
        );
        ckpt.boundary_digests.push((slot, digest));
        ckpt.snapshot = Some(Snapshot::encoded(slot, digest, words));
        ckpt.installed += 1;
        drop(ckpt);
        self.durable.lock().next = slot;
    }

    /// `(slot, digest)` at every checkpoint boundary the log has seen a
    /// handle cross (pruned below the snapshot slot at truncation).
    /// Lets an external observer compare this log against another
    /// incarnation's — the recovered-vs-corpse consistency check.
    pub fn boundary_digest_view(&self) -> Vec<(usize, u64)> {
        self.ckpt.lock().boundary_digests.clone()
    }

    /// Resume a recovered opid's pid just past it (records replay in
    /// slot order, so the last one seen per pid is its latest mint; see
    /// `seq_floors`). Any replayed id still live is skipped by the mint
    /// itself.
    fn note_recovered_opid(&self, opid: u32) {
        let id = OpId::unpack(opid);
        self.seq_floors
            .lock()
            .insert(id.pid, (id.seq + 1) & SEQ_MASK);
    }

    /// The first sequence number `pid` may mint (0 unless recovery
    /// replayed records proposed by an earlier incarnation of `pid`).
    fn seq_floor(&self, pid: u16) -> u32 {
        self.seq_floors.lock().get(&pid).copied().unwrap_or(0)
    }

    /// Slots decided so far (an upper bound; cells may exist undecided).
    /// Includes truncated slots: this is a log position, not a size.
    pub fn slots_created(&self) -> usize {
        self.tail.load(Ordering::SeqCst)
    }

    /// Cells currently held in memory (excludes the truncated prefix).
    /// With checkpointing on and consistent replicas keeping pace, this
    /// stays bounded by roughly one checkpoint interval plus the
    /// slowest live handle's lag.
    pub fn retained_len(&self) -> usize {
        self.cells.lock().cells.len()
    }

    /// Slots freed by checkpoint truncation (the log's current base).
    pub fn truncated_prefix(&self) -> usize {
        self.cells.lock().base
    }

    /// The checkpoint interval, if checkpointing is enabled.
    pub fn checkpoint_interval(&self) -> Option<usize> {
        self.interval
    }

    /// Number of snapshots installed so far.
    pub fn checkpoints_installed(&self) -> u64 {
        self.ckpt.lock().installed
    }

    /// Number of times a replica was encoded for a snapshot base: by
    /// the log when the suffix outgrew the base, or by a sink through
    /// [`CheckpointWords::get`]. At most one per installed checkpoint,
    /// and far fewer once the state is large.
    pub fn snapshots_encoded(&self) -> u64 {
        self.ckpt.lock().encoded
    }

    /// Has any evidence of broken cells been observed? (A boundary cell
    /// deciding a foreign value, replicas crossing a boundary with
    /// different digests, or a decided-but-never-announced opid.) Once
    /// set, truncation is permanently disabled.
    pub fn divergence_detected(&self) -> bool {
        self.diverged.load(Ordering::Acquire)
    }

    /// Record evidence of broken cells (see
    /// [`Self::divergence_detected`]).
    fn mark_diverged(&self) {
        self.diverged.store(true, Ordering::Release);
    }

    /// Register a new handle: give it a watermark and the current
    /// snapshot to start from, atomically with respect to truncation
    /// (so the slots from its start onward cannot be freed underneath
    /// it).
    fn register_handle(&self) -> (Arc<AtomicUsize>, Option<SnapshotView>) {
        let mut ckpt = self.ckpt.lock();
        let snap = ckpt.snapshot.as_ref().map(|s| SnapshotView {
            slot: s.slot,
            digest: s.digest,
            base: Arc::clone(&s.base),
            suffix: s.suffix.clone(),
        });
        let start = snap.as_ref().map_or(0, |view| view.slot);
        let watermark = Arc::new(AtomicUsize::new(start));
        ckpt.watermarks.push(Arc::clone(&watermark));
        (watermark, snap)
    }

    /// Drop a handle's watermark (it no longer gates truncation).
    fn unregister_handle(&self, watermark: &Arc<AtomicUsize>) {
        let mut ckpt = self.ckpt.lock();
        ckpt.watermarks.retain(|w| !Arc::ptr_eq(w, watermark));
        self.try_truncate(&mut ckpt);
    }

    /// A handle crossed the agreed boundary at `slot` carrying `digest`
    /// over its applied opids: check agreement with other crossers,
    /// install the snapshot if this is the first crosser, and attempt
    /// physical truncation. Returns `Some` when *this* call installed
    /// (the caller then notifies the durability sink outside this
    /// lock), holding the words if the install encoded a new base.
    fn observe_boundary(
        &self,
        slot: usize,
        digest: u64,
        start_slot: usize,
        applied: &[u32],
        encode: &dyn Fn() -> Option<Vec<u64>>,
    ) -> Option<OnceCell<Arc<Vec<u64>>>> {
        let mut ckpt = self.ckpt.lock();
        match ckpt.boundary_digests.iter().find(|(s, _)| *s == slot) {
            Some((_, d)) if *d != digest => {
                // Two replicas crossed the same agreed boundary having
                // applied different operation sequences.
                self.mark_diverged();
                return None;
            }
            Some(_) => {}
            None => ckpt.boundary_digests.push((slot, digest)),
        }
        let mut installed = None;
        if ckpt.snapshot.as_ref().is_none_or(|s| s.slot < slot) {
            // Snapshots install in boundary order (a handle crossing
            // this boundary crossed every earlier one first), so the
            // previous snapshot slot is within this handle's applied
            // range and the interval's opids are exactly the slots
            // between the two snapshots. Their announce entries are
            // retired only below the *previous* snapshot, so every one
            // still resolves.
            let prev = ckpt.snapshot.as_ref().map_or(0, |s| s.slot);
            let interval = &applied[prev - start_slot..slot - start_slot];
            let words = OnceCell::new();
            let CheckpointState {
                snapshot, encoded, ..
            } = &mut *ckpt;
            // The first install always encodes: any suffix outgrows an
            // empty base.
            let snap = snapshot.get_or_insert_with(|| Snapshot::encoded(0, FNV_BASIS, Vec::new()));
            {
                let announce = self.announce.lock();
                for opid in interval {
                    // A decided id nobody announced was applied as an
                    // inert op (see `Handle::resolve_record`): so is it
                    // here.
                    let record = announce.get(opid).cloned().unwrap_or_else(inert_record);
                    snap.suffix_ops += record.ops().len();
                    snap.suffix.push(record);
                }
            }
            if snap.suffix_ops >= snap.base.len() {
                let base = Arc::new(encode_or_panic(encode));
                *encoded += 1;
                snap.base = Arc::clone(&base);
                snap.suffix.clear();
                snap.suffix_ops = 0;
                let _ = words.set(base);
            }
            snap.slot = slot;
            snap.digest = digest;
            snap.retired.extend_from_slice(interval);
            ckpt.installed += 1;
            installed = Some(words);
        }
        self.try_truncate(&mut ckpt);
        installed
    }

    /// Free the decided prefix below the snapshot slot if every live
    /// handle has passed it and no divergence has been observed.
    fn try_truncate(&self, ckpt: &mut CheckpointState) {
        if self.diverged.load(Ordering::Acquire) {
            return;
        }
        let Some(snap) = ckpt.snapshot.as_mut() else {
            return;
        };
        // Acquire pairs with the Release store in `Handle::after_apply`:
        // a watermark read here is a slot its handle has finished with.
        let min_watermark = ckpt
            .watermarks
            .iter()
            .map(|w| w.load(Ordering::Acquire))
            .min()
            .unwrap_or(usize::MAX);
        if min_watermark < snap.slot {
            return;
        }
        // One interval's worth of spares is what the chain mints before
        // the next cut.
        let interval = self.interval.unwrap_or(0);
        self.cells.lock().truncate_below(snap.slot, interval);
        if let Some(at) = snap.slot.checked_div(interval) {
            // Every live handle is at or past `snap.slot`, so it has
            // crossed every boundary strictly below it; the boundary
            // *at* the snapshot slot may still be mid-crossing.
            self.boundaries
                .lock()
                .truncate_below(at.saturating_sub(1), 1);
        }
        if !snap.retired.is_empty() {
            let mut announce = self.announce.lock();
            for opid in snap.retired.drain(..) {
                announce.remove(&opid);
            }
        }
        // Boundary digests below the snapshot can no longer be crossed
        // by anyone (every live handle is past them): prune.
        let cut = snap.slot;
        ckpt.boundary_digests.retain(|(s, _)| *s >= cut);
    }
}

/// The record a decided-but-never-announced opid is applied as: an
/// inert no-op (opcode 0 is inert for every object in
/// [`crate::structures`]).
fn inert_record() -> SlotRecord {
    SlotRecord::Single(crate::object::encoding::op(0, 0))
}

/// Encode a snapshot base, which a checkpointed log requires.
fn encode_or_panic(encode: &dyn Fn() -> Option<Vec<u64>>) -> Vec<u64> {
    encode().unwrap_or_else(|| {
        panic!(
            "checkpointing requires snapshot support: the replica type \
             returned None from Replicated::encode_snapshot"
        )
    })
}

/// A process-local replica handle.
pub struct Handle<T: Replicated> {
    core: Arc<UniversalLog>,
    state: T,
    pid: u16,
    next_seq: u32,
    next_slot: usize,
    /// First slot of the retained opid window: `applied[i]` is the opid
    /// of slot `start_slot + i`. Starts at 0 (or the snapshot slot the
    /// handle was restored at) and follows the log's truncated prefix,
    /// so the window is as bounded as the log itself.
    start_slot: usize,
    applied: Vec<u32>,
    /// The window as a set — only what [`UniversalLog::help_target`]
    /// asks, so only kept when helping is on.
    applied_set: Option<HashSet<u32>>,
    /// Rolling FNV-1a digest over all decided opids (little-endian) of
    /// slots `[0, next_slot)`, seeded from the snapshot digest on
    /// restore. Replicas that applied the same decided sequence have
    /// equal digests: an O(1)-memory stand-in for comparing applied
    /// logs once prefixes have been truncated.
    digest: u64,
    /// `(slot, digest)` at every checkpoint boundary this handle
    /// crossed (or was restored at), pruned below the log's truncated
    /// prefix like the log's own list.
    boundary_digests: Vec<(usize, u64)>,
    /// This handle's `next_slot` as the core's truncation sees it
    /// (registered only when checkpointing is on).
    watermark: Option<Arc<AtomicUsize>>,
}

impl<T: Replicated> Handle<T> {
    /// A handle for process `pid` starting from `initial` state (all
    /// handles of one log must start from equal initial states). With
    /// helping enabled, `pid` must be below the log's `n`. On a
    /// checkpointed log that has already installed a snapshot, `initial`
    /// is replaced by the snapshot state and replay starts at the
    /// snapshot slot.
    pub fn new(core: Arc<UniversalLog>, pid: u16, initial: T) -> Self {
        if let Some(n) = core.helping() {
            assert!(
                (pid as usize) < n,
                "pid {pid} out of range for helping over {n} processes"
            );
        }
        let mut state = initial;
        let mut start_slot = 0;
        let mut digest = FNV_BASIS;
        let mut boundary_digests = Vec::new();
        let mut watermark = None;
        if core.checkpoint_interval().is_some() {
            let (registered, snapshot) = core.register_handle();
            watermark = Some(registered);
            if let Some(view) = snapshot {
                assert!(
                    state.restore_snapshot(&view.base),
                    "failed to restore the log's snapshot into a fresh replica"
                );
                for record in &view.suffix {
                    for &w in record.ops() {
                        state.apply(w);
                    }
                }
                start_slot = view.slot;
                digest = view.digest;
                boundary_digests.push((view.slot, view.digest));
            }
        }
        let next_seq = core.seq_floor(pid);
        let applied_set = core.helping().map(|_| HashSet::new());
        Handle {
            core,
            state,
            pid,
            next_seq,
            next_slot: start_slot,
            start_slot,
            applied: Vec::new(),
            applied_set,
            digest,
            boundary_digests,
            watermark,
        }
    }

    /// Resolve a decided opid's record. A missing announce entry means
    /// a cell decided a value nobody proposed (broken cells): record the
    /// divergence and degrade to an inert no-op so the replica at least
    /// stays responsive.
    fn resolve_record(&self, opid: u32) -> SlotRecord {
        self.core.record_of(opid).unwrap_or_else(|| {
            self.core.mark_diverged();
            inert_record()
        })
    }

    /// Resolve and apply one decided slot (see [`Self::apply_record`]).
    fn apply_decided(&mut self, decided: u32, collect: Option<&mut Vec<u64>>) -> u64 {
        let record = self.resolve_record(decided);
        self.apply_record(decided, &record, collect)
    }

    /// Apply one decided slot's record op-by-op, plus all per-slot
    /// bookkeeping (digest fold, watermark, durability offer, boundary
    /// crossing). When `collect` is given, every op's response is pushed
    /// into it; the last response is returned either way (for single-op
    /// records that IS the record's response).
    fn apply_record(
        &mut self,
        decided: u32,
        record: &SlotRecord,
        mut collect: Option<&mut Vec<u64>>,
    ) -> u64 {
        let mut last = crate::structures::EMPTY;
        for &w in record.ops() {
            last = self.state.apply(w);
            if let Some(out) = collect.as_deref_mut() {
                out.push(last);
            }
        }
        self.applied.push(decided);
        if let Some(set) = &mut self.applied_set {
            set.insert(decided);
        }
        self.core.clear_pending(OpId::unpack(decided).pid, decided);
        self.after_apply(decided, record);
        last
    }

    /// Bookkeeping after applying one decided slot: fold the opid into
    /// the digest, offer the slot to the durability sink, advance the
    /// watermark, and handle checkpoint-boundary crossings.
    fn after_apply(&mut self, decided: u32, record: &SlotRecord) {
        self.digest = fnv1a(self.digest, &decided.to_le_bytes());
        let applied_slot = self.next_slot;
        self.next_slot += 1;
        // Offer before the boundary handling below: the slot whose
        // apply triggers a checkpoint install must reach the sink ahead
        // of the checkpoint record.
        self.core
            .offer_durable(applied_slot, decided, record, self.digest);
        let Some(interval) = self.core.checkpoint_interval() else {
            return;
        };
        if let Some(watermark) = &self.watermark {
            // Release: everything this handle did with slots below
            // `next_slot` happens-before a truncation that reads it.
            watermark.store(self.next_slot, Ordering::Release);
        }
        if !self.next_slot.is_multiple_of(interval) {
            return;
        }
        // Crossing checkpoint boundary b: agree on the snapshot slot
        // through a consensus cell, exactly like an operation slot. All
        // crossers propose the boundary's own slot, so any other
        // decision is evidence of broken cells.
        let slot = self.next_slot;
        let boundary = slot / interval - 1;
        let decided_slot = self
            .core
            .boundary_cell(boundary)
            .decide(Input(slot as u32))
            .0;
        if decided_slot as usize != slot {
            self.core.mark_diverged();
            return;
        }
        self.boundary_digests.push((slot, self.digest));
        let state = &self.state;
        let encode = || state.encode_snapshot();
        let installed =
            self.core
                .observe_boundary(slot, self.digest, self.start_slot, &self.applied, &encode);
        if let Some(words) = installed {
            self.core.emit_checkpoint(slot, self.digest, words, &encode);
        }
        self.prune_window();
    }

    /// Drop the part of the opid window the log has truncated, and the
    /// boundary digests below it: those slots' announce entries are
    /// retired and no snapshot install will ask for them again
    /// (installs cover `[previous snapshot, slot)`, and truncation never
    /// passes the snapshot slot).
    fn prune_window(&mut self) {
        let cut = self.core.truncated_prefix().min(self.next_slot);
        if cut <= self.start_slot {
            return;
        }
        let gone = self.applied.drain(..cut - self.start_slot);
        if let Some(set) = &mut self.applied_set {
            for opid in gone {
                set.remove(&opid);
            }
        }
        self.start_slot = cut;
        // Like the log's own list: no live handle can cross a boundary
        // below the cut again, so there is nothing left to compare.
        self.boundary_digests.retain(|&(slot, _)| slot >= cut);
    }

    /// Re-ingest one recovered decided record through a fresh consensus
    /// cell: announce it under its **original** opid, propose, and
    /// apply whatever the cell decides. With robust cells a single
    /// proposer always gets its own proposal decided, so the recovered
    /// log is reconstructed exactly; a faulty cell deciding anything
    /// else is surfaced by the `false` return (and by the log's
    /// divergence flag when the decided value resolves to nothing).
    /// Recovery-only: call before any concurrent handle exists.
    pub fn ingest_recovered(&mut self, opid: u32, record: SlotRecord) -> bool {
        self.core.announce_as(opid, record);
        self.core.note_recovered_opid(opid);
        let cell = self.core.cell(self.next_slot);
        let decided = cell.decide(Input(opid)).0;
        self.apply_decided(decided, None);
        // Confirm the cell actually *holds* the decision: agreement
        // guarantees a second decide returns the same value. A faulty
        // cell can answer the first decide correctly while storing junk
        // (an arbitrary-fault swap) — without this read-back it would
        // poison every replica that replays the slot later.
        let confirmed = cell.decide(Input(opid)).0;
        decided == opid && confirmed == opid
    }

    /// The rolling decided-opid digest over slots `[0, applied_to())`.
    /// Recovery cross-checks this against each WAL record's recorded
    /// digest to catch cells that mutated a re-ingested decision.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Invoke an encoded operation: agree on its position in the log,
    /// replaying every operation decided before it, and return its
    /// response on this replica. With helping enabled, slots reserved for
    /// other processes propose *their* pending operations, so lagging
    /// processes' work is finished by whoever is running.
    pub fn invoke(&mut self, op: u64) -> u64 {
        self.append(SlotRecord::Single(op), None)
    }

    /// Invoke a *batch* of encoded operations as one log append (the
    /// flat-combining fast path): the whole batch is announced as a
    /// single multi-op record, decided by **one** consensus decision,
    /// and applied op-by-op wherever the record lands in the log —
    /// on this replica and on every other replica that replays the
    /// slot. `out` is cleared and receives one response per operation,
    /// in order (a caller that appends in a loop reuses its buffer).
    ///
    /// Checkpoints and digests are unchanged relative to `ops.len()`
    /// separate [`Handle::invoke`] calls in the sense that replicas
    /// still agree on everything: a slot still folds exactly one opid
    /// into the digest and snapshots still cut at slot boundaries; the
    /// log is simply shorter (one slot per batch).
    pub fn invoke_many_into(&mut self, ops: &[u64], out: &mut Vec<u64>) {
        assert!(!ops.is_empty(), "invoke_many needs at least one op");
        out.clear();
        self.append(SlotRecord::Batch(Arc::from(ops)), Some(out));
    }

    /// [`Handle::invoke_many_into`] into a fresh vector.
    pub fn invoke_many(&mut self, ops: &[u64]) -> Vec<u64> {
        let mut out = Vec::with_capacity(ops.len());
        self.invoke_many_into(ops, &mut out);
        out
    }

    /// Announce `record` under a fresh opid and walk the log until a
    /// slot decides it, applying everything decided on the way. The
    /// record's own responses go to `collect`; the last one is returned.
    fn append(&mut self, record: SlotRecord, mut collect: Option<&mut Vec<u64>>) -> u64 {
        let opid = self
            .core
            .announce_fresh(self.pid, &mut self.next_seq, record.clone());
        self.core.register_pending(self.pid, opid);
        loop {
            let cell = self.core.cell(self.next_slot);
            let applied_set = &self.applied_set;
            let propose = self
                .core
                .help_target(self.next_slot, &|x| {
                    applied_set.as_ref().is_some_and(|set| set.contains(&x))
                })
                .unwrap_or(opid);
            let decided = cell.decide(Input(propose)).0;
            if decided == opid {
                // Our own record: no need to read it back from the
                // announce table.
                return self.apply_record(decided, &record, collect.as_deref_mut());
            }
            self.apply_decided(decided, None);
        }
    }

    /// Apply all operations decided up to the current end of the log
    /// without submitting anything — a passive catch-up that, with
    /// helping enabled, also observes operations others finished on this
    /// process's behalf. Returns the ops applied.
    pub fn catch_up(&mut self) -> usize {
        let known = self.core.slots_created();
        let mut applied = 0;
        // Re-deciding an already-decided cell with a dummy proposal
        // returns the decided value (cells are multi-shot consensus).
        // The dummy is announced so a (vanishingly unlikely) win at a
        // genuinely undecided trailing slot stays resolvable; one dummy
        // serves every slot until it wins.
        let mut dummy = None;
        while self.next_slot < known {
            let cell = self.core.cell(self.next_slot);
            let proposal = *dummy.get_or_insert_with(|| {
                self.core
                    .announce_fresh(self.pid, &mut self.next_seq, inert_record())
            });
            let decided = cell.decide(Input(proposal)).0;
            if decided == proposal {
                dummy = None;
            }
            self.apply_decided(decided, None);
            applied += 1;
        }
        if let Some(unused) = dummy {
            // Never decided anywhere: give the id (and its sequence
            // number) back.
            self.core.retract(unused);
            self.next_seq = OpId::unpack(unused).seq;
        }
        applied
    }

    /// Catch up with the log by invoking an inert no-op (opcode 0 is
    /// reserved as inert by every object in [`crate::structures`]) and
    /// return the refreshed state.
    pub fn sync(&mut self) -> &T {
        self.invoke(crate::object::encoding::op(0, 0));
        &self.state
    }

    /// The local replica state.
    pub fn state(&self) -> &T {
        &self.state
    }

    /// The log index this replica's state reflects: [`Handle::state`]
    /// is exactly the fold of slots `[0, applied_to())` (snapshot
    /// prefix included). Together with `state()` this is a *versioned
    /// snapshot*: a reader that observed the log tail `T` may answer a
    /// read-only query from any replica with `applied_to() >= T`
    /// without a log pass or a consensus invocation.
    pub fn applied_to(&self) -> usize {
        self.next_slot
    }

    /// The decided operation ids of this replica's retained window, in
    /// order, starting at [`Self::start_slot`]: everything it applied
    /// that the log has not truncated (the full history on a log
    /// without checkpoints).
    pub fn applied_log(&self) -> &[u32] {
        &self.applied
    }

    /// The slot [`Self::applied_log`] starts at: 0 or the snapshot slot
    /// this replica was restored at, advanced past whatever checkpoint
    /// truncation has freed since.
    pub fn start_slot(&self) -> usize {
        self.start_slot
    }

    /// `(slot, digest)` at every checkpoint boundary this replica
    /// crossed or was restored at, from the log's truncated prefix on;
    /// compare across replicas with [`digests_consistent`].
    pub fn boundary_digests(&self) -> &[(usize, u64)] {
        &self.boundary_digests
    }

    /// The shared log this handle replicates (for divergence checks and
    /// retention inspection without going through the owning store).
    pub fn log(&self) -> &Arc<UniversalLog> {
        &self.core
    }
}

impl<T: Replicated> Drop for Handle<T> {
    fn drop(&mut self) {
        if let Some(watermark) = &self.watermark {
            // A dead handle must not gate truncation forever.
            self.core.unregister_handle(watermark);
        }
    }
}

/// Are the given applied logs mutually consistent (every pair agrees on
/// their common prefix)? Divergence here means the cells failed to be
/// consensus — the observable corruption naive cells suffer under
/// overriding faults.
pub fn logs_consistent(logs: &[&[u32]]) -> bool {
    for (i, a) in logs.iter().enumerate() {
        for b in logs.iter().skip(i + 1) {
            let common = a.len().min(b.len());
            if a[..common] != b[..common] {
                return false;
            }
        }
    }
    true
}

/// Are the given replica log *windows* mutually consistent? Each view
/// is `([Handle::start_slot]`, `[Handle::applied_log])` — under
/// truncation replicas can bootstrap from different snapshot slots, so
/// only the slot ranges a pair both applied are compared. The
/// slot-by-slot analogue of [`digests_consistent`], catching
/// disagreements between checkpoint boundaries too.
pub fn log_windows_consistent(views: &[(usize, &[u32])]) -> bool {
    for (i, (sa, a)) in views.iter().enumerate() {
        for (sb, b) in views.iter().skip(i + 1) {
            let lo = (*sa).max(*sb);
            let hi = (sa + a.len()).min(sb + b.len());
            if lo < hi && a[lo - sa..hi - sa] != b[lo - sb..hi - sb] {
                return false;
            }
        }
    }
    true
}

/// Are the given replicas' [`Handle::boundary_digests`] views mutually
/// consistent (every pair agrees on the digest at every boundary slot
/// they both crossed)? The truncation-friendly analogue of
/// [`logs_consistent`]: once prefixes are dropped and replicas start at
/// different snapshot slots, raw applied logs are no longer comparable
/// by index, but the rolling digests still must agree.
pub fn digests_consistent(views: &[&[(usize, u64)]]) -> bool {
    for (i, a) in views.iter().enumerate() {
        for b in views.iter().skip(i + 1) {
            for (slot, digest) in a.iter() {
                if let Some((_, other)) = b.iter().find(|(s, _)| s == slot) {
                    if other != digest {
                        return false;
                    }
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consensus_cell::Cells;
    use crate::structures::{Counter, FifoQueue};

    #[test]
    fn opid_round_trip() {
        for (pid, seq) in [(0u16, 0u32), (1023, (1 << 22) - 1), (7, 99)] {
            let id = OpId { pid, seq };
            assert_eq!(OpId::unpack(id.pack()), id);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds 10 bits")]
    fn oversized_pid_rejected() {
        let _ = OpId { pid: 1024, seq: 0 }.pack();
    }

    #[test]
    fn opids_wrap_at_2_22_and_skip_live_ids() {
        // Recovery leaves pid 0 a few mints short of 2²² (the state a
        // long-running shard reaches on its own after 4M appends).
        let interval = 8;
        let core = Arc::new(
            UniversalLog::new(Arc::new(Cells::robust(1, 0.3, 5))).checkpoint_every(interval),
        );
        let recovered = OpId {
            pid: 0,
            seq: SEQ_MASK - 4,
        };
        {
            let mut replayer = Handle::new(Arc::clone(&core), 1023, Counter::default());
            assert!(
                replayer.ingest_recovered(recovered.pack(), SlotRecord::Single(Counter::add_op(1)))
            );
        }
        // (0, 1) is announced but never decided (no helping): still
        // live when the wrap reaches it, so the mint must step over it.
        let ghost = core.announce_for(0, 1, Counter::add_op(1_000));
        let mut a = Handle::new(Arc::clone(&core), 0, Counter::default());
        let mut b = Handle::new(Arc::clone(&core), 1, Counter::default());
        let mut total = 1;
        let mut minted = Vec::new();
        for round in 0..6 * interval as u64 {
            if round % 2 == 0 {
                a.invoke(Counter::add_op(1));
                total += 1;
            } else {
                a.invoke_many(&[Counter::add_op(2), Counter::add_op(3)]);
                total += 5;
            }
            minted.push(OpId::unpack(*a.applied_log().last().unwrap()));
            b.invoke(Counter::add_op(1));
            total += 1;
        }
        let seqs: Vec<u32> = minted.iter().map(|id| id.seq).collect();
        assert_eq!(
            seqs[..7],
            [SEQ_MASK - 3, SEQ_MASK - 2, SEQ_MASK - 1, SEQ_MASK, 0, 2, 3],
            "sequence numbers wrap, stepping over the live (0, 1)"
        );
        assert!(minted.iter().all(|id| id.pid == 0 && id.pack() != ghost));
        assert_eq!(a.sync().value(), total);
        assert_eq!(b.sync().value(), total);
        assert!(!core.divergence_detected());
        assert!(digests_consistent(&[
            a.boundary_digests(),
            b.boundary_digests()
        ]));
        assert!(log_windows_consistent(&[
            (a.start_slot(), a.applied_log()),
            (b.start_slot(), b.applied_log())
        ]));
        // Several checkpoints went by: the log, the boundary cells and
        // both replicas' opid windows were all cut down with it.
        assert!(core.checkpoints_installed() >= 6);
        assert!(core.retained_len() <= 2 * interval);
        assert!(core.boundaries.lock().cells.len() <= 2);
        assert!(a.start_slot() > 0 && a.applied_log().len() <= 2 * interval);
        // A fresh replica (snapshot + tail) agrees.
        let mut observer = Handle::new(core, 2, Counter::default());
        assert_eq!(observer.invoke(Counter::get_op()), total);
    }

    #[test]
    fn recovery_resumes_after_the_last_replayed_seq_not_the_largest() {
        // A replayed log that wrapped: pid 3 minted …, 2²²-1, 0, 1. The
        // next mint is 2 — resuming past the *largest* would burn the
        // whole sequence space again on every recovery.
        let core = Arc::new(UniversalLog::new(Arc::new(Cells::reliable())));
        let mut replayer = Handle::new(Arc::clone(&core), 1023, Counter::default());
        for seq in [SEQ_MASK - 1, SEQ_MASK, 0, 1] {
            let opid = OpId { pid: 3, seq }.pack();
            assert!(replayer.ingest_recovered(opid, SlotRecord::Single(Counter::add_op(1))));
        }
        drop(replayer);
        let mut h = Handle::new(core, 3, Counter::default());
        h.invoke(Counter::add_op(1));
        assert_eq!(
            OpId::unpack(*h.applied_log().last().unwrap()),
            OpId { pid: 3, seq: 2 }
        );
        assert_eq!(h.state().value(), 5);
    }

    #[test]
    fn catch_up_gives_back_an_unused_dummy_id() {
        let core = Arc::new(UniversalLog::new(Arc::new(Cells::reliable())));
        let mut a = Handle::new(Arc::clone(&core), 0, Counter::default());
        a.invoke(Counter::add_op(5));
        a.invoke(Counter::add_op(7));
        let mut b = Handle::new(Arc::clone(&core), 1, Counter::default());
        assert_eq!(b.catch_up(), 2);
        // The dummy lost both slots: it is gone from the announce table
        // and b's first real operation mints sequence number 0.
        assert_eq!(core.announce.lock().len(), 2);
        b.invoke(Counter::add_op(1));
        assert_eq!(
            OpId::unpack(*b.applied_log().last().unwrap()),
            OpId { pid: 1, seq: 0 }
        );
    }

    #[test]
    fn sequential_counter_over_reliable_cells() {
        let core = Arc::new(UniversalLog::new(Arc::new(Cells::reliable())));
        let mut h = Handle::new(Arc::clone(&core), 0, Counter::default());
        assert_eq!(h.invoke(Counter::add_op(5)), 5);
        assert_eq!(h.invoke(Counter::add_op(3)), 8);
        assert_eq!(h.invoke(Counter::get_op()), 8);
        assert_eq!(core.slots_created(), 3);
    }

    #[test]
    fn two_handles_converge() {
        let core = Arc::new(UniversalLog::new(Arc::new(Cells::reliable())));
        let mut a = Handle::new(Arc::clone(&core), 0, Counter::default());
        let mut b = Handle::new(Arc::clone(&core), 1, Counter::default());
        a.invoke(Counter::add_op(5));
        b.invoke(Counter::add_op(7));
        assert_eq!(a.sync().value(), 12);
        assert_eq!(b.sync().value(), 12);
        assert!(logs_consistent(&[a.applied_log(), b.applied_log()]));
    }

    #[test]
    fn concurrent_counter_over_robust_cells_under_faults() {
        // E10 positive arm: heavy fault injection, robust cells, N
        // threads adding concurrently — the total must be exact.
        let threads = 4u64;
        let adds_each = 25u64;
        let core = Arc::new(UniversalLog::new(Arc::new(Cells::robust(1, 0.5, 99))));
        let logs: Vec<Vec<u32>> = std::thread::scope(|s| {
            (0..threads)
                .map(|i| {
                    let core = Arc::clone(&core);
                    s.spawn(move || {
                        let mut h = Handle::new(core, i as u16, Counter::default());
                        for _ in 0..adds_each {
                            h.invoke(Counter::add_op(1));
                        }
                        h.applied_log().to_vec()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        // Every replica applied a consistent prefix of the one true log.
        let views: Vec<&[u32]> = logs.iter().map(|l| l.as_slice()).collect();
        assert!(logs_consistent(&views), "replica logs diverged: {logs:?}");
        // A fresh observer sees the exact total: every add applied once.
        let expected = threads * adds_each;
        let mut observer = Handle::new(core, 1000, Counter::default());
        assert_eq!(observer.invoke(Counter::get_op()), expected);
    }

    #[test]
    fn naive_cells_diverge_under_faults() {
        // E10 negative arm: the same workload over naive cells (Herlihy
        // straight on a faulty object) corrupts agreement in at least one
        // trial — sequential deciders suffice to exhibit it.
        let mut diverged = false;
        for seed in 0..30 {
            let core = Arc::new(UniversalLog::new(Arc::new(Cells::naive(1.0, seed))));
            let mut a = Handle::new(Arc::clone(&core), 0, Counter::default());
            let mut b = Handle::new(Arc::clone(&core), 1, Counter::default());
            let mut c = Handle::new(Arc::clone(&core), 2, Counter::default());
            a.invoke(Counter::add_op(1));
            b.invoke(Counter::add_op(10));
            c.invoke(Counter::add_op(100));
            if !logs_consistent(&[a.applied_log(), b.applied_log(), c.applied_log()]) {
                diverged = true;
                break;
            }
        }
        assert!(diverged, "naive cells never diverged under 100% fault rate");
    }

    #[test]
    fn helping_finishes_a_lagging_processs_operation() {
        // Process 2 announces an add but never walks the log; processes
        // 0 and 1 keep working. With helping over n = 3, slot k ≡ 2
        // (mod 3) proposes p2's pending op — it must get decided and
        // applied without p2 taking a single step.
        let core = Arc::new(UniversalLog::with_helping(Arc::new(Cells::reliable()), 3));
        let ghost_opid = core.announce_for(2, 0, Counter::add_op(1_000));
        let mut a = Handle::new(Arc::clone(&core), 0, Counter::default());
        let mut b = Handle::new(Arc::clone(&core), 1, Counter::default());
        for _ in 0..4 {
            a.invoke(Counter::add_op(1));
            b.invoke(Counter::add_op(1));
        }
        assert!(
            [&a, &b]
                .iter()
                .any(|h| h.applied_set.as_ref().unwrap().contains(&ghost_opid)),
            "the ghost's operation was never helped to a decision"
        );
        // The ghost's 1000 is included exactly once in the totals.
        assert_eq!(a.sync().value(), 8 + 1_000);
    }

    #[test]
    fn helping_applies_each_operation_exactly_once() {
        // Heavier: concurrent handles + a ghost; the ghost op must be
        // counted exactly once despite many potential helpers.
        for seed in 0..10u64 {
            // One pid per handle (operation ids embed the pid): workers
            // are 0–2, the ghost is 3, the observer is 4.
            let core = Arc::new(UniversalLog::with_helping(
                Arc::new(Cells::robust(1, 0.4, seed)),
                5,
            ));
            core.announce_for(3, 0, Counter::add_op(1_000));
            std::thread::scope(|s| {
                for p in 0..3u16 {
                    let core = Arc::clone(&core);
                    s.spawn(move || {
                        let mut h = Handle::new(core, p, Counter::default());
                        for _ in 0..10 {
                            h.invoke(Counter::add_op(1));
                        }
                    });
                }
            });
            let mut observer = Handle::new(core, 4, Counter::default());
            let total = observer.invoke(Counter::get_op());
            assert_eq!(total, 30 + 1_000, "seed {seed}");
        }
    }

    #[test]
    fn invoke_many_decides_a_whole_batch_in_one_slot() {
        let core = Arc::new(UniversalLog::new(Arc::new(Cells::reliable())));
        let mut h = Handle::new(Arc::clone(&core), 0, Counter::default());
        let resps = h.invoke_many(&[Counter::add_op(5), Counter::add_op(3), Counter::get_op()]);
        assert_eq!(resps, vec![5, 8, 8]);
        assert_eq!(core.slots_created(), 1, "a batch occupies one slot");
        assert_eq!(h.applied_to(), 1);
        // A passive replica replays the record op-by-op.
        let mut b = Handle::new(Arc::clone(&core), 1, Counter::default());
        b.catch_up();
        assert_eq!(b.state().value(), 8);
        assert!(logs_consistent(&[h.applied_log(), b.applied_log()]));
    }

    #[test]
    fn batches_and_singles_interleave_consistently_under_faults() {
        for seed in 0..5u64 {
            let core = Arc::new(
                UniversalLog::new(Arc::new(Cells::robust(1, 0.5, seed))).checkpoint_every(8),
            );
            let digests: Vec<Vec<(usize, u64)>> = std::thread::scope(|s| {
                (0..3u16)
                    .map(|p| {
                        let core = Arc::clone(&core);
                        s.spawn(move || {
                            let mut h = Handle::new(core, p, Counter::default());
                            for i in 0..10u64 {
                                if p == 0 {
                                    let batch: Vec<u64> =
                                        (0..4).map(|_| Counter::add_op(1)).collect();
                                    h.invoke_many(&batch);
                                } else {
                                    h.invoke(Counter::add_op(1 + i % 2));
                                }
                            }
                            h.boundary_digests().to_vec()
                        })
                    })
                    .collect::<Vec<_>>()
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .collect()
            });
            let views: Vec<&[(usize, u64)]> = digests.iter().map(|d| d.as_slice()).collect();
            assert!(digests_consistent(&views), "seed {seed}: digests diverged");
            assert!(!core.divergence_detected());
            // A fresh observer (snapshot + tail replay, batch records
            // decoded op-by-op) sees the exact total.
            let mut observer = Handle::new(core, 1000, Counter::default());
            let p0 = 10 * 4;
            let others = 2 * (5 + 5 * 2);
            assert_eq!(
                observer.invoke(Counter::get_op()),
                p0 + others,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn batch_responses_come_back_in_op_order() {
        let core = Arc::new(UniversalLog::new(Arc::new(Cells::reliable())));
        let mut a = Handle::new(Arc::clone(&core), 0, Counter::default());
        let mut b = Handle::new(Arc::clone(&core), 1, Counter::default());
        a.invoke(Counter::add_op(100));
        let resps = b.invoke_many(&[Counter::get_op(), Counter::add_op(1), Counter::get_op()]);
        // b first replays a's add, then applies its own record in order.
        assert_eq!(resps, vec![100, 101, 101]);
    }

    #[test]
    fn catch_up_applies_decided_slots_passively() {
        let core = Arc::new(UniversalLog::new(Arc::new(Cells::reliable())));
        let mut a = Handle::new(Arc::clone(&core), 0, Counter::default());
        a.invoke(Counter::add_op(5));
        a.invoke(Counter::add_op(7));
        let mut b = Handle::new(Arc::clone(&core), 1, Counter::default());
        let applied = b.catch_up();
        assert!(applied >= 2);
        assert_eq!(b.state().value(), 12);
    }

    #[test]
    fn helping_rejects_out_of_range_pid() {
        let core = Arc::new(UniversalLog::with_helping(Arc::new(Cells::reliable()), 2));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Handle::new(core, 2, Counter::default())
        }));
        assert!(result.is_err());
    }

    #[test]
    fn logs_consistent_detects_mismatch() {
        assert!(logs_consistent(&[&[1, 2, 3], &[1, 2], &[1, 2, 3, 4]]));
        assert!(!logs_consistent(&[&[1, 2, 3], &[1, 9]]));
        assert!(logs_consistent(&[]));
        assert!(logs_consistent(&[&[][..]]));
    }

    #[test]
    fn log_windows_consistent_compares_overlap_only() {
        // b starts at slot 2 (snapshot bootstrap): only slots 2..4
        // overlap with a.
        assert!(log_windows_consistent(&[
            (0, &[1, 2, 3, 4]),
            (2, &[3, 4, 5])
        ]));
        assert!(!log_windows_consistent(&[(0, &[1, 2, 3, 4]), (2, &[9, 4])]));
        // Disjoint windows are vacuously consistent.
        assert!(log_windows_consistent(&[
            (0, &[1, 2][..]),
            (5, &[7, 8][..])
        ]));
        assert!(log_windows_consistent(&[]));
    }

    #[test]
    fn digests_consistent_compares_common_boundaries() {
        let a = [(8usize, 1u64), (16, 2)];
        let b = [(16usize, 2u64), (24, 3)];
        let c = [(16usize, 9u64)];
        assert!(digests_consistent(&[&a, &b]));
        assert!(!digests_consistent(&[&a, &c]));
        assert!(digests_consistent(&[&a, &[][..]]));
    }

    #[test]
    fn checkpointing_truncates_and_preserves_state() {
        let interval = 8;
        let core =
            Arc::new(UniversalLog::new(Arc::new(Cells::reliable())).checkpoint_every(interval));
        let mut h = Handle::new(Arc::clone(&core), 0, Counter::default());
        for _ in 0..50 {
            h.invoke(Counter::add_op(1));
        }
        assert!(core.checkpoints_installed() >= 1);
        assert!(!core.divergence_detected());
        // The sole handle keeps pace, so the retained chain stays within
        // one interval of the log head.
        assert!(
            core.retained_len() <= interval,
            "retained {} cells with interval {interval}",
            core.retained_len()
        );
        assert!(core.truncated_prefix() >= 50 - interval);
        assert_eq!(h.invoke(Counter::get_op()), 50);
    }

    #[test]
    fn boundary_digests_stay_bounded_as_the_log_truncates() {
        let core = Arc::new(UniversalLog::new(Arc::new(Cells::reliable())).checkpoint_every(2));
        let mut h = Handle::new(Arc::clone(&core), 0, Counter::default());
        let mut longest = 0;
        for _ in 0..2_000 {
            h.invoke(Counter::add_op(1));
            longest = longest.max(h.boundary_digests().len());
        }
        assert_eq!(core.checkpoints_installed(), 1_000);
        assert!(longest <= 2, "{longest} boundary digests retained");
        assert_eq!(h.boundary_digests(), core.boundary_digest_view());
    }

    #[test]
    fn fresh_handle_restores_from_snapshot() {
        let core = Arc::new(UniversalLog::new(Arc::new(Cells::reliable())).checkpoint_every(4));
        let mut a = Handle::new(Arc::clone(&core), 0, Counter::default());
        for _ in 0..10 {
            a.invoke(Counter::add_op(1));
        }
        // A fresh replica starts from the snapshot, not slot 0, yet
        // observes the full history.
        let mut b = Handle::new(Arc::clone(&core), 1, Counter::default());
        assert!(b.start_slot() >= 4, "start_slot {}", b.start_slot());
        assert_eq!(b.invoke(Counter::get_op()), 10);
        assert!(digests_consistent(&[
            a.boundary_digests(),
            b.boundary_digests()
        ]));
    }

    #[test]
    fn laggard_handle_blocks_truncation_until_dropped() {
        let core = Arc::new(UniversalLog::new(Arc::new(Cells::reliable())).checkpoint_every(4));
        let laggard = Handle::new(Arc::clone(&core), 1, Counter::default());
        let mut a = Handle::new(Arc::clone(&core), 0, Counter::default());
        for _ in 0..20 {
            a.invoke(Counter::add_op(1));
        }
        // The laggard sits at slot 0, so nothing may be freed...
        assert_eq!(core.truncated_prefix(), 0);
        assert!(core.checkpoints_installed() >= 1);
        // ...until it goes away.
        drop(laggard);
        assert!(core.truncated_prefix() >= 4);
    }

    /// A sink that records everything it is given, for asserting the
    /// exactly-once in-order delivery contract.
    #[derive(Default)]
    struct CollectSink {
        slots: Mutex<Vec<(usize, u32, SlotRecord, u64)>>,
        ckpts: Mutex<Vec<(usize, u64, Vec<u64>)>>,
    }

    impl SlotSink for CollectSink {
        fn slot_decided(&self, slot: usize, opid: u32, record: &SlotRecord, digest_after: u64) {
            self.slots
                .lock()
                .push((slot, opid, record.clone(), digest_after));
        }

        fn checkpoint_installed(&self, slot: usize, digest: u64, words: &CheckpointWords<'_>) {
            self.ckpts.lock().push((slot, digest, words.get().to_vec()));
        }
    }

    #[test]
    fn sink_sees_every_slot_exactly_once_in_order() {
        let core =
            Arc::new(UniversalLog::new(Arc::new(Cells::robust(1, 0.5, 11))).checkpoint_every(8));
        let sink = Arc::new(CollectSink::default());
        core.set_slot_sink(Arc::clone(&sink) as Arc<dyn SlotSink>);
        std::thread::scope(|s| {
            for p in 0..4u16 {
                let core = Arc::clone(&core);
                s.spawn(move || {
                    let mut h = Handle::new(core, p, Counter::default());
                    for _ in 0..20 {
                        h.invoke(Counter::add_op(1));
                    }
                });
            }
        });
        let slots = sink.slots.lock();
        assert!(slots.len() >= 80, "sank {} slots", slots.len());
        for (i, (slot, ..)) in slots.iter().enumerate() {
            assert_eq!(*slot, i, "slots arrived out of order or duplicated");
        }
        // Every checkpoint arrived after all the slots it covers.
        let ckpts = sink.ckpts.lock();
        assert!(!ckpts.is_empty(), "no checkpoint reached the sink");
        for (slot, ..) in ckpts.iter() {
            assert!(slots.iter().any(|(s, ..)| s + 1 == *slot));
        }
    }

    #[test]
    fn recovery_reconstructs_state_from_sunk_records() {
        // Run a workload on one log, collect its decided records, then
        // rebuild a second log by re-ingesting them — the recovered
        // replica must expose the same state and digest.
        let core = Arc::new(UniversalLog::new(Arc::new(Cells::reliable())).checkpoint_every(4));
        let sink = Arc::new(CollectSink::default());
        core.set_slot_sink(Arc::clone(&sink) as Arc<dyn SlotSink>);
        let mut h = Handle::new(Arc::clone(&core), 3, Counter::default());
        for i in 0..10 {
            h.invoke(Counter::add_op(i));
        }
        h.invoke_many(&[Counter::add_op(100), Counter::add_op(200)]);
        let want = h.state().value();
        let want_digest = h.digest();

        let core2 = Arc::new(UniversalLog::new(Arc::new(Cells::reliable())).checkpoint_every(4));
        let mut r = Handle::new(Arc::clone(&core2), 1000, Counter::default());
        for (_, opid, record, digest_after) in sink.slots.lock().iter() {
            assert!(r.ingest_recovered(*opid, record.clone()));
            assert_eq!(r.digest(), *digest_after, "digest mismatch mid-replay");
        }
        assert_eq!(r.state().value(), want);
        assert_eq!(r.digest(), want_digest);
        // The original proposer's (pid, seq) space is reserved: a new
        // handle for pid 3 mints fresh opids above the replayed floor.
        drop(r);
        let mut h2 = Handle::new(core2, 3, Counter::default());
        h2.catch_up();
        assert_eq!(h2.state().value(), want);
        h2.invoke(Counter::add_op(1));
        assert_eq!(h2.state().value(), want + 1);
    }

    #[test]
    fn recovery_restores_from_snapshot_and_tail() {
        // Collect a checkpoint plus its tail, seed a fresh log with
        // install_recovered_snapshot, replay only the tail.
        let core = Arc::new(UniversalLog::new(Arc::new(Cells::reliable())).checkpoint_every(4));
        let sink = Arc::new(CollectSink::default());
        core.set_slot_sink(Arc::clone(&sink) as Arc<dyn SlotSink>);
        let mut h = Handle::new(Arc::clone(&core), 0, Counter::default());
        for _ in 0..11 {
            h.invoke(Counter::add_op(2));
        }
        let want = h.state().value();
        let (ckpt_slot, ckpt_digest, words) = {
            let ckpts = sink.ckpts.lock();
            ckpts.last().cloned().expect("a checkpoint was installed")
        };

        let core2 = Arc::new(UniversalLog::new(Arc::new(Cells::reliable())).checkpoint_every(4));
        core2.install_recovered_snapshot(ckpt_slot, ckpt_digest, words);
        let mut r = Handle::new(Arc::clone(&core2), 1000, Counter::default());
        assert_eq!(r.start_slot(), ckpt_slot);
        for (slot, opid, record, _) in sink.slots.lock().iter() {
            if *slot >= ckpt_slot {
                assert!(r.ingest_recovered(*opid, record.clone()));
            }
        }
        assert_eq!(r.state().value(), want);
        assert!(!core2.divergence_detected());
    }

    /// The installed snapshot's `(base words, suffix records, suffix ops)`.
    fn snapshot_shape(core: &UniversalLog) -> (usize, usize, usize) {
        let ckpt = core.ckpt.lock();
        let snap = ckpt.snapshot.as_ref().expect("a snapshot is installed");
        (snap.base.len(), snap.suffix.len(), snap.suffix_ops)
    }

    #[test]
    fn large_batched_states_encode_rarely_and_keep_the_suffix_below_the_base() {
        // 256-op batches of enqueues at interval 4: each boundary adds
        // 1,024 ops, and the base is re-encoded only once the suffix
        // holds as many ops as the base has words.
        let interval = 4;
        let core =
            Arc::new(UniversalLog::new(Arc::new(Cells::reliable())).checkpoint_every(interval));
        let mut h = Handle::new(Arc::clone(&core), 0, FifoQueue::default());
        let mut next = 0u64;
        for slot in 1..=64 * interval {
            let batch: Vec<u64> = (next..next + 256).map(FifoQueue::enq_op).collect();
            next += 256;
            h.invoke_many(&batch);
            if slot.is_multiple_of(interval) {
                let (base, suffix, ops) = snapshot_shape(&core);
                assert!(
                    ops < base,
                    "slot {slot}: suffix {ops} ops, base {base} words"
                );
                assert_eq!(suffix * 256, ops);
                assert!(core.retained_len() <= 2 * interval);
            }
        }
        // 64 installs; the base doubles at each encode, so about log2(64).
        assert_eq!(core.checkpoints_installed(), 64);
        assert!(
            core.snapshots_encoded() <= 8,
            "{} encodes",
            core.snapshots_encoded()
        );
        // A fresh replica (base + suffix + tail) matches the writer.
        let mut fresh = Handle::new(Arc::clone(&core), 1, FifoQueue::default());
        fresh.catch_up();
        assert_eq!(fresh.state(), h.state());
        assert_eq!(fresh.digest(), h.digest());
    }

    /// A sink that sees every boundary and asks for the words only at
    /// every `rotate_every`-th one, as a WAL that rotates rarely does.
    struct RotatingSink {
        rotate_every: usize,
        seen: Mutex<Vec<usize>>,
        asked: Mutex<Vec<(usize, Vec<u64>)>>,
    }

    impl SlotSink for RotatingSink {
        fn slot_decided(&self, _: usize, _: u32, _: &SlotRecord, _: u64) {}

        fn checkpoint_installed(&self, slot: usize, _: u64, words: &CheckpointWords<'_>) {
            let mut seen = self.seen.lock();
            seen.push(slot);
            if seen.len().is_multiple_of(self.rotate_every) {
                self.asked.lock().push((slot, words.get().to_vec()));
            }
        }
    }

    #[test]
    fn a_sink_sees_every_boundary_and_encodes_only_when_it_asks() {
        let interval = 4;
        let core =
            Arc::new(UniversalLog::new(Arc::new(Cells::reliable())).checkpoint_every(interval));
        let sink = Arc::new(RotatingSink {
            rotate_every: 5,
            seen: Mutex::new(Vec::new()),
            asked: Mutex::new(Vec::new()),
        });
        core.set_slot_sink(Arc::clone(&sink) as Arc<dyn SlotSink>);
        let mut h = Handle::new(Arc::clone(&core), 0, FifoQueue::default());
        let mut expected = FifoQueue::default();
        for i in 0..40 * interval as u64 {
            h.invoke_many(&[FifoQueue::enq_op(2 * i), FifoQueue::enq_op(2 * i + 1)]);
            if (i + 1).is_multiple_of(interval as u64) {
                expected = h.state().clone();
            }
            if let Some((slot, words)) = sink.asked.lock().last() {
                if *slot == h.applied_to() {
                    // The words are the installing replica at the slot.
                    assert_eq!(Some(words.clone()), expected.encode_snapshot());
                    // ...and became the base: nothing left to replay.
                    assert_eq!(snapshot_shape(&core).1, 0);
                }
            }
        }
        let seen = sink.seen.lock().clone();
        let want: Vec<usize> = (1..=40).map(|b| b * interval).collect();
        assert_eq!(seen, want, "one call per installed boundary, in order");
        assert_eq!(core.checkpoints_installed(), 40);
        // The log's own encodes (base doubling) plus one per ask, less
        // asks landing on a boundary the log had already encoded.
        let asked = sink.asked.lock().len() as u64;
        assert_eq!(asked, 8);
        assert!(
            core.snapshots_encoded() < 40,
            "{}",
            core.snapshots_encoded()
        );
        assert!(core.snapshots_encoded() >= asked);
        let mut fresh = Handle::new(Arc::clone(&core), 1, FifoQueue::default());
        fresh.catch_up();
        assert_eq!(fresh.state(), h.state());
    }

    #[test]
    fn checkpointing_under_concurrency_and_faults() {
        let threads = 4u64;
        let adds_each = 30u64;
        let interval = 8;
        let core = Arc::new(
            UniversalLog::new(Arc::new(Cells::robust(1, 0.5, 7))).checkpoint_every(interval),
        );
        let digests: Vec<Vec<(usize, u64)>> = std::thread::scope(|s| {
            (0..threads)
                .map(|i| {
                    let core = Arc::clone(&core);
                    s.spawn(move || {
                        let mut h = Handle::new(core, i as u16, Counter::default());
                        for _ in 0..adds_each {
                            h.invoke(Counter::add_op(1));
                        }
                        h.boundary_digests().to_vec()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        let views: Vec<&[(usize, u64)]> = digests.iter().map(|d| d.as_slice()).collect();
        assert!(digests_consistent(&views), "boundary digests diverged");
        assert!(!core.divergence_detected());
        assert!(core.checkpoints_installed() >= 1);
        // All workers are gone: truncation catches up to the snapshot.
        assert!(core.truncated_prefix() > 0);
        // A fresh observer (snapshot + tail replay) sees the exact total.
        let mut observer = Handle::new(core, 1000, Counter::default());
        assert_eq!(observer.invoke(Counter::get_op()), threads * adds_each);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::consensus_cell::Cells;
    use crate::object::Replicated;
    use crate::structures::{Counter, FifoQueue, RegisterObject};
    use proptest::prelude::*;

    /// Interleave two handles' invocations per `schedule` (false → handle
    /// A, true → handle B), then sync both and compare replicas.
    fn converges<T: Replicated + PartialEq + std::fmt::Debug>(
        initial: T,
        ops_a: &[u64],
        ops_b: &[u64],
        schedule: &[bool],
        robust: bool,
    ) {
        let factory: Arc<dyn CellFactory> = if robust {
            Arc::new(Cells::robust(1, 0.5, 99))
        } else {
            Arc::new(Cells::reliable())
        };
        let core = Arc::new(UniversalLog::new(factory));
        let mut a = Handle::new(Arc::clone(&core), 0, initial.clone());
        let mut b = Handle::new(Arc::clone(&core), 1, initial);
        let (mut ia, mut ib) = (0usize, 0usize);
        for &pick_b in schedule {
            if pick_b {
                if ib < ops_b.len() {
                    b.invoke(ops_b[ib]);
                    ib += 1;
                }
            } else if ia < ops_a.len() {
                a.invoke(ops_a[ia]);
                ia += 1;
            }
        }
        while ia < ops_a.len() {
            a.invoke(ops_a[ia]);
            ia += 1;
        }
        while ib < ops_b.len() {
            b.invoke(ops_b[ib]);
            ib += 1;
        }
        a.sync();
        b.sync();
        assert_eq!(a.state(), b.state(), "replicas diverged");
        assert!(logs_consistent(&[a.applied_log(), b.applied_log()]));
    }

    fn counter_op() -> impl Strategy<Value = u64> {
        (0u64..100).prop_map(Counter::add_op)
    }

    fn register_op() -> impl Strategy<Value = u64> {
        prop_oneof![
            (0u64..1000).prop_map(RegisterObject::write_op),
            Just(RegisterObject::read_op()),
        ]
    }

    fn queue_op() -> impl Strategy<Value = u64> {
        prop_oneof![
            (0u64..1000).prop_map(FifoQueue::enq_op),
            Just(FifoQueue::deq_op()),
        ]
    }

    /// Run `ops` through one writer in chunks of `batch` (a chunk of
    /// one as a single-op record), then check that a handle created
    /// afterwards — restored from the snapshot's base and suffix, then
    /// caught up — has the writer's state and digest at the same slot.
    fn restore_matches_replay<T: Replicated + PartialEq + std::fmt::Debug>(
        initial: T,
        ops: &[u64],
        batch: usize,
        interval: usize,
    ) {
        let core =
            Arc::new(UniversalLog::new(Arc::new(Cells::reliable())).checkpoint_every(interval));
        let mut writer = Handle::new(Arc::clone(&core), 0, initial.clone());
        for chunk in ops.chunks(batch) {
            match chunk {
                [op] => {
                    writer.invoke(*op);
                }
                _ => {
                    writer.invoke_many(chunk);
                }
            }
        }
        let mut fresh = Handle::new(Arc::clone(&core), 1, initial);
        fresh.catch_up();
        assert_eq!(fresh.applied_to(), writer.applied_to());
        assert_eq!(fresh.state(), writer.state(), "restored state differs");
        assert_eq!(fresh.digest(), writer.digest());
        assert!(digests_consistent(&[
            writer.boundary_digests(),
            fresh.boundary_digests()
        ]));
    }

    fn growing_queue_op() -> impl Strategy<Value = u64> {
        // Four enqueues to a dequeue: the queue outgrows the interval.
        (0u64..1000).prop_map(|x| {
            if x % 5 == 0 {
                FifoQueue::deq_op()
            } else {
                FifoQueue::enq_op(x)
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn restored_queues_match_full_replay(
            ops in proptest::collection::vec(growing_queue_op(), 0..400),
            batch in 1usize..6,
            interval in 2usize..9,
        ) {
            restore_matches_replay(FifoQueue::default(), &ops, batch, interval);
        }

        #[test]
        fn restored_counters_match_full_replay(
            ops in proptest::collection::vec(counter_op(), 0..200),
            batch in 1usize..6,
            interval in 2usize..9,
        ) {
            restore_matches_replay(Counter::default(), &ops, batch, interval);
        }

        #[test]
        fn counters_converge_on_any_interleaving(
            ops_a in proptest::collection::vec(counter_op(), 0..12),
            ops_b in proptest::collection::vec(counter_op(), 0..12),
            schedule in proptest::collection::vec(any::<bool>(), 0..24),
            robust in any::<bool>(),
        ) {
            converges(Counter::default(), &ops_a, &ops_b, &schedule, robust);
        }

        #[test]
        fn registers_converge_on_any_interleaving(
            ops_a in proptest::collection::vec(register_op(), 0..12),
            ops_b in proptest::collection::vec(register_op(), 0..12),
            schedule in proptest::collection::vec(any::<bool>(), 0..24),
        ) {
            converges(RegisterObject::default(), &ops_a, &ops_b, &schedule, false);
        }

        #[test]
        fn queues_converge_on_any_interleaving(
            ops_a in proptest::collection::vec(queue_op(), 0..12),
            ops_b in proptest::collection::vec(queue_op(), 0..12),
            schedule in proptest::collection::vec(any::<bool>(), 0..24),
            robust in any::<bool>(),
        ) {
            converges(FifoQueue::default(), &ops_a, &ops_b, &schedule, robust);
        }
    }
}
