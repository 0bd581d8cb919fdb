//! Per-shard flat-combining cores: batched log appends plus a
//! wait-free read fast path.
//!
//! The universal construction pays a full log pass (one consensus
//! decision, one replay loop) *per operation*. Node-replication-style
//! combining collapses that: clients **publish** pending operations
//! into a per-shard announce array, one client becomes the
//! **combiner**, drains everything pending, and drives the whole drain
//! through the shard's [`UniversalLog`] as a *single* batched append
//! ([`Handle::invoke_many`] — one decided slot carrying a multi-op
//! record, decoded and applied op-by-op on replay, so `Replicated`
//! semantics, checkpoints and digests are unchanged). Results are
//! distributed back to the waiters through their slots.
//!
//! # The protocol
//!
//! Each client owns one [`Slot`] per shard. A slot walks
//! `EMPTY → PENDING → CLAIMED → DONE/FAILED → EMPTY`:
//!
//! * **publish** — the owner writes its ops and releases the slot to
//!   `PENDING`.
//! * **claim** — a combiner CASes `PENDING → CLAIMED` per slot. Claims
//!   are *individually* atomic and taken **without holding any lock**,
//!   so two racing combiners split the pending set instead of
//!   duplicating it, and a combiner that stalls after claiming can
//!   never strand ops it did *not* claim.
//! * **execute** — the combiner locks the shard's shared core replica,
//!   appends one batch record, and unlocks.
//! * **distribute** — per-slot results are written and the slot is
//!   released to `DONE` (or `FAILED` when the shard's log holds
//!   divergence evidence — an error, never wrong data).
//! * **settle** — with every lock released again, the combiner does the
//!   disk I/O its pass left due (a full group-commit batch, a stashed
//!   rotation; see [`crate::wal`]). The log's sink only buffers under
//!   the replica lock, so the shard keeps combining while a batch
//!   syncs.
//!
//! Combiner election is an *advisory* flag: the common case has one
//! combiner per shard, but a waiter whose op stays unclaimed too long
//! **forces** its own pass, bypassing the flag. Correctness never
//! depends on the flag — only the per-slot claim CAS and the log's own
//! consensus cells order operations. Tolerated *cell* faults are
//! absorbed inside the log (the robust constructions).
//!
//! # Combiner crash recovery: the lease/epoch rule
//!
//! A combiner that dies (or stalls indefinitely) between claiming and
//! executing would park exactly the ops it claimed — NR's envelope.
//! The slot word therefore packs an **epoch** next to the state, and
//! three CAS rules close the hole:
//!
//! * **claim** — `(PENDING, e) → (CLAIMED, e)`.
//! * **reclaim** — after a bound, the *owner* of a still-`CLAIMED` slot
//!   takes its op back: `(CLAIMED, e) → (PENDING, e+1)`. The op is
//!   republished under a fresh epoch, up for grabs by any live combiner
//!   (the owner itself forces a pass if the advisory flag is wedged by
//!   the dead combiner).
//! * **seal** — the combiner, already holding the replica write lock
//!   and immediately before executing, pins each claim:
//!   `(CLAIMED, e) → (SEALED, e)`. A slot whose seal CAS fails was
//!   reclaimed and is dropped from the batch.
//!
//! Seal and reclaim race on the *same* word `(CLAIMED, e)`, so exactly
//! one wins: seal-wins ⇒ the original pass applies the op (the owner
//! keeps waiting); reclaim-wins ⇒ the op is excluded from the slow
//! pass's batch and applied exactly once by a later one. Result
//! distribution happens inside the same replica-lock critical section
//! as the seal and the append, so no schedule can observe a sealed but
//! undelivered slot. The rule is model-checked exhaustively by
//! `ff-sim`'s combining model (combiner-crash transition + reclaim:
//! no lost live ops, no double-apply; the seal-less variant provably
//! double-applies), and the DST kill-the-combiner scenario fails at a
//! pinned seed with [`StoreConfig::combiner_lease`](crate::StoreConfig::combiner_lease)
//! off and passes with it on.
//!
//! # The read fast path
//!
//! Every combine pass advances the shared core replica, so the replica
//! is a *versioned snapshot* `(applied_to, state)`. A GET first
//! observes the shard's tail (`slots_created`) and then answers from
//! the core replica **iff** `applied_to >= tail` — no log pass, no
//! consensus invocation, just a read lock and a map lookup. When
//! freshness cannot be proven (the replica lags the observed tail) the
//! GET falls back to the combined path and linearizes through the log
//! like any other op. The freshness rule is checked exhaustively by
//! `ff-sim`'s combining model.

use crate::map::KvMap;
use crate::metrics::Histogram;
use crate::wal::ShardWal;
use ff_universal::{Handle, UniversalLog};
use ff_workload::JsonValue;
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Slot states (see the module docs for the lifecycle). The slot word
/// packs `state | epoch << STATE_BITS`; the epoch advances only on a
/// reclaim, which is what lets the seal CAS reject a stale claim.
const EMPTY: u32 = 0;
const PENDING: u32 = 1;
const CLAIMED: u32 = 2;
const SEALED: u32 = 3;
const DONE: u32 = 4;
const FAILED: u32 = 5;

const STATE_BITS: u32 = 3;
const STATE_MASK: u32 = (1 << STATE_BITS) - 1;

#[inline]
fn pack(state: u32, epoch: u32) -> u32 {
    debug_assert!(state <= STATE_MASK);
    state | epoch << STATE_BITS
}

#[inline]
fn state_of(word: u32) -> u32 {
    word & STATE_MASK
}

#[inline]
fn epoch_of(word: u32) -> u32 {
    word >> STATE_BITS
}

/// Spins in the wait loop before a waiter forces its own combine pass
/// past the advisory flag (the combiner-stall takeover path).
const FORCE_AFTER: u32 = 4096;

/// One client's announce slot on one shard.
///
/// Only the owner writes `ops` (before releasing to `PENDING`) and only
/// the claiming combiner reads them (after winning the claim CAS), so
/// the mutexes are uncontended in time; the atomic `state` word (packed
/// state + epoch) carries the release/acquire edges between owner and
/// combiner.
pub(crate) struct Slot {
    state: AtomicU32,
    ops: Mutex<Vec<u64>>,
    results: Mutex<Vec<u64>>,
}

impl Slot {
    fn new() -> Arc<Self> {
        Arc::new(Slot {
            state: AtomicU32::new(EMPTY),
            ops: Mutex::new(Vec::new()),
            results: Mutex::new(Vec::new()),
        })
    }
}

/// One shard core's counters, on cache lines of their own: a combine
/// pass or a fast-path GET on one shard never writes a line another
/// shard's threads are writing.
#[derive(Debug, Default)]
#[repr(align(128))]
struct ShardCombineStats {
    passes: AtomicU64,
    combined_ops: AtomicU64,
    batch_sizes: Histogram,
    max_batch: AtomicU64,
    fastpath_hits: AtomicU64,
    fastpath_misses: AtomicU64,
    reclaims: AtomicU64,
}

/// Live counters of the combining layer: one padded block per shard
/// core, summed by [`CombineStats::snapshot`]. Everything is a relaxed
/// atomic increment — safe to leave on during a soak.
#[derive(Debug)]
pub struct CombineStats {
    shards: Box<[ShardCombineStats]>,
}

impl CombineStats {
    /// Counters for a store of `shards` shard cores.
    pub fn new(shards: usize) -> Self {
        CombineStats {
            shards: (0..shards).map(|_| ShardCombineStats::default()).collect(),
        }
    }

    fn record_pass(&self, shard: usize, ops: usize) {
        let stats = &self.shards[shard];
        stats.passes.fetch_add(1, Ordering::Relaxed);
        stats.combined_ops.fetch_add(ops as u64, Ordering::Relaxed);
        stats.batch_sizes.record(ops as u64);
        stats.max_batch.fetch_max(ops as u64, Ordering::Relaxed);
    }

    fn record_fastpath(&self, shard: usize, hit: bool) {
        let stats = &self.shards[shard];
        if hit {
            stats.fastpath_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            stats.fastpath_misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn record_reclaim(&self, shard: usize) {
        self.shards[shard].reclaims.fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time snapshot, summed over shards.
    pub fn snapshot(&self) -> CombineSnapshot {
        let sum = |counter: fn(&ShardCombineStats) -> &AtomicU64| -> u64 {
            self.shards
                .iter()
                .map(|s| counter(s).load(Ordering::Relaxed))
                .sum()
        };
        let passes = sum(|s| &s.passes);
        let combined_ops = sum(|s| &s.combined_ops);
        let batch_sizes = Histogram::default();
        for s in self.shards.iter() {
            batch_sizes.absorb(&s.batch_sizes);
        }
        CombineSnapshot {
            passes,
            combined_ops,
            mean_batch: if passes > 0 {
                combined_ops as f64 / passes as f64
            } else {
                0.0
            },
            p50_batch: batch_sizes.quantile(0.50),
            p95_batch: batch_sizes.quantile(0.95),
            max_batch: self
                .shards
                .iter()
                .map(|s| s.max_batch.load(Ordering::Relaxed))
                .max()
                .unwrap_or(0),
            fastpath_hits: sum(|s| &s.fastpath_hits),
            fastpath_misses: sum(|s| &s.fastpath_misses),
            reclaims: sum(|s| &s.reclaims),
        }
    }
}

/// Point-in-time summary of [`CombineStats`], ready for reports/JSON.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CombineSnapshot {
    /// Combine passes (batched log appends).
    pub passes: u64,
    /// Operations drained through combiners.
    pub combined_ops: u64,
    /// Mean ops per pass.
    pub mean_batch: f64,
    /// Median batch size (upper bucket bound).
    pub p50_batch: u64,
    /// 95th-percentile batch size (upper bucket bound).
    pub p95_batch: u64,
    /// Largest single pass.
    pub max_batch: u64,
    /// GETs answered from a fresh replica snapshot (no log pass).
    pub fastpath_hits: u64,
    /// GETs that fell back to the combined path (freshness unprovable).
    pub fastpath_misses: u64,
    /// Ops taken back from a stalled or dead combiner by their owner
    /// (the lease/epoch reclaim rule firing).
    pub reclaims: u64,
}

impl CombineSnapshot {
    /// Fraction of GETs the wait-free read path answered.
    pub fn hit_rate(&self) -> f64 {
        let total = self.fastpath_hits + self.fastpath_misses;
        if total == 0 {
            0.0
        } else {
            self.fastpath_hits as f64 / total as f64
        }
    }

    /// Serialize for bench JSON.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("passes", self.passes.into()),
            ("combined_ops", self.combined_ops.into()),
            ("mean_batch", self.mean_batch.into()),
            ("p50_batch", self.p50_batch.into()),
            ("p95_batch", self.p95_batch.into()),
            ("max_batch", self.max_batch.into()),
            ("fastpath_hits", self.fastpath_hits.into()),
            ("fastpath_misses", self.fastpath_misses.into()),
            ("fastpath_hit_rate", self.hit_rate().into()),
            ("reclaims", self.reclaims.into()),
        ])
    }
}

/// The shared core replica plus the buffers a combine pass fills, kept
/// beside it so they are reused under the same write lock instead of
/// being allocated per pass.
struct CoreReplica {
    handle: Handle<KvMap>,
    /// The sealed units' op words, concatenated.
    words: Vec<u64>,
    /// Ops per sealed unit, in `words` order.
    counts: Vec<usize>,
    /// One response per word.
    resps: Vec<u64>,
}

/// One shard's combining core: the announce-slot registry, the shared
/// core replica, and the advisory combiner flag.
pub(crate) struct ShardCore {
    shard: usize,
    log: Arc<UniversalLog>,
    /// The shared replica every combine pass drives forward. Write =
    /// combiner executing; read = wait-free GET snapshot.
    replica: RwLock<CoreReplica>,
    /// Registered announce slots (one per live client).
    slots: RwLock<Vec<Arc<Slot>>>,
    /// The emptied claim list of the last finished pass, for the next
    /// one to fill (a pass that finds it taken allocates its own).
    spare_claims: Mutex<Vec<(Arc<Slot>, u32)>>,
    /// Advisory single-combiner flag; correctness never depends on it.
    combiner_busy: AtomicBool,
    /// Owner reclaim of `CLAIMED` slots enabled (the lease rule). Off,
    /// a dead combiner parks its claims forever — the pinned-seed DST
    /// regression arm.
    lease: bool,
    /// Polls a waiter tolerates a `CLAIMED` slot before reclaiming.
    reclaim_after: u32,
    stats: Arc<CombineStats>,
    /// The shard's WAL writer, when durability is on: the log's sink
    /// only buffers under the replica lock, and each pass settles the
    /// disk I/O that leaves due after letting the lock go.
    wal: Option<Arc<ShardWal>>,
    /// Test-only combiner-stall injection point, fired between the
    /// claim phase and the execute phase.
    #[cfg(test)]
    park: Mutex<Option<ParkHook>>,
}

/// What one poll of a published slot found.
pub(crate) enum SlotPoll {
    /// Delivered: the poller's buffer now holds one response word per
    /// published op.
    Ready,
    /// Delivered as divergence evidence (an error, never wrong data).
    Failed,
    /// Still `PENDING` — unclaimed, the poller may combine it itself.
    Pending,
    /// Some combiner holds the claim (it will deliver, or the lease
    /// rule will take the op back).
    Claimed,
}

/// A claim set taken by [`ShardCore::begin_combine`] and executed by
/// [`ShardCore::finish_combine`]. Dropping it without finishing models
/// a combiner crash exactly: the claims stay `CLAIMED` (no `Drop`
/// cleanup on purpose) until their owners reclaim them.
pub(crate) struct CombinePass {
    claimed: Vec<(Arc<Slot>, u32)>,
    forced: bool,
}

/// Test-only hook parked between claim and execute (takes the shard).
#[cfg(test)]
type ParkHook = Box<dyn Fn(usize) + Send + Sync>;

impl ShardCore {
    pub(crate) fn new(
        shard: usize,
        log: Arc<UniversalLog>,
        wal: Option<Arc<ShardWal>>,
        pid: u16,
        stats: Arc<CombineStats>,
        lease: bool,
        reclaim_after: u32,
    ) -> Self {
        let handle = Handle::new(Arc::clone(&log), pid, KvMap::default());
        ShardCore {
            shard,
            log,
            replica: RwLock::new(CoreReplica {
                handle,
                words: Vec::new(),
                counts: Vec::new(),
                resps: Vec::new(),
            }),
            slots: RwLock::new(Vec::new()),
            spare_claims: Mutex::new(Vec::new()),
            combiner_busy: AtomicBool::new(false),
            lease,
            reclaim_after,
            stats,
            wal,
            #[cfg(test)]
            park: Mutex::new(None),
        }
    }

    /// Register a new client's announce slot.
    pub(crate) fn register(&self) -> Arc<Slot> {
        let slot = Slot::new();
        self.slots.write().push(Arc::clone(&slot));
        slot
    }

    /// Remove a dropped client's slot (it must be `EMPTY` — calls are
    /// synchronous, so a live call pins the client).
    pub(crate) fn unregister(&self, slot: &Arc<Slot>) {
        self.slots.write().retain(|s| !Arc::ptr_eq(s, slot));
    }

    /// Run `f` over the core replica, caught up to the end of the
    /// shard's log, with the replica write lock held throughout
    /// (verification only). Every propose on this shard takes that lock,
    /// so `f` sees a log nobody is appending to even while clients run.
    pub(crate) fn audit<R>(&self, f: impl FnOnce(&Handle<KvMap>) -> R) -> R {
        let mut replica = self.replica.write();
        // Until a pass applies nothing: a catch-up can itself decide a
        // trailing undecided cell (with an inert dummy), which then has
        // to be applied.
        while replica.handle.catch_up() > 0 {}
        f(&replica.handle)
    }

    #[cfg(test)]
    pub(crate) fn set_park_hook(&self, hook: impl Fn(usize) + Send + Sync + 'static) {
        *self.park.lock() = Some(Box::new(hook));
    }

    fn park_point(&self) {
        #[cfg(test)]
        {
            // Take the hook out and *drop the lock* before running it:
            // the hook blocks (that is its job), and another combiner
            // must still be able to pass this point.
            let hook = self.park.lock().take();
            if let Some(hook) = hook {
                hook(self.shard);
            }
        }
    }

    /// The wait-free GET snapshot: observe the shard's tail, then
    /// answer from the core replica iff it has provably applied at
    /// least that far. `Ok(None)`-style misses return `None` (caller
    /// falls back to the combined path); divergence evidence surfaces
    /// as `Some(Err(shard))` so a corrupted shard refuses rather than
    /// answering from a broken log.
    pub(crate) fn fast_get(&self, key: u32) -> Option<Result<Option<u32>, usize>> {
        if self.log.divergence_detected() {
            return Some(Err(self.shard));
        }
        // `slots_created` counts every cell ever minted — a conservative
        // upper bound on the decided tail, so freshness proven against
        // it covers every operation that completed before this read
        // began (a completed op's slot is decided, hence created). It
        // is one atomic load: the log publishes its tail.
        let tail = self.log.slots_created();
        let replica = self.replica.read();
        if replica.handle.applied_to() >= tail {
            self.stats.record_fastpath(self.shard, true);
            Some(Ok(replica.handle.state().peek(key)))
        } else {
            drop(replica);
            self.stats.record_fastpath(self.shard, false);
            None
        }
    }

    /// Publish `ops` as one pending unit (non-blocking). The slot must
    /// be `EMPTY` — one in-flight unit per slot.
    pub(crate) fn publish(&self, mine: &Arc<Slot>, ops: &[u64]) {
        debug_assert!(!ops.is_empty());
        {
            let mut slot_ops = mine.ops.lock();
            slot_ops.clear();
            slot_ops.extend_from_slice(ops);
        }
        let word = mine.state.load(Ordering::Relaxed);
        debug_assert_eq!(state_of(word), EMPTY, "publish into a non-empty slot");
        mine.state
            .store(pack(PENDING, epoch_of(word)), Ordering::Release);
    }

    /// Whether `mine` currently holds an in-flight (non-`EMPTY`) unit.
    pub(crate) fn in_flight(&self, mine: &Arc<Slot>) -> bool {
        state_of(mine.state.load(Ordering::Acquire)) != EMPTY
    }

    /// One non-blocking look at a published slot. `waited` is how many
    /// polls the owner has already spent on this unit: past the reclaim
    /// bound, a still-`CLAIMED` op is taken back from its (stalled or
    /// dead) combiner and republished under a fresh epoch — the lease
    /// rule. Returns what the poll found; `Ready`/`Failed` consume the
    /// unit and release the slot. On `Ready` the responses are in
    /// `out`: it is swapped with the slot's result buffer, so both keep
    /// their capacity and a steady caller never allocates.
    pub(crate) fn poll(&self, mine: &Arc<Slot>, waited: u32, out: &mut Vec<u64>) -> SlotPoll {
        let word = mine.state.load(Ordering::Acquire);
        match state_of(word) {
            DONE => {
                std::mem::swap(out, &mut *mine.results.lock());
                mine.state
                    .store(pack(EMPTY, epoch_of(word)), Ordering::Release);
                SlotPoll::Ready
            }
            FAILED => {
                mine.state
                    .store(pack(EMPTY, epoch_of(word)), Ordering::Release);
                SlotPoll::Failed
            }
            PENDING => SlotPoll::Pending,
            CLAIMED if self.lease && waited >= self.reclaim_after => {
                // Reclaim: CAS on the exact (CLAIMED, e) word, racing
                // the combiner's seal on the same word — exactly one
                // wins, so the op cannot be both republished and kept
                // in the stale batch.
                if mine
                    .state
                    .compare_exchange(
                        word,
                        pack(PENDING, epoch_of(word).wrapping_add(1)),
                        Ordering::AcqRel,
                        Ordering::Relaxed,
                    )
                    .is_ok()
                {
                    self.stats.record_reclaim(self.shard);
                    SlotPoll::Pending
                } else {
                    SlotPoll::Claimed
                }
            }
            _ => SlotPoll::Claimed,
        }
    }

    /// Claim phase of a combine pass: CAS every `PENDING` slot to
    /// `CLAIMED` (remembering its epoch). Returns `None` when the
    /// advisory flag was held (`force` bypasses it) or nothing was
    /// pending. Dropping the returned pass without
    /// [`ShardCore::finish_combine`] models a combiner crash.
    pub(crate) fn begin_combine(&self, force: bool) -> Option<CombinePass> {
        if !force
            && self
                .combiner_busy
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
        {
            return None;
        }
        // Claim phase — lock-free with respect to other combiners: each
        // slot moves (PENDING, e) → (CLAIMED, e) by CAS, so racing
        // combiners split the pending set and no op is taken twice.
        let mut claimed = std::mem::take(&mut *self.spare_claims.lock());
        {
            let slots = self.slots.read();
            for s in slots.iter() {
                let word = s.state.load(Ordering::Acquire);
                if state_of(word) == PENDING
                    && s.state
                        .compare_exchange(
                            word,
                            pack(CLAIMED, epoch_of(word)),
                            Ordering::AcqRel,
                            Ordering::Relaxed,
                        )
                        .is_ok()
                {
                    claimed.push((Arc::clone(s), epoch_of(word)));
                }
            }
        }
        self.park_point();
        if claimed.is_empty() {
            *self.spare_claims.lock() = claimed;
            if !force {
                self.combiner_busy.store(false, Ordering::Release);
            }
            return None;
        }
        Some(CombinePass {
            claimed,
            forced: force,
        })
    }

    /// Execute-and-distribute phase of a combine pass. Seals every
    /// still-held claim under the replica write lock, appends the
    /// sealed ops as one batched log record, and distributes results —
    /// all inside the same critical section, so a pass that runs at all
    /// runs to delivery — then, with no lock held, settles the WAL I/O
    /// the pass left due. Returns whether any ops were drained.
    pub(crate) fn finish_combine(&self, pass: CombinePass) -> bool {
        let CombinePass {
            mut claimed,
            forced,
        } = pass;
        let drained = {
            let mut replica = self.replica.write();
            let CoreReplica {
                handle,
                words,
                counts,
                resps,
            } = &mut *replica;
            // Seal: pin each claim with a CAS on its exact (CLAIMED, e)
            // word. A failed seal means the owner reclaimed the op — it
            // is someone else's to apply now, so it leaves the batch.
            claimed.retain(|(s, e)| {
                s.state
                    .compare_exchange(
                        pack(CLAIMED, *e),
                        pack(SEALED, *e),
                        Ordering::AcqRel,
                        Ordering::Relaxed,
                    )
                    .is_ok()
            });
            if claimed.is_empty() {
                false
            } else {
                words.clear();
                counts.clear();
                for (s, _) in &claimed {
                    let ops = s.ops.lock();
                    words.extend_from_slice(&ops);
                    counts.push(ops.len());
                }
                // Execute — one decided slot for the whole drain.
                handle.invoke_many_into(words, resps);
                let diverged = self.log.divergence_detected();
                self.stats.record_pass(self.shard, words.len());
                // Distribute, still under the lock: a sealed op is
                // always delivered by the pass that sealed it.
                let mut off = 0;
                for ((s, e), n) in claimed.iter().zip(counts.iter()) {
                    {
                        let mut out = s.results.lock();
                        out.clear();
                        out.extend_from_slice(&resps[off..off + n]);
                    }
                    off += n;
                    s.state.store(
                        pack(if diverged { FAILED } else { DONE }, *e),
                        Ordering::Release,
                    );
                }
                true
            }
        };
        claimed.clear();
        *self.spare_claims.lock() = claimed;
        if !forced {
            self.combiner_busy.store(false, Ordering::Release);
        }
        // Group commit and rotation, with the replica, the claims and
        // the combiner flag all released: the shard keeps deciding (and
        // answering) ops while this thread waits for the disk.
        if let Some(wal) = &self.wal {
            wal.settle();
        }
        drained
    }

    /// Publish `ops` as one pending unit and wait for a combiner
    /// (possibly this caller) to execute and deliver. Leaves one
    /// response word per op in `out`, or returns the shard index on
    /// divergence. Built on the same publish/poll/begin/finish
    /// primitives the split-phase (simulation-drivable) API exposes.
    pub(crate) fn submit(
        &self,
        mine: &Arc<Slot>,
        ops: &[u64],
        out: &mut Vec<u64>,
    ) -> Result<(), usize> {
        self.publish(mine, ops);
        let mut spins = 0u32;
        loop {
            match self.poll(mine, spins, out) {
                SlotPoll::Ready => return Ok(()),
                SlotPoll::Failed => return Err(self.shard),
                // Unclaimed: try to combine it ourselves — advisory
                // first, forced once the current combiner has had
                // ample time (it may have stalled after claiming a
                // disjoint set, or died holding the advisory flag; our
                // op is still up for grabs).
                SlotPoll::Pending => {
                    if self.combine(false) || (spins > FORCE_AFTER && self.combine(true)) {
                        continue;
                    }
                }
                // Claimed: a combiner owns it and will deliver (or the
                // poll above reclaims once `spins` passes the bound).
                SlotPoll::Claimed => {}
            }
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(64) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// One full combine pass (claim + execute + distribute). Returns
    /// whether any ops were drained. `force` bypasses the advisory flag
    /// (the stalled-combiner takeover path).
    fn combine(&self, force: bool) -> bool {
        match self.begin_combine(force) {
            Some(pass) => self.finish_combine(pass),
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Backend, Kv, KvOp, Store, StoreConfig, StoreError};
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    fn combining_store(backend: Backend, shards: usize) -> Store {
        Store::new(
            StoreConfig::builder()
                .shards(shards)
                .backend(backend)
                .checkpoint_interval(16)
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn combined_round_trip_and_verify() {
        let store = combining_store(Backend::reliable(), 4);
        let mut c = store.client();
        assert_eq!(c.put(1, 10).unwrap(), None);
        assert_eq!(c.put(1, 20).unwrap(), Some(10));
        assert_eq!(c.get(1).unwrap(), Some(20));
        assert_eq!(c.del(1).unwrap(), Some(20));
        assert_eq!(c.get(1).unwrap(), None);
        assert!(store.verify(&mut [c]).all_consistent());
        let stats = store.combine_snapshot().unwrap();
        assert!(stats.passes > 0, "no combine passes recorded");
    }

    #[test]
    fn read_fast_path_hits_when_replica_is_fresh() {
        let store = combining_store(Backend::reliable(), 1);
        let mut c = store.client();
        c.put(7, 70).unwrap();
        // The put's own combine pass advanced the core replica to the
        // tail, so this GET must be a snapshot hit, not a log pass.
        let slots_before = store.shard_log(0).slots_created();
        assert_eq!(c.get(7).unwrap(), Some(70));
        assert_eq!(
            store.shard_log(0).slots_created(),
            slots_before,
            "fast-path GET appended to the log"
        );
        let stats = store.combine_snapshot().unwrap();
        assert!(stats.fastpath_hits >= 1, "{stats:?}");
    }

    #[test]
    fn parked_combiner_is_taken_over_without_dropping_ops() {
        // Adversary: client A claims its op and parks mid-drain (between
        // claim and execute). Client B must take over — B's op was not
        // claimed — complete, and when A resumes, A's claimed op must
        // complete too: nothing dropped, nothing duplicated.
        let store = std::sync::Arc::new(combining_store(Backend::reliable(), 1));
        let gate = std::sync::Arc::new(Barrier::new(2));
        let parked = std::sync::Arc::new(AtomicUsize::new(0));
        {
            let gate = std::sync::Arc::clone(&gate);
            let parked = std::sync::Arc::clone(&parked);
            store.shard_core_for_tests(0).set_park_hook(move |_| {
                parked.fetch_add(1, Ordering::SeqCst);
                gate.wait(); // .. b published
                gate.wait(); // .. b completed
            });
        }
        let a_result = std::thread::scope(|scope| {
            let a = {
                let store = std::sync::Arc::clone(&store);
                scope.spawn(move || {
                    let mut a = store.client();
                    // The hook is armed: A's own combine pass parks
                    // after claiming A's put.
                    a.put(1, 11).unwrap()
                })
            };
            // Wait until A is parked holding its claim.
            while parked.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
            let mut b = store.client();
            gate.wait();
            // B combines for itself despite A's advisory flag being
            // held (the forced-takeover path) — B must complete while A
            // is still parked.
            assert_eq!(b.put(2, 22).unwrap(), None);
            assert_eq!(b.get(2).unwrap(), Some(22));
            gate.wait(); // release A
            a.join().unwrap()
        });
        assert_eq!(a_result, None, "A's put must have applied exactly once");
        let mut c = store.client();
        assert_eq!(c.get(1).unwrap(), Some(11));
        assert_eq!(c.get(2).unwrap(), Some(22));
        assert!(store.verify(&mut [c]).all_consistent());
    }

    #[test]
    fn reclaim_cannot_double_apply_against_a_resuming_combiner() {
        // The seal/reclaim race, driven deterministically through the
        // split-phase API: A claims both pending units and stalls
        // (models a combiner killed between claim and execute); B
        // outwaits the lease bound, reclaims its op, and force-combines
        // it past A's wedged advisory flag. When A resumes, the seal on
        // B's slot must fail — B's op was someone else's to apply — so
        // each op applies exactly once.
        let store = Store::new(
            StoreConfig::builder()
                .shards(1)
                .backend(Backend::reliable())
                .reclaim_after(4)
                .build()
                .unwrap(),
        );
        let mut a = store.client();
        let mut b = store.client();
        let mut pa = a.publish_to_shard(0, &[KvOp::Put(1, 11)]).unwrap();
        let mut pb = b.publish_to_shard(0, &[KvOp::Put(2, 22)]).unwrap();
        let ticket = a.combine_begin(0, false).expect("nothing was pending");
        // B's first polls find the unit claimed; past the bound the
        // embedded reclaim republishes it under a fresh epoch.
        for _ in 0..8 {
            assert!(b.poll_published(&mut pb).unwrap().is_none());
        }
        assert!(
            b.combine_begin(0, false).is_none(),
            "the stalled pass still holds the advisory flag"
        );
        let tb = b.combine_begin(0, true).expect("reclaimed op not pending");
        assert!(b.combine_finish(tb));
        assert_eq!(b.poll_published(&mut pb).unwrap(), Some(vec![None]));
        // A resumes its stale pass: B's slot drops out via the failed
        // seal CAS, A's own op still applies.
        assert!(a.combine_finish(ticket));
        assert_eq!(a.poll_published(&mut pa).unwrap(), Some(vec![None]));
        let stats = store.combine_snapshot().unwrap();
        assert!(stats.reclaims >= 1, "{stats:?}");
        assert_eq!(stats.combined_ops, 2, "an op was applied twice: {stats:?}");
        let mut c = store.client();
        assert_eq!(c.get(1).unwrap(), Some(11));
        assert_eq!(c.get(2).unwrap(), Some(22));
        assert!(store.verify(&mut [a, b, c]).all_consistent());
    }

    #[test]
    fn without_lease_a_dead_combiner_parks_claimed_ops() {
        // The ROADMAP bug the lease rule fixes, pinned at unit level
        // (the DST kill-the-combiner scenario pins it at whole-system
        // level): with `combiner_lease(false)`, an op claimed by a dead
        // combiner is stuck — no amount of polling reclaims it, and a
        // forced takeover pass finds nothing pending to drain.
        let store = Store::new(
            StoreConfig::builder()
                .shards(1)
                .backend(Backend::reliable())
                .combiner_lease(false)
                .reclaim_after(4)
                .build()
                .unwrap(),
        );
        let mut a = store.client();
        let mut b = store.client();
        let mut pa = a.publish_to_shard(0, &[KvOp::Put(1, 11)]).unwrap();
        let mut pb = b.publish_to_shard(0, &[KvOp::Put(2, 22)]).unwrap();
        let ticket = a.combine_begin(0, false).expect("nothing was pending");
        for _ in 0..64 {
            assert!(
                b.poll_published(&mut pb).unwrap().is_none(),
                "parked op delivered with the lease off"
            );
        }
        assert!(
            b.combine_begin(0, true).is_none(),
            "a CLAIMED op must not be re-claimable without the lease"
        );
        // Only the original combiner resuming can unpark the ops.
        assert!(a.combine_finish(ticket));
        assert_eq!(a.poll_published(&mut pa).unwrap(), Some(vec![None]));
        assert_eq!(b.poll_published(&mut pb).unwrap(), Some(vec![None]));
    }

    /// The acceptance claim, kind by kind: combining is a submission
    /// path, not a tolerance envelope — under each fault kind the robust
    /// backend tolerates, concurrent clients end with every replica
    /// verified consistent.
    #[test]
    fn every_tolerated_fault_kind_verifies_with_combining() {
        for kind in [
            ff_spec::FaultKind::Overriding,
            ff_spec::FaultKind::Silent,
            ff_spec::FaultKind::Arbitrary,
        ] {
            let store = std::sync::Arc::new(Store::new(
                StoreConfig::builder()
                    .shards(2)
                    .backend(Backend::robust())
                    .fault(crate::FaultConfig {
                        kind,
                        rate: 0.3,
                        // Silent faults are only tolerable on a finite
                        // budget (unbounded silent = nontermination).
                        t: ff_spec::Bound::Finite(3),
                        ..crate::FaultConfig::default()
                    })
                    .checkpoint_interval(16)
                    .build()
                    .unwrap(),
            ));
            let mut clients: Vec<_> = std::thread::scope(|scope| {
                (0..3u32)
                    .map(|w| {
                        let store = std::sync::Arc::clone(&store);
                        scope.spawn(move || {
                            let mut c = store.client();
                            for i in 0..150u32 {
                                let key = (w * 500 + i) % 61;
                                match i % 3 {
                                    0 => {
                                        c.put(key, i).unwrap();
                                    }
                                    1 => {
                                        c.get(key).unwrap();
                                    }
                                    _ => {
                                        c.del(key).unwrap();
                                    }
                                }
                            }
                            c
                        })
                    })
                    .collect::<Vec<_>>()
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .collect()
            });
            let report = store.verify(&mut clients);
            assert!(
                report.all_consistent(),
                "{kind:?}: diverged shards {:?}",
                report.diverged_shards()
            );
        }
    }

    #[test]
    fn corruption_is_detected_through_the_combined_path() {
        // Arbitrary-faulting naive cells corrupt the log even against a
        // single serialized proposer (combining funnels every propose
        // through the core replica, so overriding faults — which need
        // racing proposes — cannot fire here). Combining must never
        // hide the corruption: it surfaces mid-run as a `Divergence`
        // error (a decided cell resolves to junk with no announce
        // record) or at verification.
        const INTERVAL: usize = 8;
        let mut saw_detection = false;
        for seed in 0..20 {
            let store = std::sync::Arc::new(Store::new(
                StoreConfig::builder()
                    .shards(1)
                    .backend(Backend::naive())
                    .fault(crate::FaultConfig {
                        kind: ff_spec::FaultKind::Arbitrary,
                        rate: 1.0,
                        ..crate::FaultConfig::default()
                    })
                    .checkpoint_interval(INTERVAL)
                    .seed(seed)
                    .build()
                    .unwrap(),
            ));
            let errors: Vec<Option<StoreError>> = std::thread::scope(|scope| {
                (0..3u32)
                    .map(|w| {
                        let store = std::sync::Arc::clone(&store);
                        scope.spawn(move || {
                            let mut c = store.client();
                            for i in 0..40 {
                                if let Err(e) = c.put((w * 100 + i) % 50, i) {
                                    return Some(e);
                                }
                            }
                            None
                        })
                    })
                    .collect::<Vec<_>>()
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .collect()
            });
            let mut mid_run = errors
                .iter()
                .flatten()
                .any(|e| matches!(e, StoreError::Divergence { .. }));
            // Verify's observer re-decides only the slots the log still
            // retains, and a tail that sits exactly on a checkpoint
            // boundary retains none: three threads whose puts never
            // share a pass make 120 = 15 x 8 slots. Step off the
            // boundary, so the outcome does not hang on thread overlap.
            let mut c = store.client();
            while !mid_run && store.shard_log(0).slots_created().is_multiple_of(INTERVAL) {
                mid_run = matches!(c.put(0, 0), Err(StoreError::Divergence { .. }));
            }
            let at_verify = !store.verify(&mut [c]).all_consistent();
            if mid_run || at_verify {
                saw_detection = true;
                break;
            }
        }
        assert!(
            saw_detection,
            "naive cells at 100% fault rate were never detected via combining"
        );
    }
}
