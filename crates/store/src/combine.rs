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
//! semantics, checkpoints and digests are unchanged).
//!
//! # The protocol
//!
//! Each client owns one `Slot` per shard: a state/epoch word plus the
//! unit's op and result buffers. The word protocol — publish, claim,
//! seal, deliver, the lease reclaim and the advisory combiner flag — is
//! the step machines of `slot.rs`; `ShardCore::run` is the only
//! code here that touches those words. Claims are taken without any
//! lock, so racing combiners split the pending set. The replica lock is
//! held only to execute: append the sealed units as one record, publish
//! `applied`, fill the result buffers. Then the pass delivers, releases
//! the flag and, with no lock held, settles the disk I/O it left due
//! (see [`crate::wal`]). A waiter whose op stays unclaimed too long
//! **forces** its own pass past the flag; correctness rests only on the
//! claim and seal compare-exchanges and the log's consensus cells.
//!
//! A blocking caller (`ShardCore::submit`) that wins the flag runs a
//! **direct pass**: its unit is never published and rides at its slot's
//! registry position, so the batch — and every WAL frame and simulator
//! trace — is the one the published unit would have made. Every pass
//! executes in one routine (`ShardCore::execute`), whose counters are
//! plain load-and-store: they are only written under the replica lock.
//! The claim list belongs to the caller ([`crate::StoreClient`] reuses
//! one per client). The DST kill-the-combiner scenario fails at a pinned
//! seed with [`StoreConfig::combiner_lease`](crate::StoreConfig::combiner_lease)
//! off and passes with it on.
//!
//! # The read fast path
//!
//! A GET observes the shard's tail (`slots_created`) and answers from
//! the core replica **iff** its `applied_to >= tail` — no log pass, no
//! consensus and no lock: each pass (and each audit) publishes the
//! replica's `applied_to` with a release store once it has applied its
//! batch, and the replica's map is a table of atomic words (see
//! [`crate::map`]) the combiner writes with plain stores. A GET
//! acquires the published index, checks it against the tail and its
//! cached table against retirement, and looks the key up: a table is at
//! least as new as the published index. A read inside a pass, or on a
//! retired table, takes the replica lock, checks freshness against the
//! replica itself and refreshes its table; only then does it fall back
//! to the combined path. [`crate::combining`] explores this read
//! against every interleaving of a pass.

use crate::map::{KvMap, KvTable};
use crate::metrics::Histogram;
use crate::slot::{
    Machine, Owner, Pass, Passed, Polled, Protocol, Rule, SlotOp, Step, Word, END, MINE,
};
use crate::wal::ShardWal;
use ff_universal::{Handle, UniversalLog};
use ff_workload::JsonValue;
use parking_lot::Mutex;
use std::sync::atomic::Ordering::{AcqRel, Acquire, Release};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Spins in the wait loop before a waiter forces its own combine pass
/// past the advisory flag (the combiner-stall takeover path).
const FORCE_AFTER: u32 = 4096;

/// One client's announce slot on one shard: the word the slot machines
/// step on, and the unit's buffers. Only the owner writes `ops` and only
/// the pass that claimed the unit reads them, so the mutexes are
/// uncontended in time; `state` carries the release/acquire edges. A
/// new slot is `EMPTY` at epoch 0, the zero word.
#[derive(Default)]
pub(crate) struct Slot {
    state: AtomicU32,
    ops: Mutex<Vec<u64>>,
    results: Mutex<Vec<u64>>,
    /// The owner's fast-path GET hits on this shard, on a cache line of
    /// their own: only the owner writes it, so a hit never contends
    /// with the shard's other readers (see [`ShardCore::fastpath_hits`]).
    hits: OwnedCounter,
}

/// A counter on its own cache lines.
#[derive(Default)]
#[repr(align(128))]
struct OwnedCounter(AtomicU64);

impl OwnedCounter {
    /// Count one, from the counter's one writer: a load and a store.
    fn bump(&self) {
        self.0
            .store(self.0.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    }
}

/// One shard core's counters, on cache lines of their own: a combine
/// pass or a fast-path miss on one shard never writes a line another
/// shard's threads are writing. (Fast-path hits, the hottest count,
/// go to the reader's own [`Slot`].)
#[derive(Debug, Default)]
#[repr(align(128))]
struct ShardCombineStats {
    passes: AtomicU64,
    combined_ops: AtomicU64,
    batch_sizes: Histogram,
    max_batch: AtomicU64,
    /// Hits of unregistered clients; live ones count in their slots.
    retired_hits: AtomicU64,
    fastpath_misses: AtomicU64,
    reclaims: AtomicU64,
}

/// Live counters of the combining layer: one padded block per shard
/// core, summed by `CombineStats::snapshot`. Everything is a relaxed
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

    /// Count one pass of `ops` ops. Every pass runs under its shard's
    /// replica lock, so these counters have one writer at a time:
    /// a load and a store each, no atomic read-modify-write.
    fn record_pass(&self, shard: usize, ops: usize) {
        let stats = &self.shards[shard];
        let ops = ops as u64;
        let bump = |counter: &AtomicU64, by: u64| {
            counter.store(counter.load(Ordering::Relaxed) + by, Ordering::Relaxed);
        };
        bump(&stats.passes, 1);
        bump(&stats.combined_ops, ops);
        stats.batch_sizes.record_exclusive(ops);
        if ops > stats.max_batch.load(Ordering::Relaxed) {
            stats.max_batch.store(ops, Ordering::Relaxed);
        }
    }

    fn record_fastpath_miss(&self, shard: usize) {
        self.shards[shard]
            .fastpath_misses
            .fetch_add(1, Ordering::Relaxed);
    }

    fn record_reclaim(&self, shard: usize) {
        self.shards[shard].reclaims.fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time snapshot, summed over shards. `live_hits` is the
    /// fast-path hits the registered clients' slots hold (the store
    /// sums them with [`ShardCore::fastpath_hits`]).
    pub(crate) fn snapshot(&self, live_hits: u64) -> CombineSnapshot {
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
            fastpath_hits: live_hits + sum(|s| &s.retired_hits),
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
/// beside it so they are reused under the same lock instead of being
/// allocated per pass.
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
    /// The shared replica every combine pass drives forward, locked by
    /// the combiner executing, by an audit, and by a GET's cold path.
    replica: Mutex<CoreReplica>,
    /// The replica's `applied_to` as of its last pass or audit, stored
    /// with release ordering once the pass has applied its batch: what
    /// a lock-free GET checks freshness against.
    applied: AtomicUsize,
    /// Registered announce slots (one per live client).
    slots: Mutex<Vec<Arc<Slot>>>,
    /// Advisory single-combiner flag; correctness never depends on it.
    combiner_busy: AtomicU32,
    /// The lease rule; off, a dead combiner parks its claims forever.
    lease: bool,
    /// Polls a waiter tolerates a `CLAIMED` slot before reclaiming.
    reclaim_after: u32,
    stats: Arc<CombineStats>,
    /// The shard's WAL writer, when durability is on: the log's sink
    /// buffers under the replica lock; a pass settles the I/O after.
    wal: Option<Arc<ShardWal>>,
    /// Test-only combiner stall, fired before a pass seals.
    #[cfg(test)]
    park: Mutex<Option<ParkHook>>,
}

/// A claimed slot and the epoch its claim was taken under.
pub(crate) type Claim = (Arc<Slot>, u32);

/// A claim set taken by [`ShardCore::begin_combine`] and executed by
/// [`ShardCore::finish_combine`]. Dropping it without finishing models
/// a combiner crash exactly: the claims stay `CLAIMED` (no `Drop`
/// cleanup on purpose) until their owners reclaim them.
pub(crate) struct CombinePass(Pass, Vec<Claim>);

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
            applied: AtomicUsize::new(handle.applied_to()),
            replica: Mutex::new(CoreReplica {
                handle,
                words: Vec::new(),
                counts: Vec::new(),
                resps: Vec::new(),
            }),
            slots: Mutex::new(Vec::new()),
            combiner_busy: AtomicU32::new(0),
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
        let slot = Arc::<Slot>::default();
        self.slots.lock().push(Arc::clone(&slot));
        slot
    }

    /// The core replica's current table, for a new client's cache.
    pub(crate) fn table(&self) -> Arc<KvTable> {
        Arc::clone(self.replica.lock().handle.state().table())
    }

    /// Remove a dropped client's slot (it must be `EMPTY` — calls are
    /// synchronous, so a live call pins the client), keeping its hits.
    pub(crate) fn unregister(&self, slot: &Arc<Slot>) {
        let mut slots = self.slots.lock();
        slots.retain(|s| !Arc::ptr_eq(s, slot));
        // Under the registry lock, so a concurrent sum sees the hits
        // either in the slot or in the retired total, never both.
        self.stats.shards[self.shard]
            .retired_hits
            .fetch_add(slot.hits.0.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Fast-path hits of the clients registered on this shard.
    pub(crate) fn fastpath_hits(&self) -> u64 {
        self.slots
            .lock()
            .iter()
            .map(|s| s.hits.0.load(Ordering::Relaxed))
            .sum()
    }

    /// Run `f` over the core replica, caught up to the end of the
    /// shard's log, with the replica lock held throughout
    /// (verification only). Every propose on this shard takes that lock,
    /// so `f` sees a log nobody is appending to even while clients run.
    pub(crate) fn audit<R>(&self, f: impl FnOnce(&Handle<KvMap>) -> R) -> R {
        let mut replica = self.replica.lock();
        // Until a pass applies nothing: a catch-up can itself decide a
        // trailing undecided cell (with an inert dummy), which then has
        // to be applied.
        while replica.handle.catch_up() > 0 {}
        self.applied
            .store(replica.handle.applied_to(), Ordering::Release);
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
    /// answer from the core replica's table iff the replica has
    /// provably applied at least that far — with no lock and no atomic
    /// read-modify-write. `table` is the caller's cached table of this
    /// shard, refreshed by the cold path when a rebuild retired it.
    /// Misses return `None` (caller falls back to the combined path);
    /// divergence evidence surfaces as `Some(Err(shard))` so a
    /// corrupted shard refuses rather than answering from a broken log.
    pub(crate) fn fast_get(
        &self,
        mine: &Slot,
        table: &mut Arc<KvTable>,
        key: u32,
    ) -> Option<Result<Option<u32>, usize>> {
        if self.log.divergence_detected() {
            return Some(Err(self.shard));
        }
        // `slots_created` counts every cell ever minted: an upper bound
        // on the decided tail, covering every op completed before this
        // read began, in one atomic load.
        let tail = self.log.slots_created();
        // Acquire: every table store of the passes up to `applied` —
        // and the retirement of any table they replaced — is visible
        // from here on.
        if !Protocol::fresh(self.applied.load(Ordering::Acquire), tail) || table.is_retired() {
            return self.locked_get(mine, table, tail, key);
        }
        let value = table.get(key);
        mine.hits.bump();
        Some(Ok(value))
    }

    /// [`Self::fast_get`]'s cold path, for a read that landed inside a
    /// pass or holds a retired table: wait out the pass under the
    /// replica lock, check freshness against the replica itself, and
    /// answer from it, refreshing the cached table.
    #[cold]
    fn locked_get(
        &self,
        mine: &Slot,
        table: &mut Arc<KvTable>,
        tail: usize,
        key: u32,
    ) -> Option<Result<Option<u32>, usize>> {
        let replica = self.replica.lock();
        if !Protocol::fresh(replica.handle.applied_to(), tail) {
            drop(replica);
            self.stats.record_fastpath_miss(self.shard);
            return None;
        }
        let map = replica.handle.state();
        if !Arc::ptr_eq(table, map.table()) {
            *table = Arc::clone(map.table());
        }
        mine.hits.bump();
        Some(Ok(map.peek(key)))
    }

    /// Publish `ops` as one pending unit (non-blocking). Returns false,
    /// writing nothing, when the slot still holds a unit in flight.
    pub(crate) fn publish(&self, mine: &Arc<Slot>, ops: &[u64]) -> bool {
        debug_assert!(!ops.is_empty());
        // Held across the `PENDING` store: a pass that claims the unit
        // reads its ops only once they are written.
        let mut slot_ops = mine.ops.lock();
        let published = self.run(&mut Owner::publish(), Some(mine), &mut Vec::new());
        if published == Polled::Published {
            slot_ops.clear();
            slot_ops.extend_from_slice(ops);
        }
        published == Polled::Published
    }

    /// One non-blocking look at a published slot; past `reclaim_after`
    /// polls (`waited`) the lease takes a claimed unit back. On `Ready`
    /// the responses are swapped into `out`, so both buffers keep their
    /// capacity (only the owner republishes, so the slot's buffer is
    /// still the delivered one).
    pub(crate) fn poll(&self, mine: &Arc<Slot>, waited: u32, out: &mut Vec<u64>) -> Polled {
        let mut owner = Owner::poll(self.lease && waited >= self.reclaim_after);
        let polled = self.run(&mut owner, Some(mine), &mut Vec::new());
        match polled {
            Polled::Ready => std::mem::swap(out, &mut *mine.results.lock()),
            Polled::Reclaimed => self.stats.record_reclaim(self.shard),
            _ => {}
        }
        polled
    }

    /// Run `m` over the slot words and the combiner flag until it
    /// yields: the one loop in the store that touches them. Loads
    /// acquire, stores release, compare-exchanges do both. `mine` is the
    /// [`Word::Own`] slot, which a scan reads as [`MINE`]; the registry
    /// stays locked from a pass's first scan step to its yield.
    #[inline(always)]
    fn run<M: Machine<Arc<Slot>>>(
        &self,
        m: &mut M,
        mine: Option<&Arc<Slot>>,
        claims: &mut Vec<Claim>,
    ) -> M::Yield {
        let mut registry = None;
        loop {
            let op = match m.next(claims) {
                Step::Op(op) => op,
                Step::Yield(y) => return y,
            };
            let mut from = None;
            let word = match op.word() {
                Word::Flag => &self.combiner_busy,
                Word::Claim(k) => &claims[k].0.state,
                Word::Own => &mine.expect("an owner names its slot").state,
                Word::Slot(i) => {
                    match registry.get_or_insert_with(|| self.slots.lock()).get(i) {
                        Some(s) if !mine.is_some_and(|m| Arc::ptr_eq(s, m)) => {
                            from = Some(s);
                            &s.state
                        }
                        // Only a scan's load passes the end or the caller.
                        slot => {
                            m.apply(if slot.is_none() { END } else { MINE }, None, claims);
                            continue;
                        }
                    }
                }
            };
            let old = match op {
                SlotOp::Load(_) => word.load(Acquire),
                SlotOp::Store(_, v) => {
                    word.store(v, Release);
                    v
                }
                SlotOp::Cas(_, current, new) => {
                    match word.compare_exchange(current, new, AcqRel, Acquire) {
                        Ok(v) | Err(v) => v,
                    }
                }
            };
            m.apply(old, from, claims);
        }
    }

    /// Claim phase of a split-phase pass, taking over `claims`' buffer;
    /// `None` when the flag was held (`force` skips it) or nothing was
    /// pending. Dropping the pass unfinished models a combiner crash.
    pub(crate) fn begin_combine(
        &self,
        force: bool,
        claims: &mut Vec<Claim>,
    ) -> Option<CombinePass> {
        let mut pass: Pass = Pass::split(force);
        if self.run(&mut pass, None, claims) != Passed::Park {
            return None;
        }
        Some(CombinePass(pass, std::mem::take(claims)))
    }

    /// The rest of a split-phase pass ([`Self::execute`], then the WAL
    /// I/O it left due); the emptied claim list goes back to `claims`.
    /// Returns whether any ops were drained.
    pub(crate) fn finish_combine(&self, pass: CombinePass, claims: &mut Vec<Claim>) -> bool {
        let CombinePass(mut pass, claimed) = pass;
        *claims = claimed;
        let drained = self.execute(&mut pass, Passed::Park, claims, None);
        claims.clear();
        self.settle();
        drained.is_some()
    }

    /// The one routine every pass runs once its claim scan yielded
    /// `passed`: past the park point the machine seals the claims (a
    /// unit whose owner reclaimed it leaves the batch); under the
    /// replica lock the sealed units, with a direct pass's own `(ops,
    /// out)` at its registry position, run as one batched record and
    /// their responses are written; then the machine delivers and
    /// releases the flag. `None` when nothing was left to run, else
    /// whether the log holds divergence evidence.
    fn execute(
        &self,
        pass: &mut Pass,
        mut passed: Passed,
        claimed: &mut Vec<Claim>,
        mut own: Option<(&[u64], &mut Vec<u64>)>,
    ) -> Option<bool> {
        self.park_point();
        if passed == Passed::Park {
            passed = self.run(pass, None, claimed);
        }
        let Passed::Execute { own_at } = passed else {
            return None;
        };
        let own_at = own_at.unwrap_or(usize::MAX);
        let mut replica = self.replica.lock();
        let CoreReplica {
            handle,
            words,
            counts,
            resps,
        } = &mut *replica;
        words.clear();
        counts.clear();
        for k in 0..=claimed.len() {
            if let Some((ops, _)) = own.as_ref().filter(|_| own_at == k) {
                words.extend_from_slice(ops);
            }
            if let Some((s, _)) = claimed.get(k) {
                let ops = s.ops.lock();
                words.extend_from_slice(&ops);
                counts.push(ops.len());
            }
        }
        // Execute — one decided slot for the whole drain.
        handle.invoke_many_into(words, resps);
        // Publish the batch to lock-free readers before delivering it:
        // a caller whose op this pass applied reads at least this far.
        self.applied.store(handle.applied_to(), Ordering::Release);
        let diverged = self.log.divergence_detected();
        self.stats.record_pass(self.shard, words.len());
        let mut off = 0;
        for k in 0..=claimed.len() {
            if let Some((ops, out)) = own.as_mut().filter(|_| own_at == k) {
                out.clear();
                out.extend_from_slice(&resps[off..off + ops.len()]);
                off += ops.len();
            }
            if let (Some((s, _)), Some(&n)) = (claimed.get(k), counts.get(k)) {
                let mut out = s.results.lock();
                out.clear();
                out.extend_from_slice(&resps[off..off + n]);
                off += n;
            }
        }
        drop(replica);
        pass.executed(diverged);
        // Deliver: a sealed op is always delivered by the pass that
        // sealed it.
        self.run(pass, None, claimed);
        Some(diverged)
    }

    /// The group commit and rotation a pass left due, with the replica,
    /// the claims and the flag all released — the shard keeps deciding
    /// (and answering) ops while this thread waits for the disk.
    fn settle(&self) {
        if let Some(wal) = &self.wal {
            wal.settle();
        }
    }

    /// Run `ops` as one unit and wait until it is delivered: one
    /// response word per op in `out`, or the shard index on divergence.
    /// A caller that takes the flag runs a direct pass (its slot stays
    /// `EMPTY`); one that finds it held publishes and waits on the
    /// split-phase primitives.
    pub(crate) fn submit(
        &self,
        mine: &Arc<Slot>,
        claims: &mut Vec<Claim>,
        ops: &[u64],
        out: &mut Vec<u64>,
    ) -> Result<(), usize> {
        let mut pass: Pass = Pass::direct();
        let passed = self.run(&mut pass, Some(mine), claims);
        if passed != Passed::Busy {
            let diverged = self.execute(&mut pass, passed, claims, Some((ops, out)));
            claims.clear();
            self.settle();
            return if diverged == Some(false) {
                Ok(())
            } else {
                Err(self.shard)
            };
        }
        let published = self.publish(mine, ops);
        debug_assert!(published, "publish into a non-empty slot");
        let mut spins = 0u32;
        loop {
            match self.poll(mine, spins, out) {
                Polled::Ready => return Ok(()),
                Polled::Failed => return Err(self.shard),
                // Unclaimed: try to combine it ourselves — advisory
                // first, forced once the current combiner has had
                // ample time (it may have stalled after claiming a
                // disjoint set, or died holding the advisory flag; our
                // op is still up for grabs).
                Polled::Pending | Polled::Reclaimed
                    if self.combine(false, claims)
                        || (spins > FORCE_AFTER && self.combine(true, claims)) =>
                {
                    continue
                }
                // Claimed: a combiner owns it and will deliver (or the
                // poll above reclaims once `spins` passes the bound).
                _ => {}
            }
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(64) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// One full split-phase pass; `force` skips the flag (the takeover
    /// path). Returns whether any ops were drained.
    fn combine(&self, force: bool, claims: &mut Vec<Claim>) -> bool {
        match self.begin_combine(force, claims) {
            Some(pass) => self.finish_combine(pass, claims),
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slot::{state_of, EMPTY};
    use crate::{Backend, Kv, KvOp, Store, StoreConfig, StoreError};
    use std::sync::atomic::{AtomicBool, AtomicUsize};
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
    fn a_pass_publishes_what_it_applied() {
        let store = combining_store(Backend::reliable(), 1);
        let core = store.shard_core_for_tests(0);
        let mut c = store.client();
        for key in 0..40 {
            c.put(key, key).unwrap();
            // The put's own pass published its slot: the next GET is
            // fresh without taking the replica lock.
            assert_eq!(
                core.applied.load(Ordering::Acquire),
                store.shard_log(0).slots_created()
            );
        }
        assert!(store.verify(&mut [c]).all_consistent());
    }

    #[test]
    fn a_reader_holding_a_retired_table_refreshes_it() {
        let store = combining_store(Backend::reliable(), 1);
        let (mut reader, mut writer) = (store.client(), store.client());
        writer.put(0, 1).unwrap();
        assert_eq!(reader.get(0).unwrap(), Some(1));
        let cached = Arc::clone(&reader.tables[0]);
        // Enough new keys to rebuild the table, then a new version of
        // the key the reader's cached table holds.
        let mut key = 1;
        while !cached.is_retired() {
            writer.put(key, key).unwrap();
            key += 1;
        }
        writer.put(0, 2).unwrap();
        assert_eq!(reader.get(0).unwrap(), Some(2), "read a retired table");
        assert!(!Arc::ptr_eq(&cached, &reader.tables[0]));
        let stats = store.combine_snapshot().unwrap();
        assert_eq!((stats.fastpath_hits, stats.fastpath_misses), (2, 0));
    }

    #[test]
    fn lock_free_reads_never_go_back_across_rebuilds() {
        // One writer puts strictly increasing versions over a key set
        // that grows in rounds, rebuilding every shard's table several
        // times, while two readers GET the same keys. A reader must
        // never see a key's version fall, and a GET that starts after
        // a put was acknowledged must see at least that put. Between
        // rounds the writer waits for two more sweeps of each reader,
        // so reads also run with no pass in progress — answered from
        // whatever table the reader holds.
        // A shard's table starts at 16 words and rebuilds past ¾ used,
        // at 13, 49, 193 and 769 keys: 4,000 keys put about 1,000 on
        // each of four shards.
        const SHARDS: usize = 4;
        const KEYS: u32 = 4_000;
        const ROUNDS: u32 = 8;
        let store = combining_store(Backend::robust(), SHARDS);
        let acked: Vec<AtomicU64> = (0..KEYS).map(|_| AtomicU64::new(0)).collect();
        let sweeps = [AtomicU64::new(0), AtomicU64::new(0)];
        let writing = AtomicBool::new(true);
        let start = Barrier::new(3);
        let rebuilds = std::thread::scope(|scope| {
            let readers = sweeps.each_ref().map(|sweeps| {
                let (store, acked, writing, start) = (&store, &acked, &writing, &start);
                scope.spawn(move || {
                    let mut c = store.client();
                    let mut seen = vec![0u64; KEYS as usize];
                    start.wait();
                    loop {
                        let last = !writing.load(Ordering::Acquire);
                        for key in 0..KEYS {
                            let floor = acked[key as usize].load(Ordering::SeqCst);
                            let got = u64::from(c.get(key).unwrap().unwrap_or(0));
                            let before = seen[key as usize];
                            assert!(got >= before, "key {key} went back from {before} to {got}");
                            assert!(got >= floor, "key {key} read {got} after {floor} was acked");
                            seen[key as usize] = got;
                        }
                        sweeps.fetch_add(1, Ordering::Release);
                        if last {
                            break;
                        }
                    }
                })
            });
            let mut c = store.client();
            let mut tables: Vec<_> = (0..SHARDS)
                .map(|s| store.shard_core_for_tests(s).table())
                .collect();
            let mut rebuilds = [0; SHARDS];
            let mut version = 0;
            start.wait();
            for round in 1..=ROUNDS {
                for key in 0..KEYS * round / ROUNDS {
                    version += 1;
                    c.put(key, version).unwrap();
                    acked[key as usize].store(u64::from(version), Ordering::SeqCst);
                    let s = c.shard_for(key);
                    let table = store.shard_core_for_tests(s).table();
                    if !Arc::ptr_eq(&table, &tables[s]) {
                        rebuilds[s] += 1;
                        tables[s] = table;
                    }
                }
                // A reader that stopped early has panicked; the scope
                // reports it.
                let targets = sweeps.each_ref().map(|n| n.load(Ordering::Acquire) + 2);
                while (0..2).any(|r| {
                    sweeps[r].load(Ordering::Acquire) < targets[r] && !readers[r].is_finished()
                }) {
                    std::thread::yield_now();
                }
            }
            writing.store(false, Ordering::Release);
            rebuilds
        });
        assert!(
            rebuilds.iter().all(|&r| r >= 4),
            "rebuilds per shard: {rebuilds:?}"
        );
        let stats = store.combine_snapshot().unwrap();
        assert!(stats.fastpath_hits > 0, "{stats:?}");
        assert!(store.verify(&mut []).all_consistent());
    }

    #[test]
    fn the_flag_holders_own_unit_never_touches_its_slot() {
        let store = combining_store(Backend::reliable(), 1);
        let core = store.shard_core_for_tests(0);
        let mine = core.register();
        let (mut claims, mut out) = (Vec::new(), Vec::new());
        for value in 0..3 {
            // The park point fires inside the pass, between claim and
            // execute, with the combiner flag held.
            let during = Arc::new(AtomicU32::new(u32::MAX));
            {
                let (during, slot) = (Arc::clone(&during), Arc::clone(&mine));
                core.set_park_hook(move |_| {
                    during.store(slot.state.load(Ordering::SeqCst), Ordering::SeqCst);
                });
            }
            core.submit(&mine, &mut claims, &[KvMap::put_op(1, value)], &mut out)
                .unwrap();
            assert_eq!(state_of(during.load(Ordering::SeqCst)), EMPTY);
            assert_eq!(state_of(mine.state.load(Ordering::SeqCst)), EMPTY);
            assert_eq!(
                KvMap::decode_response(out[0]),
                value.checked_sub(1),
                "put {value} answers the previous value"
            );
        }
        let stats = store.combine_snapshot().unwrap();
        assert_eq!((stats.passes, stats.combined_ops), (3, 3));
    }

    #[test]
    fn a_direct_pass_carries_published_units_in_registry_order() {
        for peer_registered_first in [true, false] {
            let store = combining_store(Backend::reliable(), 1);
            let core = store.shard_core_for_tests(0);
            let (peer, mine) = if peer_registered_first {
                let peer = core.register();
                (peer, core.register())
            } else {
                let mine = core.register();
                (core.register(), mine)
            };
            core.publish(&peer, &[KvMap::put_op(5, 1)]);
            let (mut claims, mut out, mut peer_out) = (Vec::new(), Vec::new(), Vec::new());
            core.submit(&mine, &mut claims, &[KvMap::put_op(5, 2)], &mut out)
                .unwrap();
            assert!(matches!(core.poll(&peer, 0, &mut peer_out), Polled::Ready));
            let answers = (
                KvMap::decode_response(peer_out[0]),
                KvMap::decode_response(out[0]),
            );
            // Both puts hit key 5 in one decided slot, applied in
            // registry order: the later one answers the earlier value.
            let expected = if peer_registered_first {
                (None, Some(1))
            } else {
                (Some(2), None)
            };
            assert_eq!(answers, expected, "peer first: {peer_registered_first}");
            let stats = store.combine_snapshot().unwrap();
            assert_eq!((stats.passes, stats.combined_ops), (1, 2));
            assert!(store.verify(&mut []).all_consistent());
        }
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
