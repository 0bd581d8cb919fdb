//! The replicated object each shard's log drives: a deterministic
//! key-value map over the universal construction's 56-bit op encoding.
//!
//! Keys and values are 28-bit integers so a `put(k, v)` fits one op
//! word (opcode byte + 28-bit key + 28-bit value). That is plenty for a
//! soak workload while keeping every operation a single consensus
//! decision — exactly the regime the paper's constructions are priced
//! for (one decided slot per operation).
//!
//! # Representation
//!
//! A [`KvMap`] is a `KvTable` behind an `Arc`: an open-addressed table
//! of `AtomicU64` words, each holding a used bit, a present bit,
//! `key << 28` and the value. Probing is linear from a keyed
//! `RandomState` hash: keys come off the wire, and a fixed hash would
//! let one client pile them into a single probe chain. A key never
//! moves once placed: a delete clears its present bit, and a later put
//! of the key reuses the same word. Past ¾ used, the map builds a fresh
//! table at load ⅜ or less (to grow, or to purge tombstones) and marks
//! the old one retired.
//!
//! The map's owner — for a shard's core replica, the combiner holding
//! the replica lock — is the table's one writer, and changes it with
//! plain atomic stores. Any number of readers holding the `Arc` may
//! look keys up with atomic loads meanwhile (`KvTable::get`): each
//! word is read whole, and a reader whose table was retired learns so
//! from `KvTable::is_retired`. Apart from a rebuild and `Clone`, which
//! copy it, only `encode_snapshot`, `Eq` and `Debug` iterate the table;
//! key order is paid only in `encode_snapshot`, which sorts its words
//! so that every replica serializes identically.

use ff_universal::encoding::{op, split};
use ff_universal::{Replicated, EMPTY};
use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Bits per key and per value.
pub const KV_BITS: u32 = 28;
/// Largest encodable key / value.
pub const KV_MAX: u32 = (1 << KV_BITS) - 1;

/// A table word was placed: a key occupies it for the table's life.
const USED: u64 = 1 << 63;
/// The word's key is mapped now (clear: deleted, a tombstone).
const PRESENT: u64 = 1 << 62;
/// The packed `key << 28 | value` bits of a word.
const PAIR: u64 = (1 << (2 * KV_BITS)) - 1;
/// Words in the smallest table.
const MIN_WORDS: usize = 16;

/// A present word mapping `key → value`.
fn entry(key: u32, value: u32) -> u64 {
    USED | PRESENT | (key as u64) << KV_BITS | value as u64
}

fn key_of(word: u64) -> u32 {
    (word >> KV_BITS) as u32 & KV_MAX
}

fn value_of(word: u64) -> u32 {
    word as u32 & KV_MAX
}

/// The words of one [`KvMap`]: written by the map's owner with atomic
/// stores, readable by anyone holding the `Arc` (see the module docs).
pub(crate) struct KvTable {
    hasher: RandomState,
    /// A power of two of them, never more than ¾ used.
    words: Box<[AtomicU64]>,
    /// Set once the owning map has replaced this table; it is never
    /// written again after that.
    retired: AtomicBool,
}

impl KvTable {
    fn new(capacity: usize, hasher: RandomState) -> Self {
        debug_assert!(capacity.is_power_of_two());
        KvTable {
            hasher,
            words: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            retired: AtomicBool::new(false),
        }
    }

    /// The smallest table holding `live` keys at load at most ⅜: at
    /// least as many new keys go in before its next rebuild (at ¾) as
    /// the rebuild that made it rehashed, so a map filled from empty
    /// rehashes each key about a third of a time.
    fn sized_for(live: usize, hasher: RandomState) -> Self {
        let words = (8 * live).div_ceil(3).next_power_of_two();
        Self::new(words.max(MIN_WORDS), hasher)
    }

    /// The index and word of `key`'s place: the word holding `key`, or
    /// the unused word that ends its probe chain.
    fn probe(&self, key: u32) -> (usize, u64) {
        let mask = self.words.len() - 1;
        let mut i = self.hasher.hash_one(key) as usize & mask;
        loop {
            let word = self.words[i].load(Ordering::Acquire);
            if word & USED == 0 || key_of(word) == key {
                return (i, word);
            }
            i = (i + 1) & mask;
        }
    }

    /// `key`'s value, read with atomic loads: safe beside the owner's
    /// writes, and at least as new as everything the owner published
    /// before the caller's last acquire of it.
    pub(crate) fn get(&self, key: u32) -> Option<u32> {
        let (_, word) = self.probe(key);
        (word & PRESENT != 0).then(|| value_of(word))
    }

    /// `true` once the owning map has moved to a newer table: a reader
    /// holding this one must fetch the map's current table.
    pub(crate) fn is_retired(&self) -> bool {
        self.retired.load(Ordering::Acquire)
    }

    /// Every present word, in table order.
    fn present(&self) -> impl Iterator<Item = u64> + '_ {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Acquire))
            .filter(|w| w & PRESENT != 0)
    }

    /// Place `word` for a key this table does not hold yet.
    fn place(&self, word: u64) {
        let (i, found) = self.probe(key_of(word));
        debug_assert_eq!(found & USED, 0, "key placed twice");
        self.words[i].store(word, Ordering::Release);
    }
}

/// A replicated map from 28-bit keys to 28-bit values.
pub struct KvMap {
    table: Arc<KvTable>,
    /// Words in use, tombstones included.
    used: usize,
    /// Keys present.
    len: usize,
}

impl Default for KvMap {
    fn default() -> Self {
        KvMap {
            table: Arc::new(KvTable::new(MIN_WORDS, RandomState::new())),
            used: 0,
            len: 0,
        }
    }
}

impl Clone for KvMap {
    /// A copy with a table of its own: two replicas never share state.
    fn clone(&self) -> Self {
        let table = KvTable {
            hasher: self.table.hasher.clone(),
            words: self
                .table
                .words
                .iter()
                .map(|w| AtomicU64::new(w.load(Ordering::Acquire)))
                .collect(),
            retired: AtomicBool::new(false),
        };
        KvMap {
            table: Arc::new(table),
            used: self.used,
            len: self.len,
        }
    }
}

impl PartialEq for KvMap {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self
                .table
                .present()
                .all(|w| other.peek(key_of(w)) == Some(value_of(w)))
    }
}

impl Eq for KvMap {}

impl fmt::Debug for KvMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut pairs: Vec<u64> = self.table.present().map(|w| w & PAIR).collect();
        pairs.sort_unstable();
        f.debug_map()
            .entries(pairs.iter().map(|&w| (key_of(w), value_of(w))))
            .finish()
    }
}

impl KvMap {
    /// Opcode: insert/overwrite `key → value`; responds with the
    /// previous value or [`EMPTY`].
    pub const PUT: u8 = 1;
    /// Opcode: read `key`; responds with the value or [`EMPTY`].
    pub const GET: u8 = 2;
    /// Opcode: remove `key`; responds with the removed value or
    /// [`EMPTY`].
    pub const DEL: u8 = 3;
    /// Opcode: number of entries.
    pub const LEN: u8 = 4;

    /// Encoded `put(key, value)` operation.
    pub fn put_op(key: u32, value: u32) -> u64 {
        assert!(key <= KV_MAX, "key {key} exceeds {KV_BITS} bits");
        assert!(value <= KV_MAX, "value {value} exceeds {KV_BITS} bits");
        op(Self::PUT, ((key as u64) << KV_BITS) | value as u64)
    }

    /// Encoded `get(key)` operation.
    pub fn get_op(key: u32) -> u64 {
        assert!(key <= KV_MAX, "key {key} exceeds {KV_BITS} bits");
        op(Self::GET, (key as u64) << KV_BITS)
    }

    /// Encoded `del(key)` operation.
    pub fn del_op(key: u32) -> u64 {
        assert!(key <= KV_MAX, "key {key} exceeds {KV_BITS} bits");
        op(Self::DEL, (key as u64) << KV_BITS)
    }

    /// Encoded `len()` operation.
    pub fn len_op() -> u64 {
        op(Self::LEN, 0)
    }

    /// Decode a response word into `Some(value)` / `None` (= [`EMPTY`]).
    pub fn decode_response(resp: u64) -> Option<u32> {
        (resp != EMPTY).then_some(resp as u32)
    }

    /// Number of entries (local inspection).
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Local read without going through the log (for verification).
    pub fn peek(&self, key: u32) -> Option<u32> {
        self.table.get(key)
    }

    /// The current table, for readers that look keys up while this map
    /// is written (see the module docs).
    pub(crate) fn table(&self) -> &Arc<KvTable> {
        &self.table
    }

    /// `true` iff `words` is a snapshot [`Replicated::encode_snapshot`]
    /// could have written: a length header, then that many packed
    /// `key << 28 | value` words, strictly ascending by key. Recovery
    /// asks this of a checkpoint before it trusts one.
    pub(crate) fn is_snapshot(words: &[u64]) -> bool {
        match words.split_first() {
            Some((&len, pairs)) if pairs.len() as u64 == len => {
                pairs.iter().all(|w| w >> (2 * KV_BITS) == 0)
                    && pairs.windows(2).all(|p| p[0] >> KV_BITS < p[1] >> KV_BITS)
            }
            _ => false,
        }
    }

    /// Move to `table`, which already holds every present key, and
    /// retire the old one.
    fn replace(&mut self, table: KvTable) {
        self.table.retired.store(true, Ordering::Release);
        self.table = Arc::new(table);
        self.used = self.len;
    }

    /// Rebuild into a table sized for one more key: it grows, or, when
    /// tombstones filled the old one, purges them.
    fn rebuild(&mut self) {
        let fresh = KvTable::sized_for(self.len + 1, self.table.hasher.clone());
        for word in self.table.present() {
            fresh.place(word);
        }
        self.replace(fresh);
    }

    fn put(&mut self, key: u32, value: u32) -> u64 {
        let (mut i, mut old) = self.table.probe(key);
        if old & USED == 0 {
            if 4 * (self.used + 1) > 3 * self.table.words.len() {
                self.rebuild();
                (i, old) = self.table.probe(key);
            }
            self.used += 1;
        }
        self.table.words[i].store(entry(key, value), Ordering::Release);
        if old & PRESENT == 0 {
            self.len += 1;
            EMPTY
        } else {
            value_of(old) as u64
        }
    }

    fn del(&mut self, key: u32) -> u64 {
        let (i, old) = self.table.probe(key);
        if old & PRESENT == 0 {
            return EMPTY;
        }
        self.table.words[i].store(old & !PRESENT, Ordering::Release);
        self.len -= 1;
        value_of(old) as u64
    }
}

impl Replicated for KvMap {
    fn apply(&mut self, operation: u64) -> u64 {
        let (code, payload) = split(operation);
        let key = (payload >> KV_BITS) as u32 & KV_MAX;
        let value = payload as u32 & KV_MAX;
        match code {
            Self::PUT => self.put(key, value),
            Self::GET => self.peek(key).map_or(EMPTY, u64::from),
            Self::DEL => self.del(key),
            Self::LEN => self.len as u64,
            _ => EMPTY,
        }
    }

    fn encode_snapshot(&self) -> Option<Vec<u64>> {
        let mut words = Vec::with_capacity(1 + self.len);
        words.push(self.len as u64);
        words.extend(self.table.present().map(|w| w & PAIR));
        // Keys are distinct and sit above the values, so sorting the
        // packed words sorts by key: the one place order is paid.
        words[1..].sort_unstable();
        Some(words)
    }

    fn restore_snapshot(&mut self, words: &[u64]) -> bool {
        if !Self::is_snapshot(words) {
            return false;
        }
        // Sized by the words that are there: `is_snapshot` held the
        // header to their count.
        let pairs = &words[1..];
        let table = KvTable::sized_for(pairs.len(), RandomState::new());
        for &w in pairs {
            table.place(USED | PRESENT | w);
        }
        self.len = pairs.len();
        self.replace(table);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_universal::{Cells, Handle, UniversalLog};
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    #[test]
    fn map_semantics() {
        let mut m = KvMap::default();
        assert_eq!(m.apply(KvMap::get_op(1)), EMPTY);
        assert_eq!(m.apply(KvMap::put_op(1, 10)), EMPTY);
        assert_eq!(m.apply(KvMap::put_op(1, 20)), 10);
        assert_eq!(m.apply(KvMap::get_op(1)), 20);
        assert_eq!(m.apply(KvMap::len_op()), 1);
        assert_eq!(m.apply(KvMap::del_op(1)), 20);
        assert_eq!(m.apply(KvMap::del_op(1)), EMPTY);
        assert!(m.is_empty());
    }

    #[test]
    fn extreme_keys_and_values_round_trip() {
        let mut m = KvMap::default();
        m.apply(KvMap::put_op(KV_MAX, KV_MAX));
        m.apply(KvMap::put_op(0, 0));
        assert_eq!(m.apply(KvMap::get_op(KV_MAX)), KV_MAX as u64);
        assert_eq!(m.apply(KvMap::get_op(0)), 0);
    }

    #[test]
    fn decode_response_maps_empty_to_none() {
        assert_eq!(KvMap::decode_response(EMPTY), None);
        assert_eq!(KvMap::decode_response(7), Some(7));
    }

    #[test]
    fn snapshot_round_trips() {
        let mut m = KvMap::default();
        for k in 0..100 {
            m.apply(KvMap::put_op(k, k * 2));
        }
        m.apply(KvMap::del_op(50));
        let mut m2 = KvMap::default();
        assert!(m2.restore_snapshot(&m.encode_snapshot().unwrap()));
        assert_eq!(m, m2);
    }

    #[test]
    fn malformed_snapshot_rejected() {
        let pair = |k: u64, v: u64| (k << KV_BITS) | v;
        for words in [
            &[][..],
            &[2, 1],
            &[2, pair(1, 5)],
            // A duplicate key would restore to fewer entries than the
            // header claims.
            &[2, pair(1, 5), pair(1, 6)],
            &[2, pair(2, 0), pair(1, 0)],
            &[1, 1 << (2 * KV_BITS)],
            // A header no words back: sized from it, the table would
            // not fit in memory.
            &[u64::MAX, pair(1, 5)],
        ] {
            let mut m = KvMap::default();
            m.apply(KvMap::put_op(9, 9));
            assert!(!m.restore_snapshot(words), "{words:?} restored");
            assert_eq!(m.peek(9), Some(9), "a refused restore changed the map");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds 28 bits")]
    fn oversized_key_rejected() {
        let _ = KvMap::put_op(KV_MAX + 1, 0);
    }

    #[test]
    fn a_cloned_map_owns_its_table() {
        let mut original = KvMap::default();
        original.apply(KvMap::put_op(1, 10));
        original.apply(KvMap::put_op(2, 20));
        original.apply(KvMap::del_op(2));
        let mut copy = original.clone();
        assert_eq!(copy, original);
        copy.apply(KvMap::put_op(1, 11));
        copy.apply(KvMap::put_op(2, 21));
        copy.apply(KvMap::put_op(3, 31));
        // Two replicas sharing one table would be one state.
        assert_eq!(original.peek(1), Some(10));
        assert_eq!(original.peek(2), None);
        assert_eq!(original.peek(3), None);
        assert_eq!(original.len(), 1);
        assert_eq!(copy.peek(1), Some(11));
        assert_eq!(copy.len(), 3);
    }

    #[test]
    fn a_replaced_table_reports_itself_retired() {
        let mut m = KvMap::default();
        let first = Arc::clone(m.table());
        let mut key = 0;
        while Arc::ptr_eq(&first, m.table()) {
            m.apply(KvMap::put_op(key, key));
            key += 1;
        }
        assert!(first.is_retired(), "a rebuild left its old table live");
        assert!(!m.table().is_retired());
        // The retired table is frozen at the rebuild, and the new one
        // holds every key.
        assert_eq!(first.get(key - 1), None);
        assert!((0..key).all(|k| m.peek(k) == Some(k)));

        let before_restore = Arc::clone(m.table());
        let words = m.encode_snapshot().unwrap();
        assert!(m.restore_snapshot(&words));
        assert!(
            before_restore.is_retired(),
            "a restore left its old table live"
        );
        assert!(!m.table().is_retired());
        assert!((0..key).all(|k| m.peek(k) == Some(k)));
    }

    /// A log over reliable cells checkpointing every `interval` slots.
    fn checkpointed_log(interval: usize) -> Arc<UniversalLog> {
        Arc::new(UniversalLog::new(Arc::new(Cells::reliable())).checkpoint_every(interval))
    }

    /// A handle created now (snapshot base + suffix, then the tail)
    /// must match `writer` at the same slot.
    fn assert_fresh_replica_matches(log: &Arc<UniversalLog>, writer: &Handle<KvMap>) {
        let mut fresh = Handle::new(Arc::clone(log), 1, KvMap::default());
        fresh.catch_up();
        assert_eq!(fresh.applied_to(), writer.applied_to());
        assert_eq!(fresh.state(), writer.state(), "restored map differs");
        assert_eq!(fresh.digest(), writer.digest());
    }

    #[test]
    fn distinct_puts_encode_a_few_bases_not_one_per_boundary() {
        // One shard's share of the large-read preload: 10,922 distinct
        // puts, one slot each, interval 64 — 170 boundaries. The base is
        // re-encoded only when the suffix's ops reach its word count, so
        // it doubles at each encode.
        let interval = 64;
        let log = checkpointed_log(interval);
        let mut h = Handle::new(Arc::clone(&log), 0, KvMap::default());
        for k in 0..10_922 {
            h.invoke(KvMap::put_op(k, k));
            assert!(log.retained_len() <= 2 * interval);
        }
        assert_eq!(log.checkpoints_installed(), 170);
        assert!(
            log.snapshots_encoded() <= 10,
            "{} encodes",
            log.snapshots_encoded()
        );
        assert_fresh_replica_matches(&log, &h);
    }

    /// Puts, deletes and gets over keys `0..keys`.
    fn kv_op_over(keys: u32) -> impl Strategy<Value = u64> {
        prop_oneof![
            (0u32..keys * 1000).prop_map(move |x| KvMap::put_op(x % keys, x / keys)),
            (0u32..keys * 1000).prop_map(move |x| KvMap::put_op(x % keys, x / keys)),
            (0u32..keys).prop_map(KvMap::del_op),
            (0u32..keys).prop_map(KvMap::get_op),
        ]
    }

    fn kv_op() -> impl Strategy<Value = u64> {
        kv_op_over(512)
    }

    /// What `encode_snapshot` must write for `model`'s contents.
    fn model_encode(model: &BTreeMap<u32, u32>) -> Vec<u64> {
        std::iter::once(model.len() as u64)
            .chain(
                model
                    .iter()
                    .map(|(k, v)| ((*k as u64) << KV_BITS) | *v as u64),
            )
            .collect()
    }

    /// `operation`'s response on the ordered model.
    fn model_apply(model: &mut BTreeMap<u32, u32>, operation: u64) -> u64 {
        let (code, payload) = split(operation);
        let key = (payload >> KV_BITS) as u32 & KV_MAX;
        let old = match code {
            KvMap::PUT => model.insert(key, payload as u32 & KV_MAX),
            KvMap::GET => model.get(&key).copied(),
            KvMap::DEL => model.remove(&key),
            KvMap::LEN => return model.len() as u64,
            _ => None,
        };
        old.map_or(EMPTY, u64::from)
    }

    /// Keys of the model test: few enough that deleted keys come back,
    /// enough that a run of its length rebuilds the table three times
    /// (at 13, 49 and 193 keys placed).
    const MODEL_KEYS: u32 = 512;

    fn any_op() -> impl Strategy<Value = u64> {
        prop_oneof![
            kv_op_over(MODEL_KEYS),
            kv_op_over(MODEL_KEYS),
            kv_op_over(MODEL_KEYS),
            kv_op_over(MODEL_KEYS),
            Just(KvMap::len_op()),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn kv_map_matches_an_ordered_model(
            ops in proptest::collection::vec(any_op(), 800..1200),
        ) {
            let mut map = KvMap::default();
            let mut model = BTreeMap::new();
            let (mut rebuilds, mut reused) = (0, 0);
            // Keys deleted since the table was last built: their words
            // are tombstones a put of the key reuses.
            let mut tombstones = std::collections::BTreeSet::new();
            for &o in &ops {
                let table = Arc::clone(map.table());
                prop_assert_eq!(map.apply(o), model_apply(&mut model, o), "op {:#x}", o);
                if !Arc::ptr_eq(&table, map.table()) {
                    rebuilds += 1;
                    tombstones.clear();
                }
                let (code, payload) = split(o);
                let key = (payload >> KV_BITS) as u32 & KV_MAX;
                match code {
                    KvMap::DEL => {
                        tombstones.insert(key);
                    }
                    KvMap::PUT if tombstones.remove(&key) => reused += 1,
                    _ => {}
                }
                for (&k, &v) in &model {
                    prop_assert_eq!(map.peek(k), Some(v), "key {} after op {:#x}", k, o);
                }
                if code == KvMap::DEL {
                    prop_assert_eq!(map.peek(key), None, "deleted key {}", key);
                }
                prop_assert_eq!(map.len(), model.len());
            }
            prop_assert!(rebuilds >= 3, "{} rebuilds", rebuilds);
            prop_assert!(reused > 0, "no tombstone was reused");
            let words = map.encode_snapshot().unwrap();
            prop_assert_eq!(&words, &model_encode(&model));

            let mut restored = KvMap::default();
            prop_assert!(restored.restore_snapshot(&words));
            prop_assert_eq!(restored.encode_snapshot().unwrap(), words.clone());

            // The same contents by another history: keys that come and
            // go, then the survivors inserted in descending order.
            let mut other = KvMap::default();
            for k in 512..600 {
                other.apply(KvMap::put_op(k, k));
            }
            for (&k, &v) in model.iter().rev() {
                other.apply(KvMap::put_op(k, v));
            }
            for k in 512..600 {
                other.apply(KvMap::del_op(k));
            }
            prop_assert_eq!(&other, &map);
            prop_assert_eq!(&restored, &map);
            prop_assert_eq!(other.encode_snapshot().unwrap(), words);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn restored_maps_match_full_replay(
            ops in proptest::collection::vec(kv_op(), 0..600),
            batch in 1usize..9,
            interval in 2usize..9,
        ) {
            let log = checkpointed_log(interval);
            let mut writer = Handle::new(Arc::clone(&log), 0, KvMap::default());
            for chunk in ops.chunks(batch) {
                writer.invoke_many(chunk);
            }
            assert_fresh_replica_matches(&log, &writer);
        }
    }
}
