//! The replicated object each shard's log drives: a deterministic
//! key-value map over the universal construction's 56-bit op encoding.
//!
//! Keys and values are 28-bit integers so a `put(k, v)` fits one op
//! word (opcode byte + 28-bit key + 28-bit value). That is plenty for a
//! soak workload while keeping every operation a single consensus
//! decision — exactly the regime the paper's constructions are priced
//! for (one decided slot per operation).

use ff_universal::encoding::{op, split};
use ff_universal::{Replicated, EMPTY};
use std::collections::HashMap;

/// Bits per key and per value.
pub const KV_BITS: u32 = 28;
/// Largest encodable key / value.
pub const KV_MAX: u32 = (1 << KV_BITS) - 1;

/// A replicated map from 28-bit keys to 28-bit values.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KvMap {
    // Unordered on purpose: every op is a point lookup, and key order is
    // paid only in `encode_snapshot`, which sorts its words so that
    // every replica serializes identically. No other code iterates
    // this map. The hasher stays the default keyed `RandomState`: keys
    // come off the wire, and a fixed hash would let one client pile
    // them into a single probe chain.
    entries: HashMap<u32, u32>,
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
        self.entries.len()
    }

    /// `true` iff the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Local read without going through the log (for verification).
    pub fn peek(&self, key: u32) -> Option<u32> {
        self.entries.get(&key).copied()
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
}

impl Replicated for KvMap {
    fn apply(&mut self, operation: u64) -> u64 {
        let (code, payload) = split(operation);
        let key = (payload >> KV_BITS) as u32 & KV_MAX;
        let value = payload as u32 & KV_MAX;
        match code {
            Self::PUT => self
                .entries
                .insert(key, value)
                .map_or(EMPTY, |old| old as u64),
            Self::GET => self.entries.get(&key).map_or(EMPTY, |v| *v as u64),
            Self::DEL => self.entries.remove(&key).map_or(EMPTY, |old| old as u64),
            Self::LEN => self.entries.len() as u64,
            _ => EMPTY,
        }
    }

    fn encode_snapshot(&self) -> Option<Vec<u64>> {
        let mut words = Vec::with_capacity(1 + self.entries.len());
        words.push(self.entries.len() as u64);
        words.extend(
            self.entries
                .iter()
                .map(|(k, v)| ((*k as u64) << KV_BITS) | *v as u64),
        );
        // Keys are distinct and sit above the values, so sorting the
        // packed words sorts by key: the one place order is paid.
        words[1..].sort_unstable();
        Some(words)
    }

    fn restore_snapshot(&mut self, words: &[u64]) -> bool {
        if !Self::is_snapshot(words) {
            return false;
        }
        let mut entries = HashMap::with_capacity(words.len() - 1);
        entries.extend(
            words[1..]
                .iter()
                .map(|w| ((*w >> KV_BITS) as u32, *w as u32 & KV_MAX)),
        );
        self.entries = entries;
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

    fn kv_op() -> impl Strategy<Value = u64> {
        prop_oneof![
            (0u32..512_000).prop_map(|x| KvMap::put_op(x % 512, x / 512)),
            (0u32..512_000).prop_map(|x| KvMap::put_op(x % 512, x / 512)),
            (0u32..512).prop_map(KvMap::del_op),
            (0u32..512).prop_map(KvMap::get_op),
        ]
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

    fn any_op() -> impl Strategy<Value = u64> {
        prop_oneof![kv_op(), Just(KvMap::len_op())]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn kv_map_matches_an_ordered_model(
            ops in proptest::collection::vec(any_op(), 0..400),
        ) {
            let mut map = KvMap::default();
            let mut model = BTreeMap::new();
            for &o in &ops {
                prop_assert_eq!(map.apply(o), model_apply(&mut model, o), "op {:#x}", o);
            }
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
