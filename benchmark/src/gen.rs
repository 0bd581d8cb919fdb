//! Seeded request streams and the response oracle.
//!
//! Each driver thread or connection is an [`Owner`] of the keys
//! `k ≡ owner (mod owners)`. Nobody else writes those keys, and the
//! store keeps per-key order, so the owner's local model predicts every
//! response exactly — including the responses to reads that race with
//! the other owner's writes.

use ff_store::{KvOp, KV_MAX};

/// SplitMix64 step: the benchmark's only source of randomness.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A stream seed for `(run seed, lane)`, decorrelated from its
/// neighbours.
pub fn derive(seed: u64, lane: u64) -> u64 {
    let mut s = seed ^ lane.wrapping_mul(0xD1B5_4A32_D192_ED03);
    next(&mut s)
}

/// Attempted and failed operation counts; `failed` covers errors,
/// responses that contradict the model, and failed end-of-run checks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Score one response against the expectation [`Owner::expect`]
    /// produced for its request.
    pub fn score(&mut self, expected: Option<u32>, got: Result<Option<u32>, impl std::fmt::Debug>) {
        self.attempted += 1;
        match got {
            Ok(v) if v == expected => {}
            other => {
                if self.failed < 5 {
                    eprintln!("benchmark: expected {expected:?}, got {other:?}");
                }
                self.failed += 1;
            }
        }
    }

    /// Count one end-of-run check (verify, shutdown, recovery).
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("benchmark: check failed: {what}");
        }
    }
}

/// One owner's request generator plus its model of the keys it owns.
pub struct Owner {
    rng: u64,
    owner: u32,
    owners: u32,
    read_pct: u32,
    /// `model[i]` is the value of key `owner + i * owners`.
    model: Vec<Option<u32>>,
    pub tally: Tally,
}

impl Owner {
    /// Owner `owner` of `owners` over a keyspace of `keys` keys
    /// (`keys` divisible by `owners`), issuing `read_pct`% GETs and the
    /// rest writes split put:del 2:1.
    pub fn new(seed: u64, owner: u32, owners: u32, keys: u32, read_pct: u32) -> Owner {
        assert!(owner < owners && keys.is_multiple_of(owners) && read_pct <= 100);
        Owner {
            rng: derive(seed, u64::from(owner) + 1),
            owner,
            owners,
            read_pct,
            model: vec![None; (keys / owners) as usize],
            tally: Tally::default(),
        }
    }

    fn key(&self, index: usize) -> u32 {
        self.owner + index as u32 * self.owners
    }

    /// The PUTs that bring the owned keys to the write mix's
    /// steady-state occupancy of two thirds.
    pub fn preload_ops(&mut self) -> Vec<KvOp> {
        (0..self.model.len())
            .filter(|i| i % 3 != 0)
            .map(|i| KvOp::Put(self.key(i), (next(&mut self.rng) as u32) & KV_MAX))
            .collect()
    }

    /// The next request of the stream.
    pub fn next_op(&mut self) -> KvOp {
        let r = next(&mut self.rng);
        let key = self.key(((r >> 32) % self.model.len() as u64) as usize);
        let dice = (r % 100) as u32;
        let roll = (r >> 8) as u32;
        if dice < self.read_pct {
            KvOp::Get(key)
        } else if roll % 3 < 2 {
            KvOp::Put(key, (r >> 4) as u32 & KV_MAX)
        } else {
            KvOp::Del(key)
        }
    }

    /// Apply `op` to the model and return the response a correct store
    /// must give. Call in issue order, once per issued op.
    pub fn expect(&mut self, op: KvOp) -> Option<u32> {
        let slot = &mut self.model[(op.key() / self.owners) as usize];
        match op {
            KvOp::Get(_) => *slot,
            KvOp::Put(_, v) => slot.replace(v),
            KvOp::Del(_) => slot.take(),
        }
    }

    /// Every owned key with its modelled value.
    pub fn entries(&self) -> impl Iterator<Item = (u32, Option<u32>)> + '_ {
        self.model
            .iter()
            .enumerate()
            .map(|(i, v)| (self.key(i), *v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64, owner: u32, n: usize) -> Vec<KvOp> {
        let mut o = Owner::new(seed, owner, 2, 4096, 50);
        let mut ops = o.preload_ops();
        ops.extend((0..n).map(|_| o.next_op()));
        ops
    }

    #[test]
    fn same_seed_same_stream_per_owner() {
        assert_eq!(stream(7, 0, 500), stream(7, 0, 500));
        assert_eq!(stream(7, 1, 500), stream(7, 1, 500));
        assert_ne!(stream(7, 0, 500), stream(8, 0, 500));
        assert_ne!(
            stream(7, 0, 500)[1366..],
            stream(7, 1, 500)[1366..],
            "owners draw different streams"
        );
    }

    #[test]
    fn owners_touch_only_their_own_keys() {
        for owner in 0..2 {
            assert!(stream(3, owner, 2000)
                .iter()
                .all(|op| op.key() % 2 == owner && op.key() < 4096));
        }
    }

    #[test]
    fn mix_and_occupancy_follow_the_spec() {
        let mut o = Owner::new(11, 0, 2, 4096, 95);
        let preload = o.preload_ops();
        assert_eq!(preload.len(), 2048 - 683);
        let ops: Vec<KvOp> = (0..100_000).map(|_| o.next_op()).collect();
        let gets = ops.iter().filter(|op| matches!(op, KvOp::Get(_))).count();
        let puts = ops.iter().filter(|op| matches!(op, KvOp::Put(..))).count();
        let dels = ops.iter().filter(|op| matches!(op, KvOp::Del(_))).count();
        assert!((94_000..96_000).contains(&gets), "{gets} GETs");
        let ratio = puts as f64 / dels as f64;
        assert!((1.8..2.2).contains(&ratio), "put:del {ratio}");
    }

    #[test]
    fn model_predicts_previous_values_and_scores_mismatches() {
        let mut o = Owner::new(1, 1, 2, 8, 0);
        assert_eq!(o.expect(KvOp::Put(3, 9)), None);
        assert_eq!(o.expect(KvOp::Get(3)), Some(9));
        assert_eq!(o.expect(KvOp::Put(3, 4)), Some(9));
        assert_eq!(o.expect(KvOp::Del(3)), Some(4));
        assert_eq!(o.expect(KvOp::Get(3)), None);
        o.tally.score(Some(1), Ok::<_, ()>(Some(1)));
        o.tally.score(Some(1), Ok::<_, ()>(None));
        o.tally.score(None, Err::<Option<u32>, _>("io"));
        assert_eq!(
            o.tally,
            Tally {
                attempted: 3,
                failed: 2
            }
        );
        assert_eq!(o.entries().count(), 4);
    }
}
