//! Fault policies: when does a faulty object take a fault opportunity?
//!
//! Policies are consulted on every CAS invocation on an object in the
//! faulty set (before budget accounting). They are deterministic functions
//! of `(object, per-object operation index, seed)` — lock-free and
//! replayable, so a stress run is reproducible from its seed alone.

use ff_spec::ObjectId;

/// SplitMix64 — a tiny, high-quality mixing function. Used to derive
/// per-operation pseudo-random bits without shared RNG state.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Decides whether a given CAS invocation attempts a fault.
pub trait FaultPolicy: Send + Sync {
    /// Should the `op_index`-th operation on `obj` attempt a fault?
    /// (The attempt is still subject to budget and observability; an
    /// attempted override whose comparison happens to match is a correct
    /// execution and does not count.)
    fn should_fault(&self, obj: ObjectId, op_index: u64) -> bool;

    /// Switch to the stream a fresh policy built for `salt` would
    /// follow, so a renewed ensemble faults exactly like a new one (see
    /// [`CasEnsemble::renew`](crate::CasEnsemble::renew)). Returns
    /// whether it could; the default cannot.
    fn reseed(&mut self, _salt: u64) -> bool {
        false
    }
}

/// A policy chosen at run time: lets one ensemble type carry any policy.
impl FaultPolicy for Box<dyn FaultPolicy> {
    fn should_fault(&self, obj: ObjectId, op_index: u64) -> bool {
        (**self).should_fault(obj, op_index)
    }

    fn reseed(&mut self, salt: u64) -> bool {
        (**self).reseed(salt)
    }
}

/// Never attempt a fault.
#[derive(Clone, Copy, Debug, Default)]
pub struct NeverPolicy;

impl FaultPolicy for NeverPolicy {
    fn should_fault(&self, _obj: ObjectId, _op_index: u64) -> bool {
        false
    }
}

/// Attempt a fault on every operation (the budget then bounds how many
/// become actual faults).
#[derive(Clone, Copy, Debug, Default)]
pub struct AlwaysPolicy;

impl FaultPolicy for AlwaysPolicy {
    fn should_fault(&self, _obj: ObjectId, _op_index: u64) -> bool {
        true
    }
}

/// Attempt a fault with probability `p` per operation, derived
/// deterministically from a seed (counter-based: no shared RNG state).
#[derive(Clone, Copy, Debug)]
pub struct ProbabilisticPolicy {
    threshold: u64,
    seed: u64,
}

impl ProbabilisticPolicy {
    /// Fault each operation independently with probability `p ∈ [0, 1]`.
    pub fn new(p: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be a probability, got {p}");
        ProbabilisticPolicy {
            threshold: (p * u64::MAX as f64) as u64,
            seed,
        }
    }
}

impl FaultPolicy for ProbabilisticPolicy {
    fn should_fault(&self, obj: ObjectId, op_index: u64) -> bool {
        let bits = splitmix64(self.seed ^ splitmix64(obj.0 as u64) ^ op_index.rotate_left(17));
        bits <= self.threshold
    }
}

/// Attempt a fault on every `k`-th operation (1-based: `k = 1` means
/// every operation).
#[derive(Clone, Copy, Debug)]
pub struct EveryNthPolicy {
    k: u64,
}

impl EveryNthPolicy {
    /// Fault operations with `op_index % k == k - 1`.
    pub fn new(k: u64) -> Self {
        assert!(k >= 1, "k must be at least 1");
        EveryNthPolicy { k }
    }
}

impl FaultPolicy for EveryNthPolicy {
    fn should_fault(&self, _obj: ObjectId, op_index: u64) -> bool {
        op_index % self.k == self.k - 1
    }
}

/// Attempt faults on the first `k` operations on each object — the
/// front-loaded adversary (and, combined with a budget of `t = k`, the
/// bounded-burst pattern the staged protocol of Figure 3 must ride out).
#[derive(Clone, Copy, Debug)]
pub struct FirstKPolicy {
    k: u64,
}

impl FirstKPolicy {
    /// Fault the first `k` operations per object.
    pub fn new(k: u64) -> Self {
        FirstKPolicy { k }
    }
}

impl FaultPolicy for FirstKPolicy {
    fn should_fault(&self, _obj: ObjectId, op_index: u64) -> bool {
        op_index < self.k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_and_always() {
        assert!(!NeverPolicy.should_fault(ObjectId(0), 0));
        assert!(AlwaysPolicy.should_fault(ObjectId(3), 99));
    }

    #[test]
    fn probabilistic_extremes() {
        let p0 = ProbabilisticPolicy::new(0.0, 42);
        let p1 = ProbabilisticPolicy::new(1.0, 42);
        for i in 0..200 {
            assert!(!p0.should_fault(ObjectId(0), i) || i == u64::MAX); // p = 0: (threshold 0 admits only bits == 0, astronomically unlikely; assert none seen)
            assert!(p1.should_fault(ObjectId(0), i));
        }
    }

    #[test]
    fn probabilistic_rate_is_roughly_p() {
        let p = ProbabilisticPolicy::new(0.3, 7);
        let hits = (0..10_000)
            .filter(|&i| p.should_fault(ObjectId(1), i))
            .count();
        let rate = hits as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.03, "rate {rate} far from 0.3");
    }

    #[test]
    fn probabilistic_is_deterministic_in_seed() {
        let a = ProbabilisticPolicy::new(0.5, 9);
        let b = ProbabilisticPolicy::new(0.5, 9);
        let c = ProbabilisticPolicy::new(0.5, 10);
        let pattern = |p: &ProbabilisticPolicy| {
            (0..64)
                .map(|i| p.should_fault(ObjectId(0), i))
                .collect::<Vec<_>>()
        };
        assert_eq!(pattern(&a), pattern(&b));
        assert_ne!(pattern(&a), pattern(&c), "different seeds should differ");
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn probabilistic_rejects_bad_p() {
        ProbabilisticPolicy::new(1.5, 0);
    }

    #[test]
    fn every_nth() {
        let p = EveryNthPolicy::new(3);
        let hits: Vec<u64> = (0..9).filter(|&i| p.should_fault(ObjectId(0), i)).collect();
        assert_eq!(hits, vec![2, 5, 8]);
        let every = EveryNthPolicy::new(1);
        assert!((0..5).all(|i| every.should_fault(ObjectId(0), i)));
    }

    #[test]
    fn first_k() {
        let p = FirstKPolicy::new(2);
        assert!(p.should_fault(ObjectId(0), 0));
        assert!(p.should_fault(ObjectId(0), 1));
        assert!(!p.should_fault(ObjectId(0), 2));
    }

    #[test]
    fn splitmix_mixes() {
        // Adjacent inputs map to very different outputs.
        let a = splitmix64(1);
        let b = splitmix64(2);
        assert_ne!(a, b);
        assert!(((a ^ b).count_ones() as i32 - 32).abs() < 24);
    }
}
