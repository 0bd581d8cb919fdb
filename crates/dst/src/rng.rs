//! The simulation's only randomness source: a seeded splitmix64 stream
//! with deterministic forking.
//!
//! Every decision the simulator makes — fault sampling, workload op
//! generation, latency jitter — draws from a [`SimRng`] that was forked
//! from the run's root seed along a labeled path. Forking (rather than
//! sharing one stream) keeps subsystems decoupled: adding a draw to the
//! network's stream cannot shift the workload generator's, so traces
//! stay comparable across small code changes and every component can be
//! replayed in isolation.

/// One splitmix64 stream.
#[derive(Clone, Debug)]
pub struct SimRng {
    state: u64,
}

/// The splitmix64 output function — `ff-cas`'s, the one the store
/// routes shards and salts fault streams with: one shared definition of
/// "mix this word".
pub use ff_store::splitmix64;

impl SimRng {
    /// A stream rooted at `seed`.
    pub fn new(seed: u64) -> Self {
        SimRng {
            state: splitmix64(seed),
        }
    }

    /// Next raw word.
    pub fn next_u64(&mut self) -> u64 {
        // `splitmix64` adds the increment before mixing, so the output
        // at `state` is the stream's next word; then step the state.
        let out = splitmix64(self.state);
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        out
    }

    /// Uniform draw in `0..n` (`n > 0`).
    pub fn next_range(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // The moduli here are tiny (keyspaces, jitter windows) relative
        // to 2^64, so modulo bias is far below anything a scenario can
        // observe.
        self.next_u64() % n
    }

    /// Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            // Still consume a draw so fault-rate changes don't shift
            // every later decision index.
            self.next_u64();
            return false;
        }
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p
    }

    /// An independent child stream. Forks with distinct labels (or from
    /// distinct parent states) never correlate.
    pub fn fork(&mut self, label: u64) -> SimRng {
        SimRng {
            state: splitmix64(self.next_u64() ^ splitmix64(label)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forks_are_decoupled_from_later_parent_draws() {
        let mut parent = SimRng::new(3);
        let mut fork = parent.fork(1);
        let first: Vec<u64> = (0..8).map(|_| fork.next_u64()).collect();
        // Replaying the parent up to the same fork point reproduces the
        // child stream regardless of what the parent does afterwards.
        let mut parent2 = SimRng::new(3);
        let mut fork2 = parent2.fork(1);
        parent2.next_u64();
        let second: Vec<u64> = (0..8).map(|_| fork2.next_u64()).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(11);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }
}
