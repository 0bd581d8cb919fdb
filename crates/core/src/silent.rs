//! The silent-fault retry protocol (Section 3.4).
//!
//! A silent fault suppresses the write of a matching CAS while still
//! reporting the old value — so a successful write and a silently dropped
//! one are indistinguishable to the caller. The fix, per the paper: "each
//! process can execute the original protocol [Herlihy's] until one
//! process succeeds and an output is chosen". A process keeps CASing
//! `(⊥ → val)`: once any write actually lands, every subsequent CAS
//! returns a non-`⊥` value, which is the decision. With at most `T`
//! silent faults in total the loop ends within `T + 2` iterations; with
//! unbounded faults an adversary can starve it forever — the paper's
//! nontermination claim, checked mechanically in experiment E8.

use crate::machines::SilentRetryMachine;
use crate::protocol::{drive, Consensus};
use ff_cas::CasEnsemble;
use ff_spec::{Bound, Input, Tolerance};

/// Herlihy-with-retries, tolerant of a bounded total number of silent
/// faults on its single object. Owns its ensemble; pass an `Arc` (itself
/// a [`CasEnsemble`]) to keep a handle on it.
pub struct SilentRetryConsensus<E: CasEnsemble> {
    ensemble: E,
    /// Total silent-fault bound the construction is declared for.
    t: u64,
    /// Retry cap: `t + 2` suffices within tolerance; we add headroom so an
    /// out-of-contract run fails loudly instead of looping silently.
    retry_cap: u64,
}

impl<E: CasEnsemble> SilentRetryConsensus<E> {
    /// Build over object 0 of `ensemble`, tolerating at most `t` silent
    /// faults in total.
    pub fn new(ensemble: E, t: u64) -> Self {
        assert!(!ensemble.is_empty(), "needs one CAS object");
        SilentRetryConsensus {
            ensemble,
            t,
            retry_cap: t.saturating_add(16),
        }
    }
}

impl<E: CasEnsemble> Consensus for SilentRetryConsensus<E> {
    fn decide(&self, val: Input) -> Input {
        drive(
            &self.ensemble,
            SilentRetryMachine::new(val),
            self.retry_cap,
            format_args!(
                "silent-retry protocol exceeded its retry cap ({}): more than t = {} silent faults?",
                self.retry_cap, self.t
            ),
        )
    }

    fn tolerance(&self) -> Tolerance {
        // One object, at most t (silent) faults, any number of processes.
        Tolerance::ft(1, Bound::Finite(self.t))
    }

    fn objects_used(&self) -> usize {
        1
    }

    fn name(&self) -> &'static str {
        "silent-retry"
    }

    fn renew(&mut self, salt: u64) -> bool {
        self.ensemble.renew(salt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_cas::{AtomicCasArray, FaultyCasArray, FirstKPolicy};
    use ff_spec::FaultKind;
    use std::sync::Arc;

    #[test]
    fn fault_free_agreement() {
        let c = SilentRetryConsensus::new(Arc::new(AtomicCasArray::new(1)), 3);
        assert_eq!(c.decide(Input(5)), Input(5));
        assert_eq!(c.decide(Input(9)), Input(5));
    }

    #[test]
    fn rides_out_bounded_silent_faults() {
        // The first 3 matching CASes are silently dropped; retries win.
        let t = 3u64;
        let ensemble = Arc::new(
            FaultyCasArray::builder(1)
                .kind(FaultKind::Silent)
                .faulty_first(1)
                .per_object(Bound::Finite(t))
                .policy(FirstKPolicy::new(t))
                .build(),
        );
        let c = SilentRetryConsensus::new(Arc::clone(&ensemble), t);
        assert_eq!(c.decide(Input(7)), Input(7));
        assert_eq!(c.decide(Input(8)), Input(7));
        assert_eq!(ensemble.stats().total_observable(), t);
    }

    #[test]
    fn concurrent_with_silent_faults() {
        for _ in 0..50 {
            let t = 2u64;
            let ensemble = Arc::new(
                FaultyCasArray::builder(1)
                    .kind(FaultKind::Silent)
                    .faulty_first(1)
                    .per_object(Bound::Finite(t))
                    .policy(FirstKPolicy::new(t))
                    .build(),
            );
            let c = Arc::new(SilentRetryConsensus::new(ensemble, t));
            let decisions: Vec<Input> = std::thread::scope(|s| {
                (0..4u32)
                    .map(|i| {
                        let c = Arc::clone(&c);
                        s.spawn(move || c.decide(Input(i)))
                    })
                    .collect::<Vec<_>>()
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .collect()
            });
            assert!(decisions.windows(2).all(|w| w[0] == w[1]), "{decisions:?}");
        }
    }

    #[test]
    #[should_panic(expected = "retry cap")]
    fn unbounded_silent_faults_trip_the_cap() {
        // Declare t = 1 but inject far more: the loop cannot terminate by
        // deciding and must fail loudly — the mechanical face of the
        // paper's nontermination claim for unbounded silent faults.
        let ensemble = Arc::new(
            FaultyCasArray::builder(1)
                .kind(FaultKind::Silent)
                .faulty_first(1)
                .per_object(Bound::Unbounded)
                .policy(ff_cas::AlwaysPolicy)
                .build(),
        );
        let c = SilentRetryConsensus::new(ensemble, 1);
        let _ = c.decide(Input(1));
    }

    #[test]
    fn metadata() {
        let c = SilentRetryConsensus::new(Arc::new(AtomicCasArray::new(1)), 4);
        assert_eq!(c.objects_used(), 1);
        assert_eq!(c.name(), "silent-retry");
        assert_eq!(c.tolerance().t, Bound::Finite(4));
    }
}
