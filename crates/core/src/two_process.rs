//! Figure 1: the `(f, ∞, 2)`-tolerant two-process protocol (Theorem 4).
//!
//! ```text
//! decide(val):
//!   old ← CAS(O, ⊥, val)
//!   if (old ≠ ⊥) then return old
//!   else return val
//! ```
//!
//! The code is Herlihy's protocol — the *anomaly* (Section 4.1) is that
//! with only two processes it tolerates **unbounded overriding faults on
//! its single object**: if the loser's CAS faults and overrides the
//! winner's value, the returned `old` is still the winner's value (the
//! overriding fault keeps outputs correct), so the loser adopts it; and
//! the winner has already returned. With three or more processes a third
//! CAS can read the overridden value — which is why this tolerance is
//! stated for `n = 2` only (and why Theorem 18 kills `n > 2`).

use crate::machines::OneShotMachine;
use crate::protocol::{drive, Consensus};
use ff_cas::CasEnsemble;
use ff_spec::{Bound, Input, Tolerance};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The Figure 1 protocol: one CAS object, two processes, unbounded
/// overriding faults tolerated.
pub struct TwoProcessConsensus<E: CasEnsemble + ?Sized> {
    ensemble: Arc<E>,
    participants: AtomicUsize,
}

impl<E: CasEnsemble + ?Sized> TwoProcessConsensus<E> {
    /// Build over object 0 of `ensemble`.
    pub fn new(ensemble: Arc<E>) -> Self {
        assert!(!ensemble.is_empty(), "needs one CAS object");
        TwoProcessConsensus {
            ensemble,
            participants: AtomicUsize::new(0),
        }
    }
}

impl<E: CasEnsemble + ?Sized> Consensus for TwoProcessConsensus<E> {
    fn decide(&self, val: Input) -> Input {
        let joined = self.participants.fetch_add(1, Ordering::Relaxed);
        assert!(
            joined < 2,
            "TwoProcessConsensus supports exactly two participants (Theorem 4 is for n = 2)"
        );
        drive(
            &*self.ensemble,
            OneShotMachine::new(val),
            1,
            format_args!("Figure 1 decides in one step"),
        )
    }

    fn tolerance(&self) -> Tolerance {
        // (f, ∞, 2) for any f: the single object may fault unboundedly.
        Tolerance::new(u64::MAX, Bound::Unbounded, 2)
    }

    fn objects_used(&self) -> usize {
        1
    }

    fn name(&self) -> &'static str {
        "fig1-two-process"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_cas::{AlwaysPolicy, FaultyCasArray};

    fn faulty_ensemble() -> Arc<FaultyCasArray<AlwaysPolicy>> {
        Arc::new(
            FaultyCasArray::builder(1)
                .faulty_first(1)
                .per_object(Bound::Unbounded)
                .policy(AlwaysPolicy)
                .build(),
        )
    }

    #[test]
    fn two_threads_agree_under_unbounded_overriding_faults() {
        for trial in 0..200 {
            let c = Arc::new(TwoProcessConsensus::new(faulty_ensemble()));
            let (a, b) = std::thread::scope(|s| {
                let c0 = Arc::clone(&c);
                let c1 = Arc::clone(&c);
                let h0 = s.spawn(move || c0.decide(Input(10)));
                let h1 = s.spawn(move || c1.decide(Input(20)));
                (h0.join().unwrap(), h1.join().unwrap())
            });
            assert_eq!(a, b, "trial {trial}: both processes must agree");
            assert!(a == Input(10) || a == Input(20), "validity");
        }
    }

    #[test]
    fn sequential_two_processes() {
        let c = TwoProcessConsensus::new(faulty_ensemble());
        let d0 = c.decide(Input(1));
        let d1 = c.decide(Input(2));
        assert_eq!(d0, Input(1));
        assert_eq!(d1, Input(1), "the second process adopts the first's value");
    }

    #[test]
    #[should_panic(expected = "exactly two participants")]
    fn third_participant_is_rejected() {
        let c = TwoProcessConsensus::new(faulty_ensemble());
        c.decide(Input(1));
        c.decide(Input(2));
        c.decide(Input(3));
    }

    #[test]
    fn metadata() {
        let c = TwoProcessConsensus::new(faulty_ensemble());
        assert_eq!(c.objects_used(), 1);
        assert_eq!(c.tolerance().n, Bound::Finite(2));
        assert!(c.tolerance().t.is_unbounded());
    }
}
