//! Figure 2: the `f`-tolerant construction from `f + 1` CAS objects
//! (Theorem 5).
//!
//! ```text
//! decide(val):
//!   output ← val
//!   for i = 0 to f do
//!     old ← CAS(O_i, ⊥, output)
//!     if (old ≠ ⊥) then output ← old
//!   return output
//! ```
//!
//! With at most `f` faulty objects (each possibly faulting unboundedly),
//! at least one object `O_j` is reliable; the first value `x` written to
//! `O_j` sticks, every process adopts `x` there, and from then on every
//! process carries `x` through the remaining objects — so all return `x`.

use crate::machines::CascadeMachine;
use crate::protocol::{drive, Consensus};
use ff_cas::CasEnsemble;
use ff_spec::{Input, Tolerance};

/// The Figure 2 protocol over `f + 1` CAS objects. Owns its ensemble,
/// so a cell is one heap object; pass an `Arc` (itself a
/// [`CasEnsemble`]) to keep a handle on it.
pub struct CascadeConsensus<E: CasEnsemble> {
    ensemble: E,
    f: usize,
}

impl<E: CasEnsemble> CascadeConsensus<E> {
    /// Build the `f`-tolerant protocol; `ensemble` must hold exactly
    /// `f + 1` objects.
    pub fn new(ensemble: E, f: usize) -> Self {
        assert_eq!(
            ensemble.len(),
            f + 1,
            "Theorem 5 construction needs exactly f + 1 = {} objects, got {}",
            f + 1,
            ensemble.len()
        );
        CascadeConsensus { ensemble, f }
    }

    /// The tolerated number of faulty objects.
    pub fn f(&self) -> usize {
        self.f
    }
}

impl<E: CasEnsemble> Consensus for CascadeConsensus<E> {
    fn decide(&self, val: Input) -> Input {
        drive(
            &self.ensemble,
            CascadeMachine::new(val, self.f),
            self.f as u64 + 1,
            format_args!("Figure 2 decides in f + 1 steps"),
        )
    }

    fn tolerance(&self) -> Tolerance {
        Tolerance::f_tolerant(self.f as u64)
    }

    fn objects_used(&self) -> usize {
        self.f + 1
    }

    fn name(&self) -> &'static str {
        "fig2-cascade"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_cas::{AlwaysPolicy, AtomicCasArray, FaultyCasArray, ProbabilisticPolicy};
    use ff_spec::{check_consensus, Bound, Outcome, ProcessId};
    use std::sync::Arc;

    fn check(decisions: &[(u32, Input)]) {
        let outcomes: Vec<Outcome> = decisions
            .iter()
            .enumerate()
            .map(|(i, &(input, d))| Outcome {
                process: ProcessId(i),
                input: Input(input),
                decision: Some(d),
                steps: 1,
            })
            .collect();
        let verdict = check_consensus(&outcomes, None);
        assert!(verdict.ok(), "{:?}", verdict.violations);
    }

    #[test]
    fn fault_free_agreement() {
        let c = CascadeConsensus::new(Arc::new(AtomicCasArray::new(3)), 2);
        let d: Vec<(u32, Input)> = (0..5).map(|i| (i, c.decide(Input(i)))).collect();
        check(&d);
        assert_eq!(d[0].1, Input(0));
    }

    #[test]
    fn tolerates_f_greedy_unbounded_faulty_objects() {
        // f = 2 faulty objects (greedy, unbounded), f + 1 = 3 objects.
        for seed in 0..50 {
            let ensemble = Arc::new(
                FaultyCasArray::builder(3)
                    .faulty_first(2)
                    .per_object(Bound::Unbounded)
                    .policy(AlwaysPolicy)
                    .build(),
            );
            let c = Arc::new(CascadeConsensus::new(ensemble, 2));
            let decisions: Vec<(u32, Input)> = std::thread::scope(|s| {
                (0..4u32)
                    .map(|i| {
                        let c = Arc::clone(&c);
                        s.spawn(move || (seed * 10 + i, c.decide(Input(seed * 10 + i))))
                    })
                    .collect::<Vec<_>>()
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .collect()
            });
            check(&decisions);
        }
    }

    #[test]
    fn tolerates_probabilistic_faults() {
        for seed in 0..30 {
            let ensemble = Arc::new(
                FaultyCasArray::builder(2)
                    .faulty_first(1)
                    .per_object(Bound::Unbounded)
                    .policy(ProbabilisticPolicy::new(0.5, seed))
                    .build(),
            );
            let c = Arc::new(CascadeConsensus::new(ensemble, 1));
            let decisions: Vec<(u32, Input)> = std::thread::scope(|s| {
                (0..6u32)
                    .map(|i| {
                        let c = Arc::clone(&c);
                        s.spawn(move || (i, c.decide(Input(i))))
                    })
                    .collect::<Vec<_>>()
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .collect()
            });
            check(&decisions);
        }
    }

    #[test]
    fn all_objects_faulty_can_break_it() {
        // Sanity (Theorem 18 direction): with all f + 1 objects faulty the
        // guarantee is void. Sequential schedule: p0 decides; p1 overrides
        // every object; p2 then adopts p1's value.
        let ensemble = Arc::new(
            FaultyCasArray::builder(2)
                .faulty_first(2)
                .per_object(Bound::Unbounded)
                .policy(AlwaysPolicy)
                .build(),
        );
        let c = CascadeConsensus::new(ensemble, 1);
        let d0 = c.decide(Input(10));
        let d1 = c.decide(Input(20));
        let d2 = c.decide(Input(30));
        assert_eq!(d0, Input(10));
        // p1's faulty CASes return 10 both times, so p1 still agrees...
        assert_eq!(d1, Input(10));
        // ...but it *overrode* both objects with 10? No: it adopts 10 at
        // O_0 and then writes 10 onward — the cells hold 10 and p2 agrees
        // too. Overriding faults carrying the *same* value are harmless;
        // the breakage needs interleaving (exercised by the sim explorer
        // in the adversary crate). Here we only assert no panic and
        // validity.
        for d in [d0, d1, d2] {
            assert!([Input(10), Input(20), Input(30)].contains(&d));
        }
    }

    #[test]
    #[should_panic(expected = "f + 1")]
    fn wrong_object_count_panics() {
        let _ = CascadeConsensus::new(Arc::new(AtomicCasArray::new(2)), 2);
    }

    #[test]
    fn metadata() {
        let c = CascadeConsensus::new(Arc::new(AtomicCasArray::new(4)), 3);
        assert_eq!(c.objects_used(), 4);
        assert_eq!(c.f(), 3);
        assert_eq!(c.tolerance(), Tolerance::f_tolerant(3));
        assert_eq!(c.name(), "fig2-cascade");
    }
}
