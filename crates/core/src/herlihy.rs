//! The baseline: Herlihy's single-CAS consensus (Section 2).
//!
//! The object is initialized to `⊥`; every process CASes its input in,
//! expecting `⊥`; exactly one succeeds, and everyone returns the object's
//! first written value. Correct for any number of processes **when the
//! CAS object is reliable** — a single overriding fault breaks it for
//! `n ≥ 3` (experiment E9), which is what motivates the paper's
//! constructions.

use crate::machines::OneShotMachine;
use crate::protocol::{drive, Consensus};
use ff_cas::CasEnsemble;
use ff_spec::{Bound, Input, Tolerance};

/// Herlihy's consensus from one CAS object. Owns its ensemble; pass an
/// `Arc` (itself a [`CasEnsemble`]) to keep a handle on it.
pub struct HerlihyConsensus<E: CasEnsemble> {
    ensemble: E,
}

impl<E: CasEnsemble> HerlihyConsensus<E> {
    /// Build over object 0 of `ensemble` (which must have ≥ 1 object).
    pub fn new(ensemble: E) -> Self {
        assert!(!ensemble.is_empty(), "object O0 out of range");
        HerlihyConsensus { ensemble }
    }
}

impl<E: CasEnsemble> Consensus for HerlihyConsensus<E> {
    fn decide(&self, val: Input) -> Input {
        drive(
            &self.ensemble,
            OneShotMachine::new(val),
            1,
            format_args!("the single-CAS protocol decides in one step"),
        )
    }

    fn tolerance(&self) -> Tolerance {
        // Reliable objects only — but for any number of processes.
        Tolerance::new(0, 0, Bound::Unbounded)
    }

    fn objects_used(&self) -> usize {
        1
    }

    fn name(&self) -> &'static str {
        "herlihy"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_cas::{AlwaysPolicy, AtomicCasArray, FaultyCasArray};
    use ff_spec::check_consensus;
    use ff_spec::Outcome;
    use ff_spec::ProcessId;
    use std::sync::Arc;

    fn outcomes_of(decisions: &[(u32, Input)]) -> Vec<Outcome> {
        decisions
            .iter()
            .enumerate()
            .map(|(i, &(input, decision))| Outcome {
                process: ProcessId(i),
                input: Input(input),
                decision: Some(decision),
                steps: 1,
            })
            .collect()
    }

    #[test]
    fn sequential_agreement() {
        let c = HerlihyConsensus::new(Arc::new(AtomicCasArray::new(1)));
        let d0 = c.decide(Input(10));
        let d1 = c.decide(Input(20));
        assert_eq!(d0, Input(10));
        assert_eq!(d1, Input(10));
    }

    #[test]
    fn concurrent_agreement_fault_free() {
        let c = Arc::new(HerlihyConsensus::new(Arc::new(AtomicCasArray::new(1))));
        let decisions: Vec<(u32, Input)> = std::thread::scope(|s| {
            (0..8u32)
                .map(|i| {
                    let c = Arc::clone(&c);
                    s.spawn(move || (i, c.decide(Input(i))))
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        let verdict = check_consensus(&outcomes_of(&decisions), None);
        assert!(verdict.ok(), "{:?}", verdict.violations);
    }

    #[test]
    fn a_single_override_breaks_it_sequentially() {
        // p0 decides 10. A later overriding CAS by p1 replaces the value;
        // p2 then reads p1's value: disagreement (E9's essence).
        let ensemble = Arc::new(
            FaultyCasArray::builder(1)
                .faulty_first(1)
                .per_object(Bound::Finite(1))
                .policy(AlwaysPolicy)
                .build(),
        );
        let c = HerlihyConsensus::new(Arc::clone(&ensemble));
        let d0 = c.decide(Input(10)); // correct success (match) — refunded
        let d1 = c.decide(Input(20)); // overriding fault: writes 20, returns 10
        let d2 = c.decide(Input(30)); // budget spent: correct, reads 20
        assert_eq!(d0, Input(10));
        assert_eq!(d1, Input(10), "the fault's output is still correct");
        assert_eq!(d2, Input(20), "but the override corrupted the decision");
        let verdict = check_consensus(&outcomes_of(&[(10, d0), (20, d1), (30, d2)]), None);
        assert!(!verdict.ok());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn needs_an_object() {
        let _ = HerlihyConsensus::new(Arc::new(AtomicCasArray::new(0)));
    }

    #[test]
    fn metadata() {
        let c = HerlihyConsensus::new(Arc::new(AtomicCasArray::new(1)));
        assert_eq!(c.objects_used(), 1);
        assert_eq!(c.name(), "herlihy");
        assert_eq!(c.tolerance().f, 0);
    }
}
