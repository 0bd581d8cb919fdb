//! Figure 3: the `(f, t, f+1)`-tolerant construction from `f` CAS objects,
//! **all of which may be faulty** (Theorem 6).
//!
//! The execution is divided into `maxStage + 1` stages with
//! `maxStage = t · (4f + f²)`. In each ordinary stage a process sweeps
//! `O_0 … O_{f-1}`, CASing its current estimate `⟨output, s⟩` in; on a
//! failed CAS it either adopts the newer value it found (when
//! `old.stage ≥ s`) or retries with the observed content as the new
//! expectation. Because at most `t · f` faults can occur while the
//! protocol executes `maxStage` stages of at least `f` writes each, some
//! window of `4f + f²` consecutive writes is fault-free, and the proof's
//! claims 7–17 show every process leaves that window carrying the same
//! value. The final stage funnels `⟨output, maxStage⟩` into `O_0`.
//!
//! This beats the data-fault impossibility of Afek et al. — consensus
//! from *faulty-only* objects — which is the paper's headline separation
//! between functional and data faults.

use crate::machines::StagedMachine;
use crate::protocol::{drive, Consensus};
use crate::stage_value::max_stage;
use ff_cas::CasEnsemble;
use ff_spec::{Bound, Input, Tolerance};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Step budget for one `decide`: within tolerance the proof bounds
/// retries, so tripping this indicates an out-of-contract
/// execution (more faults than budgeted, or more than `f + 1` processes).
const RETRY_GUARD: u64 = 100_000_000;

/// The Figure 3 protocol over `f` (possibly all faulty) CAS objects.
pub struct StagedConsensus<E: CasEnsemble + ?Sized> {
    ensemble: Arc<E>,
    f: u64,
    t: u64,
    max_stage: u32,
    participants: AtomicUsize,
}

impl<E: CasEnsemble + ?Sized> StagedConsensus<E> {
    /// Build the `(f, t, f+1)`-tolerant protocol; `ensemble` must hold
    /// exactly `f ≥ 1` objects, and `t ≥ 1` bounds the faults per object.
    pub fn new(ensemble: Arc<E>, f: u64, t: u64) -> Self {
        assert!(f >= 1, "Theorem 6 needs f ∈ ℕ⁺");
        assert!(t >= 1, "Theorem 6 needs t ∈ ℕ⁺");
        assert_eq!(
            ensemble.len() as u64,
            f,
            "Theorem 6 construction uses exactly f = {f} objects, got {}",
            ensemble.len()
        );
        StagedConsensus {
            ensemble,
            f,
            t,
            max_stage: max_stage(f, t),
            participants: AtomicUsize::new(0),
        }
    }

    /// The stage bound `t · (4f + f²)` in force.
    pub fn max_stage(&self) -> u32 {
        self.max_stage
    }

    /// Override the stage bound (ablation benches: the paper notes the
    /// proven bound is conservative). Out-of-spec values void the
    /// tolerance guarantee; correctness is then *measured*, not promised.
    pub fn with_max_stage(mut self, max_stage: u32) -> Self {
        assert!(max_stage >= 1, "need at least one stage");
        self.max_stage = max_stage;
        self
    }
}

impl<E: CasEnsemble + ?Sized> Consensus for StagedConsensus<E> {
    fn decide(&self, val: Input) -> Input {
        let joined = self.participants.fetch_add(1, Ordering::Relaxed) as u64;
        assert!(
            joined <= self.f,
            "StagedConsensus is (f, t, f+1)-tolerant: at most f + 1 = {} participants (Theorem 19 \
             shows f + 2 processes are impossible with f objects)",
            self.f + 1
        );

        drive(
            &*self.ensemble,
            StagedMachine::with_max_stage(val, self.f, self.max_stage),
            RETRY_GUARD,
            format_args!("staged protocol retry guard tripped"),
        )
    }

    fn tolerance(&self) -> Tolerance {
        Tolerance::new(self.f, Bound::Finite(self.t), Bound::Finite(self.f + 1))
    }

    fn objects_used(&self) -> usize {
        self.f as usize
    }

    fn name(&self) -> &'static str {
        "fig3-staged"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_cas::{AlwaysPolicy, AtomicCasArray, FaultyCasArray, ProbabilisticPolicy};
    use ff_spec::{check_consensus, Outcome, ProcessId};

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
    fn solo_run_decides_own_input() {
        let c = StagedConsensus::new(Arc::new(AtomicCasArray::new(2)), 2, 1);
        assert_eq!(c.decide(Input(7)), Input(7));
    }

    #[test]
    fn sequential_fault_free_agreement() {
        let c = StagedConsensus::new(Arc::new(AtomicCasArray::new(2)), 2, 1);
        let d0 = c.decide(Input(10));
        let d1 = c.decide(Input(20));
        let d2 = c.decide(Input(30));
        check(&[(10, d0), (20, d1), (30, d2)]);
        assert_eq!(d0, Input(10));
    }

    #[test]
    fn concurrent_fault_free_agreement() {
        for _ in 0..30 {
            let c = Arc::new(StagedConsensus::new(Arc::new(AtomicCasArray::new(3)), 3, 2));
            let decisions: Vec<(u32, Input)> = std::thread::scope(|s| {
                (0..4u32)
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
    fn all_objects_faulty_bounded_t_agreement() {
        // The headline: f objects, ALL faulty, t bounded, n = f + 1.
        for seed in 0..40 {
            let f = 2u64;
            let t = 2u64;
            let ensemble = Arc::new(
                FaultyCasArray::builder(f as usize)
                    .faulty_first(f as usize)
                    .per_object(Bound::Finite(t))
                    .policy(ProbabilisticPolicy::new(0.3, seed))
                    .build(),
            );
            let c = Arc::new(StagedConsensus::new(ensemble.clone(), f, t));
            let decisions: Vec<(u32, Input)> = std::thread::scope(|s| {
                (0..=f as u32)
                    .map(|i| {
                        let c = Arc::clone(&c);
                        s.spawn(move || (100 + i, c.decide(Input(100 + i))))
                    })
                    .collect::<Vec<_>>()
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .collect()
            });
            check(&decisions);
            // The execution stayed within the declared tolerance.
            let h = ensemble.history();
            assert!(h.max_faults_per_object() <= t);
            assert!(h.faulty_object_count() <= f);
        }
    }

    #[test]
    fn greedy_front_loaded_faults_agreement() {
        // AlwaysPolicy burns the whole budget at the first opportunities —
        // the bounded-burst adversary.
        for f in 1..=3u64 {
            for t in 1..=2u64 {
                let ensemble = Arc::new(
                    FaultyCasArray::builder(f as usize)
                        .faulty_first(f as usize)
                        .per_object(Bound::Finite(t))
                        .policy(AlwaysPolicy)
                        .build(),
                );
                let c = Arc::new(StagedConsensus::new(ensemble, f, t));
                let decisions: Vec<(u32, Input)> = std::thread::scope(|s| {
                    (0..=f as u32)
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
    }

    #[test]
    #[should_panic(expected = "at most f + 1")]
    fn too_many_participants_rejected() {
        let c = StagedConsensus::new(Arc::new(AtomicCasArray::new(1)), 1, 1);
        c.decide(Input(0));
        c.decide(Input(1));
        c.decide(Input(2));
    }

    #[test]
    #[should_panic(expected = "exactly f")]
    fn wrong_object_count_panics() {
        let _ = StagedConsensus::new(Arc::new(AtomicCasArray::new(3)), 2, 1);
    }

    #[test]
    fn metadata_and_max_stage() {
        let c = StagedConsensus::new(Arc::new(AtomicCasArray::new(2)), 2, 3);
        assert_eq!(c.max_stage(), 36); // 3 · (8 + 4)
        assert_eq!(c.objects_used(), 2);
        assert_eq!(c.tolerance(), Tolerance::new(2, 3, 3));
        let c = c.with_max_stage(5);
        assert_eq!(c.max_stage(), 5);
    }
}
