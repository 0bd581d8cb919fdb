//! Figure 3 (the `(f, t, f+1)`-tolerant staged protocol), one CAS per
//! step — the one description, explored by `ff-sim` and run natively by
//! [`StagedConsensus`](crate::StagedConsensus).

use crate::stage_value::{max_stage, StageValue};
use ff_sim::{Op, OpResult, Process, Status};
use ff_spec::{Input, ObjectId, Word, BOTTOM};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    /// Lines 3–18: sweeping object `i` at stage `s`.
    Main,
    /// Lines 19–23: funneling into `O_0`.
    Final,
}

/// The staged protocol as a step machine.
///
/// The machine does **not** enforce the `n ≤ f + 1` participant cap
/// (`StagedConsensus::decide` does): the lower-bound experiments
/// (Theorem 19) deliberately run it with `f + 2` processes to exhibit
/// the violation.
#[derive(Clone, Debug)]
pub struct StagedMachine {
    input: Input,
    f: u64,
    max_stage: u32,
    output: Input,
    exp: Word,
    s: u32,
    i: usize,
    phase: Phase,
    status: Status,
}

impl StagedMachine {
    /// Machine with the proven stage bound `t · (4f + f²)`.
    pub fn new(input: Input, f: u64, t: u64) -> Self {
        Self::with_max_stage(input, f, max_stage(f, t))
    }

    /// Machine with an explicit stage bound (ablations).
    #[inline]
    pub fn with_max_stage(input: Input, f: u64, max_stage: u32) -> Self {
        assert!(f >= 1, "Theorem 6 needs f ∈ ℕ⁺");
        assert!(max_stage >= 1, "need at least one stage");
        StagedMachine {
            input,
            f,
            max_stage,
            output: input,
            exp: BOTTOM,
            s: 0,
            i: 0,
            phase: Phase::Main,
            status: Status::Running,
        }
    }

    /// Line 17 (`exp.stage ← s`, `⊥` stays `⊥`) plus the for/while loop
    /// bookkeeping of lines 4 and 18.
    fn advance_object(&mut self) {
        self.exp = match StageValue::unpack(self.exp) {
            None => BOTTOM,
            Some(sv) => StageValue::new(sv.val, self.s).pack(),
        };
        self.i += 1;
        if self.i as u64 == self.f {
            self.i = 0;
            self.s += 1;
            if self.s >= self.max_stage {
                self.phase = Phase::Final;
            }
        }
    }
}

impl Process for StagedMachine {
    #[inline]
    fn next_op(&self) -> Op {
        match self.phase {
            Phase::Main => Op::Cas {
                obj: ObjectId(self.i),
                exp: self.exp,
                new: StageValue::new(self.output, self.s).pack(),
            },
            Phase::Final => Op::Cas {
                obj: ObjectId(0),
                exp: self.exp,
                new: StageValue::new(self.output, self.max_stage).pack(),
            },
        }
    }

    #[inline]
    fn apply(&mut self, result: OpResult) -> Status {
        let old = result.cas_old();
        match self.phase {
            Phase::Main => {
                if old != self.exp {
                    if StageValue::stage_of(old) >= self.s as i64 {
                        let sv =
                            StageValue::unpack(old).expect("stage ≥ s ≥ 0 implies a non-⊥ pair");
                        self.output = sv.val; // line 9
                        self.s = sv.stage; // line 10
                        if self.s == self.max_stage {
                            self.status = Status::Decided(self.output); // line 12
                            return self.status;
                        }
                        // line 13 (value part; stage retargeted by line 17)
                        self.exp = StageValue::new(sv.val, sv.stage.saturating_sub(1)).pack();
                        self.advance_object(); // line 14 + 17
                    } else {
                        self.exp = old; // line 15: retry same object
                    }
                } else {
                    self.advance_object(); // line 16 + 17
                }
            }
            Phase::Final => {
                if old != self.exp && StageValue::stage_of(old) < self.max_stage as i64 {
                    self.exp = old; // line 22
                } else {
                    self.status = Status::Decided(self.output); // line 24
                }
            }
        }
        self.status
    }

    fn status(&self) -> Status {
        self.status
    }

    fn input(&self) -> Input {
        self.input
    }

    fn snapshot(&self) -> Vec<u64> {
        vec![
            self.input.0 as u64,
            self.output.0 as u64,
            self.exp,
            self.s as u64,
            self.i as u64,
            match self.phase {
                Phase::Main => 0,
                Phase::Final => 1,
            },
            self.status.word(),
        ]
    }

    fn box_clone(&self) -> Box<dyn Process> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machines::staged;
    use ff_sim::{
        explore, run, ExplorerConfig, FaultPlan, GreedyFault, Heap, NeverFault, RoundRobin,
        RunConfig, SeededRandom, SimState,
    };
    use ff_spec::{check_consensus, Bound};

    #[test]
    fn solo_run_decides_own_input() {
        let inputs = [Input(7)];
        let report = run(
            staged(&inputs, 2, 1),
            Heap::new(2, 0),
            &FaultPlan::none(),
            &mut RoundRobin::new(),
            &mut NeverFault,
            RunConfig::default(),
        );
        assert!(report.completed);
        assert_eq!(report.outcomes[0].decision, Some(Input(7)));
    }

    #[test]
    fn fault_free_pair_agrees_exhaustively() {
        // f = 1, t = 1 (maxStage = 5), n = 2, no faults: exhaustive.
        let inputs = [Input(10), Input(20)];
        let state = SimState::new(staged(&inputs, 1, 1), Heap::new(1, 0), FaultPlan::none());
        let report = explore(state, ExplorerConfig::default());
        assert!(report.verified(), "{report:?}");
    }

    #[test]
    fn theorem6_f1_t1_verified_exhaustively() {
        // f = 1 object, ALL faulty, t = 1, n = f + 1 = 2: the smallest
        // instance of the headline theorem, proved by enumeration.
        let plan = FaultPlan::overriding(1, Bound::Finite(1));
        let inputs = [Input(10), Input(20)];
        let state = SimState::new(staged(&inputs, 1, 1), Heap::new(1, 0), plan);
        let report = explore(state, ExplorerConfig::default());
        assert!(report.verified(), "{report:?}");
    }

    #[test]
    fn theorem6_f1_t2_verified_exhaustively() {
        let plan = FaultPlan::overriding(1, Bound::Finite(2));
        let inputs = [Input(10), Input(20)];
        let state = SimState::new(staged(&inputs, 1, 2), Heap::new(1, 0), plan);
        let report = explore(state, ExplorerConfig::default());
        assert!(report.verified(), "{report:?}");
    }

    #[test]
    fn theorem6_f2_t1_random_stress() {
        // f = 2, t = 1, n = 3: exhaustive exploration is large; stress
        // with seeded random schedules + greedy faults instead (the
        // exhaustive run lives in the slow integration suite).
        for seed in 0..40 {
            let plan = FaultPlan::overriding(2, Bound::Finite(1));
            let inputs = [Input(10), Input(20), Input(30)];
            let report = run(
                staged(&inputs, 2, 1),
                Heap::new(2, 0),
                &plan,
                &mut SeededRandom::new(seed),
                &mut GreedyFault::new(plan.clone()),
                RunConfig::default(),
            );
            assert!(report.completed, "seed {seed}");
            let verdict = check_consensus(&report.outcomes, None);
            assert!(verdict.ok(), "seed {seed}: {:?}", verdict.violations);
        }
    }

    #[test]
    fn machine_matches_blocking_form_solo() {
        // The native driver against the simulator's executor: a solo
        // machine run and a solo blocking run decide identically.
        use crate::protocol::Consensus;
        use crate::staged::StagedConsensus;
        use ff_cas::AtomicCasArray;
        use std::sync::Arc;

        let (f, t) = (2u64, 1u64);
        let report = run(
            staged(&[Input(42)], f, t),
            Heap::new(f as usize, 0),
            &FaultPlan::none(),
            &mut RoundRobin::new(),
            &mut NeverFault,
            RunConfig::default(),
        );
        let blocking = StagedConsensus::new(Arc::new(AtomicCasArray::new(f as usize)), f, t);
        assert_eq!(
            report.outcomes[0].decision,
            Some(blocking.decide(Input(42)))
        );
    }

    #[test]
    fn ablation_small_max_stage_still_terminates() {
        let inputs = [Input(1), Input(2)];
        let report = run(
            crate::machines::staged_with_max_stage(&inputs, 1, 1),
            Heap::new(1, 0),
            &FaultPlan::none(),
            &mut RoundRobin::new(),
            &mut NeverFault,
            RunConfig::default(),
        );
        assert!(report.completed);
    }

    #[test]
    fn snapshot_distinguishes_progress() {
        let mut a = StagedMachine::new(Input(1), 1, 1);
        let b = StagedMachine::new(Input(1), 1, 1);
        assert_eq!(a.snapshot(), b.snapshot());
        a.apply(OpResult::Cas { old: BOTTOM });
        assert_ne!(a.snapshot(), b.snapshot());
    }
}
