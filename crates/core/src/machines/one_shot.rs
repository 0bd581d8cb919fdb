//! The single-CAS protocol (Herlihy's baseline and, with two processes,
//! Figure 1) — the one description, explored by `ff-sim` and run natively
//! by [`HerlihyConsensus`](crate::HerlihyConsensus) and
//! [`TwoProcessConsensus`](crate::TwoProcessConsensus).

use ff_sim::{Op, OpResult, Process, Status};
use ff_spec::{Input, ObjectId, BOTTOM};

/// One CAS on `O_0`, then `if (old ≠ ⊥) return old else return val`.
///
/// The paper's rule takes whatever the object returns, so a junk word
/// from an *arbitrary* fault becomes a junk decision (masked into the
/// input range so it can be carried): the protocol inherits whatever
/// its one object does, which is what lets a soak over the `naive`
/// substrate *observe* the divergence instead of crashing on it.
#[derive(Clone, Debug)]
pub struct OneShotMachine {
    input: Input,
    status: Status,
}

impl OneShotMachine {
    /// Machine with the given input.
    #[inline]
    pub fn new(input: Input) -> Self {
        OneShotMachine {
            input,
            status: Status::Running,
        }
    }
}

impl Process for OneShotMachine {
    #[inline]
    fn next_op(&self) -> Op {
        Op::Cas {
            obj: ObjectId(0),
            exp: BOTTOM,
            new: self.input.to_word(),
        }
    }

    #[inline]
    fn apply(&mut self, result: OpResult) -> Status {
        let old = result.cas_old();
        let decided = if old == BOTTOM {
            self.input // the cell held ⊥: we chose
        } else {
            // Someone wrote first — or the object returned junk.
            Input::from_word(old).unwrap_or(Input(old as u32 & 0x7fff_ffff))
        };
        self.status = Status::Decided(decided);
        self.status
    }

    fn status(&self) -> Status {
        self.status
    }

    fn input(&self) -> Input {
        self.input
    }

    fn snapshot(&self) -> Vec<u64> {
        vec![self.input.0 as u64, self.status.word()]
    }

    fn box_clone(&self) -> Box<dyn Process> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_sim::{
        explore, run, ExplorerConfig, FaultPlan, Heap, NeverFault, RoundRobin, RunConfig, SimState,
    };
    use ff_spec::{check_consensus, Bound};

    #[test]
    fn decides_own_input_when_first() {
        let mut m = OneShotMachine::new(Input(5));
        assert_eq!(
            m.next_op(),
            Op::Cas {
                obj: ObjectId(0),
                exp: BOTTOM,
                new: 5
            }
        );
        assert_eq!(
            m.apply(OpResult::Cas { old: BOTTOM }),
            Status::Decided(Input(5))
        );
    }

    #[test]
    fn adopts_winner() {
        let mut m = OneShotMachine::new(Input(5));
        assert_eq!(m.apply(OpResult::Cas { old: 9 }), Status::Decided(Input(9)));
    }

    #[test]
    fn carries_junk() {
        // `old ≠ ⊥ → return old`, even when `old` is an arbitrary
        // fault's garbage (masked into the input range).
        let mut m = OneShotMachine::new(Input(5));
        assert_eq!(
            m.apply(OpResult::Cas { old: (1 << 40) | 9 }),
            Status::Decided(Input(9))
        );
    }

    #[test]
    fn executor_run_agrees() {
        let procs = super::super::one_shots(&[Input(1), Input(2), Input(3)]);
        let report = run(
            procs,
            Heap::new(1, 0),
            &FaultPlan::none(),
            &mut RoundRobin::new(),
            &mut NeverFault,
            RunConfig::default(),
        );
        assert!(check_consensus(&report.outcomes, Some(1)).ok());
    }

    #[test]
    fn theorem4_two_processes_verified_exhaustively() {
        // Figure 1 / Theorem 4: n = 2, one object, UNBOUNDED overriding
        // faults — exhaustively correct.
        let plan = FaultPlan::overriding(1, Bound::Unbounded);
        let state = SimState::new(
            super::super::one_shots(&[Input(10), Input(20)]),
            Heap::new(1, 0),
            plan,
        );
        let report = explore(state, ExplorerConfig::default());
        assert!(report.verified(), "{report:?}");
    }

    #[test]
    fn three_processes_with_faults_violate() {
        // The same protocol is NOT (f, ∞, 3)-tolerant: the explorer finds
        // a witness.
        let plan = FaultPlan::overriding(1, Bound::Unbounded);
        let state = SimState::new(
            super::super::one_shots(&[Input(10), Input(20), Input(30)]),
            Heap::new(1, 0),
            plan,
        );
        let report = explore(state, ExplorerConfig::default());
        assert!(report.violation.is_some());
    }
}
