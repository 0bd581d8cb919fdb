//! The silent-fault retry protocol (Section 3.4) — the one description,
//! explored by `ff-sim` and run natively by
//! [`SilentRetryConsensus`](crate::SilentRetryConsensus).

use ff_sim::{Op, OpResult, Process, Status};
use ff_spec::{Input, ObjectId, BOTTOM};

/// Keeps CASing `(⊥ → input)` on `O_0`; decides the first non-`⊥` value
/// it sees. Terminates iff the total number of silent faults is bounded —
/// under an unbounded greedy silent adversary the state graph has a
/// cycle, which the explorer reports as potential nontermination.
#[derive(Clone, Debug)]
pub struct SilentRetryMachine {
    input: Input,
    status: Status,
    attempts: u64,
}

impl SilentRetryMachine {
    /// Machine with the given input.
    #[inline]
    pub fn new(input: Input) -> Self {
        SilentRetryMachine {
            input,
            status: Status::Running,
            attempts: 0,
        }
    }

    /// CAS attempts so far (for step-complexity measurements).
    pub fn attempts(&self) -> u64 {
        self.attempts
    }
}

impl Process for SilentRetryMachine {
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
        self.attempts += 1;
        let old = result.cas_old();
        if old != BOTTOM {
            let winner = Input::from_word(old).expect("silent-retry cell holds ⊥ or inputs only");
            self.status = Status::Decided(winner);
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
        // `attempts` is intentionally *excluded*: it does not affect
        // future behavior, and keeping it out lets the explorer's
        // memoization recognize the revisited states that witness the
        // unbounded-silent-fault cycle.
        vec![self.input.0 as u64, self.status.word()]
    }

    fn box_clone(&self) -> Box<dyn Process> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machines::silent_retries;
    use ff_sim::{
        explore, run, ExplorerConfig, FaultPlan, GreedyFault, Heap, RoundRobin, RunConfig, SimState,
    };
    use ff_spec::{check_consensus, Bound};

    #[test]
    fn bounded_silent_faults_verified_exhaustively() {
        // One object with at most 2 silent faults, n = 2: every schedule
        // and fault pattern decides consistently.
        let plan = FaultPlan::silent(1, Bound::Finite(2));
        let inputs = [Input(10), Input(20)];
        let state = SimState::new(silent_retries(&inputs), Heap::new(1, 0), plan);
        let report = explore(state, ExplorerConfig::default());
        assert!(report.verified(), "{report:?}");
    }

    #[test]
    fn unbounded_silent_faults_cycle() {
        // Section 3.4: with unbounded silent faults "one can construct an
        // execution in which no process ever updates the CAS object and
        // the protocol never terminates" — the explorer finds the cycle.
        let plan = FaultPlan::silent(1, Bound::Unbounded);
        let inputs = [Input(10), Input(20)];
        let state = SimState::new(silent_retries(&inputs), Heap::new(1, 0), plan);
        let report = explore(state, ExplorerConfig::default());
        assert!(report.cycle_found, "{report:?}");
        assert!(!report.verified());
    }

    #[test]
    fn greedy_bounded_run_decides() {
        let plan = FaultPlan::silent(1, Bound::Finite(3));
        let inputs = [Input(1), Input(2), Input(3)];
        let report = run(
            silent_retries(&inputs),
            Heap::new(1, 0),
            &plan,
            &mut RoundRobin::new(),
            &mut GreedyFault::new(plan.clone()),
            RunConfig::default(),
        );
        assert!(report.completed);
        assert!(check_consensus(&report.outcomes, None).ok());
    }

    #[test]
    fn attempts_counter_tracks_retries() {
        let mut m = SilentRetryMachine::new(Input(5));
        m.apply(OpResult::Cas { old: BOTTOM });
        m.apply(OpResult::Cas { old: BOTTOM });
        m.apply(OpResult::Cas { old: 5 });
        assert_eq!(m.attempts(), 3);
        assert_eq!(m.status(), Status::Decided(Input(5)));
    }
}
