//! Figure 2 (the `f`-tolerant cascade) — the one description, explored
//! by `ff-sim` and run natively by [`CascadeConsensus`](crate::CascadeConsensus).

use ff_sim::{Op, OpResult, Process, Status};
use ff_spec::{Input, ObjectId, BOTTOM};

/// Sweeps `O_0 … O_f`, CASing the current estimate in and adopting any
/// input value found; decides after the last object.
///
/// **Junk words.** Under *arbitrary* faults a faulty object can return
/// a word that is neither `⊥` nor an input. The machine skips it —
/// keeps its estimate and moves on — and that is sound: Theorem 5's
/// guarantee rests on the reliable object `O_j`, where every process
/// adopts the first value written; a reliable object only ever holds
/// what some process CASed in, which is always an input, so skipping a
/// non-input word never skips *that* value, and agreement and validity
/// survive. (With overriding or silent faults every word in a cell is
/// `⊥` or an input, so the branch never runs and the explored state
/// spaces are those of the paper's Figure 2.) The accepted residue: a
/// junk word that happens to fall in the input range is adopted like an
/// input, and agreement or validity can then break — probability 2⁻³²
/// per arbitrary fault for uniformly random 64-bit junk.
#[derive(Clone, Debug)]
pub struct CascadeMachine {
    input: Input,
    output: Input,
    f: usize,
    i: usize,
    status: Status,
}

impl CascadeMachine {
    /// Machine for the `f`-tolerant protocol (over `f + 1` objects).
    #[inline]
    pub fn new(input: Input, f: usize) -> Self {
        CascadeMachine {
            input,
            output: input,
            f,
            i: 0,
            status: Status::Running,
        }
    }
}

impl Process for CascadeMachine {
    #[inline]
    fn next_op(&self) -> Op {
        Op::Cas {
            obj: ObjectId(self.i),
            exp: BOTTOM,
            new: self.output.to_word(),
        }
    }

    #[inline]
    fn apply(&mut self, result: OpResult) -> Status {
        // `⊥` and junk words both decode to `None` and leave `output` alone.
        if let Some(found) = Input::from_word(result.cas_old()) {
            self.output = found;
        }
        self.i += 1;
        if self.i > self.f {
            self.status = Status::Decided(self.output);
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
            self.i as u64,
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
    use crate::machines::cascades;
    use ff_sim::{
        explore, run, ExplorerConfig, FaultPlan, GreedyFault, Heap, NeverFault, RoundRobin,
        RunConfig, SeededRandom, SimState,
    };
    use ff_spec::{check_consensus, Bound};

    #[test]
    fn solo_decides_own_input() {
        let mut m = CascadeMachine::new(Input(3), 1);
        // Two objects: both CASes succeed against ⊥.
        assert_eq!(m.apply(OpResult::Cas { old: BOTTOM }), Status::Running);
        assert_eq!(
            m.apply(OpResult::Cas { old: BOTTOM }),
            Status::Decided(Input(3))
        );
    }

    #[test]
    fn adopts_found_values() {
        let mut m = CascadeMachine::new(Input(3), 1);
        assert_eq!(m.apply(OpResult::Cas { old: 9 }), Status::Running);
        assert_eq!(
            m.apply(OpResult::Cas { old: BOTTOM }),
            Status::Decided(Input(9))
        );
    }

    #[test]
    fn junk_words_are_skipped() {
        // An arbitrary fault's garbage is neither ⊥ nor an input: the
        // estimate stands, whether it is the input or an adopted value.
        let mut m = CascadeMachine::new(Input(3), 2);
        assert_eq!(m.apply(OpResult::Cas { old: 1 << 40 }), Status::Running);
        assert_eq!(m.apply(OpResult::Cas { old: 9 }), Status::Running);
        assert_eq!(
            m.apply(OpResult::Cas { old: 1 << 40 }),
            Status::Decided(Input(9))
        );
    }

    #[test]
    fn theorem5_f1_verified_exhaustively() {
        // f = 1: 2 objects, O_0 faulty (unbounded), n = 3 — exhaustively
        // correct (Theorem 5 at the smallest nontrivial size).
        let plan = FaultPlan::overriding(1, Bound::Unbounded);
        let inputs = [Input(10), Input(20), Input(30)];
        let state = SimState::new(cascades(&inputs, 1), Heap::new(2, 0), plan);
        let report = explore(state, ExplorerConfig::default());
        assert!(report.verified(), "{report:?}");
    }

    #[test]
    fn theorem5_faulty_object_anywhere() {
        // The faulty object's position must not matter: put it last.
        let plan = FaultPlan {
            kind: ff_spec::FaultKind::Overriding,
            faulty: vec![ObjectId(1)],
            per_object: Bound::Unbounded,
            kind_overrides: Default::default(),
        };
        let inputs = [Input(10), Input(20), Input(30)];
        let state = SimState::new(cascades(&inputs, 1), Heap::new(2, 0), plan);
        let report = explore(state, ExplorerConfig::default());
        assert!(report.verified(), "{report:?}");
    }

    #[test]
    fn theorem5_arbitrary_faulty_object_first_and_last() {
        // The kind the `robust` substrates advertise: one object faults
        // arbitrarily (unbounded), the other is reliable, n = 3 —
        // exhaustively correct wherever the faulty object sits.
        for faulty in [ObjectId(0), ObjectId(1)] {
            let plan = FaultPlan {
                kind: ff_spec::FaultKind::Arbitrary,
                faulty: vec![faulty],
                per_object: Bound::Unbounded,
                kind_overrides: Default::default(),
            };
            let inputs = [Input(10), Input(20), Input(30)];
            let state = SimState::new(cascades(&inputs, 1), Heap::new(2, 0), plan);
            let report = explore(state, ExplorerConfig::default());
            assert!(report.verified(), "faulty {faulty}: {report:?}");
        }
    }

    #[test]
    fn only_f_objects_breaks_with_three_processes() {
        // Theorem 18's positive side: run the cascade logic over f = 1
        // objects ALL faulty (i.e. zero reliable objects) with n = 3 — a
        // violation exists. (CascadeMachine with f = 0 is the one-shot.)
        let plan = FaultPlan::overriding(1, Bound::Unbounded);
        let inputs = [Input(10), Input(20), Input(30)];
        let state = SimState::new(cascades(&inputs, 0), Heap::new(1, 0), plan);
        let report = explore(state, ExplorerConfig::default());
        assert!(report.violation.is_some(), "{report:?}");
    }

    #[test]
    fn greedy_random_stress_run() {
        for seed in 0..20 {
            let plan = FaultPlan::overriding(2, Bound::Unbounded);
            let inputs: Vec<Input> = (0..5).map(Input).collect();
            let report = run(
                cascades(&inputs, 2),
                Heap::new(3, 0),
                &plan,
                &mut SeededRandom::new(seed),
                &mut GreedyFault::new(plan.clone()),
                RunConfig::default(),
            );
            let verdict = check_consensus(&report.outcomes, Some(3));
            assert!(verdict.ok(), "seed {seed}: {:?}", verdict.violations);
        }
    }

    #[test]
    fn wait_freedom_step_bound() {
        // Each process takes exactly f + 1 shared steps.
        let inputs = [Input(1), Input(2)];
        let report = run(
            cascades(&inputs, 3),
            Heap::new(4, 0),
            &FaultPlan::none(),
            &mut RoundRobin::new(),
            &mut NeverFault,
            RunConfig::default(),
        );
        for o in &report.outcomes {
            assert_eq!(o.steps, 4);
        }
    }
}
