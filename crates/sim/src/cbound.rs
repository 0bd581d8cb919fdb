//! Context-bounded systematic search (iterative context bounding, after
//! Musuvathi & Qadeer): explore every execution with at most `c`
//! preemptive context switches.
//!
//! Full exhaustive exploration grows combinatorially in processes and
//! fault opportunities; most violations, however, need only a handful of
//! preemptions (E4's canonical witness needs **zero** — it is a
//! sequential schedule with one fault). Bounding preemptions turns the
//! search into a polynomial-per-bound sweep that finds shallow bugs in
//! configurations the full explorer cannot finish, while remaining
//! *systematic*: within the bound, coverage is complete.
//!
//! A *preemption* is charged when the scheduler switches away from a
//! process that is still runnable. Switching after a process decides or
//! blocks is free (non-preemptive). Fault branching is not charged — the
//! budget limits scheduling nondeterminism only, mirroring the original
//! technique.
//!
//! The search is the explorer's one depth-first walk ([`crate::explorer`])
//! with `(last pid, preemptions used)` in each state's key, skipping the
//! choices over the bound.

use crate::explorer::{ExploreReport, ExplorerConfig, Walk};
use crate::state::SimState;

/// Explore every execution from `initial` with at most `max_preemptions`
/// preemptive context switches. The report's `truncated` flag is set
/// when resource caps were hit (not when the preemption bound pruned —
/// pruning by bound is the point of the technique).
pub fn explore_context_bounded(
    initial: SimState,
    config: ExplorerConfig,
    max_preemptions: u32,
) -> ExploreReport {
    Walk {
        config,
        preemptions: Some(max_preemptions),
        stop_at_cycle: false,
    }
    .explore(initial)
}

/// Iterative context bounding: run [`explore_context_bounded`] with
/// bounds `0, 1, …, max_bound`, returning at the first bound that yields
/// a violation (with that bound), or the last report.
pub fn iterative_context_bounding(
    make_initial: impl Fn() -> SimState,
    config: ExplorerConfig,
    max_bound: u32,
) -> (u32, ExploreReport) {
    let mut bound = 0;
    loop {
        let report = explore_context_bounded(make_initial(), config, bound);
        if report.violation.is_some() || bound == max_bound {
            return (bound, report);
        }
        bound += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault_ctl::FaultPlan;
    use crate::heap::Heap;
    use crate::ops::{Op, OpResult};
    use crate::process::{Process, Status};
    use ff_spec::{check_consensus, Bound, Input, ObjectId, BOTTOM};

    /// The Herlihy one-shot (as in the explorer tests).
    #[derive(Clone)]
    struct OneShot {
        input: Input,
        status: Status,
    }
    impl OneShot {
        fn new(v: u32) -> Self {
            OneShot {
                input: Input(v),
                status: Status::Running,
            }
        }
    }
    impl Process for OneShot {
        fn next_op(&self) -> Op {
            Op::Cas {
                obj: ObjectId(0),
                exp: BOTTOM,
                new: self.input.to_word(),
            }
        }
        fn apply(&mut self, result: OpResult) -> Status {
            let old = result.cas_old();
            self.status = Status::Decided(Input::from_word(old).unwrap_or(self.input));
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
                match self.status {
                    Status::Running => 0,
                    Status::Decided(v) => 1 + v.0 as u64,
                },
            ]
        }
        fn box_clone(&self) -> Box<dyn Process> {
            Box::new(self.clone())
        }
    }

    fn one_shots(inputs: &[u32]) -> Vec<Box<dyn Process>> {
        inputs
            .iter()
            .map(|&v| Box::new(OneShot::new(v)) as Box<dyn Process>)
            .collect()
    }

    #[test]
    fn zero_preemptions_suffice_for_the_theorem18_witness() {
        // The canonical violation is a sequential schedule: bound 0 finds it.
        let plan = FaultPlan::overriding(1, Bound::Unbounded);
        let state = SimState::new(one_shots(&[10, 20, 30]), Heap::new(1, 0), plan);
        let report = explore_context_bounded(state, ExplorerConfig::default(), 0);
        assert!(report.violation.is_some(), "{report:?}");
    }

    #[test]
    fn safe_configurations_stay_safe_under_any_bound() {
        let plan = FaultPlan::overriding(1, Bound::Unbounded);
        for bound in 0..3 {
            let state = SimState::new(one_shots(&[10, 20]), Heap::new(1, 0), plan.clone());
            let report = explore_context_bounded(state, ExplorerConfig::default(), bound);
            assert!(report.violation.is_none(), "bound {bound}: {report:?}");
            assert!(!report.truncated);
        }
    }

    #[test]
    fn bounded_search_explores_fewer_states_than_full() {
        let plan = FaultPlan::overriding(1, Bound::Unbounded);
        let mk = || SimState::new(one_shots(&[10, 20, 30]), Heap::new(1, 0), plan.clone());
        let cfg = ExplorerConfig {
            stop_at_first_violation: false,
            ..ExplorerConfig::default()
        };
        let bounded = explore_context_bounded(mk(), cfg, 0);
        let full = crate::explorer::explore(mk(), cfg);
        assert!(
            bounded.terminals <= full.terminals,
            "bound 0 must not see more terminals ({} vs {})",
            bounded.terminals,
            full.terminals
        );
    }

    #[test]
    fn iterative_bounding_reports_the_minimal_bound() {
        let plan = FaultPlan::overriding(1, Bound::Unbounded);
        let (bound, report) = iterative_context_bounding(
            || SimState::new(one_shots(&[10, 20, 30]), Heap::new(1, 0), plan.clone()),
            ExplorerConfig::default(),
            4,
        );
        assert_eq!(bound, 0, "the witness needs no preemptions");
        assert!(report.violation.is_some());
    }

    #[test]
    fn witness_from_bounded_search_replays() {
        let plan = FaultPlan::overriding(1, Bound::Unbounded);
        let state = SimState::new(one_shots(&[10, 20, 30]), Heap::new(1, 0), plan.clone());
        let report = explore_context_bounded(state, ExplorerConfig::default(), 1);
        let w = report.violation.expect("violation expected");
        let replay = w.replay(one_shots(&[10, 20, 30]), Heap::new(1, 0), &plan);
        assert!(!check_consensus(&replay.outcomes, None).ok());
    }
}
