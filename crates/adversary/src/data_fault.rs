//! The data-fault adversary (Section 3.1 / Afek et al.) and the
//! functional-vs-data model separation (experiment E7).
//!
//! A *data* fault corrupts a memory cell at an arbitrary time,
//! independently of any operation. Afek et al.'s impossibility implies
//! that consensus from **faulty-only** objects is unattainable in that
//! model; the paper's Theorem 6 shows it *is* attainable under bounded
//! **functional** (overriding) faults. The separating attack is tiny:
//! let `p_0` run solo to a decision, corrupt every cell back to `⊥` (one
//! data fault per object — the same `(f, t = 1)` budget Figure 3
//! tolerates), and let `p_1` run solo: the memory looks fresh, so `p_1`
//! decides its own input. Overriding faults can never manufacture this
//! execution because they only ever write values some process supplied.

use ff_sim::{FaultPlan, Heap, Process, SimState, Status, StepDecision};
use ff_spec::{FaultDecision, Input, ObjectId, ProcessId, BOTTOM};

/// Step budget per solo segment.
const SEGMENT_STEP_LIMIT: u64 = 1_000_000;

/// What the wipe attack produced.
#[derive(Clone, Debug)]
pub struct DataFaultReport {
    /// `p_0`'s decision.
    pub first_decision: Option<Input>,
    /// `p_1`'s decision after the wipe.
    pub second_decision: Option<Input>,
    /// Number of data faults injected (= number of objects corrupted).
    pub corruptions: u64,
    /// Maximum corruptions on any single object (always ≤ 1 here).
    pub corruptions_per_object: u64,
}

impl DataFaultReport {
    /// `true` iff the two solo runs disagreed — the data-fault model's
    /// inevitable violation.
    pub fn violated(&self) -> bool {
        match (self.first_decision, self.second_decision) {
            (Some(a), Some(b)) => a != b,
            _ => false,
        }
    }
}

/// Execute the wipe attack: `processes[0]` solo to decision, one
/// corruption (to `⊥`) per object, `processes[1]` solo to decision.
///
/// All process CAS executions are *functionally correct* — the only
/// misbehavior is the data corruption between the segments.
pub fn wipe_attack(processes: Vec<Box<dyn Process>>, objects: usize) -> DataFaultReport {
    assert!(processes.len() >= 2, "needs two processes");
    let mut state = SimState::new(processes, Heap::new(objects, 0), FaultPlan::none());

    let solo = |state: &mut SimState, i: usize| {
        let mut guard = 0u64;
        while state.processes[i].status() == Status::Running {
            guard += 1;
            assert!(guard < SEGMENT_STEP_LIMIT, "solo run exceeded step limit");
            state.step(ff_sim::Choice {
                pid: ProcessId(i),
                decision: StepDecision::Apply(FaultDecision::Correct),
                had_opportunity: false,
            });
        }
        state.processes[i].status().decision()
    };

    let first_decision = solo(&mut state, 0);

    // The data faults: wipe every cell back to ⊥ — one corruption per
    // object, at a moment when no operation is executing.
    let mut corruptions = 0;
    for obj in 0..objects {
        state.heap.corrupt_cas(ObjectId(obj), BOTTOM);
        corruptions += 1;
    }

    let second_decision = solo(&mut state, 1);

    DataFaultReport {
        first_decision,
        second_decision,
        corruptions,
        corruptions_per_object: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_consensus::{cascades, staged_machines};
    use ff_sim::{explore, ExplorerConfig};
    use ff_spec::Bound;

    #[test]
    fn data_faults_break_staged_protocol() {
        // Figure 3's protocol, f = 2 objects, budget one fault per object
        // — fatal in the DATA fault model.
        let report = wipe_attack(staged_machines(&[Input(10), Input(20)], 2, 1), 2);
        assert!(report.violated(), "{report:?}");
        assert_eq!(report.first_decision, Some(Input(10)));
        assert_eq!(report.second_decision, Some(Input(20)));
        assert_eq!(report.corruptions, 2);
        assert_eq!(report.corruptions_per_object, 1);
    }

    #[test]
    fn functional_faults_with_same_budget_are_survivable() {
        // The same protocol and the same (f = 1, t = 1) budget in the
        // FUNCTIONAL model: exhaustively safe (Theorem 6). This pair of
        // tests is the model separation.
        let plan = FaultPlan::overriding(1, Bound::Finite(1));
        let state = SimState::new(
            staged_machines(&[Input(10), Input(20)], 1, 1),
            Heap::new(1, 0),
            plan,
        );
        let report = explore(state, ExplorerConfig::default());
        assert!(report.verified(), "{report:?}");
    }

    #[test]
    fn data_faults_break_the_cascade_too() {
        // Even Figure 2 (f + 1 objects) falls if EVERY object may suffer
        // one data fault — Afek et al. require a majority of reliable
        // objects; with all objects wiped nothing survives.
        let report = wipe_attack(cascades(&[Input(1), Input(2)], 1), 2);
        assert!(report.violated(), "{report:?}");
    }

    #[test]
    fn wipe_without_corruption_is_harmless() {
        // Degenerate check: zero objects wiped (objects = 0 not meaningful
        // for protocols; use a protocol then wipe nothing by corrupting
        // cells to their current values). Here: run the attack but with
        // the second process reading the intact memory — i.e. corrupt 0
        // cells by calling with objects covering all, then manually
        // verifying the no-wipe baseline.
        let mut state = SimState::new(
            staged_machines(&[Input(10), Input(20)], 2, 1),
            Heap::new(2, 0),
            FaultPlan::none(),
        );
        // p0 solo:
        while state.processes[0].status() == Status::Running {
            state.step(ff_sim::Choice {
                pid: ProcessId(0),
                decision: StepDecision::Apply(FaultDecision::Correct),
                had_opportunity: false,
            });
        }
        // no wipe; p1 solo:
        while state.processes[1].status() == Status::Running {
            state.step(ff_sim::Choice {
                pid: ProcessId(1),
                decision: StepDecision::Apply(FaultDecision::Correct),
                had_opportunity: false,
            });
        }
        assert_eq!(
            state.processes[0].status().decision(),
            state.processes[1].status().decision(),
            "without corruption the solo runs agree"
        );
    }
}
