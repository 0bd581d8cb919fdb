//! The covering adversary of Theorem 19 — a protocol-agnostic attack.
//!
//! Theorem 19: for any `f, t ∈ ℕ⁺`, no `(f, t, f+2)`-tolerant consensus
//! exists from `f` CAS objects (already with `t = 1`). The proof builds
//! one execution against an *arbitrary* protocol:
//!
//! 1. `p_0` runs alone until it decides (its own input `v_0`, by validity).
//! 2. For `i = 1 … f`: `p_i` runs alone until its first CAS on an object
//!    not yet *covered* (written faultily) by `p_1 … p_{i-1}`; that CAS
//!    suffers an overriding fault — burying whatever `p_0` (or anyone)
//!    left there — and `p_i` is halted on the spot.
//! 3. After `f` coverings, every object has been overridden; `p_{f+1}`
//!    runs alone and — unable to distinguish this execution from one in
//!    which `p_0` never ran — decides a value in `{v_1, …, v_{f+1}}`.
//!
//! With distinct inputs, `p_0` and `p_{f+1}` disagree: consistency is
//! violated while each object faulted at most once. This module executes
//! that schedule against any set of [`Process`] machines.

use ff_sim::{Choice, FaultPlan, Heap, Op, Process, SimState, Status, StepDecision};
use ff_spec::{Bound, FaultDecision, Input, ObjectId, ProcessId};

/// Per-segment step budget: within tolerance, wait-free protocols decide
/// in far fewer steps; tripping this means the protocol (or the attack's
/// premise) is broken.
const SEGMENT_STEP_LIMIT: u64 = 1_000_000;

/// What the covering attack observed.
#[derive(Clone, Debug)]
pub struct CoveringReport {
    /// `p_0`'s decision from its solo run.
    pub first_decision: Option<Input>,
    /// `p_{f+1}`'s decision from its final solo run.
    pub last_decision: Option<Input>,
    /// The objects covered, in covering order (one per `p_1 … p_f`).
    pub covered: Vec<ObjectId>,
    /// Processes the adversary halted right after their covering write.
    pub halted: Vec<ProcessId>,
    /// Processes among `p_1 … p_f` that decided *before* reaching an
    /// uncovered object (possible only if the attack's premise fails —
    /// e.g. the protocol is not correct solo, or `f` was overstated).
    pub early_deciders: Vec<(ProcessId, Input)>,
    /// Total steps executed across all segments.
    pub steps: u64,
    /// The choice log (replayable through [`SimState`]).
    pub choices: Vec<Choice>,
}

impl CoveringReport {
    /// `true` iff the attack produced the predicted consistency violation
    /// between `p_0` and `p_{f+1}`.
    pub fn violated(&self) -> bool {
        match (self.first_decision, self.last_decision) {
            (Some(a), Some(b)) => a != b,
            _ => false,
        }
    }
}

/// Execute the covering attack.
///
/// `processes` must contain `f + 2` machines (with distinct inputs for a
/// conclusive verdict) of an arbitrary consensus protocol that uses the
/// `objects` CAS cells of a fresh heap; `objects` plays the role of `f`.
pub fn covering_attack(processes: Vec<Box<dyn Process>>, objects: usize) -> CoveringReport {
    let n = processes.len();
    assert!(
        n >= objects + 2,
        "the covering argument needs f + 2 = {} processes, got {n}",
        objects + 2
    );
    // Each object suffers at most one overriding fault: t = 1.
    let plan = FaultPlan::overriding(objects, Bound::Finite(1));
    let mut state = SimState::new(processes, Heap::new(objects, 0), plan);

    let mut report = CoveringReport {
        first_decision: None,
        last_decision: None,
        covered: Vec::new(),
        halted: Vec::new(),
        early_deciders: Vec::new(),
        steps: 0,
        choices: Vec::new(),
    };
    let mut covered = vec![false; objects];

    let step = |state: &mut SimState, report: &mut CoveringReport, choice: Choice| {
        state.step(choice);
        report.steps += 1;
        report.choices.push(choice);
    };

    // Segment 0: p_0 solo until it decides.
    let p0 = ProcessId(0);
    let mut guard = 0u64;
    while state.processes[0].status() == Status::Running {
        guard += 1;
        assert!(
            guard < SEGMENT_STEP_LIMIT,
            "p0 solo run exceeded step limit"
        );
        step(
            &mut state,
            &mut report,
            Choice {
                pid: p0,
                decision: StepDecision::Apply(FaultDecision::Correct),
                had_opportunity: false,
            },
        );
    }
    report.first_decision = state.processes[0].status().decision();

    // Segments 1..=f: cover one fresh object per process, halting it.
    for i in 1..=objects {
        let pid = ProcessId(i);
        let mut guard = 0u64;
        loop {
            guard += 1;
            assert!(
                guard < SEGMENT_STEP_LIMIT,
                "{pid} solo run exceeded step limit"
            );
            match state.processes[i].status() {
                Status::Decided(v) => {
                    // The premise failed for this process; record and move on.
                    report.early_deciders.push((pid, v));
                    break;
                }
                Status::Running => {}
            }
            let op = state.processes[i].next_op();
            let fresh_target = match op {
                Op::Cas { obj, .. } if !covered[obj.0] => Some(obj),
                _ => None,
            };
            match fresh_target {
                Some(obj) => {
                    // The covering write: an overriding fault (which, when
                    // the comparison happens to match, degrades to a
                    // correct write with the same memory effect — still
                    // indistinguishable to p_i from its solo run).
                    step(
                        &mut state,
                        &mut report,
                        Choice {
                            pid,
                            decision: StepDecision::Apply(FaultDecision::Override),
                            had_opportunity: true,
                        },
                    );
                    covered[obj.0] = true;
                    report.covered.push(obj);
                    report.halted.push(pid);
                    break; // p_i is halted by the adversary.
                }
                None => {
                    step(
                        &mut state,
                        &mut report,
                        Choice {
                            pid,
                            decision: StepDecision::Apply(FaultDecision::Correct),
                            had_opportunity: false,
                        },
                    );
                }
            }
        }
    }

    // Final segment: p_{f+1} solo until it decides.
    let last = objects + 1;
    let pid = ProcessId(last);
    let mut guard = 0u64;
    while state.processes[last].status() == Status::Running {
        guard += 1;
        assert!(
            guard < SEGMENT_STEP_LIMIT,
            "{pid} solo run exceeded step limit"
        );
        step(
            &mut state,
            &mut report,
            Choice {
                pid,
                decision: StepDecision::Apply(FaultDecision::Correct),
                had_opportunity: false,
            },
        );
    }
    report.last_decision = state.processes[last].status().decision();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_consensus::{one_shots, staged_machines};

    fn inputs(n: usize) -> Vec<Input> {
        (0..n as u32).map(|i| Input(10 * (i + 1))).collect()
    }

    #[test]
    fn covering_breaks_staged_with_f_plus_2_processes() {
        // Theorem 19 against Figure 3 itself: f objects, f + 2 staged
        // machines, t = 1. The attack must produce disagreement.
        for f in 1..=3u64 {
            let procs = staged_machines(&inputs(f as usize + 2), f, 1);
            let report = covering_attack(procs, f as usize);
            assert!(
                report.violated(),
                "f = {f}: covering attack failed: {report:?}"
            );
            assert_eq!(report.covered.len(), f as usize);
            assert_eq!(
                report.first_decision,
                Some(Input(10)),
                "p0 decides its own input"
            );
            assert!(report.early_deciders.is_empty());
        }
    }

    #[test]
    fn covering_breaks_one_shot_with_one_object() {
        // f = 1: the one-shot protocol over one object, 3 processes.
        let report = covering_attack(one_shots(&inputs(3)), 1);
        assert!(report.violated(), "{report:?}");
        assert_eq!(report.covered, vec![ObjectId(0)]);
        assert_eq!(report.halted, vec![ProcessId(1)]);
    }

    #[test]
    fn covering_does_not_break_within_tolerance() {
        // Sanity: with only f + 1 processes the covering argument runs
        // out of processes — the attack as stated needs f + 2 machines.
        let procs = staged_machines(&inputs(3), 2, 1);
        // f = 2 objects, but only 3 processes: constructing the attack is
        // rejected up front.
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| covering_attack(procs, 2)));
        assert!(result.is_err(), "attack must demand f + 2 processes");
    }

    #[test]
    fn covering_each_object_faults_at_most_once() {
        // The attack stays within t = 1 per object: covered objects are
        // distinct.
        let f = 3;
        let report = covering_attack(staged_machines(&inputs(f + 2), f as u64, 1), f);
        let mut seen = report.covered.clone();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), f, "covered objects must be distinct");
    }
}
