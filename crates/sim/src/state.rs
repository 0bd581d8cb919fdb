//! Whole-execution states for the exhaustive explorer and the valency
//! analyzer.
//!
//! A [`SimState`] bundles everything the future of an execution depends
//! on — heap, process local states, remaining fault budget and blocked
//! flags — and exposes the branching structure: which [`Choice`]s (process
//! to step × fault decision) are available, and the successor state each
//! produces. States have an *exact* [`SimState::key`], so memoization can
//! never collide two genuinely different states.

use crate::executor::{execute_step, StepEffect};
use crate::fault_ctl::{FaultPlan, StepDecision};
use crate::heap::Heap;
use crate::ops::Op;
use crate::process::{Process, Status};
use ff_spec::{FaultDecision, NativeBudget, Outcome, ProcessId};

/// One branching decision of the explorer: which process steps, with which
/// fault decision.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Choice {
    /// The process taking the step.
    pub pid: ProcessId,
    /// The decision applied to the step.
    pub decision: StepDecision,
    /// Whether this step was a *fault opportunity* (the oracle would have
    /// been consulted in a driven run). Needed to replay witnesses through
    /// the scripted oracle.
    pub had_opportunity: bool,
}

/// A complete execution state.
pub struct SimState {
    /// The shared memory.
    pub heap: Heap,
    /// The processes' local states.
    pub processes: Vec<Box<dyn Process>>,
    /// Remaining fault budget.
    pub budget: NativeBudget,
    /// Processes blocked by nonresponsive faults.
    pub blocked: Vec<bool>,
    plan: FaultPlan,
}

impl Clone for SimState {
    fn clone(&self) -> Self {
        SimState {
            heap: self.heap.clone(),
            processes: self.processes.clone(),
            budget: self.budget.clone(),
            blocked: self.blocked.clone(),
            plan: self.plan.clone(),
        }
    }
}

impl SimState {
    /// The initial state of an execution.
    pub fn new(processes: Vec<Box<dyn Process>>, heap: Heap, plan: FaultPlan) -> Self {
        let budget = plan.budget(heap.cas_count());
        let blocked = vec![false; processes.len()];
        SimState {
            heap,
            processes,
            budget,
            blocked,
            plan,
        }
    }

    /// Processes that can still take a step.
    pub fn runnable(&self) -> Vec<ProcessId> {
        (0..self.processes.len())
            .filter(|&i| !self.blocked[i] && self.processes[i].status() == Status::Running)
            .map(ProcessId)
            .collect()
    }

    /// `true` iff no process can take a step (all decided or blocked).
    pub fn is_terminal(&self) -> bool {
        self.runnable().is_empty()
    }

    /// The available branching decisions from this state: for every
    /// runnable process, a correct step, plus — when its next op is a CAS
    /// on an object with remaining budget and the plan's fault would be
    /// observable — the faulty step.
    pub fn choices(&self) -> Vec<Choice> {
        let mut out = Vec::new();
        for pid in self.runnable() {
            let op = self.processes[pid.0].next_op();
            let opportunity = match op {
                Op::Cas { obj, exp, new } if self.budget.can_fault(obj) => {
                    self.plan
                        .opportunity(obj, self.heap.peek_cas(obj), exp, new)
                }
                _ => None,
            };
            let had_opportunity = opportunity.is_some();
            out.push(Choice {
                pid,
                decision: StepDecision::Apply(FaultDecision::Correct),
                had_opportunity,
            });
            if let Some(faulty) = opportunity {
                out.push(Choice {
                    pid,
                    decision: faulty,
                    had_opportunity,
                });
            }
        }
        out
    }

    /// Execute `choice` in place.
    pub fn step(&mut self, choice: Choice) {
        let effect = execute_step(
            &mut self.heap,
            &self.budget,
            self.processes[choice.pid.0].as_mut(),
            choice.pid,
            choice.decision,
            None,
            None,
        );
        if effect == StepEffect::Blocked {
            self.blocked[choice.pid.0] = true;
        }
    }

    /// The successor state reached by `choice`.
    pub fn successor(&self, choice: Choice) -> SimState {
        let mut next = self.clone();
        next.step(choice);
        next
    }

    /// Exact memoization key: heap + budget + per-process (status, local
    /// snapshot, blocked flag), with length delimiters so distinct states
    /// can never encode to the same key.
    pub fn key(&self) -> Vec<u64> {
        let mut key = Vec::new();
        let heap = self.heap.snapshot();
        key.push(heap.len() as u64);
        key.extend(heap);
        let budget = self.budget.snapshot();
        key.push(budget.len() as u64);
        key.extend(budget);
        for (i, p) in self.processes.iter().enumerate() {
            let snap = p.snapshot();
            key.push(snap.len() as u64);
            key.extend(snap);
            key.push(p.status().word());
            key.push(self.blocked[i] as u64);
        }
        key
    }

    /// Per-process outcomes (meaningful at terminal states; step counts
    /// are not tracked during exploration and read 0).
    pub fn outcomes(&self) -> Vec<Outcome> {
        self.processes
            .iter()
            .enumerate()
            .map(|(i, p)| Outcome {
                process: ProcessId(i),
                input: p.input(),
                decision: p.status().decision(),
                steps: 0,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::SoloDecider;
    use ff_spec::{Bound, Input, ObjectId, BOTTOM};

    fn solo_state(inputs: &[u32], steps: u64) -> SimState {
        let processes: Vec<Box<dyn Process>> = inputs
            .iter()
            .map(|&v| Box::new(SoloDecider::new(Input(v), steps)) as Box<dyn Process>)
            .collect();
        SimState::new(processes, Heap::new(1, 0), FaultPlan::none())
    }

    #[test]
    fn initial_state_all_runnable() {
        let s = solo_state(&[1, 2], 1);
        assert_eq!(s.runnable(), vec![ProcessId(0), ProcessId(1)]);
        assert!(!s.is_terminal());
    }

    #[test]
    fn local_steps_have_no_fault_branch() {
        let s = solo_state(&[1, 2], 1);
        let cs = s.choices();
        assert_eq!(cs.len(), 2);
        assert!(cs.iter().all(|c| !c.had_opportunity));
    }

    #[test]
    fn stepping_reaches_terminal() {
        let mut s = solo_state(&[1], 1);
        let c = s.choices()[0];
        s.step(c);
        assert!(s.is_terminal());
        let outs = s.outcomes();
        assert_eq!(outs[0].decision, Some(Input(1)));
    }

    #[test]
    fn successor_leaves_original_untouched() {
        let s = solo_state(&[1], 1);
        let next = s.successor(s.choices()[0]);
        assert!(!s.is_terminal());
        assert!(next.is_terminal());
        assert_ne!(s.key(), next.key());
    }

    #[test]
    fn cas_opportunity_creates_fault_branch() {
        // A process CASing into a faulty object where the comparison
        // mismatches gets two branches.
        #[derive(Clone)]
        struct Casser {
            status: Status,
        }
        impl Process for Casser {
            fn next_op(&self) -> Op {
                Op::Cas {
                    obj: ObjectId(0),
                    exp: 999, // will mismatch (cell holds ⊥)
                    new: 5,
                }
            }
            fn apply(&mut self, _r: crate::ops::OpResult) -> Status {
                self.status = Status::Decided(Input(0));
                self.status
            }
            fn status(&self) -> Status {
                self.status
            }
            fn input(&self) -> Input {
                Input(0)
            }
            fn snapshot(&self) -> Vec<u64> {
                vec![matches!(self.status, Status::Decided(_)) as u64]
            }
            fn box_clone(&self) -> Box<dyn Process> {
                Box::new(self.clone())
            }
        }
        let s = SimState::new(
            vec![Box::new(Casser {
                status: Status::Running,
            })],
            Heap::new(1, 0),
            FaultPlan::overriding(1, Bound::Finite(1)),
        );
        let cs = s.choices();
        assert_eq!(cs.len(), 2);
        assert!(cs.iter().all(|c| c.had_opportunity));
        assert_eq!(cs[0].decision, StepDecision::Apply(FaultDecision::Correct));
        assert_eq!(cs[1].decision, StepDecision::Apply(FaultDecision::Override));

        // Taking the faulty branch writes the value and consumes budget.
        let faulty = s.successor(cs[1]);
        assert_eq!(faulty.heap.peek_cas(ObjectId(0)), 5);
        assert!(!faulty.budget.can_fault(ObjectId(0)));

        // Taking the correct branch leaves ⊥ (mismatch ⇒ no write).
        let correct = s.successor(cs[0]);
        assert_eq!(correct.heap.peek_cas(ObjectId(0)), BOTTOM);
        assert_ne!(faulty.key(), correct.key());
    }

    #[test]
    fn keys_are_equal_for_equal_states() {
        let a = solo_state(&[1, 2], 3);
        let b = solo_state(&[1, 2], 3);
        assert_eq!(a.key(), b.key());
        let c = solo_state(&[1, 3], 3);
        assert_ne!(a.key(), c.key());
    }
}
