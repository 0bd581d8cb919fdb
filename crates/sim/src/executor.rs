//! The run-to-completion driver for simulated executions.
//!
//! [`run`] drives a set of step-machine processes over a [`Heap`] under a
//! [`Scheduler`], a [`FaultPlan`] (and its [`NativeBudget`]) and a
//! [`FaultOracle`], producing the per-process [`Outcome`]s plus the full
//! [`History`] and [`Trace`] of the execution. All nondeterminism lives in the scheduler
//! and the oracle, so any execution is exactly replayable.

use crate::fault_ctl::{FaultOracle, FaultPlan, StepDecision};
use crate::heap::Heap;
use crate::ops::{Op, OpResult};
use crate::process::{Process, Status};
use crate::scheduler::Scheduler;
use crate::trace::{Trace, TraceEvent};
use ff_spec::{standard_post, FaultDecision, History, NativeBudget, OpEvent, Outcome, ProcessId};

/// The effect of executing one step on one process.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StepEffect {
    /// The process received a response and advanced to this status.
    Advanced(Status),
    /// The operation hung (nonresponsive fault): the process is blocked
    /// forever.
    Blocked,
}

/// Execute a single step of `process` with the given (already normalized)
/// decision, updating heap, budget, history and trace. Shared between the
/// run-to-completion driver and the exhaustive explorer so both execute
/// steps identically.
pub(crate) fn execute_step(
    heap: &mut Heap,
    budget: &NativeBudget,
    process: &mut dyn Process,
    pid: ProcessId,
    mut decision: StepDecision,
    history: Option<&mut History>,
    trace: Option<(&mut Trace, u64)>,
) -> StepEffect {
    let op = process.next_op();
    let (effect, record, faulted) = match op {
        Op::Cas { obj, exp, new } => {
            let pre = heap.peek_cas(obj);
            // Normalize: a fault decision that would actually be
            // observable requires (and consumes) budget; downgrade to
            // correct when none is available. Unobservable "faults" are
            // applied as-is — they coincide with correct behavior.
            let charged = match decision {
                StepDecision::Apply(d) => d.observable(pre, exp, new),
                StepDecision::Hang => true,
            };
            if charged && !budget.try_reserve(obj) {
                decision = StepDecision::Apply(FaultDecision::Correct);
            }
            match decision {
                StepDecision::Hang => (StepEffect::Blocked, None, true),
                StepDecision::Apply(d) => {
                    let record = heap.apply_cas(obj, exp, new, d);
                    let faulted = !standard_post(&record);
                    if let Some(h) = history {
                        h.push(OpEvent {
                            process: pid,
                            object: obj,
                            record,
                            injected_fault: !matches!(d, FaultDecision::Correct),
                        });
                    }
                    let status = process.apply(OpResult::Cas {
                        old: record.returned,
                    });
                    (StepEffect::Advanced(status), Some(record), faulted)
                }
            }
        }
        Op::Read(reg) => {
            let val = heap.read_register(reg);
            let status = process.apply(OpResult::Read(val));
            (StepEffect::Advanced(status), None, false)
        }
        Op::Rmw { reg, f, arg } => {
            let old = heap.rmw_register(reg, f, arg);
            let status = process.apply(OpResult::Read(old));
            (StepEffect::Advanced(status), None, false)
        }
        Op::Write(reg, val) => {
            heap.write_register(reg, val);
            let status = process.apply(OpResult::Write);
            (StepEffect::Advanced(status), None, false)
        }
        Op::Local => {
            let status = process.apply(OpResult::Local);
            (StepEffect::Advanced(status), None, false)
        }
    };
    if let Some((t, index)) = trace {
        t.push(TraceEvent {
            index,
            pid,
            op,
            decision,
            record,
            faulted,
            status_after: match effect {
                StepEffect::Advanced(s) => Some(s),
                StepEffect::Blocked => None,
            },
        });
    }
    effect
}

/// Configuration for [`run`].
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Abort (reporting `completed = false`) after this many total steps.
    /// Guards against nonterminating executions (e.g. unbounded silent
    /// faults foiling the Herlihy protocol, Section 3.4).
    pub step_limit: u64,
    /// Record a full [`Trace`] (disable for high-volume stress runs).
    pub record_trace: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            step_limit: 1_000_000,
            record_trace: true,
        }
    }
}

/// The complete result of one simulated execution.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Per-process outcomes (decision + step counts).
    pub outcomes: Vec<Outcome>,
    /// The linearized operation history.
    pub history: History,
    /// The step-by-step trace (empty if disabled).
    pub trace: Trace,
    /// Total steps executed.
    pub total_steps: u64,
    /// `true` iff every process terminated (decided); `false` when the
    /// step limit was hit or a process was blocked by a nonresponsive
    /// fault.
    pub completed: bool,
    /// The shared memory as the execution left it.
    pub heap: Heap,
}

/// Drive `processes` to completion over `heap` under `plan`.
///
/// The oracle is consulted exactly at *fault opportunities* — CAS steps on
/// objects with remaining budget where the plan's canonical fault would be
/// observable — which keeps scripted replays aligned with explorer
/// witnesses.
pub fn run(
    mut processes: Vec<Box<dyn Process>>,
    mut heap: Heap,
    plan: &FaultPlan,
    scheduler: &mut dyn Scheduler,
    oracle: &mut dyn FaultOracle,
    config: RunConfig,
) -> RunReport {
    let n = processes.len();
    let budget = plan.budget(heap.cas_count());
    let mut blocked = vec![false; n];
    let mut steps = vec![0u64; n];
    let mut history = History::new();
    let mut trace = Trace::new();
    let mut total_steps = 0u64;

    loop {
        let runnable: Vec<ProcessId> = (0..n)
            .filter(|&i| !blocked[i] && processes[i].status() == Status::Running)
            .map(ProcessId)
            .collect();
        if runnable.is_empty() {
            break;
        }
        if total_steps >= config.step_limit {
            break;
        }
        let pid = scheduler.pick(&runnable);
        debug_assert!(
            runnable.contains(&pid),
            "scheduler picked non-runnable {pid}"
        );

        let decision = match processes[pid.0].next_op() {
            Op::Cas { obj, exp, new } if budget.can_fault(obj) => {
                let pre = heap.peek_cas(obj);
                if plan.opportunity(obj, pre, exp, new).is_some() {
                    let op = processes[pid.0].next_op();
                    oracle.decide(pid, &op, pre)
                } else {
                    StepDecision::Apply(FaultDecision::Correct)
                }
            }
            _ => StepDecision::Apply(FaultDecision::Correct),
        };

        let effect = execute_step(
            &mut heap,
            &budget,
            processes[pid.0].as_mut(),
            pid,
            decision,
            Some(&mut history),
            config.record_trace.then_some((&mut trace, total_steps)),
        );
        steps[pid.0] += 1;
        total_steps += 1;
        if effect == StepEffect::Blocked {
            blocked[pid.0] = true;
        }
    }

    let outcomes: Vec<Outcome> = processes
        .iter()
        .enumerate()
        .map(|(i, p)| Outcome {
            process: ProcessId(i),
            input: p.input(),
            decision: p.status().decision(),
            steps: steps[i],
        })
        .collect();
    let completed = outcomes.iter().all(|o| o.decision.is_some());

    RunReport {
        outcomes,
        history,
        trace,
        total_steps,
        completed,
        heap,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault_ctl::{GreedyFault, NeverFault};
    use crate::scheduler::RoundRobin;
    use ff_spec::{check_consensus, Bound, FaultKind, Input, ObjectId, BOTTOM};

    /// A process that CASes its input into object 0 once (expecting ⊥) and
    /// decides whatever ends up chosen: the Herlihy protocol inlined, used
    /// here to test the executor itself.
    #[derive(Clone, Debug)]
    struct OneShot {
        input: Input,
        status: Status,
        fired: bool,
    }

    impl OneShot {
        fn new(input: Input) -> Self {
            OneShot {
                input,
                status: Status::Running,
                fired: false,
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
            assert!(!self.fired);
            self.fired = true;
            let old = result.cas_old();
            let decided = match Input::from_word(old) {
                None => self.input, // old was ⊥: we won
                Some(winner) => winner,
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
            vec![
                self.input.0 as u64,
                self.fired as u64,
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
            .map(|&v| Box::new(OneShot::new(Input(v))) as Box<dyn Process>)
            .collect()
    }

    #[test]
    fn fault_free_one_shot_agrees() {
        let report = run(
            one_shots(&[10, 20, 30]),
            Heap::new(1, 0),
            &FaultPlan::none(),
            &mut RoundRobin::new(),
            &mut NeverFault,
            RunConfig::default(),
        );
        assert!(report.completed);
        let verdict = check_consensus(&report.outcomes, None);
        assert!(verdict.ok(), "{:?}", verdict.violations);
        assert_eq!(verdict.agreed, Some(Input(10))); // p0 ran first
        assert_eq!(report.total_steps, 3);
        assert!(report.history.within(&ff_spec::Tolerance::new(0, 0, 3)));
    }

    #[test]
    fn greedy_override_breaks_one_shot() {
        // With an unboundedly-faulty object, later CASes override earlier
        // ones: the naive single-object protocol loses consistency. This is
        // the motivation for the paper's constructions (E9).
        let plan = FaultPlan::overriding(1, Bound::Unbounded);
        let report = run(
            one_shots(&[10, 20, 30]),
            Heap::new(1, 0),
            &plan,
            &mut RoundRobin::new(),
            &mut GreedyFault::new(plan.clone()),
            RunConfig::default(),
        );
        assert!(report.completed);
        let verdict = check_consensus(&report.outcomes, None);
        assert!(
            !verdict.ok(),
            "overriding faults must break the naive protocol"
        );
        assert!(report.history.faulty_object_count() == 1);
        assert!(report.trace.fault_steps().count() >= 1);
    }

    #[test]
    fn budget_limits_faults() {
        // t = 1: only the first opportunity faults; with 3 processes the
        // third CAS must behave correctly.
        let plan = FaultPlan::overriding(1, Bound::Finite(1));
        let report = run(
            one_shots(&[10, 20, 30]),
            Heap::new(1, 0),
            &plan,
            &mut RoundRobin::new(),
            &mut GreedyFault::new(plan.clone()),
            RunConfig::default(),
        );
        assert_eq!(report.history.max_faults_per_object(), 1);
        assert!(report.history.within(&ff_spec::Tolerance::new(1, 1, 3)));
    }

    #[test]
    fn nonresponsive_fault_blocks_a_process() {
        let plan = FaultPlan {
            kind: FaultKind::Nonresponsive,
            faulty: vec![ObjectId(0)],
            per_object: Bound::Finite(1),
            kind_overrides: Default::default(),
        };
        let report = run(
            one_shots(&[10, 20]),
            Heap::new(1, 0),
            &plan,
            &mut RoundRobin::new(),
            &mut GreedyFault::new(plan.clone()),
            RunConfig::default(),
        );
        assert!(!report.completed);
        // p0 hung; p1's CAS (budget exhausted) behaves correctly.
        assert_eq!(report.outcomes[0].decision, None);
        assert!(report.outcomes[1].decision.is_some());
        let verdict = check_consensus(&report.outcomes, None);
        assert!(!verdict.ok());
    }

    #[test]
    fn step_limit_guards_nontermination() {
        // A process that loops forever on local steps.
        #[derive(Clone)]
        struct Spinner;
        impl Process for Spinner {
            fn next_op(&self) -> Op {
                Op::Local
            }
            fn apply(&mut self, _r: OpResult) -> Status {
                Status::Running
            }
            fn status(&self) -> Status {
                Status::Running
            }
            fn input(&self) -> Input {
                Input(0)
            }
            fn snapshot(&self) -> Vec<u64> {
                vec![]
            }
            fn box_clone(&self) -> Box<dyn Process> {
                Box::new(self.clone())
            }
        }
        let report = run(
            vec![Box::new(Spinner)],
            Heap::new(0, 0),
            &FaultPlan::none(),
            &mut RoundRobin::new(),
            &mut NeverFault,
            RunConfig {
                step_limit: 100,
                record_trace: false,
            },
        );
        assert!(!report.completed);
        assert_eq!(report.total_steps, 100);
        assert!(report.trace.is_empty());
    }

    #[test]
    fn registers_round_trip_through_executor() {
        use crate::heap::RegId;
        #[derive(Clone)]
        struct RegEcho {
            phase: u8,
            seen: u64,
            status: Status,
        }
        impl Process for RegEcho {
            fn next_op(&self) -> Op {
                match self.phase {
                    0 => Op::Write(RegId(0), 42),
                    _ => Op::Read(RegId(0)),
                }
            }
            fn apply(&mut self, r: OpResult) -> Status {
                match self.phase {
                    0 => {
                        assert_eq!(r, OpResult::Write);
                        self.phase = 1;
                    }
                    _ => {
                        if let OpResult::Read(v) = r {
                            self.seen = v;
                            self.status = Status::Decided(Input(v as u32));
                        }
                    }
                }
                self.status
            }
            fn status(&self) -> Status {
                self.status
            }
            fn input(&self) -> Input {
                Input(42)
            }
            fn snapshot(&self) -> Vec<u64> {
                vec![self.phase as u64, self.seen]
            }
            fn box_clone(&self) -> Box<dyn Process> {
                Box::new(self.clone())
            }
        }
        let report = run(
            vec![Box::new(RegEcho {
                phase: 0,
                seen: 0,
                status: Status::Running,
            })],
            Heap::new(0, 1),
            &FaultPlan::none(),
            &mut RoundRobin::new(),
            &mut NeverFault,
            RunConfig::default(),
        );
        assert!(report.completed);
        assert_eq!(report.outcomes[0].decision, Some(Input(42)));
    }
}
