//! Execution traces: everything that happened, in order, with enough
//! detail to print a human-readable witness of a consensus violation.

use crate::fault_ctl::StepDecision;
use crate::ops::Op;
use crate::process::Status;
use ff_spec::{CasRecord, FaultDecision, ProcessId};

/// One step of an execution.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Global step index (0-based).
    pub index: u64,
    /// The process that stepped.
    pub pid: ProcessId,
    /// The operation it performed.
    pub op: Op,
    /// The decision applied to the step.
    pub decision: StepDecision,
    /// The CAS footprint, when the op was a CAS that responded.
    pub record: Option<CasRecord>,
    /// Whether the step was an *observable* fault (violated the standard
    /// postconditions).
    pub faulted: bool,
    /// The process's status after the step (`None` when it hung).
    pub status_after: Option<Status>,
}

/// An ordered log of [`TraceEvent`]s.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an event.
    pub fn push(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }

    /// All events in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` iff no steps were taken.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Steps that were observable faults.
    pub fn fault_steps(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(|e| e.faulted)
    }

    /// Render the trace as one line per step, e.g. for printing the
    /// witness execution of a lower-bound experiment.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for e in &self.events {
            let _ = write!(out, "#{:<4} {:>3} ", e.index, e.pid.to_string());
            match &e.op {
                Op::Cas { obj, exp, new } => {
                    let fmt_word = |w: ff_spec::Word| {
                        if w == ff_spec::BOTTOM {
                            "⊥".to_string()
                        } else {
                            format!("{w}")
                        }
                    };
                    let _ = write!(out, "CAS({obj}, {}, {})", fmt_word(*exp), fmt_word(*new));
                    match (&e.decision, &e.record) {
                        (StepDecision::Hang, _) => {
                            let _ = write!(out, " → HANG (nonresponsive fault)");
                        }
                        (_, Some(r)) => {
                            let _ = write!(out, " → old={}", fmt_word(r.returned));
                            if e.faulted {
                                let kind = match e.decision {
                                    StepDecision::Apply(FaultDecision::Override) => "OVERRIDE",
                                    StepDecision::Apply(FaultDecision::Silent) => "SILENT",
                                    StepDecision::Apply(FaultDecision::Invisible { .. }) => {
                                        "INVISIBLE"
                                    }
                                    StepDecision::Apply(FaultDecision::Arbitrary { .. }) => {
                                        "ARBITRARY"
                                    }
                                    _ => "FAULT",
                                };
                                let _ =
                                    write!(out, "  [{kind} FAULT, cell now {}]", fmt_word(r.post));
                            } else if r.successful() {
                                let _ = write!(out, "  [wrote {}]", fmt_word(r.post));
                            }
                        }
                        _ => {}
                    }
                }
                Op::Read(reg) => {
                    let _ = write!(out, "read({reg})");
                }
                Op::Write(reg, val) => {
                    let _ = write!(out, "write({reg}, {val})");
                }
                Op::Rmw { reg, f, arg } => {
                    let _ = write!(out, "{f}({reg}, {arg:#x})");
                }
                Op::Local => {
                    let _ = write!(out, "local");
                }
            }
            if let Some(Status::Decided(v)) = e.status_after {
                let _ = write!(out, "  ⇒ DECIDES {v}");
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_spec::{Input, ObjectId, BOTTOM};

    fn cas_event(index: u64, pid: usize, faulted: bool, decided: Option<u32>) -> TraceEvent {
        TraceEvent {
            index,
            pid: ProcessId(pid),
            op: Op::Cas {
                obj: ObjectId(0),
                exp: BOTTOM,
                new: 5,
            },
            decision: if faulted {
                StepDecision::Apply(FaultDecision::Override)
            } else {
                StepDecision::Apply(FaultDecision::Correct)
            },
            record: Some(CasRecord {
                pre: if faulted { 7 } else { BOTTOM },
                exp: BOTTOM,
                new: 5,
                post: 5,
                returned: if faulted { 7 } else { BOTTOM },
            }),
            faulted,
            status_after: Some(match decided {
                Some(v) => Status::Decided(Input(v)),
                None => Status::Running,
            }),
        }
    }

    #[test]
    fn collects_events_in_order() {
        let mut t = Trace::new();
        assert!(t.is_empty());
        t.push(cas_event(0, 0, false, None));
        t.push(cas_event(1, 1, true, Some(5)));
        assert_eq!(t.len(), 2);
        assert_eq!(t.fault_steps().count(), 1);
        assert_eq!(t.events()[1].pid, ProcessId(1));
    }

    #[test]
    fn render_mentions_faults_and_decisions() {
        let mut t = Trace::new();
        t.push(cas_event(0, 0, false, None));
        t.push(cas_event(1, 1, true, Some(5)));
        let text = t.render();
        assert!(text.contains("OVERRIDE FAULT"), "{text}");
        assert!(text.contains("DECIDES 5"), "{text}");
        assert!(text.contains("CAS(O0, ⊥, 5)"), "{text}");
    }

    #[test]
    fn render_rmw() {
        let mut t = Trace::new();
        let mut e = cas_event(0, 0, false, None);
        e.op = Op::Rmw {
            reg: crate::heap::RegId(2),
            f: crate::ops::RmwFn::Or,
            arg: 1 << 63,
        };
        e.record = None;
        t.push(e);
        assert!(t.render().contains("fetch_or(r2, 0x8000000000000000)"));
    }

    #[test]
    fn render_hang() {
        let mut t = Trace::new();
        let mut e = cas_event(0, 0, false, None);
        e.decision = StepDecision::Hang;
        e.record = None;
        e.status_after = None;
        t.push(e);
        assert!(t.render().contains("HANG"));
    }
}
