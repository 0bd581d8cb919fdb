//! The one-shared-step-per-step discipline: the operations a simulated
//! process may request, the fault decisions an execution may apply to
//! them, and the results handed back.
//!
//! The paper's execution model (Section 2) is an alternating sequence of
//! states and atomic steps, where a step performs local computation plus at
//! most one shared-object operation. Simulated processes surface exactly
//! that interface: each scheduler turn asks the process for its next [`Op`]
//! and feeds it back the [`OpResult`].

use crate::heap::RegId;
use ff_spec::{ObjectId, Word};

/// A shared-memory operation requested by a process for its next step.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Op {
    /// `old ← CAS(obj, exp, new)` — the only operation CAS objects expose.
    Cas {
        /// Target CAS object.
        obj: ObjectId,
        /// Expected value.
        exp: Word,
        /// New value.
        new: Word,
    },
    /// Read a read/write register.
    Read(RegId),
    /// Write a read/write register.
    Write(RegId, Word),
    /// A purely local step (no shared-memory access).
    Local,
}

impl Op {
    /// The CAS object targeted by this op, if it is a CAS.
    pub fn cas_target(&self) -> Option<ObjectId> {
        match self {
            Op::Cas { obj, .. } => Some(*obj),
            _ => None,
        }
    }
}

/// How the execution chose to (mis)execute a CAS step.
///
/// Only decisions that can actually violate the standard postconditions
/// are *faults*; e.g. [`FaultDecision::Override`] on a matching comparison
/// yields a correct record and consumes no fault budget.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FaultDecision {
    /// Execute per the sequential specification.
    Correct,
    /// Overriding fault (Section 3.3): write unconditionally.
    Override,
    /// Silent fault (Section 3.4): suppress the write.
    Silent,
    /// Invisible fault (Section 3.4): return a wrong old value.
    Invisible {
        /// The incorrect old value to return.
        returned: Word,
    },
    /// Arbitrary fault (Section 3.4): write an adversary-chosen value.
    Arbitrary {
        /// The value to write.
        written: Word,
    },
}

impl FaultDecision {
    /// Would applying this decision to a cell currently holding `pre`,
    /// with a CAS expecting `exp` and writing `new`, produce a record that
    /// violates the standard postconditions (i.e. an actual fault per
    /// Definition 1)?
    pub fn observable(self, pre: Word, exp: Word, new: Word) -> bool {
        match self {
            FaultDecision::Correct => false,
            // Overriding differs from correct only when the comparison
            // fails and the written value actually changes the register
            // content (writing the identical value back is indistinguishable).
            FaultDecision::Override => pre != exp && new != pre,
            // Silent differs only when the comparison succeeds and the
            // suppressed write would have changed the content.
            FaultDecision::Silent => pre == exp && new != pre,
            FaultDecision::Invisible { returned } => returned != pre,
            FaultDecision::Arbitrary { written } => {
                let correct_post = if pre == exp { new } else { pre };
                written != correct_post
            }
        }
    }
}

/// The result of a step, handed back to the process.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum OpResult {
    /// The old value returned by a CAS.
    Cas {
        /// The value the operation reported as the previous content.
        old: Word,
    },
    /// The value read from a register.
    Read(Word),
    /// A register write completed.
    Write,
    /// A local step completed.
    Local,
}

impl OpResult {
    /// The old value, for CAS results. Panics on other variants — protocol
    /// machines only call this right after requesting a CAS.
    #[inline]
    pub fn cas_old(&self) -> Word {
        match self {
            OpResult::Cas { old } => *old,
            other => panic!("expected CAS result, got {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_spec::BOTTOM;

    #[test]
    fn cas_target_extraction() {
        let op = Op::Cas {
            obj: ObjectId(2),
            exp: BOTTOM,
            new: 1,
        };
        assert_eq!(op.cas_target(), Some(ObjectId(2)));
        assert_eq!(Op::Local.cas_target(), None);
        assert_eq!(Op::Read(RegId(0)).cas_target(), None);
    }

    #[test]
    fn override_observability() {
        // Mismatch + changing write: observable.
        assert!(FaultDecision::Override.observable(7, BOTTOM, 5));
        // Matching comparison: not observable.
        assert!(!FaultDecision::Override.observable(BOTTOM, BOTTOM, 5));
        // Mismatch but writing back the same value: not observable.
        assert!(!FaultDecision::Override.observable(7, BOTTOM, 7));
    }

    #[test]
    fn silent_observability() {
        assert!(FaultDecision::Silent.observable(BOTTOM, BOTTOM, 5));
        assert!(!FaultDecision::Silent.observable(7, BOTTOM, 5));
        assert!(!FaultDecision::Silent.observable(5, 5, 5));
    }

    #[test]
    fn invisible_and_arbitrary_observability() {
        assert!(FaultDecision::Invisible { returned: 9 }.observable(7, BOTTOM, 5));
        assert!(!FaultDecision::Invisible { returned: 7 }.observable(7, BOTTOM, 5));
        assert!(FaultDecision::Arbitrary { written: 9 }.observable(7, BOTTOM, 5));
        // Writing exactly the correct post-state is indistinguishable.
        assert!(!FaultDecision::Arbitrary { written: 7 }.observable(7, BOTTOM, 5));
        assert!(!FaultDecision::Arbitrary { written: 5 }.observable(BOTTOM, BOTTOM, 5));
    }

    #[test]
    fn correct_is_never_observable() {
        assert!(!FaultDecision::Correct.observable(7, BOTTOM, 5));
    }

    #[test]
    fn cas_old_accessor() {
        assert_eq!(OpResult::Cas { old: 3 }.cas_old(), 3);
    }

    #[test]
    #[should_panic(expected = "expected CAS result")]
    fn cas_old_panics_on_wrong_variant() {
        OpResult::Local.cas_old();
    }
}
