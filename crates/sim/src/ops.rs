//! The one-shared-step-per-step discipline: the operations a simulated
//! process may request and the results handed back. The fault decisions
//! an execution may apply to a CAS step are `ff-spec`'s
//! [`ff_spec::FaultDecision`].
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
    /// `old ← f(reg, arg)`: a consensus-number-1 read-modify-write of a
    /// register, answered with [`OpResult::Read`]`(old)`. Never faulty:
    /// the explorer does not branch on it.
    Rmw {
        /// Target register.
        reg: RegId,
        /// The combining function.
        f: RmwFn,
        /// Its argument.
        arg: Word,
    },
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

/// The read-modify-writes of [`Op::Rmw`]: each leaves `f(old, arg)` in
/// the register.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RmwFn {
    /// Max-write: `max(old, arg)`.
    Max,
    /// Bitwise or — on one bit, a half-max: once set, never unset.
    Or,
    /// Wrapping add (a naming ticket).
    Add,
}

impl RmwFn {
    /// The register's content after the step.
    #[inline]
    pub fn apply(self, old: Word, arg: Word) -> Word {
        match self {
            RmwFn::Max => old.max(arg),
            RmwFn::Or => old | arg,
            RmwFn::Add => old.wrapping_add(arg),
        }
    }
}

impl std::fmt::Display for RmwFn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RmwFn::Max => "fetch_max",
            RmwFn::Or => "fetch_or",
            RmwFn::Add => "fetch_add",
        })
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
    /// The value read from a register (for [`Op::Rmw`], its old content).
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
    fn rmw_is_no_wider_than_cas() {
        // Ops are copied on every step of every explored state.
        assert_eq!(std::mem::size_of::<Op>(), 32);
    }

    #[test]
    fn rmw_functions() {
        assert_eq!(RmwFn::Max.apply(3, 7), 7);
        assert_eq!(RmwFn::Max.apply(7, 3), 7);
        assert_eq!(RmwFn::Or.apply(0b01, 0b10), 0b11);
        assert_eq!(RmwFn::Add.apply(u64::MAX, 2), 1);
        assert_eq!(RmwFn::Max.to_string(), "fetch_max");
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
