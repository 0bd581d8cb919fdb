//! The functional-fault taxonomy of the CAS object (Sections 3.3–3.4) and
//! the classification of observed executions.
//!
//! A functional fault `⟨O, Φ'⟩` (Definition 1) is an execution of operation
//! `O` whose entry state satisfied the preconditions `Ψ` but whose result
//! violates the standard postconditions `Φ` while satisfying the deviating
//! postconditions `Φ'`. An *object* is faulty in an execution (Definition 2)
//! if at least one operation on it faults.
//!
//! [`FaultDecision::apply`] is the postcondition table itself: what each
//! deviation writes and reports. The native injector (`ff-cas`) and the
//! simulated heap (`ff-sim`) both build their records through it, so a
//! fault means the same thing on a thread and on an explored branch.

use crate::triple::{
    arbitrary_post, invisible_post, overriding_post, silent_post, standard_post, CasRecord,
};
use crate::value::Word;

/// The CAS functional-fault kinds discussed in the paper.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FaultKind {
    /// Section 3.3 — the case study. The comparison erroneously succeeds:
    /// the new value is written even when `R' ≠ exp`. Responsive, and the
    /// returned old value is still correct. This is the fault for which the
    /// paper's constructions and lower bounds are proven.
    Overriding,
    /// Section 3.4 — the new value is *not* written even though `R' = exp`.
    /// With a bounded total number of faults, retrying the Herlihy protocol
    /// suffices; with unbounded faults, termination can be foiled.
    Silent,
    /// Section 3.4 — the returned `old` value is incorrect. Reducible to a
    /// responsive data fault in the model of Afek et al.
    Invisible,
    /// Section 3.4 — an arbitrary value is written regardless of the
    /// operation's inputs. Equivalent to the responsive arbitrary data
    /// fault; `O(f log f)` constructions from Jayanti et al. apply.
    Arbitrary,
    /// Section 3.4 — the operation never responds. Even one nonresponsive
    /// fault makes consensus impossible (reduction to Loui–Abu-Amara /
    /// Dolev–Dwork–Stockmeyer).
    Nonresponsive,
}

impl FaultKind {
    /// All kinds, in paper order.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::Overriding,
        FaultKind::Silent,
        FaultKind::Invisible,
        FaultKind::Arbitrary,
        FaultKind::Nonresponsive,
    ];

    /// Whether the fault is *responsive*: the operation always returns.
    /// (Jayanti et al.'s responsive/nonresponsive split, Section 3.1.)
    pub fn responsive(self) -> bool {
        !matches!(self, FaultKind::Nonresponsive)
    }

    /// Whether a fault of this kind can be reduced to a *data* fault in the
    /// models of Afek et al. / Jayanti et al., per the discussion in
    /// Section 3.4. The overriding fault is the one that is **not**
    /// reducible — which is what makes it interesting.
    pub fn reducible_to_data_fault(self) -> bool {
        match self {
            FaultKind::Overriding => false,
            FaultKind::Silent => true, // as a nonresponsive data fault
            FaultKind::Invisible => true,
            FaultKind::Arbitrary => true,
            FaultKind::Nonresponsive => true,
        }
    }

    /// The canonical deviation of this kind for a CAS expecting `exp`:
    /// the invisible fault reports `exp` (pretending the comparison
    /// matched) and the arbitrary fault writes `junk`. `None` for the
    /// nonresponsive fault, which writes and reports nothing — the
    /// operation never returns.
    #[inline]
    pub fn decision(self, exp: Word, junk: Word) -> Option<FaultDecision> {
        match self {
            FaultKind::Overriding => Some(FaultDecision::Override),
            FaultKind::Silent => Some(FaultDecision::Silent),
            FaultKind::Invisible => Some(FaultDecision::Invisible { returned: exp }),
            FaultKind::Arbitrary => Some(FaultDecision::Arbitrary { written: junk }),
            FaultKind::Nonresponsive => None,
        }
    }

    /// The kind's lower-case name, as printed in reports.
    pub const fn name(self) -> &'static str {
        match self {
            FaultKind::Overriding => "overriding",
            FaultKind::Silent => "silent",
            FaultKind::Invisible => "invisible",
            FaultKind::Arbitrary => "arbitrary",
            FaultKind::Nonresponsive => "nonresponsive",
        }
    }

    /// Human-readable description of the deviating postconditions `Φ'`.
    pub fn deviating_postcondition(self) -> &'static str {
        match self {
            FaultKind::Overriding => "R = val ∧ old = R'",
            FaultKind::Silent => "R = R' ∧ old = R'",
            FaultKind::Invisible => "standard(R) ∧ old ≠ R'",
            FaultKind::Arbitrary => "old = R'",
            FaultKind::Nonresponsive => "(no response)",
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How one responsive CAS execution is (mis)executed: a row of the
/// postcondition table of Sections 3.3–3.4.
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
    /// The record of `old ← CAS(exp, new)` executed under this decision
    /// on a cell holding `pre`: what the cell holds afterwards and what
    /// the operation reports. Every [`CasRecord`] an execution produces
    /// is built here.
    #[inline]
    pub fn apply(self, pre: Word, exp: Word, new: Word) -> CasRecord {
        let standard = if pre == exp { new } else { pre };
        let (post, returned) = match self {
            FaultDecision::Correct => (standard, pre),
            // The comparison erroneously succeeds.
            FaultDecision::Override => (new, pre),
            // The write is suppressed even on a match.
            FaultDecision::Silent => (pre, pre),
            // The register is correct; the report is not.
            FaultDecision::Invisible { returned } => (standard, returned),
            FaultDecision::Arbitrary { written } => (written, pre),
        };
        CasRecord {
            pre,
            exp,
            new,
            post,
            returned,
        }
    }

    /// Would applying this decision to a cell holding `pre`, with a CAS
    /// expecting `exp` and writing `new`, violate the standard
    /// postconditions — an actual fault per Definition 1?
    #[inline]
    pub fn observable(self, pre: Word, exp: Word, new: Word) -> bool {
        !standard_post(&self.apply(pre, exp, new))
    }
}

/// Classification of a single (responsive) CAS execution record.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CasClassification {
    /// Satisfies the standard postconditions `Φ`.
    Correct,
    /// Violates `Φ` but matches the named structured deviation `Φ'`.
    Fault(FaultKind),
    /// Violates `Φ` and matches none of the named deviations.
    Unstructured,
}

/// Classify an observed CAS execution against the taxonomy.
///
/// Kinds are tested from most to least constrained so the classification is
/// the tightest structured description of the deviation. Nonresponsive
/// faults never produce a record, so they cannot appear here.
pub fn classify_cas(record: &CasRecord) -> CasClassification {
    if standard_post(record) {
        return CasClassification::Correct;
    }
    if overriding_post(record) {
        return CasClassification::Fault(FaultKind::Overriding);
    }
    if silent_post(record) {
        return CasClassification::Fault(FaultKind::Silent);
    }
    if invisible_post(record) {
        return CasClassification::Fault(FaultKind::Invisible);
    }
    if arbitrary_post(record) {
        return CasClassification::Fault(FaultKind::Arbitrary);
    }
    CasClassification::Unstructured
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::BOTTOM;

    fn rec(pre: u64, exp: u64, new: u64, post: u64, returned: u64) -> CasRecord {
        CasRecord {
            pre,
            exp,
            new,
            post,
            returned,
        }
    }

    #[test]
    fn classify_correct() {
        assert_eq!(
            classify_cas(&rec(BOTTOM, BOTTOM, 5, 5, BOTTOM)),
            CasClassification::Correct
        );
        assert_eq!(
            classify_cas(&rec(7, BOTTOM, 5, 7, 7)),
            CasClassification::Correct
        );
    }

    #[test]
    fn classify_overriding() {
        assert_eq!(
            classify_cas(&rec(7, BOTTOM, 5, 5, 7)),
            CasClassification::Fault(FaultKind::Overriding)
        );
    }

    #[test]
    fn classify_silent() {
        assert_eq!(
            classify_cas(&rec(BOTTOM, BOTTOM, 5, BOTTOM, BOTTOM)),
            CasClassification::Fault(FaultKind::Silent)
        );
    }

    #[test]
    fn classify_invisible() {
        assert_eq!(
            classify_cas(&rec(7, BOTTOM, 5, 7, 9)),
            CasClassification::Fault(FaultKind::Invisible)
        );
    }

    #[test]
    fn classify_arbitrary() {
        assert_eq!(
            classify_cas(&rec(7, BOTTOM, 5, 999, 7)),
            CasClassification::Fault(FaultKind::Arbitrary)
        );
    }

    #[test]
    fn classify_unstructured() {
        // Wrong write AND wrong returned value: no structured Φ' matches.
        assert_eq!(
            classify_cas(&rec(7, BOTTOM, 5, 999, 111)),
            CasClassification::Unstructured
        );
    }

    #[test]
    fn responsiveness_and_reducibility() {
        assert!(FaultKind::Overriding.responsive());
        assert!(!FaultKind::Nonresponsive.responsive());
        assert!(!FaultKind::Overriding.reducible_to_data_fault());
        for k in [
            FaultKind::Silent,
            FaultKind::Invisible,
            FaultKind::Arbitrary,
            FaultKind::Nonresponsive,
        ] {
            assert!(k.reducible_to_data_fault(), "{k} should be reducible");
        }
    }

    #[test]
    fn all_kinds_have_descriptions() {
        for k in FaultKind::ALL {
            assert!(!k.deviating_postcondition().is_empty());
            assert!(!k.to_string().is_empty());
        }
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
}
