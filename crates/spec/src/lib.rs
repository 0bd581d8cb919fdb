//! # ff-spec — the functional-fault model
//!
//! Formalization layer for the reproduction of *Functional Faults*
//! (Sheffi & Petrank, SPAA 2020): Hoare-triple specifications of the CAS
//! operation, the `⟨O, Φ'⟩`-fault definitions (Definitions 1–2), the
//! `(f, t, n)`-tolerance descriptors (Definition 3), execution histories,
//! and the consensus task specification with its checker.
//!
//! It also holds the fault semantics both executors run: the
//! postcondition table ([`FaultDecision::apply`], with each kind's
//! canonical deviation in [`FaultKind::decision`]) and the one `(f, t)`
//! budget ([`NativeBudget`]). The simulator (`ff-sim`), the native
//! fault-injection layer (`ff-cas`) and the protocols (`ff-consensus`)
//! all build on it. Apart from the budget's atomic countdowns it is pure
//! data and predicates.
//!
//! ## Model summary
//!
//! A **functional fault** occurs during the execution of an operation `O`
//! with triple `Ψ{O}Φ` when `Ψ` held on entry but the result violates `Φ`;
//! it is *structured* when the result satisfies known deviating
//! postconditions `Φ'`. The paper's case study is the **overriding CAS
//! fault**, whose `Φ'` is `R = val ∧ old = R'`: the comparison erroneously
//! succeeds, so the new value is written even when the register did not
//! hold the expected value — yet the returned old value is still correct.
//!
//! ```
//! use ff_spec::{CasRecord, classify_cas, CasClassification, FaultKind, BOTTOM};
//!
//! // A CAS(O, ⊥, 5) executed while O held 7: the write must not happen...
//! let faulty = CasRecord { pre: 7, exp: BOTTOM, new: 5, post: 5, returned: 7 };
//! // ...but it did: that is precisely the overriding fault.
//! assert_eq!(classify_cas(&faulty), CasClassification::Fault(FaultKind::Overriding));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod assertion;
pub mod budget;
pub mod consensus_spec;
pub mod fault;
pub mod fnv;
pub mod history;
pub mod severity;
pub mod tolerance;
pub mod triple;
pub mod value;

pub use assertion::{conjunction, Assertion};
pub use budget::NativeBudget;
pub use consensus_spec::{check_consensus, ConsensusVerdict, ConsensusViolation, Outcome};
pub use fault::{classify_cas, CasClassification, FaultDecision, FaultKind};
pub use fnv::{fnv1a, FNV_BASIS};
pub use history::{History, ObjectId, OpEvent, ProcessId};
pub use severity::{
    data_fault_reduction, gracefully_degrades, Behavior, DataFaultClass, Responsiveness,
};
pub use tolerance::{Bound, Tolerance};
pub use triple::{
    arbitrary_post, invisible_post, overriding_post, silent_post, standard_post, CasRecord,
    CasTriple, OpVerdict,
};
pub use value::{CellContent, Input, Word, BOTTOM};
