//! # ff-cas — CAS objects with functional-fault injection
//!
//! The native-thread hardware layer of the *Functional Faults*
//! reproduction (Sheffi & Petrank, SPAA 2020): real `std::sync::atomic`
//! CAS words wrapped with fault injection *at the linearization point*.
//!
//! The paper's hardware faults (voltage scaling, soft errors) are
//! simulated in software, which preserves the model exactly: a functional
//! fault is *defined* by the effect on the operation's postconditions
//! (Definition 1), not by its physical cause. An overriding fault, for
//! instance, is emulated by an unconditional atomic `swap` — precisely the
//! postcondition `R = val ∧ old = R'`. What each fault writes and reports,
//! and the `(f, t)` budget, are `ff-spec`'s ([`ff_spec::FaultDecision`],
//! [`ff_spec::NativeBudget`]), shared with the simulator.
//!
//! The CAS object built from consensus-number-1 primitives,
//! `ff_consensus::KwCas`, lives with the step machines it is written
//! as; its cells plug into the injector here through [`RawCas`].
//!
//! ```
//! use ff_cas::{CasEnsemble, FaultyCasArray, AlwaysPolicy};
//! use ff_spec::{Bound, ObjectId, BOTTOM};
//!
//! // One CAS object with at most two overriding faults.
//! let ensemble = FaultyCasArray::builder(1)
//!     .faulty_first(1)
//!     .per_object(Bound::Finite(2))
//!     .policy(AlwaysPolicy)
//!     .build();
//!
//! assert_eq!(ensemble.cas(ObjectId(0), BOTTOM, 5), BOTTOM); // correct (match)
//! assert_eq!(ensemble.cas(ObjectId(0), BOTTOM, 9), 5);      // overriding fault!
//! assert_eq!(ensemble.cas(ObjectId(0), 9, 7), 9);           // the override stuck
//! assert_eq!(ensemble.stats().total_observable(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atomic;
pub mod cell;
pub mod faulty;
pub mod policy;
pub mod raw;
pub mod stats;

pub use atomic::{AtomicCas, AtomicCasArray};
pub use cell::{CasCell, CasEnsemble, EnsembleCell};
pub use faulty::{set_thread_process_id, thread_process_id, FaultyCasArray, FaultyCasArrayBuilder};
pub use policy::{
    splitmix64, AlwaysPolicy, EveryNthPolicy, FaultPolicy, FirstKPolicy, NeverPolicy,
    ProbabilisticPolicy,
};
pub use raw::RawCas;
pub use stats::{EnsembleStats, ObjectStats};
