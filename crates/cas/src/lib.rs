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
//! postcondition `R = val ∧ old = R'`.
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
pub mod budget;
pub mod cell;
pub mod faulty;
pub mod kw;
pub mod policy;
pub mod raw;
pub mod stats;
pub mod wfa;

pub use atomic::{AtomicCas, AtomicCasArray};
pub use budget::NativeBudget;
pub use cell::{CasCell, CasEnsemble, EnsembleCell};
pub use faulty::{set_thread_process_id, thread_process_id, FaultyCasArray, FaultyCasArrayBuilder};
pub use kw::{KwCas, KwCasArray};
pub use policy::{
    splitmix64, AlwaysPolicy, EveryNthPolicy, FaultPolicy, FirstKPolicy, NeverPolicy,
    ProbabilisticPolicy, ScriptedPolicy,
};
pub use raw::RawCas;
pub use stats::{EnsembleStats, ObjectStats};
pub use wfa::WriteAndFArray;
