//! # ff-consensus — consensus from functionally-faulty CAS objects
//!
//! The primary contribution of *Functional Faults* (Sheffi & Petrank,
//! SPAA 2020) as a library: wait-free consensus protocols built from CAS
//! objects that may exhibit the **overriding fault** (the comparison
//! erroneously succeeds and the new value is written regardless), plus
//! the Herlihy baseline and the silent-fault retry protocol.
//!
//! | Construction | Paper | Objects | Tolerance |
//! |---|---|---|---|
//! | [`HerlihyConsensus`] | §2 | 1 | `(0, 0, ∞)` — reliable objects only |
//! | [`TwoProcessConsensus`] | Fig. 1 / Thm 4 | 1 | `(f, ∞, 2)` |
//! | [`CascadeConsensus`] | Fig. 2 / Thm 5 | f + 1 | `(f, ∞, ∞)` |
//! | [`StagedConsensus`] | Fig. 3 / Thm 6 | f | `(f, t, f+1)` |
//! | [`SilentRetryConsensus`] | §3.4 | 1 | bounded silent faults |
//!
//! Every protocol is written once, as a **step machine** ([`machines`],
//! implementing [`ff_sim::Process`]): that is what the deterministic
//! simulator runs and the exhaustive model checker verifies. The
//! **blocking** types above (generic over [`ff_cas::CasEnsemble`], for
//! real threads over std atomics) add the constructor checks, the
//! participant caps and the metadata, and their `decide` runs the same
//! machine over the ensemble through one driver — so the code that
//! ships is the code that was checked. The [`factory`] is the one place
//! a construction is chosen: [`recommend`] maps a fault kind and a
//! requested `(f, t, n)` tolerance to a protocol per Section 4's case
//! analysis, and [`build`] instantiates it — the store's substrates and
//! `ff-universal`'s cells both go through the pair;
//! [`runner::run_native`] drives a protocol on real threads and checks
//! the consensus properties.
//!
//! ```
//! use ff_consensus::{CascadeConsensus, Consensus};
//! use ff_cas::{FaultyCasArray, AlwaysPolicy};
//! use ff_spec::{Bound, Input};
//! use std::sync::Arc;
//!
//! // f = 1 faulty object (unbounded overriding faults), f + 1 = 2 objects.
//! let ensemble = Arc::new(
//!     FaultyCasArray::builder(2)
//!         .faulty_first(1)
//!         .per_object(Bound::Unbounded)
//!         .policy(AlwaysPolicy)
//!         .build(),
//! );
//! let consensus = CascadeConsensus::new(ensemble, 1);
//! let first = consensus.decide(Input(7));
//! let second = consensus.decide(Input(9));
//! assert_eq!(first, second); // agreement despite the faulty object
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cascade;
pub mod factory;
pub mod herlihy;
pub mod kw;
pub mod machines;
pub mod protocol;
pub mod runner;
pub mod silent;
pub mod stage_value;
pub mod staged;
pub mod two_process;

pub use cascade::CascadeConsensus;
pub use factory::{
    build, recommend, NoConstruction, ProtocolKind, Recommendation, TOLERABLE_KINDS,
};
pub use herlihy::HerlihyConsensus;
pub use kw::{KwBlock, KwCas, KwCasArray, KwOp, OverKw};
pub use machines::{
    cascades, one_shots, silent_retries, staged as staged_machines, staged_with_max_stage,
    CascadeMachine, OneShotMachine, SilentRetryMachine, StagedMachine, TasConsensusMachine,
};
pub use protocol::Consensus;
pub use runner::{run_native, NativeRunReport};
pub use silent::SilentRetryConsensus;
pub use stage_value::{max_stage, StageValue, MAX_STAGE};
pub use staged::StagedConsensus;
pub use two_process::TwoProcessConsensus;
