//! # functional-faults
//!
//! A comprehensive Rust reproduction of **"Functional Faults"**
//! (Gali Sheffi and Erez Petrank, SPAA 2020): the functional-fault model,
//! wait-free consensus from CAS objects with *overriding* faults, the
//! matching impossibility results, and the machinery to verify all of it
//! mechanically — a deterministic simulator with an exhaustive model
//! checker, native-thread fault injection over std atomics, the proofs'
//! adversaries, and a Herlihy universal construction demonstrating
//! end-to-end fault-tolerant replication.
//!
//! This crate is the umbrella: it re-exports the workspace members.
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`spec`] | `ff-spec` | Hoare triples, `⟨O, Φ'⟩`-faults, `(f, t, n)`-tolerance, consensus checker |
//! | [`sim`] | `ff-sim` | Deterministic simulator, schedulers, exhaustive explorer, valency analysis |
//! | [`cas`] | `ff-cas` | Native CAS ensembles with fault injection at the linearization point |
//! | [`consensus`] | `ff-consensus` | Figures 1–3 as library protocols (one step machine each, explored by `sim`, run natively by the blocking types) |
//! | [`adversary`] | `ff-adversary` | Theorem 18/19 adversaries, data-fault separation, hierarchy probes |
//! | [`universal`] | `ff-universal` | Replicated objects over fault-tolerant consensus cells |
//! | [`workload`] | `ff-workload` | The E1–E14 experiment harness and table rendering (the system-scale E15–E21, the full registry and the `ff` binary are `ff-bench`, which depends on this crate's members and is not re-exported) |
//! | [`store`] | `ff-store` | Sharded replicated KV store with checkpointed logs, fault knobs, metrics, soak harness, unified `Kv` client API |
//! | [`net`] | `ff-net` | Binary wire protocol + `poll(2)`-driven TCP reactor and client for the store |
//!
//! ## Quickstart
//!
//! ```
//! use functional_faults::consensus::{CascadeConsensus, Consensus};
//! use functional_faults::cas::{FaultyCasArray, AlwaysPolicy};
//! use functional_faults::spec::{Bound, Input};
//! use std::sync::Arc;
//!
//! // Hardware: 3 CAS objects, 2 of which override unboundedly.
//! let ensemble = Arc::new(
//!     FaultyCasArray::builder(3)
//!         .faulty_first(2)
//!         .per_object(Bound::Unbounded)
//!         .policy(AlwaysPolicy)
//!         .build(),
//! );
//! // Theorem 5: f + 1 = 3 objects tolerate f = 2 faulty ones.
//! let consensus = CascadeConsensus::new(ensemble, 2);
//! assert_eq!(consensus.decide(Input(7)), consensus.decide(Input(9)));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use ff_adversary as adversary;
pub use ff_cas as cas;
pub use ff_consensus as consensus;
pub use ff_net as net;
pub use ff_sim as sim;
pub use ff_spec as spec;
pub use ff_store as store;
pub use ff_universal as universal;
pub use ff_workload as workload;
