//! # ff-sim — deterministic shared-memory simulator and model checker
//!
//! The execution substrate of the *Functional Faults* reproduction
//! (Sheffi & Petrank, SPAA 2020). Protocols are written as step machines
//! ([`Process`]) over a [`Heap`] of CAS cells and read/write registers —
//! exactly the paper's model of Section 2, where each atomic step performs
//! at most one shared-object operation.
//!
//! Three execution modes share the same step semantics:
//!
//! * **Driven runs** ([`executor::run`]): a [`Scheduler`] picks the
//!   interleaving and a [`FaultOracle`] decides which in-budget fault
//!   opportunities are taken. Round-robin, seeded-random and scripted
//!   drivers cover benign, stress and replay use.
//! * **Exhaustive exploration** ([`explorer::explore`]): every
//!   interleaving × every allowed fault decision, with exact-key
//!   memoization — the engine behind the mechanical verification of the
//!   upper bounds (Theorems 4–6) and the witness extraction for the lower
//!   bounds (Theorems 18–19).
//! * **Valency analysis** ([`valency`]): reachable decision sets,
//!   multivalent/univalent classification and critical-state search,
//!   mechanizing the vocabulary of the impossibility proofs.
//!
//! Fault injection follows Definition 3's parameters: a [`FaultPlan`]
//! names the (≤ `f`) faulty objects, their [`ff_spec::FaultKind`] and the
//! per-object limit `t`; `ff-spec`'s [`ff_spec::NativeBudget`] — the
//! native injector's budget too — enforces them. A step's
//! [`ff_spec::FaultDecision`] is applied through `ff-spec`'s postcondition
//! table ([`ff_spec::FaultDecision::apply`]), and only charged when it is
//! *observable* — when the resulting record actually violates the CAS's
//! standard postconditions (Definition 1).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cbound;
pub mod executor;
pub mod explorer;
pub mod fault_ctl;
pub mod heap;
pub mod ops;
pub mod parallel;
pub mod process;
pub mod scheduler;
pub mod state;
pub mod trace;
pub mod valency;

pub use cbound::{explore_context_bounded, iterative_context_bounding};
pub use executor::{run, RunConfig, RunReport};
pub use explorer::{explore, explore_bfs, ExploreReport, ExplorerConfig, ViolationCounts, Witness};
pub use fault_ctl::{
    FaultOracle, FaultPlan, GreedyFault, NeverFault, ProcessBoundFault, ScriptedFault, StepDecision,
};
pub use heap::{Heap, RegId};
pub use ops::{Op, OpResult, RmwFn};
pub use parallel::{default_threads, explore_parallel};
pub use process::{Process, SoloDecider, Status};
pub use scheduler::{RoundRobin, Scheduler, Scripted, SeededRandom, SoloFirst};
pub use state::{Choice, SimState};
pub use trace::{Trace, TraceEvent};
pub use valency::{find_critical_state, CriticalState, Valency, ValencyAnalyzer};
