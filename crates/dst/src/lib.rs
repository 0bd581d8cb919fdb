//! # ff-dst — deterministic whole-system simulation
//!
//! A FoundationDB-style simulator that runs the **real** stack — the
//! [`ff_store::Store`], and `ff-net`'s actual wire
//! codec and [`Session`](ff_net::Session) protocol state machine — on
//! top of a simulated datacenter, and then does its best to kill it:
//! process crashes, restarts, machine partitions, dropped / duplicated
//! / delayed / reordered network chunks, and live fault-rate ramps in
//! the store's own functional-fault plane.
//!
//! Everything is a pure function of `(scenario, seed, fault script)`:
//!
//! * time is a logical nanosecond counter ([`clock`]) advanced only by
//!   the event loop,
//! * every random decision comes from a seeded, labeled-fork PRNG
//!   ([`rng`]) — fault, jitter and workload streams are independent so
//!   one subsystem's extra draws never shift another's,
//! * the fabric ([`net`]) records every fault decision into a
//!   [`FaultScript`](trace::FaultScript) that replays bit-identically,
//!   and a failing script shrinks to a 1-minimal golden trace with
//!   [`trace::minimize`].
//!
//! | module | contents |
//! |---|---|
//! | [`clock`] | [`SimClock`]: advance-only logical time |
//! | [`rng`] | [`SimRng`]: splitmix64 PRNG with labeled forks |
//! | [`topology`] | machines and processes — failure and partition domains |
//! | [`disk`] | [`SimDisk`]: per-machine durable bytes that survive kills, with torn power-fail semantics |
//! | [`net`] | [`SimNet`]: the lossy fabric, fault decisions, record/replay |
//! | [`process`] | the four state machines — server (fronting the shared store or owning a durable one), client, worker, combiner — and the [`Ctx`](process::Ctx) every handler takes |
//! | [`runner`] | [`Sim`]: the event heap, kills, power-fails, respawns, one dispatch, the run loop |
//! | [`scenario`] | [`CORPUS`]: one row per scenario (population × fault schedule), the interpreter that runs any row, and the per-arm contracts |
//! | [`trace`] | fault scripts, trace fingerprints, ddmin minimization, golden traces |
//!
//! The point, in the paper's terms: the store's fault-tolerant
//! constructions are exercised by *systemic* faults (crashed combiners,
//! dead servers, partitioned racks) layered on the *functional* faults
//! they were built for — and the simulator checks the contract that
//! robust arms stay consistent and live while naive arms are always
//! flagged, never silently wrong.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod disk;
pub mod net;
pub mod process;
pub mod rng;
pub mod runner;
pub mod scenario;
pub mod topology;
pub mod trace;

pub use clock::SimClock;
pub use disk::SimDisk;
pub use net::{ConnId, FaultRates, NetConfig, Payload, ScriptMode, SimNet};
pub use process::{ClientCfg, Proc, RunFlags};
pub use rng::SimRng;
pub use runner::{EvKind, ProcSpec, RunReport, Sim};
pub use scenario::{arm_ok, arms, check_arm, run_scenario, CORPUS, E19_SEED};
pub use topology::{MachineId, ProcId, Topology};
pub use trace::{minimize, reproduces, violation_of, FaultAction, FaultScript, GoldenTrace, Trace};
