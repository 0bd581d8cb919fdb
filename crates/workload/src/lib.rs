//! # ff-workload — the experiment harness
//!
//! Regenerates every experiment table of the *Functional Faults*
//! reproduction (see EXPERIMENTS.md): parameter sweeps, seeded trial
//! runners, summary statistics, ASCII tables, the E1–E14 experiment
//! registry and JSON export.
//!
//! ```no_run
//! // Render one experiment's tables:
//! let e3 = &ff_workload::registry()[2];
//! println!("{}", e3.run().render());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiment;
pub mod experiments;
pub mod json;
pub mod runner;
pub mod stats;
pub mod sweep;
pub mod table;

pub use experiment::{registry, Experiment, ExperimentResult};
pub use json::{from_json, parse_seed, to_json, JsonValue};
pub use runner::{run_trials, time_it, time_trials, TrialBatch};
pub use stats::Summary;
pub use sweep::{ft_grid, grid2, grid3};
pub use table::Table;
