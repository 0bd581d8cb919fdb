//! # ff-bench — the `ff` command line and the system-scale experiments
//!
//! The one crate that depends on every layer, so it holds what needs
//! the whole stack at once:
//!
//! | module | contents |
//! |---|---|
//! | [`cli`] | the command-line engine: declared flags, one parser, generated usage, one exit-code rule |
//! | [`flags`] | the table: every flag and every `ff` subcommand, declared once |
//! | [`experiments`] | E15–E21 and [`registry`] (E1–E21), the substrate hierarchy sweep |
//! | [`soak`], [`net`], [`report`], [`dst`], [`witness`] | the subcommands |
//!
//! The only binary is `ff` (`src/bin/ff.rs`); the criterion benches
//! B1–B5 live in `benches/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod dst;
pub mod experiments;
pub mod flags;
pub mod net;
pub mod report;
pub mod soak;
pub mod witness;

pub use experiments::{find, registry};
