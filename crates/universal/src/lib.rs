//! # ff-universal — robust objects from robust consensus
//!
//! Herlihy's universal construction over the fault-tolerant consensus
//! cells of the *Functional Faults* reproduction: replicated determinate
//! objects (counter, register, FIFO queue) driven by an operation log
//! whose slots are decided by consensus.
//!
//! The paper leans on consensus being *universal* (Section 1): once
//! Section 4's constructions deliver reliable consensus from faulty CAS
//! objects, every wait-free object inherits that reliability. This crate
//! closes the loop end-to-end: replicas over [`Cells::robust`] stay
//! consistent under heavy overriding-fault injection, while replicas over
//! [`Cells::naive`] observably diverge (experiment E10).
//!
//! ```
//! use ff_universal::{Cells, Counter, Handle, UniversalLog};
//! use std::sync::Arc;
//!
//! // Cells tolerate f = 1 faulty object, faulting half the time.
//! let log = Arc::new(UniversalLog::new(Arc::new(Cells::robust(1, 0.5, 7))));
//! let mut alice = Handle::new(Arc::clone(&log), 0, Counter::default());
//! let mut bob = Handle::new(Arc::clone(&log), 1, Counter::default());
//! alice.invoke(Counter::add_op(2));
//! bob.invoke(Counter::add_op(3));
//! assert_eq!(alice.sync().value(), 5);
//! assert_eq!(bob.sync().value(), 5);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod consensus_cell;
pub mod log;
pub mod object;
pub mod structures;

pub use consensus_cell::{CellFactory, Cells};
pub use log::{
    digests_consistent, log_windows_consistent, logs_consistent, CheckpointWords, Handle, OpId,
    SlotRecord, SlotSink, UniversalLog,
};
pub use object::{encoding, Replicated};
pub use structures::{Counter, FifoQueue, RegisterObject, EMPTY};
