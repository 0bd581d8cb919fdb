//! Per-shard fault plumbing shared by every consensus substrate.
//!
//! The substrate API itself — the [`Substrate`](crate::substrate::Substrate)
//! trait, the registry, and the [`Backend`](crate::Backend) handle —
//! lives in [`crate::substrate`]. This module keeps the pieces every
//! substrate builds from:
//!
//! * **Aggregated live stats.** All cells of a shard share one
//!   `EnsembleStats`, so fault counts can be read while the shard
//!   serves traffic (individual cells are created and dropped as the
//!   log advances and truncates).
//! * **Runtime knobs.** The fault rate is an atomic the operator can
//!   turn mid-run ([`FaultKnob::set_rate`]) — per shard, without
//!   rebuilding anything.
//!
//! The protocols themselves are not here: a cell is one of
//! `ff-consensus`'s types, whose `decide` runs the model-checked step
//! machine. Junk words from *arbitrary* faults are the machines'
//! business too — the cascade skips them (`CascadeMachine`'s doc holds
//! the soundness argument), the single-CAS protocol carries them.
//!
//! Tolerable fault kinds per substrate follow the paper's results:
//! overriding and arbitrary kinds get the `f`-tolerant cascade
//! (Theorem 5) over `f` faulty + 1 reliable objects; silent faults get
//! the bounded-retry protocol (Section 3.4), which requires a finite
//! total budget `t` (unbounded silent faults admit nontermination —
//! experiment E8). Invisible faults are rejected: no construction in
//! the paper tolerates them (Theorem 4 territory), so a store
//! configured for them would be built on nothing. Each substrate
//! declares its own envelope via
//! [`Substrate::tolerated_kinds`](crate::substrate::Substrate::tolerated_kinds).

use ff_cas::{splitmix64, FaultPolicy};
use ff_spec::{Bound, FaultKind, ObjectId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A live-adjustable fault rate shared by every cell of one shard.
#[derive(Debug)]
pub struct FaultKnob {
    /// Probability threshold over the u64 space (rate × u64::MAX).
    threshold: AtomicU64,
    seed: u64,
}

impl FaultKnob {
    /// A knob starting at `rate` (probability per CAS operation).
    pub fn new(rate: f64, seed: u64) -> Arc<Self> {
        let knob = FaultKnob {
            threshold: AtomicU64::new(0),
            seed,
        };
        knob.set_rate(rate);
        Arc::new(knob)
    }

    /// Change the fault rate, effective immediately for all cells.
    pub fn set_rate(&self, rate: f64) {
        assert!(
            (0.0..=1.0).contains(&rate),
            "fault rate must be a probability, got {rate}"
        );
        self.threshold
            .store((rate * u64::MAX as f64) as u64, Ordering::Relaxed);
    }

    /// The current fault rate.
    pub fn rate(&self) -> f64 {
        self.threshold.load(Ordering::Relaxed) as f64 / u64::MAX as f64
    }
}

/// The policy face of a [`FaultKnob`]: probabilistic, counter-based
/// (no shared RNG state), reading the rate live.
pub(crate) struct KnobPolicy {
    pub(crate) knob: Arc<FaultKnob>,
    /// Distinguishes cells sharing one knob, so they don't fault in
    /// lockstep.
    pub(crate) salt: u64,
}

impl FaultPolicy for KnobPolicy {
    fn should_fault(&self, obj: ObjectId, op_index: u64) -> bool {
        let bits = splitmix64(
            self.knob.seed ^ self.salt ^ splitmix64(obj.0 as u64) ^ op_index.rotate_left(17),
        );
        bits <= self.knob.threshold.load(Ordering::Relaxed)
    }
}

/// Process-level faults, orthogonal to the paper's *object*-level
/// taxonomy. The paper's cells lie; its processes are immortal. The
/// recoverable-consensus line of work (Golab; Lundström–Raynal–Schiller
/// in PAPERS.md) asks what survives when processes crash too — this is
/// that axis.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ProcessFault {
    /// Processes never crash (the paper's base model).
    #[default]
    None,
    /// Processes may be killed and restarted at any point: **volatile
    /// state is lost, cells survive**, and durable storage survives
    /// possibly with a torn tail at the last unsynced write. Requires
    /// durability in the [`StoreConfig`](crate::StoreConfig) — a
    /// crashed process rejoins by replaying its write-ahead log
    /// ([`Store::recover`](crate::Store::recover)).
    CrashRecover,
}

/// Fault environment of one shard: kind, `(f, t)` budget, live rate,
/// and the process-level crash model.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultConfig {
    /// The functional-fault kind to inject.
    pub kind: FaultKind,
    /// Faulty objects per cell ensemble (Definition 2's `f`).
    pub f: usize,
    /// Per-object fault budget (Definition 2's `t`); silent faults
    /// require a finite bound.
    pub t: Bound,
    /// Initial fault probability per CAS operation.
    pub rate: f64,
    /// Whether processes themselves may crash and recover (orthogonal
    /// to the object-fault kind above).
    pub process: ProcessFault,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            kind: FaultKind::Overriding,
            f: 1,
            t: Bound::Unbounded,
            rate: 0.2,
            process: ProcessFault::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::substrate::{Backend, ShardCells};
    use ff_spec::Input;
    use ff_universal::CellFactory;

    #[test]
    fn knob_changes_rate_live() {
        let knob = FaultKnob::new(0.0, 1);
        let policy = KnobPolicy {
            knob: Arc::clone(&knob),
            salt: 0,
        };
        assert!((0..100).all(|i| !policy.should_fault(ObjectId(0), i)));
        knob.set_rate(1.0);
        assert!((0..100).all(|i| policy.should_fault(ObjectId(0), i)));
        assert!((knob.rate() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn guarded_cascade_agrees_under_arbitrary_faults() {
        let fault = FaultConfig {
            kind: FaultKind::Arbitrary,
            f: 1,
            t: Bound::Unbounded,
            rate: 0.8,
            ..FaultConfig::default()
        };
        let cells = ShardCells::new(Backend::robust(), fault, 42);
        for _ in 0..100 {
            let cell = cells.make();
            let a = cell.decide(Input(1));
            let b = cell.decide(Input(2));
            let c = cell.decide(Input(3));
            assert_eq!(a, b);
            assert_eq!(b, c);
            assert!([Input(1), Input(2), Input(3)].contains(&a), "validity");
        }
        assert!(cells.stats().total_observable() > 0, "faults were injected");
    }

    #[test]
    fn robust_silent_cells_agree() {
        let fault = FaultConfig {
            kind: FaultKind::Silent,
            f: 1,
            t: Bound::Finite(4),
            rate: 0.5,
            ..FaultConfig::default()
        };
        let cells = ShardCells::new(Backend::robust(), fault, 7);
        for _ in 0..100 {
            let cell = cells.make();
            let a = cell.decide(Input(1));
            let b = cell.decide(Input(2));
            assert_eq!(a, b);
        }
    }

    #[test]
    fn naive_cells_never_panic_on_junk() {
        let fault = FaultConfig {
            kind: FaultKind::Arbitrary,
            f: 1,
            t: Bound::Unbounded,
            rate: 1.0,
            ..FaultConfig::default()
        };
        let cells = ShardCells::new(Backend::naive(), fault, 3);
        for _ in 0..100 {
            let cell = cells.make();
            let _ = cell.decide(Input(1));
            let _ = cell.decide(Input(2));
        }
    }

    #[test]
    fn stats_aggregate_across_cells() {
        let cells = ShardCells::new(
            Backend::robust(),
            FaultConfig {
                rate: 1.0,
                ..FaultConfig::default()
            },
            9,
        );
        for _ in 0..10 {
            let cell = cells.make();
            cell.decide(Input(1));
        }
        // 10 cells × 2 CAS per decide (f = 1), all recorded in one place.
        let total_ops: u64 = cells.stats().all().iter().map(|o| o.ops).sum();
        assert_eq!(total_ops, 20);
    }

    #[test]
    #[should_panic(expected = "finite per-object budget")]
    fn unbounded_silent_rejected() {
        let _ = ShardCells::new(
            Backend::robust(),
            FaultConfig {
                kind: FaultKind::Silent,
                t: Bound::Unbounded,
                ..FaultConfig::default()
            },
            0,
        );
    }

    #[test]
    #[should_panic(expected = "no construction")]
    fn invisible_rejected() {
        let _ = ShardCells::new(
            Backend::robust(),
            FaultConfig {
                kind: FaultKind::Invisible,
                ..FaultConfig::default()
            },
            0,
        );
    }

    #[test]
    #[should_panic(expected = "no construction")]
    fn kw_robust_refuses_arbitrary() {
        // Arbitrary junk is unrepresentable in a KW word — the
        // substrate refuses the environment instead of truncating it.
        let _ = ShardCells::new(
            Backend::kw_robust(),
            FaultConfig {
                kind: FaultKind::Arbitrary,
                ..FaultConfig::default()
            },
            0,
        );
    }
}
