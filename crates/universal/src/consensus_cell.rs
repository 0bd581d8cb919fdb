//! Consensus-cell factories: what each log slot agrees with.
//!
//! The universal construction consumes one fresh one-shot consensus
//! object per log slot, from a [`CellFactory`] (which may renew a
//! truncated slot's cell instead, [`CellFactory::make_from`]).
//! [`Cells`] is the family this crate ships: every cell is the
//! construction [`ff_consensus::recommend`] picks for the environment,
//! built by [`ff_consensus::build`] over fresh CAS objects whose faulty
//! ones override with a fixed probability. The store's `ShardCells` is
//! the other factory, the same selector over its substrate registry.

use ff_cas::{AtomicCasArray, FaultyCasArray, ProbabilisticPolicy};
use ff_consensus::{build, recommend, Consensus, Recommendation};
use ff_spec::{Bound, FaultKind};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Produces a fresh consensus cell per log slot.
pub trait CellFactory: Send + Sync {
    /// Make the next cell.
    fn make(&self) -> Arc<dyn Consensus>;

    /// Make the next cell, renewing `spare` — a cell this factory made
    /// whose decision nobody needs any more (the log hands back the
    /// cells truncation frees) — where it can. The result must decide
    /// exactly as [`Self::make`]'s would. The default drops `spare`.
    fn make_from(&self, _spare: Arc<dyn Consensus>) -> Arc<dyn Consensus> {
        self.make()
    }

    /// The substrate name (the single naming source for reports).
    fn name(&self) -> &'static str;
}

/// Cells for one overriding-fault environment: Section 4's construction
/// for it, over fresh objects per cell. A log cell has as many deciders
/// as the log has readers, so the selector is asked for an unbounded
/// `n` — Herlihy with no faulty objects, Figure 2 otherwise.
#[derive(Debug)]
pub struct Cells {
    construction: Recommendation,
    /// Objects per cell that fault (the first ones of the ensemble).
    faulty: usize,
    fault_rate: f64,
    seed: AtomicU64,
    label: &'static str,
}

impl Cells {
    /// Cells on reliable CAS objects (Herlihy's protocol) — the
    /// fault-free baseline.
    pub fn reliable() -> Self {
        Cells::select(0, false, 0.0, 0, "reliable")
    }

    /// Cells tolerating `f ≥ 1` unboundedly-faulty objects, faulting with
    /// `fault_rate` per opportunity — the cascade over `f + 1` objects,
    /// the paper's construction put to work (experiment E10's positive
    /// arm).
    pub fn robust(f: usize, fault_rate: f64, seed0: u64) -> Self {
        assert!(f >= 1);
        Cells::select(f, false, fault_rate, seed0, "robust-cascade")
    }

    /// Herlihy's protocol — the pick for `f = 0` — run straight over one
    /// object that overrides with probability `fault_rate` per CAS: no
    /// fault tolerance, so replicas built on these cells diverge
    /// (experiment E10's negative arm). Seeds advance deterministically
    /// from `seed0`.
    pub fn naive(fault_rate: f64, seed0: u64) -> Self {
        Cells::select(0, true, fault_rate, seed0, "naive-faulty")
    }

    /// `witness`: fault every object, whatever the construction assumed.
    fn select(f: usize, witness: bool, fault_rate: f64, seed0: u64, label: &'static str) -> Self {
        let construction = recommend(
            FaultKind::Overriding,
            f as u64,
            Bound::Unbounded,
            Bound::Unbounded,
        )
        .expect("every overriding environment has a construction");
        Cells {
            faulty: if witness {
                construction.objects
            } else {
                construction.faulty_objects()
            },
            construction,
            fault_rate,
            seed: AtomicU64::new(seed0),
            label,
        }
    }
}

impl CellFactory for Cells {
    fn make(&self) -> Arc<dyn Consensus> {
        let objects = self.construction.objects;
        if self.faulty == 0 {
            return build(self.construction, AtomicCasArray::new(objects));
        }
        let seed = self.seed.fetch_add(1, Ordering::Relaxed);
        let ensemble = FaultyCasArray::builder(objects)
            .faulty_first(self.faulty)
            .per_object(Bound::Unbounded)
            .policy(ProbabilisticPolicy::new(self.fault_rate, seed))
            .record_history(false)
            .build();
        build(self.construction, ensemble)
    }

    fn name(&self) -> &'static str {
        self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_spec::Input;

    #[test]
    fn reliable_cells_decide() {
        let cell = Cells::reliable().make();
        assert_eq!(cell.decide(Input(5)), Input(5));
        assert_eq!(cell.decide(Input(9)), Input(5));
    }

    #[test]
    fn robust_cells_decide_consistently_under_faults() {
        let factory = Cells::robust(2, 0.8, 42);
        for _ in 0..50 {
            let cell = factory.make();
            assert_eq!(cell.name(), "fig2-cascade");
            let a = cell.decide(Input(1));
            let b = cell.decide(Input(2));
            let c = cell.decide(Input(3));
            assert_eq!(a, b);
            assert_eq!(b, c);
        }
    }

    #[test]
    fn naive_cells_can_disagree() {
        // With a high fault rate, sequential deciders on a naive cell
        // eventually disagree (the cell's object overrides).
        let factory = Cells::naive(1.0, 7);
        let mut disagreements = 0;
        for _ in 0..50 {
            let cell = factory.make();
            let a = cell.decide(Input(1));
            let b = cell.decide(Input(2)); // overriding write lands 2
            let c = cell.decide(Input(3)); // sees 2 ≠ a
            if a != c || a != b {
                disagreements += 1;
            }
        }
        assert!(disagreements > 0, "naive cells never disagreed");
    }

    #[test]
    fn factories_have_labels() {
        assert_eq!(Cells::reliable().name(), "reliable");
        assert_eq!(Cells::naive(0.5, 0).name(), "naive-faulty");
        assert_eq!(Cells::robust(1, 0.5, 0).name(), "robust-cascade");
    }
}
