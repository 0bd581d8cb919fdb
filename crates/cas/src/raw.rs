//! The primitive surface the fault-injection layer needs from an
//! underlying object: CAS plus the `load`/`swap` the fault emulations
//! use at the linearization point.
//!
//! [`FaultyCasArray`](crate::FaultyCasArray) originally hardwired its
//! inner objects to [`AtomicCas`](crate::AtomicCas). Making the inner surface a trait lets
//! the same injection machinery — policies, `(f, t)` budgets,
//! Definition-1 refunds — wrap *any* CAS implementation, in particular
//! the KW object `ff_consensus::KwCas` built from consensus-number-1
//! primitives, so the paper's fault-tolerant constructions can be
//! composed over weaker substrates (hierarchy corollary, §5.2).
//!
//! Correct protocols never see this trait: they speak
//! [`CasCell`]/[`CasEnsemble`](crate::CasEnsemble), whose only operation
//! is `cas`. `load` and `swap` exist solely so the injector can realize
//! a fault's postcondition (a silent fault reports the old value without
//! writing; an overriding fault writes unconditionally).

use crate::cell::CasCell;
use ff_spec::Word;

/// One CAS object plus the two auxiliary effects fault injection needs.
///
/// `swap` need not be a hardware primitive of the implementation: an
/// object built from weaker primitives may emulate it with a bounded
/// retry loop (lock-free is enough — the injector is the only caller,
/// and a fault that takes a few internal steps to land still realizes
/// the same postcondition atomically at its final step).
pub trait RawCas: CasCell {
    /// Plain load of the current content (used to linearize silent
    /// faults, which touch nothing but must still report the old value).
    fn load(&self) -> Word;

    /// Unconditional exchange — the memory effect of an overriding
    /// fault (`R = val ∧ old = R'`).
    fn swap(&self, new: Word) -> Word;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomic::AtomicCas;
    use ff_spec::BOTTOM;
    use std::sync::Arc;

    #[test]
    fn atomic_cas_implements_raw_surface() {
        let cell: Arc<dyn RawCas> = Arc::new(AtomicCas::new());
        assert_eq!(cell.load(), BOTTOM);
        assert_eq!(cell.cas(BOTTOM, 5), BOTTOM);
        assert_eq!(cell.swap(9), 5);
        assert_eq!(cell.load(), 9);
    }
}
