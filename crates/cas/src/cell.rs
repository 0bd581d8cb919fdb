//! The CAS object abstractions the native (thread-based) protocols run on.
//!
//! The paper's CAS *objects* expose a single operation — `CAS(exp, new)`,
//! returning the old content — and in particular no read (Section 3.3).
//! [`CasCell`] is one such object; [`CasEnsemble`] is the indexed
//! collection `O_0 … O_{k-1}` a construction is built from, sharing one
//! fault budget across objects as Definition 3 prescribes.

use ff_spec::{ObjectId, Word};
use std::sync::Arc;

/// A single CAS object: one atomic word supporting only compare-and-swap.
pub trait CasCell: Send + Sync {
    /// `old ← CAS(self, exp, new)`: atomically compare the content to
    /// `exp` and, on a match, replace it with `new`. Returns the previous
    /// content either way.
    ///
    /// Implementations may inject functional faults at the linearization
    /// point; the returned `old` remains the true previous content except
    /// under an invisible fault.
    fn cas(&self, exp: Word, new: Word) -> Word;
}

/// An indexed collection of CAS objects sharing a fault environment.
pub trait CasEnsemble: Send + Sync {
    /// Number of CAS objects.
    fn len(&self) -> usize;

    /// `true` iff the ensemble has no objects.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Execute `old ← CAS(O_obj, exp, new)`.
    fn cas(&self, obj: ObjectId, exp: Word, new: Word) -> Word;

    /// Return to the state a fresh ensemble of the same shape, built
    /// with fault-stream salt `salt`, would start in: every object `⊥`,
    /// every fault budget full. Exclusive access (`&mut`) proves no
    /// operation is in flight. Returns whether it could; after `false`
    /// the ensemble may be half reset and must be discarded. The
    /// default cannot.
    fn renew(&mut self, _salt: u64) -> bool {
        false
    }
}

/// A shared ensemble is an ensemble: protocols own their ensemble by
/// value, so one that must outlive them (or be inspected afterwards) is
/// handed over as an `Arc`.
impl<E: CasEnsemble + ?Sized> CasEnsemble for Arc<E> {
    fn len(&self) -> usize {
        (**self).len()
    }

    fn cas(&self, obj: ObjectId, exp: Word, new: Word) -> Word {
        (**self).cas(obj, exp, new)
    }
}

/// A [`CasCell`] view of one object of a shared ensemble.
#[derive(Clone)]
pub struct EnsembleCell<E: CasEnsemble + ?Sized> {
    ensemble: Arc<E>,
    obj: ObjectId,
}

impl<E: CasEnsemble + ?Sized> EnsembleCell<E> {
    /// Bind object `obj` of `ensemble`.
    pub fn new(ensemble: Arc<E>, obj: ObjectId) -> Self {
        assert!(obj.0 < ensemble.len(), "object {obj} out of range");
        EnsembleCell { ensemble, obj }
    }

    /// The bound object id.
    pub fn object(&self) -> ObjectId {
        self.obj
    }
}

impl<E: CasEnsemble + ?Sized> CasCell for EnsembleCell<E> {
    fn cas(&self, exp: Word, new: Word) -> Word {
        self.ensemble.cas(self.obj, exp, new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomic::AtomicCasArray;
    use ff_spec::BOTTOM;

    #[test]
    fn ensemble_cell_binds_one_object() {
        let ensemble = Arc::new(AtomicCasArray::new(2));
        let c0 = EnsembleCell::new(Arc::clone(&ensemble), ObjectId(0));
        let c1 = EnsembleCell::new(Arc::clone(&ensemble), ObjectId(1));
        assert_eq!(c0.object(), ObjectId(0));
        assert_eq!(c0.cas(BOTTOM, 5), BOTTOM);
        assert_eq!(c1.cas(BOTTOM, 9), BOTTOM, "c1 is a different object");
        assert_eq!(c0.cas(BOTTOM, 7), 5, "c0 kept its content");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_binding_panics() {
        let ensemble = Arc::new(AtomicCasArray::new(1));
        let _ = EnsembleCell::new(ensemble, ObjectId(1));
    }

    #[test]
    fn is_empty_default() {
        let ensemble = AtomicCasArray::new(0);
        assert!(ensemble.is_empty());
        let ensemble = AtomicCasArray::new(1);
        assert!(!ensemble.is_empty());
    }
}
