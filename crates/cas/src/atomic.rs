//! Fault-free CAS objects backed by `std::sync::atomic`.

use crate::cell::{CasCell, CasEnsemble};
use ff_spec::{ObjectId, Word, BOTTOM};
use std::sync::atomic::{AtomicU64, Ordering};

/// One correct CAS object on a real atomic word.
///
/// All operations use sequentially consistent ordering: the paper's model
/// (Section 2) assumes atomic steps over a single shared memory, and the
/// protocols' correctness arguments are interleaving-based, so we buy the
/// strongest hardware ordering rather than re-deriving the proofs under
/// weaker memory models.
#[derive(Debug)]
pub struct AtomicCas {
    word: AtomicU64,
}

impl AtomicCas {
    /// A CAS object initialized with `⊥`.
    pub fn new() -> Self {
        Self::with_initial(BOTTOM)
    }

    /// A CAS object with an explicit initial value.
    pub fn with_initial(value: Word) -> Self {
        AtomicCas {
            word: AtomicU64::new(value),
        }
    }

    /// Unconditional atomic exchange — the memory effect of an overriding
    /// fault (`R = val ∧ old = R'`). Exposed to the fault-injection layer
    /// only; correct protocols never call it.
    pub(crate) fn swap(&self, new: Word) -> Word {
        self.word.swap(new, Ordering::SeqCst)
    }

    /// Back to `⊥`, as if new (exclusive access: nobody is mid-CAS).
    pub(crate) fn reset(&mut self) {
        *self.word.get_mut() = BOTTOM;
    }

    /// Plain load — used by the fault-injection layer to linearize silent
    /// faults (which touch nothing but must still report the old value).
    pub(crate) fn load(&self) -> Word {
        self.word.load(Ordering::SeqCst)
    }
}

impl Default for AtomicCas {
    fn default() -> Self {
        Self::new()
    }
}

impl CasCell for AtomicCas {
    fn cas(&self, exp: Word, new: Word) -> Word {
        match self
            .word
            .compare_exchange(exp, new, Ordering::SeqCst, Ordering::SeqCst)
        {
            Ok(old) => old,
            Err(old) => old,
        }
    }
}

impl crate::raw::RawCas for AtomicCas {
    fn load(&self) -> Word {
        AtomicCas::load(self)
    }

    fn swap(&self, new: Word) -> Word {
        AtomicCas::swap(self, new)
    }
}

/// A fault-free ensemble of CAS objects, all initialized with `⊥`.
#[derive(Debug)]
pub struct AtomicCasArray {
    cells: Vec<AtomicCas>,
}

impl AtomicCasArray {
    /// `count` correct CAS objects.
    pub fn new(count: usize) -> Self {
        AtomicCasArray {
            cells: (0..count).map(|_| AtomicCas::new()).collect(),
        }
    }
}

impl CasEnsemble for AtomicCasArray {
    fn len(&self) -> usize {
        self.cells.len()
    }

    fn cas(&self, obj: ObjectId, exp: Word, new: Word) -> Word {
        self.cells[obj.0].cas(exp, new)
    }

    /// Every word back to `⊥`; there is no fault stream to reseed.
    fn renew(&mut self, _salt: u64) -> bool {
        self.cells.iter_mut().for_each(AtomicCas::reset);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn cas_succeeds_on_match() {
        let c = AtomicCas::new();
        assert_eq!(c.cas(BOTTOM, 5), BOTTOM);
        assert_eq!(c.cas(5, 9), 5);
    }

    #[test]
    fn cas_fails_on_mismatch() {
        let c = AtomicCas::new();
        c.cas(BOTTOM, 5);
        assert_eq!(c.cas(BOTTOM, 9), 5);
        assert_eq!(c.cas(5, 7), 5, "content was untouched by the failure");
    }

    #[test]
    fn with_initial_value() {
        let c = AtomicCas::with_initial(42);
        assert_eq!(c.cas(42, 1), 42);
    }

    #[test]
    fn swap_is_unconditional() {
        let c = AtomicCas::new();
        c.cas(BOTTOM, 5);
        assert_eq!(c.swap(9), 5);
        assert_eq!(c.load(), 9);
    }

    #[test]
    fn exactly_one_concurrent_winner() {
        // The Herlihy argument in hardware: of N racing CAS(⊥, i), exactly
        // one succeeds.
        let cell = Arc::new(AtomicCas::new());
        let n = 8;
        let winners: Vec<bool> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|i| {
                    let cell = Arc::clone(&cell);
                    s.spawn(move || cell.cas(BOTTOM, i as Word) == BOTTOM)
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(winners.iter().filter(|&&w| w).count(), 1);
    }

    #[test]
    fn renewed_array_is_all_bottom() {
        let mut a = AtomicCasArray::new(2);
        a.cas(ObjectId(0), BOTTOM, 1);
        a.cas(ObjectId(1), BOTTOM, 2);
        assert!(a.renew(9));
        assert_eq!(a.cas(ObjectId(0), BOTTOM, 3), BOTTOM);
        assert_eq!(a.cas(ObjectId(1), BOTTOM, 4), BOTTOM);
    }

    #[test]
    fn array_indexes_independent_cells() {
        let a = AtomicCasArray::new(3);
        assert_eq!(a.len(), 3);
        assert_eq!(a.cas(ObjectId(0), BOTTOM, 1), BOTTOM);
        assert_eq!(a.cas(ObjectId(1), BOTTOM, 2), BOTTOM);
        assert_eq!(a.cas(ObjectId(0), BOTTOM, 9), 1);
    }
}
