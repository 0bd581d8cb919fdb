//! The `(f, t)` fault budget (Definition 3), shared by the native
//! injector (`ff-cas`) and the simulator (`ff-sim`).
//!
//! The faulty set (at most `f` objects) is fixed when the budget is
//! built — matching Definition 2, under which an object is "faulty" for a
//! whole execution. Each faulty object carries an atomic countdown of `t`
//! remaining faults (or an unbounded marker). Reservation is optimistic:
//! an injector *reserves* a fault before the operation and *refunds* it if
//! the operation turned out indistinguishable from a correct one (e.g. an
//! overriding write whose comparison matched anyway). The budget is thus
//! never exceeded, at the cost of occasionally under-faulting during a
//! reservation window — the conservative direction for validating the
//! paper's tolerance claims. The simulator, which knows before the step
//! whether a decision is observable, reserves only what it commits.

use crate::history::ObjectId;
use crate::tolerance::Bound;
use std::sync::atomic::{AtomicU64, Ordering};

/// Sentinel stored in the countdown for unbounded budgets.
const UNBOUNDED: u64 = u64::MAX;

/// Ensembles of at most this many objects keep their flags and
/// countdowns inside the [`NativeBudget`] itself: the constructions of
/// Section 4 use `f + 1` objects for small `f`, and one budget is built
/// per consensus cell (and per explored state).
pub const INLINE_OBJECTS: usize = 4;

/// One object's share of the budget.
#[derive(Debug, Default)]
struct ObjectBudget {
    /// Is the object in the faulty set at all?
    faulty: bool,
    /// Faults it may still commit ([`UNBOUNDED`] = no limit; objects
    /// outside the faulty set hold 0).
    remaining: AtomicU64,
}

impl Clone for ObjectBudget {
    fn clone(&self) -> Self {
        ObjectBudget {
            faulty: self.faulty,
            remaining: AtomicU64::new(self.remaining.load(Ordering::Acquire)),
        }
    }
}

/// Where the per-object budgets live.
#[derive(Clone, Debug)]
enum Objects {
    /// The first `len` entries are in use.
    Inline {
        len: usize,
        objects: [ObjectBudget; INLINE_OBJECTS],
    },
    Heap(Vec<ObjectBudget>),
}

/// Thread-safe per-object fault countdowns: the one `(f, t)` budget.
///
/// A clone copies the countdowns as they stand, which is how the
/// explorer forks an execution state.
#[derive(Clone, Debug)]
pub struct NativeBudget {
    objects: Objects,
    /// What each faulty object's countdown starts at.
    countdown: u64,
}

impl NativeBudget {
    /// Budget over `num_objects` objects, where `faulty_set` may fault at
    /// most `per_object` times each.
    pub fn new(
        num_objects: usize,
        faulty_set: impl IntoIterator<Item = ObjectId>,
        per_object: Bound,
    ) -> Self {
        let countdown = match per_object {
            Bound::Finite(t) => {
                assert!(t < UNBOUNDED, "finite budget too large");
                t
            }
            Bound::Unbounded => UNBOUNDED,
        };
        let objects = if num_objects <= INLINE_OBJECTS {
            Objects::Inline {
                len: num_objects,
                objects: Default::default(),
            }
        } else {
            Objects::Heap((0..num_objects).map(|_| ObjectBudget::default()).collect())
        };
        let mut budget = NativeBudget { objects, countdown };
        let in_use = budget.objects_mut();
        for obj in faulty_set {
            assert!(
                obj.0 < num_objects,
                "faulty set names object {obj} but the ensemble has {num_objects} objects"
            );
            in_use[obj.0] = ObjectBudget {
                faulty: true,
                remaining: AtomicU64::new(countdown),
            };
        }
        budget
    }

    /// Restore every faulty object's countdown to its initial `t`, as
    /// if the budget were new. Exclusive access means no reservation is
    /// in flight.
    pub fn reset(&mut self) {
        let countdown = self.countdown;
        for object in self.objects_mut().iter_mut().filter(|o| o.faulty) {
            *object.remaining.get_mut() = countdown;
        }
    }

    /// The per-object budgets in use.
    #[inline]
    fn objects(&self) -> &[ObjectBudget] {
        match &self.objects {
            Objects::Inline { len, objects } => &objects[..*len],
            Objects::Heap(objects) => objects,
        }
    }

    fn objects_mut(&mut self) -> &mut [ObjectBudget] {
        match &mut self.objects {
            Objects::Inline { len, objects } => &mut objects[..*len],
            Objects::Heap(objects) => objects,
        }
    }

    #[inline]
    fn object(&self, obj: ObjectId) -> &ObjectBudget {
        &self.objects()[obj.0]
    }

    /// Is `obj` in the faulty set at all?
    #[inline]
    pub fn is_faulty_object(&self, obj: ObjectId) -> bool {
        self.object(obj).faulty
    }

    /// May `obj` still commit a fault (it is in the faulty set and its
    /// countdown is not spent)?
    #[inline]
    pub fn can_fault(&self, obj: ObjectId) -> bool {
        self.object(obj).remaining.load(Ordering::Acquire) != 0
    }

    /// Try to reserve one fault on `obj`. Returns `true` on success; the
    /// caller must either commit the fault or [`NativeBudget::refund`] it.
    #[inline]
    pub fn try_reserve(&self, obj: ObjectId) -> bool {
        if !self.is_faulty_object(obj) {
            return false;
        }
        self.object(obj)
            .remaining
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |cur| match cur {
                0 => None,
                UNBOUNDED => Some(UNBOUNDED),
                k => Some(k - 1),
            })
            .is_ok()
    }

    /// Return a reserved-but-unused fault to the pool.
    #[inline]
    pub fn refund(&self, obj: ObjectId) {
        let cell = &self.object(obj).remaining;
        let _ = cell.fetch_update(Ordering::AcqRel, Ordering::Acquire, |cur| match cur {
            UNBOUNDED => Some(UNBOUNDED),
            k => Some(k + 1),
        });
    }

    /// Remaining faults on `obj` (`None` = unbounded).
    pub fn remaining(&self, obj: ObjectId) -> Option<u64> {
        match self.object(obj).remaining.load(Ordering::Acquire) {
            UNBOUNDED => None,
            k => Some(k),
        }
    }

    /// Every object's countdown, in object order: an exact encoding for
    /// the explorer's memoization keys (`u64::MAX` = unbounded, 0 = spent
    /// or not faulty).
    pub fn snapshot(&self) -> Vec<u64> {
        self.objects()
            .iter()
            .map(|o| o.remaining.load(Ordering::Acquire))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn reserve_until_exhausted() {
        let b = NativeBudget::new(2, [ObjectId(0)], Bound::Finite(2));
        assert!(b.is_faulty_object(ObjectId(0)));
        assert!(!b.is_faulty_object(ObjectId(1)));
        assert!(b.try_reserve(ObjectId(0)));
        assert!(b.try_reserve(ObjectId(0)));
        assert!(!b.try_reserve(ObjectId(0)));
        assert_eq!(b.remaining(ObjectId(0)), Some(0));
        assert!(
            !b.try_reserve(ObjectId(1)),
            "non-faulty object never faults"
        );
    }

    #[test]
    fn refund_restores_budget() {
        let b = NativeBudget::new(1, [ObjectId(0)], Bound::Finite(1));
        assert!(b.try_reserve(ObjectId(0)));
        assert!(!b.try_reserve(ObjectId(0)));
        b.refund(ObjectId(0));
        assert!(b.try_reserve(ObjectId(0)));
    }

    #[test]
    fn unbounded_budget() {
        let b = NativeBudget::new(1, [ObjectId(0)], Bound::Unbounded);
        for _ in 0..1000 {
            assert!(b.try_reserve(ObjectId(0)));
        }
        assert_eq!(b.remaining(ObjectId(0)), None);
        b.refund(ObjectId(0));
        assert_eq!(b.remaining(ObjectId(0)), None, "refund keeps ∞ at ∞");
    }

    #[test]
    fn inline_and_heap_budgets_behave_alike() {
        // 4 objects keep their countdowns inline, 5 spill to the heap;
        // the accounting must not care.
        for n in [INLINE_OBJECTS, INLINE_OBJECTS + 1] {
            let last = ObjectId(n - 1);
            let b = NativeBudget::new(n, [ObjectId(0), last], Bound::Finite(1));
            assert!(matches!(
                (&b.objects, n <= INLINE_OBJECTS),
                (Objects::Inline { .. }, true) | (Objects::Heap(_), false)
            ));
            assert!(b.is_faulty_object(last));
            assert!(!b.is_faulty_object(ObjectId(1)));
            assert!(b.try_reserve(last));
            assert!(!b.try_reserve(last), "n = {n}: t = 1 grants one fault");
            b.refund(last);
            assert_eq!(b.remaining(last), Some(1));
            assert_eq!(b.remaining(ObjectId(0)), Some(1), "objects are independent");
            assert!(!b.try_reserve(ObjectId(1)));
        }
    }

    #[test]
    fn reset_restores_every_countdown() {
        for n in [2, INLINE_OBJECTS + 1] {
            let mut b = NativeBudget::new(n, [ObjectId(0)], Bound::Finite(2));
            assert!(b.try_reserve(ObjectId(0)));
            assert!(b.try_reserve(ObjectId(0)));
            b.reset();
            assert_eq!(b.remaining(ObjectId(0)), Some(2), "n = {n}");
            assert!(!b.is_faulty_object(ObjectId(1)), "the faulty set stays");
        }
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn inline_budget_rejects_objects_past_its_length() {
        // The inline arrays are longer than the ensemble; the length
        // still bounds every access.
        NativeBudget::new(2, [ObjectId(0)], Bound::Finite(1)).is_faulty_object(ObjectId(2));
    }

    #[test]
    #[should_panic(expected = "ensemble has")]
    fn out_of_range_faulty_set_panics() {
        NativeBudget::new(1, [ObjectId(1)], Bound::Finite(1));
    }

    #[test]
    fn a_clone_forks_the_countdowns() {
        for n in [2, INLINE_OBJECTS + 1] {
            let b = NativeBudget::new(n, [ObjectId(0)], Bound::Finite(2));
            assert!(b.try_reserve(ObjectId(0)));
            let fork = b.clone();
            assert!(fork.try_reserve(ObjectId(0)));
            assert!(!fork.can_fault(ObjectId(0)), "n = {n}");
            assert!(b.can_fault(ObjectId(0)), "the original keeps its count");
            assert_eq!(b.snapshot()[..2], [1, 0]);
            assert_eq!(fork.snapshot()[..2], [0, 0]);
        }
        let unbounded = NativeBudget::new(1, [ObjectId(0)], Bound::Unbounded);
        assert_eq!(unbounded.snapshot(), [u64::MAX]);
    }

    #[test]
    fn concurrent_reservations_never_exceed_t() {
        let t = 64u64;
        let b = Arc::new(NativeBudget::new(1, [ObjectId(0)], Bound::Finite(t)));
        let granted: u64 = std::thread::scope(|s| {
            (0..8)
                .map(|_| {
                    let b = Arc::clone(&b);
                    s.spawn(move || {
                        let mut got = 0u64;
                        for _ in 0..100 {
                            if b.try_reserve(ObjectId(0)) {
                                got += 1;
                            }
                        }
                        got
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        assert_eq!(granted, t, "exactly t reservations must be granted");
    }
}
