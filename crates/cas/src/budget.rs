//! Thread-safe `(f, t)` fault accounting for native executions.
//!
//! The faulty set (at most `f` objects) is fixed when the ensemble is
//! built — matching Definition 2, under which an object is "faulty" for a
//! whole execution. Each faulty object carries an atomic countdown of `t`
//! remaining faults (or an unbounded marker). Reservation is optimistic:
//! an injector *reserves* a fault before the operation and *refunds* it if
//! the operation turned out indistinguishable from a correct one (e.g. an
//! overriding write whose comparison matched anyway). The budget is thus
//! never exceeded, at the cost of occasionally under-faulting during a
//! reservation window — the conservative direction for validating the
//! paper's tolerance claims.

use ff_spec::{Bound, ObjectId};
use std::sync::atomic::{AtomicU64, Ordering};

/// Sentinel stored in the countdown for unbounded budgets.
const UNBOUNDED: u64 = u64::MAX;

/// Ensembles of at most this many objects keep their flags and
/// countdowns inside the [`NativeBudget`] itself: the constructions of
/// Section 4 use `f + 1` objects for small `f`, and one budget is built
/// per consensus cell.
pub(crate) const INLINE_OBJECTS: usize = 4;

/// One object's share of the budget.
#[derive(Debug, Default)]
struct ObjectBudget {
    /// Is the object in the faulty set at all?
    faulty: bool,
    /// Faults it may still commit ([`UNBOUNDED`] = no limit).
    remaining: AtomicU64,
}

/// Where the per-object budgets live.
#[derive(Debug)]
enum Objects {
    /// The first `len` entries are in use.
    Inline {
        len: usize,
        objects: [ObjectBudget; INLINE_OBJECTS],
    },
    Heap(Vec<ObjectBudget>),
}

/// Thread-safe per-object fault countdowns.
#[derive(Debug)]
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
        let mut objects = if num_objects <= INLINE_OBJECTS {
            Objects::Inline {
                len: num_objects,
                objects: Default::default(),
            }
        } else {
            Objects::Heap((0..num_objects).map(|_| ObjectBudget::default()).collect())
        };
        let in_use = match &mut objects {
            Objects::Inline { len, objects } => &mut objects[..*len],
            Objects::Heap(objects) => objects,
        };
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
        NativeBudget { objects, countdown }
    }

    /// Restore every faulty object's countdown to its initial `t`, as
    /// if the budget were new. Exclusive access means no reservation is
    /// in flight.
    pub(crate) fn reset(&mut self) {
        let in_use = match &mut self.objects {
            Objects::Inline { len, objects } => &mut objects[..*len],
            Objects::Heap(objects) => objects,
        };
        for object in in_use.iter_mut().filter(|o| o.faulty) {
            *object.remaining.get_mut() = self.countdown;
        }
    }

    fn object(&self, obj: ObjectId) -> &ObjectBudget {
        match &self.objects {
            Objects::Inline { len, objects } => &objects[..*len][obj.0],
            Objects::Heap(objects) => &objects[obj.0],
        }
    }

    /// Is `obj` in the faulty set at all?
    pub fn is_faulty_object(&self, obj: ObjectId) -> bool {
        self.object(obj).faulty
    }

    /// Try to reserve one fault on `obj`. Returns `true` on success; the
    /// caller must either commit the fault or [`NativeBudget::refund`] it.
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
