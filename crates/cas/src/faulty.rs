//! CAS ensembles with functional-fault injection at the linearization
//! point — the "unreliable hardware" the native protocols run on.
//!
//! Each fault kind of Sections 3.3–3.4 is emulated by a different atomic
//! primitive at the linearization point:
//!
//! * **overriding** — an unconditional `swap`: exactly the postcondition
//!   `R = val ∧ old = R'`;
//! * **silent** — a plain load (nothing written, old value reported);
//! * **invisible** — a correct compare-exchange whose *reported* old value
//!   is corrupted (we report `exp`, pretending the comparison matched);
//! * **arbitrary** — a `swap` of a pseudo-random junk word;
//! * **nonresponsive** — the calling thread parks forever.
//!
//! Whether an invocation *attempts* a fault is the [`FaultPolicy`]'s call;
//! whether the attempt *counts* is decided after the fact by classifying
//! the observable record (Definition 1): an attempt indistinguishable from
//! a correct execution — e.g. an overriding write whose comparison matched
//! anyway — is refunded to the budget.

use crate::atomic::AtomicCas;
use crate::budget::{NativeBudget, INLINE_OBJECTS};
use crate::cell::CasEnsemble;
use crate::policy::{splitmix64, FaultPolicy, NeverPolicy};
use crate::raw::RawCas;
use crate::stats::EnsembleStats;
use ff_spec::{
    classify_cas, Bound, CasClassification, CasRecord, FaultKind, History, ObjectId, OpEvent,
    ProcessId, Word,
};
use parking_lot::Mutex;
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    static THREAD_PID: Cell<ProcessId> = const { Cell::new(ProcessId(usize::MAX)) };
}

/// Tag the current thread with the process id recorded in ensemble
/// histories. Runners call this once per worker thread; untagged threads
/// record as `ProcessId(usize::MAX)`.
pub fn set_thread_process_id(pid: ProcessId) {
    THREAD_PID.with(|c| c.set(pid));
}

/// The process id the current thread records operations under.
pub fn thread_process_id() -> ProcessId {
    THREAD_PID.with(|c| c.get())
}

/// The inner objects of an ensemble. One ensemble is built per
/// consensus cell, so the common case — a handful of fresh native words
/// — lives inside the ensemble itself instead of behind one heap
/// allocation per object.
enum Cells {
    /// Up to [`INLINE_OBJECTS`] fresh [`AtomicCas`] words (`len` in use).
    Inline {
        len: usize,
        words: [AtomicCas; INLINE_OBJECTS],
    },
    /// Larger ensembles, and caller-supplied inner objects
    /// ([`FaultyCasArrayBuilder::over_cells`]).
    Heap(Vec<Arc<dyn RawCas>>),
}

impl Cells {
    fn fresh(count: usize) -> Self {
        if count <= INLINE_OBJECTS {
            Cells::Inline {
                len: count,
                words: std::array::from_fn(|_| AtomicCas::new()),
            }
        } else {
            Cells::Heap(
                (0..count)
                    .map(|_| Arc::new(AtomicCas::new()) as Arc<dyn RawCas>)
                    .collect(),
            )
        }
    }

    fn len(&self) -> usize {
        match self {
            Cells::Inline { len, .. } => *len,
            Cells::Heap(cells) => cells.len(),
        }
    }

    fn get(&self, obj: ObjectId) -> &dyn RawCas {
        match self {
            Cells::Inline { len, words } => &words[..*len][obj.0],
            Cells::Heap(cells) => &*cells[obj.0],
        }
    }
}

/// A CAS ensemble whose designated faulty objects inject functional
/// faults, within an `(f, t)` budget.
///
/// The inner objects default to [`AtomicCas`] words, but any
/// [`RawCas`] implementation can be wrapped instead
/// ([`FaultyCasArrayBuilder::over_cells`]) — that is how the robust
/// constructions are composed over the weaker-primitive substrates.
///
/// The policy `P` is held by value, which together with the inline
/// words and budget makes a small ensemble one flat value; pass a
/// `Box<dyn FaultPolicy>` where the policy is only known at run time.
pub struct FaultyCasArray<P> {
    cells: Cells,
    kind: FaultKind,
    budget: NativeBudget,
    policy: P,
    stats: Arc<EnsembleStats>,
    history: Option<Mutex<History>>,
}

impl FaultyCasArray<NeverPolicy> {
    /// Start building an ensemble of `count` objects (all `⊥`).
    pub fn builder(count: usize) -> FaultyCasArrayBuilder<NeverPolicy> {
        FaultyCasArrayBuilder::new(count)
    }
}

impl<P> FaultyCasArray<P> {
    /// The fault kind this ensemble's faulty objects exhibit.
    pub fn kind(&self) -> FaultKind {
        self.kind
    }

    /// Per-object operation/fault counters.
    pub fn stats(&self) -> &EnsembleStats {
        &self.stats
    }

    /// The shared stats handle (the same counters as [`Self::stats`],
    /// clonable so callers can keep reading after the ensemble is gone).
    pub fn stats_handle(&self) -> Arc<EnsembleStats> {
        Arc::clone(&self.stats)
    }

    /// Remaining fault budget on `obj` (`None` = unbounded).
    pub fn remaining_budget(&self, obj: ObjectId) -> Option<u64> {
        self.budget.remaining(obj)
    }

    /// A copy of the recorded operation history (empty when recording is
    /// disabled). Event order is the order recording locks were acquired,
    /// which may differ slightly from linearization order under
    /// contention; per-event records are exact, so fault accounting —
    /// which is order-independent — is unaffected.
    pub fn history(&self) -> History {
        self.history
            .as_ref()
            .map(|h| h.lock().clone())
            .unwrap_or_default()
    }

    fn record_event(&self, obj: ObjectId, record: CasRecord, injected: bool) {
        if let Some(h) = &self.history {
            h.lock().push(OpEvent {
                process: thread_process_id(),
                object: obj,
                record,
                injected_fault: injected,
            });
        }
    }
}

impl<P: FaultPolicy> CasEnsemble for FaultyCasArray<P> {
    fn len(&self) -> usize {
        self.cells.len()
    }

    fn cas(&self, obj: ObjectId, exp: Word, new: Word) -> Word {
        let cell = self.cells.get(obj);
        let op_index = self.stats.record_op(obj);

        let attempt = self.budget.is_faulty_object(obj)
            && self.policy.should_fault(obj, op_index)
            && self.budget.try_reserve(obj);

        let record = if attempt {
            self.stats.record_attempt(obj);
            match self.kind {
                FaultKind::Overriding => {
                    let old = cell.swap(new);
                    CasRecord {
                        pre: old,
                        exp,
                        new,
                        post: new,
                        returned: old,
                    }
                }
                FaultKind::Silent => {
                    let pre = cell.load();
                    CasRecord {
                        pre,
                        exp,
                        new,
                        post: pre,
                        returned: pre,
                    }
                }
                FaultKind::Invisible => {
                    let old = cell.cas(exp, new);
                    let post = if old == exp { new } else { old };
                    CasRecord {
                        pre: old,
                        exp,
                        new,
                        post,
                        // Pretend the comparison matched: report `exp`.
                        returned: exp,
                    }
                }
                FaultKind::Arbitrary => {
                    let junk = splitmix64(0xFEED_FACE ^ splitmix64(obj.0 as u64) ^ op_index);
                    let old = cell.swap(junk);
                    CasRecord {
                        pre: old,
                        exp,
                        new,
                        post: junk,
                        returned: old,
                    }
                }
                FaultKind::Nonresponsive => {
                    // The operation never responds (Section 3.4). The
                    // calling thread is gone; harnesses must collect
                    // results with timeouts and leave the thread detached.
                    loop {
                        std::thread::park();
                    }
                }
            }
        } else {
            let old = cell.cas(exp, new);
            let post = if old == exp { new } else { old };
            CasRecord {
                pre: old,
                exp,
                new,
                post,
                returned: old,
            }
        };

        if attempt {
            if matches!(classify_cas(&record), CasClassification::Correct) {
                // Indistinguishable from a correct execution: not a fault
                // per Definition 1 — refund the budget.
                self.budget.refund(obj);
                self.stats.unrecord_attempt(obj);
            } else {
                self.stats.record_observable(obj);
            }
        }
        self.record_event(obj, record, attempt);
        record.returned
    }
}

/// Which objects of an ensemble under construction may fault.
enum FaultySet {
    /// Objects `0 … f-1`.
    First(usize),
    /// An explicit set.
    Listed(Vec<ObjectId>),
}

/// Builder for [`FaultyCasArray`].
pub struct FaultyCasArrayBuilder<P> {
    count: usize,
    kind: FaultKind,
    faulty_set: FaultySet,
    per_object: Bound,
    policy: P,
    record_history: bool,
    shared_stats: Option<Arc<EnsembleStats>>,
    inner_cells: Option<Vec<Arc<dyn RawCas>>>,
}

impl FaultyCasArrayBuilder<NeverPolicy> {
    /// Defaults: no faulty objects, overriding kind, never-fault policy,
    /// history recording on.
    pub fn new(count: usize) -> Self {
        FaultyCasArrayBuilder {
            count,
            kind: FaultKind::Overriding,
            faulty_set: FaultySet::First(0),
            per_object: Bound::Finite(0),
            policy: NeverPolicy,
            record_history: true,
            shared_stats: None,
            inner_cells: None,
        }
    }
}

impl<P: FaultPolicy> FaultyCasArrayBuilder<P> {
    /// Set the fault kind.
    pub fn kind(mut self, kind: FaultKind) -> Self {
        self.kind = kind;
        self
    }

    /// Designate an explicit faulty set.
    pub fn faulty_objects(mut self, objs: impl IntoIterator<Item = ObjectId>) -> Self {
        self.faulty_set = FaultySet::Listed(objs.into_iter().collect());
        self
    }

    /// Designate the first `f` objects as the faulty set.
    pub fn faulty_first(mut self, f: usize) -> Self {
        self.faulty_set = FaultySet::First(f);
        self
    }

    /// Per-object fault limit `t`.
    pub fn per_object(mut self, t: Bound) -> Self {
        self.per_object = t;
        self
    }

    /// The fault policy.
    pub fn policy<Q: FaultPolicy>(self, policy: Q) -> FaultyCasArrayBuilder<Q> {
        FaultyCasArrayBuilder {
            count: self.count,
            kind: self.kind,
            faulty_set: self.faulty_set,
            per_object: self.per_object,
            policy,
            record_history: self.record_history,
            shared_stats: self.shared_stats,
            inner_cells: self.inner_cells,
        }
    }

    /// Enable/disable history recording (disable for throughput benches).
    pub fn record_history(mut self, on: bool) -> Self {
        self.record_history = on;
        self
    }

    /// Aggregate operation/fault counters into an externally owned
    /// [`EnsembleStats`] instead of a private one. Many ensembles may
    /// share the same instance (e.g. every consensus cell of one store
    /// shard), surfacing *live* aggregate counts without keeping the
    /// ensembles themselves alive.
    ///
    /// Caveat: the per-object operation index that fault policies see
    /// then runs across every ensemble sharing the stats, not per
    /// ensemble — fine for stateless policies such as
    /// [`ProbabilisticPolicy`](crate::ProbabilisticPolicy), but
    /// [`FirstKPolicy`](crate::FirstKPolicy)-style positional policies
    /// will no longer restart at each ensemble.
    pub fn shared_stats(mut self, stats: Arc<EnsembleStats>) -> Self {
        assert!(
            stats.num_objects() >= self.count,
            "shared stats cover {} objects but the ensemble has {}",
            stats.num_objects(),
            self.count
        );
        self.shared_stats = Some(stats);
        self
    }

    /// Inject faults over these inner objects instead of fresh
    /// [`AtomicCas`] words — the seam that lets the robust
    /// constructions compose over any consensus substrate. The vector
    /// must hold exactly `count` cells.
    ///
    /// Not every fault kind is realizable over every inner object: an
    /// *arbitrary* fault swaps a full-width junk word in, which an
    /// inner object with a narrower value domain (e.g.
    /// [`KwCas`](crate::KwCas), whose packed encoding holds inputs and
    /// `⊥` only) will refuse by panicking. Substrates declare which
    /// kinds they tolerate; configuration layers enforce it.
    pub fn over_cells(mut self, cells: Vec<Arc<dyn RawCas>>) -> Self {
        assert_eq!(
            cells.len(),
            self.count,
            "inner cells ({}) must match the ensemble size ({})",
            cells.len(),
            self.count
        );
        self.inner_cells = Some(cells);
        self
    }

    /// Build the ensemble.
    pub fn build(self) -> FaultyCasArray<P> {
        let budget = match self.faulty_set {
            FaultySet::First(f) => {
                NativeBudget::new(self.count, (0..f).map(ObjectId), self.per_object)
            }
            FaultySet::Listed(objs) => NativeBudget::new(self.count, objs, self.per_object),
        };
        FaultyCasArray {
            cells: match self.inner_cells {
                Some(cells) => Cells::Heap(cells),
                None => Cells::fresh(self.count),
            },
            kind: self.kind,
            budget,
            policy: self.policy,
            stats: self
                .shared_stats
                .unwrap_or_else(|| Arc::new(EnsembleStats::new(self.count))),
            history: self.record_history.then(|| Mutex::new(History::new())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{AlwaysPolicy, FirstKPolicy};
    use ff_spec::{Tolerance, BOTTOM};
    use std::sync::Arc;

    #[test]
    fn no_faulty_objects_behaves_correctly() {
        let a = FaultyCasArray::builder(2).build();
        assert_eq!(a.cas(ObjectId(0), BOTTOM, 5), BOTTOM);
        assert_eq!(a.cas(ObjectId(0), BOTTOM, 9), 5);
        assert_eq!(a.cas(ObjectId(0), 5, 9), 5);
        assert_eq!(a.stats().total_observable(), 0);
        assert_eq!(a.history().len(), 3);
    }

    /// Drive every object of an ensemble through the same script —
    /// a correct CAS, a mismatching CAS under an always-fault policy,
    /// a probe — and return everything observable about it.
    fn run_script<P: FaultPolicy>(a: &FaultyCasArray<P>) -> (Vec<Word>, Vec<crate::ObjectStats>) {
        let mut returned = Vec::new();
        for i in 0..a.len() {
            let obj = ObjectId(i);
            let base = 10 * i as Word;
            returned.push(a.cas(obj, BOTTOM, base + 1));
            returned.push(a.cas(obj, BOTTOM, base + 2));
            returned.push(a.cas(obj, base + 2, base + 3));
        }
        (returned, a.stats().all())
    }

    #[test]
    fn inline_and_heap_ensembles_behave_alike() {
        // 4 objects live inside the ensemble, 5 behind the heap vector:
        // per object, the same script must read the same either way.
        let build = |n: usize| {
            FaultyCasArray::builder(n)
                .faulty_objects([ObjectId(0), ObjectId(n - 1)])
                .per_object(Bound::Finite(1))
                .policy(AlwaysPolicy)
                .build()
        };
        let (inline, heap) = (build(INLINE_OBJECTS), build(INLINE_OBJECTS + 1));
        assert!(matches!(inline.cells, Cells::Inline { len: 4, .. }));
        assert!(matches!(heap.cells, Cells::Heap(_)));
        assert_eq!((inline.len(), heap.len()), (4, 5));
        let (got4, stats4) = run_script(&inline);
        let (got5, stats5) = run_script(&heap);
        // Object 0 is faulty in both, objects 1–2 correct in both.
        assert_eq!(got4[..9], got5[..9]);
        assert_eq!(stats4[..3], stats5[..3]);
        // The last object of each is faulty: one override, then correct.
        assert_eq!(got4[9..], [BOTTOM, 31, 32]);
        assert_eq!(got5[12..], [BOTTOM, 41, 42]);
        assert_eq!(stats4[3], stats5[4]);
        assert_eq!(stats4[3].observable_faults, 1);
        // Object 3 of the 5-object ensemble is correct.
        assert_eq!(got5[9..12], [BOTTOM, 31, 31]);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn inline_ensemble_rejects_objects_past_its_length() {
        FaultyCasArray::builder(2)
            .build()
            .cas(ObjectId(2), BOTTOM, 1);
    }

    #[test]
    fn over_cells_matches_fresh_native_words() {
        // Injecting over caller-supplied AtomicCas cells is the same
        // ensemble as the built-in words, object for object.
        let build = |over: bool| {
            let b = FaultyCasArray::builder(3)
                .kind(FaultKind::Silent)
                .faulty_first(2)
                .per_object(Bound::Finite(2))
                .policy(FirstKPolicy::new(2));
            if over {
                let cells = (0..3)
                    .map(|_| Arc::new(AtomicCas::new()) as Arc<dyn RawCas>)
                    .collect();
                b.over_cells(cells).build()
            } else {
                b.build()
            }
        };
        let (native, over) = (build(false), build(true));
        assert!(matches!(native.cells, Cells::Inline { .. }));
        assert!(matches!(over.cells, Cells::Heap(_)));
        assert_eq!(run_script(&native), run_script(&over));
        assert_eq!(native.history().events(), over.history().events());
    }

    #[test]
    fn boxed_policy_is_a_policy() {
        let policy: Box<dyn FaultPolicy> = Box::new(AlwaysPolicy);
        let a = FaultyCasArray::builder(1)
            .faulty_first(1)
            .per_object(Bound::Unbounded)
            .policy(policy)
            .build();
        a.cas(ObjectId(0), BOTTOM, 5);
        assert_eq!(a.cas(ObjectId(0), BOTTOM, 9), 5, "override landed");
        assert_eq!(a.stats().total_observable(), 1);
    }

    #[test]
    fn overriding_fault_writes_on_mismatch() {
        let a = FaultyCasArray::builder(1)
            .faulty_first(1)
            .per_object(Bound::Unbounded)
            .policy(AlwaysPolicy)
            .build();
        assert_eq!(a.cas(ObjectId(0), BOTTOM, 5), BOTTOM); // match: correct, refunded
        assert_eq!(a.cas(ObjectId(0), BOTTOM, 9), 5); // mismatch: OVERRIDES
                                                      // The override took effect:
        assert_eq!(a.cas(ObjectId(0), 9, 7), 9);
        assert_eq!(a.stats().object(ObjectId(0)).observable_faults, 1);
        assert_eq!(a.stats().faulty_object_count(), 1);
        // History agrees with the stats.
        let h = a.history();
        assert_eq!(h.faulty_object_count(), 1);
        assert_eq!(h.max_faults_per_object(), 1);
        assert!(h.within(&Tolerance::new(1, 1, 1)));
    }

    #[test]
    fn matching_override_is_refunded() {
        // t = 1 and the only attempt matches: budget must be refunded so a
        // later mismatching CAS can still fault.
        let a = FaultyCasArray::builder(1)
            .faulty_first(1)
            .per_object(Bound::Finite(1))
            .policy(AlwaysPolicy)
            .build();
        assert_eq!(a.cas(ObjectId(0), BOTTOM, 5), BOTTOM); // match → refund
        assert_eq!(a.remaining_budget(ObjectId(0)), Some(1));
        assert_eq!(a.cas(ObjectId(0), BOTTOM, 9), 5); // mismatch → fault
        assert_eq!(a.remaining_budget(ObjectId(0)), Some(0));
        assert_eq!(
            a.cas(ObjectId(0), BOTTOM, 7),
            9,
            "budget exhausted: correct"
        );
        assert_eq!(a.stats().object(ObjectId(0)).observable_faults, 1);
    }

    #[test]
    fn budget_bounds_faults_exactly() {
        let a = FaultyCasArray::builder(1)
            .faulty_first(1)
            .per_object(Bound::Finite(2))
            .policy(AlwaysPolicy)
            .build();
        a.cas(ObjectId(0), BOTTOM, 1); // correct (match)
        for i in 0..10 {
            a.cas(ObjectId(0), BOTTOM, 100 + i); // all mismatch
        }
        assert_eq!(a.stats().object(ObjectId(0)).observable_faults, 2);
    }

    #[test]
    fn silent_fault_suppresses_write() {
        let a = FaultyCasArray::builder(1)
            .kind(FaultKind::Silent)
            .faulty_first(1)
            .per_object(Bound::Finite(1))
            .policy(AlwaysPolicy)
            .build();
        // Match, but silently dropped.
        assert_eq!(a.cas(ObjectId(0), BOTTOM, 5), BOTTOM);
        // Budget spent; this one goes through.
        assert_eq!(a.cas(ObjectId(0), BOTTOM, 9), BOTTOM);
        assert_eq!(a.cas(ObjectId(0), 9, 7), 9);
        assert_eq!(a.stats().object(ObjectId(0)).observable_faults, 1);
    }

    #[test]
    fn invisible_fault_corrupts_returned_value_only() {
        let a = FaultyCasArray::builder(1)
            .kind(FaultKind::Invisible)
            .faulty_first(1)
            .per_object(Bound::Finite(1))
            .policy(FirstKPolicy::new(2))
            .build();
        a.cas(ObjectId(0), BOTTOM, 5); // match: invisible attempt returns exp = ⊥ = pre → correct, refunded
        let old = a.cas(ObjectId(0), 7, 9); // mismatch: reports exp = 7 although cell holds 5
        assert_eq!(old, 7, "invisible fault lies about the old value");
        // The register itself followed the spec: still 5.
        assert_eq!(a.cas(ObjectId(0), 5, 1), 5);
        assert_eq!(a.stats().object(ObjectId(0)).observable_faults, 1);
    }

    #[test]
    fn arbitrary_fault_writes_junk() {
        let a = FaultyCasArray::builder(1)
            .kind(FaultKind::Arbitrary)
            .faulty_first(1)
            .per_object(Bound::Finite(1))
            .policy(AlwaysPolicy)
            .build();
        let old = a.cas(ObjectId(0), BOTTOM, 5);
        assert_eq!(old, BOTTOM, "arbitrary fault still returns correct old");
        assert_eq!(a.stats().object(ObjectId(0)).observable_faults, 1);
        // The cell now holds junk (whatever it is, not ⊥ and almost surely
        // not 5 — verify via a probe CAS that fails and reports it).
        let junk = a.cas(ObjectId(0), BOTTOM, 5);
        assert_ne!(junk, BOTTOM);
    }

    #[test]
    fn nonresponsive_fault_never_returns() {
        let a = Arc::new(
            FaultyCasArray::builder(1)
                .kind(FaultKind::Nonresponsive)
                .faulty_first(1)
                .per_object(Bound::Finite(1))
                .policy(AlwaysPolicy)
                .build(),
        );
        let (tx, rx) = std::sync::mpsc::channel();
        {
            let a = Arc::clone(&a);
            std::thread::spawn(move || {
                let old = a.cas(ObjectId(0), BOTTOM, 5);
                let _ = tx.send(old);
            });
        }
        assert!(
            rx.recv_timeout(std::time::Duration::from_millis(200))
                .is_err(),
            "nonresponsive CAS must not respond"
        );
        // Budget exhausted: a second CAS responds normally.
        assert_eq!(a.cas(ObjectId(0), BOTTOM, 9), BOTTOM);
    }

    #[test]
    fn thread_pid_tagging_reaches_history() {
        let a = FaultyCasArray::builder(1).build();
        set_thread_process_id(ProcessId(7));
        a.cas(ObjectId(0), BOTTOM, 5);
        let h = a.history();
        assert_eq!(h.events()[0].process, ProcessId(7));
        set_thread_process_id(ProcessId(usize::MAX));
    }

    #[test]
    fn history_can_be_disabled() {
        let a = FaultyCasArray::builder(1).record_history(false).build();
        a.cas(ObjectId(0), BOTTOM, 5);
        assert!(a.history().is_empty());
    }

    #[test]
    fn concurrent_faulting_respects_budget() {
        let t = 5u64;
        let a = Arc::new(
            FaultyCasArray::builder(1)
                .faulty_first(1)
                .per_object(Bound::Finite(t))
                .policy(AlwaysPolicy)
                .build(),
        );
        std::thread::scope(|s| {
            for i in 0..8 {
                let a = Arc::clone(&a);
                s.spawn(move || {
                    for j in 0..200u64 {
                        // Everything mismatches after the first write.
                        a.cas(ObjectId(0), BOTTOM, 1_000 + i * 1_000 + j);
                    }
                });
            }
        });
        let observable = a.stats().object(ObjectId(0)).observable_faults;
        assert!(observable <= t, "observable {observable} exceeds t = {t}");
        let h = a.history();
        assert!(h.max_faults_per_object() <= t);
    }
}
