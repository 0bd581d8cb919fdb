//! The simulated shared memory: an array of CAS cells plus an array of
//! read/write registers.
//!
//! The heap is plain data — cloneable and exactly comparable — so the
//! exhaustive explorer can snapshot and memoize execution states without
//! any loss of precision.

use crate::ops::RmwFn;
use ff_spec::{CasRecord, FaultDecision, ObjectId, Word, BOTTOM};

/// Identifier of a read/write register (a separate namespace from the CAS
/// objects, mirroring the paper's "f CAS objects and an unbounded number of
/// read/write registers").
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RegId(pub usize);

impl std::fmt::Display for RegId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// The simulated shared memory.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Heap {
    cells: Vec<Word>,
    registers: Vec<Word>,
    /// Per CAS cell: has its content ever changed? (Maintained for the
    /// covering adversary of Theorem 19, whose schedule hinges on "the
    /// first CAS to an object not yet written".)
    written: Vec<bool>,
}

impl Heap {
    /// A heap with `cas_cells` CAS objects (all initialized to `⊥`) and
    /// `registers` read/write registers (initialized to 0).
    pub fn new(cas_cells: usize, registers: usize) -> Self {
        Heap {
            cells: vec![BOTTOM; cas_cells],
            registers: vec![0; registers],
            written: vec![false; cas_cells],
        }
    }

    /// Number of CAS cells.
    pub fn cas_count(&self) -> usize {
        self.cells.len()
    }

    /// Number of read/write registers.
    pub fn register_count(&self) -> usize {
        self.registers.len()
    }

    /// Current content of a CAS cell. This is *simulator-level* inspection
    /// (for auditing and adversaries); the paper's CAS objects expose no
    /// read operation to the processes themselves, and the protocol
    /// machines never call it.
    pub fn peek_cas(&self, obj: ObjectId) -> Word {
        self.cells[obj.0]
    }

    /// Has this CAS cell's content ever changed?
    pub fn cas_written(&self, obj: ObjectId) -> bool {
        self.written[obj.0]
    }

    /// Execute a CAS on `obj`, applying `decision` through `ff-spec`'s
    /// postcondition table, and return the full observable record.
    pub fn apply_cas(
        &mut self,
        obj: ObjectId,
        exp: Word,
        new: Word,
        decision: FaultDecision,
    ) -> CasRecord {
        let record = decision.apply(self.cells[obj.0], exp, new);
        self.cells[obj.0] = record.post;
        if record.post != record.pre {
            self.written[obj.0] = true;
        }
        record
    }

    /// Read a register.
    pub fn read_register(&self, reg: RegId) -> Word {
        self.registers[reg.0]
    }

    /// Write a register.
    pub fn write_register(&mut self, reg: RegId, val: Word) {
        self.registers[reg.0] = val;
    }

    /// Apply a read-modify-write to a register; returns its old content.
    pub fn rmw_register(&mut self, reg: RegId, f: RmwFn, arg: Word) -> Word {
        let old = self.registers[reg.0];
        self.registers[reg.0] = f.apply(old, arg);
        old
    }

    /// Overwrite a CAS cell directly — a *data fault* in the sense of
    /// Section 3.1 (memory corruption independent of any operation). Used
    /// only by the data-fault adversary for the model-separation
    /// experiment; functional faults never call this.
    pub fn corrupt_cas(&mut self, obj: ObjectId, val: Word) {
        let pre = self.cells[obj.0];
        self.cells[obj.0] = val;
        if val != pre {
            self.written[obj.0] = true;
        }
    }

    /// An exact, order-stable encoding of the heap state, used as part of
    /// the explorer's memoization key.
    pub fn snapshot(&self) -> Vec<Word> {
        let mut v = Vec::with_capacity(self.cells.len() + self.registers.len());
        v.extend_from_slice(&self.cells);
        v.extend_from_slice(&self.registers);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_spec::{classify_cas, CasClassification, FaultKind};

    #[test]
    fn fresh_heap_is_bottom() {
        let h = Heap::new(3, 2);
        assert_eq!(h.cas_count(), 3);
        assert_eq!(h.register_count(), 2);
        for i in 0..3 {
            assert_eq!(h.peek_cas(ObjectId(i)), BOTTOM);
            assert!(!h.cas_written(ObjectId(i)));
        }
        assert_eq!(h.read_register(RegId(0)), 0);
    }

    #[test]
    fn correct_cas_success_and_failure() {
        let mut h = Heap::new(1, 0);
        let r = h.apply_cas(ObjectId(0), BOTTOM, 5, FaultDecision::Correct);
        assert_eq!(classify_cas(&r), CasClassification::Correct);
        assert!(r.successful());
        assert_eq!(h.peek_cas(ObjectId(0)), 5);
        assert!(h.cas_written(ObjectId(0)));

        let r = h.apply_cas(ObjectId(0), BOTTOM, 9, FaultDecision::Correct);
        assert_eq!(classify_cas(&r), CasClassification::Correct);
        assert!(!r.successful());
        assert_eq!(r.returned, 5);
        assert_eq!(h.peek_cas(ObjectId(0)), 5);
    }

    #[test]
    fn override_decision_produces_overriding_fault() {
        let mut h = Heap::new(1, 0);
        h.apply_cas(ObjectId(0), BOTTOM, 5, FaultDecision::Correct);
        let r = h.apply_cas(ObjectId(0), BOTTOM, 9, FaultDecision::Override);
        assert_eq!(
            classify_cas(&r),
            CasClassification::Fault(FaultKind::Overriding)
        );
        assert_eq!(r.returned, 5, "overriding fault still returns correct old");
        assert_eq!(h.peek_cas(ObjectId(0)), 9);
    }

    #[test]
    fn override_on_matching_comparison_is_correct() {
        // When the comparison would have succeeded anyway, the "fault"
        // produces a record satisfying the standard postconditions: not a
        // fault per Definition 1.
        let mut h = Heap::new(1, 0);
        let r = h.apply_cas(ObjectId(0), BOTTOM, 5, FaultDecision::Override);
        assert_eq!(classify_cas(&r), CasClassification::Correct);
    }

    #[test]
    fn silent_decision_produces_silent_fault_on_match() {
        let mut h = Heap::new(1, 0);
        let r = h.apply_cas(ObjectId(0), BOTTOM, 5, FaultDecision::Silent);
        assert_eq!(
            classify_cas(&r),
            CasClassification::Fault(FaultKind::Silent)
        );
        assert_eq!(h.peek_cas(ObjectId(0)), BOTTOM);
        assert!(!h.cas_written(ObjectId(0)));
    }

    #[test]
    fn invisible_decision() {
        let mut h = Heap::new(1, 0);
        let r = h.apply_cas(ObjectId(0), 7, 5, FaultDecision::Invisible { returned: 7 });
        // pre = ⊥ ≠ exp = 7, register untouched, but returned 7 ≠ ⊥.
        assert_eq!(
            classify_cas(&r),
            CasClassification::Fault(FaultKind::Invisible)
        );
        assert_eq!(h.peek_cas(ObjectId(0)), BOTTOM);
    }

    #[test]
    fn arbitrary_decision() {
        let mut h = Heap::new(1, 0);
        let r = h.apply_cas(
            ObjectId(0),
            BOTTOM,
            5,
            FaultDecision::Arbitrary { written: 1234 },
        );
        assert_eq!(
            classify_cas(&r),
            CasClassification::Fault(FaultKind::Arbitrary)
        );
        assert_eq!(h.peek_cas(ObjectId(0)), 1234);
    }

    #[test]
    fn registers_read_write() {
        let mut h = Heap::new(0, 2);
        h.write_register(RegId(1), 77);
        assert_eq!(h.read_register(RegId(1)), 77);
        assert_eq!(h.read_register(RegId(0)), 0);
    }

    #[test]
    fn registers_read_modify_write() {
        let mut h = Heap::new(0, 1);
        assert_eq!(h.rmw_register(RegId(0), RmwFn::Add, 1), 0);
        assert_eq!(h.rmw_register(RegId(0), RmwFn::Max, 9), 1);
        assert_eq!(h.rmw_register(RegId(0), RmwFn::Or, 1 << 63), 9);
        assert_eq!(h.read_register(RegId(0)), 9 | 1 << 63);
    }

    #[test]
    fn corrupt_cas_is_a_data_fault() {
        let mut h = Heap::new(1, 0);
        h.corrupt_cas(ObjectId(0), 42);
        assert_eq!(h.peek_cas(ObjectId(0)), 42);
        assert!(h.cas_written(ObjectId(0)));
    }

    #[test]
    fn snapshot_is_exact() {
        let mut a = Heap::new(2, 1);
        let b = a.clone();
        assert_eq!(a.snapshot(), b.snapshot());
        a.write_register(RegId(0), 1);
        assert_ne!(a.snapshot(), b.snapshot());
    }
}
