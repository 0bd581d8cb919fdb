//! Fault plans and oracles for simulated executions.
//!
//! A [`FaultPlan`] fixes the fault environment of one execution, matching
//! Definition 3's parameters: which objects may be faulty (at most `f`),
//! which [`FaultKind`] they exhibit, and the per-object fault limit `t`
//! (bounded or unbounded). Its [`FaultPlan::budget`] — `ff-spec`'s
//! [`NativeBudget`], the one the native injector uses — does the
//! per-execution accounting; a [`FaultOracle`] decides, step by step,
//! whether an allowed fault actually happens — deterministic oracles make
//! executions exactly replayable.

use crate::ops::Op;
use ff_spec::{Bound, FaultDecision, FaultKind, NativeBudget, ObjectId, ProcessId, Word, BOTTOM};
use std::collections::{BTreeMap, VecDeque};

/// The fault environment of one execution.
///
/// Definition 3's discussion notes the model "allows us to present a
/// discussion about a mix of object types and a mix of functional
/// faults": [`FaultPlan::with_kind_for`] assigns individual objects a
/// kind different from the plan's default.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// The default fault kind faulty objects exhibit.
    pub kind: FaultKind,
    /// The (at most `f`) objects that may fault in this execution.
    pub faulty: Vec<ObjectId>,
    /// Limit `t` on faults per faulty object.
    pub per_object: Bound,
    /// Per-object kind overrides (a mix of functional faults).
    pub kind_overrides: BTreeMap<ObjectId, FaultKind>,
}

impl FaultPlan {
    /// No faults at all.
    pub fn none() -> Self {
        FaultPlan {
            kind: FaultKind::Overriding,
            faulty: Vec::new(),
            per_object: Bound::Finite(0),
            kind_overrides: BTreeMap::new(),
        }
    }

    /// The first `f` objects may exhibit overriding faults, `t` per object.
    pub fn overriding(f: usize, t: Bound) -> Self {
        FaultPlan {
            kind: FaultKind::Overriding,
            faulty: (0..f).map(ObjectId).collect(),
            per_object: t,
            kind_overrides: BTreeMap::new(),
        }
    }

    /// The first `f` objects may exhibit silent faults, `t` per object.
    pub fn silent(f: usize, t: Bound) -> Self {
        FaultPlan {
            kind: FaultKind::Silent,
            faulty: (0..f).map(ObjectId).collect(),
            per_object: t,
            kind_overrides: BTreeMap::new(),
        }
    }

    /// Override the fault kind of one object (a mixed-fault environment).
    pub fn with_kind_for(mut self, obj: ObjectId, kind: FaultKind) -> Self {
        self.kind_overrides.insert(obj, kind);
        self
    }

    /// The fault kind `obj` exhibits under this plan.
    pub fn kind_of(&self, obj: ObjectId) -> FaultKind {
        self.kind_overrides.get(&obj).copied().unwrap_or(self.kind)
    }

    /// The canonical adversarial step for `obj`'s kind under a CAS
    /// expecting `exp` ([`FaultKind::decision`]), with the arbitrary
    /// fault resetting the cell to `⊥`: the most damaging single choices
    /// for the consensus protocols studied here, and keeping them
    /// canonical keeps the explorer's branching finite. A nonresponsive
    /// object hangs.
    pub fn decision(&self, obj: ObjectId, exp: Word) -> StepDecision {
        match self.kind_of(obj).decision(exp, BOTTOM) {
            Some(d) => StepDecision::Apply(d),
            None => StepDecision::Hang,
        }
    }

    /// If this plan's canonical fault were applied to a CAS step seeing
    /// `pre` with arguments `exp`/`new`, would it be observable (an actual
    /// fault per Definition 1)? Returns the step when so.
    ///
    /// This is the *fault opportunity* predicate: the executor consults
    /// the oracle, and the explorer branches, exactly at steps where this
    /// returns `Some`.
    pub fn opportunity(
        &self,
        obj: ObjectId,
        pre: Word,
        exp: Word,
        new: Word,
    ) -> Option<StepDecision> {
        match self.decision(obj, exp) {
            StepDecision::Apply(d) if !d.observable(pre, exp, new) => None,
            // Hanging is always observable (the operation never returns).
            step => Some(step),
        }
    }

    /// The per-execution `(f, t)` accounting of this plan over a heap
    /// with `num_objects` CAS cells.
    pub fn budget(&self, num_objects: usize) -> NativeBudget {
        NativeBudget::new(num_objects, self.faulty.iter().copied(), self.per_object)
    }
}

/// Step-level fault decisions, including the nonresponsive "never returns".
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum StepDecision {
    /// Apply this (possibly faulty) memory effect and respond.
    Apply(FaultDecision),
    /// Nonresponsive fault: the operation never responds; the process is
    /// blocked forever. (Section 3.4 — consensus is impossible with even
    /// one such fault.)
    Hang,
}

/// Decides whether each allowed fault opportunity is taken.
///
/// The oracle is consulted only for CAS steps on objects whose budget still
/// admits a fault, and only with decisions that would actually be
/// *observable* (violate the standard postconditions); the executor forces
/// [`FaultDecision::Correct`] otherwise.
pub trait FaultOracle: Send {
    /// Decide the execution of one CAS step. `pre` is the cell's current
    /// content (the oracle models the hardware, which sees it).
    fn decide(&mut self, pid: ProcessId, op: &Op, pre: Word) -> StepDecision;
}

/// Never faults.
#[derive(Clone, Copy, Debug, Default)]
pub struct NeverFault;

impl FaultOracle for NeverFault {
    fn decide(&mut self, _pid: ProcessId, _op: &Op, _pre: Word) -> StepDecision {
        StepDecision::Apply(FaultDecision::Correct)
    }
}

/// Takes every fault opportunity, with the plan's canonical decision — the
/// greedy adversary.
#[derive(Clone, Debug)]
pub struct GreedyFault {
    plan: FaultPlan,
}

impl GreedyFault {
    /// Greedy oracle for `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        GreedyFault { plan }
    }
}

impl FaultOracle for GreedyFault {
    fn decide(&mut self, _pid: ProcessId, op: &Op, _pre: Word) -> StepDecision {
        if let Op::Cas { obj, exp, .. } = op {
            self.plan.decision(*obj, *exp)
        } else {
            StepDecision::Apply(FaultDecision::Correct)
        }
    }
}

/// Faults the CAS steps of one designated process at every opportunity —
/// the *reduced model* of Theorem 18's proof, where `p1`'s CAS executions
/// are always faulty and nobody else's are.
#[derive(Clone, Debug)]
pub struct ProcessBoundFault {
    plan: FaultPlan,
    culprit: ProcessId,
}

impl ProcessBoundFault {
    /// Oracle that faults only `culprit`'s CAS steps.
    pub fn new(plan: FaultPlan, culprit: ProcessId) -> Self {
        ProcessBoundFault { plan, culprit }
    }
}

impl FaultOracle for ProcessBoundFault {
    fn decide(&mut self, pid: ProcessId, op: &Op, _pre: Word) -> StepDecision {
        if pid == self.culprit {
            if let Op::Cas { obj, exp, .. } = op {
                return self.plan.decision(*obj, *exp);
            }
        }
        StepDecision::Apply(FaultDecision::Correct)
    }
}

/// Replays a fixed script of step decisions, one per CAS fault opportunity,
/// then stays correct. Used to replay explorer witnesses.
#[derive(Clone, Debug)]
pub struct ScriptedFault {
    script: VecDeque<StepDecision>,
}

impl ScriptedFault {
    /// Oracle replaying `script` in order.
    pub fn new(script: impl IntoIterator<Item = StepDecision>) -> Self {
        ScriptedFault {
            script: script.into_iter().collect(),
        }
    }
}

impl FaultOracle for ScriptedFault {
    fn decide(&mut self, _pid: ProcessId, _op: &Op, _pre: Word) -> StepDecision {
        self.script
            .pop_front()
            .unwrap_or(StepDecision::Apply(FaultDecision::Correct))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cas_op(obj: usize, exp: Word, new: Word) -> Op {
        Op::Cas {
            obj: ObjectId(obj),
            exp,
            new,
        }
    }

    #[test]
    fn budget_accounting() {
        let plan = FaultPlan::overriding(2, Bound::Finite(1));
        let b = plan.budget(3);
        assert!(b.can_fault(ObjectId(0)));
        assert!(b.can_fault(ObjectId(1)));
        assert!(!b.can_fault(ObjectId(2)), "O2 is outside the faulty set");
        assert!(b.try_reserve(ObjectId(0)));
        assert!(!b.can_fault(ObjectId(0)), "t = 1 exhausted");
        assert!(!b.try_reserve(ObjectId(0)));
        assert!(b.can_fault(ObjectId(1)));
    }

    #[test]
    fn unbounded_budget_never_exhausts() {
        let plan = FaultPlan::overriding(1, Bound::Unbounded);
        let b = plan.budget(1);
        for _ in 0..100 {
            assert!(b.can_fault(ObjectId(0)));
            assert!(b.try_reserve(ObjectId(0)));
        }
    }

    #[test]
    #[should_panic(expected = "ensemble has")]
    fn plan_larger_than_heap_panics() {
        let plan = FaultPlan::overriding(2, Bound::Finite(1));
        plan.budget(1);
    }

    #[test]
    fn budget_snapshot_tracks_consumption() {
        let plan = FaultPlan::overriding(1, Bound::Finite(2));
        let b = plan.budget(2);
        let before = b.snapshot();
        assert!(b.try_reserve(ObjectId(0)));
        assert_ne!(before, b.snapshot());
        assert_eq!(b.snapshot(), vec![1, 0]);
    }

    #[test]
    fn mixed_kind_plan() {
        let plan = FaultPlan::overriding(2, Bound::Unbounded)
            .with_kind_for(ObjectId(1), FaultKind::Silent);
        assert_eq!(plan.kind_of(ObjectId(0)), FaultKind::Overriding);
        assert_eq!(plan.kind_of(ObjectId(1)), FaultKind::Silent);
        assert_eq!(plan.kind_of(ObjectId(9)), FaultKind::Overriding);
        // Decisions follow the per-object kind.
        assert_eq!(
            plan.decision(ObjectId(0), BOTTOM),
            StepDecision::Apply(FaultDecision::Override)
        );
        assert_eq!(
            plan.decision(ObjectId(1), BOTTOM),
            StepDecision::Apply(FaultDecision::Silent)
        );
    }

    #[test]
    fn mixed_kind_opportunities_differ_per_object() {
        let plan = FaultPlan::overriding(2, Bound::Unbounded)
            .with_kind_for(ObjectId(1), FaultKind::Silent);
        // Override is observable on mismatch; silent on match.
        assert!(plan.opportunity(ObjectId(0), 7, BOTTOM, 5).is_some());
        assert!(plan.opportunity(ObjectId(0), BOTTOM, BOTTOM, 5).is_none());
        assert!(plan.opportunity(ObjectId(1), BOTTOM, BOTTOM, 5).is_some());
        assert!(plan.opportunity(ObjectId(1), 7, BOTTOM, 5).is_none());
    }

    #[test]
    fn never_fault_oracle() {
        let mut o = NeverFault;
        assert_eq!(
            o.decide(ProcessId(0), &cas_op(0, BOTTOM, 1), BOTTOM),
            StepDecision::Apply(FaultDecision::Correct)
        );
    }

    #[test]
    fn greedy_oracle_uses_plan_kind() {
        let mut o = GreedyFault::new(FaultPlan::overriding(1, Bound::Unbounded));
        assert_eq!(
            o.decide(ProcessId(0), &cas_op(0, BOTTOM, 1), 7),
            StepDecision::Apply(FaultDecision::Override)
        );
        let mut o = GreedyFault::new(FaultPlan::silent(1, Bound::Unbounded));
        assert_eq!(
            o.decide(ProcessId(0), &cas_op(0, BOTTOM, 1), BOTTOM),
            StepDecision::Apply(FaultDecision::Silent)
        );
    }

    #[test]
    fn greedy_nonresponsive_hangs() {
        let plan = FaultPlan {
            kind: FaultKind::Nonresponsive,
            faulty: vec![ObjectId(0)],
            per_object: Bound::Finite(1),
            kind_overrides: Default::default(),
        };
        let mut o = GreedyFault::new(plan);
        assert_eq!(
            o.decide(ProcessId(0), &cas_op(0, BOTTOM, 1), BOTTOM),
            StepDecision::Hang
        );
    }

    #[test]
    fn process_bound_nonresponsive_hangs() {
        let plan = FaultPlan {
            kind: FaultKind::Nonresponsive,
            faulty: vec![ObjectId(0)],
            per_object: Bound::Finite(1),
            kind_overrides: Default::default(),
        };
        let mut o = ProcessBoundFault::new(plan, ProcessId(1));
        assert_eq!(
            o.decide(ProcessId(1), &cas_op(0, BOTTOM, 1), BOTTOM),
            StepDecision::Hang
        );
        assert_eq!(
            o.decide(ProcessId(0), &cas_op(0, BOTTOM, 1), BOTTOM),
            StepDecision::Apply(FaultDecision::Correct)
        );
    }

    #[test]
    fn process_bound_oracle_targets_culprit_only() {
        let mut o =
            ProcessBoundFault::new(FaultPlan::overriding(1, Bound::Unbounded), ProcessId(1));
        assert_eq!(
            o.decide(ProcessId(0), &cas_op(0, BOTTOM, 1), 7),
            StepDecision::Apply(FaultDecision::Correct)
        );
        assert_eq!(
            o.decide(ProcessId(1), &cas_op(0, BOTTOM, 1), 7),
            StepDecision::Apply(FaultDecision::Override)
        );
    }

    #[test]
    fn scripted_oracle_replays_then_stays_correct() {
        let mut o = ScriptedFault::new([
            StepDecision::Apply(FaultDecision::Override),
            StepDecision::Hang,
        ]);
        let op = cas_op(0, BOTTOM, 1);
        assert_eq!(
            o.decide(ProcessId(0), &op, 7),
            StepDecision::Apply(FaultDecision::Override)
        );
        assert_eq!(o.decide(ProcessId(0), &op, 7), StepDecision::Hang);
        assert_eq!(
            o.decide(ProcessId(0), &op, 7),
            StepDecision::Apply(FaultDecision::Correct)
        );
    }
}
