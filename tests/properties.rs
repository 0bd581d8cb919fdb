//! Property-based tests (proptest) on the core invariants: encodings,
//! fault classification, tolerance algebra, replay determinism, and —
//! most importantly — consensus under *arbitrary* schedules and fault
//! scripts within the declared `(f, t, n)` budgets.

use functional_faults::consensus::{cascades, one_shots, staged_machines, StageValue};
use functional_faults::sim::{
    run, FaultPlan, Heap, RunConfig, Scripted, ScriptedFault, StepDecision,
};
use functional_faults::spec::{
    arbitrary_post, check_consensus, classify_cas, invisible_post, overriding_post, silent_post,
    standard_post, Bound, CasClassification, CasRecord, FaultDecision, FaultKind, Input, ProcessId,
    Tolerance, BOTTOM,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Encodings.
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn input_word_round_trip(v in any::<u32>()) {
        let i = Input(v);
        prop_assert_eq!(Input::from_word(i.to_word()), Some(i));
        prop_assert_ne!(i.to_word(), BOTTOM);
    }

    #[test]
    fn stage_value_round_trip(v in any::<u32>(), s in 0u32..=u32::MAX - 1) {
        let sv = StageValue::new(Input(v), s);
        prop_assert_eq!(StageValue::unpack(sv.pack()), Some(sv));
        prop_assert_ne!(sv.pack(), BOTTOM);
        prop_assert_eq!(StageValue::stage_of(sv.pack()), s as i64);
    }

    #[test]
    fn distinct_stage_values_pack_distinctly(
        a in any::<u32>(), sa in 0u32..1000,
        b in any::<u32>(), sb in 0u32..1000,
    ) {
        let pa = StageValue::new(Input(a), sa).pack();
        let pb = StageValue::new(Input(b), sb).pack();
        prop_assert_eq!(pa == pb, a == b && sa == sb);
    }
}

// ---------------------------------------------------------------------
// Fault classification.
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn correct_iff_standard_postcondition(
        pre in any::<u64>(), exp in any::<u64>(), new in any::<u64>(),
        post in any::<u64>(), returned in any::<u64>(),
    ) {
        let r = CasRecord { pre, exp, new, post, returned };
        prop_assert_eq!(
            classify_cas(&r) == CasClassification::Correct,
            standard_post(&r)
        );
    }

    #[test]
    fn override_footprint_classifies_as_overriding(
        pre in any::<u64>(), exp in any::<u64>(), new in any::<u64>(),
    ) {
        // The exact memory footprint an overriding execution leaves.
        let r = CasRecord { pre, exp, new, post: new, returned: pre };
        let c = classify_cas(&r);
        if standard_post(&r) {
            prop_assert_eq!(c, CasClassification::Correct);
        } else {
            prop_assert_eq!(c, CasClassification::Fault(FaultKind::Overriding));
        }
    }

    #[test]
    fn each_kinds_decision_stays_inside_its_postcondition(
        pre in prop_oneof![0u64..4, any::<u64>()],
        exp in prop_oneof![0u64..4, any::<u64>()],
        new in prop_oneof![0u64..4, any::<u64>()],
        junk in prop_oneof![0u64..4, any::<u64>()],
    ) {
        // The postcondition table against the taxonomy: a kind's
        // canonical decision is either indistinguishable from a correct
        // execution or a fault with exactly that kind's Φ'.
        for kind in [
            FaultKind::Overriding,
            FaultKind::Silent,
            FaultKind::Invisible,
            FaultKind::Arbitrary,
        ] {
            let post = match kind {
                FaultKind::Overriding => overriding_post,
                FaultKind::Silent => silent_post,
                FaultKind::Invisible => invisible_post,
                _ => arbitrary_post,
            };
            let decision = kind.decision(exp, junk).expect("responsive kinds decide");
            let r = decision.apply(pre, exp, new);
            prop_assert_eq!((r.pre, r.exp, r.new), (pre, exp, new));
            prop_assert!(standard_post(&r) || post(&r), "{kind}: {r:?}");
            prop_assert_eq!(decision.observable(pre, exp, new), !standard_post(&r));
        }
        prop_assert_eq!(FaultKind::Nonresponsive.decision(exp, junk), None);
    }
}

// ---------------------------------------------------------------------
// Tolerance algebra.
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn admits_is_downward_closed(
        f in 0u64..10, t in 0u64..10, n in 1u64..10,
        fo in 0u64..10, mf in 0u64..10, pr in 0u64..10,
        df in 0u64..5, dm in 0u64..5, dp in 0u64..5,
    ) {
        let tol = Tolerance::new(f, t, n);
        if tol.admits(fo, mf, pr) {
            prop_assert!(tol.admits(
                fo.saturating_sub(df),
                mf.saturating_sub(dm),
                pr.saturating_sub(dp),
            ));
        }
    }

    #[test]
    fn subsumption_implies_admission(
        f1 in 0u64..5, t1 in 0u64..5, n1 in 1u64..5,
        f2 in 0u64..5, t2 in 0u64..5, n2 in 1u64..5,
        fo in 0u64..5, mf in 0u64..5, pr in 0u64..5,
    ) {
        let weak = Tolerance::new(f1, t1, n1);
        let strong = Tolerance::new(f2, t2, n2);
        if weak.subsumed_by(&strong) && weak.admits(fo, mf, pr) {
            prop_assert!(strong.admits(fo, mf, pr),
                "{weak} admits ({fo},{mf},{pr}) and is subsumed by {strong}, which must too");
        }
    }
}

// ---------------------------------------------------------------------
// Arbitrary-schedule consensus: the crown property. Any interleaving +
// any fault script within budget must satisfy consensus.
// ---------------------------------------------------------------------

/// Drive machines under a schedule derived from `schedule_bytes` and a
/// fault script from `fault_bits`; return the run report.
fn scripted_run(
    machines: Vec<Box<dyn functional_faults::sim::Process>>,
    objects: usize,
    plan: &FaultPlan,
    schedule_bytes: &[u8],
    fault_bits: &[bool],
    n: usize,
) -> functional_faults::sim::RunReport {
    let schedule: Vec<ProcessId> = schedule_bytes
        .iter()
        .map(|&b| ProcessId(b as usize % n))
        .collect();
    let faults = fault_bits.iter().map(|&b| {
        if b {
            StepDecision::Apply(FaultDecision::Override)
        } else {
            StepDecision::Apply(FaultDecision::Correct)
        }
    });
    run(
        machines,
        Heap::new(objects, 0),
        plan,
        &mut Scripted::new(schedule),
        &mut ScriptedFault::new(faults),
        RunConfig {
            step_limit: 1_000_000,
            record_trace: false,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cascade_consensus_under_arbitrary_schedules(
        schedule in proptest::collection::vec(any::<u8>(), 0..200),
        faults in proptest::collection::vec(any::<bool>(), 0..64),
    ) {
        // f = 1 (2 objects, O0 unboundedly faulty), n = 3.
        let plan = FaultPlan::overriding(1, Bound::Unbounded);
        let inputs: Vec<Input> = (0..3).map(Input).collect();
        let report = scripted_run(cascades(&inputs, 1), 2, &plan, &schedule, &faults, 3);
        prop_assert!(report.completed);
        let verdict = check_consensus(&report.outcomes, Some(2));
        prop_assert!(verdict.ok(), "{:?}", verdict.violations);
    }

    #[test]
    fn staged_consensus_under_arbitrary_schedules(
        schedule in proptest::collection::vec(any::<u8>(), 0..300),
        faults in proptest::collection::vec(any::<bool>(), 0..32),
    ) {
        // f = 1 object (faulty, t = 2), n = 2.
        let plan = FaultPlan::overriding(1, Bound::Finite(2));
        let inputs: Vec<Input> = (0..2).map(Input).collect();
        let report = scripted_run(staged_machines(&inputs, 1, 2), 1, &plan, &schedule, &faults, 2);
        prop_assert!(report.completed);
        let verdict = check_consensus(&report.outcomes, None);
        prop_assert!(verdict.ok(), "{:?}", verdict.violations);
        // The budget was respected.
        prop_assert!(report.history.max_faults_per_object() <= 2);
        prop_assert!(report.history.faulty_object_count() <= 1);
    }

    #[test]
    fn two_process_consensus_under_arbitrary_schedules(
        schedule in proptest::collection::vec(any::<u8>(), 0..50),
        faults in proptest::collection::vec(any::<bool>(), 0..16),
    ) {
        // Theorem 4's environment: 1 object, unbounded faults, n = 2.
        let plan = FaultPlan::overriding(1, Bound::Unbounded);
        let inputs: Vec<Input> = (0..2).map(Input).collect();
        let report = scripted_run(one_shots(&inputs), 1, &plan, &schedule, &faults, 2);
        prop_assert!(report.completed);
        prop_assert!(check_consensus(&report.outcomes, Some(1)).ok());
    }

    #[test]
    fn replay_is_deterministic(
        schedule in proptest::collection::vec(any::<u8>(), 0..150),
        faults in proptest::collection::vec(any::<bool>(), 0..32),
    ) {
        let plan = FaultPlan::overriding(1, Bound::Unbounded);
        let inputs: Vec<Input> = (0..3).map(Input).collect();
        let a = scripted_run(cascades(&inputs, 1), 2, &plan, &schedule, &faults, 3);
        let b = scripted_run(cascades(&inputs, 1), 2, &plan, &schedule, &faults, 3);
        prop_assert_eq!(a.outcomes, b.outcomes);
        prop_assert_eq!(a.total_steps, b.total_steps);
        prop_assert_eq!(a.history.events(), b.history.events());
    }
}
