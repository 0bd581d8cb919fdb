//! Cross-validation between the two executors of each protocol's one
//! step machine: the native driver behind every blocking `decide` and
//! the simulator's `ff_sim::run` must decide identically on matched
//! executions — fault-free and faulty.

use functional_faults::cas::{AlwaysPolicy, AtomicCasArray, FaultyCasArray};
use functional_faults::consensus::{
    cascades, one_shots, silent_retries, staged_machines, CascadeConsensus, Consensus,
    HerlihyConsensus, SilentRetryConsensus, StagedConsensus,
};
use functional_faults::sim::{
    run, FaultPlan, GreedyFault, Heap, NeverFault, Process, RoundRobin, RunConfig, RunReport,
    Scripted,
};
use functional_faults::spec::{check_consensus, Bound, History, Input, ProcessId};
use std::sync::Arc;

fn inputs(n: usize) -> Vec<Input> {
    (0..n as u32).map(|i| Input(10 * (i + 1))).collect()
}

/// Run machines under a scripted (or round-robin) fault-free schedule
/// and return the decisions in pid order.
fn sim_decisions(
    machines: Vec<Box<dyn Process>>,
    objects: usize,
    schedule: Option<Vec<ProcessId>>,
) -> Vec<Input> {
    let report = match schedule {
        Some(script) => run(
            machines,
            Heap::new(objects, 0),
            &FaultPlan::none(),
            &mut Scripted::new(script),
            &mut NeverFault,
            RunConfig::default(),
        ),
        None => run(
            machines,
            Heap::new(objects, 0),
            &FaultPlan::none(),
            &mut RoundRobin::new(),
            &mut NeverFault,
            RunConfig::default(),
        ),
    };
    checked_decisions(&report)
}

/// The decisions of a completed, consensus-satisfying run, in pid order.
fn checked_decisions(report: &RunReport) -> Vec<Input> {
    assert!(report.completed);
    assert!(check_consensus(&report.outcomes, None).ok());
    report
        .outcomes
        .iter()
        .map(|o| o.decision.unwrap())
        .collect()
}

/// Sequential blocking decisions (one caller after another) in order.
fn blocking_sequential(protocol: &dyn Consensus, inputs: &[Input]) -> Vec<Input> {
    inputs.iter().map(|&v| protocol.decide(v)).collect()
}

/// A sequential schedule: p0's steps, then p1's, etc. — the scripted
/// analogue of sequential blocking calls.
fn sequential_schedule(n: usize, steps_each: usize) -> Vec<ProcessId> {
    (0..n)
        .flat_map(|p| std::iter::repeat_n(ProcessId(p), steps_each))
        .collect()
}

#[test]
fn herlihy_forms_agree_sequentially() {
    let ins = inputs(3);
    let sim = sim_decisions(one_shots(&ins), 1, Some(sequential_schedule(3, 1)));
    let blocking = HerlihyConsensus::new(Arc::new(AtomicCasArray::new(1)));
    let native = blocking_sequential(&blocking, &ins);
    assert_eq!(sim, native);
}

#[test]
fn cascade_forms_agree_sequentially() {
    for f in 1..=3usize {
        let ins = inputs(4);
        let sim = sim_decisions(
            cascades(&ins, f),
            f + 1,
            Some(sequential_schedule(4, f + 1)),
        );
        let blocking = CascadeConsensus::new(Arc::new(AtomicCasArray::new(f + 1)), f);
        let native = blocking_sequential(&blocking, &ins);
        assert_eq!(sim, native, "f = {f}");
    }
}

#[test]
fn cascade_forms_agree_under_an_always_overriding_first_object() {
    // The one faulty matched execution: O_0 overrides at every
    // opportunity (p1 and p2 each clobber it and read a stale value),
    // O_1 is reliable. Same decisions, and the same CAS records step
    // for step — the driver and the simulator saw the same faults.
    let ins = inputs(3);
    let plan = FaultPlan::overriding(1, Bound::Unbounded);
    let report = run(
        cascades(&ins, 1),
        Heap::new(2, 0),
        &plan,
        &mut Scripted::new(sequential_schedule(3, 2)),
        &mut GreedyFault::new(plan.clone()),
        RunConfig::default(),
    );
    let sim = checked_decisions(&report);

    let ensemble = Arc::new(
        FaultyCasArray::builder(2)
            .faulty_first(1)
            .per_object(Bound::Unbounded)
            .policy(AlwaysPolicy)
            .build(),
    );
    let blocking = CascadeConsensus::new(Arc::clone(&ensemble), 1);
    let native = blocking_sequential(&blocking, &ins);
    assert_eq!(sim, native);

    let steps =
        |h: &History| -> Vec<_> { h.events().iter().map(|e| (e.object, e.record)).collect() };
    let native_history = ensemble.history();
    assert_eq!(steps(&report.history), steps(&native_history));
    assert_eq!(native_history.max_faults_per_object(), 2);
}

#[test]
fn staged_forms_agree_sequentially() {
    for (f, t) in [(1u64, 1u64), (2, 1), (2, 2)] {
        let n = f as usize + 1;
        let ins = inputs(n);
        // Sequential schedule with generous per-process step counts (the
        // scripted scheduler falls back to round-robin after the script,
        // but sequential solo runs decide within the budget).
        let sim = sim_decisions(
            staged_machines(&ins, f, t),
            f as usize,
            Some(sequential_schedule(n, 100_000)),
        );
        let blocking = StagedConsensus::new(Arc::new(AtomicCasArray::new(f as usize)), f, t);
        let native = blocking_sequential(&blocking, &ins);
        assert_eq!(sim, native, "f = {f}, t = {t}");
    }
}

#[test]
fn silent_retry_forms_agree_sequentially() {
    let ins = inputs(3);
    let sim = sim_decisions(silent_retries(&ins), 1, Some(sequential_schedule(3, 10)));
    let blocking = SilentRetryConsensus::new(Arc::new(AtomicCasArray::new(1)), 4);
    let native = blocking_sequential(&blocking, &ins);
    assert_eq!(sim, native);
}

#[test]
fn round_robin_interleavings_still_satisfy_consensus() {
    // Fault-free round-robin for every protocol: distinct schedules from
    // the sequential ones above, same correctness.
    sim_decisions(one_shots(&inputs(4)), 1, None);
    sim_decisions(cascades(&inputs(4), 2), 3, None);
    sim_decisions(staged_machines(&inputs(3), 2, 2), 2, None);
    sim_decisions(silent_retries(&inputs(4)), 1, None);
}

#[test]
fn step_counts_match_paper_wait_freedom_bounds() {
    // Figure 1 / Herlihy: exactly 1 shared step per process. Figure 2:
    // exactly f + 1 steps per process.
    let report = run(
        one_shots(&inputs(3)),
        Heap::new(1, 0),
        &FaultPlan::none(),
        &mut RoundRobin::new(),
        &mut NeverFault,
        RunConfig::default(),
    );
    assert!(report.outcomes.iter().all(|o| o.steps == 1));

    for f in 1..=4usize {
        let report = run(
            cascades(&inputs(3), f),
            Heap::new(f + 1, 0),
            &FaultPlan::none(),
            &mut RoundRobin::new(),
            &mut NeverFault,
            RunConfig::default(),
        );
        assert!(
            report.outcomes.iter().all(|o| o.steps == (f + 1) as u64),
            "f = {f}"
        );
    }
}
