//! Cross-validation between the two executors of each protocol's one
//! step machine: the native driver behind every blocking `decide` and
//! the simulator's `ff_sim::run` must decide identically on matched
//! executions — fault-free and faulty. Below the protocols, the native
//! fault injector and the simulated heap must write the same CAS records
//! under the same fault kind.

use functional_faults::cas::{
    AlwaysPolicy, AtomicCas, AtomicCasArray, CasCell, CasEnsemble, FaultyCasArray, RawCas,
};
use functional_faults::consensus::kw::DEFAULT_EPOCH_CAPACITY;
use functional_faults::consensus::machines::boxed;
use functional_faults::consensus::{
    cascades, one_shots, silent_retries, staged_machines, CascadeConsensus, CascadeMachine,
    Consensus, HerlihyConsensus, KwBlock, KwCas, KwCasArray, KwOp, OverKw, SilentRetryConsensus,
    StagedConsensus,
};
use functional_faults::sim::{
    run, FaultPlan, GreedyFault, Heap, NeverFault, Op, OpResult, Process, RegId, RoundRobin,
    RunConfig, RunReport, Scripted, Status,
};
use functional_faults::spec::{
    check_consensus, classify_cas, Bound, CasRecord, FaultDecision, FaultKind, History, Input,
    ObjectId, ProcessId, Word, BOTTOM,
};
use std::sync::{Arc, Mutex};

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
    sim_decisions_over(machines, Heap::new(objects, 0), schedule)
}

/// [`sim_decisions`] over a given initial heap.
fn sim_decisions_over(
    machines: Vec<Box<dyn Process>>,
    heap: Heap,
    schedule: Option<Vec<ProcessId>>,
) -> Vec<Input> {
    let report = match schedule {
        Some(script) => run(
            machines,
            heap,
            &FaultPlan::none(),
            &mut Scripted::new(script),
            &mut NeverFault,
            RunConfig::default(),
        ),
        None => run(
            machines,
            heap,
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

/// KW operations run one after another under `ff_sim::run`, over the
/// simulator's registers, logging what each returns.
#[derive(Clone)]
struct KwScript {
    ops: Vec<KwOp>,
    next: usize,
    log: Arc<Mutex<Vec<Word>>>,
}

impl Process for KwScript {
    fn next_op(&self) -> Op {
        self.ops[self.next].next_op()
    }

    fn apply(&mut self, result: OpResult) -> Status {
        let OpResult::Read(word) = result else {
            panic!("kw steps answer with a word, not {result:?}");
        };
        if let Some(returned) = self.ops[self.next].apply(word) {
            self.log.lock().unwrap().push(returned);
            self.next += 1;
        }
        self.status()
    }

    fn status(&self) -> Status {
        if self.next == self.ops.len() {
            Status::Decided(Input(0))
        } else {
            Status::Running
        }
    }

    fn input(&self) -> Input {
        Input(0)
    }

    fn snapshot(&self) -> Vec<u64> {
        let mut snap = vec![self.next as u64];
        snap.extend(self.log.lock().unwrap().iter());
        snap
    }

    fn box_clone(&self) -> Box<dyn Process> {
        Box::new(self.clone())
    }
}

#[test]
fn kw_forms_agree_on_matched_executions() {
    // Hits and misses, a swap and a load: the native object and the
    // simulator return the same words and leave X, the ticket and
    // every D_k the same.
    let native = KwCas::new();
    let native_log = vec![
        native.cas(BOTTOM, 5),
        native.cas(BOTTOM, 9),
        native.cas(5, 9),
        native.cas(3, 4),
        native.swap(11),
        native.cas(11, 7),
        native.cas(11, 8),
        native.load(),
    ];
    assert_eq!(native_log, [BOTTOM, 5, 5, 9, 9, 11, 7, 7]);

    let block = KwBlock::nth(0, DEFAULT_EPOCH_CAPACITY);
    let log = Arc::new(Mutex::new(Vec::new()));
    let script = KwScript {
        ops: vec![
            KwOp::cas(block, BOTTOM, 5),
            KwOp::cas(block, BOTTOM, 9),
            KwOp::cas(block, 5, 9),
            KwOp::cas(block, 3, 4),
            KwOp::swap(block, 11),
            KwOp::cas(block, 11, 7),
            KwOp::cas(block, 11, 8),
            KwOp::load(block),
        ],
        next: 0,
        log: Arc::clone(&log),
    };
    let report = run(
        vec![Box::new(script)],
        KwBlock::heap(1, DEFAULT_EPOCH_CAPACITY),
        &FaultPlan::none(),
        &mut RoundRobin::new(),
        &mut NeverFault,
        RunConfig::default(),
    );
    assert!(report.completed);
    assert_eq!(*log.lock().unwrap(), native_log);
    let sim_words: Vec<Word> = (0..report.heap.register_count())
        .map(|i| report.heap.read_register(RegId(i)))
        .collect();
    assert_eq!(sim_words, native.words());
}

#[test]
fn cascade_over_kw_forms_agree_sequentially() {
    // kw-robust's fault-free path: the adapter expands each CAS of the
    // cascade into KW steps; the blocking form runs it over KwCasArray.
    let ins = inputs(3);
    let sim = sim_decisions_over(
        boxed(&ins, |v| {
            OverKw::new(CascadeMachine::new(v, 1), DEFAULT_EPOCH_CAPACITY)
        }),
        KwBlock::heap(2, DEFAULT_EPOCH_CAPACITY),
        Some(sequential_schedule(3, 100)),
    );
    let blocking = CascadeConsensus::new(Arc::new(KwCasArray::new(2)), 1);
    assert_eq!(sim, blocking_sequential(&blocking, &ins));
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

/// Run `script` (object, expected, new) over four objects that start out
/// holding 9, natively — every object faulty with kind `kind`, every
/// invocation an attempt — and on a simulated heap applying the kind's
/// canonical decision at every step. Returns both record sequences.
fn native_and_simulated_records(
    kind: FaultKind,
    script: &[(usize, Word, Word)],
) -> (Vec<CasRecord>, Vec<CasRecord>) {
    let cells = (0..4)
        .map(|_| {
            let cell = AtomicCas::new();
            cell.cas(BOTTOM, 9);
            Arc::new(cell) as Arc<dyn RawCas>
        })
        .collect();
    let native = FaultyCasArray::builder(4)
        .kind(kind)
        .faulty_first(4)
        .per_object(Bound::Unbounded)
        .policy(AlwaysPolicy)
        .over_cells(cells)
        .build();
    let mut heap = Heap::new(4, 0);
    for obj in 0..4 {
        heap.apply_cas(ObjectId(obj), BOTTOM, 9, FaultDecision::Correct);
    }
    let simulated = script
        .iter()
        .map(|&(obj, exp, new)| {
            native.cas(ObjectId(obj), exp, new);
            let decision = kind.decision(exp, BOTTOM).expect("responsive kind");
            heap.apply_cas(ObjectId(obj), exp, new, decision)
        })
        .collect();
    let history = native.history();
    assert!(history.events().iter().all(|e| e.injected_fault));
    let native = history.events().iter().map(|e| e.record).collect();
    (native, simulated)
}

#[test]
fn native_and_simulated_faults_write_the_same_records() {
    // Matching and mismatching comparisons, writes that change the cell
    // and writes that do not, and faults on top of earlier faults.
    let script = [
        (0, 9, 5),
        (0, 9, 7),
        (0, 7, 7),
        (0, BOTTOM, 3),
        (1, 9, 9),
        (1, 4, 6),
        (2, 9, 1),
        (2, 1, 2),
    ];
    for kind in [
        FaultKind::Overriding,
        FaultKind::Silent,
        FaultKind::Invisible,
    ] {
        let (native, simulated) = native_and_simulated_records(kind, &script);
        assert_eq!(native, simulated, "{kind}");
        assert!(
            native
                .iter()
                .any(|r| classify_cas(r) != classify_cas(&native[0])),
            "{kind}: the script mixes correct and faulty records"
        );
    }
    // An arbitrary fault writes junk natively and ⊥ in the simulator, so
    // each object takes one CAS: everything but the written word agrees,
    // and both sides see the same fault.
    let script = [(0, 9, 5), (1, BOTTOM, 5), (2, 9, 9), (3, 7, 9)];
    let (native, simulated) = native_and_simulated_records(FaultKind::Arbitrary, &script);
    for (n, s) in native.iter().zip(&simulated) {
        assert_eq!(CasRecord { post: s.post, ..*n }, *s);
        assert_eq!(s.post, BOTTOM);
        assert_eq!(classify_cas(n), classify_cas(s), "{n:?} vs {s:?}");
        assert_eq!(
            classify_cas(s),
            functional_faults::spec::CasClassification::Fault(FaultKind::Arbitrary)
        );
    }
}
