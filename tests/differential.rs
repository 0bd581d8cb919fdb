//! Differential tests: the three exploration strategies — depth-first
//! (`explore`), breadth-first (`explore_bfs`), and work-stealing parallel
//! (`explore_parallel`) — must agree on every schedule-independent report
//! field over a grid of protocol × fault-plan configurations.
//!
//! `explore` and the parallel workers run ff-sim's one depth-first walk
//! over different memos (a local set, a shared claim map with donation
//! and a cycle post-pass); `explore_bfs` is a separate queue-driven
//! search that shares only the terminal verdict. So BFS is the
//! independent oracle for the walk, and any reduction added to the walk
//! (sleep sets, symmetry) is checked here against the unreduced runs.
//!
//! Fields compared: `states_expanded`, `terminals`, `agreed_values`,
//! `violation_counts` (all four counters), `truncated`, and `verified()`.
//! `max_depth_seen` is traversal-dependent by design (each memoized
//! state contributes the depth of the tree path it was first expanded
//! from), so it is only sanity-checked: BFS, which expands states at
//! shortest-path depth, must report a value no larger than DFS.
//!
//! BFS cannot detect cycles (it memoizes visited states and terminates,
//! but reports no back edges), so the cyclic configuration compares DFS
//! against parallel only.

use functional_faults::consensus::{cascades, one_shots, staged_machines};
use functional_faults::sim::{
    explore, explore_bfs, explore_parallel, ExploreReport, ExplorerConfig, FaultPlan, Heap, Op,
    OpResult, Process, RegId, SimState, Status,
};
use functional_faults::spec::{check_consensus, Bound, Input};

fn inputs(n: usize) -> Vec<Input> {
    (0..n as u32).map(|i| Input(100 + i)).collect()
}

fn full_scan(threads: usize) -> ExplorerConfig {
    ExplorerConfig {
        max_states: 2_000_000,
        max_depth: 100_000,
        stop_at_first_violation: false,
        threads,
    }
}

/// A named initial-state builder: each exploration strategy gets a fresh
/// copy of the same configuration.
type Case = (&'static str, Box<dyn Fn() -> SimState>);

/// The configuration grid. Every entry is acyclic (protocols are
/// bounded-stage and faults only shrink budgets), so all three
/// strategies must fully enumerate the same graph.
fn grid() -> Vec<Case> {
    vec![
        (
            "one_shots_n2_no_faults",
            Box::new(|| SimState::new(one_shots(&inputs(2)), Heap::new(1, 0), FaultPlan::none())),
        ),
        (
            "one_shots_n2_overriding_unbounded",
            Box::new(|| {
                SimState::new(
                    one_shots(&inputs(2)),
                    Heap::new(1, 0),
                    FaultPlan::overriding(1, Bound::Unbounded),
                )
            }),
        ),
        (
            // n = 3 over one object breaks (Theorem 18) — a violating
            // entry, so the per-kind violation counters are exercised.
            "one_shots_n3_overriding_unbounded",
            Box::new(|| {
                SimState::new(
                    one_shots(&inputs(3)),
                    Heap::new(1, 0),
                    FaultPlan::overriding(1, Bound::Unbounded),
                )
            }),
        ),
        (
            "one_shots_n2_silent_bounded",
            Box::new(|| {
                SimState::new(
                    one_shots(&inputs(2)),
                    Heap::new(1, 0),
                    FaultPlan::silent(1, Bound::Finite(1)),
                )
            }),
        ),
        (
            "cascades_n3_f1_overriding_unbounded",
            Box::new(|| {
                SimState::new(
                    cascades(&inputs(3), 1),
                    Heap::new(2, 0),
                    FaultPlan::overriding(1, Bound::Unbounded),
                )
            }),
        ),
        (
            "staged_f1_t1_n2",
            Box::new(|| {
                SimState::new(
                    staged_machines(&inputs(2), 1, 1),
                    Heap::new(1, 0),
                    FaultPlan::overriding(1, Bound::Finite(1)),
                )
            }),
        ),
        (
            "staged_f1_t2_n2",
            Box::new(|| {
                SimState::new(
                    staged_machines(&inputs(2), 1, 2),
                    Heap::new(1, 0),
                    FaultPlan::overriding(1, Bound::Finite(2)),
                )
            }),
        ),
        (
            // f processes + 2 over f objects breaks (Theorem 19) — a
            // second violating entry with a different protocol shape.
            "staged_f1_t1_n3",
            Box::new(|| {
                SimState::new(
                    staged_machines(&inputs(3), 1, 1),
                    Heap::new(1, 0),
                    FaultPlan::overriding(1, Bound::Finite(1)),
                )
            }),
        ),
    ]
}

/// Assert agreement on every schedule-independent field.
fn assert_reports_agree(name: &str, tag: &str, a: &ExploreReport, b: &ExploreReport) {
    assert_eq!(
        a.states_expanded, b.states_expanded,
        "{name}/{tag}: states_expanded"
    );
    assert_eq!(a.terminals, b.terminals, "{name}/{tag}: terminals");
    assert_eq!(
        a.agreed_values, b.agreed_values,
        "{name}/{tag}: agreed_values"
    );
    assert_eq!(
        a.violation_counts, b.violation_counts,
        "{name}/{tag}: violation_counts"
    );
    assert_eq!(a.truncated, b.truncated, "{name}/{tag}: truncated");
    assert_eq!(a.verified(), b.verified(), "{name}/{tag}: verified()");
}

#[test]
fn dfs_bfs_parallel_agree_on_full_scans() {
    for (name, build) in grid() {
        let dfs = explore(build(), full_scan(1));
        assert!(!dfs.truncated, "{name}: grid entry must fit the budget");
        assert!(!dfs.cycle_found, "{name}: grid entries must be acyclic");

        let bfs = explore_bfs(build(), full_scan(1));
        assert_reports_agree(name, "bfs", &dfs, &bfs);
        // BFS expands each memoized state at its shortest-path depth;
        // DFS at its (possibly longer) discovery-path depth. So BFS's
        // deepest path is a lower bound on DFS's, not necessarily equal.
        assert!(
            dfs.max_depth_seen >= bfs.max_depth_seen,
            "{name}: BFS depth {} must not exceed DFS depth {}",
            bfs.max_depth_seen,
            dfs.max_depth_seen
        );

        for threads in [2usize, 4] {
            let par = explore_parallel(build(), full_scan(threads));
            assert_reports_agree(name, &format!("parallel_t{threads}"), &dfs, &par);
            assert_eq!(
                dfs.cycle_found, par.cycle_found,
                "{name}/parallel_t{threads}: cycle_found"
            );
        }
    }
}

#[test]
fn full_scan_witnesses_match_sequential_exactly() {
    // In full-scan mode the parallel explorer re-derives its witness
    // through a sequential search, so even the witness (not just the
    // aggregate counters) is identical to `explore`'s.
    let build = || {
        SimState::new(
            one_shots(&inputs(3)),
            Heap::new(1, 0),
            FaultPlan::overriding(1, Bound::Unbounded),
        )
    };
    let dfs = explore(build(), full_scan(1));
    let seq_witness = dfs.violation.expect("Theorem 18 config must violate");
    for threads in [2usize, 3] {
        let par = explore_parallel(build(), full_scan(threads));
        let w = par.violation.expect("parallel must also find a violation");
        assert_eq!(
            w.choices, seq_witness.choices,
            "t{threads}: witness choices"
        );
        assert_eq!(
            w.outcomes, seq_witness.outcomes,
            "t{threads}: witness outcomes"
        );
        assert_eq!(
            w.violations, seq_witness.violations,
            "t{threads}: witness violations"
        );
    }
}

#[test]
fn parallel_deterministic_across_runs_and_thread_counts() {
    let build = || {
        SimState::new(
            staged_machines(&inputs(3), 1, 1),
            Heap::new(1, 0),
            FaultPlan::overriding(1, Bound::Finite(1)),
        )
    };
    let reference = explore_parallel(build(), full_scan(2));
    for threads in [2usize, 3, 4] {
        for run in 0..2 {
            let r = explore_parallel(build(), full_scan(threads));
            assert_reports_agree(
                "staged_f1_t1_n3",
                &format!("t{threads}_run{run}"),
                &reference,
                &r,
            );
            let w_ref = reference.violation.as_ref().expect("violating config");
            let w = r.violation.as_ref().expect("violating config");
            assert_eq!(w.choices, w_ref.choices, "t{threads} run {run}: witness");
        }
    }
}

#[test]
fn stop_mode_all_strategies_find_replayable_witnesses() {
    // Under stop_at_first_violation the strategies may stop at different
    // witnesses (and different exploration counts), but each must return
    // a witness that REPLAYS to a real consensus violation.
    let stop = |threads| ExplorerConfig {
        stop_at_first_violation: true,
        ..full_scan(threads)
    };
    let plan = FaultPlan::overriding(1, Bound::Unbounded);
    let build = || SimState::new(one_shots(&inputs(3)), Heap::new(1, 0), plan.clone());

    let reports = [
        ("dfs", explore(build(), stop(1))),
        ("bfs", explore_bfs(build(), stop(1))),
        ("parallel_t2", explore_parallel(build(), stop(2))),
        ("parallel_t4", explore_parallel(build(), stop(4))),
    ];
    for (tag, report) in &reports {
        assert!(!report.verified(), "{tag}: config must violate");
        let w = report
            .violation
            .as_ref()
            .unwrap_or_else(|| panic!("{tag}: stop mode must surface a witness"));
        let replay = w.replay(one_shots(&inputs(3)), Heap::new(1, 0), &plan);
        assert!(
            !check_consensus(&replay.outcomes, None).ok(),
            "{tag}: witness must replay to a real violation"
        );
    }
}

/// Two never-terminating writers whose joint state flips between a
/// handful of configurations: a pure cycle with no terminals.
#[derive(Clone)]
struct Flipper {
    phase: u8,
}

impl Process for Flipper {
    fn next_op(&self) -> Op {
        Op::Write(RegId(0), (self.phase as u64) % 2)
    }
    fn apply(&mut self, _r: OpResult) -> Status {
        self.phase = (self.phase + 1) % 2;
        Status::Running
    }
    fn status(&self) -> Status {
        Status::Running
    }
    fn input(&self) -> Input {
        Input(0)
    }
    fn snapshot(&self) -> Vec<u64> {
        vec![self.phase as u64]
    }
    fn box_clone(&self) -> Box<dyn Process> {
        Box::new(self.clone())
    }
}

#[test]
fn cyclic_config_dfs_and_parallel_agree() {
    let build = || {
        SimState::new(
            vec![
                Box::new(Flipper { phase: 0 }) as Box<dyn Process>,
                Box::new(Flipper { phase: 1 }),
            ],
            Heap::new(0, 1),
            FaultPlan::none(),
        )
    };
    let dfs = explore(build(), full_scan(1));
    assert!(dfs.cycle_found, "sequential DFS must find the cycle");
    assert!(!dfs.verified());
    for threads in [2usize, 4] {
        let par = explore_parallel(build(), full_scan(threads));
        assert!(par.cycle_found, "t{threads}: parallel must find the cycle");
        assert!(!par.verified());
        assert_eq!(
            dfs.states_expanded, par.states_expanded,
            "t{threads}: cycle detection must not change state accounting"
        );
        assert_eq!(dfs.terminals, par.terminals, "t{threads}: terminals");
    }
}
