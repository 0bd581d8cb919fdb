//! Exhaustive state-space exploration: the proof engine of the
//! reproduction.
//!
//! The explorer enumerates **every** interleaving of process steps and
//! **every** allowed fault decision (within the `(f, t)` budget) from an
//! initial [`SimState`]. Upper-bound experiments (Theorems 4–6) assert
//! that no reachable terminal state violates consensus; lower-bound
//! experiments (Theorems 18–19) assert that a violating execution *is*
//! reachable, and extract it as a replayable [`Witness`].
//!
//! Memoization uses exact state keys (no hashing of lossy fingerprints),
//! so pruning can never mask a reachable violation. Cycles in the state
//! graph — which witness possible nontermination, e.g. unbounded silent
//! faults starving the Herlihy protocol (Section 3.4) — are detected and
//! reported.
//!
//! Every depth-first search over the graph is one private loop,
//! `Walk::run`, which alone holds the frame stack, the on-path set (back
//! edges set `cycle_found`), truncation and the witness path: [`explore`]
//! walks over a local visited set, [`crate::explore_parallel`] over its
//! shared claim map, and [`crate::explore_context_bounded`] with `(last
//! pid, preemptions used)` in the key. [`explore_bfs`] keeps its own
//! queue, as a shortest witness needs breadth-first order; both tally
//! terminals through one verdict.

use crate::executor::{run, RunConfig, RunReport};
use crate::fault_ctl::{FaultPlan, ScriptedFault};
use crate::heap::Heap;
use crate::process::Process;
use crate::scheduler::Scripted;
use crate::state::{Choice, SimState};
use ff_spec::{check_consensus, ConsensusViolation, Outcome, ProcessId};
use std::collections::{BTreeSet, HashSet};

/// Per-kind counts of violating terminal states — the raw material of
/// graceful-degradation analysis (which consensus properties survive when
/// an execution leaves the tolerance envelope).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ViolationCounts {
    /// Terminals with a validity violation.
    pub validity: u64,
    /// Terminals with a consistency violation.
    pub consistency: u64,
    /// Terminals with a wait-freedom violation.
    pub wait_freedom: u64,
    /// Terminals violating at least one property. Tracked directly: a
    /// terminal violating several properties still counts once, and
    /// terminals violating *different* properties each count — so this is
    /// neither the max nor the sum of the per-kind counters.
    pub violating_terminals: u64,
}

impl ViolationCounts {
    /// Absorb one terminal's violation list (each kind counted once per
    /// terminal).
    pub fn absorb(&mut self, violations: &[ConsensusViolation]) {
        let mut v = (false, false, false);
        for x in violations {
            match x {
                ConsensusViolation::Validity { .. } => v.0 = true,
                ConsensusViolation::Consistency { .. } => v.1 = true,
                ConsensusViolation::WaitFreedom { .. } => v.2 = true,
            }
        }
        self.validity += v.0 as u64;
        self.consistency += v.1 as u64;
        self.wait_freedom += v.2 as u64;
        if v.0 || v.1 || v.2 {
            self.violating_terminals += 1;
        }
    }

    /// Total violating terminals observed (by any kind).
    pub fn any(&self) -> u64 {
        self.violating_terminals
    }

    /// Merge another set of counts into this one (parallel exploration
    /// combines per-worker counts with this).
    pub fn merge(&mut self, other: &ViolationCounts) {
        self.validity += other.validity;
        self.consistency += other.consistency;
        self.wait_freedom += other.wait_freedom;
        self.violating_terminals += other.violating_terminals;
    }
}

/// Configuration of an exhaustive exploration.
#[derive(Clone, Copy, Debug)]
pub struct ExplorerConfig {
    /// Stop (reporting truncation) after expanding this many distinct
    /// states.
    pub max_states: u64,
    /// Do not explore paths deeper than this many steps.
    pub max_depth: usize,
    /// Return as soon as the first violation is found.
    pub stop_at_first_violation: bool,
    /// Worker threads for [`crate::explore_parallel`]. `1` (the default)
    /// means sequential exploration; the sequential [`explore`] and
    /// [`explore_bfs`] ignore this knob.
    pub threads: usize,
}

impl Default for ExplorerConfig {
    fn default() -> Self {
        ExplorerConfig {
            max_states: 2_000_000,
            max_depth: 100_000,
            stop_at_first_violation: true,
            threads: 1,
        }
    }
}

/// A replayable violating execution.
#[derive(Clone, Debug)]
pub struct Witness {
    /// The choice sequence from the initial state to the violating
    /// terminal.
    pub choices: Vec<Choice>,
    /// The outcomes at the violating terminal.
    pub outcomes: Vec<Outcome>,
    /// The consensus properties violated.
    pub violations: Vec<ConsensusViolation>,
}

impl Witness {
    /// Re-execute this witness through the run-to-completion driver,
    /// producing a full trace for display. `processes`/`heap`/`plan` must
    /// be the same initial configuration the exploration started from.
    pub fn replay(
        &self,
        processes: Vec<Box<dyn Process>>,
        heap: Heap,
        plan: &FaultPlan,
    ) -> RunReport {
        let mut scheduler = Scripted::new(self.choices.iter().map(|c| c.pid));
        let mut oracle = ScriptedFault::new(
            self.choices
                .iter()
                .filter(|c| c.had_opportunity)
                .map(|c| c.decision),
        );
        run(
            processes,
            heap,
            plan,
            &mut scheduler,
            &mut oracle,
            RunConfig::default(),
        )
    }
}

/// The result of an exploration.
#[derive(Clone, Debug, Default)]
pub struct ExploreReport {
    /// Distinct non-terminal states expanded.
    pub states_expanded: u64,
    /// Terminal states reached (counted per path; a terminal reached along
    /// many paths counts once per arrival before memoization prunes).
    pub terminals: u64,
    /// The first violating execution found, if any.
    pub violation: Option<Witness>,
    /// Agreed decision values seen across consistent terminals.
    pub agreed_values: BTreeSet<u32>,
    /// `true` iff the exploration hit `max_states` or `max_depth`.
    pub truncated: bool,
    /// Deepest path explored. Traversal-dependent: each memoized state
    /// contributes the depth of the tree path it was first expanded
    /// from, so BFS (shortest paths) reports a lower bound, DFS an
    /// equal-or-larger value, and the parallel explorer a value that
    /// depends on how work was donated between threads. All other
    /// report fields are traversal-independent.
    pub max_depth_seen: usize,
    /// `true` iff a cycle in the state graph was found (an adversary can
    /// prevent termination: a wait-freedom violation in the unbounded
    /// sense).
    pub cycle_found: bool,
    /// Per-kind counts of violating terminals (populate fully by running
    /// with `stop_at_first_violation: false`).
    pub violation_counts: ViolationCounts,
}

impl ExploreReport {
    /// `true` iff exploration was exhaustive (not truncated) and found
    /// neither violations nor cycles: the configuration provably satisfies
    /// consensus for every schedule and fault pattern within budget.
    pub fn verified(&self) -> bool {
        !self.truncated && self.violation.is_none() && !self.cycle_found
    }

    /// Tally one terminal state: its outcomes, its verdict and, for the
    /// first violation, the witness `path()` leads to it. Returns whether
    /// it violates consensus.
    fn terminal(&mut self, state: &SimState, path: impl FnOnce() -> Vec<Choice>) -> bool {
        self.terminals += 1;
        let outcomes = state.outcomes();
        let verdict = check_consensus(&outcomes, None);
        self.agreed_values.extend(verdict.agreed.map(|a| a.0));
        let violates = !verdict.ok();
        if violates {
            self.violation_counts.absorb(&verdict.violations);
            self.violation.get_or_insert_with(|| Witness {
                choices: path(),
                outcomes,
                violations: verdict.violations,
            });
        }
        violates
    }
}

/// Exhaustively explore all executions from `initial`.
pub fn explore(initial: SimState, config: ExplorerConfig) -> ExploreReport {
    Walk {
        config,
        ..Walk::default()
    }
    .explore(initial)
}

/// A claimed state a walk starts from, its key, and the choices that
/// reach it.
pub(crate) type Root = (SimState, Vec<u64>, Vec<Choice>);

/// What [`Memo::claim`] found: a state claimed now, for this walk to
/// expand; one claimed before; or one claimed before that is unfinished
/// or dirty, so the edge to it taints its frame.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Claim {
    Fresh,
    Seen,
    Dirty,
}

/// Where a walk claims states: a local set, or a parallel explorer's
/// shared claim map.
pub(crate) trait Memo {
    /// Claim `key`, the key of `state`.
    fn claim(&mut self, key: &[u64], state: &SimState) -> Claim;
    /// Count one fresh state; returns the exploration's total so far.
    fn count(&mut self, report: &mut ExploreReport) -> u64 {
        report.states_expanded += 1;
        report.states_expanded
    }
    /// `key`'s scan is over; `dirty` if it reached unfinished states.
    fn finish(&mut self, _key: &[u64], _dirty: bool) {}
    /// Offer a fresh state, reached by `path()`, to another walk; returns
    /// it when none takes it.
    fn offer(
        &mut self,
        state: SimState,
        key: Vec<u64>,
        _path: impl FnOnce() -> Vec<Choice>,
    ) -> Option<(SimState, Vec<u64>)> {
        Some((state, key))
    }
    /// Whether another walk has ended the exploration.
    fn stopped(&self) -> bool {
        false
    }
}

impl Memo for HashSet<Vec<u64>> {
    fn claim(&mut self, key: &[u64], _: &SimState) -> Claim {
        if self.insert(key.to_vec()) {
            Claim::Fresh
        } else {
            Claim::Seen
        }
    }
}

/// The one depth-first walk over a state graph, and the small argument
/// that tells its callers apart.
#[derive(Default)]
pub(crate) struct Walk {
    pub(crate) config: ExplorerConfig,
    /// Context bounding: key states on `(last pid, preemptions used)` as
    /// well, and skip the choices that would use more preemptions.
    pub(crate) preemptions: Option<u32>,
    /// End at the first back edge.
    pub(crate) stop_at_cycle: bool,
}

struct Frame {
    state: SimState,
    key: Vec<u64>,
    choices: Vec<Choice>,
    next: usize,
    /// The choice that produced this frame's state (`None` for the root).
    leading: Option<Choice>,
    /// Preemptions used on the path here.
    used: u32,
    /// Some edge of this frame's region reached an unfinished state.
    dirty: bool,
}

impl Frame {
    fn new(state: SimState, key: Vec<u64>, leading: Option<Choice>, used: u32) -> Frame {
        Frame {
            choices: state.choices(),
            state,
            key,
            next: 0,
            leading,
            used,
            dirty: false,
        }
    }
}

/// The choices from the initial state through the stack to `choice`.
fn path(prefix: &[Choice], stack: &[Frame], choice: Choice) -> Vec<Choice> {
    let leading = stack.iter().filter_map(|f| f.leading).chain([choice]);
    prefix.iter().copied().chain(leading).collect()
}

impl Walk {
    /// The key of `state`, reached by a step of `last` with `used`
    /// preemptions on its path.
    fn key(&self, state: &SimState, last: Option<ProcessId>, used: u32) -> Vec<u64> {
        let mut key = state.key();
        if self.preemptions.is_some() {
            key.push(last.map_or(u64::MAX, |p| p.0 as u64));
            key.push(used as u64);
        }
        key
    }

    /// A sequential exploration from `initial` over a local memo.
    pub(crate) fn explore(&self, initial: SimState) -> ExploreReport {
        let mut report = ExploreReport::default();
        if initial.is_terminal() {
            report.terminal(&initial, Vec::new);
            return report;
        }
        let key = self.key(&initial, None, 0);
        let mut visited = HashSet::from([key.clone()]);
        report.states_expanded = 1;
        self.run(&mut visited, &mut report, (initial, key, Vec::new()));
        report
    }

    /// Walk depth-first from a claimed root, tallying into `report`; `true`
    /// when cut short (a violation under `stop_at_first_violation`,
    /// `max_states`, a back edge under `stop_at_cycle`, [`Memo::stopped`]).
    pub(crate) fn run<M: Memo>(
        &self,
        memo: &mut M,
        report: &mut ExploreReport,
        (state, key, prefix): Root,
    ) -> bool {
        let mut on_path = HashSet::from([key.clone()]);
        let mut stack = vec![Frame::new(state, key, None, 0)];

        while let Some(top) = stack.last_mut() {
            let Some(&choice) = top.choices.get(top.next) else {
                let done = stack.pop().expect("the top frame");
                on_path.remove(&done.key);
                memo.finish(&done.key, done.dirty);
                if let Some(parent) = stack.last_mut() {
                    parent.dirty |= done.dirty;
                }
                continue;
            };
            top.next += 1;
            if memo.stopped() {
                return true;
            }
            let mut used = top.used;
            if let Some(bound) = self.preemptions {
                // A preemption switches away from a still-runnable process.
                let last = top.leading.map(|c| c.pid);
                used += last.is_some_and(|l| l != choice.pid && top.state.runnable().contains(&l))
                    as u32;
                if used > bound {
                    continue;
                }
            }
            let succ = top.state.successor(choice);
            let depth = prefix.len() + stack.len();
            report.max_depth_seen = report.max_depth_seen.max(depth);

            if succ.is_terminal() {
                let violates = report.terminal(&succ, || path(&prefix, &stack, choice));
                if violates && self.config.stop_at_first_violation {
                    return true;
                }
                continue;
            }
            let key = self.key(&succ, Some(choice.pid), used);
            if on_path.contains(&key) {
                report.cycle_found = true;
                if self.stop_at_cycle {
                    return true;
                }
                continue;
            }
            match memo.claim(&key, &succ) {
                Claim::Seen => continue,
                Claim::Dirty => {}
                Claim::Fresh => {
                    if memo.count(report) >= self.config.max_states {
                        report.truncated = true;
                        return true;
                    }
                    if depth >= self.config.max_depth {
                        // Claimed but never expanded: finished, not clean.
                        report.truncated = true;
                        memo.finish(&key, true);
                    } else if let Some((succ, key)) =
                        memo.offer(succ, key, || path(&prefix, &stack, choice))
                    {
                        on_path.insert(key.clone());
                        stack.push(Frame::new(succ, key, Some(choice), used));
                        continue;
                    }
                }
            }
            // The edge leaves this walk's finished region: not clean.
            stack.last_mut().expect("the scanning frame").dirty = true;
        }
        false
    }
}

/// Breadth-first exploration: like [`explore`], but visits states in
/// nondecreasing path length, so the first violation found is a
/// **shortest** violating execution — the most readable witness for a
/// lower-bound report. Costs more memory than the DFS (the frontier holds
/// cloned states); prefer [`explore`] for pure verification.
pub fn explore_bfs(initial: SimState, config: ExplorerConfig) -> ExploreReport {
    use std::collections::VecDeque;

    if initial.is_terminal() {
        return explore(initial, config); // degenerate case: same handling
    }
    let mut visited = HashSet::from([initial.key()]);
    let mut report = ExploreReport {
        states_expanded: 1,
        ..ExploreReport::default()
    };
    let mut frontier = VecDeque::from([(initial, Vec::new())]);

    while let Some((state, path)) = frontier.pop_front() {
        if path.len() >= config.max_depth {
            report.truncated = true;
            continue;
        }
        for choice in state.choices() {
            let succ = state.successor(choice);
            // Depth of succ: every step on `path` plus this one. Counted
            // here (not at queue-pop) so terminal steps — which are never
            // enqueued — contribute, matching the DFS explorer.
            report.max_depth_seen = report.max_depth_seen.max(path.len() + 1);
            if succ.is_terminal() {
                let violates = report.terminal(&succ, || [&path[..], &[choice]].concat());
                if violates && config.stop_at_first_violation {
                    return report;
                }
                continue;
            }
            let key = succ.key();
            if !visited.insert(key) {
                // Already reached at an equal-or-smaller depth (BFS order):
                // revisiting cannot shorten a witness. Cycles are detected
                // by the DFS explorer, not here.
                continue;
            }
            report.states_expanded += 1;
            if report.states_expanded >= config.max_states {
                report.truncated = true;
                return report;
            }
            frontier.push_back((succ, [&path[..], &[choice]].concat()));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::Heap;
    use crate::ops::{Op, OpResult};
    use crate::process::{Process, SoloDecider, Status};
    use ff_spec::{Bound, Input, ObjectId, BOTTOM};

    fn solos(inputs: &[u32], steps: u64) -> Vec<Box<dyn Process>> {
        inputs
            .iter()
            .map(|&v| Box::new(SoloDecider::new(Input(v), steps)) as Box<dyn Process>)
            .collect()
    }

    /// The naive Herlihy one-shot: CAS(O0, ⊥, input), decide winner.
    #[derive(Clone)]
    struct OneShot {
        input: Input,
        status: Status,
    }
    impl OneShot {
        fn new(v: u32) -> Self {
            OneShot {
                input: Input(v),
                status: Status::Running,
            }
        }
    }
    impl Process for OneShot {
        fn next_op(&self) -> Op {
            Op::Cas {
                obj: ObjectId(0),
                exp: BOTTOM,
                new: self.input.to_word(),
            }
        }
        fn apply(&mut self, result: OpResult) -> Status {
            let old = result.cas_old();
            let decided = Input::from_word(old).unwrap_or(self.input);
            self.status = Status::Decided(decided);
            self.status
        }
        fn status(&self) -> Status {
            self.status
        }
        fn input(&self) -> Input {
            self.input
        }
        fn snapshot(&self) -> Vec<u64> {
            vec![
                self.input.0 as u64,
                match self.status {
                    Status::Running => 0,
                    Status::Decided(v) => 1 + v.0 as u64,
                },
            ]
        }
        fn box_clone(&self) -> Box<dyn Process> {
            Box::new(self.clone())
        }
    }

    fn one_shots(inputs: &[u32]) -> Vec<Box<dyn Process>> {
        inputs
            .iter()
            .map(|&v| Box::new(OneShot::new(v)) as Box<dyn Process>)
            .collect()
    }

    #[test]
    fn violation_counts_track_disjoint_kinds_exactly() {
        use ff_spec::ProcessId;
        let validity = ConsensusViolation::Validity {
            process: ProcessId(0),
            decided: Input(9),
            inputs: vec![Input(1)],
        };
        let consistency = ConsensusViolation::Consistency {
            a: (ProcessId(0), Input(1)),
            b: (ProcessId(1), Input(2)),
        };
        let wait_freedom = ConsensusViolation::WaitFreedom {
            process: ProcessId(2),
            steps: 7,
            budget: Some(5),
        };
        let mut c = ViolationCounts::default();
        c.absorb(std::slice::from_ref(&validity));
        c.absorb(std::slice::from_ref(&consistency));
        c.absorb(std::slice::from_ref(&wait_freedom));
        // A terminal violating two properties still counts once.
        c.absorb(&[validity, consistency]);
        // A clean terminal counts zero.
        c.absorb(&[]);
        assert_eq!((c.validity, c.consistency, c.wait_freedom), (2, 2, 1));
        // Four distinct violating terminals. The old max-of-kinds any()
        // reported 2 here, undercounting disjoint violations.
        assert_eq!(c.any(), 4);

        let mut merged = ViolationCounts::default();
        merged.merge(&c);
        merged.merge(&c);
        assert_eq!(merged.any(), 8);
        assert_eq!(merged.validity, 4);
    }

    #[test]
    fn bfs_report_matches_dfs_field_by_field() {
        // Full-scan (stop_at_first_violation: false) on a violating
        // configuration: BFS must produce the same aggregate accounting
        // as DFS — violating-terminal counts per kind, terminals,
        // agreed values, and deepest path including terminal steps.
        let plan = FaultPlan::overriding(1, Bound::Unbounded);
        let mk = || SimState::new(one_shots(&[10, 20, 30]), Heap::new(1, 0), plan.clone());
        let cfg = ExplorerConfig {
            stop_at_first_violation: false,
            ..ExplorerConfig::default()
        };
        let dfs = explore(mk(), cfg);
        let bfs = explore_bfs(mk(), cfg);
        assert_eq!(dfs.states_expanded, bfs.states_expanded);
        assert_eq!(dfs.terminals, bfs.terminals);
        assert_eq!(dfs.agreed_values, bfs.agreed_values);
        assert_eq!(dfs.violation_counts, bfs.violation_counts);
        // max_depth_seen is traversal-dependent (DFS discovers states
        // along tree paths that may exceed the shortest path): BFS is a
        // lower bound, never larger.
        assert!(dfs.max_depth_seen >= bfs.max_depth_seen);
        assert_eq!(dfs.truncated, bfs.truncated);
        assert!(dfs.violation_counts.any() > 0, "{dfs:?}");
        assert!(
            dfs.violation.is_some() && bfs.violation.is_some(),
            "both must surface a witness"
        );
    }

    #[test]
    fn trivial_processes_verify() {
        // SoloDeciders decide their own inputs; with equal inputs every
        // terminal agrees, so the exploration verifies.
        let state = SimState::new(solos(&[1, 1], 2), Heap::new(1, 0), FaultPlan::none());
        let report = explore(state, ExplorerConfig::default());
        assert!(report.verified(), "{report:?}");
        assert!(report.terminals >= 1);
        assert_eq!(report.agreed_values, BTreeSet::from([1]));
    }

    #[test]
    fn solo_deciders_with_distinct_inputs_violate_consistency() {
        let state = SimState::new(solos(&[1, 2], 1), Heap::new(1, 0), FaultPlan::none());
        let report = explore(state, ExplorerConfig::default());
        assert!(report.violation.is_some());
        let w = report.violation.unwrap();
        assert!(w
            .violations
            .iter()
            .any(|v| matches!(v, ConsensusViolation::Consistency { .. })));
    }

    #[test]
    fn fault_free_one_shot_verifies_exhaustively() {
        // Herlihy's protocol is correct without faults: no interleaving of
        // 3 processes violates consensus (Section 2).
        let state = SimState::new(one_shots(&[10, 20, 30]), Heap::new(1, 0), FaultPlan::none());
        let report = explore(state, ExplorerConfig::default());
        assert!(report.verified(), "{report:?}");
        // Each of the three processes can be first: all three values
        // appear as agreed outcomes across schedules.
        assert_eq!(
            report.agreed_values,
            BTreeSet::from([10, 20, 30]),
            "{report:?}"
        );
    }

    #[test]
    fn faulty_one_shot_yields_violation_witness() {
        // With one unboundedly-faulty object, the naive protocol breaks —
        // and the explorer finds a concrete witness (E9's mechanism).
        let plan = FaultPlan::overriding(1, Bound::Unbounded);
        let state = SimState::new(one_shots(&[10, 20, 30]), Heap::new(1, 0), plan.clone());
        let report = explore(state, ExplorerConfig::default());
        assert!(report.violation.is_some(), "{report:?}");
        let w = report.violation.as_ref().unwrap();

        // The witness must replay to the same outcomes.
        let replayed = w.replay(one_shots(&[10, 20, 30]), Heap::new(1, 0), &plan);
        assert_eq!(replayed.outcomes, {
            let mut outs = w.outcomes.clone();
            // Witness outcomes carry steps = 0; align for comparison.
            for (r, o) in replayed.outcomes.iter().zip(outs.iter_mut()) {
                o.steps = r.steps;
            }
            outs
        });
        let verdict = check_consensus(&replayed.outcomes, None);
        assert!(!verdict.ok(), "replay must reproduce the violation");
    }

    #[test]
    fn two_process_one_shot_with_faults_is_still_safe() {
        // Theorem 4's anomaly, mechanically: with n = 2 even unbounded
        // overriding faults cannot break the single-object protocol,
        // because an overriding write by the loser returns the winner's
        // value (old) and the loser adopts it.
        //
        // NOTE: this is the *Figure 1* protocol in disguise: OneShot
        // adopts `old` when old ≠ ⊥, exactly like decide() in Figure 1.
        let plan = FaultPlan::overriding(1, Bound::Unbounded);
        let state = SimState::new(one_shots(&[10, 20]), Heap::new(1, 0), plan);
        let report = explore(state, ExplorerConfig::default());
        assert!(report.verified(), "{report:?}");
    }

    #[test]
    fn max_states_truncation_is_reported() {
        let plan = FaultPlan::overriding(1, Bound::Unbounded);
        let state = SimState::new(one_shots(&[10, 20]), Heap::new(1, 0), plan);
        let report = explore(
            state,
            ExplorerConfig {
                max_states: 2,
                max_depth: 100,
                stop_at_first_violation: true,
                threads: 1,
            },
        );
        assert!(report.truncated);
        assert!(!report.verified());
    }

    #[test]
    fn max_depth_truncation_is_reported() {
        let state = SimState::new(solos(&[1, 1], 50), Heap::new(1, 0), FaultPlan::none());
        let report = explore(
            state,
            ExplorerConfig {
                max_states: 1_000_000,
                max_depth: 3,
                stop_at_first_violation: true,
                threads: 1,
            },
        );
        assert!(report.truncated);
    }

    #[test]
    fn bfs_finds_the_shortest_witness() {
        // The canonical Theorem 18 violation is 3 steps (one CAS per
        // process); BFS must find exactly that.
        let plan = FaultPlan::overriding(1, Bound::Unbounded);
        let state = SimState::new(one_shots(&[10, 20, 30]), Heap::new(1, 0), plan);
        let report = explore_bfs(state, ExplorerConfig::default());
        let w = report.violation.expect("violation must exist");
        assert_eq!(w.choices.len(), 3, "canonical witness is 3 steps: {w:?}");
    }

    #[test]
    fn bfs_agrees_with_dfs_on_verification() {
        let plan = FaultPlan::overriding(1, Bound::Unbounded);
        let mk = || SimState::new(one_shots(&[10, 20]), Heap::new(1, 0), plan.clone());
        let dfs = explore(mk(), ExplorerConfig::default());
        let bfs = explore_bfs(mk(), ExplorerConfig::default());
        assert!(dfs.verified());
        assert!(bfs.violation.is_none() && !bfs.truncated);
        assert_eq!(dfs.agreed_values, bfs.agreed_values);
    }

    #[test]
    fn bfs_witness_replays() {
        let plan = FaultPlan::overriding(1, Bound::Unbounded);
        let state = SimState::new(one_shots(&[10, 20, 30]), Heap::new(1, 0), plan.clone());
        let report = explore_bfs(state, ExplorerConfig::default());
        let w = report.violation.unwrap();
        let replay = w.replay(one_shots(&[10, 20, 30]), Heap::new(1, 0), &plan);
        assert!(!check_consensus(&replay.outcomes, None).ok());
    }

    #[test]
    fn bfs_truncation_reported() {
        let plan = FaultPlan::overriding(1, Bound::Unbounded);
        let state = SimState::new(one_shots(&[10, 20]), Heap::new(1, 0), plan);
        let report = explore_bfs(
            state,
            ExplorerConfig {
                max_states: 2,
                max_depth: 100,
                stop_at_first_violation: true,
                threads: 1,
            },
        );
        assert!(report.truncated);
    }

    #[test]
    fn cycle_detection_flags_potential_nontermination() {
        // A process that CASes ⊥→⊥ forever... does not change state, so
        // build a genuine 2-cycle: alternate writes between two register
        // values.
        #[derive(Clone)]
        struct Flipper {
            phase: u8,
        }
        impl Process for Flipper {
            fn next_op(&self) -> Op {
                Op::Write(crate::heap::RegId(0), (self.phase as u64) % 2)
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
        let state = SimState::new(
            vec![Box::new(Flipper { phase: 0 })],
            Heap::new(0, 1),
            FaultPlan::none(),
        );
        let report = explore(state, ExplorerConfig::default());
        assert!(report.cycle_found);
        assert!(!report.verified());
    }
}
