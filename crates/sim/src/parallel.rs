//! Parallel exhaustive exploration: [`explore`] across worker threads,
//! with a report that stays **exact**.
//!
//! # Design
//!
//! Each worker runs the explorer's one depth-first walk (see
//! [`crate::explorer`]) from roots on a **shared queue**, claiming states
//! in a **sharded claim map** keyed on exact [`SimState::key`]s (no
//! fingerprints, so pruning never merges two states). Exactly one worker
//! expands each reachable non-terminal state, so every edge is scanned
//! once, as in the sequential DFS, and `states_expanded`, `terminals`,
//! `agreed_values` and `violation_counts` do not depend on the partition.
//! A walk that finds a fresh state while the queue is hungry donates it,
//! with its path prefix, instead of descending into it.
//!
//! # Exact cycle detection
//!
//! A back edge inside one walk is caught as in the sequential explorer.
//! Around any cycle, every edge `u → v` scanned after `v` **finished**
//! strictly decreases finish time, so a cycle no walk saw has an edge
//! whose target was claimed but *unfinished* (in progress elsewhere, or
//! queued) when scanned. Workers record such targets as *suspended*, and
//! a post-pass runs the same walk from them, ending at the first back
//! edge and pruning at states that finished **clean**: dirtiness is
//! inherited along every edge into unfinished or dirty territory, so a
//! clean state reaches only clean states, along edges of decreasing
//! finish time, and lies on no cycle.
//!
//! # Determinism
//!
//! Untruncated full scans (`stop_at_first_violation: false`) merge to the
//! sequential report whatever the thread count, witness included: it is
//! re-derived by a sequential first-violation search. Two things depend
//! on the schedule: `max_depth_seen` (claim order decides the path that
//! first reaches a shared state), and the partial counts of an
//! early-stopped or truncated run.

use crate::explorer::{explore, Claim, ExploreReport, ExplorerConfig, Memo, Root, Walk, Witness};
use crate::state::{Choice, SimState};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

/// Resolve a worker count for parallel exploration: the
/// `FF_EXPLORER_THREADS` environment variable when set to a positive
/// integer, otherwise the machine's available parallelism.
pub fn default_threads() -> usize {
    std::env::var("FF_EXPLORER_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Claim-map entry lifecycle: claimed, then finished clean (its whole
/// region finished clean, so no cycle passes through it) or dirty.
#[derive(Clone, Copy, PartialEq, Eq)]
enum EntryState {
    InProgress,
    DoneClean,
    DoneDirty,
}

/// Visited/claim map sharded to keep lock contention off the hot path.
struct ClaimMap {
    shards: Vec<Mutex<HashMap<Vec<u64>, EntryState>>>,
    mask: usize,
}

impl ClaimMap {
    fn new(threads: usize) -> Self {
        // Power-of-two shard count, comfortably above the worker count.
        let n = (threads * 16).next_power_of_two().max(64);
        ClaimMap {
            shards: (0..n).map(|_| Mutex::new(HashMap::new())).collect(),
            mask: n - 1,
        }
    }

    fn shard(&self, key: &[u64]) -> &Mutex<HashMap<Vec<u64>, EntryState>> {
        // FNV-1a over the words; independent of HashMap's internal hasher.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for w in key {
            h ^= w;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        &self.shards[(h as usize) & self.mask]
    }

    /// Claim `key`: `None` when we inserted it (the caller now owns its
    /// expansion), otherwise the entry found.
    fn claim(&self, key: &[u64]) -> Option<EntryState> {
        let mut shard = lock(self.shard(key));
        let seen = shard.get(key).copied();
        if seen.is_none() {
            shard.insert(key.to_vec(), EntryState::InProgress);
        }
        seen
    }

    fn finish(&self, key: &[u64], dirty: bool) {
        if let Some(entry) = lock(self.shard(key)).get_mut(key) {
            *entry = [EntryState::DoneClean, EntryState::DoneDirty][dirty as usize];
        }
    }

    fn is_done_clean(&self, key: &[u64]) -> bool {
        matches!(lock(self.shard(key)).get(key), Some(EntryState::DoneClean))
    }
}

/// Shared work queue with idle-count termination detection.
#[derive(Default)]
struct WorkQueue {
    inner: Mutex<QueueInner>,
    available: Condvar,
    threads: usize,
    /// Queue length and idle count for `is_hungry`, which runs once per
    /// fresh state and so reads them without the lock.
    approx_len: AtomicU64,
    approx_idle: AtomicU64,
}

#[derive(Default)]
struct QueueInner {
    tasks: VecDeque<Root>,
    idle: usize,
    shutdown: bool,
}

impl WorkQueue {
    fn push(&self, task: Root) {
        lock(&self.inner).tasks.push_back(task);
        self.approx_len.fetch_add(1, Ordering::Relaxed);
        self.available.notify_one();
    }

    /// `true` when parked work is scarce relative to the workers that
    /// could be starved for it. Racy by design — only a donation
    /// heuristic, never a correctness gate.
    fn is_hungry(&self) -> bool {
        self.approx_len.load(Ordering::Relaxed)
            < self.threads as u64 + self.approx_idle.load(Ordering::Relaxed)
    }

    /// Blocks until a task is available or every worker is idle with an
    /// empty queue (global completion). `None` means "done".
    fn pop(&self) -> Option<Root> {
        let mut inner = lock(&self.inner);
        loop {
            if inner.shutdown {
                return None;
            }
            if let Some(t) = inner.tasks.pop_front() {
                self.approx_len.fetch_sub(1, Ordering::Relaxed);
                return Some(t);
            }
            inner.idle += 1;
            self.approx_idle.fetch_add(1, Ordering::Relaxed);
            if inner.idle == self.threads {
                inner.shutdown = true;
                self.available.notify_all();
                return None;
            }
            inner = self
                .available
                .wait(inner)
                .unwrap_or_else(|p| p.into_inner());
            inner.idle -= 1;
            self.approx_idle.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Wake everyone for an early stop (first violation / truncation).
    fn cancel(&self) {
        lock(&self.inner).shutdown = true;
        self.available.notify_all();
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// What every worker shares.
struct Shared {
    claims: ClaimMap,
    queue: WorkQueue,
    states: AtomicU64,
    stop: AtomicBool,
    walk: Walk,
}

/// Targets of edges into unfinished territory: the post-pass's roots.
type Suspended = HashMap<Vec<u64>, SimState>;

/// One worker's memo: the shared claim map and queue, plus the targets
/// it suspended.
struct Worker<'a> {
    shared: &'a Shared,
    suspended: Suspended,
}

impl Memo for Worker<'_> {
    fn claim(&mut self, key: &[u64], state: &SimState) -> Claim {
        match self.shared.claims.claim(key) {
            None => Claim::Fresh,
            Some(EntryState::DoneClean) => Claim::Seen,
            Some(EntryState::DoneDirty) => Claim::Dirty,
            Some(EntryState::InProgress) => {
                // Cross-worker boundary: the target may close a cycle.
                self.suspended
                    .entry(key.to_vec())
                    .or_insert_with(|| state.clone());
                Claim::Dirty
            }
        }
    }

    fn count(&mut self, _: &mut ExploreReport) -> u64 {
        self.shared.states.fetch_add(1, Ordering::SeqCst) + 1
    }

    fn finish(&mut self, key: &[u64], dirty: bool) {
        self.shared.claims.finish(key, dirty);
    }

    fn offer(
        &mut self,
        state: SimState,
        key: Vec<u64>,
        path: impl FnOnce() -> Vec<Choice>,
    ) -> Option<(SimState, Vec<u64>)> {
        if !self.shared.queue.is_hungry() {
            return Some((state, key));
        }
        // Fresh, so not suspended yet; its region leaves this walk.
        self.suspended.insert(key.clone(), state.clone());
        self.shared.queue.push((state, key, path()));
        None
    }

    fn stopped(&self) -> bool {
        self.shared.stop.load(Ordering::Relaxed)
    }
}

/// Exhaustively explore all executions from `initial` on
/// `config.threads` worker threads: exactly [`explore`] with one thread,
/// and with more the same report in untruncated full scans, witness
/// included (see the module docs for what depends on the schedule).
pub fn explore_parallel(initial: SimState, config: ExplorerConfig) -> ExploreReport {
    if config.threads <= 1 || initial.is_terminal() {
        return explore(initial, config);
    }

    let shared = Shared {
        claims: ClaimMap::new(config.threads),
        queue: WorkQueue {
            threads: config.threads,
            ..WorkQueue::default()
        },
        states: AtomicU64::new(1),
        stop: AtomicBool::new(false),
        walk: Walk {
            config,
            ..Walk::default()
        },
    };
    // Claim the root and seed the queue; a full scan re-derives its
    // witness from the initial state.
    let reseed = initial.clone();
    let key = initial.key();
    shared.claims.claim(&key);
    shared.queue.push((initial, key, Vec::new()));

    let workers: Vec<(ExploreReport, Suspended)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.threads)
            .map(|_| scope.spawn(|| worker(&shared)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });

    let mut report = ExploreReport {
        states_expanded: shared.states.load(Ordering::SeqCst).min(config.max_states),
        ..ExploreReport::default()
    };
    let mut witnesses: Vec<Witness> = Vec::new();
    let mut suspended = Suspended::new();
    for (w, s) in workers {
        report.terminals += w.terminals;
        report.max_depth_seen = report.max_depth_seen.max(w.max_depth_seen);
        report.agreed_values.extend(w.agreed_values);
        report.violation_counts.merge(&w.violation_counts);
        report.truncated |= w.truncated;
        report.cycle_found |= w.cycle_found;
        witnesses.extend(w.violation);
        suspended.extend(s);
    }

    // Full scans re-derive the witness with a sequential first-violation
    // search, so it is `explore`'s; an early stop raced, so it takes the
    // least candidate found (as does a truncated scan whose re-search
    // found none).
    let refind = !config.stop_at_first_violation && !witnesses.is_empty();
    report.violation = refind
        .then(|| {
            let first = ExplorerConfig {
                stop_at_first_violation: true,
                ..config
            };
            explore(reseed, first).violation
        })
        .flatten()
        .or_else(|| witnesses.into_iter().min_by_key(witness_rank));

    // The cycle post-pass (see module docs), for a run that completed
    // with no cycle known yet.
    report.cycle_found = report.cycle_found
        || (!report.truncated
            && !shared.stop.load(Ordering::SeqCst)
            && cycle_reachable_from(suspended, &shared.claims));

    report
}

/// Total order on witnesses for deterministic tie-breaking: compare the
/// choice sequences lexicographically (shorter prefixes first).
fn witness_rank(w: &Witness) -> Vec<(u32, u8, u8, u64)> {
    use crate::fault_ctl::StepDecision::{Apply, Hang};
    use ff_spec::FaultDecision::*;
    let rank = |c: &Choice| {
        let (kind, payload) = match c.decision {
            Apply(Correct) => (0u8, 0u64),
            Apply(Override) => (1, 0),
            Apply(Silent) => (2, 0),
            Apply(Invisible { returned }) => (3, returned),
            Apply(Arbitrary { written }) => (4, written),
            Hang => (5, 0),
        };
        (c.pid.0 as u32, c.had_opportunity as u8, kind, payload)
    };
    w.choices.iter().map(rank).collect()
}

/// One worker: walk donated roots until the queue drains or a walk ends
/// the exploration. Returns its tallies and suspended targets.
fn worker(shared: &Shared) -> (ExploreReport, Suspended) {
    let mut memo = Worker {
        shared,
        suspended: Suspended::new(),
    };
    let mut report = ExploreReport::default();
    while let Some(root) = shared.queue.pop() {
        // Frames abandoned by a cut-short walk stay InProgress; the
        // post-pass is skipped in stopped runs, so nothing reads them.
        if shared.walk.run(&mut memo, &mut report, root) || shared.stop.load(Ordering::Relaxed) {
            shared.stop.store(true, Ordering::SeqCst);
            shared.queue.cancel();
            break;
        }
    }
    (report, memo.suspended)
}

/// The post-pass's memo: a state certified clean by the main phase is
/// pruned, any other is walked once.
impl Memo for (&ClaimMap, HashSet<Vec<u64>>) {
    fn claim(&mut self, key: &[u64], _: &SimState) -> Claim {
        if self.0.is_done_clean(key) || !self.1.insert(key.to_vec()) {
            Claim::Seen
        } else {
            Claim::Fresh
        }
    }
}

/// Post-pass: exact sequential cycle search from the suspended targets,
/// pruning at states certified clean by the main phase.
fn cycle_reachable_from(suspended: Suspended, claims: &ClaimMap) -> bool {
    let walk = Walk {
        config: ExplorerConfig {
            max_states: u64::MAX,
            max_depth: usize::MAX,
            stop_at_first_violation: false,
            threads: 1,
        },
        preemptions: None,
        stop_at_cycle: true,
    };
    let mut memo = (claims, HashSet::new());
    let mut report = ExploreReport::default();
    suspended.into_iter().any(|(key, state)| {
        memo.claim(&key, &state) == Claim::Fresh
            && walk.run(&mut memo, &mut report, (state, key, Vec::new()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault_ctl::FaultPlan;
    use crate::heap::Heap;
    use crate::ops::{Op, OpResult};
    use crate::process::{Process, SoloDecider, Status};
    use ff_spec::{check_consensus, Bound, Input, ObjectId, BOTTOM};

    /// The naive Herlihy one-shot (same as the sequential explorer's test
    /// process): CAS(O0, ⊥, input), adopt the winner.
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

    /// A process that writes its phase forever: a 2-cycle in the state
    /// graph.
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

    fn full_cfg(threads: usize) -> ExplorerConfig {
        ExplorerConfig {
            stop_at_first_violation: false,
            threads,
            ..ExplorerConfig::default()
        }
    }

    #[test]
    fn one_thread_delegates_to_sequential() {
        let mk = || SimState::new(one_shots(&[10, 20, 30]), Heap::new(1, 0), FaultPlan::none());
        let seq = explore(mk(), full_cfg(1));
        let par = explore_parallel(mk(), full_cfg(1));
        assert_eq!(seq.states_expanded, par.states_expanded);
        assert_eq!(seq.terminals, par.terminals);
    }

    #[test]
    fn parallel_matches_sequential_on_verifying_config() {
        let mk = || SimState::new(one_shots(&[10, 20, 30]), Heap::new(1, 0), FaultPlan::none());
        let seq = explore(mk(), full_cfg(1));
        for threads in [2, 4, 8] {
            let par = explore_parallel(mk(), full_cfg(threads));
            assert!(par.verified(), "threads={threads}: {par:?}");
            assert_eq!(
                par.states_expanded, seq.states_expanded,
                "threads={threads}"
            );
            assert_eq!(par.terminals, seq.terminals, "threads={threads}");
            assert_eq!(par.agreed_values, seq.agreed_values, "threads={threads}");
            assert_eq!(
                par.violation_counts, seq.violation_counts,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn parallel_matches_sequential_on_violating_full_scan() {
        let plan = FaultPlan::overriding(1, Bound::Unbounded);
        let mk = || SimState::new(one_shots(&[10, 20, 30]), Heap::new(1, 0), plan.clone());
        let seq = explore(mk(), full_cfg(1));
        for threads in [2, 4] {
            let par = explore_parallel(mk(), full_cfg(threads));
            assert_eq!(par.states_expanded, seq.states_expanded);
            assert_eq!(par.terminals, seq.terminals);
            assert_eq!(par.agreed_values, seq.agreed_values);
            assert_eq!(par.violation_counts, seq.violation_counts);
            // Full-scan witnesses are re-derived sequentially: identical.
            let (sw, pw) = (
                seq.violation.as_ref().unwrap(),
                par.violation.as_ref().unwrap(),
            );
            assert_eq!(sw.choices, pw.choices, "threads={threads}");
            assert_eq!(sw.outcomes, pw.outcomes, "threads={threads}");
        }
    }

    #[test]
    fn parallel_stop_mode_finds_a_real_witness() {
        let plan = FaultPlan::overriding(1, Bound::Unbounded);
        let state = SimState::new(one_shots(&[10, 20, 30]), Heap::new(1, 0), plan.clone());
        let cfg = ExplorerConfig {
            threads: 4,
            ..ExplorerConfig::default()
        };
        let report = explore_parallel(state, cfg);
        let w = report.violation.expect("violation exists");
        let replay = w.replay(one_shots(&[10, 20, 30]), Heap::new(1, 0), &plan);
        assert!(!check_consensus(&replay.outcomes, None).ok());
    }

    #[test]
    fn parallel_detects_cross_worker_cycles() {
        // The Flipper graph (a 2-cycle) from the sequential explorer's
        // cycle test: every thread count must flag it.
        for threads in [1, 2, 4] {
            let state = SimState::new(
                vec![
                    Box::new(Flipper { phase: 0 }),
                    Box::new(Flipper { phase: 1 }),
                ],
                Heap::new(0, 1),
                FaultPlan::none(),
            );
            let report = explore_parallel(
                state,
                ExplorerConfig {
                    threads,
                    ..ExplorerConfig::default()
                },
            );
            assert!(report.cycle_found, "threads={threads}: {report:?}");
            assert!(!report.verified());
        }
    }

    #[test]
    fn post_pass_finds_a_cycle_through_unfinished_states() {
        // One Flipper: s0 → s1 → s2 → s1. Each claim-map entry below is
        // what the main phase leaves when the cycle crosses workers: no
        // walk saw a back edge, and s1 was suspended.
        let s0 = SimState::new(
            vec![Box::new(Flipper { phase: 0 })],
            Heap::new(0, 1),
            FaultPlan::none(),
        );
        let s1 = s0.successor(s0.choices()[0]);
        let s2 = s1.successor(s1.choices()[0]);
        assert_eq!(s2.successor(s2.choices()[0]).key(), s1.key());
        let suspended = Suspended::from([(s1.key(), s1.clone())]);
        let claims_with = |dirty1: Option<bool>, dirty2: Option<bool>| {
            let claims = ClaimMap::new(2);
            for (state, dirty) in [(&s1, dirty1), (&s2, dirty2)] {
                claims.claim(&state.key());
                if let Some(dirty) = dirty {
                    claims.finish(&state.key(), dirty);
                }
            }
            claims
        };
        for (e1, e2) in [
            (None, None),
            (None, Some(true)),
            (Some(true), None),
            (Some(true), Some(true)),
        ] {
            let claims = claims_with(e1, e2);
            let found = cycle_reachable_from(suspended.clone(), &claims);
            assert!(found, "{e1:?} {e2:?}");
        }
        // States certified clean are pruned, so no walk starts.
        let clean = claims_with(Some(false), Some(false));
        assert!(!cycle_reachable_from(suspended, &clean));
    }

    #[test]
    fn parallel_reports_truncation() {
        let plan = FaultPlan::overriding(1, Bound::Unbounded);
        let state = SimState::new(one_shots(&[10, 20]), Heap::new(1, 0), plan);
        let report = explore_parallel(
            state,
            ExplorerConfig {
                max_states: 2,
                max_depth: 100,
                stop_at_first_violation: true,
                threads: 4,
            },
        );
        assert!(report.truncated);
        assert!(!report.verified());
    }

    #[test]
    fn deterministic_across_runs_and_thread_counts() {
        let plan = FaultPlan::overriding(1, Bound::Unbounded);
        let mk = || SimState::new(one_shots(&[10, 20, 30]), Heap::new(1, 0), plan.clone());
        let baseline = explore_parallel(mk(), full_cfg(2));
        for threads in [2, 3, 4] {
            for _ in 0..3 {
                let r = explore_parallel(mk(), full_cfg(threads));
                assert_eq!(r.states_expanded, baseline.states_expanded);
                assert_eq!(r.terminals, baseline.terminals);
                assert_eq!(r.agreed_values, baseline.agreed_values);
                assert_eq!(r.violation_counts, baseline.violation_counts);
                assert_eq!(
                    r.violation.as_ref().unwrap().choices,
                    baseline.violation.as_ref().unwrap().choices
                );
            }
        }
    }

    #[test]
    fn solo_deciders_terminal_counts_match() {
        let mk = || {
            SimState::new(
                vec![
                    Box::new(SoloDecider::new(Input(1), 3)) as Box<dyn Process>,
                    Box::new(SoloDecider::new(Input(1), 3)) as Box<dyn Process>,
                ],
                Heap::new(1, 0),
                FaultPlan::none(),
            )
        };
        let seq = explore(mk(), full_cfg(1));
        let par = explore_parallel(mk(), full_cfg(4));
        assert_eq!(seq.terminals, par.terminals);
        assert_eq!(seq.states_expanded, par.states_expanded);
        assert!(par.verified());
    }
}
