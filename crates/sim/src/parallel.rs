//! Parallel exhaustive exploration: a work-sharing variant of
//! [`explore`] that partitions the state space across
//! worker threads while keeping the report **exact**.
//!
//! # Design
//!
//! Workers run independent depth-first searches over disjoint regions of
//! the state graph, coordinated through two shared structures:
//!
//! * a **sharded claim map** keyed on exact [`SimState::key`]s (the same
//!   lossless keys the sequential explorer memoizes on — no fingerprints,
//!   so pruning can never collide two distinct states). Claiming a state
//!   is an atomic insert; exactly one worker ever expands each reachable
//!   non-terminal state, so `states_expanded`, `terminals`,
//!   `agreed_values` and `violation_counts` are *partition-independent*:
//!   every edge out of every reachable non-terminal state is scanned
//!   exactly once globally, which is precisely what the sequential DFS
//!   does.
//! * a **shared task queue** of unexplored subtree roots. A worker that
//!   discovers a fresh state while the queue is hungry donates it (with
//!   its root-path prefix) instead of descending locally, so idle workers
//!   always find work near the frontier.
//!
//! # Exact cycle detection
//!
//! Each worker keeps the DFS `on_path` set for its local stack, so a back
//! edge within one worker's region is caught exactly as in the sequential
//! explorer. A cycle that *crosses* regions cannot be seen locally, but it
//! also cannot hide: around any cycle every edge `u → v` scanned while
//! `v` was already **finished** strictly decreases finish time, and an
//! edge into a state the scanner itself put on its path is a detected
//! back edge — so an undetected cycle must contain an edge whose target
//! was claimed but *unfinished* (in progress on another worker, or parked
//! in the queue) at scan time. Workers record every such edge target as
//! *suspended*. After the main phase, a sequential post-pass runs DFS from
//! the suspended targets with exact back-edge detection, pruning at
//! states that finished **clean** — a clean state's entire reachable
//! region finished clean (dirtiness is inherited from every edge into
//! unfinished or dirty territory), and finish times strictly decrease
//! along all its out-edges, so no cycle passes through it. The post-pass
//! therefore only walks the contaminated neighborhood of cross-worker
//! boundaries, which stays small when donation is rare.
//!
//! # Determinism
//!
//! For untruncated full scans (`stop_at_first_violation: false`) every
//! aggregate field of the merged report equals the sequential explorer's,
//! regardless of thread count or scheduling. The witness is made
//! deterministic by re-deriving it with a sequential first-violation
//! search (cheap: it stops at the first hit), so it is *identical* to the
//! witness [`explore`] returns. Two fields are inherently
//! schedule-dependent and documented as such: `max_depth_seen` reports
//! the deepest path *this run* happened to walk (claim order decides the
//! path by which a shared state is first reached), and in
//! early-stopping/truncated runs the partial counts depend on where the
//! race stopped — exactly as the sequential explorer's partial report
//! depends on its own traversal order.

use crate::explorer::{explore, ExploreReport, ExplorerConfig, Witness};
use crate::state::{Choice, SimState};
use ff_spec::check_consensus;
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
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Claim-map entry lifecycle: claimed → finished (clean or dirty).
#[derive(Clone, Copy, PartialEq, Eq)]
enum EntryState {
    /// Claimed; its subtree scan has not completed.
    InProgress,
    /// Scan complete; every out-edge led into certifiably finished-clean
    /// territory (no cycle can pass through this state).
    DoneClean,
    /// Scan complete, but some edge touched unfinished or dirty territory
    /// (donated children, in-progress targets, dirty successors).
    DoneDirty,
}

/// Visited/claim map sharded to keep lock contention off the hot path.
struct ClaimMap {
    shards: Vec<Mutex<HashMap<Vec<u64>, EntryState>>>,
    mask: usize,
}

/// What a claim attempt found.
enum Claimed {
    /// We inserted the key: the caller now owns this state's expansion.
    Fresh,
    Seen(EntryState),
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

    fn claim(&self, key: &[u64]) -> Claimed {
        let mut shard = lock(self.shard(key));
        match shard.get(key) {
            Some(&e) => Claimed::Seen(e),
            None => {
                shard.insert(key.to_vec(), EntryState::InProgress);
                Claimed::Fresh
            }
        }
    }

    fn finish(&self, key: &[u64], dirty: bool) {
        let mut shard = lock(self.shard(key));
        shard.insert(
            key.to_vec(),
            if dirty {
                EntryState::DoneDirty
            } else {
                EntryState::DoneClean
            },
        );
    }

    fn is_done_clean(&self, key: &[u64]) -> bool {
        matches!(lock(self.shard(key)).get(key), Some(EntryState::DoneClean))
    }
}

/// An unexplored subtree root: an already-claimed state plus the choice
/// path that first reached it (witness prefixes and depth accounting).
struct Task {
    state: SimState,
    key: Vec<u64>,
    prefix: Vec<Choice>,
}

/// Shared work queue with idle-count termination detection.
struct WorkQueue {
    inner: Mutex<QueueInner>,
    available: Condvar,
    threads: usize,
    /// Approximate queue length + idle count, readable without the lock:
    /// `is_hungry` runs once per discovered state, so it must stay off
    /// the mutex.
    approx_len: AtomicU64,
    approx_idle: AtomicU64,
}

struct QueueInner {
    tasks: VecDeque<Task>,
    idle: usize,
    shutdown: bool,
}

impl WorkQueue {
    fn new(threads: usize) -> Self {
        WorkQueue {
            inner: Mutex::new(QueueInner {
                tasks: VecDeque::new(),
                idle: 0,
                shutdown: false,
            }),
            available: Condvar::new(),
            threads,
            approx_len: AtomicU64::new(0),
            approx_idle: AtomicU64::new(0),
        }
    }

    fn push(&self, task: Task) {
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
    fn pop(&self) -> Option<Task> {
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
            inner = match self.available.wait(inner) {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
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

/// Flags every worker polls.
struct Shared {
    claims: ClaimMap,
    queue: WorkQueue,
    states: AtomicU64,
    stop: AtomicBool,
    truncated: AtomicBool,
    cycle_found: AtomicBool,
    config: ExplorerConfig,
}

/// One worker's private accumulation, merged after the join.
#[derive(Default)]
struct WorkerReport {
    report: ExploreReport,
    /// First violating witness this worker found (racy identity; replaced
    /// by a deterministic re-search in full-scan mode).
    witness: Option<Witness>,
    /// Targets of edges into unfinished territory: cycle-certification
    /// roots for the post-pass, deduplicated by key.
    suspended: Vec<(Vec<u64>, SimState)>,
}

struct WorkerFrame {
    state: SimState,
    key: Vec<u64>,
    choices: Vec<Choice>,
    next: usize,
    leading: Option<Choice>,
    dirty: bool,
}

/// Exhaustively explore all executions from `initial` on
/// `config.threads` worker threads.
///
/// With `threads <= 1` this is exactly [`explore`]. With
/// more threads, untruncated full scans produce a report identical to the
/// sequential one (including the witness; see the module docs for the two
/// schedule-dependent caveats: `max_depth_seen`, and partial counts in
/// early-stopped runs).
pub fn explore_parallel(initial: SimState, config: ExplorerConfig) -> ExploreReport {
    if config.threads <= 1 {
        return explore(initial, config);
    }
    if initial.is_terminal() {
        return explore(initial, config);
    }

    let shared = Shared {
        claims: ClaimMap::new(config.threads),
        queue: WorkQueue::new(config.threads),
        states: AtomicU64::new(1),
        stop: AtomicBool::new(false),
        truncated: AtomicBool::new(false),
        cycle_found: AtomicBool::new(false),
        config,
    };

    let root_key = initial.key();
    // Claim the root and seed the queue. In full-scan mode a witness is
    // re-derived sequentially, which needs the initial state back — keep a
    // clone only when that can happen.
    let reseed = initial.clone();
    match shared.claims.claim(&root_key) {
        Claimed::Fresh => {}
        Claimed::Seen(_) => unreachable!("claim map starts empty"),
    }
    shared.queue.push(Task {
        state: initial,
        key: root_key,
        prefix: Vec::new(),
    });

    let mut worker_reports: Vec<WorkerReport> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.threads)
            .map(|_| scope.spawn(|| worker(&shared)))
            .collect();
        for h in handles {
            match h.join() {
                Ok(r) => worker_reports.push(r),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });

    let mut report = ExploreReport {
        states_expanded: shared
            .states
            .load(Ordering::SeqCst)
            .min(shared.config.max_states),
        truncated: shared.truncated.load(Ordering::SeqCst),
        cycle_found: shared.cycle_found.load(Ordering::SeqCst),
        ..ExploreReport::default()
    };
    let mut witnesses: Vec<Witness> = Vec::new();
    let mut suspended: Vec<(Vec<u64>, SimState)> = Vec::new();
    let mut suspended_keys: HashSet<Vec<u64>> = HashSet::new();
    for w in worker_reports {
        report.terminals += w.report.terminals;
        report.max_depth_seen = report.max_depth_seen.max(w.report.max_depth_seen);
        report.agreed_values.extend(w.report.agreed_values);
        report.violation_counts.merge(&w.report.violation_counts);
        witnesses.extend(w.witness);
        for (key, state) in w.suspended {
            if suspended_keys.insert(key.clone()) {
                suspended.push((key, state));
            }
        }
    }

    // Witness. Full-scan mode: re-derive deterministically with a
    // sequential first-violation search — it visits states in the same
    // order as `explore`, so the witness is identical to the sequential
    // full scan's and stable across runs and thread counts. Early-stop
    // mode: the search raced, so return the lexicographically smallest
    // candidate found before the stop.
    if !witnesses.is_empty() {
        report.violation = if shared.config.stop_at_first_violation {
            witnesses.into_iter().min_by_key(witness_rank)
        } else {
            let refind = explore(
                reseed,
                ExplorerConfig {
                    stop_at_first_violation: true,
                    ..shared.config
                },
            );
            debug_assert!(refind.violation.is_some());
            // The re-search cannot miss (a violating terminal exists), but
            // fall back to a raced candidate rather than dropping the
            // violation if it ever did.
            refind
                .violation
                .or_else(|| witnesses.into_iter().min_by_key(witness_rank))
        };
    }

    // Cycle certification post-pass (see module docs). Only meaningful
    // when the exploration actually completed and no cycle is known yet.
    if !report.truncated
        && !report.cycle_found
        && !shared.stop.load(Ordering::SeqCst)
        && !suspended.is_empty()
        && cycle_reachable_from(&suspended, &shared.claims)
    {
        report.cycle_found = true;
    }

    report
}

/// Total order on witnesses for deterministic tie-breaking: compare the
/// choice sequences lexicographically (shorter prefixes first).
fn witness_rank(w: &Witness) -> Vec<(u32, u8, u8, u64)> {
    w.choices.iter().map(choice_rank).collect()
}

fn choice_rank(c: &Choice) -> (u32, u8, u8, u64) {
    use crate::fault_ctl::StepDecision;
    use ff_spec::FaultDecision;
    let (kind, payload) = match c.decision {
        StepDecision::Apply(FaultDecision::Correct) => (0u8, 0u64),
        StepDecision::Apply(FaultDecision::Override) => (1, 0),
        StepDecision::Apply(FaultDecision::Silent) => (2, 0),
        StepDecision::Apply(FaultDecision::Invisible { returned }) => (3, returned),
        StepDecision::Apply(FaultDecision::Arbitrary { written }) => (4, written),
        StepDecision::Hang => (5, 0),
    };
    (c.pid.0 as u32, c.had_opportunity as u8, kind, payload)
}

fn worker(shared: &Shared) -> WorkerReport {
    let mut out = WorkerReport::default();
    let mut suspended_keys: HashSet<Vec<u64>> = HashSet::new();
    while let Some(task) = shared.queue.pop() {
        run_task(shared, task, &mut out, &mut suspended_keys);
        if shared.stop.load(Ordering::Relaxed) {
            shared.queue.cancel();
            break;
        }
    }
    out
}

/// Depth-first exploration of one claimed subtree root, mirroring the
/// sequential explorer's per-edge accounting exactly.
fn run_task(
    shared: &Shared,
    task: Task,
    out: &mut WorkerReport,
    suspended_keys: &mut HashSet<Vec<u64>>,
) {
    let config = &shared.config;
    let prefix_len = task.prefix.len();
    let mut on_path: HashSet<Vec<u64>> = HashSet::new();
    on_path.insert(task.key.clone());
    let mut stack = vec![WorkerFrame {
        choices: task.state.choices(),
        state: task.state,
        key: task.key,
        next: 0,
        leading: None,
        dirty: false,
    }];

    while !stack.is_empty() {
        let choice = {
            let frame = stack.last_mut().expect("nonempty");
            if frame.next >= frame.choices.len() {
                let finished = stack.pop().expect("nonempty");
                on_path.remove(&finished.key);
                shared.claims.finish(&finished.key, finished.dirty);
                if let Some(parent) = stack.last_mut() {
                    parent.dirty |= finished.dirty;
                }
                continue;
            }
            let c = frame.choices[frame.next];
            frame.next += 1;
            c
        };
        if shared.stop.load(Ordering::Relaxed) {
            // Abandoned frames stay InProgress; the post-pass is skipped
            // in stopped runs, so nothing reads them again.
            return;
        }

        let succ = stack.last().expect("nonempty").state.successor(choice);
        let depth = prefix_len + stack.len();
        out.report.max_depth_seen = out.report.max_depth_seen.max(depth);

        if succ.is_terminal() {
            out.report.terminals += 1;
            let outcomes = succ.outcomes();
            let verdict = check_consensus(&outcomes, None);
            if let Some(agreed) = verdict.agreed {
                out.report.agreed_values.insert(agreed.0);
            }
            if !verdict.ok() {
                out.report.violation_counts.absorb(&verdict.violations);
                if out.witness.is_none() {
                    let mut choices = task.prefix.clone();
                    choices.extend(path_choices(&stack));
                    choices.push(choice);
                    out.witness = Some(Witness {
                        choices,
                        outcomes,
                        violations: verdict.violations,
                    });
                }
                if config.stop_at_first_violation {
                    shared.stop.store(true, Ordering::SeqCst);
                    shared.queue.cancel();
                    return;
                }
            }
            continue;
        }

        let key = succ.key();
        if on_path.contains(&key) {
            // Exact back edge within this worker's path: a certain cycle.
            shared.cycle_found.store(true, Ordering::SeqCst);
            continue;
        }
        match shared.claims.claim(&key) {
            Claimed::Seen(EntryState::DoneClean) => continue,
            Claimed::Seen(EntryState::DoneDirty) => {
                stack.last_mut().expect("nonempty").dirty = true;
                continue;
            }
            Claimed::Seen(EntryState::InProgress) => {
                // Cross-worker boundary: the target might complete a cycle
                // back into territory that is still open. Remember it for
                // the certification post-pass.
                stack.last_mut().expect("nonempty").dirty = true;
                if suspended_keys.insert(key.clone()) {
                    out.suspended.push((key, succ));
                }
                continue;
            }
            Claimed::Fresh => {}
        }
        let n = shared.states.fetch_add(1, Ordering::SeqCst) + 1;
        if n >= config.max_states {
            shared.truncated.store(true, Ordering::SeqCst);
            shared.stop.store(true, Ordering::SeqCst);
            shared.queue.cancel();
            return;
        }
        if depth >= config.max_depth {
            // Claimed but never expanded: not certifiable, and the run is
            // truncated anyway (which disables the post-pass).
            shared.truncated.store(true, Ordering::SeqCst);
            shared.claims.finish(&key, true);
            stack.last_mut().expect("nonempty").dirty = true;
            continue;
        }
        if shared.queue.is_hungry() {
            // Donate the fresh subtree instead of descending: its
            // exploration leaves this worker's certified region.
            stack.last_mut().expect("nonempty").dirty = true;
            if suspended_keys.insert(key.clone()) {
                out.suspended.push((key.clone(), succ.clone()));
            }
            let mut prefix = task.prefix.clone();
            prefix.extend(path_choices(&stack));
            prefix.push(choice);
            shared.queue.push(Task {
                state: succ,
                key,
                prefix,
            });
            continue;
        }
        on_path.insert(key.clone());
        stack.push(WorkerFrame {
            choices: succ.choices(),
            state: succ,
            key,
            next: 0,
            leading: Some(choice),
            dirty: false,
        });
    }

    /// Leading choices of the live stack (root frame's `leading` is
    /// `None`: the task prefix covers everything above it).
    fn path_choices(stack: &[WorkerFrame]) -> Vec<Choice> {
        stack.iter().filter_map(|f| f.leading).collect()
    }
}

/// Post-pass: exact sequential cycle search from the suspended targets,
/// pruning at states certified clean by the main phase.
fn cycle_reachable_from(suspended: &[(Vec<u64>, SimState)], claims: &ClaimMap) -> bool {
    let mut visited: HashSet<Vec<u64>> = HashSet::new();
    let mut on_path: HashSet<Vec<u64>> = HashSet::new();

    struct PpFrame {
        state: SimState,
        key: Vec<u64>,
        choices: Vec<Choice>,
        next: usize,
    }

    for (root_key, root_state) in suspended {
        if claims.is_done_clean(root_key) || !visited.insert(root_key.clone()) {
            continue;
        }
        on_path.insert(root_key.clone());
        let mut stack = vec![PpFrame {
            choices: root_state.choices(),
            state: root_state.clone(),
            key: root_key.clone(),
            next: 0,
        }];
        while let Some(frame) = stack.last_mut() {
            if frame.next >= frame.choices.len() {
                on_path.remove(&frame.key);
                stack.pop();
                continue;
            }
            let choice = frame.choices[frame.next];
            frame.next += 1;
            let succ = frame.state.successor(choice);
            if succ.is_terminal() {
                continue;
            }
            let key = succ.key();
            if on_path.contains(&key) {
                return true;
            }
            if claims.is_done_clean(&key) || !visited.insert(key.clone()) {
                continue;
            }
            on_path.insert(key.clone());
            stack.push(PpFrame {
                choices: succ.choices(),
                state: succ,
                key,
                next: 0,
            });
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault_ctl::FaultPlan;
    use crate::heap::Heap;
    use crate::ops::{Op, OpResult};
    use crate::process::{Process, SoloDecider, Status};
    use ff_spec::{Bound, Input, ObjectId, BOTTOM};

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
