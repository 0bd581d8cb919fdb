//! Exhaustive small-config model of ff-store's flat-combining protocol,
//! wait-free read fast path, and combiner crash recovery.
//!
//! The protocol under check is the one `ff-store`'s `combine` module
//! implements: clients publish pending ops into per-client announce
//! slots, any client whose op is still pending may run a combine pass
//! (claim every pending slot by CAS, append the claimed batch to the
//! shard log as *one* decided entry, advance the shared replica,
//! distribute results), and a read may complete wait-free from the
//! shared replica when the replica's applied index covers the tail the
//! reader observed. The model is deliberately small — a handful of
//! clients, a register-shaped log — but the *interleavings* are
//! explored exhaustively, including the adversarial ones the live
//! system cannot be steered into on demand: a combiner parked between
//! append and apply, racing combiners splitting a pending set, a
//! takeover mid-claim. Combiner concurrency is bounded at two live
//! passes, which is what the implementation admits: the advisory busy
//! flag lets one pass run and the forced-takeover path can add exactly
//! one more.
//!
//! Tolerated cell faults are abstracted as **bounded append stutters**:
//! a combine pass's append step may fail and be retried up to the
//! budget ([`ff_spec::Bound::Finite`]), with the adversary choosing
//! when. That is what the robust log constructions reduce tolerated
//! fault kinds to — extra propose rounds and adversarial ordering,
//! never a wrong decision (the reduction itself is verified by the
//! explorer's consensus models; broken *un*tolerated cells are covered
//! by ff-store's divergence tests, not here).
//!
//! # Combiner crashes, leases, and the seal rule
//!
//! [`CombineModelConfig::crashes`] gives the adversary a budget of
//! combiner kills, fired **between claiming and executing** — exactly
//! the window where a dead combiner parks the ops it claimed (the
//! implementation's append + distribute run inside one replica-lock
//! critical section, so a pass that executes at all delivers; the model
//! therefore does not crash mid-`Apply`). Recovery is the lease rule
//! ([`CombineModelConfig::lease`]): the *owner* of a still-claimed op
//! may take it back and republish it — modelled as a
//! `Claimed → Pending` transition, enabled against live (merely slow)
//! combiners too, because a timeout cannot tell the difference. What
//! makes the race safe is the **seal** step
//! ([`CombineModelConfig::sealed`]): at execute time a pass pins each
//! claim it still holds (claimant-tagged, the model's equivalent of the
//! implementation's epoch CAS) and silently drops the rest from its
//! batch. `sealed: false` checks the deliberately broken variant — the
//! stale pass appends reclaimed ops anyway — which must surface
//! double-applies; `lease: false` under a crash budget must surface
//! parked (lost) ops. Both broken variants failing is the evidence that
//! the model can see the bugs the seal/lease rules exist to close.
//!
//! Two properties are checked on every reachable state:
//!
//! 1. **Freshness** — no fast-path read returns a state staler than the
//!    shard's decided tail at the moment the read began.
//!
//!    The model's fast read returns the replica's whole state at
//!    `applied`. `ff-store`'s read takes no lock: it checks a published
//!    `applied` index against the tail, then looks its key up in a table
//!    the combiner may be writing, so per key it returns something at
//!    least as new as the replica at `applied` — a write of a pass still
//!    in flight may show, an older value never. Freshness is a lower
//!    bound, so the property checked here covers that read too.
//! 2. **Hand-off integrity** — no *live* client's pending op is ever
//!    lost (every run quiesces with every such op decided exactly once)
//!    and no op — anyone's — appears twice in the log, no matter which
//!    combiner drains it, how many takeovers interleave, or which
//!    combiners the adversary kills.
//!
//! Setting [`CombineModelConfig::guarded`] to `false` removes the
//! freshness guard (reads answer from the replica unconditionally),
//! which must make the checker report stale reads — the standard
//! broken-variant sanity check that the model can see violations at
//! all.

use ff_spec::Bound;
use std::collections::HashSet;

/// One small configuration of the combining model.
#[derive(Clone, Copy, Debug)]
pub struct CombineModelConfig {
    /// Number of clients (each owns one announce slot).
    pub clients: usize,
    /// Rounds per client; each round is one write followed by one read.
    pub rounds: usize,
    /// Tolerated append stutters for the whole run (the cell-fault
    /// abstraction). Must be [`Bound::Finite`] — unbounded stutter
    /// admits infinite runs, which is exactly the nontermination the
    /// paper's tolerated-fault budgets exclude.
    pub stutter_budget: Bound,
    /// Keep the read fast path's freshness guard. `false` checks the
    /// deliberately broken variant (reads answer unconditionally) and
    /// must produce stale-read violations.
    pub guarded: bool,
    /// Combiner-kill budget for the adversary: each crash permanently
    /// removes one client *between its claim and execute phases*,
    /// leaving everything it claimed parked.
    pub crashes: u8,
    /// Owner-side lease reclaim of claimed ops (`Claimed → Pending`).
    /// Off under a crash budget, parked ops are unrecoverable and the
    /// checker must report them lost.
    pub lease: bool,
    /// Seal claims at execute time (drop reclaimed ops from the stale
    /// batch). `false` checks the deliberately broken variant — with
    /// the lease on it must produce double-applies.
    pub sealed: bool,
}

/// What exhaustive exploration of one configuration found.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CombineModelReport {
    /// Distinct states visited.
    pub states: usize,
    /// Distinct quiescent (terminal) states.
    pub terminals: usize,
    /// Fast-path reads that returned a state staler than the decided
    /// tail observed at read start (property 1 violations).
    pub stale_reads: usize,
    /// Terminal states where a live client's published op never reached
    /// the log, or where a run wedged with live work still pending
    /// (property 2: lost).
    pub lost_ops: usize,
    /// States where an op appears more than once in the log
    /// (property 2: duplicated).
    pub duplicated_ops: usize,
}

impl CombineModelReport {
    /// No property was violated anywhere in the state space.
    pub fn clean(&self) -> bool {
        self.stale_reads == 0 && self.lost_ops == 0 && self.duplicated_ops == 0
    }
}

/// Announce-slot lifecycle, exactly the implementation's (the claimant
/// tag on `Claimed` plays the packed epoch's role: a seal succeeds only
/// on a claim this pass took, and a reclaim invalidates it).
#[derive(Clone, PartialEq, Eq, Hash)]
enum Slot {
    Empty,
    /// Published, up for grabs by any combiner.
    Pending(u8),
    /// Taken by combiner `by`'s claim CAS.
    Claimed(u8, u8),
    /// Pinned by its combiner's seal, execution imminent — no longer
    /// reclaimable (the implementation's `(SEALED, e)` word).
    Sealed(u8),
    /// Executed; payload is the log length right after the batch
    /// carrying this op was appended (its linearization prefix).
    Done(u8),
}

/// Per-client control state.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Phase {
    /// Between operations.
    Ready,
    /// A read sampled the decided tail (`observed`) and is about to
    /// check the replica — the adversarial gap is between that sample
    /// and the replica check.
    FastCheck { observed: u8 },
    /// Op published; waiting for a combiner to deliver (the decided
    /// tail at publish lives in `State::dstart` so it survives a
    /// combine pass).
    Waiting,
    /// Running a combine pass: claim CAS over slots `0..idx` done so
    /// far, `claimed` holds the indices won.
    Claiming { idx: u8, claimed: Vec<u8> },
    /// Claim phase finished; the seal + batched append is next (this is
    /// where stutters — and parked-combiner schedules — bite).
    Execute { claimed: Vec<u8> },
    /// Batch appended at log position `pos`; the replica apply (and
    /// result distribution to the slots this pass sealed) is next. A
    /// reader scheduled here sees the tail grown but the replica
    /// lagging — the window the freshness guard exists for.
    Apply { sealed: Vec<u8>, pos: u8 },
    /// Killed by the adversary mid-pass. Permanent: a crashed client
    /// takes no further step, collects nothing, and its announce slot
    /// stays registered — exactly a thread that died in `ff-store`.
    Crashed,
}

/// One explorable state of the whole system.
#[derive(Clone)]
struct State {
    phase: Vec<Phase>,
    /// Next program index per client.
    pc: Vec<u8>,
    slots: Vec<Slot>,
    /// Decided log: each entry is one combine pass's batch.
    log: Vec<Vec<u8>>,
    /// Batches the shared replica has applied.
    applied: u8,
    /// Per client: the decided tail when its in-flight op began (for
    /// the freshness cross-check on delivered reads).
    dstart: Vec<u8>,
    /// Remaining tolerated append stutters.
    budget: u8,
    /// Remaining adversary combiner kills.
    crashes: u8,
}

/// Client `c`'s `k`-th operation id. Even ids are writes, odd are
/// reads (each round is write-then-read), and ids are globally unique.
fn op_id(c: usize, k: u8) -> u8 {
    (c as u8) << 4 | k
}

fn is_write(pc: u8) -> bool {
    pc.is_multiple_of(2)
}

fn claim_mask(claimed: &[u8]) -> u128 {
    claimed.iter().fold(0u128, |m, &sl| m | 1 << sl)
}

/// Compact memoization key. The Vec-shaped [`State`] packs exactly into
/// 124 bits: 27 per client (phase tag + two 4-bit payloads + pc + the
/// freshness mark + slot state + claimant), 16 of globals, and 4 bits
/// of decided position per op (slot op payloads are derivable — slot
/// `i` always carries client `i`'s current op, reclaims republish the
/// *same* op). The claimant is in the key because racing claim lists
/// can legitimately overlap after a reclaim, and which combiner's seal
/// will succeed depends on who holds the claim *now*. Memoizing on this
/// instead of the heap-heavy state cuts the seen-set cost by more than
/// an order of magnitude, which is what makes the 3-client grid configs
/// explorable.
fn key(st: &State, prog_len: u8) -> (u128, u64) {
    let mut hi: u128 = 0;
    for (i, ph) in st.phase.iter().enumerate() {
        let (tag, f1, f2): (u128, u128, u128) = match ph {
            Phase::Ready => (0, 0, 0),
            Phase::FastCheck { observed } => (1, *observed as u128, 0),
            Phase::Waiting => (2, 0, 0),
            Phase::Claiming { idx, claimed } => (3, *idx as u128, claim_mask(claimed)),
            Phase::Execute { claimed } => (4, claim_mask(claimed), 0),
            Phase::Apply { sealed, pos } => (5, claim_mask(sealed), *pos as u128),
            Phase::Crashed => (6, 0, 0),
        };
        let (stag, by, spos): (u128, u128, u128) = match st.slots[i] {
            Slot::Empty => (0, 0, 0),
            Slot::Pending(_) => (1, 0, 0),
            Slot::Claimed(_, by) => (2, by as u128, 0),
            Slot::Sealed(_) => (3, 0, 0),
            Slot::Done(pos) => (4, 0, pos as u128),
        };
        debug_assert!(
            f1 < 16 && f2 < 16 && st.pc[i] < 8 && st.dstart[i] < 16 && by < 4 && spos < 16
        );
        let cell = tag
            | f1 << 3
            | f2 << 7
            | (st.pc[i] as u128) << 11
            | (st.dstart[i] as u128) << 14
            | stag << 18
            | by << 21
            | spos << 23;
        hi |= cell << (27 * i);
    }
    debug_assert!(st.applied < 16 && st.budget < 16 && st.log.len() < 16 && st.crashes < 16);
    hi |= ((st.applied as u128) << 108)
        | ((st.budget as u128) << 112)
        | ((st.log.len() as u128) << 116)
        | ((st.crashes as u128) << 120);
    let mut lo: u64 = 0;
    for (b, batch) in st.log.iter().enumerate() {
        for &op in batch {
            let c = (op >> 4) as u64;
            let k = (op & 0xf) as u64;
            lo |= (b as u64 + 1) << (4 * (c * prog_len as u64 + k));
        }
    }
    (hi, lo)
}

fn explore(cfg: &CombineModelConfig) -> CombineModelReport {
    let n = cfg.clients;
    let prog_len = (cfg.rounds * 2) as u8;
    let budget = match cfg.stutter_budget {
        Bound::Finite(t) => u8::try_from(t).expect("stutter budget fits in u8"),
        _ => panic!("the combining model needs a finite stutter budget"),
    };
    assert!((1..=4).contains(&n), "small configs only (1..=4 clients)");

    let init = State {
        phase: vec![Phase::Ready; n],
        pc: vec![0; n],
        slots: vec![Slot::Empty; n],
        log: Vec::new(),
        applied: 0,
        dstart: vec![0; n],
        budget,
        crashes: cfg.crashes,
    };

    let mut report = CombineModelReport::default();
    let mut seen: HashSet<(u128, u64)> = HashSet::new();
    let mut stack = vec![init];
    while let Some(st) = stack.pop() {
        if !seen.insert(key(&st, prog_len)) {
            continue;
        }
        report.states += 1;
        let flat: Vec<u8> = st.log.iter().flatten().copied().collect();
        for &op in &flat {
            if flat.iter().filter(|&&o| o == op).count() > 1 {
                report.duplicated_ops += 1;
                break;
            }
        }
        let succs = successors(&st, cfg, prog_len);
        if succs.is_empty() {
            report.terminals += 1;
            // Quiescence: every *live* client finished and every live
            // client's write decided exactly once (duplicates were
            // counted above); a wedged run or a missing live write is a
            // lost op. Crashed clients owe nothing — an op a dead
            // client published may legitimately sit parked forever,
            // because nobody is waiting on it.
            let live = |i: &usize| !matches!(st.phase[*i], Phase::Crashed);
            let all_done = (0..n)
                .filter(live)
                .all(|i| st.pc[i] == prog_len && matches!(st.phase[i], Phase::Ready));
            let writes_present = (0..n).filter(live).all(|c| {
                (0..prog_len)
                    .filter(|&k| is_write(k))
                    .all(|k| flat.contains(&op_id(c, k)))
            });
            if !all_done || !writes_present {
                report.lost_ops += 1;
            }
        } else {
            for (succ, stale) in succs {
                if stale {
                    report.stale_reads += 1;
                }
                stack.push(succ);
            }
        }
    }
    report
}

/// All enabled transitions from `st`; the `bool` marks a completed read
/// that violated freshness (returned a prefix older than the decided
/// tail at read start).
fn successors(st: &State, cfg: &CombineModelConfig, prog_len: u8) -> Vec<(State, bool)> {
    let n = st.phase.len();
    let mut out = Vec::new();
    for i in 0..n {
        // The adversary's combiner kill: fired between claiming and
        // executing — the exact window where claims park. (Append and
        // result distribution run inside one replica-lock critical
        // section in the implementation, so `Apply` cannot be split by
        // a crash: a pass that executes delivers.)
        if st.crashes > 0 && matches!(st.phase[i], Phase::Claiming { .. } | Phase::Execute { .. }) {
            let mut s = st.clone();
            s.phase[i] = Phase::Crashed;
            s.dstart[i] = 0;
            s.crashes -= 1;
            out.push((s, false));
        }
        match &st.phase[i] {
            Phase::Ready => {
                if st.pc[i] >= prog_len {
                    continue;
                }
                let id = op_id(i, st.pc[i]);
                let started = st.log.len() as u8;
                if is_write(st.pc[i]) {
                    let mut s = st.clone();
                    s.slots[i] = Slot::Pending(id);
                    s.dstart[i] = started;
                    s.phase[i] = Phase::Waiting;
                    out.push((s, false));
                } else {
                    // A read may try the fast path (sample the tail) or
                    // publish straight away like any other op.
                    let mut fast = st.clone();
                    fast.phase[i] = Phase::FastCheck { observed: started };
                    out.push((fast, false));
                    let mut slow = st.clone();
                    slow.slots[i] = Slot::Pending(id);
                    slow.dstart[i] = started;
                    slow.phase[i] = Phase::Waiting;
                    out.push((slow, false));
                }
            }
            Phase::FastCheck { observed } => {
                if st.applied >= *observed || !cfg.guarded {
                    // Complete from the replica. Fresh iff the replica
                    // covers the decided tail at read start.
                    let stale = st.applied < *observed;
                    let mut s = st.clone();
                    s.pc[i] += 1;
                    s.phase[i] = Phase::Ready;
                    s.dstart[i] = 0;
                    out.push((s, stale));
                } else {
                    // Freshness unprovable: fall back to the combined
                    // path (publish like any other op).
                    let mut s = st.clone();
                    s.slots[i] = Slot::Pending(op_id(i, st.pc[i]));
                    s.dstart[i] = *observed;
                    s.phase[i] = Phase::Waiting;
                    out.push((s, false));
                }
            }
            Phase::Waiting => match &st.slots[i] {
                Slot::Done(pos) => {
                    // Delivered. A combined-path read linearizes at its
                    // batch's log position, which must also cover the
                    // tail at read start.
                    let stale = !is_write(st.pc[i]) && *pos < st.dstart[i];
                    let mut s = st.clone();
                    s.slots[i] = Slot::Empty;
                    s.pc[i] += 1;
                    s.phase[i] = Phase::Ready;
                    // The op is over; zero the bookkeeping so states
                    // differing only in dead freshness marks merge.
                    s.dstart[i] = 0;
                    out.push((s, stale));
                }
                Slot::Pending(_) => {
                    // Unclaimed: this client may start its own combine
                    // pass. The advisory flag admits one combiner and
                    // the forced-takeover path admits one more, so at
                    // most two *live* passes ever overlap — modelling
                    // exactly that keeps the racing-combiner/takeover
                    // schedules while keeping the state space
                    // tractable. (Crashed combiners don't count: a dead
                    // flag-holder cannot exclude anyone, that is what
                    // the forced path is for.)
                    let combiners = st
                        .phase
                        .iter()
                        .filter(|p| {
                            matches!(
                                p,
                                Phase::Claiming { .. }
                                    | Phase::Execute { .. }
                                    | Phase::Apply { .. }
                            )
                        })
                        .count();
                    if combiners < 2 {
                        let mut s = st.clone();
                        s.phase[i] = Phase::Claiming {
                            idx: 0,
                            claimed: Vec::new(),
                        };
                        out.push((s, false));
                    }
                }
                Slot::Claimed(op, _) if cfg.lease => {
                    // The lease reclaim: the owner takes a claimed op
                    // back and republishes it. Enabled against live
                    // combiners too — a timeout cannot tell slow from
                    // dead, which is exactly why the seal step must
                    // exist. (The implementation republishes under a
                    // bumped epoch; here the claimant tag dies with the
                    // transition, same effect.)
                    let mut s = st.clone();
                    s.slots[i] = Slot::Pending(*op);
                    out.push((s, false));
                }
                // Claimed (no lease) or sealed: some combiner owns it
                // and will deliver — or never will, if it died and
                // there is no lease. Nothing for the owner to do.
                _ => {}
            },
            Phase::Claiming { idx, claimed } => {
                let mut s = st.clone();
                let mut claimed = claimed.clone();
                let at = *idx as usize;
                if at < n {
                    // One claim CAS per step — racing combiners
                    // interleave here and split the pending set.
                    if let Slot::Pending(op) = s.slots[at] {
                        s.slots[at] = Slot::Claimed(op, i as u8);
                        claimed.push(at as u8);
                    }
                    s.phase[i] = Phase::Claiming {
                        idx: idx + 1,
                        claimed,
                    };
                } else if claimed.is_empty() {
                    // Everything was claimed out from under us; go back
                    // to waiting for our own delivery.
                    s.phase[i] = Phase::Waiting;
                } else {
                    s.phase[i] = Phase::Execute { claimed };
                }
                out.push((s, false));
            }
            Phase::Execute { claimed } => {
                // Seal + append the surviving batch as ONE decided log
                // entry. The seal drops every claim this pass no longer
                // holds — its owner reclaimed it (and possibly someone
                // else already claimed, executed, or delivered it); it
                // is not ours to apply.
                let mut ok = st.clone();
                let mut sealed: Vec<u8> = Vec::new();
                let mut batch: Vec<u8> = Vec::new();
                for &sl in claimed {
                    match ok.slots[sl as usize] {
                        Slot::Claimed(op, by) if by as usize == i => {
                            ok.slots[sl as usize] = Slot::Sealed(op);
                            sealed.push(sl);
                            batch.push(op);
                        }
                        _ if cfg.sealed => {}
                        // The broken (seal-less) variant: a stale pass
                        // appends whatever it claimed regardless of who
                        // holds it now — the double-apply the seal CAS
                        // exists to prevent. (The op id is recoverable
                        // as the slot owner's current op: a reclaim
                        // republishes the same op, and an owner that
                        // already collected it has moved past — its
                        // slot is `Empty` and skipped.)
                        Slot::Empty => {}
                        _ => batch.push(op_id(sl as usize, ok.pc[sl as usize])),
                    }
                }
                if batch.is_empty() {
                    // Every claim was reclaimed out from under us; the
                    // pass fizzles and we go back to waiting.
                    ok.phase[i] = Phase::Waiting;
                    out.push((ok, false));
                } else {
                    ok.log.push(batch);
                    let pos = ok.log.len() as u8;
                    ok.phase[i] = Phase::Apply { sealed, pos };
                    out.push((ok, false));
                    // Tolerated cell fault: the append stutters and must
                    // be retried (adversary's choice, bounded by the
                    // budget).
                    if st.budget > 0 {
                        let mut stut = st.clone();
                        stut.budget -= 1;
                        out.push((stut, false));
                    }
                }
            }
            Phase::Apply { sealed, pos } => {
                // The shared replica catches up to the whole log and the
                // per-slot results go out — to the slots this pass
                // sealed, which are exactly the ops its batch carried.
                // Until this step runs, readers see the tail ahead of
                // the replica — the window the freshness guard covers.
                let mut s = st.clone();
                s.applied = s.log.len() as u8;
                for &sl in sealed {
                    s.slots[sl as usize] = Slot::Done(*pos);
                }
                s.phase[i] = Phase::Waiting;
                out.push((s, false));
            }
            Phase::Crashed => {}
        }
    }
    out
}

/// Exhaustively check one configuration.
pub fn check_combining(cfg: &CombineModelConfig) -> CombineModelReport {
    explore(cfg)
}

/// The small-config grid E18 runs: every configuration here must come
/// back [`CombineModelReport::clean`]. Crash-free (the crash-recovery
/// corner has its own grid, [`combining_crash_grid`]).
pub fn combining_grid() -> Vec<CombineModelConfig> {
    let mut grid = Vec::new();
    for &(clients, stutters) in &[(2usize, 0u64), (2, 1), (2, 2), (3, 0), (3, 1)] {
        // Three clients with the full stutter budget is the one corner
        // left out: 2-client configs already sweep the budget and the
        // 3-client/1-stutter config covers the retry × racing-combiner
        // interplay, at a tenth of the states.
        grid.push(CombineModelConfig {
            clients,
            rounds: 1,
            stutter_budget: Bound::Finite(stutters),
            guarded: true,
            crashes: 0,
            lease: false,
            sealed: true,
        });
    }
    grid.push(CombineModelConfig {
        clients: 2,
        rounds: 2,
        stutter_budget: Bound::Finite(1),
        guarded: true,
        crashes: 0,
        lease: false,
        sealed: true,
    });
    grid
}

/// The combiner-crash-recovery grid: adversarial kills with the lease
/// reclaim and seal rule on. Every configuration must come back
/// [`CombineModelReport::clean`] — no live op lost to a parked claim,
/// no op double-applied by a reclaim racing a stale pass. The
/// crash-free `lease: true` entry isolates the reclaim-vs-live-combiner
/// race from crash recovery proper.
pub fn combining_crash_grid() -> Vec<CombineModelConfig> {
    let mut grid = Vec::new();
    for &(clients, crashes) in &[(2usize, 0u8), (2, 1), (2, 2), (3, 1)] {
        grid.push(CombineModelConfig {
            clients,
            rounds: 1,
            stutter_budget: Bound::Finite(0),
            guarded: true,
            crashes,
            lease: true,
            sealed: true,
        });
    }
    // One config crossing crash recovery with append stutters: a retry
    // loop must not reopen the exactly-once argument.
    grid.push(CombineModelConfig {
        clients: 2,
        rounds: 1,
        stutter_budget: Bound::Finite(1),
        guarded: true,
        crashes: 1,
        lease: true,
        sealed: true,
    });
    grid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_grid_is_clean() {
        for cfg in combining_grid() {
            let t0 = std::time::Instant::now();
            let report = check_combining(&cfg);
            eprintln!("{cfg:?} -> {report:?} in {:?}", t0.elapsed());
            assert!(
                report.clean(),
                "violations in {cfg:?}: {report:?} (freshness or hand-off broken)"
            );
            assert!(report.states > 10, "degenerate exploration: {report:?}");
            assert!(report.terminals > 0, "no quiescent state: {report:?}");
        }
    }

    #[test]
    fn the_crash_grid_is_clean() {
        // The reclaim rule's exactly-once proof: under every combiner
        // kill the budget admits, interleaved with owner reclaims and
        // takeover passes, no live op is lost and no op is applied
        // twice.
        for cfg in combining_crash_grid() {
            let t0 = std::time::Instant::now();
            let report = check_combining(&cfg);
            eprintln!("{cfg:?} -> {report:?} in {:?}", t0.elapsed());
            assert!(
                report.clean(),
                "violations in {cfg:?}: {report:?} (crash recovery broken)"
            );
            assert!(report.terminals > 0, "no quiescent state: {report:?}");
        }
    }

    #[test]
    fn crash_without_lease_parks_ops() {
        // The ROADMAP bug: kill a combiner between claim and execute
        // with no reclaim rule, and some schedule wedges a live client
        // forever on its parked op. The checker must see it.
        let report = check_combining(&CombineModelConfig {
            clients: 2,
            rounds: 1,
            stutter_budget: Bound::Finite(0),
            guarded: true,
            crashes: 1,
            lease: false,
            sealed: true,
        });
        assert!(
            report.lost_ops > 0,
            "no parked ops without the lease: {report:?}"
        );
        assert_eq!(report.duplicated_ops, 0, "{report:?}");
    }

    #[test]
    fn lease_without_seal_double_applies() {
        // The other half of the proof obligation: the reclaim rule is
        // only safe *because* of the seal step. Remove it and a stale
        // pass re-appends an op its owner reclaimed — the checker must
        // see the double-apply. No crash budget needed: a live-but-slow
        // combiner racing a reclaim is enough.
        let report = check_combining(&CombineModelConfig {
            clients: 2,
            rounds: 1,
            stutter_budget: Bound::Finite(0),
            guarded: true,
            crashes: 0,
            lease: true,
            sealed: false,
        });
        assert!(
            report.duplicated_ops > 0,
            "seal-less variant produced no double-applies: {report:?}"
        );
    }

    #[test]
    fn unguarded_fast_reads_are_caught() {
        // Removing the freshness guard must surface stale reads — the
        // checker can actually see property-1 violations.
        let report = check_combining(&CombineModelConfig {
            clients: 2,
            rounds: 1,
            stutter_budget: Bound::Finite(1),
            guarded: false,
            crashes: 0,
            lease: false,
            sealed: true,
        });
        assert!(
            report.stale_reads > 0,
            "unguarded variant produced no stale reads: {report:?}"
        );
        assert_eq!(report.lost_ops, 0, "{report:?}");
        assert_eq!(report.duplicated_ops, 0, "{report:?}");
    }

    #[test]
    fn stutters_exercise_retries_without_losing_ops() {
        let none = check_combining(&CombineModelConfig {
            clients: 2,
            rounds: 1,
            stutter_budget: Bound::Finite(0),
            guarded: true,
            crashes: 0,
            lease: false,
            sealed: true,
        });
        let some = check_combining(&CombineModelConfig {
            clients: 2,
            rounds: 1,
            stutter_budget: Bound::Finite(2),
            guarded: true,
            crashes: 0,
            lease: false,
            sealed: true,
        });
        assert!(none.clean() && some.clean());
        assert!(
            some.states > none.states,
            "stutter branches added no states: {none:?} vs {some:?}"
        );
    }

    #[test]
    #[should_panic(expected = "finite stutter budget")]
    fn unbounded_stutter_is_refused() {
        check_combining(&CombineModelConfig {
            clients: 2,
            rounds: 1,
            stutter_budget: Bound::Unbounded,
            guarded: true,
            crashes: 0,
            lease: false,
            sealed: true,
        });
    }
}
