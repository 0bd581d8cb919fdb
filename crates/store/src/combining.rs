//! E18's model of flat combining: every interleaving of a few clients
//! running the slot machines of `slot.rs` over plain words. Each client
//! runs `rounds` × (one write, one read) as a [`crate::StoreClient`]
//! does: a write is `submit` or the split-phase API's bare publish; a
//! read is `fast_get`, with its cold and combined fallbacks. Every word
//! access is one transition. Hand-written here are only:
//!
//! * the adversary: which client steps next; an append that stutters
//!   and is retried (the robust cells' tolerated faults, on a finite
//!   budget); a combiner killed in its claim→seal window (crash-stop);
//!   a waiter whose unit is pending forcing a pass past the flag, as a
//!   timeout cannot tell slow from dead — so one live pass per client;
//! * the replica lock: an execute appends, applies and publishes
//!   `applied` under it, so two never overlap, while claims, seals and
//!   reclaims interleave word by word;
//! * the properties: **freshness** (no read answers from a replica
//!   older than the tail it sampled), **no lost live op** (every run
//!   quiesces with each live client done and each of its writes in the
//!   log) and **no duplicate** (no op appended twice).
//!
//! A state is memoized once normalized: an epoch only grows by one, on
//! a reclaim, so a compare-exchange can only tell whether a held epoch
//! is still its slot's, and that is all a normalized state keeps.

use crate::slot::*;
use ff_spec::Bound;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

/// One small configuration of the model.
#[derive(Clone, Copy, Debug)]
pub struct CombineModelConfig {
    /// Clients, each with one announce slot (1–4).
    pub clients: usize,
    /// Rounds per client, each one write then one read (1–2; at most
    /// four client-rounds, so every count in a state stays below 15).
    pub rounds: usize,
    /// Tolerated append stutters for the whole run. Must be
    /// [`Bound::Finite`]: an unbounded stutter admits infinite runs.
    pub stutter_budget: Bound,
    /// Combiners the adversary may kill in their claim→seal window.
    pub crashes: u8,
    /// Owners reclaim claimed units (the lease rule).
    pub lease: bool,
}

/// What exhaustive exploration of one configuration found.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CombineModelReport {
    /// Distinct states visited.
    pub states: usize,
    /// Quiescent states: no step changes anything.
    pub terminals: usize,
    /// Reads answered from a replica older than the tail they sampled.
    pub stale_reads: usize,
    /// Quiescent states with a live client unfinished or a live write
    /// missing from the log.
    pub lost_ops: usize,
    /// States where an op was appended twice (not explored further).
    pub duplicated_ops: usize,
    /// Most passes live at once.
    pub max_passes: usize,
}

impl CombineModelReport {
    /// No property was violated anywhere in the state space.
    pub fn clean(&self) -> bool {
        self.stale_reads == 0 && self.lost_ops == 0 && self.duplicated_ops == 0
    }
}

/// Exhaustively check one configuration of the store's protocol.
pub fn explore(cfg: &CombineModelConfig) -> CombineModelReport {
    explore_with::<Protocol, true>(cfg)
}

fn config(
    clients: usize,
    rounds: usize,
    stutters: u64,
    crashes: u8,
    lease: bool,
) -> CombineModelConfig {
    let stutter_budget = Bound::Finite(stutters);
    CombineModelConfig {
        clients,
        rounds,
        stutter_budget,
        crashes,
        lease,
    }
}

/// The crash-free grid E18 runs; every configuration must come back
/// [`CombineModelReport::clean`].
pub fn grid() -> Vec<CombineModelConfig> {
    let rows = [
        (2, 1, 0),
        (2, 1, 1),
        (2, 1, 2),
        (3, 1, 0),
        (3, 1, 1),
        (2, 2, 1),
    ];
    rows.map(|(c, r, s)| config(c, r, s, 0, false)).to_vec()
}

/// The combiner-crash grid, lease on: no live op lost to a parked
/// claim, none applied twice by a reclaim racing a stale pass. Its
/// crash-free row isolates the reclaim racing a live combiner; its last
/// crosses crashes with stutters.
pub fn crash_grid() -> Vec<CombineModelConfig> {
    let rows = [(2, 0, 0), (2, 0, 1), (2, 0, 2), (3, 0, 1), (2, 1, 1)];
    rows.map(|(c, s, k)| config(c, 1, s, k, true)).to_vec()
}

/// What a client is doing. A read `Sampled` the tail, found it covered
/// by the published index (`Fresh`) or waits for the replica lock
/// (`Cold`). `Direct` is `submit`'s pass; `Owner` publishes or polls;
/// `Wait` polls next; `Chose` found its unit pending and starts an
/// advisory or a forced pass (`Combine`). `Exec` appends (taking the
/// lock), applies and publishes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Act {
    Ready,
    Sampled,
    Fresh,
    Cold,
    Direct,
    Owner,
    Wait,
    Chose,
    Combine,
    Exec(u8),
    Crashed,
}

#[derive(Clone, Debug, Hash)]
struct Client<R> {
    act: Act,
    /// Ops done.
    pc: u8,
    /// The tail a read sampled when it began.
    tail: u8,
    pass: Pass<R>,
    owner: Owner,
    claims: Vec<(u8, u32)>,
}

#[derive(Clone, Debug, Hash)]
struct Sys<R> {
    ops: u8,
    lease: bool,
    words: Vec<u32>,
    flag: u32,
    /// The op each slot's buffer holds.
    unit: Vec<u8>,
    clients: Vec<Client<R>>,
    /// Per op: 1 + the batch that carried it, 0 if none did.
    at: Vec<u8>,
    log: u8,
    applied: u8,
    published: u8,
    /// 1 + the lock holder, 0 if free.
    lock: u8,
    budget: u8,
    crashes: u8,
    dup: bool,
}

/// A normalized state's exact memo key: every integer its `Hash` feeds
/// in, four bits each (`usize::MAX` as 15).
#[derive(Default)]
struct Key([u64; 10], usize);

impl Hasher for Key {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b.into()));
    }
    fn write_u64(&mut self, v: u64) {
        let v = if v == u64::MAX { 15 } else { v };
        assert!(v <= 15 && self.1 < 160, "state does not fit its key");
        self.0[self.1 / 16] |= v << (self.1 % 16 * 4);
        self.1 += 1;
    }
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v.into());
    }
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
    fn finish(&self) -> u64 {
        unreachable!("a key is its words")
    }
}

fn in_pass(act: Act) -> bool {
    matches!(act, Act::Direct | Act::Combine | Act::Exec(_))
}

/// Explore under rule `R`; a broken execute publishes `applied` before
/// it applies (`!APPLIES_FIRST`).
fn explore_with<R: Rule, const APPLIES_FIRST: bool>(
    cfg: &CombineModelConfig,
) -> CombineModelReport {
    let Bound::Finite(budget) = cfg.stutter_budget else {
        panic!("the combining model needs a finite stutter budget");
    };
    let (n, ops) = (cfg.clients, (cfg.rounds * 2) as u8);
    assert!((1..=4).contains(&n) && (1..=2).contains(&cfg.rounds) && n * cfg.rounds <= 4);
    let client = |_| Client {
        act: Act::Ready,
        pc: 0,
        tail: 0,
        pass: Pass::<R>::split(true),
        owner: Owner::publish(),
        claims: Vec::new(),
    };
    let init = Sys {
        ops,
        lease: cfg.lease,
        words: vec![pack(EMPTY, 1); n],
        flag: 0,
        unit: (0..n).map(|c| c as u8 * ops).collect(),
        clients: (0..n).map(client).collect(),
        at: vec![0; n * ops as usize],
        log: 0,
        applied: 0,
        published: 0,
        lock: 0,
        budget: u8::try_from(budget).expect("stutter budget fits in u8"),
        crashes: cfg.crashes,
        dup: false,
    };
    let mut report = CombineModelReport::default();
    let mut seen = HashSet::new();
    let mut stack = vec![(init.key(), init)];
    let mut next = Vec::new();
    while let Some((key, st)) = stack.pop() {
        if !seen.insert(key) {
            continue;
        }
        report.states += 1;
        let passes = st.clients.iter().filter(|c| in_pass(c.act)).count();
        report.max_passes = report.max_passes.max(passes);
        if st.dup {
            report.duplicated_ops += 1;
            continue;
        }
        for c in 0..n {
            st.step::<APPLIES_FIRST>(c, &mut next);
        }
        let mut moved = false;
        for (mut s, stale) in next.drain(..) {
            report.stale_reads += usize::from(stale);
            s.normalize();
            let k = s.key();
            if k != key {
                moved = true;
                stack.push((k, s));
            }
        }
        if !moved {
            report.terminals += 1;
            report.lost_ops += usize::from(st.lost());
        }
    }
    report
}

impl<R: Rule> Sys<R> {
    fn op(&self, c: usize) -> u8 {
        c as u8 * self.ops + self.clients[c].pc
    }

    fn key(&self) -> [u64; 10] {
        let mut key = Key::default();
        self.hash(&mut key);
        key.0
    }

    /// Keep of each held epoch only whether it is still its slot's, and
    /// forget the machines a client is not running.
    fn normalize(&mut self) {
        let now: Vec<u32> = self.words.iter().map(|&w| epoch_of(w)).collect();
        let held = |s: usize, w: u32| pack(state_of(w), u32::from(epoch_of(w) == now[s]));
        for w in &mut self.words {
            *w = pack(state_of(*w), 1);
        }
        for (c, cl) in self.clients.iter_mut().enumerate() {
            if in_pass(cl.act) {
                cl.claims
                    .iter_mut()
                    .for_each(|(s, e)| *e = epoch_of(held(*s as usize, pack(0, *e))));
                if let PassPc::Claim(i, w) = &mut cl.pass.pc {
                    *w = held(*i, *w);
                }
            } else {
                (cl.pass, cl.claims) = (Pass::split(true), Vec::new());
            }
            if cl.act != Act::Owner {
                cl.owner = Owner::publish();
            } else if let OwnerPc::Store(w, _) | OwnerPc::Reclaim(w) = &mut cl.owner.0 {
                *w = held(c, *w);
            }
        }
    }

    fn lost(&self) -> bool {
        let ops = self.ops as usize;
        self.clients.iter().enumerate().any(|(c, cl)| {
            cl.act != Act::Crashed
                && (cl.pc < self.ops || (0..ops).step_by(2).any(|k| self.at[c * ops + k] == 0))
        })
    }

    /// Finish client `c`'s op; a read delivered through the log must sit
    /// at or past the tail it sampled.
    fn finish(&mut self, c: usize) -> bool {
        let op = self.op(c) as usize;
        let cl = &mut self.clients[c];
        let stale = cl.pc % 2 == 1 && self.at[op] < cl.tail;
        (cl.act, cl.pc, cl.tail) = (Act::Ready, cl.pc + 1, 0);
        stale
    }

    /// One access to one word, for client `c` holding `claims`.
    fn access(&mut self, c: usize, op: SlotOp, claims: &[(u8, u32)]) -> (u32, Option<u8>) {
        let scan = matches!(op, SlotOp::Load(_)) && self.clients[c].act == Act::Direct;
        let slot = match op.word() {
            Word::Flag => None,
            Word::Own => Some(c as u8),
            Word::Claim(k) => Some(claims[k].0),
            Word::Slot(i) if i >= self.words.len() => return (END, None),
            Word::Slot(i) if i == c && scan => return (MINE, None),
            Word::Slot(i) => Some(i as u8),
        };
        let word = match slot {
            Some(s) => &mut self.words[s as usize],
            None => &mut self.flag,
        };
        let old = *word;
        match op {
            SlotOp::Store(_, v) => *word = v,
            SlotOp::Cas(_, current, new) if old == current => *word = new,
            _ => {}
        }
        (old, slot.filter(|_| matches!(op.word(), Word::Slot(_))))
    }

    /// Every successor of client `c` stepping once, and whether the step
    /// answered a stale read.
    fn step<const APPLIES_FIRST: bool>(&self, c: usize, out: &mut Vec<(Self, bool)>) {
        let mut s = self.clone();
        let (act, pc, tail) = (s.clients[c].act, s.clients[c].pc, s.clients[c].tail);
        match act {
            Act::Ready if pc == self.ops => {}
            Act::Ready if pc.is_multiple_of(2) => {
                // `submit`, or the split-phase API's bare publish.
                let mut split = s.clone();
                split.clients[c].act = Act::Owner;
                split.run_owner(c, Owner::publish(), out);
                s.submit(c, out);
            }
            Act::Ready => {
                (s.clients[c].act, s.clients[c].tail) = (Act::Sampled, s.log);
                out.push((s, false));
            }
            Act::Sampled => {
                let fresh = R::fresh(s.published.into(), tail.into());
                s.clients[c].act = if fresh { Act::Fresh } else { Act::Cold };
                out.push((s, false));
            }
            Act::Fresh => {
                let stale = s.applied < tail;
                s.finish(c);
                out.push((s, stale));
            }
            Act::Cold if s.lock == 0 && s.applied >= tail => {
                s.finish(c);
                out.push((s, false));
            }
            Act::Cold if s.lock == 0 => s.submit(c, out),
            Act::Direct | Act::Combine => s.run_pass(c, out),
            Act::Owner => s.run_owner(c, self.clients[c].owner, out),
            Act::Wait => {
                s.clients[c].act = Act::Owner;
                s.run_owner(c, Owner::poll(self.lease), out);
            }
            Act::Chose => {
                for force in [false, true] {
                    let mut s = s.clone();
                    (s.clients[c].act, s.clients[c].pass) = (Act::Combine, Pass::split(force));
                    s.run_pass(c, out);
                }
            }
            Act::Exec(0) if s.lock == 0 || s.lock == c as u8 + 1 => {
                s.lock = c as u8 + 1;
                if s.budget > 0 {
                    let mut stutter = s.clone();
                    stutter.budget -= 1;
                    out.push((stutter, false));
                }
                s.log += 1;
                let cl = &s.clients[c];
                let own = cl.pass.own.map(|_| s.op(c));
                let units: Vec<u8> = cl.claims.iter().map(|&(u, _)| s.unit[u as usize]).collect();
                for op in units.into_iter().chain(own) {
                    s.dup |= s.at[op as usize] != 0;
                    s.at[op as usize] = s.log;
                }
                s.clients[c].act = Act::Exec(1);
                out.push((s, false));
            }
            Act::Exec(sub) if sub > 0 => {
                // Apply, then publish `applied`.
                if (sub == 1) == APPLIES_FIRST {
                    s.applied = s.log;
                } else {
                    s.published = s.log;
                }
                s.clients[c].act = Act::Exec(2);
                if sub == 2 {
                    s.lock = 0;
                    s.clients[c].pass.executed(false);
                    let direct = s.clients[c].pass.own.is_some();
                    s.clients[c].act = if direct { Act::Direct } else { Act::Combine };
                }
                out.push((s, false));
            }
            _ => {}
        }
    }

    fn submit(mut self, c: usize, out: &mut Vec<(Self, bool)>) {
        let cl = &mut self.clients[c];
        (cl.act, cl.pass) = (Act::Direct, Pass::direct());
        cl.claims.clear();
        self.run_pass(c, out);
    }

    /// Client `c`'s machine `m` takes one word step, then the yields that
    /// follow until its next step, each handed to `on`, which returns
    /// `Some(stale)` once the client stops.
    fn run<M: Machine<u8>>(
        mut self,
        c: usize,
        m: &mut M,
        claims: &mut Vec<(u8, u32)>,
        out: &mut Vec<(Self, bool)>,
        on: impl Fn(&mut Self, M::Yield, &mut Vec<(Self, bool)>) -> Option<bool>,
    ) -> (Self, bool) {
        let mut stepped = false;
        loop {
            match m.next(claims) {
                Step::Op(_) if stepped => return (self, false),
                Step::Op(op) => {
                    let (old, slot) = self.access(c, op, claims);
                    m.apply(old, slot.as_ref(), claims);
                    stepped = true;
                }
                Step::Yield(y) => {
                    if let Some(stale) = on(&mut self, y, out) {
                        return (self, stale);
                    }
                }
            }
        }
    }

    fn run_pass(mut self, c: usize, out: &mut Vec<(Self, bool)>) {
        let mut pass = self.clients[c].pass;
        let mut claims = std::mem::take(&mut self.clients[c].claims);
        let direct = self.clients[c].act == Act::Direct;
        let (mut s, stale) = self.run(c, &mut pass, &mut claims, out, |s, y, out| {
            let act = match y {
                Passed::Park if s.crashes > 0 => {
                    let mut dead = s.clone();
                    (dead.crashes, dead.clients[c].act) = (s.crashes - 1, Act::Crashed);
                    out.push((dead, false));
                    return None;
                }
                Passed::Park => return None,
                Passed::Execute { .. } => Act::Exec(0),
                Passed::Busy if direct => {
                    s.clients[c].owner = Owner::publish();
                    Act::Owner
                }
                Passed::Done if direct => return Some(s.finish(c)),
                _ => Act::Wait,
            };
            s.clients[c].act = act;
            Some(false)
        });
        (s.clients[c].pass, s.clients[c].claims) = (pass, claims);
        out.push((s, stale));
    }

    fn run_owner(self, c: usize, mut owner: Owner, out: &mut Vec<(Self, bool)>) {
        let (mut s, stale) = self.run(c, &mut owner, &mut Vec::new(), out, |s, y, _| {
            s.clients[c].act = match y {
                Polled::Published => {
                    s.unit[c] = s.op(c);
                    Act::Wait
                }
                Polled::Ready | Polled::Failed => return Some(s.finish(c)),
                Polled::Pending | Polled::Reclaimed => Act::Chose,
                _ => Act::Wait,
            };
            Some(false)
        });
        s.clients[c].owner = owner;
        out.push((s, stale));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(clients: usize, stutters: u64, crashes: u8, lease: bool) -> CombineModelConfig {
        config(clients, 1, stutters, crashes, lease)
    }

    fn check_clean(grid: Vec<CombineModelConfig>) {
        for cfg in grid {
            let t0 = std::time::Instant::now();
            let report = explore(&cfg);
            eprintln!("{cfg:?} -> {report:?} in {:?}", t0.elapsed());
            assert!(report.clean(), "violations in {cfg:?}: {report:?}");
            assert!(report.states > 10, "degenerate exploration: {report:?}");
            assert!(report.terminals > 0, "no quiescent state: {report:?}");
        }
    }

    #[test]
    fn the_grid_is_clean() {
        check_clean(grid());
    }

    #[test]
    fn the_crash_grid_is_clean() {
        check_clean(crash_grid());
    }

    #[test]
    fn three_clients_reach_three_live_passes() {
        // The flag admits one pass; forced passes admit one per waiter.
        let report = explore(&cfg(3, 0, 0, false));
        assert_eq!(report.max_passes, 3, "{report:?}");
    }

    #[test]
    fn crash_without_lease_parks_ops() {
        // A combiner killed between claim and seal, and no reclaim: some
        // schedule wedges a live client on its parked unit.
        let report = explore(&cfg(2, 0, 1, false));
        assert!(
            report.lost_ops > 0,
            "no parked ops without the lease: {report:?}"
        );
        assert_eq!(report.duplicated_ops, 0, "{report:?}");
    }

    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    struct Unsealed;
    impl Rule for Unsealed {
        fn keeps(_: bool) -> bool {
            true
        }
    }

    #[test]
    fn lease_without_seal_double_applies() {
        // The reclaim is safe only because a lost seal drops the unit: a
        // slow live combiner racing a reclaim is enough to see it.
        let report = explore_with::<Unsealed, true>(&cfg(2, 0, 0, true));
        assert!(report.duplicated_ops > 0, "{report:?}");
    }

    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    struct Published;
    impl Rule for Published {
        fn publishes_own() -> bool {
            true
        }
    }

    #[test]
    fn a_direct_pass_that_publishes_its_unit_double_applies() {
        let report = explore_with::<Published, true>(&cfg(2, 0, 0, false));
        assert!(report.duplicated_ops > 0, "{report:?}");
    }

    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    struct Unguarded;
    impl Rule for Unguarded {
        fn fresh(_: usize, _: usize) -> bool {
            true
        }
    }

    #[test]
    fn unguarded_fast_reads_are_caught() {
        let report = explore_with::<Unguarded, true>(&cfg(2, 1, 0, false));
        assert!(report.stale_reads > 0, "{report:?}");
        assert_eq!(
            (report.lost_ops, report.duplicated_ops),
            (0, 0),
            "{report:?}"
        );
    }

    #[test]
    fn publishing_applied_before_applying_is_caught() {
        // The model twin of combine.rs's `a_pass_publishes_what_it_applied`.
        let report = explore_with::<Protocol, false>(&cfg(2, 0, 0, false));
        assert!(report.stale_reads > 0, "{report:?}");
    }

    #[test]
    fn stutters_exercise_retries_without_losing_ops() {
        let none = explore(&cfg(2, 0, 0, false));
        let some = explore(&cfg(2, 2, 0, false));
        assert!(none.clean() && some.clean());
        assert!(some.states > none.states, "{none:?} vs {some:?}");
    }

    #[test]
    #[should_panic(expected = "finite stutter budget")]
    fn unbounded_stutter_is_refused() {
        explore(&CombineModelConfig {
            stutter_budget: Bound::Unbounded,
            ..cfg(2, 0, 0, false)
        });
    }
}
