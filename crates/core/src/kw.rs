//! Wait-free CAS from consensus-number-1 primitives, after
//! Khanchandani & Wattenhofer ("Is Compare-and-Swap Really Necessary?",
//! arXiv 1802.03844).
//!
//! The hierarchy places compare-and-swap at consensus number ∞ and
//! max-registers at consensus number 1, yet KW show a CAS object can be
//! *implemented*, wait-free for its one-shot uses, from a combination
//! of a **max-write** and a **half-max** on a single word. This module
//! is an independent construction in that spirit (only the paper's
//! abstract is available offline; the algorithm below is derived and
//! argued from scratch, then checked by the `ff-sim` explorer, which
//! runs the same step machine the native object runs):
//!
//! The object's value lives in a max-register `X` packed as
//! `(epoch, value)`. A successful CAS advances the epoch by one; the
//! value at epoch `k` is arbitrated by a per-epoch decision word `D_k`
//! packed as `(frozen, tag, value)`:
//!
//! 1. **read** `X = (e, v)`. If `v ≠ exp`, the CAS fails, linearized at
//!    this read (the content really was `v` then, and a failed CAS
//!    writes nothing).
//! 2. **propose**: max-write `(0, t, new)` into `D_{e+1}` with a unique
//!    tag `t`. Because `frozen` is the top bit and `tag` orders below
//!    it, this single max-write can never displace a frozen word, and
//!    among proposals the highest tag wins.
//! 3. **freeze**: or the top bit into `D_{e+1}` — a half-max on the
//!    one-bit half (monotone: once set, never unset), making the
//!    current winner sticky. Every contender freezes before reading, so
//!    every contender reads the *same* winner.
//! 4. **read** `D_{e+1} = (1, w_t, w_v)` and **help**: max-write
//!    `(e+1, w_v)` into `X`. All helpers of epoch `e+1` write the same
//!    pair (the word was frozen first), so the lexicographic max on
//!    `(epoch, value)` is again a true max-write.
//! 5. If `w_t = t`, this process's proposal won: its CAS succeeded,
//!    linearized at the instant `X` advanced from `(e, exp)` to
//!    `(e+1, new)` — until that instant the content was still `exp`
//!    (epoch-`e` content only changes by the epoch advancing), and
//!    after it, `new`. Return `exp`.
//! 6. Otherwise the winner installed `w_v`. If `w_v ≠ exp`, this CAS
//!    fails, linearized immediately after the winner's: the content was
//!    `w_v` there. Return `w_v`. If `w_v = exp` — the winner installed
//!    exactly the value we expected, so a failure returning `exp` would
//!    be contradictory — retry from step 1; `X` has already advanced
//!    past `e` (we helped it), so every retry strictly increases the
//!    epoch: the loop is lock-free, and **wait-free for the one-shot
//!    consensus pattern** `CAS(⊥, input)`, where a lost round always
//!    decided some input `≠ ⊥` and the retry case is unreachable.
//!
//! The protocol is written once, as [`KwOp`]: a step machine whose
//! steps are [`ff_sim::Op::Read`] and [`ff_sim::Op::Rmw`] over one
//! object's [`KwBlock`] of registers. [`KwCas`] runs it over its
//! atomic words in one loop; [`OverKw`] runs it under `ff-sim`, where
//! it replaces each CAS step of a consensus machine, so the explorer
//! checks the construction alone (under [`OneShotMachine`]) and
//! composed (under [`CascadeMachine`], the `kw-robust` substrate's
//! fault-free path).
//!
//! Shared-memory primitives used: max-write ([`RmwFn::Max`]), or on
//! one bit (half-max, [`RmwFn::Or`]) and plain loads — all of consensus
//! number one. The per-object ticket ([`RmwFn::Add`]) is a *naming*
//! oracle, not an arbitration one: it only manufactures unique
//! proposal tags, the role unique process ids play in the original
//! construction (the store's combining clients share a process id, so
//! ids cannot serve here); no decision ever depends on the ticket
//! order, only on tag uniqueness.
//!
//! Width budget (values are `⊥` or 32-bit inputs, see
//! [`ff_spec::Input`]): `X = [epoch:31 | value:33]`,
//! `D = [frozen:1 | tag:30 | value:33]`, with value encoded as `0` for
//! `⊥` and `v + 1` otherwise. A consequence the substrate layer must
//! declare: a KW cell **cannot hold arbitrary 64-bit junk**, so
//! *arbitrary*-kind fault injection (which swaps in full-width junk) is
//! not tolerable over this object — [`RawCas::swap`] panics on an
//! unencodable word rather than silently truncating it.
//!
//! [`OneShotMachine`]: crate::OneShotMachine
//! [`CascadeMachine`]: crate::CascadeMachine

use ff_cas::{CasCell, CasEnsemble, RawCas};
use ff_sim::{Heap, Op, OpResult, Process, RegId, RmwFn, Status};
use ff_spec::{Input, ObjectId, Word, BOTTOM};
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Arc;

/// Bits of the packed value field (32-bit inputs plus the `⊥` code).
const ENC_BITS: u32 = 33;
const ENC_MASK: u64 = (1 << ENC_BITS) - 1;
/// Bits of the proposal tag in a `D` word.
const TAG_BITS: u32 = 30;
const TAG_MASK: u64 = (1 << TAG_BITS) - 1;
/// The half-max freeze bit (top bit of a `D` word).
const FROZEN: u64 = 1 << 63;
/// Epochs representable in an `X` word.
const MAX_EPOCH: u64 = (1 << 31) - 1;

/// Default length of the per-epoch decision chain. One-shot consensus
/// cells consume one epoch per decision plus one per overriding fault
/// landed on them — far below this; generic swap-heavy use can raise it
/// via [`KwCas::with_epoch_capacity`].
pub const DEFAULT_EPOCH_CAPACITY: usize = 256;

/// Encode a cell value into the 33-bit field (`⊥ → 0`, `v → v + 1`).
fn enc(v: Word) -> u64 {
    if v == BOTTOM {
        0
    } else {
        assert!(
            v <= u32::MAX as u64,
            "kw cell cannot hold word {v:#x}: values are ⊥ or 32-bit inputs"
        );
        v + 1
    }
}

/// Decode the 33-bit field back into a cell value.
fn dec(e: u64) -> Word {
    if e == 0 {
        BOTTOM
    } else {
        e - 1
    }
}

fn pack_x(epoch: u64, venc: u64) -> u64 {
    debug_assert!(epoch <= MAX_EPOCH && venc <= ENC_MASK);
    (epoch << ENC_BITS) | venc
}

fn unpack_x(word: u64) -> (u64, u64) {
    (word >> ENC_BITS, word & ENC_MASK)
}

fn pack_d(tag: u64, venc: u64) -> u64 {
    debug_assert!(tag <= TAG_MASK && venc <= ENC_MASK);
    (tag << ENC_BITS) | venc
}

fn unpack_d(word: u64) -> (u64, u64) {
    ((word >> ENC_BITS) & TAG_MASK, word & ENC_MASK)
}

/// Where one KW object's words live: `X` at `base`, the ticket at
/// `base + 1`, then `D_1 … D_epochs`. All zero is the object holding
/// `⊥` at epoch 0.
#[derive(Clone, Copy, Debug)]
pub struct KwBlock {
    base: usize,
    epochs: usize,
}

impl KwBlock {
    /// The block of object number `index` among equal blocks laid end
    /// to end, each with room for `epochs` successful CASes.
    #[inline]
    pub fn nth(index: usize, epochs: usize) -> Self {
        KwBlock {
            base: index * Self::len(epochs),
            epochs,
        }
    }

    /// Registers per block.
    #[inline]
    pub const fn len(epochs: usize) -> usize {
        2 + epochs
    }

    /// A simulator heap holding `objects` fresh KW objects' blocks.
    pub fn heap(objects: usize, epochs: usize) -> Heap {
        Heap::new(0, objects * Self::len(epochs))
    }

    #[inline]
    fn x(self) -> RegId {
        RegId(self.base)
    }

    #[inline]
    fn ticket(self) -> RegId {
        RegId(self.base + 1)
    }

    /// The decision word arbitrating the transition into epoch `k`.
    #[inline]
    fn d(self, k: u64) -> RegId {
        assert!(
            k as usize <= self.epochs,
            "kw cell exhausted its epoch chain (capacity {}): \
             raise with_epoch_capacity for swap-heavy use",
            self.epochs
        );
        RegId(self.base + 1 + k as usize)
    }
}

#[inline]
fn rmw(reg: RegId, f: RmwFn, arg: Word) -> Op {
    Op::Rmw { reg, f, arg }
}

/// What a [`KwOp`] does with the `X` it reads.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Mode {
    /// Returns it.
    Load,
    /// Compares it with `exp`.
    Cas,
    /// Takes it as `exp` and retries until its CAS lands.
    Swap,
}

/// The steps of the protocol, in order; [`KwOp`]'s program counter.
#[derive(Clone, Copy, Debug)]
enum Pc {
    ReadX,
    Ticket,
    Propose,
    Freeze,
    ReadD,
    Help,
}

/// One operation on a KW object — `cas`, `swap` or `load` — as a step
/// machine: [`KwOp::next_op`] names the register step, [`KwOp::apply`]
/// takes the word it returned and, once the operation is over, yields
/// its result. This is the only place the protocol is written.
#[derive(Clone, Copy, Debug)]
pub struct KwOp {
    block: KwBlock,
    mode: Mode,
    pc: Pc,
    exp: Word,
    /// `new`, encoded.
    new: u64,
    epoch: u64,
    tag: u64,
    /// The frozen `D_{epoch+1}` word, once read.
    decided: u64,
}

impl KwOp {
    #[inline]
    fn start(block: KwBlock, mode: Mode, exp: Word, new: Word) -> Self {
        KwOp {
            block,
            mode,
            pc: Pc::ReadX,
            exp,
            new: enc(new),
            epoch: 0,
            tag: 0,
            decided: 0,
        }
    }

    /// `CAS(exp, new)`; yields the old content.
    #[inline]
    pub fn cas(block: KwBlock, exp: Word, new: Word) -> Self {
        Self::start(block, Mode::Cas, exp, new)
    }

    /// Unconditional exchange, as CAS rounds against the content read
    /// until one lands (lock-free: every lost round means some other
    /// operation succeeded); yields the old content.
    #[inline]
    pub fn swap(block: KwBlock, new: Word) -> Self {
        Self::start(block, Mode::Swap, BOTTOM, new)
    }

    /// One read of `X`; yields the content.
    #[inline]
    pub fn load(block: KwBlock) -> Self {
        Self::start(block, Mode::Load, BOTTOM, BOTTOM)
    }

    /// The register step this operation takes next.
    #[inline]
    pub fn next_op(&self) -> Op {
        let b = self.block;
        let k = self.epoch + 1;
        match self.pc {
            Pc::ReadX => Op::Read(b.x()),
            Pc::Ticket => rmw(b.ticket(), RmwFn::Add, 1),
            // Max-write: cannot displace a frozen word; the highest tag
            // wins among proposals.
            Pc::Propose => rmw(b.d(k), RmwFn::Max, pack_d(self.tag, self.new)),
            // Half-max on the top bit: the winner is sticky before
            // anyone reads it.
            Pc::Freeze => rmw(b.d(k), RmwFn::Or, FROZEN),
            Pc::ReadD => Op::Read(b.d(k)),
            // Every helper of epoch k writes the same pair.
            Pc::Help => rmw(b.x(), RmwFn::Max, pack_x(k, unpack_d(self.decided).1)),
        }
    }

    /// Take the word the step returned; `Some(result)` once the
    /// operation is over.
    #[inline]
    pub fn apply(&mut self, word: Word) -> Option<Word> {
        match self.pc {
            Pc::ReadX => {
                let (e, venc) = unpack_x(word);
                let v = dec(venc);
                match self.mode {
                    Mode::Load => return Some(v),
                    // Fail fast on mismatch (linearized at the read).
                    Mode::Cas if v != self.exp => return Some(v),
                    Mode::Cas => {}
                    Mode::Swap => self.exp = v,
                }
                self.epoch = e;
                self.pc = Pc::Ticket;
            }
            Pc::Ticket => {
                self.tag = word + 1;
                assert!(self.tag <= TAG_MASK, "kw cell tag space exhausted");
                self.pc = Pc::Propose;
            }
            Pc::Propose => self.pc = Pc::Freeze,
            Pc::Freeze => self.pc = Pc::ReadD,
            Pc::ReadD => {
                self.decided = word;
                self.pc = Pc::Help;
            }
            Pc::Help => {
                let (wt, wenc) = unpack_d(self.decided);
                if wt == self.tag {
                    // Our proposal won: success, the old value was exp.
                    return Some(self.exp);
                }
                let wv = dec(wenc);
                if wv != self.exp && self.mode == Mode::Cas {
                    // Lost to a different value: fail, linearized right
                    // after the winner's transition.
                    return Some(wv);
                }
                // Lost to our own expected value (or a swap lost its
                // round): retry at a later epoch — X already advanced
                // past e via our help write.
                self.pc = Pc::ReadX;
            }
        }
        None
    }

    /// An exact encoding of the machine's state, for
    /// [`Process::snapshot`].
    fn snapshot(&self) -> [u64; 8] {
        [
            self.block.base as u64,
            self.block.epochs as u64,
            self.mode as u64 | (self.pc as u64) << 8,
            self.exp,
            self.new,
            self.epoch,
            self.tag,
            self.decided,
        ]
    }
}

/// One CAS object implemented from max-write/half-max words.
pub struct KwCas {
    /// The object's [`KwBlock`] at base 0: `X` (the max-register
    /// holding `(epoch, value)`), the unique-tag ticket (a naming
    /// oracle; see the module docs), then the per-epoch decision words.
    words: Box<[AtomicU64]>,
}

impl KwCas {
    /// A KW cell initialized with `⊥` and the default epoch capacity.
    pub fn new() -> Self {
        Self::with_epoch_capacity(DEFAULT_EPOCH_CAPACITY)
    }

    /// A KW cell initialized with `⊥` and room for `capacity`
    /// successful CASes over its lifetime.
    pub fn with_epoch_capacity(capacity: usize) -> Self {
        assert!(capacity >= 1, "need at least one epoch");
        assert!((capacity as u64) < MAX_EPOCH, "epoch capacity too large");
        KwCas {
            words: (0..KwBlock::len(capacity))
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }

    #[inline]
    fn block(&self) -> KwBlock {
        KwBlock::nth(0, self.words.len() - 2)
    }

    /// Run `op` to its result over this object's words. The one place
    /// a KW step touches memory.
    #[inline]
    fn run(&self, mut op: KwOp) -> Word {
        loop {
            let word = match op.next_op() {
                Op::Read(reg) => self.words[reg.0].load(SeqCst),
                Op::Rmw { reg, f, arg } => {
                    let w = &self.words[reg.0];
                    match f {
                        RmwFn::Max => w.fetch_max(arg, SeqCst),
                        RmwFn::Or => w.fetch_or(arg, SeqCst),
                        RmwFn::Add => w.fetch_add(arg, SeqCst),
                    }
                }
                other => unreachable!("kw steps are register steps, not {other:?}"),
            };
            if let Some(result) = op.apply(word) {
                return result;
            }
        }
    }

    /// Epochs consumed so far (successful CASes, including emulated
    /// swaps landed on this cell).
    pub fn epoch(&self) -> u64 {
        unpack_x(self.words[0].load(SeqCst)).0
    }

    /// The raw words, in [`KwBlock`] order (`X`, ticket, `D_1 …`).
    pub fn words(&self) -> Vec<Word> {
        self.words.iter().map(|w| w.load(SeqCst)).collect()
    }
}

impl Default for KwCas {
    fn default() -> Self {
        Self::new()
    }
}

impl CasCell for KwCas {
    fn cas(&self, exp: Word, new: Word) -> Word {
        self.run(KwOp::cas(self.block(), exp, new))
    }
}

impl RawCas for KwCas {
    fn load(&self) -> Word {
        self.run(KwOp::load(self.block()))
    }

    /// The only caller is the fault injector, which tolerates the
    /// bounded extra rounds of the emulated exchange.
    fn swap(&self, new: Word) -> Word {
        self.run(KwOp::swap(self.block(), new))
    }
}

/// An ensemble of independent [`KwCas`] objects, all initialized `⊥`.
pub struct KwCasArray {
    cells: Vec<KwCas>,
}

impl KwCasArray {
    /// `count` KW cells with the default epoch capacity.
    pub fn new(count: usize) -> Self {
        KwCasArray {
            cells: (0..count).map(|_| KwCas::new()).collect(),
        }
    }

    /// The raw cells, for wrapping in a fault-injection layer.
    pub fn into_raw_cells(self) -> Vec<Arc<dyn RawCas>> {
        self.cells
            .into_iter()
            .map(|c| Arc::new(c) as Arc<dyn RawCas>)
            .collect()
    }
}

impl CasEnsemble for KwCasArray {
    fn len(&self) -> usize {
        self.cells.len()
    }

    fn cas(&self, obj: ObjectId, exp: Word, new: Word) -> Word {
        self.cells[obj.0].cas(exp, new)
    }
}

/// A consensus machine run over KW objects under `ff-sim`: each
/// `Op::Cas { obj, .. }` the inner machine requests becomes a
/// [`KwOp::cas`] over `obj`'s [`KwBlock`], one register step at a
/// time, and its result goes back to the inner machine as the CAS's
/// old value. The heap is [`KwBlock::heap`]; nothing in it is faulty.
#[derive(Clone, Debug)]
pub struct OverKw<M> {
    inner: M,
    epochs: usize,
    pending: Option<KwOp>,
}

impl<M: Process + Clone + 'static> OverKw<M> {
    /// `inner` over KW objects with room for `epochs` successful CASes
    /// each.
    pub fn new(inner: M, epochs: usize) -> Self {
        OverKw {
            inner,
            epochs,
            pending: None,
        }
    }

    fn current(&self) -> KwOp {
        self.pending.unwrap_or_else(|| match self.inner.next_op() {
            Op::Cas { obj, exp, new } => KwOp::cas(KwBlock::nth(obj.0, self.epochs), exp, new),
            other => unreachable!("consensus machines issue CAS steps only, not {other:?}"),
        })
    }
}

impl<M: Process + Clone + 'static> Process for OverKw<M> {
    fn next_op(&self) -> Op {
        self.current().next_op()
    }

    fn apply(&mut self, result: OpResult) -> Status {
        let OpResult::Read(word) = result else {
            unreachable!("kw steps answer with a word, not {result:?}");
        };
        let mut op = self.current();
        self.pending = None;
        match op.apply(word) {
            Some(old) => self.inner.apply(OpResult::Cas { old }),
            None => {
                self.pending = Some(op);
                Status::Running
            }
        }
    }

    fn status(&self) -> Status {
        self.inner.status()
    }

    fn input(&self) -> Input {
        self.inner.input()
    }

    fn snapshot(&self) -> Vec<u64> {
        let mut snap = self.inner.snapshot();
        snap.extend(self.pending.map_or([0; 8], |op| op.snapshot()));
        snap.push(self.pending.is_some() as u64);
        snap
    }

    fn box_clone(&self) -> Box<dyn Process> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machines::boxed;
    use crate::{CascadeMachine, OneShotMachine};
    use ff_sim::{
        explore, run, ExplorerConfig, FaultPlan, NeverFault, RunConfig, SeededRandom, SimState,
    };
    use ff_spec::check_consensus;

    #[test]
    fn sequential_cas_semantics() {
        let c = KwCas::new();
        assert_eq!(c.cas(BOTTOM, 5), BOTTOM);
        assert_eq!(c.cas(BOTTOM, 9), 5, "failure reports the content");
        assert_eq!(c.cas(5, 9), 5);
        assert_eq!(c.cas(9, 7), 9);
        assert_eq!(c.load(), 7);
        assert_eq!(c.epoch(), 3);
    }

    #[test]
    fn swap_is_unconditional() {
        let c = KwCas::new();
        c.cas(BOTTOM, 5);
        assert_eq!(c.swap(9), 5);
        assert_eq!(c.load(), 9);
    }

    #[test]
    #[should_panic(expected = "cannot hold word")]
    fn junk_words_are_refused() {
        let c = KwCas::new();
        c.swap(0xDEAD_BEEF_0000_0001);
    }

    #[test]
    #[should_panic(expected = "exhausted its epoch chain")]
    fn the_epoch_chain_is_bounded() {
        let c = KwCas::with_epoch_capacity(1);
        c.cas(BOTTOM, 5);
        c.cas(5, 9);
    }

    #[test]
    fn exactly_one_concurrent_winner() {
        // Herlihy's argument must hold over the emulated object too.
        for round in 0..50 {
            let cell = Arc::new(KwCas::new());
            let n = 8;
            let winners: Vec<bool> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..n)
                    .map(|i| {
                        let cell = Arc::clone(&cell);
                        s.spawn(move || cell.cas(BOTTOM, (round * 100 + i) as Word) == BOTTOM)
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert_eq!(winners.iter().filter(|&&w| w).count(), 1);
        }
    }

    #[test]
    fn losers_all_report_the_winner() {
        for round in 0..50u64 {
            let cell = Arc::new(KwCas::new());
            let n = 6u64;
            let olds: Vec<Word> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..n)
                    .map(|i| {
                        let cell = Arc::clone(&cell);
                        s.spawn(move || cell.cas(BOTTOM, round * 100 + i))
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let winner = cell.load();
            for (i, old) in olds.iter().enumerate() {
                if *old == BOTTOM {
                    assert_eq!(winner, round * 100 + i as u64, "winner installed its value");
                } else {
                    assert_eq!(*old, winner, "losers observe the winner's value");
                }
            }
        }
    }

    #[test]
    fn mixed_cas_chain_under_contention() {
        // Threads race to advance a counter-like chain 0 → 1 → 2 → …;
        // every successful CAS claims a unique slot in the chain, so
        // the final value equals the number of successes.
        let cell = Arc::new(KwCas::with_epoch_capacity(4096));
        cell.cas(BOTTOM, 0);
        let successes: u64 = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let cell = Arc::clone(&cell);
                    s.spawn(move || {
                        let mut wins = 0u64;
                        for _ in 0..200 {
                            let cur = cell.load();
                            if cell.cas(cur, cur + 1) == cur {
                                wins += 1;
                            }
                        }
                        wins
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(cell.load(), successes, "each success advanced by one");
    }

    // -----------------------------------------------------------------
    // The explorer over the one machine. The one-shot pattern CAS(⊥, v)
    // only ever decides D_1, so one epoch per object suffices.
    // -----------------------------------------------------------------

    fn one_shots_over_kw(inputs: &[u32]) -> Vec<Box<dyn Process>> {
        let inputs: Vec<Input> = inputs.iter().map(|&v| Input(v)).collect();
        boxed(&inputs, |v| OverKw::new(OneShotMachine::new(v), 1))
    }

    /// Every schedule is consensus, and on the longest of them every
    /// process ran all six KW steps on every object.
    fn explore_over_kw(procs: Vec<Box<dyn Process>>, objects: usize) {
        let n = procs.len();
        let state = SimState::new(procs, KwBlock::heap(objects, 1), FaultPlan::none());
        let report = explore(state, ExplorerConfig::default());
        assert!(report.verified(), "{report:?}");
        assert_eq!(report.max_depth_seen, 6 * n * objects);
    }

    #[test]
    fn model_exhaustive_two_processes() {
        explore_over_kw(one_shots_over_kw(&[10, 20]), 1);
    }

    #[test]
    fn model_exhaustive_three_processes() {
        explore_over_kw(one_shots_over_kw(&[10, 20, 30]), 1);
    }

    #[test]
    fn cascade_over_kw_explored_two_processes() {
        // kw-robust's composition, fault-free: Figure 2 with f = 1 over
        // two KW objects.
        let procs = boxed(&[Input(10), Input(20)], |v| {
            OverKw::new(CascadeMachine::new(v, 1), 1)
        });
        explore_over_kw(procs, 2);
    }

    #[test]
    fn random_schedules_install_the_decision() {
        // The property agreement and validity leave out: X ends up
        // holding the value every process decided.
        for seed in 0..2_000 {
            let report = run(
                one_shots_over_kw(&[10, 20, 30]),
                KwBlock::heap(1, 1),
                &FaultPlan::none(),
                &mut SeededRandom::new(seed),
                &mut NeverFault,
                RunConfig {
                    record_trace: false,
                    ..RunConfig::default()
                },
            );
            assert!(report.completed);
            // Wait-free: six steps at most, no retry.
            assert!(check_consensus(&report.outcomes, Some(6)).ok());
            let decided = report.outcomes[0].decision.unwrap();
            let x = report.heap.read_register(RegId(0));
            assert_eq!(dec(unpack_x(x).1), decided.to_word(), "seed {seed}");
        }
    }
}
