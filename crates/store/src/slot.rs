//! The announce-slot protocol of flat combining, written once.
//!
//! A shard's combining core ([`crate::combine`]) coordinates its
//! clients through one word per announce slot, [`pack`]`(state,
//! epoch)`, and one advisory combiner flag. Every access to those words
//! is a step of one of two machines:
//!
//! * [`Owner`] — the slot owner's side: **publish** a unit
//!   (`EMPTY → PENDING`), **poll** it, **reclaim** it from a stalled or
//!   dead combiner once the lease runs out (`(CLAIMED, e) → (PENDING,
//!   e+1)`), **consume** a delivery (`DONE/FAILED → EMPTY`).
//! * [`Pass`] — a combine pass: take the flag (a *forced* pass does
//!   not), **claim** every pending slot in registry order (`(PENDING, e)
//!   → (CLAIMED, e)`), **seal** each claim (`(CLAIMED, e) → (SEALED,
//!   e)`), **deliver** (`DONE`/`FAILED`), release the flag. A *direct*
//!   pass runs its caller's unit at the caller's registry position
//!   without ever publishing it.
//!
//! Seal and reclaim race on the same `(CLAIMED, e)` word, so exactly
//! one wins: a lost seal drops the unit from the batch, and a later pass
//! applies it once its owner has republished it under a fresh epoch.
//!
//! Each step is one load, store or compare-exchange ([`SlotOp`]) on one
//! [`Word`]. The rest happens at a pass's two yields: the crash window
//! between claim and seal, and the execute under the replica lock.
//! `ShardCore` runs the machines over its atomics; [`crate::combining`]
//! explores them over plain words (E18).

use std::marker::PhantomData;

// Slot states; the epoch above them grows only on a reclaim. `FAILED`
// delivers divergence evidence: an error, never wrong data.
pub const EMPTY: u32 = 0;
pub const PENDING: u32 = 1;
pub const CLAIMED: u32 = 2;
pub const SEALED: u32 = 3;
pub const DONE: u32 = 4;
pub const FAILED: u32 = 5;

const STATE_BITS: u32 = 3;
const STATE_MASK: u32 = (1 << STATE_BITS) - 1;

/// What a driver answers a load past the end of the registry.
pub const END: u32 = u32::MAX;
/// What a driver answers a direct pass's load of its caller's slot,
/// which it does not read.
pub const MINE: u32 = u32::MAX - 1;

#[inline]
pub fn pack(state: u32, epoch: u32) -> u32 {
    debug_assert!(state <= STATE_MASK);
    state | epoch << STATE_BITS
}

#[inline]
pub fn state_of(word: u32) -> u32 {
    word & STATE_MASK
}

#[inline]
pub fn epoch_of(word: u32) -> u32 {
    word >> STATE_BITS
}

/// A word the protocol coordinates through: the advisory flag (0 free,
/// 1 held), the running owner's own slot, the slot at a registry index,
/// or the slot of a pass's `k`-th claim.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Word {
    Flag,
    Own,
    Slot(usize),
    Claim(usize),
}

/// One step: a load, a store, or a compare-exchange that writes the
/// second value iff the word holds the first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotOp {
    Load(Word),
    Store(Word, u32),
    Cas(Word, u32, u32),
}

impl SlotOp {
    #[inline]
    pub fn word(self) -> Word {
        match self {
            SlotOp::Load(w) | SlotOp::Store(w, _) | SlotOp::Cas(w, ..) => w,
        }
    }
}

/// What a machine does next: a step, or a yield to its driver.
pub enum Step<Y> {
    Op(SlotOp),
    Yield(Y),
}

/// A step machine over slot words. A driver loops: take
/// [`Machine::next`]; on [`Step::Op`] access the word and
/// [`Machine::apply`] what it held; on [`Step::Yield`] return. `claims`
/// is a pass's claims in registry order: the slot, as the driver names
/// it, and the epoch it was claimed under.
pub trait Machine<S> {
    type Yield;
    fn next(&mut self, claims: &mut Vec<(S, u32)>) -> Step<Self::Yield>;
    /// `slot` is the slot a [`Word::Slot`] step accessed.
    fn apply(&mut self, word: u32, slot: Option<&S>, claims: &mut Vec<(S, u32)>);
}

/// The protocol's choices where its broken variants differ: the store
/// runs [`Protocol`]; the model's tests substitute mutated rules.
pub trait Rule: Copy + Eq + std::hash::Hash + std::fmt::Debug {
    /// Whether a pass executes a claim whose seal `won`.
    fn keeps(won: bool) -> bool {
        won
    }
    /// Whether a direct pass also publishes its caller's unit.
    fn publishes_own() -> bool {
        false
    }
    /// Whether a read that sampled the log's tail may answer from a
    /// replica that published `applied` (`fast_get`'s check).
    fn fresh(applied: usize, tail: usize) -> bool {
        applied >= tail
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Protocol;

impl Rule for Protocol {}

/// What an [`Owner`] hands its driver. `Busy`: publish found a unit in
/// flight and wrote nothing. `Ready`/`Failed`: delivered and consumed.
/// `Pending`: unclaimed, the owner may combine it. `Reclaimed`: taken
/// back and republished. `Claimed`: a pass holds it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Polled {
    Busy,
    Published,
    Ready,
    Failed,
    Pending,
    Reclaimed,
    Claimed,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum OwnerPc {
    Publish,
    Poll(bool),
    /// Store the word, then yield.
    Store(u32, Polled),
    Reclaim(u32),
    Over(Polled),
}

/// The owner's side of its slot ([`Word::Own`]): one publish or one
/// poll. A publish marks the slot `PENDING`; the driver writes the
/// unit's ops where no pass reads them before that store.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Owner(pub(crate) OwnerPc);

impl Owner {
    #[inline]
    pub fn publish() -> Self {
        Owner(OwnerPc::Publish)
    }

    /// Look once; `reclaim` lets the lease take a claimed unit back.
    #[inline]
    pub fn poll(reclaim: bool) -> Self {
        Owner(OwnerPc::Poll(reclaim))
    }
}

impl<S> Machine<S> for Owner {
    type Yield = Polled;

    #[inline(always)]
    fn next(&mut self, _: &mut Vec<(S, u32)>) -> Step<Polled> {
        Step::Op(match self.0 {
            OwnerPc::Publish | OwnerPc::Poll(_) => SlotOp::Load(Word::Own),
            OwnerPc::Store(w, _) => SlotOp::Store(Word::Own, w),
            OwnerPc::Reclaim(w) => SlotOp::Cas(Word::Own, w, pack(PENDING, epoch_of(w) + 1)),
            OwnerPc::Over(y) => return Step::Yield(y),
        })
    }

    #[inline(always)]
    fn apply(&mut self, word: u32, _: Option<&S>, _: &mut Vec<(S, u32)>) {
        let e = epoch_of(word);
        self.0 = match (self.0, state_of(word)) {
            (OwnerPc::Publish, EMPTY) => OwnerPc::Store(pack(PENDING, e), Polled::Published),
            (OwnerPc::Publish, _) => OwnerPc::Over(Polled::Busy),
            (OwnerPc::Poll(_), DONE) => OwnerPc::Store(pack(EMPTY, e), Polled::Ready),
            (OwnerPc::Poll(_), FAILED) => OwnerPc::Store(pack(EMPTY, e), Polled::Failed),
            (OwnerPc::Poll(_), PENDING) => OwnerPc::Over(Polled::Pending),
            (OwnerPc::Poll(true), CLAIMED) => OwnerPc::Reclaim(word),
            (OwnerPc::Store(_, y), _) => OwnerPc::Over(y),
            (OwnerPc::Reclaim(w), _) if word == w => OwnerPc::Over(Polled::Reclaimed),
            _ => OwnerPc::Over(Polled::Claimed),
        };
    }
}

/// What a [`Pass`] hands its driver. `Busy`: the flag was held, no pass
/// ran. `Park`: claimed, the crash window before the seal (a pass that
/// claimed nothing skips it). `Execute`: sealed — run the claims as one
/// batch, a direct pass's own unit after the first `own_at` of them,
/// report through [`Pass::executed`] and resume to deliver. `Done`:
/// over, the flag (if taken) released.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Passed {
    Busy,
    Park,
    Execute { own_at: Option<usize> },
    Done,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum PassPc {
    Lead,
    Scan(usize),
    Claim(usize, u32),
    PublishOwn(usize),
    Park,
    /// Seal the `k`-th claim, `kept` sealed so far.
    Seal(usize, usize),
    Execute,
    /// Deliver the `k`-th claim, `FAILED` if the log diverged.
    Deliver(usize, bool),
    Release,
    Over(Passed),
}

/// One combine pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Pass<R = Protocol> {
    pub(crate) pc: PassPc,
    leads: bool,
    /// A direct pass's claims ahead of its caller's unit (`usize::MAX`
    /// until the scan passes the caller's slot).
    pub(crate) own: Option<usize>,
    rule: PhantomData<R>,
}

impl<R: Rule> Pass<R> {
    #[inline]
    fn start(pc: PassPc, own: Option<usize>) -> Self {
        Pass {
            pc,
            leads: pc == PassPc::Lead,
            own,
            rule: PhantomData,
        }
    }

    /// The flag holder's pass; [`Passed::Busy`] if the flag is held.
    #[inline]
    pub fn direct() -> Self {
        Self::start(PassPc::Lead, Some(usize::MAX))
    }

    /// A pass over published units only; `force` skips the flag.
    #[inline]
    pub fn split(force: bool) -> Self {
        Self::start(if force { PassPc::Scan(0) } else { PassPc::Lead }, None)
    }

    /// Report the execute: deliver `FAILED` when the log diverged.
    #[inline]
    pub fn executed(&mut self, diverged: bool) {
        self.pc = PassPc::Deliver(0, diverged);
    }
}

impl<S: Clone, R: Rule> Machine<S> for Pass<R> {
    type Yield = Passed;

    #[inline(always)]
    fn next(&mut self, claims: &mut Vec<(S, u32)>) -> Step<Passed> {
        loop {
            return Step::Op(match self.pc {
                PassPc::Lead => SlotOp::Cas(Word::Flag, 0, 1),
                PassPc::Scan(i) => SlotOp::Load(Word::Slot(i)),
                PassPc::Claim(i, w) => SlotOp::Cas(Word::Slot(i), w, pack(CLAIMED, epoch_of(w))),
                PassPc::PublishOwn(i) => SlotOp::Store(Word::Slot(i), pack(PENDING, 0)),
                PassPc::Park => {
                    self.pc = PassPc::Seal(0, 0);
                    return Step::Yield(Passed::Park);
                }
                PassPc::Seal(k, kept) => {
                    // The own unit moves down past dropped claims; once
                    // placed, `own <= kept <= k` never matches again.
                    if self.own == Some(k) {
                        self.own = Some(kept);
                    }
                    if let Some(&(_, e)) = claims.get(k) {
                        SlotOp::Cas(Word::Claim(k), pack(CLAIMED, e), pack(SEALED, e))
                    } else {
                        claims.truncate(kept);
                        self.own = self.own.map(|own| own.min(kept));
                        self.pc = match self.own {
                            None if kept == 0 => PassPc::Release,
                            _ => PassPc::Execute,
                        };
                        continue;
                    }
                }
                PassPc::Execute => return Step::Yield(Passed::Execute { own_at: self.own }),
                PassPc::Deliver(k, failed) if k < claims.len() => {
                    let state = if failed { FAILED } else { DONE };
                    SlotOp::Store(Word::Claim(k), pack(state, claims[k].1))
                }
                PassPc::Deliver(..) => {
                    self.pc = PassPc::Release;
                    continue;
                }
                PassPc::Release if self.leads => SlotOp::Store(Word::Flag, 0),
                PassPc::Release => {
                    self.pc = PassPc::Over(Passed::Done);
                    continue;
                }
                PassPc::Over(y) => return Step::Yield(y),
            });
        }
    }

    #[inline(always)]
    fn apply(&mut self, word: u32, slot: Option<&S>, claims: &mut Vec<(S, u32)>) {
        self.pc = match self.pc {
            PassPc::Lead if word != 0 => PassPc::Over(Passed::Busy),
            PassPc::Lead => PassPc::Scan(0),
            PassPc::Scan(_) if word == END && claims.is_empty() => PassPc::Seal(0, 0),
            PassPc::Scan(_) if word == END => PassPc::Park,
            PassPc::Scan(i) if word == MINE => {
                self.own = Some(claims.len());
                if R::publishes_own() {
                    PassPc::PublishOwn(i)
                } else {
                    PassPc::Scan(i + 1)
                }
            }
            PassPc::Scan(i) if state_of(word) == PENDING => PassPc::Claim(i, word),
            PassPc::Claim(i, w) => {
                if word == w {
                    claims.push((slot.expect("a claim names a slot").clone(), epoch_of(w)));
                }
                PassPc::Scan(i + 1)
            }
            PassPc::Scan(i) | PassPc::PublishOwn(i) => PassPc::Scan(i + 1),
            PassPc::Seal(k, kept) => {
                if R::keeps(word == pack(CLAIMED, claims[k].1)) {
                    claims.swap(kept, k);
                    PassPc::Seal(k + 1, kept + 1)
                } else {
                    PassPc::Seal(k + 1, kept)
                }
            }
            PassPc::Deliver(k, failed) => PassPc::Deliver(k + 1, failed),
            _ => PassPc::Over(Passed::Done),
        };
    }
}
