//! The open consensus-substrate API: the store's pluggable cell layer.
//!
//! The paper's hierarchy corollary (§5.2) says the fault-tolerant
//! constructions compose over *any* consensus substrate — they only
//! need objects with the assumed interface and fault envelope. The
//! store used to hard-code that substrate as a closed three-variant
//! enum; this module turns it into an open trait plus a process-wide
//! registry, so a new substrate (a CAS built from weaker primitives, an
//! aggregation object, a future hardware model) plugs in by
//! implementing [`Substrate`] and calling [`register`] — and every
//! consumer (the store builder, soak, netbench, the DST, `report`)
//! resolves it by name through the same [`FromStr`] impl, with the
//! same conformance tests run against it for free.
//!
//! A substrate answers four questions:
//!
//! 1. **Construction** — [`Substrate::make_cell`] builds one consensus
//!    cell from the shard's fault environment (via [`CellCtx`], which
//!    carries the shard's live fault knob, shared stats, and
//!    deterministic per-cell salts).
//! 2. **Accounting** — [`Substrate::objects_per_cell`] and
//!    [`Substrate::consensus_number`] feed reports and the conformance
//!    suite.
//! 3. **Fault envelope** — [`Substrate::tolerated_kinds`] declares
//!    which functional-fault kinds the construction survives;
//!    [`Substrate::validate`] refuses environments outside it (the
//!    rules the old enum hard-coded: no invisible faults, silent needs
//!    a finite budget `t`, …).
//! 4. **Expectation** — [`Substrate::expected_consistent`] says whether
//!    a store on this substrate should end [`Store::verify`]-consistent
//!    under its declared faults (`false` only for deliberately broken
//!    witnesses like `naive`).
//!
//! Built-in substrates:
//!
//! | name | cell construction | primitives | tolerates |
//! |---|---|---|---|
//! | `reliable` | Herlihy over one correct CAS | hardware CAS | — (nothing injected) |
//! | `robust` | cascade (Fig. 2) / bounded retry (§3.4) | hardware CAS | overriding, silent, arbitrary |
//! | `naive` | Herlihy straight over a faulty object | hardware CAS | nothing (the broken witness) |
//! | `kw-cas` | Herlihy over a KW CAS built from max-write/half-max | consensus number 1 | — (nothing injected) |
//! | `kw-robust` | cascade / retry over faulty KW cells | consensus number 1 | overriding, silent |
//! | `wfa` | write-and-f-array aggregation + reliable arbitration | consensus number 2 | — (nothing injected) |
//! | `wfa-robust` | write-and-f-array aggregation + robust arbitration | consensus number 2 | overriding, silent, arbitrary |
//!
//! No substrate writes a protocol: every cell is an `ff-consensus` type
//! over the substrate's objects, and its `decide` runs the step machine
//! `ff-sim` model-checks — `naive`'s junk decisions and `robust`'s
//! junk-skipping are `OneShotMachine`'s and `CascadeMachine`'s.
//!
//! `kw-robust` declares **arbitrary** intolerable not because the
//! cascade would fail but because the fault itself is unrepresentable:
//! an arbitrary fault swaps full-width junk into the cell, and a KW
//! word only encodes `⊥` or 32-bit inputs — the substrate refuses the
//! environment rather than silently truncating the fault model.

use crate::cells::{FaultConfig, FaultKnob, KnobPolicy};
use crate::ConfigError;
use ff_cas::{
    splitmix64, AtomicCasArray, CasEnsemble, EnsembleStats, FaultyCasArray, KwCasArray, RawCas,
};
use ff_consensus::{
    CascadeConsensus, Consensus, HerlihyConsensus, SilentRetryConsensus, WafConsensus,
};
use ff_spec::{Bound, FaultKind};
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Everything a substrate may use while constructing one cell: the
/// shard's fault environment, its live knob, its shared stats sink, and
/// a per-cell salt for deterministic fault streams.
pub struct CellCtx<'a> {
    fault: &'a FaultConfig,
    knob: &'a Arc<FaultKnob>,
    stats: &'a Arc<EnsembleStats>,
    salt: u64,
}

impl<'a> CellCtx<'a> {
    pub(crate) fn new(
        fault: &'a FaultConfig,
        knob: &'a Arc<FaultKnob>,
        stats: &'a Arc<EnsembleStats>,
        salt: u64,
    ) -> Self {
        CellCtx {
            fault,
            knob,
            stats,
            salt,
        }
    }

    /// The shard's fault environment.
    pub fn fault(&self) -> &FaultConfig {
        self.fault
    }

    /// The silent-fault budget `t`, which [`Substrate::validate`] has
    /// already guaranteed finite for silent environments.
    pub fn silent_budget(&self) -> u64 {
        match self.fault.t {
            Bound::Finite(t) => t,
            Bound::Unbounded => unreachable!("validate() rejects unbounded silent budgets"),
        }
    }

    /// A fault-injecting ensemble of `objects` fresh atomic cells, the
    /// first `faulty` of them faulty, wired to the shard's knob and
    /// stats. The injection stream is deterministic in the shard seed
    /// and this cell's salt. Returned by value: a protocol that owns it
    /// is one flat object (up to four objects, the words, countdowns
    /// and policy all live inside the ensemble).
    pub fn faulty_ensemble(&self, objects: usize, faulty: usize) -> impl CasEnsemble + 'static {
        self.faulty_builder(objects, faulty).build()
    }

    /// Like [`CellCtx::faulty_ensemble`], but injecting over
    /// caller-supplied inner cells — the seam that composes the paper's
    /// constructions over *weaker* substrates (`cells.len()` must equal
    /// `objects`).
    pub fn faulty_over(
        &self,
        cells: Vec<Arc<dyn RawCas>>,
        faulty: usize,
    ) -> impl CasEnsemble + 'static {
        let objects = cells.len();
        self.faulty_builder(objects, faulty)
            .over_cells(cells)
            .build()
    }

    fn faulty_builder(
        &self,
        objects: usize,
        faulty: usize,
    ) -> ff_cas::FaultyCasArrayBuilder<KnobPolicy> {
        FaultyCasArray::builder(objects)
            .kind(self.fault.kind)
            .faulty_first(faulty)
            .per_object(self.fault.t)
            .policy(KnobPolicy {
                knob: Arc::clone(self.knob),
                salt: splitmix64(self.salt),
            })
            .record_history(false)
            .shared_stats(Arc::clone(self.stats))
    }
}

/// A pluggable consensus substrate: how one shard cell is built, what
/// it costs, and which functional faults it survives.
pub trait Substrate: Send + Sync {
    /// The registry/CLI/wire name (also the only naming source for
    /// STATS frames, BENCH JSONs, and report tables).
    fn name(&self) -> &'static str;

    /// One line for docs and report footnotes.
    fn describe(&self) -> &'static str;

    /// Consensus number of the primitive class the cells are built
    /// from: `None` for hardware CAS (unbounded), `Some(k)` for a
    /// construction over consensus-number-`k` primitives.
    fn consensus_number(&self) -> Option<u32>;

    /// Whether this substrate runs its cells over injected faults.
    fn injects_faults(&self) -> bool;

    /// Fault kinds the construction tolerates (empty for substrates
    /// that never inject, and for the broken witness).
    fn tolerated_kinds(&self) -> &'static [FaultKind];

    /// Fault kinds actually injected under `rotate_kinds` — defaults to
    /// the tolerated set; the broken witness overrides this to inject
    /// kinds it does *not* tolerate.
    fn injected_kinds(&self) -> &'static [FaultKind] {
        self.tolerated_kinds()
    }

    /// Should a store on this substrate end `Store::verify`-consistent
    /// under its declared fault envelope? `false` only for deliberately
    /// broken witnesses.
    fn expected_consistent(&self) -> bool {
        true
    }

    /// Shared objects one cell consumes (for reports and the
    /// conformance suite's accounting check).
    fn objects_per_cell(&self, fault: &FaultConfig) -> usize;

    /// Objects inside the fault-injection ensemble (sizes the shard's
    /// shared stats). Differs from [`Substrate::objects_per_cell`] only
    /// when a substrate layers fault-free objects on top of the
    /// injected ones.
    fn injected_objects(&self, fault: &FaultConfig) -> usize {
        self.objects_per_cell(fault)
    }

    /// Refuse fault environments outside this substrate's envelope
    /// (the checks `StoreConfig::builder` surfaces as [`ConfigError`]s).
    fn validate(&self, fault: &FaultConfig) -> Result<(), ConfigError>;

    /// Build one consensus cell.
    fn make_cell(&self, ctx: &CellCtx) -> Arc<dyn Consensus>;
}

/// The robust-construction rules shared by every substrate that runs
/// the paper's fault-tolerant protocols over injected faults.
fn validate_robust(
    tolerated: &'static [FaultKind],
    fault: &FaultConfig,
) -> Result<(), ConfigError> {
    if fault.f == 0 {
        return Err(ConfigError::RobustNeedsFaultyObjects);
    }
    if !tolerated.contains(&fault.kind) {
        return Err(ConfigError::IntolerableKind(fault.kind));
    }
    if fault.kind == FaultKind::Silent && !matches!(fault.t, Bound::Finite(_)) {
        return Err(ConfigError::SilentNeedsFiniteBudget);
    }
    Ok(())
}

/// Objects a robust construction needs: `f + 1` for the cascade, one
/// for the silent-retry protocol.
fn robust_objects(fault: &FaultConfig) -> usize {
    if fault.kind == FaultKind::Silent {
        1
    } else {
        fault.f + 1
    }
}

/// The paper's construction choice over an injected ensemble: bounded
/// retry for silent environments, the Figure 2 cascade otherwise (its
/// machine skips the junk words an arbitrary fault can return).
fn robust_cell(ctx: &CellCtx, ensemble: impl CasEnsemble + 'static) -> Arc<dyn Consensus> {
    if ctx.fault().kind == FaultKind::Silent {
        Arc::new(SilentRetryConsensus::new(ensemble, ctx.silent_budget()))
    } else {
        Arc::new(CascadeConsensus::new(ensemble, ctx.fault().f))
    }
}

const ALL_CLASSIC: &[FaultKind] = &[
    FaultKind::Overriding,
    FaultKind::Silent,
    FaultKind::Arbitrary,
];
const NO_ARBITRARY: &[FaultKind] = &[FaultKind::Overriding, FaultKind::Silent];

/// `reliable` — Herlihy over one correct hardware CAS; the fault-free
/// baseline.
struct ReliableSubstrate;

impl Substrate for ReliableSubstrate {
    fn name(&self) -> &'static str {
        "reliable"
    }
    fn describe(&self) -> &'static str {
        "Herlihy consensus over one correct hardware CAS (fault-free baseline)"
    }
    fn consensus_number(&self) -> Option<u32> {
        None
    }
    fn injects_faults(&self) -> bool {
        false
    }
    fn tolerated_kinds(&self) -> &'static [FaultKind] {
        &[]
    }
    fn objects_per_cell(&self, _fault: &FaultConfig) -> usize {
        1
    }
    fn validate(&self, _fault: &FaultConfig) -> Result<(), ConfigError> {
        Ok(())
    }
    fn make_cell(&self, _ctx: &CellCtx) -> Arc<dyn Consensus> {
        Arc::new(HerlihyConsensus::new(AtomicCasArray::new(1)))
    }
}

/// `robust` — the paper's fault-tolerant constructions over injected
/// hardware CAS.
struct RobustSubstrate;

impl Substrate for RobustSubstrate {
    fn name(&self) -> &'static str {
        "robust"
    }
    fn describe(&self) -> &'static str {
        "cascade (Fig. 2) / bounded retry (S3.4) over injected-faulty hardware CAS"
    }
    fn consensus_number(&self) -> Option<u32> {
        None
    }
    fn injects_faults(&self) -> bool {
        true
    }
    fn tolerated_kinds(&self) -> &'static [FaultKind] {
        ALL_CLASSIC
    }
    fn objects_per_cell(&self, fault: &FaultConfig) -> usize {
        robust_objects(fault)
    }
    fn validate(&self, fault: &FaultConfig) -> Result<(), ConfigError> {
        validate_robust(ALL_CLASSIC, fault)
    }
    fn make_cell(&self, ctx: &CellCtx) -> Arc<dyn Consensus> {
        let objects = robust_objects(ctx.fault());
        let faulty = if ctx.fault().kind == FaultKind::Silent {
            1
        } else {
            ctx.fault().f
        };
        robust_cell(ctx, ctx.faulty_ensemble(objects, faulty))
    }
}

/// `naive` — Herlihy straight over a faulty object: the construction
/// the paper proves broken, kept as the divergence witness.
struct NaiveSubstrate;

impl Substrate for NaiveSubstrate {
    fn name(&self) -> &'static str {
        "naive"
    }
    fn describe(&self) -> &'static str {
        "Herlihy straight over one injected-faulty CAS (the broken witness, E10)"
    }
    fn consensus_number(&self) -> Option<u32> {
        None
    }
    fn injects_faults(&self) -> bool {
        true
    }
    fn tolerated_kinds(&self) -> &'static [FaultKind] {
        &[]
    }
    fn injected_kinds(&self) -> &'static [FaultKind] {
        ALL_CLASSIC
    }
    fn expected_consistent(&self) -> bool {
        false
    }
    fn objects_per_cell(&self, _fault: &FaultConfig) -> usize {
        1
    }
    fn validate(&self, _fault: &FaultConfig) -> Result<(), ConfigError> {
        Ok(())
    }
    fn make_cell(&self, ctx: &CellCtx) -> Arc<dyn Consensus> {
        Arc::new(HerlihyConsensus::new(ctx.faulty_ensemble(1, 1)))
    }
}

/// `kw-cas` — Herlihy over a CAS object built from consensus-number-1
/// primitives (max-write + half-max), no injection: measures the pure
/// construction cost of the weaker substrate.
struct KwCasSubstrate;

impl Substrate for KwCasSubstrate {
    fn name(&self) -> &'static str {
        "kw-cas"
    }
    fn describe(&self) -> &'static str {
        "Herlihy over a Khanchandani-Wattenhofer CAS from max-write/half-max words"
    }
    fn consensus_number(&self) -> Option<u32> {
        Some(1)
    }
    fn injects_faults(&self) -> bool {
        false
    }
    fn tolerated_kinds(&self) -> &'static [FaultKind] {
        &[]
    }
    fn objects_per_cell(&self, _fault: &FaultConfig) -> usize {
        1
    }
    fn validate(&self, _fault: &FaultConfig) -> Result<(), ConfigError> {
        Ok(())
    }
    fn make_cell(&self, _ctx: &CellCtx) -> Arc<dyn Consensus> {
        Arc::new(HerlihyConsensus::new(KwCasArray::new(1)))
    }
}

/// `kw-robust` — the paper's constructions composed over faulty KW
/// cells: the hierarchy corollary (§5.2) made executable. Arbitrary
/// faults are refused because their full-width junk is unrepresentable
/// in a KW word (see the module docs).
struct KwRobustSubstrate;

impl Substrate for KwRobustSubstrate {
    fn name(&self) -> &'static str {
        "kw-robust"
    }
    fn describe(&self) -> &'static str {
        "cascade / bounded retry over injected-faulty KW cells (robust over a weaker substrate)"
    }
    fn consensus_number(&self) -> Option<u32> {
        Some(1)
    }
    fn injects_faults(&self) -> bool {
        true
    }
    fn tolerated_kinds(&self) -> &'static [FaultKind] {
        NO_ARBITRARY
    }
    fn objects_per_cell(&self, fault: &FaultConfig) -> usize {
        robust_objects(fault)
    }
    fn validate(&self, fault: &FaultConfig) -> Result<(), ConfigError> {
        validate_robust(NO_ARBITRARY, fault)
    }
    fn make_cell(&self, ctx: &CellCtx) -> Arc<dyn Consensus> {
        let objects = robust_objects(ctx.fault());
        let faulty = if ctx.fault().kind == FaultKind::Silent {
            1
        } else {
            ctx.fault().f
        };
        let inner = KwCasArray::new(objects).into_raw_cells();
        robust_cell(ctx, ctx.faulty_over(inner, faulty))
    }
}

/// Cells a write-and-f-array cell aggregates over before arbitration.
const WFA_SLOTS: usize = 8;

/// `wfa` — write-and-f-array aggregation (consensus-number-2 object) in
/// front of one reliable arbitration CAS, no injection.
struct WfaSubstrate;

impl Substrate for WfaSubstrate {
    fn name(&self) -> &'static str {
        "wfa"
    }
    fn describe(&self) -> &'static str {
        "write-and-f-array aggregation (Obryk) + reliable single-CAS arbitration"
    }
    fn consensus_number(&self) -> Option<u32> {
        Some(2)
    }
    fn injects_faults(&self) -> bool {
        false
    }
    fn tolerated_kinds(&self) -> &'static [FaultKind] {
        &[]
    }
    fn objects_per_cell(&self, _fault: &FaultConfig) -> usize {
        2
    }
    fn validate(&self, _fault: &FaultConfig) -> Result<(), ConfigError> {
        Ok(())
    }
    fn make_cell(&self, _ctx: &CellCtx) -> Arc<dyn Consensus> {
        let arb = Arc::new(HerlihyConsensus::new(AtomicCasArray::new(1)));
        Arc::new(WafConsensus::new(WFA_SLOTS, arb))
    }
}

/// `wfa-robust` — write-and-f-array aggregation in front of a *robust*
/// arbitration stage over injected faults: the aggregation funnel is
/// fault-free, the decision object lies.
struct WfaRobustSubstrate;

impl Substrate for WfaRobustSubstrate {
    fn name(&self) -> &'static str {
        "wfa-robust"
    }
    fn describe(&self) -> &'static str {
        "write-and-f-array aggregation + cascade / bounded-retry arbitration over injected faults"
    }
    fn consensus_number(&self) -> Option<u32> {
        Some(2)
    }
    fn injects_faults(&self) -> bool {
        true
    }
    fn tolerated_kinds(&self) -> &'static [FaultKind] {
        ALL_CLASSIC
    }
    fn objects_per_cell(&self, fault: &FaultConfig) -> usize {
        1 + robust_objects(fault)
    }
    fn injected_objects(&self, fault: &FaultConfig) -> usize {
        robust_objects(fault)
    }
    fn validate(&self, fault: &FaultConfig) -> Result<(), ConfigError> {
        validate_robust(ALL_CLASSIC, fault)
    }
    fn make_cell(&self, ctx: &CellCtx) -> Arc<dyn Consensus> {
        let objects = robust_objects(ctx.fault());
        let faulty = if ctx.fault().kind == FaultKind::Silent {
            1
        } else {
            ctx.fault().f
        };
        let arb = robust_cell(ctx, ctx.faulty_ensemble(objects, faulty));
        Arc::new(WafConsensus::new(WFA_SLOTS, arb))
    }
}

/// The process-wide substrate registry, seeded with the built-ins on
/// first touch. Locking never fails: the only write is one `push`, so
/// the `Vec` is whole at every step, and a guard poisoned by a panic in
/// a third-party [`Substrate::name`] is taken back with `into_inner` —
/// one bad substrate must not cost the process every later
/// [`Backend::robust`].
fn registry() -> MutexGuard<'static, Vec<Arc<dyn Substrate>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<dyn Substrate>>>> = OnceLock::new();
    let registry = REGISTRY.get_or_init(|| {
        Mutex::new(vec![
            Arc::new(ReliableSubstrate) as Arc<dyn Substrate>,
            Arc::new(RobustSubstrate),
            Arc::new(NaiveSubstrate),
            Arc::new(KwCasSubstrate),
            Arc::new(KwRobustSubstrate),
            Arc::new(WfaSubstrate),
            Arc::new(WfaRobustSubstrate),
        ])
    });
    registry.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A registration was refused because the name is already taken —
/// names are the wire/CLI identity, so they must be unique.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DuplicateSubstrate(pub &'static str);

impl std::fmt::Display for DuplicateSubstrate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "a substrate named {:?} is already registered", self.0)
    }
}

impl std::error::Error for DuplicateSubstrate {}

/// Register a third-party substrate, making it resolvable by name from
/// every CLI and from [`Backend::from_str`].
pub fn register(substrate: Arc<dyn Substrate>) -> Result<(), DuplicateSubstrate> {
    // Foreign code runs before the lock is taken, not under it.
    let name = substrate.name();
    let mut reg = registry();
    if reg.iter().any(|s| s.name() == name) {
        return Err(DuplicateSubstrate(name));
    }
    reg.push(substrate);
    Ok(())
}

/// Every registered substrate, as backend handles, in registration
/// order (built-ins first).
pub fn all_backends() -> Vec<Backend> {
    registry().iter().map(|s| Backend(Arc::clone(s))).collect()
}

/// The names of every registered substrate, in registration order.
pub fn substrate_names() -> Vec<&'static str> {
    registry().iter().map(|s| s.name()).collect()
}

/// A name did not resolve against the substrate registry. The message
/// lists what would have.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownSubstrate {
    /// The name that failed to resolve.
    pub name: String,
    /// Every name that would have resolved.
    pub valid: Vec<&'static str>,
}

impl std::fmt::Display for UnknownSubstrate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown substrate {:?}; valid substrates: {}",
            self.name,
            self.valid.join(", ")
        )
    }
}

impl std::error::Error for UnknownSubstrate {}

/// A handle on one registered substrate — the store's backend choice.
///
/// Cheap to clone (an `Arc`), compared by substrate name, printed as
/// the substrate name, parsed from the substrate name. The former
/// closed enum's three variants survive as [`Backend::reliable`],
/// [`Backend::robust`] and [`Backend::naive`] with unchanged wire/CLI
/// names.
#[derive(Clone)]
pub struct Backend(Arc<dyn Substrate>);

impl Backend {
    fn builtin(name: &str) -> Backend {
        name.parse()
            .expect("built-in substrates are always registered")
    }

    /// The fault-free baseline (hardware CAS, nothing injected).
    pub fn reliable() -> Backend {
        Backend::builtin("reliable")
    }

    /// The paper's fault-tolerant constructions over injected faults.
    pub fn robust() -> Backend {
        Backend::builtin("robust")
    }

    /// The deliberately broken witness (Herlihy over a faulty object).
    pub fn naive() -> Backend {
        Backend::builtin("naive")
    }

    /// CAS from consensus-number-1 primitives, nothing injected.
    pub fn kw_cas() -> Backend {
        Backend::builtin("kw-cas")
    }

    /// The robust constructions composed over faulty KW cells.
    pub fn kw_robust() -> Backend {
        Backend::builtin("kw-robust")
    }

    /// Write-and-f-array aggregation with reliable arbitration.
    pub fn wfa() -> Backend {
        Backend::builtin("wfa")
    }

    /// Write-and-f-array aggregation with robust arbitration over
    /// injected faults.
    pub fn wfa_robust() -> Backend {
        Backend::builtin("wfa-robust")
    }

    /// The substrate's registry/CLI/wire name (the single naming
    /// source for STATS frames, BENCH JSONs, and report tables).
    pub fn name(&self) -> &'static str {
        self.0.name()
    }

    /// The underlying substrate.
    pub fn substrate(&self) -> &dyn Substrate {
        self.0.as_ref()
    }

    /// See [`Substrate::describe`].
    pub fn describe(&self) -> &'static str {
        self.0.describe()
    }

    /// See [`Substrate::consensus_number`].
    pub fn consensus_number(&self) -> Option<u32> {
        self.0.consensus_number()
    }

    /// See [`Substrate::injects_faults`].
    pub fn injects_faults(&self) -> bool {
        self.0.injects_faults()
    }

    /// See [`Substrate::tolerated_kinds`].
    pub fn tolerated_kinds(&self) -> &'static [FaultKind] {
        self.0.tolerated_kinds()
    }

    /// See [`Substrate::injected_kinds`].
    pub fn injected_kinds(&self) -> &'static [FaultKind] {
        self.0.injected_kinds()
    }

    /// See [`Substrate::expected_consistent`].
    pub fn expected_consistent(&self) -> bool {
        self.0.expected_consistent()
    }

    /// See [`Substrate::objects_per_cell`].
    pub fn objects_per_cell(&self, fault: &FaultConfig) -> usize {
        self.0.objects_per_cell(fault)
    }

    /// See [`Substrate::validate`].
    pub fn validate(&self, fault: &FaultConfig) -> Result<(), ConfigError> {
        self.0.validate(fault)
    }
}

impl PartialEq for Backend {
    fn eq(&self, other: &Self) -> bool {
        self.name() == other.name()
    }
}

impl Eq for Backend {}

impl std::hash::Hash for Backend {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.name().hash(state);
    }
}

impl std::fmt::Debug for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Backend").field(&self.name()).finish()
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Backend {
    type Err = UnknownSubstrate;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        // Resolve and *release* the registry lock before building the
        // error: `substrate_names` takes the same lock.
        let found = registry()
            .iter()
            .find(|sub| sub.name() == s)
            .map(|sub| Backend(Arc::clone(sub)));
        found.ok_or_else(|| UnknownSubstrate {
            name: s.to_string(),
            valid: substrate_names(),
        })
    }
}

/// The per-shard cell factory: owns the shard's fault knob and the
/// shared stats every cell aggregates into, and delegates construction
/// to the shard's [`Substrate`].
pub struct ShardCells {
    backend: Backend,
    fault: FaultConfig,
    knob: Arc<FaultKnob>,
    stats: Arc<EnsembleStats>,
    next_salt: AtomicU64,
}

impl ShardCells {
    /// A factory for one shard. `seed` derives every cell's fault
    /// stream deterministically. Panics on a fault environment the
    /// substrate refuses — build through `StoreConfig::builder` to get
    /// the [`ConfigError`] instead.
    pub fn new(backend: Backend, fault: FaultConfig, seed: u64) -> Self {
        if let Err(e) = backend.validate(&fault) {
            panic!("{e}");
        }
        let objects = backend.substrate().injected_objects(&fault);
        ShardCells {
            backend,
            knob: FaultKnob::new(fault.rate, seed),
            stats: Arc::new(EnsembleStats::new(objects)),
            fault,
            next_salt: AtomicU64::new(0),
        }
    }

    /// The live fault-rate knob for this shard.
    pub fn knob(&self) -> Arc<FaultKnob> {
        Arc::clone(&self.knob)
    }

    /// The shard-wide aggregated operation/fault counters.
    pub fn stats(&self) -> Arc<EnsembleStats> {
        Arc::clone(&self.stats)
    }

    /// The injected fault kind.
    pub fn fault_kind(&self) -> FaultKind {
        self.fault.kind
    }

    /// The backend this shard runs on.
    pub fn backend(&self) -> &Backend {
        &self.backend
    }
}

impl ff_universal::CellFactory for ShardCells {
    fn make(&self) -> Arc<dyn Consensus> {
        let salt = self.next_salt.fetch_add(1, Ordering::Relaxed);
        let ctx = CellCtx::new(&self.fault, &self.knob, &self.stats, salt);
        self.backend.substrate().make_cell(&ctx)
    }

    fn name(&self) -> &'static str {
        self.backend.name()
    }
}
