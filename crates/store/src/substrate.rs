//! The store's consensus substrates: the open [`Substrate`] API, its
//! registry, the built-in rows, and the per-shard fault plumbing every
//! cell is built from.
//!
//! The paper's hierarchy corollary (§5.2) says the fault-tolerant
//! constructions compose over *any* consensus substrate — they only
//! need objects with the assumed interface and fault envelope. So the
//! substrate is an open trait plus a process-wide registry: a new
//! substrate (a CAS built from weaker primitives, a future hardware
//! model) plugs in by implementing [`Substrate`] and calling
//! [`register`] — and every consumer (the store builder, soak,
//! netbench, the DST, `report`) resolves it by name through the same
//! [`FromStr`] impl, with the same conformance tests run against it for
//! free.
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
//!    [`Substrate::validate`] refuses environments outside it (no
//!    invisible faults, silent needs a finite budget `t`, …).
//! 4. **Expectation** — [`Substrate::expected_consistent`] says whether
//!    a store on this substrate should end
//!    [`Store::verify`](crate::Store::verify)-consistent
//!    under its declared faults (`false` only for deliberately broken
//!    witnesses like `naive`).
//!
//! Built-in substrates, the rows of one table (`BUILTINS`), each a
//! primitive and a fault stance. A row's consensus number is its
//! primitive's, so no row can claim one its cells do not have:
//!
//! | name | cell construction | primitive (consensus number) | tolerates |
//! |---|---|---|---|
//! | `reliable` | Herlihy over one correct CAS | hardware CAS (∞) | — (nothing injected) |
//! | `robust` | cascade (Fig. 2) / bounded retry (§3.4) | hardware CAS (∞) | overriding, silent, arbitrary |
//! | `naive` | Herlihy straight over a faulty object | hardware CAS (∞) | nothing (the broken witness) |
//! | `kw-cas` | Herlihy over a KW CAS | max-write/half-max words (1) | — (nothing injected) |
//! | `kw-robust` | cascade / retry over faulty KW cells | max-write/half-max words (1) | overriding, silent |
//!
//! No substrate picks or writes a protocol: a row asks
//! [`ff_consensus::recommend`] — Section 4's case analysis, keyed by the
//! shard's fault kind — and [`ff_consensus::build`] instantiates the
//! answer over the row's objects, so every cell's `decide` runs the step
//! machine `ff-sim` model-checks. Junk words from *arbitrary* faults are
//! the machines' business too: the cascade skips them
//! (`CascadeMachine`'s doc holds the soundness argument) and the
//! single-CAS protocol carries them, which is how `naive` decides junk.
//! Rows without tolerated faults ask for `f = 0` and get Herlihy; the
//! broken witness then injects into that one object anyway. An
//! environment the selector has no construction for (invisible faults,
//! unbounded silent faults) is refused when the store is configured.
//!
//! `kw-robust` declares **arbitrary** intolerable not because the
//! cascade would fail but because the fault itself is unrepresentable:
//! an arbitrary fault swaps full-width junk into the cell, and a KW
//! word only encodes `⊥` or 32-bit inputs — the substrate refuses the
//! environment rather than silently truncating the fault model.
//!
//! A shard's cells come from its [`ShardCells`], which holds what they
//! share: the shard's [`FaultConfig`], one [`FaultKnob`] — the fault
//! rate as an atomic the operator can turn mid-run, per shard, without
//! rebuilding anything — and one `EnsembleStats`, so fault counts can be
//! read while the shard serves traffic although cells are minted,
//! renewed and freed as the log advances and truncates.

use crate::ConfigError;
use ff_cas::{
    splitmix64, AtomicCasArray, CasEnsemble, EnsembleStats, FaultPolicy, FaultyCasArray, RawCas,
};
use ff_consensus::{
    build, recommend, Consensus, KwCasArray, NoConstruction, Recommendation, TOLERABLE_KINDS,
};
use ff_spec::{Bound, FaultKind, ObjectId};
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// A live-adjustable fault rate shared by every cell of one shard.
#[derive(Debug)]
pub struct FaultKnob {
    /// Probability threshold over the u64 space (rate × u64::MAX).
    threshold: AtomicU64,
    seed: u64,
}

impl FaultKnob {
    /// A knob starting at `rate` (probability per CAS operation).
    pub fn new(rate: f64, seed: u64) -> Arc<Self> {
        let knob = FaultKnob {
            threshold: AtomicU64::new(0),
            seed,
        };
        knob.set_rate(rate);
        Arc::new(knob)
    }

    /// Change the fault rate, effective immediately for all cells.
    pub fn set_rate(&self, rate: f64) {
        assert!(
            (0.0..=1.0).contains(&rate),
            "fault rate must be a probability, got {rate}"
        );
        self.threshold
            .store((rate * u64::MAX as f64) as u64, Ordering::Relaxed);
    }

    /// The current fault rate.
    pub fn rate(&self) -> f64 {
        self.threshold.load(Ordering::Relaxed) as f64 / u64::MAX as f64
    }
}

/// The policy face of a [`FaultKnob`]: probabilistic, counter-based
/// (no shared RNG state), reading the rate live.
struct KnobPolicy {
    knob: Arc<FaultKnob>,
    /// Distinguishes cells sharing one knob, so they don't fault in
    /// lockstep.
    salt: u64,
}

impl KnobPolicy {
    /// The policy of the cell minted with `salt`.
    fn new(knob: Arc<FaultKnob>, salt: u64) -> Self {
        KnobPolicy {
            knob,
            salt: splitmix64(salt),
        }
    }
}

impl FaultPolicy for KnobPolicy {
    fn should_fault(&self, obj: ObjectId, op_index: u64) -> bool {
        let bits = splitmix64(
            self.knob.seed ^ self.salt ^ splitmix64(obj.0 as u64) ^ op_index.rotate_left(17),
        );
        bits <= self.knob.threshold.load(Ordering::Relaxed)
    }

    fn reseed(&mut self, salt: u64) -> bool {
        self.salt = splitmix64(salt);
        true
    }
}

/// Process-level faults, orthogonal to the paper's *object*-level
/// taxonomy. The paper's cells lie; its processes are immortal. The
/// recoverable-consensus line of work (Golab; Lundström–Raynal–Schiller
/// in PAPERS.md) asks what survives when processes crash too — this is
/// that axis.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ProcessFault {
    /// Processes never crash (the paper's base model).
    #[default]
    None,
    /// Processes may be killed and restarted at any point: **volatile
    /// state is lost, cells survive**, and durable storage survives
    /// possibly with a torn tail at the last unsynced write. Requires
    /// durability in the [`StoreConfig`](crate::StoreConfig) — a
    /// crashed process rejoins by replaying its write-ahead log
    /// ([`Store::recover`](crate::Store::recover)).
    CrashRecover,
}

/// Fault environment of one shard: kind, `(f, t)` budget, live rate,
/// and the process-level crash model.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultConfig {
    /// The functional-fault kind to inject.
    pub kind: FaultKind,
    /// Faulty objects per cell ensemble (Definition 2's `f`).
    pub f: usize,
    /// Per-object fault budget (Definition 2's `t`); silent faults
    /// require a finite bound.
    pub t: Bound,
    /// Initial fault probability per CAS operation.
    pub rate: f64,
    /// Whether processes themselves may crash and recover (orthogonal
    /// to the object-fault kind above).
    pub process: ProcessFault,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            kind: FaultKind::Overriding,
            f: 1,
            t: Bound::Unbounded,
            rate: 0.2,
            process: ProcessFault::default(),
        }
    }
}

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
            .policy(KnobPolicy::new(Arc::clone(self.knob), self.salt))
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

/// What a built-in substrate's cells are made of. A row's
/// [`Substrate::consensus_number`] is its primitive's.
#[derive(Clone, Copy)]
enum Primitive {
    /// Hardware CAS words (unbounded consensus number).
    Hardware,
    /// Khanchandani–Wattenhofer CAS objects built from max-write and
    /// half-max words (consensus number 1).
    Kw,
}

/// How a built-in substrate meets its shard's fault environment.
#[derive(Clone, Copy)]
enum Faults {
    /// Nothing is injected: the cell is Section 4's pick for `f = 0`.
    None,
    /// These kinds are injected and tolerated: the cell is Section 4's
    /// pick for the shard's `(kind, f, t)`.
    Tolerated(&'static [FaultKind]),
    /// These kinds are injected and none is tolerated: the pick for
    /// `f = 0`, run over objects that are all faulty — the broken
    /// witness.
    Witness(&'static [FaultKind]),
}

/// One built-in substrate: a row of [`BUILTINS`].
#[derive(Clone, Copy)]
struct Builtin {
    name: &'static str,
    describe: &'static str,
    primitive: Primitive,
    faults: Faults,
}

const NO_ARBITRARY: &[FaultKind] = &[FaultKind::Overriding, FaultKind::Silent];

/// The built-in substrates, in registration order.
const BUILTINS: [Builtin; 5] = [
    Builtin {
        name: "reliable",
        describe: "Herlihy consensus over one correct hardware CAS (fault-free baseline)",
        primitive: Primitive::Hardware,
        faults: Faults::None,
    },
    Builtin {
        name: "robust",
        describe: "cascade (Fig. 2) / bounded retry (S3.4) over injected-faulty hardware CAS",
        primitive: Primitive::Hardware,
        faults: Faults::Tolerated(TOLERABLE_KINDS),
    },
    Builtin {
        name: "naive",
        describe: "Herlihy straight over one injected-faulty CAS (the broken witness, E10)",
        primitive: Primitive::Hardware,
        faults: Faults::Witness(TOLERABLE_KINDS),
    },
    Builtin {
        name: "kw-cas",
        describe: "Herlihy over a Khanchandani-Wattenhofer CAS from max-write/half-max words",
        primitive: Primitive::Kw,
        faults: Faults::None,
    },
    // Arbitrary faults are refused: their full-width junk is
    // unrepresentable in a KW word (see the module docs).
    Builtin {
        name: "kw-robust",
        describe:
            "cascade / bounded retry over injected-faulty KW cells (robust over a weaker substrate)",
        primitive: Primitive::Kw,
        faults: Faults::Tolerated(NO_ARBITRARY),
    },
];

impl Builtin {
    /// Section 4's construction for this row's cells in `fault`.
    ///
    /// A store cell has no participant bound: besides the combiner that
    /// proposes, every late reader learns a decision by deciding again —
    /// `Store::verify`'s observer, `Handle::catch_up`, and recovery's
    /// read-back in `Handle::ingest_recovered` — so each verify adds a
    /// decider. With `n` unbounded the selector answers Figure 2 for
    /// overriding faults whatever `t` is; Figure 3 (`f` objects, at most
    /// `f + 1` deciders) would panic on a cell's `f + 2`-th decider —
    /// with `f = 1`, the second verify.
    fn construction(&self, fault: &FaultConfig) -> Result<Recommendation, NoConstruction> {
        let f = match self.faults {
            Faults::Tolerated(_) => fault.f as u64,
            Faults::None | Faults::Witness(_) => 0,
        };
        recommend(fault.kind, f, fault.t, Bound::Unbounded)
    }
}

impl Substrate for Builtin {
    fn name(&self) -> &'static str {
        self.name
    }
    fn describe(&self) -> &'static str {
        self.describe
    }
    fn consensus_number(&self) -> Option<u32> {
        match self.primitive {
            Primitive::Hardware => None,
            Primitive::Kw => Some(1),
        }
    }
    fn injects_faults(&self) -> bool {
        !matches!(self.faults, Faults::None)
    }
    fn tolerated_kinds(&self) -> &'static [FaultKind] {
        match self.faults {
            Faults::Tolerated(kinds) => kinds,
            Faults::None | Faults::Witness(_) => &[],
        }
    }
    fn injected_kinds(&self) -> &'static [FaultKind] {
        match self.faults {
            Faults::Tolerated(kinds) | Faults::Witness(kinds) => kinds,
            Faults::None => &[],
        }
    }
    fn expected_consistent(&self) -> bool {
        !matches!(self.faults, Faults::Witness(_))
    }
    /// Zero where the selector has no construction for `fault`.
    fn objects_per_cell(&self, fault: &FaultConfig) -> usize {
        self.construction(fault).map_or(0, |rec| rec.objects)
    }
    fn validate(&self, fault: &FaultConfig) -> Result<(), ConfigError> {
        let Faults::Tolerated(kinds) = self.faults else {
            return Ok(());
        };
        if fault.f == 0 {
            return Err(ConfigError::RobustNeedsFaultyObjects);
        }
        if !kinds.contains(&fault.kind) {
            return Err(ConfigError::IntolerableKind(fault.kind));
        }
        match self.construction(fault) {
            Ok(_) => Ok(()),
            Err(NoConstruction::Kind(kind)) => Err(ConfigError::IntolerableKind(kind)),
            Err(NoConstruction::UnboundedSilent) => Err(ConfigError::SilentNeedsFiniteBudget),
        }
    }
    fn make_cell(&self, ctx: &CellCtx) -> Arc<dyn Consensus> {
        let rec = self
            .construction(ctx.fault())
            .expect("ShardCells::new validated the environment");
        let faulty = match self.faults {
            Faults::None => 0,
            Faults::Tolerated(_) => rec.faulty_objects(),
            Faults::Witness(_) => rec.objects,
        };
        match (self.primitive, faulty) {
            (Primitive::Hardware, 0) => build(rec, AtomicCasArray::new(rec.objects)),
            (Primitive::Kw, 0) => build(rec, KwCasArray::new(rec.objects)),
            (Primitive::Hardware, _) => build(rec, ctx.faulty_ensemble(rec.objects, faulty)),
            (Primitive::Kw, _) => {
                let inner = KwCasArray::new(rec.objects).into_raw_cells();
                build(rec, ctx.faulty_over(inner, faulty))
            }
        }
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
        Mutex::new(
            BUILTINS
                .iter()
                .map(|&row| Arc::new(row) as Arc<dyn Substrate>)
                .collect(),
        )
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

    /// The robust constructions composed over faulty KW cells.
    pub fn kw_robust() -> Backend {
        Backend::builtin("kw-robust")
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

    /// The next cell's salt: one per cell minted, built or renewed.
    fn mint_salt(&self) -> u64 {
        self.next_salt.fetch_add(1, Ordering::Relaxed)
    }

    fn build(&self, salt: u64) -> Arc<dyn Consensus> {
        let ctx = CellCtx::new(&self.fault, &self.knob, &self.stats, salt);
        self.backend.substrate().make_cell(&ctx)
    }
}

impl ff_universal::CellFactory for ShardCells {
    fn make(&self) -> Arc<dyn Consensus> {
        self.build(self.mint_salt())
    }

    /// Renews `spare` under the next salt when its substrate can
    /// ([`Consensus::renew`]: the hardware rows' inline ensembles), and
    /// otherwise builds a fresh cell under that same salt, so the
    /// shard's fault stream is the one `make` alone would give.
    fn make_from(&self, mut spare: Arc<dyn Consensus>) -> Arc<dyn Consensus> {
        let salt = self.mint_salt();
        if Arc::get_mut(&mut spare).is_some_and(|cell| cell.renew(salt)) {
            spare
        } else {
            self.build(salt)
        }
    }

    fn name(&self) -> &'static str {
        self.backend.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_spec::Input;
    use ff_universal::CellFactory;

    #[test]
    fn knob_changes_rate_live() {
        let knob = FaultKnob::new(0.0, 1);
        let policy = KnobPolicy {
            knob: Arc::clone(&knob),
            salt: 0,
        };
        assert!((0..100).all(|i| !policy.should_fault(ObjectId(0), i)));
        knob.set_rate(1.0);
        assert!((0..100).all(|i| policy.should_fault(ObjectId(0), i)));
        assert!((knob.rate() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn guarded_cascade_agrees_under_arbitrary_faults() {
        let fault = FaultConfig {
            kind: FaultKind::Arbitrary,
            f: 1,
            t: Bound::Unbounded,
            rate: 0.8,
            ..FaultConfig::default()
        };
        let cells = ShardCells::new(Backend::robust(), fault, 42);
        for _ in 0..100 {
            let cell = cells.make();
            let a = cell.decide(Input(1));
            let b = cell.decide(Input(2));
            let c = cell.decide(Input(3));
            assert_eq!(a, b);
            assert_eq!(b, c);
            assert!([Input(1), Input(2), Input(3)].contains(&a), "validity");
        }
        assert!(cells.stats().total_observable() > 0, "faults were injected");
    }

    /// One step of the renewal script: three deciders on the step's
    /// cell.
    fn decide_step(cell: &dyn Consensus, step: u32) -> Vec<Input> {
        (0..3).map(|p| cell.decide(Input(step * 8 + p))).collect()
    }

    #[test]
    fn a_renewed_cell_is_indistinguishable_from_a_fresh_one() {
        for row in BUILTINS {
            let backend = Backend::builtin(row.name);
            let kinds = match backend.injected_kinds() {
                [] => &[FaultKind::Overriding][..],
                kinds => kinds,
            };
            for (&kind, rate) in kinds.iter().flat_map(|k| [0.0, 0.2, 1.0].map(|r| (k, r))) {
                let fault = FaultConfig {
                    kind,
                    t: Bound::Finite(2),
                    rate,
                    ..FaultConfig::default()
                };
                let case = format!("{} {kind:?} at {rate}", row.name);
                let fresh = ShardCells::new(backend.clone(), fault.clone(), 11);
                let renewing = ShardCells::new(backend.clone(), fault, 11);
                let mut spare = renewing.make();
                for step in 0..64 {
                    let cell = fresh.make();
                    if step > 0 {
                        let was = Arc::as_ptr(&spare) as *const ();
                        spare = renewing.make_from(spare);
                        // KW cells sit behind heap objects and cannot
                        // renew: the fallback builds under the salt
                        // already drawn, so the streams still match.
                        let renewed = Arc::as_ptr(&spare) as *const () == was;
                        let hardware = matches!(row.primitive, Primitive::Hardware);
                        assert_eq!(renewed, hardware, "{case}: step {step}");
                    }
                    assert_eq!(
                        decide_step(&*cell, step),
                        decide_step(&*spare, step),
                        "{case}: step {step}"
                    );
                    assert_eq!(
                        fresh.stats().all(),
                        renewing.stats().all(),
                        "{case}: step {step}"
                    );
                }
                if rate > 0.0 && backend.injects_faults() {
                    assert!(fresh.stats().total_observable() > 0, "{case}: no faults");
                }
            }
        }
    }

    #[test]
    fn a_renewed_ensemble_restores_its_budget_and_salt() {
        let fault = FaultConfig {
            kind: FaultKind::Silent,
            t: Bound::Finite(2),
            rate: 0.5,
            ..FaultConfig::default()
        };
        let knob = FaultKnob::new(fault.rate, 5);
        let (fresh_stats, renewed_stats) = (
            Arc::new(EnsembleStats::new(2)),
            Arc::new(EnsembleStats::new(2)),
        );
        let ensemble = |stats, salt| CellCtx::new(&fault, &knob, stats, salt).faulty_builder(2, 1);
        let mut renewed = ensemble(&renewed_stats, 0).build();
        for salt in 0..64 {
            let fresh = ensemble(&fresh_stats, salt).build();
            if salt > 0 {
                assert!(renewed.renew(salt));
            }
            for new in 1..5 {
                let obj = ObjectId(new as usize % 2);
                assert_eq!(
                    fresh.cas(obj, ff_spec::BOTTOM, new),
                    renewed.cas(obj, ff_spec::BOTTOM, new)
                );
                assert_eq!(fresh.remaining_budget(obj), renewed.remaining_budget(obj));
            }
        }
        assert_eq!(fresh_stats.all(), renewed_stats.all());
        assert!(fresh_stats.total_observable() > 0, "the budget was spent");
    }

    #[test]
    fn robust_silent_cells_agree() {
        let fault = FaultConfig {
            kind: FaultKind::Silent,
            f: 1,
            t: Bound::Finite(4),
            rate: 0.5,
            ..FaultConfig::default()
        };
        let cells = ShardCells::new(Backend::robust(), fault, 7);
        for _ in 0..100 {
            let cell = cells.make();
            let a = cell.decide(Input(1));
            let b = cell.decide(Input(2));
            assert_eq!(a, b);
        }
    }

    #[test]
    fn bounded_overriding_budgets_still_get_figure_2() {
        // With t bounded, Section 4 would pick Figure 3 for f + 1
        // deciders — but every verify decides a store cell again, so the
        // store asks for unbounded n and gets the cascade, which takes
        // any number of deciders.
        let fault = FaultConfig {
            f: 2,
            t: Bound::Finite(1),
            rate: 1.0,
            ..FaultConfig::default()
        };
        let cells = ShardCells::new(Backend::robust(), fault, 5);
        let cell = cells.make();
        assert_eq!((cell.name(), cell.objects_used()), ("fig2-cascade", 3));
        let first = cell.decide(Input(1));
        for reader in 2..10 {
            assert_eq!(cell.decide(Input(reader)), first);
        }
    }

    #[test]
    fn naive_cells_never_panic_on_junk() {
        let fault = FaultConfig {
            kind: FaultKind::Arbitrary,
            f: 1,
            t: Bound::Unbounded,
            rate: 1.0,
            ..FaultConfig::default()
        };
        let cells = ShardCells::new(Backend::naive(), fault, 3);
        for _ in 0..100 {
            let cell = cells.make();
            let _ = cell.decide(Input(1));
            let _ = cell.decide(Input(2));
        }
    }

    #[test]
    fn stats_aggregate_across_cells() {
        let cells = ShardCells::new(
            Backend::robust(),
            FaultConfig {
                rate: 1.0,
                ..FaultConfig::default()
            },
            9,
        );
        for _ in 0..10 {
            let cell = cells.make();
            cell.decide(Input(1));
        }
        // 10 cells × 2 CAS per decide (f = 1), all recorded in one place.
        let total_ops: u64 = cells.stats().all().iter().map(|o| o.ops).sum();
        assert_eq!(total_ops, 20);
    }

    #[test]
    #[should_panic(expected = "finite per-object budget")]
    fn unbounded_silent_rejected() {
        let _ = ShardCells::new(
            Backend::robust(),
            FaultConfig {
                kind: FaultKind::Silent,
                t: Bound::Unbounded,
                ..FaultConfig::default()
            },
            0,
        );
    }

    #[test]
    #[should_panic(expected = "no construction")]
    fn invisible_rejected() {
        let _ = ShardCells::new(
            Backend::robust(),
            FaultConfig {
                kind: FaultKind::Invisible,
                ..FaultConfig::default()
            },
            0,
        );
    }

    #[test]
    #[should_panic(expected = "no construction")]
    fn kw_robust_refuses_arbitrary() {
        // Arbitrary junk is unrepresentable in a KW word — the
        // substrate refuses the environment instead of truncating it.
        let _ = ShardCells::new(
            Backend::kw_robust(),
            FaultConfig {
                kind: FaultKind::Arbitrary,
                ..FaultConfig::default()
            },
            0,
        );
    }
}
