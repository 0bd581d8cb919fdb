//! # ff-store — a sharded, wait-free replicated KV store over robust
//! consensus
//!
//! The paper's point (Section 1) is that consensus built from faulty
//! CAS objects unlocks *arbitrary* wait-free objects. This crate takes
//! that step at system scale: a key-value store whose shards are
//! replicated [`KvMap`]s, each driven by its own
//! [`UniversalLog`] over pluggable
//! consensus substrates resolved through the open [`substrate`]
//! registry ([`Backend::reliable`] / [`Backend::robust`] under live
//! fault injection / the deliberately broken [`Backend::naive`] /
//! CAS-from-weaker-primitives entries like [`Backend::kw_robust`]).
//! Keys route to shards by hash, so throughput
//! scales with cores instead of serializing on one log; shard logs are
//! bounded by consensus-decided checkpoints
//! ([`UniversalLog::checkpoint_every`](ff_universal::UniversalLog::checkpoint_every));
//! fault injection reuses the `ff-cas` policies and `(f, t)` budgets
//! with per-shard runtime knobs; and [`metrics`] keeps lock-free
//! counters and latency histograms the soak harness ([`soak`]) exports
//! to JSON.
//!
//! ```
//! use ff_store::{Backend, Kv, Store, StoreConfig};
//!
//! let config = StoreConfig::builder()
//!     .shards(4)
//!     .backend(Backend::robust())
//!     .build()
//!     .expect("valid configuration");
//! let store = Store::new(config);
//! let mut client = store.client();
//! client.put(7, 99).unwrap();
//! assert_eq!(client.get(7).unwrap(), Some(99));
//! let report = store.verify(&mut [client]);
//! assert!(report.all_consistent());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod combine;
pub mod combining;
pub mod kv;
pub mod map;
pub mod metrics;
pub mod recover;
mod slot;
pub mod soak;
pub mod substrate;
pub mod wal;

pub use combine::{CombineSnapshot, CombineStats};
pub use kv::{Kv, KvOp, StoreError};
pub use map::{KvMap, KV_BITS, KV_MAX};
pub use metrics::{DurabilitySnapshot, MetricsSnapshot, ShardFaults, StoreMetrics};
pub use recover::{RecoverError, RecoveryReport, ShardRecovery};
pub use soak::{
    drive_clients, run_soak, try_run_soak, DriveOutcome, SoakConfig, SoakReport, WorkloadMix,
};
pub use substrate::{
    all_backends, register, substrate_names, Backend, CellCtx, DuplicateSubstrate, FaultConfig,
    FaultKnob, ProcessFault, ShardCells, Substrate, UnknownSubstrate,
};
pub use wal::{DurabilityConfig, FsMedia, WalIoError, WalMedia};

/// The workspace's one `splitmix64` (`ff-cas`'s): shard routing and
/// fault-stream salts here, `ff-dst`'s `SimRng` stream downstream.
pub use ff_cas::splitmix64;

use ff_cas::EnsembleStats;
use ff_universal::{digests_consistent, Handle, UniversalLog};
use std::sync::Arc;

/// Store-wide configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct StoreConfig {
    /// Number of shards (each with its own log and cell factory).
    pub shards: usize,
    /// The consensus backend every shard runs on.
    pub backend: Backend,
    /// Fault environment (ignored by [`Backend::reliable`], which never
    /// injects). With `rotate_kinds`, the configured kind applies to
    /// shard 0 and subsequent shards rotate through the tolerable kinds.
    pub fault: FaultConfig,
    /// Rotate fault kinds across shards (overriding → silent →
    /// arbitrary), exercising a Definition 3-style mixed-fault
    /// environment; the store survives because each *shard* stays
    /// within its own construction's envelope.
    pub rotate_kinds: bool,
    /// Checkpoint interval in log slots (bounds each shard's retained
    /// log).
    pub checkpoint_interval: usize,
    /// Combiner crash recovery (the lease/epoch rule, see [`combine`]):
    /// a waiter whose op stays `CLAIMED` past [`StoreConfig::reclaim_after`]
    /// polls takes it back and republishes it under a fresh epoch, so a
    /// combiner that dies between claiming and executing cannot park
    /// ops forever. On by default; turning it off reproduces the
    /// parked-ops bug (the DST pinned-seed regression arm).
    pub combiner_lease: bool,
    /// Polls a waiter tolerates a `CLAIMED` op before the lease rule
    /// reclaims it (only meaningful with [`StoreConfig::combiner_lease`]).
    pub reclaim_after: u32,
    /// Seed for all deterministic fault streams and routing salts.
    pub seed: u64,
    /// Durability: per-shard write-ahead logging and crash recovery
    /// (see [`wal`]). Off by default — the pre-WAL in-memory store.
    pub durability: DurabilityConfig,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            shards: 8,
            backend: Backend::robust(),
            fault: FaultConfig::default(),
            rotate_kinds: false,
            checkpoint_interval: 64,
            combiner_lease: true,
            reclaim_after: 4096,
            seed: 0x5eed,
            durability: DurabilityConfig::default(),
        }
    }
}

impl StoreConfig {
    /// Start building a configuration. Unset knobs keep
    /// [`StoreConfig::default`]'s values; [`StoreConfigBuilder::build`]
    /// validates the combination and returns a [`ConfigError`] instead
    /// of deferring to the construction-time panics inside
    /// [`ShardCells`].
    pub fn builder() -> StoreConfigBuilder {
        StoreConfigBuilder {
            config: StoreConfig::default(),
            uncombined: false,
        }
    }

    /// Check this configuration against every constraint the backends
    /// impose (the same rules [`StoreConfig::builder`] enforces).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.shards == 0 {
            return Err(ConfigError::NoShards);
        }
        if self.checkpoint_interval == 0 {
            return Err(ConfigError::ZeroCheckpointInterval);
        }
        if !(0.0..=1.0).contains(&self.fault.rate) {
            return Err(ConfigError::FaultRateNotProbability(self.fault.rate));
        }
        if self.durability.enabled() && self.durability.group_commit == 0 {
            return Err(ConfigError::ZeroGroupCommit);
        }
        if self.fault.process == ProcessFault::CrashRecover && !self.durability.enabled() {
            return Err(ConfigError::CrashRecoverNeedsDurability);
        }
        // With rotation, the configured kind is replaced per shard by
        // the substrate's own injected rotation (and silent gets a
        // finite default budget), so validate exactly what each shard
        // will actually be built with.
        if self.rotate_kinds && !self.backend.injected_kinds().is_empty() {
            for &kind in self.backend.injected_kinds() {
                self.backend.validate(&rotated_fault(&self.fault, kind))?;
            }
        } else {
            self.backend.validate(&self.fault)?;
        }
        Ok(())
    }
}

/// Why a [`StoreConfigBuilder`] refused to produce a configuration.
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// `shards` was 0 — a store needs at least one shard.
    NoShards,
    /// `checkpoint_interval` was 0 — logs checkpoint every *k ≥ 1*
    /// slots.
    ZeroCheckpointInterval,
    /// The fault rate is not a probability in `[0, 1]`.
    FaultRateNotProbability(f64),
    /// The robust backend needs `f ≥ 1` faulty objects to tolerate.
    RobustNeedsFaultyObjects,
    /// No construction in the paper tolerates this fault kind
    /// (Theorem 4 territory) — refusing to build a store on nothing.
    IntolerableKind(ff_spec::FaultKind),
    /// Silent faults need a finite per-object budget `t` (unbounded
    /// silent faults admit nontermination — experiment E8).
    SilentNeedsFiniteBudget,
    /// Durability is on but `group_commit` is 0 — fsync batches hold at
    /// least one record.
    ZeroGroupCommit,
    /// The crash/recover process-fault model requires durability: a
    /// process that loses volatile state can only rejoin by replaying a
    /// write-ahead log.
    CrashRecoverNeedsDurability,
    /// [`StoreConfigBuilder::combining`] was switched off: flat
    /// combining is the only way an op reaches a shard log.
    CombiningRequired,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NoShards => write!(f, "a store needs at least one shard"),
            ConfigError::ZeroCheckpointInterval => {
                write!(f, "checkpoint interval must be at least 1 slot")
            }
            ConfigError::FaultRateNotProbability(r) => {
                write!(f, "fault rate must be a probability in [0, 1], got {r}")
            }
            ConfigError::RobustNeedsFaultyObjects => {
                write!(f, "the robust backend needs f >= 1 faulty objects")
            }
            ConfigError::IntolerableKind(kind) => {
                write!(f, "no construction in the paper tolerates {kind:?} faults")
            }
            ConfigError::SilentNeedsFiniteBudget => write!(
                f,
                "silent faults need a finite per-object budget t (see experiment E8)"
            ),
            ConfigError::ZeroGroupCommit => {
                write!(f, "group commit must cover at least one record per fsync")
            }
            ConfigError::CrashRecoverNeedsDurability => write!(
                f,
                "the crash/recover fault model needs durability (a data dir) to recover from"
            ),
            ConfigError::CombiningRequired => write!(
                f,
                "flat combining is the only store execution path and cannot be switched off"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Builder for [`StoreConfig`]: named knobs instead of field soup, and
/// validation errors instead of panics.
#[derive(Clone, Debug)]
pub struct StoreConfigBuilder {
    config: StoreConfig,
    /// `combining` was switched off; `build` refuses.
    uncombined: bool,
}

impl StoreConfigBuilder {
    /// Number of shards (each with its own log and cell factory).
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shards = shards;
        self
    }

    /// The consensus backend every shard runs on.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.config.backend = backend;
        self
    }

    /// The full fault environment (kind, `(f, t)` budget, initial rate).
    pub fn fault(mut self, fault: FaultConfig) -> Self {
        self.config.fault = fault;
        self
    }

    /// Initial fault probability per CAS operation (keeps the rest of
    /// the fault environment as configured).
    pub fn fault_rate(mut self, rate: f64) -> Self {
        self.config.fault.rate = rate;
        self
    }

    /// Rotate fault kinds across shards (overriding → silent →
    /// arbitrary).
    pub fn rotate_kinds(mut self, rotate: bool) -> Self {
        self.config.rotate_kinds = rotate;
        self
    }

    /// Checkpoint interval in log slots (bounds each shard's retained
    /// log).
    pub fn checkpoint_interval(mut self, interval: usize) -> Self {
        self.config.checkpoint_interval = interval;
        self
    }

    /// Compatibility vestige — remove with the next `benchmark` PR
    /// (the benchmark package still calls `.combining(true)`). Flat
    /// combining is the only execution path, so `true` is a no-op and
    /// `false` makes [`StoreConfigBuilder::build`] return
    /// [`ConfigError::CombiningRequired`].
    #[doc(hidden)]
    pub fn combining(mut self, on: bool) -> Self {
        self.uncombined = !on;
        self
    }

    /// Combiner crash recovery on or off; see
    /// [`StoreConfig::combiner_lease`].
    pub fn combiner_lease(mut self, on: bool) -> Self {
        self.config.combiner_lease = on;
        self
    }

    /// Polls before the lease rule reclaims a `CLAIMED` op; see
    /// [`StoreConfig::reclaim_after`].
    pub fn reclaim_after(mut self, polls: u32) -> Self {
        self.config.reclaim_after = polls;
        self
    }

    /// Seed for all deterministic fault streams and routing salts.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// The full durability configuration (data dir + group commit);
    /// see [`DurabilityConfig`].
    pub fn durability(mut self, durability: DurabilityConfig) -> Self {
        self.config.durability = durability;
        self
    }

    /// Turn durability on: write-ahead log every shard into `dir`
    /// (keeps the configured group commit).
    pub fn data_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.config.durability.data_dir = Some(dir.into());
        self
    }

    /// Decided records per fsync; see [`DurabilityConfig::group_commit`].
    pub fn group_commit(mut self, records: usize) -> Self {
        self.config.durability.group_commit = records;
        self
    }

    /// Extra reclaimable WAL bytes required before a checkpoint
    /// rotation ([`DurabilityConfig::rotate_cost`]); 0 makes rotation
    /// deterministic at every worthwhile boundary, which tests want.
    pub fn rotate_cost(mut self, bytes: usize) -> Self {
        self.config.durability.rotate_cost = bytes;
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<StoreConfig, ConfigError> {
        if self.uncombined {
            return Err(ConfigError::CombiningRequired);
        }
        self.config.validate()?;
        Ok(self.config)
    }
}

/// One shard: a log over its cell factory.
struct Shard {
    log: Arc<UniversalLog>,
    stats: Arc<EnsembleStats>,
    knob: Arc<FaultKnob>,
    kind_label: &'static str,
}

/// The flat-combining layer: one core per shard plus the store-wide
/// counters, shared by every client via `Arc`.
struct CombineLayer {
    cores: Vec<combine::ShardCore>,
    stats: Arc<CombineStats>,
}

/// The durability layer: the shared media, one WAL writer per shard,
/// and the store-wide WAL counters.
struct WalLayer {
    wals: Vec<Arc<wal::ShardWal>>,
    stats: Arc<wal::WalStats>,
}

/// The sharded store. Create one [`StoreClient`] per worker thread.
pub struct Store {
    shards: Vec<Shard>,
    config: StoreConfig,
    combine: Arc<CombineLayer>,
    wal: Option<WalLayer>,
}

/// The fault environment shard `kind` receives under `rotate_kinds`:
/// the configured budget with the rotated-in kind, and a small finite
/// default budget when silent rotates in (E8: unbounded silent faults
/// admit nontermination).
fn rotated_fault(fault: &FaultConfig, kind: ff_spec::FaultKind) -> FaultConfig {
    let mut fault = fault.clone();
    fault.kind = kind;
    if fault.kind == ff_spec::FaultKind::Silent && !matches!(fault.t, ff_spec::Bound::Finite(_)) {
        fault.t = ff_spec::Bound::Finite(8);
    }
    fault
}

impl Store {
    /// Build a **fresh** store per `config`. With durability on, the
    /// data dir is created and any stale WAL files in it are truncated
    /// (start from a dir you want replayed via [`Store::recover`]
    /// instead). Panics on an invalid configuration or a WAL I/O
    /// failure — build configs through [`StoreConfig::builder`] to get
    /// a [`ConfigError`], and use [`Store::recover`] for a `Result`.
    pub fn new(config: StoreConfig) -> Self {
        Self::open(config, None, false)
            .map(|(store, _)| store)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`Store::new`] but over an injected [`WalMedia`] (the DST's
    /// simulated disk), returning errors instead of panicking. The
    /// media's existing files are truncated.
    pub fn new_with_media(
        config: StoreConfig,
        media: Arc<dyn WalMedia>,
    ) -> Result<Self, RecoverError> {
        Self::open(config, Some(media), false).map(|(store, _)| store)
    }

    /// Recover a store from the WAL files in `config`'s data dir: per
    /// shard, load the newest valid checkpoint snapshot, replay the log
    /// tail op-by-op through real consensus cells, truncate any torn or
    /// corrupt tail, and rewrite the compacted image. See [`recover`].
    pub fn recover(config: StoreConfig) -> Result<(Self, RecoveryReport), RecoverError> {
        Self::open(config, None, true).map(|(store, report)| (store, report.expect("recovering")))
    }

    /// [`Store::recover`] over an injected [`WalMedia`] (the DST's
    /// simulated disk).
    pub fn recover_with_media(
        config: StoreConfig,
        media: Arc<dyn WalMedia>,
    ) -> Result<(Self, RecoveryReport), RecoverError> {
        Self::open(config, Some(media), true)
            .map(|(store, report)| (store, report.expect("recovering")))
    }

    /// The one construction path: build the shards, then (durability
    /// on) either truncate the WAL files fresh or replay them, attach
    /// the per-shard WAL sinks, and only then build the combining layer
    /// — recovery must finish before any replica handle exists, because
    /// the recovered snapshot installs into an untouched log.
    fn open(
        config: StoreConfig,
        media: Option<Arc<dyn WalMedia>>,
        recovering: bool,
    ) -> Result<(Self, Option<RecoveryReport>), RecoverError> {
        config.validate().map_err(RecoverError::Config)?;
        if recovering && !config.durability.enabled() && media.is_none() {
            return Err(RecoverError::DurabilityDisabled);
        }
        let shards: Vec<Shard> = (0..config.shards)
            .map(|s| {
                // Rotation walks the substrate's own injected kinds —
                // a substrate that injects nothing keeps the configured
                // environment (which it ignores anyway).
                let rotation = config.backend.injected_kinds();
                let fault = if config.rotate_kinds && !rotation.is_empty() {
                    rotated_fault(&config.fault, rotation[s % rotation.len()])
                } else {
                    config.fault.clone()
                };
                let cells = ShardCells::new(
                    config.backend.clone(),
                    fault,
                    splitmix64(config.seed ^ (s as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                );
                let stats = cells.stats();
                let knob = cells.knob();
                let kind_label = cells.fault_kind().name();
                let log = Arc::new(
                    UniversalLog::new(Arc::new(cells)).checkpoint_every(config.checkpoint_interval),
                );
                Shard {
                    log,
                    stats,
                    knob,
                    kind_label,
                }
            })
            .collect();
        // Durability: open (or accept) the media, replay or truncate
        // each shard's WAL, and attach the writers as slot sinks. This
        // happens before the combining layer below because recovery
        // installs snapshots into logs that must not have replica
        // handles yet.
        let mut report = None;
        let wal_layer = if media.is_some() || config.durability.enabled() {
            let media: Arc<dyn WalMedia> = match media {
                Some(m) => m,
                None => {
                    let dir = config
                        .durability
                        .data_dir
                        .as_ref()
                        .expect("durability enabled without media requires a data dir");
                    Arc::new(FsMedia::open(dir)?)
                }
            };
            let stats = Arc::new(wal::WalStats::default());
            let wals: Vec<Arc<wal::ShardWal>> = (0..shards.len())
                .map(|s| {
                    Arc::new(wal::ShardWal::new(
                        Arc::clone(&media),
                        s,
                        config.durability.group_commit,
                        config.durability.rotate_cost,
                        Arc::clone(&stats),
                    ))
                })
                .collect();
            if recovering {
                let mut outcomes = Vec::with_capacity(shards.len());
                for (s, (sh, w)) in shards.iter().zip(&wals).enumerate() {
                    let recovered = recover::recover_shard(
                        &sh.log,
                        s,
                        &media,
                        &stats,
                        config.checkpoint_interval,
                    )?;
                    w.reset_from_recovery(recovered.ckpt_frame, recovered.tail_frames)?;
                    outcomes.push(recovered.outcome);
                }
                report = Some(RecoveryReport { shards: outcomes });
            } else {
                // Fresh store: truncate whatever a previous run left in
                // the dir, so stale records cannot trail new ones.
                for w in &wals {
                    w.reset_from_recovery(None, wal::SlotFrames::default())?;
                }
            }
            for (sh, w) in shards.iter().zip(&wals) {
                sh.log
                    .set_slot_sink(Arc::clone(w) as Arc<dyn ff_universal::SlotSink>);
            }
            Some(WalLayer { wals, stats })
        } else {
            None
        };
        // Every log record the store appends is announced under the
        // cores' one shared pid, 0; the only other pid ever minted is
        // the verification observer's 1023.
        let stats = Arc::new(CombineStats::new(shards.len()));
        let combine = Arc::new(CombineLayer {
            cores: shards
                .iter()
                .enumerate()
                .map(|(s, sh)| {
                    combine::ShardCore::new(
                        s,
                        Arc::clone(&sh.log),
                        wal_layer.as_ref().map(|layer| Arc::clone(&layer.wals[s])),
                        0,
                        Arc::clone(&stats),
                        config.combiner_lease,
                        config.reclaim_after,
                    )
                })
                .collect(),
            stats,
        });
        Ok((
            Store {
                shards,
                config,
                combine,
                wal: wal_layer,
            },
            report,
        ))
    }

    /// Force-fsync every shard's pending WAL records (call at shutdown
    /// or before inspecting the on-disk image; group commit otherwise
    /// defers the sync).
    pub fn flush_wal(&self) {
        if let Some(layer) = &self.wal {
            for w in &layer.wals {
                w.flush();
            }
        }
    }

    /// The first WAL I/O failure any shard hit, if durability is on.
    /// A store returning `Some` here has **stopped logging** — callers
    /// must refuse to continue rather than silently run volatile.
    pub fn durability_error(&self) -> Option<WalIoError> {
        self.wal
            .as_ref()
            .and_then(|layer| layer.wals.iter().find_map(|w| w.error()))
    }

    /// WAL counters for metrics export, or `None` when durability is
    /// off.
    pub fn durability_snapshot(&self) -> Option<DurabilitySnapshot> {
        self.wal.as_ref().map(|layer| layer.stats.snapshot())
    }

    /// The configuration this store was built with.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Which shard `key` routes to.
    pub fn shard_of(&self, key: u32) -> usize {
        (splitmix64(key as u64) % self.shards.len() as u64) as usize
    }

    /// The live fault-rate knob of shard `s`.
    pub fn fault_knob(&self, s: usize) -> Arc<FaultKnob> {
        Arc::clone(&self.shards[s].knob)
    }

    /// The injected fault kind label of shard `s`.
    pub fn fault_kind_label(&self, s: usize) -> &'static str {
        self.shards[s].kind_label
    }

    /// Shard `s`'s log (for checkpoint/retention inspection).
    pub fn shard_log(&self, s: usize) -> &Arc<UniversalLog> {
        &self.shards[s].log
    }

    /// Largest retained (non-truncated) log length across shards — the
    /// number the checkpoint protocol keeps bounded.
    pub fn max_retained_len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.log.retained_len())
            .max()
            .unwrap_or(0)
    }

    /// Per-shard fault accounting for a metrics snapshot.
    pub fn shard_faults(&self) -> Vec<ShardFaults> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let per_object = s.stats.all();
                ShardFaults {
                    shard: i,
                    kind: if self.config.backend.injects_faults() {
                        s.kind_label.to_string()
                    } else {
                        "none".to_string()
                    },
                    cas_ops: per_object.iter().map(|o| o.ops).sum(),
                    attempted: per_object.iter().map(|o| o.attempted_faults).sum(),
                    observable: per_object.iter().map(|o| o.observable_faults).sum(),
                    faulty_objects: s.stats.faulty_object_count(),
                }
            })
            .collect()
    }

    /// A new client (one per worker thread): one announce slot on
    /// every shard core. Clients never append under a pid of their own
    /// — every record is announced by the cores' shared pid — so the
    /// 10-bit pid space does not cap the client count, and clients hold
    /// no private replicas whose watermarks could stall checkpoint
    /// truncation.
    pub fn client(&self) -> StoreClient {
        StoreClient {
            layer: Arc::clone(&self.combine),
            slots: self.combine.cores.iter().map(|c| c.register()).collect(),
            tables: self.combine.cores.iter().map(|c| c.table()).collect(),
            claims: Vec::new(),
            resps: Vec::new(),
        }
    }

    /// Counters of the combining layer. Always `Some`: the `Option` is
    /// a compatibility vestige (the benchmark package `.expect`s it) —
    /// remove with the next `benchmark` PR.
    pub fn combine_snapshot(&self) -> Option<CombineSnapshot> {
        let live_hits = self.combine.cores.iter().map(|c| c.fastpath_hits()).sum();
        Some(self.combine.stats.snapshot(live_hits))
    }

    #[cfg(test)]
    pub(crate) fn shard_core_for_tests(&self, s: usize) -> &combine::ShardCore {
        &self.combine.cores[s]
    }

    /// Catch every shard's core replica up to the end of its log and
    /// check it against a fresh observer's replay, shard by shard. Safe
    /// while clients run: a shard is audited under its core's replica
    /// lock, so its combiners and fast-path readers wait out the replay
    /// (a snapshot restore, its suffix — fewer ops than the base has
    /// words — and at most one checkpoint interval of slots) —
    /// `ff-net`'s event loops call it between runs. The
    /// observer is the one reader of cells the core decided alone: junk
    /// a faulty cell *stored* raises the log's divergence flag here, and
    /// the shard refuses from then on. `_clients` is unused; the
    /// parameter keeps the signature the `benchmark` package calls.
    pub fn verify(&self, _clients: &mut [StoreClient]) -> ConsistencyReport {
        let per_shard = (0..self.shards.len())
            .map(|s| {
                let log = &self.shards[s].log;
                self.combine.cores[s].audit(|core| {
                    // A fresh observer replays snapshot + retained tail
                    // — the recovery path a new replica would take; the
                    // core replayed the log live. Two independent paths
                    // that must agree.
                    let mut observer = Handle::new(Arc::clone(log), 1023, KvMap::default());
                    observer.catch_up();
                    let core_ok = core.state() == observer.state()
                        && digests_consistent(&[
                            core.boundary_digests(),
                            observer.boundary_digests(),
                        ]);
                    ShardConsistency {
                        shard: s,
                        consistent: core_ok && !log.divergence_detected(),
                        divergence_flag: log.divergence_detected(),
                        end_slot: log.slots_created(),
                        retained_len: log.retained_len(),
                        truncated_prefix: log.truncated_prefix(),
                        checkpoints: log.checkpoints_installed(),
                        snapshots_encoded: log.snapshots_encoded(),
                        entries: observer.state().len(),
                    }
                })
            })
            .collect();
        ConsistencyReport { per_shard }
    }
}

/// A worker's view of the store: the shared combining layer plus this
/// client's registered announce slot on every shard core. No private
/// replicas.
pub struct StoreClient {
    layer: Arc<CombineLayer>,
    slots: Vec<Arc<combine::Slot>>,
    /// Each shard's replica table as this client last fetched it: the
    /// lock-free GET reads it until a rebuild retires it.
    tables: Vec<Arc<map::KvTable>>,
    /// The claim list of this client's combine passes, reused from one
    /// pass to the next.
    claims: Vec<combine::Claim>,
    /// The last delivered unit's response words; swapped with the
    /// slot's result buffer on delivery, so neither is reallocated.
    resps: Vec<u64>,
}

/// An in-flight split-phase publication on one shard core (see
/// [`StoreClient::publish_to_shard`]). Tracks how many polls the owner
/// has spent, which is what arms the lease reclaim.
pub struct PendingCombined {
    shard: usize,
    polls: u32,
    n_ops: usize,
}

/// A claimed-but-not-yet-executed combine pass (see
/// [`StoreClient::combine_begin`]). Deliberately has no `Drop` cleanup:
/// abandoning a ticket leaves its claims `CLAIMED`, which is exactly
/// how a crashed combiner looks to everyone else.
pub struct CombineTicket {
    shard: usize,
    pass: combine::CombinePass,
}

impl Drop for StoreClient {
    fn drop(&mut self) {
        for (core, slot) in self.layer.cores.iter().zip(&self.slots) {
            core.unregister(slot);
        }
    }
}

impl StoreClient {
    fn shard_for(&self, key: u32) -> usize {
        (splitmix64(key as u64) % self.layer.cores.len() as u64) as usize
    }

    /// Run validated op words through shard `s`'s combining core —
    /// directly when this thread takes the combiner flag, otherwise
    /// published for the current combiner — and wait for one response
    /// word per op.
    fn submit_combined(&mut self, s: usize, words: &[u64]) -> Result<&[u64], StoreError> {
        self.layer.cores[s]
            .submit(&self.slots[s], &mut self.claims, words, &mut self.resps)
            .map_err(|shard| StoreError::Divergence { shard })?;
        Ok(&self.resps)
    }

    /// Invoke one validated operation on its shard, surfacing the
    /// shard's divergence evidence as an error instead of an answer
    /// replayed from a corrupted log.
    fn invoke_checked(&mut self, key: u32, op_word: u64) -> Result<Option<u32>, StoreError> {
        let s = self.shard_for(key);
        let resps = self.submit_combined(s, &[op_word])?;
        Ok(KvMap::decode_response(resps[0]))
    }

    fn check_key(key: u32) -> Result<(), StoreError> {
        if key > KV_MAX {
            return Err(StoreError::KeyOutOfRange { key });
        }
        Ok(())
    }

    fn check_value(value: u32) -> Result<(), StoreError> {
        if value > KV_MAX {
            return Err(StoreError::ValueOutOfRange { value });
        }
        Ok(())
    }

    fn op_word(op: KvOp) -> Result<u64, StoreError> {
        Self::check_key(op.key())?;
        Ok(match op {
            KvOp::Get(k) => KvMap::get_op(k),
            KvOp::Put(k, v) => {
                Self::check_value(v)?;
                KvMap::put_op(k, v)
            }
            KvOp::Del(k) => KvMap::del_op(k),
        })
    }

    /// Split-phase API, step 1 — publish validated `ops` (all routing
    /// to shard `shard`) as one pending unit on that shard's combining
    /// core, without blocking. At most one unit per shard may be in
    /// flight per client; drive it with [`StoreClient::poll_published`]
    /// and [`StoreClient::combine_begin`]/[`StoreClient::combine_finish`].
    /// This is the seam the deterministic simulator schedules through:
    /// every blocking wait in [`Kv`] is these primitives in a loop.
    pub fn publish_to_shard(
        &mut self,
        shard: usize,
        ops: &[KvOp],
    ) -> Result<PendingCombined, StoreError> {
        let words: Vec<u64> = ops
            .iter()
            .map(|&op| {
                if self.shard_for(op.key()) != shard {
                    return Err(StoreError::Protocol(format!(
                        "op on key {} does not route to shard {shard}",
                        op.key()
                    )));
                }
                Self::op_word(op)
            })
            .collect::<Result<_, _>>()?;
        if words.is_empty() {
            return Err(StoreError::Protocol("empty publication".to_string()));
        }
        if !self.layer.cores[shard].publish(&self.slots[shard], &words) {
            return Err(StoreError::Protocol(format!(
                "shard {shard} already has a unit in flight"
            )));
        }
        Ok(PendingCombined {
            shard,
            polls: 0,
            n_ops: words.len(),
        })
    }

    /// Split-phase API, step 2 — one non-blocking poll of an in-flight
    /// unit. Returns `Ok(Some(results))` when delivered (one entry per
    /// published op), `Ok(None)` while still pending or claimed, and
    /// `Err(Divergence)` when the shard's log holds divergence
    /// evidence. The owner-side lease reclaim is embedded here: past
    /// the configured bound, a still-`CLAIMED` unit is taken back from
    /// its dead or stalled combiner and republished.
    pub fn poll_published(
        &mut self,
        pending: &mut PendingCombined,
    ) -> Result<Option<Vec<Option<u32>>>, StoreError> {
        let core = &self.layer.cores[pending.shard];
        let waited = pending.polls;
        pending.polls = pending.polls.saturating_add(1);
        match core.poll(&self.slots[pending.shard], waited, &mut self.resps) {
            slot::Polled::Ready => {
                debug_assert_eq!(self.resps.len(), pending.n_ops);
                Ok(Some(
                    self.resps
                        .iter()
                        .map(|&w| KvMap::decode_response(w))
                        .collect(),
                ))
            }
            slot::Polled::Failed => Err(StoreError::Divergence {
                shard: pending.shard,
            }),
            _ => Ok(None),
        }
    }

    /// Split-phase API, step 3 — run the claim phase of a combine pass
    /// on `shard`. Returns `None` when the advisory combiner flag is
    /// held by someone else (`force` bypasses it — the takeover path a
    /// waiter escalates to when the flag's holder died) or when nothing
    /// was pending. **Dropping the ticket without
    /// [`StoreClient::combine_finish`] models a combiner crash**: the
    /// claims stay parked until their owners' lease reclaims fire.
    pub fn combine_begin(&mut self, shard: usize, force: bool) -> Option<CombineTicket> {
        self.layer.cores[shard]
            .begin_combine(force, &mut self.claims)
            .map(|pass| CombineTicket { shard, pass })
    }

    /// Split-phase API, step 4 — seal, execute and distribute a claimed
    /// pass. Returns whether any ops were drained (claims reclaimed in
    /// the meantime drop out of the batch via the seal CAS).
    pub fn combine_finish(&mut self, ticket: CombineTicket) -> bool {
        self.layer.cores[ticket.shard].finish_combine(ticket.pass, &mut self.claims)
    }

    /// The wait-free read snapshot, exposed for split-phase drivers:
    /// `None` when freshness is unprovable (fall back to the combined
    /// path), `Some(Err)` on divergence evidence.
    pub fn fast_read(&mut self, key: u32) -> Option<Result<Option<u32>, StoreError>> {
        let s = self.shard_for(key);
        self.layer.cores[s]
            .fast_get(&self.slots[s], &mut self.tables[s], key)
            .map(|r| r.map_err(|shard| StoreError::Divergence { shard }))
    }
}

impl Kv for StoreClient {
    fn get(&mut self, key: u32) -> Result<Option<u32>, StoreError> {
        Self::check_key(key)?;
        // Wait-free read fast path: answer from the shared core
        // replica when its applied index provably covers the shard's
        // observed tail; otherwise linearize through the combined path
        // like any other op.
        match self.fast_read(key) {
            Some(fast) => fast,
            None => self.invoke_checked(key, KvMap::get_op(key)),
        }
    }

    fn put(&mut self, key: u32, value: u32) -> Result<Option<u32>, StoreError> {
        Self::check_key(key)?;
        Self::check_value(value)?;
        self.invoke_checked(key, KvMap::put_op(key, value))
    }

    fn del(&mut self, key: u32) -> Result<Option<u32>, StoreError> {
        Self::check_key(key)?;
        self.invoke_checked(key, KvMap::del_op(key))
    }

    /// Stable-groups `ops` by destination shard, so each shard sees one
    /// pending unit per batch instead of one per operation (the
    /// grouping is what the network server exploits to turn one tick's
    /// frames into one combine pass per shard). Per-key order is
    /// preserved: a key always routes to one shard and the grouping is
    /// stable within a shard.
    fn batch(&mut self, ops: &[KvOp]) -> Result<Vec<Option<u32>>, StoreError> {
        // Validate everything up front: a batch either runs or is
        // rejected whole, never left half-applied by a bad trailing op.
        let words: Vec<u64> = ops
            .iter()
            .map(|&op| Self::op_word(op))
            .collect::<Result<_, _>>()?;
        let mut order: Vec<usize> = (0..ops.len()).collect();
        order.sort_by_key(|&i| self.shard_for(ops[i].key()));
        let mut out = vec![None; ops.len()];
        // One pending unit per destination shard: the whole group
        // rides a single combine pass (often merged with other
        // clients' groups into one decided log slot).
        let mut i = 0;
        while i < order.len() {
            let s = self.shard_for(ops[order[i]].key());
            let mut j = i;
            while j < order.len() && self.shard_for(ops[order[j]].key()) == s {
                j += 1;
            }
            let group: Vec<u64> = order[i..j].iter().map(|&k| words[k]).collect();
            let resps = self.submit_combined(s, &group)?;
            for (&k, &r) in order[i..j].iter().zip(resps) {
                out[k] = KvMap::decode_response(r);
            }
            i = j;
        }
        Ok(out)
    }
}

/// Consistency verdict for one shard.
#[derive(Clone, Debug)]
pub struct ShardConsistency {
    /// Shard index.
    pub shard: usize,
    /// All replicas agree (digests, states, fresh-observer replay) and
    /// the log saw no divergence evidence.
    pub consistent: bool,
    /// The log's own divergence flag (broken-cell evidence).
    pub divergence_flag: bool,
    /// Log head at verification time.
    pub end_slot: usize,
    /// Cells still held in memory.
    pub retained_len: usize,
    /// Slots freed by checkpoint truncation.
    pub truncated_prefix: usize,
    /// Snapshots installed.
    pub checkpoints: u64,
    /// Replica encodes behind them (see
    /// [`UniversalLog::snapshots_encoded`](ff_universal::UniversalLog::snapshots_encoded)).
    pub snapshots_encoded: u64,
    /// Map entries at the end.
    pub entries: usize,
}

/// The store-wide verification outcome.
#[derive(Clone, Debug)]
pub struct ConsistencyReport {
    /// One verdict per shard.
    pub per_shard: Vec<ShardConsistency>,
}

impl ConsistencyReport {
    /// Did every shard verify consistent?
    pub fn all_consistent(&self) -> bool {
        self.per_shard.iter().all(|s| s.consistent)
    }

    /// Shards that failed verification.
    pub fn diverged_shards(&self) -> Vec<usize> {
        self.per_shard
            .iter()
            .filter(|s| !s.consistent)
            .map(|s| s.shard)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_rejects_invalid_configs() {
        assert_eq!(
            StoreConfig::builder().shards(0).build(),
            Err(ConfigError::NoShards)
        );
        assert_eq!(
            StoreConfig::builder().checkpoint_interval(0).build(),
            Err(ConfigError::ZeroCheckpointInterval)
        );
        assert_eq!(
            StoreConfig::builder().fault_rate(1.5).build(),
            Err(ConfigError::FaultRateNotProbability(1.5))
        );
        assert_eq!(
            StoreConfig::builder()
                .fault(FaultConfig {
                    kind: ff_spec::FaultKind::Invisible,
                    ..FaultConfig::default()
                })
                .build(),
            Err(ConfigError::IntolerableKind(ff_spec::FaultKind::Invisible))
        );
        assert_eq!(
            StoreConfig::builder()
                .fault(FaultConfig {
                    kind: ff_spec::FaultKind::Silent,
                    ..FaultConfig::default()
                })
                .build(),
            Err(ConfigError::SilentNeedsFiniteBudget)
        );
        // Rotation replaces the kind per shard, so the same silent
        // environment becomes valid under rotate_kinds.
        assert!(StoreConfig::builder()
            .fault(FaultConfig {
                kind: ff_spec::FaultKind::Silent,
                ..FaultConfig::default()
            })
            .rotate_kinds(true)
            .build()
            .is_ok());
        // The naive backend skips robust-only constraints.
        assert!(StoreConfig::builder()
            .backend(Backend::naive())
            .fault(FaultConfig {
                kind: ff_spec::FaultKind::Invisible,
                ..FaultConfig::default()
            })
            .build()
            .is_ok());
        // The compatibility vestige: switching combining off is a typed
        // refusal, switching it on changes nothing.
        assert_eq!(
            StoreConfig::builder().combining(false).build(),
            Err(ConfigError::CombiningRequired)
        );
        assert_eq!(
            StoreConfig::builder().combining(true).build(),
            StoreConfig::builder().build()
        );
    }

    #[test]
    fn kv_validation_errors_instead_of_panics() {
        let store = Store::new(
            StoreConfig::builder()
                .shards(2)
                .backend(Backend::reliable())
                .build()
                .unwrap(),
        );
        let mut c = store.client();
        assert_eq!(
            c.get(KV_MAX + 1),
            Err(StoreError::KeyOutOfRange { key: KV_MAX + 1 })
        );
        assert_eq!(
            c.put(3, KV_MAX + 7),
            Err(StoreError::ValueOutOfRange { value: KV_MAX + 7 })
        );
        // A rejected batch applies nothing, even before the bad op.
        assert_eq!(
            c.batch(&[KvOp::Put(1, 1), KvOp::Put(KV_MAX + 1, 2)]),
            Err(StoreError::KeyOutOfRange { key: KV_MAX + 1 })
        );
        assert_eq!(c.get(1).unwrap(), None);
    }

    #[test]
    fn batch_preserves_per_key_order_and_original_indices() {
        let store = Store::new(
            StoreConfig::builder()
                .shards(4)
                .backend(Backend::reliable())
                .build()
                .unwrap(),
        );
        let mut c = store.client();
        let ops: Vec<KvOp> = (0..32u32)
            .flat_map(|k| [KvOp::Put(k, k + 100), KvOp::Put(k, k + 200), KvOp::Get(k)])
            .collect();
        let out = c.batch(&ops).unwrap();
        for k in 0..32u32 {
            let base = (k as usize) * 3;
            assert_eq!(out[base], None, "first put of fresh key {k}");
            assert_eq!(out[base + 1], Some(k + 100), "second put sees the first");
            assert_eq!(out[base + 2], Some(k + 200), "get sees the second");
        }
        assert!(store.verify(&mut [c]).all_consistent());
    }

    #[test]
    fn clients_are_not_capped_by_the_pid_space() {
        let store = Store::new(
            StoreConfig::builder()
                .shards(1)
                .backend(Backend::reliable())
                .build()
                .unwrap(),
        );
        // Operation ids carry 10-bit pids, but clients consume none:
        // every record is announced under the cores' pid 0, and 1023
        // stays the fresh observer's. More clients than pids all serve.
        let mut clients: Vec<StoreClient> = (0..1100).map(|_| store.client()).collect();
        for (i, c) in clients.iter_mut().enumerate() {
            let k = i as u32;
            assert_eq!(c.put(k, k + 1).unwrap(), None);
            assert_eq!(c.get(k).unwrap(), Some(k + 1));
        }
        assert_eq!(clients[0].get(1099).unwrap(), Some(1100));
        assert!(store.verify(&mut clients).all_consistent());
    }

    #[test]
    fn keys_spread_across_shards() {
        let store = Store::new(
            StoreConfig::builder()
                .shards(8)
                .backend(Backend::reliable())
                .build()
                .unwrap(),
        );
        let mut hit = [false; 8];
        for key in 0..64 {
            hit[store.shard_of(key)] = true;
        }
        assert!(hit.iter().all(|h| *h), "64 keys missed some of 8 shards");
    }

    #[test]
    fn concurrent_clients_stay_consistent_under_faults() {
        let store = Arc::new(Store::new(
            StoreConfig::builder()
                .shards(4)
                .backend(Backend::robust())
                .rotate_kinds(true)
                .checkpoint_interval(16)
                .build()
                .unwrap(),
        ));
        let mut clients: Vec<StoreClient> = std::thread::scope(|scope| {
            (0..4u32)
                .map(|w| {
                    let store = Arc::clone(&store);
                    scope.spawn(move || {
                        let mut c = store.client();
                        for i in 0..200u32 {
                            let key = (w * 1000 + i) % 97;
                            match i % 3 {
                                0 => {
                                    c.put(key, i).unwrap();
                                }
                                1 => {
                                    c.get(key).unwrap();
                                }
                                _ => {
                                    c.del(key).unwrap();
                                }
                            }
                        }
                        c
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        let report = store.verify(&mut clients);
        assert!(
            report.all_consistent(),
            "diverged shards: {:?}",
            report.diverged_shards()
        );
        // Faults actually flowed.
        let total: u64 = store.shard_faults().iter().map(|f| f.observable).sum();
        assert!(total > 0, "no observable faults at rate 0.2");
        // Checkpoints actually truncated.
        assert!(report.per_shard.iter().any(|s| s.truncated_prefix > 0));
        assert!(store.combine_snapshot().unwrap().combined_ops > 0);
    }

    #[test]
    fn runtime_knob_turns_faults_off() {
        let store = Store::new(
            StoreConfig::builder()
                .shards(1)
                .backend(Backend::robust())
                .fault(FaultConfig {
                    // Arbitrary: observable even on matching CASes — a
                    // lone sequential client never mismatches, and an
                    // overriding fault on a match is refunded as
                    // indistinguishable.
                    kind: ff_spec::FaultKind::Arbitrary,
                    rate: 1.0,
                    ..FaultConfig::default()
                })
                .build()
                .unwrap(),
        );
        let mut c = store.client();
        for i in 0..20 {
            c.put(i, i).unwrap();
        }
        let before = store.shard_faults()[0].observable;
        assert!(before > 0);
        store.fault_knob(0).set_rate(0.0);
        let attempted_before = store.shard_faults()[0].attempted;
        for i in 0..20 {
            c.put(i, i + 1).unwrap();
        }
        assert_eq!(
            store.shard_faults()[0].attempted,
            attempted_before,
            "knob at 0.0 still attempted faults"
        );
        assert!(store.verify(&mut [c]).all_consistent());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::kv::{Kv, KvOp};
    use proptest::prelude::*;

    fn kv_op() -> impl Strategy<Value = KvOp> {
        // Key and value ride one draw: key = x % 64, value = x / 64.
        prop_oneof![
            (0u64..64_000).prop_map(|x| KvOp::Put((x % 64) as u32, (x / 64) as u32)),
            (0u64..64).prop_map(|x| KvOp::Get(x as u32)),
            (0u64..64).prop_map(|x| KvOp::Del(x as u32)),
        ]
    }

    /// Sequential KV semantics: what any correct `batch` must return.
    fn model_results(ops: &[KvOp]) -> Vec<Option<u32>> {
        let mut model = std::collections::HashMap::new();
        ops.iter()
            .map(|&op| match op {
                KvOp::Put(k, v) => model.insert(k, v),
                KvOp::Get(k) => model.get(&k).copied(),
                KvOp::Del(k) => model.remove(&k),
            })
            .collect()
    }

    // `batch` must preserve per-key order and return, at the original
    // indices, what plain sequential map semantics dictate — under
    // every backend. Naive runs at rate 0 (its faults are not
    // tolerated; the detection test lives in `combine::tests`), robust
    // at a tolerated 0.3.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn batch_matches_the_sequential_model_on_every_backend(
            ops in proptest::collection::vec(kv_op(), 1..60),
            seed in 0u64..1000,
        ) {
            for backend in & [Backend::reliable(), Backend::robust(), Backend::naive()] {
                let rate = if *backend == Backend::robust() { 0.3 } else { 0.0 };
                let store = Store::new(
                    StoreConfig::builder()
                        .shards(4)
                        .backend(backend.clone())
                        .fault_rate(rate)
                        .checkpoint_interval(16)
                        .seed(seed)
                        .build()
                        .unwrap(),
                );
                let mut c = store.client();
                let out = c.batch(&ops).unwrap();
                prop_assert!(
                    store.verify(&mut [c]).all_consistent(),
                    "inconsistent shards ({:?})", backend
                );
                prop_assert_eq!(&out, &model_results(&ops), "lost per-key order ({:?})", backend);
            }
        }
    }
}
