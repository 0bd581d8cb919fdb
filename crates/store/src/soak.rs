//! Closed-loop soak harness: hammer a [`Store`] from N
//! worker threads for a wall-clock duration, then verify that every
//! replica of every shard converged to the same state.
//!
//! This is the system-level analogue of the paper's per-construction
//! stress tests: instead of asking "does one consensus object stay
//! valid under its fault budget", it asks "does a whole store built
//! from those objects stay *consistent* while faults are live" — and,
//! on the naive arm, demonstrates that it does not.

use crate::kv::{Kv, KvOp, StoreError};
use crate::metrics::{MetricsSnapshot, StoreMetrics};
use crate::recover::{RecoverError, RecoveryReport};
use crate::substrate::Backend;
use crate::wal::DurabilityConfig;
use crate::{ConfigError, ConsistencyReport, Store, StoreClient, StoreConfig, KV_MAX};
use ff_cas::splitmix64;
use ff_workload::JsonValue;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Soak run parameters.
#[derive(Clone, Debug)]
pub struct SoakConfig {
    /// Closed-loop worker threads (one [`StoreClient`] each).
    pub threads: usize,
    /// Shard count.
    pub shards: usize,
    /// Wall-clock duration (fractions allowed for smoke runs).
    pub secs: f64,
    /// Initial fault rate on every shard's knob.
    pub fault_rate: f64,
    /// Consensus backend under test.
    pub backend: Backend,
    /// Percentage of operations that are reads (`get`); the remainder
    /// splits 2:1 between `put` and `del`.
    pub read_pct: u32,
    /// Keys are drawn uniformly from `0..keyspace`.
    pub keyspace: u32,
    /// Checkpoint interval (slots) for every shard log.
    pub checkpoint_interval: usize,
    /// Per-shard write-ahead logging ([`StoreConfig::durability`]);
    /// `data_dir: None` runs the store purely in memory.
    pub durability: DurabilityConfig,
    /// Recover from the WAL files already in the data dir instead of
    /// starting fresh (requires durability to be enabled).
    pub recover: bool,
    /// Seed for workload and fault streams.
    pub seed: u64,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            threads: 4,
            shards: 8,
            secs: 10.0,
            fault_rate: 0.2,
            backend: Backend::robust(),
            read_pct: 70,
            keyspace: 4096,
            checkpoint_interval: 64,
            durability: DurabilityConfig::default(),
            recover: false,
            seed: 0x50a6_b65e,
        }
    }
}

impl SoakConfig {
    /// The store this soak runs on — the one place a set of soak knobs
    /// (the CLI's, an experiment's, the network bench's) becomes a
    /// validated [`StoreConfig`].
    pub fn store_config(&self) -> Result<StoreConfig, ConfigError> {
        StoreConfig::builder()
            .shards(self.shards)
            .backend(self.backend.clone())
            .fault_rate(self.fault_rate)
            .rotate_kinds(self.backend.injects_faults())
            .checkpoint_interval(self.checkpoint_interval)
            .durability(self.durability.clone())
            .seed(self.seed)
            .build()
    }
}

/// Everything a soak run learned.
#[derive(Clone, Debug)]
pub struct SoakReport {
    /// The configuration that ran — its seed is echoed into the JSON
    /// so any archived `BENCH_store.json` names the exact run to
    /// reproduce.
    pub config: SoakConfig,
    /// Latency/throughput/fault snapshot over the run window.
    pub metrics: MetricsSnapshot,
    /// Post-quiescence consistency verdicts.
    pub consistency: Vec<ShardVerdict>,
    /// What recovery found when the run started from existing WAL files
    /// (`None` for fresh or non-durable runs).
    pub recovery: Option<RecoveryReport>,
    /// Largest retained log length sampled *during* the run.
    pub max_retained_during_run: usize,
    /// Largest retained log length after verification settled.
    pub retained_after_verify: usize,
    /// First error of each worker that stopped early (rendered);
    /// divergence surfacing as a client *error* rather than wrong data
    /// is part of the [`Kv`] contract.
    pub client_errors: Vec<String>,
    /// Did every shard verify consistent — and no worker hit an error?
    pub consistent: bool,
}

/// One shard's post-run verdict, condensed for the report.
#[derive(Clone, Debug)]
pub struct ShardVerdict {
    /// Shard index.
    pub shard: usize,
    /// Replicas (and a fresh observer) agreed.
    pub consistent: bool,
    /// Injected fault kind label.
    pub kind: &'static str,
    /// Log head at verification.
    pub end_slot: usize,
    /// Slots truncated away by checkpoints.
    pub truncated: usize,
    /// Snapshots installed.
    pub checkpoints: u64,
    /// Replica encodes behind them (a snapshot is a base plus the
    /// records since it, so far fewer than `checkpoints` on a large map).
    pub snapshots_encoded: u64,
}

impl SoakReport {
    /// Serialize for `BENCH_store.json`.
    pub fn to_json(&self) -> JsonValue {
        let verdict = |v: &ShardVerdict| {
            JsonValue::object([
                ("shard", v.shard.into()),
                ("consistent", v.consistent.into()),
                ("fault_kind", v.kind.into()),
                ("end_slot", v.end_slot.into()),
                ("truncated", v.truncated.into()),
                ("checkpoints", v.checkpoints.into()),
                ("snapshots_encoded", v.snapshots_encoded.into()),
            ])
        };
        let c = &self.config;
        let mut fields = vec![
            (
                "config",
                JsonValue::object([
                    ("threads", c.threads.into()),
                    ("shards", c.shards.into()),
                    ("secs", c.secs.into()),
                    ("fault_rate", c.fault_rate.into()),
                    ("backend", c.backend.name().into()),
                    ("checkpoint_interval", c.checkpoint_interval.into()),
                    ("durable", c.durability.enabled().into()),
                    ("group_commit", c.durability.group_commit.into()),
                    ("seed", JsonValue::seed(c.seed)),
                ]),
            ),
            ("metrics", self.metrics.to_json()),
            ("consistent", self.consistent.into()),
            ("shards", self.consistency.iter().map(verdict).collect()),
            (
                "max_retained_during_run",
                self.max_retained_during_run.into(),
            ),
            ("retained_after_verify", self.retained_after_verify.into()),
            (
                "client_errors",
                self.client_errors.iter().map(String::as_str).collect(),
            ),
        ];
        if let Some(r) = &self.recovery {
            fields.push((
                "recovery",
                JsonValue::object([
                    ("checkpoints_loaded", r.checkpoints_loaded().into()),
                    ("records_replayed", r.records_replayed().into()),
                    ("torn_tails", r.torn_tails().into()),
                ]),
            ));
        }
        JsonValue::object(fields)
    }

    /// Human-readable run summary (metrics tables + verdict line).
    pub fn render(&self) -> String {
        let mut out = self.metrics.render_tables();
        out.push_str(&format!(
            "\nconsistency: {} | max retained during run: {} | retained after verify: {} (interval {})\n",
            if self.consistent {
                "ALL SHARDS CONSISTENT"
            } else {
                "DIVERGENCE DETECTED"
            },
            self.max_retained_during_run,
            self.retained_after_verify,
            self.config.checkpoint_interval,
        ));
        if let Some(r) = &self.recovery {
            out.push_str(&format!("{}\n", r.render()));
        }
        for e in &self.client_errors {
            out.push_str(&format!("client error: {e}\n"));
        }
        out
    }
}

fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    splitmix64(*state)
}

/// The workload shape shared by every driver of a [`Kv`]
/// implementation: the in-process soak, E16/E17's over-TCP soaks and
/// `ff net` all describe their traffic with this and run it through
/// [`drive_clients`] — the transport is the only difference.
#[derive(Clone, Debug)]
pub struct WorkloadMix {
    /// Percentage of operations that are reads; the remainder splits
    /// 2:1 between `put` and `del`.
    pub read_pct: u32,
    /// Keys are drawn uniformly from `0..keyspace`.
    pub keyspace: u32,
    /// Seed for the per-worker operation streams.
    pub seed: u64,
    /// Operations per [`Kv::batch`] call; 1 issues plain
    /// `get`/`put`/`del` round trips.
    pub batch: usize,
}

/// What [`drive_clients`] brought back: the clients (still connected /
/// still holding their replicas, ready for verification) and the first
/// error each failed worker hit.
pub struct DriveOutcome<K> {
    /// The clients, in worker order.
    pub clients: Vec<K>,
    /// First error per worker that failed (empty on a clean run). A
    /// [`StoreError::Divergence`] here is the API surfacing broken
    /// consensus instead of returning wrong data.
    pub errors: Vec<StoreError>,
}

impl<K> DriveOutcome<K> {
    /// How many workers stopped on a divergence error.
    pub fn divergence_errors(&self) -> usize {
        self.errors
            .iter()
            .filter(|e| matches!(e, StoreError::Divergence { .. }))
            .count()
    }
}

/// Drive `clients` closed-loop against any [`Kv`] until `deadline`,
/// recording latencies into `metrics`. A worker that hits an error
/// stops (divergence is sticky — hammering a corrupted shard teaches
/// nothing) and its error is reported in the outcome. `during` runs
/// every ~20 ms on the coordinating thread while workers are live —
/// the soak samples retained log lengths there, E16 ramps fault knobs.
pub fn drive_clients<K: Kv + Send>(
    clients: Vec<K>,
    mix_cfg: &WorkloadMix,
    deadline: Instant,
    metrics: &StoreMetrics,
    mut during: impl FnMut(),
) -> DriveOutcome<K> {
    assert!(mix_cfg.read_pct <= 100, "read_pct is a percentage");
    assert!(mix_cfg.batch >= 1, "batch of 0 operations makes no sense");
    let outcomes: Vec<(K, Option<StoreError>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(w, mut client)| {
                let mut rng = splitmix64(mix_cfg.seed ^ (w as u64) << 32);
                let keyspace = mix_cfg.keyspace.max(1);
                let read_pct = mix_cfg.read_pct;
                let batch = mix_cfg.batch;
                let metrics = &*metrics;
                scope.spawn(move || {
                    let mut error = None;
                    'work: while Instant::now() < deadline {
                        if batch > 1 {
                            let ops: Vec<KvOp> = (0..batch)
                                .map(|_| random_op(&mut rng, keyspace, read_pct))
                                .collect();
                            let start = Instant::now();
                            match client.batch(&ops) {
                                Ok(_) => metrics.batches.record_many(
                                    start.elapsed().as_nanos() as u64,
                                    ops.len() as u64,
                                ),
                                Err(e) => {
                                    error = Some(e);
                                    break 'work;
                                }
                            }
                        } else {
                            let op = random_op(&mut rng, keyspace, read_pct);
                            let start = Instant::now();
                            let (result, m) = match op {
                                KvOp::Get(k) => (client.get(k), &metrics.reads),
                                KvOp::Put(k, v) => (client.put(k, v), &metrics.writes),
                                KvOp::Del(k) => (client.del(k), &metrics.deletes),
                            };
                            match result {
                                Ok(_) => m.record(start.elapsed().as_nanos() as u64),
                                Err(e) => {
                                    error = Some(e);
                                    break 'work;
                                }
                            }
                        }
                    }
                    (client, error)
                })
            })
            .collect();
        while Instant::now() < deadline {
            during();
            std::thread::sleep(Duration::from_millis(20));
        }
        workers.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut clients = Vec::with_capacity(outcomes.len());
    let mut errors = Vec::new();
    for (client, error) in outcomes {
        clients.push(client);
        errors.extend(error);
    }
    DriveOutcome { clients, errors }
}

/// The next operation of a worker's stream: `read_pct` gets, the
/// remainder split 2:1 between puts and dels, keys uniform in
/// `0..keyspace`. Every closed-loop driver draws from this one
/// generator, so in-process and over-TCP runs issue the same workload.
pub fn random_op(rng: &mut u64, keyspace: u32, read_pct: u32) -> KvOp {
    let r = mix(rng);
    let key = (r >> 32) as u32 % keyspace;
    let dice = (r % 100) as u32;
    if dice < read_pct {
        KvOp::Get(key)
    } else if dice < read_pct + (100 - read_pct) * 2 / 3 {
        KvOp::Put(key, (r as u32) & KV_MAX)
    } else {
        KvOp::Del(key)
    }
}

/// Run one closed-loop soak per `config` and verify the outcome.
///
/// Workers issue operations back-to-back until the deadline; a sampler
/// in the main thread tracks the largest retained log length so the
/// report can show the checkpoint protocol holding memory bounded
/// while writers are live.
pub fn run_soak(config: &SoakConfig) -> SoakReport {
    try_run_soak(config).unwrap_or_else(|e| panic!("soak could not build its store: {e}"))
}

/// [`run_soak`], but recovery and configuration failures come back as
/// a typed [`RecoverError`] instead of a panic — `ff soak`
/// turns a [`RecoverError::ReplayDivergence`] into a non-zero exit so
/// CI's kill-recover smoke can assert on it.
pub fn try_run_soak(config: &SoakConfig) -> Result<SoakReport, RecoverError> {
    assert!(config.threads >= 1, "need at least one worker");
    let store_config = config.store_config().map_err(RecoverError::Config)?;
    let (store, recovery) = if config.recover {
        let (store, report) = Store::recover(store_config)?;
        (Arc::new(store), Some(report))
    } else {
        (Arc::new(Store::new(store_config)), None)
    };
    let metrics = Arc::new(StoreMetrics::default());
    let deadline = Instant::now() + Duration::from_secs_f64(config.secs);
    let mut max_retained = 0usize;

    let clients: Vec<StoreClient> = (0..config.threads).map(|_| store.client()).collect();
    let mix_cfg = WorkloadMix {
        read_pct: config.read_pct,
        keyspace: config.keyspace,
        seed: config.seed,
        batch: 1,
    };
    // The `during` hook samples retained length while workers run: live
    // evidence that checkpoint truncation keeps logs bounded.
    let outcome = drive_clients(clients, &mix_cfg, deadline, &metrics, || {
        max_retained = max_retained.max(store.max_retained_len());
    });
    let DriveOutcome {
        mut clients,
        errors,
    } = outcome;

    let elapsed = config.secs;
    max_retained = max_retained.max(store.max_retained_len());
    // Push any group-commit remainder to disk before judging the run:
    // the report's WAL counters must describe a log a crash right now
    // would recover from.
    store.flush_wal();
    let report: ConsistencyReport = store.verify(&mut clients);
    let consistency: Vec<ShardVerdict> = report
        .per_shard
        .iter()
        .map(|s| ShardVerdict {
            shard: s.shard,
            consistent: s.consistent,
            kind: store.fault_kind_label(s.shard),
            end_slot: s.end_slot,
            truncated: s.truncated_prefix,
            checkpoints: s.checkpoints,
            snapshots_encoded: s.snapshots_encoded,
        })
        .collect();
    let snapshot = metrics
        .snapshot(elapsed, store.shard_faults())
        .with_combining(store.combine_snapshot())
        .with_durability(store.durability_snapshot());
    let mut client_errors: Vec<String> = errors.iter().map(|e| e.to_string()).collect();
    // A latched WAL I/O failure means the on-disk log stopped tracking
    // the in-memory state mid-run: the run is *not* durable, whatever
    // the replicas say, so it fails the report the same way divergence
    // does.
    let durable_ok = match store.durability_error() {
        Some(e) => {
            client_errors.push(format!("durability failure: {e}"));
            false
        }
        None => true,
    };
    Ok(SoakReport {
        config: config.clone(),
        metrics: snapshot,
        consistency,
        recovery,
        max_retained_during_run: max_retained,
        retained_after_verify: store.max_retained_len(),
        consistent: report.all_consistent() && errors.is_empty() && durable_ok,
        client_errors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soak_report_json_echoes_seed() {
        let report = run_soak(&SoakConfig {
            threads: 1,
            shards: 2,
            secs: 0.05,
            seed: 0xDEAD_BEEF,
            ..SoakConfig::default()
        });
        assert_eq!(report.config.seed, 0xDEAD_BEEF);
        let json = report.to_json().render();
        assert!(json.contains("\"seed\""), "{json}");
    }

    #[test]
    fn short_soak_on_robust_backend_is_consistent() {
        let report = run_soak(&SoakConfig {
            threads: 2,
            shards: 2,
            secs: 0.3,
            checkpoint_interval: 16,
            ..SoakConfig::default()
        });
        assert!(report.consistent, "robust soak diverged");
        assert!(report.metrics.total_ops() > 0, "no operations completed");
        let c = report
            .metrics
            .combining
            .as_ref()
            .expect("combining counters missing from snapshot");
        assert!(c.passes > 0, "no combine passes recorded");
        let json = report.to_json().render();
        assert!(json.contains("\"consistent\": true"));
        assert!(json.contains("fastpath_hit_rate"), "{json}");
    }

    #[test]
    fn durable_soak_then_recover_soak_round_trips() {
        let dir = std::env::temp_dir().join(format!(
            "ff-soak-durable-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let durable = SoakConfig {
            threads: 2,
            shards: 2,
            secs: 0.2,
            checkpoint_interval: 16,
            durability: DurabilityConfig::in_dir(&dir),
            ..SoakConfig::default()
        };
        let report = run_soak(&durable);
        assert!(report.consistent, "durable soak diverged");
        let d = report
            .metrics
            .durability
            .as_ref()
            .expect("durability counters missing from snapshot");
        assert!(d.records_logged > 0, "WAL recorded nothing");
        assert!(d.fsyncs > 0, "WAL never fsynced");
        let json = report.to_json().render();
        assert!(json.contains("\"durable\": true"), "{json}");

        let recovered = run_soak(&SoakConfig {
            recover: true,
            ..durable.clone()
        });
        assert!(recovered.consistent, "recovered soak diverged");
        let r = recovered
            .recovery
            .as_ref()
            .expect("recovery report missing");
        assert!(
            r.records_replayed() + r.checkpoints_loaded() > 0,
            "recovery found nothing despite a durable first run"
        );
        let json = recovered.to_json().render();
        assert!(json.contains("\"recovery\""), "{json}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reliable_soak_records_no_faults() {
        let report = run_soak(&SoakConfig {
            threads: 1,
            shards: 2,
            secs: 0.2,
            backend: Backend::reliable(),
            ..SoakConfig::default()
        });
        assert!(report.consistent);
        assert_eq!(
            report
                .metrics
                .faults
                .iter()
                .map(|f| f.observable)
                .sum::<u64>(),
            0
        );
    }
}
