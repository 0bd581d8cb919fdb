//! Store observability: lock-free operation/fault counters and
//! fixed-bucket latency histograms, exported as an ASCII table and as
//! JSON (through `ff-workload`'s hand-rolled [`JsonValue`]).
//!
//! Everything on the hot path is a relaxed atomic increment — no locks,
//! no allocation — so metrics can stay on during a soak without
//! distorting it. Latencies land in 64 power-of-two buckets (bucket `i`
//! covers `[2^i, 2^{i+1})` nanoseconds), which bounds the quantile
//! error at 2× while keeping `record` branch-free.

use crate::combine::CombineSnapshot;
use ff_workload::{JsonValue, Table};
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log₂ latency buckets (covers 1 ns … ~584 years).
pub const BUCKETS: usize = 64;

/// A fixed-bucket log₂ latency histogram.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// Record one sample (nanoseconds).
    pub fn record(&self, nanos: u64) {
        // 0 ns lands in bucket 0; otherwise bucket = floor(log2(n)).
        let bucket = 63 - nanos.max(1).leading_zeros() as usize;
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Add every sample of `other` to this histogram (merging
    /// per-shard histograms into one summary).
    pub fn absorb(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// The `q`-quantile (`q ∈ [0, 1]`) as the upper bound of the bucket
    /// containing it, in nanoseconds; 0 if no samples.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return 1u64 << (i + 1).min(63);
            }
        }
        u64::MAX
    }
}

/// Latency + throughput counters for one operation class.
#[derive(Debug, Default)]
pub struct OpMetrics {
    ops: AtomicU64,
    latency: Histogram,
}

impl OpMetrics {
    /// Record one completed operation that took `nanos`.
    pub fn record(&self, nanos: u64) {
        self.ops.fetch_add(1, Ordering::Relaxed);
        self.latency.record(nanos);
    }

    /// Record one completed *batched* call covering `n` operations:
    /// throughput counts all `n`, the latency histogram gets one sample
    /// for the whole call (per-op latency is not observable inside a
    /// batch).
    pub fn record_many(&self, nanos: u64, n: u64) {
        self.ops.fetch_add(n, Ordering::Relaxed);
        self.latency.record(nanos);
    }

    /// Operations recorded so far.
    pub fn count(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// The latency histogram.
    pub fn latency(&self) -> &Histogram {
        &self.latency
    }
}

/// All live counters of one store: reads, writes, deletes.
#[derive(Debug, Default)]
pub struct StoreMetrics {
    /// `get` operations.
    pub reads: OpMetrics,
    /// `put` operations.
    pub writes: OpMetrics,
    /// `del` operations.
    pub deletes: OpMetrics,
    /// `batch` calls (ops counts operations covered; latency is per
    /// whole batch call).
    pub batches: OpMetrics,
}

/// Point-in-time percentile summary of one operation class.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OpSummary {
    /// Operations completed.
    pub ops: u64,
    /// Throughput over the measured window (ops/sec).
    pub ops_per_sec: f64,
    /// Median latency upper bound (ns).
    pub p50_ns: u64,
    /// 95th-percentile latency upper bound (ns).
    pub p95_ns: u64,
    /// 99th-percentile latency upper bound (ns).
    pub p99_ns: u64,
}

/// Fault accounting for one shard, from its shared `EnsembleStats`.
#[derive(Clone, Debug)]
pub struct ShardFaults {
    /// Shard index.
    pub shard: usize,
    /// The injected fault kind's label (e.g. `"overriding"`).
    pub kind: String,
    /// CAS operations executed by the shard's cells.
    pub cas_ops: u64,
    /// Fault attempts granted by the budget.
    pub attempted: u64,
    /// Observable faults (what Definition 1 counts).
    pub observable: u64,
    /// Objects with at least one observable fault.
    pub faulty_objects: u64,
}

/// A complete metrics snapshot, ready to render or serialize.
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    /// Measured wall-clock window (seconds).
    pub elapsed_secs: f64,
    /// Read (`get`) summary.
    pub reads: OpSummary,
    /// Write (`put`) summary.
    pub writes: OpSummary,
    /// Delete (`del`) summary.
    pub deletes: OpSummary,
    /// Batch summary (ops counts operations covered by batch calls).
    pub batches: OpSummary,
    /// Per-shard fault accounting.
    pub faults: Vec<ShardFaults>,
    /// Flat-combining counters, when the driver attached them
    /// (see [`Store::combine_snapshot`](crate::Store::combine_snapshot)).
    pub combining: Option<CombineSnapshot>,
    /// Durability counters, when the store ran with a write-ahead log
    /// (see [`Store::durability_snapshot`](crate::Store::durability_snapshot)).
    pub durability: Option<DurabilitySnapshot>,
}

/// Write-ahead-log and recovery counters of a durable store.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DurabilitySnapshot {
    /// Decided slot records appended to the WAL.
    pub records_logged: u64,
    /// fsyncs issued (group commits plus checkpoint rotations).
    pub fsyncs: u64,
    /// Checkpoint rotations written.
    pub checkpoints: u64,
    /// Median records per fsync (group-commit batch size, log₂-bucket
    /// upper bound).
    pub batch_p50: u64,
    /// 95th-percentile records per fsync.
    pub batch_p95: u64,
    /// Slot records recovery replayed through consensus.
    pub records_replayed: u64,
    /// Checkpoint snapshots recovery loaded.
    pub checkpoints_loaded: u64,
    /// Shard WALs recovery found torn or corrupt (and truncated).
    pub torn_tails: u64,
}

impl DurabilitySnapshot {
    /// Serialize to a JSON object.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("records_logged", self.records_logged.into()),
            ("fsyncs", self.fsyncs.into()),
            ("checkpoints", self.checkpoints.into()),
            ("batch_p50", self.batch_p50.into()),
            ("batch_p95", self.batch_p95.into()),
            ("records_replayed", self.records_replayed.into()),
            ("checkpoints_loaded", self.checkpoints_loaded.into()),
            ("torn_tails", self.torn_tails.into()),
        ])
    }
}

impl StoreMetrics {
    /// Summarize one class over an `elapsed_secs` window.
    fn summarize(m: &OpMetrics, elapsed_secs: f64) -> OpSummary {
        let ops = m.count();
        OpSummary {
            ops,
            ops_per_sec: if elapsed_secs > 0.0 {
                ops as f64 / elapsed_secs
            } else {
                0.0
            },
            p50_ns: m.latency().quantile(0.50),
            p95_ns: m.latency().quantile(0.95),
            p99_ns: m.latency().quantile(0.99),
        }
    }

    /// Snapshot every counter; `faults` comes from the store's shards.
    pub fn snapshot(&self, elapsed_secs: f64, faults: Vec<ShardFaults>) -> MetricsSnapshot {
        MetricsSnapshot {
            elapsed_secs,
            reads: Self::summarize(&self.reads, elapsed_secs),
            writes: Self::summarize(&self.writes, elapsed_secs),
            deletes: Self::summarize(&self.deletes, elapsed_secs),
            batches: Self::summarize(&self.batches, elapsed_secs),
            faults,
            combining: None,
            durability: None,
        }
    }
}

impl MetricsSnapshot {
    /// Attach combining-layer counters (pass
    /// [`Store::combine_snapshot`](crate::Store::combine_snapshot)'s
    /// result; `None` leaves the snapshot unchanged).
    pub fn with_combining(mut self, combining: Option<CombineSnapshot>) -> Self {
        self.combining = combining;
        self
    }

    /// Attach durability counters (pass
    /// [`Store::durability_snapshot`](crate::Store::durability_snapshot)'s
    /// result; `None` leaves the snapshot unchanged).
    pub fn with_durability(mut self, durability: Option<DurabilitySnapshot>) -> Self {
        self.durability = durability;
        self
    }

    /// Total operations across all classes.
    pub fn total_ops(&self) -> u64 {
        self.reads.ops + self.writes.ops + self.deletes.ops + self.batches.ops
    }

    /// Total throughput (ops/sec).
    pub fn total_ops_per_sec(&self) -> f64 {
        self.reads.ops_per_sec
            + self.writes.ops_per_sec
            + self.deletes.ops_per_sec
            + self.batches.ops_per_sec
    }

    /// Observable faults summed per kind label.
    pub fn faults_by_kind(&self) -> Vec<(String, u64)> {
        let mut by_kind: Vec<(String, u64)> = Vec::new();
        for f in &self.faults {
            match by_kind.iter_mut().find(|(k, _)| *k == f.kind) {
                Some((_, n)) => *n += f.observable,
                None => by_kind.push((f.kind.clone(), f.observable)),
            }
        }
        by_kind
    }

    /// The latency/throughput table plus the per-shard fault table.
    pub fn render_tables(&self) -> String {
        let mut latency = Table::new(
            format!(
                "store ops over {:.2}s ({:.0} ops/sec total)",
                self.elapsed_secs,
                self.total_ops_per_sec()
            ),
            &["op", "count", "ops/sec", "p50", "p95", "p99"],
        );
        for (name, s) in [
            ("get", &self.reads),
            ("put", &self.writes),
            ("del", &self.deletes),
            ("batch", &self.batches),
        ] {
            if name == "batch" && s.ops == 0 {
                continue; // only shown when batched calls actually ran
            }
            latency.push_row(&[
                name.to_string(),
                s.ops.to_string(),
                format!("{:.0}", s.ops_per_sec),
                format_ns(s.p50_ns),
                format_ns(s.p95_ns),
                format_ns(s.p99_ns),
            ]);
        }
        let mut faults = Table::new(
            "per-shard fault injection (observable = Definition 1 faults)",
            &[
                "shard",
                "kind",
                "cas ops",
                "attempted",
                "observable",
                "faulty objs",
            ],
        );
        for f in &self.faults {
            faults.push_row(&[
                f.shard.to_string(),
                f.kind.clone(),
                f.cas_ops.to_string(),
                f.attempted.to_string(),
                f.observable.to_string(),
                f.faulty_objects.to_string(),
            ]);
        }
        let mut out = format!("{}\n{}", latency.render(), faults.render());
        if let Some(c) = &self.combining {
            out.push_str(&format!(
                "\ncombining: {} passes, {} ops (mean batch {:.1}, p95 {}, max {}) | \
                 read fast path: {}/{} hits ({:.1}%)\n",
                c.passes,
                c.combined_ops,
                c.mean_batch,
                c.p95_batch,
                c.max_batch,
                c.fastpath_hits,
                c.fastpath_hits + c.fastpath_misses,
                c.hit_rate() * 100.0,
            ));
        }
        if let Some(d) = &self.durability {
            out.push_str(&format!(
                "\ndurability: {} records logged, {} fsyncs (batch p50 {}, p95 {}), \
                 {} checkpoint rotations | recovery: {} replayed, {} checkpoints, {} torn tails\n",
                d.records_logged,
                d.fsyncs,
                d.batch_p50,
                d.batch_p95,
                d.checkpoints,
                d.records_replayed,
                d.checkpoints_loaded,
                d.torn_tails,
            ));
        }
        out
    }

    /// Serialize to a JSON object (the `combining` key appears only
    /// when the counters were attached).
    pub fn to_json(&self) -> JsonValue {
        let op = |s: &OpSummary| {
            JsonValue::object([
                ("ops", s.ops.into()),
                ("ops_per_sec", s.ops_per_sec.into()),
                ("p50_ns", s.p50_ns.into()),
                ("p95_ns", s.p95_ns.into()),
                ("p99_ns", s.p99_ns.into()),
            ])
        };
        let shard = |f: &ShardFaults| {
            JsonValue::object([
                ("shard", f.shard.into()),
                ("kind", f.kind.as_str().into()),
                ("cas_ops", f.cas_ops.into()),
                ("attempted", f.attempted.into()),
                ("observable", f.observable.into()),
                ("faulty_objects", f.faulty_objects.into()),
            ])
        };
        let by_kind = self.faults_by_kind().into_iter();
        let mut fields = vec![
            ("elapsed_secs", self.elapsed_secs.into()),
            ("total_ops", self.total_ops().into()),
            ("total_ops_per_sec", self.total_ops_per_sec().into()),
            ("reads", op(&self.reads)),
            ("writes", op(&self.writes)),
            ("deletes", op(&self.deletes)),
            ("batches", op(&self.batches)),
            (
                "faults_by_kind",
                JsonValue::Object(by_kind.map(|(k, n)| (k, n.into())).collect()),
            ),
            ("shards", self.faults.iter().map(shard).collect()),
        ];
        if let Some(c) = &self.combining {
            fields.push(("combining", c.to_json()));
        }
        if let Some(d) = &self.durability {
            fields.push(("durability", d.to_json()));
        }
        JsonValue::object(fields)
    }
}

/// Human-readable nanoseconds (`950ns`, `12.3µs`, `4.5ms`, `1.2s`).
pub fn format_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_999 => format!("{:.1}µs", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.1}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_powers_of_two() {
        let h = Histogram::default();
        h.record(0); // bucket 0
        h.record(1);
        h.record(1023); // bucket 9 (512..1024)
        h.record(1024); // bucket 10
        assert_eq!(h.count(), 4);
        // All mass ≤ 1024 ⇒ the max quantile is that bucket's bound.
        assert_eq!(h.quantile(1.0), 2048);
        assert_eq!(h.quantile(0.25), 2);
    }

    #[test]
    fn quantiles_on_empty_histogram_are_zero() {
        assert_eq!(Histogram::default().quantile(0.99), 0);
    }

    #[test]
    fn quantile_ordering_holds() {
        let h = Histogram::default();
        for i in 0..1000u64 {
            h.record(i * 1000);
        }
        let (p50, p95, p99) = (h.quantile(0.5), h.quantile(0.95), h.quantile(0.99));
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
    }

    #[test]
    fn snapshot_renders_and_serializes() {
        let m = StoreMetrics::default();
        for i in 0..100 {
            m.reads.record(500 + i);
            m.writes.record(2000 + i);
        }
        let snap = m.snapshot(
            2.0,
            vec![ShardFaults {
                shard: 0,
                kind: "overriding".into(),
                cas_ops: 123,
                attempted: 10,
                observable: 7,
                faulty_objects: 1,
            }],
        );
        assert_eq!(snap.total_ops(), 200);
        assert!((snap.total_ops_per_sec() - 100.0).abs() < 1e-9);
        assert_eq!(snap.faults_by_kind(), vec![("overriding".to_string(), 7)]);
        let table = snap.render_tables();
        assert!(table.contains("get"), "{table}");
        assert!(table.contains("overriding"), "{table}");
        // JSON round-trips through the workload parser.
        let json = snap.to_json().render();
        let back = JsonValue::parse(&json).unwrap();
        assert_eq!(
            back.get("total_ops").and_then(JsonValue::as_f64),
            Some(200.0)
        );
        assert_eq!(
            back.get("faults_by_kind")
                .and_then(|f| f.get("overriding"))
                .and_then(JsonValue::as_f64),
            Some(7.0)
        );
    }

    #[test]
    fn format_ns_scales() {
        assert_eq!(format_ns(950), "950ns");
        assert_eq!(format_ns(12_300), "12.3µs");
        assert_eq!(format_ns(4_500_000), "4.5ms");
        assert_eq!(format_ns(1_200_000_000), "1.20s");
    }
}
