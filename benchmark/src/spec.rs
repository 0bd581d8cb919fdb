//! What the benchmark runs and what it reports: the workload table, the
//! metric tables (mirrored by `BENCHMARK.json`; a unit test holds the
//! two together), and the one store shape every run uses.

use std::path::Path;

use ff_store::{Backend, StoreConfig};

use crate::gen::derive;

/// How a workload loads the system.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// In-process closed loop, two `StoreClient` threads.
    Mem,
    /// [`Kind::Mem`] over a WAL on `FsMedia`, recovered and compared
    /// after the window.
    Wal,
    /// One thread, two `NetClient`s, closed loop of pipelined bursts.
    TcpPipe,
    /// One thread, two nonblocking connections, bursts on a schedule.
    TcpOpen,
}

/// One workload: a fixed set of inputs the benchmark runs.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub keys: u32,
    pub read_pct: u32,
    /// Why it is here (the one-liner `BENCHMARK.json` carries).
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "mem-write",
        kind: Kind::Mem,
        keys: 4096,
        read_pct: 0,
        why: "in-process, 100% writes, 4,096 keys: every op pays combine, log slot and decide over f+1 faulty CAS; no socket, no disk, tiny map",
    },
    Workload {
        name: "mem-read-large",
        kind: Kind::Mem,
        keys: 65_536,
        read_pct: 95,
        why: "in-process, 95% GET, 65,536 keys: reads bypass consensus on the snapshot path while each write pays checkpoints proportional to live keys",
    },
    Workload {
        name: "wal-write",
        kind: Kind::Wal,
        keys: 4096,
        read_pct: 0,
        why: "mem-write plus a WAL on FsMedia (group commit 512), recovered and compared after the window: the gap to mem-write is the WAL",
    },
    Workload {
        name: "tcp-pipe",
        kind: Kind::TcpPipe,
        keys: 4096,
        read_pct: 50,
        why: "one reactor loop, 2 connections, closed loop with 8 bursts of 256 single-op frames in flight on each: per-frame wire, session and socket cost with the loop saturated",
    },
    Workload {
        name: "tcp-open",
        kind: Kind::TcpOpen,
        keys: 4096,
        read_pct: 50,
        why: "same server, open loop at 100,000 frames/s in bursts of 8, timed from due time: latency below saturation, where poll backoff shows",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Driver threads (in-process) or connections (TCP): never more than
/// the two cores of the sizing box.
pub const OWNERS: u32 = 2;
/// Frames per `send` and bursts in flight per connection on `tcp-pipe`:
/// 2,048 frames (about 28 KiB) queued per connection, more than the
/// reactor reads from a connection in one tick.
pub const PIPE_DEPTH: usize = 256;
pub const PIPE_BURSTS: usize = 8;
/// Frames per open-loop burst on `tcp-open`.
pub const BURST: usize = 8;
/// Open-loop burst period: 8 frames / 80 µs = 100,000 frames/s, about
/// 40% of the closed-loop capacity measured when the benchmark was sized.
pub const BURST_PERIOD_NS: u64 = 80_000;
/// Untimed load before every measured window.
pub const WARMUP_SECS: f64 = 1.5;
/// In-process: one call in 16 is timed; traced: one request in 64
/// carries spans.
pub const TIMED_EVERY: u64 = 16;
pub const SPANS_EVERY: u64 = 64;

/// Whether a larger or a smaller value is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec { name, unit, better }
}

use Better::{Higher, Lower};

/// What a user of the store sees. Failures are not a metric here: the
/// result line's `failed` / `attempted` carries them, and any failure
/// makes the run incorrect.
pub const END_TO_END: [MetricSpec; 4] = [
    m("ops_per_s", "ops/s", Higher),
    m("lat_p50_us", "us", Lower),
    m("lat_p90_us", "us", Lower),
    m("setup_s", "s", Lower),
];

/// One layer each; the prefix is the module the number belongs to.
pub const PER_LAYER: [MetricSpec; 55] = [
    m("cas.ops_per_op", "count", Lower),
    m("cas.observable_faults_per_kop", "count", Lower),
    m("consensus.decides_per_op", "count", Lower),
    m("consensus.decide_ns_p50", "ns", Lower),
    m("consensus.decide_ns_p90", "ns", Lower),
    m("consensus.busy_share", "ratio", Lower),
    m("universal.slots_per_op", "count", Lower),
    m("universal.checkpoints_per_kop", "count", Lower),
    m("universal.retained_max", "slots", Lower),
    m("store.call_ns_p50", "ns", Lower),
    m("store.call_ns_p90", "ns", Lower),
    m("store.self_share", "ratio", Lower),
    m("store.combine.passes_per_kop", "count", Lower),
    m("store.combine.mean_batch", "count", Higher),
    m("store.combine.fastpath_hit_rate", "ratio", Higher),
    m("store.combine.reclaims", "count", Lower),
    m("store.wal.bytes_per_op", "bytes", Lower),
    m("store.wal.rotate_bytes_per_op", "bytes", Lower),
    m("store.wal.records_per_fsync", "count", Higher),
    m("store.wal.fsyncs_per_kop", "count", Lower),
    m("store.wal.rotations", "count", Lower),
    m("store.wal.append_ns_p50", "ns", Lower),
    m("store.wal.sync_us_p50", "us", Lower),
    m("store.wal.sync_us_p90", "us", Lower),
    m("store.wal.busy_share", "ratio", Lower),
    m("store.recover.recover_ms", "ms", Lower),
    m("store.recover.replayed_records", "count", Lower),
    m("net.wire.encode_req_ns", "ns", Lower),
    m("net.wire.decode_resp_ns", "ns", Lower),
    m("net.wire.req_bytes_per_op", "bytes", Lower),
    m("net.wire.resp_bytes_per_op", "bytes", Lower),
    m("net.session.stage_ns_per_frame", "ns", Lower),
    m("net.session.resolve_ns_per_frame", "ns", Lower),
    m("net.walk.ns_per_frame", "ns", Lower),
    m("net.server.frames_per_run", "count", Higher),
    m("net.server.ops_per_run", "count", Higher),
    m("net.server.runs_per_s", "1/s", Lower),
    m("net.server.residual_ns_per_frame", "ns", Lower),
    m("net.client.send_us_p50", "us", Lower),
    m("net.client.collect_us_p50", "us", Lower),
    m("driver.ref_ops_per_s", "ops/s", Higher),
    m("driver.traced_ops_per_s", "ops/s", Higher),
    m("driver.trace_overhead_share", "ratio", Lower),
    m("driver.lat_p99_us", "us", Lower),
    m("driver.lat_p999_us", "us", Lower),
    m("driver.lat_samples", "count", Higher),
    m("driver.late_max_us", "us", Lower),
    m("driver.backlog_max", "bursts", Lower),
    m("driver.slice_min_ops_per_s", "ops/s", Higher),
    m("driver.slice_median_ops_per_s", "ops/s", Higher),
    m("driver.slice_max_ops_per_s", "ops/s", Higher),
    m("driver.cpu_share", "ratio", Lower),
    m("driver.rest_cpu_share", "ratio", Lower),
    m("driver.span_count", "count", Higher),
    m("driver.rss_end_mb", "MB", Lower),
];

/// The fixed shape of every run: 4 shards on the robust substrate (or
/// its traced twin), default fault environment at rate 0.2, combining
/// on, checkpoints every 64 slots; `wal_dir` turns durability on with
/// the default group commit (512) and rotate cost.
pub fn store_config(seed: u64, traced: bool, wal_dir: Option<&Path>) -> StoreConfig {
    let backend = if traced {
        crate::trace::traced_backend()
    } else {
        Backend::robust()
    };
    let mut builder = StoreConfig::builder()
        .shards(4)
        .backend(backend)
        .fault_rate(0.2)
        .combining(true)
        .checkpoint_interval(64)
        .seed(derive(seed, 0));
    if let Some(dir) = wal_dir {
        builder = builder.data_dir(dir);
    }
    builder
        .build()
        .expect("the benchmark's store shape is valid")
}

/// Named values produced by one run, checked against a metric table.
#[derive(Clone, Debug, Default)]
pub struct MetricSet {
    /// `(name, value, samples behind the value)`.
    values: Vec<(&'static str, f64, u64)>,
}

impl MetricSet {
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|s| s.name == name),
            "{name} is in no metric table"
        );
        // A ratio over an empty window is no measurement; JSON has no NaN.
        let value = if value.is_finite() { value } else { 0.0 };
        self.values.push((name, value, samples));
    }

    /// The value and sample count of `name`; `(0, 0)` for a metric this
    /// workload has no source for (a WAL counter on `mem-write`, say).
    pub fn get(&self, name: &str) -> (f64, u64) {
        self.values
            .iter()
            .find(|(n, ..)| *n == name)
            .map_or((0.0, 0), |&(_, v, s)| (v, s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_workload::json::JsonValue;

    /// `BENCHMARK.json` is what the driver reads; these tables are what
    /// the binary prints. They must name the same things.
    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = JsonValue::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let rows = |key: &str| match doc.get(key) {
            Some(JsonValue::Array(rows)) => rows.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let text = |row: &JsonValue, key: &str| row.get(key).unwrap().as_str().unwrap().to_string();
        let got: Vec<_> = rows("workloads")
            .iter()
            .map(|r| (text(r, "name"), text(r, "why")))
            .collect();
        let want: Vec<_> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(got, want);
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let got: Vec<_> = rows(key)
                .iter()
                .map(|r| (text(r, "name"), text(r, "unit"), text(r, "better")))
                .collect();
            let want: Vec<_> = table
                .iter()
                .map(|s| {
                    (
                        s.name.to_string(),
                        s.unit.to_string(),
                        s.better.label().to_string(),
                    )
                })
                .collect();
            assert_eq!(got, want, "{key}");
        }
        assert_eq!(
            rows("paths"),
            vec![JsonValue::String("benchmark".to_string())]
        );
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        for spec in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(ok(spec.unit, "_/%.-", 16), "{}", spec.unit);
            names.push(spec.name);
        }
        for name in &names {
            assert!(ok(name, "_.-", 64), "{name}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
        }
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }
}
