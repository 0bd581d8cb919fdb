//! One run of one workload: set-up → warm-up → window → checks, and the
//! metrics computed from what those produced.
//!
//! An untraced run (`--trace 0`) sets up several times, measures one
//! window on the plain `robust` backend and bare `FsMedia`, and reports
//! the end-to-end metrics. A traced run (`--trace 1`) measures a short
//! untraced reference window, then a window through the tracing seams
//! (plus, on the TCP workloads, the layer walk), and reports the
//! per-layer metrics; the difference between its two windows is the
//! tracing overhead.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ff_net::StatsReply;
use ff_store::Store;

use crate::gen::Tally;
use crate::spec::{Kind, MetricSet, Workload, WARMUP_SECS};
use crate::stats::{median, quantile_sorted, sorted, spread, tail_quantile_sorted};
use crate::trace::{self, MediaStats, Span, SpanTotals};
use crate::window::{process_cpu_ns, StoreCounters, Window};
use crate::{inproc, tcp};

/// Timed set-ups per untraced run: at least `SETUPS_MIN`, more while
/// they have taken less than `SETUPS_BUDGET` together, after
/// `SETUPS_SETTLE` of untimed ones.
const SETUPS_MIN: usize = 5;
const SETUPS_MAX: usize = 40;
const SETUPS_SETTLE: Duration = Duration::from_millis(500);
const SETUPS_BUDGET: Duration = Duration::from_millis(1500);
const SETUP_DITHER: Duration = Duration::from_micros(7_300);

/// What a run hands to the output layer.
pub struct Outcome {
    pub tally: Tally,
    pub metrics: MetricSet,
    /// Within-run spread of each end-to-end metric (untraced runs).
    pub spreads: Vec<(&'static str, f64)>,
}

enum World {
    Inproc(inproc::World),
    Tcp(tcp::World),
}

fn setup(w: &Workload, seed: u64, traced: bool, run_dir: &Path) -> World {
    match w.kind {
        Kind::Mem | Kind::Wal => World::Inproc(inproc::setup(w, seed, traced, run_dir)),
        Kind::TcpPipe | Kind::TcpOpen => World::Tcp(tcp::setup(w, seed, traced)),
    }
}

impl World {
    fn drive(&mut self, secs: f64, traced: bool) -> Window {
        match self {
            World::Inproc(world) => inproc::drive(world, secs, traced),
            World::Tcp(world) => tcp::drive(world, secs, traced),
        }
    }

    fn store(&self) -> &Store {
        match self {
            World::Inproc(world) => &world.store,
            World::Tcp(world) => &world.store,
        }
    }

    fn server_stats(&mut self) -> StatsReply {
        match self {
            World::Inproc(_) => StatsReply::default(),
            World::Tcp(world) => tcp::stats(world),
        }
    }

    fn finish(self) -> inproc::Finish {
        match self {
            World::Inproc(world) => inproc::finish(world),
            World::Tcp(world) => inproc::Finish {
                tally: tcp::finish(world),
                recovery: None,
            },
        }
    }
}

/// A directory of this process's own under `benchmark/out/`, for WAL
/// files.
fn run_dir(out_dir: &Path) -> PathBuf {
    let dir = out_dir.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("benchmark/out is writable");
    dir
}

/// Set up, warm up, measure `secs` untraced, check, tear down.
fn plain_window(w: &Workload, seed: u64, secs: f64, dir: &Path, tally: &mut Tally) -> Window {
    let mut world = setup(w, seed, false, dir);
    world.drive(WARMUP_SECS, false);
    let window = world.drive(secs, false);
    tally.add(world.finish().tally);
    window
}

pub fn run_untraced(w: &Workload, seed: u64, secs: f64, out_dir: &Path) -> Outcome {
    let dir = run_dir(out_dir);
    let mut tally = Tally::default();
    // Set-up time: the same seeded set-up repeated, median reported.
    // Repetitions that start in the process's first half second are not
    // timed: in about one process in five everything ran 1.5x slower for
    // its first 0.25 s (27 of 40 `mem-write` set-ups at 4.5 ms, the rest
    // at 3.0 ms), which put whole runs in a slow mode.
    // The server's acceptor and its empty loop poll on 5 ms and 2 ms
    // sleeps, so a TCP set-up waits 0-7 ms depending on when it starts
    // relative to them, and back-to-back repetitions lock onto one
    // phase. A golden-ratio pause before each TCP repetition spreads the
    // starts evenly over that period, whatever the repetition count
    // (spun, not slept: a set-up that starts on a cold core is slower).
    let tcp = matches!(w.kind, Kind::TcpPipe | Kind::TcpOpen);
    let mut setups = Vec::new();
    let started = Instant::now();
    while setups.len() < SETUPS_MIN
        || (setups.len() < SETUPS_MAX && started.elapsed() < SETUPS_SETTLE + SETUPS_BUDGET)
    {
        let pause = SETUP_DITHER.mul_f64((setups.len() as f64 * 0.618_033_988_75).fract());
        let t0 = Instant::now();
        while tcp && t0.elapsed() < pause {
            std::hint::spin_loop();
        }
        let settled = started.elapsed() >= SETUPS_SETTLE;
        let t0 = Instant::now();
        let world = setup(w, seed, false, &dir);
        if settled {
            setups.push(t0.elapsed().as_secs_f64());
        }
        tally.add(world.finish().tally);
    }
    let window = plain_window(w, seed, secs, &dir, &mut tally);
    let _ = std::fs::remove_dir(&dir);

    let slices = window.slice_rates();
    let samples: u64 = window.threads.iter().map(|t| t.lat_ns.len() as u64).sum();
    let mut metrics = MetricSet::default();
    metrics.set("ops_per_s", window.ops_per_s(), slices.len() as u64);
    metrics.set("lat_p50_us", window.lat_ns(0.5) / 1e3, samples);
    metrics.set("lat_p90_us", window.lat_ns(0.9) / 1e3, samples);
    metrics.set("setup_s", median(&setups), setups.len() as u64);
    Outcome {
        tally,
        metrics,
        spreads: vec![
            ("ops_per_s", spread(&slices)),
            ("lat_p50_us", spread(&window.lat_chunks(0.5))),
            ("lat_p90_us", spread(&window.lat_chunks(0.9))),
            ("setup_s", spread(&setups)),
        ],
    }
}

/// Everything the traced window and its surroundings produced.
struct Traced {
    reference: Window,
    window: Window,
    before: StoreCounters,
    after: StoreCounters,
    server_before: StatsReply,
    server_after: StatsReply,
    media: Option<MediaStats>,
    walk: Option<tcp::Walk>,
    retained_max: usize,
    recovery: Option<(f64, u64)>,
    rss_mb: f64,
    /// CPU time of the whole process during the traced window.
    process_cpu: u64,
}

pub fn run_traced(w: &Workload, seed: u64, secs: f64, out_dir: &Path) -> Outcome {
    let dir = run_dir(out_dir);
    let mut tally = Tally::default();
    let tcp = matches!(w.kind, Kind::TcpPipe | Kind::TcpOpen);
    // A quarter of the time measures the untraced reference, a quarter
    // the layer walk where there is one, the rest the traced window.
    let reference = plain_window(w, seed, secs / 4.0, &dir, &mut tally);
    let walk_secs = if tcp { secs / 4.0 } else { 0.0 };

    let mut world = setup(w, seed, true, &dir);
    world.drive(WARMUP_SECS, false);
    if let World::Inproc(world) = &world {
        inproc::take_media_stats(world);
    }
    let server_before = world.server_stats();
    let before = StoreCounters::read(world.store());
    let process_cpu = process_cpu_ns();
    let mut window = world.drive(secs * 0.75 - walk_secs, true);
    let process_cpu = process_cpu_ns() - process_cpu;
    let after = StoreCounters::read(world.store());
    let server_after = world.server_stats();
    let media = match &world {
        World::Inproc(world) => inproc::take_media_stats(world),
        World::Tcp(_) => None,
    };
    let rss_mb = rss_mb();
    let mut walk = match &mut world {
        World::Tcp(world) => {
            let runs = server_after.runs_executed - server_before.runs_executed;
            let frames = server_after.frames_staged - server_before.frames_staged;
            Some(tcp::walk(
                world,
                walk_secs,
                ratio(frames as f64, runs as f64),
            ))
        }
        World::Inproc(_) => None,
    };
    let retained_max = world.store().max_retained_len();
    let finish = world.finish();
    tally.add(finish.tally);
    let _ = std::fs::remove_dir(&dir);

    let mut threads = window.take_spans();
    threads.extend(walk.as_mut().map(|walk| std::mem::take(&mut walk.spans)));
    let trace_path = out_dir.join(format!("{}.trace.json", w.name));
    if let Err(e) = trace::write_file(&trace_path, w.name, seed, &threads) {
        eprintln!("benchmark: could not write {}: {e}", trace_path.display());
    }
    let traced = Traced {
        reference,
        window,
        before,
        after,
        server_before,
        server_after,
        media,
        walk,
        retained_max,
        recovery: finish.recovery,
        rss_mb,
        process_cpu,
    };
    Outcome {
        tally,
        metrics: layer_metrics(w, &traced, &threads),
        spreads: Vec::new(),
    }
}

fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn layer_metrics(w: &Workload, t: &Traced, threads: &[Vec<Span>]) -> MetricSet {
    let mut m = MetricSet::default();
    let ops = t.window.ops();
    let (opsf, kops) = (ops as f64, ops as f64 / 1e3);
    let window_secs = t.window.thread_ns() as f64 / 1e9 / t.window.threads.len() as f64;
    let d = |after: u64, before: u64| (after - before) as f64;

    // cas / consensus / universal: counters on either side of the window.
    m.set(
        "cas.ops_per_op",
        ratio(d(t.after.cas_ops, t.before.cas_ops), opsf),
        ops,
    );
    m.set(
        "cas.observable_faults_per_kop",
        ratio(d(t.after.observable, t.before.observable), kops),
        ops,
    );
    m.set(
        "consensus.decides_per_op",
        ratio(d(t.after.decides, t.before.decides), opsf),
        ops,
    );
    m.set(
        "universal.slots_per_op",
        ratio(d(t.after.slots, t.before.slots), opsf),
        ops,
    );
    m.set(
        "universal.checkpoints_per_kop",
        ratio(d(t.after.checkpoints, t.before.checkpoints), kops),
        ops,
    );
    m.set("universal.retained_max", t.retained_max as f64, 1);

    // Spans: decide and the store call, over every sampled request.
    let totals = trace::totals(threads);
    let none = SpanTotals::default();
    let of = |name: &str| totals.get(name).unwrap_or(&none);
    let (decide, call) = (of("consensus.decide"), of("store.call"));
    let n = decide.count;
    m.set(
        "consensus.decide_ns_p50",
        f64::from(quantile_sorted(&decide.durs, 0.5)),
        n,
    );
    m.set(
        "consensus.decide_ns_p90",
        f64::from(quantile_sorted(&decide.durs, 0.9)),
        n,
    );
    m.set(
        "consensus.busy_share",
        ratio(decide.dur_ns as f64, call.dur_ns as f64),
        n,
    );
    let n = call.count;
    m.set(
        "store.call_ns_p50",
        f64::from(quantile_sorted(&call.durs, 0.5)),
        n,
    );
    m.set(
        "store.call_ns_p90",
        f64::from(quantile_sorted(&call.durs, 0.9)),
        n,
    );
    m.set(
        "store.self_share",
        ratio(call.self_ns as f64, call.dur_ns as f64),
        n,
    );

    let (ca, cb) = (&t.after.combine, &t.before.combine);
    let passes = d(ca.passes, cb.passes);
    let reads = d(
        ca.fastpath_hits + ca.fastpath_misses,
        cb.fastpath_hits + cb.fastpath_misses,
    );
    m.set("store.combine.passes_per_kop", ratio(passes, kops), ops);
    m.set(
        "store.combine.mean_batch",
        ratio(d(ca.combined_ops, cb.combined_ops), passes),
        passes as u64,
    );
    m.set(
        "store.combine.fastpath_hit_rate",
        ratio(d(ca.fastpath_hits, cb.fastpath_hits), reads),
        reads as u64,
    );
    m.set("store.combine.reclaims", d(ca.reclaims, cb.reclaims), ops);

    if let (Some(da), Some(db), Some(media)) = (&t.after.durability, &t.before.durability, &t.media)
    {
        let fsyncs = d(da.fsyncs, db.fsyncs);
        m.set(
            "store.wal.bytes_per_op",
            ratio(media.append_bytes as f64, opsf),
            ops,
        );
        m.set(
            "store.wal.rotate_bytes_per_op",
            ratio(media.replace_bytes as f64, opsf),
            ops,
        );
        m.set(
            "store.wal.records_per_fsync",
            ratio(d(da.records_logged, db.records_logged), fsyncs),
            fsyncs as u64,
        );
        m.set("store.wal.fsyncs_per_kop", ratio(fsyncs, kops), ops);
        m.set(
            "store.wal.rotations",
            d(da.checkpoints, db.checkpoints),
            ops,
        );
        let (append, sync) = (sorted(&media.append_ns), sorted(&media.sync_ns));
        m.set(
            "store.wal.append_ns_p50",
            f64::from(quantile_sorted(&append, 0.5)),
            append.len() as u64,
        );
        for (name, q) in [
            ("store.wal.sync_us_p50", 0.5),
            ("store.wal.sync_us_p90", 0.9),
        ] {
            m.set(
                name,
                f64::from(quantile_sorted(&sync, q)) / 1e3,
                sync.len() as u64,
            );
        }
        m.set(
            "store.wal.busy_share",
            ratio(media.busy_ns() as f64, t.window.thread_ns() as f64),
            (append.len() + sync.len() + media.replace_ns.len()) as u64,
        );
    }
    if let Some((ms, replayed)) = t.recovery {
        m.set("store.recover.recover_ms", ms, 1);
        m.set("store.recover.replayed_records", replayed as f64, 1);
    }

    let reference = t.reference.ops_per_s();
    if let Some(walk) = &t.walk {
        let frames = walk.frames as f64;
        let per_frame = |name| ratio(of(name).dur_ns as f64, frames);
        m.set(
            "net.wire.encode_req_ns",
            per_frame("net.wire.encode_req"),
            walk.frames,
        );
        m.set(
            "net.wire.decode_resp_ns",
            per_frame("net.wire.decode_resp"),
            walk.frames,
        );
        m.set(
            "net.wire.req_bytes_per_op",
            ratio(walk.req_bytes as f64, frames),
            walk.frames,
        );
        m.set(
            "net.wire.resp_bytes_per_op",
            ratio(walk.resp_bytes as f64, frames),
            walk.frames,
        );
        m.set(
            "net.session.stage_ns_per_frame",
            per_frame("net.session.stage"),
            walk.frames,
        );
        m.set(
            "net.session.resolve_ns_per_frame",
            per_frame("net.session.resolve"),
            walk.frames,
        );
        // The server's side of the walk: what a reactor tick does
        // between its socket reads and its socket writes.
        let served: f64 = [
            "net.session.ingest",
            "net.session.stage",
            "store.call",
            "net.session.resolve",
            "net.session.take_output",
        ]
        .into_iter()
        .map(per_frame)
        .sum();
        m.set("net.walk.ns_per_frame", served, walk.frames);
        // What one saturated loop spends per frame beyond that: socket
        // reads and writes and the poll scan.
        if w.kind == Kind::TcpPipe {
            m.set(
                "net.server.residual_ns_per_frame",
                ratio(1e9, reference) - served,
                walk.frames,
            );
        }
        let (sa, sb) = (&t.server_after, &t.server_before);
        let runs = d(sa.runs_executed, sb.runs_executed);
        m.set(
            "net.server.frames_per_run",
            ratio(d(sa.frames_staged, sb.frames_staged), runs),
            runs as u64,
        );
        m.set(
            "net.server.ops_per_run",
            ratio(d(sa.run_ops, sb.run_ops), runs),
            runs as u64,
        );
        m.set(
            "net.server.runs_per_s",
            ratio(runs, window_secs),
            runs as u64,
        );
        for (name, samples) in [
            ("net.client.send_us_p50", &t.window.send_ns),
            ("net.client.collect_us_p50", &t.window.collect_ns),
        ] {
            let sorted = sorted(samples);
            m.set(
                name,
                f64::from(quantile_sorted(&sorted, 0.5)) / 1e3,
                sorted.len() as u64,
            );
        }
    }

    let traced_rate = t.window.ops_per_s();
    let slices = t.window.slice_rates();
    let lat = t.window.lat_sorted();
    let n = lat.len() as u64;
    m.set(
        "driver.ref_ops_per_s",
        reference,
        t.reference.slice_rates().len() as u64,
    );
    m.set("driver.traced_ops_per_s", traced_rate, slices.len() as u64);
    m.set(
        "driver.trace_overhead_share",
        1.0 - ratio(traced_rate, reference),
        slices.len() as u64,
    );
    m.set(
        "driver.lat_p99_us",
        f64::from(tail_quantile_sorted(&lat, 0.99)) / 1e3,
        n,
    );
    m.set(
        "driver.lat_p999_us",
        f64::from(tail_quantile_sorted(&lat, 0.999)) / 1e3,
        n,
    );
    m.set("driver.lat_samples", n as f64, n);
    m.set("driver.late_max_us", t.window.late_max_ns as f64 / 1e3, 1);
    m.set("driver.backlog_max", t.window.backlog_max as f64, 1);
    let n = slices.len() as u64;
    m.set(
        "driver.slice_min_ops_per_s",
        slices.iter().copied().reduce(f64::min).unwrap_or(0.0),
        n,
    );
    m.set("driver.slice_median_ops_per_s", median(&slices), n);
    m.set(
        "driver.slice_max_ops_per_s",
        slices.iter().copied().reduce(f64::max).unwrap_or(0.0),
        n,
    );
    // How busy the driver threads were, and how busy everything else in
    // the process was (on TCP: the reactor loop and the acceptor), in
    // cores. A driver near 1.0 per thread is itself the bottleneck.
    let wall = t.window.thread_ns() as f64 / t.window.threads.len() as f64;
    let driver_cpu = t.window.cpu_ns();
    m.set(
        "driver.cpu_share",
        ratio(driver_cpu as f64, t.window.thread_ns() as f64),
        1,
    );
    m.set(
        "driver.rest_cpu_share",
        ratio(t.process_cpu.saturating_sub(driver_cpu) as f64, wall),
        1,
    );
    let spans: usize = threads.iter().map(Vec::len).sum();
    m.set("driver.span_count", spans as f64, spans as u64);
    m.set("driver.rss_end_mb", t.rss_mb, 1);
    m
}
