//! The in-process workloads: `mem-write`, `mem-read-large`, `wal-write`.
//!
//! Two driver threads, each with its own `StoreClient` and [`Owner`],
//! call `get`/`put`/`del` one op at a time in a closed loop and check
//! every response.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use ff_store::{FsMedia, Kv, KvOp, Store, StoreClient, StoreConfig, StoreError};

use crate::gen::{Owner, Tally};
use crate::spec::{store_config, Kind, Workload, OWNERS, SPANS_EVERY, TIMED_EVERY};
use crate::stats::sample_ns;
use crate::trace::{self, MediaStats, TracedMedia};
use crate::window::{thread_cpu_ns, SliceClock, ThreadWindow, Window};

/// A built and preloaded store with its drivers.
pub struct World {
    pub store: Store,
    workers: Vec<(StoreClient, Owner)>,
    config: StoreConfig,
    media: Option<Arc<TracedMedia>>,
    wal_dir: Option<PathBuf>,
}

/// What tearing a world down found.
pub struct Finish {
    pub tally: Tally,
    /// `wal-write`: wall time of `Store::recover` in ms and the records
    /// it replayed.
    pub recovery: Option<(f64, u64)>,
}

fn apply(client: &mut StoreClient, op: KvOp) -> Result<Option<u32>, StoreError> {
    match op {
        KvOp::Get(k) => client.get(k),
        KvOp::Put(k, v) => client.put(k, v),
        KvOp::Del(k) => client.del(k),
    }
}

/// Build the store (over a fresh WAL directory under `run_dir` for
/// `wal-write`; through the tracing seams when `traced`) and preload two
/// thirds of the keyspace through the clients the window will use.
pub fn setup(w: &Workload, seed: u64, traced: bool, run_dir: &Path) -> World {
    let wal_dir = (w.kind == Kind::Wal).then(|| run_dir.join("wal"));
    let config = store_config(seed, traced, wal_dir.as_deref());
    let mut media = None;
    let store = match (&wal_dir, traced) {
        (Some(dir), true) => {
            let fs = FsMedia::open(dir).expect("the WAL directory opens");
            let m = Arc::new(TracedMedia::new(fs));
            media = Some(Arc::clone(&m));
            Store::new_with_media(config.clone(), m).expect("a fresh store opens")
        }
        _ => Store::new(config.clone()),
    };
    let mut workers: Vec<(StoreClient, Owner)> = (0..OWNERS)
        .map(|o| {
            (
                store.client(),
                Owner::new(seed, o, OWNERS, w.keys, w.read_pct),
            )
        })
        .collect();
    for (client, owner) in &mut workers {
        for op in owner.preload_ops() {
            let expected = owner.expect(op);
            owner.tally.score(expected, apply(client, op));
        }
    }
    World {
        store,
        workers,
        config,
        media,
        wal_dir,
    }
}

fn drive_thread(
    client: &mut StoreClient,
    owner: &mut Owner,
    start: Instant,
    secs: f64,
    traced: bool,
) -> ThreadWindow {
    let deadline_ns = (secs * 1e9) as u64;
    let mut out = ThreadWindow::default();
    out.lat_ns.reserve(1 << 20);
    let mut slices = SliceClock::new();
    let cpu = thread_cpu_ns();
    let mut group = 0u64;
    loop {
        // The first op of each group of TIMED_EVERY is timed; when
        // tracing, every SPANS_EVERY-th op is also a root span.
        let sampled = traced && group.is_multiple_of(SPANS_EVERY / TIMED_EVERY);
        let op = owner.next_op();
        let expected = owner.expect(op);
        if sampled {
            trace::open_root(group as u32);
        }
        let t0 = trace::now_ns();
        let got = apply(client, op);
        let t1 = trace::now_ns();
        if sampled {
            trace::close_root("store.call", t0, t1);
        }
        out.lat_ns.push(sample_ns(t1 - t0));
        owner.tally.score(expected, got);
        for _ in 1..TIMED_EVERY {
            let op = owner.next_op();
            let expected = owner.expect(op);
            owner.tally.score(expected, apply(client, op));
        }
        out.ops += TIMED_EVERY;
        group += 1;
        let now_ns = start.elapsed().as_nanos() as u64;
        slices.tick(now_ns, out.ops);
        if now_ns >= deadline_ns {
            out.elapsed_ns = now_ns;
            break;
        }
    }
    out.cpu_ns = thread_cpu_ns() - cpu;
    out.slice_rates = slices.rates;
    out.spans = trace::take();
    out
}

/// Load the store for `secs` seconds from both driver threads.
pub fn drive(world: &mut World, secs: f64, traced: bool) -> Window {
    let start = Instant::now();
    let threads = std::thread::scope(|scope| {
        let handles: Vec<_> = world
            .workers
            .iter_mut()
            .map(|(client, owner)| {
                scope.spawn(move || drive_thread(client, owner, start, secs, traced))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a driver thread panicked"))
            .collect()
    });
    Window {
        threads,
        ..Window::default()
    }
}

/// What the traced WAL media saw since the last call (`None` unless this
/// is a traced `wal-write` world).
pub fn take_media_stats(world: &World) -> Option<MediaStats> {
    world.media.as_ref().map(|m| m.take_stats())
}

/// Check the store against itself and the models, then tear it down. On
/// `wal-write`: flush, drop, recover from disk, and compare the
/// recovered state with the models key by key.
pub fn finish(world: World) -> Finish {
    let World {
        store,
        workers,
        config,
        media,
        wal_dir,
    } = world;
    let (mut clients, owners): (Vec<StoreClient>, Vec<Owner>) = workers.into_iter().unzip();
    let mut tally = Tally::default();
    for owner in &owners {
        tally.add(owner.tally);
    }
    store.flush_wal();
    tally.check(
        store.verify(&mut clients).all_consistent(),
        "Store::verify after the window",
    );
    tally.check(
        store.durability_error().is_none(),
        "WAL latched an I/O error",
    );
    drop(clients);
    drop(store);
    drop(media);
    let mut recovery = None;
    if let Some(dir) = wal_dir {
        let t0 = Instant::now();
        match Store::recover(config) {
            Ok((recovered, report)) => {
                recovery = Some((t0.elapsed().as_secs_f64() * 1e3, report.records_replayed()));
                let mut reader = recovered.client();
                for (key, value) in owners.iter().flat_map(Owner::entries) {
                    tally.score(value, reader.get(key));
                }
                tally.check(
                    recovered.verify(&mut [reader]).all_consistent(),
                    "Store::verify after recovery",
                );
            }
            Err(e) => tally.check(false, &format!("Store::recover: {e}")),
        }
        if let Err(e) = std::fs::remove_dir_all(&dir) {
            eprintln!("benchmark: could not remove {}: {e}", dir.display());
        }
    }
    Finish { tally, recovery }
}
