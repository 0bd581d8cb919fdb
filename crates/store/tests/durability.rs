//! End-to-end durability and crash-recovery tests for the store's
//! write-ahead log: kill/recover round trips, the
//! crash-at-every-fsync-boundary sweep, and torn-write robustness
//! (recovery must never panic on arbitrary truncations or byte flips —
//! it replays a valid prefix or returns a typed `RecoverError`). The
//! gated-media tests hold one shard's sync or rotation at a gate and
//! check what the rest of the store may do meanwhile; the failing-media
//! tests drive every arm of the error latch.

use ff_store::wal::{scan, shard_file, WalEntry};
use ff_store::{
    Backend, ConfigError, FaultConfig, Kv, ProcessFault, RecoverError, Store, StoreConfig,
    WalIoError, WalMedia,
};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A unique temp dir per test (removed at the end of each test body).
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ff-durability-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_config(dir: &std::path::Path, backend: Backend) -> StoreConfig {
    StoreConfig::builder()
        .shards(2)
        .backend(backend.clone())
        .fault_rate(if backend == Backend::robust() {
            0.2
        } else {
            0.0
        })
        .checkpoint_interval(8)
        .data_dir(dir)
        .group_commit(4)
        .rotate_cost(0)
        .build()
        .unwrap()
}

#[test]
fn write_kill_recover_round_trip_under_faults() {
    let dir = temp_dir("round-trip");
    let config = durable_config(&dir, Backend::robust());

    let store = Store::new(config.clone());
    let mut c = store.client();
    for k in 0..200u32 {
        c.put(k % 64, k + 1000).unwrap();
    }
    assert!(store.durability_error().is_none());
    store.flush_wal();
    // Model of the final state: last write wins per key.
    let mut model = std::collections::HashMap::new();
    for k in 0..200u32 {
        model.insert(k % 64, k + 1000);
    }
    drop(c);
    drop(store); // the crash: all volatile state gone, the dir survives

    let (recovered, report) = Store::recover(config).expect("recovery");
    assert!(
        report.checkpoints_loaded() > 0,
        "200 ops over interval 8 must have rotated at least one checkpoint: {}",
        report.render()
    );
    let mut c = recovered.client();
    for (k, v) in &model {
        assert_eq!(c.get(*k).unwrap(), Some(*v), "key {k} after recovery");
    }
    // The recovered store keeps working — and verifies — like a fresh
    // one.
    for k in 0..32u32 {
        c.put(k, k + 5000).unwrap();
    }
    assert_eq!(c.get(3).unwrap(), Some(5003));
    assert!(recovered.verify(&mut [c]).all_consistent());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The 2²²-appends bug: the cores' one pid mints every opid of a
/// shard, so a long-lived shard exhausts the 22-bit sequence space.
/// Start a store a few mints short of the limit (a hand-written WAL
/// whose one record carries sequence number 2²² − 4), run it across the
/// wrap for many checkpoint intervals, and recover the WAL that wrapped.
#[test]
fn opid_sequence_wraps_across_checkpoints_and_recovery() {
    let dir = temp_dir("seq-wrap");
    let mut config = durable_config(&dir, Backend::robust());
    config.shards = 1;

    // Slot 0, proposed by the shard core's pid 0 at seq 2²² − 4; the
    // digest is the log's rolling FNV-1a over that one opid.
    let opid: u32 = (1 << 22) - 4;
    let digest = opid
        .to_le_bytes()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |d, b| {
            (d ^ *b as u64).wrapping_mul(0x100_0000_01b3)
        });
    let record = ff_universal::SlotRecord::Single(ff_store::KvMap::put_op(1, 11));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join(ff_store::wal::shard_file(0)),
        ff_store::wal::encode_slot(0, opid, digest, &record),
    )
    .unwrap();

    let mut model = std::collections::HashMap::from([(1u32, 11u32)]);
    let (store, report) = Store::recover(config.clone()).expect("seeded WAL recovers");
    assert_eq!(report.records_replayed(), 1);
    let mut c = store.client();
    // 3 mints to the wrap; 20 checkpoint intervals beyond it.
    for i in 0..160u32 {
        let (k, v) = (i % 24, i + 100);
        assert_eq!(c.put(k, v).unwrap(), model.insert(k, v), "put {i}");
    }
    let ends_at = store.shard_log(0).slots_created();
    assert!(store.verify(&mut [c]).all_consistent());
    assert!(store.durability_error().is_none());
    store.flush_wal();
    drop(store);

    // The file now holds a checkpoint plus a tail whose opids restarted
    // near 0: replay must resume minting after the *last* of them.
    let (recovered, report) = Store::recover(config).expect("a wrapped WAL recovers");
    assert!(report.checkpoints_loaded() > 0, "{}", report.render());
    assert_eq!(recovered.shard_log(0).slots_created(), ends_at);
    let mut c = recovered.client();
    for (k, v) in &model {
        assert_eq!(c.get(*k).unwrap(), Some(*v), "key {k} after recovery");
    }
    for i in 0..40u32 {
        let (k, v) = (i % 24, i + 9000);
        assert_eq!(c.put(k, v).unwrap(), model.insert(k, v));
    }
    assert!(recovered.verify(&mut [c]).all_consistent());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The crash-at-every-fsync-boundary sweep: snapshot the WAL after
/// every single durable op, then recover each snapshot and demand
/// **exactly** the corresponding prefix of the history — nothing lost
/// below the fsync line, nothing invented above it.
#[test]
fn crash_at_every_fsync_boundary_recovers_exact_prefix() {
    let dir = temp_dir("fsync-sweep");
    let config = StoreConfig::builder()
        .shards(1)
        .backend(Backend::reliable())
        .checkpoint_interval(4)
        .data_dir(&dir)
        .group_commit(1) // fsync boundary after every op
        .rotate_cost(0)
        .build()
        .unwrap();

    const OPS: u32 = 30;
    let wal_path = dir.join("shard-0.wal");
    let mut images: Vec<Vec<u8>> = Vec::new();
    {
        let store = Store::new(config.clone());
        let mut c = store.client();
        for k in 0..OPS {
            c.put(k, k + 100).unwrap();
            store.flush_wal();
            images.push(std::fs::read(&wal_path).unwrap());
        }
    }

    for (i, image) in images.iter().enumerate() {
        std::fs::write(&wal_path, image).unwrap();
        let (store, report) = Store::recover(config.clone())
            .unwrap_or_else(|e| panic!("recovery failed at boundary {i}: {e}"));
        assert!(
            report.torn_tails() == 0,
            "clean fsync boundary {i} reported a torn tail"
        );
        let mut c = store.client();
        for k in 0..OPS {
            let want = (k as usize <= i).then_some(k + 100);
            assert_eq!(c.get(k).unwrap(), want, "key {k} at boundary {i}");
        }
        assert!(store.verify(&mut [c]).all_consistent());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Torn-write robustness: truncating the WAL at **every byte offset**
/// must never panic recovery — it recovers a valid prefix and verifies.
#[test]
fn truncation_at_every_byte_never_panics_recovery() {
    let dir = temp_dir("truncate-sweep");
    let config = StoreConfig::builder()
        .shards(1)
        .backend(Backend::reliable())
        .checkpoint_interval(4)
        .data_dir(&dir)
        .group_commit(1)
        .rotate_cost(0)
        .build()
        .unwrap();

    let wal_path = dir.join("shard-0.wal");
    {
        let store = Store::new(config.clone());
        let mut c = store.client();
        for k in 0..24u32 {
            c.put(k, k + 100).unwrap();
        }
        store.flush_wal();
    }
    let full = std::fs::read(&wal_path).unwrap();

    for cut in 0..=full.len() {
        std::fs::write(&wal_path, &full[..cut]).unwrap();
        let (store, report) = Store::recover(config.clone())
            .unwrap_or_else(|e| panic!("recovery failed at cut {cut}: {e}"));
        if cut < full.len() {
            // A mid-record cut is a torn tail; a record-boundary cut is
            // clean — either way the prefix must verify.
            let clean = report.shards[0].torn_bytes == 0 && report.shards[0].corrupt.is_none();
            assert!(clean || report.torn_tails() == 1);
        }
        let mut c = store.client();
        let _ = c.get(0).unwrap();
        assert!(store.verify(&mut [c]).all_consistent(), "cut {cut}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Flipping any byte of the WAL must never panic recovery either: the
/// checksum ends the valid prefix at the mutated record.
#[test]
fn byte_flips_never_panic_recovery() {
    let dir = temp_dir("flip-sweep");
    let config = StoreConfig::builder()
        .shards(1)
        .backend(Backend::reliable())
        .checkpoint_interval(64) // no rotation: one long record run
        .data_dir(&dir)
        .group_commit(1)
        .build()
        .unwrap();

    let wal_path = dir.join("shard-0.wal");
    {
        let store = Store::new(config.clone());
        let mut c = store.client();
        for k in 0..20u32 {
            c.put(k, k + 100).unwrap();
        }
        store.flush_wal();
    }
    let full = std::fs::read(&wal_path).unwrap();

    for at in (0..full.len()).step_by(3) {
        let mut mutated = full.clone();
        mutated[at] ^= 0x41;
        std::fs::write(&wal_path, &mutated).unwrap();
        match Store::recover(config.clone()) {
            Ok((store, _)) => {
                let mut c = store.client();
                // Whatever prefix survived, reads answer and the store
                // verifies — wrong data is never served silently.
                for k in 0..20u32 {
                    let got = c.get(k).unwrap();
                    assert!(got.is_none() || got == Some(k + 100), "key {k} flip {at}");
                }
                assert!(store.verify(&mut [c]).all_consistent(), "flip {at}");
            }
            Err(e) => {
                // A typed refusal is also acceptable — but only the
                // divergence kind (a flip cannot cause I/O errors).
                assert!(
                    matches!(e, RecoverError::ReplayDivergence { .. }),
                    "unexpected error at flip {at}: {e}"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Replaying recorded history through the naive backend under full
/// fault injection mutates re-ingested decisions; recovery must refuse
/// with a typed divergence error, never serve the corrupted state.
#[test]
fn naive_backend_replay_divergence_is_refused() {
    let dir = temp_dir("naive-replay");
    let write_config = StoreConfig::builder()
        .shards(1)
        .backend(Backend::naive())
        // Arbitrary faults return garbage words, which the naive cell
        // adopts as decisions. Rate 0 while writing a clean history...
        .fault(FaultConfig {
            kind: ff_spec::FaultKind::Arbitrary,
            rate: 0.0,
            ..FaultConfig::default()
        })
        .checkpoint_interval(1024) // ...kept entirely in the tail
        .data_dir(&dir)
        .build()
        .unwrap();
    {
        let store = Store::new(write_config.clone());
        let mut c = store.client();
        for k in 0..40u32 {
            c.put(k, k).unwrap();
        }
        store.flush_wal();
    }
    let mut recover_config = write_config;
    recover_config.fault.rate = 1.0; // ...replayed through lying cells
    match Store::recover(recover_config) {
        Err(RecoverError::ReplayDivergence { shard: 0, .. }) => {}
        Err(other) => panic!("expected replay divergence, got {other}"),
        Ok(_) => panic!("naive replay under full faults must not recover cleanly"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_recover_taxonomy_requires_durability() {
    let err = StoreConfig::builder()
        .fault(FaultConfig {
            process: ProcessFault::CrashRecover,
            ..FaultConfig::default()
        })
        .build();
    assert_eq!(err, Err(ConfigError::CrashRecoverNeedsDurability));

    let dir = temp_dir("taxonomy");
    let ok = StoreConfig::builder()
        .fault(FaultConfig {
            process: ProcessFault::CrashRecover,
            ..FaultConfig::default()
        })
        .data_dir(&dir)
        .build();
    assert!(ok.is_ok());
    assert_eq!(
        StoreConfig::builder()
            .data_dir(&dir)
            .group_commit(0)
            .build(),
        Err(ConfigError::ZeroGroupCommit)
    );
}

/// A media with a countdown per operation: the call that finds its
/// countdown at zero fails, and so does every call after it — so the
/// number of failures handed out is 1 exactly when the store made no
/// media call past the first error. The fsync/open/rename failure path:
/// the store latches the error, surfaces it through `durability_error`,
/// and never panics.
struct FailingMedia {
    inner: ff_store::FsMedia,
    appends_left: AtomicU64,
    syncs_left: AtomicU64,
    replaces_left: AtomicU64,
    /// Failures handed out so far (each is numbered in its `detail`).
    failures: AtomicU64,
}

impl FailingMedia {
    /// A media over `dir` that never fails; set the countdowns with
    /// struct-update syntax.
    fn over(dir: &std::path::Path) -> Self {
        FailingMedia {
            inner: ff_store::FsMedia::open(dir).unwrap(),
            appends_left: AtomicU64::new(u64::MAX),
            syncs_left: AtomicU64::new(u64::MAX),
            replaces_left: AtomicU64::new(u64::MAX),
            failures: AtomicU64::new(0),
        }
    }

    fn tick(&self, left: &AtomicU64, op: &'static str, name: &str) -> Result<(), WalIoError> {
        let spent = |n: u64| n.checked_sub(1);
        if self.failures.load(Ordering::SeqCst) > 0
            || left
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, spent)
                .is_err()
        {
            let nth = self.failures.fetch_add(1, Ordering::SeqCst) + 1;
            return Err(WalIoError {
                op,
                path: name.to_string(),
                detail: format!("injected disk failure #{nth}"),
            });
        }
        Ok(())
    }
}

impl WalMedia for FailingMedia {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, WalIoError> {
        self.inner.read(name)
    }
    fn append(&self, name: &str, bytes: &[u8]) -> Result<(), WalIoError> {
        self.tick(&self.appends_left, "append", name)?;
        self.inner.append(name, bytes)
    }
    fn sync(&self, name: &str) -> Result<(), WalIoError> {
        self.tick(&self.syncs_left, "fsync", name)?;
        self.inner.sync(name)
    }
    fn replace(&self, name: &str, contents: &[u8]) -> Result<(), WalIoError> {
        self.tick(&self.replaces_left, "rename", name)?;
        self.inner.replace(name, contents)
    }
}

#[test]
fn wal_io_failure_is_latched_and_surfaced() {
    let dir = temp_dir("io-failure");
    let config = StoreConfig::builder()
        .shards(1)
        .backend(Backend::reliable())
        .data_dir(&dir)
        .group_commit(1)
        .build()
        .unwrap();
    let media = Arc::new(FailingMedia {
        appends_left: AtomicU64::new(10),
        ..FailingMedia::over(&dir)
    });
    let store = Store::new_with_media(config, media).unwrap();
    let mut c = store.client();
    for k in 0..40u32 {
        c.put(k, k).unwrap(); // in-memory operation keeps working
    }
    let err = store
        .durability_error()
        .expect("the injected failure must surface");
    assert_eq!(err.op, "append");
    assert!(err.detail.contains("injected disk failure"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// How long any wait in the tests below may take before the test fails
/// instead of hanging.
const TIMEOUT: Duration = Duration::from_secs(20);

/// The latch, driven from two client threads on one shard: the media
/// fails `op` for good from some call on. Puts keep answering from
/// memory, the *first* error is the one reported, the store makes no
/// media call past it, and `flush_wal` and the store's drop return —
/// the committer that hit the error let go of the I/O lock.
fn latch_survives(
    tag: &str,
    op: &'static str,
    media: impl FnOnce(&std::path::Path) -> FailingMedia,
) {
    let dir = temp_dir(tag);
    let config = StoreConfig::builder()
        .shards(1)
        .backend(Backend::reliable())
        .checkpoint_interval(8)
        .data_dir(&dir)
        .group_commit(4)
        .rotate_cost(0)
        .build()
        .unwrap();
    let media = Arc::new(media(&dir));
    let store = Store::new_with_media(config, Arc::clone(&media) as Arc<dyn WalMedia>).unwrap();
    std::thread::scope(|scope| {
        for w in 0..2u32 {
            let store = &store;
            scope.spawn(move || {
                let mut c = store.client();
                let mut model = HashMap::new();
                for i in 0..400u32 {
                    let (k, v) = (w * 16 + i % 16, i);
                    assert_eq!(c.put(k, v).unwrap(), model.insert(k, v), "put {i}");
                }
            });
        }
    });
    let err = store
        .durability_error()
        .expect("the injected failure must surface");
    assert_eq!(err.op, op);
    assert!(
        err.detail.ends_with("#1"),
        "a later failure overwrote the first: {err}"
    );
    // Shut down on a thread of its own, so a leaked I/O lock fails the
    // test instead of hanging it.
    let (done, finished) = std::sync::mpsc::channel();
    let shutdown = {
        let media = Arc::clone(&media);
        std::thread::spawn(move || {
            store.flush_wal();
            let mut c = store.client();
            // Worker 0's last put to key 3 was i = 387.
            assert_eq!(c.get(3).unwrap(), Some(387), "memory still answers");
            let first = store.durability_error().expect("the latch holds");
            drop(c);
            drop(store);
            done.send((first, media.failures.load(Ordering::SeqCst)))
                .unwrap();
        })
    };
    let (first, failures) = finished
        .recv_timeout(TIMEOUT)
        .expect("flush_wal or dropping the store hung after a latched error");
    shutdown.join().unwrap();
    assert_eq!(first, err, "the latched error changed");
    assert_eq!(failures, 1, "the store called the media after the latch");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_failed_sync_latches_once_and_frees_the_io_lock() {
    latch_survives("sync-failure", "fsync", |dir| FailingMedia {
        syncs_left: AtomicU64::new(5),
        ..FailingMedia::over(dir)
    });
}

#[test]
fn a_failed_rotation_latches_once_and_frees_the_io_lock() {
    latch_survives("replace-failure", "rename", |dir| FailingMedia {
        // The store's own truncating `replace` at open, two rotations,
        // then the failure.
        replaces_left: AtomicU64::new(3),
        ..FailingMedia::over(dir)
    });
}

/// The media calls a [`GatedMedia`] can hold.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Held {
    Sync,
    Replace,
}

#[derive(Default)]
struct GateState {
    /// Hold the next call of this kind on this file.
    armed: Option<(Held, String)>,
    /// A call is waiting at the gate.
    holding: bool,
    open: bool,
    /// A held call gave up waiting: the test failed to open the gate.
    gave_up: bool,
    syncs: u64,
    replaces: u64,
    /// Per file, one past the last slot handed to `append`/`replace`,
    /// and the same once a `sync`/`replace` has returned. A fresh store
    /// logs every slot from 0, so the latter is the number of decided
    /// records the media holds durably.
    appended: HashMap<String, usize>,
    synced: HashMap<String, usize>,
}

/// `FsMedia` with one call parked at a gate the test opens, and a count
/// of what has been made durable.
struct GatedMedia {
    inner: ff_store::FsMedia,
    state: Mutex<GateState>,
    changed: Condvar,
}

/// One past the last slot `bytes` (whole frames) covers.
fn frontier(bytes: &[u8]) -> Option<usize> {
    let scanned = scan(bytes);
    assert!(scanned.corrupt.is_none(), "the store wrote a bad frame");
    scanned.entries.last().map(|e| match e {
        WalEntry::Slot { slot, .. } => slot + 1,
        WalEntry::Checkpoint { slot, .. } => *slot,
    })
}

impl GatedMedia {
    fn over(dir: &std::path::Path) -> Self {
        GatedMedia {
            inner: ff_store::FsMedia::open(dir).unwrap(),
            state: Mutex::new(GateState::default()),
            changed: Condvar::new(),
        }
    }

    fn arm(&self, held: Held, name: &str) {
        self.state.lock().unwrap().armed = Some((held, name.to_string()));
    }

    fn open(&self) {
        self.state.lock().unwrap().open = true;
        self.changed.notify_all();
    }

    /// Wait (bounded) until the armed call has arrived at the gate.
    fn wait_holding(&self) -> bool {
        let state = self.state.lock().unwrap();
        let (state, _) = self
            .changed
            .wait_timeout_while(state, TIMEOUT, |s| !s.holding)
            .unwrap();
        state.holding
    }

    fn synced(&self, name: &str) -> usize {
        self.state
            .lock()
            .unwrap()
            .synced
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// `sync` plus `replace` calls seen so far.
    fn fsyncs(&self) -> u64 {
        let state = self.state.lock().unwrap();
        state.syncs + state.replaces
    }

    /// Park here if this is the armed call, until the gate opens.
    fn pass(&self, held: Held, name: &str) {
        let mut state = self.state.lock().unwrap();
        if state.armed.as_ref() == Some(&(held, name.to_string())) {
            state.armed = None;
            state.holding = true;
            self.changed.notify_all();
            let (mut state, _) = self
                .changed
                .wait_timeout_while(state, 3 * TIMEOUT, |s| !s.open)
                .unwrap();
            state.gave_up = !state.open;
        }
    }
}

impl WalMedia for GatedMedia {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, WalIoError> {
        self.inner.read(name)
    }
    fn append(&self, name: &str, bytes: &[u8]) -> Result<(), WalIoError> {
        self.inner.append(name, bytes)?;
        if let Some(end) = frontier(bytes) {
            let mut state = self.state.lock().unwrap();
            state.appended.insert(name.to_string(), end);
        }
        Ok(())
    }
    fn sync(&self, name: &str) -> Result<(), WalIoError> {
        self.pass(Held::Sync, name);
        self.inner.sync(name)?;
        let mut state = self.state.lock().unwrap();
        state.syncs += 1;
        if let Some(end) = state.appended.get(name).copied() {
            state.synced.insert(name.to_string(), end);
        }
        Ok(())
    }
    fn replace(&self, name: &str, contents: &[u8]) -> Result<(), WalIoError> {
        self.pass(Held::Replace, name);
        self.inner.replace(name, contents)?;
        let mut state = self.state.lock().unwrap();
        state.replaces += 1;
        let end = frontier(contents).unwrap_or(0);
        state.appended.insert(name.to_string(), end);
        state.synced.insert(name.to_string(), end);
        Ok(())
    }
}

/// Poll `cond` until it holds; on timeout open the gate (so every
/// parked thread can finish and the scope can join) and fail.
fn expect_within(media: &GatedMedia, what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + TIMEOUT;
    while !cond() {
        if Instant::now() > deadline {
            media.open();
            panic!("timed out waiting for {what}");
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Hold shard 0's `held` call at a gate and check what the store does
/// meanwhile. Writer A puts until its pass runs into the gate (the put
/// that fills the first batch, or that crosses the first checkpoint
/// boundary); with A parked *inside the media*, client B reads what A
/// wrote from the snapshot path and then puts to the same shard until
/// the 2 x `group_commit` tail bound stops it; a flush started then
/// must wait for the gate too. Once the gate opens everything drains,
/// and the files, the counters and a recovery are checked against the
/// model.
fn progress_while_held(tag: &str, held: Held, group_commit: usize, interval: usize) {
    let dir = temp_dir(tag);
    let config = StoreConfig::builder()
        .shards(2)
        .backend(Backend::reliable())
        .checkpoint_interval(interval)
        .data_dir(&dir)
        .group_commit(group_commit)
        .rotate_cost(match held {
            Held::Sync => 256 * 1024,
            Held::Replace => 0,
        })
        .build()
        .unwrap();
    let media = Arc::new(GatedMedia::over(&dir));
    let store =
        Store::new_with_media(config.clone(), Arc::clone(&media) as Arc<dyn WalMedia>).unwrap();
    let fsyncs_at_open = media.fsyncs();
    let file = shard_file(0);
    // 24 keys that route to the gated shard, and a few that do not.
    let keys: Vec<u32> = (0..).filter(|k| store.shard_of(*k) == 0).take(24).collect();
    let elsewhere: Vec<u32> = (0..).filter(|k| store.shard_of(*k) == 1).take(5).collect();
    let mut model = HashMap::new();
    let mut main_client = store.client();
    for &k in &elsewhere {
        assert_eq!(main_client.put(k, k + 7).unwrap(), model.insert(k, k + 7));
    }

    let a_puts = match held {
        Held::Sync => group_commit,
        Held::Replace => interval,
    };
    // B tries to go well past the bound; the gate decides how far it gets.
    let b_puts = 2 * group_commit + 50;
    for i in 0..a_puts {
        model.insert(keys[i % keys.len()], i as u32);
    }
    let a_wrote = model.clone();
    for i in 0..b_puts {
        model.insert(keys[i % keys.len()], 100_000 + i as u32);
    }
    let (acked_a, acked_b, b_read) = (
        AtomicUsize::new(0),
        AtomicUsize::new(0),
        AtomicUsize::new(0),
    );
    let max_tail = AtomicUsize::new(0);
    let flushed_at = AtomicUsize::new(usize::MAX);
    media.arm(held, &file);
    std::thread::scope(|scope| {
        let (store, media, keys, file, a_wrote) = (&store, &*media, &keys, &file, &a_wrote);
        let (acked_a, acked_b, b_read, max_tail, flushed_at) =
            (&acked_a, &acked_b, &b_read, &max_tail, &flushed_at);
        scope.spawn(move || {
            let mut a = store.client();
            for i in 0..a_puts {
                a.put(keys[i % keys.len()], i as u32).unwrap();
                acked_a.fetch_add(1, Ordering::SeqCst);
            }
        });
        if !media.wait_holding() {
            media.open();
            panic!("writer A never reached the gated {held:?}");
        }
        // A is parked in the media having acknowledged all but its last
        // put, and nothing is durable yet beyond what ran before it.
        assert_eq!(acked_a.load(Ordering::SeqCst), a_puts - 1);
        let durable_at_hold = media.synced(file);
        scope.spawn(move || {
            let mut b = store.client();
            // Reads of the held shard are snapshot hits, and see A's
            // last put (applied, not yet acknowledged): A let go of
            // the replica before it went to the disk.
            let hits = store.combine_snapshot().unwrap().fastpath_hits;
            for k in keys {
                assert_eq!(b.get(*k).unwrap(), a_wrote.get(k).copied(), "key {k}");
            }
            let hits = store.combine_snapshot().unwrap().fastpath_hits - hits;
            b_read.store(hits as usize, Ordering::SeqCst);
            for i in 0..b_puts {
                b.put(keys[i % keys.len()], 100_000 + i as u32).unwrap();
                let acked =
                    acked_a.load(Ordering::SeqCst) + acked_b.fetch_add(1, Ordering::SeqCst) + 1;
                max_tail.fetch_max(acked.saturating_sub(media.synced(file)), Ordering::SeqCst);
            }
        });
        // B runs until pending = 2 x group_commit: A's unacknowledged
        // put and B's own blocked one are both in that count.
        let b_free = 2 * group_commit + durable_at_hold - a_puts - 1;
        assert!(b_free < b_puts);
        expect_within(media, "client B to make progress on the held shard", || {
            acked_b.load(Ordering::SeqCst) >= b_free
        });
        assert_eq!(
            b_read.load(Ordering::SeqCst),
            keys.len(),
            "a GET on the held shard left the snapshot path"
        );
        // A flush started now has to wait out the commit in flight...
        let sunk_before_flush = a_puts + acked_b.load(Ordering::SeqCst);
        scope.spawn(move || {
            store.flush_wal();
            flushed_at.store(media.synced(file), Ordering::SeqCst);
        });
        // ...and B has to stay parked at the bound: give both a moment
        // to get it wrong before looking.
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(
            acked_b.load(Ordering::SeqCst),
            b_free,
            "client B ran past the 2 x group_commit tail bound"
        );
        assert_eq!(
            flushed_at.load(Ordering::SeqCst),
            usize::MAX,
            "flush_wal overtook a held commit"
        );
        assert_eq!(media.synced(file), durable_at_hold);
        media.open();
        expect_within(media, "flush_wal to return once the gate opened", || {
            flushed_at.load(Ordering::SeqCst) != usize::MAX
        });
        assert!(
            flushed_at.load(Ordering::SeqCst) >= sunk_before_flush,
            "flush_wal returned with records sunk before it still volatile"
        );
    });
    assert_eq!(acked_a.load(Ordering::SeqCst), a_puts);
    assert_eq!(acked_b.load(Ordering::SeqCst), b_puts);
    let max_tail = max_tail.load(Ordering::SeqCst);
    assert!(
        max_tail <= 2 * group_commit,
        "{max_tail} acknowledged puts were volatile at once (group commit {group_commit})"
    );
    assert!(
        !media.state.lock().unwrap().gave_up,
        "the gate was never opened"
    );

    store.flush_wal();
    assert!(store.durability_error().is_none());
    assert_eq!(
        store.durability_snapshot().unwrap().fsyncs,
        media.fsyncs() - fsyncs_at_open,
        "the fsync counter and the media disagree"
    );
    assert_eq!(media.synced(&file), a_puts + b_puts);
    // Every file: clean, a checkpoint only at its head, and strictly
    // consecutive slots after it up to the shard's last.
    for s in 0..2 {
        let bytes = std::fs::read(dir.join(shard_file(s))).unwrap();
        let scanned = scan(&bytes);
        assert!(
            scanned.corrupt.is_none(),
            "shard {s}: {:?}",
            scanned.corrupt
        );
        let mut next = 0;
        for (i, entry) in scanned.entries.iter().enumerate() {
            match entry {
                WalEntry::Checkpoint { slot, .. } => {
                    assert_eq!(i, 0, "shard {s}: a checkpoint past the head of the file");
                    next = *slot;
                }
                WalEntry::Slot { slot, .. } => {
                    assert_eq!(*slot, next, "shard {s}: a gap or a repeat in the file");
                    next += 1;
                }
            }
        }
        assert_eq!(
            next,
            store.shard_log(s).slots_created(),
            "shard {s}: tail missing"
        );
        if held == Held::Replace && s == 0 {
            assert!(
                matches!(scanned.entries[0], WalEntry::Checkpoint { .. }),
                "the held rotation never reached the file"
            );
        }
    }
    drop(main_client);
    drop(store);

    let (recovered, _) = Store::recover(config).expect("recovery");
    let mut c = recovered.client();
    for (k, v) in &model {
        assert_eq!(c.get(*k).unwrap(), Some(*v), "key {k} after recovery");
    }
    assert!(recovered.verify(&mut [c]).all_consistent());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_held_sync_blocks_nobody_below_the_tail_bound() {
    // A's 1,024th put starts the sync; B gets 1,023 puts in behind it.
    progress_while_held("held-sync", Held::Sync, 1024, 64);
}

#[test]
fn a_held_rotation_blocks_nobody_below_the_tail_bound() {
    // A's 8th put rotates; B gets 2,039 puts in, stashing a newer
    // rotation every 8 that supersedes the one before.
    progress_while_held("held-replace", Held::Replace, 1024, 8);
}

#[test]
fn a_batch_that_fills_behind_a_held_rotation_lands_after_it() {
    // A's 8th put syncs, its 16th rotates and is held; B fills exactly
    // one more batch (slots 16..24, no boundary) behind the `replace`.
    // The committer must write the image, then append that batch to the
    // renamed-in file — through a fresh handle, at the offsets the
    // rotation's prefix drop left.
    progress_while_held("held-replace-batch", Held::Replace, 8, 16);
}
