//! End-to-end durability and crash-recovery tests for the store's
//! write-ahead log: kill/recover round trips, the
//! crash-at-every-fsync-boundary sweep, and torn-write robustness
//! (recovery must never panic on arbitrary truncations or byte flips —
//! it replays a valid prefix or returns a typed `RecoverError`).

use ff_store::{
    Backend, ConfigError, FaultConfig, Kv, ProcessFault, RecoverError, Store, StoreConfig,
    WalIoError, WalMedia,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

/// A media that starts failing after a set number of appends — the
/// fsync/open/rename failure path: the store latches the error,
/// surfaces it through `durability_error`, and never panics.
struct FailingMedia {
    inner: ff_store::FsMedia,
    appends_left: AtomicU64,
}

impl WalMedia for FailingMedia {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, WalIoError> {
        self.inner.read(name)
    }
    fn append(&self, name: &str, bytes: &[u8]) -> Result<(), WalIoError> {
        if self.appends_left.fetch_sub(1, Ordering::Relaxed) == 0 {
            return Err(WalIoError {
                op: "append",
                path: name.to_string(),
                detail: "injected disk failure".to_string(),
            });
        }
        self.inner.append(name, bytes)
    }
    fn sync(&self, name: &str) -> Result<(), WalIoError> {
        self.inner.sync(name)
    }
    fn replace(&self, name: &str, contents: &[u8]) -> Result<(), WalIoError> {
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
        inner: ff_store::FsMedia::open(&dir).unwrap(),
        appends_left: AtomicU64::new(10),
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
