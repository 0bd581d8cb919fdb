//! Fault-stream invariance: the per-slot hot path may be rebuilt, but
//! what it *does* must not shift — the same cells get the same salts,
//! every CAS keeps its per-object operation index, checkpoints land on
//! the same slots and the decided-opid digests stay bit-identical. The
//! DST goldens depend on exactly these streams.
//!
//! The constants below were recorded at the commit before the
//! allocation-light rebuild (PR 12's parent) and must only change with
//! a deliberate change to the injection path.

use ff_store::{Backend, Kv, Store, StoreConfig};

/// Per shard: `(kind, cas_ops, attempted, observable, slots_created,
/// checkpoints_installed, last boundary slot, last boundary digest)`.
type ShardPin = (&'static str, u64, u64, u64, usize, u64, usize, u64);

const PINNED: [ShardPin; 4] = [
    (
        "overriding",
        99_090,
        0,
        0,
        48_783,
        762,
        48_768,
        5969995085702237477,
    ),
    (
        "silent",
        114_397,
        12_721,
        12_721,
        50_056,
        782,
        50_048,
        8868512920546940965,
    ),
    (
        "arbitrary",
        102_264,
        10_102,
        10_102,
        50_346,
        786,
        50_304,
        13635895934677879333,
    ),
    (
        "overriding",
        103_216,
        0,
        0,
        50_815,
        793,
        50_752,
        14069572163379836453,
    ),
];

#[test]
fn seeded_single_threaded_run_reproduces_the_pinned_fault_stream() {
    let store = Store::new(
        StoreConfig::builder()
            .shards(4)
            .backend(Backend::robust())
            .fault_rate(0.2)
            .rotate_kinds(true)
            .checkpoint_interval(64)
            .seed(0xF00D)
            .build()
            .unwrap(),
    );
    let mut client = store.client();
    for i in 0..200_000u32 {
        let key = i.wrapping_mul(2_654_435_761) % 4096;
        if i % 3 == 2 {
            client.del(key).unwrap();
        } else {
            client.put(key, i).unwrap();
        }
    }
    let faults = store.shard_faults();
    let got: Vec<ShardPin> = (0..store.shards())
        .map(|s| {
            let log = store.shard_log(s);
            let (slot, digest) = *log
                .boundary_digest_view()
                .last()
                .expect("every shard crossed a checkpoint boundary");
            (
                store.fault_kind_label(s),
                faults[s].cas_ops,
                faults[s].attempted,
                faults[s].observable,
                log.slots_created(),
                log.checkpoints_installed(),
                slot,
                digest,
            )
        })
        .collect();
    assert_eq!(got, PINNED, "the injected fault stream shifted");
    assert!(store.verify(&mut [client]).all_consistent());
}
