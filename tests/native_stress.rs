//! Heavier native-thread stress: many trials, high contention, every
//! construction × its tolerated fault environment.

use functional_faults::cas::{
    AlwaysPolicy, CasEnsemble, EveryNthPolicy, FaultyCasArray, ProbabilisticPolicy,
};
use functional_faults::consensus::{
    run_native, CascadeConsensus, Consensus, SilentRetryConsensus, StagedConsensus,
    TwoProcessConsensus,
};
use functional_faults::spec::{Bound, FaultKind, Input, Tolerance};
use functional_faults::store::{
    Backend, FaultConfig, Kv, Store, StoreClient, StoreConfig, StoreError,
};
use std::sync::Arc;
use std::time::Duration;

fn inputs(n: usize) -> Vec<Input> {
    (0..n as u32).map(|i| Input(1000 + i)).collect()
}

#[test]
fn fig1_stress_full_fault_rate() {
    for seed in 0..200 {
        let ensemble = Arc::new(
            FaultyCasArray::builder(1)
                .faulty_first(1)
                .per_object(Bound::Unbounded)
                .policy(ProbabilisticPolicy::new(1.0, seed))
                .record_history(false)
                .build(),
        );
        let protocol: Arc<dyn Consensus> = Arc::new(TwoProcessConsensus::new(ensemble));
        let report = run_native(protocol, &inputs(2), Duration::from_secs(5));
        assert!(report.ok(), "seed {seed}: {:?}", report.verdict.violations);
    }
}

#[test]
fn fig2_stress_every_policy() {
    type EnsembleMaker = Box<dyn Fn(u64) -> Arc<dyn CasEnsemble>>;
    let policies: Vec<(&str, EnsembleMaker)> = vec![
        (
            "always",
            Box::new(|_| {
                Arc::new(
                    FaultyCasArray::builder(4)
                        .faulty_first(3)
                        .per_object(Bound::Unbounded)
                        .policy(AlwaysPolicy)
                        .record_history(false)
                        .build(),
                )
            }),
        ),
        (
            "probabilistic",
            Box::new(|seed| {
                Arc::new(
                    FaultyCasArray::builder(4)
                        .faulty_first(3)
                        .per_object(Bound::Unbounded)
                        .policy(ProbabilisticPolicy::new(0.7, seed))
                        .record_history(false)
                        .build(),
                )
            }),
        ),
        (
            "every-2nd",
            Box::new(|_| {
                Arc::new(
                    FaultyCasArray::builder(4)
                        .faulty_first(3)
                        .per_object(Bound::Unbounded)
                        .policy(EveryNthPolicy::new(2))
                        .record_history(false)
                        .build(),
                )
            }),
        ),
    ];
    for (name, make) in policies {
        for seed in 0..40 {
            let protocol: Arc<dyn Consensus> = Arc::new(CascadeConsensus::new(make(seed), 3));
            let report = run_native(protocol, &inputs(6), Duration::from_secs(10));
            assert!(
                report.ok(),
                "{name} seed {seed}: {:?}",
                report.verdict.violations
            );
        }
    }
}

#[test]
fn fig3_stress_with_tolerance_audit() {
    for seed in 0..60 {
        let (f, t) = (2u64, 2u64);
        let ensemble = Arc::new(
            FaultyCasArray::builder(f as usize)
                .faulty_first(f as usize)
                .per_object(Bound::Finite(t))
                .policy(ProbabilisticPolicy::new(0.5, seed))
                .build(),
        );
        let protocol: Arc<dyn Consensus> =
            Arc::new(StagedConsensus::new(Arc::clone(&ensemble), f, t));
        let report = run_native(protocol, &inputs(f as usize + 1), Duration::from_secs(10));
        assert!(report.ok(), "seed {seed}: {:?}", report.verdict.violations);

        // Audit the recorded history against the declared tolerance.
        let history = ensemble.history();
        assert!(
            history.within(&Tolerance::new(f, t, f + 1)),
            "seed {seed}: execution left tolerance: {} faulty objects, max {} faults",
            history.faulty_object_count(),
            history.max_faults_per_object()
        );
    }
}

#[test]
fn silent_retry_stress() {
    for seed in 0..60 {
        let t = 4u64;
        let ensemble = Arc::new(
            FaultyCasArray::builder(1)
                .kind(FaultKind::Silent)
                .faulty_first(1)
                .per_object(Bound::Finite(t))
                .policy(ProbabilisticPolicy::new(0.6, seed))
                .record_history(false)
                .build(),
        );
        let protocol: Arc<dyn Consensus> = Arc::new(SilentRetryConsensus::new(ensemble, t));
        let report = run_native(protocol, &inputs(4), Duration::from_secs(10));
        assert!(report.ok(), "seed {seed}: {:?}", report.verdict.violations);
    }
}

/// Hammer a multi-shard store from several closed-loop clients and
/// return them for verification.
fn store_workload(store: &Arc<Store>, workers: u32, ops: u32) -> Vec<StoreClient> {
    std::thread::scope(|s| {
        (0..workers)
            .map(|w| {
                let store = Arc::clone(store);
                s.spawn(move || {
                    let mut c = store.client();
                    for i in 0..ops {
                        let key = (w * 7919 + i * 31) % 101;
                        let result = match i % 4 {
                            0 | 1 => c.put(key, w * 10_000 + i),
                            2 => c.get(key),
                            _ => c.del(key),
                        };
                        match result {
                            Ok(_) => {}
                            // The API refusing to answer from a corrupted
                            // shard is correct behavior (naive arm); stop
                            // this worker, verification has the verdict.
                            Err(StoreError::Divergence { .. }) => break,
                            Err(e) => panic!("worker {w}: unexpected error {e}"),
                        }
                    }
                    c
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    })
}

#[test]
fn store_stress_every_tolerated_fault_kind() {
    // Each kind runs within the construction that tolerates it:
    // overriding/arbitrary through the guarded cascade (f + 1 objects),
    // silent through bounded retries (finite t required, E8).
    let cases: [(FaultKind, usize, Bound, f64); 3] = [
        (FaultKind::Overriding, 2, Bound::Unbounded, 0.6),
        (FaultKind::Silent, 1, Bound::Finite(6), 0.6),
        (FaultKind::Arbitrary, 2, Bound::Unbounded, 0.4),
    ];
    for (kind, f, t, rate) in cases {
        for seed in 0..3u64 {
            let store = Arc::new(Store::new(
                StoreConfig::builder()
                    .shards(3)
                    .backend(Backend::robust())
                    .fault(FaultConfig {
                        kind,
                        f,
                        t,
                        rate,
                        ..FaultConfig::default()
                    })
                    .rotate_kinds(false)
                    .checkpoint_interval(16)
                    .seed(0xBEEF + seed)
                    .build()
                    .expect("a tolerated kind within budget is a valid config"),
            ));
            let mut clients = store_workload(&store, 4, 150);
            let report = store.verify(&mut clients);
            assert!(
                report.all_consistent(),
                "{kind:?} seed {seed}: diverged shards {:?}",
                report.diverged_shards()
            );
            // Checkpoints kept every shard's retained log bounded.
            for shard in &report.per_shard {
                assert!(
                    shard.retained_len < 16,
                    "{kind:?} seed {seed} shard {}: retained {} ≥ interval 16",
                    shard.shard,
                    shard.retained_len
                );
                assert!(shard.truncated_prefix > 0);
            }
            // Audit the fault stats against the declared (f, t) budget:
            // faults flowed, every attempt is accounted, and only the
            // declared faulty objects ever faulted.
            let faulty_per_ensemble = if kind == FaultKind::Silent {
                1
            } else {
                f as u64
            };
            for sf in store.shard_faults() {
                assert!(
                    sf.cas_ops > 0,
                    "{kind:?} shard {}: no CAS traffic",
                    sf.shard
                );
                assert!(
                    sf.attempted > 0,
                    "{kind:?} shard {}: rate {rate} attempted nothing",
                    sf.shard
                );
                assert!(
                    sf.observable <= sf.attempted,
                    "{kind:?} shard {}: more observable than attempted",
                    sf.shard
                );
                assert!(
                    sf.faulty_objects <= faulty_per_ensemble,
                    "{kind:?} shard {}: {} objects faulted, budget allows {}",
                    sf.shard,
                    sf.faulty_objects,
                    faulty_per_ensemble
                );
            }
        }
    }
}

#[test]
fn store_stress_naive_backend_eventually_diverges() {
    let mut diverged = false;
    for seed in 0..25u64 {
        let store = Arc::new(Store::new(
            StoreConfig::builder()
                .shards(2)
                .backend(Backend::naive())
                .fault(FaultConfig {
                    rate: 1.0,
                    ..FaultConfig::default()
                })
                .rotate_kinds(false)
                .checkpoint_interval(8)
                .seed(seed)
                .build()
                .expect("naive configs skip tolerability validation"),
        ));
        let mut clients = store_workload(&store, 3, 60);
        if !store.verify(&mut clients).all_consistent() {
            diverged = true;
            break;
        }
    }
    assert!(
        diverged,
        "naive backend survived 25 seeds at 100% fault rate"
    );
}

#[test]
fn stats_and_history_agree_under_contention() {
    let ensemble = Arc::new(
        FaultyCasArray::builder(3)
            .faulty_first(2)
            .per_object(Bound::Finite(5))
            .policy(AlwaysPolicy)
            .build(),
    );
    std::thread::scope(|s| {
        for i in 0..6u64 {
            let e = Arc::clone(&ensemble);
            s.spawn(move || {
                for j in 0..50u64 {
                    let _ = e.cas(
                        functional_faults::spec::ObjectId((j % 3) as usize),
                        functional_faults::spec::BOTTOM,
                        1_000_000 + i * 100 + j,
                    );
                }
            });
        }
    });
    let history = ensemble.history();
    let stats = ensemble.stats();
    // Both accountings see the same per-object fault counts.
    let history_counts = history.fault_counts_per_object();
    for (obj, stat) in stats.all().iter().enumerate() {
        let from_history = history_counts
            .get(&functional_faults::spec::ObjectId(obj))
            .copied()
            .unwrap_or(0);
        assert_eq!(
            stat.observable_faults, from_history,
            "object {obj}: stats vs history mismatch"
        );
        assert!(stat.observable_faults <= 5, "budget exceeded on {obj}");
    }
    assert_eq!(
        history.len() as u64,
        stats.all().iter().map(|s| s.ops).sum::<u64>()
    );
}
