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
    Backend, FaultConfig, Kv, KvMap, Store, StoreClient, StoreConfig, StoreError,
};
use functional_faults::universal::{digests_consistent, log_windows_consistent, Handle};
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
            let faults = store.shard_faults();
            // Combining serialises proposes, and an overriding fault on
            // a matching CAS is refunded as indistinguishable, so that
            // kind is only attempted where verify's observer re-decides
            // a retained cell — none on a shard whose tail sits on a
            // checkpoint boundary. It is held store-wide here and per
            // shard under racing proposers, in the robust twin below.
            let attempted_somewhere = faults.iter().any(|sf| sf.attempted > 0);
            for sf in faults {
                assert!(
                    sf.cas_ops > 0,
                    "{kind:?} shard {}: no CAS traffic",
                    sf.shard
                );
                assert!(
                    if kind == FaultKind::Overriding {
                        attempted_somewhere
                    } else {
                        sf.attempted > 0
                    },
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

/// Race `threads` raw replica handles per shard over the store's own
/// logs and report whether every replica agrees afterwards. Store
/// clients cannot give this coverage: combining serialises every
/// propose through one core replica, and an overriding fault is only
/// observable when proposers race (Definition 1). This helper is the
/// one uncombined executor left, and it lives here, in test code.
fn racing_handles_agree(store: &Store, threads: u16, ops: u32) -> bool {
    // Pid 0 is the shard cores', 1023 the verification observer's.
    let mut replicas: Vec<Vec<Handle<KvMap>>> = std::thread::scope(|scope| {
        (1..=threads)
            .map(|pid| {
                scope.spawn(move || {
                    let mut handles: Vec<Handle<KvMap>> = (0..store.shards())
                        .map(|s| Handle::new(Arc::clone(store.shard_log(s)), pid, KvMap::default()))
                        .collect();
                    for i in 0..ops {
                        let key = (u32::from(pid) * 7919 + i * 31) % 101;
                        let h = &mut handles[store.shard_of(key)];
                        h.invoke(if i % 4 == 3 {
                            KvMap::del_op(key)
                        } else {
                            KvMap::put_op(key, u32::from(pid) * 10_000 + i)
                        });
                        if h.log().divergence_detected() {
                            break;
                        }
                    }
                    handles
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    // A catch-up can itself decide a trailing cell that the others then
    // have to apply: repeat until a full pass applies nothing.
    while replicas
        .iter_mut()
        .flatten()
        .map(|h| h.catch_up())
        .sum::<usize>()
        > 0
    {}
    let replicas_agree = (0..store.shards()).all(|s| {
        let of_shard: Vec<&Handle<KvMap>> = replicas.iter().map(|r| &r[s]).collect();
        let windows: Vec<(usize, &[u32])> = of_shard
            .iter()
            .map(|h| (h.start_slot(), h.applied_log()))
            .collect();
        let digests: Vec<&[(usize, u64)]> = of_shard.iter().map(|h| h.boundary_digests()).collect();
        log_windows_consistent(&windows)
            && digests_consistent(&digests)
            && of_shard.windows(2).all(|w| w[0].state() == w[1].state())
    });
    // The store's own view (core replica against a fresh observer, and
    // the logs' divergence flags) has to agree with the raw replicas'.
    replicas_agree && store.verify(&mut []).all_consistent()
}

fn contended_overriding_store(backend: Backend, rate: f64, seed: u64) -> Store {
    Store::new(
        StoreConfig::builder()
            .shards(2)
            .backend(backend)
            .fault(FaultConfig {
                rate,
                ..FaultConfig::default()
            })
            .rotate_kinds(false)
            .checkpoint_interval(8)
            .seed(seed)
            .build()
            .expect("overriding faults are the default, tolerated kind"),
    )
}

#[test]
fn store_stress_naive_backend_eventually_diverges() {
    let diverged = (0..25u64).any(|seed| {
        let store = contended_overriding_store(Backend::naive(), 1.0, seed);
        !racing_handles_agree(&store, 3, 60)
    });
    assert!(
        diverged,
        "naive backend survived 25 seeds of racing proposers at 100% fault rate"
    );
}

/// The robust twin: the same racing proposers, the same overriding
/// faults — firing observably, which they cannot behind the combiner —
/// and every replica still agrees.
#[test]
fn store_stress_robust_backend_survives_contended_overriding_faults() {
    for seed in 0..5u64 {
        let store = contended_overriding_store(Backend::robust(), 0.6, 0xBEEF + seed);
        assert!(
            racing_handles_agree(&store, 3, 150),
            "seed {seed}: robust replicas disagree under contended overriding faults"
        );
        let faults = store.shard_faults();
        for sf in &faults {
            assert!(
                sf.attempted > 0,
                "seed {seed} shard {}: racing proposers attempted no overriding fault",
                sf.shard
            );
        }
        assert!(
            faults.iter().any(|sf| sf.observable > 0),
            "seed {seed}: racing proposers produced no observable overriding fault"
        );
    }
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
