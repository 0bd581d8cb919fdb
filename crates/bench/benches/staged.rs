//! B3 — the staged protocol's cost: latency vs `(f, t)` (the
//! `maxStage = t·(4f + f²)` bound dominates), plus the ablation of
//! running with a smaller-than-proven stage bound.
//!
//! Expected shapes: latency grows roughly linearly in `maxStage` (so
//! linearly in `t` and quadratically in `f`); shrinking the bound buys
//! proportional speedups (correctness under reduced bounds is measured
//! separately in E3's ablation table — the proven bound is conservative,
//! as the paper notes).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ff_cas::{AtomicCasArray, FaultyCasArray, ProbabilisticPolicy};
use ff_consensus::{max_stage, Consensus, StagedConsensus};
use ff_spec::{Bound, Input};
use std::hint::black_box;
use std::sync::Arc;

fn faulty(f: u64, t: u64, seed: u64) -> Arc<FaultyCasArray<ProbabilisticPolicy>> {
    Arc::new(
        FaultyCasArray::builder(f as usize)
            .faulty_first(f as usize)
            .per_object(Bound::Finite(t))
            .policy(ProbabilisticPolicy::new(0.3, seed))
            .record_history(false)
            .build(),
    )
}

fn bench_staged_ft(c: &mut Criterion) {
    let mut group = c.benchmark_group("b3_staged_decide");
    for f in [1u64, 2, 3] {
        for t in [1u64, 2, 4] {
            let id = format!("f{f}_t{t}_maxStage{}", max_stage(f, t));
            group.bench_with_input(BenchmarkId::new("faulty", &id), &(f, t), |b, &(f, t)| {
                b.iter_batched(
                    || StagedConsensus::new(faulty(f, t, 11), f, t),
                    |p| {
                        for i in 0..=(f as u32) {
                            black_box(p.decide(Input(i)));
                        }
                    },
                    criterion::BatchSize::SmallInput,
                )
            });
        }
    }
    group.finish();
}

fn bench_max_stage_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("b3_max_stage_ablation");
    let (f, t) = (2u64, 2u64);
    let proven = max_stage(f, t); // 24
    for stages in [1u32, proven / 4, proven / 2, proven] {
        let stages = stages.max(1);
        group.bench_with_input(
            BenchmarkId::new("fault_free", stages),
            &stages,
            |b, &stages| {
                b.iter_batched(
                    || {
                        StagedConsensus::new(Arc::new(AtomicCasArray::new(f as usize)), f, t)
                            .with_max_stage(stages)
                    },
                    |p| {
                        for i in 0..=(f as u32) {
                            black_box(p.decide(Input(i)));
                        }
                    },
                    criterion::BatchSize::SmallInput,
                )
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_staged_ft, bench_max_stage_ablation);
criterion_main!(benches);
