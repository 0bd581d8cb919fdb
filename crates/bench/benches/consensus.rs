//! B1/B2 — decide latency of the constructions vs the Herlihy baseline.
//!
//! B1: one-object protocols (Herlihy vs Figure 1) under increasing
//! overriding-fault rates, two sequential deciders.
//! B2: the cascade (Figure 2) as `f` grows, four sequential deciders.
//!
//! Absolute numbers are machine-dependent; the shapes to expect: the
//! fault rate barely moves the one-object protocols (one CAS either
//! way), and the cascade's cost grows linearly in `f` (it is an
//! `(f + 1)`-CAS sweep).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ff_cas::{AtomicCasArray, FaultyCasArray, ProbabilisticPolicy};
use ff_consensus::{CascadeConsensus, Consensus, HerlihyConsensus, TwoProcessConsensus};
use ff_spec::{Bound, Input};
use std::hint::black_box;
use std::sync::Arc;

fn faulty_ensemble(
    objects: usize,
    faulty: usize,
    rate: f64,
    seed: u64,
) -> Arc<FaultyCasArray<ProbabilisticPolicy>> {
    Arc::new(
        FaultyCasArray::builder(objects)
            .faulty_first(faulty)
            .per_object(Bound::Unbounded)
            .policy(ProbabilisticPolicy::new(rate, seed))
            .record_history(false)
            .build(),
    )
}

fn bench_one_object(c: &mut Criterion) {
    let mut group = c.benchmark_group("b1_one_object_decide");
    group.bench_function("herlihy_reliable_2_deciders", |b| {
        b.iter_batched(
            || HerlihyConsensus::new(Arc::new(AtomicCasArray::new(1))),
            |p| {
                black_box(p.decide(Input(1)));
                black_box(p.decide(Input(2)));
            },
            criterion::BatchSize::SmallInput,
        )
    });
    for rate in [0.0, 0.5, 1.0] {
        group.bench_with_input(
            BenchmarkId::new("fig1_two_process", format!("rate_{rate:.1}")),
            &rate,
            |b, &rate| {
                b.iter_batched(
                    || TwoProcessConsensus::new(faulty_ensemble(1, 1, rate, 42)),
                    |p| {
                        black_box(p.decide(Input(1)));
                        black_box(p.decide(Input(2)));
                    },
                    criterion::BatchSize::SmallInput,
                )
            },
        );
    }
    group.finish();
}

fn bench_cascade(c: &mut Criterion) {
    let mut group = c.benchmark_group("b2_cascade_decide");
    for f in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("greedy_faults", f), &f, |b, &f| {
            b.iter_batched(
                || CascadeConsensus::new(faulty_ensemble(f + 1, f, 1.0, 7), f),
                |p| {
                    for i in 0..4u32 {
                        black_box(p.decide(Input(i)));
                    }
                },
                criterion::BatchSize::SmallInput,
            )
        });
        group.bench_with_input(BenchmarkId::new("fault_free", f), &f, |b, &f| {
            b.iter_batched(
                || CascadeConsensus::new(Arc::new(AtomicCasArray::new(f + 1)), f),
                |p| {
                    for i in 0..4u32 {
                        black_box(p.decide(Input(i)));
                    }
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_one_object, bench_cascade);
criterion_main!(benches);
