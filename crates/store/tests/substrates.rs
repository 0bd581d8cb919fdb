//! The substrate conformance suite: every registered substrate — the
//! built-ins and anything a downstream crate registers before the
//! suite runs — is held to the same contract.
//!
//! * **Agreement & validity** — concurrent `decide` calls on one cell
//!   return one decision, and it is some process's input (Definition 3),
//!   both fault-free and under every fault kind the substrate declares
//!   tolerated.
//! * **Accounting** — a constructed cell uses exactly the number of
//!   shared objects the substrate declares via `objects_per_cell`.
//! * **Envelope** — `validate` refuses every fault kind the substrate
//!   does *not* declare tolerated (for substrates that inject at all),
//!   and unknown substrate names fail parsing with the full valid list.
//! * **Whole-store survival** — a store on any consistency-promising
//!   substrate ends `Store::verify`-consistent at the sweep fault rate.
//! * **CI soaks the registry** — the `backend-matrix` job lists exactly
//!   the built-ins, in registration order.

use ff_spec::{Bound, FaultKind, Input};
use ff_store::{all_backends, run_soak, Backend, FaultConfig, ShardCells, SoakConfig};
use ff_universal::CellFactory;
use proptest::prelude::*;

/// All kinds the injection layer can produce (invisible faults are a
/// lower-bound construct and never injected — see the spec crate).
const INJECTABLE: &[FaultKind] = &[
    FaultKind::Overriding,
    FaultKind::Silent,
    FaultKind::Arbitrary,
];

/// A fault environment the substrate accepts: `kind` injected at
/// `rate` with `f = 1`, the silent budget finite as `validate`
/// demands.
fn fault_env(kind: FaultKind, rate: f64) -> FaultConfig {
    FaultConfig {
        kind,
        f: 1,
        t: if kind == FaultKind::Silent {
            Bound::Finite(8)
        } else {
            Bound::Unbounded
        },
        rate,
        ..FaultConfig::default()
    }
}

/// Every fault environment this backend's `validate` accepts, at
/// `rate`: the fault-free default for non-injecting substrates (and
/// the broken witness), one environment per tolerated kind otherwise.
fn accepted_envs(backend: &Backend, rate: f64) -> Vec<FaultConfig> {
    if backend.tolerated_kinds().is_empty() {
        vec![FaultConfig {
            rate,
            ..FaultConfig::default()
        }]
    } else {
        backend
            .tolerated_kinds()
            .iter()
            .map(|&kind| fault_env(kind, rate))
            .collect()
    }
}

/// Drive `threads` concurrent `decide` calls with distinct inputs on
/// one fresh cell; assert agreement, validity, and decide-once
/// stickiness.
fn assert_cell_agreement(cells: &ShardCells, threads: u32, label: &str) {
    let cell = cells.make();
    let decisions: Vec<Input> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|i| {
                let cell = &cell;
                s.spawn(move || cell.decide(Input(100 + i)))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let first = decisions[0];
    assert!(
        decisions.iter().all(|&d| d == first),
        "{label}: processes disagreed: {decisions:?}"
    );
    assert!(
        (100..100 + threads).contains(&first.0),
        "{label}: decided {first:?}, not any process's input"
    );
    assert_eq!(
        cell.decide(Input(999)),
        first,
        "{label}: a later decide overturned the decision"
    );
}

#[test]
fn every_name_round_trips_and_unknown_names_list_the_registry() {
    for backend in all_backends() {
        let parsed: Backend = backend.name().parse().unwrap();
        assert_eq!(parsed, backend);
        assert_eq!(parsed.to_string(), backend.name());
    }
    let err = "no-such-substrate".parse::<Backend>().unwrap_err();
    let message = err.to_string();
    for name in ff_store::substrate_names() {
        assert!(
            message.contains(name),
            "unknown-substrate error must list {name:?}: {message}"
        );
    }
}

#[test]
fn agreement_and_validity_fault_free() {
    for backend in all_backends() {
        for fault in accepted_envs(&backend, 0.0) {
            let cells = ShardCells::new(backend.clone(), fault, 0xA11CE);
            assert_cell_agreement(&cells, 4, backend.name());
        }
    }
}

#[test]
fn agreement_and_validity_under_every_tolerated_kind() {
    for backend in all_backends() {
        if !backend.injects_faults() || !backend.expected_consistent() {
            continue; // the broken witness promises nothing under faults
        }
        for &kind in backend.tolerated_kinds() {
            for seed in 0..8u64 {
                let cells = ShardCells::new(backend.clone(), fault_env(kind, 0.5), seed);
                assert_cell_agreement(&cells, 4, &format!("{backend} under {kind:?}"));
            }
        }
    }
}

#[test]
fn objects_used_matches_declared_accounting() {
    for backend in all_backends() {
        for fault in accepted_envs(&backend, 0.2) {
            let declared = backend.objects_per_cell(&fault);
            let cells = ShardCells::new(backend.clone(), fault, 7);
            let cell = cells.make();
            assert_eq!(
                cell.objects_used(),
                declared,
                "{backend}: cell used {} objects, declared {declared}",
                cell.objects_used()
            );
        }
    }
}

#[test]
fn validate_refuses_exactly_the_untolerated_kinds() {
    for backend in all_backends() {
        if backend.tolerated_kinds().is_empty() {
            // Non-injecting substrates (and the broken witness) accept
            // any environment: they never construct from it.
            for &kind in INJECTABLE {
                assert!(backend.validate(&fault_env(kind, 0.2)).is_ok(), "{backend}");
            }
            continue;
        }
        for &kind in INJECTABLE {
            let verdict = backend.validate(&fault_env(kind, 0.2));
            if backend.tolerated_kinds().contains(&kind) {
                assert!(verdict.is_ok(), "{backend} must accept tolerated {kind:?}");
            } else {
                assert!(
                    verdict.is_err(),
                    "{backend} must refuse untolerated {kind:?}"
                );
            }
        }
        // The shared envelope rules: no fault-free "robust" stores, no
        // unbounded silent budgets.
        assert!(backend
            .validate(&FaultConfig {
                f: 0,
                ..fault_env(backend.tolerated_kinds()[0], 0.2)
            })
            .is_err());
        if backend.tolerated_kinds().contains(&FaultKind::Silent) {
            assert!(backend
                .validate(&FaultConfig {
                    t: Bound::Unbounded,
                    ..fault_env(FaultKind::Silent, 0.2)
                })
                .is_err());
        }
    }
}

/// CI soaks and nets each built-in on its own runner (the
/// `backend-matrix` job in `.github/workflows/ci.yml`). This binary
/// registers nothing, so the registry holds exactly the built-ins: a
/// row added, removed or renamed in `BUILTINS` without the matrix — or
/// the reverse — fails here.
#[test]
fn ci_backend_matrix_lists_the_registry() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../.github/workflows/ci.yml"
    );
    let ci = std::fs::read_to_string(path).expect("the CI workflow is readable");
    let job = &ci[ci
        .find("\n  backend-matrix:\n")
        .expect("a backend-matrix job")..];
    let list = job
        .lines()
        .find_map(|line| line.trim_start().strip_prefix("backend: ["))
        .and_then(|rest| rest.strip_suffix(']'))
        .expect("the matrix's backend list, on one line");
    let listed: Vec<&str> = list.split(',').map(str::trim).collect();
    assert_eq!(listed, ff_store::substrate_names());
}

/// The acceptance bar: a whole store on every consistency-promising
/// substrate — including the robust-composed ones over weaker
/// primitives — ends `Store::verify`-consistent at fault rate 0.2.
#[test]
fn stores_verify_consistent_at_the_sweep_fault_rate() {
    for backend in all_backends() {
        if !backend.expected_consistent() {
            continue;
        }
        let report = run_soak(&SoakConfig {
            threads: 2,
            shards: 2,
            secs: 0.3,
            fault_rate: 0.2,
            backend: backend.clone(),
            ..SoakConfig::default()
        });
        assert!(
            report.consistent,
            "store on {backend} diverged at fault rate 0.2"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Interleaving sweep: random worker counts and fault seeds across
    // every substrate and every tolerated kind — agreement, validity
    // and stickiness must hold on each fresh cell.
    #[test]
    fn prop_agreement_across_interleavings(
        threads in 1u32..5,
        seed in any::<u64>(),
        rate_pct in 0u32..80,
    ) {
        let rate = f64::from(rate_pct) / 100.0;
        for backend in all_backends() {
            if !backend.expected_consistent() {
                continue;
            }
            let envs = if backend.injects_faults() {
                accepted_envs(&backend, rate)
            } else {
                accepted_envs(&backend, 0.0)
            };
            for fault in envs {
                let cells = ShardCells::new(backend.clone(), fault, seed);
                assert_cell_agreement(&cells, threads, backend.name());
            }
        }
    }
}
