//! What the table can say, the world can run.

use proptest::prelude::*;

use super::*;

fn row(name: &str) -> ScenarioDef {
    *super::row(name).expect("corpus row")
}

#[test]
fn every_corpus_row_is_valid_and_a_bad_row_is_a_message() {
    for def in CORPUS {
        check_row(def).unwrap_or_else(|e| panic!("{e}"));
    }
    let base = row("kill-checkpoint");
    let bad_rows = [
        (
            "declared twice",
            ScenarioDef {
                population: &[
                    ("rack-a", "server", Recipe::Server),
                    ("rack-b", "server", Recipe::Client),
                ],
                ..base
            },
        ),
        (
            "undeclared role \"sever\"",
            ScenarioDef {
                faults: &[(MS, Fault::Kill("sever"))],
                ..base
            },
        ),
        (
            "undeclared role \"server-2\"",
            ScenarioDef {
                faults: &[(MS, Fault::Respawn("server-2"))],
                ..base
            },
        ),
        (
            "undeclared role \"client-9\"",
            ScenarioDef {
                floors: &[("client-9", 1)],
                ..base
            },
        ),
        (
            "undeclared machine \"rack-c\"",
            ScenarioDef {
                faults: &[(MS, Fault::Partition("rack-a", "rack-c", true))],
                ..base
            },
        ),
        // Hazard: with no shared store in the world, a worker or a
        // combiner has nothing to attach to.
        (
            "needs a shared store",
            ScenarioDef {
                population: &[
                    ("rack-a", "server", Recipe::Server),
                    ("rack-a", "worker-0", Recipe::Worker),
                ],
                floors: &[],
                ..row("kill-recover")
            },
        ),
    ];
    for (needle, bad) in bad_rows {
        let refused = check_row(&bad).expect_err(needle);
        assert!(refused.contains(needle), "{refused:?} lacks {needle:?}");
        // The interpreter refuses it the same way, before building
        // anything — no panic halfway through a run.
        let arm = bad.arms[0];
        let from_run = run_row(&bad, arm, E19_SEED, ScriptMode::Record).expect_err(needle);
        assert_eq!(from_run, refused);
    }
    let unknown_arm = run_row(&base, "robustt", E19_SEED, ScriptMode::Record);
    assert!(unknown_arm.is_err_and(|e| e.contains("unknown arm")));
}

#[test]
fn a_store_the_server_owns_is_a_store_of_the_world() {
    // Not a corpus row: a durable server, a kill and respawn, and a
    // store-rate step *after* the respawn. The only store in this world
    // is the second incarnation's own; the step must reach it.
    let def = ScenarioDef {
        name: "owned-store-rate",
        faults: &[
            (100 * MS, Fault::Kill("server")),
            (120 * MS, Fault::Respawn("server")),
            (150 * MS, Fault::StoreRate(0.2)),
        ],
        ..row("kill-recover")
    };
    let mut sim = world(&def, "robust", E19_SEED, ScriptMode::Record).expect("valid row");
    assert!(sim.store.is_none(), "no frame store");
    let knobs = |sim: &Sim| -> Vec<f64> {
        sim.stores()
            .flat_map(|store| (0..store.shards()).map(|s| store.fault_knob(s).rate()))
            .collect()
    };
    assert_eq!(knobs(&sim), [0.05; 3], "the first incarnation's own store");
    sim.run();
    assert_eq!(sim.stores().count(), 1, "the killed store left the world");
    assert_eq!(knobs(&sim), [0.2; 3], "every shard knob of the respawn");
    let report = finish(&sim, &def, "robust", E19_SEED);
    assert!(report.recovered_checkpoints + report.recovered_records > 0);
    assert!(
        arm_ok(&report),
        "flagged={} violations={:?}",
        report.flagged,
        report.violations
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // Any role, any time: the first draws of the swarm. Whatever role
    // of whatever row is killed and respawned whenever, on whichever
    // arm, the run neither panics nor depends on anything but the tuple.
    #[test]
    fn killing_and_respawning_any_role_at_any_time_is_deterministic(
        row in 0..CORPUS.len(),
        arm in any::<usize>(),
        role in any::<usize>(),
        kill_at in any::<u64>(),
        down_for in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let base = CORPUS[row];
        let arm = base.arms[arm % base.arms.len()];
        let role = base.population[role % base.population.len()].1;
        let kill_at = kill_at % base.horizon;
        let respawn_at = kill_at + down_for % (base.horizon - kill_at);
        // The row's own store-rate steps and partitions stay; its kills
        // make way for the drawn pair.
        let mut faults: Vec<(u64, Fault)> = base
            .faults
            .iter()
            .filter(|(_, f)| !matches!(f, Fault::Kill(_) | Fault::Respawn(_)))
            .copied()
            .collect();
        faults.push((kill_at, Fault::Kill(role)));
        faults.push((respawn_at, Fault::Respawn(role)));
        let def = ScenarioDef { faults: faults.leak(), ..base };
        let a = run_row(&def, arm, seed, ScriptMode::Record).expect("valid row");
        let b = run_row(&def, arm, seed, ScriptMode::Record).expect("valid row");
        prop_assert_eq!(a.trace_hash, b.trace_hash);
        prop_assert_eq!(a.violations, b.violations);
    }
}
