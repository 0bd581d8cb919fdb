//! The simulator's headline guarantees, enforced:
//!
//! * same `(scenario, arm, seed)` → bit-identical trace, twice in one
//!   process (and across `--threads` trivially: the sim never spawns
//!   threads);
//! * a recorded run replayed under its own full fault script is
//!   bit-identical to the recording run — the record/replay seam loses
//!   nothing;
//! * the pinned-seed combiner-crash regression: kill-the-combiner
//!   stalls without the lease/epoch reclaim rule and completes with it.

use ff_dst::net::ScriptMode;
use ff_dst::scenario::{arm_ok, run_scenario, CORPUS, E19_SEED};

#[test]
fn same_seed_same_trace_for_every_scenario_and_arm() {
    for def in CORPUS {
        for arm in def.arms {
            let a = run_scenario(def.name, arm, E19_SEED, ScriptMode::Record);
            let b = run_scenario(def.name, arm, E19_SEED, ScriptMode::Record);
            assert_eq!(
                a.trace_hash, b.trace_hash,
                "{}/{arm}: trace hash differs between identical runs",
                def.name
            );
            assert_eq!(a.trace, b.trace, "{}/{arm}: trace lines differ", def.name);
            assert_eq!(a.events, b.events);
            assert_eq!(a.completed, b.completed);
        }
    }
}

#[test]
fn replaying_the_full_recorded_script_is_bit_identical() {
    // Record mode draws the fault RNG; replay mode never touches it.
    // Because fault and jitter streams are independent forks, the run
    // must come out identical anyway.
    for (scenario, arm) in [("partition-ramp", "naive"), ("restart-drain", "robust")] {
        let recorded = run_scenario(scenario, arm, E19_SEED, ScriptMode::Record);
        assert!(recorded.decisions > 0, "{scenario} made no net decisions");
        let replayed = run_scenario(
            scenario,
            arm,
            E19_SEED,
            ScriptMode::Replay(recorded.script.clone()),
        );
        assert_eq!(
            recorded.trace_hash, replayed.trace_hash,
            "{scenario}/{arm}: replay of the recorded script diverged from the recording"
        );
        assert_eq!(recorded.trace, replayed.trace);
    }
}

#[test]
fn distinct_seeds_explore_distinct_schedules() {
    let a = run_scenario("partition-ramp", "robust", E19_SEED, ScriptMode::Record);
    let b = run_scenario("partition-ramp", "robust", E19_SEED + 1, ScriptMode::Record);
    assert_ne!(
        a.trace_hash, b.trace_hash,
        "different seeds should not collapse onto one schedule"
    );
}

#[test]
fn pinned_seed_combiner_crash_needs_the_lease() {
    // Without the lease/epoch reclaim rule the ops claimed by the
    // killed combiner stay parked forever: the workers stall. With it,
    // every worker reclaims, republishes, and finishes.
    let nolease = run_scenario("kill-combiner", "nolease", E19_SEED, ScriptMode::Record);
    assert!(
        nolease.violations.iter().any(|v| v.starts_with("stall:")),
        "nolease run did not stall at the pinned seed: {:?}",
        nolease.violations
    );
    assert!(arm_ok(&nolease), "the stall is this arm's expected outcome");

    let lease = run_scenario("kill-combiner", "lease", E19_SEED, ScriptMode::Record);
    assert!(
        lease.violations.is_empty() && !lease.flagged,
        "lease run must recover cleanly, got {:?}",
        lease.violations
    );
    assert!(lease.consistent);
    assert!(
        lease.completed > nolease.completed,
        "recovery must beat the stall on delivered units"
    );
}

#[test]
fn every_arm_meets_its_contract_at_the_pinned_seed() {
    for def in CORPUS {
        for arm in def.arms {
            let r = run_scenario(def.name, arm, E19_SEED, ScriptMode::Record);
            assert!(
                arm_ok(&r),
                "{}/{arm} broke its contract: flagged={} violations={:?}",
                def.name,
                r.flagged,
                r.violations
            );
        }
    }
}
