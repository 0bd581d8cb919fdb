//! Replay every committed golden trace and check the minimized fault
//! script still reproduces its violation. A failure here means the
//! failure itself regressed — the bug the golden pins got harder (or
//! impossible) to hit, which is exactly what a golden trace exists to
//! notice.

use ff_dst::net::ScriptMode;
use ff_dst::scenario::{check_arm, run_scenario};
use ff_dst::trace::{reproduces, GoldenTrace};

#[test]
fn committed_golden_traces_reproduce() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("golden");
    let mut checked = 0;
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("crates/dst/golden exists and is committed")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    entries.sort();
    for path in entries {
        let text = std::fs::read_to_string(&path).expect("readable golden file");
        let golden = GoldenTrace::from_json(&text)
            .unwrap_or_else(|| panic!("{} is not a golden-trace file", path.display()));
        check_arm(&golden.scenario, &golden.arm).expect("golden names a corpus scenario and arm");
        let r = run_scenario(
            &golden.scenario,
            &golden.arm,
            golden.seed,
            ScriptMode::Replay(golden.script.clone()),
        );
        assert!(
            reproduces(&r, &golden.violation),
            "{}: {} on {}/{} seed={:#x} no longer reproduces",
            path.display(),
            golden.violation,
            golden.scenario,
            golden.arm,
            golden.seed
        );
        checked += 1;
    }
    assert!(
        checked >= 2,
        "expected at least two committed goldens, found {checked}"
    );
}
