//! `ff dst` — drive the deterministic simulator.
//!
//! `run` executes one `(scenario, arm, seed)` and prints the report;
//! exit status reflects the arm's contract. `corpus` runs every pair.
//! `minimize` records a failing run, shrinks its fault script to a
//! 1-minimal set with ddmin, and writes a golden-trace file. `replay`
//! re-executes a golden file and checks the violation still reproduces.
//!
//! Scenario and arm are checked against the corpus before anything is
//! simulated — whether they came from flags or from a golden file.

use crate::cli::{write_json, Args, Exit};
use crate::flags::{ARM, DST_SEED, GOLDEN, OUT, SCENARIO, TRACE};
use ff_dst::net::ScriptMode;
use ff_dst::scenario::{arm_ok, check_arm, run_scenario, CORPUS};
use ff_dst::trace::{minimize as ddmin, reproduces, violation_of, GoldenTrace};
use ff_dst::RunReport;

fn print_report(r: &RunReport, show_trace: bool) {
    println!(
        "dst: {}/{} seed={:#x} events={} net-decisions={} completed={} \
         consistent={} flagged={} trace-hash={:016x}",
        r.scenario,
        r.arm,
        r.seed,
        r.events,
        r.decisions,
        r.completed,
        r.consistent,
        r.flagged,
        r.trace_hash
    );
    for v in &r.violations {
        println!("dst:   violation: {v}");
    }
    if show_trace {
        for line in &r.trace {
            println!("{line}");
        }
    }
}

/// `--scenario` and `--arm`, checked against the corpus.
fn scenario_and_arm(args: &Args) -> Result<(&str, &str), Exit> {
    let (scenario, arm) = (args.required(&SCENARIO)?, args.required(&ARM)?);
    check_arm(scenario, arm).map_err(Exit::Usage)?;
    Ok((scenario, arm))
}

/// The `dst run` command.
pub fn run(args: &Args) -> Result<(), Exit> {
    let (scenario, arm) = scenario_and_arm(args)?;
    let r = run_scenario(scenario, arm, args.int(&DST_SEED), ScriptMode::Record);
    print_report(&r, args.on(&TRACE));
    if !arm_ok(&r) {
        println!("dst: contract BROKEN (this is the replayable failure)");
        return Err(Exit::Failed(format!("{scenario}/{arm} broke its contract")));
    }
    println!("dst: contract ok");
    Ok(())
}

/// The `dst corpus` command.
pub fn corpus(args: &Args) -> Result<(), Exit> {
    let seed = args.int(&DST_SEED);
    let mut clean = true;
    for def in CORPUS {
        for arm in def.arms {
            let r = run_scenario(def.name, arm, seed, ScriptMode::Record);
            let ok = arm_ok(&r);
            print_report(&r, false);
            println!("dst: contract {}", if ok { "ok" } else { "BROKEN" });
            clean &= ok;
        }
    }
    println!(
        "dst: corpus {} at seed {seed:#x}",
        if clean { "clean" } else { "BROKEN" }
    );
    if !clean {
        return Err(Exit::Failed(
            "an arm of the corpus broke its contract".into(),
        ));
    }
    Ok(())
}

/// The `dst minimize` command.
pub fn minimize(args: &Args) -> Result<(), Exit> {
    let (scenario, arm) = scenario_and_arm(args)?;
    let out = args.required(&OUT)?;
    let seed = args.int(&DST_SEED);
    let replay = |script| run_scenario(scenario, arm, seed, ScriptMode::Replay(script));
    let recorded = run_scenario(scenario, arm, seed, ScriptMode::Record);
    let Some(violation) = violation_of(&recorded) else {
        return Err(Exit::Failed(format!(
            "dst: {scenario}/{arm} seed={seed:#x} does not fail; nothing to minimize"
        )));
    };
    println!(
        "dst: recorded failing run, {} scripted fault(s) over {} decisions; minimizing …",
        recorded.script.len(),
        recorded.decisions
    );
    let mut replays = 0u32;
    let minimal = ddmin(&recorded.script, |candidate| {
        replays += 1;
        reproduces(&replay(candidate.clone()), violation)
    });
    let confirm = replay(minimal.clone());
    if !reproduces(&confirm, violation) {
        return Err(Exit::Failed(
            "dst: the minimized script no longer reproduces".into(),
        ));
    }
    let golden = GoldenTrace {
        scenario: scenario.to_string(),
        arm: arm.to_string(),
        seed,
        violation: violation.to_string(),
        script: minimal,
        trace_hash: format!("{:016x}", confirm.trace_hash),
    };
    write_json(out, golden.to_json())?;
    println!(
        "dst: minimized {} -> {} scripted fault(s) in {replays} replays; wrote {out}",
        recorded.script.len(),
        golden.script.len()
    );
    if golden.script.is_empty() {
        println!("dst: note: empty script — the violation needs no network faults at this seed");
    }
    Ok(())
}

/// The `dst replay` command.
pub fn replay(args: &Args) -> Result<(), Exit> {
    let path = args.required(&GOLDEN)?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| Exit::Usage(format!("dst: cannot read {path}: {e}")))?;
    let golden = GoldenTrace::from_json(&text)
        .ok_or_else(|| Exit::Usage(format!("dst: {path} is not a golden-trace file")))?;
    check_arm(&golden.scenario, &golden.arm)
        .map_err(|e| Exit::Usage(format!("dst: {path}: {e}")))?;
    let r = run_scenario(
        &golden.scenario,
        &golden.arm,
        golden.seed,
        ScriptMode::Replay(golden.script.clone()),
    );
    print_report(&r, args.on(&TRACE));
    if !reproduces(&r, &golden.violation) {
        println!("dst: golden {path} DID NOT reproduce — regression in the failure itself");
        return Err(Exit::Failed(format!("{path} did not reproduce")));
    }
    println!(
        "dst: golden {path} reproduced ({} on {}/{})",
        golden.violation, golden.scenario, golden.arm
    );
    Ok(())
}
