//! `ff witness` — print concrete counterexample executions for the
//! paper's lower bounds: `thm18 [n]` the shortest violating execution,
//! `thm19 [f]` the covering-attack narrative.

use crate::cli::{Args, Exit};
use crate::flags::{THM18_N, THM19_F};
use ff_adversary::{covering_attack, render_witness};
use ff_consensus::{one_shots, staged_machines};
use ff_sim::{explore_bfs, ExplorerConfig, FaultPlan, Heap, SimState};
use ff_spec::{Bound, Input};

fn inputs(n: usize) -> Vec<Input> {
    (0..n as u32).map(|i| Input(10 * (i + 1))).collect()
}

/// The `witness thm18` command.
pub fn thm18(args: &Args) -> Result<(), Exit> {
    let n = args.int(&THM18_N) as usize;
    println!(
        "Theorem 18 witness: one unboundedly-faulty CAS object, {n} processes, one-shot protocol.\n"
    );
    let plan = FaultPlan::overriding(1, Bound::Unbounded);
    let state = SimState::new(one_shots(&inputs(n)), Heap::new(1, 0), plan.clone());
    let report = explore_bfs(state, ExplorerConfig::default());
    let Some(w) = report.violation else {
        return Err(Exit::Failed(
            "no violation found (unexpected — check the configuration)".into(),
        ));
    };
    println!(
        "shortest violating execution ({} steps, found after {} states):\n",
        w.choices.len(),
        report.states_expanded
    );
    println!(
        "{}",
        render_witness(&w, one_shots(&inputs(n)), Heap::new(1, 0), &plan)
    );
    Ok(())
}

/// The `witness thm19` command.
pub fn thm19(args: &Args) -> Result<(), Exit> {
    let f = args.int(&THM19_F) as usize;
    let n = f + 2;
    println!(
        "Theorem 19 witness: the covering attack on the staged protocol — \
         f = {f} objects, t = 1 fault each, n = {n} processes.\n"
    );
    let report = covering_attack(staged_machines(&inputs(n), f as u64, 1), f);
    println!("schedule narrative:");
    println!("  1. p0 runs alone and decides {:?}", report.first_decision);
    for (i, (obj, pid)) in report.covered.iter().zip(&report.halted).enumerate() {
        println!(
            "  {}. {pid} runs alone until its first CAS on uncovered {obj}; that CAS \
             suffers an overriding fault (burying p0's footprint) and {pid} is halted",
            i + 2
        );
    }
    println!(
        "  {}. p{} runs alone — unable to tell p0 ever ran — and decides {:?}",
        report.covered.len() + 2,
        n - 1,
        report.last_decision
    );
    println!(
        "\ntotal steps: {}; objects covered: {}; consistency violated: {}",
        report.steps,
        report.covered.len(),
        report.violated()
    );
    if !report.violated() {
        return Err(Exit::Failed(
            "the covering attack did not violate consistency".into(),
        ));
    }
    Ok(())
}
