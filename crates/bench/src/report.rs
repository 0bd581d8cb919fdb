//! `ff report` — regenerate the experiment tables of EXPERIMENTS.md.
//!
//! `--threads N` sets the explorer worker count for every exhaustive
//! scan (equivalent to `FF_EXPLORER_THREADS=N`). `--json` writes the
//! full rendered tables; `--json-out` writes the machine-readable run
//! summary (per-experiment verdict + wall time, plus an explorer
//! throughput calibration) CI trends on.

use crate::cli::{write_json, Args, Exit};
use crate::experiments::{find, registry};
use crate::flags::{REPORT_JSON, REPORT_JSON_OUT, REPORT_THREADS};
use ff_workload::{to_json, Experiment, ExperimentResult, JsonValue};
use std::time::Instant;

/// A fixed exhaustive scan (cascade, f = 1 faulty of 2 objects, n = 3
/// processes, unbounded overriding faults) timed to calibrate explorer
/// throughput on this machine — the denominator that makes wall times
/// comparable across hosts.
fn explorer_calibration() -> JsonValue {
    use ff_consensus::cascades;
    use ff_sim::{explore_parallel, ExplorerConfig, FaultPlan, Heap, SimState};
    use ff_spec::{Bound, Input};

    let inputs: Vec<Input> = (0..3).map(|i| Input(100 + i)).collect();
    let plan = FaultPlan::overriding(1, Bound::Unbounded);
    let state = SimState::new(cascades(&inputs, 1), Heap::new(2, 0), plan);
    let config = ExplorerConfig {
        threads: ff_sim::default_threads(),
        ..ExplorerConfig::default()
    };
    let start = Instant::now();
    let report = explore_parallel(state, config);
    let secs = start.elapsed().as_secs_f64();
    let states = report.states_expanded;
    JsonValue::object([
        ("scenario", "cascade f=1 n=3 overriding unbounded".into()),
        ("threads", config.threads.into()),
        ("states_expanded", states.into()),
        ("wall_secs", secs.into()),
        (
            "states_per_sec",
            if secs > 0.0 {
                states as f64 / secs
            } else {
                0.0
            }
            .into(),
        ),
        ("verified", report.verified().into()),
    ])
}

/// The `report` command.
pub fn run(args: &Args) -> Result<(), Exit> {
    if args.words.iter().any(|s| s == "list") {
        for e in registry() {
            println!("{:4}  {}", e.id(), e.title());
        }
        return Ok(());
    }
    let experiments: Vec<Box<dyn Experiment>> =
        if args.words.is_empty() || args.words.iter().any(|s| s == "all") {
            registry()
        } else {
            args.words
                .iter()
                .map(|s| {
                    find(s).ok_or_else(|| {
                        Exit::Usage(format!("unknown experiment id: {s} (try `ff report list`)"))
                    })
                })
                .collect::<Result<_, _>>()?
        };
    if let Some(n) = args.maybe_int(&REPORT_THREADS) {
        // The experiments resolve their worker count through
        // ff_sim::default_threads(), which reads this variable.
        std::env::set_var("FF_EXPLORER_THREADS", n.to_string());
    }

    let mut results: Vec<ExperimentResult> = Vec::new();
    let mut wall_secs: Vec<f64> = Vec::new();
    for e in experiments {
        eprintln!("running {} …", e.id());
        let start = Instant::now();
        let result = e.run();
        wall_secs.push(start.elapsed().as_secs_f64());
        println!("{}", result.render());
        results.push(result);
    }
    let all_pass = results.iter().all(|r| r.pass);
    println!(
        "\n==== {} experiment(s): {} ====",
        results.len(),
        if all_pass {
            "ALL PASS"
        } else {
            "FAILURES PRESENT"
        }
    );

    if let Some(path) = args.text(&REPORT_JSON) {
        write_json(path, to_json(&results))?;
    }
    if let Some(path) = args.text(&REPORT_JSON_OUT) {
        eprintln!("calibrating explorer throughput …");
        let experiments = results.iter().zip(&wall_secs).map(|(r, secs)| {
            JsonValue::object([
                ("id", r.id.as_str().into()),
                ("title", r.title.as_str().into()),
                ("pass", r.pass.into()),
                ("wall_secs", (*secs).into()),
            ])
        });
        let summary = JsonValue::object([
            ("experiments", experiments.collect()),
            ("all_pass", all_pass.into()),
            ("total_wall_secs", wall_secs.iter().sum::<f64>().into()),
            ("explorer_calibration", explorer_calibration()),
        ]);
        write_json(path, summary.render())?;
    }
    if !all_pass {
        return Err(Exit::Failed("an experiment did not match the paper".into()));
    }
    Ok(())
}
