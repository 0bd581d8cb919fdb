//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! ff-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! ff-benchmark compare A.json B.json
//! ```
//!
//! Run from the repository root. With `--workload` and `--trace` this is
//! the driver's contract: one workload, one kind of run, and a last
//! line of JSON. Without `--workload` all five run; without `--trace`
//! both kinds do. Every metric is printed as `workload metric value
//! unit`, and everything is also written to `--out` (default
//! `benchmark/out/results.json`), which is what `compare` reads.

mod compare;
mod gen;
mod inproc;
mod run;
mod spec;
mod stats;
mod tcp;
mod trace;
mod window;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ff_workload::json::JsonValue;

use gen::Tally;
use run::Outcome;
use spec::{MetricSpec, Workload, END_TO_END, PER_LAYER, WARMUP_SECS, WORKLOADS};

const OUT_DIR: &str = "benchmark/out";
const USAGE: &str = "usage: ff-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n       ff-benchmark compare A.json B.json";

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    out: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: None,
        out: Path::new(OUT_DIR).join("results.json"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                parsed.workload = Some(spec::workload(value).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!(
                        "unknown workload {value:?}; workloads: {}",
                        names.join(", ")
                    )
                })?)
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.seconds >= 0.1 && parsed.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--out" => parsed.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(parsed)
}

fn read_json(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    JsonValue::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn compare_main(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err(USAGE.to_string());
    };
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    let (table, regressed) = compare::compare(
        &read_json("BENCHMARK.json")?,
        &read_json(a)?,
        &read_json(b)?,
        &names,
    )?;
    print!("{table}");
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// `"name": {"value": v, "unit": "u"}` for every metric of `table`: the
/// `metrics` object of the result line.
fn metrics_line(table: &[MetricSpec], outcome: &Outcome) -> String {
    let fields: Vec<String> = table
        .iter()
        .map(|s| {
            let (value, _) = outcome.metrics.get(s.name);
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                s.name, s.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The same metrics for the results file, with sample counts and
/// within-run spreads.
fn metrics_value(table: &[MetricSpec], outcome: &Outcome) -> JsonValue {
    JsonValue::Object(
        table
            .iter()
            .map(|s| {
                let (value, samples) = outcome.metrics.get(s.name);
                let mut fields = vec![
                    ("value".to_string(), JsonValue::Number(value)),
                    ("unit".to_string(), JsonValue::String(s.unit.to_string())),
                    (
                        "better".to_string(),
                        JsonValue::String(s.better.label().to_string()),
                    ),
                    ("samples".to_string(), JsonValue::Number(samples as f64)),
                ];
                if let Some((_, spread)) = outcome.spreads.iter().find(|(n, _)| *n == s.name) {
                    fields.push(("spread".to_string(), JsonValue::Number(*spread)));
                }
                (s.name.to_string(), JsonValue::Object(fields))
            })
            .collect(),
    )
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn run_main(args: &Args) -> Result<ExitCode, String> {
    let out_dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(out_dir)
        .map_err(|e| format!("{OUT_DIR}: {e} (run from the repository root)"))?;
    let workloads: Vec<&Workload> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let traces: Vec<bool> = args.trace.map_or(vec![false, true], |t| vec![t]);
    let mut total = Tally::default();
    let mut last_line = String::new();
    let mut entries = Vec::new();
    for w in workloads {
        eprintln!("benchmark: {} — {}", w.name, w.why);
        let mut entry = vec![("name".to_string(), JsonValue::String(w.name.to_string()))];
        let mut tally = Tally::default();
        for &traced in &traces {
            let (outcome, table, section) = if traced {
                let o = run::run_traced(w, args.seed, args.seconds, out_dir);
                (o, &PER_LAYER[..], "per_layer")
            } else {
                let o = run::run_untraced(w, args.seed, args.seconds, out_dir);
                (o, &END_TO_END[..], "end_to_end")
            };
            for s in table {
                let (value, _) = outcome.metrics.get(s.name);
                println!("{} {} {value} {}", w.name, s.name, s.unit);
            }
            tally.add(outcome.tally);
            entry.push((section.to_string(), metrics_value(table, &outcome)));
            last_line = format!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                outcome.tally.failed == 0,
                outcome.tally.attempted,
                outcome.tally.failed,
                metrics_line(table, &outcome)
            );
        }
        println!(
            "{} failed_share {} ratio",
            w.name,
            tally.failed as f64 / tally.attempted as f64
        );
        entry.push(("correct".to_string(), JsonValue::Bool(tally.failed == 0)));
        entry.push((
            "attempted".to_string(),
            JsonValue::Number(tally.attempted as f64),
        ));
        entry.push(("failed".to_string(), JsonValue::Number(tally.failed as f64)));
        entries.push(JsonValue::Object(entry));
        total.add(tally);
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let results = JsonValue::Object(vec![
        (
            "commit".to_string(),
            JsonValue::String(command_line("git", &["rev-parse", "HEAD"])),
        ),
        (
            "rustc".to_string(),
            JsonValue::String(command_line("rustc", &["-V"])),
        ),
        ("nproc".to_string(), JsonValue::Number(nproc as f64)),
        ("seed".to_string(), JsonValue::Number(args.seed as f64)),
        ("seconds".to_string(), JsonValue::Number(args.seconds)),
        ("warmup_seconds".to_string(), JsonValue::Number(WARMUP_SECS)),
        ("workloads".to_string(), JsonValue::Array(entries)),
    ]);
    std::fs::write(&args.out, results.render() + "\n")
        .map_err(|e| format!("{}: {e}", args.out.display()))?;
    // The driver's contract: the last line of stdout is the result of
    // the (single) run it asked for.
    if args.workload.is_some() && args.trace.is_some() {
        println!("{last_line}");
    }
    Ok(if total.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare_main(&args[1..]),
        _ => parse_args(&args).and_then(|args| run_main(&args)),
    };
    result.unwrap_or_else(|message| {
        eprintln!("{message}");
        ExitCode::from(2)
    })
}
