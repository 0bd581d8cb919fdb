//! Closed-loop soak of the sharded store under live fault injection.
//!
//! ```text
//! cargo run --release -p ff-bench --bin soak -- \
//!     --threads 4 --shards 8 --secs 10 --fault-rate 0.2
//! ```
//!
//! Hammers an `ff-store` from N closed-loop workers for the given
//! duration, verifies that every replica of every shard converged,
//! prints the latency/throughput/fault tables, and writes the full
//! machine-readable report to `BENCH_store.json` (override with
//! `--json-out`). Exits nonzero if any shard diverged — which the
//! `--backend naive` arm exists to demonstrate.
//!
//! `--data-dir DIR` turns on the per-shard write-ahead log; add
//! `--recover` to rebuild the store from the WAL files already in the
//! directory before soaking (CI kill-9s a durable soak and restarts it
//! exactly like this). `--durability-ab` runs in-memory then durable in
//! one process, prints and records the durable ÷ in-memory throughput
//! ratio, and exits nonzero only if an arm diverged or refused
//! recovery: a ratio fails whenever the *in-memory* arm gets faster, so
//! the regression gate for what durability costs is the repo
//! benchmark's `wal-write` row (`BENCHMARK.json`), not this smoke.

use ff_bench::{run_substrate_sweep, substrate_sweep_json, substrate_table, SubstrateArm};
use ff_store::{try_run_soak, DurabilityConfig, SoakConfig, SoakReport};
use ff_workload::JsonValue;

fn usage() -> ! {
    eprintln!(
        "usage: soak [--threads N] [--shards N] [--secs S] [--fault-rate R]\n\
         \x20           [--backend NAME] [--read-pct P]\n\
         \x20           [--substrates] (hierarchy sweep over every registered substrate)\n\
         \x20           [--keyspace N] [--checkpoint-interval N] [--seed N]\n\
         \x20           [--json-out PATH]\n\
         \x20           [--data-dir DIR] [--group-commit N] [--recover]\n\
         \x20           [--durability-ab]"
    );
    std::process::exit(2);
}

/// Parse a seed in decimal or `0x` hex (matching the `dst` CLI).
fn parse_seed(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn main() {
    let mut config = SoakConfig::default();
    let mut json_out: Option<String> = None;
    let mut durability_ab = false;
    let mut substrates = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{flag} requires a value");
                usage();
            })
        };
        match arg.as_str() {
            "--threads" => config.threads = value("--threads").parse().unwrap_or_else(|_| usage()),
            "--shards" => config.shards = value("--shards").parse().unwrap_or_else(|_| usage()),
            "--secs" => config.secs = value("--secs").parse().unwrap_or_else(|_| usage()),
            "--fault-rate" => {
                config.fault_rate = value("--fault-rate").parse().unwrap_or_else(|_| usage())
            }
            "--backend" => {
                config.backend = value("--backend").parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage();
                })
            }
            "--read-pct" => {
                config.read_pct = value("--read-pct").parse().unwrap_or_else(|_| usage())
            }
            "--keyspace" => {
                config.keyspace = value("--keyspace").parse().unwrap_or_else(|_| usage())
            }
            "--checkpoint-interval" => {
                config.checkpoint_interval = value("--checkpoint-interval")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--seed" => config.seed = parse_seed(&value("--seed")).unwrap_or_else(|| usage()),
            "--substrates" => substrates = true,
            "--data-dir" => {
                config.durability.data_dir = Some(value("--data-dir").into());
            }
            "--group-commit" => {
                config.durability.group_commit =
                    value("--group-commit").parse().unwrap_or_else(|_| usage())
            }
            "--recover" => config.recover = true,
            "--durability-ab" => durability_ab = true,
            "--json-out" => json_out = Some(value("--json-out")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
    }

    if config.recover && !config.durability.enabled() {
        eprintln!("--recover needs --data-dir: there is nothing to recover from");
        usage();
    }
    if substrates {
        if durability_ab || config.durability.enabled() {
            eprintln!("--substrates is its own mode; drop --durability-ab/--data-dir");
            usage();
        }
        run_substrates(
            config.secs,
            &json_out.unwrap_or_else(|| "BENCH_substrates.json".into()),
        );
        return;
    }
    let json_out = json_out.unwrap_or_else(|| "BENCH_store.json".into());
    if durability_ab {
        if !config.durability.enabled() {
            eprintln!("--durability-ab needs --data-dir for its durable arm");
            usage();
        }
        run_durability_ab(config, &json_out);
        return;
    }

    let report = soak_arm(&config);
    write_json(&json_out, report.to_json());
    check_consistent(&report);
}

/// The hierarchy sweep: the same soak once per registered substrate,
/// one comparison table, one JSON document — and exit nonzero if any
/// substrate that promises consistency diverged (the CI backend-matrix
/// gate).
fn run_substrates(secs: f64, json_out: &str) {
    eprintln!(
        "substrate sweep: {} registered substrate(s), {secs}s each …",
        ff_store::substrate_names().len()
    );
    let arms = run_substrate_sweep(secs);
    println!("{}", substrate_table(&arms).render());
    for arm in &arms {
        println!("  {}: {}", arm.backend.name(), arm.backend.describe());
    }
    write_json(json_out, substrate_sweep_json(&arms));
    if !arms.iter().all(SubstrateArm::ok) {
        eprintln!("DIVERGENCE: a substrate that promises consistency did not verify");
        std::process::exit(1);
    }
}

fn soak_arm(config: &SoakConfig) -> SoakReport {
    eprintln!(
        "soaking: {} worker(s) x {} shard(s), {}s, backend {}, fault rate {}, durable {}{} …",
        config.threads,
        config.shards,
        config.secs,
        config.backend.name(),
        config.fault_rate,
        config.durability.enabled(),
        if config.recover { " (recovering)" } else { "" },
    );
    // A recovery refusal — replay divergence, torn config, I/O failure —
    // is this binary's exit-1 path: the CI smoke asserts a durable
    // restart either replays cleanly or fails loudly, never serves
    // guessed data.
    let report = try_run_soak(config).unwrap_or_else(|e| {
        eprintln!("SOAK REFUSED: {e}");
        std::process::exit(1);
    });
    println!("{}", report.render());
    report
}

/// The durability smoke: same configuration, purely in-memory then
/// with the WAL on, in one process. Fails unless both arms verify
/// consistent; the throughput ratio is reported, not gated.
fn run_durability_ab(mut config: SoakConfig, json_out: &str) {
    let durability = config.durability.clone();
    config.durability = DurabilityConfig::default();
    config.recover = false;
    let memory = soak_arm(&config);
    config.durability = durability;
    let durable = soak_arm(&config);

    let base = memory.metrics.total_ops_per_sec();
    let with = durable.metrics.total_ops_per_sec();
    let ratio = if base > 0.0 { with / base } else { 0.0 };
    println!("\nA/B: in-memory {base:.0} ops/sec, durable {with:.0} ops/sec (×{ratio:.2})");

    write_json(
        json_out,
        JsonValue::Object(vec![
            ("mode".into(), JsonValue::String("durability-ab".into())),
            ("memory".into(), memory.to_json()),
            ("durable".into(), durable.to_json()),
            ("durable_ratio".into(), JsonValue::Number(ratio)),
        ]),
    );

    check_consistent(&memory);
    check_consistent(&durable);
}

fn write_json(path: &str, json: JsonValue) {
    std::fs::write(path, json.render()).unwrap_or_else(|e| {
        eprintln!("failed to write {path}: {e}");
        std::process::exit(1);
    });
    eprintln!("wrote {path}");
}

fn check_consistent(report: &SoakReport) {
    if !report.consistent {
        eprintln!("DIVERGENCE: shards did not agree (expected only under --backend naive)");
        std::process::exit(1);
    }
}
