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
//! `--combining` routes every worker through the flat-combining shard
//! cores. `--ab` runs the same configuration twice in one process —
//! first uncombined, then combined — writes both arms into one JSON
//! document, and exits nonzero unless both arms verified consistent
//! *and* the combined arm was at least as fast; CI's combining smoke
//! is exactly this mode.
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
         \x20           [--combining] [--ab] [--json-out PATH]\n\
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
    let mut ab = false;
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
            "--combining" => config.combining = true,
            "--ab" => ab = true,
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
        if ab || durability_ab || config.durability.enabled() {
            eprintln!("--substrates is its own mode; drop --ab/--durability-ab/--data-dir");
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
        if ab {
            eprintln!("--ab and --durability-ab are separate modes; pick one");
            usage();
        }
        if !config.durability.enabled() {
            eprintln!("--durability-ab needs --data-dir for its durable arm");
            usage();
        }
        run_durability_ab(config, &json_out);
        return;
    }
    if ab {
        run_ab(config, &json_out);
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
        "soaking: {} worker(s) x {} shard(s), {}s, backend {}, fault rate {}, combining {}, durable {}{} …",
        config.threads,
        config.shards,
        config.secs,
        config.backend.name(),
        config.fault_rate,
        config.combining,
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

/// The CI combining smoke: same configuration, uncombined then
/// combined, in one process — so the comparison shares a build, a
/// machine state and a warm page cache. Fails unless both arms verify
/// consistent and combining did not lose throughput.
fn run_ab(mut config: SoakConfig, json_out: &str) {
    config.combining = false;
    let uncombined = soak_arm(&config);
    config.combining = true;
    let combined = soak_arm(&config);

    let base = uncombined.metrics.total_ops_per_sec();
    let with = combined.metrics.total_ops_per_sec();
    let speedup = if base > 0.0 { with / base } else { 0.0 };
    println!("\nA/B: uncombined {base:.0} ops/sec, combined {with:.0} ops/sec (×{speedup:.2})");

    write_json(
        json_out,
        JsonValue::Object(vec![
            ("mode".into(), JsonValue::String("ab".into())),
            ("uncombined".into(), uncombined.to_json()),
            ("combined".into(), combined.to_json()),
            ("speedup".into(), JsonValue::Number(speedup)),
        ]),
    );

    check_consistent(&uncombined);
    check_consistent(&combined);
    if with < base {
        eprintln!("REGRESSION: combined arm slower than uncombined (×{speedup:.2})");
        std::process::exit(1);
    }
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
