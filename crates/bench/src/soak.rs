//! `ff soak` — hammer an `ff-store` from N closed-loop workers, verify
//! that every replica of every shard converged, print the
//! latency/throughput/fault tables and write the machine-readable
//! report. Exits 1 if any shard diverged — which `--backend naive`
//! exists to demonstrate — or if a `--recover` run was refused.
//!
//! `--data-dir DIR` turns on the per-shard write-ahead log; add
//! `--recover` to rebuild the store from the WAL files already in the
//! directory before soaking (CI kill-9s a durable soak and restarts it
//! exactly like this). `--substrates` runs the hierarchy sweep instead.

use crate::cli::{write_json, Args, Exit};
use crate::experiments::{
    run_substrate_sweep, substrate_sweep_json, substrate_table, SubstrateArm,
};
use crate::flags::{json_out, soak_config, SUBSTRATES, THREADS};
use ff_store::{try_run_soak, SoakConfig};

/// The `soak` command.
pub fn run(args: &Args) -> Result<(), Exit> {
    let config = SoakConfig {
        threads: args.int(&THREADS) as usize,
        ..soak_config(args)?
    };
    if args.on(&SUBSTRATES) {
        if config.durability.enabled() {
            return Err(Exit::Usage(
                "--substrates is its own mode; drop --data-dir".into(),
            ));
        }
        return substrates(config.secs, json_out(args, "BENCH_substrates.json"));
    }
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
    // is an exit-1 path: the CI smoke asserts a durable restart either
    // replays cleanly or fails loudly, never serves guessed data.
    let report = try_run_soak(&config).map_err(|e| Exit::Failed(format!("SOAK REFUSED: {e}")))?;
    println!("{}", report.render());
    write_json(
        json_out(args, "BENCH_store.json"),
        report.to_json().render(),
    )?;
    if !report.consistent {
        return Err(Exit::Failed(
            "DIVERGENCE: shards did not agree (expected only under --backend naive)".into(),
        ));
    }
    Ok(())
}

/// The hierarchy sweep: the same soak once per registered substrate,
/// one comparison table, one JSON document — and exit 1 if any
/// substrate that promises consistency diverged (the CI backend-matrix
/// gate).
fn substrates(secs: f64, json_out: &str) -> Result<(), Exit> {
    eprintln!(
        "substrate sweep: {} registered substrate(s), {secs}s each …",
        ff_store::substrate_names().len()
    );
    let arms = run_substrate_sweep(secs);
    println!("{}", substrate_table(&arms).render());
    for arm in &arms {
        println!("  {}: {}", arm.backend.name(), arm.backend.describe());
    }
    write_json(json_out, substrate_sweep_json(&arms).render())?;
    if !arms.iter().all(SubstrateArm::ok) {
        return Err(Exit::Failed(
            "DIVERGENCE: a substrate that promises consistency did not verify".into(),
        ));
    }
    Ok(())
}
