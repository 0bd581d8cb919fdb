//! The `ff` flag and command table: every flag any subcommand accepts
//! is declared here, once.

use crate::cli::{Args, Command, Exit, Flag, Kind, Positional, COUNT_MAX};
use ff_store::{DurabilityConfig, SoakConfig};

const COUNT: Kind = Kind::Int(1..=COUNT_MAX);

// --- The store and its workload: what `soak` and `net` share. ---------

static SHARDS: Flag = Flag {
    name: "--shards",
    kind: COUNT,
    default: Some("8"),
    help: "shards, each with its own log and consensus cells",
};
static BACKEND: Flag = Flag {
    name: "--backend",
    kind: Kind::Backend,
    default: Some("robust"),
    help: "consensus substrate every shard runs on",
};
static FAULT_RATE: Flag = Flag {
    name: "--fault-rate",
    kind: Kind::Real(0.0..=1.0),
    default: Some("0.2"),
    help: "fault probability per CAS on injecting substrates",
};
static CHECKPOINT_INTERVAL: Flag = Flag {
    name: "--checkpoint-interval",
    kind: COUNT,
    default: Some("64"),
    help: "log slots between checkpoints",
};
static SEED: Flag = Flag {
    name: "--seed",
    kind: Kind::Seed,
    default: Some("0x50a6b65e"),
    help: "seed of the workload and fault streams (echoed in the JSON)",
};
static KEYSPACE: Flag = Flag {
    name: "--keyspace",
    kind: COUNT,
    default: Some("4096"),
    help: "keys are drawn uniformly from 0..N",
};
static READ_PCT: Flag = Flag {
    name: "--read-pct",
    kind: Kind::Int(0..=100),
    default: Some("70"),
    help: "percentage of gets; the rest splits 2:1 into puts and dels",
};
static SECS: Flag = Flag {
    name: "--secs",
    kind: Kind::Real(0.001..=1e9),
    default: Some("10"),
    help: "measured seconds per run",
};
static DATA_DIR: Flag = Flag {
    name: "--data-dir",
    kind: Kind::Text,
    default: None,
    help: "write-ahead log every shard into this directory (default: in memory)",
};
static GROUP_COMMIT: Flag = Flag {
    name: "--group-commit",
    kind: COUNT,
    default: Some("512"),
    help: "decided records per fsync (with --data-dir)",
};
static RECOVER: Flag = Flag {
    name: "--recover",
    kind: Kind::Switch,
    default: None,
    help: "rebuild the store from the WAL in --data-dir before the run",
};
static JSON_OUT: Flag = Flag {
    name: "--json-out",
    kind: Kind::Text,
    default: None,
    help: "where the JSON report goes (default BENCH_store.json, BENCH_substrates.json, BENCH_net.json)",
};

static STORE_FLAGS: [&Flag; 12] = [
    &SHARDS,
    &BACKEND,
    &FAULT_RATE,
    &CHECKPOINT_INTERVAL,
    &SEED,
    &KEYSPACE,
    &READ_PCT,
    &SECS,
    &DATA_DIR,
    &GROUP_COMMIT,
    &RECOVER,
    &JSON_OUT,
];

/// The shared store/workload flags as one [`SoakConfig`] (one worker;
/// `soak` sets its own count) — refused with exit 2 if they do not
/// describe a store [`SoakConfig::store_config`] will build.
pub fn soak_config(args: &Args) -> Result<SoakConfig, Exit> {
    let config = SoakConfig {
        threads: 1,
        shards: args.int(&SHARDS) as usize,
        secs: args.real(&SECS),
        fault_rate: args.real(&FAULT_RATE),
        backend: args.backend(&BACKEND),
        read_pct: args.int(&READ_PCT) as u32,
        keyspace: args.int(&KEYSPACE) as u32,
        checkpoint_interval: args.int(&CHECKPOINT_INTERVAL) as usize,
        durability: DurabilityConfig {
            data_dir: args.text(&DATA_DIR).map(Into::into),
            group_commit: args.int(&GROUP_COMMIT) as usize,
            ..DurabilityConfig::default()
        },
        recover: args.on(&RECOVER),
        seed: args.int(&SEED),
    };
    if config.recover && !config.durability.enabled() {
        return Err(Exit::Usage(
            "--recover needs --data-dir: there is nothing to recover from".into(),
        ));
    }
    config
        .store_config()
        .map_err(|e| Exit::Usage(format!("invalid configuration: {e}")))?;
    Ok(config)
}

/// The `--json-out` path, or `default`.
pub fn json_out<'a>(args: &'a Args, default: &'a str) -> &'a str {
    args.text(&JSON_OUT).unwrap_or(default)
}

// --- soak ------------------------------------------------------------

pub(crate) static THREADS: Flag = Flag {
    name: "--threads",
    kind: COUNT,
    default: Some("4"),
    help: "closed-loop worker threads, one store client each",
};
pub(crate) static SUBSTRATES: Flag = Flag {
    name: "--substrates",
    kind: Kind::Switch,
    default: None,
    help: "the hierarchy sweep: the same soak once per registered substrate, --secs each",
};

// --- net -------------------------------------------------------------

pub(crate) static CONNECTIONS: Flag = Flag {
    name: "--connections",
    kind: Kind::Int(1..=1_000_000),
    default: Some("4"),
    help: "TCP connections, each keeping one BATCH frame in flight",
};
pub(crate) static BATCH: Flag = Flag {
    name: "--batch",
    kind: Kind::Int(1..=65_536),
    default: Some("8"),
    help: "operations per BATCH frame",
};
pub(crate) static SWEEP: Flag = Flag {
    name: "--sweep",
    kind: Kind::Switch,
    default: None,
    help: "run the 100 / 1,000 / 10,000-connection trajectory instead of --connections",
};

// --- report ----------------------------------------------------------

pub(crate) static REPORT_JSON: Flag = Flag {
    name: "--json",
    kind: Kind::Text,
    default: None,
    help: "write every rendered table to this file",
};
pub(crate) static REPORT_JSON_OUT: Flag = Flag {
    name: "--json-out",
    kind: Kind::Text,
    default: None,
    help: "write the run summary (verdicts, wall times, explorer calibration) to this file",
};
pub(crate) static REPORT_THREADS: Flag = Flag {
    name: "--threads",
    kind: COUNT,
    default: None,
    help: "explorer worker threads for every exhaustive scan (default: all cores)",
};

// --- dst -------------------------------------------------------------

pub(crate) static SCENARIO: Flag = Flag {
    name: "--scenario",
    kind: Kind::Text,
    default: None,
    help: "corpus scenario (`ff dst corpus` lists them)",
};
pub(crate) static ARM: Flag = Flag {
    name: "--arm",
    kind: Kind::Text,
    default: None,
    help: "one of the scenario's arms, or a registered substrate where it takes those",
};
pub(crate) static DST_SEED: Flag = Flag {
    name: "--seed",
    kind: Kind::Seed,
    default: Some("0xdd570001"),
    help: "root seed of the simulation (default: the pinned corpus seed)",
};
pub(crate) static OUT: Flag = Flag {
    name: "--out",
    kind: Kind::Text,
    default: None,
    help: "where the minimized golden trace goes",
};
pub(crate) static GOLDEN: Flag = Flag {
    name: "--golden",
    kind: Kind::Text,
    default: None,
    help: "golden-trace file to replay",
};
pub(crate) static TRACE: Flag = Flag {
    name: "--trace",
    kind: Kind::Switch,
    default: None,
    help: "print the full event trace",
};
static DST_THREADS: Flag = Flag {
    name: "--threads",
    kind: COUNT,
    default: None,
    help:
        "accepted and ignored: the simulation is single-threaded, so the trace cannot depend on it",
};

// --- witness ---------------------------------------------------------

pub(crate) static THM18_N: Flag = Flag {
    name: "n",
    kind: Kind::Int(3..=8),
    default: Some("3"),
    help: "processes (n = 2 is safe by Theorem 4; past 8 the search outgrows its state budget)",
};
pub(crate) static THM19_F: Flag = Flag {
    name: "f",
    kind: Kind::Int(1..=64),
    default: Some("2"),
    help: "faulty objects the attack covers, against n = f + 2 processes",
};

/// Every `ff` subcommand.
pub static COMMANDS: [Command; 9] = [
    Command {
        path: &["soak"],
        about: "closed-loop soak of the sharded store under live faults; exits 1 on divergence",
        flags: &[&[&THREADS, &SUBSTRATES], &STORE_FLAGS],
        positional: Positional::None,
        run: crate::soak::run,
    },
    Command {
        path: &["net"],
        about: "the same closed loop over localhost TCP against the reactor server",
        flags: &[&[&CONNECTIONS, &BATCH, &SWEEP], &STORE_FLAGS],
        positional: Positional::None,
        run: crate::net::run,
    },
    Command {
        path: &["report"],
        about: "run experiments (`all`, `list`, or ids e1…e21) and print their tables",
        flags: &[&[&REPORT_JSON, &REPORT_JSON_OUT, &REPORT_THREADS]],
        positional: Positional::Words("id"),
        run: crate::report::run,
    },
    Command {
        path: &["dst", "run"],
        about: "simulate one (scenario, arm, seed); exits 1 if the arm broke its contract",
        flags: &[&[&SCENARIO, &ARM, &DST_SEED, &DST_THREADS, &TRACE]],
        positional: Positional::None,
        run: crate::dst::run,
    },
    Command {
        path: &["dst", "corpus"],
        about: "simulate every (scenario, arm) of the corpus at one seed",
        flags: &[&[&DST_SEED, &DST_THREADS]],
        positional: Positional::None,
        run: crate::dst::corpus,
    },
    Command {
        path: &["dst", "minimize"],
        about: "record a failing run, ddmin its fault script, write a golden trace",
        flags: &[&[&SCENARIO, &ARM, &DST_SEED, &OUT]],
        positional: Positional::None,
        run: crate::dst::minimize,
    },
    Command {
        path: &["dst", "replay"],
        about: "replay a golden trace; exits 1 if its violation no longer reproduces",
        flags: &[&[&GOLDEN, &DST_THREADS, &TRACE]],
        positional: Positional::None,
        run: crate::dst::replay,
    },
    Command {
        path: &["witness", "thm18"],
        about: "shortest violating execution of a one-shot protocol on one unboundedly faulty CAS",
        flags: &[],
        positional: Positional::One(&THM18_N),
        run: crate::witness::thm18,
    },
    Command {
        path: &["witness", "thm19"],
        about: "the covering attack on the staged protocol, as a schedule narrative",
        flags: &[],
        positional: Positional::One(&THM19_F),
        run: crate::witness::thm19,
    },
];
