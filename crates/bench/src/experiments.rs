//! E15–E21: the system-scale experiments, and the one registry that
//! lists them after `ff-workload`'s E1–E14.
//!
//! They live here because this is the only crate that may depend on
//! everything: the store soak (E15), the same workload over TCP (E16,
//! and E17 through the reactor's hard paths), the flat-combining study
//! that needs store *and* simulator (E18), the deterministic
//! whole-system simulation and its durability matrix (E19/E20) and the
//! substrate hierarchy sweep (E21). The layers below export plain
//! functions; "pass" still means the run matched the paper's
//! prediction — including that the naive witness was caught.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ff_dst::scenario::{arm_ok, arms, run_scenario, CORPUS, E19_SEED};
use ff_dst::ScriptMode;
use ff_net::{NetClient, NetServer, ServerConfig};
use ff_sim::{check_combining, combining_crash_grid, combining_grid, CombineModelConfig};
use ff_store::metrics::format_ns;
use ff_store::{
    all_backends, drive_clients, run_soak, Backend, FaultConfig, Kv, KvOp, SoakConfig, SoakReport,
    Store, StoreConfig, StoreMetrics, WorkloadMix,
};
use ff_workload::{Experiment, ExperimentResult, JsonValue, Table};

/// One system-scale experiment: a row of [`registry`].
struct System {
    id: &'static str,
    title: &'static str,
    paper_ref: &'static str,
    body: fn() -> Outcome,
}

/// What an experiment body reports; [`System`] adds the identity.
struct Outcome {
    tables: Vec<Table>,
    notes: Vec<String>,
    pass: bool,
}

impl Experiment for System {
    fn id(&self) -> &'static str {
        self.id
    }

    fn title(&self) -> &'static str {
        self.title
    }

    fn run(&self) -> ExperimentResult {
        let Outcome {
            tables,
            notes,
            pass,
        } = (self.body)();
        ExperimentResult {
            id: self.id.into(),
            title: self.title.into(),
            paper_ref: self.paper_ref.into(),
            tables,
            notes,
            pass,
        }
    }
}

const SYSTEM: [System; 7] = [
    System {
        id: "e15",
        title: "Sharded store soak: robust shards consistent, naive shards diverge",
        paper_ref: "Sections 4–6 composed at system scale",
        body: e15,
    },
    System {
        id: "e16",
        title: "Network soak: the Kv workload over TCP under live fault ramps",
        paper_ref: "Sections 4–6 composed at system scale, across a transport",
        body: || {
            net_soak(
                3,
                ServerConfig::default(),
                (0xE16, 0x16E),
                "both arms run the identical drive_clients workload; only the Kv \
                 implementation (NetClient vs StoreClient) differs",
            )
        },
    },
    System {
        id: "e17",
        title: "Reactor soak: cross-connection batching on per-loop clients under live fault ramps",
        paper_ref: "Sections 4–6 at system scale, through the readiness-driven reactor",
        // More connections than event loops — four per loop, two loops
        // racing each other's combine passes — so operations from
        // different clients coalesce into merged runs on each loop's
        // one store client.
        body: || {
            net_soak(
                8,
                ServerConfig {
                    max_connections: 32,
                    loops: 2,
                    ..ServerConfig::default()
                },
                (0xE17, 0x17E),
                "8 connections share 2 per-loop store clients, so every merged run crosses \
                 connection boundaries; divergence still arrives as a typed error frame, \
                 never as data",
            )
        },
    },
    System {
        id: "e18",
        title: "Flat-combining shard cores: read fast path, model grid",
        paper_ref: "flat combining over the robust universal construction (Sections 4–6)",
        body: || {
            let mut grid = combining_grid();
            grid.extend(combining_crash_grid());
            e18(&grid, 0.6)
        },
    },
    System {
        id: "e19",
        title: "deterministic whole-system simulation: kills, partitions, replayable seeds",
        paper_ref: "whole-system validation of §4-§6 constructions under systemic faults",
        body: e19,
    },
    System {
        id: "e20",
        title: "durable kill-recover: WAL replay after kills, torn power-fail tails, refused naive replay",
        paper_ref: "crash-prone processes over surviving shared state (Golab; \
                    Lundström/Raynal/Schiller) layered on the paper's functional faults",
        body: e20,
    },
    System {
        id: "e21",
        title: "Consensus-substrate hierarchy sweep: same store, every substrate",
        paper_ref: "hierarchy corollary: robust constructions over weaker substrates (S5.2)",
        body: || e21(1.0),
    },
];

/// Every experiment of EXPERIMENTS.md, E1–E21, in id order.
pub fn registry() -> Vec<Box<dyn Experiment>> {
    let mut all = ff_workload::registry();
    all.extend(SYSTEM.map(|e| Box::new(e) as Box<dyn Experiment>));
    all
}

/// Look up one experiment by id (case-insensitive).
pub fn find(id: &str) -> Option<Box<dyn Experiment>> {
    registry()
        .into_iter()
        .find(|e| e.id().eq_ignore_ascii_case(id))
}

/// Run `arm` on attempt 0, 1, … until it returns a flagged outcome, at
/// most `attempts` times. The naive witness is existential — a junk
/// word has to land where replicas disagree about it — so every
/// experiment that must *catch* it retries over seeds derived from the
/// attempt number instead of betting on one.
fn until_flagged<T>(attempts: u64, mut arm: impl FnMut(u64) -> Option<T>) -> Option<(u64, T)> {
    (0..attempts).find_map(|attempt| arm(attempt).map(|out| (attempt, out)))
}

const WITNESS_ATTEMPTS: u64 = 12;

// ---------------------------------------------------------------------
// E15 — the store-level soak.
// ---------------------------------------------------------------------

fn e15() -> Outcome {
    let mut table = Table::new(
        "store soak (threads=3, shards=3, mixed fault kinds)",
        &[
            "backend",
            "fault rate",
            "ops",
            "checkpoints",
            "max retained",
            "consistent",
        ],
    );
    let base = SoakConfig {
        threads: 3,
        shards: 3,
        checkpoint_interval: 16,
        ..SoakConfig::default()
    };
    let mut row = |report: &SoakReport| {
        table.push_row(&[
            report.config.backend.name().to_string(),
            format!("{:.2}", report.config.fault_rate),
            report.metrics.total_ops().to_string(),
            report
                .consistency
                .iter()
                .map(|s| s.checkpoints)
                .sum::<u64>()
                .to_string(),
            report.max_retained_during_run.to_string(),
            report.consistent.to_string(),
        ]);
    };

    let robust = run_soak(&SoakConfig {
        secs: 0.5,
        fault_rate: 0.25,
        ..base.clone()
    });
    row(&robust);

    let mut naive_ops = 0;
    let naive = until_flagged(WITNESS_ATTEMPTS, |attempt| {
        let naive = run_soak(&SoakConfig {
            secs: 0.2,
            fault_rate: 1.0,
            backend: Backend::naive(),
            seed: 0xE15 + attempt,
            ..base.clone()
        });
        naive_ops += naive.metrics.total_ops();
        (!naive.consistent).then_some(naive)
    });
    let mut notes = Vec::new();
    match &naive {
        Some((attempt, naive)) => {
            row(naive);
            notes.push(format!(
                "naive backend diverged at seed offset {attempt} (shards {:?})",
                naive
                    .consistency
                    .iter()
                    .filter(|s| !s.consistent)
                    .map(|s| s.shard)
                    .collect::<Vec<_>>()
            ));
        }
        None => notes.push(format!(
            "naive backend stayed consistent across {WITNESS_ATTEMPTS} seeds ({naive_ops} ops) — \
             violation not observed"
        )),
    }
    notes.push(format!(
        "robust arm: {} observable faults injected, retained log ≤ {} during run",
        observable_faults(&robust),
        robust.max_retained_during_run
    ));
    Outcome {
        tables: vec![table],
        notes,
        pass: robust.consistent && naive.is_some(),
    }
}

/// Observable (Definition 1) faults summed over every shard.
fn observable_faults(report: &SoakReport) -> u64 {
    report.metrics.faults.iter().map(|f| f.observable).sum()
}

// ---------------------------------------------------------------------
// E16/E17 — the soak of E15, pushed through the network path.
// ---------------------------------------------------------------------

/// The fault-rate ramp the `during` hook walks while workers hammer
/// the server: quiet → heavy → quiet, stepping every ~100 ms.
const RAMP: [f64; 6] = [0.0, 0.1, 0.3, 0.5, 0.2, 0.05];

struct NetArm {
    ops: u64,
    client_errors: Vec<String>,
    divergence_seen_remotely: bool,
    verify_consistent: bool,
    diverged_shards: Vec<usize>,
}

/// One arm: store + server + `connections` TCP clients driven through
/// the same [`drive_clients`] loop the in-process soak runs, the fault
/// knobs ramped live, then a drain and a full verify once the server's
/// loop clients have retired.
fn net_soak_arm(
    backend: Backend,
    secs: f64,
    seed: u64,
    connections: usize,
    server_config: ServerConfig,
) -> NetArm {
    let store = Arc::new(Store::new(
        StoreConfig::builder()
            .shards(3)
            .backend(backend)
            .fault_rate(0.0) // the ramp owns the rate
            .rotate_kinds(true)
            .checkpoint_interval(16)
            .seed(seed)
            .build()
            .expect("arm config is valid"),
    ));
    let server = NetServer::start(Arc::clone(&store), "127.0.0.1:0", server_config)
        .expect("bind ephemeral port");
    let clients: Vec<NetClient> = (0..connections)
        .map(|_| NetClient::connect(server.addr()).expect("connect to own server"))
        .collect();

    let metrics = StoreMetrics::default();
    let mix = WorkloadMix {
        read_pct: 50,
        keyspace: 256,
        seed,
        batch: 4,
    };
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(secs);
    let knobs: Vec<_> = (0..store.shards()).map(|s| store.fault_knob(s)).collect();
    let outcome = drive_clients(clients, &mix, deadline, &metrics, || {
        let step = (started.elapsed().as_millis() / 100) as usize % RAMP.len();
        for knob in &knobs {
            knob.set_rate(RAMP[step]);
        }
    });
    // Freeze injection before the drain so verification measures what
    // the run did, not what the drain adds.
    for knob in &knobs {
        knob.set_rate(0.0);
    }
    let divergence_seen_remotely = outcome.divergence_errors() > 0;
    let client_errors: Vec<String> = outcome.errors.iter().map(|e| e.to_string()).collect();
    drop(outcome.clients); // hang up
    let mut report = server.shutdown();
    let consistency = store.verify(&mut report.clients);
    NetArm {
        ops: report.ops_served,
        client_errors,
        divergence_seen_remotely,
        verify_consistent: consistency.all_consistent(),
        diverged_shards: consistency.diverged_shards(),
    }
}

/// E15's claim with every operation crossing a real TCP connection and
/// the server's cross-connection batching. Divergence additionally has
/// to survive the wire: the naive arm passes when the *remote* client
/// observes it — an error frame or a failed post-drain verify — instead
/// of wrong data.
fn net_soak(
    connections: usize,
    server: ServerConfig,
    (robust_seed, naive_seed): (u64, u64),
    shape_note: &str,
) -> Outcome {
    let loops = match server.loops {
        0 => "one event loop per core".to_string(),
        n => format!("{n} event loops"),
    };
    let mut table = Table::new(
        format!(
            "TCP soak ({connections} connections, {loops}, 3 shards, ramped fault rate 0→0.5→0)"
        ),
        &[
            "backend",
            "ops served",
            "remote divergence",
            "verify consistent",
        ],
    );
    let mut row = |backend: &str, arm: &NetArm| {
        table.push_row(&[
            backend.to_string(),
            arm.ops.to_string(),
            arm.divergence_seen_remotely.to_string(),
            arm.verify_consistent.to_string(),
        ]);
    };
    let mut notes = Vec::new();

    let robust = net_soak_arm(
        Backend::robust(),
        0.5,
        robust_seed,
        connections,
        server.clone(),
    );
    row("robust", &robust);
    let robust_ok = robust.verify_consistent && robust.client_errors.is_empty();
    for e in &robust.client_errors {
        notes.push(format!("robust arm client error: {e}"));
    }

    let mut naive_ops = 0;
    let naive = until_flagged(WITNESS_ATTEMPTS, |attempt| {
        let seed = naive_seed ^ (attempt << 8);
        let naive = net_soak_arm(Backend::naive(), 0.2, seed, connections, server.clone());
        naive_ops += naive.ops;
        (naive.divergence_seen_remotely || !naive.verify_consistent).then_some(naive)
    });
    match &naive {
        Some((attempt, naive)) => {
            row("naive", naive);
            notes.push(format!(
                "naive arm flagged at attempt {attempt}: {} (shards {:?})",
                if naive.divergence_seen_remotely {
                    "client received a divergence error over the wire"
                } else {
                    "post-drain verify found inconsistent shards"
                },
                naive.diverged_shards,
            ));
        }
        None => notes.push(format!(
            "naive arm stayed clean across {WITNESS_ATTEMPTS} attempts ({naive_ops} ops) — \
             violation not observed"
        )),
    }
    notes.push(shape_note.to_string());
    Outcome {
        tables: vec![table],
        notes,
        pass: robust_ok && naive.is_some(),
    }
}

// ---------------------------------------------------------------------
// E18 — flat combining: the read fast path and the model grid.
// ---------------------------------------------------------------------

/// Parameterized so the unit test can run a trimmed grid and shorter
/// arms (`ff-sim` already exhausts the full grid in its own tests;
/// re-walking the 3-client configs under the debug profile would
/// dominate the suite for no new coverage).
fn e18(grid: &[CombineModelConfig], secs: f64) -> Outcome {
    let mut notes = Vec::new();
    let mut pass = true;

    // Arm 1 — read-share sweep: the wait-free snapshot read should
    // absorb nearly every GET, and the heavier the read mix the more of
    // the workload never touches the log.
    let mut sweep = Table::new(
        "read-share sweep (threads=3, shards=4, fault rate 0.2, mixed kinds)",
        &[
            "read %",
            "ops/sec",
            "fastpath hits",
            "fallbacks",
            "hit rate",
        ],
    );
    for read_pct in [50u32, 70, 95] {
        let report = run_soak(&SoakConfig {
            read_pct,
            ..sweep_config(Backend::robust(), secs)
        });
        pass &= report.consistent;
        let c = report
            .metrics
            .combining
            .expect("a soak must snapshot combiner counters");
        sweep.push_row(&[
            read_pct.to_string(),
            format!("{:.0}", report.metrics.total_ops_per_sec()),
            c.fastpath_hits.to_string(),
            c.fastpath_misses.to_string(),
            format!("{:.1}%", c.hit_rate() * 100.0),
        ]);
        if read_pct == 95 {
            // The acceptance bar: a read-heavy workload must be served
            // almost entirely by the wait-free path.
            if c.hit_rate() <= 0.9 {
                notes.push(format!(
                    "FAIL: 95%-GET arm fast-path hit rate {:.1}% ≤ 90%",
                    c.hit_rate() * 100.0
                ));
                pass = false;
            } else {
                notes.push(format!(
                    "95%-GET arm answered {:.1}% of reads wait-free",
                    c.hit_rate() * 100.0
                ));
            }
        }
    }

    // Arm 2 — the exhaustive model grid: no stale read past the decided
    // tail, no lost or duplicated op under combiner hand-off — nor
    // under adversarial combiner kills with the lease reclaim on —
    // across every interleaving of every small configuration.
    let mut model = Table::new(
        "combining model grid (exhaustive; stutters = tolerated cell faults, crashes = combiner kills)",
        &[
            "clients", "rounds", "stutters", "crashes", "lease", "states", "stale", "lost", "dup",
        ],
    );
    for cfg in grid {
        let report = check_combining(cfg);
        pass &= report.clean();
        model.push_row(&[
            cfg.clients.to_string(),
            cfg.rounds.to_string(),
            format!("{:?}", cfg.stutter_budget),
            cfg.crashes.to_string(),
            cfg.lease.to_string(),
            report.states.to_string(),
            report.stale_reads.to_string(),
            report.lost_ops.to_string(),
            report.duplicated_ops.to_string(),
        ]);
    }

    Outcome {
        tables: vec![sweep, model],
        notes,
        pass,
    }
}

// ---------------------------------------------------------------------
// E19/E20 — the DST corpus and the durability story.
// ---------------------------------------------------------------------

/// Run `(scenario, arm)` at the pinned seed; a broken contract fails
/// the experiment and is noted.
fn corpus_run(
    scenario: &str,
    arm: &str,
    pass: &mut bool,
    notes: &mut Vec<String>,
) -> (ff_dst::RunReport, &'static str) {
    let r = run_scenario(scenario, arm, E19_SEED, ScriptMode::Record);
    let ok = arm_ok(&r);
    *pass &= ok;
    if !ok {
        notes.push(format!(
            "{scenario}/{arm} broke its contract: flagged={} violations={:?}",
            r.flagged, r.violations
        ));
    }
    (r, if ok { "ok" } else { "BROKEN" })
}

/// Every `(scenario, arm)` pair at the pinned seed against its arm's
/// contract, then two runs each of three scenarios to prove
/// bit-identical trace fingerprints — the determinism claim.
fn e19() -> Outcome {
    let mut table = Table::new(
        "scenario corpus @ pinned seed",
        &[
            "scenario",
            "arm",
            "events",
            "net decisions",
            "completed",
            "consistent",
            "flagged",
            "violations",
            "contract",
        ],
    );
    let mut pass = true;
    let mut notes = Vec::new();
    for def in CORPUS {
        for arm in def.arms {
            let (r, contract) = corpus_run(def.name, arm, &mut pass, &mut notes);
            table.row(&[
                def.name.to_string(),
                arm.to_string(),
                r.events.to_string(),
                r.decisions.to_string(),
                r.completed.to_string(),
                r.consistent.to_string(),
                r.flagged.to_string(),
                if r.violations.is_empty() {
                    "-".to_string()
                } else {
                    r.violations.join("; ")
                },
                contract.to_string(),
            ]);
        }
    }

    let mut det = Table::new(
        "determinism (two in-process runs)",
        &["scenario", "arm", "hash run 1", "hash run 2", "equal"],
    );
    for (scenario, arm) in [
        ("partition-ramp", "robust"),
        ("kill-combiner", "lease"),
        // The durable path: same seed must mean the same recovery.
        ("kill-recover", "torn"),
    ] {
        let a = run_scenario(scenario, arm, E19_SEED, ScriptMode::Record);
        let b = run_scenario(scenario, arm, E19_SEED, ScriptMode::Record);
        let equal = a.trace_hash == b.trace_hash && a.trace == b.trace;
        pass &= equal;
        if !equal {
            notes.push(format!("{scenario}/{arm} is nondeterministic"));
        }
        det.row(&[
            scenario.to_string(),
            arm.to_string(),
            format!("{:016x}", a.trace_hash),
            format!("{:016x}", b.trace_hash),
            equal.to_string(),
        ]);
    }

    notes.push(
        "robust/lease/torn arms must end verify-consistent and live; naive must be flagged; \
         nolease must stall on the parked ops"
            .to_string(),
    );
    Outcome {
        tables: vec![table, det],
        notes,
        pass,
    }
}

/// The `kill-recover` scenario up close: the robust/torn/naive matrix
/// with per-arm recovery counters at the pinned seed, plus measured
/// wall-clock recovery times over a real on-disk WAL.
fn e20() -> Outcome {
    let mut pass = true;
    let mut notes = Vec::new();

    let mut matrix = Table::new(
        "kill-recover matrix @ pinned seed",
        &[
            "arm",
            "completed",
            "ckpts loaded",
            "records replayed",
            "torn tails",
            "recovery refused",
            "consistent",
            "flagged",
            "contract",
        ],
    );
    for arm in arms("kill-recover").expect("kill-recover is a corpus scenario") {
        let (r, contract) = corpus_run("kill-recover", arm, &mut pass, &mut notes);
        matrix.row(&[
            arm.to_string(),
            r.completed.to_string(),
            r.recovered_checkpoints.to_string(),
            r.recovered_records.to_string(),
            r.recovered_torn.to_string(),
            r.recovery_refused.to_string(),
            r.consistent.to_string(),
            r.flagged.to_string(),
            contract.to_string(),
        ]);
    }

    let mut timing = Table::new(
        "measured recovery time (FsMedia, robust backend, 2 shards)",
        &[
            "ops written",
            "ckpts loaded",
            "records replayed",
            "recover wall ms",
            "verify",
        ],
    );
    for n in [2_000u32, 20_000] {
        match timed_recovery(n) {
            Ok(t) => {
                pass &= t.verified;
                timing.row(&[
                    n.to_string(),
                    t.checkpoints.to_string(),
                    t.records.to_string(),
                    format!("{:.1}", t.wall_ms),
                    t.verified.to_string(),
                ]);
            }
            Err(e) => {
                pass = false;
                notes.push(format!("timed recovery at n={n} failed: {e}"));
            }
        }
    }

    notes.push(
        "robust arm: kill drops the store, replay restores it verify-consistent; torn arm: \
         power loss tears the in-flight group commit and recovery lands on the last \
         completed fsync; naive arm: replay through faulty naive cells diverges from the \
         recorded digests and the respawn is refused — never served"
            .to_string(),
    );
    Outcome {
        tables: vec![matrix, timing],
        notes,
        pass,
    }
}

struct TimedRecovery {
    checkpoints: u64,
    records: u64,
    wall_ms: f64,
    verified: bool,
}

/// Write `n` ops through a durable store on a real temp dir, drop it
/// cold (the kill model — the unsynced group-commit tail is lost), and
/// time `Store::recover` on the same dir.
fn timed_recovery(n: u32) -> Result<TimedRecovery, String> {
    let dir = std::env::temp_dir().join(format!("ff-e20-{}-{n}", std::process::id()));
    let config = StoreConfig::builder()
        .shards(2)
        .backend(Backend::robust())
        .fault(FaultConfig {
            rate: 0.05,
            ..FaultConfig::default()
        })
        .rotate_kinds(true)
        .checkpoint_interval(64)
        .seed(0xE20)
        .data_dir(&dir)
        .group_commit(64)
        .build()
        .map_err(|e| e.to_string())?;
    {
        let store = Store::new(config.clone());
        let mut client = store.client();
        for i in 0..n {
            client
                .batch(&[KvOp::Put(i % 512, i)])
                .map_err(|e| e.to_string())?;
        }
    }
    let start = Instant::now();
    let (store, report) = Store::recover(config).map_err(|e| e.to_string())?;
    let wall_ms = start.elapsed().as_secs_f64() * 1_000.0;
    let timed = TimedRecovery {
        checkpoints: report.checkpoints_loaded(),
        records: report.records_replayed(),
        wall_ms,
        verified: store.verify(&mut []).all_consistent(),
    };
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(timed)
}

// ---------------------------------------------------------------------
// E21 — the substrate hierarchy sweep (also `ff soak --substrates`).
// ---------------------------------------------------------------------

/// The fault rate every fault-injecting arm of the hierarchy sweep
/// runs at — and that the acceptance bar (robust-composed arms end
/// `Store::verify`-consistent) is asserted at.
const SWEEP_FAULT_RATE: f64 = 0.2;

/// The standard sweep soak on `backend`: E18's read-share arms and
/// every row of the hierarchy sweep differ only in what they vary.
fn sweep_config(backend: Backend, secs: f64) -> SoakConfig {
    SoakConfig {
        threads: 3,
        shards: 4,
        secs,
        fault_rate: if backend.injects_faults() {
            SWEEP_FAULT_RATE
        } else {
            0.0
        },
        checkpoint_interval: 16,
        backend,
        ..SoakConfig::default()
    }
}

/// One substrate's measured row in the hierarchy sweep: the substrate's
/// declared identity next to how a whole store built on it actually
/// behaved under the standard soak.
pub(crate) struct SubstrateArm {
    /// The substrate this arm ran on.
    pub(crate) backend: Backend,
    /// The soak outcome (metrics, per-shard verdicts, consistency).
    pub(crate) report: SoakReport,
}

impl SubstrateArm {
    /// Did the arm honor its substrate's contract? Substrates that
    /// promise consistency must end `Store::verify`-consistent; the
    /// broken witness promises nothing, so either outcome honors it
    /// (its divergence is E10's business, not the sweep's).
    pub(crate) fn ok(&self) -> bool {
        self.report.consistent || !self.backend.expected_consistent()
    }
}

/// Run the hierarchy sweep: the same closed-loop soak once per
/// registered substrate — fault rate [`SWEEP_FAULT_RATE`] with kinds
/// rotated over each substrate's injected set, zero for substrates
/// that never inject — so the rows differ only in the substrate.
pub(crate) fn run_substrate_sweep(secs: f64) -> Vec<SubstrateArm> {
    all_backends()
        .into_iter()
        .map(|backend| SubstrateArm {
            report: run_soak(&sweep_config(backend.clone(), secs)),
            backend,
        })
        .collect()
}

/// Render the sweep as one comparison table (the E21 table).
pub(crate) fn substrate_table(arms: &[SubstrateArm]) -> Table {
    let mut table = Table::new(
        format!(
            "substrate hierarchy sweep (threads=3, shards=4, fault rate {SWEEP_FAULT_RATE} on injecting substrates, kinds rotated)"
        ),
        &[
            "substrate",
            "cn",
            "tolerates",
            "ops/sec",
            "put p50",
            "put p99",
            "observable faults",
            "consistent",
            "contract",
        ],
    );
    for arm in arms {
        let kinds = arm.backend.tolerated_kinds();
        table.push_row(&[
            arm.backend.name().to_string(),
            match arm.backend.consensus_number() {
                None => "∞ (hw CAS)".into(),
                Some(n) => n.to_string(),
            },
            if kinds.is_empty() {
                "—".into()
            } else {
                kinds
                    .iter()
                    .map(|k| k.to_string())
                    .collect::<Vec<_>>()
                    .join("+")
            },
            format!("{:.0}", arm.report.metrics.total_ops_per_sec()),
            format_ns(arm.report.metrics.writes.p50_ns),
            format_ns(arm.report.metrics.writes.p99_ns),
            observable_faults(&arm.report).to_string(),
            arm.report.consistent.to_string(),
            if arm.ok() { "ok" } else { "VIOLATED" }.to_string(),
        ]);
    }
    table
}

/// Serialize the sweep as the `BENCH_substrates.json` document: one
/// entry per substrate with its declared envelope and measured
/// throughput, latency percentiles, fault counts and survival verdict.
pub(crate) fn substrate_sweep_json(arms: &[SubstrateArm]) -> JsonValue {
    let entry = |arm: &SubstrateArm| {
        let b = &arm.backend;
        JsonValue::object([
            ("name", b.name().into()),
            ("describe", b.describe().into()),
            (
                "consensus_number",
                b.consensus_number().map_or(JsonValue::Null, Into::into),
            ),
            (
                "tolerates",
                b.tolerated_kinds().iter().map(|k| k.to_string()).collect(),
            ),
            ("injects_faults", b.injects_faults().into()),
            ("expected_consistent", b.expected_consistent().into()),
            ("observable_faults", observable_faults(&arm.report).into()),
            ("consistent", arm.report.consistent.into()),
            ("contract_ok", arm.ok().into()),
            ("report", arm.report.to_json()),
        ])
    };
    JsonValue::object([
        ("mode", "substrates".into()),
        ("fault_rate", SWEEP_FAULT_RATE.into()),
        ("substrates", arms.iter().map(entry).collect()),
    ])
}

/// Parameterized so the unit test can run short arms.
fn e21(secs: f64) -> Outcome {
    let arms = run_substrate_sweep(secs);
    let mut notes: Vec<String> = arms
        .iter()
        .map(|a| format!("{}: {}", a.backend.name(), a.backend.describe()))
        .collect();
    for arm in arms.iter().filter(|a| !a.ok()) {
        notes.push(format!(
            "FAIL: substrate {} promised consistency and diverged",
            arm.backend.name()
        ));
    }
    if let Some(naive) = arms.iter().find(|a| !a.backend.expected_consistent()) {
        notes.push(format!(
            "the broken witness ({}) {} in this window — its divergence proof is E10's \
             exhaustive check, not this sweep",
            naive.backend.name(),
            if naive.report.consistent {
                "happened to stay consistent"
            } else {
                "diverged, as the paper predicts"
            }
        ));
    }
    Outcome {
        pass: arms.iter().all(SubstrateArm::ok),
        tables: vec![substrate_table(&arms)],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_spec::Bound;

    fn assert_passes(id: &str) {
        let result = find(id).expect("registered").run();
        assert!(result.pass, "{id} failed:\n{}", result.render());
    }

    #[test]
    fn registry_is_complete_and_ordered() {
        let ids: Vec<String> = registry().iter().map(|e| e.id().to_string()).collect();
        let want: Vec<String> = (1..=21).map(|n| format!("e{n}")).collect();
        assert_eq!(ids, want);
        for id in &want {
            let found = find(&id.to_uppercase()).expect("every id resolves, case-insensitively");
            assert_eq!(found.id(), id);
        }
        assert!(find("e22").is_none());
        assert!(find("nope").is_none());
    }

    #[test]
    fn until_flagged_stops_at_the_first_flag_and_gives_up_at_the_cap() {
        let mut ran = Vec::new();
        let hit = until_flagged(12, |a| {
            ran.push(a);
            (a == 2).then_some("caught")
        });
        assert_eq!(hit, Some((2, "caught")));
        assert_eq!(ran, [0, 1, 2]);
        assert_eq!(until_flagged(3, |_| None::<()>), None);
    }

    #[test]
    fn e15_passes() {
        assert_passes("e15");
    }

    #[test]
    fn e16_passes() {
        assert_passes("e16");
    }

    #[test]
    fn e17_passes() {
        assert_passes("e17");
    }

    /// E18 with the 2-client model configs and short soak arms — the
    /// full grid runs in ff-sim's tests and in the release-mode report;
    /// this checks the experiment's own plumbing and verdicts.
    #[test]
    fn e18_passes_on_trimmed_grid() {
        let grid: Vec<CombineModelConfig> = combining_grid()
            .into_iter()
            .filter(|c| c.clients == 2 && c.rounds == 1)
            .collect();
        assert!(!grid.is_empty());
        assert!(grid
            .iter()
            .all(|c| matches!(c.stutter_budget, Bound::Finite(_))));
        let outcome = e18(&grid, 0.3);
        assert!(outcome.pass, "E18 failed: {:?}", outcome.notes);
    }

    #[test]
    fn e19_passes() {
        assert_passes("e19");
    }

    #[test]
    fn e20_passes() {
        assert_passes("e20");
    }

    /// E21 with short arms: every registered substrate soaks, every
    /// consistency-promising substrate ends verify-consistent at the
    /// sweep fault rate, and the JSON document carries one entry per
    /// substrate with the measured columns.
    #[test]
    fn e21_sweeps_every_registered_substrate() {
        let outcome = e21(0.3);
        assert!(outcome.pass, "E21 failed: {:?}", outcome.notes);

        let arms = run_substrate_sweep(0.2);
        assert_eq!(arms.len(), ff_store::substrate_names().len());
        assert!(
            arms.len() >= 5,
            "the sweep must cover at least 5 substrates"
        );
        let json = substrate_sweep_json(&arms).render();
        let back = JsonValue::parse(&json).unwrap();
        let subs = match back.get("substrates") {
            Some(JsonValue::Array(subs)) => subs,
            other => panic!("substrates key missing or not an array: {other:?}"),
        };
        assert_eq!(subs.len(), arms.len());
        for (entry, arm) in subs.iter().zip(&arms) {
            assert_eq!(
                entry.get("name").and_then(JsonValue::as_str),
                Some(arm.backend.name())
            );
            for key in ["observable_faults", "consistent", "contract_ok", "report"] {
                assert!(
                    entry.get(key).is_some(),
                    "{key} missing for {}",
                    arm.backend
                );
            }
            let report = entry.get("report").unwrap();
            assert!(
                report
                    .get("metrics")
                    .and_then(|m| m.get("total_ops_per_sec"))
                    .and_then(JsonValue::as_f64)
                    .is_some(),
                "throughput missing for {}",
                arm.backend
            );
        }
    }
}
