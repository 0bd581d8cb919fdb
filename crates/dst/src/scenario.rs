//! The scenario corpus: seeded, replayable crash-and-partition
//! campaigns against the real stack.
//!
//! Every scenario runs twice-armed. The net scenarios pit the paper's
//! **robust** backend against the **naive** one under identical fault
//! schedules; kill-the-combiner pits the **lease**d combiner recovery
//! rule against running with the lease off. The contract is always the
//! same shape:
//!
//! * the robust/lease arm must end [`Store::verify`]-consistent with
//!   every workload process past its completion floor, and
//! * the naive/nolease arm must be *caught* — a verify failure, a
//!   divergence flag, a divergence error frame at a client, or a
//!   stalled worker — never silently wrong.
//!
//! Scenarios schedule faults and workloads as separate event streams on
//! one heap, so the same workload can be rerun under a different fault
//! plane (that is what replaying a minimized [`FaultScript`] does).

use ff_store::{Backend, FaultConfig, Store, StoreConfig};

use crate::net::{FaultRates, NetConfig, ScriptMode};
use crate::process::{ClientCfg, Proc};
use crate::runner::{EvKind, ProcSpec, RunReport, Sim};
use crate::trace::FaultScript;

/// One microsecond in simulated nanoseconds.
pub const US: u64 = 1_000;
/// One millisecond in simulated nanoseconds.
pub const MS: u64 = 1_000_000;

/// One corpus entry.
pub struct ScenarioDef {
    /// Registry name (`run_scenario` key).
    pub name: &'static str,
    /// Its arms, well-behaved first; `naive`/`nolease` arms must be
    /// caught.
    pub arms: &'static [&'static str],
    /// One-line description.
    pub about: &'static str,
}

/// The whole corpus.
pub const CORPUS: &[ScenarioDef] = &[
    ScenarioDef {
        name: "partition-ramp",
        arms: &["robust", "naive"],
        about: "bidirectional rack partition while the store fault rate ramps 0.1 -> 0.4",
    },
    ScenarioDef {
        name: "kill-checkpoint",
        arms: &["robust", "naive"],
        about: "kill and restart the server while checkpoint truncation is hot",
    },
    ScenarioDef {
        name: "restart-drain",
        arms: &["robust", "naive"],
        about: "kill a client with responses in flight on a slow, duplicating fabric",
    },
    ScenarioDef {
        name: "kill-combiner",
        arms: &["lease", "nolease"],
        about: "kill the combiner between claim and execute; lease must recover the parked ops",
    },
    ScenarioDef {
        name: "kill-recover",
        arms: &["robust", "torn", "naive"],
        about: "kill a durable server mid-serve; the respawn must recover its store from the \
                machine's surviving WAL bytes (torn: power loss tears the in-flight group commit; \
                naive: recovery replay diverges and must be refused)",
    },
];

/// Pinned seed for the corpus run (`ff dst corpus`, E19/E20, the
/// determinism tests and the committed goldens). Any seed works; this
/// one is fixed so the run is a regression test, not a lottery.
pub const E19_SEED: u64 = 0xDD57_0001;

/// Arms of `scenario`, well-behaved arm(s) first; `None` if the corpus
/// has no such scenario.
pub fn arms(scenario: &str) -> Option<&'static [&'static str]> {
    CORPUS.iter().find(|d| d.name == scenario).map(|d| d.arms)
}

/// Is `(scenario, arm)` something [`run_scenario`] can run? Scenarios
/// whose declared arms are substrate names take *any* registered
/// substrate (`kw-robust` on partition-ramp resolves through the
/// registry like `--backend` does); `lease`/`nolease`/`torn` stay
/// closed. On refusal the error says what would have been accepted.
pub fn check_arm(scenario: &str, arm: &str) -> Result<(), String> {
    let Some(known) = arms(scenario) else {
        let names: Vec<&str> = CORPUS.iter().map(|d| d.name).collect();
        return Err(format!(
            "unknown scenario {scenario:?}; scenarios: {}",
            names.join(" ")
        ));
    };
    let takes_substrates = known.iter().any(|k| k.parse::<Backend>().is_ok());
    if known.contains(&arm) || (takes_substrates && arm.parse::<Backend>().is_ok()) {
        Ok(())
    } else if takes_substrates {
        Err(format!(
            "scenario {scenario} has arms {known:?} (or any registered substrate: {}), not {arm:?}",
            ff_store::substrate_names().join(", ")
        ))
    } else {
        Err(format!(
            "scenario {scenario} has arms {known:?}, not {arm:?}"
        ))
    }
}

/// Resolve a backend-named arm through the substrate registry: any
/// registered substrate is a valid arm. The fault rate follows the
/// substrate's declared expectation — substrates expected to survive
/// their faults run at a modest 0.05 so the scenario's own chaos stays
/// the protagonist; the broken witness runs hot at 0.3 so its
/// divergence is caught within the scenario's horizon.
fn backend_for(arm: &str) -> (Backend, f64) {
    let backend: Backend = arm
        .parse()
        .unwrap_or_else(|e| panic!("unknown backend arm: {e}"));
    let rate = if backend.expected_consistent() {
        0.05
    } else {
        0.3
    };
    (backend, rate)
}

/// Per-role completion floor (a stalled process is a violation even
/// when the data stays consistent — liveness is part of the contract).
struct Floor {
    role: &'static str,
    min: u64,
}

fn finish(sim: &Sim, scenario: &str, arm: &str, seed: u64, floors: &[Floor]) -> RunReport {
    // Every store in the world must verify: the shared one plus any
    // live durable server's recovered store.
    let mut verify_reports = vec![sim.store.verify(&mut [])];
    let mut recovered = (0u64, 0u64, 0u64);
    let mut wal_failed = false;
    for p in sim.all_procs() {
        if let Proc::DurableServer(d) = p {
            if let Some(store) = &d.store {
                verify_reports.push(store.verify(&mut []));
                wal_failed |= store.durability_error().is_some();
                recovered = (
                    d.recovery.checkpoints_loaded(),
                    d.recovery.records_replayed(),
                    d.recovery.torn_tails(),
                );
            }
        }
    }
    let consistent = verify_reports.iter().all(|r| r.all_consistent());
    let shard_flag = verify_reports
        .iter()
        .any(|r| r.per_shard.iter().any(|s| s.divergence_flag));
    let mut divergence_seen = 0u64;
    let mut completed = 0u64;
    for p in sim.all_procs() {
        match p {
            Proc::Client(c) => {
                divergence_seen += c.divergence_seen;
                completed += c.completed;
            }
            Proc::Worker(w) => {
                divergence_seen += w.divergence_seen;
                completed += w.completed;
            }
            Proc::Server(_) | Proc::DurableServer(_) | Proc::Combiner(_) => {}
        }
    }
    let flagged = !consistent
        || shard_flag
        || sim.flags.server_divergence > 0
        || divergence_seen > 0
        || sim.flags.recovery_refused > 0
        || wal_failed;
    let mut violations = Vec::new();
    if !consistent {
        let diverged: Vec<usize> = verify_reports
            .iter()
            .flat_map(|r| r.diverged_shards())
            .collect();
        violations.push(format!("verify-inconsistent shards={diverged:?}"));
    }
    if wal_failed {
        violations.push("write-ahead log failed mid-serve".to_string());
    }
    if sim.flags.recovery_refused > 0 {
        violations.push(format!(
            "recovery refused {} time(s): WAL replay diverged, role left down",
            sim.flags.recovery_refused
        ));
    }
    for floor in floors {
        let done = match sim.proc_by_role(floor.role) {
            Some(Proc::Client(c)) => c.completed,
            Some(Proc::Worker(w)) => w.completed,
            Some(_) => continue,
            None => {
                violations.push(format!("stall:{} dead at end of run", floor.role));
                continue;
            }
        };
        if done < floor.min {
            violations.push(format!(
                "stall:{} completed={done}/{}",
                floor.role, floor.min
            ));
        }
    }
    RunReport {
        scenario: scenario.to_string(),
        arm: arm.to_string(),
        seed,
        events: sim.events(),
        decisions: sim.net.decisions(),
        trace_hash: sim.trace.hash(),
        trace: sim.trace.lines().to_vec(),
        consistent,
        flagged,
        violations,
        completed,
        recovery_refused: sim.flags.recovery_refused,
        recovered_checkpoints: recovered.0,
        recovered_records: recovered.1,
        recovered_torn: recovered.2,
        script: match sim.net.recorded().is_empty() {
            true => FaultScript::new(),
            false => sim.net.recorded().clone(),
        },
    }
}

fn client_cfg() -> ClientCfg {
    ClientCfg {
        keyspace: 512,
        batch: 6,
        timeout: 20 * MS,
        think: 100 * US,
        target: u64::MAX, // run until the horizon; floors check liveness
    }
}

fn store_with(shards: usize, checkpoint: usize, arm: &str, seed: u64) -> Store {
    let (backend, rate) = backend_for(arm);
    // Rotated kinds matter here: the simulation is single-threaded, so
    // overriding faults on uncontended CASes are indistinguishable from
    // correct executions (Definition 1) — silent and arbitrary kinds
    // are what a lone proposer can observably suffer.
    Store::new(
        StoreConfig::builder()
            .shards(shards)
            .backend(backend)
            .fault(FaultConfig {
                rate,
                ..FaultConfig::default()
            })
            .rotate_kinds(true)
            .checkpoint_interval(checkpoint)
            .combiner_lease(true)
            .reclaim_after(8)
            .seed(seed)
            .build()
            .expect("scenario store config"),
    )
}

fn partition_ramp(arm: &str, seed: u64, mode: ScriptMode) -> RunReport {
    let store = store_with(4, 32, arm, seed);
    let mut sim = Sim::new(store, NetConfig::default(), seed, 300 * MS, mode);
    let rack_a = sim.topo.machine("rack-a");
    let rack_b = sim.topo.machine("rack-b");
    sim.spawn(ProcSpec::Server {
        machine: rack_a,
        role: "server".into(),
    });
    for (i, machine) in [rack_a, rack_a, rack_b, rack_b].into_iter().enumerate() {
        sim.spawn(ProcSpec::Client {
            machine,
            role: format!("client-{i}"),
            server_role: "server".into(),
            cfg: client_cfg(),
        });
    }
    sim.at(
        0,
        EvKind::SetNetRates(FaultRates {
            drop: 0.01,
            duplicate: 0.005,
            delay: 0.01,
            reorder: 0.005,
        }),
    );
    // The ramp: the store's own fault plane heats up underneath the
    // partition.
    sim.at(60 * MS, EvKind::SetStoreFaultRate(0.1));
    sim.at(120 * MS, EvKind::SetStoreFaultRate(0.2));
    sim.at(180 * MS, EvKind::SetStoreFaultRate(0.4));
    sim.at(
        100 * MS,
        EvKind::Partition {
            a: rack_a,
            b: rack_b,
            on: true,
        },
    );
    sim.at(
        160 * MS,
        EvKind::Partition {
            a: rack_a,
            b: rack_b,
            on: false,
        },
    );
    sim.run();
    finish(
        &sim,
        "partition-ramp",
        arm,
        seed,
        &[
            Floor {
                role: "client-0",
                min: 20,
            },
            Floor {
                role: "client-1",
                min: 20,
            },
            // rack-b spends 60 ms cut off; lower floor.
            Floor {
                role: "client-2",
                min: 10,
            },
            Floor {
                role: "client-3",
                min: 10,
            },
        ],
    )
}

fn kill_checkpoint(arm: &str, seed: u64, mode: ScriptMode) -> RunReport {
    let store = store_with(2, 16, arm, seed);
    let mut sim = Sim::new(store, NetConfig::default(), seed, 300 * MS, mode);
    let rack_a = sim.topo.machine("rack-a");
    let rack_b = sim.topo.machine("rack-b");
    sim.spawn(ProcSpec::Server {
        machine: rack_a,
        role: "server".into(),
    });
    for i in 0..3 {
        sim.spawn(ProcSpec::Client {
            machine: rack_b,
            role: format!("client-{i}"),
            server_role: "server".into(),
            cfg: client_cfg(),
        });
    }
    sim.at(
        0,
        EvKind::SetNetRates(FaultRates {
            drop: 0.005,
            duplicate: 0.005,
            delay: 0.0,
            reorder: 0.0,
        }),
    );
    // Aggressive checkpoint interval keeps truncation hot; the kill
    // lands with sessions open and a respawn reattaches to the same
    // durable store.
    sim.at(120 * MS, EvKind::Kill("server".into()));
    sim.at(
        140 * MS,
        EvKind::Spawn(ProcSpec::Server {
            machine: rack_a,
            role: "server".into(),
        }),
    );
    sim.run();
    finish(
        &sim,
        "kill-checkpoint",
        arm,
        seed,
        &[
            Floor {
                role: "client-0",
                min: 20,
            },
            Floor {
                role: "client-1",
                min: 20,
            },
            Floor {
                role: "client-2",
                min: 20,
            },
        ],
    )
}

fn restart_drain(arm: &str, seed: u64, mode: ScriptMode) -> RunReport {
    let store = store_with(4, 32, arm, seed);
    let mut sim = Sim::new(store, NetConfig::default(), seed, 300 * MS, mode);
    let rack_a = sim.topo.machine("rack-a");
    let rack_b = sim.topo.machine("rack-b");
    sim.spawn(ProcSpec::Server {
        machine: rack_a,
        role: "server".into(),
    });
    for i in 0..3 {
        sim.spawn(ProcSpec::Client {
            machine: rack_b,
            role: format!("client-{i}"),
            server_role: "server".into(),
            cfg: client_cfg(),
        });
    }
    // Slow, duplicating fabric: the kill lands while responses (and
    // duplicates of them) are still in flight toward the dead process.
    sim.at(
        0,
        EvKind::SetNetRates(FaultRates {
            drop: 0.01,
            duplicate: 0.02,
            delay: 0.05,
            reorder: 0.01,
        }),
    );
    sim.at(100 * MS, EvKind::Kill("client-0".into()));
    sim.at(
        120 * MS,
        EvKind::Spawn(ProcSpec::Client {
            machine: rack_b,
            role: "client-0".into(),
            server_role: "server".into(),
            cfg: client_cfg(),
        }),
    );
    sim.run();
    finish(
        &sim,
        "restart-drain",
        arm,
        seed,
        &[
            // The respawned incarnation only gets the back half.
            Floor {
                role: "client-0",
                min: 10,
            },
            Floor {
                role: "client-1",
                min: 20,
            },
            Floor {
                role: "client-2",
                min: 20,
            },
        ],
    )
}

fn kill_combiner(arm: &str, seed: u64, mode: ScriptMode) -> RunReport {
    let lease = match arm {
        "lease" => true,
        "nolease" => false,
        other => panic!("unknown lease arm {other:?}"),
    };
    let store = Store::new(
        StoreConfig::builder()
            .shards(1)
            .backend(Backend::reliable())
            .checkpoint_interval(64)
            .combiner_lease(lease)
            .reclaim_after(8)
            .seed(seed)
            .build()
            .expect("kill-combiner store config"),
    );
    // Store-level scenario: no network. 50 simulated ms is an eternity
    // at these cadences.
    let mut sim = Sim::new(store, NetConfig::default(), seed, 50 * MS, mode);
    let core = sim.topo.machine("core");
    sim.spawn(ProcSpec::Combiner {
        machine: core,
        role: "combiner".into(),
        interval: 100 * US,
    });
    for i in 0..3 {
        sim.spawn(ProcSpec::Worker {
            machine: core,
            role: format!("worker-{i}"),
            shard: 0,
            keys: (0..64).collect(), // one shard: every key routes there
            poll_interval: 50 * US,
            escalate_after: 16,
            target: 60,
        });
    }
    // The kill window: the combiner claims on one wake and executes on
    // the next, so a kill between two wakes can land on a held ticket.
    // At this seed it does — the claimed ops are parked mid-flight.
    sim.at(5 * MS + 160 * US, EvKind::Kill("combiner".into()));
    sim.at(
        6 * MS,
        EvKind::Spawn(ProcSpec::Combiner {
            machine: core,
            role: "combiner".into(),
            interval: 100 * US,
        }),
    );
    sim.run();
    finish(
        &sim,
        "kill-combiner",
        arm,
        seed,
        &[
            Floor {
                role: "worker-0",
                min: 60,
            },
            Floor {
                role: "worker-1",
                min: 60,
            },
            Floor {
                role: "worker-2",
                min: 60,
            },
        ],
    )
}

fn kill_recover(arm: &str, seed: u64, mode: ScriptMode) -> RunReport {
    // "torn" is the robust substrate under a power-loss kill; every
    // other arm resolves through the substrate registry (robust cells
    // re-decide logged history faithfully on replay; naive cells under
    // faults mutate re-ingested decisions, so recovery's digest
    // cross-check must refuse the respawn).
    let (backend, rate) = if arm == "torn" {
        (Backend::robust(), 0.05)
    } else {
        backend_for(arm)
    };
    // The durable server's own config: no data dir — the machine's
    // SimDisk is the medium. Small group commit keeps fsync boundaries
    // hot; rotate_cost 0 makes checkpoint rotation deterministic.
    // Three shards so the kind rotation reaches *arbitrary* faults:
    // overriding and silent cells cannot corrupt a single-proposer
    // replay (a fresh cell at BOTTOM just accepts the sole proposal),
    // so the naive arm's refused-recovery discriminator lives on the
    // arbitrary-kind shard, where junk swapped into the cell trips the
    // replay's double-decide read-back.
    let config = StoreConfig::builder()
        .shards(3)
        .backend(backend)
        .fault(FaultConfig {
            rate,
            ..FaultConfig::default()
        })
        .rotate_kinds(true)
        .checkpoint_interval(16)
        .combiner_lease(true)
        .reclaim_after(8)
        .seed(seed)
        .group_commit(4)
        .rotate_cost(0)
        .build()
        .expect("kill-recover store config");
    // The sim's shared store frames the world but carries no workload
    // here — every transaction flows through the durable server's own.
    let frame = Store::new(
        StoreConfig::builder()
            .shards(1)
            .backend(Backend::reliable())
            .seed(seed)
            .build()
            .expect("kill-recover frame store config"),
    );
    let mut sim = Sim::new(frame, NetConfig::default(), seed, 300 * MS, mode);
    let rack_a = sim.topo.machine("rack-a");
    let rack_b = sim.topo.machine("rack-b");
    sim.spawn(ProcSpec::DurableServer {
        machine: rack_a,
        role: "server".into(),
        config: config.clone(),
    });
    for i in 0..3 {
        sim.spawn(ProcSpec::Client {
            machine: rack_b,
            role: format!("client-{i}"),
            server_role: "server".into(),
            cfg: client_cfg(),
        });
    }
    sim.at(
        0,
        EvKind::SetNetRates(FaultRates {
            drop: 0.005,
            duplicate: 0.005,
            delay: 0.0,
            reorder: 0.0,
        }),
    );
    // The kill lands mid-serve with the WAL hot. The torn arm is a
    // power failure: the in-flight group commit survives only as a
    // torn prefix, which recovery must truncate — landing exactly on
    // the last completed fsync. The respawn recovers from the disk.
    let fault = if arm == "torn" {
        EvKind::PowerFail("server".into())
    } else {
        EvKind::Kill("server".into())
    };
    sim.at(120 * MS, fault);
    sim.at(
        140 * MS,
        EvKind::Spawn(ProcSpec::DurableServer {
            machine: rack_a,
            role: "server".into(),
            config,
        }),
    );
    sim.run();
    let mut report = finish(
        &sim,
        "kill-recover",
        arm,
        seed,
        &[
            Floor {
                role: "client-0",
                min: 20,
            },
            Floor {
                role: "client-1",
                min: 20,
            },
            Floor {
                role: "client-2",
                min: 20,
            },
        ],
    );
    // Arm contracts beyond the generic ones: the respawn must actually
    // have recovered state (an empty WAL at the kill would prove
    // nothing), and the torn arm's tear must have been detected.
    if matches!(arm, "robust" | "torn") {
        if report.recovered_checkpoints + report.recovered_records == 0 {
            report
                .violations
                .push("recovery replayed nothing (WAL empty at the kill)".to_string());
        }
        if arm == "torn" && report.recovered_torn == 0 {
            report
                .violations
                .push("torn tail not detected by recovery".to_string());
        }
    }
    report
}

/// Run one `(scenario, arm)` at `seed`. `mode` selects recording fresh
/// fault decisions or replaying a (possibly minimized) script.
pub fn run_scenario(name: &str, arm: &str, seed: u64, mode: ScriptMode) -> RunReport {
    match name {
        "partition-ramp" => partition_ramp(arm, seed, mode),
        "kill-checkpoint" => kill_checkpoint(arm, seed, mode),
        "restart-drain" => restart_drain(arm, seed, mode),
        "kill-combiner" => kill_combiner(arm, seed, mode),
        "kill-recover" => kill_recover(arm, seed, mode),
        other => panic!("unknown scenario {other:?}"),
    }
}

/// Did this arm behave as its contract demands?
///
/// * The scenario-specific arms: `lease`/`torn` are well-behaved (no
///   violations, nothing flagged — for `torn` that includes the
///   kill-recover scenario's extra checks); `nolease`'s parked
///   operations must show up as a stall.
/// * Substrate arms resolve through the registry and inherit the
///   substrate's contract: consistency-promising substrates (`robust`,
///   `kw-robust`, …) must end clean, broken witnesses (`naive`) must
///   have divergence flagged somewhere — in kill-recover, the refused
///   recovery of the respawn.
pub fn arm_ok(report: &RunReport) -> bool {
    match report.arm.as_str() {
        "lease" | "torn" => report.violations.is_empty() && !report.flagged,
        "nolease" => report.violations.iter().any(|v| v.starts_with("stall:")),
        arm => match arm.parse::<Backend>() {
            Ok(backend) if backend.expected_consistent() => {
                report.violations.is_empty() && !report.flagged
            }
            Ok(_) => report.flagged,
            Err(_) => false,
        },
    }
}
