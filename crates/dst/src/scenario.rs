//! The scenario corpus: seeded, replayable crash-and-partition
//! campaigns against the real stack.
//!
//! A scenario is a **row** of [`CORPUS`], not a function. The row
//! declares the store's shape, a **population** (who runs where, in
//! spawn order — the workload axis) and a timed **fault schedule**
//! (kills, respawns, store-rate steps, partitions — the fault axis),
//! and one interpreter ([`run_row`]) turns any row into a [`Sim`], runs
//! it to the horizon and judges it against the row's floors. The two
//! axes share nothing but role and machine names, so the same
//! population can be rerun under a different schedule (that is also
//! what replaying a minimized [`FaultScript`](crate::trace::FaultScript)
//! does to the network's own fault decisions).
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
//! **Order is part of the format.** [`SimRng::fork`](crate::rng::SimRng)
//! advances the parent workload stream and [`Topology`](crate::topology)
//! hands out dense ids in call order, so population order decides every
//! process's random stream and the `p3`/`m1` in its trace lines; events
//! scheduled for the same instant run in scheduling order, which the
//! interpreter fixes as population, then fabric rates, then the fault
//! schedule *as declared* (not time-sorted). Reordering a row is a
//! different run.

use ff_store::{Backend, FaultConfig, RecoveryReport, Store, StoreConfig};

use crate::net::{FaultRates, NetConfig, ScriptMode};
use crate::process::{ClientCfg, Proc};
use crate::runner::{EvKind, ProcSpec, RunReport, Sim};

/// One microsecond in simulated nanoseconds.
pub const US: u64 = 1_000;
/// One millisecond in simulated nanoseconds.
pub const MS: u64 = 1_000_000;

/// What a process of the population does — how the interpreter turns
/// `(machine, role, recipe)` into a [`ProcSpec`], at t = 0 and again at
/// every [`Fault::Respawn`] of the role.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Recipe {
    /// The store's network face; it owns the store on a
    /// [`ScenarioDef::durable`] row and fronts the shared one otherwise.
    Server,
    /// A wire-protocol transaction generator talking to role `server`.
    Client,
    /// A split-phase publisher on the shared store's shard 0.
    Worker,
    /// A dedicated two-wake combiner over the shared store.
    Combiner,
}

/// One entry of a row's fault schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Fault {
    /// Kill whichever process holds the role (on an arm whose kills are
    /// power failures, also tear its machine's in-flight disk writes).
    Kill(&'static str),
    /// Spawn the role again from its own population recipe.
    Respawn(&'static str),
    /// Set the fault rate of every live store's every shard.
    StoreRate(f64),
    /// Open (`true`) or heal a partition between two machines.
    Partition(&'static str, &'static str, bool),
}

/// One corpus entry: everything that distinguishes a scenario.
#[derive(Clone, Copy, Debug)]
pub struct ScenarioDef {
    /// Registry name (`run_scenario` key).
    pub name: &'static str,
    /// Its arms, well-behaved first; `naive`/`nolease` arms must be
    /// caught.
    pub arms: &'static [&'static str],
    /// One-line description.
    pub about: &'static str,
    /// Store shards.
    pub shards: usize,
    /// Store checkpoint interval (log slots).
    pub checkpoint: usize,
    /// The server owns the store, WAL-backed on its machine's
    /// [`SimDisk`](crate::disk::SimDisk) and recovered at every spawn;
    /// the world then has no shared store.
    pub durable: bool,
    /// Simulated run length (ns).
    pub horizon: u64,
    /// `(machine, role, recipe)` in spawn order; machines are created
    /// at first mention.
    pub population: &'static [(&'static str, &'static str, Recipe)],
    /// Fabric fault rates from t = 0; `None` for a store-level scenario
    /// that never touches the network.
    pub net: Option<FaultRates>,
    /// `(time, fault)` in scheduling order.
    pub faults: &'static [(u64, Fault)],
    /// Per-role completion floor (a stalled process is a violation even
    /// when the data stays consistent — liveness is part of the
    /// contract).
    pub floors: &'static [(&'static str, u64)],
}

/// The whole corpus.
pub const CORPUS: &[ScenarioDef] = &[
    ScenarioDef {
        name: "partition-ramp",
        arms: &["robust", "naive"],
        about: "bidirectional rack partition while the store fault rate ramps 0.1 -> 0.4",
        shards: 4,
        checkpoint: 32,
        durable: false,
        horizon: 300 * MS,
        population: &[
            ("rack-a", "server", Recipe::Server),
            ("rack-a", "client-0", Recipe::Client),
            ("rack-a", "client-1", Recipe::Client),
            ("rack-b", "client-2", Recipe::Client),
            ("rack-b", "client-3", Recipe::Client),
        ],
        net: Some(FaultRates {
            drop: 0.01,
            duplicate: 0.005,
            delay: 0.01,
            reorder: 0.005,
        }),
        faults: &[
            // The ramp: the store's own fault plane heats up underneath
            // the partition.
            (60 * MS, Fault::StoreRate(0.1)),
            (120 * MS, Fault::StoreRate(0.2)),
            (180 * MS, Fault::StoreRate(0.4)),
            (100 * MS, Fault::Partition("rack-a", "rack-b", true)),
            (160 * MS, Fault::Partition("rack-a", "rack-b", false)),
        ],
        floors: &[
            ("client-0", 20),
            ("client-1", 20),
            // rack-b spends 60 ms cut off; lower floor.
            ("client-2", 10),
            ("client-3", 10),
        ],
    },
    ScenarioDef {
        name: "kill-checkpoint",
        arms: &["robust", "naive"],
        about: "kill and restart the server while checkpoint truncation is hot",
        shards: 2,
        // Aggressive checkpoint interval keeps truncation hot; the kill
        // lands with sessions open and a respawn reattaches to the same
        // shared store.
        checkpoint: 16,
        durable: false,
        horizon: 300 * MS,
        population: &[
            ("rack-a", "server", Recipe::Server),
            ("rack-b", "client-0", Recipe::Client),
            ("rack-b", "client-1", Recipe::Client),
            ("rack-b", "client-2", Recipe::Client),
        ],
        net: Some(FaultRates {
            drop: 0.005,
            duplicate: 0.005,
            delay: 0.0,
            reorder: 0.0,
        }),
        faults: &[
            (120 * MS, Fault::Kill("server")),
            (140 * MS, Fault::Respawn("server")),
        ],
        floors: &[("client-0", 20), ("client-1", 20), ("client-2", 20)],
    },
    ScenarioDef {
        name: "restart-drain",
        arms: &["robust", "naive"],
        about: "kill a client with responses in flight on a slow, duplicating fabric",
        shards: 4,
        checkpoint: 32,
        durable: false,
        horizon: 300 * MS,
        population: &[
            ("rack-a", "server", Recipe::Server),
            ("rack-b", "client-0", Recipe::Client),
            ("rack-b", "client-1", Recipe::Client),
            ("rack-b", "client-2", Recipe::Client),
        ],
        // Slow, duplicating fabric: the kill lands while responses (and
        // duplicates of them) are still in flight toward the dead
        // process.
        net: Some(FaultRates {
            drop: 0.01,
            duplicate: 0.02,
            delay: 0.05,
            reorder: 0.01,
        }),
        faults: &[
            (100 * MS, Fault::Kill("client-0")),
            (120 * MS, Fault::Respawn("client-0")),
        ],
        floors: &[
            // The respawned incarnation only gets the back half.
            ("client-0", 10),
            ("client-1", 20),
            ("client-2", 20),
        ],
    },
    ScenarioDef {
        name: "kill-combiner",
        arms: &["lease", "nolease"],
        about: "kill the combiner between claim and execute; lease must recover the parked ops",
        shards: 1,
        checkpoint: 64,
        durable: false,
        // Store-level scenario: no network. 50 simulated ms is an
        // eternity at these cadences.
        horizon: 50 * MS,
        population: &[
            ("core", "combiner", Recipe::Combiner),
            ("core", "worker-0", Recipe::Worker),
            ("core", "worker-1", Recipe::Worker),
            ("core", "worker-2", Recipe::Worker),
        ],
        net: None,
        faults: &[
            // The kill window: the combiner claims on one wake and
            // executes on the next, so a kill between two wakes can land
            // on a held ticket. At the pinned seed it does — the claimed
            // ops are parked mid-flight.
            (5 * MS + 160 * US, Fault::Kill("combiner")),
            (6 * MS, Fault::Respawn("combiner")),
        ],
        floors: &[("worker-0", 60), ("worker-1", 60), ("worker-2", 60)],
    },
    ScenarioDef {
        name: "kill-recover",
        arms: &["robust", "torn", "naive"],
        about: "kill a durable server mid-serve; the respawn must recover its store from the \
                machine's surviving WAL bytes (torn: power loss tears the in-flight group commit; \
                naive: recovery replay diverges and must be refused)",
        // Three shards so the kind rotation reaches *arbitrary* faults:
        // overriding and silent cells cannot corrupt a single-proposer
        // replay (a fresh cell at BOTTOM just accepts the sole
        // proposal), so the naive arm's refused-recovery discriminator
        // lives on the arbitrary-kind shard, where junk swapped into the
        // cell trips the replay's double-decide read-back.
        shards: 3,
        checkpoint: 16,
        durable: true,
        horizon: 300 * MS,
        population: &[
            ("rack-a", "server", Recipe::Server),
            ("rack-b", "client-0", Recipe::Client),
            ("rack-b", "client-1", Recipe::Client),
            ("rack-b", "client-2", Recipe::Client),
        ],
        net: Some(FaultRates {
            drop: 0.005,
            duplicate: 0.005,
            delay: 0.0,
            reorder: 0.0,
        }),
        faults: &[
            // The kill lands mid-serve with the WAL hot. On the torn arm
            // it is a power failure: the in-flight group commit survives
            // only as a torn prefix, which recovery must truncate —
            // landing exactly on the last completed fsync. The respawn
            // recovers from the disk.
            (120 * MS, Fault::Kill("server")),
            (140 * MS, Fault::Respawn("server")),
        ],
        floors: &[("client-0", 20), ("client-1", 20), ("client-2", 20)],
    },
];

/// Pinned seed for the corpus run (`ff dst corpus`, E19/E20, the
/// determinism tests and the committed goldens). Any seed works; this
/// one is fixed so the run is a regression test, not a lottery.
pub const E19_SEED: u64 = 0xDD57_0001;

/// The corpus row called `scenario`.
fn row(scenario: &str) -> Option<&'static ScenarioDef> {
    CORPUS.iter().find(|d| d.name == scenario)
}

/// Arms of `scenario`, well-behaved arm(s) first; `None` if the corpus
/// has no such scenario.
pub fn arms(scenario: &str) -> Option<&'static [&'static str]> {
    row(scenario).map(|d| d.arms)
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

/// What "ok" means for an arm.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// Well-behaved: no violations, nothing flagged.
    Clean,
    /// Parked operations must show up as a stall.
    Stall,
    /// A broken witness: divergence must be flagged somewhere — in
    /// kill-recover, as the refused recovery of the respawn.
    Flagged,
}

/// Everything an arm turns on.
struct Arm {
    backend: Backend,
    /// Store-level fault rate at t = 0.
    rate: f64,
    /// Combiner crash recovery (the lease/epoch rule).
    lease: bool,
    /// Kills are power failures: the machine's in-flight disk writes
    /// tear.
    power_fail: bool,
    expect: Expect,
}

/// The one place arm names are compared. `lease`/`nolease` run the
/// fault-free substrate with the lease rule on and off; `torn` is the
/// robust substrate under power-loss kills. Every other arm resolves
/// through the substrate registry — any registered substrate is a valid
/// arm — and inherits the substrate's contract: consistency-promising
/// substrates must end clean and run at a modest 0.05 so the scenario's
/// own chaos stays the protagonist; a broken witness runs hot at 0.3 so
/// its divergence is caught within the scenario's horizon.
fn arm_named(arm: &str) -> Option<Arm> {
    let substrate = |name: &str| {
        let backend: Backend = name.parse().ok()?;
        let (rate, expect) = match backend.expected_consistent() {
            true => (0.05, Expect::Clean),
            false => (0.3, Expect::Flagged),
        };
        Some(Arm {
            backend,
            rate,
            lease: true,
            power_fail: false,
            expect,
        })
    };
    Some(match arm {
        "lease" => substrate("reliable")?,
        "nolease" => Arm {
            lease: false,
            expect: Expect::Stall,
            ..substrate("reliable")?
        },
        "torn" => Arm {
            power_fail: true,
            ..substrate("robust")?
        },
        name => substrate(name)?,
    })
}

/// Workload knobs of every [`Recipe::Client`].
const CLIENT: ClientCfg = ClientCfg {
    keyspace: 512,
    batch: 6,
    timeout: 20 * MS,
    think: 100 * US,
    target: u64::MAX, // run until the horizon; floors check liveness
};

impl ScenarioDef {
    /// The population entry declaring `role`.
    fn entry(&self, role: &str) -> Option<&(&'static str, &'static str, Recipe)> {
        self.population.iter().find(|(_, r, _)| *r == role)
    }
}

/// Can the interpreter build this row? Roles are unique; every fault
/// names a declared role or machine and every floor a declared role;
/// and a row whose server owns its store declares nothing that needs a
/// shared one. [`run_row`] checks this before it builds anything, so a
/// bad row is a message rather than a panic halfway through a run.
pub fn check_row(def: &ScenarioDef) -> Result<(), String> {
    let bad = |what: String| Err(format!("{}: {what}", def.name));
    for (i, &(_, role, recipe)) in def.population.iter().enumerate() {
        if def.population[..i].iter().any(|(_, r, _)| *r == role) {
            return bad(format!("role {role:?} is declared twice"));
        }
        if def.durable && matches!(recipe, Recipe::Worker | Recipe::Combiner) {
            return bad(format!(
                "{role:?} needs a shared store, but this row's server owns the only one"
            ));
        }
    }
    let fault_roles = def.faults.iter().filter_map(|(_, fault)| match fault {
        Fault::Kill(role) | Fault::Respawn(role) => Some(*role),
        Fault::StoreRate(_) | Fault::Partition(..) => None,
    });
    let mut roles = fault_roles.chain(def.floors.iter().map(|floor| floor.0));
    if let Some(role) = roles.find(|role| def.entry(role).is_none()) {
        return bad(format!("a fault or floor names undeclared role {role:?}"));
    }
    let declared = |machine: &str| def.population.iter().any(|p| p.0 == machine);
    for (_, fault) in def.faults {
        if let Fault::Partition(a, b, _) = fault {
            if let Some(m) = [a, b].into_iter().find(|m| !declared(m)) {
                return bad(format!("a partition names undeclared machine {m:?}"));
            }
        }
    }
    Ok(())
}

/// The interpreter: build the world `def` describes, under `arm`, with
/// everything spawned and scheduled and nothing yet run.
fn world(def: &ScenarioDef, arm: &str, seed: u64, mode: ScriptMode) -> Result<Sim, String> {
    check_row(def)?;
    let arm = arm_named(arm).ok_or_else(|| format!("{}: unknown arm {arm:?}", def.name))?;
    // Rotated kinds matter here: the simulation is single-threaded, so
    // overriding faults on uncontended CASes are indistinguishable from
    // correct executions (Definition 1) — silent and arbitrary kinds
    // are what a lone proposer can observably suffer. (On a substrate
    // that injects nothing, rate and rotation are both inert.) The last
    // two knobs reach only a store with a disk under it: a small group
    // commit keeps fsync boundaries hot, rotate_cost 0 makes checkpoint
    // rotation deterministic.
    let config = StoreConfig::builder()
        .shards(def.shards)
        .backend(arm.backend)
        .fault(FaultConfig {
            rate: arm.rate,
            ..FaultConfig::default()
        })
        .rotate_kinds(true)
        .checkpoint_interval(def.checkpoint)
        .combiner_lease(arm.lease)
        .reclaim_after(8)
        .seed(seed)
        .group_commit(4)
        .rotate_cost(0)
        .build()
        .map_err(|e| format!("{}: store config: {e}", def.name))?;
    // A durable row's store belongs to its server (no data dir — the
    // machine's SimDisk is the medium); any other row shares one.
    let (shared, own) = match def.durable {
        true => (None, Some(config)),
        false => (Some(Store::new(config)), None),
    };
    let mut sim = Sim::new(shared, NetConfig::default(), seed, def.horizon, mode);
    let spec_of = |sim: &mut Sim, &(machine, role, recipe): &(&str, &str, Recipe)| {
        let (machine, role) = (sim.topo.machine(machine), role.to_string());
        match recipe {
            Recipe::Server => ProcSpec::Server {
                machine,
                role,
                own: own.clone(),
            },
            Recipe::Client => ProcSpec::Client {
                machine,
                role,
                server_role: "server".into(),
                cfg: CLIENT,
            },
            Recipe::Worker => ProcSpec::Worker {
                machine,
                role,
                shard: 0,
                keys: (0..64).collect(), // one shard: every key routes there
                poll_interval: 50 * US,
                escalate_after: 16,
                target: 60,
            },
            Recipe::Combiner => ProcSpec::Combiner {
                machine,
                role,
                interval: 100 * US,
            },
        }
    };
    for entry in def.population {
        let spec = spec_of(&mut sim, entry);
        sim.spawn(spec);
    }
    if let Some(rates) = def.net {
        sim.at(0, EvKind::SetNetRates(rates));
    }
    for &(at, fault) in def.faults {
        let ev = match fault {
            Fault::Kill(role) if arm.power_fail => EvKind::PowerFail(role.into()),
            Fault::Kill(role) => EvKind::Kill(role.into()),
            Fault::Respawn(role) => {
                let entry = def.entry(role).expect("check_row: the role is declared");
                EvKind::Spawn(spec_of(&mut sim, entry))
            }
            Fault::StoreRate(rate) => EvKind::SetStoreFaultRate(rate),
            Fault::Partition(a, b, on) => EvKind::Partition {
                a: sim.topo.machine(a),
                b: sim.topo.machine(b),
                on,
            },
        };
        sim.at(at, ev);
    }
    Ok(sim)
}

/// Judge a finished world against the row's contract.
fn finish(sim: &Sim, def: &ScenarioDef, arm: &str, seed: u64) -> RunReport {
    // Every live store in the world must verify.
    let verify_reports: Vec<_> = sim.stores().map(|s| s.verify(&mut [])).collect();
    let wal_failed = sim.stores().any(|s| s.durability_error().is_some());
    let consistent = verify_reports.iter().all(|r| r.all_consistent());
    let shard_flag = verify_reports
        .iter()
        .any(|r| r.per_shard.iter().any(|s| s.divergence_flag));
    let (mut completed, mut divergence_seen) = (0u64, 0u64);
    for (done, diverged) in sim.all_procs().filter_map(Proc::progress) {
        completed += done;
        divergence_seen += diverged;
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
    for &(role, min) in def.floors {
        match sim.proc_by_role(role).map(Proc::progress) {
            None => violations.push(format!("stall:{role} dead at end of run")),
            Some(Some((done, _))) if done < min => {
                violations.push(format!("stall:{role} completed={done}/{min}"))
            }
            Some(_) => {}
        }
    }
    // What the live store-owning server found on its disk when it
    // booted (zeros without one).
    let recovery = sim.owned_stores().last().map(|own| &own.recovery);
    let recovered = |count: fn(&RecoveryReport) -> u64| recovery.map_or(0, count);
    let mut report = RunReport {
        scenario: def.name.to_string(),
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
        recovered_checkpoints: recovered(RecoveryReport::checkpoints_loaded),
        recovered_records: recovered(RecoveryReport::records_replayed),
        recovered_torn: recovered(RecoveryReport::torn_tails),
        script: sim.net.recorded().clone(),
    };
    // Beyond the generic contract, a well-behaved arm of a row that
    // reboots a store-owning server must actually have recovered state
    // (an empty WAL at the kill would prove nothing), and a power-loss
    // arm's tear must have been detected.
    let clean = arm_named(arm).filter(|a| a.expect == Expect::Clean);
    let reboots = def.faults.iter().any(|(_, fault)| {
        matches!(fault, Fault::Respawn(r) if def.entry(r).is_some_and(|e| e.2 == Recipe::Server))
    });
    if let Some(arm) = clean.filter(|_| def.durable && reboots) {
        if report.recovered_checkpoints + report.recovered_records == 0 {
            report
                .violations
                .push("recovery replayed nothing (WAL empty at the kill)".to_string());
        }
        if arm.power_fail && report.recovered_torn == 0 {
            report
                .violations
                .push("torn tail not detected by recovery".to_string());
        }
    }
    report
}

/// Run one row under `arm` at `seed`: build, run to the horizon, judge.
/// `Err` is a row or arm the interpreter refuses to build.
pub fn run_row(
    def: &ScenarioDef,
    arm: &str,
    seed: u64,
    mode: ScriptMode,
) -> Result<RunReport, String> {
    let mut sim = world(def, arm, seed, mode)?;
    sim.run();
    Ok(finish(&sim, def, arm, seed))
}

/// Run one `(scenario, arm)` of the corpus at `seed`. `mode` selects
/// recording fresh fault decisions or replaying a (possibly minimized)
/// script. Panics on a pair [`check_arm`] refuses.
pub fn run_scenario(name: &str, arm: &str, seed: u64, mode: ScriptMode) -> RunReport {
    let def = row(name).unwrap_or_else(|| panic!("unknown scenario {name:?}"));
    run_row(def, arm, seed, mode).unwrap_or_else(|e| panic!("{e}"))
}

/// Did this arm behave as its contract demands?
///
/// * The scenario-specific arms: `lease`/`torn` are well-behaved (no
///   violations, nothing flagged — for `torn` that includes the
///   kill-recover row's extra recovery checks); `nolease`'s parked
///   operations must show up as a stall.
/// * Substrate arms resolve through the registry and inherit the
///   substrate's contract: consistency-promising substrates (`robust`,
///   `kw-robust`, …) must end clean, broken witnesses (`naive`) must
///   have divergence flagged somewhere — in kill-recover, the refused
///   recovery of the respawn.
pub fn arm_ok(report: &RunReport) -> bool {
    match arm_named(&report.arm).map(|a| a.expect) {
        Some(Expect::Clean) => report.violations.is_empty() && !report.flagged,
        Some(Expect::Stall) => report.violations.iter().any(|v| v.starts_with("stall:")),
        Some(Expect::Flagged) => report.flagged,
        None => false,
    }
}

#[cfg(test)]
mod tests;
