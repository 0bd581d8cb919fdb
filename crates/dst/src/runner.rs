//! The deterministic event loop: one heap, one clock, zero host
//! nondeterminism.
//!
//! A [`Sim`] owns the whole world — every real [`Store`] in it, the
//! simulated fabric, every process — and executes a single
//! totally-ordered event sequence. Events are ordered by `(time,
//! insertion seq)`: two events at the same simulated instant run in
//! the order they were scheduled, which is itself deterministic, so the
//! entire run is a pure function of (scenario, seed, fault script).
//!
//! Faults and workloads are *different event kinds on the same heap*:
//! [`EvKind::Kill`], [`EvKind::Partition`], [`EvKind::SetNetRates`] and
//! [`EvKind::SetStoreFaultRate`] are the fault plane; process wakes and
//! deliveries are the workload plane. A scenario is just an initial
//! population of both (and [`crate::scenario`] writes it down as one
//! table row).
//!
//! Kills are role-based: killing `"server"` takes down whichever
//! incarnation currently holds that role, closes every connection it
//! touched (peers see [`Payload::Closed`]), and parks the corpse in a
//! graveyard — its [`StoreClient`](ff_store::StoreClient) (and any
//! claimed-but-unfinished [`CombineTicket`](ff_store::CombineTicket))
//! stays allocated but forever idle, which is exactly the
//! crashed-process model of the paper: the shared object survives, the
//! operation parks mid-flight. A store the dead server *owned* is the
//! exception: it dies with the process, and only its machine's
//! [`SimDisk`] bytes survive.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::Arc;

use ff_store::{Store, StoreConfig};

use crate::clock::SimClock;
use crate::disk::SimDisk;
use crate::net::{ConnId, Delivery, FaultRates, NetConfig, Payload, ScriptMode, SimNet};
use crate::process::{
    ClientCfg, ClientProc, CombinerProc, Ctx, Outbox, OwnedStore, Proc, RunFlags, ServerProc,
    WorkerProc, HANDLE_DELAY,
};
use crate::rng::{splitmix64, SimRng};
use crate::topology::{MachineId, ProcId, Topology};
use crate::trace::{FaultScript, Trace};

/// How to create a process — also the respawn recipe after a kill.
#[derive(Clone, Debug)]
pub enum ProcSpec {
    /// A store server: the network face of the world's shared
    /// [`Store`], or of a store of its own.
    Server {
        /// Host machine — also names the disk an owned store lives on.
        machine: MachineId,
        /// Role name clients connect to.
        role: String,
        /// `Some`: the server owns a durable store under this
        /// configuration, recovered from the host machine's [`SimDisk`]
        /// at every (re)spawn (durability knobs apply to the simulated
        /// disk; no data dir is needed). Killing it drops the store; the
        /// machine's disk bytes survive for the next incarnation. If
        /// recovery is refused (replay divergence under a faulty
        /// backend), the respawn stays down and the refusal is flagged —
        /// never served as data.
        own: Option<StoreConfig>,
    },
    /// A wire-protocol transaction generator.
    Client {
        /// Host machine.
        machine: MachineId,
        /// Own role name.
        role: String,
        /// Role of the server to talk to.
        server_role: String,
        /// Workload knobs.
        cfg: ClientCfg,
    },
    /// A split-phase combining publisher.
    Worker {
        /// Host machine.
        machine: MachineId,
        /// Own role name.
        role: String,
        /// Shard it publishes to.
        shard: usize,
        /// Keys routing to that shard.
        keys: Vec<u32>,
        /// Wake cadence (ns).
        poll_interval: u64,
        /// Forced-combine escalation threshold (polls).
        escalate_after: u32,
        /// Units to deliver.
        target: u64,
    },
    /// A dedicated combiner.
    Combiner {
        /// Host machine.
        machine: MachineId,
        /// Own role name.
        role: String,
        /// Wake cadence (ns).
        interval: u64,
    },
}

impl ProcSpec {
    /// Where the process runs and the role it takes.
    pub fn place(&self) -> (MachineId, &str) {
        match self {
            ProcSpec::Server { machine, role, .. }
            | ProcSpec::Client { machine, role, .. }
            | ProcSpec::Worker { machine, role, .. }
            | ProcSpec::Combiner { machine, role, .. } => (*machine, role),
        }
    }
}

/// One scheduled event.
#[derive(Debug)]
pub enum EvKind {
    /// Run a process's wake handler.
    Wake(ProcId),
    /// A network arrival.
    Deliver(Delivery),
    /// Kill whichever process currently holds `role`.
    Kill(String),
    /// Power-fail the machine hosting `role`: kill the process *and*
    /// apply [`SimDisk::crash`] semantics to the machine's disk — the
    /// group-commit batch whose fsync was in flight survives only as a
    /// seeded torn prefix.
    PowerFail(String),
    /// (Re)spawn a process.
    Spawn(ProcSpec),
    /// Change the fabric's fault probabilities.
    SetNetRates(FaultRates),
    /// Change every shard's store-level fault rate.
    SetStoreFaultRate(f64),
    /// Open (`on`) or heal a machine-pair partition.
    Partition {
        /// One side.
        a: MachineId,
        /// Other side.
        b: MachineId,
        /// Open when true, heal when false.
        on: bool,
    },
}

struct Ev {
    at: u64,
    seq: u64,
    kind: EvKind,
}

impl PartialEq for Ev {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for Ev {}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ev {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

fn fnv(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in s.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Everything a finished run reports.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Scenario name.
    pub scenario: String,
    /// Arm name (`robust` / `naive` / `lease` / `nolease`).
    pub arm: String,
    /// Root seed.
    pub seed: u64,
    /// Events executed.
    pub events: u64,
    /// Network fault decisions made.
    pub decisions: u64,
    /// FNV fingerprint of the trace — the determinism check.
    pub trace_hash: u64,
    /// Every trace line (for golden files and debugging).
    pub trace: Vec<String>,
    /// Did `Store::verify` end consistent?
    pub consistent: bool,
    /// Was any divergence *flagged* (verify failure, server error, or a
    /// divergence error frame at a client)? A faulty backend must land
    /// here — never at "inconsistent but unflagged".
    pub flagged: bool,
    /// Contract breaches for this arm (empty = the arm behaved).
    pub violations: Vec<String>,
    /// Total transactions/units completed across all workload procs.
    pub completed: u64,
    /// Respawns of a store-owning server whose WAL recovery was refused
    /// (replay divergence under a faulty backend) — always flagged.
    pub recovery_refused: u64,
    /// Checkpoint snapshots loaded at the live store-owning server's
    /// boot.
    pub recovered_checkpoints: u64,
    /// Slot records replayed at that boot.
    pub recovered_records: u64,
    /// Shards whose WAL ended in a torn/corrupt tail at that boot.
    pub recovered_torn: u64,
    /// The fault script (recorded, or the one replayed).
    pub script: FaultScript,
}

/// The whole simulated world plus its event loop.
pub struct Sim {
    /// Simulated clock (advance-only).
    pub clock: SimClock,
    /// Machines and process labels.
    pub topo: Topology,
    /// The lossy fabric.
    pub net: SimNet,
    /// The decision log.
    pub trace: Trace,
    /// The store every worker, combiner and store-less server shares;
    /// `None` in a world whose server owns its store.
    pub store: Option<Store>,
    /// Cross-cutting observations.
    pub flags: RunFlags,
    /// Per-machine durable bytes — they survive kills by construction
    /// (the map belongs to the world, not to any process).
    disks: BTreeMap<MachineId, Arc<SimDisk>>,
    procs: Vec<Option<Proc>>,
    graveyard: Vec<Proc>,
    roles: BTreeMap<String, ProcId>,
    incarnations: BTreeMap<String, u64>,
    heap: BinaryHeap<Reverse<Ev>>,
    seq: u64,
    events: u64,
    event_cap: u64,
    horizon: u64,
    workload_rng: SimRng,
    /// Seeds the torn-write cut on a power-fail (own fork: crash draws
    /// never shift fault, jitter or workload streams).
    crash_rng: SimRng,
}

impl Sim {
    /// A fresh world, around `store` if anything in it shares one. The
    /// root seed is forked into independent fault, jitter and workload
    /// streams, so a scenario that adds workload draws does not shift
    /// fault decisions (and vice versa).
    pub fn new(
        store: Option<Store>,
        net_cfg: NetConfig,
        seed: u64,
        horizon: u64,
        mode: ScriptMode,
    ) -> Self {
        let mut root = SimRng::new(seed);
        let fault = root.fork(1);
        let jitter = root.fork(2);
        let workload = root.fork(3);
        let crash = root.fork(4);
        Sim {
            clock: SimClock::new(),
            topo: Topology::new(),
            net: SimNet::new(net_cfg, fault, jitter, mode),
            trace: Trace::new(),
            store,
            flags: RunFlags::default(),
            disks: BTreeMap::new(),
            procs: Vec::new(),
            graveyard: Vec::new(),
            roles: BTreeMap::new(),
            incarnations: BTreeMap::new(),
            heap: BinaryHeap::new(),
            seq: 0,
            events: 0,
            event_cap: 4_000_000,
            horizon,
            workload_rng: workload,
            crash_rng: crash,
        }
    }

    /// The durable disk of `machine`, created empty on first use. The
    /// disk outlives every process on the machine.
    pub fn disk(&mut self, machine: MachineId) -> Arc<SimDisk> {
        Arc::clone(self.disks.entry(machine).or_default())
    }

    /// The store and boot report of every live server that owns one. A
    /// store that died with its server is not here.
    pub fn owned_stores(&self) -> impl Iterator<Item = &OwnedStore> {
        self.procs.iter().flatten().filter_map(|p| match p {
            Proc::Server(s) => s.own.as_ref(),
            _ => None,
        })
    }

    /// Every store alive in the world: the shared one, then each live
    /// server's own.
    pub fn stores(&self) -> impl Iterator<Item = &Store> {
        let owned = self.owned_stores().map(|own| &own.store);
        self.store.iter().chain(owned)
    }

    /// Schedule `kind` at absolute simulated time `at`.
    pub fn at(&mut self, at: u64, kind: EvKind) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Ev { at, seq, kind }));
    }

    /// Events executed so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// The process currently holding `role`, if alive.
    pub fn proc_by_role(&self, role: &str) -> Option<&Proc> {
        let pid = *self.roles.get(role)?;
        self.procs[pid.0 as usize].as_ref()
    }

    /// Every process that ever lived — live ones first, then the
    /// graveyard — for end-of-run accounting.
    pub fn all_procs(&self) -> impl Iterator<Item = &Proc> {
        self.procs.iter().flatten().chain(self.graveyard.iter())
    }

    /// Create a process now, register its role, and schedule its first
    /// wake. Respawns reuse the role name and get a fresh [`ProcId`]
    /// and a fresh (but deterministic) workload stream keyed on
    /// `(role, incarnation)`.
    ///
    /// A server that owns its store recovers it from its machine's
    /// surviving disk bytes first (a first boot over an empty disk
    /// recovers to a fresh store, zero report). A refused recovery —
    /// replay divergence under a faulty backend, the discriminator the
    /// kill-recover scenario pins — leaves the role down and is counted
    /// in [`RunFlags::recovery_refused`]: the store never serves state
    /// it cannot vouch for.
    pub fn spawn(&mut self, spec: ProcSpec) -> ProcId {
        let now = self.clock.now();
        let (machine, role) = spec.place();
        let role = role.to_string();
        let inc = self.incarnations.entry(role.clone()).or_insert(0);
        *inc += 1;
        let label = format!("{role}#{inc}");
        let rng_label = splitmix64(fnv(&role)).wrapping_add(*inc);
        let rng = self.workload_rng.fork(rng_label);
        // The pid is taken even if the process never comes up: ids are
        // dense and appear in trace lines.
        let pid = self.topo.process(machine, label.clone());
        debug_assert_eq!(pid.0 as usize, self.procs.len());
        let shared = || {
            self.store
                .as_ref()
                .expect("a row that spawns this process has a shared store (check_row)")
        };
        let proc = match spec {
            ProcSpec::Server { own: None, .. } => Proc::Server(ServerProc::new(pid, shared())),
            ProcSpec::Server {
                own: Some(mut config),
                ..
            } => {
                // A restarted process does not re-experience the previous
                // incarnation's fault randomness: key the store's fault
                // streams on (role, incarnation). This is what gives the
                // recovery digest cross-check teeth — a naive backend's
                // replay diverges instead of faithfully re-corrupting.
                config.seed = splitmix64(config.seed ^ rng_label);
                match Store::recover_with_media(config, self.disk(machine)) {
                    Ok((store, recovery)) => {
                        self.trace.log(
                            now,
                            format!(
                                "recover {label}: {} checkpoint(s), {} record(s) replayed, {} torn tail(s)",
                                recovery.checkpoints_loaded(),
                                recovery.records_replayed(),
                                recovery.torn_tails()
                            ),
                        );
                        let mut server = ServerProc::new(pid, &store);
                        server.own = Some(OwnedStore { store, recovery });
                        Proc::Server(server)
                    }
                    Err(e) => {
                        self.flags.recovery_refused += 1;
                        self.trace.log(now, format!("recover {label} REFUSED: {e}"));
                        // The slot stays empty and the role vacant:
                        // clients keep retrying.
                        self.procs.push(None);
                        return pid;
                    }
                }
            }
            ProcSpec::Client {
                server_role, cfg, ..
            } => Proc::Client(ClientProc::new(pid, server_role, cfg, rng)),
            ProcSpec::Worker {
                shard,
                keys,
                poll_interval,
                escalate_after,
                target,
                ..
            } => Proc::Worker(WorkerProc::new(
                pid,
                shared().client(),
                shard,
                keys,
                rng,
                poll_interval,
                escalate_after,
                target,
            )),
            ProcSpec::Combiner { interval, .. } => Proc::Combiner(CombinerProc::new(
                pid,
                shared().client(),
                shared().shards(),
                interval,
            )),
        };
        self.procs.push(Some(proc));
        self.roles.insert(role, pid);
        self.trace.log(now, format!("spawn {label} as {pid}"));
        self.at(now + HANDLE_DELAY, EvKind::Wake(pid));
        pid
    }

    fn kill(&mut self, role: &str) {
        let now = self.clock.now();
        let Some(pid) = self.roles.remove(role) else {
            self.trace
                .log(now, format!("kill {role}: no such role (already dead)"));
            return;
        };
        let mut corpse = self.procs[pid.0 as usize]
            .take()
            .expect("role table pointed at an empty slot");
        // Volatile state dies with the process — for a server that owns
        // its store, the store (and the WAL's unsynced group-commit
        // buffer with it); the machine's disk bytes survive in
        // `self.disks`.
        corpse.crashed();
        self.trace.log(
            now,
            format!("kill {role} ({pid} on {})", self.topo.machine_of(pid)),
        );
        let mut outbox = Outbox::default();
        for conn in self.net.conns_of(pid) {
            outbox.deliveries.extend(self.net.close(now, conn, pid));
        }
        self.drain(outbox);
        self.graveyard.push(corpse);
    }

    /// Power-fail the machine hosting `role`: the kill plus
    /// [`SimDisk::crash`] on its disk — the last in-flight group
    /// commit survives only as a seeded torn prefix.
    fn power_fail(&mut self, role: &str) {
        let machine = self.roles.get(role).map(|&pid| self.topo.machine_of(pid));
        self.kill(role);
        let now = self.clock.now();
        let Some(disk) = machine.and_then(|m| self.disks.get(&m)).map(Arc::clone) else {
            return; // no durable state on that machine: plain kill
        };
        for torn in disk.crash(&mut self.crash_rng) {
            self.trace.log(
                now,
                format!(
                    "power-fail {role}: {} torn ({} of {} in-flight bytes survive)",
                    torn.name, torn.kept, torn.in_flight
                ),
            );
        }
    }

    fn drain(&mut self, outbox: Outbox) {
        for d in outbox.deliveries {
            self.at(d.at, EvKind::Deliver(d));
        }
        for (at, who) in outbox.wakes {
            self.at(at, EvKind::Wake(who));
        }
    }

    /// Run one handler of `pid` — its wake, or the arrival of
    /// `arrival` — over a [`Ctx`] of the world, then enqueue what it
    /// scheduled.
    fn dispatch(&mut self, pid: ProcId, arrival: Option<(ConnId, Payload)>) {
        let now = self.clock.now();
        let Some(mut proc) = self.procs[pid.0 as usize].take() else {
            // A stale timer on a corpse is dropped silently; lost bytes
            // are worth a line.
            if arrival.is_some() {
                self.trace
                    .log(now, format!("deliver to dead {pid} dropped"));
            }
            return;
        };
        let mut ctx = Ctx {
            now,
            net: &mut self.net,
            topo: &self.topo,
            trace: &mut self.trace,
            flags: &mut self.flags,
            roles: &self.roles,
            outbox: Outbox::default(),
        };
        match arrival {
            None => proc.wake(&mut ctx),
            Some((conn, payload)) => proc.on_deliver(&mut ctx, conn, payload),
        }
        let outbox = ctx.outbox;
        self.procs[pid.0 as usize] = Some(proc);
        self.drain(outbox);
    }

    /// Run to the horizon (or heap exhaustion). Panics past the event
    /// cap — a runaway schedule is a scenario bug, not a result.
    pub fn run(&mut self) {
        while let Some(Reverse(ev)) = self.heap.pop() {
            if ev.at > self.horizon {
                break;
            }
            self.events += 1;
            assert!(
                self.events <= self.event_cap,
                "event cap exceeded: runaway scenario"
            );
            self.clock.advance_to(ev.at);
            match ev.kind {
                EvKind::Wake(pid) => self.dispatch(pid, None),
                EvKind::Deliver(d) => self.dispatch(d.to, Some((d.conn, d.payload))),
                EvKind::Kill(role) => self.kill(&role),
                EvKind::PowerFail(role) => self.power_fail(&role),
                EvKind::Spawn(spec) => {
                    self.spawn(spec);
                }
                EvKind::SetNetRates(rates) => {
                    self.trace.log(
                        self.clock.now(),
                        format!(
                            "net rates drop={} dup={} delay={} reorder={}",
                            rates.drop, rates.duplicate, rates.delay, rates.reorder
                        ),
                    );
                    self.net.set_rates(rates);
                }
                EvKind::SetStoreFaultRate(rate) => {
                    self.trace
                        .log(self.clock.now(), format!("store fault rate -> {rate}"));
                    for store in self.stores() {
                        for s in 0..store.shards() {
                            store.fault_knob(s).set_rate(rate);
                        }
                    }
                }
                EvKind::Partition { a, b, on } => {
                    self.trace.log(
                        self.clock.now(),
                        format!("partition {a}<->{b} {}", if on { "open" } else { "healed" }),
                    );
                    self.net.set_partition(a, b, on);
                }
            }
        }
    }
}
