//! The simulated network: byte chunks between processes, with seeded
//! probabilistic faults at every send and scripted replay.
//!
//! A connection is a bidirectional byte stream between two processes —
//! what a TCP connection is to the real reactor. Each send hands the
//! network one **chunk** (the simulator sends one encoded frame per
//! chunk, but nothing here assumes framing); the network decides, at a
//! numbered **decision point**, what happens to it:
//!
//! * **deliver** — arrive after base latency + jitter, FIFO-clamped
//!   behind every earlier chunk of the same direction (the TCP-like
//!   default);
//! * **drop** — vanish (the peer's timeout machinery must recover);
//! * **duplicate** — arrive twice (stale frames the peer must ignore);
//! * **delay** — arrive k× late, FIFO order preserved;
//! * **reorder** — skip the FIFO clamp, possibly overtaking earlier
//!   chunks (mid-frame overtaking corrupts the stream — exactly the
//!   input the frame decoder must survive by flagging `Malformed`,
//!   never by panicking).
//!
//! Partitions are separate from chunk faults: a partitioned machine
//! pair drops every crossing chunk deterministically, consuming **no**
//! decision index and no randomness — so a scenario's partition window
//! never shifts the probabilistic fault stream.
//!
//! # Record / replay
//!
//! In **record** mode the fault RNG samples every decision (always the
//! same number of draws per decision, so rate changes never shift later
//! decisions) and non-deliver outcomes are written to a
//! [`FaultScript`]. In **replay** mode the script is consulted instead
//! and the fault RNG is never touched; latency jitter draws from its
//! own forked stream either way. Replaying a run's full recorded script
//! therefore reproduces it exactly — which is what makes
//! [`minimize`](crate::trace::minimize)'s subset replays meaningful.

use std::collections::BTreeMap;

use crate::rng::SimRng;
use crate::topology::{MachineId, ProcId, Topology};
use crate::trace::{FaultAction, FaultScript, Trace};

/// One simulated connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConnId(pub u32);

impl std::fmt::Display for ConnId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// What arrives at a process.
#[derive(Clone, Debug)]
pub enum Payload {
    /// A chunk of stream bytes.
    Bytes(Vec<u8>),
    /// The peer closed (or died); no more bytes will arrive.
    Closed,
}

/// One scheduled arrival, for the event loop to enqueue.
#[derive(Clone, Debug)]
pub struct Delivery {
    /// Simulated arrival time.
    pub at: u64,
    /// Connection the payload belongs to.
    pub conn: ConnId,
    /// Receiving process.
    pub to: ProcId,
    /// What arrives.
    pub payload: Payload,
}

/// Probabilities and latencies of the simulated fabric.
#[derive(Clone, Copy, Debug)]
pub struct NetConfig {
    /// Base one-way latency (nanoseconds).
    pub base_latency: u64,
    /// Uniform extra latency in `0..=jitter` nanoseconds.
    pub jitter: u64,
    /// Latency multiplier applied by [`FaultAction::Delay`].
    pub delay_factor: u32,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            base_latency: 500_000, // 0.5 ms
            jitter: 100_000,
            delay_factor: 20,
        }
    }
}

/// Per-chunk fault probabilities (the scenario's IO-fault dials,
/// separate from its workload of kills and transactions).
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultRates {
    /// P(chunk vanishes).
    pub drop: f64,
    /// P(chunk arrives twice).
    pub duplicate: f64,
    /// P(chunk arrives `delay_factor`× late).
    pub delay: f64,
    /// P(chunk bypasses FIFO clamping).
    pub reorder: f64,
}

/// Record faults as sampled, or replay a fixed script.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScriptMode {
    /// Sample from the fault RNG; write outcomes to the script.
    Record,
    /// The script decides; the fault RNG is untouched.
    Replay(FaultScript),
}

struct Conn {
    a: ProcId,
    b: ProcId,
    alive: bool,
}

/// The simulated fabric.
pub struct SimNet {
    cfg: NetConfig,
    rates: FaultRates,
    mode: ScriptMode,
    recorded: FaultScript,
    decision: u64,
    fault_rng: SimRng,
    jitter_rng: SimRng,
    conns: Vec<Conn>,
    /// FIFO tail per (conn, direction): earliest time the next in-order
    /// chunk may arrive.
    fifo: BTreeMap<(u32, bool), u64>,
    /// Active partitions as normalized machine pairs.
    partitions: Vec<(MachineId, MachineId)>,
}

impl SimNet {
    /// A fabric seeded from two independent streams of the run's root
    /// RNG.
    pub fn new(cfg: NetConfig, fault_rng: SimRng, jitter_rng: SimRng, mode: ScriptMode) -> Self {
        SimNet {
            cfg,
            rates: FaultRates::default(),
            mode,
            recorded: FaultScript::new(),
            decision: 0,
            fault_rng,
            jitter_rng,
            conns: Vec::new(),
            fifo: BTreeMap::new(),
            partitions: Vec::new(),
        }
    }

    /// Change the live fault probabilities (a scenario dial; decisions
    /// already made are unaffected, and the per-decision draw count is
    /// rate-independent so later decisions don't shift).
    pub fn set_rates(&mut self, rates: FaultRates) {
        self.rates = rates;
    }

    /// The script recorded so far (record mode) — hand this to
    /// [`crate::trace::minimize`] after a failing run.
    pub fn recorded(&self) -> &FaultScript {
        &self.recorded
    }

    /// Decisions made so far.
    pub fn decisions(&self) -> u64 {
        self.decision
    }

    /// Open a connection between two processes.
    pub fn connect(&mut self, a: ProcId, b: ProcId) -> ConnId {
        self.conns.push(Conn { a, b, alive: true });
        ConnId(self.conns.len() as u32 - 1)
    }

    /// Is the connection still open?
    pub fn alive(&self, conn: ConnId) -> bool {
        self.conns[conn.0 as usize].alive
    }

    /// Every live connection touching `p` — the kill handler closes
    /// them all when `p` dies.
    pub fn conns_of(&self, p: ProcId) -> Vec<ConnId> {
        self.conns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.alive && (c.a == p || c.b == p))
            .map(|(i, _)| ConnId(i as u32))
            .collect()
    }

    /// Close `conn` from `by`'s side: the peer gets a [`Payload::Closed`]
    /// notification after base latency (close notifications are control
    /// state, not chunks — no fault decision applies).
    pub fn close(&mut self, now: u64, conn: ConnId, by: ProcId) -> Option<Delivery> {
        let c = &mut self.conns[conn.0 as usize];
        if !c.alive {
            return None;
        }
        c.alive = false;
        let to = if by == c.a { c.b } else { c.a };
        Some(Delivery {
            at: now + self.cfg.base_latency,
            conn,
            to,
            payload: Payload::Closed,
        })
    }

    /// Open or heal a bidirectional partition between two machines.
    pub fn set_partition(&mut self, a: MachineId, b: MachineId, on: bool) {
        let key = if a <= b { (a, b) } else { (b, a) };
        if on {
            if !self.partitions.contains(&key) {
                self.partitions.push(key);
            }
        } else {
            self.partitions.retain(|&p| p != key);
        }
    }

    fn partitioned(&self, a: MachineId, b: MachineId) -> bool {
        let key = if a <= b { (a, b) } else { (b, a) };
        self.partitions.contains(&key)
    }

    /// Send one chunk from `from` over `conn`. Returns the scheduled
    /// arrivals (empty when dropped, partitioned, or the connection is
    /// closed).
    pub fn send(
        &mut self,
        now: u64,
        conn: ConnId,
        from: ProcId,
        bytes: Vec<u8>,
        topo: &Topology,
        trace: &mut Trace,
    ) -> Vec<Delivery> {
        let c = &self.conns[conn.0 as usize];
        if !c.alive {
            return Vec::new();
        }
        let to = if from == c.a { c.b } else { c.a };
        let a_to_b = from == c.a;
        if self.partitioned(topo.machine_of(from), topo.machine_of(to)) {
            trace.log(now, format!("net {conn} partition-drop {}B", bytes.len()));
            return Vec::new();
        }
        let d = self.decision;
        self.decision += 1;
        let action = match &self.mode {
            ScriptMode::Replay(script) => script.action_at(d),
            ScriptMode::Record => {
                // Always exactly four draws per decision, so changing a
                // rate (or an earlier outcome) never shifts the stream
                // under later decisions.
                let drop = self.fault_rng.chance(self.rates.drop);
                let dup = self.fault_rng.chance(self.rates.duplicate);
                let delay = self.fault_rng.chance(self.rates.delay);
                let reorder = self.fault_rng.chance(self.rates.reorder);
                if drop {
                    FaultAction::Drop
                } else if dup {
                    FaultAction::Duplicate
                } else if delay {
                    FaultAction::Delay(self.cfg.delay_factor)
                } else if reorder {
                    FaultAction::Reorder
                } else {
                    FaultAction::Deliver
                }
            }
        };
        if self.mode == ScriptMode::Record {
            self.recorded.record(d, action);
        }
        if action != FaultAction::Deliver {
            trace.log(
                now,
                format!("net {conn} d={d} {} {}B", action.name(), bytes.len()),
            );
        }
        let latency = self.cfg.base_latency
            + if self.cfg.jitter > 0 {
                self.jitter_rng.next_range(self.cfg.jitter + 1)
            } else {
                0
            };
        let fifo_key = (conn.0, a_to_b);
        let clamp = |net: &mut SimNet, earliest: u64| {
            let tail = net.fifo.entry(fifo_key).or_insert(0);
            let at = earliest.max(*tail);
            // Strictly increasing per direction: equal timestamps would
            // leave arrival order to heap tie-breaking.
            *tail = at + 1;
            at
        };
        let mut out = Vec::new();
        let mut deliver = |at: u64, bytes: Vec<u8>| {
            out.push(Delivery {
                at,
                conn,
                to,
                payload: Payload::Bytes(bytes),
            });
        };
        match action {
            FaultAction::Drop => {}
            FaultAction::Deliver => {
                let at = clamp(self, now + latency);
                deliver(at, bytes);
            }
            FaultAction::Duplicate => {
                let at = clamp(self, now + latency);
                let again = clamp(self, at + latency);
                deliver(at, bytes.clone());
                deliver(again, bytes);
            }
            FaultAction::Delay(k) => {
                let at = clamp(self, now + latency.saturating_mul(k as u64).max(latency));
                deliver(at, bytes);
            }
            FaultAction::Reorder => {
                // Half latency and no clamp: this chunk may land before
                // chunks sent earlier on the same direction.
                deliver(now + latency / 2, bytes);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    fn fabric(mode: ScriptMode) -> (SimNet, Topology, ProcId, ProcId, ConnId) {
        let mut topo = Topology::new();
        let ma = topo.machine("a");
        let mb = topo.machine("b");
        let pa = topo.process(ma, "pa");
        let pb = topo.process(mb, "pb");
        let mut root = SimRng::new(1);
        let net = SimNet::new(NetConfig::default(), root.fork(1), root.fork(2), mode);
        let mut net = net;
        let conn = net.connect(pa, pb);
        (net, topo, pa, pb, conn)
    }

    #[test]
    fn faults_off_delivery_is_fifo_and_lossless() {
        let (mut net, topo, pa, _pb, conn) = fabric(ScriptMode::Record);
        let mut trace = Trace::new();
        let mut arrivals = Vec::new();
        for i in 0..20u8 {
            for d in net.send(i as u64 * 10, conn, pa, vec![i], &topo, &mut trace) {
                arrivals.push(d);
            }
        }
        assert_eq!(arrivals.len(), 20);
        // Arrival times strictly increase and payloads stay in order.
        for w in arrivals.windows(2) {
            assert!(w[0].at < w[1].at);
        }
        let bytes: Vec<u8> = arrivals
            .iter()
            .map(|d| match &d.payload {
                Payload::Bytes(b) => b[0],
                Payload::Closed => unreachable!(),
            })
            .collect();
        assert_eq!(bytes, (0..20).collect::<Vec<u8>>());
        assert!(net.recorded().is_empty());
    }

    #[test]
    fn partitions_drop_without_consuming_decisions() {
        let (mut net, topo, pa, _pb, conn) = fabric(ScriptMode::Record);
        let mut trace = Trace::new();
        net.set_partition(MachineId(0), MachineId(1), true);
        assert!(net.send(0, conn, pa, vec![1], &topo, &mut trace).is_empty());
        assert_eq!(net.decisions(), 0);
        net.set_partition(MachineId(0), MachineId(1), false);
        assert_eq!(net.send(1, conn, pa, vec![2], &topo, &mut trace).len(), 1);
        assert_eq!(net.decisions(), 1);
    }

    #[test]
    fn scripted_faults_replay_without_randomness() {
        let mut script = FaultScript::new();
        script.record(0, FaultAction::Drop);
        script.record(2, FaultAction::Duplicate);
        let (mut net, topo, pa, _pb, conn) = fabric(ScriptMode::Replay(script));
        let mut trace = Trace::new();
        assert!(net.send(0, conn, pa, vec![0], &topo, &mut trace).is_empty());
        assert_eq!(net.send(1, conn, pa, vec![1], &topo, &mut trace).len(), 1);
        assert_eq!(net.send(2, conn, pa, vec![2], &topo, &mut trace).len(), 2);
    }

    #[test]
    fn reorder_can_overtake_earlier_chunks() {
        let mut script = FaultScript::new();
        script.record(1, FaultAction::Reorder);
        let (mut net, topo, pa, _pb, conn) = fabric(ScriptMode::Replay(script));
        let mut trace = Trace::new();
        let first = net.send(0, conn, pa, vec![0], &topo, &mut trace);
        let second = net.send(0, conn, pa, vec![1], &topo, &mut trace);
        assert!(
            second[0].at < first[0].at,
            "reordered chunk should overtake"
        );
    }

    #[test]
    fn closed_connections_swallow_sends_and_notify_the_peer() {
        let (mut net, topo, pa, pb, conn) = fabric(ScriptMode::Record);
        let mut trace = Trace::new();
        let note = net.close(5, conn, pa).expect("first close notifies");
        assert_eq!(note.to, pb);
        assert!(matches!(note.payload, Payload::Closed));
        assert!(net.close(6, conn, pa).is_none());
        assert!(net.send(7, conn, pa, vec![1], &topo, &mut trace).is_empty());
    }
}
