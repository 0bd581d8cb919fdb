//! The simulated processes: what actually runs on the datacenter's
//! machines.
//!
//! Four process kinds cover the stack the simulator kills:
//!
//! * [`ServerProc`] — the network face of a real [`Store`]: one
//!   socket-free [`Session`] (the *same* state machine the production
//!   reactor drives) per simulated connection, staged into one merged
//!   run and executed through a real [`StoreClient`]. There is one
//!   server process and two places its store can live. Fronting the
//!   world's shared store, a kill models a server crash: sessions and
//!   buffered responses vanish, the store itself survives (its logs
//!   are the durable shared object, like shared memory survives a
//!   thread crash in the paper's model). [Owning](OwnedStore) a store
//!   recovered from its machine's [`SimDisk`](crate::disk::SimDisk),
//!   the store dies with the process and the next incarnation rebuilds
//!   it from the surviving bytes.
//! * [`ClientProc`] — a transaction generator speaking the real wire
//!   protocol: encodes `BATCH` frames with [`encode_request`], decodes
//!   responses with [`decode_response`], and recovers from timeouts,
//!   closed connections and corrupted streams by reconnecting and
//!   resending — at-least-once, like any real client.
//! * [`WorkerProc`] — a store-level client driving the split-phase
//!   combining API (`publish_to_shard` / `poll_published`), escalating
//!   to a forced combine pass when its unit sits unclaimed too long.
//! * [`CombinerProc`] — a dedicated combiner running `combine_begin`
//!   on one wake and `combine_finish` on the next. Killing it **between
//!   the two** drops the ticket — the real crashed-combiner window the
//!   lease/epoch rule in `ff-store` exists to recover from.
//!
//! Every handler is `fn(&mut self, &mut Ctx, …)`. Handlers never touch
//! the event heap directly: they push follow-up wakes and network
//! deliveries into the [`Ctx`]'s [`Outbox`], which the runner drains —
//! every process stays a pure state machine over (time, input).

use std::collections::BTreeMap;

use ff_net::session::Session;
use ff_net::wire::{
    decode_response, encode_request, Decoded, ErrorCode, Request, Response, StatsReply,
};
use ff_store::{
    CombineTicket, Kv, KvOp, PendingCombined, RecoveryReport, Store, StoreClient, StoreError,
};

use crate::net::{ConnId, Delivery, Payload, SimNet};
use crate::rng::SimRng;
use crate::topology::{ProcId, Topology};
use crate::trace::Trace;

/// Small fixed handling latency between a delivery and the wake that
/// serves it (keeps wakes strictly after their triggering arrival).
pub const HANDLE_DELAY: u64 = 10_000; // 10 µs

/// Follow-up work a handler schedules. The runner enqueues deliveries
/// first, then wakes, each in push order — same-instant ties break by
/// that order, so it is part of the trace.
#[derive(Default)]
pub struct Outbox {
    /// Network arrivals to enqueue.
    pub deliveries: Vec<Delivery>,
    /// `(at, who)` wake-ups to enqueue.
    pub wakes: Vec<(u64, ProcId)>,
}

/// Cross-cutting observations the report aggregates.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunFlags {
    /// Merged runs the server answered with a divergence error.
    pub server_divergence: u64,
    /// Response streams a client abandoned as undecodable.
    pub client_stream_resets: u64,
    /// Sessions the server closed after a malformed request stream.
    pub malformed_closes: u64,
    /// Respawns of a store-owning server whose WAL recovery was refused
    /// (replay divergence or I/O failure) — the respawn stays down.
    pub recovery_refused: u64,
}

/// The world as one handler call sees it: the instant, the fabric, the
/// labels and flags, and the [`Outbox`] the runner drains afterwards.
/// Built by the runner's one dispatch function, so whatever else a
/// handler should observe or report (an invoke/response history, typed
/// events) is one more field here, not one more parameter everywhere.
pub struct Ctx<'a> {
    /// Simulated time of this call.
    pub now: u64,
    /// The lossy fabric.
    pub net: &'a mut SimNet,
    /// Which process runs on which machine.
    pub topo: &'a Topology,
    /// The decision log.
    pub trace: &'a mut Trace,
    /// Cross-cutting observations.
    pub flags: &'a mut RunFlags,
    /// Who currently holds each role.
    pub roles: &'a BTreeMap<String, ProcId>,
    /// Follow-up work scheduled by this call.
    pub outbox: Outbox,
}

impl Ctx<'_> {
    /// Append a trace line stamped with this call's time.
    pub fn log(&mut self, line: String) {
        self.trace.log(self.now, line);
    }

    /// Wake `who` again `after` nanoseconds from now.
    pub fn wake(&mut self, after: u64, who: ProcId) {
        self.outbox.wakes.push((self.now + after, who));
    }

    /// Send one chunk from `from` over `conn`; whatever the fabric lets
    /// through is queued for delivery.
    pub fn send(&mut self, conn: ConnId, from: ProcId, bytes: Vec<u8>) {
        let sends = self
            .net
            .send(self.now, conn, from, bytes, self.topo, self.trace);
        self.outbox.deliveries.extend(sends);
    }

    /// Close `conn` from `by`'s side and queue the peer's notification.
    pub fn close(&mut self, conn: ConnId, by: ProcId) {
        self.outbox
            .deliveries
            .extend(self.net.close(self.now, conn, by));
    }
}

/// Any simulated process.
pub enum Proc {
    /// A store's network front-end.
    Server(ServerProc),
    /// A wire-protocol transaction generator.
    Client(ClientProc),
    /// A split-phase combining publisher.
    Worker(WorkerProc),
    /// A dedicated two-wake combiner.
    Combiner(CombinerProc),
}

impl Proc {
    /// The process's own id.
    pub fn id(&self) -> ProcId {
        match self {
            Proc::Server(p) => p.id,
            Proc::Client(p) => p.id,
            Proc::Worker(p) => p.id,
            Proc::Combiner(p) => p.id,
        }
    }

    /// `(completed, divergence_seen)` of a workload process — a client
    /// or a worker; servers and combiners deliver no units of their own.
    pub fn progress(&self) -> Option<(u64, u64)> {
        match self {
            Proc::Client(p) => Some((p.completed, p.divergence_seen)),
            Proc::Worker(p) => Some((p.completed, p.divergence_seen)),
            Proc::Server(_) | Proc::Combiner(_) => None,
        }
    }

    /// Run the process's timer handler.
    pub fn wake(&mut self, ctx: &mut Ctx) {
        match self {
            Proc::Server(p) => p.wake(ctx),
            Proc::Client(p) => p.wake(ctx),
            Proc::Worker(p) => p.wake(ctx),
            Proc::Combiner(p) => p.wake(ctx),
        }
    }

    /// Bytes or a close arrived on `conn`.
    pub fn on_deliver(&mut self, ctx: &mut Ctx, conn: ConnId, payload: Payload) {
        match self {
            Proc::Server(p) => p.on_deliver(ctx, conn, payload),
            Proc::Client(p) => p.on_deliver(ctx, conn, payload),
            // Store-level procs have no network face.
            Proc::Worker(_) | Proc::Combiner(_) => {}
        }
    }

    /// The process just got killed: release what must not survive a
    /// crash. A server that owns its store loses all of it — the
    /// combining layer and, crucially, the WAL's in-memory group-commit
    /// buffer; only the [`SimDisk`]'s bytes remain for the respawn to
    /// recover from. Everything else stays allocated in the graveyard:
    /// dropping a corpse's [`StoreClient`] would unregister its announce
    /// slots and un-park the claims of a dead combiner, which is the
    /// very bug the `nolease` arm exists to show.
    ///
    /// [`SimDisk`]: crate::disk::SimDisk
    pub fn crashed(&mut self) {
        if let Proc::Server(p) = self {
            p.own = None;
        }
    }
}

// ---------------------------------------------------------------- server

/// A store a [`ServerProc`] owns, recovered from its machine's disk via
/// [`Store::recover_with_media`] when the process booted.
pub struct OwnedStore {
    /// The recovered store; it lives exactly as long as the process.
    pub store: Store,
    /// What recovery found at that boot (zeros on the first boot over
    /// an empty disk).
    pub recovery: RecoveryReport,
}

/// The network-facing store server (see module docs).
pub struct ServerProc {
    /// Own process id.
    pub id: ProcId,
    /// Executes every merged run (combining client: self-combines).
    pub client: StoreClient,
    /// One protocol state machine per live connection — the exact
    /// `Session` the production reactor drives over TCP.
    pub sessions: BTreeMap<u32, Session>,
    /// Shard count, echoed in any STATS answer.
    pub shards: u32,
    /// The store this server owns; `None` when it fronts the world's
    /// shared store, and after a crash.
    pub own: Option<OwnedStore>,
}

impl ServerProc {
    /// A server in front of `store`, which it does not own (yet).
    pub fn new(id: ProcId, store: &Store) -> Self {
        ServerProc {
            id,
            client: store.client(),
            sessions: BTreeMap::new(),
            shards: store.shards() as u32,
            own: None,
        }
    }

    /// Bytes or a close arrived on `conn`.
    pub fn on_deliver(&mut self, ctx: &mut Ctx, conn: ConnId, payload: Payload) {
        match payload {
            Payload::Bytes(bytes) => {
                self.sessions.entry(conn.0).or_default().ingest(&bytes);
                ctx.wake(HANDLE_DELAY, self.id);
            }
            Payload::Closed => {
                self.sessions.remove(&conn.0);
            }
        }
    }

    /// One serve pass: stage every session into a merged run, execute
    /// it on the real store, resolve, and ship each session's output.
    pub fn wake(&mut self, ctx: &mut Ctx) {
        let mut run: Vec<KvOp> = Vec::new();
        for session in self.sessions.values_mut() {
            session.stage(&mut run);
        }
        let outcome = if run.is_empty() {
            None
        } else {
            let result = self.client.batch(&run);
            if let Err(e) = &result {
                if matches!(e, StoreError::Divergence { .. }) {
                    ctx.flags.server_divergence += 1;
                }
                ctx.log(format!("server run-error {e}"));
            }
            Some(result)
        };
        let stats = StatsReply {
            shards: self.shards,
            diverged: ctx.flags.server_divergence > 0,
            ..Default::default()
        };
        let mut closed = Vec::new();
        for (&cid, session) in self.sessions.iter_mut() {
            if session.pending_slots() > 0 {
                session.resolve(outcome.as_ref(), &stats);
            }
            let out = session.take_output();
            if !out.is_empty() {
                ctx.send(ConnId(cid), self.id, out);
            }
            if session.closing() {
                // Framing lost: answer shipped, connection done.
                ctx.flags.malformed_closes += 1;
                ctx.log(format!("server close c{cid} (malformed stream)"));
                closed.push(cid);
            }
        }
        for cid in closed {
            self.sessions.remove(&cid);
            ctx.close(ConnId(cid), self.id);
        }
    }
}

// ---------------------------------------------------------------- client

/// Workload knobs of one transaction generator.
#[derive(Clone, Copy, Debug)]
pub struct ClientCfg {
    /// Keys drawn uniformly from `0..keyspace`.
    pub keyspace: u32,
    /// Operations per `BATCH` transaction.
    pub batch: usize,
    /// Resend after this long without a response (nanoseconds).
    pub timeout: u64,
    /// Pause between transactions (nanoseconds).
    pub think: u64,
    /// Stop after this many completed transactions.
    pub target: u64,
}

/// One in-flight transaction.
struct InFlight {
    id: u32,
    ops: Vec<KvOp>,
    sent_at: u64,
}

/// A wire-protocol transaction generator (see module docs).
pub struct ClientProc {
    /// Own process id.
    pub id: ProcId,
    /// Role of the server it talks to (stable across server restarts).
    pub server_role: String,
    /// Workload knobs.
    pub cfg: ClientCfg,
    /// Private workload stream.
    pub rng: SimRng,
    conn: Option<ConnId>,
    rx: Vec<u8>,
    next_id: u32,
    inflight: Option<InFlight>,
    /// Transactions resolved (answered or definitively errored).
    pub completed: u64,
    /// Divergence error frames received — the flag the naive backend
    /// must raise instead of answering wrong.
    pub divergence_seen: u64,
    /// Non-divergence error frames received.
    pub errors_seen: u64,
    /// Timeout/close/corruption resends.
    pub retries: u64,
}

impl ClientProc {
    /// A fresh client; the runner schedules its first wake.
    pub fn new(id: ProcId, server_role: String, cfg: ClientCfg, rng: SimRng) -> Self {
        ClientProc {
            id,
            server_role,
            cfg,
            rng,
            conn: None,
            rx: Vec::new(),
            next_id: 1,
            inflight: None,
            completed: 0,
            divergence_seen: 0,
            errors_seen: 0,
            retries: 0,
        }
    }

    fn build_txn(&mut self) -> Vec<KvOp> {
        (0..self.cfg.batch)
            .map(|_| {
                let key = self.rng.next_range(self.cfg.keyspace as u64) as u32;
                match self.rng.next_range(10) {
                    0..=4 => KvOp::Put(key, self.rng.next_range(1 << 16) as u32),
                    5..=8 => KvOp::Get(key),
                    _ => KvOp::Del(key),
                }
            })
            .collect()
    }

    /// Abandon the current connection, if any; the resend path opens a
    /// fresh one.
    fn hang_up(&mut self, ctx: &mut Ctx) {
        if let Some(c) = self.conn.take() {
            ctx.close(c, self.id);
        }
    }

    fn send_current(&mut self, ctx: &mut Ctx) {
        let Some(inflight) = &mut self.inflight else {
            return;
        };
        inflight.sent_at = ctx.now;
        let conn = match self.conn {
            Some(c) if ctx.net.alive(c) => c,
            _ => {
                let Some(&server) = ctx.roles.get(&self.server_role) else {
                    // Server down and not yet restarted; the timeout
                    // wake retries.
                    ctx.log(format!(
                        "{} no server for role {}",
                        self.id, self.server_role
                    ));
                    ctx.wake(self.cfg.timeout, self.id);
                    return;
                };
                self.rx.clear();
                let c = ctx.net.connect(self.id, server);
                self.conn = Some(c);
                c
            }
        };
        let mut wire = Vec::new();
        encode_request(
            &mut wire,
            inflight.id,
            &Request::Batch(inflight.ops.clone()),
        );
        ctx.send(conn, self.id, wire);
        ctx.wake(self.cfg.timeout, self.id);
    }

    /// Start the next transaction, or resend the current one after a
    /// timeout or lost connection.
    pub fn wake(&mut self, ctx: &mut Ctx) {
        if let Some(inflight) = &self.inflight {
            let lost = self.conn.is_none_or(|c| !ctx.net.alive(c));
            if lost || ctx.now >= inflight.sent_at + self.cfg.timeout {
                self.retries += 1;
                ctx.log(format!(
                    "{} retry txn={} (retry #{}, {})",
                    self.id,
                    inflight.id,
                    self.retries,
                    if lost { "conn lost" } else { "timeout" }
                ));
                self.hang_up(ctx);
                self.send_current(ctx);
            }
            // Else: a stale wake (the response already arrived, or a
            // newer send reset the timer); the live timer wake handles
            // the rest.
            return;
        }
        if self.completed >= self.cfg.target {
            return;
        }
        let ops = self.build_txn();
        let id = self.next_id;
        self.next_id += 1;
        self.inflight = Some(InFlight {
            id,
            ops,
            sent_at: ctx.now,
        });
        self.send_current(ctx);
    }

    /// Response bytes or a close arrived.
    pub fn on_deliver(&mut self, ctx: &mut Ctx, conn: ConnId, payload: Payload) {
        if self.conn != Some(conn) {
            return; // stale connection's leftovers
        }
        match payload {
            Payload::Closed => {
                self.conn = None;
                self.rx.clear();
                if self.inflight.is_some() {
                    ctx.wake(HANDLE_DELAY, self.id);
                }
            }
            Payload::Bytes(bytes) => {
                self.rx.extend_from_slice(&bytes);
                let mut at = 0;
                loop {
                    match decode_response(&self.rx[at..]) {
                        Ok(Decoded::NeedMoreData) => break,
                        Ok(Decoded::Frame { frame, consumed }) => {
                            at += consumed;
                            self.on_response(ctx, frame.id, frame.resp);
                        }
                        Err(e) => {
                            // The lossy fabric corrupted the stream
                            // (dropped/reordered chunk mid-frame):
                            // abandon the connection, the resend path
                            // recovers.
                            ctx.flags.client_stream_resets += 1;
                            ctx.log(format!("{} response stream corrupt: {e}", self.id));
                            self.rx.clear();
                            self.hang_up(ctx);
                            ctx.wake(HANDLE_DELAY, self.id);
                            return;
                        }
                    }
                }
                self.rx.drain(..at);
            }
        }
    }

    fn on_response(&mut self, ctx: &mut Ctx, id: u32, resp: Response) {
        let current = self.inflight.as_ref().map(|f| f.id);
        if current != Some(id) {
            // A duplicate of an already-answered frame, or the id-0
            // malformed notice that precedes a server-side close.
            if let Response::Error { .. } = resp {
                self.errors_seen += 1;
            }
            return;
        }
        match resp {
            Response::Batch(_) => {
                self.completed += 1;
                self.inflight = None;
                ctx.wake(self.cfg.think, self.id);
            }
            Response::Error {
                code: ErrorCode::Divergence,
                ..
            } => {
                // The store refused to answer from diverged state: the
                // flag, not a wrong value. The transaction is resolved.
                self.divergence_seen += 1;
                self.completed += 1;
                self.inflight = None;
                ctx.log(format!("{} divergence error on txn={id}", self.id));
                ctx.wake(self.cfg.think, self.id);
            }
            Response::Error { .. } => {
                self.errors_seen += 1;
                self.completed += 1;
                self.inflight = None;
                ctx.wake(self.cfg.think, self.id);
            }
            // A BATCH is never answered with these.
            Response::Value(_) | Response::Stats(_) | Response::Pong => {}
        }
    }
}

// ---------------------------------------------------------------- worker

/// A split-phase combining publisher (see module docs).
pub struct WorkerProc {
    /// Own process id.
    pub id: ProcId,
    /// Split-phase combining client.
    pub client: StoreClient,
    /// The single shard this worker publishes to.
    pub shard: usize,
    /// Keys routing to that shard.
    pub keys: Vec<u32>,
    /// Private workload stream.
    pub rng: SimRng,
    /// Wake cadence (nanoseconds).
    pub poll_interval: u64,
    /// After this many fruitless polls, force a combine pass.
    pub escalate_after: u32,
    /// Stop after this many delivered units.
    pub target: u64,
    pending: Option<PendingCombined>,
    polls: u32,
    /// Units delivered.
    pub completed: u64,
    /// Divergence results observed.
    pub divergence_seen: u64,
}

impl WorkerProc {
    /// A fresh worker; the runner schedules its first wake.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: ProcId,
        client: StoreClient,
        shard: usize,
        keys: Vec<u32>,
        rng: SimRng,
        poll_interval: u64,
        escalate_after: u32,
        target: u64,
    ) -> Self {
        assert!(!keys.is_empty(), "worker needs keys routing to its shard");
        WorkerProc {
            id,
            client,
            shard,
            keys,
            rng,
            poll_interval,
            escalate_after,
            target,
            pending: None,
            polls: 0,
            completed: 0,
            divergence_seen: 0,
        }
    }

    /// Publish, poll, or escalate.
    pub fn wake(&mut self, ctx: &mut Ctx) {
        match &mut self.pending {
            None => {
                if self.completed >= self.target {
                    return; // done; no rewake
                }
                let key = self.keys[self.rng.next_range(self.keys.len() as u64) as usize];
                let value = self.rng.next_range(1 << 16) as u32;
                match self
                    .client
                    .publish_to_shard(self.shard, &[KvOp::Put(key, value)])
                {
                    Ok(p) => self.pending = Some(p),
                    Err(e) => ctx.log(format!("{} publish refused: {e}", self.id)),
                }
            }
            Some(pending) => match self.client.poll_published(pending) {
                Ok(Some(_)) => {
                    self.completed += 1;
                    self.pending = None;
                    self.polls = 0;
                }
                Ok(None) => {
                    self.polls += 1;
                    if self.polls.is_multiple_of(self.escalate_after) {
                        // Nobody is combining (or the combiner died):
                        // take over, force past the advisory flag.
                        if let Some(ticket) = self.client.combine_begin(self.shard, true) {
                            self.client.combine_finish(ticket);
                            ctx.log(format!("{} escalated combine", self.id));
                        }
                    }
                }
                Err(e) => {
                    self.divergence_seen += 1;
                    self.pending = None;
                    self.polls = 0;
                    ctx.log(format!("{} poll error: {e}", self.id));
                }
            },
        }
        ctx.wake(self.poll_interval, self.id);
    }
}

// -------------------------------------------------------------- combiner

/// A dedicated combiner whose claim and execute phases are separate
/// wakes — the crash window the kill-the-combiner scenario aims at.
pub struct CombinerProc {
    /// Own process id.
    pub id: ProcId,
    /// Combining client used only for begin/finish.
    pub client: StoreClient,
    /// Shards to round-robin over.
    pub shards: usize,
    /// Wake cadence (nanoseconds).
    pub interval: u64,
    held: Option<CombineTicket>,
    rr: usize,
    /// Passes finished.
    pub passes: u64,
}

impl CombinerProc {
    /// A fresh combiner; the runner schedules its first wake.
    pub fn new(id: ProcId, client: StoreClient, shards: usize, interval: u64) -> Self {
        CombinerProc {
            id,
            client,
            shards,
            interval,
            held: None,
            rr: 0,
            passes: 0,
        }
    }

    /// Claim on one wake, execute on the next.
    pub fn wake(&mut self, ctx: &mut Ctx) {
        match self.held.take() {
            Some(ticket) => {
                self.client.combine_finish(ticket);
                self.passes += 1;
            }
            None => {
                let shard = self.rr % self.shards;
                self.rr += 1;
                if let Some(ticket) = self.client.combine_begin(shard, false) {
                    ctx.log(format!("{} combine begin shard={shard}", self.id));
                    self.held = Some(ticket);
                }
            }
        }
        ctx.wake(self.interval, self.id);
    }
}
