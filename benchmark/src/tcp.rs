//! The TCP workloads: `tcp-pipe` (closed loop over `NetClient`) and
//! `tcp-open` (bursts on a schedule over nonblocking sockets), plus the
//! socket-free layer walk the traced run replays the same requests
//! through.
//!
//! One driver thread and two connections against a one-loop `NetServer`
//! on 127.0.0.1; connection `c` owns the keys `k ≡ c (mod 2)`.

use std::collections::VecDeque;
use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use ff_net::wire::{encode_request, ResponseFrame};
use ff_net::{
    FrameBuffer, NetClient, NetServer, PipelineTicket, Request, Response, ServerConfig, Session,
    StatsReply,
};
use ff_store::{Kv, KvOp, Store, StoreClient, StoreError};

use crate::gen::{Owner, Tally};
use crate::spec::{
    store_config, Kind, Workload, BURST, BURST_PERIOD_NS, OWNERS, PIPE_BURSTS, PIPE_DEPTH,
    SPANS_EVERY,
};
use crate::stats::sample_ns;
use crate::trace::{self, Span, NO_PARENT};
use crate::window::{thread_cpu_ns, SliceClock, ThreadWindow, Window};

/// How long the open loop waits for outstanding responses after its
/// last burst, and a nonblocking write waits for socket space.
const DRAIN_NS: u64 = 10_000_000_000;

fn request(op: KvOp) -> Request {
    match op {
        KvOp::Get(key) => Request::Get { key },
        KvOp::Put(key, value) => Request::Put { key, value },
        KvOp::Del(key) => Request::Del { key },
    }
}

fn value_of(resp: Response) -> Result<Option<u32>, Response> {
    match resp {
        Response::Value(v) => Ok(v),
        other => Err(other),
    }
}

/// A nonblocking connection built from the public wire codec: what the
/// open loop needs and `NetClient`'s blocking `collect` cannot give.
struct OpenConn {
    stream: TcpStream,
    fb: FrameBuffer,
    obuf: Vec<u8>,
    next_id: u32,
}

impl OpenConn {
    fn connect(addr: SocketAddr) -> std::io::Result<OpenConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(OpenConn {
            stream,
            fb: FrameBuffer::new(),
            obuf: Vec::new(),
            next_id: 1,
        })
    }

    /// Write `reqs` as one burst; returns the id of the first frame.
    fn send(&mut self, reqs: &[Request]) -> Result<u32, StoreError> {
        let first = self.next_id;
        self.obuf.clear();
        for req in reqs {
            encode_request(&mut self.obuf, self.next_id, req);
            self.next_id += 1;
        }
        let give_up = trace::now_ns() + DRAIN_NS;
        let mut written = 0;
        while written < self.obuf.len() {
            match self.stream.write(&self.obuf[written..]) {
                Ok(n) => written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock && trace::now_ns() < give_up => {
                    std::thread::yield_now();
                }
                Err(e) => return Err(StoreError::Io(e.to_string())),
            }
        }
        Ok(first)
    }

    /// Read what the socket holds and append every complete response
    /// to `out`.
    fn poll(&mut self, out: &mut Vec<ResponseFrame>) -> Result<(), StoreError> {
        match self.fb.read_from(&mut self.stream, 16 * 1024) {
            Ok(0) => return Err(StoreError::Io("connection closed by server".into())),
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
            Err(e) => return Err(StoreError::Io(e.to_string())),
        }
        while let Some(frame) = self
            .fb
            .pop_response()
            .map_err(|e| StoreError::Protocol(e.to_string()))?
        {
            out.push(frame);
        }
        Ok(())
    }
}

/// Send a burst and wait for its responses: the set-up path both kinds
/// of connection share.
trait Exchange {
    fn exchange(&mut self, reqs: &[Request]) -> Result<Vec<Response>, StoreError>;
}

impl Exchange for NetClient {
    fn exchange(&mut self, reqs: &[Request]) -> Result<Vec<Response>, StoreError> {
        self.pipeline(reqs)
    }
}

impl Exchange for OpenConn {
    fn exchange(&mut self, reqs: &[Request]) -> Result<Vec<Response>, StoreError> {
        self.send(reqs)?;
        let give_up = trace::now_ns() + DRAIN_NS;
        let mut frames = Vec::with_capacity(reqs.len());
        while frames.len() < reqs.len() {
            self.poll(&mut frames)?;
            if trace::now_ns() > give_up {
                return Err(StoreError::Io("no response within 10 s".into()));
            }
        }
        Ok(frames.into_iter().map(|f| f.resp).collect())
    }
}

fn preload(conn: &mut impl Exchange, owner: &mut Owner) {
    for ops in owner.preload_ops().chunks(2 * PIPE_DEPTH) {
        let reqs: Vec<Request> = ops.iter().map(|&op| request(op)).collect();
        let expected: Vec<Option<u32>> = ops.iter().map(|&op| owner.expect(op)).collect();
        match conn.exchange(&reqs) {
            Ok(resps) => {
                for (e, r) in expected.into_iter().zip(resps) {
                    owner.tally.score(e, value_of(r));
                }
            }
            Err(e) => owner.tally.score(None, Err::<Option<u32>, _>(e)),
        }
    }
}

/// One preloaded connection per owner.
fn connect_all<C: Exchange, E: std::fmt::Debug>(
    owners: &mut [Owner],
    connect: impl Fn() -> Result<C, E>,
) -> Vec<C> {
    owners
        .iter_mut()
        .map(|owner| {
            let mut conn = connect().expect("the client connects");
            preload(&mut conn, owner);
            conn
        })
        .collect()
}

fn server_stats(conn: &mut impl Exchange) -> StatsReply {
    match conn.exchange(&[Request::Stats]).map(|mut r| r.pop()) {
        Ok(Some(Response::Stats(stats))) => stats,
        other => {
            eprintln!("benchmark: STATS failed: {other:?}");
            StatsReply::default()
        }
    }
}

enum Conns {
    Pipe(Vec<NetClient>),
    Open(Vec<OpenConn>),
}

/// A preloaded store behind a running server, with connected clients.
pub struct World {
    pub store: Arc<Store>,
    server: NetServer,
    conns: Conns,
    owners: Vec<Owner>,
    /// The layer walk's in-process client, kept for `Store::verify`.
    walker: Option<StoreClient>,
}

/// Build the store, start the server, connect, and preload two thirds
/// of the keyspace as single-op frames over the connections.
pub fn setup(w: &Workload, seed: u64, traced: bool) -> World {
    let store = Arc::new(Store::new(store_config(seed, traced, None)));
    let config = ServerConfig {
        loops: 1,
        ..ServerConfig::default()
    };
    let server = NetServer::start(Arc::clone(&store), "127.0.0.1:0", config)
        .expect("the server binds an ephemeral port");
    let addr = server.addr();
    let mut owners: Vec<Owner> = (0..OWNERS)
        .map(|o| Owner::new(seed, o, OWNERS, w.keys, w.read_pct))
        .collect();
    let conns = if w.kind == Kind::TcpPipe {
        Conns::Pipe(connect_all(&mut owners, || NetClient::connect(addr)))
    } else {
        Conns::Open(connect_all(&mut owners, || OpenConn::connect(addr)))
    };
    World {
        store,
        server,
        conns,
        owners,
        walker: None,
    }
}

/// The server's own counters, asked for over connection 0.
pub fn stats(world: &mut World) -> StatsReply {
    match &mut world.conns {
        Conns::Pipe(c) => server_stats(&mut c[0]),
        Conns::Open(c) => server_stats(&mut c[0]),
    }
}

/// Load the server for `secs` seconds.
pub fn drive(world: &mut World, secs: f64, traced: bool) -> Window {
    let World { conns, owners, .. } = world;
    match conns {
        Conns::Pipe(conns) => drive_pipe(conns, owners, secs, traced),
        Conns::Open(conns) => drive_open(conns, owners, secs, traced),
    }
}

/// One burst `tcp-pipe` has in flight.
struct Flight {
    ticket: PipelineTicket,
    expected: Vec<Option<u32>>,
    sent_ns: u64,
    /// Its root span when tracing.
    root: u32,
}

/// Closed loop with `PIPE_BURSTS` bursts of `PIPE_DEPTH` single-op
/// frames in flight per connection: top every connection up with
/// `send`s, then `collect` and check each connection's oldest burst.
/// One latency sample per burst, from before its `send` to after its
/// `collect`.
///
/// The depth is what keeps the reactor saturated: a tick reads at most
/// 16 KiB per connection, less than a connection has queued, so the
/// loop never finds its sockets empty and never enters its idle
/// backoff. With one 32-frame burst in flight per connection (how this
/// workload was first specified) the loop slept 200 µs or more per round
/// trip, and throughput flipped between two modes (about 170k and 230k
/// ops/s) from run to run; with 32-frame bursts at any depth the driver
/// thread was as busy as the reactor.
fn drive_pipe(conns: &mut [NetClient], owners: &mut [Owner], secs: f64, traced: bool) -> Window {
    let deadline_ns = (secs * 1e9) as u64;
    let mut win = Window::default();
    let mut out = ThreadWindow::default();
    let mut slices = SliceClock::new();
    let cpu = thread_cpu_ns();
    let start = trace::now_ns();
    let mut flights: Vec<VecDeque<Flight>> = conns.iter().map(|_| VecDeque::new()).collect();
    let mut burst = 0u32;
    let mut stopping = false;
    'window: while !stopping || flights.iter().any(|f| !f.is_empty()) {
        for (c, conn) in conns.iter_mut().enumerate() {
            let owner = &mut owners[c];
            while !stopping && flights[c].len() < PIPE_BURSTS {
                let ops: Vec<KvOp> = (0..PIPE_DEPTH).map(|_| owner.next_op()).collect();
                let expected = ops.iter().map(|&op| owner.expect(op)).collect();
                let reqs: Vec<Request> = ops.into_iter().map(request).collect();
                let sent_ns = trace::now_ns();
                let ticket = match conn.send(&reqs) {
                    Ok(ticket) => ticket,
                    Err(e) => {
                        owner.tally.score(None, Err::<Option<u32>, _>(e));
                        break 'window;
                    }
                };
                // A burst is more than SPANS_EVERY frames, so each one
                // carries spans.
                let mut root = NO_PARENT;
                if traced {
                    let now = trace::now_ns();
                    win.send_ns.push(sample_ns(now - sent_ns));
                    root = trace::record("net.burst", sent_ns, 0, NO_PARENT, burst);
                    trace::record("net.client.send", sent_ns, now, root, burst);
                }
                flights[c].push_back(Flight {
                    ticket,
                    expected,
                    sent_ns,
                    root,
                });
                burst += 1;
            }
        }
        for (c, conn) in conns.iter_mut().enumerate() {
            let owner = &mut owners[c];
            let Some(flight) = flights[c].pop_front() else {
                continue;
            };
            let before = trace::now_ns();
            let resps = match conn.collect(flight.ticket) {
                Ok(resps) => resps,
                Err(e) => {
                    owner.tally.score(None, Err::<Option<u32>, _>(e));
                    break 'window;
                }
            };
            let now = trace::now_ns();
            if traced {
                win.collect_ns.push(sample_ns(now - before));
                trace::record("net.client.collect", before, now, flight.root, flight.root);
                trace::set_end(flight.root, now);
            }
            out.lat_ns.push(sample_ns(now - flight.sent_ns));
            for (e, r) in flight.expected.into_iter().zip(resps) {
                owner.tally.score(e, value_of(r));
            }
            out.ops += PIPE_DEPTH as u64;
            slices.tick(now - start, out.ops);
            stopping = now - start >= deadline_ns;
        }
    }
    out.elapsed_ns = trace::now_ns() - start;
    out.cpu_ns = thread_cpu_ns() - cpu;
    out.slice_rates = slices.rates;
    out.spans = trace::take();
    win.threads.push(out);
    win
}

/// One response the open loop is waiting for.
struct Pending {
    id: u32,
    expected: Option<u32>,
    due_ns: u64,
    /// Set on the last frame of a burst: the burst's root span, or
    /// `NO_PARENT` when the burst is not sampled.
    closes: Option<u32>,
}

/// Open loop: burst `i` of 8 single-op frames falls due at
/// `start + i × 80 µs` on connection `i mod 2`, is sent as soon after
/// that as the driver gets to it, and every response is timed from the
/// burst's *due* time.
fn drive_open(conns: &mut [OpenConn], owners: &mut [Owner], secs: f64, traced: bool) -> Window {
    let mut win = Window::default();
    let mut out = ThreadWindow::default();
    out.lat_ns
        .reserve(((secs + 1.0) * 1e9 / BURST_PERIOD_NS as f64) as usize * BURST);
    let mut slices = SliceClock::new();
    let mut pending: Vec<VecDeque<Pending>> = conns.iter().map(|_| VecDeque::new()).collect();
    let mut frames = Vec::new();
    let cpu = thread_cpu_ns();
    let start = trace::now_ns();
    let end = start + (secs * 1e9) as u64;
    let (mut burst, mut outstanding) = (0u64, 0u64);
    'window: loop {
        let now = trace::now_ns();
        let due = start + burst * BURST_PERIOD_NS;
        if due < end && now >= due {
            let c = (burst % conns.len() as u64) as usize;
            let ops: Vec<KvOp> = (0..BURST).map(|_| owners[c].next_op()).collect();
            let reqs: Vec<Request> = ops.iter().map(|&op| request(op)).collect();
            let first = match conns[c].send(&reqs) {
                Ok(first) => first,
                Err(e) => {
                    owners[c].tally.score(None, Err::<Option<u32>, _>(e));
                    break 'window;
                }
            };
            let sent = trace::now_ns();
            win.late_max_ns = win.late_max_ns.max(now - due);
            let mut root = NO_PARENT;
            if traced {
                win.send_ns.push(sample_ns(sent - now));
                if burst % (SPANS_EVERY / BURST as u64) == 0 {
                    root = trace::record("net.burst", due, 0, NO_PARENT, burst as u32);
                    trace::record("net.client.send", now, sent, root, burst as u32);
                }
            }
            for (i, &op) in ops.iter().enumerate() {
                pending[c].push_back(Pending {
                    id: first + i as u32,
                    expected: owners[c].expect(op),
                    due_ns: due,
                    closes: (i + 1 == BURST).then_some(root),
                });
            }
            outstanding += 1;
            win.backlog_max = win.backlog_max.max(outstanding);
            burst += 1;
            continue;
        }
        for (c, conn) in conns.iter_mut().enumerate() {
            if pending[c].is_empty() {
                continue;
            }
            let before = trace::now_ns();
            if let Err(e) = conn.poll(&mut frames) {
                owners[c].tally.score(None, Err::<Option<u32>, _>(e));
                break 'window;
            }
            if frames.is_empty() {
                continue;
            }
            let seen = trace::now_ns();
            if traced {
                win.collect_ns.push(sample_ns(seen - before));
            }
            for frame in frames.drain(..) {
                let p = pending[c]
                    .pop_front()
                    .expect("the server answers only what was asked");
                out.lat_ns.push(sample_ns(seen - p.due_ns));
                let got = if frame.id == p.id {
                    value_of(frame.resp)
                } else {
                    Err(frame.resp)
                };
                owners[c].tally.score(p.expected, got);
                out.ops += 1;
                if let Some(root) = p.closes {
                    outstanding -= 1;
                    if root != NO_PARENT {
                        trace::set_end(root, seen);
                    }
                }
            }
        }
        slices.tick(now - start, out.ops);
        if due >= end && outstanding == 0 {
            break;
        }
        if now > end + DRAIN_NS {
            for queue in &pending {
                for p in queue {
                    owners[0]
                        .tally
                        .score(p.expected, Err::<Option<u32>, _>("no response within 10 s"));
                }
            }
            break;
        }
    }
    out.elapsed_ns = trace::now_ns() - start;
    out.cpu_ns = thread_cpu_ns() - cpu;
    out.slice_rates = slices.rates;
    out.spans = trace::take();
    win.threads.push(out);
    win
}

/// What the layer walk measured.
pub struct Walk {
    pub spans: Vec<Span>,
    pub frames: u64,
    pub req_bytes: u64,
    pub resp_bytes: u64,
}

/// Replay the workload's request stream for `secs` seconds through the
/// public pipeline with no socket and no reactor: `encode_request` →
/// `Session::ingest` → `Session::stage` → `StoreClient::batch` →
/// `Session::resolve` → `Session::take_output` →
/// `FrameBuffer::pop_response`, one span per step per run. A run stands
/// for one reactor tick: `frames_per_run` frames (what the real server
/// merged per run in the traced window), split evenly over the
/// connections. Runs while the real server sits idle.
pub fn walk(world: &mut World, secs: f64, frames_per_run: f64) -> Walk {
    let conns = world.owners.len();
    let per_conn = (frames_per_run / conns as f64).round().max(1.0) as usize;
    let mut client = world.store.client();
    let mut sessions: Vec<Session> = (0..conns).map(|_| Session::new()).collect();
    let mut replies: Vec<FrameBuffer> = (0..conns).map(|_| FrameBuffer::new()).collect();
    let stats = StatsReply::default();
    let mut walk = Walk {
        spans: Vec::new(),
        frames: 0,
        req_bytes: 0,
        resp_bytes: 0,
    };
    let start = trace::now_ns();
    let deadline = start + (secs * 1e9) as u64;
    let mut round = 0u32;
    while trace::now_ns() < deadline {
        let mut ops: Vec<Vec<KvOp>> = Vec::with_capacity(conns);
        let mut expected: Vec<Vec<Option<u32>>> = Vec::with_capacity(conns);
        for owner in &mut world.owners {
            let burst: Vec<KvOp> = (0..per_conn).map(|_| owner.next_op()).collect();
            expected.push(burst.iter().map(|&op| owner.expect(op)).collect());
            ops.push(burst);
        }
        trace::open_root(round);
        let t0 = trace::now_ns();
        let wires: Vec<Vec<u8>> = trace::span("net.wire.encode_req", || {
            ops.iter()
                .map(|burst| {
                    let mut wire = Vec::new();
                    for (i, &op) in burst.iter().enumerate() {
                        encode_request(&mut wire, i as u32 + 1, &request(op));
                    }
                    wire
                })
                .collect()
        });
        trace::span("net.session.ingest", || {
            for (session, wire) in sessions.iter_mut().zip(&wires) {
                session.ingest(wire);
            }
        });
        let mut run = Vec::new();
        trace::span("net.session.stage", || {
            for session in &mut sessions {
                session.stage(&mut run);
            }
        });
        let outcome = trace::span("store.call", || client.batch(&run));
        trace::span("net.session.resolve", || {
            for session in &mut sessions {
                session.resolve(Some(&outcome), &stats);
            }
        });
        let outs: Vec<Vec<u8>> = trace::span("net.session.take_output", || {
            sessions.iter_mut().map(Session::take_output).collect()
        });
        let resps: Vec<Vec<Response>> = trace::span("net.wire.decode_resp", || {
            replies
                .iter_mut()
                .zip(&outs)
                .map(|(fb, bytes)| {
                    fb.extend(bytes);
                    std::iter::from_fn(|| fb.pop_response().ok().flatten())
                        .map(|f| f.resp)
                        .collect()
                })
                .collect()
        });
        trace::close_root("net.walk", t0, trace::now_ns());
        for (c, (expected, resps)) in expected.into_iter().zip(resps).enumerate() {
            let tally = &mut world.owners[c].tally;
            let mut resps = resps.into_iter();
            for e in expected {
                match resps.next() {
                    Some(r) => tally.score(e, value_of(r)),
                    None => tally.score(e, Err::<Option<u32>, _>("the walk lost a response")),
                }
            }
        }
        walk.frames += (conns * per_conn) as u64;
        walk.req_bytes += wires.iter().map(|w| w.len() as u64).sum::<u64>();
        walk.resp_bytes += outs.iter().map(|o| o.len() as u64).sum::<u64>();
        round += 1;
    }
    walk.spans = trace::take();
    world.walker = Some(client);
    walk
}

/// Disconnect, drain the server, and check what it served.
pub fn finish(world: World) -> Tally {
    let World {
        store,
        server,
        conns,
        owners,
        walker,
    } = world;
    drop(conns);
    let mut tally = Tally::default();
    for owner in &owners {
        tally.add(owner.tally);
    }
    let report = server.shutdown();
    for e in &report.shutdown_errors {
        tally.check(false, &format!("server shutdown: {e}"));
    }
    let mut clients = report.clients;
    clients.extend(walker);
    tally.check(
        store.verify(&mut clients).all_consistent(),
        "Store::verify after shutdown",
    );
    tally
}
