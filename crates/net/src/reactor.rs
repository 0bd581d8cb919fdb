//! The event loops behind [`NetServer`](crate::NetServer): nonblocking
//! connection state machines multiplexed over one
//! [`Poller`](crate::poll::Poller) per loop, each driving a socket-free
//! [`Session`](crate::session::Session) per connection.
//!
//! # One tick
//!
//! 1. **Admit** — drain this loop's inbox of freshly accepted,
//!    already-nonblocking sockets; give each a [`Session`] around
//!    pooled buffers.
//! 2. **Wait** — one blocking `poll(2)` over the loop's wake channel,
//!    every open, unpaused connection (readable?) and every connection
//!    with unflushed responses (writable?). No timeout, unless a writer
//!    is blocked: then the nearest write deadline, so a stalled peer is
//!    still cut off on time. An idle loop makes no syscalls at all.
//! 3. **Read** — pull up to 16 KiB per readable connection straight
//!    into its session's frame buffer: no intermediate chunk copy, and
//!    no zero-fill, since the buffer keeps the room it initialised.
//! 4. **Stage** — each session decodes its complete frames **in
//!    place** with the zero-copy
//!    [`peek_frame`](crate::wire::FrameBuffer::peek_frame) path. Valid
//!    GET/PUT/DEL/BATCH operations from *every* connection merge into
//!    one run; STATS/PING and per-frame validation errors become
//!    immediate response slots. A decode error stages one id-0
//!    `Malformed` frame and marks the session closing —
//!    length-prefixed framing cannot resync.
//! 5. **Execute** — the merged run goes through one
//!    [`Kv::batch`](ff_store::Kv::batch) call on the loop's one
//!    [`StoreClient`]: one pending unit per touched shard for the whole
//!    tick, across connections. Every
//!    `AUDIT_EVERY` runs, server-wide, the loop also audits the shard
//!    logs ([`Store::verify`](ff_store::Store::verify)).
//! 6. **Resolve** — each session encodes its slots' responses into its
//!    output buffer in place, in per-connection request order. A run
//!    error (divergence poisons the shard set; nothing partial is
//!    usable) answers every run slot with the same typed error. The
//!    server's counters are snapshotted for STATS after the run, and
//!    only when some session staged a STATS frame this pass.
//! 7. **Flush** — write until done or `WouldBlock`; a blocked
//!    connection joins the next wait for writability, and a peer
//!    stalled past the write timeout is killed.
//! 8. **Reap** — dead connections return their session's buffers to
//!    the pool and drop the active count.
//!
//! On shutdown a loop (woken through its wake channel) runs one final
//! stage/execute/flush pass over everything already buffered — bounded
//! by the write timeout — then retires its client for post-shutdown
//! verification.
//!
//! Everything between the socket reads and the socket writes — frame
//! decoding, staging, validation, response encoding — lives in
//! [`Session`](crate::session::Session), which `ff-dst` drives over a
//! simulated network with no kernel socket anywhere; the reactor here
//! is only the IO shell around the shared state machine.

use std::io::{ErrorKind, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use ff_store::{Kv, KvOp, StoreClient};
use parking_lot::Mutex;

use crate::buffer::BufferPool;
use crate::poll::{Poller, Waker};
use crate::server::{stats, Shared};
use crate::session::Session;
use crate::wire::StatsReply;

/// Most bytes read per connection per tick — round-robin fairness, not
/// a frame bound.
const READ_CHUNK: usize = 16 * 1024;
/// A connection whose unflushed responses exceed this stops being read
/// until the peer drains it.
const PAUSE_WBUF: usize = 256 * 1024;
/// Merged runs (server-wide) between two audits of the shard logs. The
/// cores decide every slot alone and apply their own record without
/// reading the cell back, so the audit's observer is what notices a cell
/// that *stored* something else while the server is up; one audit
/// replays at most a checkpoint interval of slots per shard.
const AUDIT_EVERY: u64 = 256;

/// The slice of server state one event loop and the acceptor share.
pub(crate) struct LoopShared {
    /// Freshly accepted nonblocking sockets pinned to this loop. Push,
    /// then [`Waker::wake`]: the loop may be blocked with no timeout.
    pub(crate) inbox: Mutex<Vec<TcpStream>>,
    /// Wakes this loop out of its wait.
    pub(crate) waker: Waker,
}

/// One nonblocking connection's state: the IO shell (socket, write
/// cursor, deadlines) around its protocol [`Session`].
struct Conn {
    stream: TcpStream,
    session: Session,
    /// Bytes of the session's output already written to the socket.
    wpos: usize,
    /// Peer half-closed; serve what's buffered, flush, then close.
    eof: bool,
    /// Reap this connection at the end of the tick.
    dead: bool,
    /// When the current blocked write becomes fatal.
    write_deadline: Option<Instant>,
}

impl Conn {
    fn pending_write(&self) -> usize {
        self.session.output().len() - self.wpos
    }

    fn paused(&self) -> bool {
        self.pending_write() > PAUSE_WBUF
    }
}

/// Per-tick scratch, allocated once per loop.
struct Scratch {
    run_ops: Vec<KvOp>,
    /// Which connection each source pushed to the poller belongs to.
    polled: Vec<usize>,
}

/// The body of one event-loop worker thread. `poller` is the read end
/// of `shared.loops[index].waker`.
pub(crate) fn event_loop(shared: Arc<Shared>, index: usize, mut poller: Poller) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut pool = BufferPool::new();
    let mut client = shared.store.client();
    let mut scratch = Scratch {
        run_ops: Vec::new(),
        polled: Vec::new(),
    };
    // Every return from the poller's wait comes back through here:
    // inbox first, then the shutdown flag.
    loop {
        admit(&shared, index, &mut conns, &mut pool);
        if shared.shutdown.load(Ordering::SeqCst) {
            drain_all(&shared, conns, &mut client, &mut scratch, &mut poller);
            shared.retired.lock().push(client);
            return;
        }
        tick(
            &shared,
            &mut conns,
            &mut pool,
            &mut poller,
            &mut client,
            &mut scratch,
        );
    }
}

/// Move freshly pinned sockets from the inbox into the live set.
fn admit(shared: &Shared, index: usize, conns: &mut Vec<Conn>, pool: &mut BufferPool) {
    let mut inbox = shared.loops[index].inbox.lock();
    if inbox.is_empty() {
        return;
    }
    let streams: Vec<TcpStream> = inbox.drain(..).collect();
    drop(inbox);
    for stream in streams {
        conns.push(Conn {
            stream,
            session: Session::from_parts(pool.take_read(), pool.take_write()),
            wpos: 0,
            eof: false,
            dead: false,
            write_deadline: None,
        });
    }
}

fn tick(
    shared: &Shared,
    conns: &mut Vec<Conn>,
    pool: &mut BufferPool,
    poller: &mut Poller,
    client: &mut StoreClient,
    scratch: &mut Scratch,
) {
    // Wait: read interest for open unpaused connections, write interest
    // for blocked response bytes. A connection with neither stays out of
    // the set — the kernel reports a hang-up whatever was asked, and an
    // EOF connection that regained read interest would spin the loop.
    scratch.polled.clear();
    poller.clear();
    for (i, c) in conns.iter().enumerate() {
        if c.dead {
            continue;
        }
        let read = !c.eof && !c.session.closing() && !c.paused();
        let write = c.pending_write() > 0;
        if read || write {
            scratch.polled.push(i);
            poller.push(&c.stream, read, write);
        }
    }
    // The only timeout: a `write_deadline` is set exactly while a write
    // is blocked (see `flush`), and the nearest one bounds the wait.
    let nearest_deadline = conns.iter().filter_map(|c| c.write_deadline).min();
    poller.wait(nearest_deadline.map(|d| d.saturating_duration_since(Instant::now())));

    // Read every readable connection.
    for (slot, &i) in scratch.polled.iter().enumerate() {
        if !poller.readable(slot) {
            continue;
        }
        let c = &mut conns[i];
        match c.session.read_buf().read_from(&mut c.stream, READ_CHUNK) {
            Ok(0) => c.eof = true,
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
            Err(_) => c.dead = true,
        }
    }

    serve_buffered(shared, conns, client, scratch, false);

    for c in conns.iter_mut() {
        flush(c, shared);
    }

    let mut i = 0;
    while i < conns.len() {
        if conns[i].dead {
            reap(conns.swap_remove(i), shared, pool);
        } else {
            i += 1;
        }
    }
}

/// Stage every buffered complete frame, execute the merged run, and
/// have each session encode its responses. `ignore_pause` lets the
/// shutdown drain serve backpressured connections too.
fn serve_buffered(
    shared: &Shared,
    conns: &mut [Conn],
    client: &mut StoreClient,
    scratch: &mut Scratch,
    ignore_pause: bool,
) {
    scratch.run_ops.clear();
    let mut immediate = 0u64;
    let mut staged = 0u64;
    let mut stats_asked = 0u64;
    for c in conns.iter_mut() {
        // Closing sessions stage nothing themselves (the session
        // early-returns); paused connections wait for their peer.
        if c.dead || (!ignore_pause && c.paused()) {
            continue;
        }
        let summary = c.session.stage(&mut scratch.run_ops);
        immediate += summary.immediate;
        staged += summary.staged;
        stats_asked += summary.stats;
    }
    if immediate > 0 {
        shared.ops_served.fetch_add(immediate, Ordering::Relaxed);
    }
    let outcome = if scratch.run_ops.is_empty() {
        None
    } else {
        let result = client.batch(&scratch.run_ops);
        if result.is_ok() {
            shared
                .ops_served
                .fetch_add(scratch.run_ops.len() as u64, Ordering::Relaxed);
        }
        // Coalescing observability: how many frames fed how many merged
        // runs of what size (STATS surfaces the ratios).
        let runs_before = shared.runs_executed.fetch_add(1, Ordering::Relaxed);
        shared
            .run_ops
            .fetch_add(scratch.run_ops.len() as u64, Ordering::Relaxed);
        shared
            .max_run_ops
            .fetch_max(scratch.run_ops.len() as u32, Ordering::Relaxed);
        if runs_before % AUDIT_EVERY == AUDIT_EVERY - 1 {
            // Only the side effect matters here: a corrupted log gets
            // its divergence flag raised, and the shard answers every
            // later run with the typed error. The report is the
            // operator's, from `Store::verify` after shutdown.
            shared.store.verify(&mut []);
        }
        Some(result)
    };
    if staged > 0 {
        shared.frames_staged.fetch_add(staged, Ordering::Relaxed);
    }
    // Resolve after the run so STATS snapshots post-run counters — and
    // snapshot only if a STATS frame asked: the snapshot reads every
    // shard. Every session with staged slots resolves — including
    // closing ones, whose malformed-error answer still has to flush.
    let snapshot = if stats_asked > 0 {
        stats(shared)
    } else {
        StatsReply::default()
    };
    for c in conns.iter_mut() {
        if c.session.pending_slots() > 0 {
            c.session.resolve(outcome.as_ref(), &snapshot);
        }
    }
}

/// Push buffered response bytes until done or `WouldBlock`. A blocked
/// connection keeps a `write_deadline` (and with it write interest in
/// the next wait, which that deadline bounds); a peer blocked past it
/// is cut off.
fn flush(c: &mut Conn, shared: &Shared) {
    if c.dead {
        return;
    }
    while c.wpos < c.session.output().len() {
        match c.stream.write(&c.session.output()[c.wpos..]) {
            Ok(0) => {
                c.dead = true;
                return;
            }
            Ok(n) => {
                c.wpos += n;
                c.write_deadline = None;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                let deadline = *c
                    .write_deadline
                    .get_or_insert_with(|| Instant::now() + shared.config.write_timeout);
                if Instant::now() >= deadline {
                    // The peer stopped draining; its responses are
                    // undeliverable backpressure.
                    c.dead = true;
                }
                return;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => {
                c.dead = true;
                return;
            }
        }
    }
    c.session.clear_output();
    c.wpos = 0;
    c.write_deadline = None;
    if c.session.closing() {
        c.dead = true;
    } else if c.eof && !c.session.has_pending_frame() {
        // Half-closed peer, everything serveable served and flushed; a
        // trailing partial frame can never complete.
        c.dead = true;
    }
}

/// Retire a finished connection: buffers to the pool, active slot
/// released.
fn reap(c: Conn, shared: &Shared, pool: &mut BufferPool) {
    let (rbuf, wbuf) = c.session.into_parts();
    pool.put_read(rbuf);
    pool.put_write(wbuf);
    shared.active.fetch_sub(1, Ordering::SeqCst);
}

/// The shutdown drain: one final serve pass over everything already
/// buffered (backpressured connections included) and a flush that waits
/// for writability, bounded by the write timeout. In-flight requests
/// drain; nothing new is read.
fn drain_all(
    shared: &Shared,
    mut conns: Vec<Conn>,
    client: &mut StoreClient,
    scratch: &mut Scratch,
    poller: &mut Poller,
) {
    serve_buffered(shared, &mut conns, client, scratch, true);
    let deadline = Instant::now() + shared.config.write_timeout;
    loop {
        poller.clear();
        let mut pending = false;
        for c in conns.iter_mut() {
            flush(c, shared);
            if !c.dead && c.pending_write() > 0 {
                poller.push(&c.stream, false, true);
                pending = true;
            }
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if !pending || left.is_zero() {
            break;
        }
        poller.wait(Some(left));
    }
    shared
        .active
        .fetch_sub(conns.len() as u32, Ordering::SeqCst);
}
