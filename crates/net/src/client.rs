//! [`NetClient`]: the TCP implementation of [`Kv`].
//!
//! One client ↔ one connection, served by its event loop's
//! [`StoreClient`](ff_store::StoreClient). The client speaks the `wire` protocol, matches
//! responses to requests by id, and maps wire error frames back onto
//! the same [`StoreError`] values the in-process client produces — so
//! a workload written against [`Kv`] cannot tell the transports apart
//! except by latency.
//!
//! Beyond the trait, [`NetClient::pipeline`] exposes raw pipelining:
//! write N request frames in one syscall, then collect the N in-order
//! responses. [`Kv::batch`] instead sends one BATCH frame, which the
//! server executes as one log pass per touched shard; both cost a
//! single round trip, but BATCH also coalesces consensus work.
//!
//! `pipeline` is itself built from the split halves
//! [`NetClient::send`] / [`NetClient::collect`]: `send` writes the
//! frames and returns a [`PipelineTicket`], `collect` redeems it for
//! the responses. The split lets a driver thread keep one batch in
//! flight on each of *many* connections — send on all, then collect
//! on all — which is how the bench harness loads a reactor with
//! thousands of connections from a handful of threads.

use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use ff_store::{Kv, KvOp, StoreError};

use crate::wire::{encode_request, ErrorCode, FrameBuffer, Request, Response, StatsReply};

/// Most bytes one socket read asks for. They land straight in the
/// client's [`FrameBuffer`], whose spare room is zeroed only when it
/// grows.
const READ_CHUNK: usize = 16 * 1024;

/// A pipelining TCP client for a [`NetServer`](crate::NetServer).
pub struct NetClient {
    stream: TcpStream,
    /// Responses, read off the socket straight into its kept capacity.
    fb: FrameBuffer,
    next_id: u32,
    /// Encode scratch reused across sends.
    obuf: Vec<u8>,
}

/// A receipt for request frames written by [`NetClient::send`] but not
/// yet answered. Redeem it with [`NetClient::collect`]. Tickets must
/// be collected in the order they were issued — the server answers in
/// request order.
#[must_use = "uncollected pipelined requests leave responses on the socket"]
pub struct PipelineTicket {
    first: u32,
    count: usize,
}

impl PipelineTicket {
    /// How many responses this ticket will redeem.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the ticket covers no requests at all.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

fn io_err(e: std::io::Error) -> StoreError {
    StoreError::Io(e.to_string())
}

impl NetClient {
    /// Connect with a 10 s read/write timeout (a server that stops
    /// answering surfaces as [`StoreError::Io`], not a hang).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<NetClient, StoreError> {
        NetClient::connect_with_timeout(addr, Duration::from_secs(10))
    }

    /// Connect with an explicit read/write timeout.
    pub fn connect_with_timeout<A: ToSocketAddrs>(
        addr: A,
        timeout: Duration,
    ) -> Result<NetClient, StoreError> {
        let stream = TcpStream::connect(addr).map_err(io_err)?;
        stream.set_nodelay(true).map_err(io_err)?;
        stream.set_read_timeout(Some(timeout)).map_err(io_err)?;
        stream.set_write_timeout(Some(timeout)).map_err(io_err)?;
        Ok(NetClient {
            stream,
            fb: FrameBuffer::new(),
            next_id: 1,
            obuf: Vec::new(),
        })
    }

    /// Send every request in one write, then read the responses in
    /// order. The server answers in request order, so a mismatched id
    /// is a protocol violation, not a reordering to tolerate.
    pub fn pipeline(&mut self, reqs: &[Request]) -> Result<Vec<Response>, StoreError> {
        let ticket = self.send(reqs)?;
        self.collect(ticket)
    }

    /// Write `reqs` as one burst of frames without waiting for the
    /// answers. Redeem the returned ticket with
    /// [`NetClient::collect`]; multiple tickets may be outstanding but
    /// must be collected in issue order.
    pub fn send(&mut self, reqs: &[Request]) -> Result<PipelineTicket, StoreError> {
        // Ids must never collide with 0 (reserved for connection-level
        // errors); restart the sequence rather than wrap into it.
        if u32::MAX - self.next_id < reqs.len() as u32 {
            self.next_id = 1;
        }
        let first = self.next_id;
        self.obuf.clear();
        for req in reqs {
            encode_request(&mut self.obuf, self.next_id, req);
            self.next_id = self.next_id.wrapping_add(1);
        }
        self.stream.write_all(&self.obuf).map_err(io_err)?;
        Ok(PipelineTicket {
            first,
            count: reqs.len(),
        })
    }

    /// Read the in-order responses to a previously [`send`]-written
    /// burst.
    ///
    /// [`send`]: NetClient::send
    pub fn collect(&mut self, ticket: PipelineTicket) -> Result<Vec<Response>, StoreError> {
        let mut resps = Vec::with_capacity(ticket.count);
        for i in 0..ticket.count {
            let frame = self.read_frame()?;
            let want = ticket.first.wrapping_add(i as u32);
            if frame.id != want {
                // Id 0 is reserved for connection-level errors the
                // server sends unprompted (overloaded, shutting down,
                // unrecoverable framing) before closing.
                if frame.id == 0 {
                    if let Response::Error { .. } = frame.resp {
                        return Err(response_error(frame.resp));
                    }
                }
                return Err(StoreError::Protocol(format!(
                    "response id {} where {} was expected",
                    frame.id, want
                )));
            }
            resps.push(frame.resp);
        }
        Ok(resps)
    }

    fn read_frame(&mut self) -> Result<crate::wire::ResponseFrame, StoreError> {
        loop {
            if let Some(frame) = self
                .fb
                .pop_response()
                .map_err(|e| StoreError::Protocol(e.to_string()))?
            {
                return Ok(frame);
            }
            match self.fb.read_from(&mut self.stream, READ_CHUNK) {
                Ok(0) => return Err(StoreError::Io("connection closed by server".to_string())),
                Ok(_) => {}
                Err(e) => return Err(io_err(e)),
            }
        }
    }

    fn roundtrip(&mut self, req: Request) -> Result<Response, StoreError> {
        let mut resps = self.pipeline(std::slice::from_ref(&req))?;
        Ok(resps
            .pop()
            .expect("pipeline returns one response per request"))
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), StoreError> {
        match self.roundtrip(Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(response_error(other)),
        }
    }

    /// Fetch server-side counters.
    pub fn stats(&mut self) -> Result<StatsReply, StoreError> {
        match self.roundtrip(Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => Err(response_error(other)),
        }
    }

    fn value_of(&mut self, req: Request) -> Result<Option<u32>, StoreError> {
        match self.roundtrip(req)? {
            Response::Value(v) => Ok(v),
            other => Err(response_error(other)),
        }
    }
}

/// An error frame maps back onto the [`StoreError`] the in-process
/// client would have returned; anything else is a protocol violation.
///
/// Public so drivers built directly on [`NetClient::send`] /
/// [`NetClient::collect`] (the bench harness) share the client's exact
/// error semantics instead of re-deriving the code → error mapping.
pub fn response_error(resp: Response) -> StoreError {
    match resp {
        Response::Error {
            code,
            detail,
            message,
        } => match code {
            ErrorCode::Divergence => StoreError::Divergence {
                shard: detail as usize,
            },
            ErrorCode::KeyOutOfRange => StoreError::KeyOutOfRange { key: detail },
            ErrorCode::ValueOutOfRange => StoreError::ValueOutOfRange { value: detail },
            other => StoreError::Server {
                code: other as u8,
                message,
            },
        },
        other => StoreError::Protocol(format!("unexpected response {other:?}")),
    }
}

impl Kv for NetClient {
    fn get(&mut self, key: u32) -> Result<Option<u32>, StoreError> {
        self.value_of(Request::Get { key })
    }

    fn put(&mut self, key: u32, value: u32) -> Result<Option<u32>, StoreError> {
        self.value_of(Request::Put { key, value })
    }

    fn del(&mut self, key: u32) -> Result<Option<u32>, StoreError> {
        self.value_of(Request::Del { key })
    }

    fn batch(&mut self, ops: &[KvOp]) -> Result<Vec<Option<u32>>, StoreError> {
        match self.roundtrip(Request::Batch(ops.to_vec()))? {
            Response::Batch(values) => {
                if values.len() != ops.len() {
                    return Err(StoreError::Protocol(format!(
                        "batch of {} ops answered with {} values",
                        ops.len(),
                        values.len()
                    )));
                }
                Ok(values)
            }
            other => Err(response_error(other)),
        }
    }
}
