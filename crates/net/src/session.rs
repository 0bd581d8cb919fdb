//! The transport seam: one connection's protocol state machine with no
//! socket in sight.
//!
//! A [`Session`] owns the receive-side [`FrameBuffer`] and the
//! send-side byte buffer of one connection and runs everything between
//! them — frame decoding, per-frame validation, staging into a merged
//! operation run, and response encoding. What it deliberately does
//! *not* do is IO: bytes arrive via [`Session::ingest`] (or straight
//! off a socket into [`Session::read_buf`]) and leave via
//! [`Session::output`], so the same state machine serves both drivers:
//!
//! * the production reactor, which feeds it from nonblocking TCP reads
//!   and flushes its output as the socket accepts it, and
//! * `ff-dst`'s deterministic simulator, which feeds it the exact wire
//!   bytes a simulated network delivered — chunked, delayed, reordered
//!   or truncated as the fault schedule dictates — with no kernel
//!   socket anywhere in the process.
//!
//! The request lifecycle per serve pass is `stage → execute → resolve`:
//! [`Session::stage`] decodes every buffered complete frame, pushing
//! validated operations into the caller's shared run (offsets recorded
//! per frame) and deciding everything that needs no store trip; the
//! caller executes the merged run through the real store; and
//! [`Session::resolve`] encodes one response per staged frame, in
//! arrival order, into the output buffer. A decode error stages one
//! id-0 `Malformed` response and marks the session
//! [`closing`](Session::closing) — length-prefixed framing cannot
//! resync, so the connection is done once that answer flushes.

use crate::wire::{
    encode_response, encode_values, Decoded, ErrorCode, FrameBuffer, RequestRef, Response,
    StatsReply,
};
use ff_store::{KvOp, StoreError, KV_MAX};

/// Where one staged frame's answer comes from.
enum SlotKind {
    /// `run[off]` — a coalesced single-op frame.
    Single { off: usize },
    /// `run[off..off+n]` — a BATCH frame merged into the run.
    Batch { off: usize, n: usize },
    /// Server counters, snapshotted at resolve time.
    Stats,
    /// PING.
    Pong,
    /// Already decided at stage time (validation error, malformed,
    /// empty batch).
    Ready(Response),
}

/// One response owed to the peer, in staging order.
struct Slot {
    id: u32,
    kind: SlotKind,
}

/// What one [`Session::stage`] pass did, for the driver's accounting.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageSummary {
    /// Frames answered without a store trip (STATS, PING, empty BATCH).
    pub immediate: u64,
    /// Response slots staged (every complete frame stages exactly one).
    pub staged: u64,
    /// STATS frames among them: the driver snapshots its counters for
    /// [`Session::resolve`] only when some session staged one.
    pub stats: u64,
}

/// One connection's socket-free protocol state machine. See the module
/// docs for the lifecycle.
pub struct Session {
    rbuf: FrameBuffer,
    out: Vec<u8>,
    slots: Vec<Slot>,
    closing: bool,
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

impl Session {
    /// A fresh session with empty buffers.
    pub fn new() -> Self {
        Session::from_parts(FrameBuffer::new(), Vec::new())
    }

    /// Build a session around pooled buffers (the reactor's path).
    pub fn from_parts(rbuf: FrameBuffer, out: Vec<u8>) -> Self {
        Session {
            rbuf,
            out,
            slots: Vec::new(),
            closing: false,
        }
    }

    /// Tear the session down, returning its buffers for pooling.
    pub fn into_parts(self) -> (FrameBuffer, Vec<u8>) {
        (self.rbuf, self.out)
    }

    /// Feed raw wire bytes (the simulator's path: whatever chunking the
    /// simulated network produced, byte-exact).
    pub fn ingest(&mut self, bytes: &[u8]) {
        self.rbuf.extend(bytes);
    }

    /// Direct access to the receive buffer, for drivers that read from
    /// a socket straight into it.
    pub fn read_buf(&mut self) -> &mut FrameBuffer {
        &mut self.rbuf
    }

    /// Framing lost: nothing further will be staged, and the connection
    /// should close once the buffered responses flush.
    pub fn closing(&self) -> bool {
        self.closing
    }

    /// A complete frame is buffered and waiting to be staged.
    pub fn has_pending_frame(&self) -> bool {
        matches!(self.rbuf.peek_frame(), Ok(Decoded::Frame { .. }))
    }

    /// Staged frames not yet resolved.
    pub fn pending_slots(&self) -> usize {
        self.slots.len()
    }

    /// Encoded response bytes not yet taken by the driver.
    pub fn output(&self) -> &[u8] {
        &self.out
    }

    /// Drop output bytes the driver has fully delivered.
    pub fn clear_output(&mut self) {
        self.out.clear();
    }

    /// Take the buffered output (the simulator's path: the bytes go to
    /// the simulated network verbatim).
    pub fn take_output(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.out)
    }

    /// Decode and stage every buffered complete frame. Validated
    /// GET/PUT/DEL/BATCH operations append to `run_ops` — the caller's
    /// merged run, possibly shared with other sessions — and everything
    /// decidable without the store (STATS, PING, validation errors,
    /// malformed input) stages an immediate slot. Returns what happened
    /// for the driver's counters.
    pub fn stage(&mut self, run_ops: &mut Vec<KvOp>) -> StageSummary {
        let mut summary = StageSummary::default();
        if self.closing {
            return summary;
        }
        loop {
            let consumed = match self.rbuf.peek_frame() {
                Ok(Decoded::NeedMoreData) => break,
                Ok(Decoded::Frame { frame, consumed }) => {
                    let id = frame.id;
                    match frame.req {
                        RequestRef::Get { key } => {
                            stage_op(id, KvOp::Get(key), run_ops, &mut self.slots);
                        }
                        RequestRef::Put { key, value } => {
                            stage_op(id, KvOp::Put(key, value), run_ops, &mut self.slots);
                        }
                        RequestRef::Del { key } => {
                            stage_op(id, KvOp::Del(key), run_ops, &mut self.slots);
                        }
                        RequestRef::Batch(b) if b.is_empty() => {
                            // Nothing to execute: answer now. Joining
                            // the run would stage a response slot
                            // without any backing operations — a pass
                            // where no other frame contributes would
                            // then have an empty run to resolve it
                            // from.
                            summary.immediate += 1;
                            self.slots.push(Slot {
                                id,
                                kind: SlotKind::Ready(Response::Batch(Vec::new())),
                            });
                        }
                        RequestRef::Batch(b) => match b.iter().try_for_each(validate) {
                            Ok(()) => {
                                let off = run_ops.len();
                                run_ops.extend(b.iter());
                                self.slots.push(Slot {
                                    id,
                                    kind: SlotKind::Batch { off, n: b.len() },
                                });
                            }
                            // A batch either joins the run whole or is
                            // rejected whole — same contract as
                            // `StoreClient::batch`, checked here so one
                            // client's bad frame can't poison the
                            // merged run.
                            Err(e) => self.slots.push(Slot {
                                id,
                                kind: SlotKind::Ready(error_response(&e)),
                            }),
                        },
                        RequestRef::Stats => {
                            summary.immediate += 1;
                            summary.stats += 1;
                            self.slots.push(Slot {
                                id,
                                kind: SlotKind::Stats,
                            });
                        }
                        RequestRef::Ping => {
                            summary.immediate += 1;
                            self.slots.push(Slot {
                                id,
                                kind: SlotKind::Pong,
                            });
                        }
                    }
                    consumed
                }
                Err(e) => {
                    // Length-prefixed framing cannot resync after a bad
                    // frame: answer what we staged, send one id-0
                    // error, close.
                    self.slots.push(Slot {
                        id: 0,
                        kind: SlotKind::Ready(Response::Error {
                            code: ErrorCode::Malformed,
                            detail: 0,
                            message: e.to_string(),
                        }),
                    });
                    self.rbuf.reset();
                    self.closing = true;
                    break;
                }
            };
            self.rbuf.consume(consumed);
        }
        summary.staged = self.slots.len() as u64;
        summary
    }

    /// Encode one response per staged slot, in arrival order, into the
    /// output buffer. `outcome` is the merged run's result — required
    /// (`Some`) iff this session contributed operations; a run error
    /// answers every run-backed slot with the same typed error
    /// (divergence poisons the shard set; nothing partial is usable).
    /// `stats` answers any STATS frames; a driver whose sessions staged
    /// none ([`StageSummary::stats`]) may pass any value.
    ///
    /// Encoding is in place: a BATCH answer is written straight from
    /// the run's slice, so with a reused output buffer a pass of value
    /// and batch answers allocates nothing.
    pub fn resolve(
        &mut self,
        outcome: Option<&Result<Vec<Option<u32>>, StoreError>>,
        stats: &StatsReply,
    ) {
        for slot in self.slots.drain(..) {
            let resp = match slot.kind {
                SlotKind::Single { off } => match outcome {
                    Some(Ok(values)) => Response::Value(values[off]),
                    Some(Err(e)) => error_response(e),
                    None => unreachable!("run slots imply a nonempty run"),
                },
                SlotKind::Batch { off, n } => match outcome {
                    Some(Ok(values)) => {
                        encode_values(&mut self.out, slot.id, &values[off..off + n]);
                        continue;
                    }
                    Some(Err(e)) => error_response(e),
                    None => unreachable!("run slots imply a nonempty run"),
                },
                SlotKind::Stats => Response::Stats(*stats),
                SlotKind::Pong => Response::Pong,
                SlotKind::Ready(resp) => resp,
            };
            encode_response(&mut self.out, slot.id, &resp);
        }
    }
}

/// Stage one coalescible single-op frame: into the merged run if it
/// validates, an immediate typed error slot if not.
fn stage_op(id: u32, op: KvOp, run_ops: &mut Vec<KvOp>, slots: &mut Vec<Slot>) {
    match validate(op) {
        Ok(()) => {
            slots.push(Slot {
                id,
                kind: SlotKind::Single { off: run_ops.len() },
            });
            run_ops.push(op);
        }
        Err(e) => {
            slots.push(Slot {
                id,
                kind: SlotKind::Ready(error_response(&e)),
            });
        }
    }
}

/// The same up-front validation `StoreClient::batch` applies, hoisted
/// before run merging so each frame fails alone.
pub fn validate(op: KvOp) -> Result<(), StoreError> {
    let key = op.key();
    if key > KV_MAX {
        return Err(StoreError::KeyOutOfRange { key });
    }
    if let KvOp::Put(_, value) = op {
        if value > KV_MAX {
            return Err(StoreError::ValueOutOfRange { value });
        }
    }
    Ok(())
}

/// Map a [`StoreError`] onto a wire error frame; the `detail` word
/// carries the machine-readable part (shard, key, value).
pub fn error_response(e: &StoreError) -> Response {
    let (code, detail) = match *e {
        StoreError::Divergence { shard } => (ErrorCode::Divergence, shard as u32),
        StoreError::KeyOutOfRange { key } => (ErrorCode::KeyOutOfRange, key),
        StoreError::ValueOutOfRange { value } => (ErrorCode::ValueOutOfRange, value),
        StoreError::Io(_) | StoreError::Protocol(_) | StoreError::Server { .. } => {
            (ErrorCode::Internal, 0)
        }
    };
    Response::Error {
        code,
        detail,
        message: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode_response, encode_request, Request, ResponseFrame};

    fn drain_responses(bytes: &[u8]) -> Vec<ResponseFrame> {
        let mut out = Vec::new();
        let mut at = 0;
        while at < bytes.len() {
            match decode_response(&bytes[at..]).expect("valid response") {
                Decoded::Frame { frame, consumed } => {
                    out.push(frame);
                    at += consumed;
                }
                Decoded::NeedMoreData => panic!("truncated response stream"),
            }
        }
        out
    }

    #[test]
    fn stage_execute_resolve_round_trip() {
        let mut s = Session::new();
        let mut wire = Vec::new();
        encode_request(&mut wire, 1, &Request::Put { key: 4, value: 9 });
        encode_request(&mut wire, 2, &Request::Get { key: 4 });
        encode_request(&mut wire, 3, &Request::Ping);
        s.ingest(&wire);
        let mut run = Vec::new();
        let sum = s.stage(&mut run);
        assert_eq!(sum.immediate, 1);
        assert_eq!(sum.staged, 3);
        assert_eq!(sum.stats, 0, "PING is immediate but not STATS");
        assert_eq!(run, vec![KvOp::Put(4, 9), KvOp::Get(4)]);
        // "Execute" the run and resolve.
        let outcome = Ok(vec![None, Some(9)]);
        s.resolve(Some(&outcome), &StatsReply::default());
        let frames = drain_responses(s.output());
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0].id, 1);
        assert!(matches!(frames[0].resp, Response::Value(None)));
        assert_eq!(frames[1].id, 2);
        assert!(matches!(frames[1].resp, Response::Value(Some(9))));
        assert!(matches!(frames[2].resp, Response::Pong));
        assert_eq!(s.pending_slots(), 0);
    }

    #[test]
    fn byte_chunking_does_not_change_staging() {
        // The simulator's whole premise: however the network chunks the
        // stream, the session decodes the same frames.
        let mut wire = Vec::new();
        encode_request(&mut wire, 7, &Request::Put { key: 1, value: 2 });
        encode_request(&mut wire, 8, &Request::Del { key: 1 });
        let mut whole = Session::new();
        whole.ingest(&wire);
        let mut run_whole = Vec::new();
        whole.stage(&mut run_whole);
        let mut chunked = Session::new();
        let mut run_chunked = Vec::new();
        for b in &wire {
            chunked.ingest(std::slice::from_ref(b));
            chunked.stage(&mut run_chunked);
        }
        assert_eq!(run_whole, run_chunked);
        assert_eq!(whole.pending_slots(), chunked.pending_slots());
    }

    #[test]
    fn invalid_op_fails_alone_and_run_survives() {
        let mut s = Session::new();
        let mut wire = Vec::new();
        encode_request(
            &mut wire,
            1,
            &Request::Put {
                key: u32::MAX,
                value: 1,
            },
        );
        encode_request(&mut wire, 2, &Request::Get { key: 3 });
        s.ingest(&wire);
        let mut run = Vec::new();
        s.stage(&mut run);
        assert_eq!(
            run,
            vec![KvOp::Get(3)],
            "valid op after an invalid one was dropped"
        );
        let outcome = Ok(vec![None]);
        s.resolve(Some(&outcome), &StatsReply::default());
        let frames = drain_responses(s.output());
        assert!(matches!(
            frames[0].resp,
            Response::Error {
                code: ErrorCode::KeyOutOfRange,
                ..
            }
        ));
        assert!(matches!(frames[1].resp, Response::Value(None)));
    }

    #[test]
    fn garbage_input_stages_malformed_and_closes() {
        let mut s = Session::new();
        // A length prefix promising more than MAX_FRAME_LEN is
        // unrecoverable garbage.
        s.ingest(&[0xff, 0xff, 0xff, 0xff, 1, 2, 3]);
        let mut run = Vec::new();
        s.stage(&mut run);
        assert!(run.is_empty());
        assert!(s.closing());
        s.resolve(None, &StatsReply::default());
        let frames = drain_responses(s.output());
        assert_eq!(frames[0].id, 0);
        assert!(matches!(
            frames[0].resp,
            Response::Error {
                code: ErrorCode::Malformed,
                ..
            }
        ));
        // Closing sessions stage nothing further.
        s.ingest(&[1, 2, 3]);
        assert_eq!(s.stage(&mut run).staged, 0);
    }
}
