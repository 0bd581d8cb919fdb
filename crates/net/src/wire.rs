//! The `ff-net` wire protocol: length-prefixed binary frames with a
//! versioned header.
//!
//! Every frame, in either direction, is laid out as
//!
//! ```text
//! [len: u32 LE] [version: u8] [type: u8] [request id: u32 LE] [payload …]
//! ```
//!
//! where `len` counts every byte after the length prefix (so the
//! smallest frame is `len = 6`). Integers are little-endian
//! throughout. `request id` is chosen by the client and echoed by the
//! server, which is what makes pipelining safe: a client may write any
//! number of request frames before reading, and matches responses to
//! requests by id (the server answers in order, so ids double as a
//! protocol-violation check).
//!
//! The decoder is *total*: arbitrary input bytes either decode, report
//! [`Decoded::NeedMoreData`] (truncated frame — keep reading), or
//! return a [`DecodeError`] — it never panics, which the proptests in
//! this module pin down. Frames above [`MAX_FRAME_LEN`] are rejected
//! outright so a malicious peer cannot make the server buffer
//! unboundedly.
//!
//! | type | direction | payload |
//! |---|---|---|
//! | `0x01` GET | → | key `u32` |
//! | `0x02` PUT | → | key `u32`, value `u32` |
//! | `0x03` DEL | → | key `u32` |
//! | `0x04` BATCH | → | count `u32`, then count × (op `u8`, key `u32`, value `u32`) |
//! | `0x05` STATS | → | — |
//! | `0x06` PING | → | — |
//! | `0x81` VALUE | ← | present `u8`, value `u32` |
//! | `0x84` BATCH-RESP | ← | count `u32`, then count × (present `u8`, value `u32`) |
//! | `0x85` STATS-RESP | ← | shards `u32`, active conns `u32`, diverged `u8`, ops served `u64` |
//! | `0x86` PONG | ← | — |
//! | `0xEE` ERROR | ← | code `u8`, detail `u32`, msg len `u16`, msg (UTF-8) |

use ff_store::KvOp;

/// Protocol version carried in every frame header.
pub const PROTOCOL_VERSION: u8 = 1;

/// Hard cap on `len` (bytes after the length prefix). Frames claiming
/// more are a protocol error, not a buffering obligation.
pub const MAX_FRAME_LEN: u32 = 1 << 20;

/// Header bytes after the length prefix: version, type, request id.
const HEADER_AFTER_LEN: usize = 6;

// Frame type bytes.
const T_GET: u8 = 0x01;
const T_PUT: u8 = 0x02;
const T_DEL: u8 = 0x03;
const T_BATCH: u8 = 0x04;
const T_STATS: u8 = 0x05;
const T_PING: u8 = 0x06;
const T_VALUE: u8 = 0x81;
const T_BATCH_RESP: u8 = 0x84;
const T_STATS_RESP: u8 = 0x85;
const T_PONG: u8 = 0x86;
const T_ERROR: u8 = 0xEE;

// KvOp tags inside a BATCH payload (match ff-store's opcodes).
const OP_PUT: u8 = 1;
const OP_GET: u8 = 2;
const OP_DEL: u8 = 3;

/// A client → server message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Read a key.
    Get {
        /// Key to read.
        key: u32,
    },
    /// Write `key → value`.
    Put {
        /// Key to write.
        key: u32,
        /// Value to store.
        value: u32,
    },
    /// Remove a key.
    Del {
        /// Key to remove.
        key: u32,
    },
    /// Execute many operations in one round trip; the server groups
    /// same-shard operations into one log pass per shard.
    Batch(Vec<KvOp>),
    /// Ask for server-side counters.
    Stats,
    /// Liveness probe.
    Ping,
}

/// Why the server refused or failed a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The touched shard's consensus cells broke; `detail` is the
    /// shard index. The server answers this instead of wrong data.
    Divergence = 1,
    /// Key outside the 28-bit key space; `detail` is the key.
    KeyOutOfRange = 2,
    /// Value outside the 28-bit value space; `detail` is the value.
    ValueOutOfRange = 3,
    /// The request frame did not parse.
    Malformed = 4,
    /// Connection limit reached — try again later.
    Overloaded = 5,
    /// The server is draining connections for shutdown.
    ShuttingDown = 6,
    /// Anything else.
    Internal = 7,
}

impl ErrorCode {
    fn from_u8(code: u8) -> Option<ErrorCode> {
        Some(match code {
            1 => ErrorCode::Divergence,
            2 => ErrorCode::KeyOutOfRange,
            3 => ErrorCode::ValueOutOfRange,
            4 => ErrorCode::Malformed,
            5 => ErrorCode::Overloaded,
            6 => ErrorCode::ShuttingDown,
            7 => ErrorCode::Internal,
            _ => return None,
        })
    }
}

/// Server-side counters returned by [`Request::Stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsReply {
    /// Shards in the store behind this server.
    pub shards: u32,
    /// Currently open connections.
    pub active_connections: u32,
    /// Has any shard's log accumulated divergence evidence?
    pub diverged: bool,
    /// Requests served since the server started.
    pub ops_served: u64,
    /// Merged cross-connection runs the reactor executed (one per
    /// serve pass that carried operations).
    pub runs_executed: u64,
    /// Operations that went through merged runs; the mean merged-batch
    /// size is `run_ops / runs_executed`.
    pub run_ops: u64,
    /// Largest single merged run.
    pub max_run_ops: u32,
    /// Request frames staged for a response across all serve passes;
    /// frames-per-tick is `frames_staged / runs_executed`.
    pub frames_staged: u64,
    /// Flat-combining passes the store's shard cores ran.
    pub combine_passes: u64,
    /// Operations those combining passes batched.
    pub combine_ops: u64,
    /// Slot records the store's write-ahead log persisted (0 unless the
    /// server runs with a data dir).
    pub wal_records: u64,
    /// Group commits plus checkpoint rotations the WAL fsynced.
    pub wal_fsyncs: u64,
    /// Slot records replayed through consensus when this server
    /// recovered its store at startup.
    pub recovered_records: u64,
    /// Checkpoint snapshots loaded at startup recovery.
    pub recovered_checkpoints: u64,
}

/// A server → client message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Answer to GET/PUT/DEL: previous/current value, if any.
    Value(Option<u32>),
    /// Answer to BATCH, one entry per operation in request order.
    Batch(Vec<Option<u32>>),
    /// Answer to STATS.
    Stats(StatsReply),
    /// Answer to PING.
    Pong,
    /// The request failed.
    Error {
        /// What went wrong.
        code: ErrorCode,
        /// Code-specific detail (shard index, offending key, …).
        detail: u32,
        /// Human-readable message.
        message: String,
    },
}

/// One decoded client → server frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestFrame {
    /// Client-chosen id, echoed in the response.
    pub id: u32,
    /// The request.
    pub req: Request,
}

/// A borrowed view of one decoded request frame — the zero-copy
/// counterpart of [`RequestFrame`], produced by [`decode_frame`].
///
/// Nothing is allocated and no payload bytes are copied: a
/// [`RequestRef::Batch`] keeps a validated slice of the input buffer
/// and decodes its operations lazily. The reactor's hot path stages
/// operations straight out of a connection's read buffer through this
/// view; [`decode_request`] is now a thin `to_owned` wrapper over it,
/// so every totality property proven for one decoder holds for both.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameRef<'a> {
    /// Client-chosen id, echoed in the response.
    pub id: u32,
    /// The request, borrowing the input buffer.
    pub req: RequestRef<'a>,
}

impl FrameRef<'_> {
    /// Copy this view into an owned [`RequestFrame`].
    pub fn to_owned_frame(&self) -> RequestFrame {
        RequestFrame {
            id: self.id,
            req: match self.req {
                RequestRef::Get { key } => Request::Get { key },
                RequestRef::Put { key, value } => Request::Put { key, value },
                RequestRef::Del { key } => Request::Del { key },
                RequestRef::Batch(b) => Request::Batch(b.iter().collect()),
                RequestRef::Stats => Request::Stats,
                RequestRef::Ping => Request::Ping,
            },
        }
    }
}

/// A client → server message, borrowing the decode buffer. See
/// [`Request`] for the semantics of each variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestRef<'a> {
    /// Read a key.
    Get {
        /// Key to read.
        key: u32,
    },
    /// Write `key → value`.
    Put {
        /// Key to write.
        key: u32,
        /// Value to store.
        value: u32,
    },
    /// Remove a key.
    Del {
        /// Key to remove.
        key: u32,
    },
    /// Many operations in one frame, decoded lazily from the buffer.
    Batch(BatchRef<'a>),
    /// Ask for server-side counters.
    Stats,
    /// Liveness probe.
    Ping,
}

/// The operations of a BATCH frame, still in wire form. The payload
/// was fully validated by [`decode_frame`] (count matches the frame
/// length, every tag is known, get/del carry a zero value word), so
/// iteration is infallible.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchRef<'a> {
    /// `len() * 9` bytes of `(tag u8, key u32 LE, value u32 LE)`.
    ops: &'a [u8],
}

impl<'a> BatchRef<'a> {
    /// Number of operations in the batch.
    pub fn len(&self) -> usize {
        self.ops.len() / 9
    }

    /// Is the batch empty?
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Decode the operations in order, straight off the wire bytes.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = KvOp> + 'a {
        self.ops.as_chunks().0.iter().map(|op| {
            let (tag, key, value) = op_parts(op);
            match tag {
                OP_PUT => KvOp::Put(key, value),
                OP_GET => KvOp::Get(key),
                _ => KvOp::Del(key),
            }
        })
    }
}

/// One batch op in wire form, split into `(tag, key, value)`.
fn op_parts(&[tag, k0, k1, k2, k3, v0, v1, v2, v3]: &[u8; 9]) -> (u8, u32, u32) {
    let key = u32::from_le_bytes([k0, k1, k2, k3]);
    (tag, key, u32::from_le_bytes([v0, v1, v2, v3]))
}

/// One decoded server → client frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResponseFrame {
    /// The id of the request this answers.
    pub id: u32,
    /// The response.
    pub resp: Response,
}

/// Why a byte sequence is not a frame (distinct from *not yet* being
/// one, which is [`Decoded::NeedMoreData`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// `len` is below the 6 header bytes or above [`MAX_FRAME_LEN`].
    BadLength(u32),
    /// Unknown protocol version byte.
    BadVersion(u8),
    /// Unknown frame type byte (or a response type where a request was
    /// expected, and vice versa).
    UnknownType(u8),
    /// The payload does not match the frame type's shape.
    Malformed(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadLength(n) => write!(
                f,
                "frame length {n} outside [{HEADER_AFTER_LEN}, {MAX_FRAME_LEN}]"
            ),
            DecodeError::BadVersion(v) => {
                write!(
                    f,
                    "unknown protocol version {v} (expected {PROTOCOL_VERSION})"
                )
            }
            DecodeError::UnknownType(t) => write!(f, "unknown frame type {t:#04x}"),
            DecodeError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Outcome of a one-shot decode attempt over a byte prefix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Decoded<T> {
    /// A complete frame, and how many input bytes it consumed.
    Frame {
        /// The decoded frame.
        frame: T,
        /// Bytes consumed from the front of the input.
        consumed: usize,
    },
    /// The input is a (possibly empty) prefix of a frame — read more.
    NeedMoreData,
}

// ---------------------------------------------------------------------
// Encoding.
// ---------------------------------------------------------------------

fn frame(out: &mut Vec<u8>, ftype: u8, id: u32, payload: &[u8]) {
    let len = (HEADER_AFTER_LEN + payload.len()) as u32;
    debug_assert!(len <= MAX_FRAME_LEN);
    out.extend_from_slice(&len.to_le_bytes());
    out.push(PROTOCOL_VERSION);
    out.push(ftype);
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(payload);
}

/// Append the encoding of one request frame to `out`.
pub fn encode_request(out: &mut Vec<u8>, id: u32, req: &Request) {
    let mut p = Vec::new();
    let ftype = match req {
        Request::Get { key } => {
            p.extend_from_slice(&key.to_le_bytes());
            T_GET
        }
        Request::Put { key, value } => {
            p.extend_from_slice(&key.to_le_bytes());
            p.extend_from_slice(&value.to_le_bytes());
            T_PUT
        }
        Request::Del { key } => {
            p.extend_from_slice(&key.to_le_bytes());
            T_DEL
        }
        Request::Batch(ops) => {
            p.extend_from_slice(&(ops.len() as u32).to_le_bytes());
            for op in ops {
                let (tag, key, value) = match *op {
                    KvOp::Put(k, v) => (OP_PUT, k, v),
                    KvOp::Get(k) => (OP_GET, k, 0),
                    KvOp::Del(k) => (OP_DEL, k, 0),
                };
                p.push(tag);
                p.extend_from_slice(&key.to_le_bytes());
                p.extend_from_slice(&value.to_le_bytes());
            }
            T_BATCH
        }
        Request::Stats => T_STATS,
        Request::Ping => T_PING,
    };
    frame(out, ftype, id, &p);
}

/// Append the encoding of one response frame to `out`.
pub fn encode_response(out: &mut Vec<u8>, id: u32, resp: &Response) {
    let mut p = Vec::new();
    let ftype = match resp {
        Response::Value(v) => {
            p.push(v.is_some() as u8);
            p.extend_from_slice(&v.unwrap_or(0).to_le_bytes());
            T_VALUE
        }
        Response::Batch(vs) => {
            p.extend_from_slice(&(vs.len() as u32).to_le_bytes());
            for v in vs {
                p.push(v.is_some() as u8);
                p.extend_from_slice(&v.unwrap_or(0).to_le_bytes());
            }
            T_BATCH_RESP
        }
        Response::Stats(s) => {
            p.extend_from_slice(&s.shards.to_le_bytes());
            p.extend_from_slice(&s.active_connections.to_le_bytes());
            p.push(s.diverged as u8);
            p.extend_from_slice(&s.ops_served.to_le_bytes());
            p.extend_from_slice(&s.runs_executed.to_le_bytes());
            p.extend_from_slice(&s.run_ops.to_le_bytes());
            p.extend_from_slice(&s.max_run_ops.to_le_bytes());
            p.extend_from_slice(&s.frames_staged.to_le_bytes());
            p.extend_from_slice(&s.combine_passes.to_le_bytes());
            p.extend_from_slice(&s.combine_ops.to_le_bytes());
            p.extend_from_slice(&s.wal_records.to_le_bytes());
            p.extend_from_slice(&s.wal_fsyncs.to_le_bytes());
            p.extend_from_slice(&s.recovered_records.to_le_bytes());
            p.extend_from_slice(&s.recovered_checkpoints.to_le_bytes());
            T_STATS_RESP
        }
        Response::Pong => T_PONG,
        Response::Error {
            code,
            detail,
            message,
        } => {
            let msg = message.as_bytes();
            let msg = &msg[..msg.len().min(u16::MAX as usize)];
            p.push(*code as u8);
            p.extend_from_slice(&detail.to_le_bytes());
            p.extend_from_slice(&(msg.len() as u16).to_le_bytes());
            p.extend_from_slice(msg);
            T_ERROR
        }
    };
    frame(out, ftype, id, &p);
}

// ---------------------------------------------------------------------
// Decoding.
// ---------------------------------------------------------------------

/// A little-endian cursor over a payload; every read is bounds-checked
/// so the decoder is total.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(DecodeError::Malformed("payload shorter than its shape"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// The next `N` bytes, as the array the integer decoders want.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let short = DecodeError::Malformed("payload shorter than its shape");
        let (head, _) = self.buf[self.pos..].split_first_chunk().ok_or(short)?;
        self.pos += N;
        Ok(*head)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::Malformed("flag byte not 0 or 1")),
        }
    }

    fn finish(self) -> Result<(), DecodeError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(DecodeError::Malformed("trailing bytes after payload"))
        }
    }
}

/// An undecoded frame body: `(type byte, request id, payload)`.
type RawFrame<'a> = (u8, u32, &'a [u8]);

/// Split off one raw frame from the front of `buf`.
fn raw_frame(buf: &[u8]) -> Result<Decoded<RawFrame<'_>>, DecodeError> {
    let Some((len, after_len)) = buf.split_first_chunk() else {
        return Ok(Decoded::NeedMoreData);
    };
    let len = u32::from_le_bytes(*len);
    if len < HEADER_AFTER_LEN as u32 || len > MAX_FRAME_LEN {
        return Err(DecodeError::BadLength(len));
    }
    let len = len as usize;
    let Some((header, payload)) = after_len
        .get(..len)
        .and_then(|body| body.split_first_chunk::<HEADER_AFTER_LEN>())
    else {
        return Ok(Decoded::NeedMoreData);
    };
    let &[version, ftype, i0, i1, i2, i3] = header;
    if version != PROTOCOL_VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    Ok(Decoded::Frame {
        frame: (ftype, u32::from_le_bytes([i0, i1, i2, i3]), payload),
        consumed: 4 + len,
    })
}

/// Decode one request frame from the front of `buf` **without copying
/// the payload**: the returned [`FrameRef`] borrows `buf`. This is the
/// reactor's hot decode path; like [`decode_request`] it is total —
/// arbitrary bytes decode, report [`Decoded::NeedMoreData`], or return
/// a [`DecodeError`], never panic. A BATCH payload is fully validated
/// here (count vs length, op tags, zero value words on get/del) so the
/// [`BatchRef`] iterator is infallible.
pub fn decode_frame(buf: &[u8]) -> Result<Decoded<FrameRef<'_>>, DecodeError> {
    let (ftype, id, payload, consumed) = match raw_frame(buf)? {
        Decoded::NeedMoreData => return Ok(Decoded::NeedMoreData),
        Decoded::Frame {
            frame: (t, i, p),
            consumed,
        } => (t, i, p, consumed),
    };
    let mut c = Cursor::new(payload);
    let req = match ftype {
        T_GET => RequestRef::Get { key: c.u32()? },
        T_PUT => RequestRef::Put {
            key: c.u32()?,
            value: c.u32()?,
        },
        T_DEL => RequestRef::Del { key: c.u32()? },
        T_BATCH => {
            let count = c.u32()? as usize;
            // 9 bytes per op; the count must be consistent with the
            // frame's actual payload, so a huge count in a small frame
            // is rejected before any allocation sized by it.
            if payload.len() != 4 + count * 9 {
                return Err(DecodeError::Malformed("batch count disagrees with length"));
            }
            let ops = c.take(count * 9)?;
            for op in ops.as_chunks().0 {
                let (tag, _, value) = op_parts(op);
                match tag {
                    OP_PUT => {}
                    OP_GET | OP_DEL if value == 0 => {}
                    OP_GET | OP_DEL => {
                        return Err(DecodeError::Malformed("nonzero value on get/del"))
                    }
                    _ => return Err(DecodeError::Malformed("unknown batch op tag")),
                }
            }
            RequestRef::Batch(BatchRef { ops })
        }
        T_STATS => RequestRef::Stats,
        T_PING => RequestRef::Ping,
        other => return Err(DecodeError::UnknownType(other)),
    };
    c.finish()?;
    Ok(Decoded::Frame {
        frame: FrameRef { id, req },
        consumed,
    })
}

/// Decode one request frame from the front of `buf` into an owned
/// [`RequestFrame`] — [`decode_frame`] plus a copy-out.
pub fn decode_request(buf: &[u8]) -> Result<Decoded<RequestFrame>, DecodeError> {
    Ok(match decode_frame(buf)? {
        Decoded::NeedMoreData => Decoded::NeedMoreData,
        Decoded::Frame { frame, consumed } => Decoded::Frame {
            frame: frame.to_owned_frame(),
            consumed,
        },
    })
}

/// Decode one response frame from the front of `buf`.
pub fn decode_response(buf: &[u8]) -> Result<Decoded<ResponseFrame>, DecodeError> {
    let (ftype, id, payload, consumed) = match raw_frame(buf)? {
        Decoded::NeedMoreData => return Ok(Decoded::NeedMoreData),
        Decoded::Frame {
            frame: (t, i, p),
            consumed,
        } => (t, i, p, consumed),
    };
    let mut c = Cursor::new(payload);
    let resp = match ftype {
        T_VALUE => {
            let present = c.bool()?;
            let value = c.u32()?;
            if !present && value != 0 {
                return Err(DecodeError::Malformed("absent value must encode 0"));
            }
            Response::Value(present.then_some(value))
        }
        T_BATCH_RESP => {
            let count = c.u32()? as usize;
            if payload.len() != 4 + count * 5 {
                return Err(DecodeError::Malformed(
                    "batch response count disagrees with length",
                ));
            }
            let mut vs = Vec::with_capacity(count);
            for _ in 0..count {
                let present = c.bool()?;
                let value = c.u32()?;
                if !present && value != 0 {
                    return Err(DecodeError::Malformed("absent value must encode 0"));
                }
                vs.push(present.then_some(value));
            }
            Response::Batch(vs)
        }
        T_STATS_RESP => Response::Stats(StatsReply {
            shards: c.u32()?,
            active_connections: c.u32()?,
            diverged: c.bool()?,
            ops_served: c.u64()?,
            runs_executed: c.u64()?,
            run_ops: c.u64()?,
            max_run_ops: c.u32()?,
            frames_staged: c.u64()?,
            combine_passes: c.u64()?,
            combine_ops: c.u64()?,
            wal_records: c.u64()?,
            wal_fsyncs: c.u64()?,
            recovered_records: c.u64()?,
            recovered_checkpoints: c.u64()?,
        }),
        T_PONG => Response::Pong,
        T_ERROR => {
            let code =
                ErrorCode::from_u8(c.u8()?).ok_or(DecodeError::Malformed("unknown error code"))?;
            let detail = c.u32()?;
            let msg_len = c.u16()? as usize;
            let message = std::str::from_utf8(c.take(msg_len)?)
                .map_err(|_| DecodeError::Malformed("error message not UTF-8"))?
                .to_string();
            Response::Error {
                code,
                detail,
                message,
            }
        }
        other => return Err(DecodeError::UnknownType(other)),
    };
    c.finish()?;
    Ok(Decoded::Frame {
        frame: ResponseFrame { id, resp },
        consumed,
    })
}

// ---------------------------------------------------------------------
// Streaming buffer.
// ---------------------------------------------------------------------

/// An incremental frame buffer: feed bytes as they arrive off a socket,
/// pop complete frames. Both the server (requests) and the client
/// (responses) run one of these per connection.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    start: usize,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        FrameBuffer::default()
    }

    /// Feed freshly read bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
    }

    /// Read up to `max` bytes from `r` directly into the buffer — no
    /// intermediate chunk copy. Returns what `r.read` returned
    /// (`Ok(0)` is end-of-stream, as usual).
    pub fn read_from(&mut self, r: &mut impl std::io::Read, max: usize) -> std::io::Result<usize> {
        self.compact();
        let len = self.buf.len();
        self.buf.resize(len + max, 0);
        let res = r.read(&mut self.buf[len..]);
        let n = *res.as_ref().unwrap_or(&0);
        self.buf.truncate(len + n);
        res
    }

    // Compact lazily: only when the dead prefix dominates.
    fn compact(&mut self) {
        if self.start > 4096 && self.start * 2 > self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }

    /// Bytes buffered but not yet consumed by a popped frame.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Decode the next request frame **in place** — the zero-copy
    /// counterpart of [`FrameBuffer::pop_request`]. The returned
    /// [`FrameRef`] borrows the buffer; once its contents are staged,
    /// advance past it with [`FrameBuffer::consume`].
    pub fn peek_frame(&self) -> Result<Decoded<FrameRef<'_>>, DecodeError> {
        decode_frame(&self.buf[self.start..])
    }

    /// Advance past `n` bytes previously reported by a
    /// [`Decoded::Frame`]'s `consumed`.
    pub fn consume(&mut self, n: usize) {
        debug_assert!(n <= self.pending(), "consuming past the buffered bytes");
        self.start += n.min(self.pending());
    }

    /// Drop all buffered bytes but keep the allocation (for pooling).
    pub fn reset(&mut self) {
        self.buf.clear();
        self.start = 0;
    }

    /// Current allocation size (for pool shrink decisions).
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    fn pop<T>(
        &mut self,
        decode: impl Fn(&[u8]) -> Result<Decoded<T>, DecodeError>,
    ) -> Result<Option<T>, DecodeError> {
        match decode(&self.buf[self.start..])? {
            Decoded::NeedMoreData => Ok(None),
            Decoded::Frame { frame, consumed } => {
                self.start += consumed;
                Ok(Some(frame))
            }
        }
    }

    /// Pop the next complete request frame, if one is buffered.
    pub fn pop_request(&mut self) -> Result<Option<RequestFrame>, DecodeError> {
        self.pop(decode_request)
    }

    /// Pop the next complete response frame, if one is buffered.
    pub fn pop_response(&mut self) -> Result<Option<ResponseFrame>, DecodeError> {
        self.pop(decode_response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn requests() -> Vec<Request> {
        vec![
            Request::Get { key: 0 },
            Request::Get { key: u32::MAX },
            Request::Put { key: 7, value: 99 },
            Request::Del { key: 12345 },
            Request::Batch(vec![]),
            Request::Batch(vec![KvOp::Put(1, 2), KvOp::Get(3), KvOp::Del(4)]),
            Request::Stats,
            Request::Ping,
        ]
    }

    fn responses() -> Vec<Response> {
        vec![
            Response::Value(None),
            Response::Value(Some(0)),
            Response::Value(Some(u32::MAX)),
            Response::Batch(vec![]),
            Response::Batch(vec![Some(1), None, Some(3)]),
            Response::Stats(StatsReply {
                shards: 8,
                active_connections: 3,
                diverged: true,
                ops_served: u64::MAX,
                runs_executed: 41,
                run_ops: 9000,
                max_run_ops: 512,
                frames_staged: 8192,
                combine_passes: 77,
                combine_ops: 616,
                wal_records: 123_456,
                wal_fsyncs: 789,
                recovered_records: 4242,
                recovered_checkpoints: 6,
            }),
            Response::Stats(StatsReply::default()),
            Response::Pong,
            Response::Error {
                code: ErrorCode::Divergence,
                detail: 5,
                message: "shard 5 diverged ⊥".into(),
            },
        ]
    }

    #[test]
    fn every_request_round_trips() {
        for (id, req) in requests().into_iter().enumerate() {
            let id = id as u32 * 1000 + 17;
            let mut bytes = Vec::new();
            encode_request(&mut bytes, id, &req);
            match decode_request(&bytes).unwrap() {
                Decoded::Frame { frame, consumed } => {
                    assert_eq!(consumed, bytes.len());
                    assert_eq!(frame, RequestFrame { id, req });
                }
                Decoded::NeedMoreData => panic!("complete frame reported as truncated"),
            }
        }
    }

    #[test]
    fn every_response_round_trips() {
        for (id, resp) in responses().into_iter().enumerate() {
            let id = u32::MAX - id as u32;
            let mut bytes = Vec::new();
            encode_response(&mut bytes, id, &resp);
            match decode_response(&bytes).unwrap() {
                Decoded::Frame { frame, consumed } => {
                    assert_eq!(consumed, bytes.len());
                    assert_eq!(frame, ResponseFrame { id, resp });
                }
                Decoded::NeedMoreData => panic!("complete frame reported as truncated"),
            }
        }
    }

    #[test]
    fn every_truncation_of_every_frame_needs_more_data() {
        let mut all = Vec::new();
        for req in requests() {
            let mut b = Vec::new();
            encode_request(&mut b, 42, &req);
            all.push((b, true));
        }
        for resp in responses() {
            let mut b = Vec::new();
            encode_response(&mut b, 42, &resp);
            all.push((b, false));
        }
        for (bytes, is_req) in all {
            for cut in 0..bytes.len() {
                let prefix = &bytes[..cut];
                let verdict = if is_req {
                    decode_request(prefix).map(|d| matches!(d, Decoded::NeedMoreData))
                } else {
                    decode_response(prefix).map(|d| matches!(d, Decoded::NeedMoreData))
                };
                assert_eq!(
                    verdict,
                    Ok(true),
                    "prefix of {cut}/{} bytes must be NeedMoreData",
                    bytes.len()
                );
            }
        }
    }

    #[test]
    fn oversize_length_rejected_before_buffering() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        assert_eq!(
            decode_request(&bytes),
            Err(DecodeError::BadLength(MAX_FRAME_LEN + 1))
        );
        // A runt length is just as dead.
        let runt = [3u8, 0, 0, 0];
        assert_eq!(decode_request(&runt), Err(DecodeError::BadLength(3)));
    }

    #[test]
    fn wrong_version_and_type_rejected() {
        let mut bytes = Vec::new();
        encode_request(&mut bytes, 1, &Request::Ping);
        bytes[4] = 9;
        assert_eq!(decode_request(&bytes), Err(DecodeError::BadVersion(9)));

        let mut bytes = Vec::new();
        encode_request(&mut bytes, 1, &Request::Ping);
        bytes[5] = 0x7f;
        assert_eq!(decode_request(&bytes), Err(DecodeError::UnknownType(0x7f)));

        // Response types are not requests and vice versa.
        let mut bytes = Vec::new();
        encode_response(&mut bytes, 1, &Response::Pong);
        assert!(matches!(
            decode_request(&bytes),
            Err(DecodeError::UnknownType(_))
        ));
        let mut bytes = Vec::new();
        encode_request(&mut bytes, 1, &Request::Ping);
        assert!(matches!(
            decode_response(&bytes),
            Err(DecodeError::UnknownType(_))
        ));
    }

    #[test]
    fn batch_count_must_match_payload() {
        let mut bytes = Vec::new();
        encode_request(&mut bytes, 1, &Request::Batch(vec![KvOp::Get(1)]));
        // Claim 2 ops but carry 1.
        let count_off = 4 + HEADER_AFTER_LEN;
        bytes[count_off] = 2;
        assert_eq!(
            decode_request(&bytes),
            Err(DecodeError::Malformed("batch count disagrees with length"))
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = Vec::new();
        encode_request(&mut bytes, 1, &Request::Get { key: 5 });
        // Grow the declared length and append a junk byte: same type,
        // one byte too many payload.
        let len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) + 1;
        bytes[..4].copy_from_slice(&len.to_le_bytes());
        bytes.push(0xAA);
        assert_eq!(
            decode_request(&bytes),
            Err(DecodeError::Malformed("trailing bytes after payload"))
        );
    }

    #[test]
    fn frame_buffer_pops_pipelined_frames_across_chunk_boundaries() {
        let reqs = requests();
        let mut stream = Vec::new();
        for (i, r) in reqs.iter().enumerate() {
            encode_request(&mut stream, i as u32, r);
        }
        // Feed the whole pipelined burst one byte at a time.
        let mut fb = FrameBuffer::new();
        let mut seen = Vec::new();
        for b in stream {
            fb.extend(&[b]);
            while let Some(f) = fb.pop_request().unwrap() {
                seen.push(f);
            }
        }
        assert_eq!(seen.len(), reqs.len());
        for (i, (frame, req)) in seen.into_iter().zip(reqs).enumerate() {
            assert_eq!(frame.id, i as u32);
            assert_eq!(frame.req, req);
        }
    }

    #[test]
    fn zero_copy_decode_agrees_with_owned_decode() {
        for (id, req) in requests().into_iter().enumerate() {
            let id = id as u32 + 7;
            let mut bytes = Vec::new();
            encode_request(&mut bytes, id, &req);
            let Decoded::Frame { frame, consumed } = decode_frame(&bytes).unwrap() else {
                panic!("complete frame reported as truncated");
            };
            assert_eq!(consumed, bytes.len());
            assert_eq!(frame.to_owned_frame(), RequestFrame { id, req });
        }
    }

    #[test]
    fn batch_ref_iterates_ops_in_order_without_allocation() {
        let ops = vec![KvOp::Put(1, 2), KvOp::Get(3), KvOp::Del(4), KvOp::Put(5, 6)];
        let mut bytes = Vec::new();
        encode_request(&mut bytes, 1, &Request::Batch(ops.clone()));
        let Decoded::Frame { frame, .. } = decode_frame(&bytes).unwrap() else {
            panic!("truncated");
        };
        let RequestRef::Batch(b) = frame.req else {
            panic!("not a batch");
        };
        assert_eq!(b.len(), ops.len());
        assert!(!b.is_empty());
        assert_eq!(b.iter().collect::<Vec<_>>(), ops);
    }

    #[test]
    fn peek_consume_walks_a_pipelined_burst() {
        let reqs = requests();
        let mut fb = FrameBuffer::new();
        let mut stream = Vec::new();
        for (i, r) in reqs.iter().enumerate() {
            encode_request(&mut stream, i as u32, r);
        }
        fb.extend(&stream);
        let mut seen = Vec::new();
        loop {
            let consumed = match fb.peek_frame().unwrap() {
                Decoded::NeedMoreData => break,
                Decoded::Frame { frame, consumed } => {
                    seen.push(frame.to_owned_frame());
                    consumed
                }
            };
            fb.consume(consumed);
        }
        assert_eq!(fb.pending(), 0);
        assert_eq!(seen.len(), reqs.len());
        for (i, (frame, req)) in seen.into_iter().zip(reqs).enumerate() {
            assert_eq!(frame.id, i as u32);
            assert_eq!(frame.req, req);
        }
    }

    #[test]
    fn read_from_fills_the_buffer_like_extend() {
        let mut bytes = Vec::new();
        encode_request(&mut bytes, 3, &Request::Put { key: 8, value: 9 });
        let mut fb = FrameBuffer::new();
        // Deliver through the io::Read path in two ragged chunks.
        let mut src: &[u8] = &bytes;
        let n = fb
            .read_from(&mut std::io::Read::take(&mut src, 5), 16)
            .unwrap();
        assert_eq!(n, 5);
        assert!(matches!(fb.peek_frame(), Ok(Decoded::NeedMoreData)));
        let n = fb.read_from(&mut src, 1024).unwrap();
        assert_eq!(n, bytes.len() - 5);
        assert!(fb.pop_request().unwrap().is_some());
        assert_eq!(fb.pending(), 0);
        // End of stream reads 0 and buffers nothing.
        assert_eq!(fb.read_from(&mut src, 16).unwrap(), 0);
    }

    #[test]
    fn frame_buffer_compacts_without_losing_frames() {
        let mut fb = FrameBuffer::new();
        let mut one = Vec::new();
        encode_request(&mut one, 9, &Request::Put { key: 1, value: 2 });
        for _ in 0..2000 {
            fb.extend(&one);
            assert!(fb.pop_request().unwrap().is_some());
        }
        assert_eq!(fb.pending(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn mix(seed: &mut u64) -> u64 {
        *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn random_bytes(seed: &mut u64, len: usize) -> Vec<u8> {
        (0..len).map(|_| mix(seed) as u8).collect()
    }

    fn random_request(seed: &mut u64) -> Request {
        match mix(seed) % 6 {
            0 => Request::Get {
                key: mix(seed) as u32,
            },
            1 => Request::Put {
                key: mix(seed) as u32,
                value: mix(seed) as u32,
            },
            2 => Request::Del {
                key: mix(seed) as u32,
            },
            3 => {
                let n = (mix(seed) % 20) as usize;
                Request::Batch(
                    (0..n)
                        .map(|_| match mix(seed) % 3 {
                            0 => KvOp::Get(mix(seed) as u32),
                            1 => KvOp::Put(mix(seed) as u32, mix(seed) as u32),
                            _ => KvOp::Del(mix(seed) as u32),
                        })
                        .collect(),
                )
            }
            4 => Request::Stats,
            _ => Request::Ping,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        // The core safety property: the decoders are total. Arbitrary
        // bytes never panic them — they decode, want more, or error.
        // `decode_request` is a wrapper over the zero-copy
        // `decode_frame`, so this pins down both; the explicit
        // `decode_frame` call also exercises the borrowed path's lazy
        // batch iterator.
        #[test]
        fn arbitrary_bytes_never_panic_the_decoders(seed in any::<u64>(), len in 0usize..256) {
            let mut s = seed;
            let bytes = random_bytes(&mut s, len);
            let _ = decode_request(&bytes);
            let _ = decode_response(&bytes);
            if let Ok(Decoded::Frame { frame, .. }) = decode_frame(&bytes) {
                if let RequestRef::Batch(b) = frame.req {
                    // The lazy iterator must be infallible after decode.
                    prop_assert_eq!(b.iter().count(), b.len());
                }
            }
            let mut fb = FrameBuffer::new();
            fb.extend(&bytes);
            // Drain until the buffer stalls or errors; must terminate.
            while let Ok(Some(_)) = fb.pop_request() {}
        }

        // The zero-copy and owned decoders agree bit-for-bit on
        // arbitrary input: same errors, same NeedMoreData verdicts,
        // same frames, same consumed counts.
        #[test]
        fn zero_copy_and_owned_decoders_agree(seed in any::<u64>(), len in 0usize..256) {
            let mut s = seed;
            let bytes = random_bytes(&mut s, len);
            let owned = decode_request(&bytes);
            let borrowed = decode_frame(&bytes).map(|d| match d {
                Decoded::NeedMoreData => Decoded::NeedMoreData,
                Decoded::Frame { frame, consumed } => Decoded::Frame {
                    frame: frame.to_owned_frame(),
                    consumed,
                },
            });
            prop_assert_eq!(owned, borrowed);
        }

        // Same agreement on well-formed frames (random_bytes rarely
        // forms a valid frame, so also drive the structured generator
        // through both paths).
        #[test]
        fn zero_copy_decodes_every_valid_frame(seed in any::<u64>()) {
            let mut s = seed;
            let req = random_request(&mut s);
            let id = mix(&mut s) as u32;
            let mut bytes = Vec::new();
            encode_request(&mut bytes, id, &req);
            let Decoded::Frame { frame, consumed } = decode_frame(&bytes).unwrap() else {
                panic!("complete frame reported as truncated");
            };
            prop_assert_eq!(consumed, bytes.len());
            prop_assert_eq!(frame.to_owned_frame(), RequestFrame { id, req });
        }

        // Arbitrary random requests round-trip exactly.
        #[test]
        fn random_requests_round_trip(seed in any::<u64>()) {
            let mut s = seed;
            let req = random_request(&mut s);
            let id = mix(&mut s) as u32;
            let mut bytes = Vec::new();
            encode_request(&mut bytes, id, &req);
            let Decoded::Frame { frame, consumed } = decode_request(&bytes).unwrap() else {
                panic!("complete frame reported as truncated");
            };
            prop_assert_eq!(consumed, bytes.len());
            prop_assert_eq!(frame, RequestFrame { id, req });
        }

        // Truncating a valid frame anywhere yields NeedMoreData, never
        // an error and never a bogus frame.
        #[test]
        fn truncated_random_frames_need_more_data(seed in any::<u64>()) {
            let mut s = seed;
            let req = random_request(&mut s);
            let mut bytes = Vec::new();
            encode_request(&mut bytes, mix(&mut s) as u32, &req);
            let cut = (mix(&mut s) as usize) % bytes.len();
            prop_assert_eq!(
                decode_request(&bytes[..cut]).unwrap(),
                Decoded::NeedMoreData
            );
        }

        // Flipping any single byte of a valid frame never panics the
        // decoder (it may decode to a different valid frame).
        #[test]
        fn single_byte_corruption_never_panics(seed in any::<u64>()) {
            let mut s = seed;
            let req = random_request(&mut s);
            let mut bytes = Vec::new();
            encode_request(&mut bytes, mix(&mut s) as u32, &req);
            let at = (mix(&mut s) as usize) % bytes.len();
            bytes[at] ^= (mix(&mut s) as u8) | 1;
            let _ = decode_request(&bytes);
        }
    }
}
