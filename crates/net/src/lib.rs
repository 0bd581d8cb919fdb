//! `ff-net` — the network face of `ff-store`: a length-prefixed binary
//! wire protocol and a TCP service layer on `std::net` and `poll(2)`,
//! behind the same [`Kv`](ff_store::Kv) API the in-process client
//! implements.
//!
//! The point of serving the store over a socket is that the paper's
//! guarantee survives the trip: a remote client of a robust-backend
//! store gets linearizable answers while functional faults fire, and a
//! remote client of a naive-backend store gets a **divergence error
//! frame** — never silently wrong data. The error is computed from the
//! same evidence the in-process client checks (broken consensus cells,
//! boundary digest mismatches), just carried across the wire.
//!
//! | module | what it holds |
//! |---|---|
//! | [`wire`] | frame layout, encode/decode (owned and zero-copy), streaming [`FrameBuffer`] |
//! | [`server`] | [`NetServer`]: the readiness-driven reactor — N event loops, one store client each, cross-connection batching, backpressure, graceful drain |
//! | `poll` (private) | one blocking `poll(2)` per tick plus each thread's wake channel |
//! | `sys` (private) | the `poll(2)` binding — the workspace's only `unsafe` |
//! | `buffer` (private) | per-loop pools for connection read/write buffers |
//! | `reactor` (private) | the event-loop state machine itself |
//! | [`session`] | [`Session`]: one connection's socket-free protocol state machine — the transport seam `ff-dst` drives over a simulated network |
//! | [`client`] | [`NetClient`]: pipelining TCP client implementing [`Kv`](ff_store::Kv) |
//!
//! No async runtime and no serialization framework: `std::net`,
//! threads, one foreign function (`poll(2)`, fenced in `sys`) and
//! hand-rolled little-endian frames keep the service layer as
//! auditable as the consensus construction it fronts. The server is
//! unix-only; the wire format, [`Session`] and [`NetClient`] are not.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod buffer;
pub mod client;
mod poll;
mod reactor;
pub mod server;
pub mod session;
#[allow(unsafe_code)]
mod sys;
pub mod wire;

pub use client::{NetClient, PipelineTicket};
pub use server::{NetServer, ServerConfig, ServerReport, ShutdownError};
pub use session::{Session, StageSummary};
pub use wire::{FrameBuffer, Request, Response, StatsReply, MAX_FRAME_LEN, PROTOCOL_VERSION};
