//! # dbtouch-net
//!
//! The network serving layer of the dbTouch reproduction: a length-prefixed
//! binary wire protocol over TCP, session multiplexing over the in-process
//! [`ExplorationServer`], telemetry-driven admission control, and a TCP
//! implementation of the transport-agnostic client API.
//!
//! dbTouch (CIDR 2013) separates the *touch interface* from the *kernel*:
//! the device capturing gestures need not be the machine holding the data.
//! This crate makes that split real. Gesture traces, touch actions and
//! session reports cross the network in a fixed little-endian binary
//! encoding ([`codec`]) with per-frame checksums ([`frame`]) — floats travel
//! as IEEE 754 bit patterns, so a networked replay digests bit-identically
//! to an in-process run of the same traces. JSON appears on the wire in
//! exactly two places: the version handshake and the metrics debug dump.
//!
//! The serving loop ([`server`]) keeps the paper's interactivity promise
//! under load the only way a server can: by refusing work it cannot absorb.
//! Admission control ([`admission`]) reads the live telemetry signals —
//! live sessions, remote-executor backlog, the per-touch p99 — and answers
//! `Shed { retry_after_ms, reason }` instead of queueing without bound.
//! Graceful shutdown drains instead of dropping: accepted connections flush
//! their in-flight traces and receive the rest of their [`SessionReport`] in
//! a `GoAway` frame.
//!
//! Each outcome crosses the wire once. A `Report` (and a `GoAway`'s report)
//! is a delta: it carries the outcomes, epochs, refinement latencies and
//! errors the session added since its previous report, plus the current
//! values of the report's scalar fields. [`TcpSession`] absorbs every delta
//! into the whole report it keeps, so a snapshot's bytes do not grow with
//! the session's length.
//!
//! Everything network-facing is observable as the `net.*` metric source
//! ([`metrics`]) in the same [`metrics_snapshot`] scrape as the rest of the
//! system.
//!
//! ```no_run
//! use dbtouch_net::{NetServer, TcpClient};
//! use dbtouch_server::{ExplorationClient, ClientSession, ServerConfig};
//!
//! let server = NetServer::serve(
//!     ServerConfig::with_workers(2).with_listen_addr("127.0.0.1:0"),
//! ).unwrap();
//! let client = TcpClient::new(server.local_addr().to_string());
//! let session = client.open_session().unwrap();
//! let report = session.close().unwrap();
//! assert!(report.errors.is_empty());
//! server.shutdown();
//! ```
//!
//! [`ExplorationServer`]: dbtouch_server::ExplorationServer
//! [`SessionReport`]: dbtouch_server::SessionReport
//! [`metrics_snapshot`]: dbtouch_server::ExplorationServer::metrics_snapshot

pub mod admission;
pub mod client;
pub mod codec;
pub mod frame;
pub mod metrics;
pub mod server;

pub use admission::{Admission, Verdict};
pub use client::{TcpClient, TcpSession};
pub use codec::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
};
pub use frame::{
    checksum, MAX_FRAME_LEN, MAX_HANDSHAKE_LEN, MAX_REQUEST_LEN, PROTOCOL_NAME, PROTOCOL_VERSION,
};
pub use metrics::NetInstruments;
pub use server::NetServer;
