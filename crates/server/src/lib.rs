//! # dbtouch-server
//!
//! A concurrent multi-session exploration service over a shared dbTouch
//! catalog.
//!
//! dbTouch (CIDR 2013) frames data exploration as continuous gesture
//! *sessions*. The kernel in `dbtouch-core` serves one explorer; this crate
//! turns the reproduction into the skeleton of a serving system: many
//! simultaneous explorers, each running independent gesture sessions against
//! one immutable, shared data catalog.
//!
//! The design follows the standard idiom of concurrent columnar engines:
//! loaded data is immutable and shared (`Arc<ObjectData>` inside
//! [`dbtouch_core::catalog::SharedCatalog`]); everything mutable — view
//! geometry, touch action, result stream — is per-session state checked out
//! per explorer. Because sessions share nothing
//! mutable, per-touch processing takes no locks and concurrent results are
//! bit-identical to a sequential run of the same traces. The one shared
//! mutable structure is the optional cross-session result cache
//! ([`dbtouch_storage::shared_cache::SharedResultCache`]), which is
//! result-transparent: a hit returns the exact tuple a recomputation would,
//! so the bit-identical guarantee holds with it on or off.
//!
//! The catalog itself is epoch-versioned
//! ([`dbtouch_core::catalog::CatalogSnapshot`]): checkouts are wait-free and
//! restructures publish new snapshots by compare-and-swap. Workers treat
//! every submitted event as a gesture boundary — the session's state observes
//! the newest epoch right before a trace runs, then keeps that one snapshot
//! for the whole trace, so live restructures are atomic from every session's
//! point of view.
//!
//! * [`ExplorationServer`] — owns N worker threads; sessions are pinned at
//!   creation to the least-loaded worker (round-robin tiebreak); each worker
//!   multiplexes its sessions' event queues.
//! * [`SessionHandle`] — submit gesture traces with backpressure (bounded
//!   per-session in-flight events), change actions, snapshot, close.
//! * [`SessionReport`] — trace outcomes in submission order, the catalog
//!   epoch each trace ran against, restructures observed, error log, and
//!   a per-touch latency histogram for throughput/tail-latency reporting.

pub mod client;
pub mod config;
pub mod latency;
pub mod manager;
pub mod metrics;
pub mod report;

pub use client::{ClientSession, ExplorationClient};
pub use config::{ServerConfig, ShedConfig};
pub use latency::LatencySummary;
pub use manager::{ExplorationServer, SessionHandle};
pub use metrics::ServerMetricsSnapshot;
pub use report::{digest_outcomes, SessionId, SessionReport, TraceOutcome};
