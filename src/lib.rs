//! # dbTouch — Analytics at your Fingertips (CIDR 2013), reproduced in Rust
//!
//! This facade crate re-exports the public API of the dbTouch reproduction:
//!
//! * [`types`] — shared value model, geometry (centimetres), row ids, configuration.
//! * [`obs`] — live telemetry: wait-free sharded counters, log-scale latency
//!   histograms every layer reports into, and tail-sampled per-touch span
//!   trees.
//! * [`storage`] — fixed-width dense columns/matrixes, layouts and incremental
//!   rotation, the sample hierarchy, paged columns behind a buffer pool and
//!   the shared result cache.
//! * [`gesture`] — touch events, views, gesture recognizers, kinematics and the
//!   gesture synthesizer used in place of a physical touch screen.
//! * [`core`] — the dbTouch kernel: touch→tuple-identifier mapping, per-touch
//!   operators (scan, running aggregates, interactive summaries, filters,
//!   non-blocking joins), sessions, adaptive policies and layout gestures.
//! * [`baseline`] — a traditional blocking column-store executor with a small
//!   SQL-like query language, used as the comparison system.
//! * [`workload`] — synthetic data generators, pattern injection and simulated
//!   explorer policies for the evaluation scenarios, including concurrent
//!   multi-explorer drivers.
//! * [`server`] — the concurrent exploration service: many simultaneous
//!   gesture sessions multiplexed over worker threads, sharing one immutable
//!   catalog ([`core::catalog::SharedCatalog`]).
//! * [`net`] — the network serving layer: the checksummed binary wire
//!   protocol over TCP, telemetry-driven admission control / load shedding,
//!   and the TCP implementation of the transport-agnostic
//!   [`server::ExplorationClient`] API.
//!
//! ## Quick start
//!
//! ```
//! use dbtouch::prelude::*;
//!
//! // 1. Load a column of data into the kernel.
//! let mut kernel = Kernel::new(KernelConfig::default());
//! let data: Vec<i64> = (0..100_000).collect();
//! let object_id = kernel
//!     .load_column("measurements", data, SizeCm::new(2.0, 10.0))
//!     .unwrap();
//!
//! // 2. Choose a query action for the object (a plain scan here).
//! kernel.set_action(object_id, TouchAction::Scan).unwrap();
//!
//! // 3. Synthesize a 2-second top-to-bottom slide and feed it to the kernel,
//! //    exactly as the touch OS would deliver touch events.
//! let view = kernel.view(object_id).unwrap();
//! let trace = GestureSynthesizer::new(60.0).slide_down(&view, 2.0);
//! let outcome = kernel.run_trace(object_id, &trace).unwrap();
//!
//! assert!(outcome.results.len() > 0);
//! ```
//!
//! See `examples/` for the full exploration scenarios and `crates/bench` for the
//! harnesses reproducing the paper's Figure 4(a), Figure 4(b) and the demo
//! "exploration contest".

pub use dbtouch_baseline as baseline;
pub use dbtouch_core as core;
pub use dbtouch_gesture as gesture;
pub use dbtouch_net as net;
pub use dbtouch_obs as obs;
pub use dbtouch_server as server;
pub use dbtouch_storage as storage;
pub use dbtouch_types as types;
pub use dbtouch_workload as workload;

/// Convenient single-import prelude used by the examples and tests.
pub mod prelude {
    pub use dbtouch_core::catalog::{ObjectData, ObjectState, SharedCatalog};
    pub use dbtouch_core::kernel::{Kernel, ObjectId, TouchAction};
    pub use dbtouch_core::result::{ResultStream, TouchResult};
    pub use dbtouch_core::session::{Session, SessionOutcome};
    pub use dbtouch_gesture::synthesizer::GestureSynthesizer;
    pub use dbtouch_gesture::touch::{TouchEvent, TouchPhase};
    pub use dbtouch_gesture::view::View;
    pub use dbtouch_net::{NetServer, TcpClient};
    pub use dbtouch_server::{
        ClientSession, ExplorationClient, ExplorationServer, ServerConfig, SessionReport,
        ShedConfig,
    };
    pub use dbtouch_storage::column::Column;
    pub use dbtouch_storage::table::Table;
    pub use dbtouch_types::{
        DataType, DbTouchError, KernelConfig, Orientation, PointCm, Result, RowId, RowRange,
        SizeCm, Timestamp, Value,
    };
}
