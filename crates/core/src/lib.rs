//! # dbtouch-core
//!
//! The dbTouch kernel: the paper's primary contribution.
//!
//! dbTouch redefines query, query plan and data flow around touch input. A
//! query is a *session* of gestures; every touch is a request to run an
//! operator (or a small pipeline of operators) over the part of the data the
//! touch addresses; the user — not the database — controls the data flow by
//! varying the gesture's speed, direction and the object's size.
//!
//! The crate is organized following the system layers of the paper's Figure 3:
//!
//! * [`mapping`] — *Map touch to data*: the Rule-of-Three translation of touch
//!   locations into tuple identifiers, for columns, tables and rotated objects
//!   (Section 2.4).
//! * [`morsel`] — segment-parallel execution: a summary window planned into
//!   fixed-row segment morsels that a shared scan-helper pool steals, partial
//!   results merged deterministically in segment order (exact integer sums),
//!   so digests stay bit-identical at any `scan_parallelism`.
//! * [`operators`] — *Execute*: per-touch operators — point scans, running
//!   aggregates, interactive summaries, selections, incremental group-bys and
//!   non-blocking joins (Sections 2.3, 2.7, 2.9).
//! * [`plan`] — the gesture half of a session: each recognized touch becomes
//!   a [`plan::TouchPlan`] (tuple, attribute, sample level, summary window)
//!   read off the view and the sample levels' shape alone.
//! * [`session`] — query sessions that fold each planned touch through the
//!   operators and collect the result stream and its statistics.
//! * [`catalog`] — the shared data catalog: immutable loaded data (matrixes,
//!   sample hierarchies, indexes) behind `Arc`, split from per-session mutable
//!   exploration state so many concurrent sessions can share one load. The
//!   catalog is epoch-versioned: readers take wait-free snapshots, mutators
//!   publish successors by compare-and-swap.
//! * [`epoch`] — the wait-free snapshot cell (userspace-RCU style) the
//!   catalog publishes through.
//! * [`kernel`] — the single-user facade over the catalog and the top-level
//!   API: load data, choose per-object touch actions, run gesture traces,
//!   apply zoom/rotate/drag-out layout gestures (Sections 2.2, 2.5, 2.8).
//! * [`adaptive`] — touch-granularity and sample-level selection from gesture
//!   speed and object size (Sections 2.5, 2.6).
//! * [`prefetch_policy`] — gesture extrapolation into the row range a slide
//!   reaches next (Section 2.6).
//! * [`remote`] — simulated remote/cloud processing where the device holds only
//!   small samples (Section 4, "Remote Processing").
//! * [`remote_exec`] — the asynchronous remote-processing executor: a bounded
//!   I/O thread pool plus per-session completion queues that overlap
//!   fine-level cloud fetches with touch processing, delivering progressive
//!   answers (coarse local now, refined remote later).
//! * [`result`] — the result stream with in-place, fading result values
//!   (Section 2.3, "Inspecting Results").

pub mod adaptive;
pub mod catalog;
pub mod epoch;
pub mod kernel;
pub mod mapping;
pub mod morsel;
pub mod operators;
pub mod persist;
pub mod plan;
pub mod prefetch_policy;
pub mod remote;
pub mod remote_exec;
pub mod result;
pub mod session;

pub use adaptive::GranularityPolicy;
pub use catalog::{CatalogSnapshot, ObjectData, ObjectState, SharedCatalog};
pub use epoch::EpochCell;
pub use kernel::{Kernel, ObjectId, TouchAction};
pub use mapping::TouchMapper;
pub use morsel::{window_stats, MorselPool, SegmentLedger, WindowScan};
pub use remote_exec::{
    CompletionQueue, PendingRefinement, RefinementLedger, RemoteCompletion, RemoteExecutor,
    RemoteTier,
};
pub use result::{ResultStream, TouchResult};
pub use session::{Session, SessionOutcome, SessionStats};
