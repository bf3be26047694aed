//! Per-touch query operators.
//!
//! "Every single touch on a data object can be seen as a request to run an
//! operator or a collection of operators over part of the data." The operators
//! here are deliberately incremental: each call processes the data addressed by
//! one touch and updates running state, so the kernel can respond to every touch
//! within its response-time budget regardless of data size.

pub mod aggregate;
pub mod filter;
pub mod groupby;
pub mod join;
pub mod scan;

pub use aggregate::{AggregateKind, RunningAggregate};
pub use filter::{CompareOp, Predicate};
pub use groupby::IncrementalGroupBy;
pub use join::{BlockingHashJoin, JoinMatch, SymmetricHashJoin};
pub use scan::PointScan;
