//! # dbtouch-types
//!
//! Shared foundation types for the dbTouch reproduction: the value and data-type
//! model used by the storage engine, tuple identifiers, screen geometry expressed
//! in centimetres (the paper describes data objects by their physical size on the
//! touch screen), timestamps, configuration, the common error type, and the
//! binary layout language ([`wire`]) that wire frames and disk manifests share.
//!
//! Everything in this crate is deliberately small and dependency-free so that the
//! substrates (`dbtouch-storage`, `dbtouch-gesture`) and the kernel
//! (`dbtouch-core`) can share vocabulary without cyclic dependencies.

pub mod checksum;
pub mod config;
pub mod datatype;
pub mod error;
pub mod geometry;
pub mod json;
pub mod rowid;
pub mod time;
pub mod value;
pub mod wire;

pub use config::{KernelConfig, RemoteSplitConfig};
pub use datatype::DataType;
pub use error::{DbTouchError, Result};
pub use geometry::{Orientation, PointCm, SizeCm};
pub use rowid::{RowId, RowRange};
pub use time::{Millis, Timestamp};
pub use value::Value;
