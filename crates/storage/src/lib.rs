//! # dbtouch-storage
//!
//! The storage substrate of the dbTouch reproduction.
//!
//! The paper (Section 2.6) prescribes a storage design tailored to touch-driven
//! exploration:
//!
//! * **Fixed-width dense arrays / matrixes** — every attribute is stored with a
//!   fixed width so that mapping a touch location to a tuple identifier (and the
//!   identifier to a byte offset) is pure arithmetic. See [`column`](mod@column) and
//!   [`matrix`].
//! * **Row-store, column-store and hybrid layouts** with **incremental
//!   rotation** between them, driven by the rotate gesture (Section 2.8). See
//!   [`layout`] and [`rotation`].
//! * **Sample-based storage** — a hierarchy of progressively coarser samples of
//!   each column so that coarse-granularity slides read the matched sample level
//!   instead of the full base data. See [`sample`].
//! * A **shared cross-session result cache** of summary-window aggregates,
//!   keyed by immutable-object identity so catalog restructures invalidate
//!   naturally. See [`shared_cache`].
//! * **Persistent paged storage** — a fixed-size-page on-disk column format
//!   with checksummed page headers ([`page`]), a bounded buffer pool that
//!   faults pages on first touch ([`pager`]), and an append-then-atomic-rename
//!   manifest protocol that keeps a catalog directory recoverable to its last
//!   published epoch ([`persist`]).
//! * **Per-sample-level indexing** (zone maps) so that a slide over an indexed
//!   column becomes the equivalent of an index scan. See [`index`].
//! * **Fixed-row segments** — a summary window planned into partitions at
//!   absolute row boundaries, each yielding exact, mergeable partial
//!   aggregates so parallel scans stay bit-identical to sequential ones. See
//!   [`segment`].
//! * **Page-span compression** — run-length and dictionary encodings chosen
//!   per page at persist time (raw whenever nothing actually shrinks), with
//!   scan kernels that aggregate encoded data directly. See [`encoding`].
//!
//! The adaptive *policies* that decide when to use which mechanism live in
//! `dbtouch-core`; this crate provides the mechanisms.

pub mod column;
pub mod encoding;
mod fold;
pub mod index;
pub mod layout;
pub mod matrix;
pub mod page;
pub mod pager;
pub mod persist;
pub mod rotation;
pub mod sample;
pub mod segment;
pub mod shared_cache;
pub mod table;

pub use column::Column;
pub use encoding::{Encoding, EncodingPolicy, EncodingStats};
pub use index::ZoneMapIndex;
pub use layout::Layout;
pub use matrix::Matrix;
pub use page::DEFAULT_PAGE_SIZE;
pub use pager::{ColumnExtent, PagedColumn, Pager, PagerStats};
pub use persist::{CatalogStore, ObjectRecord, StoreManifest};
pub use rotation::RotationTask;
pub use sample::{LevelShape, SampleHierarchy};
pub use segment::{plan_segments, Segment, SegmentStats, SegmentSum};
pub use shared_cache::{
    next_object_identity, RangeAggregate, SharedCacheStats, SharedResultCache, SummaryKey,
};
pub use table::Table;
