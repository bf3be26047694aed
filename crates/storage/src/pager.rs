//! The pager: a single append-only page file plus a bounded buffer pool.
//!
//! A persistent catalog directory stores all column data in one page file
//! (`pages.dat`). Pages are never overwritten once referenced by a published
//! manifest — writers only append — so a crash mid-persist leaves every
//! previously published epoch intact and the tail garbage is simply ignored
//! (see `crate::persist` for the manifest protocol built on top).
//!
//! Reads go through a [`Pager`]: a small buffer pool of verified page
//! payloads with second-chance (CLOCK) eviction. The pool is the knob that
//! lets a catalog larger than RAM stream under exploration — a touched region
//! faults its pages in, cold regions get evicted, and memory stays bounded by
//! `pool_pages * page_size` no matter how large the page file is.
//!
//! [`PagedColumn`] is the reader the in-memory [`Column`](crate::column)
//! wraps after a catalog is reopened from disk: same accessors, same value
//! encoding, same fold order — results are bit-identical to the in-memory
//! column it was persisted from — but rows fault through the pool on first
//! touch instead of living in a `Vec`.

use crate::encoding::{
    decode_span, pack_row_bytes, span_value_offset, span_view, EncodingPolicy, EncodingStats,
};
use crate::fold::{le_values, Elem, Exact, Ordered, RangeFold, Sum, ELEM_BYTES};
use crate::page::{
    encode_page, payload_capacity, rows_per_page, verify_page, MIN_PAGE_SIZE, PAGE_HEADER_BYTES,
};
use crate::segment::SegmentStats;
use dbtouch_obs::{MetricSource, MetricValue};
use dbtouch_types::{DataType, DbTouchError, Result, RowId, RowRange, Value};
use std::collections::{HashMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Map an `std::io::Error` into the workspace error type.
pub(crate) fn io_err(op: &str, e: std::io::Error) -> DbTouchError {
    DbTouchError::Io(format!("{op}: {e}"))
}

/// A contiguous run of pages holding one column's rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnExtent {
    /// First page id of the run.
    pub start_page: u64,
    /// Number of pages in the run.
    pub page_count: u64,
    /// Number of rows stored.
    pub rows: u64,
    /// Element type (fixes the row width and therefore the page geometry).
    pub dt: DataType,
    /// `Some(rows per page)` when the extent's payloads are packed span
    /// encodings (see [`crate::encoding`]): each page holds this many rows
    /// (the last one possibly fewer) as a tagged, compressed span. `None`
    /// means the legacy raw layout — untagged verbatim row bytes at the
    /// page-geometry row count.
    pub packed_rows_per_page: Option<u64>,
    /// Actual persisted payload bytes across the extent's pages (for raw
    /// extents this is simply `rows × width`). What
    /// [`Column::byte_size`](crate::Column::byte_size) reports for paged
    /// columns.
    pub payload_bytes: u64,
}

dbtouch_types::wire_struct!(ColumnExtent {
    start_page: u64,
    page_count: u64,
    rows: u64,
    dt: DataType,
    packed_rows_per_page: Option<u64>,
    payload_bytes: u64,
});

impl ColumnExtent {
    /// A raw (uncompressed) extent; `payload_bytes` follows from the row
    /// count and type width.
    pub fn raw(start_page: u64, page_count: u64, rows: u64, dt: DataType) -> ColumnExtent {
        ColumnExtent {
            start_page,
            page_count,
            rows,
            dt,
            packed_rows_per_page: None,
            payload_bytes: rows * dt.width_bytes() as u64,
        }
    }

    /// Whether the extent's payloads are packed span encodings.
    pub fn is_packed(&self) -> bool {
        self.packed_rows_per_page.is_some()
    }
}

/// Counters accumulated by a [`Pager`] since it was opened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PagerStats {
    /// Page reads served from the buffer pool.
    pub pool_hits: u64,
    /// Page reads that faulted from disk.
    pub faults: u64,
    /// Pages evicted to respect the pool capacity.
    pub evictions: u64,
}

struct PoolEntry {
    payload: Arc<Vec<u8>>,
    /// Second-chance bit: set on every hit, cleared once by the clock hand
    /// before the entry becomes an eviction candidate.
    referenced: bool,
}

struct Pool {
    capacity: usize,
    map: HashMap<u64, PoolEntry>,
    /// Clock order: every resident page id appears exactly once.
    queue: VecDeque<u64>,
    evictions: u64,
}

impl Pool {
    fn evict_to_capacity(&mut self) {
        while self.map.len() >= self.capacity {
            let Some(id) = self.queue.pop_front() else {
                return;
            };
            let Some(entry) = self.map.get_mut(&id) else {
                continue;
            };
            if entry.referenced {
                entry.referenced = false;
                self.queue.push_back(id);
            } else {
                self.map.remove(&id);
                self.evictions += 1;
            }
        }
    }
}

/// One page file plus its buffer pool. Shared (via `Arc`) by every paged
/// column of a reopened catalog, so the pool bound is per-catalog, not
/// per-column.
pub struct Pager {
    path: PathBuf,
    page_size: usize,
    /// Shared by every reader: a fault is one positioned read, no lock.
    file: File,
    /// Serializes appends (the id source `len_pages` and the writes).
    append: Mutex<()>,
    pool: Mutex<Pool>,
    /// Pages currently in the file (committed or not); the id source for
    /// appends.
    len_pages: AtomicU64,
    pool_hits: AtomicU64,
    faults: AtomicU64,
    /// Compression counters: pages packed per encoding, bytes saved on disk,
    /// runs aggregated run-at-a-time by scans. Shared so the owning catalog
    /// can register them as the `encoding` metric source.
    encoding_stats: Arc<EncodingStats>,
}

impl std::fmt::Debug for Pager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pager")
            .field("path", &self.path)
            .field("page_size", &self.page_size)
            .field("len_pages", &self.len_pages.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Pager {
    /// Open (or create) a page file with a pool of `pool_pages` pages.
    pub fn open_or_create(
        path: impl AsRef<Path>,
        page_size: usize,
        pool_pages: usize,
    ) -> Result<Pager> {
        if page_size < MIN_PAGE_SIZE {
            return Err(DbTouchError::InvalidConfig(format!(
                "page_size must be at least {MIN_PAGE_SIZE} bytes"
            )));
        }
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| io_err("open page file", e))?;
        let len = file
            .metadata()
            .map_err(|e| io_err("stat page file", e))?
            .len();
        Ok(Pager {
            path,
            page_size,
            file,
            append: Mutex::new(()),
            pool: Mutex::new(Pool {
                capacity: pool_pages.max(1),
                map: HashMap::new(),
                queue: VecDeque::new(),
                evictions: 0,
            }),
            len_pages: AtomicU64::new(len / page_size as u64),
            pool_hits: AtomicU64::new(0),
            faults: AtomicU64::new(0),
            encoding_stats: Arc::new(EncodingStats::default()),
        })
    }

    /// Compression counters for this page file (the `encoding` metric
    /// source).
    pub fn encoding_stats(&self) -> &Arc<EncodingStats> {
        &self.encoding_stats
    }

    /// The page size this file was opened with.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Pages currently in the file (including any uncommitted tail).
    pub fn len_pages(&self) -> u64 {
        self.len_pages.load(Ordering::Acquire)
    }

    /// Buffer-pool capacity in pages.
    pub fn pool_pages(&self) -> usize {
        self.pool.lock().unwrap_or_else(|e| e.into_inner()).capacity
    }

    /// Pool hit/fault/eviction counters since open.
    pub fn stats(&self) -> PagerStats {
        let evictions = {
            let pool = self.pool.lock().unwrap_or_else(|e| e.into_inner());
            pool.evictions
        };
        PagerStats {
            pool_hits: self.pool_hits.load(Ordering::Relaxed),
            faults: self.faults.load(Ordering::Relaxed),
            evictions,
        }
    }

    /// Fill `buf` from the start of page `page_id` with one positioned read.
    fn read_at(&self, page_id: u64, buf: &mut [u8]) -> Result<()> {
        self.file
            .read_exact_at(buf, page_id * self.page_size as u64)
            .map_err(|e| {
                if e.kind() == std::io::ErrorKind::UnexpectedEof {
                    DbTouchError::Corrupt(format!(
                        "page {page_id} lies beyond the end of the page file"
                    ))
                } else {
                    io_err("read page", e)
                }
            })
    }

    fn read_image(&self, page_id: u64) -> Result<Vec<u8>> {
        let mut image = vec![0u8; self.page_size];
        self.read_at(page_id, &mut image)?;
        Ok(image)
    }

    /// Read one page's payload, faulting it into the buffer pool if absent.
    /// The payload checksum is verified on every fault; corruption surfaces
    /// as [`DbTouchError::Corrupt`], never a panic or a silent wrong answer.
    pub fn read_page(self: &Arc<Self>, page_id: u64) -> Result<Arc<Vec<u8>>> {
        {
            let mut pool = self.pool.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(entry) = pool.map.get_mut(&page_id) {
                entry.referenced = true;
                self.pool_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(&entry.payload));
            }
        }
        // Fault outside the pool lock so concurrent sessions faulting other
        // pages are not serialized behind this read. Two sessions faulting
        // the same page concurrently both read it; one insert wins. The
        // verified payload moves to the front of the image it was read
        // into: one allocation per fault, no second copy.
        let mut image = self.read_image(page_id)?;
        let len = verify_page(&image, page_id, self.page_size)?.len();
        image.copy_within(PAGE_HEADER_BYTES..PAGE_HEADER_BYTES + len, 0);
        image.truncate(len);
        let payload = Arc::new(image);
        self.faults.fetch_add(1, Ordering::Relaxed);
        let mut pool = self.pool.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(entry) = pool.map.get_mut(&page_id) {
            entry.referenced = true;
            return Ok(Arc::clone(&entry.payload));
        }
        pool.evict_to_capacity();
        pool.map.insert(
            page_id,
            PoolEntry {
                payload: Arc::clone(&payload),
                referenced: true,
            },
        );
        pool.queue.push_back(page_id);
        Ok(payload)
    }

    /// Append page payloads, returning the id of the first page written. The
    /// caller is responsible for serializing appends (the persist path holds
    /// a store-wide lock) and for [`sync`](Pager::sync)ing before publishing
    /// a manifest that references the new pages.
    pub fn append_payloads<'a>(&self, payloads: impl IntoIterator<Item = &'a [u8]>) -> Result<u64> {
        let _append = self.append.lock().unwrap_or_else(|e| e.into_inner());
        let first = self.len_pages.load(Ordering::Acquire);
        let mut next = first;
        for payload in payloads {
            let image = encode_page(next, payload, self.page_size)?;
            self.file
                .write_all_at(&image, next * self.page_size as u64)
                .map_err(|e| io_err("append page", e))?;
            next += 1;
        }
        self.len_pages.store(next, Ordering::Release);
        Ok(first)
    }

    /// Flush appended pages to stable storage.
    pub fn sync(&self) -> Result<()> {
        self.file
            .sync_data()
            .map_err(|e| io_err("sync page file", e))
    }

    /// Stream-verify every page of an extent without populating the pool:
    /// full payload checksums, memory O(one page) regardless of extent size.
    /// This is the exhaustive check (`fsck`); opening a catalog uses the
    /// cheaper [`verify_extent_headers`](Pager::verify_extent_headers) and
    /// leaves payload verification to fault time.
    pub fn verify_extent(&self, extent: &ColumnExtent) -> Result<()> {
        for page_id in extent.start_page..extent.start_page + extent.page_count {
            let image = self.read_image(page_id)?;
            verify_page(&image, page_id, self.page_size)?;
        }
        Ok(())
    }

    /// Verify only the headers of an extent's pages: magic, stored page id
    /// and payload-length sanity. Reads `PAGE_HEADER_BYTES` per page instead
    /// of whole pages, so open-time validation of a large catalog stays
    /// cheap; payload checksums are still verified lazily on every fault.
    pub fn verify_extent_headers(&self, extent: &ColumnExtent) -> Result<()> {
        let mut header = [0u8; PAGE_HEADER_BYTES];
        for page_id in extent.start_page..extent.start_page + extent.page_count {
            self.read_at(page_id, &mut header)?;
            let decoded = crate::page::PageHeader::decode(&header, self.page_size)?;
            if decoded.page_id != page_id {
                return Err(DbTouchError::Corrupt(format!(
                    "page id mismatch: expected {page_id}, found {}",
                    decoded.page_id
                )));
            }
        }
        Ok(())
    }
}

impl MetricSource for Pager {
    fn source_name(&self) -> &'static str {
        "pager"
    }

    fn collect(&self) -> Vec<(&'static str, MetricValue)> {
        let stats = self.stats();
        let resident = {
            let pool = self.pool.lock().unwrap_or_else(|e| e.into_inner());
            pool.map.len()
        };
        vec![
            ("pool_hits", MetricValue::Counter(stats.pool_hits)),
            ("faults", MetricValue::Counter(stats.faults)),
            ("evictions", MetricValue::Counter(stats.evictions)),
            ("resident_pages", MetricValue::Gauge(resident as u64)),
            ("pool_pages", MetricValue::Gauge(self.pool_pages() as u64)),
            ("len_pages", MetricValue::Gauge(self.len_pages())),
        ]
    }
}

/// A column whose rows live in a contiguous page extent and fault through a
/// shared [`Pager`] on first touch.
#[derive(Clone)]
pub struct PagedColumn {
    pager: Arc<Pager>,
    extent: ColumnExtent,
    /// Rows per page, precomputed from the page size and row width.
    rows_per_page: u64,
}

impl std::fmt::Debug for PagedColumn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagedColumn")
            .field("extent", &self.extent)
            .finish_non_exhaustive()
    }
}

impl PagedColumn {
    /// Wrap an extent of `pager` as a readable column. Validates the page
    /// geometry implied by the extent's type and row count (for packed
    /// extents, the rows-per-page the extent itself declares; span payloads
    /// are further validated structurally on every read).
    pub fn new(pager: Arc<Pager>, extent: ColumnExtent) -> Result<PagedColumn> {
        let width = extent.dt.width_bytes();
        let rpp = match extent.packed_rows_per_page {
            Some(packed) => packed,
            None => rows_per_page(pager.page_size(), width),
        };
        if extent.rows > 0 {
            if rpp == 0 {
                return Err(DbTouchError::InvalidConfig(format!(
                    "row width {width} does not fit the {}-byte page payload",
                    payload_capacity(pager.page_size())
                )));
            }
            let needed = extent.rows.div_ceil(rpp);
            if needed != extent.page_count {
                return Err(DbTouchError::Corrupt(format!(
                    "extent claims {} pages for {} rows ({} expected)",
                    extent.page_count, extent.rows, needed
                )));
            }
        } else if extent.page_count != 0 {
            return Err(DbTouchError::Corrupt(
                "extent claims pages for an empty column".into(),
            ));
        }
        Ok(PagedColumn {
            pager,
            extent,
            rows_per_page: rpp,
        })
    }

    /// The extent this column reads.
    pub fn extent(&self) -> ColumnExtent {
        self.extent
    }

    /// Element type.
    pub fn data_type(&self) -> DataType {
        self.extent.dt
    }

    /// Number of rows.
    pub fn rows(&self) -> u64 {
        self.extent.rows
    }

    fn check_row(&self, row: RowId) -> Result<()> {
        if row.0 >= self.extent.rows {
            return Err(DbTouchError::RowOutOfBounds {
                row: row.0,
                len: self.extent.rows,
            });
        }
        Ok(())
    }

    /// Fault the page containing `row` and return `(payload, byte offset of
    /// the row's value within it)`. For packed extents the offset is
    /// resolved through the span encoding (`O(1)` for raw and dictionary
    /// spans, a run scan for RLE).
    fn page_for_row(&self, row: u64) -> Result<(Arc<Vec<u8>>, usize)> {
        let width = self.extent.dt.width_bytes();
        let page_idx = row / self.rows_per_page;
        let payload = self.pager.read_page(self.extent.start_page + page_idx)?;
        let offset = if self.extent.is_packed() {
            span_value_offset(&payload, width, row % self.rows_per_page)?
        } else {
            (row % self.rows_per_page) as usize * width
        };
        if offset + width > payload.len() {
            return Err(DbTouchError::Corrupt(format!(
                "row {row} points past the payload of page {}",
                self.extent.start_page + page_idx
            )));
        }
        Ok((payload, offset))
    }

    /// The value at `row`, decoded exactly as the in-memory column (and the
    /// row-major matrix) decode it.
    pub fn value_at(&self, row: RowId) -> Result<Value> {
        self.check_row(row)?;
        let width = self.extent.dt.width_bytes();
        let (payload, offset) = self.page_for_row(row.0)?;
        Value::decode(&payload[offset..offset + width], self.extent.dt)
    }

    /// Fast numeric accessor mirroring `Column::f64_at`.
    pub fn f64_at(&self, row: RowId) -> Result<f64> {
        self.check_row(row)?;
        match self.extent.dt {
            DataType::Int64 | DataType::TimestampMillis => {
                let (payload, offset) = self.page_for_row(row.0)?;
                Ok(i64::from_le_bytes(payload[offset..offset + 8].try_into().unwrap()) as f64)
            }
            DataType::Float64 => {
                let (payload, offset) = self.page_for_row(row.0)?;
                Ok(f64::from_le_bytes(
                    payload[offset..offset + 8].try_into().unwrap(),
                ))
            }
            dt => Err(DbTouchError::TypeMismatch {
                expected: "numeric".into(),
                found: dt.name(),
            }),
        }
    }

    /// `(count, sum, min, max)` over `range`, folding rows in ascending order
    /// — the identical accumulation order (and therefore identical floating
    /// point result) as the in-memory column's `numeric_range_stats`.
    pub fn numeric_range_stats(
        &self,
        range: RowRange,
    ) -> Result<(u64, f64, Option<f64>, Option<f64>)> {
        Ok(self.range_stats(range, false)?.as_tuple())
    }

    /// [`SegmentStats`] over `range` — the same page-at-a-time fold as
    /// `numeric_range_stats`, but integer columns accumulate their sum in
    /// exact `i128` so segment partials merge associatively, whole RLE runs
    /// aggregate with one multiply and dictionary pages by counting codes.
    pub fn segment_range_stats(&self, range: RowRange) -> Result<SegmentStats> {
        self.range_stats(range, true)
    }

    /// Pick the element type and sum discipline of the one range fold
    /// ([`crate::fold`]); `exact` selects the `i128` sum for integer columns.
    pub(crate) fn range_stats(&self, range: RowRange, exact: bool) -> Result<SegmentStats> {
        match self.extent.dt {
            DataType::Int64 | DataType::TimestampMillis if exact => {
                self.fold_pages::<i64, Exact>(range)
            }
            DataType::Int64 | DataType::TimestampMillis => self.fold_pages::<i64, Ordered>(range),
            DataType::Float64 => self.fold_pages::<f64, Ordered>(range),
            dt => Err(DbTouchError::TypeMismatch {
                expected: "numeric".into(),
                found: dt.name(),
            }),
        }
    }

    /// Fault the page containing `row` and return `(payload, page id)`.
    fn page_span(&self, row: u64) -> Result<(Arc<Vec<u8>>, u64)> {
        let page_idx = row / self.rows_per_page;
        let payload = self.pager.read_page(self.extent.start_page + page_idx)?;
        Ok((payload, self.extent.start_page + page_idx))
    }

    /// Feed `range` (clamped) to the fold one page at a time, in ascending
    /// row order: packed pages as their encoded span, unpacked pages as raw
    /// values.
    fn fold_pages<T: Elem, S: Sum<T>>(&self, range: RowRange) -> Result<SegmentStats> {
        let range = range.clamp_to(self.extent.rows);
        let mut fold = RangeFold::<S>::default();
        let mut row = range.start;
        while row < range.end {
            let lo = (row % self.rows_per_page) as usize;
            let take = (self.rows_per_page - row % self.rows_per_page).min(range.end - row);
            let hi = lo + take as usize;
            let (payload, page_id) = self.page_span(row)?;
            if self.extent.is_packed() {
                let (view, span_rows) = span_view(&payload, ELEM_BYTES)?;
                if (span_rows as usize) < hi {
                    return Err(DbTouchError::Corrupt(format!(
                        "page {page_id} stores {span_rows} rows where {hi} were expected"
                    )));
                }
                fold.encoded::<T>(view, lo, hi);
            } else {
                let rows = payload
                    .get(lo * ELEM_BYTES..hi * ELEM_BYTES)
                    .ok_or_else(|| {
                        DbTouchError::Corrupt(format!(
                            "page {page_id} payload short of its expected {hi} rows"
                        ))
                    })?;
                fold.raw(le_values::<T>(rows));
            }
            row += take;
        }
        self.pager.encoding_stats.add_run_skips(fold.run_skips);
        Ok(fold.finish())
    }

    /// Rows per page of this extent (packed extents hold more than the page
    /// geometry allows raw).
    pub fn rows_per_page(&self) -> u64 {
        self.rows_per_page
    }

    /// Verbatim row bytes of `range`, decoded page-at-a-time — the batch
    /// path behind `materialized`, `project_range` and re-persists; never
    /// faults a page outside the range.
    pub fn range_raw_bytes(&self, range: RowRange) -> Result<Vec<u8>> {
        let width = self.extent.dt.width_bytes();
        let range = range.clamp_to(self.extent.rows);
        let mut out = Vec::with_capacity(range.len() as usize * width);
        let mut row = range.start;
        while row < range.end {
            let lo = (row % self.rows_per_page) as usize * width;
            let take = (self.rows_per_page - row % self.rows_per_page).min(range.end - row);
            let bytes = take as usize * width;
            let (payload, page_id) = self.page_span(row)?;
            if self.extent.is_packed() {
                let decoded = decode_span(&payload, width)?;
                if decoded.len() < lo + bytes {
                    return Err(DbTouchError::Corrupt(format!(
                        "page {page_id} decodes short of its expected rows"
                    )));
                }
                out.extend_from_slice(&decoded[lo..lo + bytes]);
            } else {
                if payload.len() < lo + bytes {
                    return Err(DbTouchError::Corrupt(format!(
                        "page {page_id} payload short of its expected rows"
                    )));
                }
                out.extend_from_slice(&payload[lo..lo + bytes]);
            }
            row += take;
        }
        Ok(out)
    }

    /// Verbatim row bytes of the whole column.
    pub fn raw_row_bytes(&self) -> Result<Vec<u8>> {
        self.range_raw_bytes(RowRange::new(0, self.extent.rows))
    }

    /// Row bytes of rows `0, step, 2·step, …`, decoding each page at most
    /// once and faulting only pages that actually hold a sampled row.
    /// Returns the bytes and the number of rows sampled.
    pub fn strided_row_bytes(&self, step: u64) -> Result<(Vec<u8>, u64)> {
        let width = self.extent.dt.width_bytes();
        let step = step.max(1);
        let mut out = Vec::with_capacity((self.extent.rows / step + 1) as usize * width);
        let mut sampled = 0u64;
        let mut cached: Option<(u64, Vec<u8>)> = None;
        let mut row = 0u64;
        while row < self.extent.rows {
            let page_idx = row / self.rows_per_page;
            if cached.as_ref().map(|(idx, _)| *idx) != Some(page_idx) {
                let (payload, _) = self.page_span(row)?;
                let decoded = if self.extent.is_packed() {
                    decode_span(&payload, width)?
                } else {
                    payload.to_vec()
                };
                cached = Some((page_idx, decoded));
            }
            let bytes = &cached.as_ref().unwrap().1;
            let lo = (row % self.rows_per_page) as usize * width;
            if bytes.len() < lo + width {
                return Err(DbTouchError::Corrupt(format!(
                    "page {} short of row {row}",
                    self.extent.start_page + page_idx
                )));
            }
            out.extend_from_slice(&bytes[lo..lo + width]);
            sampled += 1;
            row += step;
        }
        Ok((out, sampled))
    }

    /// The persisted payload of every page of the extent, in order. For
    /// packed extents these are the *encoded* span payloads — re-persisting
    /// a column goes through [`raw_row_bytes`](PagedColumn::raw_row_bytes)
    /// so the destination store makes its own packing decision.
    pub fn page_payloads(&self) -> impl Iterator<Item = Result<Arc<Vec<u8>>>> + '_ {
        (self.extent.start_page..self.extent.start_page + self.extent.page_count)
            .map(move |id| self.pager.read_page(id))
    }
}

/// Split a column's raw row bytes into page payloads and append them,
/// returning the extent. `rows_bytes` must be `rows * width` long.
pub fn append_row_bytes(
    pager: &Pager,
    dt: DataType,
    rows: u64,
    row_bytes: &[u8],
) -> Result<ColumnExtent> {
    let width = dt.width_bytes();
    if row_bytes.len() as u64 != rows * width as u64 {
        return Err(DbTouchError::Internal(format!(
            "append_row_bytes: {} bytes for {rows} rows of width {width}",
            row_bytes.len()
        )));
    }
    if rows == 0 {
        return Ok(ColumnExtent::raw(0, 0, 0, dt));
    }
    let rpp = rows_per_page(pager.page_size(), width);
    if rpp == 0 {
        return Err(DbTouchError::InvalidConfig(format!(
            "row width {width} does not fit the {}-byte page payload",
            payload_capacity(pager.page_size())
        )));
    }
    let chunk = rpp as usize * width;
    let start_page = pager.append_payloads(row_bytes.chunks(chunk))?;
    Ok(ColumnExtent::raw(start_page, rows.div_ceil(rpp), rows, dt))
}

/// Like [`append_row_bytes`], but first tries to pack the rows into fewer
/// pages under `policy` (see [`crate::encoding`]). Falls back to the raw
/// layout whenever packing would not shrink the page count, so enabling
/// compression never costs disk space.
pub fn append_row_bytes_encoded(
    pager: &Pager,
    dt: DataType,
    rows: u64,
    row_bytes: &[u8],
    policy: &EncodingPolicy,
) -> Result<ColumnExtent> {
    let width = dt.width_bytes();
    if row_bytes.len() as u64 != rows * width as u64 {
        return Err(DbTouchError::Internal(format!(
            "append_row_bytes_encoded: {} bytes for {rows} rows of width {width}",
            row_bytes.len()
        )));
    }
    if rows > 0 && policy.enabled {
        let base_rpp = rows_per_page(pager.page_size(), width);
        let capacity = payload_capacity(pager.page_size());
        if let Some(packed) = pack_row_bytes(row_bytes, width, base_rpp, capacity, policy) {
            let page_count = packed.payloads.len() as u64;
            let start_page = pager.append_payloads(packed.payloads.iter().map(|p| p.as_slice()))?;
            let raw_pages = rows.div_ceil(base_rpp);
            pager.encoding_stats.record_pack(
                packed.rle_pages,
                packed.dict_pages,
                (raw_pages - page_count) * pager.page_size() as u64,
            );
            return Ok(ColumnExtent {
                start_page,
                page_count,
                rows,
                dt,
                packed_rows_per_page: Some(packed.rows_per_page),
                payload_bytes: packed.payload_bytes,
            });
        }
    }
    append_row_bytes(pager, dt, rows, row_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::DEFAULT_PAGE_SIZE;
    use std::path::PathBuf;
    use std::sync::atomic::AtomicU32;

    static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

    fn temp_file(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dbtouch-pager-{}-{}-{tag}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("pages.dat")
    }

    fn i64_bytes(values: &[i64]) -> Vec<u8> {
        values.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    #[test]
    fn append_and_read_round_trip() {
        let path = temp_file("round-trip");
        let pager = Arc::new(Pager::open_or_create(&path, 256, 4).unwrap());
        let values: Vec<i64> = (0..1000).collect();
        let extent = append_row_bytes(&pager, DataType::Int64, 1000, &i64_bytes(&values)).unwrap();
        assert!(extent.page_count > 1);
        let col = PagedColumn::new(Arc::clone(&pager), extent).unwrap();
        assert_eq!(col.rows(), 1000);
        assert_eq!(col.value_at(RowId(0)).unwrap(), Value::Int(0));
        assert_eq!(col.value_at(RowId(999)).unwrap(), Value::Int(999));
        assert_eq!(col.f64_at(RowId(500)).unwrap(), 500.0);
        assert!(col.value_at(RowId(1000)).is_err());
        let (count, sum, min, max) = col.numeric_range_stats(RowRange::new(10, 20)).unwrap();
        assert_eq!((count, sum), (10, (10..20).sum::<i64>() as f64));
        assert_eq!((min, max), (Some(10.0), Some(19.0)));
    }

    #[test]
    fn pool_stays_bounded_and_counts_evictions() {
        let path = temp_file("bounded");
        let pager = Arc::new(Pager::open_or_create(&path, 256, 3).unwrap());
        let values: Vec<i64> = (0..1000).collect();
        let extent = append_row_bytes(&pager, DataType::Int64, 1000, &i64_bytes(&values)).unwrap();
        let col = PagedColumn::new(Arc::clone(&pager), extent).unwrap();
        // Stream the whole column twice through a 3-page pool.
        for _ in 0..2 {
            let (count, ..) = col.numeric_range_stats(RowRange::new(0, 1000)).unwrap();
            assert_eq!(count, 1000);
        }
        let stats = pager.stats();
        assert!(stats.evictions > 0, "a 3-page pool must evict: {stats:?}");
        let resident = {
            let pool = pager.pool.lock().unwrap();
            pool.map.len()
        };
        assert!(resident <= 3, "pool exceeded capacity: {resident}");
    }

    #[test]
    fn clock_evicts_behind_a_sequential_cursor() {
        const PAGES: u64 = 100;
        const POOL: u64 = PAGES / 10;
        let path = temp_file("sweep");
        let pager = Arc::new(Pager::open_or_create(&path, 256, POOL as usize).unwrap());
        let rows = PAGES * rows_per_page(256, 8);
        let values: Vec<i64> = (0..rows as i64).collect();
        let extent = append_row_bytes(&pager, DataType::Int64, rows, &i64_bytes(&values)).unwrap();
        assert_eq!(extent.page_count, PAGES);
        let col = PagedColumn::new(Arc::clone(&pager), extent).unwrap();
        let first_row_of = |page: u64| RowId(page * col.rows_per_page());

        // A sequential slide over every row faults each page exactly once.
        for row in 0..rows {
            assert_eq!(col.value_at(RowId(row)).unwrap(), Value::Int(row as i64));
        }
        let swept = pager.stats();
        assert_eq!(swept.faults, PAGES);
        assert_eq!(swept.evictions, PAGES - POOL);

        // What the cursor just passed is still resident...
        for page in PAGES - (POOL - 1)..PAGES {
            col.value_at(first_row_of(page)).unwrap();
        }
        assert_eq!(pager.stats().faults, PAGES);
        // ...and the start of the sweep was evicted.
        col.value_at(first_row_of(0)).unwrap();
        assert_eq!(pager.stats().faults, PAGES + 1);
    }

    #[test]
    fn repeated_reads_hit_the_pool() {
        let path = temp_file("hits");
        let pager = Arc::new(Pager::open_or_create(&path, 256, 64).unwrap());
        let extent = append_row_bytes(
            &pager,
            DataType::Int64,
            100,
            &i64_bytes(&(0..100).collect::<Vec<_>>()),
        )
        .unwrap();
        let col = PagedColumn::new(Arc::clone(&pager), extent).unwrap();
        for _ in 0..10 {
            col.value_at(RowId(5)).unwrap();
        }
        let stats = pager.stats();
        assert_eq!(stats.faults, 1);
        assert!(stats.pool_hits >= 9);
    }

    #[test]
    fn concurrent_faults_read_every_value_and_count_every_read() {
        const THREADS: u64 = 4;
        const ROUNDS: u64 = 8;
        let pager = Arc::new(Pager::open_or_create(temp_file("concurrent"), 256, 4).unwrap());
        let values: Vec<i64> = (0..29 * 16).map(|i| i * 31 - 5).collect();
        let extent = append_row_bytes(
            &pager,
            DataType::Int64,
            values.len() as u64,
            &i64_bytes(&values),
        )
        .unwrap();
        assert_eq!(extent.page_count, 16);
        let col = PagedColumn::new(Arc::clone(&pager), extent).unwrap();
        let rpp = col.rows_per_page();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (col, values) = (&col, &values);
                // Thread `t` owns pages t, t + 4, …: disjoint from the others,
                // and together 16 pages through a 4-page pool.
                s.spawn(move || {
                    for round in 0..ROUNDS {
                        for page in (t..extent.page_count).step_by(THREADS as usize) {
                            let row = page * rpp + round * 3 % rpp;
                            assert_eq!(
                                col.value_at(RowId(row)).unwrap(),
                                Value::Int(values[row as usize])
                            );
                        }
                    }
                });
            }
        });
        let stats = pager.stats();
        assert_eq!(stats.faults + stats.pool_hits, ROUNDS * extent.page_count);
        assert!(stats.faults >= extent.page_count, "{stats:?}");
        assert!(pager.pool.lock().unwrap().map.len() <= 4);
    }

    #[test]
    fn corruption_surfaces_as_error_not_panic() {
        let path = temp_file("corrupt");
        let pager = Arc::new(Pager::open_or_create(&path, 256, 4).unwrap());
        let extent = append_row_bytes(
            &pager,
            DataType::Int64,
            100,
            &i64_bytes(&(0..100).collect::<Vec<_>>()),
        )
        .unwrap();
        pager.sync().unwrap();
        drop(pager);
        // Flip a payload byte of the second page.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[256 + PAGE_HEADER_BYTES + 4] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let pager = Arc::new(Pager::open_or_create(&path, 256, 4).unwrap());
        let col = PagedColumn::new(Arc::clone(&pager), extent).unwrap();
        // First page still reads fine; the corrupted one errors.
        assert!(col.value_at(RowId(0)).is_ok());
        let first_bad = RowId(col.rows_per_page);
        assert!(matches!(
            col.value_at(first_bad),
            Err(DbTouchError::Corrupt(_))
        ));
        assert!(pager.verify_extent(&extent).is_err());
    }

    #[test]
    fn reads_beyond_eof_are_corrupt_errors() {
        let path = temp_file("eof");
        let pager = Arc::new(Pager::open_or_create(&path, 256, 4).unwrap());
        let bogus = ColumnExtent::raw(10, 1, 4, DataType::Int64);
        assert!(matches!(
            pager.verify_extent(&bogus),
            Err(DbTouchError::Corrupt(_))
        ));
        let col = PagedColumn::new(Arc::clone(&pager), bogus).unwrap();
        assert!(col.value_at(RowId(0)).is_err());
    }

    #[test]
    fn empty_and_oversized_extents_validated() {
        let path = temp_file("validate");
        let pager = Arc::new(Pager::open_or_create(&path, 256, 4).unwrap());
        let empty = append_row_bytes(&pager, DataType::Int64, 0, &[]).unwrap();
        assert_eq!(empty.page_count, 0);
        let col = PagedColumn::new(Arc::clone(&pager), empty).unwrap();
        assert_eq!(col.rows(), 0);
        assert!(col.value_at(RowId(0)).is_err());
        // A fixed string wider than the payload cannot be paged.
        assert!(append_row_bytes(&pager, DataType::FixedStr(300), 1, &[0u8; 300]).is_err());
        // Page-count/row mismatches are rejected.
        let lying = ColumnExtent::raw(0, 99, 4, DataType::Int64);
        assert!(PagedColumn::new(Arc::clone(&pager), lying).is_err());
        assert!(Pager::open_or_create(path.with_extension("tiny"), 8, 4).is_err());
    }

    fn f64_bytes(values: &[f64]) -> Vec<u8> {
        values.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    /// Every point and batch accessor of a packed column must agree
    /// bit-for-bit with the raw column persisted from the same rows (range
    /// statistics are held to a per-row reference in `tests/range_fold.rs`).
    fn assert_reads_match(raw: &PagedColumn, packed: &PagedColumn, rows: u64) {
        for row in [0, 1, rows / 2, rows - 1] {
            assert_eq!(
                raw.value_at(RowId(row)).unwrap(),
                packed.value_at(RowId(row)).unwrap()
            );
            assert_eq!(
                raw.f64_at(RowId(row)).unwrap().to_bits(),
                packed.f64_at(RowId(row)).unwrap().to_bits()
            );
        }
        assert_eq!(
            raw.raw_row_bytes().unwrap(),
            packed.raw_row_bytes().unwrap()
        );
        assert_eq!(
            raw.range_raw_bytes(RowRange::new(13, rows - 5)).unwrap(),
            packed.range_raw_bytes(RowRange::new(13, rows - 5)).unwrap()
        );
        for step in [1, 7, 1000] {
            assert_eq!(
                raw.strided_row_bytes(step).unwrap(),
                packed.strided_row_bytes(step).unwrap()
            );
        }
    }

    fn packed_pair(tag: &str, dt: DataType, rows: u64, bytes: &[u8]) -> (PagedColumn, PagedColumn) {
        let pager = Arc::new(Pager::open_or_create(temp_file(tag), 256, 64).unwrap());
        let raw = append_row_bytes(&pager, dt, rows, bytes).unwrap();
        let packed =
            append_row_bytes_encoded(&pager, dt, rows, bytes, &EncodingPolicy::default()).unwrap();
        assert!(packed.is_packed(), "data should have packed");
        assert!(packed.page_count * 2 <= raw.page_count, "≥2x page shrink");
        assert!(packed.payload_bytes < raw.payload_bytes);
        (
            PagedColumn::new(Arc::clone(&pager), raw).unwrap(),
            PagedColumn::new(pager, packed).unwrap(),
        )
    }

    #[test]
    fn packed_rle_column_reads_identically() {
        let values: Vec<i64> = (0..4000).map(|i| (i / 100) % 4 - 2).collect();
        let (raw, packed) = packed_pair("packed-rle", DataType::Int64, 4000, &i64_bytes(&values));
        assert_reads_match(&raw, &packed, 4000);
        assert!(packed.pager.encoding_stats().rle_pages() > 0);
        assert!(packed.pager.encoding_stats().bytes_saved() > 0);
        // A debounced six-level reading (constant runs of uneven length, the
        // shape `banded_sweep` stores) packs to at most half the raw pages
        // too — `packed_pair` asserts the 2x — and reads back identically.
        let banded: Vec<i64> = (0..4000i64).map(|i| (i / 37 + i / 211) % 6).collect();
        let (raw, packed) = packed_pair("packed-band", DataType::Int64, 4000, &i64_bytes(&banded));
        assert_reads_match(&raw, &packed, 4000);
    }

    #[test]
    fn packed_dict_column_reads_identically() {
        // Pseudo-random low-cardinality values: no long runs, 13 distinct.
        let values: Vec<i64> = (0..4000i64).map(|i| (i * 2654435761 % 13) - 6).collect();
        let (raw, packed) = packed_pair("packed-dict", DataType::Int64, 4000, &i64_bytes(&values));
        assert_reads_match(&raw, &packed, 4000);
        assert!(packed.pager.encoding_stats().dict_pages() > 0);
    }

    #[test]
    fn packed_float_column_preserves_fold_order() {
        let values: Vec<f64> = (0..4000)
            .map(|i| ((i / 50) % 7) as f64 * 0.1 - 0.3)
            .collect();
        let (raw, packed) =
            packed_pair("packed-float", DataType::Float64, 4000, &f64_bytes(&values));
        assert_reads_match(&raw, &packed, 4000);
    }

    #[test]
    fn incompressible_data_stays_raw_under_encoding() {
        let values: Vec<i64> = (0..4000).map(|i| i * 2654435761 + 17).collect();
        let pager = Arc::new(Pager::open_or_create(temp_file("stays-raw"), 256, 64).unwrap());
        let extent = append_row_bytes_encoded(
            &pager,
            DataType::Int64,
            4000,
            &i64_bytes(&values),
            &EncodingPolicy::default(),
        )
        .unwrap();
        assert!(!extent.is_packed());
        assert_eq!(extent.payload_bytes, 4000 * 8);
        assert_eq!(pager.encoding_stats().bytes_saved(), 0);
        let col = PagedColumn::new(pager, extent).unwrap();
        assert_eq!(col.value_at(RowId(7)).unwrap(), Value::Int(values[7]));
    }

    #[test]
    fn default_page_size_is_sane() {
        const { assert!(DEFAULT_PAGE_SIZE >= MIN_PAGE_SIZE) };
        assert_eq!(rows_per_page(DEFAULT_PAGE_SIZE, 8), 1021);
    }
}
