//! Kernel configuration.
//!
//! The paper leaves most policy parameters open ("parameter k can be defined by
//! the users according to their exploration requirements as well as by system
//! parameters"). `KernelConfig` gathers every tunable in one place so the figure
//! harnesses can sweep them and the examples can show sensible defaults.

use crate::error::{DbTouchError, Result};
use serde::{Deserialize, Serialize};

/// Configuration of the device/cloud storage split (Section 4, "Remote
/// Processing"): the device keeps the coarse sample levels of every column
/// (levels `>= local_min_level`), the simulated cloud server keeps everything,
/// and summary touches that need a finer level than the device holds are
/// served over a modelled network link.
///
/// Fine-level requests go through the asynchronous remote executor: the
/// session answers immediately from the coarsest local level and the
/// refinement lands later, patched into the outcome when the completion
/// queue is drained. The session never blocks on the link.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RemoteSplitConfig {
    /// Coarsest sample level resident on the device: levels `>=` this are
    /// local, finer levels live on the simulated server. Clamped per object
    /// to its hierarchy depth, so an object with fewer levels is simply
    /// all-local.
    pub local_min_level: u8,
    /// Round-trip latency per remote request, in microseconds.
    pub round_trip_micros: u64,
    /// Transfer throughput of the link, in rows per millisecond (0 models a
    /// latency-only link).
    pub rows_per_milli: u64,
    /// I/O threads of the remote executor.
    pub io_threads: usize,
    /// Bound of the executor's submission queue: a session submitting faster
    /// than the I/O pool drains blocks (backpressure) instead of queueing
    /// without bound.
    pub queue_depth: usize,
}

impl Default for RemoteSplitConfig {
    fn default() -> Self {
        RemoteSplitConfig {
            local_min_level: 4,
            // The same "reasonable WAN" as `NetworkModel::default` in core:
            // 40ms round trip, ~2000 rows (16KB of int64) per ms.
            round_trip_micros: 40_000,
            rows_per_milli: 2_000,
            io_threads: 4,
            queue_depth: 256,
        }
    }
}

impl RemoteSplitConfig {
    /// Validate the split parameters.
    pub fn validate(&self) -> Result<()> {
        if self.local_min_level == 0 {
            return Err(DbTouchError::InvalidConfig(
                "remote_split.local_min_level must be >= 1 (level 0 local means no split)".into(),
            ));
        }
        if self.io_threads == 0 {
            return Err(DbTouchError::InvalidConfig(
                "remote_split.io_threads must be > 0".into(),
            ));
        }
        if self.queue_depth == 0 {
            return Err(DbTouchError::InvalidConfig(
                "remote_split.queue_depth must be > 0".into(),
            ));
        }
        Ok(())
    }

    /// Builder-style setter for the device-resident level range.
    pub fn with_local_min_level(mut self, level: u8) -> Self {
        self.local_min_level = level;
        self
    }

    /// Builder-style setter for the network model parameters.
    pub fn with_network(mut self, round_trip_micros: u64, rows_per_milli: u64) -> Self {
        self.round_trip_micros = round_trip_micros;
        self.rows_per_milli = rows_per_milli;
        self
    }
}

/// Configuration of a dbTouch kernel instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelConfig {
    /// Touch sampling rate of the (simulated) touch OS, in events per second.
    /// iOS-class devices register roughly 60 touch samples per second, which is
    /// the default. Figure 4(a) depends directly on this rate: a slower gesture
    /// lasts longer and therefore registers more touch samples.
    pub touch_sample_rate_hz: f64,

    /// Minimum on-screen distance between two successive touch locations that
    /// the kernel treats as distinct, in centimetres. This models the physical
    /// limit the paper mentions: "for each possible size of a visual object,
    /// there is a limited amount of touch locations which can be registered".
    pub touch_resolution_cm: f64,

    /// Default half-window `k` for interactive summaries (Section 2.7): each
    /// touch aggregates the tuple-identifier range `[id - k, id + k]`.
    pub summary_half_window: u64,

    /// Number of sample levels to build per column (level 0 is base data, level
    /// `i` keeps every 2^i-th row). Section 2.6 "Sample-based Storage".
    pub sample_levels: u8,

    /// Maximum time the kernel may spend answering one touch, in microseconds.
    /// Section 4: "There should always be a maximum possible wait time for a
    /// single touch regardless of the query and the data sizes." A session
    /// turns it into a row cap: a summary window longer than the cap is
    /// answered from its first rows and folded in full later.
    pub touch_budget_micros: u64,

    /// When `true`, the kernel picks the sample level adaptively from the
    /// gesture speed and object size; when `false` it always reads base data.
    pub adaptive_sampling: bool,

    /// When `true`, sessions of the same catalog share a cross-session result
    /// cache of summary-window aggregates, keyed by immutable-object identity
    /// (a catalog restructure mints a new identity, so stale entries can never
    /// be served). The cache is result-transparent: hits return the exact
    /// tuple a recomputation would.
    pub shared_cache_enabled: bool,

    /// Capacity of the persistent store's buffer pool, in pages. This bounds
    /// the memory resident for paged-backed catalogs: a reopened catalog
    /// larger than `buffer_pool_pages` × the store's page size streams under
    /// exploration instead of loading fully.
    pub buffer_pool_pages: usize,

    /// The device/cloud storage split, `None` for an all-local kernel (the
    /// default). See [`RemoteSplitConfig`].
    pub remote_split: Option<RemoteSplitConfig>,

    /// When `true` (the default), the kernel records span trees as the
    /// `trace_*` knobs configure; when `false`, its hub records none. Every
    /// layer's counters and histograms are scraped regardless. Telemetry
    /// observes execution without steering it — results and session digests
    /// are bit-identical either way.
    pub telemetry_enabled: bool,

    /// Scan worker threads a large touch may fan out over (the submitting
    /// worker included). 1 — the default — keeps every touch on the
    /// single-threaded path; N > 1 starts a pool of N-1 scan helpers that
    /// steal segment morsels from a shared queue. Results are bit-identical
    /// at any setting: segment decomposition depends only on
    /// [`segment_rows`](Self::segment_rows), and partial aggregates merge by
    /// exact arithmetic in segment order.
    #[serde(default)]
    pub scan_parallelism: usize,

    /// Rows per scan segment when a summary window fans out over the morsel
    /// queue. Windows no longer than this stay on the sequential path; longer
    /// windows split into `segment_rows`-sized morsels. The default (65536)
    /// is a multiple of the zone-map block size (4096 rows), so interior
    /// segments align to whole zone blocks and can be answered from the
    /// index without touching data.
    #[serde(default)]
    pub segment_rows: u64,

    /// Whether persists pack columns with per-page RLE/dictionary encodings
    /// (the default). Selection is per page and falls back to raw whenever
    /// nothing actually shrinks, so turning this off only changes bytes on
    /// disk — never results: encoded scans are bit-identical to raw ones.
    #[serde(default)]
    pub encoding_enabled: bool,

    /// When `true` (the default), the kernel additionally captures
    /// hierarchical span trees per gesture trace — queue-wait vs service
    /// decomposition, per-segment scan spans, late remote refinements —
    /// tail-sampled into a bounded ring (see the `trace_*` knobs). Requires
    /// telemetry; like the rest of telemetry, tracing observes execution
    /// without steering it, so digests are bit-identical either way.
    #[serde(default)]
    pub tracing_enabled: bool,

    /// Tail-sampling threshold in microseconds: any finished trace whose
    /// root (end-to-end touch) latency reaches this keeps its full span
    /// tree. The default (10 000 µs = 10 ms) captures traces that breach the
    /// paper's interactivity contract by ~5x.
    #[serde(default)]
    pub trace_tail_threshold_micros: u64,

    /// Baseline head sampling: additionally retain every Nth finished trace
    /// regardless of latency, so the tail has something typical to diff
    /// against. 0 disables the baseline.
    #[serde(default)]
    pub trace_head_sample_every: u64,

    /// Completed span trees retained; the oldest is evicted beyond this.
    #[serde(default)]
    pub trace_retained_capacity: usize,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            touch_sample_rate_hz: 60.0,
            touch_resolution_cm: 0.05,
            summary_half_window: 5,
            sample_levels: 8,
            touch_budget_micros: 2_000,
            adaptive_sampling: true,
            shared_cache_enabled: true,
            buffer_pool_pages: 4096,
            remote_split: None,
            telemetry_enabled: true,
            scan_parallelism: 1,
            segment_rows: 65_536,
            encoding_enabled: true,
            tracing_enabled: true,
            trace_tail_threshold_micros: 10_000,
            trace_head_sample_every: 64,
            trace_retained_capacity: 64,
        }
    }
}

impl KernelConfig {
    /// Validate the configuration, returning a descriptive error for the first
    /// out-of-range field found.
    pub fn validate(&self) -> Result<()> {
        if !(self.touch_sample_rate_hz.is_finite() && self.touch_sample_rate_hz > 0.0) {
            return Err(DbTouchError::InvalidConfig(
                "touch_sample_rate_hz must be finite and > 0".into(),
            ));
        }
        if !(self.touch_resolution_cm.is_finite() && self.touch_resolution_cm >= 0.0) {
            return Err(DbTouchError::InvalidConfig(
                "touch_resolution_cm must be finite and >= 0".into(),
            ));
        }
        if self.sample_levels == 0 {
            return Err(DbTouchError::InvalidConfig(
                "sample_levels must be at least 1 (level 0 is base data)".into(),
            ));
        }
        if self.touch_budget_micros == 0 {
            return Err(DbTouchError::InvalidConfig(
                "touch_budget_micros must be > 0".into(),
            ));
        }
        if self.buffer_pool_pages == 0 {
            return Err(DbTouchError::InvalidConfig(
                "buffer_pool_pages must be > 0".into(),
            ));
        }
        if let Some(split) = &self.remote_split {
            split.validate()?;
        }
        if self.scan_parallelism == 0 {
            return Err(DbTouchError::InvalidConfig(
                "scan_parallelism must be >= 1 (1 means single-threaded scans)".into(),
            ));
        }
        if self.segment_rows == 0 {
            return Err(DbTouchError::InvalidConfig(
                "segment_rows must be > 0".into(),
            ));
        }
        if self.tracing_enabled && self.trace_retained_capacity == 0 {
            return Err(DbTouchError::InvalidConfig(
                "trace_retained_capacity must be >= 1 when tracing is enabled".into(),
            ));
        }
        Ok(())
    }

    /// Configuration used by the paper's Figure 4 experiments: interactive
    /// summaries averaging 10 entries per summary over a 10^7-integer column.
    /// The paper uses "10 data entries for each summary", which we model as a
    /// half-window of 5 (the touched row plus ~5 on each side, clamped).
    pub fn figure4() -> Self {
        KernelConfig {
            summary_half_window: 5,
            ..KernelConfig::default()
        }
    }

    /// A configuration with every adaptive optimization disabled; used by the
    /// ablation benchmarks as the "naive" kernel.
    pub fn naive() -> Self {
        KernelConfig {
            adaptive_sampling: false,
            shared_cache_enabled: false,
            ..KernelConfig::default()
        }
    }

    /// Builder-style setter for the summary half-window.
    pub fn with_summary_half_window(mut self, k: u64) -> Self {
        self.summary_half_window = k;
        self
    }

    /// Builder-style setter for the touch sampling rate.
    pub fn with_touch_sample_rate(mut self, hz: f64) -> Self {
        self.touch_sample_rate_hz = hz;
        self
    }

    /// Builder-style setter for the number of sample levels.
    pub fn with_sample_levels(mut self, levels: u8) -> Self {
        self.sample_levels = levels;
        self
    }

    /// Builder-style toggles for the adaptive features.
    pub fn with_adaptive_sampling(mut self, on: bool) -> Self {
        self.adaptive_sampling = on;
        self
    }

    /// Builder-style toggle for the shared cross-session result cache.
    pub fn with_shared_cache(mut self, on: bool) -> Self {
        self.shared_cache_enabled = on;
        self
    }

    /// Builder-style setter for the persistent store's buffer-pool capacity
    /// (in pages).
    pub fn with_buffer_pool_pages(mut self, pages: usize) -> Self {
        self.buffer_pool_pages = pages;
        self
    }

    /// Builder-style setter for the device/cloud split (`None` disables
    /// remote processing).
    pub fn with_remote_split(mut self, split: Option<RemoteSplitConfig>) -> Self {
        self.remote_split = split;
        self
    }

    /// Builder-style toggle for live telemetry recording.
    pub fn with_telemetry(mut self, on: bool) -> Self {
        self.telemetry_enabled = on;
        self
    }

    /// Builder-style setter for the scan fan-out degree (1 = single-threaded).
    pub fn with_scan_parallelism(mut self, workers: usize) -> Self {
        self.scan_parallelism = workers;
        self
    }

    /// Builder-style setter for the scan segment size in rows.
    pub fn with_segment_rows(mut self, rows: u64) -> Self {
        self.segment_rows = rows;
        self
    }

    /// Builder-style toggle for page-span compression at persist time.
    pub fn with_encoding(mut self, on: bool) -> Self {
        self.encoding_enabled = on;
        self
    }

    /// Builder-style toggle for hierarchical span tracing.
    pub fn with_tracing(mut self, on: bool) -> Self {
        self.tracing_enabled = on;
        self
    }

    /// Builder-style setter for the tail-sampling latency threshold (µs).
    pub fn with_trace_tail_threshold_micros(mut self, micros: u64) -> Self {
        self.trace_tail_threshold_micros = micros;
        self
    }

    /// Builder-style setter for the head-sampled baseline stride (0 = off).
    pub fn with_trace_head_sample_every(mut self, every: u64) -> Self {
        self.trace_head_sample_every = every;
        self
    }

    /// Builder-style setter for the retained span-tree ring capacity.
    pub fn with_trace_retained_capacity(mut self, trees: usize) -> Self {
        self.trace_retained_capacity = trees;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(KernelConfig::default().validate().is_ok());
        assert!(KernelConfig::figure4().validate().is_ok());
        assert!(KernelConfig::naive().validate().is_ok());
    }

    #[test]
    fn invalid_sample_rate_rejected() {
        let c = KernelConfig {
            touch_sample_rate_hz: 0.0,
            ..KernelConfig::default()
        };
        assert!(c.validate().is_err());
        let c = KernelConfig {
            touch_sample_rate_hz: f64::NAN,
            ..KernelConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn invalid_sample_levels_rejected() {
        let c = KernelConfig::default().with_sample_levels(0);
        assert!(c.validate().is_err());
    }

    #[test]
    fn invalid_budget_rejected() {
        let c = KernelConfig {
            touch_budget_micros: 0,
            ..KernelConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn naive_disables_adaptivity() {
        let c = KernelConfig::naive();
        assert!(!c.adaptive_sampling);
        assert!(!c.shared_cache_enabled);
    }

    #[test]
    fn builders_chain() {
        let c = KernelConfig::default()
            .with_summary_half_window(9)
            .with_touch_sample_rate(120.0)
            .with_adaptive_sampling(false)
            .with_shared_cache(false);
        assert_eq!(c.summary_half_window, 9);
        assert_eq!(c.touch_sample_rate_hz, 120.0);
        assert!(!c.adaptive_sampling && !c.shared_cache_enabled);
    }

    #[test]
    fn remote_split_validation() {
        // Default split is valid once attached.
        let c = KernelConfig::default().with_remote_split(Some(RemoteSplitConfig::default()));
        assert!(c.validate().is_ok());
        // Level 0 local means nothing is remote: rejected as a misconfiguration.
        let c = KernelConfig::default()
            .with_remote_split(Some(RemoteSplitConfig::default().with_local_min_level(0)));
        assert!(c.validate().is_err());
        // The executor needs an I/O pool and a bounded queue.
        let no_pool = RemoteSplitConfig {
            io_threads: 0,
            ..RemoteSplitConfig::default()
        };
        assert!(KernelConfig::default()
            .with_remote_split(Some(no_pool))
            .validate()
            .is_err());
        let unbounded = RemoteSplitConfig {
            queue_depth: 0,
            ..RemoteSplitConfig::default()
        };
        assert!(KernelConfig::default()
            .with_remote_split(Some(unbounded))
            .validate()
            .is_err());
        // A zero-bandwidth link is a valid latency-only model.
        assert!(KernelConfig::default()
            .with_remote_split(Some(RemoteSplitConfig::default().with_network(1_000, 0)))
            .validate()
            .is_ok());
    }

    #[test]
    fn telemetry_knobs_validate_and_chain() {
        let c = KernelConfig::default();
        assert!(c.telemetry_enabled);
        let c = c.with_telemetry(false);
        assert!(!c.telemetry_enabled);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn tracing_knobs_validate_and_chain() {
        let c = KernelConfig::default();
        assert!(c.tracing_enabled);
        assert_eq!(c.trace_tail_threshold_micros, 10_000);
        assert_eq!(c.trace_head_sample_every, 64);
        assert!(KernelConfig::default()
            .with_trace_retained_capacity(0)
            .validate()
            .is_err());
        // A zero cap is fine while tracing is off.
        assert!(KernelConfig::default()
            .with_trace_retained_capacity(0)
            .with_tracing(false)
            .validate()
            .is_ok());
        let c = KernelConfig::default()
            .with_trace_tail_threshold_micros(500)
            .with_trace_head_sample_every(0)
            .with_trace_retained_capacity(8);
        assert!(c.validate().is_ok());
        assert_eq!(c.trace_tail_threshold_micros, 500);
        assert_eq!(c.trace_head_sample_every, 0);
        assert_eq!(c.trace_retained_capacity, 8);
    }

    #[test]
    fn scan_knobs_validate_and_chain() {
        let c = KernelConfig::default();
        assert_eq!(c.scan_parallelism, 1);
        assert_eq!(c.segment_rows, 65_536);
        assert!(KernelConfig::default()
            .with_scan_parallelism(0)
            .validate()
            .is_err());
        assert!(KernelConfig::default()
            .with_segment_rows(0)
            .validate()
            .is_err());
        let c = KernelConfig::default()
            .with_scan_parallelism(8)
            .with_segment_rows(4096);
        assert!(c.validate().is_ok());
        assert_eq!(c.scan_parallelism, 8);
        assert_eq!(c.segment_rows, 4096);
    }

    #[test]
    fn encoding_knobs_validate_and_chain() {
        assert!(KernelConfig::default().encoding_enabled);
        let c = KernelConfig::default().with_encoding(false);
        assert!(c.validate().is_ok());
        assert!(!c.encoding_enabled);
    }

    #[test]
    fn figure4_uses_ten_entry_summaries() {
        // half-window 5 -> 11 rows max per summary, ~10 as in the paper's setup
        assert_eq!(KernelConfig::figure4().summary_half_window, 5);
    }
}
