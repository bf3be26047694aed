//! The benchmark's fixed vocabulary: workloads, metrics, bounds, pinned
//! thread counts. `BENCHMARK.json` at the repo root restates the names,
//! units, directions and bounds; a test keeps the two in step.

/// Gestures per session. `SessionReport.outcomes` grows with every trace, so
/// a snapshot costs more the older the session is; fixing the session length
/// fixes that cost.
pub const GESTURES_PER_SESSION: usize = 8;

/// Distinct seeded session plans each workload cycles through. Sessions are
/// time-boxed, not counted, so the pool repeats; every plan has its own
/// expected digest. Slide durations are drawn from the seed, so a small pool
/// makes touches per gesture — and with it every per-touch ratio — depend
/// on the seed; 32 plans (256 traces) average that out.
pub const PLAN_POOL: usize = 32;

/// Page size of every store the benchmark creates (the shipped default).
pub const PAGE_SIZE: usize = 8192;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS_PER_RUN: usize = 3;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric. `bound` is the share of the baseline median an end-to-end
/// metric may worsen by before `compare` says `worse`; per-layer metrics
/// carry no bound (0).
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// End-to-end metrics, reported for every workload with tracing off.
/// `failed_share` of the issue is the `failed`/`attempted` pair of the result
/// line instead: an end-to-end metric may never be 0, and this one always is.
///
/// The time-based bounds are the widest the driver allows. On the 2-vCPU
/// reference VM the host's own speed moves by several percent between runs
/// and by up to 2x during noisy episodes; the same commit's medians spread by
/// 5-16% of their value (see README). `gesture_p99_us` spread by up to 37% on
/// `hot_dashboard` and is therefore the per-layer `net.client.gesture_p99_us`.
pub const END_TO_END: [MetricSpec; 6] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("gesture_p50_us", "us", Better::Lower, 0.25),
    e2e("touches_per_s", "1/s", Better::Higher, 0.25),
    e2e("session_open_p50_us", "us", Better::Lower, 0.25),
    e2e("wire_bytes_per_touch", "B", Better::Lower, 0.10),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.10),
];

use Better::{Higher, Lower};

/// Per-layer metrics, reported for every workload by the traced run.
/// Prefix = crate.module; source (a) harness spans, (b) probes, (c) scrape.
pub const PER_LAYER: [MetricSpec; 56] = [
    // net — client calls (a)
    layer("net.client.run_trace_us_p50", "us", Lower),
    layer("net.client.snapshot_us_p50", "us", Lower),
    layer("net.client.open_us_p50", "us", Lower),
    layer("net.client.close_us_p50", "us", Lower),
    // net — probes (b)
    layer("net.codec.encode_run_trace_ns", "ns", Lower),
    layer("net.codec.decode_run_trace_ns", "ns", Lower),
    layer("net.codec.encode_report_ns", "ns", Lower),
    layer("net.codec.decode_report_ns", "ns", Lower),
    layer("net.codec.report_bytes", "B", Lower),
    layer("net.frame.checksum_mb_s", "MB/s", Higher),
    layer("net.frame.roundtrip_ns", "ns", Lower),
    layer("net.admission.admit_trace_ns", "ns", Lower),
    layer("server.metrics_snapshot_us", "us", Lower),
    // net — scrape (c)
    layer("net.frame_p50_us", "us", Lower),
    layer("net.shed", "count", Lower),
    layer("net.frame_errors", "count", Lower),
    // server
    layer("server.inproc_gesture_us_p50", "us", Lower),
    layer("server.span.decode_us_p50", "us", Lower),
    layer("server.span.admission_us_p50", "us", Lower),
    layer("server.span.queue_wait_us_p50", "us", Lower),
    layer("server.span.service_us_p50", "us", Lower),
    layer("server.span.segments_us_p50", "us", Lower),
    // core
    layer("core.kernel_gesture_us_p50", "us", Lower),
    layer("core.epoch.load_ns", "ns", Lower),
    layer("core.catalog.checkout_ns", "ns", Lower),
    layer("core.catalog.restructure_us_p50", "us", Lower),
    layer("catalog.epochs_published", "count", Lower),
    layer("core.morsel.dispatch_ns_per_segment", "ns", Lower),
    layer("morsel.segments_per_touch", "1/touch", Lower),
    layer("morsel.pruned_share", "share", Higher),
    layer("morsel.steals", "count", Higher),
    // storage kernels
    layer("storage.kernel.raw_i64_rows_s", "rows/s", Higher),
    layer("storage.kernel.rle_i64_rows_s", "rows/s", Higher),
    layer("storage.kernel.dict_i64_rows_s", "rows/s", Higher),
    layer("storage.kernel.raw_f64_rows_s", "rows/s", Higher),
    layer("storage.kernel.zonemap_aligned_ns", "ns", Lower),
    layer("encoding.run_skips_per_touch", "1/touch", Higher),
    layer("server.rows_touched_per_touch", "1/touch", Lower),
    // storage pager / caches
    layer("storage.pager.hit_ns", "ns", Lower),
    layer("storage.pager.fault_ns", "ns", Lower),
    layer("pager.faults_per_touch", "1/touch", Lower),
    layer("pager.pool_hit_rate", "share", Higher),
    layer("pager.evictions", "count", Lower),
    layer("pager.stored_bytes_per_row", "B/row", Lower),
    layer("storage.shared_cache.get_hit_ns", "ns", Lower),
    layer("storage.shared_cache.insert_ns", "ns", Lower),
    layer("shared_cache.hit_rate", "share", Higher),
    layer("storage.persist.commit_us_p50", "us", Lower),
    // harness: the traced median gesture and its stack
    layer("net.client.gesture_us_p50", "us", Lower),
    layer("net.client.gesture_p99_us", "us", Lower),
    layer("budget.net_share", "share", Lower),
    layer("budget.handoff_share", "share", Lower),
    layer("budget.kernel_share", "share", Lower),
    layer("budget.unexplained_share", "share", Lower),
    layer("loadgen.busy_share", "share", Lower),
    layer("trace.overhead_share", "share", Lower),
];

/// What a workload's data and plans look like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    HotDashboard,
    BandedSweep,
    ColdRawSweep,
    MixedRestructure,
}

/// One workload. Thread counts are pinned here and never read from the
/// machine: the reference box has 2 cores, so at most 2 client threads.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    /// Client threads = TCP connections open at any one time.
    pub connections: usize,
    /// `ServerConfig::worker_threads`.
    pub workers: usize,
    /// `KernelConfig::scan_parallelism`.
    pub scan_parallelism: usize,
    /// Rows of the explored column at full scale.
    pub rows: usize,
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "hot_dashboard",
        why: "2 conns on one cached 1M-row f64 column: nearly every touch is a cache hit, so the gesture is wire, codec, admission scrape and queue hand-off; storage work must show nothing",
        kind: Kind::HotDashboard,
        connections: 2,
        workers: 2,
        scan_parallelism: 1,
        rows: 1_000_000,
    },
    WorkloadSpec {
        name: "banded_sweep",
        why: "1 conn sweeping a reopened 4M-row RLE/Dict column that fits the pool, caches off: time goes to encoded kernels, segment planning and morsel dispatch, with zero faults",
        kind: Kind::BandedSweep,
        connections: 1,
        workers: 1,
        scan_parallelism: 2,
        rows: 4_000_000,
    },
    WorkloadSpec {
        name: "cold_raw_sweep",
        why: "same sweep over incompressible i64 pages with a pool of 10% of the extent: every slide faults, checksums and evicts pages, so the pager and the raw kernel dominate",
        kind: Kind::ColdRawSweep,
        connections: 1,
        workers: 1,
        scan_parallelism: 2,
        rows: 4_000_000,
    },
    WorkloadSpec {
        name: "mixed_restructure",
        why: "2 conns rotating Summary/Scan/Aggregate/FilteredScan on an attached catalog while conn 0 drags a churn column out and back each session: epoch publishes and manifest commits beside reads",
        kind: Kind::MixedRestructure,
        connections: 2,
        workers: 2,
        scan_parallelism: 1,
        rows: 1_000_000,
    },
];

/// Summary half-window of `cold_raw_sweep`, in rows: narrow enough that a
/// gesture of ~80 touches faulting ~2 pages each stays near 2.5 ms.
pub const COLD_HALF_WINDOW: u64 = 1_000;

/// Rows of the `mixed_restructure` churn table (9 columns, the
/// `workload::churn` shape). The issue asked for 100k rows; one drag-out /
/// drag-in pair then rewrites 29 MB and takes ~170 ms, which would make the
/// workload 99% restructure and grow the page file by gigabytes per run.
pub const CHURN_ROWS: usize = 1_024;

/// The gesture of a session after which connection 0 restructures.
pub const RESTRUCTURE_AFTER_GESTURE: usize = 3;

/// A client thinks for a seeded time in `[0, THINK_MICROS)` before it opens
/// its next session. The acceptor polls every 20 ms; without the pause a
/// closed loop's connects arrive at a fixed phase of that poll (session
/// length mod 20 ms), and `session_open_p50_us` jumps between 8 and 18 ms
/// with the gesture cost. One poll period of jitter makes the arrival phase
/// uniform. Think time is outside every measured interval.
pub const THINK_MICROS: u64 = 20_000;

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How much of the full-scale benchmark to run.
#[derive(Debug, Clone, Copy)]
pub struct Profile {
    /// Rows are divided by this.
    pub row_divisor: usize,
    /// Seconds of the timed phase.
    pub seconds: f64,
    /// Set-ups whose median is `setup_s`.
    pub setups: usize,
    /// Iteration divisor for the fixed-iteration probes.
    pub probe_divisor: u64,
    /// Session plans in the pool.
    pub plan_pool: usize,
}

impl Profile {
    pub fn full(seconds: f64) -> Profile {
        Profile {
            row_divisor: 1,
            seconds,
            setups: SETUPS_PER_RUN,
            probe_divisor: 1,
            plan_pool: PLAN_POOL,
        }
    }

    /// About 1% of the work: all four workloads, traced and untraced, in a
    /// few seconds. Used by the tests and `--quick`.
    pub fn quick() -> Profile {
        Profile {
            row_divisor: 16,
            seconds: 0.12,
            setups: 1,
            probe_divisor: 50,
            plan_pool: 8,
        }
    }
}
