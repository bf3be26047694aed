//! One workload, measured: the untraced run gives the end-to-end metrics,
//! the traced run gives the per-layer metrics and the budget stack.
//! End-to-end numbers never come from the traced run.

use crate::drive::{drive, kernel_loop, warm_up, ThreadOutcome};
use crate::probes::{core_probes, net_probes, storage_probes};
use crate::spans::{durations, total_self_time};
use crate::spec::{Kind, MetricSpec, Profile, WorkloadSpec, END_TO_END, PER_LAYER};
use crate::stats::{
    highest_supported_percentile, median, p50_us, percentile, percentile_with_failures, sorted,
};
use crate::workloads::{out_dir, Env};
use dbtouch_net::{NetServer, TcpClient};
use dbtouch_obs::SpanTree;
use dbtouch_server::{ExplorationServer, ServerMetricsSnapshot};
use dbtouch_types::{DbTouchError, Result};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// What one run of one workload produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Metric name → value, for every metric of the run's kind.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Lines for a person: sample counts, the budget stack, failures.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The specs this outcome reports, in declaration order.
    pub fn specs(traced: bool) -> &'static [MetricSpec] {
        if traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }
}

/// A served workload: catalog, TCP server, expected digests.
struct Served {
    env: Env,
    server: NetServer,
    expected: Vec<u64>,
    setup_s: f64,
}

/// Data generation, persist, reopen, server start, warm-up session: what
/// `setup_s` times. The expected digests are the harness's own check and are
/// computed between server start and warm-up, outside the clock. The replay
/// runs every plan once over the served catalog, so it also leaves the
/// catalog's caches and buffer pool as warm as a long-running server's.
fn set_up(
    spec: &'static WorkloadSpec,
    seed: u64,
    profile: &Profile,
    traced: bool,
) -> Result<Served> {
    let started = Instant::now();
    let env = Env::build(spec, seed, profile, traced)?;
    let server = env.serve_tcp()?;
    let built = started.elapsed();
    let expected = env.expected_digests()?;
    let started = Instant::now();
    let warm = warm_up(
        &TcpClient::new(server.local_addr().to_string()),
        &env,
        &expected,
    );
    let setup_s = (built + started.elapsed()).as_secs_f64();
    if warm.failed > 0 {
        server.shutdown();
        return Err(DbTouchError::Internal(format!(
            "warm-up failed: {}",
            warm.failures.join("; ")
        )));
    }
    Ok(Served {
        env,
        server,
        expected,
        setup_s,
    })
}

/// `VmHWM` of this process in MiB: the peak resident set so far.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Counter growth between two scrapes.
fn delta(before: &ServerMetricsSnapshot, after: &ServerMetricsSnapshot, key: &str) -> f64 {
    let at = |scrape: &ServerMetricsSnapshot| scrape.scalar(key).unwrap_or(0);
    at(after).saturating_sub(at(before)) as f64
}

fn gesture_us(outcome: &ThreadOutcome) -> Vec<f64> {
    sorted(outcome.gesture_ns.iter().map(|&n| n as f64 / 1e3).collect())
}

fn failure_notes(outcome: &ThreadOutcome, notes: &mut Vec<String>) {
    for failure in &outcome.failures {
        notes.push(format!("FAILED: {failure}"));
    }
}

/// The untraced run: every end-to-end metric of one workload.
pub fn run_untraced(spec: &'static WorkloadSpec, seed: u64, profile: &Profile) -> Result<Outcome> {
    // Set up several times and report the median, so one slow fsync does not
    // decide `setup_s`; the last set-up is the one measured against.
    let mut setups = Vec::with_capacity(profile.setups);
    let mut served = set_up(spec, seed, profile, false)?;
    setups.push(served.setup_s);
    while setups.len() < profile.setups {
        served.server.shutdown();
        drop(served.env);
        served = set_up(spec, seed, profile, false)?;
        setups.push(served.setup_s);
    }
    let Served {
        env,
        server,
        expected,
        ..
    } = served;

    let client = TcpClient::new(server.local_addr().to_string());
    let before = server.metrics_snapshot();
    let run = drive(
        &client,
        &env,
        &expected,
        Duration::from_secs_f64(profile.seconds),
        None,
    );
    let after = server.metrics_snapshot();
    server.shutdown();

    let gestures = gesture_us(&run);
    let wire_bytes =
        delta(&before, &after, "net.bytes_in") + delta(&before, &after, "net.bytes_out");
    let shed = delta(&before, &after, "net.shed");
    let mut metrics = BTreeMap::new();
    metrics.insert("setup_s", median(&setups));
    metrics.insert(
        "gesture_p50_us",
        percentile_with_failures(&gestures, run.failed, 50.0),
    );
    metrics.insert("touches_per_s", run.touch_rate);
    metrics.insert("session_open_p50_us", p50_us(&run.open_ns));
    metrics.insert(
        "wire_bytes_per_touch",
        wire_bytes / run.touches.max(1) as f64,
    );
    metrics.insert("peak_rss_mb", peak_rss_mib());

    let mut notes = vec![format!(
        "{}: {} gestures in {} sessions over {} connection(s), {} touches, {} shed",
        spec.name,
        gestures.len(),
        run.open_ns.len(),
        spec.connections,
        run.touches,
        shed,
    )];
    notes.push(format!(
        "gesture us: p50 {:.1}  p90 {:.1}  p95 {:.1}  p99 {:.1}",
        percentile(&gestures, 50.0),
        percentile(&gestures, 90.0),
        percentile(&gestures, 95.0),
        percentile(&gestures, 99.0)
    ));
    if let Some(q) = highest_supported_percentile(gestures.len()) {
        notes.push(format!(
            "highest percentile with 10 samples beyond it: p{q} = {:.1} us (n = {})",
            percentile(&gestures, q),
            gestures.len()
        ));
    }
    failure_notes(&run, &mut notes);
    Ok(Outcome {
        attempted: run.attempted,
        failed: run.failed,
        metrics,
        notes,
    })
}

/// Median microseconds of the closed spans called `name`.
fn span_p50_us(trees: &[SpanTree], name: &str) -> f64 {
    p50_us(&durations(trees, name))
}

fn write_trace_file(name: &str, trees: &[SpanTree]) -> Result<String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)
        .map_err(|e| DbTouchError::Io(format!("create {}: {e}", dir.display())))?;
    let path = dir.join(name);
    std::fs::write(&path, dbtouch_obs::chrome_trace_text(trees))
        .map_err(|e| DbTouchError::Io(format!("write {}: {e}", path.display())))?;
    Ok(path.display().to_string())
}

/// The traced run: every per-layer metric of one workload, the two span
/// files, and the median gesture as a stack.
pub fn run_traced(spec: &'static WorkloadSpec, seed: u64, profile: &Profile) -> Result<Outcome> {
    let phase = |share: f64| Duration::from_secs_f64(profile.seconds * share);
    let div = profile.probe_divisor;
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut notes = Vec::new();

    // Phase 1 — shipped configuration, harness spans off: the reference the
    // tracing overhead is measured against, and the scrape admission takes.
    let reference = set_up(spec, seed, profile, false)?;
    let client = TcpClient::new(reference.server.local_addr().to_string());
    let mut untraced = drive(
        &client,
        &reference.env,
        &reference.expected,
        phase(0.2),
        None,
    );
    let scrape = reference.server.metrics_snapshot();
    let snapshot_ns = {
        let calls = (2_000 / div).max(1);
        let started = Instant::now();
        for _ in 0..calls {
            std::hint::black_box(reference.server.metrics_snapshot());
        }
        started.elapsed().as_nanos() as f64 / calls as f64
    };
    let sample_report = untraced.sample_report.take().ok_or_else(|| {
        DbTouchError::Internal("no session completed in the untraced phase".into())
    })?;
    m.extend(net_probes(&reference.env, &sample_report, &scrape, div)?);
    m.insert("server.metrics_snapshot_us", snapshot_ns / 1e3);
    reference.server.shutdown();
    drop(reference.env);
    let untraced_p50 = percentile(&gesture_us(&untraced), 50.0);

    // Phase 2 — every trace head-sampled by the server, harness spans on.
    let Served {
        env,
        server,
        expected,
        ..
    } = set_up(spec, seed, profile, true)?;
    let client = TcpClient::new(server.local_addr().to_string());
    let before = server.metrics_snapshot();
    let origin = Instant::now();
    let traced = drive(&client, &env, &expected, phase(0.4), Some(origin));
    let after = server.metrics_snapshot();
    server.shutdown();

    let gestures = gesture_us(&traced);
    let traced_p50 = percentile(&gestures, 50.0);
    let touches = traced.touches.max(1) as f64;
    let client_p50 = |name: &str| span_p50_us(&traced.trees, name);
    m.extend([
        ("net.client.gesture_us_p50", traced_p50),
        (
            "net.client.gesture_p99_us",
            percentile_with_failures(&gestures, traced.failed, 99.0),
        ),
        ("net.client.run_trace_us_p50", client_p50("run_trace")),
        ("net.client.snapshot_us_p50", client_p50("snapshot")),
        ("net.client.open_us_p50", client_p50("open")),
        ("net.client.close_us_p50", client_p50("close")),
        (
            "net.frame_p50_us",
            after
                .histogram("net.frame_nanos")
                .map_or(0.0, |h| h.quantile(50.0) as f64 / 1e3),
        ),
        ("net.shed", delta(&before, &after, "net.shed")),
        (
            "net.frame_errors",
            delta(&before, &after, "net.frame_errors"),
        ),
    ]);
    let server_trees = after.traces();
    for (metric, span) in [
        ("server.span.decode_us_p50", "decode"),
        ("server.span.admission_us_p50", "admission"),
        ("server.span.queue_wait_us_p50", "queue_wait"),
        ("server.span.service_us_p50", "service"),
        ("server.span.segments_us_p50", "segments"),
    ] {
        m.insert(metric, span_p50_us(server_trees, span));
    }

    let faults = delta(&before, &after, "pager.faults");
    let pool_hits = delta(&before, &after, "pager.pool_hits");
    let cache_lookups = (traced.cache_hits + traced.cache_misses) as f64;
    let column = env.catalog.data(env.object)?;
    let base = column.hierarchies()[0].base();
    m.extend([
        (
            "core.catalog.restructure_us_p50",
            p50_us(&traced.restructure_ns),
        ),
        (
            "catalog.epochs_published",
            delta(&before, &after, "catalog.epoch"),
        ),
        (
            "morsel.segments_per_touch",
            traced.segments as f64 / touches,
        ),
        (
            "morsel.pruned_share",
            traced.pruned_segments as f64 / traced.segments.max(1) as f64,
        ),
        ("morsel.steals", delta(&before, &after, "morsel.steals")),
        (
            "encoding.run_skips_per_touch",
            delta(&before, &after, "encoding.run_skips") / touches,
        ),
        (
            "server.rows_touched_per_touch",
            traced.rows_touched as f64 / touches,
        ),
        ("pager.faults_per_touch", faults / touches),
        (
            "pager.pool_hit_rate",
            if faults + pool_hits > 0.0 {
                pool_hits / (faults + pool_hits)
            } else {
                0.0
            },
        ),
        ("pager.evictions", delta(&before, &after, "pager.evictions")),
        (
            "pager.stored_bytes_per_row",
            base.byte_size() as f64 / base.len().max(1) as f64,
        ),
        (
            "shared_cache.hit_rate",
            if cache_lookups > 0.0 {
                traced.cache_hits as f64 / cache_lookups
            } else {
                0.0
            },
        ),
    ]);
    // Client-thread time not blocked in a call: the self time of the
    // session and gesture spans (bookkeeping between calls) plus the digest
    // check, over the threads' wall time. Above 0.2 the generator, not the
    // system, is the bottleneck.
    let busy_ns = total_self_time(&traced.trees, "session")
        + total_self_time(&traced.trees, "gesture")
        + total_self_time(&traced.trees, "verify");
    m.extend([
        (
            "loadgen.busy_share",
            busy_ns as f64 / traced.wall_ns.max(1) as f64,
        ),
        ("trace.overhead_share", traced_p50 / untraced_p50 - 1.0),
    ]);
    notes.push(format!(
        "harness spans: {}",
        write_trace_file(&format!("trace_{}.json", spec.name), &traced.trees)?
    ));
    notes.push(format!(
        "server spans:  {}",
        write_trace_file(&format!("server_trace_{}.json", spec.name), server_trees)?
    ));

    // Phase 3 — the same plans through in-process session handles, no
    // socket. Phase 4 — the same traces through a bare kernel, no server.
    let inproc_server = ExplorationServer::serve(env.server_config())?;
    let inproc = drive(&inproc_server, &env, &expected, phase(0.2), None);
    inproc_server.shutdown();
    let inproc_p50 = percentile(&gesture_us(&inproc), 50.0);
    let kernel_p50 = p50_us(&kernel_loop(&env, phase(0.2))?);
    m.extend([
        ("server.inproc_gesture_us_p50", inproc_p50),
        ("core.kernel_gesture_us_p50", kernel_p50),
    ]);

    // Probes of the layers under the wire.
    m.extend(core_probes(&env, seed, div)?);
    let probe_dir = out_dir().join(format!("tmp-{}-probes-{}", std::process::id(), spec.name));
    let storage = storage_probes(&probe_dir, seed, div);
    let _ = std::fs::remove_dir_all(&probe_dir);
    m.extend(storage?);

    // The median gesture as a stack. Kernel time is split by probe cost ×
    // scrape count per gesture; what the split leaves over is unexplained.
    let per_gesture = env.touches_per_gesture();
    let rows_s = match spec.kind {
        Kind::ColdRawSweep => m["storage.kernel.raw_i64_rows_s"],
        Kind::BandedSweep if env.encoded_pages.0 >= env.encoded_pages.1 => {
            m["storage.kernel.rle_i64_rows_s"]
        }
        Kind::BandedSweep => m["storage.kernel.dict_i64_rows_s"],
        Kind::HotDashboard | Kind::MixedRestructure => m["storage.kernel.raw_f64_rows_s"],
    };
    // A cache hit charges its window's rows without scanning them.
    let scanned_rows = m["server.rows_touched_per_touch"] * (1.0 - m["shared_cache.hit_rate"]);
    let dispatch = if spec.scan_parallelism > 1 {
        m["core.morsel.dispatch_ns_per_segment"].max(0.0)
    } else {
        0.0
    };
    let kernel_slices = [
        (
            "scan kernel (rows scanned / probe rows per s)",
            scanned_rows * per_gesture / rows_s * 1e6,
        ),
        (
            "morsel dispatch (segments x dispatch_ns_per_segment)",
            m["morsel.segments_per_touch"] * per_gesture * dispatch / 1e3,
        ),
        (
            "page faults (faults x fault_ns)",
            m["pager.faults_per_touch"] * per_gesture * m["storage.pager.fault_ns"] / 1e3,
        ),
        (
            "pool hits (hits x hit_ns)",
            pool_hits / touches * per_gesture * m["storage.pager.hit_ns"] / 1e3,
        ),
        (
            "shared cache (lookups x get_hit_ns + inserts x insert_ns)",
            (cache_lookups * m["storage.shared_cache.get_hit_ns"]
                + traced.cache_inserts as f64 * m["storage.shared_cache.insert_ns"])
                / touches
                * per_gesture
                / 1e3,
        ),
    ];
    let explained: f64 = kernel_slices.iter().map(|(_, us)| us).sum();
    // The three medians come from three phases; a noisy phase can invert a
    // difference, and the stack then shows the negative slice as it is.
    let unexplained = kernel_p50 - explained;
    let net = traced_p50 - inproc_p50;
    let handoff = inproc_p50 - kernel_p50;
    m.extend([
        ("budget.net_share", net / traced_p50),
        ("budget.handoff_share", handoff / traced_p50),
        ("budget.kernel_share", kernel_p50 / traced_p50),
        ("budget.unexplained_share", unexplained / traced_p50),
    ]);
    notes.push(format!(
        "budget of the median gesture on {} (traced p50 {traced_p50:.1} us, untraced {untraced_p50:.1} us, n = {}):",
        spec.name,
        gestures.len()
    ));
    let mut line = |what: &str, us: f64| {
        notes.push(format!(
            "  {us:>10.1} us  {:>6.1}%  {what}",
            us / traced_p50 * 100.0
        ));
    };
    line("net: wire, codec, admission (gesture - in-process)", net);
    line(
        "server hand-off: queue, worker (in-process - kernel)",
        handoff,
    );
    for (what, us) in kernel_slices {
        line(what, us);
    }
    line("kernel time the probes do not explain", unexplained);
    line("sum", net + handoff + explained + unexplained);
    failure_notes(&traced, &mut notes);
    failure_notes(&inproc, &mut notes);

    Ok(Outcome {
        attempted: untraced.attempted + traced.attempted + inproc.attempted,
        failed: untraced.failed + traced.failed + inproc.failed,
        metrics: m,
        notes,
    })
}
