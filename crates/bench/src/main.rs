//! `dbtouch-bench <subcommand> [positional arguments]` — the paper's
//! experiments and the verdicts `touch_budget` cannot state, one binary.
//!
//! ```text
//! cargo run --release -p dbtouch-bench -- --list
//! cargo run --release -p dbtouch-bench -- fig4a 10000000 15
//! ```
//!
//! Every subcommand prints its tables, then one last stdout line
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}` (the shape
//! `touch_budget` prints) and exits non-zero iff `correct` is false. An
//! argument that is present but does not parse is an error, not a default.

use dbtouch_bench::ablations;
use dbtouch_bench::contest::{render_contest, run_contest, ContestScenario};
use dbtouch_bench::figures::{render_report, run_figure4a, run_figure4b};
use dbtouch_bench::figures::{Figure4Report, FigureConfig};
use dbtouch_bench::overhead::{run_overhead, Switch};
use dbtouch_bench::remote_overlap::run_remote_overlap_sweep;
use dbtouch_bench::report::{fmt_count, fmt_f64, render_table, Verdict};
use dbtouch_bench::sweeps::{render_sweep, sweep_summary_window, sweep_touch_rate};
use dbtouch_server::ServerConfig;
use dbtouch_types::KernelConfig;
use dbtouch_workload::persistence::{build_and_persist, replay_persisted, RoundTripSpec};
use std::process::ExitCode;
use std::str::FromStr;

mod wire;

type Outcome = Result<Verdict, Box<dyn std::error::Error>>;
type Run = fn(&mut Args) -> Outcome;

/// Name, positional arguments, implementation. `--list` prints the names.
const SUBCOMMANDS: &[(&str, &str, Run)] = &[
    ("fig4a", "[rows] [touch_rate_hz]", fig4a),
    ("fig4b", "[rows] [doublings]", fig4b),
    ("contest", "[rows] [seed]", contest),
    ("ablations", "[rows]", ablation_tables),
    ("sweeps", "[rows]", sweeps),
    (
        "overhead",
        "telemetry|trace [max_overhead_pct] [rows] [sessions] [traces] [trials]",
        overhead,
    ),
    ("remote-overlap", "[rows] [traces] [max_sessions]", remote),
    (
        "persistence",
        "build <dir> [rows] [sessions] [traces] [seed] | replay <dir>",
        persistence,
    ),
    ("wire-two-process", "[rows] [sessions] [traces]", wire_check),
];

/// The positional arguments after the subcommand name.
struct Args(std::iter::Peekable<std::iter::Skip<std::env::Args>>);

impl Args {
    fn word(&mut self, name: &str) -> Result<String, String> {
        self.0.next().ok_or_else(|| format!("missing <{name}>"))
    }

    /// The next argument parsed as `T`, or `default` when there is none.
    fn or<T: FromStr>(&mut self, name: &str, default: T) -> Result<T, String> {
        match self.0.next() {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("[{name}] = {raw:?} does not parse")),
        }
    }
}

fn main() -> ExitCode {
    let mut args = Args(std::env::args().skip(1).peekable());
    let name = args.0.next().unwrap_or_default();
    if name == "--list" {
        for (name, _, _) in SUBCOMMANDS {
            println!("{name}");
        }
        return ExitCode::SUCCESS;
    }
    let Some((_, usage, run)) = SUBCOMMANDS.iter().find(|(n, _, _)| *n == name) else {
        eprintln!("usage: dbtouch-bench --list | <subcommand> [arguments]");
        for (name, usage, _) in SUBCOMMANDS {
            eprintln!("  {name} {usage}");
        }
        return ExitCode::from(2);
    };
    let verdict = run(&mut args).unwrap_or_else(|error| {
        eprintln!("{name} failed: {error}\nusage: dbtouch-bench {name} {usage}");
        Verdict {
            failed: 1,
            ..Verdict::default()
        }
    });
    println!("{}", verdict.line());
    if verdict.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Print a Figure 4 series; the verdict is the paper's shape — entries
/// returned grow from each point to the next.
fn figure_verdict(report: &Figure4Report, reference: &str) -> Verdict {
    println!("{}\n{reference}", render_report(report));
    let mut verdict = Verdict::default();
    for pair in report.points.windows(2) {
        verdict.check(pair[1].entries_returned > pair[0].entries_returned);
    }
    for point in &report.points {
        let name = format!("entries_returned[{}]", point.x);
        verdict.metric(name, point.entries_returned as f64, "entries");
    }
    verdict
}

/// Figure 4(a): slide-gesture duration vs. data entries returned. Defaults
/// match the paper (10^7 integers, 10 cm object, ~10 entries per summary); a
/// touch rate of 15 approximates the iPad 1's effective delivery rate.
fn fig4a(args: &mut Args) -> Outcome {
    let config = FigureConfig {
        rows: args.or("rows", 10_000_000)?,
        touch_rate_hz: args.or("touch_rate_hz", 60.0)?,
        ..FigureConfig::default()
    };
    Ok(figure_verdict(
        &run_figure4a(&config, &[])?,
        "paper reference (iPad 1): ~5 entries at 0.5s up to ~55 entries at 4s; the reproduction\n\
         target is the shape (roughly linear growth with gesture duration), not the absolute count.",
    ))
}

/// Figure 4(b): object size (doubled by zoom-in gestures) vs. data entries
/// returned at a constant slide speed.
fn fig4b(args: &mut Args) -> Outcome {
    let config = FigureConfig {
        rows: args.or("rows", 10_000_000)?,
        ..FigureConfig::default()
    };
    Ok(figure_verdict(
        &run_figure4b(&config, args.or("doublings", 4)?)?,
        "paper reference (iPad 1): entries roughly double each time the object size doubles\n\
         (same slide speed, therefore double the slide time); the reproduction target is that shape.",
    ))
}

/// Appendix A: a simulated dbTouch user and a simulated SQL user localize
/// the same hidden pattern, on all three scenarios. Verdict per scenario:
/// dbTouch found the pattern and touched less data than SQL did.
fn contest(args: &mut Args) -> Outcome {
    let rows: usize = args.or("rows", 2_000_000)?;
    let seed: u64 = args.or("seed", 42)?;
    let mut verdict = Verdict::default();
    for scenario in [
        ContestScenario::Contest,
        ContestScenario::SkySurvey,
        ContestScenario::Monitoring,
    ] {
        let report = run_contest(scenario, rows, seed, 0.01)?;
        println!("{}", render_contest(&report));
        verdict.check(report.dbtouch.found && report.data_touched_ratio() > 1.0);
        let name = format!("{}.sql_vs_dbtouch_rows_touched", scenario.name());
        verdict.metric(name, report.data_touched_ratio(), "x");
    }
    Ok(verdict)
}

/// Ablations A1–A6: each mechanism the paper argues for, switched on and
/// off. Verdict per ablation: the mechanism moved the quantity it exists to
/// move (counts only — the wall times are reported, never judged).
fn ablation_tables(args: &mut Args) -> Outcome {
    let rows: u64 = args.or("rows", 2_000_000)?;
    let mut verdict = Verdict::default();
    let ms = |nanos: u64| fmt_f64(nanos as f64 / 1e6, 2);

    let a1 = ablations::ablation_samples(rows)?;
    println!(
        "A1 sample-based storage ({} rows)\n{}",
        fmt_count(rows),
        render_table(
            &[
                "variant",
                "entries",
                "working set (bytes)",
                "wall time (ms)"
            ],
            &[
                vec![
                    "adaptive samples".into(),
                    a1.adaptive_entries.to_string(),
                    fmt_count(a1.adaptive_working_set_bytes),
                    ms(a1.adaptive_wall_nanos),
                ],
                vec![
                    "base data only".into(),
                    a1.naive_entries.to_string(),
                    fmt_count(a1.naive_working_set_bytes),
                    ms(a1.naive_wall_nanos),
                ],
            ],
        )
    );
    verdict.check(a1.adaptive_working_set_bytes < a1.naive_working_set_bytes);
    verdict.metric(
        "a1.naive_vs_adaptive_working_set",
        a1.naive_working_set_bytes as f64 / a1.adaptive_working_set_bytes.max(1) as f64,
        "x",
    );

    let a2 = ablations::ablation_prefetch(rows)?;
    println!(
        "A2 prefetching ({} pauses; {} distinct rows touched after the first)\n{}",
        a2.pauses,
        a2.touches_after_pause,
        render_table(
            &["variant", "planned ranges", "touched rows inside a plan"],
            &[
                vec![
                    "policy on".into(),
                    a2.planned_ranges.to_string(),
                    a2.planned_hits_with.to_string(),
                ],
                vec![
                    "policy off".into(),
                    "0".into(),
                    a2.planned_hits_without.to_string(),
                ],
            ],
        )
    );
    verdict.check(a2.planned_hits_with > 0 && a2.planned_hits_without == 0);
    verdict.metric(
        "a2.planned_hit_share",
        a2.planned_hits_with as f64 / a2.touches_after_pause.max(1) as f64,
        "share",
    );

    let a3 = ablations::ablation_cache(rows)?;
    println!(
        "A3 caching (second summary pass over a previously touched region)\n{}",
        render_table(
            &["variant", "second-pass shared-cache hit rate", "hits"],
            &[
                vec![
                    "cache on".into(),
                    fmt_f64(a3.second_pass_hit_rate_with, 3),
                    a3.second_pass_hits.to_string(),
                ],
                vec![
                    "cache off".into(),
                    fmt_f64(a3.second_pass_hit_rate_without, 3),
                    "0".into(),
                ],
            ],
        )
    );
    verdict.check(a3.second_pass_hit_rate_with > 0.5 && a3.second_pass_hit_rate_without == 0.0);
    verdict.metric(
        "a3.second_pass_hit_rate",
        a3.second_pass_hit_rate_with,
        "share",
    );

    let join_rows = rows.min(200_000);
    let a4 = ablations::ablation_join(join_rows)?;
    println!(
        "A4 non-blocking join ({} rows per side)\n{}",
        fmt_count(join_rows),
        render_table(
            &[
                "variant",
                "rows consumed before first match",
                "total matches",
                "wall time (ms)"
            ],
            &[
                vec![
                    "symmetric hash join".into(),
                    fmt_count(a4.symmetric_rows_to_first_match),
                    fmt_count(a4.total_matches),
                    ms(a4.symmetric_wall_nanos),
                ],
                vec![
                    "blocking hash join".into(),
                    fmt_count(a4.blocking_rows_to_first_match),
                    fmt_count(a4.total_matches),
                    ms(a4.blocking_wall_nanos),
                ],
            ],
        )
    );
    verdict.check(a4.symmetric_rows_to_first_match < a4.blocking_rows_to_first_match);
    verdict.metric(
        "a4.blocking_vs_symmetric_rows_to_first_match",
        a4.blocking_rows_to_first_match as f64 / a4.symmetric_rows_to_first_match.max(1) as f64,
        "x",
    );

    let rotation_rows = rows.min(1_000_000);
    let a5 = ablations::ablation_rotation(rotation_rows, 65_536)?;
    println!(
        "A5 incremental rotation ({} rows, chunk {})\n{}",
        fmt_count(rotation_rows),
        fmt_count(a5.chunk_rows),
        render_table(
            &["variant", "first queryable (ms)", "fully rotated (ms)"],
            &[
                vec![
                    "incremental".into(),
                    ms(a5.incremental_first_queryable_nanos),
                    ms(a5.incremental_total_nanos),
                ],
                vec![
                    "eager".into(),
                    ms(a5.eager_first_queryable_nanos),
                    ms(a5.eager_first_queryable_nanos),
                ],
            ],
        )
    );
    // `ablation_rotation` returns only if the half-rotated object answered a
    // read after its first chunk; how much sooner is a time, so a metric.
    verdict.check(true);
    verdict.metric(
        "a5.eager_vs_incremental_first_queryable",
        a5.eager_first_queryable_nanos as f64 / a5.incremental_first_queryable_nanos.max(1) as f64,
        "x",
    );

    let a6 = ablations::ablation_budget(rows, rows / 5, 500)?;
    println!(
        "A6 per-touch response budget (oversized summary windows, cap {} rows)\n{}",
        fmt_count(a6.cap_rows),
        render_table(
            &["variant", "rows read", "capped windows", "entries"],
            &[
                vec![
                    "budget 500µs".into(),
                    fmt_count(a6.rows_with),
                    a6.refinements_with.to_string(),
                    a6.entries_with.to_string(),
                ],
                vec![
                    "unlimited".into(),
                    fmt_count(a6.rows_without),
                    a6.refinements_without.to_string(),
                    a6.entries_without.to_string(),
                ],
            ],
        )
    );
    println!(
        "refined values identical to the unlimited run: {}",
        a6.identical
    );
    verdict.check(a6.holds());
    verdict.metric("a6.capped_windows", a6.refinements_with as f64, "windows");
    Ok(verdict)
}

/// The two parameters Figure 4 holds constant, swept. Verdict: rows touched
/// grow with the summary half-window, entries returned with the touch rate.
fn sweeps(args: &mut Args) -> Outcome {
    let rows: u64 = args.or("rows", 10_000_000)?;
    let mut verdict = Verdict::default();
    let by_window = sweep_summary_window(rows, &[])?;
    println!("{}", render_sweep(&by_window));
    for pair in by_window.points.windows(2) {
        verdict.check(pair[1].rows_touched > pair[0].rows_touched);
    }
    for point in &by_window.points {
        let name = format!("rows_touched[k={}]", point.parameter);
        verdict.metric(name, point.rows_touched as f64, "rows");
    }
    let by_rate = sweep_touch_rate(rows, &[])?;
    println!("{}", render_sweep(&by_rate));
    for pair in by_rate.points.windows(2) {
        verdict.check(pair[1].entries_returned > pair[0].entries_returned);
    }
    for point in &by_rate.points {
        let name = format!("entries_returned[hz={}]", point.parameter);
        verdict.metric(name, point.entries_returned as f64, "entries");
    }
    Ok(verdict)
}

/// Throughput with one observer on vs. off over the identical seeded
/// workload. Verdict: digests bit-identical, and the overhead under the
/// gate. The default gate is 2.5% — the 1% design budget plus the ~±2%
/// run-to-run noise floor best-of-N can't squeeze out of a shared machine; CI
/// passes a looser one.
fn overhead(args: &mut Args) -> Outcome {
    let observer = args.word("telemetry|trace")?;
    let switch = [Switch::Telemetry, Switch::Trace]
        .into_iter()
        .find(|switch| switch.label() == observer)
        .ok_or_else(|| format!("unknown observer {observer:?}"))?;
    let max_overhead_pct: f64 = args.or("max_overhead_pct", 2.5)?;
    let report = run_overhead(
        switch,
        args.or("rows", 100_000)?,
        args.or("sessions", 8)?,
        args.or("traces", 300)?,
        args.or("trials", 7)?,
    )?;
    print!("{}", report.table());
    let mut verdict = Verdict::default();
    verdict.check(report.digests_identical);
    verdict.check(report.overhead_percent() < max_overhead_pct);
    verdict.metric("touches_per_s_off", report.touches_per_sec_off, "1/s");
    verdict.metric("touches_per_s_on", report.touches_per_sec_on, "1/s");
    verdict.metric("overhead_pct", report.overhead_percent(), "%");
    verdict.metric("max_overhead_pct", max_overhead_pct, "%");
    for (name, count) in report.observed {
        verdict.metric(name.replace(' ', "_"), count as f64, "count");
    }
    Ok(verdict)
}

/// All-local vs. the device/cloud split at the default WAN model (40 ms
/// round trip), session counts 1, 2, 4, … up to `max_sessions`. The verdict
/// is on digests and counts, never on wall time: every point bit-identical
/// to the all-local sequential replay and fully drained; the all-local run
/// sends and ships nothing; the split run sends one progressive request per
/// fine-level window of the plans and applies every one. Throughput and
/// overlap ratio are reported, not judged.
fn remote(args: &mut Args) -> Outcome {
    let rows: usize = args.or("rows", 200_000)?;
    let traces: usize = args.or("traces", 2)?;
    let max_sessions: usize = args.or("max_sessions", 32)?;
    let session_counts: Vec<usize> = std::iter::successors(Some(1), |n| Some(n * 2))
        .take_while(|n| *n <= max_sessions)
        .collect();
    let report = run_remote_overlap_sweep(rows, &session_counts, traces)?;
    print!("{}", report.table());
    let mut verdict = Verdict::default();
    for point in &report.points {
        verdict.check(point.verified);
        let at = format!("[{},{}]", point.mode, point.sessions);
        verdict.metric(format!("touches_per_s{at}"), point.touches_per_sec, "1/s");
        verdict.metric(format!("overlap_ratio{at}"), point.overlap_ratio, "share");
    }
    for &sessions in &session_counts {
        verdict.check(report.counts_hold(sessions));
    }
    Ok(verdict)
}

/// The fresh-process durability round trip. `build` loads a seeded catalog,
/// drives the concurrent session workload, persists into `<dir>` and records
/// the expected digests there. `replay` — run as a separate process, which
/// is the point — reopens the directory and replays the identical workload
/// against the paged-backed catalog. Verdict: every digest bit-identical and
/// the recovered epoch the persisted one.
fn persistence(args: &mut Args) -> Outcome {
    let mode = args.word("build|replay")?;
    let dir = args.word("dir")?;
    let mut verdict = Verdict::default();
    match mode.as_str() {
        "build" => {
            let spec = RoundTripSpec {
                rows: args.or("rows", 200_000)?,
                sessions: args.or("sessions", 8)?,
                traces_per_session: args.or("traces", 3)?,
                seed: args.or("seed", 1234)?,
            };
            let record =
                build_and_persist(&dir, &spec, KernelConfig::default(), ServerConfig::auto())?;
            println!(
                "persisted epoch {} with {} session digests into {dir}",
                record.epoch,
                record.digests.len()
            );
            // `build_and_persist` fails on any session error, so a record is
            // one clean session per digest.
            verdict.attempted = record.digests.len() as u64;
            verdict.metric("persisted_epoch", record.epoch as f64, "epoch");
        }
        "replay" => {
            let outcome = replay_persisted(&dir, KernelConfig::default(), ServerConfig::auto())?;
            println!(
                "reopened epoch {} ({} sessions replayed): digests {}",
                outcome.reopened_epoch,
                outcome.actual.len(),
                if outcome.verified() {
                    "identical"
                } else {
                    "DIVERGED"
                }
            );
            verdict.check(outcome.reopened_epoch == outcome.expected.epoch);
            verdict.check(outcome.actual.len() == outcome.expected.digests.len());
            for (got, want) in outcome.actual.iter().zip(&outcome.expected.digests) {
                verdict.check(got == want);
            }
            verdict.metric("reopened_epoch", outcome.reopened_epoch as f64, "epoch");
        }
        other => return Err(format!("unknown mode {other:?}").into()),
    }
    Ok(verdict)
}

/// The wire check as two processes (see [`wire`]). With a first argument of
/// `serve` this process is the server half, which the parent half spawns.
/// Verdict: every session's digest over the wire equals the local
/// sequential replay, no session error, and the server exited 0 once its
/// stdin closed.
fn wire_check(args: &mut Args) -> Outcome {
    if args.0.next_if(|arg| arg == "serve").is_some() {
        return wire::serve(args.or("rows", 100_000)?);
    }
    wire::check(
        args.or("rows", 100_000)?,
        args.or("sessions", 8)?,
        args.or("traces", 3)?,
    )
}
