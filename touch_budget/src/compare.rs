//! The committed baseline and `compare`: a fresh run against it, one verdict
//! per (workload, end-to-end metric).
//!
//! Sets are order-balanced — odd sets walk the workloads backwards — so a
//! machine that warms or throttles over a set does not always favour the
//! same workload (the idea `telemetry_overhead` uses, reimplemented here).

use crate::spec::{Better, MetricSpec, END_TO_END, GESTURES_PER_SESSION, PER_LAYER, WORKLOADS};
use crate::stats::{median, quartiles, spread};
use crate::{run_child, Args};
use dbtouch_types::json::{self, object, Json};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// (workload, metric) → one value per set.
type Samples = BTreeMap<(&'static str, &'static str), Vec<f64>>;

/// Key under which [`collect_sets`] keeps each run's gesture count.
const GESTURES: &str = "gestures";

/// Run `sets` untraced sets of every workload.
fn collect_sets(args: &Args, sets: usize) -> Result<(Samples, u64), String> {
    let seed: u64 = args.get("seed", 1)?;
    let profile = args.profile()?;
    let mut samples = Samples::new();
    let mut failed = 0;
    for set in 0..sets {
        let mut order: Vec<_> = WORKLOADS.iter().collect();
        if set % 2 == 1 {
            order.reverse();
        }
        for workload in order {
            println!("== set {} of {sets}: {}", set + 1, workload.name);
            let result = run_child(workload.name, seed, &profile, false)?;
            failed += result.failed;
            samples
                .entry((workload.name, GESTURES))
                .or_default()
                .push(result.attempted as f64);
            for spec in &END_TO_END {
                let (value, _) = result
                    .metrics
                    .get(spec.name)
                    .ok_or_else(|| format!("{}: metric {} missing", workload.name, spec.name))?;
                samples
                    .entry((workload.name, spec.name))
                    .or_default()
                    .push(*value);
            }
        }
    }
    Ok((samples, failed))
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The shape of the machine the numbers came from.
fn machine() -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    object([
        ("nproc", Json::Number(nproc as f64)),
        ("cpu_model", Json::String(cpu_model)),
        ("kernel", Json::String(kernel)),
        ("rustc", Json::String(first_line_of("rustc", &["-V"]))),
        (
            "git_commit",
            Json::String(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

fn summary(spec: &MetricSpec, values: &[f64]) -> Json {
    let (q1, q2, q3) = quartiles(values).unwrap_or((values[0], values[0], values[0]));
    object([
        ("unit", Json::String(spec.unit.into())),
        ("better", Json::String(spec.better.name().into())),
        ("bound", Json::Number(spec.bound)),
        ("median", Json::Number(q2)),
        ("q1", Json::Number(q1)),
        ("q3", Json::Number(q3)),
        ("sets", Json::Number(values.len() as f64)),
    ])
}

/// `baseline`: `--sets` untraced sets plus one traced set, with the machine
/// shape, written to `--out`.
pub fn write_baseline(args: &Args) -> Result<ExitCode, String> {
    let sets: usize = args.get("sets", 3)?;
    let seed: u64 = args.get("seed", 1)?;
    let profile = args.profile()?;
    let out: String = args.get(
        "out",
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/baselines/BENCH_touch_budget.json"
        )
        .to_string(),
    )?;
    let (samples, mut failed) = collect_sets(args, sets.max(1))?;

    let mut workloads = BTreeMap::new();
    for workload in &WORKLOADS {
        println!("== traced: {}", workload.name);
        let traced = run_child(workload.name, seed, &profile, true)?;
        failed += traced.failed;
        let end_to_end = END_TO_END.iter().map(|spec| {
            (
                spec.name,
                summary(spec, &samples[&(workload.name, spec.name)]),
            )
        });
        let per_layer = PER_LAYER.iter().filter_map(|spec| {
            let (value, unit) = traced.metrics.get(spec.name)?;
            Some((
                spec.name,
                object([
                    ("value", Json::Number(*value)),
                    ("unit", Json::String(unit.clone())),
                ]),
            ))
        });
        workloads.insert(
            workload.name,
            object([
                ("why", Json::String(workload.why.into())),
                ("connections", Json::Number(workload.connections as f64)),
                ("worker_threads", Json::Number(workload.workers as f64)),
                (
                    "scan_parallelism",
                    Json::Number(workload.scan_parallelism as f64),
                ),
                ("rows", Json::Number(workload.rows as f64)),
                (
                    "gestures_per_run",
                    Json::Number(median(&samples[&(workload.name, GESTURES)])),
                ),
                ("end_to_end", object(end_to_end)),
                ("per_layer", object(per_layer)),
            ]),
        );
    }
    if failed > 0 {
        return Err(format!("{failed} gestures failed; no baseline written"));
    }
    let doc = object([
        ("benchmark", Json::String("touch_budget".into())),
        ("machine", machine()),
        ("seed", Json::Number(seed as f64)),
        ("run_seconds", Json::Number(profile.seconds)),
        (
            "gestures_per_session",
            Json::Number(GESTURES_PER_SESSION as f64),
        ),
        ("workloads", object(workloads)),
    ]);
    std::fs::write(&out, doc.pretty() + "\n").map_err(|e| format!("write {out}: {e}"))?;
    println!("baseline written to {out}");
    Ok(ExitCode::SUCCESS)
}

/// How a fresh median compares with the baseline's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The fresh runs spread wider than the bound: no verdict either way.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge fresh values of one metric against the baseline median. As in the
/// driver, the spread of `setup_s` is not held against it: a set-up is a few
/// fsyncs long, and a handful of sets cannot pin its quartiles.
pub fn verdict(spec: &MetricSpec, baseline: f64, fresh: &[f64]) -> Verdict {
    if spec.name != "setup_s" && spread(fresh).is_some_and(|s| s > spec.bound) {
        return Verdict::Unresolved;
    }
    // Positive = worse, as a share of the baseline median.
    let change = (median(fresh) - baseline) / baseline.abs().max(f64::MIN_POSITIVE);
    let worsening = match spec.better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    if worsening > spec.bound {
        Verdict::Worse
    } else if worsening < -spec.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// `compare`: fresh sets against the baseline file, one row per (workload,
/// end-to-end metric). Exits non-zero on any `worse`, `unresolved` or
/// failed gesture.
pub fn compare(args: &Args) -> Result<ExitCode, String> {
    let path: String = args.get("baseline", String::new())?;
    if path.is_empty() {
        return Err("compare needs --baseline FILE".into());
    }
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    let baseline = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let sets: usize = args.get("sets", 3)?;
    let (samples, failed) = collect_sets(args, sets.max(1))?;

    println!(
        "{:<20} {:<22} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "baseline", "fresh median", "change", "bound"
    );
    let mut bad = 0;
    for workload in &WORKLOADS {
        for spec in &END_TO_END {
            let base = baseline
                .get("workloads")
                .and_then(|w| w.get(workload.name))
                .and_then(|w| w.get("end_to_end"))
                .and_then(|m| m.get(spec.name))
                .and_then(|m| m.get("median"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{path}: no median for {} {}", workload.name, spec.name))?;
            let fresh = &samples[&(workload.name, spec.name)];
            let v = verdict(spec, base, fresh);
            if matches!(v, Verdict::Worse | Verdict::Unresolved) {
                bad += 1;
            }
            println!(
                "{:<20} {:<22} {base:>14.3} {:>14.3} {:>+7.1}% {:>6.0}%  {}",
                workload.name,
                spec.name,
                median(fresh),
                (median(fresh) - base) / base * 100.0,
                spec.bound * 100.0,
                v.name()
            );
        }
    }
    println!("{failed} gestures failed; {bad} metrics worse or unresolved over {sets} set(s)");
    Ok(if bad == 0 && failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let spec = |better| MetricSpec {
            name: "m",
            unit: "us",
            better,
            bound: 0.10,
        };
        let (lower, higher) = (&spec(Better::Lower), &spec(Better::Higher));
        assert_eq!(verdict(lower, 100.0, &[101.0, 102.0, 103.0]), Verdict::Same);
        assert_eq!(
            verdict(lower, 100.0, &[120.0, 121.0, 122.0]),
            Verdict::Worse
        );
        assert_eq!(verdict(lower, 100.0, &[80.0, 81.0, 82.0]), Verdict::Better);
        // Higher is better: the same numbers read the other way.
        assert_eq!(
            verdict(higher, 100.0, &[120.0, 121.0, 122.0]),
            Verdict::Better
        );
        assert_eq!(verdict(higher, 100.0, &[80.0, 81.0, 82.0]), Verdict::Worse);
        // Fresh runs that disagree by more than the bound resolve nothing.
        assert_eq!(
            verdict(lower, 100.0, &[80.0, 100.0, 130.0]),
            Verdict::Unresolved
        );
        // One set has no spread to judge by.
        assert_eq!(verdict(lower, 100.0, &[125.0]), Verdict::Worse);
        // Set-up time is judged on its median alone.
        let setup = MetricSpec {
            name: "setup_s",
            ..*lower
        };
        assert_eq!(verdict(&setup, 100.0, &[80.0, 100.0, 130.0]), Verdict::Same);
    }
}
