//! `touch_budget` — the repo's benchmark: gesture latency over loopback TCP,
//! a per-layer budget, and a committed baseline.
//!
//! Driver contract (one workload, one process, result as the last line):
//!
//! ```text
//! touch_budget --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! For people:
//!
//! ```text
//! touch_budget run      [--seed N] [--seconds S] [--quick]   every end-to-end metric
//! touch_budget trace    [--seed N] [--seconds S] [--quick]   per-layer metrics + budget
//! touch_budget baseline [--seed N] [--seconds S] [--sets N] [--out FILE]
//! touch_budget compare  --baseline FILE [--sets N] [--seed N] [--seconds S]
//! ```
//!
//! `run`, `trace`, `baseline` and `compare` execute each workload in a child
//! process of this same binary, so `peak_rss_mb` and every cache are per
//! workload. See `README.md` beside this package for the glossary.

mod awake;
mod compare;
mod drive;
mod probes;
mod run;
mod spans;
mod spec;
mod stats;
mod workloads;

use dbtouch_types::json::{self, Json};
use run::Outcome;
use spec::{Profile, WORKLOADS};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

/// Parsed command line: a subcommand (empty for the driver contract) and
/// `--key value` options; `--quick` is the only bare flag.
struct Args {
    command: String,
    options: BTreeMap<String, String>,
}

impl Args {
    fn parse(argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut argv = argv.peekable();
        let command = match argv.peek() {
            Some(first) if !first.starts_with("--") => argv.next().unwrap_or_default(),
            _ => String::new(),
        };
        let mut options = BTreeMap::new();
        while let Some(arg) = argv.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {arg:?}"))?;
            let value = if key == "quick" {
                "1".to_string()
            } else {
                argv.next()
                    .ok_or_else(|| format!("--{key} needs a value"))?
            };
            options.insert(key.to_string(), value);
        }
        Ok(Args { command, options })
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key} {v:?} is not valid")),
        }
    }

    fn profile(&self) -> Result<Profile, String> {
        if self.options.contains_key("quick") {
            return Ok(Profile::quick());
        }
        let seconds: f64 = self.get("seconds", DEFAULT_SECONDS)?;
        if !(seconds.is_finite() && seconds > 0.0) {
            return Err(format!("--seconds {seconds} must be positive"));
        }
        Ok(Profile::full(seconds))
    }
}

/// The result line of the driver contract.
fn result_line(outcome: &Outcome, traced: bool) -> String {
    let metrics: Vec<String> = Outcome::specs(traced)
        .iter()
        .map(|spec| {
            let value = outcome.metrics.get(spec.name).copied().unwrap_or(f64::NAN);
            // JSON has no NaN or infinity; a metric that has neither a finite
            // value nor a measurement is a harness bug worth a loud number.
            let value = if value.is_finite() { value } else { f64::MAX };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                spec.name, spec.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// One workload in this process: the driver contract.
fn drive_one(args: &Args) -> Result<ExitCode, String> {
    let name: String = args.get("workload", String::new())?;
    let spec = spec::workload(&name).ok_or_else(|| {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; choose one of {names:?}")
    })?;
    let seed: u64 = args.get("seed", 1)?;
    let traced = match args.get("trace", 0u8)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace {other} must be 0 or 1")),
    };
    let profile = args.profile()?;
    let awake = awake::KeepAwake::start();
    println!(
        "{} of {} CPUs kept out of idle by an idle-priority spinner",
        awake.active(),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let outcome = if traced {
        run::run_traced(spec, seed, &profile)
    } else {
        run::run_untraced(spec, seed, &profile)
    }
    .map_err(|e| format!("{name}: {e}"))?;
    drop(awake);
    for note in &outcome.notes {
        println!("{note}");
    }
    println!("{}", result_line(&outcome, traced));
    Ok(if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// What a child run reported, parsed back from its result line.
pub struct ChildResult {
    pub attempted: u64,
    pub failed: u64,
    /// Metric name → (value, unit).
    pub metrics: BTreeMap<String, (f64, String)>,
}

/// Run one workload in a child process of this binary and parse its result.
/// The child's notes are passed through.
pub fn run_child(
    workload: &str,
    seed: u64,
    profile: &Profile,
    traced: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &profile.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    // The quick profile is the only one that shrinks the data.
    if profile.row_divisor > 1 {
        command.arg("--quick");
    }
    let output = command
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in lines {
        println!("{line}");
    }
    let parsed = json::parse(last)
        .map_err(|e| format!("{workload}: no result line ({e}); exit {}", output.status))?;
    let count = |key: &str| parsed.get(key).and_then(Json::as_u64).unwrap_or(0);
    let mut metrics = BTreeMap::new();
    if let Some(Json::Object(map)) = parsed.get("metrics") {
        for (name, entry) in map {
            let value = entry
                .get("value")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN);
            let unit = entry.get("unit").and_then(Json::as_str).unwrap_or("");
            metrics.insert(name.clone(), (value, unit.to_string()));
        }
    }
    Ok(ChildResult {
        attempted: count("attempted"),
        failed: count("failed"),
        metrics,
    })
}

/// `run` / `trace`: every workload, every metric by name with its unit.
fn run_all(args: &Args, traced: bool) -> Result<ExitCode, String> {
    let seed: u64 = args.get("seed", 1)?;
    let profile = args.profile()?;
    let mut failed = 0;
    for workload in &WORKLOADS {
        println!(
            "== {} ({})",
            workload.name,
            if traced { "traced" } else { "untraced" }
        );
        let result = run_child(workload.name, seed, &profile, traced)?;
        for spec in Outcome::specs(traced) {
            let (value, unit) = result
                .metrics
                .get(spec.name)
                .ok_or_else(|| format!("{}: metric {} missing", workload.name, spec.name))?;
            println!(
                "{:<20} {:<40} {value:>16.4} {unit}",
                workload.name, spec.name
            );
        }
        println!(
            "{:<20} {:<40} {:>16} of {} gestures",
            workload.name, "failed", result.failed, result.attempted
        );
        failed += result.failed;
    }
    if failed > 0 {
        eprintln!("{failed} gestures failed");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let result =
        Args::parse(std::env::args().skip(1)).and_then(|args| match args.command.as_str() {
            "" => drive_one(&args),
            "run" => run_all(&args, false),
            "trace" => run_all(&args, true),
            "baseline" => compare::write_baseline(&args),
            "compare" => compare::compare(&args),
            other => Err(format!(
                "unknown command {other:?}; use run, trace, baseline or compare"
            )),
        });
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("touch_budget: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests;
