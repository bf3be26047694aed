//! Tests that live with the benchmark. No timing assertions: they check
//! determinism, the correctness gate, and that the code and `BENCHMARK.json`
//! name the same things.

use crate::run::{run_traced, run_untraced, Outcome};
use crate::spec::{workload, MetricSpec, Profile, END_TO_END, PER_LAYER, WORKLOADS};
use crate::workloads::Env;
use dbtouch_net::codec::{encode_request, Request};
use dbtouch_types::json::{self, Json};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn str_of<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry.get(key).and_then(Json::as_str).unwrap_or_default()
}

/// Every encoded `RunTrace` frame of a workload's plan pool, and its
/// expected digests.
fn frames_and_digests(name: &str, seed: u64) -> (Vec<Vec<u8>>, Vec<u64>) {
    let env = Env::build(workload(name).unwrap(), seed, &Profile::quick(), false).unwrap();
    let frames = env
        .plans
        .iter()
        .flat_map(|plan| plan.traces.iter())
        .map(|trace| encode_request(&Request::RunTrace(env.object, trace.clone(), None)))
        .collect();
    (frames, env.expected_digests().unwrap())
}

#[test]
fn same_seed_gives_identical_frames_and_digests_and_another_seed_differs() {
    for name in ["hot_dashboard", "cold_raw_sweep"] {
        let (frames, digests) = frames_and_digests(name, 7);
        let (again_frames, again_digests) = frames_and_digests(name, 7);
        assert!(!frames.is_empty());
        assert_eq!(frames, again_frames, "{name}: frames differ for one seed");
        assert_eq!(
            digests, again_digests,
            "{name}: digests differ for one seed"
        );
        let (other_frames, other_digests) = frames_and_digests(name, 8);
        assert_ne!(
            frames, other_frames,
            "{name}: seed does not reach the plans"
        );
        assert_ne!(
            digests, other_digests,
            "{name}: seed does not reach the data"
        );
    }
}

fn assert_complete(workload: &str, outcome: &Outcome, specs: &[MetricSpec]) {
    assert_eq!(outcome.failed, 0, "{workload}: {:?}", outcome.notes);
    assert!(outcome.correct() && outcome.attempted > 0);
    for spec in specs {
        let value = outcome.metrics.get(spec.name);
        assert!(
            value.is_some_and(|v| v.is_finite()),
            "{workload}: metric {} is {value:?}",
            spec.name
        );
    }
    assert_eq!(outcome.metrics.len(), specs.len(), "{workload}");
}

#[test]
fn quick_profile_runs_every_workload_end_to_end() {
    let profile = Profile::quick();
    for spec in &WORKLOADS {
        let outcome = run_untraced(spec, 1, &profile).unwrap();
        assert_complete(spec.name, &outcome, &END_TO_END);
        for end_to_end in &END_TO_END {
            assert!(
                outcome.metrics[end_to_end.name] > 0.0,
                "{}: end-to-end metric {} must never be 0",
                spec.name,
                end_to_end.name
            );
        }
    }
}

#[test]
fn quick_profile_traces_every_workload_and_separates_them() {
    let profile = Profile::quick();
    let traced: Vec<Outcome> = WORKLOADS
        .iter()
        .map(|spec| run_traced(spec, 1, &profile).unwrap())
        .collect();
    for (spec, outcome) in WORKLOADS.iter().zip(&traced) {
        assert_complete(spec.name, outcome, &PER_LAYER);
        let m = &outcome.metrics;
        // The stack sums to the traced median gesture by construction.
        let sum = m["budget.net_share"] + m["budget.handoff_share"] + m["budget.kernel_share"];
        assert!((sum - 1.0).abs() < 1e-9, "{}: {sum}", spec.name);
        assert!(outcome.notes.iter().any(|n| n.contains("harness spans")));
    }
    let of = |name: &str| {
        let index = WORKLOADS.iter().position(|w| w.name == name).unwrap();
        &traced[index].metrics
    };
    // What each workload exists for, as counts (never as times).
    assert_eq!(of("banded_sweep")["pager.faults_per_touch"], 0.0);
    assert!(of("cold_raw_sweep")["pager.faults_per_touch"] > 0.0);
    assert!(of("cold_raw_sweep")["pager.evictions"] > 0.0);
    assert!(of("hot_dashboard")["shared_cache.hit_rate"] >= 0.9);
    assert_eq!(of("banded_sweep")["shared_cache.hit_rate"], 0.0);
    assert_eq!(of("cold_raw_sweep")["shared_cache.hit_rate"], 0.0);
    assert!(of("banded_sweep")["encoding.run_skips_per_touch"] > 0.0);
    assert!(of("banded_sweep")["morsel.segments_per_touch"] > 1.0);
    for spec in &WORKLOADS {
        let epochs = of(spec.name)["catalog.epochs_published"];
        assert_eq!(
            epochs > 0.0,
            spec.name == "mixed_restructure",
            "{}",
            spec.name
        );
    }
    assert!(of("mixed_restructure")["core.catalog.restructure_us_p50"] > 0.0);
}

/// `BENCHMARK.json` and `spec.rs` must name the same workloads and metrics,
/// with the same units, directions and bounds, inside the driver's limits.
#[test]
fn benchmark_json_matches_the_spec() {
    let doc = benchmark_json();
    let Json::Object(keys) = &doc else {
        panic!("BENCHMARK.json is not an object")
    };
    let mut names: Vec<&str> = keys.keys().map(String::as_str).collect();
    names.sort_unstable();
    assert_eq!(
        names,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    assert_eq!(
        doc.get("run_seconds").and_then(Json::as_f64),
        Some(crate::DEFAULT_SECONDS)
    );

    let workloads = doc.get("workloads").and_then(Json::as_array).unwrap();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (entry, spec) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(str_of(entry, "name"), spec.name);
        assert_eq!(str_of(entry, "why"), spec.why);
        assert!(
            spec.why.len() <= 200 && !spec.why.contains('\n'),
            "{}",
            spec.name
        );
        assert!(
            spec.connections <= 2,
            "{}: at most 2 client threads",
            spec.name
        );
    }

    let check = |key: &str, specs: &[MetricSpec], bounded: bool| {
        let entries = doc.get(key).and_then(Json::as_array).unwrap();
        assert_eq!(entries.len(), specs.len(), "{key}");
        for (entry, spec) in entries.iter().zip(specs) {
            assert_eq!(str_of(entry, "name"), spec.name, "{key}");
            assert_eq!(str_of(entry, "unit"), spec.unit, "{}", spec.name);
            assert_eq!(str_of(entry, "better"), spec.better.name(), "{}", spec.name);
            assert_eq!(
                entry.get("bound").and_then(Json::as_f64),
                bounded.then_some(spec.bound),
                "{}",
                spec.name
            );
            assert!(
                spec.name.len() <= 64 && spec.unit.len() <= 16,
                "{}",
                spec.name
            );
            assert!(
                !bounded || (spec.bound > 0.0 && spec.bound <= 0.25),
                "{}",
                spec.name
            );
        }
    };
    check("end_to_end", &END_TO_END, true);
    check("per_layer", &PER_LAYER, false);
    assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    assert!(END_TO_END
        .iter()
        .any(|s| s.name == "setup_s" && s.unit == "s"));
    let mut all: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name))
        .collect();
    all.sort_unstable();
    let before = all.len();
    all.dedup();
    assert_eq!(all.len(), before, "a name is used twice");
}
