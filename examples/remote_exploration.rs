//! Remote processing: a thin device over a simulated cloud server.
//!
//! Eight explorers slide over a 300k-row sky survey from devices that hold
//! only the coarsest sample level; slow, detail-seeking slides need finer
//! levels and go to the server. The same workload runs twice — all local,
//! and over the device/cloud split, where every fine-level touch answers
//! from the device at once and is refined when the server's answer lands —
//! and must produce bit-identical digests, with exactly one remote request
//! per fine-level window of the plans.
//!
//! ```text
//! cargo run --release --example remote_exploration
//! ```

use dbtouch::server::ServerConfig;
use dbtouch::workload::concurrent::{run_concurrent, run_sequential};
use dbtouch::workload::remote::{
    device_cloud_catalog, device_cloud_split, fine_level_windows, plan_device_cloud,
};
use dbtouch::workload::Scenario;

fn main() {
    let scenario = Scenario::sky_survey(300_000, 99);
    let (local, object) = device_cloud_catalog(&scenario, None).expect("load scenario");
    let plans = plan_device_cloud(&local, object, 8, 2, 2026).expect("plan explorers");
    let expected = run_sequential(&local, object, &plans).expect("sequential replay");

    println!("8 explorers, 2 traces each (slow = detail = remote, fast = skim = local)");
    println!("default WAN: 40ms round trip, 2000 rows/ms\n");
    let mut fine_windows = 0;
    for (label, split) in [
        ("all_local", None),
        ("device_cloud", Some(device_cloud_split(None))),
    ] {
        let (catalog, id) = device_cloud_catalog(&scenario, split).expect("load scenario for mode");
        let run = run_concurrent(&catalog, id, &plans, ServerConfig::with_workers(16))
            .expect("serve explorers");
        assert!(run.errors().is_empty(), "errors: {:?}", run.errors());
        let identical = run.digests() == expected;
        let remote: u64 = run
            .sessions
            .iter()
            .map(|s| s.total_remote().progressive_requests)
            .sum();
        let overlap: f64 = run
            .sessions
            .iter()
            .map(|s| s.remote_overlap_ratio())
            .sum::<f64>()
            / run.sessions.len().max(1) as f64;
        println!(
            "{label:<12}  wall {:>7.3}s   {:>8.0} touches/s   {remote:>4} remote requests   overlap {overlap:>4.2}   digests identical: {identical}",
            run.wall_nanos as f64 / 1e9,
            run.touches_per_sec(),
        );
        assert!(identical, "{label} must be result-transparent");
        if label == "all_local" {
            assert_eq!(remote, 0, "all-local sends nothing");
            fine_windows = fine_level_windows(&run.sessions);
        } else {
            assert_eq!(remote, fine_windows, "one request per fine-level window");
        }
    }
    println!(
        "\nsame answers, bit for bit — {fine_windows} fine-level windows refined remotely while the device kept answering."
    );
}
