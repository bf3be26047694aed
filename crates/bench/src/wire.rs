//! `wire-two-process`: the wire check as two real processes that share
//! nothing but a socket.
//!
//! The parent spawns the server as a child of the same executable. The child
//! builds the seeded catalog, binds port 0 and prints `listening on <addr>`;
//! the parent reads that line from the child's stdout, drives K seeded
//! explorers through [`TcpClient`] — one connection per session — and
//! recomputes the expected digests with a local sequential replay of the
//! same plans. It then closes the child's stdin: the child blocks on that
//! EOF (no timer decides how long the server lives), drains and exits. The
//! verdict needs both bit-identical digests and the child's clean exit.

use crate::Outcome;
use dbtouch_bench::report::Verdict;
use dbtouch_net::{NetServer, TcpClient};
use dbtouch_server::{ServerConfig, SessionReport};
use dbtouch_types::KernelConfig;
use dbtouch_workload::concurrent::{
    drive_plans_over, plan_explorers, run_sequential, scenario_catalog,
};
use dbtouch_workload::Scenario;
use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Seed of the sky-survey scenario both processes rebuild.
const SCENARIO_SEED: u64 = 17;
/// Seed of the explorer plans.
const PLAN_SEED: u64 = 1234;
/// What the child prints before the bound address.
const LISTENING: &str = "listening on ";

/// The child's side: serve the seeded catalog on an ephemeral loopback port,
/// announce the address on stdout, and run until stdin reaches EOF.
pub fn serve(rows: usize) -> Outcome {
    let scenario = Scenario::sky_survey(rows, SCENARIO_SEED);
    let (catalog, _object) = scenario_catalog(&scenario, KernelConfig::default())?;
    let server = NetServer::serve(
        ServerConfig::default()
            .with_catalog(catalog)
            .with_listen_addr("127.0.0.1:0"),
    )?;
    println!("{LISTENING}{}", server.local_addr());
    std::io::copy(&mut std::io::stdin().lock(), &mut std::io::sink())?;
    server.shutdown();
    println!("drained and shut down");
    let mut verdict = Verdict::default();
    verdict.check(true);
    Ok(verdict)
}

/// The parent's side: spawn `<this executable> wire-two-process serve
/// <rows>`, drive `sessions` explorers of `traces` gestures each against it,
/// and judge the digests and the child's exit status.
pub fn check(rows: usize, sessions: usize, traces: usize) -> Outcome {
    let mut child = Command::new(std::env::current_exe()?)
        .args(["wire-two-process", "serve", &rows.to_string()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()?;
    let mut child_stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));

    let driven = (|| -> Result<_, Box<dyn std::error::Error>> {
        // The catalog is rebuilt locally (while the child builds its own) to
        // derive the seeded plans and the expected digests — the served data
        // lives in the other process.
        let scenario = Scenario::sky_survey(rows, SCENARIO_SEED);
        let (catalog, object) = scenario_catalog(&scenario, KernelConfig::default())?;
        let plans = plan_explorers(&catalog, object, sessions, traces, PLAN_SEED)?;
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if child_stdout.read_line(&mut line)? == 0 {
                return Err("the server process exited before announcing its address".into());
            }
            if let Some(addr) = line.trim_end().strip_prefix(LISTENING) {
                break addr.to_string();
            }
        };
        let started = Instant::now();
        let reports = drive_plans_over(&TcpClient::new(addr.as_str()), object, &plans)?;
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        let want = run_sequential(&catalog, object, &plans)?;
        Ok((addr, reports, wall_ms, want))
    })();

    // Closing stdin is the shutdown signal; do it on the error path too so
    // the child never outlives a failed load.
    drop(child.stdin.take());
    let mut rest = String::new();
    let _ = child_stdout.read_to_string(&mut rest);
    for line in rest.lines() {
        println!("server: {line}");
    }
    let status = child.wait()?;
    let (addr, reports, wall_ms, want) = driven?;

    let touches: u64 = reports.iter().map(SessionReport::total_touches).sum();
    println!(
        "{sessions} sessions x {traces} traces over {addr}: {touches} touches in {wall_ms:.1} ms"
    );
    let mut verdict = Verdict::default();
    verdict.check(reports.len() == want.len());
    for (index, (report, want)) in reports.iter().zip(&want).enumerate() {
        let got = report.result_digest();
        let identical = got == *want && report.errors.is_empty();
        println!(
            "  session {index}: digest {got:016x} — {}",
            if identical { "identical" } else { "DIVERGED" }
        );
        verdict.check(identical);
    }
    println!("server exit: {status}");
    verdict.check(status.success());
    verdict.metric("touches", touches as f64, "count");
    verdict.metric("wall_ms", wall_ms, "ms");
    Ok(verdict)
}
