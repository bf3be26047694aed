//! # dbtouch-bench
//!
//! The experiments `touch_budget` (the repo's benchmark, in `touch_budget/`)
//! cannot state, behind one `dbtouch-bench <subcommand>` binary:
//!
//! * the paper's own evaluation — Figure 4(a)/(b), the Appendix A
//!   exploration contest, the ablations A1–A6 of the mechanisms Sections
//!   2.6–2.9 and 4 argue for, and the two parameter sweeps (the README's
//!   "Paper experiment harnesses" section maps each to its paper section);
//! * verdicts that need something a `touch_budget` workload does not have:
//!   an observer switched off ([`overhead`]), a simulated WAN
//!   ([`remote_overlap`]), a second process (the `wire-two-process` and
//!   `persistence` subcommands in `src/main.rs`).
//!
//! Serving-path numbers — throughput, latency, cache, pager, morsel and
//! encoding counters — come from `touch_budget` and nowhere else. Each
//! experiment here is a plain function returning a report; `src/main.rs`
//! prints it and ends with the `{correct, attempted, failed, metrics}` line
//! of [`report::Verdict`], and `tests/figure_shapes.rs` at the repo root
//! asserts the paper's shapes on the same functions at reduced scale.

pub mod ablations;
pub mod contest;
pub mod figures;
pub mod overhead;
pub mod remote_overlap;
pub mod report;
pub mod sweeps;
