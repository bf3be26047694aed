//! The closed loop: each client thread sends its next gesture only after the
//! previous snapshot returned, as a person waits for the picture before the
//! next slide.
//!
//! One **gesture** = `run_trace` + `snapshot` (a trace is acknowledged on
//! enqueue, so its result only reaches the client through a snapshot). One
//! **session** = open → `set_action` → 8 gestures → close → digest check.
//! The loop is generic over [`ExplorationClient`], so the same code drives
//! the TCP path and, for the budget, the in-process server.

use crate::spans::{OpenSpan, Tracer};
use crate::spec::{GESTURES_PER_SESSION, RESTRUCTURE_AFTER_GESTURE, THINK_MICROS};
use crate::workloads::Env;
use dbtouch_core::kernel::Kernel;
use dbtouch_server::{ClientSession, ExplorationClient, SessionReport};
use dbtouch_types::{DbTouchError, Result, SizeCm};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// What one client thread measured.
#[derive(Default)]
pub struct ThreadOutcome {
    /// Latency of each completed gesture, nanoseconds.
    pub gesture_ns: Vec<u64>,
    /// `open_session` call → first gesture's snapshot returned, per session.
    pub open_ns: Vec<u64>,
    /// Each timed drag-out / drag-in pair.
    pub restructure_ns: Vec<u64>,
    /// Touch samples of verified sessions.
    pub touches: u64,
    /// Gestures attempted, and those that were shed, errored or belonged to
    /// a session whose digest mismatched.
    pub attempted: u64,
    pub failed: u64,
    /// First few failure messages.
    pub failures: Vec<String>,
    /// Time from a session's first `run_trace` to its last snapshot (and
    /// restructure), summed: the denominator of this thread's touch rate.
    pub phase_ns: u64,
    /// Touch samples per second inside gesture phases; summed over threads
    /// when outcomes merge (each client thread is its own closed loop).
    pub touch_rate: f64,
    /// The thread's wall time in the loop.
    pub wall_ns: u64,
    /// Sums over the verified sessions' reports.
    pub segments: u64,
    pub pruned_segments: u64,
    pub rows_touched: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_inserts: u64,
    /// The last verified session report (input of the codec probes).
    pub sample_report: Option<SessionReport>,
    /// Harness spans, when recorded.
    pub trees: Vec<dbtouch_obs::SpanTree>,
}

impl ThreadOutcome {
    fn fail(&mut self, gestures: u64, message: String) {
        self.failed += gestures;
        if self.failures.len() < 4 {
            self.failures.push(message);
        }
    }

    fn absorb_report(&mut self, report: SessionReport) {
        self.touches += report.total_touches();
        self.rows_touched += report.total_rows_touched();
        self.cache_hits += report.total_shared_cache_hits();
        self.cache_misses += report.total_shared_cache_misses();
        self.cache_inserts += report.total_shared_cache_inserts();
        for t in &report.outcomes {
            self.segments += t.outcome.stats.segments_scanned;
            self.pruned_segments += t.outcome.stats.pruned_segments;
        }
        self.sample_report = Some(report);
    }
}

/// Several threads' outcomes folded into one.
pub fn merge(outcomes: Vec<ThreadOutcome>) -> ThreadOutcome {
    let mut all = ThreadOutcome::default();
    for o in outcomes {
        all.gesture_ns.extend(o.gesture_ns);
        all.open_ns.extend(o.open_ns);
        all.restructure_ns.extend(o.restructure_ns);
        all.touches += o.touches;
        all.attempted += o.attempted;
        all.failed += o.failed;
        all.failures.extend(o.failures);
        all.phase_ns += o.phase_ns;
        all.touch_rate += o.touch_rate;
        all.wall_ns += o.wall_ns;
        all.segments += o.segments;
        all.pruned_segments += o.pruned_segments;
        all.rows_touched += o.rows_touched;
        all.cache_hits += o.cache_hits;
        all.cache_misses += o.cache_misses;
        all.cache_inserts += o.cache_inserts;
        all.sample_report = all.sample_report.or(o.sample_report);
        all.trees.extend(o.trees);
    }
    all
}

/// One drag-out / drag-in pair on the churn table through the in-process
/// catalog: two epoch publishes, two manifest commits.
fn restructure(env: &Env) -> Result<()> {
    let table = env
        .churn_table
        .ok_or_else(|| DbTouchError::Internal("workload has no churn table".into()))?;
    let column = env
        .catalog
        .drag_column_out(table, "churn_c0", SizeCm::new(2.0, 8.0))?;
    env.catalog.drag_column_into(table, column)
}

/// How one client thread runs.
pub struct LoopConfig<'a> {
    pub env: &'a Env,
    /// Expected digest of each plan of the pool.
    pub expected: &'a [u64],
    pub connection: usize,
    /// Sessions start until this much time has passed; a started session
    /// always finishes.
    pub run_for: Duration,
    /// Run at most this many sessions (the warm-up runs one).
    pub max_sessions: u64,
    /// Pause a seeded `[0, THINK_MICROS)` before each session.
    pub think: bool,
    /// Record harness spans against this origin.
    pub spans: Option<Instant>,
}

/// One client thread mid-run: its configuration, what it has measured, its
/// span recorder and the state of its think-time sequence.
struct ClientThread<'a> {
    cfg: &'a LoopConfig<'a>,
    out: ThreadOutcome,
    rec: Tracer,
    think_state: u64,
}

impl ClientThread<'_> {
    /// Sleep the next think time of this thread's seeded sequence
    /// (splitmix64 over seed and connection, so a run's pauses repeat).
    fn think(&mut self) {
        self.think_state = self.think_state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.think_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        std::thread::sleep(Duration::from_micros((z ^ (z >> 31)) % THINK_MICROS));
    }

    /// One opened session, from `set_action` to `close`; returns its final
    /// report, or the failure that ended it.
    fn run_session<S: ClientSession>(
        &mut self,
        mut session: S,
        session_no: u64,
        opened_at: Instant,
        root: &Option<OpenSpan>,
    ) -> Result<SessionReport> {
        let (cfg, out, rec) = (self.cfg, &mut self.out, &mut self.rec);
        let env = cfg.env;
        let plan = &env.plans[env.plan_index(cfg.connection, session_no)];
        let span = rec.begin("set_action", root, 0);
        session.set_action(env.object, plan.action.clone())?;
        rec.end(span);
        let mut phase_start = None;
        for (g, trace) in plan.traces.iter().enumerate() {
            let gesture_id = session_no * GESTURES_PER_SESSION as u64 + g as u64;
            // The clone is the harness's cost, not the gesture's.
            let trace = trace.clone();
            let gesture = rec.begin("gesture", root, gesture_id);
            let started = Instant::now();
            phase_start.get_or_insert(started);

            let span = rec.begin("run_trace", &gesture, gesture_id);
            session.run_trace(env.object, trace)?;
            rec.end(span);
            let span = rec.begin("snapshot", &gesture, gesture_id);
            let report = session.snapshot()?;
            let finished = Instant::now();
            rec.end(span);
            rec.end(gesture);

            out.gesture_ns
                .push(finished.duration_since(started).as_nanos() as u64);
            if g == 0 {
                out.open_ns
                    .push(finished.duration_since(opened_at).as_nanos() as u64);
            }
            if report.outcomes.len() != g + 1 {
                return Err(DbTouchError::Internal(format!(
                    "snapshot after gesture {g} holds {} outcomes",
                    report.outcomes.len()
                )));
            }
            // Inside the closed loop, so the write's cost lands in the touch
            // rate and the next gesture of every session refreshes its state.
            if g == RESTRUCTURE_AFTER_GESTURE && cfg.connection == 0 && env.churn_table.is_some() {
                let span = rec.begin("restructure", root, gesture_id);
                let started = Instant::now();
                restructure(env)?;
                out.restructure_ns.push(started.elapsed().as_nanos() as u64);
                rec.end(span);
            }
        }
        if let Some(start) = phase_start {
            out.phase_ns += start.elapsed().as_nanos() as u64;
        }
        let span = rec.begin("close", root, 0);
        let report = session.close()?;
        rec.end(span);
        Ok(report)
    }

    /// Open, run and check session number `session_no`.
    fn session<C: ExplorationClient>(&mut self, client: &C, session_no: u64) {
        let per_session = GESTURES_PER_SESSION as u64;
        let cfg = self.cfg;
        let plan_index = cfg.env.plan_index(cfg.connection, session_no);
        self.out.attempted += per_session;
        let root = self.rec.begin_session(session_no);
        let (gestures_before, opens_before) = (self.out.gesture_ns.len(), self.out.open_ns.len());

        let opened_at = Instant::now();
        let span = self.rec.begin("open", &root, 0);
        let opened = client.open_session();
        self.rec.end(span);
        let result =
            opened.and_then(|session| self.run_session(session, session_no, opened_at, &root));

        let span = self.rec.begin("verify", &root, 0);
        let verdict = result.and_then(|report| {
            verify(&report, cfg.expected[plan_index], plan_index).map(|()| report)
        });
        match verdict {
            Ok(report) => self.out.absorb_report(report),
            Err(e) => {
                // A failed session's gestures count as slower than any
                // percentile, not as the latencies they happened to show.
                self.out.gesture_ns.truncate(gestures_before);
                self.out.open_ns.truncate(opens_before);
                self.out
                    .fail(per_session, format!("conn {}: {e}", cfg.connection));
            }
        }
        self.rec.end(span);
        self.rec.end_session(root);
    }
}

/// A session's report is good when it carries no error and its digest
/// equals the sequential in-process replay of the same plan.
fn verify(report: &SessionReport, expected: u64, plan_index: usize) -> Result<()> {
    if let Some(error) = report.errors.first() {
        return Err(DbTouchError::Internal(format!("session error: {error}")));
    }
    let got = report.result_digest();
    if got != expected {
        return Err(DbTouchError::Internal(format!(
            "digest {got:#018x} != sequential replay {expected:#018x} (plan {plan_index})"
        )));
    }
    Ok(())
}

/// Run sessions in a closed loop on one connection until the time is up.
pub fn client_loop<C: ExplorationClient>(client: &C, cfg: &LoopConfig<'_>) -> ThreadOutcome {
    let mut thread = ClientThread {
        cfg,
        out: ThreadOutcome::default(),
        rec: Tracer::new(cfg.spans, cfg.connection),
        think_state: cfg.env.seed ^ (cfg.connection as u64 + 1).wrapping_mul(0x9e37_79b9),
    };
    let loop_started = Instant::now();
    let mut session_no = 0;
    while session_no < cfg.max_sessions && loop_started.elapsed() < cfg.run_for {
        if cfg.think {
            thread.think();
        }
        thread.session(client, session_no);
        session_no += 1;
    }
    let mut out = thread.out;
    out.wall_ns = loop_started.elapsed().as_nanos() as u64;
    out.touch_rate = out.touches as f64 / (out.phase_ns.max(1) as f64 / 1e9);
    out.trees = thread.rec.into_trees();
    out
}

/// Drive every connection of the workload concurrently against `client`.
pub fn drive<C: ExplorationClient + Sync>(
    client: &C,
    env: &Env,
    expected: &[u64],
    run_for: Duration,
    spans: Option<Instant>,
) -> ThreadOutcome {
    let connections = env.spec.connections;
    let barrier = Arc::new(Barrier::new(connections));
    let outcomes = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|connection| {
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    barrier.wait();
                    client_loop(
                        client,
                        &LoopConfig {
                            env,
                            expected,
                            connection,
                            run_for,
                            max_sessions: u64::MAX,
                            think: true,
                            spans,
                        },
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    merge(outcomes)
}

/// The warm-up: one untimed session per connection, one after the other.
pub fn warm_up<C: ExplorationClient>(client: &C, env: &Env, expected: &[u64]) -> ThreadOutcome {
    merge(
        (0..env.spec.connections)
            .map(|connection| {
                client_loop(
                    client,
                    &LoopConfig {
                        env,
                        expected,
                        connection,
                        run_for: Duration::MAX,
                        max_sessions: 1,
                        think: false,
                        spans: None,
                    },
                )
            })
            .collect(),
    )
}

/// The same plans through a bare `Kernel::run_trace`, no server: per-gesture
/// latency in nanoseconds. In-process minus this is the queue and worker
/// hand-off share.
pub fn kernel_loop(env: &Env, run_for: Duration) -> Result<Vec<u64>> {
    let mut gesture_ns = Vec::new();
    let started = Instant::now();
    let mut session_no = 0u64;
    while started.elapsed() < run_for {
        let plan = &env.plans[env.plan_index(0, session_no)];
        let mut kernel = Kernel::from_catalog(Arc::clone(&env.catalog));
        kernel.set_action(env.object, plan.action.clone())?;
        for trace in &plan.traces {
            let t = Instant::now();
            std::hint::black_box(kernel.run_trace(env.object, trace)?);
            gesture_ns.push(t.elapsed().as_nanos() as u64);
        }
        session_no += 1;
    }
    Ok(gesture_ns)
}
