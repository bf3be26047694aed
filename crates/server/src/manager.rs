//! The session manager: worker threads multiplexing many exploration
//! sessions over one shared catalog.
//!
//! Topology:
//!
//! ```text
//!                    ┌──────────────────────────────┐
//!  SessionHandle ──▶ │ worker 0: sessions {1, 4, …} │──┐
//!  SessionHandle ──▶ │ worker 1: sessions {2, 5, …} │──┼──▶ Arc<SharedCatalog>
//!  SessionHandle ──▶ │ worker 2: sessions {3, 6, …} │──┘      (read-only)
//!                    └──────────────────────────────┘
//! ```
//!
//! * Sessions are pinned at creation to the worker currently serving the
//!   fewest live sessions (round-robin breaks ties); a worker owns the
//!   per-session [`ObjectState`]s outright, so per-touch processing takes
//!   no locks at all — the only shared structure is the catalog's `Arc`'d
//!   immutable data.
//! * Every `SetAction`/`RunTrace` event is a gesture boundary: the session's
//!   state observes the newest catalog epoch first
//!   ([`ObjectState::refresh`]), then the whole trace runs against that one
//!   snapshot. [`SessionReport`] records the epoch each trace ran against
//!   and how many restructures the session observed.
//! * Every session has a bounded event budget ([`ServerConfig::session_queue_depth`]):
//!   a producer that outruns its worker blocks in [`SessionHandle::run_trace`]
//!   until earlier events drain (backpressure), so one runaway explorer cannot
//!   queue unbounded work.
//! * Processing errors (bad trace, unknown object, invalid action) are
//!   recorded in the session's report instead of killing the worker.

use crate::config::ServerConfig;
use crate::metrics::{ServerInstruments, ServerMetricsSnapshot};
use crate::report::{SessionId, SessionReport, TraceOutcome};
use dbtouch_core::catalog::{validate_action, ObjectState, SharedCatalog};
use dbtouch_core::kernel::{ObjectId, TouchAction};
use dbtouch_core::remote_exec::{self, CompletionQueue, RefinementApplied, RemoteCompletion};
use dbtouch_core::session::Session;
use dbtouch_gesture::trace::GestureTrace;
use dbtouch_obs::{clear_trace_ctx, set_trace_ctx_span, Telemetry, WireTraceContext};
use dbtouch_types::{DbTouchError, Result};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One queued event of one session.
enum SessionEvent {
    /// Change the session's touch action for an object.
    SetAction {
        object: ObjectId,
        action: TouchAction,
    },
    /// Run a gesture trace over an object. `wire` carries the client-stamped
    /// trace context when the trace arrived over the network; `enqueued`
    /// marks submission time so the worker can decompose queue wait from
    /// service time.
    RunTrace {
        object: ObjectId,
        trace: GestureTrace,
        wire: Option<WireTraceContext>,
        enqueued: Instant,
    },
    /// Reply with a copy of the session's report so far.
    Snapshot { reply: SyncSender<SessionReport> },
    /// Tear the session down and reply with its final report.
    Close { reply: SyncSender<SessionReport> },
}

/// What travels to a worker.
enum Envelope {
    /// One queued event: the session it belongs to and the gate to release
    /// once the event is processed.
    Event {
        session: SessionId,
        gate: Arc<QueueGate>,
        event: SessionEvent,
    },
    /// Shutdown signal: drain what is queued, wake every blocked producer,
    /// exit. Sent by the server so workers terminate even while session
    /// handles (and their `Sender` clones) are still alive.
    Terminate,
}

struct GateState {
    in_flight: usize,
    closed: bool,
}

/// Counting gate bounding a session's in-flight events (a tiny closable
/// semaphore). `close()` permanently wakes and rejects blocked producers so a
/// worker that terminates — cleanly or by panic — cannot strand them.
struct QueueGate {
    depth: usize,
    state: Mutex<GateState>,
    drained: Condvar,
}

impl QueueGate {
    fn new(depth: usize) -> QueueGate {
        QueueGate {
            depth: depth.max(1),
            state: Mutex::new(GateState {
                in_flight: 0,
                closed: false,
            }),
            drained: Condvar::new(),
        }
    }

    /// Block until the session is below its depth, then take a slot. Returns
    /// `false` (immediately or on wake) once the gate is closed.
    fn acquire(&self) -> bool {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if state.closed {
                return false;
            }
            if state.in_flight < self.depth {
                state.in_flight += 1;
                return true;
            }
            state = self.drained.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Return a slot (called by the worker after processing an event).
    fn release(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.in_flight = state.in_flight.saturating_sub(1);
        self.drained.notify_one();
    }

    /// Reject current and future acquirers (worker gone).
    fn close(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.closed = true;
        self.drained.notify_all();
    }
}

/// A handle to one served exploration session.
///
/// Events submitted through the handle are processed in order by the worker
/// the session is pinned to. [`run_trace`](SessionHandle::run_trace) is
/// asynchronous (fire-and-forget with backpressure);
/// [`snapshot`](SessionHandle::snapshot) and [`close`](SessionHandle::close)
/// are synchronous barriers.
pub struct SessionHandle {
    id: SessionId,
    sender: Sender<Envelope>,
    gate: Arc<QueueGate>,
    closed: bool,
}

impl SessionHandle {
    /// The session's id.
    pub fn id(&self) -> SessionId {
        self.id
    }

    fn submit(&self, event: SessionEvent) -> Result<()> {
        if !self.gate.acquire() {
            return Err(DbTouchError::Internal(
                "exploration server has shut down".into(),
            ));
        }
        self.sender
            .send(Envelope::Event {
                session: self.id,
                gate: Arc::clone(&self.gate),
                event,
            })
            .map_err(|_| {
                self.gate.release();
                DbTouchError::Internal("exploration server has shut down".into())
            })
    }

    /// Choose the touch action subsequent traces over `object` run (this
    /// session only; other sessions keep their own action).
    pub fn set_action(&self, object: ObjectId, action: TouchAction) -> Result<()> {
        self.submit(SessionEvent::SetAction { object, action })
    }

    /// Enqueue a gesture trace. Returns as soon as the event is queued; blocks
    /// only when the session already has `session_queue_depth` events in
    /// flight (backpressure).
    pub fn run_trace(&self, object: ObjectId, trace: GestureTrace) -> Result<()> {
        self.run_trace_traced(object, trace, None)
    }

    /// [`SessionHandle::run_trace`] carrying a wire-propagated trace context:
    /// the worker adopts the client's trace and root-span ids, so the span
    /// tree it retains is addressable by the ids the client stamped.
    pub fn run_trace_traced(
        &self,
        object: ObjectId,
        trace: GestureTrace,
        wire: Option<WireTraceContext>,
    ) -> Result<()> {
        self.submit(SessionEvent::RunTrace {
            object,
            trace,
            wire,
            enqueued: Instant::now(),
        })
    }

    /// Wait for everything submitted so far to finish and return a copy of
    /// the session's report.
    pub fn snapshot(&self) -> Result<SessionReport> {
        let (reply, receive) = sync_channel(1);
        self.submit(SessionEvent::Snapshot { reply })?;
        receive
            .recv()
            .map_err(|_| DbTouchError::Internal("exploration server has shut down".into()))
    }

    /// Wait for everything submitted so far to finish, tear the session down
    /// and return its final report.
    pub fn close(mut self) -> Result<SessionReport> {
        let (reply, receive) = sync_channel(1);
        self.submit(SessionEvent::Close { reply })?;
        self.closed = true;
        receive
            .recv()
            .map_err(|_| DbTouchError::Internal("exploration server has shut down".into()))
    }
}

impl Drop for SessionHandle {
    fn drop(&mut self) {
        if !self.closed {
            // Best-effort teardown so a leaked handle does not leave session
            // state resident in its worker for the server's lifetime.
            let (reply, _discard) = sync_channel(1);
            let _ = self.sender.send(Envelope::Event {
                session: self.id,
                gate: Arc::clone(&self.gate),
                event: SessionEvent::Close { reply },
            });
        }
    }
}

struct WorkerHandle {
    sender: Option<Sender<Envelope>>,
    join: Option<JoinHandle<()>>,
    /// Sessions currently pinned to this worker: incremented at
    /// `open_session`, decremented when the worker processes the session's
    /// `Close`. Drives least-loaded placement.
    live_sessions: Arc<AtomicUsize>,
}

/// A concurrent multi-session exploration service over one shared catalog.
///
/// ```
/// use dbtouch_core::catalog::SharedCatalog;
/// use dbtouch_core::kernel::TouchAction;
/// use dbtouch_gesture::synthesizer::GestureSynthesizer;
/// use dbtouch_server::{ExplorationServer, ServerConfig};
/// use dbtouch_types::{KernelConfig, SizeCm};
/// use std::sync::Arc;
///
/// let catalog = Arc::new(SharedCatalog::new(KernelConfig::default()));
/// let object = catalog
///     .load_column("readings", (0..50_000).collect(), SizeCm::new(2.0, 10.0))
///     .unwrap();
/// let view = catalog.data(object).unwrap().base_view().clone();
///
/// let server =
///     ExplorationServer::serve(ServerConfig::with_workers(2).with_catalog(Arc::clone(&catalog)))
///         .unwrap();
/// let session = server.open_session();
/// session.set_action(object, TouchAction::Scan).unwrap();
/// session
///     .run_trace(object, GestureSynthesizer::new(60.0).slide_down(&view, 0.5))
///     .unwrap();
/// let report = session.close().unwrap();
/// assert!(report.total_entries() > 0);
/// assert!(report.errors.is_empty());
/// server.shutdown();
/// ```
pub struct ExplorationServer {
    catalog: Arc<SharedCatalog>,
    workers: Vec<WorkerHandle>,
    queue_depth: usize,
    next_session: AtomicU64,
    next_worker: AtomicUsize,
    instruments: Arc<ServerInstruments>,
}

impl ExplorationServer {
    /// The one entry point: validate `config`, resolve the catalog it names
    /// (an existing [`ServerConfig::catalog`], the persistent
    /// [`ServerConfig::catalog_dir`] opened with [`ServerConfig::kernel`], or
    /// a fresh memory-only catalog) and spawn the worker pool over it.
    pub fn serve(config: ServerConfig) -> Result<ExplorationServer> {
        config.validate()?;
        let catalog = match (&config.catalog, &config.catalog_dir) {
            (Some(catalog), None) => Arc::clone(catalog),
            (None, Some(dir)) => Arc::new(SharedCatalog::open(dir, config.kernel.clone())?),
            (None, None) => Arc::new(SharedCatalog::new(config.kernel.clone())),
            (Some(_), Some(_)) => unreachable!("validate() rejects catalog + catalog_dir"),
        };
        Ok(ExplorationServer::spawn(catalog, &config))
    }

    fn spawn(catalog: Arc<SharedCatalog>, config: &ServerConfig) -> ExplorationServer {
        let instruments = Arc::new(ServerInstruments::default());
        catalog
            .telemetry()
            .register(Arc::clone(&instruments) as Arc<dyn dbtouch_obs::MetricSource>);
        let workers = (0..config.worker_threads.max(1))
            .map(|index| {
                let (sender, receiver) = channel();
                let catalog = Arc::clone(&catalog);
                let live_sessions = Arc::new(AtomicUsize::new(0));
                let live = Arc::clone(&live_sessions);
                let instruments = Arc::clone(&instruments);
                let join = std::thread::Builder::new()
                    .name(format!("dbtouch-worker-{index}"))
                    .spawn(move || worker_loop(catalog, receiver, live, instruments))
                    .expect("spawn worker thread");
                WorkerHandle {
                    sender: Some(sender),
                    join: Some(join),
                    live_sessions,
                }
            })
            .collect();
        ExplorationServer {
            catalog,
            workers,
            queue_depth: config.session_queue_depth,
            next_session: AtomicU64::new(1),
            next_worker: AtomicUsize::new(0),
            instruments,
        }
    }

    /// The catalog this server serves.
    pub fn catalog(&self) -> &Arc<SharedCatalog> {
        &self.catalog
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Open a new exploration session, pinned to the worker currently
    /// serving the fewest live sessions. Ties are broken round-robin, so
    /// uniform load degenerates to the classic rotation while skewed load
    /// (long-lived sessions piling up on one worker) steers new sessions to
    /// the idle workers — the first concrete step toward session migration.
    pub fn open_session(&self) -> SessionHandle {
        let id = self.next_session.fetch_add(1, Ordering::Relaxed);
        let start = self.next_worker.fetch_add(1, Ordering::Relaxed);
        let count = self.workers.len();
        let worker = (0..count)
            .map(|offset| (start + offset) % count)
            .min_by_key(|&index| self.workers[index].live_sessions.load(Ordering::Relaxed))
            .expect("at least one worker");
        // checked_add leaves a poisoned (usize::MAX) counter of a panicked
        // worker untouched instead of wrapping it back to an attractive 0.
        if let Ok(previous) = self.workers[worker].live_sessions.fetch_update(
            Ordering::Relaxed,
            Ordering::Relaxed,
            |live| live.checked_add(1),
        ) {
            self.instruments
                .peak_worker_load
                .observe(previous as u64 + 1);
        }
        self.instruments.sessions_opened.inc();
        // Poisoned (usize::MAX) counters of dead workers are excluded: they
        // mark a worker as unroutable, not billions of live sessions.
        let live_total: u64 = self
            .workers
            .iter()
            .map(|w| w.live_sessions.load(Ordering::Relaxed))
            .filter(|&l| l != usize::MAX)
            .map(|l| l as u64)
            .sum();
        self.instruments.peak_live_sessions.observe(live_total);
        SessionHandle {
            id,
            sender: self.workers[worker].sender.clone().expect("server running"),
            gate: Arc::new(QueueGate::new(self.queue_depth)),
            closed: false,
        }
    }

    /// Live sessions currently pinned to each worker, in worker order.
    pub fn worker_loads(&self) -> Vec<usize> {
        self.workers
            .iter()
            .map(|w| w.live_sessions.load(Ordering::Relaxed))
            .collect()
    }

    /// A typed point-in-time metrics snapshot: every registered source
    /// (server counters, catalog gauges, pager, caches, remote executor),
    /// the recent trace-event window, and the per-worker loads. Safe to
    /// take mid-run — scraping never blocks serving.
    pub fn metrics_snapshot(&self) -> ServerMetricsSnapshot {
        ServerMetricsSnapshot {
            worker_loads: self.worker_loads(),
            inner: self.catalog.telemetry().snapshot(),
        }
    }

    /// Stop serving and join the workers. Queued-but-unprocessed events are
    /// discarded; session handles still alive get "server has shut down"
    /// errors from further submissions instead of blocking.
    pub fn shutdown(mut self) {
        self.join_workers();
    }

    fn join_workers(&mut self) {
        // An explicit Terminate (rather than relying on channel disconnect)
        // lets workers exit even while session handles still hold Sender
        // clones of their queues.
        for worker in &mut self.workers {
            if let Some(sender) = &worker.sender {
                let _ = sender.send(Envelope::Terminate);
            }
        }
        for worker in &mut self.workers {
            if let Some(join) = worker.join.take() {
                let _ = join.join();
            }
            worker.sender = None;
        }
    }
}

impl Drop for ExplorationServer {
    fn drop(&mut self) {
        self.join_workers();
    }
}

/// Per-session state owned by a worker.
#[derive(Default)]
struct SessionSlot {
    states: HashMap<ObjectId, ObjectState>,
    report: SessionReport,
    /// The one completion queue all of this session's states feed (created
    /// lazily when the session first touches a remote-split object), so the
    /// worker drains a single queue per session at event boundaries.
    remote_queue: Option<Arc<CompletionQueue>>,
    /// In-flight refinement tickets → (index of the trace outcome they
    /// patch, telemetry trace id of the issuing trace).
    outstanding: HashMap<u64, (usize, u64)>,
}

impl SessionSlot {
    /// Checkout-or-reuse the session's state for `object`, applying the
    /// gesture-boundary epoch refresh: an existing state observes the newest
    /// catalog epoch (rebuilding against restructured data, counting it in
    /// `restructures_seen`); a fresh checkout is already at the newest epoch.
    /// A state whose object was removed from the catalog is dropped and the
    /// lookup fails. Remote-split states are pointed at the session's shared
    /// completion queue before they can submit anything.
    fn boundary_state<'a>(
        states: &'a mut HashMap<ObjectId, ObjectState>,
        remote_queue: &mut Option<Arc<CompletionQueue>>,
        catalog: &SharedCatalog,
        object: ObjectId,
        restructures_seen: &mut u64,
    ) -> Result<&'a mut ObjectState> {
        use std::collections::hash_map::Entry;
        let state = match states.entry(object) {
            Entry::Occupied(mut entry) => match entry.get_mut().refresh(catalog) {
                Ok(rebuilt) => {
                    if rebuilt {
                        *restructures_seen += 1;
                    }
                    entry.into_mut()
                }
                Err(e) => {
                    entry.remove();
                    return Err(e);
                }
            },
            Entry::Vacant(entry) => entry.insert(catalog.checkout(object)?),
        };
        if state.remote_tier().is_some() {
            let queue = remote_queue.get_or_insert_with(|| Arc::new(CompletionQueue::new()));
            state.set_remote_queue(Arc::clone(queue));
        }
        Ok(state)
    }

    /// Apply one completion to the trace outcome it refines, recording its
    /// real latency. Completions whose ticket is unknown (their trace
    /// errored before its outcome was recorded) are discarded.
    fn apply_remote(&mut self, completion: RemoteCompletion, telemetry: &Telemetry) {
        let ticket = completion.ticket;
        let Some((trace_index, trace_id)) = self.outstanding.remove(&ticket) else {
            return;
        };
        let latency_nanos = completion.submitted.elapsed().as_nanos() as u64;
        let outcome = &mut self.report.outcomes[trace_index].outcome;
        // Refinements land at later event boundaries, outside their issuing
        // trace's scope: link each back to its originating touch span — even
        // when the touch already answered and its tree was retained (marked
        // late).
        let landed = telemetry.now_nanos();
        telemetry.spans().record_late_span(
            self.report.session_id,
            trace_id,
            "refinement",
            landed.saturating_sub(latency_nanos),
            latency_nanos,
            ticket,
        );
        match remote_exec::apply_completion(outcome, completion) {
            Ok(RefinementApplied::Applied { .. } | RefinementApplied::DroppedStaleBuild) => {
                self.report.refinement_latencies.push(latency_nanos)
            }
            Ok(RefinementApplied::UnknownTicket) => {}
            Err(e) => self.report.errors.push(format!("refinement {ticket}: {e}")),
        }
    }

    /// Drain the session's completion queue. Between events this is
    /// non-blocking (apply whatever is ready, keep serving); at a barrier
    /// (snapshot/close) it waits until every outstanding refinement landed —
    /// the stall, if any, is charged to `refinement_blocked_nanos`.
    fn drain_remote(&mut self, barrier: bool, telemetry: &Telemetry) {
        if self.remote_queue.is_none() {
            return;
        }
        let queue = Arc::clone(self.remote_queue.as_ref().expect("checked above"));
        for completion in queue.drain_ready() {
            self.apply_remote(completion, telemetry);
        }
        if !barrier || self.outstanding.is_empty() {
            return;
        }
        let stalled = Instant::now();
        while !self.outstanding.is_empty() {
            for completion in queue.wait_ready(Duration::from_millis(20)) {
                self.apply_remote(completion, telemetry);
            }
        }
        self.report.refinement_blocked_nanos += stalled.elapsed().as_nanos() as u64;
    }
}

fn worker_loop(
    catalog: Arc<SharedCatalog>,
    receiver: Receiver<Envelope>,
    live_sessions: Arc<AtomicUsize>,
    instruments: Arc<ServerInstruments>,
) {
    let mut gates: HashMap<SessionId, Arc<QueueGate>> = HashMap::new();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        serve(
            &catalog,
            &receiver,
            &mut gates,
            &live_sessions,
            &instruments,
        )
    }));
    // Whether the loop ended by Terminate, channel disconnect or a panic
    // inside per-touch processing: drain what is still queued and close every
    // gate this worker has seen, so no producer stays blocked in
    // `QueueGate::acquire` waiting for a worker that is gone.
    while let Ok(envelope) = receiver.try_recv() {
        if let Envelope::Event { gate, .. } = envelope {
            gate.release();
            gate.close();
        }
    }
    for gate in gates.values() {
        gate.close();
    }
    if let Err(panic) = outcome {
        // A dead worker can never serve another session: poison its load
        // counter so least-loaded placement stops routing new sessions to it
        // (its real count could otherwise look attractively low forever,
        // since nothing will ever process its queued Close events).
        live_sessions.store(usize::MAX, Ordering::Relaxed);
        let name = std::thread::current()
            .name()
            .unwrap_or("dbtouch-worker")
            .to_string();
        eprintln!("{name}: worker panicked; its sessions are closed: {panic:?}");
    }
}

fn serve(
    catalog: &Arc<SharedCatalog>,
    receiver: &Receiver<Envelope>,
    gates: &mut HashMap<SessionId, Arc<QueueGate>>,
    live_sessions: &AtomicUsize,
    instruments: &ServerInstruments,
) {
    let config = catalog.config().clone();
    let telemetry = Arc::clone(catalog.telemetry());
    let mut sessions: HashMap<SessionId, SessionSlot> = HashMap::new();
    while let Ok(envelope) = receiver.recv() {
        let Envelope::Event {
            session,
            gate,
            event,
        } = envelope
        else {
            break; // Terminate
        };
        gates.entry(session).or_insert_with(|| Arc::clone(&gate));
        let slot = sessions.entry(session).or_insert_with(|| SessionSlot {
            report: SessionReport {
                session_id: session,
                ..SessionReport::default()
            },
            ..SessionSlot::default()
        });
        // Every event is a boundary: land whatever refinements are ready
        // before processing it (never blocking — overlap is the point).
        slot.drain_remote(false, &telemetry);
        match event {
            SessionEvent::SetAction { object, action } => {
                let report = &mut slot.report;
                let applied = SessionSlot::boundary_state(
                    &mut slot.states,
                    &mut slot.remote_queue,
                    catalog,
                    object,
                    &mut report.restructures_seen,
                )
                .and_then(|state| {
                    // Validate against the schema the action will actually
                    // run under — the state observed the newest epoch above.
                    validate_action(&action, state.data().schema())?;
                    state.set_action(action);
                    Ok(())
                });
                if let Err(e) = applied {
                    instruments.trace_errors.inc();
                    report
                        .errors
                        .push(format!("set_action on object {}: {e}", object.0));
                }
            }
            SessionEvent::RunTrace {
                object,
                trace,
                wire,
                enqueued,
            } => {
                // The whole trace runs under one span tree. A wire-propagated
                // context is adopted verbatim so the tree keeps the ids the
                // client stamped.
                let queue_wait_nanos = enqueued.elapsed().as_nanos() as u64;
                let trace_id = wire.map_or_else(|| telemetry.mint_trace(), |w| w.trace);
                let spans = telemetry.spans();
                let now = telemetry.now_nanos();
                // Wire traces already opened their root at frame decode
                // (ensure_root is idempotent); in-process traces open it
                // here, backdated to when the event was enqueued.
                spans.ensure_root(
                    session,
                    trace_id,
                    wire.map_or(0, |w| w.root_span),
                    now.saturating_sub(queue_wait_nanos),
                );
                spans.record_span(
                    session,
                    trace_id,
                    0,
                    "queue_wait",
                    now.saturating_sub(queue_wait_nanos),
                    queue_wait_nanos,
                    0,
                );
                let service_span =
                    spans.open_span(session, trace_id, 0, "service", now, trace.len() as u64);
                if service_span != 0 {
                    // Fan-out (morsel helpers) captures this context, so
                    // stolen-segment spans nest under the service span.
                    set_trace_ctx_span(session, trace_id, service_span);
                }
                let report = &mut slot.report;
                match SessionSlot::boundary_state(
                    &mut slot.states,
                    &mut slot.remote_queue,
                    catalog,
                    object,
                    &mut report.restructures_seen,
                ) {
                    Ok(state) => {
                        let started = Instant::now();
                        let epoch = state.epoch();
                        match Session::new(state, &config).run(&trace) {
                            Ok(outcome) => {
                                let nanos = started.elapsed().as_nanos() as u64;
                                let mean = nanos / (trace.len() as u64).max(1);
                                report.latency_hist.record(mean);
                                report.max_touch_nanos = report
                                    .max_touch_nanos
                                    .max(outcome.stats.max_touch_nanos.max(mean));
                                instruments.record_trace(&outcome.stats, mean);
                                report.epochs.push(epoch);
                                // Refinements of this trace are in flight:
                                // remember which outcome each ticket patches
                                // and keep serving — they land at later
                                // boundaries (or the snapshot/close barrier).
                                let trace_index = report.outcomes.len();
                                for pending in &outcome.pending {
                                    slot.outstanding
                                        .insert(pending.ticket, (trace_index, trace_id));
                                }
                                report.outcomes.push(TraceOutcome { object, outcome });
                            }
                            Err(e) => {
                                instruments.trace_errors.inc();
                                report
                                    .errors
                                    .push(format!("trace over object {}: {e}", object.0))
                            }
                        }
                    }
                    Err(e) => {
                        instruments.trace_errors.inc();
                        report
                            .errors
                            .push(format!("checkout of object {}: {e}", object.0))
                    }
                }
                let end = telemetry.now_nanos();
                spans.close_span(session, trace_id, service_span, end);
                // Tail/head-sample the finished tree into the retained ring.
                spans.trace_finish(session, trace_id, end);
                clear_trace_ctx();
            }
            SessionEvent::Snapshot { reply } => {
                // A barrier: the snapshot is fully refined.
                slot.drain_remote(true, &telemetry);
                let _ = reply.send(slot.report.clone());
            }
            SessionEvent::Close { reply } => {
                let mut slot = sessions.remove(&session).expect("slot exists");
                // Final barrier: the report handed back is fully refined and
                // digest-stable.
                slot.drain_remote(true, &telemetry);
                instruments.sessions_closed.inc();
                // The handle is consumed by close() (or gone, on the Drop
                // path), so nobody can block on this gate again: drop it from
                // the registry rather than retaining one entry per session
                // ever served.
                gates.remove(&session);
                live_sessions.fetch_sub(1, Ordering::Relaxed);
                let _ = reply.send(slot.report);
            }
        }
        gate.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::digest_outcomes;
    use dbtouch_core::operators::aggregate::AggregateKind;
    use dbtouch_gesture::synthesizer::GestureSynthesizer;
    use dbtouch_types::{KernelConfig, SizeCm};

    fn catalog_with_column(rows: i64) -> (Arc<SharedCatalog>, ObjectId) {
        let catalog = Arc::new(SharedCatalog::new(KernelConfig::default()));
        let id = catalog
            .load_column("col", (0..rows).collect(), SizeCm::new(2.0, 10.0))
            .unwrap();
        (catalog, id)
    }

    #[test]
    fn open_serves_a_persistent_catalog_across_restarts() {
        let dir =
            std::env::temp_dir().join(format!("dbtouch-server-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = || ServerConfig::with_workers(2).with_catalog_dir(&dir);

        // First service lifetime: create, load, serve, restructure.
        let first = ExplorationServer::serve(config()).unwrap();
        let id = first
            .catalog()
            .load_column("col", (0..50_000).collect(), SizeCm::new(2.0, 10.0))
            .unwrap();
        let view = first.catalog().data(id).unwrap().base_view().clone();
        let trace = GestureSynthesizer::new(60.0).slide_down(&view, 1.0);
        let session = first.open_session();
        session
            .set_action(
                id,
                TouchAction::Summary {
                    half_window: Some(25),
                    kind: AggregateKind::Avg,
                },
            )
            .unwrap();
        session.run_trace(id, trace.clone()).unwrap();
        let before = session.close().unwrap();
        assert!(before.errors.is_empty(), "{:?}", before.errors);
        let epoch = first.catalog().epoch();
        first.shutdown();

        // Second service lifetime: open resumes the persisted epoch and the
        // same trace produces the identical digest from paged storage.
        let second = ExplorationServer::serve(config()).unwrap();
        assert_eq!(second.catalog().epoch(), epoch);
        assert_eq!(
            second.catalog().catalog_dir().as_deref(),
            Some(dir.as_path())
        );
        let id = second.catalog().object_id("col").unwrap();
        let session = second.open_session();
        session
            .set_action(
                id,
                TouchAction::Summary {
                    half_window: Some(25),
                    kind: AggregateKind::Avg,
                },
            )
            .unwrap();
        session.run_trace(id, trace).unwrap();
        let after = session.close().unwrap();
        assert!(after.errors.is_empty(), "{:?}", after.errors);
        assert_eq!(after.result_digest(), before.result_digest());
        assert!(
            second.catalog().pager_stats().unwrap().faults > 0,
            "reopened service must stream pages"
        );
        second.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn single_session_round_trip() {
        let (catalog, id) = catalog_with_column(100_000);
        let view = catalog.data(id).unwrap().base_view().clone();
        let server = ExplorationServer::serve(
            ServerConfig::with_workers(2).with_catalog(Arc::clone(&catalog)),
        )
        .unwrap();
        let session = server.open_session();
        session
            .run_trace(id, GestureSynthesizer::new(60.0).slide_down(&view, 1.0))
            .unwrap();
        let report = session.close().unwrap();
        assert_eq!(report.traces_run(), 1);
        assert!(report.total_entries() > 0);
        assert!(report.errors.is_empty());
        assert_eq!(report.latency_summary().count, 1);
        assert!(report.latency_summary().max_nanos > 0);
        server.shutdown();
    }

    #[test]
    fn sessions_are_isolated() {
        let (catalog, id) = catalog_with_column(50_000);
        let view = catalog.data(id).unwrap().base_view().clone();
        let server = ExplorationServer::serve(
            ServerConfig::with_workers(2).with_catalog(Arc::clone(&catalog)),
        )
        .unwrap();
        let scan = server.open_session();
        let agg = server.open_session();
        agg.set_action(id, TouchAction::Aggregate(AggregateKind::Avg))
            .unwrap();
        let trace = GestureSynthesizer::new(60.0).slide_down(&view, 1.0);
        scan.run_trace(id, trace.clone()).unwrap();
        agg.run_trace(id, trace).unwrap();
        let scan_report = scan.close().unwrap();
        let agg_report = agg.close().unwrap();
        assert!(scan_report.outcomes[0].outcome.final_aggregate.is_none());
        assert!(agg_report.outcomes[0].outcome.final_aggregate.is_some());
        server.shutdown();
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let (catalog, id) = catalog_with_column(1_000);
        let view = catalog.data(id).unwrap().base_view().clone();
        let server =
            ExplorationServer::serve(ServerConfig::with_workers(1).with_catalog(catalog)).unwrap();
        let session = server.open_session();
        // Unknown object: recorded, session continues.
        session
            .run_trace(
                ObjectId(99),
                GestureSynthesizer::new(60.0).slide_down(&view, 0.2),
            )
            .unwrap();
        // Invalid action for the schema on a valid object.
        session
            .set_action(
                id,
                TouchAction::GroupBy {
                    group_attribute: 0,
                    value_attribute: 9,
                    kind: AggregateKind::Sum,
                },
            )
            .unwrap();
        session
            .run_trace(id, GestureSynthesizer::new(60.0).slide_down(&view, 0.2))
            .unwrap();
        let report = session.close().unwrap();
        assert_eq!(report.errors.len(), 2, "errors: {:?}", report.errors);
        assert_eq!(report.traces_run(), 1); // the valid trace still ran
        server.shutdown();
    }

    #[test]
    fn snapshot_is_a_barrier() {
        let (catalog, id) = catalog_with_column(200_000);
        let view = catalog.data(id).unwrap().base_view().clone();
        let server =
            ExplorationServer::serve(ServerConfig::with_workers(1).with_catalog(catalog)).unwrap();
        let session = server.open_session();
        for _ in 0..5 {
            session
                .run_trace(id, GestureSynthesizer::new(60.0).slide_down(&view, 0.5))
                .unwrap();
        }
        let snapshot = session.snapshot().unwrap();
        assert_eq!(snapshot.traces_run(), 5);
        let report = session.close().unwrap();
        assert_eq!(report.traces_run(), 5);
        server.shutdown();
    }

    #[test]
    fn backpressure_bounds_the_queue() {
        let (catalog, id) = catalog_with_column(500_000);
        let view = catalog.data(id).unwrap().base_view().clone();
        let server = ExplorationServer::serve(ServerConfig {
            worker_threads: 1,
            session_queue_depth: 2,
            ..ServerConfig::default().with_catalog(catalog)
        })
        .unwrap();
        let session = server.open_session();
        // Many more submissions than the depth: finishes only if the worker
        // drains while we block, and every trace must be accounted for.
        for _ in 0..20 {
            session
                .run_trace(id, GestureSynthesizer::new(60.0).slide_down(&view, 0.3))
                .unwrap();
        }
        let report = session.close().unwrap();
        assert_eq!(report.traces_run(), 20);
        server.shutdown();
    }

    #[test]
    fn shutdown_with_live_handle_does_not_hang() {
        let (catalog, id) = catalog_with_column(10_000);
        let view = catalog.data(id).unwrap().base_view().clone();
        let server =
            ExplorationServer::serve(ServerConfig::with_workers(2).with_catalog(catalog)).unwrap();
        let session = server.open_session();
        session
            .run_trace(id, GestureSynthesizer::new(60.0).slide_down(&view, 0.2))
            .unwrap();
        // The handle is still alive (holds a Sender clone): shutdown must
        // still terminate the workers...
        server.shutdown();
        // ...and the orphaned handle must get errors, not block forever.
        let err = session.run_trace(id, GestureSynthesizer::new(60.0).slide_down(&view, 0.2));
        assert!(err.is_err());
        assert!(session.snapshot().is_err());
    }

    #[test]
    fn backpressured_producer_is_released_on_shutdown() {
        let (catalog, id) = catalog_with_column(400_000);
        let view = catalog.data(id).unwrap().base_view().clone();
        let server = ExplorationServer::serve(ServerConfig {
            worker_threads: 1,
            session_queue_depth: 1,
            ..ServerConfig::default().with_catalog(catalog)
        })
        .unwrap();
        let session = server.open_session();
        let producer = std::thread::spawn(move || {
            // Depth 1: this producer spends most of its time blocked in the
            // gate. Once the server shuts down it must get errors instead of
            // hanging; early submissions may succeed. The workload is sized
            // to take far longer than the sleep below, so the shutdown always
            // lands mid-stream.
            let mut errors = 0;
            for _ in 0..400 {
                if session
                    .run_trace(id, GestureSynthesizer::new(60.0).slide_down(&view, 2.0))
                    .is_err()
                {
                    errors += 1;
                }
            }
            drop(session);
            errors
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        server.shutdown();
        let errors = producer.join().expect("producer must terminate");
        assert!(errors > 0, "late submissions should error after shutdown");
    }

    #[test]
    fn sessions_go_to_the_least_loaded_worker() {
        let (catalog, _id) = catalog_with_column(1_000);
        let server =
            ExplorationServer::serve(ServerConfig::with_workers(2).with_catalog(catalog)).unwrap();
        assert_eq!(server.worker_loads(), vec![0, 0]);
        let s1 = server.open_session();
        let s2 = server.open_session();
        assert_eq!(server.worker_loads(), vec![1, 1], "ties rotate round-robin");
        // Free worker 0 (close() is synchronous: the worker has processed the
        // Close — and decremented its load — before it returns).
        s1.close().unwrap();
        assert_eq!(server.worker_loads().iter().sum::<usize>(), 1);
        // The next two sessions must rebalance to [2, 1]+[0, 0]… i.e. end
        // even at 2 total, not pile onto the round-robin cursor's pick.
        let _s3 = server.open_session();
        assert_eq!(server.worker_loads().iter().sum::<usize>(), 2);
        assert_eq!(
            server.worker_loads(),
            vec![1, 1],
            "new session must fill the idle worker, not follow round-robin"
        );
        drop(s2);
        server.shutdown();
    }

    #[test]
    fn skewed_closes_keep_steering_new_sessions_to_idle_workers() {
        let (catalog, _id) = catalog_with_column(1_000);
        let server =
            ExplorationServer::serve(ServerConfig::with_workers(3).with_catalog(catalog)).unwrap();
        // Eight long-lived sessions spread 3/3/2 by the tiebreak rotation.
        let sessions: Vec<_> = (0..8).map(|_| server.open_session()).collect();
        let loads = server.worker_loads();
        assert_eq!(loads.iter().sum::<usize>(), 8);
        assert!(loads.iter().all(|&l| l >= 2));
        for s in sessions {
            s.close().unwrap();
        }
        assert_eq!(server.worker_loads(), vec![0, 0, 0]);
        server.shutdown();
    }

    #[test]
    fn live_sessions_observe_restructures_at_gesture_boundaries() {
        let catalog = Arc::new(SharedCatalog::new(KernelConfig::default()));
        let table = dbtouch_storage::table::Table::from_columns(
            "t",
            vec![
                dbtouch_storage::column::Column::from_i64("id", (0..20_000).collect()),
                dbtouch_storage::column::Column::from_f64(
                    "v",
                    (0..20_000).map(|i| i as f64).collect(),
                ),
            ],
        )
        .unwrap();
        let tid = catalog.load_table(table, SizeCm::new(6.0, 10.0)).unwrap();
        let view = catalog.data(tid).unwrap().base_view().clone();
        let server = ExplorationServer::serve(
            ServerConfig::with_workers(1).with_catalog(Arc::clone(&catalog)),
        )
        .unwrap();
        let session = server.open_session();
        session.set_action(tid, TouchAction::Tuple).unwrap();
        session
            .run_trace(tid, GestureSynthesizer::new(60.0).slide_down(&view, 0.3))
            .unwrap();
        // Barrier, then restructure: the next trace must observe it.
        let before = session.snapshot().unwrap();
        assert_eq!(before.restructures_seen, 0);
        catalog
            .drag_column_out(tid, "v", SizeCm::new(2.0, 10.0))
            .unwrap();
        session
            .run_trace(tid, GestureSynthesizer::new(60.0).slide_down(&view, 0.3))
            .unwrap();
        let report = session.close().unwrap();
        assert!(report.errors.is_empty(), "errors: {:?}", report.errors);
        assert_eq!(report.restructures_seen, 1);
        assert_eq!(report.epochs.len(), 2);
        assert!(
            report.epochs[1] > report.epochs[0],
            "epochs: {:?}",
            report.epochs
        );
        // First trace saw both columns, second only the remaining one.
        assert_eq!(
            report.outcomes[0].outcome.results.results()[0].values.len(),
            2
        );
        assert_eq!(
            report.outcomes[1].outcome.results.results()[0].values.len(),
            1
        );
        server.shutdown();
    }

    #[test]
    fn removed_objects_error_without_killing_the_session() {
        let catalog = Arc::new(SharedCatalog::new(KernelConfig::default()));
        let table = dbtouch_storage::table::Table::from_columns(
            "t",
            vec![
                dbtouch_storage::column::Column::from_i64("id", (0..5_000).collect()),
                dbtouch_storage::column::Column::from_f64(
                    "v",
                    (0..5_000).map(|i| i as f64).collect(),
                ),
            ],
        )
        .unwrap();
        let tid = catalog.load_table(table, SizeCm::new(6.0, 10.0)).unwrap();
        let cid = catalog
            .drag_column_out(tid, "v", SizeCm::new(2.0, 10.0))
            .unwrap();
        let column_view = catalog.data(cid).unwrap().base_view().clone();
        let server = ExplorationServer::serve(
            ServerConfig::with_workers(1).with_catalog(Arc::clone(&catalog)),
        )
        .unwrap();
        let session = server.open_session();
        session
            .run_trace(
                cid,
                GestureSynthesizer::new(60.0).slide_down(&column_view, 0.2),
            )
            .unwrap();
        assert!(session.snapshot().unwrap().errors.is_empty());
        // Merge the column back: its object is removed from the catalog.
        catalog.drag_column_into(tid, cid).unwrap();
        session
            .run_trace(
                cid,
                GestureSynthesizer::new(60.0).slide_down(&column_view, 0.2),
            )
            .unwrap();
        // The session keeps serving other objects.
        let table_view = catalog.data(tid).unwrap().base_view().clone();
        session
            .run_trace(
                tid,
                GestureSynthesizer::new(60.0).slide_down(&table_view, 0.2),
            )
            .unwrap();
        let report = session.close().unwrap();
        assert_eq!(report.errors.len(), 1, "errors: {:?}", report.errors);
        assert_eq!(report.traces_run(), 2);
        server.shutdown();
    }

    #[test]
    fn served_remote_sessions_drain_at_barriers_and_match_all_local() {
        use dbtouch_core::kernel::Kernel;
        use dbtouch_types::RemoteSplitConfig;

        let split = RemoteSplitConfig::default()
            .with_local_min_level(11)
            .with_network(5_000, 10_000);
        let remote_catalog = Arc::new(SharedCatalog::new(
            KernelConfig::default()
                .with_sample_levels(12)
                .with_remote_split(Some(split)),
        ));
        let local_catalog = Arc::new(SharedCatalog::new(
            KernelConfig::default().with_sample_levels(12),
        ));
        let rid = remote_catalog
            .load_column("col", (0..200_000).collect(), SizeCm::new(2.0, 10.0))
            .unwrap();
        let lid = local_catalog
            .load_column("col", (0..200_000).collect(), SizeCm::new(2.0, 10.0))
            .unwrap();
        let view = local_catalog.data(lid).unwrap().base_view().clone();
        let action = TouchAction::Summary {
            half_window: Some(5),
            kind: AggregateKind::Avg,
        };
        // One slow (remote) trace, one fast (device-local) trace.
        let slow = GestureSynthesizer::new(60.0).slide_down(&view, 3.0);
        let fast = GestureSynthesizer::new(60.0).slide_down(&view, 0.6);

        let server = ExplorationServer::serve(
            ServerConfig::with_workers(1).with_catalog(Arc::clone(&remote_catalog)),
        )
        .unwrap();
        let session = server.open_session();
        session.set_action(rid, action.clone()).unwrap();
        session.run_trace(rid, slow.clone()).unwrap();
        session.run_trace(rid, fast.clone()).unwrap();
        // The snapshot barrier waits for in-flight refinements: the report it
        // returns is fully refined.
        let snapshot = session.snapshot().unwrap();
        assert!(snapshot.errors.is_empty(), "{:?}", snapshot.errors);
        assert_eq!(snapshot.pending_refinements(), 0);
        let progressive = snapshot.total_remote().progressive_requests;
        assert!(progressive > 20, "slow trace must go remote");
        assert_eq!(snapshot.total_refinements_applied(), progressive);
        assert_eq!(
            snapshot.refinement_latencies.len() as u64,
            progressive,
            "every applied refinement records its real latency"
        );
        assert!(snapshot.mean_refinement_latency_nanos() >= 5_000_000);
        assert_eq!(snapshot.total_refinements_dropped(), 0);
        let report = session.close().unwrap();
        server.shutdown();

        // Bit-identical to the all-local sequential replay.
        let mut kernel = Kernel::from_catalog(local_catalog);
        kernel.set_action(lid, action).unwrap();
        let outcomes = [
            TraceOutcome {
                object: lid,
                outcome: kernel.run_trace(lid, &slow).unwrap(),
            },
            TraceOutcome {
                object: lid,
                outcome: kernel.run_trace(lid, &fast).unwrap(),
            },
        ];
        // Digest object ids differ (rid vs lid) only if the ids differ; both
        // catalogs loaded one column, so both are object 0.
        assert_eq!(rid, lid);
        assert_eq!(report.result_digest(), digest_outcomes(outcomes.iter()));
    }

    #[test]
    fn remote_refinements_land_between_events_without_blocking() {
        use dbtouch_types::RemoteSplitConfig;

        // A fast link: refinements become due almost immediately, so the
        // non-blocking boundary drains (not the close barrier) apply most of
        // them while later traces are still being processed.
        let split = RemoteSplitConfig::default()
            .with_local_min_level(11)
            .with_network(100, 0);
        let catalog = Arc::new(SharedCatalog::new(
            KernelConfig::default()
                .with_sample_levels(12)
                .with_remote_split(Some(split)),
        ));
        let id = catalog
            .load_column("col", (0..200_000).collect(), SizeCm::new(2.0, 10.0))
            .unwrap();
        let view = catalog.data(id).unwrap().base_view().clone();
        let server = ExplorationServer::serve(
            ServerConfig::with_workers(1).with_catalog(Arc::clone(&catalog)),
        )
        .unwrap();
        let session = server.open_session();
        session
            .set_action(
                id,
                TouchAction::Summary {
                    half_window: Some(5),
                    kind: AggregateKind::Avg,
                },
            )
            .unwrap();
        for _ in 0..4 {
            session
                .run_trace(id, GestureSynthesizer::new(60.0).slide_down(&view, 2.8))
                .unwrap();
        }
        let report = session.close().unwrap();
        server.shutdown();
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        assert_eq!(report.pending_refinements(), 0);
        let remote = report.total_remote();
        assert!(remote.progressive_requests > 80);
        assert_eq!(
            report.total_refinements_applied(),
            remote.progressive_requests
        );
        // The worker overlapped nearly all of the simulated wait with real
        // processing: it stalled (if at all) only at the final barrier.
        assert!(
            report.remote_overlap_ratio() > 0.5,
            "overlap ratio {} too low",
            report.remote_overlap_ratio()
        );
        assert_eq!(catalog.remote_executor().unwrap().stats().delivered, {
            let stats = catalog.remote_executor().unwrap().stats();
            stats.submitted
        });
    }

    #[test]
    fn metrics_snapshot_exposes_serving_counters_and_events() {
        let catalog = Arc::new(SharedCatalog::new(
            KernelConfig::default().with_trace_head_sample_every(1),
        ));
        let id = catalog
            .load_column("col", (0..50_000).collect(), SizeCm::new(2.0, 10.0))
            .unwrap();
        let view = catalog.data(id).unwrap().base_view().clone();
        let server = ExplorationServer::serve(
            ServerConfig::with_workers(2).with_catalog(Arc::clone(&catalog)),
        )
        .unwrap();
        let s1 = server.open_session();
        let s2 = server.open_session();
        s1.run_trace(id, GestureSynthesizer::new(60.0).slide_down(&view, 0.5))
            .unwrap();
        s1.snapshot().unwrap(); // barrier: the trace has completed

        let metrics = server.metrics_snapshot();
        assert_eq!(metrics.sessions_served(), 2);
        assert!(metrics.peak_live_sessions() >= 2);
        assert!(metrics.scalar("server.peak_worker_load").unwrap() >= 1);
        assert_eq!(metrics.traces_run(), 1);
        assert!(metrics.scalar("server.touches").unwrap() > 0);
        assert!(metrics.scalar("catalog.epoch").is_some());
        assert_eq!(metrics.worker_loads.len(), 2);
        let hist = metrics.histogram("server.touch_nanos").unwrap();
        assert_eq!(hist.count(), 1);

        // The trace's lifecycle is a finished span tree of the session:
        // head sampling every trace retains it.
        assert_eq!(metrics.scalar("obs.traces_finished"), Some(1));
        let tree = metrics.traces().last().expect("retained span tree");
        assert_eq!(tree.session, s1.id());
        assert!(tree.spans.iter().any(|s| s.name == "service"));

        // Both exposition forms carry the server counters and worker loads.
        let json = metrics.to_json();
        assert!(json.get("worker_loads").is_some());
        assert!(json.get("metrics").unwrap().get("server.traces").is_some());
        let text = metrics.render_text();
        assert!(text.contains("server.traces 1"));
        assert!(text.contains("server.worker_load.0"));

        s1.close().unwrap();
        s2.close().unwrap();
        let after = server.metrics_snapshot();
        assert_eq!(after.scalar("server.sessions_closed"), Some(2));
        // The lifetime total survives the closes; the point-in-time loads
        // are back to zero.
        assert_eq!(after.sessions_served(), 2);
        assert_eq!(after.worker_loads, vec![0, 0]);
        server.shutdown();
    }

    #[test]
    fn morsel_scans_surface_metrics_stamp_traces_and_match_sequential() {
        // Large summary windows over a served catalog with a scan pool: every
        // window fans out over segment morsels, the pool's MetricSource shows
        // up in metrics_snapshot(), helper threads hang their `segments`
        // spans in the issuing session's span tree, and the report digest is
        // bit-identical to the scan_parallelism = 1 run.
        let knobs = |parallelism: usize| KernelConfig {
            touch_budget_micros: 1_000_000,
            ..KernelConfig::default()
                .with_scan_parallelism(parallelism)
                .with_segment_rows(4096)
                .with_adaptive_sampling(false)
                .with_trace_head_sample_every(1)
        };
        let action = TouchAction::Summary {
            half_window: Some(90_000),
            kind: AggregateKind::Avg,
        };
        let run = |parallelism: usize| {
            let catalog = Arc::new(SharedCatalog::new(knobs(parallelism)));
            let id = catalog
                .load_column("col", (0..200_000).collect(), SizeCm::new(2.0, 10.0))
                .unwrap();
            let view = catalog.data(id).unwrap().base_view().clone();
            let server = ExplorationServer::serve(
                ServerConfig::with_workers(2).with_catalog(Arc::clone(&catalog)),
            )
            .unwrap();
            let session = server.open_session();
            let session_id = session.id();
            session.set_action(id, action.clone()).unwrap();
            session
                .run_trace(id, GestureSynthesizer::new(60.0).slide_down(&view, 1.0))
                .unwrap();
            let report = session.close().unwrap();
            assert!(report.errors.is_empty(), "{:?}", report.errors);
            let metrics = server.metrics_snapshot();
            server.shutdown();
            (report, metrics, session_id)
        };

        let (sequential, no_pool_metrics, _) = run(1);
        let (parallel, metrics, session_id) = run(4);

        // scan_parallelism = 1 runs without a pool: no morsel source at all.
        assert_eq!(no_pool_metrics.scalar("morsel.segments_scanned"), None);
        // Both runs decompose identically and prune interior block-aligned
        // segments through the zone-map index.
        for report in [&sequential, &parallel] {
            let stats = &report.outcomes[0].outcome.stats;
            assert!(stats.segments_scanned > 0, "windows must decompose");
            assert!(stats.pruned_segments > 0, "aligned segments must prune");
            assert!(stats.pruned_segments <= stats.segments_scanned);
        }
        let accounting = |report: &SessionReport| {
            let s = &report.outcomes[0].outcome.stats;
            (
                s.touches,
                s.rows_touched,
                s.bytes_touched,
                s.segments_scanned,
                s.pruned_segments,
            )
        };
        assert_eq!(
            accounting(&sequential),
            accounting(&parallel),
            "per-session accounting is parallelism-invariant"
        );

        // The pool's MetricSource is live in the snapshot.
        let scanned = metrics.scalar("morsel.segments_scanned").unwrap();
        let stats = &parallel.outcomes[0].outcome.stats;
        assert_eq!(scanned, stats.segments_scanned);
        assert_eq!(
            metrics.scalar("morsel.pruned_segments"),
            Some(stats.pruned_segments)
        );
        // How many morsels the helpers win is scheduling, not correctness:
        // the counter must be scraped, its value is `touch_budget`'s to report.
        assert!(metrics.scalar("morsel.steals").is_some());
        assert_eq!(
            metrics.scalar("morsel.queue_depth"),
            Some(0),
            "all batches drained at the barrier"
        );

        // Scan batches carry the submitting gesture's trace context, so
        // every `segments` span — stolen or not — sits in a tree of the
        // session, under its service span.
        let segment_trees: Vec<_> = metrics
            .traces()
            .iter()
            .filter(|t| t.spans.iter().any(|s| s.name == "segments"))
            .collect();
        assert!(!segment_trees.is_empty(), "head sampling retains them");
        for tree in segment_trees {
            assert_eq!(tree.session, session_id);
            let service = tree.spans.iter().find(|s| s.name == "service").unwrap();
            for span in tree.spans.iter().filter(|s| s.name == "segments") {
                assert_eq!(span.parent, service.id);
            }
        }

        // The whole report — results, aggregates, accounting — is
        // bit-identical to the sequential run.
        assert_eq!(sequential.result_digest(), parallel.result_digest());
    }

    #[test]
    fn dropped_handle_tears_session_down() {
        let (catalog, id) = catalog_with_column(10_000);
        let view = catalog.data(id).unwrap().base_view().clone();
        let server =
            ExplorationServer::serve(ServerConfig::with_workers(1).with_catalog(catalog)).unwrap();
        {
            let session = server.open_session();
            session
                .run_trace(id, GestureSynthesizer::new(60.0).slide_down(&view, 0.2))
                .unwrap();
            // dropped without close()
        }
        // A later session on the same worker still works.
        let session = server.open_session();
        session
            .run_trace(id, GestureSynthesizer::new(60.0).slide_down(&view, 0.2))
            .unwrap();
        assert_eq!(session.close().unwrap().traces_run(), 1);
        server.shutdown();
    }
}
