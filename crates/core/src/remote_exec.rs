//! Asynchronous remote processing: device/cloud execution with progressive
//! answers (Section 4, "Remote Processing").
//!
//! "dbTouch needs to carefully exploit both local and remote data, i.e., use
//! local data to feed partial answers, while in the mean time more
//! fine-grained answers are produced and delivered by the server."
//!
//! [`crate::remote`] holds the link model and the traffic counters; this
//! module executes the split, and it is the only path a split has. When a
//! catalog runs with a [`dbtouch_types::RemoteSplitConfig`], a session's
//! summary touch at a sample level finer than the device holds answers
//! immediately from the coarsest local level (a *provisional* result) and
//! ships the fine-level request to the [`RemoteExecutor`]:
//!
//! * a bounded I/O thread pool computes the fine window statistics off the
//!   shared immutable [`ObjectData`] (the "server's copy"),
//! * a delay line injects the modelled network latency without occupying a
//!   compute thread (the completion is held until its due time),
//! * the finished [`RemoteCompletion`] lands in the session's
//!   [`CompletionQueue`], where the session's owner (the kernel after a
//!   trace, a server worker at event boundaries) applies it to the issuing
//!   trace's [`SessionOutcome`] — patching the provisional value in place,
//!   charging the deferred rows and re-folding the running aggregate.
//!
//! **Result transparency.** A drained outcome is bit-identical to what the
//! all-local configuration produces: the refinement computes the exact
//! window the session decided, on the exact immutable build the trace ran
//! against, and the [`RefinementLedger`] replays aggregate contributions in
//! touch order (floating-point accumulation order matters). **Epoch
//! safety.** Every refinement is stamped with the immutable build identity it
//! was computed against; a completion whose identity does not match its
//! pending entry — the object was restructured out from under an executor
//! that somehow served a different build — is dropped, never applied.

use crate::catalog::ObjectData;
use crate::operators::aggregate::{AggregateKind, RunningAggregate};
use crate::remote::NetworkModel;
use crate::session::SessionOutcome;
use dbtouch_types::{DbTouchError, Result, RowRange, Value};
use serde::{Deserialize, Serialize};
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The `(count, sum, min, max)` tuple the storage layer produces for a
/// window — what a refinement computes remotely. The same shape the shared
/// result cache stores, reused rather than redefined.
pub use dbtouch_storage::shared_cache::RangeAggregate as RangeStats;

/// The summary value a `(kind, window stats)` pair produces — shared by the
/// session's inline path and the refinement apply path so the two can never
/// diverge.
pub fn summary_value(kind: AggregateKind, stats: &RangeStats) -> Option<f64> {
    match kind {
        AggregateKind::Count => Some(stats.count as f64),
        AggregateKind::Sum => (stats.count > 0).then_some(stats.sum),
        AggregateKind::Avg => (stats.count > 0).then(|| stats.sum / stats.count as f64),
        AggregateKind::Min => stats.min,
        AggregateKind::Max => stats.max,
    }
}

/// One aggregate contribution of a summary session, in touch order.
///
/// Every contribution of a summary session — computed now, or pending a
/// refinement (a capped window folded locally later, or a fine-level window
/// in flight to the remote executor) — is appended here, and the final
/// aggregate is produced by folding the ledger *in order* once every pending
/// slot resolved. This keeps the floating-point accumulation order identical
/// to the all-local, uncapped run no matter when refinements complete.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Contribution {
    /// A contribution whose statistics are known (a window read in full, or
    /// a resolved refinement).
    Ready {
        /// Rows aggregated.
        count: u64,
        /// Sum of the values.
        sum: f64,
        /// Minimum, `None` for empty.
        min: Option<f64>,
        /// Maximum, `None` for empty.
        max: Option<f64>,
    },
    /// A contribution whose refinement is still outstanding.
    Pending {
        /// The executor ticket that will resolve it (0 for a capped local
        /// window, which its own session resolves).
        ticket: u64,
    },
    /// A refinement that was dropped (stale build): excluded from the fold.
    Dropped {
        /// The ticket that was dropped.
        ticket: u64,
    },
}

dbtouch_types::wire_enum!(Contribution {
    0 => Ready { count: u64, sum: f64, min: Option<f64>, max: Option<f64> },
    1 => Pending { ticket: u64 },
    2 => Dropped { ticket: u64 },
});

impl Contribution {
    /// The resolved contribution of a window with these statistics.
    pub(crate) fn ready(stats: &RangeStats) -> Contribution {
        Contribution::Ready {
            count: stats.count,
            sum: stats.sum,
            min: stats.min,
            max: stats.max,
        }
    }
}

/// The ordered aggregate-contribution log of one summary session.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RefinementLedger {
    /// The aggregate kind the session maintains, `None` when the ledger is
    /// inactive (an action other than a summary, or an all-local outcome).
    pub kind: Option<AggregateKind>,
    /// Contributions in touch order.
    pub contribs: Vec<Contribution>,
}

dbtouch_types::wire_struct!(RefinementLedger {
    kind: Option<AggregateKind>,
    contribs: Vec<Contribution>,
});

impl RefinementLedger {
    /// Whether the ledger is collecting contributions.
    pub fn is_active(&self) -> bool {
        self.kind.is_some()
    }

    /// Fold the resolved contributions, in order, into the final aggregate
    /// value (exactly the sequence of batch updates an all-local session
    /// performs inline).
    pub fn fold_value(&self) -> Option<f64> {
        let kind = self.kind?;
        let mut aggregate = RunningAggregate::new(kind);
        for contribution in &self.contribs {
            if let Contribution::Ready {
                count,
                sum,
                min,
                max,
            } = contribution
            {
                aggregate.update_batch(*count, *sum, *min, *max);
            }
        }
        aggregate.value()
    }

    /// Unresolved contributions still awaiting a refinement.
    pub fn pending_count(&self) -> usize {
        self.contribs
            .iter()
            .filter(|c| matches!(c, Contribution::Pending { .. }))
            .count()
    }
}

/// One refinement a session is still waiting for: which provisional result
/// it patches, which ledger slot it resolves, and the immutable build it must
/// match.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PendingRefinement {
    /// The executor ticket of the in-flight request.
    pub ticket: u64,
    /// Identity of the immutable [`ObjectData`] build the request was issued
    /// against; a completion for any other build is dropped.
    pub object_identity: u64,
    /// Index of the provisional result in the outcome's result stream.
    pub result_index: u64,
    /// Index of the `Pending` slot in the outcome's ledger.
    pub contrib_index: u64,
    /// The summary aggregate kind (derives the patched value).
    pub kind: AggregateKind,
    /// The fine sample level the refinement reads.
    pub level: u8,
}

dbtouch_types::wire_struct!(PendingRefinement {
    ticket: u64,
    object_identity: u64,
    result_index: u64,
    contrib_index: u64,
    kind: AggregateKind,
    level: u8,
});

/// A finished remote fetch, delivered to the issuing session's queue once
/// its simulated network latency elapsed.
#[derive(Debug)]
pub struct RemoteCompletion {
    /// The ticket handed out at submission.
    pub ticket: u64,
    /// Identity of the immutable build the statistics were computed on.
    pub object_identity: u64,
    /// The computed window statistics (an error if the remote read failed).
    pub stats: Result<RangeStats>,
    /// The simulated network cost charged to this fetch, in microseconds.
    pub simulated_micros: u64,
    /// When the request was submitted (measures real refinement latency).
    pub submitted: Instant,
}

/// The per-session landing strip for remote completions.
///
/// The executor pushes, the session's owner drains — non-blocking between
/// events ([`drain_ready`](CompletionQueue::drain_ready)), blocking at
/// barriers ([`wait_ready`](CompletionQueue::wait_ready)).
#[derive(Debug, Default)]
pub struct CompletionQueue {
    inner: Mutex<Vec<RemoteCompletion>>,
    ready: Condvar,
}

impl CompletionQueue {
    /// An empty queue.
    pub fn new() -> CompletionQueue {
        CompletionQueue::default()
    }

    /// Deliver a completion (called by the executor's timer thread).
    pub fn push(&self, completion: RemoteCompletion) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.push(completion);
        self.ready.notify_all();
    }

    /// Take every completion currently ready, without blocking.
    pub fn drain_ready(&self) -> Vec<RemoteCompletion> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        std::mem::take(&mut *inner)
    }

    /// Take every ready completion, waiting up to `timeout` when none is.
    pub fn wait_ready(&self, timeout: Duration) -> Vec<RemoteCompletion> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.is_empty() {
            let (guard, _timed_out) = self
                .ready
                .wait_timeout(inner, timeout)
                .unwrap_or_else(|e| e.into_inner());
            inner = guard;
        }
        std::mem::take(&mut *inner)
    }
}

/// One submitted fetch travelling to the I/O pool.
struct IoJob {
    ticket: u64,
    data: Arc<ObjectData>,
    attribute: usize,
    level: u8,
    range: RowRange,
    sink: Arc<CompletionQueue>,
    submitted: Instant,
}

/// A completion waiting in the delay line for its due time.
struct DelayedCompletion {
    due: Instant,
    seq: u64,
    sink: Arc<CompletionQueue>,
    completion: RemoteCompletion,
}

impl PartialEq for DelayedCompletion {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for DelayedCompletion {}
impl PartialOrd for DelayedCompletion {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for DelayedCompletion {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest due first.
        other
            .due
            .cmp(&self.due)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

#[derive(Default)]
struct DelayState {
    heap: BinaryHeap<DelayedCompletion>,
    shutdown: bool,
}

/// The latency-injection stage: completions parked until due, delivered by
/// one timer thread so simulated waiting never occupies an I/O thread.
#[derive(Default)]
struct DelayLine {
    state: Mutex<DelayState>,
    tick: Condvar,
}

impl DelayLine {
    fn push(&self, entry: DelayedCompletion) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.heap.push(entry);
        self.tick.notify_all();
    }

    fn shutdown(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.shutdown = true;
        self.tick.notify_all();
    }

    /// The timer loop: deliver each completion at (or after) its due time;
    /// on shutdown, flush everything immediately so no drain ever hangs.
    fn run(&self, delivered: &AtomicU64) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            let now = Instant::now();
            let due_now = state
                .heap
                .peek()
                .map(|e| state.shutdown || e.due <= now)
                .unwrap_or(false);
            if due_now {
                let entry = state.heap.pop().expect("peeked entry");
                drop(state);
                // Counted before the push: a receiver that already holds the
                // completion must never observe a smaller delivered count.
                delivered.fetch_add(1, Ordering::Relaxed);
                entry.sink.push(entry.completion);
                state = self.state.lock().unwrap_or_else(|e| e.into_inner());
                continue;
            }
            match state.heap.peek() {
                Some(entry) => {
                    let wait = entry.due.saturating_duration_since(now);
                    let (guard, _) = self
                        .tick
                        .wait_timeout(state, wait)
                        .unwrap_or_else(|e| e.into_inner());
                    state = guard;
                }
                None => {
                    if state.shutdown {
                        return;
                    }
                    state = self.tick.wait(state).unwrap_or_else(|e| e.into_inner());
                }
            }
        }
    }
}

/// Counters of the executor's lifetime activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RemoteExecStats {
    /// Fetches submitted.
    pub submitted: u64,
    /// Completions delivered to their session queues.
    pub delivered: u64,
}

/// The bounded I/O thread-pool / completion-queue executor serving remote
/// fetches for every session of one catalog.
///
/// Submission blocks once `queue_depth` fetches are in flight through the
/// pool (backpressure); computed completions move to the delay line until
/// their simulated network latency elapsed, then land in the submitting
/// session's [`CompletionQueue`]. Dropping the executor drains the pool,
/// flushes the delay line and joins every thread — a submitted fetch is
/// always eventually delivered, so drains never hang.
#[derive(Debug)]
pub struct RemoteExecutor {
    submit: Option<SyncSender<IoJob>>,
    network: NetworkModel,
    delay: Arc<DelayLine>,
    io_threads: Vec<JoinHandle<()>>,
    timer: Option<JoinHandle<()>>,
    next_ticket: AtomicU64,
    submitted: AtomicU64,
    delivered: Arc<AtomicU64>,
}

impl std::fmt::Debug for DelayLine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("DelayLine")
    }
}

impl RemoteExecutor {
    /// Spawn the pool: `io_threads` compute threads behind a submission
    /// queue bounded at `queue_depth`, plus the delay-line timer.
    /// `segment_rows` is the window-decomposition unit the "server" computes
    /// with — the same [`crate::morsel::window_stats`] kernel the local scan
    /// path uses, so a refinement is bit-identical to the local answer.
    pub fn start(
        io_threads: usize,
        queue_depth: usize,
        network: NetworkModel,
        segment_rows: u64,
    ) -> RemoteExecutor {
        let (submit, receiver) = sync_channel::<IoJob>(queue_depth.max(1));
        let receiver = Arc::new(Mutex::new(receiver));
        let delay = Arc::new(DelayLine::default());
        let threads = (0..io_threads.max(1))
            .map(|index| {
                let receiver = Arc::clone(&receiver);
                let delay = Arc::clone(&delay);
                std::thread::Builder::new()
                    .name(format!("dbtouch-remote-io-{index}"))
                    .spawn(move || io_loop(&receiver, &delay, network, segment_rows))
                    .expect("spawn remote I/O thread")
            })
            .collect();
        let delivered = Arc::new(AtomicU64::new(0));
        let timer = {
            let delay = Arc::clone(&delay);
            let delivered = Arc::clone(&delivered);
            std::thread::Builder::new()
                .name("dbtouch-remote-timer".into())
                .spawn(move || delay.run(&delivered))
                .expect("spawn remote timer thread")
        };
        RemoteExecutor {
            submit: Some(submit),
            network,
            delay,
            io_threads: threads,
            timer: Some(timer),
            next_ticket: AtomicU64::new(1),
            submitted: AtomicU64::new(0),
            delivered,
        }
    }

    /// The network model latency is injected from.
    pub fn network(&self) -> NetworkModel {
        self.network
    }

    /// Submit a fine-level window fetch. Blocks while the submission queue is
    /// at capacity (backpressure), returns the ticket the completion will
    /// carry. `range` is in `level` coordinates of `attribute`'s hierarchy.
    pub fn submit(
        &self,
        data: Arc<ObjectData>,
        attribute: usize,
        level: u8,
        range: RowRange,
        sink: &Arc<CompletionQueue>,
    ) -> Result<u64> {
        let ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        let job = IoJob {
            ticket,
            data,
            attribute,
            level,
            range,
            sink: Arc::clone(sink),
            submitted: Instant::now(),
        };
        self.submit
            .as_ref()
            .expect("executor running")
            .send(job)
            .map_err(|_| DbTouchError::Internal("remote executor has shut down".into()))?;
        self.submitted.fetch_add(1, Ordering::Relaxed);
        Ok(ticket)
    }

    /// Lifetime counters.
    pub fn stats(&self) -> RemoteExecStats {
        RemoteExecStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            delivered: self.delivered.load(Ordering::Relaxed),
        }
    }
}

impl dbtouch_obs::MetricSource for RemoteExecutor {
    fn source_name(&self) -> &'static str {
        "remote_exec"
    }

    fn collect(&self) -> Vec<(&'static str, dbtouch_obs::MetricValue)> {
        use dbtouch_obs::MetricValue;
        let stats = self.stats();
        vec![
            ("submitted", MetricValue::Counter(stats.submitted)),
            ("delivered", MetricValue::Counter(stats.delivered)),
            // In-flight fetches: submitted but not yet landed in a queue.
            // The two counters are read independently, so clamp at zero.
            (
                "backlog",
                MetricValue::Gauge(stats.submitted.saturating_sub(stats.delivered)),
            ),
        ]
    }
}

impl Drop for RemoteExecutor {
    fn drop(&mut self) {
        // Close the submission channel: I/O threads drain what is queued and
        // exit, having pushed every completion into the delay line.
        self.submit.take();
        for thread in self.io_threads.drain(..) {
            let _ = thread.join();
        }
        // Then flush the delay line (completions deliver immediately,
        // regardless of remaining simulated latency) and stop the timer.
        self.delay.shutdown();
        if let Some(timer) = self.timer.take() {
            let _ = timer.join();
        }
    }
}

fn io_loop(
    receiver: &Mutex<Receiver<IoJob>>,
    delay: &DelayLine,
    network: NetworkModel,
    segment_rows: u64,
) {
    let mut seq = 0u64;
    loop {
        let job = {
            let guard = receiver.lock().unwrap_or_else(|e| e.into_inner());
            guard.recv()
        };
        let Ok(job) = job else { return };
        let stats = compute_window(&job, segment_rows);
        let rows = stats.as_ref().map(|s| s.count).unwrap_or(0);
        let simulated_micros = network.cost_micros(rows);
        // Cap the injected wait so adversarial network models flush instead
        // of parking a completion for centuries.
        let wait = Duration::from_micros(simulated_micros.min(60 * 60 * 1_000_000));
        seq += 1;
        delay.push(DelayedCompletion {
            due: job.submitted + wait,
            seq,
            sink: job.sink,
            completion: RemoteCompletion {
                ticket: job.ticket,
                object_identity: job.data.identity(),
                stats,
                simulated_micros,
                submitted: job.submitted,
            },
        });
    }
}

/// The "server side" of a fetch: the fine-level window statistics, computed
/// through the same [`crate::morsel::window_stats`] kernel as a local scan
/// (exact integer sums, sequential float folds) so a landed refinement is
/// bit-identical to the answer the all-local configuration produces.
fn compute_window(job: &IoJob, segment_rows: u64) -> Result<RangeStats> {
    let scan = crate::morsel::window_stats(
        &job.data,
        job.attribute,
        job.level,
        job.range,
        segment_rows,
        None,
        None,
    )?;
    Ok(RangeStats {
        count: scan.count,
        sum: scan.sum,
        min: scan.min,
        max: scan.max,
    })
}

/// What applying one completion to an outcome did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefinementApplied {
    /// The refinement landed: provisional value patched, rows charged.
    Applied {
        /// Rows the refinement read (now charged to the outcome).
        rows: u64,
    },
    /// The completion's build identity did not match the pending entry: the
    /// object was rebuilt, the refinement is dropped, the provisional value
    /// stays.
    DroppedStaleBuild,
    /// No pending entry with this ticket exists in the outcome.
    UnknownTicket,
}

/// Apply one completion to the outcome whose trace issued it: patch the
/// provisional result with the refined value, charge the deferred rows,
/// resolve the ledger slot, and — once nothing is pending — re-fold the
/// running aggregate in touch order.
pub fn apply_completion(
    outcome: &mut SessionOutcome,
    completion: RemoteCompletion,
) -> Result<RefinementApplied> {
    let Some(position) = outcome
        .pending
        .iter()
        .position(|p| p.ticket == completion.ticket)
    else {
        return Ok(RefinementApplied::UnknownTicket);
    };
    let entry = outcome.pending.remove(position);
    // Any outcome that cannot be applied — a stale build, a failed remote
    // read, a value that cannot be derived — resolves the ledger slot as
    // Dropped: the slot must never be left Pending once its entry is gone,
    // or the fold would silently skip it while the report claims a full
    // drain.
    let drop_slot = |outcome: &mut SessionOutcome| {
        if let Some(slot) = outcome
            .ledger
            .contribs
            .get_mut(entry.contrib_index as usize)
        {
            *slot = Contribution::Dropped {
                ticket: entry.ticket,
            };
        }
        outcome.stats.remote_refinements_dropped += 1;
    };
    let applied = if entry.object_identity != completion.object_identity {
        // Epoch safety: never apply a refinement computed on a different
        // immutable build than the one the trace ran against.
        drop_slot(outcome);
        RefinementApplied::DroppedStaleBuild
    } else {
        let stats = match completion.stats {
            Ok(stats) => stats,
            Err(e) => {
                drop_slot(outcome);
                refold_if_drained(outcome);
                return Err(e);
            }
        };
        let Some(value) = summary_value(entry.kind, &stats) else {
            drop_slot(outcome);
            refold_if_drained(outcome);
            return Err(DbTouchError::Internal(
                "refined window produced no value".into(),
            ));
        };
        if !outcome
            .results
            .set_value(entry.result_index as usize, Value::Float(value))
        {
            drop_slot(outcome);
            refold_if_drained(outcome);
            return Err(DbTouchError::Internal(format!(
                "refinement result index {} out of bounds",
                entry.result_index
            )));
        }
        if let Some(slot) = outcome
            .ledger
            .contribs
            .get_mut(entry.contrib_index as usize)
        {
            *slot = Contribution::ready(&stats);
        }
        // Exactly the accounting the all-local inline path performs.
        outcome.stats.rows_touched += stats.count;
        outcome.stats.bytes_touched += stats.count * 8;
        outcome.stats.remote.rows_shipped = outcome
            .stats
            .remote
            .rows_shipped
            .saturating_add(stats.count);
        outcome.stats.remote.remote_wait_micros = outcome
            .stats
            .remote
            .remote_wait_micros
            .saturating_add(completion.simulated_micros);
        outcome.stats.remote_refinements_applied += 1;
        RefinementApplied::Applied { rows: stats.count }
    };
    refold_if_drained(outcome);
    Ok(applied)
}

/// Once nothing is pending, re-fold the ledger into the final aggregate.
fn refold_if_drained(outcome: &mut SessionOutcome) {
    if outcome.pending.is_empty() && outcome.ledger.is_active() {
        outcome.final_aggregate = outcome.ledger.fold_value();
    }
}

/// Block until every pending refinement of `outcome` landed, applying
/// completions from `queue` as they arrive. Returns how many were applied.
/// Used by the single-user kernel (a trace boundary is a drain barrier);
/// the server drains incrementally instead and only blocks at
/// snapshot/close barriers.
pub fn drain_outcome(outcome: &mut SessionOutcome, queue: &CompletionQueue) -> Result<u64> {
    let mut applied = 0;
    while !outcome.pending.is_empty() {
        for completion in queue.wait_ready(Duration::from_millis(20)) {
            match apply_completion(outcome, completion)? {
                RefinementApplied::Applied { .. } | RefinementApplied::DroppedStaleBuild => {
                    applied += 1;
                }
                RefinementApplied::UnknownTicket => {}
            }
        }
    }
    Ok(applied)
}

/// A session's handle onto the device/cloud split: the tier boundary, the
/// catalog's executor and the completion queue refinements land in.
/// Created at checkout from [`dbtouch_types::RemoteSplitConfig`]; cloning
/// shares the queue.
#[derive(Debug, Clone)]
pub struct RemoteTier {
    pub(crate) local_min_level: u8,
    pub(crate) executor: Arc<RemoteExecutor>,
    pub(crate) queue: Arc<CompletionQueue>,
}

impl RemoteTier {
    /// The queue this session's refinements land in.
    pub fn queue(&self) -> &Arc<CompletionQueue> {
        &self.queue
    }

    /// The coarsest device-resident level for an object with `level_count`
    /// sample levels: the configured boundary, clamped so an object with a
    /// shallow hierarchy is simply all-local.
    pub fn effective_local_min(&self, level_count: u8) -> u8 {
        self.local_min_level.min(level_count.saturating_sub(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::SharedCatalog;
    use dbtouch_types::{KernelConfig, SizeCm};

    fn object_data() -> Arc<ObjectData> {
        let catalog = SharedCatalog::new(KernelConfig::default());
        let id = catalog
            .load_column("c", (0..10_000).collect(), SizeCm::new(2.0, 10.0))
            .unwrap();
        catalog.data(id).unwrap()
    }

    fn fast_network() -> NetworkModel {
        NetworkModel {
            round_trip_micros: 500,
            rows_per_milli: 10_000,
        }
    }

    #[test]
    fn executor_round_trip_delivers_exact_window_stats() {
        let data = object_data();
        let executor = RemoteExecutor::start(2, 16, fast_network(), 65_536);
        let queue = Arc::new(CompletionQueue::new());
        let range = RowRange::new(100, 200);
        let ticket = executor
            .submit(Arc::clone(&data), 0, 0, range, &queue)
            .unwrap();
        let completion = loop {
            let mut ready = queue.wait_ready(Duration::from_millis(50));
            if let Some(c) = ready.pop() {
                break c;
            }
        };
        assert_eq!(completion.ticket, ticket);
        assert_eq!(completion.object_identity, data.identity());
        let stats = completion.stats.unwrap();
        assert_eq!(stats.count, 100);
        assert_eq!(stats.sum, (100..200).sum::<i64>() as f64);
        assert_eq!(stats.min, Some(100.0));
        assert_eq!(stats.max, Some(199.0));
        // The completion was held for at least the simulated latency.
        assert!(completion.submitted.elapsed() >= Duration::from_micros(500));
        assert_eq!(completion.simulated_micros, fast_network().cost_micros(100));
        assert_eq!(executor.stats().submitted, 1);
        assert_eq!(executor.stats().delivered, 1);
    }

    #[test]
    fn completions_are_delivered_in_due_order_not_submit_order() {
        // Zero-latency link: completions become due as soon as computed; the
        // delay line must deliver all of them, whatever the interleaving.
        let data = object_data();
        let executor = RemoteExecutor::start(
            4,
            64,
            NetworkModel {
                round_trip_micros: 0,
                rows_per_milli: 0,
            },
            65_536,
        );
        let queue = Arc::new(CompletionQueue::new());
        let mut tickets = Vec::new();
        for i in 0..32u64 {
            tickets.push(
                executor
                    .submit(
                        Arc::clone(&data),
                        0,
                        0,
                        RowRange::new(i * 10, i * 10 + 10),
                        &queue,
                    )
                    .unwrap(),
            );
        }
        let mut seen = Vec::new();
        while seen.len() < 32 {
            for c in queue.wait_ready(Duration::from_millis(50)) {
                seen.push(c.ticket);
            }
        }
        seen.sort_unstable();
        tickets.sort_unstable();
        assert_eq!(seen, tickets);
    }

    #[test]
    fn dropping_the_executor_flushes_in_flight_completions() {
        let data = object_data();
        // An hour of simulated latency: only the shutdown flush can deliver.
        let executor = RemoteExecutor::start(
            1,
            16,
            NetworkModel {
                round_trip_micros: 3_600_000_000,
                rows_per_milli: 0,
            },
            65_536,
        );
        let queue = Arc::new(CompletionQueue::new());
        executor
            .submit(Arc::clone(&data), 0, 0, RowRange::new(0, 10), &queue)
            .unwrap();
        drop(executor);
        let ready = queue.drain_ready();
        assert_eq!(ready.len(), 1, "shutdown must flush, not lose, completions");
        assert!(ready[0].stats.is_ok());
    }

    #[test]
    fn stale_build_completions_are_dropped_never_applied() {
        use crate::kernel::TouchAction;
        use crate::operators::aggregate::AggregateKind;
        use crate::session::Session;
        use dbtouch_gesture::synthesizer::GestureSynthesizer;
        use dbtouch_types::RemoteSplitConfig;

        let split = RemoteSplitConfig::default()
            .with_local_min_level(11)
            .with_network(200, 10_000);
        let catalog = SharedCatalog::new(
            KernelConfig::default()
                .with_sample_levels(12)
                .with_remote_split(Some(split)),
        );
        let id = catalog
            .load_column("col", (0..150_000).collect(), SizeCm::new(2.0, 10.0))
            .unwrap();
        let view = catalog.data(id).unwrap().base_view().clone();
        let mut state = catalog.checkout(id).unwrap();
        state.set_action(TouchAction::Summary {
            half_window: Some(5),
            kind: AggregateKind::Avg,
        });
        let queue = Arc::clone(state.remote_tier().unwrap().queue());
        let trace = GestureSynthesizer::new(60.0).slide_down(&view, 2.8);
        let mut outcome = Session::new(&mut state, catalog.config())
            .run(&trace)
            .unwrap();
        assert!(!outcome.pending.is_empty());

        // Forge the first completion as if an executor had computed it on a
        // different (restructured) build: it must be dropped, the
        // provisional value must survive, and the ledger slot must be
        // excluded from the fold — never applied across builds.
        let victim = outcome.pending[0].clone();
        let provisional = outcome.results.results()[victim.result_index as usize].clone();
        let rows_before = outcome.stats.rows_touched;
        let applied = apply_completion(
            &mut outcome,
            RemoteCompletion {
                ticket: victim.ticket,
                object_identity: victim.object_identity ^ 0xdead_beef,
                stats: Ok(RangeStats {
                    count: 11,
                    sum: 11_000.0,
                    min: Some(0.0),
                    max: Some(2_000.0),
                }),
                simulated_micros: 200,
                submitted: Instant::now(),
            },
        )
        .unwrap();
        assert_eq!(applied, RefinementApplied::DroppedStaleBuild);
        assert_eq!(
            &outcome.results.results()[victim.result_index as usize],
            &provisional,
            "a dropped refinement must leave the provisional answer in place"
        );
        assert_eq!(outcome.stats.rows_touched, rows_before, "nothing charged");
        assert_eq!(outcome.stats.remote_refinements_dropped, 1);
        assert!(matches!(
            outcome.ledger.contribs[victim.contrib_index as usize],
            Contribution::Dropped { .. }
        ));
        // A completion for an unknown ticket is ignored outright.
        assert_eq!(
            apply_completion(
                &mut outcome,
                RemoteCompletion {
                    ticket: u64::MAX,
                    object_identity: victim.object_identity,
                    stats: Ok(RangeStats {
                        count: 1,
                        sum: 1.0,
                        min: Some(1.0),
                        max: Some(1.0),
                    }),
                    simulated_micros: 0,
                    submitted: Instant::now(),
                },
            )
            .unwrap(),
            RefinementApplied::UnknownTicket
        );
        // A completion whose remote read *failed* surfaces the error but
        // still resolves its ledger slot as Dropped — it must never be left
        // Pending with its entry gone, or the fold after a "full" drain
        // would silently exclude the window.
        let failed = outcome.pending[0].clone();
        let err = apply_completion(
            &mut outcome,
            RemoteCompletion {
                ticket: failed.ticket,
                object_identity: failed.object_identity,
                stats: Err(DbTouchError::Corrupt("rotted page".into())),
                simulated_micros: 0,
                submitted: Instant::now(),
            },
        );
        assert!(err.is_err(), "a failed remote read is reported");
        assert!(!outcome.pending.iter().any(|p| p.ticket == failed.ticket));
        assert!(matches!(
            outcome.ledger.contribs[failed.contrib_index as usize],
            Contribution::Dropped { .. }
        ));
        assert_eq!(outcome.stats.remote_refinements_dropped, 2);
        assert_eq!(outcome.ledger.pending_count(), outcome.pending.len());

        // The rest of the refinements drain normally.
        drain_outcome(&mut outcome, &queue).unwrap();
        assert!(outcome.is_drained());
        assert_eq!(
            outcome.stats.remote_refinements_applied,
            outcome.stats.remote.progressive_requests - 2
        );
    }

    #[test]
    fn ledger_folds_in_touch_order() {
        let mut ledger = RefinementLedger {
            kind: Some(AggregateKind::Avg),
            contribs: vec![
                Contribution::Ready {
                    count: 2,
                    sum: 10.0,
                    min: Some(4.0),
                    max: Some(6.0),
                },
                Contribution::Pending { ticket: 7 },
            ],
        };
        assert_eq!(ledger.pending_count(), 1);
        // A pending slot is excluded from the provisional fold.
        assert_eq!(ledger.fold_value(), Some(5.0));
        ledger.contribs[1] = Contribution::Ready {
            count: 2,
            sum: 30.0,
            min: Some(14.0),
            max: Some(16.0),
        };
        assert_eq!(ledger.pending_count(), 0);
        assert_eq!(ledger.fold_value(), Some(10.0));
        // Dropped slots stay excluded.
        ledger.contribs[1] = Contribution::Dropped { ticket: 7 };
        assert_eq!(ledger.fold_value(), Some(5.0));
    }

    #[test]
    fn summary_value_matches_the_session_inline_semantics() {
        let full = RangeStats {
            count: 4,
            sum: 12.0,
            min: Some(1.0),
            max: Some(5.0),
        };
        assert_eq!(summary_value(AggregateKind::Count, &full), Some(4.0));
        assert_eq!(summary_value(AggregateKind::Sum, &full), Some(12.0));
        assert_eq!(summary_value(AggregateKind::Avg, &full), Some(3.0));
        assert_eq!(summary_value(AggregateKind::Min, &full), Some(1.0));
        assert_eq!(summary_value(AggregateKind::Max, &full), Some(5.0));
        let empty = RangeStats {
            count: 0,
            sum: 0.0,
            min: None,
            max: None,
        };
        assert_eq!(summary_value(AggregateKind::Count, &empty), Some(0.0));
        assert_eq!(summary_value(AggregateKind::Sum, &empty), None);
        assert_eq!(summary_value(AggregateKind::Avg, &empty), None);
    }
}
