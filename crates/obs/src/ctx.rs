//! Thread-local trace context: the span child work should nest under.
//!
//! A gesture's scan can fan out to morsel helper threads that never see the
//! session. Rather than plumbing a span handle through the scan API, the
//! worker thread stamps `(session, trace, service span)` into a thread-local
//! once it has opened the gesture's service span, and clears it afterwards.
//! A scan batch captures the submitter's context, so the `segments` spans
//! of every thread that drains it, helpers included, hang under the
//! submitting gesture's service span. No context is set when tracing is off.

use std::cell::Cell;

/// The `(session_id, trace_id)` pair of the running gesture, plus the
/// span child work should nest under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// Server-assigned session id.
    pub session: u64,
    /// Per-gesture-trace id, unique per telemetry hub.
    pub trace: u64,
    /// Id of the span child spans should parent to; 0 when no span is open.
    pub span: u64,
}

thread_local! {
    static CTX: Cell<Option<TraceCtx>> = const { Cell::new(None) };
}

/// Nest child spans started from this thread under `span` of
/// `(session, trace)`.
pub fn set_trace_ctx_span(session: u64, trace: u64, span: u64) {
    CTX.with(|c| {
        c.set(Some(TraceCtx {
            session,
            trace,
            span,
        }))
    });
}

/// Clear this thread's trace context.
pub fn clear_trace_ctx() {
    CTX.with(|c| c.set(None));
}

/// The calling thread's current trace context, if any.
pub fn trace_ctx() -> Option<TraceCtx> {
    CTX.with(|c| c.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_set_get_clear() {
        assert_eq!(trace_ctx(), None);
        set_trace_ctx_span(7, 42, 9);
        assert_eq!(
            trace_ctx(),
            Some(TraceCtx {
                session: 7,
                trace: 42,
                span: 9
            })
        );
        clear_trace_ctx();
        assert_eq!(trace_ctx(), None);
    }

    #[test]
    fn ctx_is_thread_local() {
        set_trace_ctx_span(1, 1, 1);
        let other = std::thread::spawn(trace_ctx).join().unwrap();
        assert_eq!(other, None);
        clear_trace_ctx();
    }
}
