//! Harness spans: recorded in the benchmark around each client call, kept
//! in memory, written out when the run ends.
//!
//! The records are `dbtouch_obs` `SpanRecord`s grouped into one `SpanTree`
//! per session, so `obs::trace::export` renders them in the same Chrome
//! trace-event format as the server's own trees and both files load in
//! Perfetto side by side (pid = session ordinal, tid = connection).

use dbtouch_obs::{SpanRecord, SpanTree};
use std::time::Instant;

/// What a switched-on [`Tracer`] holds: one client thread's spans against a
/// time origin shared by all threads.
struct Recording {
    origin: Instant,
    connection: u64,
    next_id: u64,
    open: Option<SpanTree>,
    done: Vec<SpanTree>,
}

/// A span that has been started but not closed.
pub struct OpenSpan {
    index: usize,
    id: u64,
}

impl Recording {
    fn begin(&mut self, name: &'static str, parent: u64, detail: u64) -> OpenSpan {
        let id = self.next_id;
        self.next_id += 1;
        let start_nanos = self.origin.elapsed().as_nanos() as u64;
        let tree = self.open.as_mut().expect("begin_session comes first");
        tree.spans.push(SpanRecord {
            id,
            parent,
            name,
            start_nanos,
            duration_nanos: u64::MAX,
            detail,
            late: false,
        });
        OpenSpan {
            index: tree.spans.len() - 1,
            id,
        }
    }

    fn end(&mut self, span: OpenSpan) {
        let now = self.origin.elapsed().as_nanos() as u64;
        let tree = self.open.as_mut().expect("a session is open");
        let record = &mut tree.spans[span.index];
        record.duration_nanos = now.saturating_sub(record.start_nanos);
    }
}

/// The span recorder of one client thread. It may be switched off: then
/// every call is a branch and a return, every span is `None`, and the
/// untraced loop carries no span work.
pub struct Tracer(Option<Recording>);

impl Tracer {
    /// Record against `origin` when it is given, else record nothing.
    pub fn new(origin: Option<Instant>, connection: usize) -> Tracer {
        Tracer(origin.map(|origin| Recording {
            origin,
            connection: connection as u64,
            next_id: 1,
            open: None,
            done: Vec::new(),
        }))
    }

    /// Start the tree of session number `session` with its root span.
    pub fn begin_session(&mut self, session: u64) -> Option<OpenSpan> {
        let rec = self.0.as_mut()?;
        rec.open = Some(SpanTree {
            session,
            trace: rec.connection,
            spans: Vec::new(),
            tail_sampled: false,
            truncated: 0,
        });
        Some(rec.begin("session", 0, session))
    }

    /// Open a span under `parent`; `detail` carries the gesture id.
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: &Option<OpenSpan>,
        detail: u64,
    ) -> Option<OpenSpan> {
        let parent = parent.as_ref().map_or(0, |p| p.id);
        self.0.as_mut().map(|rec| rec.begin(name, parent, detail))
    }

    pub fn end(&mut self, span: Option<OpenSpan>) {
        if let (Some(rec), Some(span)) = (self.0.as_mut(), span) {
            rec.end(span);
        }
    }

    /// Close the session's root and retire its tree.
    pub fn end_session(&mut self, root: Option<OpenSpan>) {
        if let (Some(rec), Some(root)) = (self.0.as_mut(), root) {
            rec.end(root);
            rec.done.extend(rec.open.take());
        }
    }

    pub fn into_trees(self) -> Vec<SpanTree> {
        self.0.map(|rec| rec.done).unwrap_or_default()
    }
}

/// Durations in nanoseconds of every closed span called `name`.
pub fn durations(trees: &[SpanTree], name: &str) -> Vec<u64> {
    trees
        .iter()
        .flat_map(|t| t.spans.iter())
        .filter(|s| s.name == name && !s.is_open())
        .map(|s| s.duration_nanos)
        .collect()
}

/// Self time of `span` within `tree`: its duration minus the part of its
/// interval that its direct children cover. Overlapping children are counted
/// once, and a child is clipped to its parent's interval.
pub fn self_time(tree: &SpanTree, span: &SpanRecord) -> u64 {
    let (start, end) = (span.start_nanos, span.end_nanos());
    let mut children: Vec<(u64, u64)> = tree
        .spans
        .iter()
        .filter(|c| c.parent == span.id && c.id != span.id && !c.is_open())
        .map(|c| (c.start_nanos.max(start), c.end_nanos().min(end)))
        .filter(|(s, e)| e > s)
        .collect();
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in children {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (end - start).saturating_sub(covered)
}

/// Sum of the self times of every span called `name`.
pub fn total_self_time(trees: &[SpanTree], name: &str) -> u64 {
    trees
        .iter()
        .flat_map(|t| t.spans.iter().map(move |s| (t, s)))
        .filter(|(_, s)| s.name == name && !s.is_open())
        .map(|(t, s)| self_time(t, s))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start: u64, duration: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: "s",
            start_nanos: start,
            duration_nanos: duration,
            detail: 0,
            late: false,
        }
    }

    fn tree(spans: Vec<SpanRecord>) -> SpanTree {
        SpanTree {
            session: 0,
            trace: 0,
            spans,
            tail_sampled: false,
            truncated: 0,
        }
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        // Parent [0, 100); children [10, 40) and [30, 60) overlap on
        // [30, 40): together they cover 50, not 60.
        let t = tree(vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 30, 30),
        ]);
        assert_eq!(self_time(&t, &t.spans[0]), 50);
        // A grandchild is its parent's business, not the root's.
        let t = tree(vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(4, 2, 15, 10),
        ]);
        assert_eq!(self_time(&t, &t.spans[0]), 70);
        assert_eq!(self_time(&t, &t.spans[1]), 20);
    }

    #[test]
    fn self_time_clips_children_and_ignores_open_ones() {
        // A child running past its parent only counts inside it; a child
        // fully contained in an earlier one adds nothing; an open child is
        // not counted.
        let t = tree(vec![
            span(1, 0, 100, 100),
            span(2, 1, 150, 100),
            span(3, 1, 160, 10),
            span(4, 1, 110, u64::MAX),
        ]);
        assert_eq!(self_time(&t, &t.spans[0]), 50);
        // A leaf's self time is its duration.
        assert_eq!(self_time(&t, &t.spans[2]), 10);
    }

    #[test]
    fn recorder_nests_calls_under_the_session() {
        let mut rec = Tracer::new(Some(Instant::now()), 1);
        let root = rec.begin_session(7);
        let gesture = rec.begin("gesture", &root, 3);
        let call = rec.begin("run_trace", &gesture, 3);
        rec.end(call);
        rec.end(gesture);
        rec.end_session(root);
        let trees = rec.into_trees();
        assert_eq!(trees.len(), 1);
        assert_eq!((trees[0].session, trees[0].trace), (7, 1));
        assert_eq!(trees[0].root().map(|r| r.name), Some("session"));
        assert_eq!(durations(&trees, "run_trace").len(), 1);
        let gesture = &trees[0].spans[1];
        assert_eq!(gesture.parent, trees[0].spans[0].id);
        assert!(self_time(&trees[0], gesture) <= gesture.duration_nanos);
        // The export the server uses takes these trees as they are.
        let text = dbtouch_obs::chrome_trace_text(&trees);
        assert!(dbtouch_types::json::parse(&text).is_ok());
        // Switched off, the same calls record nothing.
        let mut off = Tracer::new(None, 0);
        let root = off.begin_session(0);
        assert!(off.begin("gesture", &root, 0).is_none());
        off.end_session(root);
        assert!(off.into_trees().is_empty());
    }
}
