//! The TCP transport of the [`ExplorationClient`] API.
//!
//! [`TcpClient`] is the network twin of the in-process
//! [`ExplorationServer`]: the same two traits, so any driver written against
//! [`ExplorationClient`]/[`ClientSession`] (e.g.
//! `dbtouch_workload::drive_plans_over`) runs unchanged over the wire. Each
//! [`TcpSession`] owns one connection — the server serves one session per
//! connection, so the session's ordering and backpressure guarantees map
//! one-to-one onto the TCP stream.
//!
//! Every answer passes through one translation of the refusals: load
//! shedding surfaces as [`DbTouchError::Overloaded`] with the server's
//! suggested backoff, an `Error` frame as [`DbTouchError::Remote`], and a
//! graceful server drain as [`DbTouchError::Remote`], with the final session
//! report (delivered in the server's `GoAway`) retrievable via
//! [`TcpSession::take_goaway_report`] so no completed work is lost.
//!
//! [`ExplorationServer`]: dbtouch_server::ExplorationServer
//! [`ExplorationClient`]: dbtouch_server::ExplorationClient
//! [`ClientSession`]: dbtouch_server::ClientSession

use crate::codec::{decode_response, encode_request, Request, Response};
use crate::frame::{
    read_frame, tag, write_frame, FrameReadError, ReadOutcome, MAX_FRAME_LEN, MAX_HANDSHAKE_LEN,
};
use crate::server::{check_hello, hello_frame};
use dbtouch_core::kernel::{ObjectId, TouchAction};
use dbtouch_gesture::trace::GestureTrace;
use dbtouch_obs::{WireTraceContext, CLIENT_ID_BIT};
use dbtouch_server::{ClientSession, ExplorationClient, SessionId, SessionReport};
use dbtouch_types::json::{self, Json};
use dbtouch_types::{DbTouchError, Result};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Process-wide sequence for client-minted trace and span ids. The high bit
/// ([`CLIENT_ID_BIT`]) marks ids minted on this side of the wire, so they can
/// never collide with the server's own trace counter.
static CLIENT_ID_SEQ: AtomicU64 = AtomicU64::new(1);

fn mint_client_id() -> u64 {
    CLIENT_ID_SEQ.fetch_add(1, Ordering::Relaxed) | CLIENT_ID_BIT
}

/// A client of a remote exploration server. Holds only the address; every
/// [`open_session`](ExplorationClient::open_session) and
/// [`metrics_json`](ExplorationClient::metrics_json) dials its own
/// connection.
#[derive(Debug, Clone)]
pub struct TcpClient {
    addr: String,
}

impl TcpClient {
    /// A client for `addr` (e.g. `"127.0.0.1:7411"`). No I/O happens until a
    /// session is opened.
    pub fn new(addr: impl Into<String>) -> TcpClient {
        TcpClient { addr: addr.into() }
    }

    /// The server address this client dials.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Dial and complete the version handshake, retrying until `timeout`
    /// elapses — lets a client race a server that is still binding (the
    /// two-process smoke test) without an external sleep.
    pub fn wait_ready(&self, timeout: Duration) -> Result<()> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.dial() {
                Ok(_) => return Ok(()),
                Err(e) => {
                    if Instant::now() >= deadline {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        }
    }

    fn dial(&self) -> Result<TcpStream> {
        let mut stream = TcpStream::connect(&self.addr)
            .map_err(|e| DbTouchError::Io(format!("connect {}: {e}", self.addr)))?;
        let _ = stream.set_nodelay(true);
        handshake(&mut stream)?;
        Ok(stream)
    }

    /// Dial a connection for one request and return its answer.
    fn one_shot(&self, req: &Request) -> Result<Response> {
        answer(request(&mut self.dial()?, req)?, &mut None)
    }

    /// Fetch the server's retained span trees as Chrome trace-event JSON
    /// (loadable in Perfetto / `chrome://tracing`).
    pub fn dump_traces(&self) -> Result<Json> {
        match self.one_shot(&Request::DumpTraces)? {
            Response::TracesJson(text) => {
                json::parse(&text).map_err(|e| DbTouchError::Remote(format!("bad trace JSON: {e}")))
            }
            other => Err(unexpected("TracesJson", &other)),
        }
    }

    /// Fetch the metrics snapshot in Prometheus-style text exposition.
    pub fn metrics_text(&self) -> Result<String> {
        match self.one_shot(&Request::MetricsText)? {
            Response::MetricsText(text) => Ok(text),
            other => Err(unexpected("MetricsText", &other)),
        }
    }
}

/// One exploration session over one TCP connection.
#[derive(Debug)]
pub struct TcpSession {
    stream: TcpStream,
    id: SessionId,
    /// Trace ids this session stamped into `RunTrace` frames, in send order.
    stamped_traces: Vec<u64>,
    /// The final report delivered by a server `GoAway` during drain.
    goaway_report: Option<SessionReport>,
}

/// Read the next frame payload of at most `max_len` bytes.
fn receive(stream: &mut TcpStream, max_len: usize) -> Result<Vec<u8>> {
    loop {
        match read_frame(stream, max_len) {
            Ok((ReadOutcome::Frame(p), _)) => return Ok(p),
            Ok((ReadOutcome::Eof, _)) => {
                return Err(DbTouchError::Io("connection closed by server".into()))
            }
            // The client keeps blocking reads; a timeout only appears if the
            // caller configured one — treat it as "keep waiting".
            Err(FrameReadError::IdleTimeout) => continue,
            Err(e) => return Err(DbTouchError::Io(format!("receive: {e}"))),
        }
    }
}

/// Send one request and read its response.
fn request(stream: &mut TcpStream, req: &Request) -> Result<Response> {
    write_frame(stream, &encode_request(req))
        .map_err(|e| DbTouchError::Io(format!("send: {e}")))?;
    decode_response(&receive(stream, MAX_FRAME_LEN)?)
}

/// Offer [`PROTOCOL_VERSION`](crate::PROTOCOL_VERSION) on a fresh stream and
/// require the server to ack the same. Any other frame is a response, and a
/// refusal (`Shed` before the session, `GoAway` during a drain) is its error.
fn handshake(stream: &mut TcpStream) -> Result<()> {
    write_frame(stream, &hello_frame(tag::HELLO))
        .map_err(|e| DbTouchError::Io(format!("handshake send: {e}")))?;
    let reply = receive(stream, MAX_HANDSHAKE_LEN)?;
    if reply.first() == Some(&tag::HELLO_ACK) {
        return check_hello(&reply[1..]).map_err(DbTouchError::Remote);
    }
    let other = answer(decode_response(&reply)?, &mut None)?;
    Err(unexpected("HelloAck", &other))
}

/// The one translation of the refusals: `Shed` →
/// [`DbTouchError::Overloaded`], `Error` → [`DbTouchError::Remote`], `GoAway`
/// → [`DbTouchError::Remote`] with its final report (if any) moved into
/// `goaway`. Every other response is the answer.
fn answer(resp: Response, goaway: &mut Option<SessionReport>) -> Result<Response> {
    match resp {
        Response::Shed {
            retry_after_ms,
            reason,
        } => Err(DbTouchError::Overloaded {
            retry_after_ms,
            reason,
        }),
        Response::Error(msg) => Err(DbTouchError::Remote(msg)),
        Response::GoAway(report) => {
            *goaway = report;
            Err(DbTouchError::Remote("server is draining".into()))
        }
        other => Ok(other),
    }
}

fn unexpected(wanted: &str, got: &Response) -> DbTouchError {
    DbTouchError::Remote(format!("expected {wanted} response, got {}", got.name()))
}

impl TcpSession {
    /// Dispatch one request on the session's connection; a `GoAway`'s final
    /// report is kept for [`TcpSession::take_goaway_report`].
    fn call(&mut self, req: &Request) -> Result<Response> {
        answer(request(&mut self.stream, req)?, &mut self.goaway_report)
    }

    /// The final [`SessionReport`] a draining server delivered in its
    /// `GoAway`, if one arrived. The session closed server-side; every trace
    /// acknowledged before the drain is reflected in this report.
    pub fn take_goaway_report(&mut self) -> Option<SessionReport> {
        self.goaway_report.take()
    }

    /// Trace ids this session stamped into its `RunTrace` frames, in send
    /// order. All carry [`CLIENT_ID_BIT`]; server-side span trees for those
    /// gestures carry these exact ids.
    pub fn stamped_trace_ids(&self) -> &[u64] {
        &self.stamped_traces
    }
}

impl ClientSession for TcpSession {
    fn id(&self) -> SessionId {
        self.id
    }

    fn set_action(&mut self, object: ObjectId, action: TouchAction) -> Result<()> {
        match self.call(&Request::SetAction(object, action))? {
            Response::Ack => Ok(()),
            other => Err(unexpected("Ack", &other)),
        }
    }

    fn run_trace(&mut self, object: ObjectId, trace: GestureTrace) -> Result<()> {
        // A client-minted trace context, so the server's span tree carries
        // an id the client can correlate.
        let ctx = WireTraceContext {
            trace: mint_client_id(),
            root_span: mint_client_id(),
        };
        self.stamped_traces.push(ctx.trace);
        match self.call(&Request::RunTrace(object, trace, Some(ctx)))? {
            Response::Ack => Ok(()),
            other => Err(unexpected("Ack", &other)),
        }
    }

    fn snapshot(&mut self) -> Result<SessionReport> {
        match self.call(&Request::Snapshot)? {
            Response::Report(report) => Ok(report),
            other => Err(unexpected("Report", &other)),
        }
    }

    fn close(mut self) -> Result<SessionReport> {
        match self.call(&Request::CloseSession) {
            Ok(Response::Report(report)) => Ok(report),
            Ok(other) => Err(unexpected("Report", &other)),
            // A drain raced the close: the server closed the session for us
            // and delivered the final report in its GoAway.
            Err(e) => match self.goaway_report.take() {
                Some(report) => Ok(report),
                None => Err(e),
            },
        }
    }
}

impl ExplorationClient for TcpClient {
    type Session = TcpSession;

    fn open_session(&self) -> Result<TcpSession> {
        let mut stream = self.dial()?;
        match answer(request(&mut stream, &Request::OpenSession)?, &mut None)? {
            Response::SessionOpened(id) => Ok(TcpSession {
                stream,
                id,
                stamped_traces: Vec::new(),
                goaway_report: None,
            }),
            other => Err(unexpected("SessionOpened", &other)),
        }
    }

    fn metrics_json(&self) -> Result<Json> {
        match self.one_shot(&Request::Metrics)? {
            Response::MetricsJson(text) => json::parse(&text)
                .map_err(|e| DbTouchError::Remote(format!("bad metrics JSON: {e}"))),
            other => Err(unexpected("MetricsJson", &other)),
        }
    }
}
