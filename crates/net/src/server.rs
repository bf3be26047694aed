//! The TCP serving loop: acceptor, per-connection handlers, admission
//! control, graceful drain.
//!
//! [`NetServer::serve`] brings up an in-process [`ExplorationServer`] from
//! the same validated [`ServerConfig`] every other entry point uses, then
//! listens on `config.listen_addr`:
//!
//! * the **acceptor** thread blocks in `accept` and spawns one handler
//!   thread per connection (sessions are cheap: the exploration server
//!   multiplexes them over its fixed worker pool, so a connection thread
//!   only parses frames and blocks on session barriers). A connection beyond
//!   `config.max_connections` live ones receives an explicit `Shed` frame and
//!   is closed, counted in `net.shed`; the check takes the slot in the same
//!   step, so a burst of connects cannot pass it together;
//! * each **handler** speaks the frame protocol: JSON version handshake
//!   first, then binary request/response frames. One connection serves at
//!   most one exploration session. `RunTrace` is acknowledged only after the
//!   server accepted the event, so the bounded per-session queue's
//!   backpressure propagates to the client as TCP flow control.
//!
//! Admission control runs *before* work is queued: `OpenSession` and
//! `RunTrace` consult [`Admission`], which reads each configured threshold's
//! signal from the telemetry hub by key (never a full scrape), and answer
//! `Shed { retry_after_ms, reason }` when a threshold is tripped.
//!
//! **Graceful drain** ([`NetServer::shutdown`]): the acceptor is woken by
//! one connect of the server's own and stops accepting, every handler
//! finishes the frame in flight, closes its session (flushing queued traces
//! through the barrier), sends `GoAway` carrying the session's last
//! [`SessionReport`] delta, and answers any straggling requests with an error
//! until the client hangs up. Once the last handler has left the live count,
//! the inner exploration server is shut down.

use crate::admission::{Admission, ShedReason, Verdict};
use crate::codec::{decode_request, encode_response, Request, Response};
use crate::frame::{
    read_frame, tag, write_frame, FrameReadError, ReadOutcome, MAX_HANDSHAKE_LEN, MAX_REQUEST_LEN,
    PROTOCOL_NAME, PROTOCOL_VERSION,
};
use crate::metrics::NetInstruments;
use dbtouch_obs::Telemetry;
use dbtouch_server::{
    ExplorationServer, ServerConfig, ServerMetricsSnapshot, SessionHandle, SessionReport,
};
use dbtouch_types::json::{self, Json};
use dbtouch_types::{DbTouchError, Result};
use std::io::{ErrorKind, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The handlers' read timeout — the upper bound on how stale the draining
/// flag can be observed between frames — and the acceptor's back-off after
/// an `accept` error.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// How long a graceful shutdown waits for in-flight connections to drain
/// (flush traces, deliver final reports) before giving up on the stragglers.
const DRAIN_TIMEOUT: Duration = Duration::from_millis(5_000);

/// The handshake frame both sides send, `HELLO` or `HELLO_ACK` by `frame_tag`:
/// the tag byte, then JSON naming the protocol and its version.
pub(crate) fn hello_frame(frame_tag: u8) -> Vec<u8> {
    let hello = json::object([
        ("proto", Json::String(PROTOCOL_NAME.into())),
        ("version", Json::Number(PROTOCOL_VERSION as f64)),
    ])
    .pretty();
    [&[frame_tag], hello.as_bytes()].concat()
}

/// Validate a received handshake payload (JSON text after the tag byte):
/// the peer must name this protocol and exactly [`PROTOCOL_VERSION`].
pub(crate) fn check_hello(body: &[u8]) -> std::result::Result<(), String> {
    let text = std::str::from_utf8(body).map_err(|_| "handshake is not UTF-8".to_string())?;
    let parsed = json::parse(text).map_err(|e| format!("handshake is not JSON: {e}"))?;
    match parsed.get("proto").and_then(|p| p.as_str()) {
        Some(PROTOCOL_NAME) => {}
        other => return Err(format!("unknown protocol {other:?}")),
    }
    match parsed.get("version").and_then(|v| v.as_u64()) {
        Some(PROTOCOL_VERSION) => Ok(()),
        other => Err(format!(
            "unsupported protocol version {other:?} (supported: {PROTOCOL_VERSION})"
        )),
    }
}

struct Shared {
    server: ExplorationServer,
    instruments: Arc<NetInstruments>,
    admission: Admission,
    draining: AtomicBool,
    connections: Arc<Connections>,
    retry_after_ms: u64,
}

impl Shared {
    fn telemetry(&self) -> &Telemetry {
        self.server.catalog().telemetry()
    }

    /// Account one shed decision in `net.shed` and build the frame that
    /// tells the client why and when to retry.
    fn shed(&self, retry_after_ms: u64, reason: &ShedReason) -> Response {
        self.instruments.shed.inc();
        Response::Shed {
            retry_after_ms,
            reason: reason.to_string(),
        }
    }
}

/// The live-connection count, mirrored in the `net.connections` gauge: the
/// acceptor admits against it and shutdown waits on it. It lives outside
/// [`Shared`] so a handler can release the server before it leaves.
struct Connections {
    live: Mutex<usize>,
    left: Condvar,
    max: usize,
    instruments: Arc<NetInstruments>,
}

impl Connections {
    /// Take a slot if fewer than `max` connections are live: the check and
    /// the increment are one step.
    fn admit(&self) -> bool {
        let mut live = self.live.lock().unwrap_or_else(|e| e.into_inner());
        let admitted = *live < self.max;
        if admitted {
            *live += 1;
            self.instruments.connections.set(*live as u64);
        }
        admitted
    }

    /// Give a slot back and wake a waiting shutdown.
    fn leave(&self) {
        let mut live = self.live.lock().unwrap_or_else(|e| e.into_inner());
        *live -= 1;
        self.instruments.connections.set(*live as u64);
        self.left.notify_all();
    }

    /// Block until no connection is live or `timeout` passes; true when
    /// none is.
    fn wait_drained(&self, timeout: Duration) -> bool {
        let live = self.live.lock().unwrap_or_else(|e| e.into_inner());
        let (live, _) = self
            .left
            .wait_timeout_while(live, timeout, |live| *live > 0)
            .unwrap_or_else(|e| e.into_inner());
        *live == 0
    }
}

/// The network front-end: owns the acceptor thread and the in-process
/// exploration server it serves.
pub struct NetServer {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: JoinHandle<()>,
}

impl NetServer {
    /// Bring up the exploration server described by `config` and serve it on
    /// `config.listen_addr` (required; use port 0 to let the OS pick).
    pub fn serve(config: ServerConfig) -> Result<NetServer> {
        config.validate()?;
        let addr = config.listen_addr.clone().ok_or_else(|| {
            DbTouchError::InvalidConfig(
                "NetServer::serve requires listen_addr (e.g. \"127.0.0.1:0\")".into(),
            )
        })?;
        let server = ExplorationServer::serve(config.clone())?;
        let instruments = Arc::new(NetInstruments::default());
        server
            .catalog()
            .telemetry()
            .register(Arc::clone(&instruments) as Arc<dyn dbtouch_obs::MetricSource>);

        let listener =
            TcpListener::bind(&addr).map_err(|e| DbTouchError::Io(format!("bind {addr}: {e}")))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| DbTouchError::Io(format!("local_addr: {e}")))?;

        let shared = Arc::new(Shared {
            server,
            connections: Arc::new(Connections {
                live: Mutex::new(0),
                left: Condvar::new(),
                max: config.max_connections,
                instruments: Arc::clone(&instruments),
            }),
            instruments,
            admission: Admission::new(config.shed.clone()),
            draining: AtomicBool::new(false),
            retry_after_ms: config.shed.retry_after_ms,
        });

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("net-acceptor".into())
                .spawn(move || accept_loop(shared, listener))
                .map_err(|e| DbTouchError::Io(format!("spawn acceptor: {e}")))?
        };

        Ok(NetServer {
            shared,
            local_addr,
            acceptor,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The live metrics snapshot — `net.*` instruments included, since they
    /// are registered into the served catalog's telemetry hub.
    pub fn metrics_snapshot(&self) -> ServerMetricsSnapshot {
        self.shared.server.metrics_snapshot()
    }

    /// The network layer's own instruments (for tests and benches).
    pub fn instruments(&self) -> &Arc<NetInstruments> {
        &self.shared.instruments
    }

    /// Graceful drain: stop accepting, let every connection flush its
    /// in-flight traces and receive the rest of its report via `GoAway`,
    /// then shut the inner exploration server down. Connections that have
    /// not finished within `DRAIN_TIMEOUT` are abandoned (their handler
    /// threads die with the process), and so is the inner server they hold.
    pub fn shutdown(self) {
        let NetServer {
            shared,
            mut local_addr,
            acceptor,
        } = self;
        shared.draining.store(true, Ordering::SeqCst);
        // Wake the acceptor out of `accept`: it sees `draining` and returns.
        // An unspecified listen address is reached over loopback.
        if local_addr.ip().is_unspecified() {
            local_addr.set_ip(match local_addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        // Without the wake-up the acceptor may never return, so it is joined
        // only after one; unjoined, it keeps the server alive below.
        if TcpStream::connect_timeout(&local_addr, DRAIN_TIMEOUT).is_ok() {
            let _ = acceptor.join();
        }
        shared.connections.wait_drained(DRAIN_TIMEOUT);
        // Every handler released the server before it left the count, so
        // after a full drain this is the last reference; stragglers keep it,
        // and the workers park when their queues drain.
        if let Ok(inner) = Arc::try_unwrap(shared) {
            inner.server.shutdown();
        }
    }
}

/// Send a response frame, accounting bytes; false when the peer is gone. A
/// response too large to frame is answered with an `Error` frame instead of
/// silence.
fn send(shared: &Shared, stream: &mut TcpStream, resp: &Response) -> bool {
    let written = match write_frame(stream, &encode_response(resp)) {
        Err(e) if e.kind() == ErrorKind::InvalidInput => {
            let refusal = Response::Error(format!("response not sent: {e}"));
            write_frame(stream, &encode_response(&refusal))
        }
        other => other,
    };
    match written {
        Ok(n) => {
            shared.instruments.bytes_out.add(n);
            true
        }
        Err(_) => false,
    }
}

fn accept_loop(shared: Arc<Shared>, listener: TcpListener) {
    loop {
        match listener.accept() {
            Ok((mut stream, _peer)) => {
                // Shutdown's wake-up, or a client behind the drain: close it
                // (with the listener) unserved.
                if shared.draining.load(Ordering::SeqCst) {
                    return;
                }
                shared.instruments.accepted.inc();
                if !shared.connections.admit() {
                    let resp = shared.shed(shared.retry_after_ms, &ShedReason::ConnectionLimit);
                    let _ = write_frame(&mut stream, &encode_response(&resp));
                    continue;
                }
                if spawn_handler(Arc::clone(&shared), stream).is_err() {
                    // The socket moved into the dropped closure and is
                    // already closed; give its slot back.
                    shared.connections.leave();
                }
            }
            Err(e) if e.kind() == ErrorKind::ConnectionAborted => {}
            // Anything else (`EMFILE`, say) would most likely fail again at
            // once: back off instead of spinning until a descriptor frees.
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
    }
}

/// Serve one admitted connection on a thread of its own.
fn spawn_handler(shared: Arc<Shared>, stream: TcpStream) -> std::io::Result<JoinHandle<()>> {
    let connections = Arc::clone(&shared.connections);
    std::thread::Builder::new()
        .name("net-conn".into())
        .spawn(move || {
            // The handler is panic-contained so a bug in one connection
            // cannot wedge the live count of the rest.
            let _ = catch_unwind(AssertUnwindSafe(|| handle_connection(&shared, stream)));
            // Release the server before leaving the count: shutdown takes it
            // back once the count is zero.
            drop(shared);
            connections.leave();
        })
}

/// The per-connection protocol loop.
fn handle_connection(shared: &Shared, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));

    // --- handshake -------------------------------------------------------
    let hello = loop {
        match read_frame(&mut stream, MAX_HANDSHAKE_LEN) {
            Ok((ReadOutcome::Frame(p), n)) => {
                shared.instruments.bytes_in.add(n);
                break p;
            }
            Ok((ReadOutcome::Eof, _)) => return,
            Err(FrameReadError::IdleTimeout) => {
                if shared.draining.load(Ordering::SeqCst) {
                    let _ = send(shared, &mut stream, &Response::GoAway(None));
                    return;
                }
            }
            Err(e) => {
                shared.instruments.frame_errors.inc();
                let _ = send(shared, &mut stream, &Response::Error(e.to_string()));
                return;
            }
        }
    };
    if hello.first() != Some(&tag::HELLO) {
        shared.instruments.frame_errors.inc();
        let _ = send(
            shared,
            &mut stream,
            &Response::Error("expected Hello as the first frame".into()),
        );
        return;
    }
    if let Err(reason) = check_hello(&hello[1..]) {
        shared.instruments.frame_errors.inc();
        let _ = send(shared, &mut stream, &Response::Error(reason));
        return;
    }
    match write_frame(&mut stream, &hello_frame(tag::HELLO_ACK)) {
        Ok(n) => shared.instruments.bytes_out.add(n),
        Err(_) => return,
    }

    // --- request loop ----------------------------------------------------
    let mut session: Option<SessionHandle> = None;
    loop {
        match read_frame(&mut stream, MAX_REQUEST_LEN) {
            Ok((ReadOutcome::Frame(payload), n)) => {
                shared.instruments.bytes_in.add(n);
                let started = Instant::now();
                let resp = serve_request(shared, &payload, &mut session);
                shared
                    .instruments
                    .frame_nanos
                    .record(started.elapsed().as_nanos() as u64);
                if !send(shared, &mut stream, &resp) {
                    break;
                }
            }
            Ok((ReadOutcome::Eof, _)) => break,
            Err(FrameReadError::IdleTimeout) => {
                if shared.draining.load(Ordering::SeqCst) {
                    drain_connection(shared, stream, session.take());
                    return;
                }
            }
            Err(e @ (FrameReadError::BadChecksum | FrameReadError::Empty)) => {
                // The stream is still in sync: answer and keep serving.
                shared.instruments.frame_errors.inc();
                if !send(shared, &mut stream, &Response::Error(e.to_string())) {
                    break;
                }
            }
            Err(e @ FrameReadError::Oversize(_)) => {
                shared.instruments.frame_errors.inc();
                let _ = send(shared, &mut stream, &Response::Error(e.to_string()));
                break;
            }
            Err(FrameReadError::Truncated) => {
                shared.instruments.frame_errors.inc();
                break;
            }
            Err(FrameReadError::Io(_)) => break,
        }
    }
    // The peer hung up (or the stream broke) with a session still open:
    // close it so its worker slot frees and its queued traces drain.
    if let Some(s) = session {
        let _ = s.close();
    }
}

/// Decode and serve one request frame.
fn serve_request(shared: &Shared, payload: &[u8], session: &mut Option<SessionHandle>) -> Response {
    let decode_started = Instant::now();
    let request = match decode_request(payload) {
        Ok(r) => r,
        Err(e) => {
            shared.instruments.frame_errors.inc();
            return Response::Error(e.to_string());
        }
    };
    let decode_nanos = decode_started.elapsed().as_nanos() as u64;
    let name = request.name();
    let no_session = || Response::Error(format!("{name} needs an open session"));
    match request {
        Request::OpenSession => {
            if session.is_some() {
                Response::Error("a session is already open on this connection".into())
            } else {
                let hub = shared.telemetry();
                match shared.admission.admit_open_with(|key| hub.metric(key)) {
                    Verdict::Shed {
                        retry_after_ms,
                        reason,
                    } => shared.shed(retry_after_ms, &reason),
                    Verdict::Admit => {
                        let handle = shared.server.open_session();
                        let id = handle.id();
                        *session = Some(handle);
                        Response::SessionOpened(id)
                    }
                }
            }
        }
        Request::SetAction(object, action) => match session {
            Some(s) => match s.set_action(object, action) {
                Ok(()) => Response::Ack,
                Err(e) => Response::Error(e.to_string()),
            },
            None => no_session(),
        },
        Request::RunTrace(object, trace, wire) => match session {
            Some(s) => {
                let hub = shared.telemetry();
                // Continue the client's span across the server: the root
                // opens backdated to when the frame hit the decoder, and the
                // decode itself becomes the tree's first child span. (The
                // worker later finds this buffer by the wire ids —
                // ensure_root is idempotent.)
                if let Some(w) = wire {
                    let now = hub.now_nanos();
                    let root_start = now.saturating_sub(decode_nanos);
                    hub.spans()
                        .ensure_root(s.id(), w.trace, w.root_span, root_start);
                    hub.spans().record_span(
                        s.id(),
                        w.trace,
                        0,
                        "decode",
                        root_start,
                        decode_nanos,
                        payload.len() as u64,
                    );
                }
                let admit_started = hub.now_nanos();
                match shared.admission.admit_trace_with(|key| hub.metric(key)) {
                    Verdict::Shed {
                        retry_after_ms,
                        reason,
                    } => {
                        // A shed trace's partial span buffer is dropped, not
                        // sampled.
                        if let Some(w) = wire {
                            hub.spans().trace_abort(s.id(), w.trace);
                        }
                        shared.shed(retry_after_ms, &reason)
                    }
                    // Acked only after the bounded session queue accepted the
                    // trace: server backpressure becomes client backpressure.
                    Verdict::Admit => {
                        if let Some(w) = wire {
                            let end = hub.now_nanos();
                            hub.spans().record_span(
                                s.id(),
                                w.trace,
                                0,
                                "admission",
                                admit_started,
                                end.saturating_sub(admit_started),
                                0,
                            );
                        }
                        match s.run_trace_traced(object, trace, wire) {
                            Ok(()) => Response::Ack,
                            Err(e) => {
                                if let Some(w) = wire {
                                    hub.spans().trace_abort(s.id(), w.trace);
                                }
                                Response::Error(e.to_string())
                            }
                        }
                    }
                }
            }
            None => no_session(),
        },
        Request::Snapshot => match session {
            Some(s) => match s.delta(false) {
                Ok(report) => Response::Report(report),
                Err(e) => Response::Error(e.to_string()),
            },
            None => no_session(),
        },
        Request::CloseSession => match session.take() {
            Some(mut s) => match s.delta(true) {
                Ok(report) => Response::Report(report),
                Err(e) => Response::Error(e.to_string()),
            },
            None => no_session(),
        },
        Request::Metrics => {
            Response::MetricsJson(shared.server.metrics_snapshot().to_json().pretty())
        }
        Request::MetricsText => {
            Response::MetricsText(shared.server.metrics_snapshot().render_text())
        }
        Request::DumpTraces => {
            shared.instruments.traces_dumped.inc();
            let retained = shared.telemetry().spans().retained();
            Response::TracesJson(dbtouch_obs::chrome_trace_text(&retained))
        }
    }
}

/// Graceful drain of one connection: close the session (a barrier — every
/// queued trace completes and every in-flight refinement lands), deliver its
/// last report delta in a `GoAway`, then answer any straggling requests with an
/// error until the client hangs up. Waiting for the client's EOF (instead of
/// closing immediately) keeps the kernel from discarding the buffered
/// `GoAway` with a reset.
fn drain_connection(shared: &Shared, mut stream: TcpStream, session: Option<SessionHandle>) {
    let final_report: Option<SessionReport> = session.and_then(|mut s| s.delta(true).ok());
    if !send(shared, &mut stream, &Response::GoAway(final_report)) {
        return;
    }
    let _ = stream.flush();
    let deadline = Instant::now() + DRAIN_TIMEOUT;
    loop {
        match read_frame(&mut stream, MAX_REQUEST_LEN) {
            Ok((ReadOutcome::Frame(_), n)) => {
                shared.instruments.bytes_in.add(n);
                if !send(
                    shared,
                    &mut stream,
                    &Response::Error("server is draining".into()),
                ) {
                    return;
                }
            }
            Ok((ReadOutcome::Eof, _)) => return,
            Err(FrameReadError::IdleTimeout) => {
                if Instant::now() >= deadline {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::TcpClient;
    use dbtouch_server::{ExplorationClient, ShedConfig};

    #[test]
    fn shed_events_carry_the_typed_reason() {
        let shed = ShedConfig {
            max_remote_backlog: Some(0),
            ..ShedConfig::default()
        };
        let server = NetServer::serve(ServerConfig {
            max_connections: 1,
            ..ServerConfig::with_workers(1)
                .with_shed(shed)
                .with_listen_addr("127.0.0.1:0")
        })
        .unwrap();

        // A remote-executor backlog shed names the signal that tripped.
        match TcpClient::new(server.local_addr().to_string()).open_session() {
            Err(DbTouchError::Overloaded { reason, .. }) => {
                assert_eq!(reason, "remote executor backlog 0 at or above limit 0")
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(server.metrics_snapshot().scalar("net.shed"), Some(1));

        // Of connects that arrive together, exactly `max_connections` are
        // served, whichever they are: admission takes the slot in the same
        // step it checks the count. The client above has left first.
        assert!(server
            .shared
            .connections
            .wait_drained(Duration::from_secs(10)));
        let mut burst: Vec<TcpStream> = (0..4)
            .map(|_| TcpStream::connect(server.local_addr()).unwrap())
            .collect();
        for stream in &mut burst {
            write_frame(stream, &hello_frame(tag::HELLO)).unwrap();
        }
        let (mut acked, mut shed) = (0, 0);
        for stream in &mut burst {
            // A hang guard only: every stream is answered at once.
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            match read_frame(stream, MAX_HANDSHAKE_LEN).unwrap() {
                (ReadOutcome::Frame(p), _) if p.first() == Some(&tag::HELLO_ACK) => acked += 1,
                (ReadOutcome::Frame(p), _) => match crate::codec::decode_response(&p).unwrap() {
                    Response::Shed { reason, .. } => {
                        assert_eq!(reason, "connection limit reached");
                        shed += 1;
                    }
                    other => panic!("expected Shed, got {other:?}"),
                },
                other => panic!("expected a frame, got {other:?}"),
            }
        }
        assert_eq!((acked, shed), (1, 3));
        assert_eq!(server.metrics_snapshot().scalar("net.shed"), Some(4));
        drop(burst);
        server.shutdown();
    }

    /// Shutdown wakes an acceptor listening on an unspecified address over
    /// loopback, and a peer that never finished its handshake is told the
    /// server is going away.
    #[test]
    fn shutdown_wakes_the_acceptor_and_drains_a_peer_before_its_handshake() {
        let server =
            NetServer::serve(ServerConfig::with_workers(1).with_listen_addr("0.0.0.0:0")).unwrap();
        let port = server.local_addr().port();
        let mut peer = TcpStream::connect((Ipv4Addr::LOCALHOST, port)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.instruments().connections.get() == 0 {
            assert!(Instant::now() < deadline, "the peer was never admitted");
            std::thread::yield_now();
        }
        let stopping = std::thread::spawn(move || server.shutdown());
        peer.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        match read_frame(&mut peer, crate::MAX_FRAME_LEN).unwrap() {
            (ReadOutcome::Frame(p), _) => match crate::codec::decode_response(&p).unwrap() {
                Response::GoAway(None) => {}
                other => panic!("expected GoAway, got {other:?}"),
            },
            other => panic!("expected a frame, got {other:?}"),
        }
        drop(peer);
        stopping.join().unwrap();
    }
}
