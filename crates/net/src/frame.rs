//! Frame layer: length-prefixed, checksummed binary frames over a byte
//! stream.
//!
//! Every frame on the wire is
//!
//! ```text
//! [u32 LE payload length][payload][u32 LE checksum over payload]
//! ```
//!
//! where the payload's first byte is the frame type tag and the checksum is
//! the high half of the same 64-bit hash that guards pages and manifests
//! ([`checksum`]), so a corrupted frame is caught at the transport
//! boundary instead of surfacing as a digest mismatch three layers up. A
//! frame leaves in one `write` — header, payload and trailer gathered — so a
//! `TCP_NODELAY` socket sends it as one segment, not three.
//!
//! The reader distinguishes the failure modes the serving layer treats
//! differently:
//!
//! * clean EOF at a frame boundary — the peer hung up, [`ReadOutcome::Eof`];
//! * EOF mid-frame — [`FrameReadError::Truncated`], the connection is dead;
//! * an oversize length prefix — [`FrameReadError::Oversize`]; the remaining
//!   stream cannot be trusted, the connection must close;
//! * a checksum mismatch — [`FrameReadError::BadChecksum`]; the full frame
//!   *was* consumed, so the stream is still in sync and the connection can
//!   carry an error response and keep serving;
//! * a read timeout before the first byte of a frame —
//!   [`FrameReadError::IdleTimeout`], the hook graceful drain polls on.
//!
//! None of these panic: every byte of the payload is attacker-controlled and
//! the decoder above this layer is likewise total.

use dbtouch_types::checksum::checksum64;
use std::io::{self, ErrorKind, IoSlice, Read, Write};

/// Protocol name carried in the JSON handshake frame.
pub const PROTOCOL_NAME: &str = "dbtouch-net";
/// The one protocol version, carried in the JSON handshake frame by both
/// sides. A peer offering any other version is refused with an error frame:
/// binary layouts (the session report, for one) and the frame checksum
/// differ between versions.
pub const PROTOCOL_VERSION: u64 = 6;

/// Hard cap on a handshake (Hello/HelloAck) payload.
pub const MAX_HANDSHAKE_LEN: usize = 4 << 10;
/// Hard cap on any other frame payload. Reports of long sessions are large
/// (result streams), but nothing legitimate approaches this.
pub const MAX_FRAME_LEN: usize = 256 << 20;

/// Frame type tags (first payload byte).
pub mod tag {
    /// Client → server: JSON `{"proto": "dbtouch-net", "version": <PROTOCOL_VERSION>}`.
    pub const HELLO: u8 = 0x01;
    /// Server → client: JSON echo of the accepted protocol and version.
    pub const HELLO_ACK: u8 = 0x02;

    /// Request: open one exploration session on this connection.
    pub const OPEN_SESSION: u8 = 0x10;
    /// Request: set the touch action for an object.
    pub const SET_ACTION: u8 = 0x11;
    /// Request: run one gesture trace (acked only once enqueued, so server
    /// backpressure becomes client backpressure).
    pub const RUN_TRACE: u8 = 0x12;
    /// Request: barrier + copy of the session report.
    pub const SNAPSHOT: u8 = 0x13;
    /// Request: close the session, returning its final report.
    pub const CLOSE_SESSION: u8 = 0x14;
    /// Request: the server's metrics snapshot as JSON text (debug dump).
    pub const METRICS: u8 = 0x15;
    /// Request: retained span trees as Chrome trace-event JSON.
    pub const DUMP_TRACES: u8 = 0x16;
    /// Request: the metrics snapshot as flat text exposition.
    pub const METRICS_TEXT: u8 = 0x17;

    /// Response: session opened, body carries the session id.
    pub const SESSION_OPENED: u8 = 0x20;
    /// Response: request done, nothing to return.
    pub const ACK: u8 = 0x21;
    /// Response: a binary-encoded [`SessionReport`].
    ///
    /// [`SessionReport`]: dbtouch_server::SessionReport
    pub const REPORT: u8 = 0x22;
    /// Response: metrics snapshot as JSON text.
    pub const METRICS_JSON: u8 = 0x23;
    /// Response: the request failed; body is the rendered error. The
    /// connection stays usable.
    pub const ERROR: u8 = 0x24;
    /// Response: admission control rejected the request; body carries
    /// `retry_after_ms` and the tripped signal.
    pub const SHED: u8 = 0x25;
    /// Response: the server is draining; body optionally carries the final
    /// session report. No further requests will be served.
    pub const GO_AWAY: u8 = 0x26;
    /// Response: Chrome trace-event JSON of retained span trees.
    pub const TRACES_JSON: u8 = 0x27;
    /// Response: metrics snapshot as flat text exposition.
    pub const METRICS_TEXT_REPLY: u8 = 0x28;
}

/// The per-frame checksum: the high half of the repo's one integrity hash,
/// [`checksum64`]. Payloads of one length that differ in one word never
/// share its 64-bit state, so only this halving can collide.
pub fn checksum(payload: &[u8]) -> u32 {
    (checksum64(payload) >> 32) as u32
}

/// A successfully read event from the stream.
#[derive(Debug)]
pub enum ReadOutcome {
    /// One checksum-verified frame payload (first byte is the type tag).
    Frame(Vec<u8>),
    /// Clean EOF at a frame boundary: the peer closed the connection.
    Eof,
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameReadError {
    /// EOF in the middle of a frame: the peer died mid-send.
    Truncated,
    /// The length prefix exceeds the allowed maximum. The stream position
    /// after this error is undefined — the connection must close.
    Oversize(usize),
    /// A zero-length payload (a frame must at least carry its type tag).
    /// The stream stays in sync.
    Empty,
    /// The payload was fully consumed but its checksum did not match. The
    /// stream stays in sync — the connection can answer and continue.
    BadChecksum,
    /// The read timed out before the first byte of a new frame arrived.
    /// The stream stays in sync; used to poll a drain flag between frames.
    IdleTimeout,
    /// Any other I/O failure (connection reset, …).
    Io(String),
}

impl std::fmt::Display for FrameReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameReadError::Truncated => write!(f, "connection closed mid-frame"),
            FrameReadError::Oversize(len) => write!(f, "frame length {len} exceeds maximum"),
            FrameReadError::Empty => write!(f, "empty frame payload"),
            FrameReadError::BadChecksum => write!(f, "frame checksum mismatch"),
            FrameReadError::IdleTimeout => write!(f, "idle timeout between frames"),
            FrameReadError::Io(msg) => write!(f, "io error: {msg}"),
        }
    }
}

/// Read exactly `buf.len()` bytes. `consumed_any` reports whether any byte of
/// the current frame was already consumed: a timeout with nothing consumed is
/// the benign [`FrameReadError::IdleTimeout`]; once inside a frame, timeouts
/// keep the read alive (a slow peer is not a protocol error).
fn read_exact_tracking(
    r: &mut impl Read,
    buf: &mut [u8],
    consumed_any: &mut bool,
) -> Result<bool, FrameReadError> {
    let mut pos = 0;
    while pos < buf.len() {
        match r.read(&mut buf[pos..]) {
            Ok(0) => return Ok(false), // EOF
            Ok(n) => {
                pos += n;
                *consumed_any = true;
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if !*consumed_any {
                    return Err(FrameReadError::IdleTimeout);
                }
                // Mid-frame timeout: keep waiting for the rest.
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameReadError::Io(e.to_string())),
        }
    }
    Ok(true)
}

/// Read one frame. Returns the number of wire bytes consumed alongside the
/// outcome so callers can account `net.bytes_in` without wrapping the stream.
pub fn read_frame(r: &mut impl Read, max_len: usize) -> Result<(ReadOutcome, u64), FrameReadError> {
    let mut consumed_any = false;
    let mut header = [0u8; 4];
    if !read_exact_tracking(r, &mut header, &mut consumed_any)? {
        return if consumed_any {
            Err(FrameReadError::Truncated)
        } else {
            Ok((ReadOutcome::Eof, 0))
        };
    }
    let len = u32::from_le_bytes(header) as usize;
    if len == 0 {
        // Consume the trailing checksum to stay in sync, then report.
        let mut trailer = [0u8; 4];
        if !read_exact_tracking(r, &mut trailer, &mut consumed_any)? {
            return Err(FrameReadError::Truncated);
        }
        return Err(FrameReadError::Empty);
    }
    if len > max_len {
        return Err(FrameReadError::Oversize(len));
    }
    let mut payload = vec![0u8; len];
    if !read_exact_tracking(r, &mut payload, &mut consumed_any)? {
        return Err(FrameReadError::Truncated);
    }
    let mut trailer = [0u8; 4];
    if !read_exact_tracking(r, &mut trailer, &mut consumed_any)? {
        return Err(FrameReadError::Truncated);
    }
    let wire_bytes = (8 + len) as u64;
    if u32::from_le_bytes(trailer) != checksum(&payload) {
        return Err(FrameReadError::BadChecksum);
    }
    Ok((ReadOutcome::Frame(payload), wire_bytes))
}

/// Write one frame; returns the number of wire bytes written. An empty
/// payload or one over [`MAX_FRAME_LEN`] is refused with
/// [`ErrorKind::InvalidInput`] before a byte is written (the peer would
/// answer `Empty`/`Oversize` and, for the latter, drop the connection).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<u64> {
    write_frame_within(w, payload, MAX_FRAME_LEN)
}

/// [`write_frame`] against an explicit payload limit.
fn write_frame_within(w: &mut impl Write, payload: &[u8], max_len: usize) -> io::Result<u64> {
    let len = match u32::try_from(payload.len()) {
        Ok(len) if (1..=max_len).contains(&payload.len()) => len,
        _ => {
            return Err(io::Error::new(
                ErrorKind::InvalidInput,
                format!(
                    "frame payload of {} bytes is outside 1..={max_len} (tag byte included)",
                    payload.len()
                ),
            ))
        }
    };
    let header = len.to_le_bytes();
    let trailer = checksum(payload).to_le_bytes();
    let total = 8 + payload.len();
    // Header, payload and trailer gathered into one write: one syscall and
    // one segment on a `TCP_NODELAY` socket. A short write resumes from
    // where it stopped.
    let mut sent = 0;
    while sent < total {
        // How much of a part that starts `starts_at` bytes into the frame
        // has already gone out.
        let done = |part: &[u8], starts_at: usize| sent.saturating_sub(starts_at).min(part.len());
        let parts = [
            IoSlice::new(&header[done(&header, 0)..]),
            IoSlice::new(&payload[done(payload, 4)..]),
            IoSlice::new(&trailer[done(&trailer, 4 + payload.len())..]),
        ];
        match w.write_vectored(&parts) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => sent += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()?;
    Ok(total as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrip_one_frame() {
        let mut buf = Vec::new();
        let written = write_frame(&mut buf, &[tag::ACK, 1, 2, 3]).unwrap();
        assert_eq!(written, buf.len() as u64);
        let mut cursor = Cursor::new(buf);
        let (outcome, read) = read_frame(&mut cursor, MAX_FRAME_LEN).unwrap();
        assert_eq!(read, written);
        match outcome {
            ReadOutcome::Frame(p) => assert_eq!(p, vec![tag::ACK, 1, 2, 3]),
            other => panic!("unexpected outcome: {other:?}"),
        }
        // And a clean EOF right after.
        let (outcome, _) = read_frame(&mut cursor, MAX_FRAME_LEN).unwrap();
        assert!(matches!(outcome, ReadOutcome::Eof));
    }

    /// A payload of `len` bytes with a valid tag and a non-repeating body.
    fn payload_of(len: usize) -> Vec<u8> {
        let mut p: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
        p[0] = tag::REPORT;
        p
    }

    fn frames_of(lens: &[usize]) -> (Vec<Vec<u8>>, Vec<u8>) {
        let payloads: Vec<Vec<u8>> = lens.iter().map(|&len| payload_of(len)).collect();
        let mut wire = Vec::new();
        for p in &payloads {
            write_frame(&mut wire, p).unwrap();
        }
        (payloads, wire)
    }

    /// Read frames until EOF, retrying idle timeouts.
    fn read_all(r: &mut impl Read) -> Vec<Vec<u8>> {
        let mut frames = Vec::new();
        loop {
            match read_frame(r, MAX_FRAME_LEN) {
                Ok((ReadOutcome::Frame(p), n)) => {
                    assert_eq!(n, 8 + p.len() as u64);
                    frames.push(p);
                }
                Ok((ReadOutcome::Eof, _)) => return frames,
                Err(FrameReadError::IdleTimeout) => {}
                Err(e) => panic!("unexpected read error: {e}"),
            }
        }
    }

    /// Yields one byte per `read`, and — when `stall` is set — a
    /// `WouldBlock` before every byte, so every frame is split at every byte
    /// boundary and every boundary sees a timeout.
    struct Trickle {
        bytes: Vec<u8>,
        pos: usize,
        stall: bool,
        stalled: bool,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pos == self.bytes.len() || buf.is_empty() {
                return Ok(0);
            }
            if self.stall && !self.stalled {
                self.stalled = true;
                return Err(ErrorKind::WouldBlock.into());
            }
            self.stalled = false;
            buf[0] = self.bytes[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn frames_split_at_every_byte_boundary_decode_the_same() {
        // Lengths straddle the checksum's 8-byte lanes.
        let (payloads, wire) = frames_of(&[1, 7, 8, 9, 15, 16, 17, 300]);
        for stall in [false, true] {
            let mut trickle = Trickle {
                bytes: wire.clone(),
                pos: 0,
                stall,
                stalled: false,
            };
            assert_eq!(read_all(&mut trickle), payloads, "stall: {stall}");
        }
    }

    /// Counts calls; accepts everything (`limit` = `usize::MAX`) or at most
    /// `limit` bytes per call.
    struct CountingSink {
        bytes: Vec<u8>,
        writes: usize,
        limit: usize,
    }

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.writes += 1;
            let mut room = self.limit;
            for buf in bufs {
                let take = buf.len().min(room);
                self.bytes.extend_from_slice(&buf[..take]);
                room -= take;
            }
            Ok(self.limit - room)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn one_write_per_frame() {
        for len in [1, 4 << 10, 64 << 10] {
            let (_, expected) = frames_of(&[len]);
            let mut sink = CountingSink {
                bytes: Vec::new(),
                writes: 0,
                limit: usize::MAX,
            };
            let written = write_frame(&mut sink, &payload_of(len)).unwrap();
            assert_eq!(sink.writes, 1, "payload of {len} bytes");
            assert_eq!(written, expected.len() as u64);
            assert_eq!(sink.bytes, expected);
        }
    }

    #[test]
    fn short_writes_resume_where_they_stopped() {
        // 3 bytes per call splits header, payload and trailer mid-part.
        let (_, expected) = frames_of(&[17]);
        let mut sink = CountingSink {
            bytes: Vec::new(),
            writes: 0,
            limit: 3,
        };
        write_frame(&mut sink, &payload_of(17)).unwrap();
        assert_eq!(sink.bytes, expected);
        assert_eq!(sink.writes, expected.len().div_ceil(3));
    }

    #[test]
    fn unframeable_payloads_are_refused_before_a_byte_is_written() {
        let mut sink = Vec::new();
        let err = write_frame_within(&mut sink, &payload_of(65), 64).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidInput);
        let err = write_frame(&mut sink, &[]).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidInput);
        assert!(sink.is_empty());
        // At the limit is fine.
        assert_eq!(
            write_frame_within(&mut sink, &payload_of(64), 64).unwrap(),
            72
        );
    }

    #[test]
    fn bad_checksum_keeps_stream_in_sync() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[tag::ACK, 9]).unwrap();
        let second_at = buf.len();
        write_frame(&mut buf, &[tag::ERROR, 7]).unwrap();
        buf[5] ^= 0xff; // corrupt the first frame's payload
        let mut cursor = Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cursor, MAX_FRAME_LEN),
            Err(FrameReadError::BadChecksum)
        ));
        // The reader consumed exactly the corrupt frame; the next one parses.
        assert_eq!(cursor.position() as usize, second_at);
        let (outcome, _) = read_frame(&mut cursor, MAX_FRAME_LEN).unwrap();
        match outcome {
            ReadOutcome::Frame(p) => assert_eq!(p, vec![tag::ERROR, 7]),
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn truncated_and_oversize_and_empty() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[tag::ACK, 1, 2, 3, 4]).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(matches!(
            read_frame(&mut Cursor::new(buf), MAX_FRAME_LEN),
            Err(FrameReadError::Truncated)
        ));

        let huge = (u32::MAX).to_le_bytes().to_vec();
        assert!(matches!(
            read_frame(&mut Cursor::new(huge), MAX_FRAME_LEN),
            Err(FrameReadError::Oversize(_))
        ));

        let mut empty = 0u32.to_le_bytes().to_vec();
        empty.extend_from_slice(&checksum(&[]).to_le_bytes());
        assert!(matches!(
            read_frame(&mut Cursor::new(empty), MAX_FRAME_LEN),
            Err(FrameReadError::Empty)
        ));
    }
}
