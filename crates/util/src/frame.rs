//! Length-prefixed framing for the synthesis daemon's socket protocol.
//!
//! A frame is a 4-byte big-endian payload length followed by exactly that
//! many payload bytes (UTF-8 JSON in the `hsyn serve` protocol, but the
//! codec is payload-agnostic). The codec is deliberately paranoid: every
//! way a peer can misbehave — closing mid-frame, advertising an absurd
//! length, trickling bytes forever — maps to a structured [`FrameError`]
//! instead of a panic or an unbounded read.

use std::io::{self, Read, Write};

/// Default upper bound on a frame payload, bytes. Large enough for any
/// realistic job (textual DFGs are a few KiB; Verilog responses a few
/// hundred KiB), small enough that a garbage length prefix cannot make the
/// reader allocate gigabytes.
pub const MAX_FRAME: usize = 32 << 20;

/// Why reading a frame failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The peer closed the connection cleanly *between* frames (EOF before
    /// any header byte). The normal end of a session, not an error in the
    /// protocol sense — callers usually stop reading here.
    Closed,
    /// The peer closed the connection *inside* a frame: mid-header or
    /// mid-payload.
    Truncated {
        /// Bytes actually received of the part being read.
        got: usize,
        /// Bytes the header promised for that part.
        want: usize,
    },
    /// The header advertised a payload larger than the reader's limit.
    /// The connection is unrecoverable (the stream position is inside an
    /// untrusted blob), so callers should close it.
    Oversized {
        /// Advertised payload length.
        len: usize,
        /// The reader's limit.
        max: usize,
    },
    /// An I/O error (including read timeouts on stalled peers).
    Io(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Truncated { got, want } => {
                write!(f, "truncated frame: got {got} of {want} bytes")
            }
            FrameError::Oversized { len, max } => {
                write!(f, "oversized frame: {len} bytes advertised, limit {max}")
            }
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Write one frame: 4-byte big-endian length, then the payload.
///
/// Header and payload go out as one buffer in one `write_all`. Two writes
/// let Nagle's algorithm hold the payload on a TCP stream until the peer
/// acknowledges the header, which a delayed ACK can postpone by ~40 ms.
///
/// # Errors
///
/// `InvalidInput` if `payload` exceeds `u32::MAX` bytes; otherwise any
/// underlying write error.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame payload exceeds u32::MAX bytes",
        )
    })?;
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Read one frame, allowing payloads up to `max` bytes.
///
/// Clean EOF at a frame boundary is [`FrameError::Closed`]; EOF anywhere
/// else is [`FrameError::Truncated`]. The payload buffer grows in bounded
/// chunks, so even a hostile length prefix ≤ `max` cannot trigger one giant
/// up-front allocation for bytes that never arrive.
///
/// # Errors
///
/// See [`FrameError`].
pub fn read_frame<R: Read>(r: &mut R, max: usize) -> Result<Vec<u8>, FrameError> {
    let mut header = [0u8; 4];
    read_exact_tracked(r, &mut header, true)?;
    let len = u32::from_be_bytes(header) as usize;
    if len > max {
        return Err(FrameError::Oversized { len, max });
    }
    // Read in bounded chunks: a lying header only costs bytes actually
    // received, never a `len`-sized allocation up front.
    let mut payload = Vec::new();
    let mut got = 0usize;
    let mut chunk = [0u8; 64 * 1024];
    while got < len {
        let take = chunk.len().min(len - got);
        match r.read(&mut chunk[..take]) {
            Ok(0) => return Err(FrameError::Truncated { got, want: len }),
            Ok(n) => {
                payload.extend_from_slice(&chunk[..n]);
                got += n;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e.to_string())),
        }
    }
    Ok(payload)
}

/// `read_exact` that reports *where* the stream ended: EOF before the first
/// byte of the header is a clean close, EOF later is a truncation.
fn read_exact_tracked<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    clean_close_ok: bool,
) -> Result<(), FrameError> {
    let want = buf.len();
    let mut got = 0usize;
    while got < want {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                return Err(if got == 0 && clean_close_ok {
                    FrameError::Closed
                } else {
                    FrameError::Truncated { got, want }
                });
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e.to_string())),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn frame_bytes(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, payload).unwrap();
        out
    }

    #[test]
    fn round_trips_payloads() {
        for payload in [&b""[..], b"x", b"{\"type\":\"ping\"}", &[0u8; 100_000]] {
            let bytes = frame_bytes(payload);
            let mut r = Cursor::new(bytes);
            assert_eq!(read_frame(&mut r, MAX_FRAME).unwrap(), payload);
            // The stream is positioned exactly at the next frame boundary.
            assert_eq!(read_frame(&mut r, MAX_FRAME), Err(FrameError::Closed));
        }
    }

    #[test]
    fn each_frame_is_one_write() {
        /// Records the size of every `write` call.
        struct Counting(Vec<usize>);
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.push(buf.len());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        for payload in [&b""[..], b"{\"type\":\"ping\"}", &[0u8; 100_000]] {
            let mut w = Counting(Vec::new());
            write_frame(&mut w, payload).unwrap();
            assert_eq!(w.0, vec![4 + payload.len()]);
        }
    }

    #[test]
    fn back_to_back_frames_stay_aligned() {
        let mut bytes = frame_bytes(b"first");
        bytes.extend(frame_bytes(b""));
        bytes.extend(frame_bytes(b"third"));
        let mut r = Cursor::new(bytes);
        assert_eq!(read_frame(&mut r, MAX_FRAME).unwrap(), b"first");
        assert_eq!(read_frame(&mut r, MAX_FRAME).unwrap(), b"");
        assert_eq!(read_frame(&mut r, MAX_FRAME).unwrap(), b"third");
        assert_eq!(read_frame(&mut r, MAX_FRAME), Err(FrameError::Closed));
    }

    #[test]
    fn eof_before_header_is_clean_close() {
        let mut r = Cursor::new(Vec::<u8>::new());
        assert_eq!(read_frame(&mut r, MAX_FRAME), Err(FrameError::Closed));
    }

    #[test]
    fn eof_inside_header_is_truncated() {
        let mut r = Cursor::new(vec![0u8, 0, 1]);
        assert_eq!(
            read_frame(&mut r, MAX_FRAME),
            Err(FrameError::Truncated { got: 3, want: 4 })
        );
    }

    #[test]
    fn eof_inside_payload_is_truncated() {
        let mut bytes = frame_bytes(b"full payload");
        bytes.truncate(4 + 4); // header + 4 of 12 payload bytes
        let mut r = Cursor::new(bytes);
        assert_eq!(
            read_frame(&mut r, MAX_FRAME),
            Err(FrameError::Truncated { got: 4, want: 12 })
        );
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut r = Cursor::new(u32::MAX.to_be_bytes().to_vec());
        assert_eq!(
            read_frame(&mut r, MAX_FRAME),
            Err(FrameError::Oversized {
                len: u32::MAX as usize,
                max: MAX_FRAME,
            })
        );
        // A limit below the advertised length trips even for small frames.
        let mut r = Cursor::new(frame_bytes(&[7u8; 100]));
        assert_eq!(
            read_frame(&mut r, 10),
            Err(FrameError::Oversized { len: 100, max: 10 })
        );
    }

    #[test]
    fn garbage_header_reads_as_length_and_fails_structurally() {
        // Four garbage bytes parse as some length; whatever follows is
        // either oversized or truncated — never a panic.
        let mut r = Cursor::new(b"\xDE\xAD\xBE\xEFgarbage".to_vec());
        match read_frame(&mut r, MAX_FRAME) {
            Err(FrameError::Oversized { .. }) | Err(FrameError::Truncated { .. }) => {}
            other => panic!("expected structured failure, got {other:?}"),
        }
    }
}
