//! Length-prefixed framing over a byte stream.
//!
//! Every message on the wire is a 4-byte big-endian payload length followed
//! by that many bytes of UTF-8 JSON. The framing layer is agnostic to the
//! payload — [`crate::protocol`] owns the JSON shapes — and works over any
//! `Read`/`Write` pair, which keeps it testable against in-memory buffers
//! and usable over `TcpStream` unchanged.

use std::io::{self, Read, Write};

/// Upper bound on a single frame's payload, in bytes.
///
/// Large systems serialize to a few hundred KiB; 64 MiB leaves two orders
/// of magnitude of headroom while still rejecting a client that sends a
/// garbage length word (e.g. an HTTP request aimed at our port) before we
/// try to allocate it.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Payload bytes [`read_frame`] reserves before any arrive. Frames up to
/// this size (every request and reply the service sends today) take one
/// allocation; a larger one grows with the bytes actually received, so a
/// length word that lies costs at most this much memory.
const INITIAL_FRAME_CAPACITY: usize = 64 << 10;

/// Writes one length-prefixed frame and flushes the writer.
///
/// # Errors
///
/// Returns an error if the payload exceeds [`MAX_FRAME_LEN`] or on any
/// underlying I/O failure.
pub fn write_frame(writer: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds MAX_FRAME_LEN", payload.len()),
        ));
    }
    // One contiguous write: splitting header and payload into separate
    // syscalls lets Nagle's algorithm hold the payload hostage to the
    // peer's delayed ACK of the header segment (~40 ms per round trip).
    let len = payload.len() as u32;
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(payload);
    writer.write_all(&frame)?;
    writer.flush()
}

/// Reads one length-prefixed frame.
///
/// Returns `Ok(None)` on a clean end-of-stream (the peer closed the
/// connection between frames); end-of-stream in the middle of a frame is an
/// [`io::ErrorKind::UnexpectedEof`] error.
///
/// # Errors
///
/// Returns an error on truncated frames, oversized length prefixes
/// (> [`MAX_FRAME_LEN`]) and any underlying I/O failure.
pub fn read_frame(reader: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 4];
    let mut filled = 0;
    while filled < header.len() {
        match reader.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed inside a frame header",
                ));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME_LEN"),
        ));
    }
    let mut payload = Vec::with_capacity(len.min(INITIAL_FRAME_CAPACITY));
    reader.take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!(
                "connection closed after {} of {len} payload bytes",
                payload.len()
            ),
        ));
    }
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_back_to_back() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"first").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, b"third frame").unwrap();
        // Larger than the reader's initial buffer: it must grow, not truncate.
        let large: Vec<u8> = (0..3 * INITIAL_FRAME_CAPACITY + 7)
            .map(|i| i as u8)
            .collect();
        write_frame(&mut wire, &large).unwrap();
        let mut reader = wire.as_slice();
        assert_eq!(
            read_frame(&mut reader).unwrap().as_deref(),
            Some(&b"first"[..])
        );
        assert_eq!(read_frame(&mut reader).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(
            read_frame(&mut reader).unwrap().as_deref(),
            Some(&b"third frame"[..])
        );
        assert_eq!(read_frame(&mut reader).unwrap(), Some(large));
        assert!(read_frame(&mut reader).unwrap().is_none());
    }

    #[test]
    fn clean_eof_between_frames_is_none() {
        let mut reader: &[u8] = &[];
        assert!(read_frame(&mut reader).unwrap().is_none());
    }

    #[test]
    fn eof_inside_header_or_payload_is_an_error() {
        let mut reader: &[u8] = &[0, 0];
        assert_eq!(
            read_frame(&mut reader).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        // Header promises 10 bytes, only 3 arrive.
        let mut truncated = 10u32.to_be_bytes().to_vec();
        truncated.extend_from_slice(b"abc");
        let mut reader = truncated.as_slice();
        assert_eq!(
            read_frame(&mut reader).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut wire = (u32::MAX).to_be_bytes().to_vec();
        wire.extend_from_slice(b"junk");
        let mut reader = wire.as_slice();
        assert_eq!(
            read_frame(&mut reader).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn max_length_header_then_eof_is_unexpected_eof() {
        // The largest legal claim with no payload behind it: the reader must
        // fail on the missing bytes, not reserve 64 MiB up front.
        let mut wire = (MAX_FRAME_LEN as u32).to_be_bytes().to_vec();
        wire.extend_from_slice(b"only a few bytes");
        let mut reader = wire.as_slice();
        assert_eq!(
            read_frame(&mut reader).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn oversized_payload_is_rejected_on_write() {
        let huge = vec![0u8; MAX_FRAME_LEN + 1];
        let mut wire = Vec::new();
        assert_eq!(
            write_frame(&mut wire, &huge).unwrap_err().kind(),
            io::ErrorKind::InvalidInput
        );
        assert!(wire.is_empty());
    }
}
