//! Blocking frame I/O for the thread-per-connection call sites (boot
//! handshakes, the sweep client). It frames through the same
//! [`RecvBuf`]/[`SendBuf`] the event loops use, so every connection
//! decodes and encodes along one path.

use std::io::{self, Read, Write};

use crate::frame::Frame;
use crate::nonblock::{Fill, RecvBuf, SendBuf};

/// Read from a blocking transport until one frame completes.
///
/// Returns `Ok(None)` on clean EOF (peer closed) and `Err` on transport or
/// protocol errors, on EOF inside a frame, and when a read outlasts the
/// socket's read timeout: a blocking socket reports that as `WouldBlock`,
/// which ends the wait here instead of reading again. Extra frames already
/// buffered are returned by subsequent calls without touching the
/// transport.
pub fn read_frame(stream: &mut impl Read, recv: &mut RecvBuf) -> io::Result<Option<Frame>> {
    loop {
        let next = recv.next_frame().map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        if let Some(frame) = next {
            return Ok(Some(frame.to_owned()));
        }
        match recv.fill_from(stream)? {
            Fill::Bytes(_) => {}
            Fill::Eof if recv.pending() == 0 => return Ok(None),
            Fill::Eof => {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "EOF inside a frame"))
            }
            Fill::WouldBlock => {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "frame read timed out"))
            }
        }
    }
}

/// Encode `frames` into one buffer and write it in a single syscall burst
/// (the batching half of request pipelining). Returns the bytes written,
/// for byte-accounting metrics. A write that outlasts the socket's write
/// timeout is an error.
pub fn write_frames(stream: &mut impl Write, frames: &[Frame]) -> io::Result<usize> {
    let mut send = SendBuf::new();
    for f in frames {
        send.push(f);
    }
    let (written, drained) = send.flush(stream)?;
    if !drained {
        return Err(io::Error::new(io::ErrorKind::TimedOut, "frame write timed out"));
    }
    stream.flush()?;
    Ok(written)
}

/// Write one frame and flush. Returns the bytes written.
pub fn write_frame(stream: &mut impl Write, frame: &Frame) -> io::Result<usize> {
    write_frames(stream, std::slice::from_ref(frame))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{Blob, WireArg};
    use std::net::{TcpListener, TcpStream};
    use std::time::{Duration, Instant};

    fn frames() -> Vec<Frame> {
        vec![
            Frame::Hello { name: "w0".into(), cores: 2, gpus: 0, mem_gib: 8 },
            Frame::Submit {
                exec_id: 1,
                task_id: 1,
                attempt: 1,
                node: 0,
                fn_id: 1,
                fn_name: Some("churn".into()),
                variant: 0,
                cores: vec![0],
                gpus: vec![],
                args: vec![WireArg::Inline {
                    key: 1,
                    blob: Blob { tag: "t".into(), bytes: vec![9; 300] },
                }],
            },
            Frame::Heartbeat { seq: 1, t_send_us: 10, telemetry: false },
            Frame::Done {
                exec_id: 1,
                recv_us: 5,
                start_us: 6,
                end_us: 7,
                outputs: vec![Blob { tag: "t".into(), bytes: vec![] }],
            },
            Frame::Shutdown,
        ]
    }

    fn wire() -> Vec<u8> {
        let mut wire = Vec::new();
        for f in frames() {
            f.encode_into(&mut wire);
        }
        wire
    }

    /// A blocking transport that hands out one byte per read.
    struct Dribble(io::Cursor<Vec<u8>>);

    impl Read for Dribble {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = out.len().min(1);
            self.0.read(&mut out[..n])
        }
    }

    #[test]
    fn byte_at_a_time_delivery_reassembles_every_frame() {
        let mut src = Dribble(io::Cursor::new(wire()));
        let mut recv = RecvBuf::new();
        let mut seen = Vec::new();
        while let Some(f) = read_frame(&mut src, &mut recv).unwrap() {
            seen.push(f);
        }
        assert_eq!(seen, frames());
        assert_eq!(recv.pending(), 0);
    }

    #[test]
    fn read_frame_loops_over_a_cursor_transport() {
        let mut cursor = io::Cursor::new(wire());
        let mut recv = RecvBuf::new();
        let mut seen = Vec::new();
        while let Some(f) = read_frame(&mut cursor, &mut recv).unwrap() {
            seen.push(f);
        }
        assert_eq!(seen, frames());
    }

    #[test]
    fn corrupt_stream_is_fatal() {
        let mut cursor = io::Cursor::new(b"totally not a frame".to_vec());
        let err = read_frame(&mut cursor, &mut RecvBuf::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn eof_inside_a_frame_is_an_error() {
        let wire = Frame::Heartbeat { seq: 700, t_send_us: 7, telemetry: true }.encode();
        let mut cursor = io::Cursor::new(wire[..wire.len() - 1].to_vec());
        let err = read_frame(&mut cursor, &mut RecvBuf::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn read_from_a_silent_peer_times_out() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        // Accepted and held open, but never written to.
        let (_peer, _) = listener.accept().unwrap();
        stream.set_read_timeout(Some(Duration::from_millis(100))).unwrap();
        let started = Instant::now();
        let err = read_frame(&mut stream, &mut RecvBuf::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(started.elapsed() < Duration::from_millis(900), "took {:?}", started.elapsed());
    }

    #[test]
    fn write_frames_batches_and_counts_bytes() {
        let mut out = Vec::new();
        let n = write_frames(&mut out, &frames()).unwrap();
        assert_eq!(n, out.len());
        assert_eq!(out, wire());
        let single = write_frame(&mut Vec::new(), &Frame::Shutdown).unwrap();
        assert_eq!(single, Frame::Shutdown.encode().len());
    }
}
