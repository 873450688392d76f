//! `rnet` — the wire layer of the distributed rcompss backend.
//!
//! A deliberately small, dependency-free protocol stack:
//!
//! * [`varint`] — LEB128 integers, the length prefix and every integer
//!   field;
//! * [`wire`] — field primitives (ints, floats, strings, byte strings) and
//!   a sequential payload [`wire::Reader`]; application value codecs build
//!   on these so driver and worker agree byte for byte;
//! * [`frame`] — the versioned, magic-prefixed frame model (task submit
//!   with interned function names, done/failed, heartbeat, data fetch,
//!   shutdown, the block plane and the sweep-client frames), each frame
//!   declared once in a table that generates the owned [`Frame`], the
//!   zero-copy [`FrameRef`] and the codec between them;
//! * [`poll`] + [`nonblock`] — the readiness layer: an epoll/poll
//!   [`poll::Poller`] with a self-pipe [`poll::Waker`], and per-connection
//!   [`nonblock::RecvBuf`]/[`nonblock::SendBuf`] reusable buffers that the
//!   event-loop backend builds its connection state machines from;
//! * [`conn`] — blocking helpers ([`read_frame`], [`write_frames`]) over
//!   those same buffers, for handshakes and the sweep client.
//!
//! The crate knows nothing about tasks, schedulers, or values — payloads
//! are opaque tagged [`frame::Blob`]s. That keeps the dependency arrow
//! pointing one way: `rcompss` (and the HPO layer above it) depend on
//! `rnet`, never the reverse.
//!
//! Encode on one side, decode on the other — the 30-second tour:
//!
//! ```
//! use rnet::{Blob, Fill, Frame, RecvBuf};
//!
//! let data = Frame::Data {
//!     key: (3 << 32) | 1,
//!     blob: Blob { tag: "hpo.config".into(), bytes: vec![1, 2, 3] },
//! };
//! let wire = data.encode();
//!
//! // The receive buffer tolerates any read boundary.
//! let (a, b) = wire.split_at(wire.len() / 2);
//! let mut recv = RecvBuf::new();
//! assert_eq!(recv.fill_from(&mut &a[..]).unwrap(), Fill::Bytes(a.len()));
//! assert!(recv.next_frame().unwrap().is_none(), "half a frame: wait");
//! recv.fill_from(&mut &b[..]).unwrap();
//! assert_eq!(recv.next_frame().unwrap().map(|f| f.to_owned()), Some(data));
//! ```

#![deny(missing_docs)]

pub mod conn;
pub mod frame;
pub mod nonblock;
pub mod poll;
pub mod status;
pub mod varint;
pub mod wire;

pub use conn::{read_frame, write_frame, write_frames};
pub use frame::{
    Blob, BlobRef, DecodeError, Frame, FrameRef, LeaderRow, LeaderRowRef, WireArg, WireArgRef,
    MAGIC, MAX_PAYLOAD, VERSION,
};
pub use nonblock::{Fill, RecvBuf, SendBuf};
pub use poll::{Event, Interest, Poller, Waker};
pub use status::StatusServer;
pub use wire::{Reader, WireError};
