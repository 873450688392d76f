//! The frame model: every message the driver and worker exchange.
//!
//! Wire layout of one frame:
//!
//! ```text
//! +-----+-----+---------+-----------+----------------+---------+
//! | 'R' | 'N' | version | frame type| varint payload | payload |
//! |     |     |  (1 B)  |   (1 B)   |     length     | bytes   |
//! +-----+-----+---------+-----------+----------------+---------+
//! ```
//!
//! The magic bytes catch cross-talk (something that is not a peer
//! connecting to the port), the version byte gates protocol evolution, and
//! the varint length keeps the common small frames (heartbeats, no-payload
//! shutdowns) at single-digit bytes — the "lean length-prefixed frame"
//! style of rpc-perf rather than a general-purpose serialisation stack.
//!
//! Each frame is declared once, in the frame table below: its type byte
//! and its fields, in wire order. The table generates the owned [`Frame`],
//! the zero-copy [`FrameRef`] and the codec between them. A payload is the
//! frame's fields back to back, each in the encoding of its type: integers
//! are varints, `f64` is 8 bytes little-endian, strings and byte strings
//! are length-prefixed, a `u128` is two varint halves (high, low), `bool`
//! and `Option` are a 0/1 flag, a `Vec` is a varint count and its
//! elements, and a struct or [`WireArg`] is its fields in order (a
//! `WireArg` led by its kind).
//!
//! Decoding is incremental: [`Frame::decode`] returns `Ok(None)` while the
//! buffer holds only a frame prefix, so a reader can accumulate bytes from
//! the socket at arbitrary boundaries and retry.

use crate::varint;
use crate::wire::{self, Reader, WireError};

/// Protocol magic: the first two bytes of every frame.
pub const MAGIC: [u8; 2] = *b"RN";

/// Current protocol version.
pub const VERSION: u8 = 1;

/// Upper bound on a single frame payload (64 MiB). A length prefix beyond
/// this is treated as corruption rather than an allocation request.
pub const MAX_PAYLOAD: u64 = 64 * 1024 * 1024;

/// Why a buffer cannot be decoded as a frame. All variants are fatal for
/// the connection — only `Ok(None)` from [`Frame::decode`] means "wait for
/// more bytes".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The first two bytes are not [`MAGIC`].
    BadMagic,
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Unknown frame-type byte.
    UnknownFrameType(u8),
    /// Payload length beyond [`MAX_PAYLOAD`].
    Oversize(u64),
    /// The payload did not parse as its frame type.
    Malformed(String),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "bad frame magic"),
            DecodeError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            DecodeError::UnknownFrameType(t) => write!(f, "unknown frame type {t}"),
            DecodeError::Oversize(n) => write!(f, "frame payload of {n} bytes exceeds limit"),
            DecodeError::Malformed(m) => write!(f, "malformed frame payload: {m}"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<WireError> for DecodeError {
    fn from(e: WireError) -> Self {
        DecodeError::Malformed(e.0)
    }
}

/// How one frame field crosses the wire: `put` appends its bytes, `read`
/// decodes its borrowed form in place and `to_owned` copies that out.
pub(crate) trait Field: Sized {
    /// The decoded form: strings and byte strings borrow the buffer.
    type Ref<'a>;
    fn put(&self, out: &mut Vec<u8>);
    fn read<'a>(r: &mut Reader<'a>) -> Result<Self::Ref<'a>, WireError>;
    fn to_owned(r: &Self::Ref<'_>) -> Self;
}

/// Fields whose decoded form is the value itself.
macro_rules! copy_fields {
    ($($t:ty: $put:path, $read:path;)*) => {$(
        impl Field for $t {
            type Ref<'a> = $t;
            fn put(&self, out: &mut Vec<u8>) {
                $put(out, *self)
            }
            fn read<'a>(r: &mut Reader<'a>) -> Result<$t, WireError> {
                $read(r)
            }
            fn to_owned(r: &$t) -> $t {
                *r
            }
        }
    )*};
}

copy_fields! {
    u32: wire::put_u32, Reader::u32;
    u64: wire::put_u64, Reader::u64;
    f64: wire::put_f64, Reader::f64;
    u128: put_u128, read_u128;
    bool: put_flag, read_flag;
}

/// A 128-bit content hash as two varint u64 halves (high, low): `wire`
/// only speaks u64-sized integers.
fn put_u128(out: &mut Vec<u8>, v: u128) {
    wire::put_u64(out, (v >> 64) as u64);
    wire::put_u64(out, v as u64);
}

fn read_u128(r: &mut Reader<'_>) -> Result<u128, WireError> {
    let hi = r.u64()?;
    let lo = r.u64()?;
    Ok(((hi as u128) << 64) | lo as u128)
}

fn put_flag(out: &mut Vec<u8>, v: bool) {
    wire::put_u64(out, u64::from(v));
}

/// A flag is 0 or 1; anything else is a malformed payload.
fn read_flag(r: &mut Reader<'_>) -> Result<bool, WireError> {
    match r.u64()? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(WireError(format!("bad flag {other}"))),
    }
}

impl Field for String {
    type Ref<'a> = &'a str;
    fn put(&self, out: &mut Vec<u8>) {
        wire::put_str(out, self);
    }
    fn read<'a>(r: &mut Reader<'a>) -> Result<&'a str, WireError> {
        r.str_ref()
    }
    fn to_owned(r: &&str) -> String {
        r.to_string()
    }
}

impl Field for Vec<u8> {
    type Ref<'a> = &'a [u8];
    fn put(&self, out: &mut Vec<u8>) {
        wire::put_bytes(out, self);
    }
    fn read<'a>(r: &mut Reader<'a>) -> Result<&'a [u8], WireError> {
        r.bytes()
    }
    fn to_owned(r: &&[u8]) -> Vec<u8> {
        r.to_vec()
    }
}

impl<T: Field> Field for Option<T> {
    type Ref<'a> = Option<T::Ref<'a>>;
    fn put(&self, out: &mut Vec<u8>) {
        put_flag(out, self.is_some());
        if let Some(v) = self {
            v.put(out);
        }
    }
    fn read<'a>(r: &mut Reader<'a>) -> Result<Self::Ref<'a>, WireError> {
        Ok(if read_flag(r)? { Some(T::read(r)?) } else { None })
    }
    fn to_owned(r: &Self::Ref<'_>) -> Self {
        r.as_ref().map(T::to_owned)
    }
}

impl<T: Field> Field for Vec<T> {
    type Ref<'a> = Vec<T::Ref<'a>>;
    fn put(&self, out: &mut Vec<u8>) {
        wire::put_u64(out, self.len() as u64);
        for v in self {
            v.put(out);
        }
    }
    fn read<'a>(r: &mut Reader<'a>) -> Result<Self::Ref<'a>, WireError> {
        // The count comes off the wire: cap the reservation, and let a
        // count that overstates the payload fail on truncation.
        let n = r.u64()?;
        let mut out = Vec::with_capacity(n.min(1024) as usize);
        for _ in 0..n {
            out.push(T::read(r)?);
        }
        Ok(out)
    }
    fn to_owned(r: &Self::Ref<'_>) -> Self {
        r.iter().map(T::to_owned).collect()
    }
}

impl<A: Field, B: Field> Field for (A, B) {
    type Ref<'a> = (A::Ref<'a>, B::Ref<'a>);
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn read<'a>(r: &mut Reader<'a>) -> Result<Self::Ref<'a>, WireError> {
        Ok((A::read(r)?, B::read(r)?))
    }
    fn to_owned(r: &Self::Ref<'_>) -> Self {
        (A::to_owned(&r.0), B::to_owned(&r.1))
    }
}

/// The [`FrameRef`] field type of an owned [`Frame`] field type: the same
/// mapping as [`Field::Ref`], spelled out so the public enum names plain
/// types rather than projections through the crate-private trait.
macro_rules! borrowed {
    ($a:lifetime, String) => { &$a str };
    ($a:lifetime, Vec<u8>) => { &$a [u8] };
    ($a:lifetime, Vec<$t:tt>) => { Vec<borrowed!($a, $t)> };
    ($a:lifetime, Option<$t:tt>) => { Option<borrowed!($a, $t)> };
    ($a:lifetime, ($x:tt, $y:tt)) => { (borrowed!($a, $x), borrowed!($a, $y)) };
    ($a:lifetime, Blob) => { BlobRef<$a> };
    ($a:lifetime, WireArg) => { WireArgRef<$a> };
    ($a:lifetime, LeaderRow) => { LeaderRowRef<$a> };
    ($a:lifetime, $t:ident) => { $t };
}

/// Declare a struct that crosses the wire as its fields in order: the
/// owned struct, its borrowed twin and the [`Field`] impl between them.
macro_rules! wire_struct {
    (
        $(#[$m:meta])* $Owned:ident,
        $(#[$rm:meta])* $Ref:ident { $($(#[$fm:meta])* $f:ident: $t:ident $(<$inner:tt>)?,)* }
    ) => {
        $(#[$m])*
        pub struct $Owned {
            $($(#[$fm])* pub $f: $t $(<$inner>)?,)*
        }

        $(#[$rm])*
        pub struct $Ref<'a> {
            $($(#[$fm])* pub $f: borrowed!('a, $t $(<$inner>)?),)*
        }

        impl $Ref<'_> {
            #[doc = concat!("Copy into an owned [`", stringify!($Owned), "`].")]
            pub fn to_owned(&self) -> $Owned {
                $Owned { $($f: <$t $(<$inner>)? as Field>::to_owned(&self.$f),)* }
            }
        }

        impl Field for $Owned {
            type Ref<'a> = $Ref<'a>;
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$f.put(out);)*
            }
            fn read<'a>(r: &mut Reader<'a>) -> Result<$Ref<'a>, WireError> {
                Ok($Ref { $($f: <$t $(<$inner>)? as Field>::read(r)?,)* })
            }
            fn to_owned(r: &$Ref<'_>) -> $Owned {
                r.to_owned()
            }
        }
    };
}

wire_struct! {
    /// A tagged, opaque serialised value: `tag` names the application codec
    /// that produced `bytes` (e.g. `"hpo.config"`). The protocol layer never
    /// interprets the bytes.
    #[derive(Debug, Clone, PartialEq, Eq)]
    Blob,
    /// Borrowed view of a [`Blob`]: tag and payload point straight into the
    /// receive buffer the frame was decoded from.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    BlobRef {
        /// Codec tag.
        tag: String,
        /// Encoded value.
        bytes: Vec<u8>,
    }
}

wire_struct! {
    /// One leaderboard entry as streamed in a [`Frame::LeaderboardChunk`]:
    /// a finished trial's config label and headline numbers. The protocol
    /// layer carries the rows; what "accuracy" means is the application's
    /// business.
    #[derive(Debug, Clone, PartialEq)]
    LeaderRow,
    /// Borrowed view of a [`LeaderRow`].
    #[derive(Debug, Clone, Copy, PartialEq)]
    LeaderRowRef {
        /// Human-readable config label (e.g. `optimizer=Adam num_epochs=2`).
        label: String,
        /// Final objective value (higher is better).
        accuracy: f64,
        /// Epochs actually run (early-stopped trials report fewer).
        epochs: u32,
        /// Task wall time, µs.
        task_us: u64,
    }
}

/// Declare a tagged union that crosses the wire as its variant's tag, then
/// that variant's fields in order: the owned enum, its borrowed twin, and
/// per-variant tag, encode, decode and copy-out code. Where the tag goes
/// is the caller's business — a frame header byte for [`Frame`], a leading
/// varint for [`WireArg`].
macro_rules! wire_enum {
    (
        $(#[$m:meta])* $Owned:ident,
        $(#[$rm:meta])* $Ref:ident {$(
            $(#[$vm:meta])*
            $V:ident = $tag:literal $({ $($(#[$fm:meta])* $f:ident: $t:ident $(<$inner:tt>)?,)* })?,
        )*}
    ) => {
        $(#[$m])*
        pub enum $Owned {
            $($(#[$vm])* $V $({ $($(#[$fm])* $f: $t $(<$inner>)?,)* })?,)*
        }

        $(#[$rm])*
        pub enum $Ref<'a> {
            $(
                #[doc = concat!("See [`", stringify!($Owned), "::", stringify!($V), "`].")]
                $V $({ $($(#[$fm])* $f: borrowed!('a, $t $(<$inner>)?),)* })?,
            )*
        }

        impl $Owned {
            /// Whether `tag` names a variant.
            fn is_tag(tag: u8) -> bool {
                const KNOWN: [bool; 256] = {
                    let mut known = [false; 256];
                    $(known[$tag] = true;)*
                    known
                };
                KNOWN[usize::from(tag)]
            }

            fn tag(&self) -> u8 {
                match self {
                    $($Owned::$V { .. } => $tag,)*
                }
            }

            /// Append the variant's fields (not its tag).
            fn encode_fields(&self, out: &mut Vec<u8>) {
                match self {
                    $($Owned::$V $({ $($f),* })? => { $($($f.put(out);)*)? })*
                }
            }
        }

        impl<'a> $Ref<'a> {
            /// Decode the fields of the variant tagged `tag`.
            fn decode_fields(tag: u8, r: &mut Reader<'a>) -> Result<Self, WireError> {
                Ok(match tag {
                    $($tag => $Ref::$V $({ $($f: <$t $(<$inner>)? as Field>::read(r)?,)* })?,)*
                    _ => {
                        let what = stringify!($Owned);
                        return Err(WireError(format!("unknown {what} tag {tag}")));
                    }
                })
            }

            #[doc = concat!(
                "Materialise an owned [`", stringify!($Owned), "`], copying every borrowed field."
            )]
            pub fn to_owned(&self) -> $Owned {
                match self {
                    $($Ref::$V $({ $($f),* })? => $Owned::$V $({
                        $($f: <$t $(<$inner>)? as Field>::to_owned($f),)*
                    })?,)*
                }
            }
        }
    };
}

wire_enum! {
    /// One task input as shipped in a [`Frame::Submit`].
    #[derive(Debug, Clone, PartialEq, Eq)]
    WireArg,
    /// Borrowed view of a [`WireArg`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    WireArgRef {
        /// Value shipped inline; the worker caches it under `key`.
        Inline = 0 {
            /// Driver-side data key (`handle << 32 | version`).
            key: u64,
            /// The serialised value.
            blob: Blob,
        },
        /// Value already resident in the worker's cache from an earlier
        /// `Inline` or `Data` frame; the worker fetches on a cache miss.
        Cached = 1 {
            /// Driver-side data key.
            key: u64,
        },
        /// Value stored in the content-addressed block plane: the worker
        /// resolves `hash` against its local block cache and issues a
        /// [`Frame::BlockRequest`] on a miss. `key` still names the data
        /// version so the worker can alias the decoded value.
        Block = 2 {
            /// Driver-side data key (`handle << 32 | version`).
            key: u64,
            /// Content hash of the encoded value.
            hash: u128,
        },
    }
}

/// The kind as a varint, then the variant's fields.
impl Field for WireArg {
    type Ref<'a> = WireArgRef<'a>;
    fn put(&self, out: &mut Vec<u8>) {
        wire::put_u64(out, u64::from(self.tag()));
        self.encode_fields(out);
    }
    fn read<'a>(r: &mut Reader<'a>) -> Result<WireArgRef<'a>, WireError> {
        let kind = r.u64()?;
        match u8::try_from(kind) {
            Ok(tag) if WireArg::is_tag(tag) => WireArgRef::decode_fields(tag, r),
            _ => Err(WireError(format!("bad arg kind {kind}"))),
        }
    }
    fn to_owned(r: &WireArgRef<'_>) -> WireArg {
        r.to_owned()
    }
}

// The frame table: per frame its docs, its type byte and its fields in
// wire order.
wire_enum! {
    /// Every message of the protocol.
    #[derive(Debug, Clone, PartialEq)]
    Frame,
    /// Borrowed view of a [`Frame`], decoded in place from a receive buffer.
    ///
    /// This is the zero-copy half of the decode API: strings and blob payloads
    /// point straight into the buffer the bytes arrived in, so a hot loop can
    /// hand a `Done` frame's outputs to the value codecs without an
    /// intermediate copy. Call [`FrameRef::to_owned`] when the data must
    /// outlive the buffer (which invalidates on the next compaction or fill).
    ///
    /// ```
    /// use rnet::{Frame, FrameRef};
    ///
    /// let hb = Frame::Heartbeat { seq: 7, t_send_us: 1_000, telemetry: false };
    /// let wire = hb.encode();
    /// let (frame, used) = FrameRef::decode(&wire).unwrap().expect("complete");
    /// assert_eq!(used, wire.len());
    /// assert!(matches!(frame, FrameRef::Heartbeat { seq: 7, .. }));
    /// assert_eq!(frame.to_owned(), hb);
    /// ```
    #[derive(Debug, Clone, PartialEq)]
    FrameRef {
        /// Worker → driver, once per connection: resource registration.
        Hello = 1 {
            /// Worker display name (defaults to its listen address).
            name: String,
            /// CPU cores offered.
            cores: u32,
            /// GPUs offered.
            gpus: u32,
            /// Memory offered, GiB.
            mem_gib: u32,
        },
        /// Driver → worker: run one task attempt.
        Submit = 2 {
            /// Driver-side execution id, echoed in `Done`/`Failed`.
            exec_id: u64,
            /// Task instance id (for logs/traces on the worker).
            task_id: u64,
            /// 1-based attempt number.
            attempt: u32,
            /// The driver's node id for this worker (context for the body).
            node: u32,
            /// Interned function id: stable per connection.
            fn_id: u64,
            /// Function name, present only the first time `fn_id` is used on
            /// this connection — later submits send just the id.
            fn_name: Option<String>,
            /// Which task implementation to run (0 = primary).
            variant: u32,
            /// Exact core ids granted on the worker.
            cores: Vec<u32>,
            /// Exact GPU ids granted on the worker.
            gpus: Vec<u32>,
            /// Inputs, in argument order.
            args: Vec<WireArg>,
        },
        /// Worker → driver: task attempt succeeded.
        ///
        /// Besides the outputs, the worker stamps the attempt's lifecycle on its
        /// own clock: submit receipt, execution start, execution end. Combined
        /// with the heartbeat clock-offset estimate the driver turns these into
        /// per-phase latencies (wire / exec / result-ship) without a second
        /// round trip.
        Done = 3 {
            /// Echoed execution id.
            exec_id: u64,
            /// Worker clock when the `Submit` frame was decoded, µs.
            recv_us: u64,
            /// Worker clock when the task body started, µs.
            start_us: u64,
            /// Worker clock when the task body returned, µs.
            end_us: u64,
            /// Serialised outputs, in declaration order.
            outputs: Vec<Blob>,
        },
        /// Worker → driver: task attempt failed (body error or panic).
        Failed = 4 {
            /// Echoed execution id.
            exec_id: u64,
            /// Human-readable reason.
            message: String,
        },
        /// Driver → worker liveness probe, doubling as a clock-sync sample
        /// (NTP-style: the ack echoes `t_send_us` and adds the receiver's own
        /// receive/reply stamps, letting the sender estimate offset and RTT).
        Heartbeat = 5 {
            /// Monotonic per-connection sequence number.
            seq: u64,
            /// Sender's clock at transmission, µs on its own epoch.
            t_send_us: u64,
            /// Whether the sender wants the peer to flush telemetry
            /// ([`Frame::TraceChunk`] / [`Frame::StatsSnapshot`]) frames. When
            /// false the peer must stay silent on those frame types, keeping
            /// the tracing flag a true wire-level no-op.
            telemetry: bool,
        },
        /// Worker → driver reply to [`Frame::Heartbeat`].
        HeartbeatAck = 6 {
            /// Echoed sequence number.
            seq: u64,
            /// Echo of the probe's `t_send_us` (sender clock).
            t_send_us: u64,
            /// Receiver's clock when the probe arrived, µs on its own epoch.
            recv_us: u64,
            /// Receiver's clock when this ack was built, µs on its own epoch.
            reply_us: u64,
        },
        /// Worker → driver: a `Cached` input missed the cache.
        Fetch = 7 {
            /// The missing data key.
            key: u64,
        },
        /// Driver → worker: the value for an earlier [`Frame::Fetch`].
        Data = 8 {
            /// The data key.
            key: u64,
            /// The serialised value.
            blob: Blob,
        },
        /// Driver → worker: drain and close the connection.
        Shutdown = 9,
        /// A batch of trace records, shipped worker → driver only while the
        /// peer's last [`Frame::Heartbeat`] asked for telemetry. The payload is
        /// opaque to the protocol layer — the application's trace codec
        /// produced it — keeping `rnet` ignorant of trace semantics the same
        /// way task payloads stay opaque [`Blob`]s.
        TraceChunk = 10 {
            /// Application-encoded trace records.
            bytes: Vec<u8>,
        },
        /// A point-in-time stat sample, shipped worker → driver on the same
        /// telemetry gate as [`Frame::TraceChunk`]. Generic name/value pairs:
        /// the protocol layer carries them, the application names them.
        StatsSnapshot = 11 {
            /// Sender's clock when the sample was taken, µs on its own epoch.
            wall_us: u64,
            /// Monotonically increasing counters, `(name, value)`.
            counters: Vec<(String, u64)>,
            /// Instantaneous values, `(name, value)`.
            gauges: Vec<(String, f64)>,
        },
        /// Driver → worker: proactively seed one content-addressed block into
        /// the worker's block cache, ahead of a `Submit` whose args reference
        /// it by hash. Idempotent: a worker already holding `hash` ignores the
        /// payload.
        BlockPut = 12 {
            /// Content hash of `blob`'s encoded bytes.
            hash: u128,
            /// The serialised value.
            blob: Blob,
        },
        /// Worker → driver: a [`WireArg::Block`] input missed the block cache.
        BlockRequest = 13 {
            /// The missing content hash.
            hash: u128,
        },
        /// Driver → worker: the block for an earlier [`Frame::BlockRequest`].
        BlockData = 14 {
            /// The content hash.
            hash: u128,
            /// The serialised value.
            blob: Blob,
        },
        /// Worker → driver: the LRU budget evicted a block; the driver must
        /// drop its residency record so future placements re-ship it.
        BlockEvict = 15 {
            /// The evicted content hash.
            hash: u128,
        },
        /// Client → server, once per connection: role negotiation. A worker's
        /// first frame on the shared listener is a [`Frame::Hello`]; a sweep
        /// client's is a `ClientHello` naming its tenant. Everything after
        /// follows from that first frame type.
        ClientHello = 16 {
            /// Tenant identity the connection's sweeps are accounted to.
            tenant: String,
            /// Client-side protocol revision (forward-compat gate).
            proto: u32,
        },
        /// Client → server: run one hyperparameter sweep on the shared pool.
        SubmitSweep = 17 {
            /// Display name for the sweep (logs, metrics labels).
            name: String,
            /// The JSON search-space document (the paper's config file).
            space_json: String,
            /// Search algorithm (`grid` | `random` | `tpe` | `bayes`).
            algo: String,
            /// Trial budget for the sampling algorithms (grid ignores it).
            trials: u32,
            /// RNG seed — same seed + space + algo ⇒ same trial sequence.
            seed: u64,
            /// Wave size override (0 = server default).
            wave: u32,
        },
        /// Server → client: a request was refused (admission control, quota,
        /// malformed space, unknown sweep). The typed error frame of the
        /// client plane: `code` is machine-readable, `message` for humans.
        SweepReject = 18 {
            /// Machine-readable reject class (see the application's catalogue).
            code: u32,
            /// Human-readable reason.
            message: String,
        },
        /// Sweep status, in both directions. Client → server it is a query:
        /// only `sweep_id` and `follow` are meaningful (`follow != 0`
        /// subscribes the connection to the sweep's live leaderboard stream).
        /// Server → client it is the answer — and the ack of a
        /// [`Frame::SubmitSweep`], carrying the assigned `sweep_id`.
        SweepStatus = 19 {
            /// Server-assigned sweep id.
            sweep_id: u64,
            /// Lifecycle state (application-defined catalogue).
            state: u32,
            /// Trials finished successfully.
            done: u32,
            /// Trials failed.
            failed: u32,
            /// Total trial budget (0 = unknown ahead of time).
            total: u32,
            /// Best objective value so far (NaN-free: 0 until a trial lands).
            best_acc: f64,
            /// Config label of the best trial so far (empty until one lands).
            best_label: String,
            /// Times this sweep's tenant hit its rate limit so far.
            throttled: u64,
            /// Query direction only: subscribe to the live leaderboard.
            follow: u32,
        },
        /// Server → client: a batch of freshly finished trials for a sweep the
        /// connection follows. Subscribing replays the full leaderboard so
        /// far, then streams increments as trials land.
        LeaderboardChunk = 20 {
            /// The sweep the rows belong to.
            sweep_id: u64,
            /// Finished trials, in completion order.
            rows: Vec<LeaderRow>,
        },
        /// Client → server: stop a sweep. In-flight trials drain; the sweep
        /// ends in the `cancelled` state and its workers return to the pool.
        CancelSweep = 21 {
            /// The sweep to cancel.
            sweep_id: u64,
        },
        /// Server → client: terminal state of a sweep the connection follows
        /// (or just submitted). Exactly one per sweep per subscriber.
        SweepDone = 22 {
            /// The finished sweep.
            sweep_id: u64,
            /// Terminal lifecycle state (done / failed / cancelled).
            state: u32,
            /// Sweep wall time, µs.
            wall_us: u64,
            /// Empty on success; the error for failed sweeps.
            message: String,
        },
    }
}

/// Scan the frame header at the front of `buf`.
///
/// `Ok(Some((payload_start, total_len, frame_type)))` once the buffer holds
/// a complete frame; `Ok(None)` while it holds only a valid prefix.
/// Validation is eager: corruption in the magic, version, type, or length
/// bytes surfaces before the rest of the frame arrives.
fn frame_extent(buf: &[u8]) -> Result<Option<(usize, usize, u8)>, DecodeError> {
    if !buf.is_empty() && buf[0] != MAGIC[0] {
        return Err(DecodeError::BadMagic);
    }
    if buf.len() >= 2 && buf[..2] != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    if buf.len() >= 3 && buf[2] != VERSION {
        return Err(DecodeError::BadVersion(buf[2]));
    }
    if buf.len() >= 4 && !Frame::is_tag(buf[3]) {
        return Err(DecodeError::UnknownFrameType(buf[3]));
    }
    if buf.len() < 4 {
        return Ok(None);
    }
    let (payload_len, len_bytes) = match varint::take(&buf[4..]) {
        varint::Take::Got(v, n) => (v, n),
        varint::Take::Incomplete => return Ok(None),
        varint::Take::Overlong => {
            return Err(DecodeError::Malformed("overlong length prefix".into()))
        }
    };
    if payload_len > MAX_PAYLOAD {
        return Err(DecodeError::Oversize(payload_len));
    }
    let total = 4 + len_bytes + payload_len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    Ok(Some((4 + len_bytes, total, buf[3])))
}

impl Frame {
    /// Append the complete frame (header + payload) to `out`.
    ///
    /// The payload is staged in a thread-local scratch buffer (the varint
    /// length prefix needs the payload size before the payload bytes), so
    /// steady-state encoding allocates nothing per frame — at 100k-task
    /// graph sizes the per-`Submit` `Vec` this replaces was a measurable
    /// slice of per-task overhead.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        thread_local! {
            static SCRATCH: std::cell::RefCell<Vec<u8>> =
                const { std::cell::RefCell::new(Vec::new()) };
        }
        SCRATCH.with(|cell| {
            let mut payload = cell.borrow_mut();
            payload.clear();
            self.encode_fields(&mut payload);
            out.extend_from_slice(&MAGIC);
            out.push(VERSION);
            out.push(self.tag());
            varint::put(out, payload.len() as u64);
            out.extend_from_slice(&payload);
            // Don't let one huge Data/Block frame pin its footprint.
            if payload.capacity() > 1024 * 1024 {
                payload.clear();
                payload.shrink_to(1024 * 1024);
            }
        });
    }

    /// The complete encoded frame as a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Try to decode one frame from the front of `buf`.
    ///
    /// * `Ok(Some((frame, consumed)))` — a complete frame; the caller drops
    ///   the first `consumed` bytes and may retry for pipelined frames.
    /// * `Ok(None)` — `buf` holds a valid prefix; read more bytes.
    /// * `Err(_)` — the stream is corrupt; close the connection.
    ///
    /// This is the owning convenience over [`FrameRef::decode`]: it pays
    /// one copy per string/blob field. Hot paths decode a [`FrameRef`] and
    /// borrow instead.
    ///
    /// ```
    /// use rnet::Frame;
    ///
    /// let wire = Frame::Fetch { key: 42 }.encode();
    /// // A prefix asks for more bytes; the full buffer decodes.
    /// assert_eq!(Frame::decode(&wire[..3]).unwrap(), None);
    /// let (frame, used) = Frame::decode(&wire).unwrap().expect("complete");
    /// assert_eq!(frame, Frame::Fetch { key: 42 });
    /// assert_eq!(used, wire.len());
    /// ```
    pub fn decode(buf: &[u8]) -> Result<Option<(Frame, usize)>, DecodeError> {
        Ok(FrameRef::decode(buf)?.map(|(f, n)| (f.to_owned(), n)))
    }
}

impl<'a> FrameRef<'a> {
    /// Zero-copy decode of one frame from the front of `buf`; the same
    /// contract as [`Frame::decode`], but string and blob fields borrow
    /// from `buf` instead of copying.
    pub fn decode(buf: &'a [u8]) -> Result<Option<(FrameRef<'a>, usize)>, DecodeError> {
        let Some((payload_at, total, frame_type)) = frame_extent(buf)? else {
            return Ok(None);
        };
        let mut r = Reader::new(&buf[payload_at..total]);
        let frame = Self::decode_fields(frame_type, &mut r)?;
        r.finish()?;
        Ok(Some((frame, total)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello { name: "127.0.0.1:7077".into(), cores: 4, gpus: 1, mem_gib: 32 },
            Frame::Submit {
                exec_id: 42,
                task_id: 7,
                attempt: 2,
                node: 1,
                fn_id: 3,
                fn_name: Some("graph.experiment".into()),
                variant: 0,
                cores: vec![0, 1],
                gpus: vec![],
                args: vec![
                    WireArg::Inline {
                        key: (9 << 32) | 1,
                        blob: Blob { tag: "hpo.config".into(), bytes: vec![1, 2, 3] },
                    },
                    WireArg::Cached { key: (10 << 32) | 4 },
                    WireArg::Block { key: (11 << 32) | 2, hash: 0xdead_beef_u128 << 64 | 7 },
                ],
            },
            Frame::Submit {
                exec_id: 43,
                task_id: 8,
                attempt: 1,
                node: 0,
                fn_id: 3,
                fn_name: None,
                variant: 1,
                cores: vec![],
                gpus: vec![0],
                args: vec![],
            },
            Frame::Done {
                exec_id: 42,
                recv_us: 10_000,
                start_us: 10_050,
                end_us: 25_000,
                outputs: vec![Blob { tag: "hpo.trial".into(), bytes: vec![0xab; 100] }],
            },
            Frame::Done { exec_id: 44, recv_us: 0, start_us: 0, end_us: 0, outputs: vec![] },
            Frame::Failed { exec_id: 43, message: "task panicked: boom".into() },
            Frame::Heartbeat { seq: 9, t_send_us: 123_456, telemetry: true },
            Frame::Heartbeat { seq: 10, t_send_us: 123_789, telemetry: false },
            Frame::HeartbeatAck { seq: 9, t_send_us: 123_456, recv_us: 99_000, reply_us: 99_004 },
            Frame::Fetch { key: 1 << 40 },
            Frame::Data { key: 1 << 40, blob: Blob { tag: "rnet.u64".into(), bytes: vec![5] } },
            Frame::TraceChunk { bytes: vec![0xde, 0xad, 0xbe, 0xef] },
            Frame::TraceChunk { bytes: vec![] },
            Frame::StatsSnapshot {
                wall_us: 5_000_000,
                counters: vec![("tasks_total".into(), 42), ("bytes_total".into(), 1 << 33)],
                gauges: vec![("depth".into(), 2.5), ("neg".into(), -1.0)],
            },
            Frame::StatsSnapshot { wall_us: 0, counters: vec![], gauges: vec![] },
            Frame::BlockPut {
                hash: u128::MAX - 3,
                blob: Blob { tag: "tinyml.dataset".into(), bytes: vec![0x5a; 256] },
            },
            Frame::BlockRequest { hash: 1 },
            Frame::BlockData {
                hash: 1,
                blob: Blob { tag: "tinyml.dataset".into(), bytes: vec![] },
            },
            Frame::BlockEvict { hash: 0x0123_4567_89ab_cdef_u128 << 64 },
            Frame::ClientHello { tenant: "acme".into(), proto: 1 },
            Frame::SubmitSweep {
                name: "nightly".into(),
                space_json: r#"{"batch_size":[32,64]}"#.into(),
                algo: "grid".into(),
                trials: 0,
                seed: 42,
                wave: 0,
            },
            Frame::SweepReject { code: 1, message: "sweep queue full".into() },
            Frame::SweepStatus {
                sweep_id: 3,
                state: 1,
                done: 5,
                failed: 1,
                total: 8,
                best_acc: 0.91,
                best_label: "optimizer=Adam num_epochs=2".into(),
                throttled: 4,
                follow: 0,
            },
            Frame::SweepStatus {
                sweep_id: 3,
                state: 0,
                done: 0,
                failed: 0,
                total: 0,
                best_acc: 0.0,
                best_label: String::new(),
                throttled: 0,
                follow: 1,
            },
            Frame::LeaderboardChunk {
                sweep_id: 3,
                rows: vec![
                    LeaderRow {
                        label: "optimizer=Adam num_epochs=2".into(),
                        accuracy: 0.91,
                        epochs: 2,
                        task_us: 123_456,
                    },
                    LeaderRow {
                        label: "optimizer=SGD num_epochs=1".into(),
                        accuracy: 0.72,
                        epochs: 1,
                        task_us: 60_000,
                    },
                ],
            },
            Frame::LeaderboardChunk { sweep_id: 9, rows: vec![] },
            Frame::CancelSweep { sweep_id: 3 },
            Frame::SweepDone { sweep_id: 3, state: 2, wall_us: 5_000_000, message: String::new() },
            Frame::SweepDone { sweep_id: 4, state: 3, wall_us: 1, message: "space parse".into() },
            Frame::Shutdown,
        ]
    }

    #[test]
    fn every_frame_type_roundtrips() {
        for frame in sample_frames() {
            let buf = frame.encode();
            let (decoded, used) = Frame::decode(&buf).unwrap().expect("complete frame");
            assert_eq!(decoded, frame);
            assert_eq!(used, buf.len(), "whole buffer consumed for {frame:?}");
        }
    }

    #[test]
    fn truncated_frames_wait_for_more_bytes() {
        for frame in sample_frames() {
            let buf = frame.encode();
            for cut in 0..buf.len() {
                assert_eq!(
                    Frame::decode(&buf[..cut]).unwrap(),
                    None,
                    "prefix of {cut} bytes of {frame:?} must not decode"
                );
            }
        }
    }

    #[test]
    fn pipelined_frames_decode_one_at_a_time() {
        let mut buf = Vec::new();
        for f in sample_frames() {
            f.encode_into(&mut buf);
        }
        let mut at = 0;
        let mut seen = Vec::new();
        while let Some((f, n)) = Frame::decode(&buf[at..]).unwrap() {
            seen.push(f);
            at += n;
        }
        assert_eq!(seen, sample_frames());
        assert_eq!(at, buf.len());
    }

    #[test]
    fn bad_magic_is_rejected_immediately() {
        assert_eq!(Frame::decode(b"XN\x01\x05"), Err(DecodeError::BadMagic));
        assert_eq!(Frame::decode(b"RX\x01\x05"), Err(DecodeError::BadMagic));
        // ...even from the very first byte.
        assert_eq!(Frame::decode(b"G"), Err(DecodeError::BadMagic));
    }

    #[test]
    fn wrong_version_and_type_are_rejected() {
        assert_eq!(Frame::decode(b"RN\x02\x05\x00"), Err(DecodeError::BadVersion(2)));
        assert_eq!(Frame::decode(b"RN\x01\x63\x00"), Err(DecodeError::UnknownFrameType(0x63)));
        assert_eq!(Frame::decode(b"RN\x01\x00\x00"), Err(DecodeError::UnknownFrameType(0)));
    }

    #[test]
    fn oversize_payload_rejected_without_allocation() {
        let mut buf = b"RN\x01\x05".to_vec();
        varint::put(&mut buf, MAX_PAYLOAD + 1);
        assert_eq!(Frame::decode(&buf), Err(DecodeError::Oversize(MAX_PAYLOAD + 1)));
    }

    #[test]
    fn malformed_payload_rejected() {
        // A Failed frame whose payload stops mid-string.
        let good = Frame::Failed { exec_id: 1, message: "xyz".into() }.encode();
        let mut bad = b"RN\x01\x04".to_vec();
        // keep 3 payload bytes of the original 5+
        let payload = &good[5..8];
        varint::put(&mut bad, payload.len() as u64);
        bad.extend_from_slice(payload);
        assert!(matches!(Frame::decode(&bad), Err(DecodeError::Malformed(_))));
        // Trailing payload bytes are equally malformed (Fetch = one u64).
        let mut padded = b"RN\x01\x07".to_vec();
        varint::put(&mut padded, 3);
        padded.extend_from_slice(&[1, 0, 0]);
        assert!(matches!(Frame::decode(&padded), Err(DecodeError::Malformed(_))));
    }

    #[test]
    fn ref_decode_matches_owned_decode() {
        for frame in sample_frames() {
            let buf = frame.encode();
            let (as_ref, used) = FrameRef::decode(&buf).unwrap().expect("complete frame");
            assert_eq!(as_ref.to_owned(), frame);
            assert_eq!(used, buf.len());
        }
    }

    #[test]
    fn ref_decode_borrows_blob_bytes_in_place() {
        let frame = Frame::Done {
            exec_id: 5,
            recv_us: 1,
            start_us: 2,
            end_us: 3,
            outputs: vec![Blob { tag: "hpo.trial".into(), bytes: vec![7; 64] }],
        };
        let buf = frame.encode();
        let (decoded, _) = FrameRef::decode(&buf).unwrap().unwrap();
        let FrameRef::Done { outputs, .. } = decoded else { panic!("wrong frame") };
        let range = buf.as_ptr() as usize..buf.as_ptr() as usize + buf.len();
        assert!(range.contains(&(outputs[0].bytes.as_ptr() as usize)), "payload not copied");
        assert!(range.contains(&(outputs[0].tag.as_ptr() as usize)), "tag not copied");
    }

    #[test]
    fn heartbeat_is_tiny() {
        // seq + a realistic µs timestamp + flag: still well under one
        // cache line even with varint worst cases.
        let hb = Frame::Heartbeat { seq: 1, t_send_us: 3_600_000_000, telemetry: false };
        assert!(hb.encode().len() <= 16, "heartbeats stay tiny: {}", hb.encode().len());
        let ack = Frame::HeartbeatAck {
            seq: 1,
            t_send_us: 3_600_000_000,
            recv_us: 3_600_000_100,
            reply_us: 3_600_000_101,
        };
        assert!(ack.encode().len() <= 32, "acks stay tiny: {}", ack.encode().len());
        assert_eq!(Frame::Shutdown.encode().len(), 5);
    }

    #[test]
    fn bad_telemetry_flag_is_malformed() {
        let good = Frame::Heartbeat { seq: 1, t_send_us: 2, telemetry: true }.encode();
        let mut bad = good.clone();
        *bad.last_mut().unwrap() = 7; // flag byte must be 0 or 1
        assert!(matches!(Frame::decode(&bad), Err(DecodeError::Malformed(_))));
    }
}
