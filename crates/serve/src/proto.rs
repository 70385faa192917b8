//! The wire protocol of `absort serve`: length-prefixed binary frames
//! with a versioned header and typed, recoverable parse errors.
//!
//! Every frame is `[u32 LE body length][body]`. A request body is a
//! fixed 20-byte header followed by a kind-specific payload:
//!
//! ```text
//! offset  size  field
//!      0     1  magic        (0xA5 requests, 0x5A replies)
//!      1     1  version      (currently 1)
//!      2     1  kind         (0 sort, 1 permute, 2 ping, 3 chaos-panic)
//!      3     1  network      (0 prefix, 1 mux-merger, 2 nonadaptive)
//!      4     8  req_id       (echoed verbatim in the reply)
//!     12     4  deadline_ms  (relative to server receipt; 0 = none)
//!     16     4  n            (input width; power of two)
//!     20     …  payload      (sort: ⌈n/8⌉ packed bits, LSB-first;
//!                             permute: n × u16 LE destinations)
//! ```
//!
//! A reply body is `magic version status req_id n payload-tag payload`.
//! Parsing never panics: every malformed byte sequence maps to a
//! [`FrameError`] variant that names what was wrong, so the server can
//! answer with a typed `Malformed` reply and **keep the connection**
//! whenever the frame boundary itself was intact (the length prefix was
//! readable and sane). Only framing-level damage — a length prefix
//! beyond [`MAX_FRAME`], or a stream truncated mid-frame — forces the
//! connection closed, because there is no boundary left to resync on.

use std::io::{self, Read};

/// First byte of every request body.
pub const MAGIC_REQUEST: u8 = 0xA5;
/// First byte of every reply body.
pub const MAGIC_REPLY: u8 = 0x5A;
/// Protocol version spoken by this build.
pub const VERSION: u8 = 1;
/// Hard ceiling on a frame body; a length prefix beyond this is framing
/// damage (or a hostile client) and poisons its connection.
pub const MAX_FRAME: usize = 1 << 20;
/// Default ceiling on the request width `n` (servers may configure lower).
pub const DEFAULT_MAX_N: u32 = 4096;

/// What a request asks the server to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// Sort `n` bits through the selected network (the batched path).
    Sort,
    /// Route a full destination permutation through the radix permuter.
    Permute,
    /// Liveness probe; answered immediately, bypassing the work queue.
    Ping,
    /// A sort request that additionally forces a worker panic on its
    /// first (batched) evaluation attempt. Honored only by servers
    /// started with chaos hooks enabled; otherwise answered
    /// `Unsupported`. Exists so the degradation ladder is testable end
    /// to end: the batch panics, every batch-mate is retried solo, and
    /// the chaos request itself still gets its correct sorted reply.
    ChaosPanic,
}

impl RequestKind {
    fn code(self) -> u8 {
        match self {
            RequestKind::Sort => 0,
            RequestKind::Permute => 1,
            RequestKind::Ping => 2,
            RequestKind::ChaosPanic => 3,
        }
    }

    fn parse(b: u8) -> Option<RequestKind> {
        match b {
            0 => Some(RequestKind::Sort),
            1 => Some(RequestKind::Permute),
            2 => Some(RequestKind::Ping),
            3 => Some(RequestKind::ChaosPanic),
            _ => None,
        }
    }
}

/// Which network evaluates a sort (and which sorter steers a permute).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetKind {
    /// The paper's adaptive prefix sorter.
    Prefix,
    /// The adaptive multiplexed merger.
    MuxMerger,
    /// The non-adaptive baseline network.
    Nonadaptive,
}

impl NetKind {
    /// All kinds, in wire-code order.
    pub const ALL: [NetKind; 3] = [NetKind::Prefix, NetKind::MuxMerger, NetKind::Nonadaptive];

    fn code(self) -> u8 {
        match self {
            NetKind::Prefix => 0,
            NetKind::MuxMerger => 1,
            NetKind::Nonadaptive => 2,
        }
    }

    fn from_code(b: u8) -> Option<NetKind> {
        match b {
            0 => Some(NetKind::Prefix),
            1 => Some(NetKind::MuxMerger),
            2 => Some(NetKind::Nonadaptive),
            _ => None,
        }
    }

    /// Stable name used by CLIs and reports.
    pub fn name(self) -> &'static str {
        match self {
            NetKind::Prefix => "prefix",
            NetKind::MuxMerger => "mux-merger",
            NetKind::Nonadaptive => "nonadaptive",
        }
    }

    /// Parses a CLI spelling (case-insensitive).
    pub fn parse(s: &str) -> Option<NetKind> {
        match s.trim().to_ascii_lowercase().as_str() {
            "prefix" => Some(NetKind::Prefix),
            "mux-merger" | "muxmerge" | "mux" => Some(NetKind::MuxMerger),
            "nonadaptive" => Some(NetKind::Nonadaptive),
            _ => None,
        }
    }
}

impl std::fmt::Display for NetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A decoded request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// What to do.
    pub kind: RequestKind,
    /// Which network does it.
    pub network: NetKind,
    /// Client-chosen correlation id, echoed verbatim in the reply.
    pub req_id: u64,
    /// Relative deadline in milliseconds from server receipt (0 = none).
    pub deadline_ms: u32,
    /// Input width.
    pub n: u32,
    /// Sort / chaos-panic input bits (`n` entries); empty otherwise.
    pub bits: Vec<bool>,
    /// Permute destinations (`n` entries); empty otherwise.
    pub perm: Vec<u16>,
}

impl Request {
    /// A sort request (the batched fast path).
    pub fn sort(network: NetKind, req_id: u64, bits: &[bool]) -> Request {
        Request {
            kind: RequestKind::Sort,
            network,
            req_id,
            deadline_ms: 0,
            n: bits.len() as u32,
            bits: bits.to_vec(),
            perm: Vec::new(),
        }
    }

    /// A permute request: `perm[i]` is the destination of input `i`.
    pub fn permute(network: NetKind, req_id: u64, perm: &[u16]) -> Request {
        Request {
            kind: RequestKind::Permute,
            network,
            req_id,
            deadline_ms: 0,
            n: perm.len() as u32,
            bits: Vec::new(),
            perm: perm.to_vec(),
        }
    }

    /// A liveness probe.
    pub fn ping(req_id: u64) -> Request {
        Request {
            kind: RequestKind::Ping,
            network: NetKind::MuxMerger,
            req_id,
            deadline_ms: 0,
            n: 0,
            bits: Vec::new(),
            perm: Vec::new(),
        }
    }

    /// Sets the relative deadline.
    pub fn with_deadline_ms(mut self, ms: u32) -> Request {
        self.deadline_ms = ms;
        self
    }
}

/// Reply status codes. Everything except `Ok` is a *typed degradation*:
/// the server stayed alive and told the client exactly why this request
/// did not produce a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The request was served; the payload carries the result.
    Ok,
    /// The bounded work queue was full: load was shed instead of
    /// buffered. Retry with backoff.
    Overloaded,
    /// The request frame failed to parse; the payload message names the
    /// [`FrameError`].
    Malformed,
    /// The request's deadline expired before a worker admitted it.
    DeadlineExceeded,
    /// The request is valid but this server will not serve it (e.g. a
    /// chaos request on a server without chaos hooks).
    Unsupported,
    /// Evaluation failed even on the solo scalar retry.
    Internal,
}

impl Status {
    fn code(self) -> u8 {
        match self {
            Status::Ok => 0,
            Status::Overloaded => 1,
            Status::Malformed => 2,
            Status::DeadlineExceeded => 3,
            Status::Unsupported => 4,
            Status::Internal => 5,
        }
    }

    fn from_code(b: u8) -> Option<Status> {
        match b {
            0 => Some(Status::Ok),
            1 => Some(Status::Overloaded),
            2 => Some(Status::Malformed),
            3 => Some(Status::DeadlineExceeded),
            4 => Some(Status::Unsupported),
            5 => Some(Status::Internal),
            _ => None,
        }
    }

    /// Stable name for logs and reports.
    pub fn name(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Overloaded => "overloaded",
            Status::Malformed => "malformed",
            Status::DeadlineExceeded => "deadline_exceeded",
            Status::Unsupported => "unsupported",
            Status::Internal => "internal",
        }
    }
}

/// The result payload of a reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplyPayload {
    /// No payload (ping replies, most error statuses).
    Empty,
    /// Sorted output bits.
    Bits(Vec<bool>),
    /// Routed payloads: entry `slot` holds the source index delivered to
    /// output `slot`.
    Perm(Vec<u16>),
    /// Human-readable diagnostic (Malformed / Internal details).
    Message(String),
}

/// A decoded reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// Outcome.
    pub status: Status,
    /// Echo of the request's correlation id (0 when the id itself was
    /// unreadable).
    pub req_id: u64,
    /// Echo of the request width (0 when unknown).
    pub n: u32,
    /// Result or diagnostic.
    pub payload: ReplyPayload,
}

impl Reply {
    /// An error reply carrying a diagnostic message.
    pub fn error(status: Status, req_id: u64, n: u32, message: impl Into<String>) -> Reply {
        Reply {
            status,
            req_id,
            n,
            payload: ReplyPayload::Message(message.into()),
        }
    }
}

/// Why a frame failed to parse. Every variant names the offending field
/// and value, so a `Malformed` reply (and a test assertion) can say
/// exactly what was wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The body ended before the fixed header (or a declared payload).
    Truncated {
        /// Bytes the parser needed.
        needed: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The length prefix exceeds [`MAX_FRAME`]; the connection cannot
    /// resync and must close.
    Oversized {
        /// Declared body length.
        len: u64,
        /// The ceiling it violated.
        max: usize,
    },
    /// First body byte was not the expected magic.
    BadMagic {
        /// Byte found.
        got: u8,
        /// Byte expected ([`MAGIC_REQUEST`] or [`MAGIC_REPLY`]).
        expected: u8,
    },
    /// Unknown protocol version.
    BadVersion {
        /// Version byte found.
        got: u8,
    },
    /// Unknown request kind code.
    BadKind {
        /// Kind byte found.
        got: u8,
    },
    /// Unknown network code.
    BadNetwork {
        /// Network byte found.
        got: u8,
    },
    /// Unknown reply status code.
    BadStatus {
        /// Status byte found.
        got: u8,
    },
    /// Unknown reply payload tag.
    BadPayloadTag {
        /// Tag byte found.
        got: u8,
    },
    /// `n == 0` on a request kind that needs data.
    ZeroN,
    /// `n` exceeds the server's configured ceiling.
    NTooLarge {
        /// Requested width.
        n: u32,
        /// Server ceiling.
        max: u32,
    },
    /// `n` is not a power of two (every network in the paper assumes
    /// power-of-two widths).
    NNotPow2 {
        /// Requested width.
        n: u32,
    },
    /// The payload length does not match what the header promised.
    PayloadLen {
        /// Bytes the header implies.
        expected: usize,
        /// Bytes present.
        got: usize,
    },
    /// A permute destination is out of range.
    BadDestination {
        /// Payload index of the bad entry.
        index: usize,
        /// The destination value.
        dest: u16,
        /// The width it must be below.
        n: u32,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated { needed, got } => {
                write!(f, "truncated frame: needed {needed} bytes, got {got}")
            }
            FrameError::Oversized { len, max } => {
                write!(f, "oversized frame: length prefix {len} exceeds max {max}")
            }
            FrameError::BadMagic { got, expected } => {
                write!(f, "bad magic byte {got:#04x} (expected {expected:#04x})")
            }
            FrameError::BadVersion { got } => {
                write!(
                    f,
                    "unsupported protocol version {got} (this build speaks {VERSION})"
                )
            }
            FrameError::BadKind { got } => write!(f, "unknown request kind {got}"),
            FrameError::BadNetwork { got } => write!(f, "unknown network code {got}"),
            FrameError::BadStatus { got } => write!(f, "unknown reply status {got}"),
            FrameError::BadPayloadTag { got } => write!(f, "unknown reply payload tag {got}"),
            FrameError::ZeroN => write!(f, "n = 0: an empty request has nothing to sort"),
            FrameError::NTooLarge { n, max } => {
                write!(f, "n = {n} exceeds this server's maximum {max}")
            }
            FrameError::NNotPow2 { n } => write!(f, "n = {n} is not a power of two"),
            FrameError::PayloadLen { expected, got } => {
                write!(
                    f,
                    "payload length mismatch: header implies {expected} bytes, got {got}"
                )
            }
            FrameError::BadDestination { index, dest, n } => {
                write!(
                    f,
                    "permute destination {dest} at index {index} is out of range for n = {n}"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Packs bits LSB-first into bytes (bit `i` lands in `byte[i/8]` bit
/// `i%8`).
pub fn pack_bits(bits: &[bool]) -> Vec<u8> {
    let mut bytes = vec![0u8; bits.len().div_ceil(8)];
    for (i, &b) in bits.iter().enumerate() {
        bytes[i / 8] |= u8::from(b) << (i % 8);
    }
    bytes
}

/// Inverse of [`pack_bits`] for a known width.
pub fn unpack_bits(bytes: &[u8], n: usize) -> Vec<bool> {
    (0..n).map(|i| bytes[i / 8] >> (i % 8) & 1 == 1).collect()
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn get_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]])
}

fn get_u64(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes([
        b[at],
        b[at + 1],
        b[at + 2],
        b[at + 3],
        b[at + 4],
        b[at + 5],
        b[at + 6],
        b[at + 7],
    ])
}

const REQUEST_HEADER: usize = 20;
const REPLY_HEADER: usize = 15;

/// Encodes a request as a complete frame (length prefix included).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut body = Vec::with_capacity(REQUEST_HEADER + req.bits.len() / 8 + req.perm.len() * 2);
    body.push(MAGIC_REQUEST);
    body.push(VERSION);
    body.push(req.kind.code());
    body.push(req.network.code());
    put_u64(&mut body, req.req_id);
    put_u32(&mut body, req.deadline_ms);
    put_u32(&mut body, req.n);
    match req.kind {
        RequestKind::Sort | RequestKind::ChaosPanic => body.extend(pack_bits(&req.bits)),
        RequestKind::Permute => {
            for &d in &req.perm {
                body.extend_from_slice(&d.to_le_bytes());
            }
        }
        RequestKind::Ping => {}
    }
    frame(body)
}

/// Wraps a body in its length prefix.
pub fn frame(body: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + body.len());
    put_u32(&mut out, body.len() as u32);
    out.extend(body);
    out
}

/// Best-effort correlation id extraction from a request body that
/// failed to parse, so the `Malformed` reply can still name the request
/// it answers. Returns 0 when the id bytes are not all present.
pub fn salvage_req_id(body: &[u8]) -> u64 {
    if body.len() >= 12 {
        get_u64(body, 4)
    } else {
        0
    }
}

/// A request's validated header: everything [`parse_request`] reads
/// before the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Header {
    pub(crate) kind: RequestKind,
    pub(crate) network: NetKind,
    pub(crate) req_id: u64,
    pub(crate) deadline_ms: u32,
    pub(crate) n: u32,
}

/// Parses and validates a request body without copying its payload.
/// Returns the header and the borrowed payload: ⌈n/8⌉ packed bits,
/// LSB-first, for a sort or chaos-panic (pad bits of a sub-byte payload
/// are not checked); `n` `u16` LE destinations, each below `n`, for a
/// permute; nothing for a ping. `max_n` is the server's configured width
/// ceiling (see [`DEFAULT_MAX_N`]).
pub(crate) fn parse_request(body: &[u8], max_n: u32) -> Result<(Header, &[u8]), FrameError> {
    if body.len() < REQUEST_HEADER {
        return Err(FrameError::Truncated {
            needed: REQUEST_HEADER,
            got: body.len(),
        });
    }
    if body[0] != MAGIC_REQUEST {
        return Err(FrameError::BadMagic {
            got: body[0],
            expected: MAGIC_REQUEST,
        });
    }
    if body[1] != VERSION {
        return Err(FrameError::BadVersion { got: body[1] });
    }
    let kind = RequestKind::parse(body[2]).ok_or(FrameError::BadKind { got: body[2] })?;
    let network = NetKind::from_code(body[3]).ok_or(FrameError::BadNetwork { got: body[3] })?;
    let head = Header {
        kind,
        network,
        req_id: get_u64(body, 4),
        deadline_ms: get_u32(body, 12),
        n: get_u32(body, 16),
    };
    let n = head.n;
    let payload = &body[REQUEST_HEADER..];

    if kind == RequestKind::Ping {
        if n != 0 {
            return Err(FrameError::NNotPow2 { n });
        }
        if !payload.is_empty() {
            return Err(FrameError::PayloadLen {
                expected: 0,
                got: payload.len(),
            });
        }
        return Ok((head, payload));
    }

    if n == 0 {
        return Err(FrameError::ZeroN);
    }
    if n > max_n {
        return Err(FrameError::NTooLarge { n, max: max_n });
    }
    if !n.is_power_of_two() || n < 2 {
        return Err(FrameError::NNotPow2 { n });
    }

    let expected = match kind {
        RequestKind::Permute => n as usize * 2,
        _ => (n as usize).div_ceil(8),
    };
    if payload.len() != expected {
        return Err(FrameError::PayloadLen {
            expected,
            got: payload.len(),
        });
    }
    if kind == RequestKind::Permute {
        if let Some((index, dest)) = u16_entries(payload)
            .enumerate()
            .find(|&(_, dest)| u32::from(dest) >= n)
        {
            return Err(FrameError::BadDestination { index, dest, n });
        }
    }
    Ok((head, payload))
}

/// The entries of a payload of `u16` LE values: a permute request's
/// destinations, a permute reply's sources.
pub(crate) fn u16_entries(payload: &[u8]) -> impl Iterator<Item = u16> + '_ {
    payload
        .chunks_exact(2)
        .map(|d| u16::from_le_bytes([d[0], d[1]]))
}

/// Decodes a request body: the daemon's payload-borrowing parser, with a
/// sort payload unpacked into `bits` and a permute payload into `perm`.
/// `max_n` is the server's configured width ceiling (see
/// [`DEFAULT_MAX_N`]).
pub fn decode_request(body: &[u8], max_n: u32) -> Result<Request, FrameError> {
    let (head, payload) = parse_request(body, max_n)?;
    let (bits, perm) = match head.kind {
        RequestKind::Sort | RequestKind::ChaosPanic => {
            (unpack_bits(payload, head.n as usize), Vec::new())
        }
        RequestKind::Permute => (Vec::new(), u16_entries(payload).collect()),
        RequestKind::Ping => (Vec::new(), Vec::new()),
    };
    Ok(Request {
        kind: head.kind,
        network: head.network,
        req_id: head.req_id,
        deadline_ms: head.deadline_ms,
        n: head.n,
        bits,
        perm,
    })
}

const TAG_EMPTY: u8 = 0;
const TAG_BITS: u8 = 1;
const TAG_PERM: u8 = 2;
const TAG_MESSAGE: u8 = 3;

/// Encodes a reply as a complete frame (length prefix included).
pub fn encode_reply(rep: &Reply) -> Vec<u8> {
    let (status, req_id, n) = (rep.status, rep.req_id, rep.n);
    match &rep.payload {
        ReplyPayload::Empty => reply_frame(status, req_id, n, TAG_EMPTY, &[]),
        ReplyPayload::Bits(bits) => bits_reply(status, req_id, n, &pack_bits(bits)),
        ReplyPayload::Perm(out) => {
            let bytes: Vec<u8> = out.iter().flat_map(|s| s.to_le_bytes()).collect();
            reply_frame(status, req_id, n, TAG_PERM, &bytes)
        }
        ReplyPayload::Message(msg) => reply_frame(status, req_id, n, TAG_MESSAGE, msg.as_bytes()),
    }
}

/// Frames a reply whose payload is sort bits already packed LSB-first,
/// as [`pack_bits`] lays them out: the daemon's sort replies and
/// [`encode_reply`]'s both go through it.
pub(crate) fn bits_reply(status: Status, req_id: u64, n: u32, packed: &[u8]) -> Vec<u8> {
    reply_frame(status, req_id, n, TAG_BITS, packed)
}

/// Frames a reply in one allocation: length prefix, header, payload tag
/// and payload.
fn reply_frame(status: Status, req_id: u64, n: u32, tag: u8, payload: &[u8]) -> Vec<u8> {
    let len = REPLY_HEADER + 1 + payload.len();
    let mut out = Vec::with_capacity(4 + len);
    put_u32(&mut out, len as u32);
    out.push(MAGIC_REPLY);
    out.push(VERSION);
    out.push(status.code());
    put_u64(&mut out, req_id);
    put_u32(&mut out, n);
    out.push(tag);
    out.extend_from_slice(payload);
    out
}

/// Decodes a reply body.
pub fn decode_reply(body: &[u8]) -> Result<Reply, FrameError> {
    if body.len() < REPLY_HEADER + 1 {
        return Err(FrameError::Truncated {
            needed: REPLY_HEADER + 1,
            got: body.len(),
        });
    }
    if body[0] != MAGIC_REPLY {
        return Err(FrameError::BadMagic {
            got: body[0],
            expected: MAGIC_REPLY,
        });
    }
    if body[1] != VERSION {
        return Err(FrameError::BadVersion { got: body[1] });
    }
    let status = Status::from_code(body[2]).ok_or(FrameError::BadStatus { got: body[2] })?;
    let req_id = get_u64(body, 3);
    let n = get_u32(body, 11);
    let tag = body[REPLY_HEADER];
    let payload = &body[REPLY_HEADER + 1..];
    let payload = match tag {
        TAG_EMPTY => {
            if !payload.is_empty() {
                return Err(FrameError::PayloadLen {
                    expected: 0,
                    got: payload.len(),
                });
            }
            ReplyPayload::Empty
        }
        TAG_BITS => {
            let expected = (n as usize).div_ceil(8);
            if payload.len() != expected {
                return Err(FrameError::PayloadLen {
                    expected,
                    got: payload.len(),
                });
            }
            ReplyPayload::Bits(unpack_bits(payload, n as usize))
        }
        TAG_PERM => {
            let expected = n as usize * 2;
            if payload.len() != expected {
                return Err(FrameError::PayloadLen {
                    expected,
                    got: payload.len(),
                });
            }
            ReplyPayload::Perm(u16_entries(payload).collect())
        }
        TAG_MESSAGE => ReplyPayload::Message(String::from_utf8_lossy(payload).into_owned()),
        other => return Err(FrameError::BadPayloadTag { got: other }),
    };
    Ok(Reply {
        status,
        req_id,
        n,
        payload,
    })
}

/// Reads one frame body from a blocking reader. Returns `Ok(None)` on a
/// clean EOF at a frame boundary; a mid-frame EOF is
/// [`FrameError::Truncated`] mapped into `io::ErrorKind::UnexpectedEof`.
/// A length prefix beyond [`MAX_FRAME`] is reported as
/// `io::ErrorKind::InvalidData` carrying the [`FrameError::Oversized`]
/// rendering.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0usize;
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(None);
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    FrameError::Truncated {
                        needed: 4,
                        got: filled,
                    }
                    .to_string(),
                ));
            }
            Ok(k) => filled += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            FrameError::Oversized {
                len: len as u64,
                max: MAX_FRAME,
            }
            .to_string(),
        ));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_request_roundtrip() {
        let bits: Vec<bool> = (0..64).map(|i| i % 3 == 0).collect();
        let req = Request::sort(NetKind::MuxMerger, 42, &bits).with_deadline_ms(250);
        let framed = encode_request(&req);
        let body = &framed[4..];
        assert_eq!(decode_request(body, DEFAULT_MAX_N).unwrap(), req);
    }

    #[test]
    fn permute_request_roundtrip() {
        let perm: Vec<u16> = (0..16u16).rev().collect();
        let req = Request::permute(NetKind::Prefix, 7, &perm);
        let framed = encode_request(&req);
        assert_eq!(decode_request(&framed[4..], DEFAULT_MAX_N).unwrap(), req);
    }

    #[test]
    fn reply_roundtrips_all_payloads() {
        let reps = [
            Reply {
                status: Status::Ok,
                req_id: 1,
                n: 8,
                payload: ReplyPayload::Bits(vec![false, false, true, true, true, true, true, true]),
            },
            Reply {
                status: Status::Ok,
                req_id: 2,
                n: 4,
                payload: ReplyPayload::Perm(vec![3, 2, 1, 0]),
            },
            Reply::error(Status::Malformed, 3, 0, "n = 0: nothing to sort"),
            Reply {
                status: Status::Overloaded,
                req_id: 4,
                n: 0,
                payload: ReplyPayload::Empty,
            },
        ];
        for rep in reps {
            let framed = encode_reply(&rep);
            assert_eq!(decode_reply(&framed[4..]).unwrap(), rep);
        }
    }

    #[test]
    fn typed_rejections_name_the_field() {
        let good = encode_request(&Request::sort(NetKind::Prefix, 9, &[true, false]));
        let body = good[4..].to_vec();

        let mut bad_magic = body.clone();
        bad_magic[0] = 0x00;
        assert_eq!(
            decode_request(&bad_magic, DEFAULT_MAX_N),
            Err(FrameError::BadMagic {
                got: 0,
                expected: MAGIC_REQUEST
            })
        );

        let mut bad_version = body.clone();
        bad_version[1] = 9;
        assert_eq!(
            decode_request(&bad_version, DEFAULT_MAX_N),
            Err(FrameError::BadVersion { got: 9 })
        );

        let mut zero_n = body.clone();
        zero_n[16..20].copy_from_slice(&0u32.to_le_bytes());
        assert_eq!(
            decode_request(&zero_n, DEFAULT_MAX_N),
            Err(FrameError::ZeroN)
        );

        let mut big_n = body.clone();
        big_n[16..20].copy_from_slice(&(DEFAULT_MAX_N * 2).to_le_bytes());
        assert_eq!(
            decode_request(&big_n, DEFAULT_MAX_N),
            Err(FrameError::NTooLarge {
                n: DEFAULT_MAX_N * 2,
                max: DEFAULT_MAX_N
            })
        );

        assert_eq!(
            decode_request(&body[..10], DEFAULT_MAX_N),
            Err(FrameError::Truncated {
                needed: 20,
                got: 10
            })
        );
    }

    #[test]
    fn salvaged_req_id_survives_bad_magic() {
        let mut framed = encode_request(&Request::sort(NetKind::Prefix, 0xDEAD_BEEF, &[true; 4]));
        framed[4] = 0x00; // corrupt the magic
        assert_eq!(salvage_req_id(&framed[4..]), 0xDEAD_BEEF);
        assert_eq!(salvage_req_id(&framed[4..8]), 0);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let bits: Vec<bool> = (0..100).map(|i| i % 7 < 3).collect();
        assert_eq!(unpack_bits(&pack_bits(&bits), bits.len()), bits);
    }

    #[test]
    fn read_frame_reports_oversize_and_eof() {
        let mut oversized = Vec::new();
        oversized.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        let err = read_frame(&mut &oversized[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("oversized"), "{err}");

        let empty: &[u8] = &[];
        assert!(read_frame(&mut &empty[..]).unwrap().is_none());

        let truncated: &[u8] = &[3, 0];
        let err = read_frame(&mut &truncated[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
