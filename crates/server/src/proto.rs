//! The `kleislid` wire protocol: length-prefixed frames over TCP.
//!
//! A frame is a 4-byte big-endian payload length followed by the
//! payload; a payload is a 1-byte opcode, an 8-byte big-endian request
//! id, and an opcode-specific body. The id is chosen by the client and
//! echoed on the matching response, so responses to pipelined requests
//! can arrive in any order (queries on one connection run concurrently,
//! bounded by the server's per-connection admission limits).
//!
//! Requests: [`Request::Query`] (body: CPL source, UTF-8),
//! [`Request::Cancel`] (empty body; the id names the query to stop),
//! [`Request::Stats`] (empty body), [`Request::Flush`] (body: a source
//! name, UTF-8 — the wire-level cache-invalidation verb: drop every
//! cached plan and result derived from that source).
//!
//! Responses: [`Response::Result`] (body: one served-from byte — `0`
//! freshly evaluated, `1` shared result cache — then the value in the
//! core exchange format, UTF-8), [`Response::Error`] (message, UTF-8),
//! [`Response::Stats`] (a JSON document, UTF-8), [`Response::Flushed`]
//! (two 8-byte big-endian counts: plans flushed, results flushed).
//!
//! Values cross the wire in the [`kleisli_core::write_exchange`] token
//! format — the same self-describing exchange format drivers use, per
//! the paper's uniform-exchange-language design.

use std::io::{self, Read, Write};

use kleisli_core::{read_exchange, write_exchange, write_exchange_into, ExchangeSink, Value};

/// Frames larger than this are rejected as malformed (64 MiB — far
/// beyond any sane query text, and a backstop for result payloads).
pub const MAX_FRAME_LEN: usize = 64 << 20;

const OP_QUERY: u8 = 0x01;
const OP_CANCEL: u8 = 0x02;
const OP_STATS: u8 = 0x03;
const OP_FLUSH: u8 = 0x04;
const OP_RESULT: u8 = 0x81;
const OP_ERROR: u8 = 0x82;
const OP_STATS_REPLY: u8 = 0x83;
const OP_FLUSHED: u8 = 0x84;

/// Where a query result came from (the first body byte of a
/// [`Response::Result`] frame).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedFrom {
    /// Evaluated for this request.
    Fresh,
    /// Served from the process-wide shared result cache.
    SharedCache,
}

/// A client→server frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Compile and evaluate `src`; reply with `Result` or `Error` under
    /// the same id.
    Query { id: u64, src: String },
    /// Cooperatively stop the in-flight query with this id (idempotent;
    /// unknown ids are ignored — the query may have just finished).
    Cancel { id: u64 },
    /// Reply with a `Stats` frame (shared-cache and admission counters).
    Stats { id: u64 },
    /// Invalidate every cached plan and result derived from `source`
    /// (a refreshed driver or binding); reply with a `Flushed` frame.
    /// Entries derived only from other sources survive.
    Flush { id: u64, source: String },
}

impl Request {
    /// The request id (echoed by the matching response).
    pub fn id(&self) -> u64 {
        match self {
            Request::Query { id, .. }
            | Request::Cancel { id }
            | Request::Stats { id }
            | Request::Flush { id, .. } => *id,
        }
    }
}

/// A server→client frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The query finished with a value.
    Result {
        id: u64,
        served: ServedFrom,
        value: Value,
    },
    /// The query failed (compile error, evaluation error, cancellation,
    /// or admission rejection — the message says which).
    Error { id: u64, message: String },
    /// Server statistics as a JSON document.
    Stats { id: u64, json: String },
    /// Acknowledgement of a [`Request::Flush`]: how many cached plans
    /// and how many cached results were dropped.
    Flushed { id: u64, plans: u64, results: u64 },
}

impl Response {
    /// The id of the request this responds to.
    pub fn id(&self) -> u64 {
        match self {
            Response::Result { id, .. }
            | Response::Error { id, .. }
            | Response::Stats { id, .. }
            | Response::Flushed { id, .. } => *id,
        }
    }
}

fn malformed(what: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.into())
}

fn header(op: u8, id: u64, body_len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(9 + body_len);
    out.push(op);
    out.extend_from_slice(&id.to_be_bytes());
    out
}

fn split_header(payload: &[u8]) -> io::Result<(u8, u64, &[u8])> {
    if payload.len() < 9 {
        return Err(malformed("frame shorter than opcode + id"));
    }
    let id = u64::from_be_bytes(payload[1..9].try_into().expect("9-byte header"));
    Ok((payload[0], id, &payload[9..]))
}

fn utf8_body(body: &[u8], what: &str) -> io::Result<String> {
    String::from_utf8(body.to_vec()).map_err(|_| malformed(format!("{what} is not UTF-8")))
}

/// Serialize a request payload (no length prefix; see [`write_frame`]).
pub fn encode_request(req: &Request) -> Vec<u8> {
    match req {
        Request::Query { id, src } => {
            let mut out = header(OP_QUERY, *id, src.len());
            out.extend_from_slice(src.as_bytes());
            out
        }
        Request::Cancel { id } => header(OP_CANCEL, *id, 0),
        Request::Stats { id } => header(OP_STATS, *id, 0),
        Request::Flush { id, source } => {
            let mut out = header(OP_FLUSH, *id, source.len());
            out.extend_from_slice(source.as_bytes());
            out
        }
    }
}

/// Parse a request payload.
pub fn decode_request(payload: &[u8]) -> io::Result<Request> {
    let (op, id, body) = split_header(payload)?;
    match op {
        OP_QUERY => Ok(Request::Query {
            id,
            src: utf8_body(body, "query source")?,
        }),
        OP_CANCEL => Ok(Request::Cancel { id }),
        OP_STATS => Ok(Request::Stats { id }),
        OP_FLUSH => Ok(Request::Flush {
            id,
            source: utf8_body(body, "flush source name")?,
        }),
        other => Err(malformed(format!("unknown request opcode {other:#04x}"))),
    }
}

/// Serialize a response payload (no length prefix; see [`write_frame`]).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    match resp {
        Response::Result { id, served, value } => {
            encode_result_text(*id, *served, &write_exchange(value))
        }
        Response::Error { id, message } => {
            let mut out = header(OP_ERROR, *id, message.len());
            out.extend_from_slice(message.as_bytes());
            out
        }
        Response::Stats { id, json } => {
            let mut out = header(OP_STATS_REPLY, *id, json.len());
            out.extend_from_slice(json.as_bytes());
            out
        }
        Response::Flushed { id, plans, results } => {
            let mut out = header(OP_FLUSHED, *id, 16);
            out.extend_from_slice(&plans.to_be_bytes());
            out.extend_from_slice(&results.to_be_bytes());
            out
        }
    }
}

/// Serialize a [`Response::Result`] payload from an already-serialized
/// exchange text. The server's warm fast path keeps results in this form
/// (one serialization per cache generation instead of one per hit); the
/// ordinary [`encode_response`] path funnels through here too, and
/// [`encode_result_frame`] is property-tested against it, so the
/// encodings cannot drift.
pub fn encode_result_text(id: u64, served: ServedFrom, text: &str) -> Vec<u8> {
    let mut out = header(OP_RESULT, id, 1 + text.len());
    out.push(served_byte(served));
    out.extend_from_slice(text.as_bytes());
    out
}

fn served_byte(served: ServedFrom) -> u8 {
    match served {
        ServedFrom::Fresh => 0,
        ServedFrom::SharedCache => 1,
    }
}

/// A complete [`Response::Result`] *frame* — length prefix included,
/// ready for one socket write — serialized straight from the value: the
/// reply is written once, into the buffer that goes on the wire.
/// [`Value::approx_bytes`] sizes the buffer up front; the header is
/// reserved first and the length patched in last.
///
/// `None` when the payload would exceed `limit` bytes. The writer stops
/// at the limit — an over-limit result is never materialized, and the
/// buffer never grows past `limit` plus the prefix.
pub fn encode_result_frame(
    id: u64,
    served: ServedFrom,
    value: &Value,
    limit: usize,
) -> Option<Vec<u8>> {
    // Length prefix (patched below), opcode, id, served-from byte.
    let mut head = [0u8; 14];
    head[4] = OP_RESULT;
    head[5..13].copy_from_slice(&id.to_be_bytes());
    head[13] = served_byte(served);
    let hint = usize::try_from(value.approx_bytes()).unwrap_or(usize::MAX);
    let mut out = Bounded::new(
        hint.saturating_add(head.len()),
        4 + limit.min(MAX_FRAME_LEN),
    );
    if !(out.put_bytes(&head) && write_exchange_into(value, &mut out)) {
        return None;
    }
    let mut frame = out.frame;
    let payload_len = u32::try_from(frame.len() - 4).expect("bounded by MAX_FRAME_LEN");
    frame[..4].copy_from_slice(&payload_len.to_be_bytes());
    Some(frame)
}

/// A frame buffer that refuses to pass `max_len` bytes, in length or in
/// capacity.
struct Bounded {
    frame: Vec<u8>,
    max_len: usize,
}

impl Bounded {
    /// Room for `hint` bytes up front, as far as the bound allows.
    fn new(hint: usize, max_len: usize) -> Bounded {
        Bounded {
            frame: Vec::with_capacity(hint.min(max_len)),
            max_len,
        }
    }

    fn put_bytes(&mut self, bytes: &[u8]) -> bool {
        let len = self.frame.len() + bytes.len();
        if len > self.max_len {
            return false;
        }
        if len > self.frame.capacity() {
            // Double, like `Vec`, but never beyond the bound.
            let target = (self.frame.capacity() * 2).clamp(len, self.max_len);
            self.frame.reserve_exact(target - self.frame.len());
        }
        self.frame.extend_from_slice(bytes);
        true
    }
}

impl ExchangeSink for Bounded {
    fn put(&mut self, text: &str) -> bool {
        self.put_bytes(text.as_bytes())
    }
}

/// Parse a response payload.
pub fn decode_response(payload: &[u8]) -> io::Result<Response> {
    let (op, id, body) = split_header(payload)?;
    match op {
        OP_RESULT => {
            let Some((&served, text)) = body.split_first() else {
                return Err(malformed("result frame missing served-from byte"));
            };
            let served = match served {
                0 => ServedFrom::Fresh,
                1 => ServedFrom::SharedCache,
                other => return Err(malformed(format!("bad served-from byte {other}"))),
            };
            let text = utf8_body(text, "result value")?;
            let value = read_exchange(&text)
                .map_err(|e| malformed(format!("bad value payload: {e}")))?;
            Ok(Response::Result { id, served, value })
        }
        OP_ERROR => Ok(Response::Error {
            id,
            message: utf8_body(body, "error message")?,
        }),
        OP_STATS_REPLY => Ok(Response::Stats {
            id,
            json: utf8_body(body, "stats json")?,
        }),
        OP_FLUSHED => {
            if body.len() != 16 {
                return Err(malformed("flushed frame body must be 16 bytes"));
            }
            let plans = u64::from_be_bytes(body[..8].try_into().expect("8 bytes"));
            let results = u64::from_be_bytes(body[8..].try_into().expect("8 bytes"));
            Ok(Response::Flushed { id, plans, results })
        }
        other => Err(malformed(format!("unknown response opcode {other:#04x}"))),
    }
}

/// `payload` behind its length prefix: one frame, one buffer. A separate
/// 4-byte length write would let Nagle hold the payload back until the
/// peer ACKs the prefix — ~40 ms of delayed-ACK stall per frame on
/// loopback.
pub fn frame(payload: &[u8]) -> io::Result<Vec<u8>> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(malformed(format!(
            "frame of {} bytes exceeds the {MAX_FRAME_LEN}-byte limit",
            payload.len()
        )));
    }
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload);
    Ok(frame)
}

/// Write one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(&frame(payload)?)?;
    w.flush()
}

/// Read one length-prefixed frame. `Ok(None)` on clean EOF (the peer
/// closed between frames); EOF mid-frame is an error.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match r.read(&mut len) {
        Ok(0) => return Ok(None),
        Ok(n) => r.read_exact(&mut len[n..])?,
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len) as usize;
    if len > MAX_FRAME_LEN {
        return Err(malformed(format!(
            "peer announced a {len}-byte frame (limit {MAX_FRAME_LEN})"
        )));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        for req in [
            Request::Query {
                id: 7,
                src: "{x | \\x <- DB}".to_string(),
            },
            Request::Cancel { id: u64::MAX },
            Request::Stats { id: 0 },
            Request::Flush {
                id: 9,
                source: "GDB-Tab".to_string(),
            },
        ] {
            let decoded = decode_request(&encode_request(&req)).unwrap();
            assert_eq!(decoded, req);
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in [
            Response::Result {
                id: 3,
                served: ServedFrom::SharedCache,
                value: Value::set(vec![Value::Int(1), Value::str("két")]),
            },
            Response::Error {
                id: 4,
                message: "eval: boom".to_string(),
            },
            Response::Stats {
                id: 5,
                json: "{\"queries\":{\"total\":1}}".to_string(),
            },
            Response::Flushed {
                id: 6,
                plans: 2,
                results: 3,
            },
        ] {
            let decoded = decode_response(&encode_response(&resp)).unwrap();
            assert_eq!(decoded, resp);
        }
    }

    #[test]
    fn result_frames_equal_the_text_path_and_stop_at_the_limit() {
        let value = Value::set(vec![Value::Int(-1), Value::str("két\n")]);
        let payload = encode_result_text(9, ServedFrom::Fresh, &write_exchange(&value));
        // A limit of exactly the payload fits; one byte less does not.
        let framed = encode_result_frame(9, ServedFrom::Fresh, &value, payload.len()).unwrap();
        assert_eq!(framed, frame(&payload).unwrap());
        assert!(encode_result_frame(9, ServedFrom::Fresh, &value, payload.len() - 1).is_none());

        // An over-limit result is never materialized: a ~1 MB reply
        // against a 4 KiB limit stops within the limit, in length and
        // in allocation (less than one more exchange line short of it).
        let big = Value::list((0..100_000).map(|i| Value::Int(1_000_000 + i)).collect());
        assert!(write_exchange(&big).len() > 900_000);
        let limit = 4096;
        assert!(encode_result_frame(1, ServedFrom::Fresh, &big, limit).is_none());
        for hint in [0, 1_000_000] {
            let mut out = Bounded::new(hint, limit);
            assert!(!write_exchange_into(&big, &mut out));
            let (len, allocated) = (out.frame.len(), out.frame.capacity());
            assert!(allocated <= limit, "allocated {allocated}");
            assert!(len > limit - 16, "stopped early at {len}");
        }
    }

    #[test]
    fn frames_round_trip_and_eof_is_clean() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut r = &wire[..];
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b""[..]));
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn truncated_frames_and_bad_opcodes_are_errors() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        let mut truncated = &wire[..wire.len() - 2];
        assert!(read_frame(&mut truncated).is_err(), "EOF mid-frame");

        let mut oversize = Vec::new();
        oversize.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_be_bytes());
        assert!(read_frame(&mut &oversize[..]).is_err());

        assert!(decode_request(&[0xff; 9]).is_err());
        assert!(decode_request(&[0x01]).is_err(), "short header");
        assert!(decode_response(&[0x81, 0, 0, 0, 0, 0, 0, 0, 0]).is_err());
    }
}
