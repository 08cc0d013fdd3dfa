//! Bytes that cross a trust boundary are decoded by code that cannot be
//! made to panic, overflow its stack, or allocate out of proportion to
//! what arrived (ROADMAP item 6c): `proto::decode_request` (what a client
//! sends `kleislid`), `proto::decode_response` (what a server sends a
//! client) and `read_exchange` (the value inside a result frame, and what
//! a driver process sends the system). The texts inside those bytes are
//! read by three parsers more, each run here on a thread with a 2 MiB
//! stack: CPL through `Session::query` (a QUERY frame's payload),
//! `sybase::sql::parse` (what the Sybase driver is sent) and
//! `entrez::asn1::{parse_entry, parse_value}` (what an Entrez server
//! answers).
//!
//! Two families of input: arbitrary bytes, and valid frames with one byte
//! flipped or the tail cut off — the near-misses a decoder's happy path
//! is most likely to trust. A frame's length is bounded where it is read
//! (`proto::read_frame`, `MAX_FRAME_LEN`); what is checked here is that
//! nothing *inside* a payload can ask for more: every decode stays within
//! a fixed multiple of the payload it was given, measured by a counting
//! allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use kleisli::Session;
use kleisli_core::token::MAX_NESTING;
use kleisli_core::{read_exchange, write_exchange, KError, Oid, Value};
use entrez_sim::asn1;
use kleisli_server::proto::{
    decode_request, decode_response, encode_request, encode_response, Request, Response, ServedFrom,
};
use proptest::prelude::*;

/// The system allocator, counting per thread — the tests of this file
/// run side by side — the bytes the thread has allocated and not freed,
/// and the most that figure has been.
struct Counting;

thread_local! {
    // `const`, `Copy` and without a destructor: reading these neither
    // allocates nor can find them torn down, so the allocator may.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn count(bytes: isize) {
    let live = LIVE.get() + bytes;
    LIVE.set(live);
    PEAK.set(PEAK.get().max(live));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        // SAFETY: the caller's obligations for `alloc` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize));
        // SAFETY: `ptr` came from `alloc` above, that is from `System`,
        // with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Run `decode`, returning how far above its starting point this
/// thread's heap rose while it ran (its result included).
fn heap_rise<T>(decode: impl FnOnce() -> T) -> usize {
    let before = LIVE.get();
    PEAK.set(before);
    let decoded = decode();
    let rise = PEAK.get() - before;
    drop(decoded);
    rise as usize
}

/// What a decode of `len` bytes may allocate: the payload copied once for
/// its UTF-8 check, and a value whose smallest token (`U\n`, two bytes)
/// becomes one `Value` in a vector that doubles.
fn allowance(len: usize) -> usize {
    64 * len + 16 * 1024
}

/// Decode `payload` every way there is; none may panic or over-allocate.
fn decode_all(payload: &[u8]) {
    let rise = heap_rise(|| decode_request(payload));
    assert!(rise <= allowance(payload.len()), "request: {rise} bytes");
    let rise = heap_rise(|| decode_response(payload));
    assert!(rise <= allowance(payload.len()), "response: {rise} bytes");
    let text = String::from_utf8_lossy(payload);
    let rise = heap_rise(|| read_exchange(&text));
    assert!(rise <= allowance(text.len()), "exchange: {rise} bytes");
}

/// One of everything the exchange format spells, nested.
fn sample_value() -> Value {
    Value::set(vec![
        Value::record_from(vec![
            ("title", Value::str("a \\ b\nc\r")),
            ("year", Value::Int(-1995)),
            ("score", Value::Float(f64::NAN)),
            ("ok", Value::Bool(true)),
            ("none", Value::Unit),
            (
                "journal",
                Value::variant("controlled", Value::variant("issn", Value::str("0001"))),
            ),
            (
                "clone",
                Value::Ref(Oid {
                    class: "Clone".into(),
                    id: 42,
                }),
            ),
            ("kw", Value::bag(vec![Value::str("x"), Value::str("x")])),
            (
                "authors",
                Value::list(vec![Value::str("é"), Value::str("")]),
            ),
        ]),
        Value::Int(7),
    ])
}

/// Valid payloads: every request and response opcode, and a bare value.
fn valid_payloads() -> Vec<Vec<u8>> {
    let requests = [
        Request::Query {
            id: 1,
            src: r#"{x | \x <- GDB-Tab("locus")}"#.into(),
        },
        Request::Cancel { id: u64::MAX },
        Request::Stats { id: 3 },
        Request::Flush {
            id: 4,
            source: "GDB".into(),
        },
    ];
    let responses = [
        Response::Result {
            id: 5,
            served: ServedFrom::SharedCache,
            value: sample_value(),
        },
        Response::Error {
            id: 6,
            message: "driver 'GDB': no such table".into(),
        },
        Response::Stats {
            id: 7,
            json: r#"{"sessions": 2}"#.into(),
        },
        Response::Flushed {
            id: 8,
            plans: 3,
            results: u64::MAX,
        },
    ];
    requests
        .iter()
        .map(encode_request)
        .chain(responses.iter().map(encode_response))
        .chain([write_exchange(&sample_value()).into_bytes()])
        .collect()
}

/// A session with `DB`, five integers, and `PUBS`, the records of
/// [`sample_value`], bound.
fn session() -> Session {
    let mut session = Session::new();
    session.bind_value("DB", Value::set((0..5).map(Value::Int).collect()));
    let pubs = sample_value().elements().expect("a set").to_vec();
    let records = pubs.into_iter().filter(|v| matches!(v, Value::Record(_)));
    session.bind_value("PUBS", Value::set(records.collect()));
    session
}

/// Valid texts for the three text parsers: CPL queries over
/// [`session`]'s bindings, SQL the Sybase driver takes, and an ASN.1
/// entry.
fn valid_texts() -> Vec<String> {
    let record = Value::record_from(vec![
        ("title", Value::str("Structure of the \"perforin\" gene")),
        ("year", Value::Int(1989)),
        ("kw", Value::list(vec![Value::Float(2.5), Value::variant("giim", Value::Int(7))])),
    ]);
    [
        r"{[t = p.title, n = count(p.kw)] | \p <- PUBS, p.year > 1988}",
        r"sum({x * 2 | \x <- DB, x <> 3}) + 1",
        r#"{[x = x, y = y] | \x <- DB, \y <- {"a", "b"}, x < 2 or not (y = "a")}"#,
        "select l.locus_symbol as s from locus l where l.chrom = '22' and l.id >= 5",
        "SELECT a, b FROM t WHERE a <> 'it''s' AND b <= 3.5",
    ]
    .map(String::from)
    .into_iter()
    .chain([asn1::print_entry("Pub-set", &Value::list(vec![record]))])
    .collect()
}

/// Parse `text` every way the three text parsers do, on a thread with a
/// 2 MiB stack; none may panic, overflow it, or over-allocate.
fn parse_all(text: String) {
    let small = std::thread::Builder::new().stack_size(2 << 20).spawn(move || {
        let session = session();
        let allowed = allowance(text.len());
        let rise = heap_rise(|| session.query(&text));
        assert!(rise <= allowed, "CPL: {rise} bytes for {text:?}");
        let rise = heap_rise(|| sybase_sim::parse(&text));
        assert!(rise <= allowed, "SQL: {rise} bytes for {text:?}");
        let rise = heap_rise(|| asn1::parse_entry(&text));
        assert!(rise <= allowed, "ASN.1 entry: {rise} bytes for {text:?}");
        let rise = heap_rise(|| asn1::parse_value(&text));
        assert!(rise <= allowed, "ASN.1 value: {rise} bytes for {text:?}");
    });
    small.expect("a thread").join().expect("no parser panicked");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_decode_to_a_value_or_an_error(
        // Half the cases open with a real opcode, so the bodies are reached.
        opcode_of in prop_oneof![Just(None), (0usize..8).prop_map(Some)],
        bytes in proptest::collection::vec((0u16..256).prop_map(|b| b as u8), 0..160),
    ) {
        let mut payload = bytes;
        if let (Some(frame), Some(first)) = (opcode_of, payload.first_mut()) {
            *first = valid_payloads()[frame][0];
        }
        decode_all(&payload);
    }

    #[test]
    fn a_valid_frame_with_one_byte_flipped_or_its_tail_missing_decodes_or_errs(
        which in 0usize..9,
        at in any::<u64>(),
        bit in 0u32..8,
        cut in any::<bool>(),
    ) {
        let mut payload = valid_payloads().swap_remove(which);
        let at = (at % payload.len() as u64) as usize;
        if cut {
            payload.truncate(at);
        } else {
            payload[at] ^= 1 << bit;
        }
        decode_all(&payload);
        // No header, no frame.
        if payload.len() < 9 {
            prop_assert!(decode_request(&payload).is_err());
            prop_assert!(decode_response(&payload).is_err());
        }
    }

    #[test]
    fn a_short_byte_soup_parses_to_a_value_or_an_error_as_cpl_sql_or_asn1(
        bytes in proptest::collection::vec((0u16..256).prop_map(|b| b as u8), 0..160),
    ) {
        parse_all(String::from_utf8_lossy(&bytes).into_owned());
    }

    #[test]
    fn a_valid_text_with_one_byte_flipped_or_its_tail_missing_parses_or_errs(
        which in 0usize..6,
        at in any::<u64>(),
        bit in 0u32..8,
        cut in any::<bool>(),
    ) {
        let mut text = valid_texts().swap_remove(which).into_bytes();
        let at = (at % text.len() as u64) as usize;
        if cut {
            text.truncate(at);
        } else {
            text[at] ^= 1 << bit;
        }
        parse_all(String::from_utf8_lossy(&text).into_owned());
    }
}

#[test]
fn the_valid_texts_are_valid() {
    let texts = valid_texts();
    let session = session();
    for text in &texts[..3] {
        session.query(text).expect(text);
    }
    for text in &texts[3..5] {
        sybase_sim::parse(text).expect(text);
    }
    asn1::parse_entry(&texts[5]).expect("an ASN.1 entry");
    for text in texts {
        parse_all(text);
    }
}

#[test]
fn the_valid_frames_are_valid_and_every_prefix_of_a_value_is_an_error() {
    let payloads = valid_payloads();
    for payload in &payloads[..4] {
        decode_request(payload).expect("a request");
    }
    for payload in &payloads[4..8] {
        decode_response(payload).expect("a response");
    }
    let text = String::from_utf8(payloads[8].clone()).expect("exchange text");
    let value = read_exchange(&text).expect("a value");
    assert_eq!(write_exchange(&value), text);
    // Cut at any line but the last, the value is unterminated.
    for (at, _) in text.match_indices('\n').rev().skip(1) {
        assert!(read_exchange(&text[..=at]).is_err(), "{:?}", &text[..=at]);
    }
}

#[test]
fn a_value_is_the_whole_text() {
    // One value, then anything at all: not a value.
    for text in ["I 1\nI 2\n", "I 1\nzzz\n", "C list\nI 1\nI 2\nc\nc\nc\n"] {
        let err = read_exchange(text).expect_err(text);
        assert!(matches!(err, KError::Exchange(_)), "{text:?}: {err}");
    }
    // Blank lines are no lines.
    assert_eq!(read_exchange("\nI 1\n\n").expect("a value"), Value::Int(1));
}

#[test]
fn a_malformed_line_reports_its_own_error() {
    // Not the unterminated collection, or the missing value, it leaves.
    let bad_int = read_exchange("C set\nI x\nc\n").expect_err("a bad int");
    assert_eq!(bad_int.to_string(), "exchange format error: bad int: x");
    let bad_escape = read_exchange("S a\\q\n").expect_err("a bad escape");
    assert!(bad_escape.to_string().contains("bad escape"), "{bad_escape}");
}

#[test]
fn a_line_the_writer_never_writes_is_an_error_naming_it() {
    // A `B` line is `B 0` or `B 1`; `U`, `R`, `c`, `r` and `v` stand alone.
    for (text, line) in [
        ("B 7\n", "B 7"),
        ("B\n", "B"),
        ("B 10\n", "B 10"),
        ("U x\n", "U x"),
        ("U \n", "U "),
        ("R x\nr\n", "R x"),
        ("C list\nc x\n", "c x"),
        ("R\nr x\n", "r x"),
        ("V tag\nU\nv x\n", "v x"),
    ] {
        let err = read_exchange(text).expect_err(text);
        assert!(matches!(err, KError::Exchange(_)), "{text:?}: {err}");
        assert!(err.to_string().contains(&format!("{line:?}")), "{text:?}: {err}");
    }
    assert_eq!(read_exchange("B 0\n").expect("false"), Value::Bool(false));
    assert_eq!(read_exchange("B 1\n").expect("true"), Value::Bool(true));
}

#[test]
fn nesting_as_deep_as_a_frame_allows_is_an_error_not_a_stack_overflow() {
    // 1.4 MB of a 64 MiB frame limit: each line opens one more level.
    let levels = 200_000;
    for open in ["C set\n", "R\nL f\n", "V tag\n"] {
        let text = open.repeat(levels);
        let rise = heap_rise(|| assert!(read_exchange(&text).is_err(), "{open:?}"));
        assert!(rise <= allowance(text.len()));
        // The same text as the value of a RESULT frame.
        let mut frame = encode_response(&Response::Result {
            id: 9,
            served: ServedFrom::Fresh,
            value: Value::Unit,
        });
        frame.truncate(10); // opcode, id, served-from
        frame.extend_from_slice(text.as_bytes());
        assert!(decode_response(&frame).is_err(), "{open:?}");
    }
    let shallow = "C set\n".repeat(MAX_NESTING) + &"c\n".repeat(MAX_NESTING);
    read_exchange(&shallow).expect("legitimate nesting still reads");
}
