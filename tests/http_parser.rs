//! `parse_request` reads bytes from any client that can open a socket.
//! Whatever arrives — noise, a truncated or mangled request, a pipelined
//! batch — it must return a request, a clean close, or a `Bad` error
//! carrying one of the statuses the server answers with, and never panic.
//! A well-formed request must parse back to what was sent.

use dtucker_serve::http::{parse_request, ConnReader, Limits, Method, ParseError, Request};
use proptest::prelude::*;
use std::io::{self, Read, Write};

/// Statuses a protocol violation may carry.
const BAD_STATUSES: [u16; 6] = [400, 413, 414, 431, 501, 505];

/// An in-memory connection: reads hand out at most `chunk` bytes at a
/// time (so requests straddle buffer refills), writes are collected.
struct Conn {
    input: Vec<u8>,
    pos: usize,
    chunk: usize,
    written: Vec<u8>,
}

impl Conn {
    fn new(input: Vec<u8>, chunk: usize) -> Self {
        Conn {
            input,
            pos: 0,
            chunk,
            written: Vec::new(),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = buf.len().min(self.chunk).min(self.input.len() - self.pos);
        buf[..n].copy_from_slice(&self.input[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.written.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Parses requests off `input` until the connection closes or a request
/// fails, checking that every failure is a clean close or a `Bad` with a
/// known status. Returns the parsed requests and the bytes written back.
fn parse_all(input: Vec<u8>, chunk: usize) -> (Vec<Request>, Vec<u8>) {
    let mut conn = Conn::new(input, chunk);
    let mut reader = ConnReader::new();
    let limits = Limits::default();
    let mut parsed = Vec::new();
    // Every parsed request consumes at least one byte.
    for _ in 0..=conn.input.len() {
        match parse_request(&mut reader, &mut conn, &limits) {
            Ok(req) => parsed.push(req),
            Err(ParseError::Closed) => break,
            Err(ParseError::Bad { status, message }) => {
                assert!(
                    BAD_STATUSES.contains(&status),
                    "status {status} ({message}) is not one the server answers with"
                );
                break;
            }
            Err(e) => panic!("in-memory input cannot time out or fail: {e:?}"),
        }
    }
    (parsed, conn.written)
}

/// Characters for paths, query names and values: plain ones, ones the
/// target syntax reserves, and multi-byte UTF-8.
const CHARS: &[char] = &[
    'a', 'z', 'Q', '0', '9', '-', '.', '_', '~', ':', ',', ' ', '%', '?', '&', '=', '#', '+', 'é',
    '→',
];

/// Percent-encodes everything but unreserved characters (and `/` when
/// `keep_slash`).
fn encode(s: &str, keep_slash: bool) -> String {
    let mut out = String::new();
    for b in s.bytes() {
        if b.is_ascii_alphanumeric() || b"-._~".contains(&b) || (keep_slash && b == b'/') {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

fn text(picks: &[usize]) -> String {
    picks.iter().map(|&i| CHARS[i % CHARS.len()]).collect()
}

/// One well-formed request and the bytes that carry it.
#[derive(Debug)]
struct Sent {
    method: Method,
    path: String,
    query: Vec<(String, String)>,
    body: Vec<u8>,
    expect_continue: bool,
    bytes: Vec<u8>,
}

type RequestParts = (
    bool,
    Vec<Vec<usize>>,
    Vec<(Vec<usize>, Vec<usize>)>,
    Vec<u8>,
    (bool, bool),
);

fn request_parts() -> impl Strategy<Value = RequestParts> {
    let piece = || proptest::collection::vec(0usize..CHARS.len(), 0..6);
    (
        any::<bool>(),
        proptest::collection::vec(piece(), 0..4),
        proptest::collection::vec((piece(), piece()), 0..4),
        proptest::collection::vec(any::<u8>(), 0..40),
        (any::<bool>(), any::<bool>()),
    )
}

fn build((post, segments, pairs, body, (expect, close)): RequestParts) -> Sent {
    let method = if post { Method::Post } else { Method::Get };
    let path = format!(
        "/{}",
        segments
            .iter()
            .map(|s| text(s))
            .collect::<Vec<_>>()
            .join("/")
    );
    let query: Vec<(String, String)> = pairs.iter().map(|(k, v)| (text(k), text(v))).collect();
    let mut target = encode(&path, true);
    if !query.is_empty() {
        let q: Vec<String> = query
            .iter()
            .map(|(k, v)| format!("{}={}", encode(k, false), encode(v, false)))
            .collect();
        target = format!("{target}?{}", q.join("&"));
    }
    let expect_continue = expect && !body.is_empty();
    let mut head = format!(
        "{} {target} HTTP/1.1\r\nHost: localhost\r\n",
        if post { "POST" } else { "GET" }
    );
    if close {
        head.push_str("Connection: close\r\n");
    }
    if !body.is_empty() {
        head.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    if expect_continue {
        head.push_str("Expect: 100-continue\r\n");
    }
    head.push_str("\r\n");
    let mut bytes = head.into_bytes();
    bytes.extend_from_slice(&body);
    Sent {
        method,
        path,
        query,
        body,
        expect_continue,
        bytes,
    }
}

/// Fragments spliced into requests: line and field syntax, bad escapes,
/// oversized or malformed lengths, unsupported versions and encodings.
const PIECES: &[&str] = &[
    "\r\n",
    "\n",
    "\r",
    ":",
    " ",
    "%",
    "%zz",
    "%C3",
    "?",
    "&",
    "=",
    "\0",
    "\u{e9}",
    "HTTP/2.0",
    "PUT",
    "Content-Length: 5\r\n",
    "Content-Length: 99999999999999999999\r\n",
    "Content-Length: +4\r\n",
    "Content-Length: 2000000\r\n",
    "Transfer-Encoding: chunked\r\n",
    "Expect: 100-continue\r\n",
    "\r\n\r\n",
];

/// Applies one edit at a position drawn from `at`: delete a byte, insert
/// a piece, or replace a byte with a piece.
fn mutate(bytes: &mut Vec<u8>, kind: usize, at: usize, piece: &str) {
    let pos = at % (bytes.len() + 1);
    match kind % 3 {
        0 => {
            if pos < bytes.len() {
                bytes.remove(pos);
            }
        }
        1 => {
            bytes.splice(pos..pos, piece.bytes());
        }
        _ => {
            let end = (pos + 1).min(bytes.len());
            bytes.splice(pos..end, piece.bytes());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn arbitrary_bytes_never_panic(
        noise in proptest::collection::vec(any::<u8>(), 0..300),
        picks in proptest::collection::vec(0usize..PIECES.len(), 0..12),
        chunk in 1usize..64,
    ) {
        parse_all(noise, chunk);
        let spliced: String = picks.iter().map(|&i| PIECES[i]).collect();
        parse_all(format!("GET / HTTP/1.1\r\n{spliced}").into_bytes(), chunk);
    }

    #[test]
    fn pipelined_requests_parse_back(
        first in request_parts(),
        second in request_parts(),
        third in request_parts(),
        count in 1usize..=3,
        chunk in 1usize..64,
    ) {
        let sent: Vec<Sent> = [first, second, third].into_iter().take(count).map(build).collect();
        let input: Vec<u8> = sent.iter().flat_map(|s| s.bytes.clone()).collect();
        let (parsed, written) = parse_all(input, chunk);
        prop_assert_eq!(parsed.len(), sent.len());
        for (got, want) in parsed.iter().zip(&sent) {
            prop_assert_eq!(got.method, want.method);
            prop_assert_eq!(&got.path, &want.path);
            prop_assert_eq!(&got.query, &want.query);
            prop_assert_eq!(&got.body, &want.body);
        }
        let continues = sent.iter().filter(|s| s.expect_continue).count();
        prop_assert_eq!(written, b"HTTP/1.1 100 Continue\r\n\r\n".repeat(continues));
    }

    #[test]
    fn mutated_requests_never_panic(
        parts in request_parts(),
        next in request_parts(),
        edits in proptest::collection::vec(
            (any::<usize>(), any::<usize>(), 0usize..PIECES.len()),
            1..4,
        ),
        chunk in 1usize..64,
    ) {
        let mut bytes = build(parts).bytes;
        for &(kind, at, piece) in &edits {
            mutate(&mut bytes, kind, at, PIECES[piece]);
        }
        bytes.extend_from_slice(&build(next).bytes);
        parse_all(bytes, chunk);
    }
}
