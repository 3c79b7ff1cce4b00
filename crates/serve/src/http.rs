//! Hand-rolled HTTP/1.1 request parsing and response writing.
//!
//! The parser is deliberately minimal and hostile-input-first: every
//! dimension of a request — request-line length, header count, total
//! header bytes, body size — has a hard cap from [`Limits`], and every
//! violation maps to a typed [`ParseError`] carrying the status code the
//! connection is answered with before closing. Nothing in this module
//! panics on malformed input (the crate is covered by the repo lint's
//! `no-unwrap-in-lib` rule); transport stalls surface as
//! [`ParseError::Timeout`] via the socket's read timeout.
//!
//! Supported surface: `GET`/`POST`, HTTP/1.0 and 1.1, `Content-Length`
//! bodies, keep-alive with pipelining (buffered leftover bytes carry
//! over to the next request on the connection). `Transfer-Encoding` is
//! rejected with `501`.

use std::io::{self, Read, Write};
use std::time::{Duration, Instant};

/// Hard caps applied while parsing one request.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum bytes of the request line (method + target + version).
    pub max_request_line: usize,
    /// Maximum number of header fields.
    pub max_header_count: usize,
    /// Maximum total bytes across all header lines.
    pub max_header_bytes: usize,
    /// Maximum `Content-Length` accepted for a body.
    pub max_body_bytes: usize,
    /// Wall-clock budget for receiving one complete request. The socket
    /// read timeout only bounds each *read*; a client dripping one byte
    /// per read could otherwise hold a worker for hours while never
    /// stalling long enough to trip it. Once this deadline passes the
    /// parse fails with [`ParseError::Timeout`] (answered with `408`)
    /// no matter how recently the last byte arrived.
    pub max_request_duration: Duration,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_request_line: 8 << 10,
            max_header_count: 64,
            max_header_bytes: 16 << 10,
            max_body_bytes: 1 << 20,
            max_request_duration: Duration::from_secs(30),
        }
    }
}

/// Request methods the server understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// `GET`
    Get,
    /// `POST`
    Post,
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// The method.
    pub method: Method,
    /// Percent-decoded path (no query string).
    pub path: String,
    /// Percent-decoded query parameters in order of appearance.
    pub query: Vec<(String, String)>,
    /// Headers with lowercased names, values trimmed.
    pub headers: Vec<(String, String)>,
    /// The body (empty unless `Content-Length` was given).
    pub body: Vec<u8>,
    /// Whether the connection may serve another request afterwards.
    pub keep_alive: bool,
}

impl Request {
    /// First query parameter with this name.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// First header with this (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why parsing one request failed.
#[derive(Debug)]
pub enum ParseError {
    /// Peer closed the connection before sending any byte of a request —
    /// the normal end of a keep-alive connection, not an error.
    Closed,
    /// The socket's read timeout or the request deadline elapsed
    /// mid-request (slowloris).
    Timeout,
    /// Transport failure.
    Io(io::Error),
    /// Protocol violation; `status` is the response the connection gets
    /// before closing (400/413/414/431/501/505).
    Bad {
        /// HTTP status to answer with.
        status: u16,
        /// Human-readable reason included in the JSON error body.
        message: String,
    },
}

fn bad(status: u16, message: impl Into<String>) -> ParseError {
    ParseError::Bad {
        status,
        message: message.into(),
    }
}

fn io_err(e: io::Error) -> ParseError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => ParseError::Timeout,
        _ => ParseError::Io(e),
    }
}

/// Buffered reader living for the whole connection, so pipelined bytes
/// left over after one request are seen by the next parse.
#[derive(Debug)]
pub struct ConnReader {
    buf: Vec<u8>,
    pos: usize,
    len: usize,
}

impl Default for ConnReader {
    fn default() -> Self {
        Self::new()
    }
}

impl ConnReader {
    /// An empty buffer.
    pub fn new() -> Self {
        ConnReader {
            buf: vec![0; 8 << 10],
            pos: 0,
            len: 0,
        }
    }

    /// Whether bytes of a pipelined request already sit in the buffer.
    /// A socket `peek` cannot see them: they have left the kernel.
    pub(crate) fn has_buffered(&self) -> bool {
        self.pos < self.len
    }

    /// Deadline checks only happen when the buffer is empty and a fresh
    /// read is needed — once per syscall, not once per byte.
    fn next_byte(
        &mut self,
        stream: &mut impl Read,
        deadline: Instant,
    ) -> Result<Option<u8>, ParseError> {
        if self.pos == self.len {
            if Instant::now() >= deadline {
                return Err(ParseError::Timeout);
            }
            self.pos = 0;
            self.len = stream.read(&mut self.buf).map_err(io_err)?;
            if self.len == 0 {
                return Ok(None);
            }
        }
        let b = self.buf[self.pos];
        self.pos += 1;
        Ok(Some(b))
    }

    /// Reads one line up to `\n` (stripping a trailing `\r`), erroring
    /// with `overflow_status` if it exceeds `cap` bytes. EOF before any
    /// byte yields `Ok(None)`; EOF mid-line is a 400.
    fn read_line(
        &mut self,
        stream: &mut impl Read,
        cap: usize,
        overflow_status: u16,
        deadline: Instant,
    ) -> Result<Option<String>, ParseError> {
        let mut line: Vec<u8> = Vec::new();
        loop {
            match self.next_byte(stream, deadline)? {
                None if line.is_empty() => return Ok(None),
                None => return Err(bad(400, "connection closed mid-line")),
                Some(b'\n') => break,
                Some(b) => {
                    if line.len() >= cap {
                        return Err(bad(overflow_status, "line exceeds the configured limit"));
                    }
                    line.push(b);
                }
            }
        }
        if line.last() == Some(&b'\r') {
            line.pop();
        }
        String::from_utf8(line)
            .map(Some)
            .map_err(|_| bad(400, "non-UTF-8 bytes in header section"))
    }

    fn read_exact_body(
        &mut self,
        stream: &mut impl Read,
        n: usize,
        deadline: Instant,
    ) -> Result<Vec<u8>, ParseError> {
        let mut body = Vec::with_capacity(n);
        // Drain what is already buffered first.
        while body.len() < n && self.pos < self.len {
            body.push(self.buf[self.pos]);
            self.pos += 1;
        }
        while body.len() < n {
            if Instant::now() >= deadline {
                return Err(ParseError::Timeout);
            }
            let mut chunk = vec![0u8; (n - body.len()).min(8 << 10)];
            let got = stream.read(&mut chunk).map_err(io_err)?;
            if got == 0 {
                return Err(bad(400, "connection closed mid-body"));
            }
            body.extend_from_slice(&chunk[..got]);
        }
        Ok(body)
    }
}

/// Percent-decodes `%XX` escapes ( `+` is left alone — range specs never
/// contain spaces). Invalid escapes or non-UTF-8 results are `None`.
fn percent_decode(s: &str) -> Option<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes.get(i + 1..i + 3)?;
            let hi = (hex[0] as char).to_digit(16)?;
            let lo = (hex[1] as char).to_digit(16)?;
            out.push((hi * 16 + lo) as u8);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).ok()
}

/// Parses one request from the connection. `stream` is used for both
/// reading and for writing the interim `100 Continue` when a client asks
/// for it before sending a body.
pub fn parse_request<S: Read + Write>(
    reader: &mut ConnReader,
    stream: &mut S,
    limits: &Limits,
) -> Result<Request, ParseError> {
    // The deadline clock starts when we begin looking for a request, so
    // it also bounds drip-fed request lines, headers and bodies.
    let deadline = Instant::now() + limits.max_request_duration;
    // Tolerate a small number of stray blank lines before the request
    // line (RFC 9112 §2.2), but not an unbounded stream of them.
    let mut line = None;
    for _ in 0..4 {
        match reader.read_line(stream, limits.max_request_line, 414, deadline)? {
            None => return Err(ParseError::Closed),
            Some(l) if l.is_empty() => continue,
            Some(l) => {
                line = Some(l);
                break;
            }
        }
    }
    let line = line.ok_or_else(|| bad(400, "expected a request line"))?;

    let mut parts = line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => return Err(bad(400, format!("malformed request line '{line}'"))),
    };
    let method = match method {
        "GET" => Method::Get,
        "POST" => Method::Post,
        other => return Err(bad(501, format!("method '{other}' not implemented"))),
    };
    let mut keep_alive = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        other => return Err(bad(505, format!("unsupported version '{other}'"))),
    };
    if !target.starts_with('/') {
        return Err(bad(
            400,
            format!("target '{target}' is not an absolute path"),
        ));
    }
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let path =
        percent_decode(raw_path).ok_or_else(|| bad(400, "invalid percent-encoding in path"))?;
    let mut query = Vec::new();
    if let Some(q) = raw_query {
        for pair in q.split('&').filter(|p| !p.is_empty()) {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            let k = percent_decode(k)
                .ok_or_else(|| bad(400, "invalid percent-encoding in query name"))?;
            let v = percent_decode(v)
                .ok_or_else(|| bad(400, "invalid percent-encoding in query value"))?;
            query.push((k, v));
        }
    }

    let mut headers: Vec<(String, String)> = Vec::new();
    let mut header_bytes = 0usize;
    loop {
        let l = reader
            .read_line(stream, limits.max_request_line, 431, deadline)?
            .ok_or_else(|| bad(400, "connection closed before end of headers"))?;
        if l.is_empty() {
            break;
        }
        header_bytes += l.len();
        if header_bytes > limits.max_header_bytes {
            return Err(bad(431, "header section exceeds the configured byte limit"));
        }
        if headers.len() >= limits.max_header_count {
            return Err(bad(431, "too many header fields"));
        }
        let (name, value) = l
            .split_once(':')
            .ok_or_else(|| bad(400, format!("malformed header line '{l}'")))?;
        if name.is_empty() || name.contains(' ') {
            return Err(bad(400, format!("malformed header name '{name}'")));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    let mut req = Request {
        method,
        path,
        query,
        headers,
        body: Vec::new(),
        keep_alive,
    };
    match req.header("connection").map(str::to_ascii_lowercase) {
        Some(v) if v.contains("close") => keep_alive = false,
        Some(v) if v.contains("keep-alive") => keep_alive = true,
        _ => {}
    }
    req.keep_alive = keep_alive;

    if req.header("transfer-encoding").is_some() {
        return Err(bad(501, "transfer-encoding is not supported"));
    }
    // Content-Length hygiene (RFC 9112 §6.3): conflicting duplicates are
    // a request-smuggling vector and must be rejected, and the value is
    // digits only — `usize::parse` alone would also accept a leading `+`.
    let mut content_length: Option<String> = None;
    for (name, value) in &req.headers {
        if name != "content-length" {
            continue;
        }
        match &content_length {
            Some(prev) if prev != value => {
                return Err(bad(400, "conflicting content-length headers"));
            }
            _ => content_length = Some(value.clone()),
        }
    }
    if let Some(cl) = content_length {
        if cl.is_empty() || !cl.bytes().all(|b| b.is_ascii_digit()) {
            return Err(bad(400, format!("invalid content-length '{cl}'")));
        }
        let n: usize = cl
            .parse()
            .map_err(|_| bad(400, format!("invalid content-length '{cl}'")))?;
        if n > limits.max_body_bytes {
            return Err(bad(413, format!("body of {n} bytes exceeds the limit")));
        }
        if n > 0 {
            if req
                .header("expect")
                .is_some_and(|v| v.eq_ignore_ascii_case("100-continue"))
            {
                stream
                    .write_all(b"HTTP/1.1 100 Continue\r\n\r\n")
                    .map_err(io_err)?;
            }
            req.body = reader.read_exact_body(stream, n, deadline)?;
        }
    }
    Ok(req)
}

/// A response about to be written.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// Emits a `Retry-After: n` header (load shedding).
    pub retry_after: Option<u32>,
    /// Forces `Connection: close` regardless of the request.
    pub close: bool,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            retry_after: None,
            close: false,
        }
    }

    /// A plain-text response (used by `/metrics`).
    pub fn text(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body: body.into_bytes(),
            retry_after: None,
            close: false,
        }
    }

    /// A JSON `{"error": ...}` response that also closes the connection.
    pub fn error(status: u16, message: &str) -> Self {
        let mut r = Self::json(status, crate::json::render_error(message));
        r.close = true;
        r
    }
}

/// Canonical reason phrase for the statuses this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Content Too Large",
        414 => "URI Too Long",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// Writes `r` with `Content-Length` and the negotiated `Connection`
/// header.
pub fn write_response(stream: &mut impl Write, r: &Response, keep_alive: bool) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        r.status,
        reason(r.status),
        r.content_type,
        r.body.len()
    );
    if let Some(secs) = r.retry_after {
        head.push_str(&format!("Retry-After: {secs}\r\n"));
    }
    let keep = keep_alive && !r.close;
    head.push_str(if keep {
        "Connection: keep-alive\r\n\r\n"
    } else {
        "Connection: close\r\n\r\n"
    });
    stream.write_all(head.as_bytes())?;
    stream.write_all(&r.body)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// In-memory bidirectional stream for parser tests.
    struct Fake {
        input: io::Cursor<Vec<u8>>,
        written: Vec<u8>,
    }

    impl Fake {
        fn new(input: &[u8]) -> Self {
            Fake {
                input: io::Cursor::new(input.to_vec()),
                written: Vec::new(),
            }
        }
    }

    impl Read for Fake {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.input.read(buf)
        }
    }

    impl Write for Fake {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.written.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn parse(input: &[u8]) -> Result<Request, ParseError> {
        let mut s = Fake::new(input);
        parse_request(&mut ConnReader::new(), &mut s, &Limits::default())
    }

    fn parse_with(input: &[u8], limits: &Limits) -> Result<Request, ParseError> {
        let mut s = Fake::new(input);
        parse_request(&mut ConnReader::new(), &mut s, limits)
    }

    fn status_of(e: ParseError) -> u16 {
        match e {
            ParseError::Bad { status, .. } => status,
            other => panic!("expected Bad, got {other:?}"),
        }
    }

    #[test]
    fn parses_get_with_query_and_headers() {
        let r =
            parse(b"GET /q/my%20art?range=0:3,1:5,2&agg=sum HTTP/1.1\r\nHost: x\r\nX-A: 1\r\n\r\n")
                .unwrap();
        assert_eq!(r.method, Method::Get);
        assert_eq!(r.path, "/q/my art");
        assert_eq!(r.query_param("range"), Some("0:3,1:5,2"));
        assert_eq!(r.query_param("agg"), Some("sum"));
        assert_eq!(r.query_param("missing"), None);
        assert_eq!(r.header("host"), Some("x"));
        assert!(r.keep_alive);
        assert!(r.body.is_empty());
    }

    #[test]
    fn parses_post_body_and_keepalive_negotiation() {
        let r = parse(b"POST /q/d/batch HTTP/1.1\r\nContent-Length: 9\r\n\r\n0:2,:,:\nX").unwrap();
        assert_eq!(r.method, Method::Post);
        assert_eq!(r.body, b"0:2,:,:\nX");
        assert!(r.keep_alive);
        let r = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!r.keep_alive);
        let r = parse(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!r.keep_alive);
        let r = parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(r.keep_alive);
    }

    #[test]
    fn expect_100_continue_is_answered() {
        let mut s =
            Fake::new(b"POST /b HTTP/1.1\r\nContent-Length: 2\r\nExpect: 100-continue\r\n\r\nok");
        let r = parse_request(&mut ConnReader::new(), &mut s, &Limits::default()).unwrap();
        assert_eq!(r.body, b"ok");
        assert!(s.written.starts_with(b"HTTP/1.1 100 Continue"));
    }

    #[test]
    fn pipelined_requests_share_the_reader() {
        let mut s = Fake::new(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n");
        let mut reader = ConnReader::new();
        let a = parse_request(&mut reader, &mut s, &Limits::default()).unwrap();
        let b = parse_request(&mut reader, &mut s, &Limits::default()).unwrap();
        assert_eq!(a.path, "/a");
        assert_eq!(b.path, "/b");
        assert!(matches!(
            parse_request(&mut reader, &mut s, &Limits::default()),
            Err(ParseError::Closed)
        ));
    }

    #[test]
    fn hostile_inputs_map_to_statuses() {
        // Garbage request line.
        assert_eq!(
            status_of(parse(b"NOT A REQUEST AT ALL\r\n\r\n").err().unwrap()),
            400
        );
        // Unknown method / bad version.
        assert_eq!(
            status_of(parse(b"BREW /pot HTTP/1.1\r\n\r\n").err().unwrap()),
            501
        );
        assert_eq!(
            status_of(parse(b"GET / HTTP/9.9\r\n\r\n").err().unwrap()),
            505
        );
        // Relative target, bad escapes, malformed headers.
        assert_eq!(
            status_of(parse(b"GET nope HTTP/1.1\r\n\r\n").err().unwrap()),
            400
        );
        assert_eq!(
            status_of(parse(b"GET /%zz HTTP/1.1\r\n\r\n").err().unwrap()),
            400
        );
        assert_eq!(
            status_of(
                parse(b"GET / HTTP/1.1\r\nno colon here\r\n\r\n")
                    .err()
                    .unwrap()
            ),
            400
        );
        // Chunked bodies are refused, bad content-length is a 400.
        assert_eq!(
            status_of(
                parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
                    .err()
                    .unwrap()
            ),
            501
        );
        assert_eq!(
            status_of(
                parse(b"POST / HTTP/1.1\r\nContent-Length: ten\r\n\r\n")
                    .err()
                    .unwrap()
            ),
            400
        );
        // Truncated mid-line and mid-body.
        assert_eq!(
            status_of(parse(b"GET / HTTP/1.1\r\nHost").err().unwrap()),
            400
        );
        assert_eq!(
            status_of(
                parse(b"POST / HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort")
                    .err()
                    .unwrap()
            ),
            400
        );
    }

    #[test]
    fn oversize_dimensions_hit_their_caps() {
        let limits = Limits {
            max_request_line: 64,
            max_header_count: 2,
            max_header_bytes: 64,
            max_body_bytes: 16,
            ..Limits::default()
        };
        // Request line too long → 414.
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(200));
        assert_eq!(
            status_of(parse_with(long.as_bytes(), &limits).err().unwrap()),
            414
        );
        // Header bytes / count → 431.
        let fat = format!("GET / HTTP/1.1\r\nX: {}\r\n\r\n", "b".repeat(100));
        assert_eq!(
            status_of(parse_with(fat.as_bytes(), &limits).err().unwrap()),
            431
        );
        let many = b"GET / HTTP/1.1\r\nA: 1\r\nB: 2\r\nC: 3\r\n\r\n";
        assert_eq!(status_of(parse_with(many, &limits).err().unwrap()), 431);
        // Declared body over the cap → 413 without reading it.
        let big = b"POST / HTTP/1.1\r\nContent-Length: 9999\r\n\r\n";
        assert_eq!(status_of(parse_with(big, &limits).err().unwrap()), 413);
    }

    #[test]
    fn content_length_hygiene() {
        // Conflicting duplicates are a smuggling vector → 400.
        assert_eq!(
            status_of(
                parse(b"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nok")
                    .err()
                    .unwrap()
            ),
            400
        );
        // Identical duplicates are tolerated (RFC 9110 §8.6).
        let r =
            parse(b"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nok").unwrap();
        assert_eq!(r.body, b"ok");
        // Digits only: usize::parse alone would accept a leading '+'.
        for raw in [
            b"POST / HTTP/1.1\r\nContent-Length: +2\r\n\r\nok".as_slice(),
            b"POST / HTTP/1.1\r\nContent-Length: 2 2\r\n\r\nok".as_slice(),
            b"POST / HTTP/1.1\r\nContent-Length:\r\n\r\n".as_slice(),
        ] {
            assert_eq!(status_of(parse(raw).err().unwrap()), 400);
        }
    }

    /// A stream that never stalls a single read but also never finishes
    /// a request: one byte per read, forever.
    struct Drip;

    impl Read for Drip {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            std::thread::sleep(Duration::from_millis(5));
            buf[0] = b'a';
            Ok(1)
        }
    }

    impl Write for Drip {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn drip_fed_request_hits_the_total_deadline() {
        let limits = Limits {
            max_request_duration: Duration::from_millis(50),
            ..Limits::default()
        };
        let start = Instant::now();
        let err = parse_request(&mut ConnReader::new(), &mut Drip, &limits).unwrap_err();
        assert!(matches!(err, ParseError::Timeout), "{err:?}");
        // Well before the 8 KiB request-line cap (~40s at this drip rate)
        // could have fired.
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn clean_close_and_blank_line_tolerance() {
        assert!(matches!(parse(b""), Err(ParseError::Closed)));
        let r = parse(b"\r\n\r\nGET /x HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(r.path, "/x");
        // An unbounded blank-line stream is rejected, not looped on.
        assert_eq!(
            status_of(parse(b"\r\n\r\n\r\n\r\n\r\n\r\n").err().unwrap()),
            400
        );
    }

    #[test]
    fn response_writing() {
        let mut out = Vec::new();
        let mut r = Response::json(200, "{\"ok\":true}".into());
        write_response(&mut out, &r, true).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.starts_with("HTTP/1.1 200 OK\r\n"), "{s}");
        assert!(s.contains("Content-Length: 11\r\n"));
        assert!(s.contains("Connection: keep-alive\r\n"));
        assert!(s.ends_with("{\"ok\":true}"));

        r.close = true;
        let mut out = Vec::new();
        write_response(&mut out, &r, true).unwrap();
        assert!(String::from_utf8(out)
            .unwrap()
            .contains("Connection: close"));

        let mut shed = Response::error(503, "over capacity");
        shed.retry_after = Some(1);
        let mut out = Vec::new();
        write_response(&mut out, &shed, false).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("Retry-After: 1\r\n"), "{s}");
        assert!(s.contains("503 Service Unavailable"));
        assert!(s.contains("{\"error\":\"over capacity\"}"));
        assert_eq!(reason(418), "Unknown");
    }
}
