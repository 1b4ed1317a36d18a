//! Minimal HTTP/1.1 framing — just enough protocol for `urbane-serve`.
//!
//! The serving layer is deliberately std-only (the workspace vendors its
//! few dependencies and adds none), so this module hand-rolls the narrow
//! HTTP subset the server speaks: request-line + headers + Content-Length
//! bodies in, status + headers + body out, with keep-alive. Everything is
//! bounded — header size, header count, body size — so a hostile peer can
//! cost at most a bounded read, never unbounded memory.

use std::io::{self, BufRead, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Parse/framing limits.
pub const MAX_HEADER_LINE: usize = 8 * 1024;
/// Maximum number of header lines accepted per request.
pub const MAX_HEADERS: usize = 100;
/// Maximum request-body bytes (1 MiB). A larger `Content-Length` is refused
/// before the body is allocated or read.
pub const MAX_BODY: usize = 1 << 20;

/// A [`TcpStream`] wrapper that enforces a *total* per-request read budget
/// on top of the per-read idle timeout.
///
/// The idle timeout alone is not enough: a slow-loris client that trickles
/// one byte every few seconds resets the per-read clock on every byte and
/// can pin a worker indefinitely. The budget clock arms on the first byte
/// of a request (so idle keep-alive connections are still governed only by
/// the idle timeout) and every subsequent read gets the *smaller* of the
/// idle timeout and the remaining budget; once the budget is exhausted the
/// read fails with [`io::ErrorKind::TimedOut`]. Call
/// [`finish_request`](Self::finish_request) between keep-alive requests to
/// re-arm the budget for the next one.
///
/// The socket's timeout is set only when the one a read needs differs from
/// the one last set, so back-to-back reads between requests (all under
/// the idle timeout) cost no `setsockopt`. Nothing else may set the
/// wrapped stream's read timeout.
#[derive(Debug)]
pub struct BudgetedStream {
    stream: TcpStream,
    idle: Duration,
    budget: Duration,
    deadline: Option<Instant>,
    /// The read timeout last set on `stream` (`None` before the first read).
    timeout: Option<Duration>,
}

impl BudgetedStream {
    /// Wrap `stream`. `idle` bounds each individual read (and the wait for
    /// a request to start); `budget` bounds the whole request read.
    pub fn new(stream: TcpStream, idle: Duration, budget: Duration) -> Self {
        BudgetedStream { stream, idle, budget, deadline: None, timeout: None }
    }

    /// The wrapped stream (for writes via `try_clone` etc.).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Disarm the budget clock: the current request is fully read, the next
    /// read starts a new request (and a fresh budget).
    pub fn finish_request(&mut self) {
        self.deadline = None;
    }
}

impl Read for BudgetedStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let timeout = match self.deadline {
            // Between requests: only the idle timeout applies.
            None => self.idle,
            Some(d) => {
                let remaining = d.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "per-request read budget exhausted",
                    ));
                }
                remaining.min(self.idle)
            }
        };
        if self.timeout != Some(timeout) {
            self.stream.set_read_timeout(Some(timeout))?;
            self.timeout = Some(timeout);
        }
        let n = self.stream.read(buf)?;
        if n > 0 && self.deadline.is_none() {
            // First byte of a request: the budget clock starts now.
            self.deadline = Some(Instant::now() + self.budget);
        }
        Ok(n)
    }
}

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method (`GET`, `POST`, …), uppercased as received.
    pub method: String,
    /// Request target path (query strings are kept verbatim).
    pub path: String,
    /// Header name/value pairs in arrival order (names lowercased).
    pub headers: Vec<(String, String)>,
    /// The body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup (names are stored lowercased).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers.iter().find(|(k, _)| *k == name).map(|(_, v)| v.as_str())
    }

    /// Does the client ask to drop the connection after this exchange?
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .map(|v| v.eq_ignore_ascii_case("close"))
            .unwrap_or(false)
    }
}

/// Why reading a request failed.
#[derive(Debug)]
pub enum ReadError {
    /// Clean EOF before the request line — the peer simply hung up.
    Eof,
    /// Socket-level failure (including read timeouts).
    Io(io::Error),
    /// The bytes were not valid HTTP, or exceeded a framing limit. The
    /// message is safe to echo in a 400 body.
    Malformed(String),
}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        ReadError::Io(e)
    }
}

/// Read a single bounded line (without its `\n` and one `\r` before it),
/// straight out of the reader's buffer. Errors when more than
/// [`MAX_HEADER_LINE`] bytes come before the `\n`.
fn read_line<R: BufRead>(r: &mut R) -> Result<Option<String>, ReadError> {
    let mut line = Vec::new();
    r.take(MAX_HEADER_LINE as u64 + 1).read_until(b'\n', &mut line)?;
    if line.pop_if(|b| *b == b'\n').is_none() {
        return match line.len() {
            0 => Ok(None),
            n if n > MAX_HEADER_LINE => Err(ReadError::Malformed("header line too long".into())),
            _ => Err(ReadError::Malformed("truncated request line".into())),
        };
    }
    line.pop_if(|b| *b == b'\r');
    let lossy = |e: std::string::FromUtf8Error| String::from_utf8_lossy(e.as_bytes()).into_owned();
    Ok(Some(String::from_utf8(line).unwrap_or_else(lossy)))
}

/// Read one request from `r`. `Err(Eof)` on a cleanly closed idle
/// connection; `Malformed` covers both bad syntax and exceeded limits.
pub fn read_request<R: BufRead>(r: &mut R) -> Result<Request, ReadError> {
    let request_line = match read_line(r)? {
        None => return Err(ReadError::Eof),
        Some(l) => l,
    };
    let mut parts = request_line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) => (m.to_string(), p.to_string(), v),
        _ => return Err(ReadError::Malformed(format!("bad request line {request_line:?}"))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::Malformed(format!("unsupported version {version:?}")));
    }

    let mut headers = Vec::new();
    loop {
        let line = match read_line(r)? {
            None => return Err(ReadError::Malformed("truncated headers".into())),
            Some(l) => l,
        };
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(ReadError::Malformed("too many headers".into()));
        }
        let Some(colon) = line.find(':') else {
            return Err(ReadError::Malformed(format!("bad header {line:?}")));
        };
        // The line's own buffer becomes the name: cut, trim, lowercase.
        let value = line[colon + 1..].trim().to_string();
        let mut name = line;
        name.truncate(name[..colon].trim_end().len());
        name.drain(..name.len() - name.trim_start().len());
        name.make_ascii_lowercase();
        headers.push((name, value));
    }

    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| v.parse::<usize>())
        .transpose()
        .map_err(|_| ReadError::Malformed("bad content-length".into()))?
        .unwrap_or(0);
    if content_length > MAX_BODY {
        return Err(ReadError::Malformed(format!(
            "body of {content_length} bytes exceeds the {MAX_BODY}-byte limit"
        )));
    }
    let mut body = vec![0u8; content_length];
    r.read_exact(&mut body)
        .map_err(|e| ReadError::Malformed(format!("short body: {e}")))?;

    Ok(Request { method, path, headers, body })
}

/// An outgoing response.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra headers (name, value).
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// A JSON error envelope: `{"error": "..."}`.
    pub fn error(status: u16, message: &str) -> Self {
        let m = urbane_geom::geojson::Json::String(message.to_string());
        Response::json(status, format!("{{\"error\":{m}}}"))
    }

    /// Attach a header (builder style).
    pub fn with_header(mut self, name: &str, value: String) -> Self {
        // lint: bounded-by the handful of headers a handler attaches (response builder, not retained state)
        self.headers.push((name.to_string(), value));
        self
    }
}

/// The reason phrase for the handful of statuses the server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Serialize a response. `keep_alive` controls the `Connection` header —
/// the caller decides based on the request and its own lifecycle.
///
/// Head and body go out in one `write_all`: on a `TCP_NODELAY` socket two
/// writes would send every response as two segments.
pub fn write_response<W: Write>(w: &mut W, resp: &Response, keep_alive: bool) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type,
        resp.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (k, v) in &resp.headers {
        head.push_str(k);
        head.push_str(": ");
        head.push_str(v);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let mut out = head.into_bytes();
    out.extend_from_slice(&resp.body);
    w.write_all(&out)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Request, ReadError> {
        read_request(&mut BufReader::new(raw.as_bytes()))
    }

    /// A body source that fails the test if the parser reads from it.
    struct Untouched;

    impl Read for Untouched {
        fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
            panic!("the parser read the body of a request it should have refused");
        }
    }

    #[test]
    fn parses_get() {
        let r = parse("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/healthz");
        assert_eq!(r.header("host"), Some("x"));
        assert_eq!(r.header("HOST"), Some("x"));
        assert!(r.body.is_empty());
        assert!(!r.wants_close());
    }

    #[test]
    fn parses_post_with_body() {
        let r = parse("POST /query HTTP/1.1\r\nContent-Length: 4\r\nConnection: close\r\n\r\nabcd")
            .unwrap();
        assert_eq!(r.body, b"abcd");
        assert!(r.wants_close());
    }

    #[test]
    fn eof_and_malformed_are_distinguished() {
        assert!(matches!(parse(""), Err(ReadError::Eof)));
        assert!(matches!(parse("garbage\r\n\r\n"), Err(ReadError::Malformed(_))));
        assert!(matches!(parse("GET / SPDY/3\r\n\r\n"), Err(ReadError::Malformed(_))));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"),
            Err(ReadError::Malformed(_))
        ));
    }

    #[test]
    fn body_cap_refuses_before_reading_and_admits_exactly_max_body() {
        // One byte over the cap: refused from the header alone, so the body
        // is neither allocated nor waited for.
        let head = format!(
            "POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        match read_request(&mut BufReader::new(head.as_bytes().chain(Untouched))) {
            Err(ReadError::Malformed(m)) => assert!(m.contains("exceeds"), "{m}"),
            other => panic!("an oversized body must be refused: {other:?}"),
        }

        let mut raw =
            format!("POST /query HTTP/1.1\r\nContent-Length: {MAX_BODY}\r\n\r\n").into_bytes();
        raw.resize(raw.len() + MAX_BODY, b'x');
        let req = read_request(&mut BufReader::new(raw.as_slice())).unwrap();
        assert_eq!(req.body.len(), MAX_BODY);
    }

    fn refusal(raw: &str) -> String {
        match parse(raw) {
            Err(ReadError::Malformed(m)) => m,
            other => panic!("expected a refusal, got {other:?}"),
        }
    }

    /// `MAX_HEADER_LINE` counts every byte before the `\n`, a `\r` included:
    /// a line of exactly the cap is read and one byte more is refused, with
    /// either line ending, on the request line and on a header line.
    #[test]
    fn header_line_cap_admits_exactly_max_header_line() {
        for eol in ["\r\n", "\n"] {
            // Bytes of a line before its `eol` when the line is at the cap.
            let at_cap = MAX_HEADER_LINE + 1 - eol.len();

            let path = |len: usize| format!("/{}", "p".repeat(len - "GET / HTTP/1.1".len()));
            let get = |line_len| format!("GET {} HTTP/1.1{eol}{eol}", path(line_len));
            assert_eq!(parse(&get(at_cap)).unwrap().path, path(at_cap), "{eol:?}");
            assert_eq!(refusal(&get(at_cap + 1)), "header line too long", "{eol:?}");

            let value = |len: usize| "v".repeat(len - "X-Pad: ".len());
            let padded =
                |line_len| format!("GET / HTTP/1.1{eol}X-Pad: {}{eol}{eol}", value(line_len));
            let req = parse(&padded(at_cap)).unwrap();
            assert_eq!(req.header("x-pad"), Some(value(at_cap).as_str()), "{eol:?}");
            assert_eq!(refusal(&padded(at_cap + 1)), "header line too long", "{eol:?}");
        }
        // A line that never ends is refused at the cap, not read to its end.
        let endless = format!("GET /{}", "p".repeat(4 * MAX_HEADER_LINE));
        assert_eq!(refusal(&endless), "header line too long");
        // A line cut short by the peer hanging up is truncated, not too long.
        assert_eq!(refusal("GET / HTTP/1.1\r\nHost: x"), "truncated request line");
        assert_eq!(refusal("GET / HTTP/1.1\r\n"), "truncated headers");
    }

    /// `MAX_HEADERS` header lines are read; one more is refused.
    #[test]
    fn header_count_cap_admits_exactly_max_headers() {
        for eol in ["\r\n", "\n"] {
            let with = |n: usize| {
                let headers: String = (0..n).map(|i| format!("X-H{i}: {i}{eol}")).collect();
                format!("GET / HTTP/1.1{eol}{headers}{eol}")
            };
            let req = parse(&with(MAX_HEADERS)).unwrap();
            assert_eq!(req.headers.len(), MAX_HEADERS, "{eol:?}");
            let last = MAX_HEADERS - 1;
            assert_eq!(req.header(&format!("x-h{last}")), Some(last.to_string().as_str()));
            assert_eq!(refusal(&with(MAX_HEADERS + 1)), "too many headers", "{eol:?}");
        }
    }

    /// Header names are trimmed and lowercased, values trimmed; a name or
    /// value that is not UTF-8 is read lossily rather than refused.
    #[test]
    fn header_names_are_lowercased_and_both_sides_trimmed() {
        let req = parse("GET / HTTP/1.1\r\n  X-Mixed-CASE \t:  a b \t\r\nHost:x\r\n\r\n").unwrap();
        assert_eq!(req.headers, [("x-mixed-case".into(), "a b".into()), ("host".into(), "x".into())]);
        let raw = b"GET / HTTP/1.1\r\nX-\xffName: v\xfe\r\n\r\n";
        let req = read_request(&mut BufReader::new(&raw[..])).unwrap();
        assert_eq!(req.headers, [("x-\u{fffd}name".into(), "v\u{fffd}".into())]);
    }

    #[test]
    fn response_roundtrip_shape() {
        let mut out = Vec::new();
        let resp = Response::json(200, "{\"ok\":true}".into())
            .with_header("Retry-After", "1".into());
        write_response(&mut out, &resp, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
    }

    /// A writer that records its bytes and counts the `write` calls made.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn response_goes_out_in_one_write() {
        let body = "{\"dataset\":\"taxi\",\"regions\":[]}".repeat(100);
        let resp = Response::json(503, body.clone()).with_header("Retry-After", "2".into());
        for keep_alive in [true, false] {
            let mut out = CountingWriter::default();
            write_response(&mut out, &resp, keep_alive).unwrap();
            assert_eq!(out.writes, 1, "head and body in one write");
            let connection = if keep_alive { "keep-alive" } else { "close" };
            let expected = format!(
                "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\nConnection: {connection}\r\nRetry-After: 2\r\n\r\n{body}",
                body.len()
            );
            assert_eq!(String::from_utf8(out.bytes).unwrap(), expected);
        }
    }

    #[test]
    fn error_envelope_escapes() {
        let r = Response::error(400, "bad \"thing\"\n");
        let body = String::from_utf8(r.body).unwrap();
        assert!(urbane_geom::geojson::parse_json(&body).is_ok(), "{body}");
    }
}
