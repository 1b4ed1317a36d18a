//! An HTTP/1.1 keep-alive client: one request, one `Content-Length`
//! response. The server speaks exactly this subset.
//!
//! Sockets are non-blocking, so one thread can keep a request in flight on
//! each of several connections (`send`, then `try_recv` on each in turn) and
//! wait for answers by looking rather than by sleeping. A client that sleeps
//! in `read` halts its CPU between two 100 µs cache hits, and on a shared
//! host the wake-up then costs whatever the hypervisor charges that moment:
//! the `dashboard` throughput spread by a quarter between equal runs. Only
//! after `SPIN` without a byte does the thread sleep in `poll(2)`.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// No answer of the benchmark comes near this; a larger `Content-Length`
/// is refused instead of sizing an allocation.
const MAX_BODY: usize = 16 * 1024 * 1024;
/// Above the server's 2 s deadline ladder and every reload, so reaching it
/// means a wedged server, not a slow answer.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(60);
/// How long a waiting thread keeps looking before it sleeps. Longer than
/// any cache hit, far shorter than any computed answer.
pub const SPIN: Duration = Duration::from_millis(1);

pub struct Response {
    pub status: u16,
    pub body: String,
    /// First request byte written → last body byte read.
    pub latency: Duration,
}

pub struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    /// Bytes of the answer read so far.
    inbuf: Vec<u8>,
    /// When the request in flight was written, if there is one.
    sent: Option<Instant>,
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 1;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout_ms: i32) -> i32;
}

/// Sleep until one of `conns` has bytes to read, or `timeout` has passed.
pub fn wait_readable(conns: &[Conn], timeout: Duration) {
    let mut fds: Vec<PollFd> = conns
        .iter()
        .map(|c| PollFd {
            fd: c.stream.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        })
        .collect();
    // SAFETY: `fds` is a live, writable array of exactly the length passed;
    // the kernel writes only the `revents` fields. A failed or interrupted
    // call is the same to the caller as a timeout: it looks again.
    unsafe {
        poll(
            fds.as_mut_ptr(),
            fds.len() as std::ffi::c_ulong,
            timeout.as_millis().min(i32::MAX as u128) as i32,
        );
    }
}

fn bad(what: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

/// The status, header length and body length of the response `buf` starts
/// with, once its header block is complete.
fn parse_head(buf: &[u8]) -> io::Result<Option<(u16, usize, usize)>> {
    let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..end]).map_err(|_| bad("header is not UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad(format!("bad status line {status_line:?}")))?;
    let mut length = 0usize;
    for header in lines {
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad(format!("bad Content-Length {value:?}")))?;
            }
        }
    }
    if length > MAX_BODY {
        return Err(bad(format!("Content-Length {length} exceeds {MAX_BODY}")));
    }
    Ok(Some((status, end + 4, length)))
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            out: Vec::with_capacity(1024),
            inbuf: Vec::with_capacity(8 * 1024),
            sent: None,
        })
    }

    pub fn get(&mut self, path: &str) -> io::Result<Response> {
        self.send("GET", path, "")?;
        self.recv()
    }

    pub fn post(&mut self, path: &str, body: &str) -> io::Result<Response> {
        self.send("POST", path, body)?;
        self.recv()
    }

    /// Write one request. The connection carries one at a time.
    pub fn send(&mut self, method: &str, path: &str, body: &str) -> io::Result<()> {
        assert!(self.sent.is_none(), "a request is already in flight");
        self.out.clear();
        write!(
            self.out,
            "{method} {path} HTTP/1.1\r\nHost: urbane\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )?;
        let start = Instant::now();
        let mut written = 0;
        while written < self.out.len() {
            match self.stream.write(&self.out[written..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => written += n,
                // A request is far smaller than the socket buffer; if the
                // buffer is full all the same, it drains in microseconds.
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::hint::spin_loop(),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.sent = Some(start);
        Ok(())
    }

    /// The answer to the request in flight, if all of it has arrived.
    pub fn try_recv(&mut self) -> io::Result<Option<Response>> {
        let sent = self.sent.expect("no request is in flight");
        loop {
            if let Some((status, head, length)) = parse_head(&self.inbuf)? {
                if self.inbuf.len() >= head + length {
                    let latency = sent.elapsed();
                    let body = String::from_utf8(self.inbuf[head..head + length].to_vec())
                        .map_err(|_| bad("body is not UTF-8".into()))?;
                    self.inbuf.clear();
                    self.sent = None;
                    return Ok(Some(Response {
                        status,
                        body,
                        latency,
                    }));
                }
            }
            let filled = self.inbuf.len();
            self.inbuf.resize(filled + 16 * 1024, 0);
            let read = self.stream.read(&mut self.inbuf[filled..]);
            self.inbuf.truncate(filled + *read.as_ref().unwrap_or(&0));
            match read {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if sent.elapsed() > ANSWER_TIMEOUT {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "no answer within a minute",
                        ));
                    }
                    return Ok(None);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Wait for the answer to the request in flight.
    fn recv(&mut self) -> io::Result<Response> {
        let mut looking_since = Instant::now();
        loop {
            if let Some(response) = self.try_recv()? {
                return Ok(response);
            }
            if looking_since.elapsed() < SPIN {
                std::hint::spin_loop();
            } else {
                wait_readable(std::slice::from_ref(self), Duration::from_secs(1));
                looking_since = Instant::now();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heads_parse_once_complete() {
        assert_eq!(parse_head(b"HTTP/1.1 200 OK\r\nContent-").unwrap(), None);
        let full = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\ncontent-length: 12\r\n\r\n{\"a\":1}";
        let (status, head, length) = parse_head(full).unwrap().unwrap();
        assert_eq!((status, length), (200, 12));
        assert_eq!(&full[head..], b"{\"a\":1}");
        assert_eq!(
            parse_head(b"HTTP/1.1 429 Too Many Requests\r\n\r\n").unwrap(),
            Some((429, 34, 0))
        );
        assert!(parse_head(b"nonsense\r\n\r\n").is_err());
        assert!(parse_head(b"HTTP/1.1 200 OK\r\nContent-Length: 99999999999\r\n\r\n").is_err());
    }

    #[test]
    fn one_thread_keeps_two_connections_in_flight() {
        use std::io::{BufRead, BufReader};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // An echo of the request body, answered in two writes so the client
        // sees a partial response first.
        let serve = |mut stream: TcpStream| {
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            loop {
                let (mut line, mut length) = (String::new(), 0usize);
                loop {
                    line.clear();
                    if reader.read_line(&mut line).unwrap_or(0) == 0 {
                        return;
                    }
                    if let Some(v) = line.strip_prefix("Content-Length: ") {
                        length = v.trim().parse().unwrap();
                    }
                    if line == "\r\n" {
                        break;
                    }
                }
                let mut body = vec![0u8; length];
                reader.read_exact(&mut body).unwrap();
                let head = format!("HTTP/1.1 200 OK\r\nContent-Length: {length}\r\n\r\n");
                stream.write_all(head.as_bytes()).unwrap();
                std::thread::sleep(Duration::from_millis(2));
                stream.write_all(&body).unwrap();
            }
        };
        let server = std::thread::spawn(move || {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let (stream, _) = listener.accept().unwrap();
                    std::thread::spawn(move || serve(stream))
                })
                .collect();
            workers.into_iter().for_each(|w| w.join().unwrap());
        });
        let mut conns = [Conn::connect(addr).unwrap(), Conn::connect(addr).unwrap()];
        assert_eq!(conns[0].post("/query", "first").unwrap().body, "first");
        conns[0].send("POST", "/query", "left").unwrap();
        conns[1].send("POST", "/query", "right").unwrap();
        let mut answers = [None, None];
        while answers.iter().any(Option::is_none) {
            for (conn, answer) in conns.iter_mut().zip(&mut answers) {
                if answer.is_none() {
                    *answer = conn.try_recv().unwrap();
                }
            }
            wait_readable(&conns, Duration::from_millis(10));
        }
        let [left, right] = answers.map(|a| a.unwrap());
        assert_eq!((left.body.as_str(), right.body.as_str()), ("left", "right"));
        assert!(left.latency >= Duration::from_millis(2));
        drop(conns);
        server.join().unwrap();
    }
}
