//! # urbane-serve — the HTTP serving layer
//!
//! A concurrent query server over [`urbane::UrbaneService`], std-only by
//! design (the workspace vendors its few dependencies and this crate adds
//! none). Architecture, socket to session:
//!
//! ```text
//! TcpListener ──► acceptor thread ──► bounded queue ──► worker pool
//!                      │ (full?)                            │
//!                      └─► 429 + Retry-After                ├─► HTTP parse
//!                                                           ├─► Router
//!                                                           └─► UrbaneService
//!                                                                 ├─ query cache
//!                                                                 └─ degradation ladder
//! ```
//!
//! Two control layers sit between the socket and the query engine:
//!
//! * **Admission control** — connections pass through a bounded queue into
//!   a fixed worker pool ([`pool`]). A full queue sheds immediately with
//!   `429 Too Many Requests` + a jittered `Retry-After`, written by the
//!   acceptor before the request is even read (cheap, legal, and honest:
//!   the server already knows it cannot serve promptly).
//! * **Deadlines** — each `/query` carries (or defaults) a wall-clock
//!   deadline that becomes the query's `QueryBudget`, so overload degrades
//!   answer fidelity (the PR-1 ladder) instead of stacking latency. On the
//!   read side, a total per-request budget ([`http::BudgetedStream`])
//!   defeats slow-loris clients that the per-read idle timeout alone would
//!   let pin a worker forever, and a request body is capped at
//!   [`http::MAX_BODY`].
//!
//! One process, one handler: the acceptor only admits or sheds, and each
//! worker's connection loop calls [`Router::handle`] directly.
//!
//! Endpoints: `POST /query`, `POST /reload`, `GET /datasets`,
//! `GET /healthz`, `GET /metrics`.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod client;
pub mod http;
pub mod metrics;
pub mod pool;
pub mod router;
pub mod wire;

pub use client::{Client, ClientResponse};
pub use metrics::{Metrics, Route};
pub use pool::WorkerPool;
pub use router::Router;

use http::{read_request, write_response, BudgetedStream, ReadError, Response};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use urbane::UrbaneService;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads.
    pub workers: usize,
    /// Bounded queue capacity — connections beyond `workers` busy +
    /// `queue_capacity` waiting are shed with 429.
    pub queue_capacity: usize,
    /// Per-read idle timeout: bounds how long an idle keep-alive
    /// connection may pin a worker between bytes.
    pub read_timeout: Duration,
    /// Total per-request read budget: once the first byte of a request
    /// arrives, the whole request (line + headers + body) must be read
    /// within this window — a trickling client cannot reset the clock
    /// byte by byte.
    pub read_budget: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_capacity: 32,
            read_timeout: Duration::from_secs(5),
            read_budget: Duration::from_secs(10),
        }
    }
}

/// Spread 429 `Retry-After` hints over `1..=4` seconds. A constant hint
/// synchronizes every shed client into a retry storm that re-saturates the
/// queue in lockstep; mixing the shed sequence number decorrelates them
/// deterministically (the acceptor is single-threaded, so replays see the
/// same sequence).
fn retry_after_secs(shed_seq: u64) -> u64 {
    let mut z = shed_seq.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    1 + ((z ^ (z >> 31)) % 4)
}

/// A running server: listener + acceptor + bounded queue + worker pool
/// around one [`Router`]. Dropping the handle does *not* stop it — call
/// [`shutdown`](Self::shutdown) (tests) or [`wait`](Self::wait) (binary).
pub struct UrbaneServer {
    addr: SocketAddr,
    pool: Arc<WorkerPool>,
    stopping: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl UrbaneServer {
    /// Bind, spawn the worker pool and the acceptor, and return. The
    /// returned handle is ready for traffic (`addr()` is connectable).
    pub fn start(config: ServerConfig, service: Arc<UrbaneService>) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let router = Arc::new(Router::new(service, Arc::new(Metrics::new())));
        let pool = Arc::new(WorkerPool::new(config.workers, config.queue_capacity));
        let stopping = Arc::new(AtomicBool::new(false));

        let acceptor = {
            let pool = Arc::clone(&pool);
            let stopping = Arc::clone(&stopping);
            std::thread::Builder::new()
                .name("urbane-serve-acceptor".into())
                .spawn(move || accept_loop(&listener, &router, &pool, &stopping, &config))?
        };

        Ok(UrbaneServer { addr, pool, stopping, acceptor: Some(acceptor) })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, drain the pool, and join every thread. In-flight
    /// requests finish (bounded by the read budget for idle keep-alives);
    /// queued-but-unstarted connections are closed.
    pub fn shutdown(mut self) {
        self.stopping.store(true, Ordering::SeqCst);
        // The acceptor is blocked in accept(); a self-connect wakes it so it
        // can observe the flag. A failure here means the listener is already
        // dead, which is fine.
        let _ = TcpStream::connect(self.addr);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        self.pool.shutdown();
    }

    /// Block until the acceptor exits (the binary's main loop; effectively
    /// forever — the process is stopped externally).
    pub fn wait(mut self) {
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    router: &Arc<Router>,
    pool: &Arc<WorkerPool>,
    stopping: &Arc<AtomicBool>,
    config: &ServerConfig,
) {
    for stream in listener.incoming() {
        if stopping.load(Ordering::SeqCst) {
            break;
        }
        let mut stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        router.metrics().observe_connection();
        let job = {
            let router = Arc::clone(router);
            let pool = Arc::clone(pool);
            let stopping = Arc::clone(stopping);
            let read_timeout = config.read_timeout;
            let read_budget = config.read_budget;
            let stream = match stream.try_clone() {
                Ok(s) => s,
                Err(_) => continue,
            };
            move || handle_connection(stream, &router, &pool, &stopping, read_timeout, read_budget)
        };
        if pool.try_submit(job).is_err() {
            // Shed before reading the request: the queue being full already
            // tells us we cannot serve promptly, and not reading keeps the
            // rejection O(1) regardless of request size.
            let metrics = router.metrics();
            let shed_seq = metrics.observe_shed();
            metrics.observe(Route::Other, 429, Duration::ZERO);
            let resp = Response::error(429, "server saturated, please retry")
                .with_header("Retry-After", retry_after_secs(shed_seq).to_string());
            let _ = write_response(&mut stream, &resp, false);
        }
    }
}

fn handle_connection(
    stream: TcpStream,
    router: &Router,
    pool: &WorkerPool,
    stopping: &AtomicBool,
    read_timeout: Duration,
    read_budget: Duration,
) {
    if stream.set_nodelay(true).is_err() {
        return;
    }
    let mut writer = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let metrics = router.metrics();
    let mut reader = BufReader::new(BudgetedStream::new(stream, read_timeout, read_budget));
    loop {
        let req = match read_request(&mut reader) {
            Ok(r) => r,
            // Peer hung up, or a read timeout/budget expiry/reset: nothing
            // useful to say (a slow-loris peer is not listening anyway).
            Err(ReadError::Eof) | Err(ReadError::Io(_)) => return,
            Err(ReadError::Malformed(m)) => {
                metrics.observe(Route::Other, 400, Duration::ZERO);
                let _ = write_response(&mut writer, &Response::error(400, &m), false);
                return;
            }
        };
        // The request is fully read: disarm its budget so the next
        // keep-alive request gets a fresh one.
        reader.get_mut().finish_request();
        let start = Instant::now();
        let route = router::route_of(&req.method, &req.path);
        let resp = router.handle(&req, pool.depth());
        let status = resp.status;
        let keep = !req.wants_close() && !stopping.load(Ordering::SeqCst);
        let write_ok = write_response(&mut writer, &resp, keep).is_ok();
        metrics.observe(route, status, start.elapsed());
        if !keep || !write_ok {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_after_jitter_spans_the_advertised_range() {
        let mut seen = std::collections::BTreeSet::new();
        for n in 0..64 {
            let s = retry_after_secs(n);
            assert!((1..=4).contains(&s), "Retry-After {s} out of 1..=4");
            seen.insert(s);
        }
        assert!(seen.len() >= 3, "jitter must actually vary: {seen:?}");
        assert_eq!(retry_after_secs(7), retry_after_secs(7), "deterministic per sequence number");
    }
}
