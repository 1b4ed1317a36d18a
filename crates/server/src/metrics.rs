//! Server metrics with a Prometheus-style text exposition.
//!
//! Counters and histograms the request loop updates on every exchange,
//! rendered by `GET /metrics`. The registry is deliberately simple: a
//! handful of atomics plus one mutex-guarded table of per-(route, status)
//! counters and per-route latency histograms — contention on it is one
//! short lock per completed request.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Fixed latency bucket upper bounds, in milliseconds. Spans sub-ms cache
/// hits through multi-second degraded queries.
pub const LATENCY_BUCKETS_MS: [u64; 12] =
    [1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000];

/// The routes the server distinguishes in metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Route {
    /// `POST /query`.
    Query,
    /// `GET /datasets`.
    Datasets,
    /// `GET /healthz`.
    Healthz,
    /// `GET /metrics`.
    MetricsPage,
    /// `POST /reload`.
    Reload,
    /// Anything else (404s, bad methods, malformed requests).
    Other,
}

impl Route {
    /// The label value used in the exposition.
    pub fn as_str(self) -> &'static str {
        match self {
            Route::Query => "/query",
            Route::Datasets => "/datasets",
            Route::Healthz => "/healthz",
            Route::MetricsPage => "/metrics",
            Route::Reload => "/reload",
            Route::Other => "other",
        }
    }
}

#[derive(Default)]
struct Histogram {
    /// One count per bucket in [`LATENCY_BUCKETS_MS`], plus +Inf at the end.
    buckets: Vec<u64>,
    count: u64,
    /// Sum of the observed latencies in µs, so that sub-millisecond
    /// requests add to it; rendered as fractional milliseconds.
    sum_us: u64,
}

impl Histogram {
    fn observe(&mut self, elapsed: Duration) {
        if self.buckets.is_empty() {
            self.buckets = vec![0; LATENCY_BUCKETS_MS.len() + 1];
        }
        // The exact duration against each edge: 1.5 ms is not `le="1"`.
        let idx = LATENCY_BUCKETS_MS
            .iter()
            .position(|&edge| elapsed <= Duration::from_millis(edge))
            .unwrap_or(LATENCY_BUCKETS_MS.len());
        // lint: capped-by `position` over the bucket edges, so at most their count: the +Inf slot
        self.buckets[idx] += 1;
        self.count += 1;
        let us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        self.sum_us = self.sum_us.saturating_add(us);
    }
}

#[derive(Default)]
struct Tables {
    /// (route, status) → completed-request count.
    requests: BTreeMap<(Route, u16), u64>,
    /// route → latency histogram.
    latency: BTreeMap<Route, Histogram>,
}

/// The server-wide metrics registry.
#[derive(Default)]
pub struct Metrics {
    tables: Mutex<Tables>,
    shed: AtomicU64,
    connections: AtomicU64,
}

impl Metrics {
    /// Fresh, all-zero registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Record one completed exchange.
    pub fn observe(&self, route: Route, status: u16, elapsed: Duration) {
        let mut t = self.tables.lock().unwrap_or_else(|p| p.into_inner());
        *t.requests.entry((route, status)).or_insert(0) += 1;
        t.latency.entry(route).or_default().observe(elapsed);
    }

    /// Record one shed (429 written by the acceptor). Returns the shed
    /// sequence number (0-based), which the acceptor mixes into the
    /// jittered `Retry-After` hint.
    pub fn observe_shed(&self) -> u64 {
        // lint: relaxed-ok monotone shed counter; nothing is published through it
        self.shed.fetch_add(1, Ordering::Relaxed)
    }

    /// Record one accepted connection.
    pub fn observe_connection(&self) {
        // lint: relaxed-ok monotone connection counter; nothing is published through it
        self.connections.fetch_add(1, Ordering::Relaxed);
    }

    /// Total requests shed so far.
    pub fn shed_total(&self) -> u64 {
        // lint: relaxed-ok counter read for tests/exposition only
        self.shed.load(Ordering::Relaxed)
    }

    /// Render the text exposition. The caller appends gauges that live
    /// elsewhere (queue depth, cache counters, guard outcomes).
    pub fn render(&self, out: &mut String) {
        use std::fmt::Write;
        let t = self.tables.lock().unwrap_or_else(|p| p.into_inner());

        out.push_str("# TYPE urbane_requests_total counter\n");
        for ((route, status), n) in &t.requests {
            let _ = writeln!(
                out,
                "urbane_requests_total{{path=\"{}\",status=\"{status}\"}} {n}",
                route.as_str()
            );
        }

        out.push_str("# TYPE urbane_request_latency_ms histogram\n");
        for (route, h) in &t.latency {
            let mut cumulative = 0u64;
            for (i, edge) in LATENCY_BUCKETS_MS.iter().enumerate() {
                cumulative += h.buckets[i];
                let _ = writeln!(
                    out,
                    "urbane_request_latency_ms_bucket{{path=\"{}\",le=\"{edge}\"}} {cumulative}",
                    route.as_str()
                );
            }
            cumulative += h.buckets[LATENCY_BUCKETS_MS.len()];
            let _ = writeln!(
                out,
                "urbane_request_latency_ms_bucket{{path=\"{}\",le=\"+Inf\"}} {cumulative}",
                route.as_str()
            );
            let _ = writeln!(
                out,
                "urbane_request_latency_ms_sum{{path=\"{}\"}} {}",
                route.as_str(),
                h.sum_us as f64 / 1e3
            );
            let _ = writeln!(
                out,
                "urbane_request_latency_ms_count{{path=\"{}\"}} {}",
                route.as_str(),
                h.count
            );
        }
        drop(t);

        let _ = writeln!(out, "# TYPE urbane_shed_total counter");
        // lint: relaxed-ok counter read for metrics exposition; scrape needs no ordering
        let _ = writeln!(out, "urbane_shed_total {}", self.shed.load(Ordering::Relaxed));
        let _ = writeln!(out, "# TYPE urbane_connections_total counter");
        let _ = writeln!(
            out,
            "urbane_connections_total {}",
            // lint: relaxed-ok counter read for metrics exposition; scrape needs no ordering
            self.connections.load(Ordering::Relaxed)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_counts_and_cumulative_buckets() {
        let m = Metrics::new();
        m.observe(Route::Query, 200, Duration::from_millis(3));
        m.observe(Route::Query, 200, Duration::from_millis(40));
        m.observe(Route::Query, 404, Duration::from_millis(0));
        m.observe_shed();
        let mut out = String::new();
        m.render(&mut out);
        assert!(out.contains("urbane_requests_total{path=\"/query\",status=\"200\"} 2"), "{out}");
        assert!(out.contains("urbane_requests_total{path=\"/query\",status=\"404\"} 1"), "{out}");
        // 3ms lands in le=5; cumulative counts include the 0ms 404.
        assert!(out.contains("urbane_request_latency_ms_bucket{path=\"/query\",le=\"5\"} 2"), "{out}");
        assert!(out.contains("urbane_request_latency_ms_bucket{path=\"/query\",le=\"+Inf\"} 3"), "{out}");
        assert!(out.contains("urbane_request_latency_ms_count{path=\"/query\"} 3"), "{out}");
        assert!(out.contains("urbane_shed_total 1"), "{out}");
    }

    #[test]
    fn a_fractional_millisecond_is_bucketed_by_its_exact_duration() {
        let m = Metrics::new();
        m.observe(Route::Query, 200, Duration::from_micros(1_500));
        let mut out = String::new();
        m.render(&mut out);
        assert!(out.contains("urbane_request_latency_ms_bucket{path=\"/query\",le=\"1\"} 0\n"), "{out}");
        assert!(out.contains("urbane_request_latency_ms_bucket{path=\"/query\",le=\"2\"} 1\n"), "{out}");
    }

    #[test]
    fn sub_millisecond_requests_add_to_the_sum() {
        let m = Metrics::new();
        for _ in 0..1_000 {
            m.observe(Route::Query, 200, Duration::from_micros(300));
        }
        let mut out = String::new();
        m.render(&mut out);
        assert!(out.contains("urbane_request_latency_ms_sum{path=\"/query\"} 300\n"), "{out}");
        assert!(out.contains("urbane_request_latency_ms_bucket{path=\"/query\",le=\"1\"} 1000\n"), "{out}");
    }

    #[test]
    fn overflow_latency_goes_to_inf_bucket() {
        let m = Metrics::new();
        m.observe(Route::Datasets, 200, Duration::from_secs(60));
        let mut out = String::new();
        m.render(&mut out);
        assert!(out.contains("urbane_request_latency_ms_bucket{path=\"/datasets\",le=\"5000\"} 0"), "{out}");
        assert!(out.contains("urbane_request_latency_ms_bucket{path=\"/datasets\",le=\"+Inf\"} 1"), "{out}");
    }
}
