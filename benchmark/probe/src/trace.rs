//! Spans: name, start, end, the span that caused it, and the request they
//! share. Kept in memory while the replay runs, written out at the end.

use std::collections::HashMap;
use std::fmt::Write;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    parent: Option<u32>,
    request: u32,
    start_ns: u64,
    end_ns: u64,
    /// Timed in a call of its own for the same query, not inside its parent.
    derived: bool,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

/// Where a request's time goes, over all replayed requests. The four mean
/// rows (parse, query self, executor, serialize) sum to the mean request.
pub struct Ledger {
    pub request_p50_ms: f64,
    pub parse_p50_ms: f64,
    pub serialize_p50_ms: f64,
    pub parse_mean_ms: f64,
    pub query_self_mean_ms: f64,
    pub executor_mean_ms: f64,
    pub serialize_mean_ms: f64,
    /// Share of the request spans their three children do not cover.
    pub gap_share: f64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        request: u32,
        derived: bool,
    ) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            request,
            start_ns,
            end_ns: start_ns,
            derived,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn begin(&mut self, name: &'static str, parent: Option<u32>, request: u32) -> u32 {
        self.push(name, parent, request, false)
    }

    pub fn begin_derived(&mut self, name: &'static str, parent: Option<u32>, request: u32) -> u32 {
        self.push(name, parent, request, true)
    }

    /// Close a span; its duration in milliseconds.
    pub fn end(&mut self, span: u32) -> f64 {
        self.spans[span as usize].end_ns = self.now_ns();
        self.duration_ms(span)
    }

    pub fn duration_ms(&self, span: u32) -> f64 {
        let s = &self.spans[span as usize];
        (s.end_ns - s.start_ns) as f64 / 1e6
    }

    pub fn ledger(&self) -> Ledger {
        let (mut roots, mut parse, mut query_self, mut executor, mut serialize) =
            (vec![], vec![], vec![], vec![], vec![]);
        let mut covered = 0.0;
        // Derived executor spans hang under an `urbane.query` span but are
        // recorded after the replay, far from it in the list.
        let derived: HashMap<u32, u32> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.derived)
            .filter_map(|(i, s)| Some((s.parent?, i as u32)))
            .collect();
        for (id, root) in self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == "request")
        {
            let child = |name: &str| {
                self.spans
                    .iter()
                    .enumerate()
                    .skip(id + 1)
                    .take_while(|(_, s)| s.request == root.request)
                    .find(|(_, s)| s.name == name && s.parent == Some(id as u32))
                    .map(|(i, _)| i as u32)
            };
            let dur = |span: Option<u32>| span.map_or(0.0, |s| self.duration_ms(s));
            let query = child("urbane.query");
            let exec = query.and_then(|q| derived.get(&q).copied());
            let (p, q, e, s) = (
                dur(child("serve.parse")),
                dur(query),
                dur(exec),
                dur(child("serve.serialize")),
            );
            roots.push(self.duration_ms(id as u32));
            parse.push(p);
            // A derived time can exceed the call it explains (it ran on
            // another day of the cache); self time does not go below zero.
            query_self.push((q - e).max(0.0));
            executor.push(e.min(q));
            serialize.push(s);
            covered += p + q + s;
        }
        let total: f64 = roots.iter().sum();
        Ledger {
            request_p50_ms: crate::median(&roots),
            parse_p50_ms: crate::median(&parse),
            serialize_p50_ms: crate::median(&serialize),
            parse_mean_ms: crate::mean(&parse),
            query_self_mean_ms: crate::mean(&query_self),
            executor_mean_ms: crate::mean(&executor),
            serialize_mean_ms: crate::mean(&serialize),
            gap_share: if total > 0.0 {
                (total - covered) / total
            } else {
                0.0
            },
        }
    }

    pub fn write(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = format!(
            "{{\"workload\":\"{workload}\",\"unit\":\"ns since the replay began\",\"spans\":[\n"
        );
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start\":{},\"end\":{},\"derived\":{}}}",
                s.request, s.name, s.start_ns, s.end_ns, s.derived
            );
            out.push_str(if id + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        std::fs::write(path, out)
    }
}
