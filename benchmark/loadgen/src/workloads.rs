//! The five analyst workloads: what each sends, and why it was chosen.
//!
//! `--seed` drives only the request sequence; the data seed is fixed. The
//! shape of every sequence (viewport sizes, levels, aggregates, brush
//! lengths) follows a fixed schedule and the seed moves positions and
//! jitter, so two seeds give different requests with the same mix of work.

use crate::rng::{Rng, Zipf};
use std::collections::VecDeque;
use std::fmt::Write;

/// Regions per pyramid level of the server's standard pyramid.
pub const REGIONS_PER_LEVEL: [usize; 3] = [5, 16, 64];

pub const DAY: i64 = 86_400;
/// Every generated dataset covers this many days.
pub const DAYS: i64 = 30;
/// `urbane-cli generate` starts its month at 2009-01-01T00:00:00Z; the
/// server's own synthetic catalog starts at 0.
pub const CLI_EPOCH: i64 = 1_230_768_000;

/// The NYC extent of the synthetic city in Web-Mercator metres, re-derived
/// here from lon −74.05…−73.70, lat 40.54…40.92 (and self-checked against
/// the server in warm-up: a whole-extent `bbox` must lose no row).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Extent {
    pub x0: f64,
    pub y0: f64,
    pub x1: f64,
    pub y1: f64,
}

const EARTH_RADIUS_M: f64 = 6_378_137.0;

pub fn mercator(lon: f64, lat: f64) -> (f64, f64) {
    let x = EARTH_RADIUS_M * lon.to_radians();
    let y = EARTH_RADIUS_M
        * (std::f64::consts::FRAC_PI_4 + lat.to_radians() / 2.0)
            .tan()
            .ln();
    (x, y)
}

impl Extent {
    pub fn nyc() -> Extent {
        let (x0, y0) = mercator(-74.05, 40.54);
        let (x1, y1) = mercator(-73.70, 40.92);
        Extent { x0, y0, x1, y1 }
    }

    pub fn width(&self) -> f64 {
        self.x1 - self.x0
    }

    pub fn height(&self) -> f64 {
        self.y1 - self.y0
    }

    /// A viewport covering `fx × fy` of the extent, centred on `(cx, cy)`
    /// and shifted (never shrunk) to stay inside the extent.
    pub fn viewport(&self, cx: f64, cy: f64, fx: f64, fy: f64) -> Extent {
        let (w, h) = (self.width() * fx.min(1.0), self.height() * fy.min(1.0));
        let x0 = (cx - w / 2.0).clamp(self.x0, self.x1 - w);
        let y0 = (cy - h / 2.0).clamp(self.y0, self.y1 - h);
        Extent {
            x0,
            y0,
            x1: x0 + w,
            y1: y0 + h,
        }
    }
}

/// Where analysts look: the six activity centres of the synthetic city
/// plus two quiet outer points, as (lon, lat).
const ANCHORS: [(f64, f64); 8] = [
    (-73.985, 40.755), // Midtown
    (-74.008, 40.715), // Downtown
    (-73.987, 40.692), // Downtown Brooklyn
    (-73.945, 40.745), // Long Island City
    (-73.874, 40.774), // LGA
    (-73.786, 40.645), // JFK
    (-73.880, 40.850), // Bronx
    (-74.000, 40.600), // south shore
];

/// One request of a workload.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    Query { body: String, level: usize },
    Reload { body: String },
}

impl Op {
    pub fn body(&self) -> &str {
        match self {
            Op::Query { body, .. } | Op::Reload { body } => body,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct QuerySpec<'a> {
    dataset: &'a str,
    level: usize,
    agg: &'a str,
    mode: Option<&'a str>,
    bbox: Option<Extent>,
    time: Option<(i64, i64)>,
    range: Option<(&'a str, f64, f64)>,
    equals: Option<(&'a str, u32)>,
}

impl QuerySpec<'_> {
    fn op(&self) -> Op {
        let mut body = format!(
            "{{\"dataset\":\"{}\",\"level\":{},\"agg\":\"{}\"",
            self.dataset, self.level, self.agg
        );
        if let Some(mode) = self.mode {
            let _ = write!(body, ",\"mode\":\"{mode}\"");
        }
        let mut filters = Vec::new();
        if let Some(b) = self.bbox {
            filters.push(format!(
                "{{\"type\":\"bbox\",\"x0\":{:.3},\"y0\":{:.3},\"x1\":{:.3},\"y1\":{:.3}}}",
                b.x0, b.y0, b.x1, b.y1
            ));
        }
        if let Some((start, end)) = self.time {
            filters.push(format!(
                "{{\"type\":\"time\",\"start\":{start},\"end\":{end}}}"
            ));
        }
        if let Some((column, min, max)) = self.range {
            filters.push(format!(
                "{{\"type\":\"range\",\"column\":\"{column}\",\"min\":{min:.3},\"max\":{max:.3}}}"
            ));
        }
        if let Some((column, value)) = self.equals {
            filters.push(format!(
                "{{\"type\":\"equals\",\"column\":\"{column}\",\"value\":{value}}}"
            ));
        }
        if !filters.is_empty() {
            let _ = write!(body, ",\"filters\":[{}]", filters.join(","));
        }
        body.push('}');
        Op::Query {
            body,
            level: self.level,
        }
    }
}

/// The body of `op` re-issued under another execution mode (the audit's
/// exact references). Bodies are generated here, so the shape is known:
/// an optional `"mode"` follows `"agg"`.
pub fn with_mode(body: &str, mode: &str) -> String {
    let stripped = match body.find(",\"mode\":\"") {
        Some(at) => {
            let rest = &body[at + 9..];
            let end = rest.find('"').map_or(rest.len(), |e| e + 1);
            format!("{}{}", &body[..at], &rest[end..])
        }
        None => body.to_string(),
    };
    let at = stripped.find(",\"filters\"").unwrap_or(stripped.len() - 1);
    format!("{},\"mode\":\"{mode}\"{}", &stripped[..at], &stripped[at..])
}

/// The body of a query re-issued with another aggregate (the audit's
/// additive companions of an `avg`).
pub fn with_agg(body: &str, agg: &str) -> String {
    let start = body.find("\"agg\":\"").map_or(body.len(), |at| at + 7);
    let end = body[start..].find('"').map_or(body.len(), |e| start + e);
    format!("{}{agg}{}", &body[..start], &body[end..])
}

/// A workload: who it models, what it needs from the server, and its
/// request streams.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    PanZoom,
    FilterBrush,
    Dashboard,
    AccurateDrill,
    ColdIndex,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    pub why: &'static str,
    pub clients: usize,
    /// `--rows` of the server (per synthetic dataset).
    pub rows: usize,
    /// Rows of the cold `trips.ubs` built in set-up, if the workload has one.
    pub store_rows: Option<usize>,
    /// The dataset the extent self-check and the audit run against.
    pub dataset: &'static str,
}

pub const RESIDENT_ROWS: usize = 1_000_000;
pub const STORE_ROWS: usize = 2_000_000;

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        kind: Kind::PanZoom,
        name: "pan_zoom",
        why: "One analyst panning, zooming and drilling: every viewport is new, so raster-join, gpu-raster and bin pruning do all the work and the caches none.",
        clients: 1,
        rows: RESIDENT_ROWS,
        store_rows: None,
        dataset: "taxi",
    },
    Workload {
        kind: Kind::FilterBrush,
        name: "filter_brush",
        why: "Two analysts brushing ad-hoc filter conjunctions on the whole city: bins cannot prune, so filter masks and full 1M-point passes do the work, two at a time.",
        clients: 2,
        rows: RESIDENT_ROWS,
        store_rows: None,
        dataset: "taxi",
    },
    Workload {
        kind: Kind::Dashboard,
        name: "dashboard",
        why: "Many viewers of one dashboard (Zipf over 48 queries) beside periodic reloads: the exact-key cache, framing, parse and serialize do nearly all the work.",
        clients: 2,
        rows: RESIDENT_ROWS,
        store_rows: None,
        dataset: "taxi",
    },
    Workload {
        kind: Kind::AccurateDrill,
        name: "accurate_drill",
        why: "The paper's exact variant: drilling levels 0-2 under a moving 5-day window adds boundary-pixel fix-up and point-in-polygon tests to the raster passes.",
        clients: 1,
        rows: RESIDENT_ROWS,
        store_rows: None,
        dataset: "taxi",
    },
    Workload {
        kind: Kind::ColdIndex,
        name: "cold_index",
        why: "The index-join baseline on a cold 2M-row store: reader, footer pruning, packed R-tree and spatial-index do the work, no raster code runs, the data stays on disk.",
        clients: 1,
        rows: 1_000,
        store_rows: Some(STORE_ROWS),
        dataset: "trips",
    },
];

pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// How often the dashboard reloads: every `RELOAD_EVERY`th op of the
/// interleaved client sequences is `POST /reload`. At about 14 000 hits a
/// second that is one 60 ms reload (and the refill of the purged panels)
/// every second and a half: the write stays beside the reads (under a tenth
/// of the window) instead of becoming the workload.
pub const RELOAD_EVERY: usize = 20_000;
pub const RELOAD_ROWS: usize = 200_000;
pub const DASHBOARD_POOL: usize = 48;

impl Workload {
    /// Smoke scale: the same requests against a tiny catalog.
    pub fn quick(mut self) -> Workload {
        self.rows = 1_000;
        self.store_rows = self.store_rows.map(|_| 20_000);
        self
    }

    /// First second of the data the workload queries.
    pub fn epoch(&self) -> i64 {
        if self.store_rows.is_some() {
            CLI_EPOCH
        } else {
            0
        }
    }

    /// The endless request stream of one client.
    pub fn stream(&self, seed: u64, client: usize) -> Stream {
        Stream {
            workload: *self,
            rng: Rng::fork(seed, client as u64 + 1),
            client,
            issued: 0,
            gesture: 0,
            queue: VecDeque::new(),
            zipf: Zipf::new(DASHBOARD_POOL, 1.0),
            reloads: 0,
        }
    }

    /// Fixed requests sent before the timed window: they build the bins,
    /// region indexes and other lazy state the window's requests reuse.
    /// Their filters carry a marker second no stream generates, so they
    /// pre-fill no cache key of the window.
    pub fn warmup(&self) -> Vec<Op> {
        let marker = Some((self.epoch(), self.epoch() + DAYS * DAY + 1));
        let e = Extent::nyc();
        let (cx, cy) = mercator(ANCHORS[0].0, ANCHORS[0].1);
        let mut ops = Vec::new();
        for level in 0..3 {
            let base = QuerySpec {
                dataset: self.dataset,
                level,
                agg: "count",
                time: marker,
                ..Default::default()
            };
            match self.kind {
                Kind::PanZoom if level > 0 => ops.push(
                    QuerySpec {
                        agg: "avg:fare",
                        bbox: Some(e.viewport(cx, cy, 0.5, 0.5)),
                        ..base
                    }
                    .op(),
                ),
                Kind::PanZoom => {}
                Kind::FilterBrush => ops.push(
                    QuerySpec {
                        agg: "sum:fare",
                        range: Some(("distance", 0.5, 20.0)),
                        equals: Some(("passengers", 1)),
                        ..base
                    }
                    .op(),
                ),
                Kind::Dashboard => {
                    for dataset in ["taxi", "311", "crime"] {
                        ops.push(QuerySpec { dataset, ..base }.op());
                    }
                }
                Kind::AccurateDrill => ops.push(
                    QuerySpec {
                        mode: Some("accurate"),
                        ..base
                    }
                    .op(),
                ),
                Kind::ColdIndex => ops.push(
                    QuerySpec {
                        mode: Some("index"),
                        bbox: Some(e.viewport(cx, cy, 0.3, 0.3)),
                        ..base
                    }
                    .op(),
                ),
            }
        }
        ops
    }
}

pub struct Stream {
    workload: Workload,
    rng: Rng,
    client: usize,
    issued: usize,
    gesture: usize,
    queue: VecDeque<Op>,
    zipf: Zipf,
    reloads: u64,
}

impl Iterator for Stream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let op = match self.workload.kind {
            Kind::PanZoom => {
                if self.queue.is_empty() {
                    self.pan_zoom_gesture();
                }
                self.queue
                    .pop_front()
                    .expect("a gesture has at least one step")
            }
            Kind::FilterBrush => self.filter_brush(),
            Kind::Dashboard => self.dashboard(),
            Kind::AccurateDrill => self.accurate_drill(),
            Kind::ColdIndex => self.cold_index(),
        };
        self.issued += 1;
        Some(op)
    }
}

impl Stream {
    /// Anchor `nth` (the visiting order is part of the schedule, not of the
    /// seed), jittered by up to `jitter` of the extent.
    fn anchor(&mut self, nth: usize, jitter: f64) -> (f64, f64) {
        let e = Extent::nyc();
        let (lon, lat) = ANCHORS[nth % ANCHORS.len()];
        let (x, y) = mercator(lon, lat);
        (
            x + self.rng.range(-jitter, jitter) * e.width(),
            y + self.rng.range(-jitter, jitter) * e.height(),
        )
    }

    /// A brush of `len_days` starting on a seeded day, with a seeded second
    /// so no two brushes share a cache key.
    fn brush(&mut self, len_days: i64) -> (i64, i64) {
        let epoch = self.workload.epoch();
        let start = epoch + self.rng.below((DAYS - len_days + 1) as usize) as i64 * DAY;
        let wobble = self.rng.below(3_600) as i64;
        (start + wobble, start + len_days * DAY + wobble)
    }

    /// One gesture of the pan/zoom analyst: a pan sweep, a zoom ladder or a
    /// level drill, in turn, each under a brush that moves with the gesture.
    fn pan_zoom_gesture(&mut self) {
        let e = Extent::nyc();
        let g = self.gesture;
        self.gesture += 1;
        let (cx, cy) = self.anchor(g, 0.02);
        let time = Some(self.brush([3, 5, 7, 10][g % 4]));
        let base = QuerySpec {
            dataset: "taxi",
            agg: "avg:fare",
            time,
            ..Default::default()
        };
        let step = |level: usize, cx: f64, cy: f64, frac: f64, rng: &mut Rng| {
            // Jitter the size, not the place: a viewport pushed against the
            // city's edge is clamped, and would lose a jitter of its centre.
            let (jx, jy) = (rng.range(-0.01, 0.01), rng.range(-0.01, 0.01));
            let view = e.viewport(cx, cy, frac * (1.0 + jx), frac * (1.0 + jy));
            QuerySpec {
                level,
                bbox: Some(view),
                ..base
            }
            .op()
        };
        match g % 3 {
            0 => {
                // Pan: ten overlapping steps through the anchor along one of
                // eight compass directions, a new one each time round the anchors.
                let angle = ((g / 3 + g / 24) % 8) as f64 * std::f64::consts::FRAC_PI_4;
                let (dx, dy) = (
                    angle.cos() * 0.12 * 0.35 * e.width(),
                    angle.sin() * 0.12 * 0.35 * e.height(),
                );
                for k in 0..10 {
                    let t = k as f64 - 4.5;
                    let op = step(1, cx + t * dx, cy + t * dy, 0.35, &mut self.rng);
                    self.queue.push_back(op);
                }
            }
            1 => {
                // Zoom: from most of the city down to a neighbourhood,
                // switching to the finer level on the way in.
                for k in 0..9 {
                    let frac = 0.9 * 0.8f64.powi(k);
                    let op = step(if frac < 0.4 { 2 } else { 1 }, cx, cy, frac, &mut self.rng);
                    self.queue.push_back(op);
                }
            }
            _ => {
                // Drill: one viewport, flipping between levels 1 and 2.
                for k in 0..6 {
                    let op = step(1 + k % 2, cx, cy, 0.3, &mut self.rng);
                    self.queue.push_back(op);
                }
            }
        }
    }

    fn filter_brush(&mut self) -> Op {
        const AGGS: [&str; 6] = [
            "sum:fare",
            "avg:fare",
            "sum:tip",
            "avg:distance",
            "sum:distance",
            "avg:tip",
        ];
        const PASSENGERS: [u32; 8] = [1, 1, 2, 1, 3, 1, 5, 2];
        let i = self.issued;
        let time = Some(self.brush([4, 6, 8, 10][i % 4]));
        let range = if i.is_multiple_of(2) {
            (
                "fare",
                self.rng.range(2.5, 10.0),
                self.rng.range(15.0, 60.0),
            )
        } else {
            (
                "distance",
                self.rng.range(0.0, 2.0),
                self.rng.range(3.0, 15.0),
            )
        };
        QuerySpec {
            dataset: "taxi",
            level: i % 3,
            agg: AGGS[(i / 3) % AGGS.len()],
            time,
            range: Some(range),
            equals: Some(("passengers", PASSENGERS[(i / 2) % PASSENGERS.len()])),
            ..Default::default()
        }
        .op()
    }

    fn dashboard(&mut self) -> Op {
        // Position of this op in the interleaved order of all clients.
        let global = self.issued * self.workload.clients + self.client + 1;
        if global.is_multiple_of(RELOAD_EVERY) {
            self.reloads += 1;
            let seed = 100 + self.reloads;
            return Op::Reload {
                body: format!("{{\"dataset\":\"crime\",\"rows\":{RELOAD_ROWS},\"seed\":{seed}}}"),
            };
        }
        dashboard_query(self.zipf.draw(&mut self.rng))
    }

    fn accurate_drill(&mut self) -> Op {
        let (drill, level) = (self.issued / 3, self.issued % 3);
        if level == 0 {
            // A new drill: the 5-day window moves on by about six hours.
            let start =
                (drill as i64 * 6 * 3_600 + self.rng.below(3_600) as i64) % ((DAYS - 5) * DAY);
            self.queue.clear();
            for level in 0..3 {
                self.queue.push_back(
                    QuerySpec {
                        dataset: "taxi",
                        level,
                        agg: if drill % 2 == 0 { "count" } else { "sum:tip" },
                        mode: Some("accurate"),
                        time: Some((start, start + 5 * DAY)),
                        ..Default::default()
                    }
                    .op(),
                );
            }
        }
        self.queue.pop_front().expect("a drill has three levels")
    }

    fn cold_index(&mut self) -> Op {
        const AREA: [f64; 5] = [0.05, 0.10, 0.20, 0.30, 0.40];
        const AGGS: [&str; 3] = ["count", "sum:fare", "avg:fare"];
        let i = self.issued;
        let side = AREA[i % AREA.len()].sqrt();
        // Area and anchor both change with every op (5 and 8 share no
        // factor, so all 40 pairs come round), and any few consecutive ops
        // mix small and large, dense and quiet viewports.
        let (cx, cy) = self.anchor(3 * i, 0.03);
        let time = Some(self.brush([5, 10, 15, 30][(i / 15) % 4]));
        QuerySpec {
            dataset: "trips",
            level: i % 3,
            agg: AGGS[(i / 3) % AGGS.len()],
            mode: Some("index"),
            bbox: Some(Extent::nyc().viewport(cx, cy, side, side)),
            time,
            ..Default::default()
        }
        .op()
    }
}

/// Query `rank` of the dashboard's fixed pool: 16 panels (dataset,
/// aggregate, week) × 3 levels. The pool and its popularity order do not
/// depend on the seed, so every seed sees the same hot panels; datasets and
/// levels alternate down the ranks so no single one owns the head.
pub fn dashboard_query(rank: usize) -> Op {
    const PANELS: [(&str, &str, Option<i64>); 16] = [
        ("taxi", "count", None),
        ("311", "count", None),
        ("crime", "count", None),
        ("taxi", "avg:fare", Some(0)),
        ("311", "avg:response_hours", None),
        ("crime", "avg:severity", None),
        ("taxi", "sum:fare", Some(1)),
        ("311", "count", Some(0)),
        ("crime", "count", Some(0)),
        ("taxi", "avg:tip", None),
        ("311", "sum:response_hours", Some(1)),
        ("crime", "sum:severity", Some(1)),
        ("taxi", "sum:distance", Some(2)),
        ("311", "count", Some(2)),
        ("crime", "count", Some(2)),
        ("taxi", "count", Some(3)),
    ];
    let rank = rank % DASHBOARD_POOL;
    let panel = rank % PANELS.len();
    let (dataset, agg, week) = PANELS[panel];
    QuerySpec {
        dataset,
        level: (rank / PANELS.len() + panel) % 3,
        agg,
        time: week.map(|w| (w * 7 * DAY, (w + 1) * 7 * DAY)),
        ..Default::default()
    }
    .op()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn bodies(w: &Workload, seed: u64, client: usize, n: usize) -> Vec<String> {
        w.stream(seed, client)
            .take(n)
            .map(|op| op.body().to_string())
            .collect()
    }

    #[test]
    fn equal_seeds_are_byte_identical_and_seeds_differ() {
        for w in &WORKLOADS {
            assert_eq!(bodies(w, 5, 0, 300), bodies(w, 5, 0, 300), "{}", w.name);
            assert_ne!(bodies(w, 5, 0, 300), bodies(w, 6, 0, 300), "{}", w.name);
            if w.clients > 1 {
                assert_ne!(
                    bodies(w, 5, 0, 300),
                    bodies(w, 5, 1, 300),
                    "{} clients",
                    w.name
                );
            }
        }
    }

    #[test]
    fn viewports_stay_inside_the_extent_and_keep_their_size() {
        let e = Extent::nyc();
        let v = e.viewport(e.x0, e.y1, 0.4, 0.25);
        assert!(v.x0 >= e.x0 && v.y1 <= e.y1 + 1e-6);
        assert!((v.width() / e.width() - 0.4).abs() < 1e-9);
        assert!((v.height() / e.height() - 0.25).abs() < 1e-9);
        assert_eq!(e.viewport(0.0, 0.0, 1.0, 1.0), e);
        // About 30 km × 55 km of Mercator metres.
        assert!((25_000.0..60_000.0).contains(&e.width()));
        assert!((35_000.0..80_000.0).contains(&e.height()));
    }

    #[test]
    fn miss_workloads_never_repeat_a_body() {
        for name in ["pan_zoom", "filter_brush", "accurate_drill", "cold_index"] {
            let w = by_name(name).unwrap();
            let all = bodies(&w, 11, 0, 2_000);
            let distinct: BTreeSet<&String> = all.iter().collect();
            assert_eq!(distinct.len(), all.len(), "{name} repeats a request");
        }
    }

    #[test]
    fn filter_brush_sends_no_bbox_and_pan_zoom_always_does() {
        let w = by_name("filter_brush").unwrap();
        assert!(bodies(&w, 3, 1, 500).iter().all(|b| !b.contains("bbox")));
        assert!(w.warmup().iter().all(|op| !op.body().contains("bbox")));
        let w = by_name("pan_zoom").unwrap();
        assert!(bodies(&w, 3, 0, 500)
            .iter()
            .all(|b| b.contains("bbox") && b.contains("avg:fare")));
    }

    #[test]
    fn dashboard_pool_has_48_distinct_queries_and_reloads_on_schedule() {
        let pool: BTreeSet<String> = (0..DASHBOARD_POOL)
            .map(|r| dashboard_query(r).body().to_string())
            .collect();
        assert_eq!(pool.len(), DASHBOARD_POOL);
        let w = by_name("dashboard").unwrap();
        let mut reloads = 0;
        for client in 0..w.clients {
            for op in w.stream(9, client).take(3 * RELOAD_EVERY) {
                match op {
                    Op::Reload { body } => {
                        assert!(body.contains("\"crime\""));
                        reloads += 1;
                    }
                    Op::Query { body, .. } => assert!(pool.contains(&body)),
                }
            }
        }
        assert_eq!(reloads, 3 * w.clients);
    }

    #[test]
    fn mode_rewrite_replaces_or_inserts_the_mode() {
        let plain = r#"{"dataset":"taxi","level":1,"agg":"avg:fare","filters":[{"type":"time","start":1,"end":2}]}"#;
        assert_eq!(
            with_mode(plain, "index"),
            r#"{"dataset":"taxi","level":1,"agg":"avg:fare","mode":"index","filters":[{"type":"time","start":1,"end":2}]}"#
        );
        let moded = r#"{"dataset":"taxi","level":0,"agg":"count","mode":"accurate"}"#;
        assert_eq!(
            with_mode(moded, "index"),
            r#"{"dataset":"taxi","level":0,"agg":"count","mode":"index"}"#
        );
        assert_eq!(
            with_mode(&with_mode(plain, "index"), "accurate"),
            with_mode(plain, "accurate")
        );
        assert_eq!(
            with_agg(moded, "sum:tip"),
            r#"{"dataset":"taxi","level":0,"agg":"sum:tip","mode":"accurate"}"#
        );
        assert!(with_agg(plain, "count").contains(r#""agg":"count","filters""#));
    }

    #[test]
    fn levels_match_bodies_and_warmups_exist() {
        for w in &WORKLOADS {
            assert!(!w.warmup().is_empty(), "{}", w.name);
            for op in w.stream(1, 0).take(200) {
                if let Op::Query { body, level } = op {
                    assert!(body.contains(&format!("\"level\":{level},")), "{body}");
                    assert!(level < REGIONS_PER_LEVEL.len());
                }
            }
        }
    }
}
