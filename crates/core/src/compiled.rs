//! Query compilation and the one zone walk every executor filters rows
//! through: the raster point pass and both exact index joins.
//!
//! A [`ZonePlan`] resolves a query's conjunction and aggregate column
//! against a schema once. A [`ZoneWalk`] then classifies every *zone*
//! ([`ZONE_ROWS`] rows) of a [`ZoneSource`] once per query, from the zone's
//! footer alone (a resident table's [`PointTable::cluster`] footers, or a
//! `.ubs` directory's):
//!
//! * **skip** — the footer is disjoint from some condition (or from the
//!   plan's extent), so no row of the zone can pass: nothing is read;
//! * **whole** — the footer lies inside every condition, so every row
//!   passes: no row is tested;
//! * **scan** — only the conditions the footer leaves undecided are
//!   evaluated row by row, so the order the client listed them in stops
//!   mattering.
//!
//! A source without footers is the same walk with every zone a scan. The
//! proof rules are [`ZoneFooter`]'s (half-open time range against a closed
//! footer, closed boxes and ranges); a zone holding a NaN is never *whole*,
//! because footer ranges leave NaN out (DESIGN.md "Row order is the query
//! plan").
//!
//! [`ZoneWalk::run`] visits the zones in row order. Per zone it polls the
//! budget once, reads the columns the zone's class needs, masks the zone's
//! rows into at most `ZONE_ROWS / 64` reused words and hands the consumer
//! the zone's columns and the set bits ([`SetBits`]), ascending. A
//! [`Reach`] narrows the walk to what a consumer can use: a raster tile
//! steps over zones whose footer box misses it. Every consumer sees its rows
//! in table order — f32 blending is not associative, so feeding each pixel
//! its points in the same relative order as the full scan is what keeps
//! every path bit-identical.

use crate::budget::QueryBudget;
use crate::Result;
use urban_data::binned::BinnedPointTable;
use urban_data::filter::Filter;
use urban_data::query::{AggKind, SpatialAggQuery};
use urban_data::schema::Schema;
use urban_data::time::TimeRange;
use urban_data::{PointTable, ZoneFooter, ZONE_ROWS};
use urbane_geom::{BoundingBox, Point};

/// One filter condition resolved against a schema.
#[derive(Debug, Clone, Copy)]
enum Cond {
    /// Attribute in `[min, max]` (closed; NaN never matches).
    Range { col: usize, min: f32, max: f32 },
    /// Attribute equals a categorical code.
    Equals { col: usize, value: f32 },
    /// Timestamp within a half-open range.
    Time(TimeRange),
    /// Location within a closed box.
    Spatial(BoundingBox),
}

impl Cond {
    fn resolve(f: &Filter, schema: &Schema) -> Result<Cond> {
        Ok(match f {
            Filter::AttrRange { column, min, max } => {
                Cond::Range { col: schema.index_of(column)?, min: *min, max: *max }
            }
            Filter::AttrEquals { column, value } => {
                Cond::Equals { col: schema.index_of(column)?, value: *value }
            }
            Filter::Time(r) => Cond::Time(*r),
            Filter::SpatialBox(b) => Cond::Spatial(*b),
        })
    }

    /// What a zone's footer proves about this condition for *every* row of
    /// the zone (the rules live on [`ZoneFooter`]): `Some(false)` — none
    /// passes, `Some(true)` — all pass, `None` — the rows must be tested.
    #[inline]
    fn decide(&self, f: &ZoneFooter) -> Option<bool> {
        match self {
            Cond::Range { col, min, max } => f.decide_range(*col, *min, *max),
            Cond::Equals { col, value } => f.decide_equals(*col, *value),
            Cond::Time(range) => f.decide_time(range),
            Cond::Spatial(bbox) => f.decide_box(bbox),
        }
    }

    /// Run `pass` over the rows of `zone` with this condition's row test —
    /// [`Filter`]'s comparisons — compiled into the loop: the condition is
    /// matched once per zone, not once per row.
    fn scan(&self, pass: Pass, zone: &ZoneColumns<'_>, words: &mut [u64]) {
        match *self {
            Cond::Range { col, min, max } => {
                let vals = zone.attr(col);
                pass.run(words, vals.len(), |i| {
                    let v = vals[i];
                    v >= min && v <= max
                })
            }
            Cond::Equals { col, value } => {
                let vals = zone.attr(col);
                pass.run(words, vals.len(), |i| vals[i] == value)
            }
            Cond::Time(range) => {
                let ts = zone.ts;
                pass.run(words, ts.len(), |i| range.contains(ts[i]))
            }
            Cond::Spatial(bbox) => {
                let (xs, ys) = (zone.xs, zone.ys);
                pass.run(words, xs.len(), |i| bbox.contains(Point::new(xs[i], ys[i])))
            }
        }
    }
}

/// What a condition's scan of one zone does to the zone's mask words.
#[derive(Clone, Copy)]
enum Pass {
    /// Set each word to the rows that pass: the zone's first undecided
    /// condition, one store per 64 rows.
    Fill,
    /// Clear the set bits of the rows that fail: every further condition,
    /// so only surviving rows are probed again.
    Refine,
}

impl Pass {
    /// Apply this pass to the `n` rows of a zone, `test(i)` deciding the
    /// zone's `i`-th row; word `w` of `words` holds rows `64·w..64·w + 64`.
    #[inline(always)]
    fn run(self, words: &mut [u64], n: usize, test: impl Fn(usize) -> bool) {
        match self {
            Pass::Fill => {
                for (w, slot) in words.iter_mut().enumerate() {
                    let lo = w << 6;
                    let mut word = 0u64;
                    for i in lo..(lo + 64).min(n) {
                        word |= u64::from(test(i)) << (i & 63);
                    }
                    *slot = word;
                }
            }
            Pass::Refine => {
                for (w, slot) in words.iter_mut().enumerate() {
                    let mut word = *slot;
                    let mut pending = word;
                    while pending != 0 {
                        let b = pending.trailing_zeros() as usize;
                        if !test((w << 6) | b) {
                            word &= !(1u64 << b);
                        }
                        pending &= pending - 1;
                    }
                    *slot = word;
                }
            }
        }
    }
}

/// One zone's rows, column by column, borrowed: a resident table's slice or
/// a store's decoded zone. A class looks only at the columns
/// [`ZonePlan::reads`] names for it, so the others may be left unfilled.
#[derive(Debug, Clone, Copy)]
pub struct ZoneColumns<'a> {
    xs: &'a [f64],
    ys: &'a [f64],
    ts: &'a [i64],
    /// Whole attribute columns by schema index; the zone starts at `start`.
    attrs: &'a [Vec<f32>],
    start: usize,
}

impl<'a> ZoneColumns<'a> {
    /// Columns holding one zone's rows and nothing else.
    pub fn new(xs: &'a [f64], ys: &'a [f64], ts: &'a [i64], attrs: &'a [Vec<f32>]) -> Self {
        ZoneColumns { xs, ys, ts, attrs, start: 0 }
    }

    /// The zone's x and y coordinates; as long as the zone.
    #[inline]
    pub fn locs(&self) -> (&'a [f64], &'a [f64]) {
        (self.xs, self.ys)
    }

    /// The zone's values of attribute column `col`.
    #[inline]
    pub fn attr(&self, col: usize) -> &'a [f32] {
        &self.attrs[col][self.start..self.start + self.xs.len()]
    }
}

/// A query's conjunction and aggregate column resolved against a schema once,
/// so classifying a footer is pure arithmetic.
#[derive(Debug)]
pub struct ZonePlan {
    conds: Vec<Cond>,
    /// The resolved aggregate column (None for COUNT).
    agg_col: Option<usize>,
    /// A row outside this box contributes nothing (the regions' extent).
    extent: Option<BoundingBox>,
}

/// What a zone's footer proves about a [`ZonePlan`]'s conjunction.
#[derive(Debug)]
enum ZoneClass {
    /// No row can contribute: nothing is read.
    Skip,
    /// Every row passes every condition: none is tested.
    Whole,
    /// The conditions the footer left undecided, in request order, are
    /// tested row by row.
    Scan(Vec<Cond>),
}

impl ZonePlan {
    /// Resolve `query`'s aggregate column, then its filters: an unknown
    /// column fails whether zero or every zone would survive the footers.
    pub fn new(schema: &Schema, query: &SpatialAggQuery) -> Result<Self> {
        let agg_col = query.agg_kind().column().map(|c| schema.index_of(c)).transpose()?;
        let conds = query
            .filters
            .filters()
            .iter()
            .map(|f| Cond::resolve(f, schema))
            .collect::<Result<_>>()?;
        Ok(ZonePlan { conds, agg_col, extent: None })
    }

    /// The same plan, also skipping every zone whose footer box misses
    /// `extent`: an exact join's regions' extent, outside which no row (and
    /// no NaN location either, so `has_nan` is no bar) joins anything.
    pub fn within(self, extent: BoundingBox) -> Self {
        ZonePlan { extent: Some(extent), ..self }
    }

    /// Classify the rows `footer` covers; without a footer every condition
    /// is undecided.
    fn classify(&self, footer: Option<&ZoneFooter>) -> ZoneClass {
        if footer.zip(self.extent).is_some_and(|(f, e)| !e.intersects(&f.bbox)) {
            return ZoneClass::Skip;
        }
        let mut open = Vec::new();
        for cond in &self.conds {
            match footer.and_then(|f| cond.decide(f)) {
                Some(false) => return ZoneClass::Skip,
                Some(true) => {}
                None => open.push(*cond),
            }
        }
        if open.is_empty() {
            ZoneClass::Whole
        } else {
            ZoneClass::Scan(open)
        }
    }

    /// The columns a zone of `class` reads beside `x` and `y`: into `attrs`
    /// the aggregated one, then the undecided conditions'; the result says
    /// whether `t` is read (a time condition is undecided).
    fn reads(&self, class: &ZoneClass, attrs: &mut Vec<usize>) -> bool {
        attrs.clear();
        attrs.extend(self.agg_col);
        let ZoneClass::Scan(open) = class else {
            return false;
        };
        for cond in open {
            if let Cond::Range { col, .. } | Cond::Equals { col, .. } = cond {
                if !attrs.contains(col) {
                    attrs.push(*col);
                }
            }
        }
        open.iter().any(|c| matches!(c, Cond::Time(_)))
    }
}

impl ZoneClass {
    /// Set `words` (word `w` holds rows `64·w..64·w + 64` of `zone`) to the
    /// rows that pass: when scanned the first undecided condition fills the
    /// words and each further one clears the bits it rejects ([`Pass`]).
    fn mask(&self, zone: &ZoneColumns<'_>, words: &mut [u64]) {
        match self {
            ZoneClass::Skip => words.fill(0),
            ZoneClass::Whole => {
                words.fill(!0);
                let tail = zone.xs.len() % 64; // set only in a partial last word
                if let (Some(last), 1..) = (words.last_mut(), tail) {
                    *last = (1u64 << tail) - 1;
                }
            }
            ZoneClass::Scan(open) => {
                for (k, cond) in open.iter().enumerate() {
                    cond.scan(if k == 0 { Pass::Fill } else { Pass::Refine }, zone, words);
                }
            }
        }
    }
}

/// How one query's zones were classified. A query without filters takes
/// every zone whole.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ZoneStats {
    /// Zones a footer proved empty under the conjunction.
    pub skipped: u64,
    /// Zones a footer proved to pass every condition.
    pub whole: u64,
    /// Zones whose rows were tested (every zone of an unclustered table).
    pub scanned: u64,
    /// Rows of the scanned zones.
    pub rows_tested: u64,
}

/// Where a [`ZoneWalk`] reads its zones from, in row order: a resident
/// table's slices (`&PointTable`), or a `.ubs` store's zones fetched one
/// at a time (`spatial_index`'s stored join). Every zone holds at most
/// [`ZONE_ROWS`] rows.
pub trait ZoneSource {
    /// How many zones the source holds.
    fn zone_count(&self) -> usize;

    /// How many rows zone `z` holds.
    fn rows(&self, z: usize) -> usize;

    /// Zone `z`'s footer; `None` when the source keeps none.
    fn footer(&self, z: usize) -> Option<&ZoneFooter>;

    /// Zone `z`'s `x` and `y`, its `t` when `ts`, and the attribute columns
    /// `attrs` (schema indices); the other columns may be left unfilled.
    fn read(&mut self, z: usize, ts: bool, attrs: &[usize]) -> Result<ZoneColumns<'_>>;
}

/// A resident table's zones: every [`ZONE_ROWS`] rows, borrowed in place.
impl ZoneSource for &PointTable {
    fn zone_count(&self) -> usize {
        self.len().div_ceil(ZONE_ROWS)
    }

    fn rows(&self, z: usize) -> usize {
        ZONE_ROWS.min(self.len() - z * ZONE_ROWS)
    }

    fn footer(&self, z: usize) -> Option<&ZoneFooter> {
        self.zones().get(z)
    }

    fn read(&mut self, z: usize, _: bool, _: &[usize]) -> Result<ZoneColumns<'_>> {
        let (start, end) = (z * ZONE_ROWS, z * ZONE_ROWS + self.rows(z));
        let (xs, ys, ts) = (&self.xs()[start..end], &self.ys()[start..end], &self.timestamps()[start..end]);
        Ok(ZoneColumns { xs, ys, ts, attrs: self.columns(), start })
    }
}

/// The rows of a zone a walk's consumer can use, beside the plan's verdict.
#[derive(Debug, Clone, Copy)]
pub enum Reach<'a> {
    /// Every row: the exact joins (the plan's extent already skips zones).
    All,
    /// The rows of a tile covering this box: a zone whose footer box misses
    /// it is stepped over, since the viewport projection would cull every
    /// row. (A zone holding a NaN coordinate is not: its box does not cover
    /// that row.)
    Tile(&'a BoundingBox),
}

/// One query's walk over a source's zones: the plan, and every zone's class
/// computed once, for all the walks (tiles) of the query.
#[derive(Debug)]
pub struct ZoneWalk {
    plan: ZonePlan,
    classes: Vec<ZoneClass>,
    /// How the zones were classified.
    pub stats: ZoneStats,
}

impl ZoneWalk {
    /// Classify every zone of `source` under `plan`, counting the classes.
    pub fn new<S: ZoneSource>(plan: ZonePlan, source: &S) -> Self {
        let mut stats = ZoneStats::default();
        let classes = (0..source.zone_count())
            .map(|z| {
                let class = plan.classify(source.footer(z));
                match class {
                    ZoneClass::Skip => stats.skipped += 1,
                    ZoneClass::Whole => stats.whole += 1,
                    ZoneClass::Scan(_) => {
                        stats.scanned += 1;
                        stats.rows_tested += source.rows(z) as u64;
                    }
                }
                class
            })
            .collect();
        ZoneWalk { plan, classes, stats }
    }

    /// The plan's resolved aggregate column (None for COUNT).
    pub fn agg_col(&self) -> Option<usize> {
        self.plan.agg_col
    }

    /// Hand `visit(first, zone, rows)` every zone of `source` with a row
    /// that passes the plan and lies in `reach`, in row order: `first` is
    /// the zone's first row in the source, `rows` the zone-local indices of
    /// those rows, ascending. Polls `budget` once per zone, so a raised
    /// cancel flag or an elapsed deadline lands within one zone's work.
    pub fn run<S: ZoneSource>(
        &self,
        source: &mut S,
        reach: Reach<'_>,
        budget: &QueryBudget,
        mut visit: impl FnMut(usize, &ZoneColumns<'_>, SetBits<'_>),
    ) -> Result<()> {
        let mut words = [0u64; ZONE_ROWS / 64];
        let mut attrs = Vec::new();
        let mut end = 0;
        for (z, class) in self.classes.iter().enumerate() {
            budget.check()?;
            let first = end;
            end += source.rows(z);
            let reached = match reach {
                Reach::All => true,
                Reach::Tile(world) => {
                    source.footer(z).is_none_or(|f| f.has_nan || world.intersects(&f.bbox))
                }
            };
            if matches!(class, ZoneClass::Skip) || !reached {
                continue;
            }
            let ts = self.plan.reads(class, &mut attrs);
            let zone = source.read(z, ts, &attrs)?;
            let words = &mut words[..zone.xs.len().div_ceil(64)];
            class.mask(&zone, words);
            if words.iter().any(|&w| w != 0) {
                visit(first, &zone, SetBits::new(words));
            }
        }
        Ok(())
    }
}

/// The positions of a mask's set bits, ascending — the one walker over set
/// bits: word `w` holds positions `64·w..64·w + 64`.
#[derive(Debug, Clone)]
pub struct SetBits<'a> {
    words: &'a [u64],
    w: usize,
    pending: u64,
}

impl<'a> SetBits<'a> {
    /// Walk the set bits of `words`.
    pub fn new(words: &'a [u64]) -> Self {
        SetBits { words, w: 0, pending: words.first().copied().unwrap_or(0) }
    }
}

impl Iterator for SetBits<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.pending == 0 {
            self.w += 1;
            self.pending = *self.words.get(self.w)?;
        }
        let i = (self.w << 6) | self.pending.trailing_zeros() as usize;
        self.pending &= self.pending - 1;
        Some(i)
    }
}

/// A query compiled against one table: the aggregate, its resolved value
/// column and the table's zones classified once. Immutable after
/// construction.
pub(crate) struct CompiledQuery {
    /// The aggregate being computed.
    pub(crate) agg: AggKind,
    /// How the zones were classified.
    pub(crate) zones: ZoneStats,
    /// The closed box every surviving row lies in: the intersection of the
    /// query's spatial filters (`None` without one). The gather skips the
    /// pixels no row inside it can be drawn on.
    pub(crate) bbox: Option<BoundingBox>,
    /// The walk every tile's point pass takes.
    pub(crate) walk: ZoneWalk,
}

impl CompiledQuery {
    /// Compile `query` against `points`, classifying every zone once.
    pub(crate) fn new(points: &PointTable, query: &SpatialAggQuery) -> Result<Self> {
        let walk = ZoneWalk::new(ZonePlan::new(points.schema(), query)?, &points);
        let bbox = query.filters.filters().iter().fold(None, |acc: Option<BoundingBox>, f| match f {
            Filter::SpatialBox(b) => Some(acc.map_or(*b, |a| a.intersection(b))),
            _ => acc,
        });
        Ok(CompiledQuery { agg: query.agg_kind(), zones: walk.stats, bbox, walk })
    }
}

/// The point table a raster query draws, as the one-shot executors take
/// it. Which of its rows reach a tile is decided by its zone footers
/// ([`PointTable::cluster`]).
#[derive(Debug, Clone, Copy)]
pub struct PointStore<'a> {
    table: &'a PointTable,
}

impl<'a> PointStore<'a> {
    /// The store over `table`.
    pub fn plain(table: &'a PointTable) -> Self {
        PointStore { table }
    }

    /// Stand-in for `benchmark/probe`, which calls this name: nothing
    /// prunes by bins any more, so this is [`plain`](Self::plain). It goes
    /// in the next `benchmark` change.
    #[doc(hidden)]
    pub fn with_bins(table: &'a PointTable, _bins: &'a BinnedPointTable) -> Self {
        Self::plain(table)
    }

    /// The underlying table.
    #[inline]
    pub fn table(&self) -> &'a PointTable {
        self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use urban_data::filter::Filter;
    use urban_data::schema::{AttrType, Schema};
    use urban_data::time::TimeRange;
    use urbane_geom::Point;

    fn table(n: usize) -> PointTable {
        let schema = Schema::new([("v", AttrType::Numeric)]).unwrap();
        let mut t = PointTable::new(schema);
        for i in 0..n {
            let x = (i.wrapping_mul(104_729) % 1_000) as f64 / 10.0;
            let y = (i.wrapping_mul(15_485_863) % 1_000) as f64 / 10.0;
            t.push(Point::new(x, y), i as i64, &[i as f32]).unwrap();
        }
        t
    }

    /// The rows `cq`'s walk hands over under `reach`, as table rows.
    fn walked(t: &PointTable, cq: &CompiledQuery, reach: Reach<'_>) -> Vec<usize> {
        let mut rows = Vec::new();
        cq.walk
            .run(&mut &*t, reach, &QueryBudget::unlimited(), |first, _, bits| {
                rows.extend(bits.map(|i| first + i))
            })
            .unwrap();
        rows
    }

    /// The rows of `t` the filter oracle accepts.
    fn oracle(t: &PointTable, q: &SpatialAggQuery) -> Vec<usize> {
        let direct = q.filters.compile(t).unwrap();
        (0..t.len()).filter(|&i| direct.matches(i)).collect()
    }

    #[test]
    fn mask_agrees_with_direct_probing() {
        let t = table(500);
        let q = SpatialAggQuery::count().filter(Filter::Time(TimeRange::new(100, 400)));
        let cq = CompiledQuery::new(&t, &q).unwrap();
        let rows = walked(&t, &cq, Reach::All);
        assert_eq!(rows, oracle(&t, &q));
        assert_eq!(rows.len(), 300);
    }

    /// `SetBits` over a zone's words with the bits outside arbitrary row
    /// bounds cleared: exactly the surviving rows inside the bounds, in
    /// order, whether the bounds fall on, inside or across word edges.
    #[test]
    fn select_range_walks_set_bits_within_any_bounds() {
        let t = table(700);
        let q = SpatialAggQuery::count()
            .filter(Filter::AttrRange { column: "v".into(), min: 37.0, max: 611.0 })
            .filter(Filter::SpatialBox(BoundingBox::from_coords(0.0, 0.0, 60.0, 100.0)));
        let cq = CompiledQuery::new(&t, &q).unwrap();
        let survivors = oracle(&t, &q);
        assert_eq!(walked(&t, &cq, Reach::All), survivors);
        let mut words = vec![0u64; t.len().div_ceil(64)];
        let mut source = &t;
        cq.walk.classes[0].mask(&source.read(0, true, &[0]).unwrap(), &mut words);
        for (start, end) in [(0, 700), (0, 64), (63, 65), (64, 128), (100, 100), (130, 699), (640, 700)] {
            let bounded: Vec<u64> = words
                .iter()
                .enumerate()
                .map(|(w, &word)| {
                    let bit = |i: usize| u64::from((start..end).contains(&i)) << (i & 63);
                    word & (w * 64..w * 64 + 64).map(bit).fold(0, |a, b| a | b)
                })
                .collect();
            let got: Vec<usize> = SetBits::new(&bounded).collect();
            let want: Vec<usize> = survivors.iter().copied().filter(|i| (start..end).contains(i)).collect();
            assert_eq!(got, want, "rows {start}..{end}");
        }
        assert_eq!(SetBits::new(&[]).next(), None);
        assert_eq!(SetBits::new(&[0, 0, 1 << 63]).collect::<Vec<_>>(), [191]);
    }

    #[test]
    fn footers_decide_zones_and_leave_the_mask_unchanged() {
        use urban_data::time::DAY;
        // Four days of 8192 rows each: after clustering every zone is one day.
        let schema = Schema::new([("v", AttrType::Numeric)]).unwrap();
        let mut t = PointTable::new(schema);
        for i in 0..4 * ZONE_ROWS {
            let day = (i % 4) as i64;
            t.push(Point::new((i % 97) as f64, (i % 89) as f64), day * DAY + (i / 4) as i64, &[day as f32])
                .unwrap();
        }
        t.cluster();
        let q = SpatialAggQuery::count()
            .filter(Filter::Time(TimeRange::new(DAY, 3 * DAY)))
            .filter(Filter::AttrEquals { column: "v".into(), value: 1.0 })
            .filter(Filter::SpatialBox(BoundingBox::from_coords(0.0, 0.0, 96.0, 50.0)));
        let cq = CompiledQuery::new(&t, &q).unwrap();
        // Days 0 and 3 miss the time range, day 2 misses `v == 1`; day 1 is
        // inside both and is scanned for the box alone.
        assert_eq!(
            cq.zones,
            ZoneStats { skipped: 3, whole: 0, scanned: 1, rows_tested: ZONE_ROWS as u64 }
        );
        assert_eq!(walked(&t, &cq, Reach::All), oracle(&t, &q));
        let q = SpatialAggQuery::count().filter(Filter::Time(TimeRange::new(DAY, 2 * DAY)));
        let cq = CompiledQuery::new(&t, &q).unwrap();
        assert_eq!(cq.zones, ZoneStats { skipped: 3, whole: 1, scanned: 0, rows_tested: 0 });
        assert_eq!(walked(&t, &cq, Reach::All), (ZONE_ROWS..2 * ZONE_ROWS).collect::<Vec<_>>());
    }

    /// A NaN location fails every box, so a zone holding one is never
    /// *whole* under a box, even one around the zone's bbox (which leaves
    /// the NaN out). The projection culls such a row as well, so the mask is
    /// the only place this shows.
    #[test]
    fn nan_location_keeps_a_boxed_zone_scanned() {
        let mut t = table(100);
        t.push(Point::new(f64::NAN, 5.0), 0, &[1.0]).unwrap();
        t.cluster();
        let q = SpatialAggQuery::count()
            .filter(Filter::SpatialBox(BoundingBox::from_coords(-1.0, -1.0, 101.0, 101.0)));
        let cq = CompiledQuery::new(&t, &q).unwrap();
        assert_eq!(cq.zones, ZoneStats { skipped: 0, whole: 0, scanned: 1, rows_tested: 101 });
        assert_eq!(walked(&t, &cq, Reach::All).len(), 100);
    }

    #[test]
    fn filterless_query_selects_everything() {
        let n = 2 * ZONE_ROWS + 100;
        let t = table(n);
        let cq = CompiledQuery::new(&t, &SpatialAggQuery::count()).unwrap();
        assert_eq!(cq.zones, ZoneStats { skipped: 0, whole: 3, scanned: 0, rows_tested: 0 });
        assert_eq!(walked(&t, &cq, Reach::All), (0..n).collect::<Vec<_>>());
    }
}
