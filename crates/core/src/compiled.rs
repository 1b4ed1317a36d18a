//! Query compilation: evaluate the filter set once per query, not once per
//! tile per point — and, on a clustered table, not once per row either.
//!
//! [`CompiledQuery`] hoists the filter work to query start: the conjunction
//! collapses into a shared bitmask, and every tile (on every worker thread)
//! answers "does row i survive the filters?" with a single bit test. The
//! aggregate value column is resolved once alongside, so kernels read
//! `column[i]` directly instead of gathering per-chunk `Vec<f32>` copies.
//!
//! The mask is built one *zone* ([`POINT_CHUNK`] rows) at a time. When the
//! table carries zone footers ([`PointTable::cluster`]) a [`ZonePlan`]
//! classifies each zone against the conjunction from its footer alone:
//!
//! * **skip** — the footer is disjoint from some condition, so no row of the
//!   zone can pass it: the zone's mask words stay zero, no row is read;
//! * **whole** — the footer lies inside every condition, so every row
//!   passes: the words are set, no row is read;
//! * **scan** — only the conditions the footer leaves undecided are
//!   evaluated row by row, so the order the client listed them in stops
//!   mattering.
//!
//! A table without footers is the same walk with every zone a scan. The
//! proof rules are [`ZoneFooter`]'s (half-open time range against a closed
//! footer, closed boxes and ranges); a zone holding a NaN is never *whole*,
//! because footer ranges leave NaN out (DESIGN.md "Row order is the query
//! plan"). Both exact index joins (`spatial_index`, resident and stored)
//! classify and mask their zones with the same plan.
//!
//! Kernels walk the rows through [`CompiledQuery::for_each_chunk`], which
//! additionally steps over zones whose bbox misses the tile and polls the
//! budget once per zone. [`PointStore`] pairs the table with an optional
//! [`BinnedPointTable`]; with bins the walk covers the tile's candidate rows
//! instead, sorted ascending — f32 blending is not associative, so feeding
//! each pixel its points in the same relative order as the full scan is
//! what keeps every path bit-identical.

use crate::bounded::POINT_CHUNK;
use crate::budget::QueryBudget;
use crate::Result;
use urban_data::binned::BinnedPointTable;
use urban_data::filter::Filter;
use urban_data::query::{AggKind, SpatialAggQuery};
use urban_data::schema::Schema;
use urban_data::time::TimeRange;
use urban_data::{PointTable, ZoneFooter};
use urbane_geom::{BoundingBox, Point};

/// One filter condition resolved against a schema.
#[derive(Debug)]
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

    /// Rows `start..end` of a resident table.
    pub fn of_table(t: &'a PointTable, start: usize, end: usize) -> Self {
        let (xs, ys, ts) = (&t.xs()[start..end], &t.ys()[start..end], &t.timestamps()[start..end]);
        ZoneColumns { xs, ys, ts, attrs: t.columns(), start }
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
/// so classifying a footer is pure arithmetic. The raster mask and both exact
/// index joins classify and filter their zones through one.
#[derive(Debug)]
pub struct ZonePlan {
    conds: Vec<Cond>,
    /// The resolved aggregate column (None for COUNT).
    pub agg_col: Option<usize>,
    /// A row outside this box contributes nothing (the regions' extent).
    extent: Option<BoundingBox>,
}

/// What a zone's footer proves about a [`ZonePlan`]'s conjunction.
#[derive(Debug)]
pub enum ZoneClass<'p> {
    /// No row can contribute: nothing is read.
    Skip,
    /// Every row passes every condition: none is tested.
    Whole,
    /// Some conditions are undecided and are tested row by row.
    Scan(Undecided<'p>),
}

/// The conditions a zone's footer left undecided, in request order.
#[derive(Debug)]
pub struct Undecided<'p>(Vec<&'p Cond>);

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

    /// Classify the rows `footer` covers (a zone's, or a `.ubs` chunk's);
    /// without a footer every condition is undecided.
    pub fn classify(&self, footer: Option<&ZoneFooter>) -> ZoneClass<'_> {
        if footer.zip(self.extent).is_some_and(|(f, e)| !e.intersects(&f.bbox)) {
            return ZoneClass::Skip;
        }
        let mut open = Vec::new();
        for cond in &self.conds {
            match footer.and_then(|f| cond.decide(f)) {
                Some(false) => return ZoneClass::Skip,
                Some(true) => {}
                None => open.push(cond),
            }
        }
        if open.is_empty() {
            ZoneClass::Whole
        } else {
            ZoneClass::Scan(Undecided(open))
        }
    }

    /// The columns a zone of `class` reads beside `x` and `y`: into `attrs`
    /// the aggregated one, then the undecided conditions'; the result says
    /// whether `t` is read (a time condition is undecided).
    pub fn reads(&self, class: &ZoneClass<'_>, attrs: &mut Vec<usize>) -> bool {
        attrs.clear();
        attrs.extend(self.agg_col);
        let ZoneClass::Scan(Undecided(open)) = class else {
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

impl ZoneClass<'_> {
    /// Set `words` (word `w` holds rows `64·w..64·w + 64` of `zone`) to the
    /// rows that pass: when scanned the first undecided condition fills the
    /// words and each further one clears the bits it rejects ([`Pass`]).
    pub fn mask(&self, zone: &ZoneColumns<'_>, words: &mut [u64]) {
        match self {
            ZoneClass::Skip => words.fill(0),
            ZoneClass::Whole => {
                words.fill(!0);
                let tail = zone.xs.len() % 64; // set only in a partial last word
                if let (Some(last), 1..) = (words.last_mut(), tail) {
                    *last = (1u64 << tail) - 1;
                }
            }
            ZoneClass::Scan(Undecided(open)) => {
                for (k, cond) in open.iter().enumerate() {
                    cond.scan(if k == 0 { Pass::Fill } else { Pass::Refine }, zone, words);
                }
            }
        }
    }
}

/// How one query's zones were classified while its filter mask was built
/// (all zero for a query without filters: nothing is classified).
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

impl ZoneStats {
    /// Count one zone of `rows` rows classified as `class`.
    pub fn count(&mut self, class: &ZoneClass<'_>, rows: usize) {
        match class {
            ZoneClass::Skip => self.skipped += 1,
            ZoneClass::Whole => self.whole += 1,
            ZoneClass::Scan(_) => {
                self.scanned += 1;
                self.rows_tested += rows as u64;
            }
        }
    }
}

/// Evaluate a filter conjunction into a bitmask, zone by zone.
fn build_mask(
    plan: &ZonePlan,
    points: &PointTable,
    budget: &QueryBudget,
) -> Result<(Vec<u64>, ZoneStats)> {
    let n = points.len();
    let footers = points.zones();
    let mut bits = vec![0u64; n.div_ceil(64)];
    let mut stats = ZoneStats::default();
    // POINT_CHUNK is a multiple of 64, so zone edges are word edges.
    for (z, words) in bits.chunks_mut(POINT_CHUNK / 64).enumerate() {
        budget.check()?;
        let start = z * POINT_CHUNK;
        let end = (start + POINT_CHUNK).min(n);
        let class = plan.classify(footers.get(z));
        stats.count(&class, end - start);
        class.mask(&ZoneColumns::of_table(points, start, end), words);
    }
    Ok((bits, stats))
}

/// A query compiled against one table: resolved aggregate column plus a
/// shared filter bitmask. Immutable after construction — share it freely
/// across tile workers.
pub(crate) struct CompiledQuery<'t> {
    /// The aggregate being computed.
    pub(crate) agg: AggKind,
    /// Resolved value column (None for COUNT).
    pub(crate) col: Option<usize>,
    /// How the zones were classified while the mask was built.
    pub(crate) zones: ZoneStats,
    /// The closed box every surviving row lies in: the intersection of the
    /// query's spatial filters (`None` without one). The gather skips the
    /// pixels no row inside it can be drawn on.
    pub(crate) bbox: Option<BoundingBox>,
    /// One bit per row, set when the row survives every filter. `None` when
    /// the query has no filters (everything matches — skip the bit tests).
    mask: Option<Vec<u64>>,
    rows: usize,
    /// The table's zone footers (empty for an unclustered table).
    footers: &'t [ZoneFooter],
}

impl<'t> CompiledQuery<'t> {
    /// Compile `query` against `points`, evaluating the filter set once.
    /// Polls `budget` while scanning so huge tables stay cancellable.
    pub(crate) fn new(
        points: &'t PointTable,
        query: &SpatialAggQuery,
        budget: &QueryBudget,
    ) -> Result<Self> {
        let plan = ZonePlan::new(points.schema(), query)?;
        let (mask, zones) = if query.filters.is_empty() {
            (None, ZoneStats::default())
        } else {
            let (bits, zones) = build_mask(&plan, points, budget)?;
            (Some(bits), zones)
        };
        let bbox = query.filters.filters().iter().fold(None, |acc: Option<BoundingBox>, f| match f {
            Filter::SpatialBox(b) => Some(acc.map_or(*b, |a| a.intersection(b))),
            _ => acc,
        });
        let (agg, col) = (query.agg_kind(), plan.agg_col);
        Ok(CompiledQuery { agg, col, zones, bbox, mask, rows: points.len(), footers: points.zones() })
    }

    /// Does row `i` survive the filters? One bit test after compilation.
    #[cfg(test)]
    fn matches(&self, i: usize) -> bool {
        match &self.mask {
            None => true,
            Some(bits) => bits[i >> 6] & (1u64 << (i & 63)) != 0,
        }
    }

    /// Fill `out` with the surviving rows of `start..end` (ascending): the
    /// set bits of each mask word, so a word of rejected rows costs one
    /// compare.
    fn select_range(&self, start: usize, end: usize, out: &mut Vec<u32>) {
        out.clear();
        let Some(bits) = &self.mask else {
            out.extend((start..end).map(|i| i as u32));
            return;
        };
        let mut base = start & !63;
        for &word in &bits[start >> 6..end.div_ceil(64)] {
            let mut pending = word;
            if base < start {
                pending &= !0u64 << (start - base);
            }
            if end - base < 64 {
                pending &= (1u64 << (end - base)) - 1;
            }
            while pending != 0 {
                out.push((base + pending.trailing_zeros() as usize) as u32);
                pending &= pending - 1;
            }
            base += 64;
        }
    }

    /// Fill `out` with the surviving rows of `candidates` (order preserved).
    fn select_from(&self, candidates: &[u32], out: &mut Vec<u32>) {
        out.clear();
        match &self.mask {
            None => out.extend_from_slice(candidates),
            Some(bits) => out.extend(
                candidates
                    .iter()
                    .copied()
                    .filter(|&i| bits[(i >> 6) as usize] & (1u64 << (i & 63)) != 0),
            ),
        }
    }

    /// Hand `f` the surviving rows that can land in a tile covering `world`,
    /// ascending, at most [`POINT_CHUNK`] at a time, polling `budget` before
    /// each chunk. Without bins a chunk is a zone, and a zone whose footer
    /// bbox misses `world` is stepped over — every row of it would be culled
    /// by the viewport projection anyway. (A zone holding a NaN coordinate is
    /// not: its box does not cover that row.) With bins the chunks are slices
    /// of the tile's candidate list instead.
    pub(crate) fn for_each_chunk(
        &self,
        store: &PointStore<'_>,
        world: &BoundingBox,
        budget: &QueryBudget,
        mut f: impl FnMut(&[u32]),
    ) -> Result<()> {
        let mut idx: Vec<u32> = Vec::with_capacity(POINT_CHUNK.min(self.rows));
        if let Some(candidates) = store.candidates(world) {
            for chunk in candidates.chunks(POINT_CHUNK) {
                budget.check()?;
                self.select_from(chunk, &mut idx);
                if !idx.is_empty() {
                    f(&idx);
                }
            }
            return Ok(());
        }
        for z in 0..self.rows.div_ceil(POINT_CHUNK) {
            budget.check()?;
            if self.footers.get(z).is_some_and(|f| !f.has_nan && !world.intersects(&f.bbox)) {
                continue;
            }
            let start = z * POINT_CHUNK;
            self.select_range(start, (start + POINT_CHUNK).min(self.rows), &mut idx);
            if !idx.is_empty() {
                f(&idx);
            }
        }
        Ok(())
    }
}

/// A point table plus its (optional) spatial bins — what tile kernels scan.
///
/// Construct with [`PointStore::plain`] for the classic full-scan path or
/// [`PointStore::with_bins`] to enable per-tile candidate pruning. The store
/// is `Copy`-cheap (two references) and shared across tile workers.
#[derive(Debug, Clone, Copy)]
pub struct PointStore<'a> {
    table: &'a PointTable,
    bins: Option<&'a BinnedPointTable>,
}

impl<'a> PointStore<'a> {
    /// A store that always scans the full table.
    pub fn plain(table: &'a PointTable) -> Self {
        PointStore { table, bins: None }
    }

    /// A store with spatial bins for per-tile pruning.
    ///
    /// # Panics
    /// Panics when `bins` was built over a different number of rows than
    /// `table` holds — a stale index would silently produce wrong answers.
    pub fn with_bins(table: &'a PointTable, bins: &'a BinnedPointTable) -> Self {
        assert_eq!(
            bins.len(),
            table.len(),
            "binned index covers {} rows but the table has {}",
            bins.len(),
            table.len()
        );
        PointStore { table, bins: Some(bins) }
    }

    /// The underlying table.
    #[inline]
    pub fn table(&self) -> &'a PointTable {
        self.table
    }

    /// Whether spatial bins are attached.
    pub fn is_binned(&self) -> bool {
        self.bins.is_some()
    }

    /// The candidate rows for a tile covering `world`, sorted ascending, or
    /// `None` when the kernel should scan all rows (no bins, the tile covers
    /// the whole grid, or pruning found nothing to drop). Candidates are a
    /// conservative superset — out-of-tile rows are still culled by the
    /// half-open viewport projection, exactly as in the full scan.
    pub(crate) fn candidates(&self, world: &BoundingBox) -> Option<Vec<u32>> {
        let bins = self.bins?;
        if bins.is_empty() || bins.covered_by(world) {
            return None;
        }
        let mut out = Vec::new();
        bins.candidates_into(world, &mut out);
        if out.len() == self.table.len() {
            return None;
        }
        // Cell-major → global index order: the blend order per pixel must
        // match the unbinned scan bit-for-bit.
        out.sort_unstable();
        Some(out)
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

    #[test]
    fn mask_agrees_with_direct_probing() {
        let t = table(500);
        let q = SpatialAggQuery::count().filter(Filter::Time(TimeRange::new(100, 400)));
        let cq = CompiledQuery::new(&t, &q, &QueryBudget::unlimited()).unwrap();
        let direct = q.filters.compile(&t).unwrap();
        for i in 0..t.len() {
            assert_eq!(cq.matches(i), direct.matches(i), "row {i}");
        }
        let mut out = Vec::new();
        cq.select_range(0, t.len(), &mut out);
        assert_eq!(out.len(), 300);
    }

    #[test]
    fn select_range_walks_set_bits_within_any_bounds() {
        let t = table(700);
        let q = SpatialAggQuery::count()
            .filter(Filter::AttrRange { column: "v".into(), min: 37.0, max: 611.0 })
            .filter(Filter::SpatialBox(BoundingBox::from_coords(0.0, 0.0, 60.0, 100.0)));
        let cq = CompiledQuery::new(&t, &q, &QueryBudget::unlimited()).unwrap();
        let mut out = Vec::new();
        for (start, end) in [(0, 700), (0, 64), (63, 65), (64, 128), (100, 100), (130, 699), (640, 700)] {
            cq.select_range(start, end, &mut out);
            let want: Vec<u32> = (start..end).filter(|&i| cq.matches(i)).map(|i| i as u32).collect();
            assert_eq!(out, want, "rows {start}..{end}");
        }
    }

    #[test]
    fn footers_decide_zones_and_leave_the_mask_unchanged() {
        use urban_data::time::DAY;
        // Four days of 8192 rows each: after clustering every zone is one day.
        let schema = Schema::new([("v", AttrType::Numeric)]).unwrap();
        let mut t = PointTable::new(schema);
        for i in 0..4 * POINT_CHUNK {
            let day = (i % 4) as i64;
            t.push(Point::new((i % 97) as f64, (i % 89) as f64), day * DAY + (i / 4) as i64, &[day as f32])
                .unwrap();
        }
        t.cluster();
        let q = SpatialAggQuery::count()
            .filter(Filter::Time(TimeRange::new(DAY, 3 * DAY)))
            .filter(Filter::AttrEquals { column: "v".into(), value: 1.0 })
            .filter(Filter::SpatialBox(BoundingBox::from_coords(0.0, 0.0, 96.0, 50.0)));
        let cq = CompiledQuery::new(&t, &q, &QueryBudget::unlimited()).unwrap();
        // Days 0 and 3 miss the time range, day 2 misses `v == 1`; day 1 is
        // inside both and is scanned for the box alone.
        assert_eq!(
            cq.zones,
            ZoneStats { skipped: 3, whole: 0, scanned: 1, rows_tested: POINT_CHUNK as u64 }
        );
        let direct = q.filters.compile(&t).unwrap();
        for i in 0..t.len() {
            assert_eq!(cq.matches(i), direct.matches(i), "row {i}");
        }
        let q = SpatialAggQuery::count().filter(Filter::Time(TimeRange::new(DAY, 2 * DAY)));
        let cq = CompiledQuery::new(&t, &q, &QueryBudget::unlimited()).unwrap();
        assert_eq!(cq.zones, ZoneStats { skipped: 3, whole: 1, scanned: 0, rows_tested: 0 });
        assert!((0..t.len()).all(|i| cq.matches(i) == (POINT_CHUNK..2 * POINT_CHUNK).contains(&i)));
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
        let cq = CompiledQuery::new(&t, &q, &QueryBudget::unlimited()).unwrap();
        assert_eq!(cq.zones, ZoneStats { skipped: 0, whole: 0, scanned: 1, rows_tested: 101 });
        assert_eq!((0..t.len()).filter(|&i| cq.matches(i)).count(), 100);
    }

    #[test]
    fn filterless_query_selects_everything() {
        let t = table(100);
        let cq = CompiledQuery::new(&t, &SpatialAggQuery::count(), &QueryBudget::unlimited())
            .unwrap();
        assert!(cq.matches(0) && cq.matches(99));
        let mut out = Vec::new();
        cq.select_range(10, 20, &mut out);
        assert_eq!(out, (10u32..20).collect::<Vec<_>>());
        cq.select_from(&[5, 3, 8], &mut out);
        assert_eq!(out, vec![5, 3, 8]);
    }

    #[test]
    fn candidates_sorted_and_pruning() {
        let t = table(5_000);
        let bins = BinnedPointTable::build(&t);
        let store = PointStore::with_bins(&t, &bins);
        // Whole-table window → full-scan signal.
        assert!(store.candidates(&t.bbox()).is_none());
        // Quarter window → sorted strict subset.
        let q = BoundingBox::from_coords(0.0, 0.0, 40.0, 40.0);
        let cand = store.candidates(&q).expect("should prune");
        assert!(cand.len() < t.len());
        assert!(cand.windows(2).all(|w| w[0] < w[1]), "candidates must be ascending");
        // Plain store never yields candidates.
        assert!(PointStore::plain(&t).candidates(&q).is_none());
    }

    #[test]
    #[should_panic(expected = "binned index covers")]
    fn stale_bins_rejected() {
        let a = table(100);
        let b = table(200);
        let bins = BinnedPointTable::build(&a);
        let _ = PointStore::with_bins(&b, &bins);
    }
}
