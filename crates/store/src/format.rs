//! The `.ubs` binary layout (version 2): constants, header model,
//! bounds-checked codec.
//!
//! ```text
//! prelude   magic "UBS1" | u16 version | u16 reserved | u64 payload_off
//! schema    u32 n_cols | per col: u8 type, u16 name_len, name bytes
//! shape     u64 n_rows | u32 chunk_rows | u32 n_chunks | bbox 4×f64
//! directory per chunk: u32 rows | u64 byte_off | footer
//!                      | u32 n_zones | n_zones × footer
//! footer    bbox 4×f64 | i64 t_min | i64 t_max
//!           | per col: f32 min, f32 max | u8 has_nan
//! payload   per chunk at byte_off: xs f64[rows] | ys f64[rows]
//!           | ts i64[rows] | per col: f32[rows]
//! ```
//!
//! Rows are in [`PointTable::cluster`] order (day-major, Hilbert-minor). A
//! chunk is the unit of file layout and of read accounting; inside it one
//! footer per [`ZONE_ROWS`] rows (`n_zones` must equal
//! `ceil(rows / ZONE_ROWS)`) is the unit a query skips, takes whole or
//! scans — the [`ZoneFooter`] a resident table carries, so a chunk size that
//! is a multiple of `ZONE_ROWS` makes the directory's zones the table's own.
//! The chunk footer is the union of its zones'.
//!
//! `payload_off` doubles as the header length, so a reader can size the
//! header read from the 16-byte prelude alone. Chunks are laid out
//! contiguously in directory order immediately after the header — the
//! decoder *enforces* that (each `byte_off` must equal the previous chunk's
//! end), which kills every overlap/alias corruption class in one check, and
//! makes every column range of every zone a function of the directory
//! ([`StoreHeader::column_range`]). Everything is little-endian; every read
//! is bounds-checked through [`Cursor`] and surfaces a typed [`StoreError`],
//! mirroring `urban_data::binfmt`.

use crate::{Result, StoreError};
use std::ops::Range;
use urban_data::schema::{AttrType, Schema};
use urban_data::table::{PointTable, ZoneFooter, ZONE_ROWS};
use urbane_geom::{BoundingBox, Point};

/// File magic, distinct from the legacy in-memory `.bin` magic `UPT1`.
pub const MAGIC: &[u8; 4] = b"UBS1";

/// Supported format version. Version 1 (pure Hilbert order, chunk footers
/// only, a packed tree over the chunks) is refused: rebuild the file.
pub const VERSION: u16 = 2;

/// Prelude size: magic + version + reserved + payload_off.
pub const PRELUDE_LEN: usize = 16;

/// Hard caps keeping hostile headers from driving huge allocations.
pub const MAX_COLS: usize = 4096;
pub const MAX_CHUNKS: usize = 1 << 24;
pub const MAX_HEADER_BYTES: u64 = 1 << 28;

/// Per-chunk directory entry: where the payload lies and what is known of
/// its rows — chunk-wide and zone by zone — without touching it.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkMeta {
    /// Rows stored in this chunk (1..=chunk_rows).
    pub rows: u32,
    /// Absolute file offset of the chunk payload.
    pub byte_off: u64,
    /// Footer over every row of the chunk.
    pub footer: ZoneFooter,
    /// One footer per [`ZONE_ROWS`] rows of the chunk, in row order.
    pub zones: Vec<ZoneFooter>,
}

impl ChunkMeta {
    /// Chunk-relative rows of zone `z`.
    #[inline]
    pub fn zone_rows(&self, z: usize) -> Range<usize> {
        z * ZONE_ROWS..((z + 1) * ZONE_ROWS).min(self.rows as usize)
    }
}

/// One column of a chunk payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Column {
    /// `f64` x coordinates.
    X,
    /// `f64` y coordinates.
    Y,
    /// `i64` timestamps.
    T,
    /// `f32` attribute column, by schema index.
    Attr(usize),
}

/// Everything known about a store before reading any chunk payload.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreHeader {
    /// Attribute schema of the stored table.
    pub schema: Schema,
    /// Total rows across all chunks.
    pub n_rows: u64,
    /// Maximum rows per chunk (the builder's chunking knob).
    pub chunk_rows: u32,
    /// Bounding box over every stored point.
    pub bbox: BoundingBox,
    /// Chunk directory, in file (= cluster) order.
    pub chunks: Vec<ChunkMeta>,
    /// First payload byte == total header length.
    pub payload_off: u64,
}

impl StoreHeader {
    /// Bytes per row in a chunk payload.
    pub fn row_bytes(&self) -> usize {
        row_bytes(self.schema.len())
    }

    /// Payload size of one chunk.
    pub fn chunk_bytes(&self, meta: &ChunkMeta) -> usize {
        meta.rows as usize * self.row_bytes()
    }

    /// File offset and byte length of chunk-relative `rows` of `col` in
    /// chunk `chunk` — what a reader seeks to and fetches for one zone of one
    /// column. A range that leaves the chunk (or a column the schema does not
    /// have) is [`StoreError::Corrupt`], never a read into a neighbour.
    pub fn column_range(&self, chunk: usize, col: Column, rows: Range<usize>) -> Result<(u64, usize)> {
        let meta = self
            .chunks
            .get(chunk)
            .ok_or_else(|| StoreError::Corrupt(format!("chunk {chunk} out of range")))?;
        let n = meta.rows as usize;
        if rows.start > rows.end || rows.end > n {
            return Err(StoreError::Corrupt(format!(
                "rows {}..{} leave chunk {chunk} of {n} rows",
                rows.start, rows.end
            )));
        }
        // Columns before this one, in bytes per row, and this one's width.
        let (before, width) = match col {
            Column::X => (0, 8),
            Column::Y => (8, 8),
            Column::T => (16, 8),
            Column::Attr(c) if c < self.schema.len() => (24 + 4 * c, 4),
            Column::Attr(c) => {
                return Err(StoreError::Corrupt(format!("attribute column {c} out of range")))
            }
        };
        let off = meta.byte_off + (before * n + width * rows.start) as u64;
        Ok((off, width * (rows.end - rows.start)))
    }
}

/// Bytes per row for a schema of `n_cols` attributes: x, y, t + f32 columns.
pub fn row_bytes(n_cols: usize) -> usize {
    8 + 8 + 8 + 4 * n_cols
}

/// Serialized size of one footer.
fn footer_bytes(n_cols: usize) -> usize {
    32 + 8 + 8 + 8 * n_cols + 1
}

/// Serialized size of one directory entry apart from its footers.
const DIR_ENTRY_FIXED: usize = 4 + 8 + 4;

/// Total header length (== payload offset) for a store shape, computed
/// before any bytes exist so the writer can assign chunk offsets up front.
pub fn header_len(schema: &Schema, n_rows: usize, chunk_rows: usize) -> usize {
    let schema_bytes: usize =
        4 + schema.iter().map(|(name, _)| 1 + 2 + name.len()).sum::<usize>();
    let shape_bytes = 8 + 4 + 4 + 32;
    let chunk_rows = chunk_rows.max(1);
    let n_chunks = n_rows.div_ceil(chunk_rows);
    // Every chunk is full except possibly the last.
    let zones = (n_rows / chunk_rows) * chunk_rows.div_ceil(ZONE_ROWS)
        + (n_rows % chunk_rows).div_ceil(ZONE_ROWS);
    let dir_bytes = n_chunks * DIR_ENTRY_FIXED + (n_chunks + zones) * footer_bytes(schema.len());
    PRELUDE_LEN + schema_bytes + shape_bytes + dir_bytes
}

/// Serialize a header onto `out`. `h.payload_off` must equal
/// [`header_len`] for the same shape — the writer computes it that way.
pub fn encode_header(h: &StoreHeader, out: &mut Vec<u8>) {
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes());
    out.extend_from_slice(&h.payload_off.to_le_bytes());

    out.extend_from_slice(&(h.schema.len() as u32).to_le_bytes());
    for (name, ty) in h.schema.iter() {
        out.push(match ty {
            AttrType::Numeric => 0,
            AttrType::Categorical => 1,
        });
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
    }

    out.extend_from_slice(&h.n_rows.to_le_bytes());
    out.extend_from_slice(&h.chunk_rows.to_le_bytes());
    out.extend_from_slice(&(h.chunks.len() as u32).to_le_bytes());
    put_bbox(out, &h.bbox);

    for m in &h.chunks {
        out.extend_from_slice(&m.rows.to_le_bytes());
        out.extend_from_slice(&m.byte_off.to_le_bytes());
        put_footer(out, &m.footer);
        out.extend_from_slice(&(m.zones.len() as u32).to_le_bytes());
        for z in &m.zones {
            put_footer(out, z);
        }
    }
}

fn put_bbox(out: &mut Vec<u8>, b: &BoundingBox) {
    out.extend_from_slice(&b.min.x.to_le_bytes());
    out.extend_from_slice(&b.min.y.to_le_bytes());
    out.extend_from_slice(&b.max.x.to_le_bytes());
    out.extend_from_slice(&b.max.y.to_le_bytes());
}

fn put_footer(out: &mut Vec<u8>, f: &ZoneFooter) {
    put_bbox(out, &f.bbox);
    out.extend_from_slice(&f.t_min.to_le_bytes());
    out.extend_from_slice(&f.t_max.to_le_bytes());
    for (lo, hi) in f.attr_min.iter().zip(&f.attr_max) {
        out.extend_from_slice(&lo.to_le_bytes());
        out.extend_from_slice(&hi.to_le_bytes());
    }
    out.push(u8::from(f.has_nan));
}

/// Parse and validate a full header from exactly the first `payload_off`
/// bytes of a store. Rejects magic/version mismatches with their dedicated
/// variants and every structural inconsistency with [`StoreError::Corrupt`].
pub fn decode_header(buf: &[u8]) -> Result<StoreHeader> {
    let mut cur = Cursor::new(buf);
    let magic = cur.take(4, "magic")?;
    if magic != MAGIC {
        let mut found = [0u8; 4];
        found.copy_from_slice(magic);
        return Err(StoreError::Magic { found });
    }
    let version = cur.u16_le("version")?;
    if version != VERSION {
        return Err(StoreError::Version { found: version });
    }
    cur.u16_le("reserved")?;
    let payload_off = cur.u64_le("payload offset")?;
    if payload_off as usize != buf.len() {
        return Err(StoreError::Corrupt(format!(
            "payload offset {payload_off} does not match header slice of {} bytes",
            buf.len()
        )));
    }

    let n_cols = cur.u32_le("column count")? as usize;
    if n_cols > MAX_COLS {
        return Err(StoreError::Corrupt("implausible column count".into()));
    }
    let mut cols = Vec::with_capacity(n_cols);
    for _ in 0..n_cols {
        let ty = match cur.u8("column type")? {
            0 => AttrType::Numeric,
            1 => AttrType::Categorical,
            other => return Err(StoreError::Corrupt(format!("unknown column type {other}"))),
        };
        let name_len = cur.u16_le("column name length")? as usize;
        let name = cur.take(name_len, "column name")?;
        let name = String::from_utf8(name.to_vec())
            .map_err(|_| StoreError::Corrupt("column name not UTF-8".into()))?;
        cols.push((name, ty));
    }
    let schema = Schema::new(cols)?;

    let n_rows = cur.u64_le("row count")?;
    let chunk_rows = cur.u32_le("chunk rows")?;
    let n_chunks = cur.u32_le("chunk count")? as usize;
    if n_chunks > MAX_CHUNKS {
        return Err(StoreError::Corrupt("implausible chunk count".into()));
    }
    if n_chunks > 0 && chunk_rows == 0 {
        return Err(StoreError::Corrupt("chunk_rows is zero with chunks present".into()));
    }
    let bbox = cur.bbox("store bbox")?;

    // Every count read from here on is checked against the bytes that are
    // actually left before anything is allocated for it, so the header's own
    // length (capped at MAX_HEADER_BYTES by the reader) caps the allocation.
    let footer = footer_bytes(schema.len());
    if n_chunks.saturating_mul(DIR_ENTRY_FIXED + 2 * footer) > cur.remaining() {
        return Err(StoreError::Corrupt("truncated chunk directory".into()));
    }
    let width = row_bytes(schema.len()) as u64;
    let mut chunks = Vec::with_capacity(n_chunks);
    let mut expect_off = payload_off;
    let mut row_sum: u64 = 0;
    for i in 0..n_chunks {
        let rows = cur.u32_le("chunk row count")?;
        // Full chunks and one tail: zone z of chunk i is then a fixed run of
        // the table's rows, which is what lets a reader adopt these footers.
        if rows == 0 || rows > chunk_rows || (rows < chunk_rows && i + 1 < n_chunks) {
            return Err(StoreError::Corrupt(format!("chunk {i} has invalid row count {rows}")));
        }
        let byte_off = cur.u64_le("chunk offset")?;
        if byte_off != expect_off {
            return Err(StoreError::Corrupt(format!(
                "chunk {i} offset {byte_off} breaks contiguous layout (expected {expect_off})"
            )));
        }
        expect_off = byte_off
            .checked_add(rows as u64 * width)
            .ok_or_else(|| StoreError::Corrupt("chunk extent overflow".into()))?;
        row_sum += rows as u64;
        let chunk_footer = cur.footer(schema.len(), "chunk footer")?;
        let n_zones = cur.u32_le("zone count")? as usize;
        if n_zones != (rows as usize).div_ceil(ZONE_ROWS) {
            return Err(StoreError::Corrupt(format!(
                "chunk {i} of {rows} rows lists {n_zones} zones"
            )));
        }
        if n_zones * footer > cur.remaining() {
            return Err(StoreError::Corrupt(format!("truncated zone footers of chunk {i}")));
        }
        let mut zones = Vec::with_capacity(n_zones);
        for _ in 0..n_zones {
            zones.push(cur.footer(schema.len(), "zone footer")?);
        }
        chunks.push(ChunkMeta { rows, byte_off, footer: chunk_footer, zones });
    }
    if row_sum != n_rows {
        return Err(StoreError::Corrupt(format!(
            "directory rows {row_sum} disagree with header row count {n_rows}"
        )));
    }

    if cur.remaining() != 0 {
        return Err(StoreError::Corrupt(format!(
            "{} trailing bytes after header",
            cur.remaining()
        )));
    }
    Ok(StoreHeader { schema, n_rows, chunk_rows: chunk_rows.max(1), bbox, chunks, payload_off })
}

/// Serialize the payload of rows `rows` of `table` as one chunk: columnar,
/// each column one contiguous run.
pub fn encode_chunk(table: &PointTable, rows: Range<usize>, out: &mut Vec<u8>) {
    for v in &table.xs()[rows.clone()] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    for v in &table.ys()[rows.clone()] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    for v in &table.timestamps()[rows.clone()] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    for c in 0..table.schema().len() {
        for v in &table.column(c)[rows.clone()] {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// Append the values of one column's bytes to `out`, `W` bytes a value.
/// Length-checked: a byte run that is not a whole number of values is
/// [`StoreError::Corrupt`].
fn decode_column<T, const W: usize>(
    bytes: &[u8],
    out: &mut Vec<T>,
    from_le: impl Fn([u8; W]) -> T,
    what: &str,
) -> Result<()> {
    if !bytes.len().is_multiple_of(W) {
        return Err(StoreError::Corrupt(format!("truncated reading {what}")));
    }
    out.extend(bytes.chunks_exact(W).map(|v| {
        let mut a = [0u8; W];
        a.copy_from_slice(v);
        from_le(a)
    }));
    Ok(())
}

/// Append a run of little-endian `f64`s (an x or y column range) to `out`.
pub fn decode_f64s(bytes: &[u8], out: &mut Vec<f64>) -> Result<()> {
    decode_column(bytes, out, f64::from_le_bytes, "coordinate column")
}

/// Append a run of little-endian `i64`s (a timestamp column range) to `out`.
pub fn decode_i64s(bytes: &[u8], out: &mut Vec<i64>) -> Result<()> {
    decode_column(bytes, out, i64::from_le_bytes, "t column")
}

/// Append a run of little-endian `f32`s (an attribute column range) to `out`.
pub fn decode_f32s(bytes: &[u8], out: &mut Vec<f32>) -> Result<()> {
    decode_column(bytes, out, f32::from_le_bytes, "attribute column")
}

/// Decoded columns and the byte buffer they were fetched into: one zone of
/// the columns a query asked for (a query keeps one of these and every fetch
/// reuses its buffers), one chunk, or a whole table under construction.
#[derive(Debug, Default)]
pub struct Columns {
    pub xs: Vec<f64>,
    pub ys: Vec<f64>,
    pub ts: Vec<i64>,
    /// Attribute columns by schema index; a zone fetch fills only the ones
    /// it was asked for.
    pub attrs: Vec<Vec<f32>>,
    pub(crate) bytes: Vec<u8>,
}

impl Columns {
    /// Empty columns for `n_cols` attributes with room for `rows` rows.
    pub(crate) fn with_capacity(n_cols: usize, rows: usize) -> Self {
        Columns {
            xs: Vec::with_capacity(rows),
            ys: Vec::with_capacity(rows),
            ts: Vec::with_capacity(rows),
            attrs: (0..n_cols).map(|_| Vec::with_capacity(rows)).collect(),
            bytes: Vec::new(),
        }
    }

    /// Finish into a table (bbox recomputed, no zone footers).
    pub(crate) fn into_table(self, schema: Schema) -> Result<PointTable> {
        Ok(PointTable::from_columns(schema, self.xs, self.ys, self.ts, self.attrs)?)
    }
}

/// Decode one chunk payload (exactly `rows * row_bytes` bytes), column by
/// column in bulk, onto the end of `out`.
pub(crate) fn decode_chunk_into(rows: u32, buf: &[u8], out: &mut Columns) -> Result<()> {
    let rows = rows as usize;
    let n_cols = out.attrs.len();
    if buf.len() != rows * row_bytes(n_cols) {
        return Err(StoreError::Corrupt(format!(
            "chunk payload is {} bytes, expected {}",
            buf.len(),
            rows * row_bytes(n_cols)
        )));
    }
    let (xs, rest) = buf.split_at(8 * rows);
    let (ys, rest) = rest.split_at(8 * rows);
    let (ts, rest) = rest.split_at(8 * rows);
    decode_f64s(xs, &mut out.xs)?;
    decode_f64s(ys, &mut out.ys)?;
    decode_i64s(ts, &mut out.ts)?;
    if rows > 0 {
        // lint: allow(cancel-poll-reachability) one bulk decode per attribute column of one chunk; columns and rows are capped by decode_header validation
        for (col, bytes) in out.attrs.iter_mut().zip(rest.chunks_exact(4 * rows)) {
            decode_f32s(bytes, col)?;
        }
    }
    Ok(())
}

/// Bounds-checked little-endian reader over a byte slice (the same shape as
/// `binfmt`'s cursor, surfacing [`StoreError::Corrupt`] on truncation).
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(StoreError::Corrupt(format!("truncated reading {what}")));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self, what: &str) -> Result<u8> {
        match self.take(1, what)? {
            &[b] => Ok(b),
            _ => Err(StoreError::Corrupt(format!("truncated reading {what}"))),
        }
    }

    pub fn u16_le(&mut self, what: &str) -> Result<u16> {
        match self.take(2, what)? {
            &[a, b] => Ok(u16::from_le_bytes([a, b])),
            _ => Err(StoreError::Corrupt(format!("truncated reading {what}"))),
        }
    }

    pub fn u32_le(&mut self, what: &str) -> Result<u32> {
        match self.take(4, what)? {
            &[a, b, c, d] => Ok(u32::from_le_bytes([a, b, c, d])),
            _ => Err(StoreError::Corrupt(format!("truncated reading {what}"))),
        }
    }

    pub fn u64_le(&mut self, what: &str) -> Result<u64> {
        let b = self.take(8, what)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    pub fn f64_le(&mut self, what: &str) -> Result<f64> {
        Ok(f64::from_bits(self.u64_le(what)?))
    }

    pub fn i64_le(&mut self, what: &str) -> Result<i64> {
        Ok(self.u64_le(what)? as i64)
    }

    pub fn f32_le(&mut self, what: &str) -> Result<f32> {
        Ok(f32::from_bits(self.u32_le(what)?))
    }

    pub fn bbox(&mut self, what: &str) -> Result<BoundingBox> {
        let x0 = self.f64_le(what)?;
        let y0 = self.f64_le(what)?;
        let x1 = self.f64_le(what)?;
        let y1 = self.f64_le(what)?;
        Ok(BoundingBox { min: Point::new(x0, y0), max: Point::new(x1, y1) })
    }

    /// One footer of `n_cols` attribute ranges.
    pub fn footer(&mut self, n_cols: usize, what: &str) -> Result<ZoneFooter> {
        let bbox = self.bbox(what)?;
        let t_min = self.i64_le(what)?;
        let t_max = self.i64_le(what)?;
        let mut attr_min = Vec::with_capacity(n_cols);
        let mut attr_max = Vec::with_capacity(n_cols);
        for _ in 0..n_cols {
            attr_min.push(self.f32_le(what)?);
            attr_max.push(self.f32_le(what)?);
        }
        let has_nan = match self.u8(what)? {
            0 => false,
            1 => true,
            other => return Err(StoreError::Corrupt(format!("{what}: NaN flag is {other}"))),
        };
        Ok(ZoneFooter { bbox, t_min, t_max, attr_min, attr_max, has_nan })
    }
}
