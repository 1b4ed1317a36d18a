//! Chunk-streamed reading of `.ubs` stores.
//!
//! [`ChunkedPointSource`] opens a store by parsing only the header (prelude
//! → sized header read → validated directory), then serves payload on
//! demand at three grains: one zone of one column
//! ([`ChunkedPointSource::read_zone`], what the stored join fetches — only
//! the columns a query still needs, only in the zones its footers could not
//! decide), one chunk as a table ([`ChunkedPointSource::read_chunk`]), or
//! everything ([`ChunkedPointSource::materialize`], one sequential sweep
//! that hands back a table already clustered, footers included). Reads are
//! bounds-checked (`read_exact` into sized buffers, ranges from
//! [`StoreHeader::column_range`], bulk length-checked decodes); there is no
//! mmap and no unsafe.
//!
//! A parsed header is shareable: [`ChunkedPointSource::with_header`] wraps
//! a fresh stream around an `Arc<StoreHeader>` read earlier, so a server
//! opens one file handle per query and parses nothing. That is sound only
//! while the file does not change under the header — a `.ubs` file is
//! immutable once written; replace a store by writing a new file and
//! registering it, never in place.

use crate::format::{self, Column, Columns, StoreHeader, PRELUDE_LEN};
use crate::{Result, StoreError};
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use urban_data::schema::Schema;
use urban_data::table::{PointTable, ZONE_ROWS};
use urbane_geom::BoundingBox;

/// Read accounting: the evidence that serving stayed out-of-core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadStats {
    /// Chunks any payload byte was fetched from (a run of fetches from one
    /// chunk counts it once).
    pub chunks_read: u64,
    /// Payload bytes fetched.
    pub bytes_read: u64,
    /// Most rows ever held by one fetch — bounded by the file's `chunk_rows`
    /// no matter the data-set size.
    pub peak_resident_rows: u32,
}

/// A `.ubs` store opened for reading.
#[derive(Debug)]
pub struct ChunkedPointSource<R> {
    inner: R,
    header: Arc<StoreHeader>,
    stats: ReadStats,
    /// The chunk the last fetch came from, already counted in `chunks_read`.
    counted: Option<usize>,
}

fn open_file(path: &Path) -> Result<File> {
    File::open(path).map_err(|e| StoreError::Io(format!("{}: {e}", path.display())))
}

impl ChunkedPointSource<File> {
    /// Open a store file, parsing and validating the header only.
    pub fn open(path: &Path) -> Result<Self> {
        Self::new(open_file(path)?)
    }

    /// Open a store file whose header was parsed before (and which has not
    /// changed since): a file handle, no read.
    pub fn open_with(path: &Path, header: Arc<StoreHeader>) -> Result<Self> {
        Ok(Self::with_header(open_file(path)?, header))
    }
}

impl ChunkedPointSource<std::io::Cursor<Vec<u8>>> {
    /// Open a store held in memory (tests, verification harnesses).
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self> {
        Self::new(std::io::Cursor::new(bytes))
    }
}

impl<R: Read + Seek> ChunkedPointSource<R> {
    /// Wrap any seekable byte stream holding a `.ubs` store.
    pub fn new(mut inner: R) -> Result<Self> {
        let stream_len = inner.seek(SeekFrom::End(0))?;
        inner.seek(SeekFrom::Start(0))?;

        // Check the magic from the first 4 bytes before anything else, so a
        // wrong-format file (e.g. a legacy `UPT1` table) reports Magic, not
        // a truncation artifact.
        let mut magic = [0u8; 4];
        inner
            .read_exact(&mut magic)
            .map_err(|_| StoreError::Corrupt("file shorter than the magic".into()))?;
        if &magic != format::MAGIC {
            return Err(StoreError::Magic { found: magic });
        }
        let mut rest = [0u8; PRELUDE_LEN - 4];
        inner
            .read_exact(&mut rest)
            .map_err(|_| StoreError::Corrupt("truncated prelude".into()))?;
        let mut v2 = [0u8; 2];
        v2.copy_from_slice(&rest[..2]);
        let version = u16::from_le_bytes(v2);
        if version != format::VERSION {
            return Err(StoreError::Version { found: version });
        }
        let mut off8 = [0u8; 8];
        off8.copy_from_slice(&rest[4..12]);
        let payload_off = u64::from_le_bytes(off8);
        if payload_off < PRELUDE_LEN as u64
            || payload_off > format::MAX_HEADER_BYTES
            || payload_off > stream_len
        {
            return Err(StoreError::Corrupt(format!("implausible payload offset {payload_off}")));
        }

        inner.seek(SeekFrom::Start(0))?;
        let mut head = vec![0u8; payload_off as usize];
        inner
            .read_exact(&mut head)
            .map_err(|_| StoreError::Corrupt("truncated header".into()))?;
        let header = format::decode_header(&head)?;

        // The directory is contiguous, so the last chunk's end is the file's
        // required length.
        let end = header
            .chunks
            .last()
            .map(|m| m.byte_off + header.chunk_bytes(m) as u64)
            .unwrap_or(header.payload_off);
        if end > stream_len {
            return Err(StoreError::Corrupt(format!(
                "payload needs {end} bytes but the stream holds {stream_len}"
            )));
        }
        Ok(Self::with_header(inner, Arc::new(header)))
    }

    /// Wrap a stream around the header parsed from it earlier. Nothing is
    /// read or re-validated: the stream must still hold the bytes that
    /// header describes (a fetch past its end is a typed error all the same).
    pub fn with_header(inner: R, header: Arc<StoreHeader>) -> Self {
        ChunkedPointSource { inner, header, stats: ReadStats::default(), counted: None }
    }

    /// The parsed header (schema, directory with its footers).
    #[inline]
    pub fn header(&self) -> &StoreHeader {
        &self.header
    }

    /// The parsed header, to keep beside the path for
    /// [`open_with`](ChunkedPointSource::open_with).
    #[inline]
    pub fn shared_header(&self) -> Arc<StoreHeader> {
        Arc::clone(&self.header)
    }

    /// Attribute schema of the stored table.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.header.schema
    }

    /// Total stored rows.
    #[inline]
    pub fn len(&self) -> u64 {
        self.header.n_rows
    }

    /// True when the store holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.header.n_rows == 0
    }

    /// Number of chunks.
    #[inline]
    pub fn n_chunks(&self) -> usize {
        self.header.chunks.len()
    }

    /// Bounding box over every stored point.
    #[inline]
    pub fn bbox(&self) -> BoundingBox {
        self.header.bbox
    }

    /// Accounting so far.
    #[inline]
    pub fn stats(&self) -> ReadStats {
        self.stats
    }

    /// Reset accounting (e.g. between queries).
    pub fn reset_stats(&mut self) {
        self.stats = ReadStats::default();
        self.counted = None;
    }

    /// Fetch `len` payload bytes of chunk `chunk` at `off` — `rows` rows'
    /// worth — into `buf`, accounted in [`ReadStats`].
    fn fetch(&mut self, chunk: usize, off: u64, len: usize, rows: usize, buf: &mut Vec<u8>) -> Result<()> {
        self.inner.seek(SeekFrom::Start(off))?;
        buf.resize(len, 0);
        self.inner
            .read_exact(buf)
            .map_err(|_| StoreError::Corrupt(format!("truncated payload for chunk {chunk}")))?;
        if self.counted != Some(chunk) {
            self.counted = Some(chunk);
            self.stats.chunks_read += 1;
        }
        self.stats.bytes_read += len as u64;
        self.stats.peak_resident_rows = self.stats.peak_resident_rows.max(rows as u32);
        Ok(())
    }

    /// Replace `out` with chunk-relative `rows` of one column of chunk
    /// `chunk`: one `seek` + `read_exact` of exactly that range into `bytes`,
    /// decoded in bulk.
    fn read_column<T>(
        &mut self,
        chunk: usize,
        col: Column,
        rows: Range<usize>,
        bytes: &mut Vec<u8>,
        out: &mut Vec<T>,
        bulk_decode: fn(&[u8], &mut Vec<T>) -> Result<()>,
    ) -> Result<()> {
        let n = rows.len();
        let (off, len) = self.header.column_range(chunk, col, rows)?;
        self.fetch(chunk, off, len, n, bytes)?;
        out.clear();
        bulk_decode(bytes, out)
    }

    /// Fetch zone `zone` of chunk `chunk` into `out`: `xs` and `ys` always,
    /// `ts` when `want_ts`, and the attribute columns listed in `attrs`
    /// (schema indices) — nothing else is read from the file.
    pub fn read_zone(
        &mut self,
        chunk: usize,
        zone: usize,
        want_ts: bool,
        attrs: &[usize],
        out: &mut Columns,
    ) -> Result<()> {
        let rows = match self.header.chunks.get(chunk) {
            Some(m) if zone < m.zones.len() => m.zone_rows(zone),
            _ => return Err(StoreError::Corrupt(format!("zone {zone} of chunk {chunk} out of range"))),
        };
        let bytes = &mut out.bytes;
        self.read_column(chunk, Column::X, rows.clone(), bytes, &mut out.xs, format::decode_f64s)?;
        self.read_column(chunk, Column::Y, rows.clone(), bytes, &mut out.ys, format::decode_f64s)?;
        if want_ts {
            self.read_column(chunk, Column::T, rows.clone(), bytes, &mut out.ts, format::decode_i64s)?;
        }
        out.attrs.resize_with(self.header.schema.len(), Vec::new);
        for &c in attrs {
            let col = out.attrs.get_mut(c).ok_or_else(|| {
                StoreError::Corrupt(format!("attribute column {c} out of range"))
            })?;
            self.read_column(chunk, Column::Attr(c), rows.clone(), bytes, col, format::decode_f32s)?;
        }
        Ok(())
    }

    /// Fetch and decode chunk `i` onto the end of `out`.
    fn read_chunk_into(&mut self, i: usize, out: &mut Columns) -> Result<()> {
        let (rows, byte_off, nbytes) = {
            let m = self
                .header
                .chunks
                .get(i)
                .ok_or_else(|| StoreError::Corrupt(format!("chunk {i} out of range")))?;
            (m.rows, m.byte_off, self.header.chunk_bytes(m))
        };
        let mut bytes = std::mem::take(&mut out.bytes);
        self.fetch(i, byte_off, nbytes, rows as usize, &mut bytes)?;
        format::decode_chunk_into(rows, &bytes, out)?;
        out.bytes = bytes;
        Ok(())
    }

    /// Fetch chunk `i` as a standalone [`PointTable`] (rows in file order,
    /// bbox recomputed, no zone footers). One chunk of residency, accounted
    /// in [`ReadStats`].
    pub fn read_chunk(&mut self, i: usize) -> Result<PointTable> {
        let rows = self.header.chunks.get(i).map_or(0, |m| m.rows as usize);
        let mut cols = Columns::with_capacity(self.header.schema.len(), rows);
        self.read_chunk_into(i, &mut cols)?;
        cols.into_table(self.header.schema.clone())
    }

    /// Rebuild the whole table with one sequential chunk sweep. This is the
    /// deliberate load-everything path (session catalogs that want an
    /// in-memory table); out-of-core consumers fetch zones instead. The rows
    /// come back in file order, which is [`PointTable::cluster`] order, with
    /// their zone footers: the directory's own when the file's chunks are
    /// whole zones, recomputed by `cluster` (which then moves no row)
    /// otherwise.
    pub fn materialize(&mut self) -> Result<PointTable> {
        let n = usize::try_from(self.header.n_rows)
            .map_err(|_| StoreError::Corrupt("row count exceeds address space".into()))?;
        let mut cols = Columns::with_capacity(self.header.schema.len(), n);
        // lint: allow(cancel-poll-reachability) residency promotion runs once per dataset, off the per-query path; chunk count comes from the validated header
        for i in 0..self.n_chunks() {
            self.read_chunk_into(i, &mut cols)?;
        }
        let mut table = cols.into_table(self.header.schema.clone())?;
        if (self.header.chunk_rows as usize).is_multiple_of(ZONE_ROWS) {
            let zones = self.header.chunks.iter().flat_map(|m| m.zones.iter().cloned()).collect();
            table.adopt_zones(zones)?;
        } else {
            table.cluster();
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::StoreBuilder;
    use urban_data::schema::{AttrType, Schema};
    use urbane_geom::Point;

    /// `n` scattered rows, `step` seconds apart.
    fn table_stepping(n: usize, step: usize) -> PointTable {
        let schema =
            Schema::new([("fare", AttrType::Numeric), ("kind", AttrType::Categorical)]).unwrap();
        let mut t = PointTable::new(schema);
        for i in 0..n {
            let x = (i.wrapping_mul(104_729) % 100_000) as f64 / 1_000.0;
            let y = (i.wrapping_mul(15_485_863) % 100_000) as f64 / 1_000.0;
            t.push(Point::new(x, y), (i * step) as i64, &[i as f32 * 0.5, (i % 5) as f32])
                .unwrap();
        }
        t
    }

    fn table(n: usize) -> PointTable {
        table_stepping(n, 37)
    }

    fn store_bytes(t: &PointTable, chunk_rows: usize) -> Vec<u8> {
        StoreBuilder::new().chunk_rows(chunk_rows).encode(t).unwrap()
    }

    #[test]
    fn roundtrip_materialize_is_hilbert_permuted_original() {
        // (day, Hilbert)-permuted: exactly what `cluster` makes of the input,
        // footers included, whether the directory's zones are adopted (chunks
        // of whole zones) or recomputed.
        let t = table(20_000);
        let mut clustered = t.clone();
        clustered.cluster();
        for (chunk_rows, n_chunks) in [(512, 40), (ZONE_ROWS, 3), (2 * ZONE_ROWS, 2)] {
            let mut src = ChunkedPointSource::from_bytes(store_bytes(&t, chunk_rows)).unwrap();
            assert_eq!(src.len(), 20_000);
            assert_eq!(src.n_chunks(), n_chunks);
            assert_eq!(src.bbox(), t.bbox());
            assert_eq!(src.materialize().unwrap(), clustered, "chunk_rows {chunk_rows}");
        }
    }

    #[test]
    fn chunk_at_a_time_stays_out_of_core() {
        let t = table(10_000);
        let mut src = ChunkedPointSource::from_bytes(store_bytes(&t, 256)).unwrap();
        let mut total_rows = 0u64;
        for i in 0..src.n_chunks() {
            total_rows += src.read_chunk(i).unwrap().len() as u64;
        }
        let stats = src.stats();
        assert_eq!(total_rows, 10_000);
        assert_eq!(stats.chunks_read, src.n_chunks() as u64);
        assert!(
            stats.peak_resident_rows <= 256,
            "peak residency {} exceeds chunk_rows",
            stats.peak_resident_rows
        );
    }

    #[test]
    fn footers_describe_their_chunks() {
        let t = table(20_000);
        let mut src = ChunkedPointSource::from_bytes(store_bytes(&t, 9_000)).unwrap();
        for i in 0..src.n_chunks() {
            let meta = src.header().chunks[i].clone();
            let chunk = src.read_chunk(i).unwrap();
            assert_eq!(chunk.len(), meta.rows as usize);
            assert_eq!(meta.zones.len(), chunk.len().div_ceil(ZONE_ROWS));
            // The chunk footer, then each zone's, against the rows they cover.
            let spans = std::iter::once((&meta.footer, 0..chunk.len()))
                .chain(meta.zones.iter().enumerate().map(|(z, f)| (f, meta.zone_rows(z))));
            for (f, rows) in spans {
                let bbox = BoundingBox::of_points(rows.clone().map(|r| chunk.loc(r)));
                assert_eq!(bbox, f.bbox, "chunk {i} rows {rows:?} bbox footer is wrong");
                let ts = &chunk.timestamps()[rows.clone()];
                assert_eq!(*ts.iter().min().unwrap(), f.t_min);
                assert_eq!(*ts.iter().max().unwrap(), f.t_max);
                for c in 0..2 {
                    let col = &chunk.column(c)[rows.clone()];
                    let lo = col.iter().copied().fold(f32::INFINITY, f32::min);
                    let hi = col.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                    assert_eq!(lo, f.attr_min[c]);
                    assert_eq!(hi, f.attr_max[c]);
                }
                assert!(!f.has_nan);
            }
        }
    }

    #[test]
    fn read_zone_fetches_only_what_was_asked_for() {
        let t = table(20_000);
        let mut src = ChunkedPointSource::from_bytes(store_bytes(&t, 9_000)).unwrap();
        let chunk = src.read_chunk(1).unwrap();
        src.reset_stats();
        let mut cols = Columns::default();
        // Zone 1 of chunk 1 is its last 808 rows.
        src.read_zone(1, 1, false, &[], &mut cols).unwrap();
        assert_eq!(cols.xs, &chunk.xs()[ZONE_ROWS..]);
        assert_eq!(cols.ys, &chunk.ys()[ZONE_ROWS..]);
        assert_eq!(src.stats().bytes_read, 16 * 808);
        src.read_zone(1, 0, true, &[1], &mut cols).unwrap();
        assert_eq!(cols.xs, &chunk.xs()[..ZONE_ROWS]);
        assert_eq!(cols.ts, &chunk.timestamps()[..ZONE_ROWS]);
        assert_eq!(cols.attrs[1], &chunk.column(1)[..ZONE_ROWS]);
        let stats = src.stats();
        assert_eq!(stats.bytes_read, 16 * 808 + 28 * ZONE_ROWS as u64);
        assert_eq!(stats.chunks_read, 1, "two zones of one chunk count the chunk once");
        assert_eq!(stats.peak_resident_rows as usize, ZONE_ROWS);
        // Out-of-range zones, chunks and columns are typed errors.
        for (chunk, zone, attrs) in [(1, 2, &[][..]), (3, 0, &[]), (0, 0, &[2])] {
            assert!(matches!(
                src.read_zone(chunk, zone, false, attrs, &mut cols),
                Err(StoreError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn window_pruning_is_a_superset() {
        // One day of rows: every zone is a run of the Hilbert curve.
        let t = table_stepping(40_000, 1);
        let mut src = ChunkedPointSource::from_bytes(store_bytes(&t, 2 * ZONE_ROWS)).unwrap();
        let window = BoundingBox::from_coords(20.0, 25.0, 45.0, 50.0);
        let mut zones = 0;
        let mut picked = 0;
        let mut matched_in_picked = 0usize;
        let mut cols = Columns::default();
        for i in 0..src.n_chunks() {
            let meta = src.header().chunks[i].clone();
            for (z, f) in meta.zones.iter().enumerate() {
                zones += 1;
                if f.decide_box(&window) == Some(false) {
                    assert_ne!(meta.footer.decide_box(&window), Some(true));
                    continue;
                }
                assert_ne!(meta.footer.decide_box(&window), Some(false), "a chunk covers its zones");
                picked += 1;
                src.read_zone(i, z, false, &[], &mut cols).unwrap();
                matched_in_picked += cols
                    .xs
                    .iter()
                    .zip(&cols.ys)
                    .filter(|(&x, &y)| window.contains(Point::new(x, y)))
                    .count();
            }
        }
        assert!(0 < picked && picked < zones, "a 6% window should rule out some of {zones} zones");
        // Every in-window point lives in a zone its footer did not rule out.
        let truth = (0..t.len()).filter(|&r| window.contains(t.loc(r))).count();
        assert_eq!(matched_in_picked, truth);
    }

    #[test]
    fn magic_and_version_mismatches_are_typed() {
        let t = table(64);
        let good = store_bytes(&t, 32);
        // Legacy binfmt bytes are not a store.
        let legacy = urban_data::binfmt::encode(&t);
        match ChunkedPointSource::from_bytes(legacy) {
            Err(StoreError::Magic { found }) => assert_eq!(&found, b"UPT1"),
            other => panic!("expected Magic error, got {other:?}"),
        }
        // Future version is a Version error, not corruption.
        let mut future = good.clone();
        future[4] = 0xFF;
        match ChunkedPointSource::from_bytes(future) {
            Err(StoreError::Version { found }) => assert_eq!(found, 0x00FF),
            other => panic!("expected Version error, got {other:?}"),
        }
        // So is the previous one: there is no second reader, and the message
        // says what to do about it.
        let mut v1 = good.clone();
        v1[4] = 1;
        match ChunkedPointSource::from_bytes(v1) {
            Err(e @ StoreError::Version { found: 1 }) => {
                assert!(e.to_string().contains("urbane-cli build-store"), "{e}")
            }
            other => panic!("expected Version error, got {other:?}"),
        }
        assert!(ChunkedPointSource::from_bytes(good).is_ok());
    }

    #[test]
    fn every_header_prefix_errs_not_panics() {
        let t = table(20_000);
        let bytes = store_bytes(&t, 9_000);
        let header_len = {
            let src = ChunkedPointSource::from_bytes(bytes.clone()).unwrap();
            assert!(src.header().chunks[0].zones.len() > 1, "the cuts must cross zone footers");
            src.header().payload_off as usize
        };
        for cut in 0..header_len {
            assert!(
                ChunkedPointSource::from_bytes(bytes[..cut].to_vec()).is_err(),
                "header prefix {cut} opened"
            );
            // The same cut with a prelude that owns up to it: the decoder
            // runs out of bytes mid-structure (mid zone footer, for most
            // cuts) and must say so.
            if cut >= PRELUDE_LEN {
                let mut head = bytes[..cut].to_vec();
                head[8..16].copy_from_slice(&(cut as u64).to_le_bytes());
                assert!(
                    matches!(format::decode_header(&head), Err(StoreError::Corrupt(_))),
                    "header cut at {cut} decoded"
                );
            }
        }
        // Truncated payload opens (header is intact) but fails on read.
        let mut src =
            ChunkedPointSource::from_bytes(bytes[..bytes.len() - 8].to_vec());
        assert!(src.is_err() || src.as_mut().is_ok_and(|s| {
            let last = s.n_chunks() - 1;
            s.read_chunk(last).is_err()
        }));
    }

    /// Offset of chunk `i`'s directory entry in a header written by the
    /// builder for `t`'s schema.
    fn dir_entry_off(h: &StoreHeader, i: usize) -> usize {
        let footer = 32 + 16 + 8 * h.schema.len() + 1;
        let dir_len: usize =
            h.chunks.iter().map(|m| 4 + 8 + 4 + (1 + m.zones.len()) * footer).sum();
        let before: usize =
            h.chunks[..i].iter().map(|m| 4 + 8 + 4 + (1 + m.zones.len()) * footer).sum();
        h.payload_off as usize - dir_len + before
    }

    #[test]
    fn corrupt_directory_rejected() {
        let t = table(20_000);
        let bytes = store_bytes(&t, 9_000);
        let header = ChunkedPointSource::from_bytes(bytes.clone()).unwrap().shared_header();
        assert_eq!(header.chunks.len(), 3);
        // Flipped bytes across the directory must never panic; they may error
        // or (for footer bytes) still open.
        for target in (40..header.payload_off as usize).step_by(7) {
            let mut bad = bytes.clone();
            bad[target] ^= 0xA5;
            let _ = ChunkedPointSource::from_bytes(bad);
        }
        let expect_corrupt = |bad: Vec<u8>, what: &str| match ChunkedPointSource::from_bytes(bad) {
            Err(StoreError::Corrupt(m)) => m,
            other => panic!("{what}: expected Corrupt, got {other:?}"),
        };
        let footer = 32 + 16 + 8 * 2 + 1;
        let entry = dir_entry_off(&header, 1);
        // Breaking a chunk offset specifically must be caught.
        let mut bad = bytes.clone();
        bad[entry + 4] ^= 0x01;
        assert!(expect_corrupt(bad, "chunk offset").contains("contiguous"));
        // A short chunk that is not the last one.
        let mut bad = bytes.clone();
        bad[entry..entry + 4].copy_from_slice(&8_999u32.to_le_bytes());
        assert!(expect_corrupt(bad, "short chunk").contains("row count"));
        // A zone count that is not ceil(rows / ZONE_ROWS), either way.
        for n_zones in [1u32, 3, u32::MAX] {
            let mut bad = bytes.clone();
            let at = entry + 12 + footer;
            bad[at..at + 4].copy_from_slice(&n_zones.to_le_bytes());
            assert!(expect_corrupt(bad, "zone count").contains("zones"));
        }
        // A NaN flag that is neither 0 nor 1.
        let mut bad = bytes.clone();
        bad[entry + 12 + footer - 1] = 7;
        assert!(expect_corrupt(bad, "NaN flag").contains("NaN flag"));
        // A chunk count the header is too short for: refused before anything
        // is allocated for it.
        let shape = dir_entry_off(&header, 0) - 32 - 4;
        let mut bad = bytes.clone();
        bad[shape..shape + 4].copy_from_slice(&(format::MAX_CHUNKS as u32).to_le_bytes());
        assert!(expect_corrupt(bad, "chunk count").contains("truncated chunk directory"));
    }

    #[test]
    fn column_ranges_stay_inside_their_chunk() {
        let t = table(20_000);
        let src = ChunkedPointSource::from_bytes(store_bytes(&t, 9_000)).unwrap();
        let h = src.header();
        let chunk1 = h.chunks[1].byte_off;
        assert_eq!(h.column_range(1, Column::X, 0..9_000).unwrap(), (chunk1, 72_000));
        assert_eq!(
            h.column_range(1, Column::Attr(1), 8_192..9_000).unwrap(),
            (chunk1 + 9_000 * 28 + 8_192 * 4, 808 * 4)
        );
        // The last column's last row ends exactly where the next chunk starts.
        let (off, len) = h.column_range(1, Column::Attr(1), 8_999..9_000).unwrap();
        assert_eq!(off + len as u64, h.chunks[2].byte_off);
        for (chunk, col, rows) in [
            (1, Column::X, 0..9_001),
            (2, Column::T, 1_999..2_001),
            (0, Column::Attr(2), 0..1),
            (3, Column::X, 0..1),
        ] {
            assert!(
                matches!(h.column_range(chunk, col, rows.clone()), Err(StoreError::Corrupt(_))),
                "chunk {chunk} {col:?} rows {rows:?}"
            );
        }
    }

    #[test]
    fn a_shared_header_opens_without_reading() {
        let t = table(5_000);
        let bytes = store_bytes(&t, 1_000);
        let mut first = ChunkedPointSource::from_bytes(bytes.clone()).unwrap();
        let header = first.shared_header();
        // A stream that would fail the header parse serves payload all the
        // same: nothing before the payload is read again.
        let mut payload_only = bytes.clone();
        payload_only[..header.payload_off as usize].fill(0);
        let mut second = ChunkedPointSource::with_header(std::io::Cursor::new(payload_only), header);
        assert_eq!(second.read_chunk(3).unwrap(), first.read_chunk(3).unwrap());
        // A stream shorter than the header promises is a typed error.
        let header = first.shared_header();
        let mut short = ChunkedPointSource::with_header(std::io::Cursor::new(bytes[..9_000].to_vec()), header);
        assert!(matches!(short.read_chunk(4), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn empty_store_roundtrips() {
        let t = PointTable::new(Schema::empty());
        let mut src = ChunkedPointSource::from_bytes(store_bytes(&t, 100)).unwrap();
        assert!(src.is_empty());
        assert_eq!(src.n_chunks(), 0);
        let back = src.materialize().unwrap();
        assert!(back.is_empty());
    }
}
