//! Building `.ubs` stores: cluster once, chunk, footer, emit.
//!
//! The builder is fully deterministic — [`PointTable::cluster`] is a stable
//! function of the rows, chunking and layout are fixed — so rebuilding a
//! store from the same table yields byte-identical files (CI byte-compares a
//! rebuild to enforce it).

use crate::format::{self, ChunkMeta, StoreHeader};
use crate::{Result, StoreError};
use std::ops::Range;
use std::path::Path;
use urban_data::table::{PointTable, ZoneFooter, ZONE_ROWS};

/// Default chunk granularity: 64Ki rows ≈ 1.5–2 MB per chunk for typical
/// schemas, eight zones — the unit of file layout and read accounting; what
/// a query skips or fetches is a zone of a column inside it.
pub const DEFAULT_CHUNK_ROWS: usize = 65_536;

/// Configurable `.ubs` writer.
#[derive(Debug, Clone)]
pub struct StoreBuilder {
    chunk_rows: usize,
}

impl Default for StoreBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// The exact footer of rows `rows` of `table`.
fn footer_of(table: &PointTable, rows: Range<usize>) -> ZoneFooter {
    let n_cols = table.schema().len();
    let mut f = ZoneFooter::empty(n_cols);
    f.fold_rows(
        &table.xs()[rows.clone()],
        &table.ys()[rows.clone()],
        &table.timestamps()[rows.clone()],
        (0..n_cols).map(|c| &table.column(c)[rows.clone()]),
    );
    f
}

impl StoreBuilder {
    /// Builder with default chunking ([`DEFAULT_CHUNK_ROWS`]).
    pub fn new() -> Self {
        StoreBuilder { chunk_rows: DEFAULT_CHUNK_ROWS }
    }

    /// Set the maximum rows per chunk (clamped to ≥1).
    pub fn chunk_rows(mut self, rows: usize) -> Self {
        self.chunk_rows = rows.max(1);
        self
    }

    /// Serialize `table` into `.ubs` bytes: rows in [`PointTable::cluster`]
    /// order (a copy is clustered unless `table` already carries its zone
    /// footers), chunked, with a footer per chunk and per zone of it in the
    /// directory.
    pub fn encode(&self, table: &PointTable) -> Result<Vec<u8>> {
        if table.len() > u32::MAX as usize {
            return Err(StoreError::Corrupt("table exceeds u32 row addressing".into()));
        }
        let n = table.len();
        let n_chunks = n.div_ceil(self.chunk_rows);
        if n_chunks > format::MAX_CHUNKS {
            return Err(StoreError::Corrupt("chunk count exceeds format cap".into()));
        }
        let clustered;
        let table = if table.zones().len() == n.div_ceil(ZONE_ROWS) {
            table
        } else {
            let mut copy = table.clone();
            copy.cluster();
            clustered = copy;
            &clustered
        };

        let payload_off = format::header_len(table.schema(), n, self.chunk_rows) as u64;
        let width = format::row_bytes(table.schema().len());
        let mut chunks: Vec<ChunkMeta> = Vec::with_capacity(n_chunks);
        for lo in (0..n).step_by(self.chunk_rows) {
            let hi = (lo + self.chunk_rows).min(n);
            let zones: Vec<ZoneFooter> = (lo..hi)
                .step_by(ZONE_ROWS)
                .map(|a| footer_of(table, a..(a + ZONE_ROWS).min(hi)))
                .collect();
            let mut footer = ZoneFooter::empty(table.schema().len());
            for z in &zones {
                footer.absorb(z);
            }
            chunks.push(ChunkMeta {
                rows: (hi - lo) as u32,
                byte_off: payload_off + (lo * width) as u64,
                footer,
                zones,
            });
        }
        let header = StoreHeader {
            schema: table.schema().clone(),
            n_rows: n as u64,
            chunk_rows: self.chunk_rows.min(u32::MAX as usize) as u32,
            bbox: table.bbox(),
            chunks,
            payload_off,
        };

        let mut out = Vec::with_capacity(payload_off as usize + n * width);
        format::encode_header(&header, &mut out);
        debug_assert_eq!(out.len() as u64, payload_off, "header length math diverged");
        for lo in (0..n).step_by(self.chunk_rows) {
            format::encode_chunk(table, lo..(lo + self.chunk_rows).min(n), &mut out);
        }
        Ok(out)
    }

    /// Encode and write `table` to `path`.
    pub fn write_file(&self, table: &PointTable, path: &Path) -> Result<()> {
        let bytes = self.encode(table)?;
        std::fs::write(path, bytes)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::ChunkedPointSource;
    use urban_data::schema::{AttrType, Schema};
    use urban_data::time::DAY;
    use urbane_geom::Point;

    fn table(n: usize) -> PointTable {
        let schema = Schema::new([("v", AttrType::Numeric)]).unwrap();
        let mut t = PointTable::new(schema);
        for i in 0..n {
            let x = (i.wrapping_mul(104_729) % 100_000) as f64 / 1_000.0;
            let y = (i.wrapping_mul(15_485_863) % 100_000) as f64 / 1_000.0;
            t.push(Point::new(x, y), i as i64, &[i as f32]).unwrap();
        }
        t
    }

    /// The rows as the store holds them.
    fn stored(t: &PointTable, chunk_rows: usize) -> PointTable {
        let bytes = StoreBuilder::new().chunk_rows(chunk_rows).encode(t).unwrap();
        ChunkedPointSource::from_bytes(bytes).unwrap().materialize().unwrap()
    }

    #[test]
    fn permutation_is_a_stable_bijection() {
        // `v` is the input row number: the store holds every row once.
        let t = table(2_000);
        let back = stored(&t, 300);
        let mut seen = vec![false; t.len()];
        for &v in back.column(0) {
            assert!(!seen[v as usize]);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn equal_keys_keep_original_order() {
        // Many rows on the same spot in the same day share a cluster key;
        // stability demands they appear in original row order.
        let schema = Schema::new([("v", AttrType::Numeric)]).unwrap();
        let mut t = PointTable::new(schema);
        for i in 0..50 {
            let p = if i % 2 == 0 { Point::new(1.0, 1.0) } else { Point::new(90.0, 90.0) };
            t.push(p, i as i64, &[i as f32]).unwrap();
        }
        // Anchor the bbox so both spots map to interior cells.
        t.push(Point::new(0.0, 0.0), 50, &[50.0]).unwrap();
        t.push(Point::new(100.0, 100.0), 51, &[51.0]).unwrap();
        let back = stored(&t, 16);
        let order: Vec<u32> = back.column(0).iter().map(|&v| v as u32).collect();
        let evens: Vec<u32> = order.iter().copied().filter(|&i| i < 50 && i % 2 == 0).collect();
        let odds: Vec<u32> = order.iter().copied().filter(|&i| i < 50 && i % 2 == 1).collect();
        assert!(evens.windows(2).all(|w| w[0] < w[1]), "stable sort broke even run order");
        assert!(odds.windows(2).all(|w| w[0] < w[1]), "stable sort broke odd run order");
    }

    #[test]
    fn sorted_neighbors_are_spatially_local() {
        // The point of the Hilbert minor key: consecutive rows of one day are
        // close in space. Compare mean hop distance against the original
        // (scattered) row order. Every row here falls in day 0.
        let t = table(5_000);
        assert!(t.timestamps().iter().all(|&s| s < DAY));
        let back = stored(&t, 512);
        let hop = |a: Point, b: Point| ((a.x - b.x).powi(2) + (a.y - b.y).powi(2)).sqrt();
        let mean_hop = |t: &PointTable| {
            (1..t.len()).map(|i| hop(t.loc(i - 1), t.loc(i))).sum::<f64>() / (t.len() - 1) as f64
        };
        let (sorted_mean, original_mean) = (mean_hop(&back), mean_hop(&t));
        assert!(
            sorted_mean * 5.0 < original_mean,
            "cluster order not local: sorted {sorted_mean:.3} vs original {original_mean:.3}"
        );
    }

    #[test]
    fn a_clustered_input_is_written_as_it_stands() {
        let t = table(3_000);
        let mut c = t.clone();
        c.cluster();
        let b = StoreBuilder::new().chunk_rows(256);
        assert_eq!(b.encode(&t).unwrap(), b.encode(&c).unwrap());
    }

    #[test]
    fn encode_is_deterministic() {
        let t = table(3_000);
        let b = StoreBuilder::new().chunk_rows(256);
        assert_eq!(b.encode(&t).unwrap(), b.encode(&t).unwrap());
    }

    #[test]
    fn empty_table_encodes() {
        let t = PointTable::new(Schema::empty());
        let bytes = StoreBuilder::new().encode(&t).unwrap();
        let h = format::decode_header(&bytes).unwrap();
        assert_eq!(h.n_rows, 0);
        assert!(h.chunks.is_empty());
    }
}
