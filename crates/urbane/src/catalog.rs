//! The data-set registry: Urbane sessions explore several point data sets
//! side by side (taxi, 311, crime, …), switching and comparing them freely.
//!
//! A catalog is the boot-time registration list an
//! [`UrbaneService`](crate::UrbaneService) (and through it a session) is
//! built from. It only registers; the service owns residency from then on —
//! which datasets are paged in, their reload generations, and everything
//! derived from them. Data sets come in two flavors:
//!
//! * **memory** — a [`PointTable`] registered directly ([`register`]). The
//!   table is clustered on the way in ([`PointTable::cluster`]: day-major,
//!   Hilbert-minor rows with zone footers), so every executor downstream
//!   sees the layout it prunes on.
//! * **store-backed** — a `.ubs` file registered by path
//!   ([`register_store`]): only the header (row count, bounding box, footers)
//!   is read at registration, and kept, so a server can boot against tens of
//!   millions of rows without touching their payloads. The catalog never
//!   pages one in: [`get`] refuses it with a typed error, the service
//!   materializes it on first raster touch (already clustered, the file is
//!   written in that order), and the zone-streamed index join never does
//!   ([`ColdStore::index_join`]).
//!
//! A registered `.ubs` file must not change: the header parsed at
//! registration is trusted for as long as the registration lives. Replace a
//! store by writing a new file and registering that.
//!
//! [`register`]: DataCatalog::register
//! [`register_store`]: DataCatalog::register_store
//! [`get`]: DataCatalog::get

use crate::{Result, UrbaneError};
use raster_join::QueryBudget;
use spatial_index::{RegionIndex, StoredJoinStats};
use std::collections::BTreeMap;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use urban_data::{AggTable, PointTable, RegionSet, SpatialAggQuery};
use urbane_geom::BoundingBox;
use urbane_store::{ChunkedPointSource, ReadStats, StoreHeader};

/// A `.ubs` file on disk and its header, parsed once when the store was
/// registered. Every later use opens a file handle and nothing else, which
/// is sound because a registered store file is immutable (module docs).
#[derive(Debug, Clone)]
pub struct ColdStore {
    path: PathBuf,
    header: Arc<StoreHeader>,
}

impl ColdStore {
    /// Parse and validate the header of the store at `path`.
    pub fn open(path: &Path) -> Result<Self> {
        let header = ChunkedPointSource::open(path).map_err(store_err)?.shared_header();
        Ok(ColdStore { path: path.to_path_buf(), header })
    }

    /// Where the file lives.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Schema, shape and directory.
    pub fn header(&self) -> &StoreHeader {
        &self.header
    }

    fn source(&self) -> Result<ChunkedPointSource<File>> {
        ChunkedPointSource::open_with(&self.path, Arc::clone(&self.header)).map_err(store_err)
    }

    /// The exact index join (region-index probe + exact point-in-polygon,
    /// ε = 0) streamed zone by zone off the file: the table never
    /// materializes. Returns the answer, what the footers pruned, and what
    /// was read.
    pub fn index_join<I: RegionIndex>(
        &self,
        regions: &RegionSet,
        index: &I,
        query: &SpatialAggQuery,
        budget: &QueryBudget,
    ) -> Result<(AggTable, StoredJoinStats, ReadStats)> {
        let mut source = self.source()?;
        let (table, stats) =
            spatial_index::index_join_stored(&mut source, regions, index, query, budget)?;
        Ok((table, stats, source.stats()))
    }

    /// Read the whole table in, clustered, with its zone footers.
    pub fn materialize(&self) -> Result<(PointTable, ReadStats)> {
        let mut source = self.source()?;
        let table = source.materialize().map_err(store_err)?;
        Ok((table, source.stats()))
    }
}

/// Where a dataset's rows live. The catalog registers either kind; the
/// service it builds upgrades `Cold` to `Resident` when a query pages the
/// store in.
#[derive(Debug, Clone)]
pub(crate) enum TableState {
    /// Fully materialized in memory, clustered.
    Resident(Arc<PointTable>),
    /// A `.ubs` store, header only. Raster queries page it in on first
    /// touch; index-join queries stream zones and leave it cold.
    Cold(ColdStore),
}

/// A named collection of point data sets.
#[derive(Debug, Clone, Default)]
pub struct DataCatalog {
    datasets: BTreeMap<String, TableState>,
}

impl DataCatalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or replace) an in-memory data set under `name`. The table
    /// is clustered on the way in, so its row order changes.
    pub fn register<S: Into<String>>(&mut self, name: S, mut table: PointTable) {
        table.cluster();
        self.datasets.insert(name.into(), TableState::Resident(Arc::new(table)));
    }

    /// Register (or replace) a `.ubs` store-backed data set under `name`.
    /// Reads only the file's header — row count and bounding box are
    /// available immediately, the payload stays on disk until first use.
    pub fn register_store<S: Into<String>>(&mut self, name: S, path: &Path) -> Result<()> {
        self.datasets.insert(name.into(), TableState::Cold(ColdStore::open(path)?));
        Ok(())
    }

    /// Fetch an in-memory data set. A store-backed name is refused with
    /// [`UrbaneError::Store`]: the catalog never pages a store in — build an
    /// [`UrbaneService`](crate::UrbaneService) from the catalog, which does.
    pub fn get(&self, name: &str) -> Result<Arc<PointTable>> {
        match self.entry(name)? {
            TableState::Resident(t) => Ok(Arc::clone(t)),
            TableState::Cold(s) => Err(UrbaneError::Store(format!(
                "dataset `{name}` is store-backed ({}); the catalog holds no resident copy",
                s.path().display()
            ))),
        }
    }

    /// The `.ubs` store behind a store-backed data set (`None` for in-memory
    /// sets).
    pub fn store(&self, name: &str) -> Option<&ColdStore> {
        match self.datasets.get(name) {
            Some(TableState::Cold(s)) => Some(s),
            _ => None,
        }
    }

    /// Row count without materializing (header metadata for store-backed
    /// sets).
    pub fn rows_of(&self, name: &str) -> Result<usize> {
        match self.entry(name)? {
            TableState::Resident(t) => Ok(t.len()),
            TableState::Cold(s) => Ok(s.header.n_rows as usize),
        }
    }

    fn entry(&self, name: &str) -> Result<&TableState> {
        self.datasets
            .get(name)
            .ok_or_else(|| UrbaneError::UnknownDataset(name.to_string()))
    }

    /// The registrations, by name — what a service is built from.
    pub(crate) fn into_states(self) -> impl Iterator<Item = (String, TableState)> {
        self.datasets.into_iter()
    }

    /// Registered names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.datasets.keys().map(String::as_str).collect()
    }

    /// Number of data sets.
    pub fn len(&self) -> usize {
        self.datasets.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.datasets.is_empty()
    }

    /// Union of all data sets' bounding boxes (the city extent in practice).
    /// Store-backed sets contribute their header bbox — no materialization.
    pub fn combined_bbox(&self) -> BoundingBox {
        self.datasets.values().fold(BoundingBox::empty(), |b, e| match e {
            TableState::Resident(t) => b.union(&t.bbox()),
            TableState::Cold(s) => b.union(&s.header.bbox),
        })
    }

    /// Total rows across data sets (header metadata for store-backed sets).
    pub fn total_rows(&self) -> usize {
        self.datasets
            .values()
            .map(|e| match e {
                TableState::Resident(t) => t.len(),
                TableState::Cold(s) => s.header.n_rows as usize,
            })
            .sum()
    }
}

fn store_err(e: urbane_store::StoreError) -> UrbaneError {
    UrbaneError::Store(e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use urban_data::schema::{AttrType, Schema};
    use urbane_geom::Point;
    use urbane_store::StoreBuilder;

    fn table(at: (f64, f64)) -> PointTable {
        let mut t = PointTable::new(Schema::empty());
        t.push(Point::new(at.0, at.1), 0, &[]).unwrap();
        t
    }

    #[test]
    fn register_and_get() {
        let mut c = DataCatalog::new();
        c.register("taxi", table((1.0, 1.0)));
        c.register("crime", table((5.0, 5.0)));
        assert_eq!(c.len(), 2);
        assert_eq!(c.names(), vec!["crime", "taxi"]);
        assert_eq!(c.get("taxi").unwrap().len(), 1);
        assert!(matches!(c.get("nope"), Err(UrbaneError::UnknownDataset(_))));
    }

    #[test]
    fn replace_keeps_len() {
        let mut c = DataCatalog::new();
        c.register("a", table((0.0, 0.0)));
        c.register("a", table((2.0, 2.0)));
        assert_eq!(c.len(), 1);
        assert_eq!(c.get("a").unwrap().loc(0), Point::new(2.0, 2.0));
    }

    #[test]
    fn combined_bbox_and_rows() {
        let mut c = DataCatalog::new();
        assert!(c.combined_bbox().is_empty());
        c.register("a", table((0.0, 0.0)));
        c.register("b", table((10.0, 4.0)));
        assert_eq!(c.combined_bbox(), BoundingBox::from_coords(0.0, 0.0, 10.0, 4.0));
        assert_eq!(c.total_rows(), 2);
    }

    fn sample_store(dir: &Path, n: usize) -> PathBuf {
        let schema = Schema::new([("v", AttrType::Numeric)]).unwrap();
        let mut t = PointTable::new(schema);
        for i in 0..n {
            let x = (i.wrapping_mul(104_729) % 1_000) as f64 / 10.0;
            let y = (i.wrapping_mul(15_485_863) % 1_000) as f64 / 10.0;
            t.push(Point::new(x, y), i as i64, &[i as f32]).unwrap();
        }
        let path = dir.join("sample.ubs");
        StoreBuilder::new().chunk_rows(256).write_file(&t, &path).unwrap();
        path
    }

    #[test]
    fn store_registration_reads_the_header_and_get_refuses_it() {
        let dir = std::env::temp_dir().join(format!("urbane-catalog-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = sample_store(&dir, 2_000);

        let mut c = DataCatalog::new();
        c.register_store("cold", &path).unwrap();
        // Metadata without touching the payload.
        assert_eq!(c.rows_of("cold").unwrap(), 2_000);
        assert_eq!(c.total_rows(), 2_000);
        assert!(!c.combined_bbox().is_empty());
        assert_eq!(c.store("cold").unwrap().path(), path.as_path());

        // The catalog never pages a store in; the service does.
        assert!(matches!(c.get("cold"), Err(UrbaneError::Store(_))));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_store_path_is_a_typed_error() {
        let mut c = DataCatalog::new();
        let err = c
            .register_store("ghost", Path::new("/nonexistent/never.ubs"))
            .expect_err("missing file must fail registration");
        assert!(matches!(err, UrbaneError::Store(_)), "{err:?}");
    }

    #[test]
    fn memory_sets_have_no_store_path() {
        let mut c = DataCatalog::new();
        c.register("a", table((0.0, 0.0)));
        assert!(c.store("a").is_none());
    }
}
