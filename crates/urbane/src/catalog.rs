//! The data-set registry: Urbane sessions explore several point data sets
//! side by side (taxi, 311, crime, …), switching and comparing them freely.
//!
//! Data sets come in two flavors:
//!
//! * **memory** — a [`PointTable`] registered directly ([`register`]), the
//!   original serving model;
//!
//! Either way a table that becomes resident is first clustered
//! ([`PointTable::cluster`]: day-major, Hilbert-minor rows with zone
//! footers), so every executor downstream sees the layout it prunes on.
//!
//! * **store-backed** — a `.ubs` file registered by path
//!   ([`register_store`]): only the header (row count, bounding box, footers)
//!   is read at registration, and kept, so a server can boot against tens of
//!   millions of rows without touching their payloads. The table
//!   materializes lazily on first [`get`] — already clustered, the file is
//!   written in that order — and the zone-streamed index join bypasses
//!   materialization entirely via [`store`] ([`ColdStore::index_join`]).
//!
//! A registered `.ubs` file must not change: the header parsed at
//! registration is trusted for as long as the registration lives. Replace a
//! store by writing a new file and registering that.
//!
//! [`register`]: DataCatalog::register
//! [`register_store`]: DataCatalog::register_store
//! [`get`]: DataCatalog::get
//! [`store`]: DataCatalog::store

use crate::session::lock;
use crate::{Result, UrbaneError};
use raster_join::QueryBudget;
use spatial_index::{RegionIndex, StoredJoinStats};
use std::collections::BTreeMap;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
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

/// A lazily-materialized `.ubs`-backed data set. Header metadata is always
/// available; the table itself pages in on first access and stays resident.
#[derive(Debug)]
struct StoreBacked {
    store: ColdStore,
    resident: Mutex<Option<Arc<PointTable>>>,
}

#[derive(Debug, Clone)]
enum CatalogEntry {
    Memory(Arc<PointTable>),
    Store(Arc<StoreBacked>),
}

/// A named collection of point data sets.
#[derive(Debug, Clone, Default)]
pub struct DataCatalog {
    datasets: BTreeMap<String, CatalogEntry>,
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
        self.datasets.insert(name.into(), CatalogEntry::Memory(Arc::new(table)));
    }

    /// Register (or replace) a `.ubs` store-backed data set under `name`.
    /// Reads only the file's header — row count and bounding box are
    /// available immediately, the payload stays on disk until first use.
    pub fn register_store<S: Into<String>>(&mut self, name: S, path: &Path) -> Result<()> {
        let entry = StoreBacked { store: ColdStore::open(path)?, resident: Mutex::new(None) };
        self.datasets.insert(name.into(), CatalogEntry::Store(Arc::new(entry)));
        Ok(())
    }

    /// Fetch a data set, materializing a store-backed one on first access.
    pub fn get(&self, name: &str) -> Result<Arc<PointTable>> {
        match self.entry(name)? {
            CatalogEntry::Memory(t) => Ok(Arc::clone(t)),
            CatalogEntry::Store(s) => {
                let mut resident = lock(&s.resident);
                if let Some(t) = resident.as_ref() {
                    return Ok(Arc::clone(t));
                }
                let table = Arc::new(s.store.materialize()?.0);
                *resident = Some(Arc::clone(&table));
                Ok(table)
            }
        }
    }

    /// The `.ubs` store behind a store-backed data set (`None` for in-memory
    /// sets). The zone-streamed index join uses this to answer queries
    /// without ever materializing the table.
    pub fn store(&self, name: &str) -> Option<&ColdStore> {
        match self.datasets.get(name) {
            Some(CatalogEntry::Store(s)) => Some(&s.store),
            _ => None,
        }
    }

    /// Is the data set's table resident in memory right now? In-memory sets
    /// always are; store-backed sets only after a [`get`](Self::get).
    pub fn is_resident(&self, name: &str) -> Result<bool> {
        match self.entry(name)? {
            CatalogEntry::Memory(_) => Ok(true),
            CatalogEntry::Store(s) => Ok(lock(&s.resident).is_some()),
        }
    }

    /// Row count without materializing (header metadata for store-backed
    /// sets).
    pub fn rows_of(&self, name: &str) -> Result<usize> {
        match self.entry(name)? {
            CatalogEntry::Memory(t) => Ok(t.len()),
            CatalogEntry::Store(s) => Ok(s.store.header.n_rows as usize),
        }
    }

    fn entry(&self, name: &str) -> Result<&CatalogEntry> {
        self.datasets
            .get(name)
            .ok_or_else(|| UrbaneError::UnknownDataset(name.to_string()))
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
            CatalogEntry::Memory(t) => b.union(&t.bbox()),
            CatalogEntry::Store(s) => b.union(&s.store.header.bbox),
        })
    }

    /// Total rows across data sets (header metadata for store-backed sets).
    pub fn total_rows(&self) -> usize {
        self.datasets
            .values()
            .map(|e| match e {
                CatalogEntry::Memory(t) => t.len(),
                CatalogEntry::Store(s) => s.store.header.n_rows as usize,
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
    fn store_registration_is_lazy_and_get_materializes() {
        let dir = std::env::temp_dir().join(format!("urbane-catalog-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = sample_store(&dir, 2_000);

        let mut c = DataCatalog::new();
        c.register_store("cold", &path).unwrap();
        // Metadata without touching the payload.
        assert!(!c.is_resident("cold").unwrap());
        assert_eq!(c.rows_of("cold").unwrap(), 2_000);
        assert_eq!(c.total_rows(), 2_000);
        assert!(!c.combined_bbox().is_empty());
        assert_eq!(c.store("cold").unwrap().path(), path.as_path());

        // First get pages the table in; it stays resident and shared.
        let a = c.get("cold").unwrap();
        assert_eq!(a.len(), 2_000);
        assert!(!a.zones().is_empty(), "a paged-in store arrives clustered");
        assert!(c.is_resident("cold").unwrap());
        let b = c.get("cold").unwrap();
        assert!(Arc::ptr_eq(&a, &b));

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
        assert!(c.is_resident("a").unwrap());
    }
}
