//! # urbane-store — out-of-core clustered columnar point store
//!
//! The paper's headline comparison races Raster Join against a "traditional"
//! spatial-index join at 10–100M points — cardinalities that don't fit the
//! whole-table-in-memory serving model the rest of the workspace uses. This
//! crate supplies the storage side of that comparison: a resident table's
//! layout ([`urban_data::PointTable::cluster`]: day-major, Hilbert-minor
//! rows, a footer per zone), on disk.
//!
//! * [`format`] — the versioned `.ubs` binary layout: magic/version prelude,
//!   schema, per-chunk directory (a bbox / time range / per-attribute
//!   min-max footer for the chunk and for each zone inside it), then
//!   chunk-major column payloads,
//! * [`writer`] — [`StoreBuilder`]: clusters a [`urban_data::PointTable`]
//!   once at build time and emits deterministic bytes (byte-identical across
//!   rebuilds),
//! * [`reader`] — [`ChunkedPointSource`]: a bounds-checked reader (no mmap)
//!   that materializes tables sequentially or feeds executors one zone of
//!   one column at a time.
//!
//! The crate holds storage only: the exact join that reads it, and the
//! region index that join probes, live in `spatial-index`.
//!
//! Everything is std-only and `#![forbid(unsafe_code)]`, like the rest of
//! the workspace. Decoding mirrors `urban_data::binfmt`'s discipline: every
//! read is bounds-checked and surfaces a typed error, never a panic.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod format;
pub mod reader;
pub mod writer;

pub use format::{ChunkMeta, Columns, StoreHeader, MAGIC, VERSION};
pub use reader::{ChunkedPointSource, ReadStats};
pub use writer::{StoreBuilder, DEFAULT_CHUNK_ROWS};

/// Errors from store build / open / read operations.
///
/// Magic and version mismatches get their own variants (mirroring the
/// `urban_data::DataError::Format` convention) so a `.ubs` handed to the
/// legacy `.bin` decoder — or vice versa — fails with a diagnosable error
/// instead of a generic truncation message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The first four bytes are not the `UBS1` magic.
    Magic { found: [u8; 4] },
    /// The container magic matched but the version is unsupported.
    Version { found: u16 },
    /// Structurally invalid or truncated content behind a valid prelude.
    Corrupt(String),
    /// Underlying I/O failure (open/seek/read/write).
    Io(String),
    /// Schema/row-level error surfaced by the data layer.
    Data(urban_data::DataError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Magic { found } => {
                write!(f, "bad magic {:?} (expected \"UBS1\")", String::from_utf8_lossy(found))
            }
            StoreError::Version { found } => write!(
                f,
                "unsupported .ubs version {found} (supported: {VERSION}); \
                 rebuild the file with `urbane-cli build-store`"
            ),
            StoreError::Corrupt(m) => write!(f, "corrupt store: {m}"),
            StoreError::Io(m) => write!(f, "store i/o error: {m}"),
            StoreError::Data(e) => write!(f, "store data error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<urban_data::DataError> for StoreError {
    fn from(e: urban_data::DataError) -> Self {
        StoreError::Data(e)
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e.to_string())
    }
}

/// Convenience alias for store results.
pub type Result<T> = std::result::Result<T, StoreError>;
