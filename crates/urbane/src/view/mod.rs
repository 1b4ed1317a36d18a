//! Urbane's views as headless data products. The map and exploration views
//! get every answer from an [`UrbaneService`](crate::UrbaneService); neither
//! runs a join of its own.

pub mod dashboard;
pub mod explore;
pub mod heatmap;
pub mod map;

pub use dashboard::{compose, DashboardSpec};
pub use explore::{DatasetSeries, RegionProfile};
pub use heatmap::{render_heatmap, Heatmap, HeatmapConfig};
pub use map::{ChoroplethImage, MapView};

