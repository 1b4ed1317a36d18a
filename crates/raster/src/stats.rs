//! Pipeline statistics — the software stand-in for GPU performance counters.
//!
//! The benchmarks that reproduce the paper's performance figures report both
//! wall-clock time and these counters; the counters make the *cost model*
//! visible (fragments ∝ canvas resolution for polygons, ∝ |P| for points),
//! which is how the paper explains Raster Join's scaling behaviour.

/// Counters accumulated across draw calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RenderStats {
    /// Draw calls issued.
    pub draw_calls: u64,
    /// Points submitted to the point stage.
    pub points_in: u64,
    /// Points culled by the viewport test.
    pub points_culled: u64,
    /// Fragments emitted by all rasterizers (points, scanline).
    pub fragments: u64,
    /// Pixels touched by conservative boundary traversal.
    pub boundary_cells: u64,
}

impl RenderStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Merge counters from another stats block (tile workers).
    pub fn merge(&mut self, other: &RenderStats) {
        self.draw_calls += other.draw_calls;
        self.points_in += other.points_in;
        self.points_culled += other.points_culled;
        self.fragments += other.fragments;
        self.boundary_cells += other.boundary_cells;
    }
}

impl std::fmt::Display for RenderStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "draws={} points={} (culled {}) frags={} boundary={}",
            self.draw_calls,
            self.points_in,
            self.points_culled,
            self.fragments,
            self.boundary_cells
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fields() {
        let mut a = RenderStats { draw_calls: 1, points_in: 10, ..Default::default() };
        let b = RenderStats { draw_calls: 2, points_in: 5, fragments: 7, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.draw_calls, 3);
        assert_eq!(a.points_in, 15);
        assert_eq!(a.fragments, 7);
    }

    #[test]
    fn display_is_compact() {
        let s = RenderStats::new().to_string();
        assert!(s.contains("draws=0"));
    }
}
