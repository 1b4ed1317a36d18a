//! The synthetic city model: an NYC-sized extent with activity hotspots.
//!
//! Locations are Web-Mercator meters over a box matching New York City's
//! real Mercator footprint, so distances, the ε error bound (in meters), and
//! canvas-resolution math all behave exactly as they would on the real data.

use super::normal;
use rand::Rng;
use urbane_geom::projection::lonlat_to_mercator;
use urbane_geom::{BoundingBox, Point};

/// One activity hotspot: an isotropic Gaussian in Mercator meters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hotspot {
    /// Center of activity.
    pub center: Point,
    /// Standard deviation (meters).
    pub sigma: f64,
    /// Relative share of activity drawn from this hotspot.
    pub weight: f64,
}

/// A city: an extent plus a Gaussian-mixture activity model.
#[derive(Debug, Clone, PartialEq)]
pub struct CityModel {
    bbox: BoundingBox,
    hotspots: Vec<Hotspot>,
    /// Share of activity drawn uniformly over the extent (background noise).
    background: f64,
}

impl CityModel {
    /// An NYC-like city: the real NYC Mercator bounding box with hotspots
    /// mimicking Midtown / Downtown Manhattan, downtown Brooklyn, Long
    /// Island City, and the two airports — the skew pattern taxi data shows.
    pub fn nyc_like() -> Self {
        let sw = lonlat_to_mercator(-74.05, 40.54);
        let ne = lonlat_to_mercator(-73.70, 40.92);
        let spot = |lon: f64, lat: f64, sigma: f64, weight: f64| Hotspot {
            center: lonlat_to_mercator(lon, lat),
            sigma,
            weight,
        };
        CityModel {
            bbox: BoundingBox::new(sw, ne),
            hotspots: vec![
                spot(-73.985, 40.755, 1_800.0, 0.34), // Midtown
                spot(-74.008, 40.715, 1_400.0, 0.18), // Downtown
                spot(-73.987, 40.692, 1_600.0, 0.12), // Downtown Brooklyn
                spot(-73.945, 40.745, 1_200.0, 0.08), // Long Island City
                spot(-73.874, 40.774, 900.0, 0.07),   // LGA
                spot(-73.786, 40.645, 1_000.0, 0.06), // JFK
            ],
            background: 0.15,
        }
    }

    /// A synthetic city over an arbitrary box with `n` random hotspots.
    pub fn synthetic<R: Rng + ?Sized>(bbox: BoundingBox, n_hotspots: usize, rng: &mut R) -> Self {
        assert!(!bbox.is_empty(), "city extent must be non-empty");
        let min_dim = bbox.width().min(bbox.height());
        let hotspots = (0..n_hotspots)
            .map(|_| Hotspot {
                center: Point::new(
                    bbox.min.x + rng.gen::<f64>() * bbox.width(),
                    bbox.min.y + rng.gen::<f64>() * bbox.height(),
                ),
                sigma: min_dim * (0.02 + rng.gen::<f64>() * 0.06),
                weight: 0.5 + rng.gen::<f64>(),
            })
            .collect();
        CityModel { bbox, hotspots, background: 0.15 }
    }

    /// The city extent (Mercator meters).
    #[inline]
    pub fn bbox(&self) -> BoundingBox {
        self.bbox
    }

    /// The hotspots.
    #[inline]
    pub fn hotspots(&self) -> &[Hotspot] {
        &self.hotspots
    }

    /// Sample one activity location: mixture of hotspot Gaussians plus a
    /// uniform background, rejection-truncated to the extent. Points are
    /// guaranteed strictly inside the box (no open-edge losses downstream).
    pub fn sample_location<R: Rng + ?Sized>(&self, rng: &mut R) -> Point {
        let w_total: f64 = self.hotspots.iter().map(|h| h.weight).sum::<f64>();
        loop {
            let p = if rng.gen::<f64>() < self.background || self.hotspots.is_empty() {
                Point::new(
                    self.bbox.min.x + rng.gen::<f64>() * self.bbox.width(),
                    self.bbox.min.y + rng.gen::<f64>() * self.bbox.height(),
                )
            } else {
                let mut pick = rng.gen::<f64>() * w_total;
                let mut spot = &self.hotspots[self.hotspots.len() - 1];
                for h in &self.hotspots {
                    pick -= h.weight;
                    if pick <= 0.0 {
                        spot = h;
                        break;
                    }
                }
                spot.center + Point::new(normal(rng) * spot.sigma, normal(rng) * spot.sigma)
            };
            // Strictly inside (shrunken box) so half-open pixel edges and
            // region-set boundaries never clip legitimate data.
            let inner = self.bbox.inflate(-1e-6 * self.bbox.width().max(1.0));
            if inner.contains(p) {
                return p;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn nyc_extent_is_sane() {
        let c = CityModel::nyc_like();
        // NYC is roughly 30 x 40 km in Mercator meters (inflated by 1/cos(40.7°)).
        assert!(c.bbox().width() > 25_000.0 && c.bbox().width() < 60_000.0);
        assert!(c.bbox().height() > 35_000.0 && c.bbox().height() < 80_000.0);
        // All hotspots inside the extent.
        for h in c.hotspots() {
            assert!(c.bbox().contains(h.center));
        }
    }

    #[test]
    fn samples_stay_inside() {
        let c = CityModel::nyc_like();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..5_000 {
            assert!(c.bbox().contains(c.sample_location(&mut rng)));
        }
    }

    #[test]
    fn hotspots_create_skew() {
        // Density near the strongest hotspot must far exceed a random spot.
        let c = CityModel::nyc_like();
        let mut rng = StdRng::seed_from_u64(5);
        let midtown = c.hotspots()[0].center;
        let remote = Point::new(
            c.bbox().min.x + 0.05 * c.bbox().width(),
            c.bbox().min.y + 0.95 * c.bbox().height(),
        );
        let r = 2_000.0;
        let (mut near_mid, mut near_remote) = (0u32, 0u32);
        for _ in 0..20_000 {
            let p = c.sample_location(&mut rng);
            if p.distance(midtown) < r {
                near_mid += 1;
            }
            if p.distance(remote) < r {
                near_remote += 1;
            }
        }
        assert!(
            near_mid > 10 * near_remote.max(1),
            "midtown {near_mid} vs remote {near_remote}"
        );
    }

    #[test]
    fn synthetic_city_deterministic() {
        let b = BoundingBox::from_coords(0.0, 0.0, 1000.0, 1000.0);
        let c1 = CityModel::synthetic(b, 4, &mut StdRng::seed_from_u64(9));
        let c2 = CityModel::synthetic(b, 4, &mut StdRng::seed_from_u64(9));
        assert_eq!(c1, c2);
        assert_eq!(c1.hotspots().len(), 4);
    }
}
