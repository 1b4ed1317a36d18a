//! Hilbert space-filling curve on a `2^order × 2^order` grid.
//!
//! [`PointTable::cluster`](crate::PointTable::cluster) uses a coarse curve
//! as its minor key, and that order is also the `.ubs` store's file order:
//! consecutive rows of a day are spatial neighbours, so zone footers stay
//! tight and a query window touches near-sequential ranges. The iterative
//! rotate-and-accumulate formulation below is the classic quadrant-recursion
//! algorithm (no lookup tables, no recursion), total for every input: out-of
//! -range coordinates clamp to the grid edge.

/// Rotate/flip a quadrant so the sub-curve enters and exits on the right
/// sides. `side` is the full grid side of the current recursion depth.
#[inline]
fn rot(side: u32, x: &mut u32, y: &mut u32, rx: bool, ry: bool) {
    if !ry {
        if rx {
            *x = side.wrapping_sub(1).wrapping_sub(*x);
            *y = side.wrapping_sub(1).wrapping_sub(*y);
        }
        std::mem::swap(x, y);
    }
}

/// Map grid cell `(x, y)` to its distance along the Hilbert curve of the
/// given `order` (`1..=16`). Coordinates beyond the grid clamp to the edge.
pub fn xy2d(order: u32, x: u32, y: u32) -> u64 {
    let order = order.clamp(1, 16);
    let side = 1u32 << order;
    let mut x = x.min(side - 1);
    let mut y = y.min(side - 1);
    let mut d: u64 = 0;
    let mut s = side >> 1;
    while s > 0 {
        let rx = (x & s) > 0;
        let ry = (y & s) > 0;
        d += (s as u64) * (s as u64) * ((3 * rx as u64) ^ (ry as u64));
        rot(side, &mut x, &mut y, rx, ry);
        s >>= 1;
    }
    d
}

/// Inverse of [`xy2d`]: curve distance `d` back to its grid cell. Distances
/// beyond the curve length wrap via truncation of the high bits.
pub fn d2xy(order: u32, d: u64) -> (u32, u32) {
    let order = order.clamp(1, 16);
    let side = 1u64 << order;
    let mut t = d % (side * side);
    let (mut x, mut y) = (0u32, 0u32);
    let mut s = 1u32;
    while (s as u64) < side {
        let rx = (t / 2) & 1 == 1;
        let ry = (t ^ (rx as u64)) & 1 == 1;
        rot(s, &mut x, &mut y, rx, ry);
        if rx {
            x += s;
        }
        if ry {
            y += s;
        }
        t /= 4;
        s <<= 1;
    }
    (x, y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The finest order [`xy2d`] accepts: a 65 536² grid, keys in `[0, 2^32)`.
    const ORDER: u32 = 16;
    const SIDE: u32 = 1 << ORDER;

    #[test]
    fn exhaustive_bijection_small_orders() {
        for order in 1..=5u32 {
            let side = 1u64 << order;
            let mut seen = vec![false; (side * side) as usize];
            for y in 0..side as u32 {
                for x in 0..side as u32 {
                    let d = xy2d(order, x, y);
                    assert!(d < side * side, "key {d} out of range at order {order}");
                    assert!(!seen[d as usize], "key {d} duplicated at order {order}");
                    seen[d as usize] = true;
                    assert_eq!(d2xy(order, d), (x, y), "roundtrip failed at order {order}");
                }
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn exhaustive_adjacency_small_orders() {
        // The defining Hilbert property: consecutive curve positions are
        // grid neighbors (Manhattan distance exactly 1).
        for order in 1..=5u32 {
            let cells = 1u64 << (2 * order);
            for d in 0..cells - 1 {
                let (x0, y0) = d2xy(order, d);
                let (x1, y1) = d2xy(order, d + 1);
                let dist = x0.abs_diff(x1) + y0.abs_diff(y1);
                assert_eq!(dist, 1, "curve jump at d={d}, order {order}");
            }
        }
    }

    #[test]
    fn clamps_out_of_range_inputs() {
        assert_eq!(xy2d(4, 1_000, 1_000), xy2d(4, 15, 15));
        let (x, y) = d2xy(2, 16); // wraps past the 4×4 curve
        assert!(x < 4 && y < 4);
    }

    proptest! {
        #[test]
        fn full_domain_roundtrip(x in 0u32..SIDE, y in 0u32..SIDE) {
            let d = xy2d(ORDER, x, y);
            prop_assert!(d < (SIDE as u64) * (SIDE as u64));
            prop_assert_eq!(d2xy(ORDER, d), (x, y));
        }

        #[test]
        fn full_domain_adjacency(d in 0u64..u32::MAX as u64) {
            let (x0, y0) = d2xy(ORDER, d);
            let (x1, y1) = d2xy(ORDER, d + 1);
            prop_assert_eq!(x0.abs_diff(x1) + y0.abs_diff(y1), 1);
        }

        #[test]
        fn keys_respect_quadrant_nesting(x in 0u32..SIDE, y in 0u32..SIDE) {
            // Coarse keys are prefixes: the order-8 cell containing (x, y)
            // covers a contiguous key range at order 16.
            let coarse = xy2d(8, x >> 8, y >> 8);
            let fine = xy2d(ORDER, x, y);
            prop_assert_eq!(fine >> 16, coarse, "coarse cell must prefix the fine key");
        }
    }
}
