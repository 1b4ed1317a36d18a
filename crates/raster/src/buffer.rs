//! Typed 2-D framebuffers.
//!
//! A [`Buffer2D<T>`] is the software analogue of a GL texture / render
//! target: a dense row-major grid of texels with O(1) access. Raster Join
//! uses several formats: `f32` (point-count accumulation), `[f32; 2]`
//! (sum + count for AVG), `u32` (region ids), and `u8` (boundary masks).

/// A dense row-major 2-D buffer of texels.
#[derive(Debug, Clone, PartialEq)]
pub struct Buffer2D<T> {
    width: u32,
    height: u32,
    data: Vec<T>,
}

impl<T: Copy> Buffer2D<T> {
    /// Allocate a buffer filled with `fill`.
    ///
    /// # Panics
    /// Panics on a zero-sized buffer — always a caller bug.
    pub fn new(width: u32, height: u32, fill: T) -> Self {
        assert!(width > 0 && height > 0, "buffer must have texels");
        let len = width as usize * height as usize;
        Buffer2D { width, height, data: vec![fill; len] }
    }

    /// Buffer width in texels.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Buffer height in texels.
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Total texel count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Buffers are never empty by construction.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Row-major index of `(x, y)`.
    #[inline]
    fn idx(&self, x: u32, y: u32) -> usize {
        debug_assert!(x < self.width && y < self.height, "texel ({x},{y}) out of bounds");
        y as usize * self.width as usize + x as usize
    }

    /// Read texel `(x, y)`.
    #[inline]
    pub fn get(&self, x: u32, y: u32) -> T {
        self.data[self.idx(x, y)]
    }

    /// Write texel `(x, y)`.
    #[inline]
    pub fn set(&mut self, x: u32, y: u32, v: T) {
        let i = self.idx(x, y);
        self.data[i] = v;
    }

    /// Mutable access to texel `(x, y)`.
    #[inline]
    pub fn get_mut(&mut self, x: u32, y: u32) -> &mut T {
        let i = self.idx(x, y);
        &mut self.data[i]
    }

    /// Reset every texel (the GL `glClear`).
    pub fn clear(&mut self, v: T) {
        self.data.fill(v);
    }

    /// Borrow the raw texel slice (row-major).
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutably borrow the raw texel slice (row-major).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Borrow one row.
    #[inline]
    pub fn row(&self, y: u32) -> &[T] {
        let start = y as usize * self.width as usize;
        &self.data[start..start + self.width as usize]
    }

    /// Iterate `(x, y, value)` over all texels, row-major.
    pub fn iter_texels(&self) -> impl Iterator<Item = (u32, u32, T)> + '_ {
        let w = self.width;
        self.data
            .iter()
            .enumerate()
            .map(move |(i, &v)| ((i as u32) % w, (i as u32) / w, v))
    }

    /// Map every texel into a new buffer (format conversion).
    pub fn map<U: Copy, F: FnMut(T) -> U>(&self, mut f: F) -> Buffer2D<U> {
        Buffer2D {
            width: self.width,
            height: self.height,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }
}

impl Buffer2D<f32> {
    /// Sum of all texels (used by gather-style reductions and tests).
    pub fn sum(&self) -> f64 {
        self.data.iter().map(|&v| v as f64).sum()
    }

    /// Maximum texel value.
    pub fn max_value(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_get_set() {
        let mut b = Buffer2D::new(4, 3, 0u32);
        b.set(2, 1, 42);
        assert_eq!(b.get(2, 1), 42);
        assert_eq!(b.get(0, 0), 0);
        assert_eq!(b.len(), 12);
    }

    #[test]
    fn clear_resets_all() {
        let mut b = Buffer2D::new(3, 3, 1.0f32);
        b.set(1, 1, 5.0);
        b.clear(0.0);
        assert_eq!(b.sum(), 0.0);
    }

    #[test]
    fn rows_are_contiguous() {
        let mut b = Buffer2D::new(3, 2, 0u32);
        b.set(0, 1, 10);
        b.set(2, 1, 12);
        assert_eq!(b.row(1), &[10, 0, 12]);
        assert_eq!(b.row(0), &[0, 0, 0]);
    }

    #[test]
    fn texel_iteration_order() {
        let mut b = Buffer2D::new(2, 2, 0u32);
        b.set(1, 0, 1);
        b.set(0, 1, 2);
        let v: Vec<(u32, u32, u32)> = b.iter_texels().collect();
        assert_eq!(v, vec![(0, 0, 0), (1, 0, 1), (0, 1, 2), (1, 1, 0)]);
    }

    #[test]
    fn map_converts_each_texel() {
        let mut a = Buffer2D::new(2, 2, 2.0f32);
        a.set(1, 1, 3.5);
        let b = a.map(|v| (v * 2.0) as u32);
        assert_eq!(b.as_slice(), &[4, 4, 4, 7]);
    }

    #[test]
    fn reductions() {
        let mut b = Buffer2D::new(2, 2, 1.0f32);
        b.set(0, 0, 5.0);
        assert_eq!(b.sum(), 8.0);
        assert_eq!(b.max_value(), 5.0);
    }

    #[test]
    #[should_panic(expected = "texels")]
    fn zero_size_panics() {
        Buffer2D::new(0, 5, 0u8);
    }
}
