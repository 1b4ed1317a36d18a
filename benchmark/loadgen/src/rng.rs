//! Seeded request-sequence randomness: SplitMix64 and a Zipf sampler.
//! Equal seeds give byte-identical workloads on every machine.

#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `lane` (a client, a purpose) of one seed.
    pub fn fork(seed: u64, lane: u64) -> Rng {
        let mut r = Rng(seed ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf over ranks `0..n`: rank `k` is drawn with weight `1/(k+1)^s`.
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut total = 0.0;
        let mut cumulative: Vec<f64> = (1..=n)
            .map(|k| {
                total += (k as f64).powf(-s);
                total
            })
            .collect();
        for c in &mut cumulative {
            *c /= total;
        }
        Zipf { cumulative }
    }

    pub fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_repeat_and_seeds_differ() {
        let draw = |seed| {
            let mut r = Rng::fork(seed, 3);
            (0..32).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        assert_ne!(Rng::fork(7, 0).next_u64(), Rng::fork(7, 1).next_u64());
    }

    #[test]
    fn unit_and_below_stay_in_range() {
        let mut r = Rng::fork(1, 0);
        for _ in 0..10_000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
            assert!(r.below(7) < 7);
        }
    }

    #[test]
    fn zipf_favours_low_ranks_as_one_over_k() {
        let z = Zipf::new(48, 1.0);
        let mut r = Rng::fork(42, 0);
        let mut hits = [0u32; 48];
        for _ in 0..200_000 {
            hits[z.draw(&mut r)] += 1;
        }
        let ratio = f64::from(hits[0]) / f64::from(hits[3]);
        assert!((ratio - 4.0).abs() < 0.4, "rank 0 vs rank 3: {ratio}");
        assert!(hits[47] > 0);
    }
}
