//! Order statistics over timed samples and a seeded input generator.

use std::time::Duration;

/// The nearest-rank `p`-th percentile (`0 < p ≤ 100`) of `samples`.
/// Sorts in place; returns 0 for an empty slice.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// The median of `samples` (nearest rank).
pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 50.0)
}

/// A duration as `f64` microseconds.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A duration as `f64` milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// splitmix64: a small seeded generator so every input is a pure function
/// of the `--seed` argument.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_ab50_27b0_0c11)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `n` bits, each set with a per-vector density drawn uniformly, so
    /// the stream covers sparse, dense and balanced inputs.
    pub fn bits(&mut self, n: usize) -> Vec<bool> {
        let density = self.next_u64() >> 11;
        (0..n).map(|_| self.next_u64() >> 11 < density).collect()
    }

    /// `count` vectors of `n` bits.
    pub fn batch(&mut self, count: usize, n: usize) -> Vec<Vec<bool>> {
        (0..count).map(|_| self.bits(n)).collect()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), 50.0);
        assert_eq!(percentile(&mut v, 99.0), 99.0);
        assert_eq!(percentile(&mut v, 100.0), 100.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&mut [], 50.0), 0.0);
    }

    #[test]
    fn rng_is_a_function_of_the_seed() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }
}
