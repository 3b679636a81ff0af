//! Seeded randomness for the generator: SplitMix64 and a Zipf sampler.
//!
//! The benchmark owns its generator so that equal seeds give equal inputs
//! whatever happens to the repo's vendored `rand` stand-in.

/// SplitMix64 (Steele, Lea, Flood): 64 bits of state, passes BigCrush,
/// and every seed — including 0 — is a good seed.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng { state: seed }
    }

    /// An independent stream for `lane` (a thread, a phase): the same
    /// `(seed, lane)` always yields the same stream.
    pub fn fork(seed: u64, lane: u64) -> Rng {
        let mut base = Rng::new(seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F));
        Rng::new(base.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of mantissa.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be positive. The modulo bias is below
    /// 2^-40 for every `n` the benchmark uses.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

/// Zipf(s) over `n` items by inverse-CDF binary search. Rank `r` maps to
/// item `order[r]`, a seeded shuffle, so the hot items differ per seed and
/// never line up with shard or category boundaries.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    order: Vec<u32>,
}

impl Zipf {
    pub fn new(n: u32, s: f64, seed: u64) -> Zipf {
        assert!(n > 0, "Zipf needs at least one item");
        let mut cdf = Vec::with_capacity(n as usize);
        let mut total = 0.0;
        for rank in 1..=n {
            total += (rank as f64).powf(-s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        let mut order: Vec<u32> = (0..n).collect();
        let mut rng = Rng::fork(seed, 0x5A17);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        Zipf { cdf, order }
    }

    pub fn sample(&self, rng: &mut Rng) -> u32 {
        let u = rng.unit();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.order[rank]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_equal_streams() {
        let mut a = Rng::fork(42, 3);
        let mut b = Rng::fork(42, 3);
        let mut c = Rng::fork(43, 3);
        let xs: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..64).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn zipf_is_identical_for_equal_seeds_and_skewed() {
        let a = Zipf::new(1000, 0.9, 7);
        let b = Zipf::new(1000, 0.9, 7);
        let mut ra = Rng::new(1);
        let mut rb = Rng::new(1);
        let xs: Vec<u32> = (0..10_000).map(|_| a.sample(&mut ra)).collect();
        let ys: Vec<u32> = (0..10_000).map(|_| b.sample(&mut rb)).collect();
        assert_eq!(xs, ys);
        // The hottest item (rank 0) takes far more than a uniform share.
        let hottest = a.order[0];
        let hits = xs.iter().filter(|&&x| x == hottest).count();
        assert!(hits > 10_000 / 1000 * 20, "rank 0 drew only {hits}");
        assert!(xs.iter().all(|&x| x < 1000));
    }

    #[test]
    fn unit_stays_in_range() {
        let mut rng = Rng::new(0);
        for _ in 0..10_000 {
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }
}
