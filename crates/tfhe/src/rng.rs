use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The bit that puts a row index in the noise-stream domain. Row indices
/// of both keys stay below `2³³`.
const NOISE_DOMAIN: u64 = 1 << 63;

/// The randomness source used for key generation and encryption.
///
/// Wraps the workspace's [`StdRng`] — the vendored SplitMix64 stream,
/// statistically sound but **not** a cryptographic generator — and adds
/// the torus-Gaussian sampling TFHE needs. A deterministic
/// [`SecureRng::seed_from_u64`] constructor is provided for reproducible
/// tests and benchmarks; production use should prefer
/// [`SecureRng::from_entropy`].
///
/// A seeded server key draws from two families of per-row streams, each a
/// function of a seed and a row index alone: the public *mask* streams
/// (`SecureRng::mask_stream`, the seed travels with the key) and the
/// secret *noise* streams (`SecureRng::noise_stream`, the seed never
/// leaves the client). The families are domain-separated: a noise row's
/// index enters the hash with its top bit set, which no mask row index
/// has, and the hash is a bijection, so under one seed no noise stream
/// starts where a mask stream does. Both families — the secret noise
/// included — are only as strong as SplitMix64 until a keyed PRF
/// (ChaCha, AES-CTR) replaces it.
#[derive(Debug)]
pub struct SecureRng {
    inner: StdRng,
    /// Spare Gaussian variate from the last Box–Muller draw.
    spare: Option<f64>,
}

impl SecureRng {
    /// Creates an RNG seeded from the thread-local entropy source.
    pub fn from_entropy() -> Self {
        SecureRng { inner: rand::make_rng(), spare: None }
    }

    /// Creates a deterministic RNG for tests and reproducible benchmarks.
    pub fn seed_from_u64(seed: u64) -> Self {
        SecureRng { inner: StdRng::seed_from_u64(seed), spare: None }
    }

    /// The public stream that row `row` of a seeded server key draws its
    /// uniform mask from (see [`crate::keys::ServerKey`]). Every row has
    /// its own stream, a function of `(seed, row)` alone, so whoever holds
    /// the seed regenerates any row's mask, in any order, and only the
    /// bodies have to travel. The row's generator state is the seed and
    /// the row index through two rounds of the SplitMix64 finaliser, so
    /// neighbouring rows start far apart on the generator's sequence.
    pub(crate) fn mask_stream(seed: u64, row: u64) -> Self {
        let hash = |x: u64| StdRng::seed_from_u64(x).random::<u64>();
        SecureRng { inner: StdRng::seed_from_u64(hash(seed ^ hash(row))), spare: None }
    }

    /// The secret stream that row `row` of a server key draws its noise
    /// from: [`SecureRng::mask_stream`]'s construction on the row index
    /// with [`NOISE_DOMAIN`] set, a domain no mask row reaches. Every row
    /// having its own stream is what lets key generation run its rows on
    /// any number of lanes with the same bytes.
    pub(crate) fn noise_stream(seed: u64, row: u64) -> Self {
        debug_assert!(row < NOISE_DOMAIN, "row indices stay below the noise domain bit");
        Self::mask_stream(seed, row | NOISE_DOMAIN)
    }

    /// A uniformly random `u64` (a fresh mask seed).
    pub(crate) fn uniform_u64(&mut self) -> u64 {
        self.inner.random()
    }

    /// A uniformly random `u32` (i.e. a uniform torus element).
    #[inline]
    pub fn uniform_u32(&mut self) -> u32 {
        self.inner.random()
    }

    /// A uniformly random bit.
    #[inline]
    pub fn bit(&mut self) -> bool {
        self.inner.random()
    }

    /// A standard-normal variate via Box–Muller (caching the spare).
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        loop {
            let u1: f64 = self.inner.random();
            if u1 <= f64::MIN_POSITIVE {
                continue;
            }
            let u2: f64 = self.inner.random();
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = std::f64::consts::TAU * u2;
            self.spare = Some(r * theta.sin());
            return r * theta.cos();
        }
    }

    /// A Gaussian variate with the given standard deviation.
    #[inline]
    pub fn gaussian(&mut self, stdev: f64) -> f64 {
        self.standard_normal() * stdev
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_with_seed() {
        let mut a = SecureRng::seed_from_u64(42);
        let mut b = SecureRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.uniform_u32(), b.uniform_u32());
        }
    }

    #[test]
    fn mask_streams_depend_on_seed_and_row() {
        let draw = |seed, row| {
            let mut s = SecureRng::mask_stream(seed, row);
            (0..4).map(|_| s.uniform_u32()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 3), draw(7, 3));
        assert_ne!(draw(7, 3), draw(7, 4));
        assert_ne!(draw(7, 3), draw(8, 3));
    }

    #[test]
    fn noise_and_mask_streams_of_one_seed_and_row_differ() {
        let draw = |mut s: SecureRng| (0..4).map(|_| s.uniform_u32()).collect::<Vec<_>>();
        for row in [0, 1, 3779, 1 << 32, (1 << 32) + 24_575] {
            let noise = draw(SecureRng::noise_stream(7, row));
            assert_eq!(noise, draw(SecureRng::noise_stream(7, row)));
            assert_ne!(noise, draw(SecureRng::mask_stream(7, row)), "row {row}");
            assert_ne!(noise, draw(SecureRng::noise_stream(7, row + 1)), "row {row}");
        }
    }

    #[test]
    fn entropy_rngs_differ() {
        let mut a = SecureRng::from_entropy();
        let mut b = SecureRng::from_entropy();
        let sa: Vec<u32> = (0..4).map(|_| a.uniform_u32()).collect();
        let sb: Vec<u32> = (0..4).map(|_| b.uniform_u32()).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = SecureRng::seed_from_u64(1);
        let n = 100_000;
        let stdev = 3.0;
        let samples: Vec<f64> = (0..n).map(|_| rng.gaussian(stdev)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var.sqrt() - stdev).abs() < 0.05, "stdev {}", var.sqrt());
    }

    #[test]
    fn uniform_is_spread() {
        let mut rng = SecureRng::seed_from_u64(2);
        let mut buckets = [0u32; 16];
        for _ in 0..16000 {
            buckets[(rng.uniform_u32() >> 28) as usize] += 1;
        }
        for &b in &buckets {
            assert!((700..1300).contains(&b), "bucket {b}");
        }
    }
}
