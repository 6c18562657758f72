//! TLWE (ring-LWE over the torus) samples — the accumulator type of blind
//! rotation.
//!
//! # The key product
//!
//! Encryption and decryption multiply torus polynomials by the secret
//! key polynomials — 3 780 times in one 128-bit key generation, once per
//! bootstrapping-key row. [`TlweKey`] runs that product through the
//! folded transform of [`crate::fft`], and *exactly*: it equals the
//! schoolbook product mod 2³² bit for bit, so a key is the same bytes
//! whichever way it was multiplied.
//!
//! Every torus coefficient splits into two signed 16-bit limbs,
//! `a ≡ lo + 2¹⁶·hi (mod 2³²)` with `lo, hi ∈ [−2¹⁵, 2¹⁵)`, and
//! `s·a = s·lo + 2¹⁶·(s·hi)`. Each limb product is taken in the
//! transform domain against the key spectrum and rounded back.
//!
//! **Exactness bound.** Let the key polynomial have coefficients in
//! `{−1, 0, 1}` (a binary key does) and `N ≤ 2¹⁴`. Then every
//! coefficient of a limb product is a sum of at most `N` terms of
//! magnitude at most `2¹⁵`, an integer below `N·2¹⁵ ≤ 2²⁹`, and the
//! floating-point error of the transform round trip is below
//! `N·‖s‖₂·‖limb‖₂·(3 log₂N)(2 + √5)·2⁻⁵³` (Percival's bound for FFT
//! multiplication) with `‖s‖₂ ≤ √N`, `‖limb‖₂ ≤ √N·2¹⁵`: under `2⁻⁶` at
//! `N = 2¹²`, under `1/4` at `N = 2¹⁴`. Rounding to the nearest integer
//! therefore recovers each limb product exactly, and reduced mod 2³² and
//! recombined they are the exact product. The f64 hot path of blind
//! rotation makes no such promise and needs none (see [`crate::fft`]).
//! [`TlweKey`] checks the bound on construction, and a proptest pins the
//! product to the schoolbook oracle at every `N` from 2 to 4096 with the
//! worst-case limbs.

use crate::fft::{FftPlan, FreqPoly};
use crate::lwe::{LweCiphertext, LweKey};
use crate::poly::{IntPoly, TorusPoly};
use crate::rng::SecureRng;
use crate::torus::Torus32;

/// Largest ring dimension inside the exactness bound (module docs).
const EXACT_MAX_N: usize = 1 << 14;

/// A TLWE secret key: `k` polynomials of degree bound `N` with
/// coefficients in `{−1, 0, 1}` (binary when generated), held with their
/// spectra for the exact key product (module docs).
#[derive(Debug, Clone)]
pub struct TlweKey {
    polys: Vec<IntPoly>,
    n: usize,
    plan: FftPlan,
    spectra: Vec<FreqPoly>,
}

/// Keys are equal when their polynomials are; the plan and the spectra
/// are functions of those.
impl PartialEq for TlweKey {
    fn eq(&self, other: &Self) -> bool {
        self.polys == other.polys
    }
}

impl Eq for TlweKey {}

impl TlweKey {
    /// Samples a key with `k` binary polynomials of size `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two in `2..=2^14`.
    pub fn generate(k: usize, n: usize, rng: &mut SecureRng) -> Self {
        Self::with_spectra((0..k).map(|_| IntPoly::binary(n, rng)).collect(), n)
    }

    /// Builds a key from explicit polynomials (deserialization), or
    /// `None` when they are outside the exactness bound: no polynomial,
    /// polynomials of different sizes, a size that is not a power of two
    /// in `2..=2^14`, or a coefficient outside `{−1, 0, 1}`.
    pub fn from_polys(polys: Vec<IntPoly>) -> Option<Self> {
        let n = polys.first()?.len();
        let in_bound = n.is_power_of_two()
            && (2..=EXACT_MAX_N).contains(&n)
            && polys
                .iter()
                .all(|p| p.len() == n && p.coeffs().iter().all(|c| (-1..=1).contains(c)));
        in_bound.then(|| Self::with_spectra(polys, n))
    }

    fn with_spectra(polys: Vec<IntPoly>, n: usize) -> Self {
        assert!(n <= EXACT_MAX_N, "ring dimension {n} is beyond the exact key product");
        let plan = FftPlan::new(n);
        let spectra = polys.iter().map(|p| plan.forward_int(p)).collect();
        TlweKey { polys, n, plan, spectra }
    }

    /// GLWE dimension `k`.
    pub fn k(&self) -> usize {
        self.polys.len()
    }

    /// Ring dimension `N`.
    pub fn poly_size(&self) -> usize {
        self.n
    }

    /// The key polynomials.
    pub fn polys(&self) -> &[IntPoly] {
        &self.polys
    }

    /// Encrypts a message polynomial with fresh noise.
    pub fn encrypt_poly(
        &self,
        message: &TorusPoly,
        stdev: f64,
        rng: &mut SecureRng,
    ) -> TlweCiphertext {
        let a = (0..self.k()).map(|_| TorusPoly::uniform(self.n, rng)).collect();
        self.encrypt_poly_with_mask(a, message, stdev, rng)
    }

    /// Encrypts a message polynomial under the mask `a`, drawn from any
    /// source — a seeded key's rows take theirs from public streams —
    /// with fresh noise from `rng`.
    pub(crate) fn encrypt_poly_with_mask(
        &self,
        a: Vec<TorusPoly>,
        message: &TorusPoly,
        stdev: f64,
        rng: &mut SecureRng,
    ) -> TlweCiphertext {
        debug_assert_eq!(message.len(), self.n);
        debug_assert_eq!(a.len(), self.k());
        let mut b = message.clone();
        b.add_gaussian(stdev, rng);
        for (i, ai) in a.iter().enumerate() {
            b.add_assign(&self.key_product(i, ai));
        }
        TlweCiphertext { a, b }
    }

    /// The phase polynomial `b - sum(a_i * s_i)`.
    pub fn phase(&self, ct: &TlweCiphertext) -> TorusPoly {
        let mut phase = ct.b.clone();
        for (i, ai) in ct.a.iter().enumerate() {
            phase.sub_assign(&self.key_product(i, ai));
        }
        phase
    }

    /// The exact negacyclic product `s_i · a` of key polynomial `i`:
    /// two limb products through the transform (module docs).
    fn key_product(&self, i: usize, a: &TorusPoly) -> TorusPoly {
        let (lo, hi): (Vec<i32>, Vec<i32>) = a
            .coeffs()
            .iter()
            .map(|c| {
                let lo = i32::from(c.0 as i16);
                (lo, (c.0.wrapping_sub(lo as u32) as i32) >> 16)
            })
            .unzip();
        let [mut low, high] = [lo, hi].map(|limb| {
            let mut product = FreqPoly::zero(self.n);
            let limb = self.plan.forward_int(&IntPoly::from_coeffs(limb));
            product.sum_products([(&limb, &self.spectra[i])]);
            let mut out = TorusPoly::zero(self.n);
            self.plan.inverse_torus_destructive(&mut product, &mut out);
            out
        });
        for (l, h) in low.coeffs_mut().iter_mut().zip(high.coeffs()) {
            *l += Torus32(h.0 << 16);
        }
        low
    }

    /// Reinterprets the TLWE key as an LWE key of dimension `k * N` — the
    /// key under which extracted samples decrypt.
    pub fn extracted_lwe_key(&self) -> LweKey {
        let mut bits = Vec::with_capacity(self.k() * self.n);
        for p in &self.polys {
            bits.extend_from_slice(p.coeffs());
        }
        LweKey::from_bits(bits)
    }
}

/// A TLWE ciphertext: `k` mask polynomials plus a body polynomial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TlweCiphertext {
    /// Mask polynomials `a_1 .. a_k`.
    pub(crate) a: Vec<TorusPoly>,
    /// Body polynomial `b`.
    pub(crate) b: TorusPoly,
}

impl TlweCiphertext {
    /// The trivial (noiseless) encryption of `message`.
    pub fn trivial(message: TorusPoly, k: usize) -> Self {
        let n = message.len();
        TlweCiphertext { a: (0..k).map(|_| TorusPoly::zero(n)).collect(), b: message }
    }

    /// GLWE dimension `k`.
    pub fn k(&self) -> usize {
        self.a.len()
    }

    /// Ring dimension `N`.
    pub fn poly_size(&self) -> usize {
        self.b.len()
    }

    /// All `k + 1` polynomials, mask first then body.
    pub fn polys(&self) -> impl Iterator<Item = &TorusPoly> {
        self.a.iter().chain(std::iter::once(&self.b))
    }

    /// Polynomial `u ≤ k`: the mask polynomials, then the body at `k`.
    pub(crate) fn poly(&self, u: usize) -> &TorusPoly {
        self.a.get(u).unwrap_or(&self.b)
    }

    /// Mutable [`TlweCiphertext::poly`].
    pub(crate) fn poly_mut(&mut self, u: usize) -> &mut TorusPoly {
        self.a.get_mut(u).unwrap_or(&mut self.b)
    }

    /// `self += other`.
    pub fn add_assign(&mut self, other: &TlweCiphertext) {
        for (x, y) in self.a.iter_mut().zip(&other.a) {
            x.add_assign(y);
        }
        self.b.add_assign(&other.b);
    }

    /// `self -= other`.
    pub fn sub_assign(&mut self, other: &TlweCiphertext) {
        for (x, y) in self.a.iter_mut().zip(&other.a) {
            x.sub_assign(y);
        }
        self.b.sub_assign(&other.b);
    }

    /// Rotates every polynomial by `X^amount` (negacyclic).
    pub fn rotate(&self, amount: usize) -> TlweCiphertext {
        TlweCiphertext {
            a: self.a.iter().map(|p| p.mul_by_xk(amount)).collect(),
            b: self.b.mul_by_xk(amount),
        }
    }

    /// Extracts the LWE encryption of the constant coefficient of the
    /// phase, under [`TlweKey::extracted_lwe_key`]. This is the bridge from
    /// the blind-rotated accumulator back to an ordinary LWE sample.
    pub fn extract_lwe(&self) -> LweCiphertext {
        let n = self.poly_size();
        let mut out = LweCiphertext::trivial(Torus32::ZERO, self.k() * n);
        self.extract_lwe_into(&mut out);
        out
    }

    /// Like [`TlweCiphertext::extract_lwe`], writing into `out` (dimension
    /// `k * N`) without allocating.
    pub fn extract_lwe_into(&self, out: &mut LweCiphertext) {
        let n = self.poly_size();
        out.assign_trivial(self.b.coeffs()[0], self.k() * n);
        let mask = out.mask_mut();
        for (poly, chunk) in self.a.iter().zip(mask.chunks_exact_mut(n)) {
            let c = poly.coeffs();
            chunk[0] = c[0];
            for j in 1..n {
                chunk[j] = -c[n - j];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poly::naive_negacyclic_mul;
    use crate::torus::Torus32;
    use proptest::prelude::*;

    const STDEV: f64 = 1e-8;

    /// Torus values whose two limbs sit at the ends of `[−2^15, 2^15)`:
    /// `(lo, hi)` = `(−2^15, −2^15)`, `(2^15−1, 2^15−1)`, `(−2^15, 2^15−1)`
    /// and `(2^15−1, −2^15)`.
    const EXTREME_LIMBS: [u32; 4] = [0x7FFF_8000, 0x7FFF_7FFF, 0x7FFE_8000, 0x8000_7FFF];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The limb product equals the schoolbook product at every ring
        /// size from 2 to 4096: binary and `{−1, 0, 1}` keys against
        /// uniform coefficients, and the all-ones key against extreme
        /// limbs — constant `(−2^15, −2^15)`, where a product coefficient
        /// reaches `N·2^15`, and mixed.
        #[test]
        fn key_product_equals_the_schoolbook_product(seed in any::<u64>(), shape in 0usize..4) {
            let mut rng = SecureRng::seed_from_u64(seed);
            for n in (1..=12).map(|log_n| 1usize << log_n) {
                let key: Vec<i32> = match shape {
                    0 => IntPoly::binary(n, &mut rng).coeffs().to_vec(),
                    1 => (0..n).map(|_| (rng.uniform_u32() % 3) as i32 - 1).collect(),
                    _ => vec![1; n],
                };
                let a: Vec<Torus32> = match shape {
                    0 | 1 => TorusPoly::uniform(n, &mut rng).coeffs().to_vec(),
                    2 => vec![Torus32(EXTREME_LIMBS[0]); n],
                    _ => (0..n).map(|_| Torus32(EXTREME_LIMBS[rng.uniform_u32() as usize % 4])).collect(),
                };
                let s = IntPoly::from_coeffs(key);
                let a = TorusPoly::from_coeffs(a);
                let tlwe = TlweKey::from_polys(vec![s.clone()]).expect("inside the bound");
                prop_assert_eq!(tlwe.key_product(0, &a), naive_negacyclic_mul(&s, &a), "n={n} shape={shape}");
            }
        }
    }

    #[test]
    fn keys_outside_the_exactness_bound_are_refused() {
        let poly = |n: usize, c: i32| IntPoly::from_coeffs(vec![c; n]);
        assert!(TlweKey::from_polys(vec![poly(64, 1), poly(64, -1)]).is_some());
        assert!(TlweKey::from_polys(vec![]).is_none(), "no polynomial");
        assert!(TlweKey::from_polys(vec![poly(64, 1), poly(32, 1)]).is_none(), "two sizes");
        assert!(TlweKey::from_polys(vec![poly(48, 1)]).is_none(), "not a power of two");
        assert!(TlweKey::from_polys(vec![poly(1, 1)]).is_none(), "below 2");
        assert!(TlweKey::from_polys(vec![poly(EXACT_MAX_N * 2, 0)]).is_none(), "beyond 2^14");
        assert!(TlweKey::from_polys(vec![poly(64, 2)]).is_none(), "a coefficient of 2");
        assert!(TlweKey::from_polys(vec![poly(64, i32::MIN)]).is_none(), "i32::MIN");
    }

    fn max_abs_phase_err(phase: &TorusPoly, want: &TorusPoly) -> f64 {
        phase
            .coeffs()
            .iter()
            .zip(want.coeffs())
            .map(|(&p, &w)| (p - w).to_f64().abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn encrypt_decrypt_round_trip() {
        let mut rng = SecureRng::seed_from_u64(30);
        let key = TlweKey::generate(1, 64, &mut rng);
        let msg = TorusPoly::fill(Torus32::from_fraction(1, 3), 64);
        let ct = key.encrypt_poly(&msg, STDEV, &mut rng);
        let phase = key.phase(&ct);
        assert!(max_abs_phase_err(&phase, &msg) < 1e-5);
    }

    #[test]
    fn trivial_phase_is_exact() {
        let mut rng = SecureRng::seed_from_u64(31);
        let key = TlweKey::generate(2, 32, &mut rng);
        let msg = TorusPoly::fill(Torus32::from_fraction(-1, 3), 32);
        let ct = TlweCiphertext::trivial(msg.clone(), 2);
        assert_eq!(key.phase(&ct), msg);
    }

    #[test]
    fn rotation_commutes_with_phase() {
        let mut rng = SecureRng::seed_from_u64(32);
        let n = 32;
        let key = TlweKey::generate(1, n, &mut rng);
        let msg = TorusPoly::uniform(n, &mut rng);
        let ct = key.encrypt_poly(&msg, STDEV, &mut rng);
        for amount in [1, n / 2, n, 2 * n - 1] {
            let rotated = ct.rotate(amount);
            let phase = key.phase(&rotated);
            let want = key.phase(&ct).mul_by_xk(amount);
            assert_eq!(phase, want, "rotation is exact on ciphertexts, amount={amount}");
        }
    }

    #[test]
    fn extract_yields_constant_coefficient() {
        let mut rng = SecureRng::seed_from_u64(33);
        let n = 64;
        let key = TlweKey::generate(1, n, &mut rng);
        let mut msg = TorusPoly::zero(n);
        msg.coeffs_mut()[0] = Torus32::from_fraction(1, 3);
        msg.coeffs_mut()[1] = Torus32::from_fraction(-1, 2);
        let ct = key.encrypt_poly(&msg, STDEV, &mut rng);
        let lwe = ct.extract_lwe();
        let lwe_key = key.extracted_lwe_key();
        assert_eq!(lwe.dim(), n);
        let phase = lwe_key.phase(&lwe);
        let err = (phase - Torus32::from_fraction(1, 3)).to_f64().abs();
        assert!(err < 1e-5, "err={err}");
    }

    #[test]
    fn extract_after_rotation_reads_other_coefficients() {
        let mut rng = SecureRng::seed_from_u64(34);
        let n = 32;
        let key = TlweKey::generate(1, n, &mut rng);
        let msg = TorusPoly::uniform(n, &mut rng);
        let ct = key.encrypt_poly(&msg, STDEV, &mut rng);
        let lwe_key = key.extracted_lwe_key();
        // Rotating by 2N - j moves coefficient j to position 0.
        for j in [0usize, 1, 7, n - 1] {
            let rotated = ct.rotate((2 * n - j) % (2 * n));
            let phase = lwe_key.phase(&rotated.extract_lwe());
            let err = (phase - msg.coeffs()[j]).to_f64().abs();
            assert!(err < 1e-5, "j={j} err={err}");
        }
    }

    #[test]
    fn homomorphic_add_sub() {
        let mut rng = SecureRng::seed_from_u64(35);
        let n = 32;
        let key = TlweKey::generate(1, n, &mut rng);
        let m1 = TorusPoly::uniform(n, &mut rng);
        let m2 = TorusPoly::uniform(n, &mut rng);
        let c1 = key.encrypt_poly(&m1, STDEV, &mut rng);
        let c2 = key.encrypt_poly(&m2, STDEV, &mut rng);
        let mut sum = c1.clone();
        sum.add_assign(&c2);
        let mut want = m1.clone();
        want.add_assign(&m2);
        assert!(max_abs_phase_err(&key.phase(&sum), &want) < 1e-5);
        sum.sub_assign(&c2);
        assert!(max_abs_phase_err(&key.phase(&sum), &m1) < 1e-5);
    }
}
