//! Fast negacyclic polynomial multiplication via the folded ("Lagrange
//! half-complex") twisted FFT.
//!
//! TFHE's hot loop — the external products inside blind rotation —
//! multiplies small-integer polynomials by torus polynomials in
//! `T[X]/(X^N + 1)`. The negacyclic DFT evaluates a polynomial at the `N`
//! odd roots of unity `e^{iπ(2t+1)/N}`; because the inputs are *real*,
//! the values at conjugate root pairs are conjugates of each other, so
//! only `N/2` of them carry information. Folding coefficient pairs
//! `(p[j], p[j + N/2])` into one complex input
//!
//! ```text
//! c[j] = (p[j] + i·p[j + N/2]) · e^{iπj/N},      j < N/2
//! ```
//!
//! and running an `N/2`-point FFT with `e^{+2πi/M}` twiddles yields
//! exactly the evaluations `p(ζ_k)` at `ζ_k = e^{iπ(1 + 4k)/N}` — one
//! representative from each conjugate pair (the angles `1 + 4k` are the
//! odd residues `≡ 1 (mod 4)`, whose negations are `≡ 3 (mod 4)`).
//! Pointwise products of these `N/2` values therefore realise negacyclic
//! convolution with *half* the transform work and half the storage of
//! the classic full-size complex FFT, which is why the TFHE library (and
//! every accelerator since — MATCHA batches exactly these transforms)
//! stores its bootstrapping key in this form.
//!
//! [`FreqPoly`] keeps the `N/2` points as split `re`/`im` arrays
//! (structure-of-arrays, 64-byte aligned), so the external-product
//! multiply-accumulate compiles to straight-line FMA-friendly loops over
//! four flat `f64` slices instead of an array-of-structs gather.
//!
//! # Pass structure and the two orders
//!
//! The transform itself lives in [`crate::simd`] ([`Kernels::forward`] /
//! [`Kernels::inverse`]): a decimation-in-frequency forward whose first
//! radix-4 pass also converts the integers and applies the twist, and a
//! decimation-in-time inverse whose last pass also scales, untwists and
//! rounds. Neither contains a bit-reversal pass, so **in memory a
//! spectrum is in bit-reversed order**: evaluation `k` sits at slot
//! `bitrev(k)`. Every in-memory consumer — the MAC, the inverse, the
//! bootstrapping key rows — is either order-agnostic or expects exactly
//! that order. The natural order survives in one place only:
//! [`FreqPoly::point`], for code that needs to know *which* evaluation a
//! value is. No spectrum is ever serialized: a server key travels as
//! coefficient-domain bodies, and the server transforms them on its own
//! SIMD tier ([`crate::io`]).
//!
//! Precision: products of decomposed digits (`|d| ≤ Bg/2 = 64`) with
//! torus values (`< 2^31`) accumulated over `N = 1024` taps stay below
//! `2^47`, comfortably inside an `f64` mantissa even after the
//! `(k+1)·l`-row accumulation of the external product; the sub-unit
//! rounding error folds into the scheme's noise budget exactly as in the
//! reference TFHE library. The independent full-size radix-2 transform
//! of the test-only `reference` module is the oracle both are tested
//! against.
//!
//! Key generation needs more: its products by the secret key must be
//! *exact*, because the key bytes may not depend on how they were
//! multiplied. [`crate::tlwe`] gets that from the same plan by splitting
//! every torus coefficient into two signed 16-bit limbs: against a key
//! with coefficients in `{−1, 0, 1}` each limb product is an integer of
//! magnitude below `N·2¹⁵`, whose rounding error stays far below `1/2`
//! for every `N ≤ 2¹⁴`. The bound and its check live there.
//!
//! [`Kernels::forward`]: crate::simd::Kernels::forward
//! [`Kernels::inverse`]: crate::simd::Kernels::inverse

use crate::align::AlignedBuf;
use crate::poly::{IntPoly, TorusPoly};
use crate::simd::{self, Twiddles};
use crate::torus::Torus32;
use crate::trace::note_buffer_alloc;

/// Slot of evaluation `k` in a bit-reversed spectrum of `points` values
/// (and, the permutation being an involution, the evaluation held by
/// slot `k`).
fn bit_reverse(k: usize, points: usize) -> usize {
    match points.trailing_zeros() {
        0 => 0,
        bits => k.reverse_bits() >> (usize::BITS - bits),
    }
}

/// A real negacyclic polynomial in the folded twisted frequency domain
/// ("Lagrange half-complex" in TFHE-library terminology): `N/2` complex
/// points stored as split `re`/`im` arrays, in the transform's
/// bit-reversed order. Pointwise products here correspond to negacyclic
/// products in the coefficient domain.
#[derive(Debug, PartialEq)]
pub struct FreqPoly {
    re: AlignedBuf<f64>,
    im: AlignedBuf<f64>,
}

/// `Clone` is implemented manually so every fresh pair of buffers is
/// visible to the allocation accounting in [`crate::trace`] — the derived
/// impl would allocate behind the counter's back. `clone_from` reuses the
/// destination's buffers and stays alloc-free for same-size sources.
impl Clone for FreqPoly {
    fn clone(&self) -> Self {
        note_buffer_alloc();
        FreqPoly { re: self.re.clone(), im: self.im.clone() }
    }

    fn clone_from(&mut self, source: &Self) {
        self.re.clone_from(&source.re);
        self.im.clone_from(&source.im);
    }
}

impl FreqPoly {
    /// The zero frequency-domain polynomial for *polynomial* degree bound
    /// `n` (a power of two, at least 2): holds exactly `n/2` points.
    ///
    /// # Panics
    ///
    /// Panics if `n` is odd or smaller than 2.
    pub fn zero(n: usize) -> Self {
        assert!(
            n >= 2 && n.is_multiple_of(2),
            "FreqPoly is sized for even polynomial lengths >= 2"
        );
        note_buffer_alloc();
        FreqPoly { re: AlignedBuf::zeroed(n / 2), im: AlignedBuf::zeroed(n / 2) }
    }

    /// Number of stored frequency points (`N/2`).
    #[inline]
    pub fn points(&self) -> usize {
        self.re.len()
    }

    /// Degree bound `N` of the coefficient-domain polynomial
    /// (`2 * points`).
    #[inline]
    pub fn poly_len(&self) -> usize {
        2 * self.re.len()
    }

    /// Whether the container is empty.
    pub fn is_empty(&self) -> bool {
        self.re.is_empty()
    }

    /// Evaluation `k` in natural order: the value `(re, im)` of the
    /// polynomial at `ζ_k = e^{iπ(1+4k)/N}`, wherever the transform's
    /// bit-reversed layout keeps it.
    ///
    /// # Panics
    ///
    /// Panics if `k >= points()`.
    pub fn point(&self, k: usize) -> (f64, f64) {
        assert!(k < self.points(), "evaluation {k} out of range");
        let slot = bit_reverse(k, self.points());
        (self.re[slot], self.im[slot])
    }

    /// Resets to zero without reallocating.
    pub fn clear(&mut self) {
        self.re.fill_zero();
        self.im.fill_zero();
    }

    /// `self += a * b` pointwise — the multiply-accumulate at the heart of
    /// the external product. Dispatched through the [`crate::simd`]
    /// kernel layer (explicit FMA lanes on AVX hosts, the
    /// autovectorized flat-slice loop on the scalar path).
    ///
    /// # Panics
    ///
    /// Panics if the three spectra differ in size.
    pub fn add_mul_assign(&mut self, a: &FreqPoly, b: &FreqPoly) {
        simd::kernels().mac(&mut self.re, &mut self.im, &a.re, &a.im, &b.re, &b.im);
    }
}

/// Precomputed tables for folded transforms of one polynomial size `N`
/// (transform size `M = N/2`): the [`Twiddles`] every [`crate::simd`]
/// transform kernel reads. Works for every power of two `N >= 2`
/// through the same entry points — sizes below the vector kernels'
/// smallest block run the portable kernel, in the same order.
#[derive(Debug, Clone)]
pub struct FftPlan {
    tables: Twiddles,
}

impl FftPlan {
    /// Builds a plan for polynomials of degree bound `n` (a power of two,
    /// at least 2).
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two or is smaller than 2.
    pub fn new(n: usize) -> Self {
        FftPlan { tables: Twiddles::new(n) }
    }

    /// Polynomial degree bound `N`.
    pub fn len(&self) -> usize {
        2 * self.tables.points()
    }

    /// Folded transform size `M = N/2`.
    pub fn points(&self) -> usize {
        self.tables.points()
    }

    /// Whether the plan is empty (never true; present for API symmetry).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Forward transform of a torus polynomial (coefficients lifted to
    /// signed integers), allocating the output.
    pub fn forward_torus(&self, p: &TorusPoly) -> FreqPoly {
        let mut out = FreqPoly::zero(self.len());
        self.forward_torus_into(p, &mut out);
        out
    }

    /// Like [`FftPlan::forward_torus`] but reuses `out`'s buffers.
    pub fn forward_torus_into(&self, p: &TorusPoly, out: &mut FreqPoly) {
        let c = Torus32::slice_as_i32(p.coeffs());
        simd::kernels().forward(&self.tables, c, &mut out.re, &mut out.im);
    }

    /// Forward transform of an integer polynomial, allocating the output.
    pub fn forward_int(&self, p: &IntPoly) -> FreqPoly {
        let mut out = FreqPoly::zero(self.len());
        self.forward_int_into(p, &mut out);
        out
    }

    /// Like [`FftPlan::forward_int`] but reuses `out`'s buffers — the
    /// per-digit transform of the external product's hot loop.
    ///
    /// # Panics
    ///
    /// Panics (like every transform here) if `p` or `out` is not of the
    /// plan's size.
    pub fn forward_int_into(&self, p: &IntPoly, out: &mut FreqPoly) {
        simd::kernels().forward(&self.tables, p.coeffs(), &mut out.re, &mut out.im);
    }

    /// Inverse transform, rounding back to torus coefficients. Allocates
    /// a working copy (counted); the hot path uses
    /// [`FftPlan::inverse_torus_destructive`] on scratch instead.
    pub fn inverse_torus(&self, f: &FreqPoly) -> TorusPoly {
        let mut tmp = f.clone();
        let mut out = TorusPoly::zero(self.len());
        self.inverse_torus_destructive(&mut tmp, &mut out);
        out
    }

    /// Inverse transform consuming `f`'s contents (the inverse FFT runs in
    /// `f`'s own buffers), writing rounded torus coefficients into `out`:
    /// the real part of point `j` is coefficient `j`, the imaginary part
    /// `j + N/2`. Allocation-free; `f` holds garbage afterwards.
    pub fn inverse_torus_destructive(&self, f: &mut FreqPoly, out: &mut TorusPoly) {
        simd::kernels().inverse(&self.tables, &mut f.re, &mut f.im, out.coeffs_mut());
    }

    /// Convenience: full negacyclic product `a * b` through the frequency
    /// domain. The hot paths use the split transforms directly to batch
    /// multiply-accumulates.
    pub fn negacyclic_mul(&self, a: &IntPoly, b: &TorusPoly) -> TorusPoly {
        let fa = self.forward_int(a);
        let fb = self.forward_torus(b);
        let mut acc = FreqPoly::zero(self.len());
        acc.add_mul_assign(&fa, &fb);
        self.inverse_torus(&acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poly::naive_negacyclic_mul;
    use crate::reference::RefFftPlan;
    use crate::rng::SecureRng;
    use crate::trace::thread_buffer_allocs;
    use proptest::prelude::*;

    #[test]
    fn fft_matches_naive_small() {
        let mut rng = SecureRng::seed_from_u64(10);
        for n in [2usize, 4, 8, 32, 128] {
            let plan = FftPlan::new(n);
            for _ in 0..5 {
                let a = IntPoly::from_coeffs(
                    (0..n).map(|_| (rng.uniform_u32() % 128) as i32 - 64).collect(),
                );
                let b = TorusPoly::uniform(n, &mut rng);
                assert_eq!(plan.negacyclic_mul(&a, &b), naive_negacyclic_mul(&a, &b), "n={n}");
            }
        }
    }

    #[test]
    fn fft_matches_naive_production_size() {
        let mut rng = SecureRng::seed_from_u64(11);
        let n = 1024;
        let plan = FftPlan::new(n);
        let a =
            IntPoly::from_coeffs((0..n).map(|_| (rng.uniform_u32() % 128) as i32 - 64).collect());
        let b = TorusPoly::uniform(n, &mut rng);
        assert_eq!(plan.negacyclic_mul(&a, &b), naive_negacyclic_mul(&a, &b));
    }

    #[test]
    fn folded_matches_full_size_reference() {
        // The retired full-size complex FFT is kept in `reference` purely
        // as this cross-check oracle: both paths must agree coefficient
        // for coefficient on every supported size.
        let mut rng = SecureRng::seed_from_u64(14);
        for n in [2usize, 4, 16, 64, 256, 1024] {
            let folded = FftPlan::new(n);
            let full = RefFftPlan::new(n);
            for _ in 0..3 {
                let a = IntPoly::from_coeffs(
                    (0..n).map(|_| (rng.uniform_u32() % 128) as i32 - 64).collect(),
                );
                let b = TorusPoly::uniform(n, &mut rng);
                assert_eq!(folded.negacyclic_mul(&a, &b), full.negacyclic_mul(&a, &b), "n={n}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The folded plan agrees with the retired full-size oracle.
        #[test]
        fn folded_fft_matches_full_size_reference(
            a in prop::collection::vec(-512i32..512, 256),
            b in prop::collection::vec(any::<u32>(), 256),
        ) {
            let plan = FftPlan::new(256);
            let oracle = RefFftPlan::new(256);
            let ip = IntPoly::from_coeffs(a);
            let tp = TorusPoly::from_coeffs(b.into_iter().map(Torus32).collect());
            prop_assert_eq!(plan.negacyclic_mul(&ip, &tp), oracle.negacyclic_mul(&ip, &tp));
        }
    }

    #[test]
    fn folded_points_match_reference_spectrum() {
        // Folded evaluation k is p(e^{iπ(1+4k)/N}); the full-size transform's
        // slot k' holds p(e^{iπ(1-2k')/N}). Angles match at k' = -2k mod N,
        // pinning down the exact evaluation points of the representation.
        let mut rng = SecureRng::seed_from_u64(15);
        let n = 64;
        let folded = FftPlan::new(n);
        let full = RefFftPlan::new(n);
        let p =
            IntPoly::from_coeffs((0..n).map(|_| (rng.uniform_u32() % 64) as i32 - 32).collect());
        let hc = folded.forward_int(&p);
        let fc = full.forward_int_values(&p);
        for k in 0..n / 2 {
            let kp = (n - 2 * k) % n;
            let (re, im) = hc.point(k);
            assert!(
                (re - fc[kp].re).abs() < 1e-6 && (im - fc[kp].im).abs() < 1e-6,
                "k={k}: folded ({re}, {im}) vs reference ({}, {})",
                fc[kp].re,
                fc[kp].im,
            );
        }
    }

    #[test]
    fn forward_inverse_round_trip_is_exact() {
        // Transform values are bounded by N·2^31 < 2^41, so the relative
        // f64 error leaves every coefficient within far less than half a
        // torus quantum of its original value: the round trip is exact.
        let mut rng = SecureRng::seed_from_u64(16);
        for n in [2usize, 8, 128, 1024] {
            let plan = FftPlan::new(n);
            let p = TorusPoly::uniform(n, &mut rng);
            assert_eq!(plan.inverse_torus(&plan.forward_torus(&p)), p, "n={n}");
        }
    }

    #[test]
    fn freq_poly_holds_half_the_points() {
        let plan = FftPlan::new(1024);
        assert_eq!(plan.points(), 512);
        let f = FreqPoly::zero(1024);
        assert_eq!(f.points(), 512);
        assert_eq!(f.poly_len(), 1024);
    }

    #[test]
    fn clone_is_counted_and_clone_from_is_free() {
        let f = FreqPoly::zero(64);
        let before = thread_buffer_allocs();
        let mut g = f.clone();
        assert_eq!(thread_buffer_allocs() - before, 1, "clone must be visible to accounting");
        let before = thread_buffer_allocs();
        g.clone_from(&f);
        assert_eq!(thread_buffer_allocs() - before, 0, "clone_from must reuse buffers");
    }

    #[test]
    fn inverse_torus_destructive_does_not_allocate() {
        let mut rng = SecureRng::seed_from_u64(17);
        let n = 128;
        let plan = FftPlan::new(n);
        let p = TorusPoly::uniform(n, &mut rng);
        let mut f = plan.forward_torus(&p);
        let mut out = TorusPoly::zero(n);
        let before = thread_buffer_allocs();
        plan.inverse_torus_destructive(&mut f, &mut out);
        assert_eq!(thread_buffer_allocs() - before, 0);
        assert_eq!(out, p);
    }

    #[test]
    fn mac_distributes() {
        // inverse(fa1*fb + fa2*fb) == naive(a1, b) + naive(a2, b)
        let mut rng = SecureRng::seed_from_u64(12);
        let n = 64;
        let plan = FftPlan::new(n);
        let a1 =
            IntPoly::from_coeffs((0..n).map(|_| (rng.uniform_u32() % 16) as i32 - 8).collect());
        let a2 =
            IntPoly::from_coeffs((0..n).map(|_| (rng.uniform_u32() % 16) as i32 - 8).collect());
        let b = TorusPoly::uniform(n, &mut rng);
        let fb = plan.forward_torus(&b);
        let mut acc = FreqPoly::zero(n);
        acc.add_mul_assign(&plan.forward_int(&a1), &fb);
        acc.add_mul_assign(&plan.forward_int(&a2), &fb);
        let got = plan.inverse_torus(&acc);
        let mut want = naive_negacyclic_mul(&a1, &b);
        want.add_assign(&naive_negacyclic_mul(&a2, &b));
        assert_eq!(got, want);
    }

    #[test]
    fn forward_int_into_reuses_buffer() {
        let mut rng = SecureRng::seed_from_u64(13);
        let n = 32;
        let plan = FftPlan::new(n);
        let a = IntPoly::binary(n, &mut rng);
        let mut out = FreqPoly::zero(n);
        plan.forward_int_into(&a, &mut out);
        assert_eq!(out, plan.forward_int(&a));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = FftPlan::new(48);
    }

    #[test]
    fn every_size_on_every_path_round_trips_and_multiplies_exactly() {
        // Every power of two the plan accepts, through each backend's own
        // kernels (no process-global dispatch involved): below, at and
        // above the vector code's smallest block, odd and even log2 M.
        let mut rng = SecureRng::seed_from_u64(18);
        for log_n in 1..=11 {
            let n = 1usize << log_n;
            let plan = FftPlan::new(n);
            let a = IntPoly::from_coeffs(
                (0..n).map(|_| (rng.uniform_u32() % 128) as i32 - 64).collect(),
            );
            let b = TorusPoly::uniform(n, &mut rng);
            let want = naive_negacyclic_mul(&a, &b);
            assert_eq!(RefFftPlan::new(n).negacyclic_mul(&a, &b), want, "reference n={n}");
            let paths = || simd::SimdPath::ALL.into_iter().filter_map(simd::kernels_for);
            for k in paths() {
                let t = &plan.tables;
                let forward = |c: &[i32]| {
                    let mut f = FreqPoly::zero(n);
                    k.forward(t, c, &mut f.re, &mut f.im);
                    f
                };
                let inverse_on = |k: &simd::Kernels, mut f: FreqPoly| {
                    let mut out = TorusPoly::zero(n);
                    k.inverse(t, &mut f.re, &mut f.im, out.coeffs_mut());
                    out
                };
                let inverse = |f: FreqPoly| inverse_on(k, f);
                let fb = forward(Torus32::slice_as_i32(b.coeffs()));
                // A spectrum made on one path comes back exactly on every
                // path: a key's bodies are recovered wherever it is encoded.
                for other in paths() {
                    let (from, to) = (k.path(), other.path());
                    assert_eq!(inverse_on(other, fb.clone()), b, "round trip n={n} {from}->{to}");
                }
                let fa = forward(a.coeffs());
                let mut acc = FreqPoly::zero(n);
                k.mac(&mut acc.re, &mut acc.im, &fa.re, &fa.im, &fb.re, &fb.im);
                assert_eq!(inverse(acc), want, "product n={n} path={}", k.path());
            }
        }
    }
}
