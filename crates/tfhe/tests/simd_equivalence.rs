//! SIMD-vs-scalar equivalence suite for the dispatched kernel layer.
//!
//! Every vector backend the host CPU can run is compared against the
//! portable kernels:
//!
//! * integer kernels (`extract_digits`, `sub_assign`, `axpy`) must be
//!   **bit-identical** at every length, including tails shorter than one
//!   vector width;
//! * `f64` kernels (`forward`, `sum_products`, `inverse`) use fused
//!   multiply-add on the vector paths, so their intermediate spectra
//!   legitimately differ in low mantissa bits — the contract is
//!   **torus-domain bit-equality** after the inverse transform's final
//!   rounding (DESIGN.md §10), checked here over the full forward →
//!   sum of products → inverse pipeline, and between one six-product sum
//!   and the same products added one pass at a time or per polynomial;
//! * encrypted gate round trips must decrypt correctly under whatever
//!   path `PYTFHE_SIMD` selected (CI runs this suite once per setting).

use proptest::prelude::*;
use pytfhe_tfhe::poly::{naive_negacyclic_mul, IntPoly, TorusPoly};
use pytfhe_tfhe::simd::{self, Kernels, SimdPath, Term, Twiddles};
use pytfhe_tfhe::torus::Torus32;
use pytfhe_tfhe::{BootGate, ClientKey, Params, SecureRng};

/// Every backend the running CPU supports, scalar first.
fn supported_kernels() -> Vec<&'static Kernels> {
    SimdPath::ALL.iter().filter_map(|&p| simd::kernels_for(p)).collect()
}

/// The transform tables of one size, so the suite can drive each
/// backend's kernels directly without touching the process-global
/// dispatch.
struct Tables {
    m: usize,
    twiddles: Twiddles,
}

impl Tables {
    fn new(n: usize) -> Self {
        Tables { m: n / 2, twiddles: Twiddles::new(n) }
    }

    /// Forward transform of signed coefficients through `k`'s kernels.
    fn forward(&self, k: &Kernels, c: &[i32]) -> (Vec<f64>, Vec<f64>) {
        let mut re = vec![0.0; self.m];
        let mut im = vec![0.0; self.m];
        k.forward(&self.twiddles, c, &mut re, &mut im);
        (re, im)
    }

    /// Inverse transform + rounding through `k`'s kernels.
    fn inverse_round(&self, k: &Kernels, re: &mut [f64], im: &mut [f64]) -> Vec<Torus32> {
        let mut out = vec![Torus32::ZERO; 2 * self.m];
        k.inverse(&self.twiddles, re, im, &mut out);
        out
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Gadget digit extraction is bit-identical across every backend, at
    /// every length (tails included) and every decomposition geometry.
    #[test]
    fn extract_digits_bit_identical(
        coeffs in prop::collection::vec(any::<u32>(), 0..67),
        base_log in 1usize..16,
        level in 0usize..4,
        offset in any::<u32>(),
    ) {
        let c: Vec<Torus32> = coeffs.into_iter().map(Torus32).collect();
        let shift = (32 - (level + 1) * base_log.min(8)) as u32;
        let mask = (1u32 << base_log) - 1;
        let half_base = 1i32 << (base_log - 1);
        let scalar = simd::kernels_for(SimdPath::Scalar).unwrap();
        let mut want = vec![0i32; c.len()];
        scalar.extract_digits(&c, offset, shift, mask, half_base, &mut want);
        for k in supported_kernels() {
            let mut got = vec![0i32; c.len()];
            k.extract_digits(&c, offset, shift, mask, half_base, &mut got);
            prop_assert_eq!(&got, &want, "path={}", k.path());
        }
    }

    /// Wrapping subtraction is bit-identical across every backend, at
    /// every length.
    #[test]
    fn sub_assign_bit_identical(
        a in prop::collection::vec(any::<u32>(), 0..67),
        seed in any::<u64>(),
    ) {
        let mut rng = SecureRng::seed_from_u64(seed);
        let src: Vec<Torus32> = (0..a.len()).map(|_| Torus32::uniform(&mut rng)).collect();
        let base: Vec<Torus32> = a.into_iter().map(Torus32).collect();
        let scalar = simd::kernels_for(SimdPath::Scalar).unwrap();
        let mut want = base.clone();
        scalar.sub_assign(&mut want, &src);
        for k in supported_kernels() {
            let mut got = base.clone();
            k.sub_assign(&mut got, &src);
            prop_assert_eq!(&got, &want, "path={}", k.path());
        }
    }

    /// Wrapping multiply-accumulate (the gate linear combination) is
    /// bit-identical across every backend, at every length and for
    /// every coefficient the gate recipes use (and beyond).
    #[test]
    fn axpy_bit_identical(
        a in prop::collection::vec(any::<u32>(), 0..67),
        coeff in any::<i32>(),
        seed in any::<u64>(),
    ) {
        let mut rng = SecureRng::seed_from_u64(seed);
        let src: Vec<Torus32> = (0..a.len()).map(|_| Torus32::uniform(&mut rng)).collect();
        let base: Vec<Torus32> = a.into_iter().map(Torus32).collect();
        let scalar = simd::kernels_for(SimdPath::Scalar).unwrap();
        let mut want = base.clone();
        scalar.axpy(&mut want, coeff, &src);
        for k in supported_kernels() {
            let mut got = base.clone();
            k.axpy(&mut got, coeff, &src);
            prop_assert_eq!(&got, &want, "path={}", k.path());
        }
    }

    /// The sum-of-products kernel agrees with scalar to FMA-rounding
    /// precision for every term count of the hot path (one product, one
    /// polynomial's `l = 3` digits, all `(k + 1)·l = 6` rows) at every
    /// length (tails included): identical on the scalar-formula tail,
    /// within a few ulps on the vector body.
    #[test]
    fn sum_products_matches_scalar_to_ulp(
        count in 0usize..3,
        len in 0usize..67,
        seed in any::<u64>(),
    ) {
        let count = [1, 3, 6][count];
        let mut rng = SecureRng::seed_from_u64(seed);
        let mut f = || (0..len).map(|_| Torus32::uniform(&mut rng).to_f64()).collect::<Vec<f64>>();
        let spectra: Vec<[Vec<f64>; 4]> = (0..count).map(|_| [f(), f(), f(), f()]).collect();
        let terms: Vec<Term<'_>> =
            spectra.iter().map(|[ar, ai, br, bi]| (&ar[..], &ai[..], &br[..], &bi[..])).collect();
        let scalar = simd::kernels_for(SimdPath::Scalar).unwrap();
        let (mut wr, mut wi) = (f(), f());
        scalar.sum_products(&mut wr, &mut wi, &terms);
        for k in supported_kernels() {
            let (mut gr, mut gi) = (f(), f());
            k.sum_products(&mut gr, &mut gi, &terms);
            for j in 0..len {
                let tol = 1e-12 * count as f64;
                prop_assert!((gr[j] - wr[j]).abs() < tol, "path={} count={count} re[{j}]", k.path());
                prop_assert!((gi[j] - wi[j]).abs() < tol, "path={} count={count} im[{j}]", k.path());
            }
        }
    }

    /// Torus-domain contract over the full pipeline: forward transform of
    /// realistic inputs (gadget-digit × torus polynomials), pointwise
    /// MAC, inverse transform, rounding — the torus coefficients must be
    /// bit-equal on every backend for every size (every lane-count/tail
    /// combination the FFT stages produce).
    #[test]
    fn transform_pipeline_torus_bit_equal(
        log_n in 1usize..9,
        seed in any::<u64>(),
    ) {
        let n = 1 << log_n;
        let mut rng = SecureRng::seed_from_u64(seed);
        let t = Tables::new(n);
        // Gadget-digit-ranged integers and uniform torus lifts — the
        // operand distribution of a real external product.
        let a: Vec<i32> = (0..n).map(|_| (rng.uniform_u32() % 128) as i32 - 64).collect();
        let b: Vec<i32> = (0..n).map(|_| Torus32::uniform(&mut rng).as_i32()).collect();
        let scalar = simd::kernels_for(SimdPath::Scalar).unwrap();
        let want = {
            let fa = t.forward(scalar, &a);
            let fb = t.forward(scalar, &b);
            let (mut re, mut im) = (vec![0.0; t.m], vec![0.0; t.m]);
            scalar.sum_products(&mut re, &mut im, &[(&fa.0, &fa.1, &fb.0, &fb.1)]);
            t.inverse_round(scalar, &mut re, &mut im)
        };
        for k in supported_kernels() {
            let fa = t.forward(k, &a);
            let fb = t.forward(k, &b);
            let (mut re, mut im) = (vec![0.0; t.m], vec![0.0; t.m]);
            k.sum_products(&mut re, &mut im, &[(&fa.0, &fa.1, &fb.0, &fb.1)]);
            let got = t.inverse_round(k, &mut re, &mut im);
            prop_assert_eq!(&got, &want, "path={} n={}", k.path(), n);
        }
    }

    /// Forward/inverse round trip is exact on every backend: transform a
    /// torus polynomial and round back, coefficients must be unchanged.
    #[test]
    fn round_trip_exact_on_every_backend(
        log_n in 1usize..9,
        seed in any::<u64>(),
    ) {
        let n = 1 << log_n;
        let mut rng = SecureRng::seed_from_u64(seed);
        let t = Tables::new(n);
        let p: Vec<Torus32> = (0..n).map(|_| Torus32::uniform(&mut rng)).collect();
        let lifts: Vec<i32> = p.iter().map(|c| c.as_i32()).collect();
        for k in supported_kernels() {
            let (mut re, mut im) = t.forward(k, &lifts);
            let got = t.inverse_round(k, &mut re, &mut im);
            prop_assert_eq!(&got, &p, "path={} n={}", k.path(), n);
        }
    }
}

/// The six products of one `N = 1024` external-product column (`k = 1`,
/// `l = 3`: gadget digits times uniform torus rows) summed three ways on
/// every tier — by one kernel call; one product per pass, each added to
/// the running sum as a single-product multiply-accumulate adds it; and
/// per polynomial, two three-product sums added, as a gang's lanes add
/// their partials — inverse-transform to the same `TorusPoly`, which is
/// the exact negacyclic sum.
#[test]
fn six_products_in_one_pass_round_to_the_single_product_sum() {
    let n = 1024;
    let mut rng = SecureRng::seed_from_u64(1024);
    let t = Tables::new(n);
    let digits: Vec<IntPoly> = (0..6)
        .map(|_| {
            IntPoly::from_coeffs((0..n).map(|_| (rng.uniform_u32() % 128) as i32 - 64).collect())
        })
        .collect();
    let rows: Vec<TorusPoly> = (0..6).map(|_| TorusPoly::uniform(n, &mut rng)).collect();
    let mut want = TorusPoly::zero(n);
    for (d, r) in digits.iter().zip(&rows) {
        want.add_assign(&naive_negacyclic_mul(d, r));
    }
    for k in supported_kernels() {
        let fd: Vec<_> = digits.iter().map(|d| t.forward(k, d.coeffs())).collect();
        let fr: Vec<_> =
            rows.iter().map(|r| t.forward(k, Torus32::slice_as_i32(r.coeffs()))).collect();
        let terms: Vec<Term<'_>> =
            fd.iter().zip(&fr).map(|(a, b)| (&a.0[..], &a.1[..], &b.0[..], &b.1[..])).collect();
        let sum = |terms: &[Term<'_>]| {
            let (mut re, mut im) = (vec![0.0; t.m], vec![0.0; t.m]);
            k.sum_products(&mut re, &mut im, terms);
            (re, im)
        };
        let add = |(mut re, mut im): (Vec<f64>, Vec<f64>), (r, i): (Vec<f64>, Vec<f64>)| {
            re.iter_mut().zip(r).for_each(|(x, y)| *x += y);
            im.iter_mut().zip(i).for_each(|(x, y)| *x += y);
            (re, im)
        };
        let one_pass = sum(&terms);
        let by_passes = terms.chunks(1).map(sum).reduce(add).unwrap();
        let by_polynomial = terms.chunks(3).map(sum).reduce(add).unwrap();
        for (how, (mut re, mut im)) in
            [("one pass", one_pass), ("by passes", by_passes), ("by polynomial", by_polynomial)]
        {
            let got = TorusPoly::from_coeffs(t.inverse_round(k, &mut re, &mut im));
            assert_eq!(got, want, "path={} {how}", k.path());
        }
    }
}

proptest! {
    // Encrypted round trips bootstrap thousands of gates; keep the case
    // count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Encrypted gate-level round trip under the dispatch the process
    /// actually selected (`PYTFHE_SIMD` / auto): every binary gate's
    /// truth table must survive encrypt → bootstrap → decrypt.
    #[test]
    fn encrypted_gates_round_trip_on_active_path(seed in any::<u64>()) {
        let mut rng = SecureRng::seed_from_u64(seed);
        let client = ClientKey::generate(Params::testing(), &mut rng);
        let server = client.server_key(&mut rng);
        let mut scratch = server.gate_scratch();
        let mut out = server.constant(false);
        for a in [false, true] {
            for b in [false, true] {
                let ca = client.encrypt_bit(a, &mut rng);
                let cb = client.encrypt_bit(b, &mut rng);
                let path = simd::active_path();
                server.gate_into(BootGate::Nand, &ca, &cb, &mut scratch, &mut out);
                prop_assert_eq!(client.decrypt_bit(&out), !(a && b), "nand({a},{b}) on {}", path);
                server.gate_into(BootGate::Xor, &ca, &cb, &mut scratch, &mut out);
                prop_assert_eq!(client.decrypt_bit(&out), a ^ b, "xor({a},{b}) on {}", path);
            }
        }
    }
}
