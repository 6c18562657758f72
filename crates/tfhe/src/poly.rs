//! Polynomials over the ring `T[X]/(X^N + 1)` (torus coefficients) and
//! `Z[X]/(X^N + 1)` (integer coefficients).
//!
//! The negacyclic ring (`X^N = -1`) is the home of TLWE/TGSW ciphertexts.
//! Schoolbook multiplication here is the correctness oracle for the FFT
//! fast path in [`crate::fft`].

use crate::rng::SecureRng;
use crate::torus::Torus32;
use crate::trace::note_buffer_alloc;

/// A polynomial with torus coefficients, reduced modulo `X^N + 1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TorusPoly {
    coeffs: Vec<Torus32>,
}

impl TorusPoly {
    /// The zero polynomial of degree bound `n`.
    pub fn zero(n: usize) -> Self {
        note_buffer_alloc();
        TorusPoly { coeffs: vec![Torus32::ZERO; n] }
    }

    /// Builds a polynomial from coefficients.
    pub fn from_coeffs(coeffs: Vec<Torus32>) -> Self {
        note_buffer_alloc();
        TorusPoly { coeffs }
    }

    /// The constant polynomial `c` of degree bound `n`.
    pub fn constant(c: Torus32, n: usize) -> Self {
        let mut p = Self::zero(n);
        p.coeffs[0] = c;
        p
    }

    /// A polynomial with every coefficient equal to `c` — the test vector
    /// of gate bootstrapping.
    pub fn fill(c: Torus32, n: usize) -> Self {
        note_buffer_alloc();
        TorusPoly { coeffs: vec![c; n] }
    }

    /// Overwrites every coefficient with `c`, reusing the allocation.
    pub fn fill_assign(&mut self, c: Torus32) {
        self.coeffs.fill(c);
    }

    /// Overwrites `self` with a copy of `other` (same length) without
    /// allocating. The derived `clone_from` would reallocate.
    pub fn copy_from(&mut self, other: &TorusPoly) {
        debug_assert_eq!(self.len(), other.len());
        self.coeffs.copy_from_slice(&other.coeffs);
    }

    /// Uniformly random polynomial (the mask of a TLWE sample).
    pub fn uniform(n: usize, rng: &mut SecureRng) -> Self {
        note_buffer_alloc();
        TorusPoly { coeffs: (0..n).map(|_| Torus32::uniform(rng)).collect() }
    }

    /// Degree bound `N`.
    #[inline]
    pub fn len(&self) -> usize {
        self.coeffs.len()
    }

    /// Whether the polynomial has zero length (not zero value).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Coefficient slice.
    #[inline]
    pub fn coeffs(&self) -> &[Torus32] {
        &self.coeffs
    }

    /// Mutable coefficient slice.
    #[inline]
    pub fn coeffs_mut(&mut self) -> &mut [Torus32] {
        &mut self.coeffs
    }

    /// `self += other`.
    pub fn add_assign(&mut self, other: &TorusPoly) {
        debug_assert_eq!(self.len(), other.len());
        for (a, b) in self.coeffs.iter_mut().zip(&other.coeffs) {
            *a += *b;
        }
    }

    /// `self -= other`.
    pub fn sub_assign(&mut self, other: &TorusPoly) {
        debug_assert_eq!(self.len(), other.len());
        for (a, b) in self.coeffs.iter_mut().zip(&other.coeffs) {
            *a -= *b;
        }
    }

    /// Adds gaussian noise to every coefficient.
    pub fn add_gaussian(&mut self, stdev: f64, rng: &mut SecureRng) {
        for c in &mut self.coeffs {
            *c = c.add_gaussian(stdev, rng);
        }
    }

    /// Returns `X^k * self` in the negacyclic ring, for `k` in `[0, 2N)`.
    ///
    /// Multiplying by `X^N` negates the polynomial, so rotations by `k ≥ N`
    /// wrap with a sign flip — the mechanism blind rotation exploits.
    pub fn mul_by_xk(&self, k: usize) -> TorusPoly {
        let mut out = TorusPoly::zero(self.len());
        self.mul_by_xk_into(k, &mut out);
        out
    }

    /// Like [`TorusPoly::mul_by_xk`], writing into `out` (same length)
    /// without allocating.
    pub fn mul_by_xk_into(&self, k: usize, out: &mut TorusPoly) {
        let n = self.len();
        debug_assert!(k < 2 * n, "rotation amount {k} out of range for N={n}");
        debug_assert_eq!(out.len(), n);
        let (shift, negate) = if k < n { (k, false) } else { (k - n, true) };
        // Two straight runs, one of them negated: branch-free copies the
        // compiler vectorizes (this runs once per CMUX step and lane).
        let (straight, wrapped) = self.coeffs.split_at(n - shift);
        let (out_wrapped, out_straight) = out.coeffs.split_at_mut(shift);
        let (same, flipped) =
            if negate { (out_wrapped, out_straight) } else { (out_straight, out_wrapped) };
        let (same_src, flipped_src) =
            if negate { (wrapped, straight) } else { (straight, wrapped) };
        same.copy_from_slice(same_src);
        for (o, &c) in flipped.iter_mut().zip(flipped_src) {
            *o = -c;
        }
    }
}

/// A polynomial with (small) integer coefficients, reduced modulo
/// `X^N + 1` — the result of gadget decomposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntPoly {
    coeffs: Vec<i32>,
}

impl IntPoly {
    /// The zero polynomial of degree bound `n`.
    pub fn zero(n: usize) -> Self {
        note_buffer_alloc();
        IntPoly { coeffs: vec![0; n] }
    }

    /// Builds a polynomial from coefficients.
    pub fn from_coeffs(coeffs: Vec<i32>) -> Self {
        note_buffer_alloc();
        IntPoly { coeffs }
    }

    /// A uniformly random *binary* polynomial — a TLWE secret key share.
    pub fn binary(n: usize, rng: &mut SecureRng) -> Self {
        note_buffer_alloc();
        IntPoly { coeffs: (0..n).map(|_| i32::from(rng.bit())).collect() }
    }

    /// Degree bound.
    #[inline]
    pub fn len(&self) -> usize {
        self.coeffs.len()
    }

    /// Whether the polynomial has zero length.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Coefficient slice.
    #[inline]
    pub fn coeffs(&self) -> &[i32] {
        &self.coeffs
    }

    /// Mutable coefficient slice.
    #[inline]
    pub fn coeffs_mut(&mut self) -> &mut [i32] {
        &mut self.coeffs
    }
}

/// Schoolbook negacyclic product `a * b` over `T[X]/(X^N + 1)`.
///
/// Quadratic; used as the FFT correctness oracle and for the miniature
/// testing parameters.
pub fn naive_negacyclic_mul(a: &IntPoly, b: &TorusPoly) -> TorusPoly {
    let n = b.len();
    debug_assert_eq!(a.len(), n);
    let mut out = TorusPoly::zero(n);
    for (i, &ai) in a.coeffs().iter().enumerate() {
        if ai == 0 {
            continue;
        }
        for (j, &bj) in b.coeffs().iter().enumerate() {
            let k = i + j;
            let term = ai * bj;
            if k < n {
                out.coeffs[k] += term;
            } else {
                out.coeffs[k - n] -= term;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_by_zero_is_identity() {
        let mut rng = SecureRng::seed_from_u64(1);
        let p = TorusPoly::uniform(16, &mut rng);
        assert_eq!(p.mul_by_xk(0), p);
    }

    #[test]
    fn rotation_by_n_negates() {
        let mut rng = SecureRng::seed_from_u64(2);
        let p = TorusPoly::uniform(16, &mut rng);
        let q = p.mul_by_xk(16);
        for (a, b) in p.coeffs().iter().zip(q.coeffs()) {
            assert_eq!(-*a, *b);
        }
    }

    #[test]
    fn rotation_composes() {
        let mut rng = SecureRng::seed_from_u64(3);
        let p = TorusPoly::uniform(16, &mut rng);
        let q = p.mul_by_xk(5).mul_by_xk(9);
        assert_eq!(q, p.mul_by_xk(14));
        let r = p.mul_by_xk(20).mul_by_xk(20);
        assert_eq!(r, p.mul_by_xk(8)); // 40 mod 32 = 8
    }

    #[test]
    fn rotation_matches_naive_monomial_product() {
        let mut rng = SecureRng::seed_from_u64(4);
        let n = 16;
        let p = TorusPoly::uniform(n, &mut rng);
        for k in 0..n {
            let mut mono = IntPoly::zero(n);
            mono.coeffs_mut()[k] = 1;
            assert_eq!(naive_negacyclic_mul(&mono, &p), p.mul_by_xk(k), "k={k}");
        }
    }

    #[test]
    fn naive_mul_by_constant_two() {
        let mut rng = SecureRng::seed_from_u64(5);
        let n = 8;
        let p = TorusPoly::uniform(n, &mut rng);
        let mut two = IntPoly::zero(n);
        two.coeffs_mut()[0] = 2;
        let q = naive_negacyclic_mul(&two, &p);
        for (a, b) in p.coeffs().iter().zip(q.coeffs()) {
            assert_eq!(*a + *a, *b);
        }
    }

    #[test]
    fn add_sub_roundtrip() {
        let mut rng = SecureRng::seed_from_u64(6);
        let a = TorusPoly::uniform(32, &mut rng);
        let b = TorusPoly::uniform(32, &mut rng);
        let mut c = a.clone();
        c.add_assign(&b);
        c.sub_assign(&b);
        assert_eq!(a, c);
    }
}
