//! The retired full-size complex negacyclic FFT, kept **only** as a
//! cross-check oracle for the folded half-complex transform in
//! [`crate::fft`]. The module is compiled for tests alone: nothing here is
//! part of the library or reachable from gate evaluation.
//!
//! This is the pre-fold implementation verbatim: twist all `N` real
//! coefficients by `e^{iπj/N}`, run a full `N`-point complex FFT over
//! array-of-structs [`Complex`] values, and branch on direction inside
//! the butterfly. It shares no code with the folded plan, which is what
//! makes it an independent oracle.

use crate::poly::{IntPoly, TorusPoly};
use crate::torus::Torus32;

/// A complex number; minimal on purpose (only what the reference FFT
/// needs).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    #[inline]
    fn mul(self, other: Complex) -> Complex {
        Complex {
            re: self.re * other.re - self.im * other.im,
            im: self.re * other.im + self.im * other.re,
        }
    }

    #[inline]
    fn add(self, other: Complex) -> Complex {
        Complex { re: self.re + other.re, im: self.im + other.im }
    }

    #[inline]
    fn sub(self, other: Complex) -> Complex {
        Complex { re: self.re - other.re, im: self.im - other.im }
    }

    #[inline]
    fn conj(self) -> Complex {
        Complex { re: self.re, im: -self.im }
    }
}

/// A polynomial in the full-size twisted frequency domain: `N`
/// array-of-structs complex values (the pre-fold [`crate::fft::FreqPoly`]
/// layout).
#[derive(Debug, Clone, PartialEq)]
pub struct RefFreqPoly {
    values: Vec<Complex>,
}

impl RefFreqPoly {
    /// The zero polynomial for transform size `n`.
    pub fn zero(n: usize) -> Self {
        RefFreqPoly { values: vec![Complex::default(); n] }
    }

    /// Transform size (`N`, not `N/2` — this is the unfolded layout).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `self += a * b` pointwise over array-of-structs values.
    pub fn add_mul_assign(&mut self, a: &RefFreqPoly, b: &RefFreqPoly) {
        debug_assert_eq!(self.len(), a.len());
        debug_assert_eq!(self.len(), b.len());
        for ((s, &x), &y) in self.values.iter_mut().zip(&a.values).zip(&b.values) {
            *s = s.add(x.mul(y));
        }
    }
}

/// Precomputed tables for full-size transforms of one size `N`.
#[derive(Debug, Clone)]
pub struct RefFftPlan {
    n: usize,
    /// `roots[k] = e^{-2πik/N}` for `k < N/2` (forward twiddles).
    roots: Vec<Complex>,
    /// `twist[j] = e^{iπj/N}`.
    twist: Vec<Complex>,
    /// Bit-reversal permutation.
    rev: Vec<u32>,
}

impl RefFftPlan {
    /// Builds a plan for polynomials of degree bound `n` (a power of two,
    /// at least 2).
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two or is smaller than 2.
    pub fn new(n: usize) -> Self {
        assert!(n.is_power_of_two() && n >= 2, "FFT size must be a power of two >= 2");
        let roots = (0..n / 2)
            .map(|k| {
                let theta = -2.0 * std::f64::consts::PI * k as f64 / n as f64;
                Complex { re: theta.cos(), im: theta.sin() }
            })
            .collect();
        let twist = (0..n)
            .map(|j| {
                let theta = std::f64::consts::PI * j as f64 / n as f64;
                Complex { re: theta.cos(), im: theta.sin() }
            })
            .collect();
        let bits = n.trailing_zeros();
        let rev = (0..n as u32).map(|i| i.reverse_bits() >> (32 - bits)).collect();
        RefFftPlan { n, roots, twist, rev }
    }

    /// In-place iterative radix-2 DIT FFT. `inverse` conjugates the
    /// twiddles per butterfly — exactly the direction branch the folded
    /// plan eliminated.
    fn fft_in_place(&self, buf: &mut [Complex], inverse: bool) {
        let n = self.n;
        debug_assert_eq!(buf.len(), n);
        for i in 0..n {
            let j = self.rev[i] as usize;
            if i < j {
                buf.swap(i, j);
            }
        }
        let mut len = 2;
        while len <= n {
            let step = n / len;
            let half = len / 2;
            for start in (0..n).step_by(len) {
                for j in 0..half {
                    let mut w = self.roots[j * step];
                    if inverse {
                        w = w.conj();
                    }
                    let u = buf[start + j];
                    let v = buf[start + j + half].mul(w);
                    buf[start + j] = u.add(v);
                    buf[start + j + half] = u.sub(v);
                }
            }
            len <<= 1;
        }
    }

    /// Forward transform of a torus polynomial (coefficients lifted to
    /// signed integers).
    pub fn forward_torus(&self, p: &TorusPoly) -> RefFreqPoly {
        debug_assert_eq!(p.len(), self.n);
        let mut buf: Vec<Complex> = p
            .coeffs()
            .iter()
            .zip(&self.twist)
            .map(|(&c, &t)| {
                let x = c.as_i32() as f64;
                Complex { re: x * t.re, im: x * t.im }
            })
            .collect();
        self.fft_in_place(&mut buf, false);
        RefFreqPoly { values: buf }
    }

    /// Forward transform of an integer polynomial.
    pub fn forward_int(&self, p: &IntPoly) -> RefFreqPoly {
        debug_assert_eq!(p.len(), self.n);
        let mut buf: Vec<Complex> = p
            .coeffs()
            .iter()
            .zip(&self.twist)
            .map(|(&c, &t)| {
                let x = c as f64;
                Complex { re: x * t.re, im: x * t.im }
            })
            .collect();
        self.fft_in_place(&mut buf, false);
        RefFreqPoly { values: buf }
    }

    /// Forward transform of an integer polynomial, exposing the raw
    /// spectrum (used by tests pinning the folded representation's
    /// evaluation points to this one's).
    pub fn forward_int_values(&self, p: &IntPoly) -> Vec<Complex> {
        self.forward_int(p).values
    }

    /// Inverse transform, rounding back to torus coefficients.
    pub fn inverse_torus(&self, f: &RefFreqPoly) -> TorusPoly {
        debug_assert_eq!(f.len(), self.n);
        let mut buf = f.values.clone();
        self.fft_in_place(&mut buf, true);
        let scale = 1.0 / self.n as f64;
        let mut out = TorusPoly::zero(self.n);
        for ((o, &c), &t) in out.coeffs_mut().iter_mut().zip(&buf).zip(&self.twist) {
            // Untwist: multiply by conj(twist), keep the real part.
            let re = (c.re * t.re + c.im * t.im) * scale;
            *o = Torus32((re.round_ties_even() as i64) as u32);
        }
        out
    }

    /// Convenience: full negacyclic product `a * b` through the full-size
    /// frequency domain.
    pub fn negacyclic_mul(&self, a: &IntPoly, b: &TorusPoly) -> TorusPoly {
        let fa = self.forward_int(a);
        let fb = self.forward_torus(b);
        let mut acc = RefFreqPoly::zero(self.n);
        acc.add_mul_assign(&fa, &fb);
        self.inverse_torus(&acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poly::naive_negacyclic_mul;
    use crate::rng::SecureRng;

    #[test]
    fn reference_fft_matches_naive() {
        let mut rng = SecureRng::seed_from_u64(20);
        for n in [4usize, 32, 128] {
            let plan = RefFftPlan::new(n);
            let a = IntPoly::from_coeffs(
                (0..n).map(|_| (rng.uniform_u32() % 128) as i32 - 64).collect(),
            );
            let b = TorusPoly::uniform(n, &mut rng);
            assert_eq!(plan.negacyclic_mul(&a, &b), naive_negacyclic_mul(&a, &b), "n={n}");
        }
    }
}
