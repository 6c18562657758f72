//! The retired full-size complex negacyclic FFT, kept **only** as a
//! cross-check oracle for tests and as the "before" side of the
//! folded-vs-reference benchmarks (`repro fft`, `benches/fft.rs`,
//! `benches/gate_bootstrap.rs`). Production code paths all use the folded
//! half-complex transform in [`crate::fft`]; nothing here is reachable
//! from gate evaluation.
//!
//! This is the pre-fold implementation verbatim: twist all `N` real
//! coefficients by `e^{iπj/N}`, run a full `N`-point complex FFT over
//! array-of-structs [`Complex`] values, and branch on direction inside
//! the butterfly — i.e. 2× the transform work, 2× the key bytes, and a
//! MAC the autovectorizer cannot unroll cleanly. Keeping it allows any
//! session to re-measure the win of the half-complex rework on its own
//! hardware.

use crate::keys::ClientKey;
use crate::lwe::LweCiphertext;
use crate::params::Params;
use crate::poly::{IntPoly, TorusPoly};
use crate::rng::SecureRng;
use crate::tgsw::{Gadget, TgswCiphertext};
use crate::tlwe::TlweCiphertext;
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

    /// Whether the container is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
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

    /// Transform size.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the plan is empty (never true; present for API symmetry).
    pub fn is_empty(&self) -> bool {
        false
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

/// A bootstrapping key stored in the *full-size* frequency domain, with a
/// matching full-size blind rotation — the "before" side of the
/// half-complex benchmarks. Functionally interchangeable with the
/// production [`crate::bootstrap::BootstrappingKey`] (same algebra, same
/// correctness), just twice the transform work and key bytes.
#[derive(Debug, Clone)]
pub struct RefBootstrappingKey {
    /// `tgsw[bit][row][col]` — full-size frequency rows per key bit.
    tgsw: Vec<Vec<Vec<RefFreqPoly>>>,
    plan: RefFftPlan,
    params: Params,
    gadget: Gadget,
}

impl RefBootstrappingKey {
    /// Generates a reference-FFT bootstrapping key for `client`'s secret
    /// material (test/bench use only — production keys come from
    /// [`ClientKey::server_key`]).
    pub fn from_client(client: &ClientKey, rng: &mut SecureRng) -> Self {
        let params = *client.params();
        let plan = RefFftPlan::new(params.poly_size);
        let gadget = Gadget { levels: params.decomp_levels, base_log: params.decomp_base_log };
        let tgsw = client
            .lwe_key()
            .bits()
            .iter()
            .map(|&bit| {
                let ct = TgswCiphertext::encrypt(
                    client.tlwe_key(),
                    bit,
                    gadget,
                    params.glwe_noise_stdev,
                    rng,
                );
                ct.rows()
                    .iter()
                    .map(|row| row.polys().map(|p| plan.forward_torus(p)).collect())
                    .collect()
            })
            .collect();
        RefBootstrappingKey { tgsw, plan, params, gadget }
    }

    /// The parameter set this key was generated for.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// External product `rows ⊡ tlwe` through the full-size domain
    /// (allocating freely, as the pre-rework public path did).
    fn external_product(&self, rows: &[Vec<RefFreqPoly>], tlwe: &TlweCiphertext) -> TlweCiphertext {
        let n = tlwe.poly_size();
        let k = tlwe.k();
        let l = self.gadget.levels;
        debug_assert_eq!(rows.len(), (k + 1) * l);
        let mut acc: Vec<RefFreqPoly> = (0..=k).map(|_| RefFreqPoly::zero(n)).collect();
        for (u, poly) in tlwe.polys().enumerate() {
            for (level, digit) in self.gadget.decompose_poly(poly).iter().enumerate() {
                let digit_freq = self.plan.forward_int(digit);
                let row = &rows[u * l + level];
                for (col, a) in acc.iter_mut().enumerate() {
                    a.add_mul_assign(&digit_freq, &row[col]);
                }
            }
        }
        let mut out = TlweCiphertext::trivial(self.plan.inverse_torus(&acc[k]), k);
        for (u, a) in acc[..k].iter().enumerate() {
            out.a[u] = self.plan.inverse_torus(a);
        }
        out
    }

    /// Gate bootstrapping without the final key switch, via full-size
    /// blind rotation — mirrors
    /// [`crate::bootstrap::BootstrappingKey::bootstrap_raw_into`].
    pub fn bootstrap_raw(&self, ct: &LweCiphertext, mu: Torus32) -> LweCiphertext {
        let n = self.params.poly_size;
        let n2 = 2 * n;
        let tv = TorusPoly::fill(mu, n);
        let barb = ct.body().mod_switch(n);
        let mut acc = TlweCiphertext::trivial(tv.mul_by_xk((n2 - barb) % n2), self.params.glwe_dim);
        for (a_i, bk_i) in ct.mask().iter().zip(&self.tgsw) {
            let bara = a_i.mod_switch(n);
            if bara == 0 {
                continue;
            }
            // acc <- acc + bk_i ⊡ (X^bara·acc - acc), the CMUX.
            let mut diff = acc.rotate(bara);
            diff.sub_assign(&acc);
            acc.add_assign(&self.external_product(bk_i, &diff));
        }
        acc.extract_lwe()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poly::naive_negacyclic_mul;

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

    #[test]
    fn reference_bootstrap_recovers_sign() {
        let mut rng = SecureRng::seed_from_u64(21);
        let params = Params::testing();
        let client = ClientKey::generate(params, &mut rng);
        let refbk = RefBootstrappingKey::from_client(&client, &mut rng);
        let mu = Torus32::from_fraction(1, 3);
        let extracted = client.tlwe_key().extracted_lwe_key();
        for (message, want_sign) in
            [(Torus32::from_fraction(1, 3), 1.0), (Torus32::from_fraction(-1, 3), -1.0)]
        {
            let ct = client.lwe_key().encrypt(message, params.lwe_noise_stdev, &mut rng);
            let boot = refbk.bootstrap_raw(&ct, mu);
            let phase = extracted.phase(&boot).to_f64();
            assert!(
                (phase - want_sign * 0.125).abs() < 0.03,
                "message {message}, phase {phase}, want {want_sign}*0.125"
            );
        }
    }
}
