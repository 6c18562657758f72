//! TGSW ciphertexts, gadget decomposition, and the external product — the
//! machinery of the CMUX gate inside blind rotation.

use crate::fft::{FftPlan, FreqPoly};
use crate::poly::{IntPoly, TorusPoly};
use crate::rng::SecureRng;
use crate::tlwe::{TlweCiphertext, TlweKey};
use crate::torus::Torus32;

/// Parameters of the signed gadget decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gadget {
    /// Number of levels `l`.
    pub levels: usize,
    /// Log2 of the base (`Bg = 2^base_log`).
    pub base_log: usize,
}

impl Gadget {
    /// The gadget torus constants `1/Bg, 1/Bg², …, 1/Bg^l` as `Torus32`.
    pub fn h(&self, level: usize) -> Torus32 {
        debug_assert!(level < self.levels);
        Torus32(1u32 << (32 - (level + 1) * self.base_log))
    }

    /// The rounding offset added before digit extraction (the TFHE-library
    /// trick that makes the decomposition signed and balanced).
    fn offset(&self) -> u32 {
        let half_base = 1u32 << (self.base_log - 1);
        let mut offset = 0u32;
        for level in 1..=self.levels {
            offset =
                offset.wrapping_add(half_base.wrapping_shl((32 - level * self.base_log) as u32));
        }
        offset
    }

    /// Decomposes every coefficient of `p` into `l` signed digits in
    /// `[-Bg/2, Bg/2)`, such that `sum_j digit_j * h_j ≈ p` with error at
    /// most `1 / (2 * Bg^l)` per coefficient.
    pub fn decompose_poly(&self, p: &TorusPoly) -> Vec<IntPoly> {
        let mut out: Vec<IntPoly> = (0..self.levels).map(|_| IntPoly::zero(p.len())).collect();
        self.decompose_poly_into(p, &mut out);
        out
    }

    /// Like [`Gadget::decompose_poly`] but reuses allocations.
    ///
    /// Runs level-major so each level is one flat pass over the
    /// coefficients through the dispatched [`crate::simd`] digit-extract
    /// kernel; every digit is a pure function of its own coefficient, so
    /// the loop order does not change any result.
    pub fn decompose_poly_into(&self, p: &TorusPoly, out: &mut [IntPoly]) {
        debug_assert_eq!(out.len(), self.levels);
        let base_mask = (1u32 << self.base_log) - 1;
        let half_base = 1i32 << (self.base_log - 1);
        let offset = self.offset();
        let kernels = crate::simd::kernels();
        for (level, digits) in out.iter_mut().enumerate() {
            let shift = (32 - (level + 1) * self.base_log) as u32;
            kernels.extract_digits(
                p.coeffs(),
                offset,
                shift,
                base_mask,
                half_base,
                digits.coeffs_mut(),
            );
        }
    }
}

/// A TGSW ciphertext in the coefficient domain: `(k + 1) * l` TLWE rows
/// forming the gadget matrix encryption of a small integer message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TgswCiphertext {
    rows: Vec<TlweCiphertext>,
    gadget: Gadget,
}

impl TgswCiphertext {
    /// Encrypts the integer `message` (in practice a key bit, 0 or 1).
    ///
    /// Row `u * l + level` is a TLWE encryption of zero plus
    /// `message * h_level` added to polynomial `u` of the sample.
    pub fn encrypt(
        key: &TlweKey,
        message: i32,
        gadget: Gadget,
        stdev: f64,
        rng: &mut SecureRng,
    ) -> Self {
        let n = key.poly_size();
        let k = key.k();
        let zero = TorusPoly::zero(n);
        let mut rows = Vec::with_capacity((k + 1) * gadget.levels);
        for u in 0..=k {
            for level in 0..gadget.levels {
                let mut row = key.encrypt_poly(&zero, stdev, rng);
                let bump = message * gadget.h(level);
                if u < k {
                    row.a[u].coeffs_mut()[0] += bump;
                } else {
                    row.b.coeffs_mut()[0] += bump;
                }
                rows.push(row);
            }
        }
        TgswCiphertext { rows, gadget }
    }

    /// The gadget parameters.
    pub fn gadget(&self) -> Gadget {
        self.gadget
    }

    /// The TLWE rows.
    pub fn rows(&self) -> &[TlweCiphertext] {
        &self.rows
    }

    /// Precomputes the frequency-domain form used by the hot loop.
    pub fn to_fft(&self, plan: &FftPlan) -> TgswFft {
        TgswFft {
            rows: self
                .rows
                .iter()
                .map(|row| row.polys().map(|p| plan.forward_torus(p)).collect())
                .collect(),
            gadget: self.gadget,
        }
    }
}

/// A TGSW ciphertext with every polynomial pre-transformed to the twisted
/// frequency domain. The bootstrapping key is stored in this form, exactly
/// as the reference TFHE library stores its FFT-domain bootstrapping key
/// (each spectrum in the transform's in-memory order, see [`crate::fft`]).
#[derive(Debug, Clone)]
pub struct TgswFft {
    /// `rows[r][col]` is polynomial `col` (mask polys then body) of row `r`.
    rows: Vec<Vec<FreqPoly>>,
    gadget: Gadget,
}

/// Scratch buffers for [`TgswFft::external_product`], reused across
/// calls.
#[derive(Debug)]
pub struct ExternalProductScratch {
    digits: Vec<IntPoly>,
    digit_freq: FreqPoly,
    acc_freq: Vec<FreqPoly>,
}

impl ExternalProductScratch {
    /// Allocates scratch for ring dimension `n`, GLWE dimension `k` and the
    /// given gadget.
    pub fn new(n: usize, k: usize, gadget: Gadget) -> Self {
        ExternalProductScratch {
            digits: (0..gadget.levels).map(|_| IntPoly::zero(n)).collect(),
            digit_freq: FreqPoly::zero(n),
            acc_freq: (0..=k).map(|_| FreqPoly::zero(n)).collect(),
        }
    }
}

impl TgswFft {
    /// Raw rows (crate-internal, for serialization).
    pub(crate) fn rows_raw(&self) -> &[Vec<FreqPoly>] {
        &self.rows
    }

    /// Rebuilds from raw rows (crate-internal, for deserialization).
    pub(crate) fn from_rows(rows: Vec<Vec<FreqPoly>>, gadget: Gadget) -> Self {
        TgswFft { rows, gadget }
    }

    /// The gadget parameters.
    pub fn gadget(&self) -> Gadget {
        self.gadget
    }

    /// The external product `self ⊡ tlwe`: decomposes the TLWE sample and
    /// multiplies it against the gadget matrix in the frequency domain.
    ///
    /// If `self` encrypts bit `m ∈ {0, 1}`, the result is (approximately)
    /// `m * tlwe` — with fresh noise, which is what makes bootstrapping
    /// noise-resetting.
    pub fn external_product(
        &self,
        tlwe: &TlweCiphertext,
        plan: &FftPlan,
        scratch: &mut ExternalProductScratch,
    ) -> TlweCiphertext {
        let n = tlwe.poly_size();
        let mut out = TlweCiphertext::trivial(TorusPoly::zero(n), tlwe.k());
        self.external_product_into(tlwe, plan, scratch, &mut out);
        out
    }

    /// Like [`TgswFft::external_product`], writing into `out` (same shape
    /// as `tlwe`) without allocating. `out` may not alias `tlwe`.
    pub fn external_product_into(
        &self,
        tlwe: &TlweCiphertext,
        plan: &FftPlan,
        scratch: &mut ExternalProductScratch,
        out: &mut TlweCiphertext,
    ) {
        let k = tlwe.k();
        let l = self.gadget.levels;
        debug_assert_eq!(self.rows.len(), (k + 1) * l);
        debug_assert_eq!(out.k(), k);
        for f in &mut scratch.acc_freq {
            f.clear();
        }
        for (u, poly) in tlwe.polys().enumerate() {
            self.gadget.decompose_poly_into(poly, &mut scratch.digits);
            for (level, digit) in scratch.digits.iter().enumerate() {
                plan.forward_int_into(digit, &mut scratch.digit_freq);
                let row = &self.rows[u * l + level];
                for (col, acc) in scratch.acc_freq.iter_mut().enumerate() {
                    acc.add_mul_assign(&scratch.digit_freq, &row[col]);
                }
            }
        }
        let (mask_accs, body_acc) = scratch.acc_freq.split_at_mut(k);
        for (acc, dst) in mask_accs.iter_mut().zip(&mut out.a) {
            plan.inverse_torus_destructive(acc, dst);
        }
        plan.inverse_torus_destructive(&mut body_acc[0], &mut out.b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STDEV: f64 = 1e-9;

    fn gadget() -> Gadget {
        Gadget { levels: 3, base_log: 7 }
    }

    #[test]
    fn decomposition_reconstructs() {
        let mut rng = SecureRng::seed_from_u64(40);
        let g = gadget();
        let p = TorusPoly::uniform(64, &mut rng);
        let digits = g.decompose_poly(&p);
        let half_base = 1 << (g.base_log - 1);
        for d in &digits {
            for &c in d.coeffs() {
                assert!((-half_base..half_base).contains(&c), "digit {c} out of range");
            }
        }
        // Reconstruction error per coefficient < 1 / Bg^l = 2^-21 (the
        // TFHE-library offset trick gives a one-sided error of that size).
        for j in 0..p.len() {
            let mut approx = Torus32::ZERO;
            for (level, d) in digits.iter().enumerate() {
                approx += d.coeffs()[j] * g.h(level);
            }
            let err = (approx - p.coeffs()[j]).to_f64().abs();
            assert!(err < 1.0 / ((1u64 << 21) as f64), "err={err}");
        }
    }

    #[test]
    fn external_product_by_zero_kills_message() {
        let mut rng = SecureRng::seed_from_u64(41);
        let n = 64;
        let key = TlweKey::generate(1, n, &mut rng);
        let plan = FftPlan::new(n);
        let g = gadget();
        let tgsw = TgswCiphertext::encrypt(&key, 0, g, STDEV, &mut rng);
        let msg = TorusPoly::fill(Torus32::from_fraction(1, 3), n);
        let tlwe = key.encrypt_poly(&msg, STDEV, &mut rng);
        let mut scratch = ExternalProductScratch::new(n, 1, g);
        let out = tgsw.to_fft(&plan).external_product(&tlwe, &plan, &mut scratch);
        let phase = key.phase(&out);
        for &c in phase.coeffs() {
            assert!(c.to_f64().abs() < 1e-4, "phase {c} should be ~0");
        }
    }

    #[test]
    fn external_product_by_one_preserves_message() {
        let mut rng = SecureRng::seed_from_u64(42);
        let n = 64;
        let key = TlweKey::generate(1, n, &mut rng);
        let plan = FftPlan::new(n);
        let g = gadget();
        let tgsw = TgswCiphertext::encrypt(&key, 1, g, STDEV, &mut rng);
        let msg = TorusPoly::fill(Torus32::from_fraction(1, 3), n);
        let tlwe = key.encrypt_poly(&msg, STDEV, &mut rng);
        let mut scratch = ExternalProductScratch::new(n, 1, g);
        let out = tgsw.to_fft(&plan).external_product(&tlwe, &plan, &mut scratch);
        let phase = key.phase(&out);
        for (&got, &want) in phase.coeffs().iter().zip(msg.coeffs()) {
            assert!((got - want).to_f64().abs() < 1e-4);
        }
    }
}
