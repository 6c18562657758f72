//! LWE-to-LWE key switching: converts samples under the extracted
//! dimension-`k·N` key back to the small dimension-`n` gate key.
//!
//! Figure 7 of the paper shows key switching as the second-largest cost of
//! a bootstrapped gate evaluation (after blind rotation).

use crate::lwe::{LweCiphertext, LweKey};
use crate::rng::SecureRng;
use crate::torus::Torus32;

/// Upper bound on decomposition levels, so [`KeySwitchKey::switch_into`]
/// can keep its per-element digit vector on the stack (default params use
/// `t = 8`).
const MAX_KS_LEVELS: usize = 32;

/// A key-switching key: `src_dim × t × (base - 1)` LWE samples under the
/// destination key.
///
/// `ks[i][j][v-1]` encrypts `v * s_i / base^(j+1)` where `s_i` is bit `i`
/// of the source key. For the default parameters (`N = 1024`, `t = 8`,
/// `base = 4`, `n = 630`) this is ~62 MB — the dominant share of TFHE's
/// "public key of a few megabytes to ~100 MB" footprint. It is one flat
/// table, a row per sample: sample `r = (i·t + j)·(base − 1) + v − 1` is
/// `table[r·(n + 1)..][..n + 1]`, its `n` mask words then its body — also
/// the key-switch section's wire layout.
#[derive(Debug, Clone)]
pub struct KeySwitchKey {
    table: Vec<Torus32>,
    src_dim: usize,
    dst_dim: usize,
    levels: usize,
    base_log: usize,
}

impl KeySwitchKey {
    /// Generates the key-switching key from `src` to `dst`.
    pub fn generate(
        src: &LweKey,
        dst: &LweKey,
        levels: usize,
        base_log: usize,
        noise_stdev: f64,
        rng: &mut SecureRng,
    ) -> Self {
        let base = 1usize << base_log;
        let stride = dst.dim() + 1;
        let mut table = vec![Torus32::ZERO; src.dim() * levels * (base - 1) * stride];
        let mut rows = table.chunks_exact_mut(stride);
        for i in 0..src.dim() {
            let s_i = src.bits()[i];
            for j in 0..levels {
                // message(v) = v * s_i / base^(j+1)
                let unit = Torus32(1u32 << (32 - (j + 1) * base_log));
                for v in 1..base {
                    let message = (v as i32 * s_i) * unit;
                    let row = rows.next().expect("one row per sample");
                    dst.encrypt_into(message, noise_stdev, rng, row);
                }
            }
        }
        KeySwitchKey { table, src_dim: src.dim(), dst_dim: dst.dim(), levels, base_log }
    }

    /// The flat sample table (crate-internal, for serialization).
    pub(crate) fn table(&self) -> &[Torus32] {
        &self.table
    }

    /// Rebuilds from parts (crate-internal, for deserialization).
    pub(crate) fn from_parts(
        table: Vec<Torus32>,
        src_dim: usize,
        dst_dim: usize,
        levels: usize,
        base_log: usize,
    ) -> Self {
        KeySwitchKey { table, src_dim, dst_dim, levels, base_log }
    }

    /// Decomposition levels `t` (for serialization headers).
    pub(crate) fn levels(&self) -> usize {
        self.levels
    }

    /// Decomposition base log (for serialization headers).
    pub(crate) fn base_log(&self) -> usize {
        self.base_log
    }

    /// Source dimension (`k * N`).
    pub fn src_dim(&self) -> usize {
        self.src_dim
    }

    /// Destination dimension (`n`).
    pub fn dst_dim(&self) -> usize {
        self.dst_dim
    }

    /// Total stored samples (for size accounting).
    pub fn num_samples(&self) -> usize {
        self.table.len() / (self.dst_dim + 1)
    }

    /// Sample `r` as `(mask, body)`.
    fn row(&self, r: usize) -> (&[Torus32], Torus32) {
        let stride = self.dst_dim + 1;
        let (mask, body) = self.table[r * stride..][..stride].split_at(self.dst_dim);
        (mask, body[0])
    }

    /// Switches `ct` (under the source key) to a sample under the
    /// destination key encrypting the same message (plus key-switch noise).
    ///
    /// # Panics
    ///
    /// Panics if `ct` does not have the source dimension.
    pub fn switch(&self, ct: &LweCiphertext) -> LweCiphertext {
        let mut out = LweCiphertext::trivial(Torus32::ZERO, self.dst_dim);
        self.switch_into(ct, &mut out);
        out
    }

    /// Like [`KeySwitchKey::switch`], writing into `out` without allocating
    /// (reusing `out`'s mask buffer when it already has the destination
    /// dimension).
    pub fn switch_into(&self, ct: &LweCiphertext, out: &mut LweCiphertext) {
        self.switch_range_into(ct, 0..self.src_dim, ct.body(), out);
    }

    /// The share of [`KeySwitchKey::switch_into`] that mask elements
    /// `inputs` contribute, on top of the trivial sample of `body`. The
    /// switch is a sum in wrapping `u32`, so the shares of disjoint ranges
    /// covering the mask (one of them carrying `ct`'s body) add up to
    /// exactly the whole switch.
    pub(crate) fn switch_range_into(
        &self,
        ct: &LweCiphertext,
        inputs: std::ops::Range<usize>,
        body: Torus32,
        out: &mut LweCiphertext,
    ) {
        assert_eq!(ct.dim(), self.src_dim, "key switch input dimension mismatch");
        assert!(self.levels <= MAX_KS_LEVELS, "key switch supports at most {MAX_KS_LEVELS} levels");
        out.assign_trivial(body, self.dst_dim);
        let base = 1usize << self.base_log;
        let base_mask = (1u32 << self.base_log) - 1;
        let total_bits = (self.levels * self.base_log) as u32;
        // Rounding offset: half of the smallest represented step.
        let round = 1u32 << (32 - total_bits - 1);
        // Hoisted out of the per-mask-element loop: the per-level shift
        // amounts and the sample-row stride are invariant across `i`.
        let mut shifts = [0u32; MAX_KS_LEVELS];
        for (j, s) in shifts[..self.levels].iter_mut().enumerate() {
            *s = 32 - ((j + 1) * self.base_log) as u32;
        }
        let row_stride = self.levels * (base - 1);
        let mut digits = [0u32; MAX_KS_LEVELS];
        // Nonzero-digit rows are applied in *fused pairs* through the
        // dispatched `sub_assign2` kernel (`out -= a + b` in one
        // contiguous full-width pass over the mask), halving the number
        // of times the destination streams through the vector units
        // relative to one `sub_assign` per digit. Pairing carries across
        // mask elements, so odd digit counts don't strand a partner.
        // Wrapping arithmetic mod 2^32 is associative, so the fused form
        // is bit-identical to sequential subtractions.
        let kern = crate::simd::kernels();
        let mut pending: Option<(&[Torus32], Torus32)> = None;
        for (i, &a_i) in inputs.clone().zip(&ct.mask()[inputs]) {
            // Extract the whole digit vector of this mask element in one
            // flat pass, then do the (branchy, memory-bound) accumulation.
            let tmp = a_i.0.wrapping_add(round);
            for (d, &s) in digits[..self.levels].iter_mut().zip(&shifts[..self.levels]) {
                *d = (tmp >> s) & base_mask;
            }
            let row = i * row_stride;
            for (j, &digit) in digits[..self.levels].iter().enumerate() {
                if digit != 0 {
                    let (mask, body) = self.row(row + j * (base - 1) + (digit as usize - 1));
                    match pending.take() {
                        None => pending = Some((mask, body)),
                        Some((first_mask, first_body)) => {
                            kern.sub_assign2(out.mask_mut(), first_mask, mask);
                            out.b -= first_body + body;
                        }
                    }
                }
            }
        }
        if let Some((mask, body)) = pending {
            kern.sub_assign(out.mask_mut(), mask);
            out.b -= body;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_switch_preserves_message() {
        let mut rng = SecureRng::seed_from_u64(50);
        let src = LweKey::generate(256, &mut rng);
        let dst = LweKey::generate(64, &mut rng);
        let ksk = KeySwitchKey::generate(&src, &dst, 8, 2, 1e-9, &mut rng);
        for frac in [-1, 1] {
            let m = Torus32::from_fraction(frac, 3);
            let ct = src.encrypt(m, 1e-9, &mut rng);
            let switched = ksk.switch(&ct);
            assert_eq!(switched.dim(), 64);
            let err = (dst.phase(&switched) - m).to_f64().abs();
            assert!(err < 1e-3, "frac={frac} err={err}");
        }
    }

    #[test]
    fn key_switch_is_linear() {
        let mut rng = SecureRng::seed_from_u64(51);
        let src = LweKey::generate(128, &mut rng);
        let dst = LweKey::generate(32, &mut rng);
        let ksk = KeySwitchKey::generate(&src, &dst, 8, 2, 1e-9, &mut rng);
        let m1 = Torus32::from_fraction(1, 3);
        let m2 = Torus32::from_fraction(1, 3);
        let c1 = src.encrypt(m1, 1e-9, &mut rng);
        let c2 = src.encrypt(m2, 1e-9, &mut rng);
        let mut sum = c1.clone();
        sum.add_assign(&c2);
        let switched = ksk.switch(&sum);
        let err = (dst.phase(&switched) - (m1 + m2)).to_f64().abs();
        assert!(err < 1e-3, "err={err}");
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_dimension_panics() {
        let mut rng = SecureRng::seed_from_u64(52);
        let src = LweKey::generate(128, &mut rng);
        let dst = LweKey::generate(32, &mut rng);
        let ksk = KeySwitchKey::generate(&src, &dst, 8, 2, 1e-9, &mut rng);
        let ct = LweCiphertext::trivial(Torus32::ZERO, 64);
        let _ = ksk.switch(&ct);
    }

    #[test]
    fn paired_accumulation_is_bit_exact_with_sequential() {
        let mut rng = SecureRng::seed_from_u64(54);
        let src = LweKey::generate(128, &mut rng);
        let dst = LweKey::generate(32, &mut rng);
        let ksk = KeySwitchKey::generate(&src, &dst, 8, 2, 1e-9, &mut rng);
        for seed in 0..4u64 {
            let mut rng = SecureRng::seed_from_u64(100 + seed);
            let ct = src.encrypt(Torus32::from_fraction(1, 3), 1e-9, &mut rng);
            let got = ksk.switch(&ct);
            // Reference: one sub_assign per nonzero digit, no pairing.
            let mut want = LweCiphertext::trivial(ct.body(), ksk.dst_dim);
            let base = 1usize << ksk.base_log;
            let base_mask = (1u32 << ksk.base_log) - 1;
            let round = 1u32 << (32 - (ksk.levels * ksk.base_log) as u32 - 1);
            for (i, &a_i) in ct.mask().iter().enumerate() {
                let tmp = a_i.0.wrapping_add(round);
                for j in 0..ksk.levels {
                    let digit = (tmp >> (32 - ((j + 1) * ksk.base_log) as u32)) & base_mask;
                    if digit != 0 {
                        let row = i * ksk.levels * (base - 1);
                        let (mask, body) = ksk.row(row + j * (base - 1) + (digit as usize - 1));
                        want.sub_assign(&LweCiphertext::from_parts(mask.to_vec(), body));
                    }
                }
            }
            assert_eq!(got, want, "seed={seed}");
        }
    }

    #[test]
    fn sample_count_accounting() {
        let mut rng = SecureRng::seed_from_u64(53);
        let src = LweKey::generate(16, &mut rng);
        let dst = LweKey::generate(8, &mut rng);
        let ksk = KeySwitchKey::generate(&src, &dst, 3, 2, 1e-9, &mut rng);
        assert_eq!(ksk.num_samples(), 16 * 3 * 3);
        assert_eq!(ksk.src_dim(), 16);
        assert_eq!(ksk.dst_dim(), 8);
    }
}
