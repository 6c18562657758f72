//! LWE-to-LWE key switching: converts samples under the extracted
//! dimension-`k·N` key back to the small dimension-`n` gate key.
//!
//! Figure 7 of the paper shows key switching as the second-largest cost of
//! a bootstrapped gate evaluation (after blind rotation). There is one
//! switching loop, [`KeySwitchKey::switch_into`]'s batch form, and it is
//! *element-major*: for each source element `i` it loads block `i` of the
//! key once and applies its digit rows to every raw sample of the batch.
//! At the 128-bit parameters a raw selects ~6 144 of the 24 576 rows
//! (~15.5 MB of the 62 MB key), so switching raws one at a time streams
//! ~15.5 MB per raw from memory; a batch streams each ~60 KB block once
//! and re-reads it from L2 for its other raws, so its memory traffic stays
//! at one pass over the key (at most ~62 MB) however many raws share it.

use crate::lanes;
use crate::lwe::{LweCiphertext, LweKey};
use crate::rng::SecureRng;
use crate::simd::Kernels;
use crate::torus::Torus32;

/// Upper bound on decomposition levels, so [`KeySwitchKey::switch_into`]
/// can keep its per-level shifts on the stack (default params use
/// `t = 8`).
const MAX_KS_LEVELS: usize = 32;

/// Raws switched per pass over the key: each keeps its unpaired row on
/// the stack, and the group's outputs (~160 KB at the 128-bit
/// parameters) stay L2-resident beside the block they are switched
/// against. Wider than any lane's share of a benchmark wave.
const KS_GROUP: usize = 64;

/// Mask row of key-switch sample `r` in a seeded server key: `2³² + r`, past
/// every bootstrapping-key row (see [`crate::keys::ServerKey`]).
const FIRST_MASK_ROW: u64 = 1 << 32;

/// A key-switching key: `src_dim × t × (base - 1)` LWE samples under the
/// destination key.
///
/// `ks[i][j][v-1]` encrypts `v * s_i / base^(j+1)` where `s_i` is bit `i`
/// of the source key. For the default parameters (`N = 1024`, `t = 8`,
/// `base = 4`, `n = 630`) this is ~62 MB in memory, but each sample's `n`
/// mask words come from the public stream of its row
/// (`SecureRng::mask_stream`), so only the 24 576 bodies (96 KiB)
/// travel. It is one block per source bit, a row per sample: sample
/// `(i·t + j)·(base − 1) + v − 1` is row `k = j·(base − 1) + v − 1` of
/// block `i`, `blocks[i][k·(n + 1)..][..n + 1]`, its `n` mask words then
/// its body. Blocks of ~60 KB come from the allocator's heap, which the
/// next key reuses, where one 62 MB table would be a fresh mapping whose
/// every page each key faults in again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeySwitchKey {
    blocks: Vec<Vec<Torus32>>,
    src_dim: usize,
    dst_dim: usize,
    levels: usize,
    base_log: usize,
}

impl KeySwitchKey {
    /// Generates the key-switching key from `src` to `dst`: each sample's
    /// mask from the public stream of `mask_seed` and its row, its noise
    /// from the secret stream of its row under a noise seed drawn from
    /// `rng`, on [`crate::lanes::default_width`] lanes.
    pub fn generate(
        src: &LweKey,
        dst: &LweKey,
        levels: usize,
        base_log: usize,
        noise_stdev: f64,
        mask_seed: u64,
        rng: &mut SecureRng,
    ) -> Self {
        let seeds = [mask_seed, rng.uniform_u64()];
        Self::generate_on(src, dst, levels, base_log, noise_stdev, seeds, lanes::default_width())
    }

    /// [`KeySwitchKey::generate`] under `[mask_seed, noise_seed]`, the
    /// source bits cut into one contiguous range per lane. Sample `r`'s
    /// mask and noise both come from the streams of row `2³² + r`, so the
    /// key is the same at any lane count.
    pub(crate) fn generate_on(
        src: &LweKey,
        dst: &LweKey,
        levels: usize,
        base_log: usize,
        noise_stdev: f64,
        [mask_seed, noise_seed]: [u64; 2],
        lanes: usize,
    ) -> Self {
        let digits = (1usize << base_log) - 1;
        Self::build(src.dim(), dst.dim(), levels, base_log, mask_seed, lanes, |r, row| {
            // Sample r = (i·t + j)·(base − 1) + v − 1 encrypts
            // v · s_i / base^(j+1).
            let (i, j, v) = (r / (levels * digits), r / digits % levels, r % digits + 1);
            let unit = Torus32(1u32 << (32 - (j + 1) * base_log));
            let message = (v as i32 * src.bits()[i]) * unit;
            let mut noise = SecureRng::noise_stream(noise_seed, FIRST_MASK_ROW + r as u64);
            dst.encrypt_body_into(message, noise_stdev, &mut noise, row);
        })
    }

    /// The key whose sample `r` has the body `body(r)`, with every mask
    /// regenerated from `mask_seed`: what the bodies of a seeded key
    /// decode to.
    pub(crate) fn from_bodies(
        src_dim: usize,
        dst_dim: usize,
        levels: usize,
        base_log: usize,
        mask_seed: u64,
        lanes: usize,
        body: impl Fn(usize) -> Torus32 + Sync,
    ) -> Self {
        Self::build(src_dim, dst_dim, levels, base_log, mask_seed, lanes, |r, row| {
            row[dst_dim] = body(r)
        })
    }

    /// A key with every sample's mask drawn from its row's stream and its
    /// body written by `body(r, row)`: the blocks are allocated on the
    /// calling thread (see `BootstrappingKey::build`) and filled with the
    /// source bits cut into one contiguous range per lane, each row
    /// finished while it is in cache.
    fn build(
        src_dim: usize,
        dst_dim: usize,
        levels: usize,
        base_log: usize,
        mask_seed: u64,
        lanes: usize,
        body: impl Fn(usize, &mut [Torus32]) + Sync,
    ) -> Self {
        let stride = dst_dim + 1;
        let per_bit = levels * ((1usize << base_log) - 1);
        let mut blocks = vec![vec![Torus32::ZERO; per_bit * stride]; src_dim];
        lanes::for_each_run(lanes, &mut blocks, 1, |first, run| {
            for (i, block) in (first..).zip(run) {
                for (r, row) in (i * per_bit..).zip(block.chunks_exact_mut(stride)) {
                    let mut stream = SecureRng::mask_stream(mask_seed, FIRST_MASK_ROW + r as u64);
                    row[..dst_dim].iter_mut().for_each(|a| *a = Torus32::uniform(&mut stream));
                    body(r, row);
                }
            }
        });
        KeySwitchKey { blocks, src_dim, dst_dim, levels, base_log }
    }

    /// The body of every sample, in sample order: all a seeded key's
    /// key-switching key sends.
    pub(crate) fn bodies(&self) -> impl Iterator<Item = Torus32> + '_ {
        let stride = self.dst_dim + 1;
        self.blocks.iter().flat_map(move |b| b.chunks_exact(stride).map(move |row| row[stride - 1]))
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
        self.src_dim * self.samples_per_bit()
    }

    /// Samples per source bit: `t·(base − 1)`.
    fn samples_per_bit(&self) -> usize {
        self.levels * ((1 << self.base_log) - 1)
    }

    /// Sample `r` as `(mask, body)`.
    #[cfg(test)]
    pub(crate) fn row(&self, r: usize) -> (&[Torus32], Torus32) {
        self.sample(r / self.samples_per_bit(), r % self.samples_per_bit())
    }

    /// Row `k` of source bit `i`'s block as `(mask, body)`.
    fn sample(&self, i: usize, k: usize) -> (&[Torus32], Torus32) {
        let stride = self.dst_dim + 1;
        let (mask, body) = self.blocks[i][k * stride..][..stride].split_at(self.dst_dim);
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
    /// dimension): a batch of one.
    pub fn switch_into(&self, ct: &LweCiphertext, out: &mut LweCiphertext) {
        let (raws, outs) = (std::slice::from_ref(ct), std::slice::from_mut(out));
        self.switch_batch_into(crate::simd::kernels(), raws, 0..self.src_dim, true, outs);
    }

    /// The share of switching every `raws[r]` into `outs[r]` that mask
    /// elements `inputs` contribute, on top of the trivial sample of the
    /// raw's body (`bodies`) or of zero. The switch is a sum in wrapping
    /// `u32`, so the shares of disjoint ranges covering the mask (one of
    /// them carrying the bodies) add up to exactly the whole switch, and
    /// a raw's result does not depend on the batch around it.
    ///
    /// Element-major: for each source element `i`, block `i` is loaded
    /// once and its nonzero-digit rows applied to every raw of a
    /// `KS_GROUP`-raw group, in *fused pairs* through the dispatched
    /// `sub_assign2` kernel (`out -= a + b` in one full-width pass),
    /// which halves how often each output streams through the vector
    /// units relative to one `sub_assign` per digit. A raw's pairing
    /// carries across mask elements, so odd digit counts don't strand a
    /// partner; wrapping arithmetic mod 2^32 is associative, so the
    /// fused form is bit-identical to sequential subtractions. `kern`
    /// is the dispatched [`crate::simd::kernels`] except in tests, which
    /// run every tier without re-pointing the process-global dispatch.
    ///
    /// # Panics
    ///
    /// Panics if `raws` and `outs` differ in length or a raw does not
    /// have the source dimension.
    pub(crate) fn switch_batch_into(
        &self,
        kern: &Kernels,
        raws: &[LweCiphertext],
        inputs: std::ops::Range<usize>,
        bodies: bool,
        outs: &mut [LweCiphertext],
    ) {
        assert_eq!(raws.len(), outs.len(), "one key switch output per raw");
        assert!(self.levels <= MAX_KS_LEVELS, "key switch supports at most {MAX_KS_LEVELS} levels");
        for (raw, out) in raws.iter().zip(outs.iter_mut()) {
            assert_eq!(raw.dim(), self.src_dim, "key switch input dimension mismatch");
            out.assign_trivial(if bodies { raw.body() } else { Torus32::ZERO }, self.dst_dim);
        }
        let digits = (1usize << self.base_log) - 1;
        let base_mask = digits as u32;
        let total_bits = (self.levels * self.base_log) as u32;
        // Rounding offset: half of the smallest represented step.
        let round = 1u32 << (32 - total_bits - 1);
        // Hoisted out of the per-mask-element loop: the per-level shift
        // amounts are invariant across `i`.
        let mut shifts = [0u32; MAX_KS_LEVELS];
        for (j, s) in shifts[..self.levels].iter_mut().enumerate() {
            *s = 32 - ((j + 1) * self.base_log) as u32;
        }
        let shifts = &shifts[..self.levels];
        for (raws, outs) in raws.chunks(KS_GROUP).zip(outs.chunks_mut(KS_GROUP)) {
            let mut pending: [Option<(&[Torus32], Torus32)>; KS_GROUP] = [None; KS_GROUP];
            for i in inputs.clone() {
                for ((raw, out), pending) in raws.iter().zip(outs.iter_mut()).zip(&mut pending) {
                    let tmp = raw.mask()[i].0.wrapping_add(round);
                    for (j, &s) in shifts.iter().enumerate() {
                        let digit = ((tmp >> s) & base_mask) as usize;
                        if digit != 0 {
                            let (mask, body) = self.sample(i, j * digits + digit - 1);
                            match pending.take() {
                                None => *pending = Some((mask, body)),
                                Some((first_mask, first_body)) => {
                                    kern.sub_assign2(out.mask_mut(), first_mask, mask);
                                    out.b -= first_body + body;
                                }
                            }
                        }
                    }
                }
            }
            for (out, pending) in outs.iter_mut().zip(pending) {
                if let Some((mask, body)) = pending {
                    kern.sub_assign(out.mask_mut(), mask);
                    out.b -= body;
                }
            }
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
        let ksk = KeySwitchKey::generate(&src, &dst, 8, 2, 1e-9, 1, &mut rng);
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
        let ksk = KeySwitchKey::generate(&src, &dst, 8, 2, 1e-9, 1, &mut rng);
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
        let ksk = KeySwitchKey::generate(&src, &dst, 8, 2, 1e-9, 1, &mut rng);
        let ct = LweCiphertext::trivial(Torus32::ZERO, 64);
        let _ = ksk.switch(&ct);
    }

    /// One `sub_assign` per nonzero digit, one raw at a time, no pairing.
    fn unpaired_reference(ksk: &KeySwitchKey, ct: &LweCiphertext) -> LweCiphertext {
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
        want
    }

    #[test]
    fn paired_accumulation_is_bit_exact_with_sequential() {
        let mut rng = SecureRng::seed_from_u64(54);
        let src = LweKey::generate(128, &mut rng);
        let dst = LweKey::generate(32, &mut rng);
        let ksk = KeySwitchKey::generate(&src, &dst, 8, 2, 1e-9, 1, &mut rng);
        for seed in 0..4u64 {
            let mut rng = SecureRng::seed_from_u64(100 + seed);
            let ct = src.encrypt(Torus32::from_fraction(1, 3), 1e-9, &mut rng);
            assert_eq!(ksk.switch(&ct), unpaired_reference(&ksk, &ct), "seed={seed}");
        }
    }

    #[test]
    fn a_batch_is_bit_exact_with_the_unpaired_reference_and_splits_by_range_on_every_simd_path() {
        use crate::simd::{kernels_for, SimdPath};
        let mut rng = SecureRng::seed_from_u64(55);
        let src = LweKey::generate(128, &mut rng);
        let dst = LweKey::generate(32, &mut rng);
        let ksk = KeySwitchKey::generate(&src, &dst, 8, 2, 1e-9, 1, &mut rng);
        let fresh = |width| vec![LweCiphertext::trivial(Torus32::ZERO, ksk.dst_dim); width];
        for path in SimdPath::ALL {
            let Some(kern) = kernels_for(path) else { continue };
            for width in [1, 2, 7, 8, 9, 19, 60, KS_GROUP + 6] {
                let raws: Vec<_> = (0..width)
                    .map(|r| src.encrypt(Torus32::from_fraction(r as i32, 3), 1e-9, &mut rng))
                    .collect();
                let mut whole = fresh(width);
                ksk.switch_batch_into(kern, &raws, 0..ksk.src_dim, true, &mut whole);
                for (r, (raw, got)) in raws.iter().zip(&whole).enumerate() {
                    let want = unpaired_reference(&ksk, raw);
                    assert_eq!(got, &want, "raw {r} of {width} on path={path}");
                }
                // Member 0 carries the bodies; the shares add to the whole.
                let cut = ksk.src_dim / 3;
                let (mut first, mut second) = (fresh(width), fresh(width));
                ksk.switch_batch_into(kern, &raws, 0..cut, true, &mut first);
                ksk.switch_batch_into(kern, &raws, cut..ksk.src_dim, false, &mut second);
                for (r, (sum, part)) in first.iter_mut().zip(&second).enumerate() {
                    sum.add_assign(part);
                    assert_eq!(sum, &whole[r], "shares of raw {r} of {width} on path={path}");
                }
            }
        }
    }

    #[test]
    fn sample_count_accounting() {
        let mut rng = SecureRng::seed_from_u64(53);
        let src = LweKey::generate(16, &mut rng);
        let dst = LweKey::generate(8, &mut rng);
        let ksk = KeySwitchKey::generate(&src, &dst, 3, 2, 1e-9, 1, &mut rng);
        assert_eq!(ksk.num_samples(), 16 * 3 * 3);
        assert_eq!(ksk.src_dim(), 16);
        assert_eq!(ksk.dst_dim(), 8);
    }
}
