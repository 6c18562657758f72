//! Blind rotation and gate bootstrapping — the operation that dominates
//! TFHE execution time (the "Blind Rotation" segment of the paper's
//! Figure 7).
//!
//! The loops a bootstrap spends its cycles in — the folded transforms,
//! the external-product MAC, gadget decomposition, and the trailing key
//! switch — all route through the runtime-dispatched kernels of
//! [`crate::simd`] (AVX2+FMA / portable scalar, overridable
//! with `PYTFHE_SIMD`), so nothing in this module is
//! architecture-specific. There is one negacyclic transform, the folded
//! `f64` FFT of [`crate::fft`].
//!
//! There is one blind-rotation loop, [`BootstrappingKey::rotate_batch_into`],
//! and it is batch-first and *lane-outer*: for each CMUX step, for each
//! ciphertext of the batch, the single-polynomial
//! [`TgswFft::rotate_cmux_assign`] against the same bootstrapping-key
//! row. The row (96 KB at the 128-bit parameters) is fetched from memory
//! once per batch and re-read from L2 by the other lanes, so the per-gate
//! cost cannot grow with the batch width, and a lane of a batch is
//! bit-identical to the same ciphertext rotated alone because it *is*
//! the same code. A single bootstrap is a batch of one.

use crate::fft::FftPlan;
use crate::lwe::{LweCiphertext, LweKey};
use crate::params::Params;
use crate::poly::TorusPoly;
use crate::rng::SecureRng;
use crate::tgsw::{CmuxScratch, ExternalProductScratch, Gadget, TgswCiphertext, TgswFft};
use crate::tlwe::{TlweCiphertext, TlweKey};
use crate::torus::Torus32;

/// What one lane of a blind rotation rotates.
#[derive(Debug, Clone, Copy)]
pub enum TestVector<'a> {
    /// Every coefficient equal to `mu`: the sign function of gate
    /// bootstrapping (phase in `(0, 1/2)` → `+mu`, in `(-1/2, 0)` →
    /// `-mu`).
    Constant(Torus32),
    /// `N` torus values: TFHE's *programmable* bootstrapping (the paper's
    /// Section II-B: "fast programmable bootstrapping which reduces the
    /// noise of a ciphertext while simultaneously performing an arbitrary
    /// lookup-table operation"). An input whose phase rounds to `j / 2N`
    /// (for `j < N`) is mapped to a fresh encryption of `lut[j]`, and
    /// phases in the negacyclic half (`j >= N`) to `-lut[j - N]`.
    Poly(&'a TorusPoly),
}

impl TestVector<'_> {
    /// Writes `X^k · self` (negacyclic, `k < 2N`) into `out`.
    fn mul_by_xk_into(self, k: usize, out: &mut TorusPoly) {
        match self {
            TestVector::Constant(mu) => {
                // The coefficients that wrap past `X^N` change sign, and
                // `k >= N` negates the lot.
                let n = out.len();
                let (shift, wrapped) = if k < n { (k, -mu) } else { (k - n, mu) };
                let (head, tail) = out.coeffs_mut().split_at_mut(shift);
                head.fill(wrapped);
                tail.fill(-wrapped);
            }
            TestVector::Poly(lut) => {
                assert_eq!(lut.len(), out.len(), "LUT must have N entries");
                lut.mul_by_xk_into(k, out);
            }
        }
    }
}

/// The bootstrapping key: one FFT-domain TGSW encryption of each bit of the
/// LWE gate key, under the TLWE key. Every polynomial is stored folded
/// (`N/2` half-complex points), halving the key bytes relative to the
/// full-size layout.
#[derive(Debug, Clone)]
pub struct BootstrappingKey {
    tgsw: Vec<TgswFft>,
    plan: FftPlan,
    params: Params,
}

impl BootstrappingKey {
    /// Generates the bootstrapping key for `lwe_key` under `tlwe_key`.
    pub fn generate(
        params: Params,
        lwe_key: &LweKey,
        tlwe_key: &TlweKey,
        rng: &mut SecureRng,
    ) -> Self {
        let plan = FftPlan::new(params.poly_size);
        let gadget = Gadget { levels: params.decomp_levels, base_log: params.decomp_base_log };
        let tgsw = lwe_key
            .bits()
            .iter()
            .map(|&bit| {
                TgswCiphertext::encrypt(tlwe_key, bit, gadget, params.glwe_noise_stdev, rng)
                    .to_fft(&plan)
            })
            .collect();
        BootstrappingKey { tgsw, plan, params }
    }

    /// Raw TGSW rows (crate-internal, for serialization).
    pub(crate) fn tgsw_raw(&self) -> &[TgswFft] {
        &self.tgsw
    }

    /// Rebuilds from parts (crate-internal, for deserialization).
    pub(crate) fn from_parts(params: Params, tgsw: Vec<TgswFft>) -> Self {
        let plan = FftPlan::new(params.poly_size);
        BootstrappingKey { tgsw, plan, params }
    }

    /// The parameter set this key was generated for.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// The FFT plan (shared with callers that need matching transforms).
    pub fn plan(&self) -> &FftPlan {
        &self.plan
    }

    /// The gadget parameters of this key's decomposition.
    fn gadget(&self) -> Gadget {
        Gadget { levels: self.params.decomp_levels, base_log: self.params.decomp_base_log }
    }

    /// Allocates external-product scratch sized for this key (for callers
    /// driving [`TgswFft::external_product`] directly).
    pub fn scratch(&self) -> ExternalProductScratch {
        ExternalProductScratch::new(self.params.poly_size, self.params.glwe_dim, self.gadget())
    }

    /// Allocates the bootstrap scratch (CMUX buffers plus one
    /// accumulator) sized for this key. One per worker thread; every
    /// rotation on it runs without touching the allocator, except that
    /// the first batch of a new width adds one accumulator per extra lane
    /// ([`crate::ServerKey::gate_scratch`] allocates all
    /// [`crate::gates::FUSE_CHUNK`] of them up front).
    pub fn boot_scratch(&self) -> BootstrapScratch {
        self.boot_scratch_lanes(1)
    }

    /// [`BootstrappingKey::boot_scratch`] with the accumulators of a
    /// `lanes`-wide batch allocated up front, so that no batch up to that
    /// width ever touches the allocator — not even the first one.
    pub(crate) fn boot_scratch_lanes(&self, lanes: usize) -> BootstrapScratch {
        let p = &self.params;
        BootstrapScratch {
            cs: CmuxScratch::new(p.poly_size, p.glwe_dim, self.gadget()),
            accs: (0..lanes).map(|_| self.blank_acc()).collect(),
        }
    }

    fn blank_acc(&self) -> TlweCiphertext {
        TlweCiphertext::trivial(TorusPoly::zero(self.params.poly_size), self.params.glwe_dim)
    }

    /// The one blind rotation, batch-first: for every lane, homomorphically
    /// computes `X^{-phase(inputs[lane]) * 2N} * tv(lane)` inside a TLWE
    /// accumulator, in one lane-outer pass over the key (see the module
    /// docs), and extracts the constant coefficient — which holds
    /// `tv[phase * 2N mod 2N]` with negacyclic sign — as a dimension-`k·N`
    /// LWE sample into `outs[lane]`; key switch it to return to the gate
    /// dimension. Inputs are `(mask, body)` views, struct-of-arrays
    /// friendly. The CMUX chain is test-vector independent, so lanes with
    /// different lookup tables share the pass, a lane whose mod-switched
    /// mask element is zero skips that step's CMUX whatever its
    /// neighbours do, and each lane's result does not depend on which
    /// other ciphertexts share the batch. Allocation-free once `scratch`
    /// has served a batch this wide.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` and `outs` differ in length, an input is not
    /// of the key's LWE dimension, or a polynomial test vector is not `N`
    /// entries long.
    pub fn rotate_batch_into<'t>(
        &self,
        inputs: &[(&[Torus32], Torus32)],
        tv: impl Fn(usize) -> TestVector<'t>,
        scratch: &mut BootstrapScratch,
        outs: &mut [LweCiphertext],
    ) {
        assert_eq!(outs.len(), inputs.len(), "one output per lane");
        let BootstrapScratch { cs, accs } = scratch;
        let n = self.params.poly_size;
        let n2 = 2 * n;
        if accs.len() < inputs.len() {
            accs.resize_with(inputs.len(), || self.blank_acc());
        }
        for (lane, (acc, (mask, body))) in accs.iter_mut().zip(inputs).enumerate() {
            assert_eq!(mask.len(), self.params.lwe_dim, "input of the wrong LWE dimension");
            // acc = X^{-barb} * tv = X^{2N - barb} * tv (trivial sample).
            for p in &mut acc.a {
                p.fill_assign(Torus32::ZERO);
            }
            tv(lane).mul_by_xk_into((n2 - body.mod_switch(n)) % n2, &mut acc.b);
        }
        for (i, bk_i) in self.tgsw.iter().enumerate() {
            for (acc, (mask, _)) in accs.iter_mut().zip(inputs) {
                let bara = mask[i].mod_switch(n);
                if bara != 0 {
                    // acc <- acc + bk_i ⊡ (X^{bara} * acc - acc), the CMUX.
                    bk_i.rotate_cmux_assign(acc, bara, &self.plan, cs);
                }
            }
        }
        for (acc, out) in accs.iter().zip(outs) {
            acc.extract_lwe_into(out);
        }
    }

    /// Gate bootstrapping of one ciphertext without the final key switch:
    /// a one-lane [`BootstrappingKey::rotate_batch_into`] against the
    /// constant test vector `mu`.
    pub fn bootstrap_raw_into(
        &self,
        ct: &LweCiphertext,
        mu: Torus32,
        scratch: &mut BootstrapScratch,
        out: &mut LweCiphertext,
    ) {
        let lane = [(ct.mask(), ct.body())];
        self.rotate_batch_into(
            &lane,
            |_| TestVector::Constant(mu),
            scratch,
            std::slice::from_mut(out),
        );
    }
}

/// Reusable buffers for the allocation-free bootstrap path: the CMUX
/// scratch (external-product buffers plus the difference/product
/// ciphertexts of one CMUX step, shared by every lane) and one
/// blind-rotation accumulator per lane of the widest batch served so
/// far. Construct once per worker with
/// [`BootstrappingKey::boot_scratch`].
#[derive(Debug)]
pub struct BootstrapScratch {
    cs: CmuxScratch,
    accs: Vec<TlweCiphertext>,
}

/// Numerically checks the sign-extraction property of the constant test
/// vector on plaintext phases (documentation of the convention,
/// exercised in tests).
#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;
    use crate::trace::thread_buffer_allocs;

    fn setup() -> (Params, LweKey, TlweKey, BootstrappingKey, SecureRng) {
        let params = Params::testing();
        let mut rng = SecureRng::seed_from_u64(60);
        let lwe_key = LweKey::generate(params.lwe_dim, &mut rng);
        let tlwe_key = TlweKey::generate(params.glwe_dim, params.poly_size, &mut rng);
        let bk = BootstrappingKey::generate(params, &lwe_key, &tlwe_key, &mut rng);
        (params, lwe_key, tlwe_key, bk, rng)
    }

    /// A one-lane rotation into a fresh raw sample.
    fn rotate_one(
        bk: &BootstrappingKey,
        ct: &LweCiphertext,
        tv: TestVector<'_>,
        scratch: &mut BootstrapScratch,
    ) -> LweCiphertext {
        let mut out = LweCiphertext::trivial(Torus32::ZERO, bk.params().extracted_lwe_dim());
        let lane = [(ct.mask(), ct.body())];
        bk.rotate_batch_into(&lane, |_| tv, scratch, std::slice::from_mut(&mut out));
        out
    }

    #[test]
    fn bootstrap_recovers_sign() {
        let (params, lwe_key, tlwe_key, bk, mut rng) = setup();
        let extracted = tlwe_key.extracted_lwe_key();
        let mu = Torus32::from_fraction(1, 3);
        let mut all_mu = TorusPoly::zero(params.poly_size);
        all_mu.fill_assign(mu);
        let mut scratch = bk.boot_scratch();
        for (message, want_sign) in [
            (Torus32::from_fraction(1, 3), 1.0),   // +1/8
            (Torus32::from_fraction(3, 3), 1.0),   // +3/8
            (Torus32::from_fraction(-1, 3), -1.0), // -1/8
            (Torus32::from_fraction(-3, 3), -1.0), // -3/8
        ] {
            let ct = lwe_key.encrypt(message, params.lwe_noise_stdev, &mut rng);
            let boot = rotate_one(&bk, &ct, TestVector::Constant(mu), &mut scratch);
            let phase = extracted.phase(&boot).to_f64();
            assert!(
                (phase - want_sign * 0.125).abs() < 0.03,
                "message {message}, phase {phase}, want {want_sign}*0.125"
            );
            // `Constant(mu)` only skips building the polynomial: through
            // both halves of the negacyclic wrap it is the same rotation.
            let poly = rotate_one(&bk, &ct, TestVector::Poly(&all_mu), &mut scratch);
            assert_eq!(boot, poly, "message {message}");
        }
    }

    #[test]
    fn bootstrap_output_noise_is_reset() {
        // Bootstrapping a somewhat noisy input still yields phase within a
        // tight band of ±mu.
        let (_params, lwe_key, tlwe_key, bk, mut rng) = setup();
        let extracted = tlwe_key.extracted_lwe_key();
        let mu = Torus32::from_fraction(1, 3);
        let mut scratch = bk.boot_scratch();
        // Noise of deviation 1e-2 is enormous compared to fresh noise but
        // keeps the phase inside the correct half-torus band.
        let ct = lwe_key.encrypt(Torus32::from_fraction(1, 3), 5e-3, &mut rng);
        let boot = rotate_one(&bk, &ct, TestVector::Constant(mu), &mut scratch);
        let phase = extracted.phase(&boot).to_f64();
        assert!((phase - 0.125).abs() < 0.03, "phase {phase}");
    }

    #[test]
    fn programmable_bootstrap_applies_a_lookup_table() {
        // A 4-level staircase LUT: messages k/8 (k = 0..4, positive half
        // torus) map to chosen outputs — TFHE's "arbitrary lookup-table
        // operation" (paper Section II-B).
        let (params, lwe_key, tlwe_key, bk, mut rng) = setup();
        let extracted = tlwe_key.extracted_lwe_key();
        let n = params.poly_size;
        let outputs = [
            Torus32::from_fraction(1, 4),
            Torus32::from_fraction(-3, 4),
            Torus32::from_fraction(5, 4),
            Torus32::from_fraction(7, 4),
        ];
        let mut lut = TorusPoly::zero(n);
        for j in 0..n {
            lut.coeffs_mut()[j] = outputs[j / (n / 4)];
        }
        let mut scratch = bk.boot_scratch();
        for (k, &want) in outputs.iter().enumerate() {
            // Message at the centre of step k: (k + 0.5) / 8 of the torus.
            let message = Torus32::from_f64((k as f64 + 0.5) / 8.0);
            let ct = lwe_key.encrypt(message, params.lwe_noise_stdev, &mut rng);
            let out = rotate_one(&bk, &ct, TestVector::Poly(&lut), &mut scratch);
            let got = extracted.phase(&out);
            assert!((got - want).to_f64().abs() < 0.02, "step {k}: got {got}, want {want}");
        }
    }

    #[test]
    fn rotation_of_a_trivial_input_reads_the_test_vector() {
        let (params, _lwe_key, tlwe_key, bk, mut rng) = setup();
        let extracted = tlwe_key.extracted_lwe_key();
        let n = params.poly_size;
        let tv = TorusPoly::uniform(n, &mut rng);
        let mut scratch = bk.boot_scratch();
        // A trivial LWE of message j/2N rotates the test vector by -j.
        for j in [0usize, 1, 5, n / 2] {
            let message = Torus32::from_f64(j as f64 / (2 * n) as f64);
            let ct = LweCiphertext::trivial(message, params.lwe_dim);
            let out = rotate_one(&bk, &ct, TestVector::Poly(&tv), &mut scratch);
            // The extracted sample holds tv[j] (no sign flip for j < N).
            let got = extracted.phase(&out);
            let want = tv.coeffs()[j];
            assert!((got - want).to_f64().abs() < 1e-3, "j={j} got {got} want {want}");
        }
    }

    #[test]
    fn bootstrap_raw_into_is_allocation_free() {
        let (params, lwe_key, _tlwe_key, bk, mut rng) = setup();
        let mu = Torus32::from_fraction(1, 3);
        let mut scratch = bk.boot_scratch();
        let ct = lwe_key.encrypt(mu, params.lwe_noise_stdev, &mut rng);
        let mut out = LweCiphertext::trivial(Torus32::ZERO, params.glwe_dim * params.poly_size);
        // Warm-up, then assert the steady state never touches the allocator.
        bk.bootstrap_raw_into(&ct, mu, &mut scratch, &mut out);
        let before = thread_buffer_allocs();
        bk.bootstrap_raw_into(&ct, mu, &mut scratch, &mut out);
        assert_eq!(thread_buffer_allocs() - before, 0);
    }

    /// `width` fresh ciphertexts of alternating sign; lane 0 of every
    /// batch has mask elements that mod-switch to 0, so its CMUX is
    /// skipped at steps where its neighbours' is not.
    fn lanes_with_a_skipping_lane(
        width: usize,
        params: &Params,
        lwe_key: &LweKey,
        rng: &mut SecureRng,
    ) -> Vec<LweCiphertext> {
        let mut cts: Vec<LweCiphertext> = (0..width)
            .map(|i| {
                let msg = Torus32::from_fraction(if i % 2 == 0 { 1 } else { -1 }, 3);
                lwe_key.encrypt(msg, params.lwe_noise_stdev, rng)
            })
            .collect();
        for i in [0, 3, params.lwe_dim - 1] {
            cts[0].a[i] = Torus32::ZERO;
            assert_eq!(cts[0].a[i].mod_switch(params.poly_size), 0);
        }
        cts
    }

    #[test]
    fn batched_bootstrap_matches_single_path_bit_exactly() {
        let (params, lwe_key, _tlwe_key, bk, mut rng) = setup();
        let mu = Torus32::from_fraction(1, 3);
        let mut single = bk.boot_scratch();
        let mut batch = bk.boot_scratch();
        let out_dim = params.extracted_lwe_dim();
        for width in 1..=crate::gates::FUSE_CHUNK {
            let cts = lanes_with_a_skipping_lane(width, &params, &lwe_key, &mut rng);
            let inputs: Vec<(&[Torus32], Torus32)> =
                cts.iter().map(|ct| (ct.a.as_slice(), ct.b)).collect();
            let mut outs = vec![LweCiphertext::trivial(Torus32::ZERO, out_dim); width];
            bk.rotate_batch_into(&inputs, |_| TestVector::Constant(mu), &mut batch, &mut outs);
            for (ct, got) in cts.iter().zip(&outs) {
                let mut want = LweCiphertext::trivial(Torus32::ZERO, out_dim);
                bk.bootstrap_raw_into(ct, mu, &mut single, &mut want);
                assert_eq!(got, &want, "width {width}: lane diverged from the single path");
            }
        }
    }

    #[test]
    fn batched_programmable_bootstrap_matches_single_path_bit_exactly() {
        let (params, lwe_key, _tlwe_key, bk, mut rng) = setup();
        let n = params.poly_size;
        let mut single = bk.boot_scratch();
        let mut batch = bk.boot_scratch();
        let out_dim = params.extracted_lwe_dim();
        // Distinct per-lane test vectors: the whole point of the
        // generalized batch is carrying mixed lookup tables.
        let tvs: Vec<TorusPoly> =
            (0..crate::gates::FUSE_CHUNK).map(|_| TorusPoly::uniform(n, &mut rng)).collect();
        for width in 1..=crate::gates::FUSE_CHUNK {
            let cts = lanes_with_a_skipping_lane(width, &params, &lwe_key, &mut rng);
            let inputs: Vec<(&[Torus32], Torus32)> =
                cts.iter().map(|ct| (ct.a.as_slice(), ct.b)).collect();
            let mut outs = vec![LweCiphertext::trivial(Torus32::ZERO, out_dim); width];
            bk.rotate_batch_into(&inputs, |l| TestVector::Poly(&tvs[l]), &mut batch, &mut outs);
            for (lane, (ct, got)) in cts.iter().zip(&outs).enumerate() {
                let want = rotate_one(&bk, ct, TestVector::Poly(&tvs[lane]), &mut single);
                assert_eq!(got, &want, "width {width} lane {lane} diverged from the single path");
            }
        }
    }

    #[test]
    fn batched_bootstrap_is_allocation_free_after_warmup() {
        let (params, lwe_key, _tlwe_key, bk, mut rng) = setup();
        let mu = TestVector::Constant(Torus32::from_fraction(1, 3));
        let mut batch = bk.boot_scratch();
        let width = crate::gates::FUSE_CHUNK;
        let cts = lanes_with_a_skipping_lane(width, &params, &lwe_key, &mut rng);
        let inputs: Vec<(&[Torus32], Torus32)> =
            cts.iter().map(|ct| (ct.a.as_slice(), ct.b)).collect();
        let mut outs =
            vec![LweCiphertext::trivial(Torus32::ZERO, params.extracted_lwe_dim()); width];
        // The first batch of this width grows the per-lane accumulators.
        bk.rotate_batch_into(&inputs, |_| mu, &mut batch, &mut outs);
        let before = thread_buffer_allocs();
        bk.rotate_batch_into(&inputs, |_| mu, &mut batch, &mut outs);
        bk.rotate_batch_into(&inputs[..3], |_| mu, &mut batch, &mut outs[..3]);
        assert_eq!(thread_buffer_allocs() - before, 0);
    }
}
