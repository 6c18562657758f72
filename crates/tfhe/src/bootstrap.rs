//! Blind rotation and gate bootstrapping — the operation that dominates
//! TFHE execution time (the "Blind Rotation" segment of the paper's
//! Figure 7).
//!
//! The loops a bootstrap spends its cycles in — the folded transforms,
//! the external-product MAC, gadget decomposition, and the trailing key
//! switch — all route through the runtime-dispatched kernels of
//! [`crate::simd`] (AVX-512 / AVX2+FMA / NEON / portable scalar,
//! overridable with `PYTFHE_SIMD`), so nothing in this module is
//! architecture-specific. The negacyclic transform itself is also
//! selectable: `PYTFHE_TRANSFORM=ntt` swaps the f64 FFT for the exact
//! prime-field NTT of [`crate::ntt`].
//!
//! There is one blind-rotation loop, and it is batch-first and
//! *lane-outer*: for each CMUX step, for each ciphertext of the batch,
//! the single-polynomial [`TgswFft::rotate_cmux_assign`] against the same
//! bootstrapping-key row. The row (96 KB at the 128-bit parameters) is
//! fetched from memory once per batch and re-read from L2 by the other
//! lanes, so the per-gate cost cannot grow with the batch width, and a
//! lane of a batch is bit-identical to the same ciphertext rotated alone
//! because it *is* the same code. A single bootstrap is a batch of one.

use std::sync::OnceLock;

use crate::fft::FftPlan;
use crate::lwe::LweCiphertext;
use crate::lwe::LweKey;
use crate::ntt::{NttCmuxScratch, NttKey};
use crate::params::Params;
use crate::poly::TorusPoly;
use crate::rng::SecureRng;
use crate::tgsw::{CmuxScratch, ExternalProductScratch, Gadget, TgswCiphertext, TgswFft};
use crate::tlwe::{TlweCiphertext, TlweKey};
use crate::torus::Torus32;

/// The bootstrapping key: one FFT-domain TGSW encryption of each bit of the
/// LWE gate key, under the TLWE key. Every polynomial is stored folded
/// (`N/2` half-complex points), halving the key bytes relative to the
/// full-size layout.
#[derive(Debug, Clone)]
pub struct BootstrappingKey {
    tgsw: Vec<TgswFft>,
    plan: FftPlan,
    params: Params,
    /// NTT mirror of `tgsw`, derived lazily on first use when
    /// `PYTFHE_TRANSFORM=ntt` (the wire format stays FFT-only).
    ntt: OnceLock<NttKey>,
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
        BootstrappingKey { tgsw, plan, params, ntt: OnceLock::new() }
    }

    /// Raw TGSW rows (crate-internal, for serialization).
    pub(crate) fn tgsw_raw(&self) -> &[TgswFft] {
        &self.tgsw
    }

    /// Rebuilds from parts (crate-internal, for deserialization).
    pub(crate) fn from_parts(params: Params, tgsw: Vec<TgswFft>) -> Self {
        let plan = FftPlan::new(params.poly_size);
        BootstrappingKey { tgsw, plan, params, ntt: OnceLock::new() }
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

    /// The NTT mirror of this key when the NTT transform is selected,
    /// deriving it from the FFT rows on first use (thread-safe; every
    /// worker shares the one derived key).
    fn ntt_key(&self) -> Option<&NttKey> {
        if !crate::ntt::ntt_selected() {
            return None;
        }
        Some(
            self.ntt
                .get_or_init(|| NttKey::from_fft(&self.tgsw, &self.plan, self.params.poly_size)),
        )
    }

    /// Allocates external-product scratch sized for this key (for callers
    /// driving [`TgswFft::external_product`] directly).
    pub fn scratch(&self) -> ExternalProductScratch {
        ExternalProductScratch::new(self.params.poly_size, self.params.glwe_dim, self.gadget())
    }

    /// Allocates the bootstrap scratch (CMUX buffers plus one
    /// accumulator and a test-vector buffer) sized for this key. One per
    /// worker thread; every bootstrap and blind-rotate call on it runs
    /// without touching the allocator (the convenience variants allocate
    /// only their return value), except that the first batch of a new
    /// width adds one accumulator per extra lane
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
            tv: TorusPoly::zero(p.poly_size),
            ntt: None,
        }
    }

    fn blank_acc(&self) -> TlweCiphertext {
        TlweCiphertext::trivial(TorusPoly::zero(self.params.poly_size), self.params.glwe_dim)
    }

    /// Blind rotation: homomorphically computes
    /// `X^{-phase(ct) * 2N} * test_vector` inside a TLWE accumulator.
    ///
    /// After rotation, the constant coefficient of the accumulator holds
    /// `test_vector[phase * 2N mod 2N]` (with negacyclic sign), which the
    /// caller extracts as an LWE sample. With the constant test vector
    /// `mu` this implements the sign function; with an arbitrary test
    /// vector it is TFHE's *programmable* bootstrapping.
    ///
    /// Runs entirely on `scratch` (the `n`-step CMUX loop is
    /// allocation-free); only the returned accumulator is freshly
    /// allocated.
    pub fn blind_rotate(
        &self,
        ct: &LweCiphertext,
        test_vector: &TorusPoly,
        scratch: &mut BootstrapScratch,
    ) -> TlweCiphertext {
        let BootstrapScratch { cs, accs, ntt, .. } = scratch;
        self.rotate_lanes(&[(ct.mask(), ct.body())], |_| test_vector, accs, cs, ntt);
        accs[0].clone()
    }

    /// Programmable bootstrapping (the paper's Section II-B: "fast
    /// programmable bootstrapping which reduces the noise of a ciphertext
    /// while simultaneously performing an arbitrary lookup-table
    /// operation").
    ///
    /// `lut` holds `N` torus values; an input whose phase rounds to
    /// `j / 2N` (for `j < N`) is mapped to a fresh encryption of
    /// `lut[j]`, and phases in the negacyclic half (`j >= N`) to
    /// `-lut[j - N]`. The output is a dimension-`k·N` sample; key switch
    /// it to return to the gate dimension.
    ///
    /// # Panics
    ///
    /// Panics if `lut.len()` differs from the ring dimension `N`.
    pub fn programmable_bootstrap(
        &self,
        ct: &LweCiphertext,
        lut: &TorusPoly,
        scratch: &mut BootstrapScratch,
    ) -> LweCiphertext {
        let mut out = LweCiphertext::trivial(Torus32::ZERO, self.params.extracted_lwe_dim());
        self.programmable_bootstrap_into(ct, lut, scratch, &mut out);
        out
    }

    /// Like [`BootstrappingKey::programmable_bootstrap`], writing the
    /// dimension-`k·N` result into `out` with zero heap allocation (all
    /// intermediates live in `scratch`) — the hot-path variant behind
    /// [`crate::ServerKey::apply_lut_into`].
    pub fn programmable_bootstrap_into(
        &self,
        ct: &LweCiphertext,
        lut: &TorusPoly,
        scratch: &mut BootstrapScratch,
        out: &mut LweCiphertext,
    ) {
        let input = [(ct.mask(), ct.body())];
        self.programmable_bootstrap_batch_into(&input, &[lut], scratch, std::slice::from_mut(out));
    }

    /// Gate bootstrapping without the final key switch: maps any input
    /// with phase in `(0, 1/2)` to a fresh encryption of `+mu` and phase in
    /// `(-1/2, 0)` to `-mu`, as a dimension-`k·N` LWE sample. Allocates
    /// only the returned sample.
    pub fn bootstrap_raw(
        &self,
        ct: &LweCiphertext,
        mu: Torus32,
        scratch: &mut BootstrapScratch,
    ) -> LweCiphertext {
        let mut out = LweCiphertext::trivial(Torus32::ZERO, self.params.extracted_lwe_dim());
        self.bootstrap_raw_into(ct, mu, scratch, &mut out);
        out
    }

    /// The one blind-rotation loop: rotates `tv(lane)` by the phase of
    /// `inputs[lane]` into `accs[lane]`, lane-outer (see the module docs).
    /// A lane whose mod-switched mask element is zero skips that step's
    /// CMUX, whatever its neighbours do. Under `PYTFHE_TRANSFORM=ntt` each
    /// step is the exact-integer CMUX of [`NttKey`] instead (its scratch
    /// is carved out lazily: the default FFT path never pays for it).
    fn rotate_lanes<'t>(
        &self,
        inputs: &[(&[Torus32], Torus32)],
        tv: impl Fn(usize) -> &'t TorusPoly,
        accs: &mut Vec<TlweCiphertext>,
        cs: &mut CmuxScratch,
        ntt: &mut Option<NttCmuxScratch>,
    ) {
        let n = self.params.poly_size;
        let n2 = 2 * n;
        if accs.len() < inputs.len() {
            accs.resize_with(inputs.len(), || self.blank_acc());
        }
        for (lane, (acc, (mask, body))) in accs.iter_mut().zip(inputs).enumerate() {
            assert_eq!(mask.len(), self.params.lwe_dim, "input of the wrong LWE dimension");
            assert_eq!(tv(lane).len(), n, "LUT must have N entries");
            // acc = X^{-barb} * tv = X^{2N - barb} * tv (trivial sample).
            for p in &mut acc.a {
                p.fill_assign(Torus32::ZERO);
            }
            tv(lane).mul_by_xk_into((n2 - body.mod_switch(n)) % n2, &mut acc.b);
        }
        let mut ntt = self
            .ntt_key()
            .map(|nk| (nk, ntt.get_or_insert_with(|| nk.cmux_scratch(self.params.glwe_dim))));
        for (i, bk_i) in self.tgsw.iter().enumerate() {
            for (acc, (mask, _)) in accs.iter_mut().zip(inputs) {
                let bara = mask[i].mod_switch(n);
                if bara == 0 {
                    continue;
                }
                // acc <- acc + bk_i ⊡ (X^{bara} * acc - acc), the CMUX.
                match &mut ntt {
                    Some((nk, ns)) => nk.rotate_cmux_assign(i, acc, bara, ns),
                    None => bk_i.rotate_cmux_assign(acc, bara, &self.plan, cs),
                }
            }
        }
    }

    /// Like [`BootstrappingKey::bootstrap_raw`], writing the dimension-`k·N`
    /// result into `out` with zero heap allocation (all intermediates live
    /// in `scratch`).
    pub fn bootstrap_raw_into(
        &self,
        ct: &LweCiphertext,
        mu: Torus32,
        scratch: &mut BootstrapScratch,
        out: &mut LweCiphertext,
    ) {
        let input = [(ct.mask(), ct.body())];
        self.bootstrap_raw_batch_into(&input, mu, scratch, std::slice::from_mut(out));
    }

    /// Batched gate bootstrapping: blind-rotates every `(mask, body)` view
    /// of `inputs` (struct-of-arrays friendly) against the constant test
    /// vector `mu` in one lane-outer pass over the bootstrapping key, and
    /// extracts the dimension-`k·N` raw samples into `outs`. Each lane is
    /// bit-identical to [`BootstrappingKey::bootstrap_raw`] on the same
    /// input, regardless of which other ciphertexts share the batch.
    /// Allocation-free once `scratch` has served a batch this wide.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` and `outs` differ in length or an input is not
    /// of the key's LWE dimension.
    pub fn bootstrap_raw_batch_into(
        &self,
        inputs: &[(&[Torus32], Torus32)],
        mu: Torus32,
        scratch: &mut BootstrapScratch,
        outs: &mut [LweCiphertext],
    ) {
        assert_eq!(outs.len(), inputs.len(), "one output per lane");
        let BootstrapScratch { cs, accs, tv, ntt } = scratch;
        tv.fill_assign(mu);
        self.rotate_lanes(inputs, |_| &*tv, accs, cs, ntt);
        for (acc, out) in accs.iter().zip(outs) {
            acc.extract_lwe_into(out);
        }
    }

    /// Batched *programmable* bootstrapping with one test vector per
    /// lane: the generalization of
    /// [`BootstrappingKey::bootstrap_raw_batch_into`] that carries netlist
    /// LUT groups. The CMUX chain is test-vector independent, so lanes
    /// with different lookup tables (and even different packed widths)
    /// share one pass over the key. Per-lane results are bit-identical to
    /// [`BootstrappingKey::programmable_bootstrap_into`] on the same
    /// inputs. Allocation-free once `scratch` has served a batch this
    /// wide.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths disagree, an input is not of the key's
    /// LWE dimension, or any test vector is not `N` entries long.
    pub fn programmable_bootstrap_batch_into(
        &self,
        inputs: &[(&[Torus32], Torus32)],
        tvs: &[&TorusPoly],
        scratch: &mut BootstrapScratch,
        outs: &mut [LweCiphertext],
    ) {
        assert_eq!(tvs.len(), inputs.len(), "one test vector per lane");
        assert_eq!(outs.len(), inputs.len(), "one output per lane");
        let BootstrapScratch { cs, accs, ntt, .. } = scratch;
        self.rotate_lanes(inputs, |lane| tvs[lane], accs, cs, ntt);
        for (acc, out) in accs.iter().zip(outs) {
            acc.extract_lwe_into(out);
        }
    }
}

/// Reusable buffers for the allocation-free bootstrap path: the CMUX
/// scratch (external-product buffers plus the difference/product
/// ciphertexts of one CMUX step, shared by every lane), one
/// blind-rotation accumulator per lane of the widest batch served so
/// far, and a test-vector buffer. Construct once per worker with
/// [`BootstrappingKey::boot_scratch`].
#[derive(Debug)]
pub struct BootstrapScratch {
    pub(crate) cs: CmuxScratch,
    accs: Vec<TlweCiphertext>,
    tv: TorusPoly,
    /// NTT CMUX scratch, allocated on first use under
    /// `PYTFHE_TRANSFORM=ntt` only.
    ntt: Option<NttCmuxScratch>,
}

/// Numerically checks the sign-extraction property used by `bootstrap_raw`
/// on plaintext phases (documentation of the convention, exercised in
/// tests).
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

    #[test]
    fn bootstrap_recovers_sign() {
        let (params, lwe_key, tlwe_key, bk, mut rng) = setup();
        let extracted = tlwe_key.extracted_lwe_key();
        let mu = Torus32::from_fraction(1, 3);
        let mut scratch = bk.boot_scratch();
        for (message, want_sign) in [
            (Torus32::from_fraction(1, 3), 1.0),   // +1/8
            (Torus32::from_fraction(3, 3), 1.0),   // +3/8
            (Torus32::from_fraction(-1, 3), -1.0), // -1/8
            (Torus32::from_fraction(-3, 3), -1.0), // -3/8
        ] {
            let ct = lwe_key.encrypt(message, params.lwe_noise_stdev, &mut rng);
            let boot = bk.bootstrap_raw(&ct, mu, &mut scratch);
            let phase = extracted.phase(&boot).to_f64();
            assert!(
                (phase - want_sign * 0.125).abs() < 0.03,
                "message {message}, phase {phase}, want {want_sign}*0.125"
            );
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
        let boot = bk.bootstrap_raw(&ct, mu, &mut scratch);
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
            let out = bk.programmable_bootstrap(&ct, &lut, &mut scratch);
            let got = extracted.phase(&out);
            assert!((got - want).to_f64().abs() < 0.02, "step {k}: got {got}, want {want}");
        }
    }

    #[test]
    fn blind_rotate_with_trivial_input_reads_test_vector() {
        let (params, _lwe_key, tlwe_key, bk, mut rng) = setup();
        let n = params.poly_size;
        let tv = TorusPoly::uniform(n, &mut rng);
        let mut scratch = bk.boot_scratch();
        // A trivial LWE of message j/2N rotates the test vector by -j.
        for j in [0usize, 1, 5, n / 2] {
            let message = Torus32::from_f64(j as f64 / (2 * n) as f64);
            let ct = LweCiphertext::trivial(message, params.lwe_dim);
            let acc = bk.blind_rotate(&ct, &tv, &mut scratch);
            let phase = tlwe_key.phase(&acc);
            // Constant coefficient should be tv[j] (no sign flip for j < N).
            let got = phase.coeffs()[0];
            let want = tv.coeffs()[j];
            assert!((got - want).to_f64().abs() < 1e-3, "j={j} got {got} want {want}");
        }
    }

    #[test]
    fn bootstrap_raw_into_is_allocation_free() {
        let _g = crate::ntt::transform_guard().read().unwrap();
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
        let _g = crate::ntt::transform_guard().read().unwrap();
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
            bk.bootstrap_raw_batch_into(&inputs, mu, &mut batch, &mut outs);
            for (ct, got) in cts.iter().zip(&outs) {
                let mut want = LweCiphertext::trivial(Torus32::ZERO, out_dim);
                bk.bootstrap_raw_into(ct, mu, &mut single, &mut want);
                assert_eq!(got, &want, "width {width}: lane diverged from the single path");
            }
        }
    }

    #[test]
    fn batched_programmable_bootstrap_matches_single_path_bit_exactly() {
        let _g = crate::ntt::transform_guard().read().unwrap();
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
            let tv_refs: Vec<&TorusPoly> = tvs.iter().take(width).collect();
            let mut outs = vec![LweCiphertext::trivial(Torus32::ZERO, out_dim); width];
            bk.programmable_bootstrap_batch_into(&inputs, &tv_refs, &mut batch, &mut outs);
            for (lane, (ct, got)) in cts.iter().zip(&outs).enumerate() {
                let mut want = LweCiphertext::trivial(Torus32::ZERO, out_dim);
                bk.programmable_bootstrap_into(ct, &tvs[lane], &mut single, &mut want);
                assert_eq!(got, &want, "width {width} lane {lane} diverged from the single path");
            }
        }
    }

    #[test]
    fn batched_bootstrap_is_allocation_free_after_warmup() {
        let _g = crate::ntt::transform_guard().read().unwrap();
        let (params, lwe_key, _tlwe_key, bk, mut rng) = setup();
        let mu = Torus32::from_fraction(1, 3);
        let mut batch = bk.boot_scratch();
        let width = crate::gates::FUSE_CHUNK;
        let cts = lanes_with_a_skipping_lane(width, &params, &lwe_key, &mut rng);
        let inputs: Vec<(&[Torus32], Torus32)> =
            cts.iter().map(|ct| (ct.a.as_slice(), ct.b)).collect();
        let mut outs =
            vec![LweCiphertext::trivial(Torus32::ZERO, params.extracted_lwe_dim()); width];
        // The first batch of this width grows the per-lane accumulators.
        bk.bootstrap_raw_batch_into(&inputs, mu, &mut batch, &mut outs);
        let before = thread_buffer_allocs();
        bk.bootstrap_raw_batch_into(&inputs, mu, &mut batch, &mut outs);
        bk.bootstrap_raw_batch_into(&inputs[..3], mu, &mut batch, &mut outs[..3]);
        assert_eq!(thread_buffer_allocs() - before, 0);
    }
}
