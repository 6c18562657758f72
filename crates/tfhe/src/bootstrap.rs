//! Blind rotation and gate bootstrapping — the operation that dominates
//! TFHE execution time (the "Blind Rotation" segment of the paper's
//! Figure 7).
//!
//! The loops a bootstrap spends its cycles in — the folded transforms,
//! the external product's sums of products, gadget decomposition, and the
//! trailing key switch — all route through the runtime-dispatched kernels
//! of [`crate::simd`] (AVX2+FMA / portable scalar, overridable with
//! `PYTFHE_SIMD`), so nothing in this module is architecture-specific.
//! There is one negacyclic transform, the folded `f64` FFT of
//! [`crate::fft`].
//!
//! There is one blind-rotation loop, [`BootstrappingKey::rotate_batch_into`],
//! and it is batch-first and *input-owned*. Each CMUX step
//! `acc <- acc + bk_i ⊡ (X^bara·acc - acc)` runs, for each ciphertext of
//! the batch against the same bootstrapping-key row, in two halves. First,
//! every lane of a gang rotates, decomposes and forward-transforms only
//! the TLWE polynomials it owns, into digit spectra it does not share,
//! and multiplies them by its own `l` key rows for every column — one
//! sum of `l` products per column, in registers. It keeps the partial of
//! its own column and writes the others into a shared, double-buffered
//! exchange of partials. The lanes meet at one barrier; then each lane
//! adds its column's partials — its own first, the others in polynomial
//! order, which for `k = 1` is simply polynomial order, as a two-term
//! `f64` sum commutes — and inverse-transforms the sum into its
//! polynomial. At the 128-bit parameters (`k = 1`, `l = 3`) a gang of two
//! lanes does, per lane and step, 3 forward transforms, 2 sums of 3
//! products, 1 inverse and streams 48 KB of the key instead of 6, 4, 2
//! and 96 KB, and the only data that crosses cores is one 8 KB partial
//! each way; the trailing key switch is split by input range
//! (`BootstrapScratch::key_switch_into`). A single thread is simply the
//! gang of one that owns every polynomial and adds the same partials in
//! the same order, so a lane's arithmetic — and every output byte — is
//! the same at any gang size and any batch width. The row is fetched from
//! memory once per batch and re-read from L2 by the other ciphertexts, so
//! the per-gate cost cannot grow with the batch width. A single bootstrap
//! is a batch of one.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::fft::{FftPlan, FreqPoly};
use crate::keyswitch::KeySwitchKey;
use crate::lanes;
use crate::lwe::{LweCiphertext, LweKey};
use crate::params::Params;
use crate::poly::{IntPoly, TorusPoly};
use crate::rng::SecureRng;
use crate::tgsw::{seeded_mask_into, ExternalProductScratch, Gadget, TgswCiphertext, TgswFft};
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
///
/// Row `r` of TGSW `i` is mask row `i·(k + 1)·l + r` of a seeded server
/// key: its mask comes from that row's public stream
/// (`SecureRng::mask_stream`), so only its body travels.
#[derive(Debug, Clone)]
pub struct BootstrappingKey {
    tgsw: Vec<TgswFft>,
    plan: FftPlan,
    params: Params,
}

/// Keys are equal when their parameters and spectra are; the plan is a
/// function of the parameters.
impl PartialEq for BootstrappingKey {
    fn eq(&self, other: &Self) -> bool {
        self.params == other.params && self.tgsw == other.tgsw
    }
}

impl BootstrappingKey {
    /// Generates the bootstrapping key for `lwe_key` under `tlwe_key`:
    /// each row's mask from the public stream of `mask_seed` and its row,
    /// its noise from the secret stream of its row under a noise seed
    /// drawn from `rng`, on [`crate::lanes::default_width`] lanes.
    pub fn generate(
        params: Params,
        lwe_key: &LweKey,
        tlwe_key: &TlweKey,
        mask_seed: u64,
        rng: &mut SecureRng,
    ) -> Self {
        let seeds = [mask_seed, rng.uniform_u64()];
        Self::generate_on(params, lwe_key, tlwe_key, seeds, lanes::default_width())
    }

    /// [`BootstrappingKey::generate`] under `[mask_seed, noise_seed]`, its
    /// TGSWs cut into one contiguous range per lane. TGSW `i` holds rows
    /// `i·(k + 1)·l..`, and every row's mask and noise come from that
    /// row's streams, so the key is the same at any lane count.
    pub(crate) fn generate_on(
        params: Params,
        lwe_key: &LweKey,
        tlwe_key: &TlweKey,
        seeds: [u64; 2],
        lanes: usize,
    ) -> Self {
        let stdev = params.glwe_noise_stdev;
        Self::build(params, lanes, |plan, i, first_row, tgsw| {
            let bit = lwe_key.bits()[i];
            TgswCiphertext::encrypt_seeded(tlwe_key, bit, tgsw.gadget(), stdev, seeds, first_row)
                .to_fft_into(plan, tgsw);
        })
    }

    /// TLWE rows per TGSW ciphertext: `(k + 1)·l`.
    fn rows_per_tgsw(params: &Params) -> u64 {
        ((params.glwe_dim + 1) * params.decomp_levels) as u64
    }

    /// The key whose row `r` has the body `body(r)` writes (TGSW-major,
    /// then row order; `lwe_dim·(k + 1)·l` rows), every mask regenerated
    /// from `mask_seed` and every row transformed as
    /// [`BootstrappingKey::generate`] transforms it: what the bodies of a
    /// seeded key decode to, spectra computed on this host's SIMD tier,
    /// one contiguous range of TGSWs per lane.
    pub(crate) fn from_bodies(
        params: Params,
        mask_seed: u64,
        lanes: usize,
        body: impl Fn(u64, &mut TorusPoly) + Sync,
    ) -> Self {
        Self::build(params, lanes, |plan, _, first_row, tgsw| {
            let mut row =
                TlweCiphertext::trivial(TorusPoly::zero(params.poly_size), params.glwe_dim);
            for (r, spectra) in (first_row..).zip(tgsw.rows_mut()) {
                seeded_mask_into(mask_seed, r, &mut row.a);
                body(r, &mut row.b);
                row.polys().zip(spectra).for_each(|(p, f)| plan.forward_torus_into(p, f));
            }
        })
    }

    /// A key of zero spectra, allocated on the calling thread, whose TGSW
    /// `i` (first row `first_row`) `fill(plan, i, first_row, tgsw)` then
    /// computes, one contiguous range of TGSWs per lane. Allocating on
    /// one thread keeps the key in that thread's heap, which a later key
    /// reuses; spectra allocated on short-lived lanes go back to the
    /// system when the key is dropped, and every key would fault them in
    /// again.
    fn build(
        params: Params,
        lanes: usize,
        fill: impl Fn(&FftPlan, usize, u64, &mut TgswFft) + Sync,
    ) -> Self {
        let plan = FftPlan::new(params.poly_size);
        let gadget = Gadget { levels: params.decomp_levels, base_log: params.decomp_base_log };
        let rows = Self::rows_per_tgsw(&params);
        let mut tgsw: Vec<TgswFft> = (0..params.lwe_dim)
            .map(|_| TgswFft::zero(params.poly_size, params.glwe_dim, gadget))
            .collect();
        lanes::for_each_run(lanes, &mut tgsw, 1, |first, run| {
            for (i, t) in (first..).zip(run) {
                fill(&plan, i, i as u64 * rows, t);
            }
        });
        BootstrappingKey { tgsw, plan, params }
    }

    /// Every row's body in the coefficient domain, in the order
    /// [`BootstrappingKey::from_bodies`] numbers them. The inverse
    /// transform recovers each exactly: a body spectrum is the forward
    /// transform of 32-bit integers, whose round-trip error stays far
    /// below the 1/2 that rounding absorbs (pinned in the `crate::fft`
    /// tests on every tier), so the bodies are the client's bytes on any
    /// host.
    #[cfg(test)]
    pub(crate) fn bodies(&self) -> impl Iterator<Item = TorusPoly> + '_ {
        (0..self.tgsw.len()).flat_map(|i| self.tgsw_bodies(i))
    }

    /// The bodies of TGSW `i`'s rows, as [`BootstrappingKey::bodies`].
    pub(crate) fn tgsw_bodies(&self, i: usize) -> impl Iterator<Item = TorusPoly> + '_ {
        let body = self.params.glwe_dim;
        self.tgsw[i].rows_raw().iter().map(move |row| self.plan.inverse_torus(&row[body]))
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

    /// Allocates the bootstrap scratch (the buffers of one lane's share of
    /// a CMUX step, the exchange of a gang of one, plus one accumulator)
    /// sized for this key. One per worker thread; every rotation on it
    /// runs without touching the allocator, except that the first batch
    /// of a new width adds one accumulator per extra lane
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
            accs: (0..lanes).map(|_| self.blank_acc()).collect(),
            digits: (0..p.decomp_levels).map(|_| IntPoly::zero(p.poly_size)).collect(),
            spectra: (0..p.decomp_levels).map(|_| FreqPoly::zero(p.poly_size)).collect(),
            sums: (0..=p.glwe_dim).map(|_| FreqPoly::zero(p.poly_size)).collect(),
            diff: TorusPoly::zero(p.poly_size),
            ext: TorusPoly::zero(p.poly_size),
            params: *p,
            solo: Gang::new(1, p),
            seat: None,
            exchanges: 0,
        }
    }

    fn blank_acc(&self) -> TlweCiphertext {
        TlweCiphertext::trivial(TorusPoly::zero(self.params.poly_size), self.params.glwe_dim)
    }

    /// The one blind rotation, batch-first: for every lane, homomorphically
    /// computes `X^{-phase(inputs[lane]) * 2N} * tv(lane)` inside a TLWE
    /// accumulator, in one input-owned pass over the key (see the module
    /// docs), and extracts the constant coefficient — which holds
    /// `tv[phase * 2N mod 2N]` with negacyclic sign — as a dimension-`k·N`
    /// LWE sample into `outs[lane]`; key switch it to return to the gate
    /// dimension. Inputs are `(mask, body)` views, struct-of-arrays
    /// friendly. The CMUX chain is test-vector independent, so lanes with
    /// different lookup tables share the pass, a lane whose mod-switched
    /// mask element is zero skips that step's CMUX whatever its
    /// neighbours do, and each lane's result does not depend on which
    /// other ciphertexts share the batch. On a banded scratch
    /// ([`crate::GateScratch::band`]) this computes the gang member's share
    /// and every member's `outs` receive the whole result. Allocation-free
    /// once `scratch` has served a batch this wide.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` and `outs` differ in length, an input is not
    /// of the key's LWE dimension, or a polynomial test vector is not `N`
    /// entries long; on a banded scratch, also when a partner leaves the
    /// gang before this call is done.
    pub fn rotate_batch_into<'t>(
        &self,
        inputs: &[(&[Torus32], Torus32)],
        tv: impl Fn(usize) -> TestVector<'t>,
        scratch: &mut BootstrapScratch,
        outs: &mut [LweCiphertext],
    ) {
        assert_eq!(outs.len(), inputs.len(), "one output per lane");
        let n = self.params.poly_size;
        let n2 = 2 * n;
        if scratch.accs.len() < inputs.len() {
            scratch.accs.resize_with(inputs.len(), || self.blank_acc());
        }
        let (gang, member) = seat(&scratch.solo, &scratch.seat);
        let BootstrapScratch { accs, digits, spectra, sums, diff, ext, exchanges, .. } = scratch;
        for (lane, (acc, (mask, body))) in accs.iter_mut().zip(inputs).enumerate() {
            assert_eq!(mask.len(), self.params.lwe_dim, "input of the wrong LWE dimension");
            // acc = X^{-barb} * tv = X^{2N - barb} * tv (trivial sample).
            for p in &mut acc.a {
                p.fill_assign(Torus32::ZERO);
            }
            tv(lane).mul_by_xk_into((n2 - body.mod_switch(n)) % n2, &mut acc.b);
        }
        let (cols, levels) = (self.params.glwe_dim + 1, self.params.decomp_levels);
        let owned = (member..cols).step_by(gang.members);
        for (i, bk_i) in self.tgsw.iter().enumerate() {
            let rows = bk_i.rows_raw();
            for (acc, (mask, _)) in accs.iter_mut().zip(inputs) {
                let bara = mask[i].mod_switch(n);
                if bara == 0 {
                    continue;
                }
                // The CMUX acc <- acc + bk_i ⊡ (X^{bara} * acc - acc): the
                // products of this lane's polynomials with every column
                // (polynomial `u`'s partial of column `u` starts that
                // column's sum, every other goes to the exchange), then,
                // once every lane's partials are in, the sums of this
                // lane's columns, the others added in polynomial order —
                // the same additions in the same order at any gang size.
                let partials = &gang.partials[next_parity(exchanges)];
                for u in owned.clone() {
                    let poly = acc.poly(u);
                    poly.mul_by_xk_into(bara, diff);
                    diff.sub_assign(poly);
                    self.gadget().decompose_poly_into(diff, digits);
                    for (digit, spectrum) in digits.iter().zip(spectra.iter_mut()) {
                        self.plan.forward_int_into(digit, spectrum);
                    }
                    let rows = &rows[u * levels..][..levels];
                    for col in 0..cols {
                        let terms = spectra.iter().zip(rows).map(|(d, row)| (d, &row[col]));
                        match col == u {
                            true => sums[col].sum_products(terms),
                            false => write(&partials[u][col]).sum_products(terms),
                        }
                    }
                }
                gang.wait();
                for col in owned.clone() {
                    let sum = &mut sums[col];
                    for u in (0..cols).filter(|&u| u != col) {
                        sum.add_assign(&read(&partials[u][col]));
                    }
                    self.plan.inverse_torus_destructive(sum, ext);
                    acc.poly_mut(col).add_assign(ext);
                }
            }
        }
        for (acc, out) in accs.iter_mut().zip(outs) {
            if gang.members > 1 {
                // Gather every member's columns of the finished accumulator.
                let polys = &gang.polys[next_parity(exchanges)];
                owned.clone().for_each(|u| write(&polys[u]).copy_from(acc.poly(u)));
                gang.wait();
                for (u, poly) in polys.iter().enumerate() {
                    acc.poly_mut(u).copy_from(&read(poly));
                }
            }
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

/// Flips `exchanges` to the other half of a gang's double-buffered
/// exchange and returns its index. Every member makes the same exchanges
/// in the same order, so their counters agree; a half is rewritten only
/// after a later barrier, which no member passes before it has read it.
fn next_parity(exchanges: &mut usize) -> usize {
    *exchanges += 1;
    *exchanges & 1
}

/// A shared exchange slot. The barriers keep every lock uncontended, and
/// a slot is written before it is read, so a lock poisoned by a member
/// that panicked holds nothing to distrust.
fn read<T>(slot: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    slot.read().unwrap_or_else(PoisonError::into_inner)
}

/// See [`read`].
fn write<T>(slot: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    slot.write().unwrap_or_else(PoisonError::into_inner)
}

/// What the members of a gang share: `members` lanes splitting every
/// bootstrap by TLWE polynomial, member `i` owning input polynomials and
/// output columns `i, i + members, …`, with double-buffered exchanges and
/// a barrier.
#[derive(Debug)]
struct Gang {
    members: usize,
    /// `partials[parity][u][col]`: the products of polynomial `u`'s digit
    /// spectra with column `col` of one CMUX step's key row, summed.
    partials: [Vec<Vec<RwLock<FreqPoly>>>; 2],
    /// `polys[parity][u]`: column `u` of a finished accumulator.
    polys: [Vec<RwLock<TorusPoly>>; 2],
    /// `parts[parity][member]`: a member's share of a key switch.
    parts: [Vec<RwLock<LweCiphertext>>; 2],
    arrived: AtomicUsize,
    generation: AtomicUsize,
    left: AtomicBool,
}

impl Gang {
    fn new(members: usize, p: &Params) -> Self {
        let (n, cols) = (p.poly_size, p.glwe_dim + 1);
        let row = || (0..cols).map(|_| RwLock::new(FreqPoly::zero(n))).collect();
        let partials = || (0..cols).map(|_| row()).collect();
        let polys = || (0..cols).map(|_| RwLock::new(TorusPoly::zero(n))).collect();
        let part = || RwLock::new(LweCiphertext::trivial(Torus32::ZERO, p.lwe_dim));
        let parts = || (0..members).map(|_| part()).collect();
        Gang {
            members,
            partials: [partials(), partials()],
            polys: [polys(), polys()],
            parts: [parts(), parts()],
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            left: AtomicBool::new(false),
        }
    }

    /// Returns once every member has arrived: spins, then yields its core.
    ///
    /// # Panics
    ///
    /// Panics when a member leaves the gang before this barrier opens.
    fn wait(&self) {
        // The last arrival's Release store of `generation` publishes its
        // reset of `arrived` to the waiters, which Acquire it before they
        // arrive at the next barrier; `left` is stored Release after the
        // leaving member's last barrier, so a waiter that Acquires it
        // also sees that barrier's `generation`.
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.members {
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.store(generation.wrapping_add(1), Ordering::Release);
            return;
        }
        let mut spins = 0u32;
        while self.generation.load(Ordering::Acquire) == generation {
            // A member that left after passing this barrier opened it
            // first: look again before giving up.
            if self.left.load(Ordering::Acquire)
                && self.generation.load(Ordering::Acquire) == generation
            {
                panic!("a gang member left mid-bootstrap");
            }
            if spins < 1 << 12 {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// Reusable buffers for the allocation-free bootstrap path: one lane's
/// share of a CMUX step (the rotated difference, its digits and their
/// spectra, the sums of the columns it owns and their inverse), the gang
/// of one it runs in alone, its seat in the gang it is banded into, and
/// one blind-rotation accumulator per lane of the widest batch served so
/// far. Construct once per worker with [`BootstrappingKey::boot_scratch`].
#[derive(Debug)]
pub struct BootstrapScratch {
    accs: Vec<TlweCiphertext>,
    digits: Vec<IntPoly>,
    spectra: Vec<FreqPoly>,
    sums: Vec<FreqPoly>,
    diff: TorusPoly,
    ext: TorusPoly,
    params: Params,
    solo: Gang,
    seat: Option<(Arc<Gang>, usize)>,
    exchanges: usize,
}

/// The gang a scratch runs in and its member index.
fn seat<'g>(solo: &'g Gang, seat: &'g Option<(Arc<Gang>, usize)>) -> (&'g Gang, usize) {
    seat.as_ref().map_or((solo, 0), |(gang, member)| (gang, *member))
}

impl BootstrapScratch {
    /// Bands `members` (scratches of one key) into a new gang: until each
    /// is [`BootstrapScratch::release`]d, the thread holding `members[i]`
    /// computes member `i`'s share of every rotation and key switch and
    /// meets its partners at a barrier, so every member must make the
    /// same calls on the same inputs, each on its own thread.
    pub(crate) fn band<'s>(members: impl ExactSizeIterator<Item = &'s mut BootstrapScratch>) {
        let mut members = members.peekable();
        let count = members.len();
        let Some(first) = members.peek() else { return };
        let gang = Arc::new(Gang::new(count, &first.params));
        for (member, scratch) in members.enumerate() {
            scratch.seat = Some((Arc::clone(&gang), member));
            scratch.exchanges = 0;
        }
    }

    /// Whether this scratch runs alone or as a gang's first member.
    pub(crate) fn leads(&self) -> bool {
        self.seat.as_ref().is_none_or(|(_, member)| *member == 0)
    }

    /// Returns this scratch to bootstrapping alone. A member released
    /// while its partners still need it aborts them: their waiting call
    /// panics instead of waiting forever.
    pub(crate) fn release(&mut self) {
        if let Some((gang, _)) = self.seat.take() {
            gang.left.store(true, Ordering::Release);
        }
    }

    /// Key switches every `raws[r]` into `outs[r]` in one pass over the
    /// key (`KeySwitchKey::switch_batch_into`). Member `i` of a gang
    /// switches the `i`-th of `members` equal ranges of every raw's mask
    /// (member 0 also carries the bodies), then, raw by raw, every member
    /// adds the shares in member order: exact, since a key switch is a
    /// sum in wrapping `u32`.
    pub(crate) fn key_switch_into(
        &mut self,
        ksk: &KeySwitchKey,
        raws: &[LweCiphertext],
        outs: &mut [LweCiphertext],
    ) {
        let (gang, member) = seat(&self.solo, &self.seat);
        let (dim, members) = (ksk.src_dim(), gang.members);
        let inputs = member * dim / members..(member + 1) * dim / members;
        ksk.switch_batch_into(crate::simd::kernels(), raws, inputs, member == 0, outs);
        if members > 1 {
            for out in outs {
                let parts = &gang.parts[next_parity(&mut self.exchanges)];
                write(&parts[member]).copy_from(out);
                gang.wait();
                out.copy_from(&read(&parts[0]));
                parts[1..].iter().for_each(|part| out.add_assign(&read(part)));
            }
        }
    }
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
        let bk = BootstrappingKey::generate(params, &lwe_key, &tlwe_key, 1, &mut rng);
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

    /// Runs `job` once on every scratch of a gang banded from
    /// `scratches`, each on its own thread, and releases them.
    fn on_gang<R: Send>(
        scratches: &mut [BootstrapScratch],
        job: impl Fn(&mut BootstrapScratch) -> R + Sync,
    ) -> Vec<std::thread::Result<R>> {
        BootstrapScratch::band(scratches.iter_mut());
        let results = std::thread::scope(|s| {
            let job = &job;
            let members: Vec<_> = scratches.iter_mut().map(|sc| s.spawn(move || job(sc))).collect();
            members.into_iter().map(|member| member.join()).collect()
        });
        scratches.iter_mut().for_each(BootstrapScratch::release);
        results
    }

    #[test]
    fn a_gang_rotates_and_key_switches_bit_identically_to_one_lane() {
        let params = Params::testing();
        let mut rng = SecureRng::seed_from_u64(61);
        let client = crate::ClientKey::generate(params, &mut rng);
        let server = client.server_key(&mut rng);
        let (bk, ksk) = (&server.bootstrap, &server.keyswitch);
        let tvs: Vec<TorusPoly> =
            (0..3).map(|_| TorusPoly::uniform(params.poly_size, &mut rng)).collect();
        let mu = Torus32::from_fraction(1, 3);
        let mut solo = bk.boot_scratch();
        let mut gang: Vec<BootstrapScratch> = (0..2).map(|_| bk.boot_scratch()).collect();
        for width in [1, 3] {
            let cts = lanes_with_a_skipping_lane(width, &params, client.lwe_key(), &mut rng);
            let inputs: Vec<(&[Torus32], Torus32)> =
                cts.iter().map(|ct| (ct.a.as_slice(), ct.b)).collect();
            for programmable in [false, true] {
                let tv = |l: usize| match programmable {
                    true => TestVector::Poly(&tvs[l]),
                    false => TestVector::Constant(mu),
                };
                let run = |scratch: &mut BootstrapScratch| {
                    let raw = LweCiphertext::trivial(Torus32::ZERO, params.extracted_lwe_dim());
                    let mut raws = vec![raw; width];
                    bk.rotate_batch_into(&inputs, tv, scratch, &mut raws);
                    let mut outs =
                        vec![LweCiphertext::trivial(Torus32::ZERO, params.lwe_dim); width];
                    scratch.key_switch_into(ksk, &raws, &mut outs);
                    (raws, outs)
                };
                let want = run(&mut solo);
                for (member, got) in on_gang(&mut gang, run).into_iter().enumerate() {
                    let got = got.expect("no member panics");
                    assert_eq!(
                        got, want,
                        "width {width}, programmable {programmable}, member {member}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_member_that_leaves_releases_its_partner() {
        let (params, lwe_key, _tlwe_key, bk, mut rng) = setup();
        let mu = Torus32::from_fraction(1, 3);
        let ct = lwe_key.encrypt(mu, params.lwe_noise_stdev, &mut rng);
        let want = rotate_one(&bk, &ct, TestVector::Constant(mu), &mut bk.boot_scratch());
        let mut gang: Vec<BootstrapScratch> = (0..2).map(|_| bk.boot_scratch()).collect();
        // Member 0 leaves without rotating: member 1 gives up at its first
        // barrier instead of spinning forever, and the scratches band again.
        let results = on_gang(&mut gang, |scratch| match scratch.leads() {
            true => scratch.release(),
            false => drop(rotate_one(&bk, &ct, TestVector::Constant(mu), scratch)),
        });
        assert!(results[0].is_ok() && results[1].is_err(), "the partner panics");
        for got in on_gang(&mut gang, |s| rotate_one(&bk, &ct, TestVector::Constant(mu), s)) {
            assert_eq!(got.expect("no member panics"), want);
        }
    }
}
