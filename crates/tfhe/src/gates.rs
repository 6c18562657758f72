//! The bootstrapped binary gates of PyTFHE — the eleven gates of the
//! binary format plus trivial constants.
//!
//! Every binary gate follows the TFHE-library recipe:
//!
//! 1. a linear combination of the input ciphertexts plus a plaintext
//!    offset places the correct answer's phase in `(0, 1/2)` and the wrong
//!    answer's in `(-1/2, 0)`;
//! 2. a blind rotation against the constant test vector `mu = 1/8` maps
//!    the sign of that phase to a fresh `±1/8` encryption (resetting the
//!    noise);
//! 3. a key switch returns the sample to the gate dimension `n`.
//!
//! Steps 2 and 3 are the "Blind Rotation" and "Key Switching" segments of
//! the paper's Figure 7 profile.

use crate::bootstrap::{BootstrapScratch, BootstrappingKey};
use crate::keys::{ServerKey, MU_LOG2_DENOM};
use crate::lut::PackedLutTables;
use crate::lwe::{LweCiphertext, LweSoa};
use crate::poly::TorusPoly;
use crate::torus::Torus32;

/// The ten bootstrapped binary gates, as data: each is a linear
/// combination `offset + ca·a + cb·b` followed by the same
/// bootstrap-and-key-switch tail. Naming this set lets batched executors
/// group gates of one kind into a single kernel over struct-of-arrays
/// slots (the paper's CUDA-graph batching, Figure 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BootGate {
    /// `!(a & b)`
    Nand,
    /// `a & b`
    And,
    /// `a | b`
    Or,
    /// `!(a | b)`
    Nor,
    /// `a ^ b`
    Xor,
    /// `!(a ^ b)`
    Xnor,
    /// `!a & b`
    Andny,
    /// `a & !b`
    Andyn,
    /// `!a | b`
    Orny,
    /// `a | !b`
    Oryn,
}

impl BootGate {
    /// All ten gates, for exhaustive tests.
    pub const ALL: [BootGate; 10] = [
        BootGate::Nand,
        BootGate::And,
        BootGate::Or,
        BootGate::Nor,
        BootGate::Xor,
        BootGate::Xnor,
        BootGate::Andny,
        BootGate::Andyn,
        BootGate::Orny,
        BootGate::Oryn,
    ];

    /// Lower-case gate name, used as the `gate` label on telemetry
    /// metrics (`tfhe_blind_rotate_seconds{gate="nand"}`).
    pub fn name(self) -> &'static str {
        match self {
            BootGate::Nand => "nand",
            BootGate::And => "and",
            BootGate::Or => "or",
            BootGate::Nor => "nor",
            BootGate::Xor => "xor",
            BootGate::Xnor => "xnor",
            BootGate::Andny => "andny",
            BootGate::Andyn => "andyn",
            BootGate::Orny => "orny",
            BootGate::Oryn => "oryn",
        }
    }

    /// The plaintext truth table (for test oracles).
    pub fn eval(self, a: bool, b: bool) -> bool {
        match self {
            BootGate::Nand => !(a && b),
            BootGate::And => a && b,
            BootGate::Or => a || b,
            BootGate::Nor => !(a || b),
            BootGate::Xor => a ^ b,
            BootGate::Xnor => !(a ^ b),
            BootGate::Andny => !a && b,
            BootGate::Andyn => a && !b,
            BootGate::Orny => !a || b,
            BootGate::Oryn => a || !b,
        }
    }

    /// The linear-combination recipe `(offset, ca, cb)` placing the
    /// correct answer's phase in `(0, 1/2)`.
    fn spec(self) -> (Torus32, i32, i32) {
        let mu = Torus32::from_fraction(1, MU_LOG2_DENOM);
        let quarter = Torus32::from_fraction(1, 2);
        match self {
            BootGate::Nand => (mu, -1, -1),
            BootGate::And => (-mu, 1, 1),
            BootGate::Or => (mu, 1, 1),
            BootGate::Nor => (-mu, -1, -1),
            BootGate::Xor => (quarter, 2, 2),
            BootGate::Xnor => (-quarter, -2, -2),
            BootGate::Andny => (-mu, -1, 1),
            BootGate::Andyn => (-mu, 1, -1),
            BootGate::Orny => (mu, -1, 1),
            BootGate::Oryn => (mu, 1, -1),
        }
    }
}

/// Slots per fused stage-and-bootstrap chunk of
/// [`ServerKey::batch_bootstrap_fused`] — the widest batch one pass over
/// the bootstrapping key serves: small enough that a chunk's staged
/// struct-of-arrays masks (`FUSE_CHUNK · n` torus words) and per-lane
/// accumulators stay in L1/L2 between the staging pass and the bootstrap
/// that consumes them, large enough to amortize the key traffic.
pub const FUSE_CHUNK: usize = 8;

/// All scratch a worker needs to evaluate gates without allocating: the
/// bootstrap buffers plus LWE staging for the linear combination, the raw
/// (pre-key-switch) samples, and the struct-of-arrays slots used by
/// [`ServerKey::batch_bootstrap_fused`]. One per worker thread.
#[derive(Debug)]
pub struct GateScratch {
    pub(crate) boot: BootstrapScratch,
    pub(crate) combo: LweCiphertext,
    pub(crate) raw: LweCiphertext,
    raw2: LweCiphertext,
    sum: LweCiphertext,
    pub(crate) raws: Vec<LweCiphertext>,
    pub(crate) soa: LweSoa,
    /// Reusable test-vector buffer for [`ServerKey::apply_lut_into`].
    pub(crate) tv_buf: TorusPoly,
    /// Compiled boolean-LUT test vectors (`crate::lut`), cached per worker.
    pub(crate) luts: PackedLutTables,
}

/// Timing breakdown of one gate evaluation, used to regenerate Figure 7.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GateProfile {
    /// Seconds spent in blind rotation (incl. sample extraction).
    pub blind_rotation_s: f64,
    /// Seconds spent in key switching.
    pub key_switching_s: f64,
    /// Seconds spent in the linear phase (negligible).
    pub linear_s: f64,
}

impl GateProfile {
    /// Total gate time.
    pub fn total_s(&self) -> f64 {
        self.blind_rotation_s + self.key_switching_s + self.linear_s
    }
}

/// Records one gate's blind-rotate/key-switch timing split into the
/// per-gate-kind histograms — the live data behind the Figure 7
/// reproduction. Only called when telemetry is enabled.
#[cold]
fn record_gate_split(gate: BootGate, blind_rotate_s: f64, key_switch_s: f64) {
    let m = pytfhe_telemetry::metrics();
    let name = gate.name();
    m.observe_seconds(&format!("tfhe_blind_rotate_seconds{{gate=\"{name}\"}}"), blind_rotate_s);
    m.observe_seconds(&format!("tfhe_key_switch_seconds{{gate=\"{name}\"}}"), key_switch_s);
    m.counter_add("tfhe_bootstraps_total", 1);
}

impl ServerKey {
    fn mu() -> Torus32 {
        Torus32::from_fraction(1, MU_LOG2_DENOM)
    }

    /// Accumulates `coeff * ct` into `out` without allocating
    /// (coefficients are the small integers of the gate recipes). Runs
    /// through the dispatched [`crate::simd`] `axpy` kernel; wrapping
    /// multiply-accumulate is bit-identical to `|coeff|` repeated
    /// additions/subtractions mod 2^32.
    pub(crate) fn axpy(out: &mut LweCiphertext, coeff: i32, ct: &LweCiphertext) {
        crate::simd::kernels().axpy(out.mask_mut(), coeff, ct.mask());
        out.b += coeff * ct.body();
    }

    /// Stages the linear combination of `gate` into `out`.
    fn combo_into(
        &self,
        gate: BootGate,
        a: &LweCiphertext,
        b: &LweCiphertext,
        out: &mut LweCiphertext,
    ) {
        let (offset, ca, cb) = gate.spec();
        out.assign_trivial(offset, self.params.lwe_dim);
        Self::axpy(out, ca, a);
        Self::axpy(out, cb, b);
    }

    /// Allocates reusable scratch for gate evaluation (one per worker
    /// thread). Once constructed, [`ServerKey::gate_into`] and
    /// [`ServerKey::batch_bootstrap_fused`] run with zero heap allocation.
    pub fn gate_scratch(&self) -> GateScratch {
        let n = self.params.lwe_dim;
        let ext_dim = self.keyswitch.src_dim();
        GateScratch {
            boot: self.bootstrap.boot_scratch_lanes(FUSE_CHUNK),
            combo: LweCiphertext::trivial(Torus32::ZERO, n),
            raw: LweCiphertext::trivial(Torus32::ZERO, ext_dim),
            raw2: LweCiphertext::trivial(Torus32::ZERO, ext_dim),
            sum: LweCiphertext::trivial(Torus32::ZERO, ext_dim),
            raws: vec![LweCiphertext::trivial(Torus32::ZERO, ext_dim); FUSE_CHUNK],
            soa: LweSoa::new(n),
            tv_buf: TorusPoly::zero(self.params.poly_size),
            luts: PackedLutTables::new(),
        }
    }

    /// Blind-rotates `width` staged SoA slots (starting at `base`) in one
    /// batched pass over the bootstrapping key, leaving the raw
    /// pre-key-switch samples in `raws[..width]` (see
    /// [`BootstrappingKey::bootstrap_raw_batch_into`]).
    fn rotate_chunk(
        bootstrap: &BootstrappingKey,
        soa: &LweSoa,
        base: usize,
        width: usize,
        boot: &mut BootstrapScratch,
        raws: &mut [LweCiphertext],
    ) {
        debug_assert!((1..=FUSE_CHUNK).contains(&width));
        let mut inputs: [(&[Torus32], Torus32); FUSE_CHUNK] =
            [(&[][..], Torus32::ZERO); FUSE_CHUNK];
        for (lane, input) in inputs.iter_mut().take(width).enumerate() {
            *input = soa.slot(base + lane);
        }
        bootstrap.bootstrap_raw_batch_into(&inputs[..width], Self::mu(), boot, &mut raws[..width]);
    }

    /// Evaluates one bootstrapped binary gate into `out` — the hot-path
    /// API: linear combination, blind rotation against `mu = 1/8`, and key
    /// switch all run on `scratch`'s preallocated buffers.
    pub fn gate_into(
        &self,
        gate: BootGate,
        a: &LweCiphertext,
        b: &LweCiphertext,
        scratch: &mut GateScratch,
        out: &mut LweCiphertext,
    ) {
        // The disabled-telemetry check is a single atomic load; the timed
        // variant is kept out of line so this hot path stays lean.
        if pytfhe_telemetry::enabled() {
            return self.gate_into_timed(gate, a, b, scratch, out);
        }
        self.combo_into(gate, a, b, &mut scratch.combo);
        self.bootstrap.bootstrap_raw_into(
            &scratch.combo,
            Self::mu(),
            &mut scratch.boot,
            &mut scratch.raw,
        );
        self.keyswitch.switch_into(&scratch.raw, out);
    }

    /// [`ServerKey::gate_into`] with per-phase timing feeding the
    /// per-gate-kind blind-rotate/key-switch histograms.
    #[cold]
    fn gate_into_timed(
        &self,
        gate: BootGate,
        a: &LweCiphertext,
        b: &LweCiphertext,
        scratch: &mut GateScratch,
        out: &mut LweCiphertext,
    ) {
        use std::time::Instant;
        self.combo_into(gate, a, b, &mut scratch.combo);
        let t0 = Instant::now();
        self.bootstrap.bootstrap_raw_into(
            &scratch.combo,
            Self::mu(),
            &mut scratch.boot,
            &mut scratch.raw,
        );
        let t1 = Instant::now();
        self.keyswitch.switch_into(&scratch.raw, out);
        record_gate_split(gate, (t1 - t0).as_secs_f64(), t1.elapsed().as_secs_f64());
    }

    /// Evaluates one batched kernel — the same gate over many input
    /// pairs, the CPU analogue of the paper's batched CUDA-graph kernels
    /// (Figure 9): one launch per (gate kind, wave) instead of one per
    /// gate. Staging and bootstrap are *fused* over cache-sized chunks of
    /// [`FUSE_CHUNK`] slots: each chunk's linear combinations are staged
    /// into the struct-of-arrays slots and immediately carried through
    /// blind rotation, sample extraction, and key switching before the
    /// next chunk is touched, so the staged masks are still
    /// cache-resident when the bootstrap reads them. Per-slot arithmetic
    /// is that of scalar [`ServerKey::gate_into`], so results are
    /// bit-exact with it. After a warm-up call the whole call is
    /// allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `pairs` and `outs` have different lengths.
    pub fn batch_bootstrap_fused(
        &self,
        gate: BootGate,
        pairs: &[(&LweCiphertext, &LweCiphertext)],
        outs: &mut [LweCiphertext],
        scratch: &mut GateScratch,
    ) {
        assert_eq!(pairs.len(), outs.len(), "batch_bootstrap_fused: pairs/outs length mismatch");
        let (offset, ca, cb) = gate.spec();
        let GateScratch { boot, raws, soa, .. } = scratch;
        let timed = pytfhe_telemetry::enabled();
        for (pair_chunk, out_chunk) in pairs.chunks(FUSE_CHUNK).zip(outs.chunks_mut(FUSE_CHUNK)) {
            let width = pair_chunk.len();
            soa.reset(width);
            for (slot, &(a, b)) in pair_chunk.iter().enumerate() {
                soa.set_body(slot, offset);
                soa.axpy(slot, ca, a);
                soa.axpy(slot, cb, b);
            }
            let t0 = timed.then(std::time::Instant::now);
            Self::rotate_chunk(&self.bootstrap, soa, 0, width, boot, raws);
            let t1 = timed.then(std::time::Instant::now);
            for (lane, out) in out_chunk.iter_mut().enumerate() {
                let k0 = timed.then(std::time::Instant::now);
                self.keyswitch.switch_into(&raws[lane], out);
                if let (Some(t0), Some(t1), Some(k0)) = (t0, t1, k0) {
                    let rotate_s = (t1 - t0).as_secs_f64() / width as f64;
                    record_gate_split(gate, rotate_s, k0.elapsed().as_secs_f64());
                }
            }
        }
    }

    /// Evaluates one batched kernel of *mixed* gate kinds: `gates[i]`
    /// applied to `pairs[i]` into `outs[i]`.
    ///
    /// This is the cross-session batching entry point: a serving
    /// scheduler draining ready gates from many tenants' programs gets
    /// one dense wave of heterogeneous gates per key, and staging them
    /// through one SoA pass (each slot with its own gate recipe) keeps
    /// the launch count at one per key per wave instead of one per gate
    /// kind. Slot layout and per-slot arithmetic are identical to
    /// [`ServerKey::batch_bootstrap_fused`], so results are bit-exact with
    /// the per-kind batches and with scalar [`ServerKey::gate_into`].
    ///
    /// # Panics
    ///
    /// Panics if `gates`, `pairs`, and `outs` have different lengths.
    pub fn batch_bootstrap_mixed(
        &self,
        gates: &[BootGate],
        pairs: &[(&LweCiphertext, &LweCiphertext)],
        outs: &mut [LweCiphertext],
        scratch: &mut GateScratch,
    ) {
        assert_eq!(gates.len(), pairs.len(), "batch_bootstrap_mixed: gates/pairs mismatch");
        assert_eq!(pairs.len(), outs.len(), "batch_bootstrap_mixed: pairs/outs mismatch");
        let GateScratch { boot, raws, soa, .. } = scratch;
        soa.reset(pairs.len());
        for (slot, (&gate, &(a, b))) in gates.iter().zip(pairs).enumerate() {
            let (offset, ca, cb) = gate.spec();
            soa.set_body(slot, offset);
            soa.axpy(slot, ca, a);
            soa.axpy(slot, cb, b);
        }
        let timed = pytfhe_telemetry::enabled();
        for (chunk, out_chunk) in outs.chunks_mut(FUSE_CHUNK).enumerate() {
            let base = chunk * FUSE_CHUNK;
            let width = out_chunk.len();
            let t0 = timed.then(std::time::Instant::now);
            Self::rotate_chunk(&self.bootstrap, soa, base, width, boot, raws);
            let t1 = timed.then(std::time::Instant::now);
            for (lane, out) in out_chunk.iter_mut().enumerate() {
                let k0 = timed.then(std::time::Instant::now);
                self.keyswitch.switch_into(&raws[lane], out);
                if let (Some(t0), Some(t1), Some(k0)) = (t0, t1, k0) {
                    let rotate_s = (t1 - t0).as_secs_f64() / width as f64;
                    record_gate_split(gates[base + lane], rotate_s, k0.elapsed().as_secs_f64());
                }
            }
        }
    }

    /// `NAND` with caller-provided scratch (the hot-path API the backends
    /// use). All other `_with` gates follow the same pattern.
    pub fn nand_with(
        &self,
        a: &LweCiphertext,
        b: &LweCiphertext,
        scratch: &mut GateScratch,
    ) -> LweCiphertext {
        let mut out = LweCiphertext::trivial(Torus32::ZERO, self.params.lwe_dim);
        self.gate_into(BootGate::Nand, a, b, scratch, &mut out);
        out
    }

    /// `AND`.
    pub fn and_with(
        &self,
        a: &LweCiphertext,
        b: &LweCiphertext,
        scratch: &mut GateScratch,
    ) -> LweCiphertext {
        let mut out = LweCiphertext::trivial(Torus32::ZERO, self.params.lwe_dim);
        self.gate_into(BootGate::And, a, b, scratch, &mut out);
        out
    }

    /// `OR`.
    pub fn or_with(
        &self,
        a: &LweCiphertext,
        b: &LweCiphertext,
        scratch: &mut GateScratch,
    ) -> LweCiphertext {
        let mut out = LweCiphertext::trivial(Torus32::ZERO, self.params.lwe_dim);
        self.gate_into(BootGate::Or, a, b, scratch, &mut out);
        out
    }

    /// `NOR`.
    pub fn nor_with(
        &self,
        a: &LweCiphertext,
        b: &LweCiphertext,
        scratch: &mut GateScratch,
    ) -> LweCiphertext {
        let mut out = LweCiphertext::trivial(Torus32::ZERO, self.params.lwe_dim);
        self.gate_into(BootGate::Nor, a, b, scratch, &mut out);
        out
    }

    /// `XOR`.
    pub fn xor_with(
        &self,
        a: &LweCiphertext,
        b: &LweCiphertext,
        scratch: &mut GateScratch,
    ) -> LweCiphertext {
        let mut out = LweCiphertext::trivial(Torus32::ZERO, self.params.lwe_dim);
        self.gate_into(BootGate::Xor, a, b, scratch, &mut out);
        out
    }

    /// `XNOR`.
    pub fn xnor_with(
        &self,
        a: &LweCiphertext,
        b: &LweCiphertext,
        scratch: &mut GateScratch,
    ) -> LweCiphertext {
        let mut out = LweCiphertext::trivial(Torus32::ZERO, self.params.lwe_dim);
        self.gate_into(BootGate::Xnor, a, b, scratch, &mut out);
        out
    }

    /// `ANDNY` = `!a & b`.
    pub fn andny_with(
        &self,
        a: &LweCiphertext,
        b: &LweCiphertext,
        scratch: &mut GateScratch,
    ) -> LweCiphertext {
        let mut out = LweCiphertext::trivial(Torus32::ZERO, self.params.lwe_dim);
        self.gate_into(BootGate::Andny, a, b, scratch, &mut out);
        out
    }

    /// `ANDYN` = `a & !b`.
    pub fn andyn_with(
        &self,
        a: &LweCiphertext,
        b: &LweCiphertext,
        scratch: &mut GateScratch,
    ) -> LweCiphertext {
        let mut out = LweCiphertext::trivial(Torus32::ZERO, self.params.lwe_dim);
        self.gate_into(BootGate::Andyn, a, b, scratch, &mut out);
        out
    }

    /// `ORNY` = `!a | b`.
    pub fn orny_with(
        &self,
        a: &LweCiphertext,
        b: &LweCiphertext,
        scratch: &mut GateScratch,
    ) -> LweCiphertext {
        let mut out = LweCiphertext::trivial(Torus32::ZERO, self.params.lwe_dim);
        self.gate_into(BootGate::Orny, a, b, scratch, &mut out);
        out
    }

    /// `ORYN` = `a | !b`.
    pub fn oryn_with(
        &self,
        a: &LweCiphertext,
        b: &LweCiphertext,
        scratch: &mut GateScratch,
    ) -> LweCiphertext {
        let mut out = LweCiphertext::trivial(Torus32::ZERO, self.params.lwe_dim);
        self.gate_into(BootGate::Oryn, a, b, scratch, &mut out);
        out
    }

    /// `NOT` — a free negation, no bootstrapping required.
    pub fn not(&self, a: &LweCiphertext) -> LweCiphertext {
        let mut c = a.clone();
        c.negate();
        c
    }

    /// Allocation-free `NOT`: `out = -a`.
    pub fn not_into(&self, a: &LweCiphertext, out: &mut LweCiphertext) {
        out.copy_from(a);
        out.negate();
    }

    /// A trivial encryption of a constant bit, decryptable under any key.
    pub fn constant(&self, bit: bool) -> LweCiphertext {
        let mu = if bit { Self::mu() } else { -Self::mu() };
        LweCiphertext::trivial(mu, self.params.lwe_dim)
    }

    /// Allocation-free constant: overwrites `out` with the trivial
    /// encryption of `bit`.
    pub fn constant_into(&self, bit: bool, out: &mut LweCiphertext) {
        let mu = if bit { Self::mu() } else { -Self::mu() };
        out.assign_trivial(mu, self.params.lwe_dim);
    }

    /// `MUX(s, a, b) = s ? a : b` — the TFHE-library bonus gate, built from
    /// two bootstraps and one key switch.
    pub fn mux_with(
        &self,
        s: &LweCiphertext,
        a: &LweCiphertext,
        b: &LweCiphertext,
        scratch: &mut GateScratch,
    ) -> LweCiphertext {
        // t1 = bootstrap(s AND a), t2 = bootstrap(!s AND b), out = KS(t1 + t2 + 1/8).
        scratch.combo.assign_trivial(-Self::mu(), self.params.lwe_dim);
        scratch.combo.add_assign(s);
        scratch.combo.add_assign(a);
        self.bootstrap.bootstrap_raw_into(
            &scratch.combo,
            Self::mu(),
            &mut scratch.boot,
            &mut scratch.raw,
        );
        scratch.combo.assign_trivial(-Self::mu(), self.params.lwe_dim);
        scratch.combo.sub_assign(s);
        scratch.combo.add_assign(b);
        self.bootstrap.bootstrap_raw_into(
            &scratch.combo,
            Self::mu(),
            &mut scratch.boot,
            &mut scratch.raw2,
        );
        scratch.sum.assign_trivial(Self::mu(), self.keyswitch.src_dim());
        scratch.sum.add_assign(&scratch.raw);
        scratch.sum.add_assign(&scratch.raw2);
        self.keyswitch.switch(&scratch.sum)
    }

    /// Convenience allocation-per-call variants of every gate.
    pub fn nand(&self, a: &LweCiphertext, b: &LweCiphertext) -> LweCiphertext {
        self.nand_with(a, b, &mut self.gate_scratch())
    }
    /// See [`ServerKey::and_with`].
    pub fn and(&self, a: &LweCiphertext, b: &LweCiphertext) -> LweCiphertext {
        self.and_with(a, b, &mut self.gate_scratch())
    }
    /// See [`ServerKey::or_with`].
    pub fn or(&self, a: &LweCiphertext, b: &LweCiphertext) -> LweCiphertext {
        self.or_with(a, b, &mut self.gate_scratch())
    }
    /// See [`ServerKey::nor_with`].
    pub fn nor(&self, a: &LweCiphertext, b: &LweCiphertext) -> LweCiphertext {
        self.nor_with(a, b, &mut self.gate_scratch())
    }
    /// See [`ServerKey::xor_with`].
    pub fn xor(&self, a: &LweCiphertext, b: &LweCiphertext) -> LweCiphertext {
        self.xor_with(a, b, &mut self.gate_scratch())
    }
    /// See [`ServerKey::xnor_with`].
    pub fn xnor(&self, a: &LweCiphertext, b: &LweCiphertext) -> LweCiphertext {
        self.xnor_with(a, b, &mut self.gate_scratch())
    }
    /// See [`ServerKey::andny_with`].
    pub fn andny(&self, a: &LweCiphertext, b: &LweCiphertext) -> LweCiphertext {
        self.andny_with(a, b, &mut self.gate_scratch())
    }
    /// See [`ServerKey::andyn_with`].
    pub fn andyn(&self, a: &LweCiphertext, b: &LweCiphertext) -> LweCiphertext {
        self.andyn_with(a, b, &mut self.gate_scratch())
    }
    /// See [`ServerKey::orny_with`].
    pub fn orny(&self, a: &LweCiphertext, b: &LweCiphertext) -> LweCiphertext {
        self.orny_with(a, b, &mut self.gate_scratch())
    }
    /// See [`ServerKey::oryn_with`].
    pub fn oryn(&self, a: &LweCiphertext, b: &LweCiphertext) -> LweCiphertext {
        self.oryn_with(a, b, &mut self.gate_scratch())
    }
    /// See [`ServerKey::mux_with`].
    pub fn mux(&self, s: &LweCiphertext, a: &LweCiphertext, b: &LweCiphertext) -> LweCiphertext {
        self.mux_with(s, a, b, &mut self.gate_scratch())
    }

    /// Evaluates one gate while timing its phases — the measurement behind
    /// the Figure 7 reproduction.
    pub fn profile_nand(
        &self,
        a: &LweCiphertext,
        b: &LweCiphertext,
    ) -> (LweCiphertext, GateProfile) {
        use std::time::Instant;
        let mut scratch = self.gate_scratch();
        let t0 = Instant::now();
        self.combo_into(BootGate::Nand, a, b, &mut scratch.combo);
        let t1 = Instant::now();
        self.bootstrap.bootstrap_raw_into(
            &scratch.combo,
            Self::mu(),
            &mut scratch.boot,
            &mut scratch.raw,
        );
        let t2 = Instant::now();
        let out = self.keyswitch.switch(&scratch.raw);
        let t3 = Instant::now();
        let profile = GateProfile {
            linear_s: (t1 - t0).as_secs_f64(),
            blind_rotation_s: (t2 - t1).as_secs_f64(),
            key_switching_s: (t3 - t2).as_secs_f64(),
        };
        (out, profile)
    }
}

#[cfg(test)]
mod tests {
    use crate::{ClientKey, Params, SecureRng, ServerKey};

    fn setup() -> (ClientKey, ServerKey, SecureRng) {
        let mut rng = SecureRng::seed_from_u64(80);
        let client = ClientKey::generate(Params::testing(), &mut rng);
        let server = client.server_key(&mut rng);
        (client, server, rng)
    }

    #[test]
    fn all_binary_gates_truth_tables() {
        let (client, server, mut rng) = setup();
        type GateFn =
            fn(&ServerKey, &crate::LweCiphertext, &crate::LweCiphertext) -> crate::LweCiphertext;
        type GateCase = (&'static str, GateFn, fn(bool, bool) -> bool);
        let gates: [GateCase; 10] = [
            ("nand", ServerKey::nand, |a, b| !(a && b)),
            ("and", ServerKey::and, |a, b| a && b),
            ("or", ServerKey::or, |a, b| a || b),
            ("nor", ServerKey::nor, |a, b| !(a || b)),
            ("xor", ServerKey::xor, |a, b| a ^ b),
            ("xnor", ServerKey::xnor, |a, b| !(a ^ b)),
            ("andny", ServerKey::andny, |a, b| !a && b),
            ("andyn", ServerKey::andyn, |a, b| a && !b),
            ("orny", ServerKey::orny, |a, b| !a || b),
            ("oryn", ServerKey::oryn, |a, b| a || !b),
        ];
        for (name, gate, oracle) in gates {
            for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
                let ca = client.encrypt_bit(a, &mut rng);
                let cb = client.encrypt_bit(b, &mut rng);
                let out = gate(&server, &ca, &cb);
                assert_eq!(client.decrypt_bit(&out), oracle(a, b), "{name}({a}, {b})");
            }
        }
    }

    #[test]
    fn ntt_transform_runs_full_gate_suite() {
        use super::{BootGate, FUSE_CHUNK};
        use crate::ntt::{self, Transform};
        let _g = ntt::transform_guard().write().unwrap();
        let (client, server, mut rng) = setup();
        let mut scratch = server.gate_scratch();
        let restore = ntt::active_transform();
        ntt::set_active_transform(Transform::Ntt);
        for gate in BootGate::ALL {
            for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
                let ca = client.encrypt_bit(a, &mut rng);
                let cb = client.encrypt_bit(b, &mut rng);
                let mut out = server.constant(false);
                server.gate_into(gate, &ca, &cb, &mut scratch, &mut out);
                assert_eq!(
                    client.decrypt_bit(&out),
                    gate.eval(a, b),
                    "{}({a}, {b}) under ntt",
                    gate.name()
                );
            }
        }
        // Batches run the same lane-outer loop under the NTT, calling
        // the exact-integer CMUX per lane, so they are bit-exact with
        // gate_into there too.
        let cts: Vec<_> = (0..FUSE_CHUNK + 2)
            .map(|i| {
                (client.encrypt_bit(i % 2 == 0, &mut rng), client.encrypt_bit(i % 3 == 0, &mut rng))
            })
            .collect();
        let pairs: Vec<_> = cts.iter().map(|(a, b)| (a, b)).collect();
        let mut want = Vec::new();
        for &(a, b) in &pairs {
            let mut out = server.constant(false);
            server.gate_into(BootGate::Nand, a, b, &mut scratch, &mut out);
            want.push(out);
        }
        let mut outs = vec![server.constant(false); pairs.len()];
        server.batch_bootstrap_fused(BootGate::Nand, &pairs, &mut outs, &mut scratch);
        assert_eq!(outs, want, "ntt batch must be bit-exact with gate_into");
        ntt::set_active_transform(restore);
    }

    #[test]
    fn mixed_batch_is_bit_exact_with_scalar_gates() {
        use super::BootGate;
        let _g = crate::ntt::transform_guard().read().unwrap();
        let (client, server, mut rng) = setup();
        let mut scratch = server.gate_scratch();
        let gates = [
            BootGate::Nand,
            BootGate::Xor,
            BootGate::And,
            BootGate::Oryn,
            BootGate::Nor,
            BootGate::Xnor,
        ];
        let bits = [
            (true, false),
            (true, true),
            (false, false),
            (false, true),
            (true, false),
            (true, true),
        ];
        let cts: Vec<_> = bits
            .iter()
            .map(|&(a, b)| (client.encrypt_bit(a, &mut rng), client.encrypt_bit(b, &mut rng)))
            .collect();
        let pairs: Vec<_> = cts.iter().map(|(a, b)| (a, b)).collect();
        // Scalar oracle, one gate_into per slot.
        let mut want = Vec::new();
        for (&gate, &(a, b)) in gates.iter().zip(&pairs) {
            let mut out = server.constant(false);
            server.gate_into(gate, a, b, &mut scratch, &mut out);
            want.push(out);
        }
        // One mixed launch over the whole wave.
        let mut outs = vec![server.constant(false); pairs.len()];
        server.batch_bootstrap_mixed(&gates, &pairs, &mut outs, &mut scratch);
        assert_eq!(outs, want, "mixed batch must be bit-exact with scalar gate_into");
        let dec: Vec<_> = outs.iter().map(|c| client.decrypt_bit(c)).collect();
        assert_eq!(dec, vec![true, false, false, false, false, true]);
    }

    #[test]
    fn first_full_width_batch_on_fresh_scratch_allocates_no_buffer() {
        // No warm-up: the per-lane accumulators exist from construction,
        // so a worker's first wide wave costs what every later one does.
        use super::{BootGate, FUSE_CHUNK};
        use crate::ntt::{self, Transform};
        let _g = ntt::transform_guard().read().unwrap();
        if ntt::active_transform() == Transform::Ntt {
            return; // the NTT mirror key is derived on first use, by design
        }
        let (client, server, mut rng) = setup();
        let cts: Vec<_> = (0..FUSE_CHUNK)
            .map(|i| (client.encrypt_bit(i % 2 == 0, &mut rng), client.encrypt_bit(true, &mut rng)))
            .collect();
        let pairs: Vec<_> = cts.iter().map(|(a, b)| (a, b)).collect();
        let mut outs = vec![server.constant(false); pairs.len()];
        let mut scratch = server.gate_scratch();
        let before = crate::trace::thread_buffer_allocs();
        server.batch_bootstrap_fused(BootGate::Nand, &pairs, &mut outs, &mut scratch);
        assert_eq!(crate::trace::thread_buffer_allocs() - before, 0);
    }

    #[test]
    fn fused_batch_is_bit_exact_with_gate_into_under_every_simd_path() {
        use super::{BootGate, FUSE_CHUNK};
        use crate::simd::{self, SimdPath};
        let _g = crate::ntt::transform_guard().read().unwrap();
        let (client, server, mut rng) = setup();
        let mut scratch = server.gate_scratch();
        // More than two fuse chunks plus a ragged tail, so the fused
        // path actually re-stages mid-batch.
        let n = FUSE_CHUNK * 2 + 3;
        let bits: Vec<(bool, bool)> = (0..n).map(|i| (i % 2 == 0, i % 3 == 0)).collect();
        let cts: Vec<_> = bits
            .iter()
            .map(|&(a, b)| (client.encrypt_bit(a, &mut rng), client.encrypt_bit(b, &mut rng)))
            .collect();
        let pairs: Vec<_> = cts.iter().map(|(a, b)| (a, b)).collect();
        // Bootstrapping is deterministic given the key and inputs, so
        // the comparison is exact per path; the restore keeps the
        // process-global dispatch as other tests expect it.
        let restore = simd::active_path();
        for path in SimdPath::ALL {
            if !path.is_supported() {
                continue;
            }
            assert!(simd::set_active_path(path));
            let mut scalar = vec![server.constant(false); n];
            for (&(a, b), out) in pairs.iter().zip(&mut scalar) {
                server.gate_into(BootGate::Xor, a, b, &mut scratch, out);
            }
            let mut fused = vec![server.constant(false); n];
            server.batch_bootstrap_fused(BootGate::Xor, &pairs, &mut fused, &mut scratch);
            assert_eq!(fused, scalar, "fused batch must be bit-exact on path={path}");
            for (ct, &(a, b)) in fused.iter().zip(&bits) {
                assert_eq!(client.decrypt_bit(ct), a ^ b, "xor({a},{b}) on path={path}");
            }
        }
        simd::set_active_path(restore);
    }

    #[test]
    fn not_and_constants() {
        let (client, server, mut rng) = setup();
        for bit in [false, true] {
            let ct = client.encrypt_bit(bit, &mut rng);
            assert_eq!(client.decrypt_bit(&server.not(&ct)), !bit);
            assert_eq!(client.decrypt_bit(&server.constant(bit)), bit);
        }
    }

    #[test]
    fn mux_selects() {
        let (client, server, mut rng) = setup();
        for s in [false, true] {
            for a in [false, true] {
                for b in [false, true] {
                    let cs = client.encrypt_bit(s, &mut rng);
                    let ca = client.encrypt_bit(a, &mut rng);
                    let cb = client.encrypt_bit(b, &mut rng);
                    let out = server.mux(&cs, &ca, &cb);
                    assert_eq!(client.decrypt_bit(&out), if s { a } else { b }, "mux({s},{a},{b})");
                }
            }
        }
    }

    #[test]
    fn gates_chain_arbitrarily_deep() {
        // The whole point of bootstrapping: noise does not accumulate.
        let (client, server, mut rng) = setup();
        let mut ct = client.encrypt_bit(true, &mut rng);
        let one = client.encrypt_bit(true, &mut rng);
        let mut value = true;
        for _ in 0..24 {
            ct = server.nand(&ct, &one);
            value = !value; // nand(x, 1) == !x
            assert_eq!(client.decrypt_bit(&ct), value);
        }
    }

    #[test]
    fn profile_reports_nonzero_phases() {
        let (client, server, mut rng) = setup();
        let a = client.encrypt_bit(true, &mut rng);
        let b = client.encrypt_bit(true, &mut rng);
        let (out, profile) = server.profile_nand(&a, &b);
        assert!(!client.decrypt_bit(&out));
        assert!(profile.blind_rotation_s > 0.0);
        assert!(profile.key_switching_s > 0.0);
        assert!(
            profile.blind_rotation_s > profile.key_switching_s,
            "blind rotation dominates (Figure 7)"
        );
        assert!(profile.total_s() > 0.0);
    }
}
