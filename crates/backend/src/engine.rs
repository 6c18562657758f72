//! Pluggable gate evaluators.
//!
//! Executors are generic over a [`GateEngine`], so the same scheduling
//! code runs real homomorphic evaluation ([`TfheEngine`]) and plaintext
//! functional evaluation ([`PlainEngine`]). This mirrors the paper's
//! architecture, where the backend wraps the TFHE library's
//! bootstrapped-gate primitives behind a uniform interface.

use crate::error::ExecError;
use pytfhe_netlist::{GateKind, LutSpec};
use pytfhe_tfhe::{BootGate, GateScratch, LweCiphertext, ServerKey};

/// Evaluates individual gates on some value domain.
///
/// `Scratch` carries per-worker reusable buffers (the FFT scratch of a
/// bootstrap); each worker thread owns one instance.
pub trait GateEngine: Sync {
    /// The ciphertext (or plaintext) type of a single signal.
    type Value: Clone + Send + Sync;
    /// Per-worker scratch buffers.
    type Scratch: Send;

    /// Allocates scratch for one worker.
    fn scratch(&self) -> Self::Scratch;

    /// Evaluates one gate. Unary gates read only `a`; constants read
    /// neither.
    fn eval(
        &self,
        kind: GateKind,
        a: &Self::Value,
        b: &Self::Value,
        scratch: &mut Self::Scratch,
    ) -> Self::Value;

    /// The engine's encoding of a constant bit.
    fn constant(&self, bit: bool) -> Self::Value;

    /// Evaluates one gate into an existing value slot, reusing its
    /// buffers where the engine supports it. The default falls back to
    /// [`GateEngine::eval`] plus a move.
    fn eval_into(
        &self,
        kind: GateKind,
        a: &Self::Value,
        b: &Self::Value,
        scratch: &mut Self::Scratch,
        out: &mut Self::Value,
    ) {
        *out = self.eval(kind, a, b, scratch);
    }

    /// Evaluates a batch of independent same-kind gates — one "kernel
    /// launch" of the kernel-graph backend. `pairs[i]` holds the operand
    /// views for `outs[i]`. The default loops [`GateEngine::eval_into`];
    /// engines with batched primitives (SoA staging, vectorized
    /// bootstraps) override it.
    ///
    /// # Panics
    ///
    /// Implementations may panic when `pairs.len() != outs.len()`.
    fn eval_batch(
        &self,
        kind: GateKind,
        pairs: &[(&Self::Value, &Self::Value)],
        outs: &mut [Self::Value],
        scratch: &mut Self::Scratch,
    ) {
        debug_assert_eq!(pairs.len(), outs.len());
        for (&(a, b), out) in pairs.iter().zip(outs.iter_mut()) {
            self.eval_into(kind, a, b, scratch, out);
        }
    }

    /// Smallest wave (in gates) worth dispatching across the worker
    /// pool; narrower waves run inline on the calling thread. The
    /// default is [`crate::exec::PARALLEL_WAVE_MIN`], which engines whose
    /// gates dwarf a pool dispatch keep (a bootstrapped TFHE gate costs
    /// three orders of magnitude more, so even two-gate waves repay
    /// fan-out); engines whose per-gate cost is tiny compared to a
    /// dispatch (plaintext evaluation) override it upward.
    fn parallel_grain(&self) -> usize {
        crate::exec::PARALLEL_WAVE_MIN
    }

    /// The most lanes one bootstrap splits across:
    /// [`crate::graph::run_wave`] runs a wave whose only bootstrap would
    /// leave lanes idle on a gang of `min(lanes, gang_width)`
    /// ([`GateEngine::band`]). 1, the default, keeps every bootstrap on
    /// one lane.
    fn gang_width(&self) -> usize {
        1
    }

    /// Bands `scratches` into a gang: until each is
    /// [`GateEngine::release`]d, the lane holding `scratches[i]` computes
    /// member `i`'s share of every bootstrap, so all members must make
    /// the same bootstrapping calls, each on its own thread, and each
    /// receives the whole result. Called only when
    /// [`GateEngine::gang_width`] exceeds 1.
    fn band(&self, scratches: &mut [Self::Scratch]) {
        let _ = scratches;
    }

    /// Returns a banded scratch to bootstrapping alone. Releasing a member
    /// whose partners still wait on it aborts them: their call panics.
    fn release(&self, scratch: &mut Self::Scratch) {
        let _ = scratch;
    }

    /// Evaluates one fused LUT node into an existing value slot.
    /// `ins[..spec.width]` are the cone's leaves; unused slots carry a
    /// valid (ignored) value, exactly as [`pytfhe_netlist::Node::Lut`]
    /// pads them. On ciphertext engines every wire of a LUT-lowered
    /// netlist rides the *message* encoding at `spec.precision` bits,
    /// not the boolean gate encoding.
    ///
    /// The default panics: engines that never see lowered netlists (ad
    /// hoc test engines) need not implement LUT evaluation.
    fn eval_lut_into(
        &self,
        spec: LutSpec,
        ins: &[&Self::Value; 4],
        scratch: &mut Self::Scratch,
        out: &mut Self::Value,
    ) {
        let _ = (ins, scratch, out);
        unimplemented!("engine does not evaluate fused LUT nodes (spec {spec})")
    }

    /// Allocating form of [`GateEngine::eval_lut_into`].
    fn eval_lut(
        &self,
        spec: LutSpec,
        ins: &[&Self::Value; 4],
        scratch: &mut Self::Scratch,
    ) -> Self::Value {
        let mut out = self.constant(false);
        self.eval_lut_into(spec, ins, scratch, &mut out);
        out
    }

    /// Evaluates a batch of independent same-width, same-precision LUTs
    /// — one fused kernel launch on engines with batched programmable
    /// bootstraps. `items[i]` is `(table, leaf slots)` for `outs[i]`.
    /// The default loops [`GateEngine::eval_lut_into`].
    ///
    /// # Panics
    ///
    /// Implementations may panic when `items.len() != outs.len()`.
    fn eval_lut_batch(
        &self,
        width: u8,
        precision: u8,
        items: &[(u16, [&Self::Value; 4])],
        outs: &mut [Self::Value],
        scratch: &mut Self::Scratch,
    ) {
        debug_assert_eq!(items.len(), outs.len());
        for (&(table, ins), out) in items.iter().zip(outs.iter_mut()) {
            self.eval_lut_into(LutSpec::new(width, precision, table), &ins, scratch, out);
        }
    }

    /// The engine's encoding of a constant bit on a LUT-lowered netlist,
    /// where every wire is a message at `precision` bits. Plaintext-like
    /// engines ignore the precision; ciphertext engines must emit the
    /// message encoding (the boolean gate encoding would desync the
    /// packed LUT windows).
    fn constant_message(&self, bit: bool, precision: u8) -> Self::Value {
        let _ = precision;
        self.constant(bit)
    }

    /// Checks input number `index` before a run loads it, so a value the
    /// engine cannot evaluate is the caller's typed error, not a panic in
    /// a kernel: [`ExecError::InputDimensionMismatch`] on ciphertext
    /// engines. The default accepts every value (a bit has no shape).
    ///
    /// # Errors
    ///
    /// Returns the refusal.
    fn check_input(&self, index: usize, value: &Self::Value) -> Result<(), ExecError> {
        let _ = (index, value);
        Ok(())
    }
}

/// The one input check of every executor: the count against what the
/// program declares, then each value through [`GateEngine::check_input`].
pub(crate) fn check_inputs<E: GateEngine>(
    engine: &E,
    expected: usize,
    inputs: &[E::Value],
) -> Result<(), ExecError> {
    if inputs.len() != expected {
        return Err(ExecError::InputCountMismatch { expected, got: inputs.len() });
    }
    inputs.iter().enumerate().try_for_each(|(index, value)| engine.check_input(index, value))
}

/// Maps a netlist gate kind onto the TFHE crate's bootstrapped-gate
/// enum. `None` for the kinds evaluated without a bootstrap (`Not`,
/// `Buf`, constants).
pub fn boot_gate(kind: GateKind) -> Option<BootGate> {
    match kind {
        GateKind::Nand => Some(BootGate::Nand),
        GateKind::And => Some(BootGate::And),
        GateKind::Or => Some(BootGate::Or),
        GateKind::Nor => Some(BootGate::Nor),
        GateKind::Xor => Some(BootGate::Xor),
        GateKind::Xnor => Some(BootGate::Xnor),
        GateKind::Andny => Some(BootGate::Andny),
        GateKind::Andyn => Some(BootGate::Andyn),
        GateKind::Orny => Some(BootGate::Orny),
        GateKind::Oryn => Some(BootGate::Oryn),
        GateKind::Not | GateKind::Buf | GateKind::Const0 | GateKind::Const1 => None,
    }
}

/// Plaintext functional evaluation: gates on `bool`.
///
/// This is the engine behind program validation and behind the
/// performance simulators (running MNIST_L homomorphically on one core
/// would take days — exactly the paper's point about baselines).
#[derive(Debug, Clone, Copy)]
pub struct PlainEngine {
    /// Smallest wave worth a pool dispatch (see
    /// [`GateEngine::parallel_grain`]).
    grain: usize,
}

/// Default parallel grain for plaintext gates: a `bool` gate costs a few
/// nanoseconds while a pool dispatch costs on the order of a microsecond,
/// so only very wide waves repay fan-out.
const PLAIN_PARALLEL_GRAIN: usize = 4096;

impl PlainEngine {
    /// Creates the engine.
    pub fn new() -> Self {
        PlainEngine { grain: PLAIN_PARALLEL_GRAIN }
    }

    /// An engine with an explicit parallel grain (clamped ≥ 1) — test
    /// and benchmark hook for forcing plaintext waves through the pooled
    /// dispatch path regardless of width.
    pub fn with_parallel_grain(grain: usize) -> Self {
        PlainEngine { grain: grain.max(1) }
    }
}

impl Default for PlainEngine {
    fn default() -> Self {
        PlainEngine::new()
    }
}

impl GateEngine for PlainEngine {
    type Value = bool;
    type Scratch = ();

    fn scratch(&self) -> Self::Scratch {}

    #[inline]
    fn eval(&self, kind: GateKind, a: &bool, b: &bool, _scratch: &mut ()) -> bool {
        kind.eval(*a, *b)
    }

    fn constant(&self, bit: bool) -> bool {
        bit
    }

    fn parallel_grain(&self) -> usize {
        self.grain
    }

    fn eval_lut_into(&self, spec: LutSpec, ins: &[&bool; 4], _scratch: &mut (), out: &mut bool) {
        let pattern = ins[..spec.width as usize]
            .iter()
            .enumerate()
            .fold(0usize, |acc, (i, &&bit)| acc | (usize::from(bit) << i));
        *out = spec.eval(pattern);
    }
}

/// Real homomorphic evaluation: gates on LWE ciphertexts via the cloud
/// key's bootstrapped-gate primitives.
#[derive(Debug, Clone)]
pub struct TfheEngine<'k> {
    key: &'k ServerKey,
}

impl<'k> TfheEngine<'k> {
    /// Creates the engine over a server (cloud) key.
    pub fn new(key: &'k ServerKey) -> Self {
        TfheEngine { key }
    }
}

impl GateEngine for TfheEngine<'_> {
    type Value = LweCiphertext;
    type Scratch = GateScratch;

    fn scratch(&self) -> Self::Scratch {
        self.key.gate_scratch()
    }

    fn eval(
        &self,
        kind: GateKind,
        a: &LweCiphertext,
        b: &LweCiphertext,
        scratch: &mut Self::Scratch,
    ) -> LweCiphertext {
        let mut out = self.key.constant(false);
        self.eval_into(kind, a, b, scratch, &mut out);
        out
    }

    fn constant(&self, bit: bool) -> LweCiphertext {
        self.key.constant(bit)
    }

    fn eval_into(
        &self,
        kind: GateKind,
        a: &LweCiphertext,
        b: &LweCiphertext,
        scratch: &mut Self::Scratch,
        out: &mut LweCiphertext,
    ) {
        let k = self.key;
        match boot_gate(kind) {
            Some(gate) => k.gate_into(gate, a, b, scratch, out),
            None => match kind {
                GateKind::Not => k.not_into(a, out),
                GateKind::Buf => out.copy_from(a),
                GateKind::Const0 => k.constant_into(false, out),
                GateKind::Const1 => k.constant_into(true, out),
                _ => unreachable!("boot_gate covers every binary kind"),
            },
        }
    }

    fn gang_width(&self) -> usize {
        self.key.gang_width()
    }

    fn band(&self, scratches: &mut [GateScratch]) {
        GateScratch::band(scratches);
    }

    fn release(&self, scratch: &mut GateScratch) {
        scratch.release();
    }

    fn eval_batch(
        &self,
        kind: GateKind,
        pairs: &[(&LweCiphertext, &LweCiphertext)],
        outs: &mut [LweCiphertext],
        scratch: &mut Self::Scratch,
    ) {
        debug_assert_eq!(pairs.len(), outs.len());
        match boot_gate(kind) {
            // One fused batched kernel: linear combinations staged into
            // SoA slots and bootstrapped + key-switched chunk by chunk
            // while the staged masks are still cache-resident.
            Some(gate) => self.key.batch_bootstrap_fused(gate, pairs, outs, scratch),
            None => {
                for (&(a, b), out) in pairs.iter().zip(outs.iter_mut()) {
                    self.eval_into(kind, a, b, scratch, out);
                }
            }
        }
    }

    fn eval_lut_into(
        &self,
        spec: LutSpec,
        ins: &[&LweCiphertext; 4],
        scratch: &mut Self::Scratch,
        out: &mut LweCiphertext,
    ) {
        let k = self.key;
        let precision = u32::from(spec.precision);
        // Affine specs (constants, buffers, message NOT) never touch the
        // bootstrap; everything else is one programmable bootstrap.
        if let Some(bit) = spec.as_const() {
            k.message_constant_into(u32::from(bit), precision, out);
        } else if spec.is_passthrough() {
            out.copy_from(ins[0]);
        } else if spec.is_negation() {
            k.message_not_into(precision, ins[0], out);
        } else {
            k.boolean_lut_into(
                u32::from(spec.width),
                precision,
                spec.table,
                &ins[..spec.width as usize],
                scratch,
                out,
            );
        }
    }

    /// One fused batched kernel: tables pre-compiled, linear packings
    /// staged into SoA slots, programmable bootstraps launched chunk by
    /// chunk through the lockstep batched blind rotation.
    ///
    /// Callers route *affine* specs (width-1 constants, buffers,
    /// negations — [`LutSpec::bootstraps`] of 0) through
    /// [`GateEngine::eval_lut_into`] instead; feeding them here still
    /// yields correct bits but spends a needless bootstrap per task.
    fn eval_lut_batch(
        &self,
        width: u8,
        precision: u8,
        items: &[(u16, [&LweCiphertext; 4])],
        outs: &mut [LweCiphertext],
        scratch: &mut Self::Scratch,
    ) {
        self.key.boolean_lut_batch_into(
            u32::from(width),
            u32::from(precision),
            items,
            outs,
            scratch,
        );
    }

    fn constant_message(&self, bit: bool, precision: u8) -> LweCiphertext {
        let mut out = self.key.constant(false);
        self.key.message_constant_into(u32::from(bit), u32::from(precision), &mut out);
        out
    }

    fn check_input(&self, index: usize, value: &LweCiphertext) -> Result<(), ExecError> {
        let (expected, got) = (self.key.params().lwe_dim, value.dim());
        if got == expected {
            Ok(())
        } else {
            Err(ExecError::InputDimensionMismatch { index, expected, got })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pytfhe_netlist::ALL_GATE_KINDS;
    use pytfhe_tfhe::{ClientKey, Params, SecureRng};

    #[test]
    fn plain_engine_matches_gate_truth_tables() {
        let engine = PlainEngine::new();
        // PlainEngine's scratch happens to be `()`; keep the generic
        // engine idiom rather than special-casing the unit type.
        #[allow(clippy::let_unit_value)]
        let mut s = engine.scratch();
        for &kind in &ALL_GATE_KINDS {
            for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
                assert_eq!(engine.eval(kind, &a, &b, &mut s), kind.eval(a, b));
            }
        }
        assert!(engine.constant(true));
    }

    #[test]
    fn tfhe_engine_matches_plain_engine() {
        let mut rng = SecureRng::seed_from_u64(7);
        let client = ClientKey::generate(Params::testing(), &mut rng);
        let server = client.server_key(&mut rng);
        let engine = TfheEngine::new(&server);
        let plain = PlainEngine::new();
        let mut scratch = engine.scratch();
        for &kind in &ALL_GATE_KINDS {
            for (a, b) in [(false, true), (true, true), (false, false)] {
                let ca = client.encrypt_bit(a, &mut rng);
                let cb = client.encrypt_bit(b, &mut rng);
                let out = engine.eval(kind, &ca, &cb, &mut scratch);
                let want = plain.eval(kind, &a, &b, &mut ());
                assert_eq!(client.decrypt_bit(&out), want, "{kind}({a},{b})");
            }
        }
        assert!(client.decrypt_bit(&engine.constant(true)));
        assert!(!client.decrypt_bit(&engine.constant(false)));
    }

    #[test]
    fn tfhe_eval_into_is_bit_exact_with_eval() {
        let mut rng = SecureRng::seed_from_u64(19);
        let client = ClientKey::generate(Params::testing(), &mut rng);
        let server = client.server_key(&mut rng);
        let engine = TfheEngine::new(&server);
        let mut scratch = engine.scratch();
        let ca = client.encrypt_bit(true, &mut rng);
        let cb = client.encrypt_bit(false, &mut rng);
        let mut out = engine.constant(false);
        for &kind in &ALL_GATE_KINDS {
            let want = engine.eval(kind, &ca, &cb, &mut scratch);
            engine.eval_into(kind, &ca, &cb, &mut scratch, &mut out);
            assert_eq!(out, want, "{kind}");
        }
    }

    #[test]
    fn tfhe_eval_batch_is_bit_exact_with_scalar_eval() {
        let mut rng = SecureRng::seed_from_u64(23);
        let client = ClientKey::generate(Params::testing(), &mut rng);
        let server = client.server_key(&mut rng);
        let engine = TfheEngine::new(&server);
        let mut scratch = engine.scratch();
        let cts: Vec<_> = [true, false, true, true, false]
            .iter()
            .map(|&bit| client.encrypt_bit(bit, &mut rng))
            .collect();
        for kind in [GateKind::Nand, GateKind::Xor, GateKind::Oryn, GateKind::Not, GateKind::Buf] {
            let pairs: Vec<_> = (0..4).map(|i| (&cts[i], &cts[i + 1])).collect::<Vec<_>>();
            let want: Vec<_> =
                pairs.iter().map(|&(a, b)| engine.eval(kind, a, b, &mut scratch)).collect();
            let mut outs = vec![engine.constant(false); pairs.len()];
            engine.eval_batch(kind, &pairs, &mut outs, &mut scratch);
            assert_eq!(outs, want, "{kind}");
        }
    }
}
