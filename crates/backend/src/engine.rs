//! Pluggable gate evaluators.
//!
//! Executors are generic over a [`GateEngine`], so the same scheduling
//! code runs real homomorphic evaluation ([`TfheEngine`]) and plaintext
//! functional evaluation ([`PlainEngine`]). This mirrors the paper's
//! architecture, where the backend wraps the TFHE library's
//! bootstrapped-gate primitives behind a uniform interface.

use crate::error::ExecError;
use pytfhe_netlist::GateKind;
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

    /// Evaluates a batch of independent gates — one kernel launch of the
    /// kernel-graph backend, whose gates may be of different kinds.
    /// `items[i]` is `(kind, a, b)` for `outs[i]`; unary gates read only
    /// `a`, constants neither. [`crate::graph::run_wave`] hands an engine
    /// batches whose gates either all bootstrap or are all linear, and
    /// the serial oracle [`crate::execute`] one gate at a time.
    ///
    /// # Panics
    ///
    /// Implementations may panic when `items.len() != outs.len()`.
    fn eval_batch(
        &self,
        items: &[(GateKind, &Self::Value, &Self::Value)],
        outs: &mut [Self::Value],
        scratch: &mut Self::Scratch,
    );

    /// The engine's encoding of a constant bit.
    fn constant(&self, bit: bool) -> Self::Value;

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

    fn eval_batch(&self, items: &[(GateKind, &bool, &bool)], outs: &mut [bool], _scratch: &mut ()) {
        for (&(kind, a, b), out) in items.iter().zip(outs) {
            *out = kind.eval(*a, *b);
        }
    }

    fn constant(&self, bit: bool) -> bool {
        bit
    }

    fn parallel_grain(&self) -> usize {
        self.grain
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

    fn eval_batch(
        &self,
        items: &[(GateKind, &LweCiphertext, &LweCiphertext)],
        outs: &mut [LweCiphertext],
        scratch: &mut Self::Scratch,
    ) {
        debug_assert_eq!(items.len(), outs.len());
        let k = self.key;
        // A batch that only bootstraps is one staged-batch kernel, each
        // slot staged with its own gate's linear recipe.
        if let Some(gates) =
            items.iter().map(|&(kind, ..)| boot_gate(kind)).collect::<Option<Vec<_>>>()
        {
            let pairs: Vec<_> = items.iter().map(|&(_, a, b)| (a, b)).collect();
            return k.batch_bootstrap_mixed(&gates, &pairs, outs, scratch);
        }
        for (&(kind, a, b), out) in items.iter().zip(outs) {
            match kind {
                GateKind::Not => k.not_into(a, out),
                GateKind::Buf => out.copy_from(a),
                GateKind::Const0 => k.constant_into(false, out),
                GateKind::Const1 => k.constant_into(true, out),
                _ => k.gate_into(boot_gate(kind).expect("a binary kind"), a, b, scratch, out),
            }
        }
    }

    fn constant(&self, bit: bool) -> LweCiphertext {
        self.key.constant(bit)
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

    /// One gate as a one-item batch, the way the serial oracle runs it.
    fn eval_one<E: GateEngine>(
        engine: &E,
        kind: GateKind,
        a: &E::Value,
        b: &E::Value,
        scratch: &mut E::Scratch,
    ) -> E::Value {
        let mut out = engine.constant(false);
        engine.eval_batch(&[(kind, a, b)], std::slice::from_mut(&mut out), scratch);
        out
    }

    #[test]
    fn plain_engine_matches_gate_truth_tables() {
        let engine = PlainEngine::new();
        // PlainEngine's scratch happens to be `()`; keep the generic
        // engine idiom rather than special-casing the unit type.
        #[allow(clippy::let_unit_value)]
        let mut s = engine.scratch();
        for &kind in &ALL_GATE_KINDS {
            for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
                assert_eq!(eval_one(&engine, kind, &a, &b, &mut s), kind.eval(a, b));
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
                let out = eval_one(&engine, kind, &ca, &cb, &mut scratch);
                let want = eval_one(&plain, kind, &a, &b, &mut ());
                assert_eq!(client.decrypt_bit(&out), want, "{kind}({a},{b})");
            }
        }
        assert!(client.decrypt_bit(&engine.constant(true)));
        assert!(!client.decrypt_bit(&engine.constant(false)));
    }

    #[test]
    fn tfhe_eval_batch_is_bit_exact_with_scalar_eval() {
        use GateKind::{And, Buf, Nand, Not, Oryn, Xor};
        let mut rng = SecureRng::seed_from_u64(23);
        let client = ClientKey::generate(Params::testing(), &mut rng);
        let server = client.server_key(&mut rng);
        let engine = TfheEngine::new(&server);
        let mut scratch = engine.scratch();
        let cts: Vec<_> = [true, false, true, true, false, true]
            .iter()
            .map(|&bit| client.encrypt_bit(bit, &mut rng))
            .collect();
        // One kind per batch, then every bootstrapping kind in one batch,
        // then bootstrapping and linear kinds in one batch.
        let mut batches: Vec<[GateKind; 5]> = [Nand, Xor, Oryn, Not, Buf].map(|k| [k; 5]).into();
        batches.extend([[Nand, Xor, Oryn, And, Xor], [Nand, Not, Xor, Buf, Oryn]]);
        for kinds in batches {
            let items: Vec<_> =
                kinds.iter().enumerate().map(|(i, &kind)| (kind, &cts[i], &cts[i + 1])).collect();
            let want: Vec<_> = items
                .iter()
                .map(|&(kind, a, b)| eval_one(&engine, kind, a, b, &mut scratch))
                .collect();
            let mut outs = vec![engine.constant(false); items.len()];
            engine.eval_batch(&items, &mut outs, &mut scratch);
            assert_eq!(outs, want, "{kinds:?}");
        }
    }
}
