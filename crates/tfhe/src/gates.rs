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

use std::time::{Duration, Instant};

use crate::bootstrap::BootstrapScratch;
use crate::keys::{ServerKey, MU_LOG2_DENOM};
use crate::lwe::{LweCiphertext, LweSoa};
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

/// Slots per chunk of the staged-batch kernel — the widest batch one
/// pass over the bootstrapping key serves: small enough that a chunk's
/// staged struct-of-arrays masks (`FUSE_CHUNK · n` torus words) and
/// per-lane accumulators stay in L1/L2 between the staging pass and the
/// bootstrap that consumes them, large enough to amortize the key
/// traffic.
pub const FUSE_CHUNK: usize = 8;

/// All scratch a worker needs to evaluate gates without allocating once
/// it has served its widest call, one per worker thread: the
/// struct-of-arrays slots one chunk's linear combinations are staged
/// into, the bootstrap buffers, and the call's raw (pre-key-switch)
/// samples, one per lane of the widest call served so far.
#[derive(Debug)]
pub struct GateScratch {
    boot: BootstrapScratch,
    raws: Vec<LweCiphertext>,
    soa: LweSoa,
}

/// What the staged-batch kernel does with a call's raw samples.
#[derive(Clone, Copy)]
enum Tail {
    /// Key-switch every lane into its own output, all in one pass.
    Each,
    /// Key-switch the sum of the batch's lanes plus this plaintext offset
    /// into the single output — the tail of the TFHE library's `MUX`.
    Sum(Torus32),
}

/// Records one gate call's Figure 7 split into the per-gate-kind
/// histograms: each of the call's `lanes` observes an even share of its
/// rotation and key-switch time under its own `gate(lane)` label, and
/// counts one bootstrap. Only called when telemetry is enabled.
#[cold]
fn record_gate_split(
    gate: impl Fn(usize) -> BootGate,
    lanes: usize,
    rotation: Duration,
    key_switch: Duration,
) {
    let m = pytfhe_telemetry::metrics();
    let share = |d: Duration| d.as_secs_f64() / lanes as f64;
    let (rotation, key_switch) = (share(rotation), share(key_switch));
    for lane in 0..lanes {
        let name = gate(lane).name();
        m.observe_seconds(&format!("tfhe_blind_rotate_seconds{{gate=\"{name}\"}}"), rotation);
        m.observe_seconds(&format!("tfhe_key_switch_seconds{{gate=\"{name}\"}}"), key_switch);
    }
    m.counter_add("tfhe_bootstraps_total", lanes as u64);
}

impl GateScratch {
    /// Bands `members` (scratches of one key, at most
    /// [`ServerKey::gang_width`] of them) into a gang: until each is
    /// [`GateScratch::release`]d, the thread holding `members[i]` computes
    /// member `i`'s share of every bootstrap — the TLWE polynomials and
    /// output columns `i, i + members.len(), …` of each CMUX step and a
    /// slice of the key switch — and meets its partners at a spin barrier. Every member
    /// must therefore make the same calls on the same inputs, each on its
    /// own thread, and every member's outputs receive the whole result,
    /// byte-identical to a scratch that is not banded.
    pub fn band(members: &mut [GateScratch]) {
        BootstrapScratch::band(members.iter_mut().map(|s| &mut s.boot));
    }

    /// Returns this scratch to bootstrapping alone. Releasing a member
    /// while its partners still need it aborts them: their call panics
    /// instead of waiting forever.
    pub fn release(&mut self) {
        self.boot.release();
    }
}

impl ServerKey {
    fn mu() -> Torus32 {
        Torus32::from_fraction(1, MU_LOG2_DENOM)
    }

    /// The most lanes one bootstrap splits across
    /// ([`GateScratch::band`]): one per TLWE polynomial, `k + 1`.
    pub fn gang_width(&self) -> usize {
        self.params.glwe_dim + 1
    }

    /// Allocates reusable scratch for gate evaluation (one per worker
    /// thread), with the buffers of a [`FUSE_CHUNK`]-wide call. Once it
    /// has served its widest call, every `*_into` gate and batch entry
    /// point runs with zero heap allocation; a wider call first
    /// adds one raw sample per extra lane.
    pub fn gate_scratch(&self) -> GateScratch {
        let ext_dim = self.keyswitch.src_dim();
        GateScratch {
            boot: self.bootstrap.boot_scratch_lanes(FUSE_CHUNK),
            raws: vec![LweCiphertext::trivial(Torus32::ZERO, ext_dim); FUSE_CHUNK],
            soa: LweSoa::new(self.params.lwe_dim),
        }
    }

    /// The staged-batch bootstrap kernel every bootstrapped entry point
    /// of this key is a call into. Over cache-sized chunks of
    /// [`FUSE_CHUNK`] lanes: each lane's linear combination of
    /// `gate(lane)` over `pairs[lane]` is staged into a struct-of-arrays
    /// slot, and one input-owned pass over the bootstrapping key rotates
    /// the test vector `mu = 1/8` by each slot
    /// ([`crate::bootstrap::BootstrappingKey::rotate_batch_into`]). Every
    /// raw sample of the call is kept, and one element-major pass over the
    /// key-switching key switches them all as `tail` says. With telemetry
    /// enabled, a [`Tail::Each`] call records its rotation and key-switch
    /// time ([`record_gate_split`]); a `MUX` records nothing. On a banded
    /// scratch ([`GateScratch::band`]) the rotation and the key switch
    /// compute this member's share, every member's `outs` receive the
    /// whole result, and only the first member records. Staging and
    /// rotation are *fused* per chunk, so the staged masks are still
    /// cache-resident when the rotation reads them. A lane's arithmetic
    /// does not depend on the width or the position it runs at, so every
    /// entry point is bit-exact with every other on the same inputs, and
    /// the call is allocation-free once the scratch has served a call
    /// this wide.
    ///
    /// # Panics
    ///
    /// Panics if an input is not of the key's LWE dimension
    /// ([`LweSoa::axpy`]), or `outs` does not match `tail` (one output
    /// per pair for [`Tail::Each`]; one output and a single chunk for
    /// [`Tail::Sum`]).
    fn bootstrap_staged(
        &self,
        scratch: &mut GateScratch,
        gate: impl Fn(usize) -> BootGate,
        pairs: &[(&LweCiphertext, &LweCiphertext)],
        tail: Tail,
        outs: &mut [LweCiphertext],
    ) {
        let lanes = pairs.len();
        match tail {
            Tail::Each => assert_eq!(outs.len(), lanes, "one output per lane"),
            Tail::Sum(_) => assert!(outs.len() == 1 && lanes <= FUSE_CHUNK, "one summed chunk"),
        }
        let GateScratch { boot, raws, soa } = scratch;
        if raws.len() < lanes {
            let ext_dim = self.keyswitch.src_dim();
            raws.resize_with(lanes, || LweCiphertext::trivial(Torus32::ZERO, ext_dim));
        }
        let raws = &mut raws[..lanes];
        let timed = pytfhe_telemetry::enabled() && matches!(tail, Tail::Each) && boot.leads();
        let mut rotation = Duration::ZERO;
        let mu = Self::mu();
        for (base, raws) in (0..).step_by(FUSE_CHUNK).zip(raws.chunks_mut(FUSE_CHUNK)) {
            let width = raws.len();
            soa.reset(width);
            for slot in 0..width {
                let ((offset, ca, cb), (a, b)) = (gate(base + slot).spec(), pairs[base + slot]);
                soa.set_body(slot, offset);
                soa.axpy(slot, ca, a);
                soa.axpy(slot, cb, b);
            }
            let mut inputs: [(&[Torus32], Torus32); FUSE_CHUNK] =
                [(&[][..], Torus32::ZERO); FUSE_CHUNK];
            for (slot, input) in inputs.iter_mut().take(width).enumerate() {
                *input = soa.slot(slot);
            }
            let start = timed.then(Instant::now);
            self.bootstrap.rotate_batch_into(&inputs[..width], mu, boot, raws);
            if let Some(start) = start {
                rotation += start.elapsed();
            }
        }
        let start = timed.then(Instant::now);
        match tail {
            Tail::Each => boot.key_switch_into(&self.keyswitch, raws, outs),
            Tail::Sum(offset) => {
                let (sum, rest) = raws.split_first_mut().expect("a summed call has a lane");
                sum.b += offset;
                rest.iter().for_each(|raw| sum.add_assign(raw));
                boot.key_switch_into(&self.keyswitch, std::slice::from_ref(sum), outs);
            }
        }
        if let Some(start) = start {
            record_gate_split(gate, lanes, rotation, start.elapsed());
        }
    }

    /// Evaluates one bootstrapped binary gate into `out` — a one-lane
    /// batch: linear combination, blind rotation against `mu = 1/8`, and
    /// key switch all run on `scratch`'s preallocated buffers.
    pub fn gate_into(
        &self,
        gate: BootGate,
        a: &LweCiphertext,
        b: &LweCiphertext,
        scratch: &mut GateScratch,
        out: &mut LweCiphertext,
    ) {
        self.batch_bootstrap_fused(gate, &[(a, b)], std::slice::from_mut(out), scratch);
    }

    /// Evaluates one batched kernel of a single gate kind over many input
    /// pairs — cuFHE's one-kind batch (Figure 8), and the one-lane kernel
    /// of [`ServerKey::gate_into`]; plan replay launches the mixed form,
    /// [`ServerKey::batch_bootstrap_mixed`]. Bit-exact with
    /// [`ServerKey::gate_into`] per pair, and allocation-free once the
    /// scratch has served a batch this wide.
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
        self.bootstrap_staged(scratch, |_| gate, pairs, Tail::Each, outs);
    }

    /// Evaluates one batched kernel of *mixed* gate kinds: `gates[i]`
    /// applied to `pairs[i]` into `outs[i]`.
    ///
    /// Staging heterogeneous gates through one kernel (each slot with
    /// its own gate recipe) keeps the launch count at one per wave and
    /// lane instead of one per gate kind, as the paper's CUDA graphs put
    /// mixed gates in one launch (Figure 9). It is what the backend's
    /// `TfheEngine` runs for every chunk of bootstrapping gates a plan
    /// replay dispatches. Bit-exact with the per-kind batches and with
    /// [`ServerKey::gate_into`].
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
        self.bootstrap_staged(scratch, |lane| gates[lane], pairs, Tail::Each, outs);
    }

    /// One bootstrapped binary gate into a fresh ciphertext, with
    /// caller-provided scratch.
    pub fn gate_with(
        &self,
        gate: BootGate,
        a: &LweCiphertext,
        b: &LweCiphertext,
        scratch: &mut GateScratch,
    ) -> LweCiphertext {
        let mut out = LweCiphertext::trivial(Torus32::ZERO, self.params.lwe_dim);
        self.gate_into(gate, a, b, scratch, &mut out);
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
    /// two bootstraps and one key switch:
    /// `KS(bootstrap(s AND a) + bootstrap(!s AND b) + 1/8)`.
    pub fn mux_with(
        &self,
        s: &LweCiphertext,
        a: &LweCiphertext,
        b: &LweCiphertext,
        scratch: &mut GateScratch,
    ) -> LweCiphertext {
        let (gates, tail) = ([BootGate::And, BootGate::Andny], Tail::Sum(Self::mu()));
        let mut out = LweCiphertext::trivial(Torus32::ZERO, self.params.lwe_dim);
        let outs = std::slice::from_mut(&mut out);
        self.bootstrap_staged(scratch, |l| gates[l], &[(s, a), (s, b)], tail, outs);
        out
    }

    /// Convenience allocation-per-call variants of every gate.
    pub fn nand(&self, a: &LweCiphertext, b: &LweCiphertext) -> LweCiphertext {
        self.gate_with(BootGate::Nand, a, b, &mut self.gate_scratch())
    }
    /// See [`ServerKey::gate_with`].
    pub fn and(&self, a: &LweCiphertext, b: &LweCiphertext) -> LweCiphertext {
        self.gate_with(BootGate::And, a, b, &mut self.gate_scratch())
    }
    /// See [`ServerKey::gate_with`].
    pub fn or(&self, a: &LweCiphertext, b: &LweCiphertext) -> LweCiphertext {
        self.gate_with(BootGate::Or, a, b, &mut self.gate_scratch())
    }
    /// See [`ServerKey::gate_with`].
    pub fn nor(&self, a: &LweCiphertext, b: &LweCiphertext) -> LweCiphertext {
        self.gate_with(BootGate::Nor, a, b, &mut self.gate_scratch())
    }
    /// See [`ServerKey::gate_with`].
    pub fn xor(&self, a: &LweCiphertext, b: &LweCiphertext) -> LweCiphertext {
        self.gate_with(BootGate::Xor, a, b, &mut self.gate_scratch())
    }
    /// See [`ServerKey::gate_with`].
    pub fn xnor(&self, a: &LweCiphertext, b: &LweCiphertext) -> LweCiphertext {
        self.gate_with(BootGate::Xnor, a, b, &mut self.gate_scratch())
    }
    /// See [`ServerKey::gate_with`].
    pub fn andny(&self, a: &LweCiphertext, b: &LweCiphertext) -> LweCiphertext {
        self.gate_with(BootGate::Andny, a, b, &mut self.gate_scratch())
    }
    /// See [`ServerKey::gate_with`].
    pub fn andyn(&self, a: &LweCiphertext, b: &LweCiphertext) -> LweCiphertext {
        self.gate_with(BootGate::Andyn, a, b, &mut self.gate_scratch())
    }
    /// See [`ServerKey::gate_with`].
    pub fn orny(&self, a: &LweCiphertext, b: &LweCiphertext) -> LweCiphertext {
        self.gate_with(BootGate::Orny, a, b, &mut self.gate_scratch())
    }
    /// See [`ServerKey::gate_with`].
    pub fn oryn(&self, a: &LweCiphertext, b: &LweCiphertext) -> LweCiphertext {
        self.gate_with(BootGate::Oryn, a, b, &mut self.gate_scratch())
    }
    /// See [`ServerKey::mux_with`].
    pub fn mux(&self, s: &LweCiphertext, a: &LweCiphertext, b: &LweCiphertext) -> LweCiphertext {
        self.mux_with(s, a, b, &mut self.gate_scratch())
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
    fn mixed_batch_is_bit_exact_with_scalar_gates() {
        use super::BootGate;
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
    fn a_wide_mixed_batch_is_bit_exact_with_gate_into_across_sub_chunks() {
        // Every raw of the call is key-switched in one pass after the
        // last sub-chunk's rotation: a raw landing in the wrong output
        // shows at a sub-chunk boundary.
        use super::{BootGate, FUSE_CHUNK};
        let (client, server, mut rng) = setup();
        let mut scratch = server.gate_scratch();
        for width in [FUSE_CHUNK + 1, 2 * FUSE_CHUNK + 3, 60] {
            let gates: Vec<_> =
                (0..width).map(|i| BootGate::ALL[i % BootGate::ALL.len()]).collect();
            let bits: Vec<_> = (0..width).map(|i| (i % 2 == 0, i % 3 == 0)).collect();
            let cts: Vec<_> = bits
                .iter()
                .map(|&(a, b)| (client.encrypt_bit(a, &mut rng), client.encrypt_bit(b, &mut rng)))
                .collect();
            let pairs: Vec<_> = cts.iter().map(|(a, b)| (a, b)).collect();
            let mut outs = vec![server.constant(false); width];
            server.batch_bootstrap_mixed(&gates, &pairs, &mut outs, &mut scratch);
            for (lane, ((&gate, &(a, b)), got)) in gates.iter().zip(&pairs).zip(&outs).enumerate() {
                let mut want = server.constant(false);
                server.gate_into(gate, a, b, &mut scratch, &mut want);
                assert_eq!(got, &want, "lane {lane} of {width}");
                let (x, y) = bits[lane];
                assert_eq!(client.decrypt_bit(got), gate.eval(x, y), "lane {lane} of {width}");
            }
        }
    }

    #[test]
    fn a_second_call_at_the_widest_width_allocates_nothing() {
        use super::BootGate;
        let (client, server, mut rng) = setup();
        let cts: Vec<_> = (0..60)
            .map(|i| (client.encrypt_bit(i % 2 == 0, &mut rng), client.encrypt_bit(true, &mut rng)))
            .collect();
        let pairs: Vec<_> = cts.iter().map(|(a, b)| (a, b)).collect();
        let gates: Vec<_> = (0..pairs.len()).map(|i| BootGate::ALL[i % 10]).collect();
        let mut outs = vec![server.constant(false); pairs.len()];
        let mut scratch = server.gate_scratch();
        // The warm call grows the raw samples to its width, once.
        server.batch_bootstrap_mixed(&gates, &pairs, &mut outs, &mut scratch);
        let before = crate::trace::thread_buffer_allocs();
        server.batch_bootstrap_mixed(&gates, &pairs, &mut outs, &mut scratch);
        server.batch_bootstrap_mixed(&gates[..9], &pairs[..9], &mut outs[..9], &mut scratch);
        assert_eq!(crate::trace::thread_buffer_allocs() - before, 0);
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
}
