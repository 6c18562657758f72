//! Multi-valued message encoding and homomorphic lookup tables on top of
//! programmable bootstrapping — the "arbitrary lookup-table operation"
//! the paper highlights as TFHE's distinguishing primitive
//! (Section II-B).
//!
//! Messages `m ∈ [0, 2^p)` are encoded at the torus positions
//! `(m + 0.5) / 2^(p+1)`, i.e. packed into the positive half-torus. That
//! sidesteps the negacyclic wrap of blind rotation (inputs never cross
//! the half-torus boundary), so *any* table `[0, 2^p) → [0, 2^p)` can be
//! evaluated, not just negacyclic-symmetric ones.
//!
//! Two consumers build on this module:
//!
//! * the `pytfhe-shortint` crate, which layers an exact integer API
//!   (message + carry space, bivariate ops via message-shift packing)
//!   over [`ServerKey::apply_lut_into`], and
//! * the netlist LUT-cover pass, which replaces fanout-free gate cones
//!   with width-`w ≤ 4` boolean LUTs evaluated through
//!   [`ServerKey::boolean_lut_into`]: each boolean wire rides the
//!   message encoding at a circuit-wide precision `q ≥ w`, the packing
//!   `Σ 2^i·xᵢ` lands the cone's input pattern on a message window, and
//!   one programmable bootstrap evaluates the whole cone.

use crate::bootstrap::{BootstrappingKey, TestVector};
use crate::gates::{GateScratch, Tail, UNOBSERVED};
use crate::keys::{ClientKey, ServerKey};
use crate::lwe::LweCiphertext;
use crate::poly::TorusPoly;
use crate::torus::Torus32;
use crate::SecureRng;

/// Encodes message `m` of `precision_bits` at `(m + 0.5) / 2^(p+1)`.
pub fn encode_message(m: u32, precision_bits: u32) -> Torus32 {
    debug_assert!(m < (1 << precision_bits), "message out of range");
    Torus32::from_f64((f64::from(m) + 0.5) / f64::from(1u32 << (precision_bits + 1)))
}

/// Decodes a torus phase back to the nearest message: message `m` owns
/// the window `[m, m+1) / 2^(p+1)` and is encoded at its centre, so
/// flooring the phase to the window index recovers it.
pub fn decode_message(phase: Torus32, precision_bits: u32) -> u32 {
    let idx = phase.0 >> (32 - (precision_bits + 1));
    idx.min((1 << precision_bits) - 1)
}

impl ClientKey {
    /// Encrypts a multi-valued message `m < 2^precision_bits`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range or the precision exceeds 8 bits
    /// (beyond which the default parameters cannot decode reliably).
    /// Shortint keygen performs the analytical admission check
    /// ([`crate::NoiseGuard::admit_lut`]) up front, so precisions the
    /// parameter set cannot decode are refused with a typed error
    /// before any encryption happens.
    pub fn encrypt_message(
        &self,
        m: u32,
        precision_bits: u32,
        rng: &mut SecureRng,
    ) -> LweCiphertext {
        assert!((1..=8).contains(&precision_bits), "1..=8 bits of precision");
        assert!(m < (1 << precision_bits), "message {m} out of range");
        self.lwe_key().encrypt(
            encode_message(m, precision_bits),
            self.params().lwe_noise_stdev,
            rng,
        )
    }

    /// Decrypts a multi-valued message.
    pub fn decrypt_message(&self, ct: &LweCiphertext, precision_bits: u32) -> u32 {
        decode_message(self.lwe_key().phase(ct), precision_bits)
    }
}

/// The plaintext offset placing a packed linear combination of messages
/// back on a window centre: `Σ cᵢ · e_p(mᵢ) = (Σ cᵢ·mᵢ + Σ cᵢ/2) /
/// 2^(p+1)`, so adding `(1 − Σ cᵢ) / 2^(p+2)` recenters the sum at
/// `e_p(Σ cᵢ·mᵢ)`. Exact (dyadic) for every coefficient vector.
fn pack_offset(precision_bits: u32, coeff_sum: i32) -> Torus32 {
    Torus32::from_fraction(1 - coeff_sum, precision_bits + 2)
}

/// Per-worker cache of compiled boolean-LUT test vectors, keyed by
/// `(width, precision, table)`. Netlists reuse a handful of distinct
/// tables across thousands of nodes, so a linear scan over the compiled
/// set beats hashing; entries are built on first sight and live for the
/// scratch's lifetime.
#[derive(Debug, Default)]
pub struct PackedLutTables {
    entries: Vec<(u32, u32, u16, TorusPoly)>,
}

impl PackedLutTables {
    /// An empty cache.
    pub fn new() -> Self {
        PackedLutTables::default()
    }

    /// Number of compiled test vectors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no compiled vectors yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The compiled test vector for a boolean LUT, building (and
    /// caching) it on first sight.
    pub fn get_or_build(
        &mut self,
        bk: &BootstrappingKey,
        width: u32,
        precision: u32,
        table: u16,
    ) -> &TorusPoly {
        if self.lookup(width, precision, table).is_none() {
            let entries: Vec<u32> = (0..1u32 << width).map(|m| u32::from(table >> m) & 1).collect();
            let tv = build_test_vector(bk, &entries, precision);
            self.entries.push((width, precision, table, tv));
        }
        self.lookup(width, precision, table).expect("compiled just above")
    }

    /// Looks up an already-compiled test vector.
    fn lookup(&self, width: u32, precision: u32, table: u16) -> Option<&TorusPoly> {
        self.entries.iter().find(|e| e.0 == width && e.1 == precision && e.2 == table).map(|e| &e.3)
    }
}

#[cold]
fn record_lut_bootstraps(count: u64) {
    pytfhe_telemetry::metrics().counter_add("tfhe_lut_bootstraps_total", count);
}

impl ServerKey {
    /// Homomorphically evaluates `table[m]` on an encrypted message
    /// (with noise reset, like every bootstrap). The result uses the same
    /// message encoding, so LUTs chain indefinitely.
    ///
    /// Allocates fresh scratch per call; the hot path is
    /// [`ServerKey::apply_lut_into`].
    ///
    /// # Panics
    ///
    /// Panics if the table length is not `2^precision_bits` or any entry
    /// is out of range.
    pub fn apply_lut(
        &self,
        ct: &LweCiphertext,
        table: &[u32],
        precision_bits: u32,
    ) -> LweCiphertext {
        let mut scratch = self.gate_scratch();
        let mut out = LweCiphertext::trivial(Torus32::ZERO, self.params.lwe_dim);
        self.apply_lut_into(ct, table, precision_bits, &mut scratch, &mut out);
        out
    }

    /// Scratch-reusing [`ServerKey::apply_lut`]: the test vector is
    /// rendered into the scratch's preallocated buffer and carried
    /// through the staged-batch kernel as a one-lane batch — zero heap
    /// allocation after the scratch's first use. This is the hot-path
    /// API behind every shortint operation.
    ///
    /// # Panics
    ///
    /// Panics if the table length is not `2^precision_bits` or any entry
    /// is out of range.
    pub fn apply_lut_into(
        &self,
        ct: &LweCiphertext,
        table: &[u32],
        precision_bits: u32,
        scratch: &mut GateScratch,
        out: &mut LweCiphertext,
    ) {
        let m_count = 1usize << precision_bits;
        assert_eq!(table.len(), m_count, "table must have 2^p entries");
        assert!(table.iter().all(|&v| v < m_count as u32), "table entry out of range");
        let GateScratch { lanes, tv_buf, .. } = scratch;
        render_test_vector(tv_buf, self.params.poly_size, table, precision_bits);
        let tv_buf = &*tv_buf;
        self.bootstrap_staged(
            lanes,
            1,
            |_, soa, slot| {
                soa.axpy(slot, 1, ct);
                TestVector::Poly(tv_buf)
            },
            Tail::Each,
            std::slice::from_mut(out),
            UNOBSERVED,
        );
        if pytfhe_telemetry::enabled() {
            record_lut_bootstraps(1);
        }
    }

    /// Packs a linear combination of message-encoded ciphertexts into
    /// `out`, recentred so the packed value decodes at `precision_bits`:
    /// `out = e_p(Σ cᵢ·mᵢ)` (plus the combined noise). The shortint
    /// bivariate ops stage `lhs · 2^m + rhs` through this; the netlist
    /// LUT engines stage `Σ 2^i · xᵢ`.
    pub fn pack_messages_into(
        &self,
        precision_bits: u32,
        terms: &[(i32, &LweCiphertext)],
        out: &mut LweCiphertext,
    ) {
        let coeff_sum: i32 = terms.iter().map(|t| t.0).sum();
        out.assign_trivial(pack_offset(precision_bits, coeff_sum), self.params.lwe_dim);
        for &(coeff, ct) in terms {
            // Wrapping multiply-accumulate: bit-identical to `|coeff|`
            // repeated additions/subtractions mod 2^32.
            crate::simd::kernels().axpy(out.mask_mut(), coeff, ct.mask());
            out.b += coeff * ct.body();
        }
    }

    /// Evaluates a width-`w` boolean LUT in one programmable bootstrap:
    /// `ins[..w]` are boolean wires riding the message encoding at
    /// `precision ≥ w` bits, packed as `Σ 2^i·xᵢ`, and bit `j` of
    /// `table` is the cone's output for input pattern `j`. The output
    /// is a boolean message at the same precision, so LUTs chain. A
    /// one-item [`ServerKey::boolean_lut_batch_into`].
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0, exceeds 4 or `precision`, or `ins` holds
    /// fewer than `width` ciphertexts.
    pub fn boolean_lut_into(
        &self,
        width: u32,
        precision: u32,
        table: u16,
        ins: &[&LweCiphertext],
        scratch: &mut GateScratch,
        out: &mut LweCiphertext,
    ) {
        assert!((1..=4).contains(&width), "bad LUT width {width}");
        assert!(ins.len() >= width as usize, "LUT needs {width} inputs");
        let padded = std::array::from_fn(|i| ins[i.min(width as usize - 1)]);
        let item = [(table, padded)];
        self.boolean_lut_batch_into(width, precision, &item, std::slice::from_mut(out), scratch);
    }

    /// Evaluates a batch of same-width boolean LUTs through the
    /// staged-batch kernel — one pass over the bootstrapping key per
    /// [`FUSE_CHUNK`](crate::FUSE_CHUNK)-slot chunk, each lane carrying
    /// its own lookup table, compiled once per worker and cached in the
    /// scratch.
    ///
    /// # Panics
    ///
    /// Panics on width/precision violations or `items`/`outs` length
    /// mismatch.
    pub fn boolean_lut_batch_into(
        &self,
        width: u32,
        precision: u32,
        items: &[(u16, [&LweCiphertext; 4])],
        outs: &mut [LweCiphertext],
        scratch: &mut GateScratch,
    ) {
        assert!((1..=4).contains(&width) && width <= precision, "bad LUT width {width}");
        assert_eq!(items.len(), outs.len(), "boolean_lut_batch_into: items/outs mismatch");
        let GateScratch { lanes, luts, .. } = scratch;
        // Compile every distinct table before staging, so the kernel
        // below only takes immutable cache lookups.
        for (table, _) in items {
            luts.get_or_build(&self.bootstrap, width, precision, *table);
        }
        let luts = &*luts;
        let offset = pack_offset(precision, (1 << width) - 1);
        self.bootstrap_staged(
            lanes,
            items.len(),
            |lane, soa, slot| {
                let (table, ins) = &items[lane];
                soa.set_body(slot, offset);
                for (i, ct) in ins.iter().take(width as usize).enumerate() {
                    soa.axpy(slot, 1 << i, ct);
                }
                TestVector::Poly(luts.lookup(width, precision, *table).expect("compiled above"))
            },
            Tail::Each,
            outs,
            UNOBSERVED,
        );
        if pytfhe_telemetry::enabled() {
            record_lut_bootstraps(items.len() as u64);
        }
    }

    /// Message-encoded boolean NOT — affine, no bootstrap: encodings
    /// satisfy `e_p(0) + e_p(1) = 1/2^p`, so `NOT(x) = 1/2^p − x`
    /// exactly (noise is negated, not grown).
    pub fn message_not_into(&self, precision: u32, a: &LweCiphertext, out: &mut LweCiphertext) {
        out.assign_trivial(Torus32::from_fraction(1, precision), self.params.lwe_dim);
        out.sub_assign(a);
    }

    /// A trivial (noiseless) message-encoded constant.
    pub fn message_constant_into(&self, m: u32, precision: u32, out: &mut LweCiphertext) {
        out.assign_trivial(encode_message(m, precision), self.params.lwe_dim);
    }
}

/// Builds the blind-rotation test vector for a message table: phase
/// window `j` (of `2N` positions; only the first `N` are reachable by
/// valid encodings) holds the encoding of the table entry whose message
/// window contains `j`. A table shorter than `2^p` entries covers the
/// low windows and clamps above — the boolean-LUT packing only ever
/// lands on the covered windows.
pub fn build_test_vector(bk: &BootstrappingKey, table: &[u32], precision_bits: u32) -> TorusPoly {
    let mut tv = TorusPoly::zero(bk.params().poly_size);
    render_test_vector(&mut tv, bk.params().poly_size, table, precision_bits);
    tv
}

/// Allocation-free body of [`build_test_vector`], rendering into a
/// caller-owned buffer.
fn render_test_vector(tv: &mut TorusPoly, n: usize, table: &[u32], precision_bits: u32) {
    debug_assert_eq!(tv.len(), n);
    let steps = 1usize << (precision_bits + 1);
    let window = 2 * n / steps; // phase positions per message
    assert!(window >= 1, "ring too small for this precision");
    for j in 0..n {
        let m = (j / window).min(table.len() - 1);
        tv.coeffs_mut()[j] = encode_message(table[m], precision_bits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Params;

    fn setup() -> (ClientKey, ServerKey, SecureRng) {
        let mut rng = SecureRng::seed_from_u64(4242);
        let client = ClientKey::generate(Params::testing(), &mut rng);
        let server = client.server_key(&mut rng);
        (client, server, rng)
    }

    fn setup_shortint() -> (ClientKey, ServerKey, SecureRng) {
        let mut rng = SecureRng::seed_from_u64(4243);
        let client = ClientKey::generate(Params::testing_shortint(), &mut rng);
        let server = client.server_key(&mut rng);
        (client, server, rng)
    }

    #[test]
    fn message_encode_decode_round_trip() {
        let (client, _server, mut rng) = setup();
        for p in [1u32, 2, 3] {
            for m in 0..(1u32 << p) {
                let ct = client.encrypt_message(m, p, &mut rng);
                assert_eq!(client.decrypt_message(&ct, p), m, "p={p} m={m}");
            }
        }
    }

    #[test]
    fn identity_lut_preserves_messages() {
        let (client, server, mut rng) = setup();
        let p = 2;
        let table: Vec<u32> = (0..4).collect();
        for m in 0..4 {
            let ct = client.encrypt_message(m, p, &mut rng);
            let out = server.apply_lut(&ct, &table, p);
            assert_eq!(client.decrypt_message(&out, p), m, "m={m}");
        }
    }

    #[test]
    fn arbitrary_lut_is_applied() {
        let (client, server, mut rng) = setup();
        let p = 2;
        // x -> x^2 mod 4 and a non-monotone permutation.
        for table in [vec![0u32, 1, 0, 1], vec![2u32, 0, 3, 1]] {
            for m in 0..4u32 {
                let ct = client.encrypt_message(m, p, &mut rng);
                let out = server.apply_lut(&ct, &table, p);
                assert_eq!(
                    client.decrypt_message(&out, p),
                    table[m as usize],
                    "table {table:?}, m={m}"
                );
            }
        }
    }

    #[test]
    fn luts_chain_with_noise_reset() {
        let (client, server, mut rng) = setup();
        let p = 2;
        let increment: Vec<u32> = (0..4).map(|x| (x + 1) % 4).collect();
        let mut ct = client.encrypt_message(0, p, &mut rng);
        for step in 1..=12u32 {
            ct = server.apply_lut(&ct, &increment, p);
            assert_eq!(client.decrypt_message(&ct, p), step % 4, "step {step}");
        }
    }

    #[test]
    fn apply_lut_into_is_bit_exact_with_apply_lut_and_allocation_free() {
        let (client, server, mut rng) = setup();
        let p = 2;
        let table = [2u32, 0, 3, 1];
        let mut scratch = server.gate_scratch();
        let mut out = LweCiphertext::trivial(Torus32::ZERO, server.params().lwe_dim);
        for m in 0..4u32 {
            let ct = client.encrypt_message(m, p, &mut rng);
            let want = server.apply_lut(&ct, &table, p);
            server.apply_lut_into(&ct, &table, p, &mut scratch, &mut out);
            assert_eq!(out, want, "m={m}: scratch path diverged");
        }
        // Warm, then the steady state never touches the allocator.
        let ct = client.encrypt_message(1, p, &mut rng);
        server.apply_lut_into(&ct, &table, p, &mut scratch, &mut out);
        let before = crate::trace::thread_buffer_allocs();
        server.apply_lut_into(&ct, &table, p, &mut scratch, &mut out);
        assert_eq!(crate::trace::thread_buffer_allocs() - before, 0);
    }

    #[test]
    fn boolean_luts_evaluate_gate_cones() {
        let (client, server, mut rng) = setup_shortint();
        let mut scratch = server.gate_scratch();
        let mut out = LweCiphertext::trivial(Torus32::ZERO, server.params().lwe_dim);
        // Width 2 at precision 2: XOR (table 0b0110) and NAND (0b0111).
        for (table, oracle) in
            [(0b0110u16, [false, true, true, false]), (0b0111, [true, true, true, false])]
        {
            for pattern in 0..4u32 {
                let x0 = client.encrypt_message(pattern & 1, 2, &mut rng);
                let x1 = client.encrypt_message((pattern >> 1) & 1, 2, &mut rng);
                server.boolean_lut_into(2, 2, table, &[&x0, &x1], &mut scratch, &mut out);
                let got = client.decrypt_message(&out, 2);
                assert_eq!(got, u32::from(oracle[pattern as usize]), "table {table:#b} {pattern}");
            }
        }
        // Width 3 at precision 3: a full-adder carry cone
        // (maj(a,b,c)), table bit j = popcount(j) >= 2.
        let maj: u16 = (0..8).fold(0, |t, j: u16| t | (u16::from(j.count_ones() >= 2) << j));
        for pattern in 0..8u32 {
            let bits: Vec<LweCiphertext> =
                (0..3).map(|i| client.encrypt_message((pattern >> i) & 1, 3, &mut rng)).collect();
            let ins: Vec<&LweCiphertext> = bits.iter().collect();
            server.boolean_lut_into(3, 3, maj, &ins, &mut scratch, &mut out);
            assert_eq!(
                client.decrypt_message(&out, 3),
                u32::from(pattern.count_ones() >= 2),
                "maj({pattern:03b})"
            );
        }
    }

    #[test]
    fn batched_boolean_luts_are_bit_exact_with_scalar_path() {
        let (client, server, mut rng) = setup_shortint();
        let mut scratch = server.gate_scratch();
        // A ragged batch (> FUSE_CHUNK) of width-2 LUTs with mixed
        // tables, exercising the per-lane test vectors.
        let tables = [0b0110u16, 0b0111, 0b1000, 0b0110, 0b1110, 0b0001, 0b0110, 0b1001, 0b0111];
        let cts: Vec<(LweCiphertext, LweCiphertext)> = (0..tables.len())
            .map(|i| {
                (
                    client.encrypt_message(u32::from(i % 2 == 0), 2, &mut rng),
                    client.encrypt_message(u32::from(i % 3 == 0), 2, &mut rng),
                )
            })
            .collect();
        let items: Vec<(u16, [&LweCiphertext; 4])> =
            tables.iter().zip(&cts).map(|(&t, (a, b))| (t, [a, b, a, a])).collect();
        let mut want = Vec::new();
        let mut out = LweCiphertext::trivial(Torus32::ZERO, server.params().lwe_dim);
        for (table, ins) in &items {
            server.boolean_lut_into(2, 2, *table, &ins[..2], &mut scratch, &mut out);
            want.push(out.clone());
        }
        let mut outs =
            vec![LweCiphertext::trivial(Torus32::ZERO, server.params().lwe_dim); items.len()];
        server.boolean_lut_batch_into(2, 2, &items, &mut outs, &mut scratch);
        assert_eq!(outs, want, "batched LUT lanes must match the scalar path bit-exactly");
        for (i, ((&t, _), ct)) in tables.iter().zip(&cts).zip(&outs).enumerate() {
            let (a, b) = (i % 2 == 0, i % 3 == 0);
            let idx = usize::from(a) | (usize::from(b) << 1);
            assert_eq!(client.decrypt_message(ct, 2), u32::from(t >> idx) & 1, "lane {i}");
        }
    }

    #[test]
    fn message_not_and_constant_are_exact_affine_ops() {
        let (client, server, mut rng) = setup_shortint();
        let mut out = LweCiphertext::trivial(Torus32::ZERO, server.params().lwe_dim);
        for p in [2u32, 3, 4] {
            for bit in [0u32, 1] {
                let ct = client.encrypt_message(bit, p, &mut rng);
                server.message_not_into(p, &ct, &mut out);
                assert_eq!(client.decrypt_message(&out, p), 1 - bit, "not p={p} bit={bit}");
                server.message_constant_into(bit, p, &mut out);
                assert_eq!(client.decrypt_message(&out, p), bit, "const p={p} bit={bit}");
            }
        }
    }

    #[test]
    fn packed_lut_cache_compiles_each_table_once() {
        let (_client, server, _rng) = setup();
        let mut cache = PackedLutTables::new();
        let bk = server.bootstrapping_key();
        cache.get_or_build(bk, 2, 2, 0b0110);
        cache.get_or_build(bk, 2, 2, 0b0111);
        cache.get_or_build(bk, 2, 2, 0b0110);
        assert_eq!(cache.len(), 2);
        // Same table at another precision is a distinct vector.
        cache.get_or_build(bk, 2, 3, 0b0110);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    #[should_panic(expected = "table must have 2^p entries")]
    fn wrong_table_size_panics() {
        let (client, server, mut rng) = setup();
        let ct = client.encrypt_message(0, 2, &mut rng);
        let _ = server.apply_lut(&ct, &[0, 1, 2], 2);
    }
}
