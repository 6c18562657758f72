//! Bit stability of the bootstrapped gates across refactors of the
//! bootstrap kernel.
//!
//! Under the golden server key and the golden ciphertexts of
//! `tests/golden/`, a bootstrapped gate is a pure function of bytes on
//! disk, and the torus-domain contract of `pytfhe_tfhe::simd` makes its
//! output independent of the SIMD tier. The CRC32C of every gate kind's
//! serialized output was first captured through `gate_into` at the commit
//! before the single, batched and mixed paths were folded into one
//! staged-batch kernel, under the full (v3) golden key. When the key
//! became seeded (v4), the v3 key still reproduced those CRCs under the
//! new code — the kernel had not moved — and these are the CRCs of the
//! same gates under the v4 golden key, which is a different key. Every
//! entry point built on that kernel has to reproduce them, on every tier
//! the host can run. This file is its own test binary because it
//! re-points the process-global SIMD dispatch.

use pytfhe_tfhe::io::{ciphertext_from_bytes, ciphertext_to_bytes, server_key_from_bytes};
use pytfhe_tfhe::simd::{self, SimdPath};
use pytfhe_tfhe::{BootGate, LweCiphertext, ServerKey, FUSE_CHUNK};
use pytfhe_wire::crc32c;

/// `crc32c(ciphertext_to_bytes(gate(true, false)))` for each of
/// [`BootGate::ALL`], in that order.
const GATE_CRCS: [u32; 10] = [
    0xeb73_ea79,
    0x09c3_c19a,
    0x376f_05fd,
    0x071f_cb42,
    0xab3e_901e,
    0x10e0_1c4b,
    0x07eb_9d82,
    0x9a13_6078,
    0xb0c1_182d,
    0x24a6_cc00,
];

/// The same for `mux(true, true, false)`.
const MUX_CRC: u32 = 0xf00a_b264;

fn golden(name: &str) -> Vec<u8> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("missing golden fixture {path:?}: {e}"))
}

fn crc(server: &ServerKey, ct: &LweCiphertext) -> u32 {
    crc32c(&ciphertext_to_bytes(ct, server.params()))
}

#[test]
fn every_gate_entry_point_reproduces_the_frozen_ciphertexts_on_every_simd_path() {
    let server = server_key_from_bytes(&golden("server_key_testing_v4.bin")).unwrap();
    let (a, _) = ciphertext_from_bytes(&golden("ciphertext_true_v1.bin")).unwrap();
    let (b, _) = ciphertext_from_bytes(&golden("ciphertext_false_v1.bin")).unwrap();
    let mut scratch = server.gate_scratch();
    let restore = simd::active_path();
    for path in SimdPath::ALL.into_iter().filter(|p| p.is_supported()) {
        assert!(simd::set_active_path(path));
        for (gate, want) in BootGate::ALL.into_iter().zip(GATE_CRCS) {
            let mut out = server.constant(false);
            server.gate_into(gate, &a, &b, &mut scratch, &mut out);
            assert_eq!(crc(&server, &out), want, "gate_into {} on {path}", gate.name());
            for width in 1..=FUSE_CHUNK {
                let pairs = vec![(&a, &b); width];
                let mut outs = vec![server.constant(false); width];
                server.batch_bootstrap_fused(gate, &pairs, &mut outs, &mut scratch);
                for (lane, out) in outs.iter().enumerate() {
                    let name = gate.name();
                    assert_eq!(crc(&server, out), want, "fused {name} {lane}/{width} on {path}");
                }
            }
        }
        // All ten kinds in one launch: more than one chunk, every lane
        // with its own recipe.
        let pairs = vec![(&a, &b); BootGate::ALL.len()];
        let mut outs = vec![server.constant(false); pairs.len()];
        server.batch_bootstrap_mixed(&BootGate::ALL, &pairs, &mut outs, &mut scratch);
        let got: Vec<u32> = outs.iter().map(|ct| crc(&server, ct)).collect();
        assert_eq!(got, GATE_CRCS, "batch_bootstrap_mixed on {path}");
        assert_eq!(crc(&server, &server.mux(&a, &a, &b)), MUX_CRC, "mux on {path}");
    }
    simd::set_active_path(restore);
}
