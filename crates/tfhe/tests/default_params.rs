//! End-to-end validation of the production 128-bit parameter set — the
//! exact setting of the paper (Section II-D).
//!
//! These tests are slower than the rest of the suite (full-size key
//! generation plus real bootstraps) but prove that the default parameters
//! decrypt correctly through bootstrapped gate chains.

use pytfhe_telemetry as telemetry;
use pytfhe_tfhe::io::{server_key_from_bytes, server_key_to_bytes};
use pytfhe_tfhe::{BootGate, ClientKey, GateScratch, LweCiphertext, Params, SecureRng, ServerKey};
use std::sync::{PoisonError, RwLock};

/// Held for reading by every test that bootstraps, and for writing by the
/// one that counts the process-global telemetry metrics. It guards no
/// data, so a test that panicked under it leaves nothing to recover.
static TELEMETRY: RwLock<()> = RwLock::new(());

/// `gate(a, b)` into a fresh ciphertext.
fn gate_fresh(
    server: &ServerKey,
    gate: BootGate,
    a: &LweCiphertext,
    b: &LweCiphertext,
    scratch: &mut GateScratch,
) -> LweCiphertext {
    let mut out = server.constant(false);
    server.gate_into(gate, a, b, scratch, &mut out);
    out
}

#[test]
fn default_128_gates_are_correct() {
    let _shared = TELEMETRY.read().unwrap_or_else(PoisonError::into_inner);
    let mut rng = SecureRng::seed_from_u64(2023);
    let params = Params::default_128();
    let client = ClientKey::generate(params, &mut rng);
    let server = client.server_key(&mut rng);

    let mut scratch = server.gate_scratch();
    for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
        let ca = client.encrypt_bit(a, &mut rng);
        let cb = client.encrypt_bit(b, &mut rng);
        for gate in [BootGate::Nand, BootGate::Xor, BootGate::And] {
            let out = gate_fresh(&server, gate, &ca, &cb, &mut scratch);
            assert_eq!(client.decrypt_bit(&out), gate.eval(a, b), "{}({a}, {b})", gate.name());
        }
    }

    // Chain gates to confirm noise stays bounded through bootstrapping.
    let one = client.encrypt_bit(true, &mut rng);
    let mut ct = client.encrypt_bit(false, &mut rng);
    let mut value = false;
    for _ in 0..8 {
        ct = gate_fresh(&server, BootGate::Nand, &ct, &one, &mut scratch);
        value = !value;
        assert_eq!(client.decrypt_bit(&ct), value);
    }
}

#[test]
fn default_128_gate_calls_record_the_fig7_split() {
    // Figure 7 of the paper: blind rotation dominates key switching. The
    // metrics registry is process-global, so no other test bootstraps
    // while this one counts.
    let _alone = TELEMETRY.write().unwrap_or_else(PoisonError::into_inner);
    let mut rng = SecureRng::seed_from_u64(2024);
    let client = ClientKey::generate(Params::default_128(), &mut rng);
    let server = client.server_key(&mut rng);
    let a = client.encrypt_bit(true, &mut rng);
    let b = client.encrypt_bit(false, &mut rng);
    let mut scratch = server.gate_scratch();
    let mut out = server.constant(false);
    // (observations, seconds) of both phases for `nand`, and bootstraps.
    let split = || {
        let snapshot = telemetry::metrics().snapshot();
        let phase = |name: &str| {
            let h = snapshot.histograms.get(&format!("{name}{{gate=\"nand\"}}"));
            h.map_or((0, 0.0), |h| (h.count(), h.sum()))
        };
        let bootstraps = snapshot.counters.get("tfhe_bootstraps_total").copied().unwrap_or(0);
        (phase("tfhe_blind_rotate_seconds"), phase("tfhe_key_switch_seconds"), bootstraps)
    };

    telemetry::set_enabled(true);
    let before = split();
    const N: u64 = 3;
    for _ in 0..N {
        server.gate_into(BootGate::Nand, &a, &b, &mut scratch, &mut out);
    }
    let after = split();
    telemetry::set_enabled(false);

    assert!(client.decrypt_bit(&out));
    let (((br0, br0_s), (ks0, ks0_s), boot0), ((br1, br1_s), (ks1, ks1_s), boot1)) =
        (before, after);
    assert_eq!((br1 - br0, ks1 - ks0, boot1 - boot0), (N, N, N), "one observation per gate");
    let (br_s, ks_s) = (br1_s - br0_s, ks1_s - ks0_s);
    assert!(br_s > ks_s, "blind rotation ({br_s:.6} s) dominates key switching ({ks_s:.6} s)");
}

#[test]
fn a_banded_pair_bootstraps_a_default_128_gate_bit_identically() {
    let _shared = TELEMETRY.read().unwrap_or_else(PoisonError::into_inner);
    let mut rng = SecureRng::seed_from_u64(2025);
    let client = ClientKey::generate(Params::default_128(), &mut rng);
    let server = client.server_key(&mut rng);
    let (a, b) = (client.encrypt_bit(true, &mut rng), client.encrypt_bit(false, &mut rng));
    let want = gate_fresh(&server, BootGate::Nand, &a, &b, &mut server.gate_scratch());
    let mut gang: Vec<GateScratch> =
        (0..server.gang_width()).map(|_| server.gate_scratch()).collect();
    GateScratch::band(&mut gang);
    let outs: Vec<LweCiphertext> = std::thread::scope(|s| {
        let members: Vec<_> = gang
            .iter_mut()
            .map(|scratch| s.spawn(|| gate_fresh(&server, BootGate::Nand, &a, &b, scratch)))
            .collect();
        members.into_iter().map(|m| m.join().expect("no member panics")).collect()
    });
    gang.iter_mut().for_each(GateScratch::release);
    assert!(outs.iter().all(|out| *out == want), "every member holds the one-lane bytes");
    assert!(client.decrypt_bit(&want));
}

#[test]
fn every_gate_is_correct_under_a_decoded_default_128_key() {
    let _shared = TELEMETRY.read().unwrap_or_else(PoisonError::into_inner);
    // The key the server runs on is the one it decodes: masks regenerated
    // from the seed, spectra recomputed on this host.
    let mut rng = SecureRng::seed_from_u64(2026);
    let client = ClientKey::generate(Params::default_128(), &mut rng);
    let bytes = server_key_to_bytes(&client.server_key(&mut rng));
    let server = server_key_from_bytes(&bytes).expect("a fresh key decodes");
    let mut scratch = server.gate_scratch();
    for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
        let (ca, cb) = (client.encrypt_bit(a, &mut rng), client.encrypt_bit(b, &mut rng));
        for gate in BootGate::ALL {
            let out = gate_fresh(&server, gate, &ca, &cb, &mut scratch);
            assert_eq!(client.decrypt_bit(&out), gate.eval(a, b), "{}({a}, {b})", gate.name());
        }
    }
}
