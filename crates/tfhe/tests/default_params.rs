//! End-to-end validation of the production 128-bit parameter set — the
//! exact setting of the paper (Section II-D).
//!
//! These tests are slower than the rest of the suite (full-size key
//! generation plus real bootstraps) but prove that the default parameters
//! decrypt correctly through bootstrapped gate chains.

use pytfhe_tfhe::{BootGate, ClientKey, GateScratch, LweCiphertext, Params, SecureRng};

#[test]
fn default_128_gates_are_correct() {
    let mut rng = SecureRng::seed_from_u64(2023);
    let params = Params::default_128();
    let client = ClientKey::generate(params, &mut rng);
    let server = client.server_key(&mut rng);

    let mut scratch = server.gate_scratch();
    for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
        let ca = client.encrypt_bit(a, &mut rng);
        let cb = client.encrypt_bit(b, &mut rng);
        for gate in [BootGate::Nand, BootGate::Xor, BootGate::And] {
            let out = server.gate_with(gate, &ca, &cb, &mut scratch);
            assert_eq!(client.decrypt_bit(&out), gate.eval(a, b), "{}({a}, {b})", gate.name());
        }
    }

    // Chain gates to confirm noise stays bounded through bootstrapping.
    let one = client.encrypt_bit(true, &mut rng);
    let mut ct = client.encrypt_bit(false, &mut rng);
    let mut value = false;
    for _ in 0..8 {
        ct = server.gate_with(BootGate::Nand, &ct, &one, &mut scratch);
        value = !value;
        assert_eq!(client.decrypt_bit(&ct), value);
    }
}

#[test]
fn default_128_gate_profile_shape() {
    // Figure 7 of the paper: blind rotation dominates, key switching second.
    let mut rng = SecureRng::seed_from_u64(2024);
    let params = Params::default_128();
    let client = ClientKey::generate(params, &mut rng);
    let server = client.server_key(&mut rng);
    let a = client.encrypt_bit(true, &mut rng);
    let b = client.encrypt_bit(false, &mut rng);
    let (_, profile) = server.profile_nand(&a, &b);
    assert!(profile.blind_rotation_s > profile.key_switching_s);
    assert!(profile.key_switching_s > profile.linear_s);
}

#[test]
fn a_banded_pair_bootstraps_a_default_128_gate_bit_identically() {
    let mut rng = SecureRng::seed_from_u64(2025);
    let client = ClientKey::generate(Params::default_128(), &mut rng);
    let server = client.server_key(&mut rng);
    let (a, b) = (client.encrypt_bit(true, &mut rng), client.encrypt_bit(false, &mut rng));
    let want = server.gate_with(BootGate::Nand, &a, &b, &mut server.gate_scratch());
    let mut gang: Vec<GateScratch> =
        (0..server.gang_width()).map(|_| server.gate_scratch()).collect();
    GateScratch::band(&mut gang);
    let outs: Vec<LweCiphertext> = std::thread::scope(|s| {
        let members: Vec<_> = gang
            .iter_mut()
            .map(|scratch| s.spawn(|| server.gate_with(BootGate::Nand, &a, &b, scratch)))
            .collect();
        members.into_iter().map(|m| m.join().expect("no member panics")).collect()
    });
    gang.iter_mut().for_each(GateScratch::release);
    assert!(outs.iter().all(|out| *out == want), "every member holds the one-lane bytes");
    assert!(client.decrypt_bit(&want));
}
