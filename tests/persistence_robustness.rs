//! Persistence robustness: golden fixtures and randomized corruption
//! across every serialized format.
//!
//! The golden files in `tests/golden/` freeze the byte layouts this
//! repo reads (see the README there). These tests prove three things:
//!
//! 1. **Format stability** — the `*_wire.bin` fixtures and the seeded
//!    (v4) server key decode and re-encode byte-for-byte, pinning the
//!    envelope layout itself, and the decoded artifacts still *work* (the
//!    golden server key evaluates a NAND truth table against the golden
//!    ciphertexts).
//! 2. **One layout per artifact** — the pre-envelope layouts (`TFS\x02`
//!    and `TFS\x01` keys, `PTKG` plans, bare `PTCK` checkpoints) are
//!    refused with the typed wire error, like any other bytes that are
//!    not an envelope, and the full (v3) server key with the typed
//!    version error.
//! 3. **Corruption safety** — randomized truncations and bit flips of
//!    any fixture produce a typed error; no panics, no garbage.

use proptest::prelude::*;
use pytfhe::pytfhe_backend::checkpoint::fnv1a;
use pytfhe::pytfhe_backend::{
    capture, execute, execute_resilient, CaptureConfig, Checkpoint, CheckpointStore, DiskStore,
    ExecError, KernelGraph, KernelPlan, MemoryCheckpointStore, NoFaults, PlainEngine,
    ResilientConfig, TfheEngine,
};
use pytfhe::pytfhe_netlist::{GateKind, Netlist};
use pytfhe::{Client, NoiseGuard, Server};
use pytfhe_telemetry as telemetry;
use pytfhe_tfhe::io::{
    ciphertext_from_bytes, client_key_from_bytes, server_key_from_bytes, server_key_to_bytes,
};
use pytfhe_tfhe::{Params, SecureRng, TfheError};
use pytfhe_wire::{Format, WireError};

/// The `SecureRng` seed that derives the v4 golden server key from the
/// golden client key.
const SERVER_KEY_SEED: u64 = 0x601DE5;

fn golden(name: &str) -> Vec<u8> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("missing golden fixture {path:?}: {e}"))
}

fn nand_netlist() -> Netlist {
    let mut nl = Netlist::new();
    let a = nl.add_input();
    let b = nl.add_input();
    let g = nl.add_gate(GateKind::Nand, a, b).unwrap();
    nl.mark_output(g).unwrap();
    nl
}

/// The decoded key material still computes: a NAND truth table
/// evaluated homomorphically under the golden server key, on the golden
/// ciphertexts, decrypted with the golden client key.
#[test]
fn golden_key_still_computes_nand_on_the_golden_ciphertexts() {
    let client_key = client_key_from_bytes(&golden("client_key_testing_v1.bin")).unwrap();
    let server_key = server_key_from_bytes(&golden("server_key_testing_v4.bin")).unwrap();

    let (ct_true, ct_params) = ciphertext_from_bytes(&golden("ciphertext_true_v1.bin")).unwrap();
    let (ct_false, _) = ciphertext_from_bytes(&golden("ciphertext_false_v1.bin")).unwrap();
    assert_eq!(ct_params, *client_key.params());
    assert!(client_key.decrypt_bit(&ct_true));
    assert!(!client_key.decrypt_bit(&ct_false));

    let nl = nand_netlist();
    let engine = TfheEngine::new(&server_key);
    for (a, b, want) in [(true, true, false), (true, false, true), (false, false, true)] {
        let pick = |v| if v { ct_true.clone() } else { ct_false.clone() };
        let (out, _) = execute(&engine, &nl, &[pick(a), pick(b)]).unwrap();
        assert_eq!(client_key.decrypt_bit(&out[0]), want, "NAND({a},{b})");
    }
}

/// The layouts written before the envelope existed, rebuilt here around
/// the bodies of the wire fixtures (the bodies did not change when the
/// envelope arrived, so these are byte for byte the files the deleted
/// readers accepted): every decoder refuses every one of them with the
/// wire error — never an `Ok`, never a panic.
#[test]
fn pre_envelope_layouts_are_refused_with_the_wire_error() {
    let payload = |name: &str| pytfhe_wire::decode(&golden(name)).unwrap().payload.to_vec();
    let key = payload("server_key_testing_wire.bin");
    let section = |tag| pytfhe_wire::find_section(&key, tag).unwrap();
    // magic (a little-endian u32), params id, bootstrap body, key-switch body.
    let key_body = [section(1), section(2), section(3)].concat();
    let tfs2 = [b"\x02SFT".as_ref(), &key_body].concat();
    let tfs1 = [b"\x01SFT".as_ref(), &key_body].concat();
    // magic, version byte, body.
    let ptkg = [b"PTKG\x01".as_ref(), &payload("kernel_plan_wire.bin")].concat();
    // magic and version (little-endian u32s), body, trailing FNV-1a.
    let mut ptck =
        [b"KCTP".as_ref(), &1u32.to_le_bytes(), &payload("checkpoint_wire.bin")].concat();
    let sum = fnv1a(&ptck);
    ptck.extend_from_slice(&sum.to_le_bytes());

    for (name, bytes) in [("TFS\\x02", tfs2), ("TFS\\x01", tfs1), ("PTKG", ptkg), ("PTCK", ptck)] {
        assert!(
            matches!(server_key_from_bytes(&bytes), Err(TfheError::Wire(_))),
            "{name} as a server key"
        );
        assert!(
            matches!(KernelPlan::from_bytes(&bytes), Err(ExecError::Wire(_))),
            "{name} as a plan"
        );
        assert!(
            matches!(Checkpoint::from_bytes(&bytes), Err(ExecError::Wire(_))),
            "{name} as a checkpoint"
        );
    }
}

/// The full-key layout the seeded key replaced: the v3 fixture is an
/// intact envelope whose payload version is no longer read, so it is
/// refused with the typed version error — never misread as v4 — and so is
/// every truncation of it.
#[test]
fn the_v3_server_key_is_refused_with_the_version_error() {
    let v3 = golden("server_key_testing_wire.bin");
    assert_eq!(pytfhe_wire::decode(&v3).unwrap().version, 3, "the fixture is intact");
    assert_eq!(
        server_key_from_bytes(&v3).unwrap_err(),
        TfheError::Wire(WireError::UnsupportedVersion { format: Format::ServerKey, version: 3 })
    );
    assert_truncations_fail("server_key_testing_wire.bin", &|b| server_key_from_bytes(b).is_ok());
}

/// The v4 fixture was derived from the golden client key under
/// `SecureRng` seed [`SERVER_KEY_SEED`] by a generator that drew every
/// row's noise, in row order, from that one stream. Each row now draws its
/// noise from its own stream under a secret noise seed drawn right after
/// the mask seed, so the derivation gives another key, pinned here by its
/// CRC32C. It is the fixture's key up to noise: the same parameters and
/// mask seed — so the same masks — and bodies that differ from the
/// fixture's by two fresh noise samples at most, far below 2⁻¹² of the
/// torus. The fixture itself still decodes and computes
/// (`golden_key_still_computes_nand_on_the_golden_ciphertexts`).
#[test]
fn the_golden_client_key_under_the_documented_seed_derives_the_pinned_key() {
    let client_key = client_key_from_bytes(&golden("client_key_testing_v1.bin")).unwrap();
    let mut rng = SecureRng::seed_from_u64(SERVER_KEY_SEED);
    let derived = server_key_to_bytes(&client_key.server_key(&mut rng));
    assert_eq!(pytfhe_wire::crc32c(&derived), 0x7aaa_5c5b);

    let fixture = golden("server_key_testing_v4.bin");
    let sections = |bytes: &[u8]| -> Vec<(u16, Vec<u8>)> {
        let payload = pytfhe_wire::decode(bytes).unwrap().payload;
        pytfhe_wire::sections(payload).map(|s| s.map(|(t, b)| (t, b.to_vec())).unwrap()).collect()
    };
    let (derived, fixture) = (sections(&derived), sections(&fixture));
    assert_eq!(derived[..2], fixture[..2], "parameter id and mask seed");
    for ((tag, new), (_, old)) in derived[2..].iter().zip(&fixture[2..]) {
        assert_eq!(new.len(), old.len(), "section {tag}");
        let words = |b: &[u8]| -> Vec<i32> {
            b.chunks_exact(4).map(|w| i32::from_le_bytes(w.try_into().unwrap())).collect()
        };
        let gap = words(new).into_iter().zip(words(old)).map(|(n, o)| n.wrapping_sub(o));
        let gap = gap.map(i32::unsigned_abs).max().unwrap();
        assert!(gap < 1 << 20, "section {tag}: bodies differ by {gap}, more than noise");
    }
}

/// The envelope layout is pinned: decoding a `*_wire.bin` fixture or the
/// v4 server key and re-encoding it must reproduce the file
/// byte-for-byte.
#[test]
fn wire_goldens_reencode_byte_identically() {
    let key_bytes = golden("server_key_testing_v4.bin");
    let key = server_key_from_bytes(&key_bytes).unwrap();
    assert_eq!(server_key_to_bytes(&key).to_vec(), key_bytes);

    let plan_bytes = golden("kernel_plan_wire.bin");
    let plan = KernelPlan::from_bytes(&plan_bytes).unwrap();
    assert_eq!(plan.fingerprint, 0x4a08b6ad5de5ec72);
    assert_eq!(plan.to_bytes(), plan_bytes);

    let ckpt_bytes = golden("checkpoint_wire.bin");
    let ckpt = Checkpoint::from_bytes(&ckpt_bytes).unwrap();
    assert_eq!((ckpt.wave(), ckpt.fingerprint()), (1, 0x4a08b6ad5de5ec72));
    assert_eq!(ckpt.to_bytes(), ckpt_bytes);

    // And the envelope headers say what they should.
    for (bytes, format) in [
        (&key_bytes, Format::ServerKey),
        (&plan_bytes, Format::KernelPlan),
        (&ckpt_bytes, Format::Checkpoint),
    ] {
        let env = pytfhe_wire::decode(bytes).unwrap();
        assert_eq!(env.format, format);
    }
}

/// The fixtures carry the FNV-1a fingerprint of the binary, the
/// derivation before programs were fingerprinted word by word. Both
/// still decode, and both fail safe against a fresh capture, whose
/// fingerprint is pinned: the stored plan is never served (the half
/// adder is captured again) and the checkpoint is refused with the
/// typed error, never resumed.
#[test]
fn fixtures_of_the_old_fingerprint_are_recaptured_and_refused() {
    let mut nl = Netlist::new();
    let (a, b) = (nl.add_input(), nl.add_input());
    for kind in [GateKind::Xor, GateKind::And] {
        let gate = nl.add_gate(kind, a, b).unwrap();
        nl.mark_output(gate).unwrap();
    }
    let engine = PlainEngine::new();
    let graph = KernelGraph::new();
    graph.adopt(KernelPlan::from_bytes(&golden("kernel_plan_wire.bin")).unwrap());
    let (out, stats) = graph.execute(&engine, &nl, &[true, true], 1).unwrap();
    assert_eq!(out, vec![false, true]);
    assert!(!stats.plan_cached, "a plan under the old fingerprint is recaptured");
    assert_eq!(capture(&nl, &CaptureConfig::default()).unwrap().fingerprint, 0x43d7_bcff_d029_6117);

    let mut store = MemoryCheckpointStore::new();
    store.save(&Checkpoint::from_bytes(&golden("checkpoint_wire.bin")).unwrap()).unwrap();
    let cfg = ResilientConfig::new(1);
    let err = execute_resilient(&engine, &nl, &[true, false], &cfg, &NoFaults, Some(&mut store))
        .expect_err("a checkpoint under the old fingerprint must not resume");
    assert!(matches!(err, ExecError::BadCheckpoint { .. }), "{err:?}");
}

/// Every way of mangling a fixture must produce `Err`, never a panic
/// and never an `Ok`. (Flips are asserted on the checksummed formats;
/// truncations everywhere.)
fn assert_truncations_fail(name: &str, decode: &dyn Fn(&[u8]) -> bool) {
    let bytes = golden(name);
    // Exhaustive for small fixtures, strided for the megabyte key.
    let step = (bytes.len() / 256).max(1);
    for cut in (0..bytes.len()).step_by(step) {
        assert!(!decode(&bytes[..cut]), "{name}: truncation to {cut} bytes was accepted");
    }
}

type DecodeProbe = Box<dyn Fn(&[u8]) -> bool>;

#[test]
fn truncations_of_every_golden_are_rejected() {
    let cases: Vec<(&str, DecodeProbe)> = vec![
        ("server_key_testing_v4.bin", Box::new(|b| server_key_from_bytes(b).is_ok())),
        ("kernel_plan_wire.bin", Box::new(|b| KernelPlan::from_bytes(b).is_ok())),
        ("checkpoint_wire.bin", Box::new(|b| Checkpoint::from_bytes(b).is_ok())),
        ("client_key_testing_v1.bin", Box::new(|b| client_key_from_bytes(b).is_ok())),
        ("ciphertext_true_v1.bin", Box::new(|b| ciphertext_from_bytes(b).is_ok())),
    ];
    for (name, decode) in &cases {
        assert_truncations_fail(name, decode);
    }
}

/// Every region of the seeded key — envelope header, the four section
/// headers, the params id, the seed and both body sections — under a
/// flip of each bit position: the envelope checksum refuses all of them.
#[test]
fn bit_flips_in_every_region_of_the_v4_key_are_rejected() {
    let bytes = golden("server_key_testing_v4.bin");
    // Header, params and seed sections exhaustively; the bodies strided.
    let head = pytfhe_wire::HEADER_LEN + 2 * pytfhe_wire::SECTION_HEADER_LEN + 4 + 8;
    let positions = (0..head).chain((head..bytes.len()).step_by(97)).chain([bytes.len() - 1]);
    let mut cases = 0;
    for i in positions {
        for bit in 0..8 {
            let mut flipped = bytes.clone();
            flipped[i] ^= 1 << bit;
            let err = server_key_from_bytes(&flipped).expect_err("a flipped key decodes");
            assert!(matches!(err, TfheError::Wire(_)), "byte {i} bit {bit}: {err}");
            cases += 1;
        }
    }
    assert!(cases > 10_000, "only {cases} flips");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random bit flips in the enveloped fixtures are always caught.
    #[test]
    fn random_bit_flips_are_rejected(
        pos in any::<prop::sample::Index>(),
        bit in 0u8..8,
        which in 0usize..3,
    ) {
        let name = ["server_key_testing_v4.bin", "kernel_plan_wire.bin",
                    "checkpoint_wire.bin"][which];
        let mut bytes = golden(name);
        let i = pos.index(bytes.len());
        bytes[i] ^= 1 << bit;
        let rejected = match which {
            0 => server_key_from_bytes(&bytes).is_err(),
            1 => KernelPlan::from_bytes(&bytes).is_err(),
            _ => Checkpoint::from_bytes(&bytes).is_err(),
        };
        prop_assert!(rejected, "{name}: flip of bit {bit} at byte {i} went undetected");
    }

    /// Random truncations of the enveloped fixtures are always caught
    /// (complements the strided exhaustive pass above).
    #[test]
    fn random_truncations_are_rejected(
        cut in any::<prop::sample::Index>(),
        which in 0usize..3,
    ) {
        let name = ["server_key_testing_v4.bin", "kernel_plan_wire.bin",
                    "checkpoint_wire.bin"][which];
        let bytes = golden(name);
        let cut = cut.index(bytes.len());
        let rejected = match which {
            0 => server_key_from_bytes(&bytes[..cut]).is_err(),
            1 => KernelPlan::from_bytes(&bytes[..cut]).is_err(),
            _ => Checkpoint::from_bytes(&bytes[..cut]).is_err(),
        };
        prop_assert!(rejected, "{name}: truncation to {cut} bytes went undetected");
    }
}

/// Warm start, observed through telemetry counters: the first session
/// installs the key and captures the plan; a second session against the
/// same store installs zero keys and captures zero plans.
#[test]
fn warm_start_counters_prove_zero_reinstall_and_zero_recapture() {
    let dir = std::env::temp_dir().join(format!("pytfhe-warm-counters-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let nl = nand_netlist();
    let mut client = Client::new(Params::testing(), 0x5EED);
    let counters = || telemetry::metrics().snapshot().counters;
    let delta = |after: &std::collections::BTreeMap<String, u64>,
                 before: &std::collections::BTreeMap<String, u64>,
                 name: &str| {
        after.get(name).copied().unwrap_or(0) - before.get(name).copied().unwrap_or(0)
    };

    let before_cold = counters();
    {
        let store = DiskStore::open(&dir).unwrap();
        let server = Server::with_store(client.make_server_key(), store).unwrap();
        let cts = client.encrypt_bits(&[true, false]);
        let (out, _) = server.execute_graph(&nl, &cts, 1).unwrap();
        assert_eq!(client.decrypt_bits(&out), vec![true]);
    }
    let after_cold = counters();
    assert_eq!(delta(&after_cold, &before_cold, "session_keys_installed_total"), 1);
    assert_eq!(delta(&after_cold, &before_cold, "session_plans_captured_total"), 1);

    {
        let store = DiskStore::open(&dir).unwrap();
        let server = Server::warm_start(store).unwrap().expect("key persisted by the first run");
        let cts = client.encrypt_bits(&[true, true]);
        let (out, stats) = server.execute_graph(&nl, &cts, 1).unwrap();
        assert_eq!(client.decrypt_bits(&out), vec![false]);
        assert!(stats.plan_cached, "the stored plan must be reused");
    }
    let after_warm = counters();
    assert_eq!(
        delta(&after_warm, &after_cold, "session_keys_installed_total"),
        0,
        "a warm start must not re-install the key"
    );
    assert_eq!(
        delta(&after_warm, &after_cold, "session_plans_captured_total"),
        0,
        "a warm start must not re-capture the plan"
    );
    assert_eq!(delta(&after_warm, &after_cold, "session_keys_warm_started_total"), 1);
    assert_eq!(delta(&after_warm, &after_cold, "session_plans_warm_loaded_total"), 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The noise-budget guardrail is live end-to-end: the deliberately weak
/// test parameters are refused by the default guard and the breach is
/// visible in the typed error.
#[test]
fn noise_guard_refuses_test_parameters_end_to_end() {
    let mut client = Client::new(Params::testing(), 0xBAD);
    let err = Server::with_noise_guard(client.make_server_key(), NoiseGuard::default())
        .expect_err("testing parameters must fail the default noise guard");
    let msg = err.to_string();
    assert!(msg.contains("noise-budget guardrail"), "unexpected message: {msg}");
}
