//! Installing a server key over the serve transport costs one copy of the
//! key on each side plus the key it expands to: the client writes the
//! frame header and then the key from its own buffer, the pipe holds the
//! one copy a socket would, and the server verifies the one buffer it read
//! into and decodes the key from inside it.
//!
//! Measured as the growth of the process high-water mark (`VmHWM`, Linux
//! only) across one `install_key` of a 128-bit key into a fresh front,
//! after resetting the mark through `/proc/self/clear_refs`. The key is
//! seeded: 15.6 MB on the wire, 124 MB once the server has regenerated
//! its masks and transformed it, so the wire size is not the resident
//! size. What may grow is the sent copy next to the received frame, then
//! the frame next to the expanded key: two wire keys plus one expanded
//! key, its size computed from the parameters. This file is its own test
//! binary, and its one test runs the compatibility case after the
//! measurement, so nothing else moves the mark meanwhile.
#![cfg(target_os = "linux")]

use pytfhe_serve::frame::{expect_reply, read_frame, tags, write_frame};
use pytfhe_serve::{duplex, ServeClient, ServeConfig, ServeHandle};
use pytfhe_tfhe::io::server_key_to_bytes;
use pytfhe_tfhe::{ClientKey, Params, SecureRng};
use pytfhe_wire::{put_section, Format};

/// The process high-water mark of resident memory, in bytes.
fn high_water_bytes() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).expect("VmHWM line");
    let kb: usize = line.split_whitespace().nth(1).and_then(|v| v.parse().ok()).expect("kB value");
    kb * 1024
}

/// Sends an install-key frame with a hand-built payload to a fresh
/// front and returns the fingerprint it answers with.
fn install_payload(payload: &[u8]) -> u64 {
    let front = ServeHandle::start(ServeConfig::default(), None);
    let (mut near, far) = duplex();
    let session = front.attach(far).unwrap();
    write_frame(&mut near, Format::ServeInstallKey, &[payload]).unwrap();
    let reply = expect_reply(&read_frame(&mut near).unwrap().unwrap()).unwrap();
    drop(near);
    session.join().unwrap();
    reply.fingerprint.expect("an install reply carries the fingerprint")
}

/// Bytes of a server key in memory at `p`: the bootstrapping key's
/// `lwe_dim · (k + 1) · l` rows of `k + 1` folded spectra (`N/2` points of
/// two `f64`s each) and the key-switching key's `k·N · t · (base − 1)`
/// samples of `n + 1` torus words.
fn expanded_key_bytes(p: &Params) -> usize {
    let (k, n) = (p.glwe_dim, p.poly_size);
    let bsk = p.lwe_dim * (k + 1) * p.decomp_levels * (k + 1) * (n / 2) * 16;
    let ksk = k * n * p.ks_levels * ((1 << p.ks_base_log) - 1) * (p.lwe_dim + 1) * 4;
    bsk + ksk
}

#[test]
fn installing_a_key_raises_the_high_water_mark_by_two_wire_keys_and_one_expanded_key() {
    let params = Params::default_128();
    let key_bytes = {
        let mut rng = SecureRng::seed_from_u64(5);
        let key = ClientKey::generate(params, &mut rng).server_key(&mut rng);
        server_key_to_bytes(&key)
    };
    let front = ServeHandle::start(ServeConfig::default(), None);
    let (near, far) = duplex();
    let session = front.attach(far).unwrap();
    let mut client = ServeClient::new(near);

    std::fs::write("/proc/self/clear_refs", "5").expect("reset the high-water mark");
    let before = high_water_bytes();
    let fingerprint = client.install_key(&key_bytes).unwrap();
    let grown = high_water_bytes() - before;
    let bound = 2 * key_bytes.len() + expanded_key_bytes(&params);
    assert!(
        grown < bound,
        "installing a {} MiB key ({} MiB expanded) raised the high-water mark by {} MiB",
        key_bytes.len() >> 20,
        expanded_key_bytes(&params) >> 20,
        grown >> 20
    );
    client.close().unwrap();
    session.join().unwrap();
    drop(front);

    // A client that builds the whole `KEY` section in one buffer, as
    // clients before the streamed install did, installs under the same
    // fingerprint.
    let mut payload = Vec::new();
    put_section(&mut payload, tags::KEY, &key_bytes);
    assert_eq!(install_payload(&payload), fingerprint);
}
