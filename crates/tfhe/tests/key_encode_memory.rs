//! Encoding a server key costs one copy of the key: the envelope is
//! written into a single buffer of its exact length, with no
//! per-section or whole-payload staging copies next to it.
//!
//! Measured as the growth of the process high-water mark (`VmHWM`, Linux
//! only) across `server_key_to_bytes` on a 128-bit key (~15 MiB seeded,
//! its bootstrapping-key bodies recovered one row at a time). This
//! file is its own test binary so that no other test moves the mark
//! meanwhile.
#![cfg(target_os = "linux")]

use pytfhe_tfhe::io::server_key_to_bytes;
use pytfhe_tfhe::{ClientKey, Params, SecureRng};

/// The process high-water mark of resident memory, in bytes.
fn high_water_bytes() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).expect("VmHWM line");
    let kb: usize = line.split_whitespace().nth(1).and_then(|v| v.parse().ok()).expect("kB value");
    kb * 1024
}

#[test]
fn encoding_a_key_raises_the_high_water_mark_by_one_envelope() {
    let mut rng = SecureRng::seed_from_u64(5);
    let key = ClientKey::generate(Params::default_128(), &mut rng).server_key(&mut rng);
    let before = high_water_bytes();
    let bytes = server_key_to_bytes(&key);
    let grown = high_water_bytes() - before;
    assert!(
        grown < bytes.len() * 5 / 4,
        "encoding a {} MiB key raised the high-water mark by {} MiB",
        bytes.len() >> 20,
        grown >> 20
    );
}
