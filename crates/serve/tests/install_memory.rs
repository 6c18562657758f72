//! Installing a server key over the serve transport costs one copy of the
//! key on each side: the client writes the frame header and then the key
//! from its own buffer, the pipe holds the one copy a socket would, and
//! the server verifies the one buffer it read into and decodes the key
//! from inside it.
//!
//! Measured as the growth of the process high-water mark (`VmHWM`, Linux
//! only) across one `install_key` of a 128-bit key (~118 MiB) into a
//! fresh front, after resetting the mark through `/proc/self/clear_refs`.
//! What may grow is the sent copy next to the received frame, then the
//! frame next to the decoded key: twice the key. This file is its own
//! test binary, and its one test runs the compatibility case after the
//! measurement, so nothing else moves the mark meanwhile.
#![cfg(target_os = "linux")]

use pytfhe_serve::frame::{expect_reply, read_frame, tags, write_frame};
use pytfhe_serve::{duplex, ServeClient, ServeConfig, ServeHandle};
use pytfhe_tfhe::io::server_key_to_bytes;
use pytfhe_tfhe::{ClientKey, Params, SecureRng};
use pytfhe_wire::{put_section, put_section_packed, rle_compress, Format, SECTION_COMPRESSED_FLAG};

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

#[test]
fn installing_a_key_raises_the_high_water_mark_by_two_keys_at_most() {
    let key_bytes = {
        let mut rng = SecureRng::seed_from_u64(5);
        let key = ClientKey::generate(Params::default_128(), &mut rng).server_key(&mut rng);
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
    assert!(
        grown < key_bytes.len() * 5 / 2,
        "installing a {} MiB key raised the high-water mark by {} MiB",
        key_bytes.len() >> 20,
        grown >> 20
    );
    client.close().unwrap();
    session.join().unwrap();
    drop(front);

    // A client that packs the `KEY` section, as clients before the
    // plain-section install did, still installs under the same
    // fingerprint: `put_section_packed` leaves a dense key plain, and a
    // body it did compress is decompressed.
    let mut packed = Vec::new();
    put_section_packed(&mut packed, tags::KEY, &key_bytes);
    assert_eq!(install_payload(&packed), fingerprint);
    let mut compressed = Vec::new();
    put_section(&mut compressed, tags::KEY | SECTION_COMPRESSED_FLAG, &rle_compress(&key_bytes));
    assert_eq!(install_payload(&compressed), fingerprint);
}
