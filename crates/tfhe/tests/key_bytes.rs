//! The server key as bytes, frozen across rewrites of key generation and
//! of the encoder.
//!
//! Key generation is a pure function of the seed, so the serialized
//! evaluation key is too. The CRC32C of `server_key_to_bytes` for three
//! seeds was captured while key generation still multiplied by the key
//! polynomials with the schoolbook product and the encoder still copied
//! the key through per-section buffers; the transform-domain limb product
//! and the one-buffer writer have to reproduce it byte for byte.

use pytfhe_tfhe::io::{server_key_from_bytes, server_key_to_bytes};
use pytfhe_tfhe::{ClientKey, Params, SecureRng};
use pytfhe_wire::crc32c;

/// `(params, seed)` of each frozen key, and the CRC32C of its bytes.
fn frozen() -> [(Params, u64, u32); 3] {
    [
        (Params::testing(), 1, 0xbd6e_1030),
        (Params::testing(), 2, 0x9044_36e1),
        (Params::default_128(), 3, 0x5396_0dc1),
    ]
}

#[test]
fn server_key_bytes_are_frozen() {
    let (mut want, mut got) = (Vec::new(), Vec::new());
    for (params, seed, crc) in frozen() {
        let mut rng = SecureRng::seed_from_u64(seed);
        let key = ClientKey::generate(params, &mut rng).server_key(&mut rng);
        let bytes = server_key_to_bytes(&key);
        let decoded = server_key_from_bytes(&bytes).expect("a fresh key decodes");
        assert_eq!(server_key_to_bytes(&decoded), bytes, "bytes -> key -> bytes, seed {seed}");
        want.push(crc);
        got.push(crc32c(&bytes));
    }
    assert_eq!(got, want, "{got:#010x?}");
}
