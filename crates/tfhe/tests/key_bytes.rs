//! The server key as bytes, frozen across rewrites of key generation and
//! of the encoder.
//!
//! Key generation is a pure function of the seed, so the serialized
//! evaluation key is too. The CRC32C of `server_key_to_bytes` for three
//! seeds was first captured while key generation still multiplied by the
//! key polynomials with the schoolbook product; the transform-domain limb
//! product and the one-buffer writer reproduced it byte for byte. These
//! values were re-frozen when the key became seeded — a mask seed and the
//! row bodies, with the gadget term moved from mask to body — which
//! changes every byte — and again when every row began to draw its noise
//! from its own secret stream, so that set-up runs its rows on any number
//! of lanes: the bodies change, and the bytes are the same at every lane
//! count (`PYTFHE_WORKERS`). The encoder recovers the bootstrapping-key
//! bodies through the inverse transform, so the bytes are the same on
//! every SIMD tier.

use pytfhe_tfhe::io::{server_key_from_bytes, server_key_to_bytes};
use pytfhe_tfhe::{ClientKey, Params, SecureRng};
use pytfhe_wire::crc32c;

/// `(params, seed)` of each frozen key, and the CRC32C of its bytes.
fn frozen() -> [(Params, u64, u32); 3] {
    [
        (Params::testing(), 1, 0xe2d1_d53d),
        (Params::testing(), 2, 0xc417_164d),
        (Params::default_128(), 3, 0x9a40_5a40),
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
