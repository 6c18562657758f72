//! Byte-level serialization of keys and ciphertexts.
//!
//! Ciphertexts and client keys use simple little-endian layouts with a
//! magic tag and a parameter-set identifier, so that the cloud backend
//! can reject mismatched material instead of computing garbage. This is
//! the transfer path of Figure 1: ciphertexts and the public (server)
//! key travel to the cloud; the client key never does.
//!
//! The server key — the one artifact large enough and long-lived enough
//! to persist — is wrapped in the [`pytfhe_wire`] envelope: magic,
//! format id, version, payload length, and a CRC32C over header and
//! payload. Torn writes, bit rot, and version skew all surface as typed
//! errors before a single payload byte is interpreted. The payload is
//! the *seeded* key (v4): the parameter-set id, the public mask seed and
//! the body of every row, in four sections in that order — 15.6 MB at
//! `default_128` against the 124 MB the key occupies in memory. Every
//! mask is regenerated from the seed on decode
//! ([`crate::keys::ServerKey`]), and the bootstrapping key's spectra are
//! recomputed on the decoding host's SIMD tier. The envelope with this
//! payload is the only server-key layout: the full-key v3 payload is
//! refused with [`pytfhe_wire::WireError::UnsupportedVersion`], and
//! bytes that do not open as an envelope — the pre-envelope `TFS\x02` /
//! `TFS\x01` layouts included — with [`TfheError::Wire`].
//!
//! Every decoder in this module is hardened against adversarial input:
//! declared counts are checked against the bytes actually present
//! (with overflow-safe arithmetic) before anything is allocated or
//! sliced — and the server key takes every length from its parameter
//! set, not from the bytes — so hostile buffers yield [`TfheError`]s,
//! never panics.

use crate::bootstrap::BootstrappingKey;
use crate::error::TfheError;
use crate::keys::{ClientKey, ServerKey};
use crate::keyswitch::KeySwitchKey;
use crate::lanes;
use crate::lwe::{LweCiphertext, LweKey};
use crate::params::Params;
use crate::poly::IntPoly;
use crate::tlwe::TlweKey;
use crate::torus::Torus32;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use pytfhe_telemetry as telemetry;
use pytfhe_wire as wire;

const CT_MAGIC: u32 = 0x5446_4301; // "TFC\x01"
const CK_MAGIC: u32 = 0x5446_4B01; // "TFK\x01"

/// Server-key payload version inside the wire envelope: the seeded key,
/// four sections in [`SK_SECTIONS`] order.
const SK_WIRE_VERSION: u16 = 4;
/// Payload section holding the parameter-set id (`u32`).
const SK_SECTION_PARAMS: u16 = 1;
/// Payload section holding the public mask seed (`u64`).
const SK_SECTION_SEED: u16 = 2;
/// Payload section holding the bootstrapping key's row bodies: `lwe_dim ·
/// (k + 1) · l` polynomials of `N` torus words, in the order of
/// [`BootstrappingKey::bodies`].
const SK_SECTION_BSK: u16 = 3;
/// Payload section holding the key-switching key's sample bodies, one
/// torus word per sample, in sample order.
const SK_SECTION_KSK: u16 = 4;
/// The sections of a server-key payload, each exactly once, in order.
const SK_SECTIONS: [u16; 4] = [SK_SECTION_PARAMS, SK_SECTION_SEED, SK_SECTION_BSK, SK_SECTION_KSK];

/// Serializes one LWE ciphertext.
pub fn ciphertext_to_bytes(ct: &LweCiphertext, params: &Params) -> Bytes {
    let mut buf = BytesMut::with_capacity(12 + ct.dim() * 4 + 4);
    buf.put_u32_le(CT_MAGIC);
    buf.put_u32_le(params.id());
    buf.put_u32_le(ct.dim() as u32);
    for t in ct.mask() {
        buf.put_u32_le(t.0);
    }
    buf.put_u32_le(ct.body().0);
    buf.freeze()
}

/// Deserializes one LWE ciphertext.
///
/// # Errors
///
/// Returns [`TfheError::Corrupt`] on truncated or mistagged input and
/// [`TfheError::UnknownParams`] for unknown parameter identifiers.
pub fn ciphertext_from_bytes(mut data: &[u8]) -> Result<(LweCiphertext, Params), TfheError> {
    if data.remaining() < 12 {
        return Err(TfheError::Corrupt { what: "ciphertext (truncated header)" });
    }
    if data.get_u32_le() != CT_MAGIC {
        return Err(TfheError::Corrupt { what: "ciphertext (bad magic)" });
    }
    let params = Params::from_id(data.get_u32_le()).ok_or(TfheError::UnknownParams)?;
    let dim = data.get_u32_le();
    // Overflow-safe: the declared mask length is validated against the
    // bytes actually present before anything is allocated, so an
    // adversarial `dim` of u32::MAX cannot reserve 16 GB or slice past
    // the buffer.
    if data.remaining() as u64 != (u64::from(dim) + 1) * 4 {
        return Err(TfheError::Corrupt { what: "ciphertext (length mismatch)" });
    }
    let a = (0..dim).map(|_| Torus32(data.get_u32_le())).collect();
    let b = Torus32(data.get_u32_le());
    Ok((LweCiphertext::from_parts(a, b), params))
}

/// Serializes the client (secret) key. Handle with care.
pub fn client_key_to_bytes(key: &ClientKey) -> Bytes {
    let params = *key.params();
    let mut buf = BytesMut::new();
    buf.put_u32_le(CK_MAGIC);
    buf.put_u32_le(params.id());
    let lwe = key.lwe_key();
    buf.put_u32_le(lwe.dim() as u32);
    for &b in lwe.bits() {
        buf.put_u8(b as u8);
    }
    let tlwe = key.tlwe_key();
    buf.put_u32_le(tlwe.k() as u32);
    buf.put_u32_le(tlwe.poly_size() as u32);
    for poly in tlwe.polys() {
        for &c in poly.coeffs() {
            buf.put_u8(c as u8);
        }
    }
    buf.freeze()
}

/// Deserializes a client key.
///
/// # Errors
///
/// Returns [`TfheError::Corrupt`] / [`TfheError::UnknownParams`] like
/// [`ciphertext_from_bytes`].
pub fn client_key_from_bytes(mut data: &[u8]) -> Result<ClientKey, TfheError> {
    if data.remaining() < 12 {
        return Err(TfheError::Corrupt { what: "client key (truncated header)" });
    }
    if data.get_u32_le() != CK_MAGIC {
        return Err(TfheError::Corrupt { what: "client key (bad magic)" });
    }
    let params = Params::from_id(data.get_u32_le()).ok_or(TfheError::UnknownParams)?;
    let n = data.get_u32_le() as usize;
    if data.remaining() < n {
        return Err(TfheError::Corrupt { what: "client key (LWE bits truncated)" });
    }
    let bits: Vec<i32> = (0..n).map(|_| i32::from(data.get_u8())).collect();
    if data.remaining() < 8 {
        return Err(TfheError::Corrupt { what: "client key (TLWE header truncated)" });
    }
    let k = data.get_u32_le();
    let poly_size = data.get_u32_le();
    // `k * poly_size` can reach 2^64 for adversarial headers; compare in
    // u64 against the bytes actually present instead of multiplying in
    // usize (which would wrap on 32-bit targets and mis-slice).
    let declared = u64::from(k).checked_mul(u64::from(poly_size));
    if declared != Some(data.remaining() as u64) {
        return Err(TfheError::Corrupt { what: "client key (TLWE length mismatch)" });
    }
    let polys = (0..k)
        .map(|_| IntPoly::from_coeffs((0..poly_size).map(|_| i32::from(data.get_u8())).collect()))
        .collect();
    let tlwe = TlweKey::from_polys(polys)
        .ok_or(TfheError::Corrupt { what: "client key (TLWE key outside the exact product)" })?;
    Ok(ClientKey::from_parts(params, LweKey::from_bits(bits), tlwe))
}

/// Serializes the public server key into a checksummed wire envelope:
/// the parameter-set id, the mask seed, and the body of every row —
/// 15.6 MB at `default_128`, an eighth of the key in memory, because
/// every mask is regenerated from the seed on decode. The bootstrapping
/// key's bodies come back from its spectra through the exact inverse
/// transform (`BootstrappingKey::tgsw_bodies`), one contiguous range of TGSWs
/// per lane ([`crate::lanes::default_width`]), each lane writing its own
/// slice of the body section. The lengths are known up front, so the
/// envelope is one allocation written front to back
/// ([`wire::encode_with`]).
pub fn server_key_to_bytes(key: &ServerKey) -> Bytes {
    encode_server_key(key, lanes::default_width())
}

/// [`server_key_to_bytes`] on `lanes` lanes: the same bytes at any lane
/// count.
pub(crate) fn encode_server_key(key: &ServerKey, lanes: usize) -> Bytes {
    let _span = telemetry::span("tfhe", "encode server key");
    let params = key.params;
    let (bsk_len, ksk_len) = (bsk_body_len(&params), ksk_body_len(&params));
    let payload_len = SK_SECTIONS.len() * wire::SECTION_HEADER_LEN + 4 + 8 + bsk_len + ksk_len;
    let tgsw_len = bsk_len / params.lwe_dim;
    let envelope =
        wire::encode_with(wire::Format::ServerKey, SK_WIRE_VERSION, payload_len, |out| {
            wire::put_section(out, SK_SECTION_PARAMS, &params.id().to_le_bytes());
            wire::put_section(out, SK_SECTION_SEED, &key.mask_seed.to_le_bytes());
            wire::put_section_header(out, SK_SECTION_BSK, bsk_len);
            let start = out.len();
            out.resize(start + bsk_len, 0);
            lanes::for_each_run(lanes, &mut out[start..], tgsw_len, |first, run| {
                for (i, tgsw) in (first..).zip(run.chunks_exact_mut(tgsw_len)) {
                    let rows = tgsw.chunks_exact_mut(4 * params.poly_size);
                    for (body, bytes) in key.bootstrap.tgsw_bodies(i).zip(rows) {
                        for (w, c) in bytes.chunks_exact_mut(4).zip(body.coeffs()) {
                            w.copy_from_slice(&c.0.to_le_bytes());
                        }
                    }
                }
            });
            wire::put_section_header(out, SK_SECTION_KSK, ksk_len);
            put_words(out, key.keyswitch.bodies());
        });
    Bytes::from(envelope)
}

/// Deserializes a server key from its wire envelope, regenerating every
/// mask from the seed and transforming the bootstrapping key on this
/// host's SIMD tier, one contiguous range of rows per lane
/// ([`crate::lanes::default_width`]), each lane reading its own slice of
/// the body sections in place.
///
/// # Errors
///
/// Returns [`TfheError::Wire`] when the bytes are not a valid
/// server-key envelope (no envelope magic, checksum mismatch,
/// truncation, version skew — a v3 full-key payload included — or
/// sections other than the four of the layout, in order), and
/// [`TfheError::Corrupt`] / [`TfheError::UnknownParams`] like
/// [`ciphertext_from_bytes`] for a section whose length is not the one
/// its parameter set fixes.
pub fn server_key_from_bytes(data: &[u8]) -> Result<ServerKey, TfheError> {
    decode_server_key(data, lanes::default_width())
}

/// [`server_key_from_bytes`] on `lanes` lanes: the same key at any lane
/// count.
pub(crate) fn decode_server_key(data: &[u8], lanes: usize) -> Result<ServerKey, TfheError> {
    let _span = telemetry::span("tfhe", "decode server key");
    let env =
        wire::decode_expecting(data, wire::Format::ServerKey, SK_WIRE_VERSION..=SK_WIRE_VERSION)?;
    let [params, seed, bsk, ksk] = server_key_sections(env.payload)?;
    let params = <[u8; 4]>::try_from(params)
        .map_err(|_| TfheError::Corrupt { what: "server key (params section)" })?;
    let params = Params::from_id(u32::from_le_bytes(params)).ok_or(TfheError::UnknownParams)?;
    let mask_seed = <[u8; 8]>::try_from(seed)
        .map_err(|_| TfheError::Corrupt { what: "server key (seed section)" })?;
    let mask_seed = u64::from_le_bytes(mask_seed);
    // Both body lengths are fixed by the parameter set, so nothing is
    // allocated before the bytes are known to be exactly those.
    if bsk.len() != bsk_body_len(&params) {
        return Err(TfheError::Corrupt { what: "server key (bootstrap bodies length)" });
    }
    if ksk.len() != ksk_body_len(&params) {
        return Err(TfheError::Corrupt { what: "server key (key-switch bodies length)" });
    }
    let row_len = 4 * params.poly_size;
    let bootstrap = BootstrappingKey::from_bodies(params, mask_seed, lanes, |r, body| {
        let bytes = &bsk[r as usize * row_len..][..row_len];
        body.coeffs_mut().iter_mut().zip(words(bytes)).for_each(|(c, w)| *c = w);
    });
    let keyswitch = KeySwitchKey::from_bodies(
        params.extracted_lwe_dim(),
        params.lwe_dim,
        params.ks_levels,
        params.ks_base_log,
        mask_seed,
        lanes,
        |r| words(&ksk[4 * r..][..4]).next().expect("the sample's body word"),
    );
    Ok(ServerKey { params, mask_seed, bootstrap, keyswitch })
}

/// The bodies of the [`SK_SECTIONS`] of a payload: each exactly once, in
/// order, and nothing after them.
fn server_key_sections(payload: &[u8]) -> Result<[&[u8]; 4], TfheError> {
    let out_of_order = wire::WireError::BadSection { reason: "server key sections out of order" };
    let mut sections = wire::sections(payload);
    let mut bodies = [&[][..]; 4];
    for (body, tag) in bodies.iter_mut().zip(SK_SECTIONS) {
        match sections.next().transpose()? {
            Some((t, b)) if t == tag => *body = b,
            _ => return Err(out_of_order.into()),
        }
    }
    match sections.next() {
        None => Ok(bodies),
        Some(_) => Err(out_of_order.into()),
    }
}

/// Bytes of the bootstrapping-key bodies at `params`.
fn bsk_body_len(params: &Params) -> usize {
    4 * params.lwe_dim * (params.glwe_dim + 1) * params.decomp_levels * params.poly_size
}

/// Bytes of the key-switching-key bodies at `params`.
fn ksk_body_len(params: &Params) -> usize {
    4 * params.extracted_lwe_dim() * params.ks_levels * ((1 << params.ks_base_log) - 1)
}

/// Appends torus words as little-endian `u32`s.
fn put_words(out: &mut Vec<u8>, words: impl Iterator<Item = Torus32>) {
    for w in words {
        out.extend_from_slice(&w.0.to_le_bytes());
    }
}

/// Reads little-endian `u32` torus words (`bytes.len()` a multiple of 4).
fn words(bytes: &[u8]) -> impl ExactSizeIterator<Item = Torus32> + '_ {
    bytes.chunks_exact(4).map(|w| Torus32(u32::from_le_bytes([w[0], w[1], w[2], w[3]])))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poly::TorusPoly;
    use crate::tgsw::{seeded_mask_into, Gadget};
    use crate::tlwe::TlweCiphertext;
    use crate::SecureRng;

    #[test]
    fn ciphertext_round_trip() {
        let mut rng = SecureRng::seed_from_u64(90);
        let params = Params::testing();
        let client = ClientKey::generate(params, &mut rng);
        let ct = client.encrypt_bit(true, &mut rng);
        let bytes = ciphertext_to_bytes(&ct, &params);
        assert_eq!(bytes.len(), 12 + params.ciphertext_bytes());
        let (back, p2) = ciphertext_from_bytes(&bytes).unwrap();
        assert_eq!(back, ct);
        assert_eq!(p2, params);
    }

    #[test]
    fn ciphertext_rejects_corruption() {
        let mut rng = SecureRng::seed_from_u64(91);
        let params = Params::testing();
        let client = ClientKey::generate(params, &mut rng);
        let ct = client.encrypt_bit(false, &mut rng);
        let bytes = ciphertext_to_bytes(&ct, &params);
        // Truncated.
        assert!(ciphertext_from_bytes(&bytes[..bytes.len() - 1]).is_err());
        // Bad magic.
        let mut bad = bytes.to_vec();
        bad[0] ^= 0xFF;
        assert!(ciphertext_from_bytes(&bad).is_err());
        // Unknown params id.
        let mut bad = bytes.to_vec();
        bad[4] = 0xEE;
        assert_eq!(ciphertext_from_bytes(&bad).unwrap_err(), TfheError::UnknownParams);
    }

    #[test]
    fn client_key_round_trip() {
        let mut rng = SecureRng::seed_from_u64(92);
        let client = ClientKey::generate(Params::testing(), &mut rng);
        let bytes = client_key_to_bytes(&client);
        let back = client_key_from_bytes(&bytes).unwrap();
        // The restored key must decrypt what the original encrypted.
        let ct = client.encrypt_bit(true, &mut rng);
        assert!(back.decrypt_bit(&ct));
        let ct = client.encrypt_bit(false, &mut rng);
        assert!(!back.decrypt_bit(&ct));
    }

    /// A well-formed server-key envelope around the given `(tag, body)`
    /// sections, so hostile payloads reach the section checks.
    fn enveloped_server_key(version: u16, sections: &[(u16, &[u8])]) -> Vec<u8> {
        let mut payload = Vec::new();
        for &(tag, body) in sections {
            wire::put_section(&mut payload, tag, body);
        }
        wire::encode(wire::Format::ServerKey, version, &payload)
    }

    /// The four sections of a testing-parameter key: id, seed and
    /// all-zero bodies of the right lengths.
    fn testing_sections() -> [(u16, Vec<u8>); 4] {
        let params = Params::testing();
        [
            (SK_SECTION_PARAMS, params.id().to_le_bytes().to_vec()),
            (SK_SECTION_SEED, 7u64.to_le_bytes().to_vec()),
            (SK_SECTION_BSK, vec![0; bsk_body_len(&params)]),
            (SK_SECTION_KSK, vec![0; ksk_body_len(&params)]),
        ]
    }

    fn decode_sections(version: u16, sections: &[(u16, Vec<u8>)]) -> Result<ServerKey, TfheError> {
        let borrowed: Vec<(u16, &[u8])> = sections.iter().map(|(t, b)| (*t, &b[..])).collect();
        server_key_from_bytes(&enveloped_server_key(version, &borrowed))
    }

    #[test]
    fn server_key_round_trip_evaluates_gates() {
        let mut rng = SecureRng::seed_from_u64(93);
        let client = ClientKey::generate(Params::testing(), &mut rng);
        let server = client.server_key(&mut rng);
        let bytes = server_key_to_bytes(&server);
        let back = server_key_from_bytes(&bytes).unwrap();
        // Regenerated masks and recomputed spectra: on the tier that made
        // the key, the decoded key is the client's key, spectrum for
        // spectrum, and it encodes back to the same bytes.
        assert!(back == server, "the decoded key equals the client's in-memory key");
        assert_eq!(server_key_to_bytes(&back), bytes, "key -> bytes -> key -> bytes");
        let a = client.encrypt_bit(true, &mut rng);
        let b = client.encrypt_bit(true, &mut rng);
        assert!(!client.decrypt_bit(&back.nand(&a, &b)));
        assert!(client.decrypt_bit(&back.and(&a, &b)));
    }

    #[test]
    fn server_key_rejects_corruption() {
        let mut rng = SecureRng::seed_from_u64(94);
        let client = ClientKey::generate(Params::testing(), &mut rng);
        let server = client.server_key(&mut rng);
        let bytes = server_key_to_bytes(&server);
        // Truncation breaks the declared envelope length.
        assert!(server_key_from_bytes(&bytes[..100]).is_err());
        // A corrupted envelope magic is a wire error like any other.
        let mut bad = bytes.to_vec();
        bad[0] ^= 0x10;
        assert_eq!(
            server_key_from_bytes(&bad).unwrap_err(),
            TfheError::Wire(wire::WireError::BadMagic)
        );
        // A payload bit flip fails the CRC32C.
        let mut bad = bytes.to_vec();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x01;
        assert!(
            matches!(server_key_from_bytes(&bad), Err(TfheError::Wire(_))),
            "payload bit flip must fail the envelope checksum"
        );
    }

    #[test]
    fn other_payload_versions_are_refused_with_the_version_error() {
        for version in [1, 2, 3, 5, u16::MAX] {
            assert_eq!(
                decode_sections(version, &testing_sections()).unwrap_err(),
                TfheError::Wire(wire::WireError::UnsupportedVersion {
                    format: wire::Format::ServerKey,
                    version
                }),
                "version {version}"
            );
        }
        assert!(decode_sections(SK_WIRE_VERSION, &testing_sections()).is_ok());
    }

    #[test]
    fn adversarial_lengths_error_instead_of_panicking() {
        // Ciphertext declaring a u32::MAX-element mask over a tiny
        // buffer: the length check must fail without allocating.
        let mut ct = Vec::new();
        ct.extend_from_slice(&super::CT_MAGIC.to_le_bytes());
        ct.extend_from_slice(&Params::testing().id().to_le_bytes());
        ct.extend_from_slice(&u32::MAX.to_le_bytes());
        ct.extend_from_slice(&[0u8; 8]);
        assert!(ciphertext_from_bytes(&ct).is_err());

        // Client key whose k × poly_size product overflows.
        let mut ck = Vec::new();
        ck.extend_from_slice(&super::CK_MAGIC.to_le_bytes());
        ck.extend_from_slice(&Params::testing().id().to_le_bytes());
        ck.extend_from_slice(&0u32.to_le_bytes()); // zero LWE bits
        ck.extend_from_slice(&u32::MAX.to_le_bytes()); // k
        ck.extend_from_slice(&u32::MAX.to_le_bytes()); // poly_size
        ck.extend_from_slice(&[0u8; 16]);
        assert!(client_key_from_bytes(&ck).is_err());

        // Server keys in checksummed, well-framed envelopes whose sections
        // lie: every length comes from the parameter set, so each is a
        // typed error before anything is allocated.
        let corrupt = |what| Err(TfheError::Corrupt { what });
        let out_of_order = Err(TfheError::Wire(wire::WireError::BadSection {
            reason: "server key sections out of order",
        }));
        let with = |index: usize, body: Vec<u8>| {
            let mut sections = testing_sections();
            sections[index].1 = body;
            decode_sections(SK_WIRE_VERSION, &sections)
        };
        let bsk_len = bsk_body_len(&Params::testing());
        let ksk_len = ksk_body_len(&Params::testing());
        let cases = [
            (with(0, vec![0; 3]), corrupt("server key (params section)")),
            (with(0, vec![0; 5]), corrupt("server key (params section)")),
            (with(0, u32::MAX.to_le_bytes().to_vec()), Err(TfheError::UnknownParams)),
            // Another known set: its lengths, not the bytes', decide.
            (
                with(0, Params::default_128().id().to_le_bytes().to_vec()),
                corrupt("server key (bootstrap bodies length)"),
            ),
            (with(1, vec![0; 7]), corrupt("server key (seed section)")),
            (with(1, Vec::new()), corrupt("server key (seed section)")),
            (with(2, Vec::new()), corrupt("server key (bootstrap bodies length)")),
            (with(2, vec![0; bsk_len - 1]), corrupt("server key (bootstrap bodies length)")),
            (with(2, vec![0; bsk_len + 4]), corrupt("server key (bootstrap bodies length)")),
            (with(3, vec![0; ksk_len - 4]), corrupt("server key (key-switch bodies length)")),
            (with(3, vec![0; ksk_len + 1]), corrupt("server key (key-switch bodies length)")),
        ];
        for (i, (got, want)) in cases.into_iter().enumerate() {
            assert_eq!(got.map(|_| ()), want, "case {i}");
        }
        // Every section exactly once, in order: a missing, repeated,
        // swapped or extra section is refused, never skipped.
        let mut rearranged: Vec<Vec<(u16, Vec<u8>)>> = Vec::new();
        for i in 0..4 {
            let mut s = testing_sections().to_vec();
            s.remove(i);
            rearranged.push(s);
            let mut s = testing_sections().to_vec();
            s.insert(i, s[i].clone());
            rearranged.push(s);
            for j in i + 1..4 {
                let mut s = testing_sections().to_vec();
                s.swap(i, j);
                rearranged.push(s);
            }
        }
        let mut extra = testing_sections().to_vec();
        extra.push((9, Vec::new()));
        rearranged.push(extra);
        for sections in rearranged {
            let tags: Vec<u16> = sections.iter().map(|s| s.0).collect();
            let got = decode_sections(SK_WIRE_VERSION, &sections).map(|_| ());
            assert_eq!(got, out_of_order, "sections {tags:?}");
        }
        // A section header declaring 2^64 - 1 body bytes fails the framing.
        let mut payload = Vec::new();
        wire::put_section_header(&mut payload, SK_SECTION_PARAMS, usize::MAX);
        let hostile = wire::encode(wire::Format::ServerKey, SK_WIRE_VERSION, &payload);
        assert!(matches!(server_key_from_bytes(&hostile), Err(TfheError::Wire(_))));
    }

    #[test]
    fn server_key_bytes_are_the_seed_and_the_bodies() {
        let mut rng = SecureRng::seed_from_u64(96);
        let params = Params::testing();
        let client = ClientKey::generate(params, &mut rng);
        let server = client.server_key(&mut rng);
        // On the wire: envelope header, four section headers, the id, the
        // seed, one word per bootstrapping-key row coefficient and one per
        // key-switch sample.
        let payload = |p: &Params| {
            let (k, n, l) = (p.glwe_dim, p.poly_size, p.decomp_levels);
            let ksk_samples = k * n * p.ks_levels * ((1 << p.ks_base_log) - 1);
            4 * 10 + 4 + 8 + 4 * p.lwe_dim * (k + 1) * l * n + 4 * ksk_samples
        };
        let bytes = server_key_to_bytes(&server);
        assert_eq!(bytes.len(), pytfhe_wire::HEADER_LEN + payload(&params));
        // At the 128-bit set that is 15.58 MB, against the 124 MB of the
        // masked key: 15 482 880 bytes of bootstrapping-key bodies and
        // 98 304 of key-switch bodies.
        let full = Params::default_128();
        assert_eq!((bsk_body_len(&full), ksk_body_len(&full)), (15_482_880, 98_304));
        assert_eq!(pytfhe_wire::HEADER_LEN + payload(&full), 15_581_256);
    }

    /// The variance of `errors` over the predicted `stdev²`.
    fn variance_ratio(errors: &[f64], stdev: f64) -> f64 {
        errors.iter().map(|e| e * e).sum::<f64>() / errors.len() as f64 / (stdev * stdev)
    }

    #[test]
    fn rows_of_a_decoded_128_bit_key_carry_fresh_noise() {
        // Masks from the seed, the gadget term in the body, bodies back
        // through the inverse transform: every row of the decoded key
        // still decrypts to its message plus noise of the deviation the
        // parameters prescribe, in the band of the fresh-LWE measurement
        // (`noise::measured_fresh_noise_matches_prediction`).
        let params = Params::default_128();
        let mut rng = SecureRng::seed_from_u64(97);
        let client = ClientKey::generate(params, &mut rng);
        let server = server_key_from_bytes(&server_key_to_bytes(&client.server_key(&mut rng)))
            .expect("a fresh key decodes");
        let k = params.glwe_dim;
        let gadget = Gadget { levels: params.decomp_levels, base_log: params.decomp_base_log };
        let rows = (k + 1) * gadget.levels;
        let tlwe_key = client.tlwe_key();
        let bodies = server.bootstrap.bodies();
        let mut errors = Vec::new();
        for (r, b) in bodies.take(24 * rows).enumerate() {
            let mut row = TlweCiphertext { a: vec![TorusPoly::zero(b.len()); k], b };
            seeded_mask_into(server.mask_seed, r as u64, &mut row.a);
            let bit = client.lwe_key().bits()[r / rows];
            let (u, level) = (r % rows / gadget.levels, r % gadget.levels);
            let bump = bit * gadget.h(level);
            for (j, &c) in tlwe_key.phase(&row).coeffs().iter().enumerate() {
                let want = match tlwe_key.polys().get(u) {
                    Some(s_u) => -(s_u.coeffs()[j] * bump),
                    None if j == 0 => bump,
                    None => Torus32::ZERO,
                };
                errors.push((c - want).to_f64());
            }
        }
        let ratio = variance_ratio(&errors, params.glwe_noise_stdev);
        assert!((0.8..1.25).contains(&ratio), "bootstrapping-key rows: variance ratio {ratio}");

        // Key-switch sample (i, j, v) encrypts v·s_i / base^(j+1).
        let (src, dst) = (tlwe_key.extracted_lwe_key(), client.lwe_key());
        let (base, t) = (1usize << params.ks_base_log, params.ks_levels);
        let ksk = &server.keyswitch;
        let mut errors = Vec::with_capacity(ksk.num_samples());
        for r in 0..ksk.num_samples() {
            let (i, j, v) = (r / (t * (base - 1)), r / (base - 1) % t, r % (base - 1) + 1);
            let unit = Torus32(1u32 << (32 - (j + 1) * params.ks_base_log));
            let want = (v as i32 * src.bits()[i]) * unit;
            let (mask, body) = ksk.row(r);
            errors
                .push((dst.phase(&LweCiphertext::from_parts(mask.to_vec(), body)) - want).to_f64());
        }
        let ratio = variance_ratio(&errors, params.lwe_noise_stdev);
        assert!((0.8..1.25).contains(&ratio), "key-switch samples: variance ratio {ratio}");
    }

    /// The server key of a fresh client key under `seed`, generated on
    /// `lanes` lanes.
    fn key_on(params: Params, seed: u64, lanes: usize) -> (ClientKey, ServerKey) {
        let mut rng = SecureRng::seed_from_u64(seed);
        let client = ClientKey::generate(params, &mut rng);
        let server = client.server_key_on(&mut rng, lanes);
        (client, server)
    }

    /// Generates, encodes and decodes at every lane count in `lanes`
    /// and checks each step against one lane.
    fn assert_set_up_ignores_lanes(params: Params, lanes: &[usize]) {
        let (_, key) = key_on(params, 98, 1);
        let bytes = encode_server_key(&key, 1);
        for &n in lanes {
            assert!(key_on(params, 98, n).1 == key, "keygen on {n} lanes");
            assert_eq!(encode_server_key(&key, n), bytes, "encode on {n} lanes");
            assert!(decode_server_key(&bytes, n).unwrap() == key, "decode on {n} lanes");
        }
    }

    #[test]
    fn set_up_gives_the_same_key_at_every_lane_count() {
        // Three lanes cut the 16 TGSWs and 768 source bits unevenly.
        assert_set_up_ignores_lanes(Params::testing(), &[1, 2, 3, 4]);
    }

    #[test]
    fn set_up_gives_the_same_128_bit_key_on_one_and_two_lanes() {
        assert_set_up_ignores_lanes(Params::default_128(), &[1, 2]);
    }

    #[test]
    fn the_golden_key_decodes_alike_at_every_lane_count() {
        let path =
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/server_key_testing_v4.bin");
        let bytes = std::fs::read(path).expect("the golden v4 server key");
        let key = decode_server_key(&bytes, 1).expect("the golden key decodes");
        for lanes in 2..=4 {
            assert!(decode_server_key(&bytes, lanes).unwrap() == key, "decode on {lanes} lanes");
        }
        assert_eq!(encode_server_key(&key, 3).to_vec(), bytes);
    }

    #[test]
    fn the_first_row_of_every_lane_draws_fresh_noise() {
        let params = Params::testing();
        let (client, server) = key_on(params, 99, 4);
        let (k, l) = (params.glwe_dim, params.decomp_levels);
        let rows = (k + 1) * l;
        let gadget = Gadget { levels: l, base_log: params.decomp_base_log };
        // Bootstrapping-key row `r`'s noise: its phase less its gadget term.
        let bsk_noise = |r: usize| {
            let b = server.bootstrap.tgsw_bodies(r / rows).nth(r % rows).unwrap();
            let mut row = TlweCiphertext { a: vec![TorusPoly::zero(b.len()); k], b };
            seeded_mask_into(server.mask_seed, r as u64, &mut row.a);
            let mut phase = client.tlwe_key().phase(&row);
            let bump = client.lwe_key().bits()[r / rows] * gadget.h(r % l);
            match client.tlwe_key().polys().get(r % rows / l) {
                Some(s_u) => phase
                    .coeffs_mut()
                    .iter_mut()
                    .zip(s_u.coeffs())
                    .for_each(|(c, &s)| *c += s * bump),
                None => phase.coeffs_mut()[0] -= bump,
            }
            phase
        };
        // Key-switch sample `r`'s noise: its phase less v·s_i / base^(j+1).
        let (src, dst) = (client.tlwe_key().extracted_lwe_key(), client.lwe_key());
        let digits = (1usize << params.ks_base_log) - 1;
        let per_bit = params.ks_levels * digits;
        let ksk_noise = |r: usize| {
            let (i, j, v) = (r / per_bit, r / digits % params.ks_levels, r % digits + 1);
            let unit = Torus32(1u32 << (32 - (j + 1) * params.ks_base_log));
            let (mask, body) = server.keyswitch.row(r);
            dst.phase(&LweCiphertext::from_parts(mask.to_vec(), body))
                - (v as i32 * src.bits()[i]) * unit
        };
        for lanes in 2..=4 {
            for range in lanes::ranges(params.lwe_dim, lanes).skip(1) {
                assert_ne!(bsk_noise(range.start * rows), bsk_noise(0), "{lanes} lanes, {range:?}");
            }
            for range in lanes::ranges(src.dim(), lanes).skip(1) {
                let r = range.start * per_bit;
                assert_ne!(ksk_noise(r), ksk_noise(0), "{lanes} lanes, sample {r}");
            }
        }
    }
}
