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
//! payload, with the bootstrapping and key-switching keys framed as
//! separate payload sections. Torn writes, bit rot, and version skew
//! all surface as typed errors before a single payload byte is
//! interpreted. The envelope is the only server-key layout: bytes
//! that do not open as one — the pre-envelope `TFS\x02` / `TFS\x01`
//! layouts included — are refused with [`TfheError::Wire`].
//!
//! Every decoder in this module is hardened against adversarial input:
//! declared counts are checked against the bytes actually present
//! (with overflow-safe arithmetic) before anything is allocated or
//! sliced, so hostile buffers yield [`TfheError`]s, never panics.

use crate::bootstrap::BootstrappingKey;
use crate::error::TfheError;
use crate::fft::FreqPoly;
use crate::keys::{ClientKey, ServerKey};
use crate::keyswitch::KeySwitchKey;
use crate::lwe::{LweCiphertext, LweKey};
use crate::params::Params;
use crate::poly::IntPoly;
use crate::tgsw::{Gadget, TgswFft};
use crate::tlwe::TlweKey;
use crate::torus::Torus32;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use pytfhe_telemetry as telemetry;
use pytfhe_wire as wire;

const CT_MAGIC: u32 = 0x5446_4301; // "TFC\x01"
const CK_MAGIC: u32 = 0x5446_4B01; // "TFK\x01"

/// Server-key payload version inside the wire envelope:
/// parameter/bootstrapping/key-switch sections, the bootstrapping key
/// half-complex (split re/im arrays of N/2 points per polynomial).
const SK_WIRE_VERSION: u16 = 3;
/// Payload section holding the parameter-set id.
const SK_SECTION_PARAMS: u16 = 1;
/// Payload section holding the FFT-domain bootstrapping key.
const SK_SECTION_BSK: u16 = 2;
/// Payload section holding the key-switching key.
const SK_SECTION_KSK: u16 = 3;

/// Clamp for speculative `Vec::with_capacity` calls driven by
/// length fields read from untrusted bytes: never pre-reserve more than
/// this many elements before the data proving them present has been
/// seen. Growth past the clamp happens organically as real bytes are
/// consumed.
const MAX_PREALLOC: usize = 1 << 16;

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

/// Serializes the public server key (bootstrapping key in FFT form plus
/// key-switching key) into a checksummed wire envelope. For the default
/// parameters this is on the order of 100 MB — dominated by the
/// FFT-domain bootstrapping key, as in the reference TFHE library —
/// which is exactly why the envelope frames the bootstrapping and
/// key-switching keys as separate sections and covers everything with
/// a CRC32C. The lengths are known up front, so the envelope is one
/// allocation written front to back ([`wire::encode_with`]).
pub fn server_key_to_bytes(key: &ServerKey) -> Bytes {
    let _span = telemetry::span("tfhe", "encode server key");
    let (bsk_len, ksk_len) = (bsk_body_len(key), ksk_body_len(key));
    let payload_len = 3 * wire::SECTION_HEADER_LEN + 4 + bsk_len + ksk_len;
    let envelope =
        wire::encode_with(wire::Format::ServerKey, SK_WIRE_VERSION, payload_len, |out| {
            wire::put_section(out, SK_SECTION_PARAMS, &key.params().id().to_le_bytes());
            wire::put_section_header(out, SK_SECTION_BSK, bsk_len);
            write_bsk(out, key);
            wire::put_section_header(out, SK_SECTION_KSK, ksk_len);
            write_ksk(out, key);
        });
    Bytes::from(envelope)
}

/// Deserializes a server key from its wire envelope.
///
/// # Errors
///
/// Returns [`TfheError::Wire`] when the bytes are not a valid
/// server-key envelope (no envelope magic, checksum mismatch,
/// truncation, version skew), and [`TfheError::Corrupt`] /
/// [`TfheError::UnknownParams`] like [`ciphertext_from_bytes`] for
/// body-level corruption.
pub fn server_key_from_bytes(data: &[u8]) -> Result<ServerKey, TfheError> {
    let _span = telemetry::span("tfhe", "decode server key");
    let env =
        wire::decode_expecting(data, wire::Format::ServerKey, SK_WIRE_VERSION..=SK_WIRE_VERSION)?;
    let mut params_bytes = wire::find_section(env.payload, SK_SECTION_PARAMS)?;
    if params_bytes.remaining() != 4 {
        return Err(TfheError::Corrupt { what: "server key (params section)" });
    }
    let params = Params::from_id(params_bytes.get_u32_le()).ok_or(TfheError::UnknownParams)?;
    let mut bsk = wire::find_section(env.payload, SK_SECTION_BSK)?;
    let bootstrap = parse_bsk(&mut bsk, params)?;
    if bsk.remaining() > 0 {
        return Err(TfheError::Corrupt { what: "server key (trailing bootstrap bytes)" });
    }
    let mut ksk = wire::find_section(env.payload, SK_SECTION_KSK)?;
    let keyswitch = parse_ksk(&mut ksk)?;
    Ok(ServerKey { params, bootstrap, keyswitch })
}

/// Length of the bootstrapping-key body [`write_bsk`] writes.
fn bsk_body_len(key: &ServerKey) -> usize {
    let row_len = |row: &Vec<FreqPoly>| 4 + row.iter().map(|p| 4 + 16 * p.points()).sum::<usize>();
    let tgsw = key.bootstrapping_key().tgsw_raw();
    4 + tgsw.iter().map(|t| 4 + t.rows_raw().iter().map(row_len).sum::<usize>()).sum::<usize>()
}

/// Writes the bootstrapping-key body (the envelope's BSK section).
fn write_bsk(buf: &mut Vec<u8>, key: &ServerKey) {
    let tgsw = key.bootstrapping_key().tgsw_raw();
    buf.put_u32_le(tgsw.len() as u32);
    for t in tgsw {
        let rows = t.rows_raw();
        buf.put_u32_le(rows.len() as u32);
        for row in rows {
            buf.put_u32_le(row.len() as u32);
            for poly in row {
                // Split layout: point count, then all N/2 real parts, then
                // all N/2 imaginary parts, both in natural evaluation
                // order — the bytes do not follow the in-memory
                // (bit-reversed) order of `crate::fft`.
                buf.put_u32_le(poly.points() as u32);
                poly.write_wire(buf);
            }
        }
    }
}

/// Length of the key-switching-key body [`write_ksk`] writes.
fn ksk_body_len(key: &ServerKey) -> usize {
    20 + 4 * key.keyswitch_key().table().len()
}

/// Writes the key-switching-key body (the envelope's KSK section): the
/// header, then the flat sample table as it sits in memory.
fn write_ksk(buf: &mut Vec<u8>, key: &ServerKey) {
    let ks = key.keyswitch_key();
    buf.put_u32_le(ks.src_dim() as u32);
    buf.put_u32_le(ks.dst_dim() as u32);
    buf.put_u32_le(ks.levels() as u32);
    buf.put_u32_le(ks.base_log() as u32);
    buf.put_u32_le(ks.num_samples() as u32);
    let start = buf.len();
    buf.resize(start + 4 * ks.table().len(), 0);
    for (word, t) in buf[start..].chunks_exact_mut(4).zip(ks.table()) {
        word.copy_from_slice(&t.0.to_le_bytes());
    }
}

/// Parses a bootstrapping-key body. Every declared count is validated
/// against the remaining bytes before allocation, so hostile lengths
/// cannot trigger huge reservations or slicing panics.
fn parse_bsk(data: &mut &[u8], params: Params) -> Result<BootstrappingKey, TfheError> {
    let gadget = Gadget { levels: params.decomp_levels, base_log: params.decomp_base_log };
    if data.remaining() < 4 {
        return Err(TfheError::Corrupt { what: "server key (bootstrap count truncated)" });
    }
    let n_tgsw = data.get_u32_le() as usize;
    let mut tgsw = Vec::with_capacity(n_tgsw.min(MAX_PREALLOC));
    for _ in 0..n_tgsw {
        if data.remaining() < 4 {
            return Err(TfheError::Corrupt { what: "server key (bootstrap rows truncated)" });
        }
        let n_rows = data.get_u32_le() as usize;
        let mut rows = Vec::with_capacity(n_rows.min(MAX_PREALLOC));
        for _ in 0..n_rows {
            if data.remaining() < 4 {
                return Err(TfheError::Corrupt { what: "server key (bootstrap row truncated)" });
            }
            let n_polys = data.get_u32_le() as usize;
            let mut row = Vec::with_capacity(n_polys.min(MAX_PREALLOC));
            for _ in 0..n_polys {
                if data.remaining() < 4 {
                    return Err(TfheError::Corrupt { what: "server key (spectrum truncated)" });
                }
                let points = data.get_u32_le() as usize;
                // The transform kernels index a spectrum by the plan's
                // size, so a spectrum of any other size never gets in.
                if points != params.poly_size / 2 {
                    return Err(TfheError::Corrupt { what: "server key (spectrum size)" });
                }
                if data.remaining() < points * 16 {
                    return Err(TfheError::Corrupt { what: "server key (spectrum truncated)" });
                }
                let (spectrum, rest) = data.split_at(points * 16);
                row.push(FreqPoly::read_wire(spectrum));
                *data = rest;
            }
            rows.push(row);
        }
        tgsw.push(TgswFft::from_rows(rows, gadget));
    }
    Ok(BootstrappingKey::from_parts(params, tgsw))
}

/// Parses a key-switching-key body, consuming the slice exactly.
fn parse_ksk(data: &mut &[u8]) -> Result<KeySwitchKey, TfheError> {
    if data.remaining() < 20 {
        return Err(TfheError::Corrupt { what: "server key (key-switch header truncated)" });
    }
    let src_dim = data.get_u32_le() as usize;
    let dst_dim = data.get_u32_le() as usize;
    let levels = data.get_u32_le() as usize;
    let base_log = data.get_u32_le() as usize;
    let n_samples = data.get_u32_le() as usize;
    // The sample block length can reach 2^66 for adversarial headers;
    // validate in u128 so the comparison itself cannot overflow.
    let declared = n_samples as u128 * (dst_dim as u128 + 1) * 4;
    if data.remaining() as u128 != declared {
        return Err(TfheError::Corrupt { what: "server key (key-switch length mismatch)" });
    }
    // The table is the bytes verbatim, so it is allocated only now that
    // the bytes proving its length are known to be present.
    let table = data.chunks_exact(4).map(|w| Torus32(u32::from_le_bytes([w[0], w[1], w[2], w[3]])));
    let table: Vec<Torus32> = table.collect();
    *data = &[];
    Ok(KeySwitchKey::from_parts(table, src_dim, dst_dim, levels, base_log))
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// A well-formed server-key envelope around arbitrary section
    /// bodies, so hostile bodies reach the body parsers.
    fn enveloped_server_key(bsk: &[u8], ksk: &[u8]) -> Vec<u8> {
        let mut payload = Vec::new();
        wire::put_section(&mut payload, SK_SECTION_PARAMS, &Params::testing().id().to_le_bytes());
        wire::put_section(&mut payload, SK_SECTION_BSK, bsk);
        wire::put_section(&mut payload, SK_SECTION_KSK, ksk);
        wire::encode(wire::Format::ServerKey, SK_WIRE_VERSION, &payload)
    }

    #[test]
    fn server_key_round_trip_evaluates_gates() {
        let mut rng = SecureRng::seed_from_u64(93);
        let client = ClientKey::generate(Params::testing(), &mut rng);
        let server = client.server_key(&mut rng);
        let bytes = server_key_to_bytes(&server);
        let back = server_key_from_bytes(&bytes).unwrap();
        // The wire order is independent of the in-memory spectrum order,
        // so the permutation at the boundary must undo itself exactly.
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

        // Server key whose (checksummed, well-framed) sections declare
        // 2^32-1 TGSW entries / samples: must fail a length check, not
        // reserve gigabytes or slice.
        let empty_ksk = [0u8; 20];
        let huge_bsk = u32::MAX.to_le_bytes();
        assert!(server_key_from_bytes(&enveloped_server_key(&huge_bsk, &empty_ksk)).is_err());
        let empty_bsk = 0u32.to_le_bytes(); // zero TGSW entries
        let huge_ksk: Vec<u8> =
            [7u32, 3, 8, 2, u32::MAX].iter().flat_map(|v| v.to_le_bytes()).collect();
        assert!(server_key_from_bytes(&enveloped_server_key(&empty_bsk, &huge_ksk)).is_err());

        // A spectrum of the wrong size for the parameter set is refused
        // at the boundary; the transform kernels never see it.
        // 1 TGSW, 1 row, 1 poly, 2 points.
        let mut bsk: Vec<u8> = [1u32, 1, 1, 2].iter().flat_map(|v| v.to_le_bytes()).collect();
        bsk.extend_from_slice(&[0u8; 32]);
        assert_eq!(
            server_key_from_bytes(&enveloped_server_key(&bsk, &empty_ksk)).unwrap_err(),
            TfheError::Corrupt { what: "server key (spectrum size)" }
        );
    }

    #[test]
    fn server_key_stores_half_size_spectra() {
        let mut rng = SecureRng::seed_from_u64(96);
        let params = Params::testing();
        let client = ClientKey::generate(params, &mut rng);
        let server = client.server_key(&mut rng);
        // Every stored spectrum is folded: exactly N/2 points.
        let mut bsk_len = 4usize; // tgsw count
        for t in server.bootstrapping_key().tgsw_raw() {
            bsk_len += 4;
            for row in t.rows_raw() {
                bsk_len += 4;
                for poly in row {
                    assert_eq!(poly.points(), params.poly_size / 2);
                    bsk_len += 4 + poly.points() * 16;
                }
            }
        }
        let ks = server.keyswitch_key();
        let ksk_len = 20 + ks.num_samples() * (ks.dst_dim() + 1) * 4;
        // Envelope header + three sections (10-byte section headers):
        // params id, bootstrap body, key-switch body.
        let expected = pytfhe_wire::HEADER_LEN + (10 + 4) + (10 + bsk_len) + (10 + ksk_len);
        let bytes = server_key_to_bytes(&server);
        assert_eq!(bytes.len(), expected);
    }
}
