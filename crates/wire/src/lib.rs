//! **pytfhe-wire** — the one versioned, checksummed envelope wrapped
//! around every artifact PyTFHE persists.
//!
//! The pipeline's end-to-end story (capture a plan, install a key,
//! checkpoint a run, restart, replay) only holds if the bytes written
//! yesterday still decode today — through process crashes mid-write,
//! bit rot on disk, and format evolution across releases. Historically
//! the repo grew three independent on-disk layouts (`TFS\x02` server
//! keys, `PTKG` kernel plans, `PTCK` checkpoints), each with its own
//! ad-hoc magic and version handling and — for keys and plans — no
//! integrity check at all. This crate replaced them with one
//! self-describing envelope, now the only layout any reader accepts
//! (the old ones fail [`decode`] with [`WireError::BadMagic`]):
//!
//! ```text
//! offset 0   "PTW1"            envelope magic (4 bytes)
//! offset 4   format id         u16 LE — which artifact family
//! offset 6   format version    u16 LE — layout revision of the payload
//! offset 8   payload length    u64 LE
//! offset 16  CRC32C            u32 LE over header (crc field zeroed)
//!                              and payload
//! offset 20  payload           `payload length` bytes
//! ```
//!
//! * **One decode discipline.** [`decode`] verifies magic, length, and
//!   checksum before any payload byte is interpreted, so every format's
//!   parser starts from a buffer already known to be exactly what was
//!   written. Corruption surfaces as a typed [`WireError`], never a
//!   panic and never a silently-wrong artifact.
//! * **Versioning.** The `(format, version)` pair travels with the
//!   bytes; readers reject unknown formats and versions precisely
//!   instead of misparsing.
//! * **Section framing** ([`put_section`] / [`sections`]) for large
//!   artifacts: a payload can be built from tagged, length-prefixed
//!   sections so readers skip unknown tags (forward compatibility) and
//!   multi-part artifacts (a 100 MB server key: bootstrapping key +
//!   key-switching key) frame their parts independently.
//!
//! The checksum is CRC32C (Castagnoli, the iSCSI/ext4 polynomial) —
//! strong enough to catch every torn write, truncation, and single-bit
//! flip the storage fault injector throws at it, cheap enough to verify
//! on every load of a 100 MB key.

use std::fmt;

/// The envelope magic: `PTW1`.
pub const MAGIC: [u8; 4] = *b"PTW1";

/// Envelope header length in bytes (magic + format + version + payload
/// length + CRC32C).
pub const HEADER_LEN: usize = 20;

/// Artifact families carried by the envelope. The discriminants are the
/// on-wire format ids and must never be reused or renumbered.
///
/// Ids 4–8 are the streaming request/response frames of the
/// `pytfhe-serve` multi-tenant serving protocol; they ride the same
/// envelope (and hence the same checksum discipline) as the persisted
/// artifacts, prefixed on the stream by a `u32` frame length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum Format {
    /// A serialized `ServerKey` (bootstrapping + key-switching key).
    ServerKey = 1,
    /// A captured `KernelPlan` (batched kernel-graph execution plan).
    KernelPlan = 2,
    /// A wave-barrier `Checkpoint` snapshot.
    Checkpoint = 3,
    /// Serving request: install a tenant's evaluation key.
    ServeInstallKey = 4,
    /// Serving request: submit a program with its input ciphertexts.
    ServeSubmit = 5,
    /// Serving request: fetch the result ciphertexts of a submitted job.
    ServeFetch = 6,
    /// Serving request: close the session.
    ServeClose = 7,
    /// Serving response frame (status + per-request payload).
    ServeReply = 8,
}

impl Format {
    /// The on-wire id.
    pub fn id(self) -> u16 {
        self as u16
    }

    /// Resolves an on-wire id.
    pub fn from_id(id: u16) -> Option<Self> {
        match id {
            1 => Some(Format::ServerKey),
            2 => Some(Format::KernelPlan),
            3 => Some(Format::Checkpoint),
            4 => Some(Format::ServeInstallKey),
            5 => Some(Format::ServeSubmit),
            6 => Some(Format::ServeFetch),
            7 => Some(Format::ServeClose),
            8 => Some(Format::ServeReply),
            _ => None,
        }
    }

    /// Human-readable artifact name (error messages, telemetry labels).
    pub fn name(self) -> &'static str {
        match self {
            Format::ServerKey => "server key",
            Format::KernelPlan => "kernel plan",
            Format::Checkpoint => "checkpoint",
            Format::ServeInstallKey => "serve install-key request",
            Format::ServeSubmit => "serve submit-program request",
            Format::ServeFetch => "serve fetch-result request",
            Format::ServeClose => "serve close request",
            Format::ServeReply => "serve response",
        }
    }
}

impl fmt::Display for Format {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Typed decode failures. Every corrupt, truncated, torn, or
/// version-skewed artifact must surface as one of these — decode paths
/// never panic and never accept garbage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than the claimed structure requires.
    Truncated {
        /// What was being read when the bytes ran out.
        what: &'static str,
    },
    /// The envelope magic is absent or wrong.
    BadMagic,
    /// The envelope carries a format id this build does not know.
    UnknownFormat(u16),
    /// The envelope carries a format this reader did not expect (e.g. a
    /// checkpoint handed to the plan loader).
    FormatMismatch {
        /// The format the reader wanted.
        expected: Format,
        /// The format id actually found.
        got: u16,
    },
    /// The payload layout revision is newer (or older) than this reader
    /// supports.
    UnsupportedVersion {
        /// The artifact family.
        format: Format,
        /// The version found on the wire.
        version: u16,
    },
    /// The CRC32C over header+payload does not match: torn write, bit
    /// rot, or tampering.
    ChecksumMismatch {
        /// Checksum recorded in the envelope.
        stored: u32,
        /// Checksum computed over the bytes actually present.
        computed: u32,
    },
    /// The declared payload length disagrees with the bytes present.
    LengthMismatch {
        /// Length the header declares.
        declared: u64,
        /// Payload bytes actually present.
        actual: u64,
    },
    /// A declared count or length would overflow or exceed sanity
    /// limits (adversarial input defense).
    Oversized {
        /// What was oversized.
        what: &'static str,
    },
    /// Section framing inside the payload is inconsistent.
    BadSection {
        /// What was wrong.
        reason: &'static str,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { what } => write!(f, "truncated while reading {what}"),
            WireError::BadMagic => write!(f, "missing or wrong envelope magic"),
            WireError::UnknownFormat(id) => write!(f, "unknown wire format id {id}"),
            WireError::FormatMismatch { expected, got } => {
                write!(f, "expected a {expected} envelope, found format id {got}")
            }
            WireError::UnsupportedVersion { format, version } => {
                write!(f, "unsupported {format} format version {version}")
            }
            WireError::ChecksumMismatch { stored, computed } => {
                write!(f, "checksum mismatch: stored {stored:#010x}, computed {computed:#010x}")
            }
            WireError::LengthMismatch { declared, actual } => {
                write!(f, "payload length mismatch: declared {declared}, present {actual}")
            }
            WireError::Oversized { what } => write!(f, "implausibly large {what}"),
            WireError::BadSection { reason } => write!(f, "bad section framing: {reason}"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------
// CRC32C (Castagnoli), software slice-by-one with a const-built table.
// ---------------------------------------------------------------------

/// Reflected Castagnoli polynomial.
const CRC32C_POLY: u32 = 0x82F6_3B78;

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ CRC32C_POLY } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = build_crc_table();

/// Slice-by-8 companion tables: `CRC_TABLES[k][b]` is the CRC
/// contribution of byte `b` positioned `k` bytes before the end of an
/// 8-byte block, letting [`crc32c_update`] fold 8 input bytes per step
/// instead of one. Multi-megabyte server keys cross the envelope layer
/// on every install and warm start, so the bytewise loop was a
/// measurable share of those paths.
const fn build_crc_tables() -> [[u32; 256]; 8] {
    let base = build_crc_table();
    let mut tables = [[0u32; 256]; 8];
    tables[0] = base;
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ base[(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

/// CRC32C (Castagnoli) of `bytes`, matching the iSCSI/RFC 3720
/// specification (and hence hardware `crc32` instructions, should a
/// SIMD backend ever take this over).
pub fn crc32c(bytes: &[u8]) -> u32 {
    crc32c_update(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// Streaming form: feed chunks through an accumulator initialized to
/// `0xFFFF_FFFF` and finish by XORing with `0xFFFF_FFFF`.
///
/// Internally slice-by-8: each step XORs the running state into the
/// first 4 of 8 input bytes and folds all 8 through per-position
/// tables, with a bytewise loop only for the unaligned tail.
pub fn crc32c_update(mut state: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ state;
        let [l0, l1, l2, l3] = lo.to_le_bytes();
        state = CRC_TABLES[7][l0 as usize]
            ^ CRC_TABLES[6][l1 as usize]
            ^ CRC_TABLES[5][l2 as usize]
            ^ CRC_TABLES[4][l3 as usize]
            ^ CRC_TABLES[3][chunk[4] as usize]
            ^ CRC_TABLES[2][chunk[5] as usize]
            ^ CRC_TABLES[1][chunk[6] as usize]
            ^ CRC_TABLES[0][chunk[7] as usize];
    }
    for &b in chunks.remainder() {
        state = (state >> 8) ^ CRC_TABLE[((state ^ u32::from(b)) & 0xFF) as usize];
    }
    state
}

// ---------------------------------------------------------------------
// Envelope encode/decode.
// ---------------------------------------------------------------------

/// A decoded envelope borrowing the verified payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Envelope<'a> {
    /// The artifact family.
    pub format: Format,
    /// Payload layout revision.
    pub version: u16,
    /// The checksum-verified payload bytes.
    pub payload: &'a [u8],
}

/// Wraps `payload` in a checksummed envelope.
pub fn encode(format: Format, version: u16, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&format.id().to_le_bytes());
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&[0u8; 4]); // crc placeholder
    out.extend_from_slice(payload);
    let crc = crc32c(&out);
    out[16..20].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Verifies and opens an envelope: magic, declared length, and CRC32C
/// are all checked before the payload is exposed.
///
/// # Errors
///
/// Returns the precise [`WireError`] for each failure mode; see the
/// enum's variants.
pub fn decode(bytes: &[u8]) -> Result<Envelope<'_>, WireError> {
    if !bytes.starts_with(&MAGIC) {
        return Err(WireError::BadMagic);
    }
    if bytes.len() < HEADER_LEN {
        return Err(WireError::Truncated { what: "envelope header" });
    }
    let format_id = u16::from_le_bytes([bytes[4], bytes[5]]);
    let version = u16::from_le_bytes([bytes[6], bytes[7]]);
    let declared = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let stored = u32::from_le_bytes(bytes[16..20].try_into().expect("4 bytes"));
    let actual = (bytes.len() - HEADER_LEN) as u64;
    if declared != actual {
        return Err(WireError::LengthMismatch { declared, actual });
    }
    // CRC over the header with a zeroed crc field, then the payload.
    let mut state = crc32c_update(0xFFFF_FFFF, &bytes[..16]);
    state = crc32c_update(state, &[0u8; 4]);
    state = crc32c_update(state, &bytes[HEADER_LEN..]);
    let computed = state ^ 0xFFFF_FFFF;
    if computed != stored {
        return Err(WireError::ChecksumMismatch { stored, computed });
    }
    let format = Format::from_id(format_id).ok_or(WireError::UnknownFormat(format_id))?;
    Ok(Envelope { format, version, payload: &bytes[HEADER_LEN..] })
}

/// [`decode`] plus format and version admission: the envelope must
/// carry `format` at a version in `supported`.
///
/// # Errors
///
/// [`WireError::FormatMismatch`] / [`WireError::UnsupportedVersion`] on
/// top of the plain [`decode`] failures.
pub fn decode_expecting<'a>(
    bytes: &'a [u8],
    format: Format,
    supported: std::ops::RangeInclusive<u16>,
) -> Result<Envelope<'a>, WireError> {
    let env = decode(bytes)?;
    if env.format != format {
        return Err(WireError::FormatMismatch { expected: format, got: env.format.id() });
    }
    if !supported.contains(&env.version) {
        return Err(WireError::UnsupportedVersion { format, version: env.version });
    }
    Ok(env)
}

// ---------------------------------------------------------------------
// Section framing.
// ---------------------------------------------------------------------

/// Appends a tagged section (`tag` u16, length u64, body) to a payload
/// under construction. Readers iterate with [`sections`] and may skip
/// tags they do not know, which is how payloads grow fields without a
/// version bump.
pub fn put_section(out: &mut Vec<u8>, tag: u16, body: &[u8]) {
    out.extend_from_slice(&tag.to_le_bytes());
    out.extend_from_slice(&(body.len() as u64).to_le_bytes());
    out.extend_from_slice(body);
}

/// Iterates the `(tag, body)` sections of a payload built with
/// [`put_section`].
pub fn sections(payload: &[u8]) -> SectionIter<'_> {
    SectionIter { rest: payload }
}

/// Iterator over payload sections; yields `Err` once (then `None`) if
/// the framing is inconsistent.
#[derive(Debug, Clone)]
pub struct SectionIter<'a> {
    rest: &'a [u8],
}

impl<'a> Iterator for SectionIter<'a> {
    type Item = Result<(u16, &'a [u8]), WireError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.rest.is_empty() {
            return None;
        }
        if self.rest.len() < 10 {
            self.rest = &[];
            return Some(Err(WireError::BadSection { reason: "truncated section header" }));
        }
        let tag = u16::from_le_bytes([self.rest[0], self.rest[1]]);
        let len = u64::from_le_bytes(self.rest[2..10].try_into().expect("8 bytes"));
        let Ok(len) = usize::try_from(len) else {
            self.rest = &[];
            return Some(Err(WireError::BadSection { reason: "section length overflow" }));
        };
        let body_and_rest = &self.rest[10..];
        if body_and_rest.len() < len {
            self.rest = &[];
            return Some(Err(WireError::BadSection { reason: "section body truncated" }));
        }
        let (body, rest) = body_and_rest.split_at(len);
        self.rest = rest;
        Some(Ok((tag, body)))
    }
}

/// Finds the body of the (first) section with `tag`, validating the
/// whole frame along the way.
///
/// # Errors
///
/// [`WireError::BadSection`] if the framing is inconsistent or the tag
/// is absent.
pub fn find_section(payload: &[u8], tag: u16) -> Result<&[u8], WireError> {
    for s in sections(payload) {
        let (t, body) = s?;
        if t == tag {
            return Ok(body);
        }
    }
    Err(WireError::BadSection { reason: "required section missing" })
}

// ---------------------------------------------------------------------
// RLE-over-zero-runs transfer compression.
// ---------------------------------------------------------------------

/// Tag bit marking a section body as RLE-compressed ([`put_section_packed`]).
///
/// The flag lives in the tag word itself, so a reader that predates the
/// compression scheme sees an unknown tag and *skips the section* — the
/// standard skippable-section forward-compatibility rule — instead of
/// misreading compressed bytes as a plain body. Plain tags must
/// therefore stay below `0x8000`.
pub const SECTION_COMPRESSED_FLAG: u16 = 0x8000;

/// Hard ceiling on a declared decompressed length (adversarial-input
/// defense): serve frames and persisted artifacts never approach this.
const MAX_RLE_DECOMPRESSED: u64 = 1 << 32;

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn get_varint(data: &mut &[u8]) -> Result<u64, WireError> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let Some((&byte, rest)) = data.split_first() else {
            return Err(WireError::Truncated { what: "RLE varint" });
        };
        *data = rest;
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(WireError::BadSection { reason: "RLE varint overflow" })
}

/// Compresses `bytes` with run-length encoding over zero runs: a
/// varint-framed alternation of literal blocks and zero-run lengths.
///
/// FHE transfer payloads split into two populations: ciphertext masks
/// and key spectra are high-entropy (incompressible — RLE leaves them
/// essentially untouched), while program binaries (128-bit instruction
/// words carrying 62-bit indices of mostly-small values) and framing
/// metadata are dominated by zero bytes and shrink severalfold. RLE over
/// zero runs captures exactly that second population at streaming speed
/// with no dependency and no entropy-coder state.
///
/// Layout: `[raw_len varint]` then repeated
/// `[literal_len varint][literal bytes][zero_run varint]` until
/// `raw_len` bytes are accounted for (a trailing zero-run of 0 is
/// omitted).
pub fn rle_compress(bytes: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(bytes.len() / 2 + 16);
    put_varint(&mut out, bytes.len() as u64);
    let mut i = 0;
    while i < bytes.len() {
        // A literal run extends until a zero run of ≥2 bytes starts —
        // breaking literals for a lone zero costs more than it saves.
        let lit_start = i;
        while i < bytes.len() {
            if bytes[i] == 0 && (i + 1 < bytes.len() && bytes[i + 1] == 0 || i + 1 == bytes.len()) {
                break;
            }
            i += 1;
        }
        put_varint(&mut out, (i - lit_start) as u64);
        out.extend_from_slice(&bytes[lit_start..i]);
        if i == bytes.len() {
            break;
        }
        let zero_start = i;
        while i < bytes.len() && bytes[i] == 0 {
            i += 1;
        }
        put_varint(&mut out, (i - zero_start) as u64);
    }
    out
}

/// Inverse of [`rle_compress`].
///
/// # Errors
///
/// Returns [`WireError::Truncated`] / [`WireError::BadSection`] when the
/// token stream is torn, over-long, or disagrees with its declared
/// decompressed length — corrupt input never panics and never
/// over-allocates past the declared (sanity-capped) length.
pub fn rle_decompress(mut data: &[u8]) -> Result<Vec<u8>, WireError> {
    let raw_len = get_varint(&mut data)?;
    if raw_len > MAX_RLE_DECOMPRESSED {
        return Err(WireError::Oversized { what: "RLE decompressed length" });
    }
    // The compressed stream spends at least one byte per 127 decompressed
    // zero bytes; cap the preallocation by what the stream could prove.
    let mut out = Vec::with_capacity((raw_len as usize).min(data.len().saturating_mul(128) + 16));
    while (out.len() as u64) < raw_len {
        let lit = get_varint(&mut data)?;
        if lit > raw_len - out.len() as u64 {
            return Err(WireError::BadSection { reason: "RLE literal overruns declared length" });
        }
        let lit = lit as usize;
        if data.len() < lit {
            return Err(WireError::Truncated { what: "RLE literal block" });
        }
        out.extend_from_slice(&data[..lit]);
        data = &data[lit..];
        if (out.len() as u64) == raw_len {
            break;
        }
        let zeros = get_varint(&mut data)?;
        if zeros > raw_len - out.len() as u64 {
            return Err(WireError::BadSection { reason: "RLE zero run overruns declared length" });
        }
        out.resize(out.len() + zeros as usize, 0);
    }
    if !data.is_empty() {
        return Err(WireError::BadSection { reason: "RLE trailing bytes" });
    }
    Ok(out)
}

/// [`put_section`] with transparent RLE compression: the body is
/// compressed when that actually shrinks it (the section is then tagged
/// `tag | SECTION_COMPRESSED_FLAG`) and stored plain otherwise, so
/// incompressible ciphertext payloads never pay an expansion penalty.
///
/// # Panics
///
/// Panics if `tag` already carries the flag bit.
pub fn put_section_packed(out: &mut Vec<u8>, tag: u16, body: &[u8]) {
    assert!(tag & SECTION_COMPRESSED_FLAG == 0, "plain section tags must stay below 0x8000");
    // Zero-run RLE can only win on zero-dense bodies. For large bodies
    // (multi-megabyte key spectra are the common case), sample the zero
    // density of a prefix before paying a full compression pass that is
    // all but guaranteed to be discarded; zero-dominated program
    // binaries sail past this gate.
    const SAMPLE: usize = 64 * 1024;
    if body.len() > SAMPLE {
        let zeros = body[..SAMPLE].iter().filter(|&&b| b == 0).count();
        if zeros < SAMPLE / 8 {
            put_section(out, tag, body);
            return;
        }
    }
    let packed = rle_compress(body);
    if packed.len() < body.len() {
        put_section(out, tag | SECTION_COMPRESSED_FLAG, &packed);
    } else {
        put_section(out, tag, body);
    }
}

/// Finds section `tag`, accepting both the plain and the compressed
/// encoding (decompressing the latter).
///
/// # Errors
///
/// [`WireError::BadSection`] if the tag is absent or the framing or RLE
/// stream is inconsistent.
pub fn find_section_packed(payload: &[u8], tag: u16) -> Result<Vec<u8>, WireError> {
    for s in sections(payload) {
        let (t, body) = s?;
        if t == tag {
            return Ok(body.to_vec());
        }
        if t == tag | SECTION_COMPRESSED_FLAG {
            return rle_decompress(body);
        }
    }
    Err(WireError::BadSection { reason: "required section missing" })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32c_reference_vectors() {
        // RFC 3720 / Intel reference vectors.
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
    }

    #[test]
    fn crc32c_streaming_matches_one_shot() {
        let data: Vec<u8> = (0..=255u8).collect();
        let mut state = 0xFFFF_FFFFu32;
        for chunk in data.chunks(7) {
            state = crc32c_update(state, chunk);
        }
        assert_eq!(state ^ 0xFFFF_FFFF, crc32c(&data));
    }

    #[test]
    fn envelope_round_trip() {
        let payload = b"the artifact body";
        let bytes = encode(Format::KernelPlan, 3, payload);
        let env = decode(&bytes).unwrap();
        assert_eq!(env.format, Format::KernelPlan);
        assert_eq!(env.version, 3);
        assert_eq!(env.payload, payload);
        let env = decode_expecting(&bytes, Format::KernelPlan, 2..=4).unwrap();
        assert_eq!(env.payload, payload);
    }

    #[test]
    fn empty_payload_round_trips() {
        let bytes = encode(Format::Checkpoint, 1, &[]);
        assert_eq!(bytes.len(), HEADER_LEN);
        assert_eq!(decode(&bytes).unwrap().payload, b"");
    }

    #[test]
    fn every_single_bit_flip_is_caught() {
        let bytes = encode(Format::ServerKey, 2, b"some payload bytes here");
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[byte] ^= 1 << bit;
                assert!(decode(&bad).is_err(), "flip of byte {byte} bit {bit} went undetected");
            }
        }
    }

    #[test]
    fn every_truncation_is_caught() {
        let bytes = encode(Format::ServerKey, 1, b"0123456789abcdef");
        for keep in 0..bytes.len() {
            assert!(decode(&bytes[..keep]).is_err(), "truncation to {keep} bytes accepted");
        }
    }

    #[test]
    fn trailing_garbage_is_caught() {
        let mut bytes = encode(Format::Checkpoint, 1, b"xyz");
        bytes.push(0);
        assert!(matches!(decode(&bytes), Err(WireError::LengthMismatch { .. })));
    }

    #[test]
    fn format_and_version_admission() {
        let bytes = encode(Format::Checkpoint, 9, b"p");
        assert_eq!(
            decode_expecting(&bytes, Format::KernelPlan, 1..=9).unwrap_err(),
            WireError::FormatMismatch { expected: Format::KernelPlan, got: 3 }
        );
        assert_eq!(
            decode_expecting(&bytes, Format::Checkpoint, 1..=8).unwrap_err(),
            WireError::UnsupportedVersion { format: Format::Checkpoint, version: 9 }
        );
    }

    #[test]
    fn unknown_format_id_is_rejected_after_checksum() {
        // Build an envelope with a format id from the future; recompute
        // the crc so only the id is "wrong".
        let mut bytes = encode(Format::ServerKey, 1, b"p");
        bytes[4] = 0x7F;
        bytes[16..20].copy_from_slice(&[0; 4]);
        let mut state = crc32c_update(0xFFFF_FFFF, &bytes[..16]);
        state = crc32c_update(state, &[0u8; 4]);
        state = crc32c_update(state, &bytes[HEADER_LEN..]);
        bytes[16..20].copy_from_slice(&(state ^ 0xFFFF_FFFF).to_le_bytes());
        assert_eq!(decode(&bytes).unwrap_err(), WireError::UnknownFormat(0x7F));
    }

    #[test]
    fn bytes_without_the_envelope_magic_are_refused_whatever_their_length() {
        let pre_envelope_key = [b"TFS\x02".as_ref(), &[0u8; 64]].concat();
        for bytes in [b"".as_ref(), b"PT", b"PTKG\x01", b"PTCK", &pre_envelope_key] {
            assert_eq!(decode(bytes).unwrap_err(), WireError::BadMagic, "{bytes:?}");
        }
        assert!(decode(&encode(Format::ServerKey, 1, b"")).is_ok());
    }

    #[test]
    fn sections_round_trip_and_skip_unknown_tags() {
        let mut payload = Vec::new();
        put_section(&mut payload, 1, b"first");
        put_section(&mut payload, 99, b"from the future");
        put_section(&mut payload, 2, b"second");
        let got: Vec<_> = sections(&payload).collect::<Result<_, _>>().unwrap();
        assert_eq!(
            got,
            vec![
                (1, b"first".as_ref()),
                (99, b"from the future".as_ref()),
                (2, b"second".as_ref())
            ]
        );
        assert_eq!(find_section(&payload, 2).unwrap(), b"second");
        assert!(find_section(&payload, 3).is_err());
    }

    #[test]
    fn serve_frame_formats_round_trip_their_ids() {
        for format in [
            Format::ServeInstallKey,
            Format::ServeSubmit,
            Format::ServeFetch,
            Format::ServeClose,
            Format::ServeReply,
        ] {
            assert_eq!(Format::from_id(format.id()), Some(format));
            let bytes = encode(format, 1, b"frame");
            assert_eq!(decode(&bytes).unwrap().format, format);
        }
        assert_eq!(Format::from_id(9), None);
    }

    #[test]
    fn rle_round_trips_representative_payloads() {
        let cases: Vec<Vec<u8>> = vec![
            vec![],
            vec![0],
            vec![0; 1000],
            vec![7; 300],
            b"interleaved\x00\x00\x00\x00zero\x00runs\x00\x00and literals".to_vec(),
            (0..=255u8).collect(),
            // The shape of an asm program binary: small LE values in wide
            // words, i.e. mostly zero bytes.
            (0..200u64).flat_map(|v| (v % 37).to_le_bytes()).collect(),
        ];
        for case in &cases {
            let packed = rle_compress(case);
            assert_eq!(&rle_decompress(&packed).unwrap(), case);
        }
        // The sparse word case must actually shrink.
        let sparse: Vec<u8> = (0..200u64).flat_map(|v| (v % 37).to_le_bytes()).collect();
        assert!(rle_compress(&sparse).len() * 2 < sparse.len());
    }

    #[test]
    fn rle_rejects_corrupt_streams() {
        let packed = rle_compress(b"hello\x00\x00\x00world");
        // Every truncation errors, never panics.
        for keep in 0..packed.len() {
            assert!(rle_decompress(&packed[..keep]).is_err(), "truncation to {keep}");
        }
        // Trailing garbage is rejected.
        let mut long = packed.clone();
        long.push(1);
        assert!(rle_decompress(&long).is_err());
        // A declared length beyond the sanity cap is rejected up front.
        let mut huge = Vec::new();
        super::put_varint(&mut huge, u64::MAX);
        assert_eq!(
            rle_decompress(&huge).unwrap_err(),
            WireError::Oversized { what: "RLE decompressed length" }
        );
        // Tokens overrunning the declared length are rejected.
        let mut lying = Vec::new();
        super::put_varint(&mut lying, 2); // declares 2 bytes
        super::put_varint(&mut lying, 5); // literal of 5
        lying.extend_from_slice(b"abcde");
        assert!(rle_decompress(&lying).is_err());
    }

    #[test]
    fn packed_sections_compress_sparse_bodies_and_pass_dense_ones_through() {
        let sparse: Vec<u8> = (0..400u64).flat_map(|v| (v % 11).to_le_bytes()).collect();
        let dense: Vec<u8> =
            (0..400u32).flat_map(|v| v.wrapping_mul(2654435761).to_le_bytes()).collect();
        let mut payload = Vec::new();
        put_section_packed(&mut payload, 1, &sparse);
        put_section_packed(&mut payload, 2, &dense);
        // The sparse body rides compressed (flagged tag), the dense one plain.
        let tags: Vec<u16> = sections(&payload).map(|s| s.unwrap().0).collect();
        assert_eq!(tags, vec![1 | SECTION_COMPRESSED_FLAG, 2]);
        assert_eq!(find_section_packed(&payload, 1).unwrap(), sparse);
        assert_eq!(find_section_packed(&payload, 2).unwrap(), dense);
        assert!(find_section_packed(&payload, 3).is_err());
        // A pre-compression reader skips the flagged tag instead of
        // misparsing it, and still finds the plain section.
        assert!(find_section(&payload, 1).is_err());
        assert_eq!(find_section(&payload, 2).unwrap(), dense);
    }

    #[test]
    fn corrupt_section_framing_is_rejected() {
        let mut payload = Vec::new();
        put_section(&mut payload, 1, b"body");
        // Truncate inside the body.
        let torn = &payload[..payload.len() - 2];
        assert!(sections(torn).any(|s| s.is_err()));
        // A section header cut short.
        assert!(sections(&payload[..5]).any(|s| s.is_err()));
        // Declared length far past the buffer.
        let mut lying = payload.clone();
        lying[2..10].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(sections(&lying).any(|s| s.is_err()));
    }
}
