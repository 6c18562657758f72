//! The serving protocol's frame layer.
//!
//! Every message on the stream is a length-delimited [`pytfhe_wire`]
//! envelope: a `u32` little-endian byte count followed by that many
//! envelope bytes. The envelope's format id names the message kind
//! (install-key, submit, fetch, close, reply) and its payload is a
//! section list, so unknown sections skip cleanly and assembled
//! programs, which are sparse, travel RLE-compressed via
//! [`pytfhe_wire::put_section_packed`].
//!
//! A server key travels as a plain section (its spectra are dense and
//! would not compress), so it crosses the transport with one copy on
//! each side: [`write_frame`] computes the envelope header over the
//! payload's parts — the `KEY` section header, then the caller's key
//! bytes — and writes the parts after it, and [`read_frame`] returns the
//! verified buffer it read into, from which [`decode_install_key`] lends
//! the key bytes.
//!
//! | frame          | sections                                        |
//! |----------------|-------------------------------------------------|
//! | `ServeInstallKey` | `KEY` (server-key envelope; plain, packed also accepted) |
//! | `ServeSubmit`  | `FINGERPRINT`, `PROGRAM` (packed asm), `INPUTS` |
//! | `ServeFetch`   | `JOB`                                           |
//! | `ServeClose`   | —                                               |
//! | `ServeReply`   | `STATUS` (+ `FINGERPRINT`/`JOB`/`OUTPUTS`/`LIMITS`/`MESSAGE`) |

use std::borrow::Cow;
use std::io::{Read, Write};

use pytfhe_backend::ExecError;
use pytfhe_netlist::Netlist;
use pytfhe_tfhe::io::{ciphertext_from_bytes, ciphertext_to_bytes};
use pytfhe_tfhe::{LweCiphertext, Params};
use pytfhe_wire::{
    find_section, find_section_packed, header, put_section, put_section_header, put_section_packed,
    sections, Format, HEADER_LEN, SECTION_HEADER_LEN,
};

use crate::error::ServeError;

/// Version of every serving frame this build emits.
pub const FRAME_VERSION: u16 = 1;

/// Hard ceiling on a single frame, guarding allocation on hostile or
/// corrupt length prefixes. Testing-parameter server keys are ~2 MiB and
/// a `default_128` key is 118 MiB, so 256 MiB leaves a little over 2×
/// headroom for the largest frame served today.
pub const MAX_FRAME_LEN: u32 = 1 << 28;

/// Section tags of the serving protocol.
pub mod tags {
    /// Packed server-key envelope bytes.
    pub const KEY: u16 = 1;
    /// `u64` LE key fingerprint (the tenant identity).
    pub const FINGERPRINT: u16 = 2;
    /// Packed assembled program binary.
    pub const PROGRAM: u16 = 3;
    /// Ciphertext list: `count u32 LE`, then per entry `len u32 LE` + bytes.
    pub const INPUTS: u16 = 4;
    /// `u64` LE job id.
    pub const JOB: u16 = 5;
    /// Ciphertext list, same layout as `INPUTS`.
    pub const OUTPUTS: u16 = 6;
    /// `u16` LE status code.
    pub const STATUS: u16 = 7;
    /// UTF-8 diagnostic text.
    pub const MESSAGE: u16 = 8;
    /// Two `u64` LE values qualifying an admission rejection
    /// (`live/max` or `in_flight/quota`).
    pub const LIMITS: u16 = 9;
}

/// Reply status codes carried in the `STATUS` section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum Status {
    /// Request succeeded.
    Ok = 0,
    /// Session admission refused: server at capacity.
    Overloaded = 1,
    /// Submit refused: tenant at its in-flight quota.
    QuotaExceeded = 2,
    /// Fetch referenced an id the server does not know.
    UnknownJob = 3,
    /// Submit referenced an uninstalled, unrecoverable key.
    UnknownKey = 4,
    /// The request frame itself was malformed.
    BadRequest = 5,
    /// The server failed internally while handling the request.
    Internal = 6,
    /// The server is shutting down.
    ShuttingDown = 7,
}

impl Status {
    fn from_code(code: u16) -> Option<Self> {
        Some(match code {
            0 => Status::Ok,
            1 => Status::Overloaded,
            2 => Status::QuotaExceeded,
            3 => Status::UnknownJob,
            4 => Status::UnknownKey,
            5 => Status::BadRequest,
            6 => Status::Internal,
            7 => Status::ShuttingDown,
            _ => return None,
        })
    }
}

/// Writes one frame: `u32` LE length prefix, then the envelope whose
/// payload is `parts`, in order. The prefix and the [`header`], its
/// CRC32C already computed over the parts, go out first; then each part
/// from the caller's buffer, so no payload or envelope is gathered.
///
/// # Errors
///
/// Returns [`ServeError::Io`] when the transport fails and
/// [`ServeError::Protocol`] when the envelope exceeds [`MAX_FRAME_LEN`].
pub fn write_frame(w: &mut impl Write, format: Format, parts: &[&[u8]]) -> Result<(), ServeError> {
    let env_len = HEADER_LEN + parts.iter().map(|part| part.len()).sum::<usize>();
    let len = u32::try_from(env_len)
        .ok()
        .filter(|&l| l <= MAX_FRAME_LEN)
        .ok_or_else(|| ServeError::Protocol(format!("frame of {env_len} bytes too large")))?;
    let mut head = [0u8; 4 + HEADER_LEN];
    head[..4].copy_from_slice(&len.to_le_bytes());
    head[4..].copy_from_slice(&header(format, FRAME_VERSION, parts));
    w.write_all(&head)?;
    for part in parts {
        w.write_all(part)?;
    }
    w.flush()?;
    Ok(())
}

/// One received frame: the envelope read off the transport, its length
/// and CRC32C verified before any payload byte is interpreted.
#[derive(Debug)]
pub struct Frame {
    /// The message kind.
    pub format: Format,
    /// The frame layout version.
    pub version: u16,
    envelope: Vec<u8>,
}

impl Frame {
    /// The verified payload, lent from the buffer the frame was read into.
    pub fn payload(&self) -> &[u8] {
        &self.envelope[HEADER_LEN..]
    }
}

/// Reads one frame into one buffer of its declared length and verifies
/// it.
///
/// Returns `Ok(None)` on clean EOF at a frame boundary (the peer closed
/// the connection).
///
/// # Errors
///
/// Returns [`ServeError::Io`] on transport failure mid-frame,
/// [`ServeError::Protocol`] on an oversized frame, and
/// [`ServeError::Wire`] when the envelope fails validation (including an
/// unknown format).
pub fn read_frame(r: &mut impl Read) -> Result<Option<Frame>, ServeError> {
    let mut len_buf = [0u8; 4];
    // Distinguish EOF-at-boundary from a torn length prefix.
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => return Err(ServeError::Protocol("connection closed mid length prefix".into())),
            n => filled += n,
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME_LEN {
        return Err(ServeError::Protocol(format!(
            "declared frame of {len} bytes exceeds the {MAX_FRAME_LEN} byte ceiling"
        )));
    }
    let mut envelope = vec![0u8; len as usize];
    r.read_exact(&mut envelope)?;
    let decoded = pytfhe_wire::decode(&envelope)?;
    let (format, version) = (decoded.format, decoded.version);
    Ok(Some(Frame { format, version, envelope }))
}

fn ct_list_section(out: &mut Vec<u8>, tag: u16, cts: &[LweCiphertext], params: &Params) {
    let mut body = Vec::new();
    body.extend_from_slice(&(cts.len() as u32).to_le_bytes());
    for ct in cts {
        let bytes = ciphertext_to_bytes(ct, params);
        body.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        body.extend_from_slice(&bytes);
    }
    put_section(out, tag, &body);
}

/// Parses a ciphertext list and the parameter set its entries are
/// tagged with (`None` for an empty list); a list whose entries disagree
/// is refused.
fn parse_ct_list(body: &[u8]) -> Result<(Vec<LweCiphertext>, Option<Params>), ServeError> {
    let bad = |msg: &str| ServeError::Protocol(format!("ciphertext list: {msg}"));
    if body.len() < 4 {
        return Err(bad("truncated count"));
    }
    let count = u32::from_le_bytes(body[..4].try_into().expect("length checked")) as usize;
    let mut rest = &body[4..];
    // A ciphertext is at least its 12-byte header; reject absurd counts
    // before allocating.
    if count > rest.len() / 12 + 1 {
        return Err(bad("declared count exceeds available bytes"));
    }
    let mut cts = Vec::with_capacity(count);
    let mut tagged = None;
    for _ in 0..count {
        if rest.len() < 4 {
            return Err(bad("truncated entry length"));
        }
        let len = u32::from_le_bytes(rest[..4].try_into().expect("length checked")) as usize;
        rest = &rest[4..];
        if rest.len() < len {
            return Err(bad("entry overruns section"));
        }
        let (ct, params) = ciphertext_from_bytes(&rest[..len])?;
        if *tagged.get_or_insert(params) != params {
            return Err(bad("entries are tagged with different parameter sets"));
        }
        cts.push(ct);
        rest = &rest[len..];
    }
    if !rest.is_empty() {
        return Err(bad("trailing bytes after final entry"));
    }
    Ok((cts, tagged))
}

fn u64_section(out: &mut Vec<u8>, tag: u16, value: u64) {
    put_section(out, tag, &value.to_le_bytes());
}

/// Like [`find_section`] but absence is `Ok(None)` instead of an error,
/// for a reply's optional sections.
fn maybe_section(payload: &[u8], tag: u16) -> Result<Option<&[u8]>, ServeError> {
    for s in sections(payload) {
        let (t, body) = s.map_err(ServeError::Wire)?;
        if t == tag {
            return Ok(Some(body));
        }
    }
    Ok(None)
}

fn parse_u64(payload: &[u8], tag: u16) -> Result<u64, ServeError> {
    let body = find_section(payload, tag)?;
    let bytes: [u8; 8] = body
        .try_into()
        .map_err(|_| ServeError::Protocol(format!("section {tag} is not 8 bytes")))?;
    Ok(u64::from_le_bytes(bytes))
}

// ---- request encoding -------------------------------------------------

/// The first part of an install-key payload: the header of the plain
/// `KEY` section whose body, the serialized server key of `key_len`
/// bytes, is the second part ([`write_frame`] sends both).
pub fn install_key_header(key_len: usize) -> Vec<u8> {
    let mut head = Vec::with_capacity(SECTION_HEADER_LEN);
    put_section_header(&mut head, tags::KEY, key_len);
    head
}

/// The serialized server-key bytes of an install-key payload: borrowed
/// from the payload when the `KEY` section is plain, decompressed when
/// an older client packed it.
///
/// # Errors
///
/// Returns [`ServeError::Wire`] when the section is absent or corrupt.
pub fn decode_install_key(payload: &[u8]) -> Result<Cow<'_, [u8]>, ServeError> {
    Ok(find_section_packed(payload, tags::KEY)?)
}

/// Builds a submit payload: tenant fingerprint, assembled program, and
/// encrypted inputs.
pub fn encode_submit(
    fingerprint: u64,
    nl: &Netlist,
    inputs: &[LweCiphertext],
    params: &Params,
) -> Vec<u8> {
    let mut payload = Vec::new();
    u64_section(&mut payload, tags::FINGERPRINT, fingerprint);
    put_section_packed(&mut payload, tags::PROGRAM, &pytfhe_asm::assemble(nl));
    ct_list_section(&mut payload, tags::INPUTS, inputs, params);
    payload
}

/// Parses a submit payload back into `(fingerprint, netlist, inputs,
/// the parameter set the inputs are tagged with)`.
///
/// # Errors
///
/// Returns [`ServeError::Wire`] on section-framing failures and
/// [`ServeError::Protocol`] when the program or ciphertexts are
/// malformed.
pub fn decode_submit(
    payload: &[u8],
) -> Result<(u64, Netlist, Vec<LweCiphertext>, Option<Params>), ServeError> {
    let fingerprint = parse_u64(payload, tags::FINGERPRINT)?;
    let program = find_section_packed(payload, tags::PROGRAM)?;
    let nl = pytfhe_asm::disassemble(&program)
        .map_err(|e| ServeError::Protocol(format!("program binary: {e}")))?;
    let (inputs, tagged) = parse_ct_list(find_section(payload, tags::INPUTS)?)?;
    Ok((fingerprint, nl, inputs, tagged))
}

/// Builds a fetch payload naming the job to wait for.
pub fn encode_fetch(job: u64) -> Vec<u8> {
    let mut payload = Vec::new();
    u64_section(&mut payload, tags::JOB, job);
    payload
}

/// Extracts the job id from a fetch payload.
///
/// # Errors
///
/// Returns [`ServeError::Wire`] when the section is absent or malformed.
pub fn decode_fetch(payload: &[u8]) -> Result<u64, ServeError> {
    parse_u64(payload, tags::JOB)
}

// ---- reply encoding ---------------------------------------------------

/// A decoded reply frame.
#[derive(Debug)]
pub struct Reply {
    /// Outcome code.
    pub status: Status,
    /// Key fingerprint (install-key replies).
    pub fingerprint: Option<u64>,
    /// Job id (submit replies).
    pub job: Option<u64>,
    /// Decrypted-result ciphertexts (fetch replies).
    pub outputs: Option<Vec<LweCiphertext>>,
    /// `(observed, limit)` pair qualifying an admission rejection.
    pub limits: Option<(u64, u64)>,
    /// Diagnostic text for error statuses.
    pub message: Option<String>,
}

fn reply_base(status: Status) -> Vec<u8> {
    let mut payload = Vec::new();
    put_section(&mut payload, tags::STATUS, &(status as u16).to_le_bytes());
    payload
}

/// Builds an OK reply carrying an installed key's fingerprint.
pub fn reply_fingerprint(fingerprint: u64) -> Vec<u8> {
    let mut payload = reply_base(Status::Ok);
    u64_section(&mut payload, tags::FINGERPRINT, fingerprint);
    payload
}

/// Builds an OK reply carrying an accepted job id.
pub fn reply_job(job: u64) -> Vec<u8> {
    let mut payload = reply_base(Status::Ok);
    u64_section(&mut payload, tags::JOB, job);
    payload
}

/// Builds an OK reply carrying a finished job's output ciphertexts.
pub fn reply_outputs(outputs: &[LweCiphertext], params: &Params) -> Vec<u8> {
    let mut payload = reply_base(Status::Ok);
    ct_list_section(&mut payload, tags::OUTPUTS, outputs, params);
    payload
}

/// Builds a bare OK reply (close acknowledgement).
pub fn reply_ok() -> Vec<u8> {
    reply_base(Status::Ok)
}

/// Builds an error reply from a serving error, mapping admission
/// failures onto their dedicated statuses with their limit pairs. A
/// program or inputs the backend refuses are the caller's bad request.
pub fn reply_error(err: &ServeError) -> Vec<u8> {
    let (status, limits) = match err {
        ServeError::Overloaded { live, max } => {
            (Status::Overloaded, Some((*live as u64, *max as u64)))
        }
        ServeError::QuotaExceeded { in_flight, quota } => {
            (Status::QuotaExceeded, Some((*in_flight as u64, *quota as u64)))
        }
        ServeError::UnknownJob(_) => (Status::UnknownJob, None),
        ServeError::UnknownKey(_) => (Status::UnknownKey, None),
        ServeError::Protocol(_)
        | ServeError::Wire(_)
        | ServeError::Exec(
            ExecError::InputCountMismatch { .. }
            | ExecError::InputDimensionMismatch { .. }
            | ExecError::InvalidProgram(_),
        ) => (Status::BadRequest, None),
        ServeError::Shutdown => (Status::ShuttingDown, None),
        _ => (Status::Internal, None),
    };
    let mut payload = reply_base(status);
    if let Some((observed, limit)) = limits {
        let mut body = [0u8; 16];
        body[..8].copy_from_slice(&observed.to_le_bytes());
        body[8..].copy_from_slice(&limit.to_le_bytes());
        put_section(&mut payload, tags::LIMITS, &body);
    }
    put_section(&mut payload, tags::MESSAGE, err.to_string().as_bytes());
    payload
}

/// Parses a reply payload.
///
/// # Errors
///
/// Returns [`ServeError::Wire`] on framing failures and
/// [`ServeError::Protocol`] on unknown status codes or malformed
/// optional sections.
pub fn decode_reply(payload: &[u8]) -> Result<Reply, ServeError> {
    let status_body = find_section(payload, tags::STATUS)?;
    let code: [u8; 2] = status_body
        .try_into()
        .map_err(|_| ServeError::Protocol("status section is not 2 bytes".into()))?;
    let status = Status::from_code(u16::from_le_bytes(code)).ok_or_else(|| {
        ServeError::Protocol(format!("unknown status {}", u16::from_le_bytes(code)))
    })?;
    let optional_u64 = |tag: u16| -> Result<Option<u64>, ServeError> {
        match maybe_section(payload, tag)? {
            None => Ok(None),
            Some(body) => {
                let bytes: [u8; 8] = body
                    .try_into()
                    .map_err(|_| ServeError::Protocol(format!("section {tag} is not 8 bytes")))?;
                Ok(Some(u64::from_le_bytes(bytes)))
            }
        }
    };
    let outputs = match maybe_section(payload, tags::OUTPUTS)? {
        Some(body) => Some(parse_ct_list(body)?.0),
        None => None,
    };
    let limits = match maybe_section(payload, tags::LIMITS)? {
        Some(body) => {
            let bytes: [u8; 16] = body
                .try_into()
                .map_err(|_| ServeError::Protocol("limits section is not 16 bytes".into()))?;
            Some((
                u64::from_le_bytes(bytes[..8].try_into().expect("length checked")),
                u64::from_le_bytes(bytes[8..].try_into().expect("length checked")),
            ))
        }
        None => None,
    };
    let message = maybe_section(payload, tags::MESSAGE)?
        .map(|body| String::from_utf8_lossy(body).into_owned());
    Ok(Reply {
        status,
        fingerprint: optional_u64(tags::FINGERPRINT)?,
        job: optional_u64(tags::JOB)?,
        outputs,
        limits,
        message,
    })
}

/// Converts an error reply back into the typed error the server raised.
pub fn reply_to_error(reply: &Reply) -> ServeError {
    let (observed, limit) = reply.limits.unwrap_or((0, 0));
    let msg = reply.message.clone().unwrap_or_default();
    match reply.status {
        Status::Ok => ServeError::Protocol("OK reply treated as error".into()),
        Status::Overloaded => {
            ServeError::Overloaded { live: observed as usize, max: limit as usize }
        }
        Status::QuotaExceeded => {
            ServeError::QuotaExceeded { in_flight: observed as usize, quota: limit as usize }
        }
        Status::UnknownJob => ServeError::UnknownJob(0),
        Status::UnknownKey => ServeError::UnknownKey(0),
        Status::BadRequest => ServeError::Protocol(msg),
        Status::Internal => ServeError::Protocol(format!("server internal error: {msg}")),
        Status::ShuttingDown => ServeError::Shutdown,
    }
}

/// Decodes a frame known to be a reply, checking format and version.
///
/// # Errors
///
/// Returns [`ServeError::Protocol`] when the frame is not a v1
/// `ServeReply`, plus any [`decode_reply`] failure.
pub fn expect_reply(frame: &Frame) -> Result<Reply, ServeError> {
    if frame.format != Format::ServeReply || frame.version != FRAME_VERSION {
        return Err(ServeError::Protocol(format!(
            "expected ServeReply v{FRAME_VERSION}, got {} v{}",
            frame.format.name(),
            frame.version
        )));
    }
    decode_reply(frame.payload())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pytfhe_netlist::GateKind;
    use pytfhe_tfhe::{ClientKey, SecureRng};

    fn sample_cts() -> (Params, Vec<LweCiphertext>) {
        let params = Params::testing();
        let mut rng = SecureRng::seed_from_u64(7);
        let key = ClientKey::generate(params, &mut rng);
        let cts = key.encrypt_bits(&[true, false], &mut rng);
        (params, cts)
    }

    #[test]
    fn frames_round_trip_over_a_pipe() {
        let (mut a, mut b) = crate::transport::duplex();
        write_frame(&mut a, Format::ServeFetch, &[&encode_fetch(42)]).unwrap();
        let frame = read_frame(&mut b).unwrap().unwrap();
        assert_eq!(frame.format, Format::ServeFetch);
        assert_eq!(frame.version, FRAME_VERSION);
        assert_eq!(decode_fetch(frame.payload()).unwrap(), 42);
        drop(a);
        assert!(read_frame(&mut b).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn an_install_frame_lends_its_plain_key_from_the_received_buffer() {
        let key = b"stand-in server-key bytes".to_vec();
        let (mut a, mut b) = crate::transport::duplex();
        write_frame(&mut a, Format::ServeInstallKey, &[&install_key_header(key.len()), &key])
            .unwrap();
        let frame = read_frame(&mut b).unwrap().unwrap();
        let lent = decode_install_key(frame.payload()).unwrap();
        assert!(matches!(lent, Cow::Borrowed(_)));
        assert_eq!(lent, key);
    }

    #[test]
    fn submit_payload_round_trips() {
        let (params, cts) = sample_cts();
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let b = nl.add_input();
        let g = nl.add_gate(GateKind::Xor, a, b).unwrap();
        nl.mark_output(g).unwrap();
        let payload = encode_submit(0xDEAD_BEEF, &nl, &cts, &params);
        let (fp, nl2, inputs, tagged) = decode_submit(&payload).unwrap();
        assert_eq!(fp, 0xDEAD_BEEF);
        assert_eq!(tagged, Some(params));
        assert_eq!(nl2.num_nodes(), nl.num_nodes());
        assert_eq!(inputs.len(), 2);
    }

    #[test]
    fn replies_round_trip_statuses_and_limits() {
        let payload = reply_error(&ServeError::QuotaExceeded { in_flight: 5, quota: 4 });
        let reply = decode_reply(&payload).unwrap();
        assert_eq!(reply.status, Status::QuotaExceeded);
        assert_eq!(reply.limits, Some((5, 4)));
        match reply_to_error(&reply) {
            ServeError::QuotaExceeded { in_flight: 5, quota: 4 } => {}
            other => panic!("wrong error: {other}"),
        }

        let (params, cts) = sample_cts();
        let reply = decode_reply(&reply_outputs(&cts, &params)).unwrap();
        assert_eq!(reply.status, Status::Ok);
        assert_eq!(reply.outputs.unwrap().len(), 2);

        // What the backend refuses of a request is the caller's fault.
        let status = |e| decode_reply(&reply_error(&ServeError::Exec(e))).unwrap().status;
        let count = ExecError::InputCountMismatch { expected: 2, got: 1 };
        assert_eq!(status(count), Status::BadRequest);
        let dimension = ExecError::InputDimensionMismatch { index: 1, expected: 8, got: 1 };
        assert_eq!(status(dimension), Status::BadRequest);
        let invalid = ExecError::InvalidProgram(pytfhe_netlist::NetlistError::NoOutputs);
        assert_eq!(status(invalid), Status::BadRequest);
        assert_eq!(status(ExecError::WorkerPanicked), Status::Internal);
    }

    #[test]
    fn oversized_declared_frames_are_rejected() {
        let (mut a, mut b) = crate::transport::duplex();
        use std::io::Write as _;
        a.write_all(&(MAX_FRAME_LEN + 1).to_le_bytes()).unwrap();
        assert!(matches!(read_frame(&mut b), Err(ServeError::Protocol(_))));
    }
}
