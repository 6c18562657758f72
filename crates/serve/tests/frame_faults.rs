//! Seeded faults against the serving protocol's frames, in the style of
//! the storage-fault harness (`SeededStorageFaults`): every fault is
//! derived from the seed and its case number within its frame, so a
//! failing case replays bit-for-bit.
//!
//! Install, submit and fetch frames are written exactly as a client
//! writes them, then corrupted on the stream: truncated at strided cuts,
//! a single bit flipped in the length prefix, the envelope header, a
//! section header or a body, the length prefix made to lie (short, long,
//! over `MAX_FRAME_LEN`), and a section length made to lie inside a
//! re-sealed envelope, so that the lie gets past the frame checksum to
//! the section parser. An install frame also gets body flips inside a
//! re-sealed envelope, which only the key envelope's own CRC32C can
//! catch. Each corrupted stream is read and decoded the way a serving
//! session does it. Every case must end in a typed `ServeError`: zero
//! panics and zero accepted garbage.

use std::panic::{catch_unwind, AssertUnwindSafe};

use pytfhe_netlist::{GateKind, Netlist};
use pytfhe_serve::frame::{
    decode_fetch, decode_install_key, decode_submit, encode_fetch, encode_submit,
    install_key_header, read_frame, write_frame, MAX_FRAME_LEN,
};
use pytfhe_serve::{KeyCache, ServeError};
use pytfhe_tfhe::io::{ciphertext_to_bytes, server_key_to_bytes};
use pytfhe_tfhe::{ClientKey, Params, SecureRng};
use pytfhe_wire::{Format, HEADER_LEN, SECTION_HEADER_LEN};

/// Bytes of the `u32` length prefix in front of every envelope.
const PREFIX_LEN: usize = 4;
/// Where the payload starts on the stream.
const PAYLOAD_AT: usize = PREFIX_LEN + HEADER_LEN;
/// Truncation cuts per frame.
const CUTS: usize = 48;
/// Seeded bit flips per region of a frame.
const FLIPS_PER_REGION: u64 = 24;

/// What a received frame decodes to: the values a serving session acts
/// on.
#[derive(Debug, PartialEq)]
enum Decoded {
    /// The installed key's fingerprint.
    Install(u64),
    /// The fingerprint, the assembled program and the input ciphertexts.
    Submit(u64, Vec<u8>, Vec<Vec<u8>>),
    /// The job id.
    Fetch(u64),
}

/// Reads one frame off `stream` and decodes it as a serving session
/// does, installing a key into `keys`.
fn receive(stream: &[u8], keys: &KeyCache, params: &Params) -> Result<Decoded, ServeError> {
    let mut stream = stream;
    let frame = read_frame(&mut stream)?.ok_or_else(|| ServeError::Protocol("no frame".into()))?;
    let payload = frame.payload();
    Ok(match frame.format {
        Format::ServeInstallKey => Decoded::Install(keys.install(&decode_install_key(payload)?)?),
        Format::ServeSubmit => {
            let (fingerprint, nl, inputs, _) = decode_submit(payload)?;
            nl.validate().map_err(|e| ServeError::Protocol(format!("invalid program: {e}")))?;
            let inputs = inputs.iter().map(|ct| ciphertext_to_bytes(ct, params).to_vec()).collect();
            Decoded::Submit(fingerprint, pytfhe_asm::assemble(&nl).to_vec(), inputs)
        }
        Format::ServeFetch => Decoded::Fetch(decode_fetch(payload)?),
        other => return Err(ServeError::Protocol(format!("unexpected {other} frame"))),
    })
}

/// One fault applied to a frame on the stream.
#[derive(Debug, Clone, Copy)]
enum FrameFault {
    /// The stream ends after `keep` bytes.
    Truncate { keep: usize },
    /// Bit `bit` of stream byte `byte` flips in transit.
    BitFlip { byte: usize, bit: u8 },
    /// The length prefix declares `len` envelope bytes.
    LyingPrefix { len: u32 },
    /// Section `index` declares `len` body bytes, and the envelope is
    /// re-sealed around the lie.
    LyingSection { index: usize, len: u64 },
    /// Bit `bit` of stream byte `byte` flips, and the envelope is
    /// re-sealed around the flip.
    ResealedFlip { byte: usize, bit: u8 },
}

/// A frame as written, with where its regions lie on the stream.
struct Written {
    name: &'static str,
    format: Format,
    stream: Vec<u8>,
    /// Stream offset and body length of each section, in order.
    sections: Vec<(usize, usize)>,
}

impl Written {
    fn new(name: &'static str, format: Format, parts: &[&[u8]]) -> Self {
        let mut stream = Vec::new();
        write_frame(&mut stream, format, parts).unwrap();
        let mut at = PAYLOAD_AT;
        let sections = pytfhe_wire::sections(&stream[PAYLOAD_AT..])
            .map(|section| {
                let (here, len) = (at, section.unwrap().1.len());
                at += SECTION_HEADER_LEN + len;
                (here, len)
            })
            .collect();
        Written { name, format, stream, sections }
    }

    /// Byte ranges a flip is drawn from: the prefix, the envelope header,
    /// every section header and every non-empty body.
    fn regions(&self) -> Vec<(usize, usize)> {
        let mut regions = vec![(0, PREFIX_LEN), (PREFIX_LEN, PAYLOAD_AT)];
        for &(at, len) in &self.sections {
            regions.push((at, at + SECTION_HEADER_LEN));
            if len > 0 {
                regions.push((at + SECTION_HEADER_LEN, at + SECTION_HEADER_LEN + len));
            }
        }
        regions
    }

    /// The stream with `payload` in a freshly sealed envelope.
    fn reseal(&self, payload: &[u8]) -> Vec<u8> {
        let mut stream = Vec::new();
        write_frame(&mut stream, self.format, &[payload]).unwrap();
        stream
    }

    fn apply(&self, fault: FrameFault) -> Vec<u8> {
        let mut stream = self.stream.clone();
        match fault {
            FrameFault::Truncate { keep } => stream.truncate(keep),
            FrameFault::BitFlip { byte, bit } => stream[byte] ^= 1 << bit,
            FrameFault::LyingPrefix { len } => {
                stream[..PREFIX_LEN].copy_from_slice(&len.to_le_bytes())
            }
            FrameFault::LyingSection { index, len } => {
                let at = self.sections[index].0 + 2;
                stream[at..at + 8].copy_from_slice(&len.to_le_bytes());
                stream = self.reseal(&stream[PAYLOAD_AT..]);
            }
            FrameFault::ResealedFlip { byte, bit } => {
                stream[byte] ^= 1 << bit;
                stream = self.reseal(&stream[PAYLOAD_AT..]);
            }
        }
        stream
    }
}

/// splitmix64's finaliser.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic frame-fault generator: the same seed gives the same
/// faults at the same places for the same frame.
struct SeededFrameFaults {
    seed: u64,
}

impl SeededFrameFaults {
    /// A draw in `0..bound` for `(case, lane)`.
    fn below(&self, case: u64, lane: u64, bound: usize) -> usize {
        (mix(self.seed ^ mix(case ^ mix(lane))) % bound as u64) as usize
    }

    fn faults(&self, frame: &Written) -> Vec<FrameFault> {
        let len = frame.stream.len();
        let env_len = (len - PREFIX_LEN) as u32;
        let mut faults: Vec<FrameFault> = (1..len)
            .step_by(len.div_ceil(CUTS))
            .chain([PREFIX_LEN, PAYLOAD_AT, len - 1])
            .map(|keep| FrameFault::Truncate { keep })
            .collect();
        let mut case = 0;
        let mut flip = |(start, end): (usize, usize)| {
            case += 1;
            let byte = start + self.below(case, 0, end - start);
            (byte, self.below(case, 1, 8) as u8)
        };
        for region in frame.regions() {
            for _ in 0..FLIPS_PER_REGION {
                let (byte, bit) = flip(region);
                faults.push(FrameFault::BitFlip { byte, bit });
            }
        }
        if frame.format == Format::ServeInstallKey {
            let &(at, body) = &frame.sections[0];
            for _ in 0..FLIPS_PER_REGION {
                let (byte, bit) = flip((at + SECTION_HEADER_LEN, at + SECTION_HEADER_LEN + body));
                faults.push(FrameFault::ResealedFlip { byte, bit });
            }
        }
        for len in
            [0, env_len - 1, env_len / 2, env_len + 1, env_len + 4096, MAX_FRAME_LEN + 1, u32::MAX]
        {
            faults.push(FrameFault::LyingPrefix { len });
        }
        let payload_len = (len - PAYLOAD_AT) as u64;
        for (index, &(_, body)) in frame.sections.iter().enumerate() {
            let body = body as u64;
            for len in [0, body.saturating_sub(1), body + 1, payload_len, u64::MAX] {
                if len != body {
                    faults.push(FrameFault::LyingSection { index, len });
                }
            }
        }
        faults
    }
}

/// A fault a request can carry: the transport, the envelope, the section
/// framing, or the bytes inside a section.
fn is_request_fault(err: &ServeError) -> bool {
    matches!(
        err,
        ServeError::Io(_) | ServeError::Protocol(_) | ServeError::Wire(_) | ServeError::Tfhe(_)
    )
}

#[test]
fn every_frame_fault_is_a_typed_error_without_panics_or_accepted_garbage() {
    let params = Params::testing();
    let mut rng = SecureRng::seed_from_u64(29);
    let client = ClientKey::generate(params, &mut rng);
    let key_bytes = server_key_to_bytes(&client.server_key(&mut rng)).to_vec();
    let keys = KeyCache::new(1, None);
    let fingerprint = keys.install(&key_bytes).unwrap();

    let mut nl = Netlist::new();
    let (a, b) = (nl.add_input(), nl.add_input());
    let g = nl.add_gate(GateKind::Nand, a, b).unwrap();
    nl.mark_output(g).unwrap();
    let inputs = client.encrypt_bits(&[true, false], &mut rng);
    let submit = encode_submit(fingerprint, &nl, &inputs, &params);
    let section = install_key_header(key_bytes.len());
    let frames = [
        Written::new("install", Format::ServeInstallKey, &[&section, &key_bytes]),
        Written::new("submit", Format::ServeSubmit, &[&submit]),
        Written::new("fetch", Format::ServeFetch, &[&encode_fetch(42)]),
    ];
    let expected = [
        Decoded::Install(fingerprint),
        Decoded::Submit(
            fingerprint,
            pytfhe_asm::assemble(&nl).to_vec(),
            inputs.iter().map(|ct| ciphertext_to_bytes(ct, &params).to_vec()).collect(),
        ),
        Decoded::Fetch(42),
    ];

    let section_counts: Vec<usize> = frames.iter().map(|f| f.sections.len()).collect();
    assert_eq!(section_counts, [1, 3, 1], "KEY; FINGERPRINT, PROGRAM, INPUTS; JOB");

    let injector = SeededFrameFaults { seed: 0x5E7E_F7A3 };
    let (mut total, mut panics, mut accepted) = (0, Vec::new(), Vec::new());
    for (frame, want) in frames.iter().zip(&expected) {
        assert_eq!(&receive(&frame.stream, &keys, &params).unwrap(), want, "{}", frame.name);
        for fault in injector.faults(frame) {
            total += 1;
            let stream = frame.apply(fault);
            match catch_unwind(AssertUnwindSafe(|| receive(&stream, &keys, &params))) {
                Err(_) => panics.push(format!("{} {fault:?}", frame.name)),
                Ok(Ok(got)) => accepted.push(format!("{} {fault:?} as {got:?}", frame.name)),
                Ok(Err(err)) => assert!(is_request_fault(&err), "{} {fault:?}: {err}", frame.name),
            }
        }
    }
    assert!(total >= 500, "the harness ran only {total} cases");
    assert!(panics.is_empty(), "{} of {total} cases panicked: {panics:#?}", panics.len());
    assert!(
        accepted.is_empty(),
        "{} of {total} cases were accepted: {accepted:#?}",
        accepted.len()
    );
}
