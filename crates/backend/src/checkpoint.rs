//! Wave-granular checkpoint/resume for the resilient executor.
//!
//! After each completed wave barrier, [`crate::exec::execute_resilient`]
//! can snapshot the *frontier* — the values still needed by later waves
//! or by program outputs — into a [`Checkpoint`]. An interrupted run
//! (worker crash, process kill) then resumes from the last barrier
//! instead of gate zero, which is the difference between losing minutes
//! and losing hours on the paper's MNIST_L-scale programs (Table IV).
//!
//! Snapshots are tied to their program by a fingerprint of the canonical
//! PyTFHE binary encoding, so a checkpoint can never silently resume a
//! different circuit. Snapshots ride inside the [`pytfhe_wire`]
//! envelope (CRC32C over header and payload), so on-disk bit rot is
//! caught at load time rather than decrypting to garbage; it is the
//! only layout read (the pre-envelope bare `PTCK` layout is refused
//! like any other bytes without the envelope magic). Values serialize
//! via [`Checkpointable`]: one byte per plaintext bit, raw torus words
//! for LWE ciphertexts.

use crate::error::ExecError;
use pytfhe_netlist::Netlist;
use pytfhe_telemetry as telemetry;
use pytfhe_tfhe::{LweCiphertext, Torus32};
use pytfhe_wire as wire;
use std::fs;
use std::path::PathBuf;

/// Wire-envelope payload version. v1 was the pre-envelope bare `PTCK`
/// layout (no longer read); v2 is its body inside the envelope, which
/// carries the magic, version and checksum.
const CKPT_WIRE_VERSION: u16 = 2;
/// Speculative allocation clamp for attacker-controlled counts.
const MAX_PREALLOC: usize = 1 << 16;

/// Values the executor can snapshot at a wave barrier.
///
/// Implemented for `bool` (the plaintext engine) and
/// [`LweCiphertext`] (the TFHE engine), covering both
/// [`crate::GateEngine`] implementations.
pub trait Checkpointable: Sized {
    /// Appends this value's serialized form to `out`.
    fn write_ckpt(&self, out: &mut Vec<u8>);

    /// Parses a value back from exactly the bytes written by
    /// [`Checkpointable::write_ckpt`]; `None` on any mismatch.
    fn read_ckpt(data: &[u8]) -> Option<Self>;
}

impl Checkpointable for bool {
    fn write_ckpt(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn read_ckpt(data: &[u8]) -> Option<Self> {
        match data {
            [0] => Some(false),
            [1] => Some(true),
            _ => None,
        }
    }
}

impl Checkpointable for LweCiphertext {
    fn write_ckpt(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.dim() as u32).to_le_bytes());
        for t in self.mask() {
            out.extend_from_slice(&t.0.to_le_bytes());
        }
        out.extend_from_slice(&self.body().0.to_le_bytes());
    }

    fn read_ckpt(data: &[u8]) -> Option<Self> {
        let dim = u32::from_le_bytes(data.get(..4)?.try_into().ok()?) as usize;
        let rest = &data[4..];
        if rest.len() != (dim + 1) * 4 {
            return None;
        }
        let word =
            |i: usize| Torus32(u32::from_le_bytes(rest[i * 4..(i + 1) * 4].try_into().unwrap()));
        let a = (0..dim).map(word).collect();
        Some(LweCiphertext::from_parts(a, word(dim)))
    }
}

/// FNV-1a over a byte slice: the program fingerprint and the content
/// address of a [`crate::store::DiskStore`] key blob.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Fingerprints a netlist via FNV-1a over its canonical binary encoding,
/// so checkpoints refuse to resume a different program. LUT-lowered
/// netlists fall outside the binary format; they hash a structural
/// encoding under a distinct tag (no collision with any binary, whose
/// leading instruction is a zero-tagged header).
pub fn netlist_fingerprint(nl: &Netlist) -> u64 {
    match pytfhe_asm::try_assemble(nl) {
        Ok(bytes) => fnv1a(&bytes),
        Err(_) => fnv1a(&lut_netlist_bytes(nl)),
    }
}

/// Structural byte encoding of a LUT-bearing netlist, for fingerprinting
/// only (tag byte per node kind, little-endian fields, outputs trailed).
fn lut_netlist_bytes(nl: &Netlist) -> Vec<u8> {
    let mut out = Vec::with_capacity(nl.num_nodes() * 8 + 16);
    out.extend_from_slice(b"PTLUT\x01");
    for node in nl.nodes() {
        match *node {
            pytfhe_netlist::Node::Input => out.push(0x01),
            pytfhe_netlist::Node::Gate { kind, a, b } => {
                out.push(0x02);
                out.push(kind.opcode());
                out.extend_from_slice(&a.0.to_le_bytes());
                out.extend_from_slice(&b.0.to_le_bytes());
            }
            pytfhe_netlist::Node::Lut { spec, ins } => {
                out.push(0x03);
                out.push(spec.width);
                out.push(spec.precision);
                out.extend_from_slice(&spec.table.to_le_bytes());
                for id in &ins[..spec.width as usize] {
                    out.extend_from_slice(&id.0.to_le_bytes());
                }
            }
        }
    }
    out.push(0x04);
    for o in nl.outputs() {
        out.extend_from_slice(&o.0.to_le_bytes());
    }
    out
}

/// One wave-barrier snapshot: the program fingerprint, the index of the
/// last completed wave, and the serialized frontier values keyed by
/// netlist node id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    wave: usize,
    fingerprint: u64,
    entries: Vec<(u32, Vec<u8>)>,
}

impl Checkpoint {
    /// Captures `nodes` (id, value) pairs as the frontier of `wave`.
    pub fn capture<'a, V, I>(wave: usize, fingerprint: u64, nodes: I) -> Self
    where
        V: Checkpointable + 'a,
        I: IntoIterator<Item = (u32, &'a V)>,
    {
        let entries = nodes
            .into_iter()
            .map(|(id, v)| {
                let mut bytes = Vec::new();
                v.write_ckpt(&mut bytes);
                (id, bytes)
            })
            .collect();
        Checkpoint { wave, fingerprint, entries }
    }

    /// The last completed wave this snapshot represents.
    pub fn wave(&self) -> usize {
        self.wave
    }

    /// The fingerprint of the program this snapshot belongs to.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of frontier values captured.
    pub fn num_values(&self) -> usize {
        self.entries.len()
    }

    /// Restores the frontier into `values` (indexed by node id).
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::BadCheckpoint`] on out-of-range node ids or
    /// undecodable values.
    pub fn restore_into<V: Checkpointable>(&self, values: &mut [V]) -> Result<(), ExecError> {
        for (id, bytes) in &self.entries {
            let slot = values
                .get_mut(*id as usize)
                .ok_or(ExecError::BadCheckpoint { reason: "node id out of range" })?;
            *slot = V::read_ckpt(bytes)
                .ok_or(ExecError::BadCheckpoint { reason: "undecodable value" })?;
        }
        Ok(())
    }

    /// Serializes the snapshot into the versioned wire envelope.
    pub fn to_bytes(&self) -> Vec<u8> {
        wire::encode(wire::Format::Checkpoint, CKPT_WIRE_VERSION, &self.body_bytes())
    }

    /// The envelope payload: fingerprint, wave, then length-prefixed
    /// frontier entries.
    fn body_bytes(&self) -> Vec<u8> {
        let payload: usize = self.entries.iter().map(|(_, b)| 8 + b.len()).sum();
        let mut out = Vec::with_capacity(20 + payload);
        out.extend_from_slice(&self.fingerprint.to_le_bytes());
        out.extend_from_slice(&(self.wave as u64).to_le_bytes());
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for (id, bytes) in &self.entries {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(bytes);
        }
        out
    }

    /// Parses a snapshot back from [`Checkpoint::to_bytes`] output.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Wire`] when the bytes are not a valid
    /// checkpoint envelope and [`ExecError::BadCheckpoint`] on
    /// payload-level corruption.
    pub fn from_bytes(data: &[u8]) -> Result<Self, ExecError> {
        let env = wire::decode_expecting(
            data,
            wire::Format::Checkpoint,
            CKPT_WIRE_VERSION..=CKPT_WIRE_VERSION,
        )?;
        Self::parse_body(env.payload)
    }

    /// Parses the envelope payload.
    fn parse_body(data: &[u8]) -> Result<Self, ExecError> {
        let bad = |reason| ExecError::BadCheckpoint { reason };
        let u32_at = |i: usize| -> Result<u32, ExecError> {
            Ok(u32::from_le_bytes(
                data.get(i..i + 4).ok_or(bad("truncated header"))?.try_into().unwrap(),
            ))
        };
        let fingerprint =
            u64::from_le_bytes(data.get(..8).ok_or(bad("truncated header"))?.try_into().unwrap());
        let wave =
            u64::from_le_bytes(data.get(8..16).ok_or(bad("truncated header"))?.try_into().unwrap())
                as usize;
        let count = u32_at(16)? as usize;
        let mut entries = Vec::with_capacity(count.min(MAX_PREALLOC));
        let mut pos = 20;
        for _ in 0..count {
            let id = u32_at(pos)?;
            let len = u32_at(pos + 4)? as usize;
            let end = pos.checked_add(8).and_then(|p| p.checked_add(len));
            let bytes =
                end.and_then(|end| data.get(pos + 8..end)).ok_or(bad("truncated entry"))?.to_vec();
            entries.push((id, bytes));
            pos += 8 + len;
        }
        if pos != data.len() {
            return Err(bad("trailing bytes"));
        }
        Ok(Checkpoint { wave, fingerprint, entries })
    }
}

/// Where checkpoints are persisted between (possibly interrupted) runs.
pub trait CheckpointStore {
    /// Persists `ckpt`, replacing any previous snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::CheckpointIo`] when persistence fails.
    fn save(&mut self, ckpt: &Checkpoint) -> Result<(), ExecError>;

    /// Loads the latest snapshot, if any.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::BadCheckpoint`] / [`ExecError::CheckpointIo`]
    /// when a snapshot exists but cannot be read back.
    fn load(&self) -> Result<Option<Checkpoint>, ExecError>;
}

/// In-memory store: survives within one process (e.g. across a failed
/// and a resumed `execute_resilient` call).
#[derive(Debug, Default)]
pub struct MemoryCheckpointStore {
    latest: Option<Checkpoint>,
}

impl MemoryCheckpointStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The latest snapshot, if any.
    pub fn latest(&self) -> Option<&Checkpoint> {
        self.latest.as_ref()
    }
}

impl CheckpointStore for MemoryCheckpointStore {
    fn save(&mut self, ckpt: &Checkpoint) -> Result<(), ExecError> {
        self.latest = Some(ckpt.clone());
        Ok(())
    }

    fn load(&self) -> Result<Option<Checkpoint>, ExecError> {
        Ok(self.latest.clone())
    }
}

/// File-backed store: survives process restarts.
///
/// Saves are crash-safe: bytes go to a temporary sibling, are fsynced,
/// and are atomically renamed into place, so a torn write can never
/// replace the previous good snapshot. The displaced snapshot is kept
/// as a `.prev` generation; if the current file fails validation at
/// load time (bit rot, a corrupted rename target), it is quarantined
/// aside as `.quarantined` and the store falls back to the previous
/// generation instead of aborting the run.
#[derive(Debug, Clone)]
pub struct FileCheckpointStore {
    path: PathBuf,
}

impl FileCheckpointStore {
    /// A store persisting to `path`.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        FileCheckpointStore { path: path.into() }
    }

    /// The snapshot path.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }

    /// Path of the previous-generation snapshot kept for fallback.
    pub fn prev_path(&self) -> PathBuf {
        self.path.with_extension("prev")
    }

    /// Path a corrupt snapshot is moved to when quarantined.
    pub fn quarantine_path(&self) -> PathBuf {
        self.path.with_extension("quarantined")
    }

    /// Decodes one generation file; `Ok(None)` when it does not exist.
    fn read_generation(path: &std::path::Path) -> Result<Option<Checkpoint>, ExecError> {
        match fs::read(path) {
            Ok(bytes) => Checkpoint::from_bytes(&bytes).map(Some),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(ExecError::CheckpointIo(e.to_string())),
        }
    }

    /// Moves a failed-validation snapshot aside (best effort) and bumps
    /// the quarantine counter so operators can see rot happening.
    fn quarantine(&self, path: &std::path::Path, err: &ExecError) {
        let _ = fs::rename(path, self.quarantine_path());
        telemetry::metrics().counter_add("checkpoint_quarantined_total", 1);
        telemetry::metrics().counter_add(
            &format!("checkpoint_quarantined_total{{error=\"{}\"}}", variant_label(err)),
            1,
        );
    }
}

/// Coarse label for quarantine counters, stable across error payloads.
fn variant_label(err: &ExecError) -> &'static str {
    match err {
        ExecError::Wire(_) => "wire",
        ExecError::BadCheckpoint { .. } => "bad_checkpoint",
        ExecError::CheckpointIo(_) => "io",
        _ => "other",
    }
}

/// Writes `bytes` to `path` crash-safely: temp sibling, fsync, atomic
/// rename, then (on Unix) an fsync of the containing directory so the
/// rename itself survives power loss.
pub(crate) fn write_atomic(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    let tmp = path.with_extension("tmp");
    let mut f = fs::File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    fs::rename(&tmp, path)?;
    #[cfg(unix)]
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        fs::File::open(parent)?.sync_all()?;
    }
    Ok(())
}

impl CheckpointStore for FileCheckpointStore {
    fn save(&mut self, ckpt: &Checkpoint) -> Result<(), ExecError> {
        let io = |e: std::io::Error| ExecError::CheckpointIo(e.to_string());
        // Keep the displaced snapshot as a fallback generation before
        // the new one lands.
        if self.path.exists() {
            fs::rename(&self.path, self.prev_path()).map_err(io)?;
        }
        write_atomic(&self.path, &ckpt.to_bytes()).map_err(io)
    }

    fn load(&self) -> Result<Option<Checkpoint>, ExecError> {
        match Self::read_generation(&self.path) {
            Ok(found) => Ok(found),
            Err(err @ (ExecError::Wire(_) | ExecError::BadCheckpoint { .. })) => {
                // The current generation is rotten: quarantine it and
                // continue from the previous one (or from scratch) —
                // losing one wave beats aborting the whole run.
                self.quarantine(&self.path, &err);
                match Self::read_generation(&self.prev_path()) {
                    Ok(found) => {
                        telemetry::metrics().counter_add("checkpoint_fallback_loads_total", 1);
                        Ok(found)
                    }
                    Err(prev_err @ (ExecError::Wire(_) | ExecError::BadCheckpoint { .. })) => {
                        self.quarantine(&self.prev_path(), &prev_err);
                        Ok(None)
                    }
                    Err(e) => Err(e),
                }
            }
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pytfhe_netlist::GateKind;
    use pytfhe_tfhe::{ClientKey, Params, SecureRng};

    fn tiny_netlist() -> Netlist {
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let b = nl.add_input();
        let g = nl.add_gate(GateKind::Xor, a, b).unwrap();
        nl.mark_output(g).unwrap();
        nl
    }

    #[test]
    fn bool_round_trip() {
        for v in [true, false] {
            let mut bytes = Vec::new();
            v.write_ckpt(&mut bytes);
            assert_eq!(bool::read_ckpt(&bytes), Some(v));
        }
        assert_eq!(bool::read_ckpt(&[2]), None);
        assert_eq!(bool::read_ckpt(&[]), None);
    }

    #[test]
    fn ciphertext_round_trip() {
        let mut rng = SecureRng::seed_from_u64(21);
        let client = ClientKey::generate(Params::testing(), &mut rng);
        let ct = client.encrypt_bit(true, &mut rng);
        let mut bytes = Vec::new();
        ct.write_ckpt(&mut bytes);
        let back = LweCiphertext::read_ckpt(&bytes).unwrap();
        assert_eq!(back, ct);
        assert!(LweCiphertext::read_ckpt(&bytes[..bytes.len() - 1]).is_none());
    }

    #[test]
    fn checkpoint_bytes_round_trip() {
        let ckpt = Checkpoint::capture(3, 0xFEED, [(2u32, &true), (7u32, &false)]);
        let back = Checkpoint::from_bytes(&ckpt.to_bytes()).unwrap();
        assert_eq!(back, ckpt);
        assert_eq!(back.wave(), 3);
        assert_eq!(back.fingerprint(), 0xFEED);
        assert_eq!(back.num_values(), 2);
        let mut values = vec![false; 8];
        back.restore_into(&mut values).unwrap();
        assert!(values[2]);
        assert!(!values[7]);
    }

    #[test]
    fn corrupt_checkpoints_are_rejected() {
        let ckpt = Checkpoint::capture(1, 9, [(0u32, &true)]);
        let bytes = ckpt.to_bytes();
        assert!(Checkpoint::from_bytes(&bytes[..10]).is_err());
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF; // magic
        assert!(Checkpoint::from_bytes(&bad).is_err());
        let mut bad = bytes.clone();
        bad[4] ^= 0x02; // version
        assert!(Checkpoint::from_bytes(&bad).is_err());
        let mut bad = bytes;
        bad.push(0); // trailing garbage
        assert!(Checkpoint::from_bytes(&bad).is_err());
    }

    #[test]
    fn payload_bit_flips_fail_the_checksum() {
        let ckpt = Checkpoint::capture(1, 9, [(0u32, &true), (1u32, &false)]);
        let bytes = ckpt.to_bytes();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(Checkpoint::from_bytes(&bad).is_err(), "flip at byte {i} went undetected");
        }
    }

    #[test]
    fn restore_rejects_out_of_range_ids() {
        let ckpt = Checkpoint::capture(0, 0, [(100u32, &true)]);
        let mut values = vec![false; 4];
        assert_eq!(
            ckpt.restore_into(&mut values),
            Err(ExecError::BadCheckpoint { reason: "node id out of range" })
        );
    }

    #[test]
    fn fingerprint_distinguishes_programs() {
        let a = tiny_netlist();
        let mut b = Netlist::new();
        let x = b.add_input();
        let y = b.add_input();
        let g = b.add_gate(GateKind::And, x, y).unwrap();
        b.mark_output(g).unwrap();
        assert_ne!(netlist_fingerprint(&a), netlist_fingerprint(&b));
        assert_eq!(netlist_fingerprint(&a), netlist_fingerprint(&tiny_netlist()));
    }

    #[test]
    fn file_store_round_trip_and_missing_file() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("pytfhe-ckpt-test-{}.bin", std::process::id()));
        let mut store = FileCheckpointStore::new(&path);
        assert_eq!(store.load().unwrap(), None);
        let ckpt = Checkpoint::capture(5, 0xABCD, [(1u32, &true)]);
        store.save(&ckpt).unwrap();
        assert_eq!(store.load().unwrap(), Some(ckpt));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_store_quarantines_rot_and_falls_back_to_previous_generation() {
        let dir = std::env::temp_dir().join(format!("pytfhe-ckpt-fallback-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.ckpt");
        let mut store = FileCheckpointStore::new(&path);

        let first = Checkpoint::capture(1, 0xABCD, [(1u32, &true)]);
        let second = Checkpoint::capture(2, 0xABCD, [(1u32, &false)]);
        store.save(&first).unwrap();
        store.save(&second).unwrap();
        assert!(store.prev_path().exists(), "rotation should keep the displaced snapshot");

        // Rot the current generation in place: the store must not
        // surface garbage or abort — it quarantines and falls back.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(store.load().unwrap(), Some(first));
        assert!(store.quarantine_path().exists());
        assert!(!path.exists(), "rotten snapshot should have been moved aside");

        let counters = telemetry::metrics().snapshot().counters;
        assert!(*counters.get("checkpoint_quarantined_total").unwrap_or(&0) >= 1);
        assert!(*counters.get("checkpoint_fallback_loads_total").unwrap_or(&0) >= 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_write_never_corrupts_the_previous_snapshot() {
        let dir = std::env::temp_dir().join(format!("pytfhe-ckpt-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.ckpt");
        let mut store = FileCheckpointStore::new(&path);

        let first = Checkpoint::capture(1, 7, [(0u32, &true)]);
        let second = Checkpoint::capture(2, 7, [(0u32, &false)]);
        store.save(&first).unwrap();

        // Crash before the rename: a torn temp sibling is simply
        // ignored; the committed snapshot stays intact.
        let torn = &second.to_bytes()[..second.to_bytes().len() / 2];
        std::fs::write(path.with_extension("tmp"), torn).unwrap();
        assert_eq!(store.load().unwrap(), Some(first.clone()));

        // Torn bytes that somehow land on the committed path (a torn
        // medium rather than a torn rename) are caught by the envelope
        // checksum and the store recovers via the `.prev` generation.
        store.save(&second).unwrap();
        std::fs::write(&path, torn).unwrap();
        assert_eq!(store.load().unwrap(), Some(first));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn both_generations_rotten_quarantines_and_starts_fresh() {
        let dir = std::env::temp_dir().join(format!("pytfhe-ckpt-rotten-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.ckpt");
        let mut store = FileCheckpointStore::new(&path);
        let ckpt = Checkpoint::capture(1, 7, [(0u32, &true)]);
        store.save(&ckpt).unwrap();
        store.save(&ckpt).unwrap();
        std::fs::write(&path, b"garbage").unwrap();
        std::fs::write(store.prev_path(), b"more garbage").unwrap();
        // Never an error, never garbage: the run restarts from scratch.
        assert_eq!(store.load().unwrap(), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
