//! Durable artifact store: warm-starting a server from disk.
//!
//! The paper's deployment model ships the evaluation key once and then
//! runs many programs against it; in practice the server process gets
//! restarted (redeploys, crashes, autoscaling) and would otherwise pay
//! the key transfer and every plan capture again. [`DiskStore`] persists
//! the two expensive session artifacts — installed server keys and
//! captured [`KernelPlan`]s — under one root directory so a restarted
//! server picks up exactly where the previous process left off.
//!
//! Layout under the root:
//!
//! ```text
//! root/
//!   keys/<fnv1a-of-bytes>.key     # wire-enveloped server keys
//!   plans/<plan-fingerprint>.plan # wire-enveloped kernel plans
//! ```
//!
//! Every write is crash-safe (temp sibling, fsync, atomic rename) and
//! every load decodes what it reads. An artifact that does not decode is
//! *quarantined* — renamed aside with a `.quarantined` suffix and
//! counted in telemetry — and the load continues with the remaining
//! artifacts; rot costs one re-capture or one key re-install, never the
//! whole warm start. A file in a pre-envelope layout is one more file
//! that does not decode: quarantined and counted like the rest.

use crate::checkpoint::{fnv1a, write_atomic};
use crate::error::ExecError;
use crate::graph::KernelPlan;
use pytfhe_telemetry as telemetry;
use pytfhe_tfhe::io::server_key_from_bytes;
use pytfhe_tfhe::ServerKey;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// A file-backed store for server keys and captured kernel plans.
///
/// Keys are content-addressed (FNV-1a over the serialized bytes); plans
/// are addressed by their netlist fingerprint. Both kinds load the same
/// way: [`DiskStore::load_key`] and [`DiskStore::load_plans`] decode what
/// they read and quarantine what fails, so every caller — a warm-starting
/// session, a serving key cache — gets decoded artifacts or nothing.
///
/// A store opened with [`DiskStore::with_capacity`] additionally caps
/// the number of key blobs on disk: once an insertion would exceed the
/// cap, the least-recently-used keys are evicted (deleted and counted on
/// `store_keys_evicted_total`). Recency is tracked per process across
/// every clone of the store handle; keys never touched by this process
/// are considered coldest and evict first, in ascending id order.
#[derive(Debug, Clone)]
pub struct DiskStore {
    root: PathBuf,
    key_capacity: Option<usize>,
    /// Per-process key access order, least-recent first. Shared across
    /// clones so every handle sees one recency history.
    access: Arc<Mutex<Vec<u64>>>,
}

impl DiskStore {
    /// Opens (creating if needed) a store rooted at `root`, with no cap
    /// on stored keys.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::StoreIo`] when the directories cannot be
    /// created.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, ExecError> {
        let root = root.into();
        let io = |e: std::io::Error| ExecError::StoreIo(e.to_string());
        fs::create_dir_all(root.join("keys")).map_err(io)?;
        fs::create_dir_all(root.join("plans")).map_err(io)?;
        Ok(DiskStore { root, key_capacity: None, access: Arc::new(Mutex::new(Vec::new())) })
    }

    /// Opens a store that keeps at most `max_keys` key blobs on disk,
    /// evicting least-recently-used keys past the cap. A cap of 0 is
    /// treated as 1 — a store that can hold no key at all would make
    /// every install fail its own read-back.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::StoreIo`] like [`DiskStore::open`].
    pub fn with_capacity(root: impl Into<PathBuf>, max_keys: usize) -> Result<Self, ExecError> {
        let mut store = Self::open(root)?;
        store.key_capacity = Some(max_keys.max(1));
        Ok(store)
    }

    /// The key-blob cap, if one was set.
    pub fn key_capacity(&self) -> Option<usize> {
        self.key_capacity
    }

    /// Marks `id` as the most recently used key.
    fn touch_key(&self, id: u64) {
        let mut access = self.access.lock().expect("key access list poisoned");
        access.retain(|&k| k != id);
        access.push(id);
    }

    /// Deletes least-recently-used key blobs until at most
    /// `key_capacity` remain. Untracked ids (present on disk but never
    /// touched by this process) evict first.
    fn enforce_key_capacity(&self) -> Result<(), ExecError> {
        let Some(cap) = self.key_capacity else { return Ok(()) };
        let io = |e: std::io::Error| ExecError::StoreIo(e.to_string());
        let on_disk = self.key_ids()?;
        if on_disk.len() <= cap {
            return Ok(());
        }
        let mut access = self.access.lock().expect("key access list poisoned");
        // Eviction order: untracked ids ascending, then the access list
        // least-recent first.
        let mut victims: Vec<u64> =
            on_disk.iter().copied().filter(|id| !access.contains(id)).collect();
        victims.extend(access.iter().copied().filter(|id| on_disk.contains(id)));
        let excess = on_disk.len() - cap;
        for id in victims.into_iter().take(excess) {
            fs::remove_file(self.key_path(id)).map_err(io)?;
            access.retain(|&k| k != id);
            telemetry::metrics().counter_add("store_keys_evicted_total", 1);
        }
        Ok(())
    }

    fn key_path(&self, id: u64) -> PathBuf {
        self.root.join("keys").join(format!("{id:016x}.key"))
    }

    fn plan_path(&self, fingerprint: u64) -> PathBuf {
        self.root.join("plans").join(format!("{fingerprint:016x}.plan"))
    }

    /// Persists serialized server-key bytes under their content address
    /// ([`KeyBlob::id`]). Returns `(id, newly_written)`; an
    /// already-present key is not rewritten.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::StoreIo`] on filesystem failure.
    pub fn put_key_blob(&self, blob: &KeyBlob<'_>) -> Result<(u64, bool), ExecError> {
        let id = blob.id();
        let path = self.key_path(id);
        if path.exists() {
            self.touch_key(id);
            return Ok((id, false));
        }
        write_atomic(&path, blob.bytes).map_err(|e| ExecError::StoreIo(e.to_string()))?;
        telemetry::metrics().counter_add("disk_store_keys_persisted_total", 1);
        self.touch_key(id);
        self.enforce_key_capacity()?;
        Ok((id, true))
    }

    /// Reads one key blob by id, returning `Ok(None)` when it is absent
    /// (never stored, evicted, or quarantined). A hit refreshes the
    /// key's LRU recency.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::StoreIo`] on filesystem failure other than
    /// absence.
    pub fn get_key_blob(&self, id: u64) -> Result<Option<Vec<u8>>, ExecError> {
        match fs::read(self.key_path(id)) {
            Ok(bytes) => {
                self.touch_key(id);
                Ok(Some(bytes))
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(ExecError::StoreIo(e.to_string())),
        }
    }

    /// Reads and decodes one stored key like [`DiskStore::get_key_blob`].
    /// A blob that does not decode is quarantined, so no later load reads
    /// it again, and is `Ok(None)` like an absent one.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::StoreIo`] like [`DiskStore::get_key_blob`].
    pub fn load_key(&self, id: u64) -> Result<Option<ServerKey>, ExecError> {
        let Some(bytes) = self.get_key_blob(id)? else { return Ok(None) };
        let key = server_key_from_bytes(&bytes).ok();
        if key.is_none() {
            quarantine(&self.key_path(id), "key");
        }
        Ok(key)
    }

    /// The ids of all stored key blobs, ascending.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::StoreIo`] when the directory cannot be read.
    pub fn key_ids(&self) -> Result<Vec<u64>, ExecError> {
        let io = |e: std::io::Error| ExecError::StoreIo(e.to_string());
        let mut ids = Vec::new();
        for entry in fs::read_dir(self.root.join("keys")).map_err(io)? {
            ids.extend(artifact_id(&entry.map_err(io)?.path(), "key"));
        }
        ids.sort_unstable();
        Ok(ids)
    }

    /// Persists a captured plan, addressed by its fingerprint. Returns
    /// whether the file was newly written.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::StoreIo`] on filesystem failure.
    pub fn put_plan(&self, plan: &KernelPlan) -> Result<bool, ExecError> {
        let path = self.plan_path(plan.fingerprint);
        if path.exists() {
            return Ok(false);
        }
        write_atomic(&path, &plan.to_bytes()).map_err(|e| ExecError::StoreIo(e.to_string()))?;
        telemetry::metrics().counter_add("disk_store_plans_persisted_total", 1);
        Ok(true)
    }

    /// Loads every persisted plan, validating each envelope.
    ///
    /// Files that do not decode are quarantined (renamed aside,
    /// counted) and skipped. Results are sorted by fingerprint.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::StoreIo`] when the directory itself cannot
    /// be read — individual bad files never fail the load.
    pub fn load_plans(&self) -> Result<Vec<KernelPlan>, ExecError> {
        let io = |e: std::io::Error| ExecError::StoreIo(e.to_string());
        let mut out = Vec::new();
        for entry in fs::read_dir(self.root.join("plans")).map_err(io)? {
            let path = entry.map_err(io)?.path();
            if artifact_id(&path, "plan").is_none() {
                continue;
            }
            let bytes = fs::read(&path).map_err(io)?;
            match KernelPlan::from_bytes(&bytes) {
                Ok(plan) => out.push(plan),
                Err(_) => quarantine(&path, "plan"),
            }
        }
        out.sort_by_key(|p| p.fingerprint);
        Ok(out)
    }
}

/// Serialized server-key bytes with their content address: FNV-1a over
/// the bytes, computed once, here and nowhere else. A caller that needs
/// the fingerprint before it persists (a key cache checking residency)
/// takes it from the blob instead of hashing the ~124 MB again, and the
/// store can still only file bytes under their own hash.
#[derive(Debug, Clone, Copy)]
pub struct KeyBlob<'a> {
    bytes: &'a [u8],
    id: u64,
}

impl<'a> KeyBlob<'a> {
    /// Hashes `bytes` into their content address.
    pub fn new(bytes: &'a [u8]) -> Self {
        KeyBlob { bytes, id: fnv1a(bytes) }
    }

    /// The content address: FNV-1a over the bytes.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Moves an artifact that failed decoding aside, so later loads stop
/// tripping over it, and counts it. Best effort.
fn quarantine(path: &Path, kind: &str) {
    let _ = fs::rename(path, path.with_extension("quarantined"));
    let metrics = telemetry::metrics();
    metrics.counter_add("disk_store_quarantined_total", 1);
    metrics.counter_add(&format!("disk_store_quarantined_total{{kind=\"{kind}\"}}"), 1);
}

/// Parses `<16-hex-digits>.<ext>` artifact names; anything else (temp
/// siblings, quarantined files, stray droppings) is skipped.
fn artifact_id(path: &Path, ext: &str) -> Option<u64> {
    if path.extension()? != ext {
        return None;
    }
    let stem = path.file_stem()?.to_str()?;
    if stem.len() != 16 {
        return None;
    }
    u64::from_str_radix(stem, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::capture;
    use crate::CaptureConfig;
    use pytfhe_netlist::{GateKind, Netlist};

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pytfhe-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_plan() -> KernelPlan {
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let b = nl.add_input();
        let x = nl.add_gate(GateKind::Xor, a, b).unwrap();
        let y = nl.add_gate(GateKind::And, a, b).unwrap();
        nl.mark_output(x).unwrap();
        nl.mark_output(y).unwrap();
        capture(&nl, &CaptureConfig::default()).unwrap()
    }

    #[test]
    fn keys_are_content_addressed_and_deduplicated() {
        let dir = tempdir("keys");
        let store = DiskStore::open(&dir).unwrap();
        let (id1, fresh1) = store.put_key_blob(&KeyBlob::new(b"key material")).unwrap();
        let (id2, fresh2) = store.put_key_blob(&KeyBlob::new(b"key material")).unwrap();
        assert_eq!(id1, id2);
        assert!(fresh1);
        assert!(!fresh2, "identical bytes must not be rewritten");
        assert_eq!(store.key_ids().unwrap(), vec![id1]);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Held by the tests that quarantine a key: the counter is global.
    static KEY_QUARANTINE: Mutex<()> = Mutex::new(());

    #[test]
    fn quarantined_keys_disappear_from_listing() {
        let _quarantine = KEY_QUARANTINE.lock().unwrap();
        let dir = tempdir("keyquar");
        let store = DiskStore::open(&dir).unwrap();
        let (id, _) = store.put_key_blob(&KeyBlob::new(b"rotten")).unwrap();
        assert!(store.load_key(id).unwrap().is_none());
        assert!(store.key_ids().unwrap().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_rotted_key_blob_loads_as_none_and_is_quarantined_once() {
        let _quarantine = KEY_QUARANTINE.lock().unwrap();
        let dir = tempdir("keyrot");
        let store = DiskStore::open(&dir).unwrap();
        let (id, _) = store.put_key_blob(&KeyBlob::new(b"rotted beyond decoding")).unwrap();
        let quarantined = || {
            let counters = telemetry::metrics().snapshot().counters;
            counters.get("disk_store_quarantined_total{kind=\"key\"}").copied().unwrap_or(0)
        };
        let before = quarantined();
        assert!(store.load_key(id).unwrap().is_none(), "an undecodable blob is no key");
        assert!(dir.join("keys").join(format!("{id:016x}.quarantined")).exists());
        // Nothing is left under the id to re-read and re-fail on.
        assert!(store.load_key(id).unwrap().is_none());
        assert_eq!(quarantined() - before, 1, "quarantined once");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn plans_round_trip_and_survive_corrupt_siblings() {
        let dir = tempdir("plans");
        let store = DiskStore::open(&dir).unwrap();
        let plan = sample_plan();
        assert!(store.put_plan(&plan).unwrap());
        assert!(!store.put_plan(&plan).unwrap());

        // A corrupt sibling must be quarantined, not sink the load.
        fs::write(dir.join("plans").join("00000000deadbeef.plan"), b"garbage").unwrap();
        let loaded = store.load_plans().unwrap();
        assert_eq!(loaded, vec![plan]);
        assert!(dir.join("plans").join("00000000deadbeef.quarantined").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_pre_envelope_plan_file_is_quarantined_and_the_other_plans_load() {
        let dir = tempdir("pre-envelope");
        let store = DiskStore::open(&dir).unwrap();
        let plan = sample_plan();
        assert!(store.put_plan(&plan).unwrap());
        // A second plan as a pre-envelope build wrote it: `PTKG`, a
        // version byte, then what is today the envelope payload.
        let payload = pytfhe_wire::decode(&plan.to_bytes()).unwrap().payload.to_vec();
        let old = [b"PTKG\x01".as_ref(), &payload].concat();
        let path = dir.join("plans").join("00000000000000aa.plan");
        fs::write(&path, &old).unwrap();
        let quarantined = || {
            let counters = telemetry::metrics().snapshot().counters;
            counters.get("disk_store_quarantined_total{kind=\"plan\"}").copied().unwrap_or(0)
        };
        let before = quarantined();

        assert_eq!(store.load_plans().unwrap(), vec![plan.clone()]);
        assert!(quarantined() > before, "the refused file is counted");
        assert!(!path.exists());
        assert_eq!(fs::read(path.with_extension("quarantined")).unwrap(), old, "kept aside as is");
        assert_eq!(store.load_plans().unwrap(), vec![plan]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn capacity_evicts_least_recently_used_keys() {
        let dir = tempdir("lru");
        let store = DiskStore::with_capacity(&dir, 2).unwrap();
        assert_eq!(store.key_capacity(), Some(2));
        let before = telemetry::metrics()
            .snapshot()
            .counters
            .get("store_keys_evicted_total")
            .copied()
            .unwrap_or(0);
        let (id_a, _) = store.put_key_blob(&KeyBlob::new(b"key a")).unwrap();
        let (id_b, _) = store.put_key_blob(&KeyBlob::new(b"key b")).unwrap();
        // Touch A so B becomes the least recently used.
        assert!(store.get_key_blob(id_a).unwrap().is_some());
        let (id_c, _) = store.put_key_blob(&KeyBlob::new(b"key c")).unwrap();
        // B evicted; A and C survive.
        assert_eq!(store.get_key_blob(id_b).unwrap(), None);
        assert_eq!(store.get_key_blob(id_a).unwrap(), Some(b"key a".to_vec()));
        assert_eq!(store.get_key_blob(id_c).unwrap(), Some(b"key c".to_vec()));
        let after = telemetry::metrics()
            .snapshot()
            .counters
            .get("store_keys_evicted_total")
            .copied()
            .unwrap_or(0);
        assert_eq!(after - before, 1, "exactly one eviction must be counted");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn untracked_keys_evict_before_tracked_ones() {
        let dir = tempdir("lru-cold");
        // A previous process left two keys behind; this process never
        // touches the first.
        {
            let store = DiskStore::open(&dir).unwrap();
            store.put_key_blob(&KeyBlob::new(b"cold key")).unwrap();
        }
        let store = DiskStore::with_capacity(&dir, 2).unwrap();
        let (id_warm, _) = store.put_key_blob(&KeyBlob::new(b"warm key")).unwrap();
        let (id_new, _) = store.put_key_blob(&KeyBlob::new(b"new key")).unwrap();
        let cold_id = fnv1a(b"cold key");
        assert_eq!(store.get_key_blob(cold_id).unwrap(), None, "cold key must evict first");
        assert!(store.get_key_blob(id_warm).unwrap().is_some());
        assert!(store.get_key_blob(id_new).unwrap().is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn uncapped_stores_never_evict() {
        let dir = tempdir("uncapped");
        let store = DiskStore::open(&dir).unwrap();
        for i in 0..8u64 {
            store.put_key_blob(&KeyBlob::new(&i.to_le_bytes())).unwrap();
        }
        assert_eq!(store.key_ids().unwrap().len(), 8);
        assert_eq!(store.key_capacity(), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stray_files_are_ignored() {
        let dir = tempdir("stray");
        let store = DiskStore::open(&dir).unwrap();
        fs::write(dir.join("keys").join("notes.txt"), b"hi").unwrap();
        fs::write(dir.join("plans").join("short.plan"), b"hi").unwrap();
        assert!(store.key_ids().unwrap().is_empty());
        assert!(store.load_plans().unwrap().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }
}
