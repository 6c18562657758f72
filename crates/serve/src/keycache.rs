//! Fingerprint-keyed server-key cache.
//!
//! Decoding a server key is the dominant per-request cost of a
//! stateless front (it regenerates every mask from the key's seed and
//! transforms the bootstrapping key: 124 MB at 128 bits), so the serving
//! layer decodes each tenant's key once and
//! shares the decoded [`ServerKey`] — behind an `Arc` — across every
//! job, session, and scheduler wave that references its fingerprint.
//!
//! The cache holds at most `capacity` decoded keys; beyond that the
//! least-recently-used key is dropped from memory. When a
//! [`DiskStore`] backs the cache, installs also persist the key bytes
//! and a miss transparently rehydrates from disk, so an evicted
//! tenant's next request costs one decode instead of a re-upload.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use pytfhe_backend::{DiskStore, KeyBlob};
use pytfhe_telemetry as telemetry;
use pytfhe_tfhe::io::server_key_from_bytes;
use pytfhe_tfhe::ServerKey;

use crate::error::ServeError;

struct CacheInner {
    keys: HashMap<u64, Arc<ServerKey>>,
    /// Recency order, oldest first.
    lru: Vec<u64>,
}

/// Shared, thread-safe cache of decoded server keys.
pub struct KeyCache {
    inner: Mutex<CacheInner>,
    store: Option<DiskStore>,
    capacity: usize,
}

impl KeyCache {
    /// Creates a cache holding at most `capacity` decoded keys
    /// (clamped to at least one), optionally backed by a durable store.
    pub fn new(capacity: usize, store: Option<DiskStore>) -> Self {
        KeyCache {
            inner: Mutex::new(CacheInner { keys: HashMap::new(), lru: Vec::new() }),
            store,
            capacity: capacity.max(1),
        }
    }

    /// The cache state, poisoned or not: every update leaves the map and
    /// the recency order usable wherever a panic stops it, so one tenant's
    /// panic does not fail the next tenant's install or lookup.
    fn lock(&self) -> MutexGuard<'_, CacheInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of decoded keys currently resident.
    pub fn len(&self) -> usize {
        self.lock().keys.len()
    }

    /// Whether the cache holds no decoded keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Decodes and caches a serialized server key, persisting the bytes
    /// when a store backs the cache. Returns the key's fingerprint —
    /// the tenant identity every subsequent submit references: the
    /// content address of a [`KeyBlob`], hashed once and handed to
    /// [`DiskStore::put_key_blob`], so rehydration finds the same blob.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Tfhe`] when the bytes fail to decode (and
    /// nothing is stored) and [`ServeError::Exec`] when persistence
    /// fails.
    pub fn install(&self, key_bytes: &[u8]) -> Result<u64, ServeError> {
        let blob = KeyBlob::new(key_bytes);
        let fingerprint = blob.id();
        let resident = self.lock().keys.contains_key(&fingerprint);
        // Decode before persisting, so bytes that are not a key never
        // reach the store, where they would sit in `keys/` and could push
        // another tenant's blob out of a capped store. Outside the lock:
        // key decode is the expensive step and other tenants' lookups
        // must not serialize behind it.
        let decoded =
            if resident { None } else { Some(Arc::new(server_key_from_bytes(key_bytes)?)) };
        if let Some(store) = &self.store {
            store.put_key_blob(&blob)?;
        }
        match decoded {
            Some(key) => {
                self.insert(fingerprint, key);
                telemetry::metrics().counter_add("serve_keys_installed_total", 1);
            }
            None => {
                self.touch(fingerprint);
                telemetry::metrics().counter_add("serve_key_cache_hits_total", 1);
            }
        }
        Ok(fingerprint)
    }

    /// Looks up a decoded key, rehydrating from the backing store on a
    /// miss ([`DiskStore::load_key`]). `Ok(None)` means the fingerprint
    /// is unknown — never installed, evicted without a store, or stored as a
    /// blob that no longer decodes, which the store quarantines so that
    /// later requests stop re-reading it; the tenant re-installs.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Exec`] when the store read fails.
    pub fn get(&self, fingerprint: u64) -> Result<Option<Arc<ServerKey>>, ServeError> {
        {
            let inner = self.lock();
            if let Some(key) = inner.keys.get(&fingerprint) {
                let key = Arc::clone(key);
                drop(inner);
                self.touch(fingerprint);
                telemetry::metrics().counter_add("serve_key_cache_hits_total", 1);
                return Ok(Some(key));
            }
        }
        telemetry::metrics().counter_add("serve_key_cache_misses_total", 1);
        let Some(store) = &self.store else { return Ok(None) };
        let Some(key) = store.load_key(fingerprint)? else { return Ok(None) };
        let key = Arc::new(key);
        self.insert(fingerprint, Arc::clone(&key));
        telemetry::metrics().counter_add("serve_key_cache_rehydrations_total", 1);
        Ok(Some(key))
    }

    fn touch(&self, fingerprint: u64) {
        let mut inner = self.lock();
        inner.lru.retain(|&fp| fp != fingerprint);
        inner.lru.push(fingerprint);
    }

    fn insert(&self, fingerprint: u64, key: Arc<ServerKey>) {
        let mut inner = self.lock();
        inner.keys.insert(fingerprint, key);
        inner.lru.retain(|&fp| fp != fingerprint);
        inner.lru.push(fingerprint);
        // A key missing from the recency order (an update cut short by a
        // panic) is never a victim, but it cannot make this loop panic.
        while inner.keys.len() > self.capacity && !inner.lru.is_empty() {
            let victim = inner.lru.remove(0);
            inner.keys.remove(&victim);
            // Memory-only eviction: the blob stays in the store, so the
            // tenant is not lost — its next request rehydrates.
            telemetry::metrics().counter_add("serve_key_cache_evictions_total", 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pytfhe_backend::checkpoint::fnv1a;
    use pytfhe_tfhe::io::server_key_to_bytes;
    use pytfhe_tfhe::{ClientKey, Params, SecureRng};

    fn key_bytes(seed: u64) -> Vec<u8> {
        let mut rng = SecureRng::seed_from_u64(seed);
        let ck = ClientKey::generate(Params::testing(), &mut rng);
        server_key_to_bytes(&ck.server_key(&mut rng)).to_vec()
    }

    #[test]
    fn install_then_get_hits_in_memory() {
        let cache = KeyCache::new(2, None);
        let bytes = key_bytes(1);
        let fp = cache.install(&bytes).unwrap();
        assert!(cache.get(fp).unwrap().is_some());
        assert!(cache.get(fp ^ 1).unwrap().is_none(), "unknown fingerprint");
    }

    #[test]
    fn a_panic_under_the_lock_stops_no_later_install_or_lookup() {
        let cache = KeyCache::new(2, None);
        let first = cache.install(&key_bytes(1)).unwrap();
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = cache.lock();
                panic!("an install panics while it holds the lock");
            })
            .join()
        });
        assert!(panicked.is_err() && cache.inner.is_poisoned());
        // A later install, and the lookup every submit makes, succeed.
        let second = cache.install(&key_bytes(2)).unwrap();
        assert!(cache.get(first).unwrap().is_some());
        assert!(cache.get(second).unwrap().is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn eviction_without_a_store_forgets_the_key() {
        let cache = KeyCache::new(1, None);
        let fp1 = cache.install(&key_bytes(1)).unwrap();
        let _fp2 = cache.install(&key_bytes(2)).unwrap();
        assert_eq!(cache.len(), 1);
        assert!(cache.get(fp1).unwrap().is_none(), "evicted and storeless");
    }

    #[test]
    fn eviction_with_a_store_rehydrates() {
        let dir = std::env::temp_dir().join(format!("pytfhe-keycache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DiskStore::open(&dir).unwrap();
        let cache = KeyCache::new(1, Some(store));
        let fp1 = cache.install(&key_bytes(1)).unwrap();
        let _fp2 = cache.install(&key_bytes(2)).unwrap();
        assert_eq!(cache.len(), 1, "capacity enforced");
        let before = telemetry::metrics()
            .snapshot()
            .counters
            .get("serve_key_cache_rehydrations_total")
            .copied()
            .unwrap_or(0);
        assert!(cache.get(fp1).unwrap().is_some(), "rehydrated from disk");
        let after = telemetry::metrics()
            .snapshot()
            .counters
            .get("serve_key_cache_rehydrations_total")
            .copied()
            .unwrap_or(0);
        assert_eq!(after, before + 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn key_files(dir: &std::path::Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir.join("keys"))
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn a_garbage_install_stores_nothing_and_evicts_no_neighbour() {
        let dir =
            std::env::temp_dir().join(format!("pytfhe-keycache-garbage-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DiskStore::open(&dir).unwrap();
        let cache = KeyCache::new(2, Some(store.clone()));
        let neighbour = cache.install(&key_bytes(4)).unwrap();
        let before = key_files(&dir);
        assert_eq!(before.len(), 1);

        assert!(matches!(cache.install(b"not a server key"), Err(ServeError::Tfhe(_))));
        assert_eq!(key_files(&dir), before, "no file added, the neighbour's blob in place");
        assert!(store.get_key_blob(neighbour).unwrap().is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_rotted_blob_is_quarantined_once_and_not_read_again() {
        let dir = std::env::temp_dir().join(format!("pytfhe-keycache-rot-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DiskStore::open(&dir).unwrap();
        let (fp, _) = store.put_key_blob(&KeyBlob::new(b"rotted beyond decoding")).unwrap();
        let cache = KeyCache::new(1, Some(store));

        assert!(cache.get(fp).unwrap().is_none(), "an undecodable blob is an unknown key");
        assert_eq!(key_files(&dir), vec![format!("{fp:016x}.quarantined")]);
        // Nothing is left under the fingerprint for the next request to
        // re-read and re-fail on.
        assert!(cache.get(fp).unwrap().is_none());
        assert_eq!(key_files(&dir), vec![format!("{fp:016x}.quarantined")]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fingerprints_match_the_store_content_address() {
        let dir = std::env::temp_dir().join(format!("pytfhe-keycache-fp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let bytes = key_bytes(3);
        let storeless = KeyCache::new(1, None).install(&bytes).unwrap();
        let store = DiskStore::open(&dir).unwrap();
        let stored = KeyCache::new(1, Some(store)).install(&bytes).unwrap();
        assert_eq!(storeless, stored, "local FNV-1a must equal the store's");
        // The one hash of an install is the content address the blob is
        // filed under.
        let blob = dir.join("keys").join(format!("{:016x}.key", fnv1a(&bytes)));
        assert_eq!(std::fs::read(blob).unwrap(), bytes);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
