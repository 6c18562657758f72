//! The serving front: session admission, connection handlers, and the
//! shared scheduler + key cache behind them.
//!
//! A [`ServeHandle`] owns one scheduler thread and one key cache. Each
//! attached transport gets a handler thread that speaks the frame
//! protocol: install-key, submit, fetch, close. Admission control is
//! two-level — a live-session ceiling at attach time and a per-tenant
//! in-flight job quota at submit time — and both rejections travel as
//! typed reply frames so clients can back off instead of guessing.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use pytfhe_backend::DiskStore;
use pytfhe_telemetry as telemetry;
use pytfhe_wire::Format;

use crate::error::ServeError;
use crate::frame::{
    self, decode_fetch, decode_install_key, decode_submit, read_frame, write_frame,
};
use crate::keycache::KeyCache;
use crate::scheduler::Scheduler;
use crate::transport::Transport;

/// Serving-front tunables.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Sessions that may be attached at once; further attaches are
    /// rejected with [`ServeError::Overloaded`].
    pub max_sessions: usize,
    /// Jobs one tenant may have queued or running at once.
    pub tenant_quota: usize,
    /// Bootstrapped gates drained into one scheduler wave.
    pub max_wave: usize,
    /// Decoded server keys held in memory.
    pub key_cache_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { max_sessions: 8, tenant_quota: 4, max_wave: 64, key_cache_capacity: 4 }
    }
}

/// A running serving front.
pub struct ServeHandle {
    config: ServeConfig,
    keys: Arc<KeyCache>,
    scheduler: Arc<Scheduler>,
    live: Arc<AtomicUsize>,
}

impl ServeHandle {
    /// Starts the front: scheduler thread plus an optionally
    /// store-backed key cache (for key persistence and rehydration).
    pub fn start(config: ServeConfig, store: Option<DiskStore>) -> Self {
        let keys = Arc::new(KeyCache::new(config.key_cache_capacity, store));
        let scheduler = Arc::new(Scheduler::start(config.max_wave));
        ServeHandle { config, keys, scheduler, live: Arc::new(AtomicUsize::new(0)) }
    }

    /// The shared key cache, for in-process inspection (tests).
    pub fn key_cache(&self) -> &KeyCache {
        &self.keys
    }

    /// Admits a session and spawns its handler thread, which serves the
    /// transport until the peer closes or sends a `ServeClose`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Overloaded`] at the session ceiling — the
    /// rejection is also written onto the transport as a reply frame
    /// before it is dropped, so the client sees a typed error rather
    /// than a dead connection.
    pub fn attach<T: Transport + 'static>(
        &self,
        mut transport: T,
    ) -> Result<JoinHandle<()>, ServeError> {
        // Reserve a slot atomically; undo on rejection.
        let prev = self.live.fetch_add(1, Ordering::SeqCst);
        if prev >= self.config.max_sessions {
            self.live.fetch_sub(1, Ordering::SeqCst);
            let err = ServeError::Overloaded { live: prev, max: self.config.max_sessions };
            telemetry::metrics().counter_add("serve_sessions_rejected_total", 1);
            let _ = write_frame(&mut transport, Format::ServeReply, &[&frame::reply_error(&err)]);
            return Err(err);
        }
        telemetry::metrics().counter_add("serve_sessions_admitted_total", 1);
        telemetry::metrics().gauge_set("serve_live_sessions", (prev + 1) as f64);
        let session = SessionWorker {
            keys: Arc::clone(&self.keys),
            scheduler: Arc::clone(&self.scheduler),
            quota: self.config.tenant_quota,
            live: Arc::clone(&self.live),
        };
        std::thread::Builder::new()
            .name("pytfhe-serve-session".into())
            .spawn(move || session.run(transport))
            .map_err(ServeError::Io)
    }
}

struct SessionWorker {
    keys: Arc<KeyCache>,
    scheduler: Arc<Scheduler>,
    quota: usize,
    live: Arc<AtomicUsize>,
}

impl SessionWorker {
    fn run<T: Transport>(self, mut transport: T) {
        // A clean EOF or a transport failure both end the session; the
        // `while let` falls through on either.
        while let Ok(Some(request)) = read_frame(&mut transport) {
            if request.version != frame::FRAME_VERSION {
                let err =
                    ServeError::Protocol(format!("unsupported frame version {}", request.version));
                let _ = self.reply(&mut transport, &frame::reply_error(&err));
                continue;
            }
            let close = request.format == Format::ServeClose;
            let reply = self.dispatch(request.format, request.payload());
            if self.reply(&mut transport, &reply).is_err() || close {
                break;
            }
        }
        let remaining = self.live.fetch_sub(1, Ordering::SeqCst) - 1;
        telemetry::metrics().gauge_set("serve_live_sessions", remaining as f64);
    }

    fn reply<T: Transport>(&self, transport: &mut T, payload: &[u8]) -> Result<(), ServeError> {
        write_frame(transport, Format::ServeReply, &[payload])
    }

    fn dispatch(&self, format: Format, payload: &[u8]) -> Vec<u8> {
        let result = match format {
            Format::ServeInstallKey => self.handle_install(payload),
            Format::ServeSubmit => self.handle_submit(payload),
            Format::ServeFetch => self.handle_fetch(payload),
            Format::ServeClose => Ok(frame::reply_ok()),
            other => Err(ServeError::Protocol(format!(
                "unexpected frame {} on a serving session",
                other.name()
            ))),
        };
        result.unwrap_or_else(|err| frame::reply_error(&err))
    }

    /// Installs the key from inside the received frame: no copy of it is
    /// made on the way to the cache.
    fn handle_install(&self, payload: &[u8]) -> Result<Vec<u8>, ServeError> {
        let key_bytes = decode_install_key(payload)?;
        let fingerprint = self.keys.install(key_bytes)?;
        Ok(frame::reply_fingerprint(fingerprint))
    }

    fn handle_submit(&self, payload: &[u8]) -> Result<Vec<u8>, ServeError> {
        let (fingerprint, nl, inputs, tagged) = decode_submit(payload)?;
        nl.validate().map_err(|e| ServeError::Protocol(format!("invalid program: {e}")))?;
        let key = self.keys.get(fingerprint)?.ok_or(ServeError::UnknownKey(fingerprint))?;
        if tagged.is_some_and(|params| params != *key.params()) {
            return Err(ServeError::Protocol(format!(
                "inputs are tagged with a parameter set other than that of key {fingerprint:016x}"
            )));
        }
        let id = self.scheduler.submit(fingerprint, key, nl, inputs, self.quota)?;
        Ok(frame::reply_job(id))
    }

    fn handle_fetch(&self, payload: &[u8]) -> Result<Vec<u8>, ServeError> {
        let id = decode_fetch(payload)?;
        let (outputs, params) = self.scheduler.fetch(id)?;
        Ok(frame::reply_outputs(&outputs, &params))
    }
}
