//! The client/server session of the paper's Figure 1.

use chiseltorch::DType;
use pytfhe_backend::{
    execute_resilient, CheckpointStore, DiskStore, ExecError, ExecStats, FaultInjector,
    KernelGraph, KeyBlob, ResilientConfig, TfheEngine,
};
use pytfhe_netlist::Netlist;
use pytfhe_telemetry as telemetry;
use pytfhe_tfhe::{ClientKey, LweCiphertext, NoiseModel, Params, SecureRng, ServerKey, TfheError};

/// Re-exported from [`pytfhe_tfhe`], where the guard lives.
pub use pytfhe_tfhe::NoiseGuard;

/// The data owner: holds the secret key, encrypts inputs, decrypts
/// results. Never ships secret material.
#[derive(Debug)]
pub struct Client {
    key: ClientKey,
    rng: SecureRng,
}

impl Client {
    /// Creates a client with a fresh key pair under `params`, seeded
    /// deterministically (use [`Client::from_entropy`] outside tests).
    pub fn new(params: Params, seed: u64) -> Self {
        let mut rng = SecureRng::seed_from_u64(seed);
        let key = ClientKey::generate(params, &mut rng);
        Client { key, rng }
    }

    /// Creates a client with operating-system randomness.
    pub fn from_entropy(params: Params) -> Self {
        let mut rng = SecureRng::from_entropy();
        let key = ClientKey::generate(params, &mut rng);
        Client { key, rng }
    }

    /// Derives the public evaluation key to ship to the server.
    pub fn make_server_key(&mut self) -> ServerKey {
        let _span = telemetry::span("session", "derive server key");
        self.key.server_key(&mut self.rng)
    }

    /// Encrypts raw bits (little-endian program order).
    pub fn encrypt_bits(&mut self, bits: &[bool]) -> Vec<LweCiphertext> {
        let _span = telemetry::span_with("session", || format!("encrypt {} bits", bits.len()));
        self.key.encrypt_bits(bits, &mut self.rng)
    }

    /// Decrypts ciphertexts to bits.
    pub fn decrypt_bits(&self, cts: &[LweCiphertext]) -> Vec<bool> {
        let _span = telemetry::span_with("session", || format!("decrypt {} bits", cts.len()));
        self.key.decrypt_bits(cts)
    }

    /// Quantizes scalars under `dtype` and encrypts the resulting bits —
    /// the client half of the ChiselTorch data-type contract.
    pub fn encrypt_values(&mut self, values: &[f64], dtype: DType) -> Vec<LweCiphertext> {
        let bits: Vec<bool> = values.iter().flat_map(|&v| dtype.encode_f64(v)).collect();
        self.encrypt_bits(&bits)
    }

    /// Decrypts ciphertexts and decodes them as `dtype` scalars.
    ///
    /// # Panics
    ///
    /// Panics if the ciphertext count is not a multiple of the type
    /// width.
    pub fn decrypt_values(&self, cts: &[LweCiphertext], dtype: DType) -> Vec<f64> {
        let bits = self.decrypt_bits(cts);
        assert_eq!(bits.len() % dtype.width(), 0, "ragged ciphertext vector");
        bits.chunks(dtype.width()).map(|ch| dtype.decode_f64(ch)).collect()
    }
}

/// The untrusted evaluator: holds only the public evaluation key and the
/// program; sees only ciphertexts.
///
/// A server constructed with [`Server::with_store`] additionally
/// persists its expensive session artifacts — the installed evaluation
/// key and every captured kernel plan — to a [`DiskStore`], and a
/// restarted process can rebuild the whole session from that directory
/// with [`Server::warm_start`] instead of paying key transfer and plan
/// capture again.
#[derive(Debug)]
pub struct Server {
    key: ServerKey,
    graph: KernelGraph,
    store: Option<DiskStore>,
}

impl Server {
    /// Creates a server around a received evaluation key.
    ///
    /// When telemetry is enabled, publishes the parameter set's
    /// analytical noise budget (fresh/blind-rotation/key-switch/gate
    /// output variances and the gate failure probability) as gauges, so
    /// every trace carries the noise model it ran under. Keys failing
    /// the default [`NoiseGuard`] are still admitted here (tests run on
    /// deliberately weak parameters), but the breach is counted on the
    /// `session_noise_guard_warnings_total` telemetry counter; use
    /// [`Server::with_noise_guard`] to make admission strict.
    pub fn new(key: ServerKey) -> Self {
        let model = NoiseModel::new(*key.params());
        model.record_gauges();
        if model.gate_failure_probability() > NoiseGuard::default().max_gate_failure_probability {
            telemetry::metrics().counter_add("session_noise_guard_warnings_total", 1);
        }
        Server { key, graph: KernelGraph::new(), store: None }
    }

    /// Creates a server only if the key's parameter set passes `guard`.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::NoiseBudgetExceeded`] when the analytical
    /// per-gate failure probability exceeds the guard's threshold.
    pub fn with_noise_guard(key: ServerKey, guard: NoiseGuard) -> Result<Self, TfheError> {
        guard.admit(key.params())?;
        Ok(Self::new(key))
    }

    /// Creates a server around `key` and attaches a durable store: the
    /// key is persisted immediately (counted on
    /// `session_keys_installed_total` when newly written) and any plans
    /// already on disk are adopted into the plan cache (counted on
    /// `session_plans_warm_loaded_total`), so programs seen by an
    /// earlier process replay without re-capture.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::StoreIo`] when the store cannot be written
    /// or listed.
    pub fn with_store(key: ServerKey, store: DiskStore) -> Result<Self, ExecError> {
        let mut server = Self::new(key);
        let bytes = pytfhe_tfhe::io::server_key_to_bytes(&server.key);
        let (_, fresh) = store.put_key_blob(&KeyBlob::new(&bytes))?;
        if fresh {
            telemetry::metrics().counter_add("session_keys_installed_total", 1);
        }
        server.adopt_stored_plans(&store)?;
        server.store = Some(store);
        Ok(server)
    }

    /// Rebuilds a server from a [`DiskStore`] populated by an earlier
    /// process, without the client re-shipping the evaluation key: the
    /// first stored key that [`DiskStore::load_key`] decodes becomes the
    /// session key (the store quarantines the ones it cannot), and all
    /// stored plans are adopted. Returns `Ok(None)` when the store holds
    /// no usable key.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::StoreIo`] when the store itself cannot be
    /// read — corrupt individual artifacts never fail the warm start.
    pub fn warm_start(store: DiskStore) -> Result<Option<Self>, ExecError> {
        let _span = telemetry::span("session", "warm start from disk store");
        // One blob in memory at a time: stop at the first that decodes.
        let key = store.key_ids()?.into_iter().find_map(|id| store.load_key(id).transpose());
        let Some(key) = key.transpose()? else { return Ok(None) };
        let mut server = Self::new(key);
        server.adopt_stored_plans(&store)?;
        server.store = Some(store);
        // Count only after the whole session rebuilt — a key decode
        // followed by a failed plan load is a failed warm start, and the
        // counter must never overcount those.
        telemetry::metrics().counter_add("session_keys_warm_started_total", 1);
        Ok(Some(server))
    }

    /// Loads every intact plan from `store` into the plan cache.
    fn adopt_stored_plans(&mut self, store: &DiskStore) -> Result<(), ExecError> {
        let plans = store.load_plans()?;
        if !plans.is_empty() {
            telemetry::metrics().counter_add("session_plans_warm_loaded_total", plans.len() as u64);
        }
        for plan in plans {
            self.graph.adopt(plan);
        }
        Ok(())
    }

    /// The evaluation key (e.g. for engine construction).
    pub fn key(&self) -> &ServerKey {
        &self.key
    }

    /// Executes a program on encrypted inputs across `workers` pool
    /// lanes (Algorithm 1 of the paper): [`Server::execute_graph`]
    /// without the statistics, so repeat calls on the same program
    /// replay the cached plan.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] on inputs of the wrong count or LWE
    /// dimension, or invalid programs.
    pub fn execute(
        &self,
        program: &Netlist,
        inputs: &[LweCiphertext],
        workers: usize,
    ) -> Result<Vec<LweCiphertext>, ExecError> {
        let _span = telemetry::span_with("session", || {
            format!("execute: {} gates, {workers} workers", program.num_gates())
        });
        self.run_graph(program, inputs, workers).map(|(out, _)| out)
    }

    /// Executes a program on encrypted inputs with the kernel-graph
    /// backend: the first call captures the program into a batched
    /// execution plan (the CUDA-Graphs analogue of the paper's
    /// Figure 9); repeat calls on the same program replay the cached
    /// plan directly — check [`ExecStats::plan_cached`].
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] on inputs of the wrong count or LWE
    /// dimension, or invalid programs.
    pub fn execute_graph(
        &self,
        program: &Netlist,
        inputs: &[LweCiphertext],
        workers: usize,
    ) -> Result<(Vec<LweCiphertext>, ExecStats), ExecError> {
        let _span = telemetry::span_with("session", || {
            format!("execute_graph: {} gates, {workers} workers", program.num_gates())
        });
        self.run_graph(program, inputs, workers)
    }

    /// Captures-or-fetches the plan and replays it; a plan captured by
    /// this call is counted and persisted to the attached store.
    fn run_graph(
        &self,
        program: &Netlist,
        inputs: &[LweCiphertext],
        workers: usize,
    ) -> Result<(Vec<LweCiphertext>, ExecStats), ExecError> {
        let engine = TfheEngine::new(&self.key);
        let result = self.graph.execute(&engine, program, inputs, workers)?;
        if !result.1.plan_cached {
            telemetry::metrics().counter_add("session_plans_captured_total", 1);
            if let Some(store) = &self.store {
                // The plan was captured this call, so this lookup is a
                // cache hit; persist it for the next process. A failed
                // persist costs a future re-capture, not this run.
                match self.graph.plan_for(program).map(|(plan, _, _)| store.put_plan(&plan)) {
                    Ok(Ok(_)) => {}
                    Ok(Err(_)) | Err(_) => {
                        telemetry::metrics().counter_add("session_plan_persist_failures_total", 1);
                    }
                }
            }
        }
        Ok(result)
    }

    /// Executes a program on encrypted inputs with the fault-tolerant
    /// wavefront backend: failed chunks of a wave retry with backoff,
    /// crashed workers are evicted, and — when `store` is supplied — the
    /// ciphertext frontier checkpoints at every wave barrier so an
    /// interrupted evaluation resumes instead of restarting. `faults` is
    /// the injection hook; pass [`pytfhe_backend::NoFaults`] in
    /// production.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] on the usual validation failures, exhausted
    /// retry budgets, full worker loss, or checkpoint mismatches.
    pub fn execute_resilient(
        &self,
        program: &Netlist,
        inputs: &[LweCiphertext],
        cfg: &ResilientConfig,
        faults: &dyn FaultInjector,
        store: Option<&mut dyn CheckpointStore>,
    ) -> Result<(Vec<LweCiphertext>, ExecStats), ExecError> {
        let _span = telemetry::span_with("session", || {
            format!("execute_resilient: {} gates, {} workers", program.num_gates(), cfg.workers)
        });
        let engine = TfheEngine::new(&self.key);
        execute_resilient(&engine, program, inputs, cfg, faults, store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pytfhe_netlist::GateKind;

    /// `session_plans_captured_total` is process-global: tests that
    /// capture a plan hold this while they run, so the test that reads
    /// the counter's delta sees only its own captures.
    static CAPTURES: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn session_round_trip() {
        let _captures = CAPTURES.lock().unwrap();
        let mut client = Client::new(Params::testing(), 5);
        let server = Server::new(client.make_server_key());
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let b = nl.add_input();
        let g = nl.add_gate(GateKind::Xor, a, b).unwrap();
        nl.mark_output(g).unwrap();
        let captured = || {
            let counters = telemetry::metrics().snapshot().counters;
            counters.get("session_plans_captured_total").copied().unwrap_or(0)
        };
        let before = captured();
        let cts = client.encrypt_bits(&[true, false]);
        let out = server.execute(&nl, &cts, 2).unwrap();
        assert_eq!(client.decrypt_bits(&out), vec![true]);
        assert_eq!(captured() - before, 1, "first sight of the program captures its plan");
        let cts = client.encrypt_bits(&[true, true]);
        let out = server.execute(&nl, &cts, 2).unwrap();
        assert_eq!(client.decrypt_bits(&out), vec![false]);
        assert_eq!(captured() - before, 1, "a repeat execute must replay the cached plan");
    }

    #[test]
    fn execute_and_execute_graph_share_one_cached_plan() {
        let _captures = CAPTURES.lock().unwrap();
        let mut client = Client::new(Params::testing(), 9);
        let server = Server::new(client.make_server_key());
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let b = nl.add_input();
        let x = nl.add_gate(GateKind::Xor, a, b).unwrap();
        let y = nl.add_gate(GateKind::Nand, a, b).unwrap();
        let z = nl.add_gate(GateKind::Or, x, y).unwrap();
        nl.mark_output(z).unwrap();
        for bits in [[true, false], [true, true], [false, false]] {
            let cts = client.encrypt_bits(&bits);
            let want = server.execute(&nl, &cts, 2).unwrap();
            let (got, stats) = server.execute_graph(&nl, &cts, 2).unwrap();
            assert_eq!(got, want, "both entry points replay the same plan");
            assert!(stats.plan_cached, "execute already captured the plan");
        }
    }

    #[test]
    fn typed_values_round_trip() {
        let mut client = Client::new(Params::testing(), 6);
        let dtype = DType::SInt(6);
        let cts = client.encrypt_values(&[-3.0, 7.0], dtype);
        assert_eq!(cts.len(), 12);
        let back = client.decrypt_values(&cts, dtype);
        assert_eq!(back, vec![-3.0, 7.0]);
    }

    #[test]
    fn resilient_session_round_trip() {
        use pytfhe_backend::{MemoryCheckpointStore, ResilientConfig, RetryPolicy, SeededFaults};
        let mut client = Client::new(Params::testing(), 8);
        let server = Server::new(client.make_server_key());
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let b = nl.add_input();
        let x = nl.add_gate(GateKind::Xor, a, b).unwrap();
        let y = nl.add_gate(GateKind::And, a, b).unwrap();
        let z = nl.add_gate(GateKind::Or, x, y).unwrap();
        nl.mark_output(z).unwrap();
        let cts = client.encrypt_bits(&[true, false]);
        let cfg = ResilientConfig { workers: 2, retry: RetryPolicy::fast() };
        let faults = SeededFaults::new(13).with_fail_prob(0.2);
        let mut store = MemoryCheckpointStore::new();
        let (out, stats) =
            server.execute_resilient(&nl, &cts, &cfg, &faults, Some(&mut store)).unwrap();
        assert_eq!(client.decrypt_bits(&out), vec![true]);
        assert!(stats.checkpoints > 0);
        assert!(store.latest().is_some());
    }

    #[test]
    fn noise_guard_rejects_weak_parameters_and_admits_loose_thresholds() {
        let mut client = Client::new(Params::testing(), 11);
        // The insecure test parameters predict an appreciable per-gate
        // failure probability; a strict guard must refuse the key.
        let err = Server::with_noise_guard(client.make_server_key(), NoiseGuard::default())
            .expect_err("testing params should fail the default guard");
        assert!(matches!(err, TfheError::NoiseBudgetExceeded { .. }), "{err:?}");
        // The same key is admitted once the threshold is loosened.
        let server =
            Server::with_noise_guard(client.make_server_key(), NoiseGuard::max_probability(1.0))
                .unwrap();
        let cts = client.encrypt_bits(&[true]);
        assert_eq!(client.decrypt_bits(&cts), vec![true]);
        drop(server);
    }

    #[test]
    fn warm_start_rebuilds_the_session_from_disk() {
        let dir = std::env::temp_dir().join(format!("pytfhe-warmstart-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let b = nl.add_input();
        let g = nl.add_gate(GateKind::Nand, a, b).unwrap();
        nl.mark_output(g).unwrap();

        let _captures = CAPTURES.lock().unwrap();
        let mut client = Client::new(Params::testing(), 12);
        // First process: install the key, capture and persist the plan.
        {
            let store = DiskStore::open(&dir).unwrap();
            let server = Server::with_store(client.make_server_key(), store).unwrap();
            let cts = client.encrypt_bits(&[true, true]);
            let (out, stats) = server.execute_graph(&nl, &cts, 1).unwrap();
            assert!(!stats.plan_cached, "first sight of the program must capture");
            assert_eq!(client.decrypt_bits(&out), vec![false]);
        }
        // Second process: no key shipped, no capture — everything
        // restores from the store directory.
        {
            let store = DiskStore::open(&dir).unwrap();
            let server = Server::warm_start(store).unwrap().expect("a key is on disk");
            let cts = client.encrypt_bits(&[true, false]);
            let (out, stats) = server.execute_graph(&nl, &cts, 1).unwrap();
            assert!(stats.plan_cached, "warm-started plan must skip capture");
            assert_eq!(client.decrypt_bits(&out), vec![true]);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_warm_start_does_not_bump_the_warm_start_counter() {
        // The other warm-starting tests hold this too: without it, one of
        // them succeeding between `before` and the assert fails this test.
        let _captures = CAPTURES.lock().unwrap();
        let dir = std::env::temp_dir().join(format!("pytfhe-warmstart-ctr-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut client = Client::new(Params::testing(), 14);
        drop(Server::with_store(client.make_server_key(), DiskStore::open(&dir).unwrap()).unwrap());
        // Open the store first, then sabotage the plan directory: the key
        // decodes fine, but the plan rebuild that follows must fail the
        // warm start — and a failed warm start must not count as one.
        let store = DiskStore::open(&dir).unwrap();
        std::fs::remove_dir_all(dir.join("plans")).unwrap();
        std::fs::write(dir.join("plans"), b"not a directory").unwrap();
        let counter = || {
            telemetry::metrics()
                .snapshot()
                .counters
                .get("session_keys_warm_started_total")
                .copied()
                .unwrap_or(0)
        };
        let before = counter();
        let err = Server::warm_start(store);
        assert!(matches!(err, Err(ExecError::StoreIo(_))), "{err:?}");
        assert_eq!(counter(), before, "a failed warm start must not bump the counter");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn warm_start_on_an_empty_store_is_none() {
        let dir =
            std::env::temp_dir().join(format!("pytfhe-warmstart-empty-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DiskStore::open(&dir).unwrap();
        assert!(Server::warm_start(store).unwrap().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn warm_start_quarantines_corrupt_keys_and_uses_the_intact_one() {
        let _captures = CAPTURES.lock().unwrap();
        let dir =
            std::env::temp_dir().join(format!("pytfhe-warmstart-quar-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DiskStore::open(&dir).unwrap();
        // A garbage blob sorts first (content-addressed name) often
        // enough either way: warm start must skip it, quarantine it, and
        // land on the real key.
        store.put_key_blob(&KeyBlob::new(b"definitely not a server key")).unwrap();
        let mut client = Client::new(Params::testing(), 13);
        drop(Server::with_store(client.make_server_key(), DiskStore::open(&dir).unwrap()).unwrap());
        let server = Server::warm_start(store).unwrap().expect("the intact key should load");
        let cts = client.encrypt_bits(&[false, true]);
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let b = nl.add_input();
        let g = nl.add_gate(GateKind::Or, a, b).unwrap();
        nl.mark_output(g).unwrap();
        let out = server.execute(&nl, &cts, 1).unwrap();
        assert_eq!(client.decrypt_bits(&out), vec![true]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_input_count_is_reported() {
        let mut client = Client::new(Params::testing(), 7);
        let server = Server::new(client.make_server_key());
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let b = nl.add_input();
        let g = nl.add_gate(GateKind::And, a, b).unwrap();
        nl.mark_output(g).unwrap();
        let cts = client.encrypt_bits(&[true]);
        assert!(matches!(
            server.execute(&nl, &cts, 1),
            Err(ExecError::InputCountMismatch { expected: 2, got: 1 })
        ));
    }

    #[test]
    fn input_of_the_wrong_dimension_is_a_typed_error_on_every_executor() {
        use pytfhe_backend::{NoFaults, ResilientConfig, RetryPolicy};
        let mut client = Client::new(Params::testing(), 9);
        let server = Server::new(client.make_server_key());
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let b = nl.add_input();
        let g = nl.add_gate(GateKind::And, a, b).unwrap();
        nl.mark_output(g).unwrap();
        let mut cts = client.encrypt_bits(&[true, true]);
        cts[1] = LweCiphertext::trivial(pytfhe_tfhe::Torus32::ZERO, 1);
        let want = ExecError::InputDimensionMismatch {
            index: 1,
            expected: Params::testing().lwe_dim,
            got: 1,
        };
        assert_eq!(server.execute(&nl, &cts, 2).unwrap_err(), want);
        assert_eq!(server.execute_graph(&nl, &cts, 1).unwrap_err(), want);
        let cfg = ResilientConfig { workers: 1, retry: RetryPolicy::fast() };
        assert_eq!(server.execute_resilient(&nl, &cts, &cfg, &NoFaults, None).unwrap_err(), want);
        let engine = TfheEngine::new(server.key());
        assert_eq!(pytfhe_backend::execute(&engine, &nl, &cts).unwrap_err(), want);
        assert_eq!(pytfhe_backend::execute_parallel(&engine, &nl, &cts, 2).unwrap_err(), want);
        let graph = KernelGraph::new();
        assert_eq!(graph.execute(&engine, &nl, &cts, 2).unwrap_err(), want);
        // Refused calls capture no plan: the first call that runs does.
        let refused = graph.execute(&engine, &nl, &cts[..1], 1);
        assert!(matches!(refused, Err(ExecError::InputCountMismatch { .. })), "{refused:?}");
        cts[1] = client.encrypt_bits(&[true]).remove(0);
        let (out, stats) = graph.execute(&engine, &nl, &cts, 1).unwrap();
        assert_eq!((client.decrypt_bits(&out), stats.plan_cached), (vec![true], false));
    }
}
