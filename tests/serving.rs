//! Integration tests of the multi-tenant serving layer: concurrent
//! tenants against plaintext oracles, admission control, fairness
//! under a greedy tenant, and key eviction + rehydration round trips.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pytfhe_backend::{capture, CaptureConfig, DiskStore, KernelGraph, TfheEngine};
use pytfhe_hdl::{Circuit, Word};
use pytfhe_netlist::{GateKind, Netlist, ALL_GATE_KINDS};
use pytfhe_serve::{duplex, ServeClient, ServeConfig, ServeError, ServeHandle};
use pytfhe_tfhe::io::{ciphertext_to_bytes, server_key_from_bytes, server_key_to_bytes};
use pytfhe_tfhe::{ClientKey, LweCiphertext, Params, SecureRng, Torus32};

/// A deterministic random DAG over every gate kind: each gate draws its
/// operands from the pool of inputs and earlier gates.
fn random_netlist(seed: u64, inputs: usize, gates: usize) -> Netlist {
    let mut state = seed | 1;
    let mut next = move |bound: usize| {
        // xorshift64* — deterministic across platforms, no dependencies.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % bound
    };
    let mut nl = Netlist::new();
    let mut pool: Vec<_> = (0..inputs).map(|_| nl.add_input()).collect();
    for _ in 0..gates {
        let kind = ALL_GATE_KINDS[next(ALL_GATE_KINDS.len())];
        let a = pool[next(pool.len())];
        let b = pool[next(pool.len())];
        pool.push(nl.add_gate(kind, a, b).expect("valid refs"));
    }
    nl.mark_output(*pool.last().unwrap()).unwrap();
    nl.mark_output(pool[pool.len() / 2]).unwrap();
    nl
}

fn tenant_material(seed: u64) -> (ClientKey, Vec<u8>, SecureRng) {
    let mut rng = SecureRng::seed_from_u64(seed);
    let ck = ClientKey::generate(Params::testing(), &mut rng);
    let key_bytes = server_key_to_bytes(&ck.server_key(&mut rng)).to_vec();
    (ck, key_bytes, rng)
}

/// N concurrent tenants, each with its own key and random programs,
/// all verified bit-exact against `eval_plain`.
#[test]
fn concurrent_tenants_match_plaintext_oracles() {
    const TENANTS: u64 = 4;
    const JOBS: u64 = 2;
    let front = Arc::new(ServeHandle::start(
        ServeConfig { max_sessions: TENANTS as usize, ..ServeConfig::default() },
        None,
    ));
    let workers: Vec<_> = (0..TENANTS)
        .map(|tenant| {
            let front = Arc::clone(&front);
            std::thread::spawn(move || {
                let params = Params::testing();
                let (ck, key_bytes, mut rng) = tenant_material(100 + tenant);
                let (near, far) = duplex();
                front.attach(far).expect("admitted");
                let mut client = ServeClient::new(near);
                let fp = client.install_key(&key_bytes).expect("install");
                for job in 0..JOBS {
                    let nl = random_netlist(31 * tenant + job + 1, 5, 16);
                    let bits: Vec<bool> = (0..5).map(|_| rng.bit()).collect();
                    let inputs = ck.encrypt_bits(&bits, &mut rng);
                    let out = client.run(fp, &nl, &inputs, &params).expect("run");
                    assert_eq!(
                        ck.decrypt_bits(&out),
                        nl.eval_plain(&bits),
                        "tenant {tenant} job {job} diverged"
                    );
                }
                client.close().expect("close");
            })
        })
        .collect();
    for w in workers {
        w.join().expect("tenant thread");
    }
}

/// Admission control: the session ceiling rejects with a typed
/// `Overloaded`, and a freed slot admits again.
#[test]
fn session_ceiling_rejects_and_recovers() {
    let front = ServeHandle::start(ServeConfig { max_sessions: 2, ..ServeConfig::default() }, None);
    let (near1, far1) = duplex();
    let h1 = front.attach(far1).expect("first admitted");
    let (_near2, far2) = duplex();
    front.attach(far2).expect("second admitted");
    let (_near3, far3) = duplex();
    match front.attach(far3) {
        Err(ServeError::Overloaded { live: 2, max: 2 }) => {}
        other => panic!("expected Overloaded, got {other:?}"),
    }
    // Close the first session; its slot frees and a new attach succeeds.
    drop(near1);
    h1.join().expect("session handler");
    let (_near4, far4) = duplex();
    front.attach(far4).expect("slot freed after close");
}

/// Per-tenant quota: the (quota+1)-th in-flight submit is rejected
/// typed; other tenants are unaffected.
#[test]
fn tenant_quota_rejects_only_the_greedy_tenant() {
    let front = ServeHandle::start(ServeConfig { tenant_quota: 2, ..ServeConfig::default() }, None);
    let params = Params::testing();
    let (ck_greedy, key_greedy, mut rng_g) = tenant_material(7);
    let (ck_polite, key_polite, mut rng_p) = tenant_material(8);

    let (near_g, far_g) = duplex();
    front.attach(far_g).expect("admitted");
    let mut greedy = ServeClient::new(near_g);
    let fp_g = greedy.install_key(&key_greedy).expect("install");

    let (near_p, far_p) = duplex();
    front.attach(far_p).expect("admitted");
    let mut polite = ServeClient::new(near_p);
    let fp_p = polite.install_key(&key_polite).expect("install");

    // A deep program holds the scheduler busy long enough for the
    // quota to fill deterministically: submit up to the quota...
    let nl = random_netlist(42, 5, 40);
    let mut jobs = Vec::new();
    for _ in 0..2 {
        let bits: Vec<bool> = (0..5).map(|_| rng_g.bit()).collect();
        let inputs = ck_greedy.encrypt_bits(&bits, &mut rng_g);
        jobs.push((greedy.submit(fp_g, &nl, &inputs, &params).expect("within quota"), bits));
    }
    // ...then the excess submit must bounce. (The scheduler may finish
    // a job concurrently, so tolerate one retry window.)
    let bits: Vec<bool> = (0..5).map(|_| rng_g.bit()).collect();
    let inputs = ck_greedy.encrypt_bits(&bits, &mut rng_g);
    match greedy.submit(fp_g, &nl, &inputs, &params) {
        Err(ServeError::QuotaExceeded { quota: 2, .. }) => {}
        Ok(id) => {
            // Raced with completion: still verify the job runs clean.
            let out = greedy.fetch(id).expect("fetch raced job");
            assert_eq!(ck_greedy.decrypt_bits(&out), nl.eval_plain(&bits));
        }
        other => panic!("expected QuotaExceeded, got {other:?}"),
    }
    // The polite tenant is unaffected by the greedy tenant's quota.
    let bits_p: Vec<bool> = (0..5).map(|_| rng_p.bit()).collect();
    let inputs_p = ck_polite.encrypt_bits(&bits_p, &mut rng_p);
    let out = polite.run(fp_p, &nl, &inputs_p, &params).expect("polite tenant runs");
    assert_eq!(ck_polite.decrypt_bits(&out), nl.eval_plain(&bits_p));
    for (id, bits) in jobs {
        let out = greedy.fetch(id).expect("greedy job");
        assert_eq!(ck_greedy.decrypt_bits(&out), nl.eval_plain(&bits));
    }
}

/// Fairness: with a greedy tenant holding a deep queue, a late-arriving
/// tenant's single job still completes correctly (round-robin draining
/// interleaves it instead of starving it behind the queue).
#[test]
fn late_tenant_is_not_starved_by_a_greedy_queue() {
    let front = ServeHandle::start(
        ServeConfig { tenant_quota: 8, max_wave: 8, ..ServeConfig::default() },
        None,
    );
    let params = Params::testing();
    let (ck_g, key_g, mut rng_g) = tenant_material(21);
    let (ck_l, key_l, mut rng_l) = tenant_material(22);

    let (near_g, far_g) = duplex();
    front.attach(far_g).expect("admitted");
    let mut greedy = ServeClient::new(near_g);
    let fp_g = greedy.install_key(&key_g).expect("install");

    // Greedy tenant floods the scheduler first.
    let nl_deep = random_netlist(5, 5, 48);
    let mut greedy_jobs = Vec::new();
    for _ in 0..4 {
        let bits: Vec<bool> = (0..5).map(|_| rng_g.bit()).collect();
        let inputs = ck_g.encrypt_bits(&bits, &mut rng_g);
        greedy_jobs.push((greedy.submit(fp_g, &nl_deep, &inputs, &params).expect("submit"), bits));
    }

    // Late tenant arrives afterwards with one small job.
    let (near_l, far_l) = duplex();
    front.attach(far_l).expect("admitted");
    let mut late = ServeClient::new(near_l);
    let fp_l = late.install_key(&key_l).expect("install");
    let nl_small = random_netlist(6, 4, 8);
    let bits_l: Vec<bool> = (0..4).map(|_| rng_l.bit()).collect();
    let inputs_l = ck_l.encrypt_bits(&bits_l, &mut rng_l);
    let out = late.run(fp_l, &nl_small, &inputs_l, &params).expect("late tenant served");
    assert_eq!(ck_l.decrypt_bits(&out), nl_small.eval_plain(&bits_l));

    for (id, bits) in greedy_jobs {
        let out = greedy.fetch(id).expect("greedy job");
        assert_eq!(ck_g.decrypt_bits(&out), nl_deep.eval_plain(&bits));
    }
}

/// Key-cache eviction with a backing store: a tenant evicted from the
/// in-memory cache is transparently rehydrated on its next submit, and
/// results stay bit-exact.
#[test]
fn evicted_key_rehydrates_from_the_store() {
    let dir = std::env::temp_dir().join(format!("pytfhe-serving-rehydrate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = DiskStore::open(&dir).expect("open store");
    // Capacity 1: installing the second tenant's key evicts the first.
    let front = ServeHandle::start(
        ServeConfig { key_cache_capacity: 1, ..ServeConfig::default() },
        Some(store),
    );
    let params = Params::testing();
    let (ck1, key1, mut rng1) = tenant_material(31);
    let (_ck2, key2, _rng2) = tenant_material(32);

    let (near, far) = duplex();
    front.attach(far).expect("admitted");
    let mut client = ServeClient::new(near);
    let fp1 = client.install_key(&key1).expect("install 1");
    let _fp2 = client.install_key(&key2).expect("install 2 evicts 1");
    assert_eq!(front.key_cache().len(), 1, "capacity enforced");

    // Submitting under the evicted fingerprint must rehydrate, not fail.
    let mut nl = Netlist::new();
    let a = nl.add_input();
    let b = nl.add_input();
    let g = nl.add_gate(GateKind::Nand, a, b).unwrap();
    nl.mark_output(g).unwrap();
    let inputs = ck1.encrypt_bits(&[true, true], &mut rng1);
    let out = client.run(fp1, &nl, &inputs, &params).expect("rehydrated run");
    assert_eq!(ck1.decrypt_bits(&out), vec![false]);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Without a backing store, an evicted key is a typed `UnknownKey`.
#[test]
fn evicted_key_without_a_store_is_unknown() {
    let front =
        ServeHandle::start(ServeConfig { key_cache_capacity: 1, ..ServeConfig::default() }, None);
    let params = Params::testing();
    let (ck1, key1, mut rng1) = tenant_material(41);
    let (_ck2, key2, _rng2) = tenant_material(42);
    let (near, far) = duplex();
    front.attach(far).expect("admitted");
    let mut client = ServeClient::new(near);
    let fp1 = client.install_key(&key1).expect("install 1");
    client.install_key(&key2).expect("install 2 evicts 1");
    let mut nl = Netlist::new();
    let a = nl.add_input();
    let g = nl.add_gate(GateKind::Not, a, a).unwrap();
    nl.mark_output(g).unwrap();
    let inputs = ck1.encrypt_bits(&[true], &mut rng1);
    match client.submit(fp1, &nl, &inputs, &params) {
        Err(ServeError::UnknownKey(f)) if f == fp1 => {}
        other => panic!("expected UnknownKey, got {other:?}"),
    }
}

/// The tenant boundary: a ciphertext of the wrong size — one word where
/// the key expects `n` — and inputs tagged with another parameter set
/// are each refused with a typed `Protocol` error at submit; nothing
/// reaches the bootstrap kernel, the scheduler thread survives, and the
/// neighbouring tenant's job (submitted first, fetched afterwards) and
/// the offender's own next, well-formed job both complete.
#[test]
fn malformed_inputs_are_refused_and_the_other_tenant_is_unharmed() {
    let front = ServeHandle::start(ServeConfig::default(), None);
    let params = Params::testing();
    let (ck_bad, key_bad, mut rng_b) = tenant_material(51);
    let (ck_good, key_good, mut rng_g) = tenant_material(52);

    let (near_b, far_b) = duplex();
    front.attach(far_b).expect("admitted");
    let mut bad = ServeClient::new(near_b);
    let fp_b = bad.install_key(&key_bad).expect("install");
    let (near_g, far_g) = duplex();
    front.attach(far_g).expect("admitted");
    let mut good = ServeClient::new(near_g);
    let fp_g = good.install_key(&key_good).expect("install");

    let nl = random_netlist(77, 5, 24);
    let bits_g: Vec<bool> = (0..5).map(|_| rng_g.bit()).collect();
    let inputs_g = ck_good.encrypt_bits(&bits_g, &mut rng_g);
    let job_g = good.submit(fp_g, &nl, &inputs_g, &params).expect("well-formed submit");

    let bits_b: Vec<bool> = (0..5).map(|_| rng_b.bit()).collect();
    let inputs_b = ck_bad.encrypt_bits(&bits_b, &mut rng_b);
    let mut short = inputs_b.clone();
    short[2] = LweCiphertext::trivial(Torus32::ZERO, 1);
    match bad.submit(fp_b, &nl, &short, &params) {
        Err(ServeError::Protocol(msg)) => assert!(msg.contains("dimension 1"), "{msg}"),
        other => panic!("expected a Protocol refusal of the 1-word input, got {other:?}"),
    }
    match bad.submit(fp_b, &nl, &inputs_b, &Params::testing_shortint()) {
        Err(ServeError::Protocol(msg)) => assert!(msg.contains("parameter set"), "{msg}"),
        other => panic!("expected a Protocol refusal of the mistagged inputs, got {other:?}"),
    }

    let out = good.fetch(job_g).expect("the other tenant's job completes");
    assert_eq!(ck_good.decrypt_bits(&out), nl.eval_plain(&bits_g));
    let out = bad.run(fp_b, &nl, &inputs_b, &params).expect("the session is still usable");
    assert_eq!(ck_bad.decrypt_bits(&out), nl.eval_plain(&bits_b));
}

/// A tenant's queue — and with it the scheduler's handle on the tenant's
/// key — goes with its last job, so the key cache's capacity really
/// bounds the keys in memory: once key B evicts key A from a one-key
/// cache, nothing keeps A alive.
#[test]
fn an_evicted_key_is_not_kept_alive_by_a_finished_tenant() {
    let front =
        ServeHandle::start(ServeConfig { key_cache_capacity: 1, ..ServeConfig::default() }, None);
    let params = Params::testing();
    let (ck_a, key_a, mut rng_a) = tenant_material(61);
    let (_ck_b, key_b, _rng_b) = tenant_material(62);
    let (near, far) = duplex();
    front.attach(far).expect("admitted");
    let mut client = ServeClient::new(near);
    let fp_a = client.install_key(&key_a).expect("install A");
    let weak = Arc::downgrade(&front.key_cache().get(fp_a).expect("cache").expect("A resident"));

    let nl = random_netlist(9, 4, 12);
    let bits: Vec<bool> = (0..4).map(|_| rng_a.bit()).collect();
    let inputs = ck_a.encrypt_bits(&bits, &mut rng_a);
    let out = client.run(fp_a, &nl, &inputs, &params).expect("run under A");
    assert_eq!(ck_a.decrypt_bits(&out), nl.eval_plain(&bits));

    client.install_key(&key_b).expect("install B evicts A");
    assert!(weak.upgrade().is_none(), "key A outlived its eviction");
}

/// A result is delivered once: fetching the same job again is a typed
/// `UnknownJob` straight away, not a session parked until the fetch
/// timeout.
#[test]
fn a_second_fetch_of_a_delivered_job_is_refused_at_once() {
    let front = ServeHandle::start(ServeConfig::default(), None);
    let params = Params::testing();
    let (ck, key_bytes, mut rng) = tenant_material(71);
    let (near, far) = duplex();
    front.attach(far).expect("admitted");
    let mut client = ServeClient::new(near);
    let fp = client.install_key(&key_bytes).expect("install");
    let nl = random_netlist(3, 4, 8);
    let inputs = ck.encrypt_bits(&[true, false, true, true], &mut rng);
    let job = client.submit(fp, &nl, &inputs, &params).expect("submit");
    client.fetch(job).expect("first fetch");
    let start = Instant::now();
    match client.fetch(job) {
        Err(ServeError::UnknownJob(j)) if j == job => {}
        other => panic!("expected UnknownJob, got {other:?}"),
    }
    assert!(start.elapsed() < Duration::from_secs(1), "the second fetch waited");
    client.close().expect("the session is still usable");
}

/// The three 4-bit circuits of the benchmark's `serve` job mix.
fn serve_circuits() -> [Netlist; 3] {
    [0, 1, 2].map(|which| {
        let mut c = Circuit::new();
        let a = c.input_word("a", 4);
        let b = c.input_word("b", 4);
        let out = match which {
            0 => c.add(&a, &b),
            1 => Word::from_bits(vec![c.lt_unsigned(&a, &b).expect("equal widths")]),
            _ => c.max_int(&a, &b, false).expect("equal widths"),
        };
        c.output_word("out", &out);
        c.finish().expect("circuit is well formed")
    })
}

/// A job alone on the front needs one round per bootstrapped level of its
/// captured plan: 7 + 8 + 11 = 26 for the benchmark's three circuits
/// (the readiness scan this replaced stalled at the first unready gate in
/// node order and needed 7 + 9 + 18 = 34; EXPERIMENTS.md, "Serve rounds").
#[test]
fn serve_circuits_need_one_round_per_bootstrapped_level() {
    let rounds = serve_circuits().map(|nl| {
        let plan = capture(&nl, &CaptureConfig::default()).expect("valid circuit");
        let waves = plan.batches.iter().flat_map(|b| &b.waves);
        (plan.bootstraps(), waves.filter(|w| w.bootstraps() > 0).count())
    });
    assert_eq!(rounds, [(17, 7), (18, 8), (30, 11)]);
}

/// ROADMAP 5(b), the serve column: what a tenant fetches from the front
/// is, byte for byte, what kernel-graph replay returns for the same key,
/// program and inputs at 1 and at 4 workers — while two other tenants'
/// jobs share the scheduler's rounds. Serve and replay run their waves
/// through one dispatcher, so this is "the same kernel on the same
/// operands", not merely "the same plaintext".
#[test]
fn served_ciphertexts_are_byte_identical_to_kernel_graph_replay() {
    let front = ServeHandle::start(ServeConfig::default(), None);
    let params = Params::testing();
    let mut tenants: Vec<_> = (0..3)
        .map(|i| {
            let (ck, key_bytes, rng) = tenant_material(81 + i);
            let (near, far) = duplex();
            front.attach(far).expect("admitted");
            let mut client = ServeClient::new(near);
            let fp = client.install_key(&key_bytes).expect("install");
            (ck, key_bytes, rng, client, fp)
        })
        .collect();
    let (ck, key_bytes, mut rng, mut client, fp) = tenants.remove(0);
    let key = server_key_from_bytes(&key_bytes).expect("the key the front decoded");
    let engine = TfheEngine::new(&key);
    let graph = KernelGraph::new();
    let to_bytes = |cts: &[LweCiphertext]| -> Vec<_> {
        cts.iter().map(|ct| ciphertext_to_bytes(ct, &params)).collect()
    };

    let filler = random_netlist(5, 5, 48);
    let mut programs = serve_circuits().to_vec();
    programs.push(random_netlist(13, 6, 48));
    for (p, nl) in programs.iter().enumerate() {
        // Two deep jobs per neighbour, submitted first and fetched last.
        let mut neighbours = Vec::new();
        for (ck_n, _, rng_n, client_n, fp_n) in &mut tenants {
            for _ in 0..2 {
                let bits: Vec<bool> = (0..5).map(|_| rng_n.bit()).collect();
                let inputs = ck_n.encrypt_bits(&bits, rng_n);
                neighbours.push(client_n.submit(*fp_n, &filler, &inputs, &params).expect("submit"));
            }
        }
        let bits: Vec<bool> = (0..nl.num_inputs()).map(|_| rng.bit()).collect();
        let inputs = ck.encrypt_bits(&bits, &mut rng);
        let served = client.run(fp, nl, &inputs, &params).expect("run");
        assert_eq!(ck.decrypt_bits(&served), nl.eval_plain(&bits), "program {p}");
        for workers in [1, 4] {
            let (replayed, _) = graph.execute(&engine, nl, &inputs, workers).expect("replay");
            assert_eq!(to_bytes(&served), to_bytes(&replayed), "program {p}, {workers} workers");
        }
        for ((_, _, _, client_n, _), jobs) in tenants.iter_mut().zip(neighbours.chunks(2)) {
            for &job in jobs {
                client_n.fetch(job).expect("neighbour job");
            }
        }
    }
}
