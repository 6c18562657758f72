//! Storage-fault integration tests: every persisted artifact format —
//! server keys, kernel plans, checkpoints — must survive a barrage of
//! injected storage faults (torn writes, bit flips, stale-version
//! substitution, duplicated renames) by returning a typed error or the
//! exact stale artifact. Never a panic; never silently-accepted
//! garbage. The barrage is seeded and deterministic: a failing case
//! replays bit-for-bit from `(seed, case)`.

use pytfhe_backend::{
    capture, execute, execute_resilient, CaptureConfig, Checkpoint, ExecError, FileCheckpointStore,
    KernelPlan, NoFaults, PlainEngine, ResilientConfig, RetryPolicy, SeededStorageFaults,
    StorageFault,
};
use pytfhe_hdl::Circuit;
use pytfhe_netlist::Netlist;
use pytfhe_tfhe::{io, ClientKey, Params, SecureRng};

/// A `w`-bit widening ripple-carry adder (multiple waves, so resilient
/// runs checkpoint more than once).
fn adder(w: usize) -> Netlist {
    let mut c = Circuit::new();
    let a = c.input_word_anon(w);
    let b = c.input_word_anon(w);
    let sum = c.add_wide_unsigned(&a, &b);
    c.output_word("sum", &sum);
    c.finish().expect("netlist")
}

fn to_bits(x: u64, w: usize) -> Vec<bool> {
    (0..w).map(|i| (x >> i) & 1 == 1).collect()
}

/// One artifact format under test: its good bytes, a *stale but valid*
/// earlier generation, and a decoder returning `Ok(true)` when the
/// decode produced exactly the stale artifact.
type Decoder = Box<dyn Fn(&[u8]) -> Result<DecodedAs, ()>>;

struct Format {
    name: &'static str,
    good: Vec<u8>,
    stale: Vec<u8>,
    decode: Decoder,
}

/// What a successful decode turned out to be.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum DecodedAs {
    Good,
    Stale,
    /// Decoded cleanly but matches neither generation — the silent
    /// acceptance the harness exists to rule out.
    Garbage,
}

fn formats() -> Vec<Format> {
    let mut out = Vec::new();

    // Server key (wire-enveloped `pytfhe-tfhe` format). The stale
    // generation is a key from different randomness.
    let mut rng = SecureRng::seed_from_u64(0xA11CE);
    let client = ClientKey::generate(Params::testing(), &mut rng);
    let good_key = client.server_key(&mut rng);
    let mut rng2 = SecureRng::seed_from_u64(0xB0B);
    let client2 = ClientKey::generate(Params::testing(), &mut rng2);
    let stale_key = client2.server_key(&mut rng2);
    let good = io::server_key_to_bytes(&good_key).to_vec();
    let stale = io::server_key_to_bytes(&stale_key).to_vec();
    {
        let (good, stale) = (good.clone(), stale.clone());
        out.push(Format {
            name: "server key",
            good: good.clone(),
            stale: stale.clone(),
            decode: Box::new(move |bytes| match io::server_key_from_bytes(bytes) {
                Err(_) => Err(()),
                Ok(k) => {
                    let re = io::server_key_to_bytes(&k).to_vec();
                    if re == good {
                        Ok(DecodedAs::Good)
                    } else if re == stale {
                        Ok(DecodedAs::Stale)
                    } else {
                        Ok(DecodedAs::Garbage)
                    }
                }
            }),
        });
    }

    // Kernel plan. Stale = the plan of a *smaller* program.
    let good_plan = capture(&adder(6), &CaptureConfig::default()).unwrap();
    let stale_plan = capture(&adder(3), &CaptureConfig::default()).unwrap();
    {
        let (g, s) = (good_plan.clone(), stale_plan.clone());
        out.push(Format {
            name: "kernel plan",
            good: good_plan.to_bytes(),
            stale: stale_plan.to_bytes(),
            decode: Box::new(move |bytes| match KernelPlan::from_bytes(bytes) {
                Err(_) => Err(()),
                Ok(p) if p == g => Ok(DecodedAs::Good),
                Ok(p) if p == s => Ok(DecodedAs::Stale),
                Ok(_) => Ok(DecodedAs::Garbage),
            }),
        });
    }

    // Checkpoint. Stale = an earlier wave of the same run.
    let good_ckpt = Checkpoint::capture(7, 0xFEED, [(1u32, &true), (4u32, &false), (9u32, &true)]);
    let stale_ckpt = Checkpoint::capture(3, 0xFEED, [(1u32, &false), (2u32, &true)]);
    {
        let (g, s) = (good_ckpt.clone(), stale_ckpt.clone());
        out.push(Format {
            name: "checkpoint",
            good: good_ckpt.to_bytes(),
            stale: stale_ckpt.to_bytes(),
            decode: Box::new(move |bytes| match Checkpoint::from_bytes(bytes) {
                Err(_) => Err(()),
                Ok(c) if c == g => Ok(DecodedAs::Good),
                Ok(c) if c == s => Ok(DecodedAs::Stale),
                Ok(_) => Ok(DecodedAs::Garbage),
            }),
        });
    }
    out
}

/// The headline robustness guarantee: ≥1000 deterministic storage-fault
/// cases across all three persisted formats, with zero panics and zero
/// silently-accepted garbage. A stale-version substitution is the one
/// fault a byte-level decoder *cannot* see — it must decode to exactly
/// the stale artifact (semantic rejection then happens at the
/// fingerprint/wave layer); every other fault must be a typed error.
#[test]
fn thousand_storage_faults_no_panic_no_silent_acceptance() {
    const CASES_PER_FORMAT: u64 = 400; // 3 formats × 400 = 1200 cases
    let inj = SeededStorageFaults::new(0xC0FFEE);
    let mut total = 0u64;
    let mut rejected = 0u64;
    let mut stale_ok = 0u64;
    for fmt in formats() {
        assert_eq!(
            (fmt.decode)(&fmt.good),
            Ok(DecodedAs::Good),
            "{}: clean bytes must decode",
            fmt.name
        );
        for case in 0..CASES_PER_FORMAT {
            let fault = inj.fault(case, fmt.good.len());
            let mutated = inj.corrupt(case, &fmt.good, &fmt.stale);
            total += 1;
            match (fmt.decode)(&mutated) {
                Err(()) => rejected += 1,
                Ok(DecodedAs::Stale) => {
                    assert_eq!(
                        fault,
                        StorageFault::StaleVersion,
                        "{}: case {case} decoded as stale under a non-stale fault",
                        fmt.name
                    );
                    stale_ok += 1;
                }
                Ok(kind) => {
                    panic!("{}: case {case} ({fault:?}) silently accepted as {kind:?}", fmt.name)
                }
            }
        }
    }
    assert!(total >= 1000, "harness must exercise at least 1000 cases, ran {total}");
    assert_eq!(rejected + stale_ok, total);
    assert!(rejected > 0 && stale_ok > 0, "both outcomes must occur ({rejected}/{stale_ok})");
}

/// End-to-end recovery: a resilient run whose *current* checkpoint file
/// was corrupted on disk must fall back to the previous intact
/// generation, quarantine the rotten file, and still produce bit-exact
/// results.
#[test]
fn resilient_run_recovers_through_a_corrupted_checkpoint() {
    let dir = std::env::temp_dir().join(format!("pytfhe-persist-rec-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.ckpt");

    let nl = adder(6);
    let inputs: Vec<bool> = [to_bits(23, 6), to_bits(45, 6)].concat();
    let engine = PlainEngine::new();
    let (want, _) = execute(&engine, &nl, &inputs).unwrap();

    let cfg = ResilientConfig { workers: 2, retry: RetryPolicy::fast() };
    let mut store = FileCheckpointStore::new(&path);
    let (out, stats) =
        execute_resilient(&engine, &nl, &inputs, &cfg, &NoFaults, Some(&mut store)).unwrap();
    assert_eq!(out, want);
    assert!(stats.checkpoints >= 2, "need at least two generations on disk");
    assert!(store.prev_path().exists());

    // Rot the current generation: flip a byte in the middle.
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x08;
    std::fs::write(&path, &bytes).unwrap();

    // The re-run must load the previous generation (skipping some
    // waves), finish, and agree bit-for-bit with the plain execution.
    let (out2, stats2) =
        execute_resilient(&engine, &nl, &inputs, &cfg, &NoFaults, Some(&mut store)).unwrap();
    assert_eq!(out2, want);
    assert!(
        stats2.resumed_from_wave.is_some(),
        "the fallback generation should have resumed the run: {stats2:?}"
    );
    assert!(store.quarantine_path().exists(), "the rotten file must be quarantined");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Both generations rotten: the run restarts from scratch (wave zero)
/// rather than erroring out or resuming from garbage.
#[test]
fn resilient_run_restarts_when_every_generation_is_rotten() {
    let dir = std::env::temp_dir().join(format!("pytfhe-persist-rotten-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.ckpt");

    let nl = adder(4);
    let inputs: Vec<bool> = [to_bits(5, 4), to_bits(9, 4)].concat();
    let engine = PlainEngine::new();
    let (want, _) = execute(&engine, &nl, &inputs).unwrap();

    let cfg = ResilientConfig { workers: 2, retry: RetryPolicy::fast() };
    let mut store = FileCheckpointStore::new(&path);
    execute_resilient(&engine, &nl, &inputs, &cfg, &NoFaults, Some(&mut store)).unwrap();
    std::fs::write(&path, b"rot").unwrap();
    std::fs::write(store.prev_path(), b"more rot").unwrap();

    let (out, stats) =
        execute_resilient(&engine, &nl, &inputs, &cfg, &NoFaults, Some(&mut store)).unwrap();
    assert_eq!(out, want);
    assert_eq!(stats.resumed_from_wave, None, "nothing intact to resume from");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A checkpoint from a different program must still be refused after
/// the envelope migration (the semantic guard sits above the codec).
#[test]
fn foreign_checkpoints_are_still_refused() {
    let nl = adder(4);
    let other = adder(5);
    let inputs: Vec<bool> = [to_bits(1, 4), to_bits(2, 4)].concat();
    let engine = PlainEngine::new();
    let cfg = ResilientConfig { workers: 1, retry: RetryPolicy::fast() };

    let mut store = pytfhe_backend::MemoryCheckpointStore::new();
    let other_inputs: Vec<bool> = [to_bits(1, 5), to_bits(2, 5)].concat();
    execute_resilient(&engine, &other, &other_inputs, &cfg, &NoFaults, Some(&mut store)).unwrap();
    let err = execute_resilient(&engine, &nl, &inputs, &cfg, &NoFaults, Some(&mut store))
        .expect_err("a foreign checkpoint must not resume this program");
    assert!(matches!(err, ExecError::BadCheckpoint { .. }), "{err:?}");
}
