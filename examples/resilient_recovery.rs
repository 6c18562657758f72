//! Fault-tolerant execution: crash every worker mid-run, then resume
//! from the last wave-barrier checkpoint instead of restarting.
//!
//! ```text
//! cargo run --release --example resilient_recovery
//! ```
//!
//! The paper's distributed backend rides on Ray's fault tolerance; this
//! walks our equivalent: a 4-bit encrypted adder is interrupted by a
//! scripted full-cluster crash, its ciphertext frontier survives in a
//! file-backed checkpoint, and a second "process" finishes the run with
//! bit-identical results.

use pytfhe::prelude::*;
use pytfhe_backend::{ExecError, FileCheckpointStore, NoFaults, ResilientConfig, SeededFaults};
use pytfhe_hdl::Circuit;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Compile a 4-bit adder and pick the wave to kill. --------------
    let mut c = Circuit::new();
    let a = c.input_word_anon(4);
    let b = c.input_word_anon(4);
    let sum = c.add_wide_unsigned(&a, &b);
    c.output_word("sum", &sum);
    let nl = c.finish()?;
    let last_wave = pytfhe_netlist::topo::Levels::compute(&nl).depth() as usize;

    // --- Encrypt 11 + 6 on the client. ----------------------------------
    let mut client = Client::new(Params::testing(), 0xFA117);
    let server = Server::new(client.make_server_key());
    let (x, y) = (11u8, 6u8);
    let bits: Vec<bool> =
        (0..4).map(|i| (x >> i) & 1 == 1).chain((0..4).map(|i| (y >> i) & 1 == 1)).collect();
    let inputs = client.encrypt_bits(&bits);

    // --- Run 1: every worker crashes at the final wave. -----------------
    let ckpt_path = std::env::temp_dir().join("pytfhe-resilient-recovery.ckpt");
    // Start from nothing: a reset deletes both snapshot generations.
    let prev_path = FileCheckpointStore::new(&ckpt_path).prev_path();
    let _ = std::fs::remove_file(&ckpt_path);
    let _ = std::fs::remove_file(&prev_path);
    let workers = 2;
    let cfg = ResilientConfig::new(workers);
    let mut faults = SeededFaults::new(1).with_fail_prob(0.05);
    for w in 0..workers {
        faults = faults.with_worker_crash(w, last_wave);
    }
    let mut store = FileCheckpointStore::new(&ckpt_path);
    match server.execute_resilient(&nl, &inputs, &cfg, &faults, Some(&mut store)) {
        Err(ExecError::NoWorkers { wave }) => {
            println!("run 1: all {workers} workers crashed in wave {wave} (as scripted)");
        }
        other => panic!("expected a full-cluster crash, got {other:?}"),
    }
    let saved = std::fs::metadata(&ckpt_path)?.len();
    println!("run 1: {saved}-byte ciphertext checkpoint survives at {}", ckpt_path.display());

    // --- Run 2: a fresh store handle on the same file resumes. ----------
    let mut store = FileCheckpointStore::new(&ckpt_path);
    let (outputs, stats) =
        server.execute_resilient(&nl, &inputs, &cfg, &NoFaults, Some(&mut store))?;
    println!(
        "run 2: resumed after wave {}, re-ran {} wave(s), {} retried chunk(s)",
        stats.resumed_from_wave.expect("resumed"),
        stats.waves,
        stats.retries,
    );
    println!("run 2 stats:\n{stats}");

    // --- Decrypt and check. ---------------------------------------------
    let out_bits = client.decrypt_bits(&outputs);
    let got: u8 = out_bits.iter().enumerate().fold(0, |acc, (i, &bit)| acc | (u8::from(bit) << i));
    println!("decrypted: {x} + {y} = {got}");
    assert_eq!(got, x + y, "resumed run must be bit-identical");
    std::fs::remove_file(&ckpt_path)?;
    let _ = std::fs::remove_file(&prev_path);
    println!("recovered run verified bit-identical to the fault-free result");
    Ok(())
}
