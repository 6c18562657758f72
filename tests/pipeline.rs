//! Cross-crate integration tests: the full PyTFHE pipeline of the
//! paper's Figure 2, from a ChiselTorch model declaration down to
//! decrypted results, across every intermediate representation.

use pytfhe::prelude::*;
use pytfhe::pytfhe_backend::{execute, ExecError};
use pytfhe_backend::engine::PlainEngine;

/// The Figure 4 model shape, miniaturized for encrypted execution.
fn tiny_mnist() -> (chiseltorch::CompiledModel, DType) {
    let dtype = DType::Fixed { width: 8, frac: 4 };
    let model = nn::Sequential::new(dtype)
        .add(nn::Conv2d::new(1, 1, 2, 1))
        .add(nn::ReLU::new())
        .add(nn::Flatten::new())
        .add(nn::Linear::new(4, 2));
    (chiseltorch::compile(&model, &[1, 3, 3]).expect("compiles"), dtype)
}

#[test]
fn model_to_binary_to_encrypted_result() {
    let (compiled, dtype) = tiny_mnist();
    // Step 3: assemble and reload the PyTFHE binary.
    let binary = pytfhe_asm::assemble(compiled.netlist());
    let program = pytfhe_asm::disassemble(&binary).expect("valid binary");
    // The reloaded program is functionally identical.
    let image: Vec<f64> = (0..9).map(|i| f64::from(i % 3) / 2.0 - 0.5).collect();
    let plain = compiled.eval_plain(&image);
    let bits = compiled.encode_input(&image);
    assert_eq!(program.eval_plain(&bits), compiled.netlist().eval_plain(&bits));
    // Steps 4-5: encrypted round trip through the session API.
    let mut client = Client::new(Params::testing(), 1234);
    let server = Server::new(client.make_server_key());
    let enc = client.encrypt_values(&image, dtype);
    let out = server.execute(&program, &enc, 2).expect("executes");
    let got = client.decrypt_values(&out, dtype);
    assert_eq!(got, plain, "homomorphic result equals the functional result");
}

#[test]
fn reference_and_parallel_executors_agree_on_ciphertexts() {
    let (compiled, dtype) = tiny_mnist();
    let mut client = Client::new(Params::testing(), 77);
    let server_key = client.make_server_key();
    let engine = TfheEngine::new(&server_key);
    let image = vec![0.25; 9];
    let enc = client.encrypt_values(&image, dtype);
    let (seq, _) = execute(&engine, compiled.netlist(), &enc).expect("reference");
    let (par, stats) = execute_parallel(&engine, compiled.netlist(), &enc, 3).expect("parallel");
    assert_eq!(client.decrypt_values(&seq, dtype), client.decrypt_values(&par, dtype));
    assert!(stats.waves > 0);
}

#[test]
fn corrupted_binary_is_rejected_not_executed() {
    let (compiled, _) = tiny_mnist();
    let binary = pytfhe_asm::assemble(compiled.netlist());
    // Corrupt the header's gate count: detected as a count mismatch.
    let mut bad = binary.to_vec();
    bad[1] ^= 0x40;
    assert!(pytfhe_asm::disassemble(&bad).is_err(), "count corruption must be detected");
    // Corrupt an operand into a forward reference: detected as dangling.
    let mut bad = binary.to_vec();
    let gate_at = (1 + compiled.netlist().num_inputs()) * 16; // first gate instruction
    for byte in &mut bad[gate_at + 9..gate_at + 15] {
        *byte = 0xFF; // blast the high operand field to a huge index
    }
    assert!(pytfhe_asm::disassemble(&bad).is_err(), "dangling reference must be detected");
    // Truncation is detected too.
    assert!(pytfhe_asm::disassemble(&binary[..binary.len() - 5]).is_err());
}

#[test]
fn wrong_key_decrypts_garbage() {
    let (compiled, dtype) = tiny_mnist();
    let mut alice = Client::new(Params::testing(), 1);
    let mallory = Client::new(Params::testing(), 2);
    let server = Server::new(alice.make_server_key());
    let image = vec![0.5; 9];
    let enc = alice.encrypt_values(&image, dtype);
    let out = server.execute(compiled.netlist(), &enc, 1).expect("executes");
    let honest = alice.decrypt_values(&out, dtype);
    let stolen = mallory.decrypt_values(&out, dtype);
    assert_ne!(honest, stolen, "a different key must not reveal the result");
}

#[test]
fn optimization_preserves_pipeline_semantics() {
    use pytfhe::pytfhe_netlist::opt::optimize;
    let (compiled, _) = tiny_mnist();
    let (opt, report) = optimize(compiled.netlist()).expect("optimizes");
    assert!(report.gates_after <= report.gates_before);
    let engine = PlainEngine::new();
    for seed in 0..5u64 {
        let image: Vec<f64> = (0..9).map(|i| f64::from((seed as u32 + i) % 5) / 4.0).collect();
        let bits = compiled.encode_input(&image);
        let (a, _) = execute(&engine, compiled.netlist(), &bits).expect("orig");
        let (b, _) = execute(&engine, &opt, &bits).expect("opt");
        assert_eq!(a, b, "seed {seed}");
    }
}

#[test]
fn executor_reports_input_mismatch() {
    let (compiled, _) = tiny_mnist();
    let engine = PlainEngine::new();
    let err = execute(&engine, compiled.netlist(), &[true; 3]).unwrap_err();
    assert!(matches!(err, ExecError::InputCountMismatch { .. }));
}
