//! Microbenchmarks of the real TFHE primitives: gate bootstrapping at
//! both parameter scales — the per-gate cost that anchors every
//! performance number in the paper (Figure 7).

use criterion::{criterion_group, criterion_main, Criterion};
use pytfhe_tfhe::reference::RefBootstrappingKey;
use pytfhe_tfhe::{BootGate, ClientKey, LweCiphertext, Params, SecureRng, Torus32};
use std::hint::black_box;

fn bench_gates(c: &mut Criterion) {
    // Miniature (insecure) parameters: algorithmic shape without the
    // 128-bit cost.
    let mut rng = SecureRng::seed_from_u64(1);
    let client = ClientKey::generate(Params::testing(), &mut rng);
    let server = client.server_key(&mut rng);
    let a = client.encrypt_bit(true, &mut rng);
    let b = client.encrypt_bit(false, &mut rng);
    let mut scratch = server.gate_scratch();
    c.bench_function("nand_gate_testing_params", |bench| {
        bench.iter(|| {
            black_box(server.gate_with(BootGate::Nand, black_box(&a), black_box(&b), &mut scratch))
        })
    });
    c.bench_function("mux_gate_testing_params", |bench| {
        bench.iter(|| black_box(server.mux_with(&a, &a, &b, &mut scratch)))
    });

    // Folded vs full-size bootstrap on the raw path: same key material,
    // transform halved. The reference key re-encrypts the same gate key
    // with the retired full-size FFT.
    let bk = server.bootstrapping_key();
    let mut boot_scratch = bk.boot_scratch();
    let mu = Torus32::from_fraction(1, 3);
    let mut raw = LweCiphertext::trivial(Torus32::ZERO, bk.params().extracted_lwe_dim());
    c.bench_function("bootstrap_raw_folded_testing_params", |bench| {
        bench.iter(|| {
            bk.bootstrap_raw_into(black_box(&a), mu, &mut boot_scratch, black_box(&mut raw))
        })
    });
    let ref_bk = RefBootstrappingKey::from_client(&client, &mut rng);
    c.bench_function("bootstrap_raw_reference_testing_params", |bench| {
        bench.iter(|| black_box(ref_bk.bootstrap_raw(black_box(&a), mu)))
    });

    // The paper's 128-bit setting. Key generation is expensive, so keep
    // the sample count low.
    let mut rng = SecureRng::seed_from_u64(2);
    let client = ClientKey::generate(Params::default_128(), &mut rng);
    let server = client.server_key(&mut rng);
    let a = client.encrypt_bit(true, &mut rng);
    let b = client.encrypt_bit(false, &mut rng);
    let mut scratch = server.gate_scratch();
    let mut group = c.benchmark_group("default_128");
    group.sample_size(10);
    group.bench_function("nand_gate", |bench| {
        bench.iter(|| {
            black_box(server.gate_with(BootGate::Nand, black_box(&a), black_box(&b), &mut scratch))
        })
    });
    group.bench_function("xor_gate", |bench| {
        bench.iter(|| black_box(server.gate_with(BootGate::Xor, &a, &b, &mut scratch)))
    });
    group.finish();
}

criterion_group!(benches, bench_gates);
criterion_main!(benches);
