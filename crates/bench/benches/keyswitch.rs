//! Microbenchmark of LWE-to-LWE key switching — the second-largest cost
//! of a bootstrapped gate evaluation after blind rotation (Figure 7 of
//! the paper), and the loop the hoisted digit precompute in
//! `KeySwitchKey::switch_into` targets.

use criterion::{criterion_group, criterion_main, Criterion};
use pytfhe_tfhe::keyswitch::KeySwitchKey;
use pytfhe_tfhe::lwe::{LweCiphertext, LweKey};
use pytfhe_tfhe::simd::{self, SimdPath};
use pytfhe_tfhe::{ClientKey, Params, SecureRng, Torus32};
use std::hint::black_box;

fn bench_keyswitch(c: &mut Criterion) {
    let mut rng = SecureRng::seed_from_u64(5);

    // Standalone keys at the paper-default decomposition (t = 8,
    // base = 4), switching the extracted dimension down to the gate key.
    // Run once per supported SIMD path: the paired `sub_assign2`
    // accumulation in `switch_into` leans on the dispatched kernels, so
    // the scalar row here is the baseline the fused-pair + vector path
    // is measured against.
    for (src_dim, dst_dim) in [(1024usize, 630usize), (256, 64)] {
        let src = LweKey::generate(src_dim, &mut rng);
        let dst = LweKey::generate(dst_dim, &mut rng);
        let ksk = KeySwitchKey::generate(&src, &dst, 8, 2, 1e-9, 1, &mut rng);
        let ct = src.encrypt(Torus32::from_fraction(1, 3), 1e-9, &mut rng);
        let mut out = LweCiphertext::trivial(Torus32::ZERO, dst_dim);
        let restore = simd::active_path();
        for path in SimdPath::ALL.into_iter().filter(|p| p.is_supported()) {
            assert!(simd::set_active_path(path));
            c.bench_function(&format!("keyswitch_{src_dim}_to_{dst_dim}_{}", path.name()), |b| {
                b.iter(|| ksk.switch_into(black_box(&ct), &mut out))
            });
        }
        simd::set_active_path(restore);
    }

    // Through a real server key (the exact key material of a gate's
    // trailing key switch) at testing parameters.
    let client = ClientKey::generate(Params::testing(), &mut rng);
    let server = client.server_key(&mut rng);
    let ksk = server.keyswitch_key();
    let mask: Vec<Torus32> = (0..ksk.src_dim()).map(|_| Torus32::uniform(&mut rng)).collect();
    let ct = LweCiphertext::from_parts(mask, Torus32::from_fraction(1, 3));
    let mut out = LweCiphertext::trivial(Torus32::ZERO, ksk.dst_dim());
    c.bench_function("keyswitch_testing_params", |bench| {
        bench.iter(|| ksk.switch_into(black_box(&ct), &mut out))
    });
}

criterion_group!(benches, bench_keyswitch);
criterion_main!(benches);
