//! Executor throughput: the plaintext functional engine over real
//! compiled workloads (reference vs kernel-graph capture and replay),
//! plus binary assembly/disassembly throughput.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pytfhe_asm::{assemble, disassemble};
use pytfhe_backend::{capture, execute, replay, CaptureConfig, PlainEngine, ReplayLanes};
use pytfhe_vipbench::{find, Scale};
use std::hint::black_box;

fn bench_executors(c: &mut Criterion) {
    let bench_wl = find("MNIST_S", Scale::Test).expect("registered");
    let nl = bench_wl.netlist().clone();
    let input_bits = bench_wl.encode_input(&bench_wl.sample_input(1));
    let engine = PlainEngine::new();
    let gates = nl.num_gates() as u64;

    let mut group = c.benchmark_group("plain_executor");
    group.throughput(Throughput::Elements(gates));
    group.bench_function("reference_mnist_s", |b| {
        b.iter(|| black_box(execute(&engine, &nl, black_box(&input_bits)).expect("ok")))
    });
    // The kernel-graph backend: plan capture measured on its own, then
    // replay of the already-captured plan with warm lanes — the
    // compile-once / run-many split the backend exists for.
    group.bench_function("kernel_graph_capture_mnist_s", |b| {
        b.iter(|| black_box(capture(&nl, &CaptureConfig::default()).expect("ok")))
    });
    let plan = capture(&nl, &CaptureConfig::default()).expect("ok");
    let mut lanes = ReplayLanes::new(4);
    group.bench_function("kernel_graph_replay4_mnist_s", |b| {
        b.iter(|| {
            black_box(replay(&engine, &plan, black_box(&input_bits), &mut lanes).expect("ok"))
        })
    });
    group.finish();

    let binary = assemble(&nl);
    let mut group = c.benchmark_group("binary_format");
    group.throughput(Throughput::Bytes(binary.len() as u64));
    group.bench_function("assemble_mnist_s", |b| b.iter(|| black_box(assemble(&nl))));
    group.bench_function("disassemble_mnist_s", |b| {
        b.iter(|| black_box(disassemble(black_box(&binary)).expect("valid")))
    });
    group.finish();
}

criterion_group!(benches, bench_executors);
criterion_main!(benches);
