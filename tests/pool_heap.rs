//! The backend pool's worker threads touch no heap memory while they
//! replay a plan: no allocation and no free. A worker that freed what the
//! dispatching thread allocated would keep it in its own allocator cache,
//! and the process's peak RSS would then depend on which lane ran which
//! chunk (the benchmark's `compile` workload read two modes 3–7 MB apart).
//! The test binary counts every heap call made on the worker of lane 1.

use pytfhe_backend::pool::Job;
use pytfhe_backend::{KernelGraph, PlainEngine, WorkerPool};
use pytfhe_netlist::{GateKind, Netlist};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

thread_local! {
    /// Set on the pool worker that serves lane 1.
    static ON_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Heap calls made on that worker.
static WORKER_HEAP_CALLS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

impl Counting {
    fn note(&self) {
        if ON_WORKER.with(Cell::get) {
            WORKER_HEAP_CALLS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every call forwards to the system allocator unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.note();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.note();
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.note();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn pool_workers_neither_allocate_nor_free_during_a_plain_replay() {
    // Mark lane 1's worker: a gang places one job on each of two lanes,
    // and the barrier keeps lane 0 from taking both.
    let barrier = Barrier::new(2);
    let mark = |lane: usize| {
        ON_WORKER.with(|on| on.set(lane == 1));
        barrier.wait();
    };
    let jobs: Vec<Job> = vec![Box::new(mark), Box::new(mark)];
    WorkerPool::global().gang(jobs).expect("placed").expect("no panic");

    // Eight dependent waves of 64 XORs; grain 1 sends every wave to the
    // pool, two chunks a wave over two lanes.
    let mut nl = Netlist::new();
    let inputs: Vec<_> = (0..64).map(|_| nl.add_input()).collect();
    let mut layer = inputs.clone();
    for _ in 0..8 {
        let rotated = inputs.iter().cycle().skip(1);
        layer = layer
            .iter()
            .zip(rotated)
            .map(|(&a, &b)| nl.add_gate(GateKind::Xor, a, b).unwrap())
            .collect();
    }
    for &g in &layer {
        nl.mark_output(g).unwrap();
    }
    let engine = PlainEngine::with_parallel_grain(1);
    let graph = KernelGraph::new();
    let bits: Vec<bool> = (0..64).map(|i| i % 3 == 0).collect();
    let (first, _) = graph.execute(&engine, &nl, &bits, 2).unwrap();
    assert_eq!(first, nl.eval_plain(&bits));
    WORKER_HEAP_CALLS.store(0, Ordering::Relaxed);
    for _ in 0..50 {
        let (out, stats) = graph.execute(&engine, &nl, &bits, 2).unwrap();
        assert!(stats.plan_cached);
        assert_eq!(out, first);
    }
    assert_eq!(WORKER_HEAP_CALLS.load(Ordering::Relaxed), 0, "heap calls on the pool worker");
}
