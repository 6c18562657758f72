//! A tour of the VIP-Bench workloads: compiles every benchmark, checks
//! it against its plaintext oracle, and runs one of them homomorphically.
//!
//! ```text
//! cargo run --release --example vipbench_tour
//! ```

use pytfhe::prelude::*;
use pytfhe::pytfhe_backend::cost::CpuCostModel;
use pytfhe::pytfhe_backend::sim::{ClusterConfig, ClusterSim};
use pytfhe::pytfhe_backend::{capture, CaptureConfig};
use pytfhe_vipbench::{benchmarks, find, Scale};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("{:<14} {:>8} {:>7} {:>9}   description", "benchmark", "gates", "depth", "avg width");
    println!("{}", "-".repeat(78));
    let sim = ClusterSim::new(CpuCostModel::paper(), ClusterConfig::one_node());
    for b in benchmarks(Scale::Test) {
        let input = b.sample_input(1);
        b.check_detailed(&input).map_err(|e| format!("oracle mismatch: {e}"))?;
        let plan = capture(b.netlist(), &CaptureConfig::default())?;
        // Gates and waves as the simulators cost them.
        let report = sim.simulate(&plan);
        let (gates, depth) = (report.gates, report.waves);
        let width = gates as f64 / depth.max(1) as f64;
        println!("{:<14} {:>8} {:>7} {:>9.1}   {}", b.name(), gates, depth, width, b.description());
    }
    println!("\nall benchmarks verified against their plaintext oracles");

    // Homomorphic spot check: the Hamming-distance workload on real
    // ciphertexts.
    let bench = find("Hamming", Scale::Test).expect("registered");
    let input = bench.sample_input(42);
    let mut client = Client::new(Params::testing(), 99);
    let server = Server::new(client.make_server_key());
    let enc = client.encrypt_bits(&bench.encode_input(&input));
    println!(
        "\nrunning {} homomorphically ({} gates)...",
        bench.name(),
        bench.netlist().num_bootstrapped_gates()
    );
    let out = server.execute(bench.netlist(), &enc, 4)?;
    let got = bench.decode_output(&client.decrypt_bits(&out));
    let want = bench.oracle(&input);
    println!("encrypted Hamming distance: {got:?}, oracle: {want:?}");
    assert_eq!(got, want);
    println!("encrypted result matches the oracle");
    Ok(())
}
