//! Optimized netlists as bytes, frozen across rewrites of the optimizer.
//!
//! The optimizer and the LUT cover are pure functions of their input
//! netlist, and every workload here is built deterministically, so the
//! bytes of each result are fixed. The CRC32C of `pytfhe_asm::assemble`
//! of every optimized workload was captured while `opt::cse` still probed
//! one hash table sized to the whole netlist, and the rewritten pass has
//! to reproduce it byte for byte. The entries whose workloads multiply by
//! a constant were recaptured when `v_mul` moved those products from the
//! Baugh–Wooley array to the signed-digit shift-add of
//! `Circuit::mul_const`. Eulers, NRSolver, Primality and Kepler were
//! recaptured when `optimize` became one sweep: the pass loop it replaced
//! stopped after eight rounds, short of their fixpoint.
//!
//! `lut_cover` once rewrote the netlist into lookup-table nodes and now
//! only reports its cones. Its cone lists and bootstrap counts were
//! captured from the rewriting pass, instrumented to emit the cones it
//! fused (in the encoding of [`cone_bytes`]) just before it rebuilt the
//! netlist, so the analysis chooses exactly the cones that pass fused.

use pytfhe_netlist::opt::Cone;
use pytfhe_netlist::opt::{lut_cover, optimize, LutCoverConfig};
use pytfhe_netlist::Netlist;
use pytfhe_vipbench::{benchmarks, distinctness, mnist_s, Scale};
use pytfhe_wire::crc32c;

/// Every workload at [`Scale::Test`], in registry order, then MNIST_S at
/// [`Scale::Paper`]: the CRC32C of its optimized, assembled netlist.
const OPTIMIZED: [(&str, u32); 23] = [
    ("Hamming", 0x9dd6_0be8),
    ("Eulers", 0xcf96_9a80),
    ("NRSolver", 0xe1eb_262e),
    ("GradDescent", 0x705c_e657),
    ("Parrando", 0xe04d_ac4b),
    ("Primality", 0x7591_bb05),
    ("Distinctness", 0x4660_82f4),
    ("DotProduct", 0xbdfc_c8f2),
    ("LinReg", 0x2032_f75a),
    ("Kepler", 0x2e2b_aa4a),
    ("kNN", 0x5f64_731f),
    ("SetIntersect", 0x1edd_00f0),
    ("FilteredQuery", 0xfdfe_07d9),
    ("EditDistance", 0xa83c_187d),
    ("BubbleSort", 0xb110_eac5),
    ("TriangleCount", 0xc63a_1629),
    ("RobertsCross", 0xc9eb_0c51),
    ("MNIST_S", 0x8ed6_d196),
    ("MNIST_M", 0xa8c7_2479),
    ("MNIST_L", 0xe191_de8c),
    ("Attention_S", 0xba17_0490),
    ("Attention_L", 0x8727_d302),
    ("MNIST_S paper", 0x1c94_821b),
];

/// `lut_cover` over the optimized Distinctness at both scales and
/// MNIST_S at [`Scale::Paper`]: its `bootstraps_after`, and the CRC32C of
/// its cone list.
const COVERED: [(&str, usize, u32); 3] = [
    ("Distinctness", 117, 0x33dc_6b4c),
    ("Distinctness paper", 2_213, 0x84d7_4e4c),
    ("MNIST_S paper", 57_503, 0x33da_4235),
];

fn optimized(nl: &Netlist) -> Netlist {
    optimize(nl).expect("a workload netlist is valid").0
}

/// Cones in ascending root order: the root (`u32`), the leaf count
/// (`u8`), the leaves (`u32` each, in table bit order) and the table
/// (`u16`), all little-endian.
fn cone_bytes(cones: &[Cone]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for cone in cones {
        bytes.extend(cone.root.0.to_le_bytes());
        bytes.push(cone.leaves.len() as u8);
        cone.leaves.iter().for_each(|leaf| bytes.extend(leaf.0.to_le_bytes()));
        bytes.extend(cone.table.to_le_bytes());
    }
    bytes
}

#[test]
fn optimized_workloads_assemble_to_frozen_bytes() {
    let mut got: Vec<(String, u32)> = benchmarks(Scale::Test)
        .iter()
        .map(|b| (b.name().to_string(), crc32c(&pytfhe_asm::assemble(&optimized(b.netlist())))))
        .collect();
    let paper = mnist_s(Scale::Paper);
    got.push(("MNIST_S paper".into(), crc32c(&pytfhe_asm::assemble(&optimized(paper.netlist())))));
    let want: Vec<(String, u32)> = OPTIMIZED.iter().map(|&(n, c)| (n.to_string(), c)).collect();
    assert_eq!(got, want, "{got:#010x?}");
}

#[test]
fn lut_cover_chooses_frozen_cones() {
    let covered = |nl: &Netlist| {
        let (cones, report) = lut_cover(&optimized(nl), &LutCoverConfig::default()).expect("valid");
        (report.bootstraps_after, crc32c(&cone_bytes(&cones)))
    };
    let got = [
        ("Distinctness", covered(distinctness(Scale::Test).netlist())),
        ("Distinctness paper", covered(distinctness(Scale::Paper).netlist())),
        ("MNIST_S paper", covered(mnist_s(Scale::Paper).netlist())),
    ]
    .map(|(name, (after, crc))| (name, after, crc));
    assert_eq!(got, COVERED, "{got:#010x?}");
}
