//! Optimized netlists as bytes, frozen across rewrites of the optimizer.
//!
//! The optimizer and the LUT cover are pure functions of their input
//! netlist, and every workload here is built deterministically, so the
//! bytes of each result are fixed. The CRC32C of `pytfhe_asm::assemble`
//! of every optimized workload, and of the node encoding of the
//! LUT-covered ones (asm takes no LUT nodes), was captured while `opt::cse`
//! still probed one hash table sized to the whole netlist and `lut_cover`
//! kept its cones in hash maps. The rewritten passes have to reproduce
//! them byte for byte. The entries whose workloads multiply by a
//! constant were recaptured when `v_mul` moved those products from the
//! Baugh–Wooley array to the signed-digit shift-add of
//! `Circuit::mul_const`.

use pytfhe_netlist::opt::{lut_cover, optimize, LutCoverConfig};
use pytfhe_netlist::{Netlist, Node};
use pytfhe_vipbench::{benchmarks, distinctness, mnist_s, Scale};
use pytfhe_wire::crc32c;

/// Every workload at [`Scale::Test`], in registry order, then MNIST_S at
/// [`Scale::Paper`]: the CRC32C of its optimized, assembled netlist.
const OPTIMIZED: [(&str, u32); 23] = [
    ("Hamming", 0x9dd6_0be8),
    ("Eulers", 0xe6e4_6f18),
    ("NRSolver", 0xc990_d645),
    ("GradDescent", 0x705c_e657),
    ("Parrando", 0xe04d_ac4b),
    ("Primality", 0xc0d1_ab6f),
    ("Distinctness", 0x4660_82f4),
    ("DotProduct", 0xbdfc_c8f2),
    ("LinReg", 0x2032_f75a),
    ("Kepler", 0x2bde_aa97),
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

/// The CRC32C of the node encoding of `lut_cover` over the optimized
/// Distinctness at both scales and MNIST_S at [`Scale::Paper`].
const COVERED: [(&str, u32); 3] = [
    ("Distinctness", 0x8333_36be),
    ("Distinctness paper", 0xf7de_d8e7),
    ("MNIST_S paper", 0x9ef9_3ca0),
];

fn optimized(nl: &Netlist) -> Netlist {
    optimize(nl).expect("a workload netlist is valid").0
}

/// Nodes in id order (a tag, then the gate's opcode and operands or the
/// LUT's spec and read operands), then the outputs.
fn node_bytes(nl: &Netlist) -> Vec<u8> {
    let mut bytes = Vec::new();
    for node in nl.nodes() {
        match *node {
            Node::Input => bytes.push(0),
            Node::Gate { kind, a, b } => {
                bytes.extend([1, kind.opcode()]);
                bytes.extend(a.0.to_le_bytes().into_iter().chain(b.0.to_le_bytes()));
            }
            Node::Lut { spec, ins } => {
                bytes.extend([2, spec.width, spec.precision]);
                bytes.extend(spec.table.to_le_bytes());
                ins[..spec.width as usize].iter().for_each(|op| bytes.extend(op.0.to_le_bytes()));
            }
        }
    }
    nl.outputs().iter().for_each(|o| bytes.extend(o.0.to_le_bytes()));
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
fn lut_covered_workloads_have_frozen_nodes() {
    let covered = |nl: &Netlist| {
        let (lowered, _) = lut_cover(&optimized(nl), &LutCoverConfig::default()).expect("valid");
        crc32c(&node_bytes(&lowered))
    };
    let got = vec![
        ("Distinctness".to_string(), covered(distinctness(Scale::Test).netlist())),
        ("Distinctness paper".to_string(), covered(distinctness(Scale::Paper).netlist())),
        ("MNIST_S paper".to_string(), covered(mnist_s(Scale::Paper).netlist())),
    ];
    let want: Vec<(String, u32)> = COVERED.iter().map(|&(n, c)| (n.to_string(), c)).collect();
    assert_eq!(got, want, "{got:#010x?}");
}
