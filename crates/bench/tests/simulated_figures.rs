//! The simulated figures as text, frozen across rewrites of the
//! simulators.
//!
//! Figures 8–13, Table IV and the ablation are pure functions of the
//! compiled netlists and the calibrated cost models, so their rendered
//! text is fixed. The CRC32C of each target's `repro <target> --quick`
//! output was captured while the simulators still read a netlist profile
//! of their own rather than the captured kernel plan; costing the plan
//! has to reproduce every byte.

use pytfhe_baselines::MnistScale;
use pytfhe_bench::figures;
use pytfhe_vipbench::Scale;
use pytfhe_wire::crc32c;

/// `repro --quick` targets and the CRC32C of their text.
const FROZEN: [(&str, u32); 8] = [
    ("fig8", 0xd6eb_8f1e),
    ("fig9", 0x164a_56a6),
    ("fig10", 0x4204_cb07),
    ("fig11", 0xc637_4676),
    ("fig12", 0xc30b_e485),
    ("fig13", 0xbed7_86dc),
    ("table4", 0x18d8_fc78),
    ("ablation", 0xf294_16b1),
];

#[test]
fn quick_simulated_figures_render_frozen_text() {
    let (scale, mscale) = (Scale::Test, MnistScale::Small);
    let got: Vec<(&str, u32)> = [
        ("fig8", figures::fig8()),
        ("fig9", figures::fig9()),
        ("fig10", figures::fig10(scale)),
        ("fig11", figures::fig11(scale)),
        ("fig12", figures::fig12(mscale)),
        ("fig13", figures::fig13(mscale)),
        ("table4", figures::table4(mscale)),
        ("ablation", figures::ablation()),
    ]
    .into_iter()
    .map(|(name, text)| (name, crc32c(text.as_bytes())))
    .collect();
    assert_eq!(got, FROZEN, "{got:#010x?}");
}
