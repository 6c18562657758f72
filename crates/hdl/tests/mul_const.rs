//! `Circuit::mul_const`, the signed-digit shift-add behind every
//! signal × plaintext-constant `v_mul`, against the Baugh–Wooley array
//! formula `v_mul` builds for two signals: same output bits for every
//! constant and input. The cost over every `Fixed(12,6)` constant is
//! `repro ablation` 2b.

use proptest::prelude::*;
use pytfhe_hdl::{Circuit, DType, Value, Word};

fn to_bits(x: u64, w: usize) -> Vec<bool> {
    (0..w).map(|i| (x >> i) & 1 == 1).collect()
}

fn from_bits(bits: &[bool]) -> u64 {
    bits.iter().enumerate().fold(0u64, |acc, (i, &b)| acc | (u64::from(b) << i))
}

/// The product `v_mul` builds when neither operand is constant.
fn array(c: &mut Circuit, dtype: DType, a: &Word, b: &Word) -> Word {
    match dtype {
        DType::UInt(w) => c.mul_unsigned(a, b).slice(0, w),
        DType::SInt(w) => c.mul_signed(a, b).slice(0, w),
        DType::Fixed { width, frac } => c.mul_signed(a, b).asr_const(frac).slice(0, width),
        DType::Float { .. } => unreachable!("integer and fixed point only"),
    }
}

/// A circuit built in `c` of one input `a` whose outputs are `a × k`,
/// `k × a` (both through `v_mul`) and the array's `a × k`, each
/// `dtype.width()` bits.
fn products(mut c: Circuit, dtype: DType, raw: u64) -> pytfhe_netlist::Netlist {
    let w = dtype.width();
    let a = Value::new(c.input_word("a", w), dtype);
    let k = Value::new(Word::constant_u64(raw, w), dtype);
    let right = c.v_mul(&a, &k).expect("same dtype").word;
    let left = c.v_mul(&k, &a).expect("same dtype").word;
    let oracle = array(&mut c, dtype, &a.word, &k.word);
    c.output_word("p", &right.concat(&left).concat(&oracle));
    c.finish().expect("netlist")
}

/// Asserts all three products of `products(dtype, raw)` agree on input `x`.
fn assert_agree(nl: &pytfhe_netlist::Netlist, dtype: DType, raw: u64, x: u64) {
    let w = dtype.width();
    let out = nl.eval_plain(&to_bits(x, w));
    let (right, left, oracle) =
        (from_bits(&out[..w]), from_bits(&out[w..2 * w]), from_bits(&out[2 * w..]));
    assert_eq!((right, left), (oracle, oracle), "{dtype}: {x:#x} x {raw:#x}");
}

#[test]
fn every_8_bit_constant_and_input_matches_the_array() {
    let fixed = DType::Fixed { width: 8, frac: 4 };
    // The last pass builds without folding: more gates, the same bits.
    for (dtype, fold) in
        [(DType::UInt(8), true), (DType::SInt(8), true), (fixed, true), (fixed, false)]
    {
        for raw in 0..256 {
            let c = if fold { Circuit::new() } else { Circuit::without_folding() };
            let nl = products(c, dtype, raw);
            for x in 0..256 {
                assert_agree(&nl, dtype, raw, x);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random (constant, input) pairs at the model widths, the constant
    /// on either side.
    #[test]
    fn fixed_point_products_match_the_array(
        wide in any::<bool>(),
        raw in any::<u64>(),
        x in any::<u64>(),
    ) {
        let dtype = if wide {
            DType::Fixed { width: 16, frac: 8 }
        } else {
            DType::Fixed { width: 12, frac: 6 }
        };
        let mask = (1u64 << dtype.width()) - 1;
        assert_agree(&products(Circuit::new(), dtype, raw & mask), dtype, raw & mask, x & mask);
    }
}

/// Gates `v_mul` emits for the signal `a` × the constant `raw`, `a`, and
/// the product, which `k × a` builds identically.
fn by_constant(dtype: DType, raw: i64) -> (usize, Word, Word) {
    let build = |constant_first: bool| {
        let mut c = Circuit::new();
        let a = Value::new(c.input_word("a", dtype.width()), dtype);
        let k = Value::new(Word::constant(raw, dtype.width()), dtype);
        let p = if constant_first { c.v_mul(&k, &a) } else { c.v_mul(&a, &k) };
        (c.num_gates(), a.word, p.expect("same dtype").word)
    };
    let product = build(false);
    assert_eq!(build(true), product, "{dtype}: {raw} on the left");
    product
}

#[test]
fn named_constants() {
    for (dtype, frac) in [(DType::SInt(8), 0), (DType::Fixed { width: 12, frac: 6 }, 6)] {
        let w = dtype.width();
        // Zero folds to a constant zero.
        let (gates, _, p) = by_constant(dtype, 0);
        assert_eq!((gates, p), (0, Word::zeros(w)), "{dtype} x 0");
        // Powers of two, the raw one included, are wiring: a shifted copy
        // of the input (arithmetic right when the binary point moves).
        for j in 0..w - 1 {
            let (gates, a, p) = by_constant(dtype, 1 << j);
            let want = if j >= frac { a.shl_const(j - frac) } else { a.asr_const(frac - j) };
            assert_eq!((gates, p), (0, want), "{dtype} x 2^{j}");
        }
        // -1, -2^frac and the most negative value against the array on
        // every input.
        let mask = (1u64 << w) - 1;
        for raw in [-1, -(1i64 << frac), -(1i64 << (w - 1))] {
            let raw = raw as u64 & mask;
            let nl = products(Circuit::new(), dtype, raw);
            for x in 0..=mask {
                assert_agree(&nl, dtype, raw, x);
            }
        }
    }
    // SInt's most negative value is 2^(w-1) modulo 2^w: wiring too.
    assert_eq!(by_constant(DType::SInt(8), -128).0, 0);
}

#[test]
fn two_constants_fold_to_their_product() {
    for (dtype, x, y) in [
        (DType::UInt(8), 13.0, 11.0),
        (DType::SInt(8), -7.0, 9.0),
        (DType::Fixed { width: 12, frac: 6 }, -1.5, 2.25),
    ] {
        let mut c = Circuit::new();
        let (a, b) = (Value::constant(&mut c, x, dtype), Value::constant(&mut c, y, dtype));
        let p = c.v_mul(&a, &b).expect("same dtype");
        assert_eq!(c.num_gates(), 0, "{dtype}");
        let bits: Vec<bool> =
            p.word.bits().iter().map(|b| b.as_const().expect("a constant")).collect();
        assert_eq!(dtype.decode_f64(&bits), x * y, "{dtype}");
    }
}
