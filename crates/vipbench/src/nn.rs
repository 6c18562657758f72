//! Neural-network workloads: the three MNIST CNNs (`MNIST_S` from
//! VIP-Bench, plus the paper's larger `MNIST_M` and `MNIST_L` with two
//! and three convolutional kernels, Section V-A) and the two
//! self-attention layers (`Attention_S` with hidden size 32,
//! `Attention_L` with hidden size 64).
//!
//! All five are built with the ChiselTorch frontend — these are exactly
//! the models the paper compiles through the PyTFHE flow.

use crate::spec::{Benchmark, Lcg, Scale};
use chiseltorch::nn::Module;
use chiseltorch::{compile, nn, DType, PlainTensor};

/// Quantizes a model's effect by quantizing inputs like the client and
/// comparing to the plain forward pass; the tolerance covers per-term
/// truncation.
fn nn_benchmark(
    name: &'static str,
    description: &'static str,
    model: nn::Sequential,
    input_shape: Vec<usize>,
    input_bound: f64,
    tolerance: f64,
) -> Benchmark {
    let dtype = model.dtype();
    let compiled = compile(&model, &input_shape).expect("model compiles");
    let n: usize = input_shape.iter().product();
    let shape_for_oracle = input_shape.clone();
    Benchmark::new(
        name,
        description,
        compiled.into_netlist(),
        dtype,
        dtype,
        Box::new(move |input: &[f64]| {
            let q: Vec<f64> =
                input.iter().map(|&v| dtype.decode_f64(&dtype.encode_f64(v))).collect();
            let t = PlainTensor::from_vec(&shape_for_oracle, q).expect("shape");
            model.forward_plain(&t).expect("plain forward").data().to_vec()
        }),
        Box::new(move |seed| {
            let mut rng = Lcg::new(seed);
            (0..n).map(|_| rng.sym(input_bound)).collect()
        }),
        tolerance,
    )
}

/// `MNIST_S` — the VIP-Bench MNIST network: one convolutional kernel
/// (the paper's Figure 4 structure), declared in ChiselTorch.
pub fn mnist_s(scale: Scale) -> Benchmark {
    let dtype = DType::Fixed { width: 12, frac: 6 };
    let (model, shape) = match scale {
        Scale::Test => (
            nn::Sequential::new(dtype)
                .add(nn::Conv2d::new(1, 1, 3, 1))
                .add(nn::ReLU::new())
                .add(nn::MaxPool2d::new(2, 1))
                .add(nn::Flatten::new())
                .add(nn::Linear::new(9, 4)),
            vec![1, 6, 6],
        ),
        Scale::Paper => (
            nn::Sequential::new(dtype)
                .add(nn::Conv2d::new(1, 1, 3, 1))
                .add(nn::ReLU::new())
                .add(nn::MaxPool2d::new(3, 1))
                .add(nn::Flatten::new())
                .add(nn::Linear::new(36, 10)),
            vec![1, 10, 10],
        ),
    };
    nn_benchmark("MNIST_S", "VIP-Bench MNIST CNN (1 convolutional kernel)", model, shape, 1.0, 1.0)
}

/// `MNIST_M` — the paper's medium CNN with two convolutional kernels.
pub fn mnist_m(scale: Scale) -> Benchmark {
    let dtype = DType::Fixed { width: 12, frac: 6 };
    let (model, shape) = match scale {
        Scale::Test => (
            nn::Sequential::new(dtype)
                .add(nn::Conv2d::new(1, 2, 3, 1))
                .add(nn::ReLU::new())
                .add(nn::MaxPool2d::new(2, 1))
                .add(nn::Flatten::new())
                .add(nn::Linear::new(18, 4)),
            vec![1, 6, 6],
        ),
        Scale::Paper => (
            nn::Sequential::new(dtype)
                .add(nn::Conv2d::new(1, 2, 3, 1))
                .add(nn::ReLU::new())
                .add(nn::MaxPool2d::new(3, 1))
                .add(nn::Flatten::new())
                .add(nn::Linear::new(72, 10)),
            vec![1, 10, 10],
        ),
    };
    nn_benchmark("MNIST_M", "medium MNIST CNN (2 convolutional kernels)", model, shape, 1.0, 1.2)
}

/// `MNIST_L` — the paper's large CNN with three convolutional kernels.
pub fn mnist_l(scale: Scale) -> Benchmark {
    let dtype = DType::Fixed { width: 12, frac: 6 };
    let (model, shape) = match scale {
        Scale::Test => (
            nn::Sequential::new(dtype)
                .add(nn::Conv2d::new(1, 3, 3, 1))
                .add(nn::ReLU::new())
                .add(nn::MaxPool2d::new(2, 1))
                .add(nn::Flatten::new())
                .add(nn::Linear::new(27, 4)),
            vec![1, 6, 6],
        ),
        Scale::Paper => (
            nn::Sequential::new(dtype)
                .add(nn::Conv2d::new(1, 3, 3, 1))
                .add(nn::ReLU::new())
                .add(nn::MaxPool2d::new(3, 1))
                .add(nn::Flatten::new())
                .add(nn::Linear::new(192, 10)),
            vec![1, 12, 12],
        ),
    };
    nn_benchmark("MNIST_L", "large MNIST CNN (3 convolutional kernels)", model, shape, 1.0, 1.5)
}

fn attention(
    name: &'static str,
    description: &'static str,
    seq: usize,
    hidden: usize,
    tolerance: f64,
) -> Benchmark {
    let dtype = DType::Fixed { width: 16, frac: 8 };
    let model = nn::Sequential::new(dtype).add(nn::SelfAttention::new(seq, hidden));
    nn_benchmark(name, description, model, vec![seq, hidden], 1.0, tolerance)
}

/// `Attention_S` — the paper's self-attention layer with hidden size 32.
pub fn attention_s(scale: Scale) -> Benchmark {
    match scale {
        Scale::Test => attention("Attention_S", "self-attention layer (hidden 32)", 2, 4, 0.15),
        Scale::Paper => attention("Attention_S", "self-attention layer (hidden 32)", 4, 32, 0.25),
    }
}

/// `Attention_L` — the paper's self-attention layer with hidden size 64.
pub fn attention_l(scale: Scale) -> Benchmark {
    match scale {
        Scale::Test => attention("Attention_L", "self-attention layer (hidden 64)", 2, 6, 0.15),
        Scale::Paper => attention("Attention_L", "self-attention layer (hidden 64)", 4, 64, 0.3),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_seeds(b: &Benchmark, seeds: std::ops::Range<u64>) {
        for seed in seeds {
            let input = b.sample_input(seed);
            b.check_detailed(&input).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn mnist_s_matches_oracle() {
        check_seeds(&mnist_s(Scale::Test), 0..3);
    }

    #[test]
    fn mnist_m_matches_oracle() {
        check_seeds(&mnist_m(Scale::Test), 0..2);
    }

    #[test]
    fn mnist_l_matches_oracle() {
        check_seeds(&mnist_l(Scale::Test), 0..2);
    }

    #[test]
    fn attention_matches_oracle() {
        check_seeds(&attention_s(Scale::Test), 0..2);
        check_seeds(&attention_l(Scale::Test), 0..2);
    }

    #[test]
    fn model_sizes_are_ordered() {
        let s = mnist_s(Scale::Test).netlist().num_bootstrapped_gates();
        let m = mnist_m(Scale::Test).netlist().num_bootstrapped_gates();
        let l = mnist_l(Scale::Test).netlist().num_bootstrapped_gates();
        assert!(s < m && m < l, "sizes: S={s} M={m} L={l}");
    }
}
