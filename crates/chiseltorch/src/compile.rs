//! Model compilation: ChiselTorch model → gate netlist with typed I/O
//! metadata (Step 1 + Step 2 of the paper's Figure 2, fused — see
//! DESIGN.md on the Chisel/Verilog/Yosys substitution).

use crate::error::TorchError;
use crate::nn::Module;
use crate::tensor::Tensor;
use pytfhe_hdl::{Circuit, DType};
use pytfhe_netlist::opt;
use pytfhe_netlist::Netlist;

/// A compiled model: the optimized netlist plus everything a client needs
/// to encode inputs and decode outputs.
#[derive(Debug, Clone)]
pub struct CompiledModel {
    netlist: Netlist,
    dtype: DType,
    input_shape: Vec<usize>,
    output_shape: Vec<usize>,
}

impl CompiledModel {
    /// The gate netlist (topologically ordered, optimized).
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Consumes the model, returning the netlist.
    pub fn into_netlist(self) -> Netlist {
        self.netlist
    }

    /// The model data type.
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// The input tensor shape.
    pub fn input_shape(&self) -> &[usize] {
        &self.input_shape
    }

    /// The output tensor shape.
    pub fn output_shape(&self) -> &[usize] {
        &self.output_shape
    }

    /// Quantizes a row-major input tensor into the program's input bits.
    ///
    /// # Panics
    ///
    /// Panics if `values` does not match the input shape's element count.
    pub fn encode_input(&self, values: &[f64]) -> Vec<bool> {
        let n: usize = self.input_shape.iter().product();
        assert_eq!(values.len(), n, "expected {n} input elements");
        values.iter().flat_map(|&v| self.dtype.encode_f64(v)).collect()
    }

    /// Decodes the program's output bits into a row-major tensor.
    ///
    /// # Panics
    ///
    /// Panics if `bits` does not match the output width.
    pub fn decode_output(&self, bits: &[bool]) -> Vec<f64> {
        let n: usize = self.output_shape.iter().product();
        let w = self.dtype.width();
        assert_eq!(bits.len(), n * w, "expected {} output bits", n * w);
        bits.chunks(w).map(|ch| self.dtype.decode_f64(ch)).collect()
    }

    /// Convenience: run the model on plaintext inputs through the netlist
    /// (the functional oracle for backend tests).
    pub fn eval_plain(&self, values: &[f64]) -> Vec<f64> {
        self.decode_output(&self.netlist.eval_plain(&self.encode_input(values)))
    }
}

/// Compiles `model` for inputs of `input_shape`, running the full netlist
/// optimization pipeline (the paper's augmented-Yosys step).
///
/// # Errors
///
/// Returns [`TorchError`] if the model rejects the input shape or the
/// netlist fails to build.
pub fn compile(
    model: &crate::nn::Sequential,
    input_shape: &[usize],
) -> Result<CompiledModel, TorchError> {
    compile_with(model, input_shape, model.dtype(), true)
}

/// Compiles an arbitrary [`Module`] with an explicit dtype; `optimize`
/// selects whether the netlist optimization pipeline runs (`false` keeps
/// the raw elaborated netlist, the unoptimized side of the ablations).
///
/// # Errors
///
/// Returns [`TorchError`] if the model rejects the input shape or the
/// netlist fails to build.
pub fn compile_with(
    model: &dyn Module,
    input_shape: &[usize],
    dtype: DType,
    optimize: bool,
) -> Result<CompiledModel, TorchError> {
    let _span =
        pytfhe_telemetry::span_with("compile", || format!("compile: shape {input_shape:?}"));
    let mut c = Circuit::new();
    let input = Tensor::input(&mut c, "input", input_shape, dtype);
    let output = model.forward(&mut c, &input)?;
    let output_shape = output.shape().to_vec();
    output.output(&mut c, "output");
    let elaborate_span = pytfhe_telemetry::span("compile", "elaborate circuit");
    let netlist = c.finish().map_err(TorchError::Hdl)?;
    elaborate_span.end();
    let netlist = if optimize {
        let _opt_span = pytfhe_telemetry::span_with("compile", || {
            format!("optimize netlist: {} gates", netlist.num_gates())
        });
        opt::optimize(&netlist).map_err(|e| TorchError::Hdl(pytfhe_hdl::HdlError::Netlist(e)))?.0
    } else {
        netlist
    };
    if pytfhe_telemetry::enabled() {
        let m = pytfhe_telemetry::metrics();
        m.gauge_set("compile_netlist_gates", netlist.num_gates() as f64);
        m.gauge_set("compile_netlist_bootstrapped_gates", netlist.num_bootstrapped_gates() as f64);
    }
    Ok(CompiledModel { netlist, dtype, input_shape: input_shape.to_vec(), output_shape })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn;
    use crate::plain::PlainTensor;

    #[test]
    fn compile_mnist_style_model() {
        let dtype = DType::Fixed { width: 10, frac: 4 };
        let model = nn::Sequential::new(dtype)
            .add(nn::Conv2d::new(1, 1, 2, 1))
            .add(nn::ReLU::new())
            .add(nn::MaxPool2d::new(2, 1))
            .add(nn::Flatten::new())
            .add(nn::Linear::new(4, 3));
        let compiled = compile(&model, &[1, 4, 4]).unwrap();
        assert_eq!(compiled.output_shape(), &[3]);
        assert_eq!(compiled.dtype(), dtype);
        assert!(compiled.netlist().num_gates() > 100, "real circuit expected");

        // Functional check against the plain oracle on a quantized input.
        let input = PlainTensor::random(&[1, 4, 4], 1.0, 71);
        let q: Vec<f64> =
            input.data().iter().map(|&v| dtype.decode_f64(&dtype.encode_f64(v))).collect();
        let want = model.forward_plain(&PlainTensor::from_vec(&[1, 4, 4], q).unwrap()).unwrap();
        let got = compiled.eval_plain(input.data());
        for (g, w) in got.iter().zip(want.data()) {
            assert!((g - w).abs() < 0.6, "got {g}, want {w}");
        }
    }

    #[test]
    fn optimization_shrinks_the_netlist() {
        let dtype = DType::Fixed { width: 8, frac: 4 };
        let model = nn::Sequential::new(dtype).add(nn::Linear::new(4, 2));
        let unopt = compile_with(&model, &[4], dtype, false).unwrap();
        let opt = compile(&model, &[4]).unwrap();
        assert!(
            opt.netlist().num_bootstrapped_gates() <= unopt.netlist().num_bootstrapped_gates(),
            "optimization never grows the circuit"
        );
    }

    #[test]
    fn encode_decode_round_trip() {
        let dtype = DType::SInt(8);
        let model = nn::Sequential::new(dtype).add(nn::ReLU::new());
        let compiled = compile(&model, &[3]).unwrap();
        let out = compiled.eval_plain(&[-5.0, 2.0, 7.0]);
        assert_eq!(out, vec![0.0, 2.0, 7.0]);
    }

    #[test]
    fn rejects_wrong_input_shape() {
        let dtype = DType::SInt(8);
        let model = nn::Sequential::new(dtype).add(nn::Linear::new(4, 2));
        assert!(compile(&model, &[5]).is_err());
    }
}
