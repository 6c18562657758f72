use crate::error::TorchError;
use std::fmt;

/// A plaintext tensor of `f64` values — model weights, reference inputs,
/// and the oracle data type every circuit layer is validated against.
#[derive(Debug, Clone, PartialEq)]
pub struct PlainTensor {
    shape: Vec<usize>,
    data: Vec<f64>,
}

impl PlainTensor {
    /// A tensor of zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        let n = shape.iter().product();
        PlainTensor { shape: shape.to_vec(), data: vec![0.0; n] }
    }

    /// Builds a tensor from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TorchError::ShapeMismatch`] if the buffer length does not
    /// match the shape.
    pub fn from_vec(shape: &[usize], data: Vec<f64>) -> Result<Self, TorchError> {
        let n: usize = shape.iter().product();
        if data.len() != n {
            return Err(TorchError::ShapeMismatch {
                expected: format!("{n} elements for shape {shape:?}"),
                got: vec![data.len()],
                op: "from_vec",
            });
        }
        Ok(PlainTensor { shape: shape.to_vec(), data })
    }

    /// Deterministic pseudo-random init in `[-bound, bound]` — the
    /// reproducible stand-in for `torch.nn.init.kaiming_uniform_`.
    pub fn random(shape: &[usize], bound: f64, seed: u64) -> Self {
        let n: usize = shape.iter().product();
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let data = (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 33) as f64 / (1u64 << 31) as f64 - 1.0) * bound
            })
            .collect();
        PlainTensor { shape: shape.to_vec(), data }
    }

    /// The tensor shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The flat row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// The element at the given multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or bounds are wrong.
    pub fn at(&self, index: &[usize]) -> f64 {
        self.data[flat_index(&self.shape, index)]
    }

    /// Sets the element at the given multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or bounds are wrong.
    pub fn set(&mut self, index: &[usize], value: f64) {
        let i = flat_index(&self.shape, index);
        self.data[i] = value;
    }
}

impl fmt::Display for PlainTensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PlainTensor{:?}", self.shape)
    }
}

/// Row-major flattening of a multi-index.
///
/// # Panics
///
/// Panics on rank mismatch or out-of-bounds coordinates.
pub(crate) fn flat_index(shape: &[usize], index: &[usize]) -> usize {
    assert_eq!(shape.len(), index.len(), "index rank mismatch");
    let mut flat = 0;
    for (d, (&s, &i)) in shape.iter().zip(index).enumerate() {
        assert!(i < s, "index {i} out of bounds for dim {d} of size {s}");
        flat = flat * s + i;
    }
    flat
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_is_row_major() {
        let t = PlainTensor::from_vec(&[2, 3], (0..6).map(f64::from).collect()).unwrap();
        assert_eq!(t.at(&[0, 0]), 0.0);
        assert_eq!(t.at(&[0, 2]), 2.0);
        assert_eq!(t.at(&[1, 0]), 3.0);
        assert_eq!(t.at(&[1, 2]), 5.0);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(PlainTensor::from_vec(&[2, 2], vec![1.0]).is_err());
    }

    #[test]
    fn random_is_deterministic_and_bounded() {
        let a = PlainTensor::random(&[4, 4], 0.5, 7);
        let b = PlainTensor::random(&[4, 4], 0.5, 7);
        let c = PlainTensor::random(&[4, 4], 0.5, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.data().iter().all(|x| x.abs() <= 0.5));
    }

    #[test]
    fn set_and_at() {
        let mut t = PlainTensor::zeros(&[2, 2]);
        t.set(&[1, 1], 4.5);
        assert_eq!(t.at(&[1, 1]), 4.5);
        assert_eq!(t.at(&[0, 1]), 0.0);
    }
}
