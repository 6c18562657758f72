//! All that is left of the prime-field NTT prototype (DESIGN.md §15 says
//! what it measured and why it went): the name the standalone `benchmark/`
//! package prints as its `transform` provenance line. ROADMAP item 0(b)
//! is the PR that drops that import, and this file with it.

/// The one negacyclic transform: the folded `f64` FFT of [`crate::fft`].
#[derive(Debug, Clone, Copy)]
pub struct Transform;

impl Transform {
    /// `"fft"`.
    pub fn name(self) -> &'static str {
        "fft"
    }
}

/// The transform behind every external product.
pub fn active_transform() -> Transform {
    Transform
}
