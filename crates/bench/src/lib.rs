//! The PyTFHE reproduction harness.
//!
//! [`figures`] contains one function per table/figure of the paper's
//! evaluation (Section V), each printing the regenerated rows/series;
//! the `repro` binary dispatches to them by name (`repro fig10`,
//! `repro table4`, `repro all`). The Criterion microbenchmarks under
//! `benches/` measure the real primitives (FFT, gate bootstrap,
//! executors, compilation).

pub mod figures;
pub mod report;
