//! Runtime-dispatched SIMD kernels for the TFHE hot path — the
//! reproduction's analogue of the TFHE library's hand-vectorized
//! `spqlios-fma` transform backend.
//!
//! The paper's CPU numbers inherit their speed from `spqlios-fma`, the
//! AVX/FMA assembly the TFHE library swaps in for its negacyclic
//! transforms. This module plays that role for the loops that dominate
//! gate bootstrapping:
//!
//! 1. the folded negacyclic transform, forward and inverse
//!    ([`Kernels::forward`], [`Kernels::inverse`]) over the tables of a
//!    [`Twiddles`],
//! 2. the external product's multiply-accumulate, one sum of up to
//!    `(k + 1)·l` pointwise products accumulated in registers and stored
//!    once ([`Kernels::sum_products`]), and
//! 3. the integer loops of gadget decomposition, key-switch
//!    accumulation, and the gate linear combinations
//!    ([`Kernels::extract_digits`], [`Kernels::sub_assign`],
//!    [`Kernels::sub_assign2`], [`Kernels::axpy`]).
//!
//! # The transform
//!
//! One pass structure, in two implementations. The forward transform is
//! decimation-in-frequency: a first radix-4 pass that also converts the
//! integer coefficients to `f64` and applies the twist `e^{iπj/N}`,
//! further radix-4 passes over ever shorter blocks, and a leaf over the
//! last two or three butterfly stages. It leaves the `M = N/2` spectrum
//! points in **bit-reversed order**. The inverse is the mirror image —
//! leaf, radix-4 decimation-in-time passes, and a last pass fused with
//! the `1/M` scale, the untwist and the round back to the torus — and
//! consumes that order, so no bit-reversal pass exists anywhere; the
//! pointwise [`Kernels::sum_products`] does not care about the order at
//! all.
//! Every radix-4 butterfly is two fused radix-2 stages, so the output
//! order is the plain bit reversal whatever the grouping of stages, and
//! the two implementations are interchangeable slot for slot:
//!
//! * [`scalar`] — portable Rust over exactly-sized sub-slices (no index
//!   is bounds-checked inside a loop). Always available; the oracle for
//!   the vector code, and the whole transform for `M < 16`.
//! * `avx2` — AVX2 + FMA intrinsics over raw pointers, 4×`f64` per
//!   vector; the leaf runs the last two stages inside one register.
//!
//! For `M = 512` (the 128-bit parameter set) the AVX2 forward is four
//! sweeps over the 8 KB buffer (radix-4 at block lengths 512, 128, 32,
//! then the 8-point leaf) where the radix-2 transform it replaced made
//! eleven (twist, bit reversal, nine passes).
//!
//! **Codegen hazard, measured.** The replaced kernels kept their first
//! two or three stages as scalar, bounds-checked
//! `for start in (0..m).step_by(len)` loops inside a `#[target_feature]`
//! function. The optimiser turned those into shuffles in a stand-alone
//! example binary (forward transform 1.5 µs) and into a branchy scalar
//! loop in the benchmark binary (5.3–6.0 µs; same source, same profile),
//! and the benchmark package carries its own profile. The rule since:
//! inside a `#[target_feature]` function use intrinsics and raw pointers
//! only — nothing whose speed is left to the autovectoriser — and quote
//! transform timings from a traced run of the benchmark binary, never
//! from a stand-alone probe.
//!
//! # Other kernels
//!
//! `sum_products` and the integer kernels exist in two versions:
//! [`scalar`] and `avx2` (4×`f64` / 8×`u32`). Every other architecture
//! runs the scalar table. `sum_products` is the only `f64`
//! multiply-accumulate — the blind rotation,
//! [`crate::tgsw::TgswFft::external_product_into`], the exact key product
//! of [`crate::tlwe`] and [`crate::fft::FftPlan::negacyclic_mul`] all call
//! it — and it takes every product of a sum at once, so the 8 KB sum
//! stays in registers instead of being re-read and re-written once per
//! product. An AVX-512 table (8×`f64` MAC and 16×`u32` integer kernels over
//! the AVX2 transform) existed until it had tied AVX2 on every encrypted
//! workload — a bootstrap is bound by the key bytes it streams, not by
//! lanes per register (`DESIGN.md` §15).
//!
//! # Correctness contract
//!
//! Integer kernels (`extract_digits`, `sub_assign`, `axpy`) are
//! bit-identical across backends. The `f64` kernels use fused
//! multiply-add on the vector paths, whose single-rounding products
//! differ from scalar mul-then-add in the low mantissa bits, so
//! *intermediate spectra are not bit-comparable*. The contract is
//! **torus-domain equality**: after the inverse transform's final
//! `round_ties_even` back to `Torus32`, SIMD and scalar agree
//! bit-for-bit, because transform values sit within `~2^-20` of integers
//! (see `DESIGN.md` §10) while FMA reassociation perturbs them by at
//! most a few ulps — never enough to cross a rounding boundary. The same
//! margin makes the grouping of a sum of products immaterial after
//! rounding: all `(k + 1)·l` products of a column in one call, per
//! polynomial with the partials added (a gang's arithmetic), or one
//! product per pass give one `TorusPoly`. Within one tier the grouping is
//! fixed — a lone lane adds the same per-polynomial partials in the same
//! order as a gang — so outputs are byte-identical by construction, not
//! by margin. The proptest suite `tests/simd_equivalence.rs` pins this
//! for every backend the host can run, across sizes, term counts and
//! tail lengths.
//!
//! # Dispatch
//!
//! [`kernels`] resolves the backend once per process from the
//! `PYTFHE_SIMD` environment variable (`auto` | `scalar` | `avx2`), by
//! one rule: a named backend the CPU supports is taken,
//! and everything else — unset, `auto`, an unknown name, a backend this
//! CPU cannot run — picks the best path the CPU supports.
//! [`set_active_path`] re-points the process-global
//! dispatch explicitly — used by tests and benches that compare paths in
//! one process; it is not meant for concurrent use while other threads
//! are mid-kernel (each kernel call reads the table once, so results
//! stay correct either way — only timings would blur).

use crate::align::AlignedBuf;
use crate::torus::Torus32;
use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};

pub mod scalar;

#[cfg(target_arch = "x86_64")]
mod avx2;

/// Identifies one SIMD backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdPath {
    /// Portable Rust, no `std::arch`.
    Scalar,
    /// AVX2 + FMA (x86-64), 4×`f64` / 8×`u32` lanes.
    Avx2,
}

impl SimdPath {
    /// Every path this build knows about (not necessarily runnable on
    /// this CPU — see [`SimdPath::is_supported`]).
    pub const ALL: [SimdPath; 2] = [SimdPath::Scalar, SimdPath::Avx2];

    /// Stable lowercase name, matching the `PYTFHE_SIMD` values.
    pub fn name(self) -> &'static str {
        match self {
            SimdPath::Scalar => "scalar",
            SimdPath::Avx2 => "avx2",
        }
    }

    /// Whether the running CPU can execute this path.
    pub fn is_supported(self) -> bool {
        match self {
            SimdPath::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            SimdPath::Avx2 => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(not(target_arch = "x86_64"))]
            SimdPath::Avx2 => false,
        }
    }

    /// Position in [`SimdPath::ALL`]: what the process-global dispatch
    /// stores.
    fn id(self) -> u8 {
        self as u8
    }
}

impl fmt::Display for SimdPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One product `a·b` of [`Kernels::sum_products`]: `(ar, ai, br, bi)`,
/// two spectra as split re/im slices.
pub type Term<'a> = (&'a [f64], &'a [f64], &'a [f64], &'a [f64]);

/// `(dr, di, terms)`: pointwise `d = Σ a·b` over split slices.
type SumProductsFn = fn(&mut [f64], &mut [f64], &[Term<'_>]);
/// `(tables, c, re, im)`: forward transform of `2m` integer coefficients.
type ForwardFn = fn(&Twiddles, &[i32], &mut [f64], &mut [f64]);
/// `(tables, re, im, out)`: inverse transform + round to `2m` torus words.
type InverseFn = fn(&Twiddles, &mut [f64], &mut [f64], &mut [Torus32]);
/// `(c, offset, shift, mask, half_base, out)`: one decomposition level.
type ExtractDigitsFn = fn(&[Torus32], u32, u32, u32, i32, &mut [i32]);
/// `(dst, src)`: wrapping element-wise subtraction.
type SubAssignFn = fn(&mut [Torus32], &[Torus32]);
/// `(dst, a, b)`: wrapping element-wise `dst -= a + b` (fused pair).
type SubAssign2Fn = fn(&mut [Torus32], &[Torus32], &[Torus32]);
/// `(dst, coeff, src)`: wrapping element-wise `dst += coeff * src`.
type AxpyFn = fn(&mut [Torus32], i32, &[Torus32]);

/// Precomputed tables of the folded negacyclic transform for one
/// polynomial size `N` (`M = N/2` complex points), shared by both
/// transform implementations and both directions (the inverse multiplies
/// by the conjugates).
#[derive(Debug, Clone)]
pub struct Twiddles {
    /// Transform size `M`.
    m: usize,
    /// Twist `e^{iπj/N}` for `j < M` (split re/im).
    tw_re: AlignedBuf<f64>,
    tw_im: AlignedBuf<f64>,
    /// Radix-4 pass tables, one per block length `len = M, M/4, … ≥ 4`,
    /// the table for `len` starting at `2·(M − len)`: six contiguous runs
    /// of `len/4` values — re then im of `w^j`, `w^{2j}`, `w^{3j}` with
    /// `w = e^{2πi/len}` — so every load of a pass is sequential.
    passes: AlignedBuf<f64>,
}

impl Twiddles {
    /// Builds the tables for polynomials of degree bound `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two or is smaller than 2.
    pub fn new(n: usize) -> Self {
        assert!(n.is_power_of_two() && n >= 2, "FFT size must be a power of two >= 2");
        let m = n / 2;
        let (mut tw_re, mut tw_im) = (AlignedBuf::zeroed(m), AlignedBuf::zeroed(m));
        for j in 0..m {
            let (sin, cos) = (std::f64::consts::PI * j as f64 / n as f64).sin_cos();
            tw_re[j] = cos;
            tw_im[j] = sin;
        }
        let mut passes = AlignedBuf::zeroed(2 * m);
        let mut len = m;
        while len >= 4 {
            let q = len / 4;
            let table = &mut passes[2 * (m - len)..][..6 * q];
            for j in 0..q {
                for power in 1..=3 {
                    let turn = (power * j % len) as f64 / len as f64;
                    let (sin, cos) = (2.0 * std::f64::consts::PI * turn).sin_cos();
                    table[(2 * power - 2) * q + j] = cos;
                    table[(2 * power - 1) * q + j] = sin;
                }
            }
            len /= 4;
        }
        Twiddles { m, tw_re, tw_im, passes }
    }

    /// Transform size `M = N/2`.
    pub fn points(&self) -> usize {
        self.m
    }

    /// The radix-4 table for blocks of `len` points (`len = M/4^k ≥ 4`).
    fn pass(&self, len: usize) -> &[f64] {
        &self.passes[2 * (self.m - len)..][..6 * (len / 4)]
    }
}

/// One backend's kernel set. The fields are plain function pointers so a
/// resolved `&'static Kernels` dispatches with no per-call branching;
/// the methods wrap them with the shared shape checks.
pub struct Kernels {
    path: SimdPath,
    sum_products: SumProductsFn,
    forward: ForwardFn,
    inverse: InverseFn,
    extract_digits: ExtractDigitsFn,
    sub_assign: SubAssignFn,
    sub_assign2: SubAssign2Fn,
    axpy: AxpyFn,
}

impl fmt::Debug for Kernels {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Kernels").field("path", &self.path).finish_non_exhaustive()
    }
}

impl Kernels {
    /// Which backend these kernels belong to.
    pub fn path(&self) -> SimdPath {
        self.path
    }

    /// Pointwise complex sum of products over split re/im slices:
    /// `d = Σ aₖ·bₖ` over `terms`, each point's products added in `terms`
    /// order to a zero start while they sit in registers, and `d` written
    /// once — the external product's multiply-accumulate (no terms:
    /// zero). Indifferent to the order the points are stored in.
    ///
    /// # Panics
    ///
    /// Panics if any slice of `terms` or `di` is not as long as `dr` (the
    /// vector kernels read through raw pointers).
    #[inline]
    pub fn sum_products(&self, dr: &mut [f64], di: &mut [f64], terms: &[Term<'_>]) {
        let m = dr.len();
        let fits = |&(ar, ai, br, bi): &Term<'_>| [ar, ai, br, bi].map(<[f64]>::len) == [m; 4];
        assert!(di.len() == m && terms.iter().all(fits), "sum_products: slice lengths differ");
        (self.sum_products)(dr, di, terms)
    }

    /// Forward folded transform: maps the `2M` signed coefficients `c`
    /// to the `M` complex evaluations `Σ_j (c[j] + i·c[j+M])·ζ_k^j`,
    /// `ζ_k = e^{iπ(1+4k)/N}`, storing evaluation `k` at the bit
    /// reversal of `k`.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths do not match the tables.
    #[inline]
    pub fn forward(&self, t: &Twiddles, c: &[i32], re: &mut [f64], im: &mut [f64]) {
        assert!(c.len() == 2 * t.m && re.len() == t.m && im.len() == t.m);
        (self.forward)(t, c, re, im)
    }

    /// Inverse folded transform of a bit-reversed spectrum, scaled by
    /// `1/M`, untwisted and rounded (ties to even) to `2M` torus
    /// coefficients: the real parts land in `out[..M]`, the imaginary
    /// parts in `out[M..]`. Runs in `re`/`im`, which hold garbage
    /// afterwards.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths do not match the tables.
    #[inline]
    pub fn inverse(&self, t: &Twiddles, re: &mut [f64], im: &mut [f64], out: &mut [Torus32]) {
        assert!(re.len() == t.m && im.len() == t.m && out.len() == 2 * t.m);
        (self.inverse)(t, re, im, out)
    }

    /// One level of signed gadget decomposition:
    /// `out[j] = ((c[j] + offset) >> shift) & mask - half_base`.
    ///
    /// # Panics
    ///
    /// Panics if `c` and `out` differ in length. Like the three kernels
    /// below, this is a release-mode check: the vector bodies walk every
    /// slice by raw pointer up to the length of one of them, so in a safe
    /// `fn` the comparison is what keeps a short slice from being read or
    /// written past its end (one compare per call of ≥ 500 words).
    #[inline]
    pub fn extract_digits(
        &self,
        c: &[Torus32],
        offset: u32,
        shift: u32,
        mask: u32,
        half_base: i32,
        out: &mut [i32],
    ) {
        assert_eq!(c.len(), out.len(), "extract_digits: slice lengths differ");
        (self.extract_digits)(c, offset, shift, mask, half_base, out)
    }

    /// Wrapping element-wise `dst -= src` over torus slices — the
    /// key-switch accumulation (and every LWE mask subtraction).
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    #[inline]
    pub fn sub_assign(&self, dst: &mut [Torus32], src: &[Torus32]) {
        assert_eq!(dst.len(), src.len(), "sub_assign: slice lengths differ");
        (self.sub_assign)(dst, src)
    }

    /// Fused wrapping `dst -= a + b` over torus slices — the paired
    /// key-switch row subtraction. One pass over `dst` replaces two,
    /// halving the store traffic of the dominant key-switch loop;
    /// bit-identical to two sequential [`Kernels::sub_assign`] calls
    /// because `Z/2^32` addition is associative.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    #[inline]
    pub fn sub_assign2(&self, dst: &mut [Torus32], a: &[Torus32], b: &[Torus32]) {
        assert!(a.len() == dst.len() && b.len() == dst.len(), "sub_assign2: slice lengths differ");
        (self.sub_assign2)(dst, a, b)
    }

    /// Wrapping element-wise `dst += coeff * src` over torus slices —
    /// the mask accumulation of the gate linear combinations (staging
    /// pass of the batched bootstrap kernels). Bit-identical across
    /// backends (low-32-bit products on every path).
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    #[inline]
    pub fn axpy(&self, dst: &mut [Torus32], coeff: i32, src: &[Torus32]) {
        assert_eq!(dst.len(), src.len(), "axpy: slice lengths differ");
        (self.axpy)(dst, coeff, src)
    }
}

/// The scalar kernel set (always available).
static SCALAR: Kernels = Kernels {
    path: SimdPath::Scalar,
    sum_products: scalar::sum_products,
    forward: scalar::forward,
    inverse: scalar::inverse,
    extract_digits: scalar::extract_digits,
    sub_assign: scalar::sub_assign,
    sub_assign2: scalar::sub_assign2,
    axpy: scalar::axpy,
};

#[cfg(target_arch = "x86_64")]
static AVX2: Kernels = Kernels {
    path: SimdPath::Avx2,
    sum_products: avx2::sum_products,
    forward: avx2::forward,
    inverse: avx2::inverse,
    extract_digits: avx2::extract_digits,
    sub_assign: avx2::sub_assign,
    sub_assign2: avx2::sub_assign2,
    axpy: avx2::axpy,
};

/// The kernel set for an explicit path, or `None` when the running CPU
/// cannot execute it. Equivalence tests use this to compare backends
/// directly without touching the process-global dispatch.
pub fn kernels_for(path: SimdPath) -> Option<&'static Kernels> {
    path.is_supported().then(|| by_id(path.id()))
}

/// Best path the running CPU supports.
pub fn best_available() -> SimdPath {
    best_of(SimdPath::is_supported)
}

fn best_of(is_supported: impl Fn(SimdPath) -> bool) -> SimdPath {
    if is_supported(SimdPath::Avx2) {
        SimdPath::Avx2
    } else {
        SimdPath::Scalar
    }
}

const PATH_UNRESOLVED: u8 = u8::MAX;

/// Process-global active path id, resolved lazily from `PYTFHE_SIMD`.
static ACTIVE: AtomicU8 = AtomicU8::new(PATH_UNRESOLVED);

/// The path a `PYTFHE_SIMD` value selects on a host described by
/// `is_supported`: the named backend when the host can run it, and in
/// every other case — unset, `auto`, an unknown name, a backend the host
/// lacks — what `auto` picks (never crash on someone else's machine, and
/// never run slower than it has to because of a stale setting).
fn path_for_request(request: Option<&str>, is_supported: impl Fn(SimdPath) -> bool) -> SimdPath {
    request
        .and_then(|v| SimdPath::ALL.into_iter().find(|p| v.eq_ignore_ascii_case(p.name())))
        .filter(|&p| is_supported(p))
        .unwrap_or_else(|| best_of(is_supported))
}

fn resolve() -> u8 {
    let request = std::env::var("PYTFHE_SIMD").ok();
    let id = path_for_request(request.as_deref(), SimdPath::is_supported).id();
    // A concurrent set_active_path may have raced us; either value is a
    // valid resolved state, so last store wins harmlessly.
    ACTIVE.store(id, Ordering::Relaxed);
    id
}

/// The table for a [`SimdPath::id`] (anything else: scalar).
fn by_id(id: u8) -> &'static Kernels {
    match id {
        #[cfg(target_arch = "x86_64")]
        1 => &AVX2,
        _ => &SCALAR,
    }
}

/// The process-global active kernel set, resolving `PYTFHE_SIMD` on
/// first use. Every hot-loop call site goes through this (one relaxed
/// atomic load once resolved).
#[inline]
pub fn kernels() -> &'static Kernels {
    let id = ACTIVE.load(Ordering::Relaxed);
    if id == PATH_UNRESOLVED {
        return by_id(resolve());
    }
    by_id(id)
}

/// The backend the process is currently dispatching to.
pub fn active_path() -> SimdPath {
    kernels().path
}

/// Re-points the process-global dispatch at `path`. Returns `false`
/// (leaving the dispatch unchanged) when the CPU cannot run `path`.
/// Intended for benchmark harnesses that measure several backends in
/// one process; library code should rely on `PYTFHE_SIMD` instead.
pub fn set_active_path(path: SimdPath) -> bool {
    if !path.is_supported() {
        return false;
    }
    ACTIVE.store(path.id(), Ordering::Relaxed);
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_is_always_supported_and_resolvable() {
        assert!(SimdPath::Scalar.is_supported());
        assert!(kernels_for(SimdPath::Scalar).is_some());
        assert_eq!(kernels_for(SimdPath::Scalar).unwrap().path(), SimdPath::Scalar);
    }

    #[test]
    fn active_path_is_supported_and_named() {
        let p = active_path();
        assert!(p.is_supported());
        assert!(["scalar", "avx2"].contains(&p.name()));
        assert_eq!(format!("{p}"), p.name());
    }

    #[test]
    fn best_available_matches_declared_support() {
        let best = best_available();
        assert!(best.is_supported());
        // Nothing strictly better than `best` may claim support.
        assert_eq!(best == SimdPath::Scalar, !SimdPath::Avx2.is_supported());
    }

    #[test]
    fn unsupported_paths_yield_no_kernels() {
        for p in SimdPath::ALL {
            assert_eq!(kernels_for(p).is_some(), p.is_supported(), "{p}");
        }
    }

    #[test]
    fn a_request_the_host_cannot_honour_resolves_like_auto() {
        let no_simd = |p| p == SimdPath::Scalar;
        for (request, want) in [
            (None, SimdPath::Avx2),
            (Some("auto"), SimdPath::Avx2),
            (Some("AVX2"), SimdPath::Avx2),
            (Some("scalar"), SimdPath::Scalar),
            (Some("neon"), SimdPath::Avx2),
            (Some("fastest"), SimdPath::Avx2),
            (Some(""), SimdPath::Avx2),
        ] {
            assert_eq!(path_for_request(request, |_| true), want, "{request:?} with AVX2");
        }
        // The retired tier's name is one more name that is not a runnable
        // tier: it gets the `auto` answer.
        let auto = path_for_request(Some("auto"), |_| true);
        assert_eq!(path_for_request(Some("avx512"), |_| true), auto);
        assert_eq!(path_for_request(Some("avx512"), no_simd), SimdPath::Scalar);
        assert_eq!(path_for_request(Some("avx2"), no_simd), SimdPath::Scalar);
        assert_eq!(path_for_request(Some("neon"), no_simd), SimdPath::Scalar);
    }

    /// Calls `call` with the kernels of every path this host supports,
    /// checks that each call but the last panicked, and lets the last
    /// one's panic out for `#[should_panic]` to match.
    fn refused_on_every_path(call: impl Fn(&Kernels) + std::panic::RefUnwindSafe) {
        let mut tables: Vec<&Kernels> = SimdPath::ALL.into_iter().filter_map(kernels_for).collect();
        let last = tables.pop().expect("scalar is always supported");
        for k in tables {
            let refused = std::panic::catch_unwind(|| call(k)).is_err();
            assert!(refused, "path {} accepted mismatched slices", k.path());
        }
        call(last);
    }

    // One word of source for 64 of destination: before the length checks
    // were release-mode asserts, the vector bodies read (or wrote) 63
    // words past the short slice and returned normally. These must pass
    // under `cargo test --release` as well.
    const LONG: [Torus32; 64] = [Torus32::ZERO; 64];
    const SHORT: [Torus32; 1] = [Torus32::ZERO; 1];

    #[test]
    #[should_panic(expected = "axpy: slice lengths differ")]
    fn axpy_refuses_a_short_source_on_every_path() {
        refused_on_every_path(|k| k.axpy(&mut LONG.clone(), 1, &SHORT));
    }

    #[test]
    #[should_panic(expected = "sub_assign: slice lengths differ")]
    fn sub_assign_refuses_a_short_source_on_every_path() {
        refused_on_every_path(|k| k.sub_assign(&mut LONG.clone(), &SHORT));
    }

    #[test]
    #[should_panic(expected = "sub_assign2: slice lengths differ")]
    fn sub_assign2_refuses_a_short_source_on_every_path() {
        refused_on_every_path(|k| k.sub_assign2(&mut LONG.clone(), &LONG, &SHORT));
    }

    #[test]
    #[should_panic(expected = "sum_products: slice lengths differ")]
    fn sum_products_refuses_a_short_term_on_every_path() {
        let (long, short) = ([0.0; 64], [0.0; 1]);
        let terms = [(&long[..], &long[..], &long[..], &long[..]), (&long, &long, &long, &short)];
        refused_on_every_path(|k| k.sum_products(&mut long.clone(), &mut long.clone(), &terms));
    }

    #[test]
    #[should_panic(expected = "extract_digits: slice lengths differ")]
    fn extract_digits_refuses_a_short_output_on_every_path() {
        refused_on_every_path(|k| k.extract_digits(&LONG, 0, 22, 1023, 512, &mut [0; 1]));
    }
}
