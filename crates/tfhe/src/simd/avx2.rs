//! AVX2 + FMA kernels: 4×`f64` / 8×`u32` lanes (`std::arch::x86_64`).
//!
//! Safety model: every public function here is a safe wrapper around a
//! `#[target_feature(enable = "avx2", enable = "fma")]` implementation.
//! Two things make the wrappers' calls sound. *Features*: the module is
//! private to [`crate::simd`], and the dispatcher only installs this
//! backend after `is_x86_feature_detected!` confirmed both. *Bounds*:
//! the implementations walk their slices by raw pointer, every walk
//! bounded by the length of one slice, and the `Kernels` methods — the
//! only callers — have compared the others against it with `assert!`;
//! each implementation repeats that comparison as a `debug_assert!` at
//! entry. Helpers that touch no memory are safe `#[target_feature]`
//! functions.
//!
//! Tails: slices are processed in full vector chunks, then a scalar
//! remainder loop computes the same formula as [`super::scalar`] — so
//! for lengths below the lane width the output is exactly the scalar
//! one, and the proptest suite exercises every tail length.
//!
//! The `f64` kernels use fused multiply-add (`_mm256_fmadd_pd` /
//! `_mm256_fmsub_pd`); see the module docs of [`crate::simd`] for why
//! torus-domain equality, not `f64` bit-equality, is the contract.
//! Integer kernels are bit-identical to scalar.

use super::{Term, Twiddles};
use crate::torus::Torus32;
use std::arch::x86_64::*;

/// `1.5·2^52`: for `|x| < 2^51`, `x + ROUND_MAGIC` rounds `x` to an
/// integer (ties to even, courtesy of the FP add itself) and leaves that
/// integer's two's-complement low 32 bits in the low 32 bits of the
/// sum's mantissa — exactly `(round_ties_even(x) as i64) as u32`.
const ROUND_MAGIC: f64 = 6_755_399_441_055_744.0;

pub fn sum_products(dr: &mut [f64], di: &mut [f64], terms: &[Term<'_>]) {
    // SAFETY: only reachable through the dispatcher, which installs this
    // backend solely when AVX2 and FMA were detected at runtime, and
    // through `Kernels::sum_products`, which checked every slice as long
    // as `dr`.
    unsafe { sum_products_impl(dr, di, terms) }
}

/// # Safety
///
/// The CPU must support AVX2 and FMA, and every slice of `terms` must be
/// as long as `dr` and `di`.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn sum_products_impl(dr: &mut [f64], di: &mut [f64], terms: &[Term<'_>]) {
    let m = dr.len();
    debug_assert!(
        di.len() == m && terms.iter().all(|t| [t.0, t.1, t.2, t.3].map(<[f64]>::len) == [m; 4])
    );
    let (pr, pi) = (dr.as_mut_ptr(), di.as_mut_ptr());
    let zero = (_mm256_setzero_pd(), _mm256_setzero_pd());
    // Two vectors of points per iteration: each term's products go into
    // two independent pairs of accumulators, so the adds of one do not
    // wait on the other's. The last `m % 8` points take the scalar
    // formula.
    let mut j = 0;
    while j + 8 <= m {
        let (mut lo, mut hi) = (zero, zero);
        for t in terms {
            let (a, b) = (t.0.as_ptr(), t.1.as_ptr());
            let (c, d) = (t.2.as_ptr(), t.3.as_ptr());
            lo = add(lo, mul(load(a, b, j), load(c, d, j)));
            hi = add(hi, mul(load(a, b, j + 4), load(c, d, j + 4)));
        }
        store(pr, pi, j, lo);
        store(pr, pi, j + 4, hi);
        j += 8;
    }
    while j < m {
        let (mut re, mut im) = (0.0, 0.0);
        for t in terms {
            re += t.0[j] * t.2[j] - t.1[j] * t.3[j];
            im += t.0[j] * t.3[j] + t.1[j] * t.2[j];
        }
        (dr[j], di[j]) = (re, im);
        j += 1;
    }
}

/// A vector of four complex values, split `(re, im)`.
type V = (__m256d, __m256d);

/// Smallest transform the vector code handles: one radix-4 pass whose
/// quarters are a full vector wide, plus the in-register leaf. Smaller
/// sizes go to the portable transform, which produces the same order.
const MIN_POINTS: usize = 16;

/// # Safety
///
/// `re` and `im` must be valid for reads of elements `j..j + 4`.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn load(re: *const f64, im: *const f64, j: usize) -> V {
    (_mm256_loadu_pd(re.add(j)), _mm256_loadu_pd(im.add(j)))
}

/// # Safety
///
/// `re` and `im` must be valid for writes of elements `j..j + 4`.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn store(re: *mut f64, im: *mut f64, j: usize, v: V) {
    _mm256_storeu_pd(re.add(j), v.0);
    _mm256_storeu_pd(im.add(j), v.1);
}

#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
fn add(a: V, b: V) -> V {
    (_mm256_add_pd(a.0, b.0), _mm256_add_pd(a.1, b.1))
}

#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
fn sub(a: V, b: V) -> V {
    (_mm256_sub_pd(a.0, b.0), _mm256_sub_pd(a.1, b.1))
}

/// `a · w`.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
fn mul(a: V, w: V) -> V {
    (
        _mm256_fmsub_pd(a.0, w.0, _mm256_mul_pd(a.1, w.1)),
        _mm256_fmadd_pd(a.0, w.1, _mm256_mul_pd(a.1, w.0)),
    )
}

/// `a · conj(w)`.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
fn mul_conj(a: V, w: V) -> V {
    (
        _mm256_fmadd_pd(a.0, w.0, _mm256_mul_pd(a.1, w.1)),
        _mm256_fmsub_pd(a.1, w.0, _mm256_mul_pd(a.0, w.1)),
    )
}

/// The twiddles `w^j`, `w^{2j}`, `w^{3j}` for `j..j+4` from a six-run
/// pass table with runs of `q`.
///
/// # Safety
///
/// `w` must be valid for reads of `6q` elements, and `j + 4 <= q`.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn twiddles_at(w: *const f64, q: usize, j: usize) -> [V; 3] {
    [load(w, w.add(q), j), load(w.add(2 * q), w.add(3 * q), j), load(w.add(4 * q), w.add(5 * q), j)]
}

/// Four radix-4 decimation-in-frequency butterflies (the formulas of the
/// portable `dif4`).
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
fn dif4(a: [V; 4], w: [V; 3]) -> [V; 4] {
    let (s02, d02) = (add(a[0], a[2]), sub(a[0], a[2]));
    let (s13, d13) = (add(a[1], a[3]), sub(a[1], a[3]));
    // d02 ± i·d13
    let t2 = (_mm256_sub_pd(d02.0, d13.1), _mm256_add_pd(d02.1, d13.0));
    let t3 = (_mm256_add_pd(d02.0, d13.1), _mm256_sub_pd(d02.1, d13.0));
    [add(s02, s13), mul(sub(s02, s13), w[1]), mul(t2, w[0]), mul(t3, w[2])]
}

/// Four radix-4 decimation-in-time butterflies with conjugate twiddles
/// (the formulas of the portable `dit4`).
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
fn dit4(y: [V; 4], w: [V; 3]) -> [V; 4] {
    let (z1, z2, z3) = (mul_conj(y[1], w[1]), mul_conj(y[2], w[0]), mul_conj(y[3], w[2]));
    let (p, m) = (add(y[0], z1), sub(y[0], z1));
    let (s, d) = (add(z2, z3), sub(z2, z3));
    // m ∓ i·d
    let a1 = (_mm256_add_pd(m.0, d.1), _mm256_sub_pd(m.1, d.0));
    let a3 = (_mm256_sub_pd(m.0, d.1), _mm256_add_pd(m.1, d.0));
    [add(p, s), a1, sub(p, s), a3]
}

/// The last two forward stages on four adjacent points held in one
/// register: `[x0+x1+x2+x3, x0−x1+x2−x3, (x0−x2)+i(x1−x3),
/// (x0−x2)−i(x1−x3)]`.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
fn dft4_in_register(x: V) -> V {
    let ppmm = _mm256_setr_pd(1.0, 1.0, -1.0, -1.0);
    // [x0+x2, x1+x3, x0−x2, x1−x3]
    let tr = _mm256_fmadd_pd(x.0, ppmm, _mm256_permute2f128_pd::<1>(x.0, x.0));
    let ti = _mm256_fmadd_pd(x.1, ppmm, _mm256_permute2f128_pd::<1>(x.1, x.1));
    // Element 3 takes the factor i: (re, im) → (−im, re). The blend
    // moves the parts; the missing sign rides in the constants below.
    let ur = _mm256_blend_pd::<0b1000>(tr, ti);
    let ui = _mm256_blend_pd::<0b1000>(ti, tr);
    let pr = _mm256_permute_pd::<0b0101>(ur);
    let pi = _mm256_permute_pd::<0b0101>(ui);
    (
        _mm256_fmadd_pd(
            ur,
            _mm256_setr_pd(1.0, -1.0, 1.0, 1.0),
            _mm256_mul_pd(pr, _mm256_setr_pd(1.0, 1.0, -1.0, 1.0)),
        ),
        _mm256_fmadd_pd(ui, _mm256_setr_pd(1.0, -1.0, 1.0, -1.0), pi),
    )
}

/// The first two inverse stages on four adjacent points: the inverse of
/// [`dft4_in_register`] up to a factor 4.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
fn idft4_in_register(x: V) -> V {
    let pmpm = _mm256_setr_pd(1.0, -1.0, 1.0, -1.0);
    // [x0+x1, x0−x1, x2+x3, x2−x3]
    let tr = _mm256_fmadd_pd(x.0, pmpm, _mm256_permute_pd::<0b0101>(x.0));
    let ti = _mm256_fmadd_pd(x.1, pmpm, _mm256_permute_pd::<0b0101>(x.1));
    // Element 3 takes the factor −i: (re, im) → (im, −re).
    let ur = _mm256_blend_pd::<0b1000>(tr, ti);
    let ui = _mm256_blend_pd::<0b1000>(ti, tr);
    let sr = _mm256_permute2f128_pd::<1>(ur, ur);
    let si = _mm256_permute2f128_pd::<1>(ui, ui);
    (
        _mm256_fmadd_pd(ur, _mm256_setr_pd(1.0, 1.0, -1.0, -1.0), sr),
        _mm256_fmadd_pd(
            ui,
            _mm256_setr_pd(1.0, 1.0, -1.0, 1.0),
            _mm256_mul_pd(si, _mm256_setr_pd(1.0, -1.0, 1.0, 1.0)),
        ),
    )
}

/// `e^{2πij/8}` for `j < 4`: the twiddles of the 8-point stage.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
fn w8() -> V {
    let c = std::f64::consts::FRAC_1_SQRT_2;
    (_mm256_setr_pd(1.0, c, 0.0, -c), _mm256_setr_pd(0.0, c, 1.0, c))
}

pub fn forward(t: &Twiddles, c: &[i32], re: &mut [f64], im: &mut [f64]) {
    if t.m < MIN_POINTS {
        return super::scalar::forward(t, c, re, im);
    }
    // SAFETY: only reachable through `Kernels::forward`, which checked
    // `c.len() == 2m` and `re.len() == im.len() == m` against the tables
    // and whose dispatcher installs this backend solely when AVX2 and
    // FMA were detected at runtime; `Twiddles::new` makes `m` a power of
    // two, and `m >= MIN_POINTS` was checked just above.
    unsafe { forward_impl(t, c, re, im) }
}

/// # Safety
///
/// `c` must hold `2m` elements and `re`/`im` `m` each, with `m = t.m` a
/// power of two `>= MIN_POINTS`; the CPU must support AVX2 and FMA.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn forward_impl(t: &Twiddles, c: &[i32], re: &mut [f64], im: &mut [f64]) {
    let m = t.m;
    debug_assert!(m.is_power_of_two() && m >= MIN_POINTS);
    debug_assert!(c.len() == 2 * m && re.len() == m && im.len() == m);
    debug_assert!(t.tw_re.len() == m && t.tw_im.len() == m && t.passes.len() == 2 * m);
    // Every index below is `< m` (`< 2m` into `c`): a pass over blocks of
    // `len` points walks `at + k·len/4` for `at < m` in steps of `len`.
    let (c, re, im) = (c.as_ptr(), re.as_mut_ptr(), im.as_mut_ptr());
    // First pass: convert, twist and radix-4 over the whole buffer.
    let q = m / 4;
    let (lo, hi) = (c, c.add(m));
    let (tw_re, tw_im) = (t.tw_re.as_ptr(), t.tw_im.as_ptr());
    let w = t.pass(m).as_ptr();
    let mut j = 0;
    while j < q {
        let mut a = [(_mm256_setzero_pd(), _mm256_setzero_pd()); 4];
        for (k, a) in a.iter_mut().enumerate() {
            let at = j + k * q;
            let ints = (
                _mm256_cvtepi32_pd(_mm_loadu_si128(lo.add(at) as *const __m128i)),
                _mm256_cvtepi32_pd(_mm_loadu_si128(hi.add(at) as *const __m128i)),
            );
            *a = mul(ints, load(tw_re, tw_im, at));
        }
        let y = dif4(a, twiddles_at(w, q, j));
        for (k, y) in y.into_iter().enumerate() {
            store(re, im, j + k * q, y);
        }
        j += 4;
    }
    // Middle passes over blocks of `len >= 16` points.
    let mut len = q;
    while len >= MIN_POINTS {
        let q = len / 4;
        let w = t.pass(len).as_ptr();
        let mut j = 0;
        while j < q {
            let w = twiddles_at(w, q, j);
            let mut at = j;
            while at < m {
                let a = [
                    load(re, im, at),
                    load(re, im, at + q),
                    load(re, im, at + 2 * q),
                    load(re, im, at + 3 * q),
                ];
                for (k, y) in dif4(a, w).into_iter().enumerate() {
                    store(re, im, at + k * q, y);
                }
                at += len;
            }
            j += 4;
        }
        len = q;
    }
    // Leaf: the 8-point stage when three stages remain, then the last
    // two stages inside each register.
    let mut at = 0;
    if len == 8 {
        let w8 = w8();
        while at < m {
            let (u, v) = (load(re, im, at), load(re, im, at + 4));
            store(re, im, at, dft4_in_register(add(u, v)));
            store(re, im, at + 4, dft4_in_register(mul(sub(u, v), w8)));
            at += 8;
        }
    } else {
        while at < m {
            store(re, im, at, dft4_in_register(load(re, im, at)));
            at += 4;
        }
    }
}

pub fn inverse(t: &Twiddles, re: &mut [f64], im: &mut [f64], out: &mut [Torus32]) {
    if t.m < MIN_POINTS {
        return super::scalar::inverse(t, re, im, out);
    }
    // SAFETY: as in `forward`: `Kernels::inverse` checked
    // `re.len() == im.len() == m` and `out.len() == 2m`.
    unsafe { inverse_impl(t, re, im, out) }
}

/// # Safety
///
/// `re`/`im` must hold `m` elements each and `out` `2m`, with `m = t.m`
/// a power of two `>= MIN_POINTS`; the CPU must support AVX2 and FMA.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn inverse_impl(t: &Twiddles, re: &mut [f64], im: &mut [f64], out: &mut [Torus32]) {
    let m = t.m;
    debug_assert!(m.is_power_of_two() && m >= MIN_POINTS);
    debug_assert!(re.len() == m && im.len() == m && out.len() == 2 * m);
    debug_assert!(t.tw_re.len() == m && t.tw_im.len() == m && t.passes.len() == 2 * m);
    // Index bounds as in `forward_impl`. Torus32 is #[repr(transparent)]
    // over u32 (see `crate::torus`).
    let (re, im, out) = (re.as_mut_ptr(), im.as_mut_ptr(), out.as_mut_ptr() as *mut u32);
    // The shortest radix-4 block length of the forward walk: 16 or 32.
    let mut len = m;
    while len >= 4 * MIN_POINTS {
        len /= 4;
    }
    // Leaf, mirrored.
    let mut at = 0;
    if len == 32 {
        let w8 = w8();
        while at < m {
            let u = idft4_in_register(load(re, im, at));
            let v = mul_conj(idft4_in_register(load(re, im, at + 4)), w8);
            store(re, im, at, add(u, v));
            store(re, im, at + 4, sub(u, v));
            at += 8;
        }
    } else {
        while at < m {
            store(re, im, at, idft4_in_register(load(re, im, at)));
            at += 4;
        }
    }
    // Middle passes, shortest blocks first.
    while len < m {
        let q = len / 4;
        let w = t.pass(len).as_ptr();
        let mut j = 0;
        while j < q {
            let w = twiddles_at(w, q, j);
            let mut at = j;
            while at < m {
                let y = [
                    load(re, im, at),
                    load(re, im, at + q),
                    load(re, im, at + 2 * q),
                    load(re, im, at + 3 * q),
                ];
                for (k, a) in dit4(y, w).into_iter().enumerate() {
                    store(re, im, at + k * q, a);
                }
                at += len;
            }
            j += 4;
        }
        len *= 4;
    }
    // Last pass: radix-4 over the whole buffer, untwist, scale, round.
    // Adding 1.5·2^52·M rounds x/M to an integer (ties to even, by the
    // FP add itself, and exactly, M being a power of two) and leaves its
    // low 32 bits in the low half of the sum's mantissa — the scale costs
    // nothing and no f64 → i64 conversion is needed. Needs |x| < 2^51·M;
    // transform values stay below 2^47·M.
    let q = m / 4;
    let (tw_re, tw_im) = (t.tw_re.as_ptr(), t.tw_im.as_ptr());
    let w = t.pass(m).as_ptr();
    let magic = _mm256_set1_pd(ROUND_MAGIC * m as f64);
    // Compacts the low 32 bits of each 64-bit lane into the vector's
    // low 128 bits (lane dwords 0, 2, 4, 6).
    let pack_idx = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
    let mut j = 0;
    while j < q {
        let y = [
            load(re, im, j),
            load(re, im, j + q),
            load(re, im, j + 2 * q),
            load(re, im, j + 3 * q),
        ];
        for (k, a) in dit4(y, twiddles_at(w, q, j)).into_iter().enumerate() {
            let at = j + k * q;
            let d = mul_conj(a, load(tw_re, tw_im, at));
            for (part, dst) in [(d.0, out.add(at)), (d.1, out.add(m + at))] {
                let bits = _mm256_castpd_si256(_mm256_add_pd(part, magic));
                let packed = _mm256_permutevar8x32_epi32(bits, pack_idx);
                _mm_storeu_si128(dst as *mut __m128i, _mm256_castsi256_si128(packed));
            }
        }
        j += 4;
    }
}

pub fn extract_digits(
    c: &[Torus32],
    offset: u32,
    shift: u32,
    mask: u32,
    half_base: i32,
    out: &mut [i32],
) {
    // SAFETY: AVX2 was detected (see `sum_products`), and `Kernels::extract_digits`
    // checked `out.len() == c.len()`.
    unsafe { extract_digits_impl(c, offset, shift, mask, half_base, out) }
}

/// # Safety
///
/// The CPU must support AVX2, and `out` must be as long as `c`.
#[target_feature(enable = "avx2")]
unsafe fn extract_digits_impl(
    c: &[Torus32],
    offset: u32,
    shift: u32,
    mask: u32,
    half_base: i32,
    out: &mut [i32],
) {
    let n = c.len();
    debug_assert_eq!(out.len(), n);
    // Torus32 is #[repr(transparent)] over u32 (see `crate::torus`).
    let cp = c.as_ptr() as *const u32;
    let voff = _mm256_set1_epi32(offset as i32);
    let vmask = _mm256_set1_epi32(mask as i32);
    let vhalf = _mm256_set1_epi32(half_base);
    let vshift = _mm_cvtsi32_si128(shift as i32);
    let mut j = 0;
    while j + 8 <= n {
        let v = _mm256_loadu_si256(cp.add(j) as *const __m256i);
        let t = _mm256_add_epi32(v, voff);
        let s = _mm256_srl_epi32(t, vshift);
        let d = _mm256_sub_epi32(_mm256_and_si256(s, vmask), vhalf);
        _mm256_storeu_si256(out.as_mut_ptr().add(j) as *mut __m256i, d);
        j += 8;
    }
    while j < n {
        out[j] = ((c[j].0.wrapping_add(offset) >> shift) & mask) as i32 - half_base;
        j += 1;
    }
}

pub fn sub_assign(dst: &mut [Torus32], src: &[Torus32]) {
    // SAFETY: AVX2 was detected (see `sum_products`), and `Kernels::sub_assign`
    // checked `src.len() == dst.len()`.
    unsafe { sub_assign_impl(dst, src) }
}

/// # Safety
///
/// The CPU must support AVX2, and `src` must be as long as `dst`.
#[target_feature(enable = "avx2")]
unsafe fn sub_assign_impl(dst: &mut [Torus32], src: &[Torus32]) {
    let n = dst.len();
    debug_assert_eq!(src.len(), n);
    let dp = dst.as_mut_ptr() as *mut u32;
    let sp = src.as_ptr() as *const u32;
    let mut j = 0;
    while j + 8 <= n {
        let a = _mm256_loadu_si256(dp.add(j) as *const __m256i);
        let b = _mm256_loadu_si256(sp.add(j) as *const __m256i);
        _mm256_storeu_si256(dp.add(j) as *mut __m256i, _mm256_sub_epi32(a, b));
        j += 8;
    }
    while j < n {
        dst[j] -= src[j];
        j += 1;
    }
}

pub fn sub_assign2(dst: &mut [Torus32], a: &[Torus32], b: &[Torus32]) {
    // SAFETY: AVX2 was detected (see `sum_products`), and `Kernels::sub_assign2`
    // checked `a.len() == b.len() == dst.len()`.
    unsafe { sub_assign2_impl(dst, a, b) }
}

/// # Safety
///
/// The CPU must support AVX2, and `a` and `b` must be as long as `dst`.
#[target_feature(enable = "avx2")]
unsafe fn sub_assign2_impl(dst: &mut [Torus32], a: &[Torus32], b: &[Torus32]) {
    let n = dst.len();
    debug_assert!(a.len() == n && b.len() == n);
    let dp = dst.as_mut_ptr() as *mut u32;
    let ap = a.as_ptr() as *const u32;
    let bp = b.as_ptr() as *const u32;
    let mut j = 0;
    while j + 8 <= n {
        let d = _mm256_loadu_si256(dp.add(j) as *const __m256i);
        let va = _mm256_loadu_si256(ap.add(j) as *const __m256i);
        let vb = _mm256_loadu_si256(bp.add(j) as *const __m256i);
        let s = _mm256_add_epi32(va, vb);
        _mm256_storeu_si256(dp.add(j) as *mut __m256i, _mm256_sub_epi32(d, s));
        j += 8;
    }
    while j < n {
        dst[j] -= a[j] + b[j];
        j += 1;
    }
}

pub fn axpy(dst: &mut [Torus32], coeff: i32, src: &[Torus32]) {
    // SAFETY: AVX2 was detected (see `sum_products`), and `Kernels::axpy` checked
    // `src.len() == dst.len()`.
    unsafe { axpy_impl(dst, coeff, src) }
}

/// # Safety
///
/// The CPU must support AVX2, and `src` must be as long as `dst`.
#[target_feature(enable = "avx2")]
unsafe fn axpy_impl(dst: &mut [Torus32], coeff: i32, src: &[Torus32]) {
    let n = dst.len();
    debug_assert_eq!(src.len(), n);
    // `_mm256_mullo_epi32` keeps the low 32 product bits — exactly the
    // scalar path's `u32::wrapping_mul`, so the kernel is bit-identical.
    let dp = dst.as_mut_ptr() as *mut i32;
    let sp = src.as_ptr() as *const i32;
    let vc = _mm256_set1_epi32(coeff);
    let mut j = 0;
    while j + 8 <= n {
        let a = _mm256_loadu_si256(dp.add(j) as *const __m256i);
        let b = _mm256_loadu_si256(sp.add(j) as *const __m256i);
        let prod = _mm256_mullo_epi32(b, vc);
        _mm256_storeu_si256(dp.add(j) as *mut __m256i, _mm256_add_epi32(a, prod));
        j += 8;
    }
    while j < n {
        dst[j] += coeff * src[j];
        j += 1;
    }
}
