//! Portable kernels in plain Rust. Every vector backend is tested
//! against these, and the transform here is also the whole transform for
//! sizes below the vector code's smallest block.
//!
//! Loops index exactly-sized sub-slices, sliced once before the loop, so
//! no index is bounds-checked inside one.

use super::{Term, Twiddles};
use crate::torus::Torus32;

/// `d = Σ a·b` pointwise over split re/im slices: each point's products
/// added, in `terms` order, to a zero start, one block of points at a
/// time, so `d` is written once.
pub fn sum_products(dr: &mut [f64], di: &mut [f64], terms: &[Term<'_>]) {
    const BLOCK: usize = 8;
    let m = dr.len();
    let di = &mut di[..m];
    for j in (0..m).step_by(BLOCK) {
        let w = BLOCK.min(m - j);
        let (mut re, mut im) = ([0.0; BLOCK], [0.0; BLOCK]);
        let (re, im) = (&mut re[..w], &mut im[..w]);
        for &(ar, ai, br, bi) in terms {
            let (ar, ai, br, bi) = (&ar[j..][..w], &ai[j..][..w], &br[j..][..w], &bi[j..][..w]);
            for x in 0..w {
                re[x] += ar[x] * br[x] - ai[x] * bi[x];
                im[x] += ar[x] * bi[x] + ai[x] * br[x];
            }
        }
        dr[j..][..w].copy_from_slice(re);
        di[j..][..w].copy_from_slice(im);
    }
}

/// A complex value as `(re, im)`.
type C = (f64, f64);

#[inline(always)]
fn add(a: C, b: C) -> C {
    (a.0 + b.0, a.1 + b.1)
}

#[inline(always)]
fn sub(a: C, b: C) -> C {
    (a.0 - b.0, a.1 - b.1)
}

/// `a · w`.
#[inline(always)]
fn mul(a: C, w: C) -> C {
    (a.0 * w.0 - a.1 * w.1, a.0 * w.1 + a.1 * w.0)
}

/// `a · conj(w)`.
#[inline(always)]
fn mul_conj(a: C, w: C) -> C {
    (a.0 * w.0 + a.1 * w.1, a.1 * w.0 - a.0 * w.1)
}

/// `i · a`.
#[inline(always)]
fn mul_i(a: C) -> C {
    (-a.1, a.0)
}

/// One radix-4 decimation-in-frequency butterfly — two fused radix-2
/// stages, so the four outputs land in bit-reversed (not digit-reversed)
/// order. `w` holds `w^j`, `w^{2j}`, `w^{3j}`.
#[inline(always)]
fn dif4(a: [C; 4], w: [C; 3]) -> [C; 4] {
    let (s02, d02) = (add(a[0], a[2]), sub(a[0], a[2]));
    let (s13, d13) = (add(a[1], a[3]), mul_i(sub(a[1], a[3])));
    [add(s02, s13), mul(sub(s02, s13), w[1]), mul(add(d02, d13), w[0]), mul(sub(d02, d13), w[2])]
}

/// The inverse of [`dif4`] up to a factor 4: a radix-4
/// decimation-in-time butterfly with the conjugate twiddles.
#[inline(always)]
fn dit4(y: [C; 4], w: [C; 3]) -> [C; 4] {
    let (z1, z2, z3) = (mul_conj(y[1], w[1]), mul_conj(y[2], w[0]), mul_conj(y[3], w[2]));
    let (p, m) = (add(y[0], z1), sub(y[0], z1));
    let (s, d) = (add(z2, z3), mul_i(sub(z2, z3)));
    [add(p, s), sub(m, d), sub(p, s), add(m, d)]
}

/// Splits a slice whose length is a multiple of `K` into `K` equal runs.
/// Every run has the same length expression, so loops indexing all of
/// them up to that length carry no bounds checks.
#[inline(always)]
fn runs<const K: usize, T>(s: &[T]) -> [&[T]; K] {
    let q = s.len() / K;
    std::array::from_fn(|k| &s[k * q..][..q])
}

/// Mutable [`runs`] of four.
#[inline(always)]
fn quarters_mut<T>(s: &mut [T]) -> [&mut [T]; 4] {
    let q = s.len() / 4;
    let (a, rest) = s.split_at_mut(q);
    let (b, rest) = rest.split_at_mut(q);
    let (c, d) = rest.split_at_mut(q);
    [a, b, c, &mut d[..q]]
}

/// The three twiddles of butterfly `j` from a six-run pass table.
#[inline(always)]
fn twiddles_at(w: &[&[f64]; 6], j: usize) -> [C; 3] {
    [(w[0][j], w[1][j]), (w[2][j], w[3][j]), (w[4][j], w[5][j])]
}

/// Forward fold + twist of coefficient `j`: `(lo[j] + i·hi[j]) · twist[j]`.
#[inline(always)]
fn twisted(lo: &[i32], hi: &[i32], tw_re: &[f64], tw_im: &[f64], j: usize) -> C {
    mul((lo[j] as f64, hi[j] as f64), (tw_re[j], tw_im[j]))
}

/// Untwists point `j` (already scaled by `M`), scales and rounds it to
/// the nearest torus element; arithmetic is exact mod 2^32 because the
/// magnitudes stay below 2^52.
#[inline(always)]
fn untwist_round(a: C, tw_re: &[f64], tw_im: &[f64], j: usize, scale: f64) -> (Torus32, Torus32) {
    let d = mul_conj(a, (tw_re[j], tw_im[j]));
    let round = |x: f64| Torus32(((x * scale).round_ties_even() as i64) as u32);
    (round(d.0), round(d.1))
}

/// Forward folded negacyclic transform (see [`super::Kernels::forward`]):
/// a first radix-4 pass fused with the int→`f64` conversion and the
/// twist, radix-4 passes down to blocks of four, and one twiddle-free
/// radix-2 pass when `log2 M` is odd. Sizes below one radix-4 block
/// (`M < 4`) twist in a pass of their own.
pub fn forward(t: &Twiddles, c: &[i32], re: &mut [f64], im: &mut [f64]) {
    let m = t.m;
    let (lo, hi) = c.split_at(m);
    let mut len = m;
    if m >= 4 {
        let q = m / 4;
        let (lo, hi): ([&[i32]; 4], [&[i32]; 4]) = (runs(lo), runs(hi));
        let (tr, ti): ([&[f64]; 4], [&[f64]; 4]) = (runs(&t.tw_re), runs(&t.tw_im));
        let w: [&[f64]; 6] = runs(t.pass(m));
        let (r, i) = (quarters_mut(re), quarters_mut(im));
        for j in 0..q {
            let a = std::array::from_fn(|k| twisted(lo[k], hi[k], tr[k], ti[k], j));
            let y = dif4(a, twiddles_at(&w, j));
            for k in 0..4 {
                (r[k][j], i[k][j]) = y[k];
            }
        }
        len = q;
    } else {
        for j in 0..m {
            (re[j], im[j]) = twisted(lo, hi, &t.tw_re, &t.tw_im, j);
        }
    }
    while len >= 4 {
        let w: [&[f64]; 6] = runs(t.pass(len));
        for (re, im) in re.chunks_exact_mut(len).zip(im.chunks_exact_mut(len)) {
            let (r, i) = (quarters_mut(re), quarters_mut(im));
            for j in 0..len / 4 {
                let y = dif4(std::array::from_fn(|k| (r[k][j], i[k][j])), twiddles_at(&w, j));
                for k in 0..4 {
                    (r[k][j], i[k][j]) = y[k];
                }
            }
        }
        len /= 4;
    }
    if len == 2 {
        radix2_pairs(re);
        radix2_pairs(im);
    }
}

/// The twiddle-free radix-2 stage over adjacent pairs (its own inverse up
/// to a factor 2): `(a, b) → (a + b, a − b)`.
fn radix2_pairs(x: &mut [f64]) {
    for pair in x.chunks_exact_mut(2) {
        (pair[0], pair[1]) = (pair[0] + pair[1], pair[0] - pair[1]);
    }
}

/// Inverse folded negacyclic transform (see [`super::Kernels::inverse`]):
/// the mirror image of [`forward`], its last radix-4 pass fused with the
/// `1/M` scale, the untwist and the rounding.
pub fn inverse(t: &Twiddles, re: &mut [f64], im: &mut [f64], out: &mut [Torus32]) {
    let m = t.m;
    let scale = 1.0 / m as f64;
    let (out_lo, out_hi) = out.split_at_mut(m);
    // The shortest block length of the forward walk: 1 or 2.
    let mut len = m >> (m.trailing_zeros() & !1);
    if len == 2 {
        radix2_pairs(re);
        radix2_pairs(im);
    }
    len *= 4;
    while len < m {
        let w: [&[f64]; 6] = runs(t.pass(len));
        for (re, im) in re.chunks_exact_mut(len).zip(im.chunks_exact_mut(len)) {
            let (r, i) = (quarters_mut(re), quarters_mut(im));
            for j in 0..len / 4 {
                let a = dit4(std::array::from_fn(|k| (r[k][j], i[k][j])), twiddles_at(&w, j));
                for k in 0..4 {
                    (r[k][j], i[k][j]) = a[k];
                }
            }
        }
        len *= 4;
    }
    if m >= 4 {
        let (r, i): ([&[f64]; 4], [&[f64]; 4]) = (runs(re), runs(im));
        let (tr, ti): ([&[f64]; 4], [&[f64]; 4]) = (runs(&t.tw_re), runs(&t.tw_im));
        let w: [&[f64]; 6] = runs(t.pass(m));
        let (lo, hi) = (quarters_mut(out_lo), quarters_mut(out_hi));
        for j in 0..m / 4 {
            let a = dit4(std::array::from_fn(|k| (r[k][j], i[k][j])), twiddles_at(&w, j));
            for k in 0..4 {
                (lo[k][j], hi[k][j]) = untwist_round(a[k], tr[k], ti[k], j, scale);
            }
        }
    } else {
        for j in 0..m {
            (out_lo[j], out_hi[j]) = untwist_round((re[j], im[j]), &t.tw_re, &t.tw_im, j, scale);
        }
    }
}

/// One level of signed gadget decomposition.
pub fn extract_digits(
    c: &[Torus32],
    offset: u32,
    shift: u32,
    mask: u32,
    half_base: i32,
    out: &mut [i32],
) {
    for (o, &cj) in out.iter_mut().zip(c) {
        *o = ((cj.0.wrapping_add(offset) >> shift) & mask) as i32 - half_base;
    }
}

/// Wrapping element-wise `dst -= src`.
pub fn sub_assign(dst: &mut [Torus32], src: &[Torus32]) {
    for (x, y) in dst.iter_mut().zip(src) {
        *x -= *y;
    }
}

/// Fused wrapping `dst -= a + b` — the paired key-switch row
/// subtraction. Equals two sequential [`sub_assign`] calls bit-for-bit
/// (addition in `Z/2^32` is associative) while touching `dst` once.
pub fn sub_assign2(dst: &mut [Torus32], a: &[Torus32], b: &[Torus32]) {
    let n = dst.len();
    let (dst, a, b) = (&mut dst[..n], &a[..n], &b[..n]);
    for j in 0..n {
        dst[j] -= a[j] + b[j];
    }
}

/// Wrapping element-wise `dst += coeff * src` — the mask accumulation
/// of the gate linear combinations (`coeff` is one of the small signed
/// integers of the gate recipes).
pub fn axpy(dst: &mut [Torus32], coeff: i32, src: &[Torus32]) {
    for (x, y) in dst.iter_mut().zip(src) {
        *x += coeff * *y;
    }
}
