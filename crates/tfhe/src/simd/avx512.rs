//! AVX-512 kernels: 8×`f64` / 16×`u32` lanes (`std::arch::x86_64`).
//!
//! Safety model mirrors [`super::avx2`]: every public function is a safe
//! wrapper around a `#[target_feature(enable = "avx512f", enable =
//! "avx512dq")]` implementation; the dispatcher installs this backend
//! only after `is_x86_feature_detected!` confirmed both features, and
//! the `Kernels` methods compared the slice lengths with `assert!`
//! before any implementation walks them by raw pointer (each repeats the
//! comparison as a `debug_assert!` at entry).
//!
//! This tier holds the MAC and the integer kernels only: the
//! [`crate::simd`] table points its transform entries at the AVX2
//! implementation (a 512-point transform has too few independent
//! butterflies per pass for 8 lanes to pay for the wider in-register
//! leaf; `chain` `eval_s` is the judge of any 8-lane version).
//!
//! Tails: AVX-512's lane masks replace the scalar remainder loops —
//! a `(1 << rem) - 1` mask load/store touches exactly the in-bounds
//! elements (fault suppression is architectural), so short slices run
//! the same formula as full vectors. Integer kernels are bit-identical
//! to scalar; `mac` satisfies the torus-domain equality contract of
//! [`crate::simd`].

use crate::torus::Torus32;
use std::arch::x86_64::*;

#[inline]
fn tail8(rem: usize) -> __mmask8 {
    debug_assert!(rem < 8);
    (1u8 << rem).wrapping_sub(1)
}

#[inline]
fn tail16(rem: usize) -> __mmask16 {
    debug_assert!(rem < 16);
    (1u16 << rem).wrapping_sub(1)
}

pub fn mac(sr: &mut [f64], si: &mut [f64], ar: &[f64], ai: &[f64], br: &[f64], bi: &[f64]) {
    // SAFETY: only reachable through the dispatcher, which installs this
    // backend solely when avx512f + avx512dq were detected at runtime, and
    // through `Kernels::mac`, which checked all six lengths equal.
    unsafe { mac_impl(sr, si, ar, ai, br, bi) }
}

/// # Safety
///
/// The CPU must support avx512f and avx512dq, and all six slices must be
/// of one length.
#[target_feature(enable = "avx512f", enable = "avx512dq")]
unsafe fn mac_impl(sr: &mut [f64], si: &mut [f64], ar: &[f64], ai: &[f64], br: &[f64], bi: &[f64]) {
    let m = sr.len();
    debug_assert!([si.len(), ar.len(), ai.len(), br.len(), bi.len()] == [m; 5]);
    let mut j = 0;
    while j + 8 <= m {
        let var = _mm512_loadu_pd(ar.as_ptr().add(j));
        let vai = _mm512_loadu_pd(ai.as_ptr().add(j));
        let vbr = _mm512_loadu_pd(br.as_ptr().add(j));
        let vbi = _mm512_loadu_pd(bi.as_ptr().add(j));
        // s += (ar + i·ai)(br + i·bi):
        //   re += ar·br - ai·bi,  im += ar·bi + ai·br
        let pr = _mm512_fmsub_pd(var, vbr, _mm512_mul_pd(vai, vbi));
        let pi = _mm512_fmadd_pd(var, vbi, _mm512_mul_pd(vai, vbr));
        let vsr = _mm512_loadu_pd(sr.as_ptr().add(j));
        let vsi = _mm512_loadu_pd(si.as_ptr().add(j));
        _mm512_storeu_pd(sr.as_mut_ptr().add(j), _mm512_add_pd(vsr, pr));
        _mm512_storeu_pd(si.as_mut_ptr().add(j), _mm512_add_pd(vsi, pi));
        j += 8;
    }
    let rem = m - j;
    if rem > 0 {
        let k = tail8(rem);
        let var = _mm512_maskz_loadu_pd(k, ar.as_ptr().add(j));
        let vai = _mm512_maskz_loadu_pd(k, ai.as_ptr().add(j));
        let vbr = _mm512_maskz_loadu_pd(k, br.as_ptr().add(j));
        let vbi = _mm512_maskz_loadu_pd(k, bi.as_ptr().add(j));
        let pr = _mm512_fmsub_pd(var, vbr, _mm512_mul_pd(vai, vbi));
        let pi = _mm512_fmadd_pd(var, vbi, _mm512_mul_pd(vai, vbr));
        let vsr = _mm512_maskz_loadu_pd(k, sr.as_ptr().add(j));
        let vsi = _mm512_maskz_loadu_pd(k, si.as_ptr().add(j));
        _mm512_mask_storeu_pd(sr.as_mut_ptr().add(j), k, _mm512_add_pd(vsr, pr));
        _mm512_mask_storeu_pd(si.as_mut_ptr().add(j), k, _mm512_add_pd(vsi, pi));
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
    // SAFETY: the features were detected (see `mac`), and
    // `Kernels::extract_digits` checked `out.len() == c.len()`.
    unsafe { extract_digits_impl(c, offset, shift, mask, half_base, out) }
}

/// # Safety
///
/// As for `mac_impl`, and `out` must be as long as `c`.
#[target_feature(enable = "avx512f", enable = "avx512dq")]
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
    let cp = c.as_ptr() as *const i32;
    let voff = _mm512_set1_epi32(offset as i32);
    let vmask = _mm512_set1_epi32(mask as i32);
    let vhalf = _mm512_set1_epi32(half_base);
    let vshift = _mm_cvtsi32_si128(shift as i32);
    let mut j = 0;
    while j < n {
        let rem = n - j;
        let k = if rem >= 16 { 0xffff } else { tail16(rem) };
        let v = _mm512_maskz_loadu_epi32(k, cp.add(j));
        let t = _mm512_add_epi32(v, voff);
        let s = _mm512_srl_epi32(t, vshift);
        let d = _mm512_sub_epi32(_mm512_and_si512(s, vmask), vhalf);
        _mm512_mask_storeu_epi32(out.as_mut_ptr().add(j), k, d);
        j += 16;
    }
}

pub fn sub_assign(dst: &mut [Torus32], src: &[Torus32]) {
    // SAFETY: the features were detected (see `mac`), and
    // `Kernels::sub_assign` checked `src.len() == dst.len()`.
    unsafe { sub_assign_impl(dst, src) }
}

/// # Safety
///
/// As for `mac_impl`, and `src` must be as long as `dst`.
#[target_feature(enable = "avx512f", enable = "avx512dq")]
unsafe fn sub_assign_impl(dst: &mut [Torus32], src: &[Torus32]) {
    let n = dst.len();
    debug_assert_eq!(src.len(), n);
    let dp = dst.as_mut_ptr() as *mut i32;
    let sp = src.as_ptr() as *const i32;
    let mut j = 0;
    while j < n {
        let rem = n - j;
        let k = if rem >= 16 { 0xffff } else { tail16(rem) };
        let a = _mm512_maskz_loadu_epi32(k, dp.add(j));
        let b = _mm512_maskz_loadu_epi32(k, sp.add(j));
        _mm512_mask_storeu_epi32(dp.add(j), k, _mm512_sub_epi32(a, b));
        j += 16;
    }
}

pub fn sub_assign2(dst: &mut [Torus32], a: &[Torus32], b: &[Torus32]) {
    // SAFETY: the features were detected (see `mac`), and
    // `Kernels::sub_assign2` checked `a.len() == b.len() == dst.len()`.
    unsafe { sub_assign2_impl(dst, a, b) }
}

/// # Safety
///
/// As for `mac_impl`, and `a` and `b` must be as long as `dst`.
#[target_feature(enable = "avx512f", enable = "avx512dq")]
unsafe fn sub_assign2_impl(dst: &mut [Torus32], a: &[Torus32], b: &[Torus32]) {
    let n = dst.len();
    debug_assert!(a.len() == n && b.len() == n);
    let dp = dst.as_mut_ptr() as *mut i32;
    let ap = a.as_ptr() as *const i32;
    let bp = b.as_ptr() as *const i32;
    let mut j = 0;
    while j < n {
        let rem = n - j;
        let k = if rem >= 16 { 0xffff } else { tail16(rem) };
        let d = _mm512_maskz_loadu_epi32(k, dp.add(j));
        let va = _mm512_maskz_loadu_epi32(k, ap.add(j));
        let vb = _mm512_maskz_loadu_epi32(k, bp.add(j));
        let s = _mm512_add_epi32(va, vb);
        _mm512_mask_storeu_epi32(dp.add(j), k, _mm512_sub_epi32(d, s));
        j += 16;
    }
}

pub fn axpy(dst: &mut [Torus32], coeff: i32, src: &[Torus32]) {
    // SAFETY: the features were detected (see `mac`), and `Kernels::axpy`
    // checked `src.len() == dst.len()`.
    unsafe { axpy_impl(dst, coeff, src) }
}

/// # Safety
///
/// As for `mac_impl`, and `src` must be as long as `dst`.
#[target_feature(enable = "avx512f", enable = "avx512dq")]
unsafe fn axpy_impl(dst: &mut [Torus32], coeff: i32, src: &[Torus32]) {
    let n = dst.len();
    debug_assert_eq!(src.len(), n);
    // `_mm512_mullo_epi32` keeps the low 32 product bits — exactly the
    // scalar path's `u32::wrapping_mul`, so the kernel is bit-identical.
    let dp = dst.as_mut_ptr() as *mut i32;
    let sp = src.as_ptr() as *const i32;
    let vc = _mm512_set1_epi32(coeff);
    let mut j = 0;
    while j < n {
        let rem = n - j;
        let k = if rem >= 16 { 0xffff } else { tail16(rem) };
        let a = _mm512_maskz_loadu_epi32(k, dp.add(j));
        let b = _mm512_maskz_loadu_epi32(k, sp.add(j));
        let prod = _mm512_mullo_epi32(b, vc);
        _mm512_mask_storeu_epi32(dp.add(j), k, _mm512_add_epi32(a, prod));
        j += 16;
    }
}
