//! NEON kernels: 2×`f64` / 4×`u32` lanes (`std::arch::aarch64`).
//!
//! NEON (Advanced SIMD) is part of the baseline AArch64 ISA, so there
//! is no runtime feature probe beyond the target architecture itself;
//! the `#[target_feature(enable = "neon")]` attributes keep the
//! compiler honest about which instructions each function may use.
//!
//! This tier holds the MAC and the integer kernels only: the
//! [`crate::simd`] table points its transform entries at the portable
//! implementation (no AArch64 toolchain was at hand to check a NEON
//! version of the radix-4 transform). `mac` uses fused multiply-add
//! (`vfmaq_f64` / `vfmsq_f64`) and therefore matches scalar only in the
//! torus domain after rounding; integer kernels are bit-identical.

use crate::torus::Torus32;
use std::arch::aarch64::*;

pub fn mac(sr: &mut [f64], si: &mut [f64], ar: &[f64], ai: &[f64], br: &[f64], bi: &[f64]) {
    // SAFETY: NEON is baseline on every AArch64 CPU this cfg compiles for.
    unsafe { mac_impl(sr, si, ar, ai, br, bi) }
}

#[target_feature(enable = "neon")]
unsafe fn mac_impl(sr: &mut [f64], si: &mut [f64], ar: &[f64], ai: &[f64], br: &[f64], bi: &[f64]) {
    let m = sr.len();
    let mut j = 0;
    while j + 2 <= m {
        let var = vld1q_f64(ar.as_ptr().add(j));
        let vai = vld1q_f64(ai.as_ptr().add(j));
        let vbr = vld1q_f64(br.as_ptr().add(j));
        let vbi = vld1q_f64(bi.as_ptr().add(j));
        // re += ar·br - ai·bi,  im += ar·bi + ai·br
        let pr = vfmsq_f64(vmulq_f64(var, vbr), vai, vbi);
        let pi = vfmaq_f64(vmulq_f64(var, vbi), vai, vbr);
        vst1q_f64(sr.as_mut_ptr().add(j), vaddq_f64(vld1q_f64(sr.as_ptr().add(j)), pr));
        vst1q_f64(si.as_mut_ptr().add(j), vaddq_f64(vld1q_f64(si.as_ptr().add(j)), pi));
        j += 2;
    }
    while j < m {
        sr[j] += ar[j] * br[j] - ai[j] * bi[j];
        si[j] += ar[j] * bi[j] + ai[j] * br[j];
        j += 1;
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
    // SAFETY: see `mac`.
    unsafe { extract_digits_impl(c, offset, shift, mask, half_base, out) }
}

#[target_feature(enable = "neon")]
unsafe fn extract_digits_impl(
    c: &[Torus32],
    offset: u32,
    shift: u32,
    mask: u32,
    half_base: i32,
    out: &mut [i32],
) {
    let n = c.len();
    // Torus32 is #[repr(transparent)] over u32 (see `crate::torus`).
    let cp = c.as_ptr() as *const u32;
    let voff = vdupq_n_u32(offset);
    let vmask = vdupq_n_u32(mask);
    let vhalf = vdupq_n_s32(half_base);
    // vshlq by a negative count is a logical right shift.
    let vshift = vdupq_n_s32(-(shift as i32));
    let mut j = 0;
    while j + 4 <= n {
        let v = vld1q_u32(cp.add(j));
        let t = vaddq_u32(v, voff);
        let s = vandq_u32(vshlq_u32(t, vshift), vmask);
        let d = vsubq_s32(vreinterpretq_s32_u32(s), vhalf);
        vst1q_s32(out.as_mut_ptr().add(j), d);
        j += 4;
    }
    while j < n {
        out[j] = ((c[j].0.wrapping_add(offset) >> shift) & mask) as i32 - half_base;
        j += 1;
    }
}

pub fn sub_assign(dst: &mut [Torus32], src: &[Torus32]) {
    // SAFETY: see `mac`.
    unsafe { sub_assign_impl(dst, src) }
}

#[target_feature(enable = "neon")]
unsafe fn sub_assign_impl(dst: &mut [Torus32], src: &[Torus32]) {
    let n = dst.len();
    let dp = dst.as_mut_ptr() as *mut u32;
    let sp = src.as_ptr() as *const u32;
    let mut j = 0;
    while j + 4 <= n {
        let a = vld1q_u32(dp.add(j));
        let b = vld1q_u32(sp.add(j));
        vst1q_u32(dp.add(j), vsubq_u32(a, b));
        j += 4;
    }
    while j < n {
        dst[j] -= src[j];
        j += 1;
    }
}

pub fn axpy(dst: &mut [Torus32], coeff: i32, src: &[Torus32]) {
    // SAFETY: see `mac`.
    unsafe { axpy_impl(dst, coeff, src) }
}

#[target_feature(enable = "neon")]
unsafe fn axpy_impl(dst: &mut [Torus32], coeff: i32, src: &[Torus32]) {
    let n = dst.len();
    // `vmlaq_s32` keeps the low 32 product bits — exactly the scalar
    // path's `u32::wrapping_mul`, so the kernel is bit-identical.
    let dp = dst.as_mut_ptr() as *mut i32;
    let sp = src.as_ptr() as *const i32;
    let vc = vdupq_n_s32(coeff);
    let mut j = 0;
    while j + 4 <= n {
        let a = vld1q_s32(dp.add(j));
        let b = vld1q_s32(sp.add(j));
        vst1q_s32(dp.add(j), vmlaq_s32(a, b, vc));
        j += 4;
    }
    while j < n {
        dst[j] += coeff * src[j];
        j += 1;
    }
}

pub fn sub_assign2(dst: &mut [Torus32], a: &[Torus32], b: &[Torus32]) {
    // SAFETY: see `mac`.
    unsafe { sub_assign2_impl(dst, a, b) }
}

#[target_feature(enable = "neon")]
unsafe fn sub_assign2_impl(dst: &mut [Torus32], a: &[Torus32], b: &[Torus32]) {
    let n = dst.len();
    let dp = dst.as_mut_ptr() as *mut u32;
    let ap = a.as_ptr() as *const u32;
    let bp = b.as_ptr() as *const u32;
    let mut j = 0;
    while j + 4 <= n {
        let d = vld1q_u32(dp.add(j));
        let va = vld1q_u32(ap.add(j));
        let vb = vld1q_u32(bp.add(j));
        vst1q_u32(dp.add(j), vsubq_u32(d, vaddq_u32(va, vb)));
        j += 4;
    }
    while j < n {
        dst[j] -= a[j] + b[j];
        j += 1;
    }
}
