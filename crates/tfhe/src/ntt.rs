//! Prototype integer NTT transform backend.
//!
//! The production transform is the folded negacyclic FFT ([`crate::fft`]):
//! `f64` butterflies whose results are rounded back onto the torus. This
//! module provides an alternative *exact* transform over the prime field
//! `Z_q` with `q =` [`NTT_PRIME`]: negative-wrapped (negacyclic)
//! number-theoretic transforms with the 2N-th root of unity `ψ` folded
//! into the butterfly twiddles (the Longa–Nährig formulation), so a
//! length-`N` NTT computes products in `Z_q[X]/(X^N + 1)` directly.
//!
//! # Modulus choice
//!
//! `q = 0x2000_0000_0001_a001 = 2305843009213800449 ≈ 2^61` with
//! `q ≡ 1 (mod 2^13)` and primitive root `g = 3`: large enough that every
//! external-product coefficient — bounded by
//! `(k+1) · l · N · 2^{base_log−1} · 2^32 ≲ 2^53` for every parameter set
//! in [`crate::Params`] — is computed *exactly* as an integer (no wrap
//! mod `q`), yet below `2^62` so lazy-reduction variants keep headroom.
//! The exact integer result reduced mod `2^32` is the torus coefficient,
//! which makes the NTT external product bit-identical to the schoolbook
//! reference ([`crate::reference`]); the FFT path agrees up to its
//! rounding contract (identical decrypted bits, torus words within the
//! crypto noise budget).
//!
//! # Selection
//!
//! `PYTFHE_TRANSFORM=fft|ntt` picks the backend at startup (read once);
//! [`set_active_transform`] overrides it at runtime for tests and
//! benches. Unknown values fall back to the FFT — selection never
//! panics. Batched callers need nothing special: the one lane-outer
//! blind-rotation loop of [`crate::bootstrap`] calls
//! [`NttKey::rotate_cmux_assign`] per lane.

use std::sync::atomic::{AtomicU8, Ordering};

use crate::fft::FftPlan;
use crate::poly::{IntPoly, TorusPoly};
use crate::tgsw::{Gadget, TgswFft};
use crate::tlwe::TlweCiphertext;
use crate::torus::Torus32;
use crate::trace::note_buffer_alloc;

/// The NTT modulus: a 62-bit prime with `q ≡ 1 (mod 2^13)` (so negacyclic
/// transforms exist for every power-of-two `N ≤ 4096`).
pub const NTT_PRIME: u64 = 0x2000_0000_0001_a001;

/// A primitive root of `Z_q^*` for [`NTT_PRIME`].
pub const NTT_GENERATOR: u64 = 3;

/// The polynomial-product transform backend in use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transform {
    /// Folded negacyclic `f64` FFT (default; has SIMD kernels).
    Fft,
    /// Exact integer NTT over `Z_q` (prototype; single-poly only).
    Ntt,
}

impl Transform {
    /// Lower-case name, matching the `PYTFHE_TRANSFORM` values.
    pub fn name(self) -> &'static str {
        match self {
            Transform::Fft => "fft",
            Transform::Ntt => "ntt",
        }
    }
}

impl std::fmt::Display for Transform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

const TRANSFORM_UNSET: u8 = u8::MAX;
static ACTIVE_TRANSFORM: AtomicU8 = AtomicU8::new(TRANSFORM_UNSET);

fn transform_from_env() -> Transform {
    match std::env::var("PYTFHE_TRANSFORM") {
        Ok(v) if v.eq_ignore_ascii_case("ntt") => Transform::Ntt,
        // "fft", unset, or anything unrecognized: the FFT always works.
        _ => Transform::Fft,
    }
}

/// The transform backend in effect, resolving `PYTFHE_TRANSFORM` on
/// first use. Unknown values degrade to [`Transform::Fft`].
pub fn active_transform() -> Transform {
    match ACTIVE_TRANSFORM.load(Ordering::Relaxed) {
        0 => Transform::Fft,
        1 => Transform::Ntt,
        _ => {
            let t = transform_from_env();
            set_active_transform(t);
            t
        }
    }
}

/// Overrides the process-wide transform selection (tests, benches, and
/// the bench harness' per-mode sweeps).
pub fn set_active_transform(t: Transform) {
    let id = match t {
        Transform::Fft => 0,
        Transform::Ntt => 1,
    };
    ACTIVE_TRANSFORM.store(id, Ordering::Relaxed);
}

/// `true` when the NTT backend is selected.
pub fn ntt_selected() -> bool {
    active_transform() == Transform::Ntt
}

// ---------------------------------------------------------------------------
// Field arithmetic mod NTT_PRIME.

#[inline(always)]
fn fadd(a: u64, b: u64) -> u64 {
    let s = a + b; // both < q < 2^62: no u64 overflow
    if s >= NTT_PRIME {
        s - NTT_PRIME
    } else {
        s
    }
}

#[inline(always)]
fn fsub(a: u64, b: u64) -> u64 {
    if a >= b {
        a - b
    } else {
        a + NTT_PRIME - b
    }
}

#[inline(always)]
fn fmul(a: u64, b: u64) -> u64 {
    ((a as u128 * b as u128) % NTT_PRIME as u128) as u64
}

fn fpow(mut base: u64, mut exp: u64) -> u64 {
    let mut acc = 1u64;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = fmul(acc, base);
        }
        base = fmul(base, base);
        exp >>= 1;
    }
    acc
}

#[inline(always)]
fn finv(a: u64) -> u64 {
    fpow(a, NTT_PRIME - 2)
}

/// Lifts a signed gadget digit into the field.
#[inline(always)]
fn lift_int(x: i32) -> u64 {
    if x < 0 {
        NTT_PRIME - (x.unsigned_abs() as u64)
    } else {
        x as u64
    }
}

/// Maps an exact field value back to the torus: the true integer result
/// `v` satisfies `|v| < q/2`, so its representative in `(−q/2, q/2]`
/// reduced mod `2^32` is the torus word.
#[inline(always)]
fn unlift_torus(r: u64) -> Torus32 {
    if r > NTT_PRIME / 2 {
        Torus32(0u32.wrapping_sub((NTT_PRIME - r) as u32))
    } else {
        Torus32(r as u32)
    }
}

// ---------------------------------------------------------------------------
// The negacyclic NTT plan.

/// Precomputed twiddles for negacyclic NTTs of one power-of-two size.
#[derive(Debug, Clone)]
pub struct NttPlan {
    n: usize,
    /// `ψ^bitrev(i)` — forward butterflies consume this in order.
    psi_rev: Vec<u64>,
    /// `ψ^{−bitrev(i)}` for the inverse.
    inv_psi_rev: Vec<u64>,
    /// `n^{−1} mod q`, applied in the inverse's final scaling pass.
    n_inv: u64,
}

impl NttPlan {
    /// Builds the plan for polynomials of degree bound `n` (a power of
    /// two, at most 4096 for this modulus).
    pub fn new(n: usize) -> Self {
        assert!(n.is_power_of_two() && n >= 2, "NTT size must be a power of two, got {n}");
        assert!(
            (NTT_PRIME - 1).is_multiple_of(2 * n as u64),
            "NTT size {n} unsupported by modulus (needs 2n | q-1)"
        );
        let log_n = n.trailing_zeros();
        let psi = fpow(NTT_GENERATOR, (NTT_PRIME - 1) / (2 * n as u64));
        let inv_psi = finv(psi);
        debug_assert_eq!(fpow(psi, n as u64), NTT_PRIME - 1, "psi must be a 2n-th root of -1");
        let mut psi_rev = vec![0u64; n];
        let mut inv_psi_rev = vec![0u64; n];
        note_buffer_alloc();
        let mut p = 1u64;
        let mut ip = 1u64;
        for i in 0..n {
            let r = (i as u32).reverse_bits() >> (32 - log_n);
            psi_rev[r as usize] = p;
            inv_psi_rev[r as usize] = ip;
            p = fmul(p, psi);
            ip = fmul(ip, inv_psi);
        }
        NttPlan { n, psi_rev, inv_psi_rev, n_inv: finv(n as u64) }
    }

    /// Transform size.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` if the plan is over zero-length polynomials (never, but
    /// keeps the `len`/`is_empty` pairing clippy expects).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// In-place forward negacyclic NTT (Cooley–Tukey with the `ψ^i`
    /// pre-twist folded into the twiddles). Output is in bit-reversed
    /// order — pointwise products and the matching [`NttPlan::inverse`]
    /// never observe the ordering.
    pub fn forward(&self, a: &mut [u64]) {
        debug_assert_eq!(a.len(), self.n);
        let mut t = self.n;
        let mut m = 1;
        while m < self.n {
            t /= 2;
            for i in 0..m {
                let s = self.psi_rev[m + i];
                let j1 = 2 * i * t;
                for j in j1..j1 + t {
                    let u = a[j];
                    let v = fmul(a[j + t], s);
                    a[j] = fadd(u, v);
                    a[j + t] = fsub(u, v);
                }
            }
            m *= 2;
        }
    }

    /// In-place inverse negacyclic NTT (Gentleman–Sande, `ψ^{−i}`
    /// post-twist folded in, final scale by `n^{−1}`).
    pub fn inverse(&self, a: &mut [u64]) {
        debug_assert_eq!(a.len(), self.n);
        let mut t = 1;
        let mut m = self.n;
        while m > 1 {
            let h = m / 2;
            let mut j1 = 0;
            for i in 0..h {
                let s = self.inv_psi_rev[h + i];
                for j in j1..j1 + t {
                    let u = a[j];
                    let v = a[j + t];
                    a[j] = fadd(u, v);
                    a[j + t] = fmul(fsub(u, v), s);
                }
                j1 += 2 * t;
            }
            t *= 2;
            m = h;
        }
        for x in a.iter_mut() {
            *x = fmul(*x, self.n_inv);
        }
    }

    /// Forward-transforms a signed digit polynomial into `out`.
    pub fn forward_int_into(&self, p: &IntPoly, out: &mut [u64]) {
        debug_assert_eq!(out.len(), self.n);
        for (o, &c) in out.iter_mut().zip(p.coeffs()) {
            *o = lift_int(c);
        }
        self.forward(out);
    }

    /// Forward-transforms a torus polynomial (raw `u32` words lifted as
    /// integers) into `out`.
    pub fn forward_torus_into(&self, p: &TorusPoly, out: &mut [u64]) {
        debug_assert_eq!(out.len(), self.n);
        for (o, &c) in out.iter_mut().zip(p.coeffs()) {
            *o = c.0 as u64;
        }
        self.forward(out);
    }

    /// Inverse-transforms `a` (destructively) and reduces the exact
    /// integer coefficients onto the torus.
    pub fn inverse_torus_into(&self, a: &mut [u64], out: &mut TorusPoly) {
        self.inverse(a);
        for (o, &r) in out.coeffs_mut().iter_mut().zip(a.iter()) {
            *o = unlift_torus(r);
        }
    }
}

// ---------------------------------------------------------------------------
// The NTT-domain bootstrapping key and its external product.

/// One TGSW ciphertext with every row polynomial held in the NTT domain
/// (`rows[r][col]`, mirroring [`TgswFft`]).
#[derive(Debug, Clone)]
pub struct TgswNtt {
    rows: Vec<Vec<Vec<u64>>>,
}

/// The NTT mirror of a bootstrapping key: derived on first use from the
/// FFT-domain key (the wire format stays FFT-only), shared by every
/// worker thread.
#[derive(Debug, Clone)]
pub struct NttKey {
    plan: NttPlan,
    tgsw: Vec<TgswNtt>,
    gadget: Gadget,
}

/// Scratch for the NTT CMUX: gadget digits, one forward buffer, the
/// `k+1` accumulator columns, and the rotate/product ciphertexts.
#[derive(Debug)]
pub struct NttCmuxScratch {
    digits: Vec<IntPoly>,
    fwd: Vec<u64>,
    acc: Vec<Vec<u64>>,
    diff: TlweCiphertext,
    ext: TlweCiphertext,
}

impl NttCmuxScratch {
    /// Allocates scratch for polynomials of size `n`, GLWE dimension
    /// `k`, and the given gadget.
    pub fn new(n: usize, k: usize, gadget: Gadget) -> Self {
        note_buffer_alloc();
        NttCmuxScratch {
            digits: (0..gadget.levels).map(|_| IntPoly::zero(n)).collect(),
            fwd: vec![0u64; n],
            acc: (0..=k).map(|_| vec![0u64; n]).collect(),
            diff: TlweCiphertext::trivial(TorusPoly::zero(n), k),
            ext: TlweCiphertext::trivial(TorusPoly::zero(n), k),
        }
    }
}

impl NttKey {
    /// Derives the NTT-domain key from the FFT-domain key: each row
    /// spectrum is inverse-transformed back to its exact torus
    /// polynomial (the float round trip is exact by the transform's
    /// rounding contract) and re-transformed over `Z_q`.
    pub fn from_fft(tgsw: &[TgswFft], fft_plan: &FftPlan, n: usize) -> Self {
        let plan = NttPlan::new(n);
        let gadget = tgsw.first().map(|t| t.gadget()).unwrap_or(Gadget { levels: 1, base_log: 1 });
        let ntt_rows: Vec<TgswNtt> = tgsw
            .iter()
            .map(|t| {
                let rows = t
                    .rows_raw()
                    .iter()
                    .map(|row| {
                        row.iter()
                            .map(|freq| {
                                let torus = fft_plan.inverse_torus(freq);
                                let mut out = vec![0u64; n];
                                plan.forward_torus_into(&torus, &mut out);
                                out
                            })
                            .collect()
                    })
                    .collect();
                TgswNtt { rows }
            })
            .collect();
        NttKey { plan, tgsw: ntt_rows, gadget }
    }

    /// The transform plan (size `N`).
    pub fn plan(&self) -> &NttPlan {
        &self.plan
    }

    /// Allocates the per-worker CMUX scratch matching this key.
    pub fn cmux_scratch(&self, k: usize) -> NttCmuxScratch {
        NttCmuxScratch::new(self.plan.n, k, self.gadget)
    }

    /// The exact-integer external product `out = bk_row ⊡ input` (same
    /// recipe as [`TgswFft::external_product_into`], in `Z_q`).
    fn external_product_into(
        &self,
        idx: usize,
        input: &TlweCiphertext,
        digits: &mut [IntPoly],
        fwd: &mut [u64],
        cols: &mut [Vec<u64>],
        out: &mut TlweCiphertext,
    ) {
        let k = input.a.len();
        let l = self.gadget.levels;
        let rows = &self.tgsw[idx].rows;
        for acc in cols[..=k].iter_mut() {
            acc.fill(0);
        }
        for u in 0..=k {
            let poly = if u < k { &input.a[u] } else { &input.b };
            self.gadget.decompose_poly_into(poly, digits);
            for (level, digit) in digits.iter().enumerate() {
                self.plan.forward_int_into(digit, fwd);
                let row = &rows[u * l + level];
                for (acc, row_col) in cols[..=k].iter_mut().zip(row) {
                    for ((a, &d), &r) in acc.iter_mut().zip(fwd.iter()).zip(row_col) {
                        *a = fadd(*a, fmul(d, r));
                    }
                }
            }
        }
        for (col, acc) in cols[..=k].iter_mut().enumerate() {
            let dst = if col < k { &mut out.a[col] } else { &mut out.b };
            self.plan.inverse_torus_into(acc, dst);
        }
    }

    /// One blind-rotation CMUX step through the NTT external product:
    /// `acc += bk[idx] ⊡ (X^bara · acc − acc)`.
    pub fn rotate_cmux_assign(
        &self,
        idx: usize,
        acc: &mut TlweCiphertext,
        bara: usize,
        s: &mut NttCmuxScratch,
    ) {
        let NttCmuxScratch { digits, fwd, acc: cols, diff, ext } = s;
        acc.rotate_into(bara, diff);
        diff.sub_assign(acc);
        self.external_product_into(idx, diff, digits, fwd, cols, ext);
        acc.add_assign(ext);
    }
}

/// Guards the process-global transform selection in multi-threaded test
/// runs: tests that *flip* the transform take the write lock, tests that
/// assert cross-call bit-exactness of bootstrap outputs take the read
/// lock (a mid-test flip would change their results legitimately).
#[cfg(test)]
pub(crate) fn transform_guard() -> &'static std::sync::RwLock<()> {
    static LOCK: std::sync::RwLock<()> = std::sync::RwLock::new(());
    &LOCK
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SecureRng;

    #[test]
    fn modulus_is_prime_and_generator_is_primitive() {
        // Deterministic Miller–Rabin for 64-bit integers.
        fn is_prime(n: u64) -> bool {
            if n < 2 {
                return false;
            }
            for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
                if n == p {
                    return true;
                }
                if n.is_multiple_of(p) {
                    return false;
                }
            }
            let d = n - 1;
            let r = d.trailing_zeros();
            let d = d >> r;
            'witness: for a in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
                let mut x = fpow(a % n, d);
                if x == 1 || x == n - 1 {
                    continue;
                }
                for _ in 0..r - 1 {
                    x = fmul(x, x);
                    if x == n - 1 {
                        continue 'witness;
                    }
                }
                return false;
            }
            true
        }
        assert!(is_prime(NTT_PRIME));
        assert_eq!((NTT_PRIME - 1) % (1 << 13), 0, "q ≡ 1 mod 2^13");
        // g is primitive iff g^((q-1)/p) != 1 for every prime p | q-1.
        // q - 1 = 2^13 · 7 · 4139 · 9715078753.
        let factors: [u64; 4] = [2, 7, 4139, 9715078753];
        let mut rem = NTT_PRIME - 1;
        for &f in &factors {
            while rem.is_multiple_of(f) {
                rem /= f;
            }
        }
        assert_eq!(rem, 1, "factorization of q-1 must be complete");
        for &f in &factors {
            assert_ne!(fpow(NTT_GENERATOR, (NTT_PRIME - 1) / f), 1, "g^((q-1)/{f}) must not be 1");
        }
    }

    #[test]
    fn round_trip_is_exact() {
        let mut rng = SecureRng::seed_from_u64(91);
        for n in [8usize, 64, 1024] {
            let plan = NttPlan::new(n);
            let p = TorusPoly::uniform(n, &mut rng);
            let mut a = vec![0u64; n];
            plan.forward_torus_into(&p, &mut a);
            let mut back = TorusPoly::zero(n);
            plan.inverse_torus_into(&mut a, &mut back);
            assert_eq!(back, p, "n={n}");
        }
    }

    #[test]
    fn negacyclic_product_matches_schoolbook() {
        use crate::poly::naive_negacyclic_mul;
        let mut rng = SecureRng::seed_from_u64(92);
        for n in [8usize, 64, 256] {
            let plan = NttPlan::new(n);
            // Signed digits in [-64, 64), the gadget-decomposition range.
            let digit = IntPoly::from_coeffs(
                TorusPoly::uniform(n, &mut rng)
                    .coeffs()
                    .iter()
                    .map(|c| (c.0 % 128) as i32 - 64)
                    .collect(),
            );
            let torus = TorusPoly::uniform(n, &mut rng);
            let want = naive_negacyclic_mul(&digit, &torus);
            let mut fa = vec![0u64; n];
            let mut fb = vec![0u64; n];
            plan.forward_int_into(&digit, &mut fa);
            plan.forward_torus_into(&torus, &mut fb);
            for (a, &b) in fa.iter_mut().zip(&fb) {
                *a = fmul(*a, b);
            }
            let mut got = TorusPoly::zero(n);
            plan.inverse_torus_into(&mut fa, &mut got);
            assert_eq!(got, want, "n={n}");
        }
    }

    #[test]
    fn unknown_transform_env_degrades_to_fft() {
        let _g = transform_guard().write().unwrap();
        assert_eq!(
            match "sideways" {
                v if v.eq_ignore_ascii_case("ntt") => Transform::Ntt,
                _ => Transform::Fft,
            },
            Transform::Fft
        );
        // And the setter/getter round-trips both values.
        let restore = active_transform();
        set_active_transform(Transform::Ntt);
        assert!(ntt_selected());
        set_active_transform(Transform::Fft);
        assert!(!ntt_selected());
        set_active_transform(restore);
    }
}
