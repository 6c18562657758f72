//! LWE (Learning With Errors) samples over the torus — the ciphertext type
//! every PyTFHE gate consumes and produces.

use crate::align::AlignedBuf;
use crate::rng::SecureRng;
use crate::torus::Torus32;
use crate::trace::note_buffer_alloc;

/// An LWE secret key: a binary vector of length `n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LweKey {
    bits: Vec<i32>,
}

impl LweKey {
    /// Samples a uniform binary key of dimension `n`.
    pub fn generate(n: usize, rng: &mut SecureRng) -> Self {
        LweKey { bits: (0..n).map(|_| i32::from(rng.bit())).collect() }
    }

    /// Builds a key from explicit bits (used by sample extraction, where
    /// the extracted key is a reinterpretation of the TLWE key).
    pub fn from_bits(bits: Vec<i32>) -> Self {
        LweKey { bits }
    }

    /// Key dimension `n`.
    pub fn dim(&self) -> usize {
        self.bits.len()
    }

    /// The key bits.
    pub fn bits(&self) -> &[i32] {
        &self.bits
    }

    /// Encrypts `message` with fresh Gaussian noise of deviation `stdev`.
    pub fn encrypt(&self, message: Torus32, stdev: f64, rng: &mut SecureRng) -> LweCiphertext {
        let mut a = vec![Torus32::ZERO; self.dim() + 1];
        self.encrypt_into(message, stdev, rng, &mut a);
        let b = a.pop().expect("the body word");
        LweCiphertext { a, b }
    }

    /// Like [`LweKey::encrypt`], drawing from `rng` in the same order,
    /// into `row`: the `n` mask words, then the body — one row of a flat
    /// sample table such as the key-switching key's.
    ///
    /// # Panics
    ///
    /// Panics if `row` is not `n + 1` words long.
    pub(crate) fn encrypt_into(
        &self,
        message: Torus32,
        stdev: f64,
        rng: &mut SecureRng,
        row: &mut [Torus32],
    ) {
        assert_eq!(row.len(), self.dim() + 1, "an LWE row is the mask and the body");
        let (a, b) = row.split_at_mut(self.dim());
        a.iter_mut().for_each(|ai| *ai = Torus32::uniform(rng));
        b[0] = message.add_gaussian(stdev, rng);
        for (ai, &si) in a.iter().zip(&self.bits) {
            if si != 0 {
                b[0] += *ai;
            }
        }
    }

    /// The *phase* `b - <a, s>`: message plus noise.
    pub fn phase(&self, ct: &LweCiphertext) -> Torus32 {
        debug_assert_eq!(ct.dim(), self.dim());
        let mut phase = ct.b;
        for (ai, &si) in ct.a.iter().zip(&self.bits) {
            if si != 0 {
                phase -= *ai;
            }
        }
        phase
    }
}

/// An LWE ciphertext `(a, b)` with `b = <a, s> + m + e`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LweCiphertext {
    /// The mask vector.
    pub(crate) a: Vec<Torus32>,
    /// The body.
    pub(crate) b: Torus32,
}

impl LweCiphertext {
    /// Builds a ciphertext from its mask and body (deserialization).
    pub fn from_parts(a: Vec<Torus32>, b: Torus32) -> Self {
        note_buffer_alloc();
        LweCiphertext { a, b }
    }

    /// The "trivial" (noiseless, keyless) encryption of `message`:
    /// `a = 0, b = message`. Decryptable under any key; used for the
    /// plaintext offsets of gate evaluation and for constants.
    pub fn trivial(message: Torus32, dim: usize) -> Self {
        note_buffer_alloc();
        LweCiphertext { a: vec![Torus32::ZERO; dim], b: message }
    }

    /// Overwrites `self` with the trivial encryption of `message` at
    /// dimension `dim`, reusing the mask allocation when it already has
    /// the right capacity.
    pub fn assign_trivial(&mut self, message: Torus32, dim: usize) {
        self.a.resize(dim, Torus32::ZERO);
        self.a.fill(Torus32::ZERO);
        self.b = message;
    }

    /// Overwrites `self` with a copy of `other`, reusing the mask
    /// allocation (unlike `clone`, which always allocates).
    pub fn copy_from(&mut self, other: &LweCiphertext) {
        self.a.clone_from(&other.a);
        self.b = other.b;
    }

    /// Ciphertext dimension `n`.
    pub fn dim(&self) -> usize {
        self.a.len()
    }

    /// The mask coefficients.
    pub fn mask(&self) -> &[Torus32] {
        &self.a
    }

    /// Mutable mask coefficients.
    pub fn mask_mut(&mut self) -> &mut [Torus32] {
        &mut self.a
    }

    /// The body coefficient.
    pub fn body(&self) -> Torus32 {
        self.b
    }

    /// Homomorphic addition: `self += other` (noise adds too).
    pub fn add_assign(&mut self, other: &LweCiphertext) {
        debug_assert_eq!(self.dim(), other.dim());
        for (x, y) in self.a.iter_mut().zip(&other.a) {
            *x += *y;
        }
        self.b += other.b;
    }

    /// Homomorphic subtraction: `self -= other`. The mask loop is the
    /// inner loop of key switching (`n` subtractions per digit), so it
    /// runs through the dispatched [`crate::simd`] kernel.
    pub fn sub_assign(&mut self, other: &LweCiphertext) {
        debug_assert_eq!(self.dim(), other.dim());
        crate::simd::kernels().sub_assign(&mut self.a, &other.a);
        self.b -= other.b;
    }

    /// Homomorphic negation.
    pub fn negate(&mut self) {
        for x in &mut self.a {
            *x = -*x;
        }
        self.b = -self.b;
    }

    /// Homomorphic scaling by a small integer.
    pub fn scale(&mut self, factor: i32) {
        for x in &mut self.a {
            *x = factor * *x;
        }
        self.b = factor * self.b;
    }
}

/// Struct-of-arrays storage for a batch of same-dimension LWE samples:
/// all masks in one contiguous buffer, all bodies in another. The
/// staged-batch bootstrap kernel of [`crate::ServerKey`] stages its linear
/// combinations here so the bootstrap loop streams over dense slots
/// instead of pointer-chasing individual ciphertexts.
#[derive(Debug)]
pub struct LweSoa {
    dim: usize,
    /// 64-byte-aligned so full-width vector loads over slot masks never
    /// split a cache line (see [`crate::align::SIMD_ALIGN`]).
    masks: AlignedBuf<Torus32>,
    bodies: Vec<Torus32>,
}

impl LweSoa {
    /// An empty batch of dimension-`dim` slots.
    pub fn new(dim: usize) -> Self {
        LweSoa { dim, masks: AlignedBuf::new(), bodies: Vec::new() }
    }

    /// Resizes to `slots` zeroed slots, reusing capacity from previous
    /// batches (allocation-free once warmed up to the largest batch size).
    pub fn reset(&mut self, slots: usize) {
        self.masks.resize_zeroed(slots * self.dim);
        self.masks.fill_zero();
        debug_assert!(self.masks.is_aligned());
        self.bodies.clear();
        self.bodies.resize(slots, Torus32::ZERO);
    }

    /// Sets slot `slot`'s body (the plaintext gate offset).
    pub fn set_body(&mut self, slot: usize, body: Torus32) {
        self.bodies[slot] = body;
    }

    /// Accumulates `coeff * ct` into slot `slot`. The mask loop runs
    /// through the dispatched [`crate::simd`] `axpy` kernel (it is the
    /// staging pass of every bootstrap).
    ///
    /// # Panics
    ///
    /// Panics if `ct` is not of the slot dimension: this is where every
    /// ciphertext enters a bootstrap, so a sample of the wrong size —
    /// one a caller accepted from outside without checking it against
    /// the key — stops here, whatever the layers above let through.
    pub fn axpy(&mut self, slot: usize, coeff: i32, ct: &LweCiphertext) {
        assert_eq!(ct.dim(), self.dim, "input of the wrong LWE dimension");
        let mask = &mut self.masks[slot * self.dim..(slot + 1) * self.dim];
        crate::simd::kernels().axpy(mask, coeff, ct.mask());
        self.bodies[slot] += coeff * ct.body();
    }

    /// Slot `slot` as a `(mask, body)` view.
    pub fn slot(&self, slot: usize) -> (&[Torus32], Torus32) {
        (&self.masks[slot * self.dim..(slot + 1) * self.dim], self.bodies[slot])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STDEV: f64 = 1e-7;

    #[test]
    fn encrypt_decrypt_round_trip() {
        let mut rng = SecureRng::seed_from_u64(20);
        let key = LweKey::generate(300, &mut rng);
        for frac in [-3, -1, 0, 1, 3] {
            let m = Torus32::from_fraction(frac, 3);
            let ct = key.encrypt(m, STDEV, &mut rng);
            let phase = key.phase(&ct);
            assert!((phase - m).to_f64().abs() < 1e-4, "frac={frac}");
        }
    }

    #[test]
    fn trivial_has_exact_phase() {
        let mut rng = SecureRng::seed_from_u64(21);
        let key = LweKey::generate(100, &mut rng);
        let m = Torus32::from_fraction(1, 3);
        let ct = LweCiphertext::trivial(m, key.dim());
        assert_eq!(key.phase(&ct), m);
    }

    #[test]
    fn homomorphic_addition() {
        let mut rng = SecureRng::seed_from_u64(22);
        let key = LweKey::generate(200, &mut rng);
        let m1 = Torus32::from_fraction(1, 3);
        let m2 = Torus32::from_fraction(1, 3);
        let c1 = key.encrypt(m1, STDEV, &mut rng);
        let c2 = key.encrypt(m2, STDEV, &mut rng);
        let mut sum = c1.clone();
        sum.add_assign(&c2);
        let want = m1 + m2;
        assert!((key.phase(&sum) - want).to_f64().abs() < 1e-4);
        sum.sub_assign(&c2);
        assert!((key.phase(&sum) - m1).to_f64().abs() < 1e-4);
    }

    #[test]
    fn homomorphic_negate_and_scale() {
        let mut rng = SecureRng::seed_from_u64(23);
        let key = LweKey::generate(200, &mut rng);
        let m = Torus32::from_fraction(1, 4);
        let mut ct = key.encrypt(m, STDEV, &mut rng);
        ct.negate();
        assert!((key.phase(&ct) + m).to_f64().abs() < 1e-4);
        ct.scale(2);
        assert!((key.phase(&ct) + m + m).to_f64().abs() < 1e-4);
    }

    #[test]
    fn ciphertexts_hide_under_different_randomness() {
        let mut rng = SecureRng::seed_from_u64(24);
        let key = LweKey::generate(50, &mut rng);
        let m = Torus32::from_fraction(1, 3);
        let c1 = key.encrypt(m, STDEV, &mut rng);
        let c2 = key.encrypt(m, STDEV, &mut rng);
        assert_ne!(c1, c2, "same message must encrypt to different ciphertexts");
    }
}
