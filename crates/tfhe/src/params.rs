//! TFHE parameter sets.

use std::fmt;

/// Coarse security classification of a parameter set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SecurityLevel {
    /// ~128-bit security: the paper's setting (`λ = 128`, Section II-D).
    Bits128,
    /// **No security whatsoever** — a miniature parameter set exercising
    /// the identical algorithms for fast tests.
    Testing,
}

impl fmt::Display for SecurityLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SecurityLevel::Bits128 => write!(f, "128-bit"),
            SecurityLevel::Testing => write!(f, "testing (insecure)"),
        }
    }
}

/// The complete parameter set of the gate-bootstrapping TFHE instance.
///
/// Field names follow the TFHE paper: `n` is the LWE dimension, `N` the
/// ring dimension, `k` the GLWE dimension, `(l, Bg)` the gadget
/// decomposition of the bootstrapping key, and `(t, base)` the key-switch
/// decomposition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// LWE dimension `n` (the dimension gate inputs/outputs live in).
    pub lwe_dim: usize,
    /// Standard deviation of fresh LWE noise (also the key-switch output
    /// noise target).
    pub lwe_noise_stdev: f64,
    /// Ring dimension `N` (power of two).
    pub poly_size: usize,
    /// GLWE dimension `k`.
    pub glwe_dim: usize,
    /// Standard deviation of bootstrapping-key noise.
    pub glwe_noise_stdev: f64,
    /// Gadget decomposition levels `l` of the bootstrapping key.
    pub decomp_levels: usize,
    /// Log2 of the gadget decomposition base (`Bg = 2^decomp_base_log`).
    pub decomp_base_log: usize,
    /// Key-switch decomposition length `t`.
    pub ks_levels: usize,
    /// Log2 of the key-switch base.
    pub ks_base_log: usize,
    /// Security classification.
    pub security: SecurityLevel,
}

impl Params {
    /// The default 128-bit gate-bootstrapping parameters of the TFHE
    /// library, as used by the paper (Section II-D: "we use the default
    /// parameter set as described in Section VIII of the TFHE paper").
    pub fn default_128() -> Self {
        Params {
            lwe_dim: 630,
            lwe_noise_stdev: 2.44e-5,
            poly_size: 1024,
            glwe_dim: 1,
            glwe_noise_stdev: 7.18e-9,
            decomp_levels: 3,
            decomp_base_log: 7,
            ks_levels: 8,
            ks_base_log: 2,
            security: SecurityLevel::Bits128,
        }
    }

    /// A miniature, **insecure** parameter set for tests: same algorithms,
    /// ~100× faster. Noise magnitudes are scaled so that decryption of
    /// bootstrapped gates is still overwhelmingly reliable.
    pub fn testing() -> Self {
        Params {
            lwe_dim: 64,
            lwe_noise_stdev: 3.0e-6,
            poly_size: 128,
            glwe_dim: 1,
            glwe_noise_stdev: 1.0e-9,
            decomp_levels: 3,
            decomp_base_log: 7,
            ks_levels: 8,
            ks_base_log: 2,
            security: SecurityLevel::Testing,
        }
    }

    /// The LWE dimension of samples extracted from TLWE ciphertexts
    /// (`k * N`); the key-switching key converts from this dimension back
    /// to [`Params::lwe_dim`].
    pub fn extracted_lwe_dim(&self) -> usize {
        self.glwe_dim * self.poly_size
    }

    /// Size in bytes of one serialized LWE ciphertext (`(n + 1)` torus
    /// elements). For the default parameters this is 2 524 bytes — the
    /// "2.46 KB" ciphertext size of the paper's Figure 7 analysis.
    pub fn ciphertext_bytes(&self) -> usize {
        (self.lwe_dim + 1) * 4
    }

    /// A stable identifier for serialization headers. Ids 3 and 4 named
    /// the retired multi-bit sets and are refused on decode.
    pub(crate) fn id(&self) -> u32 {
        match self.security {
            SecurityLevel::Bits128 => 1,
            SecurityLevel::Testing => 2,
        }
    }

    /// Inverse of [`Params::id`].
    pub(crate) fn from_id(id: u32) -> Option<Self> {
        match id {
            1 => Some(Params::default_128()),
            2 => Some(Params::testing()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_params_match_tfhe_library() {
        let p = Params::default_128();
        assert_eq!(p.lwe_dim, 630);
        assert_eq!(p.poly_size, 1024);
        assert_eq!(p.glwe_dim, 1);
        assert_eq!(p.decomp_levels, 3);
        assert_eq!(p.decomp_base_log, 7);
        assert_eq!(p.ks_levels, 8);
        assert_eq!(p.ks_base_log, 2);
        assert_eq!(p.extracted_lwe_dim(), 1024);
    }

    #[test]
    fn ciphertext_matches_paper_size() {
        // The paper: "a piece of ciphertext in the TFHE context is only
        // 2.46 KB in size".
        let kb = Params::default_128().ciphertext_bytes() as f64 / 1024.0;
        assert!((kb - 2.46).abs() < 0.01, "got {kb} KB");
    }

    #[test]
    fn id_round_trip() {
        let all = [Params::default_128(), Params::testing()];
        for p in all {
            assert_eq!(Params::from_id(p.id()), Some(p));
        }
        // Ids are pairwise distinct.
        let mut ids: Vec<u32> = all.iter().map(Params::id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), all.len());
        for retired in [3, 4, 99] {
            assert_eq!(Params::from_id(retired), None);
        }
    }

    #[test]
    fn poly_sizes_are_powers_of_two() {
        for p in [Params::default_128(), Params::testing()] {
            assert!(p.poly_size.is_power_of_two());
        }
    }
}
