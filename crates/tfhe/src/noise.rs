//! Noise-budget analysis: predicted error variances for the scheme's
//! operations, validated empirically by the test suite.
//!
//! LWE security rests on noise (Section II-A of the paper), and noise
//! growth is what forces bootstrapping. This module implements the
//! standard variance formulas of the CGGI paper so applications can
//! reason about decryption-failure probabilities, and the tests compare
//! the predictions against noise measured through the real
//! implementation.

use crate::error::TfheError;
use crate::params::Params;

/// Predicted error *variance* (torus units squared) at various points of
/// the pipeline, for a given parameter set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    params: Params,
}

impl NoiseModel {
    /// Builds the model for a parameter set.
    pub fn new(params: Params) -> Self {
        NoiseModel { params }
    }

    /// Variance of a fresh LWE encryption.
    pub fn fresh_lwe(&self) -> f64 {
        self.params.lwe_noise_stdev * self.params.lwe_noise_stdev
    }

    /// Variance after the linear phase of an XOR/XNOR gate
    /// (`2(a + b) + const`): scaling by 2 quadruples each variance.
    pub fn xor_linear(&self) -> f64 {
        8.0 * self.fresh_lwe()
    }

    /// Variance contributed by the blind rotation (external products):
    /// `n · (k+1) · l · N · (Bg/2)^2 · σ_bk²` plus the gadget
    /// reconstruction error `n · (1 + k·N) · ε²` with
    /// `ε = 1 / (2 · Bg^l)`.
    pub fn blind_rotation(&self) -> f64 {
        let p = &self.params;
        let n = p.lwe_dim as f64;
        let k = p.glwe_dim as f64;
        let l = p.decomp_levels as f64;
        let big_n = p.poly_size as f64;
        let bg = (1u64 << p.decomp_base_log) as f64;
        let sigma_bk2 = p.glwe_noise_stdev * p.glwe_noise_stdev;
        let eps = 1.0 / (2.0 * bg.powf(l));
        n * (k + 1.0) * l * big_n * (bg / 2.0) * (bg / 2.0) * sigma_bk2
            + n * (1.0 + k * big_n) * eps * eps
    }

    /// Variance added by the key switch:
    /// `N·k · t · σ_ks²` (one sample subtraction per digit) plus the
    /// rounding error `N·k / 12 · base^{-2t} `.
    pub fn key_switch(&self) -> f64 {
        let p = &self.params;
        let src = (p.glwe_dim * p.poly_size) as f64;
        let t = p.ks_levels as f64;
        let sigma2 = p.lwe_noise_stdev * p.lwe_noise_stdev;
        let base = (1u64 << p.ks_base_log) as f64;
        src * t * sigma2 + src / 12.0 * base.powf(-2.0 * t)
    }

    /// Total variance of a bootstrapped-gate output (blind rotation plus
    /// key switch) — the "fresh" noise level every gate resets to.
    pub fn gate_output(&self) -> f64 {
        self.blind_rotation() + self.key_switch()
    }

    /// The phase margin of gate bootstrapping: correctness requires the
    /// pre-bootstrap phase to stay within 1/16 of its nominal ±1/8 band
    /// (plus the mod-switch rounding analyzed separately).
    pub fn gate_margin(&self) -> f64 {
        1.0 / 16.0
    }

    /// Standard deviation of the mod-switch rounding error:
    /// `sqrt(n/12) / (2N)` for `n` uniformly-rounded coefficients.
    pub fn mod_switch_stdev(&self) -> f64 {
        let p = &self.params;
        ((p.lwe_dim as f64 + 1.0) / 12.0).sqrt() / (2.0 * p.poly_size as f64)
    }

    /// Publishes the model's predictions as telemetry gauges, so every
    /// exported trace/metrics dump carries the noise budget the run was
    /// operating under. No-op when telemetry is disabled.
    pub fn record_gauges(&self) {
        if !pytfhe_telemetry::enabled() {
            return;
        }
        let m = pytfhe_telemetry::metrics();
        m.gauge_set("tfhe_noise_fresh_lwe_variance", self.fresh_lwe());
        m.gauge_set("tfhe_noise_blind_rotation_variance", self.blind_rotation());
        m.gauge_set("tfhe_noise_key_switch_variance", self.key_switch());
        m.gauge_set("tfhe_noise_gate_output_variance", self.gate_output());
        m.gauge_set("tfhe_gate_failure_probability", self.gate_failure_probability());
    }

    /// A (crude, union-bound-free) estimate of the per-gate failure
    /// probability: the chance a Gaussian with the combined pre-rotation
    /// deviation leaves the margin.
    pub fn gate_failure_probability(&self) -> f64 {
        let stdev = (self.xor_linear() + self.gate_output()).sqrt();
        let combined = (stdev * stdev + self.mod_switch_stdev().powi(2)).sqrt();
        let z = self.gate_margin() / combined;
        erfc(z / std::f64::consts::SQRT_2)
    }
}

/// Admission guardrail on an evaluation key's analytical noise budget.
///
/// A parameter set that predicts too high a decode-failure probability
/// will corrupt results silently — a bootstrapped gate that fails does
/// not error, it returns the wrong bit. The guard turns that into an
/// explicit admission decision: sessions check
/// [`NoiseGuard::admit`] at key-install time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseGuard {
    /// Maximum acceptable analytical failure probability per gate.
    pub max_gate_failure_probability: f64,
}

impl Default for NoiseGuard {
    fn default() -> Self {
        // 2^-40 (~9e-13): real parameter sets sit tens of orders of
        // magnitude below this (`default_128` predicts ~2e-48), while
        // the deliberately weak `Params::testing` (~6e-12) trips it.
        NoiseGuard { max_gate_failure_probability: 2f64.powi(-40) }
    }
}

impl NoiseGuard {
    /// A guard admitting keys whose predicted failure probability is at
    /// most `p`.
    pub fn max_probability(p: f64) -> Self {
        NoiseGuard { max_gate_failure_probability: p }
    }

    /// Checks `params` against the guard for boolean gate
    /// bootstrapping, returning the predicted probability on success.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::NoiseBudgetExceeded`] when the prediction
    /// exceeds the threshold.
    pub fn admit(&self, params: &Params) -> Result<f64, TfheError> {
        let p = NoiseModel::new(*params).gate_failure_probability();
        if p > self.max_gate_failure_probability {
            return Err(TfheError::NoiseBudgetExceeded {
                probability_atto: to_atto(p),
                threshold_atto: to_atto(self.max_gate_failure_probability),
            });
        }
        Ok(p)
    }
}

/// Probability → integral atto-units (the representation
/// [`TfheError::NoiseBudgetExceeded`] carries to stay `Eq`).
fn to_atto(p: f64) -> u64 {
    (p.clamp(0.0, 1.0) * 1e18).round() as u64
}

/// Complementary error function (Abramowitz–Stegun 7.1.26 polynomial,
/// |error| < 1.5e-7 — ample for failure-probability estimates).
fn erfc(x: f64) -> f64 {
    let sign_negative = x < 0.0;
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    let result = poly * (-x * x).exp();
    if sign_negative {
        2.0 - result
    } else {
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BootGate, ClientKey, SecureRng};

    #[test]
    fn default_params_have_negligible_failure_probability() {
        let model = NoiseModel::new(Params::default_128());
        let p = model.gate_failure_probability();
        assert!(p < 1e-9, "per-gate failure probability {p}");
        assert!(model.gate_output() < model.gate_margin() * model.gate_margin());
    }

    #[test]
    fn testing_params_are_also_reliable() {
        let model = NoiseModel::new(Params::testing());
        let p = model.gate_failure_probability();
        assert!(p < 1e-6, "testing-parameter failure probability {p}");
    }

    #[test]
    fn erfc_reference_values() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-6);
        assert!((erfc(1.0) - 0.157299).abs() < 1e-5);
        assert!(erfc(5.0) < 2e-12);
        assert!((erfc(-1.0) - 1.842701).abs() < 1e-5);
    }

    #[test]
    fn measured_fresh_noise_matches_prediction() {
        let params = Params::testing();
        let model = NoiseModel::new(params);
        let mut rng = SecureRng::seed_from_u64(2718);
        let client = ClientKey::generate(params, &mut rng);
        let n = 4000;
        let mut sum_sq = 0.0;
        for i in 0..n {
            let ct = client.encrypt_bit(i % 2 == 0, &mut rng);
            let e = client.noise_of(&ct, i % 2 == 0);
            sum_sq += e * e;
        }
        let measured = sum_sq / n as f64;
        let predicted = model.fresh_lwe();
        let ratio = measured / predicted;
        assert!((0.8..1.25).contains(&ratio), "measured/predicted variance ratio {ratio}");
    }

    #[test]
    fn measured_gate_noise_within_predicted_band() {
        // Gate outputs must carry more noise than fresh encryptions but
        // stay well below the decryption margin.
        let params = Params::testing();
        let model = NoiseModel::new(params);
        let mut rng = SecureRng::seed_from_u64(2719);
        let client = ClientKey::generate(params, &mut rng);
        let server = client.server_key(&mut rng);
        let mut scratch = server.gate_scratch();
        let mut out = server.constant(false);
        let mut max_err: f64 = 0.0;
        for i in 0..32 {
            let a = client.encrypt_bit(i % 2 == 0, &mut rng);
            let b = client.encrypt_bit(i % 3 == 0, &mut rng);
            server.gate_into(BootGate::Nand, &a, &b, &mut scratch, &mut out);
            let want = !((i % 2 == 0) && (i % 3 == 0));
            let e = client.noise_of(&out, want).abs();
            max_err = max_err.max(e);
        }
        let predicted_stdev = model.gate_output().sqrt();
        assert!(max_err < 8.0 * predicted_stdev, "max err {max_err}, σ {predicted_stdev}");
        assert!(max_err < model.gate_margin(), "errors stay inside the margin");
    }
}
