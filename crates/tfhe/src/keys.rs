//! Key generation and the client/cloud key split of Figure 1 of the paper:
//! the client holds the secret [`ClientKey`]; the (untrusted) server
//! evaluates gates with the public [`ServerKey`].

use crate::bootstrap::BootstrappingKey;
use crate::keyswitch::KeySwitchKey;
use crate::lwe::{LweCiphertext, LweKey};
use crate::params::Params;
use crate::rng::SecureRng;
use crate::tlwe::TlweKey;
use crate::torus::Torus32;
use pytfhe_telemetry as telemetry;

/// The message amplitude of gate bootstrapping: `mu = 1/8`.
pub(crate) const MU_LOG2_DENOM: u32 = 3;

/// The client's secret key material: the LWE gate key and the TLWE
/// bootstrapping key secret.
#[derive(Debug, Clone)]
pub struct ClientKey {
    params: Params,
    lwe_key: LweKey,
    tlwe_key: TlweKey,
}

impl ClientKey {
    /// Generates a fresh client key for the given parameters.
    pub fn generate(params: Params, rng: &mut SecureRng) -> Self {
        let lwe_key = LweKey::generate(params.lwe_dim, rng);
        let tlwe_key = TlweKey::generate(params.glwe_dim, params.poly_size, rng);
        ClientKey { params, lwe_key, tlwe_key }
    }

    /// Rebuilds a client key from its parts (used by deserialization).
    pub(crate) fn from_parts(params: Params, lwe_key: LweKey, tlwe_key: TlweKey) -> Self {
        ClientKey { params, lwe_key, tlwe_key }
    }

    /// The parameter set.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// The LWE gate key (crate-internal; the secret never leaves the
    /// client in the protocol).
    pub(crate) fn lwe_key(&self) -> &LweKey {
        &self.lwe_key
    }

    /// The TLWE key (crate-internal).
    pub(crate) fn tlwe_key(&self) -> &TlweKey {
        &self.tlwe_key
    }

    /// Derives the public evaluation key shipped to the cloud: the
    /// FFT-domain bootstrapping key plus the key-switching key. Two fresh
    /// seeds are drawn from `rng`, the public mask seed and then the
    /// secret noise seed; every row of both keys takes its mask and its
    /// noise from its own streams under them (see [`ServerKey`]), and the
    /// rows are generated on [`crate::lanes::default_width`] lanes.
    pub fn server_key(&self, rng: &mut SecureRng) -> ServerKey {
        self.server_key_on(rng, crate::lanes::default_width())
    }

    /// [`ClientKey::server_key`] on `lanes` lanes: the same key at any
    /// lane count.
    pub(crate) fn server_key_on(&self, rng: &mut SecureRng, lanes: usize) -> ServerKey {
        let mask_seed = rng.uniform_u64();
        let seeds = [mask_seed, rng.uniform_u64()];
        let bootstrap = {
            let _span = telemetry::span("tfhe", "keygen bsk");
            BootstrappingKey::generate_on(self.params, &self.lwe_key, &self.tlwe_key, seeds, lanes)
        };
        let _span = telemetry::span("tfhe", "keygen ksk");
        let keyswitch = KeySwitchKey::generate_on(
            &self.tlwe_key.extracted_lwe_key(),
            &self.lwe_key,
            self.params.ks_levels,
            self.params.ks_base_log,
            self.params.lwe_noise_stdev,
            seeds,
            lanes,
        );
        ServerKey { params: self.params, mask_seed, bootstrap, keyswitch }
    }

    /// Encrypts one bit as `±1/8` with fresh noise.
    pub fn encrypt_bit(&self, bit: bool, rng: &mut SecureRng) -> LweCiphertext {
        let mu = if bit {
            Torus32::from_fraction(1, MU_LOG2_DENOM)
        } else {
            Torus32::from_fraction(-1, MU_LOG2_DENOM)
        };
        self.lwe_key.encrypt(mu, self.params.lwe_noise_stdev, rng)
    }

    /// Decrypts one bit: positive phase decodes to `true`.
    pub fn decrypt_bit(&self, ct: &LweCiphertext) -> bool {
        self.lwe_key.phase(ct).to_f64() > 0.0
    }

    /// Encrypts a little-endian bit vector (one LWE sample per bit).
    pub fn encrypt_bits(&self, bits: &[bool], rng: &mut SecureRng) -> Vec<LweCiphertext> {
        bits.iter().map(|&b| self.encrypt_bit(b, rng)).collect()
    }

    /// Decrypts a vector of bit ciphertexts.
    pub fn decrypt_bits(&self, cts: &[LweCiphertext]) -> Vec<bool> {
        cts.iter().map(|ct| self.decrypt_bit(ct)).collect()
    }

    /// The phase noise of a ciphertext that should encrypt `bit` —
    /// diagnostic, used by noise-budget tests and failure injection.
    pub fn noise_of(&self, ct: &LweCiphertext, bit: bool) -> f64 {
        let mu = if bit {
            Torus32::from_fraction(1, MU_LOG2_DENOM)
        } else {
            Torus32::from_fraction(-1, MU_LOG2_DENOM)
        };
        (self.lwe_key.phase(ct) - mu).to_f64()
    }
}

/// The public evaluation key: everything the untrusted server needs to run
/// bootstrapped gates, and nothing that reveals the plaintexts.
///
/// It is *seeded*: every row of both keys — a TLWE row of the
/// bootstrapping key or an LWE sample of the key-switching key — is a
/// body over a uniform mask, and the mask of row `r` is drawn from the
/// public stream `SecureRng::mask_stream(mask_seed, r)`. The rows are
/// numbered bootstrapping-key rows first, from 0; key-switch sample `j`
/// is row `2³² + j`. Only the seed and the bodies travel
/// ([`crate::io::server_key_to_bytes`]), and the server regenerates the
/// masks — a key about 8× smaller on the wire than in memory. Row `r`'s
/// noise comes from the secret stream `SecureRng::noise_stream(noise_seed,
/// r)` of a second seed that never leaves the client, so each row is a
/// function of its index alone and set-up runs its rows on any number of
/// lanes with the same bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerKey {
    pub(crate) params: Params,
    pub(crate) mask_seed: u64,
    pub(crate) bootstrap: BootstrappingKey,
    pub(crate) keyswitch: KeySwitchKey,
}

impl ServerKey {
    /// The parameter set.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// The bootstrapping key.
    pub fn bootstrapping_key(&self) -> &BootstrappingKey {
        &self.bootstrap
    }

    /// The key-switching key.
    pub fn keyswitch_key(&self) -> &KeySwitchKey {
        &self.keyswitch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encrypt_decrypt_bits() {
        let mut rng = SecureRng::seed_from_u64(70);
        let client = ClientKey::generate(Params::testing(), &mut rng);
        for bit in [false, true] {
            let ct = client.encrypt_bit(bit, &mut rng);
            assert_eq!(client.decrypt_bit(&ct), bit);
            assert!(client.noise_of(&ct, bit).abs() < 1e-4);
        }
        let bits = vec![true, false, true, true, false];
        let cts = client.encrypt_bits(&bits, &mut rng);
        assert_eq!(client.decrypt_bits(&cts), bits);
    }

    #[test]
    fn different_keys_decrypt_garbage() {
        let mut rng = SecureRng::seed_from_u64(71);
        let c1 = ClientKey::generate(Params::testing(), &mut rng);
        let c2 = ClientKey::generate(Params::testing(), &mut rng);
        let mut wrong = 0;
        for i in 0..64 {
            let ct = c1.encrypt_bit(i % 2 == 0, &mut rng);
            // Phase under the wrong key is essentially uniform.
            if c2.noise_of(&ct, i % 2 == 0).abs() > 0.05 {
                wrong += 1;
            }
        }
        assert!(wrong > 32, "wrong-key decryption should look random, got {wrong}/64 noisy");
    }
}
