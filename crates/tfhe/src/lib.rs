//! A from-scratch Rust implementation of the **TFHE** (Fast Fully
//! Homomorphic Encryption over the Torus, a.k.a. CGGI) scheme — the
//! cryptographic substrate of the PyTFHE framework.
//!
//! This crate implements the full gate-bootstrapping stack of the TFHE
//! library the paper builds on (Chillotti et al., *Journal of Cryptology*
//! 2020):
//!
//! * torus arithmetic over `Torus32` ([`torus`]),
//! * LWE samples and keys ([`lwe`]),
//! * polynomial rings `T[X]/(X^N + 1)` with both schoolbook and
//!   FFT-accelerated negacyclic multiplication ([`poly`], [`fft`]),
//! * TLWE (ring-LWE over the torus) and TGSW ciphertexts with gadget
//!   decomposition and external products ([`tlwe`], [`tgsw`]),
//! * blind rotation and gate bootstrapping ([`bootstrap`]),
//! * LWE-to-LWE key switching ([`keyswitch`]),
//! * the eleven bootstrapped binary gates used by PyTFHE programs
//!   ([`gates`]),
//! * key generation and the client/cloud key split ([`keys`]),
//! * byte-level serialization of keys and ciphertexts ([`io`]),
//! * the lane count, and key set-up's rows split across lanes ([`lanes`]),
//! * runtime-dispatched SIMD kernels (AVX2+FMA / portable scalar) for the transform, external-product, decomposition, and
//!   key-switch hot loops ([`simd`]), selectable with the `PYTFHE_SIMD`
//!   environment variable.
//!
//! # Security
//!
//! [`Params::default_128`](crate::Params::default_128) mirrors the default
//! 128-bit gate-bootstrapping parameter set of the original TFHE library
//! (Section II-D of the PyTFHE paper). [`Params::testing`] is a small,
//! **insecure** parameter set that keeps the identical algebra but runs two
//! orders of magnitude faster; it exists purely so test suites can execute
//! thousands of bootstrapped gates.
//!
//! # Example
//!
//! ```
//! use pytfhe_tfhe::{ClientKey, Params, SecureRng};
//!
//! let mut rng = SecureRng::seed_from_u64(7);
//! let client = ClientKey::generate(Params::testing(), &mut rng);
//! let server = client.server_key(&mut rng);
//!
//! let a = client.encrypt_bit(true, &mut rng);
//! let b = client.encrypt_bit(false, &mut rng);
//! let out = server.nand(&a, &b);
//! assert!(client.decrypt_bit(&out));
//! ```

pub mod align;
pub mod bootstrap;
mod error;
pub mod fft;
pub mod gates;
pub mod io;
pub mod keys;
pub mod keyswitch;
pub mod lanes;
pub mod lut;
pub mod lwe;
pub mod noise;
pub mod ntt;
pub mod params;
pub mod poly;
pub mod reference;
mod rng;
pub mod simd;
pub mod tgsw;
pub mod tlwe;
pub mod torus;
pub mod trace;

pub use bootstrap::{BootstrapScratch, TestVector};
pub use error::TfheError;
pub use gates::{BootGate, GateScratch, FUSE_CHUNK};
pub use keys::{ClientKey, ServerKey};
pub use lut::{build_test_vector, decode_message, encode_message, PackedLutTables};
pub use lwe::{LweCiphertext, LweKey, LweSoa};
pub use noise::{NoiseGuard, NoiseModel};
pub use params::{Params, SecurityLevel};
pub use rng::SecureRng;
pub use simd::SimdPath;
pub use torus::Torus32;
pub use trace::thread_buffer_allocs;
