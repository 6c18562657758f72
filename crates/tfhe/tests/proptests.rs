//! Property-based tests of the TFHE substrate: algebraic laws of the
//! torus and polynomial rings, transform equivalences, decomposition
//! bounds, and randomized encrypt/evaluate/decrypt round trips.

use proptest::prelude::*;
use pytfhe_tfhe::fft::FftPlan;
use pytfhe_tfhe::poly::{naive_negacyclic_mul, IntPoly, TorusPoly};
use pytfhe_tfhe::tgsw::Gadget;
use pytfhe_tfhe::torus::Torus32;
use pytfhe_tfhe::{BootGate, ClientKey, Params, SecureRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// (T, +) is a commutative group; integer scaling distributes.
    #[test]
    fn torus_group_laws(a in any::<u32>(), b in any::<u32>(), c in any::<u32>(), k in -50i32..50) {
        let (a, b, c) = (Torus32(a), Torus32(b), Torus32(c));
        prop_assert_eq!((a + b) + c, a + (b + c));
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!(a + Torus32::ZERO, a);
        prop_assert_eq!(a + (-a), Torus32::ZERO);
        prop_assert_eq!(k * (a + b), k * a + k * b);
    }

    /// The f64 round trip stays within one quantum of 2^-32.
    #[test]
    fn torus_f64_round_trip(x in -4.0f64..4.0) {
        let t = Torus32::from_f64(x);
        let frac = x - x.round(); // representative in [-0.5, 0.5]
        let err = (t.to_f64() - frac).abs();
        // Wrap-around at the half-point is fine; otherwise sub-quantum.
        prop_assert!(err < 1e-9 || (err - 1.0).abs() < 1e-9, "x={x} err={err}");
    }

    /// Gadget decomposition always reconstructs within its error bound
    /// and keeps digits in range.
    #[test]
    fn gadget_decomposition_bounds(coeffs in prop::collection::vec(any::<u32>(), 8)) {
        let g = Gadget { levels: 3, base_log: 7 };
        let p = TorusPoly::from_coeffs(coeffs.into_iter().map(Torus32).collect());
        let digits = g.decompose_poly(&p);
        let half = 1 << 6;
        for d in &digits {
            for &x in d.coeffs() {
                prop_assert!((-half..half).contains(&x));
            }
        }
        for j in 0..p.len() {
            let mut approx = Torus32::ZERO;
            for (level, d) in digits.iter().enumerate() {
                approx += d.coeffs()[j] * g.h(level);
            }
            let err = (approx - p.coeffs()[j]).to_f64().abs();
            prop_assert!(err < 1.0 / (1u64 << 21) as f64, "err {err}");
        }
    }
}

proptest! {
    // Heavier cases: fewer iterations.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The twisted FFT equals schoolbook negacyclic convolution.
    #[test]
    fn fft_equals_schoolbook(
        a in prop::collection::vec(-64i32..64, 64),
        b in prop::collection::vec(any::<u32>(), 64),
    ) {
        let plan = FftPlan::new(64);
        let ip = IntPoly::from_coeffs(a);
        let tp = TorusPoly::from_coeffs(b.into_iter().map(Torus32).collect());
        prop_assert_eq!(plan.negacyclic_mul(&ip, &tp), naive_negacyclic_mul(&ip, &tp));
    }

    /// Negacyclic rotation is a homomorphism: X^i * (X^j * p) = X^(i+j) * p.
    #[test]
    fn rotation_homomorphism(
        coeffs in prop::collection::vec(any::<u32>(), 32),
        i in 0usize..64,
        j in 0usize..64,
    ) {
        let p = TorusPoly::from_coeffs(coeffs.into_iter().map(Torus32).collect());
        let lhs = p.mul_by_xk(i).mul_by_xk(j);
        let rhs = p.mul_by_xk((i + j) % 64);
        prop_assert_eq!(lhs, rhs);
    }

    /// The folded half-complex FFT equals schoolbook negacyclic
    /// convolution at every supported size, including the production
    /// N=1024 ring.
    #[test]
    fn folded_fft_equals_schoolbook_all_sizes(
        seed in any::<u64>(),
        size_idx in 0usize..5,
    ) {
        let n = [2usize, 16, 128, 512, 1024][size_idx];
        let mut rng = SecureRng::seed_from_u64(seed);
        let plan = FftPlan::new(n);
        let ip = IntPoly::from_coeffs(
            (0..n).map(|_| (rng.uniform_u32() % 129) as i32 - 64).collect(),
        );
        let tp = TorusPoly::uniform(n, &mut rng);
        prop_assert_eq!(plan.negacyclic_mul(&ip, &tp), naive_negacyclic_mul(&ip, &tp));
    }

    /// forward_torus ∘ inverse_torus is exact: torus coefficients are
    /// ≤ 2^31 in magnitude, so the N/2-point accumulation stays far below
    /// the 2^53 mantissa limit and rounding recovers every coefficient.
    #[test]
    fn fft_forward_inverse_round_trip(
        coeffs in prop::collection::vec(any::<u32>(), 1024),
    ) {
        let plan = FftPlan::new(1024);
        let p = TorusPoly::from_coeffs(coeffs.into_iter().map(Torus32).collect());
        let f = plan.forward_torus(&p);
        prop_assert_eq!(plan.inverse_torus(&f), p);
    }

    /// Random gate chains evaluate correctly under encryption.
    #[test]
    fn random_gate_chain_is_correct(
        seed in any::<u64>(),
        ops in prop::collection::vec(0usize..4, 1..6),
        mut x in any::<bool>(),
        y in any::<bool>(),
    ) {
        let mut rng = SecureRng::seed_from_u64(seed);
        let client = ClientKey::generate(Params::testing(), &mut rng);
        let server = client.server_key(&mut rng);
        let mut scratch = server.gate_scratch();
        let cy = client.encrypt_bit(y, &mut rng);
        let mut cx = client.encrypt_bit(x, &mut rng);
        let mut next = server.constant(false);
        for op in ops {
            let gate = [BootGate::Nand, BootGate::Xor, BootGate::Or, BootGate::Andyn][op];
            server.gate_into(gate, &cx, &cy, &mut scratch, &mut next);
            std::mem::swap(&mut cx, &mut next);
            x = gate.eval(x, y);
            prop_assert_eq!(client.decrypt_bit(&cx), x);
        }
    }
}
