//! Seeded input generation: everything a workload feeds the program —
//! netlists, plaintext bits, key seeds, the job mix — derives from
//! `--seed` here, and the program under test only ever sees the result.

use pytfhe_hdl::{Circuit, Word};
use pytfhe_netlist::{Netlist, ALL_GATE_KINDS};

/// SplitMix64: small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for a named purpose, so adding a draw to one
    /// consumer never shifts the inputs of another.
    pub fn fork(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    pub fn bits(&mut self, n: usize) -> Vec<bool> {
        (0..n).map(|_| self.next_u64() & 1 == 1).collect()
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Gates in the `chain` workload.
pub const CHAIN_GATES: usize = 96;
/// Encrypted inputs of the `chain` workload.
pub const CHAIN_INPUTS: usize = 8;

/// A chain of `gates` dependent bootstrapped gates (the `chain` workload
/// runs `CHAIN_GATES` of them). Each gate's kind is drawn from the ten
/// bootstrapped kinds; one operand is the previous gate's output (on a
/// seeded side, since four kinds are asymmetric), the other a seeded
/// input. Every 16th gate and the last are outputs, so a wrong
/// intermediate value is caught where it arises.
pub fn chain(seed: u64, gates: usize) -> Netlist {
    let mut rng = Rng::fork(seed, 1);
    let mut nl = Netlist::new();
    let inputs: Vec<_> = (0..CHAIN_INPUTS).map(|_| nl.add_input()).collect();
    let mut prev = inputs[rng.below(CHAIN_INPUTS)];
    for g in 0..gates {
        // The first ten entries of ALL_GATE_KINDS are the bootstrapped
        // binary gates (asserted in the tests below).
        let kind = ALL_GATE_KINDS[rng.below(10)];
        let other = inputs[rng.below(CHAIN_INPUTS)];
        let (a, b) = if rng.below(2) == 0 { (prev, other) } else { (other, prev) };
        prev = nl.add_gate(kind, a, b).expect("operands precede the gate");
        if (g + 1) % 16 == 0 || g + 1 == gates {
            nl.mark_output(prev).expect("gate exists");
        }
    }
    nl
}

/// The three 4-bit circuits of the `serve` job mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeCircuit {
    Add,
    LtUnsigned,
    MaxInt,
}

impl ServeCircuit {
    pub const ALL: [ServeCircuit; 3] =
        [ServeCircuit::Add, ServeCircuit::LtUnsigned, ServeCircuit::MaxInt];

    pub fn name(self) -> &'static str {
        match self {
            ServeCircuit::Add => "add",
            ServeCircuit::LtUnsigned => "lt_unsigned",
            ServeCircuit::MaxInt => "max_int",
        }
    }

    /// Builds the circuit with `pytfhe-hdl`: two 4-bit input words.
    pub fn netlist(self) -> Netlist {
        let mut c = Circuit::new();
        let a = c.input_word("a", 4);
        let b = c.input_word("b", 4);
        let out = match self {
            ServeCircuit::Add => c.add(&a, &b),
            ServeCircuit::LtUnsigned => {
                Word::from_bits(vec![c.lt_unsigned(&a, &b).expect("equal widths")])
            }
            ServeCircuit::MaxInt => c.max_int(&a, &b, false).expect("equal widths"),
        };
        c.output_word("out", &out);
        c.finish().expect("circuit is well formed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pytfhe_backend::netlist_bootstraps;

    fn word(bits: &[bool]) -> u32 {
        bits.iter().enumerate().map(|(i, &b)| u32::from(b) << i).sum()
    }

    #[test]
    fn same_seed_regenerates_byte_identical_programs() {
        for seed in [1u64, 777] {
            let (a, b) = (chain(seed, CHAIN_GATES), chain(seed, CHAIN_GATES));
            assert_eq!(pytfhe_asm::assemble(&a), pytfhe_asm::assemble(&b));
            assert_eq!(netlist_bootstraps(&a), CHAIN_GATES as u64);
            assert_eq!(netlist_bootstraps(&a), netlist_bootstraps(&b));
        }
        assert_ne!(
            pytfhe_asm::assemble(&chain(1, CHAIN_GATES)),
            pytfhe_asm::assemble(&chain(2, CHAIN_GATES))
        );
        // The exact end-to-end metrics must not depend on the seed.
        assert_eq!(
            pytfhe_asm::assemble(&chain(1, CHAIN_GATES)).len(),
            pytfhe_asm::assemble(&chain(777, CHAIN_GATES)).len()
        );
        for c in ServeCircuit::ALL {
            assert_eq!(pytfhe_asm::assemble(&c.netlist()), pytfhe_asm::assemble(&c.netlist()));
        }
    }

    #[test]
    fn chain_is_a_chain_of_bootstrapped_gates() {
        assert!(ALL_GATE_KINDS[..10].iter().all(|k| !k.is_unary() && !k.is_const()));
        let nl = chain(1, CHAIN_GATES);
        nl.validate().unwrap();
        let levels = pytfhe_netlist::Levels::compute(&nl);
        assert_eq!(levels.depth() as usize, CHAIN_GATES, "one gate per wave");
        assert_eq!(levels.max_width(), 1);
        assert_eq!(nl.outputs().len(), CHAIN_GATES / 16);
        assert_eq!(chain(1, 24).outputs().len(), 2, "a short chain still ends in an output");
    }

    #[test]
    fn serve_circuits_compute_what_their_names_say() {
        for a in 0..16u32 {
            for b in 0..16u32 {
                let bits: Vec<bool> = (0..4)
                    .map(|i| a >> i & 1 == 1)
                    .chain((0..4).map(|i| b >> i & 1 == 1))
                    .collect();
                assert_eq!(word(&ServeCircuit::Add.netlist().eval_plain(&bits)), (a + b) & 15);
                assert_eq!(
                    word(&ServeCircuit::LtUnsigned.netlist().eval_plain(&bits)),
                    (a < b) as u32
                );
                assert_eq!(word(&ServeCircuit::MaxInt.netlist().eval_plain(&bits)), a.max(b));
            }
        }
    }

    #[test]
    fn rng_streams_are_reproducible_and_distinct() {
        assert_eq!(Rng::fork(5, 1).bits(64), Rng::fork(5, 1).bits(64));
        assert_ne!(Rng::fork(5, 1).bits(64), Rng::fork(5, 2).bits(64));
        let mut v: Vec<u32> = (0..9).collect();
        Rng::fork(3, 0).shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..9).collect::<Vec<_>>());
    }
}
