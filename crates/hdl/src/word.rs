use crate::bit::Bit;

/// An ordered bundle of bits, least significant first — the raw signal
/// type every arithmetic generator operates on.
///
/// `Word` is deliberately interpretation-free: signedness, binary point
/// position and float formats are imposed by the generators (and by
/// [`crate::DType`] at the typed layer), matching how hardware description
/// languages treat wire bundles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Word {
    bits: Vec<Bit>,
}

impl Word {
    /// A word made of the given bits (LSB first).
    pub fn from_bits(bits: Vec<Bit>) -> Self {
        Word { bits }
    }

    /// A word of `width` constant-zero bits.
    pub fn zeros(width: usize) -> Self {
        Word { bits: vec![Bit::ZERO; width] }
    }

    /// The two's-complement constant `value`, truncated to `width` bits.
    pub fn constant(value: i64, width: usize) -> Self {
        Word { bits: (0..width).map(|i| Bit::Const((value >> i.min(63)) & 1 == 1)).collect() }
    }

    /// The unsigned constant `value`, truncated to `width` bits.
    pub fn constant_u64(value: u64, width: usize) -> Self {
        Word {
            bits: (0..width)
                .map(|i| Bit::Const(if i < 64 { (value >> i) & 1 == 1 } else { false }))
                .collect(),
        }
    }

    /// Bit width.
    pub fn width(&self) -> usize {
        self.bits.len()
    }

    /// Whether the word has zero width.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// The bits, LSB first.
    pub fn bits(&self) -> &[Bit] {
        &self.bits
    }

    /// Bit `i` (0 = LSB).
    ///
    /// # Panics
    ///
    /// Panics if `i >= width`.
    pub fn bit(&self, i: usize) -> Bit {
        self.bits[i]
    }

    /// The most significant bit (the sign, for two's complement).
    ///
    /// # Panics
    ///
    /// Panics if the word is empty.
    pub fn msb(&self) -> Bit {
        *self.bits.last().expect("msb of empty word")
    }

    /// Bits `lo..hi` as a new word.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, lo: usize, hi: usize) -> Word {
        Word { bits: self.bits[lo..hi].to_vec() }
    }

    /// Concatenation: `self` occupies the low bits, `high` the high bits.
    pub fn concat(&self, high: &Word) -> Word {
        let mut bits = self.bits.clone();
        bits.extend_from_slice(&high.bits);
        Word { bits }
    }

    /// Zero-extends (or truncates) to `width` bits.
    pub fn zext(&self, width: usize) -> Word {
        let mut bits = self.bits.clone();
        bits.resize(width, Bit::ZERO);
        bits.truncate(width);
        Word { bits }
    }

    /// Sign-extends (or truncates) to `width` bits.
    pub fn sext(&self, width: usize) -> Word {
        let fill = if self.bits.is_empty() { Bit::ZERO } else { self.msb() };
        let mut bits = self.bits.clone();
        bits.resize(width, fill);
        bits.truncate(width);
        Word { bits }
    }

    /// Logical left shift by a constant amount (width preserved).
    pub fn shl_const(&self, amount: usize) -> Word {
        let w = self.width();
        let mut bits = vec![Bit::ZERO; w];
        if amount < w {
            bits[amount..].copy_from_slice(&self.bits[..w - amount]);
        }
        Word { bits }
    }

    /// Logical right shift by a constant amount (width preserved).
    pub fn shr_const(&self, amount: usize) -> Word {
        let w = self.width();
        let mut bits = vec![Bit::ZERO; w];
        let kept = w.saturating_sub(amount);
        if kept > 0 {
            bits[..kept].copy_from_slice(&self.bits[amount..amount + kept]);
        }
        Word { bits }
    }

    /// Arithmetic right shift by a constant amount (width preserved).
    pub fn asr_const(&self, amount: usize) -> Word {
        let w = self.width();
        if w == 0 {
            return self.clone();
        }
        let fill = self.msb();
        let mut bits = vec![fill; w];
        let kept = w.saturating_sub(amount);
        if kept > 0 {
            bits[..kept].copy_from_slice(&self.bits[amount..amount + kept]);
        }
        Word { bits }
    }

    /// If every bit is a constant and the value fits, the unsigned value.
    /// `None` for a signal bit or a set bit at position 64 or above.
    pub fn as_const_u64(&self) -> Option<u64> {
        let mut v = 0u64;
        for (i, bit) in self.bits.iter().enumerate() {
            match bit.as_const()? {
                true if i < 64 => v |= 1 << i,
                true => return None,
                false => {}
            }
        }
        Some(v)
    }
}

impl FromIterator<Bit> for Word {
    fn from_iter<T: IntoIterator<Item = Bit>>(iter: T) -> Self {
        Word { bits: iter.into_iter().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_round_trip() {
        let w = Word::constant(-3, 8);
        assert_eq!(w.as_const_u64(), Some(0b1111_1101));
        let w = Word::constant_u64(0xAB, 8);
        assert_eq!(w.as_const_u64(), Some(0xAB));
        assert_eq!(Word::constant(5, 3).as_const_u64(), Some(5));
    }

    #[test]
    fn wide_constants_do_not_truncate() {
        // Zero-extended past bit 63 the value still fits; a set bit at 64
        // or above does not.
        assert_eq!(Word::constant_u64(u64::MAX, 70).as_const_u64(), Some(u64::MAX));
        let mut bits = Word::constant_u64(5, 70).bits().to_vec();
        bits[69] = Bit::ONE;
        assert_eq!(Word::from_bits(bits).as_const_u64(), None);
        assert_eq!(Word::constant(-1, 70).as_const_u64(), None);
    }

    #[test]
    fn extensions() {
        let w = Word::constant(-2, 4); // 0b1110
        assert_eq!(w.zext(8).as_const_u64(), Some(0b0000_1110));
        assert_eq!(w.sext(8).as_const_u64(), Some(0b1111_1110));
        assert_eq!(w.sext(2).as_const_u64(), Some(0b10));
    }

    #[test]
    fn shifts() {
        let w = Word::constant_u64(0b1011, 4);
        assert_eq!(w.shl_const(1).as_const_u64(), Some(0b0110));
        assert_eq!(w.shr_const(1).as_const_u64(), Some(0b0101));
        assert_eq!(w.asr_const(1).as_const_u64(), Some(0b1101));
        assert_eq!(w.shr_const(10).as_const_u64(), Some(0));
    }

    #[test]
    fn slicing_and_concat() {
        let w = Word::constant_u64(0b110100, 6);
        assert_eq!(w.slice(2, 6).as_const_u64(), Some(0b1101));
        let lo = Word::constant_u64(0b01, 2);
        let hi = Word::constant_u64(0b11, 2);
        assert_eq!(lo.concat(&hi).as_const_u64(), Some(0b1101));
    }
}
