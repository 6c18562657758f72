use crate::ShortintError;

/// The message/carry split of a shortint ciphertext.
///
/// A shortint rides the half-torus message encoding at
/// `message_bits + carry_bits` bits of precision: the low
/// `message_bits` hold the value, the bits above are carry headroom
/// that linear operations (additions, packings) fill before a
/// programmable bootstrap resets it. The canonical split is
/// [`ShortintParams::message_2_carry_2`], mirroring the
/// `message_2_carry_2` class of production shortint libraries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShortintParams {
    message_bits: u32,
    carry_bits: u32,
}

impl ShortintParams {
    /// Builds a split, validating the combined precision.
    ///
    /// # Errors
    ///
    /// [`ShortintError::BadParams`] when `message_bits` is 0 or the
    /// total exceeds 4 bits — the widest window a packed programmable
    /// bootstrap decodes under the default noise budget.
    pub fn new(message_bits: u32, carry_bits: u32) -> Result<Self, ShortintError> {
        if message_bits == 0 || message_bits + carry_bits > 4 {
            return Err(ShortintError::BadParams { message_bits, carry_bits });
        }
        Ok(ShortintParams { message_bits, carry_bits })
    }

    /// 2 message bits + 2 carry bits: exact nibble-free arithmetic with
    /// enough headroom for bivariate packing and radix carry chains.
    pub fn message_2_carry_2() -> Self {
        ShortintParams { message_bits: 2, carry_bits: 2 }
    }

    /// Message bits.
    pub fn message_bits(&self) -> u32 {
        self.message_bits
    }

    /// Carry bits.
    pub fn carry_bits(&self) -> u32 {
        self.carry_bits
    }

    /// Total encoding precision in bits.
    pub fn total_bits(&self) -> u32 {
        self.message_bits + self.carry_bits
    }

    /// Values the message space holds (`2^message_bits`).
    pub fn message_space(&self) -> u64 {
        1 << self.message_bits
    }

    /// Values the full plaintext window holds (`2^total_bits`).
    pub fn total_space(&self) -> u64 {
        1 << self.total_bits()
    }

    /// Whether bivariate LUTs fit: packing `lhs · 2^m + rhs` needs
    /// `2m ≤ total`.
    pub fn supports_bivariate(&self) -> bool {
        2 * self.message_bits <= self.total_bits()
    }

    /// The squared-coefficient sum of the worst linear combination an
    /// evaluation under this split performs — the quantity the noise
    /// guard's LUT admission check takes. Bivariate packing scales the
    /// left operand by `2^m` (coefficients `[2^m, 1]`); splits without
    /// bivariate room only ever add with unit coefficients.
    pub fn worst_coeff_sq_sum(&self) -> f64 {
        if self.supports_bivariate() {
            let shift = self.message_space() as f64;
            shift * shift + 1.0
        } else {
            2.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_validate() {
        assert!(ShortintParams::new(2, 2).is_ok());
        assert!(ShortintParams::new(1, 0).is_ok());
        assert!(ShortintParams::new(4, 0).is_ok());
        assert_eq!(
            ShortintParams::new(0, 2),
            Err(ShortintError::BadParams { message_bits: 0, carry_bits: 2 })
        );
        assert_eq!(
            ShortintParams::new(3, 2),
            Err(ShortintError::BadParams { message_bits: 3, carry_bits: 2 })
        );
    }

    #[test]
    fn spaces_and_packing() {
        let p = ShortintParams::message_2_carry_2();
        assert_eq!(p.message_space(), 4);
        assert_eq!(p.total_space(), 16);
        assert!(p.supports_bivariate());
        assert_eq!(p.worst_coeff_sq_sum(), 17.0);
        let narrow = ShortintParams::new(4, 0).unwrap();
        assert!(!narrow.supports_bivariate());
        assert_eq!(narrow.worst_coeff_sq_sum(), 2.0);
    }
}
