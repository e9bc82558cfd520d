//! Signed fixed-point format descriptors.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::cast;
use crate::FixedError;

/// A signed fixed-point format: `int_bits` integer bits, `frac_bits` fraction bits,
/// plus an implicit sign bit.
///
/// A value stored in format `Q(i.f)` is an integer `raw` interpreted as `raw / 2^f`,
/// with `raw` constrained to the symmetric range `[-(2^(i+f)), 2^(i+f) - 1]`. This mirrors
/// the paper's description in Section III-B where inputs are quantized to `i` integer
/// bits and `f` fraction bits "plus a sign bit".
///
/// ```
/// use a3_fixed::QFormat;
/// let fmt = QFormat::new(4, 4);
/// assert_eq!(fmt.total_bits(), 8);
/// assert_eq!(fmt.max_value(), (2f64.powi(8) - 1.0) / 16.0);
/// assert_eq!(fmt.resolution(), 1.0 / 16.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct QFormat {
    int_bits: u32,
    frac_bits: u32,
}

impl QFormat {
    /// Maximum total width (integer + fraction bits) supported by [`Fixed`](crate::Fixed),
    /// which stores raw values in an `i64`.
    pub const MAX_TOTAL_BITS: u32 = 62;

    /// Creates a new format with `int_bits` integer bits and `frac_bits` fraction bits.
    ///
    /// # Panics
    ///
    /// Panics if `int_bits + frac_bits` exceeds [`QFormat::MAX_TOTAL_BITS`]. Use
    /// [`QFormat::try_new`] for a non-panicking variant.
    pub fn new(int_bits: u32, frac_bits: u32) -> Self {
        Self::try_new(int_bits, frac_bits).expect("fixed-point format too wide")
    }

    /// Creates a new format, returning an error if it is wider than the implementation
    /// supports.
    ///
    /// # Errors
    ///
    /// Returns [`FixedError::FormatTooWide`] if `int_bits + frac_bits` exceeds
    /// [`QFormat::MAX_TOTAL_BITS`].
    pub fn try_new(int_bits: u32, frac_bits: u32) -> Result<Self, FixedError> {
        let total = int_bits + frac_bits;
        if total > Self::MAX_TOTAL_BITS {
            return Err(FixedError::FormatTooWide {
                requested_bits: total,
            });
        }
        Ok(Self {
            int_bits,
            frac_bits,
        })
    }

    /// Number of integer bits (excluding the sign bit).
    pub fn int_bits(&self) -> u32 {
        self.int_bits
    }

    /// Number of fraction bits.
    pub fn frac_bits(&self) -> u32 {
        self.frac_bits
    }

    /// Total number of magnitude bits (integer + fraction, excluding the sign bit).
    pub fn total_bits(&self) -> u32 {
        self.int_bits + self.frac_bits
    }

    /// Total storage width in bits including the sign bit. This is the quantity that
    /// determines register and SRAM energy cost in the hardware model.
    pub fn storage_bits(&self) -> u32 {
        self.total_bits() + 1
    }

    /// The smallest positive representable value, `2^-f`.
    pub fn resolution(&self) -> f64 {
        cast::pow2(-cast::bits_as_exp(self.frac_bits))
    }

    /// The largest representable value, `2^i - 2^-f`.
    pub fn max_value(&self) -> f64 {
        cast::raw_to_f64(self.max_raw()) * self.resolution()
    }

    /// The smallest (most negative) representable value, `-2^i`.
    pub fn min_value(&self) -> f64 {
        cast::raw_to_f64(self.min_raw()) * self.resolution()
    }

    /// The largest representable raw (scaled integer) value.
    pub fn max_raw(&self) -> i64 {
        (1i64 << self.total_bits()) - 1
    }

    /// The smallest representable raw (scaled integer) value.
    pub fn min_raw(&self) -> i64 {
        -(1i64 << self.total_bits())
    }

    /// Returns whether `value` is representable (after rounding) without saturation.
    pub fn can_represent(&self, value: f64) -> bool {
        let raw = (value * cast::pow2(cast::bits_as_exp(self.frac_bits))).round();
        raw >= cast::raw_to_f64(self.min_raw()) && raw <= cast::raw_to_f64(self.max_raw())
    }

    /// Format of the full-precision product of two values in formats `self` and `rhs`:
    /// integer bits and fraction bits both add.
    pub fn mul_format(&self, rhs: QFormat) -> QFormat {
        QFormat::new(self.int_bits + rhs.int_bits, self.frac_bits + rhs.frac_bits)
    }

    /// Format required to accumulate `count` values of format `self` without overflow:
    /// the integer part grows by `ceil(log2(count))` bits; the fraction part is unchanged
    /// (additions do not create new fraction bits — Section III-B).
    pub fn accumulate_format(&self, count: usize) -> QFormat {
        QFormat::new(self.int_bits + ceil_log2(count), self.frac_bits)
    }

    /// Format with `extra` additional integer bits (used for the max-subtraction step).
    pub fn widen_int(&self, extra: u32) -> QFormat {
        QFormat::new(self.int_bits + extra, self.frac_bits)
    }
}

impl fmt::Display for QFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q{}.{}", self.int_bits, self.frac_bits)
    }
}

impl Default for QFormat {
    /// The paper's default input format: `Q4.4`.
    fn default() -> Self {
        QFormat::new(4, 4)
    }
}

/// Ceiling of `log2(count)` for `count >= 1`; `0` for `count <= 1`.
///
/// This is the bit-growth rule Section III-B applies to accumulations; it is
/// exported so `a3-core`'s incremental-append gate can detect a format change
/// with the same quantity that [`QFormat::accumulate_format`] uses.
pub fn ceil_log2(count: usize) -> u32 {
    if count <= 1 {
        0
    } else {
        usize::BITS - (count - 1).leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q44_ranges() {
        let fmt = QFormat::new(4, 4);
        assert_eq!(fmt.total_bits(), 8);
        assert_eq!(fmt.storage_bits(), 9);
        assert_eq!(fmt.max_raw(), 255);
        assert_eq!(fmt.min_raw(), -256);
        assert!((fmt.max_value() - 15.9375).abs() < 1e-12);
        assert!((fmt.min_value() + 16.0).abs() < 1e-12);
        assert_eq!(fmt.resolution(), 0.0625);
    }

    #[test]
    fn display_is_q_notation() {
        assert_eq!(QFormat::new(4, 4).to_string(), "Q4.4");
        assert_eq!(QFormat::new(0, 8).to_string(), "Q0.8");
    }

    #[test]
    fn mul_format_adds_bits() {
        let a = QFormat::new(4, 4);
        let b = QFormat::new(4, 4);
        assert_eq!(a.mul_format(b), QFormat::new(8, 8));
    }

    #[test]
    fn accumulate_format_grows_by_log2() {
        let fmt = QFormat::new(8, 8);
        assert_eq!(fmt.accumulate_format(64), QFormat::new(14, 8));
        assert_eq!(fmt.accumulate_format(1), QFormat::new(8, 8));
        assert_eq!(fmt.accumulate_format(65), QFormat::new(15, 8));
    }

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(0), 0);
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(64), 6);
        assert_eq!(ceil_log2(320), 9);
    }

    #[test]
    fn can_represent_boundaries() {
        let fmt = QFormat::new(4, 4);
        assert!(fmt.can_represent(15.9375));
        assert!(!fmt.can_represent(16.0));
        assert!(fmt.can_represent(-16.0));
        assert!(!fmt.can_represent(-16.1));
    }

    #[test]
    fn too_wide_format_rejected() {
        assert!(QFormat::try_new(60, 10).is_err());
        assert!(QFormat::try_new(31, 31).is_ok());
    }

    #[test]
    #[should_panic(expected = "too wide")]
    fn new_panics_on_too_wide() {
        let _ = QFormat::new(40, 40);
    }

    #[test]
    fn default_is_paper_format() {
        assert_eq!(QFormat::default(), QFormat::new(4, 4));
    }

    #[test]
    fn widen_helpers() {
        let fmt = QFormat::new(4, 4);
        assert_eq!(fmt.widen_int(2), QFormat::new(6, 4));
    }
}
