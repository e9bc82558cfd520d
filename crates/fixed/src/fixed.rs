//! A fixed-point value tagged with its [`QFormat`].

use std::cmp::Ordering;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::cast;
use crate::{FixedError, QFormat};

/// A signed fixed-point value: a raw scaled integer plus the [`QFormat`] that gives it
/// meaning.
///
/// All arithmetic is performed on the raw integers exactly as the A3 datapath would, so
/// a chain of [`Fixed`] operations is bit-accurate with respect to the hardware pipeline
/// model in `a3-sim`.
///
/// ```
/// use a3_fixed::{Fixed, QFormat};
/// let fmt = QFormat::new(4, 4);
/// let x = Fixed::quantize(0.7, fmt);
/// // 0.7 rounds to 0.6875 = 11/16 in Q4.4
/// assert_eq!(x.raw(), 11);
/// assert_eq!(x.to_f64(), 0.6875);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Fixed {
    raw: i64,
    format: QFormat,
}

impl Fixed {
    /// The value zero in the given format.
    pub fn zero(format: QFormat) -> Self {
        Self { raw: 0, format }
    }

    /// The largest representable value in the given format.
    pub fn max(format: QFormat) -> Self {
        Self {
            raw: format.max_raw(),
            format,
        }
    }

    /// The smallest (most negative) representable value in the given format.
    pub fn min(format: QFormat) -> Self {
        Self {
            raw: format.min_raw(),
            format,
        }
    }

    /// Quantizes a floating-point value to the given format using round-to-nearest
    /// (ties away from zero) and saturation, which matches the behaviour of the
    /// quantizer in front of the A3 SRAM. NaN quantizes to zero.
    pub fn quantize(value: f64, format: QFormat) -> Self {
        Self {
            raw: Quantizer::new(format).raw(value),
            format,
        }
    }

    /// Quantizes every element of `values` to `format`, yielding the raw scaled
    /// integers in order. Each raw is exactly
    /// `Fixed::quantize(f64::from(x), format).raw()`; the scale factor and the
    /// clamp bounds are computed once for the whole slice instead of per element.
    ///
    /// ```
    /// use a3_fixed::{Fixed, QFormat};
    /// let values = [0.7, -100.0, f32::NAN];
    /// let raws: Vec<i64> = Fixed::quantize_slice(&values, QFormat::new(4, 4)).collect();
    /// assert_eq!(raws, vec![11, -256, 0]); // rounded, saturated, NaN to zero
    /// ```
    pub fn quantize_slice(values: &[f32], format: QFormat) -> impl Iterator<Item = i64> + '_ {
        let quantizer = Quantizer::new(format);
        values.iter().map(move |&x| quantizer.raw(f64::from(x)))
    }

    /// Quantizes a floating-point value, returning an error instead of saturating when
    /// the value does not fit.
    ///
    /// # Errors
    ///
    /// Returns [`FixedError::Overflow`] if the rounded value lies outside the format's
    /// representable range.
    pub fn try_quantize(value: f64, format: QFormat) -> Result<Self, FixedError> {
        if !format.can_represent(value) {
            return Err(FixedError::Overflow { value, format });
        }
        Ok(Self::quantize(value, format))
    }

    /// Constructs a fixed-point value from a raw scaled integer.
    ///
    /// # Panics
    ///
    /// Panics if `raw` is outside the representable raw range of `format`.
    pub fn from_raw(raw: i64, format: QFormat) -> Self {
        let in_range = (format.min_raw()..=format.max_raw()).contains(&raw);
        assert!(in_range, "raw value {raw} outside the range of {format}");
        Self { raw, format }
    }

    /// Constructs a fixed-point value from a raw scaled integer, clamping it into the
    /// representable range of `format` instead of panicking.
    ///
    /// Records a saturation event (see the `satcount` module) when the clamp engages:
    /// it exists for the range prover's differential witness harness, which mirrors
    /// the scalar pipeline's unclamped widening of an element product into the
    /// dot-product format (a value that may exceed the target container) followed
    /// by a saturating step.
    pub fn saturating_from_raw(raw: i64, format: QFormat) -> Self {
        let clamped = raw.clamp(format.min_raw(), format.max_raw());
        crate::satcount::note_clamp(clamped != raw);
        Self {
            raw: clamped,
            format,
        }
    }

    /// The raw scaled-integer representation.
    pub fn raw(&self) -> i64 {
        self.raw
    }

    /// The format of this value.
    pub fn format(&self) -> QFormat {
        self.format
    }

    /// Converts back to floating point (exact: every fixed-point value is a dyadic
    /// rational well inside `f64` range).
    pub fn to_f64(&self) -> f64 {
        cast::raw_to_f64(self.raw) * self.format.resolution()
    }

    /// Returns the quantization error `self.to_f64() - original`.
    pub fn quantization_error(&self, original: f64) -> f64 {
        self.to_f64() - original
    }

    /// Reinterprets this value in a wider (or equal) format without changing its
    /// numerical value.
    ///
    /// # Panics
    ///
    /// Panics if `target` has fewer fraction bits than the current format or cannot hold
    /// the value.
    pub fn extend_to(&self, target: QFormat) -> Self {
        let source = self.format;
        let Some(shift) = target.frac_bits().checked_sub(source.frac_bits()) else {
            panic!("cannot extend {source} to {target} (fraction bits would be dropped)");
        };
        Self::from_raw(self.raw << shift, target)
    }

    /// Rounds this value to a narrower format (round-to-nearest-even on the dropped
    /// fraction bits, saturating on the integer side). Used where the hardware truncates
    /// a wide intermediate back to a narrower register.
    pub fn round_to(&self, target: QFormat) -> Self {
        if target.frac_bits() >= self.format.frac_bits() {
            // Widening (or equal) fraction: just extend then saturate integer part.
            let shift = target.frac_bits() - self.format.frac_bits();
            let extended = self.raw << shift;
            let raw = extended.clamp(target.min_raw(), target.max_raw());
            crate::satcount::note_clamp(raw != extended);
            return Self {
                raw,
                format: target,
            };
        }
        let shift = self.format.frac_bits() - target.frac_bits();
        let half = 1i64 << (shift - 1);
        let rounded = (self.raw + half) >> shift;
        let raw = rounded.clamp(target.min_raw(), target.max_raw());
        crate::satcount::note_clamp(raw != rounded);
        Self {
            raw,
            format: target,
        }
    }

    /// Full-precision multiplication: the result format is the sum of the operand
    /// formats, so no precision is lost (this is what the `d` multipliers in the
    /// dot-product module produce).
    pub fn mul_full(&self, rhs: Fixed) -> Fixed {
        let format = self.format.mul_format(rhs.format);
        let raw = self.raw * rhs.raw;
        Fixed { raw, format }
    }

    /// Saturating addition of two values that must share a format.
    ///
    /// # Panics
    ///
    /// Panics if the formats differ; use [`Fixed::checked_add`] for a fallible variant.
    pub fn saturating_add(&self, rhs: Fixed) -> Fixed {
        same_format(self.format, rhs.format, "addition");
        let sum = self.raw + rhs.raw;
        let raw = sum.clamp(self.format.min_raw(), self.format.max_raw());
        crate::satcount::note_clamp(raw != sum);
        Fixed {
            raw,
            format: self.format,
        }
    }

    /// Saturating addition returning an error on format mismatch.
    ///
    /// # Errors
    ///
    /// Returns [`FixedError::FormatMismatch`] if the operand formats differ.
    pub fn checked_add(&self, rhs: Fixed) -> Result<Fixed, FixedError> {
        if self.format != rhs.format {
            return Err(FixedError::FormatMismatch {
                lhs: self.format,
                rhs: rhs.format,
            });
        }
        let sum = self.raw + rhs.raw;
        let raw = sum.clamp(self.format.min_raw(), self.format.max_raw());
        crate::satcount::note_clamp(raw != sum);
        Ok(Fixed {
            raw,
            format: self.format,
        })
    }

    /// Saturating subtraction of two values that must share a format.
    ///
    /// # Panics
    ///
    /// Panics if the formats differ.
    pub fn saturating_sub(&self, rhs: Fixed) -> Fixed {
        same_format(self.format, rhs.format, "subtraction");
        let diff = self.raw - rhs.raw;
        let raw = diff.clamp(self.format.min_raw(), self.format.max_raw());
        crate::satcount::note_clamp(raw != diff);
        Fixed {
            raw,
            format: self.format,
        }
    }

    /// Accumulates an iterator of same-format values into the accumulation format
    /// dictated by Section III-B (`log2(count)` extra integer bits). Returns the sum in
    /// the widened format.
    ///
    /// # Panics
    ///
    /// Panics if any element's format differs from `element_format`.
    pub fn accumulate<I>(values: I, element_format: QFormat, count_hint: usize) -> Fixed
    where
        I: IntoIterator<Item = Fixed>,
    {
        let acc_format = element_format.accumulate_format(count_hint.max(1));
        let mut acc = Fixed::zero(acc_format);
        for v in values {
            same_format(v.format(), element_format, "accumulation");
            let widened = v.extend_to(acc_format);
            acc = acc.saturating_add(widened);
        }
        acc
    }

    /// Fixed-point division `self / rhs` producing a result with the same fraction
    /// precision as `self` (the paper notes that division does not require extra
    /// precision as long as the divisor is at least one). The result format equals the
    /// format of `self`.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    pub fn div_weight(&self, rhs: Fixed) -> Fixed {
        assert!(rhs.raw != 0, "fixed-point division by zero");
        // raw_self / 2^f_self divided by raw_rhs / 2^f_rhs
        //   = (raw_self << f_rhs) / raw_rhs, still scaled by 2^f_self.
        let numerator = self.raw << rhs.format.frac_bits();
        let raw = numerator / rhs.raw;
        let raw = raw.clamp(self.format.min_raw(), self.format.max_raw());
        Fixed {
            raw,
            format: self.format,
        }
    }

    /// Returns true if this value is zero.
    pub fn is_zero(&self) -> bool {
        self.raw == 0
    }
}

/// Panics unless an operation's two operand formats agree (the documented
/// `# Panics` contract of the format-checked arithmetic above).
fn same_format(lhs: QFormat, rhs: QFormat, operation: &str) {
    assert_eq!(lhs, rhs, "fixed-point format mismatch in {operation}");
}

impl fmt::Display for Fixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.to_f64(), self.format)
    }
}

impl PartialOrd for Fixed {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        if self.format == other.format {
            self.raw.partial_cmp(&other.raw)
        } else {
            self.to_f64().partial_cmp(&other.to_f64())
        }
    }
}

/// The quantizer in front of the A3 SRAM for one format: the scale factor
/// `2^f` and the raw clamp bounds, resolved once.
#[derive(Clone, Copy)]
struct Quantizer {
    scale: f64,
    min_bound: f64,
    max_bound: f64,
    min_raw: i64,
    max_raw: i64,
}

impl Quantizer {
    fn new(format: QFormat) -> Self {
        Self {
            scale: cast::pow2(cast::bits_as_exp(format.frac_bits())),
            min_bound: cast::raw_to_f64(format.min_raw()),
            max_bound: cast::raw_to_f64(format.max_raw()),
            min_raw: format.min_raw(),
            max_raw: format.max_raw(),
        }
    }

    /// Round half away from zero, saturating at the format bounds; NaN maps
    /// to zero. Bit-identical to `clamp(round(value * 2^f))` wherever the
    /// bounds are exact in `f64` (total bits <= 53), without the libm call
    /// `f64::round` compiles to on the x86-64 baseline target:
    ///
    /// - clamping first is exact, because the bounds are integers and
    ///   rounding is monotone;
    /// - the truncation and the fraction it leaves are exact in `f64`, so
    ///   the `±0.5` comparisons round ties away from zero as `round` does;
    /// - NaN passes the float clamp unchanged, truncates to 0 and fails
    ///   both comparisons;
    /// - the final integer clamp keeps wider formats, whose `max_raw` rounds
    ///   up to `2^t` in `f64`, inside their own range.
    fn raw(self, value: f64) -> i64 {
        let clamped = (value * self.scale).clamp(self.min_bound, self.max_bound);
        let truncated = cast::trunc_f64_to_raw(clamped);
        let fraction = clamped - cast::raw_to_f64(truncated);
        let rounded = if fraction >= 0.5 {
            truncated + 1
        } else if fraction <= -0.5 {
            truncated - 1
        } else {
            truncated
        };
        rounded.clamp(self.min_raw, self.max_raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q44() -> QFormat {
        QFormat::new(4, 4)
    }

    #[test]
    fn quantize_round_to_nearest() {
        let x = Fixed::quantize(0.7, q44());
        assert_eq!(x.raw(), 11); // 0.6875
        let y = Fixed::quantize(-0.7, q44());
        assert_eq!(y.raw(), -11);
    }

    #[test]
    fn quantize_saturates() {
        let x = Fixed::quantize(100.0, q44());
        assert_eq!(x.raw(), q44().max_raw());
        let y = Fixed::quantize(-100.0, q44());
        assert_eq!(y.raw(), q44().min_raw());
    }

    #[test]
    fn quantize_nan_is_zero() {
        let x = Fixed::quantize(f64::NAN, q44());
        assert!(x.is_zero());
    }

    #[test]
    fn quantize_saturates_inside_formats_wider_than_the_mantissa() {
        // `max_raw` of these formats is not exact in f64 and rounds up to
        // 2^t; the quantizer must still return a raw its format can hold.
        for format in [
            QFormat::new(40, 20),
            QFormat::new(30, 30),
            QFormat::new(50, 10),
        ] {
            let high = Fixed::quantize(1e30, format);
            assert_eq!(high.raw(), format.max_raw(), "{format}");
            assert_eq!(Fixed::from_raw(high.raw(), format), high);
            assert_eq!(
                Fixed::quantize(f64::INFINITY, format).raw(),
                format.max_raw()
            );
            assert_eq!(Fixed::quantize(-1e30, format).raw(), format.min_raw());
        }
    }

    /// The quantizer formula this crate used before it stopped calling libm:
    /// scale, `f64::round`, clamp, NaN to zero.
    fn round_oracle(value: f64, format: QFormat) -> i64 {
        let scaled = (value * cast::pow2(cast::bits_as_exp(format.frac_bits()))).round();
        if scaled.is_nan() {
            0
        } else {
            scaled.clamp(
                cast::raw_to_f64(format.min_raw()),
                cast::raw_to_f64(format.max_raw()),
            ) as i64
        }
    }

    /// Values exercising every branch of the quantizer: a spread of f32 bit
    /// patterns, the specials, and exact `±0.5`-LSB ties with their float
    /// neighbours in `format`.
    fn quantizer_probe_values(format: QFormat) -> Vec<f64> {
        let mut values: Vec<f64> = (0u32..1 << 20)
            .map(|i| f64::from(f32::from_bits(i.wrapping_mul(0x9E37_79B1))))
            .collect();
        values.extend([
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from(f32::from_bits(1)),
            -f64::from(f32::from_bits(1)),
            f64::from(f32::from_bits(0x007F_FFFF)),
            f64::MAX,
            f64::MIN,
        ]);
        let lsb = format.resolution();
        let span = 1i64 << format.total_bits().min(12);
        for k in -span - 2..span + 2 {
            // A tie is never zero, so its bit pattern's two neighbours are the
            // floats just above and just below it.
            let tie = (k as f64 + 0.5) * lsb;
            let bits = tie.to_bits();
            values.extend([tie, f64::from_bits(bits + 1), f64::from_bits(bits - 1)]);
        }
        let top = format.max_raw() as f64 * lsb;
        values.extend([top, top + 0.5 * lsb, -top - 1.5 * lsb, -top - 0.5 * lsb]);
        values
    }

    #[test]
    fn quantizer_matches_the_round_based_formula() {
        for format in [
            QFormat::new(0, 1),
            QFormat::new(4, 4),
            QFormat::new(0, 8),
            QFormat::new(7, 8),
            QFormat::new(15, 8),
            QFormat::new(1, 24),
            QFormat::new(20, 20),
            QFormat::new(0, 53),
            QFormat::new(30, 23),
            QFormat::new(53, 0),
        ] {
            for value in quantizer_probe_values(format) {
                assert_eq!(
                    Fixed::quantize(value, format).raw(),
                    round_oracle(value, format),
                    "{format} value {value:e} ({:#x})",
                    value.to_bits()
                );
            }
        }
    }

    #[test]
    fn try_quantize_rejects_overflow() {
        assert!(Fixed::try_quantize(100.0, q44()).is_err());
        assert!(Fixed::try_quantize(1.0, q44()).is_ok());
    }

    #[test]
    fn mul_full_is_exact() {
        let a = Fixed::quantize(1.25, q44());
        let b = Fixed::quantize(-0.5, q44());
        let p = a.mul_full(b);
        assert_eq!(p.to_f64(), -0.625);
        assert_eq!(p.format(), QFormat::new(8, 8));
    }

    #[test]
    fn extend_preserves_value() {
        let a = Fixed::quantize(1.25, q44());
        let wide = a.extend_to(QFormat::new(8, 8));
        assert_eq!(wide.to_f64(), 1.25);
    }

    #[test]
    #[should_panic(expected = "fraction bits would be dropped")]
    fn extend_to_narrower_fraction_panics() {
        let a = Fixed::quantize(1.25, QFormat::new(4, 8));
        let _ = a.extend_to(QFormat::new(8, 4));
    }

    #[test]
    fn round_to_narrower() {
        let a = Fixed::quantize(1.28125, QFormat::new(4, 8)); // 1.28125 exact in Q4.8
        let narrow = a.round_to(q44());
        // nearest Q4.4 value to 1.28125 is 1.3125 (ties/rounding up at the half step)
        assert!((narrow.to_f64() - 1.3125).abs() < 1e-12);
    }

    #[test]
    fn accumulate_widens_and_sums() {
        let fmt = QFormat::new(4, 4);
        let values: Vec<Fixed> = (0..8).map(|_| Fixed::quantize(10.0, fmt)).collect();
        let sum = Fixed::accumulate(values, fmt, 8);
        assert_eq!(sum.format(), QFormat::new(7, 4));
        assert_eq!(sum.to_f64(), 80.0);
    }

    #[test]
    fn saturating_add_clamps() {
        let fmt = q44();
        let a = Fixed::max(fmt);
        let b = Fixed::quantize(1.0, fmt);
        assert_eq!(a.saturating_add(b), Fixed::max(fmt));
        let c = Fixed::min(fmt);
        let d = Fixed::quantize(-1.0, fmt);
        assert_eq!(c.saturating_add(d), Fixed::min(fmt));
    }

    #[test]
    fn checked_add_rejects_mismatch() {
        let a = Fixed::quantize(1.0, QFormat::new(4, 4));
        let b = Fixed::quantize(1.0, QFormat::new(8, 8));
        assert!(matches!(
            a.checked_add(b),
            Err(FixedError::FormatMismatch { .. })
        ));
    }

    #[test]
    fn div_weight_matches_float_division() {
        // score / expsum style division where divisor >= 1.
        let score_fmt = QFormat::new(0, 8);
        let sum_fmt = QFormat::new(9, 8);
        let score = Fixed::quantize(0.5, score_fmt);
        let expsum = Fixed::quantize(2.0, sum_fmt);
        let w = score.div_weight(expsum);
        assert_eq!(w.format(), score_fmt);
        assert!((w.to_f64() - 0.25).abs() < score_fmt.resolution());
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let fmt = q44();
        let _ = Fixed::quantize(1.0, fmt).div_weight(Fixed::zero(fmt));
    }

    #[test]
    fn ordering_same_format_uses_raw() {
        let fmt = q44();
        let a = Fixed::quantize(1.0, fmt);
        let b = Fixed::quantize(2.0, fmt);
        assert!(a < b);
    }

    #[test]
    fn display_contains_value_and_format() {
        let a = Fixed::quantize(1.5, q44());
        let text = a.to_string();
        assert!(text.contains("1.5"));
        assert!(text.contains("Q4.4"));
    }

    #[test]
    #[should_panic(expected = "outside the range")]
    fn from_raw_out_of_range_panics() {
        let _ = Fixed::from_raw(1_000, q44());
    }
}
