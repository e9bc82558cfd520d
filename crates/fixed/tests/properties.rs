//! Property-based tests for the fixed-point substrate.

use a3_fixed::{ExpLut, Fixed, PipelineFormats, QFormat};
use proptest::prelude::*;

fn reasonable_format() -> impl Strategy<Value = QFormat> {
    (1u32..8, 1u32..8).prop_map(|(i, f)| QFormat::new(i, f))
}

proptest! {
    /// Quantization error never exceeds half an LSB for in-range values.
    #[test]
    fn quantization_error_bounded(value in -15.0f64..15.0, f in 1u32..10) {
        let fmt = QFormat::new(4, f);
        let q = Fixed::quantize(value, fmt);
        prop_assert!(q.quantization_error(value).abs() <= fmt.resolution() / 2.0 + 1e-12);
    }

    /// Quantize then dequantize is idempotent: re-quantizing a representable value is exact.
    #[test]
    fn quantize_idempotent(value in -15.0f64..15.0, fmt in reasonable_format()) {
        let q1 = Fixed::quantize(value, fmt);
        let q2 = Fixed::quantize(q1.to_f64(), fmt);
        prop_assert_eq!(q1, q2);
    }

    /// Full-precision multiplication of two quantized values is exact.
    #[test]
    fn mul_full_exact(a in -7.9f64..7.9, b in -7.9f64..7.9) {
        let fmt = QFormat::new(4, 4);
        let qa = Fixed::quantize(a, fmt);
        let qb = Fixed::quantize(b, fmt);
        let product = qa.mul_full(qb);
        prop_assert_eq!(product.to_f64(), qa.to_f64() * qb.to_f64());
    }

    /// Accumulating in the widened format never saturates for values within the element
    /// format's range.
    #[test]
    fn accumulate_never_saturates(values in prop::collection::vec(-15.9f64..15.9, 1..64)) {
        let fmt = QFormat::new(4, 4);
        let quantized: Vec<Fixed> = values.iter().map(|&v| Fixed::quantize(v, fmt)).collect();
        let expected: f64 = quantized.iter().map(|q| q.to_f64()).sum();
        let sum = Fixed::accumulate(quantized.clone(), fmt, quantized.len());
        prop_assert!((sum.to_f64() - expected).abs() < 1e-9);
    }

    /// Saturating addition always stays within the format's range.
    #[test]
    fn saturating_add_in_range(a in -40.0f64..40.0, b in -40.0f64..40.0) {
        let fmt = QFormat::new(4, 4);
        let qa = Fixed::quantize(a, fmt);
        let qb = Fixed::quantize(b, fmt);
        let sum = qa.saturating_add(qb);
        prop_assert!(sum.to_f64() <= fmt.max_value());
        prop_assert!(sum.to_f64() >= fmt.min_value());
    }

    /// Extending to a wider format never changes the value.
    #[test]
    fn extend_preserves_value(value in -15.9f64..15.9, extra_i in 0u32..6, extra_f in 0u32..6) {
        let fmt = QFormat::new(4, 4);
        let q = Fixed::quantize(value, fmt);
        let wide = q.extend_to(QFormat::new(4 + extra_i, 4 + extra_f));
        prop_assert_eq!(wide.to_f64(), q.to_f64());
    }

    /// The paper's exponent-error argument (Section III-B footnote): quantization error
    /// shrinks through the exponential when the exponent is non-positive. Concretely the
    /// two-half LUT output is within ~2 output LSBs of the true exponential.
    #[test]
    fn exp_lut_error_small(x in -20.0f64..0.0) {
        let lut = ExpLut::two_half(QFormat::new(15, 8), QFormat::new(0, 8));
        let approx = lut.eval_f64(x);
        prop_assert!((approx - x.exp()).abs() < 2.5 / 256.0 + 0.01);
    }

    /// The two-half LUT and the single-table LUT agree closely (they model the same
    /// mathematical function with slightly different rounding points).
    #[test]
    fn two_half_matches_single_table(x in -16.0f64..0.0) {
        let input = QFormat::new(8, 8);
        let output = QFormat::new(0, 8);
        let two = ExpLut::two_half(input, output);
        let single = ExpLut::single(input, output);
        prop_assert!((two.eval_f64(x) - single.eval_f64(x)).abs() <= 3.0 / 256.0);
    }

    /// Pipeline formats are monotone in (n, d): larger problems never need narrower
    /// registers.
    #[test]
    fn pipeline_formats_monotone(n1 in 1usize..400, n2 in 1usize..400, d in 1usize..256) {
        let (small, large) = if n1 <= n2 { (n1, n2) } else { (n2, n1) };
        let fmt = QFormat::new(4, 4);
        let a = PipelineFormats::new(fmt, small, d);
        let b = PipelineFormats::new(fmt, large, d);
        prop_assert!(a.exp_sum().int_bits() <= b.exp_sum().int_bits());
        prop_assert!(a.output().int_bits() <= b.output().int_bits());
    }

    /// The slice quantizer is bit-identical to per-element `Fixed::quantize`,
    /// including values far outside the format's range (both saturate the
    /// same way), ±inf (saturated) and NaN (mapped to zero).
    #[test]
    fn quantize_slice_matches_per_element_quantize(
        values in prop::collection::vec(
            (0u8..12, -600.0f32..600.0).prop_map(|(kind, x)| match kind {
                0 => f32::NAN,
                1 => f32::INFINITY,
                2 => f32::NEG_INFINITY,
                3 => f32::MAX,
                _ => x,
            }),
            0..48,
        ),
        fmt in (0u32..=8, 0u32..=8).prop_map(|(i, f)| QFormat::new(i, f)),
    ) {
        let raws: Vec<i64> = Fixed::quantize_slice(&values, fmt).collect();
        let expected: Vec<i64> =
            values.iter().map(|&x| Fixed::quantize(f64::from(x), fmt).raw()).collect();
        prop_assert_eq!(raws, expected);
    }
}
