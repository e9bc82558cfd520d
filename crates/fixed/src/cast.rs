//! Sanctioned numeric cast helpers for the fixed-point crate.
//!
//! The `a3-analyze` bare-cast lint forbids raw `as` casts anywhere else in
//! `crates/fixed`: every value-changing conversion in the fixed-point datapath
//! must flow through one of these helpers so the conversion semantics (range,
//! rounding, sign handling) are stated once and audited in one place. This file
//! is the single allowlisted exception.

/// `2^exp` as a floating-point scale factor (`exp` may be negative).
pub(crate) fn pow2(exp: i32) -> f64 {
    2f64.powi(exp)
}

/// A bit count (always small) as a signed exponent for [`pow2`].
pub(crate) fn bits_as_exp(bits: u32) -> i32 {
    bits as i32
}

/// A raw fixed-point integer as an `f64`. Exact for every raw value a
/// [`QFormat`](crate::QFormat) can produce (`|raw| <= 2^62`, and real datapath
/// values are far narrower than the 53-bit mantissa).
pub(crate) fn raw_to_f64(raw: i64) -> f64 {
    raw as f64
}

/// An `f64` truncated toward zero to a raw fixed-point integer: exact for
/// every finite value inside the `i64` range, saturating outside it, and `0`
/// for NaN (the defined semantics of a float-to-integer `as` cast). One
/// conversion instruction on x86-64, where `f64::trunc` and `f64::round` are
/// libm calls on the baseline target.
pub(crate) fn trunc_f64_to_raw(value: f64) -> i64 {
    value as i64
}

/// The magnitude of a non-positive raw value as an unsigned integer
/// (used to split an exponent input into table index bit-fields).
pub(crate) fn nonpos_magnitude(raw: i64) -> u64 {
    debug_assert!(raw <= 0, "magnitude of a positive exponent input");
    raw.unsigned_abs()
}

/// An unsigned bit-field as a lookup-table index. Table construction bounds
/// the field width, so the value always fits in a `usize`.
pub(crate) fn table_index(field: u64) -> usize {
    field as usize
}

/// A table index as the (negative) raw input value it encodes.
pub(crate) fn index_to_raw_magnitude(index: usize) -> i64 {
    index as i64
}

/// A sample/loop count as an `f64` for averaging (exact below 2^53).
pub(crate) fn count_to_f64(count: usize) -> f64 {
    count as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pow2_matches_shifts() {
        assert_eq!(pow2(4), 16.0);
        assert_eq!(pow2(-4), 0.0625);
        assert_eq!(pow2(bits_as_exp(8)), 256.0);
    }

    #[test]
    fn raw_round_trip_is_exact() {
        for raw in [-(1i64 << 40), -255, -1, 0, 1, 255, (1i64 << 40) - 1] {
            assert_eq!(trunc_f64_to_raw(raw_to_f64(raw)), raw);
        }
    }

    #[test]
    fn trunc_rounds_toward_zero_and_maps_nan_to_zero() {
        assert_eq!(trunc_f64_to_raw(2.75), 2);
        assert_eq!(trunc_f64_to_raw(-2.75), -2);
        assert_eq!(trunc_f64_to_raw(-0.5), 0);
        assert_eq!(trunc_f64_to_raw(f64::NAN), 0);
        assert_eq!(trunc_f64_to_raw(f64::INFINITY), i64::MAX);
    }

    #[test]
    fn magnitude_of_nonpos() {
        assert_eq!(nonpos_magnitude(0), 0);
        assert_eq!(nonpos_magnitude(-256), 256);
        assert_eq!(nonpos_magnitude(i64::MIN + 1), (i64::MAX as u64));
    }

    #[test]
    fn index_helpers_round_trip() {
        assert_eq!(table_index(511), 511);
        assert_eq!(index_to_raw_magnitude(511), 511);
    }
}
