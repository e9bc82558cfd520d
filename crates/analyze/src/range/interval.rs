//! A signed interval domain over raw fixed-point integers.
//!
//! This is the abstract domain of the range prover: every pipeline
//! intermediate is tracked as an inclusive interval `[lo, hi]` of the raw
//! scaled integers it can take. Bounds are held in `i128` so that products of
//! two `i64`-range intervals (the widest values the datapath manipulates)
//! stay exact; whether a value fits an `i16`/`i32`/`i64` *container* is an
//! explicit query, never a silent wrap.
//!
//! Every transfer function here is an over-approximation (the concrete result
//! set is contained in the returned interval), so a "fits" verdict is sound.
//! Two operations deserve a note because a naive interval treatment would be
//! uselessly loose, and their tightness rests on side conditions the pipeline
//! establishes structurally:
//!
//! * [`Interval::div_weight_quotient`] — the softmax normalizer computes
//!   `floor((s << f) / S)` where `s >= 0` is one score and `S` is the sum of
//!   all scores including `s`. Naive division of the numerator interval by
//!   the divisor interval (whose lower bound is 1) would yield `~2^(2f)` times
//!   the true bound. Since `0 <= s <= S`, the quotient is at most
//!   `floor(S * 2^f / S) = 2^f`: the quotient interval is `[0, 2^f]`.
//!   **Side condition**: `s <= S` requires the exponent sum not to have
//!   saturated — the prover only relies on this after proving the
//!   `exp-sum-no-saturation` obligation.
//! * [`Interval::weighted_accumulate`] — the output accumulation computes
//!   `sum_k w_k * v_k` per output element. Accumulating the per-term interval
//!   `n` times ignores that the weights share one budget: since each
//!   `w_k = floor(s_k * 2^f / S)` with `sum_k s_k <= S` (same side condition),
//!   `sum_k w_k <= floor(sum_k s_k * 2^f / S) + 0 <= 2^f` — floor only loses
//!   mass, so the weight *sum* is bounded by `2^f` regardless of `n`. The
//!   accumulator therefore lies in the hull of `budget * values`, not
//!   `n * term`.

use std::ops::{Add, Mul, Sub};

use a3_fixed::QFormat;

/// An inclusive interval `[lo, hi]` of raw scaled-integer values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    lo: i128,
    hi: i128,
}

impl Interval {
    /// The interval `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn new(lo: i128, hi: i128) -> Self {
        assert!(lo <= hi, "malformed interval [{lo}, {hi}]");
        Self { lo, hi }
    }

    /// The singleton interval `[v, v]`.
    pub fn exact(v: i128) -> Self {
        Self { lo: v, hi: v }
    }

    /// The singleton zero interval.
    pub fn zero() -> Self {
        Self::exact(0)
    }

    /// Every raw value representable in `format`: `[-2^t, 2^t - 1]`.
    ///
    /// This is also the abstraction of `quantize` into `format`, which clamps
    /// arbitrary inputs into exactly this range.
    pub fn format_range(format: QFormat) -> Self {
        Self {
            lo: i128::from(format.min_raw()),
            hi: i128::from(format.max_raw()),
        }
    }

    /// Lower bound.
    pub fn lo(self) -> i128 {
        self.lo
    }

    /// Upper bound.
    pub fn hi(self) -> i128 {
        self.hi
    }

    /// Hull of every partial sum of at most `count` terms drawn independently
    /// from `self`, starting from zero — the abstraction of an accumulation
    /// loop. (The zero start means the hull always contains zero.)
    pub fn accumulate(self, count: u64) -> Self {
        let c = i128::from(count);
        Self {
            lo: (self.lo * c).min(0),
            hi: (self.hi * c).max(0),
        }
    }

    /// Hull of `sum_k w_k * v_k` where each `v_k` is drawn from `values` and
    /// the non-negative weights satisfy `sum_k w_k <= weight_budget` (see the
    /// module docs for why the budget, not the term count, bounds the sum).
    /// Contains zero (all-zero weights are possible).
    pub fn weighted_accumulate(values: Self, weight_budget: i128) -> Self {
        assert!(weight_budget >= 0, "weight budget must be non-negative");
        Self {
            lo: (values.lo * weight_budget).min(0),
            hi: (values.hi * weight_budget).max(0),
        }
    }

    /// The softmax-normalizer quotient interval `[0, 2^frac_bits]` (see the
    /// module docs for the side condition that makes this bound valid).
    pub fn div_weight_quotient(frac_bits: u32) -> Self {
        Self {
            lo: 0,
            hi: 1i128 << frac_bits,
        }
    }

    /// Whether every value of `self` lies within `outer`.
    pub fn within(self, outer: Self) -> bool {
        outer.lo <= self.lo && self.hi <= outer.hi
    }

    /// Clamp into a format's raw range — the abstraction of a saturating
    /// store. Returns the clamped interval and whether the clamp is reachable
    /// (i.e. whether `self` extends beyond the format range on either side).
    pub fn saturate(self, format: QFormat) -> (Self, bool) {
        let bounds = Self::format_range(format);
        let clamped = Self {
            lo: self.lo.clamp(bounds.lo, bounds.hi),
            hi: self.hi.clamp(bounds.lo, bounds.hi),
        };
        (clamped, !self.within(bounds))
    }
}

/// Exact (unclamped) interval addition.
impl Add for Interval {
    type Output = Self;

    fn add(self, rhs: Self) -> Self {
        Self {
            lo: self.lo + rhs.lo,
            hi: self.hi + rhs.hi,
        }
    }
}

/// Exact (unclamped) interval subtraction.
impl Sub for Interval {
    type Output = Self;

    fn sub(self, rhs: Self) -> Self {
        Self {
            lo: self.lo - rhs.hi,
            hi: self.hi - rhs.lo,
        }
    }
}

/// Exact full-precision interval multiplication (the abstraction of
/// `mul_full`): the hull of the four corner products.
impl Mul for Interval {
    type Output = Self;

    fn mul(self, rhs: Self) -> Self {
        let corners = [
            self.lo * rhs.lo,
            self.lo * rhs.hi,
            self.hi * rhs.lo,
            self.hi * rhs.hi,
        ];
        let mut lo = corners[0];
        let mut hi = corners[0];
        for &c in &corners[1..] {
            lo = lo.min(c);
            hi = hi.max(c);
        }
        Self { lo, hi }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mul_covers_sign_corners() {
        let a = Interval::new(-4, 3);
        let b = Interval::new(-5, 2);
        // Corners: 20, -8, -15, 6.
        assert_eq!(a * b, Interval::new(-15, 20));
    }

    #[test]
    fn accumulate_hull_contains_zero_and_scales() {
        let iv = Interval::new(-6, 10);
        assert_eq!(iv.accumulate(3), Interval::new(-18, 30));
        let pos = Interval::new(2, 5);
        // Partial sums start at zero, so the hull's lower bound is zero.
        assert_eq!(pos.accumulate(4), Interval::new(0, 20));
    }

    #[test]
    fn format_range_and_saturate() {
        let fmt = QFormat::new(2, 1);
        let range = Interval::format_range(fmt);
        assert_eq!(range, Interval::new(-8, 7));
        let (clamped, may_clamp) = Interval::new(-9, 3).saturate(fmt);
        assert_eq!(clamped, Interval::new(-8, 3));
        assert!(may_clamp);
        let (same, no_clamp) = Interval::new(-8, 7).saturate(fmt);
        assert_eq!(same, range);
        assert!(!no_clamp);
    }

    #[test]
    fn weighted_accumulate_uses_the_budget_not_the_count() {
        let values = Interval::new(-16, 15);
        let hull = Interval::weighted_accumulate(values, 256);
        assert_eq!(hull, Interval::new(-4096, 3840));
    }
}
