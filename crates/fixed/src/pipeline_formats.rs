//! Per-pipeline-stage fixed-point formats (paper Section III-B).

use std::ops::RangeInclusive;

use serde::{Deserialize, Serialize};

use crate::qformat::ceil_log2;
use crate::QFormat;

/// One of the four lane-width eligibility inequalities returned by
/// [`PipelineFormats::lane_gates`], evaluated for a concrete format plan.
///
/// A gate holds when `lhs <= limit`. The `name` is a stable identifier shared
/// with the `a3-analyze` range prover's proof obligations and certificate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneGate {
    /// Stable identifier (also the name of the prover obligation this gate guards).
    pub name: &'static str,
    /// The inequality in human-readable form, with `t = i + f`.
    pub expression: &'static str,
    /// The vector container whose width the gate protects.
    pub container: &'static str,
    /// Left-hand side of the inequality, computed from this format plan.
    pub lhs: u32,
    /// Inclusive upper bound `lhs` must not exceed.
    pub limit: u32,
}

impl LaneGate {
    /// Whether the inequality holds for the plan it was computed from.
    pub fn holds(&self) -> bool {
        self.lhs <= self.limit
    }
}

/// The fixed-point formats used at every stage of the A3 pipeline, derived from the
/// input format `(i, f)`, the number of rows `n` and the embedding dimension `d`
/// exactly as Section III-B of the paper prescribes.
///
/// | stage                    | integer bits        | fraction bits |
/// |--------------------------|---------------------|---------------|
/// | inputs (key/value/query) | `i`                 | `f`           |
/// | element product `temp`   | `2i`                | `2f`          |
/// | dot product              | `2i + log2(d)`      | `2f`          |
/// | max-subtracted dot prod. | `2i + log2(d) + 1`  | `2f`          |
/// | softmax score            | `0`                 | `2f`          |
/// | exponent sum             | `log2(n)`           | `2f`          |
/// | weight                   | `0`                 | `2f`          |
/// | output accumulator       | `i + log2(n)`       | `3f`          |
///
/// ```
/// use a3_fixed::PipelineFormats;
/// let fmts = PipelineFormats::paper_default();
/// assert_eq!(fmts.input().to_string(), "Q4.4");
/// assert_eq!(fmts.dot_product().to_string(), "Q14.8"); // 2*4 + log2(64)
/// assert_eq!(fmts.output().to_string(), "Q13.12");     // 4 + log2(320), 3*4
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineFormats {
    input: QFormat,
    product: QFormat,
    dot_product: QFormat,
    shifted_dot_product: QFormat,
    score: QFormat,
    exp_sum: QFormat,
    weight: QFormat,
    output: QFormat,
    n: usize,
    d: usize,
}

impl PipelineFormats {
    /// Derives all pipeline formats from the input format and the problem size.
    pub fn new(input: QFormat, n: usize, d: usize) -> Self {
        let i = input.int_bits();
        let f = input.frac_bits();
        let product = QFormat::new(2 * i, 2 * f);
        let dot_product = QFormat::new(2 * i + ceil_log2(d), 2 * f);
        let shifted_dot_product = dot_product.widen_int(1);
        let score = QFormat::new(0, 2 * f);
        let exp_sum = QFormat::new(ceil_log2(n), 2 * f);
        let weight = QFormat::new(0, 2 * f);
        let output = QFormat::new(i + ceil_log2(n), 3 * f);
        Self {
            input,
            product,
            dot_product,
            shifted_dot_product,
            score,
            exp_sum,
            weight,
            output,
            n,
            d,
        }
    }

    /// The configuration used in the paper's evaluation: `Q4.4` inputs, `n = 320`,
    /// `d = 64`.
    pub fn paper_default() -> Self {
        Self::new(QFormat::new(4, 4), 320, 64)
    }

    /// Input (key matrix, value matrix, query vector) format.
    pub fn input(&self) -> QFormat {
        self.input
    }

    /// Element-wise product format (`temp` in the paper's pseudocode).
    pub fn product(&self) -> QFormat {
        self.product
    }

    /// Dot-product accumulator format.
    pub fn dot_product(&self) -> QFormat {
        self.dot_product
    }

    /// Format after subtracting the maximum (one extra integer bit).
    pub fn shifted_dot_product(&self) -> QFormat {
        self.shifted_dot_product
    }

    /// Softmax score (exponent output) format: a pure fraction in `[0, 1]`.
    pub fn score(&self) -> QFormat {
        self.score
    }

    /// Exponent-sum (softmax denominator) format.
    pub fn exp_sum(&self) -> QFormat {
        self.exp_sum
    }

    /// Normalized weight format: a pure fraction in `[0, 1]`.
    pub fn weight(&self) -> QFormat {
        self.weight
    }

    /// Output accumulator format.
    pub fn output(&self) -> QFormat {
        self.output
    }

    /// Number of key/value rows this configuration was sized for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Embedding dimension this configuration was sized for.
    pub fn d(&self) -> usize {
        self.d
    }

    /// Input integer bits `i` of the proved grid: the finite set of format
    /// plans (`GRID_INT_BITS` x [`GRID_FRAC_BITS`](Self::GRID_FRAC_BITS) x
    /// [`GRID_LD`](Self::GRID_LD) x [`GRID_LN`](Self::GRID_LN)) that the
    /// `a3-analyze` range prover sweeps exhaustively and pins in its
    /// certificate. [`PipelineFormats::lanes_eligible`] admits only plans
    /// inside it, so the vector datapath never runs a plan the certificate
    /// does not cover.
    pub const GRID_INT_BITS: RangeInclusive<u32> = 0..=8;
    /// Input fraction bits `f` of the proved grid (a format without fraction
    /// bits is not one the datapath deploys).
    pub const GRID_FRAC_BITS: RangeInclusive<u32> = 1..=8;
    /// `ld = ceil_log2(d)` of the proved grid: `d <= 64`, the paper's
    /// embedding bound.
    pub const GRID_LD: RangeInclusive<u32> = 0..=6;
    /// `ln = ceil_log2(n)` of the proved grid: `n <= 512`.
    pub const GRID_LN: RangeInclusive<u32> = 0..=9;

    /// The four lane-width gate inequalities that decide whether this format
    /// plan is eligible for the integer SIMD datapath. **This is the single
    /// authoritative statement of the gates**: the AVX2 backend's
    /// `formats_eligible` check in `crates/core/src/backend/quantized_simd.rs`
    /// and the `a3-analyze` range prover both evaluate exactly this function,
    /// so the implementation and its machine-checked proof cannot drift apart.
    ///
    /// With `t = i + f` input bits, `ld = ceil_log2(d)` and `ln = ceil_log2(n)`:
    ///
    /// | # | name | inequality | container | what it protects |
    /// |---|------|------------|-----------|------------------|
    /// | 1 | `input-raws-fit-i16`       | `t <= 15`          | `i16` | input raws lie in `[-2^t, 2^t - 1]`, so key/query/value lanes fit |
    /// | 2 | `dot-sums-fit-i32`         | `2t + ld <= 30`    | `i32` | the exact (pre-clamp) dot sum magnitude is at most `d * 2^(2t) = 2^(2t + ld)` |
    /// | 3 | `weight-products-fit-i32`  | `2f + t <= 30`     | `i32` | weight-times-value product magnitude is below `2^(2f) * 2^t = 2^(2f + t)` |
    /// | 4 | `output-acc-fits-i32`      | `i + ln + 3f <= 31`| `i32` | the output accumulator format's full raw range `[-2^(i+ln+3f), 2^(i+ln+3f) - 1]` |
    ///
    /// Gates 1–3 keep every widened intermediate of the vector kernels exact
    /// inside its lanes; gate 4 lets the output accumulators clamp at the
    /// scalar pipeline's format bounds inside `i32` lanes. The range prover
    /// additionally verifies (over an exhaustive format grid) that each gate
    /// implies its interval-arithmetic obligation — see
    /// `crates/analyze/src/range/`.
    pub fn lane_gates(&self) -> [LaneGate; 4] {
        let i = self.input.int_bits();
        let f = self.input.frac_bits();
        let t = self.input.total_bits();
        let ld = ceil_log2(self.d);
        let ln = ceil_log2(self.n);
        [
            LaneGate {
                name: "input-raws-fit-i16",
                expression: "t <= 15",
                container: "i16",
                lhs: t,
                limit: 15,
            },
            LaneGate {
                name: "dot-sums-fit-i32",
                expression: "2t + ld <= 30",
                container: "i32",
                lhs: 2 * t + ld,
                limit: 30,
            },
            LaneGate {
                name: "weight-products-fit-i32",
                expression: "2f + t <= 30",
                container: "i32",
                lhs: 2 * f + t,
                limit: 30,
            },
            LaneGate {
                name: "output-acc-fits-i32",
                expression: "i + ln + 3f <= 31",
                container: "i32",
                lhs: i + ln + 3 * f,
                limit: 31,
            },
        ]
    }

    /// Whether this plan lies inside the proved grid and every
    /// [`PipelineFormats::lane_gates`] inequality holds (the grid's `f >= 1`
    /// also rules out a zero-bit input, which has no lanes to vectorize). This
    /// is the format-plan half of the SIMD eligibility check.
    pub fn lanes_eligible(&self) -> bool {
        Self::GRID_INT_BITS.contains(&self.input.int_bits())
            && Self::GRID_FRAC_BITS.contains(&self.input.frac_bits())
            && Self::GRID_LD.contains(&ceil_log2(self.d))
            && Self::GRID_LN.contains(&ceil_log2(self.n))
            && self.lane_gates().iter().all(LaneGate::holds)
    }
}

impl Default for PipelineFormats {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_section_3b() {
        let f = PipelineFormats::paper_default();
        assert_eq!(f.input(), QFormat::new(4, 4));
        assert_eq!(f.product(), QFormat::new(8, 8));
        // 2i + log2(d) = 8 + 6 = 14 integer bits, 2f = 8 fraction bits.
        assert_eq!(f.dot_product(), QFormat::new(14, 8));
        assert_eq!(f.shifted_dot_product(), QFormat::new(15, 8));
        assert_eq!(f.score(), QFormat::new(0, 8));
        // log2(320) = 9 integer bits.
        assert_eq!(f.exp_sum(), QFormat::new(9, 8));
        assert_eq!(f.weight(), QFormat::new(0, 8));
        // i + log2(n) = 4 + 9 = 13 integer, 3f = 12 fraction bits.
        assert_eq!(f.output(), QFormat::new(13, 12));
    }

    #[test]
    fn small_configuration() {
        let f = PipelineFormats::new(QFormat::new(2, 3), 16, 8);
        assert_eq!(f.product(), QFormat::new(4, 6));
        assert_eq!(f.dot_product(), QFormat::new(7, 6));
        assert_eq!(f.exp_sum(), QFormat::new(4, 6));
        assert_eq!(f.output(), QFormat::new(6, 9));
        assert_eq!(f.n(), 16);
        assert_eq!(f.d(), 8);
    }

    #[test]
    fn default_is_paper_default() {
        assert_eq!(PipelineFormats::default(), PipelineFormats::paper_default());
    }

    #[test]
    fn paper_default_passes_every_lane_gate() {
        let f = PipelineFormats::paper_default();
        // Q4.4, n = 320 (ln = 9), d = 64 (ld = 6):
        // t = 8, 2t + ld = 22, 2f + t = 16, i + ln + 3f = 25.
        let lhs: Vec<u32> = f.lane_gates().iter().map(|g| g.lhs).collect();
        assert_eq!(lhs, vec![8, 22, 16, 25]);
        assert!(f.lane_gates().iter().all(LaneGate::holds));
        assert!(f.lanes_eligible());
    }

    #[test]
    fn too_wide_plans_fail_the_gates() {
        // Q8.8 inputs: t = 16 > 15 and 2t + ld = 38 > 30.
        let wide = PipelineFormats::new(QFormat::new(8, 8), 320, 64);
        assert!(!wide.lanes_eligible());
        let gates = wide.lane_gates();
        assert!(!gates[0].holds());
        assert!(!gates[1].holds());
        // A zero-bit input passes every inequality but has no lanes.
        let empty = PipelineFormats::new(QFormat::new(0, 0), 2, 2);
        assert!(empty.lane_gates().iter().all(LaneGate::holds));
        assert!(!empty.lanes_eligible());
        // Q4.4 at n = 600 (ln = 10) passes every gate but lies outside the
        // proved grid, as does Q9.1 (i = 9).
        for outside in [
            PipelineFormats::new(QFormat::new(4, 4), 600, 64),
            PipelineFormats::new(QFormat::new(9, 1), 8, 8),
        ] {
            assert!(outside.lane_gates().iter().all(LaneGate::holds));
            assert!(!outside.lanes_eligible());
        }
        assert!(PipelineFormats::new(QFormat::new(4, 4), 512, 64).lanes_eligible());
    }
}
