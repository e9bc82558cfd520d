//! The symbolic op-graph of the scalar quantized pipeline, interpreted over
//! the interval domain.
//!
//! [`prove`] walks the exact operation sequence of the scalar datapath
//! (`DynamicPipeline::attend` in `crates/core/src/quantized/mod.rs`, the
//! Section III-B arithmetic of `a3_fixed::Fixed`) — quantize, full-precision
//! product, widening into the dot format, saturating add, max-subtraction,
//! LUT lookup, exponent-sum accumulation, `div_weight`, weighted output
//! accumulation, rounding into the output format — propagating an interval
//! through every intermediate and recording one [`Obligation`] per
//! container-fit or no-saturation claim the SIMD bit-identity argument rests
//! on.
//!
//! # What "safe" means
//!
//! A shape is **scalar-proved** when no saturating operation can clamp before
//! the final accumulation step of each module: the single allowed clamp is the
//! last dot-product addition (reachable only when every addend is the format
//! minimum — e.g. `(-2^t)^2 = 2^(2t)` exceeds `Q(2i).(2f)` by one raw unit),
//! which the SIMD kernels replicate bit-for-bit. It is **SIMD-proved** when
//! additionally every widened vector intermediate fits its lane container
//! (`i16` inputs, `i32` dots/scores/accumulators, `i64` LUT products).
//!
//! # The three lemmas the intervals lean on
//!
//! Pure interval propagation cannot see correlations between values; three
//! places need a side argument (each encoded as a dedicated, documented
//! transfer function in [`super::interval`]):
//!
//! 1. **Max-subtraction sign**: `dot - max_dot <= 0` because `max_dot` is the
//!    maximum over the same set. The prover does not need the sign for range
//!    safety (the syntactic hull `[min - max, max - min]` already fits the
//!    shifted format, whose one extra integer bit is exactly the headroom a
//!    difference of two `B`-bit values needs), but the LUT domain obligation
//!    uses the format range, which contains the true non-positive values.
//! 2. **Score ≤ exponent sum**: each score is one non-negative term of the
//!    sum it is later divided by, so the normalizer quotient is at most
//!    `2^(2f)` ([`Interval::div_weight_quotient`]). Valid only while the
//!    exponent sum has not saturated — i.e. after `exp-sum-no-saturation`
//!    is proved.
//! 3. **Weight budget**: the weights are floor-divisions sharing one
//!    denominator, so they sum to at most `2^(2f)` regardless of `n`
//!    ([`Interval::weighted_accumulate`]). Same side condition as lemma 2.
//!
//! # Gate redundancy
//!
//! Over any grid with `ld, ln >= 0`, gate 1 (`t <= 15`) is implied by gate 2
//! (`2t + ld <= 30` gives `t <= 15`), and gate 3 (`2f + t <= 30`) is implied
//! by gate 4 (`i + ln + 3f <= 31` gives `2f + t = i + 3f <= 31`, and a
//! weight-value product magnitude `2^(2f) * 2^t - 2^t` at `2f + t = 31` still
//! fits `i32`). Deleting gate 1 or 3 therefore opens no soundness hole in the
//! *conjunction* — which is exactly why [`verify_gates`] checks each gate
//! against its **own** obligation's counterexample shape rather than only
//! sweeping the conjunction: every gate deletion or constant edit is caught
//! with a named shape either way.

use std::fmt;

use a3_fixed::{ExpLut, LaneGate, PipelineFormats, QFormat};

use super::interval::Interval;

/// A pipeline shape: the input Q-format plus the log2 problem-size bounds the
/// per-stage formats are derived from (`ld = ceil_log2(d)`,
/// `ln = ceil_log2(n)`) — the four parameters every Section III-B stage
/// format is a function of.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape {
    /// Input integer bits `i`.
    pub int_bits: u32,
    /// Input fraction bits `f`.
    pub frac_bits: u32,
    /// `ceil_log2` of the embedding dimension the formats are sized for.
    pub ld: u32,
    /// `ceil_log2` of the row count the formats are sized for.
    pub ln: u32,
}

impl Shape {
    /// A shape from its four format-plan parameters.
    pub fn new(int_bits: u32, frac_bits: u32, ld: u32, ln: u32) -> Self {
        Self {
            int_bits,
            frac_bits,
            ld,
            ln,
        }
    }

    /// The largest embedding dimension the formats are sized for: `2^ld`.
    pub fn d_max(&self) -> u64 {
        1u64 << self.ld
    }

    /// The largest row count the formats are sized for: `2^ln`.
    pub fn n_max(&self) -> u64 {
        1u64 << self.ln
    }

    /// The input format `Q(i).(f)`.
    pub fn input_format(&self) -> QFormat {
        QFormat::new(self.int_bits, self.frac_bits)
    }

    /// The full Section III-B format plan for this shape (at its nominal
    /// `n = 2^ln`, `d = 2^ld` sizing).
    ///
    /// # Panics
    ///
    /// Panics if `n_max`/`d_max` exceed `usize` (impossible for `ld`/`ln`
    /// below 63).
    pub fn formats(&self) -> PipelineFormats {
        let n = usize::try_from(self.n_max()).expect("2^ln fits usize");
        let d = usize::try_from(self.d_max()).expect("2^ld fits usize");
        PipelineFormats::new(self.input_format(), n, d)
    }

    /// Stable display label, e.g. `Q4.4/ld6/ln9`.
    pub fn label(&self) -> String {
        format!(
            "Q{}.{}/ld{}/ln{}",
            self.int_bits, self.frac_bits, self.ld, self.ln
        )
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Which execution path an obligation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// The scalar pipeline's no-early-saturation claims.
    Scalar,
    /// The AVX2 kernels' lane-width claims.
    Simd,
}

impl Scope {
    /// Stable lower-case name used in the certificate.
    pub fn name(self) -> &'static str {
        match self {
            Scope::Scalar => "scalar",
            Scope::Simd => "simd",
        }
    }
}

/// One proof obligation: a derived interval that must lie within a required
/// one.
#[derive(Debug, Clone, Copy)]
pub struct Obligation {
    /// Stable identifier. The four obligations paired with eligibility gates
    /// reuse the gate's [`LaneGate::name`] verbatim.
    pub name: &'static str,
    /// Scalar-pipeline or SIMD-lane claim.
    pub scope: Scope,
    /// The interval the prover derived for the checked intermediate.
    pub derived: Interval,
    /// The container or format range it must fit.
    pub required: Interval,
    /// Human-readable description of `required`.
    pub required_desc: &'static str,
}

impl Obligation {
    /// Whether the derived interval fits the required one.
    pub fn proved(&self) -> bool {
        self.derived.within(self.required)
    }
}

/// The full proof attempt for one shape.
#[derive(Debug, Clone)]
pub struct ShapeProof {
    /// The shape that was analyzed.
    pub shape: Shape,
    /// The problem size the op-graph was driven at (normally `2^ln`).
    pub n_max: u64,
    /// The embedding size the op-graph was driven at (normally `2^ld`).
    pub d_max: u64,
    /// Every obligation, in op-graph order.
    pub obligations: Vec<Obligation>,
}

impl ShapeProof {
    /// Whether every scalar-scope obligation is proved (no early saturation).
    pub fn scalar_proved(&self) -> bool {
        self.obligations
            .iter()
            .filter(|o| o.scope == Scope::Scalar)
            .all(Obligation::proved)
    }

    /// Whether every obligation (scalar and SIMD) is proved.
    pub fn all_proved(&self) -> bool {
        self.obligations.iter().all(Obligation::proved)
    }

    /// The first unproved obligation, if any.
    pub fn counterexample(&self) -> Option<&Obligation> {
        self.obligations.iter().find(|o| !o.proved())
    }

    /// Looks up an obligation by name.
    pub fn obligation(&self, name: &str) -> Option<&Obligation> {
        self.obligations.iter().find(|o| o.name == name)
    }
}

const I16_RANGE: &str = "i16 container";
const I32_RANGE: &str = "i32 container";
const I64_RANGE: &str = "i64 container";

fn i16_range() -> Interval {
    Interval::new(i128::from(i16::MIN), i128::from(i16::MAX))
}

fn i32_range() -> Interval {
    Interval::new(i128::from(i32::MIN), i128::from(i32::MAX))
}

fn i64_range() -> Interval {
    Interval::new(i128::from(i64::MIN), i128::from(i64::MAX))
}

/// Proves a shape at its nominal sizing (`n = 2^ln`, `d = 2^ld`).
pub fn prove(shape: &Shape) -> ShapeProof {
    prove_sized(shape, shape.n_max(), shape.d_max())
}

/// Proves a shape with explicit problem-size overrides.
///
/// Passing `n_max > 2^ln` or `d_max > 2^ld` models a *mis-sized* pipeline —
/// formats derived for one size, driven at a larger one. These are the seeded
/// rejection cases the witness harness reproduces concretely.
pub fn prove_sized(shape: &Shape, n_max: u64, d_max: u64) -> ShapeProof {
    let (i, f) = (shape.int_bits, shape.frac_bits);
    let (ld, ln) = (shape.ld, shape.ln);
    let input = QFormat::new(i, f);
    let dot_f = QFormat::new(2 * i + ld, 2 * f);
    let shifted_f = QFormat::new(2 * i + ld + 1, 2 * f);
    let score_f = QFormat::new(0, 2 * f);
    let exp_sum_f = QFormat::new(ln, 2 * f);
    let weight_f = QFormat::new(0, 2 * f);
    let term_f = QFormat::new(i, 3 * f);
    let output_f = QFormat::new(i + ln, 3 * f);

    let mut obligations = Vec::new();
    let mut ob = |name, scope, derived: Interval, required: Interval, required_desc| {
        obligations.push(Obligation {
            name,
            scope,
            derived,
            required,
            required_desc,
        });
    };

    // --- Module 1: dot products -------------------------------------------
    // quantize clamps into the input format by design.
    let input_iv = Interval::format_range(input);
    ob(
        "input-raws-fit-i16",
        Scope::Simd,
        input_iv,
        i16_range(),
        I16_RANGE,
    );
    // mul_full is full precision and unclamped; its raws live in plain i64.
    let prod_iv = input_iv * input_iv;
    ob(
        "products-fit-i64",
        Scope::Scalar,
        prod_iv,
        i64_range(),
        I64_RANGE,
    );
    // The first d-1 saturating additions must not clamp. (The d-th may, in
    // the all-minima corner only; both pipelines saturate it identically.)
    let dot_partials = prod_iv.accumulate(d_max.saturating_sub(1));
    ob(
        "dot-partial-sums-in-format",
        Scope::Scalar,
        dot_partials,
        Interval::format_range(dot_f),
        "dot-product format range",
    );
    // The SIMD kernel forms the exact d-term sum in i32 lanes before clamping.
    let dot_full = prod_iv.accumulate(d_max);
    ob(
        "dot-sums-fit-i32",
        Scope::Simd,
        dot_full,
        i32_range(),
        I32_RANGE,
    );
    let (dot_iv, _) = dot_full.saturate(dot_f);

    // --- Module 2: exponents ----------------------------------------------
    // shifted = dot - max(dot), extended into one extra integer bit. The
    // syntactic difference hull must fit without clamping.
    // Interval subtraction is not `x - x = 0`: the minuend and subtrahend are
    // *different* dots drawn from the same range, so the hull is
    // [min - max, max - min].
    let minuend = dot_iv;
    let shifted_diff = minuend - dot_iv;
    ob(
        "shifted-sub-no-saturation",
        Scope::Scalar,
        shifted_diff,
        Interval::format_range(shifted_f),
        "shifted-dot format range",
    );
    ob(
        "shifted-diffs-fit-i32",
        Scope::Simd,
        shifted_diff,
        i32_range(),
        I32_RANGE,
    );
    let (shifted_iv, _) = shifted_diff.saturate(shifted_f);
    let _ = shifted_iv;

    // The two-half LUT: entries are exp(x <= 0) quantized to Q1.(2f+4), so
    // every entry lies in [0, 2^(2f+4)] (the analytic bound exported by
    // a3-fixed); the score is (upper * lower + half) >> shift, clamped to the
    // score format's max.
    let lut = ExpLut::two_half(shifted_f, score_f);
    let entry_bound = i128::from(lut.max_entry_raw());
    let entry_iv = Interval::new(0, entry_bound);
    ob(
        "lut-entries-fit-i32",
        Scope::Simd,
        entry_iv,
        i32_range(),
        I32_RANGE,
    );
    let entry_product = entry_iv * entry_iv;
    ob(
        "lut-products-fit-i64",
        Scope::Simd,
        entry_product,
        i64_range(),
        I64_RANGE,
    );
    let round_shift = 2 * lut.entry_format().frac_bits() - score_f.frac_bits();
    let rounded_hi = if round_shift == 0 {
        entry_product.hi()
    } else {
        (entry_product.hi() + (1i128 << (round_shift - 1))) >> round_shift
    };
    ob(
        "lut-rounded-products-fit-i32",
        Scope::Simd,
        Interval::new(0, rounded_hi),
        i32_range(),
        I32_RANGE,
    );
    // Gather safety: the upper index of the most negative input (magnitude
    // 2^total) is 2^upper_bits, the sentinel slot the materialization
    // appends; the lower index is masked to 2^lower_bits - 1.
    let (upper_count, _) = lut.table_entries();
    let physical_upper = i128::from(upper_count); // sentinel index == count
    ob(
        "lut-gather-index-bounded",
        Scope::Simd,
        Interval::new(0, physical_upper),
        Interval::new(0, physical_upper),
        "physical upper-table index range (sentinel included)",
    );
    // The post-clamp score: non-negative (entries are), at most the score
    // format's max by the definitional .min().
    let score_iv = Interval::new(0, i128::from(score_f.max_raw()));
    ob(
        "score-in-format",
        Scope::Scalar,
        score_iv,
        Interval::format_range(score_f),
        "score format range",
    );

    // Every exponent-sum addition (including the last) must stay in format:
    // a clamped softmax denominator corrupts every weight.
    let exp_sum_partials = score_iv.accumulate(n_max);
    ob(
        "exp-sum-no-saturation",
        Scope::Scalar,
        exp_sum_partials,
        Interval::format_range(exp_sum_f),
        "exp-sum format range",
    );
    ob(
        "exp-sum-fits-i32",
        Scope::Simd,
        Interval::format_range(exp_sum_f),
        i32_range(),
        I32_RANGE,
    );

    // --- Module 3: output -------------------------------------------------
    // Weight quotient: bounded by 2^(2f) via the score <= exp_sum lemma
    // (valid once exp-sum-no-saturation is proved); the definitional clamp
    // then narrows 2^(2f) to the weight format's 2^(2f) - 1.
    let weight_quotient = Interval::div_weight_quotient(2 * f);
    let (weight_iv, _) = weight_quotient.saturate(weight_f);
    let term_iv = weight_iv * input_iv;
    ob(
        "term-in-format",
        Scope::Scalar,
        term_iv,
        Interval::format_range(term_f),
        "weight-product format range",
    );
    ob(
        "weight-products-fit-i32",
        Scope::Simd,
        term_iv,
        i32_range(),
        I32_RANGE,
    );
    // round_to into the output format keeps the fraction (3f) and widens the
    // integer side; it must never clamp a single term.
    ob(
        "term-round-no-saturation",
        Scope::Scalar,
        term_iv,
        Interval::format_range(output_f),
        "output format range",
    );
    // The accumulator: sum of weighted values under the 2^(2f) weight budget
    // (lemma 3), which must stay in format through every partial sum.
    let acc_iv = Interval::weighted_accumulate(input_iv, 1i128 << (2 * f));
    ob(
        "output-accumulation-no-saturation",
        Scope::Scalar,
        acc_iv,
        Interval::format_range(output_f),
        "output format range",
    );
    // The SIMD accumulators clamp at the output format's bounds inside i32
    // lanes, so the format's whole range must fit the container.
    ob(
        "output-acc-fits-i32",
        Scope::Simd,
        Interval::format_range(output_f),
        i32_range(),
        I32_RANGE,
    );

    ShapeProof {
        shape: *shape,
        n_max,
        d_max,
        obligations,
    }
}

/// One entry of the prover's independent statement of the gate table: what a
/// gate must be named, what it must compute, and a shape that its obligation
/// rejects (the *necessity* witness for the gate).
pub struct RequiredGate {
    /// The gate's stable name (shared with [`LaneGate::name`] and the paired
    /// obligation).
    pub name: &'static str,
    /// The inclusive limit the deployed gate must use.
    pub limit: u32,
    /// Independently re-derived left-hand side.
    pub lhs: fn(&Shape) -> u32,
    /// A shape whose paired obligation is disproved; any correct gate table
    /// must reject it.
    pub counterexample: Shape,
}

fn lhs_input(s: &Shape) -> u32 {
    s.int_bits + s.frac_bits
}

fn lhs_dot(s: &Shape) -> u32 {
    2 * (s.int_bits + s.frac_bits) + s.ld
}

fn lhs_weight(s: &Shape) -> u32 {
    2 * s.frac_bits + (s.int_bits + s.frac_bits)
}

fn lhs_output(s: &Shape) -> u32 {
    s.int_bits + s.ln + 3 * s.frac_bits
}

/// The prover's own statement of the four gate inequalities, derived from the
/// obligations (not copied from `PipelineFormats::lane_gates`), plus one
/// necessity counterexample per gate. [`verify_gates`] cross-checks the
/// deployed table against this list in both directions.
pub const REQUIRED_GATES: [RequiredGate; 4] = [
    RequiredGate {
        name: "input-raws-fit-i16",
        limit: 15,
        lhs: lhs_input,
        // t = 16: raw range [-65536, 65535] overflows i16 lanes.
        counterexample: Shape {
            int_bits: 8,
            frac_bits: 8,
            ld: 0,
            ln: 0,
        },
    },
    RequiredGate {
        name: "dot-sums-fit-i32",
        limit: 30,
        lhs: lhs_dot,
        // 2t + ld = 31: the exact dot sum reaches 2^31 > i32::MAX.
        counterexample: Shape {
            int_bits: 4,
            frac_bits: 8,
            ld: 7,
            ln: 3,
        },
    },
    RequiredGate {
        name: "weight-products-fit-i32",
        limit: 30,
        lhs: lhs_weight,
        // 2f + t = 32: weight-value products reach (2^20 - 1) * 2^12 > i32::MAX.
        counterexample: Shape {
            int_bits: 2,
            frac_bits: 10,
            ld: 1,
            ln: 1,
        },
    },
    RequiredGate {
        name: "output-acc-fits-i32",
        limit: 31,
        lhs: lhs_output,
        // i + ln + 3f = 32: the output format spans [-2^32, 2^32 - 1].
        counterexample: Shape {
            int_bits: 4,
            frac_bits: 8,
            ld: 1,
            ln: 4,
        },
    },
];

/// The deployed gate table for a shape — exactly what the SIMD backend's
/// `formats_eligible` evaluates.
pub fn deployed_gates(shape: &Shape) -> Vec<LaneGate> {
    shape.formats().lane_gates().to_vec()
}

/// The exhaustive proved grid the sweep covers, read from the bounds
/// [`PipelineFormats::lanes_eligible`] also enforces at dispatch: every input
/// format `Q0.1`–`Q8.8` crossed with `ld <= 6` (`d <= 64`, the paper's
/// embedding bound) and `ln <= 9` (`n <= 512`).
pub fn admissible_grid() -> Vec<Shape> {
    let mut shapes = Vec::new();
    for int_bits in PipelineFormats::GRID_INT_BITS {
        for frac_bits in PipelineFormats::GRID_FRAC_BITS {
            for ld in PipelineFormats::GRID_LD {
                for ln in PipelineFormats::GRID_LN {
                    shapes.push(Shape::new(int_bits, frac_bits, ld, ln));
                }
            }
        }
    }
    shapes
}

/// Cross-checks a deployed gate table against [`REQUIRED_GATES`]: every
/// required gate must be present, use the same left-hand side and limit on
/// every grid shape, reject its necessity counterexample, and accept the
/// paper shape. Returns human-readable failures (empty means verified).
pub fn verify_gates<G>(gates_for: G) -> Vec<String>
where
    G: Fn(&Shape) -> Vec<LaneGate>,
{
    let paper = Shape::new(4, 4, 6, 9);
    let grid = admissible_grid();
    let mut failures = Vec::new();
    for required in &REQUIRED_GATES {
        let counter = &required.counterexample;
        let proof = prove(counter);
        let disproved = proof.obligation(required.name).is_some_and(|o| !o.proved());
        if !disproved {
            failures.push(format!(
                "internal: counterexample {} for gate `{}` no longer disproves its obligation",
                counter.label(),
                required.name
            ));
            continue;
        }
        let Some(gate) = gates_for(counter)
            .into_iter()
            .find(|g| g.name == required.name)
        else {
            failures.push(format!(
                "gate `{}` is missing from the eligibility set; counterexample {}: \
                 obligation `{}` is disproved yet no gate rejects the shape",
                required.name,
                counter.label(),
                required.name
            ));
            continue;
        };
        if gate.holds() {
            failures.push(format!(
                "gate `{}` accepts counterexample {} whose obligation `{}` is disproved",
                required.name,
                counter.label(),
                required.name
            ));
        }
        if gate.limit != required.limit {
            failures.push(format!(
                "gate `{}` uses limit {} where the proof requires {}",
                required.name, gate.limit, required.limit
            ));
        }
        for shape in &grid {
            let expected = (required.lhs)(shape);
            let deployed = gates_for(shape)
                .into_iter()
                .find(|g| g.name == required.name);
            match deployed {
                Some(g) if g.lhs == expected => {}
                Some(g) => {
                    failures.push(format!(
                        "gate `{}` computes lhs {} on {} where the proof derives {}",
                        required.name,
                        g.lhs,
                        shape.label(),
                        expected
                    ));
                    break;
                }
                None => {
                    failures.push(format!(
                        "gate `{}` is missing from the eligibility set on {}",
                        required.name,
                        shape.label()
                    ));
                    break;
                }
            }
        }
        if let Some(g) = gates_for(&paper)
            .into_iter()
            .find(|g| g.name == required.name)
        {
            if !g.holds() {
                failures.push(format!(
                    "gate `{}` rejects the paper shape {}",
                    required.name,
                    paper.label()
                ));
            }
        }
    }
    failures
}

/// Result of sweeping the gate conjunction against the prover over
/// [`admissible_grid`].
#[derive(Debug, Clone)]
pub struct CrossCheck {
    /// Number of grid shapes swept.
    pub checked: usize,
    /// Shapes the gate conjunction admits to the SIMD path.
    pub simd_eligible: usize,
    /// Shapes whose scalar pipeline is proved saturation-free.
    pub scalar_proved: usize,
    /// Shapes that pass the gates but fail the proof — each one is a
    /// CI-failing soundness hole. Labels include the failed obligation.
    pub soundness_holes: Vec<String>,
    /// Shapes that fail the gates but prove clean — reported completeness
    /// gaps (the gates are allowed to be conservative).
    pub completeness_gaps: Vec<String>,
}

/// Sweeps the admissible grid, comparing the gate conjunction (all gates in
/// `gates_for` hold, and the input is at least one bit wide) against the full
/// proof, both ways.
pub fn cross_check<G>(gates_for: G) -> CrossCheck
where
    G: Fn(&Shape) -> Vec<LaneGate>,
{
    let mut result = CrossCheck {
        checked: 0,
        simd_eligible: 0,
        scalar_proved: 0,
        soundness_holes: Vec::new(),
        completeness_gaps: Vec::new(),
    };
    for shape in admissible_grid() {
        result.checked += 1;
        let gates_hold =
            shape.input_format().total_bits() >= 1 && gates_for(&shape).iter().all(LaneGate::holds);
        let proof = prove(&shape);
        if proof.scalar_proved() {
            result.scalar_proved += 1;
        }
        if gates_hold {
            result.simd_eligible += 1;
        }
        match (gates_hold, proof.all_proved()) {
            (true, false) => {
                let failed = proof.counterexample().map_or("<none>", |o| o.name);
                result
                    .soundness_holes
                    .push(format!("{} (fails `{}`)", shape.label(), failed));
            }
            (false, true) => result.completeness_gaps.push(shape.label()),
            _ => {}
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_shape_proves_everything() {
        let proof = prove(&Shape::new(4, 4, 6, 9));
        assert!(proof.all_proved(), "failed: {:?}", proof.counterexample());
        assert_eq!(proof.obligations.len(), 18);
    }

    #[test]
    fn oversized_d_breaks_dot_partials() {
        let shape = Shape::new(4, 4, 2, 3);
        assert!(prove(&shape).scalar_proved());
        let mis_sized = prove_sized(&shape, shape.n_max(), 2 * shape.d_max());
        assert!(!mis_sized.scalar_proved());
        assert_eq!(
            mis_sized.counterexample().map(|o| o.name),
            Some("dot-partial-sums-in-format")
        );
    }

    #[test]
    fn oversized_n_breaks_exp_sum() {
        let shape = Shape::new(4, 4, 3, 2);
        let mis_sized = prove_sized(&shape, 2 * shape.n_max(), shape.d_max());
        assert!(!mis_sized.scalar_proved());
        assert!(mis_sized
            .obligation("exp-sum-no-saturation")
            .is_some_and(|o| !o.proved()));
    }

    #[test]
    fn deployed_gate_table_verifies() {
        assert_eq!(verify_gates(deployed_gates), Vec::<String>::new());
    }

    #[test]
    fn deleting_any_gate_is_caught_with_a_named_shape() {
        for required in &REQUIRED_GATES {
            let failures = verify_gates(|s: &Shape| {
                deployed_gates(s)
                    .into_iter()
                    .filter(|g| g.name != required.name)
                    .collect()
            });
            assert!(
                failures.iter().any(|f| f.contains(required.name)),
                "deleting `{}` went unnoticed",
                required.name
            );
        }
    }

    #[test]
    fn sweep_has_no_soundness_holes_and_known_gaps() {
        let sweep = cross_check(deployed_gates);
        assert_eq!(sweep.checked, 5040);
        assert!(
            sweep.soundness_holes.is_empty(),
            "{:?}",
            sweep.soundness_holes
        );
        assert_eq!(sweep.scalar_proved, sweep.checked);
        // The one conservative rejection in the grid: Q7.8/ld0/ln0, where
        // 2f + t = 31 still fits i32 (max product 2^31 - 2^15) but gate 3
        // rounds the bound to a power of two.
        assert_eq!(sweep.completeness_gaps, vec!["Q7.8/ld0/ln0".to_string()]);
    }

    #[test]
    fn weakening_a_tight_gate_opens_holes() {
        for name in ["dot-sums-fit-i32", "output-acc-fits-i32"] {
            let sweep = cross_check(|s: &Shape| {
                deployed_gates(s)
                    .into_iter()
                    .filter(|g| g.name != name)
                    .collect()
            });
            assert!(
                !sweep.soundness_holes.is_empty(),
                "dropping `{name}` opened no hole in the conjunction sweep"
            );
        }
    }
}
