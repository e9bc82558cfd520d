//! Concrete witnesses for rejected shapes.
//!
//! The prover's "unsafe" verdicts are validated by *execution*: for every
//! seeded mis-sized case, [`find_witness`] drives the real `a3-fixed` scalar
//! datapath (the `Fixed` operations whose raw-integer arithmetic `a3-core`'s
//! scalar quantized pipeline performs) on an adversarial input memory and
//! checks the debug saturation counter recorded a clamp before the final
//! accumulation — the prover said the shape can saturate early, and here is
//! an input that does.
//!
//! Two memory constructions cover the two saturation families:
//!
//! * **All-minimum keys and query**: every product is the corner
//!   `(-2^t)^2 = 2^(2t)`, the largest addend the dot accumulator can see, so
//!   an over-long reduction (`d > 2^ld`) clamps from partial-sum `2^ld`
//!   onward — strictly before the final addition.
//! * **Uniform keys** (all dots equal): the max-subtraction yields zero for
//!   every row, the LUT returns its maximum score for every row, and an
//!   over-tall column (`n > 2^ln`) clamps the exponent sum once the partial
//!   sums pass `2^(ln + 2f) - 1`.
//!
//! [`random_memory`] draws values uniformly from the *representable value*
//! range `[-max_value, max_value]` (which excludes the single asymmetric raw
//! minimum `-2^t`). On such memories a scalar-proved shape performs no
//! counted clamp at all — the property the proptest harness checks.

use a3_fixed::{
    reset_saturation_count, saturation_count, saturation_counting_enabled, ExpLut, Fixed, QFormat,
};

use super::pipeline::{prove_sized, Shape};

/// A pipeline input memory: `(keys, values, query)` as row-major `f64`s.
pub type Memory = (Vec<f64>, Vec<f64>, Vec<f64>);

/// A named adversarial memory construction.
type MemoryBuilder = fn(&Shape, usize, usize) -> Memory;

/// A pipeline driven at a larger problem size than its formats were derived
/// for — the seeded rejection family the witness harness covers.
#[derive(Debug, Clone, Copy)]
pub struct MisSizedCase {
    /// The format plan (sized for `2^ld` x `2^ln`).
    pub shape: Shape,
    /// Actual rows driven.
    pub n: u64,
    /// Actual embedding dimension driven.
    pub d: u64,
}

/// A reproduced early saturation: the memory description and the number of
/// counted clamp events it triggered.
#[derive(Debug, Clone)]
pub struct Witness {
    /// The mis-sized case that saturated.
    pub case: MisSizedCase,
    /// The obligation the prover disproved for this case.
    pub failed_obligation: &'static str,
    /// Which adversarial memory construction reproduced the saturation.
    pub memory: &'static str,
    /// Debug saturation-counter events observed during the drive.
    pub saturation_events: u64,
}

/// The seeded rejected cases the self-test and CI reproduce witnesses for:
/// an over-long reduction, an over-tall column, and both at once.
pub fn seeded_rejected_cases() -> Vec<MisSizedCase> {
    vec![
        MisSizedCase {
            shape: Shape::new(4, 4, 2, 3),
            n: 8,
            d: 8, // 2 * 2^ld: dot partial sums overflow from step 4 on
        },
        MisSizedCase {
            shape: Shape::new(4, 4, 3, 2),
            n: 8, // 2 * 2^ln: the exponent sum clamps near row 5
            d: 8,
        },
        MisSizedCase {
            shape: Shape::new(2, 6, 1, 1),
            n: 4,
            d: 4, // both oversized
        },
    ]
}

/// Runs the scalar fixed-point attention datapath for one query over an
/// `n x d` memory and returns the number of saturation-counter events.
///
/// This mirrors `a3-core`'s scalar quantized pipeline operation for
/// operation with runtime formats: quantize, `mul_full`, widen into the dot format,
/// saturating adds, max-subtraction in the shifted format, the two-half
/// exponent LUT, exponent-sum accumulation, `div_weight`, weighted value
/// accumulation through `round_to`. Quantization clamps (inputs outside the
/// representable range) happen before the counter is reset, so only datapath
/// saturation is reported.
///
/// # Panics
///
/// Panics if the slice lengths do not match `n`/`d` or `d == 0`.
pub fn drive_pipeline(
    shape: &Shape,
    n: usize,
    d: usize,
    keys: &[f64],
    values: &[f64],
    query: &[f64],
) -> u64 {
    assert!(d > 0, "embedding dimension must be positive");
    assert_eq!(keys.len(), n * d, "keys must be n*d");
    assert_eq!(values.len(), n * d, "values must be n*d");
    assert_eq!(query.len(), d, "query must be d");
    let (i, f) = (shape.int_bits, shape.frac_bits);
    let input = shape.input_format();
    let dot_f = QFormat::new(2 * i + shape.ld, 2 * f);
    let shifted_f = QFormat::new(2 * i + shape.ld + 1, 2 * f);
    let score_f = QFormat::new(0, 2 * f);
    let exp_sum_f = QFormat::new(shape.ln, 2 * f);
    let output_f = QFormat::new(i + shape.ln, 3 * f);
    let lut = ExpLut::two_half(shifted_f, score_f);

    let qk: Vec<Fixed> = keys.iter().map(|&x| Fixed::quantize(x, input)).collect();
    let qv: Vec<Fixed> = values.iter().map(|&x| Fixed::quantize(x, input)).collect();
    let qq: Vec<Fixed> = query.iter().map(|&x| Fixed::quantize(x, input)).collect();

    reset_saturation_count();

    // Module 1: dot products. The product raw is reinterpreted in the dot
    // format (same fraction, wider integer side) through a saturating store,
    // exactly like the scalar pipeline's clamped dot accumulation.
    let mut dots: Vec<Fixed> = Vec::with_capacity(n);
    for row in qk.chunks_exact(d) {
        let mut dot = Fixed::zero(dot_f);
        for (k, q) in row.iter().zip(&qq) {
            let product = k.mul_full(*q);
            let widened = Fixed::saturating_from_raw(product.raw(), dot_f);
            dot = dot.saturating_add(widened);
        }
        dots.push(dot);
    }
    let max_dot = dots.iter().copied().fold(Fixed::min(dot_f), |acc, dot| {
        if dot.raw() > acc.raw() {
            dot
        } else {
            acc
        }
    });

    // Module 2: max-subtraction and the exponent LUT.
    let mut scores: Vec<Fixed> = Vec::with_capacity(n);
    let mut exp_sum = Fixed::zero(exp_sum_f);
    for &dot in &dots {
        let shifted = dot
            .extend_to(shifted_f)
            .saturating_sub(max_dot.extend_to(shifted_f));
        let score = Fixed::from_raw(lut.eval_nonpos_raw(shifted.raw()), score_f);
        exp_sum = exp_sum.saturating_add(score.extend_to(exp_sum_f));
        scores.push(score);
    }

    // Module 3: normalize and accumulate the weighted values.
    let mut acc: Vec<Fixed> = vec![Fixed::zero(output_f); d];
    for (score, value_row) in scores.iter().zip(qv.chunks_exact(d)) {
        let weight = if exp_sum.is_zero() {
            Fixed::zero(score_f)
        } else {
            score.div_weight(exp_sum)
        };
        for (slot, value) in acc.iter_mut().zip(value_row) {
            let term = weight.mul_full(*value);
            *slot = slot.saturating_add(term.round_to(output_f));
        }
    }

    saturation_count()
}

/// The all-minimum memory: keys and query at the format's most negative value
/// (raw `-2^t`), values at the maximum. Maximizes every dot-product addend.
fn all_minimum_memory(shape: &Shape, n: usize, d: usize) -> Memory {
    let input = shape.input_format();
    let min = input.min_value();
    let max = input.max_value();
    (vec![min; n * d], vec![max; n * d], vec![min; d])
}

/// The uniform-key memory: all keys and the query at zero (every dot is zero,
/// every score maximal), values at the maximum.
fn uniform_key_memory(shape: &Shape, n: usize, d: usize) -> Memory {
    let max = shape.input_format().max_value();
    (vec![0.0; n * d], vec![max; n * d], vec![0.0; d])
}

/// A deterministic memory with every value drawn uniformly from
/// `[-max_value, max_value]` of the input format (xorshift64, so repeated
/// calls with one seed are reproducible with no RNG dependency).
pub fn random_memory(shape: &Shape, n: usize, d: usize, seed: u64) -> Memory {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let max = shape.input_format().max_value();
    let mut draw = |count: usize| -> Vec<f64> {
        (0..count)
            .map(|_| {
                let unit = (next() >> 11) as f64 / (1u64 << 53) as f64;
                (2.0 * unit - 1.0) * max
            })
            .collect()
    };
    let keys = draw(n * d);
    let values = draw(n * d);
    let query = draw(d);
    (keys, values, query)
}

/// Reproduces a concrete early saturation for a case the prover rejects.
///
/// Returns `None` when saturation counting is compiled out (release builds),
/// when the prover in fact proves the case (nothing to witness), or when
/// neither seeded memory triggers a counted clamp (a completeness gap in the
/// witness constructions — the self-test treats that as a failure for the
/// seeded cases).
pub fn find_witness(case: &MisSizedCase) -> Option<Witness> {
    if !saturation_counting_enabled() {
        return None;
    }
    let proof = prove_sized(&case.shape, case.n, case.d);
    let failed = proof.counterexample()?.name;
    // Route exp-sum failures to the uniform memory: on the all-minimum memory
    // a nominal-length reduction performs its one *allowed* final-dot clamp,
    // which must not be claimed as an early-saturation witness.
    let candidates: &[(&str, MemoryBuilder)] = match failed {
        "exp-sum-no-saturation" => &[("uniform-keys", uniform_key_memory)],
        _ => &[
            ("all-minimum", all_minimum_memory),
            ("uniform-keys", uniform_key_memory),
        ],
    };
    let n = usize::try_from(case.n).expect("case row count fits usize");
    let d = usize::try_from(case.d).expect("case embedding size fits usize");
    for (memory, build) in candidates {
        let (keys, values, query) = build(&case.shape, n, d);
        let saturation_events = drive_pipeline(&case.shape, n, d, &keys, &values, &query);
        if saturation_events > 0 {
            return Some(Witness {
                case: *case,
                failed_obligation: failed,
                memory,
                saturation_events,
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use a3_fixed::PipelineFormats;

    #[test]
    fn every_seeded_case_is_rejected_and_witnessed() {
        for case in seeded_rejected_cases() {
            let proof = prove_sized(&case.shape, case.n, case.d);
            assert!(
                !proof.scalar_proved(),
                "seeded case {} n={} d={} unexpectedly proves",
                case.shape,
                case.n,
                case.d
            );
            if !saturation_counting_enabled() {
                continue;
            }
            let witness = find_witness(&case).unwrap_or_else(|| {
                panic!(
                    "no witness for seeded case {} n={} d={}",
                    case.shape, case.n, case.d
                )
            });
            assert!(witness.saturation_events > 0);
        }
    }

    #[test]
    fn nominal_sizing_triggers_no_saturation_on_random_memory() {
        if !saturation_counting_enabled() {
            return;
        }
        let shape = Shape::new(4, 4, 2, 3);
        let (n, d) = (8, 4);
        for seed in 1..=8u64 {
            let (keys, values, query) = random_memory(&shape, n, d, seed);
            assert_eq!(drive_pipeline(&shape, n, d, &keys, &values, &query), 0);
        }
    }

    #[test]
    fn drive_matches_format_plan_scales() {
        // The runtime formats built here must agree with PipelineFormats for
        // the nominal sizing, so the drive exercises the deployed plan.
        let shape = Shape::new(4, 4, 2, 3);
        let plan = PipelineFormats::new(shape.input_format(), 8, 4);
        assert_eq!(plan.dot_product(), QFormat::new(10, 8));
        assert_eq!(plan.output(), QFormat::new(7, 12));
    }
}
