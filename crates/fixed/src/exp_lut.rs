//! Lookup-table exponentiation (paper Section III-A, Module 2).
//!
//! The exponent-computation module of A3 never evaluates `exp` directly. Instead it
//! exploits two facts:
//!
//! 1. After subtracting the running maximum, every input is non-positive, so the result
//!    of `exp` is in `(0, 1]` and cannot overflow a fixed-point fraction.
//! 2. `exp(a + b) = exp(a) * exp(b)`, so a wide input can be split into an upper and a
//!    lower bit-field and looked up in two much smaller tables whose outputs are
//!    multiplied — e.g. a 16-bit input needs two 256-entry tables instead of one
//!    65 536-entry table.
//!
//! [`ExpLut`] models this datapath bit-accurately. Table entries are themselves
//! quantized (to `Q1.(frac+guard)` so that `exp(0) = 1` is representable exactly), the
//! two looked-up entries are multiplied in fixed point, and the product is rounded to
//! the score format. The [`ExpLutKind::Single`] and [`ExpLutKind::FloatReference`]
//! variants exist for the ablation study comparing table organisations.
//!
//! For the serving hot path, [`ExpLut::materialize`] precomputes the two-half tables
//! into an [`ExpLutTables`] value that evaluates on raw integers with two lookups, one
//! multiply and one rounding shift — exactly what the hardware does per input, and
//! bit-identical to the lazy [`ExpLut::eval`] path.

use serde::{Deserialize, Serialize};

use crate::cast;
use crate::{Fixed, FixedError, QFormat};

/// Which exponent-evaluation datapath to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExpLutKind {
    /// The paper's design: two half-width tables and one multiplier.
    TwoHalf,
    /// A single table indexed by the full input width (ablation baseline; exponentially
    /// larger table).
    Single,
    /// Direct floating-point `exp` followed by output quantization (software reference).
    FloatReference,
}

/// Configuration of an exponent lookup table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExpLutConfig {
    /// Format of the (non-positive) input, i.e. the max-subtracted dot product.
    pub input_format: QFormat,
    /// Format of the output score (a pure fraction, `Q0.2f` in the paper).
    pub output_format: QFormat,
    /// Extra fraction guard bits kept in the table entries before the final rounding.
    pub entry_guard_bits: u32,
    /// Table organisation.
    pub kind: ExpLutKind,
}

impl ExpLutConfig {
    /// The paper's configuration for a given input/output format pair: two-half tables
    /// with 4 guard bits in the entries.
    pub fn paper(input_format: QFormat, output_format: QFormat) -> Self {
        Self {
            input_format,
            output_format,
            entry_guard_bits: 4,
            kind: ExpLutKind::TwoHalf,
        }
    }
}

/// Accuracy / size report for an exponent lookup table (used by the ablation experiment).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExpLutReport {
    /// Total number of table entries that would be stored in SRAM/ROM.
    pub table_entries: u64,
    /// Maximum absolute error versus `f64::exp` over the sampled inputs.
    pub max_abs_error: f64,
    /// Mean absolute error versus `f64::exp` over the sampled inputs.
    pub mean_abs_error: f64,
    /// Number of sampled inputs.
    pub samples: usize,
}

/// Bit-accurate model of the exponent lookup datapath.
///
/// ```
/// use a3_fixed::{ExpLut, ExpLutConfig, Fixed, QFormat};
/// let input = QFormat::new(15, 8);
/// let output = QFormat::new(0, 8);
/// let lut = ExpLut::new(ExpLutConfig::paper(input, output));
/// let x = Fixed::quantize(-1.0, input);
/// let y = lut.eval(x).unwrap();
/// assert!((y.to_f64() - (-1.0f64).exp()).abs() < 0.01);
/// ```
#[derive(Debug, Clone)]
pub struct ExpLut {
    config: ExpLutConfig,
    entry_format: QFormat,
    lower_bits: u32,
    upper_bits: u32,
}

impl ExpLut {
    /// Widest input format (in total magnitude bits) that [`ExpLut::materialize`]
    /// will expand into physical tables. The paper-scale pipeline needs 23 bits;
    /// the cap only exists to keep pathological configurations from allocating
    /// gigabyte tables.
    pub const MAX_MATERIALIZED_INPUT_BITS: u32 = 26;

    /// Builds a lookup-table model from a configuration.
    pub fn new(config: ExpLutConfig) -> Self {
        let total = config.input_format.total_bits();
        // Split as evenly as possible; the upper half gets the extra bit when odd.
        let lower_bits = total / 2;
        let upper_bits = total - lower_bits;
        let entry_format = QFormat::new(
            1,
            config.output_format.frac_bits() + config.entry_guard_bits,
        );
        Self {
            config,
            entry_format,
            lower_bits,
            upper_bits,
        }
    }

    /// Convenience constructor for the paper's two-half design.
    pub fn two_half(input_format: QFormat, output_format: QFormat) -> Self {
        Self::new(ExpLutConfig::paper(input_format, output_format))
    }

    /// Convenience constructor for the single-table ablation variant.
    pub fn single(input_format: QFormat, output_format: QFormat) -> Self {
        Self::new(ExpLutConfig {
            kind: ExpLutKind::Single,
            ..ExpLutConfig::paper(input_format, output_format)
        })
    }

    /// Convenience constructor for the floating-point reference variant.
    pub fn float_reference(input_format: QFormat, output_format: QFormat) -> Self {
        Self::new(ExpLutConfig {
            kind: ExpLutKind::FloatReference,
            ..ExpLutConfig::paper(input_format, output_format)
        })
    }

    /// The configuration this model was built from.
    pub fn config(&self) -> &ExpLutConfig {
        &self.config
    }

    /// Number of entries in the (upper, lower) tables. For the single-table variant the
    /// second element is zero; for the float reference both are zero.
    pub fn table_entries(&self) -> (u64, u64) {
        match self.config.kind {
            ExpLutKind::TwoHalf => (1u64 << self.upper_bits, 1u64 << self.lower_bits),
            ExpLutKind::Single => (1u64 << self.config.input_format.total_bits(), 0),
            ExpLutKind::FloatReference => (0, 0),
        }
    }

    /// The fixed-point format of the stored ROM entries
    /// (`Q1.(output_frac + guard)` for the paper configuration). Range-prover
    /// metadata: together with [`ExpLut::max_entry_raw`] it bounds every table
    /// lookup without enumerating the tables.
    pub fn entry_format(&self) -> QFormat {
        self.entry_format
    }

    /// The largest raw value any table entry can take: `exp(0) = 1` quantized
    /// to the entry format, i.e. exactly `2^entry_frac`. Every other entry is
    /// `exp(x)` for some `x < 0` and therefore strictly smaller; all entries
    /// are non-negative. The range prover uses this analytic bound for formats
    /// too wide to materialize.
    pub fn max_entry_raw(&self) -> i64 {
        Fixed::quantize(1.0, self.entry_format).raw()
    }

    /// Evaluates `exp(x)` for a non-positive fixed-point `x` in the configured input
    /// format, returning the score in the configured output format.
    ///
    /// # Errors
    ///
    /// * [`FixedError::FormatMismatch`] if `x` is not in the configured input format.
    /// * [`FixedError::PositiveExponentInput`] if `x > 0` (the hardware can never see a
    ///   positive value here because the maximum has been subtracted).
    pub fn eval(&self, x: Fixed) -> Result<Fixed, FixedError> {
        if x.format() != self.config.input_format {
            return Err(FixedError::FormatMismatch {
                lhs: x.format(),
                rhs: self.config.input_format,
            });
        }
        if x.raw() > 0 {
            return Err(FixedError::PositiveExponentInput { value: x.to_f64() });
        }
        Ok(Fixed::from_raw(
            self.eval_nonpos_raw(x.raw()),
            self.config.output_format,
        ))
    }

    /// Evaluates `exp` directly on a raw input value, skipping the format and sign
    /// checks that [`ExpLut::eval`] performs. This is the single implementation all
    /// evaluation paths share, so it is bit-identical to `eval` by construction.
    ///
    /// The caller must guarantee `raw` is non-positive and within the input format's
    /// raw range (both hold by construction after the pipeline's max-subtraction);
    /// violations are caught by `debug_assert` only.
    pub fn eval_nonpos_raw(&self, raw: i64) -> i64 {
        debug_assert!(raw <= 0, "exponent input must be non-positive");
        debug_assert!(
            raw >= self.config.input_format.min_raw(),
            "exponent input below the input format range"
        );
        let result = match self.config.kind {
            ExpLutKind::FloatReference => self.input_value(raw).exp(),
            ExpLutKind::Single => self.quantized_entry(self.input_value(raw)),
            ExpLutKind::TwoHalf => {
                let magnitude = cast::nonpos_magnitude(raw);
                let lower_mask = (1u64 << self.lower_bits) - 1;
                let lower_index = cast::table_index(magnitude & lower_mask);
                let upper_index = cast::table_index(magnitude >> self.lower_bits);
                // The hardware multiplies the two table outputs in fixed point.
                let a = Fixed::from_raw(self.upper_entry_raw(upper_index), self.entry_format);
                let b = Fixed::from_raw(self.lower_entry_raw(lower_index), self.entry_format);
                a.mul_full(b).to_f64()
            }
        };
        Fixed::quantize(result, self.config.output_format).raw()
    }

    /// Precomputes the two-half tables into a raw-integer evaluator for the serving
    /// hot path. Returns `None` for the single-table and float-reference ablation
    /// variants and for input formats wider than
    /// [`ExpLut::MAX_MATERIALIZED_INPUT_BITS`] (which would allocate unreasonable
    /// tables — the lazy [`ExpLut::eval`] path still works there).
    pub fn materialize(&self) -> Option<ExpLutTables> {
        if self.config.kind != ExpLutKind::TwoHalf {
            return None;
        }
        if self.config.input_format.total_bits() > Self::MAX_MATERIALIZED_INPUT_BITS {
            return None;
        }
        // The final rounding shift is only exact while the entry product fits the
        // f64 mantissa that the lazy path rounds through.
        if 2 * (self.entry_format.total_bits() + 1) > 52 {
            return None;
        }
        // One sentinel entry past the nominal table: the most negative input
        // (`raw = -2^total`) has magnitude 2^total, whose upper field is 2^upper_bits.
        // Every entry lies in `[0, 2^entry_frac]` and the mantissa check above
        // caps `entry_frac` at 24, so the entries fit `i32` (checked anyway).
        let upper: Vec<i32> = (0..=(1usize << self.upper_bits))
            .map(|index| i32::try_from(self.upper_entry_raw(index)).ok())
            .collect::<Option<_>>()?;
        let lower: Vec<i32> = (0..(1usize << self.lower_bits))
            .map(|index| i32::try_from(self.lower_entry_raw(index)).ok())
            .collect::<Option<_>>()?;
        Some(ExpLutTables {
            lower_bits: self.lower_bits,
            round_shift: 2 * self.entry_format.frac_bits() - self.config.output_format.frac_bits(),
            out_max_raw: self.config.output_format.max_raw(),
            upper_range: entry_range(&upper),
            lower_range: entry_range(&lower),
            upper,
            lower,
        })
    }

    /// Evaluates `exp(x)` for an arbitrary (clamped, quantized) floating-point input and
    /// returns the result as `f64`. This is the convenience path used by the software
    /// model of the approximate pipeline.
    pub fn eval_f64(&self, x: f64) -> f64 {
        // Quantizing the clamped (hence non-positive, NaN maps to zero) value always
        // lands inside the input format's range, so this takes the shared raw path
        // directly — bit-identical to `eval` without its fallible checks.
        let clamped = x.min(0.0);
        let q = Fixed::quantize(clamped, self.config.input_format);
        Fixed::from_raw(self.eval_nonpos_raw(q.raw()), self.config.output_format).to_f64()
    }

    /// The floating-point value a raw input encodes.
    fn input_value(&self, raw: i64) -> f64 {
        cast::raw_to_f64(raw) * self.config.input_format.resolution()
    }

    /// What a single ROM entry stores for input value `x`: `exp(x)` quantized to the
    /// entry format.
    fn quantized_entry(&self, x: f64) -> f64 {
        Fixed::quantize(x.exp(), self.entry_format).to_f64()
    }

    /// Raw upper-table entry for an upper bit-field value.
    fn upper_entry_raw(&self, index: usize) -> i64 {
        let magnitude = cast::index_to_raw_magnitude(index) << self.lower_bits;
        let value = -cast::raw_to_f64(magnitude) * self.config.input_format.resolution();
        Fixed::quantize(value.exp(), self.entry_format).raw()
    }

    /// Raw lower-table entry for a lower bit-field value.
    fn lower_entry_raw(&self, index: usize) -> i64 {
        let magnitude = cast::index_to_raw_magnitude(index);
        let value = -cast::raw_to_f64(magnitude) * self.config.input_format.resolution();
        Fixed::quantize(value.exp(), self.entry_format).raw()
    }

    /// Sweeps `samples` evenly spaced non-positive inputs over `[lo, 0]` and reports the
    /// error of this datapath versus `f64::exp`.
    pub fn report(&self, lo: f64, samples: usize) -> ExpLutReport {
        assert!(lo <= 0.0, "sweep lower bound must be non-positive");
        assert!(samples >= 2, "need at least two samples");
        let mut max_err: f64 = 0.0;
        let mut sum_err = 0.0;
        for k in 0..samples {
            let x = lo * (1.0 - cast::count_to_f64(k) / cast::count_to_f64(samples - 1));
            let approx = self.eval_f64(x);
            let exact = x.exp();
            let err = (approx - exact).abs();
            max_err = max_err.max(err);
            sum_err += err;
        }
        let (a, b) = self.table_entries();
        ExpLutReport {
            table_entries: a + b,
            max_abs_error: max_err,
            mean_abs_error: sum_err / cast::count_to_f64(samples),
            samples,
        }
    }
}

/// Materialized two-half exponent tables that evaluate on raw integers: two lookups,
/// one integer multiply, one rounding shift and one clamp — the per-input work of the
/// hardware's exponent module, bit-identical to [`ExpLut::eval`] on the same
/// configuration (asserted exhaustively by the crate's tests).
///
/// The tables depend only on the [`ExpLutConfig`], never on a memory's rows, so
/// one materialization can serve every memory prepared with that configuration.
/// Entries are stored as `i32`, the width both the scalar loop (which widens
/// each to `i64` before the product) and the vector gathers read.
#[derive(Debug, Clone)]
pub struct ExpLutTables {
    lower_bits: u32,
    round_shift: u32,
    out_max_raw: i64,
    upper_range: (i64, i64),
    lower_range: (i64, i64),
    upper: Vec<i32>,
    lower: Vec<i32>,
}

impl ExpLutTables {
    /// Evaluates `exp` on a raw input value in the source input format.
    ///
    /// The caller must guarantee `raw` is non-positive and within the input format's
    /// raw range, as after the pipeline's max-subtraction.
    ///
    /// # Panics
    ///
    /// A `raw` below the input format's `min_raw` panics on table-bounds in debug and
    /// release builds alike; a positive `raw` is caught by `debug_assert` only.
    pub fn eval_nonpos_raw(&self, raw: i64) -> i64 {
        debug_assert!(raw <= 0, "exponent input must be non-positive");
        let magnitude = cast::nonpos_magnitude(raw);
        let lower_mask = (1u64 << self.lower_bits) - 1;
        let lo = i64::from(self.lower[cast::table_index(magnitude & lower_mask)]);
        let hi = i64::from(self.upper[cast::table_index(magnitude >> self.lower_bits)]);
        let product = hi * lo;
        let rounded = if self.round_shift == 0 {
            product
        } else {
            (product + (1i64 << (self.round_shift - 1))) >> self.round_shift
        };
        rounded.min(self.out_max_raw)
    }

    /// Number of low-order magnitude bits that index the lower table — the
    /// split point of the two-half decomposition. Vector kernels need it to
    /// derive gather indices the same way [`ExpLutTables::eval_nonpos_raw`]
    /// does.
    pub fn lower_bits(&self) -> u32 {
        self.lower_bits
    }

    /// The rounding shift applied to each upper-times-lower entry product
    /// (`2 * entry_frac - out_frac`).
    pub fn round_shift(&self) -> u32 {
        self.round_shift
    }

    /// The output format's saturation bound applied after the rounding shift.
    pub fn out_max_raw(&self) -> i64 {
        self.out_max_raw
    }

    /// The raw upper-table entries in index order, including the sentinel entry
    /// for the most negative representable input (lane-friendly: a gather over
    /// `magnitude >> lower_bits` reads exactly this layout).
    pub fn upper_entries(&self) -> &[i32] {
        &self.upper
    }

    /// The raw lower-table entries in index order (lane-friendly: a gather over
    /// `magnitude & (2^lower_bits - 1)` reads exactly this layout).
    pub fn lower_entries(&self) -> &[i32] {
        &self.lower
    }

    /// `(min, max)` over the raw upper-table entries, sentinel included.
    /// Range-prover metadata: lets the interval domain bound a table lookup by
    /// the table's actual contents instead of its declared entry format.
    pub fn upper_range(&self) -> (i64, i64) {
        self.upper_range
    }

    /// `(min, max)` over the raw lower-table entries.
    pub fn lower_range(&self) -> (i64, i64) {
        self.lower_range
    }
}

/// `(min, max)` of a non-empty entry table (`(0, 0)` for an empty one, which
/// materialization never produces).
fn entry_range(entries: &[i32]) -> (i64, i64) {
    let min = entries.iter().copied().min().unwrap_or(0);
    let max = entries.iter().copied().max().unwrap_or(0);
    (i64::from(min), i64::from(max))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_lut() -> ExpLut {
        ExpLut::two_half(QFormat::new(15, 8), QFormat::new(0, 8))
    }

    #[test]
    fn exp_of_zero_is_one_ish() {
        let lut = paper_lut();
        let x = Fixed::zero(QFormat::new(15, 8));
        let y = lut.eval(x).unwrap();
        // Q0.8 cannot hold exactly 1.0; it saturates to 255/256.
        assert!(y.to_f64() >= 1.0 - 2.0 / 256.0);
    }

    #[test]
    fn table_ranges_respect_analytic_entry_bound() {
        let lut = paper_lut();
        let tables = lut.materialize().unwrap();
        let bound = lut.max_entry_raw();
        // exp(0) = 1 in Q1.12 (out_frac 8 + 4 guard bits): raw 2^12.
        assert_eq!(bound, 1 << 12);
        assert_eq!(lut.entry_format(), QFormat::new(1, 12));
        for (min, max) in [tables.upper_range(), tables.lower_range()] {
            assert!(min >= 0, "exp entries are non-negative");
            assert!(max <= bound, "no entry may exceed quantize(exp(0))");
        }
        // Both tables contain the index-0 entry exp(0), so the bound is tight.
        assert_eq!(tables.upper_range().1, bound);
        assert_eq!(tables.lower_range().1, bound);
    }

    #[test]
    fn rejects_positive_input() {
        let lut = paper_lut();
        let x = Fixed::quantize(0.5, QFormat::new(15, 8));
        assert!(matches!(
            lut.eval(x),
            Err(FixedError::PositiveExponentInput { .. })
        ));
    }

    #[test]
    fn rejects_wrong_format() {
        let lut = paper_lut();
        let x = Fixed::quantize(-0.5, QFormat::new(4, 4));
        assert!(matches!(
            lut.eval(x),
            Err(FixedError::FormatMismatch { .. })
        ));
    }

    #[test]
    fn two_half_close_to_true_exp() {
        let lut = paper_lut();
        for k in 0..200 {
            let x = -(k as f64) * 0.05;
            let approx = lut.eval_f64(x);
            let exact = x.exp();
            assert!(
                (approx - exact).abs() < 0.02,
                "x = {x}: approx {approx} vs exact {exact}"
            );
        }
    }

    #[test]
    fn deep_negative_input_is_zero() {
        let lut = paper_lut();
        assert_eq!(lut.eval_f64(-100.0), 0.0);
    }

    #[test]
    fn table_entry_counts_match_paper_example() {
        // A 16-bit input splits into two 256-entry tables (the paper's example).
        let lut = ExpLut::two_half(QFormat::new(8, 8), QFormat::new(0, 8));
        assert_eq!(lut.table_entries(), (256, 256));
        let single = ExpLut::single(QFormat::new(8, 8), QFormat::new(0, 8));
        assert_eq!(single.table_entries(), (65_536, 0));
        let float = ExpLut::float_reference(QFormat::new(8, 8), QFormat::new(0, 8));
        assert_eq!(float.table_entries(), (0, 0));
    }

    #[test]
    fn report_error_bounded() {
        let lut = paper_lut();
        let report = lut.report(-16.0, 512);
        assert!(report.max_abs_error < 0.02);
        assert!(report.mean_abs_error <= report.max_abs_error);
        assert_eq!(report.samples, 512);
    }

    #[test]
    fn float_reference_has_only_output_quantization_error() {
        let lut = ExpLut::float_reference(QFormat::new(15, 8), QFormat::new(0, 8));
        let report = lut.report(-8.0, 256);
        // Only the final Q0.8 rounding remains: at most half an LSB... plus the input
        // quantization of the sweep points; keep a conservative bound.
        assert!(report.max_abs_error <= 1.0 / 256.0 + 1e-9);
    }

    #[test]
    fn monotonically_nonincreasing_in_magnitude() {
        let lut = paper_lut();
        let mut prev = f64::INFINITY;
        for k in 0..64 {
            let y = lut.eval_f64(-(k as f64) * 0.25);
            assert!(y <= prev + 1e-12);
            prev = y;
        }
    }

    #[test]
    fn materialized_tables_bit_identical_to_lazy_eval() {
        for (input, output) in [
            (QFormat::new(15, 8), QFormat::new(0, 8)),
            (QFormat::new(11, 8), QFormat::new(0, 8)),
            (QFormat::new(8, 6), QFormat::new(0, 6)),
            (QFormat::new(5, 4), QFormat::new(0, 4)),
            (QFormat::new(4, 3), QFormat::new(0, 2)),
        ] {
            let lut = ExpLut::two_half(input, output);
            let tables = lut.materialize().expect("materializable");
            let step = input.total_bits().saturating_sub(12);
            let stride = (1usize << step).max(1);
            let mut raw = input.min_raw();
            while raw <= 0 {
                let lazy = lut.eval(Fixed::from_raw(raw, input)).unwrap().raw();
                let fast = tables.eval_nonpos_raw(raw);
                assert_eq!(fast, lazy, "input {input} raw {raw}");
                raw += stride as i64;
            }
            // Always check the exact endpoints.
            for raw in [input.min_raw(), -1, 0] {
                let lazy = lut.eval(Fixed::from_raw(raw, input)).unwrap().raw();
                assert_eq!(tables.eval_nonpos_raw(raw), lazy);
            }
        }
    }

    #[test]
    fn table_accessors_reconstruct_eval() {
        // The lane-friendly accessors must expose exactly the state
        // `eval_nonpos_raw` consumes: recomputing the two-lookup evaluation
        // from them matches the canonical path bit for bit.
        let input = QFormat::new(8, 6);
        let tables = ExpLut::two_half(input, QFormat::new(0, 6))
            .materialize()
            .expect("Q8.6 input materializes");
        let total = 14u32;
        assert_eq!(tables.lower_bits(), total / 2);
        assert_eq!(
            tables.upper_entries().len(),
            (1usize << (total - tables.lower_bits())) + 1
        );
        assert_eq!(tables.lower_entries().len(), 1usize << tables.lower_bits());
        assert_eq!(tables.out_max_raw(), QFormat::new(0, 6).max_raw());
        for raw in (input.min_raw()..=0).step_by(97) {
            let magnitude = raw.unsigned_abs();
            let mask = (1u64 << tables.lower_bits()) - 1;
            let lo = i64::from(tables.lower_entries()[(magnitude & mask) as usize]);
            let hi = i64::from(tables.upper_entries()[(magnitude >> tables.lower_bits()) as usize]);
            let product = hi * lo;
            let rounded = if tables.round_shift() == 0 {
                product
            } else {
                (product + (1i64 << (tables.round_shift() - 1))) >> tables.round_shift()
            };
            assert_eq!(
                rounded.min(tables.out_max_raw()),
                tables.eval_nonpos_raw(raw),
                "raw {raw}"
            );
        }
    }

    #[test]
    fn materialize_refuses_non_two_half_and_huge_inputs() {
        let single = ExpLut::single(QFormat::new(8, 8), QFormat::new(0, 8));
        assert!(single.materialize().is_none());
        let float = ExpLut::float_reference(QFormat::new(8, 8), QFormat::new(0, 8));
        assert!(float.materialize().is_none());
        let huge = ExpLut::two_half(QFormat::new(30, 8), QFormat::new(0, 8));
        assert!(huge.materialize().is_none());
    }

    #[test]
    fn materialized_entry_counts() {
        let lut = ExpLut::two_half(QFormat::new(8, 8), QFormat::new(0, 8));
        let tables = lut.materialize().unwrap();
        // Two 256-entry tables, plus the upper table's sentinel for the most
        // negative input.
        assert_eq!(tables.upper_entries().len(), 257);
        assert_eq!(tables.lower_entries().len(), 256);
    }
}
