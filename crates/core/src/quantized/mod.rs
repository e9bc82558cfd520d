//! Bit-accurate fixed-point model of the base A3 pipeline (paper Sections III-A/III-B).
//!
//! [`QuantizedMemory`] performs exactly the arithmetic the three hardware modules
//! perform: inputs are quantized to `Q(i.f)`, element products keep `2i/2f` bits, dot
//! products widen by `log2(d)` integer bits, the exponent is evaluated through the
//! two-half lookup table, scores and weights are `Q0.2f` fractions, and the output
//! accumulator carries `i + log2(n)` integer and `3f` fraction bits. The only deviation
//! from real silicon is that we do not model clock cycles here — that is `a3-sim`'s job.
//!
//! The computation is split into the same two phases the hardware has:
//! [`QuantizedMemory::prepare`] quantizes the key/value matrices and derives the
//! per-stage formats (the key/value SRAM contents the accelerator loads once per
//! memory), and [`QuantizedMemory::attend`] runs the pure fixed-point per-query
//! pipeline against that prepared state. The exponent lookup tables belong to the
//! exponent module, not to a memory: they depend only on the [`ExpLutConfig`]
//! (the shifted-dot and score formats), so each configuration is materialized
//! once per process and every memory prepared with it shares the one copy.
//! [`QuantizedBackend`](crate::backend::QuantizedBackend) serves both phases
//! through the [`ComputeBackend`](crate::backend::ComputeBackend) API.
//!
//! All format checking happens at prepare time and at the attend call boundary.
//! A prepared memory carries exactly one per-query datapath, chosen at prepare
//! time: the AVX2 integer kernels (`backend::quantized_simd`) when the host has
//! AVX2 and the format plan passes [`PipelineFormats::lanes_eligible`] (inside
//! the range prover's certified grid, every lane-width gate holding), and the
//! raw-integer scalar loop below otherwise. Neither consults a format tag per
//! element: every shift and clamp bound is resolved from the [`PipelineFormats`]
//! at prepare time. The two datapaths are bit-identical, which the golden
//! hashes in `crates/core/tests/quantized_golden.rs` and the property suite in
//! `crates/core/tests/properties.rs` assert.

use std::sync::{Arc, Mutex, PoisonError};

use a3_fixed::{ExpLut, ExpLutConfig, ExpLutTables, Fixed, PipelineFormats, QFormat};

use crate::attention::{AttentionResult, QueryBuffer};
#[cfg(target_arch = "x86_64")]
use crate::backend::quantized_simd::QuantizedSimdPipeline;
use crate::backend::{validate_append, validate_memory, validate_row_width};
use crate::{AttentionError, Matrix};

/// A key/value memory quantized for the fixed-point base pipeline: the per-stage
/// formats, a handle on the shared exponent lookup tables, and the key/value
/// matrices already converted to the input fixed-point format.
///
/// This is the quantized backend's query-independent preprocessing product — the
/// software analogue of the accelerator's quantized key/value SRAM contents.
#[derive(Debug, Clone)]
pub struct QuantizedMemory {
    formats: PipelineFormats,
    exp_lut: ExpLut,
    datapath: Datapath,
}

/// The one per-query datapath a prepared memory carries.
#[derive(Debug, Clone)]
enum Datapath {
    /// The AVX2 integer kernels, when prepare-time dispatch selected them.
    #[cfg(target_arch = "x86_64")]
    Vector(QuantizedSimdPipeline),
    /// The raw-integer scalar pipeline.
    Scalar(DynamicPipeline),
}

/// The scalar execution plan: raw quantized operands plus every shift amount
/// and saturation bound the per-query loop needs, all resolved from the
/// [`PipelineFormats`] once at prepare time. The attend loop works purely on
/// `i64` values and never constructs, compares or validates a format tag.
#[derive(Clone)]
struct DynamicPipeline {
    /// Quantized key matrix, row-major `n x d` raws.
    keys_q: Vec<i64>,
    /// Quantized value matrix, row-major `n x d` raws.
    values_q: Vec<i64>,
    /// The process-wide materialized two-half tables for this memory's
    /// [`ExpLutConfig`]; `None` only for input formats too wide to expand,
    /// where the (bit-identical) lazy evaluation is used instead.
    tables: Option<Arc<ExpLutTables>>,
    dot_min: i64,
    dot_max: i64,
    shifted_min: i64,
    shifted_max: i64,
    exp_sum_min: i64,
    exp_sum_max: i64,
    weight_min: i64,
    weight_max: i64,
    out_min: i64,
    out_max: i64,
    /// Fraction bits of the exponent-sum format (the divisor pre-shift in the
    /// normalization step).
    exp_sum_frac: u32,
}

impl std::fmt::Debug for DynamicPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DynamicPipeline")
            .field("elements", &self.keys_q.len())
            .field("materialized_lut", &self.tables.is_some())
            .finish_non_exhaustive()
    }
}

impl QuantizedMemory {
    /// Quantizes a key/value memory and derives the pipeline formats and exponent
    /// lookup tables for its `n x d` shape, on the AVX2 vector datapath when
    /// dispatch selects it and on the bit-identical scalar datapath otherwise.
    ///
    /// # Errors
    ///
    /// Returns an error if the memory is empty or the key/value shapes disagree.
    pub fn prepare(
        input_format: QFormat,
        keys: &Matrix,
        values: &Matrix,
    ) -> Result<Self, AttentionError> {
        Self::prepare_inner(input_format, keys, values, true)
    }

    /// Like [`QuantizedMemory::prepare`], but always selects the scalar
    /// datapath even when the AVX2 vector kernels are available. The two
    /// datapaths are bit-identical; this constructor exists so differential
    /// tests and benchmarks can measure both.
    ///
    /// # Errors
    ///
    /// Returns an error if the memory is empty or the key/value shapes disagree.
    pub fn prepare_scalar(
        input_format: QFormat,
        keys: &Matrix,
        values: &Matrix,
    ) -> Result<Self, AttentionError> {
        Self::prepare_inner(input_format, keys, values, false)
    }

    fn prepare_inner(
        input_format: QFormat,
        keys: &Matrix,
        values: &Matrix,
        allow_vector: bool,
    ) -> Result<Self, AttentionError> {
        validate_memory(keys, values)?;
        let formats = PipelineFormats::new(input_format, keys.rows(), keys.dim());
        let exp_lut = ExpLut::two_half(formats.shifted_dot_product(), formats.score());
        let datapath = Datapath::select(&formats, &exp_lut, keys, values, allow_vector);
        Ok(Self {
            formats,
            exp_lut,
            datapath,
        })
    }

    /// The input quantization format this memory was prepared with.
    pub fn input_format(&self) -> QFormat {
        self.formats.input()
    }

    /// The per-stage pipeline formats for this memory's shape.
    pub fn formats(&self) -> &PipelineFormats {
        &self.formats
    }

    /// Number of memory rows (`n`).
    pub fn n(&self) -> usize {
        self.formats.n()
    }

    /// Embedding dimension (`d`).
    pub fn d(&self) -> usize {
        self.formats.d()
    }

    /// Whether prepare-time dispatch selected the AVX2 vector kernels
    /// (`quantized_simd`). False on non-AVX2 hosts, under the
    /// `A3_FORCE_SCALAR` override, for [`QuantizedMemory::prepare_scalar`]
    /// memories, and for format plans [`PipelineFormats::lanes_eligible`]
    /// rejects; all of those run the bit-identical scalar datapath.
    pub fn is_vectorized(&self) -> bool {
        match self.datapath {
            #[cfg(target_arch = "x86_64")]
            Datapath::Vector(_) => true,
            Datapath::Scalar(_) => false,
        }
    }

    /// The AVX2 pipeline, when prepare-time dispatch selected it.
    #[cfg(target_arch = "x86_64")]
    pub(crate) fn vector(&self) -> Option<&QuantizedSimdPipeline> {
        match &self.datapath {
            Datapath::Vector(vector) => Some(vector),
            Datapath::Scalar(_) => None,
        }
    }

    /// The shared exponent tables this memory's datapath evaluates against.
    #[cfg(test)]
    fn shared_tables(&self) -> Option<&Arc<ExpLutTables>> {
        match &self.datapath {
            #[cfg(target_arch = "x86_64")]
            Datapath::Vector(vector) => Some(vector.tables()),
            Datapath::Scalar(scalar) => scalar.tables.as_ref(),
        }
    }

    /// Number of element-level preprocessing operations the accelerator performs:
    /// one quantization per key and value element plus the exponent-table fill.
    /// The host builds each table configuration only once per process, but the
    /// fill stays charged per memory so the simulator's preprocessing cycles
    /// keep modelling a unit that loads its tables with every memory.
    pub fn preprocess_ops(&self) -> u64 {
        let (lo, hi) = self.exp_lut.table_entries();
        (2 * self.n() * self.d()) as u64 + lo + hi
    }

    /// Runs the per-query fixed-point pipeline over the whole memory and returns
    /// the scores, weights and output dequantized to `f32`.
    ///
    /// All validation happens here at the call boundary; the datapath itself
    /// (vector or scalar) runs without any per-operation format checks.
    ///
    /// # Errors
    ///
    /// Returns [`AttentionError::DimensionMismatch`] if the query dimension does
    /// not match the memory.
    pub fn attend(&self, query: &[f32]) -> Result<AttentionResult, AttentionError> {
        self.attend_with(query)
    }

    /// [`QuantizedMemory::attend`] with the output written to the buffer
    /// `query` turns into once the query is quantized.
    pub(crate) fn attend_with(
        &self,
        query: impl QueryBuffer,
    ) -> Result<AttentionResult, AttentionError> {
        if query.query().len() != self.d() {
            return Err(AttentionError::DimensionMismatch {
                expected: self.d(),
                actual: query.query().len(),
            });
        }
        Ok(match &self.datapath {
            #[cfg(target_arch = "x86_64")]
            Datapath::Vector(vector) => vector.attend(query),
            Datapath::Scalar(scalar) => scalar.attend(&self.formats, &self.exp_lut, query),
        })
    }

    /// Incrementally quantizes and appends rows in place — the streaming fast
    /// path that quantizes only the `delta` new rows (`O(delta * d)` work)
    /// instead of re-preparing the whole memory — and returns the
    /// element-quantization count.
    ///
    /// The grown memory is exactly what a fresh prepare of the grown matrices
    /// builds, at every row count. Inside a `ceil_log2(n)` boundary no stage
    /// format changes. When the grown row count crosses one, only the format
    /// plan is re-derived: the raws, the exponent tables, the lane constants
    /// and every resolution do not depend on `n`, so nothing is
    /// re-quantized. What does depend on `n` is re-checked instead:
    ///
    /// - the vector datapath re-checks its lane gates and its normalisation
    ///   bounds for the new plan. When the plan leaves them (past `n = 512`
    ///   for the paper format), the memory converts to the scalar datapath in
    ///   place by widening its raws, the datapath a fresh prepare selects;
    /// - the scalar datapath re-derives its exponent-sum and output clamp
    ///   bounds.
    ///
    /// Growth never makes a scalar plan eligible for the vector datapath,
    /// because every gate tightens with `ceil_log2(n)`.
    ///
    /// # Errors
    ///
    /// Returns an error if the new key/value shapes disagree with each other
    /// or with this memory's dimension.
    pub fn append_rows(
        &mut self,
        new_keys: &Matrix,
        new_values: &Matrix,
    ) -> Result<u64, AttentionError> {
        let d = self.d();
        validate_append(d, new_keys, new_values)?;
        let delta = new_keys.rows();
        if delta == 0 {
            return Ok(0);
        }
        let input = self.input_format();
        let new_n = self.n() + delta;
        let formats = PipelineFormats::new(input, new_n, d);
        if a3_fixed::ceil_log2(new_n) != a3_fixed::ceil_log2(self.n()) {
            self.datapath.grow_plan(&formats);
        }
        match &mut self.datapath {
            #[cfg(target_arch = "x86_64")]
            Datapath::Vector(vector) => {
                vector.append_rows(new_keys.as_slice(), new_values.as_slice());
            }
            Datapath::Scalar(scalar) => scalar.append_rows(input, new_keys, new_values),
        }
        self.formats = formats;
        Ok((2 * delta * d) as u64)
    }

    /// Re-quantizes one row in place (`O(d)` work). The row count — and with
    /// it every stage format — is unchanged, so unlike
    /// [`QuantizedMemory::append_rows`] there is no format-boundary case;
    /// `Ok(None)` (fall back to full re-prepare) occurs only if the in-place
    /// datapath mutation declines.
    ///
    /// # Errors
    ///
    /// Returns an error if `row` is out of bounds or the key/value slices do
    /// not have this memory's dimension.
    pub fn update_row(
        &mut self,
        row: usize,
        key: &[f32],
        value: &[f32],
    ) -> Result<Option<u64>, AttentionError> {
        let d = self.d();
        if row >= self.n() {
            return Err(AttentionError::InvalidParameter {
                name: "row",
                constraint: "row index must be within the memory",
            });
        }
        validate_row_width(d, key, value)?;
        let input = self.input_format();
        let updated = match &mut self.datapath {
            #[cfg(target_arch = "x86_64")]
            Datapath::Vector(vector) => vector.update_row(row, key, value),
            Datapath::Scalar(scalar) => scalar.update_row(input, row, key, value),
        };
        Ok(updated.then_some((2 * d) as u64))
    }
}

/// Every exponent-table configuration materialized so far in this process,
/// with the one shared copy of its tables. A linear scan suffices: there is
/// one entry per (input format, `ceil_log2(d)`) pair the process has prepared.
static SHARED_TABLES: Mutex<Vec<(ExpLutConfig, Arc<ExpLutTables>)>> = Mutex::new(Vec::new());

/// The materialized tables for `exp_lut`'s configuration, built on first use
/// and shared by every memory prepared with that configuration afterwards;
/// `None` where [`ExpLut::materialize`] declines (the lazy path serves those).
fn shared_tables(exp_lut: &ExpLut) -> Option<Arc<ExpLutTables>> {
    let config = *exp_lut.config();
    // A poisoned lock only means another thread panicked mid-scan or mid-push;
    // every entry it left is a complete, immutable materialization.
    let mut memo = SHARED_TABLES.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some((_, tables)) = memo.iter().find(|(c, _)| *c == config) {
        return Some(Arc::clone(tables));
    }
    let tables = Arc::new(exp_lut.materialize()?);
    memo.push((config, Arc::clone(&tables)));
    Some(tables)
}

impl Datapath {
    /// Builds the vector datapath when `allow_vector` is set and its
    /// prepare-time dispatch accepts the host, the format plan and the
    /// materialized exponent tables; the scalar datapath otherwise.
    fn select(
        formats: &PipelineFormats,
        exp_lut: &ExpLut,
        keys: &Matrix,
        values: &Matrix,
        allow_vector: bool,
    ) -> Self {
        let tables = shared_tables(exp_lut);
        #[cfg(target_arch = "x86_64")]
        if allow_vector {
            let vector = tables.as_ref().and_then(|tables| {
                QuantizedSimdPipeline::prepare(formats, tables, keys.as_slice(), values.as_slice())
            });
            if let Some(vector) = vector {
                return Self::Vector(vector);
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = allow_vector;
        Self::Scalar(DynamicPipeline::prepare(formats, tables, keys, values))
    }

    /// Re-derives the `n`-dependent state for `formats`, the plan of a memory
    /// grown across a `ceil_log2(n)` boundary (see
    /// [`QuantizedMemory::append_rows`]): the vector pipeline re-checks its
    /// gates and, when the plan leaves them, becomes the scalar pipeline over
    /// its widened raws; the scalar pipeline re-derives its clamp bounds.
    fn grow_plan(&mut self, formats: &PipelineFormats) {
        match self {
            #[cfg(target_arch = "x86_64")]
            Self::Vector(vector) => {
                if !vector.regate(formats) {
                    let (keys_q, values_q) = vector.widened_raws();
                    let tables = Some(Arc::clone(vector.tables()));
                    *self = Self::Scalar(DynamicPipeline::from_raws(
                        formats, tables, keys_q, values_q,
                    ));
                }
            }
            Self::Scalar(scalar) => scalar.rebound(formats),
        }
    }
}

impl DynamicPipeline {
    /// Quantizes the operands and resolves every shift and saturation bound the
    /// per-query loop needs from the derived stage formats.
    fn prepare(
        formats: &PipelineFormats,
        tables: Option<Arc<ExpLutTables>>,
        keys: &Matrix,
        values: &Matrix,
    ) -> Self {
        let input = formats.input();
        Self::from_raws(
            formats,
            tables,
            Fixed::quantize_slice(keys.as_slice(), input).collect(),
            Fixed::quantize_slice(values.as_slice(), input).collect(),
        )
    }

    /// Resolves every shift and saturation bound the per-query loop needs
    /// from the derived stage formats, around already quantized operands.
    fn from_raws(
        formats: &PipelineFormats,
        tables: Option<Arc<ExpLutTables>>,
        keys_q: Vec<i64>,
        values_q: Vec<i64>,
    ) -> Self {
        let dot = formats.dot_product();
        let shifted = formats.shifted_dot_product();
        let exp_sum = formats.exp_sum();
        let weight = formats.weight();
        let output = formats.output();
        Self {
            keys_q,
            values_q,
            tables,
            dot_min: dot.min_raw(),
            dot_max: dot.max_raw(),
            shifted_min: shifted.min_raw(),
            shifted_max: shifted.max_raw(),
            exp_sum_min: exp_sum.min_raw(),
            exp_sum_max: exp_sum.max_raw(),
            weight_min: weight.min_raw(),
            weight_max: weight.max_raw(),
            out_min: output.min_raw(),
            out_max: output.max_raw(),
            exp_sum_frac: exp_sum.frac_bits(),
        }
    }

    /// Re-derives every clamp bound for `formats`, the plan of this memory
    /// grown across a `ceil_log2(n)` boundary; the raws and the tables do not
    /// depend on `n`.
    fn rebound(&mut self, formats: &PipelineFormats) {
        *self = Self::from_raws(
            formats,
            self.tables.take(),
            std::mem::take(&mut self.keys_q),
            std::mem::take(&mut self.values_q),
        );
    }

    /// Appends already-validated rows, quantizing only the new elements. The
    /// clamp bounds in this struct must already be the grown plan's, which
    /// [`QuantizedMemory::append_rows`] re-derives at every `ceil_log2(n)`
    /// boundary.
    fn append_rows(&mut self, input: QFormat, keys: &Matrix, values: &Matrix) {
        self.keys_q
            .extend(Fixed::quantize_slice(keys.as_slice(), input));
        self.values_q
            .extend(Fixed::quantize_slice(values.as_slice(), input));
    }

    /// Re-quantizes one already-validated row in place; `false` (untouched)
    /// if the row slice cannot be formed.
    fn update_row(&mut self, input: QFormat, row: usize, key: &[f32], value: &[f32]) -> bool {
        let d = key.len();
        let range = row * d..(row + 1) * d;
        let (Some(ks), Some(vs)) = (
            self.keys_q.get_mut(range.clone()),
            self.values_q.get_mut(range),
        ) else {
            return false;
        };
        for (slot, raw) in ks.iter_mut().zip(Fixed::quantize_slice(key, input)) {
            *slot = raw;
        }
        for (slot, raw) in vs.iter_mut().zip(Fixed::quantize_slice(value, input)) {
            *slot = raw;
        }
        true
    }

    fn key_row(&self, r: usize, d: usize) -> &[i64] {
        &self.keys_q[r * d..(r + 1) * d]
    }

    fn value_row(&self, r: usize, d: usize) -> &[i64] {
        &self.values_q[r * d..(r + 1) * d]
    }

    /// The raw-integer per-query pipeline: the Section III-B arithmetic stage
    /// for stage (same rounding, same saturation points as `Fixed`), with all
    /// format bookkeeping pre-resolved — no format tags exist on this path, so
    /// no format-mismatch check can execute.
    fn attend(
        &self,
        formats: &PipelineFormats,
        exp_lut: &ExpLut,
        query: impl QueryBuffer,
    ) -> AttentionResult {
        let n = formats.n();
        let d = formats.d();

        // Quantize the query once (it is reused by every row); the float query
        // is not read again, so its buffer can take the output.
        let q_raw: Vec<i64> = Fixed::quantize_slice(query.query(), formats.input()).collect();
        let mut output = query.into_output(d);

        // Module 1: dot products and the running maximum. Element products are
        // full-precision; each accumulation step saturates at the dot-product
        // format, matching the hardware accumulator register width.
        let mut dot_products: Vec<i64> = Vec::with_capacity(n);
        let mut max_dot = self.dot_min;
        for r in 0..n {
            let mut dot = 0i64;
            for (k, qv) in self.key_row(r, d).iter().zip(&q_raw) {
                dot = (dot + k * qv).clamp(self.dot_min, self.dot_max);
            }
            if dot > max_dot {
                max_dot = dot;
            }
            dot_products.push(dot);
        }

        // Module 2: exponent computation with max subtraction, plus the
        // exponent sum. The subtraction result is non-positive by construction
        // and the shifted format has one extra integer bit, so the clamp only
        // mirrors `Fixed::saturating_sub`.
        let mut scores: Vec<i64> = Vec::with_capacity(n);
        let mut exp_sum = 0i64;
        for &dot in &dot_products {
            let shifted = (dot - max_dot).clamp(self.shifted_min, self.shifted_max);
            let score = match &self.tables {
                Some(tables) => tables.eval_nonpos_raw(shifted),
                None => exp_lut.eval_nonpos_raw(shifted),
            };
            exp_sum = (exp_sum + score).clamp(self.exp_sum_min, self.exp_sum_max);
            scores.push(score);
        }

        // Module 3: normalization and the weighted sum of value rows.
        let mut output_acc: Vec<i64> = vec![0; d];
        let mut weights: Vec<i64> = Vec::with_capacity(n);
        for (r, &score) in scores.iter().enumerate() {
            // weight = score / expsum, still a Q0.2f fraction.
            let w = if exp_sum == 0 {
                0
            } else {
                ((score << self.exp_sum_frac) / exp_sum).clamp(self.weight_min, self.weight_max)
            };
            weights.push(w);
            for (acc, v) in output_acc.iter_mut().zip(self.value_row(r, d)) {
                // weight (Q0.2f) * value (Qi.f) = Qi.3f — already at the output
                // fraction width, so rounding reduces to the integer-side clamp.
                let term = (w * v).clamp(self.out_min, self.out_max);
                *acc = (*acc + term).clamp(self.out_min, self.out_max);
            }
        }

        // Dequantize.
        fn dequantize(raws: &[i64], resolution: f64) -> impl Iterator<Item = f32> + '_ {
            raws.iter().map(move |&x| (x as f64 * resolution) as f32)
        }
        output.extend(dequantize(&output_acc, formats.output().resolution()));
        AttentionResult {
            scores: dequantize(&dot_products, formats.dot_product().resolution()).collect(),
            weights: dequantize(&weights, formats.weight().resolution()).collect(),
            output,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attention::attention_with_scores;
    use a3_fixed::paper_input_format;

    fn case(n: usize, d: usize) -> (Matrix, Matrix, Vec<f32>) {
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                (0..d)
                    .map(|j| (((i * 13 + j * 7) % 31) as f32 - 15.0) / 15.0)
                    .collect()
            })
            .collect();
        let keys = Matrix::from_rows(rows.clone()).unwrap();
        let values = Matrix::from_rows(rows).unwrap();
        let query: Vec<f32> = (0..d).map(|j| ((j % 5) as f32 - 2.0) / 2.0).collect();
        (keys, values, query)
    }

    /// Prepares `keys`/`values` in `format` and attends one query.
    fn attend(format: QFormat, keys: &Matrix, values: &Matrix, query: &[f32]) -> AttentionResult {
        QuantizedMemory::prepare(format, keys, values)
            .unwrap()
            .attend(query)
            .unwrap()
    }

    #[test]
    fn close_to_float_attention_with_paper_precision() {
        let (keys, values, query) = case(24, 16);
        let exact = attention_with_scores(&keys, &values, &query).unwrap();
        let quant = attend(paper_input_format(), &keys, &values, &query);
        for (a, b) in exact.output.iter().zip(&quant.output) {
            assert!((a - b).abs() < 0.15, "{a} vs {b}");
        }
        // The dominant row must be preserved.
        let exact_top = exact.argmax();
        let quant_top = quant
            .weights
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(exact_top, quant_top);
    }

    #[test]
    fn prepare_validates_memory_shapes() {
        let (keys, _, _) = case(8, 4);
        let bad_values = Matrix::zeros(3, 4);
        assert!(QuantizedMemory::prepare(QFormat::new(4, 4), &keys, &bad_values).is_err());
        let narrow_values = Matrix::zeros(8, 2);
        assert!(QuantizedMemory::prepare(QFormat::new(4, 4), &keys, &narrow_values).is_err());
    }

    #[test]
    fn prepared_memory_reports_shape_and_work() {
        let (keys, values, _) = case(10, 8);
        let memory = QuantizedMemory::prepare(paper_input_format(), &keys, &values).unwrap();
        assert_eq!(memory.n(), 10);
        assert_eq!(memory.d(), 8);
        assert_eq!((memory.formats().n(), memory.formats().d()), (10, 8));
        assert_eq!(memory.input_format(), paper_input_format());
        assert!(memory.preprocess_ops() >= 2 * 10 * 8);
        assert_eq!(
            memory.attend(&[0.0; 3]).unwrap_err(),
            AttentionError::DimensionMismatch {
                expected: 8,
                actual: 3,
            }
        );
    }

    #[test]
    fn more_fraction_bits_reduce_error() {
        let (keys, values, query) = case(20, 8);
        let exact = attention_with_scores(&keys, &values, &query).unwrap();
        let err = |fmt: QFormat| -> f32 {
            let quant = attend(fmt, &keys, &values, &query);
            exact
                .output
                .iter()
                .zip(&quant.output)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max)
        };
        let coarse = err(QFormat::new(4, 2));
        let fine = err(QFormat::new(4, 8));
        assert!(fine <= coarse + 1e-6, "fine {fine} vs coarse {coarse}");
    }

    #[test]
    fn memories_of_one_configuration_share_one_table_allocation() {
        use crate::backend::{ComputeBackend, QuantizedBackend};

        // Same input format and `ceil_log2(d)`, different `n`: one config.
        let (short_keys, short_values, _) = case(24, 16);
        let (tall_keys, tall_values, _) = case(300, 16);
        let (narrow_keys, narrow_values, _) = case(24, 8);
        let format = paper_input_format();
        for allow_vector in [true, false] {
            let prepare = |keys: &Matrix, values: &Matrix| {
                QuantizedMemory::prepare_inner(format, keys, values, allow_vector).unwrap()
            };
            let short = prepare(&short_keys, &short_values);
            let tall = prepare(&tall_keys, &tall_values);
            let narrow = prepare(&narrow_keys, &narrow_values);
            let tables = short.shared_tables().unwrap();
            assert!(Arc::ptr_eq(tables, tall.shared_tables().unwrap()));
            assert!(Arc::ptr_eq(tables, short.clone().shared_tables().unwrap()));
            // A different `ceil_log2(d)` is a different configuration.
            assert!(!Arc::ptr_eq(tables, narrow.shared_tables().unwrap()));
        }

        // A copy-on-write clone of a shared prepared memory keeps the tables.
        let backend = QuantizedBackend::paper();
        let mut cached = Arc::new(backend.prepare(&short_keys, &short_values).unwrap());
        let reader = Arc::clone(&cached);
        let (row_keys, row_values, _) = case(1, 16);
        let written = Arc::make_mut(&mut cached);
        backend
            .append_rows(written, &row_keys, &row_values)
            .unwrap();
        let tables = |memory: &crate::backend::PreparedMemory| {
            Arc::clone(memory.quantized().unwrap().shared_tables().unwrap())
        };
        assert!(!Arc::ptr_eq(&cached, &reader));
        assert!(Arc::ptr_eq(&tables(&cached), &tables(&reader)));
    }

    #[test]
    fn weights_approximately_sum_to_one() {
        let (keys, values, query) = case(16, 8);
        let quant = attend(paper_input_format(), &keys, &values, &query);
        let sum: f32 = quant.weights.iter().sum();
        assert!((sum - 1.0).abs() < 0.1, "weight sum {sum}");
    }
}
