//! Monomorphized typed instantiations of the quantized pipeline.
//!
//! The dynamic pipeline in the parent module carries every stage's
//! [`QFormat`] at runtime. Here the whole format plan of Section III-B is
//! lifted into const generics: one [`TypedPipeline`] type parameterized over
//! all eight stage formats, whose arithmetic is compile-time checked `Q`
//! operations — a wrong stage format is a type error, and no format tag is
//! compared, matched or propagated per element at runtime.
//!
//! Stable Rust cannot compute `2 * I + LOG2D` in a type, so each deployed
//! `(input format, ceil_log2(d), ceil_log2(n))` combination is spelled out by
//! the `typed_pipelines!` macro below, which expands the Section III-B
//! derivation rules as concrete const expressions. [`build_typed_pipeline`]
//! selects the matching instantiation at prepare time (and double-checks its
//! static formats against the runtime [`PipelineFormats`] derivation);
//! problem shapes outside the deployed set fall back to the parent module's
//! dynamic-format path, which is bit-identical.

use std::fmt;
use std::sync::Arc;

use a3_fixed::{ceil_log2, PipelineFormats, QFormat, TypedExpLut, Q};

use crate::attention::AttentionResult;
use crate::Matrix;

/// Object-safe face of a monomorphized pipeline instantiation.
///
/// All shape and format checking happens at prepare time and at the
/// `QuantizedMemory::attend` boundary; implementations run the per-query
/// datapath with no runtime format checks at all.
pub(crate) trait TypedQuantizedPipeline: Send + Sync + fmt::Debug {
    /// Runs the fixed-point pipeline for one query (of validated dimension)
    /// over every row.
    fn attend(&self, query: &[f32]) -> AttentionResult;

    /// Whether prepare-time dispatch selected the AVX2 vector kernels
    /// (`backend::quantized_simd`) for this instantiation.
    fn is_vectorized(&self) -> bool;

    /// Quantizes and appends `new_keys`/`new_values` rows in place. Valid only
    /// while the instantiation's format plan still matches the grown shape —
    /// `QuantizedMemory::append_rows` guarantees this with its `ceil_log2(n)`
    /// gate. Returns `false` without mutating when the in-place path cannot
    /// proceed (vector lane overflow); the caller then re-prepares from
    /// scratch.
    fn append_rows(&mut self, new_keys: &Matrix, new_values: &Matrix) -> bool;

    /// Re-quantizes one row in place (same validity contract as
    /// [`Self::append_rows`]). Returns `false` without mutating on an
    /// out-of-bounds row or when the in-place path cannot proceed.
    fn update_row(&mut self, row: usize, key: &[f32], value: &[f32]) -> bool;

    /// A deep copy behind a fresh `Arc`, for copy-on-write mutation of shared
    /// prepared state.
    fn cloned(&self) -> Arc<dyn TypedQuantizedPipeline>;
}

/// The quantized attention pipeline with every stage format in the type.
///
/// Type parameters, in pipeline order (integer bits, fraction bits):
/// input `I.F`, element product `PI.PF`, dot product `DI.DF`, max-subtracted
/// dot product `XI.XF`, softmax score `SI.SF`, exponent sum `EI.EF`, output
/// accumulator `OI.OF`, and the weight-times-value intermediate `WI.WF`.
/// The `FORMATS_OK` const assertion pins the shape-independent derivation
/// rules of Section III-B; the shape-dependent ones (`DI`, `EI`, `OI`) are
/// verified against [`PipelineFormats`] when an instantiation is selected.
#[derive(Clone)]
pub(crate) struct TypedPipeline<
    const I: u32,
    const F: u32,
    const PI: u32,
    const PF: u32,
    const DI: u32,
    const DF: u32,
    const XI: u32,
    const XF: u32,
    const SI: u32,
    const SF: u32,
    const EI: u32,
    const EF: u32,
    const OI: u32,
    const OF: u32,
    const WI: u32,
    const WF: u32,
> {
    keys: Vec<Q<I, F>>,
    values: Vec<Q<I, F>>,
    lut: TypedExpLut<XI, XF, SI, SF>,
    /// The AVX2 vector datapath, when prepare-time dispatch selected it;
    /// `None` runs the scalar datapath below (bit-identical either way).
    #[cfg(target_arch = "x86_64")]
    vector: Option<crate::backend::quantized_simd::QuantizedSimdPipeline>,
    n: usize,
    d: usize,
}

// The `let _proof: () = ...` statements force the monomorphization-time
// format assertions to evaluate; binding the unit value is intentional.
#[allow(clippy::let_unit_value)]
impl<
        const I: u32,
        const F: u32,
        const PI: u32,
        const PF: u32,
        const DI: u32,
        const DF: u32,
        const XI: u32,
        const XF: u32,
        const SI: u32,
        const SF: u32,
        const EI: u32,
        const EF: u32,
        const OI: u32,
        const OF: u32,
        const WI: u32,
        const WF: u32,
    > TypedPipeline<I, F, PI, PF, DI, DF, XI, XF, SI, SF, EI, EF, OI, OF, WI, WF>
{
    /// Shape-independent Section III-B format relations, checked at compile
    /// time for every instantiation the `typed_pipelines!` macro emits.
    const FORMATS_OK: () = assert!(
        PI == 2 * I
            && PF == 2 * F
            && DF == 2 * F
            && DI >= PI
            && XI == DI + 1
            && XF == DF
            && SI == 0
            && SF == 2 * F
            && EF == 2 * F
            && OF == 3 * F
            && OI >= I
            && WI == SI + I
            && WF == SF + F,
        "typed pipeline instantiation violates the Section III-B format plan"
    );

    /// Whether this instantiation's type-level formats are exactly the ones
    /// the dynamic derivation produces for an `n x d` problem.
    pub(crate) fn matches(input: QFormat, n: usize, d: usize) -> bool {
        let derived = PipelineFormats::new(input, n, d);
        input == QFormat::new(I, F)
            && derived.product() == QFormat::new(PI, PF)
            && derived.dot_product() == QFormat::new(DI, DF)
            && derived.shifted_dot_product() == QFormat::new(XI, XF)
            && derived.score() == QFormat::new(SI, SF)
            && derived.exp_sum() == QFormat::new(EI, EF)
            && derived.weight() == QFormat::new(SI, SF)
            && derived.output() == QFormat::new(OI, OF)
    }

    /// Quantizes a key/value memory into this instantiation's input format and
    /// materializes its exponent tables. Shapes were validated by the caller.
    /// With `allow_vector`, hands the quantized operands to the AVX2 module
    /// (`backend::quantized_simd`), whose prepare-time dispatch may decline —
    /// either way the scalar datapath stays available and bit-identical.
    pub(crate) fn prepare(
        keys: &Matrix,
        values: &Matrix,
        n: usize,
        d: usize,
        allow_vector: bool,
    ) -> Self {
        let _proof: () = Self::FORMATS_OK;
        let keys = Self::quantize_all(keys.as_slice());
        let values = Self::quantize_all(values.as_slice());
        let lut = TypedExpLut::paper();
        #[cfg(target_arch = "x86_64")]
        let vector = if allow_vector {
            Self::build_vector(&keys, &values, &lut, n, d)
        } else {
            None
        };
        #[cfg(not(target_arch = "x86_64"))]
        let _ = allow_vector;
        Self {
            keys,
            values,
            lut,
            #[cfg(target_arch = "x86_64")]
            vector,
            n,
            d,
        }
    }

    /// Re-expresses the quantized raws and materialized tables in the AVX2
    /// module's lane layout. `None` (scalar datapath) when the tables are not
    /// materialized or the vector dispatch declines the host or the formats.
    #[cfg(target_arch = "x86_64")]
    fn build_vector(
        keys: &[Q<I, F>],
        values: &[Q<I, F>],
        lut: &TypedExpLut<XI, XF, SI, SF>,
        n: usize,
        d: usize,
    ) -> Option<crate::backend::quantized_simd::QuantizedSimdPipeline> {
        let tables = lut.tables()?;
        let formats = PipelineFormats::new(QFormat::new(I, F), n, d);
        let raw_keys: Vec<i64> = keys.iter().map(|q| q.raw()).collect();
        let raw_values: Vec<i64> = values.iter().map(|q| q.raw()).collect();
        crate::backend::quantized_simd::QuantizedSimdPipeline::prepare(
            &formats,
            tables,
            &raw_keys,
            &raw_values,
        )
    }

    /// Quantizes a flat row-major `f32` buffer into the input format.
    fn quantize_all(data: &[f32]) -> Vec<Q<I, F>> {
        data.iter().map(|&x| Q::quantize(f64::from(x))).collect()
    }

    fn key_row(&self, r: usize) -> &[Q<I, F>] {
        &self.keys[r * self.d..(r + 1) * self.d]
    }

    fn value_row(&self, r: usize) -> &[Q<I, F>] {
        &self.values[r * self.d..(r + 1) * self.d]
    }
}

impl<
        const I: u32,
        const F: u32,
        const PI: u32,
        const PF: u32,
        const DI: u32,
        const DF: u32,
        const XI: u32,
        const XF: u32,
        const SI: u32,
        const SF: u32,
        const EI: u32,
        const EF: u32,
        const OI: u32,
        const OF: u32,
        const WI: u32,
        const WF: u32,
    > TypedQuantizedPipeline
    for TypedPipeline<I, F, PI, PF, DI, DF, XI, XF, SI, SF, EI, EF, OI, OF, WI, WF>
{
    fn attend(&self, query: &[f32]) -> AttentionResult {
        // Vector datapath, when prepare-time dispatch selected it. The scalar
        // code below is the bit-identity reference it is property-tested
        // against.
        #[cfg(target_arch = "x86_64")]
        if let Some(vector) = &self.vector {
            return vector.attend(query);
        }

        // Quantize the query once (it is reused by every row).
        let q: Vec<Q<I, F>> = query.iter().map(|&x| Q::quantize(f64::from(x))).collect();

        // Module 1: dot products and the running maximum. The element product
        // and its extension to the accumulator format are compile-time-checked
        // widenings; the per-step saturating add mirrors `Fixed::accumulate`.
        let mut dot_products: Vec<Q<DI, DF>> = Vec::with_capacity(self.n);
        let mut max_dot = Q::<DI, DF>::min();
        for r in 0..self.n {
            let mut dot = Q::<DI, DF>::zero();
            for (k, qv) in self.key_row(r).iter().zip(&q) {
                let product: Q<PI, PF> = k.mul_full(*qv);
                dot = dot.saturating_add(product.extend());
            }
            if dot > max_dot {
                max_dot = dot;
            }
            dot_products.push(dot);
        }

        // Module 2: exponent computation with max subtraction, plus the
        // exponent sum. The subtraction result is non-positive by construction
        // and in the lookup table's input format *by type*, so the evaluation
        // is infallible — no FormatMismatch or PositiveExponentInput paths.
        let mut scores: Vec<Q<SI, SF>> = Vec::with_capacity(self.n);
        let mut exp_sum = Q::<EI, EF>::zero();
        for dot in &dot_products {
            let shifted: Q<XI, XF> = dot.extend().saturating_sub(max_dot.extend());
            let score = self.lut.eval(shifted);
            exp_sum = exp_sum.saturating_add(score.extend());
            scores.push(score);
        }

        // Module 3: normalization and the weighted sum of value rows.
        let mut output_acc: Vec<Q<OI, OF>> = vec![Q::zero(); self.d];
        let mut weights: Vec<Q<SI, SF>> = Vec::with_capacity(self.n);
        for (r, score) in scores.iter().enumerate() {
            let weight = if exp_sum.is_zero() {
                Q::zero()
            } else {
                score.div_weight(exp_sum)
            };
            weights.push(weight);
            for (acc, v) in output_acc.iter_mut().zip(self.value_row(r)) {
                let term: Q<WI, WF> = weight.mul_full(*v);
                *acc = acc.saturating_add(term.round_to());
            }
        }

        // Dequantize.
        AttentionResult {
            scores: dot_products.iter().map(|x| x.to_f64() as f32).collect(),
            weights: weights.iter().map(|x| x.to_f64() as f32).collect(),
            output: output_acc.iter().map(|x| x.to_f64() as f32).collect(),
        }
    }

    fn is_vectorized(&self) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            self.vector.is_some()
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }

    fn append_rows(&mut self, new_keys: &Matrix, new_values: &Matrix) -> bool {
        let k = Self::quantize_all(new_keys.as_slice());
        let v = Self::quantize_all(new_values.as_slice());
        // Mutate the vector datapath first: its narrowing can decline (never
        // for deployed formats, but checked), and it mutates atomically, so a
        // `false` here leaves the whole pipeline untouched.
        #[cfg(target_arch = "x86_64")]
        if let Some(vector) = &mut self.vector {
            let raw_k: Vec<i64> = k.iter().map(|q| q.raw()).collect();
            let raw_v: Vec<i64> = v.iter().map(|q| q.raw()).collect();
            if !vector.append_rows(&raw_k, &raw_v) {
                return false;
            }
        }
        self.keys.extend_from_slice(&k);
        self.values.extend_from_slice(&v);
        self.n += new_keys.rows();
        true
    }

    fn update_row(&mut self, row: usize, key: &[f32], value: &[f32]) -> bool {
        if row >= self.n || key.len() != self.d || value.len() != self.d {
            return false;
        }
        let k = Self::quantize_all(key);
        let v = Self::quantize_all(value);
        #[cfg(target_arch = "x86_64")]
        if let Some(vector) = &mut self.vector {
            let raw_k: Vec<i64> = k.iter().map(|q| q.raw()).collect();
            let raw_v: Vec<i64> = v.iter().map(|q| q.raw()).collect();
            if !vector.update_row(row, &raw_k, &raw_v) {
                return false;
            }
        }
        let range = row * self.d..(row + 1) * self.d;
        let (Some(ks), Some(vs)) = (self.keys.get_mut(range.clone()), self.values.get_mut(range))
        else {
            return false;
        };
        ks.copy_from_slice(&k);
        vs.copy_from_slice(&v);
        true
    }

    fn cloned(&self) -> Arc<dyn TypedQuantizedPipeline> {
        Arc::new(self.clone())
    }
}

impl<
        const I: u32,
        const F: u32,
        const PI: u32,
        const PF: u32,
        const DI: u32,
        const DF: u32,
        const XI: u32,
        const XF: u32,
        const SI: u32,
        const SF: u32,
        const EI: u32,
        const EF: u32,
        const OI: u32,
        const OF: u32,
        const WI: u32,
        const WF: u32,
    > fmt::Debug for TypedPipeline<I, F, PI, PF, DI, DF, XI, XF, SI, SF, EI, EF, OI, OF, WI, WF>
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TypedPipeline")
            .field("input", &format_args!("Q{I}.{F}"))
            .field("dot", &format_args!("Q{DI}.{DF}"))
            .field("output", &format_args!("Q{OI}.{OF}"))
            .field("n", &self.n)
            .field("d", &self.d)
            .finish_non_exhaustive()
    }
}

/// Expands one [`TypedPipeline`] instantiation per `(i, f, log2d, log2n)`
/// tuple, deriving every stage format from Section III-B as concrete const
/// expressions, and emits the prepare-time dispatch function.
macro_rules! typed_pipelines {
    ($(($i:literal, $f:literal, $ld:literal, $ln:literal)),* $(,)?) => {
        /// Selects the monomorphized pipeline matching `(input, n, d)`, if one
        /// was compiled in. Returns `None` for shapes outside the deployed
        /// set, which then use the dynamic-format fallback path.
        pub(crate) fn build_typed_pipeline(
            input: QFormat,
            n: usize,
            d: usize,
            keys: &Matrix,
            values: &Matrix,
            allow_vector: bool,
        ) -> Option<Arc<dyn TypedQuantizedPipeline>> {
            let ld = ceil_log2(d);
            let ln = ceil_log2(n);
            $(
                if input.int_bits() == $i && input.frac_bits() == $f && ld == $ld && ln == $ln {
                    type Chosen = TypedPipeline<
                        $i, $f,                                   // input
                        { 2 * $i }, { 2 * $f },                   // product
                        { 2 * $i + $ld }, { 2 * $f },             // dot product
                        { 2 * $i + $ld + 1 }, { 2 * $f },         // shifted dot product
                        0, { 2 * $f },                            // score / weight
                        $ln, { 2 * $f },                          // exponent sum
                        { $i + $ln }, { 3 * $f },                 // output accumulator
                        $i, { 3 * $f },                           // weight x value term
                    >;
                    // The macro derivation and the runtime derivation can only
                    // disagree if one of them drifts from Section III-B; fall
                    // back to the (bit-identical) dynamic path if so.
                    if !Chosen::matches(input, n, d) {
                        debug_assert!(false, "typed dispatch format drift for ({n}, {d})");
                        return None;
                    }
                    return Some(Arc::new(Chosen::prepare(keys, values, n, d, allow_vector)));
                }
            )*
            None
        }

        #[cfg(test)]
        /// The deployed `(i, f, log2d, log2n)` grid, for coverage tests.
        pub(crate) const DEPLOYED: &[(u32, u32, u32, u32)] = &[
            $(($i, $f, $ld, $ln)),*
        ];
    };
}

typed_pipelines![
    // Q4.4 across small/medium shapes: log2(d) in 1..=5, log2(n) in 1..=5.
    (4, 4, 1, 1),
    (4, 4, 1, 2),
    (4, 4, 1, 3),
    (4, 4, 1, 4),
    (4, 4, 1, 5),
    (4, 4, 2, 1),
    (4, 4, 2, 2),
    (4, 4, 2, 3),
    (4, 4, 2, 4),
    (4, 4, 2, 5),
    (4, 4, 3, 1),
    (4, 4, 3, 2),
    (4, 4, 3, 3),
    (4, 4, 3, 4),
    (4, 4, 3, 5),
    (4, 4, 4, 1),
    (4, 4, 4, 2),
    (4, 4, 4, 3),
    (4, 4, 4, 4),
    (4, 4, 4, 5),
    (4, 4, 5, 1),
    (4, 4, 5, 2),
    (4, 4, 5, 3),
    (4, 4, 5, 4),
    (4, 4, 5, 5),
    // Paper-scale shapes: d = 64, n up to 320 (Section VI-D).
    (4, 4, 6, 6),
    (4, 4, 6, 7),
    (4, 4, 6, 8),
    (4, 4, 6, 9),
    // The quantization-study formats (Section VI-B) at paper scale.
    (4, 2, 6, 9),
    (4, 6, 6, 9),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_deployed_instantiation_matches_dynamic_derivation() {
        for &(i, f, ld, ln) in DEPLOYED {
            // Exercise the dispatch with a shape that maps onto (ld, ln).
            let d = 1usize << ld;
            let n = 1usize << ln;
            assert_eq!(ceil_log2(d), ld);
            assert_eq!(ceil_log2(n), ln);
            let keys = Matrix::zeros(n, d);
            let values = Matrix::zeros(n, d);
            let built = build_typed_pipeline(QFormat::new(i, f), n, d, &keys, &values, true);
            assert!(
                built.is_some(),
                "instantiation (Q{i}.{f}, log2d={ld}, log2n={ln}) failed to dispatch"
            );
        }
    }

    #[test]
    fn paper_shape_dispatches_to_typed() {
        let keys = Matrix::zeros(320, 64);
        let values = Matrix::zeros(320, 64);
        let built = build_typed_pipeline(QFormat::new(4, 4), 320, 64, &keys, &values, true);
        assert!(built.is_some());
    }

    #[test]
    fn undeployed_shape_falls_back() {
        let keys = Matrix::zeros(4, 1024);
        let values = Matrix::zeros(4, 1024);
        // log2(d) = 10 is not in the deployed grid.
        assert!(build_typed_pipeline(QFormat::new(4, 4), 4, 1024, &keys, &values, true).is_none());
        // Neither is a Q7.1 input format.
        let small = Matrix::zeros(4, 4);
        assert!(build_typed_pipeline(QFormat::new(7, 1), 4, 4, &small, &small, true).is_none());
    }
}
