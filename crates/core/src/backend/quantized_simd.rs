//! Vectorised quantized attention: integer AVX2 kernels for the fixed-point
//! datapath (the software analogue of the A3 base pipeline's dot-product,
//! exponent and weighting modules, paper Sections III-A/III-B).
//!
//! [`SimdBackend`](super::SimdBackend) vectorises the *float* datapath; this
//! module vectorises the *quantized* one, exploiting how narrow the Section
//! III-B stage formats are for small input formats. One query streams every
//! row through three modules in lanes, carried by one `n`-element `i32` work
//! buffer that holds each row's dot, then its score, then its weight:
//!
//! 1. **QK dot products** — quantized keys and the query live in `i16` lanes
//!    and `_mm256_madd_epi16` performs the widening int16→int32
//!    multiply-accumulate, sixteen elements per instruction. Rows go in
//!    blocks of eight: each query load feeds eight row accumulators, six
//!    `_mm256_hadd_epi32` and two `_mm256_permute2x128_si256` reduce them to
//!    one vector of eight row sums, and that vector is clamped, folded into
//!    the running maximum and stored at once. The `d mod 16` tail is added
//!    per row; the `n mod 8` rows past the last block reduce one at a time;
//! 2. **exp-LUT softmax** — `_mm256_i32gather_epi32` fetches the two-half
//!    table entries for eight rows at once; the entry product and rounding
//!    shift are evaluated in 64-bit lanes (`_mm256_mul_epu32` over the
//!    even/odd halves, blended back into eight 32-bit score lanes);
//! 3. **normalisation and weighted value accumulation** — each `Q0.2f`
//!    weight `floor(score * 2^(2f) / exp_sum)` is computed by exact floor
//!    division in four `f64` lanes and clamped at the weight format; a block
//!    of eight zero scores is skipped whole. Values live in `i16` lanes like
//!    the keys (lane gate 1 bounds every input raw inside `i16`) and are
//!    widened by `_mm256_cvtepi16_epi32` as they load. The output
//!    accumulators stay in registers across all rows: one const-generic
//!    block per count of full eight-lane chunks (`d / 8 <= 8`), with the
//!    `d mod 8` tail columns in scalars beside them. Each nonzero weight is
//!    broadcast once per row and folded in by one `_mm256_mullo_epi32` and
//!    one add per chunk; a block of eight zero weights is skipped whole.
//!
//! Scores, weights and output are dequantized four lanes at a time with
//! `_mm256_cvtepi32_pd`, `_mm256_mul_pd` and `_mm256_cvtpd_ps`: the exact
//! widening, the `f64` product and the round-to-nearest-even narrowing of the
//! scalar `(f64::from(x) * res) as f32`, each correctly rounded under the
//! default rounding mode. Inside the grid `d <= 64`, so the quantized query
//! and the output accumulator live on the stack; an attend allocates only
//! its three result vectors and the work buffer.
//!
//! # Fused sharded query
//!
//! [`QuantizedBackend`](super::QuantizedBackend)'s `attend_sharded` runs the
//! three modules once per shard, but does the per-query work once
//! (`attend_sharded` here) when every shard of a [`ShardedMemory`] carries
//! this pipeline in the backend's input format. The query is validated and
//! quantized once. One `i32` work buffer, sized to the largest shard, serves
//! every shard. Each shard's dequantized scores and weights land straight in
//! the merged `n`-element vectors, and its output in one `K x d` buffer.
//! The log-sum-exp merge then runs over those slices through the core that
//! [`merge_partial_softmax`](super::merge_partial_softmax) also calls, with
//! its per-shard statistics, fold order and rounding. So the result is
//! bit-identical to per-shard `attend_prepared` followed by
//! `merge_partial_softmax`. A fused query makes seven allocations (the two
//! merged vectors, the output buffer, the work buffer, and the merge's
//! statistics and outputs), where the per-shard path makes `4K + 6`. Any
//! other memory, such as one with a shard on the scalar pipeline, takes the
//! per-shard path, which reports errors in its own order.
//!
//! # Bit-identity contract
//!
//! Unlike the float SIMD backend (which tolerates reduction-order drift), this
//! datapath is **bit-identical** to the scalar quantized pipeline. Integer
//! addition is associative, and for the formats this module
//! accepts (`formats_eligible`) the scalar pipeline's per-step saturation
//! provably never fires before the final accumulation step:
//!
//! - *dot products*: every partial sum of element products from one row is
//!   bounded by `d * 2^(2t) <= 2^(2t+ld) <= 2^30` (`t` = input total bits;
//!   lane gate 2), and every partial sum of at most `d - 1` products by
//!   `(2^ld - 1) * 2^(2t)`, strictly inside the `Q(2i+ld).(2f)` dot format.
//!   So the scalar per-step clamps are no-ops until the last step, and any
//!   summation order — lane accumulators, the eight-row `hadd` tree, whose
//!   every partial sum covers a subset of one row's products, or the per-row
//!   tail — equals one exact sum plus a single final clamp;
//! - *exponent sums*: scores are at most `2^2f - 1` and `n <= 2^ln`, so the
//!   running sum never reaches the `Q(ln).(2f)` bound;
//! - *normalisation*: with `N = score * 2^(2f) < 2^(4f) <= 2^32` and
//!   `0 < D = exp_sum < 2^(ln+2f) <= 2^25` (grid `f <= 8`, `ln <= 9`), both
//!   operands are exact `f64` values and the lane quotient is `N / D`
//!   correctly rounded. If `N / D` is an integer, the quotient is exact.
//!   Otherwise `q < N / D <= q + 1 - 1/D` for `q = floor(N / D)`; rounding to
//!   nearest can reach `q + 1` only from within half an ulp of it, at most
//!   `(q + 1) * 2^-53`, but `(q + 1) * D <= N + D < 2^53` puts `N / D` at
//!   least `1/D > (q + 1) * 2^-53` below. The quotient is non-negative, so
//!   clamping it at `weight_max` and truncating gives `min(q, weight_max)`,
//!   the scalar `div_weight` (whose lower clamp never binds). `prepare`
//!   checks `N_max + D_max < 2^53` for the plan rather than assuming it;
//! - *output accumulation*: the normalisation weights floor-divide a common
//!   denominator, so they sum to at most `2^2f`, bounding every partial
//!   weighted sum strictly inside the `Q(i+ln).(3f)` output format.
//!
//! The nonlinear steps — LUT entry product rounding, the `div_weight`
//! floor division with its zero-denominator case and weight clamp, and the
//! final dot saturation — are replicated operation for operation. The property
//! suite in `crates/core/tests/properties.rs` pins the bit-identity on random
//! shapes and formats, including `n = 1` and non-lane-multiple `d`, the unit
//! tests below pin the blocked dots and the lane division against their
//! scalar forms, and `crates/core/tests/quantized_golden.rs` pins the
//! absolute output bits.
//!
//! # Dispatch
//!
//! As with [`SimdLevel::detect`], the decision is made **once at prepare
//! time**: `QuantizedSimdPipeline::prepare` returns `None` unless runtime
//! detection selects AVX2 (the `A3_FORCE_SCALAR` override is honoured) *and*
//! the format plan passes [`PipelineFormats::lanes_eligible`] — inside the
//! grid the `a3-analyze` range prover certifies, every lane-width gate
//! holding — *and* the exponent tables are materialized; the memory then
//! carries the scalar pipeline instead, bit-identical by construction. Every
//! consumer of [`QuantizedMemory`] — single queries, `attend_batch_prepared`,
//! the sharded query and the serving scheduler's flush path — inherits the
//! choice through [`QuantizedMemory::attend`] or the fused sharded query
//! above.
//!
//! A memory that grows by appends keeps its pipeline while the grown plan
//! passes the gates. Only the gates depend on `n`, so
//! [`QuantizedMemory::append_rows`] re-checks them
//! (`QuantizedSimdPipeline::regate`) whenever `ceil_log2(n)` changes, and
//! converts the memory to the scalar pipeline in place, over its widened
//! raws, once the plan leaves them.
//!
//! # Lane quantization
//!
//! Keys, values, appended and updated rows and every query are quantized
//! straight from their `f32` rows into `i16` lanes, eight elements per step,
//! bit-identical to [`Fixed::quantize_slice`](a3_fixed::Fixed::quantize_slice).
//! See `LaneQuantizer` for the exactness argument.

use std::fmt;
use std::sync::Arc;

use a3_fixed::{ceil_log2, ExpLutTables, PipelineFormats, QFormat};

use super::shard::{merge_core, rescale_weight};
use super::simd::SimdLevel;
use super::{MemoryShard, ShardedMemory};
use crate::attention::{AttentionResult, QueryBuffer};
use crate::quantized::QuantizedMemory;

/// Prepared vector state for one quantized memory: operands quantized into
/// lane-width integer layouts, a handle on the shared exponent tables, and
/// every shift amount and clamp bound the kernels need, all resolved once at
/// prepare time.
///
/// Constructed only through `QuantizedSimdPipeline::prepare`, which performs
/// the runtime AVX2 dispatch and validates the lane-width eligibility gates;
/// an instance existing is the proof that the kernels' preconditions hold.
#[derive(Clone)]
pub struct QuantizedSimdPipeline {
    /// Quantized key matrix, row-major `n x d`, raws in `i16` lanes.
    keys: Vec<i16>,
    /// Quantized value matrix, row-major `n x d`, raws in `i16` lanes like
    /// the keys (lane gate 1); module 3 widens them to `i32` as it loads them.
    values: Vec<i16>,
    /// The process-wide materialized exponent tables for this memory's
    /// configuration, gathered from in place. `prepare` pinned their lengths
    /// to the shifted-dot format; the upper table keeps its sentinel entry
    /// for the most negative input.
    tables: Arc<ExpLutTables>,
    /// The input quantizer in `f32` lanes (its existence proves AVX2).
    quantizer: LaneQuantizer,
    /// Low-order magnitude bits indexing the lower table.
    lower_bits: u32,
    /// Rounding shift applied to each upper-times-lower entry product.
    round_shift: u32,
    /// Saturation bound of the LUT output (score format max).
    score_max: i32,
    dot_min: i32,
    dot_max: i32,
    /// `2^(2f)`, the `div_weight` numerator pre-shift as an `f64` factor.
    weight_scale: f64,
    /// Upper weight clamp (`2^(2f) - 1`) as an `f64` lane bound.
    weight_max: f64,
    input_format: QFormat,
    dot_res: f64,
    weight_res: f64,
    out_res: f64,
    n: usize,
    d: usize,
}

impl QuantizedSimdPipeline {
    /// Quantizes the operands straight into lane layouts when (a) runtime
    /// dispatch selects AVX2 and (b) the format plan is eligible
    /// ([`formats_eligible`]); `None` otherwise, and the caller uses the
    /// scalar pipeline. `keys` and `values` are row-major `n x d`; `tables`
    /// are the materialized two-half exponent tables for the shifted-dot
    /// format, shared with every other memory of the same configuration.
    pub(crate) fn prepare(
        formats: &PipelineFormats,
        tables: &Arc<ExpLutTables>,
        keys: &[f32],
        values: &[f32],
    ) -> Option<Self> {
        let quantizer = LaneQuantizer::new(formats.input())?;
        if !formats_eligible(formats) {
            return None;
        }
        let round_shift = tables.round_shift();
        if round_shift == 0 || round_shift > 62 {
            return None;
        }
        // Bind the gather bounds to the physical table lengths: an index
        // derived from a shifted-format magnitude then provably never leaves
        // either table (see the kernel SAFETY comments).
        let shifted_total = formats.shifted_dot_product().total_bits();
        let lower_bits = tables.lower_bits();
        if lower_bits >= shifted_total {
            return None;
        }
        let upper_bits = shifted_total - lower_bits;
        if tables.upper_entries().len() != (1usize << upper_bits) + 1
            || tables.lower_entries().len() != (1usize << lower_bits)
        {
            return None;
        }
        // Entry products must land inside an i32 lane after the 64-bit
        // rounding shift (always true for materialized formats; checked, not
        // assumed). Entries are non-negative, so the two maxima bound it.
        let max_product = tables.upper_range().1 * tables.lower_range().1;
        if (max_product + (1i64 << (round_shift - 1))) >> round_shift > i64::from(i32::MAX) {
            return None;
        }
        // The query and the output accumulator live in `MAX_D`-lane stack
        // buffers (the grid's `ld <= 6` implies it).
        if formats.d() > MAX_D {
            return None;
        }
        let score_max = i32::try_from(tables.out_max_raw()).ok()?;
        let (weight_scale, weight_max) = normalisation_bounds(formats, score_max)?;
        debug_assert_eq!(keys.len(), formats.n() * formats.d());
        debug_assert_eq!(values.len(), formats.n() * formats.d());
        let mut keys_q = vec![0; keys.len()];
        x86::quantize_i16(&quantizer, keys, &mut keys_q);
        let mut values_q = vec![0; values.len()];
        x86::quantize_i16(&quantizer, values, &mut values_q);
        let dot = formats.dot_product();
        Some(Self {
            keys: keys_q,
            values: values_q,
            tables: Arc::clone(tables),
            quantizer,
            lower_bits,
            round_shift,
            score_max,
            dot_min: i32::try_from(dot.min_raw()).ok()?,
            dot_max: i32::try_from(dot.max_raw()).ok()?,
            weight_scale,
            weight_max,
            input_format: formats.input(),
            dot_res: dot.resolution(),
            weight_res: formats.weight().resolution(),
            out_res: formats.output().resolution(),
            n: formats.n(),
            d: formats.d(),
        })
    }

    /// Runs the vector pipeline for one query over every row.
    ///
    /// Caller contract (upheld by `QuantizedMemory::attend`, the only route
    /// here): `query.len() == d`.
    pub(crate) fn attend(&self, query: impl QueryBuffer) -> AttentionResult {
        debug_assert_eq!(query.query().len(), self.d);
        x86::attend(self, query)
    }

    /// Re-checks the gates that depend on `n` against `formats`, the plan of
    /// this memory grown across a `ceil_log2(n)` boundary, and adopts the
    /// plan's lane constants. Returns `false`, leaving the pipeline
    /// untouched, when the plan fails [`formats_eligible`] or
    /// [`normalisation_bounds`]. Every other check in `prepare` (the lane
    /// quantizer, the tables, the shifts, `d <= MAX_D`) depends only on the
    /// input format and `d`, so a `true` leaves exactly the pipeline a fresh
    /// prepare of the grown memory builds.
    pub(crate) fn regate(&mut self, formats: &PipelineFormats) -> bool {
        debug_assert_eq!((formats.input(), formats.d()), (self.input_format, self.d));
        if !formats_eligible(formats) {
            return false;
        }
        let Some((weight_scale, weight_max)) = normalisation_bounds(formats, self.score_max) else {
            return false;
        };
        self.weight_scale = weight_scale;
        self.weight_max = weight_max;
        self.out_res = formats.output().resolution();
        true
    }

    /// The key and value raws widened to `i64`, as the scalar pipeline holds
    /// them (the lane quantizer's raws equal the scalar quantizer's).
    pub(crate) fn widened_raws(&self) -> (Vec<i64>, Vec<i64>) {
        let widen = |raws: &[i16]| raws.iter().map(|&r| i64::from(r)).collect();
        (widen(&self.keys), widen(&self.values))
    }

    /// The shared exponent tables the gathers read.
    pub(crate) fn tables(&self) -> &Arc<ExpLutTables> {
        &self.tables
    }

    /// Quantizes and appends rows (row-major `delta x d` each) in place.
    /// Valid while the gates hold for the grown plan, which
    /// `QuantizedMemory::append_rows` re-checks ([`Self::regate`]) whenever
    /// the row count crosses a `ceil_log2(n)` boundary.
    pub(crate) fn append_rows(&mut self, keys: &[f32], values: &[f32]) {
        debug_assert_eq!(keys.len(), values.len());
        debug_assert_eq!(keys.len() % self.d.max(1), 0);
        let old = self.keys.len();
        self.keys.resize(old + keys.len(), 0);
        self.values.resize(old + values.len(), 0);
        if let (Some(k), Some(v)) = (self.keys.get_mut(old..), self.values.get_mut(old..)) {
            x86::quantize_i16(&self.quantizer, keys, k);
            x86::quantize_i16(&self.quantizer, values, v);
        }
        self.n += keys.len() / self.d.max(1);
    }

    /// Re-quantizes row `row` in place (same validity contract as
    /// [`Self::append_rows`]). Returns `false` without mutating on an
    /// out-of-bounds row.
    pub(crate) fn update_row(&mut self, row: usize, key: &[f32], value: &[f32]) -> bool {
        debug_assert_eq!(key.len(), self.d);
        debug_assert_eq!(value.len(), self.d);
        let range = row * self.d..(row + 1) * self.d;
        let (Some(ks), Some(vs)) = (self.keys.get_mut(range.clone()), self.values.get_mut(range))
        else {
            return false;
        };
        x86::quantize_i16(&self.quantizer, key, ks);
        x86::quantize_i16(&self.quantizer, value, vs);
        true
    }
}

/// The fused sharded query of [`QuantizedBackend`](super::QuantizedBackend)
/// (module docs), or `None` unless every shard of `memory` carries the vector
/// datapath in the `input` format and `memory`'s width; the caller then takes
/// the per-shard path.
///
/// Caller contract: `query.len() == memory.d()`.
pub(crate) fn attend_sharded(
    memory: &ShardedMemory,
    input: QFormat,
    query: &[f32],
) -> Option<AttentionResult> {
    let d = memory.d();
    let shards = memory.shards();
    let mut largest = 0;
    for shard in shards {
        largest = largest.max(shard_pipeline(shard, input, d)?.n);
    }
    // Every shard quantizes the query with the same lane quantizer: it
    // depends only on the input format.
    let first = shard_pipeline(shards.first()?, input, d)?;
    let q = x86::quantize_query(&first.quantizer, query);
    let mut scores = vec![0.0f32; memory.n()];
    let mut weights = vec![0.0f32; memory.n()];
    let mut outputs = vec![0.0f32; shards.len() * d];
    let mut work = vec![0i32; largest];
    for (s, shard) in shards.iter().enumerate() {
        let p = shard_pipeline(shard, input, d)?;
        let rows = shard.start()..shard.end();
        if !x86::attend_rows(
            p,
            &q,
            work.get_mut(..p.n)?,
            scores.get_mut(rows.clone())?,
            weights.get_mut(rows)?,
            outputs.get_mut(s * d..(s + 1) * d)?,
        ) {
            return None;
        }
    }
    let partials = shards.iter().enumerate().map(|(s, shard)| {
        (
            scores.get(shard.start()..shard.end()).unwrap_or_default(),
            outputs.get(s * d..(s + 1) * d).unwrap_or_default(),
        )
    });
    let output = merge_core(d, partials, |s, scale| {
        let rows = shards.get(s).map(|shard| shard.start()..shard.end());
        for w in rows
            .and_then(|rows| weights.get_mut(rows))
            .into_iter()
            .flatten()
        {
            *w = rescale_weight(*w, scale);
        }
    });
    Some(AttentionResult {
        scores,
        weights,
        output,
    })
}

/// The vector pipeline of one shard, if it carries one in the `input` format
/// and width `d`.
fn shard_pipeline(shard: &MemoryShard, input: QFormat, d: usize) -> Option<&QuantizedSimdPipeline> {
    shard
        .memory()
        .quantized()
        .filter(|q| q.input_format() == input)
        .and_then(QuantizedMemory::vector)
        .filter(|p| p.d == d)
}

impl fmt::Debug for QuantizedSimdPipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QuantizedSimdPipeline")
            .field("input", &self.input_format)
            .field("n", &self.n)
            .field("d", &self.d)
            .finish_non_exhaustive()
    }
}

/// The input quantizer of [`Fixed::quantize_slice`](a3_fixed::Fixed::quantize_slice)
/// restated for `f32` lanes: scale by `2^f`, zero NaN, clamp to the format's
/// raw bounds, round half away from zero. An instance exists only on an AVX2
/// host (its constructor runs the dispatch) and only for formats whose raws
/// fit an `i16` lane.
///
/// # Exactness
///
/// The scalar quantizer widens each element to `f64`. The lanes stay in `f32`
/// and produce the same raw for every input, because the constructor admits
/// only formats with `t = i + f <= 15` (lane gate 1):
///
/// - the scale `2^f` and both bounds `-2^t` and `2^t - 1` are exact `f32`
///   values;
/// - scaling an `f32` by a power of two is exact unless it overflows, so the
///   lane product equals the `f64` one; an overflow to `±inf` clamps to the
///   same bound the finite `f64` product clamps to;
/// - NaN lanes are zeroed before the clamp (the min/max instructions would
///   pass or drop a NaN depending on operand order) and quantize to 0, as in
///   the scalar path;
/// - clamping before rounding is exact, because the bounds are integers and
///   rounding is monotone;
/// - a clamped value has `|x| <= 2^15`, so its truncation and the fraction
///   `x - trunc(x)` are exact, and comparing the fraction against `±0.5`
///   rounds ties away from zero exactly as `f64::round` does.
#[derive(Clone, Copy)]
struct LaneQuantizer {
    scale: f32,
    min: f32,
    max: f32,
}

impl LaneQuantizer {
    /// `None` unless runtime dispatch selects AVX2 and every raw of `input`
    /// fits an `i16` lane. The lane-fit check is one comparison per format:
    /// after the clamp no raw can leave `[min_raw, max_raw]`, so checking the
    /// two bounds covers every vector (lane gate 1 implies it; checked rather
    /// than assumed).
    fn new(input: QFormat) -> Option<Self> {
        if SimdLevel::detect() != SimdLevel::Avx2 {
            return None;
        }
        let min = i16::try_from(input.min_raw()).ok()?;
        let max = i16::try_from(input.max_raw()).ok()?;
        // `f <= t <= 15`, so the scale fits a u16 exactly.
        let scale = u16::try_from(1u64 << input.frac_bits()).ok()?;
        Some(Self {
            scale: f32::from(scale),
            min: f32::from(min),
            max: f32::from(max),
        })
    }
}

/// The format-plan and lane-width gates under which the kernels' overflow and
/// no-early-saturation proofs (module docs) hold. Shapes or formats outside
/// this set stay on the scalar pipeline (which is bit-identical anyway, so
/// the gate costs correctness nothing).
///
/// The grid bounds and the four lane-width inequalities live in exactly one
/// place — [`PipelineFormats::lanes_eligible`] and
/// [`PipelineFormats::lane_gates`], whose doc table documents each gate — and
/// are shared verbatim with the `a3-analyze` range prover, which sweeps that
/// grid and machine-checks that every gate implies its interval-arithmetic
/// overflow obligation.
fn formats_eligible(formats: &PipelineFormats) -> bool {
    let input = formats.input();
    let (i, f) = (input.int_bits(), input.frac_bits());
    let ld = ceil_log2(formats.d());
    let ln = ceil_log2(formats.n());
    // The Section III-B format relations every proof premise references.
    let plan_matches = formats.product() == QFormat::new(2 * i, 2 * f)
        && formats.dot_product() == QFormat::new(2 * i + ld, 2 * f)
        && formats.shifted_dot_product() == QFormat::new(2 * i + ld + 1, 2 * f)
        && formats.score() == QFormat::new(0, 2 * f)
        && formats.weight() == QFormat::new(0, 2 * f)
        && formats.exp_sum() == QFormat::new(ln, 2 * f)
        && formats.output() == QFormat::new(i + ln, 3 * f);
    plan_matches && formats.lanes_eligible()
}

/// Widest row the kernels accept: the quantized query and the output
/// accumulator live in stack buffers of this many lanes. The proved grid's
/// `ld <= 6` admits no wider `d`; `prepare` checks it rather than assuming it.
const MAX_D: usize = 1 << *PipelineFormats::GRID_LD.end();

/// Module 3's lane constants `(2^(2f), weight_max)` as `f64` values, or
/// `None` unless floor division in `f64` lanes is exact for this plan. The
/// checks, one per plan rather than per query:
///
/// - the weight format's lower clamp is non-positive, so it never binds on
///   the non-negative quotient of a score by a positive exponent sum;
/// - the upper clamp fits an `i32` lane;
/// - the largest numerator `score_max * 2^(2f)` plus the largest exponent sum
///   (the exp-sum format's max raw, which no sum reaches) stays below `2^53`,
///   the bound the module docs' exactness argument needs.
fn normalisation_bounds(formats: &PipelineFormats, score_max: i32) -> Option<(f64, f64)> {
    let weight = formats.weight();
    if weight.min_raw() > 0 {
        return None;
    }
    let weight_max = i32::try_from(weight.max_raw()).ok()?;
    let scale = 1u64.checked_shl(formats.exp_sum().frac_bits())?;
    let numerator_max = u64::try_from(score_max).ok()?.checked_mul(scale)?;
    let sum_max = u64::try_from(formats.exp_sum().max_raw()).ok()?;
    if numerator_max.checked_add(sum_max)? >= 1 << f64::MANTISSA_DIGITS {
        return None;
    }
    // Both are integers below 2^53, hence exact `f64` values.
    Some((scale as f64, f64::from(weight_max)))
}

/// The AVX2 integer kernels. Everything here is reached only through a
/// [`LaneQuantizer`] or a [`QuantizedSimdPipeline`] (which holds one), whose
/// constructor verified (via [`SimdLevel::detect`]) that the running CPU
/// supports `avx2` before an instance could exist.
#[allow(unsafe_code)]
mod x86 {
    use std::arch::x86_64::{
        __m128i, __m256, __m256d, __m256i, _mm256_add_epi32, _mm256_add_epi64, _mm256_and_ps,
        _mm256_and_si256, _mm256_castps_si256, _mm256_castsi256_si128, _mm256_cmp_ps,
        _mm256_cvtepi16_epi32, _mm256_cvtepi32_pd, _mm256_cvtpd_ps, _mm256_cvttpd_epi32,
        _mm256_cvttps_epi32, _mm256_div_pd, _mm256_extracti128_si256, _mm256_hadd_epi32,
        _mm256_i32gather_epi32, _mm256_loadu_ps, _mm256_loadu_si256, _mm256_madd_epi16,
        _mm256_max_epi32, _mm256_max_ps, _mm256_min_epi32, _mm256_min_pd, _mm256_min_ps,
        _mm256_mul_epu32, _mm256_mul_pd, _mm256_mul_ps, _mm256_mullo_epi32, _mm256_or_si256,
        _mm256_permute2x128_si256, _mm256_round_ps, _mm256_set1_epi32, _mm256_set1_epi64x,
        _mm256_set1_pd, _mm256_set1_ps, _mm256_set_m128i, _mm256_setzero_si256, _mm256_slli_epi64,
        _mm256_srl_epi32, _mm256_srl_epi64, _mm256_srli_epi64, _mm256_storeu_si256,
        _mm256_sub_epi32, _mm256_sub_ps, _mm256_testz_si256, _mm_add_epi32, _mm_cvtsi128_si32,
        _mm_cvtsi32_si128, _mm_loadu_si128, _mm_max_epi32, _mm_packs_epi32, _mm_shuffle_epi32,
        _mm_srli_si128, _mm_storeu_ps, _mm_storeu_si128, _CMP_GE_OQ, _CMP_LE_OQ, _CMP_ORD_Q,
        _MM_FROUND_NO_EXC, _MM_FROUND_TO_ZERO,
    };

    use super::{LaneQuantizer, QuantizedSimdPipeline, MAX_D};
    use crate::attention::{AttentionResult, QueryBuffer};

    /// `i16` lanes per 256-bit vector (module 1).
    const LANES_16: usize = 16;
    /// `i32` (and `f32`) lanes per 256-bit vector (quantization, modules 2
    /// and 3).
    const LANES_32: usize = 8;

    /// Quantizes `src` into the `i16` lanes of `dst`, element for element
    /// over the shorter of the two.
    pub(super) fn quantize_i16(q: &LaneQuantizer, src: &[f32], dst: &mut [i16]) {
        // SAFETY: a `LaneQuantizer` only exists when its constructor saw
        // `SimdLevel::detect() == Avx2`, so the CPU supports `avx2`.
        unsafe { quantize_i16_avx2(q, src, dst) }
    }

    /// Eight raws from eight `f32` lanes (see [`LaneQuantizer`] for why each
    /// equals the scalar quantizer's raw). Every result lies in the
    /// quantizer's `[min, max]`, hence inside an `i16`: NaN lanes are zeroed
    /// before the clamp, which `_mm256_min_ps`/`_mm256_max_ps` could otherwise
    /// let a NaN through, and the truncation of a clamped lane converts
    /// exactly.
    // SAFETY: callers must ensure `avx2` is available (the `#[target_feature]`
    // contract). No memory is accessed — lane arithmetic only.
    #[target_feature(enable = "avx2")]
    unsafe fn quantize8(q: &LaneQuantizer, x: __m256) -> __m256i {
        let scaled = _mm256_mul_ps(x, _mm256_set1_ps(q.scale));
        // An ordered self-compare is all-ones exactly on the non-NaN lanes,
        // so the mask turns NaN lanes into +0.0 before the clamp sees them.
        let scaled = _mm256_and_ps(scaled, _mm256_cmp_ps::<_CMP_ORD_Q>(scaled, scaled));
        let clamped = _mm256_min_ps(
            _mm256_max_ps(scaled, _mm256_set1_ps(q.min)),
            _mm256_set1_ps(q.max),
        );
        let truncated = _mm256_round_ps::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(clamped);
        let fraction = _mm256_sub_ps(clamped, truncated);
        // True compare lanes are all-ones, i.e. -1 as an i32: subtracting the
        // `>= 0.5` mask adds one, adding the `<= -0.5` mask subtracts one.
        let up = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_GE_OQ>(fraction, _mm256_set1_ps(0.5)));
        let down = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_LE_OQ>(fraction, _mm256_set1_ps(-0.5)));
        _mm256_add_epi32(_mm256_sub_epi32(_mm256_cvttps_epi32(truncated), up), down)
    }

    /// The raws of the last `len < 8` elements at `src`, through the same
    /// lane arithmetic (the unused lanes quantize zero padding).
    // SAFETY: callers must ensure `avx2` is available (the `#[target_feature]`
    // contract) and that `src` points to at least `len <= 8` valid `f32`s;
    // exactly `len` are copied into a local buffer.
    #[target_feature(enable = "avx2")]
    unsafe fn quantize_tail(q: &LaneQuantizer, src: *const f32, len: usize) -> [i32; LANES_32] {
        debug_assert!(len <= LANES_32);
        let mut buf = [0.0f32; LANES_32];
        std::ptr::copy_nonoverlapping(src, buf.as_mut_ptr(), len.min(LANES_32));
        let mut raws = [0i32; LANES_32];
        _mm256_storeu_si256(
            raws.as_mut_ptr().cast(),
            quantize8(q, _mm256_loadu_ps(buf.as_ptr())),
        );
        raws
    }

    // SAFETY: callers must ensure `avx2` is available (the `#[target_feature]`
    // contract). Only the first `len = min(src.len(), dst.len())` elements
    // are touched: vector loads/stores at `i` with `i + LANES_32 <= len`, the
    // tail at `i + j` with `j < len - i`. The pack and the `as i16` narrowing
    // are value-preserving because `quantize8` zeroes NaN lanes before its
    // clamp, so every raw lies in the quantizer's i16-checked `[min, max]`.
    #[target_feature(enable = "avx2")]
    unsafe fn quantize_i16_avx2(q: &LaneQuantizer, src: &[f32], dst: &mut [i16]) {
        let len = src.len().min(dst.len());
        let (sp, dp) = (src.as_ptr(), dst.as_mut_ptr());
        let mut i = 0;
        while i + LANES_32 <= len {
            let raws = quantize8(q, _mm256_loadu_ps(sp.add(i)));
            // Saturating pack of the two 128-bit halves, in order; every raw
            // already fits an i16, so nothing saturates.
            let packed = _mm_packs_epi32(
                _mm256_castsi256_si128(raws),
                _mm256_extracti128_si256::<1>(raws),
            );
            _mm_storeu_si128(dp.add(i).cast(), packed);
            i += LANES_32;
        }
        let rest = len - i;
        for (j, &raw) in quantize_tail(q, sp.add(i), rest)
            .iter()
            .take(rest)
            .enumerate()
        {
            *dp.add(i + j) = raw as i16;
        }
    }

    /// One query through the vector pipeline over every row.
    ///
    /// Caller contract (enforced by `QuantizedSimdPipeline::attend`):
    /// `query.len() == d`.
    pub(super) fn attend(p: &QuantizedSimdPipeline, query: impl QueryBuffer) -> AttentionResult {
        // SAFETY: a `QuantizedSimdPipeline` only exists when its `prepare`
        // saw `SimdLevel::detect() == Avx2`, so the CPU supports `avx2`; this
        // function is only reached through such a pipeline.
        unsafe { attend_avx2(p, query) }
    }

    /// The output lands in the buffer `query` turns into once it is
    /// quantized, zeroed first as `attend_rows` requires.
    // SAFETY: callers must ensure the CPU supports `avx2` (the
    // `#[target_feature]` contract) and the `attend` caller contract above;
    // the only caller is `attend`. `work`, `scores` and `weights` are
    // allocated here with exactly `n` elements and `output` resized to
    // exactly `d`, the lengths `attend_rows_avx2` requires.
    #[target_feature(enable = "avx2")]
    unsafe fn attend_avx2(p: &QuantizedSimdPipeline, query: impl QueryBuffer) -> AttentionResult {
        let (n, d) = (p.n, p.d);
        let q = quantize_query(&p.quantizer, query.query());
        let mut output = query.into_output(d);
        output.resize(d, 0.0);
        let mut scores = vec![0.0f32; n];
        let mut weights = vec![0.0f32; n];
        let mut work = vec![0i32; n];
        attend_rows_avx2(p, &q, &mut work, &mut scores, &mut weights, &mut output);
        AttentionResult {
            scores,
            weights,
            output,
        }
    }

    /// The quantized query, exactly as the scalar pipeline quantizes it; the
    /// lanes past `query.len()` stay zero and are never read.
    pub(super) fn quantize_query(quantizer: &LaneQuantizer, query: &[f32]) -> [i16; MAX_D] {
        let mut q = [0i16; MAX_D];
        quantize_i16(quantizer, query, &mut q);
        q
    }

    /// One query's three modules over every row of `p`, from the quantized
    /// query `q` into the dequantized `scores`, `weights` and `output`, with
    /// `work` as the row carrier. `weights` and `output` must arrive zeroed.
    /// Returns `false`, touching nothing, unless `work`, `scores` and
    /// `weights` hold exactly `n` elements and `output` exactly `d`.
    pub(super) fn attend_rows(
        p: &QuantizedSimdPipeline,
        q: &[i16; MAX_D],
        work: &mut [i32],
        scores: &mut [f32],
        weights: &mut [f32],
        output: &mut [f32],
    ) -> bool {
        let n = p.n;
        if work.len() != n || scores.len() != n || weights.len() != n || output.len() != p.d {
            return false;
        }
        // SAFETY: the pipeline's existence proves `avx2` (see `attend`), and
        // the lengths `attend_rows_avx2` requires were checked above.
        unsafe { attend_rows_avx2(p, q, work, scores, weights, output) };
        true
    }

    /// [`attend_rows`] without the length checks. One `n`-lane work buffer
    /// carries each row through the modules in place: its clamped dot, then
    /// its LUT score, then its weight.
    // SAFETY: callers must ensure the CPU supports `avx2` (the
    // `#[target_feature]` contract), that `work`, `scores` and `weights` hold
    // exactly `n` elements and `output` exactly `d`: the lengths every kernel
    // below is called with. `prepare` admitted `d <= MAX_D`, so `q` and the
    // accumulator stack buffer hold every column.
    #[target_feature(enable = "avx2")]
    unsafe fn attend_rows_avx2(
        p: &QuantizedSimdPipeline,
        q: &[i16; MAX_D],
        work: &mut [i32],
        scores: &mut [f32],
        weights: &mut [f32],
        output: &mut [f32],
    ) {
        let max_dot = dots(p, q.as_ptr(), work);
        dequantize(work, p.dot_res, scores);
        let exp_sum = scores_gather(p, work, max_dot);
        // A zero exponent sum gives every row weight 0 (the scalar
        // `div_weight` zero-denominator case): the zeroed weights and output
        // are already the dequantized result.
        if exp_sum != 0 {
            normalise(p, work, exp_sum);
            let mut acc = [0i32; MAX_D];
            accumulate(p, work, &mut acc);
            dequantize(work, p.weight_res, weights);
            dequantize(&acc, p.out_res, output);
        }
    }

    /// Module 1: writes every row's dot product with the quantized query,
    /// clamped once at the dot format, into `dots` (`dots.len() == n`) and
    /// returns the largest. Eight rows share each query load and reduce
    /// together ([`hsum8_epi32`]); the `n mod 8` rows past the last full
    /// block go through [`dot_i16`]. Exact: every partial sum (lane
    /// accumulators, horizontal adds, the per-row `d mod 16` tail) sums a
    /// subset of one row's products, so the gate bound `|sum| <= 2^(2t+ld)
    /// <= 2^30` of the module docs covers it, and the scalar pipeline's
    /// per-step saturation never fires before the final clamp.
    // SAFETY: callers must ensure `avx2` is available (the
    // `#[target_feature]` contract), that `q` points to at least `d` valid
    // i16 lanes and that `dots.len() == n`. Row `r + k` is read at
    // `keys + (r + k) * d + i` with `r + k < n` and `i < d`, inside the
    // `n * d` key buffer; the query at `i < d`; `dots` is written at
    // `r + k < n` through the pointer of its exclusive borrow.
    #[target_feature(enable = "avx2")]
    unsafe fn dots(p: &QuantizedSimdPipeline, q: *const i16, dots: &mut [i32]) -> i32 {
        debug_assert_eq!(dots.len(), p.n);
        let (n, d) = (p.n, p.d);
        let keys = p.keys.as_ptr();
        let out = dots.as_mut_ptr();
        let full = d - d % LANES_16;
        let lo = _mm256_set1_epi32(p.dot_min);
        let hi = _mm256_set1_epi32(p.dot_max);
        let mut running = lo;
        let mut r = 0;
        while r + LANES_32 <= n {
            let block = keys.add(r * d);
            let mut acc = [_mm256_setzero_si256(); LANES_32];
            let mut i = 0;
            while i < full {
                let qv = _mm256_loadu_si256(q.add(i).cast());
                for (k, a) in acc.iter_mut().enumerate() {
                    let kv = _mm256_loadu_si256(block.add(k * d + i).cast());
                    *a = _mm256_add_epi32(*a, _mm256_madd_epi16(kv, qv));
                }
                i += LANES_16;
            }
            let mut sums = hsum8_epi32(acc);
            if full < d {
                let mut tails = [0i32; LANES_32];
                for (k, t) in tails.iter_mut().enumerate() {
                    *t = dot_tail(block.add(k * d), q, full, d);
                }
                sums = _mm256_add_epi32(sums, _mm256_loadu_si256(tails.as_ptr().cast()));
            }
            let clamped = _mm256_min_epi32(_mm256_max_epi32(sums, lo), hi);
            running = _mm256_max_epi32(running, clamped);
            _mm256_storeu_si256(out.add(r).cast(), clamped);
            r += LANES_32;
        }
        let mut max_dot = hmax_epi32(running);
        while r < n {
            let dot = dot_i16(keys.add(r * d), q, d).clamp(p.dot_min, p.dot_max);
            max_dot = max_dot.max(dot);
            *out.add(r) = dot;
            r += 1;
        }
        max_dot
    }

    /// The eight row sums of eight `i32` accumulators, one row per output
    /// lane in order: six `hadd`s pair up lanes of the same accumulator, two
    /// 128-bit permutes line up the half-row sums and one add finishes.
    // SAFETY: callers must ensure `avx2` is available (the
    // `#[target_feature]` contract). No memory is accessed.
    #[target_feature(enable = "avx2")]
    unsafe fn hsum8_epi32(acc: [__m256i; LANES_32]) -> __m256i {
        let [a0, a1, a2, a3, a4, a5, a6, a7] = acc;
        // hadd(a, b) = [a0+a1, a2+a3, b0+b1, b2+b3 | a4+a5, a6+a7, b4+b5, b6+b7].
        let s0123 = _mm256_hadd_epi32(_mm256_hadd_epi32(a0, a1), _mm256_hadd_epi32(a2, a3));
        let s4567 = _mm256_hadd_epi32(_mm256_hadd_epi32(a4, a5), _mm256_hadd_epi32(a6, a7));
        // s0123 = [row 0..3 low-half sums | row 0..3 high-half sums], and
        // likewise for rows 4..7.
        _mm256_add_epi32(
            _mm256_permute2x128_si256::<0x20>(s0123, s4567),
            _mm256_permute2x128_si256::<0x31>(s0123, s4567),
        )
    }

    /// Largest of eight `i32` lanes.
    // SAFETY: callers must ensure `avx2` is available (the `#[target_feature]`
    // contract). No memory is accessed.
    #[target_feature(enable = "avx2")]
    unsafe fn hmax_epi32(v: __m256i) -> i32 {
        let m = _mm_max_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v));
        let m = _mm_max_epi32(m, _mm_shuffle_epi32::<0b0100_1110>(m));
        let m = _mm_max_epi32(m, _mm_shuffle_epi32::<0b1011_0001>(m));
        _mm_cvtsi128_si32(m)
    }

    /// Horizontal sum of eight i32 lanes (exact: integer adds).
    // SAFETY: callers must ensure `avx2` is available (the `#[target_feature]`
    // contract); every caller is itself such a function, rooted at `attend`.
    // No memory is accessed — lane shuffles and adds only.
    #[target_feature(enable = "avx2")]
    unsafe fn hsum_epi32(v: __m256i) -> i32 {
        let hi = _mm256_extracti128_si256::<1>(v);
        let lo = _mm256_castsi256_si128(v);
        let s = _mm_add_epi32(lo, hi);
        let s = _mm_add_epi32(s, _mm_srli_si128::<8>(s));
        let s = _mm_add_epi32(s, _mm_srli_si128::<4>(s));
        _mm_cvtsi128_si32(s)
    }

    /// Exact widening dot product of two `d`-element i16 rows: sixteen lanes
    /// per `_mm256_madd_epi16` (pairwise int16*int16 -> int32 add), i32 lane
    /// accumulators, scalar tail. No accumulation can overflow: the
    /// eligibility gate bounds `|sum| <= 2^(2t+ld) <= 2^30` and each madd
    /// pair by `2^(2t+1)`.
    // SAFETY: callers must ensure `avx2` is available (the
    // `#[target_feature]` contract) and that `a` and `b` each point to at
    // least `d` valid i16 elements. All vector loads are unaligned reads at
    // `base + i` with `i + LANES_16 <= d`; the tail reads single elements at
    // `i < d`.
    #[target_feature(enable = "avx2")]
    unsafe fn dot_i16(a: *const i16, b: *const i16, d: usize) -> i32 {
        let mut acc = _mm256_setzero_si256();
        let mut i = 0;
        while i + LANES_16 <= d {
            let av = _mm256_loadu_si256(a.add(i).cast());
            let bv = _mm256_loadu_si256(b.add(i).cast());
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(av, bv));
            i += LANES_16;
        }
        hsum_epi32(acc) + dot_tail(a, b, i, d)
    }

    /// The products of elements `from..d` of two i16 rows, summed in order.
    // SAFETY: callers must ensure `a` and `b` each point to at least `d`
    // valid i16 elements; single elements are read at `from <= i < d`.
    unsafe fn dot_tail(a: *const i16, b: *const i16, from: usize, d: usize) -> i32 {
        let mut sum = 0;
        for i in from..d {
            sum += i32::from(*a.add(i)) * i32::from(*b.add(i));
        }
        sum
    }

    /// Module 2: evaluates the two-half exponent LUT for every dot product in
    /// `work` (eight rows per gather pass), overwriting each with its score
    /// (LUT output), and returns the exponent sum. Bit-identical to
    /// `ExpLutTables::eval_nonpos_raw` on `dot - max_dot`: same index split,
    /// same 64-bit entry product, same rounding shift, same output clamp.
    // SAFETY: callers must ensure `avx2` is available (the
    // `#[target_feature]` contract). Loads and stores go through the pointer
    // of the exclusive `work` borrow at `i` with `i + LANES_32 <= len`
    // (vector) or `i < len` (scalar). Gather indices stay in bounds: `prepare`
    // pinned the shared (immutable) tables to `lower.len() == 2^lower_bits`
    // and `upper.len() == 2^(shifted_total - lower_bits) + 1`, and every
    // magnitude `max_dot - dot <= dot_max - dot_min = 2^shifted_total - 1`,
    // so the masked lower index is `< 2^lower_bits` and the shifted upper
    // index is `<= 2^(shifted_total - lower_bits) - 1`.
    #[target_feature(enable = "avx2")]
    unsafe fn scores_gather(p: &QuantizedSimdPipeline, work: &mut [i32], max_dot: i32) -> i64 {
        let len = work.len();
        let wp = work.as_mut_ptr();
        let upper = p.tables.upper_entries().as_ptr();
        let lower = p.tables.lower_entries().as_ptr();

        let maxv = _mm256_set1_epi32(max_dot);
        let lower_mask = _mm256_set1_epi32(((1u32 << p.lower_bits) - 1) as i32);
        let lb_count = _mm_cvtsi32_si128(p.lower_bits as i32);
        let rs_count = _mm_cvtsi32_si128(p.round_shift as i32);
        let half = _mm256_set1_epi64x(1i64 << (p.round_shift - 1));
        let smaxv = _mm256_set1_epi32(p.score_max);
        let mut sumv = _mm256_setzero_si256();

        let mut i = 0;
        while i + LANES_32 <= len {
            let dv = _mm256_loadu_si256(wp.add(i).cast());
            // Non-negative magnitude of the (non-positive) shifted dot.
            let mag = _mm256_sub_epi32(maxv, dv);
            let lo_idx = _mm256_and_si256(mag, lower_mask);
            let hi_idx = _mm256_srl_epi32(mag, lb_count);
            let lo = _mm256_i32gather_epi32::<4>(lower, lo_idx);
            let hi = _mm256_i32gather_epi32::<4>(upper, hi_idx);
            // 32x32 -> 64-bit entry products: even lanes directly, odd lanes
            // shifted down by one 32-bit lane first (the two-half lane blend).
            let prod_even = _mm256_mul_epu32(lo, hi);
            let prod_odd =
                _mm256_mul_epu32(_mm256_srli_epi64::<32>(lo), _mm256_srli_epi64::<32>(hi));
            // Round-half-up in 64-bit lanes; products are non-negative, so a
            // logical shift is the arithmetic shift.
            let r_even = _mm256_srl_epi64(_mm256_add_epi64(prod_even, half), rs_count);
            let r_odd = _mm256_srl_epi64(_mm256_add_epi64(prod_odd, half), rs_count);
            // Re-blend into eight i32 lanes (`prepare` bounds every rounded
            // product by i32::MAX) and apply the output clamp.
            let merged = _mm256_or_si256(r_even, _mm256_slli_epi64::<32>(r_odd));
            let score = _mm256_min_epi32(merged, smaxv);
            _mm256_storeu_si256(wp.add(i).cast(), score);
            sumv = _mm256_add_epi32(sumv, score);
            i += LANES_32;
        }
        let mut exp_sum = i64::from(hsum_epi32(sumv));

        // Scalar tail: the same index split, product, shift and clamp.
        let mask = (1u64 << p.lower_bits) - 1;
        let half_s = 1i64 << (p.round_shift - 1);
        while i < len {
            let mag = (i64::from(max_dot) - i64::from(*wp.add(i))) as u64;
            let lo = i64::from(*lower.add((mag & mask) as usize));
            let hi = i64::from(*upper.add((mag >> p.lower_bits) as usize));
            let score = ((hi * lo + half_s) >> p.round_shift).min(i64::from(p.score_max));
            *wp.add(i) = score as i32;
            exp_sum += score;
            i += 1;
        }
        exp_sum
    }

    /// Module 1 both ways, for tests: the blocked dots with their maximum,
    /// and every row through [`dot_i16`] and the dot clamp.
    #[cfg(test)]
    pub(super) fn dots_both_ways(
        p: &QuantizedSimdPipeline,
        q: &[i16],
    ) -> (Vec<i32>, i32, Vec<i32>) {
        assert!(q.len() >= p.d);
        let mut blocked = vec![0; p.n];
        // SAFETY: the pipeline's existence proves `avx2` (see `attend`); `q`
        // holds at least `d` lanes (asserted) and every row `r < n` lies in
        // the `n * d` key buffer.
        unsafe {
            let max = dots(p, q.as_ptr(), &mut blocked);
            let rows = (0..p.n)
                .map(|r| {
                    dot_i16(p.keys.as_ptr().add(r * p.d), q.as_ptr(), p.d)
                        .clamp(p.dot_min, p.dot_max)
                })
                .collect();
            (blocked, max, rows)
        }
    }

    /// [`normalise`] for tests (`exp_sum > 0`).
    #[cfg(test)]
    pub(super) fn normalise_lanes(p: &QuantizedSimdPipeline, work: &mut [i32], exp_sum: i64) {
        // SAFETY: the pipeline's existence proves `avx2` (see `attend`).
        unsafe { normalise(p, work, exp_sum) }
    }

    /// Module 3 normalisation of the scores in `work` into weights, in place:
    /// `min(floor(score * 2^(2f) / exp_sum), weight_max)` in `f64` lanes,
    /// which equals the scalar `div_weight` (module docs). A block of eight
    /// zero scores is already its eight zero weights and is skipped.
    ///
    /// Caller contract: `exp_sum > 0`.
    // SAFETY: callers must ensure `avx2` is available (the
    // `#[target_feature]` contract). Loads and stores go through the pointer
    // of the exclusive `work` borrow at `i` with `i + LANES_32 <= len`
    // (vector) or `i < len` (scalar). Every stored lane is a truncated
    // quotient in `[0, weight_max]` (clamped before the conversion), so the
    // `f64 -> i32` conversions are exact.
    #[target_feature(enable = "avx2")]
    unsafe fn normalise(p: &QuantizedSimdPipeline, work: &mut [i32], exp_sum: i64) {
        debug_assert!(exp_sum > 0);
        let len = work.len();
        let wp = work.as_mut_ptr();
        // Below 2^53 (`normalisation_bounds`), so exact.
        let den = exp_sum as f64;
        let scale = _mm256_set1_pd(p.weight_scale);
        let denv = _mm256_set1_pd(den);
        let wmax = _mm256_set1_pd(p.weight_max);
        let mut i = 0;
        while i + LANES_32 <= len {
            let s = _mm256_loadu_si256(wp.add(i).cast());
            if _mm256_testz_si256(s, s) == 0 {
                let lo = quotient4(_mm256_castsi256_si128(s), scale, denv, wmax);
                let hi = quotient4(_mm256_extracti128_si256::<1>(s), scale, denv, wmax);
                _mm256_storeu_si256(wp.add(i).cast(), _mm256_set_m128i(hi, lo));
            }
            i += LANES_32;
        }
        // Scalar tail: the same multiply, divide, clamp and truncation.
        while i < len {
            let q = (f64::from(*wp.add(i)) * p.weight_scale / den).min(p.weight_max);
            *wp.add(i) = q as i32;
            i += 1;
        }
    }

    /// Four weights `min(trunc(score * scale / den), wmax)` from four scores.
    // SAFETY: callers must ensure `avx2` is available (the `#[target_feature]`
    // contract). No memory is accessed.
    #[target_feature(enable = "avx2")]
    unsafe fn quotient4(scores: __m128i, scale: __m256d, den: __m256d, wmax: __m256d) -> __m128i {
        let numerator = _mm256_mul_pd(_mm256_cvtepi32_pd(scores), scale);
        _mm256_cvttpd_epi32(_mm256_min_pd(_mm256_div_pd(numerator, den), wmax))
    }

    /// Module 3 weighted sum: `acc[j] = Σ w_r * value_r[j]` over the rows
    /// with a nonzero weight in `weights` (`weights.len() == n`), for every
    /// column `j < d`, through the [`accumulate_block`] of this memory's
    /// `d / 8` full lane chunks.
    // SAFETY: callers must ensure `avx2` is available (the
    // `#[target_feature]` contract) and that `weights.len() == n`. `prepare`
    // admitted `d <= MAX_D`, so `d / 8 <= 8` selects a block whose chunks
    // and scalar tail cover exactly the `d` columns.
    #[target_feature(enable = "avx2")]
    unsafe fn accumulate(p: &QuantizedSimdPipeline, weights: &[i32], acc: &mut [i32; MAX_D]) {
        debug_assert_eq!(weights.len(), p.n);
        let out = acc.as_mut_ptr();
        match p.d / LANES_32 {
            0 => accumulate_block::<0>(p, weights, out),
            1 => accumulate_block::<1>(p, weights, out),
            2 => accumulate_block::<2>(p, weights, out),
            3 => accumulate_block::<3>(p, weights, out),
            4 => accumulate_block::<4>(p, weights, out),
            5 => accumulate_block::<5>(p, weights, out),
            6 => accumulate_block::<6>(p, weights, out),
            7 => accumulate_block::<7>(p, weights, out),
            _ => accumulate_block::<8>(p, weights, out),
        }
    }

    /// Module 3 for a memory with `K = d / 8` full lane chunks: `K`
    /// accumulators stay in registers across all rows, and each row with a
    /// nonzero weight costs one broadcast and, per chunk, one load of eight
    /// `i16` values widened by `_mm256_cvtepi16_epi32`, one
    /// `_mm256_mullo_epi32` and one add. The `d mod 8` tail columns
    /// accumulate in scalars beside them. A block of eight zero weights is
    /// skipped whole: its terms are exact zeros either way. Exact: the
    /// eligibility gates bound every product by `2^(2f+t) <= 2^30` and every
    /// partial sum inside the output format (`<= 2^(i+3f) <= 2^31 - 1`), so
    /// the low-32 products and the lane adds never wrap, and integer sums
    /// do not depend on their order.
    // SAFETY: callers must ensure `avx2` is available (the
    // `#[target_feature]` contract), that `weights.len() == n`, that
    // `K * 8 <= d < K * 8 + 8` and that `out` points to `d` writable i32
    // lanes. Weights are read at `r < n`; value row `r` at `values + r * d +
    // j` with `j < d`: eight-lane loads at `j = k * 8` for `k < K`, single
    // elements at `K * 8 <= j < d`. `out` is written at `j < d`.
    #[target_feature(enable = "avx2")]
    unsafe fn accumulate_block<const K: usize>(
        p: &QuantizedSimdPipeline,
        weights: &[i32],
        out: *mut i32,
    ) {
        let (n, d) = (p.n, p.d);
        let full = K * LANES_32;
        let values = p.values.as_ptr();
        let wp = weights.as_ptr();
        let mut acc = [_mm256_setzero_si256(); K];
        let mut tail = [0i32; LANES_32];
        let mut r = 0;
        while r < n {
            let block = LANES_32.min(n - r);
            let skip = block == LANES_32 && {
                let w = _mm256_loadu_si256(wp.add(r).cast());
                _mm256_testz_si256(w, w) != 0
            };
            if !skip {
                for k in r..r + block {
                    let w = *wp.add(k);
                    if w == 0 {
                        continue;
                    }
                    let wv = _mm256_set1_epi32(w);
                    let row = values.add(k * d);
                    for (c, a) in acc.iter_mut().enumerate() {
                        let v =
                            _mm256_cvtepi16_epi32(_mm_loadu_si128(row.add(c * LANES_32).cast()));
                        *a = _mm256_add_epi32(*a, _mm256_mullo_epi32(wv, v));
                    }
                    for (j, t) in (full..d).zip(tail.iter_mut()) {
                        *t += w * i32::from(*row.add(j));
                    }
                }
            }
            r += block;
        }
        for (c, a) in acc.into_iter().enumerate() {
            _mm256_storeu_si256(out.add(c * LANES_32).cast(), a);
        }
        for (j, t) in (full..d).zip(tail) {
            *out.add(j) = t;
        }
    }

    /// Dequantizes `src` into `dst` element for element over the shorter of
    /// the two: `(f64::from(x) * res) as f32`, four lanes per step. The lane
    /// operations are the scalar pipeline's, each correctly rounded under
    /// the default rounding mode: the exact `i32 -> f64` widening, the `f64`
    /// product and the round-to-nearest-even `f64 -> f32` narrowing.
    // SAFETY: callers must ensure `avx2` is available (the
    // `#[target_feature]` contract). Only the first `len = min(src.len(),
    // dst.len())` elements are touched: four-lane loads/stores at `i` with
    // `i + 4 <= len`, the tail at `i < len`.
    #[target_feature(enable = "avx2")]
    unsafe fn dequantize(src: &[i32], res: f64, dst: &mut [f32]) {
        let len = src.len().min(dst.len());
        let (sp, dp) = (src.as_ptr(), dst.as_mut_ptr());
        let resv = _mm256_set1_pd(res);
        let mut i = 0;
        while i + 4 <= len {
            let x = _mm256_cvtepi32_pd(_mm_loadu_si128(sp.add(i).cast()));
            _mm_storeu_ps(dp.add(i), _mm256_cvtpd_ps(_mm256_mul_pd(x, resv)));
            i += 4;
        }
        while i < len {
            *dp.add(i) = (f64::from(*sp.add(i)) * res) as f32;
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::simd::test_support::env_lock;
    use crate::backend::simd::FORCE_SCALAR_ENV;
    use crate::quantized::QuantizedMemory;
    use crate::Matrix;
    use a3_fixed::{paper_input_format, Fixed};

    fn case(n: usize, d: usize, seed: u64) -> (Matrix, Matrix, Vec<f32>) {
        let value = |i: usize, j: usize, salt: u64| -> f32 {
            let h = (i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(j as u64)
                .wrapping_add(seed ^ salt)
                .wrapping_mul(0xD6E8_FEB8_6659_FD93);
            ((h >> 40) as f32 / (1u64 << 23) as f32) - 1.0
        };
        let keys = Matrix::from_rows(
            (0..n)
                .map(|i| (0..d).map(|j| value(i, j, 1)).collect())
                .collect(),
        )
        .unwrap();
        let values = Matrix::from_rows(
            (0..n)
                .map(|i| (0..d).map(|j| value(i, j, 2)).collect())
                .collect(),
        )
        .unwrap();
        let query = (0..d).map(|j| value(j, 3, 5) * 2.0).collect();
        (keys, values, query)
    }

    #[test]
    fn vector_path_is_bit_identical_to_scalar_on_in_grid_shapes() {
        // Shapes straddling the 8/16-lane widths, n = 1, the paper size, the
        // grid's n = 512 edge, formats other than the paper's, and every
        // width up to 64, so each module 3 block (0 to 8 full lane chunks
        // plus 0 to 7 tail columns) meets the scalar pipeline.
        let _guard = env_lock();
        if SimdLevel::detect() != SimdLevel::Avx2 {
            eprintln!("skipping: host has no AVX2");
            return;
        }
        let q44 = paper_input_format();
        let every_width = (1..=64).map(|d| (19, d, q44));
        for (n, d, format) in [
            (1usize, 3usize, q44),
            (2, 2, q44),
            (3, 5, q44),
            (7, 8, q44),
            (9, 16, q44),
            (17, 31, q44),
            (31, 32, q44),
            (37, 13, q44),
            (20, 64, q44),
            (320, 64, q44),
            (512, 64, q44),
            (37, 13, QFormat::new(5, 3)),
            (300, 64, QFormat::new(5, 3)),
            (40, 24, QFormat::new(0, 8)),
        ]
        .into_iter()
        .chain(every_width)
        {
            let (keys, values, query) = case(n, d, 7);
            let auto = QuantizedMemory::prepare(format, &keys, &values).unwrap();
            let scalar = QuantizedMemory::prepare_scalar(format, &keys, &values).unwrap();
            assert!(
                auto.is_vectorized(),
                "{format} ({n}, {d}) should take the vector path"
            );
            assert!(!scalar.is_vectorized());
            assert_eq!(
                auto.attend(&query).unwrap(),
                scalar.attend(&query).unwrap(),
                "{format} ({n}, {d})"
            );
        }
    }

    /// Inputs for the lane-quantizer differential test: 2^20 f32 bit patterns
    /// spread over the whole bit space, the specials, and every exact
    /// `±0.5`-LSB tie of `format` across its range (plus a margin) with its
    /// two float neighbours.
    fn lane_probe_values(format: QFormat) -> Vec<f32> {
        let mut values: Vec<f32> = (0u32..1 << 20)
            .map(|i| f32::from_bits(i.wrapping_mul(0x9E37_79B1)))
            .collect();
        values.extend([
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7FA0_0001), // signalling NaN
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::from_bits(0x007F_FFFF),
            -f32::from_bits(0x007F_FFFF),
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
        ]);
        let lsb = format.resolution() as f32;
        let span = 1i32 << format.total_bits();
        for k in -span - 4..span + 4 {
            let tie = (k as f32 + 0.5) * lsb;
            let bits = tie.to_bits();
            values.extend([tie, f32::from_bits(bits + 1), f32::from_bits(bits - 1)]);
        }
        values
    }

    #[test]
    fn lane_quantizer_matches_the_scalar_quantizer_on_every_grid_format() {
        let _guard = env_lock();
        if SimdLevel::detect() != SimdLevel::Avx2 {
            eprintln!("skipping: host has no AVX2");
            return;
        }
        for i in PipelineFormats::GRID_INT_BITS {
            for f in PipelineFormats::GRID_FRAC_BITS {
                let format = QFormat::new(i, f);
                let Some(quantizer) = LaneQuantizer::new(format) else {
                    // Only formats whose raws overflow an i16 lane decline.
                    assert!(format.total_bits() > 15, "{format} declined");
                    continue;
                };
                let values = lane_probe_values(format);
                let expected: Vec<i64> = Fixed::quantize_slice(&values, format).collect();
                let mut narrow = vec![0i16; values.len()];
                x86::quantize_i16(&quantizer, &values, &mut narrow);
                for (k, &want) in expected.iter().enumerate() {
                    let x = values[k];
                    assert_eq!(
                        i64::from(narrow[k]),
                        want,
                        "{format} i16 {x:e} ({:#x})",
                        x.to_bits()
                    );
                }
                // Every tail length, at every offset parity.
                for len in 0..=17 {
                    let src = &values[values.len() - 3 * len..][..len];
                    let mut narrow = vec![i16::MAX; len + 1];
                    x86::quantize_i16(&quantizer, src, &mut narrow[..len]);
                    let want: Vec<i64> = Fixed::quantize_slice(src, format).collect();
                    let got: Vec<i64> = narrow[..len].iter().map(|&r| i64::from(r)).collect();
                    assert_eq!(got, want, "{format} tail {len}");
                    assert_eq!(
                        narrow[len],
                        i16::MAX,
                        "{format} tail {len} wrote past the end"
                    );
                }
            }
        }
        assert!(LaneQuantizer::new(QFormat::new(8, 8)).is_none());
    }

    /// The vector pipeline for a seeded `n x d` memory, or `None` when the
    /// host does not dispatch to AVX2.
    fn pipeline(format: QFormat, keys: &Matrix, values: &Matrix) -> Option<QuantizedSimdPipeline> {
        let formats = PipelineFormats::new(format, keys.rows(), keys.dim());
        let lut = a3_fixed::ExpLut::two_half(formats.shifted_dot_product(), formats.score());
        let tables = Arc::new(lut.materialize().expect("in-grid tables materialize"));
        QuantizedSimdPipeline::prepare(&formats, &tables, keys.as_slice(), values.as_slice())
    }

    #[test]
    fn blocked_dots_equal_per_row_dots_for_every_block_and_column_remainder() {
        let _guard = env_lock();
        if SimdLevel::detect() != SimdLevel::Avx2 {
            eprintln!("skipping: host has no AVX2");
            return;
        }
        let q44 = paper_input_format();
        let widths: Vec<usize> = (1..=18).chain([31, 32, 33, 47, 48, 49, 63, 64]).collect();
        for n in 1..=24 {
            for &d in &widths {
                let (keys, values, query) = case(n, d, (n * 100 + d) as u64);
                let p = pipeline(q44, &keys, &values).expect("in-grid shape vectorizes");
                let mut q = vec![0i16; d];
                x86::quantize_i16(&p.quantizer, &query, &mut q);
                let (blocked, max, rows) = x86::dots_both_ways(&p, &q);
                assert_eq!(blocked, rows, "({n}, {d})");
                assert_eq!(Some(&max), rows.iter().max(), "({n}, {d})");
            }
        }
        // Every key and query raw at the format minimum: at d = 2^ld each
        // dot is 2^(2t+ld), one past the dot format's max, so the clamp binds.
        for (n, d) in [(9, 16), (17, 64), (8, 32)] {
            let keys = Matrix::from_rows(vec![vec![-1e6; d]; n]).unwrap();
            let p = pipeline(q44, &keys, &keys).expect("in-grid shape vectorizes");
            let mut q = vec![0i16; d];
            x86::quantize_i16(&p.quantizer, &vec![-1e6; d], &mut q);
            let (blocked, max, rows) = x86::dots_both_ways(&p, &q);
            assert_eq!(blocked, rows, "saturated ({n}, {d})");
            assert!(rows.iter().all(|&x| x == p.dot_max) && max == p.dot_max);
        }
    }

    #[test]
    fn lane_division_equals_integer_floor_division() {
        let _guard = env_lock();
        if SimdLevel::detect() != SimdLevel::Avx2 {
            eprintln!("skipping: host has no AVX2");
            return;
        }
        let (keys, values, _) = case(2, 1, 9);
        for f in PipelineFormats::GRID_FRAC_BITS {
            let format = QFormat::new(0, f);
            let p = pipeline(format, &keys, &values).expect("in-grid format vectorizes");
            let weight = PipelineFormats::new(format, 2, 1).weight();
            let frac = 2 * f;
            let score_max = (1i64 << frac) - 1;
            // The largest exponent sum anywhere in the grid (ln = 9), past
            // what this 2-row memory can produce: the lanes do not depend on n.
            let sum_max = (1i64 << (9 + frac)) - 1;
            let mut sums = vec![1, 2, 3, score_max - 1, score_max, score_max + 1, sum_max];
            sums.extend((0..9 + frac).flat_map(|k| [(1i64 << k) - 1, 1 << k, (1 << k) + 1]));
            let mut h = u64::from(f);
            for _ in 0..16 {
                h = h
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(0xD6E8_FEB8_6659_FD93);
                sums.push(1 + (h >> 11) as i64 % sum_max);
            }
            // A block of zero scores (skipped) ahead of every score.
            let scores: Vec<i32> = [0; 8].into_iter().chain(0..=score_max as i32).collect();
            for &exp_sum in sums.iter().filter(|&&s| s > 0) {
                // The whole vector and a misaligned suffix: lanes and tail.
                for from in [0, 1] {
                    let mut lanes = scores[from..].to_vec();
                    x86::normalise_lanes(&p, &mut lanes, exp_sum);
                    for (&s, &w) in scores[from..].iter().zip(&lanes) {
                        let want = ((i64::from(s) << frac) / exp_sum)
                            .clamp(weight.min_raw(), weight.max_raw());
                        assert_eq!(i64::from(w), want, "Q0.{f}: {s} / {exp_sum}");
                    }
                }
            }
        }
    }

    #[test]
    fn fused_sharded_query_runs_only_when_every_shard_is_vectorized() {
        use crate::backend::{
            merge_partial_softmax, ComputeBackend, QuantizedBackend, ShardPlan, ShardedMemory,
        };
        let _guard = env_lock();
        if SimdLevel::detect() != SimdLevel::Avx2 {
            eprintln!("skipping: host has no AVX2");
            return;
        }
        let q44 = paper_input_format();
        let (keys, values, query) = case(70, 24, 3);
        let plan = ShardPlan::new(3).unwrap();
        let backend = QuantizedBackend::paper();
        let memory = ShardedMemory::prepare(&backend, plan, &keys, &values).unwrap();
        let fused = attend_sharded(&memory, q44, &query).expect("every shard is vectorized");
        let partials: Vec<AttentionResult> = memory
            .shards()
            .iter()
            .map(|shard| backend.attend_prepared(shard.memory(), &query).unwrap())
            .collect();
        assert_eq!(fused, merge_partial_softmax(&memory, &partials));
        // Another input format, or shards on the scalar datapath: the caller
        // takes the per-shard path.
        assert!(attend_sharded(&memory, QFormat::new(4, 2), &query).is_none());
        let scalar =
            ShardedMemory::prepare(&QuantizedBackend::paper_scalar(), plan, &keys, &values)
                .unwrap();
        assert!(attend_sharded(&scalar, q44, &query).is_none());
    }

    #[test]
    fn forced_scalar_env_disables_vector_dispatch() {
        // Regression test for the CI fallback matrix: under A3_FORCE_SCALAR
        // the prepare-time dispatch must stay scalar regardless of the CPU.
        let _guard = env_lock();
        let previous = std::env::var_os(FORCE_SCALAR_ENV);
        std::env::set_var(FORCE_SCALAR_ENV, "1");
        let (keys, values, query) = case(12, 8, 3);
        let forced = QuantizedMemory::prepare(paper_input_format(), &keys, &values).unwrap();
        let forced_result = forced.attend(&query).unwrap();
        match &previous {
            Some(v) => std::env::set_var(FORCE_SCALAR_ENV, v),
            None => std::env::remove_var(FORCE_SCALAR_ENV),
        }
        assert!(!forced.is_vectorized());
        // And the scalar result matches whatever the unforced path produces.
        let auto = QuantizedMemory::prepare(paper_input_format(), &keys, &values).unwrap();
        assert_eq!(auto.attend(&query).unwrap(), forced_result);
    }

    #[test]
    fn ineligible_formats_stay_scalar() {
        let _guard = env_lock();
        let (keys, values, _) = case(8, 4, 1);
        // Q8.8 raws do not fit i16 lanes (total bits 16 > 15).
        let wide = QuantizedMemory::prepare(QFormat::new(8, 8), &keys, &values).unwrap();
        assert!(!wide.is_vectorized());
        // Q9.1 passes every lane gate but lies outside the proved grid.
        let outside = QuantizedMemory::prepare(QFormat::new(9, 1), &keys, &values).unwrap();
        assert!(!outside.is_vectorized());
        // Q4.6 at paper scale: the shifted format (27 bits) is too wide to
        // materialize tables, so there is nothing to gather against.
        let (keys, values, _) = case(320, 64, 2);
        let lazy = QuantizedMemory::prepare(QFormat::new(4, 6), &keys, &values).unwrap();
        assert!(!lazy.is_vectorized());
        // Q4.4 at n = 513 (ln = 10) passes every lane gate but lies outside
        // the proved grid.
        let (keys, values, _) = case(513, 64, 4);
        let tall = QuantizedMemory::prepare(paper_input_format(), &keys, &values).unwrap();
        assert!(!tall.is_vectorized());
    }

    #[test]
    fn eligibility_gates_follow_the_lane_width_proofs() {
        assert!(formats_eligible(&PipelineFormats::new(
            QFormat::new(4, 4),
            320,
            64
        )));
        assert!(formats_eligible(&PipelineFormats::new(
            QFormat::new(4, 2),
            320,
            64
        )));
        // Q4.6 at paper scale passes the format gates (its blocker is table
        // materialization, checked separately in prepare)...
        assert!(formats_eligible(&PipelineFormats::new(
            QFormat::new(4, 6),
            320,
            64
        )));
        // ...but not at n = 2048, where the output accumulator leaves i32.
        assert!(!formats_eligible(&PipelineFormats::new(
            QFormat::new(4, 6),
            2048,
            64
        )));
        // i16 lane overflow: 16 total input bits.
        assert!(!formats_eligible(&PipelineFormats::new(
            QFormat::new(8, 8),
            8,
            8
        )));
        // Dot-sum overflow: 2*15 + ceil_log2(64) = 36 > 30.
        assert!(!formats_eligible(&PipelineFormats::new(
            QFormat::new(7, 8),
            8,
            64
        )));
    }
}
