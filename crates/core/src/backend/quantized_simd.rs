//! Vectorised quantized attention: integer AVX2 kernels for the fixed-point
//! datapath (the software analogue of the A3 base pipeline's dot-product,
//! exponent and weighting modules, paper Sections III-A/III-B).
//!
//! [`SimdBackend`](super::SimdBackend) vectorises the *float* datapath; this
//! module vectorises the *quantized* one, exploiting how narrow the Section
//! III-B stage formats are for small input formats. The three hot loops run on
//! integer lanes:
//!
//! 1. **QK dot products** — quantized keys and queries live in `i16` lanes and
//!    `_mm256_madd_epi16` performs the widening int16→int32 multiply-accumulate,
//!    sixteen elements per instruction;
//! 2. **exp-LUT softmax** — `_mm256_i32gather_epi32` fetches the two-half
//!    table entries for eight rows at once; the entry product and rounding
//!    shift are evaluated in 64-bit lanes (`_mm256_mul_epu32` over the
//!    even/odd halves, blended back into eight 32-bit score lanes);
//! 3. **weighted value accumulation** — the `Q0.2f` normalisation weight from
//!    `div_weight` is broadcast once per row and folded into a single
//!    `_mm256_mullo_epi32` + add per lane over `i32` value rows.
//!
//! # Bit-identity contract
//!
//! Unlike the float SIMD backend (which tolerates reduction-order drift), this
//! datapath is **bit-identical** to the scalar quantized pipeline. Integer
//! addition is associative, and for the formats this module
//! accepts (`formats_eligible`) the scalar pipeline's per-step saturation
//! provably never fires before the final accumulation step:
//!
//! - *dot products*: every partial sum of at most `d - 1` element products is
//!   bounded by `(2^ld - 1) * 2^(2t)` (`t` = input total bits), strictly inside
//!   the `Q(2i+ld).(2f)` dot format, so the scalar per-step clamps are no-ops
//!   until the last step — equivalent to one exact lane-parallel sum plus a
//!   single final clamp;
//! - *exponent sums*: scores are at most `2^2f - 1` and `n <= 2^ln`, so the
//!   running sum never reaches the `Q(ln).(2f)` bound;
//! - *output accumulation*: the normalisation weights floor-divide a common
//!   denominator, so they sum to at most `2^2f`, bounding every partial
//!   weighted sum strictly inside the `Q(i+ln).(3f)` output format.
//!
//! The nonlinear steps — LUT entry product rounding, the `div_weight`
//! floor division with its zero-denominator case and weight clamp, and the
//! final dot saturation — are replicated operation for operation. The property
//! suite in `crates/core/tests/properties.rs` pins the bit-identity on random
//! shapes and formats, including `n = 1` and non-lane-multiple `d`, and
//! `crates/core/tests/quantized_golden.rs` pins the absolute output bits.
//!
//! # Dispatch
//!
//! As with [`SimdLevel::detect`], the decision is made **once at prepare
//! time**: [`QuantizedSimdPipeline::prepare`] returns `None` unless runtime
//! detection selects AVX2 (the `A3_FORCE_SCALAR` override is honoured) *and*
//! the format plan passes [`PipelineFormats::lanes_eligible`] — inside the
//! grid the `a3-analyze` range prover certifies, every lane-width gate
//! holding — *and* the exponent tables are materialized; the memory then
//! carries the scalar pipeline instead, bit-identical by construction. Every
//! consumer of [`QuantizedMemory`](crate::quantized::QuantizedMemory) — single
//! queries, `attend_batch_prepared`, the sharded log-sum-exp merge and the
//! serving scheduler's flush path — inherits the choice through
//! [`QuantizedMemory::attend`](crate::quantized::QuantizedMemory::attend).

use std::fmt;

use a3_fixed::{ceil_log2, ExpLutTables, Fixed, PipelineFormats, QFormat};

use super::simd::SimdLevel;
use crate::attention::AttentionResult;

/// Prepared vector state for one quantized memory: operands re-packed into
/// lane-width integer layouts plus every shift amount and clamp bound the
/// kernels need, all resolved once at prepare time.
///
/// Constructed only through [`QuantizedSimdPipeline::prepare`], which performs
/// the runtime AVX2 dispatch and validates the lane-width eligibility gates;
/// an instance existing is the proof that the kernels' preconditions hold.
#[derive(Clone)]
pub struct QuantizedSimdPipeline {
    /// Quantized key matrix, row-major `n x d`, raws narrowed to `i16` lanes.
    keys: Vec<i16>,
    /// Quantized value matrix, row-major `n x d`, raws widened to `i32` lanes.
    values: Vec<i32>,
    /// Materialized exponent tables narrowed to `i32` gather lanes; the upper
    /// table keeps its sentinel entry for the most negative input.
    lut_upper: Vec<i32>,
    lut_lower: Vec<i32>,
    /// Low-order magnitude bits indexing the lower table.
    lower_bits: u32,
    /// Rounding shift applied to each upper-times-lower entry product.
    round_shift: u32,
    /// Saturation bound of the LUT output (score format max).
    score_max: i32,
    dot_min: i32,
    dot_max: i32,
    weight_min: i64,
    weight_max: i64,
    /// Divisor pre-shift of the `div_weight` normalisation step.
    exp_sum_frac: u32,
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
    /// format.
    pub(crate) fn prepare(
        formats: &PipelineFormats,
        tables: &ExpLutTables,
        keys: &[f32],
        values: &[f32],
    ) -> Option<Self> {
        if SimdLevel::detect() != SimdLevel::Avx2 {
            return None;
        }
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
        let lut_upper = narrow_entries(tables.upper_entries())?;
        let lut_lower = narrow_entries(tables.lower_entries())?;
        if lut_upper.len() != (1usize << upper_bits) + 1
            || lut_lower.len() != (1usize << lower_bits)
        {
            return None;
        }
        // Entry products must land inside an i32 lane after the 64-bit
        // rounding shift (always true for materialized formats; checked, not
        // assumed).
        let max_product = i64::from(*lut_upper.iter().max()?) * i64::from(*lut_lower.iter().max()?);
        if (max_product + (1i64 << (round_shift - 1))) >> round_shift > i64::from(i32::MAX) {
            return None;
        }
        debug_assert_eq!(keys.len(), formats.n() * formats.d());
        debug_assert_eq!(values.len(), formats.n() * formats.d());
        let input = formats.input();
        let dot = formats.dot_product();
        let weight = formats.weight();
        Some(Self {
            keys: quantize_i16(keys, input)?,
            values: quantize_i32(values, input)?,
            lut_upper,
            lut_lower,
            lower_bits,
            round_shift,
            score_max: i32::try_from(tables.out_max_raw()).ok()?,
            dot_min: i32::try_from(dot.min_raw()).ok()?,
            dot_max: i32::try_from(dot.max_raw()).ok()?,
            weight_min: weight.min_raw(),
            weight_max: weight.max_raw(),
            exp_sum_frac: formats.exp_sum().frac_bits(),
            input_format: input,
            dot_res: dot.resolution(),
            weight_res: weight.resolution(),
            out_res: formats.output().resolution(),
            n: formats.n(),
            d: formats.d(),
        })
    }

    /// Runs the vector pipeline for one query over every row.
    ///
    /// Caller contract (upheld by `QuantizedMemory::attend`, the only route
    /// here): `query.len() == d`.
    pub(crate) fn attend(&self, query: &[f32]) -> AttentionResult {
        debug_assert_eq!(query.len(), self.d);
        // Quantize the query once, exactly as the scalar pipeline does; the
        // eligibility gate (input total bits <= 15) guarantees every raw fits
        // an i16 lane.
        let q: Vec<i16> = Fixed::quantize_slice(query, self.input_format)
            .map(|raw| raw as i16)
            .collect();
        x86::attend(self, &q)
    }

    /// Quantizes and appends rows (row-major `delta x d` each) in place.
    /// Valid only while the caller's format plan is unchanged — every bound in
    /// this struct depends on the formats and `d`, never on `n` beyond the
    /// count itself — which `QuantizedMemory::append_rows` guarantees via its
    /// `ceil_log2(n)` gate. Returns `false` (leaving `self` untouched) if any
    /// raw exceeds its lane width, in which case the caller must fall back to
    /// a full re-prepare.
    pub(crate) fn append_rows(&mut self, keys: &[f32], values: &[f32]) -> bool {
        debug_assert_eq!(keys.len(), values.len());
        debug_assert_eq!(keys.len() % self.d.max(1), 0);
        let (Some(k), Some(v)) = (
            quantize_i16(keys, self.input_format),
            quantize_i32(values, self.input_format),
        ) else {
            return false;
        };
        self.keys.extend_from_slice(&k);
        self.values.extend_from_slice(&v);
        self.n += keys.len() / self.d.max(1);
        true
    }

    /// Re-quantizes row `row` in place (same validity contract as
    /// [`Self::append_rows`]). Returns `false` without mutating on an
    /// out-of-bounds row or a lane-width overflow.
    pub(crate) fn update_row(&mut self, row: usize, key: &[f32], value: &[f32]) -> bool {
        debug_assert_eq!(key.len(), self.d);
        debug_assert_eq!(value.len(), self.d);
        let (Some(k), Some(v)) = (
            quantize_i16(key, self.input_format),
            quantize_i32(value, self.input_format),
        ) else {
            return false;
        };
        let range = row * self.d..(row + 1) * self.d;
        let (Some(ks), Some(vs)) = (self.keys.get_mut(range.clone()), self.values.get_mut(range))
        else {
            return false;
        };
        ks.copy_from_slice(&k);
        vs.copy_from_slice(&v);
        true
    }
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

/// Narrows raw table entries to `i32` gather lanes; `None` if any entry
/// exceeds the lane width (impossible for materialized configurations, but
/// checked rather than assumed).
fn narrow_entries(entries: &[i64]) -> Option<Vec<i32>> {
    entries.iter().map(|&e| i32::try_from(e).ok()).collect()
}

/// Quantizes operands into `i16` key lanes; `None` if a raw exceeds the lane
/// (impossible once gate 1 holds, but checked rather than assumed).
fn quantize_i16(values: &[f32], input: QFormat) -> Option<Vec<i16>> {
    Fixed::quantize_slice(values, input)
        .map(|raw| i16::try_from(raw).ok())
        .collect()
}

/// Quantizes operands into `i32` value lanes; `None` if a raw exceeds the lane.
fn quantize_i32(values: &[f32], input: QFormat) -> Option<Vec<i32>> {
    Fixed::quantize_slice(values, input)
        .map(|raw| i32::try_from(raw).ok())
        .collect()
}

/// The AVX2 integer kernels. Everything here is reached only through a
/// [`QuantizedSimdPipeline`], whose `prepare` verified (via
/// [`SimdLevel::detect`]) that the running CPU supports `avx2` before an
/// instance could exist.
#[allow(unsafe_code)]
mod x86 {
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_add_epi64, _mm256_and_si256, _mm256_castsi256_si128,
        _mm256_extracti128_si256, _mm256_i32gather_epi32, _mm256_loadu_si256, _mm256_madd_epi16,
        _mm256_min_epi32, _mm256_mul_epu32, _mm256_mullo_epi32, _mm256_or_si256, _mm256_set1_epi32,
        _mm256_set1_epi64x, _mm256_setzero_si256, _mm256_slli_epi64, _mm256_srl_epi32,
        _mm256_srl_epi64, _mm256_srli_epi64, _mm256_storeu_si256, _mm256_sub_epi32, _mm_add_epi32,
        _mm_cvtsi128_si32, _mm_cvtsi32_si128, _mm_srli_si128,
    };

    use super::QuantizedSimdPipeline;
    use crate::attention::AttentionResult;

    /// `i16` lanes per 256-bit vector (module 1).
    const LANES_16: usize = 16;
    /// `i32` lanes per 256-bit vector (modules 2 and 3).
    const LANES_32: usize = 8;

    /// One query through the vector pipeline over every row.
    ///
    /// Caller contract (enforced by `QuantizedSimdPipeline::attend`):
    /// `q.len() == d`.
    pub(super) fn attend(p: &QuantizedSimdPipeline, q: &[i16]) -> AttentionResult {
        // SAFETY: a `QuantizedSimdPipeline` only exists when its `prepare`
        // saw `SimdLevel::detect() == Avx2`, so the CPU supports `avx2`; this
        // function is only reached through such a pipeline.
        unsafe { attend_avx2(p, q) }
    }

    // SAFETY: callers must ensure the CPU supports `avx2` (the
    // `#[target_feature]` contract) and the `attend` caller contract above;
    // the only caller is `attend`. The operand buffers hold exactly `n * d`
    // elements (maintained by `prepare`, `append_rows` and `update_row`), so
    // every row read at offset `r * d` with `r < n` stays inside them.
    #[target_feature(enable = "avx2")]
    unsafe fn attend_avx2(p: &QuantizedSimdPipeline, q: &[i16]) -> AttentionResult {
        let (n, d) = (p.n, p.d);
        let keys = p.keys.as_ptr();
        let qp = q.as_ptr();

        // Module 1: exact i32 dot sums, clamped once at the dot format — the
        // scalar pipeline's per-step saturation never fires before the final
        // step (module docs), so a single final clamp is bit-identical.
        let mut dots: Vec<i32> = Vec::with_capacity(n);
        let mut max_dot = p.dot_min;
        for r in 0..n {
            let dot = dot_i16(keys.add(r * d), qp, d).clamp(p.dot_min, p.dot_max);
            if dot > max_dot {
                max_dot = dot;
            }
            dots.push(dot);
        }

        // Module 2: gather-LUT softmax scores plus the exponent sum.
        let mut scores: Vec<i32> = vec![0; n];
        let exp_sum = scores_gather(p, &dots, max_dot, &mut scores);

        // Module 3: per-row `div_weight` normalisation (n scalar divisions,
        // replicating the zero-denominator case and the weight clamp), then
        // the vectorised weighted accumulation of value rows. Zero-weight
        // rows are skipped — their terms are exact zeros either way.
        let values = p.values.as_ptr();
        let mut weights: Vec<i64> = Vec::with_capacity(n);
        let mut acc: Vec<i32> = vec![0; d];
        let accp = acc.as_mut_ptr();
        for (r, &score) in scores.iter().enumerate() {
            let w = if exp_sum == 0 {
                0
            } else {
                ((i64::from(score) << p.exp_sum_frac) / exp_sum).clamp(p.weight_min, p.weight_max)
            };
            weights.push(w);
            if w != 0 {
                accumulate_row(accp, values.add(r * d), w as i32, d);
            }
        }

        // Dequantize with the same float operation sequence as the scalar
        // pipelines (raw * 2^-frac in f64, narrowed to f32).
        AttentionResult {
            scores: dots
                .iter()
                .map(|&x| (f64::from(x) * p.dot_res) as f32)
                .collect(),
            weights: weights
                .iter()
                .map(|&x| (x as f64 * p.weight_res) as f32)
                .collect(),
            output: acc
                .iter()
                .map(|&x| (f64::from(x) * p.out_res) as f32)
                .collect(),
        }
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
        let mut sum = hsum_epi32(acc);
        while i < d {
            sum += i32::from(*a.add(i)) * i32::from(*b.add(i));
            i += 1;
        }
        sum
    }

    /// Module 2: evaluates the two-half exponent LUT for every dot product
    /// (eight rows per gather pass) and returns the exponent sum. Writes the
    /// scores (LUT outputs) into `scores`, which the caller sized to
    /// `dots.len()`. Bit-identical to `ExpLutTables::eval_nonpos_raw` on
    /// `dot - max_dot`: same index split, same 64-bit entry product, same
    /// rounding shift, same output clamp.
    // SAFETY: callers must ensure `avx2` is available (the
    // `#[target_feature]` contract) and `scores.len() == dots.len()`. Loads
    // and stores are at `i` with `i + LANES_32 <= len` (vector) or `i < len`
    // (scalar). Gather indices stay in bounds: `prepare` pinned
    // `lut_lower.len() == 2^lower_bits` and `lut_upper.len() ==
    // 2^(shifted_total - lower_bits) + 1`, and every magnitude
    // `max_dot - dot <= dot_max - dot_min = 2^shifted_total - 1`, so the
    // masked lower index is `< 2^lower_bits` and the shifted upper index is
    // `<= 2^(shifted_total - lower_bits) - 1`.
    #[target_feature(enable = "avx2")]
    unsafe fn scores_gather(
        p: &QuantizedSimdPipeline,
        dots: &[i32],
        max_dot: i32,
        scores: &mut [i32],
    ) -> i64 {
        debug_assert_eq!(dots.len(), scores.len());
        let len = dots.len();
        let dp = dots.as_ptr();
        let sp = scores.as_mut_ptr();
        let upper = p.lut_upper.as_ptr();
        let lower = p.lut_lower.as_ptr();

        let maxv = _mm256_set1_epi32(max_dot);
        let lower_mask = _mm256_set1_epi32(((1u32 << p.lower_bits) - 1) as i32);
        let lb_count = _mm_cvtsi32_si128(p.lower_bits as i32);
        let rs_count = _mm_cvtsi32_si128(p.round_shift as i32);
        let half = _mm256_set1_epi64x(1i64 << (p.round_shift - 1));
        let smaxv = _mm256_set1_epi32(p.score_max);
        let mut sumv = _mm256_setzero_si256();

        let mut i = 0;
        while i + LANES_32 <= len {
            let dv = _mm256_loadu_si256(dp.add(i).cast());
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
            _mm256_storeu_si256(sp.add(i).cast(), score);
            sumv = _mm256_add_epi32(sumv, score);
            i += LANES_32;
        }
        let mut exp_sum = i64::from(hsum_epi32(sumv));

        // Scalar tail: the same index split, product, shift and clamp.
        let mask = (1u64 << p.lower_bits) - 1;
        let half_s = 1i64 << (p.round_shift - 1);
        while i < len {
            let mag = (i64::from(max_dot) - i64::from(*dp.add(i))) as u64;
            let lo = i64::from(*lower.add((mag & mask) as usize));
            let hi = i64::from(*upper.add((mag >> p.lower_bits) as usize));
            let score = ((hi * lo + half_s) >> p.round_shift).min(i64::from(p.score_max));
            *sp.add(i) = score as i32;
            exp_sum += score;
            i += 1;
        }
        exp_sum
    }

    /// Module 3 inner loop: `acc[j] += w * row[j]` for `j < d`, eight i32
    /// lanes at a time. Exact: the eligibility gates bound every product by
    /// `2^(2f+t) <= 2^30` and every accumulator partial sum inside the output
    /// format (`<= 2^(i+3f) <= 2^31 - 1`), so `_mm256_mullo_epi32`'s low-32
    /// result and the lane adds never wrap.
    // SAFETY: callers must ensure `avx2` is available (the
    // `#[target_feature]` contract) and that `acc` and `row` each point to at
    // least `d` valid i32 elements, with `acc` exclusively owned by the
    // caller. Accesses are at `j` with `j + LANES_32 <= d` (vector) or
    // `j < d` (scalar).
    #[target_feature(enable = "avx2")]
    unsafe fn accumulate_row(acc: *mut i32, row: *const i32, w: i32, d: usize) {
        let wv = _mm256_set1_epi32(w);
        let mut j = 0;
        while j + LANES_32 <= d {
            let v = _mm256_loadu_si256(row.add(j).cast());
            let a = _mm256_loadu_si256(acc.add(j).cast::<__m256i>());
            _mm256_storeu_si256(
                acc.add(j).cast(),
                _mm256_add_epi32(a, _mm256_mullo_epi32(wv, v)),
            );
            j += LANES_32;
        }
        while j < d {
            *acc.add(j) += w * *row.add(j);
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::simd::test_support::ENV_LOCK;
    use crate::backend::simd::FORCE_SCALAR_ENV;
    use crate::quantized::QuantizedMemory;
    use crate::Matrix;
    use a3_fixed::paper_input_format;

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
        // grid's n = 512 edge, and formats other than the paper's.
        let _guard = ENV_LOCK.lock().unwrap();
        if SimdLevel::detect() != SimdLevel::Avx2 {
            eprintln!("skipping: host has no AVX2");
            return;
        }
        let q44 = paper_input_format();
        for &(n, d, format) in &[
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
        ] {
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

    #[test]
    fn forced_scalar_env_disables_vector_dispatch() {
        // Regression test for the CI fallback matrix: under A3_FORCE_SCALAR
        // the prepare-time dispatch must stay scalar regardless of the CPU.
        let _guard = ENV_LOCK.lock().unwrap();
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
        let _guard = ENV_LOCK.lock().unwrap();
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
