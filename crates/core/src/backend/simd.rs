//! Vectorised exact attention: the [`SimdBackend`] datapath.
//!
//! A3's motivating observation (paper Section II) is that the exact attention
//! datapath — dot products, softmax, weighted sum — dominates end-to-end latency, so
//! the *software* serving path deserves the same treatment the hardware gets: the
//! accelerator's speedup claims should be measured against a fast CPU baseline, not a
//! naive scalar one. [`SimdBackend`] computes **exactly the same operation** as
//! [`ExactBackend`](super::ExactBackend) (every row attended, no approximation), with
//! the three hot loops vectorised using explicit-width x86_64 AVX2 lanes:
//!
//! 1. **QK dot products** — eight `f32` lanes per FMA, two accumulators per row,
//!    four rows per block sharing each query load;
//! 2. **softmax reduction** — vectorised max, a polynomial `exp` evaluated eight
//!    lanes at a time, vectorised sum and normalisation;
//! 3. **weighted value accumulation** — broadcast weight, FMA into up to eight
//!    register accumulators (a 64-float column block) over all rows.
//!
//! # The four-row block
//!
//! A row's dot product on its own ends in a serial shuffle-and-add chain
//! (`hsum`) that no other work overlaps. The AVX2 kernel instead fills four
//! rows' accumulators from the same query loads, in exactly the single-row
//! chunking (two accumulators, 16 floats a step, then one 8-float step), and
//! reduces the four together (`hsum4`): two 128-bit permutes and an add form
//! each row's low half + high half, two shuffles and an add form lanes 0 + 2
//! and 1 + 3, and two more shuffles and an add finish. Those are the three adds
//! `hsum` performs on one row, on the same two operands in the same order, so
//! every row sum is the same `f32`. Each row's `d mod 8` tail is then added by
//! scalar `mul_add` in order, as the single-row path does, and the `n mod 4`
//! rows past the last block take the single-row path. The block therefore
//! changes the instruction schedule, not one bit of the scores. Likewise, the
//! weighted sum's column blocks (64, 32 and 8 floats, then scalar) add each
//! output element's rows in ascending order whatever the block width.
//!
//! The instruction set is chosen **once at backend construction** by
//! [`SimdLevel::detect`]: runtime CPU feature detection picks AVX2 when the host
//! supports it (together with FMA), and a safe scalar fallback — bit-identical to
//! [`ExactBackend`](super::ExactBackend) — everywhere else. Setting the
//! `A3_FORCE_SCALAR` environment variable (to anything but `0`) forces the scalar
//! path, which is how CI exercises the fallback on AVX2 hosts.
//!
//! # Numerics contract
//!
//! The scalar level is bit-identical to the exact backend. The AVX2 level performs
//! the same `f32` arithmetic with different reduction orders (lane-parallel dot
//! products and sums) and a polynomial `exp` accurate to a few ULP, so results agree
//! with [`ExactBackend`](super::ExactBackend) to within `1e-5` on workload value
//! ranges (property-tested, including dimensions that are not a multiple of the lane
//! width and the sharded log-sum-exp merge).
//!
//! ```
//! use a3_core::backend::{ComputeBackend, ExactBackend, SimdBackend};
//! use a3_core::Matrix;
//!
//! let keys = Matrix::from_rows(vec![vec![0.9, 0.1, -0.3], vec![-0.2, 0.4, 0.6]]).unwrap();
//! let simd = SimdBackend::new(); // dispatch chosen here, once
//! let fast = simd.attend(&keys, &keys, &[1.0, 0.2, -0.4]).unwrap();
//! let exact = ExactBackend.attend(&keys, &keys, &[1.0, 0.2, -0.4]).unwrap();
//! for (a, b) in fast.output.iter().zip(&exact.output) {
//!     assert!((a - b).abs() < 1e-5);
//! }
//! ```

use std::fmt;
use std::sync::OnceLock;

use crate::attention::{attend_exact, AttentionResult, QueryBuffer};
use crate::{AttentionError, Matrix};

use super::{folded_multiply, ComputeBackend, PreparedMemory, PreparedState};

/// Environment variable forcing the scalar fallback regardless of CPU features.
/// Any value other than `0` or the empty string counts as set.
pub const FORCE_SCALAR_ENV: &str = "A3_FORCE_SCALAR";

/// The instruction-set level a [`SimdBackend`] dispatches to, chosen once at
/// construction ([`SimdLevel::detect`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdLevel {
    /// Safe scalar arithmetic, bit-identical to
    /// [`ExactBackend`](super::ExactBackend). Always available.
    Scalar,
    /// x86_64 AVX2 + FMA: eight `f32` lanes per instruction.
    Avx2,
}

impl SimdLevel {
    /// Picks the widest level the runtime supports: the [`FORCE_SCALAR_ENV`]
    /// override is consulted first (and always wins), then x86_64 CPU feature
    /// detection selects AVX2 when both `avx2` and `fma` are present. Never
    /// selects AVX2 on non-x86_64 targets.
    pub fn detect() -> Self {
        if force_scalar_requested() {
            return SimdLevel::Scalar;
        }
        Self::detect_cpu()
    }

    #[cfg(target_arch = "x86_64")]
    fn detect_cpu() -> Self {
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            SimdLevel::Avx2
        } else {
            SimdLevel::Scalar
        }
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn detect_cpu() -> Self {
        SimdLevel::Scalar
    }

    /// True when the running CPU can execute this level.
    pub fn available(self) -> bool {
        match self {
            SimdLevel::Scalar => true,
            SimdLevel::Avx2 => Self::detect_cpu() == SimdLevel::Avx2,
        }
    }

    /// Short label used in backend names and reports (`"scalar"` / `"avx2"`).
    pub fn label(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

impl fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// True when [`FORCE_SCALAR_ENV`] requests the scalar fallback.
fn force_scalar_requested() -> bool {
    std::env::var_os(FORCE_SCALAR_ENV).is_some_and(|v| !v.is_empty() && v != "0")
}

/// The vectorised exact datapath: same operation as
/// [`ExactBackend`](super::ExactBackend), explicit-width SIMD execution.
///
/// Like the exact backend, preprocessing is a no-op, so a [`SimdBackend`] can serve
/// memories prepared by **any** backend (every [`PreparedMemory`] carries the raw
/// matrices) — including the sorted memories of the approximate backend, which makes
/// it a drop-in exact re-scorer next to the approximate datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimdBackend {
    level: SimdLevel,
}

impl SimdBackend {
    /// Creates a backend dispatching to the widest level the host supports
    /// ([`SimdLevel::detect`]: env override first, then CPU features).
    pub fn new() -> Self {
        Self::with_level(SimdLevel::detect())
    }

    /// Creates a backend pinned to `level`. A level the running CPU cannot execute
    /// degrades safely to [`SimdLevel::Scalar`].
    pub fn with_level(level: SimdLevel) -> Self {
        let level = if level.available() {
            level
        } else {
            SimdLevel::Scalar
        };
        Self { level }
    }

    /// The scalar reference instance (bit-identical to
    /// [`ExactBackend`](super::ExactBackend)), regardless of CPU features.
    pub fn scalar() -> Self {
        Self {
            level: SimdLevel::Scalar,
        }
    }

    /// The level this backend dispatches to.
    pub fn level(&self) -> SimdLevel {
        self.level
    }

    /// The per-shard statistics of the log-sum-exp merge
    /// ([`merge_partial_softmax`](super::merge_partial_softmax)): the largest
    /// score as an `f64` (NaN scores ignored, `-inf` when there is none) and
    /// the normaliser `Σ exp(f64(s) − max)`.
    ///
    /// At [`SimdLevel::Scalar`] the maximum is a fold and every term goes
    /// through libm's `f64::exp`, summed in order. At [`SimdLevel::Avx2`] the
    /// maximum is taken in eight `f32` lanes (the same value: widening is
    /// exact and monotone), and four `f64` lanes evaluate a Cody–Waite `exp`
    /// (`x86::exp_f64_lanes`) that is within 1 ulp of libm's for every
    /// argument whose result is at least `2^-1022` and flushes smaller
    /// results to zero. The lane sums are added pairwise, then the `len mod 4`
    /// tail terms with libm `exp`.
    ///
    /// The flush cannot move the normaliser: the maximum's own row adds
    /// `exp(0) = 1`, and at most `n <= 2^9` flushed terms, each below
    /// `2^-1022`, sum to far less than half an ulp of a total of at least 1.
    pub(crate) fn softmax_stats(&self, scores: &[f32]) -> (f64, f64) {
        match self.level {
            SimdLevel::Scalar => softmax_stats_scalar(scores),
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => x86::softmax_stats(scores),
            #[cfg(not(target_arch = "x86_64"))]
            SimdLevel::Avx2 => softmax_stats_scalar(scores),
        }
    }

    /// The level detected on the first call: one environment read per process.
    pub(crate) fn process() -> Self {
        static PROCESS: OnceLock<SimdBackend> = OnceLock::new();
        *PROCESS.get_or_init(Self::new)
    }

    /// Calls `each(row, row_content_hash(key, value))` for every row pair, in
    /// one pass; in lanes at [`SimdLevel::Avx2`], prefetching rows ahead. A
    /// zero-width matrix holds no content, so it yields no row.
    pub(crate) fn for_each_row_content_hash(
        &self,
        keys: &Matrix,
        values: &Matrix,
        mut each: impl FnMut(usize, u64),
    ) {
        if keys.dim() == 0 || values.dim() == 0 {
            return;
        }
        let rows = keys.iter_rows().zip(values.iter_rows()).enumerate();
        match self.level {
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => x86::for_each_row_content_hash(rows, each),
            _ => rows.for_each(|(row, (key, value))| each(row, row_content_hash(key, value))),
        }
    }

    /// One attention operation through the selected kernel, its output written
    /// to the buffer `query` turns into. Shapes are validated here so the unsafe
    /// kernels below only ever see consistent inputs.
    fn attend_raw(
        &self,
        keys: &Matrix,
        values: &Matrix,
        query: impl QueryBuffer,
    ) -> Result<AttentionResult, AttentionError> {
        keys.validate_attention(values, query.query())?;
        match self.level {
            SimdLevel::Scalar => attend_exact(keys, values, query),
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => Ok(x86::attend(keys, values, query)),
            // `with_level` never stores an unavailable level, but stay safe if the
            // enum is matched on a target without the kernels.
            #[cfg(not(target_arch = "x86_64"))]
            SimdLevel::Avx2 => attend_exact(keys, values, query),
        }
    }
}

impl Default for SimdBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl ComputeBackend for SimdBackend {
    fn name(&self) -> String {
        format!("simd({})", self.level)
    }

    fn prepare(&self, keys: &Matrix, values: &Matrix) -> Result<PreparedMemory, AttentionError> {
        // Exact arithmetic needs no preprocessing; the prepared memory is just the
        // resident matrices (same as ExactBackend).
        PreparedMemory::new(keys, values, 0, PreparedState::Exact)
    }

    fn append_rows(
        &self,
        memory: &mut PreparedMemory,
        new_keys: &Matrix,
        new_values: &Matrix,
    ) -> Result<super::IncrementalPrepareStats, AttentionError> {
        super::append_rows_exact_state(self, memory, new_keys, new_values)
    }

    fn update_row(
        &self,
        memory: &mut PreparedMemory,
        row: usize,
        key: &[f32],
        value: &[f32],
    ) -> Result<super::IncrementalPrepareStats, AttentionError> {
        super::update_row_exact_state(self, memory, row, key, value)
    }

    fn attend_prepared(
        &self,
        memory: &PreparedMemory,
        query: &[f32],
    ) -> Result<AttentionResult, AttentionError> {
        // Only the raw matrices are needed, so memories prepared by any backend are
        // served (mirroring ExactBackend).
        self.attend_raw(memory.keys(), memory.values(), query)
    }

    /// Each query's output takes over the query's buffer, at both levels.
    fn attend_batch_owned(
        &self,
        memory: &PreparedMemory,
        queries: &mut Vec<Vec<f32>>,
        results: &mut Vec<AttentionResult>,
    ) -> Result<(), AttentionError> {
        super::attend_each_owned(queries, results, |query| {
            self.attend_raw(memory.keys(), memory.values(), query)
        })
    }

    fn attend(
        &self,
        keys: &Matrix,
        values: &Matrix,
        query: &[f32],
    ) -> Result<AttentionResult, AttentionError> {
        // Preparation is a no-op, so the one-shot path skips building (and cloning
        // the matrices into) a PreparedMemory.
        self.attend_raw(keys, values, query)
    }

    // `attend_sharded` intentionally inherits the default log-sum-exp merge of
    // per-shard partial softmax outputs: the SIMD datapath attends every row, so the
    // dense merge is the correct cross-shard combination (property-tested against
    // the unsharded result).
}

/// [`SimdBackend::softmax_stats`] with a max fold and libm `exp`.
fn softmax_stats_scalar(scores: &[f32]) -> (f64, f64) {
    let max = scores
        .iter()
        .fold(f64::NEG_INFINITY, |acc, &s| acc.max(f64::from(s)));
    (
        max,
        scores.iter().map(|&s| (f64::from(s) - max).exp()).sum(),
    )
}

/// Elements per content-hash stripe: 64 bytes, eight 64-bit words.
const STRIPE: usize = 16;
/// Lane `l`'s stripe-`t` secret: `8t + l` golden ratios past a word of pi.
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;
const STRIPE_STEP: u64 = GOLDEN.wrapping_mul(8);
fn first_secrets() -> [u64; 8] {
    std::array::from_fn(|l| 0x4528_21e6_38d0_1377_u64.wrapping_add(GOLDEN.wrapping_mul(l as u64)))
}

/// The content hash of one memory row, wherever it sits (the AVX2 pass
/// agrees): an xxh3-style accumulate over the key's, then the value's 64-byte
/// stripes, a `len mod 16` tail zero-padded. Word `l` of a stripe joins lane
/// `l`'s word sum, and, xored with a secret unique to the lane and stripe,
/// the product of its 32-bit halves joins the lane's product sum.
pub(crate) fn row_content_hash(key: &[f32], value: &[f32]) -> u64 {
    #[cfg(test)]
    test_support::count_row_hashed();
    let mut raw = [0u64; 8];
    let mut product = [0u64; 8];
    let mut secret = first_secrets();
    let mut absorb = |stripe: &[f32]| {
        let lanes = raw.iter_mut().zip(&mut product).zip(&mut secret);
        for (((raw, product), secret), pair) in lanes.zip(stripe.chunks_exact(2)) {
            let word = u64::from(pair[0].to_bits()) | u64::from(pair[1].to_bits()) << 32;
            *raw = raw.wrapping_add(word);
            let mixed = word ^ *secret;
            *product = product.wrapping_add((mixed & 0xffff_ffff) * (mixed >> 32));
            *secret = secret.wrapping_add(STRIPE_STEP);
        }
    };
    for xs in [key, value] {
        let mut stripes = xs.chunks_exact(STRIPE);
        for stripe in &mut stripes {
            absorb(stripe);
        }
        let tail = stripes.remainder();
        if !tail.is_empty() {
            let mut padded = [0.0f32; STRIPE];
            padded[..tail.len()].copy_from_slice(tail);
            absorb(&padded);
        }
    }
    let [raw, product] = [raw, product].map(|lanes| {
        let sum = |parity: usize| {
            let lanes = lanes.iter().skip(parity).step_by(2);
            lanes.fold(0u64, |sum, &lane| sum.wrapping_add(lane))
        };
        [sum(0), sum(1)]
    });
    fold_parities(raw, product)
}

/// Ends a content hash: each parity's keyed word and product sums, folded.
fn fold_parities(raw: [u64; 2], product: [u64; 2]) -> u64 {
    let [k0, k1, k2, k3, ..] = first_secrets();
    folded_multiply(raw[0] ^ k0, product[0] ^ k1)
        .wrapping_add(folded_multiply(raw[1] ^ k2, product[1] ^ k3))
}

/// Scalar mirror of the vector kernels' polynomial `exp`, used for the tail
/// elements a lane-width pass leaves over. `mul_add` keeps the operation sequence
/// identical to the FMA lanes, so tail elements see the same rounding as lane
/// elements.
#[cfg(target_arch = "x86_64")]
fn exp_poly_scalar(x: f32) -> f32 {
    let x = x.clamp(x86::EXP_LO, x86::EXP_HI);
    let fx = x.mul_add(std::f32::consts::LOG2_E, 0.5).floor();
    let x = (-fx).mul_add(x86::LN2_HI, x);
    let x = (-fx).mul_add(x86::LN2_LO, x);
    let z = x * x;
    let mut y = x86::EXP_P[0];
    for &p in &x86::EXP_P[1..] {
        y = y.mul_add(x, p);
    }
    let y = y.mul_add(z, x + 1.0);
    y * f32::from_bits((((fx as i32) + 127) as u32) << 23)
}

/// The AVX2 + FMA kernels. Everything here is reached only through
/// [`SimdBackend`], whose construction guarantees (via [`SimdLevel::available`])
/// that the running CPU supports `avx2` and `fma` before this module's
/// `#[target_feature]` functions are ever invoked.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86 {
    use std::arch::x86_64::{
        __m256, __m256d, __m256i, _mm256_add_epi32, _mm256_add_epi64, _mm256_add_pd, _mm256_add_ps,
        _mm256_and_pd, _mm256_castpd256_pd128, _mm256_castps256_ps128, _mm256_castsi256_pd,
        _mm256_castsi256_ps, _mm256_castsi256_si128, _mm256_cmp_pd, _mm256_cvtepi32_epi64,
        _mm256_cvtpd_epi32, _mm256_cvtps_pd, _mm256_cvttps_epi32, _mm256_div_ps,
        _mm256_extractf128_pd, _mm256_extractf128_ps, _mm256_extracti128_si256, _mm256_floor_ps,
        _mm256_fmadd_pd, _mm256_fmadd_ps, _mm256_fnmadd_pd, _mm256_fnmadd_ps, _mm256_loadu_ps,
        _mm256_loadu_si256, _mm256_max_ps, _mm256_min_ps, _mm256_mul_epu32, _mm256_mul_pd,
        _mm256_mul_ps, _mm256_permute2f128_ps, _mm256_round_pd, _mm256_set1_epi32,
        _mm256_set1_epi64x, _mm256_set1_pd, _mm256_set1_ps, _mm256_setzero_pd, _mm256_setzero_ps,
        _mm256_setzero_si256, _mm256_shuffle_ps, _mm256_slli_epi32, _mm256_slli_epi64,
        _mm256_srli_epi64, _mm256_storeu_ps, _mm256_sub_pd, _mm256_sub_ps, _mm256_xor_si256,
        _mm_add_epi64, _mm_add_pd, _mm_add_ps, _mm_add_ss, _mm_cvtsd_f64, _mm_cvtss_f32,
        _mm_loadu_ps, _mm_movehl_ps, _mm_prefetch, _mm_shuffle_ps, _mm_storeu_si128,
        _mm_unpackhi_pd, _CMP_NLT_UQ, _MM_FROUND_NO_EXC, _MM_FROUND_TO_NEAREST_INT, _MM_HINT_T0,
    };

    use super::exp_poly_scalar;
    use crate::attention::{AttentionResult, QueryBuffer};
    use crate::Matrix;

    /// Number of `f32` lanes per AVX2 vector.
    const LANES: usize = 8;
    /// Key rows whose dot products [`dots`] reduces together.
    const ROWS: usize = 4;
    /// The output lane of each of [`hsum4`]'s four rows, in row order.
    const HSUM4_LANES: [usize; ROWS] = [0, 4, 1, 5];

    /// Upper input clamp of the polynomial `exp` (just under `ln(f32::MAX)`).
    pub(super) const EXP_HI: f32 = 88.376_26;
    /// Lower input clamp of the polynomial `exp` (smallest normal-range exponent).
    pub(super) const EXP_LO: f32 = -87.336_54;
    /// Cody–Waite split of `ln 2`: high part. The digits are the exactly
    /// representable split constant, kept verbatim from Cephes.
    #[allow(clippy::excessive_precision)]
    pub(super) const LN2_HI: f32 = 0.693_359_375;
    /// Cody–Waite split of `ln 2`: low (correction) part.
    pub(super) const LN2_LO: f32 = -2.121_944_4e-4;
    /// Cephes `expf` polynomial coefficients, highest order first (digits kept
    /// verbatim from Cephes).
    #[allow(clippy::excessive_precision)]
    pub(super) const EXP_P: [f32; 6] = [
        1.987_569_1e-4,
        1.398_199_9e-3,
        8.333_452e-3,
        4.166_579_6e-2,
        1.666_666_5e-1,
        5.000_000_1e-1,
    ];

    /// `f64` lanes per AVX2 vector.
    const LANES_64: usize = 4;
    /// The smallest `f64` whose libm `exp` is at least `2^-1022`, i.e.
    /// `ln(2^-1022)` rounded up. The `f64` lane `exp` flushes every smaller
    /// argument's (subnormal or zero) result to zero.
    pub(super) const EXP64_MIN: f64 = -708.396_418_532_264_1;
    /// Cody–Waite split of `ln 2` for `f64` (fdlibm's `ln2HI`/`ln2LO`): the
    /// high part has 32 significant bits, so `n * LN2_HI_64` is exact for
    /// every `|n| <= 2^21`.
    const LN2_HI_64: f64 = 0.693_147_180_369_123_8;
    /// Low (correction) part of the `f64` Cody–Waite split.
    const LN2_LO_64: f64 = 1.908_214_929_270_587_7e-10;
    /// `1/k!` for `k = 13` down to `0`: the degree-13 Taylor polynomial of
    /// `exp` on the reduced interval `|r| <= ln(2)/2`, whose truncation
    /// error `|r|^14/14! < 5e-18` is below 0.05 ulp of the result. Every
    /// `k!` here is an exact `f64` (`13! < 2^53`), so each quotient is the
    /// correctly rounded coefficient.
    const EXP64_TAYLOR: [f64; 14] = [
        1.0 / 6_227_020_800.0,
        1.0 / 479_001_600.0,
        1.0 / 39_916_800.0,
        1.0 / 3_628_800.0,
        1.0 / 362_880.0,
        1.0 / 40_320.0,
        1.0 / 5_040.0,
        1.0 / 720.0,
        1.0 / 120.0,
        1.0 / 24.0,
        1.0 / 6.0,
        0.5,
        1.0,
        1.0,
    ];

    /// [`SimdBackend::softmax_stats`](super::SimdBackend::softmax_stats) in
    /// lanes.
    ///
    /// Caller contract: the CPU supports `avx2` and `fma`.
    pub(super) fn softmax_stats(scores: &[f32]) -> (f64, f64) {
        // SAFETY: only reached through `SimdBackend::softmax_stats` at
        // `SimdLevel::Avx2`, which `SimdBackend::with_level` stores only after
        // `SimdLevel::available` confirmed `avx2` and `fma` on this CPU.
        unsafe {
            let max = f64::from(max_f32(scores));
            (max, sum_exp_shifted(scores, max))
        }
    }

    /// The largest element, NaN ignored (`-inf` for none): the value of the
    /// scalar `f64::max` fold. `_mm256_max_ps` returns its second operand
    /// when either is NaN, so with the running maximum second a NaN element
    /// leaves it unchanged.
    // SAFETY: callers must ensure `avx2`/`fma` are available (the
    // `#[target_feature]` contract). Eight-lane loads read `p + i` with
    // `i + LANES <= len`, inside the borrowed slice; the tail reads single
    // elements at `i < len`.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn max_f32(scores: &[f32]) -> f32 {
        let len = scores.len();
        let p = scores.as_ptr();
        let mut acc = _mm256_set1_ps(f32::NEG_INFINITY);
        let mut i = 0;
        while i + LANES <= len {
            acc = _mm256_max_ps(_mm256_loadu_ps(p.add(i)), acc);
            i += LANES;
        }
        let mut lanes = [0.0f32; LANES];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        let mut max = lanes.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
        while i < len {
            max = max.max(*p.add(i));
            i += 1;
        }
        max
    }

    /// `Σ exp(f64(s) − shift)` over `scores`: four-lane [`exp_f64_lanes`]
    /// sums added pairwise, then the tail terms with libm `exp`.
    // SAFETY: callers must ensure `avx2`/`fma` are available (the
    // `#[target_feature]` contract). Four-lane loads read `p + i` with
    // `i + LANES_64 <= len`, inside the borrowed slice; the tail reads single
    // elements at `i < len`.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn sum_exp_shifted(scores: &[f32], shift: f64) -> f64 {
        let len = scores.len();
        let p = scores.as_ptr();
        let shiftv = _mm256_set1_pd(shift);
        let mut acc = _mm256_setzero_pd();
        let mut i = 0;
        while i + LANES_64 <= len {
            // Widening f32 -> f64 is exact, and the subtraction is the scalar
            // path's `f64::from(s) - shift`.
            let x = _mm256_sub_pd(_mm256_cvtps_pd(_mm_loadu_ps(p.add(i))), shiftv);
            acc = _mm256_add_pd(acc, exp_f64_lanes(x));
            i += LANES_64;
        }
        let pair = _mm_add_pd(_mm256_castpd256_pd128(acc), _mm256_extractf128_pd::<1>(acc));
        let mut sum = _mm_cvtsd_f64(_mm_add_pd(pair, _mm_unpackhi_pd(pair, pair)));
        while i < len {
            sum += (f64::from(*p.add(i)) - shift).exp();
            i += 1;
        }
        sum
    }

    /// The lane `exp` on four arguments, or `None` on a CPU without `avx2`
    /// and `fma`.
    #[cfg(test)]
    pub(super) fn exp_f64_x4(x: [f64; 4]) -> Option<[f64; 4]> {
        use std::arch::x86_64::{_mm256_loadu_pd, _mm256_storeu_pd};
        if !super::SimdLevel::Avx2.available() {
            return None;
        }
        let mut out = [0.0; 4];
        // SAFETY: `available` just confirmed `avx2` and `fma`; both pointers
        // address four-element arrays.
        unsafe { _mm256_storeu_pd(out.as_mut_ptr(), exp_f64_lanes(_mm256_loadu_pd(x.as_ptr()))) };
        Some(out)
    }

    /// Four-lane `f64` `exp` for arguments `x <= 0`, extending the Cody–Waite
    /// scheme of [`exp_lanes`] to `f64`:
    ///
    /// 1. `n = round(x / ln 2)` and `r = x - n*LN2_HI_64 - n*LN2_LO_64` with
    ///    two FMAs; the first step is exact, so `|r| <= ln(2)/2` carries one
    ///    rounding;
    /// 2. `exp(r)` by the degree-13 Taylor polynomial in Horner form with FMA;
    /// 3. the product with `2^n`, assembled from its bit pattern: for
    ///    `x >= EXP64_MIN`, `n >= -1022`, so `2^n` is a normal number and the
    ///    product is exact scaling.
    ///
    /// Lanes with `x < EXP64_MIN` (results below `2^-1022`, including
    /// `-inf`) return `+0.0`; NaN lanes return NaN. Within 1 ulp of libm's
    /// `f64::exp` on `[EXP64_MIN, 0]` (tested on a dense sweep).
    // SAFETY: callers must ensure `avx2`/`fma` are available (the
    // `#[target_feature]` contract). Pure register arithmetic; no memory access.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn exp_f64_lanes(x: __m256d) -> __m256d {
        let n = _mm256_round_pd::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(
            _mm256_mul_pd(x, _mm256_set1_pd(std::f64::consts::LOG2_E)),
        );
        let r = _mm256_fnmadd_pd(n, _mm256_set1_pd(LN2_HI_64), x);
        let r = _mm256_fnmadd_pd(n, _mm256_set1_pd(LN2_LO_64), r);
        let mut y = _mm256_set1_pd(EXP64_TAYLOR[0]);
        for &c in &EXP64_TAYLOR[1..] {
            y = _mm256_fmadd_pd(y, r, _mm256_set1_pd(c));
        }
        // 2^n from its biased exponent; lanes outside [-1022, 0] hold garbage
        // here and are masked off below.
        let biased = _mm256_add_epi64(
            _mm256_cvtepi32_epi64(_mm256_cvtpd_epi32(n)),
            _mm256_set1_epi64x(1023),
        );
        let pow2n = _mm256_castsi256_pd(_mm256_slli_epi64::<52>(biased));
        // Not-less-than, unordered: true for x >= EXP64_MIN and for NaN, so
        // NaN propagates and only the flushed lanes are zeroed.
        let keep = _mm256_cmp_pd::<_CMP_NLT_UQ>(x, _mm256_set1_pd(EXP64_MIN));
        _mm256_and_pd(_mm256_mul_pd(y, pow2n), keep)
    }

    /// How many rows ahead of the one it hashes the lane pass prefetches.
    const PREFETCH_ROWS: usize = 4;

    /// [`SimdBackend::for_each_row_content_hash`](super::SimdBackend::for_each_row_content_hash)
    /// in lanes. Caller contract: the CPU supports `avx2` and `fma`.
    pub(super) fn for_each_row_content_hash<'m>(
        rows: impl Iterator<Item = (usize, (&'m [f32], &'m [f32]))>,
        each: impl FnMut(usize, u64),
    ) {
        // SAFETY: only reached through `SimdBackend` at `SimdLevel::Avx2`,
        // which `with_level` stores only once `avx2` and `fma` are confirmed.
        unsafe { row_content_hashes(rows, each) }
    }

    // SAFETY: callers must ensure `avx2`/`fma` are available (the
    // `#[target_feature]` contract). A prefetch never faults, `wrapping_add`
    // reads nothing, each stripe absorbed is a full chunk of a borrowed row or
    // a padded local tail, and the secret loads read the eight-word table.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn row_content_hashes<'m>(
        rows: impl Iterator<Item = (usize, (&'m [f32], &'m [f32]))>,
        mut each: impl FnMut(usize, u64),
    ) {
        let step = _mm256_set1_epi64x(super::STRIPE_STEP as i64);
        let table = super::first_secrets();
        let secret = [0, 4].map(|lane| _mm256_loadu_si256(table.as_ptr().add(lane).cast()));
        let zero = [_mm256_setzero_si256(); 2];
        for (row, (key, value)) in rows {
            #[cfg(test)]
            super::test_support::count_row_hashed();
            let mut lanes = [zero, zero, secret];
            for xs in [key, value] {
                let (p, bytes) = (xs.as_ptr().cast::<i8>(), std::mem::size_of_val(xs));
                for line in (0..bytes).step_by(64) {
                    _mm_prefetch::<_MM_HINT_T0>(p.wrapping_add(PREFETCH_ROWS * bytes + line));
                }
                let mut stripes = xs.chunks_exact(super::STRIPE);
                for stripe in &mut stripes {
                    absorb(stripe.as_ptr(), &mut lanes, step);
                }
                let tail = stripes.remainder();
                if !tail.is_empty() {
                    let mut padded = [0.0f32; super::STRIPE];
                    padded[..tail.len()].copy_from_slice(tail);
                    absorb(padded.as_ptr(), &mut lanes, step);
                }
            }
            // Lanes 0–3 plus 4–7, then the two halves: the parities' sums.
            let mut sums = [[0u64; 2]; 2];
            for (sum, [low, high]) in sums.iter_mut().zip([lanes[0], lanes[1]]) {
                let v = _mm256_add_epi64(low, high);
                let v = _mm_add_epi64(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v));
                _mm_storeu_si128(sum.as_mut_ptr().cast(), v);
            }
            each(row, super::fold_parities(sums[0], sums[1]));
        }
    }

    /// Absorbs the sixteen elements at `p` into `lanes` (word sums, product
    /// sums, secrets) and advances the secrets by `step`.
    // SAFETY: callers must ensure `avx2`/`fma` (the `#[target_feature]`
    // contract) and that `p` addresses sixteen `f32`s.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn absorb(p: *const f32, [raw, product, secret]: &mut [[__m256i; 2]; 3], step: __m256i) {
        for half in 0..2 {
            let words = _mm256_loadu_si256(p.cast::<__m256i>().add(half));
            let mixed = _mm256_xor_si256(words, secret[half]);
            let halves = _mm256_mul_epu32(mixed, _mm256_srli_epi64::<32>(mixed));
            raw[half] = _mm256_add_epi64(raw[half], words);
            product[half] = _mm256_add_epi64(product[half], halves);
            secret[half] = _mm256_add_epi64(secret[half], step);
        }
    }

    /// Exact attention over validated shapes, vectorised with AVX2 + FMA. The
    /// output lands in the buffer `query` turns into after the score pass,
    /// the last read of the query.
    ///
    /// Caller contract (enforced by `SimdBackend::attend_raw`): shapes are
    /// consistent and the CPU supports `avx2` and `fma`.
    pub(super) fn attend(
        keys: &Matrix,
        values: &Matrix,
        query: impl QueryBuffer,
    ) -> AttentionResult {
        // SAFETY: `SimdBackend::with_level` only stores `Avx2` when
        // `SimdLevel::available` confirmed `avx2` and `fma` on this CPU, and this
        // function is only reached through that backend.
        unsafe { attend_avx2(keys, values, query) }
    }

    // SAFETY: callers must ensure the CPU supports `avx2` and `fma` (the
    // `#[target_feature]` contract); the only caller is `attend`, which is reached
    // exclusively through a `SimdBackend` that verified both features at
    // construction. Shapes are validated by `SimdBackend::attend_raw` before entry.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn attend_avx2(
        keys: &Matrix,
        values: &Matrix,
        query: impl QueryBuffer,
    ) -> AttentionResult {
        // The max reduction of the stable softmax is fused into the score pass.
        let (scores, max) = dots(keys, query.query());
        let weights = softmax(&scores, max);
        let output = weighted_sum(values, &weights, query.into_output(values.dim()));
        AttentionResult {
            scores,
            weights,
            output,
        }
    }

    /// Every key row's dot product with `query`, and the largest of them (a
    /// `f32::max` fold in row order).
    ///
    /// Four rows share each query load: each row keeps [`dot`]'s two
    /// accumulators over the same chunks, and [`hsum4`] reduces the four rows
    /// together with [`hsum`]'s adds. Each row's `d mod 8` tail is then added
    /// in order with scalar `mul_add`, as [`dot`] does, so every score is
    /// bit-identical to [`dot`]'s. The `n mod 4` rows past the last block go
    /// through [`dot`].
    // SAFETY: callers must ensure `avx2`/`fma` are available (the
    // `#[target_feature]` contract) and `query.len() == keys.dim()`
    // (validated by `SimdBackend::attend_raw`). Row `r + k` is read at
    // `base + (r + k) * d + i` with `r + k < n` and `i < d` (eight-lane loads
    // at `i + LANES <= d`), inside the `n * d` key buffer; the query at
    // offsets below `d`. The scores are written at `r + k < n` into the
    // `n`-element capacity of a fresh vector, every element before `set_len`.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn dots(keys: &Matrix, query: &[f32]) -> (Vec<f32>, f32) {
        let (n, d) = (keys.rows(), keys.dim());
        let base = keys.as_slice().as_ptr();
        let q = query.as_ptr();
        // Uninitialised (`malloc`, not `calloc`): every element is written below.
        let mut scores = Vec::with_capacity(n);
        let out: *mut f32 = scores.as_mut_ptr();
        let mut max = f32::NEG_INFINITY;
        let mut r = 0;
        while r + ROWS <= n {
            let block = base.add(r * d);
            let mut acc = [[_mm256_setzero_ps(); 2]; ROWS];
            let mut i = 0;
            while i + 2 * LANES <= d {
                let q0 = _mm256_loadu_ps(q.add(i));
                let q1 = _mm256_loadu_ps(q.add(i + LANES));
                for (k, [acc0, acc1]) in acc.iter_mut().enumerate() {
                    let row = block.add(k * d + i);
                    *acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(row), q0, *acc0);
                    *acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(row.add(LANES)), q1, *acc1);
                }
                i += 2 * LANES;
            }
            if i + LANES <= d {
                let q0 = _mm256_loadu_ps(q.add(i));
                for (k, [acc0, _]) in acc.iter_mut().enumerate() {
                    *acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(block.add(k * d + i)), q0, *acc0);
                }
                i += LANES;
            }
            let mut lanes = [0.0f32; LANES];
            _mm256_storeu_ps(
                lanes.as_mut_ptr(),
                hsum4(acc.map(|[acc0, acc1]| _mm256_add_ps(acc0, acc1))),
            );
            for (k, lane) in HSUM4_LANES.into_iter().enumerate() {
                let row = block.add(k * d);
                let mut sum = lanes[lane];
                for j in i..d {
                    sum = (*row.add(j)).mul_add(*q.add(j), sum);
                }
                *out.add(r + k) = sum;
                max = max.max(sum);
            }
            r += ROWS;
        }
        while r < n {
            let sum = dot(keys.row(r), query);
            *out.add(r) = sum;
            max = max.max(sum);
            r += 1;
        }
        scores.set_len(n);
        (scores, max)
    }

    /// The horizontal sums of four rows' lane vectors, each computed with the
    /// three adds [`hsum`] makes on one vector, on the same two operands in
    /// the same order: low half + high half, then lanes 0 + 2 and 1 + 3, then
    /// the two partial sums. Float addition is commutative, so each sum is
    /// bit-identical to [`hsum`]'s. Rows 0, 1, 2, 3 land in lanes
    /// [`HSUM4_LANES`] = 0, 4, 1, 5.
    // SAFETY: callers must ensure `avx2`/`fma` are available (the
    // `#[target_feature]` contract). No memory is accessed — lane shuffles
    // and adds only.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn hsum4(rows: [__m256; ROWS]) -> __m256 {
        let [s0, s1, s2, s3] = rows;
        // [row 0: lanes j + (j+4) | row 1: lanes j + (j+4)], j = 0..4.
        let s01 = _mm256_add_ps(
            _mm256_permute2f128_ps::<0x20>(s0, s1),
            _mm256_permute2f128_ps::<0x31>(s0, s1),
        );
        let s23 = _mm256_add_ps(
            _mm256_permute2f128_ps::<0x20>(s2, s3),
            _mm256_permute2f128_ps::<0x31>(s2, s3),
        );
        // [row 0: 0+2, 1+3, row 2: 0+2, 1+3 | the same for rows 1 and 3].
        let pairs = _mm256_add_ps(
            _mm256_shuffle_ps::<0x44>(s01, s23),
            _mm256_shuffle_ps::<0xEE>(s01, s23),
        );
        // [row 0, row 2, row 0, row 2 | row 1, row 3, row 1, row 3].
        _mm256_add_ps(
            _mm256_shuffle_ps::<0x88>(pairs, pairs),
            _mm256_shuffle_ps::<0xDD>(pairs, pairs),
        )
    }

    /// Horizontal sum of the eight lanes.
    // SAFETY: callers must ensure `avx2`/`fma` are available (the
    // `#[target_feature]` contract); every caller is itself such a function,
    // rooted at `attend`. No memory is accessed — lane shuffles and adds only.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn hsum(v: __m256) -> f32 {
        let hi = _mm256_extractf128_ps::<1>(v);
        let lo = _mm256_castps256_ps128(v);
        let s = _mm_add_ps(lo, hi);
        let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
        let s = _mm_add_ss(s, _mm_shuffle_ps::<0b01>(s, s));
        _mm_cvtss_f32(s)
    }

    /// Dot product of two equal-length slices: two FMA accumulators over eight-lane
    /// chunks, scalar `mul_add` tail for `len % 8` elements.
    // SAFETY: callers must ensure `avx2`/`fma` are available (the
    // `#[target_feature]` contract). All loads are unaligned (`loadu`) reads at
    // `base + i` with `i + LANES <= len`, so every eight-lane read stays inside
    // the borrowed slices; the scalar tail uses safe indexing.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn dot(row: &[f32], query: &[f32]) -> f32 {
        debug_assert_eq!(row.len(), query.len());
        let len = row.len();
        let a = row.as_ptr();
        let b = query.as_ptr();
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut i = 0;
        while i + 2 * LANES <= len {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a.add(i)), _mm256_loadu_ps(b.add(i)), acc0);
            acc1 = _mm256_fmadd_ps(
                _mm256_loadu_ps(a.add(i + LANES)),
                _mm256_loadu_ps(b.add(i + LANES)),
                acc1,
            );
            i += 2 * LANES;
        }
        if i + LANES <= len {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a.add(i)), _mm256_loadu_ps(b.add(i)), acc0);
            i += LANES;
        }
        let mut sum = hsum(_mm256_add_ps(acc0, acc1));
        while i < len {
            sum = row[i].mul_add(query[i], sum);
            i += 1;
        }
        sum
    }

    /// Eight-lane polynomial `exp` (Cephes `expf` scheme: range-reduce by powers of
    /// two with a Cody–Waite split of `ln 2`, degree-5 polynomial, exponent
    /// reassembly through the float bit pattern). Accurate to a few ULP over the
    /// clamped range.
    // SAFETY: callers must ensure `avx2`/`fma` are available (the
    // `#[target_feature]` contract). Pure register arithmetic; no memory access.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn exp_lanes(x: __m256) -> __m256 {
        let x = _mm256_min_ps(
            _mm256_max_ps(x, _mm256_set1_ps(EXP_LO)),
            _mm256_set1_ps(EXP_HI),
        );
        let fx = _mm256_floor_ps(_mm256_fmadd_ps(
            x,
            _mm256_set1_ps(std::f32::consts::LOG2_E),
            _mm256_set1_ps(0.5),
        ));
        let x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(LN2_HI), x);
        let x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(LN2_LO), x);
        let z = _mm256_mul_ps(x, x);
        let mut y = _mm256_set1_ps(EXP_P[0]);
        for &p in &EXP_P[1..] {
            y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(p));
        }
        let y = _mm256_fmadd_ps(y, z, _mm256_add_ps(x, _mm256_set1_ps(1.0)));
        let pow2n = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
            _mm256_cvttps_epi32(fx),
            _mm256_set1_epi32(127),
        )));
        _mm256_mul_ps(y, pow2n)
    }

    /// Numerically stable softmax of scores whose maximum the caller already
    /// knows (it falls out of the score pass for free): eight-lane `exp` with
    /// a running sum, then vectorised normalisation. Tail elements use the
    /// scalar mirror of the lane polynomial.
    // SAFETY: callers must ensure `avx2`/`fma` are available (the
    // `#[target_feature]` contract). Loads read `scores` at `i + LANES <= n`
    // (vector) or `i < n` (scalar). Every store and the normalisation's loads
    // go through one raw pointer into the `n`-element capacity of a fresh
    // vector, at the same bounds; the first pass writes every element before
    // the second reads it, and `set_len` follows both.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn softmax(scores: &[f32], max: f32) -> Vec<f32> {
        let n = scores.len();
        let mut weights = Vec::with_capacity(n);
        let src = scores.as_ptr();
        let dst: *mut f32 = weights.as_mut_ptr();

        let vmaxb = _mm256_set1_ps(max);
        let mut vsum = _mm256_setzero_ps();
        let mut i = 0;
        while i + LANES <= n {
            let e = exp_lanes(_mm256_sub_ps(_mm256_loadu_ps(src.add(i)), vmaxb));
            _mm256_storeu_ps(dst.add(i), e);
            vsum = _mm256_add_ps(vsum, e);
            i += LANES;
        }
        let mut sum = hsum(vsum);
        while i < n {
            let e = exp_poly_scalar(*src.add(i) - max);
            *dst.add(i) = e;
            sum += e;
            i += 1;
        }

        let vsumb = _mm256_set1_ps(sum);
        i = 0;
        while i + LANES <= n {
            _mm256_storeu_ps(
                dst.add(i),
                _mm256_div_ps(_mm256_loadu_ps(dst.add(i)), vsumb),
            );
            i += LANES;
        }
        while i < n {
            *dst.add(i) /= sum;
            i += 1;
        }
        weights.set_len(n);
        weights
    }

    /// Weighted sum of value rows. The loop order is inverted relative to the
    /// scalar path: the output is processed in column blocks of 64, then 32,
    /// then 8 floats, whose accumulators stay in registers across **all** rows,
    /// so the hot loop is pure broadcast + FMA with no output loads/stores
    /// ([`column_block`]); the last `d mod 8` columns are scalar. Per output
    /// element the rows are still accumulated in ascending row order (the
    /// scalar path's order), and zero-weight rows are skipped as the scalar
    /// path does, so the block widths do not change a single bit. The output
    /// is written into `output`, whose previous contents are discarded.
    // SAFETY: callers must ensure `avx2`/`fma` are available (the
    // `#[target_feature]` contract) and `weights.len() == values.rows()`.
    // Every block satisfies `column_block`'s contract: `j + K*LANES <= d`
    // inside the `n*d` value buffer and the `d`-element capacity `reserve`
    // gives the emptied output vector, which is not otherwise referenced
    // while the pointer is live. The scalar tail reads `data + i*d + j` with
    // `i < n`, `j < d`. The blocks and the tail write every output column
    // before `set_len`.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn weighted_sum(values: &Matrix, weights: &[f32], mut output: Vec<f32>) -> Vec<f32> {
        let d = values.dim();
        let data = values.as_slice().as_ptr();
        output.clear();
        output.reserve(d);
        let out: *mut f32 = output.as_mut_ptr();
        let mut j = 0;
        while j + 8 * LANES <= d {
            column_block::<8>(data, d, weights, j, out);
            j += 8 * LANES;
        }
        while j + 4 * LANES <= d {
            column_block::<4>(data, d, weights, j, out);
            j += 4 * LANES;
        }
        while j + LANES <= d {
            column_block::<1>(data, d, weights, j, out);
            j += LANES;
        }
        while j < d {
            let mut acc = 0.0f32;
            for (i, &w) in weights.iter().enumerate() {
                if w != 0.0 {
                    acc = w.mul_add(*data.add(i * d + j), acc);
                }
            }
            *out.add(j) = acc;
            j += 1;
        }
        output.set_len(d);
        output
    }

    /// Output columns `j .. j + K*LANES` of the weighted sum: `K` register
    /// accumulators, one broadcast and `K` FMAs per nonzero-weight row, rows
    /// in ascending order.
    // SAFETY: callers must ensure `avx2`/`fma` are available (the
    // `#[target_feature]` contract), that `data` addresses a row-major
    // `weights.len() x d` buffer and `out` a writable `d`-element one, and
    // that `j + K*LANES <= d`. Reads are at `data + i*d + j + k*LANES` with
    // `i < weights.len()`, `k < K`; writes at `out + j + k*LANES`.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn column_block<const K: usize>(
        data: *const f32,
        d: usize,
        weights: &[f32],
        j: usize,
        out: *mut f32,
    ) {
        let mut acc = [_mm256_setzero_ps(); K];
        for (i, &w) in weights.iter().enumerate() {
            if w == 0.0 {
                continue;
            }
            let wv = _mm256_set1_ps(w);
            let row = data.add(i * d + j);
            for (k, a) in acc.iter_mut().enumerate() {
                *a = _mm256_fmadd_ps(wv, _mm256_loadu_ps(row.add(k * LANES)), *a);
            }
        }
        for (k, a) in acc.into_iter().enumerate() {
            _mm256_storeu_ps(out.add(j + k * LANES), a);
        }
    }
}

/// Shared helpers for tests of the dispatch levels.
#[cfg(test)]
pub(crate) mod test_support {
    /// Serialises the tests — here and in `quantized_simd` — that mutate
    /// [`super::FORCE_SCALAR_ENV`] (process-global state).
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Takes [`ENV_LOCK`], also after a test failed while holding it: each
    /// holder restores [`super::FORCE_SCALAR_ENV`] before it asserts, so a
    /// poisoned lock guards nothing broken, and one failure stays one failure.
    pub(crate) fn env_lock() -> std::sync::MutexGuard<'static, ()> {
        ENV_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    thread_local! {
        /// Rows content-hashed on this thread, at either level.
        pub(crate) static ROWS_HASHED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    pub(crate) fn count_row_hashed() {
        ROWS_HASHED.with(|count| count.set(count.get() + 1));
    }

    /// The content hash of every row of (`keys`, `values`) at `level`.
    pub(crate) fn content_hashes(
        level: super::SimdLevel,
        keys: &crate::Matrix,
        values: &crate::Matrix,
    ) -> Vec<u64> {
        let mut hashes = Vec::new();
        super::SimdBackend::with_level(level)
            .for_each_row_content_hash(keys, values, |_, hash| hashes.push(hash));
        hashes
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::{content_hashes, env_lock};
    use super::*;
    use crate::backend::ExactBackend;

    /// Deterministic pseudo-random memory with awkward shapes.
    fn case(n: usize, d: usize, seed: u64) -> (Matrix, Matrix, Vec<f32>) {
        let value = |i: usize, j: usize, salt: u64| -> f32 {
            let h = (i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(j as u64)
                .wrapping_add(seed ^ salt)
                .wrapping_mul(0xD6E8_FEB8_6659_FD93);
            ((h >> 40) as f32 / (1u64 << 24) as f32) - 0.5
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
        let query = (0..d).map(|j| value(j, 7, 3) * 2.0).collect();
        (keys, values, query)
    }

    fn assert_close(simd: &AttentionResult, exact: &AttentionResult, label: &str) {
        let score_scale = exact.scores.iter().fold(1.0f32, |acc, &s| acc.max(s.abs()));
        for (a, b) in simd.scores.iter().zip(&exact.scores) {
            assert!(
                (a - b).abs() <= 1e-5 * score_scale,
                "{label}: score {a} vs {b}"
            );
        }
        for (a, b) in simd.weights.iter().zip(&exact.weights) {
            assert!((a - b).abs() <= 1e-5, "{label}: weight {a} vs {b}");
        }
        for (a, b) in simd.output.iter().zip(&exact.output) {
            assert!((a - b).abs() <= 1e-5, "{label}: output {a} vs {b}");
        }
    }

    #[test]
    fn matches_exact_across_awkward_shapes() {
        // Dimensions straddling the 8-lane width (tails of every length), single-row
        // memories, and the paper-size 320x64 case.
        let backend = SimdBackend::new();
        for &(n, d) in &[
            (1usize, 1usize),
            (1, 8),
            (1, 13),
            (3, 1),
            (5, 7),
            (7, 8),
            (9, 9),
            (16, 15),
            (17, 16),
            (31, 17),
            (64, 24),
            (320, 64),
            (33, 65),
        ] {
            let (keys, values, query) = case(n, d, 11);
            let simd = backend.attend(&keys, &values, &query).unwrap();
            let exact = ExactBackend.attend(&keys, &values, &query).unwrap();
            assert_close(&simd, &exact, &format!("n={n} d={d}"));
            let sum: f32 = simd.weights.iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "n={n} d={d}: weight sum {sum}");
        }
    }

    #[test]
    fn scalar_level_is_bit_identical_to_exact() {
        let (keys, values, query) = case(23, 19, 5);
        let scalar = SimdBackend::scalar();
        assert_eq!(scalar.level(), SimdLevel::Scalar);
        assert_eq!(scalar.name(), "simd(scalar)");
        assert_eq!(
            scalar.attend(&keys, &values, &query).unwrap(),
            ExactBackend.attend(&keys, &values, &query).unwrap()
        );
    }

    #[test]
    fn prepared_and_one_shot_paths_are_bit_identical() {
        let (keys, values, query) = case(29, 12, 3);
        for backend in [SimdBackend::new(), SimdBackend::scalar()] {
            let memory = backend.prepare(&keys, &values).unwrap();
            assert_eq!(memory.preprocess_ops(), 0);
            assert_eq!(
                backend.attend_prepared(&memory, &query).unwrap(),
                backend.attend(&keys, &values, &query).unwrap(),
                "{}",
                backend.name()
            );
        }
    }

    #[test]
    fn batch_prepared_is_bit_identical_and_ordered() {
        let (keys, values, query) = case(21, 10, 9);
        let flipped: Vec<f32> = query.iter().map(|x| -x).collect();
        let queries = [query.as_slice(), flipped.as_slice()];
        let backend = SimdBackend::new();
        let memory = backend.prepare(&keys, &values).unwrap();
        let batch = backend.attend_batch_prepared(&memory, &queries).unwrap();
        assert_eq!(batch.len(), 2);
        for (q, out) in queries.iter().zip(&batch) {
            assert_eq!(out, &backend.attend_prepared(&memory, q).unwrap());
        }
        assert!(backend
            .attend_batch_prepared(&memory, &[])
            .unwrap()
            .is_empty());
    }

    #[test]
    fn serves_memories_prepared_by_other_backends() {
        // Like ExactBackend, the SIMD datapath only needs the raw matrices, so a
        // memory prepared by the approximate backend (sorted state) is served too —
        // the exact-re-scoring interplay next to approximate serving.
        let (keys, values, query) = case(24, 8, 13);
        let approx = crate::backend::ApproximateBackend::conservative();
        let sorted_memory = approx.prepare(&keys, &values).unwrap();
        let backend = SimdBackend::new();
        let via_sorted = backend.attend_prepared(&sorted_memory, &query).unwrap();
        let direct = backend.attend(&keys, &values, &query).unwrap();
        assert_eq!(via_sorted, direct);
    }

    #[test]
    fn shape_errors_propagate() {
        let (keys, values, _) = case(8, 4, 1);
        let backend = SimdBackend::new();
        assert!(matches!(
            backend.attend(&keys, &values, &[0.0; 3]),
            Err(AttentionError::DimensionMismatch { .. })
        ));
        let bad_values = Matrix::zeros(3, 4);
        assert!(backend.prepare(&keys, &bad_values).is_err());
    }

    #[test]
    fn detect_never_selects_avx2_under_the_env_override() {
        // Regression test for the CI fallback matrix: with A3_FORCE_SCALAR set,
        // detection must return Scalar no matter what the CPU supports. The env var
        // is restored immediately; concurrent tests constructing a SimdBackend in
        // the window at worst run the (always-correct) scalar path.
        let _guard = env_lock();
        let previous = std::env::var_os(FORCE_SCALAR_ENV);
        std::env::set_var(FORCE_SCALAR_ENV, "1");
        let forced = SimdLevel::detect();
        let backend_name = SimdBackend::new().name();
        match &previous {
            Some(v) => std::env::set_var(FORCE_SCALAR_ENV, v),
            None => std::env::remove_var(FORCE_SCALAR_ENV),
        }
        assert_eq!(forced, SimdLevel::Scalar);
        assert_eq!(backend_name, "simd(scalar)");
    }

    #[test]
    fn force_scalar_zero_and_empty_do_not_count_as_set() {
        let _guard = env_lock();
        let previous = std::env::var_os(FORCE_SCALAR_ENV);
        std::env::set_var(FORCE_SCALAR_ENV, "0");
        let zero = force_scalar_requested();
        std::env::set_var(FORCE_SCALAR_ENV, "");
        let empty = force_scalar_requested();
        std::env::set_var(FORCE_SCALAR_ENV, "1");
        let one = force_scalar_requested();
        match &previous {
            Some(v) => std::env::set_var(FORCE_SCALAR_ENV, v),
            None => std::env::remove_var(FORCE_SCALAR_ENV),
        }
        assert!(!zero);
        assert!(!empty);
        assert!(one);
    }

    #[test]
    fn unavailable_levels_degrade_to_scalar() {
        // Constructing with a level the host cannot run must fall back safely; on
        // AVX2 hosts this is an identity check instead. The lock keeps the
        // `default == new` check stable against the env-mutating tests.
        let _guard = env_lock();
        let requested = SimdBackend::with_level(SimdLevel::Avx2);
        if SimdLevel::Avx2.available() {
            assert_eq!(requested.level(), SimdLevel::Avx2);
            assert_eq!(requested.name(), "simd(avx2)");
        } else {
            assert_eq!(requested.level(), SimdLevel::Scalar);
        }
        assert_eq!(SimdLevel::Scalar.label(), "scalar");
        assert_eq!(SimdLevel::Avx2.label(), "avx2");
        assert!(SimdLevel::Scalar.available());
        assert_eq!(SimdBackend::default(), SimdBackend::new());
    }

    /// Distance in units in the last place between two non-negative finite
    /// doubles (their bit patterns are ordered like their values).
    fn ulps(a: f64, b: f64) -> u64 {
        a.to_bits().abs_diff(b.to_bits())
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn f64_lane_exp_is_within_one_ulp_of_libm_down_to_the_flush_bound() {
        // A dense sweep of [-745.2, 0] with seeded low-order bits, the
        // signed zeros, the flush boundary and its neighbours, the points
        // where the reduction's `n` changes, and libm's own underflow edge.
        let mut args = vec![
            0.0,
            -0.0,
            -f64::MIN_POSITIVE,
            -1e-300,
            -745.2,
            -745.13,
            -745.14,
        ];
        let min = x86::EXP64_MIN;
        // `min` is negative: a larger bit pattern is one ulp further from 0.
        for k in 0..64 {
            args.extend([
                f64::from_bits(min.to_bits() + k + 1),
                f64::from_bits(min.to_bits() - k),
            ]);
        }
        for k in 0..=1100 {
            let centre = -(f64::from(k) + 0.5) * std::f64::consts::LN_2;
            let bits = centre.to_bits();
            args.extend([centre, f64::from_bits(bits + 1), f64::from_bits(bits - 1)]);
        }
        let steps = 1u64 << 21;
        let mut h = 0x9E37_79B9_7F4A_7C15u64;
        for k in 0..=steps {
            h = (h ^ (h >> 29))
                .wrapping_mul(0xBF58_476D_1CE4_E5B9)
                .wrapping_add(k);
            let x = -745.2 * k as f64 / steps as f64;
            args.push(f64::from_bits(x.to_bits() ^ (h >> 44)));
        }
        let Some(_) = x86::exp_f64_x4([0.0; 4]) else {
            eprintln!("skipping: host has no AVX2 + FMA");
            return;
        };
        let mut exact = 0usize;
        for chunk in args.chunks(4) {
            let mut x = [0.0; 4];
            x[..chunk.len()].copy_from_slice(chunk);
            let lanes = x86::exp_f64_x4(x).unwrap();
            for (&x, &got) in x.iter().zip(&lanes).take(chunk.len()) {
                let want = x.exp();
                if x < min {
                    assert!(want < f64::MIN_POSITIVE, "exp({x:e}) = {want:e} is normal");
                    assert_eq!(got.to_bits(), 0, "exp({x:e}) must flush to +0");
                } else {
                    let d = ulps(got, want);
                    assert!(
                        d <= 1,
                        "exp({x:e}): lanes {got:e} vs libm {want:e} ({d} ulp)"
                    );
                    exact += usize::from(d == 0);
                }
            }
        }
        // The lanes should match libm exactly on most arguments.
        assert!(
            exact * 10 > args.len() * 8,
            "{exact} of {} exact",
            args.len()
        );
        // NaN propagates; -inf flushes.
        let specials = x86::exp_f64_x4([f64::NAN, f64::NEG_INFINITY, -1000.0, -0.0]).unwrap();
        assert!(specials[0].is_nan());
        assert_eq!(specials[1..], [0.0, 0.0, 1.0]);
    }

    #[test]
    fn softmax_stats_track_the_libm_fold_at_every_level() {
        let mut scores: Vec<f32> = (0..37).map(|i| (i as f32 * 0.37).sin() * 9.0).collect();
        // NaN scores are ignored by the maximum, in lanes and in the tail.
        scores[5] = f32::NAN;
        scores[35] = f32::NAN;
        for len in 0..=scores.len() {
            let part = &scores[..len];
            let (max, sum) = softmax_stats_scalar(part);
            let want_max = part
                .iter()
                .fold(f64::NEG_INFINITY, |m, &s| m.max(f64::from(s)));
            assert_eq!(max, want_max);
            let (lane_max, lane_sum) = SimdBackend::new().softmax_stats(part);
            assert_eq!(lane_max, max, "len {len}");
            if len > 5 {
                assert!(sum.is_nan() && lane_sum.is_nan(), "len {len}");
            } else {
                assert!(
                    (lane_sum - sum).abs() <= 4.0 * f64::EPSILON * sum,
                    "len {len}"
                );
            }
        }
        let clean: Vec<f32> = scores
            .iter()
            .map(|&s| if s.is_nan() { 0.5 } else { s })
            .collect();
        let (max, sum) = SimdBackend::scalar().softmax_stats(&clean);
        let (lane_max, lane_sum) = SimdBackend::new().softmax_stats(&clean);
        assert_eq!(lane_max, max);
        assert!((lane_sum - sum).abs() <= 4.0 * f64::EPSILON * sum);
        assert_eq!(SimdBackend::new().softmax_stats(&[]).0, f64::NEG_INFINITY);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn polynomial_exp_tracks_libm_exp() {
        // The lane/tail exp must agree with std's exp to a few ULP over the softmax
        // input range (non-positive after max subtraction, plus a positive margin).
        if !SimdLevel::Avx2.available() {
            return;
        }
        let mut x = -85.0f32;
        while x < 20.0 {
            let poly = exp_poly_scalar(x);
            let libm = x.exp();
            let tolerance = 8.0 * f32::EPSILON * libm.max(f32::MIN_POSITIVE);
            assert!(
                (poly - libm).abs() <= tolerance,
                "exp({x}): poly {poly} vs libm {libm}"
            );
            x += 0.0137;
        }
    }

    #[test]
    fn lane_and_scalar_content_hashes_agree() {
        // Every tail length (widths 1..=70), NaN payloads, both zeros,
        // subnormals, both infinities, and key and value widths that differ.
        let specials = [
            f32::from_bits(0x7fc0_0001),
            f32::from_bits(0xffc1_2345),
            f32::from_bits(0x7f80_0001),
            0.0,
            -0.0,
            f32::from_bits(1),
            f32::from_bits(0x807f_ffff),
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
        ];
        let mut cases = vec![(case(3, 3, 1).0, case(3, 19, 2).1)];
        for d in 1..=70 {
            let (keys, values, _) = case(9, d, d as u64);
            let special: Vec<f32> = (0..9 * d)
                .map(|j| specials[(j * 7 + d) % specials.len()])
                .collect();
            let special = Matrix::from_flat(special, 9, d).unwrap();
            cases.push((special.clone(), values.clone()));
            cases.push((keys.clone(), special));
            cases.push((keys, values));
        }
        for (keys, values) in &cases {
            let scalar = content_hashes(SimdLevel::Scalar, keys, values);
            let rows: Vec<u64> = keys
                .iter_rows()
                .zip(values.iter_rows())
                .map(|(key, value)| row_content_hash(key, value))
                .collect();
            assert_eq!(scalar, rows, "widths {} and {}", keys.dim(), values.dim());
            if SimdLevel::Avx2.available() {
                let lanes = content_hashes(SimdLevel::Avx2, keys, values);
                assert_eq!(lanes, rows, "widths {} and {}", keys.dim(), values.dim());
            }
        }
    }
}
