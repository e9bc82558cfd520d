//! Fixed-point arithmetic substrate for the A3 attention accelerator reproduction.
//!
//! The A3 accelerator (Ham et al., HPCA 2020, Section III-B) operates entirely on
//! fixed-point values. Inputs (key matrix, value matrix and query vector) are quantized
//! to `i` integer bits and `f` fraction bits plus a sign bit, and every pipeline stage
//! widens the representation just enough to avoid overflow and precision loss:
//!
//! * element-wise products use `2i` integer / `2f` fraction bits,
//! * dot products add `log2(d)` integer bits,
//! * the max-subtraction in the exponent stage adds one more integer bit,
//! * softmax scores are pure fractions (`0` integer bits, `2f` fraction bits),
//! * the exponent sum needs `log2(n)` integer bits,
//! * the output accumulator needs `i + log2(n)` integer and `3f` fraction bits.
//!
//! This crate provides:
//!
//! * [`QFormat`] — a signed fixed-point format descriptor (integer bits, fraction bits),
//! * [`Fixed`] — a value tagged with its format, with checked/saturating arithmetic,
//! * [`PipelineFormats`] — the per-stage formats derived from `(i, f, n, d)` exactly as
//!   Section III-B prescribes,
//! * [`ExpLut`] — the two-half exponent lookup table used by the exponent-computation
//!   module (Section III-A, Module 2), including the single-table and floating-point
//!   reference variants used in the ablation study.
//!
//! # Example
//!
//! ```
//! use a3_fixed::{QFormat, Fixed};
//!
//! let fmt = QFormat::new(4, 4);
//! let a = Fixed::quantize(1.25, fmt);
//! let b = Fixed::quantize(-0.5, fmt);
//! let product = a.mul_full(b);
//! assert_eq!(product.to_f64(), -0.625);
//! assert_eq!(product.format(), QFormat::new(8, 8));
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod cast;
mod error;
mod exp_lut;
mod fixed;
mod pipeline_formats;
mod qformat;
mod satcount;

pub use error::FixedError;
pub use exp_lut::{ExpLut, ExpLutConfig, ExpLutKind, ExpLutReport, ExpLutTables};
pub use fixed::Fixed;
pub use pipeline_formats::{LaneGate, PipelineFormats};
pub use qformat::{ceil_log2, QFormat};
pub use satcount::{reset_saturation_count, saturation_count, saturation_counting_enabled};

/// Number of integer bits used for all paper evaluations (Section VI-D).
pub const PAPER_INT_BITS: u32 = 4;

/// Number of fraction bits used for all paper evaluations (Section VI-D).
pub const PAPER_FRAC_BITS: u32 = 4;

/// Returns the quantization format used throughout the paper's evaluation:
/// 4 integer bits, 4 fraction bits, plus a sign bit.
///
/// ```
/// let fmt = a3_fixed::paper_input_format();
/// assert_eq!(fmt.int_bits(), 4);
/// assert_eq!(fmt.frac_bits(), 4);
/// ```
pub fn paper_input_format() -> QFormat {
    QFormat::new(PAPER_INT_BITS, PAPER_FRAC_BITS)
}
