//! Debug-build saturation counters for the fixed-point datapath.
//!
//! The range prover in `a3-analyze` claims that for admissible pipeline
//! shapes, no container-overflow clamp fires before the final accumulation
//! step. This module makes that claim *testable*: in debug builds every
//! clamping fixed-point operation ([`Fixed::saturating_add`],
//! [`Fixed::saturating_sub`], [`Fixed::round_to`], [`Fixed::checked_add`],
//! [`Fixed::saturating_from_raw`]) reports whether its clamp actually
//! engaged, and a thread-local counter accumulates
//! the events. A differential witness harness can then drive the real scalar
//! pipeline on a concrete input and observe whether saturation occurred.
//!
//! What is deliberately **not** counted:
//!
//! - [`Fixed::quantize`]: clamping out-of-range *inputs* into the input
//!   format is input conditioning by design, not datapath overflow.
//! - [`Fixed::div_weight`]: the softmax normaliser's clamp
//!   of the `score == exp_sum` quotient from `2^f` to `2^f - 1` is
//!   definitional — the SIMD path replicates it bit-for-bit.
//! - The exponent LUT's `.min(out_max_raw)` on the rounded table product:
//!   also definitional (it encodes `exp(0) = 1` mapping to the largest
//!   representable pure fraction).
//!
//! In release builds the counter compiles away to nothing: `note_clamp`
//! becomes an empty inline function, so the hot paths pay zero cost.
//! [`saturation_counting_enabled`] tells harnesses whether observations are
//! meaningful in the current build.
//!
//! The counter is thread-local; multi-threaded harnesses must drive and read
//! it from the same thread.
//!
//! [`Fixed::saturating_add`]: crate::Fixed::saturating_add
//! [`Fixed::saturating_sub`]: crate::Fixed::saturating_sub
//! [`Fixed::round_to`]: crate::Fixed::round_to
//! [`Fixed::checked_add`]: crate::Fixed::checked_add
//! [`Fixed::saturating_from_raw`]: crate::Fixed::saturating_from_raw
//! [`Fixed::quantize`]: crate::Fixed::quantize
//! [`Fixed::div_weight`]: crate::Fixed::div_weight

use core::cell::Cell;

thread_local! {
    static SATURATION_EVENTS: Cell<u64> = const { Cell::new(0) };
}

/// Whether saturation events are recorded in this build.
///
/// Counting is compiled in only under `debug_assertions`; release builds
/// always report zero. Harnesses should skip counter assertions when this
/// returns `false`.
#[must_use]
pub fn saturation_counting_enabled() -> bool {
    cfg!(debug_assertions)
}

/// Number of container-overflow clamps recorded on the current thread since
/// the last [`reset_saturation_count`].
///
/// Always zero in release builds (see [`saturation_counting_enabled`]).
#[must_use]
pub fn saturation_count() -> u64 {
    SATURATION_EVENTS.with(Cell::get)
}

/// Resets the current thread's saturation counter to zero.
pub fn reset_saturation_count() {
    SATURATION_EVENTS.with(|events| events.set(0));
}

/// Records one saturation event if `clamped` is true.
///
/// Call sites pass `clamped = (clamped_value != unclamped_value)` so the
/// comparison itself documents which clamp is being observed. Compiles to
/// nothing in release builds.
#[inline]
pub(crate) fn note_clamp(clamped: bool) {
    #[cfg(debug_assertions)]
    if clamped {
        SATURATION_EVENTS.with(|events| events.set(events.get() + 1));
    }
    #[cfg(not(debug_assertions))]
    let _ = clamped;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_and_resets() {
        reset_saturation_count();
        assert_eq!(saturation_count(), 0);
        note_clamp(false);
        assert_eq!(saturation_count(), 0);
        note_clamp(true);
        note_clamp(true);
        if saturation_counting_enabled() {
            assert_eq!(saturation_count(), 2);
        } else {
            assert_eq!(saturation_count(), 0);
        }
        reset_saturation_count();
        assert_eq!(saturation_count(), 0);
    }
}
