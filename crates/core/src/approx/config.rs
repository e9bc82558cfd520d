//! Approximation configuration: the `M` and `T` knobs of Section IV.

use serde::{Deserialize, Serialize};

/// How many greedy candidate-selection iterations to run (`M` in the paper).
///
/// The paper's accuracy study (Figure 11) varies `M` as a fraction of `n`, so the
/// fractional form is the most common; an absolute count is also supported for
/// hardware-sizing studies.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MSpec {
    /// Candidate selection disabled: all `n` rows are candidates.
    Disabled,
    /// A fixed number of iterations.
    Absolute(usize),
    /// A fraction of the number of rows: `M = ceil(fraction * n)`, at least 1.
    FractionOfN(f64),
}

impl MSpec {
    /// Resolves the specification to a concrete iteration count for an `n`-row memory.
    /// Returns `None` when candidate selection is disabled.
    pub fn resolve(&self, n: usize) -> Option<usize> {
        match *self {
            MSpec::Disabled => None,
            MSpec::Absolute(m) => Some(m.max(1)),
            MSpec::FractionOfN(frac) => {
                let m = (frac * n as f64).ceil() as usize;
                Some(m.max(1))
            }
        }
    }
}

/// Post-scoring selection threshold (`T` in the paper, in percent).
///
/// A row is kept only if its post-softmax weight would be at least `T`% of the maximum
/// weight, i.e. its raw score is within `t = ln(100 / T)` of the maximum score.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ThresholdSpec {
    /// Post-scoring selection disabled: all candidates are kept.
    Disabled,
    /// Threshold in percent of the maximum post-softmax weight (e.g. `5.0` for T = 5%).
    Percent(f64),
}

impl ThresholdSpec {
    /// The threshold in percent, if enabled.
    pub fn percent(&self) -> Option<f64> {
        match *self {
            ThresholdSpec::Disabled => None,
            ThresholdSpec::Percent(t) => Some(t),
        }
    }
}

/// Full approximation configuration combining candidate selection and post-scoring
/// selection.
///
/// ```
/// use a3_core::approx::ApproxConfig;
/// let cons = ApproxConfig::conservative();
/// assert_eq!(cons.resolve_m(320), Some(160));   // M = n/2
/// assert_eq!(cons.threshold(), Some(5.0));      // T = 5%
/// let aggr = ApproxConfig::aggressive();
/// assert_eq!(aggr.resolve_m(320), Some(40));    // M = n/8
/// assert_eq!(aggr.threshold(), Some(10.0));     // T = 10%
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ApproxConfig {
    /// Candidate-selection iteration budget.
    pub m: MSpec,
    /// Post-scoring selection threshold.
    pub t: ThresholdSpec,
}

impl ApproxConfig {
    /// No approximation at all: this reduces the approximate pipeline to the exact base
    /// A3 computation.
    pub fn none() -> Self {
        Self {
            m: MSpec::Disabled,
            t: ThresholdSpec::Disabled,
        }
    }

    /// The paper's *conservative* configuration: `M = n/2`, `T = 5%` (Section VI-B,
    /// Figure 13, ~1% accuracy loss).
    pub fn conservative() -> Self {
        Self {
            m: MSpec::FractionOfN(0.5),
            t: ThresholdSpec::Percent(5.0),
        }
    }

    /// The paper's *aggressive* configuration: `M = n/8`, `T = 10%` (Section VI-B,
    /// Figure 13, ~8% accuracy loss).
    pub fn aggressive() -> Self {
        Self {
            m: MSpec::FractionOfN(0.125),
            t: ThresholdSpec::Percent(10.0),
        }
    }

    /// Candidate selection only, with `M` expressed as a fraction of `n` (used for the
    /// Figure 11 sweep).
    pub fn candidate_only(fraction_of_n: f64) -> Self {
        Self {
            m: MSpec::FractionOfN(fraction_of_n),
            t: ThresholdSpec::Disabled,
        }
    }

    /// Post-scoring selection only, with threshold `T` in percent (used for the
    /// Figure 12 sweep).
    pub fn post_scoring_only(threshold_percent: f64) -> Self {
        Self {
            m: MSpec::Disabled,
            t: ThresholdSpec::Percent(threshold_percent),
        }
    }

    /// Builds a custom configuration from a fraction-of-n `M` and a percent `T`.
    pub fn with_m_and_t(fraction_of_n: f64, threshold_percent: f64) -> Self {
        Self {
            m: MSpec::FractionOfN(fraction_of_n),
            t: ThresholdSpec::Percent(threshold_percent),
        }
    }

    /// Resolves the candidate-selection iteration count for an `n`-row memory, or `None`
    /// when candidate selection is disabled.
    pub fn resolve_m(&self, n: usize) -> Option<usize> {
        self.m.resolve(n)
    }

    /// The post-scoring threshold `T` in percent, or `None` when disabled.
    pub fn threshold(&self) -> Option<f64> {
        self.t.percent()
    }

    /// True when neither approximation stage is enabled.
    pub fn is_exact(&self) -> bool {
        matches!(self.m, MSpec::Disabled) && matches!(self.t, ThresholdSpec::Disabled)
    }
}

impl Default for ApproxConfig {
    /// The default configuration is the paper's conservative one.
    fn default() -> Self {
        Self::conservative()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mspec_resolution() {
        assert_eq!(MSpec::Disabled.resolve(100), None);
        assert_eq!(MSpec::Absolute(17).resolve(100), Some(17));
        assert_eq!(MSpec::Absolute(0).resolve(100), Some(1));
        assert_eq!(MSpec::FractionOfN(0.5).resolve(320), Some(160));
        assert_eq!(MSpec::FractionOfN(0.125).resolve(20), Some(3)); // ceil(2.5)
        assert_eq!(MSpec::FractionOfN(0.001).resolve(10), Some(1));
    }

    #[test]
    fn paper_configurations() {
        assert_eq!(ApproxConfig::conservative().resolve_m(320), Some(160));
        assert_eq!(ApproxConfig::aggressive().resolve_m(320), Some(40));
        assert_eq!(ApproxConfig::conservative().threshold(), Some(5.0));
        assert_eq!(ApproxConfig::aggressive().threshold(), Some(10.0));
        assert!(ApproxConfig::none().is_exact());
        assert!(!ApproxConfig::conservative().is_exact());
    }

    #[test]
    fn partial_configurations() {
        let c = ApproxConfig::candidate_only(0.25);
        assert_eq!(c.resolve_m(100), Some(25));
        assert_eq!(c.threshold(), None);
        let p = ApproxConfig::post_scoring_only(2.5);
        assert_eq!(p.resolve_m(100), None);
        assert_eq!(p.threshold(), Some(2.5));
    }

    #[test]
    fn default_is_conservative() {
        assert_eq!(ApproxConfig::default(), ApproxConfig::conservative());
    }
}
