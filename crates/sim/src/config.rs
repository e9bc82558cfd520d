//! Accelerator configuration.

use a3_core::approx::ApproxConfig;
use a3_fixed::QFormat;
use serde::{Deserialize, Serialize};

/// Synthesis-time and run-time configuration of one A3 unit.
///
/// The defaults reproduce the instance evaluated in the paper: `n = 320`, `d = 64`,
/// 1 GHz clock, `Q4.4` inputs and a 16-wide greedy-score / post-scoring scan.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct A3Config {
    /// Maximum number of key/value rows held in SRAM (`n`).
    pub n_max: usize,
    /// Embedding dimension (`d`).
    pub d: usize,
    /// Clock frequency in hertz (1 GHz in the paper).
    pub clock_hz: f64,
    /// Input fixed-point format (`Q4.4` in the paper).
    pub input_format: QFormat,
    /// Number of greedy-score registers scanned per cycle (and post-scoring comparisons
    /// per cycle): 16 in the paper.
    pub scan_width: usize,
    /// Approximation configuration used at run time.
    pub approx: ApproxConfig,
}

impl A3Config {
    /// The base (non-approximate) paper configuration.
    pub fn paper_base() -> Self {
        Self {
            n_max: 320,
            d: 64,
            clock_hz: 1e9,
            input_format: a3_fixed::paper_input_format(),
            scan_width: 16,
            approx: ApproxConfig::none(),
        }
    }

    /// The paper configuration with the conservative approximation (`M = n/2`,
    /// `T = 5%`).
    pub fn paper_conservative() -> Self {
        Self {
            approx: ApproxConfig::conservative(),
            ..Self::paper_base()
        }
    }

    /// The paper configuration with the aggressive approximation (`M = n/8`,
    /// `T = 10%`).
    pub fn paper_aggressive() -> Self {
        Self {
            approx: ApproxConfig::aggressive(),
            ..Self::paper_base()
        }
    }

    /// Replaces the approximation configuration.
    pub fn with_approx(mut self, approx: ApproxConfig) -> Self {
        self.approx = approx;
        self
    }

    /// Clock period in seconds.
    pub fn clock_period_s(&self) -> f64 {
        1.0 / self.clock_hz
    }

    /// True when this configuration uses any approximation stage.
    pub fn is_approximate(&self) -> bool {
        !self.approx.is_exact()
    }

    /// Validates that a problem of `n` rows and dimension `d` fits this instance.
    ///
    /// # Panics
    ///
    /// Panics if `n > n_max` or `d != self.d` — the paper's design assumes zero-padding
    /// to the synthesized `d` and spilling to DRAM for larger `n`, neither of which this
    /// model simulates.
    pub fn assert_fits(&self, n: usize, d: usize) {
        assert!(
            n <= self.n_max,
            "problem has n = {n} rows but the accelerator was synthesized for n_max = {}",
            self.n_max
        );
        assert!(
            d <= self.d,
            "problem dimension {d} exceeds the synthesized d = {}",
            self.d
        );
    }
}

impl Default for A3Config {
    fn default() -> Self {
        Self::paper_base()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = A3Config::paper_base();
        assert_eq!(c.n_max, 320);
        assert_eq!(c.d, 64);
        assert_eq!(c.clock_hz, 1e9);
        assert_eq!(c.scan_width, 16);
        assert!(!c.is_approximate());
        assert!(A3Config::paper_conservative().is_approximate());
        assert!(A3Config::paper_aggressive().is_approximate());
    }

    #[test]
    fn cycle_conversion() {
        let c = A3Config::paper_base();
        assert!((c.clock_period_s() - 1e-9).abs() < 1e-20);
    }

    #[test]
    fn fits_check() {
        let c = A3Config::paper_base();
        c.assert_fits(320, 64);
        c.assert_fits(20, 64);
    }

    #[test]
    #[should_panic(expected = "n_max")]
    fn too_many_rows_panics() {
        A3Config::paper_base().assert_fits(321, 64);
    }

    #[test]
    #[should_panic(expected = "exceeds the synthesized")]
    fn too_large_dimension_panics() {
        A3Config::paper_base().assert_fits(100, 128);
    }
}
