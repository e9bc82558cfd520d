//! Helpers shared by `a3-core`'s integration tests: the backend line-up,
//! seeded memories and the output hash the golden suites pin.
//!
//! Every test binary that declares `mod common;` compiles the whole module and
//! uses part of it, so the unused rest is allowed here rather than in each
//! binary.
#![allow(dead_code)]

use a3_core::approx::ApproxConfig;
use a3_core::attention::AttentionResult;
use a3_core::backend::{
    ApproximateBackend, ComputeBackend, ExactBackend, QuantizedBackend, SimdBackend,
};
use a3_core::Matrix;

/// The full backend line-up served through the unified `ComputeBackend`
/// trait, including the forced-scalar variants so every contract is covered
/// with and without the vector kernels.
pub fn all_backends() -> Vec<Box<dyn ComputeBackend>> {
    vec![
        Box::new(ExactBackend),
        Box::new(SimdBackend::new()),
        Box::new(SimdBackend::scalar()),
        Box::new(ApproximateBackend::new(ApproxConfig::none())),
        Box::new(ApproximateBackend::conservative()),
        Box::new(ApproximateBackend::aggressive()),
        Box::new(QuantizedBackend::paper()),
        Box::new(QuantizedBackend::paper_scalar()),
    ]
}

/// `rows` seeded rows of width `d`, values in `[-2, 2)`.
pub fn seeded_rows(rows: usize, d: usize, seed: u64) -> Matrix {
    Matrix::from_flat(
        (0..rows * d)
            .map(|i| {
                let h = (i as u64 ^ seed)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(seed)
                    .wrapping_mul(0xD6E8_FEB8_6659_FD93);
                (h >> 40) as f32 / (1u64 << 22) as f32 - 2.0
            })
            .collect(),
        rows,
        d,
    )
    .unwrap()
}

/// Deterministic splitmix64 stream mapped to `f32` in `[-2, 2)`.
pub struct Stream(pub u64);

impl Stream {
    pub fn next_f32(&mut self) -> f32 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        ((z >> 40) as f32 / (1u64 << 24) as f32) * 4.0 - 2.0
    }

    /// `d` draws, each multiplied by `scale` (exact for a scale of 1).
    pub fn vector(&mut self, d: usize, scale: f32) -> Vec<f32> {
        (0..d).map(|_| self.next_f32() * scale).collect()
    }

    /// `n` rows of [`Stream::vector`].
    pub fn matrix(&mut self, n: usize, d: usize, scale: f32) -> Matrix {
        Matrix::from_rows((0..n).map(|_| self.vector(d, scale)).collect()).unwrap()
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &byte| {
        (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME)
    })
}

/// FNV-1a over the bit patterns of every result's scores, weights and output.
pub fn hash_results(results: &[AttentionResult]) -> u64 {
    results
        .iter()
        .flat_map(|r| r.scores.iter().chain(&r.weights).chain(&r.output))
        .fold(FNV_OFFSET, |h, x| fnv1a(h, &x.to_bits().to_le_bytes()))
}

/// FNV-1a over the UTF-8 bytes of `text`.
pub fn hash_text(text: &str) -> u64 {
    fnv1a(FNV_OFFSET, text.as_bytes())
}
