//! The abstract-interpretation range prover.
//!
//! This subsystem proves, per pipeline shape, that every intermediate of the
//! quantized attention datapath fits its container and that saturation is
//! unreachable before the final accumulation steps — the invariant the SIMD
//! bit-identity argument and the scalar pipeline's accuracy story both rest
//! on. See [`pipeline`] for the op-graph, the obligations and the grid sweep,
//! [`interval`] for the abstract domain, [`certificate`] for the committed
//! proof artifact, and [`witness`] for the concrete-execution validation of
//! rejected shapes.

pub mod certificate;
pub mod interval;
pub mod pipeline;
pub mod witness;

use pipeline::{cross_check, deployed_gates, prove_sized, verify_gates, Shape, REQUIRED_GATES};

/// Self-test for the prover: seeded broken gate tables must be caught with a
/// named counterexample shape, the intact table must verify, the grid sweep
/// must be hole-free, and every seeded rejected shape must be reproduced by a
/// concrete saturation witness. Returns human-readable failures (empty means
/// the prover's own alarm wiring works).
pub fn selftest() -> Vec<String> {
    let mut failures = Vec::new();

    // The deployed gate table, unmodified, must verify.
    let clean = verify_gates(deployed_gates);
    if !clean.is_empty() {
        failures.push(format!("intact gate table fails verification: {clean:?}"));
    }

    // Seeded breakage: deleting any single gate must produce a failure that
    // names the gate (and, through it, the counterexample shape).
    for required in &REQUIRED_GATES {
        let broken = verify_gates(|s: &Shape| {
            deployed_gates(s)
                .into_iter()
                .filter(|g| g.name != required.name)
                .collect()
        });
        if !broken.iter().any(|f| f.contains(required.name)) {
            failures.push(format!(
                "deleting gate `{}` was not caught by gate verification",
                required.name
            ));
        }
    }

    // Seeded breakage: loosening a gate limit by one bit must be caught.
    let loosened = verify_gates(|s: &Shape| {
        deployed_gates(s)
            .into_iter()
            .map(|mut g| {
                if g.name == "dot-sums-fit-i32" {
                    g.limit += 1;
                }
                g
            })
            .collect()
    });
    if !loosened.iter().any(|f| f.contains("dot-sums-fit-i32")) {
        failures.push("loosening the dot-sum gate limit was not caught".to_owned());
    }

    // The sweep must be sound over the whole admissible grid.
    let sweep = cross_check(deployed_gates);
    if !sweep.soundness_holes.is_empty() {
        failures.push(format!(
            "gate conjunction admits unproved shapes: {:?}",
            sweep.soundness_holes
        ));
    }
    if sweep.checked != 5040 {
        failures.push(format!(
            "grid sweep covered {} shapes, not 5040",
            sweep.checked
        ));
    }

    // Every seeded rejected case must be rejected by the prover and, where
    // the debug saturation counter exists, reproduced by concrete execution.
    for case in witness::seeded_rejected_cases() {
        let proof = prove_sized(&case.shape, case.n, case.d);
        if proof.scalar_proved() {
            failures.push(format!(
                "seeded rejected case {} (n={}, d={}) unexpectedly proves",
                case.shape, case.n, case.d
            ));
            continue;
        }
        if a3_fixed::saturation_counting_enabled() {
            match witness::find_witness(&case) {
                Some(w) if w.saturation_events > 0 => {}
                other => failures.push(format!(
                    "no concrete saturation witness for seeded case {} (n={}, d={}): {other:?}",
                    case.shape, case.n, case.d
                )),
            }
        }
    }

    failures
}

#[cfg(test)]
mod tests {
    #[test]
    fn range_selftest_is_clean() {
        assert_eq!(super::selftest(), Vec::<String>::new());
    }
}
