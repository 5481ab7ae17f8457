//! Benchmark harness support for the HardBound evaluation.
//!
//! The actual experiment logic lives in `hardbound-report`; this crate's
//! `benches/` directory exposes one `cargo bench` target per paper
//! artefact:
//!
//! | target | regenerates |
//! |---|---|
//! | `fig5_runtime_overhead` | Figure 5 (runtime overhead, stacked components) |
//! | `fig6_memory_overhead` | Figure 6 (extra distinct pages touched) |
//! | `fig7_comparison` | Figure 7 (software schemes vs HardBound) |
//! | `correctness_suite` | §5.2 (288-pair spatial-violation corpus) |
//! | `ablation_check_uop` | §5.4 (bounds check costs one µop) |
//! | `ablation_tag_cache` | tag-cache capacity sensitivity |
//! | `simulator_throughput` | criterion wall-clock benchmarks of the simulator itself |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hardbound_workloads::Scale;

/// Parses an `HB_SCALE` value: `smoke` or `full`, in any case, with
/// surrounding whitespace ignored.
///
/// # Errors
///
/// Any other value is rejected with a diagnostic naming `HB_SCALE` and
/// quoting the value — a typo must not silently run at full scale.
pub fn parse_scale(value: &str) -> Result<Scale, String> {
    match value.trim().to_ascii_lowercase().as_str() {
        "smoke" => Ok(Scale::Smoke),
        "full" => Ok(Scale::Full),
        _ => Err(format!("HB_SCALE must be `smoke` or `full`, got `{value}`")),
    }
}

/// Scale selection for bench targets: `HB_SCALE=smoke` uses tiny inputs
/// (useful in CI); unset, empty or `full` runs the full evaluation inputs.
///
/// # Panics
///
/// Panics with [`parse_scale`]'s diagnostic on any other value.
#[must_use]
pub fn scale_from_env() -> Scale {
    match std::env::var("HB_SCALE") {
        Ok(v) if !v.trim().is_empty() => parse_scale(&v).unwrap_or_else(|e| panic!("{e}")),
        _ => Scale::Full,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing_is_strict_and_case_insensitive() {
        for smoke in ["smoke", "Smoke", "SMOKE", " smoke "] {
            assert_eq!(parse_scale(smoke), Ok(Scale::Smoke), "`{smoke}`");
        }
        for full in ["full", "Full", "FULL"] {
            assert_eq!(parse_scale(full), Ok(Scale::Full), "`{full}`");
        }
        for bad in ["smok", "small", "1", "", "fast"] {
            let err = parse_scale(bad).expect_err(bad);
            assert!(err.contains("HB_SCALE"), "{err}");
            assert!(err.contains(&format!("`{bad}`")), "{err}");
        }
    }
}
