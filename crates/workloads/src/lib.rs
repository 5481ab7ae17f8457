//! The Olden benchmark ports used by the HardBound evaluation (paper §5.1:
//! "We chose the Olden benchmarks for our performance evaluation because
//! they are pointer intensive and have been used to evaluate important
//! prior works").
//!
//! Each [`Workload`] carries Cb source (see [`sources`] for the individual
//! kernels) parameterized at one of two [`Scale`]s: `Smoke` for fast unit
//! tests and `Full` for the figure-regenerating benchmark harness. Every
//! program prints one deterministic checksum, so runs can be validated
//! across instrumentation modes and pointer encodings.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod sources;

/// Input scale for a workload.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Tiny inputs for unit tests (each run well under a second).
    Smoke,
    /// Evaluation inputs for the Figure 5/6/7 harness.
    #[default]
    Full,
}

impl std::str::FromStr for Scale {
    type Err = String;

    /// Parses `smoke` or `full` in any case, with surrounding whitespace
    /// ignored. Anything else, the empty string included, is an error
    /// quoting the value.
    fn from_str(value: &str) -> Result<Scale, String> {
        match value.trim().to_ascii_lowercase().as_str() {
            "smoke" => Ok(Scale::Smoke),
            "full" => Ok(Scale::Full),
            _ => Err(format!("a scale is `smoke` or `full`, got `{value}`")),
        }
    }
}

/// A benchmark program ready to compile.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Benchmark name as used in the paper's figures.
    pub name: &'static str,
    /// Cb source, without the runtime library (`hardbound_runtime::compile`
    /// compiles it against the library).
    pub source: String,
}

/// All nine Olden ports, in the paper's figure order.
#[must_use]
pub fn all(scale: Scale) -> Vec<Workload> {
    use Scale::{Full, Smoke};
    let w = |name, source| Workload { name, source };
    match scale {
        Smoke => vec![
            w("bh", sources::bh(24, 1)),
            w("bisort", sources::bisort(63)),
            w("em3d", sources::em3d(24, 3, 2)),
            w("health", sources::health(3, 8)),
            w("mst", sources::mst(24)),
            w("perimeter", sources::perimeter(4)),
            w("power", sources::power(2, 2, 2, 2)),
            w("treeadd", sources::treeadd(6, 2)),
            w("tsp", sources::tsp(24)),
        ],
        Full => vec![
            w("bh", sources::bh(160, 2)),
            w("bisort", sources::bisort(4095)),
            w("em3d", sources::em3d(300, 16, 4)),
            w("health", sources::health(6, 50)),
            w("mst", sources::mst(320)),
            w("perimeter", sources::perimeter(6)),
            w("power", sources::power(4, 8, 8, 4)),
            w("treeadd", sources::treeadd(12, 12)),
            w("tsp", sources::tsp(400)),
        ],
    }
}

/// Looks up one workload by name.
#[must_use]
pub fn by_name(name: &str, scale: Scale) -> Option<Workload> {
    all(scale).into_iter().find(|w| w.name == name)
}

/// The paper's published Figure 7 reference values (relative runtimes),
/// reproduced verbatim so the comparison harness can print them alongside
/// our measurements.
pub mod published {
    /// Benchmark order used by every row table here and in the paper.
    pub const BENCHMARKS: [&str; 9] = [
        "bh",
        "bisort",
        "em3d",
        "health",
        "mst",
        "perimeter",
        "power",
        "treeadd",
        "tsp",
    ];

    /// JK/RL/DA published relative runtimes (Fig. 7 col. 1).
    pub const JK_RL_DA: [f64; 9] = [1.00, 1.00, 1.68, 1.44, 1.26, 0.99, 1.00, 0.98, 1.03];

    /// CCured published relative runtimes (Fig. 7 col. 2).
    pub const CCURED: [f64; 9] = [1.44, 1.09, 1.45, 1.07, 1.87, 1.10, 1.29, 1.15, 1.06];

    /// CCured µop inflation under the paper's simulator (Fig. 7 col. 6).
    pub const CCURED_SIM_UOPS: [f64; 9] = [1.74, 1.22, 1.64, 1.23, 1.39, 1.58, 1.80, 1.16, 1.09];

    /// CCured runtime under the paper's simulator (Fig. 7 col. 7).
    pub const CCURED_SIM_RUNTIME: [f64; 9] = [1.72, 1.20, 1.31, 1.11, 1.06, 1.51, 1.79, 1.09, 1.07];

    /// HardBound external 4-bit encoding (Fig. 7 col. 8).
    pub const HB_EXTERN4: [f64; 9] = [1.22, 1.01, 1.18, 1.17, 1.16, 1.02, 1.05, 1.03, 1.02];

    /// HardBound internal 4-bit encoding (Fig. 7 col. 9).
    pub const HB_INTERN4: [f64; 9] = [1.22, 1.02, 1.04, 1.20, 1.07, 1.01, 1.05, 1.03, 1.01];

    /// HardBound internal 11-bit encoding (Fig. 7 col. 10).
    pub const HB_INTERN11: [f64; 9] = [1.14, 1.02, 1.02, 1.15, 1.05, 1.01, 1.05, 1.03, 1.01];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nine_workloads_at_each_scale() {
        for scale in [Scale::Smoke, Scale::Full] {
            let ws = all(scale);
            assert_eq!(ws.len(), 9);
            let names: Vec<_> = ws.iter().map(|w| w.name).collect();
            assert_eq!(names, published::BENCHMARKS.to_vec());
        }
    }

    #[test]
    fn scale_parsing_is_strict_and_case_insensitive() {
        for smoke in ["smoke", "Smoke", "SMOKE", " smoke "] {
            assert_eq!(smoke.parse(), Ok(Scale::Smoke), "`{smoke}`");
        }
        for full in ["full", "Full", "FULL"] {
            assert_eq!(full.parse(), Ok(Scale::Full), "`{full}`");
        }
        for bad in ["smok", "small", "1", "", "fast"] {
            let err = bad.parse::<Scale>().expect_err(bad);
            assert!(err.contains(&format!("`{bad}`")), "{err}");
        }
    }

    #[test]
    fn by_name_finds_each() {
        for name in published::BENCHMARKS {
            assert!(by_name(name, Scale::Smoke).is_some(), "{name}");
        }
        assert!(by_name("nope", Scale::Smoke).is_none());
    }

    #[test]
    fn sources_are_fully_substituted() {
        for w in all(Scale::Full) {
            assert!(
                !w.source.contains('@'),
                "{} has unsubstituted params",
                w.name
            );
            assert!(
                w.source.contains("print_int"),
                "{} must print a checksum",
                w.name
            );
        }
    }

    #[test]
    fn published_tables_are_consistent() {
        assert_eq!(published::JK_RL_DA.len(), published::BENCHMARKS.len());
        // Published averages (paper Fig. 7 bottom row: 1.13 and 1.05; the
        // paper's "Average" row is slightly below the arithmetic mean of
        // the printed cells, so allow loose tolerance).
        let avg = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((avg(&published::JK_RL_DA) - 1.13).abs() < 0.04);
        assert!((avg(&published::HB_INTERN11) - 1.05).abs() < 0.04);
    }
}
