//! Every `HB_*` environment variable, read once, in one place.
//!
//! `VARS` lists every name the workspace understands with its value
//! grammar and a one-line doc; the README's table is this table. [`load`]
//! reads the environment once, checks each set `HB_*` variable against its
//! row, warns about names not in the table, and installs the `HB_TRACE`
//! sink. No other crate reads the environment: the lower layers take their
//! values through setters (`CorpusService::set_profiling`, worker counts) filled
//! from here. An unset, empty or whitespace-only value means "not set";
//! any other value must fit its grammar, or loading fails with a
//! diagnostic that names the variable and quotes the value.

use std::num::NonZeroUsize;
use std::path::Path;
use std::sync::OnceLock;

use hardbound_telemetry::trace;
use hardbound_workloads::Scale;

/// The shape of the values one variable accepts, and the [`Settings`]
/// field a value of that shape is stored in.
#[derive(Clone, Copy)]
pub(crate) enum Grammar {
    /// `on`/`off`/`1`/`0`/`true`/`false`, in any case.
    Flag(fn(&mut Settings) -> &mut bool),
    /// A whole number no smaller than the given minimum.
    Count(usize, fn(&mut Settings) -> &mut Option<usize>),
    /// A positive, finite number.
    Ratio(fn(&mut Settings) -> &mut Option<f64>),
    /// A file path with no control characters (a stray newline or tab
    /// is a quoting accident, not a file name).
    Path(fn(&mut Settings) -> &mut Option<String>),
    /// One or more comma-separated `host:port` addresses.
    AddrList(fn(&mut Settings) -> &mut Option<Vec<String>>),
    /// `smoke` or `full`, in any case.
    Scale(fn(&mut Settings) -> &mut Scale),
}

impl Grammar {
    /// The accepted spellings, as the diagnostics and the README print them.
    #[must_use]
    pub(crate) fn spelling(self) -> String {
        match self {
            Grammar::Flag(_) => "one of on/off/1/0/true/false".to_owned(),
            Grammar::Count(0, _) => "a whole number".to_owned(),
            Grammar::Count(min, _) => format!("a whole number ≥ {min}"),
            Grammar::Ratio(_) => "a positive number".to_owned(),
            Grammar::Path(_) => "a path without control characters".to_owned(),
            Grammar::AddrList(_) => "a comma-separated host:port list".to_owned(),
            Grammar::Scale(_) => "`smoke` or `full`".to_owned(),
        }
    }

    /// Parses a trimmed, non-empty value into its field of `s`; `None`,
    /// with `s` unchanged, when it does not fit.
    fn set(self, s: &mut Settings, v: &str) -> Option<()> {
        match self {
            Grammar::Flag(field) => {
                *field(s) = match v.to_ascii_lowercase().as_str() {
                    "on" | "1" | "true" => true,
                    "off" | "0" | "false" => false,
                    _ => return None,
                };
            }
            Grammar::Count(min, field) => *field(s) = Some(v.parse().ok().filter(|&n| n >= min)?),
            Grammar::Ratio(field) => {
                let r = v.parse().ok().filter(|r: &f64| r.is_finite() && *r > 0.0)?;
                *field(s) = Some(r);
            }
            Grammar::Path(field) => {
                let path = (!v.contains(char::is_control)).then(|| v.to_owned())?;
                *field(s) = Some(path);
            }
            Grammar::AddrList(field) => {
                let addrs = v
                    .split(',')
                    .map(|a| {
                        let (host, port) = a.trim().rsplit_once(':')?;
                        (!host.is_empty() && port.parse::<u16>().is_ok())
                            .then(|| a.trim().to_owned())
                    })
                    .collect::<Option<_>>()?;
                *field(s) = Some(addrs);
            }
            Grammar::Scale(field) => *field(s) = v.parse().ok()?,
        }
        Some(())
    }
}

/// One row of the settings table: a variable, its grammar (which names
/// the [`Settings`] field it fills), what it does.
pub(crate) type Var = (&'static str, Grammar, &'static str);

/// Every `HB_*` variable the workspace reads.
#[rustfmt::skip]
pub(crate) const VARS: [Var; 11] = [
    ("HB_JOBS", Grammar::Count(1, |s| &mut s.jobs), "Worker threads of the batch drivers and the corpus service. Unset: all cores; `1` runs serially."),
    ("HB_PROF", Grammar::Flag(|s| &mut s.prof), "Arm the interpreter's per-basic-block hot-spot profiler on the corpus service (`hbserve` answers `PROFILE` with it). Unset: off."),
    ("HB_FLIGHT", Grammar::Count(0, |s| &mut s.flight), "Arm an `N`-event memory flight recorder on every machine; a trap's violation report prints its tail. Unset or `0`: off."),
    ("HB_TRACE", Grammar::Path(|s| &mut s.trace), "Append JSONL spans (compile, batch, remote round trips and the servers' own spans) to this file. Unset: tracing off."),
    ("HB_STORE_PATH", Grammar::Path(|s| &mut s.store_path), "Persist the result store in this log so warm starts survive the process (the default of `hbserve --store`). Unset: in memory."),
    ("HB_SERVE_ADDR", Grammar::AddrList(|s| &mut s.serve_addrs), "Offload cell grids to these `hbserve` shards by consistent hash, with retry and re-route; an unreachable cluster fails loudly. Unset: run locally."),
    ("HB_SCALE", Grammar::Scale(|s| &mut s.scale), "Workload inputs of the bench targets; `smoke` keeps CI runs short. Unset: `full`."),
    ("HB_SERVICE_GATE", Grammar::Ratio(|s| &mut s.service_gate), "`simulator_throughput`: a warm grid re-run must replay from the result store this much faster than the cold pass (CI: `2`)."),
    ("HB_PERSIST_GATE", Grammar::Ratio(|s| &mut s.persist_gate), "`simulator_throughput`: a grid re-run on a service reopened from its store log must beat the cold pass by this much (CI: `2`)."),
    ("HB_TRACE_GATE", Grammar::Ratio(|s| &mut s.trace_gate), "`simulator_throughput`: a fleet of cold corpus-service batches writing a trace must stay within this factor of the untraced fleet (CI: `1.1`)."),
    ("HB_PROF_GATE", Grammar::Ratio(|s| &mut s.prof_gate), "`simulator_throughput`: a fleet of `Machine::run`s with the profiler armed must stay within this factor of the unprofiled fleet (CI: `1.1`)."),
];

/// The resolved settings: each field is its variable's value, or the
/// default when the variable is not set.
#[derive(Debug, Default)]
pub struct Settings {
    /// `HB_JOBS` (see [`Settings::workers`]).
    pub jobs: Option<usize>,
    /// `HB_PROF`: whether the corpus service profiles its runs.
    pub prof: bool,
    /// `HB_FLIGHT`: the flight-recorder depth; `None` or `Some(0)` is off.
    pub flight: Option<usize>,
    /// `HB_TRACE`: the span sink.
    pub trace: Option<String>,
    /// `HB_STORE_PATH`: the persistent result-store log.
    pub store_path: Option<String>,
    /// `HB_SERVE_ADDR`: the `hbserve` shard list, in shard order.
    pub serve_addrs: Option<Vec<String>>,
    /// `HB_SCALE`: the bench targets' input scale.
    pub scale: Scale,
    /// `HB_SERVICE_GATE`: the warm result-store replay speedup floor.
    pub service_gate: Option<f64>,
    /// `HB_PERSIST_GATE`: the reopened-store replay speedup floor.
    pub persist_gate: Option<f64>,
    /// `HB_TRACE_GATE`: the traced fleet's slowdown ceiling.
    pub trace_gate: Option<f64>,
    /// `HB_PROF_GATE`: the profiled fleet's slowdown ceiling.
    pub prof_gate: Option<f64>,
    /// One warning per `HB_*` name that is not in `VARS`.
    warnings: Vec<String>,
}

impl Settings {
    /// Resolves settings from `(name, value)` pairs, skipping names
    /// without the `HB_` prefix.
    ///
    /// # Errors
    ///
    /// The diagnostic of the first value that does not fit its grammar.
    pub fn from_vars<I, K, V>(vars: I) -> Result<Settings, String>
    where
        I: IntoIterator<Item = (K, V)>,
        K: AsRef<str>,
        V: AsRef<str>,
    {
        let mut s = Settings::default();
        for (name, raw) in vars {
            let (name, raw) = (name.as_ref(), raw.as_ref());
            if !name.starts_with("HB_") {
                continue;
            }
            let Some(&(name, grammar, _)) = VARS.iter().find(|v| v.0 == name) else {
                let near = VARS.iter().min_by_key(|v| edit_distance(name, v.0));
                s.warnings.push(format!(
                    "warning: {name} is not a HardBound setting and is ignored (nearest: {})",
                    near.map_or("", |v| v.0)
                ));
                continue;
            };
            if raw.trim().is_empty() {
                continue;
            }
            if grammar.set(&mut s, raw.trim()).is_none() {
                return Err(format!(
                    "{name} must be {}, got `{raw}`",
                    grammar.spelling()
                ));
            }
        }
        Ok(s)
    }

    /// Worker count: `HB_JOBS` if set, else the available parallelism.
    #[must_use]
    pub fn workers(&self) -> usize {
        let cores = || std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        self.jobs.unwrap_or_else(cores)
    }
}

/// Levenshtein distance over chars.
fn edit_distance(a: &str, b: &str) -> usize {
    let b: Vec<char> = b.chars().collect();
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.chars().enumerate() {
        let mut diag = row[0];
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let up = row[j + 1];
            row[j + 1] = (diag + usize::from(ca != cb)).min(up + 1).min(row[j] + 1);
            diag = up;
        }
    }
    row[b.len()]
}

/// Reads the process environment into [`Settings`] on the first call and
/// returns the same result on every later one. The first call prints the
/// unknown-name warnings and installs the `HB_TRACE` sink (one that cannot
/// be opened is a warning, and tracing stays off). Binaries call this
/// first, so a bad value is a usage error before any work starts.
///
/// # Errors
///
/// The diagnostic of the first `HB_*` value that does not fit its grammar.
pub fn load() -> Result<&'static Settings, String> {
    static SETTINGS: OnceLock<Result<Settings, String>> = OnceLock::new();
    let loaded = SETTINGS.get_or_init(|| {
        let vars = std::env::vars_os()
            .filter_map(|(k, v)| Some((k.into_string().ok()?, v.to_string_lossy().into_owned())));
        let s = Settings::from_vars(vars)?;
        for w in &s.warnings {
            eprintln!("{w}");
        }
        if let Some(path) = &s.trace {
            if let Err(e) = trace::install(Path::new(path)) {
                eprintln!("warning: HB_TRACE={path}: {e}; tracing disabled");
            }
        }
        Ok(s)
    });
    loaded.as_ref().map_err(Clone::clone)
}

/// [`load`] for library code, where a bad value has no exit code to map
/// to.
///
/// # Panics
///
/// Panics with [`load`]'s diagnostic.
#[must_use]
pub fn settings() -> &'static Settings {
    load().unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    type Field = fn(&Settings) -> String;

    /// One case per row of [`VARS`]: the field it sets, each valid
    /// spelling with the field it yields, and values it must reject.
    #[allow(clippy::type_complexity)]
    const CASES: [(&str, Field, &[(&str, &str)], &[&str]); 11] = [
        (
            "HB_JOBS",
            |s| format!("{:?}", s.jobs),
            &[("1", "Some(1)"), (" 8 ", "Some(8)")],
            &["0", "abc", "-2", "1.5", "4x"],
        ),
        (
            "HB_PROF",
            |s| format!("{:?}", s.prof),
            &[
                ("1", "true"),
                ("on", "true"),
                ("TRUE", "true"),
                ("0", "false"),
                ("Off", "false"),
                ("false", "false"),
            ],
            &["maybe", "yes", "2", "of"],
        ),
        (
            "HB_FLIGHT",
            |s| format!("{:?}", s.flight),
            &[("4", "Some(4)"), ("0", "Some(0)")],
            &["x", "-1", "4k"],
        ),
        (
            "HB_TRACE",
            |s| format!("{:?}", s.trace),
            &[("/tmp/t.jsonl", "Some(\"/tmp/t.jsonl\")")],
            &["a\nb.jsonl", "t\u{7}"],
        ),
        (
            "HB_STORE_PATH",
            |s| format!("{:?}", s.store_path),
            &[(" store.bin ", "Some(\"store.bin\")")],
            &["store\tbin"],
        ),
        (
            "HB_SERVE_ADDR",
            |s| format!("{:?}", s.serve_addrs),
            &[
                ("127.0.0.1:7878", "Some([\"127.0.0.1:7878\"])"),
                ("a:1, b:2", "Some([\"a:1\", \"b:2\"])"),
                ("[::1]:9", "Some([\"[::1]:9\"])"),
            ],
            &["7878", "a:1,", "host:port", ":80", "a:99999"],
        ),
        (
            "HB_SCALE",
            |s| format!("{:?}", s.scale),
            &[("smoke", "Smoke"), ("FULL", "Full")],
            &["smok", "1"],
        ),
        (
            "HB_SERVICE_GATE",
            |s| format!("{:?}", s.service_gate),
            &[("1.8", "Some(1.8)"), ("2", "Some(2.0)")],
            &["0", "-1", "fast", "inf", "NaN"],
        ),
        (
            "HB_PERSIST_GATE",
            |s| format!("{:?}", s.persist_gate),
            &[("2", "Some(2.0)")],
            &["x"],
        ),
        (
            "HB_TRACE_GATE",
            |s| format!("{:?}", s.trace_gate),
            &[("1.1", "Some(1.1)")],
            &["x"],
        ),
        (
            "HB_PROF_GATE",
            |s| format!("{:?}", s.prof_gate),
            &[("1.1", "Some(1.1)")],
            &["x"],
        ),
    ];

    #[test]
    fn every_variable_follows_its_grammar() {
        let names: Vec<&str> = CASES.iter().map(|c| c.0).collect();
        let table: Vec<&str> = VARS.iter().map(|v| v.0).collect();
        assert_eq!(names, table, "one case per settings row, in table order");
        let unset = Settings::from_vars::<_, &str, &str>([]).expect("no variables");
        for (name, field, valid, invalid) in CASES {
            let default = field(&unset);
            for blank in ["", "  ", "\t \n"] {
                let s = Settings::from_vars([(name, blank)]).expect(name);
                assert_eq!(field(&s), default, "{name}=`{blank}` reads as unset");
            }
            for (raw, want) in valid {
                let s = Settings::from_vars([(name, raw)]).expect(raw);
                assert_eq!(&field(&s), want, "{name}=`{raw}`");
            }
            for raw in invalid {
                let err = Settings::from_vars([(name, raw)]).expect_err(raw);
                assert!(err.contains(name), "{err}");
                assert!(err.contains(&format!("`{raw}`")), "{err}");
            }
        }
    }

    #[test]
    fn unknown_names_warn_with_the_nearest_known_name() {
        let s = Settings::from_vars([("HB_PORF", "1"), ("HB_META_FAST", "0"), ("PATH", "/bin")])
            .expect("unknown names are not errors");
        assert_eq!(s.warnings.len(), 2, "{:?}", s.warnings);
        assert!(s.warnings[0].contains("HB_PORF"), "{:?}", s.warnings);
        assert!(
            s.warnings[0].contains("nearest: HB_PROF"),
            "{:?}",
            s.warnings
        );
        assert!(s.warnings[1].contains("HB_META_FAST"), "{:?}", s.warnings);
        assert!(!s.prof, "a misspelt flag sets nothing");
    }

    #[test]
    fn readme_table_matches_the_settings_table() {
        let readme = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"));
        let rows: Vec<&str> = readme.lines().filter(|l| l.starts_with("| `HB_")).collect();
        let want: Vec<String> = VARS
            .iter()
            .map(|&(name, grammar, doc)| format!("| `{name}` | {} | {doc} |", grammar.spelling()))
            .collect();
        assert_eq!(rows, want, "README.md's environment table");
    }
}
