//! The spatial-violation test corpus of paper §5.2.
//!
//! The paper validates HardBound against "a suite of 291 spatial memory
//! violations [Kratkiewicz & Lippmann]: ... various combinations of: reads
//! and writes; upper and lower bounds; stack, heap, and global data
//! segments; and various addressing schemes and aliasing situations. Each
//! test case has two versions: one with the violation and one without, to
//! allow testing for false positives."
//!
//! [`corpus`] generates an equivalent suite (288 pairs) as the cartesian
//! product of exactly those dimensions, and [`run_corpus`] executes every
//! pair under a chosen protection scheme, reporting detections, misses and
//! false positives.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use hardbound_compiler::Mode;
use hardbound_core::{PointerEncoding, RunOutcome, Trap};
use hardbound_exec::batch;
use hardbound_runtime::{compile, machine_config, run_jobs, settings, SimJob};

/// Which data segment holds the overflowed object.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Region {
    /// `malloc`ed object.
    Heap,
    /// Stack (local) array.
    Stack,
    /// Global array.
    Global,
}

/// Read or write access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Access {
    /// Out-of-bounds load.
    Read,
    /// Out-of-bounds store.
    Write,
}

/// Which bound the access violates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Boundary {
    /// Past the end of the object.
    Upper,
    /// Before the beginning of the object.
    Lower,
}

/// Element width of the accessed array.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Width {
    /// `char` elements.
    Byte,
    /// `int` elements.
    Word,
}

/// How the out-of-bounds address is formed (the paper's "various
/// addressing schemes and aliasing situations").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Addressing {
    /// `a[K]` with a constant index.
    DirectIndex,
    /// `a[i]` with the index in a variable.
    VariableIndex,
    /// `*(a + K)` via explicit pointer arithmetic.
    PointerArith,
    /// The pointer is passed to another function which performs the
    /// access (inter-procedural aliasing).
    ViaFunction,
    /// The pointer is stored to memory, reloaded, and then dereferenced
    /// (metadata must survive the memory round trip).
    Reloaded,
    /// The object is an array embedded in a struct — the sub-object case
    /// object-table schemes cannot protect (§2.2).
    SubObject,
}

/// How far past the boundary the access lands.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Magnitude {
    /// One element past (the classic off-by-one).
    One,
    /// 64 elements past (a "large" overflow that hops red zones).
    Far,
}

impl Magnitude {
    fn elements(self) -> i32 {
        match self {
            Magnitude::One => 1,
            Magnitude::Far => 64,
        }
    }
}

/// One violation/benign program pair.
#[derive(Clone, Debug)]
pub struct TestCase {
    /// Stable identifier, e.g. `heap-write-upper-word-ptrarith-far`.
    pub id: String,
    /// Region dimension.
    pub region: Region,
    /// Access dimension.
    pub access: Access,
    /// Boundary dimension.
    pub boundary: Boundary,
    /// Width dimension.
    pub width: Width,
    /// Addressing dimension.
    pub addressing: Addressing,
    /// Magnitude dimension.
    pub magnitude: Magnitude,
    /// Program containing the violation.
    pub bad_source: String,
    /// Twin program with the access in bounds.
    pub ok_source: String,
}

const ELEMS: i32 = 8;

fn build_source(
    region: Region,
    access: Access,
    width: Width,
    addressing: Addressing,
    index: i32,
) -> String {
    let ty = match width {
        Width::Byte => "char",
        Width::Word => "int",
    };
    let mut s = String::new();

    // Object declaration (and helper) prologue.
    match addressing {
        Addressing::SubObject => {
            s.push_str(&format!(
                "struct box {{ {ty} arr[{ELEMS}]; int sentinel; }};\n"
            ));
            if region == Region::Global {
                s.push_str("struct box g_box;\n");
            }
        }
        _ => {
            if region == Region::Global {
                s.push_str(&format!("{ty} g_arr[{ELEMS}];\n"));
            }
        }
    }
    if addressing == Addressing::Reloaded {
        s.push_str(&format!("{ty} *g_slot;\n"));
    }
    if addressing == Addressing::ViaFunction {
        let body = match access {
            Access::Read => "return p[i];".to_string(),
            Access::Write => "p[i] = 1; return 0;".to_string(),
        };
        s.push_str(&format!("int helper({ty} *p, int i) {{ {body} }}\n"));
    }

    s.push_str("int main() {\n");

    // Materialize the array pointer `a`.
    match (region, addressing) {
        (Region::Heap, Addressing::SubObject) => {
            s.push_str("    struct box *b = (struct box*)malloc(sizeof(struct box));\n");
            s.push_str(&format!("    {ty} *a = b->arr;\n"));
        }
        (Region::Stack, Addressing::SubObject) => {
            s.push_str("    struct box b;\n");
            s.push_str("    b.sentinel = 7;\n");
            s.push_str(&format!("    {ty} *a = b.arr;\n"));
        }
        (Region::Global, Addressing::SubObject) => {
            s.push_str(&format!("    {ty} *a = g_box.arr;\n"));
        }
        (Region::Heap, _) => {
            s.push_str(&format!(
                "    {ty} *a = ({ty}*)malloc({ELEMS} * sizeof({ty}));\n"
            ));
        }
        (Region::Stack, _) => {
            s.push_str(&format!("    {ty} local[{ELEMS}];\n"));
            s.push_str(&format!("    {ty} *a = local;\n"));
        }
        (Region::Global, _) => {
            s.push_str(&format!("    {ty} *a = g_arr;\n"));
        }
    }

    // Initialize in-bounds contents so benign reads are well-defined.
    s.push_str(&format!(
        "    for (int k = 0; k < {ELEMS}; k = k + 1) a[k] = 1;\n"
    ));

    // The access expression at `index`.
    let stmt = match addressing {
        Addressing::DirectIndex | Addressing::SubObject => match access {
            Access::Read => format!("    int v = a[{index}];\n"),
            Access::Write => format!("    a[{index}] = 2;\n"),
        },
        Addressing::VariableIndex => {
            let pre = format!("    int i = {index};\n");
            match access {
                Access::Read => format!("{pre}    int v = a[i];\n"),
                Access::Write => format!("{pre}    a[i] = 2;\n"),
            }
        }
        Addressing::PointerArith => {
            let pre = format!("    {ty} *p = a + {index};\n");
            match access {
                Access::Read => format!("{pre}    int v = *p;\n"),
                Access::Write => format!("{pre}    *p = 2;\n"),
            }
        }
        Addressing::ViaFunction => match access {
            Access::Read => format!("    int v = helper(a, {index});\n"),
            Access::Write => format!("    helper(a, {index});\n    int v = 0;\n"),
        },
        Addressing::Reloaded => {
            let pre = "    g_slot = a;\n";
            match access {
                Access::Read => format!("{pre}    int v = g_slot[{index}];\n"),
                Access::Write => format!("{pre}    g_slot[{index}] = 2;\n"),
            }
        }
    };
    s.push_str(&stmt);
    if matches!(access, Access::Write) && !matches!(addressing, Addressing::ViaFunction) {
        s.push_str("    int v = 0;\n");
    }
    s.push_str("    print_int(v + 1);\n");
    s.push_str("    return 0;\n}\n");
    s
}

/// Generates the full corpus: 3 regions × 2 accesses × 2 boundaries × 2
/// widths × 6 addressing schemes × 2 magnitudes = 288 pairs (the paper ran
/// 286 of its 291).
#[must_use]
pub fn corpus() -> Vec<TestCase> {
    let mut cases = Vec::new();
    for region in [Region::Heap, Region::Stack, Region::Global] {
        for access in [Access::Read, Access::Write] {
            for boundary in [Boundary::Upper, Boundary::Lower] {
                for width in [Width::Byte, Width::Word] {
                    for addressing in [
                        Addressing::DirectIndex,
                        Addressing::VariableIndex,
                        Addressing::PointerArith,
                        Addressing::ViaFunction,
                        Addressing::Reloaded,
                        Addressing::SubObject,
                    ] {
                        for magnitude in [Magnitude::One, Magnitude::Far] {
                            let bad_index = match boundary {
                                Boundary::Upper => ELEMS - 1 + magnitude.elements(),
                                Boundary::Lower => -magnitude.elements(),
                            };
                            let ok_index = match boundary {
                                Boundary::Upper => ELEMS - 1,
                                Boundary::Lower => 0,
                            };
                            let id = format!(
                                "{region:?}-{access:?}-{boundary:?}-{width:?}-{addressing:?}-{magnitude:?}"
                            )
                            .to_lowercase();
                            cases.push(TestCase {
                                id,
                                region,
                                access,
                                boundary,
                                width,
                                addressing,
                                magnitude,
                                bad_source: build_source(
                                    region, access, width, addressing, bad_index,
                                ),
                                ok_source: build_source(
                                    region, access, width, addressing, ok_index,
                                ),
                            });
                        }
                    }
                }
            }
        }
    }
    cases
}

/// Outcome of running the corpus under one protection scheme.
#[derive(Clone, Debug, Default)]
pub struct CorpusReport {
    /// Pairs executed.
    pub total: usize,
    /// Violating programs that trapped with a spatial-safety violation.
    pub detected: usize,
    /// Violating programs that ran to completion (undetected violations).
    pub missed: Vec<String>,
    /// Benign programs that trapped (false positives).
    pub false_positives: Vec<String>,
    /// Compilation or infrastructure failures (should be empty).
    pub errors: Vec<String>,
}

impl CorpusReport {
    /// `true` when every violation was detected with no false positives.
    #[must_use]
    pub fn is_perfect(&self) -> bool {
        self.detected == self.total
            && self.missed.is_empty()
            && self.false_positives.is_empty()
            && self.errors.is_empty()
    }
}

impl fmt::Display for CorpusReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "pairs run:        {}", self.total)?;
        writeln!(f, "detected:         {}", self.detected)?;
        writeln!(f, "missed:           {}", self.missed.len())?;
        writeln!(f, "false positives:  {}", self.false_positives.len())?;
        write!(f, "errors:           {}", self.errors.len())
    }
}

/// Is this trap an acceptable "detection" for `mode`?
#[must_use]
pub fn is_detection(mode: Mode, trap: &Trap) -> bool {
    match mode {
        Mode::HardBound | Mode::MallocOnly => trap.is_spatial_violation(),
        Mode::SoftBound => matches!(trap, Trap::SoftwareAbort { .. }),
        Mode::ObjectTable => matches!(trap, Trap::ObjectTableViolation { .. }),
        Mode::Baseline => false,
    }
}

/// Outcome of one violation/benign pair under one scheme, as
/// [`run_cases`] judges it. [`CorpusReport::collect`] aggregates them in
/// corpus order.
#[derive(Clone, Debug)]
pub struct CaseResult {
    /// The violating twin trapped with `mode`'s own detection trap.
    pub detected: bool,
    /// Case id, if the violation ran to completion undetected.
    pub missed: Option<String>,
    /// Description, if the benign twin trapped.
    pub false_positive: Option<String>,
    /// Compilation / unexpected-trap failures.
    pub errors: Vec<String>,
}

/// Classifies the outcomes of one violation/benign pair under `mode` into
/// a [`CaseResult`]. An `Err` outcome carries a compile diagnostic, which
/// lands in the error list.
fn judge_pair(
    case: &TestCase,
    mode: Mode,
    bad: Result<&RunOutcome, &str>,
    ok: Result<&RunOutcome, &str>,
) -> CaseResult {
    let mut r = CaseResult {
        detected: false,
        missed: None,
        false_positive: None,
        errors: Vec::new(),
    };
    match bad {
        Ok(out) => match &out.trap {
            Some(t) if is_detection(mode, t) => r.detected = true,
            Some(other) => r
                .errors
                .push(format!("{}: unexpected trap {other:?}", case.id)),
            None => r.missed = Some(case.id.clone()),
        },
        Err(e) => r.errors.push(format!("{}: {e}", case.id)),
    }
    match ok {
        Ok(out) => {
            if let Some(t) = &out.trap {
                r.false_positive = Some(format!("{}: {t}", case.id));
            }
        }
        Err(e) => r.errors.push(format!("{} (ok twin): {e}", case.id)),
    }
    r
}

/// Compiles and executes the cases of the corpus that pass `filter` under
/// `mode`/`encoding`, both twins of every pair, and judges each pair;
/// results come back in corpus order. Compilation fans out over
/// [`batch`], and the compiled cells (one program, one configuration)
/// run through the corpus service, so they dedup and replay at the same
/// granularity as the figure pipelines.
pub fn run_cases(
    mode: Mode,
    encoding: PointerEncoding,
    mut filter: impl FnMut(&TestCase) -> bool,
) -> Vec<(TestCase, CaseResult)> {
    let cases: Vec<TestCase> = corpus().into_iter().filter(|c| filter(c)).collect();
    let config = machine_config(mode, encoding);
    let compiled = batch::map_with_workers(&cases, settings().workers(), |_, case| {
        (
            compile(&case.bad_source, mode).map_err(|e| e.to_string()),
            compile(&case.ok_source, mode).map_err(|e| e.to_string()),
        )
    });
    let mut jobs = Vec::new();
    for (bad, ok) in &compiled {
        for p in [bad, ok].into_iter().flatten() {
            jobs.push(SimJob {
                program: p.clone(),
                mode,
                config: config.clone(),
            });
        }
    }
    let outs = run_jobs(jobs);
    let mut next = outs.iter();
    cases
        .into_iter()
        .zip(compiled)
        .map(|(case, (bad, ok))| {
            let bad = bad
                .as_ref()
                .map(|_| next.next().expect("outcome per compiled cell"));
            let ok = ok
                .as_ref()
                .map(|_| next.next().expect("outcome per compiled cell"));
            let result = judge_pair(
                &case,
                mode,
                bad.map_err(String::as_str),
                ok.map_err(String::as_str),
            );
            (case, result)
        })
        .collect()
}

impl CorpusReport {
    /// Aggregates per-case results **in iteration order**, so a
    /// parallelized driver that preserves input order reproduces the
    /// serial report exactly.
    #[must_use]
    pub fn collect(results: impl IntoIterator<Item = CaseResult>) -> CorpusReport {
        let mut report = CorpusReport::default();
        for r in results {
            report.total += 1;
            if r.detected {
                report.detected += 1;
            }
            report.missed.extend(r.missed);
            report.false_positives.extend(r.false_positive);
            report.errors.extend(r.errors);
        }
        report
    }
}

/// Runs one filtered subset of the corpus under `mode`/`encoding` (see
/// [`run_cases`]).
pub fn run_filtered(
    mode: Mode,
    encoding: PointerEncoding,
    filter: impl FnMut(&TestCase) -> bool,
) -> CorpusReport {
    CorpusReport::collect(
        run_cases(mode, encoding, filter)
            .into_iter()
            .map(|(_, r)| r),
    )
}

/// Runs the entire corpus under `mode`/`encoding` (the §5.2 experiment).
#[must_use]
pub fn run_corpus(mode: Mode, encoding: PointerEncoding) -> CorpusReport {
    run_filtered(mode, encoding, |_| true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_has_288_pairs_with_unique_ids() {
        let c = corpus();
        assert_eq!(c.len(), 288);
        let mut ids: Vec<_> = c.iter().map(|t| t.id.clone()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 288, "ids must be unique");
    }

    #[test]
    fn sources_compile_smoke() {
        // Compile (don't run) a sample across the dimensions.
        let c = corpus();
        for case in c.iter().step_by(37) {
            hardbound_runtime::compile(&case.bad_source, Mode::HardBound)
                .unwrap_or_else(|e| panic!("{}: {e}\n{}", case.id, case.bad_source));
            hardbound_runtime::compile(&case.ok_source, Mode::HardBound)
                .unwrap_or_else(|e| panic!("{}: {e}", case.id));
        }
    }

    #[test]
    fn compile_errors_land_in_the_error_list() {
        let case = &corpus()[0];
        let r = judge_pair(case, Mode::HardBound, Err("bad twin"), Err("ok twin"));
        assert!(!r.detected && r.missed.is_none() && r.false_positive.is_none());
        assert_eq!(
            r.errors,
            [
                format!("{}: bad twin", case.id),
                format!("{} (ok twin): ok twin", case.id)
            ]
        );
        let report = CorpusReport::collect([r]);
        assert_eq!((report.total, report.errors.len()), (1, 2));
    }

    #[test]
    fn hardbound_detects_sampled_violations_without_false_positives() {
        // The full-corpus run is the `correctness_suite` bench target and
        // an integration test; sample here to keep unit tests fast.
        let mut n = 0;
        let report = run_filtered(Mode::HardBound, PointerEncoding::Intern4, |_| {
            n += 1;
            n % 13 == 0
        });
        assert!(
            report.is_perfect(),
            "{report}\nmissed: {:?}\nfp: {:?}\nerr: {:?}",
            report.missed,
            report.false_positives,
            report.errors
        );
        assert!(report.total > 10);
    }

    #[test]
    fn malloc_only_catches_heap_but_not_stack() {
        let heap = run_filtered(Mode::MallocOnly, PointerEncoding::Intern4, |c| {
            c.region == Region::Heap
                && c.addressing != Addressing::SubObject
                && c.magnitude == Magnitude::One
        });
        assert!(
            heap.missed.is_empty() && heap.false_positives.is_empty(),
            "malloc-only must protect heap objects: {heap}"
        );
        let stack = run_filtered(Mode::MallocOnly, PointerEncoding::Intern4, |c| {
            c.region == Region::Stack
                && c.addressing == Addressing::DirectIndex
                && c.magnitude == Magnitude::One
                && c.boundary == Boundary::Upper
        });
        assert!(
            stack.detected < stack.total,
            "malloc-only should miss (some) stack violations (§3.2 footnote 2)"
        );
    }

    #[test]
    fn object_table_misses_exactly_the_sub_object_cases() {
        let report = run_filtered(Mode::ObjectTable, PointerEncoding::Intern4, |c| {
            c.magnitude == Magnitude::One && c.boundary == Boundary::Upper
        });
        for miss in &report.missed {
            assert!(
                miss.contains("subobject"),
                "object table should only miss sub-object cases, missed {miss}"
            );
        }
        assert!(
            !report.missed.is_empty(),
            "§2.2: sub-object overflows are invisible"
        );
        assert!(
            report.false_positives.is_empty(),
            "{:?}",
            report.false_positives
        );
    }
}
