//! Differential check of the runtime library's prelude: compiling a program
//! against the once-checked runtime (`compile`) must equal
//! compiling the runtime and the program as one translation unit
//! (`compile_program(&link(src))`) in every mode — the same `Program`
//! byte for byte, or the same error text. Parse errors are the one
//! intended difference: the prelude path reports positions in the user's
//! own source, so the linked path's line is shifted by the runtime's lines.

use hardbound::compiler::{compile_program, Mode, Options};
use hardbound::runtime::{compile, link};
use hardbound::violations::corpus;
use hardbound::workloads::{self, Scale};

/// Lines [`link`] places ahead of the user's first line.
fn runtime_lines() -> u32 {
    link("").lines().count() as u32
}

/// Rewrites `parse error at L:C` (or `lex error at L:C`) in a
/// user-relative message to the position the linked source reports.
fn shift_position(message: &str) -> String {
    let Some(at) = message.find(" error at ") else {
        return message.to_owned();
    };
    let start = at + " error at ".len();
    let (line, rest) = message[start..].split_once(':').expect("L:C position");
    let line: u32 = line.parse().expect("numeric line");
    format!("{}{}:{rest}", &message[..start], line + runtime_lines())
}

/// Compares both paths for `src` in every mode; returns how many
/// comparisons ran.
fn assert_paths_agree(name: &str, src: &str) -> usize {
    let linked = link(src);
    for mode in Mode::ALL {
        let opts = Options::mode(mode).with_unchecked(["malloc", "free"]);
        let whole = compile_program(&linked, &opts);
        let prelude = compile(src, mode);
        match (whole, prelude) {
            (Ok(w), Ok(p)) => assert!(w == p, "{name} ({mode}): programs differ"),
            (Err(w), Err(p)) => assert_eq!(
                w.message,
                shift_position(&p.message),
                "{name} ({mode}): error text differs"
            ),
            (w, p) => panic!(
                "{name} ({mode}): one path failed: whole {:?} vs prelude {:?}",
                w.err(),
                p.err()
            ),
        }
    }
    Mode::ALL.len()
}

#[test]
fn violation_corpus_compiles_identically() {
    let cases = corpus();
    assert_eq!(cases.len(), 288);
    let mut compared = 0;
    for case in &cases {
        compared += assert_paths_agree(&format!("{} bad", case.id), &case.bad_source);
        compared += assert_paths_agree(&format!("{} ok", case.id), &case.ok_source);
    }
    assert_eq!(compared, 576 * Mode::ALL.len());
}

#[test]
fn olden_ports_compile_identically_at_both_scales() {
    for scale in [Scale::Smoke, Scale::Full] {
        let fleet = workloads::all(scale);
        assert_eq!(fleet.len(), 9);
        for w in &fleet {
            assert_paths_agree(&format!("{} ({scale:?})", w.name), &w.source);
        }
    }
}

#[test]
fn rejected_programs_give_identical_errors() {
    let rejected = [
        ("unknown variable", "int main() { return x; }"),
        (
            "wrong arity",
            "int f(int a) { return a; } int main() { return f(); }",
        ),
        (
            "user malloc",
            "void *malloc(int n) { return 0; } int main() { return 0; }",
        ),
        (
            "user struct __hdr",
            "struct __hdr { int x; }; int main() { return 0; }",
        ),
        (
            "duplicate __heap_ready",
            "int __heap_ready; int main() { return 0; }",
        ),
        ("no main", "int g() { return 1; }"),
        ("parse error", "int main( { return 0; }"),
        ("lex error", "int main() {\n  return 1 @ 2;\n}"),
    ];
    for (name, src) in rejected {
        assert_paths_agree(name, src);
        assert!(
            compile(src, Mode::HardBound).is_err(),
            "{name} must be rejected"
        );
    }
}
