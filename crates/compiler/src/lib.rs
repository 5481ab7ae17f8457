//! The Cb compiler: lowers `hardbound-lang` HIR to the simulator ISA with
//! the paper's instrumentation strategies.
//!
//! The paper's prototype toolchain is CIL source-to-source transformation +
//! GCC (§5.1). This crate plays both roles. Its [`Mode`] selects the
//! protection scheme being evaluated:
//!
//! | mode | corresponds to | what is emitted |
//! |---|---|---|
//! | [`Mode::Baseline`] | unmodified binaries | no instrumentation; `__setbound` is dropped (the paper's forward-compatibility story: `setbound` as a no-op) |
//! | [`Mode::MallocOnly`] | §3.2 legacy-binary mode | `setbound` only where the source (i.e. `malloc`) asks for it |
//! | [`Mode::HardBound`] | the paper's full scheme | `setbound` at every pointer-creation site: address-taken locals/globals, array decay, sub-object (member-array) narrowing, string literals |
//! | [`Mode::SoftBound`] | CCured-style software fat pointers (Fig. 7's CCured columns) | pointers lowered to value/base/bound triples, explicit bounds checks at dereferences, split shadow metadata in a software shadow region |
//! | [`Mode::ObjectTable`] | JK/RL/DA-style object lookup (Fig. 7 col. 1) | allocations registered in an object table, dereferences validated against it (object granularity — cannot catch sub-object overflows) |
//!
//! All five modes compile the *same* source; programs annotate allocation
//! sites with `__setbound(p, n)` (as the paper's instrumented `malloc`
//! does) and the mode decides what that means.
//!
//! ```
//! use hardbound_compiler::{compile_program, Mode, Options};
//!
//! let program = compile_program(
//!     "int main() { int a[4]; a[1] = 7; return a[1]; }",
//!     &Options::mode(Mode::HardBound),
//! )?;
//! assert!(program.validate().is_ok());
//! # Ok::<(), hardbound_compiler::CompileError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codegen;

use std::fmt;

use hardbound_isa::Program;
use hardbound_lang::Hir;
pub use hardbound_lang::Prelude;

/// Instrumentation strategy (see the crate docs for the mapping to the
/// paper's schemes).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Mode {
    /// No protection; `__setbound` annotations are dropped.
    Baseline,
    /// Only source-requested `setbound`s (the instrumented-`malloc` mode).
    MallocOnly,
    /// Full HardBound instrumentation (CCured-strength spatial safety).
    HardBound,
    /// Software fat pointers with explicit checks (CCured-style).
    SoftBound,
    /// Object-table checking (JK/RL/DA-style).
    ObjectTable,
}

impl Mode {
    /// All modes, in comparison-table order.
    pub const ALL: [Mode; 5] = [
        Mode::Baseline,
        Mode::MallocOnly,
        Mode::HardBound,
        Mode::SoftBound,
        Mode::ObjectTable,
    ];

    /// Short label used in reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Mode::Baseline => "baseline",
            Mode::MallocOnly => "malloc-only",
            Mode::HardBound => "hardbound",
            Mode::SoftBound => "softbound",
            Mode::ObjectTable => "objtable",
        }
    }
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Compilation options.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Options {
    /// Instrumentation mode.
    pub mode: Mode,
    /// Functions compiled *without* software checks (SoftBound range
    /// checks, ObjectTable lookups). Used for trusted runtime internals —
    /// the allocator dereferences block headers that live outside any
    /// registered object, just as a real libc is linked uninstrumented.
    /// HardBound needs no such list: its escape hatch (`__unbound`) is a
    /// per-pointer decision (paper §3.2).
    pub unchecked: std::collections::BTreeSet<String>,
}

impl Options {
    /// Options with the given mode and defaults otherwise.
    #[must_use]
    pub fn mode(mode: Mode) -> Options {
        Options {
            mode,
            unchecked: std::collections::BTreeSet::new(),
        }
    }

    /// Marks `names` as trusted (software checks elided).
    #[must_use]
    pub fn with_unchecked<I: IntoIterator<Item = S>, S: Into<String>>(
        mut self,
        names: I,
    ) -> Options {
        self.unchecked.extend(names.into_iter().map(Into::into));
        self
    }
}

impl Default for Options {
    fn default() -> Options {
        Options::mode(Mode::HardBound)
    }
}

/// A compilation failure (front-end or code-generation).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompileError {
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "compile error: {}", self.message)
    }
}

impl std::error::Error for CompileError {}

impl From<String> for CompileError {
    fn from(message: String) -> CompileError {
        CompileError { message }
    }
}

/// Compiles Cb source to an executable [`Program`].
///
/// # Errors
///
/// Returns a [`CompileError`] for front-end errors or code-generation
/// limits (e.g. expressions needing more than the available temporaries).
pub fn compile_program(source: &str, opts: &Options) -> Result<Program, CompileError> {
    lower(&hardbound_lang::frontend(source)?, opts)
}

/// Compiles `user_source` against a library checked once into `prelude`.
/// The result equals [`compile_program`] of the library source followed by
/// `user_source`, except that parse errors carry positions in
/// `user_source`.
///
/// # Errors
///
/// As for [`compile_program`].
pub fn compile_with_prelude(
    prelude: &Prelude,
    user_source: &str,
    opts: &Options,
) -> Result<Program, CompileError> {
    lower(&prelude.frontend(user_source)?, opts)
}

fn lower(hir: &Hir, opts: &Options) -> Result<Program, CompileError> {
    let program = codegen::generate(hir, opts)?;
    debug_assert_eq!(
        program.validate(),
        Ok(()),
        "codegen must produce valid programs"
    );
    Ok(program)
}
