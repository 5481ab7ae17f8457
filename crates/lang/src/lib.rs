//! Front end for **Cb**, the C subset this reproduction uses in place of
//! the paper's CIL + GCC toolchain.
//!
//! The paper's prototype compiler applies CIL source-to-source
//! transformations to C programs and compiles them with GCC (§5.1). This
//! workspace cannot ship GCC, so `hardbound-lang` implements a compact C
//! front end covering everything the evaluation needs: pointers and pointer
//! arithmetic, structs with embedded arrays (the sub-object case of §2.2/
//! §3.2), casts, strings, and the usual statements. `hardbound-compiler`
//! lowers the resulting HIR to the simulator ISA with the paper's
//! instrumentation modes.
//!
//! ```
//! let source = r"
//!     struct node { char str[5]; int x; };
//!     int main() {
//!         struct node n;
//!         n.x = 7;
//!         return n.x;
//!     }
//! ";
//! let unit = hardbound_lang::parse(source)?;
//! let hir = hardbound_lang::check(&unit)?;
//! assert_eq!(hir.funcs[hir.main].name, "main");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
mod parser;
pub mod pretty;
mod sema;
mod token;
pub mod types;

pub use parser::{parse, ParseError};
pub use sema::{
    check, FieldRef, GlobalId, HExpr, HExprKind, HFunc, HGlobal, HLocal, HStmt, Hir, Intrinsic,
    LocalId, Prelude, SemaError,
};
pub use token::{lex, LexError, Span, Tok};

/// Parses and type-checks a translation unit in one step.
///
/// # Errors
///
/// Returns a formatted message for lexical, syntactic or semantic errors.
pub fn frontend(source: &str) -> Result<Hir, String> {
    let unit = parse(source).map_err(|e| e.to_string())?;
    check(&unit).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::types::Type;
    use super::*;

    fn hir(src: &str) -> Hir {
        match frontend(src) {
            Ok(h) => h,
            Err(e) => panic!("frontend failed: {e}\nsource:\n{src}"),
        }
    }

    fn hir_err(src: &str) -> String {
        frontend(src).expect_err("expected frontend error")
    }

    #[test]
    fn minimal_program() {
        let h = hir("int main() { return 0; }");
        assert_eq!(h.funcs.len(), 1);
        assert_eq!(h.main, 0);
    }

    #[test]
    fn self_referential_struct() {
        let h = hir("struct list { int value; struct list *next; };\n\
             int main() { struct list l; l.next = 0; return l.value; }");
        let layout = h.types.layout(h.types.struct_id("list").unwrap());
        assert_eq!(layout.size, 8);
        assert_eq!(layout.field("next").unwrap().offset, 4);
    }

    #[test]
    fn embedding_incomplete_struct_is_rejected() {
        let e = hir_err("struct a { struct a inner; }; int main() { return 0; }");
        assert!(e.contains("incomplete"), "{e}");
    }

    #[test]
    fn globals_get_aligned_offsets() {
        let h = hir("char c; int i; char d; int arr[4]; int main() { return 0; }");
        assert_eq!(h.globals[0].offset, 0);
        assert_eq!(h.globals[1].offset, 4);
        assert_eq!(h.globals[2].offset, 8);
        assert_eq!(h.globals[3].offset, 12);
        assert_eq!(h.globals_size, 28);
    }

    #[test]
    fn global_initializers_constant_folded() {
        let h = hir("int a = 5; int b = -3; int main() { return a + b; }");
        assert_eq!(h.globals[0].init, 5);
        assert_eq!(h.globals[1].init, -3);
    }

    #[test]
    fn pointer_arithmetic_types() {
        let h = hir("int main() {\n\
               int a[10];\n\
               int *p = a + 2;\n\
               int n = p - a;\n\
               p = p - 1;\n\
               return n + *p;\n\
             }");
        let f = &h.funcs[0];
        assert_eq!(f.locals[1].ty, Type::Int.ptr());
        assert_eq!(f.locals[2].ty, Type::Int);
    }

    #[test]
    fn array_decay_nodes_are_inserted() {
        let h = hir("int main() { int a[4]; int *p = a; return p[0]; }");
        let HStmt::Init(_, init) = &h.funcs[0].body[0] else {
            panic!()
        };
        assert!(
            matches!(&init.kind, HExprKind::Decay(_)),
            "array initializer must decay explicitly, got {:?}",
            init.kind
        );
    }

    #[test]
    fn member_array_decays_for_sub_object_narrowing() {
        // The paper's §3.2 example: char *ptr = node.str;
        let h = hir("struct node { char str[5]; int x; };\n\
             int main() { struct node n; char *p = n.str; return 0; }");
        let HStmt::Init(_, init) = &h.funcs[0].body[0] else {
            panic!()
        };
        let HExprKind::Decay(inner) = &init.kind else {
            panic!("got {:?}", init.kind)
        };
        assert!(matches!(inner.kind, HExprKind::Member(_, _)));
        assert_eq!(init.ty, Type::Char.ptr());
    }

    #[test]
    fn void_pointer_conversions_are_implicit() {
        hir("void *id(void *p) { return p; }\n\
             int main() { int x; int *p = id(&x); return *p; }");
    }

    #[test]
    fn incompatible_pointer_assignment_requires_cast() {
        let e = hir_err("int main() { int x; char *p; p = &x; return 0; }");
        assert!(e.contains("cannot convert"), "{e}");
        hir("int main() { int x; char *p; p = (char*)&x; return *p; }");
    }

    #[test]
    fn null_literal_converts_to_pointer() {
        hir("int main() { int *p = 0; return p == 0; }");
    }

    #[test]
    fn intrinsics_are_typed() {
        let h = hir("int main() {\n\
               int a[4];\n\
               int *p = __setbound(a, 16);\n\
               int *q = __unbound(p);\n\
               int b = __readbase(p);\n\
               int d = __readbound(p);\n\
               int m = __mulh(1000000, 1000000);\n\
               print_int(m);\n\
               print_char(65);\n\
               return b + d + (q == p);\n\
             }");
        let HStmt::Init(_, init) = &h.funcs[0].body[0] else {
            panic!()
        };
        assert!(matches!(
            init.kind,
            HExprKind::Intrinsic(Intrinsic::SetBound, _)
        ));
        assert_eq!(init.ty, Type::Int.ptr());
    }

    #[test]
    fn sizeof_folds_to_constants() {
        let h = hir("struct node { char str[5]; int x; };\n\
             int main() { return sizeof(struct node) + sizeof(int*) + sizeof(char); }");
        let HStmt::Return(Some(e)) = &h.funcs[0].body[0] else {
            panic!()
        };
        // 12 + 4 + 1 — all folded to Int literals combined with Add nodes.
        fn sum(e: &HExpr) -> i64 {
            match &e.kind {
                HExprKind::Int(v) => *v,
                HExprKind::Binary(ast::BinaryOp::Add, a, b) => sum(a) + sum(b),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(sum(e), 17);
    }

    #[test]
    fn string_literals_pool_with_nul() {
        let h = hir("int main() { char *s = \"hi\"; return s == 0; }");
        assert_eq!(h.strings, vec![b"hi\0".to_vec()]);
    }

    #[test]
    fn for_loop_desugars_to_while_with_step() {
        let h =
            hir("int main() { int s = 0; for (int i = 0; i < 4; i = i + 1) s = s + i; return s; }");
        fn find_while(stmts: &[HStmt]) -> bool {
            stmts.iter().any(|s| match s {
                HStmt::While {
                    cond: Some(_),
                    step: Some(_),
                    ..
                } => true,
                HStmt::If { then, els, .. } => find_while(then) || find_while(els),
                _ => false,
            })
        }
        assert!(
            find_while(&h.funcs[0].body),
            "for must desugar to While with step"
        );
    }

    #[test]
    fn error_cases() {
        assert!(hir_err("int main() { return x; }").contains("unknown variable"));
        assert!(hir_err("int main() { f(); return 0; }").contains("unknown function"));
        assert!(
            hir_err("int f(int a) { return a; } int main() { return f(); }").contains("expects 1")
        );
        assert!(hir_err("int main() { break; }").contains("outside a loop"));
        assert!(hir_err("int main() { 1 = 2; return 0; }").contains("lvalue"));
        assert!(hir_err("int main() { return *3; }").contains("dereference"));
        assert!(hir_err("void f() { return 1; } int main() { return 0; }")
            .contains("void function returns"));
        assert!(
            hir_err("int f() { return 1; } int f() { return 2; } int main() { return 0; }")
                .contains("duplicate function")
        );
        assert!(hir_err("int g() { return 1; }").contains("no `main`"));
        assert!(
            hir_err("struct s { int x; }; int main() { struct s v; return v.y; }")
                .contains("no field")
        );
        assert!(hir_err("int main() { int x; return x.y; }").contains("non-struct"));
        assert!(hir_err("int main() { void v; return 0; }").contains("void"));
    }

    /// A two-function library standing in for the runtime: `rand_range`
    /// is checked last, so a stale function context would name it.
    const LIBRARY: &str = "struct __hdr { int size; struct __hdr *next; };\n\
         int __heap_ready;\n\
         void *malloc(int n) { __heap_ready = 1; return 0; }\n\
         int rand_range(int n) { return n; }";

    #[test]
    fn prelude_library_needs_no_main() {
        let prelude = Prelude::new(LIBRARY).expect("a library needs no `main`");
        let h = prelude
            .frontend("int main() { struct __hdr *h = malloc(8); return rand_range(3); }")
            .unwrap();
        assert_eq!(h.funcs.len(), 3);
        assert_eq!(h.main, 2);
    }

    #[test]
    fn prelude_user_unit_without_main_is_rejected() {
        let prelude = Prelude::new(LIBRARY).unwrap();
        assert_eq!(
            prelude.frontend("int g() { return 1; }").unwrap_err(),
            "semantic error: program has no `main` function"
        );
    }

    #[test]
    fn prelude_redefinition_names_no_library_function() {
        let prelude = Prelude::new(LIBRARY).unwrap();
        assert_eq!(
            prelude
                .frontend("int malloc(int n) { return n; } int main() { return 0; }")
                .unwrap_err(),
            "semantic error: duplicate function `malloc`"
        );
    }

    #[test]
    fn prelude_shares_library_bodies() {
        let prelude = Prelude::new(LIBRARY).unwrap();
        let a = prelude.frontend("int main() { return 1; }").unwrap();
        let b = prelude.frontend("int main() { return 2; }").unwrap();
        assert!(std::sync::Arc::ptr_eq(&a.funcs[0], &b.funcs[0]));
        assert_ne!(a.funcs[2], b.funcs[2]);
    }

    #[test]
    fn empty_prelude_equals_whole_unit_check() {
        let empty = Prelude::new("").unwrap();
        for (src, accepted) in [
            ("int main() { return 0; }", true),
            (
                "struct s { int x; char c[3]; }; int g = -4; char *p;\n\
                 int f(struct s *v) { return v->x + g; }\n\
                 int main() { struct s v; v.x = 1; print_int(g); return f(&v); }",
                true,
            ),
            ("int main() { char *s = \"hi\"; return s[0]; }", true),
            ("int main() { return x; }", false),
            ("int g() { return 1; }", false),
        ] {
            let whole = frontend(src);
            assert_eq!(whole.is_ok(), accepted, "{src}: {whole:?}");
            assert_eq!(whole, empty.frontend(src), "{src}");
        }
    }

    #[test]
    fn logical_operators_and_ternary() {
        hir("int main() { int a = 1; int b = 0; return (a && !b) || (a ? b : 2); }");
    }

    #[test]
    fn char_and_int_interconvert() {
        hir("int main() {\n\
               char c = 65;\n\
               int i = c + 1;\n\
               c = i;\n\
               char buf[4];\n\
               buf[0] = c;\n\
               return buf[0];\n\
             }");
    }

    #[test]
    fn struct_pointer_navigation() {
        hir("struct tree { int v; struct tree *l; struct tree *r; };\n\
             int sum(struct tree *t) {\n\
               if (t == 0) return 0;\n\
               return t->v + sum(t->l) + sum(t->r);\n\
             }\n\
             int main() { return sum(0); }");
    }

    #[test]
    fn shadowing_in_nested_scopes() {
        hir("int main() {\n\
               int x = 1;\n\
               { int x = 2; print_int(x); }\n\
               return x;\n\
             }");
        assert!(hir_err("int main() { int x; int x; return 0; }").contains("duplicate variable"));
    }
}
