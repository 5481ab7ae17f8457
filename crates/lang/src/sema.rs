//! Semantic analysis: resolves names, checks types, computes layouts and
//! produces the typed HIR consumed by `hardbound-compiler`.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::ast::{self, BinaryOp, Expr, Stmt, TypeExpr, UnaryOp, Unit};
use crate::types::{StructId, Type, TypeTable};

/// Index of a local variable within its function.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LocalId(pub u32);

/// Index of a global variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GlobalId(pub u32);

/// Compiler intrinsics lowered inline by code generation.
///
/// `SetBound` and `Unbound` correspond directly to the paper's `setbound`
/// instruction and §3.2 escape hatch; how they lower depends on the
/// instrumentation mode (HardBound emits the instruction, the software
/// comparison schemes emit their own metadata bookkeeping, the baseline
/// drops them — the paper's "forward compatibility" property).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Intrinsic {
    /// `void *__setbound(void *p, int size)`.
    SetBound,
    /// `void *__unbound(void *p)`.
    Unbound,
    /// `void __freebound(void *p)` — deallocation notice. A no-op for
    /// HardBound itself; the object-table comparison mode lowers it to a
    /// table unregistration (JK-style schemes must track frees).
    FreeBound,
    /// `int __readbase(void *p)`.
    ReadBase,
    /// `int __readbound(void *p)`.
    ReadBound,
    /// `int __mulh(int a, int b)` — high word of the 64-bit product.
    Mulh,
    /// `void print_int(int v)`.
    PrintInt,
    /// `void print_char(int c)`.
    PrintChar,
    /// `void halt(int code)`.
    Halt,
}

/// A typed expression.
#[derive(Clone, Debug, PartialEq)]
pub struct HExpr {
    /// Result type (after array decay where applicable).
    pub ty: Type,
    /// Node kind.
    pub kind: HExprKind,
}

/// Resolved struct-field access info.
#[derive(Clone, Debug, PartialEq)]
pub struct FieldRef {
    /// Byte offset of the field.
    pub offset: u32,
    /// Field type (arrays *not* decayed — codegen narrows bounds on decay).
    pub ty: Type,
}

/// Typed expression kinds.
#[derive(Clone, Debug, PartialEq)]
pub enum HExprKind {
    /// Integer constant.
    Int(i64),
    /// String literal (index into [`Hir::strings`]).
    Str(usize),
    /// Local variable reference (an lvalue; arrays/structs are used via
    /// their address).
    Local(LocalId),
    /// Global variable reference (an lvalue).
    Global(GlobalId),
    /// Unary arithmetic.
    Unary(UnaryOp, Box<HExpr>),
    /// Binary arithmetic. Pointer arithmetic is *not* pre-scaled; codegen
    /// scales by the pointee size.
    Binary(BinaryOp, Box<HExpr>, Box<HExpr>),
    /// Short-circuit `&&`.
    LogicalAnd(Box<HExpr>, Box<HExpr>),
    /// Short-circuit `||`.
    LogicalOr(Box<HExpr>, Box<HExpr>),
    /// Assignment (lhs is an lvalue).
    Assign(Box<HExpr>, Box<HExpr>),
    /// Ternary conditional.
    Cond(Box<HExpr>, Box<HExpr>, Box<HExpr>),
    /// Pointer dereference (an lvalue).
    Deref(Box<HExpr>),
    /// Address-of an lvalue.
    AddrOf(Box<HExpr>),
    /// `base[index]` (an lvalue). `base` decays to a pointer.
    Index(Box<HExpr>, Box<HExpr>),
    /// `base.field` where `base` is a struct lvalue.
    Member(Box<HExpr>, FieldRef),
    /// `base->field` where `base` is a struct pointer rvalue.
    Arrow(Box<HExpr>, FieldRef),
    /// Call to a user function by index into [`Hir::funcs`].
    Call(usize, Vec<HExpr>),
    /// Intrinsic call.
    Intrinsic(Intrinsic, Vec<HExpr>),
    /// Value conversion (explicit cast or implicit conversion); the target
    /// type is this node's `ty`.
    Cast(Box<HExpr>),
    /// Array-to-pointer decay of an array lvalue. This node is the
    /// HardBound instrumentation point: the compiler narrows bounds to the
    /// array's extent here (paper §3.2, "protecting sub-objects").
    Decay(Box<HExpr>),
}

impl HExpr {
    /// Whether this expression designates a memory location.
    #[must_use]
    pub fn is_lvalue(&self) -> bool {
        matches!(
            self.kind,
            HExprKind::Local(_)
                | HExprKind::Global(_)
                | HExprKind::Deref(_)
                | HExprKind::Index(_, _)
                | HExprKind::Member(_, _)
                | HExprKind::Arrow(_, _)
        )
    }
}

/// A typed statement.
#[derive(Clone, Debug, PartialEq)]
pub enum HStmt {
    /// Evaluate for effect.
    Expr(HExpr),
    /// Initialize a local (declaration with initializer).
    Init(LocalId, HExpr),
    /// Two-way branch.
    If {
        /// Condition (scalar).
        cond: HExpr,
        /// Then branch.
        then: Vec<HStmt>,
        /// Else branch.
        els: Vec<HStmt>,
    },
    /// Loop with optional step (the `for`-loop desugaring target;
    /// `continue` jumps to the step).
    While {
        /// Condition (scalar); `None` = infinite.
        cond: Option<HExpr>,
        /// Body.
        body: Vec<HStmt>,
        /// Step expression run after the body and on `continue`.
        step: Option<HExpr>,
    },
    /// Return.
    Return(Option<HExpr>),
    /// Break out of the innermost loop.
    Break,
    /// Continue the innermost loop (via its step).
    Continue,
}

/// A local variable (parameters are the first `params` locals).
#[derive(Clone, Debug, PartialEq)]
pub struct HLocal {
    /// Source name.
    pub name: String,
    /// Declared type (arrays/structs kept as such; they live in the frame).
    pub ty: Type,
}

/// A typed function.
#[derive(Clone, Debug, PartialEq)]
pub struct HFunc {
    /// Source name.
    pub name: String,
    /// Return type.
    pub ret: Type,
    /// Number of parameters (the first locals).
    pub num_params: usize,
    /// All locals (parameters first).
    pub locals: Vec<HLocal>,
    /// Body.
    pub body: Vec<HStmt>,
}

/// A global variable.
#[derive(Clone, Debug, PartialEq)]
pub struct HGlobal {
    /// Source name.
    pub name: String,
    /// Type.
    pub ty: Type,
    /// Byte offset from `GLOBALS_BASE`.
    pub offset: u32,
    /// Constant initial value (zero if absent).
    pub init: i32,
}

/// A fully type-checked translation unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Hir {
    /// Struct layouts.
    pub types: TypeTable,
    /// Globals with assigned offsets.
    pub globals: Vec<HGlobal>,
    /// Total bytes of global data (before the string pool).
    pub globals_size: u32,
    /// Functions; `Call` indexes this vector. Bodies are shared, so every
    /// program checked against one [`Prelude`] reuses the library's.
    pub funcs: Vec<Arc<HFunc>>,
    /// Index of `main` in [`Hir::funcs`].
    pub main: usize,
    /// String-literal pool (NUL terminators already appended).
    pub strings: Vec<Vec<u8>>,
}

/// A semantic error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SemaError {
    /// Description, prefixed with the containing function when known.
    pub message: String,
}

impl fmt::Display for SemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "semantic error: {}", self.message)
    }
}

impl std::error::Error for SemaError {}

/// Type-checks a parsed unit.
///
/// # Errors
///
/// Returns the first [`SemaError`] found (unknown names, type mismatches,
/// bad lvalues, missing `main`, …).
pub fn check(unit: &Unit) -> Result<Hir, SemaError> {
    let mut checker = Checker::new();
    let funcs = checker.check_unit(unit)?;
    checker.finish(funcs)
}

/// A library unit parsed and checked once, against which any number of
/// programs are then checked — the front-end half of linking a
/// precompiled runtime library.
///
/// Checking `user` against `Prelude::new(lib)` yields the same [`Hir`] as
/// checking the concatenation `lib + user` as one unit whenever the
/// library's bodies reference only its own declarations: the library's
/// structs, globals and functions come first either way.
#[derive(Debug)]
pub struct Prelude {
    checker: Checker,
    funcs: Vec<Arc<HFunc>>,
}

impl Prelude {
    /// Parses and checks `library_source`. A library needs no `main`.
    ///
    /// # Errors
    ///
    /// Returns a formatted message for lexical, syntactic or semantic
    /// errors in the library.
    pub fn new(library_source: &str) -> Result<Prelude, String> {
        let unit = crate::parse(library_source).map_err(|e| e.to_string())?;
        let mut checker = Checker::new();
        let funcs = checker.check_unit(&unit).map_err(|e| e.to_string())?;
        Ok(Prelude { checker, funcs })
    }

    /// Parses `user_source` alone and checks it after the library. Parse
    /// and lex errors carry positions in `user_source`.
    ///
    /// # Errors
    ///
    /// Returns a formatted message for lexical, syntactic or semantic
    /// errors, including a missing `main`.
    pub fn frontend(&self, user_source: &str) -> Result<Hir, String> {
        let unit = crate::parse(user_source).map_err(|e| e.to_string())?;
        let mut checker = self.checker.clone();
        let mut funcs = self.funcs.clone();
        funcs.extend(checker.check_unit(&unit).map_err(|e| e.to_string())?);
        checker.finish(funcs).map_err(|e| e.to_string())
    }
}

#[derive(Clone, Debug)]
struct FuncSig {
    ret: Type,
    params: Vec<Type>,
}

/// Declarations accumulate across the units checked by one `Checker`, so
/// a later unit sees every earlier one's structs, globals and functions.
#[derive(Clone, Debug)]
struct Checker {
    types: TypeTable,
    globals: Vec<HGlobal>,
    globals_size: u32,
    global_ids: HashMap<String, GlobalId>,
    func_sigs: Vec<FuncSig>,
    func_ids: HashMap<String, usize>,
    strings: Vec<Vec<u8>>,
    // Per-function state:
    locals: Vec<HLocal>,
    scopes: Vec<HashMap<String, LocalId>>,
    current_fn: String,
    current_ret: Type,
    loop_depth: u32,
}

impl Checker {
    fn new() -> Checker {
        Checker {
            types: TypeTable::new(),
            globals: Vec::new(),
            globals_size: 0,
            global_ids: HashMap::new(),
            func_sigs: Vec::new(),
            func_ids: HashMap::new(),
            strings: Vec::new(),
            locals: Vec::new(),
            scopes: Vec::new(),
            current_fn: String::new(),
            current_ret: Type::Void,
            loop_depth: 0,
        }
    }

    fn err<T>(&self, msg: impl fmt::Display) -> Result<T, SemaError> {
        let prefix = if self.current_fn.is_empty() {
            String::new()
        } else {
            format!("in `{}`: ", self.current_fn)
        };
        Err(SemaError {
            message: format!("{prefix}{msg}"),
        })
    }

    fn resolve_type(&self, te: &TypeExpr) -> Result<Type, SemaError> {
        Ok(match te {
            TypeExpr::Int => Type::Int,
            TypeExpr::Char => Type::Char,
            TypeExpr::Void => Type::Void,
            TypeExpr::Struct(name) => match self.types.struct_id(name) {
                Some(id) => Type::Struct(id),
                None => return self.err(format_args!("unknown struct `{name}`")),
            },
            TypeExpr::Ptr(inner) => self.resolve_type(inner)?.ptr(),
            TypeExpr::Array(inner, n) => {
                let elem = self.resolve_type(inner)?;
                if *n == 0 {
                    return self.err("zero-length arrays are not supported");
                }
                Type::Array(Box::new(elem), *n)
            }
        })
    }

    /// Declares and checks one unit — structs, then globals, then
    /// signatures, then bodies — and returns its functions' HIR.
    fn check_unit(&mut self, unit: &Unit) -> Result<Vec<Arc<HFunc>>, SemaError> {
        // Struct layouts (definition order; pointers to later structs are
        // not supported — Olden's data structures are self/backward
        // referential via pointers to the *same* struct, which works
        // because field types behind pointers resolve by name at use time).
        // To allow self-reference we register a provisional empty struct
        // first, then fill it in.
        for s in &unit.structs {
            let placeholder = crate::types::StructLayout {
                name: s.name.clone(),
                fields: Vec::new(),
                size: 0,
                align: 1,
            };
            self.types.add_struct(placeholder).map_err(|e| SemaError {
                message: e.to_string(),
            })?;
        }
        for s in &unit.structs {
            let mut fields = Vec::new();
            for f in &s.fields {
                let ty = self.resolve_type(&f.ty)?;
                if let Type::Struct(id) = &ty {
                    if self.types.layout(*id).fields.is_empty() {
                        return self.err(format_args!(
                            "struct `{}` embeds incomplete struct `{}` (use a pointer)",
                            s.name, f.ty
                        ));
                    }
                }
                if matches!(ty, Type::Void) {
                    return self.err(format_args!("field `{}` cannot be void", f.name));
                }
                fields.push((f.name.clone(), ty));
            }
            let laid = self
                .types
                .lay_out(&s.name, &fields)
                .map_err(|e| SemaError {
                    message: e.to_string(),
                })?;
            let id = self.types.struct_id(&s.name).expect("registered above");
            self.types.replace_struct(id, laid);
        }

        // Globals.
        for g in &unit.globals {
            let ty = self.resolve_type(&g.ty)?;
            if matches!(ty, Type::Void) {
                return self.err(format_args!("global `{}` cannot be void", g.name));
            }
            if self.global_ids.contains_key(&g.name) {
                return self.err(format_args!("duplicate global `{}`", g.name));
            }
            let init = match &g.init {
                None => 0,
                Some(Expr::Int(v)) => *v as i32,
                Some(Expr::Unary(UnaryOp::Neg, inner)) => match &**inner {
                    Expr::Int(v) => -(*v as i32),
                    _ => return self.err("global initializers must be integer constants"),
                },
                Some(_) => return self.err("global initializers must be integer constants"),
            };
            let align = self.types.align_of(&ty);
            let size = self.types.size_of(&ty);
            let offset = self.globals_size.next_multiple_of(align);
            self.globals_size = offset + size;
            let id = GlobalId(self.globals.len() as u32);
            self.global_ids.insert(g.name.clone(), id);
            self.globals.push(HGlobal {
                name: g.name.clone(),
                ty,
                offset,
                init,
            });
        }

        // Function signatures (two-pass so order does not matter).
        let first_func = self.func_sigs.len();
        for f in &unit.funcs {
            if self.func_ids.contains_key(&f.name) {
                return self.err(format_args!("duplicate function `{}`", f.name));
            }
            if f.params.len() > 8 {
                return self.err(format_args!(
                    "function `{}` has {} parameters; the ABI allows 8",
                    f.name,
                    f.params.len()
                ));
            }
            let ret = self.resolve_type(&f.ret)?;
            let mut params = Vec::new();
            for p in &f.params {
                let ty = self.resolve_type(&p.ty)?;
                if !ty.is_scalar() {
                    return self.err(format_args!(
                        "parameter `{}` of `{}` must be scalar (pass structs by pointer)",
                        p.name, f.name
                    ));
                }
                params.push(ty);
            }
            self.func_ids.insert(f.name.clone(), self.func_sigs.len());
            self.func_sigs.push(FuncSig { ret, params });
        }

        // Bodies. Function ids continue after earlier units' functions.
        let mut funcs = Vec::new();
        for (idx, f) in unit.funcs.iter().enumerate() {
            funcs.push(Arc::new(self.check_func(first_func + idx, f)?));
        }
        // Errors outside any body (a later unit's declarations, a missing
        // `main`) must not name the last function checked.
        self.current_fn.clear();
        Ok(funcs)
    }

    /// Completes a program from every unit's functions, in check order.
    fn finish(self, funcs: Vec<Arc<HFunc>>) -> Result<Hir, SemaError> {
        let Some(&main) = self.func_ids.get("main") else {
            return self.err("program has no `main` function");
        };
        Ok(Hir {
            types: self.types,
            globals: self.globals,
            globals_size: self.globals_size,
            funcs,
            main,
            strings: self.strings,
        })
    }

    fn check_func(&mut self, idx: usize, f: &ast::FuncDecl) -> Result<HFunc, SemaError> {
        self.current_fn = f.name.clone();
        self.current_ret = self.func_sigs[idx].ret.clone();
        self.locals = Vec::new();
        self.scopes = vec![HashMap::new()];
        self.loop_depth = 0;

        for (p, ty) in f.params.iter().zip(self.func_sigs[idx].params.clone()) {
            self.declare_local(&p.name, ty)?;
        }
        let body = self.check_block(&f.body)?;
        Ok(HFunc {
            name: f.name.clone(),
            ret: self.current_ret.clone(),
            num_params: f.params.len(),
            locals: std::mem::take(&mut self.locals),
            body,
        })
    }

    fn declare_local(&mut self, name: &str, ty: Type) -> Result<LocalId, SemaError> {
        let scope = self.scopes.last_mut().expect("scope stack never empty");
        if scope.contains_key(name) {
            return self.err(format_args!("duplicate variable `{name}` in scope"));
        }
        let id = LocalId(self.locals.len() as u32);
        self.scopes.last_mut().unwrap().insert(name.to_owned(), id);
        self.locals.push(HLocal {
            name: name.to_owned(),
            ty,
        });
        Ok(id)
    }

    fn lookup_local(&self, name: &str) -> Option<LocalId> {
        self.scopes.iter().rev().find_map(|s| s.get(name).copied())
    }

    fn check_block(&mut self, stmts: &[Stmt]) -> Result<Vec<HStmt>, SemaError> {
        self.scopes.push(HashMap::new());
        let mut out = Vec::new();
        for s in stmts {
            self.check_stmt(s, &mut out)?;
        }
        self.scopes.pop();
        Ok(out)
    }

    fn check_stmt(&mut self, s: &Stmt, out: &mut Vec<HStmt>) -> Result<(), SemaError> {
        match s {
            Stmt::Empty => {}
            Stmt::Expr(e) => {
                let he = self.check_expr(e)?;
                out.push(HStmt::Expr(he));
            }
            Stmt::Decl { ty, name, init } => {
                let ty = self.resolve_type(ty)?;
                if matches!(ty, Type::Void) {
                    return self.err(format_args!("variable `{name}` cannot be void"));
                }
                let id = self.declare_local(name, ty.clone())?;
                if let Some(init) = init {
                    if !ty.is_scalar() {
                        return self.err(format_args!(
                            "aggregate `{name}` cannot have an initializer"
                        ));
                    }
                    let rv = self.check_expr(init)?;
                    let rhs = self.coerce(rv, &ty)?;
                    out.push(HStmt::Init(id, rhs));
                }
            }
            Stmt::If { cond, then, els } => {
                let cond = self.check_condition(cond)?;
                let then = self.check_stmt_as_block(then)?;
                let els = match els {
                    Some(e) => self.check_stmt_as_block(e)?,
                    None => Vec::new(),
                };
                out.push(HStmt::If { cond, then, els });
            }
            Stmt::While { cond, body } => {
                let cond = self.check_condition(cond)?;
                self.loop_depth += 1;
                let body = self.check_stmt_as_block(body)?;
                self.loop_depth -= 1;
                out.push(HStmt::While {
                    cond: Some(cond),
                    body,
                    step: None,
                });
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                self.scopes.push(HashMap::new());
                let mut prologue = Vec::new();
                if let Some(init) = init {
                    self.check_stmt(init, &mut prologue)?;
                }
                let cond = match cond {
                    Some(c) => Some(self.check_condition(c)?),
                    None => None,
                };
                let step = match step {
                    Some(s) => Some(self.check_expr(s)?),
                    None => None,
                };
                self.loop_depth += 1;
                let body = self.check_stmt_as_block(body)?;
                self.loop_depth -= 1;
                self.scopes.pop();
                prologue.push(HStmt::While { cond, body, step });
                out.extend(prologue);
            }
            Stmt::Return(value) => {
                let hv = match value {
                    Some(v) => {
                        if matches!(self.current_ret, Type::Void) {
                            return self.err("void function returns a value");
                        }
                        let ret = self.current_ret.clone();
                        let rv = self.check_expr(v)?;
                        Some(self.coerce(rv, &ret)?)
                    }
                    None => {
                        if !matches!(self.current_ret, Type::Void) {
                            return self.err("non-void function returns no value");
                        }
                        None
                    }
                };
                out.push(HStmt::Return(hv));
            }
            Stmt::Break => {
                if self.loop_depth == 0 {
                    return self.err("`break` outside a loop");
                }
                out.push(HStmt::Break);
            }
            Stmt::Continue => {
                if self.loop_depth == 0 {
                    return self.err("`continue` outside a loop");
                }
                out.push(HStmt::Continue);
            }
            Stmt::Block(stmts) => {
                let inner = self.check_block(stmts)?;
                out.push(HStmt::If {
                    cond: HExpr {
                        ty: Type::Int,
                        kind: HExprKind::Int(1),
                    },
                    then: inner,
                    els: Vec::new(),
                });
            }
        }
        Ok(())
    }

    fn check_stmt_as_block(&mut self, s: &Stmt) -> Result<Vec<HStmt>, SemaError> {
        match s {
            Stmt::Block(stmts) => self.check_block(stmts),
            other => {
                self.scopes.push(HashMap::new());
                let mut out = Vec::new();
                self.check_stmt(other, &mut out)?;
                self.scopes.pop();
                Ok(out)
            }
        }
    }

    /// Conditions accept any scalar and decay arrays (`if (p)`).
    fn check_condition(&mut self, e: &Expr) -> Result<HExpr, SemaError> {
        let he = self.check_expr(e)?;
        let ty = he.ty.decay();
        if !ty.is_scalar() {
            return self.err(format_args!("condition has non-scalar type {}", he.ty));
        }
        Ok(decay_expr(he))
    }

    /// Implicit conversion of `e` to `target`, inserting a `Cast` node when
    /// the representation changes.
    fn coerce(&mut self, e: HExpr, target: &Type) -> Result<HExpr, SemaError> {
        let from = e.ty.decay();
        if &from == target {
            return Ok(decay_expr(e));
        }
        let ok = match (&from, target) {
            // int ↔ char, both directions (C's usual conversions).
            (a, b) if a.is_integer() && b.is_integer() => true,
            // void* ↔ T*.
            (Type::Ptr(a), Type::Ptr(b)) => matches!(**a, Type::Void) || matches!(**b, Type::Void),
            // Integer zero to pointer (NULL).
            (a, Type::Ptr(_)) if a.is_integer() && matches!(e.kind, HExprKind::Int(0)) => true,
            _ => false,
        };
        if !ok {
            return self.err(format_args!("cannot convert {} to {}", e.ty, target));
        }
        Ok(HExpr {
            ty: target.clone(),
            kind: HExprKind::Cast(Box::new(decay_expr(e))),
        })
    }

    fn check_expr(&mut self, e: &Expr) -> Result<HExpr, SemaError> {
        match e {
            Expr::Int(v) => Ok(HExpr {
                ty: Type::Int,
                kind: HExprKind::Int(*v),
            }),
            Expr::Str(s) => {
                let mut bytes = s.clone();
                bytes.push(0);
                let idx = self.strings.len();
                self.strings.push(bytes);
                Ok(HExpr {
                    ty: Type::Char.ptr(),
                    kind: HExprKind::Str(idx),
                })
            }
            Expr::Ident(name) => {
                if let Some(id) = self.lookup_local(name) {
                    let ty = self.locals[id.0 as usize].ty.clone();
                    return Ok(HExpr {
                        ty,
                        kind: HExprKind::Local(id),
                    });
                }
                if let Some(&id) = self.global_ids.get(name) {
                    let ty = self.globals[id.0 as usize].ty.clone();
                    return Ok(HExpr {
                        ty,
                        kind: HExprKind::Global(id),
                    });
                }
                self.err(format_args!("unknown variable `{name}`"))
            }
            Expr::Sizeof(te) => {
                let ty = self.resolve_type(te)?;
                if matches!(ty, Type::Void) {
                    return self.err("sizeof(void) is not allowed");
                }
                let size = self.types.size_of(&ty);
                Ok(HExpr {
                    ty: Type::Int,
                    kind: HExprKind::Int(i64::from(size)),
                })
            }
            Expr::Unary(op, inner) => {
                let inner = self.check_expr(inner)?;
                let ity = inner.ty.decay();
                match op {
                    UnaryOp::Neg | UnaryOp::BitNot => {
                        if !ity.is_integer() {
                            return self.err(format_args!("unary {op:?} needs an integer"));
                        }
                        Ok(HExpr {
                            ty: Type::Int,
                            kind: HExprKind::Unary(*op, Box::new(decay_expr(inner))),
                        })
                    }
                    UnaryOp::Not => {
                        if !ity.is_scalar() {
                            return self.err("`!` needs a scalar");
                        }
                        Ok(HExpr {
                            ty: Type::Int,
                            kind: HExprKind::Unary(*op, Box::new(decay_expr(inner))),
                        })
                    }
                }
            }
            Expr::Deref(inner) => {
                let inner = self.check_expr(inner)?;
                let ty = inner.ty.decay();
                let Some(pointee) = ty.pointee().cloned() else {
                    return self.err(format_args!("cannot dereference {}", inner.ty));
                };
                if matches!(pointee, Type::Void) {
                    return self.err("cannot dereference void*");
                }
                Ok(HExpr {
                    ty: pointee,
                    kind: HExprKind::Deref(Box::new(decay_expr(inner))),
                })
            }
            Expr::AddrOf(inner) => {
                let inner = self.check_expr(inner)?;
                if !inner.is_lvalue() {
                    return self.err("`&` needs an lvalue");
                }
                let ty = inner.ty.clone().ptr();
                Ok(HExpr {
                    ty,
                    kind: HExprKind::AddrOf(Box::new(inner)),
                })
            }
            Expr::Binary(op, lhs, rhs) => self.check_binary(*op, lhs, rhs),
            Expr::LogicalAnd(a, b) => {
                let a = self.check_condition(a)?;
                let b = self.check_condition(b)?;
                Ok(HExpr {
                    ty: Type::Int,
                    kind: HExprKind::LogicalAnd(Box::new(a), Box::new(b)),
                })
            }
            Expr::LogicalOr(a, b) => {
                let a = self.check_condition(a)?;
                let b = self.check_condition(b)?;
                Ok(HExpr {
                    ty: Type::Int,
                    kind: HExprKind::LogicalOr(Box::new(a), Box::new(b)),
                })
            }
            Expr::Assign(lhs, rhs) => {
                let lhs = self.check_expr(lhs)?;
                if !lhs.is_lvalue() {
                    return self.err("assignment target is not an lvalue");
                }
                if !lhs.ty.is_scalar() {
                    return self.err(format_args!("cannot assign aggregate type {}", lhs.ty));
                }
                let target = lhs.ty.clone();
                let rv = self.check_expr(rhs)?;
                let rhs = self.coerce(rv, &target)?;
                Ok(HExpr {
                    ty: target,
                    kind: HExprKind::Assign(Box::new(lhs), Box::new(rhs)),
                })
            }
            Expr::Cond(c, t, f) => {
                let c = self.check_condition(c)?;
                let t = self.check_expr(t)?;
                let f = self.check_expr(f)?;
                let (tt, ft) = (t.ty.decay(), f.ty.decay());
                let ty = if tt == ft {
                    tt
                } else if tt.is_integer() && ft.is_integer() {
                    Type::Int
                } else if tt.is_ptr() && ft.is_ptr() {
                    // void* unification.
                    Type::Void.ptr()
                } else if tt.is_ptr() && matches!(f.kind, HExprKind::Int(0)) {
                    tt
                } else if ft.is_ptr() && matches!(t.kind, HExprKind::Int(0)) {
                    ft
                } else {
                    return self.err(format_args!("`?:` branches disagree: {tt} vs {ft}"));
                };
                let t = self.coerce(t, &ty)?;
                let f = self.coerce(f, &ty)?;
                Ok(HExpr {
                    ty,
                    kind: HExprKind::Cond(Box::new(c), Box::new(t), Box::new(f)),
                })
            }
            Expr::Index(base, index) => {
                let base = self.check_expr(base)?;
                let bty = base.ty.decay();
                let Some(elem) = bty.pointee().cloned() else {
                    return self.err(format_args!("cannot index {}", base.ty));
                };
                let index = self.check_expr(index)?;
                if !index.ty.decay().is_integer() {
                    return self.err("array index must be an integer");
                }
                Ok(HExpr {
                    ty: elem,
                    kind: HExprKind::Index(Box::new(decay_expr(base)), Box::new(decay_expr(index))),
                })
            }
            Expr::Member(base, field) => {
                let base = self.check_expr(base)?;
                let Type::Struct(sid) = base.ty else {
                    return self.err(format_args!("`.` on non-struct {}", base.ty));
                };
                if !base.is_lvalue() {
                    return self.err("`.` needs a struct lvalue");
                }
                let fr = self.field_ref(sid, field)?;
                let ty = fr.ty.clone();
                Ok(HExpr {
                    ty,
                    kind: HExprKind::Member(Box::new(base), fr),
                })
            }
            Expr::Arrow(base, field) => {
                let base = self.check_expr(base)?;
                let bty = base.ty.decay();
                let sid = match bty.pointee() {
                    Some(Type::Struct(sid)) => *sid,
                    _ => return self.err(format_args!("`->` on non-struct-pointer {}", base.ty)),
                };
                let fr = self.field_ref(sid, field)?;
                let ty = fr.ty.clone();
                Ok(HExpr {
                    ty,
                    kind: HExprKind::Arrow(Box::new(decay_expr(base)), fr),
                })
            }
            Expr::Call(name, args) => self.check_call(name, args),
            Expr::Cast(te, inner) => {
                let target = self.resolve_type(te)?;
                let inner = self.check_expr(inner)?;
                let from = inner.ty.decay();
                let ok = match (&from, &target) {
                    (a, b) if a.is_scalar() && b.is_scalar() => true,
                    (_, Type::Void) => true, // (void)e discards
                    _ => false,
                };
                if !ok {
                    return self.err(format_args!("invalid cast from {} to {}", inner.ty, target));
                }
                Ok(HExpr {
                    ty: target,
                    kind: HExprKind::Cast(Box::new(decay_expr(inner))),
                })
            }
        }
    }

    fn field_ref(&self, sid: StructId, field: &str) -> Result<FieldRef, SemaError> {
        let layout = self.types.layout(sid);
        match layout.field(field) {
            Some(f) => Ok(FieldRef {
                offset: f.offset,
                ty: f.ty.clone(),
            }),
            None => self.err(format_args!(
                "struct `{}` has no field `{field}`",
                layout.name
            )),
        }
    }

    fn check_binary(&mut self, op: BinaryOp, lhs: &Expr, rhs: &Expr) -> Result<HExpr, SemaError> {
        let lhs = self.check_expr(lhs)?;
        let rhs = self.check_expr(rhs)?;
        let (lt, rt) = (lhs.ty.decay(), rhs.ty.decay());
        use BinaryOp::*;
        let ty = match op {
            Add => match (lt.is_ptr(), rt.is_ptr()) {
                (true, false) if rt.is_integer() => lt.clone(),
                (false, true) if lt.is_integer() => rt.clone(),
                (false, false) if lt.is_integer() && rt.is_integer() => Type::Int,
                _ => return self.err(format_args!("invalid operands to `+`: {lt} and {rt}")),
            },
            Sub => match (lt.is_ptr(), rt.is_ptr()) {
                (true, false) if rt.is_integer() => lt.clone(),
                (true, true) => {
                    if lt != rt {
                        return self.err("pointer difference needs matching types");
                    }
                    Type::Int
                }
                (false, false) if lt.is_integer() && rt.is_integer() => Type::Int,
                _ => return self.err(format_args!("invalid operands to `-`: {lt} and {rt}")),
            },
            Mul | Div | Rem | BitAnd | BitOr | BitXor | Shl | Shr => {
                if !(lt.is_integer() && rt.is_integer()) {
                    return self.err(format_args!("integer operator on {lt} and {rt}"));
                }
                Type::Int
            }
            Lt | Le | Gt | Ge | Eq | Ne => {
                let compatible = (lt.is_integer() && rt.is_integer())
                    || (lt.is_ptr() && rt.is_ptr())
                    || (lt.is_ptr() && rt.is_integer())
                    || (lt.is_integer() && rt.is_ptr());
                if !compatible {
                    return self.err(format_args!("cannot compare {lt} and {rt}"));
                }
                Type::Int
            }
        };
        Ok(HExpr {
            ty,
            kind: HExprKind::Binary(op, Box::new(decay_expr(lhs)), Box::new(decay_expr(rhs))),
        })
    }

    fn check_call(&mut self, name: &str, args: &[Expr]) -> Result<HExpr, SemaError> {
        // Intrinsics first.
        let intrinsic = match name {
            "__setbound" => Some((Intrinsic::SetBound, 2)),
            "__unbound" => Some((Intrinsic::Unbound, 1)),
            "__freebound" => Some((Intrinsic::FreeBound, 1)),
            "__readbase" => Some((Intrinsic::ReadBase, 1)),
            "__readbound" => Some((Intrinsic::ReadBound, 1)),
            "__mulh" => Some((Intrinsic::Mulh, 2)),
            "print_int" => Some((Intrinsic::PrintInt, 1)),
            "print_char" => Some((Intrinsic::PrintChar, 1)),
            "halt" => Some((Intrinsic::Halt, 1)),
            _ => None,
        };
        if let Some((which, arity)) = intrinsic {
            if args.len() != arity {
                return self.err(format_args!("`{name}` expects {arity} argument(s)"));
            }
            let mut hargs = Vec::new();
            for a in args {
                hargs.push(decay_expr(self.check_expr(a)?));
            }
            let ty = match which {
                Intrinsic::SetBound | Intrinsic::Unbound => {
                    let pty = hargs[0].ty.decay();
                    if !pty.is_ptr() {
                        return self.err(format_args!("`{name}` needs a pointer argument"));
                    }
                    if which == Intrinsic::SetBound && !hargs[1].ty.decay().is_integer() {
                        return self.err("`__setbound` size must be an integer");
                    }
                    pty
                }
                Intrinsic::FreeBound => {
                    if !hargs[0].ty.decay().is_ptr() {
                        return self.err("`__freebound` needs a pointer argument");
                    }
                    Type::Void
                }
                Intrinsic::ReadBase | Intrinsic::ReadBound => {
                    if !hargs[0].ty.decay().is_ptr() {
                        return self.err(format_args!("`{name}` needs a pointer argument"));
                    }
                    Type::Int
                }
                Intrinsic::Mulh => {
                    for a in &hargs {
                        if !a.ty.decay().is_integer() {
                            return self.err("`__mulh` needs integer arguments");
                        }
                    }
                    Type::Int
                }
                Intrinsic::PrintInt | Intrinsic::PrintChar | Intrinsic::Halt => {
                    if !hargs[0].ty.decay().is_integer() {
                        return self.err(format_args!("`{name}` needs an integer argument"));
                    }
                    Type::Void
                }
            };
            return Ok(HExpr {
                ty,
                kind: HExprKind::Intrinsic(which, hargs),
            });
        }

        let Some(&idx) = self.func_ids.get(name) else {
            return self.err(format_args!("unknown function `{name}`"));
        };
        let sig_params = self.func_sigs[idx].params.clone();
        let ret = self.func_sigs[idx].ret.clone();
        if args.len() != sig_params.len() {
            return self.err(format_args!(
                "`{name}` expects {} argument(s), got {}",
                sig_params.len(),
                args.len()
            ));
        }
        let mut hargs = Vec::new();
        for (a, pty) in args.iter().zip(&sig_params) {
            let ha = self.check_expr(a)?;
            hargs.push(self.coerce(ha, pty)?);
        }
        Ok(HExpr {
            ty: ret,
            kind: HExprKind::Call(idx, hargs),
        })
    }
}

/// Wraps an array-typed lvalue in an explicit [`HExprKind::Decay`] node.
/// Codegen materializes the array's address here and, under HardBound
/// instrumentation, narrows the pointer's bounds to the array's extent
/// (paper §3.2, "protecting sub-objects").
fn decay_expr(e: HExpr) -> HExpr {
    match &e.ty {
        Type::Array(_, _) => {
            let ty = e.ty.decay();
            HExpr {
                ty,
                kind: HExprKind::Decay(Box::new(e)),
            }
        }
        _ => e,
    }
}
