//! Semantic types and data layout.
//!
//! Layout follows the paper's 32-bit x86 target: `char` is 1 byte, `int`
//! and pointers are 4-byte aligned words, struct fields are padded to their
//! natural alignment and struct size is rounded up to the struct's
//! alignment.

use std::collections::HashMap;
use std::fmt;

/// Index of a struct definition in the [`TypeTable`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct StructId(pub u32);

/// A resolved Cb type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Type {
    /// 32-bit signed integer.
    Int,
    /// 8-bit unsigned character.
    Char,
    /// `void` (valid only behind pointers and as a return type).
    Void,
    /// Pointer.
    Ptr(Box<Type>),
    /// Fixed-size array.
    Array(Box<Type>, u32),
    /// Struct by id.
    Struct(StructId),
}

impl Type {
    /// Pointer to this type.
    #[must_use]
    pub fn ptr(self) -> Type {
        Type::Ptr(Box::new(self))
    }

    /// Whether the type is scalar (fits a register): int, char or pointer.
    #[must_use]
    pub fn is_scalar(&self) -> bool {
        matches!(self, Type::Int | Type::Char | Type::Ptr(_))
    }

    /// Whether the type is an integer type.
    #[must_use]
    pub fn is_integer(&self) -> bool {
        matches!(self, Type::Int | Type::Char)
    }

    /// Whether the type is any pointer.
    #[must_use]
    pub fn is_ptr(&self) -> bool {
        matches!(self, Type::Ptr(_))
    }

    /// The pointee of a pointer type.
    #[must_use]
    pub fn pointee(&self) -> Option<&Type> {
        match self {
            Type::Ptr(t) => Some(t),
            _ => None,
        }
    }

    /// Array-to-pointer decay; other types are returned unchanged.
    #[must_use]
    pub fn decay(&self) -> Type {
        match self {
            Type::Array(elem, _) => Type::Ptr(elem.clone()),
            other => other.clone(),
        }
    }
}

/// A laid-out struct field.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FieldLayout {
    /// Field name.
    pub name: String,
    /// Field type.
    pub ty: Type,
    /// Byte offset from the start of the struct.
    pub offset: u32,
}

/// A laid-out struct.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StructLayout {
    /// Struct tag.
    pub name: String,
    /// Fields with offsets.
    pub fields: Vec<FieldLayout>,
    /// Total size in bytes (padded to alignment).
    pub size: u32,
    /// Alignment in bytes.
    pub align: u32,
}

impl StructLayout {
    /// Finds a field by name.
    #[must_use]
    pub fn field(&self, name: &str) -> Option<&FieldLayout> {
        self.fields.iter().find(|f| f.name == name)
    }
}

/// All struct layouts of a translation unit.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TypeTable {
    structs: Vec<StructLayout>,
    by_name: HashMap<String, StructId>,
}

/// Error produced while building struct layouts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LayoutError(pub String);

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "layout error: {}", self.0)
    }
}

impl std::error::Error for LayoutError {}

impl TypeTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> TypeTable {
        TypeTable::default()
    }

    /// Looks up a struct by tag.
    #[must_use]
    pub fn struct_id(&self, name: &str) -> Option<StructId> {
        self.by_name.get(name).copied()
    }

    /// The layout for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this table.
    #[must_use]
    pub fn layout(&self, id: StructId) -> &StructLayout {
        &self.structs[id.0 as usize]
    }

    /// Registers a struct; fields must use already-registered structs (Cb
    /// requires definition before use, except behind pointers).
    ///
    /// # Errors
    ///
    /// Rejects duplicate tags.
    pub fn add_struct(&mut self, layout: StructLayout) -> Result<StructId, LayoutError> {
        if self.by_name.contains_key(&layout.name) {
            return Err(LayoutError(format!("duplicate struct `{}`", layout.name)));
        }
        let id = StructId(self.structs.len() as u32);
        self.by_name.insert(layout.name.clone(), id);
        self.structs.push(layout);
        Ok(id)
    }

    /// Replaces a provisional layout (used to support self-referential
    /// structs: a placeholder is registered first so `struct s *next`
    /// resolves while `struct s` is being laid out).
    pub fn replace_struct(&mut self, id: StructId, layout: StructLayout) {
        self.structs[id.0 as usize] = layout;
    }

    /// Size of a type in bytes.
    ///
    /// # Panics
    ///
    /// Panics on `void` (sema rejects `sizeof(void)` and void objects).
    #[must_use]
    pub fn size_of(&self, ty: &Type) -> u32 {
        match ty {
            Type::Int | Type::Ptr(_) => 4,
            Type::Char => 1,
            Type::Void => panic!("void has no size"),
            Type::Array(elem, n) => self.size_of(elem) * n,
            Type::Struct(id) => self.layout(*id).size,
        }
    }

    /// Alignment of a type in bytes.
    #[must_use]
    pub fn align_of(&self, ty: &Type) -> u32 {
        match ty {
            Type::Int | Type::Ptr(_) => 4,
            Type::Char => 1,
            Type::Void => 1,
            Type::Array(elem, _) => self.align_of(elem),
            Type::Struct(id) => self.layout(*id).align,
        }
    }

    /// Lays out a struct's fields with natural alignment and padding.
    ///
    /// # Errors
    ///
    /// Rejects duplicate field names and zero-field structs.
    pub fn lay_out(
        &self,
        name: &str,
        fields: &[(String, Type)],
    ) -> Result<StructLayout, LayoutError> {
        if fields.is_empty() {
            return Err(LayoutError(format!("struct `{name}` has no fields")));
        }
        let mut laid = Vec::new();
        let mut offset = 0u32;
        let mut align = 1u32;
        for (fname, fty) in fields {
            if laid.iter().any(|f: &FieldLayout| &f.name == fname) {
                return Err(LayoutError(format!(
                    "duplicate field `{fname}` in `{name}`"
                )));
            }
            let fa = self.align_of(fty);
            let fs = self.size_of(fty);
            offset = offset.next_multiple_of(fa);
            laid.push(FieldLayout {
                name: fname.clone(),
                ty: fty.clone(),
                offset,
            });
            offset += fs;
            align = align.max(fa);
        }
        Ok(StructLayout {
            name: name.to_owned(),
            fields: laid,
            size: offset.next_multiple_of(align),
            align,
        })
    }

    /// Number of registered structs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.structs.len()
    }

    /// Whether no structs are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.structs.is_empty()
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Int => write!(f, "int"),
            Type::Char => write!(f, "char"),
            Type::Void => write!(f, "void"),
            Type::Ptr(t) => write!(f, "{t}*"),
            Type::Array(t, n) => write!(f, "{t}[{n}]"),
            Type::Struct(id) => write!(f, "struct#{}", id.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_sizes_match_32bit_target() {
        let t = TypeTable::new();
        assert_eq!(t.size_of(&Type::Int), 4);
        assert_eq!(t.size_of(&Type::Char), 1);
        assert_eq!(t.size_of(&Type::Int.ptr()), 4);
        assert_eq!(t.size_of(&Type::Array(Box::new(Type::Int), 10)), 40);
    }

    #[test]
    fn paper_node_struct_layout() {
        // struct {char str[5]; int x;} — the §2.2/§3.2 example. str at 0,
        // x at 8 (padded), size 12.
        let mut t = TypeTable::new();
        let layout = t
            .lay_out(
                "node",
                &[
                    ("str".into(), Type::Array(Box::new(Type::Char), 5)),
                    ("x".into(), Type::Int),
                ],
            )
            .unwrap();
        assert_eq!(layout.field("str").unwrap().offset, 0);
        assert_eq!(layout.field("x").unwrap().offset, 8);
        assert_eq!(layout.size, 12);
        assert_eq!(layout.align, 4);
        let id = t.add_struct(layout).unwrap();
        assert_eq!(t.size_of(&Type::Struct(id)), 12);
        assert_eq!(t.struct_id("node"), Some(id));
    }

    #[test]
    fn char_only_struct_is_byte_aligned() {
        let t = TypeTable::new();
        let l = t
            .lay_out("s", &[("a".into(), Type::Char), ("b".into(), Type::Char)])
            .unwrap();
        assert_eq!(l.size, 2);
        assert_eq!(l.align, 1);
    }

    #[test]
    fn nested_struct_layout() {
        let mut t = TypeTable::new();
        let inner = t.lay_out("inner", &[("x".into(), Type::Int)]).unwrap();
        let inner_id = t.add_struct(inner).unwrap();
        let outer = t
            .lay_out(
                "outer",
                &[
                    ("c".into(), Type::Char),
                    ("i".into(), Type::Struct(inner_id)),
                ],
            )
            .unwrap();
        assert_eq!(outer.field("i").unwrap().offset, 4);
        assert_eq!(outer.size, 8);
    }

    #[test]
    fn duplicate_detection() {
        let mut t = TypeTable::new();
        let l = t.lay_out("s", &[("x".into(), Type::Int)]).unwrap();
        t.add_struct(l.clone()).unwrap();
        assert!(t.add_struct(l).is_err());
        assert!(t
            .lay_out("d", &[("x".into(), Type::Int), ("x".into(), Type::Int)])
            .is_err());
        assert!(t.lay_out("e", &[]).is_err());
    }

    #[test]
    fn decay_and_predicates() {
        let arr = Type::Array(Box::new(Type::Char), 5);
        assert_eq!(arr.decay(), Type::Char.ptr());
        assert_eq!(Type::Int.decay(), Type::Int);
        assert!(Type::Int.is_scalar());
        assert!(Type::Char.is_integer());
        assert!(Type::Int.ptr().is_ptr());
        assert!(!arr.is_scalar());
        assert_eq!(Type::Int.ptr().pointee(), Some(&Type::Int));
    }
}
