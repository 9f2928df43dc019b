//! Schemas, attributes and catalogs.
//!
//! Attribute *finite domains* deserve a note: the CFD satisfiability and
//! implication analyses of Fan et al. (TODS 2008) are sensitive to whether
//! attributes range over an infinite domain (strings, integers) or a
//! finite one (e.g. `cc ∈ {01, 44}`, booleans). [`Attribute::finite_domain`]
//! carries that information from schema definition down into
//! `revival-constraints`' static analyses.

use crate::error::{Error, Result};
use crate::pool::Key;
use crate::value::Value;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Index of an attribute within its schema (0-based position).
pub type AttrId = usize;

/// The declared type of an attribute.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Type {
    Bool,
    Int,
    Float,
    Str,
}

impl Type {
    /// Does `v` inhabit this type? NULL inhabits every type.
    pub fn admits(&self, v: &Value) -> bool {
        matches!(
            (self, v),
            (_, Value::Null)
                | (Type::Bool, Value::Bool(_))
                | (Type::Int, Value::Int(_))
                | (Type::Float, Value::Float(_))
                | (Type::Float, Value::Int(_))
                | (Type::Str, Value::Str(_))
        )
    }

    /// Parse a raw CSV field into this type. Empty string → NULL.
    pub fn parse(&self, raw: &str) -> Result<Value> {
        self.parse_key(raw).map(Key::to_value).ok_or_else(|| Error::TypeMismatch {
            attribute: String::new(),
            expected: self.to_string(),
            got: raw.into(),
        })
    }

    /// [`Type::parse`] without building the value: the field as a
    /// borrowed pool key, `None` if it does not parse as this type.
    pub(crate) fn parse_key<'a>(&self, raw: &'a str) -> Option<Key<'a>> {
        if raw.is_empty() {
            return Some(Key::Null);
        }
        match self {
            Type::Bool => match raw {
                "true" | "TRUE" | "1" | "t" => Some(Key::Bool(true)),
                "false" | "FALSE" | "0" | "f" => Some(Key::Bool(false)),
                _ => None,
            },
            Type::Int => raw.parse().ok().map(Key::Int),
            Type::Float => raw.parse().ok().map(Key::Float),
            Type::Str => Some(Key::Str(raw)),
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Bool => write!(f, "bool"),
            Type::Int => write!(f, "int"),
            Type::Float => write!(f, "float"),
            Type::Str => write!(f, "str"),
        }
    }
}

/// One attribute (column) of a relation schema.
#[derive(Clone, Debug, PartialEq)]
pub struct Attribute {
    /// Attribute name, unique within its schema.
    pub name: String,
    /// Declared type.
    pub ty: Type,
    /// If `Some`, the attribute ranges over exactly these values.
    ///
    /// Used by CFD satisfiability (finite domains make the problem
    /// NP-complete) and by the workload generators.
    pub finite_domain: Option<Vec<Value>>,
}

impl Attribute {
    /// A plain attribute with an infinite domain.
    pub fn new(name: impl Into<String>, ty: Type) -> Self {
        Attribute { name: name.into(), ty, finite_domain: None }
    }

    /// An attribute constrained to a finite set of values.
    pub fn with_domain(name: impl Into<String>, ty: Type, domain: Vec<Value>) -> Self {
        Attribute { name: name.into(), ty, finite_domain: Some(domain) }
    }

    /// True if this attribute has a declared finite domain.
    pub fn is_finite(&self) -> bool {
        self.finite_domain.is_some()
    }
}

/// The schema of a single relation: a name plus an ordered attribute list.
///
/// `Schema` is cheaply cloneable (`Arc` inside) because tables, constraint
/// sets, detectors and repairs all hold references to it.
#[derive(Clone, Debug, PartialEq)]
pub struct Schema {
    inner: Arc<SchemaInner>,
}

#[derive(Debug, PartialEq)]
struct SchemaInner {
    name: String,
    attrs: Vec<Attribute>,
    by_name: HashMap<String, AttrId>,
}

impl Schema {
    /// Build a schema from a name and attribute list.
    ///
    /// # Panics
    /// Panics if two attributes share a name — that is a programming
    /// error, not a data error.
    pub fn new(name: impl Into<String>, attrs: Vec<Attribute>) -> Self {
        let name = name.into();
        let mut by_name = HashMap::with_capacity(attrs.len());
        for (i, a) in attrs.iter().enumerate() {
            let prev = by_name.insert(a.name.clone(), i);
            assert!(prev.is_none(), "duplicate attribute `{}` in schema `{}`", a.name, name);
        }
        Schema { inner: Arc::new(SchemaInner { name, attrs, by_name }) }
    }

    /// Start a fluent builder.
    pub fn builder(name: impl Into<String>) -> SchemaBuilder {
        SchemaBuilder { name: name.into(), attrs: Vec::new() }
    }

    /// Relation name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.inner.attrs.len()
    }

    /// All attributes, in declaration order.
    pub fn attributes(&self) -> &[Attribute] {
        &self.inner.attrs
    }

    /// The attribute at `id`.
    pub fn attribute(&self, id: AttrId) -> &Attribute {
        &self.inner.attrs[id]
    }

    /// Resolve an attribute name to its position.
    pub fn attr_id(&self, name: &str) -> Result<AttrId> {
        self.inner.by_name.get(name).copied().ok_or_else(|| Error::UnknownAttribute {
            relation: self.inner.name.clone(),
            attribute: name.into(),
        })
    }

    /// Resolve several attribute names at once.
    pub fn attr_ids(&self, names: &[&str]) -> Result<Vec<AttrId>> {
        names.iter().map(|n| self.attr_id(n)).collect()
    }

    /// Attribute name at position `id`.
    pub fn attr_name(&self, id: AttrId) -> &str {
        &self.inner.attrs[id].name
    }

    /// Validate a row against this schema (arity + types).
    pub fn check_row(&self, row: &[Value]) -> Result<()> {
        if row.len() != self.arity() {
            return Err(Error::ArityMismatch { expected: self.arity(), got: row.len() });
        }
        for (a, v) in self.inner.attrs.iter().zip(row) {
            if !a.ty.admits(v) {
                return Err(Error::TypeMismatch {
                    attribute: a.name.clone(),
                    expected: a.ty.to_string(),
                    got: v.to_string(),
                });
            }
        }
        Ok(())
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name())?;
        for (i, a) in self.attributes().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", a.name, a.ty)?;
        }
        write!(f, ")")
    }
}

/// Fluent builder for [`Schema`].
pub struct SchemaBuilder {
    name: String,
    attrs: Vec<Attribute>,
}

impl SchemaBuilder {
    /// Add a plain attribute.
    pub fn attr(mut self, name: impl Into<String>, ty: Type) -> Self {
        self.attrs.push(Attribute::new(name, ty));
        self
    }

    /// Add an attribute with a finite domain.
    pub fn attr_in(mut self, name: impl Into<String>, ty: Type, domain: Vec<Value>) -> Self {
        self.attrs.push(Attribute::with_domain(name, ty, domain));
        self
    }

    /// Finish.
    pub fn build(self) -> Schema {
        Schema::new(self.name, self.attrs)
    }
}

/// A set of named relations — what the SQL engine queries against.
#[derive(Default)]
pub struct Catalog {
    tables: HashMap<String, crate::table::Table>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or replace) a table under its schema name.
    pub fn register(&mut self, table: crate::table::Table) {
        self.tables.insert(table.schema().name().to_string(), table);
    }

    /// Look up a table by relation name.
    pub fn get(&self, name: &str) -> Result<&crate::table::Table> {
        self.tables.get(name).ok_or_else(|| Error::UnknownRelation(name.into()))
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, name: &str) -> Result<&mut crate::table::Table> {
        self.tables.get_mut(name).ok_or_else(|| Error::UnknownRelation(name.into()))
    }

    /// Remove a table, returning it.
    pub fn remove(&mut self, name: &str) -> Option<crate::table::Table> {
        self.tables.remove(name)
    }

    /// Names of all registered relations (unordered).
    pub fn relation_names(&self) -> impl Iterator<Item = &str> {
        self.tables.keys().map(String::as_str)
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True if no relations are registered.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn customer() -> Schema {
        Schema::builder("customer")
            .attr_in("cc", Type::Str, vec!["01".into(), "44".into()])
            .attr("ac", Type::Str)
            .attr("phn", Type::Str)
            .attr("street", Type::Str)
            .attr("city", Type::Str)
            .attr("zip", Type::Str)
            .build()
    }

    #[test]
    fn builder_and_lookup() {
        let s = customer();
        assert_eq!(s.name(), "customer");
        assert_eq!(s.arity(), 6);
        assert_eq!(s.attr_id("zip").unwrap(), 5);
        assert_eq!(s.attr_name(0), "cc");
        assert!(s.attr_id("nope").is_err());
    }

    #[test]
    fn finite_domain_flag() {
        let s = customer();
        assert!(s.attribute(0).is_finite());
        assert!(!s.attribute(1).is_finite());
    }

    #[test]
    #[should_panic(expected = "duplicate attribute")]
    fn duplicate_attr_panics() {
        Schema::builder("r").attr("a", Type::Int).attr("a", Type::Int).build();
    }

    #[test]
    fn check_row_arity_and_types() {
        let s = Schema::builder("r").attr("a", Type::Int).attr("b", Type::Str).build();
        assert!(s.check_row(&[Value::Int(1), Value::from("x")]).is_ok());
        assert!(s.check_row(&[Value::Int(1)]).is_err());
        assert!(s.check_row(&[Value::from("x"), Value::from("y")]).is_err());
        // NULL admits everywhere.
        assert!(s.check_row(&[Value::Null, Value::Null]).is_ok());
    }

    #[test]
    fn float_admits_int() {
        let s = Schema::builder("r").attr("x", Type::Float).build();
        assert!(s.check_row(&[Value::Int(3)]).is_ok());
    }

    #[test]
    fn type_parse() {
        assert_eq!(Type::Int.parse("42").unwrap(), Value::Int(42));
        assert_eq!(Type::Float.parse("1.5").unwrap(), Value::Float(1.5));
        assert_eq!(Type::Str.parse("hi").unwrap(), Value::from("hi"));
        assert_eq!(Type::Bool.parse("true").unwrap(), Value::Bool(true));
        assert_eq!(Type::Int.parse("").unwrap(), Value::Null);
        assert!(Type::Int.parse("x").is_err());
    }

    #[test]
    fn catalog_register_get() {
        let mut c = Catalog::new();
        let t = crate::table::Table::new(customer());
        c.register(t);
        assert!(c.get("customer").is_ok());
        assert!(c.get("nope").is_err());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn schema_display() {
        let s = Schema::builder("r").attr("a", Type::Int).attr("b", Type::Str).build();
        assert_eq!(s.to_string(), "r(a: int, b: str)");
    }
}
