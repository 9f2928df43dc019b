//! Typed values with a total order.
//!
//! Every cell in a [`crate::Table`] holds a [`Value`]. The type is kept
//! deliberately small — the data-cleaning algorithms upstream compare,
//! hash and group values constantly, so `Value` must be cheap to clone
//! (strings are `Arc<str>`) and must implement `Eq + Ord + Hash` without
//! panicking (floats are compared via a NaN-normalising total order).
//!
//! NULL semantics: the cleaning literature treats NULL as *absent
//! information* rather than SQL's three-valued unknown. Equality on
//! `Value` is plain structural equality (`Null == Null`), which is what
//! violation detection wants; the SQL executor layers SQL-style
//! `IS NULL` on top where needed.

use std::borrow::Cow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A single relational value.
#[derive(Clone, Debug)]
pub enum Value {
    /// Absent / unknown value.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float; ordered/hashed via a NaN-normalising total order.
    Float(f64),
    /// Interned-ish string (cheap clones via `Arc`).
    Str(Arc<str>),
}

impl Value {
    /// String value from anything string-like.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// True iff this is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The string slice if this is a `Str`, else `None`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer if this is an `Int`, else `None`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The float if this is a `Float` (or `Int`, widened), else `None`.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The bool if this is a `Bool`, else `None`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Render the value the way the CSV writer and the CLI display it.
    ///
    /// NULL renders as the empty string; everything else via `Display`.
    pub fn render(&self) -> Cow<'_, str> {
        match self {
            Value::Null => Cow::Borrowed(""),
            Value::Str(s) => Cow::Borrowed(s),
            other => Cow::Owned(other.to_string()),
        }
    }

    /// A small integer tag used to order values of different variants.
    fn tag(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::Str(_) => 4,
        }
    }

    /// Bit pattern giving floats a total order (IEEE totalOrder trick).
    pub(crate) fn float_key(f: f64) -> u64 {
        let bits = f.to_bits();
        if bits & (1 << 63) != 0 {
            !bits
        } else {
            bits | (1 << 63)
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => Value::float_key(*a) == Value::float_key(*b),
            (Value::Str(a), Value::Str(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => Value::float_key(*a).cmp(&Value::float_key(*b)),
            // Mixed numeric comparisons order by numeric value first, so
            // that `ORDER BY` over a column mixing Int/Float is sane.
            (Value::Int(a), Value::Float(b)) => match (*a as f64).partial_cmp(b) {
                Some(Ordering::Equal) | None => self.tag().cmp(&other.tag()),
                Some(ord) => ord,
            },
            (Value::Float(a), Value::Int(b)) => match a.partial_cmp(&(*b as f64)) {
                Some(Ordering::Equal) | None => self.tag().cmp(&other.tag()),
                Some(ord) => ord,
            },
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            _ => self.tag().cmp(&other.tag()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.tag().hash(state);
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            Value::Int(i) => i.hash(state),
            Value::Float(f) => Value::float_key(*f).hash(state),
            Value::Str(s) => s.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(Arc::from(s.as_str()))
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(o: Option<T>) -> Self {
        o.map(Into::into).unwrap_or(Value::Null)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn null_equals_null() {
        assert_eq!(Value::Null, Value::Null);
        assert!(Value::Null.is_null());
    }

    #[test]
    fn string_cheap_clone_equality() {
        let a = Value::from("hello");
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn float_nan_is_self_equal_and_hash_consistent() {
        let a = Value::Float(f64::NAN);
        let b = Value::Float(f64::NAN);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
        assert_eq!(a.cmp(&b), std::cmp::Ordering::Equal);
    }

    #[test]
    fn float_total_order() {
        let mut vs = [
            Value::Float(1.5),
            Value::Float(-0.0),
            Value::Float(f64::NEG_INFINITY),
            Value::Float(0.0),
            Value::Float(f64::INFINITY),
            Value::Float(-3.25),
        ];
        vs.sort();
        assert_eq!(vs[0], Value::Float(f64::NEG_INFINITY));
        assert_eq!(*vs.last().unwrap(), Value::Float(f64::INFINITY));
        // -0.0 sorts before +0.0 under totalOrder but they are distinct keys.
        let neg_zero_pos = vs
            .iter()
            .position(|v| matches!(v, Value::Float(f) if f.to_bits() == (-0.0f64).to_bits()))
            .unwrap();
        let pos_zero_pos = vs
            .iter()
            .position(|v| matches!(v, Value::Float(f) if f.to_bits() == 0.0f64.to_bits()))
            .unwrap();
        assert!(neg_zero_pos < pos_zero_pos);
    }

    #[test]
    fn cross_type_order_is_stable() {
        let mut vs =
            [Value::from("abc"), Value::Int(3), Value::Null, Value::Bool(true), Value::Float(2.5)];
        vs.sort();
        assert_eq!(vs[0], Value::Null);
        assert_eq!(*vs.last().unwrap(), Value::from("abc"));
    }

    #[test]
    fn mixed_numeric_order() {
        assert!(Value::Int(1) < Value::Float(1.5));
        assert!(Value::Float(0.5) < Value::Int(1));
        // Equal numerics tie-break by tag, deterministically.
        assert!(Value::Int(2) < Value::Float(2.0));
    }

    #[test]
    fn render_roundtrip() {
        assert_eq!(Value::Null.render(), "");
        assert_eq!(Value::from("x").render(), "x");
        assert_eq!(Value::Int(42).render(), "42");
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Int(7).as_float(), Some(7.0));
        assert_eq!(Value::Float(1.5).as_float(), Some(1.5));
        assert_eq!(Value::from("s").as_str(), Some("s"));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::from("s").as_int(), None);
    }

    #[test]
    fn option_conversion() {
        let v: Value = Option::<i64>::None.into();
        assert!(v.is_null());
        let v: Value = Some(3i64).into();
        assert_eq!(v, Value::Int(3));
    }
}
