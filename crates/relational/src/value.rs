//! Scalar values and data types.
//!
//! The engine supports the small set of types needed by RFID analytics:
//! 64-bit integers (also used for timestamps, stored as seconds since an
//! arbitrary epoch), double-precision floats, UTF-8 strings, and booleans.
//! Every type is nullable; `Value::Null` is the untyped SQL NULL.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// The data types supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Bool,
    /// 64-bit signed integer. Timestamps are integers (seconds).
    Int,
    /// 64-bit IEEE-754 float.
    Double,
    /// UTF-8 string.
    Str,
}

impl DataType {
    /// Whether values of this type may participate in arithmetic.
    pub fn is_numeric(self) -> bool {
        matches!(self, DataType::Int | DataType::Double)
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Bool => "BOOLEAN",
            DataType::Int => "BIGINT",
            DataType::Double => "DOUBLE",
            DataType::Str => "VARCHAR",
        };
        f.write_str(s)
    }
}

/// A single scalar value. `Str` uses `Arc<str>` so that cloning a value (and
/// therefore rows flowing through operators) never copies string payloads.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Double(f64),
    Str(Arc<str>),
}

impl Value {
    /// Construct a string value.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The type of this value, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Double(_) => Some(DataType::Double),
            Value::Str(_) => Some(DataType::Str),
        }
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_double(&self) -> Option<f64> {
        match self {
            Value::Double(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// SQL comparison semantics: NULL compares as unknown (`None`).
    /// Int and Double compare numerically with each other.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Double(a), Value::Double(b)) => a.partial_cmp(b),
            (Value::Int(a), Value::Double(b)) => (*a as f64).partial_cmp(b),
            (Value::Double(a), Value::Int(b)) => a.partial_cmp(&(*b as f64)),
            (Value::Str(a), Value::Str(b)) => Some(a.as_ref().cmp(b.as_ref())),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Total order used for sorting and index keys: NULLs sort first, then by
    /// the `sql_cmp` order. Cross-type comparisons (which a well-typed plan
    /// never produces) fall back to a fixed type rank so the order is total.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) => 2,
                Value::Double(_) => 2, // numeric values share a rank
                Value::Str(_) => 3,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Null, _) => Ordering::Less,
            (_, Value::Null) => Ordering::Greater,
            (Value::Double(a), Value::Double(b)) => a.total_cmp(b),
            _ => match self.sql_cmp(other) {
                Some(o) => o,
                None => rank(self).cmp(&rank(other)),
            },
        }
    }
}

impl PartialEq for Value {
    /// Structural equality (NULL == NULL), used for result comparison in
    /// tests and for hash-join keys — *not* SQL equality.
    fn eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Double(a), Value::Double(b)) => a.to_bits() == b.to_bits(),
            (Value::Str(a), Value::Str(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        core::mem::discriminant(self).hash(state);
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            Value::Int(v) => v.hash(state),
            Value::Double(v) => v.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Double(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sql_cmp_null_is_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
    }

    #[test]
    fn sql_cmp_mixed_numeric() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Double(2.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Double(3.0).sql_cmp(&Value::Int(3)),
            Some(Ordering::Equal)
        );
    }

    #[test]
    fn total_cmp_nulls_first() {
        assert_eq!(Value::Null.total_cmp(&Value::Int(i64::MIN)), Ordering::Less);
        assert_eq!(Value::Null.total_cmp(&Value::Null), Ordering::Equal);
    }

    #[test]
    fn structural_eq_treats_null_as_equal() {
        assert_eq!(Value::Null, Value::Null);
        assert_ne!(Value::Null, Value::Int(0));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::str("abc").to_string(), "'abc'");
        assert_eq!(Value::Int(-7).to_string(), "-7");
        assert_eq!(Value::Null.to_string(), "NULL");
    }

    #[test]
    fn hash_consistent_with_eq_for_doubles() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(Value::Double(1.5));
        assert!(s.contains(&Value::Double(1.5)));
        assert!(!s.contains(&Value::Double(1.6)));
    }
}
