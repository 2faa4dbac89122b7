//! SQL values and data types.
//!
//! [`Value`] is the engine's dynamically typed cell value. Comparisons follow
//! SQL three-valued logic where NULL is involved (see [`Value::sql_eq`] and
//! [`Value::sql_cmp`]); a separate *total* order ([`Value::total_cmp`]) is
//! used for index keys and ORDER BY so that NULLs and mixed types sort
//! deterministically.

use std::cmp::Ordering;
use std::fmt;

use crate::error::{Error, Result};

/// The declared type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer (`INT`, `INTEGER`, `BIGINT`).
    Int,
    /// 64-bit IEEE float (`FLOAT`, `DOUBLE`, `REAL`).
    Float,
    /// UTF-8 string (`TEXT`, `VARCHAR(n)` — length is not enforced).
    Text,
    /// Boolean (`BOOL`, `BOOLEAN`).
    Bool,
    /// Raw bytes (`BLOB`).
    Bytes,
}

impl DataType {
    /// Parses a SQL type name, ignoring any length suffix.
    pub fn from_sql_name(name: &str) -> Option<DataType> {
        let base = name.split('(').next().unwrap_or(name).trim();
        match base.to_ascii_uppercase().as_str() {
            "INT" | "INTEGER" | "BIGINT" | "SMALLINT" | "TINYINT" | "MEDIUMINT" | "TIMESTAMP"
            | "DATETIME" => Some(DataType::Int),
            "FLOAT" | "DOUBLE" | "REAL" | "DECIMAL" | "NUMERIC" => Some(DataType::Float),
            "TEXT" | "VARCHAR" | "CHAR" | "MEDIUMTEXT" | "LONGTEXT" | "VARBINARY" => {
                Some(DataType::Text)
            }
            "BOOL" | "BOOLEAN" => Some(DataType::Bool),
            "BLOB" | "BYTES" | "LONGBLOB" => Some(DataType::Bytes),
            _ => None,
        }
    }

    /// The canonical SQL name of this type.
    pub fn sql_name(&self) -> &'static str {
        match self {
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Text => "TEXT",
            DataType::Bool => "BOOL",
            DataType::Bytes => "BLOB",
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.sql_name())
    }
}

/// A dynamically typed SQL cell value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Integer.
    Int(i64),
    /// Floating-point number.
    Float(f64),
    /// String.
    Text(String),
    /// Boolean.
    Bool(bool),
    /// Byte string.
    Bytes(Vec<u8>),
}

impl Value {
    /// Returns `true` if this value is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The runtime [`DataType`] of this value, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Text(_) => Some(DataType::Text),
            Value::Bool(_) => Some(DataType::Bool),
            Value::Bytes(_) => Some(DataType::Bytes),
        }
    }

    /// Coerces this value to the given column type, if a lossless or
    /// conventional SQL coercion exists (e.g. `Int` → `Float`, `Bool` → `Int`).
    pub fn coerce_to(&self, ty: DataType) -> Result<Value> {
        let mismatch = |found: &Value| Error::TypeMismatch {
            expected: ty.sql_name().to_string(),
            found: found
                .data_type()
                .map(|t| t.sql_name().to_string())
                .unwrap_or_else(|| "NULL".to_string()),
        };
        match (self, ty) {
            (Value::Null, _) => Ok(Value::Null),
            (Value::Int(i), DataType::Int) => Ok(Value::Int(*i)),
            (Value::Int(i), DataType::Float) => Ok(Value::Float(*i as f64)),
            (Value::Int(i), DataType::Bool) => Ok(Value::Bool(*i != 0)),
            (Value::Int(i), DataType::Text) => Ok(Value::Text(i.to_string())),
            (Value::Float(x), DataType::Float) => Ok(Value::Float(*x)),
            (Value::Float(x), DataType::Int) if x.fract() == 0.0 => Ok(Value::Int(*x as i64)),
            (Value::Bool(b), DataType::Bool) => Ok(Value::Bool(*b)),
            (Value::Bool(b), DataType::Int) => Ok(Value::Int(i64::from(*b))),
            (Value::Text(s), DataType::Text) => Ok(Value::Text(s.clone())),
            (Value::Text(s), DataType::Int) => {
                s.parse::<i64>().map(Value::Int).map_err(|_| mismatch(self))
            }
            (Value::Text(s), DataType::Float) => s
                .parse::<f64>()
                .map(Value::Float)
                .map_err(|_| mismatch(self)),
            (Value::Bytes(b), DataType::Bytes) => Ok(Value::Bytes(b.clone())),
            (v, _) => Err(mismatch(v)),
        }
    }

    /// SQL equality: returns `None` if either side is NULL.
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(match (self, other) {
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a == b,
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => {
                (*a as f64) == *b
            }
            (Value::Text(a), Value::Text(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Bool(a), Value::Int(b)) | (Value::Int(b), Value::Bool(a)) => {
                i64::from(*a) == *b
            }
            (Value::Bytes(a), Value::Bytes(b)) => a == b,
            _ => false,
        })
    }

    /// SQL ordering comparison: returns `None` if either side is NULL or the
    /// types are not comparable.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        if self.is_null() || other.is_null() {
            return None;
        }
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Float(a), Value::Float(b)) => a.partial_cmp(b),
            (Value::Int(a), Value::Float(b)) => (*a as f64).partial_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.partial_cmp(&(*b as f64)),
            (Value::Text(a), Value::Text(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Bytes(a), Value::Bytes(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// A *total* order over all values, used for index keys and ORDER BY.
    ///
    /// NULL sorts first, then booleans, numbers (ints and floats mixed),
    /// text, and bytes. NaN sorts after all other floats, and -0.0 equals
    /// 0.0, as `=` has them, so an index finds both zeros for either.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn numbers(a: f64, b: f64) -> Ordering {
            if a == b {
                Ordering::Equal
            } else {
                a.total_cmp(&b)
            }
        }
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Float(_) => 2,
                Value::Text(_) => 3,
                Value::Bytes(_) => 4,
            }
        }
        let (ra, rb) = (rank(self), rank(other));
        if ra != rb {
            return ra.cmp(&rb);
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => numbers(*a, *b),
            (Value::Int(a), Value::Float(b)) => numbers(*a as f64, *b),
            (Value::Float(a), Value::Int(b)) => numbers(*a, *b as f64),
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            (Value::Bytes(a), Value::Bytes(b)) => a.cmp(b),
            _ => Ordering::Equal,
        }
    }

    /// Renders this value as a SQL literal (strings quoted and escaped).
    pub fn to_sql_literal(&self) -> String {
        match self {
            Value::Null => "NULL".to_string(),
            Value::Int(i) => i.to_string(),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.is_finite() {
                    format!("{x:.1}")
                } else {
                    format!("{x}")
                }
            }
            Value::Text(s) => format!("'{}'", s.replace('\'', "''")),
            Value::Bool(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
            Value::Bytes(b) => {
                let mut out = String::with_capacity(b.len() * 2 + 3);
                out.push_str("X'");
                for byte in b {
                    out.push_str(&format!("{byte:02X}"));
                }
                out.push('\'');
                out
            }
        }
    }

    /// Extracts an `i64`, coercing bools; errors on other types.
    pub fn as_int(&self) -> Result<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            Value::Bool(b) => Ok(i64::from(*b)),
            other => Err(Error::TypeMismatch {
                expected: "INT".to_string(),
                found: other
                    .data_type()
                    .map(|t| t.sql_name().to_string())
                    .unwrap_or_else(|| "NULL".to_string()),
            }),
        }
    }

    /// Extracts a `&str`; errors on non-text values.
    pub fn as_text(&self) -> Result<&str> {
        match self {
            Value::Text(s) => Ok(s),
            other => Err(Error::TypeMismatch {
                expected: "TEXT".to_string(),
                found: other
                    .data_type()
                    .map(|t| t.sql_name().to_string())
                    .unwrap_or_else(|| "NULL".to_string()),
            }),
        }
    }

    /// Extracts a `bool` using SQL truthiness (nonzero ints are true).
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            Value::Int(i) => Ok(*i != 0),
            other => Err(Error::TypeMismatch {
                expected: "BOOL".to_string(),
                found: other
                    .data_type()
                    .map(|t| t.sql_name().to_string())
                    .unwrap_or_else(|| "NULL".to_string()),
            }),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Text(s) => f.write_str(s),
            Value::Bool(b) => f.write_str(if *b { "TRUE" } else { "FALSE" }),
            Value::Bytes(b) => write!(f, "<{} bytes>", b.len()),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(i64::from(v))
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(i64::from(v))
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::Bytes(v)
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        match v {
            Some(x) => x.into(),
            None => Value::Null,
        }
    }
}

/// A stored row: one [`Value`] per schema column, in schema order.
pub type Row = Vec<Value>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_propagates_through_sql_eq() {
        assert_eq!(Value::Null.sql_eq(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Null), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(1)), Some(true));
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(2)), Some(false));
    }

    #[test]
    fn mixed_numeric_comparison() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.5)),
            Some(Ordering::Less)
        );
        assert_eq!(Value::Float(3.0).sql_eq(&Value::Int(3)), Some(true));
    }

    #[test]
    fn total_order_ranks_null_first() {
        assert_eq!(Value::Null.total_cmp(&Value::Int(i64::MIN)), Ordering::Less);
        assert_eq!(
            Value::Text("a".into()).total_cmp(&Value::Int(9)),
            Ordering::Greater
        );
    }

    #[test]
    fn literal_round_trip_escaping() {
        assert_eq!(Value::Text("O'Brien".into()).to_sql_literal(), "'O''Brien'");
        assert_eq!(Value::Null.to_sql_literal(), "NULL");
        assert_eq!(Value::Bytes(vec![0xde, 0xad]).to_sql_literal(), "X'DEAD'");
    }

    #[test]
    fn coercions() {
        assert_eq!(
            Value::Int(1).coerce_to(DataType::Bool).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            Value::Text("42".into()).coerce_to(DataType::Int).unwrap(),
            Value::Int(42)
        );
        assert!(Value::Text("x".into()).coerce_to(DataType::Int).is_err());
        assert_eq!(Value::Null.coerce_to(DataType::Int).unwrap(), Value::Null);
    }

    #[test]
    fn type_parsing_ignores_length() {
        assert_eq!(
            DataType::from_sql_name("VARCHAR(255)"),
            Some(DataType::Text)
        );
        assert_eq!(DataType::from_sql_name("int"), Some(DataType::Int));
        assert_eq!(DataType::from_sql_name("weird"), None);
    }
}
