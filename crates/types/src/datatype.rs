//! Data types supported by the dbTouch storage engine.
//!
//! The paper's prototype stores data in "fixed-width dense arrays or matrixes":
//! fixed-width fields per attribute make the touch-location → tuple-identifier
//! mapping a pure arithmetic operation (no slotted-page metadata lookups). We
//! therefore support only fixed-width types; variable-length strings are stored
//! as fixed-width, padded byte arrays with a per-column width.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The physical data type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    /// 64-bit signed integer.
    Int64,
    /// 64-bit IEEE-754 floating point.
    Float64,
    /// Boolean stored as one byte.
    Bool,
    /// Fixed-width UTF-8 string padded with zero bytes; the parameter is the
    /// width in bytes.
    FixedStr(u16),
    /// Timestamp in milliseconds since an arbitrary epoch, stored as `i64`.
    TimestampMillis,
}

impl DataType {
    /// Width of one value of this type in bytes. Because every type is
    /// fixed-width, the byte offset of row `i` in a dense column is simply
    /// `i * width_bytes()`.
    pub fn width_bytes(&self) -> usize {
        match self {
            DataType::Int64 | DataType::Float64 | DataType::TimestampMillis => 8,
            DataType::Bool => 1,
            DataType::FixedStr(w) => *w as usize,
        }
    }

    /// True if values of this type can participate in numeric aggregation
    /// (sum/avg/min/max over numbers).
    pub fn is_numeric(&self) -> bool {
        matches!(
            self,
            DataType::Int64 | DataType::Float64 | DataType::TimestampMillis
        )
    }

    /// True if the type is an integer-like type.
    pub fn is_integer(&self) -> bool {
        matches!(self, DataType::Int64 | DataType::TimestampMillis)
    }

    /// Short lowercase name used in catalog listings and error messages.
    pub fn name(&self) -> String {
        match self {
            DataType::Int64 => "int64".to_string(),
            DataType::Float64 => "float64".to_string(),
            DataType::Bool => "bool".to_string(),
            DataType::FixedStr(w) => format!("str{w}"),
            DataType::TimestampMillis => "timestamp".to_string(),
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_are_fixed() {
        assert_eq!(DataType::Int64.width_bytes(), 8);
        assert_eq!(DataType::Float64.width_bytes(), 8);
        assert_eq!(DataType::TimestampMillis.width_bytes(), 8);
        assert_eq!(DataType::Bool.width_bytes(), 1);
        assert_eq!(DataType::FixedStr(16).width_bytes(), 16);
        assert_eq!(DataType::FixedStr(0).width_bytes(), 0);
    }

    #[test]
    fn numeric_classification() {
        assert!(DataType::Int64.is_numeric());
        assert!(DataType::Float64.is_numeric());
        assert!(DataType::TimestampMillis.is_numeric());
        assert!(!DataType::Bool.is_numeric());
        assert!(!DataType::FixedStr(8).is_numeric());
    }

    #[test]
    fn integer_classification() {
        assert!(DataType::Int64.is_integer());
        assert!(!DataType::Float64.is_integer());
    }

    #[test]
    fn display_names() {
        assert_eq!(DataType::Int64.to_string(), "int64");
        assert_eq!(DataType::FixedStr(32).to_string(), "str32");
        assert_eq!(DataType::TimestampMillis.to_string(), "timestamp");
    }

    #[test]
    fn serde_round_trip() {
        let t = DataType::FixedStr(12);
        let s = serde_json_like(&t);
        assert!(s.contains("FixedStr"));
    }

    /// Minimal check that serde derives exist without depending on serde_json here.
    fn serde_json_like(t: &DataType) -> String {
        format!("{t:?}")
    }
}
