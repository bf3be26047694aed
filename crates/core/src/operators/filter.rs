//! Selection predicates ("where" restrictions on a scan).
//!
//! Section 2.9: "the slide gesture can be used in order to run any kind of
//! aggregate over a column object or to perform selections by posing a where
//! restriction to the scan." A predicate is evaluated per touched value (or per
//! summary window); values failing the predicate are simply not delivered and
//! not aggregated.

use dbtouch_types::{Result, Value};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// A comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CompareOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

dbtouch_types::wire_enum!(CompareOp {
    0 => Eq,
    1 => Ne,
    2 => Lt,
    3 => Le,
    4 => Gt,
    5 => Ge,
});

impl CompareOp {
    fn matches(&self, ordering: Ordering) -> bool {
        match self {
            CompareOp::Eq => ordering == Ordering::Equal,
            CompareOp::Ne => ordering != Ordering::Equal,
            CompareOp::Lt => ordering == Ordering::Less,
            CompareOp::Le => ordering != Ordering::Greater,
            CompareOp::Gt => ordering == Ordering::Greater,
            CompareOp::Ge => ordering != Ordering::Less,
        }
    }

    /// SQL-ish symbol for display.
    pub fn symbol(&self) -> &'static str {
        match self {
            CompareOp::Eq => "=",
            CompareOp::Ne => "!=",
            CompareOp::Lt => "<",
            CompareOp::Le => "<=",
            CompareOp::Gt => ">",
            CompareOp::Ge => ">=",
        }
    }
}

/// A predicate over a single value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Predicate {
    /// Compare the value against a constant.
    Compare {
        /// Comparison operator.
        op: CompareOp,
        /// Constant to compare against.
        value: Value,
    },
    /// True when the value falls in `[low, high]` (inclusive).
    Between {
        /// Lower bound.
        low: Value,
        /// Upper bound.
        high: Value,
    },
    /// Conjunction of predicates (all must hold).
    And(Vec<Predicate>),
    /// Disjunction of predicates (any may hold).
    Or(Vec<Predicate>),
    /// Negation of a predicate.
    Not(Box<Predicate>),
}

dbtouch_types::wire_enum!(Predicate {
    0 => Compare { op: CompareOp, value: Value },
    1 => Between { low: Value, high: Value },
    2 => And(all: Vec<Predicate>),
    3 => Or(any: Vec<Predicate>),
    4 => Not(inner: Box<Predicate>),
});

impl Predicate {
    /// Convenience constructor for a comparison predicate.
    pub fn compare(op: CompareOp, value: impl Into<Value>) -> Predicate {
        Predicate::Compare {
            op,
            value: value.into(),
        }
    }

    /// Convenience constructor for a between predicate.
    pub fn between(low: impl Into<Value>, high: impl Into<Value>) -> Predicate {
        Predicate::Between {
            low: low.into(),
            high: high.into(),
        }
    }

    /// Evaluate the predicate against a value.
    pub fn eval(&self, value: &Value) -> Result<bool> {
        Ok(match self {
            Predicate::Compare { op, value: rhs } => op.matches(value.total_cmp(rhs)),
            Predicate::Between { low, high } => {
                value.total_cmp(low) != Ordering::Less && value.total_cmp(high) != Ordering::Greater
            }
            Predicate::And(ps) => {
                for p in ps {
                    if !p.eval(value)? {
                        return Ok(false);
                    }
                }
                true
            }
            Predicate::Or(ps) => {
                for p in ps {
                    if p.eval(value)? {
                        return Ok(true);
                    }
                }
                false
            }
            Predicate::Not(p) => !p.eval(value)?,
        })
    }

    /// The numeric bounds `[lo, hi]` the predicate can restrict a value to, if
    /// derivable. Used to exploit zone-map indexes during filtered slides.
    pub fn numeric_bounds(&self) -> Option<(f64, f64)> {
        match self {
            Predicate::Compare { op, value } => {
                let v = value.as_f64().ok()?;
                Some(match op {
                    CompareOp::Eq => (v, v),
                    CompareOp::Lt | CompareOp::Le => (f64::NEG_INFINITY, v),
                    CompareOp::Gt | CompareOp::Ge => (v, f64::INFINITY),
                    CompareOp::Ne => return None,
                })
            }
            Predicate::Between { low, high } => Some((low.as_f64().ok()?, high.as_f64().ok()?)),
            Predicate::And(ps) => {
                let mut lo = f64::NEG_INFINITY;
                let mut hi = f64::INFINITY;
                let mut any = false;
                for p in ps {
                    if let Some((l, h)) = p.numeric_bounds() {
                        lo = lo.max(l);
                        hi = hi.min(h);
                        any = true;
                    }
                }
                any.then_some((lo, hi))
            }
            _ => None,
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::Compare { op, value } => write!(f, "x {} {}", op.symbol(), value),
            Predicate::Between { low, high } => write!(f, "x between {low} and {high}"),
            Predicate::And(ps) => {
                let parts: Vec<String> = ps.iter().map(|p| p.to_string()).collect();
                write!(f, "({})", parts.join(" and "))
            }
            Predicate::Or(ps) => {
                let parts: Vec<String> = ps.iter().map(|p| p.to_string()).collect();
                write!(f, "({})", parts.join(" or "))
            }
            Predicate::Not(p) => write!(f, "not {p}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtouch_types::wire::{decode, encode, MAX_NESTING};

    #[test]
    fn predicate_depth_limit_rejects_deep_nesting() {
        let nested = |levels, wrap: fn(Predicate) -> Predicate| {
            let mut p = Predicate::compare(CompareOp::Eq, 1.0);
            for _ in 0..levels {
                p = wrap(p);
            }
            encode(&p)
        };
        let not = |p| Predicate::Not(Box::new(p));
        let and = |p| Predicate::And(vec![p]);
        for wrap in [not as fn(Predicate) -> Predicate, and] {
            assert!(decode::<Predicate>(&nested(MAX_NESTING, wrap)).is_ok());
            assert!(decode::<Predicate>(&nested(MAX_NESTING + 1, wrap)).is_err());
        }
    }

    #[test]
    fn comparisons() {
        let v = Value::Int(5);
        assert!(Predicate::compare(CompareOp::Eq, 5i64).eval(&v).unwrap());
        assert!(Predicate::compare(CompareOp::Ne, 4i64).eval(&v).unwrap());
        assert!(Predicate::compare(CompareOp::Lt, 6i64).eval(&v).unwrap());
        assert!(Predicate::compare(CompareOp::Le, 5i64).eval(&v).unwrap());
        assert!(Predicate::compare(CompareOp::Gt, 4i64).eval(&v).unwrap());
        assert!(Predicate::compare(CompareOp::Ge, 5i64).eval(&v).unwrap());
        assert!(!Predicate::compare(CompareOp::Gt, 5i64).eval(&v).unwrap());
    }

    #[test]
    fn mixed_numeric_comparison() {
        // ints compare against float constants via total numeric ordering
        assert!(Predicate::compare(CompareOp::Gt, 4.5f64)
            .eval(&Value::Int(5))
            .unwrap());
        assert!(!Predicate::compare(CompareOp::Gt, 5.5f64)
            .eval(&Value::Int(5))
            .unwrap());
    }

    #[test]
    fn between_inclusive() {
        let p = Predicate::between(10i64, 20i64);
        assert!(p.eval(&Value::Int(10)).unwrap());
        assert!(p.eval(&Value::Int(20)).unwrap());
        assert!(p.eval(&Value::Int(15)).unwrap());
        assert!(!p.eval(&Value::Int(9)).unwrap());
        assert!(!p.eval(&Value::Int(21)).unwrap());
    }

    #[test]
    fn boolean_combinators() {
        let p = Predicate::And(vec![
            Predicate::compare(CompareOp::Ge, 0i64),
            Predicate::compare(CompareOp::Lt, 10i64),
        ]);
        assert!(p.eval(&Value::Int(5)).unwrap());
        assert!(!p.eval(&Value::Int(15)).unwrap());

        let q = Predicate::Or(vec![
            Predicate::compare(CompareOp::Lt, 0i64),
            Predicate::compare(CompareOp::Gt, 100i64),
        ]);
        assert!(q.eval(&Value::Int(-1)).unwrap());
        assert!(q.eval(&Value::Int(101)).unwrap());
        assert!(!q.eval(&Value::Int(50)).unwrap());

        let n = Predicate::Not(Box::new(Predicate::compare(CompareOp::Eq, 3i64)));
        assert!(n.eval(&Value::Int(4)).unwrap());
        assert!(!n.eval(&Value::Int(3)).unwrap());
    }

    #[test]
    fn string_predicates() {
        let p = Predicate::compare(CompareOp::Eq, "error");
        assert!(p.eval(&Value::Str("error".into())).unwrap());
        assert!(!p.eval(&Value::Str("ok".into())).unwrap());
    }

    #[test]
    fn numeric_bounds_extraction() {
        assert_eq!(
            Predicate::between(5i64, 10i64).numeric_bounds(),
            Some((5.0, 10.0))
        );
        assert_eq!(
            Predicate::compare(CompareOp::Eq, 3i64).numeric_bounds(),
            Some((3.0, 3.0))
        );
        let (lo, hi) = Predicate::compare(CompareOp::Gt, 7i64)
            .numeric_bounds()
            .unwrap();
        assert_eq!(lo, 7.0);
        assert!(hi.is_infinite());
        let and = Predicate::And(vec![
            Predicate::compare(CompareOp::Ge, 0i64),
            Predicate::compare(CompareOp::Le, 9i64),
        ]);
        assert_eq!(and.numeric_bounds(), Some((0.0, 9.0)));
        assert_eq!(
            Predicate::compare(CompareOp::Ne, 3i64).numeric_bounds(),
            None
        );
        assert_eq!(
            Predicate::compare(CompareOp::Eq, "abc").numeric_bounds(),
            None
        );
    }

    #[test]
    fn display_forms() {
        assert_eq!(Predicate::compare(CompareOp::Gt, 5i64).to_string(), "x > 5");
        assert_eq!(
            Predicate::between(1i64, 2i64).to_string(),
            "x between 1 and 2"
        );
    }
}
