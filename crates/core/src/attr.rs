//! Attribute values `V`, relational operators `OP_R`, and attribute
//! aggregation functions `g_v` (Eq. 4.2).

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A single attribute value of an event or observation.
///
/// "A sensor ... converts physical phenomena into information, which
/// contains the attributes" (Sec. 3). Numeric variants participate in
/// aggregation; text and boolean attributes are compared via
/// [`AttrValue::as_f64`] coercion (booleans) or excluded (text).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AttrValue {
    /// A real-valued measurement (temperature, range, ...).
    Float(f64),
    /// An integer count or code.
    Int(i64),
    /// A boolean flag (light on/off, door open, ...).
    Bool(bool),
    /// Free-form text (labels, identities).
    Text(String),
}

impl AttrValue {
    /// Numeric view of the value, if one exists.
    ///
    /// Floats map to themselves, integers widen, booleans map to 0/1, and
    /// text has no numeric view.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            AttrValue::Float(v) => Some(*v),
            AttrValue::Int(v) => Some(*v as f64),
            AttrValue::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            AttrValue::Text(_) => None,
        }
    }

    /// The boolean view, if the value is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            AttrValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The text view, if the value is text.
    #[must_use]
    pub fn as_text(&self) -> Option<&str> {
        match self {
            AttrValue::Text(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::Float(v) => write!(f, "{v}"),
            AttrValue::Int(v) => write!(f, "{v}"),
            AttrValue::Bool(b) => write!(f, "{b}"),
            AttrValue::Text(s) => write!(f, "{s:?}"),
        }
    }
}

impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::Float(v)
    }
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::Int(v)
    }
}

impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Text(v.to_owned())
    }
}

/// The attribute set `V` of an event, observation, or instance (Eq. 4.1).
///
/// A deterministic (sorted) map from attribute name to value.
///
/// # Example
///
/// ```
/// use stem_core::Attributes;
///
/// let mut v = Attributes::new();
/// v.set("temp", 21.5);
/// v.set("occupied", true);
/// assert_eq!(v.get_f64("temp"), Some(21.5));
/// assert_eq!(v.get_f64("occupied"), Some(1.0));
/// assert_eq!(v.get_f64("missing"), None);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Attributes(BTreeMap<String, AttrValue>);

impl Attributes {
    /// Creates an empty attribute set.
    #[must_use]
    pub fn new() -> Self {
        Attributes(BTreeMap::new())
    }

    /// Sets an attribute, replacing any previous value.
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<AttrValue>) {
        self.0.insert(key.into(), value.into());
    }

    /// Builder-style insertion.
    #[must_use]
    pub fn with(mut self, key: impl Into<String>, value: impl Into<AttrValue>) -> Self {
        self.set(key, value);
        self
    }

    /// Looks up an attribute.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&AttrValue> {
        self.0.get(key)
    }

    /// Looks up an attribute's numeric view.
    #[must_use]
    pub fn get_f64(&self, key: &str) -> Option<f64> {
        self.0.get(key).and_then(AttrValue::as_f64)
    }

    /// Number of attributes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` if no attributes are set.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterates over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &AttrValue)> {
        self.0.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Merges `other` into `self`, with `other` winning on conflicts.
    pub fn merge(&mut self, other: &Attributes) {
        for (k, v) in &other.0 {
            self.0.insert(k.clone(), v.clone());
        }
    }
}

impl FromIterator<(String, AttrValue)> for Attributes {
    fn from_iter<I: IntoIterator<Item = (String, AttrValue)>>(iter: I) -> Self {
        Attributes(iter.into_iter().collect())
    }
}

impl fmt::Display for Attributes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (k, v)) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}={v}")?;
        }
        write!(f, "}}")
    }
}

/// A relational operator `OP_R` from Eq. 4.2: "relational operators such
/// as *Greater, Equal, Less*", completed with the non-strict and negated
/// forms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RelationalOp {
    /// Strictly less than.
    Less,
    /// Less than or equal.
    LessEq,
    /// Strictly greater than.
    Greater,
    /// Greater than or equal.
    GreaterEq,
    /// Equal (within `1e-9` tolerance).
    Equal,
    /// Not equal (outside `1e-9` tolerance).
    NotEqual,
}

impl RelationalOp {
    /// Evaluates `lhs OP_R rhs`.
    #[must_use]
    pub fn eval(self, lhs: f64, rhs: f64) -> bool {
        const TOL: f64 = 1e-9;
        match self {
            RelationalOp::Less => lhs < rhs,
            RelationalOp::LessEq => lhs <= rhs,
            RelationalOp::Greater => lhs > rhs,
            RelationalOp::GreaterEq => lhs >= rhs,
            RelationalOp::Equal => (lhs - rhs).abs() <= TOL,
            RelationalOp::NotEqual => (lhs - rhs).abs() > TOL,
        }
    }

    /// The symbolic form (`<, <=, >, >=, ==, !=`).
    #[must_use]
    pub fn symbol(self) -> &'static str {
        match self {
            RelationalOp::Less => "<",
            RelationalOp::LessEq => "<=",
            RelationalOp::Greater => ">",
            RelationalOp::GreaterEq => ">=",
            RelationalOp::Equal => "==",
            RelationalOp::NotEqual => "!=",
        }
    }

    /// Parses the symbolic form.
    #[must_use]
    pub fn from_symbol(s: &str) -> Option<Self> {
        Some(match s {
            "<" => RelationalOp::Less,
            "<=" => RelationalOp::LessEq,
            ">" => RelationalOp::Greater,
            ">=" => RelationalOp::GreaterEq,
            "==" | "=" => RelationalOp::Equal,
            "!=" => RelationalOp::NotEqual,
            _ => return None,
        })
    }

    /// The logically negated operator.
    #[must_use]
    pub fn negated(self) -> RelationalOp {
        match self {
            RelationalOp::Less => RelationalOp::GreaterEq,
            RelationalOp::LessEq => RelationalOp::Greater,
            RelationalOp::Greater => RelationalOp::LessEq,
            RelationalOp::GreaterEq => RelationalOp::Less,
            RelationalOp::Equal => RelationalOp::NotEqual,
            RelationalOp::NotEqual => RelationalOp::Equal,
        }
    }
}

impl fmt::Display for RelationalOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// An attribute aggregation function `g_v` from Eq. 4.2: "an aggregation
/// function, e.g., *Average, Max, Add*".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AttrAggregate {
    /// Arithmetic mean.
    Average,
    /// Sum (the paper's *Add*).
    Sum,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Number of inputs.
    Count,
}

impl AttrAggregate {
    /// Applies the aggregate to the numeric attribute values of the
    /// entities. Returns `None` on empty input (except [`AttrAggregate::Count`],
    /// which is 0).
    #[must_use]
    pub fn apply(self, values: &[f64]) -> Option<f64> {
        self.fold(values.iter().copied())
    }

    /// [`AttrAggregate::apply`] over a stream of values, in one pass and
    /// without buffering them.
    #[must_use]
    pub(crate) fn fold(self, values: impl IntoIterator<Item = f64>) -> Option<f64> {
        let mut n = 0usize;
        let values = values.into_iter().inspect(|_| n += 1);
        let acc = match self {
            AttrAggregate::Count => return Some(values.count() as f64),
            AttrAggregate::Average | AttrAggregate::Sum => values.sum::<f64>(),
            AttrAggregate::Min => values.reduce(f64::min)?,
            AttrAggregate::Max => values.reduce(f64::max)?,
        };
        match self {
            _ if n == 0 => None,
            AttrAggregate::Average => Some(acc / n as f64),
            _ => Some(acc),
        }
    }

    /// Parses the aggregate from its canonical lowercase name
    /// (`avg, sum, min, max, count`).
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "avg" => AttrAggregate::Average,
            "sum" => AttrAggregate::Sum,
            "min" => AttrAggregate::Min,
            "max" => AttrAggregate::Max,
            "count" => AttrAggregate::Count,
            _ => return None,
        })
    }

    /// The canonical lowercase name (inverse of [`AttrAggregate::from_name`]).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AttrAggregate::Average => "avg",
            AttrAggregate::Sum => "sum",
            AttrAggregate::Min => "min",
            AttrAggregate::Max => "max",
            AttrAggregate::Count => "count",
        }
    }
}

impl fmt::Display for AttrAggregate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn attr_value_numeric_views() {
        assert_eq!(AttrValue::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(AttrValue::Int(-3).as_f64(), Some(-3.0));
        assert_eq!(AttrValue::Bool(true).as_f64(), Some(1.0));
        assert_eq!(AttrValue::Text("x".into()).as_f64(), None);
        assert_eq!(AttrValue::Bool(false).as_bool(), Some(false));
        assert_eq!(AttrValue::Text("hi".into()).as_text(), Some("hi"));
        assert_eq!(AttrValue::Float(1.0).as_text(), None);
    }

    #[test]
    fn attributes_set_get_merge() {
        let mut a = Attributes::new().with("temp", 20.0).with("name", "lab");
        assert_eq!(a.len(), 2);
        let b = Attributes::new().with("temp", 25.0).with("hum", 0.4);
        a.merge(&b);
        assert_eq!(a.get_f64("temp"), Some(25.0), "merge overwrites");
        assert_eq!(a.get_f64("hum"), Some(0.4));
        assert_eq!(a.get("name").and_then(AttrValue::as_text), Some("lab"));
    }

    #[test]
    fn attributes_display_is_sorted_and_nonempty() {
        let a = Attributes::new().with("b", 2.0).with("a", 1.0);
        assert_eq!(a.to_string(), "{a=1, b=2}");
        assert_eq!(Attributes::new().to_string(), "{}");
    }

    #[test]
    fn relational_ops_evaluate() {
        assert!(RelationalOp::Less.eval(1.0, 2.0));
        assert!(RelationalOp::LessEq.eval(2.0, 2.0));
        assert!(RelationalOp::Greater.eval(3.0, 2.0));
        assert!(RelationalOp::GreaterEq.eval(2.0, 2.0));
        assert!(RelationalOp::Equal.eval(2.0, 2.0 + 1e-12));
        assert!(RelationalOp::NotEqual.eval(2.0, 2.1));
    }

    #[test]
    fn relational_symbols_round_trip() {
        for op in [
            RelationalOp::Less,
            RelationalOp::LessEq,
            RelationalOp::Greater,
            RelationalOp::GreaterEq,
            RelationalOp::Equal,
            RelationalOp::NotEqual,
        ] {
            assert_eq!(RelationalOp::from_symbol(op.symbol()), Some(op));
        }
        assert_eq!(RelationalOp::from_symbol("="), Some(RelationalOp::Equal));
        assert_eq!(RelationalOp::from_symbol("~"), None);
    }

    #[test]
    fn aggregates_match_paper_examples() {
        // "The average attribute of physical observation x and y is
        // Greater than C": Average(Vx, Vy) > C.
        let vals = [10.0, 20.0];
        assert_eq!(AttrAggregate::Average.apply(&vals), Some(15.0));
        assert_eq!(AttrAggregate::Sum.apply(&vals), Some(30.0));
        assert_eq!(AttrAggregate::Min.apply(&vals), Some(10.0));
        assert_eq!(AttrAggregate::Max.apply(&vals), Some(20.0));
        assert_eq!(AttrAggregate::Count.apply(&vals), Some(2.0));
    }

    #[test]
    fn aggregates_on_empty_input() {
        assert_eq!(AttrAggregate::Average.apply(&[]), None);
        assert_eq!(AttrAggregate::Count.apply(&[]), Some(0.0));
    }

    #[test]
    fn aggregate_names_round_trip() {
        for agg in [
            AttrAggregate::Average,
            AttrAggregate::Sum,
            AttrAggregate::Min,
            AttrAggregate::Max,
            AttrAggregate::Count,
        ] {
            assert_eq!(AttrAggregate::from_name(agg.name()), Some(agg));
        }
    }

    proptest! {
        /// An operator and its negation always disagree.
        #[test]
        fn negation_is_complement(lhs in -100.0f64..100.0, rhs in -100.0f64..100.0) {
            for op in [
                RelationalOp::Less, RelationalOp::LessEq, RelationalOp::Greater,
                RelationalOp::GreaterEq, RelationalOp::Equal, RelationalOp::NotEqual,
            ] {
                prop_assert_ne!(op.eval(lhs, rhs), op.negated().eval(lhs, rhs));
            }
        }

        /// Min <= Average <= Max.
        #[test]
        fn aggregate_ordering(vals in proptest::collection::vec(-100.0f64..100.0, 1..20)) {
            let min = AttrAggregate::Min.apply(&vals).unwrap();
            let avg = AttrAggregate::Average.apply(&vals).unwrap();
            let max = AttrAggregate::Max.apply(&vals).unwrap();
            prop_assert!(min <= avg + 1e-9 && avg <= max + 1e-9);
        }
    }
}
