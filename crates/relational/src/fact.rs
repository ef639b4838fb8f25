//! Tuples and facts.
//!
//! A *fact* is an expression `R(a1, …, ak)` with `ai ∈ dom` and `R` a
//! relation name of arity `k` (paper, Section 2). Instances are sets of
//! facts; message buffers are multisets of facts.

use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// A relation name.
///
/// Relation names occur in every fact and every schema lookup, so the
/// text is reference-counted (`Arc<str>`) to keep clones cheap. Names are
/// not interned: equality and order compare the text.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RelName(Arc<str>);

impl RelName {
    /// A relation name over a fresh copy of `name`'s text. Each call
    /// allocates; build a name used over and over once, and clone it.
    pub fn new(name: impl AsRef<str>) -> Self {
        RelName(Arc::from(name.as_ref()))
    }

    /// The textual name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Debug for RelName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for RelName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<&str> for RelName {
    fn from(s: &str) -> Self {
        RelName::new(s)
    }
}

impl From<String> for RelName {
    fn from(s: String) -> Self {
        RelName::new(s)
    }
}

impl AsRef<str> for RelName {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

/// A tuple of atomic data elements.
///
/// Immutable once built; stored as a boxed slice so a `Tuple` is two words
/// and relations holding millions of tuples stay compact.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tuple(Arc<[Value]>);

impl Tuple {
    /// Build a tuple from values.
    pub fn new(values: impl Into<Vec<Value>>) -> Self {
        Tuple(Arc::from(values.into()))
    }

    /// The empty (nullary) tuple — used to encode boolean results, as in
    /// the paper ("the value 'true' (encoded by the empty tuple)").
    pub fn empty() -> Self {
        Tuple(Arc::from(Vec::new()))
    }

    /// Number of components.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// Component access.
    pub fn get(&self, i: usize) -> Option<&Value> {
        self.0.get(i)
    }

    /// Components as a slice.
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// Iterate over components.
    pub fn iter(&self) -> impl Iterator<Item = &Value> {
        self.0.iter()
    }

    /// A new tuple with `f` applied to every component (used for
    /// isomorphisms `h(I)`).
    pub fn map(&self, mut f: impl FnMut(&Value) -> Value) -> Tuple {
        Tuple(self.0.iter().map(&mut f).collect())
    }

    /// Concatenate two tuples.
    pub fn concat(&self, other: &Tuple) -> Tuple {
        Tuple(self.0.iter().chain(other.0.iter()).cloned().collect())
    }

    /// Project onto the given positions. Panics if an index is out of
    /// bounds — projections are built against a validated schema.
    pub fn project(&self, positions: &[usize]) -> Tuple {
        Tuple(positions.iter().map(|&i| self.0[i]).collect())
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Tuple(iter.into_iter().collect())
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(v: Vec<Value>) -> Self {
        Tuple::new(v)
    }
}

/// Convenience: build a tuple from displayable literals.
///
/// ```
/// use rtx_relational::{tuple, Value};
/// let t = tuple![1, "a"];
/// assert_eq!(t.values(), &[Value::int(1), Value::sym("a")]);
/// ```
#[macro_export]
macro_rules! tuple {
    ($($x:expr),* $(,)?) => {
        $crate::Tuple::new(vec![$($crate::Value::from($x)),*])
    };
}

/// A fact `R(a1, …, ak)`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fact {
    rel: RelName,
    tuple: Tuple,
}

impl Fact {
    /// Build a fact.
    pub fn new(rel: impl Into<RelName>, tuple: impl Into<Tuple>) -> Self {
        Fact {
            rel: rel.into(),
            tuple: tuple.into(),
        }
    }

    /// The relation name.
    pub fn rel(&self) -> &RelName {
        &self.rel
    }

    /// The tuple.
    pub fn tuple(&self) -> &Tuple {
        &self.tuple
    }

    /// Arity of the fact (length of its tuple).
    pub fn arity(&self) -> usize {
        self.tuple.arity()
    }

    /// Decompose into parts.
    pub fn into_parts(self) -> (RelName, Tuple) {
        (self.rel, self.tuple)
    }
}

impl fmt::Debug for Fact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.rel, self.tuple)
    }
}

impl fmt::Display for Fact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Convenience: build a fact `fact!("R", 1, "a")`.
#[macro_export]
macro_rules! fact {
    ($rel:expr $(, $x:expr)* $(,)?) => {
        $crate::Fact::new($rel, $crate::Tuple::new(vec![$($crate::Value::from($x)),*]))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relname_interning_and_display() {
        let r = RelName::new("Edge");
        assert_eq!(r.as_str(), "Edge");
        assert_eq!(format!("{r}"), "Edge");
        assert_eq!(RelName::from("Edge"), r);
    }

    #[test]
    fn tuple_basics() {
        let t = tuple![1, 2, "x"];
        assert_eq!(t.arity(), 3);
        assert_eq!(t.get(0), Some(&Value::int(1)));
        assert_eq!(t.get(3), None);
        assert_eq!(format!("{t}"), "(1,2,x)");
    }

    #[test]
    fn empty_tuple_is_nullary() {
        let t = Tuple::empty();
        assert_eq!(t.arity(), 0);
        assert_eq!(format!("{t}"), "()");
    }

    #[test]
    fn tuple_map_applies_componentwise() {
        let t = tuple![1, 2];
        let u = t.map(|v| match v {
            Value::Int(i) => Value::int(i + 10),
            other => *other,
        });
        assert_eq!(u, tuple![11, 12]);
    }

    #[test]
    fn tuple_concat_and_project() {
        let t = tuple![1, 2].concat(&tuple!["a"]);
        assert_eq!(t, tuple![1, 2, "a"]);
        assert_eq!(t.project(&[2, 0]), tuple!["a", 1]);
    }

    #[test]
    fn fact_construction_and_parts() {
        let f = fact!("R", 1, "a");
        assert_eq!(f.rel().as_str(), "R");
        assert_eq!(f.arity(), 2);
        assert_eq!(format!("{f}"), "R(1,a)");
        let (r, t) = f.into_parts();
        assert_eq!(r.as_str(), "R");
        assert_eq!(t, tuple![1, "a"]);
    }

    #[test]
    fn facts_order_by_relation_then_tuple() {
        let mut v = vec![fact!("S", 1), fact!("R", 2), fact!("R", 1)];
        v.sort();
        assert_eq!(v, vec![fact!("R", 1), fact!("R", 2), fact!("S", 1)]);
    }
}
