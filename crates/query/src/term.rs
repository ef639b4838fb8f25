//! Variables, terms, atoms and bindings — shared by every rule-based
//! language in this crate (CQ, UCQ¬, Datalog) and by the FO engine.

use rtx_relational::{RelName, Relation, Symbol, Tuple, Value};
use std::collections::BTreeSet;
use std::fmt;

/// A variable name (process-interned, `Copy`).
///
/// Ordering is by the variable's *name* (via [`Symbol`]'s structural
/// order), so everything keyed by `Var` iterates deterministically,
/// independent of intern history.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(Symbol);

impl Var {
    /// Intern a variable name.
    pub fn new(name: impl AsRef<str>) -> Self {
        Var(Symbol::new(name))
    }

    /// The textual name.
    pub fn as_str(&self) -> &str {
        self.0.as_str()
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<&str> for Var {
    fn from(s: &str) -> Self {
        Var::new(s)
    }
}

/// A term: a variable or a constant.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Term {
    /// A variable.
    Var(Var),
    /// A constant value.
    Const(Value),
}

impl Term {
    /// Shorthand for a variable term.
    pub fn var(name: impl AsRef<str>) -> Self {
        Term::Var(Var::new(name))
    }

    /// Shorthand for a constant term.
    pub fn cons(v: impl Into<Value>) -> Self {
        Term::Const(v.into())
    }

    /// The variable inside, if any.
    pub fn as_var(&self) -> Option<&Var> {
        match self {
            Term::Var(v) => Some(v),
            Term::Const(_) => None,
        }
    }

    /// Resolve under a binding; `None` when an unbound variable.
    pub fn resolve(&self, env: &Bindings) -> Option<Value> {
        match self {
            Term::Var(v) => env.get(v).cloned(),
            Term::Const(c) => Some(*c),
        }
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(c) => write!(f, "{c}"),
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A (partial) assignment of values to variables.
///
/// Stored as a flat vector sorted by variable — bindings are tiny (a
/// rule's variable count), so binary search beats a tree and, since
/// both `Var` and `Value` are `Copy`, cloning a binding set is a plain
/// memcpy. That clone sits on the innermost loop of every join, which
/// is why this is not a `BTreeMap`. The sorted invariant also makes
/// equality insertion-order-insensitive, which the scan/indexed join
/// equivalence guarantees rely on.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bindings(Vec<(Var, Value)>);

impl Bindings {
    /// The empty binding set.
    pub fn new() -> Self {
        Bindings(Vec::new())
    }

    #[inline]
    fn pos(&self, v: &Var) -> Result<usize, usize> {
        self.0.binary_search_by(|(w, _)| w.cmp(v))
    }

    /// The value bound to `v`, if any.
    #[inline]
    pub fn get(&self, v: &Var) -> Option<&Value> {
        match self.pos(v) {
            Ok(i) => Some(&self.0[i].1),
            Err(_) => None,
        }
    }

    /// Bind `v` to `val`, returning the previous value if `v` was bound.
    pub fn insert(&mut self, v: Var, val: Value) -> Option<Value> {
        match self.pos(&v) {
            Ok(i) => Some(std::mem::replace(&mut self.0[i].1, val)),
            Err(i) => {
                self.0.insert(i, (v, val));
                None
            }
        }
    }

    /// Unbind `v`, returning its value if it was bound.
    pub fn remove(&mut self, v: &Var) -> Option<Value> {
        match self.pos(v) {
            Ok(i) => Some(self.0.remove(i).1),
            Err(_) => None,
        }
    }

    /// Is `v` bound?
    pub fn contains_key(&self, v: &Var) -> bool {
        self.pos(v).is_ok()
    }

    /// The bound variables, in sorted order.
    pub fn keys(&self) -> impl Iterator<Item = &Var> {
        self.0.iter().map(|(v, _)| v)
    }

    /// Iterate over `(variable, value)` pairs in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (&Var, &Value)> {
        self.0.iter().map(|(v, a)| (v, a))
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Any bindings at all?
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl std::ops::Index<&Var> for Bindings {
    type Output = Value;
    fn index(&self, v: &Var) -> &Value {
        self.get(v).expect("variable not bound")
    }
}

impl fmt::Debug for Bindings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut m = f.debug_map();
        for (v, a) in self.iter() {
            m.entry(v, a);
        }
        m.finish()
    }
}

impl FromIterator<(Var, Value)> for Bindings {
    fn from_iter<T: IntoIterator<Item = (Var, Value)>>(iter: T) -> Self {
        let mut b = Bindings::new();
        for (v, a) in iter {
            b.insert(v, a);
        }
        b
    }
}

/// A predicate atom `R(t1, …, tk)`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Atom {
    /// The predicate / relation name.
    pub pred: RelName,
    /// The argument terms.
    pub terms: Vec<Term>,
}

impl Atom {
    /// Build an atom.
    pub fn new(pred: impl Into<RelName>, terms: Vec<Term>) -> Self {
        Atom {
            pred: pred.into(),
            terms,
        }
    }

    /// Arity of the atom.
    pub fn arity(&self) -> usize {
        self.terms.len()
    }

    /// The variables occurring in the atom, in first-occurrence order.
    pub fn vars(&self) -> Vec<Var> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for t in &self.terms {
            if let Term::Var(v) = t {
                if seen.insert(*v) {
                    out.push(*v);
                }
            }
        }
        out
    }

    /// Match the atom against a concrete tuple, extending `env`.
    ///
    /// Returns the extended bindings when the tuple is compatible with the
    /// atom's constants, repeated variables, and the existing bindings.
    pub fn match_tuple(&self, tuple: &Tuple, env: &Bindings) -> Option<Bindings> {
        if tuple.arity() != self.terms.len() {
            return None;
        }
        // Phase 1: verify constants and already-bound variables without
        // touching `env` — the overwhelmingly common outcome of a scan
        // join is rejection, which must not pay for a clone.
        let mut fresh = false;
        for (term, value) in self.terms.iter().zip(tuple.iter()) {
            match term {
                Term::Const(c) => {
                    if c != value {
                        return None;
                    }
                }
                Term::Var(v) => match env.get(v) {
                    Some(bound) => {
                        if bound != value {
                            return None;
                        }
                    }
                    None => fresh = true,
                },
            }
        }
        // Phase 2: clone (a memcpy) and bind the fresh variables; a
        // repeated fresh variable is checked against its first binding.
        let mut out = env.clone();
        if fresh {
            for (term, value) in self.terms.iter().zip(tuple.iter()) {
                if let Term::Var(v) = term {
                    match out.get(v) {
                        Some(bound) => {
                            if bound != value {
                                return None;
                            }
                        }
                        None => {
                            out.insert(*v, *value);
                        }
                    }
                }
            }
        }
        Some(out)
    }

    /// Instantiate the atom under complete bindings into a tuple.
    ///
    /// Returns `None` if some variable is unbound.
    pub fn instantiate(&self, env: &Bindings) -> Option<Tuple> {
        self.terms
            .iter()
            .map(|t| t.resolve(env))
            .collect::<Option<Vec<_>>>()
            .map(Tuple::new)
    }

    /// Join this atom against a materialized relation: for every tuple of
    /// `rel` compatible with some binding in `envs`, emit the extension.
    pub fn join(&self, rel: &Relation, envs: &[Bindings]) -> Vec<Bindings> {
        let mut out = Vec::new();
        for env in envs {
            // If all terms are already determined, use a membership probe
            // instead of scanning the relation.
            if let Some(t) = self.instantiate(env) {
                if rel.contains(&t) {
                    out.push(env.clone());
                }
                continue;
            }
            for tuple in rel.iter() {
                if let Some(ext) = self.match_tuple(tuple, env) {
                    out.push(ext);
                }
            }
        }
        out
    }

    /// Index-accelerated [`Atom::join`]: probe a cached secondary index
    /// of `rel` on the columns already determined by `envs` (constants
    /// plus variables bound in every binding) instead of scanning.
    ///
    /// Produces exactly the bindings of `join`, in the same order: a
    /// probe enumerates the subsequence of a full scan agreeing on the
    /// key columns, and [`Atom::match_tuple`] re-checks everything else
    /// (repeated variables, per-binding extras).
    pub fn join_indexed(&self, rel: &Relation, envs: &[Bindings]) -> Vec<Bindings> {
        if envs.is_empty() || rel.is_empty() {
            return Vec::new();
        }
        // For tiny relations a scan beats building (or even probing) an
        // index view; the cutover only changes the access path, never
        // the result.
        const SCAN_THRESHOLD: usize = 16;
        if rel.len() <= SCAN_THRESHOLD {
            return self.join(rel, envs);
        }
        // Columns determined in *every* binding — the batch shares one
        // index. Bindings produced by a common join prefix all bind the
        // same variables, so this is rarely a strict intersection.
        let mut common: BTreeSet<&Var> = envs[0].keys().collect();
        for env in &envs[1..] {
            common.retain(|v| env.contains_key(v));
        }
        let cols: Vec<usize> = self
            .terms
            .iter()
            .enumerate()
            .filter(|(_, t)| match t {
                Term::Const(_) => true,
                Term::Var(v) => common.contains(v),
            })
            .map(|(i, _)| i)
            .collect();
        if cols.is_empty() || cols.len() == self.terms.len() {
            // Nothing to probe on, or fully determined (join() already
            // degenerates to a membership probe per binding).
            return self.join(rel, envs);
        }
        let idx = rel
            .index(&cols)
            .expect("key columns lie within the checked arity");
        let mut out = Vec::new();
        let mut key: Vec<Value> = Vec::with_capacity(cols.len());
        for env in envs {
            key.clear();
            for &c in &cols {
                key.push(
                    self.terms[c]
                        .resolve(env)
                        .expect("key columns are bound in every binding"),
                );
            }
            for tuple in idx.probe(&key) {
                if let Some(ext) = self.match_tuple(tuple, env) {
                    out.push(ext);
                }
            }
        }
        out
    }
}

impl fmt::Debug for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.pred)?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Build an atom tersely: variables are `@"X"`, constants anything
/// convertible to [`Value`].
///
/// ```
/// use rtx_query::atom;
/// let a = atom!("R"; @"X", 3, @"Y");
/// assert_eq!(a.arity(), 3);
/// ```
#[macro_export]
macro_rules! atom {
    ($pred:expr $(; $($args:tt)*)?) => {
        $crate::Atom::new($pred, $crate::atom_args!([] $($($args)*)?))
    };
}

/// Internal helper for [`atom!`]: parses the argument list.
#[doc(hidden)]
#[macro_export]
macro_rules! atom_args {
    ([$($done:expr),*]) => { vec![$($done),*] };
    ([$($done:expr),*] @$v:literal $(, $($rest:tt)*)?) => {
        $crate::atom_args!([$($done,)* $crate::Term::var($v)] $($($rest)*)?)
    };
    ([$($done:expr),*] $c:expr $(, $($rest:tt)*)?) => {
        $crate::atom_args!([$($done,)* $crate::Term::cons($c)] $($($rest)*)?)
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtx_relational::tuple;

    #[test]
    fn atom_macro_mixes_vars_and_consts() {
        let a = atom!("R"; @"X", 3, "sym");
        assert_eq!(a.pred.as_str(), "R");
        assert_eq!(a.terms[0], Term::var("X"));
        assert_eq!(a.terms[1], Term::cons(3));
        assert_eq!(a.terms[2], Term::cons("sym"));
        let nullary = atom!("B");
        assert_eq!(nullary.arity(), 0);
    }

    #[test]
    fn match_tuple_binds_fresh_vars() {
        let a = atom!("R"; @"X", @"Y");
        let env = a.match_tuple(&tuple![1, 2], &Bindings::new()).unwrap();
        assert_eq!(env[&Var::new("X")], Value::int(1));
        assert_eq!(env[&Var::new("Y")], Value::int(2));
    }

    #[test]
    fn match_tuple_respects_repeats_and_consts() {
        let a = atom!("R"; @"X", @"X");
        assert!(a.match_tuple(&tuple![1, 2], &Bindings::new()).is_none());
        assert!(a.match_tuple(&tuple![2, 2], &Bindings::new()).is_some());
        let c = atom!("R"; 5, @"X");
        assert!(c.match_tuple(&tuple![4, 1], &Bindings::new()).is_none());
        assert!(c.match_tuple(&tuple![5, 1], &Bindings::new()).is_some());
    }

    #[test]
    fn match_tuple_respects_prior_bindings() {
        let a = atom!("R"; @"X");
        let mut env = Bindings::new();
        env.insert(Var::new("X"), Value::int(9));
        assert!(a.match_tuple(&tuple![1], &env).is_none());
        assert!(a.match_tuple(&tuple![9], &env).is_some());
    }

    #[test]
    fn instantiate_requires_complete_bindings() {
        let a = atom!("R"; @"X", 7);
        assert_eq!(a.instantiate(&Bindings::new()), None);
        let mut env = Bindings::new();
        env.insert(Var::new("X"), Value::int(1));
        assert_eq!(a.instantiate(&env), Some(tuple![1, 7]));
    }

    #[test]
    fn join_extends_bindings() {
        let rel = Relation::from_tuples(2, vec![tuple![1, 2], tuple![2, 3]]).unwrap();
        let a = atom!("R"; @"X", @"Y");
        let envs = a.join(&rel, &[Bindings::new()]);
        assert_eq!(envs.len(), 2);
        // join with X pre-bound probes
        let mut env = Bindings::new();
        env.insert(Var::new("X"), Value::int(2));
        let b = atom!("R"; @"X", @"Y");
        let envs = b.join(&rel, &[env]);
        assert_eq!(envs.len(), 1);
        assert_eq!(envs[0][&Var::new("Y")], Value::int(3));
    }

    #[test]
    fn join_indexed_agrees_with_scan() {
        let rel = Relation::from_tuples(
            2,
            vec![tuple![1, 2], tuple![2, 3], tuple![2, 4], tuple![3, 4]],
        )
        .unwrap();
        let a = atom!("R"; @"X", @"Y");
        // X bound in every env: probes on column 0
        let envs: Vec<Bindings> = [1i64, 2, 9]
            .iter()
            .map(|&x| {
                let mut e = Bindings::new();
                e.insert(Var::new("X"), Value::int(x));
                e
            })
            .collect();
        assert_eq!(a.join_indexed(&rel, &envs), a.join(&rel, &envs));
        // nothing bound: falls back to scan
        let free = vec![Bindings::new()];
        assert_eq!(a.join_indexed(&rel, &free), a.join(&rel, &free));
        // repeated variable with constant
        let b = atom!("R"; @"X", @"X");
        assert_eq!(b.join_indexed(&rel, &free), b.join(&rel, &free));
    }

    #[test]
    fn join_indexed_mixed_bound_sets_intersect() {
        let rel = Relation::from_tuples(2, vec![tuple![1, 2], tuple![2, 3]]).unwrap();
        let a = atom!("R"; @"X", @"Y");
        let mut e1 = Bindings::new();
        e1.insert(Var::new("X"), Value::int(1));
        let mut e2 = Bindings::new();
        e2.insert(Var::new("X"), Value::int(2));
        e2.insert(Var::new("Y"), Value::int(3));
        let envs = vec![e1, e2];
        assert_eq!(a.join_indexed(&rel, &envs), a.join(&rel, &envs));
    }

    #[test]
    fn vars_in_first_occurrence_order() {
        let a = atom!("R"; @"Y", @"X", @"Y");
        let vs: Vec<_> = a.vars().iter().map(|v| v.as_str().to_string()).collect();
        assert_eq!(vs, vec!["Y", "X"]);
    }

    #[test]
    fn term_resolution() {
        let mut env = Bindings::new();
        env.insert(Var::new("X"), Value::int(4));
        assert_eq!(Term::var("X").resolve(&env), Some(Value::int(4)));
        assert_eq!(Term::var("Z").resolve(&env), None);
        assert_eq!(Term::cons(1).resolve(&env), Some(Value::int(1)));
    }
}
