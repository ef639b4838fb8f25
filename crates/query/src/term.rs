//! Variables, terms and atoms — shared by every language in this crate
//! that compiles to rules (FO, CQ, UCQ¬, Datalog). Atoms are joined by
//! the columnar executor (`frame.rs`).

use rtx_relational::{RelName, Symbol, Tuple, Value};
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

    /// Does `tuple` match the atom: each constant in place, and each
    /// repeated variable at the value of its first position? A query
    /// pattern's answers are the matching tuples of its predicate.
    pub fn matches(&self, tuple: &Tuple) -> bool {
        let values = tuple.values();
        values.len() == self.arity()
            && (self.terms.iter().zip(values)).all(|(t, v)| match t {
                Term::Const(c) => c == v,
                Term::Var(_) => {
                    let first = self.terms.iter().position(|u| u == t);
                    first.is_some_and(|p| values[p] == *v)
                }
            })
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
    use rtx_relational::{tuple, Instance, Relation, Schema};

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

    fn rel(arity: usize, tuples: Vec<Tuple>) -> Relation {
        Relation::from_tuples(arity, tuples).unwrap()
    }

    /// The bindings of the atoms joined in written order, each over the
    /// relation it is paired with, as sorted tuples over `vars`.
    fn join(body: &[(Atom, Relation)], vars: &[&str]) -> Vec<Tuple> {
        let pos: Vec<(&Atom, &Relation)> = body.iter().map(|(a, r)| (a, r)).collect();
        let order: Vec<usize> = (0..body.len()).collect();
        let db = Instance::empty(Schema::new());
        let vars: Vec<Term> = vars.iter().map(Term::var).collect();
        match crate::frame::join_body(&pos, &order, [], [], &db).unwrap() {
            Some(f) => f.project(&vars).unwrap().rows().to_vec(),
            None => Vec::new(),
        }
    }

    #[test]
    fn match_tuple_binds_fresh_vars() {
        let rows = join(
            &[(atom!("R"; @"X", @"Y"), rel(2, vec![tuple![1, 2]]))],
            &["X", "Y"],
        );
        assert_eq!(rows, vec![tuple![1, 2]]);
    }

    #[test]
    fn match_tuple_respects_repeats_and_consts() {
        let a = atom!("R"; @"X", @"X");
        assert!(join(&[(a.clone(), rel(2, vec![tuple![1, 2]]))], &["X"]).is_empty());
        assert_eq!(
            join(&[(a, rel(2, vec![tuple![2, 2]]))], &["X"]),
            vec![tuple![2]]
        );
        let c = atom!("R"; 5, @"X");
        assert!(join(&[(c.clone(), rel(2, vec![tuple![4, 1]]))], &["X"]).is_empty());
        assert_eq!(
            join(&[(c, rel(2, vec![tuple![5, 1]]))], &["X"]),
            vec![tuple![1]]
        );
    }

    #[test]
    fn match_tuple_respects_prior_bindings() {
        // B(X) binds X to 9 before R(X) is matched.
        let b = (atom!("B"; @"X"), rel(1, vec![tuple![9]]));
        let r = atom!("R"; @"X");
        assert!(join(&[b.clone(), (r.clone(), rel(1, vec![tuple![1]]))], &["X"]).is_empty());
        assert_eq!(
            join(&[b, (r, rel(1, vec![tuple![9]]))], &["X"]),
            vec![tuple![9]]
        );
    }

    #[test]
    fn join_extends_bindings() {
        let r = rel(2, vec![tuple![1, 2], tuple![2, 3]]);
        assert_eq!(
            join(&[(atom!("R"; @"X", @"Y"), r.clone())], &["X", "Y"]).len(),
            2
        );
        // join with X pre-bound probes
        let bound = (atom!("B"; @"X"), rel(1, vec![tuple![2]]));
        let rows = join(&[bound, (atom!("R"; @"X", @"Y"), r)], &["X", "Y"]);
        assert_eq!(rows, vec![tuple![2, 3]]);
    }

    #[test]
    fn join_indexed_agrees_with_scan() {
        // The same facts joined from a tiny relation (scanned) and from
        // one padded past the scan threshold with rows no key matches
        // (probed on the bound columns).
        let facts = vec![
            tuple![1, 2],
            tuple![2, 3],
            tuple![2, 4],
            tuple![3, 4],
            tuple![5, 5],
        ];
        let mut padded = facts.clone();
        padded.extend((0..16).map(|i| tuple![100 + i, i]));
        let xs = (
            atom!("B"; @"X"),
            rel(1, vec![tuple![1], tuple![2], tuple![9]]),
        );
        let a = atom!("R"; @"X", @"Y");
        let b = atom!("R"; @"X", @"X");
        for r in [rel(2, facts), rel(2, padded)] {
            let n = r.len();
            // X bound in every binding: probes on column 0
            let pairs = join(&[xs.clone(), (a.clone(), r.clone())], &["X", "Y"]);
            assert_eq!(
                pairs,
                [tuple![1, 2], tuple![2, 3], tuple![2, 4]],
                "{n} facts"
            );
            // repeated variable, nothing bound
            assert_eq!(
                join(&[(b.clone(), r)], &["X"]),
                vec![tuple![5]],
                "{n} facts"
            );
        }
    }

    #[test]
    fn matches_checks_constants_and_repeated_variables() {
        let a = atom!("R"; @"X", 7, @"X");
        assert!(a.matches(&tuple![1, 7, 1]));
        assert!(!a.matches(&tuple![1, 7, 2]));
        assert!(!a.matches(&tuple![1, 8, 1]));
        assert!(!a.matches(&tuple![1, 7]));
    }

    #[test]
    fn vars_in_first_occurrence_order() {
        let a = atom!("R"; @"Y", @"X", @"Y");
        let vs: Vec<_> = a.vars().iter().map(|v| v.as_str().to_string()).collect();
        assert_eq!(vs, vec!["Y", "X"]);
    }
}
