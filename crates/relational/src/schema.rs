//! Database schemas.
//!
//! A database schema is a finite set of relation names, each with an
//! associated arity (paper, Section 2).

use crate::error::RelError;
use crate::fact::{Fact, RelName};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A database schema: a finite map from relation names to arities.
///
/// The map is shared: a clone is a reference-count bump, so every
/// instance of a schema (one per node, several per transducer step)
/// shares one map, and the mutators copy it on write.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Schema {
    arities: Arc<BTreeMap<RelName, usize>>,
}

impl Schema {
    /// The empty schema.
    pub fn new() -> Self {
        Schema::default()
    }

    /// Build a schema from `(name, arity)` pairs.
    ///
    /// Returns an error when the same name is declared twice with
    /// different arities.
    pub fn from_pairs<N: Into<RelName>>(
        pairs: impl IntoIterator<Item = (N, usize)>,
    ) -> Result<Self, RelError> {
        let mut s = Schema::new();
        for (name, arity) in pairs {
            s.declare(name, arity)?;
        }
        Ok(s)
    }

    /// Declare a relation. Re-declaring with the same arity is a no-op;
    /// with a different arity it is an error.
    pub fn declare(&mut self, name: impl Into<RelName>, arity: usize) -> Result<(), RelError> {
        let name = name.into();
        match self.arities.get(&name) {
            Some(&a) if a != arity => Err(RelError::ArityMismatch {
                rel: name,
                expected: a,
                found: arity,
            }),
            Some(_) => Ok(()),
            None => {
                Arc::make_mut(&mut self.arities).insert(name, arity);
                Ok(())
            }
        }
    }

    /// Chainable variant of [`Schema::declare`] that panics on conflict —
    /// for statically-known schemas in tests and constructions.
    pub fn with(mut self, name: impl Into<RelName>, arity: usize) -> Self {
        self.declare(name, arity)
            .expect("conflicting arity in schema literal");
        self
    }

    /// The arity of `name`, if declared.
    pub fn arity(&self, name: &RelName) -> Option<usize> {
        self.arities.get(name).copied()
    }

    /// Does the schema declare `name`?
    pub fn contains(&self, name: &RelName) -> bool {
        self.arities.contains_key(name)
    }

    /// Number of declared relations.
    pub fn len(&self) -> usize {
        self.arities.len()
    }

    /// Is the schema empty?
    pub fn is_empty(&self) -> bool {
        self.arities.is_empty()
    }

    /// Iterate over `(name, arity)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&RelName, usize)> {
        self.arities.iter().map(|(n, &a)| (n, a))
    }

    /// Relation names in name order.
    pub fn names(&self) -> impl Iterator<Item = &RelName> {
        self.arities.keys()
    }

    /// Disjoint union of two schemas; errors if they share a name.
    ///
    /// The transducer schema requires its four sub-schemas to be disjoint
    /// (paper, Section 2.1), so sharing a name is an error rather than a
    /// merge even when the arities agree.
    pub fn disjoint_union(&self, other: &Schema) -> Result<Schema, RelError> {
        let mut out = self.clone();
        for (name, arity) in other.iter() {
            if out.contains(name) {
                return Err(RelError::NotDisjoint { rel: name.clone() });
            }
            Arc::make_mut(&mut out.arities).insert(name.clone(), arity);
        }
        Ok(out)
    }

    /// Union of two schemas where shared names must agree on arity.
    pub fn union_compatible(&self, other: &Schema) -> Result<Schema, RelError> {
        let mut out = self.clone();
        for (name, arity) in other.iter() {
            out.declare(name.clone(), arity)?;
        }
        Ok(out)
    }

    /// Are the two schemas disjoint (no shared relation name)?
    pub fn is_disjoint_from(&self, other: &Schema) -> bool {
        self.names().all(|n| !other.contains(n))
    }

    /// Validate a fact against this schema.
    pub fn check_fact(&self, fact: &Fact) -> Result<(), RelError> {
        self.check_relation(fact.rel(), fact.arity())
    }

    /// Is `name` declared here with arity `arity`? The error names the
    /// relation.
    pub fn check_relation(&self, name: &RelName, arity: usize) -> Result<(), RelError> {
        match self.arity(name) {
            None => Err(RelError::UnknownRelation { rel: name.clone() }),
            Some(a) if a != arity => Err(RelError::ArityMismatch {
                rel: name.clone(),
                expected: a,
                found: arity,
            }),
            Some(_) => Ok(()),
        }
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (n, a)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{n}/{a}")?;
        }
        write!(f, "}}")
    }
}

impl<N: Into<RelName>> FromIterator<(N, usize)> for Schema {
    /// Panics on arity conflict; use [`Schema::from_pairs`] for the
    /// fallible form.
    fn from_iter<T: IntoIterator<Item = (N, usize)>>(iter: T) -> Self {
        Schema::from_pairs(iter).expect("conflicting arity in schema literal")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fact;

    fn s(pairs: &[(&str, usize)]) -> Schema {
        pairs.iter().map(|&(n, a)| (n, a)).collect()
    }

    #[test]
    fn declare_and_lookup() {
        let sch = s(&[("R", 2), ("S", 1)]);
        assert_eq!(sch.arity(&"R".into()), Some(2));
        assert_eq!(sch.arity(&"S".into()), Some(1));
        assert_eq!(sch.arity(&"T".into()), None);
        assert_eq!(sch.len(), 2);
        assert!(!sch.is_empty());
    }

    #[test]
    fn redeclare_same_arity_ok_different_err() {
        let mut sch = s(&[("R", 2)]);
        assert!(sch.declare("R", 2).is_ok());
        assert!(matches!(
            sch.declare("R", 3),
            Err(RelError::ArityMismatch {
                expected: 2,
                found: 3,
                ..
            })
        ));
    }

    #[test]
    fn disjoint_union_rejects_overlap() {
        let a = s(&[("R", 2)]);
        let b = s(&[("R", 2)]);
        assert!(a.disjoint_union(&b).is_err());
        let c = s(&[("S", 1)]);
        let u = a.disjoint_union(&c).unwrap();
        assert_eq!(u.len(), 2);
    }

    #[test]
    fn union_compatible_merges_when_arities_agree() {
        let a = s(&[("R", 2)]);
        let b = s(&[("R", 2), ("S", 1)]);
        let u = a.union_compatible(&b).unwrap();
        assert_eq!(u.len(), 2);
        let c = s(&[("R", 3)]);
        assert!(a.union_compatible(&c).is_err());
    }

    #[test]
    fn disjointness_check() {
        let a = s(&[("R", 2)]);
        let b = s(&[("S", 1)]);
        assert!(a.is_disjoint_from(&b));
        assert!(!a.is_disjoint_from(&s(&[("R", 5)])));
    }

    #[test]
    fn fact_validation() {
        let sch = s(&[("R", 2)]);
        assert!(sch.check_fact(&fact!("R", 1, 2)).is_ok());
        assert!(matches!(
            sch.check_fact(&fact!("R", 1)),
            Err(RelError::ArityMismatch { .. })
        ));
        assert!(matches!(
            sch.check_fact(&fact!("T", 1)),
            Err(RelError::UnknownRelation { .. })
        ));
    }

    #[test]
    fn display_formats_names_and_arities() {
        let sch = s(&[("R", 2), ("S", 0)]);
        assert_eq!(format!("{sch}"), "{R/2, S/0}");
    }

    #[test]
    fn iteration_is_name_ordered() {
        let sch = s(&[("Z", 1), ("A", 1), ("M", 1)]);
        let names: Vec<_> = sch.names().map(|n| n.as_str().to_string()).collect();
        assert_eq!(names, vec!["A", "M", "Z"]);
    }
}
