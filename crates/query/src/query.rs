//! The generic query interface.
//!
//! The paper's transducer model is parameterized by a local query
//! language `L`; every language in this crate implements [`Query`], and a
//! transducer holds its queries as `Arc<dyn Query>` — so FO-transducers,
//! UCQ¬-transducers, Datalog-transducers, while-transducers and
//! "abstract" transducers (native Rust, modelling a computationally
//! complete `L`) are all the same machine with different query objects.

use crate::error::EvalError;
use rtx_relational::{Instance, RelName, Relation};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// A `k`-ary query: a (partial) function from instances to `k`-ary
/// relations (paper, Section 2).
///
/// Implementations must be deterministic: `eval` on equal instances must
/// return equal relations. Genericity (invariance under permutations of
/// **dom**) holds for all constant-free queries of the declarative
/// languages in this crate and can be checked empirically via
/// `rtx-calm`'s genericity analysis.
pub trait Query: fmt::Debug + Send + Sync {
    /// Output arity `k`.
    fn arity(&self) -> usize;

    /// Evaluate on an instance.
    fn eval(&self, db: &Instance) -> Result<Relation, EvalError>;

    /// Evaluate against what changed. For `delta ⊆ db` relation by
    /// relation, `Some(D)` satisfies `Q(db) ∖ Q(db ∖ delta) ⊆ D ⊆
    /// Q(db)`: every answer that needs a `delta` fact, and possibly
    /// answers that do not. `None` means "evaluate in full"; the
    /// default always answers it.
    ///
    /// A transducer step reads the stored part of `D` off the relation
    /// it inserts into: when `Q(db ∖ delta)` is stored already, `D`
    /// minus the stored facts is exactly `Q(db)` minus them (see
    /// `Transducer::step_after` in `rtx-transducer`). Only a monotone
    /// query answers `Some`, which is what lets [`crate::ViewQuery`]
    /// compose the answers of its parts. A UCQ with a head constant
    /// answers `None`: its answers are filtered by adom(db), which can
    /// grow through relations its rules never read, so an answer can
    /// appear without any `delta` fact.
    fn eval_delta(&self, db: &Instance, delta: &Instance) -> Result<Option<Relation>, EvalError> {
        let _ = (db, delta);
        Ok(None)
    }

    /// Conservative *syntactic* monotonicity: `true` guarantees the query
    /// is monotone; `false` means "unknown". Positive-existential FO,
    /// negation-free UCQ and negation-free Datalog return `true`.
    fn is_monotone_syntactic(&self) -> bool {
        false
    }

    /// Every relation name the query may read. Used for the paper's
    /// *obliviousness* check (does the transducer mention `Id`/`All`?).
    fn referenced_relations(&self) -> BTreeSet<RelName>;

    /// Syntactically guaranteed to return the empty relation on every
    /// input — the paper's *inflationary* transducers have such deletion
    /// queries.
    fn is_always_empty(&self) -> bool {
        false
    }

    /// A short human-readable description.
    fn describe(&self) -> String;
}

/// Shared handle to a query; the form stored inside transducers.
///
/// [`Query`] requires `Send + Sync`, so a `QueryRef` (and everything
/// built from it, like a transducer) can be shared across the worker
/// threads of `rtx-net`'s sharded executor without cloning. Cached
/// evaluation state (join plans, stratifications) lives behind
/// `OnceLock`s and is therefore thread-safe too.
pub type QueryRef = Arc<dyn Query>;

const _: () = {
    const fn assert_send_sync<T: Send + Sync + ?Sized>() {}
    assert_send_sync::<dyn Query>();
    assert_send_sync::<QueryRef>();
};

impl Query for QueryRef {
    fn arity(&self) -> usize {
        (**self).arity()
    }
    fn eval(&self, db: &Instance) -> Result<Relation, EvalError> {
        (**self).eval(db)
    }
    fn eval_delta(&self, db: &Instance, delta: &Instance) -> Result<Option<Relation>, EvalError> {
        (**self).eval_delta(db, delta)
    }
    fn is_monotone_syntactic(&self) -> bool {
        (**self).is_monotone_syntactic()
    }
    fn referenced_relations(&self) -> BTreeSet<RelName> {
        (**self).referenced_relations()
    }
    fn is_always_empty(&self) -> bool {
        (**self).is_always_empty()
    }
    fn describe(&self) -> String {
        (**self).describe()
    }
}

/// The query that returns the empty `k`-ary relation on every input.
///
/// The canonical deletion query of an inflationary transducer.
#[derive(Clone, Debug)]
pub struct EmptyQuery {
    arity: usize,
}

impl EmptyQuery {
    /// An always-empty query of the given arity.
    pub fn new(arity: usize) -> Self {
        EmptyQuery { arity }
    }
}

impl Query for EmptyQuery {
    fn arity(&self) -> usize {
        self.arity
    }
    fn eval(&self, _db: &Instance) -> Result<Relation, EvalError> {
        Ok(Relation::empty(self.arity))
    }
    fn is_monotone_syntactic(&self) -> bool {
        true // constant functions are monotone
    }
    fn referenced_relations(&self) -> BTreeSet<RelName> {
        BTreeSet::new()
    }
    fn is_always_empty(&self) -> bool {
        true
    }
    fn describe(&self) -> String {
        format!("∅/{}", self.arity)
    }
}

/// The query that copies relation `R` verbatim.
#[derive(Clone, Debug)]
pub struct CopyQuery {
    rel: RelName,
    arity: usize,
}

impl CopyQuery {
    /// Copy `rel` (of the given arity).
    pub fn new(rel: impl Into<RelName>, arity: usize) -> Self {
        CopyQuery {
            rel: rel.into(),
            arity,
        }
    }
}

impl Query for CopyQuery {
    fn arity(&self) -> usize {
        self.arity
    }
    fn eval(&self, db: &Instance) -> Result<Relation, EvalError> {
        Ok(db.relation(&self.rel)?)
    }
    fn is_monotone_syntactic(&self) -> bool {
        true
    }
    fn referenced_relations(&self) -> BTreeSet<RelName> {
        [self.rel.clone()].into_iter().collect()
    }
    fn describe(&self) -> String {
        format!("copy {}", self.rel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtx_relational::{fact, Schema};

    #[test]
    fn empty_query_is_empty_and_flagged() {
        let q = EmptyQuery::new(2);
        let db = Instance::empty(Schema::new());
        assert!(q.eval(&db).unwrap().is_empty());
        assert!(q.is_always_empty());
        assert!(q.is_monotone_syntactic());
        assert_eq!(q.arity(), 2);
        assert!(q.referenced_relations().is_empty());
    }

    #[test]
    fn copy_query_copies() {
        let sch = Schema::new().with("R", 1);
        let db = Instance::from_facts(sch, vec![fact!("R", 1)]).unwrap();
        let q = CopyQuery::new("R", 1);
        let out = q.eval(&db).unwrap();
        assert_eq!(out.len(), 1);
        assert!(q.is_monotone_syntactic());
        assert!(!q.is_always_empty());
        assert!(q.referenced_relations().contains(&"R".into()));
    }

    #[test]
    fn copy_query_unknown_relation_errors() {
        let db = Instance::empty(Schema::new());
        let q = CopyQuery::new("R", 1);
        assert!(q.eval(&db).is_err());
    }

    #[test]
    fn query_ref_delegates() {
        let q: QueryRef = Arc::new(EmptyQuery::new(0));
        assert_eq!(q.arity(), 0);
        assert!(q.is_always_empty());
        assert!(q.describe().contains('0'));
    }
}
