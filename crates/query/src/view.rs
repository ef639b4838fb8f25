//! View composition: evaluate an inner query over relations defined by
//! view queries.
//!
//! The paper's Theorem 6 constructions repeatedly need this: a node
//! accumulates origin-tagged facts in memory relations (say
//! `Store_R(src, x̄)`), and the query `Q` to be distributed expects the
//! plain input schema (`R(x̄)`). A [`ViewQuery`] first materializes each
//! view (here: project away the tag), then runs `Q` on the result.

use crate::error::EvalError;
use crate::query::{Query, QueryRef};
use rtx_relational::{Instance, RelName, Schema};
use std::collections::BTreeSet;
use std::fmt;

/// A query evaluated over materialized views of the database.
pub struct ViewQuery {
    views: Vec<(RelName, QueryRef)>,
    inner: QueryRef,
    /// Also expose the base relations to the inner query (view names
    /// shadow base names).
    include_base: bool,
}

impl ViewQuery {
    /// Build a view composition. Each `(name, q)` pair defines view
    /// `name` as the result of `q` on the base database.
    pub fn new(views: Vec<(RelName, QueryRef)>, inner: QueryRef) -> Self {
        ViewQuery {
            views,
            inner,
            include_base: false,
        }
    }

    /// Expose base relations alongside the views (views shadow).
    pub fn with_base(mut self) -> Self {
        self.include_base = true;
        self
    }

    fn materialize(&self, db: &Instance) -> Result<Instance, EvalError> {
        let mut schema = Schema::new();
        for (name, q) in &self.views {
            schema.declare(name.clone(), q.arity())?;
        }
        if self.include_base {
            for (name, arity) in db.schema().iter() {
                if !schema.contains(name) {
                    schema.declare(name.clone(), arity)?;
                }
            }
        }
        let mut out = Instance::empty(schema);
        for (name, q) in &self.views {
            let rel = q.eval(db)?;
            out.set_relation(name.clone(), rel)?;
        }
        if self.include_base {
            // Unshadowed base relations pass through by handle.
            for (name, rel) in db.relations() {
                if !self.views.iter().any(|(n, _)| n == name) {
                    out.union_relation(name, rel)?;
                }
            }
        }
        Ok(out)
    }
}

impl Query for ViewQuery {
    fn arity(&self) -> usize {
        self.inner.arity()
    }

    fn eval(&self, db: &Instance) -> Result<rtx_relational::Relation, EvalError> {
        let staged = self.materialize(db)?;
        self.inner.eval(&staged)
    }

    /// The views are materialized in full, and each view's delta comes
    /// from its own [`Query::eval_delta`]; unshadowed base deltas pass
    /// through. Then the inner query runs over those deltas. A view
    /// whose answer grows by `D_V` at most keeps `V(db) ∖ D_V` inside
    /// `V(db ∖ delta)`, so by the inner query's monotonicity its
    /// answers without a delta fact are answers on `db ∖ delta`. `None`
    /// when any part answers `None`.
    fn eval_delta(
        &self,
        db: &Instance,
        delta: &Instance,
    ) -> Result<Option<rtx_relational::Relation>, EvalError> {
        let staged = self.materialize(db)?;
        let mut staged_delta = Instance::empty(staged.schema().clone());
        for (name, q) in &self.views {
            let Some(d) = q.eval_delta(db, delta)? else {
                return Ok(None);
            };
            staged_delta.set_relation(name.clone(), d)?;
        }
        if self.include_base {
            for (name, rel) in delta.relations() {
                if !self.views.iter().any(|(n, _)| n == name) {
                    staged_delta.union_relation(name, rel)?;
                }
            }
        }
        self.inner.eval_delta(&staged, &staged_delta)
    }

    fn is_monotone_syntactic(&self) -> bool {
        // Monotone ∘ monotone is monotone. (With include_base, base
        // relations pass through the identity, which is monotone too.)
        self.inner.is_monotone_syntactic()
            && self.views.iter().all(|(_, q)| q.is_monotone_syntactic())
    }

    fn referenced_relations(&self) -> BTreeSet<RelName> {
        // Relations of the *base* database that may be read: everything
        // the views read, plus (with include_base) whatever the inner
        // query reads that is not shadowed by a view.
        let mut out: BTreeSet<RelName> = self
            .views
            .iter()
            .flat_map(|(_, q)| q.referenced_relations())
            .collect();
        if self.include_base {
            let view_names: BTreeSet<&RelName> = self.views.iter().map(|(n, _)| n).collect();
            for r in self.inner.referenced_relations() {
                if !view_names.contains(&r) {
                    out.insert(r);
                }
            }
        }
        out
    }

    fn is_always_empty(&self) -> bool {
        self.inner.is_always_empty()
    }

    fn describe(&self) -> String {
        let views: Vec<String> = self
            .views
            .iter()
            .map(|(n, q)| format!("{n} := {}", q.describe()))
            .collect();
        format!("[{}] ⊢ {}", views.join("; "), self.inner.describe())
    }
}

impl fmt::Debug for ViewQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom;
    use crate::cq::CqBuilder;
    use crate::datalog::{DatalogQuery, Program, Rule};
    use crate::term::Term;
    use rtx_relational::{fact, tuple, Instance};
    use std::sync::Arc;

    /// Store(src, x, y) tagged edges → E(x,y) view, then TC over the view.
    #[test]
    fn project_tag_then_transitive_closure() {
        let sch = Schema::new().with("Store", 3);
        let db = Instance::from_facts(
            sch,
            vec![fact!("Store", "n1", 1, 2), fact!("Store", "n2", 2, 3)],
        )
        .unwrap();
        let view = CqBuilder::head(vec![Term::var("X"), Term::var("Y")])
            .when(atom!("Store"; @"S", @"X", @"Y"))
            .build()
            .unwrap();
        let tc = Program::new(vec![
            Rule::new(
                atom!("T"; @"X", @"Y"),
                vec![crate::datalog::Literal::Pos(atom!("E"; @"X", @"Y"))],
            )
            .unwrap(),
            Rule::new(
                atom!("T"; @"X", @"Z"),
                vec![
                    crate::datalog::Literal::Pos(atom!("T"; @"X", @"Y")),
                    crate::datalog::Literal::Pos(atom!("E"; @"Y", @"Z")),
                ],
            )
            .unwrap(),
        ])
        .unwrap();
        let inner: QueryRef = Arc::new(DatalogQuery::new(tc, "T").unwrap());
        let q = ViewQuery::new(
            vec![(
                "E".into(),
                Arc::new(crate::cq::UcqQuery::single(view)) as QueryRef,
            )],
            inner,
        );
        let out = q.eval(&db).unwrap();
        assert!(out.contains(&tuple![1, 3]));
        assert_eq!(out.len(), 3);
        assert!(q.is_monotone_syntactic());
        assert!(q.referenced_relations().contains(&"Store".into()));
        assert!(!q.referenced_relations().contains(&"E".into()));
    }

    #[test]
    fn include_base_passes_other_relations() {
        let sch = Schema::new().with("Store", 2).with("K", 1);
        let db = Instance::from_facts(sch, vec![fact!("Store", 1, 5), fact!("K", 5)]).unwrap();
        let view = CqBuilder::head(vec![Term::var("X")])
            .when(atom!("Store"; @"T", @"X"))
            .build()
            .unwrap();
        // inner: S(x) ∧ K(x)
        let inner_rule = CqBuilder::head(vec![Term::var("X")])
            .when(atom!("S"; @"X"))
            .when(atom!("K"; @"X"))
            .build()
            .unwrap();
        let q = ViewQuery::new(
            vec![(
                "S".into(),
                Arc::new(crate::cq::UcqQuery::single(view)) as QueryRef,
            )],
            Arc::new(crate::cq::UcqQuery::single(inner_rule)),
        )
        .with_base();
        let out = q.eval(&db).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains(&tuple![5]));
        let refs = q.referenced_relations();
        assert!(refs.contains(&"Store".into()));
        assert!(refs.contains(&"K".into()));
    }

    /// A view composition over a delta: the view's own delta and the
    /// unshadowed base deltas reach the inner query.
    #[test]
    fn delta_evaluation_passes_view_and_base_deltas() {
        use crate::datalog::TpQuery;
        let sch = Schema::new().with("Store", 2).with("T", 2);
        let before = Instance::from_facts(
            sch.clone(),
            vec![fact!("Store", 1, 2), fact!("Store", 2, 3), fact!("T", 1, 2)],
        )
        .unwrap();
        let view = CqBuilder::head(vec![Term::var("X"), Term::var("Y")])
            .when(atom!("Store"; @"X", @"Y"))
            .build()
            .unwrap();
        let tp =
            crate::parser::parse_program("T(X,Y) :- E(X,Y). T(X,Z) :- T(X,Y), E(Y,Z).").unwrap();
        let q = ViewQuery::new(
            vec![(
                "E".into(),
                Arc::new(crate::cq::UcqQuery::single(view)) as QueryRef,
            )],
            Arc::new(TpQuery::new(tp, "T").unwrap()),
        )
        .with_base();
        for added in [vec![fact!("Store", 3, 4)], vec![fact!("T", 0, 1)]] {
            let mut db = before.clone();
            for f in &added {
                db.insert_fact(f.clone()).unwrap();
            }
            let delta = Instance::from_facts(sch.clone(), added).unwrap();
            let d = q.eval_delta(&db, &delta).unwrap().expect("monotone parts");
            let (full, old) = (q.eval(&db).unwrap(), q.eval(&before).unwrap());
            assert!(full.difference(&old).unwrap().is_subset(&d), "{d:?}");
            assert!(d.is_subset(&full));
            assert!(!d.is_empty());
        }
    }

    #[test]
    fn view_shadowing_hides_base_relation() {
        // Base has S = {1}; view redefines S = {} (empty query).
        let sch = Schema::new().with("S", 1);
        let db = Instance::from_facts(sch, vec![fact!("S", 1)]).unwrap();
        let q = ViewQuery::new(
            vec![(
                "S".into(),
                Arc::new(crate::query::EmptyQuery::new(1)) as QueryRef,
            )],
            Arc::new(crate::query::CopyQuery::new("S", 1)),
        )
        .with_base();
        assert!(q.eval(&db).unwrap().is_empty());
    }

    #[test]
    fn monotonicity_composition() {
        let q = ViewQuery::new(
            vec![(
                "S".into(),
                Arc::new(crate::query::CopyQuery::new("R", 1)) as QueryRef,
            )],
            Arc::new(crate::query::CopyQuery::new("S", 1)),
        );
        assert!(q.is_monotone_syntactic());
    }
}
