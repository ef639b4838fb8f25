//! Conjunctive queries and unions thereof, with safe negation — UCQ¬.
//!
//! The paper notes (Proposition 7) that the multicast transducer of
//! Lemma 5(1) can be implemented with UCQ¬ local queries, and
//! Corollary 14(3) characterizes Datalog via nonrecursive-Datalog
//! (equivalently, UCQ¬-composition) transducers. This module provides the
//! syntactic class as what it is, nonrecursive Datalog: each disjunct is
//! a Datalog [`Rule`] under the answer predicate that compiled FO
//! queries use too ([`crate::fo`]), fired once through the same function
//! as Datalog's `T_P` on the crate's one columnar join executor
//! (`frame.rs`).

use crate::datalog::{fire_rules, Literal, Rule};
use crate::error::EvalError;
use crate::fo::ANSWER;
use crate::query::Query;
use crate::term::{Atom, Term};
use rtx_relational::{Instance, RelName, Relation, Run};
use std::collections::BTreeSet;
use std::fmt;

/// A union of conjunctive queries with safe negation (UCQ¬): Datalog
/// rules with a common head arity, each fired once.
///
/// With no rules this is the empty query; with negation-free rules it is
/// a plain UCQ and syntactically monotone.
#[derive(Clone, PartialEq, Eq)]
pub struct UcqQuery {
    arity: usize,
    rules: Vec<Rule>,
}

impl UcqQuery {
    /// Build a UCQ¬ from rules of matching head arity.
    pub fn new(arity: usize, rules: Vec<Rule>) -> Result<Self, EvalError> {
        for r in &rules {
            if r.head().arity() != arity {
                return Err(EvalError::Unsafe {
                    reason: format!(
                        "rule head arity {} differs from query arity {arity}",
                        r.head().arity()
                    ),
                });
            }
        }
        Ok(UcqQuery { arity, rules })
    }

    /// A single-rule conjunctive query.
    pub fn single(rule: Rule) -> Self {
        UcqQuery {
            arity: rule.head().arity(),
            rules: vec![rule],
        }
    }

    /// The rules.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Does some rule put a constant in its head?
    fn has_head_constants(&self) -> bool {
        (self.rules.iter()).any(|r| r.head().terms.iter().any(|t| matches!(t, Term::Const(_))))
    }

    /// Add a rule (builder style).
    pub fn or_rule(mut self, rule: Rule) -> Result<Self, EvalError> {
        if rule.head().arity() != self.arity {
            return Err(EvalError::Unsafe {
                reason: "rule arity mismatch in union".into(),
            });
        }
        self.rules.push(rule);
        Ok(self)
    }
}

impl Query for UcqQuery {
    fn arity(&self) -> usize {
        self.arity
    }

    fn eval(&self, db: &Instance) -> Result<Relation, EvalError> {
        let mut out: Option<Run> = None;
        for r in &self.rules {
            if let Some(run) = r.fire(db, None)? {
                out = Some(match out {
                    Some(acc) => acc.union(&run),
                    None => run,
                });
            }
        }
        let Some(out) = out else {
            return Ok(Relation::empty(self.arity));
        };
        // Enforce condition (i): answers are over the active domain. Head
        // constants are the only way a non-adom value can appear.
        if self.has_head_constants() {
            let adom = db.adom();
            let filtered = out
                .rows()
                .iter()
                .filter(|t| t.iter().all(|v| adom.contains(v)));
            return Ok(Relation::from_tuples(self.arity, filtered.cloned())?);
        }
        Ok(Relation::from_result_run(out))
    }

    /// The semi-naive firing of the rules over `delta`, when they are
    /// negation-free and put no constant in a head (see
    /// [`Query::eval_delta`] for why head constants opt out).
    fn eval_delta(&self, db: &Instance, delta: &Instance) -> Result<Option<Relation>, EvalError> {
        if !self.is_monotone_syntactic() || self.has_head_constants() {
            return Ok(None);
        }
        fire_rules(&self.rules, db, Some(delta), self.arity).map(Some)
    }

    fn is_monotone_syntactic(&self) -> bool {
        !self.rules.iter().any(Rule::has_negation)
    }

    fn referenced_relations(&self) -> BTreeSet<RelName> {
        let atoms = self.rules.iter().flat_map(Rule::body);
        atoms
            .filter_map(|l| match l {
                Literal::Pos(a) | Literal::Neg(a) => Some(a.pred.clone()),
                Literal::Diseq(..) => None,
            })
            .collect()
    }

    fn is_always_empty(&self) -> bool {
        self.rules.is_empty()
    }

    fn describe(&self) -> String {
        format!("{self:?}")
    }
}

impl fmt::Debug for UcqQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.rules.is_empty() {
            return write!(f, "∅/{}", self.arity);
        }
        for (i, r) in self.rules.iter().enumerate() {
            if i > 0 {
                write!(f, "  ∪  ")?;
            }
            write!(f, "{r:?}")?;
        }
        Ok(())
    }
}

/// Ergonomic builder for a single CQ¬ rule.
#[derive(Clone, Debug, Default)]
pub struct CqBuilder {
    head: Vec<Term>,
    body: Vec<Literal>,
}

impl CqBuilder {
    /// Start a rule with the given head terms.
    pub fn head(terms: Vec<Term>) -> Self {
        CqBuilder {
            head: terms,
            ..Default::default()
        }
    }

    /// Add a positive atom.
    pub fn when(mut self, a: Atom) -> Self {
        self.body.push(Literal::Pos(a));
        self
    }

    /// Add a negated atom.
    pub fn unless(mut self, a: Atom) -> Self {
        self.body.push(Literal::Neg(a));
        self
    }

    /// Add a nonequality.
    pub fn distinct(mut self, a: Term, b: Term) -> Self {
        self.body.push(Literal::Diseq(a, b));
        self
    }

    /// Finish: the rule `@ans(head) ← body` under the answer predicate
    /// of compiled FO queries, which no body relation can clash with,
    /// validating it as [`Rule::new`] does — every variable in the head,
    /// in a negated atom, or in a nonequality must occur in some
    /// positive atom, and each relation has one arity. A UCQ¬ never
    /// reads `@ans`: the query's answer is the union of its rules' head
    /// tuples.
    pub fn build(self) -> Result<Rule, EvalError> {
        Rule::new(Atom::new(ANSWER, self.head), self.body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom;
    use rtx_relational::{fact, tuple, Schema};

    fn db() -> Instance {
        let sch = Schema::new().with("E", 2).with("S", 1);
        Instance::from_facts(sch, vec![fact!("E", 1, 2), fact!("E", 2, 3), fact!("S", 2)]).unwrap()
    }

    fn v(n: &str) -> Term {
        Term::var(n)
    }

    #[test]
    fn single_atom_cq() {
        let r = CqBuilder::head(vec![v("X")])
            .when(atom!("S"; @"X"))
            .build()
            .unwrap();
        let q = UcqQuery::single(r);
        let out = q.eval(&db()).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains(&tuple![2]));
        assert!(q.is_monotone_syntactic());
    }

    #[test]
    fn join_two_atoms() {
        let r = CqBuilder::head(vec![v("X"), v("Z")])
            .when(atom!("E"; @"X", @"Y"))
            .when(atom!("E"; @"Y", @"Z"))
            .build()
            .unwrap();
        let out = UcqQuery::single(r).eval(&db()).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains(&tuple![1, 3]));
    }

    #[test]
    fn negation_filters() {
        let r = CqBuilder::head(vec![v("X"), v("Y")])
            .when(atom!("E"; @"X", @"Y"))
            .unless(atom!("S"; @"X"))
            .build()
            .unwrap();
        let q = UcqQuery::single(r);
        let out = q.eval(&db()).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains(&tuple![1, 2]));
        assert!(!q.is_monotone_syntactic());
    }

    #[test]
    fn nonequality_filters_but_stays_monotone() {
        let r = CqBuilder::head(vec![v("X"), v("Y")])
            .when(atom!("E"; @"X", @"Y"))
            .distinct(v("X"), Term::cons(1))
            .build()
            .unwrap();
        let q = UcqQuery::single(r);
        let out = q.eval(&db()).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains(&tuple![2, 3]));
        assert!(q.is_monotone_syntactic());
    }

    #[test]
    fn negated_atom_of_the_wrong_arity_is_an_error() {
        // S is unary: ¬S(X,Y) can never be looked up, so the rule is
        // rejected instead of filtering nothing.
        let r = CqBuilder::head(vec![v("X"), v("Y")])
            .when(atom!("E"; @"X", @"Y"))
            .unless(atom!("S"; @"X", @"Y"))
            .build()
            .unwrap();
        let err = UcqQuery::single(r).eval(&db()).unwrap_err();
        assert!(
            matches!(
                err,
                EvalError::Rel(rtx_relational::RelError::ArityMismatch {
                    expected: 1,
                    found: 2,
                    ..
                })
            ),
            "{err:?}"
        );
    }

    #[test]
    fn copy_rules_share_the_atom_run() {
        // S(X) ← S(X) copies S; E(X,X) and a constant do not.
        let copy = CqBuilder::head(vec![v("X")])
            .when(atom!("S"; @"X"))
            .build()
            .unwrap();
        assert!(copy.cached_plan().copy);
        let out = UcqQuery::single(copy).eval(&db()).unwrap();
        assert_eq!(out, Relation::from_tuples(1, [tuple![2]]).unwrap());
        for (head, body) in [
            (vec![v("X")], atom!("E"; @"X", @"X")),
            (vec![v("Y"), v("X")], atom!("E"; @"X", @"Y")),
            (vec![v("X"), Term::cons(3)], atom!("E"; @"X", 3)),
        ] {
            let r = CqBuilder::head(head).when(body).build().unwrap();
            assert!(!r.cached_plan().copy, "{r:?}");
        }
    }

    #[test]
    fn union_of_rules() {
        let r1 = CqBuilder::head(vec![v("X")])
            .when(atom!("S"; @"X"))
            .build()
            .unwrap();
        let r2 = CqBuilder::head(vec![v("X")])
            .when(atom!("E"; @"X", @"Y"))
            .build()
            .unwrap();
        let q = UcqQuery::new(1, vec![r1, r2]).unwrap();
        let out = q.eval(&db()).unwrap();
        assert_eq!(out.len(), 2); // {2} ∪ {1,2}
    }

    #[test]
    fn safety_violations_rejected() {
        // head var not in positive body
        assert!(CqBuilder::head(vec![v("X")]).build().is_err());
        // negated var not positive-bound
        assert!(CqBuilder::head(vec![v("X")])
            .when(atom!("S"; @"X"))
            .unless(atom!("S"; @"Y"))
            .build()
            .is_err());
        // diseq var not positive-bound
        assert!(CqBuilder::head(vec![v("X")])
            .when(atom!("S"; @"X"))
            .distinct(v("Z"), Term::cons(1))
            .build()
            .is_err());
    }

    #[test]
    fn one_relation_at_two_arities_is_rejected() {
        // S(X), S(X,X) cannot both hold: the rule is rejected, instead of
        // answering {} on an empty S and failing on a nonempty one.
        let two = CqBuilder::head(vec![v("X")])
            .when(atom!("S"; @"X"))
            .when(atom!("S"; @"X", @"X"))
            .build();
        let mismatch = |r: &Result<Rule, EvalError>| {
            matches!(
                r,
                Err(EvalError::Rel(
                    rtx_relational::RelError::ArityMismatch { .. }
                ))
            )
        };
        assert!(mismatch(&two), "{two:?}");
        // The head atom counts too.
        let head = Rule::new(atom!("S"; @"X", @"X"), vec![Literal::Pos(atom!("S"; @"X"))]);
        assert!(mismatch(&head), "{head:?}");
        // A body relation named like the old answer predicate is fine.
        let ans = CqBuilder::head(vec![v("X"), v("X")])
            .when(atom!("ans"; @"X"))
            .build();
        assert!(ans.is_ok(), "{ans:?}");
    }

    #[test]
    fn nullary_rule_with_empty_body_is_constant_true() {
        let r = CqBuilder::head(vec![]).build().unwrap();
        let q = UcqQuery::single(r);
        assert!(q.eval(&db()).unwrap().as_bool());
        assert_eq!(q.arity(), 0);
    }

    #[test]
    fn head_constants_filtered_by_adom() {
        let r = CqBuilder::head(vec![Term::cons(99)])
            .when(atom!("S"; @"X"))
            .build()
            .unwrap();
        let q = UcqQuery::single(r);
        assert!(q.eval(&db()).unwrap().is_empty()); // 99 ∉ adom
        let r2 = CqBuilder::head(vec![Term::cons(1)])
            .when(atom!("S"; @"X"))
            .build()
            .unwrap();
        let out = UcqQuery::single(r2).eval(&db()).unwrap();
        assert!(out.contains(&tuple![1])); // 1 ∈ adom
    }

    #[test]
    fn empty_union_is_always_empty() {
        let q = UcqQuery::new(2, vec![]).unwrap();
        assert!(q.is_always_empty());
        assert!(q.eval(&db()).unwrap().is_empty());
        assert!(q.is_monotone_syntactic()); // vacuously positive
    }

    #[test]
    fn arity_mismatch_in_union_rejected() {
        let r1 = CqBuilder::head(vec![v("X")])
            .when(atom!("S"; @"X"))
            .build()
            .unwrap();
        assert!(UcqQuery::new(2, vec![r1.clone()]).is_err());
        let q = UcqQuery::single(r1);
        let r2 = CqBuilder::head(vec![v("X"), v("Y")])
            .when(atom!("E"; @"X", @"Y"))
            .build()
            .unwrap();
        assert!(q.or_rule(r2).is_err());
    }

    #[test]
    fn repeated_variables_join_correctly() {
        let sch = Schema::new().with("E", 2);
        let db = Instance::from_facts(sch, vec![fact!("E", 1, 1), fact!("E", 1, 2)]).unwrap();
        let r = CqBuilder::head(vec![v("X")])
            .when(atom!("E"; @"X", @"X"))
            .build()
            .unwrap();
        let out = UcqQuery::single(r).eval(&db).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains(&tuple![1]));
    }

    /// Over a delta, each rule fires once per atom whose relation has
    /// delta facts, with that atom bound to them: every answer that
    /// needs a delta fact comes back, and nothing outside `Q(db)`.
    /// Negation and head constants answer `None` (evaluate in full).
    #[test]
    fn delta_evaluation_finds_the_answers_that_need_the_delta() {
        let hop = CqBuilder::head(vec![v("X"), v("Z")])
            .when(atom!("E"; @"X", @"Y"))
            .when(atom!("E"; @"Y", @"Z"))
            .build()
            .unwrap();
        let q = UcqQuery::single(hop);
        let mut big = db();
        big.insert_fact(fact!("E", 3, 4)).unwrap();
        let delta = Instance::from_facts(Schema::new().with("E", 2), [fact!("E", 3, 4)]).unwrap();
        let d = q.eval_delta(&big, &delta).unwrap().unwrap();
        assert_eq!(d, Relation::from_tuples(2, [tuple![2, 4]]).unwrap());
        let unrelated = Instance::from_facts(Schema::new().with("S", 1), [fact!("S", 2)]).unwrap();
        assert!(q.eval_delta(&big, &unrelated).unwrap().unwrap().is_empty());
        let negated = CqBuilder::head(vec![v("X")])
            .when(atom!("S"; @"X"))
            .unless(atom!("E"; @"X", @"X"))
            .build()
            .unwrap();
        let constant = CqBuilder::head(vec![Term::cons(1)])
            .when(atom!("S"; @"X"))
            .build()
            .unwrap();
        for r in [negated, constant] {
            assert_eq!(UcqQuery::single(r).eval_delta(&big, &delta).unwrap(), None);
        }
    }

    #[test]
    fn ucq_monotonicity_semantic_spotcheck() {
        // adding facts only adds answers, for a UCQ with nonequalities
        let r = CqBuilder::head(vec![v("X"), v("Y")])
            .when(atom!("E"; @"X", @"Y"))
            .distinct(v("X"), v("Y"))
            .build()
            .unwrap();
        let q = UcqQuery::single(r);
        let small = db();
        let mut big = small.clone();
        big.insert_fact(fact!("E", 7, 8)).unwrap();
        let out_small = q.eval(&small).unwrap();
        let out_big = q.eval(&big).unwrap();
        assert!(out_small.is_subset(&out_big));
    }
}
