//! Goal-directed evaluation: the magic-sets rewrite.
//!
//! [`Program::eval`] materializes the full IDB bottom-up, so a point
//! lookup (`T(a, ?)` on a large graph) pays for the whole transitive
//! closure. [`Program::for_query`] instead specializes the program to
//! the **bound pattern** of a query:
//!
//! * predicates are **adorned** with a `b`/`f` annotation per argument
//!   position, propagated through rule bodies left-to-right (the
//!   sideways-information-passing strategy: constants and variables
//!   bound by the head or by earlier positive atoms are `b`);
//! * every adorned IDB predicate `p^a` gets a **magic predicate**
//!   `M__p__a` holding the bound-argument tuples actually *demanded*
//!   during evaluation, seeded with the query's constants;
//! * each adorned rule is guarded by its head's magic predicate, and
//!   **magic rules** push demand down: for a body occurrence of `q^a'`
//!   the rule `M__q__a'(bound args) ← guard, preceding positive atoms`
//!   derives exactly the bindings `q` will be asked under;
//! * a **seed-import rule** `p^a(X…) ← M__p__a(bound X…), p(X…)` keeps
//!   exogenously seeded IDB facts (transducer memory between
//!   heartbeats) visible to the specialized program.
//!
//! The rewritten program is ordinary stratified Datalog: the planner,
//! the semi-naive loops, and [`MaintainedFixpoint`] consume it
//! unchanged, magic relations stay small-by-construction (the adaptive
//! engine keeps them in its `SmallTail` regime), and changing the
//! query's constants is just a ± delta on the magic seed
//! ([`MagicQuery::rebind`]).
//!
//! Negation is where rewrites go wrong, so this one is conservative:
//! negated IDB atoms are adorned all-bound with demand pushed from the
//! *full* positive prefix, and if the rewritten program is no longer
//! stratifiable — demand for a negated predicate can flow through the
//! very predicate it negates — the rewrite is rejected and the query
//! falls back to full materialization. Wrong answers are never an
//! outcome; at worst the fallback does the pre-rewrite amount of work.
//!
//! There is no mode switch. The baseline the rewrite is measured and
//! tested against is full evaluation ([`Program::eval`]) with the
//! answers read off by [`Atom::matches`] on the pattern.

use crate::datalog::{Literal, Program, Rule};
use crate::error::EvalError;
use crate::frame::join_body;
use crate::incremental::{FixpointStats, MaintainedFixpoint};
use crate::term::{Atom, Term, Var};
use rtx_relational::{Fact, Instance, InstanceDelta, RelName, Relation, Tuple, Value};
use std::collections::BTreeSet;

/// A program specialized to one query pattern — either the magic-sets
/// rewrite with its seed facts, or the original program, fully
/// materialized and filtered, when the rewrite does not apply. Built by
/// [`Program::for_query`].
#[derive(Clone)]
pub struct MagicQuery {
    program: Program,
    /// Magic seed facts encoding the pattern's constants: one under the
    /// rewrite, none under the fallback.
    seeds: Vec<Fact>,
    /// The predicate holding the answers (the adorned query predicate
    /// under the rewrite, the original under the fallback).
    output: RelName,
    pattern: Atom,
}

impl Program {
    /// Specialize this program to a query `pattern` through the
    /// magic-sets rewrite.
    ///
    /// The pattern is an [`Atom`] over a program predicate: constant
    /// positions are *bound* (the demand the rewrite specializes to),
    /// variable positions are *free*. Falls back to full
    /// materialization when the pattern is all-free, names an EDB
    /// predicate, or the rewrite fails (most importantly: when pushing
    /// demand through negation would make the program unstratifiable —
    /// a magic query never answers wrong, it answers slower).
    pub fn for_query(&self, pattern: &Atom) -> Result<MagicQuery, EvalError> {
        match self.signature().arity(&pattern.pred) {
            None => {
                return Err(EvalError::Other(format!(
                    "query pattern predicate `{}` is not mentioned by the program",
                    pattern.pred
                )))
            }
            Some(arity) if arity != pattern.arity() => {
                return Err(EvalError::Other(format!(
                    "query pattern for `{}` has arity {}, program declares {}",
                    pattern.pred,
                    pattern.arity(),
                    arity
                )))
            }
            Some(_) => {}
        }
        let has_bound = pattern.terms.iter().any(|t| matches!(t, Term::Const(_)));
        if has_bound && self.idb_predicates().contains(&pattern.pred) {
            if let Ok((program, output, seeds)) = rewrite(self, pattern) {
                return Ok(MagicQuery {
                    program,
                    seeds,
                    output,
                    pattern: pattern.clone(),
                });
            }
        }
        Ok(MagicQuery {
            program: self.clone(),
            seeds: Vec::new(),
            output: pattern.pred.clone(),
            pattern: pattern.clone(),
        })
    }
}

impl MagicQuery {
    /// Is this query answered through the magic rewrite (rather than
    /// the materializing fallback)?
    pub fn is_magic(&self) -> bool {
        !self.seeds.is_empty()
    }

    /// The program that will be evaluated (the rewrite, when it
    /// applies).
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The predicate holding the (unfiltered) answers.
    pub fn output(&self) -> &RelName {
        &self.output
    }

    /// The query pattern this program was specialized to.
    pub fn pattern(&self) -> &Atom {
        &self.pattern
    }

    /// `db` widened to the evaluation schema with the magic seeds
    /// inserted — what [`MagicQuery::answer`] evaluates over, and what
    /// a [`MaintainedFixpoint`] over [`MagicQuery::program`] should be
    /// initialized from.
    pub fn seeded_base(&self, db: &Instance) -> Result<Instance, EvalError> {
        let schema = db.schema().union_compatible(self.program.signature())?;
        let mut base = db.widen(schema)?;
        for f in &self.seeds {
            base.insert_fact(f.clone())?;
        }
        Ok(base)
    }

    /// Evaluate and return the answer tuples matching the pattern.
    pub fn answer(&self, db: &Instance) -> Result<Relation, EvalError> {
        Ok(self.answer_with_stats(db)?.0)
    }

    /// [`MagicQuery::answer`] plus the evaluation's per-stratum
    /// derivation counters — the evidence that magic derived only the
    /// demand-reachable facts.
    pub fn answer_with_stats(&self, db: &Instance) -> Result<(Relation, FixpointStats), EvalError> {
        let base = self.seeded_base(db)?;
        let (total, stats) = self.program.eval_with_stats(&base)?;
        Ok((self.answer_from(&total)?, stats))
    }

    /// Extract the answers from an already evaluated instance (e.g.
    /// the [`MaintainedFixpoint::current`] of a maintained magic
    /// query): the output relation joined with the pattern, which keeps
    /// the tuples matching its constants and repeated variables.
    pub fn answer_from(&self, total: &Instance) -> Result<Relation, EvalError> {
        let pattern = Atom::new(self.output.clone(), self.pattern.terms.clone());
        let Some(rel) = crate::plan::lookup(total, &pattern)? else {
            return Ok(Relation::empty(pattern.arity()));
        };
        match join_body(&[(&pattern, rel)], &[0], [], [], total)? {
            Some(frame) => Ok(Relation::from_result_run(frame.project(&pattern.terms)?)),
            None => Ok(Relation::empty(pattern.arity())),
        }
    }

    /// A [`MaintainedFixpoint`] over the (rewritten) program,
    /// initialized from `db` plus the magic seeds. Changing the
    /// query's constants afterwards is one [`MagicQuery::rebind`]
    /// delta, maintained in O(changed demand) instead of a fresh
    /// evaluation.
    pub fn maintained(&self, db: &Instance) -> Result<MaintainedFixpoint, EvalError> {
        let mut fix = MaintainedFixpoint::new(&self.program)?;
        fix.initialize(&self.seeded_base(db)?)?;
        Ok(fix)
    }

    /// Re-target the query at new constants with the **same binding
    /// shape** (bound/free positions must match — the rewritten
    /// program depends only on the shape). Returns the new query and
    /// the ± seed delta that moves a maintained fixpoint (or a seeded
    /// base) from the old binding to the new one.
    pub fn rebind(&self, pattern: &Atom) -> Result<(MagicQuery, InstanceDelta), EvalError> {
        let same_shape = pattern.pred == self.pattern.pred
            && pattern.arity() == self.pattern.arity()
            && pattern
                .terms
                .iter()
                .zip(&self.pattern.terms)
                .all(|(a, b)| matches!(a, Term::Const(_)) == matches!(b, Term::Const(_)));
        if !same_shape {
            return Err(EvalError::Other(format!(
                "rebind pattern {pattern} does not match the binding shape of {}; \
                 build a new query with Program::for_query",
                self.pattern
            )));
        }
        let mut next = self.clone();
        next.pattern = pattern.clone();
        if self.is_magic() {
            let magic_pred = self.seeds[0].rel().clone();
            next.seeds = vec![Fact::new(magic_pred, bound_values(pattern))];
        }
        let delta = InstanceDelta::from_parts(next.seeds.clone(), self.seeds.clone());
        rtx_obs::registry::add("magic.rebinds", 1);
        if rtx_obs::tracing() {
            rtx_obs::event!(
                "query",
                "magic.rebind",
                "seeds_added" => next.seeds.len(),
                "seeds_removed" => self.seeds.len(),
            );
        }
        Ok((next, delta))
    }
}

/// A binding pattern: `true` per bound (`b`) argument position.
type Adornment = Vec<bool>;

fn bf(ad: &Adornment) -> String {
    ad.iter().map(|b| if *b { 'b' } else { 'f' }).collect()
}

/// The constants at the pattern's bound positions, in position order.
fn bound_values(pattern: &Atom) -> Tuple {
    let vs: Vec<Value> = pattern
        .terms
        .iter()
        .filter_map(|t| match t {
            Term::Const(c) => Some(*c),
            Term::Var(_) => None,
        })
        .collect();
    Tuple::new(vs)
}

/// The terms at the adornment's bound positions, in position order.
fn bound_terms(terms: &[Term], ad: &Adornment) -> Vec<Term> {
    terms
        .iter()
        .zip(ad)
        .filter(|(_, b)| **b)
        .map(|(t, _)| t.clone())
        .collect()
}

struct Rewriter<'a> {
    program: &'a Program,
    queue: Vec<(RelName, Adornment)>,
    done: BTreeSet<(RelName, Adornment)>,
    rules: Vec<Rule>,
}

impl<'a> Rewriter<'a> {
    /// A generated predicate name, rejected if the source program
    /// already uses it (the rewrite must never shadow user relations).
    fn fresh(&self, name: String) -> Result<RelName, EvalError> {
        let rel: RelName = name.into();
        if self.program.signature().arity(&rel).is_some() {
            return Err(EvalError::Other(format!(
                "magic rewrite name `{rel}` collides with a program predicate"
            )));
        }
        Ok(rel)
    }

    fn adorned(&self, p: &RelName, ad: &Adornment) -> Result<RelName, EvalError> {
        self.fresh(format!("{p}__{}", bf(ad)))
    }

    fn magic(&self, p: &RelName, ad: &Adornment) -> Result<RelName, EvalError> {
        self.fresh(format!("M__{p}__{}", bf(ad)))
    }

    fn demand(&mut self, p: &RelName, ad: Adornment) {
        let key = (p.clone(), ad);
        if !self.done.contains(&key) && !self.queue.contains(&key) {
            self.queue.push(key);
        }
    }

    fn emit(&mut self, rule: Rule) {
        if !self.rules.contains(&rule) {
            self.rules.push(rule);
        }
    }

    /// Emit the seed-import rule and the adorned versions of every
    /// rule defining `p`, pushing newly demanded adornments onto the
    /// worklist.
    fn process(&mut self, p: &RelName, ad: &Adornment) -> Result<(), EvalError> {
        let arity = ad.len();
        let guard_of = |rw: &Self, head_terms: &[Term]| -> Result<Option<Atom>, EvalError> {
            if ad.iter().any(|b| *b) {
                Ok(Some(Atom::new(
                    rw.magic(p, ad)?,
                    bound_terms(head_terms, ad),
                )))
            } else {
                Ok(None)
            }
        };
        // Seed-import: exogenously seeded `p` facts stay visible under
        // the adornment (and `p` itself becomes EDB for the rewrite).
        let vars: Vec<Term> = (0..arity).map(|i| Term::var(format!("__Mv{i}"))).collect();
        let mut import_body = Vec::new();
        if let Some(g) = guard_of(self, &vars)? {
            import_body.push(Literal::Pos(g));
        }
        import_body.push(Literal::Pos(Atom::new(p.clone(), vars.clone())));
        self.emit(Rule::new(
            Atom::new(self.adorned(p, ad)?, vars),
            import_body,
        )?);

        let rules: Vec<Rule> = self
            .program
            .rules()
            .iter()
            .filter(|r| r.head().pred == *p)
            .cloned()
            .collect();
        for r in rules {
            let guard = guard_of(self, &r.head().terms)?;
            // Left-to-right SIPS over the positive atoms: a position is
            // bound if it is a constant or its variable was bound by
            // the head's `b` positions or any earlier positive atom.
            let mut bound: BTreeSet<Var> = r
                .head()
                .terms
                .iter()
                .zip(ad)
                .filter(|(_, b)| **b)
                .filter_map(|(t, _)| t.as_var().copied())
                .collect();
            let mut pos_prefix: Vec<Atom> = Vec::new();
            let mut magic_rules: Vec<Rule> = Vec::new();
            for l in r.body() {
                let Literal::Pos(a) = l else { continue };
                if self.program.idb_predicates().contains(&a.pred) {
                    let a_ad: Adornment = a
                        .terms
                        .iter()
                        .map(|t| match t {
                            Term::Const(_) => true,
                            Term::Var(v) => bound.contains(v),
                        })
                        .collect();
                    if a_ad.iter().any(|b| *b) {
                        // Magic rule: this occurrence is demanded under
                        // exactly the bindings the guard + the earlier
                        // positive atoms produce.
                        let m_head =
                            Atom::new(self.magic(&a.pred, &a_ad)?, bound_terms(&a.terms, &a_ad));
                        let mut m_body: Vec<Literal> = Vec::new();
                        if let Some(g) = &guard {
                            m_body.push(Literal::Pos(g.clone()));
                        }
                        m_body.extend(pos_prefix.iter().cloned().map(Literal::Pos));
                        magic_rules.push(Rule::new(m_head, m_body)?);
                    }
                    pos_prefix.push(Atom::new(self.adorned(&a.pred, &a_ad)?, a.terms.clone()));
                    self.demand(&a.pred, a_ad);
                } else {
                    pos_prefix.push(a.clone());
                }
                bound.extend(a.vars());
            }
            // Negated atoms and nonequalities are filters over fully
            // bound variables; moving them after the positive atoms is
            // semantically neutral. Negated IDB atoms are adorned
            // all-bound with demand from the full positive prefix —
            // the conservative choice that keeps the filter exact.
            let mut filters: Vec<Literal> = Vec::new();
            for l in r.body() {
                match l {
                    Literal::Pos(_) => {}
                    Literal::Neg(a) if self.program.idb_predicates().contains(&a.pred) => {
                        let a_ad: Adornment = vec![true; a.arity()];
                        let m_head = Atom::new(self.magic(&a.pred, &a_ad)?, a.terms.clone());
                        let mut m_body: Vec<Literal> = Vec::new();
                        if let Some(g) = &guard {
                            m_body.push(Literal::Pos(g.clone()));
                        }
                        m_body.extend(pos_prefix.iter().cloned().map(Literal::Pos));
                        magic_rules.push(Rule::new(m_head, m_body)?);
                        filters.push(Literal::Neg(Atom::new(
                            self.adorned(&a.pred, &a_ad)?,
                            a.terms.clone(),
                        )));
                        self.demand(&a.pred, a_ad);
                    }
                    Literal::Neg(_) | Literal::Diseq(_, _) => filters.push(l.clone()),
                }
            }
            let mut body: Vec<Literal> = Vec::new();
            if let Some(g) = guard {
                body.push(Literal::Pos(g));
            }
            body.extend(pos_prefix.into_iter().map(Literal::Pos));
            body.extend(filters);
            self.emit(Rule::new(
                Atom::new(self.adorned(p, ad)?, r.head().terms.clone()),
                body,
            )?);
            for m in magic_rules {
                self.emit(m);
            }
        }
        Ok(())
    }
}

/// The magic-sets rewrite of `program` for `pattern`. Returns the
/// rewritten program, its output predicate, and the magic seed facts;
/// errors (name collision, unstratifiable rewrite) make the caller
/// fall back to materialization.
fn rewrite(program: &Program, pattern: &Atom) -> Result<(Program, RelName, Vec<Fact>), EvalError> {
    let ad0: Adornment = pattern
        .terms
        .iter()
        .map(|t| matches!(t, Term::Const(_)))
        .collect();
    let mut rw = Rewriter {
        program,
        queue: vec![(pattern.pred.clone(), ad0.clone())],
        done: BTreeSet::new(),
        rules: Vec::new(),
    };
    while let Some((p, ad)) = rw.queue.pop() {
        if !rw.done.insert((p.clone(), ad.clone())) {
            continue;
        }
        rw.process(&p, &ad)?;
    }
    let output = rw.adorned(&pattern.pred, &ad0)?;
    let seed = Fact::new(rw.magic(&pattern.pred, &ad0)?, bound_values(pattern));
    let rewritten = Program::new(rw.rules)?;
    // Demand can flow through a negated predicate into itself; the
    // rewrite is rejected (→ the fallback) rather than answered wrong.
    rewritten.stratify()?;
    Ok((rewritten, output, vec![seed]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom;
    use crate::parser::parse_program;
    use rtx_relational::{fact, Schema};

    fn tc() -> Program {
        parse_program("t(X,Y) :- e(X,Y). t(X,Z) :- t(X,Y), e(Y,Z).").unwrap()
    }

    /// The answer by full materialization: every `pattern` match in
    /// `Program::eval` — the baseline the rewrite must agree with.
    fn materialized(p: &Program, pattern: &Atom, db: &Instance) -> (Relation, FixpointStats) {
        let (total, stats) = p.eval_with_stats(db).unwrap();
        let rel = total.relation(&pattern.pred).unwrap();
        let matching = rel.iter().filter(|t| pattern.matches(t)).cloned();
        (
            Relation::from_tuples(pattern.arity(), matching).unwrap(),
            stats,
        )
    }

    fn chain_db(n: i64) -> Instance {
        let sch = Schema::new().with("e", 2).with("t", 2);
        let mut db = Instance::empty(sch);
        for i in 0..n {
            db.insert_fact(fact!("e", i, i + 1)).unwrap();
        }
        db
    }

    #[test]
    fn bound_tc_lookup_matches_materialization() {
        let p = tc();
        let db = chain_db(30);
        let pattern = atom!("t"; 0, @"Y");
        let magic = p.for_query(&pattern).unwrap();
        assert!(magic.is_magic());
        let (ma, ms) = magic.answer_with_stats(&db).unwrap();
        let (fa, fs) = materialized(&p, &pattern, &db);
        assert_eq!(ma, fa);
        assert_eq!(ma.len(), 30);
        // Demand-reachable only: O(n) facts instead of O(n²).
        assert!(
            ms.eval_derived() < fs.eval_derived() / 4,
            "magic {} vs full {}",
            ms.eval_derived(),
            fs.eval_derived()
        );
    }

    #[test]
    fn all_free_pattern_falls_back() {
        let q = tc().for_query(&atom!("t"; @"X", @"Y")).unwrap();
        assert!(!q.is_magic());
        assert_eq!(q.answer(&chain_db(4)).unwrap().len(), 10);
    }

    #[test]
    fn edb_pattern_is_a_filter() {
        let q = tc().for_query(&atom!("e"; 1, @"Y")).unwrap();
        assert!(!q.is_magic());
        let ans = q.answer(&chain_db(4)).unwrap();
        assert_eq!(ans.len(), 1);
        assert!(ans.contains(&rtx_relational::tuple![1, 2]));
    }

    #[test]
    fn repeated_pattern_variables_filter_answers() {
        // T(X,X) on a cycle: only the loop pairs survive the filter.
        let p = tc();
        let sch = Schema::new().with("e", 2).with("t", 2);
        let mut db = Instance::empty(sch);
        for (a, b) in [(1, 2), (2, 1), (2, 3)] {
            db.insert_fact(fact!("e", a, b)).unwrap();
        }
        let q = p.for_query(&atom!("t"; @"X", @"X")).unwrap();
        let ans = q.answer(&db).unwrap();
        assert_eq!(ans.len(), 2);
        assert!(ans.contains(&rtx_relational::tuple![1, 1]));
        assert!(ans.contains(&rtx_relational::tuple![2, 2]));
    }

    #[test]
    fn seeded_idb_facts_survive_the_rewrite() {
        let p = tc();
        let mut db = chain_db(3);
        db.insert_fact(fact!("t", 0, 99)).unwrap();
        let q = p.for_query(&atom!("t"; 0, @"Y")).unwrap();
        assert!(q.is_magic());
        let ans = q.answer(&db).unwrap();
        assert!(ans.contains(&rtx_relational::tuple![0, 99]));
        assert_eq!(ans.len(), 4); // 1..3 plus the seed
    }

    #[test]
    fn rebind_swaps_the_seed() {
        let p = tc();
        let q = p.for_query(&atom!("t"; 1, @"Y")).unwrap();
        let (q2, delta) = q.rebind(&atom!("t"; 2, @"Y")).unwrap();
        assert_eq!(delta.added().len(), 1);
        assert_eq!(delta.removed().len(), 1);
        let db = chain_db(5);
        assert_eq!(q2.answer(&db).unwrap().len(), 3);
        // Different shape is rejected.
        assert!(q.rebind(&atom!("t"; @"X", 2)).is_err());
        assert!(q.rebind(&atom!("e"; 1, @"Y")).is_err());
    }

    #[test]
    fn unknown_pattern_predicate_is_an_error() {
        assert!(tc().for_query(&atom!("z"; 0)).is_err());
        assert!(tc().for_query(&atom!("t"; 0)).is_err()); // arity
    }

    #[test]
    fn name_collisions_fall_back() {
        // The user already has a `T__bf` relation: rewrite must bail.
        let p =
            parse_program("t(X,Y) :- e(X,Y). t(X,Z) :- t(X,Y), e(Y,Z). s(X) :- t__bf(X).").unwrap();
        let q = p.for_query(&atom!("t"; 0, @"Y")).unwrap();
        assert!(!q.is_magic());
    }

    #[test]
    fn unstratifiable_rewrite_is_rejected_not_answered_wrong() {
        // Stratified as written (Q below P), but pushing demand for
        // ¬Q(Y) through P's recursion makes M__Q depend positively on
        // P__b while P__b negates Q__b — a cycle through negation.
        let p = parse_program(
            "p(X) :- e(X,Y), p(Y), !q(Y).
             p(X) :- s(X).
             q(X) :- g(X).",
        )
        .unwrap();
        assert!(p.stratify().is_ok());
        let q = p.for_query(&atom!("p"; 1)).unwrap();
        assert!(!q.is_magic(), "unstratifiable rewrite must fall back");
        let sch = Schema::new()
            .with("e", 2)
            .with("s", 1)
            .with("g", 1)
            .with("p", 1)
            .with("q", 1);
        let mut db = Instance::empty(sch);
        for f in [fact!("e", 1, 2), fact!("s", 2), fact!("g", 3)] {
            db.insert_fact(f).unwrap();
        }
        let ans = q.answer(&db).unwrap();
        assert!(ans.contains(&rtx_relational::tuple![1]));
    }

    #[test]
    fn negation_against_lower_strata_stays_magic() {
        // Demand for ¬b flows through a's (positive, lower-stratum)
        // recursion and never loops back into b: the rewrite stays
        // stratified and exact.
        let p = parse_program(
            "a(X,Y) :- e(X,Y).
             a(X,Z) :- a(X,Y), e(Y,Z).
             w(X,Y) :- a(X,Y), !b(Y).
             b(X) :- g(X).",
        )
        .unwrap();
        let q = p.for_query(&atom!("w"; @"X", @"Y")).unwrap();
        assert!(!q.is_magic(), "all-free pattern falls back");
        let qb = p.for_query(&atom!("w"; 1, @"Y")).unwrap();
        assert!(qb.is_magic());
        let sch = Schema::new()
            .with("e", 2)
            .with("g", 1)
            .with("a", 2)
            .with("w", 2)
            .with("b", 1);
        let mut db = Instance::empty(sch);
        for f in [
            fact!("e", 1, 2),
            fact!("e", 2, 3),
            fact!("e", 3, 4),
            fact!("g", 3),
        ] {
            db.insert_fact(f.clone()).unwrap();
        }
        let ans = qb.answer(&db).unwrap();
        assert_eq!(ans, materialized(&p, &atom!("w"; 1, @"Y"), &db).0);
        assert_eq!(ans.len(), 2); // w(1,2) and w(1,4); 3 is blocked by b
    }
}
