//! First-order logic under the **active-domain semantics** — the paper's
//! default local query language for transducers.
//!
//! An FO formula `ϕ(x1, …, xk)` expresses the k-ary query
//! `ϕ(I) = {(a1,…,ak) ∈ adom(I)^k | (adom(I), I) ⊨ ϕ[a1,…,ak]}`
//! (paper, Section 2): quantifiers range over the active domain of the
//! instance, and output tuples are drawn from the active domain.
//!
//! FO is exactly as expressive as nonrecursive Datalog¬, so
//! [`FoQuery::new`] compiles the formula once into a nonrecursive
//! stratified [`Program`] and evaluation is the rule engine's:
//!
//! * a conjunction stays one rule body; `∀` becomes `¬∃¬`, and negation
//!   is pushed through `¬`, `∨` and `∀` down to negated atoms and
//!   nonequalities;
//! * a disjunction, or a negated `∧` or `∃`, becomes a fresh predicate
//!   over its free variables, with one rule per disjunct;
//! * quantified variables are renamed apart, and equalities are solved
//!   by substitution;
//! * adom(I) is the reserved unary relation `@adom`, filled once per
//!   evaluation when some rule reads it. It guards the variables no
//!   positive atom binds, so answers stay in adom(I)^k.
//!
//! A formula that compiles to one rule reading no adom is a CQ¬ and
//! fires once; anything else runs [`Program::eval`]. The naive
//! enumeration semantics is `rtx_ref::fo`, the oracle this compilation
//! is tested against.

use crate::datalog::{Literal, Program, Rule};
use crate::error::EvalError;
use crate::query::Query;
use crate::term::{Atom, Term, Var};
use rtx_relational::{Instance, RelName, Relation, Tuple};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The answer predicate of a compiled FO query and of every UCQ¬ rule
/// ([`crate::cq`]). Fresh predicates are `@p1`, `@p2`, … and fresh
/// variables `@v1`, `@v2`, …: no identifier the lexer reads starts with
/// `@`, so no relation of a parsed query can clash with them.
pub(crate) const ANSWER: &str = "@ans";

/// The reserved unary relation holding adom(I).
const ADOM: &str = "@adom";

/// An FO formula.
#[derive(Clone, PartialEq, Eq)]
pub enum Formula {
    /// Truth.
    True,
    /// Falsity.
    False,
    /// A relational atom `R(t̄)`.
    Atom(Atom),
    /// Equality `t1 = t2`.
    Eq(Term, Term),
    /// Negation.
    Not(Box<Formula>),
    /// Conjunction (empty = true).
    And(Vec<Formula>),
    /// Disjunction (empty = false).
    Or(Vec<Formula>),
    /// Existential quantification over the active domain.
    Exists(Vec<Var>, Box<Formula>),
    /// Universal quantification over the active domain.
    Forall(Vec<Var>, Box<Formula>),
}

impl Formula {
    /// `R(t̄)` as a formula.
    pub fn atom(a: Atom) -> Formula {
        Formula::Atom(a)
    }

    /// Conjunction of the given formulas.
    pub fn and(fs: impl IntoIterator<Item = Formula>) -> Formula {
        Formula::And(fs.into_iter().collect())
    }

    /// Disjunction of the given formulas.
    pub fn or(fs: impl IntoIterator<Item = Formula>) -> Formula {
        Formula::Or(fs.into_iter().collect())
    }

    /// Negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(f: Formula) -> Formula {
        Formula::Not(Box::new(f))
    }

    /// `∃ vars . f`
    pub fn exists<V: Into<Var>>(vars: impl IntoIterator<Item = V>, f: Formula) -> Formula {
        Formula::Exists(vars.into_iter().map(Into::into).collect(), Box::new(f))
    }

    /// `∀ vars . f`
    pub fn forall<V: Into<Var>>(vars: impl IntoIterator<Item = V>, f: Formula) -> Formula {
        Formula::Forall(vars.into_iter().map(Into::into).collect(), Box::new(f))
    }

    /// `t1 = t2`
    pub fn eq(a: Term, b: Term) -> Formula {
        Formula::Eq(a, b)
    }

    /// `t1 ≠ t2`
    pub fn neq(a: Term, b: Term) -> Formula {
        Formula::not(Formula::Eq(a, b))
    }

    /// Free variables of the formula.
    pub fn free_vars(&self) -> BTreeSet<Var> {
        let mut out = BTreeSet::new();
        self.collect_free(&mut BTreeSet::new(), &mut out);
        out
    }

    fn collect_free(&self, bound: &mut BTreeSet<Var>, out: &mut BTreeSet<Var>) {
        match self {
            Formula::True | Formula::False => {}
            Formula::Atom(a) => {
                for t in &a.terms {
                    if let Term::Var(v) = t {
                        if !bound.contains(v) {
                            out.insert(*v);
                        }
                    }
                }
            }
            Formula::Eq(a, b) => {
                for t in [a, b] {
                    if let Term::Var(v) = t {
                        if !bound.contains(v) {
                            out.insert(*v);
                        }
                    }
                }
            }
            Formula::Not(f) => f.collect_free(bound, out),
            Formula::And(fs) | Formula::Or(fs) => {
                for f in fs {
                    f.collect_free(bound, out);
                }
            }
            Formula::Exists(vs, f) | Formula::Forall(vs, f) => {
                let newly: Vec<Var> = vs.iter().filter(|v| bound.insert(*(*v))).cloned().collect();
                f.collect_free(bound, out);
                for v in newly {
                    bound.remove(&v);
                }
            }
        }
    }

    /// All relation names mentioned.
    pub fn relations(&self) -> BTreeSet<RelName> {
        let mut out = BTreeSet::new();
        self.collect_relations(&mut out);
        out
    }

    fn collect_relations(&self, out: &mut BTreeSet<RelName>) {
        match self {
            Formula::True | Formula::False | Formula::Eq(_, _) => {}
            Formula::Atom(a) => {
                out.insert(a.pred.clone());
            }
            Formula::Not(f) => f.collect_relations(out),
            Formula::And(fs) | Formula::Or(fs) => {
                for f in fs {
                    f.collect_relations(out);
                }
            }
            Formula::Exists(_, f) | Formula::Forall(_, f) => f.collect_relations(out),
        }
    }

    /// Is the formula positive-existential (no `∀`; `¬` only directly on
    /// equalities)? Such formulas express monotone queries: adding facts
    /// only grows the active domain and the relations, so every witness
    /// survives, and nonequalities do not read the instance at all.
    pub fn is_positive_existential(&self) -> bool {
        match self {
            Formula::True | Formula::False | Formula::Atom(_) | Formula::Eq(_, _) => true,
            Formula::Not(f) => matches!(**f, Formula::Eq(_, _)),
            Formula::And(fs) | Formula::Or(fs) => fs.iter().all(|f| f.is_positive_existential()),
            Formula::Exists(_, f) => f.is_positive_existential(),
            Formula::Forall(_, _) => false,
        }
    }
}

impl fmt::Debug for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn list<T: fmt::Debug>(f: &mut fmt::Formatter<'_>, xs: &[T], sep: &str) -> fmt::Result {
            for (i, x) in xs.iter().enumerate() {
                if i > 0 {
                    write!(f, "{sep}")?;
                }
                write!(f, "{x:?}")?;
            }
            Ok(())
        }
        match self {
            Formula::True => write!(f, "true"),
            Formula::False => write!(f, "false"),
            Formula::Atom(a) => write!(f, "{a}"),
            Formula::Eq(a, b) => write!(f, "{a} = {b}"),
            Formula::Not(inner) => write!(f, "¬({inner:?})"),
            Formula::And(fs) if fs.is_empty() => write!(f, "true"),
            Formula::Or(fs) if fs.is_empty() => write!(f, "false"),
            Formula::And(fs) | Formula::Or(fs) => {
                let sep = if matches!(self, Formula::And(_)) {
                    " ∧ "
                } else {
                    " ∨ "
                };
                write!(f, "(")?;
                list(f, fs, sep)?;
                write!(f, ")")
            }
            Formula::Exists(vs, g) | Formula::Forall(vs, g) => {
                let q = if matches!(self, Formula::Exists(..)) {
                    "∃"
                } else {
                    "∀"
                };
                write!(f, "{q}")?;
                list(f, vs, ",")?;
                write!(f, ".({g:?})")
            }
        }
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// An FO query `ϕ(x1, …, xk)`: a formula with a designated tuple of head
/// variables, compiled once into a nonrecursive stratified program.
#[derive(Clone)]
pub struct FoQuery {
    head: Vec<Var>,
    formula: Formula,
    /// The compiled rules: [`ANSWER`] holds the answer, and each fresh
    /// `@p` predicate one subformula. A pure function of the query, so
    /// equality ignores it.
    program: Program,
    /// The relations the rules read from the instance, with their
    /// arities.
    inputs: Vec<(RelName, usize)>,
    /// Does some rule read [`ADOM`]?
    reads_adom: bool,
}

impl PartialEq for FoQuery {
    fn eq(&self, other: &Self) -> bool {
        self.head == other.head && self.formula == other.formula
    }
}

impl Eq for FoQuery {}

impl FoQuery {
    /// Build an FO query, validating that every free variable of the
    /// formula appears in the head and that the formula names no
    /// reserved `@` relation, and compile it to rules. A relation used
    /// at two arities is an error.
    pub fn new<V: Into<Var>>(
        head: impl IntoIterator<Item = V>,
        formula: Formula,
    ) -> Result<Self, EvalError> {
        let head: Vec<Var> = head.into_iter().map(Into::into).collect();
        if let Some(v) = formula.free_vars().into_iter().find(|v| !head.contains(v)) {
            return Err(EvalError::Unsafe {
                reason: format!("free variable {v} does not appear in the head"),
            });
        }
        if let Some(r) = (formula.relations().iter()).find(|r| r.as_str().starts_with('@')) {
            return Err(EvalError::Other(format!(
                "`{r}` is reserved for compiled FO queries"
            )));
        }
        let mut compiler = Compiler::default();
        let answer = Atom::new(ANSWER, head.iter().map(|&v| Term::Var(v)).collect());
        compiler.define(&answer, formula.clone(), &[])?;
        let program = Program::new(compiler.rules)?;
        let signature = program.signature();
        let inputs = (signature.iter())
            .filter(|(name, _)| !name.as_str().starts_with('@'))
            .map(|(name, arity)| (name.clone(), arity))
            .collect();
        let reads_adom = signature.contains(&RelName::new(ADOM));
        Ok(FoQuery {
            head,
            formula,
            program,
            inputs,
            reads_adom,
        })
    }

    /// A boolean (nullary) query; the formula must be a sentence.
    pub fn sentence(formula: Formula) -> Result<Self, EvalError> {
        FoQuery::new(Vec::<Var>::new(), formula)
    }

    /// The head variables.
    pub fn head(&self) -> &[Var] {
        &self.head
    }

    /// The formula.
    pub fn formula(&self) -> &Formula {
        &self.formula
    }

    /// The compiled rules.
    pub fn program(&self) -> &Program {
        &self.program
    }
}

/// The translation of formulas to rules: the rules made so far, and
/// counters naming fresh predicates and variables.
#[derive(Default)]
struct Compiler {
    rules: Vec<Rule>,
    preds: usize,
    vars: usize,
}

impl Compiler {
    fn fresh_var(&mut self) -> Var {
        self.vars += 1;
        Var::new(format!("@v{}", self.vars))
    }

    /// `f` with its free variables replaced as `scope` says (the last
    /// entry for a variable wins) and every quantified variable renamed
    /// to a fresh one, so no quantifier shadows another variable or
    /// captures a substituted one.
    fn rename(&mut self, f: &Formula, scope: &mut Vec<(Var, Term)>) -> Formula {
        let term = |t: &Term, scope: &[(Var, Term)]| match t {
            Term::Var(v) => {
                (scope.iter().rev().find(|(w, _)| w == v)).map_or(t.clone(), |(_, to)| to.clone())
            }
            Term::Const(_) => t.clone(),
        };
        match f {
            Formula::True | Formula::False => f.clone(),
            Formula::Atom(a) => Formula::Atom(Atom::new(
                a.pred.clone(),
                a.terms.iter().map(|t| term(t, scope)).collect(),
            )),
            Formula::Eq(x, y) => Formula::Eq(term(x, scope), term(y, scope)),
            Formula::Not(g) => Formula::not(self.rename(g, scope)),
            Formula::And(fs) => Formula::And(fs.iter().map(|g| self.rename(g, scope)).collect()),
            Formula::Or(fs) => Formula::Or(fs.iter().map(|g| self.rename(g, scope)).collect()),
            Formula::Exists(vs, g) | Formula::Forall(vs, g) => {
                let depth = scope.len();
                let fresh: Vec<Var> = (vs.iter())
                    .map(|&v| {
                        let w = self.fresh_var();
                        scope.push((v, Term::Var(w)));
                        w
                    })
                    .collect();
                let g = Box::new(self.rename(g, scope));
                scope.truncate(depth);
                match f {
                    Formula::Exists(..) => Formula::Exists(fresh, g),
                    _ => Formula::Forall(fresh, g),
                }
            }
        }
    }

    /// Define `head`'s predicate as `f`: one rule per disjunct.
    fn define(&mut self, head: &Atom, f: Formula, ctx: &[Atom]) -> Result<(), EvalError> {
        match f {
            Formula::Or(fs) => fs.into_iter().try_for_each(|g| self.define(head, g, ctx)),
            g => self.rule(head, g, ctx),
        }
    }

    /// Add the rule `head ← f`, with `f` read as one conjunction, and the
    /// rules of the fresh predicates it reads; add nothing when `f` is
    /// unsatisfiable on its face. `ctx` holds positive atoms true
    /// wherever `head`'s predicate is read: the rule carries those that
    /// bind a head variable nothing else binds (sideways binding).
    ///
    /// Every variable of a rule ranges over adom(I). A variable that no
    /// positive atom binds, and a constant that an equality put in a
    /// variable's place, is guarded by an [`ADOM`] atom.
    fn rule(&mut self, head: &Atom, f: Formula, ctx: &[Atom]) -> Result<(), EvalError> {
        let start = self.rules.len();
        let (mut pos, mut neg, mut eqs, mut diseqs) = (Vec::new(), Vec::new(), vec![], vec![]);
        // Subformulas that become fresh predicates, and whether the rule
        // reads them negated.
        let mut defs: Vec<(Formula, bool)> = Vec::new();
        let mut quantified: Vec<Var> = Vec::new();
        let mut todo = vec![(f, false)];
        while let Some((f, negated)) = todo.pop() {
            match (f, negated) {
                (Formula::True, false) | (Formula::False, true) => {}
                (Formula::True, true) | (Formula::False, false) => return Ok(()),
                (Formula::Not(g), _) => todo.push((*g, !negated)),
                (Formula::Atom(a), false) => pos.push(a),
                (Formula::Atom(a), true) => neg.push(a),
                (Formula::Eq(x, y), false) => eqs.push((x, y)),
                (Formula::Eq(x, y), true) => diseqs.push((x, y)),
                (Formula::And(fs), false) | (Formula::Or(fs), true) => {
                    todo.extend(fs.into_iter().rev().map(|g| (g, negated)))
                }
                (Formula::Exists(vs, g), false) | (Formula::Forall(vs, g), true) => {
                    let mut scope = Vec::new();
                    for v in vs {
                        let w = self.fresh_var();
                        quantified.push(w);
                        scope.push((v, Term::Var(w)));
                    }
                    todo.push((self.rename(&g, &mut scope), negated));
                }
                (Formula::Or(mut fs), false) | (Formula::And(mut fs), true) if fs.len() < 2 => {
                    match fs.pop() {
                        Some(g) => todo.push((g, negated)),
                        None => return Ok(()),
                    }
                }
                (g @ Formula::Or(_), false) => defs.push((g, false)),
                (g @ (Formula::And(_) | Formula::Exists(..)), true) => defs.push((g, true)),
                (Formula::Forall(vs, g), false) => {
                    defs.push((Formula::Exists(vs, Box::new(Formula::not(*g))), true))
                }
            }
        }
        let Some(subst) = solve(eqs) else {
            return Ok(());
        };
        let sub = |t: &Term| match t {
            Term::Var(v) => subst.get(v).unwrap_or(t).clone(),
            Term::Const(_) => t.clone(),
        };
        let sub_atom = |a: &Atom| Atom::new(a.pred.clone(), a.terms.iter().map(sub).collect());
        let head = sub_atom(head);
        let mut scope: Vec<(Var, Term)> = subst.iter().map(|(v, t)| (*v, t.clone())).collect();
        let defs: Vec<(Formula, bool)> = (defs.iter())
            .map(|(g, negated)| (self.rename(g, &mut scope), *negated))
            .collect();
        let mut pos: Vec<Atom> = pos.iter().map(sub_atom).collect();
        let mut bound: BTreeSet<Var> = pos.iter().flat_map(Atom::vars).collect();
        for (g, negated) in &defs {
            if !negated {
                bound.extend(g.free_vars());
            }
        }
        let unbound = |t: &Term| matches!(t, Term::Var(v) if !bound.contains(v));
        let needy: Vec<&Term> = head.terms.iter().filter(|t| unbound(t)).collect();
        let carried = (ctx.iter().map(sub_atom))
            .filter(|a| a.terms.iter().any(|t| needy.contains(&t)))
            .collect::<Vec<_>>();
        pos.extend(carried);
        bound.extend(pos.iter().flat_map(Atom::vars));

        // Guards: unbound head and quantified variables, and substituted
        // constants no positive atom holds.
        let mut guards: BTreeSet<Term> = (head.terms.iter().cloned())
            .chain(quantified.iter().map(|&v| sub(&Term::Var(v))))
            .filter(|t| matches!(t, Term::Var(v) if !bound.contains(v)))
            .collect();
        for c in subst.values().filter(|t| matches!(t, Term::Const(_))) {
            if !pos.iter().any(|a| a.terms.contains(c)) {
                guards.insert(c.clone());
            }
        }

        let mut body: Vec<Literal> = pos.iter().cloned().map(Literal::Pos).collect();
        let mut filters: Vec<Literal> = neg
            .into_iter()
            .map(|a| Literal::Neg(sub_atom(&a)))
            .collect();
        for (g, negated) in defs {
            self.preds += 1;
            let name = format!("@p{}", self.preds);
            let p = Atom::new(name, g.free_vars().into_iter().map(Term::Var).collect());
            let before = self.rules.len();
            self.define(&p, g, &pos)?;
            match (self.rules.len() > before, negated) {
                (true, false) => body.push(Literal::Pos(p)),
                (true, true) => filters.push(Literal::Neg(p)),
                // An undefined predicate is empty: reading it fails the
                // rule, and its negation holds.
                (false, false) => {
                    self.rules.truncate(start);
                    return Ok(());
                }
                (false, true) => {}
            }
        }
        filters.extend(diseqs.iter().map(|(x, y)| Literal::Diseq(sub(x), sub(y))));

        // A guarded variable that occurs in no other literal only says
        // adom(I) ≠ ∅, as any guard does: keep one guard for all such
        // variables, and none when another guard remains.
        let mut used: BTreeSet<Var> = head.vars().into_iter().collect();
        for l in body.iter().chain(&filters) {
            match l {
                Literal::Pos(a) | Literal::Neg(a) => used.extend(a.vars()),
                Literal::Diseq(x, y) => {
                    used.extend([x, y].into_iter().filter_map(Term::as_var).copied())
                }
            }
        }
        let (mut guards, vacuous): (Vec<Term>, Vec<Term>) =
            (guards.into_iter()).partition(|t| !matches!(t, Term::Var(v) if !used.contains(v)));
        if guards.is_empty() {
            guards.extend(vacuous.into_iter().take(1));
        }
        body.extend(
            guards
                .into_iter()
                .map(|t| Literal::Pos(Atom::new(ADOM, vec![t]))),
        );
        body.extend(filters);
        self.rules.push(Rule::new(head, body)?);
        Ok(())
    }
}

/// Solve equalities by substitution: every variable an equality names
/// maps to a constant or to one representative variable of its class.
/// `None` when two distinct constants are equated.
fn solve(eqs: Vec<(Term, Term)>) -> Option<BTreeMap<Var, Term>> {
    let mut subst: BTreeMap<Var, Term> = BTreeMap::new();
    let find = |subst: &BTreeMap<Var, Term>, mut t: Term| {
        while let Some(next) = t.as_var().and_then(|v| subst.get(v)) {
            t = next.clone();
        }
        t
    };
    for (x, y) in eqs {
        match (find(&subst, x), find(&subst, y)) {
            (x, y) if x == y => {}
            (Term::Var(v), t) | (t, Term::Var(v)) => {
                subst.insert(v, t);
            }
            _ => return None,
        }
    }
    let resolved = subst.keys().map(|&v| (v, find(&subst, Term::Var(v))));
    Some(resolved.collect())
}

impl Query for FoQuery {
    fn arity(&self) -> usize {
        self.head.len()
    }

    fn eval(&self, db: &Instance) -> Result<Relation, EvalError> {
        // A relation the rules read must be declared at its arity, even
        // where a rule stops before reading it.
        for (name, arity) in &self.inputs {
            db.schema().check_relation(name, *arity)?;
        }
        let empty = || Ok(Relation::empty(self.head.len()));
        match self.program.rules() {
            [] => return empty(),
            // A lone rule is the answer rule (fresh predicates' rules
            // only exist under a rule that reads them); reading no adom,
            // it is a CQ¬ and fires once, as a UCQ¬ rule does. Its run
            // is the answer as is, with no small-regime rebuild.
            [rule] if !self.reads_adom => {
                return (rule.fire(db, None)?).map_or_else(empty, |run| Ok(Relation::from_run(run)))
            }
            _ => {}
        }
        // The rules read I's relations and adom(I) only: a relation I
        // declares under a translation name is no seed.
        let mut input = Instance::empty(self.program.signature().clone());
        for (name, _) in &self.inputs {
            if let Some(rel) = db.relation_ref(name) {
                input.union_relation(name, rel)?;
            }
        }
        if self.reads_adom {
            let adom = db.adom().into_iter().map(|v| Tuple::new([v]));
            input.set_relation(ADOM, Relation::from_tuples(1, adom)?)?;
        }
        Ok(self.program.eval(&input)?.relation(&RelName::new(ANSWER))?)
    }

    fn is_monotone_syntactic(&self) -> bool {
        self.formula.is_positive_existential()
    }

    fn referenced_relations(&self) -> BTreeSet<RelName> {
        self.formula.relations()
    }

    fn is_always_empty(&self) -> bool {
        matches!(self.formula, Formula::False)
            || matches!(&self.formula, Formula::Or(fs) if fs.is_empty())
    }

    fn describe(&self) -> String {
        format!("{self:?}")
    }
}

impl fmt::Debug for FoQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.head.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ") ← {:?}", self.formula)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom;
    use rtx_relational::{fact, tuple, RelError, Schema, Value};

    fn db_edges(edges: &[(i64, i64)]) -> Instance {
        let sch = Schema::new().with("E", 2).with("S", 1);
        let mut i = Instance::empty(sch);
        for &(a, b) in edges {
            i.insert_fact(fact!("E", a, b)).unwrap();
        }
        i
    }

    #[test]
    fn atom_query_selects_tuples() {
        let db = db_edges(&[(1, 2), (2, 3)]);
        let q = FoQuery::new(["X", "Y"], Formula::atom(atom!("E"; @"X", @"Y"))).unwrap();
        let r = q.eval(&db).unwrap();
        assert_eq!(r.len(), 2);
        assert!(r.contains(&tuple![1, 2]));
    }

    #[test]
    fn equality_selection_example3a() {
        // σ_{$1=$2}(E) — the paper's Example 3 (first part).
        let db = db_edges(&[(1, 1), (1, 2), (3, 3)]);
        let q = FoQuery::new(
            ["X", "Y"],
            Formula::and([
                Formula::atom(atom!("E"; @"X", @"Y")),
                Formula::eq(Term::var("X"), Term::var("Y")),
            ]),
        )
        .unwrap();
        let r = q.eval(&db).unwrap();
        assert_eq!(r.len(), 2);
        assert!(r.contains(&tuple![1, 1]));
        assert!(r.contains(&tuple![3, 3]));
    }

    #[test]
    fn join_composes_relations() {
        let db = db_edges(&[(1, 2), (2, 3), (3, 4)]);
        // two-step paths
        let q = FoQuery::new(
            ["X", "Z"],
            Formula::exists(
                ["Y"],
                Formula::and([
                    Formula::atom(atom!("E"; @"X", @"Y")),
                    Formula::atom(atom!("E"; @"Y", @"Z")),
                ]),
            ),
        )
        .unwrap();
        let r = q.eval(&db).unwrap();
        assert_eq!(r.len(), 2);
        assert!(r.contains(&tuple![1, 3]));
        assert!(r.contains(&tuple![2, 4]));
    }

    #[test]
    fn negation_under_active_domain() {
        // non-edges over the active domain
        let db = db_edges(&[(1, 2)]);
        let q = FoQuery::new(
            ["X", "Y"],
            Formula::not(Formula::atom(atom!("E"; @"X", @"Y"))),
        )
        .unwrap();
        let r = q.eval(&db).unwrap();
        // adom = {1,2}; pairs are (1,1),(1,2),(2,1),(2,2); (1,2) is an edge.
        assert_eq!(r.len(), 3);
        assert!(!r.contains(&tuple![1, 2]));
    }

    #[test]
    fn forall_sentence() {
        // "every S element has an outgoing edge"
        let sch = Schema::new().with("E", 2).with("S", 1);
        let mut db = Instance::empty(sch);
        db.insert_fact(fact!("S", 1)).unwrap();
        db.insert_fact(fact!("E", 1, 2)).unwrap();
        let q = FoQuery::sentence(Formula::forall(
            ["X"],
            Formula::or([
                Formula::not(Formula::atom(atom!("S"; @"X"))),
                Formula::exists(["Y"], Formula::atom(atom!("E"; @"X", @"Y"))),
            ]),
        ))
        .unwrap();
        assert!(q.eval(&db).unwrap().as_bool());
        db.insert_fact(fact!("S", 2)).unwrap(); // 2 has no outgoing edge
        assert!(!q.eval(&db).unwrap().as_bool());
    }

    #[test]
    fn emptiness_sentence() {
        // the paper's Example 10 kernel: "S is empty"
        let q = FoQuery::sentence(Formula::not(Formula::exists(
            ["X"],
            Formula::atom(atom!("S"; @"X")),
        )))
        .unwrap();
        let sch = Schema::new().with("S", 1).with("E", 2);
        let mut db = Instance::empty(sch);
        db.insert_fact(fact!("E", 1, 2)).unwrap(); // keeps adom nonempty
        assert!(q.eval(&db).unwrap().as_bool());
        db.insert_fact(fact!("S", 1)).unwrap();
        assert!(!q.eval(&db).unwrap().as_bool());
    }

    #[test]
    fn nullary_sentence_on_empty_adom() {
        // With an empty active domain, ∃x.S(x) is false and ¬∃x.S(x) true.
        let sch = Schema::new().with("S", 1);
        let db = Instance::empty(sch);
        let q = FoQuery::sentence(Formula::not(Formula::exists(
            ["X"],
            Formula::atom(atom!("S"; @"X")),
        )))
        .unwrap();
        assert!(q.eval(&db).unwrap().as_bool());
    }

    #[test]
    fn head_variable_not_in_formula_ranges_over_adom() {
        let db = db_edges(&[(1, 2)]);
        let q = FoQuery::new(
            ["X", "Y"],
            Formula::exists(["Z"], Formula::atom(atom!("E"; @"X", @"Z"))),
        )
        .unwrap();
        let r = q.eval(&db).unwrap();
        // X=1 (has an outgoing edge), Y ranges over adom {1,2}.
        assert_eq!(r.len(), 2);
        assert!(r.contains(&tuple![1, 1]));
        assert!(r.contains(&tuple![1, 2]));
    }

    #[test]
    fn constants_outside_adom_do_not_leak_into_output() {
        let db = db_edges(&[(1, 2)]);
        let q = FoQuery::new(["X"], Formula::eq(Term::var("X"), Term::cons(99))).unwrap();
        assert!(q.eval(&db).unwrap().is_empty());
        let q2 = FoQuery::new(["X"], Formula::eq(Term::var("X"), Term::cons(1))).unwrap();
        assert_eq!(q2.eval(&db).unwrap().len(), 1);
    }

    #[test]
    fn free_variable_validation() {
        let err = FoQuery::new(["X"], Formula::atom(atom!("E"; @"X", @"Y")));
        assert!(matches!(err, Err(EvalError::Unsafe { .. })));
    }

    #[test]
    fn positive_existential_detection() {
        let pe = Formula::exists(
            ["X"],
            Formula::and([
                Formula::atom(atom!("S"; @"X")),
                Formula::neq(Term::var("X"), Term::cons(1)),
            ]),
        );
        assert!(pe.is_positive_existential());
        assert!(!Formula::not(Formula::atom(atom!("S"; @"X"))).is_positive_existential());
        assert!(!Formula::forall(["X"], Formula::atom(atom!("S"; @"X"))).is_positive_existential());
    }

    #[test]
    fn monotone_queries_report_monotone() {
        let q = FoQuery::new(["X"], Formula::atom(atom!("S"; @"X"))).unwrap();
        assert!(q.is_monotone_syntactic());
        let q2 = FoQuery::new(["X"], Formula::not(Formula::atom(atom!("S"; @"X")))).unwrap();
        assert!(!q2.is_monotone_syntactic());
    }

    #[test]
    fn referenced_relations_collects_all() {
        let q = FoQuery::new(
            ["X"],
            Formula::or([
                Formula::atom(atom!("S"; @"X")),
                Formula::exists(["Y"], Formula::atom(atom!("E"; @"X", @"Y"))),
            ]),
        )
        .unwrap();
        let refs = q.referenced_relations();
        assert!(refs.contains(&"S".into()));
        assert!(refs.contains(&"E".into()));
        assert_eq!(refs.len(), 2);
    }

    #[test]
    fn always_empty_detection() {
        let q = FoQuery::new(["X"], Formula::False).unwrap();
        assert!(q.is_always_empty());
        let q2 = FoQuery::new(["X"], Formula::atom(atom!("S"; @"X"))).unwrap();
        assert!(!q2.is_always_empty());
    }

    #[test]
    fn quantifier_shadowing_is_handled() {
        // ∃X (S(X)) where X also in head: head X and quantified X are
        // different bindings; the inner one must not clobber the outer.
        let sch = Schema::new().with("S", 1).with("T", 1);
        let mut db = Instance::empty(sch);
        db.insert_fact(fact!("S", 1)).unwrap();
        db.insert_fact(fact!("T", 2)).unwrap();
        let q = FoQuery::new(
            ["X"],
            Formula::and([
                Formula::atom(atom!("T"; @"X")),
                Formula::exists(["X"], Formula::atom(atom!("S"; @"X"))),
            ]),
        )
        .unwrap();
        let r = q.eval(&db).unwrap();
        assert_eq!(r.len(), 1);
        assert!(r.contains(&tuple![2]));
    }

    #[test]
    fn genericity_under_renaming() {
        let db = db_edges(&[(1, 2), (2, 3)]);
        let q = FoQuery::new(
            ["X", "Z"],
            Formula::exists(
                ["Y"],
                Formula::and([
                    Formula::atom(atom!("E"; @"X", @"Y")),
                    Formula::atom(atom!("E"; @"Y", @"Z")),
                ]),
            ),
        )
        .unwrap();
        let h = rtx_relational::Iso::from_pairs(vec![
            (Value::int(1), Value::int(10)),
            (Value::int(2), Value::int(20)),
            (Value::int(3), Value::int(30)),
        ])
        .unwrap();
        let lhs = q.eval(&h.apply_instance(&db)).unwrap();
        let rhs = h.apply_relation(&q.eval(&db).unwrap());
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn describe_is_readable() {
        let q = FoQuery::new(["X"], Formula::atom(atom!("S"; @"X"))).unwrap();
        assert!(q.describe().contains("S(X)"));
    }

    #[test]
    fn exists_prefix_becomes_generator_join() {
        // ∃Y (E(X,Y) ∧ E(Y,Z)): the two-hop join shape
        let q = FoQuery::new(
            ["X", "Z"],
            Formula::exists(
                ["Y"],
                Formula::and([
                    Formula::atom(atom!("E"; @"X", @"Y")),
                    Formula::atom(atom!("E"; @"Y", @"Z")),
                ]),
            ),
        )
        .unwrap();
        let db = db_edges(&[(1, 2), (2, 3), (2, 4), (5, 6)]);
        let out = q.eval(&db).unwrap();
        assert_eq!(out.len(), 2);
        assert!(out.contains(&tuple![1, 3]));
        assert!(out.contains(&tuple![1, 4]));
    }

    #[test]
    fn exists_prefix_with_residual_check() {
        // ∃Y (E(X,Y) ∧ ¬S(Y)): one rule, Y bound by E and filtered by
        // ¬S
        let q = FoQuery::new(
            ["X"],
            Formula::exists(
                ["Y"],
                Formula::and([
                    Formula::atom(atom!("E"; @"X", @"Y")),
                    Formula::not(Formula::atom(atom!("S"; @"Y"))),
                ]),
            ),
        )
        .unwrap();
        let mut db = db_edges(&[(1, 2), (3, 4)]);
        db.insert_fact(fact!("S", 2)).unwrap();
        let out = q.eval(&db).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains(&tuple![3]));
    }

    #[test]
    fn exists_shadowing_head_var_not_stripped() {
        // ∃X S(X) with head X: the quantified X is a *different*
        // variable; the head X ranges over the whole active domain.
        let q = FoQuery::new(
            ["X"],
            Formula::and([
                Formula::exists(["Y"], Formula::atom(atom!("S"; @"Y"))),
                Formula::eq(Term::var("X"), Term::var("X")),
            ]),
        )
        .unwrap();
        // (the inner ∃ inlines a renamed Y; the head X, bound by no
        // atom, is guarded by adom)
        let mut db = db_edges(&[(1, 2)]);
        db.insert_fact(fact!("S", 7)).unwrap();
        let out = q.eval(&db).unwrap();
        // every adom element qualifies
        assert_eq!(out.len(), db.adom().len());

        // a direct head shadow: ∃X S(X) with head [X] keeps the
        // enumeration semantics (head X free, formula closed)
        let shadow = FoQuery::new(
            ["X"],
            Formula::exists(["X"], Formula::atom(atom!("S"; @"X"))),
        );
        // head X is not free in the formula → constructor rejects or
        // evaluates as sentence-per-adom; accept either, but if it
        // builds, results must match the enumeration semantics.
        if let Ok(q) = shadow {
            let out = q.eval(&db).unwrap();
            assert_eq!(out.len(), db.adom().len());
        }
    }

    #[test]
    fn reserved_and_two_arity_relations_are_rejected() {
        let reserved = FoQuery::new(["X"], Formula::atom(atom!("@adom"; @"X")));
        assert!(matches!(reserved, Err(EvalError::Other(_))), "{reserved:?}");
        // S(X) ∧ S(X,X) can never hold on any instance.
        let two = FoQuery::new(
            ["X"],
            Formula::and([
                Formula::atom(atom!("S"; @"X")),
                Formula::atom(atom!("S"; @"X", @"X")),
            ]),
        );
        assert!(
            matches!(two, Err(EvalError::Rel(RelError::ArityMismatch { .. }))),
            "{two:?}"
        );
    }

    #[test]
    fn instance_relations_under_translation_names_are_not_read() {
        // (X) ← S(X) ∧ ¬∃Y E(X,Y) compiles to `@ans(X) ← S(X), ¬@p1(X)`
        // and `@p1(X) ← E(X,@v1)`; (X,Y) ← ¬E(X,Y) reads `@adom`.
        let dangling = FoQuery::new(
            ["X"],
            Formula::and([
                Formula::atom(atom!("S"; @"X")),
                Formula::not(Formula::exists(
                    ["Y"],
                    Formula::atom(atom!("E"; @"X", @"Y")),
                )),
            ]),
        )
        .unwrap();
        let non_edges = FoQuery::new(
            ["X", "Y"],
            Formula::not(Formula::atom(atom!("E"; @"X", @"Y"))),
        )
        .unwrap();
        let plain = {
            let mut db = db_edges(&[(1, 2)]);
            db.insert_fact(fact!("S", 1)).unwrap();
            db.insert_fact(fact!("S", 2)).unwrap();
            db
        };
        // The same facts, plus relations named like the translation's,
        // over values already in adom(I).
        let names = Schema::new()
            .with("@ans", 1)
            .with("@p1", 1)
            .with("@adom", 2);
        let mut shadowed = plain
            .widen(plain.schema().union_compatible(&names).unwrap())
            .unwrap();
        for f in [fact!("@ans", 1), fact!("@p1", 2), fact!("@adom", 1, 2)] {
            shadowed.insert_fact(f).unwrap();
        }
        assert_eq!(
            dangling.eval(&plain).unwrap(),
            Relation::from_tuples(1, [tuple![2]]).unwrap()
        );
        for q in [&dangling, &non_edges] {
            assert_eq!(q.eval(&shadowed).unwrap(), q.eval(&plain).unwrap(), "{q:?}");
        }
    }

    #[test]
    fn unused_exists_var_keeps_enumeration_semantics() {
        // ∃Y S(X) over an empty database: false (no witness for Y)
        let q = FoQuery::new(
            ["X"],
            Formula::exists(["Y"], Formula::atom(atom!("S"; @"X"))),
        )
        .unwrap();
        let db = db_edges(&[]);
        assert!(q.eval(&db).unwrap().is_empty());
    }

    /// A guarded variable that occurs nowhere else only says adom(I) ≠
    /// ∅: one guard per rule says it, so vacuous and repeated binders
    /// no longer multiply a rule's rows by |adom| each.
    #[test]
    fn vacuous_adom_guards_collapse() {
        let q =
            crate::parser::parse_fo_query("(W) <- exists X, Y . forall Z, Y . E(4, X)").unwrap();
        assert_eq!(
            format!("{:?}", q.program()),
            "@p1(@v1) ← @adom(@v1), ¬E(4,@v1).\n@ans(W) ← @adom(@v1), @adom(W), ¬@p1(@v1)."
        );
        let chain: Vec<(i64, i64)> = (0..40).map(|i| (i, i + 1)).collect();
        let out = q.eval(&db_edges(&chain)).unwrap();
        let adom = Relation::from_tuples(1, (0..=40).map(|v| tuple![v])).unwrap();
        assert_eq!(out, adom, "E(4,5) holds: every W");
        let far: Vec<(i64, i64)> = (5..45).map(|i| (i, i + 1)).collect();
        assert!(q.eval(&db_edges(&far)).unwrap().is_empty(), "no E(4,·)");
        assert!(q.eval(&db_edges(&[])).unwrap().is_empty(), "empty adom");
        // A rule whose only guards are vacuous keeps one of them.
        let lone = FoQuery::sentence(Formula::exists(["X", "Y"], Formula::True)).unwrap();
        assert_eq!(format!("{:?}", lone.program()), "@ans() ← @adom(@v1).");
        assert!(lone.eval(&db_edges(&[(1, 2)])).unwrap().as_bool());
        assert!(!lone.eval(&db_edges(&[])).unwrap().as_bool());
    }
}
