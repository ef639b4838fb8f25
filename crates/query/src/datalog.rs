//! Datalog, stratified Datalog, and nonrecursive Datalog.
//!
//! [`Rule`] is the workspace's one rule type: a UCQ¬ disjunct
//! ([`crate::cq`]) is a rule under a fixed answer predicate, an FO
//! query ([`crate::fo`]) compiles to a nonrecursive program of them,
//! and a Dedalus rule (`rtx-dedalus`) translates to one. Implements
//! semi-naive bottom-up evaluation with stratified negation; every rule
//! firing — semi-naive rounds, `T_P`, UCQ¬ and FO queries — goes through
//! one function, on the crate's one columnar join executor
//! (`frame.rs`). The immediate-consequence operator `T_P` is exposed
//! separately because the paper's Theorem 6(5) builds an oblivious,
//! inflationary transducer whose insertion queries apply `T_P` once per
//! heartbeat.

use crate::error::EvalError;
use crate::frame::join_body;
use crate::incremental::FixpointStats;
use crate::plan;
use crate::query::Query;
use crate::term::{Atom, Term, Var};
use rtx_relational::{Instance, RelName, Relation, Run, Schema};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::OnceLock;

/// A body literal.
#[derive(Clone, PartialEq, Eq)]
pub enum Literal {
    /// A positive atom.
    Pos(Atom),
    /// A negated atom (stratified semantics).
    Neg(Atom),
    /// A nonequality constraint `t1 ≠ t2`.
    Diseq(Term, Term),
}

impl fmt::Debug for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Pos(a) => write!(f, "{a}"),
            Literal::Neg(a) => write!(f, "¬{a}"),
            Literal::Diseq(x, y) => write!(f, "{x} ≠ {y}"),
        }
    }
}

/// A Datalog rule `head ← body` — the crate's one rule type: UCQ¬
/// rules ([`crate::cq`]), compiled FO queries ([`crate::fo`]) and the
/// Dedalus rules of `rtx-dedalus` translate to it, and every rule fires
/// through one function.
#[derive(Clone)]
pub struct Rule {
    head: Atom,
    body: Vec<Literal>,
    /// How the rule fires (see [`FiringPlan`]). A pure function of the rule,
    /// computed lazily on the first firing and cached so the per-firing
    /// hot path never replans.
    plan: OnceLock<FiringPlan>,
}

/// How a [`Rule`] fires.
#[derive(Clone)]
pub(crate) struct FiringPlan {
    /// The body is one positive atom whose terms are the head's, all
    /// distinct variables, and nothing filters: a firing is that atom's
    /// run (the copy plan of `R(x̄) ← S(x̄)`).
    pub(crate) copy: bool,
    /// Join orders of the positive atoms (see [`Rule::plan`]).
    orders: Vec<Vec<usize>>,
}

// `plan` is a cache of a pure function of the rule; equality is over
// the logical rule only.
impl PartialEq for Rule {
    fn eq(&self, other: &Self) -> bool {
        self.head == other.head && self.body == other.body
    }
}

impl Eq for Rule {}

impl Rule {
    /// Build a rule, validating that its atoms, the head's included, use
    /// each relation at one arity, and its safety: a join of the
    /// positive atoms binds every variable of the head, of a negated
    /// atom and of a nonequality. An unsafe rule's reason names it.
    pub fn new(head: Atom, body: Vec<Literal>) -> Result<Self, EvalError> {
        let rule = Rule {
            head,
            body,
            plan: OnceLock::new(),
        };
        let mut arities = Schema::new();
        for a in [&rule.head]
            .into_iter()
            .chain(rule.positive())
            .chain(rule.negated())
        {
            arities.declare(a.pred.clone(), a.arity())?;
        }
        let bound: BTreeSet<Var> = rule.positive().flat_map(Atom::vars).collect();
        let need = (rule.head.terms.iter().map(|t| ("head", t)))
            .chain((rule.negated()).flat_map(|a| a.terms.iter().map(|t| ("negated atom", t))))
            .chain(
                (rule.nonequalities()).flat_map(|(x, y)| [("nonequality", x), ("nonequality", y)]),
            );
        for (what, t) in need {
            if let Some(v) = t.as_var().filter(|v| !bound.contains(v)) {
                return Err(EvalError::Unsafe {
                    reason: format!(
                        "{what} variable {v} is not bound by a positive atom in `{rule:?}`"
                    ),
                });
            }
        }
        Ok(rule)
    }

    pub(crate) fn cached_plan(&self) -> &FiringPlan {
        self.plan.get_or_init(|| {
            let atoms: Vec<&Atom> = self.positive().collect();
            let copy = match (&self.body[..], &atoms[..]) {
                ([_], [a]) => a.terms == self.head.terms && a.vars().len() == a.arity(),
                _ => false,
            };
            let mut orders = vec![plan::plan_order(&atoms, None)];
            orders.extend((0..atoms.len()).map(|i| plan::plan_order(&atoms, Some(i))));
            FiringPlan { copy, orders }
        })
    }

    /// The cached join order of the positive atoms. `None` joins them
    /// alone; `Some(i)` starts from positive atom `i` (the semi-naive
    /// delta).
    pub(crate) fn plan(&self, pinned: Option<usize>) -> &[usize] {
        &self.cached_plan().orders[pinned.map_or(0, |i| i + 1)]
    }

    /// The positive body atoms, in body order.
    pub(crate) fn positive(&self) -> impl Iterator<Item = &Atom> {
        self.body.iter().filter_map(|l| match l {
            Literal::Pos(a) => Some(a),
            _ => None,
        })
    }

    /// The negated body atoms.
    pub(crate) fn negated(&self) -> impl Iterator<Item = &Atom> {
        self.body.iter().filter_map(|l| match l {
            Literal::Neg(a) => Some(a),
            _ => None,
        })
    }

    /// The nonequalities of the body.
    pub(crate) fn nonequalities(&self) -> impl Iterator<Item = (&Term, &Term)> {
        self.body.iter().filter_map(|l| match l {
            Literal::Diseq(x, y) => Some((x, y)),
            _ => None,
        })
    }

    /// The head atom.
    pub fn head(&self) -> &Atom {
        &self.head
    }

    /// The body literals.
    pub fn body(&self) -> &[Literal] {
        &self.body
    }

    /// Does the body contain a negated atom?
    pub fn has_negation(&self) -> bool {
        self.body.iter().any(|l| matches!(l, Literal::Neg(_)))
    }

    /// One rule firing over `db`: the whole body — joins,
    /// stratified-negation and nonequality filters, head projection —
    /// evaluated directly over sorted runs by the shared body join,
    /// returning the derived head facts as a sorted, deduplicated
    /// [`Run`], or `None` when the firing derives nothing. An empty
    /// positive relation ends the firing before anything is allocated,
    /// and a copy rule returns its atom's run as is. When `delta` is
    /// given as `(index, relation)`, the positive atom at `index` is
    /// joined against that delta relation instead of its `db` relation
    /// (semi-naive evaluation). Atoms join in planned order, probing
    /// run views on the bound columns.
    pub(crate) fn fire(
        &self,
        db: &Instance,
        delta: Option<(usize, &Relation)>,
    ) -> Result<Option<Run>, EvalError> {
        let mut pos: Vec<(&Atom, &Relation)> = Vec::new();
        for (i, a) in self.positive().enumerate() {
            let src = match delta {
                Some((d, rel)) if d == i => {
                    if rel.arity() != a.arity() {
                        return Err(EvalError::Rel(rtx_relational::RelError::ArityMismatch {
                            rel: a.pred.clone(),
                            expected: rel.arity(),
                            found: a.arity(),
                        }));
                    }
                    Some(rel)
                }
                _ => plan::lookup(db, a)?,
            };
            match src {
                Some(rel) if !rel.is_empty() => pos.push((a, rel)),
                // Some atom's relation is empty: the conjunction is empty.
                _ => return Ok(None),
            }
        }
        let plan = self.cached_plan();
        if plan.copy {
            return Ok(Some(Run::clone(&pos[0].1.columnar_run())));
        }
        let order = &plan.orders[delta.map_or(0, |(i, _)| i + 1)];
        match join_body(&pos, order, self.negated(), self.nonequalities(), db)? {
            Some(frame) => Ok(Some(frame.project(&self.head.terms)?)),
            None => Ok(None),
        }
    }

    fn count_pos(&self) -> usize {
        self.positive().count()
    }

    fn pos_pred(&self, index: usize) -> Option<&RelName> {
        self.positive().nth(index).map(|a| &a.pred)
    }
}

/// Fire `rules` on `db` and union their head facts into one
/// `arity`-ary relation. With a `delta`, each rule fires once per
/// positive atom whose relation has facts in `delta`, with that atom
/// bound to those facts and every other atom to `db`: the semi-naive
/// firing, which finds every head fact that has a derivation through a
/// `delta` fact. Adds to `query.considered` (the facts the firings
/// produce) and `query.derived` (the distinct facts returned), as
/// [`Program::tp_step`] does.
pub(crate) fn fire_rules(
    rules: &[Rule],
    db: &Instance,
    delta: Option<&Instance>,
    arity: usize,
) -> Result<Relation, EvalError> {
    let mut out: Option<Run> = None;
    let mut considered = 0u64;
    for r in rules {
        let pins: Vec<Option<(usize, &Relation)>> = match delta {
            None => vec![None],
            Some(delta) => (r.positive().enumerate())
                .filter_map(|(i, a)| {
                    let rel = delta.relation_ref(&a.pred)?;
                    (!rel.is_empty()).then_some(Some((i, rel)))
                })
                .collect(),
        };
        for pin in pins {
            if let Some(run) = r.fire(db, pin)? {
                considered += run.len() as u64;
                out = Some(match out {
                    Some(acc) => acc.union(&run),
                    None => run,
                });
            }
        }
    }
    let out = out.map_or_else(|| Relation::empty(arity), Relation::from_result_run);
    if rtx_obs::counting() {
        rtx_obs::registry::add("query.considered", considered);
        rtx_obs::registry::add("query.derived", out.len() as u64);
    }
    Ok(out)
}

impl fmt::Debug for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ← ", self.head)?;
        if self.body.is_empty() {
            return write!(f, "⊤");
        }
        for (i, l) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{l:?}")?;
        }
        Ok(())
    }
}

/// Per-stratum derivation counters filled in by the fixpoint loops:
/// `considered` counts facts produced by rule firings before the
/// novelty check (within-firing duplicates already folded), `derived`
/// counts the novel facts that entered the fixpoint. The arithmetic is
/// O(1) per firing on top of work the loops do anyway, so the counters
/// are always on.
#[derive(Clone, Copy, Default)]
struct StratumTally {
    considered: u64,
    derived: u64,
}

/// A Datalog program: a finite set of rules.
#[derive(Clone, PartialEq, Eq)]
pub struct Program {
    rules: Vec<Rule>,
    /// Arity signature of every predicate mentioned.
    signature: Schema,
    idb: BTreeSet<RelName>,
    /// Stratification computed once at construction (the Dedalus
    /// runtime evaluates the same program thousands of times per run;
    /// re-stratifying per evaluation was measurable). Non-stratifiable
    /// programs keep the error here and surface it at evaluation, like
    /// the on-demand computation did.
    strata: Result<Vec<BTreeSet<RelName>>, EvalError>,
}

impl Program {
    /// Build a program, validating arity-consistency across rules.
    pub fn new(rules: Vec<Rule>) -> Result<Self, EvalError> {
        let mut signature = Schema::new();
        let mut idb = BTreeSet::new();
        for r in &rules {
            signature.declare(r.head.pred.clone(), r.head.arity())?;
            idb.insert(r.head.pred.clone());
            for l in &r.body {
                match l {
                    Literal::Pos(a) | Literal::Neg(a) => {
                        signature.declare(a.pred.clone(), a.arity())?;
                    }
                    Literal::Diseq(_, _) => {}
                }
            }
        }
        let strata = Self::compute_strata(&rules, &idb);
        Ok(Program {
            rules,
            signature,
            idb,
            strata,
        })
    }

    /// The rules.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Predicates defined by rule heads (the IDB).
    pub fn idb_predicates(&self) -> &BTreeSet<RelName> {
        &self.idb
    }

    /// Predicates only read (the EDB).
    pub fn edb_predicates(&self) -> BTreeSet<RelName> {
        self.signature
            .names()
            .filter(|n| !self.idb.contains(*n))
            .cloned()
            .collect()
    }

    /// Arity signature of all mentioned predicates.
    pub fn signature(&self) -> &Schema {
        &self.signature
    }

    /// Does any rule use negation?
    pub fn has_negation(&self) -> bool {
        self.rules.iter().any(Rule::has_negation)
    }

    /// Is the predicate dependency graph acyclic (nonrecursive Datalog)?
    pub fn is_nonrecursive(&self) -> bool {
        // DFS for a cycle among IDB predicates.
        let mut deps: BTreeMap<&RelName, BTreeSet<&RelName>> = BTreeMap::new();
        for r in &self.rules {
            let entry = deps.entry(&r.head.pred).or_default();
            for l in &r.body {
                if let Literal::Pos(a) | Literal::Neg(a) = l {
                    if self.idb.contains(&a.pred) {
                        entry.insert(&a.pred);
                    }
                }
            }
        }
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            Visiting,
            Done,
        }
        fn dfs<'a>(
            n: &'a RelName,
            deps: &BTreeMap<&'a RelName, BTreeSet<&'a RelName>>,
            marks: &mut BTreeMap<&'a RelName, Mark>,
        ) -> bool {
            match marks.get(n) {
                Some(Mark::Visiting) => return false,
                Some(Mark::Done) => return true,
                None => {}
            }
            marks.insert(n, Mark::Visiting);
            if let Some(succ) = deps.get(n) {
                for s in succ {
                    if !dfs(s, deps, marks) {
                        return false;
                    }
                }
            }
            marks.insert(n, Mark::Done);
            true
        }
        let mut marks = BTreeMap::new();
        self.idb.iter().all(|p| dfs(p, &deps, &mut marks))
    }

    /// A stratification: a list of strata, each a set of IDB
    /// predicates, such that negation only reaches strictly lower
    /// strata. Computed once at construction; this returns the cache.
    pub fn stratify(&self) -> Result<Vec<BTreeSet<RelName>>, EvalError> {
        self.strata.clone()
    }

    fn compute_strata(
        rules: &[Rule],
        idb: &BTreeSet<RelName>,
    ) -> Result<Vec<BTreeSet<RelName>>, EvalError> {
        let mut stratum: BTreeMap<RelName, usize> = idb.iter().map(|p| (p.clone(), 0)).collect();
        let n = idb.len().max(1);
        // Bellman-Ford-style relaxation; a stratum exceeding the number of
        // IDB predicates certifies a negative cycle.
        for _ in 0..=n {
            let mut changed = false;
            for r in rules {
                let head_s = stratum[&r.head.pred];
                let mut required = head_s;
                for l in &r.body {
                    match l {
                        Literal::Pos(a) => {
                            if let Some(&s) = stratum.get(&a.pred) {
                                required = required.max(s);
                            }
                        }
                        Literal::Neg(a) => {
                            if let Some(&s) = stratum.get(&a.pred) {
                                required = required.max(s + 1);
                            }
                        }
                        Literal::Diseq(_, _) => {}
                    }
                }
                if required > head_s {
                    if required > n {
                        return Err(EvalError::NotStratifiable {
                            pred: r.head.pred.clone(),
                        });
                    }
                    stratum.insert(r.head.pred.clone(), required);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        // Re-check: a final pass must be quiescent, otherwise a negative
        // cycle kept pumping.
        for r in rules {
            let head_s = stratum[&r.head.pred];
            for l in &r.body {
                match l {
                    Literal::Pos(a) => {
                        if let Some(&s) = stratum.get(&a.pred) {
                            if s > head_s {
                                return Err(EvalError::NotStratifiable {
                                    pred: r.head.pred.clone(),
                                });
                            }
                        }
                    }
                    Literal::Neg(a) => {
                        if let Some(&s) = stratum.get(&a.pred) {
                            if s >= head_s {
                                return Err(EvalError::NotStratifiable {
                                    pred: r.head.pred.clone(),
                                });
                            }
                        }
                    }
                    Literal::Diseq(_, _) => {}
                }
            }
        }
        let max = stratum.values().copied().max().unwrap_or(0);
        let mut out = vec![BTreeSet::new(); max + 1];
        for (p, s) in stratum {
            out[s].insert(p);
        }
        out.retain(|s| !s.is_empty());
        Ok(out)
    }

    /// Working schema for evaluation: the program signature merged with
    /// the database schema.
    fn working_schema(&self, db: &Instance) -> Result<Schema, EvalError> {
        Ok(db.schema().union_compatible(&self.signature)?)
    }

    /// Evaluate to fixpoint with stratified semantics.
    ///
    /// Facts in `db` for IDB predicates (if its schema declares them) are
    /// used as seeds — the distributed constructions store accumulated
    /// IDB facts in transducer memory between heartbeats.
    pub fn eval(&self, db: &Instance) -> Result<Instance, EvalError> {
        Ok(self.eval_with_stats(db)?.0)
    }

    /// Evaluate like [`Program::eval`], also returning a
    /// [`FixpointStats`] whose per-stratum counters record how many
    /// facts each stratum's rules produced before the novelty check
    /// (`stratum_considered`) and how many were novel
    /// (`stratum_derived`). These counters are how the magic-sets
    /// suite and `exp_magic` prove a demand-driven evaluation derived
    /// strictly less than full materialization.
    pub fn eval_with_stats(&self, db: &Instance) -> Result<(Instance, FixpointStats), EvalError> {
        // Seed the fixpoint with the database re-housed under the
        // working schema — a structural copy, not a fact-by-fact
        // rebuild (this runs once per Dedalus tick).
        let mut total = if self.schema_covers(db) {
            db.clone()
        } else {
            db.widen(self.working_schema(db)?)?
        };
        let mut stats = FixpointStats::default();
        let strata = self.strata.as_ref().map_err(Clone::clone)?;
        let _eval_span = rtx_obs::trace::span("query", "eval", &[("strata", strata.len() as i64)]);
        for (si, stratum) in strata.iter().enumerate() {
            let rules: Vec<&Rule> = self
                .rules
                .iter()
                .filter(|r| stratum.contains(&r.head.pred))
                .collect();
            let _stratum_span = rtx_obs::trace::span(
                "query",
                "stratum",
                &[("stratum", si as i64), ("rules", rules.len() as i64)],
            );
            let mut tally = StratumTally::default();
            self.run_seminaive(&rules, stratum, &mut total, &mut tally)?;
            if rtx_obs::tracing() {
                rtx_obs::event!(
                    "query",
                    "stratum.tally",
                    "stratum" => si,
                    "considered" => tally.considered,
                    "derived" => tally.derived,
                );
            }
            stats.stratum_considered.push(tally.considered);
            stats.stratum_derived.push(tally.derived);
        }
        if rtx_obs::counting() {
            rtx_obs::registry::add("query.evals", 1);
            rtx_obs::registry::add("query.strata", strata.len() as u64);
            rtx_obs::registry::add("query.considered", stats.eval_considered());
            rtx_obs::registry::add("query.derived", stats.eval_derived());
        }
        Ok((total, stats))
    }

    /// Does `db`'s schema already declare every predicate of the
    /// program signature at the right arity (so widening is a no-op)?
    fn schema_covers(&self, db: &Instance) -> bool {
        self.signature
            .iter()
            .all(|(name, arity)| db.schema().arity(name) == Some(arity))
    }

    /// Derived facts of one firing not already in `total`'s relation,
    /// subtracted level by level.
    fn fresh_against(total: &Instance, pred: &RelName, derived: Run) -> Run {
        match total.relation_ref(pred) {
            None => derived,
            Some(rel) => rel.novel(derived),
        }
    }

    /// Semi-naive fixpoint over runs: per-round deltas are sorted runs
    /// and novelty checks subtract `total`'s levels. Round 0 fires every
    /// rule over `total` as it stood; its fresh facts join `total` when
    /// the round ends. From then on, each firing's fresh facts join
    /// `total` at once, as a new level of the predicate's spine, so
    /// later firings read them in place — each fact is rewritten
    /// O(log n) times by level merges, never by a per-round rebuild.
    fn run_seminaive(
        &self,
        rules: &[&Rule],
        stratum: &BTreeSet<RelName>,
        total: &mut Instance,
        tally: &mut StratumTally,
    ) -> Result<(), EvalError> {
        let push = |map: &mut BTreeMap<RelName, Relation>, pred: &RelName, fresh: &Run| {
            if fresh.is_empty() {
                return;
            }
            match map.get_mut(pred) {
                Some(rel) => {
                    rel.absorb_run(fresh).expect("one arity per head predicate");
                }
                None => {
                    map.insert(pred.clone(), Relation::from_run(fresh.clone()));
                }
            }
        };
        // Round 0: full evaluation (covers rules without stratum-IDB in
        // the body, and seeds the delta).
        let mut delta: BTreeMap<RelName, Relation> = BTreeMap::new();
        for r in rules {
            let Some(derived) = r.fire(total, None)? else {
                continue;
            };
            tally.considered += derived.len() as u64;
            let mut fresh = Self::fresh_against(total, &r.head.pred, derived);
            if let Some(seen) = delta.get(&r.head.pred) {
                fresh = seen.novel(fresh);
            }
            tally.derived += fresh.len() as u64;
            push(&mut delta, &r.head.pred, &fresh);
        }
        for (p, rel) in &delta {
            total.absorb_fresh(p, &rel.columnar_run())?;
        }
        while !delta.is_empty() {
            let mut next: BTreeMap<RelName, Relation> = BTreeMap::new();
            for r in rules {
                for i in 0..r.count_pos() {
                    let pred = r.pos_pred(i).expect("index within positive atoms");
                    if !stratum.contains(pred) {
                        continue;
                    }
                    let Some(drel) = delta.get(pred) else {
                        continue; // nothing new for this atom this round
                    };
                    let Some(derived) = r.fire(total, Some((i, drel)))? else {
                        continue;
                    };
                    tally.considered += derived.len() as u64;
                    let fresh = Self::fresh_against(total, &r.head.pred, derived);
                    tally.derived += fresh.len() as u64;
                    total.absorb_fresh(&r.head.pred, &fresh)?;
                    push(&mut next, &r.head.pred, &fresh);
                }
            }
            delta = next;
        }
        Ok(())
    }

    /// One application of the immediate-consequence operator `T_P`:
    /// every head fact derivable from `db` in a single rule firing.
    ///
    /// Negation is evaluated against `db` as given — callers are
    /// responsible for only using `T_P` with semipositive programs (the
    /// paper's Theorem 6(5) uses pure Datalog, with no negation at all).
    ///
    /// Under [`rtx_obs::counting`] the step adds to the same
    /// `query.considered` / `query.derived` counters as [`Program::eval`]:
    /// the facts the firings produce, and the distinct facts returned.
    pub fn tp_step(&self, db: &Instance) -> Result<Instance, EvalError> {
        // Fast path: when the database schema already covers the
        // program signature, evaluate against `db` directly instead of
        // materializing a widened copy (this runs twice per Dedalus
        // tick).
        let widened_owned;
        let (widened, schema) = if self.schema_covers(db) {
            (db, db.schema().clone())
        } else {
            let schema = self.working_schema(db)?;
            widened_owned = db.widen(schema.clone())?;
            (&widened_owned, schema)
        };
        let mut out = Instance::empty(schema);
        let (mut considered, mut derived) = (0u64, 0u64);
        for r in &self.rules {
            if let Some(run) = r.fire(widened, None)? {
                considered += run.len() as u64;
                derived += out.absorb_run(&r.head.pred, &run)? as u64;
            }
        }
        if rtx_obs::counting() {
            rtx_obs::registry::add("query.considered", considered);
            rtx_obs::registry::add("query.derived", derived);
        }
        Ok(out)
    }
}

impl fmt::Debug for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, r) in self.rules.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{r:?}.")?;
        }
        Ok(())
    }
}

/// A Datalog program used as a query: evaluate to fixpoint, return one
/// designated output predicate.
#[derive(Clone)]
pub struct DatalogQuery {
    program: Program,
    output: RelName,
    arity: usize,
}

impl DatalogQuery {
    /// Build, validating that the output predicate is mentioned.
    pub fn new(program: Program, output: impl Into<RelName>) -> Result<Self, EvalError> {
        let output = output.into();
        let arity = program.signature().arity(&output).ok_or_else(|| {
            EvalError::Rel(rtx_relational::RelError::UnknownRelation {
                rel: output.clone(),
            })
        })?;
        Ok(DatalogQuery {
            program,
            output,
            arity,
        })
    }

    /// The underlying program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The output predicate.
    pub fn output(&self) -> &RelName {
        &self.output
    }
}

impl Query for DatalogQuery {
    fn arity(&self) -> usize {
        self.arity
    }

    fn eval(&self, db: &Instance) -> Result<Relation, EvalError> {
        let result = self.program.eval(db)?;
        Ok(result.relation(&self.output)?)
    }

    fn is_monotone_syntactic(&self) -> bool {
        !self.program.has_negation()
    }

    fn referenced_relations(&self) -> BTreeSet<RelName> {
        self.program.signature().names().cloned().collect()
    }

    fn describe(&self) -> String {
        format!("datalog[{}]: {:?}", self.output, self.program)
    }
}

impl fmt::Debug for DatalogQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "datalog[{}]", self.output)
    }
}

/// A single `T_P` application used as a query (the local language of the
/// Theorem 6(5) transducer): returns the immediate consequences for one
/// predicate, which only the rules with that head predicate produce.
#[derive(Clone)]
pub struct TpQuery {
    output: RelName,
    arity: usize,
    /// The program's rules whose head predicate is `output`.
    rules: Vec<Rule>,
    /// The relations those rules read, at their arities.
    reads: Schema,
}

impl TpQuery {
    /// Build, validating the output predicate.
    pub fn new(program: Program, output: impl Into<RelName>) -> Result<Self, EvalError> {
        let output = output.into();
        let arity = program.signature().arity(&output).ok_or_else(|| {
            EvalError::Rel(rtx_relational::RelError::UnknownRelation {
                rel: output.clone(),
            })
        })?;
        let rules: Vec<Rule> = (program.rules.into_iter())
            .filter(|r| r.head.pred == output)
            .collect();
        let mut reads = Schema::new();
        for a in rules.iter().flat_map(|r| r.positive().chain(r.negated())) {
            reads.declare(a.pred.clone(), a.arity())?;
        }
        Ok(TpQuery {
            output,
            arity,
            rules,
            reads,
        })
    }

    /// Fire the rules on `db`, over `delta` when given (see
    /// [`fire_rules`]). A relation the rules read that `db` does not
    /// declare is empty, as in [`Program::tp_step`].
    fn fire(&self, db: &Instance, delta: Option<&Instance>) -> Result<Relation, EvalError> {
        let covered =
            (self.reads.iter()).all(|(name, arity)| db.schema().arity(name) == Some(arity));
        if covered {
            return fire_rules(&self.rules, db, delta, self.arity);
        }
        let widened = db.widen(db.schema().union_compatible(&self.reads)?)?;
        fire_rules(&self.rules, &widened, delta, self.arity)
    }
}

impl Query for TpQuery {
    fn arity(&self) -> usize {
        self.arity
    }

    fn eval(&self, db: &Instance) -> Result<Relation, EvalError> {
        self.fire(db, None)
    }

    fn eval_delta(&self, db: &Instance, delta: &Instance) -> Result<Option<Relation>, EvalError> {
        if !self.is_monotone_syntactic() {
            return Ok(None);
        }
        self.fire(db, Some(delta)).map(Some)
    }

    fn is_monotone_syntactic(&self) -> bool {
        !self.rules.iter().any(Rule::has_negation)
    }

    fn referenced_relations(&self) -> BTreeSet<RelName> {
        self.reads.names().cloned().collect()
    }

    fn describe(&self) -> String {
        format!("T_P[{}]", self.output)
    }
}

impl fmt::Debug for TpQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T_P[{}]", self.output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom;
    use rtx_relational::{fact, tuple};

    fn rule(head: Atom, body: Vec<Literal>) -> Rule {
        Rule::new(head, body).unwrap()
    }

    fn tc_program() -> Program {
        Program::new(vec![
            rule(
                atom!("T"; @"X", @"Y"),
                vec![Literal::Pos(atom!("E"; @"X", @"Y"))],
            ),
            rule(
                atom!("T"; @"X", @"Z"),
                vec![
                    Literal::Pos(atom!("T"; @"X", @"Y")),
                    Literal::Pos(atom!("E"; @"Y", @"Z")),
                ],
            ),
        ])
        .unwrap()
    }

    fn edges(pairs: &[(i64, i64)]) -> Instance {
        let sch = Schema::new().with("E", 2);
        let mut i = Instance::empty(sch);
        for &(a, b) in pairs {
            i.insert_fact(fact!("E", a, b)).unwrap();
        }
        i
    }

    #[test]
    fn transitive_closure_chain() {
        let db = edges(&[(1, 2), (2, 3), (3, 4)]);
        let q = DatalogQuery::new(tc_program(), "T").unwrap();
        let out = q.eval(&db).unwrap();
        assert_eq!(out.len(), 6);
        assert!(out.contains(&tuple![1, 4]));
        assert!(q.is_monotone_syntactic());
    }

    #[test]
    fn transitive_closure_cycle() {
        let db = edges(&[(1, 2), (2, 1)]);
        let q = DatalogQuery::new(tc_program(), "T").unwrap();
        let out = q.eval(&db).unwrap();
        assert_eq!(out.len(), 4); // all pairs over {1,2}
    }

    #[test]
    fn idb_seeds_from_database_are_used() {
        // T seeded with an extra pair that E alone would not produce.
        let sch = Schema::new().with("E", 2).with("T", 2);
        let db = Instance::from_facts(sch, vec![fact!("E", 1, 2), fact!("T", 7, 8)]).unwrap();
        let out = DatalogQuery::new(tc_program(), "T")
            .unwrap()
            .eval(&db)
            .unwrap();
        assert!(out.contains(&tuple![7, 8]));
        assert!(out.contains(&tuple![1, 2]));
    }

    #[test]
    fn stratified_negation_complement() {
        // unreachable(X) over nodes: node(X), ¬reach(X)
        let p = Program::new(vec![
            rule(atom!("Reach"; @"X"), vec![Literal::Pos(atom!("Src"; @"X"))]),
            rule(
                atom!("Reach"; @"Y"),
                vec![
                    Literal::Pos(atom!("Reach"; @"X")),
                    Literal::Pos(atom!("E"; @"X", @"Y")),
                ],
            ),
            rule(
                atom!("Unreach"; @"X"),
                vec![
                    Literal::Pos(atom!("Node"; @"X")),
                    Literal::Neg(atom!("Reach"; @"X")),
                ],
            ),
        ])
        .unwrap();
        let strata = p.stratify().unwrap();
        assert_eq!(strata.len(), 2);
        assert!(strata[0].contains(&"Reach".into()));
        assert!(strata[1].contains(&"Unreach".into()));

        let sch = Schema::new().with("E", 2).with("Src", 1).with("Node", 1);
        let db = Instance::from_facts(
            sch,
            vec![
                fact!("E", 1, 2),
                fact!("Src", 1),
                fact!("Node", 1),
                fact!("Node", 2),
                fact!("Node", 3),
            ],
        )
        .unwrap();
        let q = DatalogQuery::new(p, "Unreach").unwrap();
        let out = q.eval(&db).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains(&tuple![3]));
        assert!(!q.is_monotone_syntactic());
    }

    #[test]
    fn negative_cycle_rejected() {
        let p = Program::new(vec![
            rule(
                atom!("P"; @"X"),
                vec![
                    Literal::Pos(atom!("S"; @"X")),
                    Literal::Neg(atom!("Q"; @"X")),
                ],
            ),
            rule(
                atom!("Q"; @"X"),
                vec![
                    Literal::Pos(atom!("S"; @"X")),
                    Literal::Neg(atom!("P"; @"X")),
                ],
            ),
        ])
        .unwrap();
        assert!(matches!(
            p.stratify(),
            Err(EvalError::NotStratifiable { .. })
        ));
        let q = DatalogQuery::new(p, "P").unwrap();
        assert!(q.eval(&edges(&[])).is_err());
    }

    #[test]
    fn self_negation_rejected() {
        let p = Program::new(vec![rule(
            atom!("P"; @"X"),
            vec![
                Literal::Pos(atom!("S"; @"X")),
                Literal::Neg(atom!("P"; @"X")),
            ],
        )])
        .unwrap();
        assert!(p.stratify().is_err());
    }

    #[test]
    fn nonrecursive_detection() {
        let nr = Program::new(vec![
            rule(atom!("A"; @"X"), vec![Literal::Pos(atom!("S"; @"X"))]),
            rule(atom!("B"; @"X"), vec![Literal::Pos(atom!("A"; @"X"))]),
        ])
        .unwrap();
        assert!(nr.is_nonrecursive());
        assert!(!tc_program().is_nonrecursive());
    }

    #[test]
    fn edb_idb_split() {
        let p = tc_program();
        assert!(p.idb_predicates().contains(&"T".into()));
        assert!(p.edb_predicates().contains(&"E".into()));
        assert_eq!(p.signature().arity(&"T".into()), Some(2));
    }

    #[test]
    fn arity_conflicts_rejected() {
        let r1 = rule(atom!("P"; @"X"), vec![Literal::Pos(atom!("S"; @"X"))]);
        let r2 = rule(
            atom!("P"; @"X", @"Y"),
            vec![Literal::Pos(atom!("E"; @"X", @"Y"))],
        );
        assert!(Program::new(vec![r1, r2]).is_err());
    }

    #[test]
    fn rule_safety_rejected() {
        assert!(Rule::new(atom!("P"; @"X"), vec![]).is_err());
        assert!(Rule::new(
            atom!("P"; @"X"),
            vec![
                Literal::Pos(atom!("S"; @"X")),
                Literal::Neg(atom!("T"; @"Y"))
            ],
        )
        .is_err());
    }

    #[test]
    fn diseq_literal_filters() {
        let p = Program::new(vec![rule(
            atom!("P"; @"X", @"Y"),
            vec![
                Literal::Pos(atom!("E"; @"X", @"Y")),
                Literal::Diseq(Term::var("X"), Term::var("Y")),
            ],
        )])
        .unwrap();
        let db = edges(&[(1, 1), (1, 2)]);
        let out = DatalogQuery::new(p, "P").unwrap().eval(&db).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains(&tuple![1, 2]));
    }

    #[test]
    fn tp_step_is_single_application() {
        let db = edges(&[(1, 2), (2, 3), (3, 4)]);
        let tp = TpQuery::new(tc_program(), "T").unwrap();
        // one step: only direct edges (the recursive rule needs T facts)
        let s1 = tp.eval(&db).unwrap();
        assert_eq!(s1.len(), 3);
        // feed the step back in as T facts: length-2 paths appear
        let sch = Schema::new().with("E", 2).with("T", 2);
        let mut db2 = db.widen(sch).unwrap();
        for t in s1.iter() {
            db2.insert_fact(rtx_relational::Fact::new(RelName::new("T"), t.clone()))
                .unwrap();
        }
        let s2 = tp.eval(&db2).unwrap();
        assert!(s2.contains(&tuple![1, 3]));
        assert!(!s2.contains(&tuple![1, 4]));
    }

    #[test]
    fn monotonicity_of_positive_programs_spotcheck() {
        let small = edges(&[(1, 2), (2, 3)]);
        let mut big = small.clone();
        big.insert_fact(fact!("E", 3, 4)).unwrap();
        let q = DatalogQuery::new(tc_program(), "T").unwrap();
        assert!(q.eval(&small).unwrap().is_subset(&q.eval(&big).unwrap()));
    }

    #[test]
    fn same_generation_classic() {
        // sg(X,Y) ← flat(X,Y); sg(X,Y) ← up(X,A), sg(A,B), down(B,Y)
        let p = Program::new(vec![
            rule(
                atom!("Sg"; @"X", @"Y"),
                vec![Literal::Pos(atom!("Flat"; @"X", @"Y"))],
            ),
            rule(
                atom!("Sg"; @"X", @"Y"),
                vec![
                    Literal::Pos(atom!("Up"; @"X", @"A")),
                    Literal::Pos(atom!("Sg"; @"A", @"B")),
                    Literal::Pos(atom!("Down"; @"B", @"Y")),
                ],
            ),
        ])
        .unwrap();
        let sch = Schema::new().with("Flat", 2).with("Up", 2).with("Down", 2);
        let db = Instance::from_facts(
            sch,
            vec![
                fact!("Up", "a", "b"),
                fact!("Up", "c", "d"),
                fact!("Flat", "b", "d"),
                fact!("Down", "d", "e"),
                fact!("Down", "b", "f"),
            ],
        )
        .unwrap();
        let out = DatalogQuery::new(p, "Sg").unwrap().eval(&db).unwrap();
        assert!(out.contains(&tuple!["b", "d"]));
        assert!(out.contains(&tuple!["a", "e"])); // up(a,b), sg(b,d), down(d,e)
    }

    #[test]
    fn tp_of_nullary_head() {
        let p = Program::new(vec![rule(
            atom!("Found"),
            vec![Literal::Pos(atom!("E"; @"X", @"Y"))],
        )])
        .unwrap();
        let q = TpQuery::new(p, "Found").unwrap();
        assert!(q.eval(&edges(&[(1, 2)])).unwrap().as_bool());
        assert!(!q.eval(&edges(&[])).unwrap().as_bool());
    }

    /// A `T_P` query fires only the rules whose head is its output
    /// predicate, and reads only what they read: another IDB
    /// predicate's rule, over a relation that `db` does not declare or
    /// declares at another arity, neither runs nor fails the query.
    #[test]
    fn tp_query_fires_only_its_output_rules() {
        let p = Program::new(vec![
            rule(
                atom!("T"; @"X", @"Y"),
                vec![Literal::Pos(atom!("E"; @"X", @"Y"))],
            ),
            rule(atom!("U"; @"X"), vec![Literal::Pos(atom!("F"; @"X", @"X"))]),
        ])
        .unwrap();
        let q = TpQuery::new(p, "T").unwrap();
        assert_eq!(q.referenced_relations(), [RelName::new("E")].into());
        let want = Relation::from_tuples(2, [tuple![1, 2]]).unwrap();
        let db = edges(&[(1, 2)]);
        assert_eq!(q.eval(&db).unwrap(), want);
        let unary_f = db.widen(Schema::new().with("E", 2).with("F", 1)).unwrap();
        assert_eq!(q.eval(&unary_f).unwrap(), want);
        // Over a delta, only the rules reading it fire.
        let delta = edges(&[(1, 2)]);
        assert_eq!(q.eval_delta(&unary_f, &delta).unwrap(), Some(want));
        let unrelated = Instance::from_facts(Schema::new().with("F", 1), [fact!("F", 3)]).unwrap();
        assert!(q
            .eval_delta(&unary_f, &unrelated)
            .unwrap()
            .unwrap()
            .is_empty());
    }
}
