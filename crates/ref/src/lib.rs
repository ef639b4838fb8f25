//! # rtx-ref — the reference semantics the equivalence properties test against
//!
//! A deliberately naive transcription of the paper's Datalog semantics
//! (Section 2): a database is a finite set of facts, a rule fires for
//! every valuation that puts its positive atoms in the database, keeps
//! its negated atoms out, and makes its nonequalities hold, and a
//! stratified program is evaluated stratum by stratum to its least
//! fixpoint. Plus the support count a counting maintenance engine
//! must keep for each fact ([`support_counts`]), the answer of a UCQ¬
//! query ([`ucq`]), the answer of an FO query under the active-domain
//! semantics by enumeration ([`fo`]), the local transition of a
//! relational transducer (Section 2.1), with its update formula applied
//! term by term ([`transducer_step`]), and the ticks of a Dedalus
//! program (Section 8) under a given delay function for its `@async`
//! rules ([`dedalus`]).
//!
//! Nothing here is fast on purpose. Facts live in `BTreeSet`s, every
//! round re-derives everything, and joins are nested loops in literal
//! order. The crate uses none of the engine's machinery — no
//! `Relation` set algebra, indexes, join plans, columnar frames or
//! `Program::eval` — only the program's syntax and its
//! [`Program::stratify`], so a bug in the engine cannot hide in the
//! oracle too. [`fo`] reads only the query's head and formula, never
//! the rules it compiles to. [`transducer_step`] does call the
//! transducer's queries, but on an instance built fact by fact, and does
//! its own set algebra on `BTreeSet`s. [`dedalus`] reads only the Dedalus program's rules,
//! never its runtime. It is a dev-dependency only; no library crate
//! depends on it.

mod dedalus;

pub use dedalus::{dedalus, Ticks};

use rtx_query::{Atom, FoQuery, Formula, Literal, Program, Query, Rule, Term, UcqQuery, Var};
use rtx_relational::{Fact, Instance, RelName, Tuple, Value};
use rtx_transducer::Transducer;
use std::collections::{BTreeMap, BTreeSet};

/// A database as the paper defines it: a finite set of facts, grouped
/// by relation name for the nested-loop joins.
type Db = BTreeMap<RelName, BTreeSet<Tuple>>;

/// A valuation of the rule variables bound so far.
type Valuation = BTreeMap<Var, Value>;

/// Evaluate `program` on `db` under the stratified semantics: the facts
/// of `db` (IDB facts included, as seeds) plus every fact the program
/// derives from them.
///
/// Each stratum of [`Program::stratify`] runs to its least fixpoint by
/// naive iteration — every round fires every rule of the stratum
/// against everything known so far, until a round adds nothing.
///
/// # Panics
///
/// If the program is not stratifiable or a rule is unsafe; the
/// properties only feed it valid programs.
pub fn eval(program: &Program, db: &Instance) -> BTreeSet<Fact> {
    let strata = program.stratify().expect("a stratifiable program");
    let mut facts = database(db.facts());
    for stratum in &strata {
        let rules: Vec<&Rule> = program
            .rules()
            .iter()
            .filter(|r| stratum.contains(&r.head().pred))
            .collect();
        loop {
            let mut derived = Vec::new();
            for rule in &rules {
                derived.extend(fire(rule, &facts));
            }
            let mut grew = false;
            for (pred, tuple) in derived {
                grew |= facts.entry(pred).or_default().insert(tuple);
            }
            if !grew {
                break;
            }
        }
    }
    flatten(facts)
}

/// The support count of every fact [`eval`] yields: the firings of
/// every rule deriving it over that fixpoint, plus 1 if it is a seed (a
/// fact of `db`) — what a counting maintenance engine must keep.
///
/// # Panics
///
/// As [`eval`].
pub fn support_counts(program: &Program, db: &Instance) -> BTreeMap<Fact, u64> {
    let fixpoint = database(eval(program, db));
    let mut counts: BTreeMap<Fact, u64> = db.facts().map(|f| (f, 1)).collect();
    for rule in program.rules() {
        for (pred, tuple) in fire(rule, &fixpoint) {
            *counts.entry(Fact::new(pred, tuple)).or_insert(0) += 1;
        }
    }
    counts
}

/// One application of the immediate-consequence operator `T_P`: every
/// head fact any rule derives from `db` in a single firing, with
/// negation read against `db` as given.
///
/// # Panics
///
/// If a rule is unsafe.
pub fn tp_step(program: &Program, db: &Instance) -> BTreeSet<Fact> {
    let facts = database(db.facts());
    let mut out = Db::new();
    for rule in program.rules() {
        for (pred, tuple) in fire(rule, &facts) {
            out.entry(pred).or_default().insert(tuple);
        }
    }
    flatten(out)
}

/// The answer of a UCQ¬ query on `db`: the head tuples of every rule,
/// each fired like a Datalog rule, keeping only tuples over the active
/// domain of `db` — condition (i) of the paper, which only a head
/// constant can break.
///
/// # Panics
///
/// If a rule is unsafe.
pub fn ucq(q: &UcqQuery, db: &Instance) -> BTreeSet<Tuple> {
    let facts = database(db.facts());
    let adom = active_domain(&facts);
    let mut out = BTreeSet::new();
    for rule in q.rules() {
        for v in valuations(rule.body(), &facts) {
            let t = ground(rule.head(), &v);
            if t.iter().all(|x| adom.contains(x)) {
                out.insert(t);
            }
        }
    }
    out
}

/// The answer of an FO query on `db` under the active-domain semantics
/// (paper, Section 2): every assignment of adom(I) values to the head
/// variables under which the formula holds, quantifiers enumerating
/// adom(I) and a quantified variable shadowing any outer one of its
/// name.
pub fn fo(q: &FoQuery, db: &Instance) -> BTreeSet<Tuple> {
    let facts = database(db.facts());
    let adom: Vec<Value> = active_domain(&facts).into_iter().collect();
    let vars: BTreeSet<Var> = q.head().iter().copied().collect();
    let vars: Vec<Var> = vars.into_iter().collect();
    let mut out = BTreeSet::new();
    some(&vars, &adom, &Valuation::new(), &mut |v| {
        if holds(q.formula(), &facts, &adom, v) {
            out.insert(q.head().iter().map(|x| v[x]).collect());
        }
        false
    });
    out
}

/// Does `f` hold under `v`, every variable of `f` free in it bound?
fn holds(f: &Formula, facts: &Db, adom: &[Value], v: &Valuation) -> bool {
    match f {
        Formula::True => true,
        Formula::False => false,
        Formula::Atom(a) => facts
            .get(&a.pred)
            .is_some_and(|ts| ts.contains(&ground(a, v))),
        Formula::Eq(x, y) => value(x, v) == value(y, v),
        Formula::Not(g) => !holds(g, facts, adom, v),
        Formula::And(fs) => fs.iter().all(|g| holds(g, facts, adom, v)),
        Formula::Or(fs) => fs.iter().any(|g| holds(g, facts, adom, v)),
        Formula::Exists(xs, g) => some(xs, adom, v, &mut |w| holds(g, facts, adom, w)),
        Formula::Forall(xs, g) => !some(xs, adom, v, &mut |w| !holds(g, facts, adom, w)),
    }
}

/// Is `f` true for some extension of `v` by values of `adom` for `xs`?
fn some(xs: &[Var], adom: &[Value], v: &Valuation, f: &mut dyn FnMut(&Valuation) -> bool) -> bool {
    match xs.split_first() {
        None => f(v),
        Some((x, rest)) => adom.iter().any(|&a| {
            let mut w = v.clone();
            w.insert(*x, a);
            some(rest, adom, &w, f)
        }),
    }
}

/// One local transition `I, I_rcv → J, J_snd, J_out` as plain sets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Step {
    /// The successor state `J`.
    pub new_state: BTreeSet<Fact>,
    /// The sent facts `J_snd`.
    pub sent: BTreeSet<Fact>,
    /// The output tuples `J_out`.
    pub output: BTreeSet<Tuple>,
}

/// The local transition of `t` from `state` on `received` (paper,
/// Section 2.1), transcribed literally: `I' = I ∪ I_rcv` as a union of
/// fact sets, every query evaluated on an instance of the combined
/// schema built fact by fact, and each memory relation replaced by
///
/// ```text
/// J(R) = (Q_ins(I') \ Q_del(I'))
///      ∪ (Q_ins(I') ∩ Q_del(I') ∩ I(R))
///      ∪ (I(R) \ (Q_ins(I') ∪ Q_del(I')))
/// ```
///
/// with all three terms computed on `BTreeSet`s.
///
/// # Panics
///
/// If a query fails or `received` holds a fact outside the combined
/// schema; the properties only feed it well-formed transitions.
pub fn transducer_step(t: &Transducer, state: &Instance, received: &Instance) -> Step {
    let schema = t.schema();
    let facts: BTreeSet<Fact> = state.facts().chain(received.facts()).collect();
    let combined = Instance::from_facts(schema.combined_schema().clone(), facts)
        .expect("I' fits the combined schema");
    let eval = |q: &dyn Query| -> BTreeSet<Tuple> {
        q.eval(&combined)
            .expect("the query evaluates")
            .iter()
            .cloned()
            .collect()
    };
    let tag = |rel: &RelName, tuples: BTreeSet<Tuple>| {
        let rel = rel.clone();
        tuples.into_iter().map(move |t| Fact::new(rel.clone(), t))
    };
    let mut sent = BTreeSet::new();
    for (rel, _) in schema.message().iter() {
        let q = t.snd_query(rel).expect("a send query per message relation");
        sent.extend(tag(rel, eval(q.as_ref())));
    }
    let output = eval(t.out_query().as_ref());
    let mut new_state: BTreeSet<Fact> = state.facts().collect();
    for (rel, _) in schema.memory().iter() {
        let ins = eval(t.ins_query(rel).expect("an insert query").as_ref());
        let del = eval(t.del_query(rel).expect("a delete query").as_ref());
        let cur: BTreeSet<Tuple> = state
            .facts()
            .filter(|f| f.rel() == rel)
            .map(|f| f.tuple().clone())
            .collect();
        let inserted = &ins - &del;
        let conflicted = &(&ins & &del) & &cur;
        let untouched = &cur - &(&ins | &del);
        let next = &(&inserted | &conflicted) | &untouched;
        new_state.retain(|f| f.rel() != rel);
        new_state.extend(tag(rel, next));
    }
    Step {
        new_state,
        sent,
        output,
    }
}

fn database(db: impl IntoIterator<Item = Fact>) -> Db {
    let mut facts = Db::new();
    for f in db {
        let (pred, tuple) = f.into_parts();
        facts.entry(pred).or_default().insert(tuple);
    }
    facts
}

/// adom(I): every value of every fact.
fn active_domain(facts: &Db) -> BTreeSet<Value> {
    facts
        .values()
        .flatten()
        .flat_map(Tuple::iter)
        .copied()
        .collect()
}

fn flatten(facts: Db) -> BTreeSet<Fact> {
    facts
        .into_iter()
        .flat_map(|(pred, tuples)| tuples.into_iter().map(move |t| Fact::new(pred.clone(), t)))
        .collect()
}

/// Every head fact of one rule over `facts`.
fn fire(rule: &Rule, facts: &Db) -> Vec<(RelName, Tuple)> {
    valuations(rule.body(), facts)
        .iter()
        .map(|v| (rule.head().pred.clone(), ground(rule.head(), v)))
        .collect()
}

/// The valuations satisfying a rule body over `facts`: extend them
/// through the positive atoms in literal order by nested loops, then
/// keep those passing every negated atom and nonequality as written.
fn valuations(body: &[Literal], facts: &Db) -> Vec<Valuation> {
    let empty = BTreeSet::new();
    let mut valuations: Vec<Valuation> = vec![Valuation::new()];
    for literal in body {
        if let Literal::Pos(atom) = literal {
            let tuples = facts.get(&atom.pred).unwrap_or(&empty);
            let mut next = Vec::new();
            for v in &valuations {
                for t in tuples {
                    if let Some(extended) = unify(atom, t, v) {
                        next.push(extended);
                    }
                }
            }
            valuations = next;
        }
    }
    let holds = |v: &Valuation| {
        body.iter().all(|literal| match literal {
            Literal::Pos(_) => true,
            Literal::Neg(atom) => !facts
                .get(&atom.pred)
                .is_some_and(|ts| ts.contains(&ground(atom, v))),
            Literal::Diseq(x, y) => value(x, v) != value(y, v),
        })
    };
    valuations.retain(holds);
    valuations
}

/// Extend `v` so that `atom` maps onto `tuple`, if it can.
fn unify(atom: &Atom, tuple: &Tuple, v: &Valuation) -> Option<Valuation> {
    if atom.terms.len() != tuple.arity() {
        return None;
    }
    let mut v = v.clone();
    for (term, &val) in atom.terms.iter().zip(tuple.values()) {
        match term {
            Term::Const(c) if *c != val => return None,
            Term::Const(_) => {}
            Term::Var(x) => match v.get(x) {
                Some(&bound) if bound != val => return None,
                Some(_) => {}
                None => {
                    v.insert(*x, val);
                }
            },
        }
    }
    Some(v)
}

fn value(term: &Term, v: &Valuation) -> Value {
    match term {
        Term::Const(c) => *c,
        Term::Var(x) => *v
            .get(x)
            .unwrap_or_else(|| panic!("unsafe rule: variable {x} is unbound")),
    }
}

fn ground(atom: &Atom, v: &Valuation) -> Tuple {
    atom.terms.iter().map(|t| value(t, v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtx_query::parser::parse_program;
    use rtx_relational::{fact, Schema};

    fn edges(pairs: &[(i64, i64)]) -> Instance {
        let facts = pairs.iter().map(|&(a, b)| fact!("e", a, b));
        Instance::from_facts(Schema::new().with("e", 2), facts).unwrap()
    }

    #[test]
    fn transitive_closure_by_hand() {
        let p = parse_program("t(X,Y) :- e(X,Y). t(X,Z) :- t(X,Y), e(Y,Z).").unwrap();
        let out = eval(&p, &edges(&[(1, 2), (2, 3)]));
        let want: BTreeSet<Fact> = [
            fact!("e", 1, 2),
            fact!("e", 2, 3),
            fact!("t", 1, 2),
            fact!("t", 1, 3),
            fact!("t", 2, 3),
        ]
        .into_iter()
        .collect();
        assert_eq!(out, want);
    }

    #[test]
    fn support_counts_firings_plus_seeds() {
        // A diamond: t(1,4) is derived twice, once through each side.
        let p = parse_program("t(X,Y) :- e(X,Y). t(X,Z) :- t(X,Y), e(Y,Z).").unwrap();
        let mut db = edges(&[(1, 2), (1, 3), (2, 4), (3, 4)]);
        let counts = support_counts(&p, &db);
        assert_eq!(counts[&fact!("t", 1, 4)], 2);
        assert_eq!(counts[&fact!("t", 1, 2)], 1);
        assert_eq!(counts[&fact!("e", 2, 4)], 1, "an EDB fact is its own seed");
        assert_eq!(counts.len(), eval(&p, &db).len());
        // Seeding a derived fact adds one.
        let sch = Schema::new().with("e", 2).with("t", 2);
        db = Instance::from_facts(sch, db.facts().chain([fact!("t", 1, 4)])).unwrap();
        assert_eq!(support_counts(&p, &db)[&fact!("t", 1, 4)], 3);
    }

    #[test]
    fn negation_reads_the_completed_lower_stratum() {
        // u holds for nodes with an out-edge but no path back to
        // themselves.
        let p = parse_program(
            "t(X,Y) :- e(X,Y). t(X,Z) :- t(X,Y), e(Y,Z). u(X) :- e(X,Y), !t(X,X), X != Y.",
        )
        .unwrap();
        let out = eval(&p, &edges(&[(1, 2), (2, 1), (3, 4), (5, 5)]));
        let u: Vec<&Fact> = out.iter().filter(|f| f.rel().as_str() == "u").collect();
        assert_eq!(u, vec![&fact!("u", 3)]);
    }

    #[test]
    fn ucq_fires_every_rule_and_keeps_the_active_domain() {
        use rtx_query::{atom, CqBuilder, UcqQuery};
        let sch = Schema::new().with("e", 2).with("s", 1);
        let db = Instance::from_facts(
            sch,
            [
                fact!("e", 1, 2),
                fact!("e", 2, 2),
                fact!("e", 2, 3),
                fact!("s", 2),
            ],
        )
        .unwrap();
        let (x, y) = (Term::var("X"), Term::var("Y"));
        // (X, 1) ← e(X,Y), ¬s(X), X ≠ Y;  (Y, 99) ← s(Y)
        let kept = CqBuilder::head(vec![x.clone(), Term::cons(1)])
            .when(atom!("e"; @"X", @"Y"))
            .unless(atom!("s"; @"X"))
            .distinct(x, y.clone())
            .build()
            .unwrap();
        let outside = CqBuilder::head(vec![y, Term::cons(99)])
            .when(atom!("s"; @"Y"))
            .build()
            .unwrap();
        let q = UcqQuery::new(2, vec![kept, outside]).unwrap();
        let want: BTreeSet<Tuple> = [rtx_relational::tuple![1, 1]].into_iter().collect();
        assert_eq!(ucq(&q, &db), want, "99 lies outside adom; 2 is in s");
    }

    #[test]
    fn fo_enumerates_the_active_domain() {
        use rtx_query::parser::parse_fo_query;
        let db = edges(&[(1, 2), (2, 3)]);
        let tuples =
            |q: &str| -> Vec<Tuple> { fo(&parse_fo_query(q).unwrap(), &db).into_iter().collect() };
        // Sinks, non-edges over adom = {1,2,3}, and a constant outside it.
        assert_eq!(
            tuples("(X) <- !exists Y . e(X,Y)"),
            [rtx_relational::tuple![3]]
        );
        assert_eq!(tuples("(X,Y) <- !e(X,Y)").len(), 7);
        assert!(tuples("(X) <- X = 9").is_empty());
        // The inner X shadows the head's.
        assert_eq!(tuples("(X) <- e(X,2) & exists X . e(2,X)").len(), 1);
        assert_eq!(
            tuples("() <- forall X . exists Y . e(X,Y) | e(Y,X)").len(),
            1
        );
    }

    #[test]
    fn transducer_step_applies_all_three_terms() {
        use rtx_query::CopyQuery;
        use rtx_transducer::TransducerBuilder;
        use std::sync::Arc;
        let t = TransducerBuilder::new("conflict")
            .input_relation("A", 1)
            .input_relation("B", 1)
            .memory_relation("T", 1)
            .insert("T", Arc::new(CopyQuery::new("A", 1)))
            .delete("T", Arc::new(CopyQuery::new("B", 1)))
            .build()
            .unwrap();
        let ab: [(&str, i64); 6] = [("A", 1), ("A", 2), ("B", 2), ("B", 3), ("A", 5), ("B", 5)];
        let input = Instance::from_facts(
            Schema::new().with("A", 1).with("B", 1),
            ab.iter().map(|&(r, v)| fact!(r, v)),
        )
        .unwrap();
        let nodes = [Value::sym("n")].into();
        let mut state = t
            .schema()
            .initial_state(&input, &Value::sym("n"), &nodes)
            .unwrap();
        for v in [3i64, 4, 5] {
            state.insert_fact(fact!("T", v)).unwrap();
        }
        let heartbeat = Instance::empty(t.schema().message().clone());
        let step = transducer_step(&t, &state, &heartbeat);
        let memory: Vec<&Fact> = step
            .new_state
            .iter()
            .filter(|f| f.rel().as_str() == "T")
            .collect();
        // 1 enters (ins only), 2 stays out (conflict, absent), 3 leaves
        // (del only), 4 stays (untouched), 5 stays (conflict, present).
        assert_eq!(memory, vec![&fact!("T", 1), &fact!("T", 4), &fact!("T", 5)]);
        assert!(step.sent.is_empty() && step.output.is_empty());
    }

    #[test]
    fn tp_step_fires_each_rule_once() {
        let p = parse_program("t(X,Y) :- e(X,Y). t(X,Z) :- t(X,Y), e(Y,Z).").unwrap();
        let step = tp_step(&p, &edges(&[(1, 2), (2, 3)]));
        let want: BTreeSet<Fact> = [fact!("t", 1, 2), fact!("t", 2, 3)].into_iter().collect();
        assert_eq!(step, want);
    }
}
