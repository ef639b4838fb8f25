//! # rtx-ref — the reference semantics the equivalence properties test against
//!
//! A deliberately naive transcription of the paper's Datalog semantics
//! (Section 2): a database is a finite set of facts, a rule fires for
//! every valuation that puts its positive atoms in the database, keeps
//! its negated atoms out, and makes its nonequalities hold, and a
//! stratified program is evaluated stratum by stratum to its least
//! fixpoint.
//!
//! Nothing here is fast on purpose. Facts live in `BTreeSet`s, every
//! round re-derives everything, and joins are nested loops in literal
//! order. The crate uses none of the engine's machinery — no
//! `Relation` set algebra, indexes, join plans, columnar frames or
//! `Program::eval` — only the program's syntax and its
//! [`Program::stratify`], so a bug in the engine cannot hide in the
//! oracle too. It is a dev-dependency only; no library crate depends on
//! it.

use rtx_query::{Atom, Literal, Program, Rule, Term, Var};
use rtx_relational::{Fact, Instance, RelName, Tuple, Value};
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
    let mut facts = database(db);
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

/// One application of the immediate-consequence operator `T_P`: every
/// head fact any rule derives from `db` in a single firing, with
/// negation read against `db` as given.
///
/// # Panics
///
/// If a rule is unsafe.
pub fn tp_step(program: &Program, db: &Instance) -> BTreeSet<Fact> {
    let facts = database(db);
    let mut out = Db::new();
    for rule in program.rules() {
        for (pred, tuple) in fire(rule, &facts) {
            out.entry(pred).or_default().insert(tuple);
        }
    }
    flatten(out)
}

fn database(db: &Instance) -> Db {
    let mut facts = Db::new();
    for f in db.facts() {
        let (pred, tuple) = f.into_parts();
        facts.entry(pred).or_default().insert(tuple);
    }
    facts
}

fn flatten(facts: Db) -> BTreeSet<Fact> {
    facts
        .into_iter()
        .flat_map(|(pred, tuples)| tuples.into_iter().map(move |t| Fact::new(pred.clone(), t)))
        .collect()
}

/// Every head fact of one rule over `facts`: extend the valuations
/// through the positive atoms in literal order by nested loops, then
/// keep those passing every negated atom and nonequality as written.
fn fire(rule: &Rule, facts: &Db) -> Vec<(RelName, Tuple)> {
    let empty = BTreeSet::new();
    let mut valuations: Vec<Valuation> = vec![Valuation::new()];
    for literal in rule.body() {
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
        rule.body().iter().all(|literal| match literal {
            Literal::Pos(_) => true,
            Literal::Neg(atom) => !facts
                .get(&atom.pred)
                .is_some_and(|ts| ts.contains(&ground(atom, v))),
            Literal::Diseq(x, y) => value(x, v) != value(y, v),
        })
    };
    valuations
        .iter()
        .filter(|v| holds(v))
        .map(|v| (rule.head().pred.clone(), ground(rule.head(), v)))
        .collect()
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
    fn tp_step_fires_each_rule_once() {
        let p = parse_program("t(X,Y) :- e(X,Y). t(X,Z) :- t(X,Y), e(Y,Z).").unwrap();
        let step = tp_step(&p, &edges(&[(1, 2), (2, 3)]));
        let want: BTreeSet<Fact> = [fact!("t", 1, 2), fact!("t", 2, 3)].into_iter().collect();
        assert_eq!(step, want);
    }
}
