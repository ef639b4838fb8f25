//! Dedalus ticks, naively (paper, Section 8).
//!
//! Every tick starts from a fresh set of base facts — the previous
//! tick's `@next` heads, the tick's EDB arrivals and the `@async` heads
//! scheduled for it — and every rule is re-translated at every tick,
//! with the entangled time variable replaced by the tick number. The
//! deductive rules run to their fixpoint through [`crate::eval`]; the
//! `@next` and `@async` rules fire once through [`crate::tp_step`].

use rtx_dedalus::{DRule, DTime, DedalusProgram};
use rtx_query::{Atom, Literal, Program, Rule, Term};
use rtx_relational::{Fact, Instance, Schema, Value};
use std::collections::{BTreeMap, BTreeSet};

/// A Dedalus run as plain sets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ticks {
    /// The database of every tick, from tick 0.
    pub ticks: Vec<BTreeSet<Fact>>,
    /// The tick at which the run converged, if it did within the
    /// budget.
    pub converged_at: Option<u64>,
}

/// Run `program` on the EDB facts `arrivals` (each with its arrival
/// tick) for at most `max_ticks` ticks.
///
/// `delays(now, k, head)` gives the delivery delays of the `k`-th
/// `@async` head derived at tick `now`, one per delivered copy (an
/// empty list drops the head, two entries duplicate it). It is called
/// once per head, in sorted fact order.
///
/// The run converges at the first tick whose database equals the
/// previous tick's, with no arrival after it, and with every pending
/// `@async` head already in that database.
///
/// # Panics
///
/// If a fact's arity clashes with the program's signature, or a
/// timing class translates to an unsafe or unstratifiable program.
pub fn dedalus(
    program: &DedalusProgram,
    arrivals: &[(u64, Fact)],
    max_ticks: u64,
    mut delays: impl FnMut(u64, usize, &Fact) -> Vec<u64>,
) -> Ticks {
    let mut schema = program.signature().clone();
    for (_, f) in arrivals {
        schema
            .declare(f.rel().clone(), f.arity())
            .expect("EDB arities agree with the program");
    }
    let last_arrival = arrivals.iter().map(|(t, _)| *t).max();
    let mut carry: BTreeSet<Fact> = BTreeSet::new();
    let mut pending: BTreeMap<u64, BTreeSet<Fact>> = BTreeMap::new();
    let mut ticks: Vec<BTreeSet<Fact>> = Vec::new();
    for now in 0..max_ticks {
        let mut base = std::mem::take(&mut carry);
        base.extend(
            arrivals
                .iter()
                .filter(|(t, _)| *t == now)
                .map(|(_, f)| f.clone()),
        );
        base.extend(pending.remove(&now).unwrap_or_default());
        let db = crate::eval(
            &translate(program, DTime::Same, now),
            &instance(&schema, &base),
        );
        let tick = instance(&schema, &db);
        carry = crate::tp_step(&translate(program, DTime::Next, now), &tick);
        let heads = crate::tp_step(&translate(program, DTime::Async, now), &tick);
        for (k, head) in heads.iter().enumerate() {
            for d in delays(now, k, head) {
                pending.entry(now + d).or_default().insert(head.clone());
            }
        }
        let stable = ticks.last() == Some(&db);
        let arrivals_done = last_arrival.is_none_or(|l| l < now);
        let delivered = pending.values().flatten().all(|f| db.contains(f));
        ticks.push(db);
        if stable && arrivals_done && delivered {
            return Ticks {
                ticks,
                converged_at: Some(now),
            };
        }
    }
    Ticks {
        ticks,
        converged_at: None,
    }
}

/// The rules of one timing class as a Datalog program at tick `now`.
fn translate(program: &DedalusProgram, timing: DTime, now: u64) -> Program {
    let rules = program
        .rules_with(timing)
        .map(|r| rule_at(r, now))
        .collect();
    Program::new(rules).expect("a translated timing class is a program")
}

/// One rule with its time variable replaced by `now`.
fn rule_at(rule: &DRule, now: u64) -> Rule {
    let term = |t: &Term| match t {
        Term::Var(v) if Some(v) == rule.time_var() => Term::Const(Value::Int(now as i64)),
        _ => t.clone(),
    };
    let atom = |a: &Atom| Atom::new(a.pred.clone(), a.terms.iter().map(term).collect());
    let body = (rule.body_pos().iter().map(|a| Literal::Pos(atom(a))))
        .chain(rule.body_neg().iter().map(|a| Literal::Neg(atom(a))))
        .chain(
            rule.diseqs()
                .iter()
                .map(|(x, y)| Literal::Diseq(term(x), term(y))),
        )
        .collect();
    Rule::new(atom(rule.head()), body).expect("a translated rule is safe")
}

fn instance(schema: &Schema, facts: &BTreeSet<Fact>) -> Instance {
    Instance::from_facts(schema.clone(), facts.iter().cloned()).expect("facts fit the schema")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtx_query::atom;
    use rtx_relational::fact;

    fn never(_: u64, _: usize, _: &Fact) -> Vec<u64> {
        unreachable!("no async rule")
    }

    #[test]
    fn persistence_carries_facts_and_converges_after_the_last_arrival() {
        let p = DedalusProgram::new(vec![DRule::persist("s", 1)]).unwrap();
        let run = dedalus(&p, &[(0, fact!("s", 1)), (3, fact!("s", 2))], 20, never);
        let s1: BTreeSet<Fact> = [fact!("s", 1)].into();
        let both: BTreeSet<Fact> = [fact!("s", 1), fact!("s", 2)].into();
        assert_eq!(
            run.ticks,
            vec![s1.clone(), s1.clone(), s1, both.clone(), both]
        );
        assert_eq!(run.converged_at, Some(4));
    }

    #[test]
    fn a_time_entangled_deductive_rule_stamps_every_tick() {
        let p = DedalusProgram::new(vec![
            DRule::persist("go", 0),
            DRule::new(atom!("stamp"; @"T"), DTime::Same)
                .when(atom!("go"))
                .with_time_var("T"),
        ])
        .unwrap();
        let run = dedalus(&p, &[(0, fact!("go"))], 4, never);
        for (now, db) in run.ticks.iter().enumerate() {
            let want: BTreeSet<Fact> = [fact!("go"), fact!("stamp", now as i64)].into();
            assert_eq!(db, &want, "tick {now}");
        }
        assert_eq!(run.converged_at, None, "a fresh stamp every tick");
    }

    #[test]
    fn async_heads_arrive_after_their_delays_and_duplicates_collapse() {
        let p = DedalusProgram::new(vec![
            DRule::persist("got", 1),
            DRule::new(atom!("m"; @"X"), DTime::Async).when(atom!("s"; @"X")),
            DRule::new(atom!("got"; @"X"), DTime::Same).when(atom!("m"; @"X")),
        ])
        .unwrap();
        let mut calls = Vec::new();
        let run = dedalus(
            &p,
            &[(0, fact!("s", 2)), (0, fact!("s", 1))],
            20,
            |now, k, f| {
                calls.push((now, k, f.clone()));
                vec![2, 2]
            },
        );
        assert_eq!(
            calls,
            vec![(0, 0, fact!("m", 1)), (0, 1, fact!("m", 2))],
            "one call per head, in sorted fact order"
        );
        assert!(!run.ticks[1].contains(&fact!("got", 1)));
        let at_two: BTreeSet<Fact> = [
            fact!("got", 1),
            fact!("got", 2),
            fact!("m", 1),
            fact!("m", 2),
        ]
        .into();
        assert_eq!(run.ticks[2], at_two);
        let after: BTreeSet<Fact> = [fact!("got", 1), fact!("got", 2)].into();
        assert_eq!(run.ticks[3], after);
        assert_eq!(run.converged_at, Some(4));
    }
}
