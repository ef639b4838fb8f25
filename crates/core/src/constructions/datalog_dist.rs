//! Theorem 6(5): Datalog queries and oblivious, inflationary transducers.
//!
//! **Only-if direction** ([`distribute_datalog`]): given a Datalog
//! program `P`, build a transducer that floods the EDB and applies the
//! immediate-consequence operator `T_P` once per heartbeat, accumulating
//! the IDB in memory (inflationary — "by the monotone nature of Datalog
//! evaluation, deletions are not needed"). The transducer is oblivious.
//!
//! **If direction** ([`datalog_from_transducer_rules`]): from the UCQ
//! insertion rules of an oblivious inflationary transducer, "taking
//! together the rules of all update queries `Q_ins^R` and the output
//! query `Q_out`" yields a recursive Datalog program computing the same
//! query.

use crate::constructions::flood::FloodMode;
use crate::constructions::{arg_vars, known_input_views, msg_rel, store_rel};
use rtx_query::{
    Atom, CopyQuery, CqBuilder, EvalError, Literal, Program, QueryRef, Rule, Term, TpQuery,
    UcqQuery, ViewQuery,
};
use rtx_relational::{RelName, Schema};
use rtx_transducer::{Transducer, TransducerBuilder};
use std::sync::Arc;

/// Build the Theorem 6(5) transducer for a Datalog program.
///
/// The input schema is the program's EDB. Memory holds a flooded store
/// per EDB relation plus one relation per IDB predicate. Every heartbeat
/// inserts `T_P` of (known EDB ∪ current IDB) into the IDB memory;
/// `answer` is the designated output predicate.
pub fn distribute_datalog(
    program: &Program,
    answer: &RelName,
    mode: FloodMode,
) -> Result<Transducer, EvalError> {
    if program.has_negation() {
        return Err(EvalError::Unsafe {
            reason: "Theorem 6(5) is about negation-free Datalog".into(),
        });
    }
    let answer_arity = program.signature().arity(answer).ok_or_else(|| {
        EvalError::Rel(rtx_relational::RelError::UnknownRelation {
            rel: answer.clone(),
        })
    })?;

    let edb: Schema = program
        .edb_predicates()
        .into_iter()
        .map(|r| {
            let a = program
                .signature()
                .arity(&r)
                .expect("signature lists every predicate");
            (r, a)
        })
        .collect();

    let mut b = TransducerBuilder::new("datalog-tp").input_schema(&edb);

    // Flooding of EDB facts (inline rather than via flood_transducer so
    // that IDB memory relations live in the same transducer).
    for (r, k) in edb.iter() {
        let msg = msg_rel(r);
        let store = store_rel(r);
        b = b
            .message_relation(msg.clone(), k)
            .memory_relation(store.clone(), k);
        let vars = arg_vars(k);
        let local = Atom::new(r.clone(), vars.clone());
        let msg_atom = Atom::new(msg.clone(), vars.clone());
        let store_atom = Atom::new(store.clone(), vars.clone());
        let send_rules = match mode {
            FloodMode::Naive => vec![
                CqBuilder::head(vars.clone()).when(local.clone()).build()?,
                CqBuilder::head(vars.clone())
                    .when(msg_atom.clone())
                    .build()?,
            ],
            FloodMode::Dedup => vec![
                CqBuilder::head(vars.clone())
                    .when(local.clone())
                    .unless(store_atom.clone())
                    .build()?,
                CqBuilder::head(vars.clone())
                    .when(msg_atom.clone())
                    .unless(store_atom)
                    .build()?,
            ],
        };
        b = b.send(msg, Arc::new(UcqQuery::new(k, send_rules)?));
        let ins_rules = vec![
            CqBuilder::head(vars.clone()).when(local).build()?,
            CqBuilder::head(vars.clone()).when(msg_atom).build()?,
        ];
        b = b.insert(store, Arc::new(UcqQuery::new(k, ins_rules)?));
    }

    // IDB memory + T_P insertion queries. The TP query sees the EDB
    // through the known-input views (local ∪ store) and the IDB through
    // the base state.
    let views = known_input_views(&edb)?;
    for p in program.idb_predicates() {
        let arity = program.signature().arity(p).expect("idb in signature");
        b = b.memory_relation(p.clone(), arity);
        let tp: QueryRef = Arc::new(TpQuery::new(program.clone(), p.clone())?);
        let viewed = ViewQuery::new(views.clone(), tp).with_base();
        b = b.insert(p.clone(), Arc::new(viewed));
    }

    // out := the accumulated answer predicate.
    b = b.output(Arc::new(CopyQuery::new(answer.clone(), answer_arity)));
    b.build()
}

/// The if-direction of Theorem 6(5): combine the UCQ insertion rules of
/// an oblivious, inflationary transducer (memory relation ↦ its rules)
/// with the output query's rules into one recursive Datalog program.
/// Each rule is kept as written, under the name of the relation it
/// fills.
///
/// Negated atoms are rejected — the theorem characterizes *Datalog*.
pub fn datalog_from_transducer_rules(
    memory_rules: &[(RelName, UcqQuery)],
    output: (&RelName, &UcqQuery),
) -> Result<Program, EvalError> {
    let named = memory_rules.iter().map(|(rel, ucq)| (rel, ucq));
    let mut rules: Vec<Rule> = Vec::new();
    for (rel, ucq) in named.chain([output]) {
        for rule in ucq.rules() {
            if rule.has_negation() {
                return Err(EvalError::Unsafe {
                    reason: "transducer rule uses negation; not a Datalog transducer".into(),
                });
            }
            let head = Atom::new(rel.clone(), rule.head().terms.clone());
            rules.push(Rule::new(head, rule.body().to_vec())?);
        }
    }
    Program::new(rules)
}

/// Convenience: the textbook transitive-closure program
/// `T(x,y) ← E(x,y); T(x,z) ← T(x,y), E(y,z)`.
pub fn transitive_closure_program() -> Program {
    let t_copy = Rule::new(
        Atom::new("T", vec![Term::var("X"), Term::var("Y")]),
        vec![Literal::Pos(Atom::new(
            "E",
            vec![Term::var("X"), Term::var("Y")],
        ))],
    )
    .expect("safe rule");
    let t_step = Rule::new(
        Atom::new("T", vec![Term::var("X"), Term::var("Z")]),
        vec![
            Literal::Pos(Atom::new("T", vec![Term::var("X"), Term::var("Y")])),
            Literal::Pos(Atom::new("E", vec![Term::var("Y"), Term::var("Z")])),
        ],
    )
    .expect("safe rule");
    Program::new(vec![t_copy, t_step]).expect("consistent arities")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtx_net::{run, FifoRoundRobin, HorizontalPartition, Network, RunBudget};
    use rtx_query::{DatalogQuery, Query};
    use rtx_relational::{fact, tuple, Instance};
    use rtx_transducer::Classification;

    fn edges(pairs: &[(i64, i64)]) -> Instance {
        let sch = Schema::new().with("E", 2);
        let mut i = Instance::empty(sch);
        for &(a, b) in pairs {
            i.insert_fact(fact!("E", a, b)).unwrap();
        }
        i
    }

    #[test]
    fn tp_transducer_is_oblivious_and_inflationary() {
        let t = distribute_datalog(&transitive_closure_program(), &"T".into(), FloodMode::Dedup)
            .unwrap();
        let c = Classification::of(&t);
        assert!(c.oblivious);
        assert!(c.inflationary, "Datalog evaluation needs no deletions");
        // T_P reads the EDB views and T, which only grow; the flooded
        // store reads the messages.
        let delta: Vec<&str> = t.delta_relations().iter().map(|r| r.as_str()).collect();
        assert_eq!(delta, ["T"]);
        // with naive flooding, fully monotone
        let t2 = distribute_datalog(&transitive_closure_program(), &"T".into(), FloodMode::Naive)
            .unwrap();
        assert!(Classification::of(&t2).monotone);
    }

    #[test]
    fn distributed_tp_computes_transitive_closure() {
        let input = edges(&[(1, 2), (2, 3), (3, 4), (7, 8)]);
        let expected = DatalogQuery::new(transitive_closure_program(), "T")
            .unwrap()
            .eval(&input)
            .unwrap();
        let t = distribute_datalog(&transitive_closure_program(), &"T".into(), FloodMode::Dedup)
            .unwrap();
        let net = Network::ring(4).unwrap();
        let p = HorizontalPartition::round_robin(&net, &input);
        let out = run(
            &net,
            &t,
            &p,
            &mut FifoRoundRobin::new(),
            &RunBudget::steps(500_000),
        )
        .unwrap();
        assert!(out.quiescent);
        assert_eq!(out.output, expected);
        // every node individually converged to the full closure
        for per in out.outputs_per_node.values() {
            assert_eq!(per, &expected);
        }
    }

    #[test]
    fn negation_rejected() {
        let p = rtx_query::parser::parse_program("q(X) :- s(X), !t(X).").unwrap();
        assert!(distribute_datalog(&p, &"q".into(), FloodMode::Dedup).is_err());
    }

    #[test]
    fn unknown_answer_predicate_rejected() {
        let p = transitive_closure_program();
        assert!(distribute_datalog(&p, &"Nope".into(), FloodMode::Dedup).is_err());
    }

    #[test]
    fn round_trip_transducer_rules_to_datalog() {
        // Memory rule set shaped like the TC transducer's insertion
        // queries; recombining must give back a working recursive program.
        let t_rules = UcqQuery::new(
            2,
            vec![
                CqBuilder::head(vec![Term::var("X"), Term::var("Y")])
                    .when(Atom::new("E", vec![Term::var("X"), Term::var("Y")]))
                    .build()
                    .unwrap(),
                CqBuilder::head(vec![Term::var("X"), Term::var("Z")])
                    .when(Atom::new("T", vec![Term::var("X"), Term::var("Y")]))
                    .when(Atom::new("E", vec![Term::var("Y"), Term::var("Z")]))
                    .build()
                    .unwrap(),
            ],
        )
        .unwrap();
        let out_rule = UcqQuery::single(
            CqBuilder::head(vec![Term::var("X"), Term::var("Y")])
                .when(Atom::new("T", vec![Term::var("X"), Term::var("Y")]))
                .build()
                .unwrap(),
        );
        let program =
            datalog_from_transducer_rules(&[("T".into(), t_rules)], (&"Ans".into(), &out_rule))
                .unwrap();
        assert!(!program.is_nonrecursive());
        let input = edges(&[(1, 2), (2, 3)]);
        let q = DatalogQuery::new(program, "Ans").unwrap();
        let out = q.eval(&input).unwrap();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn round_trip_keeps_nonequalities() {
        // T(X,Y) ← E(X,Y), X ≠ Y with output O(X,Y) ← T(X,Y): the
        // program must answer what the transducer's query answers.
        let (x, y) = (Term::var("X"), Term::var("Y"));
        let t_rule = CqBuilder::head(vec![x.clone(), y.clone()])
            .when(Atom::new("E", vec![x.clone(), y.clone()]))
            .distinct(x.clone(), y.clone())
            .build()
            .unwrap();
        let t_query = UcqQuery::single(t_rule);
        let out_rule = UcqQuery::single(
            CqBuilder::head(vec![x.clone(), y.clone()])
                .when(Atom::new("T", vec![x, y]))
                .build()
                .unwrap(),
        );
        let input = edges(&[(1, 1), (1, 2)]);
        let program = datalog_from_transducer_rules(
            &[("T".into(), t_query.clone())],
            (&"O".into(), &out_rule),
        )
        .unwrap();
        let out = DatalogQuery::new(program, "O")
            .unwrap()
            .eval(&input)
            .unwrap();
        assert_eq!(out, t_query.eval(&input).unwrap());
        assert_eq!(out.iter().cloned().collect::<Vec<_>>(), vec![tuple![1, 2]]);
    }

    #[test]
    fn negated_transducer_rules_rejected_in_round_trip() {
        let bad = UcqQuery::single(
            CqBuilder::head(vec![Term::var("X")])
                .when(Atom::new("S", vec![Term::var("X")]))
                .unless(Atom::new("T", vec![Term::var("X")]))
                .build()
                .unwrap(),
        );
        let out_rule = UcqQuery::single(
            CqBuilder::head(vec![Term::var("X")])
                .when(Atom::new("T", vec![Term::var("X")]))
                .build()
                .unwrap(),
        );
        assert!(
            datalog_from_transducer_rules(&[("T".into(), bad)], (&"A".into(), &out_rule)).is_err()
        );
    }
}
