//! Theorem 6: distributing queries over transducer networks.
//!
//! * `distribute_any` — Theorem 6(1): collect the entire input with the
//!   multicast protocol of Lemma 5(1), then apply and output `Q` once
//!   `Ready`. Works for *every* query `Q` expressible in the local
//!   language (with [`rtx_query::NativeQuery`] as `L`, every computable
//!   query).
//! * `distribute_monotone` — Theorem 6(2): flood the input obliviously
//!   (Lemma 5(2)) and *continuously* re-apply `Q` to the part of the
//!   input received so far. Because `Q` is monotone, no incorrect tuple
//!   is ever output. With [`FloodMode::Naive`] and a monotone `Q`, the
//!   resulting transducer is oblivious, inflationary, and monotone.
//! * `distribute_while` — Theorem 6(3): the `distribute_any` recipe with
//!   a while-program as the query ("every node can act as if it is on
//!   its own"). The step-by-step heartbeat simulation of while-programs
//!   lives in [`crate::constructions::while_compiler`].

use crate::constructions::flood::{flood_transducer, FloodMode};
use crate::constructions::multicast::multicast_transducer;
use rtx_query::{EvalError, QueryRef, WhileProgram, WhileQuery};
use rtx_relational::Schema;
use rtx_transducer::Transducer;
use std::sync::Arc;

/// Theorem 6(1): distribute an arbitrary query.
///
/// `query` is phrased over the input relation names. The result is a
/// consistent, network-topology-independent transducer computing `query`
/// — at the price of heavy coordination (`Id`, `All`, acks, `Ready`).
pub fn distribute_any(query: QueryRef, input: &Schema) -> Result<Transducer, EvalError> {
    multicast_transducer(input, Some(query))
}

/// Theorem 6(2): distribute a monotone query without coordination.
///
/// The caller asserts monotonicity of `query` (the theorem's premise);
/// for syntactically-checkable languages use
/// [`rtx_query::Query::is_monotone_syntactic`] or audit empirically with
/// `analysis::monotonicity`.
pub fn distribute_monotone(
    query: QueryRef,
    input: &Schema,
    mode: FloodMode,
) -> Result<Transducer, EvalError> {
    flood_transducer(input, mode, Some(query))
}

/// Theorem 6(3): distribute a while-program query.
pub fn distribute_while(program: WhileProgram, input: &Schema) -> Result<Transducer, EvalError> {
    distribute_any(Arc::new(WhileQuery::new(program)), input)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtx_net::{
        run, FifoRoundRobin, HorizontalPartition, LifoRoundRobin, Network, RandomScheduler,
        RunBudget,
    };
    use rtx_query::{
        atom, CqBuilder, DatalogQuery, FoQuery, Formula, NativeQuery, Query, Stmt, Term, UcqQuery,
    };
    use rtx_relational::{fact, Instance, RelName, Relation, Tuple, Value};
    use rtx_transducer::Classification;

    fn edges(pairs: &[(i64, i64)]) -> Instance {
        let sch = Schema::new().with("E", 2);
        let mut i = Instance::empty(sch);
        for &(a, b) in pairs {
            i.insert_fact(fact!("E", a, b)).unwrap();
        }
        i
    }

    fn tc_query() -> QueryRef {
        let p = rtx_query::parser::parse_program("t(X,Y) :- e2(X,Y). t(X,Z) :- t(X,Y), e2(Y,Z).")
            .unwrap();
        // rename: our input relation is E
        let p = rtx_query::parser::parse_program("T(X,Y) :- E(X,Y). T(X,Z) :- T(X,Y), E(Y,Z).")
            .unwrap_or(p);
        Arc::new(DatalogQuery::new(p, "T").unwrap())
    }

    fn expected_tc(input: &Instance) -> Relation {
        tc_query().eval(input).unwrap()
    }

    #[test]
    fn theorem_6_1_distributes_a_nonmonotone_query() {
        // Q = emptiness of S (nonmonotone): true iff S = ∅.
        // Include a second relation K so the active domain is never empty.
        let input_schema = Schema::new().with("S", 1).with("K", 1);
        let q: QueryRef = Arc::new(
            FoQuery::sentence(Formula::not(Formula::exists(
                ["X"],
                Formula::atom(atom!("S"; @"X")),
            )))
            .unwrap(),
        );
        let t = distribute_any(q, &input_schema).unwrap();

        let net = Network::line(3).unwrap();
        // S empty: query true
        let empty_s =
            Instance::from_facts(input_schema.clone(), vec![fact!("K", 1), fact!("K", 2)]).unwrap();
        let p = HorizontalPartition::round_robin(&net, &empty_s);
        let out = run(
            &net,
            &t,
            &p,
            &mut FifoRoundRobin::new(),
            &RunBudget::steps(500_000),
        )
        .unwrap();
        assert!(out.quiescent);
        assert!(out.output.as_bool(), "S is empty: output true");

        // S nonempty: query false — and crucially, no node may ever output
        // true even transiently (outputs cannot be retracted).
        let with_s =
            Instance::from_facts(input_schema.clone(), vec![fact!("K", 1), fact!("S", 9)]).unwrap();
        let p = HorizontalPartition::round_robin(&net, &with_s);
        for seed in [1u64, 2, 3] {
            let out = run(
                &net,
                &t,
                &p,
                &mut RandomScheduler::seeded(seed),
                &RunBudget::steps(500_000),
            )
            .unwrap();
            assert!(out.quiescent);
            assert!(!out.output.as_bool(), "S nonempty: output must stay false");
        }
    }

    #[test]
    fn theorem_6_2_distributed_tc_is_oblivious_and_monotone() {
        let input = edges(&[(1, 2), (2, 3), (3, 4)]);
        let t = distribute_monotone(tc_query(), input.schema(), FloodMode::Naive).unwrap();
        let c = Classification::of(&t);
        assert!(c.oblivious);
        assert!(c.inflationary);
        assert!(
            c.monotone,
            "naive flood + monotone Datalog = monotone transducer"
        );

        let net = Network::ring(3).unwrap();
        let p = HorizontalPartition::round_robin(&net, &input);
        let budget = RunBudget::steps(200_000).until_output(expected_tc(&input));
        let out = run(&net, &t, &p, &mut FifoRoundRobin::new(), &budget).unwrap();
        assert!(
            out.reached_target,
            "distributed TC converges to the true closure"
        );
    }

    #[test]
    fn theorem_6_2_dedup_variant_quiesces_with_same_answer() {
        let input = edges(&[(1, 2), (2, 3), (3, 1), (4, 1)]);
        let t = distribute_monotone(tc_query(), input.schema(), FloodMode::Dedup).unwrap();
        let net = Network::star(4).unwrap();
        let p = HorizontalPartition::round_robin(&net, &input);
        let out = run(
            &net,
            &t,
            &p,
            &mut LifoRoundRobin::new(),
            &RunBudget::steps(200_000),
        )
        .unwrap();
        assert!(out.quiescent);
        assert_eq!(out.output, expected_tc(&input));
    }

    #[test]
    fn monotone_streaming_never_outputs_incorrect_tuples() {
        // run with a small budget; whatever was output so far must be a
        // subset of the true answer — "since Q is monotone, no incorrect
        // tuples are output".
        let input = edges(&[(1, 2), (2, 3), (3, 4), (4, 5)]);
        let truth = expected_tc(&input);
        let t = distribute_monotone(tc_query(), input.schema(), FloodMode::Dedup).unwrap();
        let net = Network::line(5).unwrap();
        let p = HorizontalPartition::round_robin(&net, &input);
        for steps in [5usize, 20, 60, 200] {
            let out = run(
                &net,
                &t,
                &p,
                &mut RandomScheduler::seeded(7),
                &RunBudget::steps(steps),
            )
            .unwrap();
            assert!(
                out.output.is_subset(&truth),
                "partial output ⊆ Q(I) at {steps} steps"
            );
        }
    }

    #[test]
    fn theorem_6_1_with_native_query_language() {
        // L computationally complete: compute |S| mod 3 == 0 (far outside FO)
        let input_schema = Schema::new().with("S", 1);
        let q: QueryRef = Arc::new(NativeQuery::new(
            "card-mod-3",
            0,
            [RelName::new("S")],
            |db| {
                let n = db.relation(&"S".into())?.len();
                Ok(if n % 3 == 0 {
                    Relation::nullary_true()
                } else {
                    Relation::nullary_false()
                })
            },
        ));
        let t = distribute_any(q, &input_schema).unwrap();
        let net = Network::clique(3).unwrap();
        let input = Instance::from_facts(
            input_schema,
            vec![fact!("S", 1), fact!("S", 2), fact!("S", 3)],
        )
        .unwrap();
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
        assert!(out.output.as_bool(), "|S| = 3 ≡ 0 (mod 3)");
    }

    #[test]
    fn theorem_6_3_distributed_while_program() {
        // while-program computing TC, distributed via multicast
        let scratch = Schema::new().with("T", 2).with("Delta", 2).with("New", 2);
        let q = |r: rtx_query::Rule| -> QueryRef { Arc::new(UcqQuery::single(r)) };
        let copy_e = CqBuilder::head(vec![Term::var("X"), Term::var("Y")])
            .when(atom!("E"; @"X", @"Y"))
            .build()
            .unwrap();
        let compose = CqBuilder::head(vec![Term::var("X"), Term::var("Z")])
            .when(atom!("T"; @"X", @"Y"))
            .when(atom!("E"; @"Y", @"Z"))
            .unless(atom!("T"; @"X", @"Z"))
            .build()
            .unwrap();
        let copy_new = CqBuilder::head(vec![Term::var("X"), Term::var("Y")])
            .when(atom!("New"; @"X", @"Y"))
            .build()
            .unwrap();
        let body = Stmt::Seq(vec![
            Stmt::Assign("T".into(), q(copy_e.clone())),
            Stmt::Assign("Delta".into(), q(copy_e)),
            Stmt::While(
                rtx_query::Guard::NonEmpty("Delta".into()),
                Box::new(Stmt::Seq(vec![
                    Stmt::Assign("New".into(), q(compose)),
                    Stmt::Accumulate("T".into(), q(copy_new.clone())),
                    Stmt::Assign("Delta".into(), q(copy_new)),
                ])),
            ),
        ]);
        let program = WhileProgram::new(scratch, body, "T").unwrap();
        let input = edges(&[(1, 2), (2, 3)]);
        let t = distribute_while(program, input.schema()).unwrap();
        let net = Network::line(2).unwrap();
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
        let mut expected = Relation::empty(2);
        for (a, b) in [(1i64, 2i64), (2, 3), (1, 3)] {
            expected
                .insert(Tuple::new(vec![Value::int(a), Value::int(b)]))
                .unwrap();
        }
        assert_eq!(out.output, expected);
    }
}
