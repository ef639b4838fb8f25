//! The paper's worked examples, as executable transducers.
//!
//! | Function | Paper item | Demonstrates |
//! |----------|-----------|--------------|
//! | [`ex2_first_element`] | Example 2 | an **inconsistent** network: output depends on delivery order |
//! | [`ex3_equality_selection`] | Example 3 | a trivially consistent network (no messages) |
//! | [`ex3_transitive_closure`] | Example 3 | the classic distributed TC, consistent by monotonicity |
//! | [`ex4_echo`] | Example 4 | consistent per topology but **not** network-topology independent |
//! | [`ex9_ab_nonempty`] | Section 5 | coordination-free, yet needs communication on full-replication partitions |
//! | [`ex10_emptiness`] | Example 10 | a nonmonotone query requiring coordination (`Id` + `All`) |
//! | [`ex15_ping`] | Example 15 | no `Id`, network-topology independent, but **not** coordination-free |

use crate::constructions::const_true;
use rtx_query::{Atom, CqBuilder, EvalError, FoQuery, Formula, Term, UcqQuery, UnionQuery};
use rtx_relational::RelName;
use rtx_transducer::{Transducer, TransducerBuilder, SYS_ALL, SYS_ID};
use std::sync::Arc;

fn x() -> Term {
    Term::var("X")
}

/// The FO sentence "I am alone in the network":
/// `∀u ∀v (All(u) ∧ All(v) → u = v)`.
fn alone_sentence() -> Formula {
    Formula::forall(
        ["U", "V"],
        Formula::or([
            Formula::not(Formula::Atom(Atom::new(
                RelName::new(SYS_ALL),
                vec![Term::var("U")],
            ))),
            Formula::not(Formula::Atom(Atom::new(
                RelName::new(SYS_ALL),
                vec![Term::var("V")],
            ))),
            Formula::eq(Term::var("U"), Term::var("V")),
        ]),
    )
}

/// **Example 2** — the inconsistent network.
///
/// Input: a set `S`. Each node sends its part of `S` to its neighbors
/// (once), and outputs the **first** element it receives, never another.
/// With ≥ 2 nodes and ≥ 2 elements, different delivery orders produce
/// different outputs: the network is not consistent.
pub fn ex2_first_element() -> Result<Transducer, EvalError> {
    let sent: RelName = "SentS".into();
    let got: RelName = "GotFirst".into();
    let b = TransducerBuilder::new("ex2-first-element")
        .input_relation("S", 1)
        .message_relation("M", 1)
        .memory_relation(sent.clone(), 0)
        .memory_relation(got.clone(), 0)
        .output_arity(1)
        // send own part once
        .send(
            "M",
            Arc::new(UcqQuery::single(
                CqBuilder::head(vec![x()])
                    .when(Atom::new("S", vec![x()]))
                    .unless(Atom::new(sent.clone(), vec![]))
                    .build()?,
            )),
        )
        .insert(sent, const_true())
        // output the delivered element iff nothing was output before
        .output(Arc::new(UcqQuery::single(
            CqBuilder::head(vec![x()])
                .when(Atom::new("M", vec![x()]))
                .unless(Atom::new(got.clone(), vec![]))
                .build()?,
        )))
        // … and latch the flag on first delivery
        .insert(
            got,
            Arc::new(UcqQuery::single(
                CqBuilder::head(vec![])
                    .when(Atom::new("M", vec![x()]))
                    .build()?,
            )),
        );
    b.build()
}

/// **Example 3 (first part)** — the equality selection `σ_{$1=$2}(S)`.
///
/// Each node outputs the identical pairs from its own fragment; no
/// messages are sent. Trivially consistent.
pub fn ex3_equality_selection() -> Result<Transducer, EvalError> {
    let xy = vec![Term::var("X"), Term::var("X")];
    TransducerBuilder::new("ex3-equality-selection")
        .input_relation("S", 2)
        .output(Arc::new(UcqQuery::single(
            CqBuilder::head(xy.clone())
                .when(Atom::new("S", xy))
                .build()?,
        )))
        .build()
}

/// **Example 3 (second part)** — naive distributed transitive closure.
///
/// Verbatim from the paper: each node floods its part of the input and
/// forwards everything it receives; received tuples accumulate in `R`;
/// memory `T` repeatedly receives `S ∪ R ∪ T ∪ (T ∘ T)`; `T` is output.
/// Consistent thanks to the monotonicity of transitive closure.
///
/// `dedup` selects forward-once flooding (terminating runs) instead of
/// the paper's unconditional forwarding.
pub fn ex3_transitive_closure(dedup: bool) -> Result<Transducer, EvalError> {
    let xv = Term::var("X");
    let yv = Term::var("Y");
    let zv = Term::var("Z");
    let pair = vec![xv.clone(), yv.clone()];
    let s_atom = Atom::new("S", pair.clone());
    let m_atom = Atom::new("M", pair.clone());
    let r_atom = Atom::new("R", pair.clone());

    let send_rules = if dedup {
        vec![
            CqBuilder::head(pair.clone())
                .when(s_atom.clone())
                .unless(r_atom.clone())
                .build()?,
            CqBuilder::head(pair.clone())
                .when(m_atom.clone())
                .unless(r_atom.clone())
                .build()?,
        ]
    } else {
        vec![
            CqBuilder::head(pair.clone()).when(s_atom.clone()).build()?,
            CqBuilder::head(pair.clone()).when(m_atom.clone()).build()?,
        ]
    };

    // ins R := S ∪ M   (the "accumulate received tuples" memory; seeding
    // it with S as well makes the dedup send check symmetric)
    let ins_r = vec![
        CqBuilder::head(pair.clone()).when(s_atom.clone()).build()?,
        CqBuilder::head(pair.clone()).when(m_atom.clone()).build()?,
    ];

    // ins T := S ∪ R ∪ T ∪ (T ∘ T)
    let ins_t = vec![
        CqBuilder::head(pair.clone()).when(s_atom).build()?,
        CqBuilder::head(pair.clone()).when(r_atom).build()?,
        CqBuilder::head(pair.clone())
            .when(Atom::new("T", pair.clone()))
            .build()?,
        CqBuilder::head(vec![xv.clone(), zv.clone()])
            .when(Atom::new("T", vec![xv.clone(), yv.clone()]))
            .when(Atom::new("T", vec![yv.clone(), zv.clone()]))
            .build()?,
    ];

    TransducerBuilder::new(if dedup {
        "ex3-tc-dedup"
    } else {
        "ex3-tc-naive"
    })
    .input_relation("S", 2)
    .message_relation("M", 2)
    .memory_relation("R", 2)
    .memory_relation("T", 2)
    .send("M", Arc::new(UcqQuery::new(2, send_rules)?))
    .insert("R", Arc::new(UcqQuery::new(2, ins_r)?))
    .insert("T", Arc::new(UcqQuery::new(2, ins_t)?))
    .output(Arc::new(UcqQuery::single(
        CqBuilder::head(pair.clone())
            .when(Atom::new("T", pair))
            .build()?,
    )))
    .build()
}

/// **Example 4** — the echo transducer.
///
/// Each node sends its input (and forwards received elements, once) and
/// outputs **only elements it receives**. On any network with ≥ 2 nodes
/// it computes the identity on `S`; on the single-node network it
/// computes the empty query: consistent for each topology, but not
/// network-topology independent.
pub fn ex4_echo() -> Result<Transducer, EvalError> {
    let seen: RelName = "Seen".into();
    TransducerBuilder::new("ex4-echo")
        .input_relation("S", 1)
        .message_relation("M", 1)
        .memory_relation(seen.clone(), 1)
        .send(
            "M",
            Arc::new(UcqQuery::new(
                1,
                vec![
                    CqBuilder::head(vec![x()])
                        .when(Atom::new("S", vec![x()]))
                        .unless(Atom::new(seen.clone(), vec![x()]))
                        .build()?,
                    CqBuilder::head(vec![x()])
                        .when(Atom::new("M", vec![x()]))
                        .unless(Atom::new(seen.clone(), vec![x()]))
                        .build()?,
                ],
            )?),
        )
        .insert(
            seen.clone(),
            Arc::new(UcqQuery::new(
                1,
                vec![
                    CqBuilder::head(vec![x()])
                        .when(Atom::new("S", vec![x()]))
                        .build()?,
                    CqBuilder::head(vec![x()])
                        .when(Atom::new("M", vec![x()]))
                        .build()?,
                ],
            )?),
        )
        // output = received elements only
        .output(Arc::new(UcqQuery::single(
            CqBuilder::head(vec![x()])
                .when(Atom::new("M", vec![x()]))
                .build()?,
        )))
        .build()
}

/// **Section 5's contrived example** — "is at least one of `A`, `B`
/// nonempty?", coordination-free yet needing communication when every
/// node holds the full input.
///
/// Verbatim: on a one-node network answer directly. Otherwise, if the
/// local fragments of `A` *and* `B` are both nonempty, send `true` and
/// output nothing; a node receiving `true` outputs it. If locally `A` or
/// `B` is empty, output the answer directly.
pub fn ex9_ab_nonempty() -> Result<Transducer, EvalError> {
    let some_a = Formula::exists(["X"], Formula::Atom(Atom::new("A", vec![x()])));
    let some_b = Formula::exists(["X"], Formula::Atom(Atom::new("B", vec![x()])));
    let answer = Formula::or([some_a.clone(), some_b.clone()]);
    let alone = alone_sentence();

    // snd True() — once, when not alone and both fragments nonempty
    let snd = FoQuery::sentence(Formula::and([
        Formula::not(alone.clone()),
        some_a.clone(),
        some_b.clone(),
        Formula::not(Formula::Atom(Atom::new("SentTrue", vec![]))),
    ]))?;

    // out := (alone ∧ answer) ∨ (¬alone ∧ (A empty ∨ B empty) ∧ answer) ∨ True_rcv
    let out = FoQuery::sentence(Formula::or([
        Formula::and([alone.clone(), answer.clone()]),
        Formula::and([
            Formula::not(alone),
            Formula::or([Formula::not(some_a), Formula::not(some_b)]),
            answer,
        ]),
        Formula::Atom(Atom::new("MTrue", vec![])),
    ]))?;

    TransducerBuilder::new("ex9-ab-nonempty")
        .input_relation("A", 1)
        .input_relation("B", 1)
        .message_relation("MTrue", 0)
        .memory_relation("SentTrue", 0)
        .send("MTrue", Arc::new(snd))
        .insert(
            "SentTrue",
            Arc::new(UcqQuery::single(
                CqBuilder::head(vec![])
                    .when(Atom::new("MTrue", vec![]))
                    .build()?,
            )),
        )
        .output(Arc::new(out))
        .build()
}

/// **Example 10** — the emptiness query, the canonical coordination.
///
/// Query: is `S` empty (globally)? Every node floods its identifier
/// *provided its local `S` fragment is empty*; a node that has seen the
/// identifiers of **all** nodes (checked against `All`) knows `S = ∅`
/// everywhere and outputs `true`.
pub fn ex10_emptiness() -> Result<Transducer, EvalError> {
    let local_empty = Formula::not(Formula::exists(
        ["Y"],
        Formula::Atom(Atom::new("S", vec![Term::var("Y")])),
    ));
    // snd NId(x) := (Id(x) ∧ S=∅ ∧ ¬SeenId(x)) ∪ forward
    let snd_own = FoQuery::new(
        ["X"],
        Formula::and([
            Formula::Atom(Atom::new(RelName::new(SYS_ID), vec![x()])),
            local_empty.clone(),
            Formula::not(Formula::Atom(Atom::new("SeenId", vec![x()]))),
        ]),
    )?;
    let snd_fwd = UcqQuery::single(
        CqBuilder::head(vec![x()])
            .when(Atom::new("NId", vec![x()]))
            .unless(Atom::new("SeenId", vec![x()]))
            .build()?,
    );
    let ins_own = FoQuery::new(
        ["X"],
        Formula::and([
            Formula::Atom(Atom::new(RelName::new(SYS_ID), vec![x()])),
            local_empty,
        ]),
    )?;
    let ins_fwd = UcqQuery::single(
        CqBuilder::head(vec![x()])
            .when(Atom::new("NId", vec![x()]))
            .build()?,
    );
    // out := ∀v (All(v) → SeenId(v))
    let out = FoQuery::sentence(Formula::forall(
        ["V"],
        Formula::or([
            Formula::not(Formula::Atom(Atom::new(
                RelName::new(SYS_ALL),
                vec![Term::var("V")],
            ))),
            Formula::Atom(Atom::new("SeenId", vec![Term::var("V")])),
        ]),
    ))?;

    TransducerBuilder::new("ex10-emptiness")
        .input_relation("S", 1)
        .message_relation("NId", 1)
        .memory_relation("SeenId", 1)
        .send(
            "NId",
            Arc::new(UnionQuery::new(
                1,
                vec![Arc::new(snd_own), Arc::new(snd_fwd)],
            )?),
        )
        .insert(
            "SeenId",
            Arc::new(UnionQuery::new(
                1,
                vec![Arc::new(ins_own), Arc::new(ins_fwd)],
            )?),
        )
        .output(Arc::new(out))
        .build()
}

/// **Example 15** — the no-`Id` ping transducer.
///
/// Computes the identity query on `S`, is network-topology independent,
/// does **not** use `Id` — but is not coordination-free: on a multi-node
/// network, every run needs a ping delivery before any output, whatever
/// the horizontal partition.
pub fn ex15_ping() -> Result<Transducer, EvalError> {
    let alone = alone_sentence();
    // snd Ping() — once, when not alone
    let snd = FoQuery::sentence(Formula::and([
        Formula::not(alone.clone()),
        Formula::not(Formula::Atom(Atom::new("SentPing", vec![]))),
    ]))?;
    // out := (alone ∧ S(x)) ∨ (Ping_rcv ∧ S(x))
    let out = FoQuery::new(
        ["X"],
        Formula::and([
            Formula::Atom(Atom::new("S", vec![x()])),
            Formula::or([alone, Formula::Atom(Atom::new("Ping", vec![]))]),
        ]),
    )?;
    TransducerBuilder::new("ex15-ping")
        .input_relation("S", 1)
        .message_relation("Ping", 0)
        .memory_relation("SentPing", 0)
        .send("Ping", Arc::new(snd))
        .insert("SentPing", const_true())
        .output(Arc::new(out))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtx_net::{run, FifoRoundRobin, HorizontalPartition, LifoRoundRobin, Network, RunBudget};
    use rtx_relational::Schema;
    use rtx_relational::{fact, tuple, Instance, Relation, Value};
    use rtx_transducer::Classification;

    fn input_s1(vals: &[i64]) -> Instance {
        Instance::from_facts(
            Schema::new().with("S", 1),
            vals.iter().map(|&v| fact!("S", v)).collect::<Vec<_>>(),
        )
        .unwrap()
    }

    fn budget() -> RunBudget {
        RunBudget::steps(200_000)
    }

    #[test]
    fn ex2_is_inconsistent_under_different_schedulers() {
        let t = ex2_first_element().unwrap();
        let net = Network::line(2).unwrap();
        let input = input_s1(&[1, 2]);
        // concentrate both elements at n0 so n1's first delivery is
        // order-dependent
        let p = HorizontalPartition::concentrate(&net, &input, &Value::sym("n0")).unwrap();
        let fifo = run(&net, &t, &p, &mut FifoRoundRobin::new(), &budget()).unwrap();
        let lifo = run(&net, &t, &p, &mut LifoRoundRobin::new(), &budget()).unwrap();
        assert!(fifo.quiescent && lifo.quiescent);
        assert_ne!(
            fifo.output, lifo.output,
            "Example 2: delivery order changes the output — inconsistent"
        );
    }

    #[test]
    fn ex2_single_node_is_trivially_consistent() {
        // "if the network consists of a single node … there is only one
        // possible run"
        let t = ex2_first_element().unwrap();
        let net = Network::single();
        let input = input_s1(&[1, 2]);
        let p = HorizontalPartition::replicate(&net, &input);
        let out = run(&net, &t, &p, &mut FifoRoundRobin::new(), &budget()).unwrap();
        assert!(out.quiescent);
        assert!(out.output.is_empty(), "no deliveries ⇒ no output");
    }

    #[test]
    fn ex3_selection_is_consistent_and_messageless() {
        let t = ex3_equality_selection().unwrap();
        assert!(t.schema().message().is_empty());
        let sch = Schema::new().with("S", 2);
        let input = Instance::from_facts(
            sch,
            vec![fact!("S", 1, 1), fact!("S", 1, 2), fact!("S", 3, 3)],
        )
        .unwrap();
        for net in [Network::single(), Network::line(3).unwrap()] {
            let p = HorizontalPartition::round_robin(&net, &input);
            let out = run(&net, &t, &p, &mut FifoRoundRobin::new(), &budget()).unwrap();
            assert!(out.quiescent);
            assert_eq!(out.output.len(), 2);
            assert!(out.output.contains(&tuple![1, 1]));
            assert!(out.output.contains(&tuple![3, 3]));
        }
    }

    #[test]
    fn ex3_tc_computes_closure_distributedly() {
        let t = ex3_transitive_closure(true).unwrap();
        let sch = Schema::new().with("S", 2);
        let input = Instance::from_facts(
            sch,
            vec![fact!("S", 1, 2), fact!("S", 2, 3), fact!("S", 3, 4)],
        )
        .unwrap();
        let net = Network::ring(3).unwrap();
        let p = HorizontalPartition::round_robin(&net, &input);
        let out = run(&net, &t, &p, &mut FifoRoundRobin::new(), &budget()).unwrap();
        assert!(out.quiescent);
        assert_eq!(out.output.len(), 6);
        assert!(out.output.contains(&tuple![1, 4]));
        // oblivious: no Id/All anywhere
        assert!(Classification::of(&t).oblivious);
        // T reads S, the grow-only R and itself, so a step evaluates it
        // over the previous step's additions; R reads the messages M.
        let delta: Vec<&str> = t.delta_relations().iter().map(|r| r.as_str()).collect();
        assert_eq!(delta, ["T"]);
    }

    #[test]
    fn ex3_tc_naive_variant_is_fully_monotone() {
        let t = ex3_transitive_closure(false).unwrap();
        let c = Classification::of(&t);
        assert!(c.oblivious && c.inflationary && c.monotone);
    }

    #[test]
    fn ex4_echo_identity_on_two_nodes_empty_on_one() {
        let t = ex4_echo().unwrap();
        let input = input_s1(&[5, 6]);
        // ≥ 2 nodes: identity
        let net2 = Network::line(2).unwrap();
        let p2 = HorizontalPartition::round_robin(&net2, &input);
        let out2 = run(&net2, &t, &p2, &mut FifoRoundRobin::new(), &budget()).unwrap();
        assert!(out2.quiescent);
        assert_eq!(out2.output.len(), 2, "echo computes identity on ≥2 nodes");
        // 1 node: empty query
        let net1 = Network::single();
        let p1 = HorizontalPartition::replicate(&net1, &input);
        let out1 = run(&net1, &t, &p1, &mut FifoRoundRobin::new(), &budget()).unwrap();
        assert!(out1.quiescent);
        assert!(out1.output.is_empty(), "echo outputs nothing on one node");
        // hence: not network-topology independent (different queries!)
        assert_ne!(out1.output, out2.output);
    }

    #[test]
    fn ex9_answers_correctly_on_various_partitions() {
        let t = ex9_ab_nonempty().unwrap();
        let sch = Schema::new().with("A", 1).with("B", 1);
        let both = Instance::from_facts(sch.clone(), vec![fact!("A", 1), fact!("B", 2)]).unwrap();
        let neither = Instance::empty(sch.clone());
        let only_a = Instance::from_facts(sch.clone(), vec![fact!("A", 7)]).unwrap();
        let net = Network::line(2).unwrap();
        for (input, expected) in [(&both, true), (&neither, false), (&only_a, true)] {
            for p in [
                HorizontalPartition::round_robin(&net, input),
                HorizontalPartition::replicate(&net, input),
            ] {
                let out = run(&net, &t, &p, &mut FifoRoundRobin::new(), &budget()).unwrap();
                assert!(out.quiescent);
                assert_eq!(out.output.as_bool(), expected);
            }
        }
        // single-node: direct answer
        let net1 = Network::single();
        let p = HorizontalPartition::replicate(&net1, &both);
        let out = run(&net1, &t, &p, &mut FifoRoundRobin::new(), &budget()).unwrap();
        assert!(out.output.as_bool());
    }

    #[test]
    fn ex9_needs_communication_when_fully_replicated() {
        // the paper's point: with A and B both nonempty at every node, a
        // heartbeat-only run cannot produce the output
        let t = ex9_ab_nonempty().unwrap();
        let sch = Schema::new().with("A", 1).with("B", 1);
        let both = Instance::from_facts(sch, vec![fact!("A", 1), fact!("B", 2)]).unwrap();
        let net = Network::line(2).unwrap();
        let p = HorizontalPartition::replicate(&net, &both);
        let probe = rtx_net::run_heartbeats_only(&net, &t, &p, 30).unwrap();
        assert!(
            probe.output.is_empty(),
            "no output without communication here"
        );
        // …but with a split partition, heartbeats alone suffice
        let frags: std::collections::BTreeMap<_, _> = [
            (
                Value::sym("n0"),
                Instance::from_facts(both.schema().clone(), vec![fact!("A", 1)]).unwrap(),
            ),
            (
                Value::sym("n1"),
                Instance::from_facts(both.schema().clone(), vec![fact!("B", 2)]).unwrap(),
            ),
        ]
        .into_iter()
        .collect();
        let split = HorizontalPartition::new(&net, &both, frags).unwrap();
        let probe2 = rtx_net::run_heartbeats_only(&net, &t, &split, 30).unwrap();
        assert!(
            probe2.output.as_bool(),
            "the right partition needs no communication"
        );
    }

    #[test]
    fn ex10_emptiness_true_only_when_globally_empty() {
        let t = ex10_emptiness().unwrap();
        let net = Network::ring(3).unwrap();
        let empty = input_s1(&[]);
        let p = HorizontalPartition::round_robin(&net, &empty);
        let out = run(&net, &t, &p, &mut FifoRoundRobin::new(), &budget()).unwrap();
        assert!(out.quiescent);
        assert!(
            out.output.as_bool(),
            "S = ∅ certified by full id collection"
        );

        let nonempty = input_s1(&[3]);
        let p = HorizontalPartition::round_robin(&net, &nonempty);
        let out = run(&net, &t, &p, &mut LifoRoundRobin::new(), &budget()).unwrap();
        assert!(out.quiescent);
        assert!(
            !out.output.as_bool(),
            "one S fact anywhere blocks the certificate"
        );
    }

    #[test]
    fn ex10_uses_both_system_relations() {
        let t = ex10_emptiness().unwrap();
        let c = Classification::of(&t);
        assert!(c.system_usage.uses_id);
        assert!(c.system_usage.uses_all);
        assert!(!c.oblivious);
    }

    #[test]
    fn ex15_identity_on_any_topology() {
        let t = ex15_ping().unwrap();
        let input = input_s1(&[1, 2, 3]);
        for net in [
            Network::single(),
            Network::line(2).unwrap(),
            Network::ring(4).unwrap(),
        ] {
            let p = HorizontalPartition::round_robin(&net, &input);
            let out = run(&net, &t, &p, &mut FifoRoundRobin::new(), &budget()).unwrap();
            assert!(out.quiescent);
            assert_eq!(out.output.len(), 3, "identity on {} nodes", net.len());
        }
    }

    #[test]
    fn ex15_uses_all_but_not_id() {
        let t = ex15_ping().unwrap();
        let c = Classification::of(&t);
        assert!(!c.system_usage.uses_id, "Example 15 does not use Id");
        assert!(c.system_usage.uses_all);
    }

    #[test]
    fn ex15_no_output_from_heartbeats_alone_on_multinode() {
        let t = ex15_ping().unwrap();
        let input = input_s1(&[1]);
        let net = Network::line(2).unwrap();
        // whatever the partition — try several
        for p in [
            HorizontalPartition::replicate(&net, &input),
            HorizontalPartition::round_robin(&net, &input),
            HorizontalPartition::concentrate(&net, &input, &Value::sym("n1")).unwrap(),
        ] {
            let probe = rtx_net::run_heartbeats_only(&net, &t, &p, 30).unwrap();
            assert!(
                probe.output.is_empty(),
                "Example 15 requires a ping delivery before any output"
            );
        }
    }

    #[test]
    fn ex2_schema_shape() {
        let t = ex2_first_element().unwrap();
        assert_eq!(t.schema().output_arity(), 1);
        let expected: Relation = Relation::empty(1);
        let _ = expected;
    }
}
