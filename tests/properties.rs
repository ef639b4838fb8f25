//! Property-based tests (proptest) for the core invariants of the
//! reproduction:
//!
//! * genericity of constant-free queries: `Q(h(I)) = h(Q(I))`;
//! * monotonicity of positive programs: `I ⊆ J ⇒ P(I) ⊆ P(J)`;
//! * semi-naive Datalog evaluation, the T_P step, UCQ¬ queries and FO
//!   conjunctive queries ≡ the naive reference semantics (`rtx-ref`)
//!   and nested-loop models;
//! * flooding disseminates to every node of random connected topologies;
//! * distributed TC is consistent across random seeds/partitions;
//! * the transducer update formula's conflict-resolution laws,
//!   `Transducer::step` ≡ the reference step of `rtx-ref`, and so is
//!   every transition of a `Transducer::step_after` sequence;
//! * Theorem 6(5): distributed random positive Datalog programs output
//!   their reference answer under the random scheduler and the round
//!   executor;
//! * Dedalus TM simulation ≡ the direct interpreter on random words, and
//!   `DedalusRuntime::run` ≡ the reference tick loop of `rtx-ref`;
//! * the densely indexed `Network` ≡ a name-keyed adjacency map built
//!   from the same edges, for every generator and `from_edges`, and a
//!   `Configuration` reassembles from its parts in any order.

mod common;

use proptest::prelude::*;
use rtx::calm::constructions::distribute::distribute_monotone;
use rtx::calm::constructions::flood::{flood_transducer, FloodMode};
use rtx::net::{run, Configuration, HorizontalPartition, Network, RandomScheduler, RunBudget};
use rtx::query::{DatalogQuery, Query, QueryRef};
use rtx::relational::{fact, Fact, Instance, Iso, Schema, Tuple, Value};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

fn edge_instance(pairs: &[(u8, u8)]) -> Instance {
    let sch = Schema::new().with("E", 2);
    let mut i = Instance::empty(sch);
    for &(a, b) in pairs {
        i.insert_fact(fact!("E", a as i64, b as i64)).unwrap();
    }
    i
}

/// An instance of `schema` from raw picks `(relation index, a, b)`:
/// each pick names a relation (index modulo the schema size) and the
/// first `arity` of `a, b` are its tuple.
fn random_instance(schema: &Schema, picks: &[(usize, i64, i64)]) -> Instance {
    let rels: Vec<(rtx::relational::RelName, usize)> =
        schema.iter().map(|(n, a)| (n.clone(), a)).collect();
    let mut i = Instance::empty(schema.clone());
    if rels.is_empty() {
        return i;
    }
    for &(r, a, b) in picks {
        let (name, arity) = &rels[r % rels.len()];
        let values = [Value::int(a), Value::int(b)];
        let f = Fact::new(name.clone(), Tuple::new(values[..*arity].to_vec()));
        i.insert_fact(f).unwrap();
    }
    i
}

/// The transducers the step properties run: the conflict and assignment
/// transducers of the update-formula unit tests, the Naive and Dedup
/// floods, Theorem 6(5)'s distributed transitive closure and Example
/// 3's. The last two have memory relations that
/// `Transducer::step_after` evaluates over the previous transition's
/// additions (through a view over `T_P`, and through a UCQ).
fn step_transducers() -> Vec<rtx::transducer::Transducer> {
    use rtx::calm::constructions::datalog_dist::{distribute_datalog, transitive_closure_program};
    use rtx::query::{atom, CqBuilder, EmptyQuery, Term, UcqQuery};
    use rtx::transducer::TransducerBuilder;
    let copy = |rel: &str| -> QueryRef {
        Arc::new(UcqQuery::single(
            CqBuilder::head(vec![Term::var("X")])
                .when(atom!(rel; @"X"))
                .build()
                .unwrap(),
        ))
    };
    let conflict = TransducerBuilder::new("conflict")
        .input_relation("A", 1)
        .input_relation("B", 1)
        .memory_relation("T", 1)
        .output_arity(0)
        .insert("T", copy("A"))
        .delete("T", copy("B"))
        .output(Arc::new(EmptyQuery::new(0)))
        .build()
        .unwrap();
    let assign = TransducerBuilder::new("assign")
        .input_relation("A", 1)
        .memory_relation("T", 1)
        .output_arity(0)
        .insert("T", copy("A"))
        .delete("T", copy("T"))
        .output(Arc::new(EmptyQuery::new(0)))
        .build()
        .unwrap();
    let s = Schema::new().with("S", 1);
    vec![
        conflict,
        assign,
        flood_transducer(&s, FloodMode::Naive, None).unwrap(),
        flood_transducer(&s, FloodMode::Dedup, None).unwrap(),
        distribute_datalog(&transitive_closure_program(), &"T".into(), FloodMode::Dedup).unwrap(),
        rtx::calm::examples::ex3_transitive_closure(true).unwrap(),
    ]
}

fn tc_query() -> DatalogQuery {
    let p =
        rtx::query::parser::parse_program("T(X,Y) :- E(X,Y). T(X,Z) :- T(X,Y), E(Y,Z).").unwrap();
    DatalogQuery::new(p, "T").unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn genericity_of_tc(pairs in proptest::collection::vec((0u8..8, 0u8..8), 0..10),
                        perm_seed in 0u64..1000) {
        use rand::SeedableRng;
        let i = edge_instance(&pairs);
        let q = tc_query();
        let mut rng = rand::rngs::StdRng::seed_from_u64(perm_seed);
        let iso = rtx::calm::analysis::random_adom_permutation(&i, &mut rng);
        let lhs = q.eval(&iso.apply_instance(&i)).unwrap();
        let rhs = iso.apply_relation(&q.eval(&i).unwrap());
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn genericity_under_fresh_renaming(pairs in proptest::collection::vec((0u8..8, 0u8..8), 0..10)) {
        let i = edge_instance(&pairs);
        let q = tc_query();
        let iso = rtx::calm::analysis::fresh_renaming(&i, 99);
        let lhs = q.eval(&iso.apply_instance(&i)).unwrap();
        let rhs = iso.apply_relation(&q.eval(&i).unwrap());
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn monotonicity_of_positive_datalog(pairs in proptest::collection::vec((0u8..6, 0u8..6), 0..12),
                                        keep in proptest::collection::vec(any::<bool>(), 12)) {
        let big = edge_instance(&pairs);
        let mut small = Instance::empty(big.schema().clone());
        for (i, f) in big.facts().enumerate() {
            if *keep.get(i).unwrap_or(&false) {
                small.insert_fact(f).unwrap();
            }
        }
        let q = tc_query();
        let small_out = q.eval(&small).unwrap();
        let big_out = q.eval(&big).unwrap();
        prop_assert!(small_out.is_subset(&big_out));
    }

    /// The engine's semi-naive closure equals the reference's naive
    /// fixpoint.
    #[test]
    fn naive_equals_seminaive(pairs in proptest::collection::vec((0u8..7, 0u8..7), 0..14)) {
        let i = edge_instance(&pairs);
        let q = tc_query();
        let semi: BTreeSet<Tuple> = q.eval(&i).unwrap().iter().cloned().collect();
        let naive: BTreeSet<Tuple> = rtx_ref::eval(q.program(), &i)
            .into_iter()
            .filter(|f| f.rel().as_str() == "T")
            .map(|f| f.tuple().clone())
            .collect();
        prop_assert_eq!(semi, naive);
    }

    #[test]
    fn flooding_reaches_all_nodes(values in proptest::collection::btree_set(0i64..40, 1..6),
                                  nodes in 2usize..6,
                                  topo_seed in 0u64..500,
                                  sched_seed in 0u64..500) {
        use rand::SeedableRng;
        let sch = Schema::new().with("S", 1);
        let facts: Vec<Fact> = values.iter().map(|&v| fact!("S", v)).collect();
        let input = Instance::from_facts(sch.clone(), facts).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(topo_seed);
        let net = Network::random_connected(nodes, 0.25, &mut rng).unwrap();
        let t = flood_transducer(&sch, FloodMode::Dedup, None).unwrap();
        let p = HorizontalPartition::random(&net, &input, 0.1, &mut rng);
        let out = run(&net, &t, &p, &mut RandomScheduler::seeded(sched_seed),
                      &RunBudget::steps(500_000)).unwrap();
        prop_assert!(out.quiescent);
        for n in net.nodes() {
            let st = out.final_config.state(n).unwrap();
            let store = st.relation(&"Store_S".into()).unwrap();
            prop_assert_eq!(store.len(), values.len(), "node {} incomplete", n);
        }
    }

    #[test]
    fn distributed_tc_consistent_across_everything(
        pairs in proptest::collection::vec((0u8..5, 0u8..5), 1..8),
        seed_a in 0u64..300, seed_b in 300u64..600) {
        let input = edge_instance(&pairs);
        let q: QueryRef = Arc::new(tc_query());
        let expected = q.eval(&input).unwrap();
        let t = distribute_monotone(q, input.schema(), FloodMode::Dedup).unwrap();
        let net = Network::ring(3).unwrap();
        for (seed, partition) in [
            (seed_a, HorizontalPartition::round_robin(&net, &input)),
            (seed_b, HorizontalPartition::replicate(&net, &input)),
        ] {
            let out = run(&net, &t, &partition, &mut RandomScheduler::seeded(seed),
                          &RunBudget::steps(500_000)).unwrap();
            prop_assert!(out.quiescent);
            prop_assert_eq!(out.output.clone(), expected.clone());
        }
    }

    #[test]
    fn update_formula_laws(ins in proptest::collection::btree_set(0i64..10, 0..6),
                           del in proptest::collection::btree_set(0i64..10, 0..6),
                           cur in proptest::collection::btree_set(0i64..10, 0..6)) {
        // J(R) = (ins∖del) ∪ (ins∩del∩cur) ∪ (cur∖(ins∪del)) — element-wise:
        // x ∈ J ⟺ (x∈ins ∧ x∉del) ∨ (x∈ins ∧ x∈del ∧ x∈cur) ∨ (x∈cur ∧ x∉ins ∧ x∉del)
        use rtx::query::{NativeQuery, QueryRef};
        use rtx::relational::{Relation, Tuple};
        let mk = |s: &std::collections::BTreeSet<i64>| {
            Relation::from_tuples(1, s.iter().map(|&v| Tuple::new(vec![Value::int(v)])).collect::<Vec<_>>()).unwrap()
        };
        let ins_rel = mk(&ins);
        let del_rel = mk(&del);
        let ins_q: QueryRef = {
            let r = ins_rel.clone();
            Arc::new(NativeQuery::new("ins", 1, [rtx::relational::RelName::new("A")], move |_| Ok(r.clone())))
        };
        let del_q: QueryRef = {
            let r = del_rel.clone();
            Arc::new(NativeQuery::new("del", 1, [rtx::relational::RelName::new("A")], move |_| Ok(r.clone())))
        };
        let t = rtx::transducer::TransducerBuilder::new("law")
            .input_relation("A", 1)
            .memory_relation("T", 1)
            .insert("T", ins_q)
            .delete("T", del_q)
            .build().unwrap();
        let input = Instance::empty(Schema::new().with("A", 1));
        let nodes: std::collections::BTreeSet<Value> = [Value::sym("n")].into();
        let mut state = t.schema().initial_state(&input, &Value::sym("n"), &nodes).unwrap();
        state.set_relation("T", mk(&cur)).unwrap();
        let res = t.heartbeat(&state).unwrap();
        let j = res.new_state.relation(&"T".into()).unwrap();
        for x in 0i64..10 {
            let expected = (ins.contains(&x) && !del.contains(&x))
                || (ins.contains(&x) && del.contains(&x) && cur.contains(&x))
                || (cur.contains(&x) && !ins.contains(&x) && !del.contains(&x));
            let tuple = rtx::relational::Tuple::new(vec![Value::int(x)]);
            prop_assert_eq!(j.contains(&tuple), expected, "element {}", x);
        }
    }

    #[test]
    fn iso_roundtrip(pairs in proptest::collection::vec((0u8..10, 0u8..10), 0..12),
                     seed in 0u64..100) {
        use rand::SeedableRng;
        let i = edge_instance(&pairs);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let iso = rtx::calm::analysis::random_adom_permutation(&i, &mut rng);
        let back = iso.inverse().apply_instance(&iso.apply_instance(&i));
        prop_assert_eq!(back, i);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `Transducer::step` computes the reference step of `rtx-ref` —
    /// `I'` as a fact-set union, the update formula term by term — on
    /// random states and messages, and `state_changed` says exactly
    /// whether `J ≠ I`. `nodes` puts `All` on either side of the
    /// storage regimes; `pad` selects a memory relation to carry past
    /// the hysteresis floor into the runs regime (0: none).
    #[test]
    fn transducer_step_matches_the_reference_step(
        input in proptest::collection::vec((0usize..4, 0i64..5, 0i64..5), 0..10),
        memory in proptest::collection::vec((0usize..4, 0i64..5, 0i64..5), 0..10),
        received in proptest::collection::vec((0usize..4, 0i64..5, 0i64..5), 0..3),
        nodes in 1usize..80,
        pad in 0usize..3,
    ) {
        use rtx::relational::{Relation, REENTRY_LEN};
        let all: BTreeSet<Value> = (0..nodes).map(|i| Value::sym(format!("n{i}"))).collect();
        for t in step_transducers() {
            let sch = t.schema();
            let local = random_instance(sch.input(), &input);
            let mut state = sch.initial_state(&local, &Value::sym("n0"), &all).unwrap();
            for f in random_instance(sch.memory(), &memory).facts() {
                state.insert_fact(f).unwrap();
            }
            let mem: Vec<_> = sch.memory().iter().map(|(n, a)| (n.clone(), a)).collect();
            if pad > 0 && !mem.is_empty() {
                let (name, arity) = &mem[(pad - 1) % mem.len()];
                let ballast = (0..=REENTRY_LEN as i64)
                    .map(|i| Tuple::new(vec![Value::int(100 + i); *arity]));
                let cur = state.relation(name).unwrap();
                let padded = Relation::from_tuples(*arity, cur.iter().cloned().chain(ballast)).unwrap();
                state.set_relation(name.clone(), padded).unwrap();
            }
            let rcv = random_instance(sch.message(), &received);

            let got = t.step(&state, &rcv).unwrap();
            let want = rtx_ref::transducer_step(&t, &state, &rcv);
            prop_assert_eq!(got.new_state.facts().collect::<BTreeSet<_>>(), want.new_state.clone(), "{}", t.name());
            prop_assert_eq!(got.sent.facts().collect::<BTreeSet<_>>(), want.sent, "{}", t.name());
            prop_assert_eq!(got.output.iter().cloned().collect::<BTreeSet<_>>(), want.output, "{}", t.name());
            prop_assert_eq!(got.new_state.schema(), state.schema());
            prop_assert_eq!(got.state_changed, got.new_state != state, "{}", t.name());
            prop_assert_eq!(got.state_changed, want.new_state != state.facts().collect(), "{}", t.name());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sequences of up to 12 transitions — heartbeats, deliveries of
    /// random messages, and memory wipes — from a random state: every
    /// transition goes through `Transducer::step_after` with the
    /// `Added` its predecessor reported, and computes the reference
    /// step of `rtx-ref` on the same state. A second state is stepped
    /// through `Transducer::step_in_place` with its own `Added`, never
    /// cloned between transitions, and must stay equal to both, with
    /// the same sends, output, `state_changed` and `Added`. A wipe (a
    /// crash restart under the persistent-EDB semantics) clears the
    /// memory relations and drops the `Added`, as the executors do.
    /// Built with `debug_assertions`, `step_after` also checks each
    /// delta evaluation against the full one.
    #[test]
    fn transducer_step_sequences_match_the_reference_step(
        input in proptest::collection::vec((0usize..4, 0i64..5, 0i64..5), 0..10),
        memory in proptest::collection::vec((0usize..4, 0i64..5, 0i64..5), 0..6),
        moves in proptest::collection::vec((0u8..8, 0usize..4, 0i64..5, 0i64..5), 1..13),
    ) {
        use rtx::relational::Relation;
        let all: BTreeSet<Value> = [Value::sym("n0"), Value::sym("n1")].into();
        for t in step_transducers() {
            let sch = t.schema();
            let local = random_instance(sch.input(), &input);
            let mut state = sch.initial_state(&local, &Value::sym("n0"), &all).unwrap();
            for f in random_instance(sch.memory(), &memory).facts() {
                state.insert_fact(f).unwrap();
            }
            let mut in_place = state.clone();
            let mut prev: Option<rtx::transducer::Added> = None;
            let mut prev_in_place: Option<rtx::transducer::Added> = None;
            for &(kind, r, a, b) in &moves {
                if kind == 0 {
                    for (name, arity) in sch.memory().iter() {
                        state.set_relation(name.clone(), Relation::empty(arity)).unwrap();
                        in_place.set_relation(name.clone(), Relation::empty(arity)).unwrap();
                    }
                    prev = None;
                    prev_in_place = None;
                    continue;
                }
                let rcv = match kind {
                    1..=3 => Instance::empty(sch.message().clone()),
                    _ => random_instance(sch.message(), &[(r, a, b)]),
                };
                let got = t.step_after(&state, &rcv, prev.as_ref()).unwrap();
                let want = rtx_ref::transducer_step(&t, &state, &rcv);
                let effects = t.step_in_place(&mut in_place, &rcv, prev_in_place.as_ref()).unwrap();
                prop_assert_eq!(in_place.facts().collect::<BTreeSet<_>>(), want.new_state.clone(), "{}", t.name());
                prop_assert_eq!(got.new_state.facts().collect::<BTreeSet<_>>(), want.new_state, "{}", t.name());
                prop_assert_eq!(got.sent.facts().collect::<BTreeSet<_>>(), want.sent, "{}", t.name());
                prop_assert_eq!(got.output.iter().cloned().collect::<BTreeSet<_>>(), want.output, "{}", t.name());
                prop_assert_eq!(got.state_changed, got.new_state != state, "{}", t.name());
                prop_assert_eq!(got.added.is_some(), !t.delta_relations().is_empty(), "{}", t.name());
                prop_assert_eq!(&in_place, &got.new_state, "{}", t.name());
                prop_assert_eq!(&effects.sent, &got.sent, "{}", t.name());
                prop_assert_eq!(&effects.output, &got.output, "{}", t.name());
                prop_assert_eq!(effects.state_changed, got.state_changed, "{}", t.name());
                prop_assert_eq!(&effects.added, &got.added, "{}", t.name());
                state = got.new_state;
                prev = got.added;
                prev_in_place = effects.added;
            }
        }
    }
}

proptest! {
    // About a fifth of the (program, answer) pairs have a nonempty
    // answer (27 of 142 at the default seed): a random body often needs
    // an IDB fact that no rule seeds.
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Theorem 6(5) on random programs: a negation-free program (a
    /// random stratified one with its negated literals dropped) is
    /// distributed by `distribute_datalog` over a random connected
    /// network and a random partition, and every quiescent run — the
    /// random scheduler's, and the round executor's on one thread and
    /// on two — outputs the program's answer, the reference fixpoint's
    /// facts of the answer predicate.
    #[test]
    fn theorem6_5_distributes_random_positive_programs(
        prog_seed in 0u64..1000,
        n_rules in 1usize..5,
        pairs in proptest::collection::vec((0u8..5, 0u8..5), 0..8),
        singles in proptest::collection::vec(0i64..5, 0..4),
        network in (2usize..5, 0u64..500, 0u64..500),
    ) {
        use rand::SeedableRng;
        use rtx::calm::constructions::datalog_dist::distribute_datalog;
        use rtx::net::{run_sharded, ShardOptions};
        use rtx::query::{Literal, Program, Rule};
        let (nodes, topo_seed, sched_seed) = network;
        let stratified = random_program(prog_seed, n_rules);
        let rules = stratified.rules().iter().map(|r| {
            let body = r.body().iter().filter(|l| !matches!(l, Literal::Neg(_))).cloned().collect();
            Rule::new(r.head().clone(), body).unwrap()
        });
        let program = Program::new(rules.collect()).unwrap();
        let edb: Schema = program.edb_predicates().into_iter()
            .map(|r| { let a = program.signature().arity(&r).unwrap(); (r, a) })
            .collect();
        let mut input = Instance::empty(edb.clone());
        for f in random_db(&pairs, &singles).facts().filter(|f| edb.contains(f.rel())) {
            input.insert_fact(f).unwrap();
        }
        let fixpoint = rtx_ref::eval(&program, &input);
        let mut rng = rand::rngs::StdRng::seed_from_u64(topo_seed);
        let net = Network::random_connected(nodes, 0.25, &mut rng).unwrap();
        let partition = HorizontalPartition::random(&net, &input, 0.1, &mut rng);
        let budget = RunBudget::steps(500_000);
        for answer in program.idb_predicates() {
            let t = distribute_datalog(&program, answer, FloodMode::Dedup).unwrap();
            let want: BTreeSet<Tuple> = fixpoint.iter()
                .filter(|f| f.rel() == answer)
                .map(|f| f.tuple().clone())
                .collect();
            let out = run(&net, &t, &partition, &mut RandomScheduler::seeded(sched_seed), &budget).unwrap();
            prop_assert!(out.quiescent);
            prop_assert_eq!(out.output.iter().cloned().collect::<BTreeSet<_>>(), want.clone(), "{:?} → {}", program, answer);
            for opts in [ShardOptions::serial(), ShardOptions::sharded(2)] {
                let out = run_sharded(&net, &t, &partition, &opts, &budget).unwrap().outcome;
                prop_assert!(out.quiescent);
                prop_assert_eq!(out.output.iter().cloned().collect::<BTreeSet<_>>(), want.clone(), "{:?} → {} at {} threads", program, answer, opts.threads);
            }
        }
    }
}

proptest! {
    // the TM cross-validation is slower: fewer cases
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn dedalus_tm_matches_interpreter_on_random_words(
        word in proptest::collection::vec(prop_oneof![Just('a'), Just('b')], 2..6)) {
        use rtx::dedalus::{simulate_word, DedalusOptions, InputSchedule};
        let w: String = word.into_iter().collect();
        let opts = DedalusOptions { max_ticks: 2000, async_max_delay: 1, seed: 0, async_faults: None };
        for m in [rtx::machine::machines::even_as(), rtx::machine::machines::contains_ab()] {
            let direct = m.run(&w, 1_000_000).unwrap().accepted();
            let sim = simulate_word(&m, &w, InputSchedule::AllAtZero, &opts).unwrap();
            prop_assert!(sim.converged_at.is_some());
            prop_assert_eq!(direct, sim.accepted, "machine {} word {}", m.name(), w);
        }
    }

    #[test]
    fn theorem12_empirically_coordination_free_implies_monotone(
        pairs in proptest::collection::vec((0u8..4, 0u8..4), 1..5),
        extra in proptest::collection::vec((4u8..6, 4u8..6), 0..3)) {
        // the TC transducer is coordination-free; its computed query must
        // be monotone on random I ⊆ J
        let small_pairs = pairs.clone();
        let mut big_pairs = pairs;
        big_pairs.extend(extra);
        // rename E→S to match ex3's input schema
        let mk = |ps: &[(u8, u8)]| {
            let sch = Schema::new().with("S", 2);
            let mut i = Instance::empty(sch);
            for &(a, b) in ps {
                i.insert_fact(fact!("S", a as i64, b as i64)).unwrap();
            }
            i
        };
        let small = mk(&small_pairs);
        let big = mk(&big_pairs);
        let t = rtx::calm::examples::ex3_transitive_closure(true).unwrap();
        let net = Network::line(2).unwrap();
        let budget = RunBudget::steps(500_000);
        let out_small = run(&net, &t, &HorizontalPartition::round_robin(&net, &small),
                            &mut RandomScheduler::seeded(1), &budget).unwrap();
        let out_big = run(&net, &t, &HorizontalPartition::round_robin(&net, &big),
                          &mut RandomScheduler::seeded(2), &budget).unwrap();
        prop_assert!(out_small.quiescent && out_big.quiescent);
        prop_assert!(out_small.output.is_subset(&out_big.output));
    }
}

/// A random stratified Datalog program over EDB {E/2, S/1} and IDB
/// {T/2, U/1}: safe by construction (head/negated/nonequality variables
/// drawn from positive body variables, negation only on EDB).
fn random_program(seed: u64, n_rules: usize) -> rtx::query::Program {
    use rand::{Rng, SeedableRng};
    use rtx::query::{Atom, Literal, Program, Rule, Term, Var};
    const VARS: [&str; 4] = ["X", "Y", "Z", "W"];
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut rules = Vec::new();
    for _ in 0..n_rules.max(1) {
        let n_body = rng.gen_range(1usize..=3);
        let mut body = Vec::new();
        let mut body_vars: Vec<Var> = Vec::new();
        for _ in 0..n_body {
            let (pred, arity) = match rng.gen_range(0usize..4) {
                0 => ("E", 2),
                1 => ("S", 1),
                2 => ("T", 2),
                _ => ("U", 1),
            };
            let terms: Vec<Term> = (0..arity)
                .map(|_| {
                    let v = VARS[rng.gen_range(0usize..VARS.len())];
                    body_vars.push(Var::new(v));
                    Term::var(v)
                })
                .collect();
            body.push(Literal::Pos(Atom::new(pred, terms)));
        }
        let pick = |rng: &mut rand::rngs::StdRng, vars: &[Var]| -> Var {
            vars[rng.gen_range(0usize..vars.len())]
        };
        if rng.gen_range(0usize..3) == 0 {
            let v = pick(&mut rng, &body_vars);
            body.push(Literal::Neg(Atom::new("S", vec![Term::Var(v)])));
        }
        if rng.gen_range(0usize..3) == 0 {
            let a = pick(&mut rng, &body_vars);
            let b = pick(&mut rng, &body_vars);
            body.push(Literal::Diseq(Term::Var(a), Term::Var(b)));
        }
        let (head_pred, head_arity) = if rng.gen_range(0usize..2) == 0 {
            ("T", 2)
        } else {
            ("U", 1)
        };
        let head_terms: Vec<Term> = (0..head_arity)
            .map(|_| Term::Var(pick(&mut rng, &body_vars)))
            .collect();
        rules
            .push(Rule::new(Atom::new(head_pred, head_terms), body).expect("safe by construction"));
    }
    Program::new(rules).expect("consistent arities by construction")
}

fn random_db(pairs: &[(u8, u8)], singles: &[i64]) -> Instance {
    let sch = Schema::new().with("E", 2).with("S", 1);
    let mut db = Instance::empty(sch);
    for &(a, b) in pairs {
        db.insert_fact(fact!("E", a as i64, b as i64)).unwrap();
    }
    for &v in singles {
        db.insert_fact(fact!("S", v)).unwrap();
    }
    db
}

/// A random UCQ¬ over {E/2, S/1, D/1} of 1–3 rules, safe by
/// construction: atoms mix variables (repeats included) with
/// constants; negated atoms, nonequalities and heads use variables the
/// positive atoms bind and constants, head constants lying inside or
/// outside the active domain.
fn random_ucq(seed: u64) -> rtx::query::UcqQuery {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rtx::query::{Atom, CqBuilder, Term, UcqQuery, Var};
    const VARS: [&str; 3] = ["X", "Y", "Z"];
    const RELS: [(&str, usize); 3] = [("E", 2), ("S", 1), ("D", 1)];
    fn term(rng: &mut StdRng, bound: &[Var], consts: &[i64]) -> Term {
        if bound.is_empty() || rng.gen_range(0usize..3) == 0 {
            Term::cons(consts[rng.gen_range(0usize..consts.len())])
        } else {
            Term::Var(bound[rng.gen_range(0usize..bound.len())])
        }
    }
    fn atom(rng: &mut StdRng, terms: impl FnMut(&mut StdRng) -> Term) -> Atom {
        let (rel, arity) = RELS[rng.gen_range(0usize..RELS.len())];
        let mut terms = terms;
        Atom::new(rel, (0..arity).map(|_| terms(rng)).collect())
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let arity = rng.gen_range(0usize..=2);
    let mut rules = Vec::new();
    for _ in 0..rng.gen_range(1usize..=3) {
        let mut bound: Vec<Var> = Vec::new();
        let mut pos = Vec::new();
        for _ in 0..rng.gen_range(1usize..=3) {
            pos.push(atom(&mut rng, |rng| {
                if rng.gen_range(0usize..4) == 0 {
                    Term::cons(rng.gen_range(0i64..8))
                } else {
                    let v = Var::new(VARS[rng.gen_range(0usize..VARS.len())]);
                    bound.push(v);
                    Term::Var(v)
                }
            }));
        }
        let values = [0, 1, 2, 3, 4, 5, 6, 7];
        let mut neg = Vec::new();
        if rng.gen_range(0usize..2) == 0 {
            neg.push(atom(&mut rng, |rng| term(rng, &bound, &values)));
        }
        let mut diseq = Vec::new();
        if rng.gen_range(0usize..3) == 0 {
            let x = term(&mut rng, &bound, &values);
            diseq.push((x, term(&mut rng, &bound, &values)));
        }
        // 99 is never in the active domain.
        let head = (0..arity)
            .map(|_| term(&mut rng, &bound, &[0, 5, 99]))
            .collect();
        let rule = pos.into_iter().fold(CqBuilder::head(head), CqBuilder::when);
        let rule = neg.into_iter().fold(rule, CqBuilder::unless);
        let rule = diseq.into_iter().fold(rule, |r, (x, y)| r.distinct(x, y));
        rules.push(rule.build().expect("safe by construction"));
    }
    UcqQuery::new(arity, rules).expect("one head arity")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// UCQ¬ rules run on the shared body join; the reference fires them
    /// by nested loops. E reaches past the executor's scan threshold, so
    /// both of its access paths run; D is declared and often empty.
    #[test]
    fn ucq_matches_the_reference(
        seed in 0u64..1_000_000,
        pairs in proptest::collection::vec((0u8..8, 0u8..8), 0..40),
        singles in proptest::collection::btree_set(0i64..8, 0..5),
        ds in proptest::collection::btree_set(0i64..8, 0..3)) {
        let q = random_ucq(seed);
        let sch = Schema::new().with("E", 2).with("S", 1).with("D", 1);
        let mut db = random_db(&pairs, &singles.iter().copied().collect::<Vec<_>>())
            .widen(sch)
            .unwrap();
        for &d in &ds {
            db.insert_fact(fact!("D", d)).unwrap();
        }
        let got: BTreeSet<Tuple> = q.eval(&db).unwrap().iter().cloned().collect();
        prop_assert_eq!(got, rtx_ref::ucq(&q, &db), "{:?}", q);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The tentpole equivalence: planned, index-probing joins in the
    /// semi-naive fixpoint compute exactly what the reference's
    /// literal-order nested-loop scans compute in its naive fixpoint,
    /// on random stratified programs and random instances — and so
    /// does one T_P step.
    #[test]
    fn indexed_join_equals_scan_join(
        prog_seed in 0u64..10_000,
        n_rules in 1usize..6,
        pairs in proptest::collection::vec((0u8..6, 0u8..6), 0..14),
        singles in proptest::collection::btree_set(0i64..6, 0..5)) {
        let p = random_program(prog_seed, n_rules);
        let db = random_db(&pairs, &singles.iter().copied().collect::<Vec<_>>());
        let indexed: BTreeSet<Fact> = p.eval(&db).unwrap().facts().collect();
        prop_assert_eq!(indexed, rtx_ref::eval(&p, &db));
        let step: BTreeSet<Fact> = p.tp_step(&db).unwrap().facts().collect();
        prop_assert_eq!(step, rtx_ref::tp_step(&p, &db));
    }

    /// FO's one-rule case: the indexed two-hop conjunctive query over
    /// random edges equals a nested-loop scan over the edge set.
    #[test]
    fn fo_indexed_equals_scan(pairs in proptest::collection::vec((0u8..8, 0u8..8), 0..16)) {
        use rtx::query::{atom, FoQuery, Formula};
        let db = random_db(&pairs, &[]);
        let q = FoQuery::new(
            ["X", "Z"],
            Formula::exists(["Y"], Formula::and([
                Formula::atom(atom!("E"; @"X", @"Y")),
                Formula::atom(atom!("E"; @"Y", @"Z")),
            ])),
        ).unwrap();
        let indexed: BTreeSet<Tuple> = q.eval(&db).unwrap().iter().cloned().collect();
        let edges: BTreeSet<(u8, u8)> = pairs.iter().copied().collect();
        let mut scan: BTreeSet<Tuple> = BTreeSet::new();
        for &(x, y) in &edges {
            for &(y2, z) in &edges {
                if y == y2 {
                    scan.insert(vec![Value::Int(x as i64), Value::Int(z as i64)].into());
                }
            }
        }
        prop_assert_eq!(indexed, scan);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `DedalusRuntime::run` replays the reference tick loop
    /// (`rtx_ref::dedalus`) tick for tick, convergence tick included, on
    /// random temporal instances, under the plain seeded async draw and
    /// under a widening, duplicating `AsyncFaultPlan`. The program runs
    /// as given — no deductive rule names the time variable, so the
    /// runtime maintains its fixpoint across ticks — and with a
    /// time-entangled deductive rule added, which the runtime
    /// re-translates every tick: `stamp` records the tick at which each
    /// edge first arrives.
    #[test]
    fn dedalus_delta_store_equals_clone_store(
        pairs in proptest::collection::vec((0u8..5, 0u8..5), 1..8),
        spread in 0u64..4,
        run_seed in 0u64..500) {
        use rtx::dedalus::{AsyncFaultPlan, DRule, DTime, DedalusOptions, DedalusProgram};
        use rtx::query::atom;
        let rules = vec![
            DRule::persist("e", 2),
            DRule::persist("got", 1),
            DRule::new(atom!("t"; @"X", @"Y"), DTime::Same).when(atom!("e"; @"X", @"Y")),
            DRule::new(atom!("t"; @"X", @"Z"), DTime::Same)
                .when(atom!("t"; @"X", @"Y"))
                .when(atom!("e"; @"Y", @"Z")),
            DRule::new(atom!("m"; @"X"), DTime::Async).when(atom!("e"; @"X", @"X")),
            DRule::new(atom!("got"; @"X"), DTime::Same).when(atom!("m"; @"X")),
        ];
        let mut entangled = rules.clone();
        entangled.push(DRule::new(atom!("old"; @"X", @"Y"), DTime::Next).when(atom!("e"; @"X", @"Y")));
        entangled.push(
            DRule::new(atom!("stamp"; @"X", @"Y", @"T"), DTime::Same)
                .when(atom!("e"; @"X", @"Y"))
                .unless(atom!("old"; @"X", @"Y"))
                .with_time_var("T"),
        );
        let arrivals: Vec<(u64, Fact)> = pairs
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| ((i as u64) % (spread + 1), fact!("e", a as i64, b as i64)))
            .collect();
        let plain = DedalusOptions { max_ticks: 60, async_max_delay: 3, seed: run_seed, async_faults: None };
        let faulted = DedalusOptions {
            async_faults: Some(AsyncFaultPlan { seed: run_seed, extra_delay: (0, 2), dup_millis: 500 }),
            ..plain.clone()
        };
        for rules in [rules, entangled] {
            let p = DedalusProgram::new(rules).unwrap();
            for opts in [&plain, &faulted] {
                let (runtime, reference) = common::runtime_and_reference(&p, &arrivals, opts);
                prop_assert_eq!(runtime.converged_at, reference.converged_at);
                prop_assert_eq!(runtime.ticks, reference.ticks);
            }
        }
    }
}

#[test]
fn iso_with_explicit_pairs_sanity() {
    // non-proptest companion: a concrete renaming round trip
    let i = edge_instance(&[(1, 2), (2, 3)]);
    let iso = Iso::from_pairs(vec![
        (Value::int(1), Value::int(2)),
        (Value::int(2), Value::int(3)),
        (Value::int(3), Value::int(1)),
    ])
    .unwrap();
    let j = iso.apply_instance(&i);
    assert!(j.contains_fact(&fact!("E", 2, 3)));
    assert!(j.contains_fact(&fact!("E", 3, 1)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Cross-engine validation: a conjunctive query evaluated by the
    /// join-based UCQ engine and by the FO engine (as ∃-formula) agree.
    #[test]
    fn fo_and_ucq_engines_agree_on_conjunctive_queries(
        pairs in proptest::collection::vec((0u8..6, 0u8..6), 0..10),
        singles in proptest::collection::btree_set(0i64..6, 0..5)) {
        use rtx::query::{atom, CqBuilder, Formula, FoQuery, Term, UcqQuery};
        let sch = Schema::new().with("E", 2).with("S", 1);
        let mut db = Instance::empty(sch);
        for &(a, b) in &pairs {
            db.insert_fact(fact!("E", a as i64, b as i64)).unwrap();
        }
        for &v in &singles {
            db.insert_fact(fact!("S", v)).unwrap();
        }
        // Q(X,Z) ← E(X,Y), E(Y,Z), S(X)
        let cq = UcqQuery::single(
            CqBuilder::head(vec![Term::var("X"), Term::var("Z")])
                .when(atom!("E"; @"X", @"Y"))
                .when(atom!("E"; @"Y", @"Z"))
                .when(atom!("S"; @"X"))
                .build()
                .unwrap(),
        );
        let fo = FoQuery::new(
            ["X", "Z"],
            Formula::exists(
                ["Y"],
                Formula::and([
                    Formula::atom(atom!("E"; @"X", @"Y")),
                    Formula::atom(atom!("E"; @"Y", @"Z")),
                    Formula::atom(atom!("S"; @"X")),
                ]),
            ),
        )
        .unwrap();
        prop_assert_eq!(cq.eval(&db).unwrap(), fo.eval(&db).unwrap());
    }

    /// The same cross-check with safe negation.
    #[test]
    fn fo_and_ucq_engines_agree_with_negation(
        pairs in proptest::collection::vec((0u8..5, 0u8..5), 0..10),
        singles in proptest::collection::btree_set(0i64..5, 0..4)) {
        use rtx::query::{atom, CqBuilder, Formula, FoQuery, Term, UcqQuery};
        let sch = Schema::new().with("E", 2).with("S", 1);
        let mut db = Instance::empty(sch);
        for &(a, b) in &pairs {
            db.insert_fact(fact!("E", a as i64, b as i64)).unwrap();
        }
        for &v in &singles {
            db.insert_fact(fact!("S", v)).unwrap();
        }
        // Q(X,Y) ← E(X,Y), ¬S(X), X ≠ Y
        let cq = UcqQuery::single(
            CqBuilder::head(vec![Term::var("X"), Term::var("Y")])
                .when(atom!("E"; @"X", @"Y"))
                .unless(atom!("S"; @"X"))
                .distinct(Term::var("X"), Term::var("Y"))
                .build()
                .unwrap(),
        );
        let fo = FoQuery::new(
            ["X", "Y"],
            Formula::and([
                Formula::atom(atom!("E"; @"X", @"Y")),
                Formula::not(Formula::atom(atom!("S"; @"X"))),
                Formula::neq(Term::var("X"), Term::var("Y")),
            ]),
        )
        .unwrap();
        prop_assert_eq!(cq.eval(&db).unwrap(), fo.eval(&db).unwrap());
    }
}

/// A random FO query over E/2, S/1 and the nullary B. Formulas nest
/// `∀` and `∃` over one or two of three variable names, so quantifiers
/// often shadow, with `¬`, `∧` and `∨` (empty ones too), `true`,
/// `false`, `=` and `≠`; a term is a constant 0–4 or a variable. The
/// head lists the free variables in random order, at times with a
/// variable absent from the formula or a repeated one; a closed
/// formula is a sentence.
fn random_fo(rng: &mut rand::rngs::StdRng) -> rtx::query::FoQuery {
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::Rng;
    use rtx::query::{Atom, FoQuery, Formula, Term, Var};
    const VARS: [&str; 3] = ["X", "Y", "Z"];
    fn term(rng: &mut StdRng) -> Term {
        if rng.gen_range(0usize..4) == 0 {
            Term::cons(rng.gen_range(0i64..5))
        } else {
            Term::var(VARS[rng.gen_range(0usize..VARS.len())])
        }
    }
    fn formula(rng: &mut StdRng, depth: usize) -> Formula {
        if depth == 0 || rng.gen_range(0usize..3) == 0 {
            return match rng.gen_range(0usize..10) {
                0..=2 => Formula::atom(Atom::new("E", vec![term(rng), term(rng)])),
                3 | 4 => Formula::atom(Atom::new("S", vec![term(rng)])),
                5 => Formula::atom(Atom::new("B", vec![])),
                6 => Formula::eq(term(rng), term(rng)),
                7 => Formula::neq(term(rng), term(rng)),
                8 => Formula::True,
                _ => Formula::False,
            };
        }
        let sub = |rng: &mut StdRng| formula(rng, depth - 1);
        let n = rng.gen_range(0usize..=3);
        let vars: Vec<&str> = (0..rng.gen_range(1usize..=2))
            .map(|_| VARS[rng.gen_range(0usize..VARS.len())])
            .collect();
        match rng.gen_range(0usize..6) {
            0 => Formula::not(sub(rng)),
            1 => Formula::and((0..n).map(|_| sub(rng)).collect::<Vec<_>>()),
            2 => Formula::or((0..n).map(|_| sub(rng)).collect::<Vec<_>>()),
            3 | 4 => Formula::exists(vars, sub(rng)),
            _ => Formula::forall(vars, sub(rng)),
        }
    }
    let f = formula(rng, 3);
    let mut head: Vec<Var> = f.free_vars().into_iter().collect();
    if rng.gen_range(0usize..4) == 0 {
        head.push(Var::new("W"));
    }
    if !head.is_empty() && rng.gen_range(0usize..4) == 0 {
        head.push(head[rng.gen_range(0usize..head.len())]);
    }
    head.shuffle(rng);
    FoQuery::new(head, f).expect("the head covers the free variables")
}

/// Compiled FO queries answer as the reference's enumeration of the
/// active domain does (`rtx_ref::fo`), on random formulas (see
/// [`random_fo`]) and random instances over values 0–3, the empty one
/// included, so formula constants lie both inside and outside adom(I).
#[test]
fn fo_matches_the_reference() {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xF0_2025);
    let schema = Schema::new().with("E", 2).with("S", 1).with("B", 0);
    let (mut pairs, mut nonempty) = (0, 0);
    for _ in 0..1_500 {
        let q = random_fo(&mut rng);
        for i in 0..4 {
            let mut db = Instance::empty(schema.clone());
            if i > 0 {
                for _ in 0..rng.gen_range(0usize..6) {
                    let (a, b) = (rng.gen_range(0i64..4), rng.gen_range(0i64..4));
                    db.insert_fact(fact!("E", a, b)).unwrap();
                }
                for _ in 0..rng.gen_range(0usize..3) {
                    db.insert_fact(fact!("S", rng.gen_range(0i64..4))).unwrap();
                }
                if rng.gen_range(0usize..2) == 0 {
                    db.insert_fact(Fact::new("B", Tuple::empty())).unwrap();
                }
            }
            let got: BTreeSet<Tuple> = q.eval(&db).unwrap().iter().cloned().collect();
            let want = rtx_ref::fo(&q, &db);
            assert_eq!(got, want, "{q:?} on {db:?}\nrules:\n{:?}", q.program());
            pairs += 1;
            nonempty += usize::from(!want.is_empty());
        }
    }
    assert!(
        pairs >= 5_000 && 3 * nonempty >= pairs,
        "{nonempty} of {pairs} answers nonempty"
    );
}

/// Random character insertions, deletions and replacements of three
/// seed programs, from a fixed seed, never make `parse_program`,
/// `parse_dedalus` or `parse_fo_query` panic — nor `stratify` or
/// `DedalusRuntime::new` on whatever parses. The parsers share one
/// lexer and one rule grammar, so on every mutated rule source without
/// `@` or `now` Datalog and Dedalus both succeed or both fail, and two
/// parse errors sit at one offset.
#[test]
fn parsers_never_panic_on_mutated_programs() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rtx::dedalus::{parse_dedalus, DedalusRuntime};
    use rtx::query::parser::{parse_fo_query, parse_program};
    use rtx::query::EvalError;
    const DATALOG: &str = "% reachability, and what it misses
        t(X,Y) :- e(X,Y).
        t(X,Z) :- t(X,Y), e(Y,Z), X != Z.
        u(X) :- n(X), !t(X,'hub'), t(X, 3).";
    const DEDALUS: &str = "# a chain arriving over time
        reach(X) :- src(X).
        reach(Y) :- reach(X), edge(X,Y), !blocked(Y).
        reach(X)@next :- reach(X).
        msg(X, now)@async :- reach(X), X != 'a'.";
    const FO: &str = "(X) <- s(X) & !exists Y . e(X,Y)";
    const ALPHABET: &[char] = &[
        'a', 'z', 'X', '_', '0', '7', '(', ')', ',', '.', ':', '-', '!', '=', '@', '\'', ' ', '\n',
        '%', '#', '<', '&', '|', 'é', '≠',
    ];
    assert!(parse_program(DATALOG).unwrap().stratify().is_ok());
    DedalusRuntime::new(&parse_dedalus(DEDALUS).unwrap()).unwrap();
    parse_fo_query(FO).unwrap();
    let mut rng = StdRng::seed_from_u64(0x5EED_9A25);
    let mut compared = 0;
    for seed in [DATALOG, DEDALUS, FO] {
        for _ in 0..5_000 {
            let mut chars: Vec<char> = seed.chars().collect();
            for _ in 0..rng.gen_range(1usize..=4) {
                let c = ALPHABET[rng.gen_range(0usize..ALPHABET.len())];
                let i = rng.gen_range(0usize..chars.len());
                match rng.gen_range(0usize..3) {
                    0 => chars.insert(i, c),
                    1 => {
                        chars.remove(i);
                    }
                    _ => chars[i] = c,
                }
            }
            let src: String = chars.into_iter().collect();
            let outcome = std::panic::catch_unwind(|| {
                if seed == FO {
                    let _ = parse_fo_query(&src);
                    return None;
                }
                let datalog = parse_program(&src);
                if let Ok(p) = &datalog {
                    let _ = p.stratify();
                }
                let dedalus = parse_dedalus(&src);
                if let Ok(p) = &dedalus {
                    let _ = DedalusRuntime::new(p);
                }
                Some((datalog.err(), dedalus.err()))
            });
            let Ok(errors) = outcome else {
                panic!("a parser panicked on {src:?}");
            };
            let Some((datalog, dedalus)) =
                errors.filter(|_| !src.contains('@') && !src.contains("now"))
            else {
                continue;
            };
            compared += 1;
            assert_eq!(
                datalog.is_some(),
                dedalus.is_some(),
                "{src:?}: Datalog {datalog:?}, Dedalus {dedalus:?}"
            );
            if let (
                Some(EvalError::Parse { offset: a, .. }),
                Some(EvalError::Parse { offset: b, .. }),
            ) = (&datalog, &dedalus)
            {
                assert_eq!(a, b, "{src:?}: Datalog {datalog:?}, Dedalus {dedalus:?}");
            }
        }
    }
    assert!(compared > 4_000, "only {compared} sources compared");
}

/// A name-keyed adjacency map: the model the densely indexed `Network`
/// must agree with.
type Adjacency = BTreeMap<Value, BTreeSet<Value>>;

fn adjacency(nodes: &[Value], edges: &[(Value, Value)]) -> Adjacency {
    let mut adj: Adjacency = nodes.iter().map(|n| (*n, BTreeSet::new())).collect();
    for (a, b) in edges {
        adj.get_mut(a).unwrap().insert(*b);
        adj.get_mut(b).unwrap().insert(*a);
    }
    adj
}

fn adjacency_diameter(adj: &Adjacency) -> usize {
    let mut best = 0;
    for start in adj.keys() {
        let mut dist = BTreeMap::from([(*start, 0usize)]);
        let mut queue = VecDeque::from([*start]);
        while let Some(n) = queue.pop_front() {
            let d = dist[&n];
            for m in &adj[&n] {
                if !dist.contains_key(m) {
                    dist.insert(*m, d + 1);
                    queue.push_back(*m);
                }
            }
        }
        best = best.max(dist.values().copied().max().unwrap_or(0));
    }
    best
}

fn agrees_with_adjacency(net: &Network, adj: &Adjacency) -> Result<(), TestCaseError> {
    let nodes: Vec<Value> = net.nodes().copied().collect();
    prop_assert!(
        nodes.windows(2).all(|w| w[0] < w[1]),
        "nodes not strictly ascending: {:?}",
        nodes
    );
    prop_assert_eq!(&nodes, &adj.keys().copied().collect::<Vec<_>>());
    prop_assert_eq!(net.node_set(), adj.keys().copied().collect::<BTreeSet<_>>());
    prop_assert_eq!(net.len(), adj.len());
    for (n, nbrs) in adj {
        prop_assert!(net.contains(n));
        let mine: Vec<Value> = net.neighbors(n).copied().collect();
        let model: Vec<Value> = nbrs.iter().copied().collect();
        prop_assert_eq!(&mine, &model, "neighbors of {}", n);
        for m in &mine {
            prop_assert!(net.neighbors(m).any(|x| x == n), "{}–{} is one-way", n, m);
        }
    }
    let absent = Value::sym("absent-node");
    prop_assert!(!net.contains(&absent));
    prop_assert_eq!(net.neighbors(&absent).count(), 0);
    prop_assert_eq!(
        net.edge_count(),
        adj.values().map(BTreeSet::len).sum::<usize>() / 2
    );
    prop_assert_eq!(net.diameter(), adjacency_diameter(adj));
    // `Debug` lists each edge once, from its smaller end, in name order.
    let edges: Vec<String> = adj
        .iter()
        .flat_map(|(n, nbrs)| {
            nbrs.iter()
                .filter(move |m| n < *m)
                .map(move |m| format!("{n}–{m}"))
        })
        .collect();
    prop_assert_eq!(
        format!("{net:?}"),
        format!("Network[{} nodes: {}]", adj.len(), edges.join(", "))
    );
    Ok(())
}

fn node_name(i: usize) -> Value {
    Value::sym(format!("n{i}"))
}

/// A network from one of the generators or from `from_edges`, with the
/// node list and edge list it is made of.
fn shaped_network(
    shape: usize,
    k: usize,
    (w, h): (usize, usize),
    p: f64,
    seed: u64,
) -> (Network, Vec<Value>, Vec<(Value, Value)>) {
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    let names = |k: usize| (0..k).map(node_name).collect::<Vec<_>>();
    let pairs = |e: Vec<(usize, usize)>| {
        e.into_iter()
            .map(|(a, b)| (node_name(a), node_name(b)))
            .collect::<Vec<_>>()
    };
    match shape {
        0 => (
            Network::line(k).unwrap(),
            names(k),
            pairs((1..k).map(|i| (i - 1, i)).collect()),
        ),
        1 => {
            let k = k.max(3);
            let e = (0..k).map(|i| (i, (i + 1) % k)).collect();
            (Network::ring(k).unwrap(), names(k), pairs(e))
        }
        2 => (
            Network::star(k).unwrap(),
            names(k),
            pairs((1..k).map(|i| (0, i)).collect()),
        ),
        3 => {
            let k = k.min(12);
            let e = (0..k)
                .flat_map(|i| ((i + 1)..k).map(move |j| (i, j)))
                .collect();
            (Network::clique(k).unwrap(), names(k), pairs(e))
        }
        4 => {
            let mut e = Vec::new();
            for y in 0..h {
                for x in 0..w {
                    if x + 1 < w {
                        e.push((y * w + x, y * w + x + 1));
                    }
                    if y + 1 < h {
                        e.push((y * w + x, (y + 1) * w + x));
                    }
                }
            }
            (Network::grid(w, h).unwrap(), names(w * h), pairs(e))
        }
        5 => {
            // The edges `random_connected_seeded` draws: a random spanning
            // tree, then each other pair with probability `p`.
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut order: Vec<usize> = (0..k).collect();
            order.shuffle(&mut rng);
            let mut e = Vec::new();
            for i in 1..k {
                e.push((order[i], order[rng.gen_range(0..i)]));
            }
            for i in 0..k {
                for j in (i + 1)..k {
                    if rng.gen_bool(p) {
                        e.push((i, j));
                    }
                }
            }
            let net = Network::random_connected_seeded(k, p, seed).unwrap();
            (net, names(k), pairs(e))
        }
        6 => {
            // `from_edges` on integer and symbol ids, with repeated
            // nodes and edges given in either orientation, repeats too.
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let ids: Vec<Value> = (0..k)
                .map(|i| {
                    if i.is_multiple_of(3) {
                        Value::int(i as i64 - 5)
                    } else {
                        node_name(i)
                    }
                })
                .collect();
            let mut nodes = ids.clone();
            nodes.extend(ids.iter().step_by(4).copied());
            nodes.shuffle(&mut rng);
            let mut edges = Vec::new();
            for i in 1..k {
                let j = rng.gen_range(0..i);
                edges.push((ids[i], ids[j]));
                if rng.gen_bool(0.3) {
                    edges.push((ids[j], ids[i]));
                }
            }
            for _ in 0..k {
                let (i, j) = (rng.gen_range(0..k), rng.gen_range(0..k));
                if i != j && rng.gen_bool(p) {
                    edges.push((ids[i], ids[j]));
                }
            }
            edges.shuffle(&mut rng);
            let net = Network::from_edges(nodes.clone(), edges.clone()).unwrap();
            (net, nodes, edges)
        }
        _ if k.is_multiple_of(2) => (Network::single(), names(1), Vec::new()),
        _ => {
            let mut e: Vec<(usize, usize)> = (0..4).map(|i| (i, (i + 1) % 4)).collect();
            e.push((1, 3));
            (Network::ring4_with_chord(), names(4), pairs(e))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The densely indexed `Network` agrees with a name-keyed adjacency
    /// map built from the same edges, for every generator and for
    /// `from_edges`; `from_edges` rejects a planted self-loop, unknown
    /// node or isolated node with the error a name-keyed build gives;
    /// and a configuration on the network reassembles from its parts in
    /// any order.
    #[test]
    fn dense_network_matches_a_name_keyed_model(
        shape in 0usize..8,
        k in 1usize..48,
        grid in (1usize..9, 1usize..9),
        p_percent in 0u8..40,
        seed in 0u64..10_000,
    ) {
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let p = f64::from(p_percent) / 100.0;
        let (net, nodes, edges) = shaped_network(shape, k, grid, p, seed);
        let adj = adjacency(&nodes, &edges);
        agrees_with_adjacency(&net, &adj)?;
        prop_assert_eq!(net.clone(), net.clone());
        let rebuilt = Network::from_edges(nodes.clone(), edges.clone()).unwrap();
        prop_assert_eq!(&rebuilt, &net, "from_edges of the generator's edges");

        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let some = nodes[rng.gen_range(0..nodes.len())];
        let at = rng.gen_range(0..=edges.len());
        let topology = |r: Result<Network, rtx::net::NetError>| r.unwrap_err().to_string();
        let mut looped = edges.clone();
        looped.insert(at, (some, some));
        prop_assert_eq!(
            topology(Network::from_edges(nodes.clone(), looped)),
            format!("invalid topology: self-loop on node {some}")
        );
        let stranger = Value::sym("not-a-node");
        let mut unknown = edges.clone();
        unknown.insert(at, (some, stranger));
        prop_assert_eq!(
            topology(Network::from_edges(nodes.clone(), unknown)),
            format!("invalid topology: edge ({some},{stranger}) references unknown node")
        );
        let mut isolated = nodes.clone();
        isolated.push(stranger);
        prop_assert_eq!(
            topology(Network::from_edges(isolated, edges.clone())),
            "invalid topology: network is not connected".to_string()
        );

        // A configuration with mail reassembles from shuffled parts.
        let sch = Schema::new().with("S", 1);
        let input = Instance::from_facts(sch.clone(), vec![fact!("S", 1), fact!("S", 2)]).unwrap();
        let t = flood_transducer(&sch, FloodMode::Dedup, None).unwrap();
        let partition = HorizontalPartition::round_robin(&net, &input);
        let mut cfg = Configuration::initial(&net, &t, &partition).unwrap();
        for n in nodes.iter().take(3) {
            cfg.apply_heartbeat(&net, &t, n).unwrap();
        }
        let mut parts = cfg.clone().into_parts();
        prop_assert_eq!(parts.len(), net.len());
        parts.shuffle(&mut rng);
        let back = Configuration::from_parts(parts);
        prop_assert_eq!(format!("{back:?}"), format!("{cfg:?}"));
        prop_assert!(back == cfg, "shuffled parts reassemble to a different configuration");
    }
}
