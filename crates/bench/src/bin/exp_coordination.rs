//! EX-9 / EX-10 / EX-15 + PROP-11: coordination-freeness search over the
//! example transducers — who has a communication-free partition?

use rtx_bench::Table;
use rtx_calm::analysis::{
    find_coordination_free_partition, CoordinationOptions, CoordinationVerdict,
};
use rtx_calm::examples;
use rtx_net::Network;
use rtx_query::{Query, QueryRef};
use rtx_relational::{fact, Instance, Relation, Schema};
use rtx_transducer::{Classification, Transducer};
use std::sync::Arc;

fn main() {
    rtx_bench::exp::run("exp_coordination", exp);
}

fn exp() {
    let opts = CoordinationOptions::default();
    let net = Network::line(2).unwrap();

    println!(
        "\n[EX-9/10/15, PROP-11] coordination-freeness search (2-node line, exhaustive partitions)"
    );
    let mut tab = Table::new(&[
        ("transducer", 18),
        ("oblivious", 10),
        ("query", 22),
        ("witness partition", 22),
        ("coordination-free", 18),
    ]);

    // (transducer, oblivious, coordination-free) per row, asserted once
    // the table is out.
    let mut verdicts = Vec::new();
    let mut row = |name: &'static str, t: &Transducer, query: &str, v: &CoordinationVerdict| {
        let oblivious = Classification::of(t).oblivious;
        tab.row(&[
            name.into(),
            oblivious.to_string(),
            query.into(),
            v.witness.clone().unwrap_or_else(|| "—".into()),
            v.coordination_free().to_string(),
        ]);
        verdicts.push((name, oblivious, v.coordination_free()));
    };
    // TC (Example 9: coordination-free)
    {
        let t = examples::ex3_transitive_closure(true).unwrap();
        let input = Instance::from_facts(
            Schema::new().with("S", 2),
            vec![fact!("S", 1, 2), fact!("S", 2, 3)],
        )
        .unwrap();
        let q: QueryRef = Arc::new(
            rtx_query::DatalogQuery::new(
                rtx_query::parser::parse_program("T(X,Y) :- S(X,Y). T(X,Z) :- T(X,Y), S(Y,Z).")
                    .unwrap(),
                "T",
            )
            .unwrap(),
        );
        let expected = q.eval(&input).unwrap();
        let v = find_coordination_free_partition(&net, &t, &input, &expected, &opts).unwrap();
        row("ex3-tc", &t, "transitive closure", &v);
    }

    // A/B nonempty (Section 5's contrived example)
    {
        let t = examples::ex9_ab_nonempty().unwrap();
        let input = Instance::from_facts(
            Schema::new().with("A", 1).with("B", 1),
            vec![fact!("A", 1), fact!("B", 2)],
        )
        .unwrap();
        let v =
            find_coordination_free_partition(&net, &t, &input, &Relation::nullary_true(), &opts)
                .unwrap();
        row("ex9-ab-nonempty", &t, "A≠∅ ∨ B≠∅", &v);
    }

    // emptiness (Example 10: NOT coordination-free)
    {
        let t = examples::ex10_emptiness().unwrap();
        let input = Instance::empty(Schema::new().with("S", 1));
        let v =
            find_coordination_free_partition(&net, &t, &input, &Relation::nullary_true(), &opts)
                .unwrap();
        row("ex10-emptiness", &t, "S = ∅ (nonmonotone)", &v);
    }

    // ping (Example 15: NOT coordination-free despite monotone query)
    {
        let t = examples::ex15_ping().unwrap();
        let input = Instance::from_facts(Schema::new().with("S", 1), vec![fact!("S", 1)]).unwrap();
        let mut expected = Relation::empty(1);
        expected
            .insert(rtx_relational::Tuple::new(vec![
                rtx_relational::Value::int(1),
            ]))
            .unwrap();
        let v = find_coordination_free_partition(&net, &t, &input, &expected, &opts).unwrap();
        row("ex15-ping", &t, "identity (monotone)", &v);
    }
    tab.done();
    println!("paper: TC and A/B are coordination-free; emptiness and the All-gated ping are not.");
    println!("PROP-11 check: every oblivious row above is coordination-free.");
    let free: Vec<(&str, bool)> = verdicts
        .iter()
        .map(|&(name, _, free)| (name, free))
        .collect();
    assert_eq!(
        free,
        [
            ("ex3-tc", true),
            ("ex9-ab-nonempty", true),
            ("ex10-emptiness", false),
            ("ex15-ping", false)
        ],
        "EX-9/10/15: a coordination-freeness verdict differs from the paper's"
    );
    for (name, oblivious, free) in verdicts {
        assert!(
            !oblivious || free,
            "PROP-11: {name} is oblivious but not coordination-free"
        );
    }
}
