//! THM-6.1/6.2/6.5: the Theorem 6 constructions, verified end to end.

use rtx_bench::{chain_input, run_fifo, Table};
use rtx_calm::constructions::datalog_dist::{distribute_datalog, transitive_closure_program};
use rtx_calm::constructions::distribute::{distribute_any, distribute_monotone};
use rtx_calm::constructions::flood::FloodMode;
use rtx_net::Network;
use rtx_query::atom;
use rtx_query::{DatalogQuery, FoQuery, Formula, Query, QueryRef};
use rtx_relational::{fact, Instance, Schema};
use rtx_transducer::Classification;
use std::sync::Arc;

fn main() {
    rtx_bench::exp::run("exp_theorem6", exp);
}

fn exp() {
    let net = Network::ring(4).unwrap();

    println!("\n[THM-6.1] any query via multicast+Ready (here: the nonmonotone emptiness)");
    {
        let schema = Schema::new().with("S", 1).with("K", 1);
        let q: QueryRef = Arc::new(
            FoQuery::sentence(Formula::not(Formula::exists(
                ["X"],
                Formula::atom(atom!("S"; @"X")),
            )))
            .unwrap(),
        );
        let t = distribute_any(q.clone(), &schema).unwrap();
        let mut tab = Table::new(&[
            ("input", 24),
            ("Q(I) central", 13),
            ("distributed", 12),
            ("agree", 6),
        ]);
        let mut all_agree = true;
        for (label, facts) in [
            ("S = ∅, K = {1,2}", vec![fact!("K", 1), fact!("K", 2)]),
            ("S = {9}, K = {1}", vec![fact!("K", 1), fact!("S", 9)]),
        ] {
            let input = Instance::from_facts(schema.clone(), facts).unwrap();
            let central = q.eval(&input).unwrap().as_bool();
            let out = run_fifo(&net, &t, &input);
            assert!(out.quiescent);
            let agree = central == out.output.as_bool();
            all_agree &= agree;
            tab.row(&[
                label.into(),
                central.to_string(),
                out.output.as_bool().to_string(),
                agree.to_string(),
            ]);
        }
        tab.done();
        assert!(
            all_agree,
            "THM-6.1: the distributed answer differs from Q(I)"
        );
    }

    println!("\n[THM-6.2] monotone queries via oblivious flooding (TC on chains)");
    {
        let program = transitive_closure_program();
        let q: QueryRef = Arc::new(DatalogQuery::new(program, "T").unwrap());
        let mut tab = Table::new(&[
            ("chain length", 13),
            ("|Q(I)|", 8),
            ("|output|", 9),
            ("classification", 36),
            ("ok", 4),
        ]);
        let mut all_ok = true;
        for n in [2usize, 4, 6] {
            let input = chain_input("E", n);
            let expected = q.eval(&input).unwrap();
            let t = distribute_monotone(q.clone(), input.schema(), FloodMode::Dedup).unwrap();
            let out = run_fifo(&net, &t, &input);
            assert!(out.quiescent);
            let ok = out.output == expected;
            all_ok &= ok;
            tab.row(&[
                n.to_string(),
                expected.len().to_string(),
                out.output.len().to_string(),
                Classification::of(&t).to_string(),
                ok.to_string(),
            ]);
        }
        tab.done();
        assert!(all_ok, "THM-6.2: the flooded output differs from Q(I)");
        println!(
            "note: with FloodMode::Naive the same construction is additionally monotone(syn)."
        );
    }

    println!("\n[THM-6.5] Datalog via the T_P-operator transducer");
    {
        let program = transitive_closure_program();
        let q = DatalogQuery::new(program.clone(), "T").unwrap();
        let t = distribute_datalog(&program, &"T".into(), FloodMode::Dedup).unwrap();
        let c = Classification::of(&t);
        let mut tab = Table::new(&[
            ("input", 14),
            ("|Q(I)|", 8),
            ("|output|", 9),
            ("oblivious", 10),
            ("inflationary", 13),
            ("ok", 4),
        ]);
        let mut all_ok = true;
        for n in [3usize, 5] {
            let input = chain_input("E", n);
            let expected = q.eval(&input).unwrap();
            let out = run_fifo(&net, &t, &input);
            assert!(out.quiescent);
            let ok = out.output == expected;
            all_ok &= ok;
            tab.row(&[
                format!("chain-{n}"),
                expected.len().to_string(),
                out.output.len().to_string(),
                c.oblivious.to_string(),
                c.inflationary.to_string(),
                ok.to_string(),
            ]);
        }
        tab.done();
        assert!(
            all_ok,
            "THM-6.5: the T_P transducer's output differs from Q(I)"
        );
        println!(
            "paper: \"by the monotone nature of Datalog evaluation, deletions are not needed\"."
        );
    }
}
