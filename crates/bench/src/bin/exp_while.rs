//! LEM-5.3: while ⟺ single-node FO-transducer — the compiled
//! iterated-heartbeat simulation vs direct while evaluation.

use rtx_bench::{chain_input, Table};
use rtx_calm::constructions::while_compiler::compile_while_to_transducer;
use rtx_net::{run, FifoRoundRobin, HorizontalPartition, Network, RunBudget};
use rtx_query::atom;
use rtx_query::{
    CqBuilder, Guard, Query, QueryRef, Stmt, Term, UcqQuery, WhileProgram, WhileQuery,
};
use rtx_relational::Schema;
use std::sync::Arc;

fn q(rule: rtx_query::Rule) -> QueryRef {
    Arc::new(UcqQuery::single(rule))
}

fn tc_while() -> WhileProgram {
    let scratch = Schema::new().with("T", 2).with("Delta", 2).with("New", 2);
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
            Guard::NonEmpty("Delta".into()),
            Box::new(Stmt::Seq(vec![
                Stmt::Assign("New".into(), q(compose)),
                Stmt::Accumulate("T".into(), q(copy_new.clone())),
                Stmt::Assign("Delta".into(), q(copy_new)),
            ])),
        ),
    ]);
    WhileProgram::new(scratch, body, "T").unwrap()
}

fn main() {
    rtx_bench::exp::run("exp_while", exp);
}

fn exp() {
    println!("\n[LEM-5.3] while-program ⟺ FO-transducer on a single-node network");
    let program = tc_while();
    let mut tab = Table::new(&[
        ("input", 10),
        ("while |Q(I)|", 13),
        ("compiled |out|", 14),
        ("heartbeats", 11),
        ("agree", 6),
    ]);
    let mut all_agree = true;
    for n in [2usize, 4, 6, 8] {
        let input = chain_input("E", n);
        let direct = WhileQuery::new(program.clone()).eval(&input).unwrap();
        let t = compile_while_to_transducer(&program, input.schema()).unwrap();
        let net = Network::single();
        let p = HorizontalPartition::replicate(&net, &input);
        let out = run(
            &net,
            &t,
            &p,
            &mut FifoRoundRobin::new(),
            &RunBudget::steps(1_000_000),
        )
        .unwrap();
        assert!(out.quiescent);
        let agree = out.output == direct;
        all_agree &= agree;
        tab.row(&[
            format!("chain-{n}"),
            direct.len().to_string(),
            out.output.len().to_string(),
            out.heartbeats.to_string(),
            agree.to_string(),
        ]);
    }
    tab.done();
    assert!(
        all_agree,
        "LEM-5.3: the compiled transducer differs from the while-program"
    );
    println!("one instruction per heartbeat: the transducer simulates the while-program");
    println!("(and only heartbeat transitions exist on one node — paper, Section 3).");
}
