//! Goal-directed evaluation, quantified: for bound point lookups on
//! recursive programs, the magic-sets rewrite (`Program::for_query`)
//! derives only the demand-reachable facts, while full
//! materialization (`Program::eval`, filtered by the pattern) pays for
//! the whole model. The per-stratum `FixpointStats` counters make the saving
//! exact: same answers, derived-fact counts proportional to the
//! reachable set instead of the full closure.

use rtx_bench::Table;
use rtx_query::parser::parse_program;
use rtx_query::{atom, Atom, Program};
use rtx_relational::{fact, Instance, Relation, Schema};

fn chain_db(n: i64) -> Instance {
    let mut db = Instance::empty(Schema::new().with("e", 2));
    for i in 0..n {
        db.insert_fact(fact!("e", i, i + 1)).unwrap();
    }
    db
}

fn tree_db(levels: u32) -> Instance {
    let mut db = Instance::empty(Schema::new().with("par", 2));
    for child in 2..(1i64 << levels) {
        db.insert_fact(fact!("par", child, child / 2)).unwrap();
    }
    db
}

fn compare(tab: &mut Table, name: &str, program: &Program, pattern: &Atom, db: &Instance) {
    let magic = program.for_query(pattern).unwrap();
    assert!(magic.is_magic(), "{name}: rewrite must apply");
    let (ma, ms) = magic.answer_with_stats(db).unwrap();
    let (total, fs) = program.eval_with_stats(db).unwrap();
    let full = total.relation(&pattern.pred).unwrap();
    let fa = Relation::from_tuples(
        pattern.arity(),
        full.iter().filter(|t| pattern.matches(t)).cloned(),
    )
    .unwrap();
    assert_eq!(ma, fa, "{name}: magic must not change the answer");
    assert!(
        ms.eval_derived() < fs.eval_derived(),
        "{name}: magic must derive strictly fewer facts"
    );
    tab.row(&[
        name.to_string(),
        format!("{}", ma.len()),
        format!("{}", fs.eval_derived()),
        format!("{}", ms.eval_derived()),
        format!(
            "{:.1}x",
            fs.eval_derived() as f64 / ms.eval_derived() as f64
        ),
    ]);
}

fn main() {
    rtx_bench::exp::run("exp_magic", exp);
}

fn exp() {
    println!("\n[magic] bound point lookups: derived facts, materialize vs magic");
    let mut tab = Table::new(&[
        ("query", 26),
        ("answers", 8),
        ("derived (full)", 15),
        ("derived (magic)", 16),
        ("saving", 8),
    ]);

    let tc = parse_program("p(X,Y) :- e(X,Y). p(X,Z) :- p(X,Y), e(Y,Z).").unwrap();
    for n in [256i64, 1024, 4096] {
        compare(
            &mut tab,
            &format!("tc chain n={n}, p(0,Y)"),
            &tc,
            &atom!("p"; 0, @"Y"),
            &chain_db(n),
        );
    }

    let sg = parse_program(
        "sg(X,X) :- par(X,P).
         sg(X,Y) :- par(X,XP), sg(XP,YP), par(Y,YP).",
    )
    .unwrap();
    for levels in [7u32, 9] {
        let leaf = 1i64 << (levels - 1);
        compare(
            &mut tab,
            &format!("same-gen tree n={}, sg(leaf,Y)", 1i64 << levels),
            &sg,
            &atom!("sg"; leaf, @"Y"),
            &tree_db(levels),
        );
    }
    tab.done();

    println!("\n[magic] per-stratum counters for tc n=1024, p(0,Y)");
    {
        let db = chain_db(1024);
        let magic = tc.for_query(&atom!("p"; 0, @"Y")).unwrap();
        let (_, stats) = magic.answer_with_stats(&db).unwrap();
        let mut tab = Table::new(&[("stratum", 8), ("considered", 12), ("derived", 12)]);
        for (i, (c, d)) in stats
            .stratum_considered
            .iter()
            .zip(&stats.stratum_derived)
            .enumerate()
        {
            tab.row(&[format!("{i}"), format!("{c}"), format!("{d}")]);
        }
        tab.done();
    }

    println!("\n[magic] binding changes through the maintained fixpoint (tc n=1024)");
    {
        let db = chain_db(1024);
        let q0 = tc.for_query(&atom!("p"; 0, @"Y")).unwrap();
        let mut fix = q0.maintained(&db).unwrap();
        let mut tab = Table::new(&[("binding", 10), ("answers", 8), ("matches scratch", 16)]);
        let mut q = q0;
        for c in [0i64, 512, 1000] {
            let (q2, delta) = q.rebind(&atom!("p"; c, @"Y")).unwrap();
            fix.apply(&delta).unwrap();
            q = q2;
            let ans = q.answer_from(fix.current()).unwrap();
            let scratch = q.answer(&db).unwrap();
            tab.row(&[
                format!("p({c},Y)"),
                format!("{}", ans.len()),
                format!("{}", ans == scratch),
            ]);
        }
        tab.done();
    }
}
