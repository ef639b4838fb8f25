//! THM-16 / COR-17: transducers without `Id` compute monotone queries —
//! the R4-ring + chord run-transfer scenario, executably.

use rtx_bench::{set_input, Table};
use rtx_calm::analysis::{thm16_scenario, Thm16Outcome};
use rtx_calm::examples;
use rtx_relational::{fact, Instance, Schema};
use rtx_transducer::{Classification, Transducer};

fn main() {
    rtx_bench::exp::run("exp_thm16", exp);
}

fn exp() {
    println!("\n[THM-16] the ring-R4 / chorded-ring transfer: out(I) ⊆ out(J) for I ⊆ J");
    let mut tab = Table::new(&[
        ("transducer", 18),
        ("uses Id", 8),
        ("|out| on R4 (I)", 16),
        ("|out| on R4+chord (J)", 22),
        ("Q(I) ⊆ Q(J)", 12),
    ]);

    // Each row's verdict Q(I) ⊆ Q(J), asserted once the table is out.
    let mut preserved = Vec::new();
    let mut row = |name: &'static str, t: &Transducer, o: &Thm16Outcome| {
        tab.row(&[
            name.into(),
            Classification::of(t).system_usage.uses_id.to_string(),
            o.output_on_ring.len().to_string(),
            o.output_on_chord.len().to_string(),
            o.preserved.to_string(),
        ]);
        preserved.push((name, o.preserved));
    };
    // Example 15 (no Id): the theorem applies, transfer holds.
    {
        let t = examples::ex15_ping().unwrap();
        let o = thm16_scenario(&t, &set_input(2), &set_input(3), 500_000).unwrap();
        row("ex15-ping", &t, &o);
    }
    // TC (oblivious, hence no Id): transfer holds.
    {
        let t = examples::ex3_transitive_closure(true).unwrap();
        let sch = Schema::new().with("S", 2);
        let smaller = Instance::from_facts(sch.clone(), vec![fact!("S", 1, 2)]).unwrap();
        let larger = Instance::from_facts(sch, vec![fact!("S", 1, 2), fact!("S", 2, 3)]).unwrap();
        let o = thm16_scenario(&t, &smaller, &larger, 500_000).unwrap();
        row("ex3-tc", &t, &o);
    }
    // Emptiness (uses Id): the theorem does NOT apply — and the transfer
    // indeed fails (Q(∅)=true, Q({3})=false).
    {
        let t = examples::ex10_emptiness().unwrap();
        let o = thm16_scenario(&t, &set_input(0), &set_input(1), 500_000).unwrap();
        row("ex10-emptiness", &t, &o);
    }
    tab.done();
    println!("paper: every query computed without Id is monotone (Theorem 16); with Id the");
    println!("emptiness query breaks the transfer — exactly why it needs the system relations.");
    assert_eq!(
        preserved,
        [
            ("ex15-ping", true),
            ("ex3-tc", true),
            ("ex10-emptiness", false)
        ],
        "THM-16: a transfer verdict differs from the paper's"
    );
}
