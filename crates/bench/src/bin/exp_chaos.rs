//! `rtx-chaos` explorer over the paper's worked examples: the CALM
//! classifier's verdicts cross-validated against adversarial schedule
//! search.
//!
//! For each example transducer the explorer executes seeded adversarial
//! runs (targeted heuristics + random fault plans under a **fair**
//! adversary — delay, duplication, reordering, healing partitions,
//! pause-crashes) and compares every quiescent output against the
//! fault-free reference. A syntactically monotone transducer is
//! coordination-free (THM-12), so it must report `consistent`; a
//! divergence is minimized with the proptest shrinker and printed as a
//! replayable `(plan, seed)` pair.
//!
//! ```text
//! RTX_CHAOS_RUNS=200 RTX_CHAOS_SEED=0xC4A05EED \
//!   cargo run --release -p rtx-bench --bin exp_chaos
//! ```
//!
//! Replay any reported divergence from its printed plan and seed by
//! passing `&mut rtx_chaos::FaultSession::new(plan, seed)` to
//! `rtx_net::run_sharded_faulted`.

use rtx_bench::Table;
use rtx_calm::examples;
use rtx_chaos::{cross_validate, ExplorerOptions};
use rtx_net::{HorizontalPartition, Network, RunBudget};
use rtx_relational::{fact, Instance, Schema};
use rtx_transducer::Transducer;

fn input_s1(vals: &[i64]) -> Instance {
    Instance::from_facts(
        Schema::new().with("S", 1),
        vals.iter().map(|&v| fact!("S", v)).collect::<Vec<_>>(),
    )
    .unwrap()
}

fn input_s2(pairs: &[(i64, i64)]) -> Instance {
    Instance::from_facts(
        Schema::new().with("S", 2),
        pairs
            .iter()
            .map(|&(a, b)| fact!("S", a, b))
            .collect::<Vec<_>>(),
    )
    .unwrap()
}

fn main() {
    rtx_bench::exp::run("exp_chaos", exp);
}

fn exp() {
    let opts = ExplorerOptions::auto().with_budget(RunBudget::steps(8_000));
    println!(
        "\n[rtx-chaos] adversarial schedule exploration, fair adversary, {} runs per program, seed {:#x}",
        opts.runs, opts.seed
    );
    println!("(override with RTX_CHAOS_RUNS / RTX_CHAOS_SEED)");

    let cases: Vec<(&str, Transducer, Network, Instance)> = vec![
        (
            "ex2-first-element",
            examples::ex2_first_element().unwrap(),
            Network::line(3).unwrap(),
            input_s1(&[10, 20, 30]),
        ),
        (
            "ex3-eq-selection",
            examples::ex3_equality_selection().unwrap(),
            Network::line(3).unwrap(),
            input_s2(&[(1, 1), (1, 2), (5, 5)]),
        ),
        (
            "ex3-tc-naive",
            examples::ex3_transitive_closure(false).unwrap(),
            Network::ring(4).unwrap(),
            input_s2(&[(1, 2), (2, 3), (3, 4)]),
        ),
        (
            "ex3-tc-dedup",
            examples::ex3_transitive_closure(true).unwrap(),
            Network::ring(4).unwrap(),
            input_s2(&[(1, 2), (2, 3), (3, 4)]),
        ),
        (
            "ex4-echo",
            examples::ex4_echo().unwrap(),
            Network::line(3).unwrap(),
            input_s1(&[7, 8]),
        ),
    ];

    let mut tab = Table::new(&[
        ("transducer", 18),
        ("classification", 28),
        ("runs", 5),
        ("verdict", 22),
        ("minimized divergence", 34),
    ]);
    let mut divergences: Vec<(String, String)> = Vec::new();
    for (label, t, net, input) in cases {
        let p = HorizontalPartition::round_robin(&net, &input);
        let check = cross_validate(&net, &t, &p, &opts).expect(label);
        let verdict = match &check.report.divergence {
            None => format!("consistent over {}", check.report.runs_executed),
            Some(d) => format!("DIVERGES at run {}", d.found_at_run),
        };
        let min = match &check.report.divergence {
            None => "—".to_string(),
            Some(d) => {
                let loc = match &d.localization {
                    None => "no witness in the logged replay".to_string(),
                    Some(l) => format!(
                        "node {} {} {:?} (first divergent round {})",
                        l.node,
                        if l.extra {
                            "emits extra"
                        } else {
                            "never outputs"
                        },
                        l.fact,
                        l.round
                    ),
                };
                let mut detail = format!(
                    "plan: {}   seed: {:#x}\n  expected {:?}\n  observed {:?}\n  localized: {loc}",
                    d.plan, d.seed, d.expected, d.observed
                );
                // The embedded forced-full trace of the minimized
                // replay: the localized node's round-by-round events.
                if let Some(l) = &d.localization {
                    if let Some(idx) = net.nodes().position(|n| n == &l.node) {
                        let lines = d.trace.node_timeline(idx as i64);
                        detail.push_str(&format!(
                            "\n  node {} timeline in the minimized replay:",
                            l.node
                        ));
                        for line in lines.iter().take(60) {
                            detail.push_str(&format!("\n    {line}"));
                        }
                        if lines.len() > 60 {
                            detail.push_str(&format!("\n    … {} more lines", lines.len() - 60));
                        }
                    }
                }
                divergences.push((label.to_string(), detail));
                format!("{} (seed {:#x})", d.plan, d.seed)
            }
        };
        assert!(
            check.agrees(),
            "{label}: a monotone program diverged under a fair adversary — \
             the classifier or the fault layer is wrong"
        );
        tab.row(&[
            label.to_string(),
            check.classification.to_string(),
            check.report.runs_executed.to_string(),
            verdict,
            min,
        ]);
    }
    tab.done();
    for (label, detail) in divergences {
        println!("\n{label} minimized diverging schedule:\n  {detail}");
    }
    println!(
        "\nEvery verdict above is replayable: the explorer derives all plans and decision\n\
         seeds from the base seed, and any diverging run replays exactly from its (plan, seed)."
    );
}
