//! LEM-5.1 / LEM-5.2: dissemination protocols — message cost and rounds
//! of the ack-based multicast vs oblivious flooding, across topologies
//! and network sizes.

use rtx_bench::{run_fifo, set_input, Table};
use rtx_calm::constructions::flood::{flood_transducer, FloodMode};
use rtx_calm::constructions::multicast::multicast_transducer;
use rtx_calm::constructions::ready_rel;
use rtx_net::Network;
use rtx_relational::Schema;

fn main() {
    rtx_bench::exp::run("exp_multicast", exp);
}

fn exp() {
    let schema = Schema::new().with("S", 1);
    let input = set_input(5);

    println!("\n[LEM-5.1/5.2] dissemination: flooding vs ack-multicast (5 facts)");
    let mut tab = Table::new(&[
        ("topology", 10),
        ("nodes", 6),
        ("flood msgs", 11),
        ("flood steps", 12),
        ("mcast msgs", 11),
        ("mcast steps", 12),
        ("overhead ×", 10),
        ("all Ready", 10),
    ]);
    let topologies: Vec<(String, Network)> = vec![
        ("line".into(), Network::line(2).unwrap()),
        ("line".into(), Network::line(4).unwrap()),
        ("line".into(), Network::line(6).unwrap()),
        ("ring".into(), Network::ring(4).unwrap()),
        ("ring".into(), Network::ring(6).unwrap()),
        ("star".into(), Network::star(6).unwrap()),
        ("clique".into(), Network::clique(4).unwrap()),
    ];
    let mut everywhere_ready = true;
    for (label, net) in topologies {
        let flood = flood_transducer(&schema, FloodMode::Dedup, None).unwrap();
        let f = run_fifo(&net, &flood, &input);
        assert!(f.quiescent);

        let mcast = multicast_transducer(&schema, None).unwrap();
        let m = run_fifo(&net, &mcast, &input);
        assert!(m.quiescent);
        let all_ready = m
            .final_config
            .state(net.nodes().next().unwrap())
            .map(|st| {
                st.relation(&ready_rel())
                    .map(|r| r.as_bool())
                    .unwrap_or(false)
            })
            .unwrap_or(false)
            && net.nodes().all(|n| {
                m.final_config
                    .state(n)
                    .and_then(|st| st.relation(&ready_rel()).ok())
                    .map(|r| r.as_bool())
                    .unwrap_or(false)
            });
        everywhere_ready &= all_ready;

        tab.row(&[
            label,
            net.len().to_string(),
            f.messages_enqueued.to_string(),
            f.steps.to_string(),
            m.messages_enqueued.to_string(),
            m.steps.to_string(),
            format!(
                "{:.1}",
                m.messages_enqueued as f64 / f.messages_enqueued.max(1) as f64
            ),
            all_ready.to_string(),
        ]);
    }
    tab.done();
    assert!(everywhere_ready, "LEM-5.1: some node never raised Ready");
    println!("paper: the multicast protocol \"requires heavy coordination\" — the overhead");
    println!("column quantifies it; Ready is true everywhere only after full dissemination.");
}
