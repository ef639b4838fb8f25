//! COR-8: a linear order on ≥ 2 nodes, and the parity (even-cardinality)
//! query computed through it.

use rtx_bench::{run_fifo, set_input, Table};
use rtx_calm::constructions::linear_order::{
    even_cardinality_transducer, is_total_order_over, linear_order_transducer,
};
use rtx_net::Network;

fn main() {
    rtx_bench::exp::run("exp_order", exp);
}

fn exp() {
    println!("\n[COR-8] every node builds a total order over adom(I) (≥ 2 nodes)");
    {
        let input = set_input(4);
        let t = linear_order_transducer(input.schema()).unwrap();
        let mut tab = Table::new(&[("topology", 10), ("nodes with a total order", 26)]);
        let mut all_ordered = true;
        for net in [Network::line(2).unwrap(), Network::ring(4).unwrap()] {
            let out = run_fifo(&net, &t, &input);
            assert!(out.quiescent);
            let expected = input.adom();
            let good = net
                .nodes()
                .filter(|n| is_total_order_over(out.final_config.state(n).unwrap(), &expected))
                .count();
            all_ordered &= good == net.len();
            tab.row(&[
                format!("{}-node", net.len()),
                format!("{good}/{}", net.len()),
            ]);
        }
        tab.done();
        assert!(
            all_ordered,
            "COR-8: some node lacks a total order over adom(I)"
        );
    }

    println!("\n[COR-8] parity of |S| — a non-FO, nonmonotone query via the order");
    {
        let t = even_cardinality_transducer().unwrap();
        let mut tab = Table::new(&[
            ("|S|", 5),
            ("expected even?", 15),
            ("2-node answer", 14),
            ("1-node answer", 14),
        ]);
        let mut all_right = true;
        for n in [0usize, 1, 2, 3, 4, 5] {
            let input = set_input(n);
            let two = run_fifo(&Network::line(2).unwrap(), &t, &input);
            let one = run_fifo(&Network::single(), &t, &input);
            assert!(two.quiescent && one.quiescent);
            let one_str = if one.output.is_empty() && n > 0 {
                "no output".to_string()
            } else {
                one.output.as_bool().to_string()
            };
            // Two nodes answer the parity. One node cannot build the
            // order, so it stays mute — unless S is empty, where the
            // order is vacuously complete and it answers `true`.
            all_right &= two.output.as_bool() == (n % 2 == 0) && one.output.as_bool() == (n == 0);
            tab.row(&[
                n.to_string(),
                (n % 2 == 0).to_string(),
                two.output.as_bool().to_string(),
                one_str,
            ]);
        }
        tab.done();
        assert!(all_right, "COR-8: a parity answer is wrong");
        println!("paper: \"On any network with at least two nodes, every PSPACE query can be");
        println!("computed by an FO-transducer\" — and the same transducer is mute on one node");
        println!("(\"not truly network-topology independent\").");
    }
}
