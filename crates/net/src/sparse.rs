//! Event-driven sparse execution for huge networks.
//!
//! The dense round schedule ([`crate::run_sharded`]) heartbeats every
//! node every round. That is faithful and simple, but on a million-node
//! network with a hundred active nodes it pays 10⁶ steps per round for
//! 10² steps of progress, even though it answers the heartbeats of
//! parked nodes without stepping them. The sparse schedule
//! ([`run_sparse`]) runs on the same round coordinator, parks nodes by
//! the same rule, and skips a parked node's heartbeat altogether: only
//! nodes that are *armed* (their next heartbeat might do something),
//! *cold* (have not heartbeat yet) or have *mail* (undelivered buffered
//! facts) are scheduled.
//!
//! The work queue is a deterministic priority queue — the armed, cold
//! and mail sets of [`ActivationSet`](crate::ActivationSet), ordered by
//! node index — and its jobs are dispatched to the same worker shards
//! as the dense schedule's, so thread count still never affects
//! results.
//!
//! ## Soundness of parking
//!
//! A heartbeat is a pure function of the node's own state. If a
//! heartbeat changed no state and sent nothing, then — until that
//! node's state changes — every further heartbeat repeats it: no state
//! change, no sends, the same output, which was accumulated the first
//! time. So the node can park. Its state can only change through one of
//! its own transitions, or through a fault that wipes its memory;
//! therefore arming on (a) every transition that changed the node's
//! state and (b) every restart or heal preserves the invariant:
//!
//! > **a parked node's next heartbeat is provably a no-op.**
//!
//! Mail does not arm a node, and neither does a delivery that leaves
//! its state as it was. Two corollaries drive the schedule:
//!
//! * **No starvation.** Every node with undelivered mail is offered a
//!   delivery every round, whether parked or not — exactly the fairness
//!   property the paper's runs require.
//! * **O(active) quiescence certification.** When no node is cold or
//!   armed, no node has mail, nothing is in flight, and the fault
//!   horizon has passed, the configuration repeats forever. The
//!   stability probe is a set-emptiness check — it never wakes the
//!   whole network.
//!
//! Cold nodes are scheduled by a warm-up sweep: every node must
//! heartbeat at least once before it may park, since an initial state
//! can produce output or sends on its own. The coordinator takes the
//! lowest-index cold up nodes, at most 1% of the network per round, so
//! warm-up costs exactly `n` heartbeats in total but never floods a
//! single phase.
//!
//! The price is that the sparse schedule is *not* step-for-step
//! identical to the dense one: it skips the parked heartbeats the dense
//! schedule answers, so step counters and transition logs differ.
//! Outputs, per-node outputs, and the quiescence verdict agree with the
//! fair serial reference on confluent transducers — property-tested in
//! `tests/sparse.rs` across random topologies, thread counts, budgets,
//! and fault plans.

use crate::config::Configuration;
use crate::error::NetError;
use crate::fault::FaultHook;
use crate::partition::HorizontalPartition;
use crate::run::RunBudget;
use crate::shard::{run_rounds, Schedule, ShardOptions, ShardRunOutcome};
use crate::topology::Network;
use rtx_transducer::Transducer;

/// Drive an event-driven sparse run of `(net, transducer)` from the
/// initial configuration for `partition`.
///
/// Accepts the same [`ShardOptions`] as [`crate::run_sharded`]
/// (thread count, per-round delivery batching, transition log) and the
/// same [`RunBudget`] semantics: `max_steps`
/// counts executed transitions, phases truncate in node order,
/// `steps ≤ max_steps` always holds.
pub fn run_sparse(
    net: &Network,
    transducer: &Transducer,
    partition: &HorizontalPartition,
    opts: &ShardOptions,
    budget: &RunBudget,
) -> Result<ShardRunOutcome, NetError> {
    let cfg = Configuration::initial(net, transducer, partition)?;
    run_sparse_from(net, transducer, cfg, opts, budget)
}

/// [`run_sparse`] from an explicit configuration (pair with
/// [`Configuration::initial_lean`] at large scales).
pub fn run_sparse_from(
    net: &Network,
    transducer: &Transducer,
    cfg: Configuration,
    opts: &ShardOptions,
    budget: &RunBudget,
) -> Result<ShardRunOutcome, NetError> {
    run_rounds(net, transducer, cfg, opts, budget, None, Schedule::Sparse)
}

/// [`run_sparse`] under fault injection. Fault events feed the
/// activation tracker: released in-flight copies mark mail, restarted
/// (and memory-wiped) and healed nodes are armed, lost buffers drop
/// their mail marks — so adversarial fault plans drive the sparse
/// schedule exactly like the dense one.
pub fn run_sparse_faulted(
    net: &Network,
    transducer: &Transducer,
    partition: &HorizontalPartition,
    opts: &ShardOptions,
    budget: &RunBudget,
    faults: &mut dyn FaultHook,
) -> Result<ShardRunOutcome, NetError> {
    let cfg = Configuration::initial(net, transducer, partition)?;
    run_sparse_faulted_from(net, transducer, cfg, opts, budget, faults)
}

/// [`run_sparse_faulted`] from an explicit configuration.
pub fn run_sparse_faulted_from(
    net: &Network,
    transducer: &Transducer,
    cfg: Configuration,
    opts: &ShardOptions,
    budget: &RunBudget,
    faults: &mut dyn FaultHook,
) -> Result<ShardRunOutcome, NetError> {
    let schedule = Schedule::Sparse;
    run_rounds(net, transducer, cfg, opts, budget, Some(faults), schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{NodeFault, SendFate};
    use crate::shard::DeliveryPolicy;
    use crate::{run_sharded, run_sharded_faulted, NodeId};
    use rtx_query::{atom, CqBuilder, QueryRef, Term, UcqQuery};
    use rtx_relational::{fact, Instance, Schema};
    use rtx_relational::{Fact, Relation};
    use rtx_transducer::TransducerBuilder;
    use std::sync::Arc;

    fn cq(rule: rtx_query::Rule) -> QueryRef {
        Arc::new(UcqQuery::single(rule))
    }

    /// Deduplicating flooder (same machine as the shard.rs tests).
    fn dedup_flooder() -> Transducer {
        let send = UcqQuery::new(
            1,
            vec![
                CqBuilder::head(vec![Term::var("X")])
                    .when(atom!("S"; @"X"))
                    .unless(atom!("T"; @"X"))
                    .build()
                    .unwrap(),
                CqBuilder::head(vec![Term::var("X")])
                    .when(atom!("M"; @"X"))
                    .unless(atom!("T"; @"X"))
                    .build()
                    .unwrap(),
            ],
        )
        .unwrap();
        let store = UcqQuery::new(
            1,
            vec![
                CqBuilder::head(vec![Term::var("X")])
                    .when(atom!("S"; @"X"))
                    .build()
                    .unwrap(),
                CqBuilder::head(vec![Term::var("X")])
                    .when(atom!("M"; @"X"))
                    .build()
                    .unwrap(),
            ],
        )
        .unwrap();
        TransducerBuilder::new("dedup-flooder")
            .input_relation("S", 1)
            .message_relation("M", 1)
            .memory_relation("T", 1)
            .output_arity(1)
            .send("M", Arc::new(send))
            .insert("T", Arc::new(store))
            .output(cq(CqBuilder::head(vec![Term::var("X")])
                .when(atom!("T"; @"X"))
                .build()
                .unwrap()))
            .build()
            .unwrap()
    }

    fn input_s(vals: &[i64]) -> Instance {
        Instance::from_facts(
            Schema::new().with("S", 1),
            vals.iter().map(|&v| fact!("S", v)).collect::<Vec<_>>(),
        )
        .unwrap()
    }

    #[test]
    fn sparse_matches_dense_output_and_quiescence() {
        let t = dedup_flooder();
        for net in [
            Network::line(6).unwrap(),
            Network::ring(7).unwrap(),
            Network::grid(3, 4).unwrap(),
        ] {
            let p = HorizontalPartition::round_robin(&net, &input_s(&[1, 2, 3, 4]));
            let budget = RunBudget::steps(200_000);
            let dense = run_sharded(&net, &t, &p, &ShardOptions::serial(), &budget).unwrap();
            let sparse = run_sparse(&net, &t, &p, &ShardOptions::serial(), &budget).unwrap();
            assert!(dense.outcome.quiescent && sparse.outcome.quiescent);
            assert_eq!(sparse.outcome.output, dense.outcome.output);
            assert_eq!(
                sparse.outcome.outputs_per_node,
                dense.outcome.outputs_per_node
            );
            assert!(
                sparse.outcome.steps <= dense.outcome.steps,
                "sparse must not do more work than dense"
            );
        }
    }

    #[test]
    fn sparse_sharded_matches_sparse_serial_bit_for_bit() {
        let net = Network::ring(6).unwrap();
        let t = dedup_flooder();
        let p = HorizontalPartition::round_robin(&net, &input_s(&[10, 20, 30, 40]));
        let budget = RunBudget::steps(100_000);
        let serial = run_sparse(&net, &t, &p, &ShardOptions::serial().with_log(), &budget).unwrap();
        assert!(serial.outcome.quiescent);
        for threads in [2, 3, 4, 8] {
            let opts = ShardOptions::sharded(threads).with_log();
            let sharded = run_sparse(&net, &t, &p, &opts, &budget).unwrap();
            assert_eq!(sharded.log, serial.log, "threads={threads}");
            assert_eq!(sharded.outcome.final_config, serial.outcome.final_config);
            assert_eq!(sharded.outcome.steps, serial.outcome.steps);
            assert_eq!(sharded.rounds, serial.rounds);
            assert_eq!(sharded.max_active, serial.max_active);
        }
    }

    #[test]
    fn sparse_parks_idle_nodes_on_a_long_line() {
        // One seeded fact at the end of a 100-node line: the active
        // frontier is the BFS wave, never the whole network.
        let net = Network::line(100).unwrap();
        let t = dedup_flooder();
        let p = HorizontalPartition::concentrate(&net, &input_s(&[5]), &NodeId::sym("n0")).unwrap();
        let budget = RunBudget::steps(1_000_000);
        let dense = run_sharded(&net, &t, &p, &ShardOptions::serial(), &budget).unwrap();
        let sparse = run_sparse(&net, &t, &p, &ShardOptions::serial(), &budget).unwrap();
        assert!(dense.outcome.quiescent && sparse.outcome.quiescent);
        assert_eq!(sparse.outcome.output, dense.outcome.output);
        assert_eq!(dense.max_active, 100, "dense heartbeats everyone");
        assert!(
            sparse.max_active <= 8,
            "sparse frontier stayed tiny, got {}",
            sparse.max_active
        );
        assert!(
            sparse.outcome.steps * 10 <= dense.outcome.steps,
            "expected >=10x fewer node-steps: sparse={} dense={}",
            sparse.outcome.steps,
            dense.outcome.steps
        );
    }

    #[test]
    fn sparse_respects_step_budget() {
        let net = Network::line(5).unwrap();
        let t = dedup_flooder();
        let p = HorizontalPartition::round_robin(&net, &input_s(&[1, 2, 3, 4]));
        for cap in [1usize, 3, 7] {
            let budget = RunBudget::steps(cap);
            let out = run_sparse(&net, &t, &p, &ShardOptions::serial(), &budget).unwrap();
            assert!(out.outcome.steps <= cap);
            assert!(!out.outcome.quiescent);
            // Truncation is deterministic across thread counts too.
            let sharded = run_sparse(&net, &t, &p, &ShardOptions::sharded(3), &budget).unwrap();
            assert_eq!(sharded.outcome.final_config, out.outcome.final_config);
        }
    }

    #[test]
    fn sparse_honours_delivery_batching() {
        let net = Network::grid(3, 3).unwrap();
        let t = dedup_flooder();
        let p = HorizontalPartition::round_robin(&net, &input_s(&[1, 2, 3, 4, 5]));
        let budget = RunBudget::steps(200_000);
        let base = run_sparse(&net, &t, &p, &ShardOptions::serial(), &budget).unwrap();
        let opts = ShardOptions::serial().with_delivery(DeliveryPolicy::Batch(4));
        let out = run_sparse(&net, &t, &p, &opts, &budget).unwrap();
        assert!(out.outcome.quiescent);
        assert_eq!(out.outcome.output, base.outcome.output);
    }

    #[test]
    fn sparse_target_output_stops_early() {
        let net = Network::line(3).unwrap();
        let t = dedup_flooder();
        let p = HorizontalPartition::concentrate(&net, &input_s(&[5]), &NodeId::sym("n0")).unwrap();
        let target = Relation::from_tuples(1, vec![rtx_relational::tuple![5]]).unwrap();
        let budget = RunBudget::steps(10_000).until_output(target);
        let out = run_sparse(&net, &t, &p, &ShardOptions::serial(), &budget).unwrap();
        assert!(out.outcome.reached_target);
    }

    /// Same hand-written hook as the shard.rs tests: delays on edge
    /// (0→1), duplication into node 2, crash/restart of node 3.
    struct TestHook;
    impl FaultHook for TestHook {
        fn on_send(&mut self, _t: u64, src: usize, dst: usize, _k: usize, _f: &Fact) -> SendFate {
            if src == 0 && dst == 1 {
                SendFate::delayed(2)
            } else if dst == 2 {
                SendFate::copies(vec![0, 0])
            } else {
                SendFate::deliver()
            }
        }
        fn node_fault(&mut self, t: u64, node: usize) -> NodeFault {
            match (node, t) {
                (3, 2) => NodeFault::CrashNow { lose_buffer: true },
                (3, 3) => NodeFault::Down,
                (3, 4) => NodeFault::RestartNow { wipe_memory: true },
                _ => NodeFault::Up,
            }
        }
        fn quiet_after(&self) -> u64 {
            4
        }
    }

    #[test]
    fn sparse_faulted_matches_dense_faulted_outcome() {
        let net = Network::ring(6).unwrap();
        let t = dedup_flooder();
        let p = HorizontalPartition::round_robin(&net, &input_s(&[10, 20, 30, 40]));
        let budget = RunBudget::steps(100_000);
        let dense = run_sharded_faulted(
            &net,
            &t,
            &p,
            &ShardOptions::serial(),
            &budget,
            &mut TestHook,
        )
        .unwrap();
        let sparse = run_sparse_faulted(
            &net,
            &t,
            &p,
            &ShardOptions::serial(),
            &budget,
            &mut TestHook,
        )
        .unwrap();
        assert!(dense.outcome.quiescent && sparse.outcome.quiescent);
        assert_eq!(sparse.outcome.output, dense.outcome.output);
        assert_eq!(
            sparse.outcome.outputs_per_node,
            dense.outcome.outputs_per_node
        );
        // And the sparse faulted run replays bit-identically across
        // thread counts.
        let serial_log = run_sparse_faulted(
            &net,
            &t,
            &p,
            &ShardOptions::serial().with_log(),
            &budget,
            &mut TestHook,
        )
        .unwrap();
        for threads in [2, 4] {
            let sharded = run_sparse_faulted(
                &net,
                &t,
                &p,
                &ShardOptions::sharded(threads).with_log(),
                &budget,
                &mut TestHook,
            )
            .unwrap();
            assert_eq!(sharded.log, serial_log.log, "threads={threads}");
            assert_eq!(
                sharded.outcome.final_config,
                serial_log.outcome.final_config
            );
        }
    }

    #[test]
    fn sparse_dead_forever_network_terminates_without_quiescence() {
        struct AllDown;
        impl FaultHook for AllDown {
            fn on_send(&mut self, _: u64, _: usize, _: usize, _: usize, _: &Fact) -> SendFate {
                SendFate::deliver()
            }
            fn node_fault(&mut self, t: u64, _n: usize) -> NodeFault {
                if t == 1 {
                    NodeFault::CrashNow { lose_buffer: true }
                } else {
                    NodeFault::Down
                }
            }
            fn quiet_after(&self) -> u64 {
                1
            }
        }
        let net = Network::line(3).unwrap();
        let t = dedup_flooder();
        let p = HorizontalPartition::round_robin(&net, &input_s(&[1, 2]));
        let out = run_sparse_faulted(
            &net,
            &t,
            &p,
            &ShardOptions::serial(),
            &RunBudget::steps(100_000),
            &mut AllDown,
        )
        .unwrap();
        assert!(!out.outcome.quiescent);
        assert_eq!(out.outcome.steps, 0, "no node ever transitioned");
    }

    #[test]
    fn sparse_restart_rearms_wiped_node() {
        // Crash node 1 before it can store anything, restart it with
        // memory wiped after the flood has passed: re-arming on restart
        // must wake it so the still-buffered mail reaches it.
        struct CrashMiddle;
        impl FaultHook for CrashMiddle {
            fn on_send(&mut self, _: u64, _: usize, _: usize, _: usize, _: &Fact) -> SendFate {
                SendFate::deliver()
            }
            fn node_fault(&mut self, t: u64, node: usize) -> NodeFault {
                match (node, t) {
                    (1, 1..=5) => NodeFault::Down,
                    (1, 6) => NodeFault::RestartNow { wipe_memory: true },
                    _ => NodeFault::Up,
                }
            }
            fn quiet_after(&self) -> u64 {
                6
            }
        }
        let net = Network::line(3).unwrap();
        let t = dedup_flooder();
        let p = HorizontalPartition::concentrate(&net, &input_s(&[9]), &NodeId::sym("n0")).unwrap();
        let budget = RunBudget::steps(100_000);
        let out = run_sparse_faulted(
            &net,
            &t,
            &p,
            &ShardOptions::serial(),
            &budget,
            &mut CrashMiddle,
        )
        .unwrap();
        assert!(out.outcome.quiescent);
        assert_eq!(out.outcome.output.len(), 1);
        for per in out.outcome.outputs_per_node.values() {
            assert_eq!(
                per.len(),
                1,
                "every node, including the wiped one, caught up"
            );
        }
    }

    /// The fixpoint a quiescent verdict certifies: every buffer is
    /// empty, and one more heartbeat at any node changes no state and
    /// sends nothing.
    fn assert_fixpoint(net: &Network, t: &Transducer, cfg: &Configuration) {
        let silence = Instance::empty(t.schema().message().clone());
        for node in net.nodes() {
            assert!(cfg.buffer(node).is_empty(), "{node} still has mail");
            let res = t.step(cfg.state(node).unwrap(), &silence).unwrap();
            assert!(!res.state_changed, "{node}'s heartbeat changes its state");
            assert!(res.sent.is_empty(), "{node}'s heartbeat sends");
        }
    }

    #[test]
    fn sparse_restart_rearms_parked_wiped_node() {
        // All input at n0, which has long parked when it crashes at
        // round 6; its restart at round 8 wipes its memory. Its input
        // is durable, so its next heartbeat stores and resends it:
        // quiescence may only be declared once that has happened.
        struct WipeOrigin;
        impl FaultHook for WipeOrigin {
            fn on_send(&mut self, _: u64, _: usize, _: usize, _: usize, _: &Fact) -> SendFate {
                SendFate::deliver()
            }
            fn node_fault(&mut self, t: u64, node: usize) -> NodeFault {
                match (node, t) {
                    (0, 6) => NodeFault::CrashNow { lose_buffer: true },
                    (0, 7) => NodeFault::Down,
                    (0, 8) => NodeFault::RestartNow { wipe_memory: true },
                    _ => NodeFault::Up,
                }
            }
            fn quiet_after(&self) -> u64 {
                8
            }
        }
        let net = Network::line(3).unwrap();
        let t = dedup_flooder();
        let p = HorizontalPartition::concentrate(&net, &input_s(&[1, 2, 3]), &NodeId::sym("n0"))
            .unwrap();
        let budget = RunBudget::steps(100_000);
        let opts = ShardOptions::serial();
        let sparse = run_sparse_faulted(&net, &t, &p, &opts, &budget, &mut WipeOrigin).unwrap();
        let dense = run_sharded_faulted(&net, &t, &p, &opts, &budget, &mut WipeOrigin).unwrap();
        for out in [&sparse, &dense] {
            assert!(out.outcome.quiescent);
            assert_eq!(out.outcome.output.len(), 3);
            assert_fixpoint(&net, &t, &out.outcome.final_config);
        }
    }

    #[test]
    fn sparse_lean_initial_config_agrees_on_oblivious_machines() {
        let net = Network::grid(3, 3).unwrap();
        let t = dedup_flooder();
        let p = HorizontalPartition::round_robin(&net, &input_s(&[1, 2, 3]));
        let budget = RunBudget::steps(200_000);
        let eager = run_sparse(&net, &t, &p, &ShardOptions::serial(), &budget).unwrap();
        let lean_cfg = Configuration::initial_lean(&net, &t, &p).unwrap();
        let lean = run_sparse_from(&net, &t, lean_cfg, &ShardOptions::serial(), &budget).unwrap();
        assert!(lean.outcome.quiescent);
        assert_eq!(lean.outcome.output, eager.outcome.output);
        assert_eq!(
            lean.outcome.outputs_per_node,
            eager.outcome.outputs_per_node
        );
    }
}
