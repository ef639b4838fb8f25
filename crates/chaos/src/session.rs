//! Fault sessions: a `(FaultPlan, seed)` pair driving an executor.
//!
//! [`FaultSession`] adapts a plan to `rtx_net`'s [`FaultHook`], so
//! either round schedule (serial or sharded, batched or not) runs under
//! it: pass `&mut session.clone()` to `rtx_net::run_sharded_faulted` or
//! `rtx_net::run_sparse_faulted`. Serial ≡ sharded bit-identity holds
//! for any session (the hook is consulted only at the coordinator's
//! deterministic merge points), and the run is exactly reproducible
//! from `(net, transducer, partition, opts, budget, plan, seed)`.
//! [`run_scheduled_faulted`] drives the seed's fine-grained
//! scheduler-based executor under the same plan, with scheduling units
//! being *steps* instead of rounds, so fault plans compose over **both**
//! drivers.

use crate::plan::FaultPlan;
use rtx_net::fault::{FaultHook, NodeFault, SendFate};
use rtx_net::{
    Configuration, HorizontalPartition, NetError, Network, NodeId, RunBudget, RunOutcome, Scheduler,
};
use rtx_relational::{Fact, Relation};
use rtx_transducer::Transducer;
use std::collections::BTreeMap;

/// A plan plus a seed: everything needed to replay a faulted run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultSession {
    /// What can go wrong.
    pub plan: FaultPlan,
    /// Which of it actually goes wrong.
    pub seed: u64,
}

impl FaultSession {
    /// Pair a plan with a seed.
    pub fn new(plan: FaultPlan, seed: u64) -> FaultSession {
        FaultSession { plan, seed }
    }
}

impl FaultHook for FaultSession {
    fn on_send(&mut self, time: u64, src: usize, dst: usize, k: usize, fact: &Fact) -> SendFate {
        self.plan.send_fate(self.seed, time, src, dst, k, fact)
    }

    fn node_fault(&mut self, time: u64, node: usize) -> NodeFault {
        self.plan.node_fault_at(time, node)
    }

    fn quiet_after(&self) -> u64 {
        self.plan.node_event_horizon()
    }
}

/// Run the seed's scheduler-driven executor under a fault session.
///
/// This is deliberately a separate driver rather than a hook threaded
/// through `rtx_net::run`: the faulted semantics differ in kind (steps
/// as scheduling units, down nodes consuming wasted scheduler turns,
/// round-robin heartbeats while copies are in flight), and the seed's
/// driver stays the pristine reference for the paper's semantics. The
/// cost is a second copy of the quiescence/target scaffolding — the
/// confluence tests in this crate compare the two drivers' outputs, so
/// a semantic drift between them fails loudly.
///
/// Scheduling units are **steps** (global transitions), so a plan delay
/// of `d` holds a copy for `d` steps; crash windows are step windows.
/// Semantics mirror the round executor's: a down node skips its
/// scheduled transitions (the step is consumed — the adversary wasted
/// the scheduler's turn), sends are intercepted per copy, matured
/// copies are re-enqueued before each step, and quiescence is declared
/// only on a no-op stability round after the plan's node-event horizon
/// with nothing in flight.
pub fn run_scheduled_faulted(
    net: &Network,
    transducer: &Transducer,
    partition: &HorizontalPartition,
    scheduler: &mut dyn Scheduler,
    budget: &RunBudget,
    session: &FaultSession,
) -> Result<RunOutcome, NetError> {
    let mut cfg = Configuration::initial(net, transducer, partition)?;
    let nodes: Vec<NodeId> = net.nodes().cloned().collect();
    let index: BTreeMap<&NodeId, usize> = nodes.iter().enumerate().map(|(i, n)| (n, i)).collect();
    let arity = transducer.schema().output_arity();
    let mut outputs_per_node: BTreeMap<NodeId, Relation> =
        nodes.iter().map(|n| (*n, Relation::empty(arity))).collect();
    let mut output = Relation::empty(arity);
    let mut steps = 0usize;
    let mut heartbeats = 0usize;
    let mut deliveries = 0usize;
    let mut messages_enqueued = 0usize;
    let mut quiescent = false;
    let mut reached_target = false;
    // In-flight copies: maturity step → (destination, fact).
    let mut held: BTreeMap<u64, Vec<(NodeId, Fact)>> = BTreeMap::new();
    // Crash bookkeeping: whether each node's current down-phase already
    // dropped its buffer (CrashNow must fire once per crash event).
    let mut down = vec![false; nodes.len()];
    let horizon = session.plan.node_event_horizon();

    let absorb = |rec: &rtx_net::TransitionRecord,
                  output: &mut Relation,
                  outputs_per_node: &mut BTreeMap<NodeId, Relation>|
     -> Result<bool, NetError> {
        let new_out = !rec.output.is_subset(output);
        *output = output.union(&rec.output).map_err(NetError::Rel)?;
        let per = outputs_per_node.get_mut(&rec.node).expect("known node");
        *per = per.union(&rec.output).map_err(NetError::Rel)?;
        Ok(new_out)
    };

    'outer: while steps < budget.max_steps {
        let now = steps as u64;
        if let Some(target) = &budget.target_output {
            if !target.is_empty() && &output == target {
                reached_target = true;
                break;
            }
        }
        // Fault bookkeeping at this step: release matured copies, then
        // resolve node statuses.
        let due: Vec<u64> = held.range(..=now).map(|(k, _)| *k).collect();
        for k in due {
            for (dst, fact) in held.remove(&k).unwrap_or_default() {
                cfg.enqueue_fact(&dst, fact)?;
            }
        }
        for (i, n) in nodes.iter().enumerate() {
            match session.plan.node_fault_at(now, i) {
                NodeFault::Up => down[i] = false,
                NodeFault::CrashNow { lose_buffer } => {
                    if lose_buffer && !down[i] {
                        cfg.clear_buffer(n)?;
                    }
                    down[i] = true;
                }
                NodeFault::Down => down[i] = true,
                NodeFault::RestartNow { wipe_memory } => {
                    if wipe_memory && down[i] {
                        cfg.wipe_memory(transducer, n)?;
                    }
                    down[i] = false;
                }
            }
        }

        let inert = held.is_empty() && now > horizon && down.iter().all(|d| !d);
        if cfg.all_buffers_empty() && inert {
            // Stability round, exactly as in the plain driver: if a
            // whole round of heartbeats is a no-op, the configuration
            // repeats forever. Heartbeat sends still go through the
            // interceptor (a delayed copy breaks stability via `held`).
            let mut all_quiet = true;
            for n in net.node_set() {
                if steps >= budget.max_steps {
                    break 'outer;
                }
                let src = index[&n];
                let t = steps as u64;
                let mut delayed: Vec<(NodeId, u64, Fact)> = Vec::new();
                let mut intercept = |_s: &NodeId, d: &NodeId, k: usize, f: &Fact| {
                    session.plan.send_fate(session.seed, t, src, index[d], k, f)
                };
                let rec = cfg.apply_heartbeat_intercepted(
                    net,
                    transducer,
                    &n,
                    &mut intercept,
                    &mut delayed,
                )?;
                steps += 1;
                heartbeats += 1;
                messages_enqueued += rec.enqueued;
                for (dst, d, f) in delayed {
                    held.entry(t + d).or_default().push((dst, f));
                }
                let new_out = absorb(&rec, &mut output, &mut outputs_per_node)?;
                if rec.state_changed || rec.sent_facts > 0 || new_out {
                    all_quiet = false;
                }
            }
            if all_quiet && held.is_empty() {
                quiescent = true;
                break;
            }
            continue;
        }

        // One scheduled transition. When every buffer is empty but the
        // run is not inert (copies in flight or nodes down), burn a
        // heartbeat round-robin style instead of consulting the
        // scheduler with no mail anywhere.
        let action = if cfg.all_buffers_empty() {
            rtx_net::Action::Heartbeat(nodes[steps % nodes.len()])
        } else {
            scheduler.next_action(&cfg, net)
        };
        let (node, delivery_index) = match &action {
            rtx_net::Action::Heartbeat(n) => (*n, None),
            rtx_net::Action::Deliver(n, idx) => (*n, Some(*idx)),
        };
        let src = index[&node];
        if down[src] {
            // The adversary wasted this scheduler turn on a dead node.
            steps += 1;
            continue;
        }
        let t = steps as u64;
        let mut delayed: Vec<(NodeId, u64, Fact)> = Vec::new();
        let mut intercept = |_s: &NodeId, d: &NodeId, k: usize, f: &Fact| {
            session.plan.send_fate(session.seed, t, src, index[d], k, f)
        };
        let rec = match delivery_index {
            None => {
                heartbeats += 1;
                cfg.apply_heartbeat_intercepted(
                    net,
                    transducer,
                    &node,
                    &mut intercept,
                    &mut delayed,
                )?
            }
            Some(idx) => {
                deliveries += 1;
                cfg.apply_delivery_intercepted(
                    net,
                    transducer,
                    &node,
                    idx,
                    &mut intercept,
                    &mut delayed,
                )?
            }
        };
        steps += 1;
        messages_enqueued += rec.enqueued;
        for (dst, d, f) in delayed {
            held.entry(t + d).or_default().push((dst, f));
        }
        absorb(&rec, &mut output, &mut outputs_per_node)?;
    }

    if let Some(target) = &budget.target_output {
        if &output == target && (quiescent || !target.is_empty()) {
            reached_target = true;
        }
    }

    Ok(RunOutcome {
        output,
        outputs_per_node,
        steps,
        heartbeats,
        deliveries,
        messages_enqueued,
        quiescent,
        reached_target,
        final_config: cfg,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Crash, CrashKind, LinkFaults, Partition};
    use rtx_net::{run, run_sharded_faulted, FifoRoundRobin, ShardOptions};
    use rtx_query::{atom, CqBuilder, QueryRef, Term, UcqQuery};
    use rtx_relational::{fact, Instance, Schema};
    use rtx_transducer::TransducerBuilder;
    use std::sync::Arc;

    fn cq(rule: rtx_query::CqRule) -> QueryRef {
        Arc::new(UcqQuery::single(rule))
    }

    /// The dedup flooder used across the workspace's executor tests.
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

    fn delay_dup_plan() -> FaultPlan {
        let mut plan = FaultPlan::none();
        plan.default_link = LinkFaults {
            delay: (0, 3),
            dup_millis: 400,
            drop_millis: 0,
        };
        plan.partitions.push(Partition {
            side: [0].into_iter().collect(),
            from: 2,
            heal: 7,
        });
        plan
    }

    #[test]
    fn scheduled_faulted_run_is_replayable_and_confluent_here() {
        let net = Network::ring(5).unwrap();
        let t = dedup_flooder();
        let p = HorizontalPartition::round_robin(&net, &input_s(&[10, 20, 30]));
        let budget = RunBudget::steps(50_000);
        let clean = run(&net, &t, &p, &mut FifoRoundRobin::new(), &budget).unwrap();
        let session = FaultSession::new(delay_dup_plan(), 0xFA57);
        let a = run_scheduled_faulted(&net, &t, &p, &mut FifoRoundRobin::new(), &budget, &session)
            .unwrap();
        let b = run_scheduled_faulted(&net, &t, &p, &mut FifoRoundRobin::new(), &budget, &session)
            .unwrap();
        assert!(a.quiescent, "fair faults cannot prevent quiescence here");
        assert_eq!(a.steps, b.steps, "replay must agree step for step");
        assert_eq!(a.output, b.output);
        assert_eq!(a.final_config, b.final_config);
        assert_eq!(a.output, clean.output, "the flooder is confluent");
    }

    #[test]
    fn round_faulted_run_matches_scheduled_outputs() {
        let net = Network::grid(3, 2).unwrap();
        let t = dedup_flooder();
        let p = HorizontalPartition::round_robin(&net, &input_s(&[1, 2, 3, 4]));
        let budget = RunBudget::steps(100_000);
        let session = FaultSession::new(delay_dup_plan(), 99);
        let opts = ShardOptions::serial();
        let round =
            run_sharded_faulted(&net, &t, &p, &opts, &budget, &mut session.clone()).unwrap();
        let sched =
            run_scheduled_faulted(&net, &t, &p, &mut FifoRoundRobin::new(), &budget, &session)
                .unwrap();
        assert!(round.outcome.quiescent && sched.quiescent);
        assert_eq!(round.outcome.output, sched.output);
    }

    #[test]
    fn pause_crash_preserves_everything_on_scheduler_driver() {
        let net = Network::line(4).unwrap();
        let t = dedup_flooder();
        let p = HorizontalPartition::round_robin(&net, &input_s(&[1, 2, 3]));
        let budget = RunBudget::steps(50_000);
        let clean = run(&net, &t, &p, &mut FifoRoundRobin::new(), &budget).unwrap();
        let mut plan = FaultPlan::none();
        plan.crashes.push(Crash {
            node: 1,
            at: 4,
            restart: Some(40),
            kind: CrashKind::Pause,
        });
        let session = FaultSession::new(plan, 1);
        let out =
            run_scheduled_faulted(&net, &t, &p, &mut FifoRoundRobin::new(), &budget, &session)
                .unwrap();
        assert!(out.quiescent);
        assert_eq!(out.output, clean.output);
    }

    #[test]
    fn persistent_edb_crash_wipes_soft_state() {
        // Crash the middle node of a line while it holds forwarded
        // facts: its memory is wiped at restart — on the (non-monotone)
        // dedup flooder this can lose dissemination to one side, but
        // the node's own persistent input is resent after restart.
        let net = Network::line(3).unwrap();
        let t = dedup_flooder();
        let full = input_s(&[7]);
        let p = HorizontalPartition::concentrate(&net, &full, &NodeId::sym("n1")).unwrap();
        let mut plan = FaultPlan::none();
        plan.crashes.push(Crash {
            node: 1,
            at: 2,
            restart: Some(10),
            kind: CrashKind::PersistentEdb,
        });
        let session = FaultSession::new(plan, 3);
        let budget = RunBudget::steps(50_000);
        let out =
            run_scheduled_faulted(&net, &t, &p, &mut FifoRoundRobin::new(), &budget, &session)
                .unwrap();
        assert!(out.quiescent);
        // the owner's own input persists and is re-flooded after the
        // restart, so the fact still reaches everyone
        assert_eq!(out.output.len(), 1);
        for per in out.outputs_per_node.values() {
            assert_eq!(per.len(), 1);
        }
    }
}
