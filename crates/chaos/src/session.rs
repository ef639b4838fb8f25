//! Fault sessions: a `(FaultPlan, seed)` pair driving the round
//! coordinator.
//!
//! [`FaultSession`] adapts a plan to `rtx_net`'s [`FaultHook`], so
//! either round schedule (any thread count, batched or not) runs under
//! it: pass `&mut session.clone()` to `rtx_net::run_sharded_faulted` or
//! `rtx_net::run_sparse_faulted`. The hook is the only way a plan
//! drives a run; the plan's scheduling units are rounds. Serial ≡
//! sharded bit-identity holds for any session (the hook is consulted
//! only at the coordinator's deterministic merge points), and the run
//! is exactly reproducible from `(net, transducer, partition, opts,
//! budget, plan, seed)`.

use crate::plan::FaultPlan;
use rtx_net::fault::{FaultHook, NodeFault, SendFate};
use rtx_relational::Fact;

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
