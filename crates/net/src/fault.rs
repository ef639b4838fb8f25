//! Fault-injection hooks for the executors.
//!
//! The paper's theorems quantify over **all** fair runs of an
//! asynchronous, unordered, duplicating network, but the executors on
//! their own only realize tame schedules (FIFO round-robin, round
//! synchrony). This module is the seam through which an adversary is
//! injected: a [`FaultHook`] decides, at deterministic points of a run,
//! the fate of every sent message copy ([`SendFate`]: extra delay,
//! duplication, loss) and the per-round status of every node
//! ([`NodeFault`]: crash, down, restart). The hook is consulted only by
//! the **coordinator** side of the round-synchronous executor — never
//! by worker shards — so fault injection composes with any
//! [`crate::ShardOptions::threads`] and [`crate::DeliveryPolicy::Batch`]
//! without breaking the serial ≡ sharded bit-identity property: all
//! fault decisions are functions of `(time, node index, edge, send
//! index)`, which are thread-count independent.
//!
//! The concrete seeded fault plans (delay distributions, partitions
//! with healing, crash schedules) live in the `rtx-chaos` crate; this
//! module only defines the hook surface plus the no-op [`NoFaults`]
//! used by the plain entry points.
//!
//! Node indices follow ascending node order (the order of
//! [`crate::Network::nodes`], which is also the order of
//! [`crate::Configuration::into_parts`]).

use rtx_relational::Fact;

/// The fate of one sent fact on one directed edge: one entry per
/// delivered copy, each with an extra delay in scheduling units
/// (rounds of the round coordinator). The empty fate drops the
/// message; more than one entry duplicates it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SendFate {
    /// Extra delay of each delivered copy, in scheduling units.
    pub delays: Vec<u64>,
}

impl SendFate {
    /// Normal delivery: one copy, no extra delay.
    pub fn deliver() -> SendFate {
        SendFate { delays: vec![0] }
    }

    /// Drop the message (no copy is ever delivered). Fairness-violating:
    /// the confluence explorer does not use this by default.
    pub fn dropped() -> SendFate {
        SendFate { delays: Vec::new() }
    }

    /// One copy, delayed by `d` scheduling units.
    pub fn delayed(d: u64) -> SendFate {
        SendFate { delays: vec![d] }
    }

    /// Several copies with explicit delays.
    pub fn copies(delays: Vec<u64>) -> SendFate {
        SendFate { delays }
    }

    /// Is this the fault-free fate (exactly one prompt copy)?
    pub fn is_prompt_single(&self) -> bool {
        self.delays.len() == 1 && self.delays[0] == 0
    }

    /// Record this fate of one copy sent `src → dst` in the trace: a
    /// `net:fault.drop` instant for a drop, a `net:fault.fate` instant
    /// for a delay or duplication, nothing for prompt delivery. The
    /// round executors call this at their merge barrier, so every
    /// executor leaves the same evidence for the same fault plan.
    pub(crate) fn trace(&self, src: usize, dst: usize) {
        if !rtx_obs::tracing() || self.is_prompt_single() {
            return;
        }
        let (src, dst) = (src as i64, dst as i64);
        if self.delays.is_empty() {
            rtx_obs::trace::instant("net", "fault.drop", &[("node", src), ("dst", dst)]);
        } else {
            let max_delay = self.delays.iter().copied().max().unwrap_or(0) as i64;
            rtx_obs::trace::instant(
                "net",
                "fault.fate",
                &[
                    ("node", src),
                    ("dst", dst),
                    ("copies", self.delays.len() as i64),
                    ("max_delay", max_delay),
                ],
            );
        }
    }
}

/// A node's fault status for one scheduling unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeFault {
    /// The node runs normally.
    Up,
    /// The crash instant: the node skips this unit, and its message
    /// buffer is dropped when `lose_buffer` is set (undelivered mail at
    /// a crashed node is gone; in-flight delayed copies survive — the
    /// network redelivers them after the restart).
    CrashNow {
        /// Drop the node's buffered messages.
        lose_buffer: bool,
    },
    /// The node is down: it performs no heartbeat and no delivery.
    Down,
    /// The restart instant: the node rejoins this unit. With
    /// `wipe_memory` its memory relations are cleared first —
    /// the *persistent-EDB* semantics (inputs and `Id`/`All` are durable,
    /// soft state is lost). Without it, the crash was a pause (the
    /// *full-state* semantics).
    RestartNow {
        /// Clear the node's memory relations before it rejoins.
        wipe_memory: bool,
    },
}

/// Decides the fate of messages and nodes at deterministic points of a
/// run. Implementations must be deterministic functions of their
/// construction parameters and the call arguments — the replay
/// guarantee of the chaos layer is exactly that determinism.
pub trait FaultHook {
    /// The fate of the `k`-th fact sent by node `src` to neighbor `dst`
    /// during scheduling unit `time`.
    fn on_send(&mut self, time: u64, src: usize, dst: usize, k: usize, fact: &Fact) -> SendFate;

    /// The status of `node` at scheduling unit `time`. Called once per
    /// node per unit, in ascending node order.
    fn node_fault(&mut self, time: u64, node: usize) -> NodeFault;

    /// The last scheduling unit with a node fault event (crash or
    /// restart). The executor refuses to declare quiescence before this
    /// horizon has passed: a future restart could still change state.
    fn quiet_after(&self) -> u64;
}

/// The no-op hook: every message is delivered promptly exactly once,
/// every node is always up.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoFaults;

impl FaultHook for NoFaults {
    fn on_send(&mut self, _t: u64, _s: usize, _d: usize, _k: usize, _f: &Fact) -> SendFate {
        SendFate::deliver()
    }

    fn node_fault(&mut self, _t: u64, _n: usize) -> NodeFault {
        NodeFault::Up
    }

    fn quiet_after(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fate_constructors() {
        assert!(SendFate::deliver().is_prompt_single());
        assert!(!SendFate::dropped().is_prompt_single());
        assert!(SendFate::dropped().delays.is_empty());
        assert_eq!(SendFate::delayed(3).delays, vec![3]);
        assert!(!SendFate::delayed(3).is_prompt_single());
        assert_eq!(SendFate::copies(vec![0, 2]).delays.len(), 2);
    }

    #[test]
    fn no_faults_is_inert() {
        let mut h = NoFaults;
        let f = rtx_relational::fact!("M", 1);
        assert!(h.on_send(7, 0, 1, 0, &f).is_prompt_single());
        assert_eq!(h.node_fault(7, 0), NodeFault::Up);
        assert_eq!(h.quiet_after(), 0);
    }
}
