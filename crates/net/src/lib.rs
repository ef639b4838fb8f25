//! # rtx-net — transducer networks
//!
//! The operational semantics of the paper (Section 3): a copy of one
//! transducer runs at every node of a finite connected undirected graph;
//! nodes exchange facts through multiset message buffers; the system
//! evolves by *heartbeat* transitions (a node steps without reading) and
//! *delivery* transitions (a node reads a single buffered fact); sent
//! facts are enqueued at every neighbor.
//!
//! Nondeterminism (which node moves, which fact is delivered) lives in
//! pluggable, seeded [`Scheduler`]s — FIFO round-robin, LIFO, and random
//! — so the consistency analyses of `rtx-calm` can quantify over delivery
//! orders reproducibly.
//!
//! Two drivers run a network:
//!
//! * [`run`] — the seed's serial driver: one global transition at a
//!   time, delivery order chosen by a [`Scheduler`].
//! * the round coordinator: each round heartbeats the scheduled nodes
//!   and delivers the oldest buffered fact of every node with mail, with
//!   the per-node steps computed across [`ShardOptions::threads`] worker
//!   shards; results are bit-identical across thread counts. Under a
//!   [`FaultHook`] (the `*_faulted` entry points) it is also the one
//!   driver of faulted runs. Both schedules park a node after a quiet
//!   heartbeat and arm it again only on a state change or a restart
//!   ([`ActivationSet`]); the entry points choose what becomes of a
//!   parked node's heartbeat: [`run_sharded`] heartbeats every up node
//!   every round (the FIFO round-synchronous runs of Theorem 16) and
//!   answers the parked ones without stepping them, while
//!   [`run_sparse`] skips them and schedules only armed, cold or
//!   mailed nodes — same outputs and quiescence verdict on confluent
//!   machines, ≥10× fewer node-steps when the active frontier is small
//!   (see the [`sparse`] module docs for the parking model).

#![warn(missing_docs)]

mod config;
mod error;
pub mod fault;
mod partition;
mod run;
mod shard;
pub mod sparse;
mod topology;

pub use config::{ActivationSet, Configuration, TransitionKind, TransitionLog, TransitionRecord};
pub use error::NetError;
pub use fault::{FaultHook, NoFaults, NodeFault, SendFate};
pub use partition::HorizontalPartition;
pub use run::{
    run, run_from, run_heartbeats_only, Action, FifoRoundRobin, HeartbeatOnlyOutcome,
    LifoRoundRobin, RandomScheduler, RunBudget, RunOutcome, Scheduler,
};
pub use shard::{
    run_sharded, run_sharded_faulted, run_sharded_faulted_from, run_sharded_from, DeliveryPolicy,
    ShardOptions, ShardRunOutcome,
};
pub use sparse::{run_sparse, run_sparse_faulted, run_sparse_faulted_from, run_sparse_from};
pub use topology::{Network, NodeId};
