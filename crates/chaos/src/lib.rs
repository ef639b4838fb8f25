//! # rtx-chaos — fault injection, adversarial schedules, and an
//! empirical eventual-consistency checker
//!
//! The paper's central results (CALM: monotone ⟺ coordination-free;
//! consistency of transducer networks) quantify over **all fair runs**
//! of an asynchronous, unordered, duplicating network — but executors
//! on their own only ever realize one tame schedule at a time. This
//! crate turns the quantifier into a test harness:
//!
//! * [`FaultPlan`] — a replayable grammar of adversarial schedules:
//!   per-edge delay/duplication/loss distributions, healing network
//!   partitions, node crash/restarts (pause vs. persistent-EDB
//!   semantics). Every concrete decision is a pure seeded draw, so any
//!   run is exactly reproducible from `(topology, program, FaultPlan,
//!   seed)`.
//! * [`FaultSession`] — a plan + seed as the fault hook of
//!   `rtx_net::run_sharded_faulted` or `rtx_net::run_sparse_faulted`:
//!   it composes with any `ShardOptions::threads` and
//!   `DeliveryPolicy::Batch` without breaking the serial ≡ sharded
//!   bit-identity property.
//! * [`explore`] — the schedule explorer: N adversarial runs (targeted
//!   heuristics plus seeded random search) with a confluence check
//!   against the fault-free reference, reporting either *consistent
//!   over N runs* or a proptest-shrunk **minimized** diverging pair of
//!   schedules. [`cross_validate`] stresses the CALM classifier's
//!   monotone verdicts against the explorer; [`explore_dedalus`] plays
//!   the same game for Dedalus programs over async fault plans.
//!
//! Environment knobs (all parsed by `rtx-core`): `RTX_CHAOS_RUNS`,
//! `RTX_CHAOS_SEED`.

#![warn(missing_docs)]

mod explore;
mod plan;
mod session;
mod strategy;

pub use explore::{
    cross_validate, directed_edges, explore, explore_dedalus, heuristic_plans, CalmCrossCheck,
    DedalusDivergence, DedalusExploreReport, Divergence, ExploreReport, ExplorerOptions,
};
pub use plan::{Crash, CrashKind, FaultPlan, LinkFaults, Partition};
pub use session::FaultSession;
pub use strategy::{Adversary, AsyncPlanStrategy, FaultPlanStrategy};
