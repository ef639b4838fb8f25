//! # rtx-dedalus — Datalog in time and space
//!
//! The language of Section 8 of the paper: Datalog with negation where
//! every predicate implicitly carries a timestamp; *deductive* rules stay
//! within a tick, *inductive* rules step to the successor timestamp, and
//! *asynchronous* rules deliver at a nondeterministically chosen later
//! tick. Timestamps may be captured as data (*entanglement*) — the
//! feature that makes Dedalus "quite powerful": [`tm::compile_tm`]
//! realizes Theorem 18's eventually-consistent Turing machine simulation,
//! cross-validated against the direct interpreter in `rtx-machine`.

#![warn(missing_docs)]

mod ast;
mod eval;
pub mod parser;
pub mod tm;

pub use ast::{DRule, DTime, DedalusProgram, CLOCK};
pub use eval::{run_dedalus, AsyncFaultPlan, DedalusOptions, DedalusRuntime, TemporalFacts, Trace};
pub use parser::parse_dedalus;
pub use tm::{compile_tm, simulate_instance, simulate_word, InputSchedule, Thm18Outcome};
