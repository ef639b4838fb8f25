//! # rtx-query — query languages over the relational kernel
//!
//! The paper's transducer model is parameterized by a local query
//! language `L`. This crate supplies every `L` the paper uses:
//!
//! * [`fo`] — first-order logic under the active-domain semantics (the
//!   default transducer language), compiled to a nonrecursive
//!   stratified Datalog program;
//! * [`cq`] — conjunctive queries and UCQ¬ (Proposition 7,
//!   Corollary 14(3)), as nonrecursive Datalog rules;
//! * [`datalog`] — Datalog with stratified negation, semi-naive
//!   bottom-up evaluation, plus the immediate-consequence operator `T_P`
//!   (Theorem 6(5));
//! * [`while_lang`] — the *while* language (Lemma 5(3), Theorem 6(3,4));
//! * [`native`] — arbitrary Rust functions, modelling a computationally
//!   complete `L` (Theorem 6(1,2), Corollary 14(1));
//! * [`view`] — query composition through materialized views (used by
//!   every Theorem 6 construction);
//! * [`parser`] — text syntax for Datalog programs and FO formulas, and
//!   the one rule grammar the Dedalus parser shares.
//!
//! FO, UCQ¬ and Datalog are all rules ([`Rule`]), fired by one function
//! on one join executor. Everything implements the [`Query`] trait and
//! can be plugged into a transducer.

#![warn(missing_docs)]

pub mod combinator;
pub mod cq;
pub mod datalog;
mod error;
pub mod fo;
pub(crate) mod frame;
pub mod incremental;
pub mod magic;
pub mod native;
pub mod parser;
pub mod plan;
mod query;
pub mod term;
pub mod view;
pub mod while_lang;

pub use combinator::{GatedQuery, UnionQuery};
pub use cq::{CqBuilder, UcqQuery};
pub use datalog::{DatalogQuery, Literal, Program, Rule, TpQuery};
pub use error::EvalError;
pub use fo::{FoQuery, Formula};
pub use incremental::{FixpointStats, MaintainedFixpoint};
pub use magic::MagicQuery;
pub use native::NativeQuery;
pub use query::{CopyQuery, EmptyQuery, Query, QueryRef};
pub use term::{Atom, Term, Var};
pub use view::ViewQuery;
pub use while_lang::{Guard, Stmt, WhileProgram, WhileQuery};
