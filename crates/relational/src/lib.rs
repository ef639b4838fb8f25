//! # rtx-relational — the relational database kernel
//!
//! The substrate shared by every other crate in this workspace:
//! atomic data elements ([`Value`], the universe **dom**), tuples and
//! facts, finite relations, database schemas and instances, multisets of
//! facts (message buffers), and isomorphisms of **dom** (for genericity
//! checks).
//!
//! Values are interned process-wide ([`intern`]: inline small ints,
//! shared symbol/big-int tables, `u32` [`Vid`]s), and every relation
//! runs on one storage engine: small relations live in a flat unsorted
//! log and promote to flat sorted runs of value ids with galloping
//! merge set algebra ([`runs`]) on growth past [`PROMOTE_LEN`] or on
//! order demand above the [`REENTRY_LEN`] hysteresis floor. Both
//! regimes iterate in the same deterministic sorted order, which the
//! network simulator relies on for reproducible runs.
//!
//! Terminology follows Section 2 of *Ameloot, Neven, Van den Bussche,
//! "Relational transducers for declarative networking"* (PODS 2011).

#![warn(missing_docs)]

mod counted;
mod delta;
mod error;
mod fact;
mod index;
mod instance;
pub mod intern;
mod iso;
mod multiset;
mod relation;
pub mod runs;
mod schema;
mod value;

pub use counted::CountedRelation;
pub use delta::{InstanceDelta, RelationDelta};
pub use error::RelError;
pub use fact::{Fact, RelName, Tuple};
pub use index::{Index, RowHits};
pub use instance::Instance;
pub use intern::{Symbol, Vid};
pub use iso::Iso;
pub use multiset::FactMultiset;
#[doc(hidden)]
pub use relation::runs_point_writes;
pub use relation::{Relation, SpineRef, PROMOTE_LEN, REENTRY_LEN};
pub use runs::{Run, SmallTail, StorageStats};
pub use schema::Schema;
pub use value::Value;
