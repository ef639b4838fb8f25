//! Transducer schemas.
//!
//! A transducer schema is a tuple `(S_in, S_sys, S_msg, S_mem, k)` of four
//! disjoint database schemas and an output arity (paper, Section 2.1).
//! Following the paper's proviso (Section 3), the system schema is fixed
//! to the two unary relations `Id` and `All`.

use rtx_relational::{Fact, Instance, RelError, RelName, Relation, Schema, Tuple, Value};
use std::collections::BTreeSet;
use std::fmt;

/// Name of the system relation holding the node's own identifier.
pub const SYS_ID: &str = "Id";
/// Name of the system relation holding all node identifiers.
pub const SYS_ALL: &str = "All";

/// The fixed system schema `{Id/1, All/1}`.
pub fn system_schema() -> Schema {
    Schema::new().with(SYS_ID, 1).with(SYS_ALL, 1)
}

/// A transducer schema `(S_in, S_sys, S_msg, S_mem, k)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TransducerSchema {
    input: Schema,
    message: Schema,
    memory: Schema,
    output_arity: usize,
    /// `S_in ∪ S_sys ∪ S_mem`, computed once at construction.
    state: Schema,
    /// `S_in ∪ S_sys ∪ S_msg ∪ S_mem`, computed once at construction.
    combined: Schema,
    /// The names `Id` and `All`, built once: every node's initial state
    /// uses them.
    id_name: RelName,
    all_name: RelName,
}

impl TransducerSchema {
    /// Build and validate: the four schemas (input, system, message,
    /// memory) must be pairwise disjoint.
    pub fn new(
        input: Schema,
        message: Schema,
        memory: Schema,
        output_arity: usize,
    ) -> Result<Self, RelError> {
        // Each disjoint union checks one part against all the earlier
        // ones, so the chain checks every pair, system included.
        let state = input
            .disjoint_union(&system_schema())?
            .disjoint_union(&memory)?;
        let combined = state.disjoint_union(&message)?;
        Ok(TransducerSchema {
            input,
            message,
            memory,
            output_arity,
            state,
            combined,
            id_name: RelName::new(SYS_ID),
            all_name: RelName::new(SYS_ALL),
        })
    }

    /// The input schema `S_in`.
    pub fn input(&self) -> &Schema {
        &self.input
    }

    /// The message schema `S_msg`.
    pub fn message(&self) -> &Schema {
        &self.message
    }

    /// The memory schema `S_mem`.
    pub fn memory(&self) -> &Schema {
        &self.memory
    }

    /// The output arity `k`.
    pub fn output_arity(&self) -> usize {
        self.output_arity
    }

    /// The state schema `S_in ∪ S_sys ∪ S_mem` — what a node stores
    /// between transitions.
    pub fn state_schema(&self) -> &Schema {
        &self.state
    }

    /// The combined schema `S_in ∪ S_sys ∪ S_msg ∪ S_mem` — what the
    /// transducer's queries see (`I' = I ∪ I_rcv`).
    pub fn combined_schema(&self) -> &Schema {
        &self.combined
    }

    /// Build the initial state of a node: its local input fragment, `Id`
    /// and `All` filled in, memory empty (paper, Section 4: initial
    /// configurations have empty memory and empty buffers).
    pub fn initial_state(
        &self,
        local_input: &Instance,
        me: &Value,
        all_nodes: &BTreeSet<Value>,
    ) -> Result<Instance, RelError> {
        self.initial_state_with_all(local_input, me, &all_relation(all_nodes))
    }

    /// [`TransducerSchema::initial_state`] with `All` given as a built
    /// relation, which the state shares by handle. A configuration
    /// builds `All` once and hands every node a clone, so setting up
    /// `n` nodes costs one `All`, not `n` of them.
    pub fn initial_state_with_all(
        &self,
        local_input: &Instance,
        me: &Value,
        all: &Relation,
    ) -> Result<Instance, RelError> {
        let mut state = local_input.widen(self.state.clone())?;
        state.insert_fact(Fact::new(self.id_name.clone(), Tuple::new(vec![*me])))?;
        state.union_relation(&self.all_name, all)?;
        Ok(state)
    }
}

/// The `All` relation over a node set, built in one bulk construction.
pub fn all_relation(all_nodes: &BTreeSet<Value>) -> Relation {
    Relation::from_tuples(1, all_nodes.iter().map(|v| Tuple::new(vec![*v]))).expect("unary tuples")
}

impl fmt::Display for TransducerSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "(in: {}, sys: {}, msg: {}, mem: {}, k={})",
            self.input,
            system_schema(),
            self.message,
            self.memory,
            self.output_arity
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtx_relational::fact;

    fn sch() -> TransducerSchema {
        TransducerSchema::new(
            Schema::new().with("R", 2),
            Schema::new().with("M", 2),
            Schema::new().with("T", 2),
            1,
        )
        .unwrap()
    }

    #[test]
    fn disjointness_enforced() {
        // input and memory share a name
        assert!(TransducerSchema::new(
            Schema::new().with("R", 2),
            Schema::new(),
            Schema::new().with("R", 2),
            0,
        )
        .is_err());
        // clash with the system schema
        assert!(TransducerSchema::new(
            Schema::new().with(SYS_ID, 1),
            Schema::new(),
            Schema::new(),
            0,
        )
        .is_err());
        assert!(TransducerSchema::new(
            Schema::new(),
            Schema::new().with(SYS_ALL, 1),
            Schema::new(),
            0,
        )
        .is_err());
    }

    #[test]
    fn state_and_combined_schemas() {
        let s = sch();
        let st = s.state_schema();
        assert!(st.contains(&"R".into()));
        assert!(st.contains(&SYS_ID.into()));
        assert!(st.contains(&SYS_ALL.into()));
        assert!(st.contains(&"T".into()));
        assert!(!st.contains(&"M".into()));
        let c = s.combined_schema();
        assert!(c.contains(&"M".into()));
        assert_eq!(c.len(), 5);
    }

    #[test]
    fn initial_state_fills_system_relations() {
        let s = sch();
        let input =
            Instance::from_facts(Schema::new().with("R", 2), vec![fact!("R", 1, 2)]).unwrap();
        let nodes: BTreeSet<Value> = [Value::sym("a"), Value::sym("b")].into_iter().collect();
        let st = s.initial_state(&input, &Value::sym("a"), &nodes).unwrap();
        assert!(st.contains_fact(&fact!("Id", "a")));
        assert!(st.contains_fact(&fact!("All", "a")));
        assert!(st.contains_fact(&fact!("All", "b")));
        assert!(st.contains_fact(&fact!("R", 1, 2)));
        assert!(st.relation(&"T".into()).unwrap().is_empty());
    }

    #[test]
    fn display_shows_structure() {
        let s = sch();
        let d = format!("{s}");
        assert!(d.contains("k=1"));
        assert!(d.contains("Id/1"));
    }
}
