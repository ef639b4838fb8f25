//! Database instances: assignments of finite relations to relation names,
//! equivalently sets of facts (paper, Section 2).

use crate::delta::InstanceDelta;
use crate::error::RelError;
use crate::fact::{Fact, RelName};
use crate::relation::Relation;
use crate::schema::Schema;
use crate::value::Value;
use std::collections::BTreeSet;
use std::fmt;

/// An instance of a database schema.
///
/// Unlike a raw map of relations, an `Instance` is always paired with its
/// schema: looking up a declared-but-unpopulated relation yields the empty
/// relation of the right arity, and inserting an undeclared or ill-sized
/// fact is an error.
///
/// # Representation
///
/// The schema is shared by handle (see [`Schema`]). The populated
/// relations sit in a vector sorted by name, found by binary search and
/// sized exactly, so an instance costs its populated relations and
/// nothing per declared name: a network node that holds one relation
/// pays for one slot.
#[derive(Clone, PartialEq, Eq)]
pub struct Instance {
    schema: Schema,
    /// The populated relations, sorted by name, one entry per name.
    relations: Vec<(RelName, Relation)>,
}

impl Instance {
    /// The empty instance of a schema.
    pub fn empty(schema: Schema) -> Self {
        Instance {
            schema,
            relations: Vec::new(),
        }
    }

    /// The position of `name` among the populated relations, or where
    /// it would be inserted.
    fn position(&self, name: &RelName) -> Result<usize, usize> {
        self.relations.binary_search_by(|(n, _)| n.cmp(name))
    }

    fn get(&self, name: &RelName) -> Option<&Relation> {
        self.position(name).ok().map(|i| &self.relations[i].1)
    }

    fn get_mut(&mut self, name: &RelName) -> Option<&mut Relation> {
        self.position(name).ok().map(|i| &mut self.relations[i].1)
    }

    /// The relation `name`, inserted empty at its sorted position if
    /// unpopulated. The vector grows by exactly one slot.
    fn entry(&mut self, name: &RelName, arity: usize) -> &mut Relation {
        let i = match self.position(name) {
            Ok(i) => i,
            Err(i) => {
                self.relations.reserve_exact(1);
                self.relations
                    .insert(i, (name.clone(), Relation::empty(arity)));
                i
            }
        };
        &mut self.relations[i].1
    }

    /// Replace (or insert) the relation `name`.
    fn put(&mut self, name: RelName, rel: Relation) {
        match self.position(&name) {
            Ok(i) => self.relations[i].1 = rel,
            Err(i) => {
                self.relations.reserve_exact(1);
                self.relations.insert(i, (name, rel));
            }
        }
    }

    fn remove(&mut self, name: &RelName) {
        if let Ok(i) = self.position(name) {
            self.relations.remove(i);
        }
    }

    /// Build an instance from facts, validating each against the schema.
    pub fn from_facts(
        schema: Schema,
        facts: impl IntoIterator<Item = Fact>,
    ) -> Result<Self, RelError> {
        let mut i = Instance::empty(schema);
        for f in facts {
            i.insert_fact(f)?;
        }
        Ok(i)
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The relation assigned to `name`.
    ///
    /// Declared but unpopulated relations are empty; undeclared names are
    /// an error.
    pub fn relation(&self, name: &RelName) -> Result<Relation, RelError> {
        match self.get(name) {
            Some(r) => Ok(r.clone()),
            None => match self.schema.arity(name) {
                Some(a) => Ok(Relation::empty(a)),
                None => Err(RelError::UnknownRelation { rel: name.clone() }),
            },
        }
    }

    /// Borrowing lookup: `None` when the relation is unpopulated or
    /// undeclared (use [`Instance::relation`] for the validating form).
    pub fn relation_ref(&self, name: &RelName) -> Option<&Relation> {
        self.get(name)
    }

    /// Insert a fact.
    pub fn insert_fact(&mut self, fact: Fact) -> Result<bool, RelError> {
        self.schema.check_fact(&fact)?;
        let (rel, tuple) = fact.into_parts();
        self.entry(&rel, tuple.arity()).insert(tuple)
    }

    /// Insert a whole relation under `name`, replacing the previous value.
    pub fn set_relation(
        &mut self,
        name: impl Into<RelName>,
        rel: Relation,
    ) -> Result<(), RelError> {
        let name = name.into();
        self.schema.check_relation(&name, rel.arity())?;
        if rel.is_empty() {
            self.remove(&name);
        } else {
            // The bulk-rebuild point where a query output (landed as a
            // sorted run) or a shrunken relation re-enters the small
            // regime at or below the hysteresis floor.
            let mut rel = rel;
            rel.post_rebuild();
            self.put(name, rel);
        }
        Ok(())
    }

    /// Union `rel` into the relation `name` in place. An unpopulated
    /// `name` takes a clone of `rel`'s handle — a runs-regime relation
    /// clones as an `Arc`, with no per-tuple work — and a populated one
    /// unions with it.
    pub fn union_relation(&mut self, name: &RelName, rel: &Relation) -> Result<(), RelError> {
        self.schema.check_relation(name, rel.arity())?;
        if rel.is_empty() {
            return Ok(());
        }
        match self.get_mut(name) {
            Some(mine) => *mine = mine.union(rel)?,
            None => self.put(name.clone(), rel.clone()),
        }
        Ok(())
    }

    /// The populated relations, in name order.
    pub fn relations(&self) -> impl Iterator<Item = (&RelName, &Relation)> {
        self.relations.iter().map(|(n, r)| (n, r))
    }

    /// Snapshot the storage counters of every populated relation, in
    /// name order — promotion/fold/probe observability for the
    /// storage engine (see [`crate::runs::StorageStats`]). Printed by
    /// `exp_examples` under `RTX_STORAGE_STATS=1`.
    pub fn storage_stats(&self) -> Vec<(RelName, crate::runs::StorageStats)> {
        self.relations
            .iter()
            .map(|(name, rel)| (name.clone(), rel.storage_stats()))
            .collect()
    }

    /// Union a sorted run of tuples into the relation `name` in place
    /// (see [`Relation::absorb_run`]). Returns the number of facts
    /// actually added.
    pub fn absorb_run(
        &mut self,
        name: &RelName,
        run: &crate::runs::Run,
    ) -> Result<usize, RelError> {
        self.schema.check_relation(name, run.arity())?;
        if run.is_empty() {
            return Ok(0);
        }
        self.entry(name, run.arity()).absorb_run(run)
    }

    /// [`Instance::absorb_run`] for a run that holds no fact of `name`
    /// (see [`Relation::absorb_fresh`]). Returns the number of facts
    /// added: all of them.
    pub fn absorb_fresh(
        &mut self,
        name: &RelName,
        run: &crate::runs::Run,
    ) -> Result<usize, RelError> {
        self.schema.check_relation(name, run.arity())?;
        if run.is_empty() {
            return Ok(0);
        }
        self.entry(name, run.arity()).absorb_fresh(run)
    }

    /// [`Instance::absorb_fresh`] for the tuples of `rows`, which a small
    /// relation takes by handle (see [`Relation::absorb_fresh_rows`]).
    pub fn absorb_fresh_rows(
        &mut self,
        name: &RelName,
        rows: &Relation,
    ) -> Result<usize, RelError> {
        self.schema.check_relation(name, rows.arity())?;
        if rows.is_empty() {
            return Ok(0);
        }
        self.entry(name, rows.arity()).absorb_fresh_rows(rows)
    }

    /// Remove a sorted run of tuples from the relation `name` in place
    /// (see [`Relation::remove_run`]); a relation left empty is
    /// unpopulated, as [`Instance::remove_fact`] leaves it. Returns the
    /// number of facts actually removed.
    pub fn remove_run(
        &mut self,
        name: &RelName,
        run: &crate::runs::Run,
    ) -> Result<usize, RelError> {
        self.schema.check_relation(name, run.arity())?;
        let Some(rel) = self.get_mut(name) else {
            return Ok(0);
        };
        let removed = rel.remove_run(run)?;
        if rel.is_empty() {
            self.remove(name);
        }
        Ok(removed)
    }

    /// Remove a fact; `true` if present.
    pub fn remove_fact(&mut self, fact: &Fact) -> bool {
        if let Some(r) = self.get_mut(fact.rel()) {
            let removed = r.remove(fact.tuple());
            if r.is_empty() {
                self.remove(fact.rel());
            }
            removed
        } else {
            false
        }
    }

    /// Does the instance contain this fact?
    pub fn contains_fact(&self, fact: &Fact) -> bool {
        self.get(fact.rel())
            .map(|r| r.contains(fact.tuple()))
            .unwrap_or(false)
    }

    /// Iterate over all facts, relation by relation, in order.
    pub fn facts(&self) -> impl Iterator<Item = Fact> + '_ {
        self.relations
            .iter()
            .flat_map(|(name, rel)| rel.iter().map(move |t| Fact::new(name.clone(), t.clone())))
    }

    /// Total number of facts.
    pub fn fact_count(&self) -> usize {
        self.relations.iter().map(|(_, r)| r.len()).sum()
    }

    /// Is the instance empty (no facts)?
    pub fn is_empty(&self) -> bool {
        self.relations.iter().all(|(_, r)| r.is_empty())
    }

    /// The active domain: all data elements occurring in the instance.
    pub fn adom(&self) -> BTreeSet<Value> {
        self.relations.iter().flat_map(|(_, r)| r.adom()).collect()
    }

    /// Union of two instances (schemas merged compatibly). Horizontal
    /// partitions overlap freely, so shared relations union their
    /// tuples. A name declared at two arities is an error. The union is
    /// relation-wise: a relation only one side populates is shared by
    /// handle (see [`Instance::union_relation`]), and only relations
    /// both sides populate are merged, so the cost follows the shared
    /// relations, not the fact count.
    pub fn union(&self, other: &Instance) -> Result<Instance, RelError> {
        let mut out = Instance::empty(self.schema.union_compatible(&other.schema)?);
        out.relations
            .reserve_exact(self.relations.len() + other.relations.len());
        for (name, rel) in self.relations().chain(other.relations()) {
            out.union_relation(name, rel)?;
        }
        Ok(out)
    }

    /// Answer `read` over `self ∪ other` under `schema` without copying
    /// `self` — how a transducer step reads `I' = I ∪ I_rcv` from the
    /// node's own state. `other`'s relations join `self`'s, by handle,
    /// in `self`, which takes `schema` while `read` runs; then they
    /// leave and `self` takes its own schema back, whatever `read`
    /// answered, so its relations are where they were. With `other`
    /// empty only the schema is swapped.
    ///
    /// `schema` must declare every relation `other` populates, at its
    /// arity, and `self` may populate none of them (the state and
    /// message schemas are disjoint); either is an error before
    /// anything moves. `schema` must declare `self`'s relations too,
    /// which debug builds check.
    pub fn read_union<R>(
        &mut self,
        other: &Instance,
        schema: &Schema,
        read: impl FnOnce(&Instance) -> R,
    ) -> Result<R, RelError> {
        debug_assert!(
            (self.relations()).all(|(n, r)| schema.check_relation(n, r.arity()).is_ok()),
            "read_union: the schema lacks a relation of `self`"
        );
        for (name, rel) in other.relations() {
            schema.check_relation(name, rel.arity())?;
            if self.get(name).is_some() {
                return Err(RelError::NotDisjoint { rel: name.clone() });
            }
        }
        let own_schema = std::mem::replace(&mut self.schema, schema.clone());
        if other.relations.is_empty() {
            let answer = read(self);
            self.schema = own_schema;
            return Ok(answer);
        }
        // Both vectors are sorted by name: merge them into a fresh
        // vector, leaving `own` empty with its allocation for the move
        // back.
        let mut own = std::mem::take(&mut self.relations);
        self.relations
            .reserve_exact(own.len() + other.relations.len());
        let mut theirs = other.relations.iter().peekable();
        for entry in own.drain(..) {
            while let Some((n, r)) = theirs.next_if(|(n, _)| *n < entry.0) {
                self.relations.push((n.clone(), r.clone()));
            }
            self.relations.push(entry);
        }
        (self.relations).extend(theirs.map(|(n, r)| (n.clone(), r.clone())));
        let answer = read(self);
        self.schema = own_schema;
        let union = std::mem::replace(&mut self.relations, own);
        (self.relations).extend(union.into_iter().filter(|(n, _)| other.get(n).is_none()));
        Ok(answer)
    }

    /// Is `self ⊆ other` as sets of facts (schemas may differ)?
    pub fn is_subinstance_of(&self, other: &Instance) -> bool {
        self.facts().all(|f| other.contains_fact(&f))
    }

    /// Restrict to the relations of `target`, which must be a subset of
    /// this instance's schema (used e.g. to split a transducer state into
    /// its input / memory parts).
    pub fn restrict(&self, target: &Schema) -> Result<Instance, RelError> {
        let mut out = Instance::empty(target.clone());
        for (name, arity) in target.iter() {
            match self.schema.arity(name) {
                None => return Err(RelError::UnknownRelation { rel: name.clone() }),
                Some(a) if a != arity => {
                    return Err(RelError::ArityMismatch {
                        rel: name.clone(),
                        expected: arity,
                        found: a,
                    })
                }
                Some(_) => {}
            }
            if let Some(r) = self.get(name) {
                out.set_relation(name.clone(), r.clone())?;
            }
        }
        Ok(out)
    }

    /// Re-house the same facts under a wider schema (every relation of the
    /// current schema must appear in `wider` with the same arity).
    pub fn widen(&self, wider: Schema) -> Result<Instance, RelError> {
        for (name, arity) in self.schema.iter() {
            wider.check_relation(name, arity)?;
        }
        Ok(Instance {
            schema: wider,
            relations: self.relations.clone(),
        })
    }

    /// The delta turning `from` into `self`, as facts to add and remove.
    ///
    /// Fact-based, so the instances' schemas may differ; applying the
    /// delta only succeeds where the target's schema declares every
    /// added relation.
    pub fn diff(&self, from: &Instance) -> InstanceDelta {
        let mut added = Vec::new();
        let mut removed = Vec::new();
        // Walk both sorted relation maps in lockstep.
        let mut ours = self.relations().peekable();
        let mut theirs = from.relations().peekable();
        loop {
            match (ours.peek(), theirs.peek()) {
                (None, None) => break,
                (Some((name, rel)), None) => {
                    added.extend(rel.iter().map(|t| Fact::new((*name).clone(), t.clone())));
                    ours.next();
                }
                (None, Some((name, rel))) => {
                    removed.extend(rel.iter().map(|t| Fact::new((*name).clone(), t.clone())));
                    theirs.next();
                }
                (Some((a, ra)), Some((b, rb))) => match a.cmp(b) {
                    std::cmp::Ordering::Less => {
                        added.extend(ra.iter().map(|t| Fact::new((*a).clone(), t.clone())));
                        ours.next();
                    }
                    std::cmp::Ordering::Greater => {
                        removed.extend(rb.iter().map(|t| Fact::new((*b).clone(), t.clone())));
                        theirs.next();
                    }
                    std::cmp::Ordering::Equal => {
                        if ra != rb {
                            match ra.diff(rb) {
                                Ok(d) => {
                                    let (add, rem) = d.into_parts();
                                    added.extend(
                                        add.into_iter().map(|t| Fact::new((*a).clone(), t)),
                                    );
                                    removed.extend(
                                        rem.into_iter().map(|t| Fact::new((*a).clone(), t)),
                                    );
                                }
                                Err(_) => {
                                    // Same name at different arities across the
                                    // two schemas: no tuple can coincide.
                                    added.extend(
                                        ra.iter().map(|t| Fact::new((*a).clone(), t.clone())),
                                    );
                                    removed.extend(
                                        rb.iter().map(|t| Fact::new((*a).clone(), t.clone())),
                                    );
                                }
                            }
                        }
                        ours.next();
                        theirs.next();
                    }
                },
            }
        }
        InstanceDelta::new(added, removed)
    }

    /// Apply a delta in place: remove `delta.removed()`, insert
    /// `delta.added()`. Inverse of [`Instance::diff`]:
    /// `from.apply_delta(&to.diff(&from))` makes `from`'s facts equal
    /// `to`'s.
    pub fn apply_delta(&mut self, delta: &InstanceDelta) -> Result<(), RelError> {
        for f in delta.removed() {
            self.remove_fact(f);
        }
        for f in delta.added() {
            self.insert_fact(f.clone())?;
        }
        Ok(())
    }

    /// The isomorphic instance `h(I)` for a mapping `h` on values.
    ///
    /// Genericity of queries (paper, Section 2) is stated via permutations
    /// of **dom**; callers wanting a genuine isomorphism should pass an
    /// injective map (see [`crate::iso::Iso`]).
    pub fn map_values(&self, mut h: impl FnMut(&Value) -> Value) -> Instance {
        let mut out = Instance::empty(self.schema.clone());
        out.relations = self
            .relations
            .iter()
            .map(|(name, rel)| (name.clone(), rel.map_values(&mut h)))
            .collect();
        out
    }
}

impl fmt::Debug for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for fact in self.facts() {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{fact}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fact, tuple};

    fn schema_rs() -> Schema {
        Schema::new().with("R", 2).with("S", 1)
    }

    #[test]
    fn empty_instance_has_empty_declared_relations() {
        let i = Instance::empty(schema_rs());
        let r = i.relation(&"R".into()).unwrap();
        assert!(r.is_empty());
        assert_eq!(r.arity(), 2);
        assert!(i.relation(&"T".into()).is_err());
    }

    #[test]
    fn insert_and_query_facts() {
        let mut i = Instance::empty(schema_rs());
        assert!(i.insert_fact(fact!("R", 1, 2)).unwrap());
        assert!(!i.insert_fact(fact!("R", 1, 2)).unwrap());
        assert!(i.contains_fact(&fact!("R", 1, 2)));
        assert!(!i.contains_fact(&fact!("S", 1)));
        assert_eq!(i.fact_count(), 1);
    }

    #[test]
    fn schema_violations_rejected() {
        let mut i = Instance::empty(schema_rs());
        assert!(i.insert_fact(fact!("T", 1)).is_err());
        assert!(i.insert_fact(fact!("R", 1)).is_err());
    }

    #[test]
    fn facts_iteration_deterministic() {
        let i = Instance::from_facts(
            schema_rs(),
            vec![fact!("S", 9), fact!("R", 1, 2), fact!("R", 0, 0)],
        )
        .unwrap();
        let fs: Vec<_> = i.facts().collect();
        assert_eq!(fs, vec![fact!("R", 0, 0), fact!("R", 1, 2), fact!("S", 9)]);
    }

    #[test]
    fn adom_spans_all_relations() {
        let i = Instance::from_facts(schema_rs(), vec![fact!("R", 1, 2), fact!("S", "a")]).unwrap();
        let d = i.adom();
        assert_eq!(d.len(), 3);
        assert!(d.contains(&Value::sym("a")));
    }

    #[test]
    fn union_merges_facts() {
        let a = Instance::from_facts(schema_rs(), vec![fact!("R", 1, 2)]).unwrap();
        let b = Instance::from_facts(schema_rs(), vec![fact!("S", 3), fact!("R", 1, 2)]).unwrap();
        let u = a.union(&b).unwrap();
        assert_eq!(u.fact_count(), 2);
    }

    #[test]
    fn union_merges_disjoint_schemas() {
        let a = Instance::from_facts(Schema::new().with("R", 1), vec![fact!("R", 1)]).unwrap();
        let b = Instance::from_facts(Schema::new().with("M", 1), vec![fact!("M", 2)]).unwrap();
        let u = a.union(&b).unwrap();
        assert_eq!(u.fact_count(), 2);
        assert!(u.schema().contains(&"R".into()));
        assert!(u.schema().contains(&"M".into()));
    }

    #[test]
    fn union_shares_relations_only_one_side_holds() {
        let big = Relation::from_tuples(1, (0..300i64).map(|i| tuple![i])).unwrap();
        let mut a = Instance::empty(schema_rs());
        a.set_relation("S", big).unwrap();
        let b = Instance::from_facts(schema_rs(), vec![fact!("R", 1, 2)]).unwrap();
        let u = a.union(&b).unwrap();
        let s: RelName = "S".into();
        let (mine, shared) = (a.relation_ref(&s).unwrap(), u.relation_ref(&s).unwrap());
        assert!(std::sync::Arc::ptr_eq(
            &mine.columnar_run(),
            &shared.columnar_run()
        ));
        assert_eq!(u.fact_count(), 301);
    }

    #[test]
    fn read_union_reads_the_union_and_restores_self() {
        let mut a =
            Instance::from_facts(schema_rs(), vec![fact!("R", 1, 2), fact!("S", 4)]).unwrap();
        let before = a.clone();
        let m = Instance::from_facts(Schema::new().with("M", 1), vec![fact!("M", 3)]).unwrap();
        let both = schema_rs().with("M", 1);
        let seen = a
            .read_union(&m, &both, |i| (i.schema().clone(), i.facts().collect()))
            .unwrap();
        let want: Vec<Fact> = vec![fact!("M", 3), fact!("R", 1, 2), fact!("S", 4)];
        assert_eq!(seen, (both.clone(), want));
        assert_eq!(a, before);
        let silence = Instance::empty(Schema::new().with("M", 1));
        assert!(a
            .read_union(&silence, &both, |i| i.schema() == &both)
            .unwrap());
        assert_eq!(a, before);
        // Errors come before anything moves.
        let dup = a.clone();
        assert!(matches!(
            a.read_union(&dup, &both, |_| ()),
            Err(RelError::NotDisjoint { .. })
        ));
        assert!(matches!(
            a.read_union(&m, &schema_rs(), |_| ()),
            Err(RelError::UnknownRelation { .. })
        ));
        assert_eq!(a, before);
    }

    #[test]
    fn subinstance_is_fact_containment() {
        let a = Instance::from_facts(schema_rs(), vec![fact!("R", 1, 2)]).unwrap();
        let b = Instance::from_facts(schema_rs(), vec![fact!("R", 1, 2), fact!("S", 1)]).unwrap();
        assert!(a.is_subinstance_of(&b));
        assert!(!b.is_subinstance_of(&a));
    }

    #[test]
    fn restrict_projects_schema() {
        let i = Instance::from_facts(schema_rs(), vec![fact!("R", 1, 2), fact!("S", 3)]).unwrap();
        let r = i.restrict(&Schema::new().with("S", 1)).unwrap();
        assert_eq!(r.fact_count(), 1);
        assert!(r.contains_fact(&fact!("S", 3)));
        assert!(r.relation(&"R".into()).is_err());
    }

    #[test]
    fn widen_keeps_facts_adds_names() {
        let i = Instance::from_facts(Schema::new().with("S", 1), vec![fact!("S", 3)]).unwrap();
        let w = i.widen(schema_rs()).unwrap();
        assert!(w.contains_fact(&fact!("S", 3)));
        assert!(w.relation(&"R".into()).unwrap().is_empty());
        // widening to a schema missing S fails
        assert!(i.widen(Schema::new().with("R", 2)).is_err());
    }

    #[test]
    fn map_values_applies_isomorphism() {
        let i = Instance::from_facts(schema_rs(), vec![fact!("R", 1, 2)]).unwrap();
        let j = i.map_values(|v| match v {
            Value::Int(k) => Value::int(k + 100),
            o => *o,
        });
        assert!(j.contains_fact(&fact!("R", 101, 102)));
        assert_eq!(j.fact_count(), 1);
    }

    #[test]
    fn set_relation_replaces_and_validates() {
        let mut i = Instance::empty(schema_rs());
        let r = Relation::from_tuples(1, vec![tuple![5]]).unwrap();
        i.set_relation("S", r).unwrap();
        assert!(i.contains_fact(&fact!("S", 5)));
        i.set_relation("S", Relation::empty(1)).unwrap();
        assert!(i.is_empty());
        assert!(i.set_relation("S", Relation::empty(4)).is_err());
        assert!(i.set_relation("Nope", Relation::empty(1)).is_err());
    }

    #[test]
    fn diff_apply_delta_roundtrip() {
        let from =
            Instance::from_facts(schema_rs(), vec![fact!("R", 1, 2), fact!("S", 1)]).unwrap();
        let to = Instance::from_facts(
            schema_rs(),
            vec![fact!("R", 1, 2), fact!("R", 3, 4), fact!("S", 2)],
        )
        .unwrap();
        let d = to.diff(&from);
        assert_eq!(d.added().len(), 2);
        assert_eq!(d.removed(), &[fact!("S", 1)]);
        let mut i = from.clone();
        i.apply_delta(&d).unwrap();
        assert_eq!(i, to);
        assert!(to.diff(&to).is_empty());
    }

    #[test]
    fn diff_covers_relations_only_on_one_side() {
        let a = Instance::from_facts(schema_rs(), vec![fact!("R", 1, 2)]).unwrap();
        let b = Instance::from_facts(schema_rs(), vec![fact!("S", 7)]).unwrap();
        let d = b.diff(&a);
        assert_eq!(d.added(), &[fact!("S", 7)]);
        assert_eq!(d.removed(), &[fact!("R", 1, 2)]);
        let mut i = a.clone();
        i.apply_delta(&d).unwrap();
        assert_eq!(i, b);
    }

    #[test]
    fn apply_delta_rejects_undeclared_additions() {
        let narrow = Schema::new().with("R", 2);
        let mut i = Instance::empty(narrow);
        let full = Instance::from_facts(schema_rs(), vec![fact!("S", 1)]).unwrap();
        let d = full.diff(&Instance::empty(schema_rs()));
        assert!(i.apply_delta(&d).is_err());
    }

    #[test]
    fn remove_fact_cleans_up() {
        let mut i = Instance::from_facts(schema_rs(), vec![fact!("S", 1)]).unwrap();
        assert!(i.remove_fact(&fact!("S", 1)));
        assert!(!i.remove_fact(&fact!("S", 1)));
        assert!(i.is_empty());
    }
}
