//! The abstract relational transducer and its deterministic local
//! transition (paper, Section 2.1).

use crate::schema::TransducerSchema;
use rtx_query::{EvalError, Query, QueryRef};
use rtx_relational::{Fact, Instance, RelName, Relation};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// An abstract relational transducer: a collection of queries
/// `{Q_snd^R | R ∈ S_msg} ∪ {Q_ins^R, Q_del^R | R ∈ S_mem} ∪ {Q_out}`
/// over the combined schema.
pub struct Transducer {
    schema: TransducerSchema,
    snd: BTreeMap<RelName, QueryRef>,
    ins: BTreeMap<RelName, QueryRef>,
    del: BTreeMap<RelName, QueryRef>,
    out: QueryRef,
    /// Optional label for diagnostics.
    name: String,
    /// The memory relations whose insert query [`Transducer::step_after`]
    /// evaluates over the previous transition's additions (see there).
    delta_rels: BTreeSet<RelName>,
}

/// The result of one local transition `I, I_rcv --Jout--> J, J_snd`.
#[derive(Clone, Debug)]
pub struct StepResult {
    /// The successor state `J` (input and system relations unchanged,
    /// memory updated).
    pub new_state: Instance,
    /// The sent message instance `J_snd`.
    pub sent: Instance,
    /// The output tuples `J_out` (outputs are cumulative and can never be
    /// retracted).
    pub output: Relation,
    /// Did the memory update change the state (`J ≠ I`)? True exactly
    /// when the update's delta is non-empty, so no caller needs to
    /// compare whole states.
    pub state_changed: bool,
    /// The memory facts this transition added, to hand to the node's
    /// next transition ([`Transducer::step_after`]). `Some` exactly when
    /// the transducer has a relation that `step_after` evaluates over
    /// them, so other transducers allocate nothing.
    pub added: Option<Added>,
}

/// What [`Transducer::step_in_place`] returns: the transition's
/// [`StepResult`] without the successor state, which it wrote in place.
#[derive(Clone, Debug)]
pub struct StepEffects {
    /// The sent message instance `J_snd`.
    pub sent: Instance,
    /// The output tuples `J_out`.
    pub output: Relation,
    /// Did the memory update change the state (`J ≠ I`)?
    pub state_changed: bool,
    /// The memory facts this transition added (see
    /// [`StepResult::added`]).
    pub added: Option<Added>,
}

/// The memory facts one transition added, relation by relation: what
/// the node's next [`Transducer::step_after`] evaluates an eligible
/// insert query over. Only a step makes one, so it always describes a
/// real transition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Added(Instance);

impl Added {
    /// The added facts, as an instance of the memory schema.
    pub(crate) fn facts(&self) -> &Instance {
        &self.0
    }

    /// Did the transition add nothing?
    pub(crate) fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl StepResult {
    /// Did the transition change nothing observable (memory unchanged, no
    /// sends, no output)?
    pub fn is_noop(&self) -> bool {
        !self.state_changed && self.sent.is_empty() && self.output.is_empty()
    }
}

impl Transducer {
    pub(crate) fn from_parts(
        schema: TransducerSchema,
        snd: BTreeMap<RelName, QueryRef>,
        ins: BTreeMap<RelName, QueryRef>,
        del: BTreeMap<RelName, QueryRef>,
        out: QueryRef,
        name: String,
    ) -> Self {
        // A relation qualifies when it only grows, its insert query is
        // monotone, and everything that query reads only grows too:
        // input and system relations, and grow-only memory relations —
        // never a message relation, whose facts arrive unannounced.
        let grows = |r: &RelName| del.get(r).is_some_and(|q| q.is_always_empty());
        let delta_rels = (ins.iter())
            .filter(|(r, q)| {
                grows(r)
                    && q.is_monotone_syntactic()
                    && (q.referenced_relations().iter()).all(|read| {
                        !schema.message().contains(read)
                            && (!schema.memory().contains(read) || grows(read))
                    })
            })
            .map(|(r, _)| r.clone())
            .collect();
        Transducer {
            schema,
            snd,
            ins,
            del,
            out,
            name,
            delta_rels,
        }
    }

    /// The transducer schema.
    pub fn schema(&self) -> &TransducerSchema {
        &self.schema
    }

    /// Diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The send query for a message relation.
    pub fn snd_query(&self, rel: &RelName) -> Option<&QueryRef> {
        self.snd.get(rel)
    }

    /// The insertion query for a memory relation.
    pub fn ins_query(&self, rel: &RelName) -> Option<&QueryRef> {
        self.ins.get(rel)
    }

    /// The deletion query for a memory relation.
    pub fn del_query(&self, rel: &RelName) -> Option<&QueryRef> {
        self.del.get(rel)
    }

    /// The output query.
    pub fn out_query(&self) -> &QueryRef {
        &self.out
    }

    /// The memory relations whose insert query
    /// [`Transducer::step_after`] evaluates over the previous
    /// transition's additions. Empty when no step reports
    /// [`StepResult::added`].
    pub fn delta_relations(&self) -> &BTreeSet<RelName> {
        &self.delta_rels
    }

    /// All queries with role labels, in a deterministic order.
    pub fn queries(&self) -> impl Iterator<Item = (String, &QueryRef)> {
        self.snd
            .iter()
            .map(|(r, q)| (format!("snd[{r}]"), q))
            .chain(self.ins.iter().map(|(r, q)| (format!("ins[{r}]"), q)))
            .chain(self.del.iter().map(|(r, q)| (format!("del[{r}]"), q)))
            .chain(std::iter::once(("out".to_string(), &self.out)))
    }

    /// Perform one deterministic local transition, evaluating every
    /// query in full.
    ///
    /// `state` is an instance of the state schema; `received` an instance
    /// of the message schema (empty for a heartbeat) — a received
    /// relation outside `S_msg`, or at the wrong arity, is an
    /// [`EvalError::Rel`] naming it. Implements the paper's update
    /// formula for every memory relation `R`:
    ///
    /// ```text
    /// J(R) = (Q_ins(I') \ Q_del(I'))
    ///      ∪ (Q_ins(I') ∩ Q_del(I') ∩ I(R))
    ///      ∪ (I(R) \ (Q_ins(I') ∪ Q_del(I')))
    /// ```
    ///
    /// i.e. conflicting insert/deletes are ignored, and an assignment
    /// `R := Q` is expressed by `Q_ins = Q`, `Q_del = R`.
    ///
    /// `J` is `state.clone()` with the transition written into it by
    /// [`Transducer::step_in_place`], which says what the step costs.
    pub fn step(&self, state: &Instance, received: &Instance) -> Result<StepResult, EvalError> {
        self.step_after(state, received, None)
    }

    /// [`Transducer::step`] for a node whose previous transition, the
    /// one that produced `state`, reported `prev` as its
    /// [`StepResult::added`]. The result is the one `step` gives.
    ///
    /// A memory relation `R` of [`Transducer::delta_relations`] has an
    /// always-empty delete query and a monotone insert query `Q` that
    /// reads no message relation, and every memory relation `Q` reads
    /// has an always-empty delete query too. The previous transition
    /// stored `Q(I'_prev)` in `R`, and since then everything `Q` reads
    /// has grown by exactly `prev`, so `Q(I') ∖ I(R)` is contained in
    /// `Q.eval_delta(I', prev)` ([`Query::eval_delta`]), and the step
    /// adds exactly that minus `I(R)`. An empty `prev` adds nothing to
    /// `R`, so `Q` is not evaluated at all. With `prev` `None` — a
    /// node's first transition, or one after its memory was wiped —
    /// and where `eval_delta` answers `None`, `Q` is evaluated in full.
    ///
    /// Built with `debug_assertions`, every delta-evaluated relation is
    /// evaluated in full as well (outside the metrics registry), and
    /// the two additions must agree.
    ///
    /// Like `step`, this writes `J` into `state.clone()` through
    /// [`Transducer::step_in_place`].
    pub fn step_after(
        &self,
        state: &Instance,
        received: &Instance,
        prev: Option<&Added>,
    ) -> Result<StepResult, EvalError> {
        let mut new_state = state.clone();
        let StepEffects {
            sent,
            output,
            state_changed,
            added,
        } = self.step_in_place(&mut new_state, received, prev)?;
        Ok(StepResult {
            new_state,
            sent,
            output,
            state_changed,
            added,
        })
    }

    /// [`Transducer::step_after`] on the node's own state: `J` is
    /// written into `state`, and the rest of the transition is
    /// returned. This is the one implementation of the transition; the
    /// executors step their nodes' states through it.
    ///
    /// The cost follows what changed, not the state's size:
    ///
    /// * `I'` borrows `I`: the queries read the state's own relations
    ///   next to `received`'s ([`Instance::read_union`]), and a
    ///   heartbeat only swaps in the combined schema. No relation is
    ///   copied.
    /// * The update is written into `state` as a delta against `I(R)`:
    ///
    ///   ```text
    ///   added(R)   = (Q_ins(I') \ Q_del(I')) \ I(R)
    ///   removed(R) = (Q_del(I') \ Q_ins(I')) ∩ I(R)
    ///   ```
    ///
    ///   which together equal the update formula (`removed` is skipped
    ///   when `Q_del` is empty, as it is for every inflationary
    ///   transducer). [`StepEffects::state_changed`] is true exactly
    ///   when some delta is non-empty.
    ///
    /// Every send, output, insert and delete query runs on `I'` before
    /// any delta touches `state`, so a step that fails leaves `state` as
    /// it was.
    pub fn step_in_place(
        &self,
        state: &mut Instance,
        received: &Instance,
        prev: Option<&Added>,
    ) -> Result<StepEffects, EvalError> {
        for (rel, r) in received.relations() {
            self.schema.message().check_relation(rel, r.arity())?;
        }
        // A state built by the state schema shares its map, so this is
        // a pointer check. Any other state may populate only state
        // relations and must declare every memory relation, which makes
        // every write below infallible.
        let state_schema = self.schema.state_schema();
        if state.schema() != state_schema {
            for (rel, r) in state.relations() {
                state_schema.check_relation(rel, r.arity())?;
            }
            for (rel, arity) in self.schema.memory().iter() {
                state.schema().check_relation(rel, arity)?;
            }
        }
        let (sent, output, updates) =
            state.read_union(received, self.schema.combined_schema(), |combined| {
                self.evaluate(combined, prev)
            })??;

        let mut added_facts =
            (!self.delta_rels.is_empty()).then(|| Instance::empty(self.schema.memory().clone()));
        let state_changed = !updates.is_empty();
        for (rel, added, removed) in updates {
            for t in &removed {
                state.remove_fact(&Fact::new(rel.clone(), t.clone()));
            }
            if !added.is_empty() {
                state.absorb_fresh_rows(rel, &added)?;
                if let Some(facts) = &mut added_facts {
                    facts.set_relation(rel.clone(), added)?;
                }
            }
        }
        Ok(StepEffects {
            sent,
            output,
            state_changed,
            added: added_facts.map(Added),
        })
    }

    /// Every query of one transition, over `combined`, which is `I'`:
    /// the sends, the output, and each memory relation's update that
    /// changes something, with `I(R)` read from `combined`.
    fn evaluate(
        &self,
        combined: &Instance,
        prev: Option<&Added>,
    ) -> Result<(Instance, Relation, Vec<Update<'_>>), EvalError> {
        let mut sent = Instance::empty(self.schema.message().clone());
        for (rel, q) in &self.snd {
            sent.set_relation(rel.clone(), q.eval(combined)?)?;
        }
        let output = self.out.eval(combined)?;
        let mut updates = Vec::new();
        for (rel, ins_q) in &self.ins {
            let cur = combined.relation_ref(rel);
            let delta = match prev.filter(|_| self.delta_rels.contains(rel)) {
                Some(prev) => added_after(ins_q.as_ref(), combined, cur, prev)?,
                None => None,
            };
            let (added, removed) = match delta {
                Some(added) => {
                    #[cfg(debug_assertions)]
                    self.check_delta(rel, ins_q.as_ref(), combined, cur, &added)?;
                    (added, Relation::empty(ins_q.arity()))
                }
                None => self.full_update(rel, ins_q.as_ref(), combined, cur)?,
            };
            if !added.is_empty() || !removed.is_empty() {
                updates.push((rel, added, removed));
            }
        }
        Ok((sent, output, updates))
    }

    /// Evaluate `rel`'s update in full: `(added, removed)` with
    /// `added = (ins ∖ del) ∖ I(R)` and `removed = (del ∖ ins) ∩ I(R)`.
    fn full_update(
        &self,
        rel: &RelName,
        ins_q: &dyn Query,
        combined: &Instance,
        cur: Option<&Relation>,
    ) -> Result<(Relation, Relation), EvalError> {
        let del_q = self
            .del
            .get(rel)
            .expect("builder populates every memory relation");
        let ins = ins_q.eval(combined)?;
        let del = del_q.eval(combined)?;
        // removed = (del ∖ ins) ∩ I(R)
        let removed = match (cur, del.is_empty()) {
            (Some(cur), false) => del.difference(&ins)?.intersect(cur)?,
            _ => Relation::empty(ins.arity()),
        };
        // added = (ins ∖ del) ∖ I(R)
        let mut added = if del.is_empty() {
            ins
        } else {
            ins.difference(&del)?
        };
        if let (Some(cur), false) = (cur, added.is_empty()) {
            added = added.difference(cur)?;
        }
        Ok((added, removed))
    }

    /// The debug cross-check of [`Transducer::step_after`]: `added`, as
    /// evaluated over the previous transition's additions, is what the
    /// full evaluation adds. The full evaluation stays out of the
    /// metrics registry, so the counters describe the run.
    #[cfg(debug_assertions)]
    fn check_delta(
        &self,
        rel: &RelName,
        ins_q: &dyn Query,
        combined: &Instance,
        cur: Option<&Relation>,
        added: &Relation,
    ) -> Result<(), EvalError> {
        let full = rtx_obs::registry::uncounted(|| self.full_update(rel, ins_q, combined, cur));
        assert_eq!(
            added, &full?.0,
            "delta and full evaluation of ins[{rel}] disagree in `{}`",
            self.name
        );
        Ok(())
    }

    /// A heartbeat transition: a step with no received messages.
    pub fn heartbeat(&self, state: &Instance) -> Result<StepResult, EvalError> {
        let empty = Instance::empty(self.schema.message().clone());
        self.step(state, &empty)
    }
}

/// A memory relation's update that changes something:
/// `(R, added(R), removed(R))`.
type Update<'t> = (&'t RelName, Relation, Relation);

/// The addition to a delta-evaluated relation (see
/// [`Transducer::step_after`]): nothing after a transition that added
/// nothing, else `ins_q`'s answer over `prev` minus `I(R)`. `None` when
/// the query cannot answer over a delta.
fn added_after(
    ins_q: &dyn Query,
    combined: &Instance,
    cur: Option<&Relation>,
    prev: &Added,
) -> Result<Option<Relation>, EvalError> {
    if prev.is_empty() {
        return Ok(Some(Relation::empty(ins_q.arity())));
    }
    let Some(d) = ins_q.eval_delta(combined, prev.facts())? else {
        return Ok(None);
    };
    Ok(Some(match cur {
        Some(cur) if !d.is_empty() => d.difference(cur)?,
        _ => d,
    }))
}

impl fmt::Debug for Transducer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "transducer `{}` {}", self.name, self.schema)?;
        for (role, q) in self.queries() {
            writeln!(f, "  {role}: {}", q.describe())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TransducerBuilder;
    use rtx_query::{atom, CqBuilder, Term, UcqQuery};
    use rtx_relational::{fact, tuple, RelError, Schema, Value};
    use std::sync::Arc;

    fn cq(rule: rtx_query::Rule) -> QueryRef {
        Arc::new(UcqQuery::single(rule))
    }

    /// A transducer that stores received `M` facts into memory `T` and
    /// outputs `T` members; sends its own input `S` on every step.
    fn store_and_echo() -> Transducer {
        TransducerBuilder::new("store-and-echo")
            .input_relation("S", 1)
            .message_relation("M", 1)
            .memory_relation("T", 1)
            .output_arity(1)
            .send(
                "M",
                cq(CqBuilder::head(vec![Term::var("X")])
                    .when(atom!("S"; @"X"))
                    .build()
                    .unwrap()),
            )
            .insert(
                "T",
                cq(CqBuilder::head(vec![Term::var("X")])
                    .when(atom!("M"; @"X"))
                    .build()
                    .unwrap()),
            )
            .output(cq(CqBuilder::head(vec![Term::var("X")])
                .when(atom!("T"; @"X"))
                .build()
                .unwrap()))
            .build()
            .unwrap()
    }

    fn mk_state(t: &Transducer, s_facts: &[i64]) -> Instance {
        let input = Instance::from_facts(
            Schema::new().with("S", 1),
            s_facts.iter().map(|&v| fact!("S", v)).collect::<Vec<_>>(),
        )
        .unwrap();
        let nodes: BTreeSet<Value> = [Value::sym("n1")].into_iter().collect();
        t.schema()
            .initial_state(&input, &Value::sym("n1"), &nodes)
            .unwrap()
    }

    fn msg(facts: &[i64]) -> Instance {
        Instance::from_facts(
            Schema::new().with("M", 1),
            facts.iter().map(|&v| fact!("M", v)).collect::<Vec<_>>(),
        )
        .unwrap()
    }

    #[test]
    fn heartbeat_sends_input() {
        let t = store_and_echo();
        let st = mk_state(&t, &[1, 2]);
        let res = t.heartbeat(&st).unwrap();
        assert_eq!(res.sent.fact_count(), 2);
        assert!(res.output.is_empty()); // memory still empty
        assert_eq!(res.new_state, st); // nothing inserted
    }

    #[test]
    fn delivery_inserts_into_memory_and_outputs_next_step() {
        let t = store_and_echo();
        let st = mk_state(&t, &[]);
        let res = t.step(&st, &msg(&[7])).unwrap();
        assert!(res.new_state.contains_fact(&fact!("T", 7)));
        // output is computed on I′ (before memory update), so T was empty
        assert!(res.output.is_empty());
        let res2 = t.heartbeat(&res.new_state).unwrap();
        assert!(res2.output.contains(&tuple![7]));
    }

    #[test]
    fn state_changed_is_the_memory_delta() {
        let t = store_and_echo();
        let st = mk_state(&t, &[1]);
        let hb = t.heartbeat(&st).unwrap();
        assert!(!hb.state_changed, "sending changes no state");
        assert!(!hb.is_noop(), "but it is observable");
        let res = t.step(&st, &msg(&[7])).unwrap();
        assert!(res.state_changed);
        let again = t.step(&res.new_state, &msg(&[7])).unwrap();
        assert!(!again.state_changed, "a stored fact is not stored twice");
        assert_eq!(again.new_state, res.new_state);
        let quiet = mk_state(&t, &[]);
        assert!(t.heartbeat(&quiet).unwrap().is_noop());
    }

    /// A received instance may only populate message relations: a
    /// forged input or memory fact must not reach `I'`, where it would
    /// be forwarded or stored as if it had been delivered.
    #[test]
    fn received_facts_outside_the_message_schema_are_rejected() {
        let t = store_and_echo();
        let st = mk_state(&t, &[5]);
        for (forged, name) in [(fact!("S", 9), "S"), (fact!("T", 9), "T")] {
            let received = Instance::from_facts(
                Schema::new().with("M", 1).with("S", 1).with("T", 1),
                vec![fact!("M", 5), forged],
            )
            .unwrap();
            match t.step(&st, &received) {
                Err(EvalError::Rel(RelError::UnknownRelation { rel })) => {
                    assert_eq!(rel, RelName::new(name))
                }
                other => panic!("expected an unknown-relation error, got {other:?}"),
            }
        }
        let wide =
            Instance::from_facts(Schema::new().with("M", 2), vec![fact!("M", 1, 2)]).unwrap();
        assert!(matches!(
            t.step(&st, &wide),
            Err(EvalError::Rel(RelError::ArityMismatch { rel, expected: 1, found: 2 }))
                if rel == RelName::new("M")
        ));
        // Declared but unpopulated extras carry no facts: harmless.
        let empty = Instance::empty(Schema::new().with("M", 1).with("S", 1));
        assert!(t.step(&st, &empty).is_ok());
    }

    #[test]
    fn transitions_are_deterministic() {
        let t = store_and_echo();
        let st = mk_state(&t, &[1]);
        let a = t.step(&st, &msg(&[3])).unwrap();
        let b = t.step(&st, &msg(&[3])).unwrap();
        assert_eq!(a.new_state, b.new_state);
        assert_eq!(a.sent, b.sent);
        assert_eq!(a.output, b.output);
    }

    /// The paper's conflict-resolution semantics, exhaustively:
    /// tuples in ins∖del enter; ins∩del tuples keep their old status;
    /// del∖ins tuples leave; untouched tuples stay.
    #[test]
    fn update_formula_conflict_cases() {
        // memory T/1; ins = A (copy), del = B (copy); input relations A, B.
        let t = TransducerBuilder::new("conflict")
            .input_relation("A", 1)
            .input_relation("B", 1)
            .memory_relation("T", 1)
            .output_arity(0)
            .insert(
                "T",
                cq(CqBuilder::head(vec![Term::var("X")])
                    .when(atom!("A"; @"X"))
                    .build()
                    .unwrap()),
            )
            .delete(
                "T",
                cq(CqBuilder::head(vec![Term::var("X")])
                    .when(atom!("B"; @"X"))
                    .build()
                    .unwrap()),
            )
            .output(Arc::new(rtx_query::EmptyQuery::new(0)))
            .build()
            .unwrap();

        // A = {1(ins only), 2(ins+del)}, B = {2, 3(del only)}.
        // T initially = {2_keep? no... set T = {3, 4}}:
        //   1: ins only, not in T → enters
        //   2: ins∩del, not in T → stays out
        //   3: del only, in T → leaves
        //   4: untouched, in T → stays
        let input = Instance::from_facts(
            Schema::new().with("A", 1).with("B", 1),
            vec![fact!("A", 1), fact!("A", 2), fact!("B", 2), fact!("B", 3)],
        )
        .unwrap();
        let nodes: BTreeSet<Value> = [Value::sym("n")].into_iter().collect();
        let mut st = t
            .schema()
            .initial_state(&input, &Value::sym("n"), &nodes)
            .unwrap();
        st.insert_fact(fact!("T", 3)).unwrap();
        st.insert_fact(fact!("T", 4)).unwrap();

        let res = t.heartbeat(&st).unwrap();
        let tm = res.new_state.relation(&"T".into()).unwrap();
        assert!(tm.contains(&tuple![1]), "ins-only enters");
        assert!(
            !tm.contains(&tuple![2]),
            "conflicting ins/del on absent tuple stays out"
        );
        assert!(!tm.contains(&tuple![3]), "del-only leaves");
        assert!(tm.contains(&tuple![4]), "untouched stays");

        // now with 2 ∈ T: the conflict keeps it.
        let mut st2 = st.clone();
        st2.insert_fact(fact!("T", 2)).unwrap();
        let res2 = t.heartbeat(&st2).unwrap();
        let tm2 = res2.new_state.relation(&"T".into()).unwrap();
        assert!(
            tm2.contains(&tuple![2]),
            "conflicting ins/del on present tuple keeps it"
        );
    }

    #[test]
    fn assignment_pattern_ins_q_del_r() {
        // R := A expressed as ins = A, del = T (current value)
        let t = TransducerBuilder::new("assign")
            .input_relation("A", 1)
            .memory_relation("T", 1)
            .output_arity(0)
            .insert(
                "T",
                cq(CqBuilder::head(vec![Term::var("X")])
                    .when(atom!("A"; @"X"))
                    .build()
                    .unwrap()),
            )
            .delete(
                "T",
                cq(CqBuilder::head(vec![Term::var("X")])
                    .when(atom!("T"; @"X"))
                    .build()
                    .unwrap()),
            )
            .output(Arc::new(rtx_query::EmptyQuery::new(0)))
            .build()
            .unwrap();
        let input = Instance::from_facts(Schema::new().with("A", 1), vec![fact!("A", 5)]).unwrap();
        let nodes: BTreeSet<Value> = [Value::sym("n")].into_iter().collect();
        let mut st = t
            .schema()
            .initial_state(&input, &Value::sym("n"), &nodes)
            .unwrap();
        st.insert_fact(fact!("T", 9)).unwrap(); // old junk
        let res = t.heartbeat(&st).unwrap();
        let tm = res.new_state.relation(&"T".into()).unwrap();
        assert!(tm.contains(&tuple![5]));
        assert!(!tm.contains(&tuple![9]), "assignment clears the old value");
        // note: 5 ∉ old T so it's in ins\del; 9 ∈ del\ins so it leaves.
    }

    #[test]
    fn input_and_system_relations_never_change() {
        let t = store_and_echo();
        let st = mk_state(&t, &[1]);
        let res = t.step(&st, &msg(&[4])).unwrap();
        assert!(res.new_state.contains_fact(&fact!("S", 1)));
        assert!(res.new_state.contains_fact(&fact!("Id", "n1")));
        assert!(res.new_state.contains_fact(&fact!("All", "n1")));
    }

    /// Input `S/2`, memory `T/2` with `T := S ∪ T ∘ T`, output `T`, and
    /// optionally `T`'s delete query.
    fn closure(del: Option<QueryRef>) -> Transducer {
        let xy = || vec![Term::var("X"), Term::var("Y")];
        let ins = UcqQuery::new(
            2,
            vec![
                CqBuilder::head(xy())
                    .when(atom!("S"; @"X", @"Y"))
                    .build()
                    .unwrap(),
                CqBuilder::head(vec![Term::var("X"), Term::var("Z")])
                    .when(atom!("T"; @"X", @"Y"))
                    .when(atom!("T"; @"Y", @"Z"))
                    .build()
                    .unwrap(),
            ],
        )
        .unwrap();
        let mut b = TransducerBuilder::new("closure")
            .input_relation("S", 2)
            .memory_relation("T", 2)
            .output_arity(2)
            .insert("T", Arc::new(ins))
            .output(cq(CqBuilder::head(xy())
                .when(atom!("T"; @"X", @"Y"))
                .build()
                .unwrap()));
        if let Some(del) = del {
            b = b.delete("T", del);
        }
        b.build().unwrap()
    }

    #[test]
    fn delta_relations_grow_and_read_only_what_grows() {
        assert_eq!(
            closure(None).delta_relations(),
            &BTreeSet::from([RelName::new("T")])
        );
        // T has a delete query: it may shrink.
        let del = cq(CqBuilder::head(vec![Term::var("X"), Term::var("Y")])
            .when(atom!("S"; @"Y", @"X"))
            .build()
            .unwrap());
        assert!(closure(Some(del)).delta_relations().is_empty());
        // T's insert query reads the message relation M.
        assert!(store_and_echo().delta_relations().is_empty());
    }

    /// `step_after` gives `step`'s result along a heartbeat sequence,
    /// reports what each transition added, and skips the insert query
    /// after a transition that added nothing.
    #[test]
    fn step_after_matches_step_along_a_run() {
        let t = closure(None);
        let input = Instance::from_facts(
            Schema::new().with("S", 2),
            (1..8).map(|i| fact!("S", i, i + 1)).collect::<Vec<_>>(),
        )
        .unwrap();
        let nodes: BTreeSet<Value> = [Value::sym("n")].into_iter().collect();
        let mut st = t
            .schema()
            .initial_state(&input, &Value::sym("n"), &nodes)
            .unwrap();
        let mut prev: Option<Added> = None;
        for _ in 0..6 {
            let full = t.heartbeat(&st).unwrap();
            let res = t
                .step_after(&st, &Instance::empty(Schema::new()), prev.as_ref())
                .unwrap();
            assert_eq!(res.new_state, full.new_state);
            assert_eq!(res.output, full.output);
            assert_eq!(res.state_changed, full.state_changed);
            let added = res.added.expect("T is delta-evaluated");
            let grown: BTreeSet<Fact> = res
                .new_state
                .facts()
                .filter(|f| !st.contains_fact(f))
                .collect();
            assert_eq!(added.facts().facts().collect::<BTreeSet<_>>(), grown);
            st = res.new_state;
            prev = Some(added);
        }
        assert_eq!(
            st.relation(&"T".into()).unwrap().len(),
            28,
            "the closure of a 7-edge chain"
        );
        assert!(
            prev.as_ref().is_some_and(Added::is_empty),
            "the last step added nothing"
        );
        assert!(store_and_echo()
            .heartbeat(&mk_state(&store_and_echo(), &[1]))
            .unwrap()
            .added
            .is_none());
    }

    /// A step whose second memory relation's insert query fails
    /// returns the error and leaves the state exactly as it was, though
    /// the first relation's insert query succeeded with something to
    /// add: every query runs before any delta is written.
    #[test]
    fn a_failing_step_writes_nothing() {
        let t = TransducerBuilder::new("fails-second")
            .input_relation("S", 1)
            .memory_relation("A", 1)
            .memory_relation("B", 1)
            .insert(
                "A",
                cq(CqBuilder::head(vec![Term::var("X")])
                    .when(atom!("S"; @"X"))
                    .build()
                    .unwrap()),
            )
            .insert(
                "B",
                Arc::new(rtx_query::NativeQuery::new(
                    "fails",
                    1,
                    [RelName::new("S")],
                    |_| Err(EvalError::Other("refused".into())),
                )),
            )
            .build()
            .unwrap();
        let input = Instance::from_facts(Schema::new().with("S", 1), vec![fact!("S", 1)]).unwrap();
        let nodes: BTreeSet<Value> = [Value::sym("n")].into_iter().collect();
        let mut state = t
            .schema()
            .initial_state(&input, &Value::sym("n"), &nodes)
            .unwrap();
        let before = state.clone();
        let silence = Instance::empty(t.schema().message().clone());
        assert!(matches!(
            t.step_in_place(&mut state, &silence, None),
            Err(EvalError::Other(_))
        ));
        assert!(state == before, "a failed step wrote {state:?}");
    }

    #[test]
    fn debug_lists_queries() {
        let t = store_and_echo();
        let d = format!("{t:?}");
        assert!(d.contains("snd[M]"));
        assert!(d.contains("ins[T]"));
        assert!(d.contains("out"));
    }
}
