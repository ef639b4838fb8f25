//! Cross-evaluation incremental maintenance of stratified Datalog
//! (counting-based DRed).
//!
//! [`Program::eval`] re-derives every IDB fact from scratch. A
//! [`MaintainedFixpoint`] instead keeps the fixpoint **materialized
//! between evaluations** and advances it under a ± [`InstanceDelta`] on
//! the base facts:
//!
//! * every derived fact carries a **support count** (number of rule
//!   firings currently deriving it, plus 1 if it is seeded as a base
//!   fact) in a [`CountedRelation`];
//! * an elementary change Δ of one predicate updates counts through the
//!   classic mixed semi-naive expansion `Σᵢ new₁…newᵢ₋₁ Δᵢ oldᵢ₊₁…oldₙ`
//!   over each rule body, so each gained/lost firing is counted exactly
//!   once;
//! * **insertions** propagate monotonically: a fact whose count goes
//!   0 → positive is inserted and cascades;
//! * **deletions** in a stratum without internal recursion are exact by
//!   counting alone (support cannot be cyclic): a fact whose count hits
//!   0 is retracted and cascades. In a recursive stratum counting is
//!   not enough — a fact can keep a spuriously positive count through
//!   cyclic support — so the engine runs **DRed**: over-delete every
//!   fact that lost any derivation, then re-derive the over-deleted
//!   facts a set at a time — one join per rule, with the head pinned
//!   first over the over-deleted facts, counts every firing that still
//!   derives one of them from the surviving database — and feed those
//!   with support to the insertion cascade, which re-derives whatever
//!   they support in turn;
//! * **negation** is handled stratum by stratum: lower-stratum ±
//!   changes are treated exactly like EDB deltas, and a stratum whose
//!   *negated* inputs changed is recomputed wholesale from its
//!   (maintained) inputs — only the affected stratum, never the whole
//!   program.
//!
//! The pass works **a batch at a time**, on sorted runs of interned ids
//! ([`Run`]); no step builds a `Tuple` per fact:
//!
//! * **firing counts**: an expansion's join projects its head rows into
//!   one sorted run with each row's number of firings beside it, and the
//!   rules of one expansion merge into one such run per predicate;
//! * **support counts**: the [`CountedRelation`] adds, subtracts or
//!   clears a whole run and answers with the rows whose presence
//!   flipped;
//! * **worklists**: pending insertions, deletions and over-deleted facts
//!   are one sorted run per predicate, and a step takes one predicate's
//!   whole batch, in predicate-name order. The stratum's net change is
//!   an added and a removed run per predicate, which cancel by run
//!   intersection and difference;
//! * **commits**: each elementary step commits its batch to the
//!   materialized fixpoint as one run ([`Instance::absorb_fresh`], whose
//!   rows the fixpoint cannot hold yet, so no level is subtracted;
//!   [`Instance::remove_run`]), and so do the base ± at the top of
//!   [`MaintainedFixpoint::apply`] and the sequential views of changed
//!   inputs. No point write reaches a relation's spine.
//!
//! In debug builds, [`MaintainedFixpoint::initialize`] and every
//! [`MaintainedFixpoint::apply`] end by checking the support-count
//! invariant: for each IDB predicate, the rows with positive support
//! are exactly the fixpoint's rows.
//!
//! The per-evaluation cost is `O(changed derivations)` instead of
//! `O(all derivations)`; strata whose inputs did not change are skipped
//! entirely. The Dedalus runtime puts this under the tick loop of every
//! program (a rule that names the time variable reads it from a clock
//! fact in the base, so the tick is one more ± on the base), turning
//! the per-tick deductive fixpoint from the hottest loop in the system
//! into a no-op on quiescent ticks.

use crate::datalog::{Literal, Program, Rule};
use crate::error::EvalError;
use crate::frame::join_body;
use crate::plan;
use crate::term::Atom;
use rtx_relational::{
    CountedRelation, Fact, Instance, InstanceDelta, RelName, Relation, Run, Schema,
};
use std::collections::{btree_map::Entry, BTreeMap, BTreeSet};

/// Per-predicate firing counts collected by a delta expansion: the
/// distinct head rows as one sorted run, and beside each row its number
/// of firings.
type HeadCounts = BTreeMap<RelName, (Run, Vec<u64>)>;

/// Pending per-predicate batches, one sorted run each, taken in
/// predicate-name order (deterministic worklist).
type Worklist = BTreeMap<RelName, Run>;

/// A set-level ± change of one predicate: two disjoint sorted runs.
struct Change {
    added: Run,
    removed: Run,
}

impl Change {
    fn empty(arity: usize) -> Change {
        Change {
            added: Run::empty(arity),
            removed: Run::empty(arity),
        }
    }

    fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// Record `rows` as added: rows this change removed come back and
    /// leave no trace, the rest join the added run.
    fn add(&mut self, rows: &Run) {
        cancel_into(&mut self.added, &mut self.removed, rows);
    }

    /// Record `rows` as removed (the mirror of [`Change::add`]).
    fn remove(&mut self, rows: &Run) {
        cancel_into(&mut self.removed, &mut self.added, rows);
    }
}

/// `*to ∪= rows`, except the rows `undo` holds: those leave `undo`.
fn cancel_into(to: &mut Run, undo: &mut Run, rows: &Run) {
    let back = rows.intersect(undo);
    if back.is_empty() {
        union_into(to, rows);
    } else {
        *undo = undo.difference(&back);
        union_into(to, &rows.difference(&back));
    }
}

/// `*to ∪= rows`, sharing `rows` when `to` is empty.
fn union_into(to: &mut Run, rows: &Run) {
    if to.is_empty() {
        *to = rows.clone();
    } else if !rows.is_empty() {
        *to = to.union(rows);
    }
}

/// Add `rows` to `p`'s pending batch.
fn push(work: &mut Worklist, p: &RelName, rows: &Run) {
    if !rows.is_empty() {
        let batch = work
            .entry(p.clone())
            .or_insert_with(|| Run::empty(rows.arity()));
        union_into(batch, rows);
    }
}

/// Counters describing how the maintenance engine earned its keep.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FixpointStats {
    /// Deltas applied since initialization.
    pub deltas_applied: u64,
    /// Strata skipped because none of their inputs changed.
    pub strata_skipped: u64,
    /// Strata maintained incrementally (counting / DRed).
    pub strata_incremental: u64,
    /// Strata recomputed wholesale because a negated input changed.
    pub strata_rebuilt: u64,
    /// Derived facts retracted (including DRed over-deletions).
    pub facts_retracted: u64,
    /// Over-deleted facts put back by DRed re-derivation.
    pub facts_rederived: u64,
    /// Facts produced by rule firings per stratum (before the novelty
    /// check) in the most recent from-scratch evaluation — the work
    /// the fixpoint loop actually did. Filled by
    /// [`Program::eval_with_stats`] and
    /// [`MaintainedFixpoint::initialize`]; `apply` does not update it.
    pub stratum_considered: Vec<u64>,
    /// Novel facts added per stratum in the most recent from-scratch
    /// evaluation — the size of what was derived. The magic-sets
    /// rewrite exists to shrink this; `exp_magic` prints both sides.
    pub stratum_derived: Vec<u64>,
}

impl FixpointStats {
    /// Total facts considered (pre-dedup firings) across all strata of
    /// the last from-scratch evaluation.
    pub fn eval_considered(&self) -> u64 {
        self.stratum_considered.iter().sum()
    }

    /// Total novel facts derived across all strata of the last
    /// from-scratch evaluation.
    pub fn eval_derived(&self) -> u64 {
        self.stratum_derived.iter().sum()
    }

    /// Publish the change since `earlier` into the global
    /// [`rtx_obs`] registry under `fixpoint.*` counters. The
    /// maintenance engine calls this once per applied delta, so the
    /// registry stays a faithful running total of these cumulative
    /// stats without double counting.
    pub fn publish_delta(&self, earlier: &FixpointStats) {
        use rtx_obs::registry::add;
        add(
            "fixpoint.deltas_applied",
            self.deltas_applied.saturating_sub(earlier.deltas_applied),
        );
        add(
            "fixpoint.strata_skipped",
            self.strata_skipped.saturating_sub(earlier.strata_skipped),
        );
        add(
            "fixpoint.strata_incremental",
            self.strata_incremental
                .saturating_sub(earlier.strata_incremental),
        );
        add(
            "fixpoint.strata_rebuilt",
            self.strata_rebuilt.saturating_sub(earlier.strata_rebuilt),
        );
        add(
            "fixpoint.facts_retracted",
            self.facts_retracted.saturating_sub(earlier.facts_retracted),
        );
        add(
            "fixpoint.facts_rederived",
            self.facts_rederived.saturating_sub(earlier.facts_rederived),
        );
    }
}

/// Static shape of one stratum, computed once at construction.
struct StratumInfo {
    /// IDB predicates assigned to this stratum.
    preds: BTreeSet<RelName>,
    /// Indices into `program.rules()` whose head is in `preds`.
    rules: Vec<usize>,
    /// Does any rule of the stratum read a stratum predicate
    /// positively? (Conservative: treats intra-stratum acyclic
    /// dependencies as recursion, which only costs DRed generality.)
    recursive: bool,
    /// Predicates appearing negated in a stratum rule (all lower).
    negated: BTreeSet<RelName>,
    /// Non-stratum predicates read positively (EDB or lower IDB).
    reads: BTreeSet<RelName>,
    /// Predicates with ≥ 2 positive occurrences in a single rule body
    /// (their elementary steps need explicit pre/post versions).
    multi: BTreeSet<RelName>,
    /// The stratum's rules as a standalone program (rebuild path).
    sub: Program,
}

/// Pre/post versions of the pinned predicate for a mixed expansion.
/// `Unneeded` when the predicate occurs at most once per body.
enum PinnedVersions<'a> {
    Unneeded,
    Both {
        pre: &'a Relation,
        post: &'a Relation,
    },
}

/// A stratified-Datalog fixpoint maintained across evaluations under ±
/// deltas of its base facts (see the module docs for the algorithm).
pub struct MaintainedFixpoint {
    program: Program,
    strata: Vec<StratumInfo>,
    /// The base (seed) facts as last applied: EDB relations plus any
    /// exogenously seeded IDB facts.
    base: Instance,
    /// The materialized fixpoint: always equals `program.eval(&base)`.
    total: Instance,
    /// Support counts per IDB predicate.
    counts: BTreeMap<RelName, CountedRelation>,
    initialized: bool,
    stats: FixpointStats,
}

impl MaintainedFixpoint {
    /// Prepare a maintained fixpoint for a program. Fails when the
    /// program is not stratifiable.
    pub fn new(program: &Program) -> Result<Self, EvalError> {
        let strata_preds = program.stratify()?;
        let rules = program.rules();
        let mut strata = Vec::with_capacity(strata_preds.len());
        for preds in strata_preds {
            let idxs: Vec<usize> = rules
                .iter()
                .enumerate()
                .filter(|(_, r)| preds.contains(&r.head().pred))
                .map(|(i, _)| i)
                .collect();
            let mut recursive = false;
            let mut negated = BTreeSet::new();
            let mut reads = BTreeSet::new();
            let mut multi = BTreeSet::new();
            for &ri in &idxs {
                let mut occ: BTreeMap<&RelName, usize> = BTreeMap::new();
                for l in rules[ri].body() {
                    match l {
                        Literal::Pos(a) => {
                            *occ.entry(&a.pred).or_insert(0) += 1;
                            if preds.contains(&a.pred) {
                                recursive = true;
                            } else {
                                reads.insert(a.pred.clone());
                            }
                        }
                        Literal::Neg(a) => {
                            negated.insert(a.pred.clone());
                        }
                        Literal::Diseq(_, _) => {}
                    }
                }
                for (p, n) in occ {
                    if n >= 2 {
                        multi.insert(p.clone());
                    }
                }
            }
            let sub = Program::new(idxs.iter().map(|&i| rules[i].clone()).collect())?;
            strata.push(StratumInfo {
                preds,
                rules: idxs,
                recursive,
                negated,
                reads,
                multi,
                sub,
            });
        }
        Ok(MaintainedFixpoint {
            program: program.clone(),
            strata,
            base: Instance::empty(program.signature().clone()),
            total: Instance::empty(program.signature().clone()),
            initialized: false,
            counts: BTreeMap::new(),
            stats: FixpointStats::default(),
        })
    }

    /// Has [`MaintainedFixpoint::initialize`] run?
    pub fn is_initialized(&self) -> bool {
        self.initialized
    }

    /// Counters describing the maintenance work performed so far.
    pub fn stats(&self) -> &FixpointStats {
        &self.stats
    }

    /// The materialized fixpoint — always equal to
    /// `program.eval(&base)` for the current base.
    pub fn current(&self) -> &Instance {
        &self.total
    }

    /// The support count kept for a fact: the rule firings deriving it
    /// over the current fixpoint, plus 1 if it is a base (seed) fact.
    /// Zero for a fact outside the fixpoint.
    pub fn support(&self, f: &Fact) -> u64 {
        match self.counts.get(f.rel()) {
            Some(c) => c.count(f.tuple()),
            None => u64::from(self.base.contains_fact(f)),
        }
    }

    /// (Re)compute the fixpoint from scratch over `base` and build the
    /// support counts. Must be called once before
    /// [`MaintainedFixpoint::apply`].
    pub fn initialize(&mut self, base: &Instance) -> Result<&Instance, EvalError> {
        let (total, eval_stats) = self.program.eval_with_stats(base)?;
        self.base = base.widen(total.schema().clone()).map_err(EvalError::Rel)?;
        self.counts.clear();
        for p in self.program.idb_predicates() {
            let arity = self
                .program
                .signature()
                .arity(p)
                .expect("IDB predicates are declared in the signature");
            self.counts.insert(p.clone(), CountedRelation::empty(arity));
        }
        self.total = total;
        recount_into(
            self.program.rules(),
            &self.total,
            &self.base,
            self.program.idb_predicates(),
            &mut self.counts,
        )?;
        self.initialized = true;
        // Maintenance counters restart; the per-stratum derivation
        // counters describe the evaluation that just ran.
        self.stats = eval_stats;
        self.check_support();
        Ok(&self.total)
    }

    /// Advance the maintained fixpoint by a ± delta on the base facts.
    ///
    /// After this returns, [`MaintainedFixpoint::current`] equals what
    /// `program.eval` would compute from scratch over the updated base
    /// — the equivalence the `incremental ≡ scratch` property suite
    /// pins down.
    pub fn apply(&mut self, delta: &InstanceDelta) -> Result<&Instance, EvalError> {
        if !self.initialized {
            return Err(EvalError::Other(
                "MaintainedFixpoint::apply before initialize".into(),
            ));
        }
        self.stats.deltas_applied += 1;
        let stats0 = rtx_obs::counting().then(|| self.stats.clone());
        let _apply_span = rtx_obs::trace::span("query", "dred.apply", &[]);
        if delta.is_empty() {
            self.stats.strata_skipped += self.strata.len() as u64;
            if let Some(earlier) = &stats0 {
                self.stats.publish_delta(earlier);
            }
            return Ok(&self.total);
        }
        // Set-filter the delta against the current base: only genuine
        // presence changes act. EDB changes commit to `total` up front
        // (strata reconstruct old versions as needed); IDB changes are
        // seed-support changes routed to the owning stratum.
        let mut changes: BTreeMap<RelName, Change> = BTreeMap::new();
        let mut seeds: BTreeMap<RelName, Change> = BTreeMap::new();
        for (p, run) in runs_by_relation(self.base.schema(), delta.removed(), false)? {
            let gone = held(self.base.relation_ref(&p), &run);
            if gone.is_empty() {
                continue;
            }
            self.base.remove_run(&p, &gone).map_err(EvalError::Rel)?;
            let slot = if self.program.idb_predicates().contains(&p) {
                &mut seeds
            } else {
                self.total.remove_run(&p, &gone).map_err(EvalError::Rel)?;
                &mut changes
            };
            let arity = gone.arity();
            slot.entry(p)
                .or_insert_with(|| Change::empty(arity))
                .removed = gone;
        }
        for (p, run) in runs_by_relation(self.base.schema(), delta.added(), true)? {
            let fresh = match self.base.relation_ref(&p) {
                Some(r) => r.novel(run),
                None => run,
            };
            if fresh.is_empty() {
                continue;
            }
            self.base.absorb_fresh(&p, &fresh).map_err(EvalError::Rel)?;
            let slot = if self.program.idb_predicates().contains(&p) {
                &mut seeds
            } else {
                self.total
                    .absorb_fresh(&p, &fresh)
                    .map_err(EvalError::Rel)?;
                &mut changes
            };
            let arity = fresh.arity();
            slot.entry(p).or_insert_with(|| Change::empty(arity)).added = fresh;
        }
        for si in 0..self.strata.len() {
            let info = &self.strata[si];
            let seed_changes: BTreeMap<RelName, Change> = info
                .preds
                .iter()
                .filter_map(|p| seeds.remove(p).map(|c| (p.clone(), c)))
                .filter(|(_, c)| !c.is_empty())
                .collect();
            let touched: Vec<RelName> = changes
                .iter()
                .filter(|(p, c)| {
                    !c.is_empty() && (info.reads.contains(*p) || info.negated.contains(*p))
                })
                .map(|(p, _)| p.clone())
                .collect();
            if touched.is_empty() && seed_changes.is_empty() {
                self.stats.strata_skipped += 1;
                rtx_obs::event!("query", "dred.skip", "stratum" => si);
                continue;
            }
            if touched.iter().any(|p| info.negated.contains(p)) {
                self.stats.strata_rebuilt += 1;
                rtx_obs::event!("query", "dred.rebuild", "stratum" => si);
                Self::rebuild_stratum(
                    &self.strata[si],
                    &self.base,
                    &mut self.total,
                    &mut self.counts,
                    &mut changes,
                )?;
                continue;
            }
            self.stats.strata_incremental += 1;
            let cascade0 = (self.stats.facts_retracted, self.stats.facts_rederived);
            let mut pass = StratumPass {
                program: &self.program,
                info: &self.strata[si],
                base: &self.base,
                total: &mut self.total,
                counts: &mut self.counts,
                stats: &mut self.stats,
                views: BTreeMap::new(),
                del_work: Worklist::new(),
                add_work: Worklist::new(),
                overdeleted: Worklist::new(),
                net: BTreeMap::new(),
            };
            pass.run(&changes, &seed_changes)?;
            let net = pass.net;
            if rtx_obs::tracing() {
                rtx_obs::event!(
                    "query",
                    "dred.cascade",
                    "stratum" => si,
                    "retracted" => self.stats.facts_retracted - cascade0.0,
                    "rederived" => self.stats.facts_rederived - cascade0.1,
                );
            }
            // A stratum's predicates change in no other stratum.
            changes.extend(net);
        }
        if let Some(earlier) = &stats0 {
            self.stats.publish_delta(earlier);
        }
        self.check_support();
        Ok(&self.total)
    }

    /// Recompute one stratum wholesale from its (already maintained)
    /// inputs — the fallback when a negated input changed. Only this
    /// stratum is touched; its net set-level change feeds higher strata.
    fn rebuild_stratum(
        info: &StratumInfo,
        base: &Instance,
        total: &mut Instance,
        counts: &mut BTreeMap<RelName, CountedRelation>,
        changes: &mut BTreeMap<RelName, Change>,
    ) -> Result<(), EvalError> {
        let mut old: Vec<(RelName, Relation)> = Vec::new();
        for p in &info.preds {
            let arity = total
                .schema()
                .arity(p)
                .ok_or_else(|| EvalError::Other(format!("stratum predicate `{p}` undeclared")))?;
            let empty = || Relation::empty(arity);
            old.push((
                p.clone(),
                total.relation_ref(p).cloned().unwrap_or_else(empty),
            ));
            // The stratum restarts from its seeds.
            let seeds = base.relation_ref(p).cloned().unwrap_or_else(empty);
            total
                .set_relation(p.clone(), seeds)
                .map_err(EvalError::Rel)?;
            counts.insert(p.clone(), CountedRelation::empty(arity));
        }
        *total = info.sub.eval(total)?;
        recount_into(info.sub.rules(), total, base, &info.preds, counts)?;
        for (p, old_rel) in old {
            let empty = Relation::empty(old_rel.arity());
            let new = total.relation_ref(&p).unwrap_or(&empty).columnar_run();
            let old = old_rel.columnar_run();
            let change = Change {
                added: new.difference(&old),
                removed: old.difference(&new),
            };
            // A stratum's predicates change in no other stratum.
            if !change.is_empty() {
                changes.insert(p, change);
            }
        }
        Ok(())
    }

    /// The support-count invariant, checked in debug builds: for every
    /// IDB predicate, the rows with positive support are exactly the
    /// fixpoint's rows, and no count is stored at 0.
    fn check_support(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        for (p, counts) in &self.counts {
            let empty = Relation::empty(counts.arity());
            let rel = self.total.relation_ref(p).unwrap_or(&empty);
            assert!(
                counts.supports_exactly(rel),
                "the support counts of `{p}` disagree with its {} fixpoint rows",
                rel.len()
            );
        }
    }
}

/// One incremental maintenance pass over a single stratum.
struct StratumPass<'a> {
    program: &'a Program,
    info: &'a StratumInfo,
    base: &'a Instance,
    total: &'a mut Instance,
    counts: &'a mut BTreeMap<RelName, CountedRelation>,
    stats: &'a mut FixpointStats,
    /// Sequential-state views of changed *input* predicates: start at
    /// their old value, converge to the (already committed) new value
    /// as elementary steps execute.
    views: BTreeMap<RelName, Relation>,
    del_work: Worklist,
    add_work: Worklist,
    /// DRed over-deleted facts awaiting re-derivation.
    overdeleted: Worklist,
    /// Net set-level change of the stratum's predicates.
    net: BTreeMap<RelName, Change>,
}

impl StratumPass<'_> {
    fn run(
        &mut self,
        changes: &BTreeMap<RelName, Change>,
        seed_changes: &BTreeMap<RelName, Change>,
    ) -> Result<(), EvalError> {
        // Sequential-state views for the changed inputs we read.
        let inputs: Vec<RelName> = changes
            .iter()
            .filter(|(p, c)| !c.is_empty() && self.info.reads.contains(*p))
            .map(|(p, _)| p.clone())
            .collect();
        for p in &inputs {
            let arity = self.total.schema().arity(p).ok_or_else(|| {
                EvalError::Other(format!("changed input predicate `{p}` undeclared"))
            })?;
            let mut old = self
                .total
                .relation_ref(p)
                .cloned()
                .unwrap_or_else(|| Relation::empty(arity));
            advance(&mut old, &changes[p].added, StepDir::Remove)?;
            advance(&mut old, &changes[p].removed, StepDir::Add)?;
            self.views.insert(p.clone(), old);
        }

        // ---- deletion phase (seeds, then inputs, then cascades) ----
        for (p, c) in seed_changes {
            self.lose_seeds(p, &c.removed)?;
        }
        for p in &inputs {
            let removed = &changes[p].removed;
            if removed.is_empty() {
                continue;
            }
            let heads = self.input_step(p, removed, StepDir::Remove)?;
            self.handle_lost(heads)?;
        }
        while let Some((p, rows)) = self.del_work.pop_first() {
            let heads = self.stratum_step(&p, &rows, StepDir::Remove)?;
            self.handle_lost(heads)?;
        }

        // ---- DRed re-derivation (recursive strata only) ----
        self.rederive(seed_changes)?;

        // ---- insertion phase (inputs, seeds, then cascades) ----
        for p in &inputs {
            let added = &changes[p].added;
            if added.is_empty() {
                continue;
            }
            let heads = self.input_step(p, added, StepDir::Add)?;
            self.handle_gained(heads)?;
        }
        for (p, c) in seed_changes {
            self.gain(p, &c.added, &vec![1; c.added.len()])?;
        }
        while let Some((p, rows)) = self.add_work.pop_first() {
            let heads = self.stratum_step(&p, &rows, StepDir::Add)?;
            self.handle_gained(heads)?;
        }
        self.views.clear();
        Ok(())
    }

    /// Execute one elementary step of a changed *input* predicate: run
    /// the mixed expansion against the sequential views, then commit
    /// the step to the view.
    fn input_step(
        &mut self,
        p: &RelName,
        rows: &Run,
        dir: StepDir,
    ) -> Result<HeadCounts, EvalError> {
        let mut cur = self
            .views
            .remove(p)
            .ok_or_else(|| EvalError::Other(format!("no view for changed input `{p}`")))?;
        let pre_copy = self.info.multi.contains(p).then(|| cur.clone());
        let delta_rel = Relation::from_run(rows.clone());
        // Advance the view to the post-step state before the expansion:
        // `cur` plays "post", the copy plays "pre".
        advance(&mut cur, rows, dir)?;
        // `pre_copy` was taken before the mutation, so it is the
        // pre-step state in both directions; `cur` is the post state.
        let versions = match &pre_copy {
            Some(pre) => PinnedVersions::Both { pre, post: &cur },
            None => PinnedVersions::Unneeded,
        };
        let mut heads = HeadCounts::new();
        expansion(
            self.program,
            self.info,
            p,
            &delta_rel,
            &versions,
            &self.views,
            self.total,
            &mut heads,
        )?;
        self.views.insert(p.clone(), cur);
        Ok(heads)
    }

    /// Execute one elementary step of a *stratum* predicate (cascade),
    /// committing the step's batch to `total` after the expansion.
    fn stratum_step(
        &mut self,
        p: &RelName,
        rows: &Run,
        dir: StepDir,
    ) -> Result<HeadCounts, EvalError> {
        let delta_rel = Relation::from_run(rows.clone());
        let empty = Relation::empty(rows.arity());
        let cur = self.total.relation_ref(p).unwrap_or(&empty);
        // `cur` is the pre-step state (removals are still present,
        // additions not yet inserted).
        let post_copy = if self.info.multi.contains(p) {
            let mut post = cur.clone();
            advance(&mut post, rows, dir)?;
            Some(post)
        } else {
            None
        };
        let versions = match &post_copy {
            Some(post) => PinnedVersions::Both { pre: cur, post },
            None => PinnedVersions::Unneeded,
        };
        let mut heads = HeadCounts::new();
        expansion(
            self.program,
            self.info,
            p,
            &delta_rel,
            &versions,
            &self.views,
            self.total,
            &mut heads,
        )?;
        // Commit the step.
        let committed = match (post_copy, dir) {
            (Some(post), _) => self.total.set_relation(p.clone(), post).map(drop),
            (None, StepDir::Remove) => self.total.remove_run(p, rows).map(drop),
            (None, StepDir::Add) => self.total.absorb_fresh(p, rows).map(drop),
        };
        committed.map_err(EvalError::Rel)?;
        Ok(heads)
    }

    /// Stratum facts lost their seed support.
    fn lose_seeds(&mut self, p: &RelName, rows: &Run) -> Result<(), EvalError> {
        if rows.is_empty() {
            return Ok(());
        }
        if self.info.recursive {
            return self.overdelete(p, rows);
        }
        let gone = count_table(self.counts, p)?
            .sub_run(rows, &vec![1; rows.len()])
            .map_err(EvalError::Rel)?;
        self.retract(p, &gone);
        Ok(())
    }

    /// Credit each row of `rows` with its firings or seed support. The
    /// rows whose support rises from zero are inserted and cascade;
    /// those DRed had over-deleted are re-derived.
    fn gain(&mut self, p: &RelName, rows: &Run, firings: &[u64]) -> Result<(), EvalError> {
        let risen = count_table(self.counts, p)?
            .add_run(rows, firings)
            .map_err(EvalError::Rel)?;
        if risen.is_empty() {
            return Ok(());
        }
        push(&mut self.add_work, p, &risen);
        net_of(&mut self.net, p, risen.arity()).add(&risen);
        if let Some(over) = self.overdeleted.get_mut(p) {
            let back = risen.intersect(over);
            if !back.is_empty() {
                *over = over.difference(&back);
                self.stats.facts_rederived += back.len() as u64;
            }
        }
        Ok(())
    }

    /// Process the lost firings of one elementary removal step.
    fn handle_lost(&mut self, heads: HeadCounts) -> Result<(), EvalError> {
        for (p, (rows, lost)) in heads {
            if self.info.recursive {
                self.overdelete(&p, &rows)?;
            } else {
                let gone = count_table(self.counts, &p)?
                    .sub_run(&rows, &lost)
                    .map_err(EvalError::Rel)?;
                self.retract(&p, &gone);
            }
        }
        Ok(())
    }

    /// Process the gained firings of one elementary addition step.
    fn handle_gained(&mut self, heads: HeadCounts) -> Result<(), EvalError> {
        for (p, (rows, gained)) in heads {
            self.gain(&p, &rows, &gained)?;
        }
        Ok(())
    }

    /// DRed over-deletion: recursive-stratum facts that lost *any*
    /// derivation are retracted outright; re-derivation puts survivors
    /// back. Facts already over-deleted this pass are skipped.
    fn overdelete(&mut self, p: &RelName, rows: &Run) -> Result<(), EvalError> {
        let fresh = match self.overdeleted.get(p) {
            Some(over) => rows.difference(over),
            None => rows.clone(),
        };
        if fresh.is_empty() {
            return Ok(());
        }
        push(&mut self.overdeleted, p, &fresh);
        count_table(self.counts, p)?
            .clear_run(&fresh)
            .map_err(EvalError::Rel)?;
        self.retract(p, &fresh);
        Ok(())
    }

    /// Record retractions: enqueue the cascade batch and track the net
    /// change. (The `total` commit happens when the batch is taken.)
    fn retract(&mut self, p: &RelName, rows: &Run) {
        if rows.is_empty() {
            return;
        }
        push(&mut self.del_work, p, rows);
        net_of(&mut self.net, p, rows.arity()).remove(rows);
        self.stats.facts_retracted += rows.len() as u64;
    }

    /// DRed re-derivation, a set at a time. One join per stratum rule,
    /// with the head pinned first over the over-deleted facts of its
    /// predicate, counts every firing that still derives one of them
    /// from the surviving database. Seed support counts only for seeds
    /// that were there before the delta: the insertion phase credits
    /// the new ones. Facts with support re-enter through
    /// [`StratumPass::gain`], so the insertion cascade re-derives
    /// whatever they support without a rescan; whatever is still
    /// over-deleted when the cascade ends is gone for good.
    fn rederive(&mut self, seed_changes: &BTreeMap<RelName, Change>) -> Result<(), EvalError> {
        let pinned: BTreeMap<RelName, Relation> = (self.overdeleted.iter())
            .filter(|(_, over)| !over.is_empty())
            .map(|(p, over)| (p.clone(), Relation::from_run(over.clone())))
            .collect();
        let mut fired = HeadCounts::new();
        for &ri in &self.info.rules {
            let rule = &self.program.rules()[ri];
            let Some(d) = pinned.get(&rule.head().pred) else {
                continue;
            };
            let sources: Option<Vec<(&Atom, &Relation)>> = rule
                .positive()
                .map(|a| Some((a, self.source(&a.pred)?)))
                .collect();
            let Some(mut pos) = sources else {
                continue; // some body relation is empty
            };
            // The head joins as one extra atom after the positive
            // ones, pinned first over the over-deleted facts; ties in
            // bound columns go to the smaller relation.
            let n = pos.len();
            pos.push((rule.head(), d));
            let atoms: Vec<&Atom> = pos.iter().map(|(a, _)| *a).collect();
            let sizes: Vec<usize> = pos.iter().map(|(_, r)| r.len()).collect();
            let order = plan::plan_order_by_size(&atoms, Some(n), &sizes);
            frame_count(rule, &pos, &order, self.total, &mut fired)?;
        }
        for (p, d) in pinned {
            let over = d.columnar_run();
            let (rows, firings) = fired
                .remove(&p)
                .unwrap_or_else(|| (Run::empty(over.arity()), Vec::new()));
            let mut seeded = held(self.base.relation_ref(&p), &over);
            if let Some(c) = seed_changes.get(&p) {
                seeded = seeded.difference(&c.added);
            }
            let (rows, support) = rows.union_counted(&firings, &seeded, &vec![1; seeded.len()]);
            self.gain(&p, &rows, &support)?;
        }
        Ok(())
    }

    /// Source relation for a predicate: the sequential view when the
    /// predicate changed this pass, else the materialized database.
    fn source(&self, p: &RelName) -> Option<&Relation> {
        match self.views.get(p) {
            Some(v) => Some(v),
            None => self.total.relation_ref(p),
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum StepDir {
    Remove,
    Add,
}

/// Advance a relation by one elementary step's batch.
fn advance(rel: &mut Relation, rows: &Run, dir: StepDir) -> Result<(), EvalError> {
    let advanced = match dir {
        StepDir::Remove => rel.remove_run(rows),
        StepDir::Add => rel.absorb_run(rows),
    };
    advanced.map(drop).map_err(EvalError::Rel)
}

/// The net change of `p` this pass, starting empty.
fn net_of<'a>(net: &'a mut BTreeMap<RelName, Change>, p: &RelName, arity: usize) -> &'a mut Change {
    net.entry(p.clone()).or_insert_with(|| Change::empty(arity))
}

/// The rows of `run` that `rel` holds.
fn held(rel: Option<&Relation>, run: &Run) -> Run {
    match rel {
        Some(rel) => run.difference(&rel.novel(run.clone())),
        None => Run::empty(run.arity()),
    }
}

/// A delta's facts — sorted, as an [`InstanceDelta`] keeps them — as
/// one sorted run per relation. A fact the schema does not admit is an
/// error when `strict`, and is skipped otherwise: inserting it fails,
/// and removing it changes nothing.
fn runs_by_relation(
    schema: &Schema,
    facts: &[Fact],
    strict: bool,
) -> Result<Vec<(RelName, Run)>, EvalError> {
    let mut out = Vec::new();
    for group in facts.chunk_by(|a, b| a.rel() == b.rel()) {
        let mut admitted = Vec::with_capacity(group.len());
        for f in group {
            match schema.check_fact(f) {
                Ok(()) => admitted.push(f.tuple()),
                Err(e) if strict => return Err(EvalError::Rel(e)),
                Err(_) => {}
            }
        }
        if let Some(t) = admitted.first() {
            let run = Run::from_sorted(t.arity(), admitted.iter().copied());
            out.push((group[0].rel().clone(), run));
        }
    }
    Ok(out)
}

fn count_table<'a>(
    counts: &'a mut BTreeMap<RelName, CountedRelation>,
    p: &RelName,
) -> Result<&'a mut CountedRelation, EvalError> {
    counts
        .get_mut(p)
        .ok_or_else(|| EvalError::Other(format!("no count table for IDB `{p}`")))
}

/// Build support counts from scratch for the heads of `rules` over
/// `db`: every rule firing plus +1 seed support per base fact of
/// `preds`, read from `base`'s relation of each. The single source of
/// truth for both initialization and negation-triggered stratum
/// rebuilds — the two paths must count identically or the bookkeeping
/// drifts into `NegativeSupport`.
fn recount_into(
    rules: &[Rule],
    db: &Instance,
    base: &Instance,
    preds: &BTreeSet<RelName>,
    counts: &mut BTreeMap<RelName, CountedRelation>,
) -> Result<(), EvalError> {
    let mut heads = HeadCounts::new();
    for r in rules {
        count_rule_firings(r, db, &mut heads)?;
    }
    for (p, (rows, firings)) in heads {
        count_table(counts, &p)?
            .add_run(&rows, &firings)
            .map_err(EvalError::Rel)?;
    }
    for p in preds {
        if let Some(seeds) = base.relation_ref(p) {
            let seeds = seeds.columnar_run();
            count_table(counts, p)?
                .add_run(&seeds, &vec![1; seeds.len()])
                .map_err(EvalError::Rel)?;
        }
    }
    Ok(())
}

/// Count every firing of `rule` over `db` (initialization / rebuild).
fn count_rule_firings(rule: &Rule, db: &Instance, out: &mut HeadCounts) -> Result<(), EvalError> {
    let sources: Option<Vec<(&Atom, &Relation)>> = rule
        .positive()
        .map(|a| Some((a, db.relation_ref(&a.pred)?)))
        .collect();
    match sources {
        Some(pos) => frame_count(rule, &pos, rule.plan(None), db, out),
        None => Ok(()), // some body relation is empty
    }
}

/// The firing counter shared by [`expansion`], DRed's re-derivation
/// and [`count_rule_firings`]: the rule body joined by the crate's one
/// join executor in `order`, each atom of `pos` over the relation it is
/// paired with, and the surviving firings counted per head row, merged
/// into `out` by a sorted merge that adds multiplicities.
fn frame_count(
    rule: &Rule,
    pos: &[(&Atom, &Relation)],
    order: &[usize],
    neg_db: &Instance,
    out: &mut HeadCounts,
) -> Result<(), EvalError> {
    let Some(frame) = join_body(pos, order, rule.negated(), rule.nonequalities(), neg_db)? else {
        return Ok(());
    };
    let head = rule.head();
    let (rows, firings) = frame.project_counts(&head.terms)?;
    match out.entry(head.pred.clone()) {
        Entry::Vacant(slot) => {
            slot.insert((rows, firings));
        }
        Entry::Occupied(mut slot) => {
            let (had, counted) = slot.get();
            let merged = had.union_counted(counted, &rows, &firings);
            slot.insert(merged);
        }
    }
    Ok(())
}

/// The mixed semi-naive expansion for one elementary step of predicate
/// `pinned`: for every rule of the stratum and every occurrence `i` of
/// `pinned` in its body, join `new₁ … newᵢ₋₁ Δᵢ oldᵢ₊₁ … oldₙ` (other
/// predicates at their current sequential state) and count the
/// resulting firings per head tuple. Each gained/lost firing of the
/// step is counted exactly once.
#[allow(clippy::too_many_arguments)]
fn expansion(
    program: &Program,
    info: &StratumInfo,
    pinned: &RelName,
    delta_rel: &Relation,
    versions: &PinnedVersions<'_>,
    views: &BTreeMap<RelName, Relation>,
    total: &Instance,
    out: &mut HeadCounts,
) -> Result<(), EvalError> {
    if delta_rel.is_empty() {
        return Ok(());
    }
    for &ri in &info.rules {
        let rule = &program.rules()[ri];
        let atoms: Vec<&Atom> = rule.positive().collect();
        let occs: Vec<usize> = atoms
            .iter()
            .enumerate()
            .filter(|(_, a)| a.pred == *pinned)
            .map(|(i, _)| i)
            .collect();
        if occs.is_empty() {
            continue;
        }
        'occ: for &i in &occs {
            let mut pos: Vec<(&Atom, &Relation)> = Vec::with_capacity(atoms.len());
            for (j, &a) in atoms.iter().enumerate() {
                let r: &Relation = if j == i {
                    delta_rel
                } else if a.pred == *pinned {
                    match versions {
                        PinnedVersions::Both { pre, post } => {
                            if j < i {
                                post
                            } else {
                                pre
                            }
                        }
                        PinnedVersions::Unneeded => {
                            return Err(EvalError::Other(format!(
                                "expansion of `{pinned}` needs pre/post versions"
                            )))
                        }
                    }
                } else if let Some(v) = views.get(&a.pred) {
                    v
                } else {
                    match total.relation_ref(&a.pred) {
                        Some(r) => r,
                        None => continue 'occ,
                    }
                };
                pos.push((a, r));
            }
            frame_count(rule, &pos, rule.plan(Some(i)), total, out)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom;
    use rtx_relational::{fact, Schema};

    fn rule(head: Atom, body: Vec<Literal>) -> Rule {
        Rule::new(head, body).unwrap()
    }

    fn tc_program() -> Program {
        Program::new(vec![
            rule(
                atom!("T"; @"X", @"Y"),
                vec![Literal::Pos(atom!("E"; @"X", @"Y"))],
            ),
            rule(
                atom!("T"; @"X", @"Z"),
                vec![
                    Literal::Pos(atom!("T"; @"X", @"Y")),
                    Literal::Pos(atom!("E"; @"Y", @"Z")),
                ],
            ),
        ])
        .unwrap()
    }

    /// Apply a delta to both the maintained fixpoint and a shadow base,
    /// and assert the maintained result equals a scratch evaluation.
    fn check_step(
        fix: &mut MaintainedFixpoint,
        base: &mut Instance,
        added: Vec<Fact>,
        removed: Vec<Fact>,
    ) {
        let delta = InstanceDelta::from_parts(added, removed);
        base.apply_delta(&delta).unwrap();
        let maintained = fix.apply(&delta).unwrap().clone();
        let scratch = fix.program.eval(base).unwrap();
        assert_eq!(maintained, scratch, "incremental drifted from scratch");
    }

    fn edge_base(pairs: &[(i64, i64)]) -> Instance {
        let sch = Schema::new().with("E", 2).with("T", 2);
        let mut i = Instance::empty(sch);
        for &(a, b) in pairs {
            i.insert_fact(fact!("E", a, b)).unwrap();
        }
        i
    }

    #[test]
    fn insertions_cascade_through_recursion() {
        let p = tc_program();
        let mut fix = MaintainedFixpoint::new(&p).unwrap();
        let mut base = edge_base(&[(1, 2)]);
        fix.initialize(&base).unwrap();
        check_step(&mut fix, &mut base, vec![fact!("E", 2, 3)], vec![]);
        check_step(&mut fix, &mut base, vec![fact!("E", 3, 4)], vec![]);
        assert!(fix.current().contains_fact(&fact!("T", 1, 4)));
        assert_eq!(fix.stats().strata_rebuilt, 0);
    }

    #[test]
    fn empty_delta_skips_every_stratum() {
        let p = tc_program();
        let mut fix = MaintainedFixpoint::new(&p).unwrap();
        let mut base = edge_base(&[(1, 2), (2, 3)]);
        fix.initialize(&base).unwrap();
        check_step(&mut fix, &mut base, vec![], vec![]);
        assert_eq!(fix.stats().strata_skipped, 1);
        assert_eq!(fix.stats().strata_incremental, 0);
    }

    #[test]
    fn dred_kills_cyclically_supported_facts() {
        // 1→2→1: every T pair is (cyclically) multi-supported. Removing
        // E(2,1) must shrink T to {(1,2)} — pure counting would leave
        // the cycle's facts alive on their spurious mutual support.
        let p = tc_program();
        let mut fix = MaintainedFixpoint::new(&p).unwrap();
        let mut base = edge_base(&[(1, 2), (2, 1)]);
        fix.initialize(&base).unwrap();
        assert_eq!(fix.current().relation(&"T".into()).unwrap().len(), 4);
        check_step(&mut fix, &mut base, vec![], vec![fact!("E", 2, 1)]);
        let t = fix.current().relation(&"T".into()).unwrap();
        assert_eq!(t.len(), 1);
        assert!(fix.stats().facts_retracted >= 3);
    }

    #[test]
    fn dred_rederives_alternately_supported_facts() {
        // Chain 1→2→3→4 plus shortcut 1→3. Removing E(1,2) over-deletes
        // T(1,3)/T(1,4) (they lose their chain derivations) but both
        // must be re-derived through the shortcut.
        let p = tc_program();
        let mut fix = MaintainedFixpoint::new(&p).unwrap();
        let mut base = edge_base(&[(1, 2), (2, 3), (3, 4), (1, 3)]);
        fix.initialize(&base).unwrap();
        check_step(&mut fix, &mut base, vec![], vec![fact!("E", 1, 2)]);
        assert!(fix.current().contains_fact(&fact!("T", 1, 3)));
        assert!(fix.current().contains_fact(&fact!("T", 1, 4)));
        assert!(!fix.current().contains_fact(&fact!("T", 1, 2)));
        assert!(fix.stats().facts_rederived >= 2, "{:?}", fix.stats());
    }

    #[test]
    fn mixed_deltas_on_random_walk_match_scratch() {
        let p = tc_program();
        let mut fix = MaintainedFixpoint::new(&p).unwrap();
        let mut base = edge_base(&[]);
        fix.initialize(&base).unwrap();
        // A fixed ± schedule exercising growth, cycles, and teardown.
        type Step = (Vec<(i64, i64)>, Vec<(i64, i64)>);
        let steps: Vec<Step> = vec![
            (vec![(1, 2), (2, 3)], vec![]),
            (vec![(3, 1)], vec![]),
            (vec![(3, 4), (4, 5)], vec![(2, 3)]),
            (vec![(2, 3)], vec![(3, 1)]),
            (vec![], vec![(1, 2), (3, 4)]),
            (vec![(5, 1)], vec![(4, 5)]),
            (vec![], vec![(2, 3), (5, 1)]),
        ];
        for (add, rem) in steps {
            check_step(
                &mut fix,
                &mut base,
                add.iter().map(|&(a, b)| fact!("E", a, b)).collect(),
                rem.iter().map(|&(a, b)| fact!("E", a, b)).collect(),
            );
        }
    }

    #[test]
    fn negated_input_changes_rebuild_only_that_stratum() {
        // Reach in stratum 0; Unreach = Node ∧ ¬Reach in stratum 1.
        let p = Program::new(vec![
            rule(atom!("Reach"; @"X"), vec![Literal::Pos(atom!("Src"; @"X"))]),
            rule(
                atom!("Reach"; @"Y"),
                vec![
                    Literal::Pos(atom!("Reach"; @"X")),
                    Literal::Pos(atom!("E"; @"X", @"Y")),
                ],
            ),
            rule(
                atom!("Unreach"; @"X"),
                vec![
                    Literal::Pos(atom!("Node"; @"X")),
                    Literal::Neg(atom!("Reach"; @"X")),
                ],
            ),
        ])
        .unwrap();
        let sch = Schema::new()
            .with("E", 2)
            .with("Src", 1)
            .with("Node", 1)
            .with("Reach", 1)
            .with("Unreach", 1);
        let mut base = Instance::from_facts(
            sch,
            vec![
                fact!("E", 1, 2),
                fact!("Src", 1),
                fact!("Node", 1),
                fact!("Node", 2),
                fact!("Node", 3),
            ],
        )
        .unwrap();
        let mut fix = MaintainedFixpoint::new(&p).unwrap();
        fix.initialize(&base).unwrap();
        assert!(fix.current().contains_fact(&fact!("Unreach", 3)));
        // Extending reachability changes the negated input of stratum 1.
        check_step(&mut fix, &mut base, vec![fact!("E", 2, 3)], vec![]);
        assert!(!fix.current().contains_fact(&fact!("Unreach", 3)));
        assert!(fix.stats().strata_rebuilt >= 1);
        // Retracting the edge flips it back.
        check_step(&mut fix, &mut base, vec![], vec![fact!("E", 2, 3)]);
        assert!(fix.current().contains_fact(&fact!("Unreach", 3)));
        // A Node-only change leaves stratum 0 untouched (skipped).
        let skipped_before = fix.stats().strata_skipped;
        check_step(&mut fix, &mut base, vec![fact!("Node", 4)], vec![]);
        assert!(fix.stats().strata_skipped > skipped_before);
    }

    #[test]
    fn idb_seed_changes_adjust_support() {
        // A seeded T fact must survive losing its derivations, and a
        // derived T fact must survive losing its seed.
        let p = tc_program();
        let mut fix = MaintainedFixpoint::new(&p).unwrap();
        let mut base = edge_base(&[(1, 2)]);
        base.insert_fact(fact!("T", 7, 8)).unwrap();
        fix.initialize(&base).unwrap();
        assert!(fix.current().contains_fact(&fact!("T", 7, 8)));
        // Seed the derived fact, then retract the edge: T(1,2) stays.
        check_step(&mut fix, &mut base, vec![fact!("T", 1, 2)], vec![]);
        check_step(&mut fix, &mut base, vec![], vec![fact!("E", 1, 2)]);
        assert!(fix.current().contains_fact(&fact!("T", 1, 2)));
        // Retract the seed too: now it is gone.
        check_step(&mut fix, &mut base, vec![], vec![fact!("T", 1, 2)]);
        assert!(!fix.current().contains_fact(&fact!("T", 1, 2)));
        // The exogenous seed is independent of any rule support.
        check_step(&mut fix, &mut base, vec![], vec![fact!("T", 7, 8)]);
        assert!(!fix.current().contains_fact(&fact!("T", 7, 8)));
    }

    #[test]
    fn a_seed_added_for_an_overdeleted_fact_counts_once() {
        // One delta retracts E(1,2), over-deleting T(1,2), and seeds
        // T(1,2). Re-derivation must not count the new seed that the
        // insertion phase credits as well.
        let p = tc_program();
        let mut fix = MaintainedFixpoint::new(&p).unwrap();
        let mut base = edge_base(&[(1, 2), (2, 3)]);
        fix.initialize(&base).unwrap();
        check_step(
            &mut fix,
            &mut base,
            vec![fact!("T", 1, 2)],
            vec![fact!("E", 1, 2)],
        );
        assert_eq!(fix.support(&fact!("T", 1, 2)), 1);
        let mut recount = MaintainedFixpoint::new(&p).unwrap();
        recount.initialize(&base).unwrap();
        for f in fix.current().facts() {
            assert_eq!(fix.support(&f), recount.support(&f), "{f}");
        }
        assert_eq!(fix.stats().facts_rederived, 2, "T(1,2) and T(1,3) return");
    }

    #[test]
    fn repeated_predicate_occurrences_use_pre_post_versions() {
        // H(X,Z) ← E(X,Y), E(Y,Z): the same predicate twice in one body
        // exercises the mixed pre/post expansion.
        let p = Program::new(vec![rule(
            atom!("H"; @"X", @"Z"),
            vec![
                Literal::Pos(atom!("E"; @"X", @"Y")),
                Literal::Pos(atom!("E"; @"Y", @"Z")),
            ],
        )])
        .unwrap();
        let sch = Schema::new().with("E", 2).with("H", 2);
        let mut base = Instance::empty(sch);
        for &(a, b) in &[(1i64, 2i64), (2, 3), (2, 4)] {
            base.insert_fact(fact!("E", a, b)).unwrap();
        }
        let mut fix = MaintainedFixpoint::new(&p).unwrap();
        fix.initialize(&base).unwrap();
        // A batch that adds two chainable edges at once: the firing
        // using both must be counted exactly once.
        check_step(
            &mut fix,
            &mut base,
            vec![fact!("E", 4, 5), fact!("E", 5, 6)],
            vec![],
        );
        assert!(fix.current().contains_fact(&fact!("H", 4, 6)));
        check_step(
            &mut fix,
            &mut base,
            vec![],
            vec![fact!("E", 2, 3), fact!("E", 4, 5)],
        );
        check_step(&mut fix, &mut base, vec![], vec![fact!("E", 1, 2)]);
        assert!(fix.current().relation(&"H".into()).unwrap().is_empty() == base_h_empty(&base, &p));
    }

    fn base_h_empty(base: &Instance, p: &Program) -> bool {
        p.eval(base)
            .unwrap()
            .relation(&"H".into())
            .unwrap()
            .is_empty()
    }

    #[test]
    fn apply_before_initialize_is_an_error() {
        let p = tc_program();
        let mut fix = MaintainedFixpoint::new(&p).unwrap();
        assert!(!fix.is_initialized());
        let d = InstanceDelta::from_parts(vec![fact!("E", 1, 2)], vec![]);
        assert!(matches!(fix.apply(&d), Err(EvalError::Other(_))));
    }

    #[test]
    fn non_stratifiable_programs_rejected() {
        let p = Program::new(vec![
            rule(
                atom!("P"; @"X"),
                vec![
                    Literal::Pos(atom!("S"; @"X")),
                    Literal::Neg(atom!("Q"; @"X")),
                ],
            ),
            rule(
                atom!("Q"; @"X"),
                vec![
                    Literal::Pos(atom!("S"; @"X")),
                    Literal::Neg(atom!("P"; @"X")),
                ],
            ),
        ])
        .unwrap();
        assert!(MaintainedFixpoint::new(&p).is_err());
    }
}
