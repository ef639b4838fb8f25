//! Finite relations: ordered sets of tuples of a fixed arity.
//!
//! One storage engine backs every `Relation`, in two regimes:
//!
//! * **small**: a flat *unsorted* append log with tombstones
//!   ([`SmallTail`]). Inserts, removes, and membership are O(tail)
//!   linear probes with zero sort/fold cost, exactly the shape of the
//!   round executors' tiny per-node relations;
//! * **runs**: an immutable sorted [`Run`] of flat `Vec<Vid>` columns
//!   plus small sorted add/delete *tails*. Reads that need the full
//!   sorted view fold the tails into a fresh run once (cached until the
//!   next mutation), set algebra and delta application are galloping
//!   merge walks over runs, and indexes are permutation/range views
//!   into the run.
//!
//! A relation **promotes** from the small regime to runs when it
//! reaches [`PROMOTE_LEN`] tuples, when a consumer demands order while
//! it sits above the hysteresis floor [`REENTRY_LEN`] (a quarter of the
//! promotion threshold), or when a bulk run absorption carries it past
//! the floor. Promotion is one-way per growth episode; bulk rebuilds
//! (delta application, [`crate::Instance::set_relation`]) re-enter the
//! small regime only at or below the floor — keeping the folded run as
//! the pre-built sorted cache — so churn-heavy workloads never flap.
//!
//! Both regimes present identical *values*: same iteration order, same
//! equality, same `Ord` — `tests/storage.rs` holds them to a
//! `BTreeSet<Tuple>` model under randomized schedules.

use crate::delta::RelationDelta;
use crate::error::RelError;
use crate::fact::Tuple;
use crate::intern::Vid;
use crate::runs::{Run, SmallTail, StatCells, StorageStats};
use crate::value::Value;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// The live-tuple count at which a small relation promotes to sorted
/// runs. The `storage-adaptive/threshold-sweep` bench group justifies
/// the value empirically.
pub const PROMOTE_LEN: usize = 256;

/// The hysteresis floor: a quarter of [`PROMOTE_LEN`]. Order demands on
/// relations at or below this size never trigger promotion, and bulk
/// rebuilds re-enter the small regime only at or below it — a promoted
/// relation is never demoted above the floor, so promote/demote cycles
/// cannot flap.
pub const REENTRY_LEN: usize = PROMOTE_LEN / 4;

/// Run store: an immutable sorted base run plus small mutable tails,
/// folded together on demand.
///
/// Invariants: `adds ∩ base = ∅` and `dels ⊆ base` (so `adds` and
/// `dels` are disjoint and `len = base − dels + adds` exactly); the
/// `merged` cache, when set, is exactly `(base ∖ dels) ∪ adds` — any
/// mutation first *adopts* a set `merged` as the new base (advancing
/// the run generation) and always leaves `merged` unset.
#[derive(Clone)]
struct ColStore {
    base: Arc<Run>,
    adds: BTreeSet<Tuple>,
    dels: BTreeSet<Tuple>,
    merged: OnceLock<Arc<Run>>,
    stats: StatCells,
}

impl ColStore {
    fn new(base: Arc<Run>, stats: StatCells) -> ColStore {
        ColStore {
            base,
            adds: BTreeSet::new(),
            dels: BTreeSet::new(),
            merged: OnceLock::new(),
            stats,
        }
    }

    fn len(&self) -> usize {
        self.base.len() - self.dels.len() + self.adds.len()
    }

    fn contains(&self, t: &Tuple) -> bool {
        self.adds.contains(t) || (!self.dels.contains(t) && self.base.contains(t))
    }

    /// The current sorted run — the base itself when the tails are
    /// empty, else the cached fold of base and tails.
    fn run(&self) -> &Arc<Run> {
        if self.adds.is_empty() && self.dels.is_empty() {
            &self.base
        } else {
            if self.merged.get().is_none() {
                self.stats.note_fold();
            }
            self.merged.get_or_init(|| {
                let add: Vec<Tuple> = self.adds.iter().cloned().collect();
                let del: Vec<Tuple> = self.dels.iter().cloned().collect();
                Arc::new(self.base.apply_sorted(&add, &del))
            })
        }
    }

    /// If a read has already folded the tails into a run, promote it to
    /// be the new base (fresh run generation); otherwise just drop the
    /// stale cache. Called before every mutation.
    fn adopt(&mut self) {
        if let Some(m) = self.merged.take() {
            self.base = m;
            self.adds.clear();
            self.dels.clear();
        }
    }

    /// Replace the contents with a freshly built run (bulk rebuild),
    /// keeping the counters.
    fn replace_base(&mut self, run: Run) {
        self.base = Arc::new(run);
        self.adds.clear();
        self.dels.clear();
        self.merged = OnceLock::new();
    }

    fn note_tail(&self) {
        self.stats.note_tail_len(self.adds.len() + self.dels.len());
    }
}

#[derive(Clone)]
enum Store {
    Col(ColStore),
    Small(SmallTail),
}

impl Store {
    /// The store for sorted, duplicate-free tuples: the small regime at
    /// or below the hysteresis floor, runs above it.
    fn from_sorted(arity: usize, tuples: Vec<Tuple>) -> Store {
        if tuples.len() <= REENTRY_LEN {
            Store::Small(SmallTail::from_sorted(arity, tuples))
        } else {
            Store::Col(ColStore::new(
                Arc::new(Run::from_sorted(arity, tuples.iter())),
                StatCells::default(),
            ))
        }
    }

    /// The store for a run an operation produced: the small regime at
    /// or below the floor — keeping the run as the pre-built sorted
    /// cache so a downstream ordered read costs no re-sort — runs above.
    fn from_result_run(run: Run) -> Store {
        if run.len() <= REENTRY_LEN {
            Store::Small(SmallTail::from_run(Arc::new(run), StatCells::default()))
        } else {
            Store::Col(ColStore::new(Arc::new(run), StatCells::default()))
        }
    }
}

/// A finite `k`-ary relation on **dom**.
///
/// Iteration order is deterministic (sorted) in either regime — the
/// whole simulator relies on runs being pure functions of their inputs.
/// Joins probe cached views of the sorted run
/// ([`Relation::columnar_run`], then [`Run::view`]).
#[derive(Clone)]
pub struct Relation {
    arity: usize,
    store: Store,
}

impl Relation {
    /// The empty relation of the given arity.
    pub fn empty(arity: usize) -> Self {
        Relation {
            arity,
            store: Store::Small(SmallTail::new(arity)),
        }
    }

    /// Build from tuples, validating arity.
    pub fn from_tuples(
        arity: usize,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<Self, RelError> {
        // Sort + dedup once, then build the store directly — no
        // per-tuple probing.
        let mut v: Vec<Tuple> = Vec::new();
        for t in tuples {
            if t.arity() != arity {
                return Err(RelError::TupleArity {
                    expected: arity,
                    found: t.arity(),
                });
            }
            v.push(t);
        }
        v.sort_unstable();
        v.dedup();
        Ok(Relation {
            arity,
            store: Store::from_sorted(arity, v),
        })
    }

    /// The nullary relation containing the empty tuple — boolean *true*
    /// in the paper's encoding.
    pub fn nullary_true() -> Self {
        let mut r = Relation::empty(0);
        r.insert(Tuple::empty()).expect("empty tuple has arity 0");
        r
    }

    /// The empty nullary relation — boolean *false*.
    pub fn nullary_false() -> Self {
        Relation::empty(0)
    }

    /// Build a relation directly from a sorted run — the zero-copy
    /// landing for join outputs that later joins read. The run becomes
    /// the base of the runs regime; like any promoted relation, the next
    /// bulk rebuild that lands at or below [`REENTRY_LEN`] (delta
    /// application, [`crate::Instance::set_relation`]) re-enters the
    /// small regime.
    pub fn from_run(run: Run) -> Relation {
        Relation {
            arity: run.arity(),
            store: Store::Col(ColStore::new(Arc::new(run), StatCells::default())),
        }
    }

    /// Build a relation from a sorted run in the regime its size calls
    /// for, as set algebra lands its results: the small regime at or
    /// below [`REENTRY_LEN`] (keeping the run as the pre-built sorted
    /// cache), the runs regime above it. The landing for query answers
    /// that a transducer step stores, sends or outputs.
    pub fn from_result_run(run: Run) -> Relation {
        Relation {
            arity: run.arity(),
            store: Store::from_result_run(run),
        }
    }

    /// The current sorted run. The runs regime folds any pending tails
    /// (cached until the next mutation); the small regime sorts its log
    /// on demand — which **is** the order-demand signal that makes the
    /// next mutation above the hysteresis floor promote. An empty small
    /// relation answers a fresh empty run: no cache, no fold, no demand.
    pub fn columnar_run(&self) -> Arc<Run> {
        match &self.store {
            Store::Col(c) => Arc::clone(c.run()),
            Store::Small(s) if s.is_empty() => Arc::new(Run::empty(self.arity)),
            Store::Small(s) => Arc::clone(s.sorted_run()),
        }
    }

    /// In-place union with a run of the same arity. Small relations
    /// point-insert only while the combined size stays at or below the
    /// hysteresis floor, else promote first and take the galloping
    /// merge: absorbing a run is a bulk operation, so the cheap-probe
    /// argument that lets point inserts ride to the full promotion
    /// threshold does not apply — repeated O(|tail|·|run|) absorbs are
    /// exactly the fixpoint inner loop the runs regime wins. Returns
    /// the number of tuples actually added.
    pub fn absorb_run(&mut self, run: &Run) -> Result<usize, RelError> {
        if run.arity() != self.arity {
            return Err(RelError::TupleArity {
                expected: self.arity,
                found: run.arity(),
            });
        }
        if run.is_empty() {
            return Ok(0);
        }
        self.pre_mutation();
        if matches!(&self.store, Store::Small(s) if s.len() + run.len() > REENTRY_LEN) {
            self.promote();
        }
        match &mut self.store {
            Store::Col(c) => {
                let before = c.len();
                c.adopt();
                if c.adds.is_empty() && c.dels.is_empty() {
                    c.base = Arc::new(c.base.union(run));
                } else {
                    let folded = c.run().union(run);
                    c.replace_base(folded);
                }
                Ok(c.len() - before)
            }
            Store::Small(s) => {
                let mut grown = 0usize;
                for t in run.rows() {
                    if s.insert(t.clone()) {
                        grown += 1;
                    }
                }
                Ok(grown)
            }
        }
    }

    /// Is this relation currently in the small (unsorted log) regime?
    /// Observability for promotion-boundary tests and diagnostics.
    pub fn in_small_regime(&self) -> bool {
        matches!(&self.store, Store::Small(_))
    }

    /// A snapshot of this relation's storage counters (promotions,
    /// folds, small-regime probes, tail high-water mark). Counters
    /// travel with the relation through clones, promotions, and
    /// demotions.
    pub fn storage_stats(&self) -> StorageStats {
        match &self.store {
            Store::Col(c) => c.stats.snapshot(),
            Store::Small(s) => s.stats_cells().snapshot(),
        }
    }

    /// Arity of the relation.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        match &self.store {
            Store::Col(c) => c.len(),
            Store::Small(s) => s.len(),
        }
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Interpreted as a boolean (paper encoding): nonempty = true.
    pub fn as_bool(&self) -> bool {
        !self.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, t: &Tuple) -> bool {
        t.arity() == self.arity
            && match &self.store {
                Store::Col(c) => c.contains(t),
                Store::Small(s) => s.contains(t),
            }
    }

    /// Membership test on an interned full-arity key — how a join
    /// probes a negated atom. A run store probes its sorted run (the
    /// tails folded once, as any read folds them); a small relation
    /// scans its log, so the probe neither sorts it nor registers an
    /// order demand.
    pub fn contains_vids(&self, key: &[Vid]) -> bool {
        key.len() == self.arity
            && match &self.store {
                Store::Col(c) => c.run().contains_vids(key),
                Store::Small(s) => s.contains_vids(key),
            }
    }

    /// Promote a small relation to sorted runs: adopt the sorted view
    /// of the log (building it if no consumer has yet) as the base run
    /// of a tail-less [`ColStore`], carrying the counters across.
    /// One-way per growth episode.
    fn promote(&mut self) {
        if let Store::Small(s) = &self.store {
            let base = Arc::clone(s.sorted_run());
            let stats = s.stats_cells().clone();
            stats.note_promotion();
            rtx_obs::registry::add("storage.promotions", 1);
            if rtx_obs::tracing() {
                rtx_obs::event!("storage", "promote", "len" => s.len());
            }
            self.store = Store::Col(ColStore::new(base, stats));
        }
    }

    /// The order-demand half of the promotion policy, run before every
    /// point mutation: a small relation whose sorted view was demanded
    /// since the last mutation, and which sits above the hysteresis
    /// floor, promotes now — the already-built sorted run becomes the
    /// base for free. At or below the floor the demand is ignored
    /// (the next mutation just drops the cache), so tiny hot relations
    /// never leave the small regime however often they are scanned.
    fn pre_mutation(&mut self) {
        let promote = matches!(
            &self.store,
            Store::Small(s) if s.order_demanded() && s.len() > REENTRY_LEN
        );
        if promote {
            self.promote();
        }
    }

    /// The size half of the promotion policy, run after growth: a
    /// small relation reaching [`PROMOTE_LEN`] promotes.
    fn post_growth(&mut self) {
        let promote = matches!(&self.store, Store::Small(s) if s.len() >= PROMOTE_LEN);
        if promote {
            self.promote();
        }
    }

    /// Demote a promoted relation whose *bulk rebuild* landed at or
    /// below the hysteresis floor back into the small regime (the
    /// "clear / rebuild re-enters" half of the policy). Point removals
    /// never demote; [`crate::Instance::set_relation`] calls this on
    /// every relation it stores.
    pub(crate) fn post_rebuild(&mut self) {
        if let Store::Col(c) = &self.store {
            if c.len() <= REENTRY_LEN {
                // Keep the folded run as the tail's pre-built sorted
                // cache: a per-tick bulk rebuild that lands small would
                // otherwise re-sort and rebuild index views on the very
                // next ordered read, every tick.
                let run = Arc::clone(c.run());
                let stats = c.stats.clone();
                rtx_obs::registry::add("storage.demotions", 1);
                if rtx_obs::tracing() {
                    rtx_obs::event!("storage", "demote", "len" => c.len());
                }
                self.store = Store::Small(SmallTail::from_run(run, stats));
            }
        }
    }

    /// Insert a tuple; `Ok(true)` if newly inserted.
    pub fn insert(&mut self, t: Tuple) -> Result<bool, RelError> {
        if t.arity() != self.arity {
            return Err(RelError::TupleArity {
                expected: self.arity,
                found: t.arity(),
            });
        }
        self.pre_mutation();
        let inserted = match &mut self.store {
            Store::Col(c) => {
                c.adopt();
                if c.dels.remove(&t) {
                    true // was deleted from base; undelete
                } else if c.base.contains(&t) {
                    false
                } else {
                    let inserted = c.adds.insert(t);
                    c.note_tail();
                    inserted
                }
            }
            Store::Small(s) => s.insert(t),
        };
        self.post_growth();
        Ok(inserted)
    }

    /// Remove a tuple; `true` if it was present.
    pub fn remove(&mut self, t: &Tuple) -> bool {
        if t.arity() != self.arity {
            return false;
        }
        self.pre_mutation();
        match &mut self.store {
            Store::Col(c) => {
                c.adopt();
                if c.adds.remove(t) {
                    return true;
                }
                if c.base.contains(t) {
                    let removed = c.dels.insert(t.clone());
                    c.note_tail();
                    return removed;
                }
                false
            }
            Store::Small(s) => s.remove(t),
        }
    }

    /// The delta turning `from` into `self`: `added = self ∖ from`,
    /// `removed = from ∖ self` (arities must agree).
    ///
    /// Delta normalization is an order demand: small operands sort
    /// their logs (and may promote on their next mutation if above the
    /// hysteresis floor).
    pub fn diff(&self, from: &Relation) -> Result<RelationDelta, RelError> {
        self.check_same_arity(from)?;
        // Vid-level merge walk: only changed rows materialize.
        let (added, removed) = self.columnar_run().diff(&from.columnar_run());
        Ok(RelationDelta::new(self.arity, added, removed))
    }

    /// Apply a delta in place: remove `delta.removed()`, insert
    /// `delta.added()`. Inverse of [`Relation::diff`]:
    /// `from.apply_delta(&to.diff(&from)?)` makes `from == to`.
    ///
    /// Small relations apply the delta as point operations — no run
    /// merge — unless the result could outgrow the promotion threshold;
    /// promoted relations rebuild with one merge and re-enter the small
    /// regime when the result lands at or below the hysteresis floor.
    pub fn apply_delta(&mut self, delta: &RelationDelta) -> Result<(), RelError> {
        crate::delta::check_arity(self.arity, delta.arity())?;
        if delta.is_empty() {
            return Ok(());
        }
        self.pre_mutation();
        if matches!(
            &self.store,
            Store::Small(s) if s.len() + delta.added().len() >= PROMOTE_LEN
        ) {
            self.promote();
        }
        match &mut self.store {
            Store::Col(c) => {
                // One three-way merge over the current run instead of
                // per-fact tree edits.
                let next = c.run().apply_sorted(delta.added(), delta.removed());
                c.replace_base(next);
            }
            Store::Small(s) => {
                for t in delta.removed() {
                    s.remove(t);
                }
                for t in delta.added() {
                    s.insert(t.clone());
                }
            }
        }
        self.post_rebuild();
        Ok(())
    }

    /// Iterate over tuples in order. (An order demand: small relations
    /// sort their log on first call and cache it until the next
    /// mutation. An empty one has nothing to sort and demands nothing.)
    pub fn iter(&self) -> std::slice::Iter<'_, Tuple> {
        match &self.store {
            Store::Col(c) => c.run().rows().iter(),
            Store::Small(s) if s.is_empty() => [].iter(),
            Store::Small(s) => s.sorted_run().rows().iter(),
        }
    }

    /// A relation of this arity over an operation's output tuples,
    /// which are already sorted and deduplicated.
    fn with_sorted(&self, tuples: Vec<Tuple>) -> Relation {
        Relation {
            arity: self.arity,
            store: Store::from_sorted(self.arity, tuples),
        }
    }

    /// Both operands' small tails, when both are in the small regime —
    /// set algebra over the logs needs no sorted view on either side.
    fn small_pair<'a>(&'a self, other: &'a Relation) -> Option<(&'a SmallTail, &'a SmallTail)> {
        match (&self.store, &other.store) {
            (Store::Small(a), Store::Small(b)) => Some((a, b)),
            _ => None,
        }
    }

    /// Set union (arities must agree).
    pub fn union(&self, other: &Relation) -> Result<Relation, RelError> {
        self.check_same_arity(other)?;
        if let Some((a, b)) = self.small_pair(other) {
            let mut v: Vec<Tuple> = a.live_tuples().cloned().collect();
            v.extend(b.live_tuples().cloned());
            v.sort_unstable();
            v.dedup();
            return Ok(self.with_sorted(v));
        }
        Ok(Relation::from_result_run(
            self.columnar_run().union(&other.columnar_run()),
        ))
    }

    /// Set intersection (arities must agree).
    pub fn intersect(&self, other: &Relation) -> Result<Relation, RelError> {
        self.check_same_arity(other)?;
        if let Some((a, b)) = self.small_pair(other) {
            let mut v: Vec<Tuple> = a.live_tuples().filter(|t| b.contains(t)).cloned().collect();
            v.sort_unstable();
            return Ok(self.with_sorted(v));
        }
        Ok(Relation::from_result_run(
            self.columnar_run().intersect(&other.columnar_run()),
        ))
    }

    /// Set difference `self \ other` (arities must agree).
    pub fn difference(&self, other: &Relation) -> Result<Relation, RelError> {
        self.check_same_arity(other)?;
        if let Some((a, b)) = self.small_pair(other) {
            let mut v: Vec<Tuple> = a
                .live_tuples()
                .filter(|t| !b.contains(t))
                .cloned()
                .collect();
            v.sort_unstable();
            return Ok(self.with_sorted(v));
        }
        Ok(Relation::from_result_run(
            self.columnar_run().difference(&other.columnar_run()),
        ))
    }

    /// Is `self ⊆ other`?
    pub fn is_subset(&self, other: &Relation) -> bool {
        if self.arity != other.arity {
            return false;
        }
        // Probe-based paths first: subset never needs sorted order, so
        // small operands stay free of order demands.
        match (&self.store, &other.store) {
            (Store::Small(s), _) => s.live_tuples().all(|t| other.contains(t)),
            (_, Store::Small(_)) => self.iter().all(|t| other.contains(t)),
            (Store::Col(a), Store::Col(b)) => {
                Arc::ptr_eq(a.run(), b.run()) || a.run().is_subset(b.run())
            }
        }
    }

    /// All values occurring in the relation (its active domain).
    pub fn adom(&self) -> BTreeSet<Value> {
        if let Store::Small(s) = &self.store {
            return s.live_tuples().flat_map(|t| t.iter().copied()).collect();
        }
        self.iter().flat_map(|t| t.iter().copied()).collect()
    }

    /// A new relation with `f` applied to every value (isomorphic image).
    pub fn map_values(&self, mut f: impl FnMut(&Value) -> Value) -> Relation {
        let mut out: Vec<Tuple> = match &self.store {
            Store::Small(s) => s.live_tuples().map(|t| t.map(&mut f)).collect(),
            Store::Col(_) => self.iter().map(|t| t.map(&mut f)).collect(),
        };
        out.sort_unstable();
        out.dedup();
        self.with_sorted(out)
    }

    fn check_same_arity(&self, other: &Relation) -> Result<(), RelError> {
        if self.arity != other.arity {
            return Err(RelError::TupleArity {
                expected: self.arity,
                found: other.arity,
            });
        }
        Ok(())
    }
}

// Caches (folded runs, index views, small sorted views) and counters
// are evaluation artifacts: they must not take part in the relation's
// value, so `Eq`/`Ord` are written by hand over the tuple *sequence*
// only, and hold across the two regimes.
impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        if self.arity != other.arity || self.len() != other.len() {
            return false;
        }
        if let (Store::Col(a), Store::Col(b)) = (&self.store, &other.store) {
            if Arc::ptr_eq(a.run(), b.run()) {
                return true;
            }
        }
        // With equal cardinalities, set equality is containment — so
        // a small operand is compared by probing, never by sorting.
        if let Store::Small(s) = &self.store {
            return s.live_tuples().all(|t| other.contains(t));
        }
        if let Store::Small(s) = &other.store {
            return s.live_tuples().all(|t| self.contains(t));
        }
        self.iter().eq(other.iter())
    }
}

impl Eq for Relation {}

impl PartialOrd for Relation {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Relation {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.arity
            .cmp(&other.arity)
            .then_with(|| self.iter().cmp(other.iter()))
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, t) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl IntoIterator for Relation {
    type Item = Tuple;
    type IntoIter = std::vec::IntoIter<Tuple>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter().cloned().collect::<Vec<_>>().into_iter()
    }
}

impl<'a> IntoIterator for &'a Relation {
    type Item = &'a Tuple;
    type IntoIter = std::slice::Iter<'a, Tuple>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn rel(arity: usize, ts: Vec<Tuple>) -> Relation {
        Relation::from_tuples(arity, ts).unwrap()
    }

    /// `ts` padded with ballast tuples `(1000+i, …)` past the hysteresis
    /// floor, so the relation is built in the runs regime.
    fn promoted(arity: usize, ts: Vec<Tuple>) -> Relation {
        let ballast = (0..=REENTRY_LEN as i64).map(|i| vec![Value::int(1000 + i); arity].into());
        let r = rel(arity, ts.into_iter().chain(ballast).collect());
        assert!(!r.in_small_regime());
        r
    }

    /// Run `f` on a relation built from `ts` in each regime, together
    /// with the ballast the runs-regime copy carries.
    fn both_regimes(arity: usize, ts: Vec<Tuple>, f: impl Fn(Relation, &[Tuple])) {
        f(rel(arity, ts.clone()), &[]);
        let big = promoted(arity, ts.clone());
        let ballast: Vec<Tuple> = big.iter().filter(|t| !ts.contains(t)).cloned().collect();
        f(big, &ballast);
    }

    #[test]
    fn empty_and_insert() {
        let mut r = Relation::empty(2);
        assert!(r.is_empty());
        assert!(r.insert(tuple![1, 2]).unwrap());
        assert!(!r.insert(tuple![1, 2]).unwrap()); // duplicate
        assert_eq!(r.len(), 1);
        assert!(r.contains(&tuple![1, 2]));
        both_regimes(2, vec![], |mut r, ballast| {
            assert!(r.insert(tuple![1, 2]).unwrap());
            assert!(!r.insert(tuple![1, 2]).unwrap());
            assert_eq!(r.len(), ballast.len() + 1);
        });
    }

    #[test]
    fn arity_enforced_on_insert() {
        both_regimes(2, vec![], |mut r, _| {
            assert!(matches!(
                r.insert(tuple![1]),
                Err(RelError::TupleArity {
                    expected: 2,
                    found: 1
                })
            ));
            assert!(!r.contains(&tuple![1]));
        });
    }

    #[test]
    fn boolean_encoding() {
        assert!(Relation::nullary_true().as_bool());
        assert!(!Relation::nullary_false().as_bool());
        assert_eq!(Relation::nullary_true().arity(), 0);
    }

    #[test]
    fn set_algebra() {
        both_regimes(1, vec![tuple![1], tuple![2]], |a, ballast| {
            let b = rel(1, vec![tuple![2], tuple![3]]);
            assert_eq!(a.union(&b).unwrap().len(), 3 + ballast.len());
            assert_eq!(a.intersect(&b).unwrap(), rel(1, vec![tuple![2]]));
            let mut only_a = vec![tuple![1]];
            only_a.extend(ballast.iter().cloned());
            assert_eq!(a.difference(&b).unwrap(), rel(1, only_a));
            assert!(rel(1, vec![tuple![1]]).is_subset(&a));
            assert!(!a.is_subset(&b));
            // and with the regimes swapped between the operands
            assert_eq!(b.difference(&a).unwrap(), rel(1, vec![tuple![3]]));
            assert_eq!(b.intersect(&a).unwrap(), rel(1, vec![tuple![2]]));
        });
    }

    #[test]
    fn set_algebra_rejects_mixed_arity() {
        let a = rel(1, vec![tuple![1]]);
        let b = rel(2, vec![tuple![1, 2]]);
        assert!(a.union(&b).is_err());
        assert!(a.intersect(&b).is_err());
        assert!(a.difference(&b).is_err());
        assert!(!a.is_subset(&b));
    }

    #[test]
    fn regimes_agree_on_values() {
        let ts = vec![tuple![3, 3], tuple![1, 1], tuple![2, 2]];
        let small = rel(2, ts.clone());
        let mut big = promoted(2, ts);
        for i in 0..=REENTRY_LEN as i64 {
            big.remove(&vec![Value::int(1000 + i); 2].into());
        }
        assert!(small.in_small_regime() && !big.in_small_regime());
        assert_eq!(small, big);
        assert_eq!(big, small);
        assert_eq!(small.cmp(&big), std::cmp::Ordering::Equal);
        assert!(small.is_subset(&big) && big.is_subset(&small));
        assert_eq!(
            small.iter().collect::<Vec<_>>(),
            big.iter().collect::<Vec<_>>()
        );
        assert_eq!(small.union(&big).unwrap(), big);
        assert!(big.difference(&small).unwrap().is_empty());
    }

    #[test]
    fn adom_collects_all_values() {
        let r = rel(2, vec![tuple![1, "a"], tuple![2, "a"]]);
        let d = r.adom();
        assert_eq!(d.len(), 3);
        assert!(d.contains(&Value::int(1)));
        assert!(d.contains(&Value::sym("a")));
        let d = promoted(2, vec![tuple![1, "a"]]).adom();
        assert!(d.contains(&Value::sym("a")));
        assert_eq!(d.len(), REENTRY_LEN + 3);
    }

    #[test]
    fn map_values_is_isomorphic_image() {
        both_regimes(2, vec![tuple![1, 2]], |r, ballast| {
            let s = r.map_values(|v| match v {
                Value::Int(i) => Value::int(i * 10),
                o => *o,
            });
            assert!(s.contains(&tuple![10, 20]));
            assert_eq!(s.len(), 1 + ballast.len());
        });
    }

    #[test]
    fn deterministic_iteration_order() {
        both_regimes(1, vec![tuple![3], tuple![1], tuple![2]], |r, _| {
            let order: Vec<_> = r.iter().take(3).cloned().collect();
            assert_eq!(order, vec![tuple![1], tuple![2], tuple![3]]);
        });
    }

    #[test]
    fn remove_and_idempotence() {
        both_regimes(1, vec![tuple![1]], |mut r, _| {
            assert!(r.remove(&tuple![1]));
            assert!(!r.remove(&tuple![1]));
            assert!(!r.contains(&tuple![1]));
        });
    }

    #[test]
    fn tail_interleavings_match_btree() {
        // insert → remove → re-insert cycles through the add/del tails
        // (runs regime) and the tombstone log (small regime).
        both_regimes(1, (0..10).map(|i| tuple![i]).collect(), |mut r, ballast| {
            assert!(r.remove(&tuple![3]));
            assert!(!r.contains(&tuple![3]));
            assert!(r.insert(tuple![3]).unwrap()); // undelete
            assert!(r.contains(&tuple![3]));
            assert!(r.insert(tuple![42]).unwrap());
            assert!(r.remove(&tuple![42])); // remove from the add tail
            assert_eq!(r.len(), 10 + ballast.len());
            let mut expect: BTreeSet<Tuple> = (0..10).map(|i| tuple![i]).collect();
            expect.extend(ballast.iter().cloned());
            assert!(r.iter().eq(expect.iter()));
        });
    }

    /// The tuples of `r` whose `cols` equal `key`, probed through the
    /// cached view of its sorted run.
    fn probe(r: &Relation, cols: &[usize], key: &[Value]) -> Vec<Tuple> {
        let run = r.columnar_run();
        let key: Vec<Vid> = key.iter().map(Vid::from_value).collect();
        let view = run.view(cols);
        view.probe_rows(&key)
            .map(|i| run.rows()[i].clone())
            .collect()
    }

    #[test]
    fn index_probe_matches_scan() {
        both_regimes(2, vec![tuple![1, 2], tuple![1, 3], tuple![2, 3]], |r, _| {
            let scan: Vec<_> = r
                .iter()
                .filter(|t| t.values()[0] == Value::int(1))
                .cloned()
                .collect();
            assert_eq!(scan.len(), 2);
            assert_eq!(probe(&r, &[0], &[Value::int(1)]), scan);
            // non-prefix columns exercise the permutation view
            assert_eq!(
                probe(&r, &[1], &[Value::int(3)]),
                vec![tuple![1, 3], tuple![2, 3]]
            );
        });
    }

    #[test]
    fn index_is_cached_until_mutation() {
        // Both regimes memoize the sorted run, and the run its views.
        both_regimes(2, vec![tuple![1, 2]], |mut r, _| {
            let a = r.columnar_run().view(&[1]);
            let b = r.columnar_run().view(&[1]);
            assert!(Arc::ptr_eq(&a, &b));
            r.insert(tuple![5, 6]).unwrap();
            let c = r.columnar_run().view(&[1]);
            assert!(!Arc::ptr_eq(&a, &c));
            // the old snapshot is unchanged, the fresh view sees the insert
            let six = [Vid::from_value(&Value::int(6))];
            assert!(a.probe_rows(&six).is_empty());
            assert_eq!(c.probe_rows(&six).len(), 1);
        });
    }

    #[test]
    fn small_regime_index_is_a_fresh_snapshot() {
        let mut r = rel(2, vec![tuple![1, 2]]);
        assert!(r.in_small_regime());
        let a = r.columnar_run();
        // repeated reads of an unchanged relation reuse the memoized
        // sorted run instead of re-sorting the log
        assert!(Arc::ptr_eq(&a, &r.columnar_run()));
        r.insert(tuple![5, 6]).unwrap();
        let b = r.columnar_run();
        assert!(!Arc::ptr_eq(&a, &b), "mutation invalidates the memo");
        assert_eq!(probe(&r, &[0], &[Value::int(5)]), vec![tuple![5, 6]]);
        let five = [Vid::from_value(&Value::int(5))];
        assert!(a.view(&[0]).probe_rows(&five).is_empty());
        // at the hysteresis floor, order demands never promote
        assert!(r.in_small_regime());
        assert_eq!(r.storage_stats().promotions, 0);
    }

    #[test]
    fn clones_share_columnar_index_views() {
        let r = promoted(2, vec![tuple![1, 2]]);
        let s = r.clone();
        let a = r.columnar_run().view(&[1]);
        let b = s.columnar_run().view(&[1]);
        assert!(Arc::ptr_eq(&a, &b)); // same run, same view chain
    }

    #[test]
    fn contains_vids_agrees_with_contains() {
        both_regimes(2, vec![tuple![1, 2], tuple![3, "x"]], |mut r, ballast| {
            let vids = |t: &Tuple| -> Vec<Vid> { t.iter().map(Vid::from_value).collect() };
            // with tails pending in the runs regime, and folded
            r.insert(tuple![7, 7]).unwrap();
            r.remove(&tuple![1, 2]);
            for _ in 0..2 {
                for t in [tuple![1, 2], tuple![3, "x"], tuple![7, 7], tuple![9, 9]]
                    .iter()
                    .chain(ballast)
                {
                    assert_eq!(r.contains_vids(&vids(t)), r.contains(t), "{t}");
                }
                let _ = r.columnar_run();
            }
            assert!(!r.contains_vids(&vids(&tuple![3])), "wrong arity");
        });
    }

    #[test]
    fn cache_never_affects_equality() {
        both_regimes(2, vec![tuple![1, 2]], |a, _| {
            let b = a.iter().cloned().collect::<Vec<_>>();
            let b = rel(2, b);
            let _ = a.columnar_run().view(&[0]);
            let _ = a.columnar_run().view(&[1]);
            assert_eq!(a, b);
            assert_eq!(a.cmp(&b), std::cmp::Ordering::Equal);
            let c = a.clone();
            assert_eq!(a, c);
            // and with a dirty tail folded on one side only:
            let mut d = a.clone();
            d.insert(tuple![9, 9]).unwrap();
            d.remove(&tuple![9, 9]);
            let _ = d.iter().count(); // forces the merged / sorted run
            assert_eq!(a, d);
            assert_eq!(a.cmp(&d), std::cmp::Ordering::Equal);
        });
    }

    #[test]
    fn diff_apply_delta_roundtrip() {
        both_regimes(1, vec![tuple![1], tuple![2]], |from, ballast| {
            let mut to_ts = vec![tuple![2], tuple![3]];
            to_ts.extend(ballast.iter().cloned());
            let to = rel(1, to_ts);
            let d = to.diff(&from).unwrap();
            assert_eq!(d.added(), &[tuple![3]]);
            assert_eq!(d.removed(), &[tuple![1]]);
            assert_eq!(d.len(), 2);
            let mut r = from.clone();
            r.apply_delta(&d).unwrap();
            assert_eq!(r, to);
            // empty delta round-trips too
            let e = to.diff(&to).unwrap();
            assert!(e.is_empty());
            r.apply_delta(&e).unwrap();
            assert_eq!(r, to);
        });
    }

    #[test]
    fn diff_rejects_mixed_arity() {
        let a = rel(1, vec![tuple![1]]);
        let b = rel(2, vec![tuple![1, 2]]);
        assert!(a.diff(&b).is_err());
        let mut c = a.clone();
        let d = b.diff(&b).unwrap();
        assert!(c.apply_delta(&d).is_err());
    }

    #[test]
    fn adaptive_promotes_at_threshold_and_counts_it() {
        let n = PROMOTE_LEN;
        let mut r = Relation::empty(1);
        for i in 0..(n - 1) as i64 {
            r.insert(tuple![i]).unwrap();
        }
        assert!(r.in_small_regime(), "N−1 inserts stay in the small regime");
        assert_eq!(r.storage_stats().promotions, 0);
        r.insert(tuple![(n as i64) - 1]).unwrap();
        assert!(!r.in_small_regime(), "the Nth insert promotes");
        assert_eq!(r.storage_stats().promotions, 1);
        r.insert(tuple![n as i64]).unwrap();
        assert_eq!(r.storage_stats().promotions, 1, "promotion is one-way");
        assert_eq!(r.len(), n + 1);
    }

    #[test]
    fn reading_an_empty_relation_builds_no_run() {
        let mut r = rel(1, vec![tuple![1]]);
        r.remove(&tuple![1]);
        for r in [Relation::empty(2), r] {
            assert_eq!(r.iter().count(), 0);
            let run = r.columnar_run();
            assert!(run.is_empty() && run.arity() == r.arity());
            assert_eq!(r.storage_stats().folds, 0, "no fold for an empty read");
            match &r.store {
                Store::Small(s) => assert!(!s.order_demanded(), "no order demand pending"),
                Store::Col(_) => panic!("an empty relation stays small"),
            }
        }
    }

    #[test]
    fn order_demand_promotes_only_above_the_floor() {
        let floor = REENTRY_LEN;
        // At the floor: scans + mutations forever, never promotes.
        let mut r = rel(1, (0..floor as i64).map(|i| tuple![i]).collect());
        for _ in 0..8 {
            let _ = r.iter().count(); // order demand
            assert!(r.remove(&tuple![0]));
            assert!(r.insert(tuple![0]).unwrap());
        }
        assert!(r.in_small_regime());
        assert_eq!(r.storage_stats().promotions, 0);
        // One above the floor: the first mutation after an order
        // demand promotes.
        let mut r = Relation::empty(1);
        for i in 0..=(floor as i64) {
            r.insert(tuple![i]).unwrap();
        }
        assert!(r.in_small_regime());
        let _ = r.iter().count(); // order demand above the floor
        assert!(r.in_small_regime(), "the demand itself does not promote");
        r.remove(&tuple![0]);
        assert!(!r.in_small_regime(), "the next mutation does");
        assert_eq!(r.storage_stats().promotions, 1);
    }

    #[test]
    fn bulk_rebuild_reenters_small_regime() {
        let n = PROMOTE_LEN;
        let floor = REENTRY_LEN;
        let mut r = Relation::empty(1);
        for i in 0..n as i64 {
            r.insert(tuple![i]).unwrap();
        }
        assert!(!r.in_small_regime());
        // A delta that clears almost everything re-enters the small
        // regime; the counters survive the round trip.
        let target = rel(1, (0..(floor as i64) - 1).map(|i| tuple![i]).collect());
        let d = target.diff(&r).unwrap();
        r.apply_delta(&d).unwrap();
        assert_eq!(r, target);
        assert!(r.in_small_regime(), "rebuild at the floor demotes");
        assert_eq!(r.storage_stats().promotions, 1);
        // ... and the relation can grow right back up and re-promote.
        for i in 0..n as i64 {
            r.insert(tuple![i]).unwrap();
        }
        assert!(!r.in_small_regime());
        assert_eq!(r.storage_stats().promotions, 2);
    }

    #[test]
    fn point_removals_never_demote() {
        let n = PROMOTE_LEN;
        let mut r = Relation::empty(1);
        for i in 0..n as i64 {
            r.insert(tuple![i]).unwrap();
        }
        assert!(!r.in_small_regime());
        for i in 0..(n as i64) - 1 {
            assert!(r.remove(&tuple![i]));
        }
        assert_eq!(r.len(), 1);
        assert!(!r.in_small_regime(), "promotion is one-way per episode");
    }

    #[test]
    fn from_run_lands_in_the_runs_regime_and_demotes_on_rebuild() {
        let run = Run::from_sorted(1, [tuple![1], tuple![2]].iter());
        let mut r = Relation::from_run(run);
        assert!(!r.in_small_regime(), "zero-copy landing");
        assert_eq!(r, rel(1, vec![tuple![1], tuple![2]]));
        r.post_rebuild();
        assert!(r.in_small_regime(), "a small run re-enters on rebuild");
        assert_eq!(r, rel(1, vec![tuple![1], tuple![2]]));
    }

    #[test]
    fn from_result_run_lands_in_the_regime_its_size_calls_for() {
        let small = Run::from_sorted(1, [tuple![1], tuple![2]].iter());
        let r = Relation::from_result_run(small);
        assert!(r.in_small_regime(), "at or below the floor: small");
        assert_eq!(r, rel(1, vec![tuple![1], tuple![2]]));
        let big: Vec<Tuple> = (0..=REENTRY_LEN as i64).map(|i| tuple![i]).collect();
        let r = Relation::from_result_run(Run::from_sorted(1, big.iter()));
        assert!(!r.in_small_regime(), "above the floor: runs");
        assert_eq!(r, rel(1, big));
    }
}
