//! Finite relations: ordered sets of tuples of a fixed arity.
//!
//! One storage engine backs every `Relation`, in two regimes:
//!
//! * **small**: a flat *unsorted* append log with tombstones
//!   ([`SmallTail`]). Inserts, removes, and membership are O(tail)
//!   linear probes with zero sort/fold cost, exactly the shape of the
//!   round executors' tiny per-node relations;
//! * **runs**: a *spine* of disjoint sorted [`Run`]s (the *levels*) in
//!   geometrically decreasing sizes, a sorted run of removed rows that
//!   reads skip, and a buffer of point writes.
//!
//! # The spine
//!
//! A bulk write ([`Relation::absorb_run`], [`Relation::apply_delta`])
//! subtracts its run from the levels and pushes the rest as a new
//! level — a writer whose rows are known to be new
//! ([`Relation::absorb_fresh`]) skips the subtraction, and only looks
//! its rows up among the removed ones; then the newest level merges
//! into the one below while it is
//! at least half that level's size. A bulk removal
//! ([`Relation::remove_run`], and `apply_delta`'s removed rows) adds
//! the rows it finds live to the removed run. So a relation holds
//! O(log n) levels, and each row is rewritten O(log n) times. A merge drops the
//! removed rows it covers and carries its inputs' permutation views
//! (`Run::merge`). Removed rows fold in all at once when they pass a
//! quarter of the rows the levels hold. Point writes
//! ([`Relation::insert`], [`Relation::remove`]) collect in the buffer;
//! the next read seals it into the spine, cached through `&self`, and
//! the next write adopts the sealed spine.
//!
//! Membership probes, the negated-atom probe
//! ([`Relation::contains_vids`]), the join executor (through
//! [`Relation::spine`]), novelty checks ([`Relation::novel`]) and set
//! difference read every level in place, through each level's cached
//! views; a difference skips whole the levels its operands share by
//! handle. Only reads that need one sorted sequence fold the levels into
//! one run: [`Relation::iter`], [`Relation::columnar_run`],
//! [`Relation::diff`], `Ord` and union. The fold is cached, and the next
//! write adopts it as the single level. A clone copies level pointers
//! only, so consecutive versions of a relation — the ticks of a Dedalus
//! trace — share every level they did not write.
//!
//! # Regimes
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
use std::cell::Cell;
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

/// Removed rows fold into the levels once they pass one in this many of
/// the rows the levels hold.
const REMOVED_SHARE: usize = 4;

thread_local! {
    /// Point writes that reached a runs-regime relation on this thread.
    static POINT_WRITES: Cell<u64> = const { Cell::new(0) };
}

fn note_point_write() {
    POINT_WRITES.with(|n| n.set(n.get() + 1));
}

/// How many point inserts and removes reached a runs-regime relation on
/// this thread so far. Each one probes every level of the spine, so a
/// bulk writer ([`Relation::absorb_run`], [`Relation::remove_run`])
/// leaves this count where it was — which tests check.
#[doc(hidden)]
pub fn runs_point_writes() -> u64 {
    POINT_WRITES.with(Cell::get)
}

/// The sorted runs of a relation above the small regime (see the module
/// docs).
///
/// Invariants, checked after every write in debug builds: the levels
/// are nonempty, sorted and pairwise disjoint, each under half the size
/// of the one below; every removed row lies in some level; `len` is
/// Σ|levels| − |removed|. `folded`, when set, is the one run of the
/// live rows.
#[derive(Default)]
struct Spine {
    levels: Vec<Arc<Run>>,
    removed: Option<Arc<Run>>,
    len: usize,
    folded: OnceLock<Arc<Run>>,
}

impl Spine {
    /// The spine of one run.
    fn of(run: Arc<Run>) -> Spine {
        Spine {
            len: run.len(),
            levels: if run.is_empty() {
                Vec::new()
            } else {
                vec![run]
            },
            removed: None,
            folded: OnceLock::new(),
        }
    }

    /// The fold a read cached, when it is a new run rather than the
    /// spine's one level.
    fn fold_apart(&self) -> Option<&Arc<Run>> {
        let run = self.folded.get()?;
        (self.levels.len() != 1 || !Arc::ptr_eq(run, &self.levels[0])).then_some(run)
    }

    /// A copy sharing every level — or, when a read folded this spine,
    /// the fold as its one level, so that a copy never holds both.
    fn share(&self) -> Spine {
        match self.fold_apart() {
            Some(run) => Spine::of(Arc::clone(run)),
            None => Spine {
                levels: self.levels.clone(),
                removed: self.removed.clone(),
                len: self.len,
                folded: OnceLock::new(),
            },
        }
    }

    fn view(&self) -> SpineRef<'_> {
        SpineRef {
            levels: &self.levels,
            removed: self.removed.as_deref(),
        }
    }

    /// Is `t` a live row?
    fn contains(&self, t: &Tuple) -> bool {
        self.levels.iter().any(|l| l.contains(t))
            && !self.removed.as_ref().is_some_and(|r| r.contains(t))
    }

    /// The live rows as one sorted run: the only level when nothing is
    /// removed, else the fold of every level (cached).
    fn run(&self, arity: usize, stats: &StatCells) -> &Arc<Run> {
        self.folded
            .get_or_init(|| match (&self.levels[..], &self.removed) {
                ([], _) => Arc::new(Run::empty(arity)),
                ([only], None) => Arc::clone(only),
                _ => {
                    stats.note_fold();
                    Arc::new(self.fold())
                }
            })
    }

    /// Every level merged into one run, smallest first, dropping the
    /// removed rows.
    fn fold(&self) -> Run {
        let drop = self.removed.as_deref();
        let mut levels = self.levels.iter().rev();
        let Some(smallest) = levels.next() else {
            unreachable!("a fold has levels");
        };
        let mut acc = match levels.next() {
            Some(next) => next.merge(smallest, drop).0,
            None => smallest.merge(&Run::empty(smallest.arity()), drop).0,
        };
        for level in levels {
            acc = level.merge(&acc, drop).0;
        }
        acc
    }

    /// Push `run`, which no level holds, as the newest level; then merge
    /// the newest level into the one below while it is at least half
    /// that level's size.
    fn push(&mut self, run: Run) {
        if run.is_empty() {
            return;
        }
        self.len += run.len();
        let levels = &mut self.levels;
        levels.push(Arc::new(run));
        while let [.., below, top] = &levels[..] {
            if 2 * top.len() < below.len() {
                break;
            }
            let (merged, dropped) = below.merge(top, self.removed.as_deref());
            levels.truncate(levels.len() - 2);
            // Forget the removed rows the merge dropped.
            if !dropped.is_empty() {
                let removed = self.removed.take().expect("dropped rows were removed");
                let rest = removed.without_rows(&dropped);
                self.removed = (!rest.is_empty()).then(|| Arc::new(rest));
            }
            if !merged.is_empty() {
                levels.push(Arc::new(merged));
            }
        }
    }

    /// Remove `rows`, live rows of the levels; fold the removed rows
    /// in once they pass one in [`REMOVED_SHARE`] of the rows held.
    fn remove(&mut self, rows: Run) {
        if rows.is_empty() {
            return;
        }
        self.len -= rows.len();
        let removed = match self.removed.take() {
            Some(r) => r.union(&rows),
            None => rows,
        };
        let held: usize = self.levels.iter().map(|l| l.len()).sum();
        let fold_in = removed.len() * REMOVED_SHARE > held;
        self.removed = Some(Arc::new(removed));
        if fold_in {
            *self = Spine::of(Arc::new(self.fold()));
        }
    }

    /// Add every row of `run` the spine does not hold live (see
    /// [`Spine::absorb_fresh`]). Returns how many rows were added.
    fn absorb(&mut self, run: &Run) -> usize {
        self.absorb_fresh(self.view().novel(run))
    }

    /// Add `run`, which holds no live row: the rows that sit removed in
    /// a level come back, the rest become a new level. No level is
    /// subtracted. Returns how many rows were added — all of them.
    fn absorb_fresh(&mut self, run: Run) -> usize {
        let added = run.len();
        let back = self.removed.as_ref().map(|r| run.intersect(r));
        let fresh = match back.filter(|b| !b.is_empty()) {
            None => run,
            Some(back) => {
                let removed = self.removed.take().expect("rows come back from it");
                let rest = removed.difference(&back);
                self.removed = (!rest.is_empty()).then(|| Arc::new(rest));
                self.len += back.len();
                run.difference(&back)
            }
        };
        self.push(fresh);
        added
    }

    /// Seal point writes in: remove `dels` (live rows), add `adds` (rows
    /// not live).
    fn write(&mut self, adds: &BTreeSet<Tuple>, dels: &BTreeSet<Tuple>) {
        let Some(arity) = adds.iter().chain(dels).next().map(Tuple::arity) else {
            return;
        };
        self.remove(Run::from_sorted(arity, dels.iter()));
        self.absorb_fresh(Run::from_sorted(arity, adds.iter()));
    }

    /// Check the invariants (debug builds only).
    fn check(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        let mut held = 0;
        for (i, level) in self.levels.iter().enumerate() {
            assert!(!level.is_empty(), "level {i} is empty");
            assert!(level.is_strictly_sorted(), "level {i} is not sorted");
            if let Some(next) = self.levels.get(i + 1) {
                assert!(2 * next.len() < level.len(), "level {} is too big", i + 1);
            }
            for (j, other) in self.levels.iter().enumerate().skip(i + 1) {
                assert!(
                    level.intersect(other).is_empty(),
                    "levels {i} and {j} overlap"
                );
            }
            held += level.len();
        }
        let removed = self.removed.as_ref().map_or(0, |r| r.len());
        if let Some(r) = &self.removed {
            let stray = (self.levels.iter()).fold(Run::clone(r), |rest, l| rest.difference(l));
            assert!(
                stray.is_empty(),
                "{} removed rows lie in no level",
                stray.len()
            );
        }
        assert_eq!(self.len, held - removed, "len is not the live row count");
    }
}

/// A relation's sorted runs as reads visit them in place: disjoint
/// levels, and the removed rows that reads skip (see the module docs).
/// A small relation reads as its one sorted run.
#[derive(Clone, Copy)]
pub struct SpineRef<'a> {
    levels: &'a [Arc<Run>],
    removed: Option<&'a Run>,
}

impl<'a> SpineRef<'a> {
    /// The levels: disjoint sorted runs, largest first.
    pub fn levels(&self) -> &'a [Arc<Run>] {
        self.levels
    }

    /// Do the levels hold removed rows, which reads must skip?
    pub fn has_removed(&self) -> bool {
        self.removed.is_some()
    }

    /// Is row `row` of `level`, one of the levels, live (not removed)?
    pub fn is_live(&self, level: &Run, row: usize) -> bool {
        self.removed.is_none_or(|r| !r.contains_row(level, row))
    }

    /// Membership of an interned full-arity key.
    fn contains_vids(&self, key: &[Vid]) -> bool {
        self.levels.iter().any(|l| l.contains_vids(key))
            && !self.removed.is_some_and(|r| r.contains_vids(key))
    }

    /// Is every live row of `self` a live row of `other` (same arity)?
    /// Works a level at a time, folding neither side: a level `other`
    /// shares is inside it when `other` removed nothing, and any other
    /// level's rows outside `other` must all be rows `self` removed.
    fn is_within(&self, other: &SpineRef<'_>) -> bool {
        let same_removed = match (self.removed, other.removed) {
            (None, None) => true,
            (Some(x), Some(y)) => std::ptr::eq(x, y),
            _ => false,
        };
        let same_levels = self.levels.len() == other.levels.len()
            && (self.levels.iter().zip(other.levels)).all(|(x, y)| Arc::ptr_eq(x, y));
        if same_removed && same_levels {
            return true;
        }
        self.levels.iter().all(|level| {
            if other.holds_whole(level) {
                return true;
            }
            if let ([one], None, None) = (other.levels, other.removed, self.removed) {
                return level.is_subset(one); // gallops, and stops at the first miss
            }
            let outside = other.novel(level);
            outside.is_empty() || self.removed.is_some_and(|r| outside.is_subset(r))
        })
    }

    /// Does this spine hold every row of `level` by handle — `level` one
    /// of its levels, and nothing removed?
    fn holds_whole(&self, level: &Arc<Run>) -> bool {
        self.removed.is_none() && self.levels.iter().any(|l| Arc::ptr_eq(l, level))
    }

    /// `run ∖ self`: the rows of `run` that are not live rows here —
    /// the rows no level holds, and the rows that sit removed in one.
    fn novel(&self, run: &Run) -> Run {
        let mut fresh = run.clone();
        for level in self.levels {
            if fresh.is_empty() {
                break;
            }
            fresh = fresh.difference(level);
        }
        match self.removed.map(|r| run.intersect(r)) {
            Some(back) if !back.is_empty() => fresh.union(&back),
            _ => fresh,
        }
    }
}

/// The runs regime: a spine plus the point writes made since it was
/// last written. Every write first adopts what reads built — the sealed
/// spine, then the spine's fold.
struct ColStore {
    spine: Spine,
    /// `None` when no point write is pending.
    pending: Option<Box<Pending>>,
    stats: StatCells,
}

/// Point writes since the spine was last written. Invariants: `adds`
/// holds no live row of the spine, `dels` only live ones (so they are
/// disjoint, and the length is exact), not both are empty; `sealed`,
/// when set, is the spine with them written in.
#[derive(Default)]
struct Pending {
    adds: BTreeSet<Tuple>,
    dels: BTreeSet<Tuple>,
    sealed: OnceLock<Spine>,
}

// A clone shares every level of the spine that reads see, and has no
// point writes pending.
impl Clone for ColStore {
    fn clone(&self) -> ColStore {
        ColStore {
            spine: self.read().share(),
            pending: None,
            stats: self.stats.clone(),
        }
    }
}

impl ColStore {
    /// The store of one sorted run.
    fn of(run: Arc<Run>, stats: StatCells) -> ColStore {
        ColStore {
            spine: Spine::of(run),
            pending: None,
            stats,
        }
    }

    fn len(&self) -> usize {
        match &self.pending {
            Some(p) => self.spine.len + p.adds.len() - p.dels.len(),
            None => self.spine.len,
        }
    }

    fn contains(&self, t: &Tuple) -> bool {
        match &self.pending {
            Some(p) => p.adds.contains(t) || (!p.dels.contains(t) && self.spine.contains(t)),
            None => self.spine.contains(t),
        }
    }

    /// The spine reads see: the written one, or with the pending point
    /// writes sealed in (cached until the next write).
    fn read(&self) -> &Spine {
        match &self.pending {
            None => &self.spine,
            Some(p) => p.sealed.get_or_init(|| {
                let mut spine = self.spine.share();
                spine.write(&p.adds, &p.dels);
                spine.check();
                spine
            }),
        }
    }

    /// The live rows as one sorted run (see [`Spine::run`]).
    fn run(&self, arity: usize) -> &Arc<Run> {
        self.read().run(arity, &self.stats)
    }

    /// Adopt what reads built: the sealed spine, then its fold.
    fn adopt(&mut self) {
        if let Some(spine) = self.pending.as_mut().and_then(|p| p.sealed.take()) {
            self.spine = spine;
            self.pending = None;
        }
        if let Some(run) = self.spine.fold_apart() {
            self.spine = Spine::of(Arc::clone(run));
        }
        self.spine.folded = OnceLock::new();
    }

    /// Adopt, and seal in the point writes no read has sealed: bulk
    /// writes start from a spine with nothing pending.
    fn flush(&mut self) {
        self.adopt();
        if let Some(p) = self.pending.take() {
            self.spine.write(&p.adds, &p.dels);
        }
    }

    /// Insert `t`; `true` if it was not held.
    fn insert(&mut self, t: Tuple) -> bool {
        note_point_write();
        self.adopt();
        let inserted = if self.pending.as_mut().is_some_and(|p| p.dels.remove(&t)) {
            true // a pending remove; undo it
        } else if self.spine.contains(&t) {
            false
        } else {
            self.pending.get_or_insert_with(Box::default).adds.insert(t)
        };
        self.settle();
        inserted
    }

    /// Remove `t`; `true` if it was held.
    fn remove(&mut self, t: &Tuple) -> bool {
        note_point_write();
        self.adopt();
        let removed = if self.pending.as_mut().is_some_and(|p| p.adds.remove(t)) {
            true
        } else if self.spine.contains(t) {
            self.pending
                .get_or_insert_with(Box::default)
                .dels
                .insert(t.clone())
        } else {
            false
        };
        self.settle();
        removed
    }

    /// Drop an empty buffer, and note the buffer's size.
    fn settle(&mut self) {
        match &self.pending {
            Some(p) if p.adds.is_empty() && p.dels.is_empty() => self.pending = None,
            Some(p) => self.stats.note_tail_len(p.adds.len() + p.dels.len()),
            None => {}
        }
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
            Store::Col(ColStore::of(
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
            Store::Col(ColStore::of(Arc::new(run), StatCells::default()))
        }
    }
}

/// A finite `k`-ary relation on **dom**.
///
/// Iteration order is deterministic (sorted) in either regime — the
/// whole simulator relies on runs being pure functions of their inputs.
/// Joins probe the cached views of each level in place
/// ([`Relation::spine`], then [`Run::view`]).
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
    /// the one level of the runs regime; like any promoted relation, the next
    /// bulk rebuild that lands at or below [`REENTRY_LEN`] (delta
    /// application, [`crate::Instance::set_relation`]) re-enters the
    /// small regime.
    pub fn from_run(run: Run) -> Relation {
        Relation {
            arity: run.arity(),
            store: Store::Col(ColStore::of(Arc::new(run), StatCells::default())),
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

    /// The current sorted run. The runs regime folds its levels into
    /// one run, which the next write adopts (a spine of one level with
    /// nothing removed is its own run); the small regime sorts its log
    /// on demand — which **is** the order-demand signal that makes the
    /// next mutation above the hysteresis floor promote. An empty small
    /// relation answers a fresh empty run: no cache, no fold, no demand.
    pub fn columnar_run(&self) -> Arc<Run> {
        match &self.store {
            Store::Col(c) => Arc::clone(c.run(self.arity)),
            Store::Small(s) if s.is_empty() => Arc::new(Run::empty(self.arity)),
            Store::Small(s) => Arc::clone(s.sorted_run()),
        }
    }

    /// In-place union with a run of the same arity. Small relations
    /// point-insert only while the combined size stays at or below the
    /// hysteresis floor, else promote first: absorbing a run is a bulk
    /// operation, so the cheap-probe argument that lets point inserts
    /// ride to the full promotion threshold does not apply — repeated
    /// O(|tail|·|run|) absorbs are exactly the fixpoint inner loop the
    /// runs regime wins. The runs regime subtracts the run from its
    /// levels and pushes the rest as a new level (see the module docs).
    /// Returns the number of tuples actually added.
    pub fn absorb_run(&mut self, run: &Run) -> Result<usize, RelError> {
        if !self.prepare_absorb(run)? {
            return Ok(0);
        }
        match &mut self.store {
            Store::Col(c) => {
                let added = c.spine.absorb(run);
                c.spine.check();
                Ok(added)
            }
            Store::Small(s) => Ok(run.rows().iter().filter(|t| s.insert((*t).clone())).count()),
        }
    }

    /// [`Relation::absorb_run`] for a run that holds no row this
    /// relation holds — what a caller that has just taken
    /// [`Relation::novel`], or that knows every row to be new, writes.
    /// The runs regime skips the subtraction from its levels: only rows
    /// that sit removed in a level are looked up, and they come back
    /// rather than joining a new level. The small regime appends each
    /// row without probing for it, reviving a tombstoned entry instead
    /// where it has one. Debug builds check the precondition. Returns
    /// the number of tuples added: all of them.
    pub fn absorb_fresh(&mut self, run: &Run) -> Result<usize, RelError> {
        if !self.prepare_absorb(run)? {
            return Ok(0);
        }
        match &mut self.store {
            Store::Col(c) => {
                debug_assert_eq!(
                    c.spine.view().novel(run).len(),
                    run.len(),
                    "absorb_fresh: the run holds live rows"
                );
                let added = c.spine.absorb_fresh(Run::clone(run));
                c.spine.check();
                Ok(added)
            }
            Store::Small(s) => {
                s.extend_fresh(run.len(), run.rows().iter());
                Ok(run.len())
            }
        }
    }

    /// [`Relation::absorb_fresh`] for the tuples of `rows`. A small
    /// relation that stays at or below the hysteresis floor appends
    /// `rows`'s tuples by handle when `rows` is small too, with no run
    /// built in between; otherwise this absorbs `rows`'s sorted run.
    pub fn absorb_fresh_rows(&mut self, rows: &Relation) -> Result<usize, RelError> {
        if let (Store::Small(s), Store::Small(r)) = (&mut self.store, &rows.store) {
            if self.arity == rows.arity && s.len() + r.len() <= REENTRY_LEN {
                s.extend_fresh(r.len(), r.live_tuples());
                return Ok(r.len());
            }
        }
        self.absorb_fresh(&rows.columnar_run())
    }

    /// Ready this relation for a bulk union with `run`: check the
    /// arity, then — unless `run` is empty, when this answers `false` —
    /// promote a small relation the union carries past the hysteresis
    /// floor, and seal pending point writes into the spine. Small
    /// relations point-insert only while the combined size stays at or
    /// below the floor (see [`Relation::absorb_run`]).
    fn prepare_absorb(&mut self, run: &Run) -> Result<bool, RelError> {
        if run.arity() != self.arity {
            return Err(RelError::TupleArity {
                expected: self.arity,
                found: run.arity(),
            });
        }
        if run.is_empty() {
            return Ok(false);
        }
        self.pre_mutation();
        if matches!(&self.store, Store::Small(s) if s.len() + run.len() > REENTRY_LEN) {
            self.promote();
        }
        if let Store::Col(c) = &mut self.store {
            c.flush();
        }
        Ok(true)
    }

    /// In-place difference with a run of the same arity — the mirror of
    /// [`Relation::absorb_run`]. The runs regime marks the rows it holds
    /// live as removed in its spine (see the module docs); the small
    /// regime removes them one by one. Returns the number of tuples
    /// actually removed.
    pub fn remove_run(&mut self, run: &Run) -> Result<usize, RelError> {
        if run.arity() != self.arity {
            return Err(RelError::TupleArity {
                expected: self.arity,
                found: run.arity(),
            });
        }
        if run.is_empty() || self.is_empty() {
            return Ok(0);
        }
        self.pre_mutation();
        match &mut self.store {
            Store::Col(c) => {
                c.flush();
                let held = run.difference(&c.spine.view().novel(run));
                let removed = held.len();
                c.spine.remove(held);
                c.spine.check();
                Ok(removed)
            }
            Store::Small(s) => Ok(run.rows().iter().filter(|t| s.remove(t)).count()),
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
    /// probes a negated atom. A run store probes each level (pending
    /// point writes sealed in, as any read seals them); a small relation
    /// scans its log, so the probe neither sorts it nor registers an
    /// order demand.
    pub fn contains_vids(&self, key: &[Vid]) -> bool {
        key.len() == self.arity
            && match &self.store {
                Store::Col(c) => c.read().view().contains_vids(key),
                Store::Small(s) => s.contains_vids(key),
            }
    }

    /// The sorted runs a read visits in place: the spine's levels and
    /// its removed rows, pending point writes sealed in. A small
    /// relation reads as its sorted log, which is an order demand (as
    /// [`Relation::columnar_run`] is); an empty one reads as no level.
    pub fn spine(&self) -> SpineRef<'_> {
        match &self.store {
            Store::Col(c) => c.read().view(),
            Store::Small(s) if s.is_empty() => SpineRef {
                levels: &[],
                removed: None,
            },
            Store::Small(s) => SpineRef {
                levels: std::slice::from_ref(s.sorted_run()),
                removed: None,
            },
        }
    }

    /// The rows of `run` (same arity) this relation does not hold —
    /// `run ∖ self`, subtracted level by level with no fold.
    pub fn novel(&self, run: Run) -> Run {
        debug_assert_eq!(run.arity(), self.arity);
        if self.is_empty() {
            return run;
        }
        self.spine().novel(&run)
    }

    /// Promote a small relation to sorted runs: adopt the sorted view
    /// of the log (building it if no consumer has yet) as the one level
    /// of a [`ColStore`], carrying the counters across. One-way per
    /// growth episode.
    fn promote(&mut self) {
        if let Store::Small(s) = &self.store {
            let base = Arc::clone(s.sorted_run());
            let stats = s.stats_cells().clone();
            stats.note_promotion();
            rtx_obs::registry::add("storage.promotions", 1);
            if rtx_obs::tracing() {
                rtx_obs::event!("storage", "promote", "len" => s.len());
            }
            self.store = Store::Col(ColStore::of(base, stats));
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
                let run = Arc::clone(c.run(self.arity));
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
            Store::Col(c) => c.insert(t),
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
            Store::Col(c) => c.remove(t),
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
    /// promoted relations mark the removed rows and push the added ones
    /// as a level (see the module docs), and re-enter the small regime
    /// when the result lands at or below the hysteresis floor.
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
                c.flush();
                let live = delta.removed().iter().filter(|t| c.spine.contains(t));
                c.spine.remove(Run::from_sorted(self.arity, live));
                c.spine
                    .absorb(&Run::from_sorted(self.arity, delta.added().iter()));
                c.spine.check();
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
            Store::Col(c) => c.run(self.arity).rows().iter(),
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
        // `self ∖ (self ∖ other)`: `other` is read level by level.
        let run = self.columnar_run();
        let outside = other.novel(Run::clone(&run));
        Ok(Relation::from_result_run(run.difference(&outside)))
    }

    /// Set difference `self \ other` (arities must agree).
    ///
    /// `self` is read a level at a time, and neither operand is folded:
    /// a level that `other` holds by handle, when `other` has removed
    /// nothing, is skipped whole; every other level has `other`'s levels
    /// subtracted in place, as in [`Relation::novel`]. Then `self`'s
    /// removed rows are dropped, and the parts, disjoint as the levels
    /// are, land as one run. So `now ∖ earlier`, for an `earlier` clone
    /// of a relation that grew into `now`, costs only the levels written
    /// since.
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
        let (mine, theirs) = (self.spine(), other.spine());
        let mut rest: Option<Run> = None;
        for level in mine.levels.iter().rev().filter(|l| !theirs.holds_whole(l)) {
            let part = theirs.novel(level);
            if !part.is_empty() {
                rest = Some(match rest {
                    Some(acc) => part.union(&acc),
                    None => part,
                });
            }
        }
        let Some(mut rest) = rest else {
            return Ok(Relation::empty(self.arity));
        };
        if let Some(removed) = mine.removed {
            rest = rest.difference(removed);
        }
        Ok(Relation::from_result_run(rest))
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
            (Store::Col(a), Store::Col(b)) => a.read().view().is_within(&b.read().view()),
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
        // With equal cardinalities, set equality is containment — so
        // neither side is sorted or folded: spines that hold the same
        // levels are equal by pointer, others are probed row by row.
        match (&self.store, &other.store) {
            (Store::Small(s), _) => s.live_tuples().all(|t| other.contains(t)),
            (_, Store::Small(s)) => s.live_tuples().all(|t| self.contains(t)),
            (Store::Col(a), Store::Col(b)) => a.read().view().is_within(&b.read().view()),
        }
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

    /// The runs `r` holds — levels and removed rows — by the address of
    /// their first column (which clones of a run share) and length, and
    /// the rows its point-write buffer holds.
    fn held_runs(r: &Relation) -> (Vec<(*const Vid, usize)>, usize) {
        match &r.store {
            Store::Col(c) => {
                let runs = (c.spine.levels.iter().chain(&c.spine.removed))
                    .map(|run| (run.col(0).as_ptr(), run.len()))
                    .collect();
                let buffered = (c.pending.as_ref()).map_or(0, |p| p.adds.len() + p.dels.len());
                (runs, buffered)
            }
            Store::Small(s) => (Vec::new(), s.len()),
        }
    }

    /// A relation that grows in small batches while it is cloned — a
    /// Dedalus trace keeping every tick — shares its levels with every
    /// clone: 256 clones hold O(ΣΔ·log n) distinct rows, where whole
    /// copies would hold Σ|clone|.
    #[test]
    fn clones_share_their_levels() {
        let mut r = Relation::from_run(Run::from_sorted(2, [tuple![0, 0]].iter()));
        let (mut clones, mut next, mut delta) = (Vec::new(), 0i64, 1usize);
        for k in 0..256i64 {
            clones.push(r.clone());
            let rows: Vec<Tuple> = (0..=k)
                .map(|_| {
                    next += 1;
                    tuple![next, next % 7]
                })
                .collect();
            assert_eq!(
                r.absorb_run(&Run::from_sorted(2, rows.iter())).unwrap(),
                rows.len()
            );
            delta += rows.len();
        }
        clones.push(r);
        let mut runs = std::collections::BTreeMap::new();
        let mut held = 0;
        for c in &clones {
            let (levels, buffered) = held_runs(c);
            runs.extend(levels);
            held += buffered;
        }
        held += runs.values().sum::<usize>();
        let n = clones.last().map_or(0, Relation::len);
        assert_eq!(n, delta);
        let copies: usize = clones.iter().map(Relation::len).sum();
        let log_n = usize::BITS - n.leading_zeros();
        // 172,663 rows for ΣΔ = 32,897 and n of 16 bits, against
        // 2,829,313 in copies.
        assert!(
            held <= delta * log_n as usize,
            "{held} rows for ΣΔ = {delta}"
        );
        assert!(held * 10 < copies, "{held} rows against {copies} in copies");
    }

    /// `absorb_fresh` subtracts no level, but a row that sits removed in
    /// a level comes back in place rather than joining a new level, and
    /// a small relation revives a tombstoned entry rather than logging
    /// the row twice.
    #[test]
    fn absorb_fresh_brings_removed_rows_back() {
        let rows: Vec<Tuple> = (0..200i64).map(|i| tuple![i, i % 3]).collect();
        let mut r = Relation::from_run(Run::from_sorted(2, rows.iter()));
        assert_eq!(
            r.remove_run(&Run::from_sorted(2, rows[10..20].iter()))
                .unwrap(),
            10
        );
        let fresh: Vec<Tuple> = (rows[10..15].iter().cloned())
            .chain((200..205i64).map(|i| tuple![i, 0]))
            .collect();
        assert_eq!(
            r.absorb_fresh(&Run::from_sorted(2, fresh.iter())).unwrap(),
            10
        );
        assert_eq!(r.len(), 200);
        let Store::Col(c) = &r.store else {
            panic!("a 200-row relation holds runs")
        };
        let held: usize = c.spine.levels.iter().map(|l| l.len()).sum();
        assert_eq!(held, 205, "only the 5 new rows joined a level");
        assert_eq!(c.spine.removed.as_ref().map(|r| r.len()), Some(5));
        assert!(r
            .iter()
            .eq(rows[..15].iter().chain(&rows[20..]).chain(&fresh[5..])));

        let mut s = Relation::empty(1);
        for i in 0..4i64 {
            s.insert(tuple![i]).unwrap();
        }
        s.remove(&tuple![1]);
        let run = Run::from_sorted(1, [tuple![1], tuple![9]].iter());
        assert_eq!(s.absorb_fresh(&run).unwrap(), 2);
        assert!(s.in_small_regime());
        assert_eq!(s, rel(1, [0, 1, 2, 3, 9].map(|i| tuple![i]).to_vec()));
        assert_eq!(s.storage_stats().tail_hwm, 5, "the tombstone was revived");
    }

    /// `grown ∖ earlier`, for an `earlier` clone of a relation that kept
    /// growing, matches a set model with rows removed on either side
    /// since the clone, and folds neither operand.
    #[test]
    fn difference_across_clones_folds_neither_side() {
        let row = |i: i64| tuple![i, i % 5];
        let first: Vec<Tuple> = (0..100).map(row).collect();
        let mut grown = Relation::from_run(Run::from_sorted(2, first.iter()));
        let mut model: BTreeSet<Tuple> = first.into_iter().collect();
        let mut next = 100i64;
        let remove = |r: &mut Relation, m: &mut BTreeSet<Tuple>, skip: usize| {
            let gone: Vec<Tuple> = m.iter().skip(skip).step_by(9).take(4).cloned().collect();
            assert_eq!(r.remove_run(&Run::from_sorted(2, gone.iter())).unwrap(), 4);
            for t in &gone {
                m.remove(t);
            }
        };
        for step in 0..48usize {
            let (mut earlier, mut earlier_model) = (grown.clone(), model.clone());
            let batch: Vec<Tuple> = (0..(step % 7 + 1) * 3)
                .map(|_| {
                    next += 1;
                    row(next)
                })
                .collect();
            grown
                .absorb_fresh(&Run::from_sorted(2, batch.iter()))
                .unwrap();
            model.extend(batch);
            if step % 3 == 1 {
                remove(&mut grown, &mut model, step);
            }
            if step % 5 == 2 {
                remove(&mut earlier, &mut earlier_model, step + 1);
            }
            let folds = || (grown.storage_stats().folds, earlier.storage_stats().folds);
            let before = folds();
            let new = grown.difference(&earlier).unwrap();
            let back = earlier.difference(&grown).unwrap();
            assert!(grown.difference(&grown.clone()).unwrap().is_empty());
            assert_eq!(folds(), before, "step {step}: an operand was folded");
            let want = |a: &BTreeSet<Tuple>, b: &BTreeSet<Tuple>| {
                Relation::from_tuples(2, a.difference(b).cloned()).unwrap()
            };
            assert_eq!(
                new,
                want(&model, &earlier_model),
                "step {step}: grown ∖ earlier"
            );
            assert_eq!(
                back,
                want(&earlier_model, &model),
                "step {step}: earlier ∖ grown"
            );
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "absorb_fresh")]
    fn absorb_fresh_checks_its_precondition() {
        let rows: Vec<Tuple> = (0..100i64).map(|i| tuple![i]).collect();
        let mut r = Relation::from_run(Run::from_sorted(1, rows.iter()));
        let _ = r.absorb_fresh(&Run::from_sorted(1, [tuple![7], tuple![100]].iter()));
    }

    #[test]
    fn a_relation_stays_compact() {
        // A network node holds a few relations each; the spine's
        // point-write buffer lives behind a box.
        assert!(std::mem::size_of::<Relation>() <= 112);
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
