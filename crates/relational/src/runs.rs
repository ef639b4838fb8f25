//! Columnar sorted runs — the storage layer beneath promoted
//! [`Relation`](crate::Relation)s, plus the small regime's unsorted log.
//!
//! A [`Run`] is an immutable, sorted, duplicate-free batch of tuples
//! stored column-major as flat `Vec<Vid>`s (one per column). Sortedness
//! is in the *structural* value order ([`Vid::cmp_structural`]), i.e.
//! exactly the order a `BTreeSet<Tuple>` iterates in, so a relation's
//! iteration order is deterministic whatever its history.
//!
//! A promoted relation is a *spine* of runs (see
//! [`Relation`](crate::Relation)): disjoint levels in geometrically
//! decreasing sizes plus a run of removed rows. A write pushes a new
//! level, and the newest level merges into the one below while it is at
//! least half that level's size; `Run::merge` is that merge, dropping
//! the removed rows it meets. Joins, membership probes and novelty
//! checks read every level in place; only reads that need one sorted
//! sequence (a scan, a diff, union) fold the levels into one run, with
//! the same merge.
//!
//! Set operations (union, intersection, difference, delta application,
//! diffing) are merge walks over two runs that compare packed `u32`
//! ids, bulk-copy exhausted tails column-wise, and *gallop*
//! (exponential-probe binary search) across long stretches where one
//! side is far ahead — never touching a `Tuple` allocation except for
//! rows that actually change.
//!
//! Row access for callers that need `&Tuple`s (iteration, small-regime
//! landings) goes through a per-run lazily materialized row cache; it is
//! built at most once per run and shared by every clone of the owning
//! relation. Secondary indexes are *views* into a run — a sorted
//! permutation, or for key-prefix columns no structure at all — held on
//! a lock-free append-only chain so the hot read path takes no lock
//! (see [`Run::view`]). A merge (`Run::merge`, and
//! [`Run::apply_sorted`] built on it) hands every cached permutation
//! view of its larger input on to the run it produces, merged with the
//! other input's rows rather than re-sorted, so a level's views survive
//! the merges that grow it.

use crate::fact::Tuple;
use crate::index::Index;
use crate::intern::Vid;
use std::cmp::Ordering;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as AtomicOrd};
use std::sync::{Arc, OnceLock};

/// The immutable payload of a run: sorted columns plus the lazy row
/// cache. Split from [`Run`] so index views can hold an `Arc` to the
/// data without creating a reference cycle through the view chain.
pub(crate) struct RunData {
    len: usize,
    cols: Vec<Vec<Vid>>,
    rows: OnceLock<Vec<Tuple>>,
    /// Packed row keys (see [`RunData::packed`]), built on first merge.
    packed: OnceLock<Option<Vec<u64>>>,
}

impl RunData {
    pub(crate) fn arity(&self) -> usize {
        self.cols.len()
    }

    #[inline]
    pub(crate) fn vid(&self, col: usize, row: usize) -> Vid {
        self.cols[col][row]
    }

    /// Structural comparison of row `i` of `self` against row `j` of
    /// `other` (same arity), column by column.
    #[inline]
    fn row_cmp(&self, i: usize, other: &RunData, j: usize) -> Ordering {
        for c in 0..self.cols.len() {
            match self.cols[c][i].cmp_structural(other.cols[c][j]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// The order of every permutation view on `cols`: rows `x` and `y`
    /// by their key columns, ties broken by row index (scan order).
    #[inline]
    fn perm_cmp(&self, cols: &[usize], x: u32, y: u32) -> Ordering {
        for &c in cols {
            match self.cols[c][x as usize].cmp_structural(self.cols[c][y as usize]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        x.cmp(&y)
    }

    /// Materialize row `i` as a [`Tuple`].
    fn row_tuple(&self, i: usize) -> Tuple {
        (0..self.cols.len())
            .map(|c| self.cols[c][i].value())
            .collect()
    }

    /// The materialized rows, built once per run.
    pub(crate) fn rows(&self) -> &[Tuple] {
        self.rows
            .get_or_init(|| (0..self.len).map(|i| self.row_tuple(i)).collect())
    }

    /// The contiguous row range whose first `key.len()` columns equal
    /// `key` — the *prefix* probe: since rows are sorted
    /// lexicographically, equal prefixes are adjacent, and each column
    /// refines the range of the previous one by binary search.
    pub(crate) fn prefix_range(&self, key: &[Vid]) -> Range<usize> {
        let mut lo = 0usize;
        let mut hi = self.len;
        for (c, &k) in key.iter().enumerate() {
            let col = &self.cols[c][lo..hi];
            let a = col.partition_point(|&v| v.cmp_structural(k) == Ordering::Less);
            let b = col[a..].partition_point(|&v| v.cmp_structural(k) == Ordering::Equal) + a;
            hi = lo + b;
            lo += a;
            if lo == hi {
                break;
            }
        }
        lo..hi
    }

    /// Membership test by full-arity prefix probe.
    pub(crate) fn contains_tuple(&self, t: &Tuple) -> bool {
        let mut lo = 0usize;
        let mut hi = self.len;
        for (c, v) in t.values().iter().enumerate() {
            let k = Vid::from_value(v);
            let col = &self.cols[c][lo..hi];
            let a = col.partition_point(|&x| x.cmp_structural(k) == Ordering::Less);
            let b = col[a..].partition_point(|&x| x.cmp_structural(k) == Ordering::Equal) + a;
            hi = lo + b;
            lo += a;
            if lo == hi {
                return false;
            }
        }
        lo < hi
    }

    /// First row index `>= start` whose row compares `>=` row `j` of
    /// `other`: exponential probe then binary search, the "gallop" that
    /// lets a merge skip long stretches of the larger side in
    /// logarithmic time.
    fn gallop_from(&self, start: usize, other: &RunData, j: usize) -> usize {
        let mut step = 1usize;
        let mut lo = start;
        // Invariant: every row < lo is < other[j].
        while lo < self.len && self.row_cmp(lo, other, j) == Ordering::Less {
            let next = lo + step;
            step = step.saturating_mul(2);
            if next >= self.len || self.row_cmp(next, other, j) != Ordering::Less {
                // binary search in (lo, min(next, len))
                let mut hi = next.min(self.len);
                lo += 1;
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    if self.row_cmp(mid, other, j) == Ordering::Less {
                        lo = mid + 1;
                    } else {
                        hi = mid;
                    }
                }
                return lo;
            }
            lo = next;
        }
        lo
    }
}

impl RunData {
    /// One `u64` per row whose natural order equals the structural row
    /// order — available for runs of arity 1 or 2 whose ids are all
    /// raw-ordered (inline integers). Merges and sorts over these flat
    /// keys skip the per-column indirection of [`RunData::row_cmp`],
    /// which dominates merge cost on the fixpoint hot path. Built at
    /// most once per run; `None` (also cached) when ineligible.
    fn packed(&self) -> Option<&[u64]> {
        self.packed
            .get_or_init(|| {
                let eligible = matches!(self.cols.len(), 1 | 2)
                    && self.cols.iter().flatten().all(|v| v.raw_ordered());
                if !eligible {
                    return None;
                }
                Some(match &self.cols[..] {
                    [c0] => c0.iter().map(|v| u64::from(v.raw())).collect(),
                    [c0, c1] => c0
                        .iter()
                        .zip(c1)
                        .map(|(a, b)| u64::from(a.raw()) << 32 | u64::from(b.raw()))
                        .collect(),
                    _ => unreachable!("arity checked above"),
                })
            })
            .as_deref()
    }
}

/// First index `>= lo` in sorted `keys` whose key is `>= target`:
/// exponential probe then binary search.
#[inline]
fn gallop_keys(keys: &[u64], lo: usize, target: u64) -> usize {
    if lo >= keys.len() || keys[lo] >= target {
        return lo;
    }
    let mut step = 1usize;
    let mut base = lo;
    while base + step < keys.len() && keys[base + step] < target {
        base += step;
        step <<= 1;
    }
    let hi = (base + step).min(keys.len());
    base + 1 + keys[base + 1..hi].partition_point(|&k| k < target)
}

/// Merge of two sorted duplicate-free key slices.
fn union_keys(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(a.len().max(b.len()));
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => {
                let e = gallop_keys(a, i + 1, b[j]);
                out.extend_from_slice(&a[i..e]);
                i = e;
            }
            Ordering::Greater => {
                let e = gallop_keys(b, j + 1, a[i]);
                out.extend_from_slice(&b[j..e]);
                j = e;
            }
            Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// `a ∖ b` over sorted duplicate-free key slices.
fn difference_keys(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => {
                let e = gallop_keys(a, i + 1, b[j]);
                out.extend_from_slice(&a[i..e]);
                i = e;
            }
            Ordering::Greater => j = gallop_keys(b, j + 1, a[i]),
            Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out
}

/// `a ∩ b` over sorted duplicate-free key slices.
fn intersect_keys(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => i = gallop_keys(a, i + 1, b[j]),
            Ordering::Greater => j = gallop_keys(b, j + 1, a[i]),
            Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Is every key of `a` in `b` (both sorted and duplicate-free)?
fn subset_keys(a: &[u64], b: &[u64]) -> bool {
    let mut j = 0;
    for &k in a {
        j = gallop_keys(b, j, k);
        if b.get(j) != Some(&k) {
            return false;
        }
        j += 1;
    }
    true
}

/// Drop the adjacent repeats of a sorted vector, as `Vec::dedup_by`
/// does; with `counts`, also push how many entries each kept one
/// stood for.
fn dedup_counting<T: Copy>(
    v: &mut Vec<T>,
    same: impl Fn(&T, &T) -> bool,
    counts: Option<&mut Vec<u64>>,
) {
    let Some(counts) = counts else {
        v.dedup_by(|a, b| same(a, b));
        return;
    };
    let mut kept = 0;
    for r in 0..v.len() {
        if kept > 0 && same(&v[kept - 1], &v[r]) {
            *counts.last_mut().expect("a kept entry has a count") += 1;
        } else {
            v[kept] = v[r];
            kept += 1;
            counts.push(1);
        }
    }
    v.truncate(kept);
}

/// When the remaining portion of one side of a merge is this many times
/// longer than a single step would cover, gallop instead of stepping.
const GALLOP_AFTER: usize = 8;

/// Column builder for merge outputs.
struct RunBuilder {
    cols: Vec<Vec<Vid>>,
    len: usize,
}

impl RunBuilder {
    fn new(arity: usize) -> Self {
        RunBuilder {
            cols: vec![Vec::new(); arity],
            len: 0,
        }
    }

    fn with_capacity(arity: usize, cap: usize) -> Self {
        RunBuilder {
            cols: vec![Vec::with_capacity(cap); arity],
            len: 0,
        }
    }

    #[inline]
    fn push_row(&mut self, src: &RunData, i: usize) {
        for c in 0..self.cols.len() {
            self.cols[c].push(src.cols[c][i]);
        }
        self.len += 1;
    }

    /// Bulk column-wise copy of `src` rows `range` — a memcpy per
    /// column, the payoff of the flat layout.
    fn push_range(&mut self, src: &RunData, range: Range<usize>) {
        for c in 0..self.cols.len() {
            self.cols[c].extend_from_slice(&src.cols[c][range.clone()]);
        }
        self.len += range.len();
    }

    #[inline]
    fn push_tuple(&mut self, t: &Tuple) {
        for (c, v) in t.values().iter().enumerate() {
            self.cols[c].push(Vid::from_value(v));
        }
        self.len += 1;
    }

    fn finish(self) -> Run {
        Run::from_parts(self.len, self.cols)
    }
}

/// A lock-free cache of index views over one run, keyed by column
/// subset: an append-only singly linked list whose links are
/// `OnceLock`s, so lookups never take a lock and insertion races
/// resolve by first-writer-wins (the loser's view is dropped).
struct ViewChain {
    head: OnceLock<Box<ViewNode>>,
}

struct ViewNode {
    cols: Box<[usize]>,
    view: Arc<Index>,
    next: OnceLock<Box<ViewNode>>,
}

impl ViewChain {
    const fn new() -> Self {
        ViewChain {
            head: OnceLock::new(),
        }
    }

    /// The cached views, oldest first.
    fn iter(&self) -> impl Iterator<Item = &ViewNode> {
        std::iter::successors(self.head.get(), |node| node.next.get()).map(|node| &**node)
    }

    /// The cached view on `cols`, if one was built.
    fn find(&self, cols: &[usize]) -> Option<&Index> {
        self.iter()
            .find(|node| &*node.cols == cols)
            .map(|node| &*node.view)
    }

    fn get_or_insert(&self, cols: &[usize], build: impl FnOnce() -> Arc<Index>) -> Arc<Index> {
        let mut slot = &self.head;
        let mut build = Some(build);
        let mut pending: Option<Box<ViewNode>> = None;
        loop {
            match slot.get() {
                Some(node) => {
                    if &*node.cols == cols {
                        return Arc::clone(&node.view);
                    }
                    slot = &node.next;
                }
                None => {
                    let node = match pending.take() {
                        Some(n) => n,
                        None => Box::new(ViewNode {
                            cols: cols.into(),
                            view: (build.take().expect("view built at most once"))(),
                            next: OnceLock::new(),
                        }),
                    };
                    match slot.set(node) {
                        Ok(()) => {
                            return Arc::clone(&slot.get().expect("just set").view);
                        }
                        // Lost the race: another thread appended here
                        // first — keep our node and re-examine theirs.
                        Err(n) => pending = Some(n),
                    }
                }
            }
        }
    }
}

/// An immutable sorted columnar batch of tuples plus its view cache.
///
/// Runs are shared by `Arc` between a relation and its clones; all
/// per-run caches (materialized rows, index views) are therefore built
/// at most once per *run generation*. A fresh merged run starts with no
/// materialized rows, but a fold ([`Run::apply_sorted`]) carries the
/// index views of the run it folded into the next generation.
pub struct Run {
    data: Arc<RunData>,
    views: ViewChain,
}

impl Clone for Run {
    /// Clones share the immutable column data; cached index views are
    /// per-value (each clone rebuilds the views it actually probes).
    fn clone(&self) -> Run {
        Run {
            data: Arc::clone(&self.data),
            views: ViewChain::new(),
        }
    }
}

impl Run {
    fn from_parts(len: usize, cols: Vec<Vec<Vid>>) -> Run {
        Run {
            data: Arc::new(RunData {
                len,
                cols,
                rows: OnceLock::new(),
                packed: OnceLock::new(),
            }),
            views: ViewChain::new(),
        }
    }

    /// The empty run of the given arity.
    pub fn empty(arity: usize) -> Run {
        Run::from_parts(0, vec![Vec::new(); arity])
    }

    /// Rebuild columns from packed keys (arity 1 or 2), pre-seeding the
    /// packed cache so chained merges never repack.
    fn from_packed(arity: usize, keys: Vec<u64>) -> Run {
        let cols: Vec<Vec<Vid>> = match arity {
            1 => vec![keys.iter().map(|&k| Vid::from_raw(k as u32)).collect()],
            2 => vec![
                keys.iter()
                    .map(|&k| Vid::from_raw((k >> 32) as u32))
                    .collect(),
                keys.iter().map(|&k| Vid::from_raw(k as u32)).collect(),
            ],
            _ => unreachable!("packed keys exist only for arity 1 and 2"),
        };
        let run = Run::from_parts(keys.len(), cols);
        run.data
            .packed
            .set(Some(keys))
            .unwrap_or_else(|_| unreachable!("fresh run data"));
        run
    }

    /// Both sides' packed keys, when eligible and of equal arity.
    fn packed_pair<'a>(&'a self, other: &'a Run) -> Option<(&'a [u64], &'a [u64])> {
        if self.arity() != other.arity() {
            return None;
        }
        Some((self.data.packed()?, other.data.packed()?))
    }

    /// Build from tuples already in strictly increasing order (sorted,
    /// duplicate-free), e.g. out of a `BTreeSet<Tuple>`.
    pub fn from_sorted<'a>(arity: usize, tuples: impl Iterator<Item = &'a Tuple>) -> Run {
        let mut b = RunBuilder::new(arity);
        for t in tuples {
            debug_assert_eq!(t.arity(), arity);
            b.push_tuple(t);
        }
        b.finish()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len
    }

    /// Is the run empty?
    pub fn is_empty(&self) -> bool {
        self.data.len == 0
    }

    /// Arity (number of columns).
    pub fn arity(&self) -> usize {
        self.data.arity()
    }

    /// The materialized rows, in sorted order (built lazily, once).
    pub fn rows(&self) -> &[Tuple] {
        self.data.rows()
    }

    /// One column of the run as a flat slice of interned ids, in row
    /// order — the raw material for columnar join executors.
    pub fn col(&self, c: usize) -> &[Vid] {
        &self.data.cols[c]
    }

    /// The contiguous row range whose first `key.len()` columns equal
    /// `key` (rows are sorted lexicographically, so equal prefixes are
    /// adjacent). `key` may be shorter than the arity.
    pub fn prefix_range(&self, key: &[Vid]) -> Range<usize> {
        self.data.prefix_range(key)
    }

    /// Membership test on an interned full-arity key (no allocation).
    pub fn contains_vids(&self, key: &[Vid]) -> bool {
        debug_assert_eq!(key.len(), self.arity());
        !self.data.prefix_range(key).is_empty()
    }

    /// Build a run from unsorted, possibly-duplicated columns (all of
    /// length `rows`): sorts a row permutation structurally, drops
    /// duplicate rows, and gathers the columns — how columnar join
    /// outputs become relations without ever materializing tuples.
    pub fn from_cols(rows: usize, cols: Vec<Vec<Vid>>) -> Run {
        Run::sort_cols(rows, cols, None)
    }

    /// [`Run::from_cols`] that also counts: the distinct rows as a run,
    /// and beside it how many times each row occurs in the columns — a
    /// rule firing's head rows with their numbers of firings.
    pub fn from_cols_counted(rows: usize, cols: Vec<Vec<Vid>>) -> (Run, Vec<u64>) {
        let mut counts = Vec::new();
        let run = Run::sort_cols(rows, cols, Some(&mut counts));
        (run, counts)
    }

    /// The sort behind [`Run::from_cols`]; pushes each distinct row's
    /// number of occurrences onto `counts` when given.
    fn sort_cols(rows: usize, cols: Vec<Vec<Vid>>, counts: Option<&mut Vec<u64>>) -> Run {
        debug_assert!(cols.iter().all(|c| c.len() == rows));
        if cols.is_empty() {
            // Nullary: any row at all is the single empty tuple.
            if let Some(counts) = counts.filter(|_| rows > 0) {
                counts.push(rows as u64);
            }
            return Run::from_parts(usize::from(rows > 0), Vec::new());
        }
        // Arity-≤2 inline-integer rows sort as flat packed keys — no
        // permutation array, no per-comparison column indirection.
        if matches!(cols.len(), 1 | 2) && cols.iter().flatten().all(|v| v.raw_ordered()) {
            let mut keys: Vec<u64> = match &cols[..] {
                [c0] => c0.iter().map(|v| u64::from(v.raw())).collect(),
                [c0, c1] => c0
                    .iter()
                    .zip(c1)
                    .map(|(a, b)| u64::from(a.raw()) << 32 | u64::from(b.raw()))
                    .collect(),
                _ => unreachable!("arity checked above"),
            };
            if keys.windows(2).all(|w| w[0] < w[1]) {
                if let Some(counts) = counts {
                    counts.resize(rows, 1);
                }
                let run = Run::from_parts(rows, cols);
                run.data
                    .packed
                    .set(Some(keys))
                    .unwrap_or_else(|_| unreachable!("fresh run data"));
                return run;
            }
            keys.sort_unstable();
            dedup_counting(&mut keys, |a, b| a == b, counts);
            return Run::from_packed(cols.len(), keys);
        }
        let row_cmp = |a: u32, b: u32| -> Ordering {
            for col in &cols {
                match col[a as usize].cmp_structural(col[b as usize]) {
                    Ordering::Equal => continue,
                    ord => return ord,
                }
            }
            Ordering::Equal
        };
        // Derived rows are frequently already in order (e.g. a head
        // projection that keeps the leading join columns): take the
        // columns as they are instead of permuting a copy.
        if (1..rows as u32).all(|r| row_cmp(r - 1, r) == Ordering::Less) {
            if let Some(counts) = counts {
                counts.resize(rows, 1);
            }
            return Run::from_parts(rows, cols);
        }
        let mut perm: Vec<u32> = (0..rows as u32).collect();
        perm.sort_unstable_by(|&a, &b| row_cmp(a, b));
        dedup_counting(&mut perm, |a, b| row_cmp(*a, *b) == Ordering::Equal, counts);
        let out: Vec<Vec<Vid>> = cols
            .iter()
            .map(|col| perm.iter().map(|&r| col[r as usize]).collect())
            .collect();
        Run::from_parts(perm.len(), out)
    }

    /// Membership test (binary search per column, no allocation).
    pub fn contains(&self, t: &Tuple) -> bool {
        t.arity() == self.arity() && self.data.contains_tuple(t)
    }

    /// The cached index view on `cols`, built on first request.
    ///
    /// When `cols` is a prefix `[0, 1, …, k-1]` the sorted run *is* the
    /// index and the view carries no side structure; otherwise the view
    /// is a permutation of row indices sorted by the key columns (ties
    /// broken by row index, so probe results keep scan order).
    pub fn view(&self, cols: &[usize]) -> Arc<Index> {
        self.views.get_or_insert(cols, || {
            if cols.iter().enumerate().all(|(i, &c)| i == c) {
                Arc::new(Index::view_prefix(cols, Arc::clone(&self.data)))
            } else {
                let data = &self.data;
                let mut perm: Vec<u32> = (0..data.len as u32).collect();
                perm.sort_unstable_by(|&a, &b| data.perm_cmp(cols, a, b));
                Arc::new(Index::view_perm(
                    cols,
                    Arc::clone(&self.data),
                    perm.into_boxed_slice(),
                ))
            }
        })
    }

    /// `self ∪ other` (same arity).
    pub fn union(&self, other: &Run) -> Run {
        if let Some((ka, kb)) = self.packed_pair(other) {
            return Run::from_packed(self.arity(), union_keys(ka, kb));
        }
        let (a, b) = (&*self.data, &*other.data);
        let mut out = RunBuilder::with_capacity(a.arity(), a.len.max(b.len));
        let (mut i, mut j) = (0, 0);
        while i < a.len && j < b.len {
            match a.row_cmp(i, b, j) {
                Ordering::Less => {
                    // Copy everything in `a` below b[j] in one sweep.
                    let end = if a.len - i > GALLOP_AFTER {
                        a.gallop_from(i + 1, b, j)
                    } else {
                        i + 1
                    };
                    out.push_range(a, i..end);
                    i = end;
                }
                Ordering::Greater => {
                    let end = if b.len - j > GALLOP_AFTER {
                        b.gallop_from(j + 1, a, i)
                    } else {
                        j + 1
                    };
                    out.push_range(b, j..end);
                    j = end;
                }
                Ordering::Equal => {
                    out.push_row(a, i);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.push_range(a, i..a.len);
        out.push_range(b, j..b.len);
        out.finish()
    }

    /// `self ∩ other` (same arity).
    pub fn intersect(&self, other: &Run) -> Run {
        if let Some((ka, kb)) = self.packed_pair(other) {
            return Run::from_packed(self.arity(), intersect_keys(ka, kb));
        }
        let (a, b) = (&*self.data, &*other.data);
        let mut out = RunBuilder::new(a.arity());
        let (mut i, mut j) = (0, 0);
        while i < a.len && j < b.len {
            match a.row_cmp(i, b, j) {
                Ordering::Less => {
                    i = if a.len - i > GALLOP_AFTER {
                        a.gallop_from(i + 1, b, j)
                    } else {
                        i + 1
                    };
                }
                Ordering::Greater => {
                    j = if b.len - j > GALLOP_AFTER {
                        b.gallop_from(j + 1, a, i)
                    } else {
                        j + 1
                    };
                }
                Ordering::Equal => {
                    out.push_row(a, i);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.finish()
    }

    /// `self ∖ other` (same arity).
    pub fn difference(&self, other: &Run) -> Run {
        if let Some((ka, kb)) = self.packed_pair(other) {
            return Run::from_packed(self.arity(), difference_keys(ka, kb));
        }
        let (a, b) = (&*self.data, &*other.data);
        let mut out = RunBuilder::new(a.arity());
        let (mut i, mut j) = (0, 0);
        while i < a.len && j < b.len {
            match a.row_cmp(i, b, j) {
                Ordering::Less => {
                    let end = if a.len - i > GALLOP_AFTER {
                        a.gallop_from(i + 1, b, j)
                    } else {
                        i + 1
                    };
                    out.push_range(a, i..end);
                    i = end;
                }
                Ordering::Greater => {
                    j = if b.len - j > GALLOP_AFTER {
                        b.gallop_from(j + 1, a, i)
                    } else {
                        j + 1
                    };
                }
                Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        out.push_range(a, i..a.len);
        out.finish()
    }

    /// `self ∪ other` (same arity) with multiplicities: `mine` and
    /// `theirs` run beside the rows of `self` and `other`, and each row
    /// of the result carries the sum of its multiplicities on the sides
    /// that hold it.
    pub fn union_counted(&self, mine: &[u64], other: &Run, theirs: &[u64]) -> (Run, Vec<u64>) {
        debug_assert_eq!(self.arity(), other.arity());
        debug_assert_eq!((mine.len(), theirs.len()), (self.len(), other.len()));
        let (a, b) = (&*self.data, &*other.data);
        let mut out = RunBuilder::with_capacity(a.arity(), a.len + b.len);
        let mut counts = Vec::with_capacity(a.len + b.len);
        let (mut i, mut j) = (0, 0);
        while i < a.len || j < b.len {
            let ord = if j == b.len {
                Ordering::Less
            } else if i == a.len {
                Ordering::Greater
            } else {
                a.row_cmp(i, b, j)
            };
            match ord {
                Ordering::Less => {
                    out.push_row(a, i);
                    counts.push(mine[i]);
                    i += 1;
                }
                Ordering::Greater => {
                    out.push_row(b, j);
                    counts.push(theirs[j]);
                    j += 1;
                }
                Ordering::Equal => {
                    out.push_row(a, i);
                    counts.push(mine[i] + theirs[j]);
                    i += 1;
                    j += 1;
                }
            }
        }
        (out.finish(), counts)
    }

    /// The rows at which `keep` holds, in order.
    pub(crate) fn select(&self, mut keep: impl FnMut(usize) -> bool) -> Run {
        let a = &*self.data;
        let mut out = RunBuilder::new(a.arity());
        for i in 0..a.len {
            if keep(i) {
                out.push_row(a, i);
            }
        }
        out.finish()
    }

    /// Is `self ⊆ other`?
    pub fn is_subset(&self, other: &Run) -> bool {
        let (a, b) = (&*self.data, &*other.data);
        if a.len > b.len {
            return false;
        }
        if let Some((ka, kb)) = self.packed_pair(other) {
            return subset_keys(ka, kb);
        }
        let mut j = 0;
        for i in 0..a.len {
            j = if b.len - j > GALLOP_AFTER {
                b.gallop_from(j, a, i)
            } else {
                let mut k = j;
                while k < b.len && b.row_cmp(k, a, i) == Ordering::Less {
                    k += 1;
                }
                k
            };
            if j >= b.len || b.row_cmp(j, a, i) != Ordering::Equal {
                return false;
            }
            j += 1;
        }
        true
    }

    /// The symmetric difference as tuple lists `(added, removed)` where
    /// `added = self ∖ from` and `removed = from ∖ self` — only rows
    /// that actually differ are materialized as tuples.
    pub fn diff(&self, from: &Run) -> (Vec<Tuple>, Vec<Tuple>) {
        let (a, b) = (&*self.data, &*from.data);
        let (mut added, mut removed) = (Vec::new(), Vec::new());
        let (mut i, mut j) = (0, 0);
        while i < a.len && j < b.len {
            match a.row_cmp(i, b, j) {
                Ordering::Less => {
                    added.push(a.row_tuple(i));
                    i += 1;
                }
                Ordering::Greater => {
                    removed.push(b.row_tuple(j));
                    j += 1;
                }
                Ordering::Equal => {
                    // Equal stretches are the common case when diffing
                    // consecutive versions: gallop past them pairwise.
                    i += 1;
                    j += 1;
                }
            }
        }
        while i < a.len {
            added.push(a.row_tuple(i));
            i += 1;
        }
        while j < b.len {
            removed.push(b.row_tuple(j));
            j += 1;
        }
        (added, removed)
    }

    /// `(self ∖ del) ∪ add` in a single merge walk — how a
    /// [`crate::RelationDelta`] folds into a run. `add` and `del` must
    /// be strictly sorted and disjoint (as every delta in this crate
    /// is, by normalization); `add` rows already present survive (set
    /// semantics), `del` rows not present are ignored. Every
    /// permutation view cached on `self` is carried into the result,
    /// merged with the added rows in key order rather than re-sorted.
    pub fn apply_sorted(&self, add: &[Tuple], del: &[Tuple]) -> Run {
        let arity = self.arity();
        let del = Run::from_sorted(arity, del.iter());
        self.merge(&Run::from_sorted(arity, add.iter()), Some(&del))
            .0
    }

    /// `(self ∪ other) ∖ drop` in one merge walk (same arity, all three
    /// sorted): how two levels of a relation's spine merge, and how a
    /// spine folds into one run. Also returns the rows of `drop` the
    /// walk met, ascending, so the caller can forget them.
    ///
    /// Every permutation view cached on `self` is carried into the
    /// result: the walk records where each input row lands, and the new
    /// view is one merge of `self`'s view, mapped, with `other`'s rows
    /// in key order — taken from `other`'s own view on the same columns
    /// when it has one, else sorted. That costs O(n + |other| log
    /// |other|) instead of the O(n log n) re-sort the result's first
    /// probe would otherwise pay.
    pub(crate) fn merge(&self, other: &Run, drop: Option<&Run>) -> (Run, Vec<u32>) {
        debug_assert_eq!(self.arity(), other.arity());
        let carry = self.views.iter().any(|node| node.view.perm().is_some());
        let drop = drop.filter(|d| !d.is_empty());
        if !carry && drop.is_none() {
            return (self.union(other), Vec::new());
        }
        let (a, b) = (&*self.data, &*other.data);
        let mut walk = MergeWalk::new(carry, a.len, b.len);
        let packed = match (self.packed_pair(other), drop) {
            (Some((ka, kb)), Some(d)) => d.data.packed().map(|kd| (ka, kb, kd)),
            (Some((ka, kb)), None) => Some((ka, kb, &[][..])),
            (None, _) => None,
        };
        let run = match packed {
            Some((ka, kb, kd)) => {
                let mut keys = Vec::with_capacity(a.len + b.len);
                walk.run(
                    |i, j| ka[i].cmp(&kb[j]),
                    kd.len(),
                    |k, from_a, r| kd[k].cmp(if from_a { &ka[r] } else { &kb[r] }),
                    |from_a, r| keys.push(if from_a { ka[r] } else { kb[r] }),
                );
                Run::from_packed(self.arity(), keys)
            }
            None => {
                let d = drop.map(|d| &*d.data);
                let mut out = RunBuilder::with_capacity(a.arity(), a.len + b.len);
                walk.run(
                    |i, j| a.row_cmp(i, b, j),
                    d.map_or(0, |d| d.len),
                    |k, from_a, r| {
                        let d = d.expect("drop rows exist");
                        d.row_cmp(k, if from_a { a } else { b }, r)
                    },
                    |from_a, r| out.push_row(if from_a { a } else { b }, r),
                );
                out.finish()
            }
        };
        for node in self.views.iter() {
            let Some(old) = node.view.perm() else {
                continue; // prefix views cost nothing to rebuild
            };
            let cols = &node.cols[..];
            let data = &run.data;
            let mut theirs: Vec<u32> = match other.views.find(cols).and_then(|v| v.perm()) {
                Some(perm) => walk.landed(&walk.moved_b, perm.iter().copied()).collect(),
                None => {
                    let mut rows: Vec<u32> = walk.landed(&walk.moved_b, 0..b.len as u32).collect();
                    rows.sort_unstable_by(|&x, &y| data.perm_cmp(cols, x, y));
                    rows
                }
            };
            run.views.get_or_insert(cols, || {
                let mut perm = Vec::with_capacity(data.len);
                let mut rest = theirs.drain(..).peekable();
                for r in walk.landed(&walk.moved_a, old.iter().copied()) {
                    while let Some(f) =
                        rest.next_if(|&f| data.perm_cmp(cols, f, r) == Ordering::Less)
                    {
                        perm.push(f);
                    }
                    perm.push(r);
                }
                perm.extend(rest);
                Arc::new(Index::view_perm(
                    cols,
                    Arc::clone(data),
                    perm.into_boxed_slice(),
                ))
            });
        }
        (run, walk.dropped)
    }

    /// Is row `row` of `other` (same arity) a row of this run? A binary
    /// search comparing rows column-wise, building no key.
    pub(crate) fn contains_row(&self, other: &Run, row: usize) -> bool {
        let (a, b) = (&*self.data, &*other.data);
        let (mut lo, mut hi) = (0usize, a.len);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match a.row_cmp(mid, b, row) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return true,
            }
        }
        false
    }

    /// This run without the rows at the ascending indices `rows`.
    pub(crate) fn without_rows(&self, rows: &[u32]) -> Run {
        let a = &*self.data;
        let mut out = RunBuilder::with_capacity(a.arity(), a.len - rows.len());
        let mut from = 0usize;
        for &r in rows {
            out.push_range(a, from..r as usize);
            from = r as usize + 1;
        }
        out.push_range(a, from..a.len);
        out.finish()
    }

    /// Are the rows strictly increasing? (Every run is built so; the
    /// relation store's debug checks confirm it.)
    pub(crate) fn is_strictly_sorted(&self) -> bool {
        let a = &*self.data;
        (1..a.len).all(|i| a.row_cmp(i - 1, a, i) == Ordering::Less)
    }
}

/// [`MergeWalk`]'s mark for an input row the merge dropped.
const GONE: u32 = u32::MAX;

/// The bookkeeping of one [`Run::merge`]: where each input row landed
/// (`GONE` if dropped), kept only when a view is carried, and which
/// `drop` rows the walk met.
struct MergeWalk {
    carry: bool,
    alen: usize,
    blen: usize,
    moved_a: Vec<u32>,
    moved_b: Vec<u32>,
    dropped: Vec<u32>,
}

impl MergeWalk {
    fn new(carry: bool, alen: usize, blen: usize) -> MergeWalk {
        let cap = |n: usize| if carry { n } else { 0 };
        MergeWalk {
            carry,
            alen,
            blen,
            moved_a: Vec::with_capacity(cap(alen)),
            moved_b: Vec::with_capacity(cap(blen)),
            dropped: Vec::new(),
        }
    }

    /// Walk `a` and `b` in row order: `ab(i, j)` compares `a[i]` with
    /// `b[j]`, `vs_drop(k, from_a, r)` compares drop row `k` with the
    /// input row, and `emit(from_a, r)` appends a surviving row. A row
    /// both inputs hold is emitted once.
    fn run(
        &mut self,
        ab: impl Fn(usize, usize) -> Ordering,
        dlen: usize,
        vs_drop: impl Fn(usize, bool, usize) -> Ordering,
        mut emit: impl FnMut(bool, usize),
    ) {
        let (mut i, mut j, mut k, mut out) = (0usize, 0usize, 0usize, 0u32);
        while i < self.alen || j < self.blen {
            let ord = if i == self.alen {
                Ordering::Greater
            } else if j == self.blen {
                Ordering::Less
            } else {
                ab(i, j)
            };
            let (from_a, r) = if ord == Ordering::Greater {
                (false, j)
            } else {
                (true, i)
            };
            while k < dlen && vs_drop(k, from_a, r) == Ordering::Less {
                k += 1;
            }
            let dead = k < dlen && vs_drop(k, from_a, r) == Ordering::Equal;
            let slot = if dead {
                self.dropped.push(k as u32);
                k += 1;
                GONE
            } else {
                emit(from_a, r);
                out += 1;
                out - 1
            };
            if self.carry {
                if from_a {
                    self.moved_a.push(slot);
                } else {
                    self.moved_b.push(slot);
                }
                if ord == Ordering::Equal {
                    self.moved_b.push(GONE); // emitted once, from `a`
                }
            }
            match ord {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
    }

    /// Where the input rows `rows` landed, in the given order, skipping
    /// dropped ones. Landing preserves each input's row order, so rows
    /// listed in key order stay in key order.
    fn landed<'a>(
        &self,
        moved: &'a [u32],
        rows: impl Iterator<Item = u32> + 'a,
    ) -> impl Iterator<Item = u32> + 'a {
        rows.map(|r| moved[r as usize]).filter(|&r| r != GONE)
    }
}

impl std::fmt::Debug for Run {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Run({} rows, arity {})", self.len(), self.arity())
    }
}

/// Point-in-time storage-engine counters for one relation.
///
/// Snapshots come from
/// [`Relation::storage_stats`](crate::Relation::storage_stats) and are
/// listed per instance by
/// [`Instance::storage_stats`](crate::Instance::storage_stats). The
/// counters ride along with the relation through clones, promotions,
/// and demotions; they are evaluation artifacts and never take part in
/// equality.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StorageStats {
    /// Small-regime → sorted-run promotions in this relation's lineage.
    pub promotions: u64,
    /// Sorted-run folds: columnar tail merges, plus order-demanded
    /// sorts of the small-regime log.
    pub folds: u64,
    /// Linear probe operations over the small-regime log (one per
    /// insert / remove / membership call, not per comparison).
    pub small_probes: u64,
    /// High-water mark of the mutable tail: the small-regime log
    /// length, or the columnar add+delete tail length.
    pub tail_hwm: u64,
}

impl StorageStats {
    /// Fold another snapshot into this one (counters sum; the
    /// high-water mark takes the max) — for whole-instance rollups.
    pub fn absorb(&mut self, other: &StorageStats) {
        self.promotions += other.promotions;
        self.folds += other.folds;
        self.small_probes += other.small_probes;
        self.tail_hwm = self.tail_hwm.max(other.tail_hwm);
    }

    /// Publish this snapshot into the global [`rtx_obs`] registry:
    /// `storage.folds` / `storage.small_probes` counters and the
    /// `storage.tail_hwm` histogram. Promotions and demotions are
    /// *not* published here — they are counted live at the transition
    /// sites (`storage.promotions` / `storage.demotions`), so calling
    /// this on an end-of-run rollup cannot double count them. Call
    /// once per rollup snapshot, not per access.
    pub fn publish(&self) {
        rtx_obs::registry::add("storage.folds", self.folds);
        rtx_obs::registry::add("storage.small_probes", self.small_probes);
        if self.tail_hwm > 0 {
            rtx_obs::registry::record("storage.tail_hwm", self.tail_hwm);
        }
    }
}

/// Interior-mutable cells behind [`StorageStats`]: folds and probes
/// happen on shared read paths (`&self`), so the counters are relaxed
/// atomics. Cloning copies the current values.
#[derive(Default)]
pub(crate) struct StatCells {
    promotions: AtomicU64,
    folds: AtomicU64,
    small_probes: AtomicU64,
    tail_hwm: AtomicU64,
}

impl StatCells {
    pub(crate) fn snapshot(&self) -> StorageStats {
        StorageStats {
            promotions: self.promotions.load(AtomicOrd::Relaxed),
            folds: self.folds.load(AtomicOrd::Relaxed),
            small_probes: self.small_probes.load(AtomicOrd::Relaxed),
            tail_hwm: self.tail_hwm.load(AtomicOrd::Relaxed),
        }
    }

    pub(crate) fn note_promotion(&self) {
        self.promotions.fetch_add(1, AtomicOrd::Relaxed);
    }

    pub(crate) fn note_fold(&self) {
        self.folds.fetch_add(1, AtomicOrd::Relaxed);
    }

    pub(crate) fn note_probe(&self) {
        self.small_probes.fetch_add(1, AtomicOrd::Relaxed);
    }

    pub(crate) fn note_tail_len(&self, len: usize) {
        self.tail_hwm.fetch_max(len as u64, AtomicOrd::Relaxed);
    }
}

impl Clone for StatCells {
    fn clone(&self) -> StatCells {
        let s = self.snapshot();
        StatCells {
            promotions: AtomicU64::new(s.promotions),
            folds: AtomicU64::new(s.folds),
            small_probes: AtomicU64::new(s.small_probes),
            tail_hwm: AtomicU64::new(s.tail_hwm),
        }
    }
}

/// The storage engine's *small regime*: a flat **unsorted** append
/// log of tuples with tombstones — no base run, no sort, no fold cost
/// on mutation. Insert, remove, and membership are linear probes over
/// the log, which at the few-hundred-tuple scale the round executors
/// live at beats any tree or merge bookkeeping.
///
/// A sorted [`Run`] over the live tuples is built only when a consumer
/// actually needs one (a sorted scan, a galloping merge, delta
/// normalization, a join) and is cached until the next mutation, so
/// repeated reads of an unchanged relation sort once. Building it is the
/// **order-demanded** signal: [`Relation`](crate::Relation) promotes a
/// small relation to columnar runs when it mutates with the signal set
/// and its size is above the hysteresis floor. Membership probes never
/// set it, so a relation probed by point lookups alone never migrates.
///
/// The log holds at most one entry per tuple value: a re-insert of a
/// tombstoned tuple revives its entry in place, and the log compacts
/// (drops tombstones) whenever it grows past `2 × live + 32`, keeping
/// probe cost proportional to the live size.
pub struct SmallTail {
    arity: usize,
    /// `(tuple, alive)` — append order, at most one entry per tuple.
    log: Vec<(Tuple, bool)>,
    /// Number of alive entries.
    live: usize,
    /// Sorted view of the live tuples. Every mutation clears it.
    sorted: OnceLock<Arc<Run>>,
    /// Was order demanded since the last mutation? Atomic because
    /// demands happen through `&self`.
    ordered: AtomicBool,
    stats: StatCells,
}

// `sorted` is a cache of a pure function of the log and `ordered` is a
// promotion hint; both are carried verbatim — a clone starts with the
// same caches and the same pending policy signal.
impl Clone for SmallTail {
    fn clone(&self) -> SmallTail {
        let sorted = OnceLock::new();
        if let Some(run) = self.sorted.get() {
            let _ = sorted.set(Arc::clone(run));
        }
        SmallTail {
            arity: self.arity,
            log: self.log.clone(),
            live: self.live,
            sorted,
            ordered: AtomicBool::new(self.ordered.load(AtomicOrd::Relaxed)),
            stats: self.stats.clone(),
        }
    }
}

impl SmallTail {
    /// An empty small tail of the given arity.
    pub fn new(arity: usize) -> SmallTail {
        SmallTail {
            arity,
            log: Vec::new(),
            live: 0,
            sorted: OnceLock::new(),
            ordered: AtomicBool::new(false),
            stats: StatCells::default(),
        }
    }

    /// Build from sorted, duplicate-free tuples (e.g. run rows).
    pub fn from_sorted(arity: usize, tuples: Vec<Tuple>) -> SmallTail {
        SmallTail::with_stats(arity, tuples, StatCells::default())
    }

    /// Build from an existing sorted run, carrying counters across a
    /// demotion. The run is kept as the pre-built sorted cache, so the
    /// representation change costs no re-sort and the run's cached row
    /// materialization and index views survive — a per-tick bulk
    /// rebuild that demotes would otherwise pay a sort plus a view
    /// rebuild on the very next ordered read.
    pub(crate) fn from_run(run: Arc<Run>, stats: StatCells) -> SmallTail {
        let live = run.len();
        stats.note_tail_len(live);
        let log = run.rows().iter().cloned().map(|t| (t, true)).collect();
        let arity = run.arity();
        let sorted = OnceLock::new();
        let _ = sorted.set(run);
        SmallTail {
            arity,
            log,
            live,
            sorted,
            // The pre-built cache is a gift, not a demand: the relation
            // just demoted, so no promotion pressure carries over.
            ordered: AtomicBool::new(false),
            stats,
        }
    }

    /// Build from sorted tuples, carrying counters across a demotion.
    pub(crate) fn with_stats(arity: usize, tuples: Vec<Tuple>, stats: StatCells) -> SmallTail {
        let live = tuples.len();
        stats.note_tail_len(live);
        SmallTail {
            arity,
            log: tuples.into_iter().map(|t| (t, true)).collect(),
            live,
            sorted: OnceLock::new(),
            ordered: AtomicBool::new(false),
            stats,
        }
    }

    /// Arity of every tuple in the tail.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of live tuples.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Is the tail empty (no live tuples)?
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Membership probe — one linear scan of the log.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.stats.note_probe();
        self.log.iter().any(|(u, alive)| *alive && u == t)
    }

    /// Membership probe on an interned key — one linear scan of the
    /// log, building no `Tuple`.
    pub(crate) fn contains_vids(&self, key: &[Vid]) -> bool {
        self.stats.note_probe();
        self.log
            .iter()
            .any(|(u, alive)| *alive && u.iter().zip(key).all(|(v, k)| k.value() == *v))
    }

    /// Insert; `true` if newly inserted (or revived from a tombstone).
    pub fn insert(&mut self, t: Tuple) -> bool {
        debug_assert_eq!(t.arity(), self.arity);
        self.sorted.take();
        *self.ordered.get_mut() = false;
        self.stats.note_probe();
        for (u, alive) in self.log.iter_mut() {
            if *u == t {
                if *alive {
                    return false;
                }
                *alive = true;
                self.live += 1;
                return true;
            }
        }
        self.push(t);
        self.live += 1;
        true
    }

    /// Append a live entry. The first allocation holds exactly one
    /// entry: most small relations never grow past it (a node's `Id`).
    fn push(&mut self, t: Tuple) {
        if self.log.capacity() == 0 {
            self.log.reserve_exact(1);
        }
        self.log.push((t, true));
        self.stats.note_tail_len(self.log.len());
    }

    /// Insert `t`, which is not live, without probing for it: revive its
    /// tombstoned entry when the log has tombstones and one is `t`'s,
    /// else append it.
    pub(crate) fn insert_fresh(&mut self, t: Tuple) {
        debug_assert_eq!(t.arity(), self.arity);
        debug_assert!(!self.live_tuples().any(|u| *u == t), "{t:?} is live");
        self.sorted.take();
        *self.ordered.get_mut() = false;
        let tombstones = self.log.len() > self.live;
        self.live += 1;
        if tombstones {
            if let Some((_, alive)) = self.log.iter_mut().find(|(u, alive)| !*alive && *u == t) {
                *alive = true;
                return;
            }
        }
        self.push(t);
    }

    /// [`SmallTail::insert_fresh`] each of `tuples`, `n` of them, growing
    /// the log to fit them exactly.
    pub(crate) fn extend_fresh<'a>(&mut self, n: usize, tuples: impl Iterator<Item = &'a Tuple>) {
        self.log.reserve_exact(n);
        for t in tuples {
            self.insert_fresh(t.clone());
        }
    }

    /// Remove; `true` if the tuple was live. Tombstones the entry and
    /// compacts the log when tombstones dominate.
    pub fn remove(&mut self, t: &Tuple) -> bool {
        self.sorted.take();
        *self.ordered.get_mut() = false;
        self.stats.note_probe();
        for (u, alive) in self.log.iter_mut() {
            if *alive && u == t {
                *alive = false;
                self.live -= 1;
                if self.log.len() >= 2 * self.live + 32 {
                    self.log.retain(|(_, alive)| *alive);
                }
                return true;
            }
        }
        false
    }

    /// The live tuples in log (insertion) order — for probe-based
    /// consumers that do **not** need sorted output.
    pub fn live_tuples(&self) -> impl Iterator<Item = &Tuple> {
        self.log.iter().filter(|(_, alive)| *alive).map(|(t, _)| t)
    }

    /// Has a consumer demanded order since the last mutation?
    pub fn order_demanded(&self) -> bool {
        self.ordered.load(AtomicOrd::Relaxed)
    }

    /// The sorted run over the live tuples, built on demand and cached
    /// until the next mutation. Calling this **is** the order-demand
    /// signal (see [`SmallTail::order_demanded`]).
    pub fn sorted_run(&self) -> &Arc<Run> {
        self.ordered.store(true, AtomicOrd::Relaxed);
        if self.sorted.get().is_none() {
            self.stats.note_fold();
        }
        self.sorted.get_or_init(|| {
            let mut live: Vec<&Tuple> = self.live_tuples().collect();
            live.sort_unstable();
            Arc::new(Run::from_sorted(self.arity, live.into_iter()))
        })
    }

    pub(crate) fn stats_cells(&self) -> &StatCells {
        &self.stats
    }
}

impl std::fmt::Debug for SmallTail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SmallTail({} live of {} logged, arity {})",
            self.live,
            self.log.len(),
            self.arity
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{tuple, Value};
    use std::collections::BTreeSet;

    fn run_of(ts: &[Tuple]) -> Run {
        let set: BTreeSet<Tuple> = ts.iter().cloned().collect();
        let arity = ts.first().map(|t| t.arity()).unwrap_or(0);
        Run::from_sorted(arity, set.iter())
    }

    #[test]
    fn from_sorted_roundtrips_rows() {
        let ts = [tuple![2, "b"], tuple![1, "a"], tuple![2, "a"]];
        let r = run_of(&ts);
        assert_eq!(r.len(), 3);
        assert_eq!(r.rows(), &[tuple![1, "a"], tuple![2, "a"], tuple![2, "b"]]);
        assert!(r.contains(&tuple![2, "a"]));
        assert!(!r.contains(&tuple![3, "a"]));
    }

    #[test]
    fn set_ops_match_btree_semantics() {
        let a = run_of(&[tuple![1], tuple![2], tuple![3], tuple![5]]);
        let b = run_of(&[tuple![2], tuple![4], tuple![5]]);
        assert_eq!(
            a.union(&b).rows(),
            &[tuple![1], tuple![2], tuple![3], tuple![4], tuple![5]]
        );
        assert_eq!(a.intersect(&b).rows(), &[tuple![2], tuple![5]]);
        assert_eq!(a.difference(&b).rows(), &[tuple![1], tuple![3]]);
        assert!(run_of(&[tuple![2], tuple![5]]).is_subset(&a));
        assert!(!a.is_subset(&b));
    }

    #[test]
    fn galloping_merges_handle_skew() {
        // One side far larger than the other exercises the gallop path.
        let big: Vec<Tuple> = (0..1000).map(|i| tuple![i]).collect();
        let small = [tuple![-1], tuple![500], tuple![2000]];
        let a = run_of(&big);
        let b = run_of(&small);
        let u = a.union(&b);
        assert_eq!(u.len(), 1002);
        let d = a.difference(&b);
        assert_eq!(d.len(), 999);
        assert!(!d.contains(&tuple![500]));
        let i = a.intersect(&b);
        assert_eq!(i.rows(), &[tuple![500]]);
        assert!(b.is_subset(&u));
    }

    #[test]
    fn diff_reports_only_changes() {
        let a = run_of(&[tuple![1], tuple![2], tuple![4]]);
        let b = run_of(&[tuple![1], tuple![3], tuple![4]]);
        let (added, removed) = a.diff(&b);
        assert_eq!(added, vec![tuple![2]]);
        assert_eq!(removed, vec![tuple![3]]);
    }

    #[test]
    fn apply_sorted_merges_adds_and_dels() {
        let base = run_of(&[tuple![1], tuple![3], tuple![5]]);
        let out = base.apply_sorted(
            &[tuple![0], tuple![3], tuple![4], tuple![9]],
            &[tuple![2], tuple![5]],
        );
        assert_eq!(
            out.rows(),
            &[tuple![0], tuple![1], tuple![3], tuple![4], tuple![9]]
        );
    }

    #[test]
    fn prefix_range_refines_per_column() {
        let r = run_of(&[
            tuple![1, 1],
            tuple![1, 2],
            tuple![2, 1],
            tuple![2, 2],
            tuple![2, 3],
            tuple![3, 1],
        ]);
        let k = |i: i64| Vid::from_value(&Value::int(i));
        assert_eq!(r.data.prefix_range(&[k(2)]), 2..5);
        assert_eq!(r.data.prefix_range(&[k(2), k(3)]), 4..5);
        assert_eq!(r.data.prefix_range(&[k(9)]), 6..6);
        assert_eq!(r.data.prefix_range(&[]), 0..6);
    }

    #[test]
    fn apply_sorted_carries_permutation_views() {
        let base = run_of(&(0..40i64).map(|i| tuple![i % 7, i]).collect::<Vec<_>>());
        let _ = base.view(&[1]);
        let _ = base.view(&[0]); // a prefix view: nothing to carry
        let _ = base.view(&[1, 0]);
        let out = base.apply_sorted(
            &[tuple![3, 100], tuple![9, -1]],
            &[tuple![0, 7], tuple![5, 5]],
        );
        let carried: Vec<&[usize]> = out.views.iter().map(|node| &*node.cols).collect();
        assert_eq!(carried, [&[1][..], &[1, 0][..]]);
        let fresh = run_of(out.rows());
        for cols in [&[1][..], &[1, 0][..]] {
            assert_eq!(out.view(cols).perm(), fresh.view(cols).perm(), "{cols:?}");
        }
        // A run without permutation views folds without carrying any.
        let plain = run_of(&[tuple![1, 2]]).apply_sorted(&[tuple![0, 0]], &[]);
        assert_eq!(plain.views.iter().count(), 0);
    }

    #[test]
    fn view_cache_returns_same_arc() {
        let r = run_of(&[tuple![1, 2], tuple![2, 1]]);
        let a = r.view(&[1]);
        let b = r.view(&[1]);
        assert!(Arc::ptr_eq(&a, &b));
        let c = r.view(&[0]);
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn nullary_runs() {
        let t = run_of(&[Tuple::empty()]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.arity(), 0);
        assert!(t.contains(&Tuple::empty()));
        let e = Run::empty(0);
        assert!(e.is_empty());
        assert_eq!(t.difference(&t).len(), 0);
        assert_eq!(t.union(&e).len(), 1);
    }
}
