//! Secondary indexes over sorted runs.
//!
//! An [`Index`] lets a join probe exactly the rows matching the columns
//! already bound instead of scanning the whole run: the query crate's
//! columnar join executor asks [`crate::Run::view`] for one per atom and
//! probes it with interned keys ([`Index::probe_rows`]). Indexes are
//! immutable snapshots, built lazily and cached on the run (per column
//! subset, per run generation), so holders of an `Arc<Index>` always
//! see a consistent picture of the run at build time. A merge that makes
//! the next run generation (a relation's level merges and folds, and
//! [`crate::Run::apply_sorted`]) carries the cached views across: the
//! new generation's view is merged from the old one, not re-sorted.
//!
//! An index is a view into a sorted run: when the key columns are a
//! prefix of the column order the sorted run *is* the index (a probe is
//! a per-column binary search yielding a contiguous row range, no side
//! structure at all); otherwise the view is a row-index permutation
//! sorted by the key columns.
//!
//! Either way a probe enumerates exactly the subsequence of a full scan
//! that matches on the key columns — callers can switch between
//! scanning and probing without changing results.

use crate::intern::Vid;
use crate::runs::RunData;
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

enum Kind {
    Prefix(Arc<RunData>),
    Perm {
        data: Arc<RunData>,
        perm: Box<[u32]>,
    },
}

/// An index on a subset of a relation's columns.
///
/// Within each key group the tuples keep the relation's deterministic
/// (sorted) iteration order, whatever the view's form.
pub struct Index {
    cols: Box<[usize]>,
    kind: Kind,
}

impl Index {
    /// A prefix view: `cols == [0, 1, …, k-1]`, the run's own sort
    /// order is the index.
    pub(crate) fn view_prefix(cols: &[usize], data: Arc<RunData>) -> Self {
        Index {
            cols: cols.into(),
            kind: Kind::Prefix(data),
        }
    }

    /// A permutation view: row indices sorted by the key columns (ties
    /// in scan order).
    pub(crate) fn view_perm(cols: &[usize], data: Arc<RunData>, perm: Box<[u32]>) -> Self {
        Index {
            cols: cols.into(),
            kind: Kind::Perm { data, perm },
        }
    }

    /// The indexed column positions.
    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// The row permutation of a permutation view; `None` for a prefix
    /// view, which has none.
    pub(crate) fn perm(&self) -> Option<&[u32]> {
        match &self.kind {
            Kind::Prefix(_) => None,
            Kind::Perm { perm, .. } => Some(perm),
        }
    }

    /// The matching *row indices* of the underlying run for an
    /// interned key — the zero-materialization probe used by the
    /// columnar join executor.
    pub fn probe_rows(&self, key: &[Vid]) -> RowHits<'_> {
        debug_assert_eq!(key.len(), self.cols.len());
        match &self.kind {
            Kind::Prefix(data) => RowHits::Range(data.prefix_range(key)),
            Kind::Perm { data, perm } => {
                let cmp = |r: u32| -> Ordering {
                    for (i, &c) in self.cols.iter().enumerate() {
                        match data.vid(c, r as usize).cmp_structural(key[i]) {
                            Ordering::Equal => continue,
                            ord => return ord,
                        }
                    }
                    Ordering::Equal
                };
                let lo = perm.partition_point(|&r| cmp(r) == Ordering::Less);
                let hi = perm[lo..].partition_point(|&r| cmp(r) == Ordering::Equal) + lo;
                RowHits::Rows(&perm[lo..hi])
            }
        }
    }
}

impl fmt::Debug for Index {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let form = match &self.kind {
            Kind::Prefix(_) => "prefix-view",
            Kind::Perm { .. } => "perm-view",
        };
        write!(f, "Index(cols={:?}, {form})", self.cols)
    }
}

/// The matching row indices from [`Index::probe_rows`]: either a
/// contiguous range of the run (prefix views) or an explicit index
/// list in scan order (permutation views).
#[derive(Clone, Debug)]
pub enum RowHits<'a> {
    /// Contiguous run rows.
    Range(std::ops::Range<usize>),
    /// Explicit row indices, in scan order.
    Rows(&'a [u32]),
}

impl RowHits<'_> {
    /// Number of matching rows.
    pub fn len(&self) -> usize {
        match self {
            RowHits::Range(r) => r.len(),
            RowHits::Rows(rs) => rs.len(),
        }
    }

    /// Any matches?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Iterator for RowHits<'_> {
    type Item = usize;
    fn next(&mut self) -> Option<usize> {
        match self {
            RowHits::Range(r) => r.next(),
            RowHits::Rows(rs) => {
                let (&first, rest) = rs.split_first()?;
                *rs = rest;
                Some(first as usize)
            }
        }
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.len(), Some(self.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fact::Tuple;
    use crate::runs::Run;
    use crate::tuple;
    use crate::value::Value;
    use std::collections::BTreeSet;

    /// A run over `tuples` (sorted and deduplicated first).
    fn run_of(arity: usize, tuples: &[Tuple]) -> Run {
        let set: BTreeSet<&Tuple> = tuples.iter().collect();
        Run::from_sorted(arity, set.into_iter())
    }

    /// The rows of `run` matching `key` on the view's columns, in the
    /// order the probe yields them.
    fn probe(run: &Run, view: &Index, key: &[Value]) -> Vec<Tuple> {
        let key: Vec<Vid> = key.iter().map(Vid::from_value).collect();
        view.probe_rows(&key)
            .map(|i| run.rows()[i].clone())
            .collect()
    }

    #[test]
    fn build_and_probe() {
        let run = run_of(2, &[tuple![1, 2], tuple![1, 3], tuple![2, 3]]);
        let idx = run.view(&[0]);
        assert_eq!(idx.cols(), &[0]);
        assert!(idx.perm().is_none(), "a key prefix needs no permutation");
        assert_eq!(probe(&run, &idx, &[Value::int(1)]).len(), 2);
        assert_eq!(probe(&run, &idx, &[Value::int(2)]), vec![tuple![2, 3]]);
        assert!(probe(&run, &idx, &[Value::int(9)]).is_empty());
    }

    #[test]
    fn probe_preserves_scan_order() {
        let run = run_of(2, &[tuple![2, 1], tuple![1, 3], tuple![3, 1], tuple![1, 1]]);
        // a permutation view: matches come out in run (scan) order
        let idx = run.view(&[1]);
        assert_eq!(
            probe(&run, &idx, &[Value::int(1)]),
            vec![tuple![1, 1], tuple![2, 1], tuple![3, 1]]
        );
        let rows: Vec<usize> = idx.probe_rows(&[Vid::from_value(&Value::int(1))]).collect();
        assert_eq!(rows, vec![0, 2, 3]);
    }

    #[test]
    fn multi_column_keys() {
        let run = run_of(3, &[tuple![1, 2, 3], tuple![1, 2, 4], tuple![1, 9, 3]]);
        let idx = run.view(&[0, 1]);
        assert_eq!(probe(&run, &idx, &[Value::int(1), Value::int(2)]).len(), 2);
        assert_eq!(probe(&run, &idx, &[Value::int(1), Value::int(9)]).len(), 1);
    }

    #[test]
    fn view_probes_match_hash_probes() {
        // Every view form against a filter over the tuple set.
        let set: BTreeSet<Tuple> = [
            tuple![1, 2, "x"],
            tuple![1, 3, "x"],
            tuple![2, 2, "y"],
            tuple![2, 3, "x"],
            tuple![3, 1, "z"],
        ]
        .into_iter()
        .collect();
        let run = Run::from_sorted(3, set.iter());
        for cols in [
            vec![0],
            vec![1],
            vec![2],
            vec![0, 1],
            vec![1, 2],
            vec![0, 1, 2],
        ] {
            let view = run.view(&cols);
            let key_of =
                |t: &Tuple| -> Vec<Value> { cols.iter().map(|&c| t.values()[c]).collect() };
            for t in &set {
                let key = key_of(t);
                let want: Vec<Tuple> = set.iter().filter(|u| key_of(u) == key).cloned().collect();
                assert_eq!(probe(&run, &view, &key), want, "cols {cols:?} key {key:?}");
            }
            // A key matching nothing.
            let miss: Vec<Value> = cols.iter().map(|_| Value::int(99)).collect();
            assert!(probe(&run, &view, &miss).is_empty());
        }
    }
}
