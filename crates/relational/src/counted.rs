//! Relations with per-tuple derivation counts.
//!
//! Incremental Datalog maintenance (counting-based DRed) needs to know
//! not just *whether* a fact holds but *how many* derivations currently
//! support it: retracting one derivation of a doubly-supported fact must
//! leave the fact in place, while retracting the last one deletes it.
//! A [`CountedRelation`] is that bookkeeping structure — a finite map
//! from rows to positive support counts — updated a batch at a time: a
//! batch is a sorted [`Run`] of rows with a multiplicity beside each,
//! and every update returns, as a run, the rows whose presence flipped.
//!
//! Counts are keyed by the row's interned ids, never by a [`Tuple`]:
//! rows of arity ≤ 2 pack into one `u64`, wider rows key by their ids.
//! The map is hashed, but no result depends on its order — every batch
//! answers in the order of the run it was given.

use crate::error::RelError;
use crate::fact::Tuple;
use crate::intern::Vid;
use crate::relation::Relation;
use crate::runs::Run;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

/// A `k`-ary relation where every row carries a positive support count
/// (number of derivations currently justifying it).
///
/// A row is "present" iff its count is ≥ 1; no count is ever stored at
/// 0. Counts never go negative — over-subtracting is reported as
/// [`RelError::NegativeSupport`], since it means the maintenance
/// bookkeeping lost a derivation.
pub struct CountedRelation {
    arity: usize,
    counts: Counts,
}

/// The count table, keyed by interned ids.
enum Counts {
    /// Rows of arity ≤ 2, their ids packed into one `u64` (see
    /// [`pack`]).
    Packed(HashMap<u64, u64>),
    /// Wider rows, keyed by their ids.
    Wide(HashMap<Box<[Vid]>, u64>),
}

/// The ids of a row of arity ≤ 2 as one `u64`, side by side. Distinct
/// rows of one arity get distinct keys.
fn pack(ids: impl Iterator<Item = Vid>) -> u64 {
    ids.fold(0, |key, v| key << 32 | u64::from(v.raw()))
}

impl CountedRelation {
    /// The empty counted relation of the given arity.
    pub fn empty(arity: usize) -> Self {
        CountedRelation {
            arity,
            counts: if arity <= 2 {
                Counts::Packed(HashMap::new())
            } else {
                Counts::Wide(HashMap::new())
            },
        }
    }

    /// Arity of the relation.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The support count of a tuple (0 when absent).
    pub fn count(&self, t: &Tuple) -> u64 {
        if t.arity() != self.arity {
            return 0;
        }
        let ids: Vec<Vid> = t.iter().map(Vid::from_value).collect();
        match &self.counts {
            Counts::Packed(map) => map.get(&pack(ids.into_iter())).copied().unwrap_or(0),
            Counts::Wide(map) => map.get(&ids[..]).copied().unwrap_or(0),
        }
    }

    /// Add `firings[i]` derivations to row `i` of `rows`. Returns the
    /// rows that became present (count 0 → positive).
    pub fn add_run(&mut self, rows: &Run, firings: &[u64]) -> Result<Run, RelError> {
        self.update(rows, |have, i| Ok(have + firings[i]))
    }

    /// Retract `firings[i]` derivations from row `i` of `rows`. Returns
    /// the rows that vanished (count positive → 0). Retracting more than
    /// a row has is [`RelError::NegativeSupport`]: the caller's
    /// derivation accounting has drifted.
    pub fn sub_run(&mut self, rows: &Run, firings: &[u64]) -> Result<Run, RelError> {
        self.update(rows, |have, i| {
            have.checked_sub(firings[i])
                .ok_or(RelError::NegativeSupport {
                    have,
                    retract: firings[i],
                })
        })
    }

    /// Drop the rows of `rows` entirely, whatever their counts — DRed's
    /// over-deletion, after which re-derivation recounts a fact's
    /// support from scratch. Returns the rows that were present.
    pub fn clear_run(&mut self, rows: &Run) -> Result<Run, RelError> {
        self.update(rows, |_, _| Ok(0))
    }

    /// Do the present rows equal `rel`'s rows, with no count stored at
    /// 0? `rel` is probed by interned key, so the check neither folds
    /// nor sorts it — the invariant the maintenance engine checks in
    /// debug builds.
    pub fn supports_exactly(&self, rel: &Relation) -> bool {
        let held = |ids: &[Vid], &count: &u64| count > 0 && rel.contains_vids(ids);
        rel.arity() == self.arity
            && match &self.counts {
                Counts::Packed(map) => {
                    map.len() == rel.len()
                        && map.iter().all(|(&key, count)| {
                            let ids: Vec<Vid> = (0..self.arity)
                                .rev()
                                .map(|c| Vid::from_raw((key >> (32 * c)) as u32))
                                .collect();
                            held(&ids, count)
                        })
                }
                Counts::Wide(map) => {
                    map.len() == rel.len() && map.iter().all(|(ids, count)| held(ids, count))
                }
            }
    }

    /// Set row `i` of `rows` to `next(count, i)` for every `i`, dropping
    /// rows whose count becomes 0, and return the rows whose presence
    /// flipped, in the order of `rows`.
    fn update(
        &mut self,
        rows: &Run,
        mut next: impl FnMut(u64, usize) -> Result<u64, RelError>,
    ) -> Result<Run, RelError> {
        if rows.arity() != self.arity {
            return Err(RelError::TupleArity {
                expected: self.arity,
                found: rows.arity(),
            });
        }
        // The first error, if any. The batch goes on, so the table ends
        // partly updated — the accounting has drifted either way.
        let mut failed = Ok(());
        let mut flip = |set: Result<bool, RelError>| match set {
            Ok(flipped) => flipped,
            Err(e) => {
                if failed.is_ok() {
                    failed = Err(e);
                }
                false
            }
        };
        let flipped = match &mut self.counts {
            Counts::Packed(map) => rows.select(|i| {
                let key = pack((0..rows.arity()).map(|c| rows.col(c)[i]));
                flip(set_count(map, &key, || key, |have| next(have, i)))
            }),
            Counts::Wide(map) => {
                let mut ids: Vec<Vid> = Vec::with_capacity(self.arity);
                rows.select(|i| {
                    ids.clear();
                    ids.extend((0..rows.arity()).map(|c| rows.col(c)[i]));
                    flip(set_count(
                        map,
                        &ids[..],
                        || ids.clone().into(),
                        |have| next(have, i),
                    ))
                })
            }
        };
        failed.map(|()| flipped)
    }
}

/// Set the count of `key` to `next(count)` (0 when absent), dropping
/// the entry at 0; `own` makes the owned key for a new entry. Returns
/// whether the key's presence flipped.
fn set_count<K, Q>(
    map: &mut HashMap<K, u64>,
    key: &Q,
    own: impl FnOnce() -> K,
    next: impl FnOnce(u64) -> Result<u64, RelError>,
) -> Result<bool, RelError>
where
    K: Hash + Eq + Borrow<Q>,
    Q: Hash + Eq + ?Sized,
{
    match map.get_mut(key) {
        Some(count) => {
            let n = next(*count)?;
            if n == 0 {
                map.remove(key);
                return Ok(true);
            }
            *count = n;
            Ok(false)
        }
        None => {
            let n = next(0)?;
            if n > 0 {
                map.insert(own(), n);
            }
            Ok(n > 0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn run(arity: usize, ts: &[Tuple]) -> Run {
        Run::from_sorted(arity, ts.iter())
    }

    #[test]
    fn add_and_sub_track_presence() {
        for (a, b) in [
            (tuple![1, 2], tuple![3, 4]),
            (tuple![1, "x", 2], tuple![1, "y", 2]),
        ] {
            let arity = a.arity();
            let mut r = CountedRelation::empty(arity);
            let both = run(arity, &[a.clone(), b.clone()]);
            assert_eq!(r.add_run(&both, &[2, 1]).unwrap().len(), 2); // newly present
            assert_eq!(
                r.add_run(&run(arity, std::slice::from_ref(&a)), &[1])
                    .unwrap()
                    .len(),
                0
            );
            assert_eq!((r.count(&a), r.count(&b)), (3, 1));
            let gone = r.sub_run(&both, &[2, 1]).unwrap();
            assert_eq!(gone.rows(), std::slice::from_ref(&b)); // `a` keeps one firing
            assert_eq!(r.clear_run(&both).unwrap().rows(), std::slice::from_ref(&a));
            assert_eq!((r.count(&a), r.count(&b)), (0, 0));
        }
    }

    #[test]
    fn oversubtraction_is_an_error() {
        let mut r = CountedRelation::empty(1);
        r.add_run(&run(1, &[tuple![1]]), &[1]).unwrap();
        assert!(matches!(
            r.sub_run(&run(1, &[tuple![1]]), &[2]),
            Err(RelError::NegativeSupport {
                have: 1,
                retract: 2
            })
        ));
        assert!(r.sub_run(&run(1, &[tuple![9]]), &[1]).is_err());
    }

    #[test]
    fn zero_firings_flip_nothing() {
        let mut r = CountedRelation::empty(2);
        let row = run(2, &[tuple![1, 2]]);
        assert!(r.add_run(&row, &[0]).unwrap().is_empty());
        assert!(r.sub_run(&row, &[0]).unwrap().is_empty());
        assert_eq!(r.count(&tuple![1, 2]), 0);
        r.add_run(&row, &[2]).unwrap();
        assert!(r.add_run(&row, &[0]).unwrap().is_empty());
        assert!(r.sub_run(&row, &[0]).unwrap().is_empty());
        assert_eq!(r.count(&tuple![1, 2]), 2);
    }

    #[test]
    fn clear_and_set_view() {
        let mut r = CountedRelation::empty(1);
        r.add_run(&run(1, &[tuple![1], tuple![2]]), &[5, 1])
            .unwrap();
        let cleared = r.clear_run(&run(1, &[tuple![1], tuple![3]])).unwrap();
        assert_eq!(cleared.rows(), &[tuple![1]], "only a present row clears");
        assert_eq!((r.count(&tuple![1]), r.count(&tuple![2])), (0, 1));
        let set = |ts: &[Tuple]| Relation::from_tuples(1, ts.iter().cloned()).unwrap();
        assert!(r.supports_exactly(&set(&[tuple![2]])));
        assert!(!r.supports_exactly(&set(&[tuple![1], tuple![2]])));
        assert!(!r.supports_exactly(&set(&[])));
    }

    #[test]
    fn arity_enforced() {
        let mut r = CountedRelation::empty(2);
        assert!(r.add_run(&run(1, &[tuple![1]]), &[1]).is_err());
        assert_eq!(r.count(&tuple![1]), 0);
    }

    #[test]
    fn nullary_rows_are_counted() {
        let mut r = CountedRelation::empty(0);
        let unit = run(0, &[Tuple::empty()]);
        assert_eq!(r.add_run(&unit, &[2]).unwrap().len(), 1);
        assert_eq!(r.count(&Tuple::empty()), 2);
        assert!(r.supports_exactly(&Relation::nullary_true()));
        assert!(!r.supports_exactly(&Relation::nullary_false()));
        assert_eq!(r.sub_run(&unit, &[2]).unwrap().len(), 1);
        assert!(r.supports_exactly(&Relation::nullary_false()));
    }
}
