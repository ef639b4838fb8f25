//! Multisets of facts — the message buffers of the operational semantics.
//!
//! The paper's configurations map every node to "a finite multiset of
//! facts over `S_msg`" (Section 3). Delivery removes *one copy*; sending
//! is multiset union.

use crate::fact::Fact;
use std::collections::BTreeMap;
use std::fmt;

/// A finite multiset of facts with deterministic iteration order.
#[derive(Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct FactMultiset {
    counts: BTreeMap<Fact, usize>,
    total: usize,
}

impl FactMultiset {
    /// The empty multiset.
    pub fn new() -> Self {
        FactMultiset::default()
    }

    /// Total number of copies.
    pub fn len(&self) -> usize {
        self.total
    }

    /// Is the multiset empty?
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Number of *distinct* facts.
    pub fn distinct_len(&self) -> usize {
        self.counts.len()
    }

    /// Multiplicity of a fact.
    pub fn count(&self, f: &Fact) -> usize {
        self.counts.get(f).copied().unwrap_or(0)
    }

    /// Does the multiset contain at least one copy of `f`?
    pub fn contains(&self, f: &Fact) -> bool {
        self.count(f) > 0
    }

    /// Add one copy.
    pub fn insert(&mut self, f: Fact) {
        self.insert_n(f, 1);
    }

    /// Add `n` copies.
    pub fn insert_n(&mut self, f: Fact, n: usize) {
        if n == 0 {
            return;
        }
        *self.counts.entry(f).or_insert(0) += n;
        self.total += n;
    }

    /// Remove one copy; `true` if a copy was present.
    pub fn remove_one(&mut self, f: &Fact) -> bool {
        match self.counts.get_mut(f) {
            Some(c) if *c > 1 => {
                *c -= 1;
                self.total -= 1;
                true
            }
            Some(_) => {
                self.counts.remove(f);
                self.total -= 1;
                true
            }
            None => false,
        }
    }

    /// Multiset union: add every copy of `other`.
    pub fn extend(&mut self, other: impl IntoIterator<Item = Fact>) {
        for f in other {
            self.insert(f);
        }
    }

    /// Iterate over distinct facts in order.
    pub fn distinct(&self) -> impl Iterator<Item = &Fact> {
        self.counts.keys()
    }

    /// Iterate over every copy (facts repeated per multiplicity).
    pub fn iter_copies(&self) -> impl Iterator<Item = &Fact> {
        self.counts
            .iter()
            .flat_map(|(f, &c)| std::iter::repeat_n(f, c))
    }

    /// The `i`-th copy in deterministic order (for seeded random picks).
    pub fn nth_copy(&self, mut i: usize) -> Option<&Fact> {
        for (f, &c) in &self.counts {
            if i < c {
                return Some(f);
            }
            i -= c;
        }
        None
    }
}

impl fmt::Debug for FactMultiset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{|")?;
        for (i, (fact, c)) in self.counts.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            if *c == 1 {
                write!(f, "{fact}")?;
            } else {
                write!(f, "{fact}×{c}")?;
            }
        }
        write!(f, "|}}")
    }
}

impl FromIterator<Fact> for FactMultiset {
    fn from_iter<T: IntoIterator<Item = Fact>>(iter: T) -> Self {
        let mut m = FactMultiset::new();
        m.extend(iter);
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fact;

    #[test]
    fn counts_and_totals() {
        let mut m = FactMultiset::new();
        m.insert(fact!("M", 1));
        m.insert(fact!("M", 1));
        m.insert(fact!("M", 2));
        assert_eq!(m.len(), 3);
        assert_eq!(m.distinct_len(), 2);
        assert_eq!(m.count(&fact!("M", 1)), 2);
        assert!(m.contains(&fact!("M", 2)));
        assert!(!m.contains(&fact!("M", 3)));
    }

    #[test]
    fn remove_one_decrements() {
        let mut m: FactMultiset = vec![fact!("M", 1), fact!("M", 1)].into_iter().collect();
        assert!(m.remove_one(&fact!("M", 1)));
        assert_eq!(m.count(&fact!("M", 1)), 1);
        assert!(m.remove_one(&fact!("M", 1)));
        assert!(!m.remove_one(&fact!("M", 1)));
        assert!(m.is_empty());
    }

    #[test]
    fn insert_n_zero_is_noop() {
        let mut m = FactMultiset::new();
        m.insert_n(fact!("M", 1), 0);
        assert!(m.is_empty());
        m.insert_n(fact!("M", 1), 5);
        assert_eq!(m.len(), 5);
    }

    #[test]
    fn nth_copy_walks_in_order() {
        let mut m = FactMultiset::new();
        m.insert_n(fact!("M", 1), 2);
        m.insert(fact!("M", 2));
        assert_eq!(m.nth_copy(0), Some(&fact!("M", 1)));
        assert_eq!(m.nth_copy(1), Some(&fact!("M", 1)));
        assert_eq!(m.nth_copy(2), Some(&fact!("M", 2)));
        assert_eq!(m.nth_copy(3), None);
    }

    #[test]
    fn iter_copies_repeats_by_multiplicity() {
        let mut m = FactMultiset::new();
        m.insert_n(fact!("M", 7), 3);
        assert_eq!(m.iter_copies().count(), 3);
    }

    #[test]
    fn debug_format_shows_multiplicity() {
        let mut m = FactMultiset::new();
        m.insert_n(fact!("M", 1), 2);
        assert_eq!(format!("{m:?}"), "{|M(1)×2|}");
    }
}
