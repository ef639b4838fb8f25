//! The columnar join executor: conjunctions evaluated directly over
//! sorted-run storage.
//!
//! A [`Frame`] is the columnar counterpart of a `Vec<Bindings>`: one
//! flat `Vec<Vid>` per bound variable, all the same length. Joining an
//! atom appends matching rows by copying packed `u32` ids — no
//! `Bindings` clone, no `Tuple` materialization, no tree insert — by
//! probing a run view for the row range matching the bound columns (or
//! scanning the run, when it is tiny or nothing is bound). Head
//! projection gathers variable columns into a fresh [`Run`], so a rule
//! firing goes from stored runs to a derived run without ever leaving
//! the interned-id domain.
//!
//! Every relation hands out its sorted run
//! (`rtx_relational::Relation::columnar_run`), so the Datalog, FO and
//! incremental engines all run their joins here.

use crate::error::EvalError;
use crate::term::{Atom, Term, Var};
use rtx_relational::{Run, Tuple, Value, Vid};
use std::sync::Arc;

/// Relations this small are joined by scan rather than a view probe —
/// same policy as `Atom::join_indexed`.
const SCAN_THRESHOLD: usize = 16;

/// How one atom position relates to the frame being joined.
enum Slot {
    /// A constant in the atom: candidate rows must carry this id.
    Const(Vid),
    /// A variable already bound by the frame (column index).
    Bound(usize),
    /// First occurrence of a fresh variable: binds from the row.
    Fresh,
    /// Repeated fresh variable: must equal the atom position of its
    /// first occurrence.
    Dup(usize),
}

/// A set of partial variable bindings in columnar form.
pub(crate) struct Frame {
    vars: Vec<Var>,
    cols: Vec<Vec<Vid>>,
    rows: usize,
}

impl Frame {
    /// The unit frame: no variables, one (empty) binding.
    pub(crate) fn unit() -> Frame {
        Frame {
            vars: Vec::new(),
            cols: Vec::new(),
            rows: 1,
        }
    }

    /// Number of bindings.
    #[cfg(test)]
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Is the frame empty (no bindings at all)?
    pub(crate) fn is_empty(&self) -> bool {
        self.rows == 0
    }

    fn col_of(&self, v: Var) -> Option<usize> {
        self.vars.iter().position(|&w| w == v)
    }

    /// Classify the atom's positions against the current frame and
    /// list the fresh variables in first-occurrence order.
    fn slots(&self, atom: &Atom) -> (Vec<Slot>, Vec<Var>) {
        let mut slots = Vec::with_capacity(atom.terms.len());
        let mut fresh: Vec<Var> = Vec::new();
        for (p, t) in atom.terms.iter().enumerate() {
            let slot = match t {
                Term::Const(c) => Slot::Const(Vid::from_value(c)),
                Term::Var(v) => {
                    if let Some(c) = self.col_of(*v) {
                        Slot::Bound(c)
                    } else {
                        match atom.terms[..p].iter().position(|u| u.as_var() == Some(v)) {
                            Some(first) => Slot::Dup(first),
                            None => {
                                fresh.push(*v);
                                Slot::Fresh
                            }
                        }
                    }
                }
            };
            slots.push(slot);
        }
        (slots, fresh)
    }

    /// Join the atom against `run`, appending fresh-variable columns.
    ///
    /// The access path is a cached run view probed on the
    /// constant/bound columns, or a full scan of the run per binding
    /// when no column is bound or the run is tiny. Both enumerate
    /// candidate rows in run (scan) order, so the output row order —
    /// and therefore everything downstream — is the same either way.
    pub(crate) fn join_atom(&self, atom: &Atom, run: &Arc<Run>) -> Frame {
        let (slots, fresh) = self.slots(atom);
        // First unconstrained atom against a unit frame: the result is
        // the run's columns verbatim — copy them wholesale.
        if self.vars.is_empty() && self.rows == 1 && fresh.len() == slots.len() {
            return Frame {
                vars: fresh,
                cols: (0..slots.len()).map(|p| run.col(p).to_vec()).collect(),
                rows: run.len(),
            };
        }
        let out_vars: Vec<Var> = self.vars.iter().copied().chain(fresh).collect();
        let mut out_cols: Vec<Vec<Vid>> = vec![Vec::new(); out_vars.len()];
        let nold = self.vars.len();

        // Key columns for the probe: every position whose id is known
        // before looking at the row.
        let key_cols: Vec<usize> = slots
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, Slot::Const(_) | Slot::Bound(_)))
            .map(|(p, _)| p)
            .collect();
        let use_probe = !key_cols.is_empty() && run.len() > SCAN_THRESHOLD;
        let view = use_probe.then(|| run.view(&key_cols));
        let mut key: Vec<Vid> = Vec::with_capacity(key_cols.len());

        let emit = |out_cols: &mut Vec<Vec<Vid>>, fi: usize, ri: usize| {
            for (c, col) in out_cols[..nold].iter_mut().enumerate() {
                col.push(self.cols[c][fi]);
            }
            let mut next = nold;
            for (p, s) in slots.iter().enumerate() {
                if matches!(s, Slot::Fresh) {
                    out_cols[next].push(run.col(p)[ri]);
                    next += 1;
                }
            }
        };
        // Row-level checks the probe key can't cover: repeated fresh
        // variables always; constants and bound variables too on the
        // scan path.
        let verify = |fi: usize, ri: usize, probed: bool| -> bool {
            for (p, s) in slots.iter().enumerate() {
                let ok = match s {
                    Slot::Const(k) => probed || run.col(p)[ri] == *k,
                    Slot::Bound(c) => probed || run.col(p)[ri] == self.cols[*c][fi],
                    Slot::Fresh => true,
                    Slot::Dup(first) => run.col(p)[ri] == run.col(*first)[ri],
                };
                if !ok {
                    return false;
                }
            }
            true
        };

        let mut out_rows = 0usize;
        for fi in 0..self.rows {
            match &view {
                Some(view) => {
                    key.clear();
                    for &p in &key_cols {
                        key.push(match &slots[p] {
                            Slot::Const(k) => *k,
                            Slot::Bound(c) => self.cols[*c][fi],
                            _ => unreachable!("key columns are const or bound"),
                        });
                    }
                    for ri in view.probe_rows(&key) {
                        if verify(fi, ri, true) {
                            emit(&mut out_cols, fi, ri);
                            out_rows += 1;
                        }
                    }
                }
                None => {
                    for ri in 0..run.len() {
                        if verify(fi, ri, false) {
                            emit(&mut out_cols, fi, ri);
                            out_rows += 1;
                        }
                    }
                }
            }
        }
        Frame {
            vars: out_vars,
            cols: out_cols,
            rows: out_rows,
        }
    }

    /// Resolve a term to a per-row id source, or `None` if it is an
    /// unbound variable.
    fn source(&self, t: &Term) -> Option<Src> {
        match t {
            Term::Const(c) => Some(Src::Lit(Vid::from_value(c))),
            Term::Var(v) => self.col_of(*v).map(Src::Col),
        }
    }

    /// Keep only rows where `x ≠ y`. Errors if either side is unbound.
    pub(crate) fn retain_diseq(&mut self, x: &Term, y: &Term) -> Result<(), EvalError> {
        let unsafe_err = || EvalError::Unsafe {
            reason: "nonequality over unbound variable".into(),
        };
        let sx = self.source(x).ok_or_else(unsafe_err)?;
        let sy = self.source(y).ok_or_else(unsafe_err)?;
        self.retain(|f, r| sx.get(f, r) != sy.get(f, r));
        Ok(())
    }

    /// Keep only rows whose instantiation of `atom` is *not* in `run`
    /// (stratified negation). Errors if any atom variable is unbound.
    pub(crate) fn retain_not_in(&mut self, atom: &Atom, run: &Run) -> Result<(), EvalError> {
        let srcs: Vec<Src> = atom
            .terms
            .iter()
            .map(|t| {
                self.source(t).ok_or_else(|| EvalError::Unsafe {
                    reason: format!("negated atom {atom} unbound"),
                })
            })
            .collect::<Result<_, _>>()?;
        let mut key: Vec<Vid> = vec![Vid::from_value(&Value::int(0)); srcs.len()];
        self.retain(|f, r| {
            for (k, s) in key.iter_mut().zip(&srcs) {
                *k = s.get(f, r);
            }
            !run.contains_vids(&key)
        });
        Ok(())
    }

    /// Retain rows satisfying the predicate (given the frame and row).
    fn retain(&mut self, mut pred: impl FnMut(&Frame, usize) -> bool) {
        let keep: Vec<u32> = (0..self.rows)
            .filter(|&r| pred(self, r))
            .map(|r| r as u32)
            .collect();
        if keep.len() == self.rows {
            return;
        }
        for col in &mut self.cols {
            let old = std::mem::take(col);
            *col = keep.iter().map(|&r| old[r as usize]).collect();
        }
        self.rows = keep.len();
    }

    /// Project the head terms into a sorted, deduplicated [`Run`] —
    /// the derived relation of one rule firing. Errors if a head
    /// variable is unbound.
    pub(crate) fn project(&self, terms: &[Term]) -> Result<Run, EvalError> {
        let srcs: Vec<Src> = terms
            .iter()
            .map(|t| {
                self.source(t).ok_or_else(|| EvalError::Unsafe {
                    reason: "head term unbound".into(),
                })
            })
            .collect::<Result<_, _>>()?;
        let cols: Vec<Vec<Vid>> = srcs
            .iter()
            .map(|s| match s {
                Src::Lit(k) => vec![*k; self.rows],
                Src::Col(c) => self.cols[*c].clone(),
            })
            .collect();
        Ok(Run::from_cols(self.rows, cols))
    }

    /// Group the frame's rows by their instantiation of `terms` and
    /// return each distinct tuple with its multiplicity — the firing
    /// counts a counting-maintenance engine needs. Unlike
    /// [`Frame::project`] nothing is deduplicated away; every row is a
    /// firing. Errors if a term variable is unbound.
    pub(crate) fn project_counts(&self, terms: &[Term]) -> Result<Vec<(Tuple, u64)>, EvalError> {
        let srcs: Vec<Src> = terms
            .iter()
            .map(|t| {
                self.source(t).ok_or_else(|| EvalError::Unsafe {
                    reason: "head term unbound".into(),
                })
            })
            .collect::<Result<_, _>>()?;
        let mut rows: Vec<Vec<Vid>> = (0..self.rows)
            .map(|r| srcs.iter().map(|s| s.get(self, r)).collect())
            .collect();
        // Group by raw id (equality-compatible with value equality,
        // since the encoding is canonical).
        rows.sort_unstable_by(|a, b| a.iter().map(|v| v.raw()).cmp(b.iter().map(|v| v.raw())));
        let mut out: Vec<(Tuple, u64)> = Vec::new();
        let mut i = 0;
        while i < rows.len() {
            let mut j = i + 1;
            while j < rows.len() && rows[j] == rows[i] {
                j += 1;
            }
            let t: Tuple = rows[i].iter().map(|v| v.value()).collect();
            out.push((t, (j - i) as u64));
            i = j;
        }
        Ok(out)
    }

    /// Materialize one row's instantiation of `terms` as a [`Tuple`].
    #[cfg(test)]
    fn tuple_at(&self, terms: &[Term], r: usize) -> rtx_relational::Tuple {
        terms
            .iter()
            .map(|t| match self.source(t).expect("bound") {
                Src::Lit(k) => k.value(),
                Src::Col(c) => self.cols[c][r].value(),
            })
            .collect()
    }
}

/// A per-row id source: a literal or a frame column.
enum Src {
    Lit(Vid),
    Col(usize),
}

impl Src {
    #[inline]
    fn get(&self, f: &Frame, r: usize) -> Vid {
        match self {
            Src::Lit(k) => *k,
            Src::Col(c) => f.cols[*c][r],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom;
    use crate::term::Bindings;
    use rtx_relational::{tuple, Relation, Tuple};

    fn run_of(tuples: &[Tuple]) -> Arc<Run> {
        let arity = tuples.first().map(|t| t.arity()).unwrap_or(0);
        Relation::from_tuples(arity, tuples.iter().cloned())
            .unwrap()
            .columnar_run()
    }

    /// The `Bindings` answer for the same join, as an oracle: scanning
    /// joins (`Atom::join`) or index-probing ones (`Atom::join_indexed`).
    fn generic_join(atoms: &[Atom], runs: &[Arc<Run>], indexed: bool) -> Vec<Bindings> {
        let mut envs = vec![Bindings::new()];
        for (a, r) in atoms.iter().zip(runs) {
            let rel = Relation::from_run(Run::from_sorted(r.arity(), r.rows().iter()));
            envs = if indexed {
                a.join_indexed(&rel, &envs)
            } else {
                a.join(&rel, &envs)
            };
        }
        envs
    }

    fn frame_join(atoms: &[Atom], runs: &[Arc<Run>]) -> Frame {
        let mut f = Frame::unit();
        for (a, r) in atoms.iter().zip(runs) {
            f = f.join_atom(a, r);
        }
        f
    }

    #[test]
    fn two_hop_join_matches_generic_both_paths() {
        let e = run_of(&(0..40i64).map(|i| tuple![i, i + 1]).collect::<Vec<_>>());
        let atoms = [atom!("E"; @"X", @"Y"), atom!("E"; @"Y", @"Z")];
        let runs = [Arc::clone(&e), e];
        let f = frame_join(&atoms, &runs);
        for indexed in [false, true] {
            let envs = generic_join(&atoms, &runs, indexed);
            assert_eq!(f.rows(), envs.len());
            let head = [Term::var("X"), Term::var("Z")];
            let got: Vec<Tuple> = (0..f.rows()).map(|r| f.tuple_at(&head, r)).collect();
            let want: Vec<Tuple> = envs
                .iter()
                .map(|e| {
                    head.iter()
                        .map(|t| t.resolve(e).unwrap())
                        .collect::<Tuple>()
                })
                .collect();
            assert_eq!(got, want, "indexed={indexed}");
        }
    }

    #[test]
    fn constants_and_repeated_vars() {
        let rows = [
            tuple![1, 1, 2],
            tuple![1, 2, 2],
            tuple![1, 2, 3],
            tuple![2, 2, 2],
        ];
        // R(1, X, X): constant first column, repeated fresh variable —
        // on a tiny run (scanned) and one past the scan threshold
        // (probed).
        let mut big: Vec<Tuple> = rows.to_vec();
        big.extend((0..2 * SCAN_THRESHOLD as i64).map(|i| tuple![9, i, i + 1]));
        let a = atom!("R"; 1, @"X", @"X");
        for run in [run_of(&rows), run_of(&big)] {
            let f = Frame::unit().join_atom(&a, &run);
            assert_eq!(f.rows(), 1, "run of {}", run.len());
            assert_eq!(f.tuple_at(&[Term::var("X")], 0), tuple![2]);
        }
    }

    #[test]
    fn bound_vars_probe_matches_scan() {
        let e = run_of(&(0..30i64).map(|i| tuple![i % 5, i]).collect::<Vec<_>>());
        let s = run_of(&(0..5i64).map(|i| tuple![i, i * 10]).collect::<Vec<_>>());
        let atoms = [atom!("S"; @"A", @"B"), atom!("E"; @"A", @"C")];
        let runs = [s, e];
        let probe = frame_join(&atoms, &runs);
        let scan = generic_join(&atoms, &runs, false);
        let head = [Term::var("A"), Term::var("B"), Term::var("C")];
        let a: Vec<Tuple> = scan
            .iter()
            .map(|e| head.iter().map(|t| t.resolve(e).unwrap()).collect())
            .collect();
        let b: Vec<Tuple> = (0..probe.rows())
            .map(|r| probe.tuple_at(&head, r))
            .collect();
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn filters_and_projection() {
        let e = run_of(&[tuple![1, 1], tuple![1, 2], tuple![2, 3], tuple![3, 3]]);
        let s = run_of(&[tuple![2]]);
        let mut f = Frame::unit().join_atom(&atom!("E"; @"X", @"Y"), &e);
        // X ≠ Y drops (1,1) and (3,3)
        f.retain_diseq(&Term::var("X"), &Term::var("Y")).unwrap();
        assert_eq!(f.rows(), 2);
        // ¬S(X) drops (2,3)
        f.retain_not_in(&atom!("S"; @"X"), &s).unwrap();
        assert_eq!(f.rows(), 1);
        let out = f.project(&[Term::var("Y"), Term::var("X")]).unwrap();
        assert_eq!(out.rows(), &[tuple![2, 1]]);
        // projection sorts and dedups
        let dup = f.project(&[Term::cons(7)]).unwrap();
        assert_eq!(dup.rows(), &[tuple![7]]);
    }

    #[test]
    fn project_counts_keeps_multiplicities() {
        // Two-hop over a diamond: 1→2→4 and 1→3→4 both derive (1,4).
        let e = run_of(&[tuple![1, 2], tuple![1, 3], tuple![2, 4], tuple![3, 4]]);
        let atoms = [atom!("E"; @"X", @"Y"), atom!("E"; @"Y", @"Z")];
        let mut f = Frame::unit();
        for a in &atoms {
            f = f.join_atom(a, &e);
        }
        let counts = f.project_counts(&[Term::var("X"), Term::var("Z")]).unwrap();
        assert_eq!(counts, vec![(tuple![1, 4], 2)]);
        // Projecting onto a constant folds every firing together.
        let folded = f.project_counts(&[Term::cons(7)]).unwrap();
        assert_eq!(folded, vec![(tuple![7], 2)]);
        // Unbound head variables error like the generic path.
        assert!(f.project_counts(&[Term::var("Q")]).is_err());
    }

    #[test]
    fn unbound_filter_vars_error() {
        let e = run_of(&[tuple![1, 2]]);
        let mut f = Frame::unit().join_atom(&atom!("E"; @"X", @"Y"), &e);
        assert!(f.retain_diseq(&Term::var("X"), &Term::var("Q")).is_err());
        assert!(f.retain_not_in(&atom!("S"; @"Q"), &e).is_err());
        assert!(f.project(&[Term::var("Q")]).is_err());
    }
}
