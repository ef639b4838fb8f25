//! The join executor: conjunctions evaluated directly over sorted-run
//! storage.
//!
//! [`join_body`] is the crate's one join: Datalog firings, DRed's
//! support counts, UCQ¬ rules, compiled FO queries and the magic-sets
//! answer filter all evaluate their conjunctions through it. Its result
//! is a [`Frame`]: one flat `Vec<Vid>` per bound variable, all the same
//! length. Joining an atom appends matching rows by copying packed
//! `u32` ids — no `Tuple` materialization, no tree insert — by probing
//! each level's run view for the row range matching the bound columns
//! (or scanning the level, when it is tiny or nothing is bound). Head
//! projection gathers variable columns into a fresh [`Run`], so a rule
//! firing goes from stored runs to a derived run without ever leaving
//! the interned-id domain.
//!
//! Every relation hands out its sorted runs in place
//! (`rtx_relational::Relation::spine`): the join visits each level and
//! skips the rows the relation removed, folding nothing. Negated atoms
//! are probed on their relation by key.

use crate::error::EvalError;
use crate::plan;
use crate::term::{Atom, Term, Var};
use rtx_relational::{Instance, Relation, Run, SpineRef, Value, Vid};

/// Levels this small are joined by scan rather than a view probe: the
/// cutover only changes the access path, never the result.
const SCAN_THRESHOLD: usize = 16;

/// Join a rule body: the positive atoms over their relations (`pos`,
/// each atom paired with the relation it reads) in `order`, then the
/// nonequalities and the negated atoms as filters. Negated relations
/// are looked up in `neg_db` through [`plan::lookup`], so an unknown
/// relation or a wrong arity is a typed error.
///
/// `Ok(None)` when no binding survives. An empty positive relation ends
/// the join before any run is built.
pub(crate) fn join_body<'a>(
    pos: &[(&Atom, &Relation)],
    order: &[usize],
    neg: impl IntoIterator<Item = &'a Atom>,
    diseq: impl IntoIterator<Item = (&'a Term, &'a Term)>,
    neg_db: &Instance,
) -> Result<Option<Frame>, EvalError> {
    let mut negs: Vec<(&Atom, &Relation)> = Vec::new();
    for a in neg {
        // An empty negated relation filters nothing.
        if let Some(rel) = plan::lookup(neg_db, a)?.filter(|r| !r.is_empty()) {
            negs.push((a, rel));
        }
    }
    if pos.iter().any(|(_, rel)| rel.is_empty()) {
        return Ok(None);
    }
    let mut frame = Frame::unit();
    for &i in order {
        let (atom, rel) = pos[i];
        frame = frame.join_atom(atom, rel.spine());
        if frame.is_empty() {
            return Ok(None);
        }
    }
    for (x, y) in diseq {
        frame.retain_diseq(x, y)?;
    }
    for (a, rel) in negs {
        frame.retain_not_in(a, rel)?;
    }
    Ok((!frame.is_empty()).then_some(frame))
}

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
    fn unit() -> Frame {
        Frame {
            vars: Vec::new(),
            cols: Vec::new(),
            rows: 1,
        }
    }

    /// Is the frame empty (no bindings at all)?
    fn is_empty(&self) -> bool {
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

    /// Join the atom against the live rows of `spine`, appending
    /// fresh-variable columns.
    ///
    /// For each frame row, each level is probed through its cached view
    /// on the constant/bound columns, or scanned in full when no column
    /// is bound or the level is tiny; rows the relation removed are
    /// skipped. Within a level both paths enumerate candidate rows in
    /// scan order, so the access path never changes the output.
    fn join_atom(&self, atom: &Atom, spine: SpineRef<'_>) -> Frame {
        let (slots, fresh) = self.slots(atom);
        let levels = spine.levels();
        // First unconstrained atom against a unit frame: the result is
        // the live rows' columns verbatim — copy them level by level.
        if self.vars.is_empty() && self.rows == 1 && fresh.len() == slots.len() {
            let mut cols: Vec<Vec<Vid>> = vec![Vec::new(); slots.len()];
            for run in levels {
                if spine.has_removed() {
                    for r in (0..run.len()).filter(|&r| spine.is_live(run, r)) {
                        for (p, col) in cols.iter_mut().enumerate() {
                            col.push(run.col(p)[r]);
                        }
                    }
                } else {
                    for (p, col) in cols.iter_mut().enumerate() {
                        col.extend_from_slice(run.col(p));
                    }
                }
            }
            let rows = match cols.first() {
                Some(col) => col.len(),
                None => levels.len().min(1), // nullary: the empty tuple
            };
            return Frame {
                vars: fresh,
                cols,
                rows,
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
        let views: Vec<_> = levels
            .iter()
            .map(|run| {
                (!key_cols.is_empty() && run.len() > SCAN_THRESHOLD).then(|| run.view(&key_cols))
            })
            .collect();
        let mut key: Vec<Vid> = Vec::with_capacity(key_cols.len());

        let emit = |out_cols: &mut Vec<Vec<Vid>>, fi: usize, run: &Run, ri: usize| {
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
        // scan path; and that the relation did not remove the row.
        let verify = |fi: usize, run: &Run, ri: usize, probed: bool| -> bool {
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
            spine.is_live(run, ri)
        };

        let mut out_rows = 0usize;
        for fi in 0..self.rows {
            if views.iter().any(Option::is_some) {
                key.clear();
                for &p in &key_cols {
                    key.push(match &slots[p] {
                        Slot::Const(k) => *k,
                        Slot::Bound(c) => self.cols[*c][fi],
                        _ => unreachable!("key columns are const or bound"),
                    });
                }
            }
            for (run, view) in levels.iter().zip(&views) {
                match view {
                    Some(view) => {
                        for ri in view.probe_rows(&key) {
                            if verify(fi, run, ri, true) {
                                emit(&mut out_cols, fi, run, ri);
                                out_rows += 1;
                            }
                        }
                    }
                    None => {
                        for ri in 0..run.len() {
                            if verify(fi, run, ri, false) {
                                emit(&mut out_cols, fi, run, ri);
                                out_rows += 1;
                            }
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
    fn retain_diseq(&mut self, x: &Term, y: &Term) -> Result<(), EvalError> {
        let unsafe_err = || EvalError::Unsafe {
            reason: "nonequality over unbound variable".into(),
        };
        let sx = self.source(x).ok_or_else(unsafe_err)?;
        let sy = self.source(y).ok_or_else(unsafe_err)?;
        self.retain(|cols, r| sx.get(cols, r) != sy.get(cols, r));
        Ok(())
    }

    /// Keep only rows whose instantiation of `atom` is *not* in `rel`
    /// (stratified negation), probing `rel` by key. Errors if any atom
    /// variable is unbound.
    fn retain_not_in(&mut self, atom: &Atom, rel: &Relation) -> Result<(), EvalError> {
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
        self.retain(|cols, r| {
            for (k, s) in key.iter_mut().zip(&srcs) {
                *k = s.get(cols, r);
            }
            !rel.contains_vids(&key)
        });
        Ok(())
    }

    /// Retain rows satisfying the predicate (given the columns and
    /// row), compacting the columns in place.
    fn retain(&mut self, mut pred: impl FnMut(&[Vec<Vid>], usize) -> bool) {
        let mut kept = 0;
        for r in 0..self.rows {
            if pred(&self.cols, r) {
                for col in &mut self.cols {
                    col[kept] = col[r];
                }
                kept += 1;
            }
        }
        for col in &mut self.cols {
            col.truncate(kept);
        }
        self.rows = kept;
    }

    /// Project the head terms into a sorted, deduplicated [`Run`] —
    /// the derived relation of one rule firing. Errors if a head
    /// variable is unbound.
    pub(crate) fn project(&self, terms: &[Term]) -> Result<Run, EvalError> {
        Ok(Run::from_cols(self.rows, self.head_cols(terms)?))
    }

    /// Group the frame's rows by their instantiation of `terms`: the
    /// distinct rows as a sorted [`Run`], and beside each its
    /// multiplicity — the firing counts a counting-maintenance engine
    /// needs. Unlike [`Frame::project`] nothing is deduplicated away;
    /// every row is a firing. Errors if a term variable is unbound.
    pub(crate) fn project_counts(&self, terms: &[Term]) -> Result<(Run, Vec<u64>), EvalError> {
        Ok(Run::from_cols_counted(self.rows, self.head_cols(terms)?))
    }

    /// One column per head term: a frame column, or a constant
    /// repeated on every row.
    fn head_cols(&self, terms: &[Term]) -> Result<Vec<Vec<Vid>>, EvalError> {
        terms
            .iter()
            .map(|t| match self.source(t) {
                Some(Src::Lit(k)) => Ok(vec![k; self.rows]),
                Some(Src::Col(c)) => Ok(self.cols[c].clone()),
                None => Err(EvalError::Unsafe {
                    reason: "head term unbound".into(),
                }),
            })
            .collect()
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
    fn get(&self, cols: &[Vec<Vid>], r: usize) -> Vid {
        match self {
            Src::Lit(k) => *k,
            Src::Col(c) => cols[*c][r],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom;
    use rtx_relational::{fact, tuple, Schema, Tuple};
    use std::collections::BTreeMap;

    fn rel_of(tuples: &[Tuple]) -> Relation {
        let arity = tuples.first().map(|t| t.arity()).unwrap_or(0);
        Relation::from_tuples(arity, tuples.iter().cloned()).unwrap()
    }

    /// `atoms` joined over `rels` in the written order, no filters.
    fn join(atoms: &[Atom], rels: &[Relation]) -> Option<Frame> {
        let pos: Vec<(&Atom, &Relation)> = atoms.iter().zip(rels).collect();
        let order: Vec<usize> = (0..atoms.len()).collect();
        join_body(&pos, &order, [], [], &Instance::empty(Schema::new())).unwrap()
    }

    fn rows_of(f: &Frame, head: &[Term]) -> Vec<Tuple> {
        (0..f.rows).map(|r| f.tuple_at(head, r)).collect()
    }

    #[test]
    fn two_hop_join_matches_generic_both_paths() {
        // A chain of n edges has n-1 two-hop paths (i, i+2). Short
        // chains scan the second atom's run, long ones probe its view.
        let atoms = [atom!("E"; @"X", @"Y"), atom!("E"; @"Y", @"Z")];
        let head = [Term::var("X"), Term::var("Z")];
        for n in [8i64, 40] {
            assert_eq!(n > SCAN_THRESHOLD as i64, n == 40);
            let e = rel_of(&(0..n).map(|i| tuple![i, i + 1]).collect::<Vec<_>>());
            let f = join(&atoms, &[e.clone(), e]).unwrap();
            let want: Vec<Tuple> = (0..n - 1).map(|i| tuple![i, i + 2]).collect();
            assert_eq!(rows_of(&f, &head), want, "chain of {n}");
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
        for rel in [rel_of(&rows), rel_of(&big)] {
            let f = Frame::unit().join_atom(&a, rel.spine());
            assert_eq!(f.rows, 1, "relation of {}", rel.len());
            assert_eq!(f.tuple_at(&[Term::var("X")], 0), tuple![2]);
        }
    }

    #[test]
    fn bound_vars_probe_matches_scan() {
        // S(A,B) binds A; E(A,C) (30 rows, past the scan threshold)
        // is probed on its bound first column. The rows come out in S
        // order, then E's scan order within each probe.
        let e = rel_of(&(0..30i64).map(|i| tuple![i % 5, i]).collect::<Vec<_>>());
        let s = rel_of(&(0..5i64).map(|i| tuple![i, i * 10]).collect::<Vec<_>>());
        let f = join(&[atom!("S"; @"A", @"B"), atom!("E"; @"A", @"C")], &[s, e]).unwrap();
        let head = [Term::var("A"), Term::var("B"), Term::var("C")];
        let want: Vec<Tuple> = (0..5i64)
            .flat_map(|a| (a..30).step_by(5).map(move |c| tuple![a, a * 10, c]))
            .collect();
        assert_eq!(rows_of(&f, &head), want);
    }

    #[test]
    fn filters_and_projection() {
        let e = rel_of(&[tuple![1, 1], tuple![1, 2], tuple![2, 3], tuple![3, 3]]);
        let s = rel_of(&[tuple![2]]);
        let mut f = Frame::unit().join_atom(&atom!("E"; @"X", @"Y"), e.spine());
        // X ≠ Y drops (1,1) and (3,3)
        f.retain_diseq(&Term::var("X"), &Term::var("Y")).unwrap();
        assert_eq!(f.rows, 2);
        // ¬S(X) drops (2,3)
        f.retain_not_in(&atom!("S"; @"X"), &s).unwrap();
        assert_eq!(f.rows, 1);
        let out = f.project(&[Term::var("Y"), Term::var("X")]).unwrap();
        assert_eq!(out.rows(), &[tuple![2, 1]]);
        // projection sorts and dedups
        let dup = f.project(&[Term::cons(7)]).unwrap();
        assert_eq!(dup.rows(), &[tuple![7]]);
    }

    #[test]
    fn join_body_filters_through_the_instance() {
        let sch = Schema::new().with("E", 2).with("S", 1).with("D", 1);
        let db = Instance::from_facts(
            sch,
            vec![
                fact!("E", 1, 2),
                fact!("E", 2, 2),
                fact!("E", 3, 4),
                fact!("S", 3),
            ],
        )
        .unwrap();
        let e_atom = atom!("E"; @"X", @"Y");
        let e = db.relation_ref(&"E".into()).unwrap();
        let pos = [(&e_atom, e)];
        let (x, y) = (Term::var("X"), Term::var("Y"));
        let head = [x.clone(), y.clone()];
        // E(X,Y), ¬S(X), X ≠ Y keeps (1,2) only; the declared but empty
        // D filters nothing.
        let negs = [atom!("S"; @"X"), atom!("D"; @"Y")];
        let f = join_body(&pos, &[0], &negs, [(&x, &y)], &db)
            .unwrap()
            .unwrap();
        assert_eq!(rows_of(&f, &head), vec![tuple![1, 2]]);
        // Every binding filtered out: no frame.
        let none = join_body(&pos, &[0], [], [(&x, &x)], &db).unwrap();
        assert!(none.is_none());
        // An empty positive relation ends the join.
        let d = Relation::empty(1);
        let d_atom = atom!("D"; @"X");
        assert!(join_body(&[(&d_atom, &d)], &[0], [], [], &db)
            .unwrap()
            .is_none());
        // Negated atoms are looked up with their arity checked.
        let wrong = [atom!("S"; @"X", @"Y")];
        assert!(join_body(&pos, &[0], &wrong, [], &db).is_err());
        let unknown = [atom!("Nope"; @"X")];
        assert!(join_body(&pos, &[0], &unknown, [], &db).is_err());
        // A negated nullary atom filters every row exactly when it holds.
        let mut flag = Instance::empty(Schema::new().with("B", 0));
        let b = [atom!("B")];
        assert!(join_body(&pos, &[0], &b, [], &flag).unwrap().is_some());
        flag.insert_fact(rtx_relational::Fact::new("B", Tuple::empty()))
            .unwrap();
        assert!(join_body(&pos, &[0], &b, [], &flag).unwrap().is_none());
    }

    #[test]
    fn project_counts_keeps_multiplicities() {
        // Two-hop over a diamond: 1→2→4 and 1→3→4 both derive (1,4).
        let e = rel_of(&[tuple![1, 2], tuple![1, 3], tuple![2, 4], tuple![3, 4]]);
        let atoms = [atom!("E"; @"X", @"Y"), atom!("E"; @"Y", @"Z")];
        let f = join(&atoms, &[e.clone(), e]).unwrap();
        let (rows, counts) = f.project_counts(&[Term::var("X"), Term::var("Z")]).unwrap();
        assert_eq!((rows.rows(), &counts[..]), (&[tuple![1, 4]][..], &[2][..]));
        // Projecting onto a constant folds every firing together.
        let (rows, counts) = f.project_counts(&[Term::cons(7)]).unwrap();
        assert_eq!((rows.rows(), &counts[..]), (&[tuple![7]][..], &[2][..]));
        // Unbound head variables error like the generic path.
        assert!(f.project_counts(&[Term::var("Q")]).is_err());
    }

    /// `project_counts` against a count of the frame's rows kept in a
    /// `BTreeMap<Tuple, u64>`: random frames over integer and symbol
    /// ids, projected onto heads of arity 0–3 that mix constants with
    /// repeated variables, so both the packed sort (arity ≤ 2, integers
    /// only) and the row-permutation sort run.
    #[test]
    fn project_counts_matches_a_count_model() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |n: u64| {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        };
        let vars = [Var::new("A"), Var::new("B"), Var::new("C")];
        let (mut packed, mut permuted) = (0, 0);
        for case in 0..400 {
            let symbols = case % 2 == 1;
            let value = |k: u64| match k {
                0 if symbols => Value::sym("project-counts"),
                k => Value::int(k as i64 - 2),
            };
            let rows = next(48) as usize;
            let cols: Vec<Vec<Vid>> = (0..vars.len())
                .map(|_| {
                    (0..rows)
                        .map(|_| Vid::from_value(&value(next(4))))
                        .collect()
                })
                .collect();
            let frame = Frame {
                vars: vars.to_vec(),
                cols,
                rows,
            };
            let head: Vec<Term> = (0..next(4))
                .map(|_| match next(5) {
                    0 => Term::Const(value(next(4))),
                    k => Term::Var(vars[(k as usize - 1) % vars.len()]),
                })
                .collect();
            let mut model: BTreeMap<Tuple, u64> = BTreeMap::new();
            for r in 0..rows {
                *model.entry(frame.tuple_at(&head, r)).or_insert(0) += 1;
            }
            let (run, counts) = frame.project_counts(&head).unwrap();
            assert_eq!(run.arity(), head.len());
            assert_eq!(
                run.rows(),
                model.keys().cloned().collect::<Vec<_>>(),
                "{head:?}"
            );
            assert_eq!(
                counts,
                model.values().copied().collect::<Vec<_>>(),
                "{head:?}"
            );
            if head.len() <= 2
                && model
                    .keys()
                    .flat_map(Tuple::iter)
                    .all(|v| matches!(v, Value::Int(_)))
            {
                packed += 1;
            } else {
                permuted += 1;
            }
        }
        assert!(
            packed > 50 && permuted > 50,
            "{packed} packed, {permuted} permuted"
        );
    }

    #[test]
    fn unbound_filter_vars_error() {
        let e = rel_of(&[tuple![1, 2]]);
        let mut f = Frame::unit().join_atom(&atom!("E"; @"X", @"Y"), e.spine());
        assert!(f.retain_diseq(&Term::var("X"), &Term::var("Q")).is_err());
        assert!(f.retain_not_in(&atom!("S"; @"Q"), &e).is_err());
        assert!(f.project(&[Term::var("Q")]).is_err());
    }
}
