//! Join planning: literal ordering and relation lookup.
//!
//! Every rule-based engine in this crate evaluates a conjunction of
//! atoms left to right through the one join executor (`frame.rs`),
//! threading a growing set of bindings. Two choices dominate the cost
//! of that loop:
//!
//! * **order** — later atoms should have as many columns as possible
//!   already bound, so the join degenerates into an index probe;
//! * **access path** — a bound-column probe against a cached view of
//!   the relation's sorted run ([`rtx_relational::Run::view`]) instead
//!   of a full scan.
//!
//! [`plan_order`] chooses the order, which every rule caches on first
//! evaluation; the executor always probes on the bound columns.

use crate::error::EvalError;
use crate::term::{Atom, Term, Var};
use rtx_relational::{Instance, Relation};
use std::cmp::Reverse;
use std::collections::BTreeSet;

/// Order positive atoms greedily by bound-variable coverage.
///
/// Returns a permutation of `0..atoms.len()`. Starting from `pinned`
/// (when given — semi-naive evaluation pins the delta atom first, since
/// the delta is the smallest relation in the join), repeatedly picks the
/// atom with the most bound terms (constants count as bound), breaking
/// ties toward fewer unbound variables and then original position, so
/// the plan is deterministic.
pub fn plan_order(atoms: &[&Atom], pinned: Option<usize>) -> Vec<usize> {
    plan_order_by_size(atoms, pinned, &[])
}

/// [`plan_order`] with one more tie-break before position: toward the
/// atom whose relation is smaller (`sizes[i]` is atom `i`'s relation
/// size; missing sizes count as 0). For a join planned against the
/// data at hand rather than cached, as DRed's re-derivation is: with
/// the head pinned, `t(X,Y), e(Y,Z)` ties on bound columns, and probing
/// the small `e(·,z)` first beats walking the large `t(x,·)`.
pub fn plan_order_by_size(atoms: &[&Atom], pinned: Option<usize>, sizes: &[usize]) -> Vec<usize> {
    let n = atoms.len();
    let size = |i: usize| sizes.get(i).copied().unwrap_or(0);
    let mut order = Vec::with_capacity(n);
    let mut used = vec![false; n];
    let mut bound: BTreeSet<Var> = BTreeSet::new();
    let bind = |a: &Atom, bound: &mut BTreeSet<Var>| {
        for v in a.vars() {
            bound.insert(v);
        }
    };
    if let Some(i) = pinned {
        order.push(i);
        used[i] = true;
        bind(atoms[i], &mut bound);
    }
    while order.len() < n {
        // Most bound terms, then fewest unbound variables, then the
        // smaller relation; the first such atom wins.
        type Rank = (Reverse<usize>, usize, usize);
        let mut best: Option<(Rank, usize)> = None;
        for (i, a) in atoms.iter().enumerate() {
            if used[i] {
                continue;
            }
            let mut bound_terms = 0usize;
            let mut unbound_vars = BTreeSet::new();
            for t in &a.terms {
                match t {
                    Term::Const(_) => bound_terms += 1,
                    Term::Var(v) => {
                        if bound.contains(v) {
                            bound_terms += 1;
                        } else {
                            unbound_vars.insert(*v);
                        }
                    }
                }
            }
            let key = (Reverse(bound_terms), unbound_vars.len(), size(i));
            if best.is_none_or(|(k, _)| key < k) {
                best = Some((key, i));
            }
        }
        let (_, i) = best.expect("unused atom remains");
        order.push(i);
        used[i] = true;
        bind(atoms[i], &mut bound);
    }
    order
}

/// Borrow an atom's relation from an instance without cloning, so the
/// relation's cached indexes survive across rule firings.
///
/// `Ok(None)` means the relation is declared but empty (the join yields
/// no bindings); errors match [`Instance::relation`]'s validation plus
/// the arity check every engine performed after lookup.
pub fn lookup<'a>(db: &'a Instance, atom: &Atom) -> Result<Option<&'a Relation>, EvalError> {
    match db.relation_ref(&atom.pred) {
        Some(rel) => {
            if rel.arity() != atom.arity() {
                return Err(EvalError::Rel(rtx_relational::RelError::ArityMismatch {
                    rel: atom.pred.clone(),
                    expected: rel.arity(),
                    found: atom.arity(),
                }));
            }
            Ok(Some(rel))
        }
        None => match db.schema().arity(&atom.pred) {
            None => Err(EvalError::Rel(rtx_relational::RelError::UnknownRelation {
                rel: atom.pred.clone(),
            })),
            Some(a) if a != atom.arity() => {
                Err(EvalError::Rel(rtx_relational::RelError::ArityMismatch {
                    rel: atom.pred.clone(),
                    expected: a,
                    found: atom.arity(),
                }))
            }
            Some(_) => Ok(None),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom;
    use rtx_relational::{fact, Schema};

    #[test]
    fn plan_prefers_constants_then_connectivity() {
        // R(X,Y), S(Y,Z), T(5,W): T has a constant, goes first; then no
        // atom is connected to T, so the tie-break picks R (fewest
        // unbound vars wins over position only on equal counts).
        let a = atom!("R"; @"X", @"Y");
        let b = atom!("S"; @"Y", @"Z");
        let c = atom!("T"; 5, @"W");
        let order = plan_order(&[&a, &b, &c], None);
        assert_eq!(order[0], 2);
        // after T: R and S both have 0 bound / 2 unbound → position order
        assert_eq!(order, vec![2, 0, 1]);
    }

    #[test]
    fn plan_follows_bound_variables() {
        // E(X,Y), E(Y,Z), S(X): after pinning atom 0, S(X) is fully
        // bound and jumps ahead of E(Y,Z).
        let a = atom!("E"; @"X", @"Y");
        let b = atom!("E"; @"Y", @"Z");
        let c = atom!("S"; @"X");
        let order = plan_order(&[&a, &b, &c], Some(0));
        assert_eq!(order, vec![0, 2, 1]);
    }

    #[test]
    fn sizes_break_ties_before_position() {
        // DRed's re-derivation of t(X,Z) ← t(X,Y), e(Y,Z): the head binds
        // X and Z, so both body atoms have one bound term; the smaller
        // relation goes first, and without sizes position decides.
        let t = atom!("t"; @"X", @"Y");
        let e = atom!("e"; @"Y", @"Z");
        let head = atom!("t"; @"X", @"Z");
        let atoms = [&t, &e, &head];
        assert_eq!(plan_order(&atoms, Some(2)), vec![2, 0, 1]);
        assert_eq!(
            plan_order_by_size(&atoms, Some(2), &[33_000, 330, 5]),
            vec![2, 1, 0]
        );
        assert_eq!(
            plan_order_by_size(&atoms, Some(2), &[330, 330, 5]),
            vec![2, 0, 1]
        );
        // Sizes never outrank bound terms or unbound variables.
        let u = atom!("u"; @"W");
        assert_eq!(
            plan_order_by_size(&[&t, &e, &u], Some(0), &[1, 9, 1]),
            vec![0, 1, 2]
        );
        assert_eq!(plan_order_by_size(&[&u, &t], None, &[9, 1]), vec![0, 1]);
    }

    #[test]
    fn plan_is_a_permutation() {
        let a = atom!("A"; @"X");
        let b = atom!("B"; @"X", @"Y");
        let c = atom!("C");
        for pinned in [None, Some(0), Some(1), Some(2)] {
            let mut order = plan_order(&[&a, &b, &c], pinned);
            if let Some(p) = pinned {
                assert_eq!(order[0], p);
            }
            order.sort_unstable();
            assert_eq!(order, vec![0, 1, 2]);
        }
    }

    #[test]
    fn lookup_borrows_and_validates() {
        let sch = Schema::new().with("R", 2).with("S", 1);
        let mut db = Instance::empty(sch);
        db.insert_fact(fact!("R", 1, 2)).unwrap();
        assert!(lookup(&db, &atom!("R"; @"X", @"Y")).unwrap().is_some());
        assert!(lookup(&db, &atom!("S"; @"X")).unwrap().is_none()); // declared, empty
        assert!(lookup(&db, &atom!("Nope"; @"X")).is_err());
        assert!(lookup(&db, &atom!("R"; @"X")).is_err()); // arity mismatch
        assert!(lookup(&db, &atom!("S"; @"X", @"Y")).is_err()); // empty, wrong arity
    }
}
