//! Dedalus abstract syntax (paper, Section 8).
//!
//! Dedalus is "a temporal version of Datalog with negation where the last
//! position of each predicate carries a timestamp; all subgoals of any
//! rule must be joined on this timestamp". Rather than writing the
//! timestamp argument explicitly, a [`DRule`] carries a [`DTime`] tag:
//!
//! * [`DTime::Same`] — a *deductive* rule (head at the body timestamp);
//! * [`DTime::Next`] — an *inductive* rule (head at the successor
//!   timestamp);
//! * [`DTime::Async`] — an *asynchronous* rule (head at a
//!   nondeterministically chosen later timestamp).
//!
//! **Entanglement**: a rule may name the body timestamp with
//! [`DRule::with_time_var`]; that variable can then be used in the head
//! or body as *data* — "timestamp values can also occur as data values" —
//! which is what lets Dedalus mint unboundedly many fresh values
//! (Theorem 18 uses it to extend the simulated Turing tape).
//!
//! Dedalus is a thin dialect over `rtx-query`'s Datalog: each [`DRule`]
//! translates once to a Datalog [`Rule`], and a rule that names the
//! time variable reads it through one extra body atom over the reserved
//! unary [`CLOCK`] relation, which the runtime fills with the current
//! tick. So the translated rule's safety is the rule's safety.

use rtx_query::{Atom, EvalError, Literal, Rule, Term, Var};
use rtx_relational::{RelName, Schema};
use std::collections::BTreeSet;
use std::fmt;

/// The reserved unary relation an entangled rule reads its time
/// variable from: at tick `t` the runtime's base holds the one fact
/// `@clock(t)`. No identifier can spell the name, and
/// [`DedalusProgram::new`] rejects a rule that uses it.
pub const CLOCK: &str = "@clock";

/// The time keyword of the surface syntax: in term position it is the
/// body timestamp, read through the variable of the same name.
pub(crate) const NOW: &str = "now";

/// Head-timestamp discipline of a rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum DTime {
    /// Deductive: same timestamp.
    Same,
    /// Inductive: successor timestamp.
    Next,
    /// Asynchronous: arbitrary later timestamp (chosen by the runtime).
    Async,
}

/// A Dedalus rule. Atom arguments are *data* positions only; the
/// timestamp is implicit.
#[derive(Clone, Debug)]
pub struct DRule {
    head: Atom,
    timing: DTime,
    body_pos: Vec<Atom>,
    body_neg: Vec<Atom>,
    diseq: Vec<(Term, Term)>,
    time_var: Option<Var>,
}

impl DRule {
    /// Start building a rule with the given head and timing.
    pub fn new(head: Atom, timing: DTime) -> Self {
        DRule {
            head,
            timing,
            body_pos: Vec::new(),
            body_neg: Vec::new(),
            diseq: Vec::new(),
            time_var: None,
        }
    }

    /// The ubiquitous persistence rule `P(x̄)@next ← P(x̄)` — every
    /// Dedalus program in the paper persists its EDB this way.
    pub fn persist(pred: impl Into<RelName>, arity: usize) -> Self {
        let pred = pred.into();
        let vars: Vec<Term> = (0..arity).map(|i| Term::var(format!("X{i}"))).collect();
        DRule::new(Atom::new(pred.clone(), vars.clone()), DTime::Next).when(Atom::new(pred, vars))
    }

    /// Add a positive body atom.
    pub fn when(mut self, a: Atom) -> Self {
        self.body_pos.push(a);
        self
    }

    /// Add a negated body atom (stratified within the tick).
    pub fn unless(mut self, a: Atom) -> Self {
        self.body_neg.push(a);
        self
    }

    /// Add a nonequality constraint.
    pub fn distinct(mut self, a: Term, b: Term) -> Self {
        self.diseq.push((a, b));
        self
    }

    /// Bind the body timestamp to a variable usable as data
    /// (entanglement).
    pub fn with_time_var(mut self, v: impl Into<Var>) -> Self {
        self.time_var = Some(v.into());
        self
    }

    /// The head atom.
    pub fn head(&self) -> &Atom {
        &self.head
    }

    /// The timing tag.
    pub fn timing(&self) -> DTime {
        self.timing
    }

    /// Positive body atoms.
    pub fn body_pos(&self) -> &[Atom] {
        &self.body_pos
    }

    /// Negated body atoms.
    pub fn body_neg(&self) -> &[Atom] {
        &self.body_neg
    }

    /// Nonequality constraints.
    pub fn diseqs(&self) -> &[(Term, Term)] {
        &self.diseq
    }

    /// The entangled time variable, if any.
    pub fn time_var(&self) -> Option<&Var> {
        self.time_var.as_ref()
    }

    /// Does the rule use negation?
    pub fn has_negation(&self) -> bool {
        !self.body_neg.is_empty()
    }

    /// The rule as a Datalog rule, validated by [`Rule::new`]: its
    /// literals plus, when it names the time variable `T`, the atom
    /// `@clock(T)`. Every head, negated or nonequality variable must be
    /// bound by a positive atom or be the time variable.
    pub(crate) fn translate(&self) -> Result<Rule, EvalError> {
        let clock = (self.time_var).map(|v| Literal::Pos(Atom::new(CLOCK, vec![Term::Var(v)])));
        let body = (self.body_pos.iter().cloned().map(Literal::Pos))
            .chain(self.body_neg.iter().cloned().map(Literal::Neg))
            .chain(
                self.diseq
                    .iter()
                    .cloned()
                    .map(|(x, y)| Literal::Diseq(x, y)),
            )
            .chain(clock)
            .collect();
        Rule::new(self.head.clone(), body)
    }
}

impl fmt::Display for DRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let suffix = match self.timing {
            DTime::Same => "",
            DTime::Next => "@next",
            DTime::Async => "@async",
        };
        write!(f, "{}{suffix} ← ", self.head)?;
        let mut first = true;
        for a in &self.body_pos {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{a}")?;
        }
        for a in &self.body_neg {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "¬{a}")?;
        }
        for (a, b) in &self.diseq {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{a} ≠ {b}")?;
        }
        match &self.time_var {
            Some(tv) if tv.as_str() != NOW => {
                if !first {
                    write!(f, ", ")?;
                }
                write!(f, "{tv} = {NOW}")
            }
            _ => Ok(()),
        }
    }
}

/// A Dedalus program.
#[derive(Clone, Debug)]
pub struct DedalusProgram {
    rules: Vec<DRule>,
    signature: Schema,
}

impl DedalusProgram {
    /// Build a program, validating rule safety (through the rule's
    /// Datalog translation), arity consistency (data arities — the
    /// implicit timestamp is not counted), and that no rule names the
    /// reserved [`CLOCK`] relation.
    pub fn new(rules: Vec<DRule>) -> Result<Self, EvalError> {
        let mut signature = Schema::new();
        for r in &rules {
            r.translate()?;
            for a in [r.head()]
                .into_iter()
                .chain(r.body_pos())
                .chain(r.body_neg())
            {
                if a.pred.as_str() == CLOCK {
                    return Err(EvalError::Other(format!(
                        "`{CLOCK}` is reserved for the Dedalus clock"
                    )));
                }
                signature.declare(a.pred.clone(), a.arity())?;
            }
        }
        Ok(DedalusProgram { rules, signature })
    }

    /// The rules.
    pub fn rules(&self) -> &[DRule] {
        &self.rules
    }

    /// Rules with a given timing.
    pub fn rules_with(&self, timing: DTime) -> impl Iterator<Item = &DRule> {
        self.rules.iter().filter(move |r| r.timing() == timing)
    }

    /// Data-arity signature of every predicate.
    pub fn signature(&self) -> &Schema {
        &self.signature
    }

    /// Predicates defined by some rule head.
    pub fn idb_predicates(&self) -> BTreeSet<RelName> {
        self.rules.iter().map(|r| r.head().pred.clone()).collect()
    }

    /// Predicates only read.
    pub fn edb_predicates(&self) -> BTreeSet<RelName> {
        let idb = self.idb_predicates();
        self.signature
            .names()
            .filter(|n| !idb.contains(*n))
            .cloned()
            .collect()
    }

    /// Is the program free of asynchronous rules (hence deterministic)?
    pub fn is_synchronous(&self) -> bool {
        self.rules_with(DTime::Async).next().is_none()
    }
}

impl fmt::Display for DedalusProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.rules {
            writeln!(f, "{r}.")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtx_query::atom;

    #[test]
    fn rule_building_and_display() {
        let r = DRule::new(atom!("p"; @"X"), DTime::Next)
            .when(atom!("q"; @"X"))
            .unless(atom!("r"; @"X"))
            .distinct(Term::var("X"), Term::cons(1));
        assert!(r.translate().is_ok());
        let s = r.to_string();
        assert!(s.contains("@next"));
        assert!(s.contains("¬r(X)"));
    }

    #[test]
    fn safety_needs_positive_or_time_binding() {
        let bad = DRule::new(atom!("p"; @"X"), DTime::Same);
        assert!(DedalusProgram::new(vec![bad]).is_err());
        let ok = DRule::new(atom!("p"; @"T"), DTime::Next).with_time_var("T");
        assert_eq!(format!("{:?}", ok.translate().unwrap()), "p(T) ← @clock(T)");
        assert!(DedalusProgram::new(vec![ok]).is_ok());
    }

    #[test]
    fn program_signature_and_split() {
        let p = DedalusProgram::new(vec![
            DRule::new(atom!("p"; @"X"), DTime::Same).when(atom!("e"; @"X", @"Y")),
            DRule::new(atom!("p"; @"X"), DTime::Next).when(atom!("p"; @"X")),
        ])
        .unwrap();
        assert_eq!(p.signature().arity(&"e".into()), Some(2));
        assert!(p.idb_predicates().contains(&"p".into()));
        assert!(p.edb_predicates().contains(&"e".into()));
        assert!(p.is_synchronous());
        assert_eq!(p.rules_with(DTime::Next).count(), 1);
    }

    #[test]
    fn arity_conflicts_rejected() {
        let res = DedalusProgram::new(vec![
            DRule::new(atom!("p"; @"X"), DTime::Same).when(atom!("e"; @"X")),
            DRule::new(atom!("p"; @"X", @"Y"), DTime::Same).when(atom!("e2"; @"X", @"Y")),
        ]);
        assert!(res.is_err());
    }

    #[test]
    fn the_clock_relation_is_reserved() {
        let clock =
            DRule::new(atom!("p"; @"X"), DTime::Same).when(Atom::new(CLOCK, vec![Term::var("X")]));
        assert!(DedalusProgram::new(vec![clock]).is_err());
        let head =
            DRule::new(Atom::new(CLOCK, vec![Term::var("X")]), DTime::Next).when(atom!("p"; @"X"));
        assert!(DedalusProgram::new(vec![head]).is_err());
    }

    #[test]
    fn async_detection() {
        let p = DedalusProgram::new(vec![
            DRule::new(atom!("m"; @"X"), DTime::Async).when(atom!("s"; @"X"))
        ])
        .unwrap();
        assert!(!p.is_synchronous());
    }
}
