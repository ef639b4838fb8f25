//! The *while* query language: FO extended with relation assignment and
//! while-loops (paper, Section 2). `while` captures exactly the queries
//! computable by FO-transducers on a single-node network (Lemma 5(3))
//! and, distributedly, by FO-transducers on any network (Theorem 6(3)).

use crate::error::EvalError;
use crate::query::{Query, QueryRef};
use rtx_relational::{Instance, RelName, Relation, Schema};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// A loop guard.
#[derive(Clone, Debug)]
pub enum Guard {
    /// Loop while the relation is nonempty.
    NonEmpty(RelName),
    /// Loop while the relation is empty.
    Empty(RelName),
}

impl Guard {
    fn holds(&self, db: &Instance) -> Result<bool, EvalError> {
        match self {
            Guard::NonEmpty(r) => Ok(!db.relation(r)?.is_empty()),
            Guard::Empty(r) => Ok(db.relation(r)?.is_empty()),
        }
    }

    fn relation(&self) -> &RelName {
        match self {
            Guard::NonEmpty(r) | Guard::Empty(r) => r,
        }
    }
}

/// A statement of the while language.
#[derive(Clone)]
pub enum Stmt {
    /// `R := Q` — overwrite relation `R` with the result of `Q` evaluated
    /// on the current workspace.
    Assign(RelName, QueryRef),
    /// `R := R ∪ Q` — cumulative assignment (syntactic sugar the
    /// inflationary fragment uses).
    Accumulate(RelName, QueryRef),
    /// Sequential composition.
    Seq(Vec<Stmt>),
    /// `while guard do body`.
    While(Guard, Box<Stmt>),
}

impl Stmt {
    fn referenced_relations(&self, out: &mut BTreeSet<RelName>) {
        match self {
            Stmt::Assign(r, q) | Stmt::Accumulate(r, q) => {
                out.insert(r.clone());
                out.extend(q.referenced_relations());
            }
            Stmt::Seq(ss) => {
                for s in ss {
                    s.referenced_relations(out);
                }
            }
            Stmt::While(g, body) => {
                out.insert(g.relation().clone());
                body.referenced_relations(out);
            }
        }
    }
}

impl fmt::Debug for Stmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stmt::Assign(r, q) => write!(f, "{r} := {}", q.describe()),
            Stmt::Accumulate(r, q) => write!(f, "{r} += {}", q.describe()),
            Stmt::Seq(ss) => {
                write!(f, "{{ ")?;
                for s in ss {
                    write!(f, "{s:?}; ")?;
                }
                write!(f, "}}")
            }
            Stmt::While(g, body) => write!(f, "while {g:?} do {body:?}"),
        }
    }
}

/// A while program: scratch relations, a body, and an output relation.
#[derive(Clone)]
pub struct WhileProgram {
    /// Scratch (assignable) relations with their arities.
    scratch: Schema,
    body: Stmt,
    output: RelName,
    /// Upper bound on executed statements before declaring divergence.
    fuel: usize,
}

/// Default statement budget; generous for test-scale inputs.
const DEFAULT_FUEL: usize = 100_000;

impl WhileProgram {
    /// Build a program.
    ///
    /// `scratch` declares the assignable relations (the output must be one
    /// of them). Input relations are read-only.
    pub fn new(scratch: Schema, body: Stmt, output: impl Into<RelName>) -> Result<Self, EvalError> {
        let output = output.into();
        if scratch.arity(&output).is_none() {
            return Err(EvalError::Rel(rtx_relational::RelError::UnknownRelation {
                rel: output.clone(),
            }));
        }
        Ok(WhileProgram {
            scratch,
            body,
            output,
            fuel: DEFAULT_FUEL,
        })
    }

    /// Override the statement budget.
    pub fn with_fuel(mut self, fuel: usize) -> Self {
        self.fuel = fuel;
        self
    }

    /// The scratch schema.
    pub fn scratch(&self) -> &Schema {
        &self.scratch
    }

    /// The program body.
    pub fn body(&self) -> &Stmt {
        &self.body
    }

    /// The output relation.
    pub fn output(&self) -> &RelName {
        &self.output
    }

    /// Execute on `db`, returning the full final workspace.
    pub fn run(&self, db: &Instance) -> Result<Instance, EvalError> {
        let schema = db.schema().union_compatible(&self.scratch)?;
        let mut ws = db.widen(schema)?;
        let mut fuel = self.fuel;
        self.exec(&self.body, &mut ws, &mut fuel)?;
        Ok(ws)
    }

    fn exec(&self, stmt: &Stmt, ws: &mut Instance, fuel: &mut usize) -> Result<(), EvalError> {
        if *fuel == 0 {
            return Err(EvalError::Diverged { fuel: self.fuel });
        }
        *fuel -= 1;
        match stmt {
            Stmt::Assign(r, q) => {
                self.check_assignable(r)?;
                let rel = q.eval(ws)?;
                ws.set_relation(r.clone(), rel)?;
                Ok(())
            }
            Stmt::Accumulate(r, q) => {
                self.check_assignable(r)?;
                let add = q.eval(ws)?;
                let current = ws.relation(r)?;
                ws.set_relation(r.clone(), current.union(&add)?)?;
                Ok(())
            }
            Stmt::Seq(ss) => {
                for s in ss {
                    self.exec(s, ws, fuel)?;
                }
                Ok(())
            }
            Stmt::While(g, body) => {
                while g.holds(ws)? {
                    if *fuel == 0 {
                        return Err(EvalError::Diverged { fuel: self.fuel });
                    }
                    self.exec(body, ws, fuel)?;
                }
                Ok(())
            }
        }
    }

    fn check_assignable(&self, r: &RelName) -> Result<(), EvalError> {
        if self.scratch.arity(r).is_none() {
            return Err(EvalError::Unsafe {
                reason: format!("assignment to non-scratch relation {r}"),
            });
        }
        Ok(())
    }
}

impl fmt::Debug for WhileProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "while-program[out={}]: {:?}", self.output, self.body)
    }
}

/// A while program used as a query.
#[derive(Clone)]
pub struct WhileQuery {
    program: Arc<WhileProgram>,
    arity: usize,
}

impl WhileQuery {
    /// Wrap a program.
    pub fn new(program: WhileProgram) -> Self {
        let arity = program
            .scratch
            .arity(&program.output)
            .expect("validated by WhileProgram::new");
        WhileQuery {
            program: Arc::new(program),
            arity,
        }
    }

    /// The wrapped program.
    pub fn program(&self) -> &WhileProgram {
        &self.program
    }
}

impl Query for WhileQuery {
    fn arity(&self) -> usize {
        self.arity
    }

    fn eval(&self, db: &Instance) -> Result<Relation, EvalError> {
        let ws = self.program.run(db)?;
        Ok(ws.relation(&self.program.output)?)
    }

    fn is_monotone_syntactic(&self) -> bool {
        false // while-programs are not syntactically monotone in general
    }

    fn referenced_relations(&self) -> BTreeSet<RelName> {
        let mut out = BTreeSet::new();
        self.program.body.referenced_relations(&mut out);
        out
    }

    fn describe(&self) -> String {
        format!("{:?}", self.program)
    }
}

impl fmt::Debug for WhileQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom;
    use crate::cq::CqBuilder;
    use crate::fo::{FoQuery, Formula};
    use crate::term::Term;
    use rtx_relational::{fact, tuple};

    fn edges(pairs: &[(i64, i64)]) -> Instance {
        let sch = Schema::new().with("E", 2);
        let mut i = Instance::empty(sch);
        for &(a, b) in pairs {
            i.insert_fact(fact!("E", a, b)).unwrap();
        }
        i
    }

    fn q(r: crate::datalog::Rule) -> QueryRef {
        Arc::new(crate::cq::UcqQuery::single(r))
    }

    /// Transitive closure as a while-program:
    ///   T := E; Delta := E;
    ///   while Delta ≠ ∅ { New := T∘E \ T ; T := T ∪ New; Delta := New }
    fn tc_while() -> WhileProgram {
        let scratch = Schema::new().with("T", 2).with("Delta", 2).with("New", 2);
        let copy_e = CqBuilder::head(vec![Term::var("X"), Term::var("Y")])
            .when(atom!("E"; @"X", @"Y"))
            .build()
            .unwrap();
        let compose = CqBuilder::head(vec![Term::var("X"), Term::var("Z")])
            .when(atom!("T"; @"X", @"Y"))
            .when(atom!("E"; @"Y", @"Z"))
            .unless(atom!("T"; @"X", @"Z"))
            .build()
            .unwrap();
        let copy_new = CqBuilder::head(vec![Term::var("X"), Term::var("Y")])
            .when(atom!("New"; @"X", @"Y"))
            .build()
            .unwrap();
        let body = Stmt::Seq(vec![
            Stmt::Assign("T".into(), q(copy_e.clone())),
            Stmt::Assign("Delta".into(), q(copy_e)),
            Stmt::While(
                Guard::NonEmpty("Delta".into()),
                Box::new(Stmt::Seq(vec![
                    Stmt::Assign("New".into(), q(compose)),
                    Stmt::Accumulate("T".into(), q(copy_new.clone())),
                    Stmt::Assign("Delta".into(), q(copy_new)),
                ])),
            ),
        ]);
        WhileProgram::new(scratch, body, "T").unwrap()
    }

    #[test]
    fn tc_as_while_program() {
        let db = edges(&[(1, 2), (2, 3), (3, 4)]);
        let out = WhileQuery::new(tc_while()).eval(&db).unwrap();
        assert_eq!(out.len(), 6);
        assert!(out.contains(&tuple![1, 4]));
    }

    #[test]
    fn tc_while_on_cycle_terminates() {
        let db = edges(&[(1, 2), (2, 3), (3, 1)]);
        let out = WhileQuery::new(tc_while()).eval(&db).unwrap();
        assert_eq!(out.len(), 9);
    }

    #[test]
    fn divergent_loop_hits_fuel() {
        // while S empty do T := T  — never terminates when S is empty
        let scratch = Schema::new().with("T", 1);
        let copy_t = CqBuilder::head(vec![Term::var("X")])
            .when(atom!("T"; @"X"))
            .build()
            .unwrap();
        let body = Stmt::While(
            Guard::Empty("S".into()),
            Box::new(Stmt::Assign("T".into(), q(copy_t))),
        );
        let p = WhileProgram::new(scratch, body, "T")
            .unwrap()
            .with_fuel(100);
        let sch = Schema::new().with("S", 1);
        let db = Instance::empty(sch);
        assert!(matches!(
            WhileQuery::new(p).eval(&db),
            Err(EvalError::Diverged { .. })
        ));
    }

    #[test]
    fn assignment_to_input_is_rejected() {
        let scratch = Schema::new().with("T", 2);
        let copy = CqBuilder::head(vec![Term::var("X"), Term::var("Y")])
            .when(atom!("E"; @"X", @"Y"))
            .build()
            .unwrap();
        let body = Stmt::Assign("E".into(), q(copy));
        // E is not scratch
        let p = WhileProgram::new(scratch, body, "T").unwrap();
        assert!(matches!(
            p.run(&edges(&[(1, 2)])),
            Err(EvalError::Unsafe { .. })
        ));
    }

    #[test]
    fn output_must_be_scratch() {
        let scratch = Schema::new().with("T", 2);
        let body = Stmt::Seq(vec![]);
        assert!(WhileProgram::new(scratch, body, "Missing").is_err());
    }

    #[test]
    fn fo_queries_compose_with_while() {
        // one FO assignment: T := complement of E over adom
        let scratch = Schema::new().with("T", 2);
        let comp = FoQuery::new(
            ["X", "Y"],
            Formula::not(Formula::atom(atom!("E"; @"X", @"Y"))),
        )
        .unwrap();
        let body = Stmt::Assign("T".into(), Arc::new(comp) as QueryRef);
        let p = WhileProgram::new(scratch, body, "T").unwrap();
        let out = WhileQuery::new(p).eval(&edges(&[(1, 2)])).unwrap();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn referenced_relations_cover_guards_and_queries() {
        let wq = WhileQuery::new(tc_while());
        let refs = wq.referenced_relations();
        assert!(refs.contains(&"E".into()));
        assert!(refs.contains(&"T".into()));
        assert!(refs.contains(&"Delta".into()));
    }

    #[test]
    fn empty_guard_variant() {
        // while Out empty do Out += E  — runs exactly once when E nonempty
        let scratch = Schema::new().with("Out", 2);
        let copy = CqBuilder::head(vec![Term::var("X"), Term::var("Y")])
            .when(atom!("E"; @"X", @"Y"))
            .build()
            .unwrap();
        let body = Stmt::While(
            Guard::Empty("Out".into()),
            Box::new(Stmt::Accumulate("Out".into(), q(copy))),
        );
        let p = WhileProgram::new(scratch, body, "Out")
            .unwrap()
            .with_fuel(10);
        let out = WhileQuery::new(p.clone()).eval(&edges(&[(1, 2)])).unwrap();
        assert_eq!(out.len(), 1);
        // with empty E it diverges (guard never falsified)
        assert!(WhileQuery::new(p).eval(&edges(&[])).is_err());
    }
}
