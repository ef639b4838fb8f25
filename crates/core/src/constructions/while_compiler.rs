//! Lemma 5(3): while-programs as iterated heartbeats.
//!
//! "A while program can be simulated by iterated heartbeats using
//! well-known techniques." The compiler flattens a [`WhileProgram`] into
//! a straight-line instruction list with branches, then builds an
//! FO-transducer whose memory holds the program's scratch relations plus
//! one nullary *program counter* flag per instruction. Each heartbeat
//! executes exactly one instruction:
//!
//! * `R := Q` is the paper's assignment pattern (`Q_ins = Q`,
//!   `Q_del = R`), gated on the instruction's pc;
//! * branches move the pc according to an emptiness test;
//! * a final `Halt` raises a `WHalted` flag that gates the output query.
//!
//! All queries are FO-expressible (gates are nullary conjuncts, unions
//! are disjunctions), so this is an FO-transducer whenever the program's
//! assignment queries are FO/UCQ — giving the "while ⊆ single-node
//! FO-transducer" half of Lemma 5(3). The converse half (single-node
//! FO-transducer runs are while-computable) is exercised in tests by
//! comparing against direct [`rtx_query::WhileQuery`] evaluation.

use rtx_query::{
    Atom, CopyQuery, EvalError, FoQuery, Formula, GatedQuery, Guard, QueryRef, Stmt, UnionQuery,
    WhileProgram,
};
use rtx_relational::{RelName, Schema};
use rtx_transducer::{Transducer, TransducerBuilder};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A flattened while-program instruction.
#[derive(Clone, Debug)]
enum Instr {
    Assign {
        target: RelName,
        query: QueryRef,
    },
    Accumulate {
        target: RelName,
        query: QueryRef,
    },
    /// Test a relation for (non)emptiness and branch.
    Branch {
        rel: RelName,
        jump_if_nonempty: bool,
        on_jump: usize,
        on_fall: usize,
    },
    Jump(usize),
    Halt,
}

/// Flatten the statement tree into instructions ending in `Halt`.
fn compile(stmt: &Stmt, out: &mut Vec<Instr>) {
    match stmt {
        Stmt::Assign(r, q) => out.push(Instr::Assign {
            target: r.clone(),
            query: q.clone(),
        }),
        Stmt::Accumulate(r, q) => out.push(Instr::Accumulate {
            target: r.clone(),
            query: q.clone(),
        }),
        Stmt::Seq(ss) => {
            for s in ss {
                compile(s, out);
            }
        }
        Stmt::While(guard, body) => {
            let test = out.len();
            // placeholder; patched below
            out.push(Instr::Jump(usize::MAX));
            compile(body, out);
            out.push(Instr::Jump(test));
            let after = out.len();
            let (rel, jump_if_nonempty) = match guard {
                // loop while nonempty ⇒ exit (jump out) when empty
                Guard::NonEmpty(r) => (r.clone(), false),
                // loop while empty ⇒ exit when nonempty
                Guard::Empty(r) => (r.clone(), true),
            };
            out[test] = Instr::Branch {
                rel,
                jump_if_nonempty,
                on_jump: after,
                on_fall: test + 1,
            };
        }
    }
}

fn pc_rel(i: usize) -> RelName {
    RelName::new(format!("WPc{i}"))
}

fn halted_rel() -> RelName {
    RelName::new("WHalted")
}

fn started_rel() -> RelName {
    RelName::new("WStarted")
}

/// A nullary FO sentence `WPc_i() ∧ [¬]∃x̄ rel(x̄)`.
fn branch_sentence(
    pc: &RelName,
    rel: &RelName,
    arity: usize,
    want_nonempty: bool,
) -> Result<QueryRef, EvalError> {
    let vars: Vec<String> = (0..arity).map(|i| format!("B{i}")).collect();
    let atom = Atom::new(rel.clone(), vars.iter().map(rtx_query::Term::var).collect());
    let exists = if arity == 0 {
        Formula::Atom(atom)
    } else {
        Formula::exists(vars.iter().map(String::as_str), Formula::Atom(atom))
    };
    let test = if want_nonempty {
        exists
    } else {
        Formula::not(exists)
    };
    let f = Formula::and([Formula::Atom(Atom::new(pc.clone(), vec![])), test]);
    Ok(Arc::new(FoQuery::sentence(f)?))
}

/// Compile a while-program into a transducer that simulates it by
/// iterated heartbeats on a (single-node) network.
///
/// `input` declares the read-only input relations the program's queries
/// reference. The transducer has no message relations: on a single-node
/// network only heartbeat transitions exist anyway (paper, Section 3).
pub fn compile_while_to_transducer(
    program: &WhileProgram,
    input: &Schema,
) -> Result<Transducer, EvalError> {
    let mut instrs = Vec::new();
    compile(program.body(), &mut instrs);
    instrs.push(Instr::Halt);

    let scratch = program.scratch().clone();
    let lookup_arity = |r: &RelName| -> Result<usize, EvalError> {
        scratch.arity(r).or_else(|| input.arity(r)).ok_or_else(|| {
            EvalError::Rel(rtx_relational::RelError::UnknownRelation { rel: r.clone() })
        })
    };

    let mut b = TransducerBuilder::new("while-compiled").input_schema(input);
    for (r, k) in scratch.iter() {
        b = b.memory_relation(r.clone(), k);
    }
    for i in 0..instrs.len() {
        b = b.memory_relation(pc_rel(i), 0);
    }
    b = b
        .memory_relation(halted_rel(), 0)
        .memory_relation(started_rel(), 0);

    // Per-scratch-relation insertion/deletion parts, and pc successors.
    let mut ins_parts: BTreeMap<RelName, Vec<QueryRef>> = BTreeMap::new();
    let mut del_parts: BTreeMap<RelName, Vec<QueryRef>> = BTreeMap::new();
    let mut pc_ins: BTreeMap<usize, Vec<QueryRef>> = BTreeMap::new();
    let mut halted_parts: Vec<QueryRef> = Vec::new();

    let gate = |i: usize, q: QueryRef| -> QueryRef {
        Arc::new(GatedQuery::new(Arc::new(CopyQuery::new(pc_rel(i), 0)), q))
    };
    let pc_copy = |i: usize| -> QueryRef { Arc::new(CopyQuery::new(pc_rel(i), 0)) };

    for (i, instr) in instrs.iter().enumerate() {
        match instr {
            Instr::Assign { target, query } => {
                ins_parts
                    .entry(target.clone())
                    .or_default()
                    .push(gate(i, query.clone()));
                let arity = lookup_arity(target)?;
                del_parts
                    .entry(target.clone())
                    .or_default()
                    .push(gate(i, Arc::new(CopyQuery::new(target.clone(), arity))));
                pc_ins.entry(i + 1).or_default().push(pc_copy(i));
            }
            Instr::Accumulate { target, query } => {
                ins_parts
                    .entry(target.clone())
                    .or_default()
                    .push(gate(i, query.clone()));
                pc_ins.entry(i + 1).or_default().push(pc_copy(i));
            }
            Instr::Branch {
                rel,
                jump_if_nonempty,
                on_jump,
                on_fall,
            } => {
                let arity = lookup_arity(rel)?;
                pc_ins.entry(*on_jump).or_default().push(branch_sentence(
                    &pc_rel(i),
                    rel,
                    arity,
                    *jump_if_nonempty,
                )?);
                pc_ins.entry(*on_fall).or_default().push(branch_sentence(
                    &pc_rel(i),
                    rel,
                    arity,
                    !*jump_if_nonempty,
                )?);
            }
            Instr::Jump(t) => {
                pc_ins.entry(*t).or_default().push(pc_copy(i));
            }
            Instr::Halt => {
                halted_parts.push(pc_copy(i));
            }
        }
    }

    for (r, parts) in ins_parts {
        let arity = lookup_arity(&r)?;
        b = b.insert(r, Arc::new(UnionQuery::new(arity, parts)?));
    }
    for (r, parts) in del_parts {
        let arity = lookup_arity(&r)?;
        b = b.delete(r, Arc::new(UnionQuery::new(arity, parts)?));
    }

    // Program start: pc0 fires exactly once, on the first heartbeat.
    let not_started: QueryRef = Arc::new(FoQuery::sentence(Formula::not(Formula::Atom(
        Atom::new(started_rel(), vec![]),
    )))?);
    pc_ins.entry(0).or_default().push(not_started);
    b = b.insert(started_rel(), super::const_true());

    for (i, parts) in pc_ins {
        if i >= instrs.len() {
            continue; // successor of the final instruction is Halt itself
        }
        b = b.insert(pc_rel(i), Arc::new(UnionQuery::new(0, parts)?));
    }
    // Every pc clears itself after its step.
    for i in 0..instrs.len() {
        b = b.delete(pc_rel(i), pc_copy(i));
    }
    b = b.insert(halted_rel(), Arc::new(UnionQuery::new(0, halted_parts)?));

    // Output once halted.
    let out_arity = lookup_arity(program.output())?;
    let out = GatedQuery::new(
        Arc::new(CopyQuery::new(halted_rel(), 0)),
        Arc::new(CopyQuery::new(program.output().clone(), out_arity)),
    );
    b = b.output(Arc::new(out));
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtx_net::{run, FifoRoundRobin, HorizontalPartition, Network, RunBudget};
    use rtx_query::{atom, CqBuilder, Query, Term, UcqQuery, WhileQuery};
    use rtx_relational::{fact, Instance};

    fn q(rule: rtx_query::Rule) -> QueryRef {
        Arc::new(UcqQuery::single(rule))
    }

    /// The TC while-program from `rtx_query::while_lang`'s tests.
    fn tc_program() -> WhileProgram {
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

    fn edges(pairs: &[(i64, i64)]) -> Instance {
        let sch = Schema::new().with("E", 2);
        let mut i = Instance::empty(sch);
        for &(a, b) in pairs {
            i.insert_fact(fact!("E", a, b)).unwrap();
        }
        i
    }

    fn run_single_node(t: &Transducer, input: &Instance) -> rtx_net::RunOutcome {
        let net = Network::single();
        let p = HorizontalPartition::replicate(&net, input);
        run(
            &net,
            t,
            &p,
            &mut FifoRoundRobin::new(),
            &RunBudget::steps(100_000),
        )
        .unwrap()
    }

    #[test]
    fn compiled_tc_matches_direct_while_evaluation() {
        let program = tc_program();
        let input = edges(&[(1, 2), (2, 3), (3, 4)]);
        let direct = WhileQuery::new(program.clone()).eval(&input).unwrap();
        let t = compile_while_to_transducer(&program, input.schema()).unwrap();
        let out = run_single_node(&t, &input);
        assert!(out.quiescent, "halting program quiesces on one node");
        assert_eq!(out.output, direct);
        assert_eq!(out.deliveries, 0, "single node: only heartbeats");
    }

    #[test]
    fn compiled_tc_on_cycle_input() {
        let program = tc_program();
        let input = edges(&[(1, 2), (2, 1), (2, 3)]);
        let direct = WhileQuery::new(program.clone()).eval(&input).unwrap();
        let t = compile_while_to_transducer(&program, input.schema()).unwrap();
        let out = run_single_node(&t, &input);
        assert_eq!(out.output, direct);
    }

    #[test]
    fn compiled_empty_input_halts_immediately() {
        let program = tc_program();
        let input = edges(&[]);
        let t = compile_while_to_transducer(&program, input.schema()).unwrap();
        let out = run_single_node(&t, &input);
        assert!(out.quiescent);
        assert!(out.output.is_empty());
    }

    #[test]
    fn at_most_one_pc_active_along_the_run() {
        let program = tc_program();
        let input = edges(&[(1, 2), (2, 3)]);
        let t = compile_while_to_transducer(&program, input.schema()).unwrap();
        let net = Network::single();
        let p = HorizontalPartition::replicate(&net, &input);
        let mut cfg = rtx_net::Configuration::initial(&net, &t, &p).unwrap();
        let n0 = rtx_relational::Value::sym("n0");
        for _ in 0..200 {
            let active: usize = (0..64)
                .filter_map(|i| {
                    let r = pc_rel(i);
                    cfg.state(&n0)
                        .and_then(|st| st.relation(&r).ok())
                        .map(|rel| rel.as_bool())
                })
                .filter(|b| *b)
                .count();
            assert!(active <= 1, "program counter must be unique");
            cfg.apply_heartbeat(&net, &t, &n0).unwrap();
        }
    }

    #[test]
    fn nested_while_loops_compile_and_run() {
        // for-each-like nesting: outer drains Delta1, inner drains Delta2.
        // Program: A := S; Out := ∅;
        // while A nonempty { B := A; while B nonempty { Out += B; B := ∅ }; A := ∅ }
        let scratch = Schema::new().with("A", 1).with("B", 1).with("Out", 1);
        let copy_s = CqBuilder::head(vec![Term::var("X")])
            .when(atom!("S"; @"X"))
            .build()
            .unwrap();
        let copy_a = CqBuilder::head(vec![Term::var("X")])
            .when(atom!("A"; @"X"))
            .build()
            .unwrap();
        let copy_b = CqBuilder::head(vec![Term::var("X")])
            .when(atom!("B"; @"X"))
            .build()
            .unwrap();
        let empty: QueryRef = Arc::new(rtx_query::EmptyQuery::new(1));
        let body = Stmt::Seq(vec![
            Stmt::Assign("A".into(), q(copy_s)),
            Stmt::While(
                Guard::NonEmpty("A".into()),
                Box::new(Stmt::Seq(vec![
                    Stmt::Assign("B".into(), q(copy_a)),
                    Stmt::While(
                        Guard::NonEmpty("B".into()),
                        Box::new(Stmt::Seq(vec![
                            Stmt::Accumulate("Out".into(), q(copy_b)),
                            Stmt::Assign("B".into(), empty.clone()),
                        ])),
                    ),
                    Stmt::Assign("A".into(), empty.clone()),
                ])),
            ),
        ]);
        let program = WhileProgram::new(scratch, body, "Out").unwrap();
        let input = Instance::from_facts(
            Schema::new().with("S", 1),
            vec![fact!("S", 1), fact!("S", 2)],
        )
        .unwrap();
        let direct = WhileQuery::new(program.clone()).eval(&input).unwrap();
        let t = compile_while_to_transducer(&program, input.schema()).unwrap();
        let out = run_single_node(&t, &input);
        assert!(out.quiescent);
        assert_eq!(out.output, direct);
        assert_eq!(out.output.len(), 2);
    }

    #[test]
    fn unknown_relation_in_guard_rejected() {
        let scratch = Schema::new().with("T", 1);
        let body = Stmt::While(
            Guard::NonEmpty("Missing".into()),
            Box::new(Stmt::Seq(vec![])),
        );
        let program = WhileProgram::new(scratch, body, "T").unwrap();
        assert!(compile_while_to_transducer(&program, &Schema::new()).is_err());
    }
}
