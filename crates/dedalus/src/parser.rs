//! A surface syntax for Dedalus programs.
//!
//! ```text
//! % deductive (same timestamp)
//! reach(X) :- src(X).
//! reach(Y) :- reach(X), edge(X,Y).
//!
//! % inductive (successor timestamp)
//! reach(X)@next :- reach(X).
//!
//! % asynchronous (nondeterministic later timestamp)
//! msg(X)@async :- send(X).
//!
//! % entanglement: `now` is the body timestamp, usable as data
//! minted(X, now)@next :- want(X).
//! ```
//!
//! Conventions follow `rtx-query`'s Datalog parser: variables start
//! uppercase or `_`; constants are integers, `'quoted'` symbols, or
//! lowercase identifiers; negation is `!`; nonequality `X != Y`;
//! comments start with `%` or `#`.

use crate::ast::{DRule, DTime, DedalusProgram};
use rtx_query::{Atom, EvalError, Term, Var};
use rtx_relational::Value;

/// The reserved time keyword.
const NOW: &str = "now";
/// The internal variable `now` is rewritten to.
const NOW_VAR: &str = "__now";

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Quoted(String),
    LParen,
    RParen,
    Comma,
    Dot,
    ColonDash,
    Bang,
    Neq,
    At,
}

fn lex(src: &str) -> Result<Vec<(Tok, usize)>, EvalError> {
    let b = src.as_bytes();
    let mut pos = 0usize;
    let mut out = Vec::new();
    let err = |message: String, offset: usize| EvalError::Parse { message, offset };
    while pos < b.len() {
        let start = pos;
        match b[pos] {
            b' ' | b'\t' | b'\n' | b'\r' => pos += 1,
            b'%' | b'#' => {
                while pos < b.len() && b[pos] != b'\n' {
                    pos += 1;
                }
            }
            b'(' => {
                out.push((Tok::LParen, start));
                pos += 1;
            }
            b')' => {
                out.push((Tok::RParen, start));
                pos += 1;
            }
            b',' => {
                out.push((Tok::Comma, start));
                pos += 1;
            }
            b'.' => {
                out.push((Tok::Dot, start));
                pos += 1;
            }
            b'@' => {
                out.push((Tok::At, start));
                pos += 1;
            }
            b'!' => {
                if b.get(pos + 1) == Some(&b'=') {
                    out.push((Tok::Neq, start));
                    pos += 2;
                } else {
                    out.push((Tok::Bang, start));
                    pos += 1;
                }
            }
            b':' => {
                if b.get(pos + 1) == Some(&b'-') {
                    out.push((Tok::ColonDash, start));
                    pos += 2;
                } else {
                    return Err(err("expected `:-`".into(), pos));
                }
            }
            b'\'' => {
                pos += 1;
                let s = pos;
                while pos < b.len() && b[pos] != b'\'' {
                    pos += 1;
                }
                if pos >= b.len() {
                    return Err(err("unterminated quoted symbol".into(), start));
                }
                let text = std::str::from_utf8(&b[s..pos])
                    .map_err(|_| err("invalid UTF-8".into(), s))?
                    .to_string();
                pos += 1;
                out.push((Tok::Quoted(text), start));
            }
            b'-' | b'0'..=b'9' => {
                let s = pos;
                pos += 1;
                while pos < b.len() && b[pos].is_ascii_digit() {
                    pos += 1;
                }
                let text = std::str::from_utf8(&b[s..pos]).unwrap();
                let n: i64 = text
                    .parse()
                    .map_err(|_| err(format!("bad integer `{text}`"), s))?;
                out.push((Tok::Int(n), start));
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let s = pos;
                while pos < b.len() && (b[pos].is_ascii_alphanumeric() || b[pos] == b'_') {
                    pos += 1;
                }
                out.push((
                    Tok::Ident(std::str::from_utf8(&b[s..pos]).unwrap().to_string()),
                    start,
                ));
            }
            other => {
                return Err(err(
                    format!("unexpected character `{}`", other as char),
                    pos,
                ))
            }
        }
    }
    Ok(out)
}

struct Parser {
    toks: Vec<(Tok, usize)>,
    pos: usize,
    /// The source length: the offset of "end of input".
    end: usize,
    /// Did the current rule mention `now`?
    uses_now: bool,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    /// The error for `got`, the token [`Parser::next`] just returned,
    /// when it is not what the grammar expects: reported at that
    /// token's offset, or at the end of the source when input ran out.
    fn unexpected(&self, expected: &str, got: Option<Tok>) -> EvalError {
        let (found, offset) = match got {
            Some(t) => (format!("{t:?}"), self.toks[self.pos - 1].1),
            None => ("end of input".to_string(), self.end),
        };
        EvalError::Parse {
            message: format!("expected {expected}, found {found}"),
            offset,
        }
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(t, _)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, t: Tok) -> Result<(), EvalError> {
        match self.next() {
            Some(got) if got == t => Ok(()),
            got => Err(self.unexpected(&format!("{t:?}"), got)),
        }
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn is_var(name: &str) -> bool {
        name.starts_with(|c: char| c.is_ascii_uppercase() || c == '_')
    }

    fn term(&mut self) -> Result<Term, EvalError> {
        match self.next() {
            Some(Tok::Ident(name)) if name == NOW => {
                self.uses_now = true;
                Ok(Term::Var(Var::new(NOW_VAR)))
            }
            Some(Tok::Ident(name)) if Self::is_var(&name) => Ok(Term::var(name)),
            Some(Tok::Ident(name)) => Ok(Term::cons(Value::sym(name))),
            Some(Tok::Int(n)) => Ok(Term::cons(n)),
            Some(Tok::Quoted(s)) => Ok(Term::cons(Value::sym(s))),
            other => Err(self.unexpected("a term", other)),
        }
    }

    fn atom(&mut self, name: String) -> Result<Atom, EvalError> {
        let mut terms = Vec::new();
        if self.eat(&Tok::LParen) && !self.eat(&Tok::RParen) {
            loop {
                terms.push(self.term()?);
                if self.eat(&Tok::RParen) {
                    break;
                }
                self.expect(Tok::Comma)?;
            }
        }
        Ok(Atom::new(name, terms))
    }

    fn rule(&mut self) -> Result<DRule, EvalError> {
        self.uses_now = false;
        let head_name = match self.next() {
            Some(Tok::Ident(n)) => n,
            other => return Err(self.unexpected("rule head", other)),
        };
        let head = self.atom(head_name)?;
        let timing = if self.eat(&Tok::At) {
            match self.next() {
                Some(Tok::Ident(kw)) if kw == "next" => DTime::Next,
                Some(Tok::Ident(kw)) if kw == "async" => DTime::Async,
                other => return Err(self.unexpected("`next` or `async` after `@`", other)),
            }
        } else {
            DTime::Same
        };

        let mut rule = DRule::new(head, timing);
        if self.eat(&Tok::ColonDash) {
            loop {
                if self.eat(&Tok::Bang) {
                    let name = match self.next() {
                        Some(Tok::Ident(n)) => n,
                        other => return Err(self.unexpected("atom after `!`", other)),
                    };
                    rule = rule.unless(self.atom(name)?);
                } else {
                    // an atom or `term != term`
                    let save = self.pos;
                    let lhs = self.term()?;
                    if self.eat(&Tok::Neq) {
                        let rhs = self.term()?;
                        rule = rule.distinct(lhs, rhs);
                    } else {
                        // must be an atom: rewind and reparse as such
                        self.pos = save;
                        let name = match self.next() {
                            Some(Tok::Ident(n)) if n != NOW => n,
                            other => return Err(self.unexpected("a body literal", other)),
                        };
                        rule = rule.when(self.atom(name)?);
                    }
                }
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(Tok::Dot)?;
        if self.uses_now {
            rule = rule.with_time_var(NOW_VAR);
        }
        rule.validate()?;
        Ok(rule)
    }
}

/// Parse a Dedalus program.
pub fn parse_dedalus(src: &str) -> Result<DedalusProgram, EvalError> {
    let mut p = Parser {
        toks: lex(src)?,
        pos: 0,
        end: src.len(),
        uses_now: false,
    };
    let mut rules = Vec::new();
    while p.peek().is_some() {
        rules.push(p.rule()?);
    }
    DedalusProgram::new(rules)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{run_dedalus, DedalusOptions, TemporalFacts};
    use rtx_relational::fact;

    #[test]
    fn parse_and_run_persistence() {
        let p = parse_dedalus(
            "% persistence
             s(X)@next :- s(X).
             seen(X) :- s(X).
             seen(X)@next :- seen(X).",
        )
        .unwrap();
        assert_eq!(p.rules().len(), 3);
        let mut edb = TemporalFacts::new();
        edb.insert(0, fact!("s", 1));
        edb.insert(2, fact!("s", 2));
        let trace = run_dedalus(&p, &edb, &DedalusOptions::default()).unwrap();
        assert!(trace.converged());
        assert!(trace.last().contains_fact(&fact!("seen", 1)));
        assert!(trace.last().contains_fact(&fact!("seen", 2)));
    }

    #[test]
    fn parse_timings() {
        let p = parse_dedalus(
            "a(X) :- e(X).
             b(X)@next :- e(X).
             c(X)@async :- e(X).",
        )
        .unwrap();
        assert_eq!(p.rules_with(DTime::Same).count(), 1);
        assert_eq!(p.rules_with(DTime::Next).count(), 1);
        assert_eq!(p.rules_with(DTime::Async).count(), 1);
    }

    #[test]
    fn parse_entanglement_now() {
        let p = parse_dedalus("minted(X, now)@next :- want(X). minted(X,T)@next :- minted(X,T).")
            .unwrap();
        let r = &p.rules()[0];
        assert!(r.time_var().is_some());
        let mut edb = TemporalFacts::new();
        edb.insert(3, fact!("want", "k"));
        let trace = run_dedalus(&p, &edb, &DedalusOptions::default()).unwrap();
        // want is not persisted: minted exactly once, with timestamp 3
        assert!(trace.last().contains_fact(&fact!("minted", "k", 3)));
    }

    #[test]
    fn parse_negation_and_diseq() {
        let p = parse_dedalus(
            "fresh(X)@next :- s(X), !seen(X).
             seen(X)@next :- s(X).
             seen(X)@next :- seen(X).
             pairs(X,Y) :- s(X), s(Y), X != Y.",
        )
        .unwrap();
        assert_eq!(p.rules().len(), 4);
        assert!(p.rules()[0].has_negation());
    }

    #[test]
    fn parse_errors() {
        assert!(parse_dedalus("p(X) :- q(X)").is_err()); // missing dot
        assert!(parse_dedalus("p(X)@sometime :- q(X).").is_err());
        assert!(parse_dedalus("p(X) :- !q(Y).").is_err()); // unsafe
        assert!(parse_dedalus("p(X) :- 'unterminated.").is_err());
    }

    #[test]
    fn parse_errors_carry_offsets() {
        let parse_error = |src: &str| match parse_dedalus(src) {
            Err(EvalError::Parse { message, offset }) => (message, offset),
            other => panic!("{src:?} should not parse: {other:?}"),
        };
        // At the end of input the offset is the source length.
        let src = "t(X) :- e(X,Y)"; // missing dot
        assert_eq!(
            parse_error(src),
            ("expected Dot, found end of input".to_string(), src.len())
        );
        // An offending token that was already consumed is reported
        // where it stands.
        let src = "t(X,Z) :- t(X,Y), e(Y,.";
        assert_eq!(
            parse_error(src),
            ("expected a term, found Dot".to_string(), src.len() - 1)
        );
        let src = "p(X)@sometime :- q(X).";
        assert_eq!(
            parse_error(src),
            (
                "expected `next` or `async` after `@`, found Ident(\"sometime\")".to_string(),
                5
            )
        );
        let src = "p(X)@";
        assert_eq!(
            parse_error(src),
            (
                "expected `next` or `async` after `@`, found end of input".to_string(),
                src.len()
            )
        );
    }

    #[test]
    fn now_in_head_without_body_use_is_entangled() {
        let p = parse_dedalus("tick(now)@next :- go. go@next :- go.").unwrap();
        let mut edb = TemporalFacts::new();
        edb.insert(0, fact!("go"));
        let opts = DedalusOptions {
            max_ticks: 4,
            ..Default::default()
        };
        let trace = run_dedalus(&p, &edb, &opts).unwrap();
        assert!(trace.last().contains_fact(&fact!("tick", 2)));
    }
}
