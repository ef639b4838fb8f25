//! Text parsers for rules, Datalog programs and FO formulas.
//!
//! One lexer serves every grammar here, and [`parse_rules`] is the
//! workspace's one rule grammar, `head[@annotation] [:- body].`: Datalog
//! ([`parse_program`]) uses it with no annotation, and Dedalus
//! (`rtx_dedalus::parse_dedalus`) with `@next`/`@async` and the `now`
//! keyword.
//!
//! Conventions (classical Datalog style):
//! * variables start with an uppercase letter or `_`;
//! * constants are integers, `'quoted symbols'`, or lowercase identifiers;
//! * relation names are identifiers as written;
//! * rules end with `.`, negation is `!`, nonequality `!=`;
//! * comments run from `%` or `#` to the end of the line;
//! * FO connectives: `&`, `|`, `!`, `exists X, Y . φ`, `forall X . φ`,
//!   `=`, `!=`, `true`, `false`.
//!
//! Errors carry the byte offset of the offending token's first byte, or
//! the source length at the end of input.
//!
//! ```
//! use rtx_query::parser::{parse_program, parse_fo_query};
//! let p = parse_program("t(X,Y) :- e(X,Y). t(X,Z) :- t(X,Y), e(Y,Z).").unwrap();
//! assert_eq!(p.rules().len(), 2);
//! let q = parse_fo_query("(X) <- s(X) & !exists Y . e(X,Y)").unwrap();
//! assert_eq!(rtx_query::Query::arity(&q), 1);
//! ```

use crate::datalog::{Literal, Program, Rule};
use crate::error::EvalError;
use crate::fo::{FoQuery, Formula};
use crate::term::{Atom, Term, Var};
use rtx_relational::Value;

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
    Arrow,
    Bang,
    Neq,
    Eq,
    Amp,
    Pipe,
    At,
}

fn error(message: impl Into<String>, offset: usize) -> EvalError {
    EvalError::Parse {
        message: message.into(),
        offset,
    }
}

/// Split `src` into tokens, each with the offset of its first byte.
fn lex(src: &str) -> Result<Vec<(Tok, usize)>, EvalError> {
    let b = src.as_bytes();
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < b.len() {
        let start = pos;
        let followed_by = |c: u8| b.get(start + 1) == Some(&c);
        let (tok, len) = match b[start] {
            b' ' | b'\t' | b'\n' | b'\r' => {
                pos += 1;
                continue;
            }
            b'%' | b'#' => {
                // comment to end of line
                pos += b[start..].iter().take_while(|&&c| c != b'\n').count();
                continue;
            }
            b'(' => (Tok::LParen, 1),
            b')' => (Tok::RParen, 1),
            b',' => (Tok::Comma, 1),
            b'.' => (Tok::Dot, 1),
            b'&' => (Tok::Amp, 1),
            b'|' => (Tok::Pipe, 1),
            b'=' => (Tok::Eq, 1),
            b'@' => (Tok::At, 1),
            b'!' if followed_by(b'=') => (Tok::Neq, 2),
            b'!' => (Tok::Bang, 1),
            b':' if followed_by(b'-') => (Tok::ColonDash, 2),
            b'<' if followed_by(b'-') => (Tok::Arrow, 2),
            b':' => return Err(error("expected `:-`", start)),
            b'<' => return Err(error("expected `<-`", start)),
            b'\'' => {
                let Some(len) = src[start + 1..].find('\'') else {
                    return Err(error("unterminated quoted symbol", start));
                };
                let text = &src[start + 1..start + 1 + len];
                (Tok::Quoted(text.to_string()), len + 2)
            }
            b'-' | b'0'..=b'9' => {
                let digits = b[start + 1..].iter().take_while(|c| c.is_ascii_digit());
                let text = &src[start..start + 1 + digits.count()];
                let n = text
                    .parse()
                    .map_err(|_| error(format!("bad integer `{text}`"), start))?;
                (Tok::Int(n), text.len())
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let word = b[start..]
                    .iter()
                    .take_while(|c| c.is_ascii_alphanumeric() || **c == b'_');
                let text = &src[start..start + word.count()];
                (Tok::Ident(text.to_string()), text.len())
            }
            _ => {
                // Every token above is ASCII, so `start` is a character
                // boundary.
                let c: String = src[start..].chars().take(1).collect();
                return Err(error(format!("unexpected character `{c}`"), start));
            }
        };
        out.push((tok, start));
        pos += len;
    }
    Ok(out)
}

/// One rule as written, `head[@annotation] [:- body].`, before its
/// safety is checked.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RuleSyntax {
    /// The head atom.
    pub head: Atom,
    /// The index, among the accepted annotations, of the word after
    /// `@`.
    pub annotation: Option<usize>,
    /// The body literals, in source order.
    pub body: Vec<Literal>,
    /// Does a term of the rule use the reserved keyword?
    pub uses_keyword: bool,
    /// The byte offset of the rule's first token.
    pub offset: usize,
}

struct Parser<'a> {
    toks: Vec<(Tok, usize)>,
    pos: usize,
    /// The source length: the offset of "end of input".
    end: usize,
    /// The words accepted after a rule head's `@`.
    annotations: &'a [&'a str],
    /// The word reserved in term position, if any.
    keyword: Option<&'a str>,
    /// Did the current rule use the keyword?
    uses_keyword: bool,
}

impl<'a> Parser<'a> {
    fn new(src: &str) -> Result<Self, EvalError> {
        Ok(Parser {
            toks: lex(src)?,
            pos: 0,
            end: src.len(),
            annotations: &[],
            keyword: None,
            uses_keyword: false,
        })
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    fn offset(&self) -> usize {
        self.toks.get(self.pos).map(|&(_, o)| o).unwrap_or(self.end)
    }

    /// The error for `got`, the token [`Parser::next`] just returned,
    /// when it is not what the grammar expects: reported at that
    /// token's offset, or at the end of the source when input ran out.
    fn unexpected(&self, expected: &str, got: Option<Tok>) -> EvalError {
        let (found, offset) = match got {
            Some(t) => (format!("{t:?}"), self.toks[self.pos - 1].1),
            None => ("end of input".to_string(), self.end),
        };
        error(format!("expected {expected}, found {found}"), offset)
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

    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    /// Is the identifier a variable (uppercase or `_` start)?
    fn is_var(name: &str) -> bool {
        name.starts_with(|c: char| c.is_ascii_uppercase() || c == '_')
    }

    /// An identifier in term position: the keyword's variable, a
    /// variable, or a symbol constant.
    fn ident_term(&mut self, name: String) -> Term {
        if self.keyword == Some(name.as_str()) {
            self.uses_keyword = true;
            Term::var(name)
        } else if Self::is_var(&name) {
            Term::var(name)
        } else {
            Term::cons(Value::sym(name))
        }
    }

    fn parse_term(&mut self) -> Result<Term, EvalError> {
        match self.next() {
            Some(Tok::Ident(name)) => Ok(self.ident_term(name)),
            Some(Tok::Int(n)) => Ok(Term::cons(n)),
            Some(Tok::Quoted(s)) => Ok(Term::cons(Value::sym(s))),
            other => Err(self.unexpected("a term", other)),
        }
    }

    /// `name(t1, …, tk)` or bare `name` (nullary).
    fn parse_atom(&mut self, name: String) -> Result<Atom, EvalError> {
        let mut terms = Vec::new();
        if self.eat(&Tok::LParen) && !self.eat(&Tok::RParen) {
            loop {
                terms.push(self.parse_term()?);
                if self.eat(&Tok::RParen) {
                    break;
                }
                self.expect(Tok::Comma)?;
            }
        }
        Ok(Atom::new(name, terms))
    }

    // ---- rules ----

    fn parse_rule(&mut self) -> Result<RuleSyntax, EvalError> {
        self.uses_keyword = false;
        let offset = self.offset();
        let head_name = match self.next() {
            Some(Tok::Ident(n)) => n,
            other => return Err(self.unexpected("rule head", other)),
        };
        let head = self.parse_atom(head_name)?;
        let mut annotation = None;
        if !self.annotations.is_empty() && self.eat(&Tok::At) {
            let got = self.next();
            annotation = match &got {
                Some(Tok::Ident(w)) => self.annotations.iter().position(|a| a == w),
                _ => None,
            };
            if annotation.is_none() {
                let words: Vec<String> =
                    self.annotations.iter().map(|a| format!("`{a}`")).collect();
                let expected = format!("{} after `@`", words.join(" or "));
                return Err(self.unexpected(&expected, got));
            }
        }
        let mut body = Vec::new();
        if self.eat(&Tok::ColonDash) {
            loop {
                body.push(self.parse_literal()?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(Tok::Dot)?;
        Ok(RuleSyntax {
            head,
            annotation,
            body,
            uses_keyword: self.uses_keyword,
            offset,
        })
    }

    fn parse_literal(&mut self) -> Result<Literal, EvalError> {
        if self.eat(&Tok::Bang) {
            let name = match self.next() {
                Some(Tok::Ident(n)) => n,
                other => return Err(self.unexpected("atom after `!`", other)),
            };
            return Ok(Literal::Neg(self.parse_atom(name)?));
        }
        // an atom, or `term != term`
        let lhs = match self.next() {
            Some(Tok::Ident(name)) => {
                if self.peek() == Some(&Tok::LParen) {
                    return Ok(Literal::Pos(self.parse_atom(name)?));
                } else if !self.eat(&Tok::Neq) {
                    // nullary atom
                    return Ok(Literal::Pos(Atom::new(name, vec![])));
                }
                self.ident_term(name)
            }
            Some(Tok::Int(n)) => {
                self.expect(Tok::Neq)?;
                Term::cons(n)
            }
            Some(Tok::Quoted(s)) => {
                self.expect(Tok::Neq)?;
                Term::cons(Value::sym(s))
            }
            other => return Err(self.unexpected("a body literal", other)),
        };
        Ok(Literal::Diseq(lhs, self.parse_term()?))
    }

    // ---- FO ----

    fn parse_formula(&mut self) -> Result<Formula, EvalError> {
        self.parse_disjunction()
    }

    fn parse_disjunction(&mut self) -> Result<Formula, EvalError> {
        let mut parts = vec![self.parse_conjunction()?];
        while self.eat(&Tok::Pipe) {
            parts.push(self.parse_conjunction()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().unwrap()
        } else {
            Formula::Or(parts)
        })
    }

    fn parse_conjunction(&mut self) -> Result<Formula, EvalError> {
        let mut parts = vec![self.parse_unary()?];
        while self.eat(&Tok::Amp) {
            parts.push(self.parse_unary()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().unwrap()
        } else {
            Formula::And(parts)
        })
    }

    fn parse_unary(&mut self) -> Result<Formula, EvalError> {
        if self.eat(&Tok::Bang) {
            return Ok(Formula::not(self.parse_unary()?));
        }
        match self.peek() {
            Some(Tok::Ident(kw)) if kw == "exists" || kw == "forall" => {
                let universal = kw == "forall";
                self.next();
                let mut vars: Vec<Var> = Vec::new();
                loop {
                    match self.next() {
                        Some(Tok::Ident(v)) if Self::is_var(&v) => vars.push(Var::new(v)),
                        other => return Err(self.unexpected("quantified variable", other)),
                    }
                    if !self.eat(&Tok::Comma) {
                        break;
                    }
                }
                self.expect(Tok::Dot)?;
                let body = self.parse_formula()?;
                Ok(if universal {
                    Formula::Forall(vars, Box::new(body))
                } else {
                    Formula::Exists(vars, Box::new(body))
                })
            }
            _ => self.parse_primary(),
        }
    }

    fn parse_primary(&mut self) -> Result<Formula, EvalError> {
        if self.eat(&Tok::LParen) {
            let f = self.parse_formula()?;
            self.expect(Tok::RParen)?;
            return Ok(f);
        }
        match self.next() {
            Some(Tok::Ident(name)) if name == "true" => Ok(Formula::True),
            Some(Tok::Ident(name)) if name == "false" => Ok(Formula::False),
            Some(Tok::Ident(name)) => {
                if self.peek() == Some(&Tok::LParen) {
                    Ok(Formula::Atom(self.parse_atom(name)?))
                } else if self.eat(&Tok::Eq) {
                    let rhs = self.parse_term()?;
                    Ok(Formula::Eq(self.ident_term(name), rhs))
                } else if self.eat(&Tok::Neq) {
                    let rhs = self.parse_term()?;
                    Ok(Formula::neq(self.ident_term(name), rhs))
                } else {
                    Ok(Formula::Atom(Atom::new(name, vec![]))) // nullary atom
                }
            }
            Some(Tok::Int(n)) => {
                let lhs = Term::cons(n);
                if self.eat(&Tok::Eq) {
                    Ok(Formula::Eq(lhs, self.parse_term()?))
                } else {
                    self.expect(Tok::Neq)?;
                    Ok(Formula::neq(lhs, self.parse_term()?))
                }
            }
            Some(Tok::Quoted(s)) => {
                let lhs = Term::cons(Value::sym(s));
                if self.eat(&Tok::Eq) {
                    Ok(Formula::Eq(lhs, self.parse_term()?))
                } else {
                    self.expect(Tok::Neq)?;
                    Ok(Formula::neq(lhs, self.parse_term()?))
                }
            }
            other => Err(self.unexpected("a formula", other)),
        }
    }
}

/// Parse a sequence of rules `head[@annotation] [:- body].` — the rule
/// grammar of every rule language in the workspace — without checking
/// their safety; each rule keeps its offset for later errors.
///
/// `annotations` are the words accepted after `@`; with none, `@` is a
/// syntax error. `keyword`, when given, is reserved in term position:
/// there it stands for the variable of the same name, which no written
/// variable can be (variables start uppercase or with `_`).
pub fn parse_rules(
    src: &str,
    annotations: &[&str],
    keyword: Option<&str>,
) -> Result<Vec<RuleSyntax>, EvalError> {
    let mut p = Parser::new(src)?;
    p.annotations = annotations;
    p.keyword = keyword;
    let mut rules = Vec::new();
    while !p.at_end() {
        rules.push(p.parse_rule()?);
    }
    Ok(rules)
}

/// Parse a Datalog program: a sequence of `head :- body.` rules. A rule
/// that [`Rule::new`] rejects is a parse error at the rule's offset.
pub fn parse_program(src: &str) -> Result<Program, EvalError> {
    let rules = parse_rules(src, &[], None)?
        .into_iter()
        .map(|r| Rule::new(r.head, r.body).map_err(|e| error(e.to_string(), r.offset)))
        .collect::<Result<_, _>>()?;
    Program::new(rules)
}

/// Parse a bare FO formula.
pub fn parse_formula(src: &str) -> Result<Formula, EvalError> {
    let mut p = Parser::new(src)?;
    let f = p.parse_formula()?;
    if !p.at_end() {
        return Err(error("trailing input after formula", p.offset()));
    }
    Ok(f)
}

/// Parse an FO query of the form `(X, Y) <- formula`.
pub fn parse_fo_query(src: &str) -> Result<FoQuery, EvalError> {
    let mut p = Parser::new(src)?;
    p.expect(Tok::LParen)?;
    let mut head: Vec<Var> = Vec::new();
    if !p.eat(&Tok::RParen) {
        loop {
            match p.next() {
                Some(Tok::Ident(v)) if Parser::is_var(&v) => head.push(Var::new(v)),
                other => return Err(p.unexpected("head variable", other)),
            }
            if p.eat(&Tok::RParen) {
                break;
            }
            p.expect(Tok::Comma)?;
        }
    }
    p.expect(Tok::Arrow)?;
    let f = p.parse_formula()?;
    if !p.at_end() {
        return Err(error("trailing input after query", p.offset()));
    }
    FoQuery::new(head, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;
    use rtx_relational::{fact, tuple, Instance, Schema};

    fn db() -> Instance {
        let sch = Schema::new().with("e", 2).with("s", 1);
        Instance::from_facts(sch, vec![fact!("e", 1, 2), fact!("e", 2, 3), fact!("s", 2)]).unwrap()
    }

    #[test]
    fn parse_tc_program_and_eval() {
        let p = parse_program(
            "t(X,Y) :- e(X,Y).\n\
             t(X,Z) :- t(X,Y), e(Y,Z).",
        )
        .unwrap();
        assert_eq!(p.rules().len(), 2);
        let q = crate::datalog::DatalogQuery::new(p, "t").unwrap();
        let out = q.eval(&db()).unwrap();
        assert!(out.contains(&tuple![1, 3]));
    }

    #[test]
    fn parse_negation_and_diseq() {
        let p = parse_program("p(X,Y) :- e(X,Y), !s(X), X != Y.").unwrap();
        let r = &p.rules()[0];
        assert!(r.has_negation());
        let q = crate::datalog::DatalogQuery::new(p, "p").unwrap();
        let out = q.eval(&db()).unwrap();
        assert_eq!(out.len(), 1); // only (1,2): 2 is in s
        assert!(out.contains(&tuple![1, 2]));
    }

    #[test]
    fn parse_constants_and_nullary() {
        let p = parse_program("hit :- e(1, X). tagged(X) :- e(X, 'two').").unwrap();
        assert_eq!(p.rules().len(), 2);
        assert_eq!(p.signature().arity(&"hit".into()), Some(0));
    }

    #[test]
    fn lowercase_idents_in_term_position_are_constants() {
        let p = parse_program("q(X) :- lab(X, red).").unwrap();
        let sch = Schema::new().with("lab", 2);
        let dbx = Instance::from_facts(sch, vec![fact!("lab", 1, "red"), fact!("lab", 2, "blue")])
            .unwrap();
        let q = crate::datalog::DatalogQuery::new(p, "q").unwrap();
        let out = q.eval(&dbx).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains(&tuple![1]));
    }

    #[test]
    fn comments_are_skipped() {
        let p = parse_program(
            "% transitive closure\n\
             t(X,Y) :- e(X,Y). # copy\n",
        )
        .unwrap();
        assert_eq!(p.rules().len(), 1);
    }

    /// The message and offset of a program's parse error.
    fn parse_error(src: &str) -> (String, usize) {
        match parse_program(src) {
            Err(EvalError::Parse { message, offset }) => (message, offset),
            other => panic!("{src:?} should not parse: {other:?}"),
        }
    }

    #[test]
    fn parse_errors_carry_offsets() {
        let (message, offset) = parse_error("t(X,Y :- e(X,Y).");
        assert_eq!(message, "expected Comma, found ColonDash");
        assert_eq!(offset, 6);
        // At the end of input the offset is the source length.
        let src = "t(X) :- e(X,Y)"; // missing dot
        assert_eq!(
            parse_error(src),
            ("expected Dot, found end of input".to_string(), src.len())
        );
        // An offending token that was already consumed is reported
        // where it stands.
        let src = "T(X,Z) :- T(X,Y), E(Y,.";
        assert_eq!(
            parse_error(src),
            ("expected a term, found Dot".to_string(), src.len() - 1)
        );
        let src = "t(X) :- e(X), ";
        assert_eq!(
            parse_error(src),
            (
                "expected a body literal, found end of input".to_string(),
                src.len()
            )
        );
        // Lexer errors name the real character and sit on the first
        // byte of the offending token.
        for (src, message, offset) in [
            ("p(-) :- q.", "bad integer `-`", 2),
            (
                "p(99999999999999999999) :- q.",
                "bad integer `99999999999999999999`",
                2,
            ),
            ("p(X) :- q('abc.", "unterminated quoted symbol", 10),
            ("p(X) :- q(X), ¬r(X).", "unexpected character `¬`", 14),
        ] {
            assert_eq!(parse_error(src), (message.to_string(), offset), "{src}");
        }
        // A rule that parses but is unsafe, or uses one relation at two
        // arities, is reported at its first token; an unsafe rule's
        // message names it.
        assert_eq!(
            parse_error("a(X) :- b(X). t(X) :- !e(X,X)."),
            (
                "unsafe query: head variable X is not bound by a positive atom \
                 in `t(X) ← ¬e(X,X)`"
                    .to_string(),
                14
            )
        );
        assert_eq!(
            parse_error("a(X) :- b(X).\n  s(X) :- s(X,X)."),
            (
                "arity mismatch for `s`: expected 1, found 2".to_string(),
                16
            )
        );
        match parse_formula("s(X) & X != -") {
            Err(EvalError::Parse { message, offset }) => {
                assert_eq!((message.as_str(), offset), ("bad integer `-`", 12));
            }
            other => panic!("{other:?}"),
        }
        match parse_fo_query("(X, 3) <- s(X)") {
            Err(EvalError::Parse { message, offset }) => {
                assert_eq!(
                    (message.as_str(), offset),
                    ("expected head variable, found Int(3)", 4)
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unsafe_rule_surfaces_as_unsafe() {
        // A parse error at the rule, carrying the safety violation.
        let (message, offset) = parse_error("t(X) :- !e(X,X).");
        assert_eq!(offset, 0);
        assert!(message.starts_with("unsafe query: "), "{message}");
    }

    #[test]
    fn parse_fo_and_eval() {
        let q = parse_fo_query("(X, Z) <- exists Y . e(X,Y) & e(Y,Z)").unwrap();
        let out = q.eval(&db()).unwrap();
        assert!(out.contains(&tuple![1, 3]));
    }

    #[test]
    fn parse_fo_sentence() {
        let q = parse_fo_query("() <- !exists X . s(X)").unwrap();
        assert_eq!(q.arity(), 0);
        assert!(!q.eval(&db()).unwrap().as_bool());
    }

    #[test]
    fn fo_precedence_and_parens() {
        // & binds tighter than |
        let f = parse_formula("s(X) & e(X,Y) | e(Y,X)").unwrap();
        match f {
            Formula::Or(parts) => assert_eq!(parts.len(), 2),
            other => panic!("expected Or, got {other:?}"),
        }
        let g = parse_formula("s(X) & (e(X,Y) | e(Y,X))").unwrap();
        match g {
            Formula::And(parts) => assert_eq!(parts.len(), 2),
            other => panic!("expected And, got {other:?}"),
        }
    }

    #[test]
    fn fo_forall_and_implication_encoding() {
        let q = parse_fo_query("() <- forall X . !s(X) | exists Y . e(X,Y)").unwrap();
        assert!(q.eval(&db()).unwrap().as_bool());
    }

    #[test]
    fn fo_equalities() {
        let q = parse_fo_query("(X, Y) <- e(X,Y) & X = Y").unwrap();
        assert!(q.eval(&db()).unwrap().is_empty());
        let q2 = parse_fo_query("(X) <- s(X) & X != 2").unwrap();
        assert!(q2.eval(&db()).unwrap().is_empty());
    }

    #[test]
    fn fo_free_var_validation_via_parser() {
        assert!(matches!(
            parse_fo_query("(X) <- e(X,Y)"),
            Err(EvalError::Unsafe { .. })
        ));
    }

    #[test]
    fn fo_trailing_garbage_rejected() {
        assert!(parse_fo_query("(X) <- s(X) s(X)").is_err());
        assert!(parse_formula("s(X) extra").is_err());
    }

    #[test]
    fn nullary_atoms_in_fo() {
        let f = parse_formula("ready & !done").unwrap();
        let rels = f.relations();
        assert!(rels.contains(&"ready".into()));
        assert!(rels.contains(&"done".into()));
    }

    #[test]
    fn quoted_symbols_lex() {
        let p = parse_program("q(X) :- lab(X, 'hello world').").unwrap();
        assert_eq!(p.rules().len(), 1);
        assert!(parse_program("q(X) :- lab(X, 'unterminated.").is_err());
    }

    #[test]
    fn negative_integers() {
        let p = parse_program("q(X) :- v(X, -5).").unwrap();
        assert_eq!(p.rules().len(), 1);
    }
}
