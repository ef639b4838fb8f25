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
//! This is `rtx-query`'s rule grammar ([`parse_rules`]) with the
//! `@next`/`@async` annotations and the `now` keyword, so its lexer,
//! conventions and error offsets are Datalog's: variables start
//! uppercase or `_`; constants are integers, `'quoted'` symbols, or
//! lowercase identifiers; negation is `!`; nonequality `X != Y`;
//! comments start with `%` or `#`. `now` is the time variable wherever
//! a term is expected, and an ordinary name elsewhere.

use crate::ast::{DRule, DTime, DedalusProgram, NOW};
use rtx_query::parser::{parse_rules, RuleSyntax};
use rtx_query::{EvalError, Literal};

/// The timing annotations, with the class each one selects.
const TIMINGS: [(&str, DTime); 2] = [("next", DTime::Next), ("async", DTime::Async)];

/// Parse a Dedalus program. A rule whose Datalog translation
/// [`rtx_query::Rule::new`] rejects is a parse error at the rule's
/// offset, as in `rtx_query::parser::parse_program`.
pub fn parse_dedalus(src: &str) -> Result<DedalusProgram, EvalError> {
    let timings = TIMINGS.map(|(word, _)| word);
    let rules = parse_rules(src, &timings, Some(NOW))?;
    DedalusProgram::new(rules.into_iter().map(d_rule).collect()).map_err(|e| {
        // Only a failed parse pays for finding the rule: the source
        // parsed once, so it parses again.
        let rules = parse_rules(src, &timings, Some(NOW)).unwrap_or_default();
        let rejected = rules.into_iter().find_map(|r| {
            let offset = r.offset;
            let message = d_rule(r).translate().err()?.to_string();
            Some(EvalError::Parse { message, offset })
        });
        rejected.unwrap_or(e)
    })
}

/// The Dedalus rule a parsed rule spells.
fn d_rule(r: RuleSyntax) -> DRule {
    let timing = r.annotation.map_or(DTime::Same, |i| TIMINGS[i].1);
    let rule = r
        .body
        .into_iter()
        .fold(DRule::new(r.head, timing), |rule, l| match l {
            Literal::Pos(a) => rule.when(a),
            Literal::Neg(a) => rule.unless(a),
            Literal::Diseq(x, y) => rule.distinct(x, y),
        });
    if r.uses_keyword {
        rule.with_time_var(NOW)
    } else {
        rule
    }
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
        // A rule whose translation is unsafe is reported at its first
        // token, as Datalog's parser reports it.
        assert_eq!(
            parse_error("a(X) :- b(X). t(X) :- !e(X,X)."),
            (
                "unsafe query: head variable X is not bound by a positive atom \
                 in `t(X) ← ¬e(X,X)`"
                    .to_string(),
                14
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
