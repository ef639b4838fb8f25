//! Query evaluation errors.

use rtx_relational::{RelError, RelName};
use std::fmt;

/// Errors raised while validating or evaluating queries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EvalError {
    /// Underlying kernel error (unknown relation, arity clash, …).
    Rel(RelError),
    /// A rule or formula is unsafe (e.g. a head or negated variable not
    /// bound by a positive atom).
    Unsafe {
        /// Human-readable reason.
        reason: String,
    },
    /// A Datalog program is not stratifiable (recursion through negation).
    NotStratifiable {
        /// A predicate on a negative cycle.
        pred: RelName,
    },
    /// A while-program exceeded its step budget.
    Diverged {
        /// The budget that was exhausted.
        fuel: usize,
    },
    /// A run was given a zero budget of the resource it counts, so it
    /// would have no result (a Dedalus run with `max_ticks == 0`).
    ZeroBudget {
        /// The name of the budget.
        budget: &'static str,
    },
    /// A parse error with position information.
    Parse {
        /// Human-readable message.
        message: String,
        /// Byte offset in the source.
        offset: usize,
    },
    /// Anything else (native queries may fail arbitrarily).
    Other(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Rel(e) => write!(f, "{e}"),
            EvalError::Unsafe { reason } => write!(f, "unsafe query: {reason}"),
            EvalError::NotStratifiable { pred } => {
                write!(
                    f,
                    "program is not stratifiable: `{pred}` depends negatively on itself"
                )
            }
            EvalError::Diverged { fuel } => {
                write!(f, "while-program exceeded its step budget of {fuel}")
            }
            EvalError::ZeroBudget { budget } => {
                write!(f, "`{budget}` is 0: a run needs a budget of at least 1")
            }
            EvalError::Parse { message, offset } => {
                write!(f, "parse error at byte {offset}: {message}")
            }
            EvalError::Other(s) => write!(f, "{s}"),
        }
    }
}

impl std::error::Error for EvalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EvalError::Rel(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RelError> for EvalError {
    fn from(e: RelError) -> Self {
        EvalError::Rel(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        assert!(EvalError::Unsafe {
            reason: "x free".into()
        }
        .to_string()
        .contains("unsafe"));
        assert!(EvalError::NotStratifiable { pred: "p".into() }
            .to_string()
            .contains("stratifiable"));
        assert!(EvalError::Diverged { fuel: 10 }.to_string().contains("10"));
        assert!(EvalError::ZeroBudget {
            budget: "max_ticks"
        }
        .to_string()
        .contains("`max_ticks` is 0"));
        assert!(EvalError::Parse {
            message: "oops".into(),
            offset: 3
        }
        .to_string()
        .contains("byte 3"));
        let rel: EvalError = RelError::NotInjective.into();
        assert!(rel.to_string().contains("injective"));
    }
}
