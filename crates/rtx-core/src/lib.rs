//! # rtx-core — tiny cross-crate utilities
//!
//! The one thing every crate in this workspace kept reimplementing was
//! `RTX_*` environment-variable parsing, each copy with its own error
//! message and its own silent-fallback bugs. This crate centralizes it:
//! every override (`RTX_TRACE`, `RTX_PROPTEST_CASES`,
//! `RTX_PROPTEST_SEED`, `RTX_BENCH_JSON`, `RTX_CHAOS_SEED`, …) goes
//! through [`mod@env`], so a typo'd value always produces the same loud,
//! uniform warning instead of silently running the wrong
//! configuration — which matters doubly for the chaos
//! subsystem, where a mis-parsed seed would "replay" a different run.
//!
//! It also hosts [`mix`], the pure splitmix64 fold every seeded fault
//! decision in the workspace derives from — one definition, so the
//! replay-determinism story cannot silently fork between crates.

#![warn(missing_docs)]

/// Pure splitmix64-style mixing, the decision function of the chaos
/// layer: every fault fate (message delay, duplication, crash window,
/// async timestamp) is `mix::fold` of a seed and the decision
/// coordinates, never a draw from a mutable RNG stream — which is what
/// makes any faulted run exactly reproducible from its plan and seed.
pub mod mix {
    /// Fold the parts into one splitmix64 draw. Deterministic across
    /// platforms and builds; changing this function invalidates every
    /// recorded `(plan, seed)` replay, so don't.
    pub fn fold(parts: &[u64]) -> u64 {
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for &p in parts {
            x ^= p.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = x.rotate_left(27).wrapping_mul(0x94d0_49bb_1331_11eb);
        }
        // splitmix64 finalizer
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }
}

/// Environment-variable parsing with uniform diagnostics.
///
/// All readers share two conventions:
///
/// * **unset or empty ⇒ `None`** — an empty string behaves like the
///   variable being absent, so `RTX_FOO= cargo test` disables an
///   override instead of tripping a parse warning;
/// * **set but unparsable ⇒ `None` + one loud warning** on stderr, in
///   the fixed shape `warning: ignoring unparsable NAME="VALUE" (want
///   WHAT)` — never a silent fallback.
pub mod env {
    /// The raw value of `name`, trimmed; `None` when unset or empty.
    pub fn raw(name: &str) -> Option<String> {
        match std::env::var(name) {
            Ok(v) => {
                let t = v.trim();
                if t.is_empty() {
                    None
                } else {
                    Some(t.to_string())
                }
            }
            Err(_) => None,
        }
    }

    /// Emit the uniform unparsable-value warning.
    pub fn warn_unparsable(name: &str, value: &str, want: &str) {
        eprintln!("warning: ignoring unparsable {name}={value:?} (want {want})");
    }

    /// Parse `name` as a `u64`, accepting decimal or `0x`-prefixed hex
    /// (seeds are conventionally reported in hex).
    pub fn parse_u64(name: &str) -> Option<u64> {
        let v = raw(name)?;
        let parsed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => v.parse(),
        };
        match parsed {
            Ok(n) => Some(n),
            Err(_) => {
                warn_unparsable(name, &v, "decimal or 0x-hex");
                None
            }
        }
    }

    /// Parse `name` as a `usize` (decimal).
    pub fn parse_usize(name: &str) -> Option<usize> {
        let v = raw(name)?;
        match v.parse::<usize>() {
            Ok(n) => Some(n),
            Err(_) => {
                warn_unparsable(name, &v, "a nonnegative integer");
                None
            }
        }
    }

    /// Parse `name` as a positive (`>= 1`) `usize` — thread counts,
    /// case counts, run counts.
    pub fn parse_positive_usize(name: &str) -> Option<usize> {
        let v = raw(name)?;
        match v.parse::<usize>() {
            Ok(n) if n >= 1 => Some(n),
            _ => {
                warn_unparsable(name, &v, "a positive integer");
                None
            }
        }
    }

    /// Parse `name` through a domain-specific `parse` function (e.g. an
    /// enum's name parser); `expected` describes the accepted values
    /// for the warning.
    pub fn parse_choice<T>(
        name: &str,
        expected: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Option<T> {
        let v = raw(name)?;
        match parse(&v) {
            Some(t) => Some(t),
            None => {
                warn_unparsable(name, &v, expected);
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{env, mix};

    #[test]
    fn mix_is_pure_and_sensitive() {
        assert_eq!(mix::fold(&[1, 2, 3]), mix::fold(&[1, 2, 3]));
        assert_ne!(mix::fold(&[1, 2, 3]), mix::fold(&[1, 2, 4]));
        assert_ne!(mix::fold(&[1, 2, 3]), mix::fold(&[3, 2, 1]));
        assert_ne!(mix::fold(&[]), mix::fold(&[0]));
    }
    use std::sync::{Mutex, MutexGuard};

    /// Env vars are process-global: serialize the tests that set them.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    fn with_var(name: &str, value: Option<&str>) -> MutexGuard<'static, ()> {
        let guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        match value {
            Some(v) => std::env::set_var(name, v),
            None => std::env::remove_var(name),
        }
        guard
    }

    #[test]
    fn raw_treats_empty_as_unset() {
        let _g = with_var("RTX_CORE_TEST_RAW", Some("  "));
        assert_eq!(env::raw("RTX_CORE_TEST_RAW"), None);
        std::env::set_var("RTX_CORE_TEST_RAW", " x ");
        assert_eq!(env::raw("RTX_CORE_TEST_RAW").as_deref(), Some("x"));
        std::env::remove_var("RTX_CORE_TEST_RAW");
    }

    #[test]
    fn parse_u64_accepts_hex_and_decimal() {
        let _g = with_var("RTX_CORE_TEST_U64", Some("0x5EED"));
        assert_eq!(env::parse_u64("RTX_CORE_TEST_U64"), Some(0x5EED));
        std::env::set_var("RTX_CORE_TEST_U64", "42");
        assert_eq!(env::parse_u64("RTX_CORE_TEST_U64"), Some(42));
        std::env::set_var("RTX_CORE_TEST_U64", "nope");
        assert_eq!(env::parse_u64("RTX_CORE_TEST_U64"), None);
        std::env::remove_var("RTX_CORE_TEST_U64");
    }

    #[test]
    fn parse_positive_usize_rejects_zero() {
        let _g = with_var("RTX_CORE_TEST_POS", Some("0"));
        assert_eq!(env::parse_positive_usize("RTX_CORE_TEST_POS"), None);
        std::env::set_var("RTX_CORE_TEST_POS", "3");
        assert_eq!(env::parse_positive_usize("RTX_CORE_TEST_POS"), Some(3));
        std::env::remove_var("RTX_CORE_TEST_POS");
    }

    #[test]
    fn parse_choice_maps_through_domain_parser() {
        let _g = with_var("RTX_CORE_TEST_CHOICE", Some("b"));
        let parse = |s: &str| match s {
            "a" => Some(1),
            "b" => Some(2),
            _ => None,
        };
        assert_eq!(
            env::parse_choice("RTX_CORE_TEST_CHOICE", "a or b", parse),
            Some(2)
        );
        std::env::set_var("RTX_CORE_TEST_CHOICE", "z");
        assert_eq!(
            env::parse_choice("RTX_CORE_TEST_CHOICE", "a or b", parse),
            None
        );
        std::env::remove_var("RTX_CORE_TEST_CHOICE");
    }

    #[test]
    fn unset_is_none_for_all_parsers() {
        let _g = with_var("RTX_CORE_TEST_UNSET", None);
        assert_eq!(env::raw("RTX_CORE_TEST_UNSET"), None);
        assert_eq!(env::parse_u64("RTX_CORE_TEST_UNSET"), None);
        assert_eq!(env::parse_usize("RTX_CORE_TEST_UNSET"), None);
        assert_eq!(env::parse_positive_usize("RTX_CORE_TEST_UNSET"), None);
    }
}
