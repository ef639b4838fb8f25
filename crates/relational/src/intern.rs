//! The process-wide value interner: symbols and big integers become
//! `u32` ids, so equality is an integer compare, hashing never touches
//! string bytes, and columnar relation storage can hold flat `Vec<Vid>`
//! columns instead of boxed values.
//!
//! # Determinism
//!
//! Interner ids are assigned in first-intern order, which depends on
//! program execution history — so **nothing downstream may order by
//! id**. Every comparison exposed here ([`Symbol::cmp`], [`Vid::cmp_structural`])
//! is *structural*: integers numerically, symbols by their string, all
//! integers before all symbols — exactly the order [`crate::Value`] has
//! always had. Two processes with arbitrarily different interner
//! histories therefore produce bit-identical sorted relations, which
//! `tests/storage.rs` checks explicitly.
//!
//! # Concurrency
//!
//! Interning (the write path) takes one of a fixed set of sharded
//! mutexes; each shard's forward map is a hash map keyed by the leaked
//! text, so interning a name costs O(1) however many names came before
//! (big integers share one hash map under one mutex). The maps are only
//! ever probed, never iterated, so their order reaches nothing.
//! Resolution (the read path, hit on every symbol compare and every
//! columnar row materialization) is lock-free: ids index into
//! append-only chunked tables whose slots are `OnceLock`s, so a reader
//! never blocks on a writer.

use std::collections::HashMap;
use std::fmt;
use std::sync::{LazyLock, Mutex, OnceLock};

/// Number of doubling chunks in an append-only table: chunk `k` holds
/// `64 << k` slots, for a total capacity beyond `2^30` ids.
const CHUNKS: usize = 25;
/// Shard count for the symbol forward map.
const SHARDS: usize = 16;

/// An append-only, lock-free-readable table: slot `i` is written once
/// (under the interner's shard lock) and read any number of times.
struct AppendTable<T> {
    chunks: [OnceLock<Box<[OnceLock<T>]>>; CHUNKS],
}

impl<T> AppendTable<T> {
    const fn new() -> Self {
        AppendTable {
            chunks: [const { OnceLock::new() }; CHUNKS],
        }
    }

    /// Chunk index and offset for slot `i`: chunk `k` covers the
    /// `64 << k` slots starting at `64 * (2^k - 1)`.
    fn locate(i: u32) -> (usize, usize) {
        let n = (i / 64) + 1;
        let k = (31 - n.leading_zeros()) as usize;
        let start = 64 * ((1u32 << k) - 1);
        (k, (i - start) as usize)
    }

    fn slot(&self, i: u32) -> &OnceLock<T> {
        let (k, off) = Self::locate(i);
        let chunk = self.chunks[k].get_or_init(|| {
            let size = 64usize << k;
            let mut v = Vec::with_capacity(size);
            v.resize_with(size, OnceLock::new);
            v.into_boxed_slice()
        });
        &chunk[off]
    }

    /// Read slot `i`, which must have been published by a completed
    /// intern call.
    fn get(&self, i: u32) -> &T {
        self.slot(i).get().expect("interner id never published")
    }

    /// Write slot `i` exactly once (caller holds the shard lock).
    fn set(&self, i: u32, value: T) {
        if self.slot(i).set(value).is_err() {
            unreachable!("interner slot written twice");
        }
    }
}

/// The global symbol interner: forward maps sharded by string hash,
/// one shared reverse table indexed by id. The maps keep std's
/// randomly keyed hasher (names come from outside the program), so they
/// are built on first use.
struct SymInterner {
    shards: LazyLock<[Mutex<HashMap<&'static str, u32>>; SHARDS]>,
    table: AppendTable<&'static str>,
    next: Mutex<u32>,
}

static SYMS: SymInterner = SymInterner {
    shards: LazyLock::new(|| std::array::from_fn(|_| Mutex::new(HashMap::new()))),
    table: AppendTable::new(),
    next: Mutex::new(0),
};

/// Big integers (outside [`Vid`]'s inline range) interned to ids.
struct IntInterner {
    map: LazyLock<Mutex<HashMap<i64, u32>>>,
    table: AppendTable<i64>,
}

static BIGINTS: IntInterner = IntInterner {
    map: LazyLock::new(|| Mutex::new(HashMap::new())),
    table: AppendTable::new(),
};

fn shard_of(s: &str) -> usize {
    // FNV-1a over the bytes; only used to pick a shard.
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    (h as usize) % SHARDS
}

/// An interned string: a `u32` id whose text lives for the life of the
/// process.
///
/// Equality and hashing use the id (interning is canonical, so id
/// equality coincides with string equality); **ordering is by string**,
/// so sorted containers keep the deterministic lexicographic order the
/// kernel has always guaranteed, independent of intern history.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Symbol(u32);

impl Symbol {
    /// Intern a string (idempotent: equal strings yield equal ids).
    pub fn new(s: impl AsRef<str>) -> Self {
        let s = s.as_ref();
        let mut shard = SYMS.shards[shard_of(s)]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if let Some(&id) = shard.get(s) {
            return Symbol(id);
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let id = {
            let mut next = SYMS.next.lock().unwrap_or_else(|e| e.into_inner());
            let id = *next;
            assert!(id < 1 << 30, "symbol interner exhausted");
            *next += 1;
            id
        };
        SYMS.table.set(id, leaked);
        shard.insert(leaked, id);
        Symbol(id)
    }

    /// The interned text.
    pub fn as_str(self) -> &'static str {
        SYMS.table.get(self.0)
    }

    /// The raw interner id (stable within a process only — never use it
    /// for ordering or cross-process identity).
    pub fn id(self) -> u32 {
        self.0
    }
}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Symbol {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.0 == other.0 {
            std::cmp::Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl std::ops::Deref for Symbol {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for Symbol {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// Inline integer range: `[-2^30, 2^30)` encodes directly into the id
/// with its order preserved; anything outside goes through [`BIGINTS`].
const SMALL_BIAS: i64 = 1 << 30;
const SMALL_MAX_RAW: u32 = (1 << 31) - 1;
/// Tag for interned big integers (bit 31 set, bit 30 clear).
const BIG_TAG: u32 = 0x8000_0000;
/// Tag for symbols (bits 31 and 30 set) — numerically above every
/// integer encoding, matching `Int < Sym` structurally.
const SYM_TAG: u32 = 0xC000_0000;
const PAYLOAD: u32 = 0x3FFF_FFFF;

fn intern_big(i: i64) -> u32 {
    let mut map = BIGINTS.map.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(&id) = map.get(&i) {
        return id;
    }
    let id = map.len() as u32;
    assert!(id <= PAYLOAD, "big-int interner exhausted");
    BIGINTS.table.set(id, i);
    map.insert(i, id);
    id
}

/// A packed value id: the unit of columnar relation storage.
///
/// Layout (`u32`):
/// * `0x0000_0000..=0x7FFF_FFFF` — an integer in `[-2^30, 2^30)`,
///   stored biased so the *numeric* order is the raw `u32` order;
/// * `0x8000_0000..=0xBFFF_FFFF` — an interned big integer;
/// * `0xC000_0000..=0xFFFF_FFFF` — an interned symbol.
///
/// Equality is raw id equality (the encoding is canonical). Ordering is
/// structural ([`crate::Value`]'s order); the layout makes the common
/// cases a plain integer compare — two inline ints compare directly,
/// and symbols sit above every integer — so only comparisons involving
/// a big integer or two distinct symbols resolve through the tables.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Vid(u32);

impl Vid {
    /// Encode a value, interning as needed.
    pub fn from_value(v: &crate::Value) -> Vid {
        match *v {
            crate::Value::Int(i) => {
                if (-SMALL_BIAS..SMALL_BIAS).contains(&i) {
                    Vid((i + SMALL_BIAS) as u32)
                } else {
                    Vid(BIG_TAG | intern_big(i))
                }
            }
            crate::Value::Sym(s) => Vid(SYM_TAG | s.0),
        }
    }

    /// Decode back to a value. Cheap: inline ints are arithmetic,
    /// symbols are a tag strip; only big integers read a table.
    pub fn value(self) -> crate::Value {
        match self.0 >> 30 {
            0 | 1 => crate::Value::Int(self.0 as i64 - SMALL_BIAS),
            2 => crate::Value::Int(*BIGINTS.table.get(self.0 & PAYLOAD)),
            _ => crate::Value::Sym(Symbol(self.0 & PAYLOAD)),
        }
    }

    /// Structural comparison — identical to comparing the decoded
    /// [`crate::Value`]s, with integer-only fast paths.
    pub fn cmp_structural(self, other: Vid) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        if self.0 == other.0 {
            return Ordering::Equal;
        }
        let (a, b) = (self.0, other.0);
        if a <= SMALL_MAX_RAW && b <= SMALL_MAX_RAW {
            return a.cmp(&b); // two inline ints: biased order = numeric order
        }
        match ((a >= SYM_TAG), (b >= SYM_TAG)) {
            (true, true) => Symbol(a & PAYLOAD).cmp(&Symbol(b & PAYLOAD)),
            (true, false) => Ordering::Greater, // sym > any int
            (false, true) => Ordering::Less,
            (false, false) => {
                // at least one big int: resolve both numerically
                let ai = match a >> 30 {
                    2 => *BIGINTS.table.get(a & PAYLOAD),
                    _ => a as i64 - SMALL_BIAS,
                };
                let bi = match b >> 30 {
                    2 => *BIGINTS.table.get(b & PAYLOAD),
                    _ => b as i64 - SMALL_BIAS,
                };
                ai.cmp(&bi)
            }
        }
    }

    /// Compare against an un-encoded value without interning it.
    pub fn cmp_value(self, v: &crate::Value) -> std::cmp::Ordering {
        self.value().cmp(v)
    }

    /// The raw packed id (process-local).
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Does the raw id order agree with the structural order against
    /// every other raw-ordered id? True exactly for inline integers.
    pub fn raw_ordered(self) -> bool {
        self.0 <= SMALL_MAX_RAW
    }

    /// Rebuild from a raw id previously obtained via [`Vid::raw`].
    pub(crate) fn from_raw(raw: u32) -> Vid {
        Vid(raw)
    }
}

impl fmt::Debug for Vid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;
    use std::cmp::Ordering;

    #[test]
    fn symbols_are_canonical() {
        let a = Symbol::new("alpha");
        let b = Symbol::new("alpha");
        assert_eq!(a, b);
        assert_eq!(a.id(), b.id());
        assert_eq!(a.as_str(), "alpha");
        assert_ne!(Symbol::new("beta"), a);
    }

    #[test]
    fn symbol_order_is_lexicographic_not_id_order() {
        // Intern in reverse lexicographic order: ids disagree with
        // string order, comparison must follow the strings.
        let z = Symbol::new("zzz-order-test");
        let a = Symbol::new("aaa-order-test");
        assert_eq!(a.cmp(&z), Ordering::Less);
        assert_eq!(z.cmp(&a), Ordering::Greater);
    }

    #[test]
    fn vid_roundtrips_all_kinds() {
        for v in [
            Value::int(0),
            Value::int(-1),
            Value::int((1 << 30) - 1),
            Value::int(-(1 << 30)),
            Value::int(1 << 40),
            Value::int(-(1 << 40)),
            Value::int(i64::MAX),
            Value::int(i64::MIN),
            Value::sym("x"),
            Value::sym(""),
        ] {
            assert_eq!(Vid::from_value(&v).value(), v, "roundtrip of {v:?}");
        }
    }

    #[test]
    fn vid_order_matches_value_order() {
        let values = [
            Value::int(i64::MIN),
            Value::int(-(1 << 40)),
            Value::int(-3),
            Value::int(0),
            Value::int(7),
            Value::int(1 << 40),
            Value::int(i64::MAX),
            Value::sym("a"),
            Value::sym("b"),
            Value::sym("ba"),
        ];
        for x in &values {
            for y in &values {
                let (vx, vy) = (Vid::from_value(x), Vid::from_value(y));
                assert_eq!(vx.cmp_structural(vy), x.cmp(y), "{x:?} vs {y:?}");
                assert_eq!(vx.cmp_value(y), x.cmp(y));
            }
        }
    }

    #[test]
    fn vid_equality_is_canonical() {
        let a = Vid::from_value(&Value::int(1 << 45));
        let b = Vid::from_value(&Value::int(1 << 45));
        assert_eq!(a, b);
        assert_eq!(a.raw(), b.raw());
    }

    #[test]
    fn append_table_locate_is_contiguous() {
        let mut expected = 0u32;
        for k in 0..6usize {
            for off in 0..(64usize << k) {
                assert_eq!(AppendTable::<u8>::locate(expected), (k, off));
                expected += 1;
            }
        }
    }

    /// A fixed-seed xorshift stream, so the tests below need no RNG crate.
    fn xorshift(mut x: u64) -> impl Iterator<Item = u64> {
        std::iter::from_fn(move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            Some(x)
        })
    }

    #[test]
    fn interning_twenty_thousand_names_twice_gives_equal_ids() {
        let names: Vec<String> = (0..20_000).map(|i| format!("bulk-intern-{i}")).collect();
        let first: Vec<u32> = names.iter().map(|n| Symbol::new(n).id()).collect();
        let second: Vec<u32> = names.iter().map(|n| Symbol::new(n).id()).collect();
        assert_eq!(first, second);
        let distinct: std::collections::HashSet<u32> = first.iter().copied().collect();
        assert_eq!(distinct.len(), names.len(), "distinct names, distinct ids");
        for (n, &id) in names.iter().zip(&first) {
            assert_eq!(Symbol(id).as_str(), n);
        }
    }

    #[test]
    fn symbol_order_is_string_order_on_random_pairs() {
        let mut rng = xorshift(0x9e37_79b9_7f4a_7c15);
        let mut word = || {
            let len = (rng.next().unwrap() % 6) as usize;
            (0..len)
                .map(|_| (b'a' + (rng.next().unwrap() % 4) as u8) as char)
                .collect::<String>()
        };
        for _ in 0..2_000 {
            let (a, b) = (word(), word());
            // Intern in either order, so ids disagree with string order
            // about half the time.
            let (sa, sb) = (Symbol::new(&a), Symbol::new(&b));
            assert_eq!(sa.cmp(&sb), a.cmp(&b), "{a:?} vs {b:?}");
            assert_eq!(sa == sb, a == b);
        }
    }

    #[test]
    fn big_integers_round_trip() {
        let bigs: Vec<i64> = xorshift(42)
            .take(5_000)
            .map(|x| (x as i64) | (1 << 40))
            .chain([i64::MIN, i64::MAX, -(1 << 30) - 1, 1 << 30])
            .collect();
        let first: Vec<Vid> = bigs
            .iter()
            .map(|&i| Vid::from_value(&Value::int(i)))
            .collect();
        for (&i, &v) in bigs.iter().zip(&first) {
            assert_eq!(v.value(), Value::int(i));
            assert_eq!(Vid::from_value(&Value::int(i)), v, "re-interning {i}");
        }
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                std::thread::spawn(move || {
                    (0..64)
                        .map(|i| Symbol::new(format!("conc-{}", (t + i) % 16)).id())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let ids: Vec<Vec<u32>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Same string → same id, across every thread.
        for (t, thread_ids) in ids.iter().enumerate() {
            for (i, &id) in thread_ids.iter().enumerate() {
                let name = format!("conc-{}", (t + i) % 16);
                assert_eq!(Symbol::new(&name).id(), id);
            }
        }
    }
}
