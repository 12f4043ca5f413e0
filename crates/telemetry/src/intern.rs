//! Process-wide interners for metric names and label sets.
//!
//! The hot recording path never wants to touch strings: a metric is
//! identified by a [`NameKey`] and a [`LabelKey`] — small, copyable
//! symbols minted once per distinct string/label-set and stable for the
//! life of the process. The string tables behind them are only read
//! back at export/scrape time ([`resolve_name`], [`resolve_labels`]),
//! so registries can key their shards by `(NameKey, LabelKey)` and
//! compare/hash two machine words instead of heap data.
//!
//! Interning is global (one table per process, shared by every
//! [`crate::MetricsRegistry`]): the vocabulary is tiny — metric names
//! and `(proxy, method, platform)` triples — so sharing maximises
//! symbol reuse across the thousands of per-device registries a fleet
//! run creates, and a symbol minted through one registry stays valid in
//! every other.
//!
//! Span records use a third table, `Sym`: every `&'static str` a span
//! carries (its name, attribute keys and static values, event names)
//! becomes a 16-bit symbol, so a record stores two bytes per string
//! instead of a 16-byte fat pointer.

use std::collections::HashMap;
use std::sync::{LazyLock, OnceLock};

use parking_lot::RwLock;

use crate::metrics::Labels;

/// Interned metric name. Copyable, two words of lookup on the cold
/// path, zero strings on the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NameKey(u32);

impl NameKey {
    /// The raw table index, for shard selection.
    pub fn index(self) -> u32 {
        self.0
    }
}

/// Interned canonical label set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LabelKey(u32);

impl LabelKey {
    /// The raw table index, for shard selection.
    pub fn index(self) -> u32 {
        self.0
    }
}

/// A symbol table: values are append-only, symbols are indices.
struct Table<T> {
    index: HashMap<T, u32>,
    values: Vec<T>,
}

impl<T: Clone + Eq + std::hash::Hash> Table<T> {
    fn new() -> Self {
        Self {
            index: HashMap::new(),
            values: Vec::new(),
        }
    }

    fn intern(&mut self, value: &T) -> u32 {
        if let Some(&symbol) = self.index.get(value) {
            return symbol;
        }
        // Infallible in practice: each symbol is a *distinct* metric
        // name or label set, and 2^32 of those would exhaust memory
        // long before this conversion could fail. Panicking (rather
        // than silently aliasing symbols) is the correct response to a
        // label-cardinality explosion of that magnitude.
        let symbol = u32::try_from(self.values.len()).expect("interner overflow");
        self.values.push(value.clone());
        self.index.insert(value.clone(), symbol);
        symbol
    }
}

static NAMES: LazyLock<RwLock<Table<String>>> = LazyLock::new(|| RwLock::new(Table::new()));
static LABEL_SETS: LazyLock<RwLock<Table<Labels>>> = LazyLock::new(|| RwLock::new(Table::new()));

/// Interns a metric name, minting a symbol on first sight. The fast
/// path (already interned) takes a read lock and allocates nothing.
pub fn intern_name(name: &str) -> NameKey {
    if let Some(&symbol) = NAMES.read().index.get(name) {
        return NameKey(symbol);
    }
    NameKey(NAMES.write().intern(&name.to_owned()))
}

/// Looks a name up without interning it; `None` if never seen.
pub fn lookup_name(name: &str) -> Option<NameKey> {
    NAMES.read().index.get(name).copied().map(NameKey)
}

/// The string behind a [`NameKey`].
///
/// # Panics
///
/// Panics on a key that was never minted by [`intern_name`] — keys are
/// process-global and never freed, so this is a programming error.
pub fn resolve_name(key: NameKey) -> String {
    NAMES.read().values[key.0 as usize].clone()
}

/// Interns a canonical label set. The fast path (already interned)
/// takes a read lock and allocates nothing.
pub fn intern_labels(labels: &Labels) -> LabelKey {
    if let Some(&symbol) = LABEL_SETS.read().index.get(labels) {
        return LabelKey(symbol);
    }
    LabelKey(LABEL_SETS.write().intern(labels))
}

/// Looks a label set up without interning it; `None` if never seen.
pub fn lookup_labels(labels: &Labels) -> Option<LabelKey> {
    LABEL_SETS.read().index.get(labels).copied().map(LabelKey)
}

/// The label set behind a [`LabelKey`].
///
/// # Panics
///
/// Panics on a key that was never minted by [`intern_labels`].
pub fn resolve_labels(key: LabelKey) -> Labels {
    LABEL_SETS.read().values[key.0 as usize].clone()
}

/// A `&'static str` as a 16-bit symbol, minted on first sight and
/// stable for the life of the process.
///
/// The fast path is lock-free: the string's address and length hash to
/// a slot of a fixed table, and a slot already holding that very string
/// (compared by address and length, never by content) is the symbol.
/// An empty slot is claimed once and for all. A string whose probe
/// window is taken by others falls back to a locked content-keyed
/// table, so minting never fails short of 65,536 distinct strings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Sym(u16);

/// Slots of the lock-free table; the span vocabulary is a few hundred
/// strings.
const SYM_SLOTS: usize = 4096;

/// Slots probed before a string takes the locked fallback.
const SYM_PROBES: usize = 32;

static SYMS: [OnceLock<&'static str>; SYM_SLOTS] = [const { OnceLock::new() }; SYM_SLOTS];

/// Strings whose probe window was full: symbols `SYM_SLOTS` and up.
static SYM_OVERFLOW: LazyLock<RwLock<Table<&'static str>>> =
    LazyLock::new(|| RwLock::new(Table::new()));

impl Sym {
    /// The symbol of `s`.
    ///
    /// # Panics
    ///
    /// Panics once 65,536 distinct strings have been minted, the same
    /// cardinality failure as [`intern_name`]'s overflow.
    #[inline]
    pub(crate) fn of(s: &'static str) -> Sym {
        let key = (s.as_ptr() as usize as u64) ^ ((s.len() as u64) << 48);
        let start = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 52) as usize;
        match SYMS[start].get() {
            Some(held) if std::ptr::eq(*held, s) => Sym(start as u16),
            _ => Self::probe(s, start),
        }
    }

    /// The rest of [`Sym::of`]: claims an empty slot or probes past the
    /// home slot `start`, then falls back to the locked table.
    #[cold]
    fn probe(s: &'static str, start: usize) -> Sym {
        for probe in 0..SYM_PROBES {
            let slot = (start + probe) % SYM_SLOTS;
            if std::ptr::eq(*SYMS[slot].get_or_init(|| s), s) {
                return Sym(slot as u16);
            }
        }
        let symbol = SYM_OVERFLOW.write().intern(&s) as usize + SYM_SLOTS;
        Sym(u16::try_from(symbol).expect("span symbol overflow"))
    }

    /// The string behind the symbol.
    #[inline]
    pub(crate) fn as_str(self) -> &'static str {
        let index = usize::from(self.0);
        match SYMS.get(index) {
            Some(slot) => slot.get().copied().unwrap_or_default(),
            None => Self::overflowed(index),
        }
    }

    #[cold]
    fn overflowed(index: usize) -> &'static str {
        SYM_OVERFLOW.read().values[index - SYM_SLOTS]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One test, because filling the lock-free table changes where every
    /// later string lands.
    #[test]
    fn static_symbols_resolve_to_their_string_past_a_full_table() {
        let a = Sym::of("intern_test_span_a");
        assert_eq!(a, Sym::of("intern_test_span_a"));
        assert_eq!(a.as_str(), "intern_test_span_a");
        let copy: &'static str = Box::leak(String::from("intern_test_span_a").into_boxed_str());
        let b = Sym::of(copy);
        assert_ne!(a, b, "the lock-free table keys by address, not content");
        assert!(std::ptr::eq(b.as_str(), copy));

        let leaked: Vec<&'static str> = (0..SYM_SLOTS + 64)
            .map(|i| &*Box::leak(format!("intern_test_sym_{i}").into_boxed_str()))
            .collect();
        let symbols: Vec<Sym> = leaked.iter().map(|s| Sym::of(s)).collect();
        assert!(symbols.iter().any(|sym| usize::from(sym.0) >= SYM_SLOTS));
        for (sym, s) in symbols.iter().zip(&leaked) {
            assert_eq!(sym.as_str(), *s);
        }
        assert_eq!(Sym::of("intern_test_span_a"), a);
    }

    #[test]
    fn interning_is_idempotent_and_resolves_back() {
        let a = intern_name("proxy_calls_total");
        let b = intern_name("proxy_calls_total");
        assert_eq!(a, b);
        assert_eq!(resolve_name(a), "proxy_calls_total");
        assert_eq!(lookup_name("proxy_calls_total"), Some(a));

        let labels = Labels::call("Location", "getLocation", "android");
        let k1 = intern_labels(&labels);
        let k2 = intern_labels(&Labels::call("Location", "getLocation", "android"));
        assert_eq!(k1, k2);
        assert_eq!(resolve_labels(k1), labels);
        assert_eq!(lookup_labels(&labels), Some(k1));
    }

    #[test]
    fn distinct_values_get_distinct_symbols() {
        let a = intern_name("intern_test_metric_a");
        let b = intern_name("intern_test_metric_b");
        assert_ne!(a, b);
        let la = intern_labels(&Labels::new(&[("intern_test", "a")]));
        let lb = intern_labels(&Labels::new(&[("intern_test", "b")]));
        assert_ne!(la, lb);
        assert_eq!(lookup_labels(&Labels::new(&[("intern_test", "c")])), None);
    }
}
