//! Order-preserving key codecs: the typed front door to the sort engines.
//!
//! Every engine in this workspace sorts one of two physical domains:
//!
//! * [`Value`] — a 32-bit float key plus a 32-bit id (the paper's
//!   value/pointer pairs, Section 8 of Greß & Zachmann), ordered by
//!   `f32::total_cmp` then id; or
//! * [`WideRecord`] — a 10-byte lexicographic key plus a payload handle
//!   (the out-of-core TeraSort path).
//!
//! [`SortKey`] maps *logical* key types — signed integers, IEEE floats,
//! composite tuples, bounded strings — into those domains through an
//! order-isomorphic `u64` encoding, so a typed sort is exactly a `Value`
//! sort on the encoded bits. The codec laws every implementation obeys
//! (and that `tests/codec_laws.rs` property-checks) are:
//!
//! 1. **Round trip**: `K::decode(k.encode()) == k` for every key `k`
//!    (bit-exact, including float NaN payloads and `-0.0`).
//! 2. **Order isomorphism**: `a.encode() < b.encode()` ⇔ `a < b` under the
//!    key type's total order (`Ord` for integers and strings,
//!    `total_cmp` for floats).
//! 3. **Width**: `k.encode() < 2^BITS` whenever [`SortKey::BITS`] `< 64`,
//!    which is what lets composite tuples pack fields side by side.
//!
//! The encodings themselves are the classic tricks (see `docs/KEYS.md`):
//! sign-flip for two's-complement integers, the IEEE total-order bit
//! flip for floats, big-endian zero-padded bytes for bounded strings,
//! and lexicographic bit concatenation for tuples. Composite keys wider
//! than 64 bits implement [`WideKey`] instead and ride the
//! [`WideRecord`] domain.

use crate::batch::MIN_SEGMENT;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::marker::PhantomData;
use stream_arch::Value;
use terasort::record::KEY_BYTES;
use terasort::WideRecord;

/// Sign bit of a 32-bit word.
const SIGN_32: u32 = 0x8000_0000;
/// Sign bit of a 64-bit word.
const SIGN_64: u64 = 0x8000_0000_0000_0000;

// ---------------------------------------------------------------------------
// The trait
// ---------------------------------------------------------------------------

/// A key type with an order-preserving `u64` encoding.
///
/// See the [module docs](self) for the three codec laws. The encoding
/// *defines* a total order on the key type; for every built-in
/// implementation that order coincides with the natural one (`Ord` for
/// integers, `f32::total_cmp`/`f64::total_cmp` for floats, lexicographic
/// byte order for [`StrKey`], lexicographic field order for tuples).
pub trait SortKey: Copy + PartialEq + fmt::Debug + Send + Sync + 'static {
    /// Number of significant low bits in [`encode`](SortKey::encode)
    /// (≤ 64). Narrow keys compose into tuples as long as the widths sum
    /// to at most 64.
    const BITS: u32;

    /// Short human-readable codec name (diagnostics and bench labels).
    const NAME: &'static str;

    /// Encode into the order-isomorphic `u64` domain. The result is
    /// `< 2^BITS` when `BITS < 64`.
    fn encode(&self) -> u64;

    /// Invert [`encode`](SortKey::encode). Only defined on encoder
    /// outputs; arbitrary bit patterns outside the codec image (e.g. a
    /// value `≥ 2^BITS`) may decode to an arbitrary key.
    fn decode(encoded: u64) -> Self;

    /// The total order induced by the codec (compares encodings).
    #[inline]
    fn key_cmp(&self, other: &Self) -> Ordering {
        self.encode().cmp(&other.encode())
    }
}

// ---------------------------------------------------------------------------
// Scalar implementations
// ---------------------------------------------------------------------------

macro_rules! unsigned_sort_key {
    ($($t:ty => $bits:expr, $name:literal);+ $(;)?) => {$(
        impl SortKey for $t {
            const BITS: u32 = $bits;
            const NAME: &'static str = $name;
            #[inline]
            fn encode(&self) -> u64 {
                *self as u64
            }
            #[inline]
            fn decode(encoded: u64) -> Self {
                encoded as $t
            }
        }
    )+};
}

unsigned_sort_key! {
    u8  => 8,  "u8";
    u16 => 16, "u16";
    u32 => 32, "u32";
    u64 => 64, "u64";
}

macro_rules! signed_sort_key {
    ($($t:ty => $u:ty, $bits:expr, $name:literal);+ $(;)?) => {$(
        impl SortKey for $t {
            const BITS: u32 = $bits;
            const NAME: &'static str = $name;
            #[inline]
            fn encode(&self) -> u64 {
                // Two's-complement sign flip: XOR the sign bit so the
                // unsigned order of the result matches the signed order
                // of the input (i64::MIN -> 0, -1 -> 2^(B-1)-1, 0 ->
                // 2^(B-1), i64::MAX -> 2^B-1).
                ((*self as $u) ^ (1 << ($bits - 1))) as u64
            }
            #[inline]
            fn decode(encoded: u64) -> Self {
                ((encoded as $u) ^ (1 << ($bits - 1))) as $t
            }
        }
    )+};
}

signed_sort_key! {
    i8  => u8,  8,  "i8";
    i16 => u16, 16, "i16";
    i32 => u32, 32, "i32";
    i64 => u64, 64, "i64";
}

impl SortKey for bool {
    const BITS: u32 = 1;
    const NAME: &'static str = "bool";
    #[inline]
    fn encode(&self) -> u64 {
        *self as u64
    }
    #[inline]
    fn decode(encoded: u64) -> Self {
        encoded & 1 != 0
    }
}

impl SortKey for f32 {
    const BITS: u32 = 32;
    const NAME: &'static str = "f32";
    #[inline]
    fn encode(&self) -> u64 {
        // IEEE total-order flip: negative floats have their bits
        // inverted (so more-negative sorts lower), non-negative floats
        // get the sign bit set (so they sort above every negative).
        // This is exactly `f32::total_cmp` as an unsigned comparison,
        // NaNs and ±0.0 included.
        let b = self.to_bits();
        let flipped = if b & SIGN_32 != 0 { !b } else { b | SIGN_32 };
        flipped as u64
    }
    #[inline]
    fn decode(encoded: u64) -> Self {
        let t = encoded as u32;
        let b = if t & SIGN_32 != 0 { t & !SIGN_32 } else { !t };
        f32::from_bits(b)
    }
}

impl SortKey for f64 {
    const BITS: u32 = 64;
    const NAME: &'static str = "f64";
    #[inline]
    fn encode(&self) -> u64 {
        let b = self.to_bits();
        if b & SIGN_64 != 0 {
            !b
        } else {
            b | SIGN_64
        }
    }
    #[inline]
    fn decode(encoded: u64) -> Self {
        let b = if encoded & SIGN_64 != 0 {
            encoded & !SIGN_64
        } else {
            !encoded
        };
        f64::from_bits(b)
    }
}

// ---------------------------------------------------------------------------
// Composite (tuple) keys — lexicographic bit concatenation
// ---------------------------------------------------------------------------

/// Extract `bits` bits of `encoded` starting at bit `shift` (LSB = 0).
#[inline]
fn take_bits(encoded: u64, shift: u32, bits: u32) -> u64 {
    let shifted = if shift >= 64 { 0 } else { encoded >> shift };
    if bits >= 64 {
        shifted
    } else {
        shifted & ((1u64 << bits) - 1)
    }
}

/// Append a field to a partial encoding (earlier fields end up in the
/// higher bits, giving lexicographic field order).
#[inline]
fn pack_field(acc: u64, field: u64, bits: u32) -> u64 {
    acc.checked_shl(bits).unwrap_or(0) | field
}

impl<A: SortKey, B: SortKey> SortKey for (A, B) {
    const BITS: u32 = {
        assert!(
            A::BITS + B::BITS <= 64,
            "composite key wider than 64 bits; use WideKey / WideRecord"
        );
        A::BITS + B::BITS
    };
    const NAME: &'static str = "tuple2";
    #[inline]
    fn encode(&self) -> u64 {
        let e = pack_field(0, self.0.encode(), A::BITS);
        pack_field(e, self.1.encode(), B::BITS)
    }
    #[inline]
    fn decode(encoded: u64) -> Self {
        (
            A::decode(take_bits(encoded, B::BITS, A::BITS)),
            B::decode(take_bits(encoded, 0, B::BITS)),
        )
    }
}

impl<A: SortKey, B: SortKey, C: SortKey> SortKey for (A, B, C) {
    const BITS: u32 = {
        assert!(
            A::BITS + B::BITS + C::BITS <= 64,
            "composite key wider than 64 bits; use WideKey / WideRecord"
        );
        A::BITS + B::BITS + C::BITS
    };
    const NAME: &'static str = "tuple3";
    #[inline]
    fn encode(&self) -> u64 {
        let e = pack_field(0, self.0.encode(), A::BITS);
        let e = pack_field(e, self.1.encode(), B::BITS);
        pack_field(e, self.2.encode(), C::BITS)
    }
    #[inline]
    fn decode(encoded: u64) -> Self {
        (
            A::decode(take_bits(encoded, B::BITS + C::BITS, A::BITS)),
            B::decode(take_bits(encoded, C::BITS, B::BITS)),
            C::decode(take_bits(encoded, 0, C::BITS)),
        )
    }
}

// ---------------------------------------------------------------------------
// Bounded strings
// ---------------------------------------------------------------------------

/// Error building a [`StrKey`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KeyError {
    /// The string is longer than [`StrKey::MAX_LEN`] bytes; use a
    /// [`StringDictionary`] instead.
    TooLong(usize),
    /// The string contains a NUL byte, which the zero-padding prefix
    /// codec cannot distinguish from end-of-string.
    EmbeddedNul,
}

impl fmt::Display for KeyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeyError::TooLong(n) => write!(
                f,
                "string of {n} bytes exceeds StrKey::MAX_LEN = {}; use a StringDictionary",
                StrKey::MAX_LEN
            ),
            KeyError::EmbeddedNul => write!(f, "string contains a NUL byte"),
        }
    }
}

impl std::error::Error for KeyError {}

/// A bounded string key: at most eight NUL-free bytes, encoded as the
/// big-endian zero-padded byte prefix so the `u64` order is exactly the
/// lexicographic byte order (`"a" < "ab" < "b"` because the pad byte `0`
/// sorts below every content byte).
///
/// Longer or NUL-containing strings do not fit this codec; rank-encode
/// them against a closed set with a [`StringDictionary`].
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StrKey {
    bytes: [u8; StrKey::MAX_LEN],
    len: u8,
}

impl StrKey {
    /// Maximum key length in bytes (one `u64` worth).
    pub const MAX_LEN: usize = 8;

    /// Build a key from a string of at most [`MAX_LEN`](Self::MAX_LEN)
    /// NUL-free bytes.
    pub fn new(s: &str) -> Result<Self, KeyError> {
        let raw = s.as_bytes();
        if raw.len() > Self::MAX_LEN {
            return Err(KeyError::TooLong(raw.len()));
        }
        if raw.contains(&0) {
            return Err(KeyError::EmbeddedNul);
        }
        let mut bytes = [0u8; Self::MAX_LEN];
        bytes[..raw.len()].copy_from_slice(raw);
        Ok(StrKey {
            bytes,
            len: raw.len() as u8,
        })
    }

    /// The key as a string slice.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.bytes[..self.len as usize]).expect("StrKey holds UTF-8")
    }

    /// Key length in bytes.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the key is the empty string.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl fmt::Debug for StrKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "StrKey({:?})", self.as_str())
    }
}

impl fmt::Display for StrKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl SortKey for StrKey {
    const BITS: u32 = 64;
    const NAME: &'static str = "str8";
    #[inline]
    fn encode(&self) -> u64 {
        u64::from_be_bytes(self.bytes)
    }
    #[inline]
    fn decode(encoded: u64) -> Self {
        let bytes = encoded.to_be_bytes();
        // NUL-free content means the first zero byte is the pad start.
        let len = bytes.iter().position(|&b| b == 0).unwrap_or(Self::MAX_LEN);
        StrKey {
            bytes,
            len: len as u8,
        }
    }
}

/// Rank codec for arbitrary-length strings against a closed set: the
/// dictionary fallback for strings the [`StrKey`] prefix codec cannot
/// hold. Codes are ranks in the sorted deduplicated set, so the `u64`
/// order equals the lexicographic order *within the dictionary* (the
/// same closed-domain trade-off LocustDB-style dictionary encodings
/// make).
#[derive(Clone, Debug, Default)]
pub struct StringDictionary {
    sorted: Vec<String>,
}

impl StringDictionary {
    /// Build a dictionary from the closed set of strings (sorted and
    /// deduplicated internally).
    pub fn build<I, S>(strings: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut sorted: Vec<String> = strings.into_iter().map(Into::into).collect();
        sorted.sort();
        sorted.dedup();
        StringDictionary { sorted }
    }

    /// Rank of `s` in the dictionary, or `None` if it is not a member.
    pub fn encode(&self, s: &str) -> Option<u64> {
        self.sorted
            .binary_search_by(|probe| probe.as_str().cmp(s))
            .ok()
            .map(|rank| rank as u64)
    }

    /// The string at `code`, or `None` if the code is out of range.
    pub fn decode(&self, code: u64) -> Option<&str> {
        self.sorted.get(code as usize).map(String::as_str)
    }

    /// Number of distinct strings in the dictionary.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Wide composite keys (> 64 bits) — the WideRecord domain
// ---------------------------------------------------------------------------

/// Width of the [`WideRecord`] key in bits (ten bytes).
pub const WIDE_KEY_BITS: u32 = KEY_BYTES as u32 * 8;

/// A composite key wider than 64 bits, encoded order-isomorphically into
/// the low [`WIDE_KEY_BITS`] bits of a `u128` and packed into the
/// [`WideRecord`] lexicographic key the TeraSort path sorts.
///
/// Every pair of [`SortKey`]s whose widths sum to at most 80 bits is a
/// `WideKey` — e.g. `(f64, u16)` or `(i64, u16)`, which do not fit the
/// 64-bit [`SortKey`] tuple codec.
pub trait WideKey: Copy + PartialEq + fmt::Debug + Send + Sync + 'static {
    /// Number of significant low bits in
    /// [`encode_wide`](WideKey::encode_wide) (≤ [`WIDE_KEY_BITS`]).
    const WIDE_BITS: u32;

    /// Encode into the order-isomorphic `u128` domain
    /// (`< 2^WIDE_BITS`).
    fn encode_wide(&self) -> u128;

    /// Invert [`encode_wide`](WideKey::encode_wide) (defined on encoder
    /// outputs).
    fn decode_wide(encoded: u128) -> Self;
}

impl<A: SortKey, B: SortKey> WideKey for (A, B) {
    const WIDE_BITS: u32 = {
        assert!(
            A::BITS + B::BITS <= WIDE_KEY_BITS,
            "composite key wider than the 80-bit WideRecord key"
        );
        A::BITS + B::BITS
    };
    #[inline]
    fn encode_wide(&self) -> u128 {
        ((self.0.encode() as u128) << B::BITS) | self.1.encode() as u128
    }
    #[inline]
    fn decode_wide(encoded: u128) -> Self {
        let mask = (1u128 << B::BITS) - 1;
        (
            A::decode((encoded >> B::BITS) as u64),
            B::decode((encoded & mask) as u64),
        )
    }
}

/// Pack a wide encoding into a [`WideRecord`] key. The 80 key bits are
/// laid out big-endian and *left-aligned* after shifting the encoding up
/// by `WIDE_KEY_BITS - bits`, so lexicographic byte order on the record
/// key equals numeric order on the encoding regardless of the key width.
pub fn wide_to_record(encoded: u128, bits: u32, payload: u64) -> WideRecord {
    debug_assert!(bits <= WIDE_KEY_BITS);
    let aligned = encoded << (WIDE_KEY_BITS - bits);
    let be = aligned.to_be_bytes(); // 16 bytes; key is the low 10 => bytes 6..16
    let mut key = [0u8; KEY_BYTES];
    key.copy_from_slice(&be[16 - KEY_BYTES..]);
    WideRecord::new(key, payload)
}

/// Invert [`wide_to_record`] back to the wide encoding.
pub fn record_to_wide(record: &WideRecord, bits: u32) -> u128 {
    debug_assert!(bits <= WIDE_KEY_BITS);
    let mut be = [0u8; 16];
    be[16 - KEY_BYTES..].copy_from_slice(&record.key);
    u128::from_be_bytes(be) >> (WIDE_KEY_BITS - bits)
}

/// Pack a [`WideKey`] into a [`WideRecord`] with the given payload.
pub fn wide_key_to_record<K: WideKey>(key: &K, payload: u64) -> WideRecord {
    wide_to_record(key.encode_wide(), K::WIDE_BITS, payload)
}

/// Decode a [`WideKey`] back out of a [`WideRecord`] key.
pub fn record_to_wide_key<K: WideKey>(record: &WideRecord) -> K {
    K::decode_wide(record_to_wide(record, K::WIDE_BITS))
}

// ---------------------------------------------------------------------------
// Bridges into the engine domains
// ---------------------------------------------------------------------------

/// Map an encoded `u64` into the [`Value`] domain monotonically: the
/// high 32 bits become the float key through the inverse total-order
/// flip, the low 32 bits become the id. Because `Value`'s total order is
/// (`total_cmp` key, id) and the float flip is an order isomorphism on
/// all 2^32 bit patterns, `u64` order and `Value` order coincide — any
/// 64-bit-encoded key rides the existing engines unchanged, including the
/// top of the domain, whose float key is the padding sentinel's
/// (`stream_arch::padding` sets such values aside before padding).
#[inline]
pub fn encoded_to_value(encoded: u64) -> Value {
    Value::new(f32::decode(encoded >> 32), encoded as u32)
}

/// Invert [`encoded_to_value`].
#[inline]
pub fn value_to_encoded(value: &Value) -> u64 {
    (value.key.encode() << 32) | value.id as u64
}

/// Map a typed key into the [`Value`] domain (see [`encoded_to_value`]).
#[inline]
pub fn key_to_value<K: SortKey>(key: &K) -> Value {
    encoded_to_value(key.encode())
}

/// Decode a typed key back out of a [`Value`] (see [`value_to_encoded`]).
#[inline]
pub fn value_to_key<K: SortKey>(value: &Value) -> K {
    K::decode(value_to_encoded(value))
}

/// Pack an encoded `u64` into a [`WideRecord`]: the encoding fills the
/// first eight key bytes big-endian (so lexicographic record order is
/// numeric `u64` order), the payload carries the record handle.
#[inline]
pub fn encoded_to_record(encoded: u64, payload: u64) -> WideRecord {
    let mut key = [0u8; KEY_BYTES];
    key[..8].copy_from_slice(&encoded.to_be_bytes());
    WideRecord::new(key, payload)
}

/// Invert [`encoded_to_record`] back to the `u64` encoding.
#[inline]
pub fn record_to_encoded(record: &WideRecord) -> u64 {
    u64::from_be_bytes(record.key[..8].try_into().expect("8 key bytes"))
}

/// Pack a typed key into a [`WideRecord`] with the given payload.
#[inline]
pub fn key_to_record<K: SortKey>(key: &K, payload: u64) -> WideRecord {
    encoded_to_record(key.encode(), payload)
}

/// Decode a typed key back out of a [`WideRecord`].
#[inline]
pub fn record_to_key<K: SortKey>(record: &WideRecord) -> K {
    K::decode(record_to_encoded(record))
}

// ---------------------------------------------------------------------------
// Duplicate handling: encode a key multiset into distinct Values
// ---------------------------------------------------------------------------

/// A batch of typed keys encoded into distinct [`Value`]s for the
/// engines, with duplicate multiplicities remembered on the side.
///
/// Adaptive bitonic sorting requires distinct elements (Section 4 of the
/// paper); plain `Value` jobs get that for free from the unique id, but
/// a typed key batch may contain duplicates that encode to the same
/// `u64`. `EncodedBatch` deduplicates at encode time (keeping
/// first-occurrence order so the input distribution shape survives),
/// submits one `Value` per distinct key, and re-expands multiplicities
/// when decoding the sorted output.
#[derive(Clone, Debug)]
pub struct EncodedBatch<K: SortKey> {
    values: Vec<Value>,
    counts: HashMap<u64, usize>,
    total: usize,
    _marker: PhantomData<K>,
}

impl<K: SortKey> EncodedBatch<K> {
    /// Encode a key batch, deduplicating into distinct [`Value`]s.
    pub fn new(keys: &[K]) -> Self {
        let mut counts: HashMap<u64, usize> = HashMap::with_capacity(keys.len());
        let mut values = Vec::with_capacity(keys.len());
        for key in keys {
            let encoded = key.encode();
            let count = counts.entry(encoded).or_insert(0);
            if *count == 0 {
                values.push(encoded_to_value(encoded));
            }
            *count += 1;
        }
        EncodedBatch {
            values,
            counts,
            total: keys.len(),
            _marker: PhantomData,
        }
    }

    /// The distinct encoded values, in first-occurrence order. This is
    /// what gets submitted to the engines.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Take ownership of the distinct encoded values.
    pub fn take_values(&mut self) -> Vec<Value> {
        std::mem::take(&mut self.values)
    }

    /// Number of distinct keys.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Total number of keys including duplicates.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Decode a sorted engine output back into the full sorted key
    /// multiset, re-expanding duplicate multiplicities.
    pub fn decode_sorted(&self, sorted: &[Value]) -> Vec<K> {
        self.decode_prefix(sorted, self.total)
    }

    /// Decode a sorted engine output, stopping after the `k` smallest
    /// keys (multiplicities included) — the top-k view of the batch.
    pub fn decode_prefix(&self, sorted: &[Value], k: usize) -> Vec<K> {
        let want = k.min(self.total);
        let mut out = Vec::with_capacity(want);
        'outer: for value in sorted {
            let encoded = value_to_encoded(value);
            let count = self.counts.get(&encoded).copied().unwrap_or(1);
            let key = K::decode(encoded);
            for _ in 0..count {
                out.push(key);
                if out.len() == want {
                    break 'outer;
                }
            }
        }
        out
    }

    /// The number of distinct values a top-`k` submission must request
    /// so that re-expansion yields at least `k` keys (every distinct
    /// value expands to ≥ 1 key, so `k` distinct always suffice).
    pub fn distinct_for_top_k(&self, k: usize) -> usize {
        k.min(self.distinct()).max(1)
    }
}

/// Smallest power-of-two segment the service engines accept; re-exported
/// here so typed callers can size batches without reaching into
/// [`crate::batch`].
pub const MIN_TYPED_SEGMENT: usize = MIN_SEGMENT;

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<K: SortKey>(k: K) {
        assert_eq!(K::decode(k.encode()), k, "round trip failed for {k:?}");
    }

    #[test]
    fn integer_codecs_roundtrip_and_order() {
        for v in [i64::MIN, -2, -1, 0, 1, 2, i64::MAX] {
            roundtrip(v);
        }
        let mut xs = vec![5i64, -3, i64::MIN, i64::MAX, 0, -1];
        let mut by_code = xs.clone();
        xs.sort();
        by_code.sort_by_key(|x| x.encode());
        assert_eq!(xs, by_code);
        roundtrip(u64::MAX);
        roundtrip(-128i8);
        roundtrip(42u16);
        assert!((-1i32).encode() < 0i32.encode());
        assert!(0i32.encode() < 1i32.encode());
    }

    #[test]
    fn float_codec_is_total_order() {
        let special = [
            f32::NEG_INFINITY,
            -1.0f32,
            -0.0,
            0.0,
            1.0,
            f32::INFINITY,
            f32::NAN,
            -f32::NAN,
        ];
        for &a in &special {
            let back = f32::decode(a.encode());
            assert_eq!(back.to_bits(), a.to_bits(), "bit-exact round trip");
            for &b in &special {
                assert_eq!(a.encode().cmp(&b.encode()), a.total_cmp(&b), "{a} vs {b}");
            }
        }
        assert!((-0.0f64).encode() < 0.0f64.encode());
        assert_eq!(f64::decode(f64::NAN.encode()).to_bits(), f64::NAN.to_bits());
    }

    #[test]
    fn tuple_codec_is_lexicographic() {
        let a = (1i32, 2u32);
        let b = (1i32, 3u32);
        let c = (2i32, 0u32);
        assert!(a.encode() < b.encode());
        assert!(b.encode() < c.encode());
        roundtrip(a);
        roundtrip((i16::MIN, -1i16, u32::MAX));
        assert_eq!(<(i32, u32)>::BITS, 64);
        assert_eq!(<(i16, i16, u32)>::BITS, 64);
        assert_eq!(<(u8, bool)>::BITS, 9);
    }

    #[test]
    fn str_key_is_lexicographic_and_bounded() {
        let a = StrKey::new("a").unwrap();
        let ab = StrKey::new("ab").unwrap();
        let b = StrKey::new("b").unwrap();
        let empty = StrKey::new("").unwrap();
        let max = StrKey::new("zzzzzzzz").unwrap();
        assert!(empty.encode() < a.encode());
        assert!(a.encode() < ab.encode());
        assert!(ab.encode() < b.encode());
        assert!(b.encode() < max.encode());
        for k in [a, ab, b, empty, max] {
            roundtrip(k);
            assert_eq!(StrKey::decode(k.encode()).as_str(), k.as_str());
        }
        assert_eq!(StrKey::new("too long!"), Err(KeyError::TooLong(9)));
        assert_eq!(StrKey::new("nul\0"), Err(KeyError::EmbeddedNul));
    }

    #[test]
    fn string_dictionary_rank_encodes_a_closed_set() {
        let dict = StringDictionary::build(["walnut", "almond", "pecan", "almond"]);
        assert_eq!(dict.len(), 3);
        let a = dict.encode("almond").unwrap();
        let p = dict.encode("pecan").unwrap();
        let w = dict.encode("walnut").unwrap();
        assert!(a < p && p < w);
        assert_eq!(dict.decode(p), Some("pecan"));
        assert_eq!(dict.encode("cashew"), None);
        assert_eq!(dict.decode(99), None);
    }

    #[test]
    fn value_bridge_is_monotone_and_invertible() {
        let mut encs = vec![
            0u64,
            1,
            i64::MAX as u64,
            0x8000_0000_0000_0000,
            u64::MAX - 1,
            (-1.5f64).encode(),
            3.25f64.encode(),
        ];
        encs.sort();
        let values: Vec<Value> = encs.iter().map(|&e| encoded_to_value(e)).collect();
        let mut sorted = values.clone();
        sorted.sort();
        // Compare re-encodings, not Values: some encodings decode to NaN
        // float keys, and NaN != NaN under PartialEq even though the
        // total order (and the bijection) treats them identically.
        assert_eq!(
            sorted.iter().map(value_to_encoded).collect::<Vec<_>>(),
            encs,
            "u64 order must equal Value order"
        );
        for &e in &encs {
            assert_eq!(value_to_encoded(&encoded_to_value(e)), e);
        }
    }

    #[test]
    fn record_bridge_preserves_order() {
        let xs = [(-2.0f64).encode(), 0.0f64.encode(), 7.5f64.encode()];
        let records: Vec<WideRecord> = xs
            .iter()
            .enumerate()
            .map(|(i, &e)| encoded_to_record(e, i as u64))
            .collect();
        let mut sorted = records.clone();
        sorted.sort();
        assert_eq!(records, sorted);
        for (i, &e) in xs.iter().enumerate() {
            assert_eq!(record_to_encoded(&records[i]), e);
        }
    }

    #[test]
    fn wide_key_packs_lexicographically_into_records() {
        type K = (f64, u16);
        assert_eq!(<K as WideKey>::WIDE_BITS, 80);
        let keys: [K; 4] = [(-1.0, 9), (0.5, 1), (0.5, 2), (2.0, 0)];
        let records: Vec<WideRecord> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| wide_key_to_record(k, i as u64))
            .collect();
        let mut sorted = records.clone();
        sorted.sort();
        assert_eq!(records, sorted, "record order must equal key order");
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(record_to_wide_key::<K>(&records[i]), *k);
        }
        // Narrow wide keys left-align so byte order still matches.
        type N = (i32, u16);
        assert_eq!(<N as WideKey>::WIDE_BITS, 48);
        let lo = wide_key_to_record(&(-5i32, 0u16), 0);
        let hi = wide_key_to_record(&(5i32, 0u16), 1);
        assert!(lo < hi);
        assert_eq!(record_to_wide_key::<N>(&lo), (-5, 0));
    }

    #[test]
    fn encoded_batch_dedups_and_reexpands() {
        let keys = [3i64, -1, 3, 3, 0, -1];
        let batch = EncodedBatch::new(&keys);
        assert_eq!(batch.total(), 6);
        assert_eq!(batch.distinct(), 3);
        let mut sorted = batch.values().to_vec();
        sorted.sort();
        assert_eq!(batch.decode_sorted(&sorted), vec![-1, -1, 0, 3, 3, 3]);
        assert_eq!(batch.decode_prefix(&sorted, 4), vec![-1, -1, 0, 3]);
        assert_eq!(batch.distinct_for_top_k(2), 2);
        assert_eq!(batch.distinct_for_top_k(100), 3);
    }
}
