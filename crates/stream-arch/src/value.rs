//! Element types that can live in a stream.
//!
//! The paper sorts *value/pointer pairs*: a 32-bit floating point primary
//! sort key plus a 32-bit unique id that doubles as a pointer to the
//! associated record and as the secondary sort key enforcing distinctness
//! (Section 8 and Listing 1 of the paper). [`Value`] is that pair.
//!
//! A bitonic-tree node ([`Node`]) is a value plus the indices of its left
//! and right children (Listing 1, `node_t`). Indices are plain `u32`
//! offsets into the node stream — "instead of real pointers we use
//! indexes".

use std::cmp::Ordering;
use std::fmt;

/// Sentinel child index used for leaves and spare nodes, whose child
/// pointers are never dereferenced ("can be set to arbitrary values" in the
/// paper; we use a recognisable sentinel to catch bugs).
pub const NULL_INDEX: u32 = u32::MAX;

/// Marker trait for types that may be stored in a [`crate::Stream`].
///
/// Stream elements are plain old data: copyable, sendable between the
/// simulated processor units, with a default (zero) bit pattern used when a
/// stream is allocated but not yet initialised.
pub trait StreamElement: Copy + Clone + Default + Send + Sync + 'static {
    /// Size of one element in bytes as charged by the memory-traffic model.
    const BYTES: usize = std::mem::size_of::<Self>();
}

impl StreamElement for u32 {}
impl StreamElement for u64 {}
impl StreamElement for f32 {}
impl StreamElement for (u32, u32) {}

/// A sort element: 32-bit float primary key + 32-bit unique id.
///
/// The id is used as the secondary sort key, which makes all elements
/// distinct (a precondition of adaptive bitonic sorting, Section 4), and in
/// an application plays the role of the pointer to the record being sorted.
#[derive(Copy, Clone, Debug, Default)]
pub struct Value {
    /// Primary sort key.
    pub key: f32,
    /// Unique id / record pointer; secondary sort key.
    pub id: u32,
}

impl Value {
    /// Create a new value/pointer pair.
    #[inline]
    pub const fn new(key: f32, id: u32) -> Self {
        Value { key, id }
    }

    /// The total order used throughout the library: primary key first,
    /// unique id as tie breaker (paper, Listing 1's `operator >`).
    ///
    /// Keys are compared with `f32::total_cmp`, so NaNs are ordered
    /// deterministically instead of poisoning the sort.
    #[inline]
    pub fn total_cmp(&self, other: &Self) -> Ordering {
        self.key
            .total_cmp(&other.key)
            .then_with(|| self.id.cmp(&other.id))
    }

    /// `self > other` under the total order. This is the single comparison
    /// primitive of the paper's pseudo code.
    #[inline]
    pub fn gt(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Greater
    }

    /// `self < other` under the total order.
    #[inline]
    pub fn lt(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Less
    }

    /// The value as a `u64` whose unsigned order is [`Value::total_cmp`]:
    /// the key's `total_cmp` bits above the id. Sorting networks compare
    /// and exchange these branch-free; [`Value::from_order_key`] inverts
    /// it.
    #[inline]
    pub fn order_key(&self) -> u64 {
        let bits = self.key.to_bits();
        // Negative keys flip their magnitude bits (as `f32::total_cmp`
        // does), then the sign bit flips to order signed as unsigned.
        let ordered = bits ^ (((bits as i32 >> 31) as u32) >> 1) ^ 0x8000_0000;
        u64::from(ordered) << 32 | u64::from(self.id)
    }

    /// The value whose [`Value::order_key`] is `key`.
    #[inline]
    pub fn from_order_key(key: u64) -> Self {
        let ordered = (key >> 32) as u32 ^ 0x8000_0000;
        let bits = ordered ^ (((ordered as i32 >> 31) as u32) >> 1);
        Value::new(f32::from_bits(bits), key as u32)
    }

    /// The `index`-th padding sentinel used when a sorter pads its input to
    /// a power-of-two length (Section 4: "this can be achieved by padding
    /// the input sequence").
    ///
    /// The key is the largest positive NaN bit pattern, the maximum of
    /// `f32::total_cmp`, and the ids count down from `u32::MAX` to keep the
    /// sentinels distinct from each other. Inputs that carry this key
    /// themselves are set aside before padding, so the sentinels sort
    /// after everything an engine sorts; [`crate::padding`] is the one
    /// place that does this.
    #[inline]
    pub fn padding_sentinel(index: usize) -> Self {
        Value {
            key: f32::from_bits(crate::padding::SENTINEL_KEY_BITS),
            id: u32::MAX - index as u32,
        }
    }
}

/// Equality under the same total order as [`Ord`]: two values are equal
/// exactly when their key bit patterns and ids are, so a NaN equals
/// itself and −0.0 differs from +0.0.
impl PartialEq for Value {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.key, self.id)
    }
}

impl StreamElement for Value {}

/// A bitonic-tree node: a [`Value`] plus left/right child indices
/// (Listing 1, `node_t`).
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct Node {
    /// The element stored in this node.
    pub value: Value,
    /// Index of the left child in the node stream, or [`NULL_INDEX`].
    pub left: u32,
    /// Index of the right child in the node stream, or [`NULL_INDEX`].
    pub right: u32,
}

impl Node {
    /// Create a node with both children set.
    #[inline]
    pub const fn new(value: Value, left: u32, right: u32) -> Self {
        Node { value, left, right }
    }

    /// Create a leaf/spare node whose child indices are the sentinel.
    #[inline]
    pub const fn leaf(value: Value) -> Self {
        Node {
            value,
            left: NULL_INDEX,
            right: NULL_INDEX,
        }
    }
}

impl StreamElement for Node {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_total_order_uses_id_as_secondary_key() {
        let a = Value::new(1.0, 0);
        let b = Value::new(1.0, 1);
        assert!(b.gt(&a));
        assert!(a.lt(&b));
        assert_eq!(a.total_cmp(&a), Ordering::Equal);
    }

    #[test]
    fn value_primary_key_dominates() {
        let a = Value::new(1.0, 100);
        let b = Value::new(2.0, 0);
        assert!(b.gt(&a));
        assert!(!a.gt(&b));
    }

    #[test]
    fn value_orders_nan_deterministically() {
        let nan = Value::new(f32::NAN, 0);
        let one = Value::new(1.0, 0);
        // total_cmp puts positive NaN above all finite numbers.
        assert!(nan.gt(&one));
        assert_eq!(nan.total_cmp(&nan), Ordering::Equal);
    }

    #[test]
    fn value_ord_matches_total_cmp() {
        let mut v = vec![
            Value::new(3.0, 0),
            Value::new(-1.0, 7),
            Value::new(3.0, 1),
            Value::new(0.0, 2),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                Value::new(-1.0, 7),
                Value::new(0.0, 2),
                Value::new(3.0, 0),
                Value::new(3.0, 1),
            ]
        );
    }

    #[test]
    fn node_leaf_has_null_children() {
        let n = Node::leaf(Value::new(5.0, 3));
        assert_eq!(n.left, NULL_INDEX);
        assert_eq!(n.right, NULL_INDEX);
        assert_eq!(n.value, Value::new(5.0, 3));
    }

    #[test]
    fn element_byte_sizes() {
        assert_eq!(<Value as StreamElement>::BYTES, 8);
        assert_eq!(<Node as StreamElement>::BYTES, 16);
        assert_eq!(<u32 as StreamElement>::BYTES, 4);
    }

    #[test]
    fn equality_agrees_with_the_total_order() {
        let keys = [
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7FC0_0001), // quiet NaN with a payload
            f32::from_bits(0x7F80_0001), // signalling NaN
            f32::from_bits(0xFFFF_FFFF), // largest negative-NaN pattern
            -0.0,
            0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -1.5,
            1.5,
        ];
        let mut values: Vec<Value> = keys
            .iter()
            .flat_map(|&k| [Value::new(k, 0), Value::new(k, 1)])
            .collect();
        values.extend((0..3).map(Value::padding_sentinel));
        for a in &values {
            let back = Value::from_order_key(a.order_key());
            assert_eq!((back.key.to_bits(), back.id), (a.key.to_bits(), a.id));
            for b in &values {
                assert_eq!(a == b, a.cmp(b) == Ordering::Equal, "{a:?} vs {b:?}");
                assert_eq!(a.order_key().cmp(&b.order_key()), a.cmp(b));
                let (na, nb) = (Node::leaf(*a), Node::leaf(*b));
                assert_eq!(na == nb, a.cmp(b) == Ordering::Equal, "{na:?} vs {nb:?}");
            }
            assert_eq!(a, a, "equality must be reflexive: {a:?}");
        }
        assert_ne!(Value::new(-0.0, 5), Value::new(0.0, 5));
    }

    #[test]
    fn negative_zero_and_zero_are_ordered_by_total_cmp() {
        let neg = Value::new(-0.0, 5);
        let pos = Value::new(0.0, 5);
        // total_cmp orders -0.0 < +0.0; this keeps the order total and
        // deterministic, which is all the sort requires.
        assert!(pos.gt(&neg));
    }
}
