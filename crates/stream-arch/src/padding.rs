//! Out-of-band padding to a power-of-two length: the one padding scheme
//! of every power-of-two sorter.
//!
//! The paper's sorters need a power-of-two input of distinct values
//! (Section 4: "this can be achieved by padding the input sequence").
//! Padding appends [`Value::padding_sentinel`]s, whose key bits
//! `0x7FFF_FFFF` are the maximum of `f32::total_cmp`, and cuts them off
//! after the sort. An input may carry that key too, so padding is out of
//! band:
//!
//! 1. [`Split::new`] moves every input with the sentinel key to a tail,
//!    sorted; the rest, the body, is borrowed when no input has that key.
//! 2. [`fill`] appends the body, then sentinels, to the caller's buffer.
//! 3. [`Split::restore`] cuts the engine's output to the body and appends
//!    the tail.
//!
//! This is exact: every tail value is at least every body value, and the
//! sentinels are strictly greater than the whole body. [`sort_padded`]
//! runs the three steps around an engine.

use crate::value::Value;
use std::borrow::Cow;

/// Key bits of every padding sentinel: the largest positive NaN.
pub(crate) const SENTINEL_KEY_BITS: u32 = 0x7FFF_FFFF;

fn has_sentinel_key(value: &Value) -> bool {
    value.key.to_bits() == SENTINEL_KEY_BITS
}

/// An input split into the body an engine sorts (in input order) and the
/// tail of values with the sentinel key (ascending).
#[derive(Debug)]
pub struct Split<'a> {
    body: Cow<'a, [Value]>,
    tail: Vec<Value>,
}

impl<'a> Split<'a> {
    /// Split `values` in one scan, borrowing them when none has the
    /// sentinel key.
    pub fn new(values: &'a [Value]) -> Self {
        if !values.iter().any(has_sentinel_key) {
            let body = Cow::Borrowed(values);
            return Split { body, tail: vec![] };
        }
        let (mut tail, body): (Vec<Value>, Vec<Value>) =
            values.iter().partition(|v| has_sentinel_key(v));
        tail.sort_unstable();
        let body = Cow::Owned(body);
        Split { body, tail }
    }

    /// Every input without the sentinel key, in input order.
    pub fn body(&self) -> &[Value] {
        &self.body
    }

    /// Turn `sorted`, whose prefix is the sorted body, into the sorted
    /// input.
    pub fn restore(&self, sorted: &mut Vec<Value>) {
        self.restore_top_k(sorted, usize::MAX);
    }

    /// Turn `top`, whose prefix is the `min(k, body)` smallest body values
    /// ascending, into the `k` smallest inputs ascending (all of them if
    /// there are fewer): cut it to that prefix and append the first
    /// `k − body` tail values.
    pub fn restore_top_k(&self, top: &mut Vec<Value>, k: usize) {
        top.truncate(self.body.len().min(k));
        let extra = k.saturating_sub(top.len()).min(self.tail.len());
        top.extend_from_slice(&self.tail[..extra]);
    }
}

/// Append `values` — which must not hold the sentinel key, e.g. a
/// [`Split::body`] — to `buffer`, then padding sentinels until `buffer`
/// holds `target` values. Sentinel ids come from the counter `next_pad`,
/// which moves past each one, so several fills of one buffer keep the
/// sentinels distinct.
///
/// # Panics
///
/// If `buffer` would hold more than `target` values.
pub fn fill(buffer: &mut Vec<Value>, values: &[Value], target: usize, next_pad: &mut usize) {
    buffer.extend_from_slice(values);
    let pads = target
        .checked_sub(buffer.len())
        .expect("padding target below the buffer length");
    buffer.extend((*next_pad..*next_pad + pads).map(Value::padding_sentinel));
    *next_pad += pads;
}

/// Sort `values` through `run`, an engine for a power-of-two number (at
/// least two) of distinct values: split, pad the body to the next power
/// of two, run, restore. `run` is not called for a body of fewer than two
/// values, which is sorted already.
pub fn sort_padded<E>(
    values: &[Value],
    run: impl FnOnce(Vec<Value>) -> Result<Vec<Value>, E>,
) -> Result<Vec<Value>, E> {
    let split = Split::new(values);
    let body = split.body();
    let mut sorted = if body.len() <= 1 {
        body.to_vec()
    } else {
        let n = body.len().next_power_of_two();
        let mut padded = Vec::with_capacity(n);
        fill(&mut padded, body, n, &mut 0);
        run(padded)?
    };
    split.restore(&mut sorted);
    Ok(sorted)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn top(id: u32) -> Value {
        Value::new(f32::from_bits(SENTINEL_KEY_BITS), id)
    }

    fn std_sorted(values: &[Value]) -> Vec<Value> {
        let mut sorted = values.to_vec();
        sorted.sort();
        sorted
    }

    #[test]
    fn padding_reaches_the_target_and_sorts_last() {
        let input: Vec<Value> = (0..5).map(|i| Value::new(i as f32, i)).collect();
        let (mut padded, mut next_pad) = (Vec::new(), 0);
        fill(&mut padded, &input, 8, &mut next_pad);
        fill(&mut padded, &[], 16, &mut next_pad);
        assert_eq!(&padded[..5], &input[..]);
        assert_eq!(
            padded[5..],
            (0..11).map(Value::padding_sentinel).collect::<Vec<_>>()
        );
        assert!(padded[5..]
            .iter()
            .all(|pad| input.iter().all(|v| pad.gt(v))));

        let (mut padded, mut next_pad) = (Vec::new(), 0);
        fill(&mut padded, &input[..4], 4, &mut next_pad);
        assert_eq!((padded.as_slice(), next_pad), (&input[..4], 0));
    }

    #[test]
    fn sentinel_keys_are_set_aside_and_restored_in_order() {
        // A sentinel-key input with the first sentinel's id is data, not
        // padding.
        let probe: Vec<Value> = (0..3).map(|i| Value::new(i as f32, i)).collect();
        let probe = [&[top(u32::MAX)], &probe[..]].concat();
        let mixed = [top(7), top(u32::MAX - 1), Value::new(-0.0, 1), top(3)];
        for input in [&probe[..], &mixed, &[top(2), top(1)], &[top(1)], &[]] {
            let sorted = sort_padded(input, |mut padded| {
                assert!(padded.len().is_power_of_two() && padded.len() >= 2);
                padded.sort();
                Ok::<_, ()>(padded)
            });
            assert_eq!(sorted.unwrap(), std_sorted(input), "{input:?}");
        }
        assert!(matches!(Split::new(&probe[1..]).body, Cow::Borrowed(_)));
    }

    #[test]
    fn top_k_takes_the_tail_only_past_the_body() {
        let input = [top(9), Value::new(1.0, 0), top(4), Value::new(0.5, 1)];
        let split = Split::new(&input);
        for k in 0..=6 {
            let mut top_k = std_sorted(split.body());
            split.restore_top_k(&mut top_k, k);
            assert_eq!(top_k, std_sorted(&input)[..k.min(4)], "k={k}");
        }
    }
}
