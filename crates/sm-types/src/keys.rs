//! Application key space and app-defined sharding (§3.1).
//!
//! Shard Manager shards the *application's own* key space (the "app-key"
//! approach) and lets the application decide the key-to-shard mapping
//! (the "app-sharding" approach). This preserves key locality, which is
//! what makes prefix scans possible in stores like Laser.
//!
//! A [`ShardingSpec`] is an ordered list of non-overlapping, half-open
//! key ranges, each owned by one shard. Lookup is a binary search.

use crate::ids::ShardId;
use std::fmt;

/// An application key: an opaque byte string ordered lexicographically.
///
/// Numeric key spaces are supported by encoding integers big-endian (see
/// [`AppKey::from_u64`]), which preserves numeric order.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct AppKey(pub Vec<u8>);

impl AppKey {
    /// Creates a key from raw bytes.
    pub fn new(bytes: impl Into<Vec<u8>>) -> Self {
        Self(bytes.into())
    }

    /// Encodes a `u64` so that byte order equals numeric order.
    pub fn from_u64(v: u64) -> Self {
        Self(v.to_be_bytes().to_vec())
    }

    /// Returns true if `self` starts with `prefix`.
    pub fn has_prefix(&self, prefix: &[u8]) -> bool {
        self.0.starts_with(prefix)
    }

    /// The smallest key, i.e. the empty byte string.
    pub fn min() -> Self {
        Self(Vec::new())
    }
}

impl From<&str> for AppKey {
    fn from(s: &str) -> Self {
        Self(s.as_bytes().to_vec())
    }
}

impl fmt::Display for AppKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Ok(s) = std::str::from_utf8(&self.0) {
            if s.chars().all(|c| c.is_ascii_graphic()) && !s.is_empty() {
                return write!(f, "{s}");
            }
        }
        write!(f, "0x")?;
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

/// A half-open key range `[start, end)`; `end == None` means unbounded.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct KeyRange {
    /// Inclusive lower bound.
    pub start: AppKey,
    /// Exclusive upper bound, or `None` for "to the end of the key space".
    pub end: Option<AppKey>,
}

impl KeyRange {
    /// Creates a bounded range `[start, end)`.
    pub fn new(start: AppKey, end: AppKey) -> Self {
        Self {
            start,
            end: Some(end),
        }
    }

    /// Creates a range covering `[start, +inf)`.
    pub fn from(start: AppKey) -> Self {
        Self { start, end: None }
    }

    /// Creates the full key range.
    pub fn full() -> Self {
        Self {
            start: AppKey::min(),
            end: None,
        }
    }

    /// Returns true if the range contains `key`.
    pub fn contains(&self, key: &AppKey) -> bool {
        if *key < self.start {
            return false;
        }
        match &self.end {
            Some(end) => key < end,
            None => true,
        }
    }

    /// Returns true if the two ranges share any key.
    pub fn overlaps(&self, other: &KeyRange) -> bool {
        let self_before_other = match &self.end {
            Some(end) => *end <= other.start,
            None => false,
        };
        let other_before_self = match &other.end {
            Some(end) => *end <= self.start,
            None => false,
        };
        !(self_before_other || other_before_self)
    }

    /// Returns true if the range is empty (`end <= start`).
    pub fn is_empty(&self) -> bool {
        match &self.end {
            Some(end) => *end <= self.start,
            None => false,
        }
    }

    /// Returns true if every key with `prefix` could fall in this range.
    ///
    /// This is conservative in the right direction for routing a prefix
    /// scan: it may include ranges with no matching key but never
    /// excludes a range that has one.
    pub fn may_contain_prefix(&self, prefix: &[u8]) -> bool {
        // The keys with `prefix` form the interval [prefix, successor(prefix)).
        let lo = AppKey(prefix.to_vec());
        match prefix_successor(prefix) {
            Some(hi) => self.overlaps(&KeyRange::new(lo, AppKey(hi))),
            None => self.overlaps(&KeyRange::from(lo)),
        }
    }

    /// Splits the range at `at` into `([start, at), [at, end))`.
    ///
    /// Returns `None` unless `at` is strictly inside the range, so both
    /// children are non-empty.
    pub fn split_at(&self, at: &AppKey) -> Option<(KeyRange, KeyRange)> {
        if *at <= self.start {
            return None;
        }
        if let Some(end) = &self.end {
            if at >= end {
                return None;
            }
        }
        let left = KeyRange::new(self.start.clone(), at.clone());
        let right = KeyRange {
            start: at.clone(),
            end: self.end.clone(),
        };
        Some((left, right))
    }

    /// A key strictly inside the range, halving it by key-space measure.
    ///
    /// Byte strings are read as base-256 fractions in `[0, 1)` (the
    /// unbounded end is `1`), so the midpoint of `[s, e)` is `(s+e)/2`
    /// re-encoded as the shortest byte string — at most one byte longer
    /// than the wider bound. Returns `None` when the range has no
    /// interior key (e.g. `["a", "a\0")`), in which case it cannot be
    /// split.
    pub fn midpoint(&self) -> Option<AppKey> {
        let s = &self.start.0;
        // `int` is the integer part of start+end: the unbounded end is
        // exactly 1.0 (all-zero digits), a bounded end is < 1.0.
        let (mut int, e): (u16, &[u8]) = match &self.end {
            Some(end) => (0, end.0.as_slice()),
            None => (1, &[]),
        };
        let len = s.len().max(e.len());
        // Digit-wise add with carry, least-significant (rightmost) first.
        let mut sum = vec![0u16; len];
        let mut carry: u16 = 0;
        for i in (0..len).rev() {
            let a = u16::from(s.get(i).copied().unwrap_or(0));
            let b = u16::from(e.get(i).copied().unwrap_or(0));
            let t = a + b + carry;
            if let Some(slot) = sum.get_mut(i) {
                *slot = t & 0xff;
            }
            carry = t >> 8;
        }
        int += carry;
        // Halve: shift right one bit, the remainder flowing down a digit.
        let mut rem = int & 1;
        let mut mid = Vec::with_capacity(len + 1);
        for digit in sum {
            let t = (rem << 8) | digit;
            mid.push((t >> 1) as u8);
            rem = t & 1;
        }
        if rem == 1 {
            mid.push(0x80);
        }
        // Trailing zero bytes add nothing to the fraction but make the
        // string compare high; strip to the canonical shortest form.
        while mid.last() == Some(&0) {
            mid.pop();
        }
        let mid = AppKey(mid);
        let above_start = self.start < mid;
        let below_end = match &self.end {
            Some(end) => mid < *end,
            None => true,
        };
        (above_start && below_end).then_some(mid)
    }

    /// Merges two adjacent ranges (in either order) into one.
    ///
    /// Returns `None` unless one range ends exactly where the other
    /// starts — merging non-adjacent ranges would swallow the keys in
    /// between.
    pub fn merge(&self, other: &KeyRange) -> Option<KeyRange> {
        if self.end.as_ref() == Some(&other.start) {
            return Some(KeyRange {
                start: self.start.clone(),
                end: other.end.clone(),
            });
        }
        if other.end.as_ref() == Some(&self.start) {
            return Some(KeyRange {
                start: other.start.clone(),
                end: self.end.clone(),
            });
        }
        None
    }
}

impl fmt::Display for KeyRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.end {
            Some(end) => write!(f, "[{}, {})", self.start, end),
            None => write!(f, "[{}, +inf)", self.start),
        }
    }
}

/// Returns the smallest byte string greater than every string with the
/// given prefix, or `None` if the prefix is all `0xff` (no upper bound).
fn prefix_successor(prefix: &[u8]) -> Option<Vec<u8>> {
    let mut out = prefix.to_vec();
    while let Some(last) = out.last_mut() {
        if *last < 0xff {
            *last += 1;
            return Some(out);
        }
        out.pop();
    }
    None
}

/// The first eight bytes of a key, big-endian, zero-padded: an order-
/// preserving prefix. `prefix64(a) < prefix64(b)` implies `a < b`, and
/// `a <= b` implies `prefix64(a) <= prefix64(b)`; ties fall back to a
/// full lexicographic compare.
// sm-lint: hot-path
pub fn prefix64(bytes: &[u8]) -> u64 {
    let mut out = [0u8; 8];
    for (dst, src) in out.iter_mut().zip(bytes.iter()) {
        *dst = *src;
    }
    u64::from_be_bytes(out)
}

/// How many of the ascending range starts whose [`prefix64`]s are
/// `starts_p64` are `<=` a key whose prefix is `key_p64` — the
/// `partition_point` of a range-start search. The prefix column
/// decides every comparison but prefix ties, which
/// `start_le(i)` (is start `i` `<=` the key?) decides in full.
// sm-lint: hot-path
pub fn starts_at_or_below(
    starts_p64: &[u64],
    key_p64: u64,
    start_le: impl Fn(usize) -> bool,
) -> usize {
    let mut lo = 0usize;
    let mut hi = starts_p64.len();
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let le = match starts_p64.get(mid) {
            Some(&sp) if sp != key_p64 => sp < key_p64,
            _ => start_le(mid),
        };
        if le {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// An application's key-to-shard mapping: an ordered set of disjoint
/// ranges, each owned by a shard (§3.1).
///
/// The ranges may be uneven and are entirely application-chosen. The
/// paper's SM never resharded; here the shard scaler may additionally
/// split a hot shard's range or merge cold neighbors via
/// [`ShardingSpec::transfer_range`], producing a new spec version with
/// the same no-gap/no-overlap guarantees.
///
/// # Examples
///
/// ```
/// use sm_types::keys::{AppKey, KeyRange, ShardingSpec};
/// use sm_types::ids::ShardId;
///
/// let spec = ShardingSpec::uniform_u64(4);
/// assert_eq!(spec.shard_count(), 4);
/// let s = spec.shard_for(&AppKey::from_u64(u64::MAX)).unwrap();
/// assert_eq!(s, ShardId(3));
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ShardingSpec {
    /// `(range, shard)` pairs sorted by `range.start`.
    entries: Vec<(KeyRange, ShardId)>,
    /// [`prefix64`] of each range start, parallel to `entries`: the
    /// fast column of the [`Self::shard_for`] search.
    starts_p64: Vec<u64>,
    /// `(shard, index into entries)` sorted by shard: the
    /// [`Self::range_of`] index.
    by_shard: Vec<(ShardId, u32)>,
}

impl ShardingSpec {
    /// Builds a spec from `(range, shard)` pairs.
    ///
    /// Returns an error message if ranges are empty, overlap, or a shard
    /// id appears twice.
    pub fn new(mut entries: Vec<(KeyRange, ShardId)>) -> Result<Self, String> {
        entries.sort_by(|a, b| a.0.start.cmp(&b.0.start));
        let mut seen = std::collections::HashSet::new();
        for (range, shard) in &entries {
            if range.is_empty() {
                return Err(format!("empty range {range} for {shard}"));
            }
            if !seen.insert(*shard) {
                return Err(format!("duplicate shard id {shard}"));
            }
        }
        for pair in entries.windows(2) {
            if pair[0].0.overlaps(&pair[1].0) {
                return Err(format!("ranges {} and {} overlap", pair[0].0, pair[1].0));
            }
        }
        Ok(Self::indexed(entries))
    }

    /// Wraps valid `entries` (sorted by start) with their search
    /// columns.
    fn indexed(entries: Vec<(KeyRange, ShardId)>) -> Self {
        let starts_p64 = entries.iter().map(|(r, _)| prefix64(&r.start.0)).collect();
        let mut by_shard: Vec<(ShardId, u32)> = (0u32..)
            .zip(&entries)
            .map(|(i, (_, shard))| (*shard, i))
            .collect();
        by_shard.sort_unstable();
        Self {
            entries,
            starts_p64,
            by_shard,
        }
    }

    /// Splits the `u64` key space into `n` equal ranges, one per shard,
    /// with shard ids `0..n`. The first range starts at [`AppKey::min`]
    /// (the empty key), so the spec partitions the *whole* key space —
    /// there is no gap below the smallest encodable key.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn uniform_u64(n: u64) -> Self {
        assert!(n > 0, "need at least one shard");
        let step = u64::MAX / n;
        let mut entries = Vec::with_capacity(n as usize);
        for i in 0..n {
            let start = if i == 0 {
                AppKey::min()
            } else {
                AppKey::from_u64(i * step)
            };
            let range = if i + 1 == n {
                KeyRange::from(start)
            } else {
                KeyRange::new(start, AppKey::from_u64((i + 1) * step))
            };
            entries.push((range, ShardId(i)));
        }
        Self::indexed(entries)
    }

    /// Number of shards in the spec.
    pub fn shard_count(&self) -> usize {
        self.entries.len()
    }

    /// Iterates over `(range, shard)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = &(KeyRange, ShardId)> {
        self.entries.iter()
    }

    /// [`prefix64`] of each range start, in key order.
    pub fn start_prefixes(&self) -> &[u64] {
        &self.starts_p64
    }

    /// `(shard, range index in key order)` pairs, sorted by shard.
    pub fn ranges_by_shard(&self) -> &[(ShardId, u32)] {
        &self.by_shard
    }

    /// All shard ids in key order.
    pub fn shard_ids(&self) -> impl Iterator<Item = ShardId> + '_ {
        self.entries.iter().map(|(_, s)| *s)
    }

    /// Resolves a key to its owning shard via binary search, or `None`
    /// if the key falls in a gap not covered by any range. Most probes
    /// are one `u64` compare of [`prefix64`]s; only prefix ties compare
    /// whole keys.
    pub fn shard_for(&self, key: &AppKey) -> Option<ShardId> {
        let idx = starts_at_or_below(&self.starts_p64, prefix64(&key.0), |i| {
            self.entries.get(i).is_some_and(|(r, _)| r.start <= *key)
        });
        let (range, shard) = self.entries.get(idx.checked_sub(1)?)?;
        range.contains(key).then_some(*shard)
    }

    /// Returns the shards whose ranges may hold keys with `prefix`, in
    /// key order — the shard set a prefix scan must visit.
    pub fn shards_for_prefix(&self, prefix: &[u8]) -> Vec<ShardId> {
        self.entries
            .iter()
            .filter(|(range, _)| range.may_contain_prefix(prefix))
            .map(|(_, shard)| *shard)
            .collect()
    }

    /// Returns the range owned by `shard`, if any (binary search of
    /// the shard-sorted index).
    pub fn range_of(&self, shard: ShardId) -> Option<&KeyRange> {
        let i = self
            .by_shard
            .binary_search_by_key(&shard, |(s, _)| *s)
            .ok()?;
        let (_, idx) = self.by_shard.get(i)?;
        self.entries.get(*idx as usize).map(|(r, _)| r)
    }

    /// The largest shard id in the spec (for minting child ids).
    pub fn max_shard_id(&self) -> Option<ShardId> {
        self.entries.iter().map(|(_, s)| *s).max()
    }

    /// Moves ownership of `range` — a non-empty prefix, suffix, or the
    /// whole of `from`'s range — to shard `to`, returning the new spec.
    ///
    /// This is the single primitive behind split and merge cutovers:
    /// * carving a child out of a parent narrows `from` and inserts
    ///   `to` (a split cutover, one child at a time);
    /// * transferring the whole range to a `to` that already owns an
    ///   adjacent range extends `to` and removes `from` (a merge
    ///   cutover, one source at a time).
    ///
    /// Ownership changes atomically: every key in `range` is owned both
    /// before and after, by exactly one shard. Carving the middle of a
    /// range (neither edge shared) is rejected — it would leave `from`
    /// owning two disconnected pieces.
    pub fn transfer_range(
        &self,
        from: ShardId,
        range: &KeyRange,
        to: ShardId,
    ) -> Result<ShardingSpec, String> {
        if from == to {
            return Err(format!("cannot transfer {from} to itself"));
        }
        if range.is_empty() {
            return Err(format!("cannot transfer empty range {range}"));
        }
        let mut entries = self.entries.clone();
        let idx = entries
            .iter()
            .position(|(_, s)| *s == from)
            .ok_or_else(|| format!("{from} not in spec"))?;
        let owned = match entries.get(idx) {
            Some((r, _)) => r.clone(),
            None => return Err(format!("{from} not in spec")),
        };
        let within = range.start >= owned.start
            && match (&range.end, &owned.end) {
                (Some(re), Some(oe)) => re <= oe,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => true,
            };
        if !within {
            return Err(format!("{range} is not within {from}'s range {owned}"));
        }
        let starts_at_edge = range.start == owned.start;
        let ends_at_edge = range.end == owned.end;
        match (starts_at_edge, ends_at_edge) {
            (true, true) => {
                entries.remove(idx);
            }
            (true, false) => {
                // `range` is a proper prefix; `from` keeps the suffix.
                // `range.end` must be `Some` here: a `None` end either
                // matches `owned.end` (handled above) or fails `within`.
                let rest_start = match &range.end {
                    Some(re) => re.clone(),
                    None => return Err(format!("{range} is not a prefix of {owned}")),
                };
                if let Some(slot) = entries.get_mut(idx) {
                    slot.0 = KeyRange {
                        start: rest_start,
                        end: owned.end.clone(),
                    };
                }
            }
            (false, true) => {
                // `range` is a proper suffix; `from` keeps the prefix.
                if let Some(slot) = entries.get_mut(idx) {
                    slot.0 = KeyRange::new(owned.start.clone(), range.start.clone());
                }
            }
            (false, false) => {
                return Err(format!(
                    "{range} shares neither edge of {from}'s range {owned}"
                ));
            }
        }
        match entries.iter().position(|(_, s)| *s == to) {
            Some(j) => {
                let existing = match entries.get(j) {
                    Some((r, _)) => r.clone(),
                    None => return Err(format!("{to} not in spec")),
                };
                let merged = existing
                    .merge(range)
                    .ok_or_else(|| format!("{to}'s range {existing} is not adjacent to {range}"))?;
                if let Some(slot) = entries.get_mut(j) {
                    slot.0 = merged;
                }
            }
            None => entries.push((range.clone(), to)),
        }
        ShardingSpec::new(entries)
    }

    /// Splits `parent`'s range at `at`: the left half goes to `left`,
    /// the right half to `right` (two fresh shard ids), and `parent`
    /// leaves the spec.
    pub fn split_shard(
        &self,
        parent: ShardId,
        at: &AppKey,
        left: ShardId,
        right: ShardId,
    ) -> Result<ShardingSpec, String> {
        if left == right {
            return Err(format!("split children must differ, got {left} twice"));
        }
        let owned = self
            .range_of(parent)
            .ok_or_else(|| format!("{parent} not in spec"))?;
        let (l, r) = owned
            .split_at(at)
            .ok_or_else(|| format!("split point {at} is not inside {owned}"))?;
        self.transfer_range(parent, &l, left)?
            .transfer_range(parent, &r, right)
    }

    /// Merges the adjacent ranges of `left` and `right` into the fresh
    /// shard id `into`; both sources leave the spec.
    pub fn merge_shards(
        &self,
        left: ShardId,
        right: ShardId,
        into: ShardId,
    ) -> Result<ShardingSpec, String> {
        let lr = self
            .range_of(left)
            .ok_or_else(|| format!("{left} not in spec"))?
            .clone();
        let rr = self
            .range_of(right)
            .ok_or_else(|| format!("{right} not in spec"))?
            .clone();
        if lr.merge(&rr).is_none() {
            return Err(format!("{left} ({lr}) and {right} ({rr}) are not adjacent"));
        }
        self.transfer_range(left, &lr, into)?
            .transfer_range(right, &rr, into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: &str) -> AppKey {
        AppKey::from(s)
    }

    #[test]
    fn range_contains_and_overlaps() {
        let r = KeyRange::new(k("b"), k("d"));
        assert!(!r.contains(&k("a")));
        assert!(r.contains(&k("b")));
        assert!(r.contains(&k("c")));
        assert!(!r.contains(&k("d")));

        assert!(r.overlaps(&KeyRange::new(k("c"), k("e"))));
        assert!(
            !r.overlaps(&KeyRange::new(k("d"), k("e"))),
            "touching ranges do not overlap"
        );
        assert!(r.overlaps(&KeyRange::from(k("a"))));
        assert!(KeyRange::full().overlaps(&r));
    }

    #[test]
    fn unbounded_range_contains_everything_above_start() {
        let r = KeyRange::from(k("m"));
        assert!(r.contains(&k("zzz")));
        assert!(!r.contains(&k("a")));
    }

    #[test]
    fn spec_rejects_overlap_and_duplicates() {
        let bad = ShardingSpec::new(vec![
            (KeyRange::new(k("a"), k("m")), ShardId(0)),
            (KeyRange::new(k("g"), k("z")), ShardId(1)),
        ]);
        assert!(bad.is_err());

        let dup = ShardingSpec::new(vec![
            (KeyRange::new(k("a"), k("b")), ShardId(0)),
            (KeyRange::new(k("b"), k("c")), ShardId(0)),
        ]);
        assert!(dup.is_err());

        let empty = ShardingSpec::new(vec![(KeyRange::new(k("b"), k("a")), ShardId(0))]);
        assert!(empty.is_err());
    }

    #[test]
    fn uneven_app_defined_shards_resolve_correctly() {
        // The paper's example: S0:[1,9], S1:[10,99], S2:[100,100000].
        let spec = ShardingSpec::new(vec![
            (
                KeyRange::new(AppKey::from_u64(1), AppKey::from_u64(10)),
                ShardId(0),
            ),
            (
                KeyRange::new(AppKey::from_u64(10), AppKey::from_u64(100)),
                ShardId(1),
            ),
            (
                KeyRange::new(AppKey::from_u64(100), AppKey::from_u64(100_001)),
                ShardId(2),
            ),
        ])
        .unwrap();
        assert_eq!(spec.shard_for(&AppKey::from_u64(1)), Some(ShardId(0)));
        assert_eq!(spec.shard_for(&AppKey::from_u64(9)), Some(ShardId(0)));
        assert_eq!(spec.shard_for(&AppKey::from_u64(10)), Some(ShardId(1)));
        assert_eq!(spec.shard_for(&AppKey::from_u64(55)), Some(ShardId(1)));
        assert_eq!(spec.shard_for(&AppKey::from_u64(100_000)), Some(ShardId(2)));
        assert_eq!(spec.shard_for(&AppKey::from_u64(0)), None, "gap below S0");
        assert_eq!(
            spec.shard_for(&AppKey::from_u64(200_000)),
            None,
            "gap above S2"
        );
    }

    #[test]
    fn uniform_covers_whole_space() {
        let spec = ShardingSpec::uniform_u64(16);
        for key in [0u64, 1, 12345, u64::MAX / 2, u64::MAX - 1, u64::MAX] {
            assert!(spec.shard_for(&AppKey::from_u64(key)).is_some());
        }
        assert_eq!(spec.shard_count(), 16);
    }

    #[test]
    fn prefix_scan_selects_minimal_shard_set() {
        let spec = ShardingSpec::new(vec![
            (KeyRange::new(k("a"), k("f")), ShardId(0)),
            (KeyRange::new(k("f"), k("n")), ShardId(1)),
            (KeyRange::new(k("n"), k("t")), ShardId(2)),
            (KeyRange::from(k("t")), ShardId(3)),
        ])
        .unwrap();
        assert_eq!(spec.shards_for_prefix(b"g"), vec![ShardId(1)]);
        // Prefix "f" spans exactly shard 1 ([f, n)).
        assert_eq!(spec.shards_for_prefix(b"f"), vec![ShardId(1)]);
        // Empty prefix = full scan.
        assert_eq!(spec.shards_for_prefix(b"").len(), 4);
        assert_eq!(spec.shards_for_prefix(b"zz"), vec![ShardId(3)]);
    }

    #[test]
    fn prefix_successor_handles_0xff() {
        assert_eq!(prefix_successor(b"a"), Some(b"b".to_vec()));
        assert_eq!(prefix_successor(&[0x01, 0xff]), Some(vec![0x02]));
        assert_eq!(prefix_successor(&[0xff, 0xff]), None);
    }

    #[test]
    fn u64_key_encoding_preserves_order() {
        let mut keys: Vec<u64> = vec![0, 1, 255, 256, 65535, 1 << 40, u64::MAX];
        keys.sort_unstable();
        let encoded: Vec<AppKey> = keys.iter().map(|&v| AppKey::from_u64(v)).collect();
        let mut sorted = encoded.clone();
        sorted.sort();
        assert_eq!(encoded, sorted);
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(k("user:42").to_string(), "user:42");
        assert_eq!(AppKey::new(vec![0x00, 0xab]).to_string(), "0x00ab");
        assert_eq!(KeyRange::new(k("a"), k("b")).to_string(), "[a, b)");
    }

    #[test]
    fn split_at_partitions_the_range() {
        let r = KeyRange::new(k("b"), k("h"));
        let (l, rr) = r.split_at(&k("e")).unwrap();
        assert_eq!(l, KeyRange::new(k("b"), k("e")));
        assert_eq!(rr, KeyRange::new(k("e"), k("h")));
        assert!(
            r.split_at(&k("b")).is_none(),
            "split at start is empty-left"
        );
        assert!(r.split_at(&k("h")).is_none(), "split at end is empty-right");
        assert!(r.split_at(&k("z")).is_none(), "split outside");

        let unbounded = KeyRange::from(k("m"));
        let (l, rr) = unbounded.split_at(&k("q")).unwrap();
        assert_eq!(l, KeyRange::new(k("m"), k("q")));
        assert_eq!(rr, KeyRange::from(k("q")));
    }

    #[test]
    fn midpoint_is_strictly_interior() {
        // u64-encoded bounds halve numerically.
        let r = KeyRange::new(AppKey::from_u64(0), AppKey::from_u64(1 << 32));
        let m = r.midpoint().unwrap();
        assert_eq!(m, AppKey::new(vec![0x00, 0x00, 0x00, 0x00, 0x80]));
        // Odd-width ranges gain at most one byte.
        let r = KeyRange::new(k("a"), k("b"));
        let m = r.midpoint().unwrap();
        assert_eq!(m.0, vec![0x61, 0x80]);
        // Unbounded end acts as 1.0.
        let m = KeyRange::full().midpoint().unwrap();
        assert_eq!(m.0, vec![0x80]);
        let m = KeyRange::from(AppKey::new(vec![0x80])).midpoint().unwrap();
        assert_eq!(m.0, vec![0xc0]);
        // No interior key -> unsplittable.
        assert!(KeyRange::new(k("a"), AppKey::new(b"a\x00".to_vec()))
            .midpoint()
            .is_none());
        // Interior exists even when bounds differ only deep in the tail.
        let r = KeyRange::new(k("a"), AppKey::new(b"a\x00\x01".to_vec()));
        let m = r.midpoint().unwrap();
        assert!(r.start < m);
        assert!(m < r.end.clone().unwrap());
    }

    #[test]
    fn merge_requires_adjacency() {
        let ab = KeyRange::new(k("a"), k("b"));
        let bc = KeyRange::new(k("b"), k("c"));
        let cd = KeyRange::new(k("c"), k("d"));
        assert_eq!(ab.merge(&bc), Some(KeyRange::new(k("a"), k("c"))));
        assert_eq!(
            bc.merge(&ab),
            Some(KeyRange::new(k("a"), k("c"))),
            "order-agnostic"
        );
        assert!(ab.merge(&cd).is_none(), "gap between the two");
        assert!(ab.merge(&ab).is_none(), "self-merge");
        let tail = KeyRange::from(k("b"));
        assert_eq!(ab.merge(&tail), Some(KeyRange::from(k("a"))));
    }

    #[test]
    fn spec_split_and_merge_round_trip() {
        let spec = ShardingSpec::uniform_u64(4);
        let parent = ShardId(1);
        let at = spec.range_of(parent).unwrap().midpoint().unwrap();
        let split = spec
            .split_shard(parent, &at, ShardId(4), ShardId(5))
            .unwrap();
        assert_eq!(split.shard_count(), 5);
        assert!(split.range_of(parent).is_none(), "parent left the spec");
        assert_eq!(split.shard_for(&at), Some(ShardId(5)));
        // Children partition the parent exactly.
        let l = split.range_of(ShardId(4)).unwrap();
        let r = split.range_of(ShardId(5)).unwrap();
        assert_eq!(l.merge(r), Some(spec.range_of(parent).unwrap().clone()));
        // Merging the children back restores the original geometry.
        let merged = split
            .merge_shards(ShardId(4), ShardId(5), ShardId(6))
            .unwrap();
        assert_eq!(merged.shard_count(), 4);
        assert_eq!(
            merged.range_of(ShardId(6)),
            spec.range_of(parent),
            "merged range equals the original parent range"
        );
    }

    #[test]
    fn spec_transfer_rejects_bad_shapes() {
        let spec = ShardingSpec::uniform_u64(2);
        let owned = spec.range_of(ShardId(0)).unwrap().clone();
        // Carving the middle is rejected.
        let a = owned.midpoint().unwrap();
        let inner_end = KeyRange::new(a.clone(), owned.end.clone().unwrap())
            .midpoint()
            .unwrap();
        let middle = KeyRange::new(a, inner_end);
        assert!(spec
            .transfer_range(ShardId(0), &middle, ShardId(9))
            .is_err());
        // Transfers to a non-adjacent existing shard are rejected.
        let spec3 = ShardingSpec::uniform_u64(3);
        let prefix = KeyRange::new(
            spec3.range_of(ShardId(0)).unwrap().start.clone(),
            spec3.range_of(ShardId(0)).unwrap().midpoint().unwrap(),
        );
        assert!(spec3
            .transfer_range(ShardId(0), &prefix, ShardId(2))
            .is_err());
        // Unknown shards, self-transfer, out-of-range.
        assert!(spec.transfer_range(ShardId(7), &owned, ShardId(9)).is_err());
        assert!(spec.transfer_range(ShardId(0), &owned, ShardId(0)).is_err());
        assert!(spec.transfer_range(ShardId(1), &owned, ShardId(9)).is_err());
        // Non-adjacent spec-level merge is rejected.
        assert!(spec3
            .merge_shards(ShardId(0), ShardId(2), ShardId(9))
            .is_err());
        assert_eq!(spec3.max_shard_id(), Some(ShardId(2)));
    }

    #[test]
    fn prefix64_preserves_order() {
        let keys: Vec<Vec<u8>> = vec![
            vec![],
            vec![0],
            vec![0, 0, 1],
            b"abc".to_vec(),
            b"abcdefgh".to_vec(),
            b"abcdefghi".to_vec(),
            vec![0xff; 12],
        ];
        for a in &keys {
            for b in &keys {
                if prefix64(a) < prefix64(b) {
                    assert!(a < b, "{a:?} {b:?}");
                }
                if a <= b {
                    assert!(prefix64(a) <= prefix64(b), "{a:?} {b:?}");
                }
            }
        }
    }

    /// A splitmix64 stream: seeded test data without a dependency.
    fn stream(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// A uniform spec, one split of it, and a merge of the split's
    /// children under a fresh id (shard ids out of key order).
    fn uniform_split_and_merged() -> Vec<ShardingSpec> {
        let uniform = ShardingSpec::uniform_u64(37);
        let at = uniform.range_of(ShardId(11)).unwrap().midpoint().unwrap();
        let split = uniform
            .split_shard(ShardId(11), &at, ShardId(40), ShardId(38))
            .unwrap();
        let merged = split
            .merge_shards(ShardId(40), ShardId(38), ShardId(3_000))
            .unwrap();
        vec![uniform, split, merged]
    }

    #[test]
    fn range_of_index_agrees_with_a_linear_scan() {
        for spec in uniform_split_and_merged() {
            let top = spec.max_shard_id().unwrap().0;
            for shard in (0..=top + 2).map(ShardId) {
                let linear = spec.iter().find(|(_, s)| *s == shard).map(|(r, _)| r);
                assert_eq!(spec.range_of(shard), linear, "{shard}");
            }
        }
    }

    #[test]
    fn prefix_search_agrees_with_partition_point() {
        // Bounds that tie on their first eight bytes, with a gap.
        let bounds: [&[u8]; 7] = [
            b"",
            b"abcdefgh",
            b"abcdefgh\0",
            b"abcdefghij",
            b"abcdefgi",
            b"b\xff\xff\xff\xff\xff\xff\xff",
            b"b\xff\xff\xff\xff\xff\xff\xff\x01",
        ];
        let mut ranges: Vec<(KeyRange, ShardId)> = bounds
            .windows(2)
            .zip(0u64..)
            .map(|(w, i)| {
                (
                    KeyRange::new(AppKey::new(w[0]), AppKey::new(w[1])),
                    ShardId(i),
                )
            })
            .collect();
        ranges.push((KeyRange::from(AppKey::new(b"c".to_vec())), ShardId(99)));
        let mut specs = uniform_split_and_merged();
        specs.push(ShardingSpec::new(ranges).unwrap());

        let alphabet = [0u8, 1, b'a', b'b', b'c', b'g', b'h', b'i', 0xfe, 0xff];
        let mut next = stream(0x5eed_0014);
        for spec in &specs {
            let mut keys: Vec<AppKey> = spec.iter().map(|(r, _)| r.start.clone()).collect();
            for _ in 0..4_000 {
                let len = (next() % 18) as usize;
                let bytes = (0..len)
                    .map(|_| alphabet[(next() % alphabet.len() as u64) as usize])
                    .collect::<Vec<u8>>();
                keys.push(AppKey::new(bytes));
                keys.push(AppKey::from_u64(next()));
            }
            for key in &keys {
                let idx = spec.entries.partition_point(|(r, _)| r.start <= *key);
                let want = idx
                    .checked_sub(1)
                    .map(|i| &spec.entries[i])
                    .and_then(|(r, s)| r.contains(key).then_some(*s));
                assert_eq!(spec.shard_for(key), want, "key {key}");
            }
        }
    }
}
