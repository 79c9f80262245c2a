//! The immutable per-(app, version) resolution kernel.
//!
//! A [`ResolvedMap`] is built once per installed shard-map version and
//! never mutated: key → shard resolution is a binary search over a
//! sorted slice of range starts (accelerated by a packed 8-byte key
//! prefix column, so most comparisons are a single `u64` compare), and
//! shard → replica-set resolution is a [`DenseShardTable`] span read.
//! Each range entry also carries its shard's *precomputed* dense slot,
//! so the common `route(key)` path is **one** binary search plus two
//! array reads — no `BTreeMap` walk, no allocation, no locking.
//!
//! The range columns depend on the spec alone, so they live apart in
//! [`SpecColumns`], built once per spec and shared by `Arc` across the
//! kernels of every map installed under it: an install builds only the
//! slot column and the replica table, and clones no key. Most installs
//! build even less: [`ResolvedMap::install`] copies the previous
//! kernel and rewrites only the shards whose chunks of the shared
//! shard table changed.
//!
//! Both [`crate::ServiceRouter`] (single-threaded, DES worlds) and
//! [`crate::ConcurrentRouter`] (epoch-swapped, shared by N threads)
//! route through this kernel, so the deterministic oracles exercise the
//! exact code the throughput bench measures.

use crate::router::RouteDecision;
use sm_types::keys::{prefix64, starts_at_or_below};
use sm_types::{AppKey, DenseShardTable, ServerId, ShardId, ShardMap, ShardingSpec, SmError};
use std::sync::Arc;

/// Sentinel slot for "this range's shard is absent from the map".
const NO_SLOT: u32 = u32::MAX;

/// A sharding spec resolved into flat sorted columns: the key → range
/// half of a [`ResolvedMap`].
///
/// It depends on the spec alone, so it is built once per spec
/// registration and shared by `Arc` across every map installed under
/// that spec; a map install then clones no key.
#[derive(Clone, Debug, Default)]
pub struct SpecColumns {
    /// 8-byte big-endian prefixes of `starts`, the binary-search
    /// fast column.
    starts_p64: Vec<u64>,
    /// Range start keys, ascending (the tie-break column).
    starts: Vec<AppKey>,
    /// Range end keys (`None` = unbounded), parallel to `starts`.
    ends: Vec<Option<AppKey>>,
    /// Owning shard of each range.
    range_shards: Vec<ShardId>,
    /// `(shard, range index)` sorted by shard id: the order a full
    /// kernel build merges against the dense table's id column.
    by_shard: Vec<(ShardId, u32)>,
}

impl SpecColumns {
    /// Resolves `spec` into columns. Cost is O(ranges), paid once per
    /// spec, off the read path.
    pub fn build(spec: &ShardingSpec) -> Self {
        let ranges = spec.shard_count();
        let mut out = Self {
            starts_p64: spec.start_prefixes().to_vec(),
            starts: Vec::with_capacity(ranges),
            ends: Vec::with_capacity(ranges),
            range_shards: Vec::with_capacity(ranges),
            by_shard: spec.ranges_by_shard().to_vec(),
        };
        // `ShardingSpec::iter` yields ranges sorted by start, so the
        // columns come out sorted without another sort pass.
        for (range, shard) in spec.iter() {
            out.starts.push(range.start.clone());
            out.ends.push(range.end.clone());
            out.range_shards.push(*shard);
        }
        out
    }

    /// Index and owning shard of the range containing `key`, or `None`
    /// when the key falls in a gap.
    ///
    /// `partition_point`-style binary search over the start column
    /// ([`starts_at_or_below`]): the prefix column decides all but
    /// prefix-tied comparisons with one `u64` compare each.
    // sm-lint: hot-path
    fn covering_range(&self, key: &AppKey) -> Option<(usize, ShardId)> {
        let idx = starts_at_or_below(&self.starts_p64, prefix64(&key.0), |i| {
            self.starts.get(i).is_some_and(|s| s <= key)
        })
        .checked_sub(1)?;
        match self.ends.get(idx)? {
            Some(end) if key >= end => None,
            _ => Some((idx, *self.range_shards.get(idx)?)),
        }
    }
}

/// One app's shard map resolved against its (shared) spec columns for
/// allocation-free, lock-free-read routing.
#[derive(Clone, Debug, Default)]
pub struct ResolvedMap {
    /// The shard-map version this kernel was built from.
    version: u64,
    /// The spec's range columns, when a spec was available at build
    /// time (key routing needs one; shard-direct routing does not).
    columns: Option<Arc<SpecColumns>>,
    /// Precomputed dense slot of each range's shard ([`NO_SLOT`] when
    /// the shard is not in the map), parallel to the columns.
    range_slots: Vec<u32>,
    /// Shard → replica-set table.
    table: DenseShardTable,
}

impl ResolvedMap {
    /// Resolves `spec` (if known) against `map` into the dense form.
    ///
    /// Cost is O(ranges + shards) and clones every range key; routers
    /// that install many maps under one spec use [`Self::install`]
    /// instead.
    pub fn build(spec: Option<&ShardingSpec>, map: &ShardMap) -> Self {
        Self::with_columns(spec.map(|s| Arc::new(SpecColumns::build(s))), map)
    }

    /// Resolves `map` against already-built spec columns: the full
    /// build. Cost is O(ranges + shards) with a constant number of
    /// allocations, the slot column and the dense table; the slot
    /// column is filled by one merge of the spec's shard-sorted ranges
    /// with the table's id column.
    pub fn with_columns(columns: Option<Arc<SpecColumns>>, map: &ShardMap) -> Self {
        let table = DenseShardTable::from_map(map);
        let range_slots = match &columns {
            Some(cols) => {
                let mut slots = vec![NO_SLOT; cols.range_shards.len()];
                let ids = table.shard_ids();
                let mut slot = 0usize;
                for &(shard, range) in &cols.by_shard {
                    while ids.get(slot).is_some_and(|s| *s < shard) {
                        slot += 1;
                    }
                    if ids.get(slot) == Some(&shard) {
                        if let Some(out) = slots.get_mut(range as usize) {
                            *out = slot as u32;
                        }
                    }
                }
                slots
            }
            None => Vec::new(),
        };
        Self {
            version: map.version,
            columns,
            range_slots,
            table,
        }
    }

    /// The kernel a router installs for `map`, given the kernel it
    /// holds now and the map that kernel was built from (`None` on a
    /// first install). The one install path of both routers.
    ///
    /// When `prev` was built over the same `columns` and its map holds
    /// the same shard ids, the kernel is patched: the slot column is
    /// copied as is and the dense table rewrites only the shards whose
    /// chunks changed ([`DenseShardTable::patched`]). Otherwise (first
    /// install, new spec, split or merge) it is a full
    /// [`Self::with_columns`] build. Both allocate the same columns.
    pub fn install(
        prev: Option<(&ResolvedMap, &ShardMap)>,
        columns: Option<Arc<SpecColumns>>,
        map: &ShardMap,
    ) -> Self {
        let same_columns = |kernel: &ResolvedMap| {
            kernel.columns.as_ref().map(Arc::as_ptr) == columns.as_ref().map(Arc::as_ptr)
        };
        let patched = prev
            .filter(|(kernel, _)| same_columns(kernel))
            .and_then(|(kernel, old)| Some((kernel, kernel.table.patched(old, map)?)));
        match patched {
            Some((kernel, table)) => Self {
                version: map.version,
                columns,
                range_slots: kernel.range_slots.clone(),
                table,
            },
            None => Self::with_columns(columns, map),
        }
    }

    /// The shard-map version this kernel resolves.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Whether key → shard resolution is available (a spec was known
    /// at build time).
    pub fn has_spec(&self) -> bool {
        self.columns.is_some()
    }

    /// The dense shard → replica-set table (for nearest-replica and
    /// other whole-replica-set policies).
    pub fn table(&self) -> &DenseShardTable {
        &self.table
    }

    /// Resolves the shard owning `key`, or `None` for gap keys / no
    /// spec.
    // sm-lint: hot-path
    pub fn shard_for(&self, key: &AppKey) -> Option<ShardId> {
        let (_, shard) = self.columns.as_deref()?.covering_range(key)?;
        Some(shard)
    }

    /// Routes `key` preferring the shard's primary; secondary-only
    /// shards round-robin across replicas via the caller-owned cursor.
    ///
    /// One binary search (range → shard + precomputed slot), then span
    /// reads — no allocation on any path.
    // sm-lint: hot-path
    pub fn route(&self, key: &AppKey, rr_cursor: &mut u64) -> Result<RouteDecision, SmError> {
        let covering = self.columns.as_deref().and_then(|c| c.covering_range(key));
        let Some((idx, shard)) = covering else {
            return Err(SmError::not_found(format!("no shard covers key {key}")));
        };
        let slot = self.range_slots.get(idx).copied().unwrap_or(NO_SLOT);
        if slot == NO_SLOT {
            return Err(SmError::Unavailable(format!(
                "{shard} not in map v{}",
                self.version
            )));
        }
        self.decide(shard, slot as usize, rr_cursor)
    }

    /// Routes directly to `shard`, preferring its primary.
    // sm-lint: hot-path
    pub fn route_shard(
        &self,
        shard: ShardId,
        rr_cursor: &mut u64,
    ) -> Result<RouteDecision, SmError> {
        let slot = self
            .table
            .slot_of(shard)
            .ok_or_else(|| SmError::Unavailable(format!("{shard} not in map v{}", self.version)))?;
        self.decide(shard, slot, rr_cursor)
    }

    /// Picks a server for an already-resolved `(shard, slot)` pair.
    // sm-lint: hot-path
    fn decide(
        &self,
        shard: ShardId,
        slot: usize,
        rr_cursor: &mut u64,
    ) -> Result<RouteDecision, SmError> {
        let server = match self.table.primary_at(slot) {
            Some(primary) => primary,
            None => {
                // Secondary-only: round-robin straight off the replica
                // span — no intermediate Vec.
                let replicas = self.table.servers_at(slot);
                *rr_cursor = rr_cursor.wrapping_add(1);
                let n = replicas.len();
                let picked = match n {
                    0 => None,
                    _ => replicas.get((*rr_cursor as usize) % n).copied(),
                };
                picked.ok_or_else(|| SmError::Unavailable(format!("{shard} has no replicas")))?
            }
        };
        Ok(RouteDecision {
            shard,
            server,
            map_version: self.version,
        })
    }

    /// The replica servers of `shard` as a slice (empty when absent) —
    /// the nearest-replica policy iterates this without allocating.
    // sm-lint: hot-path
    pub fn servers_of(&self, shard: ShardId) -> &[ServerId] {
        match self.table.slot_of(shard) {
            Some(slot) => self.table.servers_at(slot),
            None => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_types::{AppId, Assignment, KeyRange, ReplicaRole};

    fn assignment(shards: u64) -> Assignment {
        let mut a = Assignment::new();
        for s in 0..shards {
            a.add_replica(ShardId(s), ServerId(s as u32), ReplicaRole::Primary)
                .unwrap();
            a.add_replica(ShardId(s), ServerId(s as u32 + 100), ReplicaRole::Secondary)
                .unwrap();
        }
        a
    }

    #[test]
    fn kernel_agrees_with_spec_shard_for() {
        let spec = ShardingSpec::uniform_u64(64);
        let map = ShardMap::from_assignment(3, &assignment(64));
        let r = ResolvedMap::build(Some(&spec), &map);
        assert_eq!(r.version(), 3);
        for i in 0..5000u64 {
            let key = AppKey::from_u64(i.wrapping_mul(0x9E3779B97F4A7C15));
            assert_eq!(r.shard_for(&key), spec.shard_for(&key), "key {key}");
        }
        // Long / short byte-string keys exercise the prefix tie-break.
        for raw in [b"".to_vec(), b"abc".to_vec(), vec![0xff; 16], vec![0u8; 9]] {
            let key = AppKey::new(raw);
            assert_eq!(r.shard_for(&key), spec.shard_for(&key), "key {key}");
        }
    }

    #[test]
    fn gap_keys_are_not_found() {
        // S0:[10,20), S1:[30,40) with gaps around them.
        let spec = ShardingSpec::new(vec![
            (
                KeyRange::new(AppKey::from_u64(10), AppKey::from_u64(20)),
                ShardId(0),
            ),
            (
                KeyRange::new(AppKey::from_u64(30), AppKey::from_u64(40)),
                ShardId(1),
            ),
        ])
        .unwrap();
        let map = ShardMap::from_assignment(1, &assignment(2));
        let r = ResolvedMap::build(Some(&spec), &map);
        let mut rr = 0u64;
        assert_eq!(r.shard_for(&AppKey::from_u64(15)), Some(ShardId(0)));
        assert_eq!(r.shard_for(&AppKey::from_u64(5)), None);
        assert_eq!(r.shard_for(&AppKey::from_u64(25)), None);
        assert_eq!(r.shard_for(&AppKey::from_u64(45)), None);
        let err = r.route(&AppKey::from_u64(25), &mut rr).unwrap_err();
        assert!(matches!(err, SmError::NotFound(_)), "{err}");
    }

    #[test]
    fn routes_to_primary_and_round_robins_secondaries() {
        let spec = ShardingSpec::uniform_u64(4);
        let map = ShardMap::from_assignment(2, &assignment(4));
        let r = ResolvedMap::build(Some(&spec), &map);
        let mut rr = 0u64;
        let d = r.route(&AppKey::from_u64(0), &mut rr).unwrap();
        assert_eq!(d.shard, ShardId(0));
        assert_eq!(d.server, ServerId(0));
        assert_eq!(d.map_version, 2);

        // Secondary-only shard round-robins without allocating.
        let mut a = Assignment::new();
        for srv in [1u32, 2, 3] {
            a.add_replica(ShardId(0), ServerId(srv), ReplicaRole::Secondary)
                .unwrap();
        }
        let spec = ShardingSpec::uniform_u64(1);
        let r = ResolvedMap::build(Some(&spec), &ShardMap::from_assignment(1, &a));
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..9 {
            seen.insert(r.route(&AppKey::from_u64(7), &mut rr).unwrap().server);
        }
        assert_eq!(seen.len(), 3, "all three secondaries used");
    }

    #[test]
    fn missing_shard_and_missing_spec_errors() {
        // Spec says 4 shards but the map only has 2 of them.
        let spec = ShardingSpec::uniform_u64(4);
        let map = ShardMap::from_assignment(1, &assignment(2));
        let r = ResolvedMap::build(Some(&spec), &map);
        let mut rr = 0u64;
        let err = r.route(&AppKey::from_u64(u64::MAX), &mut rr).unwrap_err();
        assert!(matches!(err, SmError::Unavailable(_)), "{err}");
        assert!(err.to_string().contains("not in map v1"), "{err}");

        // No spec: key routing is NotFound, shard routing still works.
        let r = ResolvedMap::build(None, &ShardMap::from_assignment(1, &assignment(2)));
        assert!(!r.has_spec());
        assert_eq!(r.shard_for(&AppKey::from_u64(0)), None);
        let d = r.route_shard(ShardId(1), &mut rr).unwrap();
        assert_eq!(d.server, ServerId(1));
    }

    #[test]
    fn servers_of_exposes_replica_spans() {
        let map = ShardMap::from_assignment(1, &assignment(2));
        let r = ResolvedMap::build(None, &map);
        assert_eq!(r.servers_of(ShardId(0)), &[ServerId(0), ServerId(100)]);
        assert!(r.servers_of(ShardId(9)).is_empty());
        let _ = AppId(0); // silence unused import on narrow builds
    }
}
