//! Shard-to-server assignments and the routed shard map.
//!
//! [`Assignment`] is the control plane's desired state: which server
//! holds which replica of which shard, in which role. [`ShardMap`] is the
//! versioned, client-facing view disseminated through service discovery
//! so routers can pick a server for a key (§3.2).
//!
//! Both hold their per-shard replica sets in one [`ShardEntries`]
//! table: fixed-width chunks of shard ids, each chunk an `Arc`'d sorted
//! slice. Publishing a map shares every chunk with the assignment; the
//! assignment copies a chunk only when it next changes a shard in it.
//! Cloning, diffing and dropping a map therefore cost O(chunks) plus
//! the chunks that changed, not O(shards).

use crate::ids::{ReplicaRole, ServerId, ShardId};
use std::sync::Arc;

/// One replica's placement: which server hosts it and in which role.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ReplicaAssignment {
    /// Hosting server.
    pub server: ServerId,
    /// Replica role.
    pub role: ReplicaRole,
}

/// The desired shard-to-server assignment for one application partition.
///
/// Invariants maintained by the mutating methods:
/// - a shard has at most one [`ReplicaRole::Primary`] replica;
/// - a server hosts at most one replica of a given shard.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Assignment {
    shards: ShardEntries,
}

impl Assignment {
    /// Creates an empty assignment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of shards with at least one replica.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total replica count across shards.
    pub fn replica_count(&self) -> usize {
        self.shards.iter().map(|(_, e)| e.replicas.len()).sum()
    }

    /// The replicas of `shard` (empty slice if unknown).
    pub fn replicas(&self, shard: ShardId) -> &[ReplicaAssignment] {
        self.shards
            .get(shard)
            .map(|e| e.replicas.as_slice())
            .unwrap_or(&[])
    }

    /// The server hosting the primary of `shard`, if any.
    pub fn primary_of(&self, shard: ShardId) -> Option<ServerId> {
        self.replicas(shard)
            .iter()
            .find(|r| r.role.is_primary())
            .map(|r| r.server)
    }

    /// Iterates over all `(shard, replica)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ShardId, &ReplicaAssignment)> {
        self.shards
            .iter()
            .flat_map(|(s, e)| e.replicas.iter().map(move |r| (s, r)))
    }

    /// Iterates over shard ids in ascending order.
    pub fn shard_ids(&self) -> impl Iterator<Item = ShardId> + '_ {
        self.shards.keys()
    }

    /// Shards hosted by `server`, with the role held there.
    pub fn shards_on(&self, server: ServerId) -> Vec<(ShardId, ReplicaRole)> {
        self.iter()
            .filter(|(_, r)| r.server == server)
            .map(|(s, r)| (s, r.role))
            .collect()
    }

    /// Adds a replica.
    ///
    /// Returns an error string if the server already hosts this shard or
    /// the shard already has a primary and `role` is primary.
    pub fn add_replica(
        &mut self,
        shard: ShardId,
        server: ServerId,
        role: ReplicaRole,
    ) -> Result<(), String> {
        let replicas = self.replicas(shard);
        if replicas.iter().any(|r| r.server == server) {
            return Err(format!("{server} already hosts {shard}"));
        }
        if role.is_primary() && replicas.iter().any(|r| r.role.is_primary()) {
            return Err(format!("{shard} already has a primary"));
        }
        self.shards
            .update(shard, |rs| rs.push(ReplicaAssignment { server, role }));
        Ok(())
    }

    /// Removes the replica of `shard` on `server`; returns whether one
    /// was removed.
    pub fn remove_replica(&mut self, shard: ShardId, server: ServerId) -> bool {
        if !self.replicas(shard).iter().any(|r| r.server == server) {
            return false;
        }
        self.shards
            .update(shard, |rs| rs.retain(|r| r.server != server));
        true
    }

    /// Moves the replica of `shard` from `from` to `to`, keeping its role.
    pub fn move_replica(
        &mut self,
        shard: ShardId,
        from: ServerId,
        to: ServerId,
    ) -> Result<(), String> {
        let role = self
            .replicas(shard)
            .iter()
            .find(|r| r.server == from)
            .map(|r| r.role)
            .ok_or_else(|| format!("{from} does not host {shard}"))?;
        if self.replicas(shard).iter().any(|r| r.server == to) {
            return Err(format!("{to} already hosts {shard}"));
        }
        self.remove_replica(shard, from);
        self.add_replica(shard, to, role)
    }

    /// Changes the role of the replica of `shard` on `server`.
    ///
    /// Promoting to primary fails if another replica is already primary;
    /// demote that one first.
    pub fn change_role(
        &mut self,
        shard: ShardId,
        server: ServerId,
        new_role: ReplicaRole,
    ) -> Result<(), String> {
        let replicas = self.replicas(shard);
        if new_role.is_primary()
            && replicas
                .iter()
                .any(|r| r.role.is_primary() && r.server != server)
        {
            return Err(format!("{shard} already has a primary elsewhere"));
        }
        if replicas.is_empty() {
            return Err(format!("unknown shard {shard}"));
        }
        if !replicas.iter().any(|r| r.server == server) {
            return Err(format!("{server} does not host {shard}"));
        }
        self.shards.update(shard, |rs| {
            for rep in rs.iter_mut().filter(|r| r.server == server) {
                rep.role = new_role;
            }
        });
        Ok(())
    }

    /// Drops every replica hosted by `server`, returning the shards (and
    /// roles) that lost a replica — the input to emergency re-placement.
    pub fn drop_server(&mut self, server: ServerId) -> Vec<(ShardId, ReplicaRole)> {
        let lost = self.shards_on(server);
        for (shard, _) in &lost {
            self.remove_replica(*shard, server);
        }
        lost
    }
}

/// One shard's entry in the client-facing map.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardMapEntry {
    /// Replicas in no particular order.
    pub replicas: Vec<ReplicaAssignment>,
}

impl ShardMapEntry {
    /// The primary's server, if the shard has one.
    pub fn primary(&self) -> Option<ServerId> {
        self.replicas
            .iter()
            .find(|r| r.role.is_primary())
            .map(|r| r.server)
    }

    /// All servers hosting this shard.
    pub fn servers(&self) -> impl Iterator<Item = ServerId> + '_ {
        self.replicas.iter().map(|r| r.server)
    }
}

/// log2 of the shard-id span of one [`ShardEntries`] chunk: chunk `c`
/// holds the shards whose ids satisfy `id >> CHUNK_BITS == c`.
const CHUNK_BITS: u32 = 6;

/// The chunk number of `shard`.
fn chunk_of(shard: ShardId) -> u64 {
    shard.0 >> CHUNK_BITS
}

/// One chunk's `(shard, entry)` pairs, sorted by shard id, never empty.
type Chunk = Vec<(ShardId, ShardMapEntry)>;

/// Per-shard replica sets in a chunked, copy-on-write table, shared by
/// an [`Assignment`] and every [`ShardMap`] published from it.
///
/// Chunks are fixed by shard id, so two tables holding the same entries
/// have the same layout, and the derived `PartialEq` and `Debug` are
/// deterministic. A clone copies the chunk list and bumps one reference
/// count per chunk. A mutation first copies the one chunk it touches if
/// another table still shares it ([`Arc::make_mut`]), so a chunk that
/// two tables share holds the same entries in both. Dropping a table
/// frees only the chunks no other table shares.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardEntries {
    /// `(chunk number, chunk)`, ascending by chunk number.
    chunks: Vec<(u64, Arc<Chunk>)>,
    /// Shards across all chunks.
    len: usize,
}

impl ShardEntries {
    /// Number of shards with an entry.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no shard has an entry.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The entry of `shard`, if it has one.
    pub fn get(&self, shard: ShardId) -> Option<&ShardMapEntry> {
        let pos = self
            .chunks
            .binary_search_by_key(&chunk_of(shard), |(k, _)| *k)
            .ok()?;
        let (_, chunk) = self.chunks.get(pos)?;
        let i = chunk.binary_search_by_key(&shard, |(s, _)| *s).ok()?;
        chunk.get(i).map(|(_, e)| e)
    }

    /// Iterates `(shard, entry)` pairs in shard order.
    pub fn iter(&self) -> impl Iterator<Item = (ShardId, &ShardMapEntry)> {
        self.chunks
            .iter()
            .flat_map(|(_, c)| c.iter().map(|(s, e)| (*s, e)))
    }

    /// Shard ids in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = ShardId> + '_ {
        self.iter().map(|(s, _)| s)
    }

    /// Applies `f` to `shard`'s replica list (empty when the shard has
    /// no entry), copying its chunk first if another table shares it.
    /// A shard left without replicas leaves the table, and a chunk left
    /// without shards leaves the chunk list.
    fn update<R>(&mut self, shard: ShardId, f: impl FnOnce(&mut Vec<ReplicaAssignment>) -> R) -> R {
        let key = chunk_of(shard);
        let pos = match self.chunks.binary_search_by_key(&key, |(k, _)| *k) {
            Ok(pos) => pos,
            Err(pos) => {
                self.chunks.insert(pos, (key, Arc::default()));
                pos
            }
        };
        let Some((_, shared)) = self.chunks.get_mut(pos) else {
            return f(&mut Vec::new());
        };
        let chunk = Arc::make_mut(shared);
        let i = match chunk.binary_search_by_key(&shard, |(s, _)| *s) {
            Ok(i) => i,
            Err(i) => {
                chunk.insert(i, (shard, ShardMapEntry::default()));
                self.len += 1;
                i
            }
        };
        let Some((_, entry)) = chunk.get_mut(i) else {
            return f(&mut Vec::new());
        };
        let out = f(&mut entry.replicas);
        if entry.replicas.is_empty() {
            chunk.remove(i);
            self.len -= 1;
        }
        if chunk.is_empty() {
            self.chunks.remove(pos);
        }
        out
    }
}

/// A versioned snapshot of shard placements, disseminated to clients via
/// service discovery (§3.2). Versions increase monotonically; routers
/// ignore maps older than what they already hold.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ShardMap {
    /// Monotonic version.
    pub version: u64,
    /// Per-shard placement, sharing its chunks with the assignment the
    /// map was built from and with the maps before and after it.
    pub entries: ShardEntries,
}

impl ShardMap {
    /// Builds a map at `version` from an [`Assignment`]. Cost is
    /// O(chunks): the map shares every chunk with the assignment.
    pub fn from_assignment(version: u64, assignment: &Assignment) -> Self {
        Self {
            version,
            entries: assignment.shards.clone(),
        }
    }

    /// Looks up one shard.
    pub fn entry(&self, shard: ShardId) -> Option<&ShardMapEntry> {
        self.entries.get(shard)
    }

    /// Number of shards in the map.
    pub fn shard_count(&self) -> usize {
        self.entries.len()
    }
}

/// Sentinel for "this span has no primary replica".
pub const NO_PRIMARY: u32 = u32::MAX;

/// One shard's replica span inside a [`DenseShardTable`]: a window into
/// the flat server array plus the primary's offset within that window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplicaSpan {
    /// First replica's index in the flat server array.
    pub start: u32,
    /// Number of replicas.
    pub len: u32,
    /// Offset of the primary within the span, or [`NO_PRIMARY`].
    pub primary: u32,
}

/// A dense, immutable, cache-friendly rendering of a [`ShardMap`]:
/// shard ids in one sorted slice, replica sets packed into one flat
/// server array addressed by per-shard [`ReplicaSpan`]s.
///
/// This is the request plane's working form. A `BTreeMap` walk per
/// routed request costs pointer chases and branchy node comparisons;
/// the dense table resolves `shard -> replica set` with one binary
/// search over a contiguous `u64`-sized id slice and one span read,
/// and replica iteration is a plain slice — no per-route allocation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DenseShardTable {
    /// Shard ids, ascending (the search key column).
    shard_ids: Vec<ShardId>,
    /// Per-shard replica spans, parallel to `shard_ids`.
    spans: Vec<ReplicaSpan>,
    /// All replicas' servers, addressed span by span. A full build
    /// packs them; [`Self::patched`] may leave slack behind.
    servers: Vec<ServerId>,
    /// Servers the spans address; the rest of `servers` is slack.
    live: usize,
}

/// Offset of the first primary in `replicas`, or [`NO_PRIMARY`].
fn primary_offset(replicas: &[ReplicaAssignment]) -> u32 {
    replicas
        .iter()
        .position(|r| r.role.is_primary())
        .map_or(NO_PRIMARY, |i| i as u32)
}

impl DenseShardTable {
    /// Flattens a [`ShardMap`] (ordered, so the id column comes out
    /// sorted without an extra sort pass).
    pub fn from_map(map: &ShardMap) -> Self {
        let mut shard_ids = Vec::with_capacity(map.entries.len());
        let mut spans = Vec::with_capacity(map.entries.len());
        let mut servers = Vec::with_capacity(map.entries.len() * 2);
        for (shard, entry) in map.entries.iter() {
            let start = servers.len() as u32;
            servers.extend(entry.replicas.iter().map(|r| r.server));
            shard_ids.push(shard);
            spans.push(ReplicaSpan {
                start,
                len: entry.replicas.len() as u32,
                primary: primary_offset(&entry.replicas),
            });
        }
        let live = servers.len();
        Self {
            shard_ids,
            spans,
            servers,
            live,
        }
    }

    /// The table of `new`, patched from `self`, the table of `old`.
    ///
    /// Copies the flat columns and rewrites only the shards of the
    /// chunks `new` no longer shares with `old` (`Arc::ptr_eq`). That
    /// is sound because a shared chunk is copied before it changes, and
    /// because the caller holds `old`, so no chunk it shares can be
    /// freed and its address reused. A shard whose replica set grew
    /// moves to the end of the server column.
    ///
    /// Returns `None`, asking for a full [`Self::from_map`], when the
    /// two maps hold different shard ids (a split or merge), or when
    /// the slack that moved spans leave behind would outgrow the live
    /// servers (the full build packs them again).
    ///
    /// `self` must be the table of `old`, built by `from_map` or by an
    /// earlier patch.
    pub fn patched(&self, old: &ShardMap, new: &ShardMap) -> Option<Self> {
        let (old, new) = (&old.entries.chunks, &new.entries.chunks);
        if old.len() != new.len() {
            return None;
        }
        // Pass 1: check that the shard ids match, and size the columns.
        let mut grown = 0usize;
        let mut live = self.live;
        let mut base = 0usize;
        for ((old_key, old_chunk), (new_key, new_chunk)) in old.iter().zip(new) {
            if old_key != new_key || old_chunk.len() != new_chunk.len() {
                return None;
            }
            if !Arc::ptr_eq(old_chunk, new_chunk) {
                for (i, ((was, _), (shard, entry))) in
                    old_chunk.iter().zip(new_chunk.iter()).enumerate()
                {
                    if was != shard {
                        return None;
                    }
                    let had = self.spans.get(base + i)?.len as usize;
                    let has = entry.replicas.len();
                    live = live + has - had;
                    if has > had {
                        grown += has;
                    }
                }
            }
            base += new_chunk.len();
        }
        if self.servers.len() + grown > 2 * live {
            return None;
        }
        // Pass 2: copy the columns and rewrite the changed shards.
        let mut spans = self.spans.clone();
        let mut servers = Vec::with_capacity(self.servers.len() + grown);
        servers.extend_from_slice(&self.servers);
        let mut base = 0usize;
        for ((_, old_chunk), (_, new_chunk)) in old.iter().zip(new) {
            if !Arc::ptr_eq(old_chunk, new_chunk) {
                for (i, (_, entry)) in new_chunk.iter().enumerate() {
                    let span = spans.get_mut(base + i)?;
                    let replicas = entry.replicas.iter().map(|r| r.server);
                    let len = entry.replicas.len() as u32;
                    if len > span.len {
                        span.start = servers.len() as u32;
                        servers.extend(replicas);
                    } else {
                        let start = span.start as usize;
                        let slots = servers.get_mut(start..start + len as usize)?;
                        for (slot, server) in slots.iter_mut().zip(replicas) {
                            *slot = server;
                        }
                    }
                    span.len = len;
                    span.primary = primary_offset(&entry.replicas);
                }
            }
            base += new_chunk.len();
        }
        Some(Self {
            shard_ids: self.shard_ids.clone(),
            spans,
            servers,
            live,
        })
    }

    /// Shard ids, ascending: the slot of each shard is its index.
    pub fn shard_ids(&self) -> &[ShardId] {
        &self.shard_ids
    }

    /// Number of shards in the table.
    pub fn len(&self) -> usize {
        self.shard_ids.len()
    }

    /// True when the table holds no shards.
    pub fn is_empty(&self) -> bool {
        self.shard_ids.is_empty()
    }

    /// The dense slot of `shard`, if present (binary search).
    // sm-lint: hot-path
    pub fn slot_of(&self, shard: ShardId) -> Option<usize> {
        self.shard_ids.binary_search(&shard).ok()
    }

    /// The shard occupying `slot`.
    pub fn shard_at(&self, slot: usize) -> Option<ShardId> {
        self.shard_ids.get(slot).copied()
    }

    /// The replica servers of `slot` as a contiguous slice (empty for
    /// an out-of-range slot).
    // sm-lint: hot-path
    pub fn servers_at(&self, slot: usize) -> &[ServerId] {
        match self.spans.get(slot) {
            Some(span) => self
                .servers
                .get(span.start as usize..(span.start + span.len) as usize)
                .unwrap_or(&[]),
            None => &[],
        }
    }

    /// The primary server of `slot`, if the shard has one.
    // sm-lint: hot-path
    pub fn primary_at(&self, slot: usize) -> Option<ServerId> {
        let span = self.spans.get(slot)?;
        if span.primary == NO_PRIMARY {
            return None;
        }
        self.servers
            .get((span.start + span.primary) as usize)
            .copied()
    }

    /// Iterates `(shard, replica servers)` in shard order.
    pub fn iter(&self) -> impl Iterator<Item = (ShardId, &[ServerId])> + '_ {
        (0..self.len()).filter_map(move |slot| Some((self.shard_at(slot)?, self.servers_at(slot))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(n: u64) -> ShardId {
        ShardId(n)
    }
    fn srv(n: u32) -> ServerId {
        ServerId(n)
    }

    #[test]
    fn add_and_lookup() {
        let mut a = Assignment::new();
        a.add_replica(s(1), srv(1), ReplicaRole::Primary).unwrap();
        a.add_replica(s(1), srv(2), ReplicaRole::Secondary).unwrap();
        assert_eq!(a.primary_of(s(1)), Some(srv(1)));
        assert_eq!(a.replicas(s(1)).len(), 2);
        assert_eq!(a.shard_count(), 1);
        assert_eq!(a.replica_count(), 2);
    }

    #[test]
    fn rejects_two_primaries() {
        let mut a = Assignment::new();
        a.add_replica(s(1), srv(1), ReplicaRole::Primary).unwrap();
        assert!(a.add_replica(s(1), srv(2), ReplicaRole::Primary).is_err());
    }

    #[test]
    fn rejects_same_server_twice() {
        let mut a = Assignment::new();
        a.add_replica(s(1), srv(1), ReplicaRole::Secondary).unwrap();
        assert!(a.add_replica(s(1), srv(1), ReplicaRole::Secondary).is_err());
    }

    #[test]
    fn move_preserves_role() {
        let mut a = Assignment::new();
        a.add_replica(s(1), srv(1), ReplicaRole::Primary).unwrap();
        a.move_replica(s(1), srv(1), srv(9)).unwrap();
        assert_eq!(a.primary_of(s(1)), Some(srv(9)));
        assert!(a.move_replica(s(1), srv(1), srv(2)).is_err());
    }

    #[test]
    fn move_to_occupied_server_fails() {
        let mut a = Assignment::new();
        a.add_replica(s(1), srv(1), ReplicaRole::Primary).unwrap();
        a.add_replica(s(1), srv(2), ReplicaRole::Secondary).unwrap();
        assert!(a.move_replica(s(1), srv(1), srv(2)).is_err());
    }

    #[test]
    fn change_role_promote_demote() {
        let mut a = Assignment::new();
        a.add_replica(s(1), srv(1), ReplicaRole::Primary).unwrap();
        a.add_replica(s(1), srv(2), ReplicaRole::Secondary).unwrap();
        // Cannot promote while another primary exists.
        assert!(a.change_role(s(1), srv(2), ReplicaRole::Primary).is_err());
        a.change_role(s(1), srv(1), ReplicaRole::Secondary).unwrap();
        a.change_role(s(1), srv(2), ReplicaRole::Primary).unwrap();
        assert_eq!(a.primary_of(s(1)), Some(srv(2)));
    }

    #[test]
    fn drop_server_reports_lost_replicas() {
        let mut a = Assignment::new();
        a.add_replica(s(1), srv(1), ReplicaRole::Primary).unwrap();
        a.add_replica(s(2), srv(1), ReplicaRole::Secondary).unwrap();
        a.add_replica(s(2), srv(2), ReplicaRole::Primary).unwrap();
        let lost = a.drop_server(srv(1));
        assert_eq!(lost.len(), 2);
        assert_eq!(a.replicas(s(1)).len(), 0);
        assert_eq!(a.replicas(s(2)).len(), 1);
        assert_eq!(a.shard_count(), 1, "empty shard entry is pruned");
    }

    #[test]
    fn shard_map_snapshot() {
        let mut a = Assignment::new();
        a.add_replica(s(1), srv(1), ReplicaRole::Primary).unwrap();
        a.add_replica(s(1), srv(2), ReplicaRole::Secondary).unwrap();
        let map = ShardMap::from_assignment(7, &a);
        assert_eq!(map.version, 7);
        let entry = map.entry(s(1)).unwrap();
        assert_eq!(entry.primary(), Some(srv(1)));
        assert_eq!(entry.servers().count(), 2);
        assert!(map.entry(s(99)).is_none());
    }

    /// 300 shards over five chunks, replica counts 1 to 3.
    fn spread() -> Assignment {
        let mut a = Assignment::new();
        for i in 0..300u64 {
            a.add_replica(s(i), srv(i as u32 % 7), ReplicaRole::Primary)
                .unwrap();
            for r in 1..=(i % 3) {
                a.add_replica(s(i), srv(100 + r as u32), ReplicaRole::Secondary)
                    .unwrap();
            }
        }
        a
    }

    #[test]
    fn layout_is_canonical_whatever_the_insert_order() {
        let mut forward = Assignment::new();
        let mut backward = Assignment::new();
        for i in 0..200u64 {
            forward
                .add_replica(s(i * 3), srv(1), ReplicaRole::Primary)
                .unwrap();
            backward
                .add_replica(s((199 - i) * 3), srv(1), ReplicaRole::Primary)
                .unwrap();
        }
        forward
            .add_replica(s(1000), srv(2), ReplicaRole::Primary)
            .unwrap();
        forward.remove_replica(s(1000), srv(2));
        assert_eq!(forward, backward);
        assert_eq!(format!("{forward:?}"), format!("{backward:?}"));
        assert_eq!(forward.shard_count(), 200);
    }

    #[test]
    fn a_published_map_keeps_its_entries_while_the_assignment_moves_on() {
        let mut a = spread();
        let v1 = ShardMap::from_assignment(1, &a);
        let before: Vec<(ShardId, Vec<ServerId>)> = v1
            .entries
            .iter()
            .map(|(sh, e)| (sh, e.servers().collect()))
            .collect();
        a.move_replica(s(5), srv(5), srv(50)).unwrap();
        a.change_role(s(70), srv(0), ReplicaRole::Secondary)
            .unwrap();
        a.remove_replica(s(294), srv(0));
        a.add_replica(s(900), srv(9), ReplicaRole::Primary).unwrap();
        let after: Vec<(ShardId, Vec<ServerId>)> = v1
            .entries
            .iter()
            .map(|(sh, e)| (sh, e.servers().collect()))
            .collect();
        assert_eq!(before, after, "v1 is unchanged");
        let v2 = ShardMap::from_assignment(2, &a);
        assert_eq!(v2.entry(s(5)).unwrap().primary(), Some(srv(50)));
        assert_eq!(v2.entry(s(70)).unwrap().primary(), None);
        assert!(v2.entry(s(294)).is_none());
        assert_eq!(v2.shard_count(), 300, "294 left, 900 came");
        // Chunks 0, 1 and 4 changed (900 opened chunk 14); 2 and 3
        // are still shared.
        let shared = v1
            .entries
            .chunks
            .iter()
            .filter(|(k, c)| {
                v2.entries
                    .chunks
                    .iter()
                    .any(|(k2, c2)| k == k2 && Arc::ptr_eq(c, c2))
            })
            .count();
        assert_eq!(shared, 2);
    }

    /// Every slot's shard, servers and primary.
    fn rows(t: &DenseShardTable) -> Vec<(ShardId, Vec<ServerId>, Option<ServerId>)> {
        (0..t.len())
            .map(|slot| {
                let shard = t.shard_at(slot).unwrap();
                (shard, t.servers_at(slot).to_vec(), t.primary_at(slot))
            })
            .collect()
    }

    #[test]
    fn a_patched_table_reads_like_a_full_build() {
        let mut a = spread();
        let mut old = ShardMap::from_assignment(1, &a);
        let mut table = DenseShardTable::from_map(&old);
        let mut patches = 0;
        for step in 0..60u64 {
            let shard = s((step * 37) % 300);
            match step % 4 {
                0 => {
                    let from = a.replicas(shard)[0].server;
                    a.move_replica(shard, from, srv(200 + step as u32)).unwrap();
                }
                1 => {
                    a.add_replica(shard, srv(300 + step as u32), ReplicaRole::Secondary)
                        .unwrap();
                }
                2 if a.replicas(shard).len() > 1 => {
                    let last = a.replicas(shard).last().unwrap().server;
                    a.remove_replica(shard, last);
                }
                _ => {
                    if let Some(p) = a.primary_of(shard) {
                        a.change_role(shard, p, ReplicaRole::Secondary).unwrap();
                    }
                }
            }
            let new = ShardMap::from_assignment(step + 2, &a);
            let full = DenseShardTable::from_map(&new);
            table = match table.patched(&old, &new) {
                Some(t) => {
                    patches += 1;
                    t
                }
                None => full.clone(),
            };
            assert_eq!(rows(&table), rows(&full), "step {step}");
            old = new;
        }
        assert!(patches > 50, "only {patches} patches");

        // A new shard id (a split's child) asks for a full build.
        a.add_replica(s(301), srv(1), ReplicaRole::Primary).unwrap();
        assert!(table
            .patched(&old, &ShardMap::from_assignment(99, &a))
            .is_none());
    }
}
