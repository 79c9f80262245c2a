//! Differential tests for the shared spec columns.
//!
//! Both routers build a spec's range columns once, at registration,
//! and resolve every later map install against them. These tests pin
//! that sharing to the unshared reference — a fresh
//! `ResolvedMap::build(spec, map)` per map — over keys that stress the
//! 8-byte prefix column (short, long and prefix-tied keys), across
//! consecutive installs, and across the spec rewrites a split or merge
//! makes, so a router never routes with a stale spec.
//!
//! Installs patch the previous kernel wherever only replica sets
//! changed (`ResolvedMap::install`); a seeded walk of moves,
//! promotions, replica changes, a split, a merge, skipped versions and
//! stale installs pins every patched kernel to the fresh build too.

use sm_routing::{ConcurrentRouter, ResolvedMap, RouterHandle, ServiceRouter};
use sm_sim::SimRng;
use sm_types::{
    AppId, AppKey, Assignment, KeyRange, ReplicaRole, ServerId, ShardId, ShardMap, ShardingSpec,
};
use std::rc::Rc;
use std::sync::Arc;

const APP: AppId = AppId(3);

fn key(bytes: &[u8]) -> AppKey {
    AppKey::new(bytes.to_vec())
}

/// Ranges whose bounds share long prefixes (several tie on their first
/// eight bytes), with a gap between `c` and `d`.
fn prefix_tied_spec() -> ShardingSpec {
    let bounds: [&[u8]; 9] = [
        b"",
        b"a",
        b"abcdefgh",
        b"abcdefgh\0",
        b"abcdefghij",
        b"abcdefgi",
        b"b",
        b"b\xff\xff\xff\xff\xff\xff\xffz",
        b"c",
    ];
    let mut entries: Vec<(KeyRange, ShardId)> = bounds
        .windows(2)
        .zip(0u64..)
        .map(|(w, i)| (KeyRange::new(key(w[0]), key(w[1])), ShardId(i)))
        .collect();
    entries.push((KeyRange::from(key(b"d")), ShardId(8)));
    ShardingSpec::new(entries).expect("disjoint ranges")
}

/// Sample keys: every bound, its neighbours one byte longer or
/// shorter, and seeded random keys of 0–16 bytes over an alphabet
/// that makes prefix ties common.
fn sample_keys(spec: &ShardingSpec) -> Vec<AppKey> {
    let mut keys = Vec::new();
    for (range, _) in spec.iter() {
        for bound in std::iter::once(&range.start).chain(range.end.as_ref()) {
            let b = &bound.0;
            keys.push(bound.clone());
            keys.push(key(&[b.as_slice(), b"\0"].concat()));
            keys.push(key(&[b.as_slice(), b"\xff"].concat()));
            if let Some((_, head)) = b.split_last() {
                keys.push(key(head));
            }
        }
    }
    let alphabet = [0u8, b'a', b'b', b'c', b'd', b'e', b'g', b'h', b'i', 0xff];
    let mut rng = SimRng::seeded(0x05ee_dc01);
    for _ in 0..2000 {
        let len = rng.index(17);
        let bytes: Vec<u8> = (0..len)
            .map(|_| alphabet[rng.index(alphabet.len())])
            .collect();
        keys.push(AppKey::new(bytes));
    }
    keys.extend((0..64u64).map(|i| AppKey::from_u64(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))));
    keys
}

/// The map at `version` over the spec's shards: every third shard is
/// secondary-only (round-robin path), and one shard per version is
/// left out (the not-in-map path).
fn map_for(spec: &ShardingSpec, version: u64) -> ShardMap {
    let ids: Vec<ShardId> = spec.shard_ids().collect();
    let mut a = Assignment::new();
    for (i, shard) in ids.iter().enumerate() {
        if (i as u64) == version % ids.len() as u64 {
            continue;
        }
        let base = (shard.0 + version) as u32;
        if shard.0 % 3 == 0 {
            for r in 0..3 {
                a.add_replica(*shard, ServerId(base + r), ReplicaRole::Secondary)
                    .expect("distinct servers");
            }
        } else {
            a.add_replica(*shard, ServerId(base), ReplicaRole::Primary)
                .expect("one primary");
        }
    }
    ShardMap::from_assignment(version, &a)
}

/// Asserts that both routers route every key, and every shard id up to
/// one past the spec's largest, exactly as a fresh kernel built from
/// `spec` and `map` does. Each router's round-robin cursor is mirrored
/// by a reference cursor advanced by the same routes.
fn assert_routes_like_fresh_build(
    spec: &ShardingSpec,
    map: &ShardMap,
    keys: &[AppKey],
    handle: &mut RouterHandle,
    service: &mut ServiceRouter,
    rr: &mut [u64; 2],
) {
    let fresh = ResolvedMap::build(Some(spec), map);
    for k in keys {
        let want = format!("{:?}", fresh.route(k, &mut rr[0]));
        let got = format!("{:?}", handle.route(APP, k));
        assert_eq!(got, want, "concurrent router, v{}, key {k}", map.version);
        let want = format!("{:?}", fresh.route(k, &mut rr[1]));
        let got = format!("{:?}", service.route(APP, k));
        assert_eq!(got, want, "service router, v{}, key {k}", map.version);
    }
    let top = spec.max_shard_id().map_or(0, |s| s.0 + 1);
    for shard in (0..=top).map(ShardId) {
        let want = format!("{:?}", fresh.route_shard(shard, &mut rr[0]));
        let got = format!("{:?}", handle.route_shard(APP, shard));
        assert_eq!(got, want, "concurrent router, v{}, {shard}", map.version);
        let want = format!("{:?}", fresh.route_shard(shard, &mut rr[1]));
        let got = format!("{:?}", service.route_shard(APP, shard));
        assert_eq!(got, want, "service router, v{}, {shard}", map.version);
    }
}

#[test]
fn shared_columns_route_like_a_fresh_build_across_installs() {
    let spec = prefix_tied_spec();
    let keys = sample_keys(&spec);
    let router = Arc::new(ConcurrentRouter::new());
    router.register_app(APP, spec.clone());
    let mut handle = router.handle().expect("a free reader slot");
    let mut service = ServiceRouter::new();
    service.register_app(APP, spec.clone());
    let mut rr = [0u64; 2];
    for version in 1..=12 {
        let map = map_for(&spec, version);
        assert!(router.install_map(APP, map.clone()));
        assert!(service.install_map(APP, Rc::new(map.clone())));
        assert_routes_like_fresh_build(&spec, &map, &keys, &mut handle, &mut service, &mut rr);
    }
    // The keys reached every outcome: routed, gap, and not-in-map.
    let fresh = ResolvedMap::build(Some(&spec), &map_for(&spec, 1));
    let outcomes: Vec<_> = keys.iter().map(|k| fresh.route(k, &mut 0)).collect();
    assert!(outcomes.iter().any(|r| r.is_ok()));
    assert!(outcomes
        .iter()
        .any(|r| matches!(r, Err(e) if e.to_string().contains("no shard covers"))));
    assert!(outcomes
        .iter()
        .any(|r| matches!(r, Err(e) if e.to_string().contains("not in map"))));
}

#[test]
fn a_split_or_merge_spec_rebuilds_the_columns_in_both_routers() {
    let mut spec = ShardingSpec::uniform_u64(4);
    let router = Arc::new(ConcurrentRouter::new());
    router.register_app(APP, spec.clone());
    let mut handle = router.handle().expect("a free reader slot");
    let mut service = ServiceRouter::new();
    service.register_app(APP, spec.clone());
    let mut rr = [0u64; 2];
    let mut version = 1;
    let map = map_for(&spec, version);
    router.install_map(APP, map.clone());
    service.install_map(APP, Rc::new(map));

    // Split shard 1 into 4 and 5, then merge them back into 6.
    let parent = spec.range_of(ShardId(1)).expect("shard 1").clone();
    let at = parent.midpoint().expect("wide enough to split");
    let split = spec
        .split_shard(ShardId(1), &at, ShardId(4), ShardId(5))
        .expect("split");
    let merged = split
        .merge_shards(ShardId(4), ShardId(5), ShardId(6))
        .expect("merge");
    let inside = [
        parent.start.clone(),
        at.clone(),
        AppKey::from_u64(u64::MAX / 4 + 12345),
    ];
    let mut keys = sample_keys(&merged);
    keys.extend(inside.iter().cloned());

    for (next, via_install_spec) in [(split, true), (merged, false)] {
        router.register_app(APP, next.clone());
        if via_install_spec {
            service.install_spec(APP, next.clone());
        } else {
            service.register_app(APP, next.clone());
        }
        // Before the map naming the new shards arrives, the old map is
        // resolved against the new spec: the moved range routes nowhere
        // yet rather than to a shard the spec no longer has.
        let old_map = map_for(&spec, version);
        assert_routes_like_fresh_build(&next, &old_map, &keys, &mut handle, &mut service, &mut rr);
        for k in &inside {
            let e = handle
                .route(APP, k)
                .expect_err("new shard not in the old map");
            assert!(e.to_string().contains("not in map"), "{e}");
        }
        version += 1;
        let map = map_for(&next, version);
        assert!(router.install_map(APP, map.clone()));
        assert!(service.install_map(APP, Rc::new(map.clone())));
        assert_routes_like_fresh_build(&next, &map, &keys, &mut handle, &mut service, &mut rr);
        spec = next;
    }
}

/// One random replica-set change: a move, a promotion, an added or a
/// removed replica (a shard always keeps one).
fn mutate(a: &mut Assignment, rng: &mut SimRng, servers: u32) {
    let shards: Vec<ShardId> = a.shard_ids().collect();
    let shard = shards[rng.index(shards.len())];
    let replicas = a.replicas(shard).to_vec();
    let free = (0..servers)
        .map(ServerId)
        .filter(|s| replicas.iter().all(|r| r.server != *s))
        .nth(rng.index(4))
        .expect("a free server");
    match rng.index(4) {
        0 => {
            let from = replicas[rng.index(replicas.len())].server;
            a.move_replica(shard, from, free).expect("move");
        }
        1 => {
            let to = replicas[rng.index(replicas.len())].server;
            if let Some(primary) = a.primary_of(shard) {
                a.change_role(shard, primary, ReplicaRole::Secondary)
                    .expect("demote");
            }
            if rng.chance(0.8) {
                a.change_role(shard, to, ReplicaRole::Primary)
                    .expect("promote");
            }
        }
        2 => a
            .add_replica(shard, free, ReplicaRole::Secondary)
            .expect("add"),
        _ if replicas.len() > 1 => {
            let gone = replicas[rng.index(replicas.len())].server;
            assert!(a.remove_replica(shard, gone));
        }
        _ => {}
    }
}

/// Replaces `from`'s replicas with one primary for each of `to`.
fn reshard(a: &mut Assignment, from: &[ShardId], to: &[ShardId], base: u32) {
    for shard in from {
        for r in a.replicas(*shard).to_vec() {
            a.remove_replica(*shard, r.server);
        }
    }
    for (shard, server) in to.iter().zip(base..) {
        a.add_replica(*shard, ServerId(server), ReplicaRole::Primary)
            .expect("fresh shard");
    }
}

#[test]
fn a_seeded_walk_of_map_changes_routes_like_a_fresh_build() {
    const SHARDS: u64 = 256;
    const SERVERS: u32 = 40;
    let mut rng = SimRng::seeded(0x5eed_0c0e);
    let mut spec = ShardingSpec::uniform_u64(SHARDS);
    let mut a = Assignment::new();
    for s in 0..SHARDS {
        let base = (s % SERVERS as u64) as u32;
        a.add_replica(ShardId(s), ServerId(base), ReplicaRole::Primary)
            .expect("one primary");
        for r in 1..=(s % 3) as u32 {
            a.add_replica(
                ShardId(s),
                ServerId((base + r) % SERVERS),
                ReplicaRole::Secondary,
            )
            .expect("distinct servers");
        }
    }
    let router = Arc::new(ConcurrentRouter::new());
    router.register_app(APP, spec.clone());
    let mut handle = router.handle().expect("a free reader slot");
    let mut service = ServiceRouter::new();
    service.register_app(APP, spec.clone());
    let mut rr = [0u64; 2];
    let mut keys: Vec<AppKey> = (0..300).map(|_| AppKey::from_u64(rng.next_u64())).collect();

    let mut version = 0;
    let mut installed: Option<ShardMap> = None;
    let (mut installs, mut skipped, mut stale) = (0, 0, 0);
    for step in 0..240 {
        if step == 80 || step == 160 {
            let top = spec.max_shard_id().expect("non-empty").0;
            let (from, to, next) = if step == 80 {
                // Split shard 100 into two fresh ids.
                let parent = ShardId(100);
                let range = spec.range_of(parent).expect("shard 100").clone();
                let at = range.midpoint().expect("splittable");
                keys.extend([range.start.clone(), at.clone()]);
                let (l, r) = (ShardId(top + 1), ShardId(top + 2));
                let next = spec.split_shard(parent, &at, l, r).expect("split");
                (vec![parent], vec![l, r], next)
            } else {
                // Merge the split's children back under one fresh id.
                let (l, r) = (ShardId(SHARDS), ShardId(SHARDS + 1));
                let into = ShardId(top + 1);
                let next = spec.merge_shards(l, r, into).expect("merge");
                (vec![l, r], vec![into], next)
            };
            reshard(&mut a, &from, &to, 0);
            spec = next;
            router.register_app(APP, spec.clone());
            service.install_spec(APP, spec.clone());
        } else {
            for _ in 0..1 + rng.index(6) {
                mutate(&mut a, &mut rng, SERVERS);
            }
        }
        version += 1 + rng.index(2) as u64;
        let map = ShardMap::from_assignment(version, &a);
        if step % 80 != 0 && rng.chance(0.2) {
            // This version never reaches the routers: the next install
            // diffs against an older map.
            skipped += 1;
            continue;
        }
        assert!(router.install_map(APP, map.clone()));
        assert!(service.install_map(APP, Rc::new(map.clone())));
        installs += 1;
        if let Some(old) = installed.filter(|_| rng.chance(0.25)) {
            // A late duplicate of an older version is refused.
            assert!(!router.install_map(APP, old.clone()));
            assert!(!service.install_map(APP, Rc::new(old)));
            stale += 1;
        }
        assert_routes_like_fresh_build(&spec, &map, &keys, &mut handle, &mut service, &mut rr);
        installed = Some(map);
    }
    assert!(
        installs > 150 && skipped > 20 && stale > 20,
        "{installs} {skipped} {stale}"
    );
}
