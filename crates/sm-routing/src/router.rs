//! The client-side service router library.
//!
//! `get_client(app_name, key)` in the paper (§3.3) resolves a key to an
//! RPC client for the right application server. [`ServiceRouter`] is
//! that resolution logic: sharding spec (key -> shard) plus the latest
//! received shard map (shard -> servers), with primary-preferring and
//! nearest-replica policies.
//!
//! Since the concurrent request plane landed, `ServiceRouter` is a thin
//! single-threaded wrapper over the same immutable [`ResolvedMap`]
//! kernel that [`crate::ConcurrentRouter`] publishes: each installed
//! map is resolved once into the dense form, and every route is one
//! binary search with no per-route allocation. The deterministic DES
//! worlds therefore oracle-check the exact code the threaded bench
//! measures.

use crate::resolved::{ResolvedMap, SpecColumns};
use sm_sim::LatencyModel;
use sm_types::{AppId, AppKey, RegionId, ServerId, ShardId, ShardMap, ShardingSpec, SmError};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

/// Where a request should go.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RouteDecision {
    /// The shard owning the key.
    pub shard: ShardId,
    /// The chosen server.
    pub server: ServerId,
    /// The map version the decision was based on (for staleness
    /// diagnostics).
    pub map_version: u64,
}

/// One client process's router state.
#[derive(Debug, Default)]
pub struct ServiceRouter {
    specs: BTreeMap<AppId, ShardingSpec>,
    /// Each registered spec's range columns, built once per
    /// registration and shared by every kernel resolved under it.
    columns: BTreeMap<AppId, Arc<SpecColumns>>,
    maps: BTreeMap<AppId, Rc<ShardMap>>,
    /// Per-app resolution kernels, rebuilt on spec/map changes.
    resolved: BTreeMap<AppId, Rc<ResolvedMap>>,
    /// Region of each application server, for nearest-replica routing.
    server_regions: BTreeMap<ServerId, RegionId>,
    /// Round-robin cursor for secondary-only apps.
    rr_cursor: u64,
}

impl ServiceRouter {
    /// Creates an empty router.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an app's (app-defined) sharding spec.
    pub fn register_app(&mut self, app: AppId, spec: ShardingSpec) {
        let columns = Arc::new(SpecColumns::build(&spec));
        if let Some(map) = self.maps.get(&app) {
            let resolved = ResolvedMap::with_columns(Some(Arc::clone(&columns)), map);
            self.resolved.insert(app, Rc::new(resolved));
        }
        self.columns.insert(app, columns);
        self.specs.insert(app, spec);
    }

    /// Installs an updated sharding spec received from discovery — the
    /// resharding counterpart of [`Self::install_map`]. Since adaptive
    /// splitting landed, the spec is no longer static: every split or
    /// merge commit rewrites it, and clients must swap to the new
    /// key→shard function together with the map that first references
    /// the new shard ids. The resolution kernel is rebuilt immediately.
    pub fn install_spec(&mut self, app: AppId, spec: ShardingSpec) {
        self.register_app(app, spec);
    }

    /// Installs a shard map received from discovery; stale versions are
    /// ignored and reported as `false`.
    pub fn install_map(&mut self, app: AppId, map: Rc<ShardMap>) -> bool {
        match self.maps.get(&app) {
            Some(existing) if map.version <= existing.version => false,
            _ => {
                let columns = self.columns.get(&app).cloned();
                let prev = self.resolved.get(&app).zip(self.maps.get(&app));
                let resolved = ResolvedMap::install(
                    prev.map(|(k, m)| (k.as_ref(), m.as_ref())),
                    columns,
                    &map,
                );
                self.resolved.insert(app, Rc::new(resolved));
                self.maps.insert(app, map);
                true
            }
        }
    }

    /// Records a server's region (for nearest-replica routing).
    pub fn set_server_region(&mut self, server: ServerId, region: RegionId) {
        self.server_regions.insert(server, region);
    }

    /// The map version currently installed for `app` (0 if none).
    pub fn map_version(&self, app: AppId) -> u64 {
        self.maps.get(&app).map(|m| m.version).unwrap_or(0)
    }

    /// Resolves the shard owning `key`.
    pub fn shard_for(&self, app: AppId, key: &AppKey) -> Result<ShardId, SmError> {
        let spec = self
            .specs
            .get(&app)
            .ok_or_else(|| SmError::not_found(format!("app {app} not registered")))?;
        spec.shard_for(key)
            .ok_or_else(|| SmError::not_found(format!("no shard covers key {key}")))
    }

    /// Routes `key` preferring the shard's primary; secondary-only
    /// shards round-robin across replicas.
    // sm-lint: hot-path
    pub fn route(&mut self, app: AppId, key: &AppKey) -> Result<RouteDecision, SmError> {
        if let Some(resolved) = self.resolved.get(&app) {
            if resolved.has_spec() {
                return resolved.route(key, &mut self.rr_cursor);
            }
        }
        // No usable kernel: reproduce the legacy error order (app
        // registration, then key coverage, then map availability).
        self.shard_for(app, key)?;
        Err(SmError::Unavailable(format!("no shard map for {app}")))
    }

    /// Routes directly to a shard, preferring its primary.
    // sm-lint: hot-path
    pub fn route_shard(&mut self, app: AppId, shard: ShardId) -> Result<RouteDecision, SmError> {
        match self.resolved.get(&app) {
            Some(resolved) => resolved.route_shard(shard, &mut self.rr_cursor),
            None => Err(SmError::Unavailable(format!("no shard map for {app}"))),
        }
    }

    /// Routes `key` to the replica whose region is closest to
    /// `client_region` under `latency` — how geo-distributed reads pick
    /// a local replica (§8.3).
    pub fn route_nearest(
        &self,
        app: AppId,
        key: &AppKey,
        client_region: RegionId,
        latency: &LatencyModel,
    ) -> Result<RouteDecision, SmError> {
        let shard = self.shard_for(app, key)?;
        let resolved = self
            .resolved
            .get(&app)
            .ok_or_else(|| SmError::Unavailable(format!("no shard map for {app}")))?;
        let replicas = resolved.servers_of(shard);
        if replicas.is_empty() && resolved.table().slot_of(shard).is_none() {
            return Err(SmError::Unavailable(format!(
                "{shard} not in map v{}",
                resolved.version()
            )));
        }
        let server = replicas
            .iter()
            .copied()
            .min_by(|a, b| {
                let la = self.server_distance(client_region, *a, latency);
                let lb = self.server_distance(client_region, *b, latency);
                // NaN (a corrupt latency table) degrades to an
                // arbitrary-but-served replica instead of panicking.
                la.partial_cmp(&lb).unwrap_or(std::cmp::Ordering::Equal)
            })
            .ok_or_else(|| SmError::Unavailable(format!("{shard} has no replicas")))?;
        Ok(RouteDecision {
            shard,
            server,
            map_version: resolved.version(),
        })
    }

    fn server_distance(&self, from: RegionId, server: ServerId, latency: &LatencyModel) -> f64 {
        match self.server_regions.get(&server) {
            Some(r) => latency.base_ms(from, *r),
            None => f64::INFINITY,
        }
    }

    /// The shards a prefix scan must visit, in key order (§3.1 —
    /// app-key sharding preserves key locality).
    pub fn shards_for_prefix(&self, app: AppId, prefix: &[u8]) -> Result<Vec<ShardId>, SmError> {
        let spec = self
            .specs
            .get(&app)
            .ok_or_else(|| SmError::not_found(format!("app {app} not registered")))?;
        Ok(spec.shards_for_prefix(prefix))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_types::{Assignment, ReplicaRole};

    const APP: AppId = AppId(1);

    fn router_with(assignment: &Assignment, version: u64) -> ServiceRouter {
        let mut r = ServiceRouter::new();
        r.register_app(APP, ShardingSpec::uniform_u64(4));
        r.install_map(APP, Rc::new(ShardMap::from_assignment(version, assignment)));
        r
    }

    fn assignment_with_primary() -> Assignment {
        let mut a = Assignment::new();
        for s in 0..4 {
            a.add_replica(ShardId(s), ServerId(s as u32), ReplicaRole::Primary)
                .unwrap();
            a.add_replica(ShardId(s), ServerId(s as u32 + 10), ReplicaRole::Secondary)
                .unwrap();
        }
        a
    }

    #[test]
    fn routes_to_primary() {
        let mut r = router_with(&assignment_with_primary(), 1);
        let d = r.route(APP, &AppKey::from_u64(0)).unwrap();
        assert_eq!(d.shard, ShardId(0));
        assert_eq!(d.server, ServerId(0));
        assert_eq!(d.map_version, 1);
        let d = r.route(APP, &AppKey::from_u64(u64::MAX)).unwrap();
        assert_eq!(d.shard, ShardId(3));
        assert_eq!(d.server, ServerId(3));
    }

    #[test]
    fn secondary_only_round_robins() {
        let mut a = Assignment::new();
        for srv in [1u32, 2, 3] {
            a.add_replica(ShardId(0), ServerId(srv), ReplicaRole::Secondary)
                .unwrap();
        }
        let mut r = ServiceRouter::new();
        r.register_app(APP, ShardingSpec::uniform_u64(1));
        r.install_map(APP, Rc::new(ShardMap::from_assignment(1, &a)));
        let mut seen = std::collections::HashSet::new();
        for _ in 0..9 {
            seen.insert(r.route(APP, &AppKey::from_u64(5)).unwrap().server);
        }
        assert_eq!(seen.len(), 3, "all replicas used");
    }

    #[test]
    fn stale_map_install_is_ignored() {
        let a = assignment_with_primary();
        let mut r = router_with(&a, 5);
        assert!(!r.install_map(APP, Rc::new(ShardMap::from_assignment(4, &a))));
        assert!(!r.install_map(APP, Rc::new(ShardMap::from_assignment(5, &a))));
        assert!(r.install_map(APP, Rc::new(ShardMap::from_assignment(6, &a))));
        assert_eq!(r.map_version(APP), 6);
    }

    #[test]
    fn unknown_app_and_missing_map_errors() {
        let mut r = ServiceRouter::new();
        let err = r.route(AppId(9), &AppKey::from_u64(1)).unwrap_err();
        assert!(matches!(err, SmError::NotFound(_)));

        r.register_app(APP, ShardingSpec::uniform_u64(2));
        let err = r.route(APP, &AppKey::from_u64(1)).unwrap_err();
        assert!(matches!(err, SmError::Unavailable(_)));
        assert!(err.is_retryable());
    }

    #[test]
    fn spec_registered_after_map_still_routes() {
        // Dissemination can race registration: the map arrives first.
        let mut r = ServiceRouter::new();
        let map = ShardMap::from_assignment(2, &assignment_with_primary());
        r.install_map(APP, Rc::new(map));
        // Shard-direct routing works without a spec; key routing after
        // late registration picks up the already-installed map.
        assert!(r.route_shard(APP, ShardId(1)).is_ok());
        assert!(r.route(APP, &AppKey::from_u64(0)).is_err());
        r.register_app(APP, ShardingSpec::uniform_u64(4));
        let d = r.route(APP, &AppKey::from_u64(0)).unwrap();
        assert_eq!(d.server, ServerId(0));
        assert_eq!(d.map_version, 2);
    }

    #[test]
    fn install_spec_reroutes_keys_after_a_split() {
        // Before the split: shard 0 owns the low quarter of the
        // keyspace from server 0.
        let mut r = router_with(&assignment_with_primary(), 1);
        let key = AppKey::from_u64(1);
        assert_eq!(r.route(APP, &key).unwrap().shard, ShardId(0));

        // The control plane splits shard 0 into shards 4 and 5 and
        // publishes the rewritten spec plus the map that first carries
        // the children.
        let spec = ShardingSpec::uniform_u64(4);
        let range = spec.range_of(ShardId(0)).unwrap();
        let at = range.midpoint().unwrap();
        let spec = spec
            .split_shard(ShardId(0), &at, ShardId(4), ShardId(5))
            .unwrap();
        let mut a = assignment_with_primary();
        a.drop_server(ServerId(0));
        a.add_replica(ShardId(4), ServerId(20), ReplicaRole::Primary)
            .unwrap();
        a.add_replica(ShardId(5), ServerId(21), ReplicaRole::Primary)
            .unwrap();
        r.install_spec(APP, spec);
        assert!(r.install_map(APP, Rc::new(ShardMap::from_assignment(2, &a))));

        // Low half of the old range → left child, high half → right,
        // untouched shards unchanged.
        let d = r.route(APP, &key).unwrap();
        assert_eq!((d.shard, d.server), (ShardId(4), ServerId(20)));
        let d = r.route(APP, &AppKey::from_u64(u64::MAX / 4 - 1)).unwrap();
        assert_eq!((d.shard, d.server), (ShardId(5), ServerId(21)));
        let d = r.route(APP, &AppKey::from_u64(u64::MAX)).unwrap();
        assert_eq!((d.shard, d.server), (ShardId(3), ServerId(3)));
    }

    #[test]
    fn nearest_replica_routing() {
        let mut a = Assignment::new();
        a.add_replica(ShardId(0), ServerId(1), ReplicaRole::Secondary)
            .unwrap();
        a.add_replica(ShardId(0), ServerId(2), ReplicaRole::Secondary)
            .unwrap();
        let mut r = ServiceRouter::new();
        r.register_app(APP, ShardingSpec::uniform_u64(1));
        r.install_map(APP, Rc::new(ShardMap::from_assignment(1, &a)));
        r.set_server_region(ServerId(1), RegionId(0)); // FRC
        r.set_server_region(ServerId(2), RegionId(2)); // ODN
        let latency = LatencyModel::frc_prn_odn();
        // Client at FRC picks the FRC replica.
        let d = r
            .route_nearest(APP, &AppKey::from_u64(3), RegionId(0), &latency)
            .unwrap();
        assert_eq!(d.server, ServerId(1));
        // Client at ODN picks the ODN replica.
        let d = r
            .route_nearest(APP, &AppKey::from_u64(3), RegionId(2), &latency)
            .unwrap();
        assert_eq!(d.server, ServerId(2));
    }

    #[test]
    fn prefix_shards_pass_through() {
        let r = {
            let mut r = ServiceRouter::new();
            r.register_app(APP, ShardingSpec::uniform_u64(8));
            r
        };
        let all = r.shards_for_prefix(APP, b"").unwrap();
        assert_eq!(all.len(), 8);
    }
}
