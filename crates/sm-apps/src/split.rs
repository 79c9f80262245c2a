//! Skew-storm resharding chaos: a seeded discrete-event world in which
//! one key range goes viral mid-run, the adaptive [`SplitScaler`]
//! splits the hot shard (and later merges the cooled children back),
//! and a [`FaultProfile::SplitChaos`] plan lands crashes, session
//! expiries, partitions, and a lossy-net window specifically inside the
//! prepare/forward/cutover phases of in-flight splits and merges.
//!
//! The world wires a bare [`Orchestrator`] with a registered
//! [`ShardingSpec`] to a fleet of primary-only hosts implementing the
//! generalized §4.3 forwarding states: during a split the parent keeps
//! its data but forwards each request to the prepared child covering
//! its key; during a merge both sources forward to the prepared target.
//! Clients route by key through a real [`ServiceRouter`] fed the
//! orchestrator's spec + map on a refresh cadence, so stale-map windows
//! exercise the forwarding chains exactly as production would.
//!
//! Safety is judged by the [`Oracle`]:
//!
//! - **KeyspaceCoverage** — on every sweep the authoritative spec's
//!   ranges must partition the key space: no gap, no overlap, first
//!   range anchored at the minimum key, exactly the last unbounded.
//! - **DualPrimary** — at every served request, at most one live host
//!   is willing to serve that key directly (children in prepare state
//!   only accept forwarded traffic, so a pre-commit child never counts).
//! - **LostRequest** — every issued request is eventually served;
//!   availability is preserved through splits, merges, aborts, and the
//!   fault plan (a request exhausting its retry budget is a violation).
//! - **Unconverged / RouterDivergence** — at the end every spec shard
//!   has a primary, nothing is stuck mid-operation, and the client
//!   router agrees with the assignment.
//!
//! The documented mutation switch ([`SplitConfig::skip_cutover_ack`])
//! commits a split/merge when the cutover RPCs are *sent* instead of
//! when they are acked; a cutover lost to the lossy window then leaves
//! a child that owns a range in the spec but never started serving —
//! clients retry into it forever and the oracle reports the lost
//! requests. `tests/split.rs` proves the oracle catches it. The whole
//! run is a pure function of `(config, plan)`.

use crate::world::{loc, DstConfig, FaultWorld, Kernel, Report, RpcEvent, RpcHost};
use sm_allocator::{AllocConfig, MoveCaps};
use sm_core::{
    OrchCommand, Orchestrator, OrchestratorConfig, ServerRpc, SplitScaler, SplitScalerConfig,
};
use sm_routing::ServiceRouter;
use sm_sim::faults::{fault_plan, Fault, FaultProfile};
use sm_sim::net::Endpoint;
use sm_sim::{Ctx, SimDuration, SimTime, World};
use sm_types::{
    AppId, AppKey, AppPolicy, KeyRange, LoadVector, Metric, ReplicaRole, ServerId, ShardId,
    ShardingSpec,
};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

/// The single application this world runs.
const APP: AppId = AppId(0);

/// Shape of one skew-storm run. The fault schedule derives from
/// `(seed, profile)`, so the run reproduces from this config alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SplitConfig {
    /// Seed for traffic, fault schedule, and network draws.
    pub seed: u64,
    /// Application servers (ids `0..servers`).
    pub servers: u32,
    /// Initial shards (ids `0..shards`), a uniform u64 spec.
    pub shards: u64,
    /// Concurrent request generators.
    pub clients: u32,
    /// Gap between one client's requests.
    pub request_interval: SimDuration,
    /// Backoff before a failed request re-routes and retries.
    pub retry_delay: SimDuration,
    /// Retry budget; exhausting it is a [`InvariantKind::LostRequest`].
    pub max_attempts: u32,
    /// One-way network latency.
    pub rpc_latency: SimDuration,
    /// Cadence of load collection + adaptive resharding decisions.
    pub reshard_interval: SimDuration,
    /// Cadence of client router refresh (spec + map pull).
    pub refresh_interval: SimDuration,
    /// The viral window: 80% of keys land in one narrow range between
    /// these two instants.
    pub storm_start: SimTime,
    /// End of the viral window; traffic cools and merges begin.
    pub storm_end: SimTime,
    /// Clients stop here; in-flight work drains.
    pub traffic_end: SimTime,
    /// Periodic scans stop here; must leave room for the last retries.
    pub end: SimTime,
    /// Fault-plan profile.
    pub profile: FaultProfile,
    /// False freezes the spec (the static-sharding baseline the bench
    /// bin contrasts): load reports still flow but the scaler never
    /// runs, so the viral range has no remedy.
    pub adaptive: bool,
    /// DST mutation switch: commit the split/merge when the cutover
    /// RPCs are sent instead of acked. Never set outside
    /// `tests/split.rs` — it exists to prove the availability argument
    /// has teeth.
    pub skip_cutover_ack: bool,
}

impl SplitConfig {
    /// The compact shape the swarm and the tier-1 gate run: a small
    /// fleet, one viral window, and a one-minute fault window.
    pub fn dst(seed: u64, profile: FaultProfile) -> Self {
        Self {
            seed,
            servers: 8,
            shards: 8,
            clients: 3,
            request_interval: SimDuration::from_millis(100),
            retry_delay: SimDuration::from_millis(500),
            max_attempts: 40,
            rpc_latency: SimDuration::from_millis(10),
            reshard_interval: SimDuration::from_secs(2),
            refresh_interval: SimDuration::from_millis(500),
            storm_start: SimTime::from_secs(25),
            storm_end: SimTime::from_secs(70),
            traffic_end: SimTime::from_secs(110),
            end: SimTime::from_secs(135),
            profile,
            adaptive: true,
            skip_cutover_ack: false,
        }
    }

    /// Start of the viral slice (a narrow band straddling the interior
    /// of one initial shard, off every initial boundary).
    fn hot_lo(&self) -> u64 {
        u64::MAX / 16 * 7
    }

    /// Width of the viral slice: 1/64 of the key space.
    fn hot_span(&self) -> u64 {
        u64::MAX / 64
    }
}

/// The scaler this world drives: request counts per reshard tick,
/// split hot shards, merge cooled neighbors, bounded concurrency.
fn scaler_for(cfg: &SplitConfig) -> SplitScaler {
    SplitScaler::new(
        SplitScalerConfig::new(
            Metric::Synthetic.id(),
            20.0, // ~48 req/tick land in the viral slice; uniform is ~7/shard
            12.0,
            cfg.shards as usize,
            (cfg.shards as usize) * 3,
        )
        .with_max_concurrent(2),
    )
}

/// One client request's identity, carried through deliveries, forwards,
/// and retries. The owning shard is *not* part of the identity — it is
/// re-resolved on every attempt, because splits and merges move keys
/// between shards mid-run.
#[derive(Clone, Copy, Debug)]
pub struct Req {
    /// Unique request id (oracle bookkeeping and duplicate detection).
    pub id: u64,
    /// Issuing client (the network source endpoint).
    pub client: u32,
    /// Key being requested (as its u64 encoding).
    pub key: u64,
    /// Delivery attempts so far, this one included.
    pub attempts: u32,
}

/// Event alphabet of the skew-storm world.
#[derive(Debug)]
pub enum SplitEvent {
    /// Client `i` issues its next request.
    ClientTick(u32),
    /// A request (or one duplicated copy) arrives at a server.
    Deliver {
        /// The request.
        req: Req,
        /// Shard the sender resolved the key to (re-resolved per hop).
        shard: ShardId,
        /// Server this copy was addressed to.
        target: ServerId,
        /// Forwarding hops on this attempt.
        hops: u8,
    },
    /// A failed attempt backs off and re-routes.
    Retry {
        /// The request, attempts already incremented.
        req: Req,
    },
    /// A control-plane RPC, its answer, or its give-up timer.
    Rpc(RpcEvent),
    /// The control plane's failure detector declares an islanded
    /// server dead (fires a few seconds into a partition).
    DetectDown(u32),
    /// A fault-plan entry fires.
    FaultHit(Fault),
    /// Retry pacemaker: re-issue nacked or timed-out control steps and
    /// plan replacements on a fixed 500ms backoff.
    RetryTick,
    /// Load collection + adaptive resharding decision round.
    ReshardTick,
    /// Clients re-pull the spec and map into their router.
    RouterRefresh,
}

impl From<RpcEvent> for SplitEvent {
    fn from(event: RpcEvent) -> Self {
        SplitEvent::Rpc(event)
    }
}

/// Counters accumulated over a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SplitStats {
    /// Requests served successfully.
    pub served: u64,
    /// Of those, served inside the viral window for a viral-slice key.
    pub storm_served: u64,
    /// Requests that exhausted their retry budget (oracle violations).
    pub dropped: u64,
    /// Retry attempts across all requests.
    pub retries: u64,
    /// Forwarding hops taken (graceful migration/split/merge in action).
    pub forwards: u64,
    /// Split operations committed (spec swapped to the children).
    pub splits_completed: u64,
    /// Split operations aborted mid-flight (children reclaimed, parent
    /// restored) — splits genuinely interrupted by the plan.
    pub splits_aborted: u64,
    /// Merge operations committed.
    pub merges_completed: u64,
    /// Merge operations aborted mid-flight.
    pub merges_aborted: u64,
    /// Resharding protocol RPCs (prepare/forward/cutover) nacked or
    /// timed out while a fault was active.
    pub reshard_rpc_interrupted: u64,
    /// Anomalies the orchestrator surfaced via `drain_errors`.
    pub orch_errors: u64,
    /// Server container crashes injected.
    pub server_crashes: u64,
    /// Session expiries injected.
    pub session_expiries: u64,
    /// Network partitions injected.
    pub net_partitions: u64,
    /// Islanded-but-alive servers that self-fenced (§3.2) before the
    /// failure detector re-placed their shards.
    pub self_fences: u64,
    /// Hottest single shard observed in any one reshard window: the max
    /// request count a `(server, shard)` pair absorbed between two load
    /// reports. With `adaptive` off this measures the overload a static
    /// layout eats during the storm; with it on, splitting caps it.
    pub peak_tick_load: u64,
    /// Reshard rounds in which at least one shard's report exceeded the
    /// scaler's split threshold — the run's total time out of the
    /// per-shard load SLO, in units of `reshard_interval`. A static
    /// layout stays overloaded for the whole storm; the adaptive one
    /// only until its splits converge.
    pub overload_ticks: u64,
    /// Peak shard count observed (adaptivity in action).
    pub peak_shards: u64,
    /// Final shard count (merges pulled it back down).
    pub final_shards: u64,
}

/// Forwarding rule a host holds for one shard it no longer serves
/// directly — the generalized step-2/step-5 states of §4.3.
#[derive(Clone, Debug)]
enum Fwd {
    /// Plain 1→1 migration: same shard, new owner.
    Move(ServerId),
    /// 1→2 split: route each key to the prepared child covering it.
    Split {
        at: AppKey,
        left: ShardId,
        left_to: ServerId,
        right: ShardId,
        right_to: ServerId,
    },
    /// 2→1 merge: route everything to the prepared merged shard.
    Merge { target: ShardId, to: ServerId },
}

/// What a host decides for a request that reached it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Decision {
    Serve,
    Forward { shard: ShardId, to: ServerId },
    NotMine,
}

/// One application server: primary-only shard hosting with the
/// generalized forwarding states, per-shard request counters for load
/// reports, and process liveness. All state is soft — a restart wipes
/// it and the orchestrator's reconcile rebuilds the assigned part.
#[derive(Default)]
struct SplitHost {
    shards: BTreeMap<ShardId, ReplicaRole>,
    /// Step-1 state: shard -> owner we expect forwards from.
    pre_add: BTreeMap<ShardId, ServerId>,
    /// Step-2 state: shard -> forwarding rule (replica kept).
    fwd: BTreeMap<ShardId, Fwd>,
    /// Step-5 state: dropped shards still forwarding stragglers.
    tomb: BTreeMap<ShardId, Fwd>,
    /// Requests served per shard since the last load report.
    served: BTreeMap<ShardId, u64>,
    up: bool,
    /// §3.2 self-fenced: the server's session lapsed (it is islanded),
    /// so it has wiped its leases and must refuse control-plane grants
    /// until the session is re-established.
    fenced: bool,
}

impl SplitHost {
    fn add_shard(&mut self, shard: ShardId, role: ReplicaRole) {
        self.pre_add.remove(&shard);
        self.fwd.remove(&shard);
        self.tomb.remove(&shard);
        self.shards.insert(shard, role);
    }

    /// Idempotent: the orchestrator retries drops whose ack a lossy
    /// network may have eaten, so "ensure not hosting" must converge.
    fn drop_shard(&mut self, shard: ShardId) {
        self.shards.remove(&shard);
        self.pre_add.remove(&shard);
        self.served.remove(&shard);
        if let Some(rule) = self.fwd.remove(&shard) {
            self.tomb.insert(shard, rule);
        }
    }

    fn change_role(
        &mut self,
        shard: ShardId,
        current: ReplicaRole,
        new: ReplicaRole,
    ) -> Result<(), ()> {
        match self.shards.get_mut(&shard) {
            Some(role) if *role == current => {
                *role = new;
                Ok(())
            }
            _ => Err(()),
        }
    }

    fn prepare_add_shard(&mut self, shard: ShardId, current_owner: ServerId) {
        self.pre_add.insert(shard, current_owner);
        self.tomb.remove(&shard);
    }

    fn prepare_drop_shard(&mut self, shard: ShardId, new_owner: ServerId) -> Result<(), ()> {
        if !self.shards.contains_key(&shard) {
            return Err(());
        }
        self.fwd.insert(shard, Fwd::Move(new_owner));
        Ok(())
    }

    /// The split analogue of `prepare_drop_shard`: keep the data, stop
    /// serving directly, forward each request to the child covering its
    /// key. The split point arrives out of band (the spec service, by
    /// correlation) — here, from the orchestrator's pending-split table.
    fn split_forward(
        &mut self,
        parent: ShardId,
        at: AppKey,
        left: ShardId,
        left_to: ServerId,
        right: ShardId,
        right_to: ServerId,
    ) -> Result<(), ()> {
        if !self.shards.contains_key(&parent) {
            return Err(());
        }
        self.fwd.insert(
            parent,
            Fwd::Split {
                at,
                left,
                left_to,
                right,
                right_to,
            },
        );
        Ok(())
    }

    /// The merge analogue: stop serving `source` directly and forward
    /// its requests to the prepared merged shard.
    fn merge_forward(&mut self, source: ShardId, target: ShardId, to: ServerId) -> Result<(), ()> {
        if !self.shards.contains_key(&source) {
            return Err(());
        }
        self.fwd.insert(source, Fwd::Merge { target, to });
        Ok(())
    }

    fn rule_decision(rule: &Fwd, key: &AppKey) -> Decision {
        match rule {
            Fwd::Move(to) => Decision::Forward {
                shard: ShardId(u64::MAX), // replaced by caller
                to: *to,
            },
            Fwd::Split {
                at,
                left,
                left_to,
                right,
                right_to,
            } => {
                if key < at {
                    Decision::Forward {
                        shard: *left,
                        to: *left_to,
                    }
                } else {
                    Decision::Forward {
                        shard: *right,
                        to: *right_to,
                    }
                }
            }
            Fwd::Merge { target, to } => Decision::Forward {
                shard: *target,
                to: *to,
            },
        }
    }

    /// Admission for a primary-type request addressed to `shard` with
    /// `key`. `forwarded` is true when it came from the previous owner
    /// rather than directly from a client.
    fn admit(&self, shard: ShardId, key: &AppKey, forwarded: bool) -> Decision {
        for table in [&self.fwd, &self.tomb] {
            if let Some(rule) = table.get(&shard) {
                return match Self::rule_decision(rule, key) {
                    Decision::Forward { shard: s, to } if s == ShardId(u64::MAX) => {
                        Decision::Forward { shard, to }
                    }
                    d => d,
                };
            }
        }
        if self.pre_add.contains_key(&shard) {
            return if forwarded {
                Decision::Serve
            } else {
                Decision::NotMine
            };
        }
        match self.shards.get(&shard) {
            Some(role) if role.is_primary() => Decision::Serve,
            _ => Decision::NotMine,
        }
    }

    /// True when this host would serve a *direct* (unforwarded) request
    /// for `shard` — the willing-primary predicate the dual-primary
    /// audit counts.
    fn willing_direct(&self, shard: ShardId) -> bool {
        self.up
            && !self.fenced
            && !self.fwd.contains_key(&shard)
            && self
                .shards
                .get(&shard)
                .is_some_and(|role| role.is_primary())
    }

    /// Process restart: all soft state is lost.
    fn wipe(&mut self) {
        self.shards.clear();
        self.pre_add.clear();
        self.fwd.clear();
        self.tomb.clear();
        self.served.clear();
    }

    /// Applies one control-plane RPC; returns whether the host applied
    /// it. A `SplitForward`'s split point arrives out of band, from the
    /// orchestrator's pending-split table, the way a production server
    /// would fetch it from the spec service.
    fn apply(&mut self, rpc: ServerRpc, cp: &Orchestrator) -> bool {
        match rpc {
            ServerRpc::AddShard { shard, role } => {
                self.add_shard(shard, role);
                true
            }
            ServerRpc::DropShard { shard } => {
                self.drop_shard(shard);
                true
            }
            ServerRpc::ChangeRole {
                shard,
                current,
                new,
            } => self.change_role(shard, current, new).is_ok(),
            ServerRpc::PrepareAddShard {
                shard,
                current_owner,
                ..
            } => {
                self.prepare_add_shard(shard, current_owner);
                true
            }
            ServerRpc::PrepareDropShard {
                shard, new_owner, ..
            } => self.prepare_drop_shard(shard, new_owner).is_ok(),
            ServerRpc::SplitForward {
                parent,
                left,
                left_to,
                right,
                right_to,
            } => match cp.pending_split(parent) {
                // The op was aborted between send and delivery: refuse,
                // the orchestrator already moved on.
                None => false,
                Some(at) => self
                    .split_forward(parent, at.clone(), left, left_to, right, right_to)
                    .is_ok(),
            },
            ServerRpc::MergeForward {
                source,
                target,
                target_to,
            } => self.merge_forward(source, target, target_to).is_ok(),
        }
    }
}

/// A self-fenced server refuses every grant: its session lapsed, so
/// accepting an `AddShard` the control plane sent an instant before
/// declaring it down would resurrect an unleased primary (a dual).
impl RpcHost for SplitHost {
    fn up(&self) -> bool {
        self.up
    }

    fn fenced(&self) -> bool {
        self.fenced
    }
}

fn orch_config(cfg: &SplitConfig) -> OrchestratorConfig {
    OrchestratorConfig {
        graceful_migration: true,
        move_caps: MoveCaps {
            max_total: 1000,
            max_per_server: 1000,
            max_per_shard: 1,
        },
        alloc: AllocConfig::new(vec![Metric::Synthetic.id()]),
        skip_cutover_ack: cfg.skip_cutover_ack,
    }
}

/// The skew-storm simulation world.
pub struct SplitWorld {
    cfg: SplitConfig,
    cp: Orchestrator,
    scaler: SplitScaler,
    hosts: BTreeMap<ServerId, SplitHost>,
    router: ServiceRouter,
    /// Every shard id ever published with its immutable key range (a
    /// shard's range never changes between mint and removal), for the
    /// per-key willing-primary audit.
    ranges: BTreeMap<ShardId, KeyRange>,
    /// Servers the failure detector declared down behind a partition.
    partitioned: BTreeSet<ServerId>,
    /// True during a lossy-net window.
    degraded: bool,
    /// Net, RPC transport, oracle, fault plan and trace.
    kernel: Kernel,
    /// Counters.
    pub stats: SplitStats,
}

impl SplitWorld {
    /// Registers the fleet and the initial uniform spec, places every
    /// shard, and settles the initial placement synchronously.
    fn bootstrap(cfg: SplitConfig, plan: Vec<(SimTime, Fault)>) -> Self {
        let mut cp = Orchestrator::new(APP, AppPolicy::primary_only(), orch_config(&cfg));
        let mut hosts = BTreeMap::new();
        for i in 0..cfg.servers {
            let id = ServerId(i);
            cp.register_server(id, loc(i), LoadVector::single(Metric::Synthetic.id(), 1e9));
            hosts.insert(
                id,
                SplitHost {
                    up: true,
                    ..SplitHost::default()
                },
            );
        }
        let spec = ShardingSpec::uniform_u64(cfg.shards);
        cp.register_shards((0..cfg.shards).map(ShardId));
        cp.register_spec(spec.clone());
        cp.run_emergency();
        let mut world = Self {
            cfg,
            cp,
            scaler: scaler_for(&cfg),
            hosts,
            router: ServiceRouter::new(),
            ranges: BTreeMap::new(),
            partitioned: BTreeSet::new(),
            degraded: false,
            stats: SplitStats::default(),
            kernel: Kernel::new(cfg.seed, cfg.rpc_latency, plan),
        };
        world.settle();
        world.refresh_router();
        world
    }

    /// Settles the control plane synchronously against the live fleet:
    /// every command runs until the orchestrator goes quiet (bootstrap
    /// and finalize only — during the run commands travel the net).
    fn settle(&mut self) {
        for round in 0..200 {
            let cmds = self.cp.take_commands();
            if cmds.is_empty() {
                if self.cp.run_emergency() == 0 && round > 0 {
                    break;
                }
                continue;
            }
            for cmd in cmds {
                if let OrchCommand::Rpc { server, rpc } = cmd {
                    let ok = self
                        .hosts
                        .get_mut(&server)
                        .is_some_and(|h| h.up && h.apply(rpc, &self.cp));
                    if ok {
                        self.cp.rpc_acked(server, rpc);
                    } else {
                        self.cp.rpc_failed(server, rpc);
                    }
                }
            }
        }
    }

    /// True when every spec shard has a primary and nothing is stuck
    /// mid-migration or mid-reshard.
    pub fn converged(&self) -> bool {
        self.cp.in_flight_migrations() == 0
            && self.cp.in_flight_reshards() == 0
            && self.unplaced_count() == 0
    }

    /// Spec shards currently missing a primary (diagnostics).
    pub fn unplaced_count(&self) -> usize {
        let Some(spec) = self.cp.sharding_spec() else {
            return 0;
        };
        spec.iter()
            .filter(|(_, s)| self.cp.assignment().primary_of(*s).is_none())
            .count()
    }

    /// Shards where the client router disagrees with the assignment on
    /// the serving primary (the convergence audit's divergence count).
    fn router_divergence(&mut self) -> usize {
        let Some(spec) = self.cp.sharding_spec().cloned() else {
            return 0;
        };
        spec.iter()
            .filter(|(range, shard)| {
                let routed = self
                    .router
                    .route(APP, &range.start)
                    .map(|d| (d.shard, d.server));
                let assigned = self.cp.assignment().primary_of(*shard);
                routed.ok() != assigned.map(|srv| (*shard, srv))
            })
            .count()
    }

    /// True while the plan has something actively broken — the window
    /// in which a nacked protocol step counts as fault-interrupted.
    fn fault_active(&self) -> bool {
        self.degraded || self.kernel.net.partition().is_some() || self.hosts.values().any(|h| !h.up)
    }

    /// Hosts willing to serve `key` directly, across every shard whose
    /// (immutable) range covers it. More than one is a dual primary:
    /// e.g. a split parent still serving while a committed child also
    /// serves.
    fn willing_for_key(&self, key: &AppKey) -> usize {
        self.ranges
            .iter()
            .filter(|(_, range)| range.contains(key))
            .map(|(shard, _)| {
                self.hosts
                    .values()
                    .filter(|h| h.willing_direct(*shard))
                    .count()
            })
            .sum()
    }

    /// Pulls the orchestrator's current spec and map into the client
    /// router (service discovery refresh) and learns any newly minted
    /// shard's immutable range.
    fn refresh_router(&mut self) {
        if let Some(spec) = self.cp.sharding_spec().cloned() {
            for (range, shard) in spec.iter() {
                self.ranges.entry(*shard).or_insert_with(|| range.clone());
            }
            self.router.install_spec(APP, spec);
        }
        self.router.install_map(APP, Rc::new(self.cp.current_map()));
    }

    /// Sends freshly minted orchestrator commands out as RPCs.
    fn flush_commands(&mut self, ctx: &mut Ctx<'_, SplitEvent>) {
        for cmd in self.cp.take_commands() {
            if let OrchCommand::Rpc { server, rpc } = cmd {
                self.kernel.rpc.send(&mut self.kernel.net, ctx, server, rpc);
            }
        }
    }

    /// Books a nacked or timed-out resharding step as fault-interrupted
    /// when the plan has something actively broken. (Plain migration
    /// steps also flow through here; this world's floors only count the
    /// resharding protocol's own RPCs.)
    fn note_interrupted(&mut self, rpc: ServerRpc) {
        if !self.fault_active() {
            return;
        }
        if matches!(
            rpc,
            ServerRpc::PrepareAddShard { .. }
                | ServerRpc::SplitForward { .. }
                | ServerRpc::MergeForward { .. }
        ) {
            self.stats.reshard_rpc_interrupted += 1;
        }
    }

    /// An ack flushes the next protocol step at once; a nacked or
    /// timed-out step (and an abort's compensations) leaves with the
    /// next retry tick — a 500ms backoff, not a 2×RTT storm.
    fn rpc_event(&mut self, event: RpcEvent, ctx: &mut Ctx<'_, SplitEvent>) {
        let reply = self.kernel.rpc.handle(
            event,
            &mut self.kernel.net,
            ctx,
            &mut self.hosts,
            |h, rpc| h.apply(rpc, &self.cp),
        );
        let Some((server, rpc, acked)) = reply else {
            return;
        };
        if acked {
            self.cp.rpc_acked(server, rpc);
            self.flush_commands(ctx);
        } else {
            self.note_interrupted(rpc);
            self.cp.rpc_failed(server, rpc);
        }
        ctx.state_changed();
    }

    fn client_tick(&mut self, client: u32, ctx: &mut Ctx<'_, SplitEvent>) {
        let now = ctx.now();
        if now < self.cfg.traffic_end {
            ctx.schedule_in(self.cfg.request_interval, SplitEvent::ClientTick(client));
        }
        // The viral window: 80% of keys land in one narrow slice.
        let stormy = now >= self.cfg.storm_start && now < self.cfg.storm_end;
        let key = if stormy && ctx.rng().chance(0.8) {
            self.cfg.hot_lo() + ctx.rng().range_u64(0, self.cfg.hot_span())
        } else {
            ctx.rng().next_u64()
        };
        let req = Req {
            id: self.kernel.oracle.request_issued(),
            client,
            key,
            attempts: 1,
        };
        self.route(req, ctx);
    }

    /// Routes (or re-routes) a request through the client's router —
    /// key to shard to primary, on whatever spec + map version the last
    /// refresh pulled.
    fn route(&mut self, req: Req, ctx: &mut Ctx<'_, SplitEvent>) {
        if self.kernel.oracle.already_served(req.id) {
            return; // a duplicated copy already completed this request
        }
        let Ok(decision) = self.router.route(APP, &AppKey::from_u64(req.key)) else {
            self.fail_or_retry(req, ctx);
            return;
        };
        let t = self.kernel.net.transmit(
            Endpoint::Client(req.client),
            Endpoint::Server(decision.server.raw()),
        );
        if t.copies.is_empty() {
            self.fail_or_retry(req, ctx);
            return;
        }
        for d in t.copies {
            ctx.schedule_in(
                d,
                SplitEvent::Deliver {
                    req,
                    shard: decision.shard,
                    target: decision.server,
                    hops: 0,
                },
            );
        }
    }

    fn fail_or_retry(&mut self, req: Req, ctx: &mut Ctx<'_, SplitEvent>) {
        if self.kernel.oracle.already_served(req.id) {
            return;
        }
        if req.attempts < self.cfg.max_attempts {
            self.stats.retries += 1;
            ctx.schedule_in(
                self.cfg.retry_delay,
                SplitEvent::Retry {
                    req: Req {
                        attempts: req.attempts + 1,
                        ..req
                    },
                },
            );
        } else {
            self.stats.dropped += 1;
            self.kernel.oracle.request_dropped(ctx.now(), req.id);
        }
    }

    fn deliver(
        &mut self,
        req: Req,
        shard: ShardId,
        target: ServerId,
        hops: u8,
        ctx: &mut Ctx<'_, SplitEvent>,
    ) {
        if self.kernel.oracle.already_served(req.id) {
            return;
        }
        if !self.hosts.get(&target).map(|h| h.up).unwrap_or(false) {
            self.fail_or_retry(req, ctx);
            return;
        }
        let key = AppKey::from_u64(req.key);
        let decision = self
            .hosts
            .get(&target)
            .map(|h| h.admit(shard, &key, hops > 0))
            .unwrap_or(Decision::NotMine);
        match decision {
            Decision::Serve => {
                // The dual-primary invariant is checked at the moment
                // it matters: when a request is actually served.
                let willing = self.willing_for_key(&key);
                self.kernel
                    .oracle
                    .primaries_observed(ctx.now(), shard.raw(), willing);
                if self.kernel.oracle.request_served(req.id) {
                    self.stats.served += 1;
                    let now = ctx.now();
                    let stormy = now >= self.cfg.storm_start && now < self.cfg.storm_end;
                    let hot = req.key >= self.cfg.hot_lo()
                        && req.key - self.cfg.hot_lo() < self.cfg.hot_span();
                    if stormy && hot {
                        self.stats.storm_served += 1;
                    }
                }
                if let Some(h) = self.hosts.get_mut(&target) {
                    *h.served.entry(shard).or_insert(0) += 1;
                }
            }
            Decision::Forward {
                shard: next_shard,
                to,
            } if hops < 6 => {
                self.stats.forwards += 1;
                let t = self
                    .kernel
                    .net
                    .transmit(Endpoint::Server(target.raw()), Endpoint::Server(to.raw()));
                if t.copies.is_empty() {
                    self.fail_or_retry(req, ctx);
                    return;
                }
                for d in t.copies {
                    ctx.schedule_in(
                        d,
                        SplitEvent::Deliver {
                            req,
                            shard: next_shard,
                            target: to,
                            hops: hops + 1,
                        },
                    );
                }
            }
            Decision::Forward { .. } | Decision::NotMine => {
                self.fail_or_retry(req, ctx);
            }
        }
    }

    /// Load collection + resharding round: every live host reports its
    /// per-shard request counts since the last round (zeros included —
    /// merge decisions need evidence of coldness, not absence of data),
    /// then the scaler runs against the fresh numbers.
    fn reshard_tick(&mut self, ctx: &mut Ctx<'_, SplitEvent>) {
        if ctx.now() < self.cfg.traffic_end {
            ctx.schedule_in(self.cfg.reshard_interval, SplitEvent::ReshardTick);
        }
        let reports: Vec<(ServerId, Vec<(ShardId, LoadVector)>)> = self
            .hosts
            .iter_mut()
            .filter(|(_, h)| h.up)
            .map(|(srv, h)| {
                let loads = h
                    .shards
                    .keys()
                    .map(|&shard| {
                        let count = h.served.get(&shard).copied().unwrap_or(0);
                        (
                            shard,
                            LoadVector::single(Metric::Synthetic.id(), count as f64),
                        )
                    })
                    .collect();
                h.served.clear();
                (*srv, loads)
            })
            .collect();
        let mut overloaded = false;
        for (srv, loads) in reports {
            for (_, load) in &loads {
                let count = load.get(Metric::Synthetic.id()) as u64;
                self.stats.peak_tick_load = self.stats.peak_tick_load.max(count);
                overloaded |= count as f64 > self.scaler.config().split_above;
            }
            self.cp.report_load(srv, loads);
        }
        self.stats.overload_ticks += u64::from(overloaded);
        if self.cfg.adaptive {
            self.cp.run_reshard(&self.scaler);
        }
        self.stats.orch_errors += self.cp.drain_errors().len() as u64;
        self.flush_commands(ctx);
        ctx.state_changed();
    }

    /// The retry pacemaker: nacked and timed-out protocol steps leave
    /// here on a fixed 500ms backoff, alongside replacement planning
    /// for failed-over shards.
    fn retry_tick(&mut self, ctx: &mut Ctx<'_, SplitEvent>) {
        if ctx.now() < self.cfg.end {
            ctx.schedule_in(SimDuration::from_millis(500), SplitEvent::RetryTick);
        }
        self.cp.run_emergency();
        self.flush_commands(ctx);
    }

    fn router_refresh(&mut self, ctx: &mut Ctx<'_, SplitEvent>) {
        if ctx.now() < self.cfg.end {
            ctx.schedule_in(self.cfg.refresh_interval, SplitEvent::RouterRefresh);
        }
        self.refresh_router();
    }

    fn apply_fault(&mut self, fault: Fault, ctx: &mut Ctx<'_, SplitEvent>) {
        match fault {
            Fault::ServerCrash(i) | Fault::SessionExpiry(i) => {
                let s = ServerId(i);
                let up = self.hosts.get(&s).map(|h| h.up).unwrap_or(false);
                if !up {
                    return;
                }
                if matches!(fault, Fault::ServerCrash(_)) {
                    self.stats.server_crashes += 1;
                } else {
                    self.stats.session_expiries += 1;
                }
                if let Some(h) = self.hosts.get_mut(&s) {
                    h.up = false;
                }
                // The control plane only learns of the death once its
                // failure detector fires; until then RPCs to the dead
                // server are nacked and operations stall mid-step.
                ctx.schedule_in(SimDuration::from_secs(3), SplitEvent::DetectDown(i));
            }
            Fault::ServerRestart(i) | Fault::SessionRestore(i) => {
                let s = ServerId(i);
                let up = self.hosts.get(&s).map(|h| h.up).unwrap_or(true);
                if up {
                    return;
                }
                if let Some(h) = self.hosts.get_mut(&s) {
                    // A process restart: all soft state (shards held,
                    // forwarding rules, tombstones) is gone, and the
                    // new process establishes a fresh session.
                    h.wipe();
                    h.fenced = false;
                    h.up = true;
                }
                self.cp.server_up(s);
                self.cp.reconcile_server(s);
            }
            Fault::PartitionStart(spec) => {
                self.kernel.net.start_partition(spec);
                self.stats.net_partitions += 1;
                for i in 0..self.cfg.servers {
                    if spec.contains(Endpoint::Server(i)) {
                        ctx.schedule_in(SimDuration::from_secs(3), SplitEvent::DetectDown(i));
                    }
                }
            }
            Fault::PartitionHeal => {
                self.kernel.net.heal_partition();
                let healed = std::mem::take(&mut self.partitioned);
                for s in healed {
                    // The session re-establishes; the (wiped) server
                    // may accept grants again.
                    if let Some(h) = self.hosts.get_mut(&s) {
                        h.fenced = false;
                    }
                    if self.hosts.get(&s).map(|h| h.up).unwrap_or(false) {
                        self.cp.server_up(s);
                        self.cp.reconcile_server(s);
                    }
                }
            }
            Fault::NetDegrade { drop_pct, dup_pct } => {
                self.degraded = true;
                self.kernel
                    .net
                    .set_degradation(f64::from(drop_pct) / 100.0, f64::from(dup_pct) / 100.0);
            }
            Fault::NetHeal => {
                self.degraded = false;
                self.kernel.net.heal_degradation();
            }
            // No mini-SMs in this world.
            Fault::MiniSmCrash(_) | Fault::MiniSmRestart(_) => {}
        }
    }

    /// The failure detector fires: a server that is (still) dead or
    /// (still) islanded is declared down, aborting its in-flight
    /// operations and failing its shards over.
    fn detect_down(&mut self, i: u32, ctx: &mut Ctx<'_, SplitEvent>) {
        let s = ServerId(i);
        let host_up = self.hosts.get(&s).map(|h| h.up).unwrap_or(false);
        let islanded = self
            .kernel
            .net
            .partition()
            .is_some_and(|spec| spec.contains(Endpoint::Server(i)));
        if host_up && !islanded {
            return; // recovered before detection
        }
        if host_up && islanded {
            // Alive but unreachable: by the time the control plane's
            // detector fires, the server's own §3.2 self-fence timer
            // (strictly shorter than the session timeout) has already
            // made it wipe its leases — otherwise re-placement would
            // create a second willing primary. Remember to welcome it
            // back when the partition heals.
            if let Some(h) = self.hosts.get_mut(&s) {
                h.wipe();
                h.fenced = true;
            }
            self.stats.self_fences += 1;
            self.partitioned.insert(s);
        }
        self.cp.server_down(s);
        self.flush_commands(ctx);
        ctx.state_changed();
    }

    /// Audits the coverage invariant on the authoritative spec: its
    /// ranges must partition the key space at every instant — split and
    /// merge commits are atomic spec swaps, so no intermediate state is
    /// ever visible here.
    fn audit_coverage(&mut self, now: SimTime) {
        let Some(spec) = self.cp.sharding_spec() else {
            return;
        };
        let ranges: Vec<(u64, Vec<u8>, Option<Vec<u8>>)> = spec
            .iter()
            .map(|(range, shard)| {
                (
                    shard.raw(),
                    range.start.0.clone(),
                    range.end.as_ref().map(|e| e.0.clone()),
                )
            })
            .collect();
        self.kernel.oracle.keyspace_coverage(now, &ranges);
    }

    /// Quiescence: heal everything, settle the control plane against
    /// the healthy fleet, then run the final audits — coverage,
    /// convergence, router agreement, and the request drain.
    fn finalize(&mut self) {
        let at = self.cfg.end;
        // Defensive heal (the plan pairs every fault with a recovery,
        // but a shrunk plan may have dropped one).
        self.kernel.net.heal_partition();
        self.kernel.net.heal_degradation();
        let ids: Vec<ServerId> = self.hosts.keys().copied().collect();
        for s in &ids {
            let was_down = self.hosts.get(s).map(|h| !h.up).unwrap_or(false);
            if was_down {
                if let Some(h) = self.hosts.get_mut(s) {
                    h.wipe();
                    h.up = true;
                }
            }
            if let Some(h) = self.hosts.get_mut(s) {
                h.fenced = false;
            }
            self.cp.server_up(*s);
            if was_down {
                self.cp.reconcile_server(*s);
            }
        }
        for s in std::mem::take(&mut self.partitioned) {
            self.cp.server_up(s);
            self.cp.reconcile_server(s);
        }
        self.settle();
        self.refresh_router();
        // Final audits.
        self.audit_coverage(at);
        let cp = self.cp.stats();
        self.stats.splits_completed = cp.splits_completed;
        self.stats.splits_aborted = cp.splits_aborted;
        self.stats.merges_completed = cp.merges_completed;
        self.stats.merges_aborted = cp.merges_aborted;
        self.stats.orch_errors += self.cp.drain_errors().len() as u64;
        self.stats.final_shards = self
            .cp
            .sharding_spec()
            .map(|s| s.shard_count() as u64)
            .unwrap_or(0);
        self.stats.peak_shards = self.stats.peak_shards.max(self.stats.final_shards);
        let unplaced = self.unplaced_count();
        let in_flight = self.cp.in_flight_migrations() + self.cp.in_flight_reshards();
        let divergence = self.router_divergence();
        self.kernel
            .oracle
            .convergence_check(at, unplaced, in_flight, divergence);
        // Every issued request must have resolved by now: the retry
        // budget (max_attempts × retry_delay) fits inside the post-
        // traffic tail, so anything still outstanding was lost track
        // of — a lost request.
        self.kernel.oracle.quiescent_drain_check(at);
    }
}

impl World for SplitWorld {
    type Event = SplitEvent;

    fn handle(&mut self, ctx: &mut Ctx<'_, SplitEvent>, event: SplitEvent) {
        match event {
            SplitEvent::ClientTick(c) => self.client_tick(c, ctx),
            SplitEvent::Deliver {
                req,
                shard,
                target,
                hops,
            } => self.deliver(req, shard, target, hops, ctx),
            SplitEvent::Retry { req } => self.route(req, ctx),
            SplitEvent::Rpc(event) => self.rpc_event(event, ctx),
            SplitEvent::DetectDown(i) => self.detect_down(i, ctx),
            SplitEvent::FaultHit(fault) => {
                self.apply_fault(fault, ctx);
                self.flush_commands(ctx);
                ctx.state_changed();
            }
            SplitEvent::RetryTick => self.retry_tick(ctx),
            SplitEvent::ReshardTick => self.reshard_tick(ctx),
            SplitEvent::RouterRefresh => self.router_refresh(ctx),
        }
    }

    /// The oracle sweep (change-driven plus a coarse safety net): audit
    /// key-space coverage on the authoritative spec, count
    /// completed/aborted operations, and record trace points.
    fn sweep(&mut self, ctx: &mut Ctx<'_, SplitEvent>) {
        let now = ctx.now();
        if now > self.cfg.end {
            return;
        }
        self.audit_coverage(now);
        let cp = self.cp.stats();
        self.stats.splits_completed = cp.splits_completed;
        self.stats.splits_aborted = cp.splits_aborted;
        self.stats.merges_completed = cp.merges_completed;
        self.stats.merges_aborted = cp.merges_aborted;
        let shard_count = self
            .cp
            .sharding_spec()
            .map(|s| s.shard_count() as u64)
            .unwrap_or(0);
        self.stats.peak_shards = self.stats.peak_shards.max(shard_count);
        self.kernel.trace.record("shards", now, shard_count as f64);
        self.kernel
            .trace
            .record("splits_completed", now, cp.splits_completed as f64);
        self.kernel
            .trace
            .record("merges_completed", now, cp.merges_completed as f64);
        self.kernel.trace.record(
            "in_flight_reshards",
            now,
            self.cp.in_flight_reshards() as f64,
        );
        self.kernel
            .trace
            .record("served", now, self.stats.served as f64);
        self.kernel
            .trace
            .record("dropped", now, self.stats.dropped as f64);
    }

    fn sweep_interval(&self) -> Option<SimDuration> {
        Some(SimDuration::from_secs(1))
    }
}

impl FaultWorld for SplitWorld {
    type Config = SplitConfig;
    type Stats = SplitStats;
    const NAME: &'static str = "split";
    const MUTATION: &'static str = "skip_cutover_ack";

    fn config(cell: DstConfig) -> SplitConfig {
        let mut cfg = SplitConfig::dst(cell.seed, cell.profile);
        cfg.skip_cutover_ack = cell.mutate;
        cfg
    }

    fn seed_and_end(cfg: &SplitConfig) -> (u64, SimTime) {
        (cfg.seed, cfg.end)
    }

    fn build(cfg: SplitConfig, plan: Option<Vec<(SimTime, Fault)>>) -> Self {
        // No mini-SMs in this world: the plan covers servers and the
        // network only.
        let plan =
            plan.unwrap_or_else(|| fault_plan(&cfg.profile.config(cfg.seed, cfg.servers, 0)));
        Self::bootstrap(cfg, plan)
    }

    fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    fn fault_hit(fault: Fault) -> SplitEvent {
        SplitEvent::FaultHit(fault)
    }

    fn start(&self) -> Vec<(SimTime, SplitEvent)> {
        let mut events: Vec<(SimTime, SplitEvent)> = (0..self.cfg.clients)
            .map(|c| {
                (
                    SimTime::from_millis(5_000 + 37 * u64::from(c)),
                    SplitEvent::ClientTick(c),
                )
            })
            .collect();
        events.extend([
            (SimTime::from_secs(1), SplitEvent::RetryTick),
            (SimTime::from_secs(2), SplitEvent::ReshardTick),
            (SimTime::from_millis(700), SplitEvent::RouterRefresh),
        ]);
        events
    }

    /// Whatever is still in flight at `end` is abandoned; `finalize`
    /// settles the control plane synchronously against the healed
    /// fleet.
    fn finish(mut self) -> SplitReport {
        self.finalize();
        let converged = self.converged();
        let unplaced = self.unplaced_count();
        Report::new(self.stats, &self.kernel, converged, unplaced)
    }

    fn summary(stats: &SplitStats) -> String {
        format!(
            "served={} splits={}+{}a merges={}+{}a peak={}",
            stats.served,
            stats.splits_completed,
            stats.splits_aborted,
            stats.merges_completed,
            stats.merges_aborted,
            stats.peak_shards
        )
    }
}

/// Outcome of one skew-storm run.
pub type SplitReport = Report<SplitStats>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_bootstraps_with_every_shard_placed() {
        let w = SplitWorld::build(SplitConfig::dst(1, FaultProfile::SplitChaos), None);
        assert_eq!(w.unplaced_count(), 0, "every shard gets a primary");
        assert!(w.converged());
        assert_eq!(
            w.cp.sharding_spec().map(|s| s.shard_count()),
            Some(8),
            "initial uniform spec registered"
        );
        assert!(
            !w.kernel.plan.is_empty(),
            "profile derives a fault schedule"
        );
        // The client router already agrees with the assignment.
        let mut w = w;
        assert_eq!(w.router_divergence(), 0);
    }

    #[test]
    fn quiet_storm_splits_then_merges_and_stays_clean() {
        // No faults at all: the viral window alone must drive real
        // splits through the generalized protocol, the cooldown must
        // drive merges, and nothing may be lost.
        let cfg = SplitConfig::dst(7, FaultProfile::SplitChaos);
        let r = SplitWorld::run_with_plan(cfg, Vec::new());
        assert_eq!(r.total_violations, 0, "oracle: {:?}", r.violations);
        assert!(r.converged, "{} unplaced", r.unplaced);
        assert!(
            r.stats.splits_completed >= 2,
            "the storm must trigger splits: {:?}",
            r.stats
        );
        assert!(
            r.stats.merges_completed >= 1,
            "the cooldown must trigger merges: {:?}",
            r.stats
        );
        assert!(
            r.stats.peak_shards > 8 && r.stats.final_shards < r.stats.peak_shards,
            "shard count must rise and fall: {:?}",
            r.stats
        );
        assert!(r.stats.served > 1_000, "{:?}", r.stats);
        assert_eq!(r.stats.dropped, 0, "{:?}", r.stats);
        assert!(r.stats.forwards > 0, "graceful handoffs forward requests");
    }

    #[test]
    fn static_sharding_never_resplits() {
        let mut cfg = SplitConfig::dst(7, FaultProfile::SplitChaos);
        cfg.adaptive = false;
        let r = SplitWorld::run_with_plan(cfg, Vec::new());
        assert_eq!(r.stats.splits_completed, 0);
        assert_eq!(r.stats.peak_shards, 8);
        assert_eq!(r.total_violations, 0, "static is safe, just overloaded");
    }
}
