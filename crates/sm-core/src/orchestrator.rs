//! The per-partition orchestrator.
//!
//! One orchestrator manages one application partition (§6.1): it owns
//! the desired shard-to-server assignment, reacts to server failures
//! with emergency re-placement and primary promotion, collects load,
//! runs the allocator periodically, executes allocation plans under the
//! system-stability move caps, drains servers ahead of planned events,
//! and drives the five-step graceful primary migration of §4.3:
//!
//! 1. `prepare_add_shard` → new primary (accept only forwarded writes);
//! 2. `prepare_drop_shard` → old primary (start forwarding);
//! 3. `add_shard` → new primary (officially owns the role);
//! 4. publish the new shard map through service discovery;
//! 5. `drop_shard` → old primary (drain residual forwarded traffic).
//!
//! The orchestrator is a synchronous state machine: methods mutate state
//! and append [`OrchCommand`]s to an outbox the embedding world drains,
//! delivering RPCs to application servers and feeding acks back in.

use crate::api::{OrchCommand, ServerRpc};
use crate::splitter::{ReshardOp, SplitScaler};
use sm_allocator::{
    AllocConfig, AllocInput, Allocator, MoveCaps, MoveScheduler, ReplicaMove, ServerInfo,
    ShardPlacement,
};
use sm_types::{
    AppId, AppKey, AppPolicy, Assignment, LoadVector, Location, ReplicaRole, ServerId, ShardId,
    ShardMap, ShardingSpec, SmError,
};
use std::collections::{BTreeMap, BTreeSet};

/// Orchestrator tuning and ablation switches.
#[derive(Clone, Debug)]
pub struct OrchestratorConfig {
    /// Use the §4.3 graceful protocol for primary moves; when false,
    /// primaries move abruptly (drop-then-add) — the middle curve of
    /// Figure 17.
    pub graceful_migration: bool,
    /// System-stability caps on concurrent moves (§5.1 hard
    /// constraint 1).
    pub move_caps: MoveCaps,
    /// Allocator configuration.
    pub alloc: AllocConfig,
    /// Fault-injection ablation for the resharding protocol: commit a
    /// split/merge as soon as the cutover `add_shard`s are *sent*
    /// instead of waiting for their acks. A child that dies before
    /// applying then owns a range nobody serves — the skew-storm world's
    /// oracle catches this as a lost request. Never enable outside DST.
    pub skip_cutover_ack: bool,
}

impl OrchestratorConfig {
    /// Runs the allocator's solver with `threads` deterministic
    /// parallel workers (1 = plain single-threaded search). Plans stay
    /// a pure function of `(problem, specs, seed, threads)`.
    pub fn with_solver_threads(mut self, threads: usize) -> Self {
        self.alloc.search.threads = threads;
        self
    }
}

/// A server known to the orchestrator.
#[derive(Clone, Copy, Debug)]
pub struct ServerEntry {
    /// Fault-domain coordinates.
    pub location: Location,
    /// Capacity per metric.
    pub capacity: LoadVector,
    /// False once the server is detected down.
    pub alive: bool,
    /// True while the server is being evacuated.
    pub draining: bool,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum MigrationKind {
    /// §4.3 five-step protocol (primary with a live source).
    GracefulPrimary,
    /// Add-then-drop (secondaries; safe to double-host briefly).
    SecondaryMove,
    /// Drop-then-add (ablation mode for primaries).
    AbruptMove,
    /// Fresh placement (no source).
    FreshAdd,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    PrepareAdd,
    PrepareDrop,
    Add,
    Drop,
}

#[derive(Clone, Copy, Debug)]
struct Migration {
    shard: ShardId,
    from: Option<ServerId>,
    to: ServerId,
    role: ReplicaRole,
    kind: MigrationKind,
    phase: Phase,
    mv: ReplicaMove,
}

/// Phases of the generalized (1→2 / 2→1) graceful resharding protocol.
/// `Prepare` and `Cutover` each await acks from the shards entering the
/// spec; `Forward` awaits acks from the shards leaving it. Commit — the
/// point of no return, where the spec and assignment swap atomically —
/// is not a phase: it happens inside the final cutover ack, so an op
/// observed in any phase can still abort cleanly.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ScalePhase {
    Prepare,
    Forward,
    Cutover,
}

/// An in-flight split: `parent`'s range divides at `at` into
/// `left` = [start, at) on `left_to` and `right` = [at, end) on
/// `right_to`. The children are *not* in `shards`, the spec, or any
/// published map until commit, so clients cannot reach them and an
/// abort only has to reclaim unpublished state.
#[derive(Clone, Debug)]
struct SplitOp {
    parent: ShardId,
    parent_primary: ServerId,
    at: AppKey,
    left: ShardId,
    left_to: ServerId,
    right: ShardId,
    right_to: ServerId,
    phase: ScalePhase,
    // Per-phase ack flags for the two-sided phases (Prepare/Cutover
    // await both children; reset on every phase transition).
    left_ready: bool,
    right_ready: bool,
}

/// An in-flight merge: the inverse shape — two sources forward into one
/// prepared `target` on `target_to`.
#[derive(Clone, Debug)]
struct MergeOp {
    left: ShardId,
    left_primary: ServerId,
    right: ShardId,
    right_primary: ServerId,
    target: ShardId,
    target_to: ServerId,
    phase: ScalePhase,
    left_ready: bool,
    right_ready: bool,
}

#[derive(Clone, Debug)]
enum ScaleOpState {
    Split(SplitOp),
    Merge(MergeOp),
}

impl ScaleOpState {
    fn involves_server(&self, server: ServerId) -> bool {
        match self {
            ScaleOpState::Split(op) => {
                server == op.parent_primary || server == op.left_to || server == op.right_to
            }
            ScaleOpState::Merge(op) => {
                server == op.left_primary || server == op.right_primary || server == op.target_to
            }
        }
    }

    fn involves_shard(&self, shard: ShardId) -> bool {
        match self {
            ScaleOpState::Split(op) => shard == op.parent || shard == op.left || shard == op.right,
            ScaleOpState::Merge(op) => shard == op.left || shard == op.right || shard == op.target,
        }
    }

    /// Every shard the op touches, for the busy set.
    fn shards(&self) -> [ShardId; 3] {
        match self {
            ScaleOpState::Split(op) => [op.parent, op.left, op.right],
            ScaleOpState::Merge(op) => [op.left, op.right, op.target],
        }
    }
}

/// Counters exposed for tests and experiment reporting.
#[derive(Clone, Copy, Debug, Default)]
pub struct OrchStats {
    /// Completed replica moves/placements.
    pub completed_moves: u64,
    /// Migrations aborted by failures.
    pub aborted_moves: u64,
    /// Primary promotions performed after failures.
    pub promotions: u64,
    /// Shard map versions published.
    pub maps_published: u64,
    /// Promotion acks whose assignment transition was rejected — each
    /// one also surfaces an [`SmError`] via
    /// [`Orchestrator::drain_errors`].
    pub failed_transitions: u64,
    /// Splits committed (spec swapped to the two children).
    pub splits_completed: u64,
    /// Splits aborted before commit (children reclaimed, parent kept).
    pub splits_aborted: u64,
    /// Merges committed (spec swapped to the merged shard).
    pub merges_completed: u64,
    /// Merges aborted before commit (target reclaimed, sources kept).
    pub merges_aborted: u64,
}

/// The per-partition orchestrator.
pub struct Orchestrator {
    app: AppId,
    policy: AppPolicy,
    config: OrchestratorConfig,
    servers: BTreeMap<ServerId, ServerEntry>,
    shards: Vec<ShardId>,
    desired_replicas: BTreeMap<ShardId, u32>,
    assignment: Assignment,
    loads: BTreeMap<ShardId, LoadVector>,
    map_version: u64,
    outbox: Vec<OrchCommand>,
    migrations: Vec<Migration>,
    /// Pending promotions: `(shard, server)` awaiting a ChangeRole ack.
    promotions: Vec<(ShardId, ServerId)>,
    /// Suspect replicas awaiting reclamation: `(shard, server)` pairs
    /// where an RPC failed but the server may have applied it anyway
    /// (the ack, not the request, can be what the network lost). Until
    /// the compensating `DropShard` is acked — or the server's lease
    /// expires, which fences it — the shard must not be re-placed, or
    /// the unacked copy becomes a second willing primary.
    reclaims: Vec<(ShardId, ServerId)>,
    scheduler: Option<MoveScheduler>,
    stats: OrchStats,
    /// The authoritative key-range spec, once registered. Resharding
    /// (split/merge) rewrites it; `spec_version` counts the rewrites so
    /// routers can detect staleness independent of the map version.
    spec: Option<ShardingSpec>,
    spec_version: u64,
    /// Next never-used shard id for minting split/merge children.
    next_shard_id: u64,
    /// In-flight split/merge operations.
    scale_ops: Vec<ScaleOpState>,
    /// Post-abort resumes awaiting an `AddShard` ack: the source shard's
    /// primary was told to resume direct serving (cancelling forward
    /// state); retried on failure like reclaims.
    restores: Vec<(ShardId, ServerId)>,
    /// Surfaced anomalies (e.g. rejected promotion transitions), drained
    /// by the embedding world for logging. Bounded.
    errors: Vec<SmError>,
}

impl Orchestrator {
    /// Creates an orchestrator for one application partition.
    pub fn new(app: AppId, policy: AppPolicy, config: OrchestratorConfig) -> Self {
        Self {
            app,
            policy,
            config,
            servers: BTreeMap::new(),
            shards: Vec::new(),
            desired_replicas: BTreeMap::new(),
            assignment: Assignment::new(),
            loads: BTreeMap::new(),
            map_version: 0,
            outbox: Vec::new(),
            migrations: Vec::new(),
            promotions: Vec::new(),
            reclaims: Vec::new(),
            scheduler: None,
            stats: OrchStats::default(),
            spec: None,
            spec_version: 0,
            next_shard_id: 0,
            scale_ops: Vec::new(),
            restores: Vec::new(),
            errors: Vec::new(),
        }
    }

    /// The application this orchestrator manages.
    pub fn app(&self) -> AppId {
        self.app
    }

    /// Current desired assignment.
    pub fn assignment(&self) -> &Assignment {
        &self.assignment
    }

    /// Counters.
    pub fn stats(&self) -> OrchStats {
        self.stats
    }

    /// Updates one shard's regional placement preference (§5.1 soft
    /// goal 1). Takes effect on the next allocation run — the Figure 20
    /// workflow, where an administrator repoints AppShards at the region
    /// their DBShards moved to.
    pub fn set_region_preference(
        &mut self,
        shard: ShardId,
        region: sm_types::RegionId,
        weight: f64,
    ) {
        self.config
            .alloc
            .region_preferences
            .insert(shard, (region, weight));
    }

    /// True if `server` is registered and alive.
    pub fn server_alive(&self, server: ServerId) -> bool {
        self.servers.get(&server).map(|e| e.alive).unwrap_or(false)
    }

    /// Registers an application server.
    pub fn register_server(&mut self, id: ServerId, location: Location, capacity: LoadVector) {
        self.servers.insert(
            id,
            ServerEntry {
                location,
                capacity,
                alive: true,
                draining: false,
            },
        );
    }

    /// Registers the application's shards (app-defined, §3.1), each with
    /// the policy's default replica count.
    pub fn register_shards(&mut self, shards: impl IntoIterator<Item = ShardId>) {
        let n = self.policy.replication.replicas_per_shard();
        for s in shards {
            self.shards.push(s);
            self.desired_replicas.insert(s, n);
            self.next_shard_id = self.next_shard_id.max(s.raw() + 1);
        }
    }

    /// Registers the application's key-range spec, enabling adaptive
    /// resharding ([`Self::start_split`] / [`Self::start_merge`]). The
    /// spec's shards should also be registered via
    /// [`Self::register_shards`].
    pub fn register_spec(&mut self, spec: ShardingSpec) {
        if let Some(max) = spec.max_shard_id() {
            self.next_shard_id = self.next_shard_id.max(max.raw() + 1);
        }
        self.spec = Some(spec);
        self.spec_version += 1;
    }

    /// The current key-range spec, if one was registered. Resharding
    /// rewrites it at each commit; readers pair it with
    /// [`Self::current_map`] to route by key.
    pub fn sharding_spec(&self) -> Option<&ShardingSpec> {
        self.spec.as_ref()
    }

    /// Monotonic counter of spec rewrites.
    pub fn spec_version(&self) -> u64 {
        self.spec_version
    }

    /// The pending split point of `parent`, while a split of it is in
    /// flight. The world uses this to derive the child ranges when it
    /// delivers the `SplitForward` RPC (the RPC itself carries only ids,
    /// keeping [`ServerRpc`] `Copy`).
    pub fn pending_split(&self, parent: ShardId) -> Option<&AppKey> {
        self.scale_ops.iter().find_map(|op| match op {
            ScaleOpState::Split(s) if s.parent == parent => Some(&s.at),
            _ => None,
        })
    }

    /// The `(target, target_server)` of an in-flight merge consuming
    /// `source`, if any.
    pub fn pending_merge(&self, source: ShardId) -> Option<(ShardId, ServerId)> {
        self.scale_ops.iter().find_map(|op| match op {
            ScaleOpState::Merge(m) if m.left == source || m.right == source => {
                Some((m.target, m.target_to))
            }
            _ => None,
        })
    }

    /// Drains surfaced anomalies (rejected transitions, failed commits)
    /// for the embedding world to log.
    pub fn drain_errors(&mut self) -> Vec<SmError> {
        std::mem::take(&mut self.errors)
    }

    fn push_error(&mut self, err: SmError) {
        // Bounded: an unread backlog must not grow without limit.
        if self.errors.len() < 64 {
            self.errors.push(err);
        }
    }

    /// Adjusts one shard's desired replica count (driven by the shard
    /// scaler). Takes effect on the next allocation run; shrinking drops
    /// excess secondaries immediately.
    pub fn set_desired_replicas(&mut self, shard: ShardId, n: u32) {
        self.desired_replicas.insert(shard, n.max(1));
        let current = self.assignment.replicas(shard).len() as u32;
        if current > n {
            // Drop excess replicas, secondaries first.
            let mut victims: Vec<(ServerId, ReplicaRole)> = self
                .assignment
                .replicas(shard)
                .iter()
                .map(|r| (r.server, r.role))
                .collect();
            victims.sort_by_key(|(_, role)| role.is_primary());
            for (server, _) in victims.into_iter().take((current - n) as usize) {
                self.assignment.remove_replica(shard, server);
                self.send_rpc(server, ServerRpc::DropShard { shard });
            }
            self.publish_map();
        }
    }

    /// Drains the outbox; the world executes these commands.
    pub fn take_commands(&mut self) -> Vec<OrchCommand> {
        std::mem::take(&mut self.outbox)
    }

    fn send_rpc(&mut self, server: ServerId, rpc: ServerRpc) {
        self.outbox.push(OrchCommand::Rpc { server, rpc });
    }

    fn publish_map(&mut self) {
        self.map_version += 1;
        self.stats.maps_published += 1;
        // Collapse consecutive change notices: the world only needs to
        // know the latest version.
        if let Some(OrchCommand::MapChanged { version }) = self.outbox.last_mut() {
            *version = self.map_version;
            return;
        }
        self.outbox.push(OrchCommand::MapChanged {
            version: self.map_version,
        });
    }

    /// The current shard map at the latest published version: an
    /// O(chunks) snapshot sharing every chunk of the assignment, which
    /// copies a chunk only when it next changes a shard in it.
    pub fn current_map(&self) -> ShardMap {
        ShardMap::from_assignment(self.map_version, &self.assignment)
    }

    /// Stores a server's load report (pulled periodically in §3.2).
    pub fn report_load(&mut self, _server: ServerId, loads: Vec<(ShardId, LoadVector)>) {
        for (shard, load) in loads {
            self.loads.insert(shard, load);
        }
    }

    // ---- Allocation ----

    fn build_input(&self) -> AllocInput {
        let servers: Vec<ServerInfo> = self
            .servers
            .iter()
            .filter(|(_, e)| e.alive)
            .map(|(id, e)| ServerInfo {
                id: *id,
                location: e.location,
                capacity: e.capacity,
                draining: e.draining,
            })
            .collect();
        let shards: Vec<ShardPlacement> = self
            .shards
            .iter()
            .map(|&shard| {
                let desired = *self.desired_replicas.get(&shard).unwrap_or(&1) as usize;
                let mut replicas: Vec<Option<ServerId>> = self
                    .assignment
                    .replicas(shard)
                    .iter()
                    .map(|r| Some(r.server))
                    .collect();
                replicas.resize(desired, None);
                replicas.truncate(desired.max(replicas.len()));
                ShardPlacement {
                    shard,
                    load_per_replica: self
                        .loads
                        .get(&shard)
                        .copied()
                        .unwrap_or_else(default_shard_load),
                    replicas,
                }
            })
            .collect();
        AllocInput {
            servers,
            shards,
            config: self.config.alloc.clone(),
        }
    }

    /// Runs the periodic allocation (§5.1 periodic mode) and begins
    /// executing the plan under the move caps.
    pub fn run_periodic(&mut self) -> usize {
        let input = self.build_input();
        let plan = Allocator::plan_periodic(&input);
        let n = plan.moves.len();
        self.install_plan(plan.moves);
        n
    }

    /// Runs the emergency allocation (§5.1 emergency mode): places only
    /// the replicas that currently lack a server.
    pub fn run_emergency(&mut self) -> usize {
        let input = self.build_input();
        let plan = Allocator::plan_emergency(&input);
        // Emergency placements are fresh adds only.
        let moves: Vec<ReplicaMove> = plan
            .moves
            .into_iter()
            .filter(|m| m.from.is_none())
            .collect();
        let n = moves.len();
        self.install_plan(moves);
        n
    }

    fn install_plan(&mut self, moves: Vec<ReplicaMove>) {
        self.scheduler = Some(MoveScheduler::new(moves, self.config.move_caps));
        self.pump_scheduler();
    }

    fn pump_scheduler(&mut self) {
        let Some(mut scheduler) = self.scheduler.take() else {
            return;
        };
        let wave = scheduler.release();
        self.scheduler = Some(scheduler);
        for mv in wave {
            self.start_move(mv);
        }
    }

    fn start_move(&mut self, mv: ReplicaMove) {
        let shard = mv.shard;
        // Plans can be superseded (a drain or emergency run replaces a
        // periodic plan), so a released move may be stale by the time it
        // starts. Skip moves whose source no longer hosts the shard and
        // moves for shards already migrating — the next allocation run
        // re-plans anything still suboptimal.
        let stale_source = mv
            .from
            .map(|f| {
                !self
                    .assignment
                    .replicas(shard)
                    .iter()
                    .any(|r| r.server == f)
            })
            .unwrap_or(false);
        let already_migrating = self.migrations.iter().any(|m| m.shard == shard);
        let target_occupied = self
            .assignment
            .replicas(shard)
            .iter()
            .any(|r| r.server == mv.to);
        // A shard with a suspect unacked copy must not be re-placed
        // until the reclaim resolves; nor may any shard be placed onto
        // a server we are currently reclaiming it from. Shards inside a
        // split/merge are equally off-limits: moving the parent's
        // primary mid-forward would strand the forwarding chain.
        let reclaiming = self.reclaims.iter().any(|&(s, _)| s == shard);
        let resharding = self.scale_ops.iter().any(|op| op.involves_shard(shard))
            || self.restores.iter().any(|&(s, _)| s == shard);
        if stale_source || already_migrating || target_occupied || reclaiming || resharding {
            if let Some(s) = self.scheduler.as_mut() {
                s.complete(&mv);
            }
            return;
        }
        // Role: keep the role held at the source; fresh adds become
        // primary if the shard needs one.
        let role = match mv.from {
            Some(from) => self
                .assignment
                .replicas(shard)
                .iter()
                .find(|r| r.server == from)
                .map(|r| r.role),
            None => None,
        }
        .unwrap_or_else(|| {
            let promotion_pending = self.promotions.iter().any(|&(s, _)| s == shard);
            if self.policy.replication.has_primary()
                && self.assignment.primary_of(shard).is_none()
                && !promotion_pending
            {
                ReplicaRole::Primary
            } else {
                ReplicaRole::Secondary
            }
        });

        let source_alive = mv
            .from
            .map(|s| self.servers.get(&s).map(|e| e.alive).unwrap_or(false))
            .unwrap_or(false);

        let kind = match (mv.from, role, source_alive) {
            (None, _, _) => MigrationKind::FreshAdd,
            (Some(_), ReplicaRole::Primary, true) if self.config.graceful_migration => {
                MigrationKind::GracefulPrimary
            }
            (Some(_), ReplicaRole::Primary, true) => MigrationKind::AbruptMove,
            (Some(_), ReplicaRole::Secondary, true) => MigrationKind::SecondaryMove,
            // Source dead: nothing to hand off.
            (Some(_), _, false) => MigrationKind::FreshAdd,
        };

        // Matching on (kind, source) lets the compiler see that the
        // source-ful kinds carry a source; a sourceless one (impossible
        // by construction above) degrades to a fresh add.
        let (phase, first_rpc, target) = match (kind, mv.from) {
            (MigrationKind::GracefulPrimary, Some(src)) => (
                Phase::PrepareAdd,
                ServerRpc::PrepareAddShard {
                    shard,
                    current_owner: src,
                    role,
                },
                mv.to,
            ),
            (MigrationKind::AbruptMove, Some(src)) => {
                (Phase::Drop, ServerRpc::DropShard { shard }, src)
            }
            (MigrationKind::SecondaryMove | MigrationKind::FreshAdd, _) | (_, None) => {
                (Phase::Add, ServerRpc::AddShard { shard, role }, mv.to)
            }
        };
        self.migrations.push(Migration {
            shard,
            from: mv.from,
            to: mv.to,
            role,
            kind,
            phase,
            mv,
        });
        self.send_rpc(target, first_rpc);
    }

    /// Writes an updated migration back by index. A stale index (which
    /// the `position()` lookups above the call sites rule out) is a
    /// no-op rather than a panic.
    fn store_migration(&mut self, idx: usize, mig: Migration) {
        if let Some(slot) = self.migrations.get_mut(idx) {
            *slot = mig;
        }
    }

    /// Handles an RPC acknowledgement from an application server,
    /// advancing the corresponding migration/promotion state machine.
    pub fn rpc_acked(&mut self, server: ServerId, rpc: ServerRpc) {
        // Reclaim acks first: the suspect copy is confirmed gone, so
        // the shard is safe to place again. A reclaim is never also a
        // live migration ack — reclaims are only created after every
        // migration touching that (shard, server) was aborted, and no
        // new one can start while the reclaim is pending.
        if let ServerRpc::DropShard { shard } = rpc {
            if let Some(pos) = self
                .reclaims
                .iter()
                .position(|&(s, srv)| s == shard && srv == server)
            {
                self.reclaims.swap_remove(pos);
                if self.assignment.replicas(shard).is_empty()
                    && !self.migrations.iter().any(|m| m.shard == shard)
                {
                    self.run_emergency();
                }
                // A promotion deferred by the reclaim can go ahead now.
                self.ensure_primary_for(shard);
                return;
            }
        }

        // Promotions first: ChangeRole to primary.
        if let ServerRpc::ChangeRole { shard, new, .. } = rpc {
            if let Some(pos) = self
                .promotions
                .iter()
                .position(|&(s, srv)| s == shard && srv == server)
            {
                self.promotions.swap_remove(pos);
                if new.is_primary() {
                    match self.assignment.change_role(shard, server, new) {
                        Ok(()) => {
                            self.stats.promotions += 1;
                            self.publish_map();
                        }
                        Err(reason) => {
                            // The server acked the promotion but the
                            // assignment refused it (e.g. a concurrent
                            // path already installed another primary).
                            // The acker now wrongly believes it is
                            // primary: demote it, surface the anomaly,
                            // and re-run role reconciliation instead of
                            // publishing a map that contradicts
                            // reality.
                            self.stats.failed_transitions += 1;
                            self.push_error(SmError::conflict(format!(
                                "promotion of {shard} at {server} acked but rejected: {reason}"
                            )));
                            self.send_rpc(
                                server,
                                ServerRpc::ChangeRole {
                                    shard,
                                    current: ReplicaRole::Primary,
                                    new: ReplicaRole::Secondary,
                                },
                            );
                            self.ensure_primary_for(shard);
                        }
                    }
                }
                return;
            }
        }

        if self.restore_acked(server, rpc) || self.scale_rpc_acked(server, rpc) {
            return;
        }

        let Some(idx) = self.migrations.iter().position(|m| match m.phase {
            Phase::PrepareAdd => {
                server == m.to
                    && m.from.is_some_and(|src| {
                        rpc == ServerRpc::PrepareAddShard {
                            shard: m.shard,
                            current_owner: src,
                            role: m.role,
                        }
                    })
            }
            Phase::PrepareDrop => {
                Some(server) == m.from
                    && rpc
                        == ServerRpc::PrepareDropShard {
                            shard: m.shard,
                            new_owner: m.to,
                            role: m.role,
                        }
            }
            Phase::Add => {
                server == m.to
                    && rpc
                        == ServerRpc::AddShard {
                            shard: m.shard,
                            role: m.role,
                        }
            }
            Phase::Drop => Some(server) == m.from && rpc == ServerRpc::DropShard { shard: m.shard },
        }) else {
            return;
        };

        let Some(mut mig) = self.migrations.get(idx).copied() else {
            return;
        };
        match (mig.kind, mig.phase) {
            // -- Graceful primary: steps 1..5 --
            (MigrationKind::GracefulPrimary, Phase::PrepareAdd) => {
                let Some(src) = mig.from else { return };
                mig.phase = Phase::PrepareDrop;
                self.store_migration(idx, mig);
                self.send_rpc(
                    src,
                    ServerRpc::PrepareDropShard {
                        shard: mig.shard,
                        new_owner: mig.to,
                        role: mig.role,
                    },
                );
            }
            (MigrationKind::GracefulPrimary, Phase::PrepareDrop) => {
                mig.phase = Phase::Add;
                self.store_migration(idx, mig);
                self.send_rpc(
                    mig.to,
                    ServerRpc::AddShard {
                        shard: mig.shard,
                        role: mig.role,
                    },
                );
            }
            (MigrationKind::GracefulPrimary, Phase::Add) => {
                // Step 4: record the handover and publish before the
                // final drop.
                let Some(src) = mig.from else { return };
                let _outcome = self.assignment.move_replica(mig.shard, src, mig.to);
                self.publish_map();
                mig.phase = Phase::Drop;
                self.store_migration(idx, mig);
                self.send_rpc(src, ServerRpc::DropShard { shard: mig.shard });
            }
            (MigrationKind::GracefulPrimary, Phase::Drop) => {
                self.finish_migration(idx);
            }

            // -- Abrupt primary move: drop, then add --
            (MigrationKind::AbruptMove, Phase::Drop) => {
                let Some(src) = mig.from else { return };
                self.assignment.remove_replica(mig.shard, src);
                mig.phase = Phase::Add;
                self.store_migration(idx, mig);
                self.send_rpc(
                    mig.to,
                    ServerRpc::AddShard {
                        shard: mig.shard,
                        role: mig.role,
                    },
                );
            }
            (MigrationKind::AbruptMove, Phase::Add) => {
                let _outcome = self.assignment.add_replica(mig.shard, mig.to, mig.role);
                self.publish_map();
                self.finish_migration(idx);
            }

            // -- Secondary move: add, publish, then drop --
            (MigrationKind::SecondaryMove, Phase::Add) => {
                let Some(src) = mig.from else { return };
                let _outcome = self.assignment.add_replica(mig.shard, mig.to, mig.role);
                self.publish_map();
                mig.phase = Phase::Drop;
                self.store_migration(idx, mig);
                self.send_rpc(src, ServerRpc::DropShard { shard: mig.shard });
            }
            (MigrationKind::SecondaryMove, Phase::Drop) => {
                let Some(src) = mig.from else { return };
                self.assignment.remove_replica(mig.shard, src);
                self.publish_map();
                self.finish_migration(idx);
            }

            // -- Fresh add --
            (MigrationKind::FreshAdd, Phase::Add) => {
                let mut role = mig.role;
                if role.is_primary() && self.assignment.primary_of(mig.shard).is_some() {
                    // A concurrent promotion won the primary role while
                    // this add was in flight; demote the newcomer and
                    // record it as a secondary.
                    role = ReplicaRole::Secondary;
                    self.send_rpc(
                        mig.to,
                        ServerRpc::ChangeRole {
                            shard: mig.shard,
                            current: ReplicaRole::Primary,
                            new: ReplicaRole::Secondary,
                        },
                    );
                }
                let _outcome = self.assignment.add_replica(mig.shard, mig.to, role);
                self.publish_map();
                self.finish_migration(idx);
            }
            _ => {}
        }
    }

    fn finish_migration(&mut self, idx: usize) {
        let mig = self.migrations.swap_remove(idx);
        self.stats.completed_moves += 1;
        if let Some(s) = self.scheduler.as_mut() {
            s.complete(&mig.mv);
        }
        // A shard can end a migration without a primary (e.g. its
        // promotion failed while this replacement replica was being
        // placed); re-elect as soon as the shard is quiescent.
        self.ensure_primary_for(mig.shard);
        self.pump_scheduler();
    }

    /// Handles an RPC failure: the migration is aborted; failure-driven
    /// repair happens through [`Self::server_down`].
    pub fn rpc_failed(&mut self, server: ServerId, rpc: ServerRpc) {
        let shard = rpc.shard();
        // A failed post-abort resume retries while the server lives (a
        // source primary that never resumes serving blackholes its
        // range); a dead server resolves through `server_down`.
        if let ServerRpc::AddShard { .. } = rpc {
            if self
                .restores
                .iter()
                .any(|&(s, srv)| s == shard && srv == server)
            {
                if self.server_alive(server) {
                    self.send_rpc(server, rpc);
                }
                return;
            }
        }
        // Any nack inside an in-flight split/merge aborts the whole op
        // pre-commit: children are reclaimed, sources resume serving.
        if let Some(idx) = self
            .scale_ops
            .iter()
            .position(|op| op.involves_shard(shard) && op.involves_server(server))
        {
            self.abort_scale_op(idx, None);
            return;
        }
        if let Some(idx) = self
            .migrations
            .iter()
            .position(|m| m.shard == shard && (m.to == server || m.from == Some(server)))
        {
            let mig = self.migrations.swap_remove(idx);
            self.stats.aborted_moves += 1;
            if let Some(s) = self.scheduler.as_mut() {
                s.complete(&mig.mv);
            }
            // If the target had been prepared (step 1) it still holds
            // prepare-state and warmed data; tell it to discard unless
            // the shard's record actually lives there.
            if mig.kind == MigrationKind::GracefulPrimary
                && mig.to != server
                && self.server_alive(mig.to)
                && !self
                    .assignment
                    .replicas(mig.shard)
                    .iter()
                    .any(|r| r.server == mig.to)
            {
                self.send_rpc(mig.to, ServerRpc::DropShard { shard: mig.shard });
            }
            self.pump_scheduler();
        }
        // A failed *promotion* retries on the next live secondary: the
        // application may have nacked because a safe joint election was
        // momentarily impossible there (stale log, unreachable quorum),
        // while another replica can win right now. Without the retry
        // the shard stays primary-less until an unrelated event.
        let was_promotion = matches!(rpc, ServerRpc::ChangeRole { new, .. } if new.is_primary())
            && self
                .promotions
                .iter()
                .any(|&(s, srv)| s == shard && srv == server);
        self.promotions
            .retain(|&(s, srv)| !(s == shard && srv == server));
        if was_promotion {
            self.retry_promotion(shard, server);
        }
        // "Failed" only means no ack arrived — the server may well have
        // applied the RPC (a lossy network can eat the ack rather than
        // the request). If the server is still alive and the assignment
        // does not place this shard there, it may now hold an unacked
        // copy: reclaim it with a compensating DropShard, and hold the
        // shard back from re-placement until the drop is confirmed or
        // the server's lease expiry fences it. Re-placing earlier would
        // create a second willing primary (§3.2).
        let assigned_there = self
            .assignment
            .replicas(shard)
            .iter()
            .any(|r| r.server == server);
        if self.server_alive(server) && !assigned_there {
            if !self.reclaims.contains(&(shard, server)) {
                self.reclaims.push((shard, server));
            }
            self.send_rpc(server, ServerRpc::DropShard { shard });
        }
        // An aborted fresh add can leave the shard with no replica at
        // all (e.g. the target restarted mid-placement). Re-place it
        // immediately instead of waiting for the next periodic run.
        if self.assignment.replicas(shard).is_empty()
            && !self.migrations.iter().any(|m| m.shard == shard)
        {
            self.run_emergency();
        }
    }

    // ---- Failure handling ----

    /// Marks a server down (ZooKeeper ephemeral expired, §3.2): its
    /// replicas are dropped from the assignment, surviving secondaries
    /// are promoted where the primary was lost, a new map is published,
    /// and the emergency allocator refills the missing replicas.
    pub fn server_down(&mut self, server: ServerId) {
        let Some(entry) = self.servers.get_mut(&server) else {
            return;
        };
        if !entry.alive {
            return;
        }
        entry.alive = false;

        // Abort split/merge ops touching the dead server while the
        // assignment still reflects pre-failure reality (the abort's
        // source-resume check needs it). The dead server's own reclaims
        // and restores are fenced by lease expiry below.
        let doomed_ops: Vec<usize> = self
            .scale_ops
            .iter()
            .enumerate()
            .filter(|(_, op)| op.involves_server(server))
            .map(|(i, _)| i)
            .collect();
        for idx in doomed_ops.into_iter().rev() {
            self.abort_scale_op(idx, Some(server));
        }
        self.restores.retain(|&(_, srv)| srv != server);

        // Abort migrations touching the dead server.
        let doomed: Vec<usize> = self
            .migrations
            .iter()
            .enumerate()
            .filter(|(_, m)| m.to == server || m.from == Some(server))
            .map(|(i, _)| i)
            .collect();
        for idx in doomed.into_iter().rev() {
            let mig = self.migrations.swap_remove(idx);
            self.stats.aborted_moves += 1;
            if let Some(s) = self.scheduler.as_mut() {
                s.complete(&mig.mv);
            }
        }

        // Lease expiry fences the dead server (§3.2: it wiped itself or
        // will refuse traffic), so any unacked copy it held is gone —
        // its pending reclaims resolve, freeing those shards to be
        // re-placed by the emergency run below.
        let freed: Vec<ShardId> = self
            .reclaims
            .iter()
            .filter(|&&(_, srv)| srv == server)
            .map(|&(s, _)| s)
            .collect();
        self.reclaims.retain(|&(_, srv)| srv != server);

        let lost = self.assignment.drop_server(server);
        // Promote a surviving secondary wherever a primary was lost.
        for (shard, role) in &lost {
            if role.is_primary() {
                let survivor = self
                    .assignment
                    .replicas(*shard)
                    .iter()
                    .find(|r| {
                        !r.role.is_primary()
                            && self
                                .servers
                                .get(&r.server)
                                .map(|e| e.alive)
                                .unwrap_or(false)
                    })
                    .map(|r| r.server);
                if let Some(new_primary) = survivor {
                    self.promotions.push((*shard, new_primary));
                    self.send_rpc(
                        new_primary,
                        ServerRpc::ChangeRole {
                            shard: *shard,
                            current: ReplicaRole::Secondary,
                            new: ReplicaRole::Primary,
                        },
                    );
                }
            }
        }
        self.publish_map();
        if !lost.is_empty() || !freed.is_empty() {
            self.run_emergency();
        }
        self.ensure_primaries();
        self.pump_scheduler();
    }

    /// Marks a recovered server available again (it returns empty; the
    /// next periodic run will use it).
    pub fn server_up(&mut self, server: ServerId) {
        if let Some(e) = self.servers.get_mut(&server) {
            e.alive = true;
            e.draining = false;
        }
    }

    // ---- Drain (planned events, §4.1/§4.2) ----

    /// Begins evacuating `server`: every replica it hosts is migrated to
    /// a greedily chosen target (graceful for primaries). Returns the
    /// number of migrations started; zero means it was already empty.
    pub fn drain_server(&mut self, server: ServerId) -> usize {
        if let Some(e) = self.servers.get_mut(&server) {
            e.draining = true;
        }
        let moves = self.plan_drain(server);
        let n = moves.len();
        self.install_plan(moves);
        n
    }

    /// One move per replica on `server` that is not already migrating,
    /// each to a greedily picked target. Every pick reads one usage
    /// table built up front, so planning costs O(replicas + victims ×
    /// servers) instead of a cluster walk per candidate.
    fn plan_drain(&self, server: ServerId) -> Vec<ReplicaMove> {
        let usage = self.usage_table();
        let mut moves = Vec::new();
        // Track hypothetical extra load per target so consecutive picks
        // spread rather than pile onto one cold server.
        let mut extra: BTreeMap<ServerId, LoadVector> = BTreeMap::new();
        for (shard, _) in self.assignment.shards_on(server) {
            if self.migrations.iter().any(|m| m.shard == shard) {
                continue;
            }
            let load = self
                .loads
                .get(&shard)
                .copied()
                .unwrap_or_else(default_shard_load);
            let hosts: Vec<ServerId> = self
                .assignment
                .replicas(shard)
                .iter()
                .map(|r| r.server)
                .collect();
            let Some(target) = self.pick_target(&usage, &hosts, &extra, &load) else {
                continue;
            };
            *extra.entry(target).or_insert_with(LoadVector::zero) += load;
            moves.push(ReplicaMove {
                shard,
                replica: 0,
                from: Some(server),
                to: target,
            });
        }
        moves
    }

    /// Every server's summed shard load, from one pass over the
    /// assignment. Each server's sum adds its shards in ascending shard
    /// order, as a walk over that server alone would, so the floats —
    /// and the picks they decide — are bit-identical to per-server sums.
    fn usage_table(&self) -> BTreeMap<ServerId, LoadVector> {
        let mut usage: BTreeMap<ServerId, LoadVector> = BTreeMap::new();
        for (shard, r) in self.assignment.iter() {
            *usage.entry(r.server).or_insert_with(LoadVector::zero) += self
                .loads
                .get(&shard)
                .copied()
                .unwrap_or_else(default_shard_load);
        }
        usage
    }

    /// The target for `load` among live, non-draining servers outside
    /// `exclude` that fit it on top of their `usage` plus the `extra`
    /// already planned onto them (a zero capacity is unlimited). The
    /// least max-utilisation of the committed usage wins; ties go to the
    /// lowest `ServerId`.
    fn pick_target(
        &self,
        usage: &BTreeMap<ServerId, LoadVector>,
        exclude: &[ServerId],
        extra: &BTreeMap<ServerId, LoadVector>,
        load: &LoadVector,
    ) -> Option<ServerId> {
        self.servers
            .iter()
            .filter(|(id, e)| e.alive && !e.draining && !exclude.contains(id))
            .filter_map(|(id, e)| {
                let committed = usage.get(id).copied().unwrap_or_else(LoadVector::zero);
                let mut planned = committed;
                if let Some(x) = extra.get(id) {
                    planned += *x;
                }
                planned += *load;
                let fits = planned.fits_within(&e.capacity) || e.capacity == LoadVector::zero();
                fits.then(|| (*id, committed.max_utilization(&e.capacity)))
            })
            .min_by(|(_, ua), (_, ub)| ua.partial_cmp(ub).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(id, _)| id)
    }

    /// True once `server` hosts nothing and no migration still involves
    /// it — the signal the TaskController waits for before approving the
    /// container operation.
    pub fn is_drained(&self, server: ServerId) -> bool {
        self.assignment.shards_on(server).is_empty()
            && !self
                .migrations
                .iter()
                .any(|m| m.from == Some(server) || m.to == server)
    }

    /// Clears the draining mark after the container operation completes.
    pub fn drain_finished(&mut self, server: ServerId) {
        if let Some(e) = self.servers.get_mut(&server) {
            e.draining = false;
        }
    }

    // ---- Non-negotiable maintenance preparation (§4.2) ----

    /// Prepares for an announced, non-delayable maintenance event on
    /// `servers`: for a short-impact event (e.g. rack-switch network
    /// loss), secondaries may stay, but every primary on an affected
    /// server is demoted while a secondary on an unaffected server is
    /// promoted. Returns the number of role swaps started.
    ///
    /// Shards whose every replica sits on an affected server have
    /// nowhere to promote to; they are left as-is (the event's downtime
    /// hits them regardless — placement spread exists to make this
    /// rare).
    pub fn prepare_for_maintenance(&mut self, servers: &[ServerId]) -> usize {
        let affected: std::collections::BTreeSet<ServerId> = servers.iter().copied().collect();
        let mut swaps = 0;
        let shard_list: Vec<ShardId> = self.shards.clone();
        for shard in shard_list {
            let Some(primary) = self.assignment.primary_of(shard) else {
                continue;
            };
            if !affected.contains(&primary) {
                continue;
            }
            let successor = self
                .assignment
                .replicas(shard)
                .iter()
                .find(|r| {
                    !r.role.is_primary()
                        && !affected.contains(&r.server)
                        && self
                            .servers
                            .get(&r.server)
                            .map(|e| e.alive)
                            .unwrap_or(false)
                })
                .map(|r| r.server);
            let Some(new_primary) = successor else {
                continue; // every replica is in the blast radius
            };
            // Demote in place, then promote through the normal
            // promotion path (ack-driven, publishes the map).
            let _outcome = self
                .assignment
                .change_role(shard, primary, ReplicaRole::Secondary);
            self.send_rpc(
                primary,
                ServerRpc::ChangeRole {
                    shard,
                    current: ReplicaRole::Primary,
                    new: ReplicaRole::Secondary,
                },
            );
            self.promotions.push((shard, new_primary));
            self.send_rpc(
                new_primary,
                ServerRpc::ChangeRole {
                    shard,
                    current: ReplicaRole::Secondary,
                    new: ReplicaRole::Primary,
                },
            );
            swaps += 1;
        }
        if swaps > 0 {
            self.publish_map();
        }
        swaps
    }

    /// Replicas currently hosted per server (for the TaskController's
    /// availability view).
    pub fn shards_on(&self, server: ServerId) -> Vec<(ShardId, ReplicaRole)> {
        self.assignment.shards_on(server)
    }

    /// Role reconciliation: promotes a live secondary wherever a shard
    /// that should have a primary lacks one and no promotion or
    /// migration is already in flight. Covers the corner where a
    /// promotion RPC fails (e.g. the chosen successor dies before
    /// acking) — without this, the shard would stay primary-less until
    /// an unrelated event.
    fn ensure_primaries(&mut self) {
        if !self.policy.replication.has_primary() {
            return;
        }
        let shards: Vec<ShardId> = self.shards.clone();
        for shard in shards {
            self.ensure_primary_for(shard);
        }
    }

    /// Per-shard variant of the role reconciliation, cheap enough for
    /// hot paths like migration completion.
    fn ensure_primary_for(&mut self, shard: ShardId) {
        if !self.policy.replication.has_primary()
            || self.assignment.primary_of(shard).is_some()
            || self.assignment.replicas(shard).is_empty()
            || self.promotions.iter().any(|&(s, _)| s == shard)
            || self.migrations.iter().any(|m| m.shard == shard)
            // A suspect unacked copy may still be primary-willing;
            // promoting a survivor before the reclaim resolves would
            // make two (§3.2).
            || self.reclaims.iter().any(|&(s, _)| s == shard)
        {
            return;
        }
        let successor = self
            .assignment
            .replicas(shard)
            .iter()
            .find(|r| {
                self.servers
                    .get(&r.server)
                    .map(|e| e.alive)
                    .unwrap_or(false)
            })
            .map(|r| r.server);
        if let Some(server) = successor {
            self.promotions.push((shard, server));
            self.send_rpc(
                server,
                ServerRpc::ChangeRole {
                    shard,
                    current: ReplicaRole::Secondary,
                    new: ReplicaRole::Primary,
                },
            );
        }
    }

    /// Re-drives a failed promotion on the next candidate: live
    /// non-primary replicas in server order, starting just past the
    /// server that nacked and wrapping around to it last — a sole
    /// secondary gets retried too (it may only have needed one more
    /// catch-up round). No-op when another promotion for the shard is
    /// already pending.
    fn retry_promotion(&mut self, shard: ShardId, failed: ServerId) {
        if self.promotions.iter().any(|&(s, _)| s == shard) {
            return;
        }
        let mut candidates: Vec<ServerId> = self
            .assignment
            .replicas(shard)
            .iter()
            .filter(|r| !r.role.is_primary())
            .map(|r| r.server)
            .filter(|srv| self.servers.get(srv).map(|e| e.alive).unwrap_or(false))
            .collect();
        candidates.sort_unstable();
        let next = candidates
            .iter()
            .copied()
            .find(|&srv| srv > failed)
            .or_else(|| candidates.first().copied());
        if let Some(server) = next {
            self.promotions.push((shard, server));
            self.send_rpc(
                server,
                ServerRpc::ChangeRole {
                    shard,
                    current: ReplicaRole::Secondary,
                    new: ReplicaRole::Primary,
                },
            );
        }
    }

    // ---- Shard scaling (§3.4) ----

    /// Runs the shard scaler over the latest load reports: each shard's
    /// total load (per-replica load x replica count) is evaluated and
    /// replica counts adjusted. Returns the number of shards resized;
    /// scale-ups are placed immediately through the emergency path.
    pub fn run_scaler(&mut self, scaler: &crate::ShardScaler) -> usize {
        let mut totals = BTreeMap::new();
        let mut counts = BTreeMap::new();
        for (&shard, load) in &self.loads {
            let n = self.assignment.replicas(shard).len() as u32;
            if n == 0 {
                continue;
            }
            totals.insert(shard, load.scale(f64::from(n)));
            counts.insert(shard, n);
        }
        let decisions = scaler.evaluate(&totals, &counts);
        let changed = decisions.len();
        let mut grew = false;
        for d in decisions {
            grew |= d.to > d.from;
            self.set_desired_replicas(d.shard, d.to);
        }
        if grew {
            self.run_emergency();
        }
        changed
    }

    // ---- Adaptive resharding (beyond the paper; ROADMAP item 3) ----
    //
    // A split runs the §4.3 graceful protocol generalized to 1→2:
    //
    // 1. `prepare_add_shard(left)` → left_to, `prepare_add_shard(right)`
    //    → right_to (children accept only forwarded requests);
    // 2. `split_forward(parent, ...)` → parent's primary (keeps the
    //    data, stops serving directly, forwards each request to the
    //    child covering its key);
    // 3. `add_shard(left)` → left_to, `add_shard(right)` → right_to;
    // 4. on both acks, *commit*: rewrite the spec, swap the assignment,
    //    publish the new map — one atomic step, so every shard id keeps
    //    a single immutable range from mint to removal;
    // 5. `drop_shard(parent)` → old primary via the reclaim machinery
    //    (drains residual forwarded traffic; retried like any reclaim).
    //
    // A merge is the mirror image (2→1): prepare the target, tell both
    // source primaries to `merge_forward`, cut over, commit, reclaim
    // the sources. Any nack, involved-server death, or involved-server
    // restart before commit aborts the whole op: the unpublished
    // children/target are reclaimed and the sources resume serving.

    /// Begins a graceful split of `parent` at its range midpoint.
    pub fn start_split(&mut self, parent: ShardId) -> Result<(), SmError> {
        let spec = self
            .spec
            .as_ref()
            .ok_or_else(|| SmError::conflict("no sharding spec registered"))?;
        let range = spec
            .range_of(parent)
            .ok_or_else(|| SmError::not_found(parent))?;
        let at = range
            .midpoint()
            .ok_or_else(|| SmError::conflict(format!("{parent} is too narrow to split")))?;
        if self.reshard_busy().contains(&parent) {
            return Err(SmError::conflict(format!("{parent} is busy")));
        }
        let parent_primary = self
            .assignment
            .primary_of(parent)
            .filter(|&p| self.server_alive(p))
            .ok_or_else(|| SmError::Unavailable(format!("{parent} has no live primary")))?;
        // Each child inherits half the parent's observed load; targets
        // are picked like drain targets, spreading the two halves.
        let half = self
            .loads
            .get(&parent)
            .copied()
            .unwrap_or_else(default_shard_load)
            .scale(0.5);
        let usage = self.usage_table();
        let mut extra: BTreeMap<ServerId, LoadVector> = BTreeMap::new();
        let no_target = || SmError::Unavailable("no server can host a split child".into());
        let left_to = self
            .pick_target(&usage, &[parent_primary], &extra, &half)
            .ok_or_else(no_target)?;
        extra.insert(left_to, half);
        let right_to = self
            .pick_target(&usage, &[parent_primary], &extra, &half)
            .ok_or_else(no_target)?;
        let left = self.mint_shard_id();
        let right = self.mint_shard_id();
        self.loads.insert(left, half);
        self.loads.insert(right, half);
        self.scale_ops.push(ScaleOpState::Split(SplitOp {
            parent,
            parent_primary,
            at,
            left,
            left_to,
            right,
            right_to,
            phase: ScalePhase::Prepare,
            left_ready: false,
            right_ready: false,
        }));
        self.send_rpc(
            left_to,
            ServerRpc::PrepareAddShard {
                shard: left,
                current_owner: parent_primary,
                role: ReplicaRole::Primary,
            },
        );
        self.send_rpc(
            right_to,
            ServerRpc::PrepareAddShard {
                shard: right,
                current_owner: parent_primary,
                role: ReplicaRole::Primary,
            },
        );
        Ok(())
    }

    /// Begins a graceful merge of the adjacent shards `left` and
    /// `right` into one freshly minted shard.
    pub fn start_merge(&mut self, left: ShardId, right: ShardId) -> Result<(), SmError> {
        let spec = self
            .spec
            .as_ref()
            .ok_or_else(|| SmError::conflict("no sharding spec registered"))?;
        let lr = spec
            .range_of(left)
            .ok_or_else(|| SmError::not_found(left))?;
        let rr = spec
            .range_of(right)
            .ok_or_else(|| SmError::not_found(right))?;
        if lr.merge(rr).is_none() {
            return Err(SmError::InvalidArgument(format!(
                "{left} and {right} are not adjacent"
            )));
        }
        let busy = self.reshard_busy();
        if busy.contains(&left) || busy.contains(&right) {
            return Err(SmError::conflict(format!("{left} or {right} is busy")));
        }
        let live_primary = |o: &Self, s: ShardId| {
            o.assignment
                .primary_of(s)
                .filter(|&p| o.server_alive(p))
                .ok_or_else(|| SmError::Unavailable(format!("{s} has no live primary")))
        };
        let left_primary = live_primary(self, left)?;
        let right_primary = live_primary(self, right)?;
        let mut combined = self
            .loads
            .get(&left)
            .copied()
            .unwrap_or_else(default_shard_load);
        combined += self
            .loads
            .get(&right)
            .copied()
            .unwrap_or_else(default_shard_load);
        let target_to = self
            .pick_target(
                &self.usage_table(),
                &[left_primary, right_primary],
                &BTreeMap::new(),
                &combined,
            )
            .ok_or_else(|| SmError::Unavailable("no server can host the merged shard".into()))?;
        let target = self.mint_shard_id();
        self.loads.insert(target, combined);
        self.scale_ops.push(ScaleOpState::Merge(MergeOp {
            left,
            left_primary,
            right,
            right_primary,
            target,
            target_to,
            phase: ScalePhase::Prepare,
            left_ready: false,
            right_ready: false,
        }));
        self.send_rpc(
            target_to,
            ServerRpc::PrepareAddShard {
                shard: target,
                current_owner: left_primary,
                role: ReplicaRole::Primary,
            },
        );
        Ok(())
    }

    /// Runs the split scaler over the latest load reports and starts as
    /// many recommended operations as the concurrency budget allows.
    /// Returns the number started.
    pub fn run_reshard(&mut self, scaler: &SplitScaler) -> usize {
        let Some(spec) = self.spec.clone() else {
            return 0;
        };
        let slots = scaler
            .config()
            .max_concurrent
            .saturating_sub(self.scale_ops.len());
        if slots == 0 {
            return 0;
        }
        let busy = self.reshard_busy();
        let ops = scaler.evaluate(&spec, &self.loads, &busy);
        let mut started = 0;
        for op in ops.into_iter().take(slots) {
            let outcome = match op {
                ReshardOp::Split { shard } => self.start_split(shard),
                ReshardOp::Merge { left, right } => self.start_merge(left, right),
            };
            // A refused start (no target with headroom, primary briefly
            // missing) is not an anomaly; the next tick retries.
            if outcome.is_ok() {
                started += 1;
            }
        }
        started
    }

    /// Shards the split scaler must leave alone: anything mid-migration,
    /// mid-promotion, mid-reclaim, mid-restore, or inside a scale op.
    fn reshard_busy(&self) -> BTreeSet<ShardId> {
        let mut busy: BTreeSet<ShardId> = BTreeSet::new();
        busy.extend(self.migrations.iter().map(|m| m.shard));
        busy.extend(self.promotions.iter().map(|&(s, _)| s));
        busy.extend(self.reclaims.iter().map(|&(s, _)| s));
        busy.extend(self.restores.iter().map(|&(s, _)| s));
        for op in &self.scale_ops {
            busy.extend(op.shards());
        }
        busy
    }

    fn mint_shard_id(&mut self) -> ShardId {
        let id = ShardId(self.next_shard_id);
        self.next_shard_id += 1;
        id
    }

    /// Matches an ack against in-flight scale ops and advances the
    /// owning state machine. Returns true when consumed.
    fn scale_rpc_acked(&mut self, server: ServerId, rpc: ServerRpc) -> bool {
        for idx in 0..self.scale_ops.len() {
            let advanced = match self.scale_ops.get(idx) {
                Some(ScaleOpState::Split(op)) => {
                    let op = op.clone();
                    self.split_acked(idx, &op, server, rpc)
                }
                Some(ScaleOpState::Merge(op)) => {
                    let op = op.clone();
                    self.merge_acked(idx, &op, server, rpc)
                }
                None => false,
            };
            if advanced {
                return true;
            }
        }
        false
    }

    fn split_acked(&mut self, idx: usize, op: &SplitOp, server: ServerId, rpc: ServerRpc) -> bool {
        let mut op = op.clone();
        match op.phase {
            ScalePhase::Prepare => {
                let expected = |child: ShardId| ServerRpc::PrepareAddShard {
                    shard: child,
                    current_owner: op.parent_primary,
                    role: ReplicaRole::Primary,
                };
                if server == op.left_to && rpc == expected(op.left) {
                    op.left_ready = true;
                } else if server == op.right_to && rpc == expected(op.right) {
                    op.right_ready = true;
                } else {
                    return false;
                }
                if op.left_ready && op.right_ready {
                    op.phase = ScalePhase::Forward;
                    op.left_ready = false;
                    op.right_ready = false;
                    self.send_rpc(
                        op.parent_primary,
                        ServerRpc::SplitForward {
                            parent: op.parent,
                            left: op.left,
                            left_to: op.left_to,
                            right: op.right,
                            right_to: op.right_to,
                        },
                    );
                }
                self.store_scale_op(idx, ScaleOpState::Split(op));
                true
            }
            ScalePhase::Forward => {
                let expected = ServerRpc::SplitForward {
                    parent: op.parent,
                    left: op.left,
                    left_to: op.left_to,
                    right: op.right,
                    right_to: op.right_to,
                };
                if server != op.parent_primary || rpc != expected {
                    return false;
                }
                self.send_rpc(
                    op.left_to,
                    ServerRpc::AddShard {
                        shard: op.left,
                        role: ReplicaRole::Primary,
                    },
                );
                self.send_rpc(
                    op.right_to,
                    ServerRpc::AddShard {
                        shard: op.right,
                        role: ReplicaRole::Primary,
                    },
                );
                if self.config.skip_cutover_ack {
                    // DST ablation: commit at send time. See
                    // `OrchestratorConfig::skip_cutover_ack`.
                    self.scale_ops.swap_remove(idx);
                    self.commit_split(&op);
                } else {
                    op.phase = ScalePhase::Cutover;
                    self.store_scale_op(idx, ScaleOpState::Split(op));
                }
                true
            }
            ScalePhase::Cutover => {
                let expected = |child: ShardId| ServerRpc::AddShard {
                    shard: child,
                    role: ReplicaRole::Primary,
                };
                if server == op.left_to && rpc == expected(op.left) {
                    op.left_ready = true;
                } else if server == op.right_to && rpc == expected(op.right) {
                    op.right_ready = true;
                } else {
                    return false;
                }
                if op.left_ready && op.right_ready {
                    self.scale_ops.swap_remove(idx);
                    self.commit_split(&op);
                } else {
                    self.store_scale_op(idx, ScaleOpState::Split(op));
                }
                true
            }
        }
    }

    fn merge_acked(&mut self, idx: usize, op: &MergeOp, server: ServerId, rpc: ServerRpc) -> bool {
        let mut op = op.clone();
        match op.phase {
            ScalePhase::Prepare => {
                let expected = ServerRpc::PrepareAddShard {
                    shard: op.target,
                    current_owner: op.left_primary,
                    role: ReplicaRole::Primary,
                };
                if server != op.target_to || rpc != expected {
                    return false;
                }
                op.phase = ScalePhase::Forward;
                self.send_rpc(
                    op.left_primary,
                    ServerRpc::MergeForward {
                        source: op.left,
                        target: op.target,
                        target_to: op.target_to,
                    },
                );
                self.send_rpc(
                    op.right_primary,
                    ServerRpc::MergeForward {
                        source: op.right,
                        target: op.target,
                        target_to: op.target_to,
                    },
                );
                self.store_scale_op(idx, ScaleOpState::Merge(op));
                true
            }
            ScalePhase::Forward => {
                let expected = |source: ShardId| ServerRpc::MergeForward {
                    source,
                    target: op.target,
                    target_to: op.target_to,
                };
                if server == op.left_primary && rpc == expected(op.left) {
                    op.left_ready = true;
                } else if server == op.right_primary && rpc == expected(op.right) {
                    op.right_ready = true;
                } else {
                    return false;
                }
                if op.left_ready && op.right_ready {
                    self.send_rpc(
                        op.target_to,
                        ServerRpc::AddShard {
                            shard: op.target,
                            role: ReplicaRole::Primary,
                        },
                    );
                    if self.config.skip_cutover_ack {
                        self.scale_ops.swap_remove(idx);
                        self.commit_merge(&op);
                        return true;
                    }
                    op.phase = ScalePhase::Cutover;
                }
                self.store_scale_op(idx, ScaleOpState::Merge(op));
                true
            }
            ScalePhase::Cutover => {
                let expected = ServerRpc::AddShard {
                    shard: op.target,
                    role: ReplicaRole::Primary,
                };
                if server != op.target_to || rpc != expected {
                    return false;
                }
                self.scale_ops.swap_remove(idx);
                self.commit_merge(&op);
                true
            }
        }
    }

    fn store_scale_op(&mut self, idx: usize, op: ScaleOpState) {
        if let Some(slot) = self.scale_ops.get_mut(idx) {
            *slot = op;
        }
    }

    /// Commit step of a split: rewrite the spec, swap the assignment,
    /// publish — then drain the old primary through the reclaim path.
    fn commit_split(&mut self, op: &SplitOp) {
        let Some(spec) = self.spec.as_ref() else {
            return;
        };
        let new_spec = match spec.split_shard(op.parent, &op.at, op.left, op.right) {
            Ok(s) => s,
            Err(reason) => {
                // Unreachable by construction (the op held exclusive
                // ownership of the parent's range); surface and recover
                // rather than corrupt the spec.
                self.push_error(SmError::conflict(format!(
                    "split of {} failed at commit: {reason}",
                    op.parent
                )));
                self.stats.splits_aborted += 1;
                self.reclaim_from(op.left, op.left_to, None);
                self.reclaim_from(op.right, op.right_to, None);
                self.loads.remove(&op.left);
                self.loads.remove(&op.right);
                self.restore_serving(op.parent, op.parent_primary, None);
                return;
            }
        };
        self.spec = Some(new_spec);
        self.spec_version += 1;
        let desired = self.desired_replicas.get(&op.parent).copied().unwrap_or(1);
        for (child, to) in [(op.left, op.left_to), (op.right, op.right_to)] {
            self.shards.push(child);
            self.desired_replicas.insert(child, desired);
            if let Err(reason) = self.assignment.add_replica(child, to, ReplicaRole::Primary) {
                self.push_error(SmError::conflict(format!(
                    "split child {child} could not be recorded at {to}: {reason}"
                )));
            }
        }
        self.retire_shard(op.parent);
        self.publish_map();
        self.stats.splits_completed += 1;
        if desired > 1 {
            // Children start primary-only; refill their secondaries.
            self.run_emergency();
        }
    }

    /// Commit step of a merge: mirror image of `commit_split`.
    fn commit_merge(&mut self, op: &MergeOp) {
        let Some(spec) = self.spec.as_ref() else {
            return;
        };
        let new_spec = match spec.merge_shards(op.left, op.right, op.target) {
            Ok(s) => s,
            Err(reason) => {
                self.push_error(SmError::conflict(format!(
                    "merge into {} failed at commit: {reason}",
                    op.target
                )));
                self.stats.merges_aborted += 1;
                self.reclaim_from(op.target, op.target_to, None);
                self.loads.remove(&op.target);
                self.restore_serving(op.left, op.left_primary, None);
                self.restore_serving(op.right, op.right_primary, None);
                return;
            }
        };
        self.spec = Some(new_spec);
        self.spec_version += 1;
        let desired = self
            .desired_replicas
            .get(&op.left)
            .copied()
            .unwrap_or(1)
            .max(self.desired_replicas.get(&op.right).copied().unwrap_or(1));
        self.shards.push(op.target);
        self.desired_replicas.insert(op.target, desired);
        if let Err(reason) =
            self.assignment
                .add_replica(op.target, op.target_to, ReplicaRole::Primary)
        {
            self.push_error(SmError::conflict(format!(
                "merged shard {} could not be recorded at {}: {reason}",
                op.target, op.target_to
            )));
        }
        self.retire_shard(op.left);
        self.retire_shard(op.right);
        self.publish_map();
        self.stats.merges_completed += 1;
        if desired > 1 {
            self.run_emergency();
        }
    }

    /// Removes a committed-away shard from every book and drains its
    /// remaining replicas through the reclaim path (step 5: the old
    /// primary keeps forwarding residual traffic until dropped).
    fn retire_shard(&mut self, shard: ShardId) {
        let holders: Vec<ServerId> = self
            .assignment
            .replicas(shard)
            .iter()
            .map(|r| r.server)
            .collect();
        for server in holders {
            self.assignment.remove_replica(shard, server);
            self.reclaim_from(shard, server, None);
        }
        self.shards.retain(|&s| s != shard);
        self.desired_replicas.remove(&shard);
        self.loads.remove(&shard);
    }

    /// Aborts an in-flight scale op before commit: reclaim the
    /// unpublished children/target, resume the sources' direct serving.
    /// `dead` marks a server that just failed — nothing is sent to it
    /// (lease expiry fences whatever it held).
    fn abort_scale_op(&mut self, idx: usize, dead: Option<ServerId>) {
        let op = self.scale_ops.swap_remove(idx);
        match op {
            ScaleOpState::Split(op) => {
                self.stats.splits_aborted += 1;
                self.loads.remove(&op.left);
                self.loads.remove(&op.right);
                self.reclaim_from(op.left, op.left_to, dead);
                self.reclaim_from(op.right, op.right_to, dead);
                self.restore_serving(op.parent, op.parent_primary, dead);
            }
            ScaleOpState::Merge(op) => {
                self.stats.merges_aborted += 1;
                self.loads.remove(&op.target);
                self.reclaim_from(op.target, op.target_to, dead);
                self.restore_serving(op.left, op.left_primary, dead);
                self.restore_serving(op.right, op.right_primary, dead);
            }
        }
    }

    /// Sends a compensating `DropShard` through the reclaim machinery
    /// (retried on failure, fenced by lease expiry on death).
    fn reclaim_from(&mut self, shard: ShardId, server: ServerId, dead: Option<ServerId>) {
        if Some(server) == dead || !self.server_alive(server) {
            return;
        }
        if !self.reclaims.contains(&(shard, server)) {
            self.reclaims.push((shard, server));
        }
        self.send_rpc(server, ServerRpc::DropShard { shard });
    }

    /// Tells a still-assigned source primary to resume direct serving
    /// after an abort (an idempotent `AddShard` cancels forward state).
    fn restore_serving(&mut self, shard: ShardId, server: ServerId, dead: Option<ServerId>) {
        let still_assigned = self
            .assignment
            .replicas(shard)
            .iter()
            .any(|r| r.server == server);
        if Some(server) == dead || !self.server_alive(server) || !still_assigned {
            return;
        }
        if !self.restores.contains(&(shard, server)) {
            self.restores.push((shard, server));
        }
        self.send_rpc(
            server,
            ServerRpc::AddShard {
                shard,
                role: ReplicaRole::Primary,
            },
        );
    }

    /// Matches an `AddShard` ack against pending post-abort restores.
    fn restore_acked(&mut self, server: ServerId, rpc: ServerRpc) -> bool {
        if let ServerRpc::AddShard { shard, .. } = rpc {
            if let Some(pos) = self
                .restores
                .iter()
                .position(|&(s, srv)| s == shard && srv == server)
            {
                self.restores.swap_remove(pos);
                return true;
            }
        }
        false
    }

    // ---- State persistence (§3.2, §6.2) ----

    /// Serializes the orchestrator's durable state — the assignment,
    /// desired replica counts, and map version — in a compact
    /// line-oriented format. The production system stores this in
    /// ZooKeeper so that a standby replica of the control plane can
    /// take over ([`Self::restore`]) and application servers can
    /// bootstrap their assignment without the control plane.
    pub fn snapshot(&self) -> Vec<u8> {
        use std::fmt::Write as _;
        let mut out = String::from("smorch v1\n");
        let _infallible = writeln!(out, "version {}", self.map_version);
        for (shard, n) in &self.desired_replicas {
            let _infallible = writeln!(out, "desired {} {}", shard.raw(), n);
        }
        for (shard, replica) in self.assignment.iter() {
            let _infallible = writeln!(
                out,
                "replica {} {} {}",
                shard.raw(),
                replica.server.raw(),
                if replica.role.is_primary() { "P" } else { "S" }
            );
        }
        out.into_bytes()
    }

    /// Restores the durable state written by [`Self::snapshot`] into a
    /// freshly constructed orchestrator (servers must be registered by
    /// the caller, as in a normal start-up). Replaces the shard list
    /// and assignment wholesale.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), sm_types::SmError> {
        let text = std::str::from_utf8(bytes)
            .map_err(|e| sm_types::SmError::InvalidArgument(format!("snapshot not utf-8: {e}")))?;
        let mut lines = text.lines();
        if lines.next() != Some("smorch v1") {
            return Err(sm_types::SmError::InvalidArgument(
                "unknown snapshot header".into(),
            ));
        }
        let mut assignment = Assignment::new();
        let mut desired = BTreeMap::new();
        let mut version = 0u64;
        for line in lines {
            let mut parts = line.split_whitespace();
            let parse = |v: Option<&str>| -> Result<u64, sm_types::SmError> {
                v.and_then(|x| x.parse().ok())
                    .ok_or_else(|| sm_types::SmError::InvalidArgument(format!("bad line: {line}")))
            };
            match parts.next() {
                Some("version") => version = parse(parts.next())?,
                Some("desired") => {
                    let shard = ShardId(parse(parts.next())?);
                    let n = parse(parts.next())? as u32;
                    desired.insert(shard, n);
                }
                Some("replica") => {
                    let shard = ShardId(parse(parts.next())?);
                    let server = ServerId(parse(parts.next())? as u32);
                    let role = match parts.next() {
                        Some("P") => ReplicaRole::Primary,
                        Some("S") => ReplicaRole::Secondary,
                        other => {
                            return Err(sm_types::SmError::InvalidArgument(format!(
                                "bad role {other:?} in line: {line}"
                            )))
                        }
                    };
                    assignment
                        .add_replica(shard, server, role)
                        .map_err(sm_types::SmError::InvalidArgument)?;
                }
                Some(other) => {
                    return Err(sm_types::SmError::InvalidArgument(format!(
                        "unknown record {other:?}"
                    )))
                }
                None => {}
            }
        }
        self.shards = desired.keys().copied().collect();
        self.desired_replicas = desired;
        self.assignment = assignment;
        self.map_version = version;
        self.migrations.clear();
        self.promotions.clear();
        self.scheduler = None;
        Ok(())
    }

    /// Re-sends `add_shard` for everything assigned to `server` — called
    /// when a container restarted in place and came back empty (§3.2:
    /// on start-up a server also reads its assignment from ZooKeeper;
    /// this is the control-plane push side of that reconciliation).
    pub fn reconcile_server(&mut self, server: ServerId) {
        if let Some(e) = self.servers.get_mut(&server) {
            e.alive = true;
        }
        // An in-place restart silently discarded any split/merge
        // forwarding or prepared-child state the server held. Committing
        // such an op later would hand ownership to a child that no
        // longer exists, or leave a "forwarding" parent serving
        // directly — abort now and let the scaler retry once quiescent.
        self.restores.retain(|&(_, srv)| srv != server);
        let doomed: Vec<usize> = self
            .scale_ops
            .iter()
            .enumerate()
            .filter(|(_, op)| op.involves_server(server))
            .map(|(i, _)| i)
            .collect();
        for idx in doomed.into_iter().rev() {
            self.abort_scale_op(idx, Some(server));
        }
        for (shard, role) in self.assignment.shards_on(server) {
            self.send_rpc(server, ServerRpc::AddShard { shard, role });
        }
    }

    /// Count of in-flight migrations (tests / metrics).
    pub fn in_flight_migrations(&self) -> usize {
        self.migrations.len()
    }

    /// Count of in-flight split/merge operations (tests / metrics).
    pub fn in_flight_reshards(&self) -> usize {
        self.scale_ops.len()
    }
}

fn default_shard_load() -> LoadVector {
    LoadVector::single(sm_types::Metric::ShardCount.id(), 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_types::{MachineId, Metric, RegionId};

    fn loc(region: u16, machine: u32) -> Location {
        Location {
            region: RegionId(region),
            datacenter: u32::from(region),
            rack: u32::from(region) * 1000 + machine,
            machine: MachineId(machine),
        }
    }

    fn config() -> OrchestratorConfig {
        let mut alloc = AllocConfig::new(vec![Metric::ShardCount.id()]);
        alloc.search.seed = 7;
        OrchestratorConfig {
            graceful_migration: true,
            move_caps: MoveCaps {
                max_total: 1000,
                max_per_server: 1000,
                max_per_shard: 1,
            },
            alloc,
            skip_cutover_ack: false,
        }
    }

    fn cap(v: f64) -> LoadVector {
        LoadVector::single(Metric::ShardCount.id(), v)
    }

    /// Orchestrator with `n` servers in one region.
    fn orch(policy: AppPolicy, n: u32, shards: u64) -> Orchestrator {
        let mut o = Orchestrator::new(AppId(1), policy, config());
        for i in 0..n {
            o.register_server(ServerId(i), loc(0, i), cap(1000.0));
        }
        o.register_shards((0..shards).map(ShardId));
        o
    }

    /// Drives all outstanding RPCs to acked completion, like a perfectly
    /// responsive world. Returns all commands processed.
    fn settle(o: &mut Orchestrator) -> Vec<OrchCommand> {
        let mut all = Vec::new();
        loop {
            let cmds = o.take_commands();
            if cmds.is_empty() {
                break;
            }
            for c in &cmds {
                if let OrchCommand::Rpc { server, rpc } = c {
                    o.rpc_acked(*server, *rpc);
                }
            }
            all.extend(cmds);
        }
        all
    }

    #[test]
    fn bootstrap_places_all_shards() {
        let mut o = orch(AppPolicy::primary_only(), 4, 20);
        o.run_emergency();
        settle(&mut o);
        assert_eq!(o.assignment().shard_count(), 20);
        for s in 0..20 {
            assert!(o.assignment().primary_of(ShardId(s)).is_some());
        }
        assert_eq!(o.in_flight_migrations(), 0);
    }

    #[test]
    fn solver_threads_knob_keeps_plans_deterministic() {
        // Same world, two runs with threads=2: the parallel solve must
        // produce identical placements both times and place everything.
        let threaded = || {
            let mut o = Orchestrator::new(
                AppId(1),
                AppPolicy::primary_only(),
                config().with_solver_threads(2),
            );
            for i in 0..6 {
                o.register_server(ServerId(i), loc(0, i), cap(1000.0));
            }
            o.register_shards((0..24).map(ShardId));
            o.run_emergency();
            settle(&mut o);
            o.run_periodic();
            settle(&mut o);
            (0..24)
                .map(|s| o.assignment().primary_of(ShardId(s)))
                .collect::<Vec<_>>()
        };
        let first = threaded();
        let second = threaded();
        assert!(first.iter().all(Option::is_some));
        assert_eq!(first, second, "threaded plans must be reproducible");
    }

    #[test]
    fn primary_secondary_bootstrap_assigns_roles() {
        let mut o = orch(AppPolicy::primary_secondary(2), 6, 10);
        o.run_emergency();
        settle(&mut o);
        for s in 0..10 {
            let replicas = o.assignment().replicas(ShardId(s));
            assert_eq!(replicas.len(), 3, "shard {s}");
            assert_eq!(
                replicas.iter().filter(|r| r.role.is_primary()).count(),
                1,
                "exactly one primary"
            );
        }
    }

    #[test]
    fn graceful_migration_follows_five_steps() {
        let mut o = orch(AppPolicy::primary_only(), 2, 1);
        o.run_emergency();
        settle(&mut o);
        let from = o.assignment().primary_of(ShardId(0)).unwrap();
        let to = if from == ServerId(0) {
            ServerId(1)
        } else {
            ServerId(0)
        };

        // Hand-inject a move and walk the protocol step by step.
        o.install_plan(vec![ReplicaMove {
            shard: ShardId(0),
            replica: 0,
            from: Some(from),
            to,
        }]);
        // Step 1: prepare_add to the new primary.
        let cmds = o.take_commands();
        assert_eq!(
            cmds,
            vec![OrchCommand::Rpc {
                server: to,
                rpc: ServerRpc::PrepareAddShard {
                    shard: ShardId(0),
                    current_owner: from,
                    role: ReplicaRole::Primary
                }
            }]
        );
        o.rpc_acked(
            to,
            ServerRpc::PrepareAddShard {
                shard: ShardId(0),
                current_owner: from,
                role: ReplicaRole::Primary,
            },
        );
        // Step 2: prepare_drop to the old primary.
        let cmds = o.take_commands();
        assert!(matches!(
            cmds[0],
            OrchCommand::Rpc {
                server,
                rpc: ServerRpc::PrepareDropShard { .. }
            } if server == from
        ));
        o.rpc_acked(
            from,
            ServerRpc::PrepareDropShard {
                shard: ShardId(0),
                new_owner: to,
                role: ReplicaRole::Primary,
            },
        );
        // Step 3: add to the new primary.
        let cmds = o.take_commands();
        assert!(matches!(
            cmds[0],
            OrchCommand::Rpc {
                server,
                rpc: ServerRpc::AddShard { .. }
            } if server == to
        ));
        // Assignment still points at the old primary pre-ack.
        assert_eq!(o.assignment().primary_of(ShardId(0)), Some(from));
        o.rpc_acked(
            to,
            ServerRpc::AddShard {
                shard: ShardId(0),
                role: ReplicaRole::Primary,
            },
        );
        // Step 4: map published; step 5: drop sent to the old primary.
        let cmds = o.take_commands();
        assert!(matches!(cmds[0], OrchCommand::MapChanged { .. }));
        assert!(matches!(
            cmds[1],
            OrchCommand::Rpc {
                server,
                rpc: ServerRpc::DropShard { .. }
            } if server == from
        ));
        assert_eq!(o.assignment().primary_of(ShardId(0)), Some(to));
        o.rpc_acked(from, ServerRpc::DropShard { shard: ShardId(0) });
        assert_eq!(o.in_flight_migrations(), 0);
        assert_eq!(o.stats().completed_moves, 2, "bootstrap + migration");
    }

    #[test]
    fn abrupt_mode_drops_before_adding() {
        let mut o = Orchestrator::new(AppId(1), AppPolicy::primary_only(), {
            let mut c = config();
            c.graceful_migration = false;
            c
        });
        for i in 0..2 {
            o.register_server(ServerId(i), loc(0, i), cap(1000.0));
        }
        o.register_shards([ShardId(0)]);
        o.run_emergency();
        settle(&mut o);
        let from = o.assignment().primary_of(ShardId(0)).unwrap();
        let to = if from == ServerId(0) {
            ServerId(1)
        } else {
            ServerId(0)
        };
        o.install_plan(vec![ReplicaMove {
            shard: ShardId(0),
            replica: 0,
            from: Some(from),
            to,
        }]);
        let cmds = o.take_commands();
        assert_eq!(
            cmds,
            vec![OrchCommand::Rpc {
                server: from,
                rpc: ServerRpc::DropShard { shard: ShardId(0) }
            }],
            "abrupt mode drops first"
        );
        o.rpc_acked(from, ServerRpc::DropShard { shard: ShardId(0) });
        // Shard is now nowhere — the unavailability window.
        assert!(o.assignment().primary_of(ShardId(0)).is_none());
        settle(&mut o);
        assert_eq!(o.assignment().primary_of(ShardId(0)), Some(to));
    }

    #[test]
    fn server_failure_promotes_secondary_and_refills() {
        let mut o = orch(AppPolicy::primary_secondary(1), 4, 4);
        o.run_emergency();
        settle(&mut o);
        let victim = o.assignment().primary_of(ShardId(0)).unwrap();
        let shards_lost = o.shards_on(victim).len();
        assert!(shards_lost > 0);

        o.server_down(victim);
        settle(&mut o);

        // Every shard has a primary again, on a live server.
        for s in 0..4 {
            let p = o.assignment().primary_of(ShardId(s)).unwrap();
            assert_ne!(p, victim);
        }
        // Replica counts restored to 2.
        for s in 0..4 {
            assert_eq!(o.assignment().replicas(ShardId(s)).len(), 2, "shard {s}");
        }
        assert!(o.stats().promotions >= 1);
    }

    #[test]
    fn primary_only_failover_recreates_primaries() {
        let mut o = orch(AppPolicy::primary_only(), 3, 9);
        o.run_emergency();
        settle(&mut o);
        o.server_down(ServerId(0));
        settle(&mut o);
        for s in 0..9 {
            let p = o.assignment().primary_of(ShardId(s)).expect("replaced");
            assert_ne!(p, ServerId(0));
        }
    }

    #[test]
    fn drain_empties_server_gracefully() {
        let mut o = orch(AppPolicy::primary_only(), 4, 12);
        o.run_emergency();
        settle(&mut o);
        let victim = ServerId(0);
        let before = o.shards_on(victim).len();
        assert!(before > 0, "victim should host something");
        assert!(!o.is_drained(victim));

        let started = o.drain_server(victim);
        assert_eq!(started, before);
        settle(&mut o);
        assert!(o.is_drained(victim));
        assert_eq!(o.assignment().shard_count(), 12, "nothing lost");
        // Cleared for reuse after the planned event.
        o.drain_finished(victim);
        assert!(!o.servers[&victim].draining);
    }

    #[test]
    fn drain_of_empty_server_is_immediate() {
        let mut o = orch(AppPolicy::primary_only(), 2, 1);
        o.run_emergency();
        settle(&mut o);
        let empty = if o.shards_on(ServerId(0)).is_empty() {
            ServerId(0)
        } else {
            ServerId(1)
        };
        if o.shards_on(empty).is_empty() {
            assert_eq!(o.drain_server(empty), 0);
            assert!(o.is_drained(empty));
        }
    }

    /// The drain pick by brute force: every candidate's usage is a walk
    /// over the whole assignment, and a strictly smaller utilisation is
    /// needed to displace an earlier (lower-id) candidate. Counts the
    /// candidates that lost for not fitting and the utilisation ties.
    fn reference_pick(
        o: &Orchestrator,
        shard: ShardId,
        extra: &BTreeMap<ServerId, LoadVector>,
        load: &LoadVector,
        unfit: &mut usize,
        ties: &mut usize,
    ) -> Option<ServerId> {
        let mut best: Option<(f64, ServerId)> = None;
        for (&id, e) in &o.servers {
            let hosts = o.assignment.replicas(shard).iter().any(|r| r.server == id);
            if !e.alive || e.draining || hosts {
                continue;
            }
            let mut usage = LoadVector::zero();
            for (s, r) in o.assignment.iter() {
                if r.server == id {
                    usage += o.loads.get(&s).copied().unwrap_or_else(default_shard_load);
                }
            }
            let planned = usage + extra.get(&id).copied().unwrap_or_else(LoadVector::zero) + *load;
            if !planned.fits_within(&e.capacity) && e.capacity != LoadVector::zero() {
                *unfit += 1;
                continue;
            }
            let u = usage.max_utilization(&e.capacity);
            match best {
                Some((b, _)) if u == b => *ties += 1,
                Some((b, _)) if u > b => {}
                _ => best = Some((u, id)),
            }
        }
        best.map(|(_, id)| id)
    }

    #[test]
    fn drain_picks_match_a_brute_force_reference() {
        // Unequal capacities over two metrics, unequal shard loads, a
        // dead server and a draining one.
        let mut o = Orchestrator::new(AppId(1), AppPolicy::primary_secondary(1), config());
        for i in 0..12u32 {
            let mut c = LoadVector::zero();
            c.set(Metric::ShardCount.id(), f64::from(11 + 2 * (i % 3)));
            c.set(Metric::Cpu.id(), f64::from(30 + (i * 7) % 13));
            o.register_server(ServerId(i), loc(0, i), c);
        }
        let mut snapshot = String::from("smorch v1\nversion 1\n");
        for s in 0..72u64 {
            let p = (s * 7) % 12;
            let q = (p + 1 + s % 5) % 12;
            snapshot += &format!("desired {s} 2\nreplica {s} {p} P\nreplica {s} {q} S\n");
        }
        o.restore(snapshot.as_bytes()).unwrap();
        let loads = (0..72u64)
            .map(|s| {
                let mut v = LoadVector::zero();
                v.set(Metric::ShardCount.id(), 1.0);
                v.set(Metric::Cpu.id(), 0.5 * ((s * 13) % 7) as f64);
                (ShardId(s), v)
            })
            .collect();
        o.report_load(ServerId(0), loads);
        o.servers.get_mut(&ServerId(3)).unwrap().alive = false;
        o.servers.get_mut(&ServerId(5)).unwrap().draining = true;

        let (mut unfit, mut ties, mut picked, mut unplaced) = (0, 0, 0, 0);
        for victim in (0..12).map(ServerId) {
            let was_draining = o.servers[&victim].draining;
            o.servers.get_mut(&victim).unwrap().draining = true;
            let plan = o.plan_drain(victim);
            let mut expected = Vec::new();
            let mut extra: BTreeMap<ServerId, LoadVector> = BTreeMap::new();
            for (shard, _) in o.assignment.shards_on(victim) {
                let load = o.loads[&shard];
                match reference_pick(&o, shard, &extra, &load, &mut unfit, &mut ties) {
                    Some(to) => {
                        *extra.entry(to).or_insert_with(LoadVector::zero) += load;
                        expected.push(ReplicaMove {
                            shard,
                            replica: 0,
                            from: Some(victim),
                            to,
                        });
                    }
                    None => unplaced += 1,
                }
            }
            assert_eq!(plan, expected, "drain of {victim}");
            picked += plan.len();
            o.servers.get_mut(&victim).unwrap().draining = was_draining;
        }
        // The reference exercised every branch it decides on.
        assert!(picked > 100, "{picked} picks");
        assert!(
            unfit > 0 && ties > 0 && unplaced > 0,
            "{unfit} {ties} {unplaced}"
        );
    }

    #[test]
    fn scaler_changes_replica_count() {
        let mut o = orch(AppPolicy::secondary_only(2), 5, 2);
        o.run_emergency();
        settle(&mut o);
        assert_eq!(o.assignment().replicas(ShardId(0)).len(), 2);

        // Scale up to 4: next emergency run fills the new slots.
        o.set_desired_replicas(ShardId(0), 4);
        o.run_emergency();
        settle(&mut o);
        assert_eq!(o.assignment().replicas(ShardId(0)).len(), 4);

        // Scale down to 1: drops happen immediately.
        o.set_desired_replicas(ShardId(0), 1);
        settle(&mut o);
        assert_eq!(o.assignment().replicas(ShardId(0)).len(), 1);
    }

    #[test]
    fn scale_down_prefers_dropping_secondaries() {
        let mut o = orch(AppPolicy::primary_secondary(2), 5, 1);
        o.run_emergency();
        settle(&mut o);
        let primary = o.assignment().primary_of(ShardId(0)).unwrap();
        o.set_desired_replicas(ShardId(0), 2);
        settle(&mut o);
        assert_eq!(o.assignment().primary_of(ShardId(0)), Some(primary));
        assert_eq!(o.assignment().replicas(ShardId(0)).len(), 2);
    }

    #[test]
    fn rpc_failure_aborts_migration() {
        let mut o = orch(AppPolicy::primary_only(), 2, 1);
        o.run_emergency();
        settle(&mut o);
        let from = o.assignment().primary_of(ShardId(0)).unwrap();
        let to = if from == ServerId(0) {
            ServerId(1)
        } else {
            ServerId(0)
        };
        o.install_plan(vec![ReplicaMove {
            shard: ShardId(0),
            replica: 0,
            from: Some(from),
            to,
        }]);
        let cmds = o.take_commands();
        let OrchCommand::Rpc { server, rpc } = cmds[0] else {
            panic!("expected rpc");
        };
        o.rpc_failed(server, rpc);
        assert_eq!(o.in_flight_migrations(), 0);
        assert_eq!(o.stats().aborted_moves, 1);
        // Old primary untouched.
        assert_eq!(o.assignment().primary_of(ShardId(0)), Some(from));
    }

    #[test]
    fn periodic_run_balances_shard_count() {
        // Shard-count capacity of 16 per server makes the 10% balance
        // band bind: 16 shards on 4 servers -> avg util 0.25, so no
        // server may hold more than 16 x 0.35 = 5.6 shards.
        let mut o = Orchestrator::new(AppId(1), AppPolicy::primary_only(), config());
        for i in 0..4 {
            o.register_server(ServerId(i), loc(0, i), cap(16.0));
        }
        o.register_shards((0..16).map(ShardId));
        // Bootstrap everything onto server 0 by failing the others first.
        o.server_down(ServerId(1));
        o.server_down(ServerId(2));
        o.server_down(ServerId(3));
        o.run_emergency();
        settle(&mut o);
        assert_eq!(o.shards_on(ServerId(0)).len(), 16);
        o.server_up(ServerId(1));
        o.server_up(ServerId(2));
        o.server_up(ServerId(3));
        // Shard-count load reports.
        for s in 0..16 {
            o.report_load(
                ServerId(0),
                vec![(ShardId(s), LoadVector::single(Metric::ShardCount.id(), 1.0))],
            );
        }
        o.run_periodic();
        settle(&mut o);
        // No server may end above the 5.6-shard band; nothing is lost.
        for i in 0..4 {
            let n = o.shards_on(ServerId(i)).len();
            assert!(n <= 5, "server {i} has {n} shards");
        }
        assert_eq!(o.assignment().shard_count(), 16);
    }

    #[test]
    fn maintenance_preparation_swaps_roles_off_affected_servers() {
        let mut o = orch(AppPolicy::primary_secondary(1), 4, 8);
        o.run_emergency();
        settle(&mut o);
        // Rack maintenance hits servers 0 and 1.
        let affected = [ServerId(0), ServerId(1)];
        let primaries_on_affected: Vec<ShardId> = (0..8)
            .map(ShardId)
            .filter(|&s| {
                o.assignment()
                    .primary_of(s)
                    .map(|p| affected.contains(&p))
                    .unwrap_or(false)
            })
            .collect();
        let escapable = primaries_on_affected
            .iter()
            .filter(|&&s| {
                o.assignment()
                    .replicas(s)
                    .iter()
                    .any(|r| !r.role.is_primary() && !affected.contains(&r.server))
            })
            .count();
        let swaps = o.prepare_for_maintenance(&affected);
        settle(&mut o);
        // Every shard that can escape has its primary off the affected
        // servers; secondaries may stay (§4.2).
        for s in primaries_on_affected {
            let p = o.assignment().primary_of(s).expect("still has a primary");
            let other_replica_outside = o
                .assignment()
                .replicas(s)
                .iter()
                .any(|r| !affected.contains(&r.server));
            if other_replica_outside {
                assert!(
                    !affected.contains(&p),
                    "shard {s} primary still in blast radius"
                );
            }
        }
        assert_eq!(swaps, escapable, "one swap per escapable shard");
        // No shard lost replicas: demote/promote only.
        assert_eq!(o.assignment().replica_count(), 16);
    }

    #[test]
    fn maintenance_preparation_skips_fully_affected_shards() {
        let mut o = orch(AppPolicy::primary_secondary(1), 2, 1);
        o.run_emergency();
        settle(&mut o);
        // Both replicas live on the only two servers; nothing to do.
        let swaps = o.prepare_for_maintenance(&[ServerId(0), ServerId(1)]);
        assert_eq!(swaps, 0);
        assert!(o.assignment().primary_of(ShardId(0)).is_some());
    }

    #[test]
    fn scaler_grows_hot_shards_and_shrinks_cold_ones() {
        use crate::{ShardScaler, ShardScalerConfig};
        let mut o = orch(AppPolicy::secondary_only(2), 6, 4);
        o.run_emergency();
        settle(&mut o);
        // Shard 0 is hot (per-replica synthetic load 30), shard 1 cold.
        let hot = LoadVector::single(Metric::Synthetic.id(), 30.0);
        let cold = LoadVector::single(Metric::Synthetic.id(), 0.1);
        o.report_load(ServerId(0), vec![(ShardId(0), hot), (ShardId(1), cold)]);
        let scaler = ShardScaler::new(ShardScalerConfig::new(
            Metric::Synthetic.id(),
            1.0,
            20.0,
            1,
            6,
        ));
        let changed = o.run_scaler(&scaler);
        settle(&mut o);
        assert_eq!(changed, 2);
        // Hot: total 60 over 20-per-replica budget -> 3 replicas.
        assert_eq!(o.assignment().replicas(ShardId(0)).len(), 3);
        // Cold: shrinks to the floor.
        assert_eq!(o.assignment().replicas(ShardId(1)).len(), 1);
        // Untouched shard keeps its 2 replicas.
        assert_eq!(o.assignment().replicas(ShardId(2)).len(), 2);
    }

    #[test]
    fn failed_promotion_is_retried_until_a_primary_exists() {
        let mut o = orch(AppPolicy::primary_secondary(2), 5, 3);
        o.run_emergency();
        settle(&mut o);
        let victim = o.assignment().primary_of(ShardId(0)).unwrap();
        o.server_down(victim);
        // Intercept the promotion RPC and fail it (the successor
        // rejects or times out) instead of acking.
        let cmds = o.take_commands();
        let mut failed_one = false;
        for c in &cmds {
            if let OrchCommand::Rpc { server, rpc } = c {
                match rpc {
                    ServerRpc::ChangeRole { new, .. } if new.is_primary() && !failed_one => {
                        o.rpc_failed(*server, *rpc);
                        failed_one = true;
                    }
                    _ => o.rpc_acked(*server, *rpc),
                }
            }
        }
        assert!(failed_one, "a promotion was attempted");
        // ensure_primaries re-elects; settle the retry.
        settle(&mut o);
        for s in 0..3 {
            let p = o.assignment().primary_of(ShardId(s));
            assert!(p.is_some(), "shard {s} has a primary again: {p:?}");
            assert_ne!(p, Some(victim));
        }
    }

    #[test]
    fn nacked_promotion_immediately_retries_the_next_secondary() {
        let mut o = orch(AppPolicy::primary_secondary(2), 4, 1);
        o.run_emergency();
        settle(&mut o);
        let victim = o.assignment().primary_of(ShardId(0)).unwrap();
        o.server_down(victim);
        // Nack the promotion (the application's safe election can
        // reject a momentarily stale candidate); ack everything else.
        let cmds = o.take_commands();
        let mut nacked = None;
        for c in &cmds {
            if let OrchCommand::Rpc { server, rpc } = c {
                match rpc {
                    ServerRpc::ChangeRole { new, .. } if new.is_primary() && nacked.is_none() => {
                        o.rpc_failed(*server, *rpc);
                        nacked = Some(*server);
                    }
                    _ => o.rpc_acked(*server, *rpc),
                }
            }
        }
        let nacked = nacked.expect("a promotion was attempted");
        // The retry is already queued — no periodic sweep needed — and
        // goes to a different secondary.
        let retry = o
            .take_commands()
            .into_iter()
            .find_map(|c| match c {
                OrchCommand::Rpc {
                    server,
                    rpc: rpc @ ServerRpc::ChangeRole { new, .. },
                } if new.is_primary() => Some((server, rpc)),
                _ => None,
            })
            .expect("immediate promotion retry");
        assert_ne!(retry.0, nacked, "retry targets the next candidate");
        o.rpc_acked(retry.0, retry.1);
        settle(&mut o);
        assert_eq!(o.assignment().primary_of(ShardId(0)), Some(retry.0));
    }

    #[test]
    fn snapshot_restore_round_trips_through_a_standby() {
        let mut o = orch(AppPolicy::primary_secondary(1), 5, 20);
        o.run_emergency();
        settle(&mut o);
        o.set_desired_replicas(ShardId(3), 3);
        settle(&mut o);
        let snapshot = o.snapshot();

        // A standby control-plane replica takes over (§6.2): fresh
        // orchestrator, same servers, restored state.
        let mut standby = Orchestrator::new(AppId(1), AppPolicy::primary_secondary(1), config());
        for i in 0..5 {
            standby.register_server(ServerId(i), loc(0, i), cap(1000.0));
        }
        standby.restore(&snapshot).expect("restore");
        assert_eq!(standby.assignment(), o.assignment());

        // The standby is fully operational: it can handle a failure.
        let victim = standby.assignment().primary_of(ShardId(0)).unwrap();
        standby.server_down(victim);
        settle(&mut standby);
        let p = standby.assignment().primary_of(ShardId(0)).unwrap();
        assert_ne!(p, victim);
    }

    #[test]
    fn restore_rejects_garbage() {
        let mut o = orch(AppPolicy::primary_only(), 2, 1);
        assert!(o.restore(b"not a snapshot").is_err());
        assert!(o.restore(b"smorch v1\nbogus record 1").is_err());
        assert!(o.restore(b"smorch v1\nreplica 1 2 X").is_err());
        assert!(o.restore(&[0xff, 0xfe]).is_err());
        // Empty-but-valid snapshot restores to an empty assignment.
        o.restore(b"smorch v1\nversion 9\n").unwrap();
        assert_eq!(o.assignment().shard_count(), 0);
    }

    #[test]
    fn duplicate_server_down_is_idempotent() {
        let mut o = orch(AppPolicy::primary_only(), 3, 3);
        o.run_emergency();
        settle(&mut o);
        o.server_down(ServerId(0));
        let published = o.stats().maps_published;
        o.server_down(ServerId(0));
        assert_eq!(o.stats().maps_published, published, "second call no-ops");
    }

    // ---- Adaptive resharding ----

    /// Drains the outbox into `(server, rpc)` pairs, dropping map
    /// notices.
    fn rpcs(o: &mut Orchestrator) -> Vec<(ServerId, ServerRpc)> {
        o.take_commands()
            .into_iter()
            .filter_map(|c| match c {
                OrchCommand::Rpc { server, rpc } => Some((server, rpc)),
                _ => None,
            })
            .collect()
    }

    /// Bootstrapped primary-only orchestrator with a registered
    /// two-shard uniform spec.
    fn reshard_orch(servers: u32) -> Orchestrator {
        let mut o = orch(AppPolicy::primary_only(), servers, 2);
        o.register_spec(ShardingSpec::uniform_u64(2));
        o.run_emergency();
        settle(&mut o);
        o
    }

    #[test]
    fn graceful_split_walks_the_generalized_five_steps() {
        let mut o = reshard_orch(3);
        let parent = ShardId(0);
        let old_primary = o.assignment().primary_of(parent).unwrap();
        o.start_split(parent).unwrap();
        assert_eq!(o.in_flight_reshards(), 1);

        // Step 1: both children prepared on servers != the old primary.
        let prepares = rpcs(&mut o);
        assert_eq!(prepares.len(), 2);
        for (s, r) in &prepares {
            assert!(matches!(
                r,
                ServerRpc::PrepareAddShard {
                    current_owner,
                    role: ReplicaRole::Primary,
                    ..
                } if *current_owner == old_primary
            ));
            assert_ne!(*s, old_primary);
            o.rpc_acked(*s, *r);
        }

        // Step 2: the parent stops serving directly and forwards
        // per-key; the split point is exposed for the world.
        assert!(o.pending_split(parent).is_some());
        let fwd = rpcs(&mut o);
        assert_eq!(fwd.len(), 1);
        let (s, r) = fwd[0];
        assert_eq!(s, old_primary);
        assert!(matches!(r, ServerRpc::SplitForward { parent: p, .. } if p == parent));
        o.rpc_acked(s, r);

        // Step 3: cutover adds — nothing committed until both ack.
        let adds = rpcs(&mut o);
        assert_eq!(adds.len(), 2);
        assert_eq!(o.sharding_spec().unwrap().shard_count(), 2);
        for (s, r) in &adds {
            assert!(matches!(
                r,
                ServerRpc::AddShard {
                    role: ReplicaRole::Primary,
                    ..
                }
            ));
            o.rpc_acked(*s, *r);
        }

        // Step 4: atomic commit — spec rewritten, children published,
        // parent retired. Step 5: residual drain via the reclaim path.
        assert_eq!(o.stats().splits_completed, 1);
        assert_eq!(o.in_flight_reshards(), 0);
        assert!(o.pending_split(parent).is_none());
        let spec = o.sharding_spec().unwrap();
        assert_eq!(spec.shard_count(), 3, "shard 1 plus two children");
        assert!(spec.range_of(parent).is_none());
        for (child, _) in [(ShardId(2), ()), (ShardId(3), ())] {
            assert!(spec.range_of(child).is_some(), "minted child in spec");
            assert!(o.assignment().primary_of(child).is_some());
        }
        settle(&mut o); // acks the parent's DropShard reclaim
        assert!(o.assignment().replicas(parent).is_empty());
    }

    #[test]
    fn graceful_merge_walks_the_inverse_protocol() {
        let mut o = reshard_orch(3);
        let left_primary = o.assignment().primary_of(ShardId(0)).unwrap();
        let right_primary = o.assignment().primary_of(ShardId(1)).unwrap();
        o.start_merge(ShardId(0), ShardId(1)).unwrap();

        // Prepare the target off both source primaries.
        let prepares = rpcs(&mut o);
        assert_eq!(prepares.len(), 1);
        let (target_to, prep) = prepares[0];
        assert_ne!(target_to, left_primary);
        assert_ne!(target_to, right_primary);
        o.rpc_acked(target_to, prep);

        // Both sources forward into the target.
        let fwds = rpcs(&mut o);
        assert_eq!(fwds.len(), 2);
        for (s, r) in &fwds {
            assert!(matches!(r, ServerRpc::MergeForward { .. }));
            o.rpc_acked(*s, *r);
        }
        assert!(o.pending_merge(ShardId(0)).is_some());

        // Single cutover add, then commit.
        let adds = rpcs(&mut o);
        assert_eq!(adds.len(), 1);
        assert_eq!(adds[0].0, target_to);
        o.rpc_acked(adds[0].0, adds[0].1);
        assert_eq!(o.stats().merges_completed, 1);
        let spec = o.sharding_spec().unwrap();
        assert_eq!(spec.shard_count(), 1);
        let merged = ShardId(2);
        assert!(spec.range_of(merged).is_some());
        assert_eq!(o.assignment().primary_of(merged), Some(target_to));
        settle(&mut o);
        assert!(o.assignment().replicas(ShardId(0)).is_empty());
        assert!(o.assignment().replicas(ShardId(1)).is_empty());
    }

    #[test]
    fn split_aborts_on_nack_and_the_parent_resumes() {
        let mut o = reshard_orch(3);
        let parent = ShardId(0);
        let old_primary = o.assignment().primary_of(parent).unwrap();
        o.start_split(parent).unwrap();
        for (s, r) in rpcs(&mut o) {
            o.rpc_acked(s, r); // prepares
        }
        let fwd = rpcs(&mut o);
        o.rpc_failed(fwd[0].0, fwd[0].1); // the parent refuses to forward

        assert_eq!(o.stats().splits_aborted, 1);
        assert_eq!(o.in_flight_reshards(), 0);
        let cleanup = rpcs(&mut o);
        // Both prepared children are reclaimed; the parent resumes.
        assert_eq!(
            cleanup
                .iter()
                .filter(|(_, r)| matches!(r, ServerRpc::DropShard { .. }))
                .count(),
            2
        );
        assert!(cleanup.iter().any(|(s, r)| *s == old_primary
            && matches!(r, ServerRpc::AddShard { shard, .. } if *shard == parent)));
        for (s, r) in cleanup {
            o.rpc_acked(s, r);
        }
        settle(&mut o);
        assert_eq!(
            o.sharding_spec().unwrap().shard_count(),
            2,
            "spec untouched"
        );
        assert_eq!(o.assignment().primary_of(parent), Some(old_primary));
        assert_eq!(o.in_flight_migrations(), 0);
    }

    #[test]
    fn involved_server_failure_aborts_the_split() {
        let mut o = reshard_orch(4);
        let parent = ShardId(0);
        let old_primary = o.assignment().primary_of(parent).unwrap();
        o.start_split(parent).unwrap();
        let prepares = rpcs(&mut o);
        let (left_to, _) = prepares[0];
        for (s, r) in &prepares {
            o.rpc_acked(*s, *r);
        }
        // A child target dies mid-forward: the whole op aborts and the
        // parent keeps (resumes) serving its original range.
        o.server_down(left_to);
        assert_eq!(o.stats().splits_aborted, 1);
        assert_eq!(o.in_flight_reshards(), 0);
        settle(&mut o);
        assert_eq!(o.sharding_spec().unwrap().shard_count(), 2);
        assert_eq!(o.assignment().primary_of(parent), Some(old_primary));
    }

    #[test]
    fn skip_cutover_ack_commits_before_children_ack() {
        let mut cfg = config();
        cfg.skip_cutover_ack = true;
        let mut o = Orchestrator::new(AppId(1), AppPolicy::primary_only(), cfg);
        for i in 0..3 {
            o.register_server(ServerId(i), loc(0, i), cap(1000.0));
        }
        o.register_shards((0..2).map(ShardId));
        o.register_spec(ShardingSpec::uniform_u64(2));
        o.run_emergency();
        settle(&mut o);
        o.start_split(ShardId(0)).unwrap();
        for (s, r) in rpcs(&mut o) {
            o.rpc_acked(s, r); // prepares
        }
        let fwd = rpcs(&mut o);
        o.rpc_acked(fwd[0].0, fwd[0].1);
        // Mutated behavior: committed the instant the cutover adds were
        // *sent* — children own ranges they may never have applied.
        assert_eq!(o.stats().splits_completed, 1);
        assert_eq!(o.in_flight_reshards(), 0);
        assert_eq!(o.sharding_spec().unwrap().shard_count(), 3);
    }

    #[test]
    fn run_reshard_executes_scaler_recommendations() {
        let mut o = reshard_orch(3);
        o.report_load(
            ServerId(0),
            vec![(ShardId(0), cap(500.0)), (ShardId(1), cap(50.0))],
        );
        let scaler = crate::SplitScaler::new(crate::SplitScalerConfig::new(
            Metric::ShardCount.id(),
            100.0,
            30.0,
            1,
            8,
        ));
        assert_eq!(o.run_reshard(&scaler), 1, "hot shard 0 splits");
        assert_eq!(o.run_reshard(&scaler), 0, "concurrency cap holds");
        settle(&mut o);
        assert_eq!(o.stats().splits_completed, 1);
        assert_eq!(o.sharding_spec().unwrap().shard_count(), 3);
    }

    #[test]
    fn rejected_promotion_transition_is_surfaced_not_ignored() {
        let mut o = orch(AppPolicy::primary_secondary(1), 4, 1);
        o.run_emergency();
        settle(&mut o);
        let shard = ShardId(0);
        let a = o.assignment().primary_of(shard).unwrap();
        o.server_down(a);
        // Hold back the promotion ack; drive everything else.
        let mut promote = None;
        loop {
            let cmds = rpcs(&mut o);
            if cmds.is_empty() {
                break;
            }
            for (s, r) in cmds {
                if promote.is_none()
                    && matches!(r, ServerRpc::ChangeRole { new, .. } if new.is_primary())
                {
                    promote = Some((s, r));
                } else {
                    o.rpc_acked(s, r);
                }
            }
        }
        let (b, promote) = promote.expect("promotion queued");
        // The candidate's lease expires while its ack is in flight...
        o.server_down(b);
        settle(&mut o);
        // ...and the stale ack arrives: the assignment (which dropped
        // b's replica) refuses the transition. Before the fix this was
        // silently ignored and a contradictory map published.
        let published = o.stats().maps_published;
        o.rpc_acked(b, promote);
        assert_eq!(o.stats().failed_transitions, 1);
        assert_eq!(o.stats().maps_published, published, "no contradictory map");
        let errs = o.drain_errors();
        assert_eq!(errs.len(), 1, "anomaly surfaced: {errs:?}");
        assert!(o.drain_errors().is_empty(), "drained");
        settle(&mut o);
        assert!(o.assignment().primary_of(shard).is_some(), "re-elected");
    }
}
