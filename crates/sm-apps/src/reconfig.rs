//! Reconfiguration chaos: a seeded discrete-event world that keeps the
//! control plane continuously migrating [`ReplStoreServer`] replicas —
//! the 5-step protocol driving joint-consensus membership changes in
//! every shard's [`ReplicationGroup`] — while a fault plan
//! ([`FaultProfile::ReconfigChaos`]) crashes nodes, expires sessions,
//! and partitions islands specifically during in-flight
//! reconfigurations.
//!
//! The world wires a bare [`Orchestrator`] (no ZooKeeper: the HA layer
//! is exercised by [`crate::chaos`]; this world isolates the
//! replication safety argument) to a fleet of replicated-store servers
//! sharing per-shard [`ReplicationGroup`]s. Control-plane RPCs travel
//! through a [`SimNet`] with correlation ids and give-up timers, so a
//! partitioned or crashed server produces genuine nacks and timeouts —
//! which abort migrations mid-flight, exactly the interruptions the
//! joint-consensus protocol must survive. Network partitions are
//! mirrored into every group's link gates, so replication and elections
//! see the same islands the RPC plane does.
//!
//! Safety is judged by the [`Oracle`]:
//!
//! - **ReplicaSetAgreement** — every shard's committed configuration
//!   chain is audited on every scan: adjacent configurations must share
//!   a pair of voter sets whose quorums always intersect (the joint
//!   bridge), and at quiescence every replica must hold the same view
//!   of the committed configuration.
//! - **Acked-then-lost** — a client write is acked only once its log
//!   position commits under the group's quorum rule; at quiescence
//!   every acked `(shard, index)` must still hold its exact payload at
//!   the authoritative replica, checked through the oracle's
//!   write-tag machinery (a lost write surfaces as a stale read).
//!
//! The documented mutation switch ([`ReconfigConfig::single_step`])
//! replaces joint changes with unsafe single-step membership swaps;
//! `tests/reconfig.rs` proves the oracle catches the corruption. The
//! whole run is a pure function of `(config, plan)`: same seed and
//! plan, identical verdict and stats.

use crate::replication::ReplicationGroup;
use crate::replstore::{shared_groups, ReplStoreServer, SharedGroups};
use crate::world::{loc, DstConfig, FaultWorld, Kernel, Report, RpcEvent, RpcHost};
use sm_allocator::{AllocConfig, MoveCaps};
use sm_core::{OrchCommand, Orchestrator, OrchestratorConfig, ServerRpc};
use sm_sim::faults::{fault_plan, Fault, FaultProfile};
use sm_sim::net::Endpoint;
use sm_sim::{Ctx, SimDuration, SimTime, World};
use sm_types::{AppId, AppPolicy, LoadVector, Metric, ServerId, ShardId};
use std::collections::{BTreeMap, BTreeSet};

/// Shape of one reconfiguration-chaos run. The fault schedule derives
/// from `(seed, profile)`, so the run reproduces from this config
/// alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReconfigConfig {
    /// Seed for traffic, churn, fault schedule, and network draws.
    pub seed: u64,
    /// Application servers (ids `0..servers`).
    pub servers: u32,
    /// Replicated shards (ids `0..shards`), each a 3-replica group.
    pub shards: u64,
    /// Concurrent write generators.
    pub clients: u32,
    /// Gap between one client's writes.
    pub write_interval: SimDuration,
    /// Background replication cadence (stand-in for the leader's
    /// heartbeat-driven append stream).
    pub replicate_interval: SimDuration,
    /// Churn cadence: every tick alternately drains a random server
    /// (starting graceful 5-step migrations) or welcomes the previous
    /// one back, so reconfigurations are in flight essentially all the
    /// time.
    pub churn_interval: SimDuration,
    /// One-way network latency.
    pub rpc_latency: SimDuration,
    /// An unacked write still uncommitted after this long is written
    /// off as (legally) lost.
    pub write_deadline: SimDuration,
    /// Clients and churn stop here; in-flight work drains.
    pub traffic_end: SimTime,
    /// Periodic scans stop here; must be past the last recovery.
    pub end: SimTime,
    /// Fault-plan profile.
    pub profile: FaultProfile,
    /// DST mutation switch: replace joint membership changes with
    /// unsafe single-step swaps. Never set outside `tests/reconfig.rs`
    /// — it exists to prove `ReplicaSetAgreement` has teeth.
    pub single_step: bool,
}

impl ReconfigConfig {
    /// The compact shape the swarm and the tier-1 gate run: a small
    /// fleet, dense churn, and a one-minute fault window.
    pub fn dst(seed: u64, profile: FaultProfile) -> Self {
        Self {
            seed,
            servers: 6,
            shards: 8,
            clients: 2,
            write_interval: SimDuration::from_millis(150),
            replicate_interval: SimDuration::from_millis(100),
            churn_interval: SimDuration::from_secs(6),
            rpc_latency: SimDuration::from_millis(10),
            write_deadline: SimDuration::from_secs(20),
            traffic_end: SimTime::from_secs(110),
            end: SimTime::from_secs(130),
            profile,
            single_step: false,
        }
    }
}

/// Event alphabet of the reconfiguration world.
#[derive(Debug)]
pub enum ReconfigEvent {
    /// Client `i` issues its next write.
    WriteTick(u32),
    /// Background replication round across all groups.
    ReplicateTick,
    /// Drain a random server or welcome the previous one back.
    ChurnTick,
    /// A control-plane RPC, its answer, or its give-up timer.
    Rpc(RpcEvent),
    /// The control plane's failure detector declares an islanded
    /// server dead (fires a few seconds into a partition).
    DetectDown(u32),
    /// A fault-plan entry fires.
    FaultHit(Fault),
    /// Retry pacemaker: re-issue nacked or timed-out migration steps
    /// and plan replacements on a fixed 500ms backoff. (The invariant
    /// audit itself is an engine-scheduled sweep, not an event.)
    RetryTick,
}

impl From<RpcEvent> for ReconfigEvent {
    fn from(event: RpcEvent) -> Self {
        ReconfigEvent::Rpc(event)
    }
}

/// Counters accumulated over a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReconfigStats {
    /// Writes that reached a live primary and appended.
    pub writes_attempted: u64,
    /// Writes whose log position committed — the acked set the oracle
    /// defends.
    pub writes_acked: u64,
    /// Writes rejected at the primary (role raced a migration).
    pub writes_rejected: u64,
    /// Unacked writes written off (never committed, or replaced before
    /// commit) — legal losses, never acked to a client.
    pub writes_lost_unacked: u64,
    /// Committed configuration entries across all groups — each joint
    /// or stable config entry that reached commit.
    pub reconfigs_completed: u64,
    /// Migration-step RPCs (add/drop/change-role/handover) nacked or
    /// timed out while a fault was active — reconfigurations genuinely
    /// interrupted by the plan.
    pub reconfigs_interrupted: u64,
    /// Of those, interruptions that landed while the shard's group had
    /// a joint configuration literally in flight.
    pub joint_interruptions: u64,
    /// Drain migrations started by the churn driver.
    pub drains_started: u64,
    /// Server container crashes injected.
    pub server_crashes: u64,
    /// Session expiries injected.
    pub session_expiries: u64,
    /// Network partitions injected.
    pub net_partitions: u64,
}

/// One application server process: the replicated store plus process
/// liveness (its logs — durable storage — live in the shared groups
/// and survive a crash).
struct ReplHost {
    server: ReplStoreServer,
    up: bool,
}

impl RpcHost for ReplHost {
    fn up(&self) -> bool {
        self.up
    }
}

/// A write appended at a primary, awaiting its commit before the
/// client may be acked.
#[derive(Clone, Copy, Debug)]
struct PendingWrite {
    shard: ShardId,
    idx: usize,
    tag: u64,
    issued: SimTime,
}

/// What the authoritative replica says about a pending write's slot.
enum Probe {
    /// The slot has not committed yet.
    NotYet,
    /// The slot committed holding this tag.
    Tag(u64),
    /// The slot committed holding something that is not a data tag
    /// (the entry was replaced by a config entry before commit).
    Gone,
}

fn orch_config() -> OrchestratorConfig {
    OrchestratorConfig {
        graceful_migration: true,
        move_caps: MoveCaps {
            max_total: 1000,
            max_per_server: 1000,
            max_per_shard: 1,
        },
        alloc: AllocConfig::new(vec![Metric::ShardCount.id()]),
        skip_cutover_ack: false,
    }
}

/// The reconfiguration-chaos simulation world.
pub struct ReconfigWorld {
    cfg: ReconfigConfig,
    cp: Orchestrator,
    groups: SharedGroups,
    hosts: BTreeMap<ServerId, ReplHost>,
    /// Monotone write counter: the payload of every write and the tag
    /// the oracle checks the acked set against.
    write_tag: u64,
    pending: Vec<PendingWrite>,
    /// Every acked write, for the quiescent acked-then-lost audit.
    acked: Vec<PendingWrite>,
    acked_keys: BTreeSet<u64>,
    /// Per-shard committed-config-chain length at the last scan.
    chain_lens: BTreeMap<ShardId, usize>,
    /// Server currently being drained by the churn driver.
    draining: Option<ServerId>,
    /// Servers the failure detector declared down behind a partition.
    partitioned: BTreeSet<ServerId>,
    /// True during a lossy-net window.
    degraded: bool,
    /// Sum of every group's commit watermark at the last replication
    /// round — cheap change detection for the oracle sweep.
    committed_sum: u64,
    /// Net, RPC transport, oracle, fault plan and trace.
    kernel: Kernel,
    /// Counters.
    pub stats: ReconfigStats,
}

impl ReconfigWorld {
    /// Registers the fleet, places every shard, and settles the initial
    /// migration storm synchronously (the experiment starts from a
    /// fully replicated steady state).
    fn bootstrap(cfg: ReconfigConfig, plan: Vec<(SimTime, Fault)>) -> Self {
        let mut cp = Orchestrator::new(AppId(0), AppPolicy::primary_secondary(2), orch_config());
        let groups = shared_groups();
        let mut hosts = BTreeMap::new();
        for i in 0..cfg.servers {
            let id = ServerId(i);
            cp.register_server(
                id,
                loc(i),
                LoadVector::single(Metric::ShardCount.id(), 1000.0),
            );
            hosts.insert(
                id,
                ReplHost {
                    server: ReplStoreServer::new(id, groups.clone()),
                    up: true,
                },
            );
        }
        cp.register_shards((0..cfg.shards).map(ShardId));
        cp.run_emergency();
        // Settle: dispatch every command synchronously against the
        // healthy fleet until the orchestrator goes quiet.
        for _round in 0..200 {
            let cmds = cp.take_commands();
            if cmds.is_empty() {
                break;
            }
            for cmd in cmds {
                if let OrchCommand::Rpc { server, rpc } = cmd {
                    let ok = hosts
                        .get_mut(&server)
                        .map(|h| rpc.dispatch(&mut h.server).is_ok())
                        .unwrap_or(false);
                    if ok {
                        cp.rpc_acked(server, rpc);
                    } else {
                        cp.rpc_failed(server, rpc);
                    }
                }
            }
        }
        if cfg.single_step {
            for g in groups.borrow_mut().values_mut() {
                g.set_single_step(true);
            }
        }
        Self {
            cfg,
            cp,
            groups,
            hosts,
            write_tag: 0,
            pending: Vec::new(),
            acked: Vec::new(),
            acked_keys: BTreeSet::new(),
            chain_lens: BTreeMap::new(),
            draining: None,
            partitioned: BTreeSet::new(),
            degraded: false,
            committed_sum: 0,
            stats: ReconfigStats::default(),
            kernel: Kernel::new(cfg.seed, cfg.rpc_latency, plan),
        }
    }

    /// True when every shard has a primary and no migration is stuck.
    pub fn converged(&self) -> bool {
        self.cp.in_flight_migrations() == 0
            && (0..self.cfg.shards).all(|s| self.cp.assignment().primary_of(ShardId(s)).is_some())
    }

    /// Shards currently missing a primary (diagnostics).
    pub fn unplaced_count(&self) -> usize {
        (0..self.cfg.shards)
            .filter(|&s| self.cp.assignment().primary_of(ShardId(s)).is_none())
            .count()
    }

    /// The oracle key for one write's log slot.
    fn write_key(shard: ShardId, idx: usize) -> u64 {
        shard.raw() * 1_000_000 + idx as u64
    }

    /// True while the plan has something actively broken — the window
    /// in which a nacked migration step counts as fault-interrupted.
    fn fault_active(&self) -> bool {
        self.degraded || self.kernel.net.partition().is_some() || self.hosts.values().any(|h| !h.up)
    }

    /// The replica whose log is authoritative for `group` right now:
    /// the leader if it has a log, else the most-committed replica.
    fn authoritative(&self, group: &ReplicationGroup<ServerId>) -> Option<ServerId> {
        if let Some(l) = group.leader() {
            if group.log(l).is_some() {
                return Some(l);
            }
        }
        (0..self.cfg.servers)
            .map(ServerId)
            .filter(|&s| group.log(s).is_some())
            .max_by_key(|&s| {
                group
                    .log(s)
                    .map(|l| (l.committed(), l.len()))
                    .unwrap_or((0, 0))
            })
    }

    fn probe_write(&self, shard: ShardId, idx: usize) -> Probe {
        let groups = self.groups.borrow();
        let Some(group) = groups.get(&shard) else {
            return Probe::Gone;
        };
        let Some(auth) = self.authoritative(group) else {
            return Probe::NotYet;
        };
        let committed = group.log(auth).map(|l| l.committed()).unwrap_or(0);
        if committed <= idx {
            return Probe::NotYet;
        }
        match group
            .data_at(auth, idx)
            .and_then(|d| <[u8; 8]>::try_from(d).ok())
        {
            Some(bytes) => Probe::Tag(u64::from_be_bytes(bytes)),
            None => Probe::Gone,
        }
    }

    /// Acks every pending write whose slot committed with its payload
    /// intact; writes off slots that were replaced or stalled past the
    /// deadline (legal: those clients were never acked).
    fn check_pending(&mut self, now: SimTime) {
        let pending = std::mem::take(&mut self.pending);
        for w in pending {
            match self.probe_write(w.shard, w.idx) {
                Probe::Tag(tag) if tag == w.tag => {
                    let key = Self::write_key(w.shard, w.idx);
                    if self.acked_keys.insert(key) {
                        self.kernel.oracle.write_acked(key, w.tag);
                        self.acked.push(w);
                        self.stats.writes_acked += 1;
                    }
                }
                Probe::Tag(_) | Probe::Gone => self.stats.writes_lost_unacked += 1,
                Probe::NotYet if now.since(w.issued) > self.cfg.write_deadline => {
                    self.stats.writes_lost_unacked += 1
                }
                Probe::NotYet => self.pending.push(w),
            }
        }
    }

    /// Sends freshly minted orchestrator commands out as RPCs.
    fn flush_commands(&mut self, ctx: &mut Ctx<'_, ReconfigEvent>) {
        for cmd in self.cp.take_commands() {
            if let OrchCommand::Rpc { server, rpc } = cmd {
                self.kernel.rpc.send(&mut self.kernel.net, ctx, server, rpc);
            }
        }
    }

    /// Books a nacked or timed-out migration step as fault-interrupted
    /// when the plan has something actively broken.
    fn note_interrupted(&mut self, rpc: ServerRpc) {
        if !self.fault_active() {
            return;
        }
        match rpc {
            ServerRpc::AddShard { .. }
            | ServerRpc::DropShard { .. }
            | ServerRpc::ChangeRole { .. }
            | ServerRpc::PrepareDropShard { .. } => {
                self.stats.reconfigs_interrupted += 1;
                let joint = self
                    .groups
                    .borrow()
                    .get(&rpc.shard())
                    .is_some_and(|g| g.reconfig_in_flight());
                if joint {
                    self.stats.joint_interruptions += 1;
                }
            }
            // The reconfig world's orchestrator never splits or merges.
            ServerRpc::PrepareAddShard { .. }
            | ServerRpc::SplitForward { .. }
            | ServerRpc::MergeForward { .. } => {}
        }
    }

    /// A live host runs the real migration step, which fails honestly
    /// (bounded replication pump) when the group cannot commit the
    /// membership change. An ack flushes the next step at once; a
    /// nacked or timed-out step is re-issued by the next retry tick, so
    /// a persistently failing step retries on a 500ms backoff instead of
    /// melting into a 2×RTT storm.
    fn rpc_event(&mut self, event: RpcEvent, ctx: &mut Ctx<'_, ReconfigEvent>) {
        let reply = self.kernel.rpc.handle(
            event,
            &mut self.kernel.net,
            ctx,
            &mut self.hosts,
            |h, rpc| rpc.dispatch(&mut h.server).is_ok(),
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

    fn write_tick(&mut self, client: u32, ctx: &mut Ctx<'_, ReconfigEvent>) {
        if ctx.now() < self.cfg.traffic_end {
            ctx.schedule_in(self.cfg.write_interval, ReconfigEvent::WriteTick(client));
        }
        let shard = ShardId(ctx.rng().range_u64(0, self.cfg.shards));
        let Some(primary) = self.cp.assignment().primary_of(shard) else {
            return;
        };
        let Some(host) = self.hosts.get_mut(&primary) else {
            return;
        };
        if !host.up {
            return;
        }
        self.write_tag += 1;
        let tag = self.write_tag;
        match host.server.write(shard, tag.to_be_bytes().to_vec()) {
            Ok(idx) => {
                self.stats.writes_attempted += 1;
                self.pending.push(PendingWrite {
                    shard,
                    idx,
                    tag,
                    issued: ctx.now(),
                });
            }
            Err(_) => self.stats.writes_rejected += 1,
        }
        self.check_pending(ctx.now());
    }

    fn replicate_tick(&mut self, ctx: &mut Ctx<'_, ReconfigEvent>) {
        if ctx.now() < self.cfg.end {
            ctx.schedule_in(self.cfg.replicate_interval, ReconfigEvent::ReplicateTick);
        }
        let mut committed_sum = 0u64;
        for g in self.groups.borrow_mut().values_mut() {
            g.pump();
            committed_sum += g.committed() as u64;
        }
        // Most replication rounds move nothing; only a commit-watermark
        // advance (a config or data entry just committed somewhere) is
        // worth an oracle sweep.
        if committed_sum != self.committed_sum {
            self.committed_sum = committed_sum;
            ctx.state_changed();
        }
        self.check_pending(ctx.now());
    }

    /// The churn driver: alternately drain a random live server (every
    /// replica it hosts starts a graceful 5-step migration) and welcome
    /// the previous one back, so membership changes stay in flight for
    /// the whole run.
    fn churn_tick(&mut self, ctx: &mut Ctx<'_, ReconfigEvent>) {
        if ctx.now() < self.cfg.traffic_end {
            ctx.schedule_in(self.cfg.churn_interval, ReconfigEvent::ChurnTick);
        }
        match self.draining.take() {
            Some(s) => {
                self.cp.server_up(s);
                self.cp.run_periodic();
            }
            None => {
                let candidates: Vec<ServerId> = self
                    .hosts
                    .iter()
                    .filter(|(s, h)| h.up && !self.partitioned.contains(s))
                    .map(|(s, _)| *s)
                    .collect();
                if !candidates.is_empty() {
                    let pick = candidates[ctx.rng().index(candidates.len())];
                    let started = self.cp.drain_server(pick);
                    self.stats.drains_started += started as u64;
                    self.draining = Some(pick);
                }
            }
        }
        self.flush_commands(ctx);
        ctx.state_changed();
    }

    /// Marks a server crashed in every group: it stops voting and
    /// receiving replication, and loses any leadership. Its logs —
    /// durable storage — survive.
    fn set_server_down(&mut self, s: ServerId) {
        for g in self.groups.borrow_mut().values_mut() {
            g.set_down(s, true);
            if g.leader() == Some(s) {
                g.step_down(s);
            }
        }
    }

    fn set_server_up(&mut self, s: ServerId) {
        for g in self.groups.borrow_mut().values_mut() {
            g.set_down(s, false);
        }
    }

    fn apply_fault(&mut self, fault: Fault, ctx: &mut Ctx<'_, ReconfigEvent>) {
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
                self.set_server_down(s);
                // The control plane only learns of the death once its
                // failure detector fires; until then, RPCs to the dead
                // server are nacked and migrations stall mid-step.
                ctx.schedule_in(SimDuration::from_secs(3), ReconfigEvent::DetectDown(i));
            }
            Fault::ServerRestart(i) | Fault::SessionRestore(i) => {
                let s = ServerId(i);
                let up = self.hosts.get(&s).map(|h| h.up).unwrap_or(true);
                if up {
                    return;
                }
                if let Some(h) = self.hosts.get_mut(&s) {
                    h.up = true;
                }
                self.set_server_up(s);
                self.cp.server_up(s);
                self.cp.reconcile_server(s);
            }
            Fault::PartitionStart(spec) => {
                self.kernel.net.start_partition(spec);
                self.stats.net_partitions += 1;
                // Mirror the partition into every group's link gates so
                // replication and elections see the same islands the
                // RPC plane does.
                let mut groups = self.groups.borrow_mut();
                for a in 0..self.cfg.servers {
                    for b in 0..self.cfg.servers {
                        if a != b && spec.blocks(Endpoint::Server(a), Endpoint::Server(b)) {
                            for g in groups.values_mut() {
                                g.block_link(ServerId(a), ServerId(b));
                            }
                        }
                    }
                }
                drop(groups);
                // The failure detector takes a few seconds to declare
                // islanded servers dead.
                for i in 0..self.cfg.servers {
                    if spec.contains(Endpoint::Server(i)) {
                        ctx.schedule_in(SimDuration::from_secs(3), ReconfigEvent::DetectDown(i));
                    }
                }
            }
            Fault::PartitionHeal => {
                self.kernel.net.heal_partition();
                for g in self.groups.borrow_mut().values_mut() {
                    g.clear_blocked_links();
                }
                let healed = std::mem::take(&mut self.partitioned);
                for s in healed {
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
    /// (still) islanded is declared down, aborting its migrations and
    /// failing its primaries over.
    fn detect_down(&mut self, i: u32, ctx: &mut Ctx<'_, ReconfigEvent>) {
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
            // Alive but unreachable: remember to welcome it back when
            // the partition heals.
            self.partitioned.insert(s);
        }
        if self.draining == Some(s) {
            self.draining = None;
        }
        self.cp.server_down(s);
        self.flush_commands(ctx);
        ctx.state_changed();
    }

    /// One shard's committed configuration chain with ids flattened for
    /// the oracle.
    fn u64_chain(group: &ReplicationGroup<ServerId>) -> Vec<Vec<BTreeSet<u64>>> {
        group
            .committed_config_chain()
            .into_iter()
            .map(|config| {
                config
                    .into_iter()
                    .map(|set| set.into_iter().map(|id| u64::from(id.raw())).collect())
                    .collect()
            })
            .collect()
    }

    /// The retry pacemaker. Nacked and timed-out migration steps are
    /// deliberately *not* re-flushed inline (see `rpc_event`): they
    /// leave here, on a fixed 500ms backoff, alongside replacement
    /// planning for failed-over shards.
    fn retry_tick(&mut self, ctx: &mut Ctx<'_, ReconfigEvent>) {
        let now = ctx.now();
        if now < self.cfg.end {
            ctx.schedule_in(SimDuration::from_millis(500), ReconfigEvent::RetryTick);
        }
        self.check_pending(now);
        self.cp.run_emergency();
        self.flush_commands(ctx);
    }

    /// Quiescence: heal everything, settle the control plane against a
    /// healthy fleet, replicate to convergence, then run the final
    /// audits — config-chain safety, per-replica view agreement, and
    /// the acked-then-lost sweep over every acked write.
    fn finalize(&mut self) {
        let at = self.cfg.end;
        // Defensive heal (the plan pairs every fault with a recovery,
        // but a shrunk plan may have dropped one).
        self.kernel.net.heal_partition();
        self.kernel.net.heal_degradation();
        let ids: Vec<ServerId> = self.hosts.keys().copied().collect();
        for s in &ids {
            if let Some(h) = self.hosts.get_mut(s) {
                h.up = true;
            }
        }
        for g in self.groups.borrow_mut().values_mut() {
            g.clear_blocked_links();
            for s in &ids {
                g.set_down(*s, false);
            }
        }
        for s in std::mem::take(&mut self.partitioned) {
            self.cp.server_up(s);
        }
        if let Some(s) = self.draining.take() {
            self.cp.server_up(s);
        }
        for s in &ids {
            self.cp.server_up(*s);
        }
        // Settle the control plane synchronously: every command runs
        // against the healthy fleet until the orchestrator goes quiet.
        for round in 0..200 {
            let cmds = self.cp.take_commands();
            if cmds.is_empty() {
                if self.cp.run_emergency() == 0 && (round > 0 || self.cp.run_periodic() == 0) {
                    break;
                }
                continue;
            }
            for cmd in cmds {
                if let OrchCommand::Rpc { server, rpc } = cmd {
                    let ok = self
                        .hosts
                        .get_mut(&server)
                        .map(|h| rpc.dispatch(&mut h.server).is_ok())
                        .unwrap_or(false);
                    if ok {
                        self.cp.rpc_acked(server, rpc);
                    } else {
                        self.cp.rpc_failed(server, rpc);
                    }
                }
            }
        }
        // Replicate to convergence.
        for _ in 0..8 {
            for g in self.groups.borrow_mut().values_mut() {
                g.pump();
            }
        }
        self.check_pending(at);
        // Final audits.
        let shards: Vec<ShardId> = self.groups.borrow().keys().copied().collect();
        for shard in shards {
            let (chain, views) = {
                let groups = self.groups.borrow();
                let g = &groups[&shard];
                let chain = Self::u64_chain(g);
                let views: Vec<Vec<BTreeSet<u64>>> = (0..self.cfg.servers)
                    .map(ServerId)
                    .filter_map(|s| g.committed_config_view(s))
                    .map(|view| {
                        view.into_iter()
                            .map(|set| set.into_iter().map(|id| u64::from(id.raw())).collect())
                            .collect()
                    })
                    .collect();
                (chain, views)
            };
            let prev = self.chain_lens.insert(shard, chain.len()).unwrap_or(1);
            self.stats.reconfigs_completed += chain.len().saturating_sub(prev) as u64;
            self.kernel
                .oracle
                .replica_config_chain(at, shard.raw(), &chain);
            self.kernel
                .oracle
                .replica_views_converged(at, shard.raw(), &views);
        }
        // Acked-then-lost: every acked write must still hold its exact
        // payload at the authoritative replica.
        let acked = std::mem::take(&mut self.acked);
        for w in &acked {
            let observed = match self.probe_write(w.shard, w.idx) {
                Probe::Tag(tag) => Some(tag),
                Probe::NotYet | Probe::Gone => None,
            };
            self.kernel
                .oracle
                .read_served(at, Self::write_key(w.shard, w.idx), observed);
        }
        self.acked = acked;
    }
}

impl World for ReconfigWorld {
    type Event = ReconfigEvent;

    fn handle(&mut self, ctx: &mut Ctx<'_, ReconfigEvent>, event: ReconfigEvent) {
        match event {
            ReconfigEvent::WriteTick(c) => self.write_tick(c, ctx),
            ReconfigEvent::ReplicateTick => self.replicate_tick(ctx),
            ReconfigEvent::ChurnTick => self.churn_tick(ctx),
            ReconfigEvent::Rpc(event) => self.rpc_event(event, ctx),
            ReconfigEvent::DetectDown(i) => self.detect_down(i, ctx),
            ReconfigEvent::FaultHit(fault) => {
                self.apply_fault(fault, ctx);
                self.flush_commands(ctx);
                ctx.state_changed();
            }
            ReconfigEvent::RetryTick => self.retry_tick(ctx),
        }
    }

    /// The oracle sweep (change-driven plus a coarse safety net): audit
    /// every shard's committed configuration chain, count newly
    /// committed configuration entries, and record trace points.
    fn sweep(&mut self, ctx: &mut Ctx<'_, ReconfigEvent>) {
        let now = ctx.now();
        if now > self.cfg.end {
            return;
        }
        // The mutation switch must also corrupt groups (re)created
        // after bootstrap.
        if self.cfg.single_step {
            for g in self.groups.borrow_mut().values_mut() {
                g.set_single_step(true);
            }
        }
        let chains: Vec<(ShardId, Vec<Vec<BTreeSet<u64>>>)> = self
            .groups
            .borrow()
            .iter()
            .map(|(shard, g)| (*shard, Self::u64_chain(g)))
            .collect();
        for (shard, chain) in chains {
            let prev = self.chain_lens.insert(shard, chain.len()).unwrap_or(1);
            self.stats.reconfigs_completed += chain.len().saturating_sub(prev) as u64;
            self.kernel
                .oracle
                .replica_config_chain(now, shard.raw(), &chain);
        }
        self.kernel
            .trace
            .record("pending_writes", now, self.pending.len() as f64);
        self.kernel
            .trace
            .record("acked_total", now, self.stats.writes_acked as f64);
        self.kernel.trace.record(
            "reconfigs_completed",
            now,
            self.stats.reconfigs_completed as f64,
        );
        self.kernel
            .trace
            .record("rpc_nacks", now, self.kernel.rpc.stats().nacks as f64);
        self.kernel.trace.record(
            "in_flight_migrations",
            now,
            self.cp.in_flight_migrations() as f64,
        );
    }

    fn sweep_interval(&self) -> Option<SimDuration> {
        Some(SimDuration::from_secs(1))
    }
}

impl FaultWorld for ReconfigWorld {
    type Config = ReconfigConfig;
    type Stats = ReconfigStats;
    const NAME: &'static str = "reconfig";
    const MUTATION: &'static str = "single_step";

    fn config(cell: DstConfig) -> ReconfigConfig {
        let mut cfg = ReconfigConfig::dst(cell.seed, cell.profile);
        cfg.single_step = cell.mutate;
        cfg
    }

    fn seed_and_end(cfg: &ReconfigConfig) -> (u64, SimTime) {
        (cfg.seed, cfg.end)
    }

    fn build(cfg: ReconfigConfig, plan: Option<Vec<(SimTime, Fault)>>) -> Self {
        // No mini-SMs in this world: the plan covers servers and the
        // network only.
        let plan =
            plan.unwrap_or_else(|| fault_plan(&cfg.profile.config(cfg.seed, cfg.servers, 0)));
        Self::bootstrap(cfg, plan)
    }

    fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    fn fault_hit(fault: Fault) -> ReconfigEvent {
        ReconfigEvent::FaultHit(fault)
    }

    fn start(&self) -> Vec<(SimTime, ReconfigEvent)> {
        let mut events: Vec<(SimTime, ReconfigEvent)> = (0..self.cfg.clients)
            .map(|c| {
                (
                    SimTime::from_millis(5_000 + 37 * u64::from(c)),
                    ReconfigEvent::WriteTick(c),
                )
            })
            .collect();
        events.extend([
            (SimTime::from_secs(1), ReconfigEvent::ReplicateTick),
            (SimTime::from_secs(1), ReconfigEvent::RetryTick),
            (SimTime::from_secs(10), ReconfigEvent::ChurnTick),
        ]);
        events
    }

    /// Whatever is still in flight at `end` (unanswered RPCs, retry
    /// chains) is abandoned; `finalize` settles the control plane
    /// synchronously against the healed fleet.
    fn finish(mut self) -> ReconfigReport {
        self.finalize();
        let converged = self.converged();
        let unplaced = self.unplaced_count();
        Report::new(self.stats, &self.kernel, converged, unplaced)
    }

    fn summary(stats: &ReconfigStats) -> String {
        format!(
            "acked={} reconfigs={} interrupted={} joint={}",
            stats.writes_acked,
            stats.reconfigs_completed,
            stats.reconfigs_interrupted,
            stats.joint_interruptions
        )
    }
}

/// Outcome of one reconfiguration-chaos run.
pub type ReconfigReport = Report<ReconfigStats>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_bootstraps_with_replicated_groups() {
        let w = ReconfigWorld::build(ReconfigConfig::dst(1, FaultProfile::ReconfigChaos), None);
        assert_eq!(w.unplaced_count(), 0, "every shard gets a primary");
        assert!(w.converged());
        let groups = w.groups.borrow();
        assert_eq!(groups.len(), w.cfg.shards as usize);
        for (shard, g) in groups.iter() {
            assert_eq!(g.voters().len(), 3, "{shard} is 3-way replicated");
            assert_eq!(
                g.leader(),
                w.cp.assignment().primary_of(*shard),
                "log leader matches the SM primary for {shard}"
            );
        }
        assert!(
            !w.kernel.plan.is_empty(),
            "profile derives a fault schedule"
        );
    }

    #[test]
    fn quiet_run_completes_reconfigs_and_stays_clean() {
        // No faults at all: churn alone must drive real joint
        // reconfigurations through the 5-step protocol, commit them,
        // and lose nothing.
        let cfg = ReconfigConfig::dst(7, FaultProfile::ReconfigChaos);
        let r = ReconfigWorld::run_with_plan(cfg, Vec::new());
        assert_eq!(r.total_violations, 0, "oracle: {:?}", r.violations);
        assert!(r.converged, "{} unplaced", r.unplaced);
        assert!(
            r.stats.reconfigs_completed >= 10,
            "churn must commit membership changes: {:?}",
            r.stats
        );
        assert!(r.stats.writes_acked > 100, "{:?}", r.stats);
        assert_eq!(r.stats.writes_lost_unacked, 0, "{:?}", r.stats);
    }
}
