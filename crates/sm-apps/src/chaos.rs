//! Seeded chaos harness over the ZooKeeper-backed control plane.
//!
//! A [`ChaosWorld`] wires the HA control plane ([`HaControlPlane`]),
//! leased KV application servers, and live client traffic into one
//! discrete-event simulation, then injects a seeded fault schedule
//! ([`sm_sim::faults::fault_plan`]): mini-SM crashes, server crashes,
//! bare ZK session expiries, network partitions (symmetric and
//! asymmetric), and lossy-net windows, each with a paired recovery.
//!
//! Every inter-process message travels through a [`SimNet`]: client
//! requests, forwards, control-plane RPCs and their acks, server
//! heartbeats and registrations. A partitioned server therefore
//! experiences real silence — its heartbeats stop arriving, ZooKeeper
//! times its session out, and the control plane fails its shards over —
//! while the server itself only learns of trouble the way a real one
//! does: heartbeat acks stop coming back, and the §3.2 self-fence timer
//! ([`SelfFenceTimer`]) forces it to wipe *before* ZK's session timeout
//! can promote a replacement. The safety rule is
//! `self_fence_timeout + heartbeat_interval < zk_session_timeout`.
//!
//! The paper's safety claims are checked continuously by an
//! [`Oracle`]: at most one unfenced willing primary per shard (checked
//! at every served request and on periodic sweeps), no
//! acknowledged-then-lost request or stale read (every write is tagged
//! with a monotone counter; every read must observe its key's latest
//! acknowledged tag), registry/ZK snapshot agreement at quiescence, and
//! router/assignment convergence after the last heal.
//!
//! Fault indices map directly to ids (`Fault::MiniSmCrash(i)` targets
//! `MiniSmId(i)`); mini-SM ids are assigned densely from zero at
//! deployment, so the plan's every-mini-SM coverage guarantee carries
//! over to ids. The whole run is a pure function of `(config, plan)`:
//! same seed and plan, byte-identical trace.

use crate::kv::{ExternalStore, KvServer};
use crate::world::{loc, DstConfig, FaultWorld, Kernel, Report, RpcEvent, RpcHost};
use crate::AppResponse;
use sm_allocator::{AllocConfig, MoveCaps};
use sm_core::ha::{paths, HaControlPlane, HaStats, SelfFenceTimer, ServerLease};
use sm_core::{ApplicationManager, OrchCommand, OrchestratorConfig, Partition};
use sm_sim::faults::{fault_plan, Fault, FaultPlanConfig, FaultProfile};
use sm_sim::net::Endpoint;
use sm_sim::{Ctx, SimDuration, SimTime, World};
use sm_types::{
    AppId, AppKey, AppPolicy, LoadVector, Metric, MiniSmId, ServerId, ShardId, ShardingSpec,
};
use sm_zk::{WatchEvent, ZkStore};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

/// Shape of one chaos run. The fault schedule is derived from `seed`
/// (via [`FaultPlanConfig::covering`] or `profile`), so the whole run
/// is reproducible from this config alone.
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// Seed for traffic, fault schedule, and every other random draw.
    pub seed: u64,
    /// Application servers (ids `0..servers`).
    pub servers: u32,
    /// Shards across the whole app.
    pub shards: u64,
    /// Concurrent request generators.
    pub clients: u32,
    /// Gap between one client's requests.
    pub request_interval: SimDuration,
    /// Base one-way latency of the simulated network (jitter on top).
    pub rpc_latency: SimDuration,
    /// Client retry backoff (doubles as the request timeout when the
    /// net eats a message).
    pub retry_delay: SimDuration,
    /// Retry budget per request; must outlast the longest outage.
    pub max_attempts: u32,
    /// Clients stop issuing new requests here (in-flight ones drain).
    pub traffic_end: SimTime,
    /// Periodic scans and router refreshes stop here; must be past the
    /// last scheduled recovery so the final scan sees quiescence.
    pub end: SimTime,
    /// Fault-plan shape: `None` replays the PR 3 covering plan
    /// (crashes and expiries only); `Some(p)` uses the DST profile.
    pub profile: Option<FaultProfile>,
    /// How often each server heartbeats ZooKeeper.
    pub heartbeat_interval: SimDuration,
    /// §3.2: a server wipes itself after this long without a heartbeat
    /// ack. Must be safely below `zk_session_timeout` minus one
    /// heartbeat interval.
    pub self_fence_timeout: SimDuration,
    /// ZooKeeper expires a session after this long without heartbeats.
    pub zk_session_timeout: SimDuration,
    /// Client keys are drawn from `0..key_space` so reads exercise
    /// previously-written keys; `0` means the full u64 space (the PR 3
    /// traffic shape).
    pub key_space: u64,
    /// DST mutation switch: disables §3.2 self-fencing so the oracle
    /// can demonstrate it catches the resulting dual primaries and
    /// stale reads. Never set outside `tests/dst.rs`.
    pub disable_self_fencing: bool,
}

impl ChaosConfig {
    /// A run sized to meet the chaos acceptance floors while staying
    /// fast enough for the test gate.
    pub fn covering(seed: u64) -> Self {
        Self {
            seed,
            servers: 20,
            shards: 64,
            clients: 4,
            request_interval: SimDuration::from_millis(100),
            rpc_latency: SimDuration::from_millis(10),
            retry_delay: SimDuration::from_millis(500),
            max_attempts: 120,
            traffic_end: SimTime::from_secs(365),
            end: SimTime::from_secs(400),
            profile: None,
            heartbeat_interval: SimDuration::from_secs(1),
            self_fence_timeout: SimDuration::from_secs(5),
            zk_session_timeout: SimDuration::from_secs(8),
            key_space: 0,
            disable_self_fencing: false,
        }
    }

    /// The compact shape the DST swarm sweeps: a smaller fleet and a
    /// one-minute fault window keep a single seeded run cheap enough
    /// to explore many seeds per profile.
    pub fn dst(seed: u64, profile: FaultProfile) -> Self {
        Self {
            seed,
            servers: 10,
            shards: 32,
            clients: 3,
            request_interval: SimDuration::from_millis(100),
            rpc_latency: SimDuration::from_millis(10),
            retry_delay: SimDuration::from_millis(500),
            max_attempts: 120,
            traffic_end: SimTime::from_secs(140),
            end: SimTime::from_secs(160),
            profile: Some(profile),
            heartbeat_interval: SimDuration::from_secs(1),
            self_fence_timeout: SimDuration::from_secs(5),
            zk_session_timeout: SimDuration::from_secs(8),
            key_space: 512,
            disable_self_fencing: false,
        }
    }
}

/// One client request's identity and routing state, carried through
/// deliveries, forwards, and retries.
#[derive(Clone, Copy, Debug)]
pub struct Req {
    /// Unique request id (oracle bookkeeping and duplicate detection).
    pub id: u64,
    /// Issuing client (the network source endpoint).
    pub client: u32,
    /// Key being read/written (as its u64 seed).
    pub key: u64,
    /// True for a put, false for a get.
    pub write: bool,
    /// Shard the key maps to.
    pub shard: ShardId,
    /// Delivery attempts so far, this one included.
    pub attempts: u32,
    /// When the request was first issued.
    pub sent_at: SimTime,
}

/// Event alphabet of the chaos world.
#[derive(Debug)]
pub enum ChaosEvent {
    /// Client `i` issues its next request.
    ClientTick(u32),
    /// A request (or one duplicated copy of it) arrives at a server.
    Deliver {
        /// The request.
        req: Req,
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
    /// A ZooKeeper watch notification is delivered (ordered session
    /// channel: never dropped, never reordered).
    ZkNotify(WatchEvent),
    /// A fault-plan entry fires.
    FaultHit(Fault),
    /// Clients re-read the shard map (service discovery refresh).
    RouterRefresh,
    /// Server `i` runs its heartbeat step: self-fence check, beat,
    /// resignation, or re-registration.
    HeartbeatTick(u32),
    /// Server `i`'s heartbeat arrives at ZooKeeper.
    BeatArrive(u32),
    /// ZooKeeper's heartbeat ack arrives back at server `i`.
    BeatAck(u32),
    /// Server `i`'s resignation (it self-fenced with a live session)
    /// arrives at ZooKeeper.
    ResignArrive(u32),
    /// Server `i`'s re-registration attempt arrives at ZooKeeper.
    RegisterArrive(u32),
}

impl From<RpcEvent> for ChaosEvent {
    fn from(event: RpcEvent) -> Self {
        ChaosEvent::Rpc(event)
    }
}

/// Counters and coverage accumulated over a run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChaosStats {
    /// Requests served successfully.
    pub served: u64,
    /// Requests that exhausted their retry budget.
    pub dropped: u64,
    /// Retry attempts across all requests.
    pub retries: u64,
    /// Forwarding hops taken (graceful migration in action).
    pub forwards: u64,
    /// Shard-scans that found more than one willing primary.
    pub dual_primary: u64,
    /// Server container crashes injected.
    pub server_crashes: u64,
    /// Bare session expiries injected.
    pub session_expiries: u64,
    /// Mini-SM crashes injected.
    pub minism_crashes: u64,
    /// Servers that wiped themselves via the §3.2 self-fence timer.
    pub self_fences: u64,
    /// Sessions ZooKeeper expired for missing heartbeats (partitions).
    pub zk_expiries: u64,
    /// Network partitions injected.
    pub net_partitions: u64,
    /// Control-plane counters (failovers, restores, fenced writes).
    pub ha: HaStats,
    /// Mini-SM ids crashed at least once.
    pub crashed_minisms: BTreeSet<u32>,
    /// Mini-SMs the plan targets — every one that existed at deployment
    /// (the coverage denominator).
    pub initial_minisms: usize,
    /// Server ids whose bare session expiry was injected.
    pub expired_sessions: BTreeSet<u32>,
    /// Completed control-plane recoveries, in milliseconds.
    pub recoveries_ms: Vec<f64>,
}

/// One application server process: its KV state, its ZK liveness
/// session, and its *server-side* view of the fencing contract.
///
/// `lease` is ZooKeeper's side (the ephemeral session object) — the
/// world holds it here for convenience, but the server never reads it.
/// What the server knows is `fenced` plus the [`SelfFenceTimer`]: it
/// stops serving when heartbeat acks stop, not when ZK says so.
struct Host {
    kv: KvServer,
    lease: Option<ServerLease>,
    process_up: bool,
    fenced: bool,
    fence: SelfFenceTimer,
}

/// A server whose ZK session quietly expired behind a partition still
/// says it is serving — that is the §3.2 hazard self-fencing exists to
/// close.
impl RpcHost for Host {
    fn up(&self) -> bool {
        self.process_up
    }

    fn fenced(&self) -> bool {
        self.fenced
    }
}

/// The chaos simulation world.
pub struct ChaosWorld {
    cfg: ChaosConfig,
    zk: ZkStore,
    cp: HaControlPlane,
    spec: Rc<ShardingSpec>,
    hosts: BTreeMap<ServerId, Host>,
    partitions: Vec<Partition>,
    /// Client-visible shard→primary map, refreshed periodically.
    router: BTreeMap<ShardId, ServerId>,
    /// ZooKeeper's view of each server's last heartbeat.
    last_beat: BTreeMap<ServerId, SimTime>,
    /// Monotone write counter: the value stored for every put and the
    /// tag the oracle checks reads against.
    write_tag: u64,
    /// Net, RPC transport, oracle, fault plan and trace.
    kernel: Kernel,
    /// Counters.
    pub stats: ChaosStats,
    /// Start of the oldest unfinished recovery, if any.
    recovering_since: Option<SimTime>,
}

fn orch_config() -> OrchestratorConfig {
    OrchestratorConfig {
        graceful_migration: true,
        move_caps: MoveCaps::default(),
        alloc: AllocConfig::new(vec![Metric::ShardCount.id()]),
        skip_cutover_ack: false,
    }
}

impl ChaosWorld {
    /// Control plane, leased servers, deployed partitions. Watch events
    /// raised during setup are delivered synchronously (the world is
    /// not running yet, so there is no one to race with).
    fn bootstrap(cfg: ChaosConfig) -> Self {
        let mut zk = ZkStore::new();
        let (mut cp, setup_events) = HaControlPlane::new(
            &mut zk,
            orch_config(),
            LoadVector::single(Metric::ShardCount.id(), 1000.0),
            4,
        )
        .expect("fresh ZK accepts the base znodes");
        let app = AppId(0);
        cp.register_app(app, AppPolicy::primary_only());

        let spec = Rc::new(ShardingSpec::uniform_u64(cfg.shards));
        let external = Rc::new(RefCell::new(ExternalStore::new()));
        let mut hosts = BTreeMap::new();
        let mut pending = setup_events;
        let server_ids: Vec<ServerId> = (0..cfg.servers).map(ServerId).collect();
        for &s in &server_ids {
            cp.register_server(&mut zk, s, loc(s.raw()));
            let (lease, events) =
                ServerLease::register(&mut zk, s).expect("fresh session registers");
            pending.extend(events);
            hosts.insert(
                s,
                Host {
                    kv: KvServer::new(s, spec.clone(), external.clone()),
                    lease: Some(lease),
                    process_up: true,
                    fenced: false,
                    fence: SelfFenceTimer::new(SimTime::ZERO, cfg.self_fence_timeout),
                },
            );
        }

        let shard_ids: Vec<ShardId> = (0..cfg.shards).map(ShardId).collect();
        let mut mgr = ApplicationManager::new(4);
        let partitions = mgr.partition_app(app, &server_ids, &shard_ids);
        for p in &partitions {
            let events = cp
                .deploy_partition(&mut zk, p)
                .expect("deploy on a healthy fleet");
            pending.extend(events);
        }
        // Drain setup watches synchronously so every one-shot watch is
        // re-armed before the event loop starts, then settle the
        // initial placement (deploy completes before the experiment).
        let mut guard = 0;
        while let Some(e) = pending.pop() {
            guard += 1;
            assert!(guard < 10_000, "setup watch storm");
            pending.extend(cp.handle_event(&mut zk, &e));
        }
        for _round in 0..200 {
            let cmds = cp.take_commands();
            if cmds.is_empty() {
                break;
            }
            for (_pid, cmd) in cmds {
                if let OrchCommand::Rpc { server, rpc } = cmd {
                    let ok = hosts
                        .get_mut(&server)
                        .map(|h| rpc.dispatch(&mut h.kv).is_ok())
                        .unwrap_or(false);
                    let acks = if ok {
                        cp.rpc_acked(&mut zk, server, rpc)
                    } else {
                        cp.rpc_failed(&mut zk, server, rpc)
                    };
                    pending.extend(acks);
                }
            }
            while let Some(e) = pending.pop() {
                guard += 1;
                assert!(guard < 10_000, "setup watch storm");
                pending.extend(cp.handle_event(&mut zk, &e));
            }
        }

        let last_beat = server_ids.iter().map(|&s| (s, SimTime::ZERO)).collect();
        let mut world = Self {
            cfg,
            zk,
            cp,
            spec,
            hosts,
            partitions,
            router: BTreeMap::new(),
            last_beat,
            write_tag: 0,
            stats: ChaosStats::default(),
            kernel: Kernel::new(cfg.seed, cfg.rpc_latency, Vec::new()),
            recovering_since: None,
        };
        world.refresh_router();
        world
    }

    fn refresh_router(&mut self) {
        for p in &self.partitions {
            if let Some(orch) = self.cp.orchestrator(p.id) {
                for &shard in &p.shards {
                    match orch.assignment().primary_of(shard) {
                        Some(server) => {
                            self.router.insert(shard, server);
                        }
                        None => {
                            self.router.remove(&shard);
                        }
                    }
                }
            }
        }
    }

    /// Queues watch notifications for delivery over the ordered session
    /// channel — a real ZK client's event thread never drops or
    /// reorders notifications while the session lives.
    fn dispatch_zk(&mut self, events: Vec<WatchEvent>, ctx: &mut Ctx<'_, ChaosEvent>) {
        let delay = self
            .kernel
            .net
            .ordered_delay(Endpoint::Zk, Endpoint::ControlPlane);
        for event in events {
            ctx.schedule_in(delay, ChaosEvent::ZkNotify(event));
        }
    }

    /// Sends freshly minted orchestrator commands out as RPCs.
    fn flush_commands(&mut self, ctx: &mut Ctx<'_, ChaosEvent>) {
        for (_pid, cmd) in self.cp.take_commands() {
            if let OrchCommand::Rpc { server, rpc } = cmd {
                self.kernel.rpc.send(&mut self.kernel.net, ctx, server, rpc);
            }
        }
    }

    fn client_tick(&mut self, client: u32, ctx: &mut Ctx<'_, ChaosEvent>) {
        if ctx.now() < self.cfg.traffic_end {
            ctx.schedule_in(self.cfg.request_interval, ChaosEvent::ClientTick(client));
        }
        let key = if self.cfg.key_space > 0 {
            ctx.rng().range_u64(0, self.cfg.key_space)
        } else {
            ctx.rng().next_u64()
        };
        let write = ctx.rng().chance(0.5);
        let Some(shard) = self.spec.shard_for(&AppKey::from_u64(key)) else {
            return;
        };
        let req = Req {
            id: self.kernel.oracle.request_issued(),
            client,
            key,
            write,
            shard,
            attempts: 1,
            sent_at: ctx.now(),
        };
        self.route(req, ctx);
    }

    /// Routes (or re-routes) a request via the client-visible map and
    /// transmits it; a message the net eats surfaces as a client-side
    /// timeout and retry.
    fn route(&mut self, req: Req, ctx: &mut Ctx<'_, ChaosEvent>) {
        if self.kernel.oracle.already_served(req.id) {
            return; // a duplicated copy already completed this request
        }
        let Some(target) = self.router.get(&req.shard).copied() else {
            self.fail_or_retry(req, ctx);
            return;
        };
        let t = self
            .kernel
            .net
            .transmit(Endpoint::Client(req.client), Endpoint::Server(target.raw()));
        if t.copies.is_empty() {
            self.fail_or_retry(req, ctx);
            return;
        }
        for d in t.copies {
            ctx.schedule_in(
                d,
                ChaosEvent::Deliver {
                    req,
                    target,
                    hops: 0,
                },
            );
        }
    }

    fn fail_or_retry(&mut self, req: Req, ctx: &mut Ctx<'_, ChaosEvent>) {
        if self.kernel.oracle.already_served(req.id) {
            return;
        }
        if req.attempts < self.cfg.max_attempts {
            self.stats.retries += 1;
            ctx.schedule_in(
                self.cfg.retry_delay,
                ChaosEvent::Retry {
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

    /// Servers that would serve an unforwarded request for `shard`
    /// right now. Process-up is the only qualifier — a zombie whose ZK
    /// session expired behind a partition still counts, which is
    /// exactly what self-fencing must prevent.
    fn willing_count(&self, shard: ShardId) -> usize {
        self.hosts
            .values()
            .filter(|h| h.process_up && h.kv.admit(shard, false) == AppResponse::Serve)
            .count()
    }

    fn deliver(&mut self, req: Req, target: ServerId, hops: u8, ctx: &mut Ctx<'_, ChaosEvent>) {
        if self.kernel.oracle.already_served(req.id) {
            return;
        }
        let serving = self.hosts.get(&target).map(Host::serving).unwrap_or(false);
        if !serving {
            self.fail_or_retry(req, ctx);
            return;
        }
        let response = self
            .hosts
            .get(&target)
            .map(|h| h.kv.admit(req.shard, hops > 0))
            .unwrap_or(AppResponse::NotMine);
        match response {
            AppResponse::Serve => self.serve(req, target, ctx),
            AppResponse::Forward(next) if hops < 4 => {
                self.stats.forwards += 1;
                let t = self
                    .kernel
                    .net
                    .transmit(Endpoint::Server(target.raw()), Endpoint::Server(next.raw()));
                if t.copies.is_empty() {
                    self.fail_or_retry(req, ctx);
                    return;
                }
                for d in t.copies {
                    ctx.schedule_in(
                        d,
                        ChaosEvent::Deliver {
                            req,
                            target: next,
                            hops: hops + 1,
                        },
                    );
                }
            }
            AppResponse::Forward(_) | AppResponse::NotMine => {
                self.fail_or_retry(req, ctx);
            }
        }
    }

    fn serve(&mut self, req: Req, target: ServerId, ctx: &mut Ctx<'_, ChaosEvent>) {
        let now = ctx.now();
        // The §3.2 invariant is checked at the moment it matters: when
        // a request is actually served.
        let willing = self.willing_count(req.shard);
        self.kernel
            .oracle
            .primaries_observed(now, req.shard.raw(), willing);
        let app_key = AppKey::from_u64(req.key);
        if req.write {
            self.write_tag += 1;
            let tag = self.write_tag;
            if let Some(host) = self.hosts.get_mut(&target) {
                host.kv.put(req.shard, app_key, tag.to_be_bytes().to_vec());
            }
            self.kernel.oracle.write_acked(req.key, tag);
        } else {
            let observed = self
                .hosts
                .get_mut(&target)
                .and_then(|h| h.kv.get(req.shard, &app_key))
                .and_then(|v| <[u8; 8]>::try_from(v.as_slice()).ok())
                .map(u64::from_be_bytes);
            self.kernel.oracle.read_served(now, req.key, observed);
        }
        self.kernel.oracle.request_served(req.id);
        self.stats.served += 1;
        let latency_ms = now.since(req.sent_at).as_millis_f64();
        self.kernel.trace.record("latency_ms", now, latency_ms);
    }

    /// A KV host applies an RPC; the control plane hears every answer
    /// and timeout at once and flushes its follow-up commands straight
    /// away.
    fn rpc_event(&mut self, event: RpcEvent, ctx: &mut Ctx<'_, ChaosEvent>) {
        let reply = self.kernel.rpc.handle(
            event,
            &mut self.kernel.net,
            ctx,
            &mut self.hosts,
            |h, rpc| rpc.dispatch(&mut h.kv).is_ok(),
        );
        let Some((server, rpc, acked)) = reply else {
            return;
        };
        let events = if acked {
            self.cp.rpc_acked(&mut self.zk, server, rpc)
        } else {
            self.cp.rpc_failed(&mut self.zk, server, rpc)
        };
        self.dispatch_zk(events, ctx);
        self.flush_commands(ctx);
        ctx.state_changed();
    }

    /// One server-side heartbeat step: check the self-fence deadline,
    /// then beat / resign / re-register as the state demands. All
    /// outbound messages go through the net, so a partitioned server's
    /// beats genuinely vanish.
    fn heartbeat_tick(&mut self, s: u32, ctx: &mut Ctx<'_, ChaosEvent>) {
        if ctx.now() < self.cfg.end {
            ctx.schedule_in(self.cfg.heartbeat_interval, ChaosEvent::HeartbeatTick(s));
        }
        let server = ServerId(s);
        let now = ctx.now();
        let Some(host) = self.hosts.get_mut(&server) else {
            return;
        };
        if !host.process_up {
            return;
        }
        if !host.fenced {
            if host.lease.is_some() && host.fence.must_fence(now) {
                // §3.2: heartbeat acks stopped long enough ago that a
                // replacement primary may be imminent — wipe now, ask
                // questions later. The DST mutation keeps serving
                // instead, which the oracle must catch.
                if self.cfg.disable_self_fencing {
                    // intentionally broken: stale primary keeps serving
                } else {
                    host.kv.restart();
                    host.fenced = true;
                    self.stats.self_fences += 1;
                    ctx.state_changed();
                    return;
                }
            }
            if host.lease.is_some() {
                let t = self.kernel.net.transmit(Endpoint::Server(s), Endpoint::Zk);
                for d in t.copies {
                    ctx.schedule_in(d, ChaosEvent::BeatArrive(s));
                }
            }
            return;
        }
        // Fenced: resign the still-live session so failover can start
        // without waiting out the ZK timeout, or re-register once the
        // old session is gone. Both can be eaten by a partition; the
        // next tick retries.
        if host.lease.is_some() {
            let t = self.kernel.net.transmit(Endpoint::Server(s), Endpoint::Zk);
            for d in t.copies {
                ctx.schedule_in(d, ChaosEvent::ResignArrive(s));
            }
        } else {
            let t = self.kernel.net.transmit(Endpoint::Server(s), Endpoint::Zk);
            for d in t.copies {
                ctx.schedule_in(d, ChaosEvent::RegisterArrive(s));
            }
        }
    }

    fn beat_arrive(&mut self, s: u32, ctx: &mut Ctx<'_, ChaosEvent>) {
        let server = ServerId(s);
        let Some(host) = self.hosts.get(&server) else {
            return;
        };
        if host.lease.is_none() {
            return; // stale beat from a session ZK already expired
        }
        self.last_beat.insert(server, ctx.now());
        let t = self.kernel.net.transmit(Endpoint::Zk, Endpoint::Server(s));
        for d in t.copies {
            ctx.schedule_in(d, ChaosEvent::BeatAck(s));
        }
    }

    fn beat_ack(&mut self, s: u32, ctx: &mut Ctx<'_, ChaosEvent>) {
        let now = ctx.now();
        if let Some(host) = self.hosts.get_mut(&ServerId(s)) {
            host.fence.ack(now);
        }
    }

    fn resign_arrive(&mut self, s: u32, ctx: &mut Ctx<'_, ChaosEvent>) {
        let Some(host) = self.hosts.get_mut(&ServerId(s)) else {
            return;
        };
        let Some(lease) = host.lease.take() else {
            return; // ZK's own expiry won the race
        };
        let events = lease.expire(&mut self.zk);
        self.dispatch_zk(events, ctx);
        ctx.state_changed();
    }

    fn register_arrive(&mut self, s: u32, ctx: &mut Ctx<'_, ChaosEvent>) {
        let server = ServerId(s);
        let now = ctx.now();
        let ready = self
            .hosts
            .get(&server)
            .map(|h| h.process_up && h.lease.is_none())
            .unwrap_or(false);
        if !ready {
            return; // raced a planned SessionRestore, or crashed meanwhile
        }
        if let Ok((lease, events)) = ServerLease::register(&mut self.zk, server) {
            if let Some(host) = self.hosts.get_mut(&server) {
                host.lease = Some(lease);
                host.fenced = false;
                host.fence.ack(now);
            }
            self.last_beat.insert(server, now);
            self.dispatch_zk(events, ctx);
            ctx.state_changed();
        }
    }

    fn apply_fault(&mut self, fault: Fault, ctx: &mut Ctx<'_, ChaosEvent>) {
        match fault {
            Fault::ServerCrash(i) => {
                let s = ServerId(i);
                let Some(host) = self.hosts.get_mut(&s) else {
                    return;
                };
                if !host.process_up {
                    return;
                }
                host.process_up = false;
                host.kv.restart();
                host.fenced = false;
                let expired = host.lease.take();
                self.stats.server_crashes += 1;
                if let Some(lease) = expired {
                    // The process died; its TCP connection to ZK dies
                    // with it and the session expires immediately.
                    let events = lease.expire(&mut self.zk);
                    self.dispatch_zk(events, ctx);
                }
            }
            Fault::ServerRestart(i) => {
                let s = ServerId(i);
                let up = self.hosts.get(&s).map(|h| h.process_up).unwrap_or(true);
                if up {
                    return;
                }
                match ServerLease::register(&mut self.zk, s) {
                    Ok((lease, events)) => {
                        let now = ctx.now();
                        if let Some(host) = self.hosts.get_mut(&s) {
                            host.process_up = true;
                            host.lease = Some(lease);
                            host.fenced = false;
                            host.fence = SelfFenceTimer::new(now, self.cfg.self_fence_timeout);
                        }
                        self.last_beat.insert(s, now);
                        self.dispatch_zk(events, ctx);
                    }
                    Err(_) => {
                        // Old session still registered; the restart
                        // retries on the next plan entry (none in the
                        // covering plan — expiry always precedes this).
                    }
                }
            }
            Fault::SessionExpiry(i) => {
                let s = ServerId(i);
                let Some(host) = self.hosts.get_mut(&s) else {
                    return;
                };
                if !host.process_up || host.lease.is_none() {
                    return;
                }
                // §3.2: the ZK client library tells the server its
                // session is gone, and the server self-fences — wipes
                // its hosting state immediately, before the control
                // plane even observes the expiry.
                host.kv.restart();
                host.fenced = true;
                let expired = host.lease.take();
                self.stats.session_expiries += 1;
                self.stats.expired_sessions.insert(i);
                if let Some(lease) = expired {
                    let events = lease.expire(&mut self.zk);
                    self.dispatch_zk(events, ctx);
                }
            }
            Fault::SessionRestore(i) => {
                let s = ServerId(i);
                let needs = self
                    .hosts
                    .get(&s)
                    .map(|h| h.process_up && h.lease.is_none())
                    .unwrap_or(false);
                if !needs {
                    return; // the heartbeat loop already re-registered
                }
                if let Ok((lease, events)) = ServerLease::register(&mut self.zk, s) {
                    let now = ctx.now();
                    if let Some(host) = self.hosts.get_mut(&s) {
                        host.lease = Some(lease);
                        host.fenced = false;
                        host.fence.ack(now);
                    }
                    self.last_beat.insert(s, now);
                    self.dispatch_zk(events, ctx);
                }
            }
            Fault::MiniSmCrash(i) => {
                let id = MiniSmId(i);
                if !self.cp.running_minisms().contains(&id) {
                    return;
                }
                self.stats.minism_crashes += 1;
                self.stats.crashed_minisms.insert(i);
                if self.recovering_since.is_none() {
                    self.recovering_since = Some(ctx.now());
                }
                let events = self.cp.crash_minism(&mut self.zk, id);
                self.dispatch_zk(events, ctx);
            }
            Fault::MiniSmRestart(i) => {
                let id = MiniSmId(i);
                if let Ok(events) = self.cp.restart_minism(&mut self.zk, id) {
                    self.dispatch_zk(events, ctx);
                }
            }
            Fault::PartitionStart(spec) => {
                self.kernel.net.start_partition(spec);
                self.stats.net_partitions += 1;
                if self.recovering_since.is_none() {
                    self.recovering_since = Some(ctx.now());
                }
            }
            Fault::PartitionHeal => self.kernel.net.heal_partition(),
            Fault::NetDegrade { drop_pct, dup_pct } => self
                .kernel
                .net
                .set_degradation(f64::from(drop_pct) / 100.0, f64::from(dup_pct) / 100.0),
            Fault::NetHeal => self.kernel.net.heal_degradation(),
        }
    }

    /// Quiescence checks, run once after the event queue drains: the
    /// registry must match its durable snapshot, every shard must be
    /// placed with no stuck migrations, the client-visible router (as
    /// last refreshed by its periodic task) must agree with the
    /// assignment, and no request may have silently vanished.
    fn finalize(&mut self) {
        let at = self.cfg.end;
        let in_memory = self.cp.registry.snapshot();
        let durable = self.zk.get(paths::REGISTRY).ok().map(|(d, _)| d);
        self.kernel
            .oracle
            .quiescent_registry(at, &in_memory, durable.as_deref());
        let unplaced = self.cp.unplaced().len();
        let in_flight = self.cp.in_flight_total();
        let mut divergence = 0usize;
        for p in &self.partitions {
            if let Some(orch) = self.cp.orchestrator(p.id) {
                for &shard in &p.shards {
                    if orch.assignment().primary_of(shard) != self.router.get(&shard).copied() {
                        divergence += 1;
                    }
                }
            }
        }
        self.kernel
            .oracle
            .convergence_check(at, unplaced, in_flight, divergence);
        self.kernel.oracle.quiescent_drain_check(at);
    }
}

impl World for ChaosWorld {
    type Event = ChaosEvent;

    fn handle(&mut self, ctx: &mut Ctx<'_, ChaosEvent>, event: ChaosEvent) {
        match event {
            ChaosEvent::ClientTick(c) => self.client_tick(c, ctx),
            ChaosEvent::Deliver { req, target, hops } => self.deliver(req, target, hops, ctx),
            ChaosEvent::Retry { req } => {
                // Re-route via the freshest map the client can see.
                self.refresh_router();
                self.route(req, ctx);
            }
            ChaosEvent::Rpc(event) => self.rpc_event(event, ctx),
            ChaosEvent::ZkNotify(watch) => {
                let events = self.cp.handle_event(&mut self.zk, &watch);
                self.dispatch_zk(events, ctx);
                self.flush_commands(ctx);
                ctx.state_changed();
            }
            ChaosEvent::FaultHit(fault) => {
                self.apply_fault(fault, ctx);
                self.flush_commands(ctx);
                ctx.state_changed();
            }
            ChaosEvent::RouterRefresh => {
                if ctx.now() < self.cfg.end {
                    ctx.schedule_in(SimDuration::from_millis(1000), ChaosEvent::RouterRefresh);
                }
                self.refresh_router();
            }
            ChaosEvent::HeartbeatTick(s) => self.heartbeat_tick(s, ctx),
            ChaosEvent::BeatArrive(s) => self.beat_arrive(s, ctx),
            ChaosEvent::BeatAck(s) => self.beat_ack(s, ctx),
            ChaosEvent::ResignArrive(s) => self.resign_arrive(s, ctx),
            ChaosEvent::RegisterArrive(s) => self.register_arrive(s, ctx),
        }
    }

    /// The oracle sweep (change-driven plus a coarse safety net):
    /// ZK-side session expiry, the dual-primary audit, recovery
    /// bookkeeping, and trace points. Gated to the experiment window: after `end` the periodic
    /// heartbeats have stopped by design, and sweeping the drain would
    /// mass-expire healthy sessions that are merely no longer beating.
    fn sweep(&mut self, ctx: &mut Ctx<'_, ChaosEvent>) {
        let now = ctx.now();
        if now > self.cfg.end {
            return;
        }
        // ZooKeeper-side session expiry: a server whose heartbeats
        // stopped arriving (partition, not crash) loses its ephemeral,
        // which is what lets the control plane fail its shards over.
        let timeout = self.cfg.zk_session_timeout;
        let silent: Vec<ServerId> = self
            .hosts
            .iter()
            .filter(|(s, h)| {
                h.lease.is_some()
                    && self
                        .last_beat
                        .get(s)
                        .map(|&b| now.since(b) > timeout)
                        .unwrap_or(true)
            })
            .map(|(s, _)| *s)
            .collect();
        for s in silent {
            if let Some(lease) = self.hosts.get_mut(&s).and_then(|h| h.lease.take()) {
                self.stats.zk_expiries += 1;
                let events = lease.expire(&mut self.zk);
                self.dispatch_zk(events, ctx);
            }
        }
        // Dual-primary sweep: the continuous per-serve check sees every
        // served request; this sweep also sees shards with no traffic.
        for shard in (0..self.cfg.shards).map(ShardId) {
            let willing = self.willing_count(shard);
            self.kernel
                .oracle
                .primaries_observed(now, shard.raw(), willing);
            if willing > 1 {
                self.stats.dual_primary += 1;
            }
        }
        let unplaced = self.cp.unplaced().len();
        let in_flight = self.cp.in_flight_total();
        if let Some(started) = self.recovering_since {
            if unplaced == 0 && in_flight == 0 && self.kernel.net.partition().is_none() {
                self.stats
                    .recoveries_ms
                    .push(now.since(started).as_millis_f64());
                self.recovering_since = None;
            }
        }
        let down = self
            .hosts
            .values()
            .filter(|h| !h.process_up || h.fenced || h.lease.is_none())
            .count();
        self.kernel.trace.record("unplaced", now, unplaced as f64);
        self.kernel.trace.record("in_flight", now, in_flight as f64);
        self.kernel.trace.record("down_servers", now, down as f64);
        self.kernel
            .trace
            .record("served_total", now, self.stats.served as f64);
        self.kernel
            .trace
            .record("dropped_total", now, self.stats.dropped as f64);
        self.kernel
            .trace
            .record("minisms_up", now, self.cp.running_minisms().len() as f64);
        self.kernel
            .trace
            .record("net_blocked", now, self.kernel.net.stats().blocked as f64);
    }

    fn sweep_interval(&self) -> Option<SimDuration> {
        // Coarse safety net only: the interesting sweeps are the
        // change-driven ones right after placement- or liveness-
        // affecting events. ZK session expiry bounds how coarse this
        // may get — well within a second of the 8s timeout is plenty.
        Some(SimDuration::from_secs(1))
    }
}

impl FaultWorld for ChaosWorld {
    type Config = ChaosConfig;
    type Stats = ChaosStats;
    const NAME: &'static str = "chaos";
    const MUTATION: &'static str = "disable_self_fencing";

    fn config(cell: DstConfig) -> ChaosConfig {
        let mut cfg = ChaosConfig::dst(cell.seed, cell.profile);
        cfg.disable_self_fencing = cell.mutate;
        cfg
    }

    fn seed_and_end(cfg: &ChaosConfig) -> (u64, SimTime) {
        (cfg.seed, cfg.end)
    }

    /// Without an explicit plan: the covering plan when `cfg.profile` is
    /// `None`, the profile's DST plan otherwise.
    fn build(cfg: ChaosConfig, plan: Option<Vec<(SimTime, Fault)>>) -> Self {
        let mut world = Self::bootstrap(cfg);
        let n_minisms = world.cp.running_minisms().len() as u32;
        world.kernel.plan = plan.unwrap_or_else(|| match cfg.profile {
            None => fault_plan(&FaultPlanConfig::covering(cfg.seed, cfg.servers, n_minisms)),
            Some(p) => fault_plan(&p.config(cfg.seed, cfg.servers, n_minisms)),
        });
        world
    }

    fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    fn fault_hit(fault: Fault) -> ChaosEvent {
        ChaosEvent::FaultHit(fault)
    }

    fn start(&self) -> Vec<(SimTime, ChaosEvent)> {
        let mut events: Vec<(SimTime, ChaosEvent)> = (0..self.cfg.clients)
            .map(|c| (SimTime::from_secs(5), ChaosEvent::ClientTick(c)))
            .collect();
        events.push((SimTime::from_secs(1), ChaosEvent::RouterRefresh));
        // Staggered start so the fleet's heartbeats don't all land on
        // the same instant.
        events.extend((0..self.cfg.servers).map(|s| {
            (
                SimTime::from_millis(1_000 + 7 * u64::from(s)),
                ChaosEvent::HeartbeatTick(s),
            )
        }));
        events
    }

    /// Periodic events stop at `end`; whatever remains is in-flight
    /// requests and timers draining against a healthy fleet.
    fn drains_after_end() -> bool {
        true
    }

    fn finish(mut self) -> ChaosReport {
        self.finalize();
        let converged = self.cp.fully_placed() && self.cp.in_flight_total() == 0;
        self.stats.ha = self.cp.stats();
        let unplaced = self.cp.unplaced().len();
        self.stats.initial_minisms = self
            .kernel
            .plan
            .iter()
            .filter_map(|(_, f)| match f {
                Fault::MiniSmCrash(m) => Some(*m),
                _ => None,
            })
            .collect::<BTreeSet<u32>>()
            .len();
        Report::new(self.stats, &self.kernel, converged, unplaced)
    }

    fn summary(stats: &ChaosStats) -> String {
        format!(
            "served={} fences={} partitions={}",
            stats.served, stats.self_fences, stats.net_partitions
        )
    }
}

/// Outcome of one chaos run — everything the acceptance checks need.
pub type ChaosReport = Report<ChaosStats>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_bootstraps_fully_placed() {
        let mut w = ChaosWorld::build(ChaosConfig::covering(1), None);
        // Initial placement happens synchronously at deploy; commands
        // are still in flight but every shard has an assignment.
        assert!(w.cp.fully_placed(), "unplaced: {:?}", w.cp.unplaced());
        assert!(w.cp.running_minisms().len() >= 2, "want several mini-SMs");
        assert_eq!(w.router.len(), w.cfg.shards as usize);
    }

    #[test]
    fn plan_targets_every_initial_minism() {
        let w = ChaosWorld::build(ChaosConfig::covering(7), None);
        let targeted: BTreeSet<u32> = w
            .kernel
            .plan
            .iter()
            .filter_map(|(_, f)| match f {
                Fault::MiniSmCrash(m) => Some(*m),
                _ => None,
            })
            .collect();
        let running: BTreeSet<u32> = w.cp.running_minisms().iter().map(|m| m.raw()).collect();
        assert_eq!(targeted, running, "dense ids let the plan cover all");
    }

    #[test]
    fn dst_profile_plans_inject_their_net_faults() {
        let w = ChaosWorld::build(ChaosConfig::dst(3, FaultProfile::AsymPartition), None);
        let parts = w
            .kernel
            .plan
            .iter()
            .filter(|(_, f)| matches!(f, Fault::PartitionStart(p) if p.asym))
            .count();
        assert!(parts >= 1, "asym profile must schedule asym partitions");
    }

    #[test]
    fn sym_partition_run_self_fences_and_stays_safe() {
        // One full DST run under symmetric partitions: servers behind
        // the partition must self-fence before ZK expires their
        // sessions, and the oracle must find nothing.
        let r = ChaosWorld::run(ChaosConfig::dst(5, FaultProfile::SymPartition));
        assert!(r.net.blocked > 0, "partition must block real traffic");
        assert!(r.stats.net_partitions >= 1);
        assert!(
            r.stats.self_fences >= 1,
            "islanded servers must self-fence: {:?}",
            r.stats
        );
        assert!(
            r.stats.zk_expiries >= 1,
            "ZK must expire silent sessions: {:?}",
            r.stats
        );
        assert_eq!(
            r.total_violations, 0,
            "oracle must stay clean: {:?}",
            r.violations
        );
        assert!(r.converged, "{} unplaced", r.unplaced);
        assert_eq!(r.stats.dropped, 0, "{:?}", r.stats);
    }
}
