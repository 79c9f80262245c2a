//! The real stack in one process, and the single-threaded bench loop that
//! plays the network, the clients and the clock.
//!
//! The chain: the `Orchestrator` emits RPCs; the bench applies each
//! one to a `KvServer` host with `ServerRpc::dispatch` and feeds the
//! result back through `rpc_acked` / `rpc_failed`. Every map change is
//! built with `current_map`, handed to `DiscoveryService::publish`, and
//! installed into each client's `ConcurrentRouter` once the publish's
//! delivery delay has passed on the bench's logical clock. A client
//! request goes `RouterHandle::route` → `KvServer::admit` (following
//! §4.3 forward hops) → `get` / `put`.
//!
//! The logical clock advances by [`RPC_TICK_US`] per delivered RPC, so
//! installs lag the orchestrator and requests meet prepare-drop and
//! tombstone hosts and stale maps, as clients of a real deployment do.

use crate::trace::{Kind, Samples, Tracer};
use sm_allocator::{AllocConfig, MoveCaps};
use sm_apps::{AppResponse, ExternalStore, KvServer};
use sm_core::orchestrator::OrchStats;
use sm_core::{OrchCommand, Orchestrator, OrchestratorConfig, ServerRpc};
use sm_routing::{ConcurrentRouter, DiscoveryService, RouterHandle};
use sm_sim::{SimDuration, SimRng};
use sm_types::{
    AppId, AppKey, AppPolicy, LoadVector, Location, MachineId, Metric, RegionId, ServerId, ShardId,
    ShardMap, ShardingSpec,
};
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// Logical microseconds that pass per delivered RPC.
pub const RPC_TICK_US: u64 = 100;
/// Discovery tree per-hop delay, in logical microseconds.
const HOP_DELAY_US: u64 = 1_000;
/// Map changes within this window coalesce into one publish, as the
/// simulation harness debounces them.
const MAP_DEBOUNCE_US: u64 = 2_000;
/// Share of requests that are puts, in percent.
const PUT_PERCENT: u64 = 10;
/// Attempts per request; every retry first waits for a newer map.
const MAX_ATTEMPTS: u32 = 4;
/// Forward hops one attempt may follow.
const MAX_HOPS: u32 = 4;
/// World events (RPC deliveries or installs) one retry may wait for.
const WAIT_STEPS: u32 = 1_000;
/// World events one settle may take before the bench calls it stuck.
const SETTLE_CAP: u64 = 5_000_000;

/// A deliberately broken bench loop, used only by the benchmark's tests to
/// show that the output checks trip.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    None,
    /// Never install maps after bootstrap.
    SkipInstalls,
    /// Lose every `DropShard` delivery after bootstrap (no ack, no nack).
    DropDropShard,
}

/// Sizes and knobs of one stack.
#[derive(Clone, Copy, Debug)]
pub struct StackConfig {
    pub seed: u64,
    pub shards: u64,
    pub keys_per_shard: u64,
    /// Secondaries per shard (0 = primary-only KV).
    pub secondaries: u32,
    /// Client routers (discovery subscribers).
    pub routers: usize,
    pub mutation: Mutation,
}

impl StackConfig {
    /// One server per 50 shards.
    pub fn servers(&self) -> u32 {
        (self.shards / 50).max(4) as u32
    }
}

/// Counts that repeat exactly for a seed and a number of rounds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub requests: u64,
    pub gets: u64,
    pub puts: u64,
    /// Requests not served within the retry budget.
    pub unserved: u64,
    /// Gets that returned another value than the last one written.
    pub wrong: u64,
    pub retries: u64,
    pub forward_hops: u64,
    pub not_mine: u64,
    pub stale_routes: u64,
    pub first_routes: u64,
    pub rpcs: u64,
    pub acks: u64,
    pub nacks: u64,
    pub rebuilds: u64,
    pub publishes: u64,
    pub map_entries: u64,
    pub installs: u64,
    pub moves_completed: u64,
    pub moves_aborted: u64,
    pub promotions: u64,
    pub triggers: u64,
    pub cells: u64,
    pub cells_failed: u64,
    pub dst_served: u64,
    pub net_delivered: u64,
    pub net_dropped: u64,
    /// FNV-1a over every DST cell's oracle verdict, in grid order.
    pub dst_verdicts: u64,
}

impl Counts {
    pub fn failed_requests(&self) -> u64 {
        self.unserved + self.wrong
    }
}

struct Host {
    kv: KvServer,
    up: bool,
}

/// A published map on its way to one router.
struct PendingInstall {
    due_us: u64,
    seq: u64,
    router: usize,
    map: Rc<ShardMap>,
}

impl PartialEq for PendingInstall {
    fn eq(&self, other: &Self) -> bool {
        (self.due_us, self.seq) == (other.due_us, other.seq)
    }
}
impl Eq for PendingInstall {}
impl PartialOrd for PendingInstall {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PendingInstall {
    // Reversed: `BinaryHeap` pops the earliest (due, seq) first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.due_us, other.seq).cmp(&(self.due_us, self.seq))
    }
}

/// A call into a control-plane layer: always timed (its wall time is
/// charged to the current reaction) and traced when tracing is on.
macro_rules! cp {
    ($s:ident, $kind:expr, $call:expr) => {{
        let t0 = Instant::now();
        $s.tracer.begin($kind, $s.event);
        let r = $call;
        $s.tracer.end();
        $s.reaction_ns += t0.elapsed().as_nanos() as u64;
        r
    }};
}

/// A call on the request path: traced when tracing is on, otherwise
/// the bare call (the request as a whole is timed by the bench).
macro_rules! hot {
    ($s:ident, $kind:expr, $call:expr) => {{
        $s.tracer.begin($kind, $s.req_id);
        let r = $call;
        let ns = $s.tracer.end();
        (r, ns)
    }};
}

enum Served {
    Ok,
    Wrong,
    Unserved,
}

/// The stack plus its bench-loop state.
pub struct Stack {
    cfg: StackConfig,
    app: AppId,
    orch: Orchestrator,
    hosts: Vec<Host>,
    discovery: DiscoveryService,
    routers: Vec<Arc<ConcurrentRouter>>,
    handles: Vec<RouterHandle>,
    installed: Vec<Option<Rc<ShardMap>>>,
    /// Map version each client last routed with.
    seen: Vec<u64>,
    queue: VecDeque<(ServerId, ServerRpc)>,
    installs: BinaryHeap<PendingInstall>,
    install_seq: u64,
    /// When the pending (debounced) publish happens, if one is due.
    flush_at: Option<u64>,
    clock_us: u64,
    published: u64,
    net_rng: SimRng,
    key_rng: SimRng,
    keys: Vec<AppKey>,
    shadow: Vec<u64>,
    next_value: u64,
    next_client: usize,
    req_id: u64,
    event: u64,
    /// True once bootstrap is done (mutations act only after it).
    live: bool,
    pub counts: Counts,
    pub tracer: Tracer,
    /// Wall ns of control-plane calls since the last reset.
    pub reaction_ns: u64,
    /// Wall ns spent in output checks (excluded from round times).
    pub check_ns: u64,
    /// Wall ns of every request.
    pub req_samples: Samples,
    /// Wall ns of the requests since the caller last cleared it (one
    /// round's worth).
    pub round_req_ns: Vec<u64>,
    pub req_ns_total: u64,
    /// Route durations of routes that first saw a new map version.
    pub first_route: Samples,
}

impl Stack {
    /// Builds the stack and preloads the external store. Nothing is
    /// placed yet; call [`Stack::bootstrap`].
    pub fn build(cfg: StackConfig, tracer: Tracer) -> Stack {
        let app = AppId(0);
        let spec = Rc::new(ShardingSpec::uniform_u64(cfg.shards));
        let external = Rc::new(RefCell::new(ExternalStore::new()));

        let mut key_rng = SimRng::seed_from(cfg.seed, 1);
        let n_keys = (cfg.shards * cfg.keys_per_shard) as usize;
        let mut raw = BTreeSet::new();
        while raw.len() < n_keys {
            raw.insert(key_rng.next_u64());
        }
        let keys: Vec<AppKey> = raw.into_iter().map(AppKey::from_u64).collect();
        {
            let mut store = external.borrow_mut();
            for k in &keys {
                store.put(k.clone(), value_bytes(0).to_vec());
            }
        }

        let policy = if cfg.secondaries == 0 {
            AppPolicy::primary_only()
        } else {
            AppPolicy::primary_secondary(cfg.secondaries)
        };
        let mut alloc = AllocConfig::new(vec![Metric::ShardCount.id()]);
        alloc.search.seed = cfg.seed;
        let orch_cfg = OrchestratorConfig {
            graceful_migration: true,
            move_caps: MoveCaps {
                max_total: 4096,
                max_per_server: 256,
                max_per_shard: 1,
            },
            alloc,
            skip_cutover_ack: false,
        };
        let mut orch = Orchestrator::new(app, policy, orch_cfg);
        orch.register_shards((0..cfg.shards).map(ShardId));

        let servers = cfg.servers();
        let replicas = f64::from(1 + cfg.secondaries);
        let cap = (cfg.shards as f64 * replicas / f64::from(servers) * 4.0).max(4.0);
        let mut hosts = Vec::with_capacity(servers as usize);
        for id in 0..servers {
            let location = Location {
                region: RegionId(0),
                datacenter: 0,
                rack: id / 2,
                machine: MachineId(id),
            };
            orch.register_server(
                ServerId(id),
                location,
                LoadVector::single(Metric::ShardCount.id(), cap),
            );
            hosts.push(Host {
                kv: KvServer::new(ServerId(id), spec.clone(), external.clone()),
                up: true,
            });
        }

        let mut discovery = DiscoveryService::new(2, SimDuration(HOP_DELAY_US));
        let mut routers = Vec::with_capacity(cfg.routers);
        let mut handles = Vec::with_capacity(cfg.routers);
        for _ in 0..cfg.routers {
            let _subscriber = discovery.subscribe();
            let router = Arc::new(ConcurrentRouter::new());
            router.register_app(app, (*spec).clone());
            handles.push(
                router
                    .handle()
                    .expect("a fresh router has a free reader slot"),
            );
            routers.push(router);
        }

        Stack {
            cfg,
            app,
            orch,
            hosts,
            discovery,
            installed: vec![None; cfg.routers],
            seen: vec![0; cfg.routers],
            routers,
            handles,
            queue: VecDeque::new(),
            installs: BinaryHeap::new(),
            install_seq: 0,
            flush_at: None,
            clock_us: 0,
            published: 0,
            net_rng: SimRng::seed_from(cfg.seed, 2),
            key_rng: SimRng::seed_from(cfg.seed, 3),
            shadow: vec![0; keys.len()],
            keys,
            next_value: 1,
            next_client: 0,
            req_id: 0,
            event: 0,
            live: false,
            counts: Counts::default(),
            tracer,
            reaction_ns: 0,
            check_ns: 0,
            req_samples: Samples::new(1 << 16),
            round_req_ns: Vec::new(),
            req_ns_total: 0,
            first_route: Samples::new(1 << 16),
        }
    }

    /// Places every shard, settles all acks, installs the first map in
    /// every router and checks the result. No client runs yet, so the
    /// map is published once, after placement settles.
    pub fn bootstrap(&mut self) -> Result<(), String> {
        self.event += 1;
        cp!(self, Kind::Emergency, self.orch.run_emergency());
        self.collect();
        self.settle(0)?;
        self.publish();
        self.settle(0)?;
        self.check_settled(&[])?;
        self.live = true;
        Ok(())
    }

    pub fn servers(&self) -> u32 {
        self.hosts.len() as u32
    }

    pub fn server_is_up(&self, s: ServerId) -> bool {
        self.hosts.get(s.raw() as usize).is_some_and(|h| h.up)
    }

    /// Runs `n` closed-loop client requests.
    pub fn run_requests(&mut self, n: u32) {
        for _ in 0..n {
            self.request();
        }
    }

    /// Drains `s` with graceful migration while `k` requests run per
    /// world event, checks the settled state, then returns the upgraded
    /// server. Returns the reaction's control-plane wall ms.
    pub fn drain_and_return(&mut self, s: ServerId, k: u32) -> Result<f64, String> {
        self.begin_reaction();
        cp!(self, Kind::Drain, self.orch.drain_server(s));
        self.collect();
        self.settle(k)?;
        let ms = self.end_reaction();
        let drained = cp!(self, Kind::Commands, self.orch.is_drained(s));
        if !drained {
            return Err(format!("{s} still hosts shards after its drain settled"));
        }
        self.check_settled(&[s])?;
        let idx = s.raw() as usize;
        hot!(self, Kind::Restart, self.hosts[idx].kv.restart());
        cp!(self, Kind::ServerUp, self.orch.drain_finished(s));
        cp!(self, Kind::ServerUp, self.orch.server_up(s));
        Ok(ms)
    }

    /// Loses `s` (its process dies and its ZooKeeper session expires)
    /// while `k` requests run per world event. `dead` lists every server
    /// down after this loss. Returns the reaction's control-plane ms.
    pub fn lose(&mut self, s: ServerId, dead: &[ServerId], k: u32) -> Result<f64, String> {
        self.begin_reaction();
        let idx = s.raw() as usize;
        self.hosts[idx].up = false;
        hot!(self, Kind::Restart, self.hosts[idx].kv.restart());
        cp!(self, Kind::ServerDown, self.orch.server_down(s));
        self.collect();
        self.settle(k)?;
        let ms = self.end_reaction();
        self.check_settled(dead)?;
        Ok(ms)
    }

    /// Brings `dead` back empty and rebalances onto them with the
    /// periodic allocator while `k` requests run per world event.
    pub fn revive_and_rebalance(&mut self, dead: &[ServerId], k: u32) -> Result<(), String> {
        for &s in dead {
            self.hosts[s.raw() as usize].up = true;
            cp!(self, Kind::ServerUp, self.orch.server_up(s));
        }
        self.event += 1;
        cp!(self, Kind::Periodic, self.orch.run_periodic());
        self.collect();
        self.settle(k)?;
        self.check_settled(&[])
    }

    /// Folds the orchestrator's own counters since `base` into `counts`.
    pub fn sync_orch_counts(&mut self, base: &OrchStats) {
        let st = self.orch.stats();
        self.counts.moves_completed = st.completed_moves - base.completed_moves;
        self.counts.moves_aborted = st.aborted_moves - base.aborted_moves;
        self.counts.promotions = st.promotions - base.promotions;
    }

    /// The orchestrator's counters now (a baseline for
    /// [`Stack::sync_orch_counts`]).
    pub fn orch_counts(&self) -> OrchStats {
        self.orch.stats()
    }

    /// The first `n` keys the client stream will request, without
    /// advancing it (for the seed test).
    pub fn peek_key_stream(&self, n: usize) -> Vec<usize> {
        let mut rng = self.key_rng.clone();
        (0..n)
            .map(|_| {
                let k = rng.index(self.keys.len());
                let _put = rng.range_u64(0, 100);
                k
            })
            .collect()
    }

    fn begin_reaction(&mut self) {
        self.event += 1;
        self.counts.triggers += 1;
        self.reaction_ns = 0;
        self.tracer.begin(Kind::Reaction, self.event);
    }

    fn end_reaction(&mut self) -> f64 {
        self.tracer.end();
        self.reaction_ns as f64 / 1e6
    }

    // ---- the world: RPCs, publishes, installs ----

    /// Moves the orchestrator's outbox into the RPC queue and schedules
    /// a debounced publish for map changes (after bootstrap).
    fn collect(&mut self) {
        let cmds = cp!(self, Kind::Commands, self.orch.take_commands());
        for cmd in cmds {
            match cmd {
                OrchCommand::Rpc { server, rpc } => self.queue.push_back((server, rpc)),
                OrchCommand::MapChanged { .. } => {
                    if self.live && self.flush_at.is_none() {
                        self.flush_at = Some(self.clock_us + MAP_DEBOUNCE_US);
                    }
                }
            }
        }
    }

    fn publish(&mut self) {
        let map = cp!(self, Kind::MapBuild, self.orch.current_map());
        let version = map.version;
        self.counts.publishes += 1;
        self.counts.map_entries += map.entries.len() as u64;
        let map = Rc::new(map);
        let deliveries = cp!(
            self,
            Kind::Publish,
            self.discovery
                .publish(self.app, Rc::clone(&map), &mut self.net_rng)
        );
        // A version at or below the stored one is refused; nothing to
        // deliver then.
        let Ok(deliveries) = deliveries else { return };
        self.published = version;
        for (subscriber, delay) in deliveries {
            self.install_seq += 1;
            self.installs.push(PendingInstall {
                due_us: self.clock_us + delay.0,
                seq: self.install_seq,
                router: subscriber.0 as usize,
                map: Rc::clone(&map),
            });
        }
    }

    fn deliver_install(&mut self, pi: PendingInstall) {
        self.clock_us = self.clock_us.max(pi.due_us);
        if self.live && self.cfg.mutation == Mutation::SkipInstalls {
            return;
        }
        let Some(router) = self.routers.get(pi.router).map(Arc::clone) else {
            return;
        };
        let owned = (*pi.map).clone();
        let fresh = cp!(self, Kind::Install, router.install_map(self.app, owned));
        if fresh {
            self.counts.installs += 1;
            self.installed[pi.router] = Some(pi.map);
        }
    }

    fn deliver_rpc(&mut self, server: ServerId, rpc: ServerRpc) {
        self.clock_us += RPC_TICK_US;
        self.counts.rpcs += 1;
        if self.live
            && self.cfg.mutation == Mutation::DropDropShard
            && matches!(rpc, ServerRpc::DropShard { .. })
        {
            return;
        }
        let idx = server.raw() as usize;
        let up = self.hosts.get(idx).is_some_and(|h| h.up);
        let result = if up {
            let rebuild = matches!(
                rpc,
                ServerRpc::AddShard { .. } | ServerRpc::PrepareAddShard { .. }
            );
            let kind = if rebuild {
                self.counts.rebuilds += 1;
                Kind::Rebuild
            } else {
                Kind::Rpc
            };
            cp!(self, kind, rpc.dispatch(&mut self.hosts[idx].kv)).is_ok()
        } else {
            // A dead host refuses the connection: a fast nack.
            false
        };
        if result {
            self.counts.acks += 1;
            cp!(self, Kind::Ack, self.orch.rpc_acked(server, rpc));
        } else {
            self.counts.nacks += 1;
            cp!(self, Kind::Nack, self.orch.rpc_failed(server, rpc));
        }
        self.collect();
    }

    /// Delivers the next world event in logical-time order: a due
    /// install, the debounced publish, or the next queued RPC (ties in
    /// that order). False when idle.
    fn step(&mut self) -> bool {
        let install_at = self.installs.peek().map(|p| p.due_us);
        let rpc_at = (!self.queue.is_empty()).then_some(self.clock_us + RPC_TICK_US);
        let next = [install_at, self.flush_at, rpc_at]
            .into_iter()
            .enumerate()
            .filter_map(|(i, at)| at.map(|t| (t, i)))
            .min();
        match next {
            None => return false,
            Some((_, 0)) => {
                if let Some(pi) = self.installs.pop() {
                    self.deliver_install(pi);
                }
            }
            Some((at, 1)) => {
                self.clock_us = self.clock_us.max(at);
                self.flush_at = None;
                self.publish();
            }
            Some(_) => {
                if let Some((server, rpc)) = self.queue.pop_front() {
                    self.deliver_rpc(server, rpc);
                }
            }
        }
        true
    }

    /// Runs the world until idle, with `k` requests per world event.
    fn settle(&mut self, k: u32) -> Result<(), String> {
        let mut steps = 0u64;
        while self.step() {
            self.run_requests(k);
            steps += 1;
            if steps > SETTLE_CAP {
                return Err(format!(
                    "control plane did not settle in {SETTLE_CAP} events"
                ));
            }
        }
        Ok(())
    }

    // ---- the client ----

    fn request(&mut self) {
        let client = self.next_client;
        self.next_client = (client + 1) % self.handles.len();
        let ki = self.key_rng.index(self.keys.len());
        let is_put = self.key_rng.range_u64(0, 100) < PUT_PERCENT;
        self.req_id += 1;
        self.counts.requests += 1;
        if is_put {
            self.counts.puts += 1;
        } else {
            self.counts.gets += 1;
        }
        let t0 = Instant::now();
        self.tracer.begin(Kind::Request, self.req_id);
        let served = self.serve(client, ki, is_put);
        self.tracer.end();
        let ns = t0.elapsed().as_nanos() as u64;
        self.req_samples.push(ns);
        self.round_req_ns.push(ns);
        self.req_ns_total += ns;
        match served {
            Served::Ok => {}
            Served::Wrong => self.counts.wrong += 1,
            Served::Unserved => self.counts.unserved += 1,
        }
    }

    fn serve(&mut self, client: usize, ki: usize, is_put: bool) -> Served {
        for attempt in 0..MAX_ATTEMPTS {
            if attempt > 0 {
                self.counts.retries += 1;
                if !self.wait_for_map(client) {
                    return Served::Unserved;
                }
            }
            let (route, route_ns) = hot!(
                self,
                Kind::Route,
                self.handles[client].route(self.app, &self.keys[ki])
            );
            let Ok(dec) = route else { continue };
            if dec.map_version != self.seen[client] {
                self.seen[client] = dec.map_version;
                self.counts.first_routes += 1;
                if self.tracer.on() {
                    self.first_route.push(route_ns);
                }
            }
            if dec.map_version < self.published {
                self.counts.stale_routes += 1;
            }
            let mut server = dec.server;
            let mut forwarded = false;
            for _ in 0..MAX_HOPS {
                let idx = server.raw() as usize;
                if !self.hosts.get(idx).is_some_and(|h| h.up) {
                    // Connection refused: retry after a newer map.
                    break;
                }
                let (resp, _) = hot!(
                    self,
                    Kind::Admit,
                    self.hosts[idx].kv.admit(dec.shard, forwarded)
                );
                match resp {
                    AppResponse::Serve => {
                        return if is_put {
                            let v = self.next_value;
                            self.next_value += 1;
                            let key = self.keys[ki].clone();
                            let value = value_bytes(v).to_vec();
                            hot!(
                                self,
                                Kind::Put,
                                self.hosts[idx].kv.put(dec.shard, key, value)
                            );
                            self.shadow[ki] = v;
                            Served::Ok
                        } else {
                            let (got, _) = hot!(
                                self,
                                Kind::Get,
                                self.hosts[idx].kv.get(dec.shard, &self.keys[ki])
                            );
                            if got.as_deref() == Some(&value_bytes(self.shadow[ki])[..]) {
                                Served::Ok
                            } else {
                                Served::Wrong
                            }
                        };
                    }
                    AppResponse::Forward(target) => {
                        self.counts.forward_hops += 1;
                        server = target;
                        forwarded = true;
                    }
                    AppResponse::NotMine => {
                        self.counts.not_mine += 1;
                        break;
                    }
                }
            }
        }
        Served::Unserved
    }

    /// A retrying client waits for its router to install a newer map,
    /// while the world moves on. False when the world went idle (or the
    /// wait ran out) without one.
    fn wait_for_map(&mut self, client: usize) -> bool {
        let before = self.installed_version(client);
        for _ in 0..WAIT_STEPS {
            if !self.step() {
                return false;
            }
            if self.installed_version(client) > before {
                return true;
            }
        }
        false
    }

    fn installed_version(&self, router: usize) -> u64 {
        self.installed
            .get(router)
            .and_then(|m| m.as_ref())
            .map_or(0, |m| m.version)
    }

    // ---- output checks ----

    /// Checks a settled stack: nothing in flight, every router routes
    /// with the latest map, every shard has exactly one primary in each
    /// router's map and that host admits it, and no replica sits on a
    /// server in `gone` (dead or drained) or on a host that is down.
    pub fn check_settled(&mut self, gone: &[ServerId]) -> Result<(), String> {
        let t0 = Instant::now();
        self.tracer.begin(Kind::Check, self.event);
        let r = self.check_inner(gone);
        self.tracer.end();
        self.check_ns += t0.elapsed().as_nanos() as u64;
        r
    }

    fn check_inner(&mut self, gone: &[ServerId]) -> Result<(), String> {
        if !self.queue.is_empty() || !self.installs.is_empty() || self.flush_at.is_some() {
            return Err("world not idle at a settle check".into());
        }
        let in_flight = self.orch.in_flight_migrations();
        if in_flight != 0 {
            return Err(format!(
                "{in_flight} migrations still in flight after settle"
            ));
        }
        for r in 0..self.handles.len() {
            let routed = self.handles[r].map_version(self.app);
            if routed != self.published {
                return Err(format!(
                    "router {r} routes with map v{routed}, latest published is v{}",
                    self.published
                ));
            }
            let Some(map) = self.installed[r].clone() else {
                return Err(format!("router {r} has no map installed"));
            };
            for shard in (0..self.cfg.shards).map(ShardId) {
                let Some(entry) = map.entry(shard) else {
                    return Err(format!("router {r} map v{} lacks {shard}", map.version));
                };
                let primaries = entry
                    .replicas
                    .iter()
                    .filter(|x| x.role.is_primary())
                    .count();
                if primaries != 1 {
                    return Err(format!(
                        "router {r} map v{}: {shard} has {primaries} primaries",
                        map.version
                    ));
                }
                let Some(primary) = entry.primary() else {
                    return Err(format!("router {r}: {shard} has no primary"));
                };
                let admits = self
                    .hosts
                    .get(primary.raw() as usize)
                    .is_some_and(|h| h.up && h.kv.admit(shard, false) == AppResponse::Serve);
                if !admits {
                    return Err(format!(
                        "router {r}: primary {primary} of {shard} does not admit it"
                    ));
                }
                let routed_to = self.handles[r]
                    .route_shard(self.app, shard)
                    .map(|d| d.server);
                if routed_to != Ok(primary) {
                    return Err(format!(
                        "router {r} routes {shard} to {routed_to:?}, map primary is {primary}"
                    ));
                }
            }
        }
        for (shard, replica) in self.orch.assignment().iter() {
            if gone.contains(&replica.server) || !self.server_is_up(replica.server) {
                return Err(format!(
                    "{shard} has a replica on removed server {}",
                    replica.server
                ));
            }
        }
        for &s in gone {
            let hosted = self
                .hosts
                .get(s.raw() as usize)
                .map_or(0, |h| h.kv.shard_count());
            if hosted != 0 {
                return Err(format!("removed server {s} still hosts {hosted} shards"));
            }
        }
        Ok(())
    }
}

/// The stored encoding of write number `v`.
fn value_bytes(v: u64) -> [u8; 8] {
    v.to_le_bytes()
}
