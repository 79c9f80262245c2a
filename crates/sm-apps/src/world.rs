//! The fault-world kernel: what the chaos, reconfiguration and
//! skew-storm worlds share.
//!
//! Each of [`crate::chaos`], [`crate::reconfig`] and [`crate::split`] is
//! a seeded discrete-event world that runs a fault plan against a
//! control plane and judges the run with an invariant oracle. They
//! differ in their hosts, control plane and oracle checks. Everything
//! else lives here once — the shared [`Kernel`] state, the
//! [`RpcTransport`], the [`FaultWorld`] contract with its generic run,
//! swarm, shrink and reproducer path, and the [`Report`] — in the shape
//! of FoundationDB-style simulators: one simulator, with the nodes and
//! their reactions as plug-ins.

use sm_core::ServerRpc;
use sm_sim::faults::{Fault, FaultProfile};
use sm_sim::net::{Endpoint, NetStats, PartitionSpec, SimNet};
use sm_sim::oracle::{InvariantKind, Oracle, OracleViolation};
use sm_sim::{Ctx, LatencyModel, QueueKind, SimDuration, SimTime, Simulation, TraceLog, World};
use sm_types::{Location, MachineId, RegionId, ServerId};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The control plane gives up on an unanswered RPC after this long and
/// treats it as failed.
pub const RPC_TIMEOUT: SimDuration = SimDuration::from_secs(2);

/// The transport's share of a world's event alphabet.
#[derive(Debug)]
pub enum RpcEvent {
    /// A control-plane RPC (or one duplicated copy of it) reaches its
    /// server.
    Send {
        /// Correlation id for timeout and duplicate handling.
        id: u32,
        /// Target server.
        server: ServerId,
        /// The RPC payload.
        rpc: ServerRpc,
    },
    /// The server's answer reaches the control plane.
    Result {
        /// Correlation id; late or duplicate results are ignored.
        id: u32,
        /// Whether the server applied the RPC.
        ok: bool,
    },
    /// The control plane gives up on an unanswered RPC.
    Timeout {
        /// Correlation id; a no-op if the result already arrived.
        id: u32,
    },
}

/// Failed control-plane RPCs, as the transport saw them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RpcStats {
    /// RPCs a server answered with a failure (dead and self-fenced
    /// hosts included).
    pub nacks: u64,
    /// RPCs that timed out unanswered.
    pub timeouts: u64,
}

/// A host as the RPC transport sees it when a request lands.
pub(crate) trait RpcHost {
    /// The server process is running.
    fn up(&self) -> bool;
    /// The server wiped itself under §3.2 and refuses every grant until
    /// it re-registers.
    fn fenced(&self) -> bool {
        false
    }

    /// Whether the server would accept work right now, by its own
    /// lights.
    fn serving(&self) -> bool {
        self.up() && !self.fenced()
    }
}

/// Correlation-id RPC transport between a world's control plane and
/// its hosts.
///
/// Dead-host rule: a dead or self-fenced host answers every request
/// with a nack (the connection attempt fails fast, and the failure
/// travels back through the net like any other message). Only a lost
/// message or a partition leaves the control plane waiting for
/// [`RPC_TIMEOUT`].
#[derive(Debug, Default)]
pub struct RpcTransport {
    /// Last correlation id issued. 32 bits keep an [`RpcEvent`] at 48
    /// bytes, so a world's event enum holding one stays at 56 bytes; a
    /// run issues far fewer than 2^32 RPCs.
    next_id: u32,
    /// Correlation ids of RPCs awaiting an answer.
    outstanding: BTreeMap<u32, (ServerId, ServerRpc)>,
    /// Correlation ids already executed at a server, with the recorded
    /// outcome. A duplicated request copy answers from here instead of
    /// re-dispatching (exactly-once apply per command attempt): a late
    /// duplicate of an `AddShard` landing after a later `DropShard`
    /// would otherwise re-create hosting state the control plane
    /// believes is gone.
    applied: BTreeMap<u32, bool>,
    stats: RpcStats,
}

impl RpcTransport {
    /// Nacks and timeouts handed to the control plane so far.
    pub(crate) fn stats(&self) -> RpcStats {
        self.stats
    }

    /// Sends `rpc` to `server` through the net under a fresh
    /// correlation id and arms its give-up timer.
    pub(crate) fn send<E: From<RpcEvent>>(
        &mut self,
        net: &mut SimNet,
        ctx: &mut Ctx<'_, E>,
        server: ServerId,
        rpc: ServerRpc,
    ) {
        self.next_id = self
            .next_id
            .checked_add(1)
            .expect("a run issues fewer than 2^32 RPCs");
        let id = self.next_id;
        self.outstanding.insert(id, (server, rpc));
        let t = net.transmit(Endpoint::ControlPlane, Endpoint::Server(server.raw()));
        for d in t.copies {
            ctx.schedule_in(d, RpcEvent::Send { id, server, rpc }.into());
        }
        ctx.schedule_in(RPC_TIMEOUT, RpcEvent::Timeout { id }.into());
    }

    /// Handles one transport event. A request landing at a host is
    /// applied through `apply` (at most once per id) and answered back
    /// through the net. What the control plane learns — an answer, or
    /// the timeout standing in for one — is returned exactly once per
    /// id, as `(server, rpc, acked)`.
    pub(crate) fn handle<E: From<RpcEvent>, H: RpcHost>(
        &mut self,
        event: RpcEvent,
        net: &mut SimNet,
        ctx: &mut Ctx<'_, E>,
        hosts: &mut BTreeMap<ServerId, H>,
        apply: impl FnOnce(&mut H, ServerRpc) -> bool,
    ) -> Option<(ServerId, ServerRpc, bool)> {
        match event {
            RpcEvent::Send { id, server, rpc } => {
                let ok = match self.applied.get(&id) {
                    Some(&ok) => ok,
                    None => {
                        let ok = match hosts.get_mut(&server) {
                            Some(h) if h.serving() => apply(h, rpc),
                            _ => false,
                        };
                        self.applied.insert(id, ok);
                        if ok {
                            // The host's state just changed — the
                            // instant an invariant can first break.
                            ctx.state_changed();
                        }
                        ok
                    }
                };
                let t = net.transmit(Endpoint::Server(server.raw()), Endpoint::ControlPlane);
                for d in t.copies {
                    ctx.schedule_in(d, RpcEvent::Result { id, ok }.into());
                }
                None
            }
            RpcEvent::Result { id, ok } => {
                // None: a duplicate copy, or a result the timeout reaped.
                let (server, rpc) = self.outstanding.remove(&id)?;
                self.stats.nacks += u64::from(!ok);
                Some((server, rpc, ok))
            }
            RpcEvent::Timeout { id } => {
                // None: answered in time.
                let (server, rpc) = self.outstanding.remove(&id)?;
                self.stats.timeouts += 1;
                Some((server, rpc, false))
            }
        }
    }
}

/// The state every fault world shares: the simulated network, the
/// control-plane RPC transport over it, the invariant oracle, the
/// fault plan being executed and the recorded trace.
#[derive(Debug)]
pub struct Kernel {
    /// The network every inter-process message crosses.
    pub net: SimNet,
    /// Control-plane RPCs over `net`.
    pub rpc: RpcTransport,
    /// The invariant oracle judging the run.
    pub oracle: Oracle,
    /// The fault plan being executed, time-sorted.
    pub plan: Vec<(SimTime, Fault)>,
    /// Recorded time series.
    pub trace: TraceLog,
}

impl Kernel {
    /// A run over a healthy single-region network with `rpc_latency`
    /// one-way delay (plus jitter), its draws seeded by `seed`.
    pub(crate) fn new(seed: u64, rpc_latency: SimDuration, plan: Vec<(SimTime, Fault)>) -> Self {
        let ms = rpc_latency.as_millis_f64();
        Self {
            net: SimNet::new(LatencyModel::uniform(1, ms, ms), seed),
            rpc: RpcTransport::default(),
            oracle: Oracle::new(),
            plan,
            trace: TraceLog::new(),
        }
    }
}

/// Where server `s` lives: its own rack and machine in a single-region
/// fleet.
pub(crate) fn loc(s: u32) -> Location {
    Location {
        region: RegionId(0),
        datacenter: 0,
        rack: s,
        machine: MachineId(s),
    }
}

/// One cell of a swarm grid: a world's compact DST shape at one seed
/// and fault profile, with the world's documented mutation on or off.
/// A reproducer records the cell; [`FaultWorld::config`] rebuilds the
/// full config from it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DstConfig {
    /// Seed for the run (traffic, plan, and network draws).
    pub seed: u64,
    /// Fault-plan profile to derive the plan from.
    pub profile: FaultProfile,
    /// Turns on the world's documented mutation ([`FaultWorld::MUTATION`]),
    /// used only to prove the oracle catches the resulting violations.
    pub mutate: bool,
}

impl DstConfig {
    /// A healthy (mutation-free) cell.
    pub fn new(seed: u64, profile: FaultProfile) -> Self {
        Self {
            seed,
            profile,
            mutate: false,
        }
    }
}

/// Outcome of one fault-world run; `S` is the world's own counters.
#[derive(Debug)]
pub struct Report<S> {
    /// The world's own counters.
    pub stats: S,
    /// Network delivery counters.
    pub net: NetStats,
    /// Control-plane RPC nacks and timeouts.
    pub rpc: RpcStats,
    /// Invariant violations the oracle observed (empty on a safe run).
    pub violations: Vec<OracleViolation>,
    /// Total violations, uncapped (the list above is capped).
    pub total_violations: u64,
    /// True when, at the end, every shard had a primary and nothing was
    /// stuck mid-operation.
    pub converged: bool,
    /// Shards lacking a primary at the end (diagnostics; 0 expected).
    pub unplaced: usize,
    /// The fault plan the run executed (replay/shrink input).
    pub plan: Vec<(SimTime, Fault)>,
    /// The run's time-series trace, rendered as CSV (5 s buckets) —
    /// byte-identical across reruns of the same seed and plan.
    pub trace_csv: String,
}

impl<S> Report<S> {
    /// Assembles the report of a finished world from its kernel and
    /// its own counters.
    pub(crate) fn new(stats: S, kernel: &Kernel, converged: bool, unplaced: usize) -> Self {
        Self {
            stats,
            net: kernel.net.stats(),
            rpc: kernel.rpc.stats(),
            violations: kernel.oracle.violations().to_vec(),
            total_violations: kernel.oracle.total_violations(),
            converged,
            unplaced,
            plan: kernel.plan.clone(),
            trace_csv: kernel.trace.to_csv(5),
        }
    }

    /// True when the oracle observed at least one invariant violation.
    pub fn failed(&self) -> bool {
        self.total_violations > 0
    }

    /// The distinct invariant kinds violated.
    pub fn violated_kinds(&self) -> BTreeSet<InvariantKind> {
        self.violations.iter().map(|v| v.kind).collect()
    }

    /// A canonical one-line-per-violation rendering — two runs have
    /// identical oracle verdicts iff these strings are equal.
    pub fn verdict(&self) -> String {
        let mut out = format!("total={}\n", self.total_violations);
        for v in &self.violations {
            out.push_str(&format!("{} {} {}\n", v.at.0, v.kind.name(), v.detail));
        }
        out
    }
}

/// A seeded world that runs a fault plan under an invariant oracle.
///
/// A world supplies its config, seed and end, kernel (fault plan
/// included), start-up events and final audits; the provided methods
/// run it, swarm it, shrink its failures and encode its reproducers the
/// same way for every world.
pub trait FaultWorld: World + Sized {
    /// The world's run shape.
    type Config: Copy + Debug + Send + Sync;
    /// The world's own counters, carried in its [`Report`].
    type Stats: Debug + Send;
    /// The world's name in reproducer documents and the swarm CLI.
    const NAME: &'static str;
    /// The reproducer key of the world's documented mutation.
    const MUTATION: &'static str;

    /// The compact DST shape for one swarm cell.
    fn config(cell: DstConfig) -> Self::Config;
    /// The run's seed (engine and network draws) and when periodic work
    /// stops; queued work after it is drained or abandoned (see
    /// [`FaultWorld::drains_after_end`]).
    fn seed_and_end(cfg: &Self::Config) -> (u64, SimTime);
    /// Builds the world; `plan` replaces the seed-derived fault plan
    /// (the replay and shrink path).
    fn build(cfg: Self::Config, plan: Option<Vec<(SimTime, Fault)>>) -> Self;
    /// The world's shared state, fault plan included.
    fn kernel(&self) -> &Kernel;
    /// The event that fires one fault-plan entry.
    fn fault_hit(fault: Fault) -> Self::Event;
    /// Clients, tickers and pacemakers to schedule before the run.
    fn start(&self) -> Vec<(SimTime, Self::Event)>;
    /// Runs the quiescence audits and reports.
    fn finish(self) -> Report<Self::Stats>;
    /// One line of the counters the swarm prints for a clean cell.
    fn summary(stats: &Self::Stats) -> String;

    /// Whether events still queued at `end` run before the final audits
    /// (in-flight requests draining against a healthy fleet) instead of
    /// being abandoned.
    fn drains_after_end() -> bool {
        false
    }

    /// Runs one experiment with its seed-derived fault plan.
    fn run(cfg: Self::Config) -> Report<Self::Stats> {
        Self::run_queued(cfg, QueueKind::default())
    }

    /// [`FaultWorld::run`] on an explicit engine queue — the
    /// differential-testing entry point (both kinds must produce
    /// byte-identical reports).
    fn run_queued(cfg: Self::Config, kind: QueueKind) -> Report<Self::Stats> {
        run_world::<Self>(cfg, None, kind)
    }

    /// Runs one experiment with an explicit, time-sorted fault plan —
    /// the replay and shrink path.
    fn run_with_plan(cfg: Self::Config, plan: Vec<(SimTime, Fault)>) -> Report<Self::Stats> {
        run_world::<Self>(cfg, Some(plan), QueueKind::default())
    }

    /// Runs every config and returns reports in input order.
    ///
    /// Each run is single-threaded and pure, so `threads` changes only
    /// wall-clock time: report `i` is always the run of `cfgs[i]`,
    /// byte-identical whether `threads` is 1 or 16.
    fn swarm(cfgs: &[Self::Config], threads: usize) -> Vec<Report<Self::Stats>> {
        if threads <= 1 || cfgs.len() <= 1 {
            return cfgs.iter().map(|&cfg| Self::run(cfg)).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<Report<Self::Stats>>>> =
            Mutex::new((0..cfgs.len()).map(|_| None).collect());
        std::thread::scope(|scope| {
            for _ in 0..threads.min(cfgs.len()) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&cfg) = cfgs.get(i) else { break };
                    let report = Self::run(cfg);
                    slots.lock().expect("no worker panics holding the slots")[i] = Some(report);
                });
            }
        });
        slots
            .into_inner()
            .expect("no worker panics holding the slots")
            .into_iter()
            .map(|r| r.expect("every job index was claimed by exactly one worker"))
            .collect()
    }

    /// Shrinks a failing fault plan to a minimal reproducer through
    /// [`shrink_plan`]: a candidate counts as still failing when it
    /// violates one of the originally observed invariant kinds, which
    /// keeps the shrinker from wandering onto an unrelated failure.
    /// Returns `None` when the plan does not fail.
    fn shrink(cfg: Self::Config, plan: &[(SimTime, Fault)]) -> Option<Vec<(SimTime, Fault)>> {
        let kinds = Self::run_with_plan(cfg, plan.to_vec()).violated_kinds();
        if kinds.is_empty() {
            return None;
        }
        shrink_plan(plan, |candidate| {
            Self::run_with_plan(cfg, candidate.to_vec())
                .violations
                .iter()
                .any(|v| kinds.contains(&v.kind))
        })
    }

    /// Serializes a reproducer — the world, the grid cell and its
    /// (possibly shrunk) fault plan — as a self-contained JSON document.
    fn repro_to_json(cell: DstConfig, plan: &[(SimTime, Fault)]) -> String {
        let events: Vec<String> = plan
            .iter()
            .map(|(at, f)| format!("    {{\"at_us\":{},\"fault\":{}}}", at.0, fault_to_json(*f)))
            .collect();
        format!(
            "{{\n  \"world\": \"{}\",\n  \"seed\": {},\n  \"profile\": \"{}\",\n  \"{}\": {},\n  \"plan\": [\n{}\n  ]\n}}\n",
            Self::NAME,
            cell.seed,
            cell.profile.name(),
            Self::MUTATION,
            cell.mutate,
            events.join(",\n")
        )
    }

    /// Parses a reproducer produced by [`FaultWorld::repro_to_json`]
    /// for this world. A document without `"world"` is a chaos
    /// reproducer (they predate the field). Returns `None` on any
    /// malformed input or another world's document (never panics).
    fn repro_from_json(text: &str) -> Option<(DstConfig, Vec<(SimTime, Fault)>)> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let doc = parser.value()?;
        let world = match doc.get("world") {
            Some(w) => w.as_str()?,
            None => "chaos",
        };
        if world != Self::NAME {
            return None;
        }
        let cell = DstConfig {
            seed: doc.get("seed")?.as_u64()?,
            profile: FaultProfile::parse(doc.get("profile")?.as_str()?)?,
            mutate: doc.get(Self::MUTATION)?.as_bool()?,
        };
        let Json::Arr(events) = doc.get("plan")? else {
            return None;
        };
        let mut plan = Vec::with_capacity(events.len());
        for e in events {
            let at = SimTime(e.get("at_us")?.as_u64()?);
            plan.push((at, fault_from_json(e.get("fault")?)?));
        }
        Some((cell, plan))
    }
}

fn run_world<W: FaultWorld>(
    cfg: W::Config,
    plan: Option<Vec<(SimTime, Fault)>>,
    kind: QueueKind,
) -> Report<W::Stats> {
    let (seed, end) = W::seed_and_end(&cfg);
    let world = W::build(cfg, plan);
    let mut events: Vec<(SimTime, W::Event)> = world
        .kernel()
        .plan
        .iter()
        .map(|&(at, fault)| (at, W::fault_hit(fault)))
        .collect();
    events.extend(world.start());
    let mut sim = Simulation::with_queue(world, seed, kind);
    for (at, event) in events {
        sim.schedule_at(at, event);
    }
    sim.run_until(end);
    if W::drains_after_end() {
        sim.run();
    }
    sim.into_world().finish()
}

/// A fault and the recovery that undoes it, kept atomic during
/// shrinking so every candidate plan stays well-formed (no unhealed
/// partition, no permanently-expired session).
type FaultGroup = Vec<(SimTime, Fault)>;

/// Splits a time-sorted plan into atomic hit+recovery groups. Each hit
/// is paired with the *first* later recovery of the matching kind (and
/// target index, for per-server and per-mini-SM faults); anything left
/// unpaired becomes a singleton group.
fn group_plan(plan: &[(SimTime, Fault)]) -> Vec<FaultGroup> {
    let mut used = vec![false; plan.len()];
    let mut groups = Vec::new();
    for i in 0..plan.len() {
        if used[i] {
            continue;
        }
        used[i] = true;
        let (at, fault) = plan[i];
        let recovery = |g: &Fault| match (fault, g) {
            (Fault::ServerCrash(a), Fault::ServerRestart(b)) => a == *b,
            (Fault::SessionExpiry(a), Fault::SessionRestore(b)) => a == *b,
            (Fault::MiniSmCrash(a), Fault::MiniSmRestart(b)) => a == *b,
            (Fault::PartitionStart(_), Fault::PartitionHeal) => true,
            (Fault::NetDegrade { .. }, Fault::NetHeal) => true,
            _ => false,
        };
        let mut group = vec![(at, fault)];
        if fault.is_hit() {
            if let Some(j) = (i + 1..plan.len()).find(|&j| !used[j] && recovery(&plan[j].1)) {
                used[j] = true;
                group.push(plan[j]);
            }
        }
        groups.push(group);
    }
    groups
}

fn flatten(groups: &[FaultGroup]) -> Vec<(SimTime, Fault)> {
    let mut plan: Vec<(SimTime, Fault)> = groups.iter().flatten().copied().collect();
    plan.sort_by_key(|(at, _)| *at);
    plan
}

/// Shrinks a failing fault plan to a minimal reproducer, driven
/// entirely by the caller's `still_fails` predicate.
///
/// Stage 1 is ddmin-style group removal: fault+recovery pairs are
/// removed in binary-search-sized chunks, keeping any candidate the
/// predicate still accepts, down to chunks of a single group. Stage 2
/// narrows time windows: for each surviving pair, the recovery time is
/// binary-searched toward the fault (to 1 s resolution), so the
/// reproducer also tells you *how long* the fault must last.
///
/// `still_fails` must return true for a candidate plan that still
/// reproduces the original failure; the shrinker never assumes
/// monotonicity, it only keeps candidates the predicate accepts.
/// Returns `None` when the predicate rejects the full plan (nothing to
/// shrink).
pub fn shrink_plan(
    plan: &[(SimTime, Fault)],
    mut still_fails: impl FnMut(&[(SimTime, Fault)]) -> bool,
) -> Option<Vec<(SimTime, Fault)>> {
    if !still_fails(plan) {
        return None;
    }

    // Stage 1: ddmin over atomic groups.
    let mut groups = group_plan(plan);
    let mut chunks = 2usize;
    while groups.len() >= 2 {
        let chunk_len = groups.len().div_ceil(chunks);
        let mut reduced = false;
        for start in (0..groups.len()).step_by(chunk_len) {
            let candidate: Vec<FaultGroup> = groups
                .iter()
                .enumerate()
                .filter(|(i, _)| *i < start || *i >= start + chunk_len)
                .map(|(_, g)| g.clone())
                .collect();
            if candidate.is_empty() {
                continue;
            }
            if still_fails(&flatten(&candidate)) {
                groups = candidate;
                chunks = chunks.saturating_sub(1).max(2);
                reduced = true;
                break;
            }
        }
        if !reduced {
            if chunks >= groups.len() {
                break;
            }
            chunks = (chunks * 2).min(groups.len());
        }
    }

    // Stage 2: narrow each pair's window by moving the recovery
    // earlier while the plan still fails.
    let resolution = 1_000_000; // 1 s in µs
    for gi in 0..groups.len() {
        if groups[gi].len() != 2 {
            continue;
        }
        let hit = groups[gi][0].0 .0;
        let mut lo = hit; // known-passing boundary (zero-length fault)
        let mut hi = groups[gi][1].0 .0; // known-failing recovery time
        while hi - lo > resolution {
            let mid = lo + (hi - lo) / 2;
            let mut candidate = groups.clone();
            candidate[gi][1].0 = SimTime(mid);
            if still_fails(&flatten(&candidate)) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        groups[gi][1].0 = SimTime(hi);
    }

    Some(flatten(&groups))
}

// ---------------------------------------------------------------------
// Replayable reproducer JSON (hand-rolled: the workspace is std-only).
// ---------------------------------------------------------------------

fn fault_to_json(fault: Fault) -> String {
    let mut fields = format!("\"kind\":\"{}\"", fault.label());
    match fault {
        Fault::ServerCrash(i)
        | Fault::ServerRestart(i)
        | Fault::SessionExpiry(i)
        | Fault::SessionRestore(i)
        | Fault::MiniSmCrash(i)
        | Fault::MiniSmRestart(i) => fields.push_str(&format!(",\"id\":{i}")),
        Fault::PartitionStart(p) => fields.push_str(&format!(
            ",\"lo\":{},\"len\":{},\"asym\":{}",
            p.lo, p.len, p.asym
        )),
        Fault::NetDegrade { drop_pct, dup_pct } => {
            fields.push_str(&format!(",\"drop_pct\":{drop_pct},\"dup_pct\":{dup_pct}"))
        }
        Fault::PartitionHeal | Fault::NetHeal => {}
    }
    format!("{{{fields}}}")
}

/// A minimal JSON value — just what reproducer documents use: no
/// null, no escapes, no fractional or negative numbers.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Bool(bool),
    Num(u64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Option<()> {
        self.ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Some(())
        } else {
            None
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.bytes.get(self.pos).copied()
    }

    fn lit(&mut self, s: &str) -> Option<()> {
        self.ws();
        if self.bytes[self.pos..].starts_with(s.as_bytes()) {
            self.pos += s.len();
            Some(())
        } else {
            None
        }
    }

    fn string(&mut self) -> Option<String> {
        self.eat(b'"')?;
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b'"' {
                let s = std::str::from_utf8(&self.bytes[start..self.pos]).ok()?;
                // Reproducer strings are plain identifiers; escapes are
                // out of scope for this parser.
                if s.contains('\\') {
                    return None;
                }
                self.pos += 1;
                return Some(s.to_string());
            }
            self.pos += 1;
        }
        None
    }

    fn number(&mut self) -> Option<u64> {
        self.ws();
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()?
            .parse()
            .ok()
    }

    /// Comma-separated `item`s between `open` and `close`.
    fn list<T>(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Option<T>,
    ) -> Option<Vec<T>> {
        self.eat(open)?;
        let mut items = Vec::new();
        if self.peek() == Some(close) {
            self.eat(close)?;
            return Some(items);
        }
        loop {
            items.push(item(self)?);
            match self.peek()? {
                b',' => self.eat(b',')?,
                b if b == close => {
                    self.eat(close)?;
                    return Some(items);
                }
                _ => return None,
            }
        }
    }

    fn value(&mut self) -> Option<Json> {
        match self.peek()? {
            b'"' => Some(Json::Str(self.string()?)),
            b'{' => {
                let fields = self.list(b'{', b'}', |p| {
                    let key = p.string()?;
                    p.eat(b':')?;
                    Some((key, p.value()?))
                })?;
                Some(Json::Obj(fields))
            }
            b'[' => Some(Json::Arr(self.list(b'[', b']', Self::value)?)),
            b't' => {
                self.lit("true")?;
                Some(Json::Bool(true))
            }
            b'f' => {
                self.lit("false")?;
                Some(Json::Bool(false))
            }
            _ => Some(Json::Num(self.number()?)),
        }
    }
}

fn fault_from_json(v: &Json) -> Option<Fault> {
    let id = || v.get("id").and_then(Json::as_u64).map(|i| i as u32);
    match v.get("kind")?.as_str()? {
        "server_crash" => Some(Fault::ServerCrash(id()?)),
        "server_restart" => Some(Fault::ServerRestart(id()?)),
        "session_expiry" => Some(Fault::SessionExpiry(id()?)),
        "session_restore" => Some(Fault::SessionRestore(id()?)),
        "minism_crash" => Some(Fault::MiniSmCrash(id()?)),
        "minism_restart" => Some(Fault::MiniSmRestart(id()?)),
        "partition_start" => Some(Fault::PartitionStart(PartitionSpec {
            lo: v.get("lo")?.as_u64()? as u32,
            len: v.get("len")?.as_u64()? as u32,
            asym: v.get("asym")?.as_bool()?,
        })),
        "partition_heal" => Some(Fault::PartitionHeal),
        "net_degrade" => Some(Fault::NetDegrade {
            drop_pct: v.get("drop_pct")?.as_u64()? as u8,
            dup_pct: v.get("dup_pct")?.as_u64()? as u8,
        }),
        "net_heal" => Some(Fault::NetHeal),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosWorld;
    use crate::reconfig::ReconfigWorld;
    use crate::split::SplitWorld;
    use sm_types::ShardId;

    const HOST: ServerId = ServerId(0);

    #[derive(Default)]
    struct TestHost {
        up: bool,
        fenced: bool,
        applies: u32,
    }

    impl RpcHost for TestHost {
        fn up(&self) -> bool {
            self.up
        }

        fn fenced(&self) -> bool {
            self.fenced
        }
    }

    /// A one-host world driving the transport: every answer that
    /// reaches the control plane is logged in `results`, every reply the
    /// transport hands up in `replies`.
    struct Probe {
        rpc: RpcTransport,
        net: SimNet,
        hosts: BTreeMap<ServerId, TestHost>,
        results: Vec<bool>,
        replies: Vec<bool>,
    }

    enum ProbeEvent {
        /// The control plane sends one RPC to `HOST`.
        Issue,
        /// `HOST`'s process dies.
        Kill,
        Rpc(RpcEvent),
    }

    impl From<RpcEvent> for ProbeEvent {
        fn from(event: RpcEvent) -> Self {
            ProbeEvent::Rpc(event)
        }
    }

    impl World for Probe {
        type Event = ProbeEvent;

        fn handle(&mut self, ctx: &mut Ctx<'_, ProbeEvent>, event: ProbeEvent) {
            let rpc = ServerRpc::DropShard { shard: ShardId(1) };
            match event {
                ProbeEvent::Issue => self.rpc.send(&mut self.net, ctx, HOST, rpc),
                ProbeEvent::Kill => self.hosts.get_mut(&HOST).expect("one host").up = false,
                ProbeEvent::Rpc(event) => {
                    if let RpcEvent::Result { ok, .. } = event {
                        self.results.push(ok);
                    }
                    let reply =
                        self.rpc
                            .handle(event, &mut self.net, ctx, &mut self.hosts, |h, _| {
                                h.applies += 1;
                                true
                            });
                    if let Some((server, sent, acked)) = reply {
                        assert_eq!((server, sent), (HOST, rpc));
                        self.replies.push(acked);
                    }
                }
            }
        }
    }

    /// Runs `events` (plus one `Issue` at time zero) against a host in
    /// state `host`, with or without an island around it.
    fn probe(seed: u64, host: TestHost, island: bool, events: Vec<(u64, ProbeEvent)>) -> Probe {
        let mut net = SimNet::new(LatencyModel::uniform(1, 10.0, 10.0), seed);
        if island {
            net.start_partition(PartitionSpec {
                lo: HOST.raw(),
                len: 1,
                asym: false,
            });
        }
        let world = Probe {
            rpc: RpcTransport::default(),
            net,
            hosts: BTreeMap::from([(HOST, host)]),
            results: Vec::new(),
            replies: Vec::new(),
        };
        let mut sim = Simulation::new(world, seed);
        sim.schedule_at(SimTime::ZERO, ProbeEvent::Issue);
        for (at_ms, event) in events {
            sim.schedule_at(SimTime::from_millis(at_ms), event);
        }
        sim.run();
        sim.into_world()
    }

    fn live() -> TestHost {
        TestHost {
            up: true,
            ..TestHost::default()
        }
    }

    #[test]
    fn duplicated_send_applies_once_and_replays_the_recorded_outcome() {
        for seed in 0..3 {
            // The first copy lands at ~10ms and applies; the host then
            // dies, and a duplicated copy lands at 1s.
            let dup = RpcEvent::Send {
                id: 1,
                server: HOST,
                rpc: ServerRpc::DropShard { shard: ShardId(1) },
            };
            let p = probe(
                seed,
                live(),
                false,
                vec![(500, ProbeEvent::Kill), (1_000, ProbeEvent::Rpc(dup))],
            );
            assert_eq!(p.hosts[&HOST].applies, 1, "seed {seed}");
            assert_eq!(p.results, [true, true], "seed {seed}: replayed outcome");
            assert_eq!(p.replies, [true], "seed {seed}");
        }
    }

    #[test]
    fn result_after_its_timeout_is_ignored() {
        for seed in 0..3 {
            // The island eats the request; the timeout fires at 2s and
            // a (forged) late answer arrives at 3s.
            let late = RpcEvent::Result { id: 1, ok: true };
            let p = probe(seed, live(), true, vec![(3_000, ProbeEvent::Rpc(late))]);
            assert_eq!(p.hosts[&HOST].applies, 0, "seed {seed}");
            assert_eq!(p.replies, [false], "seed {seed}");
            assert_eq!(p.rpc.stats().timeouts, 1, "seed {seed}");
        }
    }

    #[test]
    fn duplicate_result_is_ignored() {
        for seed in 0..3 {
            let dup = RpcEvent::Result { id: 1, ok: false };
            let p = probe(seed, live(), false, vec![(1_000, ProbeEvent::Rpc(dup))]);
            assert_eq!(p.results, [true, false], "seed {seed}");
            assert_eq!(p.replies, [true], "seed {seed}");
        }
    }

    #[test]
    fn dead_host_nacks() {
        for seed in 0..3 {
            let p = probe(seed, TestHost::default(), false, Vec::new());
            assert_eq!(p.hosts[&HOST].applies, 0, "seed {seed}");
            assert_eq!(p.replies, [false], "seed {seed}");
            assert_eq!(p.rpc.stats().nacks, 1, "seed {seed}");
        }
    }

    #[test]
    fn self_fenced_host_nacks() {
        for seed in 0..3 {
            let fenced = TestHost {
                fenced: true,
                ..live()
            };
            let p = probe(seed, fenced, false, Vec::new());
            assert_eq!(p.hosts[&HOST].applies, 0, "seed {seed}");
            assert_eq!(p.replies, [false], "seed {seed}");
            assert_eq!(p.rpc.stats().nacks, 1, "seed {seed}");
        }
    }

    /// Round-trips one reproducer through `W`'s codec.
    fn round_trip<W: FaultWorld>(cell: DstConfig, plan: &[(SimTime, Fault)]) {
        let json = W::repro_to_json(cell, plan);
        assert!(json.contains(&format!("\"world\": \"{}\"", W::NAME)));
        let (cell2, plan2) = W::repro_from_json(&json).expect("own output parses");
        assert_eq!(cell, cell2, "{}", W::NAME);
        assert_eq!(plan, plan2.as_slice(), "{}", W::NAME);
    }

    #[test]
    fn repro_json_round_trips_every_fault_kind_in_every_world() {
        let plan = vec![
            (SimTime::from_secs(10), Fault::ServerCrash(3)),
            (SimTime::from_secs(12), Fault::SessionExpiry(4)),
            (SimTime::from_secs(13), Fault::MiniSmCrash(1)),
            (
                SimTime::from_secs(14),
                Fault::PartitionStart(PartitionSpec {
                    lo: 2,
                    len: 3,
                    asym: true,
                }),
            ),
            (
                SimTime::from_secs(15),
                Fault::NetDegrade {
                    drop_pct: 5,
                    dup_pct: 3,
                },
            ),
            (SimTime::from_secs(20), Fault::NetHeal),
            (SimTime::from_secs(21), Fault::PartitionHeal),
            (SimTime::from_secs(22), Fault::MiniSmRestart(1)),
            (SimTime::from_secs(23), Fault::SessionRestore(4)),
            (SimTime::from_secs(24), Fault::ServerRestart(3)),
        ];
        let cell = |seed, profile| DstConfig {
            seed,
            profile,
            mutate: true,
        };
        round_trip::<ChaosWorld>(cell(42, FaultProfile::Mixed), &plan);
        round_trip::<ReconfigWorld>(cell(9, FaultProfile::ReconfigChaos), &plan);
        round_trip::<SplitWorld>(cell(9, FaultProfile::SplitChaos), &plan);

        // A chaos reproducer written before documents named their world
        // still parses, as chaos only.
        let legacy = "{\"seed\":1,\"profile\":\"mixed\",\"disable_self_fencing\":true,\"plan\":[]}";
        assert_eq!(
            ChaosWorld::repro_from_json(legacy),
            Some((cell(1, FaultProfile::Mixed), Vec::new()))
        );
        assert!(SplitWorld::repro_from_json(legacy).is_none());
    }

    #[test]
    fn repro_parser_rejects_garbage_without_panicking() {
        for bad in [
            "",
            "{",
            "[1,2",
            "{\"seed\": \"x\"}",
            "{\"seed\":1,\"profile\":\"nope\",\"disable_self_fencing\":false,\"plan\":[]}",
            "{\"seed\":1,\"profile\":\"mixed\",\"disable_self_fencing\":false,\"plan\":[{\"at_us\":1,\"fault\":{\"kind\":\"warp\"}}]}",
            "{\"world\":\"nope\",\"seed\":1,\"profile\":\"mixed\",\"disable_self_fencing\":false,\"plan\":[]}",
        ] {
            assert!(ChaosWorld::repro_from_json(bad).is_none(), "accepted: {bad}");
        }
        // Another world's document, and a split document missing its
        // mutation flag.
        let reconfig =
            ReconfigWorld::repro_to_json(DstConfig::new(1, FaultProfile::ReconfigChaos), &[]);
        assert!(ChaosWorld::repro_from_json(&reconfig).is_none());
        assert!(SplitWorld::repro_from_json(&reconfig).is_none());
        let split =
            "{\"world\":\"split\",\"seed\":1,\"profile\":\"split_chaos\",\"adaptive\":true,\"plan\":[]}";
        assert!(SplitWorld::repro_from_json(split).is_none());
    }

    #[test]
    fn grouping_pairs_hits_with_their_recoveries() {
        let plan = vec![
            (SimTime::from_secs(1), Fault::ServerCrash(0)),
            (
                SimTime::from_secs(2),
                Fault::PartitionStart(PartitionSpec {
                    lo: 0,
                    len: 2,
                    asym: false,
                }),
            ),
            (SimTime::from_secs(3), Fault::ServerRestart(0)),
            (SimTime::from_secs(4), Fault::PartitionHeal),
        ];
        let groups = group_plan(&plan);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].len(), 2, "crash pairs with restart");
        assert_eq!(groups[1].len(), 2, "partition pairs with heal");
        // Flatten restores time order across interleaved groups.
        assert_eq!(flatten(&groups), plan);
    }

    #[test]
    fn swarm_reports_land_at_their_input_index() {
        let cfgs: Vec<_> = [11, 12]
            .map(|seed| ChaosWorld::config(DstConfig::new(seed, FaultProfile::CrashOnly)))
            .to_vec();
        let reports = ChaosWorld::swarm(&cfgs, 2);
        assert_eq!(reports.len(), 2);
        for (cfg, report) in cfgs.iter().zip(&reports) {
            assert_eq!(report.trace_csv, ChaosWorld::run(*cfg).trace_csv);
        }
    }
}
