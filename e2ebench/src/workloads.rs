//! The four workloads and the measured-round loop.
//!
//! A run does a fixed number of fixed-size rounds, which `--seconds`
//! sets through the workload's nominal round time. The work, and so
//! every count, therefore depends only on the seed and `--seconds`,
//! never on how fast the host runs. An untraced run sets up several
//! times and reports the median; on the stack workloads each set-up
//! starts a replay of the same rounds. A traced run sets up once and
//! alternates untraced and traced rounds, so the difference of their
//! medians is the tracing overhead.

use crate::stack::{Counts, Mutation, Stack, StackConfig};
use crate::trace::{median, percentile, Kind, Layer, Samples, Tracer};
use sm_apps::dst::{run_dst, DstConfig};
use sm_sim::{FaultProfile, SimRng};
use sm_types::ServerId;
use std::collections::BTreeMap;
use std::time::Instant;

/// Per-layer metric values by name; units live in `report::PER_LAYER`.
pub type Layers = BTreeMap<String, f64>;

/// Client requests in one `steady` round.
pub const STEADY_ROUND_REQUESTS: u32 = 20_000;
/// Requests per world event (RPC delivery or install) in `rolling`.
pub const ROLLING_REQS_PER_EVENT: u32 = 4;
/// Requests per world event in `failover` (a low ratio).
pub const FAILOVER_REQS_PER_EVENT: u32 = 1;
/// Servers lost one after another in one `failover` round.
pub const FAILOVER_LOSSES_PER_ROUND: usize = 4;
/// Seeds per fault profile in one `dst` round.
pub const DST_SEEDS_PER_ROUND: u64 = 2;
/// Rounds every run completes (a traced run needs one untraced and one
/// traced round).
pub const MIN_ROUNDS: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Steady,
    Rolling,
    Failover,
    Dst,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Steady,
        Workload::Rolling,
        Workload::Failover,
        Workload::Dst,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Steady => "steady",
            Workload::Rolling => "rolling",
            Workload::Failover => "failover",
            Workload::Dst => "dst",
        }
    }

    /// The stack this workload drives (`None` for `dst`).
    pub fn stack_config(self, seed: u64, mutation: Mutation) -> Option<StackConfig> {
        let base = StackConfig {
            seed,
            shards: 4096,
            keys_per_shard: 4,
            secondaries: 0,
            routers: 4,
            mutation,
        };
        match self {
            Workload::Steady | Workload::Rolling => Some(base),
            Workload::Failover => Some(StackConfig {
                shards: 8192,
                keys_per_shard: 2,
                secondaries: 1,
                ..base
            }),
            Workload::Dst => None,
        }
    }

    /// Set-ups per untraced run (the median is reported). On the stack
    /// workloads each set-up starts one replay of the run's rounds (see
    /// `run_stack`).
    pub fn setups(self) -> usize {
        match self {
            Workload::Steady => 5,
            Workload::Rolling | Workload::Failover => 3,
            Workload::Dst => 7,
        }
    }

    /// Wall seconds of one untraced round, output checks included, on
    /// the 2-vCPU Xeon VM the benchmark was built on.
    pub fn nominal_round_s(self) -> f64 {
        match self {
            Workload::Steady => 0.020,
            Workload::Rolling => 0.32,
            Workload::Failover => 0.67,
            Workload::Dst => 0.13,
        }
    }

    /// The rounds a run of about `seconds` makes on that host: per
    /// replay on the stack workloads, and in whole passes over the seed
    /// pool on `dst`, so every run executes each cell equally often.
    /// Fixing them up front, rather than stopping when a clock runs
    /// out, keeps the work, and every count and failure, the same for
    /// a seed on a slow host as on a fast one.
    pub fn rounds_for(self, seconds: f64) -> usize {
        let rounds = seconds / self.nominal_round_s();
        match self {
            Workload::Dst => {
                ((rounds.round() as usize).max(1)).div_ceil(DST_PASS_ROUNDS) * DST_PASS_ROUNDS
            }
            _ => ((rounds / self.setups() as f64).round() as usize).max(MIN_ROUNDS),
        }
    }

    /// The workload's sizes, for provenance.
    pub fn sizes(self) -> String {
        match self.stack_config(0, Mutation::None) {
            Some(c) => {
                let per_event = match self {
                    Workload::Rolling => ROLLING_REQS_PER_EVENT,
                    Workload::Failover => FAILOVER_REQS_PER_EVENT,
                    _ => 0,
                };
                format!(
                    "shards={} servers={} replicas={} keys={} routers={} \
                     round={} reqs_per_event={per_event} put_pct=10",
                    c.shards,
                    c.servers(),
                    1 + c.secondaries,
                    c.shards * c.keys_per_shard,
                    c.routers,
                    match self {
                        Workload::Steady => format!("{STEADY_ROUND_REQUESTS}_requests"),
                        Workload::Rolling => String::from("1_drain"),
                        _ => format!("{FAILOVER_LOSSES_PER_ROUND}_losses+rebalance"),
                    },
                )
            }
            None => format!(
                "profiles={} seeds_per_profile_per_round={DST_SEEDS_PER_ROUND} \
                 seed_pool={DST_SEED_POOL} threads=1",
                FaultProfile::ALL.len()
            ),
        }
    }
}

/// How to run.
#[derive(Clone, Copy, Debug)]
pub struct RunOpts {
    pub seed: u64,
    pub trace: bool,
    /// Measured rounds (see [`Workload::rounds_for`]).
    pub rounds: usize,
    /// Override the workload's shard count (tests run small stacks).
    pub shards: Option<u64>,
    pub mutation: Mutation,
}

/// Everything one run measured.
pub struct RunResult {
    pub setup_s: Vec<f64>,
    /// Wall seconds of each untraced round (checks excluded), at its
    /// fastest replay on the stack workloads.
    pub round_s: Vec<f64>,
    /// Wall seconds of each traced round (checks excluded).
    pub traced_round_s: Vec<f64>,
    /// Wall ns of each user-facing operation: a request, at its fastest
    /// replay, or a DST cell execution.
    pub ops: Samples,
    /// `steady` only: the fastest round as (wall s, request p50 ns,
    /// request p99 ns). Its rounds are identical work, so contention
    /// from other tenants of the host is all that varies between them,
    /// and it only ever adds time: the fastest round is the steadiest
    /// measure of what the code costs.
    pub fastest: Option<(f64, f64, f64)>,
    /// Summed wall ns of all requests (for closed-loop throughput).
    pub req_ns_total: u64,
    /// Control-plane wall ms per drained or lost server, at its fastest
    /// replay.
    pub reactions_ms: Vec<f64>,
    /// Counts over every measured round.
    pub counts: Counts,
    /// Per-layer metrics (traced runs only), by name.
    pub layers: Layers,
    /// The traced run's span log (empty when untraced).
    pub span_log: String,
}

impl RunResult {
    /// Requests, or DST cells.
    pub fn attempted(&self, w: Workload) -> u64 {
        match w {
            Workload::Dst => self.counts.cells,
            _ => self.counts.requests,
        }
    }

    /// Requests not served or answered wrongly, or DST cells with
    /// oracle violations or no convergence.
    pub fn failed(&self, w: Workload) -> u64 {
        match w {
            Workload::Dst => self.counts.cells_failed,
            _ => self.counts.failed_requests(),
        }
    }
}

/// Runs one workload. An `Err` is a failed output check.
pub fn run(w: Workload, opts: RunOpts) -> Result<RunResult, String> {
    match w.stack_config(opts.seed, opts.mutation) {
        Some(cfg) => {
            let shards = opts.shards.unwrap_or(cfg.shards);
            run_stack(w, StackConfig { shards, ..cfg }, opts)
        }
        None => run_dst_grid(opts),
    }
}

/// One pass of a stack workload's seeded rounds on a freshly built
/// stack.
struct Replay {
    setup_s: f64,
    round_s: Vec<f64>,
    traced_round_s: Vec<f64>,
    reactions_ms: Vec<f64>,
    fastest: Option<(f64, f64, f64)>,
}

fn replay(
    w: Workload,
    cfg: StackConfig,
    opts: &RunOpts,
    layers: &mut Layers,
) -> Result<(Stack, Replay), String> {
    let mut tracer = Tracer::new(false);
    tracer.set_on(opts.trace);
    let t0 = Instant::now();
    let mut stack = Stack::build(cfg, tracer);
    stack.bootstrap()?;
    let setup_s = t0.elapsed().as_secs_f64();
    if opts.trace {
        let t = &stack.tracer;
        layers.insert(
            "orch.emergency_ms".into(),
            t.stats(Kind::Emergency).total_ns as f64 / 1e6,
        );
        share_layers(t, setup_s * 1e9, "setup", layers);
        stack.tracer.set_on(false);
        stack.tracer.reset();
    }
    stack.counts = Counts::default();
    stack.reaction_ns = 0;
    let orch_base = stack.orch_counts();

    let mut rng = SimRng::seed_from(opts.seed, 4);
    let mut order: Vec<u32> = (0..stack.servers()).collect();
    rng.shuffle(&mut order);
    let mut rep = Replay {
        setup_s,
        round_s: Vec::new(),
        traced_round_s: Vec::new(),
        reactions_ms: Vec::new(),
        fastest: None,
    };
    for r in 0..opts.rounds {
        let traced = opts.trace && r % 2 == 1;
        stack.tracer.set_on(traced);
        stack.round_req_ns.clear();
        let check0 = stack.check_ns;
        let t0 = Instant::now();
        stack.tracer.begin(Kind::Round, r as u64);
        match w {
            Workload::Steady => stack.run_requests(STEADY_ROUND_REQUESTS),
            Workload::Rolling => {
                let s = ServerId(order[r % order.len()]);
                rep.reactions_ms
                    .push(stack.drain_and_return(s, ROLLING_REQS_PER_EVENT)?);
            }
            _ => failover_round(&mut stack, &mut rng, &mut rep.reactions_ms)?,
        }
        stack.tracer.end();
        let wall = t0.elapsed().as_nanos() as u64 - (stack.check_ns - check0);
        let secs = wall as f64 / 1e9;
        if traced {
            rep.traced_round_s.push(secs);
        } else {
            rep.round_s.push(secs);
            if w == Workload::Steady && rep.fastest.is_none_or(|(best, _, _)| secs < best) {
                let ns = &stack.round_req_ns;
                rep.fastest = Some((secs, percentile(ns, 50.0), percentile(ns, 99.0)));
            }
        }
    }
    stack.tracer.set_on(false);
    stack.sync_orch_counts(&orch_base);
    Ok((stack, rep))
}

/// Index-wise minimum of equally long series.
fn fastest_of<'a, T: Copy + PartialOrd + 'a>(mut series: impl Iterator<Item = &'a [T]>) -> Vec<T> {
    let mut out = series.next().map(<[T]>::to_vec).unwrap_or_default();
    for s in series {
        for (o, &v) in out.iter_mut().zip(s) {
            if v < *o {
                *o = v;
            }
        }
    }
    out
}

/// Runs a stack workload. An untraced run replays the same seeded work
/// [`Workload::setups`] times, each on a freshly built stack, so every
/// set-up is timed once per replay, and each round, request and
/// reaction is timed once per replay on identical work. Each is
/// reported at its fastest replay: other tenants of the host only ever
/// add time, in spells of a fraction of a second to minutes, and the
/// fastest of several executions spread over the run is far steadier
/// than any one of them. The replays must agree on every count.
fn run_stack(w: Workload, cfg: StackConfig, opts: RunOpts) -> Result<RunResult, String> {
    let replays = if opts.trace { 1 } else { w.setups() };
    let mut layers = Layers::new();
    let mut reps = Vec::new();
    let mut samples: Vec<Vec<u64>> = Vec::new();
    let mut stack: Option<Stack> = None;
    for i in 0..replays {
        // One stack at a time: `failover`'s holds 50 MB.
        let prev = stack.take().map(|s| s.counts);
        let (s, rep) = replay(w, cfg, &opts, &mut layers)?;
        if let Some(c) = prev.filter(|c| *c != s.counts) {
            return Err(format!(
                "replay {i} of seed {} counted {:?}, the one before {c:?}",
                opts.seed, s.counts
            ));
        }
        samples.push(s.req_samples.values().to_vec());
        reps.push(rep);
        stack = Some(s);
    }
    let stack = stack.ok_or("no replay ran")?;
    let round_s = fastest_of(reps.iter().map(|r| r.round_s.as_slice()));
    let reactions_ms = fastest_of(reps.iter().map(|r| r.reactions_ms.as_slice()));
    // Samples decimate by arrival index, so replays keep the same
    // requests and the index-wise minimum pairs each with itself.
    let mut ops = Samples::new(1 << 16);
    for ns in fastest_of(samples.iter().map(Vec::as_slice)) {
        ops.push(ns);
    }
    let fastest = reps
        .iter()
        .filter_map(|r| r.fastest)
        .min_by(|a, b| a.0.total_cmp(&b.0));
    let traced_round_s = reps
        .last()
        .map(|r| r.traced_round_s.clone())
        .unwrap_or_default();

    if opts.trace {
        stack_layers(&stack, &mut layers);
        overhead_layers(&round_s, &traced_round_s, &mut layers);
        if w == Workload::Failover {
            scale_layers(&stack, cfg, opts.seed, &mut layers)?;
        }
    }
    Ok(RunResult {
        setup_s: reps.iter().map(|r| r.setup_s).collect(),
        round_s,
        traced_round_s,
        ops,
        fastest,
        req_ns_total: stack.req_ns_total,
        reactions_ms,
        counts: stack.counts,
        span_log: if opts.trace {
            stack.tracer.log_tsv()
        } else {
            String::new()
        },
        layers,
    })
}

/// Loses servers one at a time, then brings them back and rebalances.
fn failover_round(
    stack: &mut Stack,
    rng: &mut SimRng,
    reactions_ms: &mut Vec<f64>,
) -> Result<(), String> {
    let mut dead: Vec<ServerId> = Vec::new();
    for _ in 0..FAILOVER_LOSSES_PER_ROUND {
        let live: Vec<ServerId> = (0..stack.servers())
            .map(ServerId)
            .filter(|s| stack.server_is_up(*s))
            .collect();
        let victim = live[rng.index(live.len())];
        dead.push(victim);
        reactions_ms.push(stack.lose(victim, &dead, FAILOVER_REQS_PER_EVENT)?);
    }
    stack.revive_and_rebalance(&dead, FAILOVER_REQS_PER_EVENT)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn p50_us(t: &Tracer, k: Kind) -> f64 {
    t.stats(k).p(50.0) / 1e3
}

fn stack_layers(stack: &Stack, out: &mut Layers) {
    let t = &stack.tracer;
    let c = &stack.counts;
    let route = t.stats(Kind::Route);
    let mut push = |name: &str, _unit: &str, v: f64| {
        out.insert(name.into(), v);
    };
    push("routing.route_ns.p50", "ns", route.p(50.0));
    push("routing.route_ns.p99", "ns", route.p(99.0));
    push(
        "routing.first_route_us.p50",
        "us",
        percentile(stack.first_route.values(), 50.0) / 1e3,
    );
    push("routing.install_us.p50", "us", p50_us(t, Kind::Install));
    push("routing.installs", "count", c.installs as f64);
    push("routing.stale_routes", "count", c.stale_routes as f64);
    push(
        "routing.allocs_per_route",
        "allocs/op",
        route.allocs_per_call(),
    );
    push(
        "routing.allocs_per_install",
        "allocs/op",
        t.stats(Kind::Install).allocs_per_call(),
    );
    push("discovery.publish_us.p50", "us", p50_us(t, Kind::Publish));
    push("map.build_us.p50", "us", p50_us(t, Kind::MapBuild));
    push("map.publishes", "count", c.publishes as f64);
    push(
        "map.entries.mean",
        "count",
        ratio(c.map_entries as f64, c.publishes as f64),
    );
    push(
        "orch.drain_ms.p50",
        "ms",
        t.stats(Kind::Drain).p(50.0) / 1e6,
    );
    push(
        "orch.server_down_ms.p50",
        "ms",
        t.stats(Kind::ServerDown).p(50.0) / 1e6,
    );
    push(
        "orch.periodic_ms.p50",
        "ms",
        t.stats(Kind::Periodic).p(50.0) / 1e6,
    );
    push("orch.ack_us.p50", "us", p50_us(t, Kind::Ack));
    push("orch.ack_us.p99", "us", t.stats(Kind::Ack).p(99.0) / 1e3);
    push("orch.acks", "count", c.acks as f64);
    push("orch.nacks", "count", c.nacks as f64);
    push(
        "orch.allocs_per_ack",
        "allocs/op",
        t.stats(Kind::Ack).allocs_per_call(),
    );
    push("orch.moves_completed", "count", c.moves_completed as f64);
    push("orch.moves_aborted", "count", c.moves_aborted as f64);
    push("orch.promotions", "count", c.promotions as f64);
    push("app.rebuild_us.p50", "us", p50_us(t, Kind::Rebuild));
    push("app.rebuilds", "count", c.rebuilds as f64);
    push(
        "app.allocs_per_rebuild",
        "allocs/op",
        t.stats(Kind::Rebuild).allocs_per_call(),
    );
    push("app.rpc_us.p50", "us", p50_us(t, Kind::Rpc));
    push("app.admit_ns.p50", "ns", t.stats(Kind::Admit).p(50.0));
    push("app.get_ns.p50", "ns", t.stats(Kind::Get).p(50.0));
    push("app.put_ns.p50", "ns", t.stats(Kind::Put).p(50.0));
    push(
        "app.allocs_per_get",
        "allocs/op",
        t.stats(Kind::Get).allocs_per_call(),
    );
    push(
        "app.allocs_per_put",
        "allocs/op",
        t.stats(Kind::Put).allocs_per_call(),
    );
    push("app.forward_hops", "count", c.forward_hops as f64);
    push("app.not_mine", "count", c.not_mine as f64);
    share_layers(t, rounds_ns(t), "self", out);
}

/// Wall ns of the traced rounds.
fn rounds_ns(t: &Tracer) -> f64 {
    t.stats(Kind::Round).total_ns as f64
}

/// Self time per layer as a share of `wall` ns, output checks
/// excluded; the bench gets the rest.
fn share_layers(t: &Tracer, wall: f64, prefix: &str, out: &mut Layers) {
    let wall = wall - t.stats(Kind::Check).total_ns as f64;
    let mut layered = 0.0;
    for layer in Layer::ALL {
        if layer == Layer::Bench {
            continue;
        }
        let share = ratio(t.layer_self_ns(layer) as f64, wall);
        layered += share;
        out.insert(format!("{prefix}.{}_share", layer.name()), share);
    }
    out.insert(format!("{prefix}.bench_share"), (1.0 - layered).max(0.0));
}

fn overhead_layers(untraced: &[f64], traced: &[f64], out: &mut Layers) {
    let (u, t) = (median(untraced), median(traced));
    out.insert("trace.untraced_run_s".into(), u);
    out.insert("trace.traced_run_s".into(), t);
    out.insert("trace.overhead_s".into(), t - u);
}

/// The control plane's complexity signal: the loss step at N/2 shards
/// against the same step at N, as ratios of the medians.
fn scale_layers(full: &Stack, cfg: StackConfig, seed: u64, out: &mut Layers) -> Result<(), String> {
    let half_cfg = StackConfig {
        shards: cfg.shards / 2,
        ..cfg
    };
    let mut half = Stack::build(half_cfg, Tracer::new(false));
    half.bootstrap()?;
    half.tracer.set_on(true);
    let mut rng = SimRng::seed_from(seed, 5);
    let mut sink = Vec::new();
    failover_round(&mut half, &mut rng, &mut sink)?;
    half.tracer.set_on(false);
    let down = |s: &Stack| s.tracer.stats(Kind::ServerDown).p(50.0) / 1e6;
    let ack = |s: &Stack| s.tracer.stats(Kind::Ack).p(50.0) / 1e3;
    out.insert("scale.server_down_ms.half".into(), down(&half));
    out.insert("scale.ack_us.half".into(), ack(&half));
    out.insert(
        "scale.server_down_ratio".into(),
        ratio(down(full), down(&half)),
    );
    out.insert("scale.ack_ratio".into(), ratio(ack(full), ack(&half)));
    Ok(())
}

fn dst_layers(cell_ns: &BTreeMap<&'static str, Vec<u64>>, c: &Counts, out: &mut Layers) {
    for p in FaultProfile::ALL {
        let v = cell_ns
            .get(p.name())
            .map_or(0.0, |ns| percentile(ns, 50.0) / 1e6);
        out.insert(format!("dst.cell_ms.p50.{}", p.name()), v);
    }
    out.insert("dst.net_delivered".into(), c.net_delivered as f64);
    out.insert("dst.net_dropped".into(), c.net_dropped as f64);
    out.insert("dst.served".into(), c.dst_served as f64);
}

/// DST cell seeds come from a fixed pool the workload seed rotates
/// through: a run passes over the whole pool several times, so the tail
/// of cell times describes the same population on every run, and known
/// failing cells of the pool (`split_chaos` seed 3) count in every run.
pub const DST_SEED_POOL: u64 = 32;
/// Warm-up cells per profile in one `dst` set-up: enough that a set-up
/// takes about a quarter of a second, so one slow spell of the host
/// does not decide it.
const DST_WARMUP_SEEDS: u64 = 4;
/// Rounds of one pass over the seed pool.
const DST_PASS_ROUNDS: usize = (DST_SEED_POOL / DST_SEEDS_PER_ROUND) as usize;

/// The seed of cell `j` of round `round`.
fn cell_seed(seed: u64, round: u64, j: u64) -> u64 {
    (seed.wrapping_mul(DST_SEEDS_PER_ROUND) % DST_SEED_POOL + round * DST_SEEDS_PER_ROUND + j)
        % DST_SEED_POOL
}

fn run_cell(tracer: &mut Tracer, seed: u64, profile: FaultProfile, counts: &mut Counts) -> u64 {
    let t0 = Instant::now();
    let report = tracer.span(Kind::DstCell, seed, || {
        run_dst(DstConfig::new(seed, profile))
    });
    let ns = t0.elapsed().as_nanos() as u64;
    counts.cells += 1;
    if report.failed() || !report.chaos.converged {
        counts.cells_failed += 1;
    }
    counts.dst_served += report.chaos.stats.served;
    counts.net_delivered += report.chaos.net.delivered;
    counts.net_dropped += report.chaos.net.dropped;
    let verdict = format!(
        "{} {} converged={}\n{}",
        seed,
        profile.name(),
        report.chaos.converged,
        report.verdict()
    );
    counts.dst_verdicts = fnv1a(counts.dst_verdicts, verdict.as_bytes());
    ns
}

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    if h == 0 {
        h = 0xcbf2_9ce4_8422_2325;
    }
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Runs the DST grid. Its passes over the seed pool are identical work,
/// so, as with the stack workloads' replays, each cell and each round
/// position of a pass is reported at its fastest untraced pass.
fn run_dst_grid(opts: RunOpts) -> Result<RunResult, String> {
    let setups = if opts.trace {
        1
    } else {
        Workload::Dst.setups()
    };
    let mut setup_s = Vec::new();
    let mut tracer = Tracer::new(false);
    // Set-up: warm-up cells of every profile, on seeds outside the grid.
    for _ in 0..setups {
        let t0 = Instant::now();
        let mut scratch = Counts::default();
        for (i, p) in FaultProfile::ALL.into_iter().enumerate() {
            for j in 0..DST_WARMUP_SEEDS {
                let seed = u64::MAX - i as u64 * DST_WARMUP_SEEDS - j;
                run_cell(&mut tracer, seed, p, &mut scratch);
            }
        }
        setup_s.push(t0.elapsed().as_secs_f64());
    }

    let mut counts = Counts::default();
    // Wall ns of each cell at its fastest untraced execution, and of
    // every traced execution by profile; wall s of each round position
    // at its fastest untraced pass, and of every round.
    let mut fastest_ns: BTreeMap<(&'static str, u64), u64> = BTreeMap::new();
    let mut cell_ns: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    let mut fastest_round_s = vec![f64::INFINITY; DST_PASS_ROUNDS];
    let mut untraced_round_s = Vec::new();
    let mut traced_round_s = Vec::new();
    for r in 0..opts.rounds {
        let traced = opts.trace && r % 2 == 1;
        tracer.set_on(traced);
        let t0 = Instant::now();
        tracer.begin(Kind::Round, r as u64);
        for p in FaultProfile::ALL {
            for j in 0..DST_SEEDS_PER_ROUND {
                let seed = cell_seed(opts.seed, r as u64, j);
                let ns = run_cell(&mut tracer, seed, p, &mut counts);
                if traced {
                    cell_ns.entry(p.name()).or_default().push(ns);
                } else {
                    let best = fastest_ns.entry((p.name(), seed)).or_insert(ns);
                    *best = ns.min(*best);
                }
            }
        }
        tracer.end();
        let secs = t0.elapsed().as_secs_f64();
        if traced {
            traced_round_s.push(secs);
        } else {
            untraced_round_s.push(secs);
            let best = &mut fastest_round_s[r % DST_PASS_ROUNDS];
            *best = secs.min(*best);
        }
    }
    tracer.set_on(false);

    let mut ops = Samples::new(1 << 16);
    for &ns in fastest_ns.values() {
        ops.push(ns);
    }
    let round_s: Vec<f64> = fastest_round_s
        .into_iter()
        .filter(|s| s.is_finite())
        .collect();
    let mut layers = Layers::new();
    if opts.trace {
        // Rows of layers this workload reaches only inside the worlds
        // stay at zero.
        share_layers(&tracer, rounds_ns(&tracer), "self", &mut layers);
        overhead_layers(&untraced_round_s, &traced_round_s, &mut layers);
        dst_layers(&cell_ns, &counts, &mut layers);
    }
    Ok(RunResult {
        setup_s,
        round_s,
        traced_round_s,
        ops,
        fastest: None,
        req_ns_total: 0,
        reactions_ms: Vec::new(),
        counts,
        span_log: if opts.trace {
            tracer.log_tsv()
        } else {
            String::new()
        },
        layers,
    })
}
