//! Timing from outside the program: span kinds, the in-memory span
//! recorder, duration samples, and the counting allocator.
//!
//! Every call the bench makes into a layer's public functions goes
//! through [`Tracer::span`]. With tracing off that is the bare call.
//! With tracing on it records a span (kind, start, end, parent, and the
//! request or event id), folds its duration into per-kind samples, and
//! charges the allocations made inside it. Self time is a span's
//! duration minus the part its child spans cover.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

/// A global allocator that counts allocation calls while counting is
/// switched on (the traced run only) and otherwise forwards to the
/// system allocator. Install it with `#[global_allocator]`.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged, so `System`'s guarantees carry over; the only
// addition is a relaxed counter update, which touches no allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[inline]
fn count_one() {
    // Relaxed: a statistic that publishes no other data.
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Allocations counted so far (0 unless [`CountingAlloc`] is installed).
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// The layers of the stack, named after the crates (and the map type)
/// the bench calls into. `Bench` is the benchmark's own code.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    Routing,
    Discovery,
    Map,
    Orch,
    App,
    Sim,
    Bench,
}

impl Layer {
    pub const ALL: [Layer; 7] = [
        Layer::Routing,
        Layer::Discovery,
        Layer::Map,
        Layer::Orch,
        Layer::App,
        Layer::Sim,
        Layer::Bench,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Routing => "routing",
            Layer::Discovery => "discovery",
            Layer::Map => "map",
            Layer::Orch => "orch",
            Layer::App => "app",
            Layer::Sim => "sim",
            Layer::Bench => "bench",
        }
    }
}

/// What a span times. Leaf kinds wrap exactly one public call of a
/// layer; `Request`, `Reaction`, `Round` and `Check` are the bench's
/// own spans that parent them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// `RouterHandle::route`.
    Route,
    /// `ConcurrentRouter::install_map`.
    Install,
    /// `DiscoveryService::publish`.
    Publish,
    /// `Orchestrator::current_map`.
    MapBuild,
    /// `Orchestrator::drain_server`.
    Drain,
    /// `Orchestrator::server_down`.
    ServerDown,
    /// `Orchestrator::server_up` / `drain_finished`.
    ServerUp,
    /// `Orchestrator::run_periodic`.
    Periodic,
    /// `Orchestrator::run_emergency`.
    Emergency,
    /// `Orchestrator::rpc_acked`.
    Ack,
    /// `Orchestrator::rpc_failed`.
    Nack,
    /// `Orchestrator::take_commands` and read-only queries.
    Commands,
    /// `ServerRpc::dispatch` of `AddShard` / `PrepareAddShard` (the
    /// calls that rebuild a shard from the external store).
    Rebuild,
    /// `ServerRpc::dispatch` of every other RPC kind.
    Rpc,
    /// `KvServer::admit`.
    Admit,
    /// `KvServer::get`.
    Get,
    /// `KvServer::put`.
    Put,
    /// `KvServer::restart` (a lost or upgraded process).
    Restart,
    /// `sm_apps::dst::run_dst` (one grid cell).
    DstCell,
    /// One client request, route to reply (bench).
    Request,
    /// One control-plane reaction, trigger to settled (bench).
    Reaction,
    /// One measured round (bench).
    Round,
    /// The benchmark's output checks (bench).
    Check,
}

impl Kind {
    pub const COUNT: usize = 23;

    pub const ALL: [Kind; Kind::COUNT] = [
        Kind::Route,
        Kind::Install,
        Kind::Publish,
        Kind::MapBuild,
        Kind::Drain,
        Kind::ServerDown,
        Kind::ServerUp,
        Kind::Periodic,
        Kind::Emergency,
        Kind::Ack,
        Kind::Nack,
        Kind::Commands,
        Kind::Rebuild,
        Kind::Rpc,
        Kind::Admit,
        Kind::Get,
        Kind::Put,
        Kind::Restart,
        Kind::DstCell,
        Kind::Request,
        Kind::Reaction,
        Kind::Round,
        Kind::Check,
    ];

    pub fn layer(self) -> Layer {
        match self {
            Kind::Route | Kind::Install => Layer::Routing,
            Kind::Publish => Layer::Discovery,
            Kind::MapBuild => Layer::Map,
            Kind::Drain
            | Kind::ServerDown
            | Kind::ServerUp
            | Kind::Periodic
            | Kind::Emergency
            | Kind::Ack
            | Kind::Nack
            | Kind::Commands => Layer::Orch,
            Kind::Rebuild | Kind::Rpc | Kind::Admit | Kind::Get | Kind::Put | Kind::Restart => {
                Layer::App
            }
            Kind::DstCell => Layer::Sim,
            Kind::Request | Kind::Reaction | Kind::Round | Kind::Check => Layer::Bench,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Route => "route",
            Kind::Install => "install",
            Kind::Publish => "publish",
            Kind::MapBuild => "map_build",
            Kind::Drain => "drain",
            Kind::ServerDown => "server_down",
            Kind::ServerUp => "server_up",
            Kind::Periodic => "periodic",
            Kind::Emergency => "emergency",
            Kind::Ack => "ack",
            Kind::Nack => "nack",
            Kind::Commands => "commands",
            Kind::Rebuild => "rebuild",
            Kind::Rpc => "rpc",
            Kind::Admit => "admit",
            Kind::Get => "get",
            Kind::Put => "put",
            Kind::Restart => "restart",
            Kind::DstCell => "dst_cell",
            Kind::Request => "request",
            Kind::Reaction => "reaction",
            Kind::Round => "round",
            Kind::Check => "check",
        }
    }

    fn idx(self) -> usize {
        self as usize
    }
}

/// Duration samples with deterministic stride decimation: once `cap`
/// values are held, every other one is dropped and the stride doubles,
/// so memory stays bounded while every kept value is exact.
#[derive(Clone, Debug)]
pub struct Samples {
    values: Vec<u64>,
    stride: u64,
    seen: u64,
    cap: usize,
}

impl Samples {
    /// Holds at most `cap` values, allocated up front so growth never
    /// copies (untouched capacity costs no resident memory).
    pub fn new(cap: usize) -> Self {
        Self {
            values: Vec::with_capacity(cap.max(2)),
            stride: 1,
            seen: 0,
            cap: cap.max(2),
        }
    }

    pub fn push(&mut self, v: u64) {
        self.seen += 1;
        if !self.seen.is_multiple_of(self.stride) {
            return;
        }
        self.values.push(v);
        if self.values.len() >= self.cap {
            let mut keep = false;
            self.values.retain(|_| {
                keep = !keep;
                !keep
            });
            self.stride *= 2;
        }
    }

    /// Values observed (before decimation).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    pub fn values(&self) -> &[u64] {
        &self.values
    }
}

/// Nearest-rank percentile `p` (0..=100) of `values`; 0.0 when empty.
pub fn percentile(values: &[u64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// The median of `values` (mean of the middle pair); 0.0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest whole percentile with at least ten samples beyond it,
/// for `n` samples (0 when there are too few for any).
pub fn tail_percentile(n: usize) -> u32 {
    (1..=99u32)
        .rev()
        .find(|&p| {
            let rank = ((f64::from(p) / 100.0) * n as f64).ceil() as usize;
            n.saturating_sub(rank.max(1)) >= 10
        })
        .unwrap_or(0)
}

/// Aggregates for one span kind.
#[derive(Clone, Debug)]
pub struct KindStats {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub allocs: u64,
    pub samples: Samples,
}

impl KindStats {
    fn new() -> Self {
        Self {
            count: 0,
            total_ns: 0,
            self_ns: 0,
            allocs: 0,
            samples: Samples::new(1 << 16),
        }
    }

    pub fn p(&self, pct: f64) -> f64 {
        percentile(self.samples.values(), pct)
    }

    pub fn allocs_per_call(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.allocs as f64 / self.count as f64
        }
    }
}

/// One recorded span, as written to the span log at exit.
#[derive(Clone, Copy, Debug)]
pub struct SpanRec {
    pub kind: Kind,
    pub id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the log (`u32::MAX` for roots or
    /// when the parent was not logged).
    pub parent: u32,
}

struct Open {
    kind: Kind,
    start: Instant,
    child_ns: u64,
    allocs0: u64,
    rec: u32,
}

/// Spans kept in memory for the log; aggregates continue past it.
const LOG_CAP: usize = 200_000;

/// The span recorder. Off, every method is a no-op apart from running
/// the wrapped call.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    stack: Vec<Open>,
    stats: Vec<KindStats>,
    log: Vec<SpanRec>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            stack: Vec::new(),
            stats: (0..Kind::COUNT).map(|_| KindStats::new()).collect(),
            log: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Switches recording (and allocation counting) on or off. Spans
    /// must not be open.
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty());
        self.on = on;
        COUNTING.store(on, Ordering::Relaxed);
    }

    /// Opens a span; pair with [`Tracer::end`].
    #[inline]
    pub fn begin(&mut self, kind: Kind, id: u64) {
        if !self.on {
            return;
        }
        let start = Instant::now();
        let rec = if self.log.len() < LOG_CAP {
            let parent = self.stack.last().map_or(u32::MAX, |o| o.rec);
            self.log.push(SpanRec {
                kind,
                id,
                start_ns: start.duration_since(self.epoch).as_nanos() as u64,
                end_ns: 0,
                parent,
            });
            (self.log.len() - 1) as u32
        } else {
            u32::MAX
        };
        self.stack.push(Open {
            kind,
            start,
            child_ns: 0,
            allocs0: allocs(),
            rec,
        });
    }

    /// Closes the innermost span and returns its duration in ns (0 with
    /// tracing off).
    #[inline]
    pub fn end(&mut self) -> u64 {
        if !self.on {
            return 0;
        }
        let Some(open) = self.stack.pop() else {
            return 0;
        };
        let end = Instant::now();
        let dur = end.duration_since(open.start).as_nanos() as u64;
        if let Some(rec) = self.log.get_mut(open.rec as usize) {
            rec.end_ns = end.duration_since(self.epoch).as_nanos() as u64;
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let st = &mut self.stats[open.kind.idx()];
        st.count += 1;
        st.total_ns += dur;
        st.self_ns += dur.saturating_sub(open.child_ns);
        st.allocs += allocs().saturating_sub(open.allocs0);
        st.samples.push(dur);
        dur
    }

    /// Runs `f` inside a span of `kind`.
    #[inline]
    pub fn span<R>(&mut self, kind: Kind, id: u64, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        self.begin(kind, id);
        let r = f();
        self.end();
        r
    }

    pub fn stats(&self, kind: Kind) -> &KindStats {
        &self.stats[kind.idx()]
    }

    /// Self time per layer, in ns, over everything recorded so far.
    pub fn layer_self_ns(&self, layer: Layer) -> u64 {
        Kind::ALL
            .iter()
            .filter(|k| k.layer() == layer)
            .map(|k| self.stats[k.idx()].self_ns)
            .sum()
    }

    /// Forgets every aggregate and logged span (between phases).
    pub fn reset(&mut self) {
        debug_assert!(self.stack.is_empty());
        for st in &mut self.stats {
            *st = KindStats::new();
        }
        self.log.clear();
    }

    /// The span log as tab-separated lines (index, kind, layer, id,
    /// start, end, parent).
    pub fn log_tsv(&self) -> String {
        let mut out = String::from("idx\tkind\tlayer\tid\tstart_ns\tend_ns\tparent\n");
        for (i, s) in self.log.iter().enumerate() {
            let parent = if s.parent == u32::MAX {
                String::from("-")
            } else {
                s.parent.to_string()
            };
            out.push_str(&format!(
                "{i}\t{}\t{}\t{}\t{}\t{}\t{parent}\n",
                s.kind.name(),
                s.kind.layer().name(),
                s.id,
                s.start_ns,
                s.end_ns
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_decimate_but_stay_exact() {
        let mut s = Samples::new(4);
        for v in 1..=16 {
            s.push(v);
        }
        assert_eq!(s.seen(), 16);
        assert!(s.values().len() < 4);
        assert!(s.values().iter().all(|v| (1..=16).contains(v)));
    }

    #[test]
    fn tail_percentile_leaves_ten_beyond() {
        assert_eq!(tail_percentile(5), 0);
        assert_eq!(tail_percentile(30), 66);
        assert_eq!(tail_percentile(1000), 99);
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.begin(Kind::Request, 1);
        t.span(Kind::Route, 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end();
        let req = t.stats(Kind::Request);
        let route = t.stats(Kind::Route);
        assert!(req.total_ns >= route.total_ns);
        assert!(req.self_ns < route.total_ns);
        assert_eq!(route.self_ns, route.total_ns);
        assert!(t.log_tsv().lines().count() == 3);
    }
}
