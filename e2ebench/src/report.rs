//! Metric tables, provenance and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the metrics `BENCHMARK.json`
//! lists, in the same order; the benchmark's tests check the two agree.

use crate::stack::Counts;
use crate::trace::{median, percentile, tail_percentile};
use crate::workloads::{RunResult, Workload};
use std::fmt::Write as _;

/// End-to-end metrics, printed for every workload with tracing off.
///
/// An "operation" is what a user of the workload waits on: one client
/// request on `steady`, `rolling` and `failover`, one DST grid cell on
/// `dst`. A "round" is the workload's fixed unit of work (see
/// `workloads::Workload::sizes`). `run_s` is the median round and
/// `op_*` pool every operation, each round and request taken at its
/// fastest replay (`workloads::run_stack`), except on `steady`, whose
/// identical rounds report the fastest round and its requests
/// (`RunResult::fastest`).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed for every workload with tracing on; rows
/// of layers a workload does not call from outside read 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("orch.emergency_ms", "ms"),
    ("setup.routing_share", "ratio"),
    ("setup.discovery_share", "ratio"),
    ("setup.map_share", "ratio"),
    ("setup.orch_share", "ratio"),
    ("setup.app_share", "ratio"),
    ("setup.sim_share", "ratio"),
    ("setup.bench_share", "ratio"),
    ("routing.route_ns.p50", "ns"),
    ("routing.route_ns.p99", "ns"),
    ("routing.first_route_us.p50", "us"),
    ("routing.install_us.p50", "us"),
    ("routing.installs", "count"),
    ("routing.stale_routes", "count"),
    ("routing.allocs_per_route", "allocs/op"),
    ("routing.allocs_per_install", "allocs/op"),
    ("discovery.publish_us.p50", "us"),
    ("map.build_us.p50", "us"),
    ("map.publishes", "count"),
    ("map.entries.mean", "count"),
    ("orch.drain_ms.p50", "ms"),
    ("orch.server_down_ms.p50", "ms"),
    ("orch.periodic_ms.p50", "ms"),
    ("orch.ack_us.p50", "us"),
    ("orch.ack_us.p99", "us"),
    ("orch.acks", "count"),
    ("orch.nacks", "count"),
    ("orch.allocs_per_ack", "allocs/op"),
    ("orch.moves_completed", "count"),
    ("orch.moves_aborted", "count"),
    ("orch.promotions", "count"),
    ("app.rebuild_us.p50", "us"),
    ("app.rebuilds", "count"),
    ("app.allocs_per_rebuild", "allocs/op"),
    ("app.rpc_us.p50", "us"),
    ("app.admit_ns.p50", "ns"),
    ("app.get_ns.p50", "ns"),
    ("app.put_ns.p50", "ns"),
    ("app.allocs_per_get", "allocs/op"),
    ("app.allocs_per_put", "allocs/op"),
    ("app.forward_hops", "count"),
    ("app.not_mine", "count"),
    ("self.routing_share", "ratio"),
    ("self.discovery_share", "ratio"),
    ("self.map_share", "ratio"),
    ("self.orch_share", "ratio"),
    ("self.app_share", "ratio"),
    ("self.sim_share", "ratio"),
    ("self.bench_share", "ratio"),
    ("trace.untraced_run_s", "s"),
    ("trace.traced_run_s", "s"),
    ("trace.overhead_s", "s"),
    ("scale.server_down_ms.half", "ms"),
    ("scale.ack_us.half", "us"),
    ("scale.server_down_ratio", "ratio"),
    ("scale.ack_ratio", "ratio"),
    ("dst.cell_ms.p50.crash_only", "ms"),
    ("dst.cell_ms.p50.sym_partition", "ms"),
    ("dst.cell_ms.p50.asym_partition", "ms"),
    ("dst.cell_ms.p50.lossy_net", "ms"),
    ("dst.cell_ms.p50.mixed", "ms"),
    ("dst.cell_ms.p50.reconfig_chaos", "ms"),
    ("dst.cell_ms.p50.split_chaos", "ms"),
    ("dst.net_delivered", "count"),
    ("dst.net_dropped", "count"),
    ("dst.served", "count"),
];

/// A metric as printed: name, unit, value.
pub type Metric = (String, &'static str, f64);

fn frac(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The end-to-end metrics of an untraced run, in [`END_TO_END`] order.
pub fn end_to_end(w: Workload, r: &RunResult, peak_rss_mb: f64) -> Vec<Metric> {
    let ops = r.ops.values();
    let attempted = r.attempted(w);
    let (run_s, p50_ns, p99_ns) = r.fastest.unwrap_or((
        median(&r.round_s),
        percentile(ops, 50.0),
        percentile(ops, 99.0),
    ));
    let values = [
        median(&r.setup_s),
        run_s,
        p50_ns / 1e3,
        p99_ns / 1e3,
        1.0 - frac(r.failed(w), attempted),
        peak_rss_mb,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name.to_string(), unit, v))
        .collect()
}

/// The per-layer metrics of a traced run, in [`PER_LAYER`] order.
pub fn per_layer(r: &RunResult) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            (
                name.to_string(),
                unit,
                r.layers.get(name).copied().unwrap_or(0.0),
            )
        })
        .collect()
}

/// The workload-specific metrics the README names (request latency
/// and failures, throughput, reaction times, DST cell verdicts), as
/// human-readable lines; the result line carries [`END_TO_END`].
pub fn named_lines(w: Workload, r: &RunResult, peak_rss_mb: f64) -> Vec<String> {
    let mut out = Vec::new();
    let mut line = |name: &str, v: f64, unit: &str, note: String| {
        out.push(format!("metric {name} {v} {unit}{note}"));
    };
    line(
        "setup_s",
        median(&r.setup_s),
        "s",
        format!("  (median of {} set-ups)", r.setup_s.len()),
    );
    let c = &r.counts;
    if w != Workload::Dst {
        let ops = r.ops.values();
        let n = format!("  (n={})", r.ops.seen());
        line("req_p50_us", percentile(ops, 50.0) / 1e3, "us", n.clone());
        line("req_p99_us", percentile(ops, 99.0) / 1e3, "us", n);
        line(
            "req_fail_frac",
            frac(c.failed_requests(), c.requests),
            "ratio",
            format!(
                "  ({} unserved + {} wrong of {})",
                c.unserved, c.wrong, c.requests
            ),
        );
    }
    if w == Workload::Steady {
        line(
            "req_per_s",
            c.requests as f64 / (r.req_ns_total as f64 / 1e9).max(1e-9),
            "1/s",
            String::from("  (closed loop, 1 client)"),
        );
    }
    if matches!(w, Workload::Rolling | Workload::Failover) {
        let ms: Vec<u64> = r.reactions_ms.iter().map(|v| (v * 1e6) as u64).collect();
        let tail = tail_percentile(ms.len());
        line(
            "reaction_ms_p50",
            median(&r.reactions_ms),
            "ms",
            format!("  (n={})", ms.len()),
        );
        line(
            "reaction_ms_tail",
            percentile(&ms, f64::from(tail)) / 1e6,
            "ms",
            format!("  (p{tail}, n={})", ms.len()),
        );
    }
    if w != Workload::Steady {
        line(
            "run_s",
            median(&r.round_s),
            "s",
            format!("  (median of {} rounds)", r.round_s.len()),
        );
    }
    if w == Workload::Dst {
        line(
            "cell_fail_frac",
            frac(c.cells_failed, c.cells),
            "ratio",
            format!("  ({} of {} cells)", c.cells_failed, c.cells),
        );
    }
    line("peak_rss_mb", peak_rss_mb, "MB", String::new());
    out
}

/// `VmHWM` of this process in MB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where the numbers came from: host, toolchain, code, seed and sizes.
pub fn provenance(
    w: Workload,
    seed: u64,
    seconds: f64,
    rounds: usize,
    trace: bool,
    r: &RunResult,
) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    // Only ask git inside a git checkout, so a parent repository's
    // commit is never reported for a plain source tree.
    let commit = std::path::Path::new(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    format!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"seconds\": {seconds}, \
         \"rounds\": {rounds}, \"trace\": {trace}, \"nproc\": {nproc}, \"cpu\": \"{}\", \
         \"rustc\": \"{}\", \"commit\": \"{}\", \"sizes\": \"{}\", \"counts\": {}}}",
        w.name(),
        escape(&cpu),
        escape(&rustc),
        escape(&commit),
        w.sizes(),
        counts_json(&r.counts)
    )
}

/// Every count, as a JSON object (same seed and rounds, same object).
pub fn counts_json(c: &Counts) -> String {
    let fields = [
        ("requests", c.requests),
        ("gets", c.gets),
        ("puts", c.puts),
        ("unserved", c.unserved),
        ("wrong", c.wrong),
        ("retries", c.retries),
        ("forward_hops", c.forward_hops),
        ("not_mine", c.not_mine),
        ("stale_routes", c.stale_routes),
        ("first_routes", c.first_routes),
        ("rpcs", c.rpcs),
        ("acks", c.acks),
        ("nacks", c.nacks),
        ("rebuilds", c.rebuilds),
        ("publishes", c.publishes),
        ("installs", c.installs),
        ("moves_completed", c.moves_completed),
        ("moves_aborted", c.moves_aborted),
        ("promotions", c.promotions),
        ("triggers", c.triggers),
        ("cells", c.cells),
        ("cells_failed", c.cells_failed),
        ("dst_served", c.dst_served),
        ("net_delivered", c.net_delivered),
        ("net_dropped", c.net_dropped),
        ("dst_verdicts", c.dst_verdicts),
    ];
    let mut out = String::from("{");
    for (i, (k, v)) in fields.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _infallible = write!(out, "{sep}\"{k}\": {v}");
    }
    out.push('}');
    out
}

/// A finite number as JSON (non-finite values print as 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        String::from("0")
    }
}

/// The result line: the last line the benchmark prints.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut m = String::new();
    for (i, (name, unit, v)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _infallible = write!(
            m,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(*v)
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{m}}}}}"
    )
}
