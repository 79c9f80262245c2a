//! Tier-1 gate: drain planning scales with the cluster, not with the
//! cluster squared.
//!
//! `Orchestrator::drain_server` picks a target for each replica on the
//! drained server from one per-server usage table built per call, so at
//! a constant number of shards per server a drain at 4N servers should
//! cost about 4× a drain at N. Re-reading every server's usage per
//! candidate made it about 16×. The gate is a ratio of two timings on
//! the same host (each the fastest of three), so it holds on slow and
//! fast machines alike.

use shard_manager::allocator::{AllocConfig, MoveCaps};
use shard_manager::core::{Orchestrator, OrchestratorConfig};
use shard_manager::types::{
    AppId, AppPolicy, LoadVector, Location, MachineId, Metric, RegionId, ServerId,
};
use std::time::{Duration, Instant};

/// Shards per server, held constant across the ladder.
const SHARDS_PER_SERVER: u32 = 32;
/// Servers at the ladder's small end.
const SMALL: u32 = 32;
/// Bound on time(4N) / time(N): linear gives about 4, quadratic 16.
const MAX_RATIO: f64 = 8.0;
const REPEATS: usize = 3;

/// An orchestrator over `servers` servers with `SHARDS_PER_SERVER`
/// primaries each, restored from a snapshot (no solver run).
fn cluster(servers: u32) -> Orchestrator {
    let config = OrchestratorConfig {
        graceful_migration: true,
        move_caps: MoveCaps {
            max_total: 4096,
            max_per_server: 256,
            max_per_shard: 1,
        },
        alloc: AllocConfig::new(vec![Metric::ShardCount.id()]),
        skip_cutover_ack: false,
    };
    let mut o = Orchestrator::new(AppId(1), AppPolicy::primary_only(), config);
    for i in 0..servers {
        let location = Location {
            region: RegionId(0),
            datacenter: 0,
            rack: i / 8,
            machine: MachineId(i),
        };
        let capacity =
            LoadVector::single(Metric::ShardCount.id(), 4.0 * f64::from(SHARDS_PER_SERVER));
        o.register_server(ServerId(i), location, capacity);
    }
    let mut snapshot = String::from("smorch v1\nversion 1\n");
    for s in 0..servers * SHARDS_PER_SERVER {
        snapshot += &format!("desired {s} 1\nreplica {s} {} P\n", s % servers);
    }
    o.restore(snapshot.as_bytes())
        .expect("well-formed snapshot");
    o
}

/// The fastest of `REPEATS` drains of one server, each on a fresh
/// cluster of `servers` servers.
fn drain_time(servers: u32) -> Duration {
    (0..REPEATS)
        .map(|_| {
            let mut o = cluster(servers);
            // sm-lint: allow(D1) — wall-clock time is what this gate measures; it feeds no simulated state
            let start = Instant::now();
            let started = o.drain_server(ServerId(0));
            let took = start.elapsed();
            assert_eq!(started, SHARDS_PER_SERVER as usize, "every replica moves");
            took
        })
        .min()
        .expect("at least one repeat")
}

#[test]
fn drain_planning_cost_grows_linearly_with_cluster_size() {
    let small = drain_time(SMALL);
    let large = drain_time(4 * SMALL);
    let ratio = large.as_secs_f64() / small.as_secs_f64().max(1e-9);
    eprintln!(
        "drain at {SMALL} servers: {small:?}; at {}: {large:?}; ratio {ratio:.2}",
        4 * SMALL
    );
    assert!(
        ratio < MAX_RATIO,
        "draining one server at {} servers took {ratio:.1}x the time at {SMALL} \
         (same shards per server) — planning is walking the cluster per candidate",
        4 * SMALL
    );
}
