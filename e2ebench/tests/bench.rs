//! The benchmark's own tests: counts repeat per seed, the seed drives
//! the key stream, broken bench loops trip the output checks, and the
//! metric tables agree with `BENCHMARK.json`.

use e2ebench::report::{END_TO_END, PER_LAYER};
use e2ebench::stack::{Mutation, Stack, StackConfig};
use e2ebench::trace::Tracer;
use e2ebench::workloads::{run, RunOpts, RunResult, Workload};

fn opts(seed: u64, rounds: usize, mutation: Mutation) -> RunOpts {
    RunOpts {
        seed,
        trace: false,
        rounds,
        shards: Some(512),
        mutation,
    }
}

fn small(w: Workload, seed: u64, rounds: usize) -> RunResult {
    run(w, opts(seed, rounds, Mutation::None)).expect("a healthy bench loop passes every check")
}

#[test]
fn same_seed_gives_identical_counts() {
    for (w, rounds) in [
        (Workload::Steady, 2),
        (Workload::Rolling, 3),
        (Workload::Failover, 1),
        (Workload::Dst, 1),
    ] {
        let a = small(w, 7, rounds);
        let b = small(w, 7, rounds);
        assert_eq!(
            a.counts,
            b.counts,
            "{}: counts differ for one seed",
            w.name()
        );
        assert!(a.attempted(w) > 0, "{}: nothing attempted", w.name());
    }
}

#[test]
fn control_plane_workloads_do_control_plane_work() {
    let rolling = small(Workload::Rolling, 3, 3).counts;
    assert_eq!(rolling.triggers, 3);
    assert!(rolling.moves_completed > 0 && rolling.installs > 0 && rolling.publishes > 0);
    assert!(rolling.forward_hops + rolling.stale_routes > 0);
    let failover = small(Workload::Failover, 3, 1).counts;
    assert_eq!(failover.triggers, 4);
    assert!(failover.promotions > 0 && failover.rebuilds > 0);
    let dst = small(Workload::Dst, 3, 1).counts;
    assert_eq!(dst.cells, 14);
    assert!(dst.dst_served > 0 && dst.net_delivered > 0);
}

#[test]
fn run_length_is_fixed_work() {
    for w in Workload::ALL {
        assert_eq!(w.rounds_for(20.0), w.rounds_for(20.0));
        assert!(w.rounds_for(20.0) > w.rounds_for(5.0), "{}", w.name());
    }
    // Whole passes over the DST seed pool, so every cell runs equally often.
    assert_eq!(Workload::Dst.rounds_for(20.0) % 16, 0);
}

#[test]
fn seed_drives_the_key_stream() {
    let stack = |seed| {
        let cfg = Workload::Steady
            .stack_config(seed, Mutation::None)
            .expect("steady drives a stack");
        Stack::build(StackConfig { shards: 512, ..cfg }, Tracer::new(false))
    };
    let a = stack(1).peek_key_stream(64);
    assert_eq!(a, stack(1).peek_key_stream(64));
    assert_ne!(a, stack(2).peek_key_stream(64));
    let steady = |seed| small(Workload::Steady, seed, 1).counts;
    assert_ne!(steady(1).puts, steady(2).puts);
}

#[test]
fn skipped_router_installs_trip_a_check() {
    let err = run(Workload::Rolling, opts(5, 2, Mutation::SkipInstalls))
        .err()
        .expect("routers that never install a map must fail a check");
    assert!(err.contains("routes with map"), "{err}");
}

#[test]
fn dropped_drop_shard_deliveries_trip_a_check() {
    let err = run(Workload::Rolling, opts(5, 2, Mutation::DropDropShard))
        .err()
        .expect("migrations stuck without their DropShard must fail a check");
    assert!(
        err.contains("in flight") || err.contains("still hosts"),
        "{err}"
    );
}

#[test]
fn benchmark_json_lists_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let flat: String = text.split_whitespace().collect::<Vec<_>>().join(" ");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(flat.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    // `failover` runs on demand only: on the 2-vCPU build host its
    // timings spread past the 0.25 bound between runs (see README.md).
    for w in Workload::ALL {
        let entry = format!("\"name\": \"{}\", \"why\"", w.name());
        assert_eq!(
            flat.contains(&entry),
            w != Workload::Failover,
            "BENCHMARK.json and workload {}",
            w.name()
        );
    }
    let names = flat.matches("\"name\":").count();
    assert_eq!(
        names,
        Workload::ALL.len() - 1 + END_TO_END.len() + PER_LAYER.len()
    );
}
