//! Differential gate for the calendar event queue: every DES world must
//! produce **byte-identical** runs under the calendar queue and the
//! reference binary heap.
//!
//! The engine's ordering contract is `(at, seq)` — time, then push
//! order — and both queue implementations must realize it exactly,
//! including tie ordering within one microsecond. Any divergence shows
//! up here as a trace or report mismatch long before it could corrupt a
//! figure or a swarm verdict.
//!
//! Coverage: 21 seeded cells across the three fault worlds (chaos, DST
//! fault profiles, reconfiguration chaos, skew-storm splits), each run
//! twice — once per queue kind, through the generic
//! [`FaultWorld::run_queued`] — and compared on the full trace CSV plus
//! the entire `Debug`-rendered report (stats, violations, counters).

use shard_manager::apps::{
    ChaosConfig, ChaosWorld, DstConfig, FaultWorld, ReconfigConfig, ReconfigWorld, SplitConfig,
    SplitWorld,
};
use shard_manager::sim::faults::FaultProfile;
use shard_manager::sim::QueueKind;

/// Asserts the two queue kinds produced the same run: traces first (the
/// sharpest signal, byte for byte), then the whole report.
fn assert_same(cell: &str, trace_a: &str, trace_b: &str, dbg_a: String, dbg_b: String) {
    assert_eq!(
        trace_a, trace_b,
        "{cell}: traces diverged between calendar queue and binary heap"
    );
    assert_eq!(
        dbg_a, dbg_b,
        "{cell}: reports diverged between calendar queue and binary heap"
    );
}

#[test]
fn chaos_runs_are_identical_across_queue_kinds() {
    for seed in [0, 7, 42, 1337] {
        let a = ChaosWorld::run_queued(ChaosConfig::covering(seed), QueueKind::Calendar);
        let b = ChaosWorld::run_queued(ChaosConfig::covering(seed), QueueKind::BinaryHeap);
        assert_same(
            &format!("chaos seed={seed}"),
            &a.trace_csv,
            &b.trace_csv,
            format!("{a:?}"),
            format!("{b:?}"),
        );
    }
}

#[test]
fn dst_cells_are_identical_across_queue_kinds() {
    let profiles = [
        FaultProfile::SymPartition,
        FaultProfile::AsymPartition,
        FaultProfile::Mixed,
    ];
    for profile in profiles {
        for seed in 0..3 {
            let cfg = ChaosWorld::config(DstConfig::new(seed, profile));
            let a = ChaosWorld::run_queued(cfg, QueueKind::Calendar);
            let b = ChaosWorld::run_queued(cfg, QueueKind::BinaryHeap);
            // The verdict folds the oracle outcome into one string.
            assert_eq!(a.verdict(), b.verdict());
            assert_same(
                &format!("dst profile={} seed={seed}", profile.name()),
                &a.trace_csv,
                &b.trace_csv,
                format!("{a:?}"),
                format!("{b:?}"),
            );
        }
    }
}

#[test]
fn reconfig_runs_are_identical_across_queue_kinds() {
    for seed in [0, 3, 11, 29] {
        let cfg = ReconfigConfig::dst(seed, FaultProfile::ReconfigChaos);
        let a = ReconfigWorld::run_queued(cfg, QueueKind::Calendar);
        let b = ReconfigWorld::run_queued(cfg, QueueKind::BinaryHeap);
        assert_same(
            &format!("reconfig seed={seed}"),
            &a.trace_csv,
            &b.trace_csv,
            format!("{a:?}"),
            format!("{b:?}"),
        );
    }
}

#[test]
fn split_runs_are_identical_across_queue_kinds() {
    for seed in [0, 3, 11, 29] {
        let cfg = SplitConfig::dst(seed, FaultProfile::SplitChaos);
        let a = SplitWorld::run_queued(cfg, QueueKind::Calendar);
        let b = SplitWorld::run_queued(cfg, QueueKind::BinaryHeap);
        assert_same(
            &format!("split seed={seed}"),
            &a.trace_csv,
            &b.trace_csv,
            format!("{a:?}"),
            format!("{b:?}"),
        );
    }
}
