//! Reconfiguration acceptance gate (tier-1; wired into
//! `scripts/check.sh`): joint-consensus membership changes under
//! chaos.
//!
//! Four layers of checks:
//!
//! - the smoke swarm — 8 seeds of [`FaultProfile::ReconfigChaos`]
//!   (crashes, session expiries, and partitions landing inside a
//!   continuous drain/undrain churn loop) completes with **zero
//!   invariant violations**, every acked write intact, and the runs
//!   are not vacuous: each seed commits real membership changes AND
//!   has migration steps genuinely interrupted by an active fault;
//! - determinism: the same `(config, plan)` cell reproduces stats,
//!   verdict, and plan exactly;
//! - the documented mutation (`single_step`, which replaces joint
//!   `C_old,new` bridges with one-shot voter-set swaps) is caught by
//!   the `ReplicaSetAgreement` / acked-then-lost oracle, shrunk to a
//!   minimal fault plan, and the reproducer round-trips through its
//!   JSON form and still fails on replay;
//! - the fix fixes it: the shrunk plan is clean with joint consensus
//!   back on.

use shard_manager::apps::reconfig::{ReconfigConfig, ReconfigWorld};
use shard_manager::apps::{DstConfig, FaultWorld};
use shard_manager::sim::faults::FaultProfile;
use shard_manager::sim::oracle::InvariantKind;

/// The fixed smoke grid: 8 seeds of the reconfiguration-chaos profile.
fn smoke_grid() -> Vec<DstConfig> {
    (0..8)
        .map(|seed| DstConfig::new(seed, FaultProfile::ReconfigChaos))
        .collect()
}

#[test]
fn reconfig_smoke_swarm_is_violation_free_and_not_vacuous() {
    let mut interrupted_total = 0;
    let mut joint_total = 0;
    for cfg in smoke_grid().into_iter().map(ReconfigWorld::config) {
        let r = ReconfigWorld::run(cfg);
        let tag = format!("seed={}", cfg.seed);
        println!(
            "{tag}: stats={:?} rpc={:?} net_blocked={} unplaced={}",
            r.stats, r.rpc, r.net.blocked, r.unplaced
        );
        assert_eq!(
            r.total_violations, 0,
            "{tag}: joint consensus must keep every invariant: {:?}",
            r.violations
        );
        assert!(r.converged, "{tag}: {} shards unplaced", r.unplaced);

        // Traffic was real and nothing acked went missing.
        assert!(r.stats.writes_acked > 200, "{tag}: {:?}", r.stats);

        // Non-vacuity, per seed: the churn loop committed real
        // membership changes while the plan injected real faults.
        assert!(r.stats.reconfigs_completed >= 8, "{tag}: {:?}", r.stats);
        assert!(r.stats.server_crashes >= 1, "{tag}: {:?}", r.stats);
        assert!(r.stats.net_partitions >= 1, "{tag}: {:?}", r.stats);
        interrupted_total += r.stats.reconfigs_interrupted;
        joint_total += r.stats.joint_interruptions;
    }
    // Non-vacuity, across the grid: faults genuinely interrupted
    // in-flight reconfigurations — migration steps nacked or timed out
    // while a fault was active, a healthy share of them with a joint
    // configuration literally uncommitted in the log.
    assert!(
        interrupted_total >= 20,
        "only {interrupted_total} interrupted reconfigurations across the grid"
    );
    assert!(
        joint_total >= 1,
        "no interruption landed during a joint phase"
    );
}

#[test]
fn same_cell_reproduces_exactly() {
    let cfg = ReconfigConfig::dst(3, FaultProfile::ReconfigChaos);
    let a = ReconfigWorld::run(cfg);
    let b = ReconfigWorld::run(cfg);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.rpc, b.rpc);
    assert_eq!(a.verdict(), b.verdict());
    assert_eq!(a.plan, b.plan);
    // Different seeds still differ (the comparison above is not
    // trivially comparing empty runs).
    let c = ReconfigWorld::run(ReconfigConfig::dst(4, FaultProfile::ReconfigChaos));
    assert_ne!((&a.stats, a.rpc), (&c.stats, c.rpc));
}

/// THE DOCUMENTED MUTATION: `single_step` makes every group commit
/// membership changes as one-shot voter-set swaps instead of routing
/// them through a joint `C_old,new` entry. A drain handover swaps one
/// voter for another — old and new sets then admit disjoint quorums,
/// which is exactly how pre-joint-consensus Raft loses acked writes.
/// The oracle must catch it, the ddmin shrinker must cut the fault
/// plan to a minimal reproducer, and the reproducer must survive a
/// JSON round-trip and still fail on replay.
#[test]
fn single_step_membership_change_is_caught_shrunk_and_replayable() {
    let failing = smoke_grid()
        .into_iter()
        .map(|cell| {
            let cell = DstConfig {
                mutate: true,
                ..cell
            };
            (cell, ReconfigWorld::run(ReconfigWorld::config(cell)))
        })
        .find(|(_, r)| r.failed())
        .expect("within the smoke grid the single-step mutation must cause a violation");
    let (cell, report) = failing;
    let cfg = ReconfigWorld::config(cell);
    assert!(cfg.single_step);

    // Caught: by the replica-set-agreement audit or the acked-write
    // sweep, not collateral noise.
    let kinds = report.violated_kinds();
    assert!(
        kinds.contains(&InvariantKind::ReplicaSetAgreement)
            || kinds.contains(&InvariantKind::StaleRead),
        "unexpected kinds: {kinds:?}"
    );
    assert!(
        kinds.iter().all(|k| matches!(
            k,
            InvariantKind::ReplicaSetAgreement | InvariantKind::StaleRead
        )),
        "collateral violation kinds: {kinds:?}"
    );

    // Shrunk: the churn loop alone (plus at most a few fault events)
    // reproduces the corruption.
    let minimal =
        ReconfigWorld::shrink(cfg, &report.plan).expect("a failing plan must be shrinkable");
    assert!(
        minimal.len() <= 5,
        "reproducer has {} events: {minimal:?}",
        minimal.len()
    );

    // Replayable: through the JSON form and back, the minimal plan
    // still fails with the same invariant kind(s).
    let json = ReconfigWorld::repro_to_json(cell, &minimal);
    let (cell2, plan2) =
        ReconfigWorld::repro_from_json(&json).expect("emitted reproducer JSON parses");
    assert_eq!(cell2, cell);
    assert_eq!(plan2, minimal);
    let replay = ReconfigWorld::run_with_plan(ReconfigWorld::config(cell2), plan2.clone());
    assert!(replay.failed(), "minimal reproducer must still fail");
    assert!(
        replay.violated_kinds().iter().all(|k| kinds.contains(k)),
        "replay drifted to different kinds: {:?} vs {kinds:?}",
        replay.violated_kinds()
    );

    // And the fix fixes it: the same seed and plan with joint
    // consensus restored is clean.
    let fixed = ReconfigWorld::run_with_plan(
        ReconfigConfig {
            single_step: false,
            ..cfg
        },
        plan2,
    );
    assert_eq!(
        fixed.total_violations, 0,
        "joint consensus must neutralize the reproducer: {:?}",
        fixed.violations
    );
    assert!(fixed.converged);
}
