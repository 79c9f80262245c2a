//! Seed-swarm DST runner: explores `(seed, fault profile)` grid cells
//! of one fault world, shrinks any failure to a minimal reproducer, and
//! emits it as replayable JSON.
//!
//! ```text
//! swarm [--world chaos|reconfig|split] [--seeds N] [--start-seed S]
//!       [--profiles a,b,c] [--threads T] [--mutate] [--out DIR]
//!       [--replay FILE]
//! ```
//!
//! - Default grid: seeds `S..S+N` (N = 8) across every fault profile.
//! - `--world` picks the world: `chaos` (the HA control plane under
//!   crashes, expiries and partitions; the default), `reconfig`
//!   (joint-consensus membership changes under churn) or `split`
//!   (adaptive splits and merges under load skew).
//! - `--mutate` enables the world's documented mutation — disabled
//!   §3.2 self-fencing (chaos), single-step membership changes
//!   (reconfig), commit-at-cutover-send (split) — to demonstrate the
//!   oracle catching real violations and the shrinker reducing them.
//! - Every shrunk reproducer is re-verified before it is reported: its
//!   JSON is parsed back and replayed, and one that no longer fails is
//!   called out.
//! - `--replay FILE` re-runs one reproducer JSON (as emitted by a
//!   failing swarm) and reports its oracle verdict. The file itself
//!   names the world it reproduces.
//!
//! Exit status: 0 when every cell is violation-free, 1 otherwise.

use sm_apps::{ChaosWorld, DstConfig, FaultWorld, ReconfigWorld, SplitWorld};
use sm_sim::faults::FaultProfile;
use std::process::ExitCode;

struct Args {
    world: String,
    seeds: u64,
    start_seed: u64,
    profiles: Vec<FaultProfile>,
    threads: usize,
    mutate: bool,
    out: Option<String>,
    replay: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        world: ChaosWorld::NAME.to_string(),
        seeds: 8,
        start_seed: 0,
        profiles: FaultProfile::ALL.to_vec(),
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        mutate: false,
        out: None,
        replay: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--world" => args.world = val("--world")?,
            "--seeds" => args.seeds = val("--seeds")?.parse().map_err(|e| format!("{e}"))?,
            "--start-seed" => {
                args.start_seed = val("--start-seed")?.parse().map_err(|e| format!("{e}"))?
            }
            "--profiles" => {
                args.profiles = val("--profiles")?
                    .split(',')
                    .map(|s| FaultProfile::parse(s).ok_or(format!("unknown profile: {s}")))
                    .collect::<Result<_, _>>()?;
            }
            "--threads" => args.threads = val("--threads")?.parse().map_err(|e| format!("{e}"))?,
            "--mutate" => args.mutate = true,
            "--out" => args.out = Some(val("--out")?),
            "--replay" => args.replay = Some(val("--replay")?),
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(args)
}

/// Replays `text` if it is a reproducer of world `W`.
fn replay<W: FaultWorld>(text: &str) -> Option<ExitCode> {
    let (cell, plan) = W::repro_from_json(text)?;
    println!(
        "replaying world={} seed={} profile={} {}={} ({} fault events)",
        W::NAME,
        cell.seed,
        cell.profile.name(),
        W::MUTATION,
        cell.mutate,
        plan.len()
    );
    let report = W::run_with_plan(W::config(cell), plan);
    print!("{}", report.verdict());
    if !report.failed() {
        println!("reproducer no longer fails");
    }
    Some(ExitCode::from(u8::from(report.failed())))
}

/// Runs the grid in world `W`, shrinking, re-verifying and emitting a
/// reproducer for every failing cell.
fn swarm<W: FaultWorld>(args: &Args) -> ExitCode {
    let cells: Vec<DstConfig> = args
        .profiles
        .iter()
        .flat_map(|&profile| {
            (args.start_seed..args.start_seed + args.seeds).map(move |seed| DstConfig {
                seed,
                profile,
                mutate: args.mutate,
            })
        })
        .collect();
    println!(
        "swarm: world={}, {} cells ({} seeds x {} profiles), {} threads{}",
        W::NAME,
        cells.len(),
        args.seeds,
        args.profiles.len(),
        args.threads,
        if args.mutate {
            format!(", MUTATION {} ON", W::MUTATION)
        } else {
            String::new()
        }
    );

    let cfgs: Vec<W::Config> = cells.iter().map(|&cell| W::config(cell)).collect();
    let reports = W::swarm(&cfgs, args.threads);
    let mut failures = 0u64;
    for ((cell, &cfg), report) in cells.iter().zip(&cfgs).zip(&reports) {
        let tag = format!("seed={:<4} profile={:<14}", cell.seed, cell.profile.name());
        if !report.failed() {
            println!("  ok   {tag} {}", W::summary(&report.stats));
            continue;
        }
        failures += 1;
        println!(
            "  FAIL {tag} {} violation(s): {:?}",
            report.total_violations,
            report.violated_kinds()
        );
        let original = &report.plan;
        let minimal = W::shrink(cfg, original).unwrap_or_else(|| original.clone());
        println!(
            "       shrunk {} -> {} fault events",
            original.len(),
            minimal.len()
        );
        let json = W::repro_to_json(*cell, &minimal);
        // Re-verify the artifact exactly as a reader will use it: parsed
        // back from its JSON and replayed.
        let reproduces = W::repro_from_json(&json)
            .is_some_and(|(cell, plan)| W::run_with_plan(W::config(cell), plan).failed());
        if !reproduces {
            println!("       reproducer no longer fails");
        }
        match &args.out {
            Some(dir) => {
                let file = format!(
                    "{dir}/repro-{}-{}-{}.json",
                    W::NAME,
                    cell.profile.name(),
                    cell.seed
                );
                if let Err(e) =
                    std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&file, &json))
                {
                    eprintln!("swarm: writing {file}: {e}");
                } else {
                    println!("       reproducer: {file}");
                }
            }
            None => print!("{json}"),
        }
    }
    println!(
        "swarm: {}/{} cells violation-free",
        reports.len() as u64 - failures,
        reports.len()
    );
    ExitCode::from(u8::from(failures > 0))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("swarm: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &args.replay {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("swarm: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        // A document parses only for the world it names.
        return replay::<ChaosWorld>(&text)
            .or_else(|| replay::<ReconfigWorld>(&text))
            .or_else(|| replay::<SplitWorld>(&text))
            .unwrap_or_else(|| {
                eprintln!("swarm: {path} is not a reproducer JSON");
                ExitCode::FAILURE
            });
    }
    match args.world.as_str() {
        ChaosWorld::NAME => swarm::<ChaosWorld>(&args),
        ReconfigWorld::NAME => swarm::<ReconfigWorld>(&args),
        SplitWorld::NAME => swarm::<SplitWorld>(&args),
        other => {
            eprintln!("swarm: unknown world: {other}");
            ExitCode::FAILURE
        }
    }
}
