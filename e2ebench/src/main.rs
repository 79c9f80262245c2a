//! `e2ebench --workload <steady|rolling|failover|dst> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Prints human-readable metric lines and a provenance line, then, as
//! the last line of standard output, one JSON result object. Full
//! results (and the span log of a traced run) go to `.bench_out/`.
//! Exits 1 when an output check fails, 2 on bad arguments.

use e2ebench::report;
use e2ebench::stack::Mutation;
use e2ebench::trace::CountingAlloc;
use e2ebench::workloads::{self, RunOpts, Workload};
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const USAGE: &str =
    "usage: e2ebench --workload <steady|rolling|failover|dst> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn write_out(name: &str, body: &str) {
    let dir = std::path::Path::new(".bench_out");
    let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(dir.join(name), body));
    if let Err(e) = written {
        eprintln!("e2ebench: could not write .bench_out/{name}: {e}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let rounds = w.rounds_for(args.seconds);
    let opts = RunOpts {
        seed: args.seed,
        trace: args.trace,
        rounds,
        shards: None,
        mutation: Mutation::None,
    };
    let result = match workloads::run(w, opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2ebench: output check failed: {e}");
            println!("{}", report::result_line(false, 1, 1, &[]));
            return ExitCode::from(1);
        }
    };
    let rss = report::peak_rss_mb();
    let (metrics, lines) = if args.trace {
        (report::per_layer(&result), Vec::new())
    } else {
        (
            report::end_to_end(w, &result, rss),
            report::named_lines(w, &result, rss),
        )
    };
    let provenance = report::provenance(w, args.seed, args.seconds, rounds, args.trace, &result);
    let line = report::result_line(true, result.attempted(w).max(1), result.failed(w), &metrics);
    for l in &lines {
        println!("{l}");
    }
    for (name, unit, v) in &metrics {
        println!(
            "{} {name} {v} {unit}",
            if args.trace { "layer" } else { "e2e" }
        );
    }
    println!("provenance {provenance}");
    let stem = format!(
        "{}-seed{}-trace{}",
        w.name(),
        args.seed,
        u8::from(args.trace)
    );
    write_out(
        &format!("{stem}.json"),
        &format!("{{\"provenance\": {provenance}, \"result\": {line}}}\n"),
    );
    if args.trace {
        write_out(&format!("{stem}-spans.tsv"), &result.span_log);
    }
    println!("{line}");
    ExitCode::SUCCESS
}
