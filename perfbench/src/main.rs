//! `perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Untraced (`--trace 0`): sets the workload up, runs gated ops for
//! `--seconds` and prints the end-to-end metrics. `all` splits the time
//! across the five workloads in one process and prefixes each metric
//! with its workload. Traced (`--trace 1`): runs all five workloads
//! (the per-layer metric set spans them all), each for a fifth of
//! `--seconds` alternating untraced and traced ops, writes the span
//! buffer out and prints the per-layer metrics. The last stdout line is
//! always one JSON object; a failed gate exits 1 and names the check.

use std::fs;
use std::process::ExitCode;

use perfbench::runner::{self, Metric};
use perfbench::spans::Spans;
use perfbench::{host, Failure, Kind};

const USAGE: &str =
    "usage: perfbench --workload <serve-rt|serve-oracle|lut-infer|eval-regen|model-reload|all> [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workloads: Vec<Kind>,
    all: bool,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let all = workload == "all";
    let workloads = if all {
        Kind::ALL.to_vec()
    } else {
        vec![Kind::parse(&workload).ok_or_else(|| format!("unknown workload {workload}"))?]
    };
    Ok(Args {
        workloads,
        all,
        seed,
        seconds,
        trace,
    })
}

fn seed_for(args: &Args, kind: Kind) -> u64 {
    args.seed.unwrap_or_else(|| kind.default_seed())
}

fn print_metrics(label: &str, metrics: &[Metric]) {
    for m in metrics {
        println!("{label:<13} {:<26} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

/// Untraced run of each requested workload, `seconds` split evenly.
fn run_untraced(args: &Args) -> Result<(u64, Vec<Metric>), Failure> {
    let share = args.seconds / args.workloads.len() as f64;
    let (mut attempted, mut metrics) = (0, Vec::new());
    for &kind in &args.workloads {
        let run = runner::run(kind, seed_for(args, kind), share, &mut Spans::disabled())?;
        attempted += run.plain.ops() as u64;
        let e2e = runner::end_to_end(&run);
        println!(
            "# {}: {} ops measured, {} set-up repetitions",
            kind.name(),
            run.plain.ops(),
            run.setup_s.len()
        );
        print_metrics(kind.name(), &e2e);
        metrics.extend(e2e.into_iter().map(|m| Metric {
            name: if args.all {
                format!("{}.{}", kind.name(), m.name)
            } else {
                m.name
            },
            ..m
        }));
    }
    Ok((attempted, metrics))
}

/// Traced run of all five workloads.
fn run_traced(args: &Args) -> Result<(u64, Vec<Metric>), Failure> {
    let share = args.seconds / Kind::ALL.len() as f64;
    let mut spans = Spans::new();
    let mut runs = Vec::new();
    for kind in Kind::ALL {
        let run = runner::run(kind, seed_for(args, kind), share, &mut spans)?;
        println!(
            "# {}: {} untraced and {} traced ops",
            kind.name(),
            run.plain.ops(),
            run.traced.ops()
        );
        runs.push(run);
    }
    let dir = perfbench::work_dir();
    let seed = args
        .seed
        .map_or_else(|| "default".to_string(), |s| s.to_string());
    let path = dir.join(format!("spans-seed-{seed}.tsv"));
    fs::create_dir_all(&dir)
        .and_then(|()| fs::write(&path, spans.to_tsv()))
        .map_err(|e| Failure::new("trace.write", format!("{}: {e}", path.display())))?;
    println!(
        "# span buffer: {} spans written to {}",
        spans.spans().len(),
        path.display()
    );
    let metrics = runner::per_layer(&spans, &runs);
    print_metrics("traced", &metrics);
    let attempted = runs
        .iter()
        .map(|r| (r.plain.ops() + r.traced.ops()) as u64)
        .sum();
    Ok((attempted, metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let kinds = if args.trace {
        Kind::ALL.to_vec()
    } else {
        args.workloads.clone()
    };
    let seeds: Vec<String> = kinds
        .iter()
        .map(|&k| format!("{}={}", k.name(), seed_for(&args, k)))
        .collect();
    println!(
        "# perfbench trace={} seconds={} nproc={} commit={} rustc=\"{}\"",
        u8::from(args.trace),
        args.seconds,
        host::nproc(),
        host::git_commit(&perfbench::repo_root()),
        host::rustc_version()
    );
    println!(
        "# seeds: {} (serve-oracle faults: {}); bfree::par jobs: {}",
        seeds.join(" "),
        perfbench::serve_oracle::FAULT_SEED,
        kinds
            .iter()
            .map(|k| format!("{}={}", k.name(), k.jobs()))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let result = if args.trace {
        run_traced(&args)
    } else {
        run_untraced(&args)
    };
    match result {
        Ok((attempted, metrics)) => {
            println!("{}", runner::json_line(true, attempted, 0, &metrics));
            ExitCode::SUCCESS
        }
        Err(failure) => {
            eprintln!("perfbench: {failure}");
            println!("{}", runner::json_line(false, 1, 1, &[]));
            ExitCode::FAILURE
        }
    }
}
