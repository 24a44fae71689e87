//! End-to-end benchmark of the FrogWild reproduction.
//!
//! ```text
//! frogwild-perfbench --workload <frogwild-topk|graphlab-pr|index-serve> --seed <n>
//!                    --seconds <s> --trace <0|1>
//!                    [--trace-dir <dir>] [--fingerprint-check <file>]
//! ```
//!
//! Builds its inputs from the seed, times set-up and the query loop against the
//! public API, checks every answer, and prints one JSON object as its last line:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics of a traced run
//! with `--trace 1`. It exits non-zero when a correctness check fails. See
//! `README.md` beside this package.

mod common;
mod engine;
mod index_serve;
mod layers;
mod tracing;

use std::process::ExitCode;

use common::{Report, Res, WORKERS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: Option<String>,
    fingerprint_check: Option<String>,
}

fn parse_args() -> Res<Args> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        trace_dir: None,
        fingerprint_check: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            "--trace-dir" => args.trace_dir = Some(value),
            "--fingerprint-check" => args.fingerprint_check = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Runs the workload; a traced run returns its Chrome trace.
fn run(args: &Args, report: &mut Report) -> Res<Option<String>> {
    let (seed, seconds) = (args.seed, args.seconds);
    match (args.workload.as_str(), args.trace) {
        ("frogwild-topk", false) => engine::FROGWILD_TOPK
            .run(seed, seconds, report)
            .map(|()| None),
        ("frogwild-topk", true) => engine::FROGWILD_TOPK.run_traced(seed, seconds, report),
        ("graphlab-pr", false) => engine::GRAPHLAB_PR
            .run(seed, seconds, report)
            .map(|()| None),
        ("graphlab-pr", true) => engine::GRAPHLAB_PR.run_traced(seed, seconds, report),
        ("index-serve", false) => index_serve::run(seed, seconds, report).map(|()| None),
        ("index-serve", true) => index_serve::run_traced(seed, seconds, report),
        (other, _) => Err(format!(
            "unknown workload {other:?} (expected frogwild-topk, graphlab-pr or index-serve)"
        )),
    }
}

/// Compares the run's fingerprint with the lines of `path` for this workload and
/// seed. Each line reads `<workload> <seed> <name> <value>`.
fn check_fingerprint(path: &str, args: &Args, report: &mut Report) -> Res<()> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let prefix = format!("{} {} ", args.workload, args.seed);
    let expected: Vec<&str> = text
        .lines()
        .filter_map(|l| l.strip_prefix(&prefix))
        .collect();
    if expected.is_empty() {
        return Err(format!(
            "{path} has no fingerprint for {}",
            prefix.trim_end()
        ));
    }
    let actual: Vec<String> = report
        .fingerprint
        .iter()
        .map(|(n, v)| format!("{n} {v}"))
        .collect();
    let mut mismatches = Vec::new();
    for line in &expected {
        if !actual.iter().any(|a| a == line) {
            mismatches.push(format!("expected {line}"));
        }
    }
    for line in &actual {
        if !expected.contains(&line.as_str()) {
            mismatches.push(format!("got {line}"));
        }
    }
    for m in &mismatches {
        report.line(format!("fingerprint mismatch: {m}"));
    }
    report.check(
        "fingerprint",
        mismatches.is_empty(),
        format!("{} counters equal {path}", expected.len()),
    );
    Ok(())
}

fn json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "host: nproc={nproc}; engine workers={WORKERS} (parallel=true), serve workers={WORKERS}, \
         walk-index build threads=1 (parallel=false); workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut report = Report::default();
    let trace = match run(&args, &mut report) {
        Ok(trace) => trace,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &args.fingerprint_check {
        if let Err(e) = check_fingerprint(path, &args, &mut report) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let (Some(dir), Some(trace)) = (&args.trace_dir, trace) {
        let path = format!("{dir}/{}-seed{}.json", args.workload, args.seed);
        let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, trace));
        match written {
            Ok(()) => report.line(format!("chrome trace: {path}")),
            Err(e) => {
                eprintln!("error: writing {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    for line in &report.lines {
        println!("{line}");
    }
    for (name, value) in &report.fingerprint {
        println!("fingerprint {} {} {name} {value}", args.workload, args.seed);
    }
    for (name, passed, detail) in &report.checks {
        println!(
            "check {name}: {} ({detail})",
            if *passed { "ok" } else { "FAILED" }
        );
    }
    println!("{}", json(&report));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
