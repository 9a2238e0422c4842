//! The TSHMEM stack benchmark.
//!
//! ```text
//! stackbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload in this process for about `--seconds`, checks every
//! output against a computation made apart from the program, and prints
//! two lines: a detail line (run identity, operations attempted and
//! failed, every named figure with its median, quartiles, tail and
//! sample count) and, last, the result line with the metrics listed in
//! `BENCHMARK.json`. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` runs the workload untraced and traced for half the time
//! each, reports the difference of every end-to-end metric as the
//! tracing overhead, and reports every per-layer metric of the stack
//! (the other workloads' traced drivers run once each).

mod checks;
mod coll;
mod fft2d;
mod figsim;
mod report;
mod serve;
mod stats;
mod sys;

use report::{Checks, Detail, Metric, Outcome};

type Driver = fn(u64, f64) -> Outcome;

struct Workload {
    name: &'static str,
    /// What one counted operation is.
    noun: &'static str,
    run: Driver,
    traced: Driver,
}

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fft2d-native",
        noun: "transforms",
        run: fft2d::run,
        traced: fft2d::traced,
    },
    Workload {
        name: "coll-coop128",
        noun: "collective rounds",
        run: coll::run,
        traced: coll::traced,
    },
    Workload {
        name: "serve-closed",
        noun: "jobs",
        run: serve::run,
        traced: serve::traced,
    },
    Workload {
        name: "figsim-timed",
        noun: "figure points",
        run: figsim::run,
        traced: figsim::traced,
    },
];

/// Seconds given to each other workload's traced driver in a traced
/// run; every driver runs at least one whole launch, server lifetime or
/// figure set.
const PROBE_SECS: f64 = 0.5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, None, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    // No default: a run's length is part of what its figures mean, and
    // BENCHMARK.json's run_seconds is the one the bounds were set at.
    let seconds = seconds.ok_or("--seconds is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    sys::pin_mmap_threshold();
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("stackbench: {e}");
        eprintln!("usage: stackbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
        std::process::exit(2);
    });
    let Some(w) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "stackbench: unknown workload {} (one of {})",
            args.workload,
            names.join(", ")
        );
        std::process::exit(2);
    };

    let mut checks = Checks::default();
    let mut ops = Vec::new();
    let mut details: Vec<Detail> = Vec::new();
    let (attempted, failed, metrics) = if !args.trace {
        let o = (w.run)(args.seed, args.seconds);
        let metrics = o.e2e.metrics(sys::peak_rss_mb());
        ops.push((w.noun.to_string(), o.attempted, o.failed));
        checks.absorb(o.checks);
        details.extend(o.detail);
        details.push(Detail::Dist("setup_s", "s", o.e2e.setup));
        details.push(Detail::Dist("setup_wall_s", "s", o.e2e.setup_wall));
        (o.attempted, o.failed, metrics)
    } else {
        let half = args.seconds / 2.0;
        let plain = (w.run)(args.seed, half);
        let plain_e2e = plain.e2e.metrics(sys::peak_rss_mb());
        let traced = (w.traced)(args.seed, half);
        let traced_e2e = traced.e2e.metrics(sys::peak_rss_mb());
        let mut own = Some(traced);
        let mut layers = Vec::new();
        let mut totals = (0, 0);
        for x in &WORKLOADS {
            let o = match own.take_if(|_| x.name == w.name) {
                Some(o) => o,
                None => (x.traced)(args.seed, PROBE_SECS),
            };
            layers.extend(o.layers.iter().cloned());
            ops.push((format!("{} (traced)", x.noun), o.attempted, o.failed));
            totals = (totals.0 + o.attempted, totals.1 + o.failed);
            checks.absorb(o.checks);
            details.extend(o.detail);
        }
        ops.push((
            format!("{} (untraced)", w.noun),
            plain.attempted,
            plain.failed,
        ));
        totals = (totals.0 + plain.attempted, totals.1 + plain.failed);
        checks.absorb(plain.checks);
        for (t, p) in traced_e2e.iter().zip(&plain_e2e) {
            layers.push(Metric::new(
                format!("trace_overhead.{}", t.name),
                t.unit,
                t.value - p.value,
            ));
        }
        (totals.0, totals.1, layers)
    };

    let finite = metrics.iter().all(|m| m.value.is_finite());
    if !finite {
        checks.check(Err("a metric has no finite value".into()));
    }
    let correct = checks.wrong == 0 && attempted > 0;
    println!(
        "{}",
        report::detail_line(w.name, args.seed, args.trace, &ops, &checks, &details)
    );
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &metrics)
    );
    std::process::exit(if correct { 0 } else { 1 });
}
