//! What a workload run hands back, and the two lines the command prints:
//! a detail line with every named figure (median, quartiles, tail and
//! sample count) and, last, the result line with the metrics of
//! `BENCHMARK.json`.

use std::fmt::Write as _;

use crate::stats::Samples;
use crate::sys::Stamp;

/// Counts the outputs that failed their check, keeping the first few
/// messages for the detail line.
#[derive(Debug, Default)]
pub struct Checks {
    pub checked: u64,
    pub wrong: u64,
    pub messages: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, res: Result<(), String>) {
        self.checked += 1;
        if let Err(m) = res {
            self.wrong += 1;
            if self.messages.len() < 5 {
                self.messages.push(m);
            }
        }
    }

    pub fn absorb(&mut self, other: Checks) {
        self.checked += other.checked;
        self.wrong += other.wrong;
        for m in other.messages {
            if self.messages.len() < 5 {
                self.messages.push(m);
            }
        }
    }
}

/// The samples behind the end-to-end metrics of one workload run. Each
/// operation is timed twice: in process CPU time, which a shared host's
/// other tenants barely move, and in wall time on the slowest PE (or as
/// the client saw it), which shows work that got slower but idle, or
/// faster by running on both cores (see the README).
#[derive(Debug, Default)]
pub struct E2e {
    /// Process CPU time of each headline operation, ms.
    pub op: Samples,
    /// Process CPU time of each contrasting operation, ms.
    pub op2: Samples,
    /// Wall time of each headline operation, ms.
    pub op_wall: Samples,
    /// Wall time of each contrasting operation, ms.
    pub op2_wall: Samples,
    /// Process CPU time of each launch's set-up (or server start-up), s.
    pub setup: Samples,
    /// Wall time of the same set-ups, s (detail line and layers).
    pub setup_wall: Samples,
    /// Operations completed per second of each launch, server lifetime
    /// or figure set, from its call to its return (detail line only).
    pub rate: Samples,
}

impl E2e {
    /// Records one set-up from its call to its end.
    pub fn push_setup(&mut self, call: Stamp, end: Stamp) {
        self.setup.push((end.cpu - call.cpu).as_secs_f64());
        self.setup_wall.push((end.wall - call.wall).as_secs_f64());
    }
    /// The end-to-end metrics in `BENCHMARK.json` order, with the
    /// process's peak resident set passed in.
    pub fn metrics(&self, peak_rss_mb: f64) -> Vec<Metric> {
        vec![
            Metric::new("op_cpu_ms", "ms", self.op.median()),
            Metric::new("op2_cpu_ms", "ms", self.op2.median()),
            Metric::new("op_wall_ms", "ms", self.op_wall.median()),
            Metric::new("op2_wall_ms", "ms", self.op2_wall.median()),
            Metric::new("setup_s", "s", self.setup.median()),
            Metric::new("peak_rss_mb", "MB", peak_rss_mb),
        ]
    }
}

/// One named figure of the detail line.
#[derive(Debug)]
pub enum Detail {
    /// A distribution: printed as median, quartiles, tail and count.
    Dist(&'static str, &'static str, Samples),
    /// A single value (a simulated result, a ratio, a count).
    Value(&'static str, &'static str, f64),
}

/// Everything one workload run (traced or not) produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted, in whole rounds.
    pub attempted: u64,
    /// Operations that errored (a panicked launch, a faulted job).
    pub failed: u64,
    pub checks: Checks,
    pub e2e: E2e,
    pub detail: Vec<Detail>,
    /// Per-layer metrics (traced drivers only).
    pub layers: Vec<Metric>,
}

/// A named value with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Self {
            name: name.into(),
            unit,
            value,
        }
    }
}

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit the benchmark was built from, when it runs at the top of
/// a git work tree; `unknown` in an exported checkout (git is not asked
/// to look above the current directory).
pub fn commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// A JSON number with every digit Rust's shortest round-trip form
/// gives; non-finite values become `null` (and fail the run upstream).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn text(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_object(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                text(&m.name),
                num(m.value),
                text(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The detail line: run identity, per-kind operation counts, check
/// messages and every named figure.
pub fn detail_line(
    workload: &str,
    seed: u64,
    trace: bool,
    ops: &[(String, u64, u64)],
    checks: &Checks,
    details: &[Detail],
) -> String {
    let ops: Vec<String> = ops
        .iter()
        .map(|(noun, a, f)| format!("{}: {{\"attempted\": {a}, \"failed\": {f}}}", text(noun)))
        .collect();
    let figs: Vec<String> = details
        .iter()
        .map(|d| match d {
            Detail::Dist(name, unit, s) => {
                let tail = s
                    .tail()
                    .map(|(label, v)| format!(", {}: {}", text(label), num(v)))
                    .unwrap_or_default();
                format!(
                    "{}: {{\"unit\": {}, \"n\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}{tail}}}",
                    text(name),
                    text(unit),
                    s.len(),
                    num(s.median()),
                    num(s.quantile(0.25)),
                    num(s.quantile(0.75)),
                )
            }
            Detail::Value(name, unit, v) => {
                format!(
                    "{}: {{\"unit\": {}, \"value\": {}}}",
                    text(name),
                    text(unit),
                    num(*v)
                )
            }
        })
        .collect();
    let msgs: Vec<String> = checks.messages.iter().map(|m| text(m)).collect();
    format!(
        "{{\"detail\": {{\"workload\": {}, \"seed\": {seed}, \"trace\": {trace}, \"host_cores\": {}, \
         \"commit\": {}, \"operations\": {{{}}}, \"checks\": {{\"checked\": {}, \"wrong\": {}, \
         \"messages\": [{}]}}, \"figures\": {{{}}}}}}}",
        text(workload),
        host_cores(),
        text(&commit()),
        ops.join(", "),
        checks.checked,
        checks.wrong,
        msgs.join(", "),
        figs.join(", "),
    )
}

/// The result line the benchmark contract asks for.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_object(metrics)
    )
}
