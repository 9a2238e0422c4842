//! `serve-closed`: a `Server` with 2 worker slots fed by 2 closed-loop
//! clients. Each client submits its next job only after the last one
//! resolved. Jobs are 1- and 2-PE ring put + barrier jobs from a few
//! tenants, so the time goes into admission, scheduling, arena
//! checkout/scrub, thread spawn and teardown rather than SHMEM work.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tshmem::prelude::*;
use tshmem::{JobOutcome, JobSpec, Server, ServerConfig};

use crate::checks::{self, mix};
use crate::report::{Detail, Metric, Outcome};
use crate::stats::Samples;
use crate::sys::Stamp;

pub const SLOTS: usize = 2;
pub const CLIENTS: u64 = 2;
/// Jobs each client runs per server lifetime; the run restarts the
/// server after them, so `setup_s` is a median over start-ups.
/// Lifetimes alternate between 2-PE and 1-PE jobs, so each lifetime's
/// CPU time per job belongs to one job shape.
const JOBS_PER_CLIENT: u64 = 60;
const RING_ROUNDS: u64 = 4;
const TENANTS: u64 = 4;

fn job_cfg(npes: usize) -> RuntimeConfig {
    RuntimeConfig::new(npes)
        .with_partition_bytes(256 * 1024)
        .with_private_bytes(64 * 1024)
        .with_temp_bytes(16 * 1024)
}

/// PEs per job in the server lifetime whose first job is `first_job`.
fn shape(first_job: u64) -> usize {
    if (first_job / JOBS_PER_CLIENT).is_multiple_of(2) {
        2
    } else {
        1
    }
}

/// Host times at the job's PE boundary, filled by the body.
#[derive(Default)]
struct Boundary {
    first_entry: Option<Instant>,
    last_exit: Option<Instant>,
}

fn ring_value(token: u64, pe: usize, round: u64) -> u64 {
    mix(token, (pe as u64) << 8 | round)
}

/// The job body: each PE puts a token-derived value into its right
/// neighbour RING_ROUNDS times, one barrier per round, then checks the
/// left neighbour's last value (a mismatch panics and faults the job).
fn spec(seed: u64, c: u64, k: u64, npes: usize, boundary: Option<Arc<Mutex<Boundary>>>) -> JobSpec {
    let token = mix(seed, 0x5E7E << 40 | c << 32 | k);
    let body = move |ctx: &ShmemCtx| {
        if let Some(b) = &boundary {
            let now = Instant::now();
            let mut b = b.lock().expect("boundary lock");
            b.first_entry = Some(b.first_entry.map_or(now, |t| t.min(now)));
        }
        let n = ctx.n_pes();
        let me = ctx.my_pe();
        let slot = ctx.shmalloc::<u64>(1);
        ctx.local_write(&slot, 0, &[0]);
        ctx.barrier_all();
        for round in 1..=RING_ROUNDS {
            ctx.p(&slot, 0, ring_value(token, me, round), (me + 1) % n);
            ctx.barrier_all();
        }
        let left = (me + n - 1) % n;
        assert_eq!(
            ctx.local_read(&slot, 0, 1)[0],
            ring_value(token, left, RING_ROUNDS),
            "ring check"
        );
        ctx.shfree(slot);
        if let Some(b) = &boundary {
            let now = Instant::now();
            let mut b = b.lock().expect("boundary lock");
            b.last_exit = Some(b.last_exit.map_or(now, |t| t.max(now)));
        }
    };
    JobSpec::new(job_cfg(npes), body).with_tenant((mix(seed, c << 32 | k) % TENANTS) as u32)
}

/// One job as its client saw it.
struct JobRecord {
    npes: usize,
    submitted: Instant,
    accepted: Instant,
    resolved: Stamp,
    outcome: Result<JobOutcome, String>,
    boundary: Option<Boundary>,
}

/// One server lifetime: start, both clients' closed loops, shutdown.
/// Returns the stamps before `Server::new` and after `shutdown`, the
/// jobs, and the final counters.
fn lifetime(
    seed: u64,
    first_job: u64,
    traced: bool,
) -> (Stamp, Stamp, Vec<JobRecord>, tshmem::ServerStats) {
    let npes = shape(first_job);
    let started = Stamp::now();
    let server = Server::round_robin(ServerConfig {
        workers: SLOTS,
        queue_depth: 8,
        stall: Duration::from_secs(30),
        ..Default::default()
    });
    let records: Vec<JobRecord> = std::thread::scope(|sc| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let server = &server;
                sc.spawn(move || {
                    (first_job..first_job + JOBS_PER_CLIENT)
                        .map(|k| {
                            let boundary =
                                traced.then(|| Arc::new(Mutex::new(Boundary::default())));
                            let job = spec(seed, c, k, npes, boundary.clone());
                            let submitted = Instant::now();
                            let handle = server.submit(job);
                            let accepted = Instant::now();
                            let outcome = handle
                                .map(|h| h.wait().outcome)
                                .map_err(|e| format!("{e:?}"));
                            let resolved = Stamp::now();
                            let boundary = boundary
                                .map(|b| std::mem::take(&mut *b.lock().expect("boundary lock")));
                            JobRecord {
                                npes,
                                submitted,
                                accepted,
                                resolved,
                                outcome,
                                boundary,
                            }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let stats = server.shutdown();
    (started, Stamp::now(), records, stats)
}

fn drive(
    seed: u64,
    secs: f64,
    traced: bool,
    mut each: impl FnMut(&[JobRecord], &tshmem::ServerStats),
) -> Outcome {
    // Warm-up lifetime: not counted.
    let _ = lifetime(seed, 1 << 30, traced);
    let per_life = CLIENTS * JOBS_PER_CLIENT;
    let mut o = Outcome::default();
    let mut all = Samples::new();
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(secs);
    let mut next = 0;
    loop {
        let npes = shape(next);
        let (started, ended, records, stats) = lifetime(seed, next, traced);
        next += JOBS_PER_CLIENT;
        o.attempted += per_life;
        let first = records
            .iter()
            .map(|r| r.resolved)
            .min_by_key(|s| s.wall)
            .expect("jobs");
        o.e2e.push_setup(started, first);
        for r in &records {
            match &r.outcome {
                Ok(out) => {
                    let res = checks::job_completed(out);
                    if res.is_ok() {
                        let lat = r.resolved.wall - r.submitted;
                        all.push_ms(lat);
                        if r.npes == 2 {
                            &mut o.e2e.op_wall
                        } else {
                            &mut o.e2e.op2_wall
                        }
                        .push_ms(lat);
                    } else {
                        o.failed += 1;
                    }
                    o.checks.check(res);
                }
                Err(e) => {
                    o.failed += 1;
                    o.checks.check(Err(format!("submit refused: {e}")));
                }
            }
        }
        let completed = records
            .iter()
            .filter(|r| matches!(r.outcome, Ok(JobOutcome::Completed { .. })))
            .count();
        let (cpu, wall) = (ended.cpu - started.cpu, ended.wall - started.wall);
        let per_job = cpu.as_secs_f64() * 1e3 / completed.max(1) as f64;
        if npes == 2 {
            o.e2e.op.push(per_job);
        } else {
            o.e2e.op2.push(per_job);
        }
        o.e2e.rate.push(completed as f64 / wall.as_secs_f64());
        o.checks.check(checks::stats_balance(&stats, per_life));
        each(&records, &stats);
        if Instant::now() >= deadline {
            break;
        }
    }
    o.detail = vec![
        Detail::Dist("job_ms", "ms", all),
        Detail::Dist("job_2pe_ms", "ms", o.e2e.op_wall.clone()),
        Detail::Dist("job_1pe_ms", "ms", o.e2e.op2_wall.clone()),
        Detail::Dist("job_2pe_cpu_ms", "ms", o.e2e.op.clone()),
        Detail::Dist("job_1pe_cpu_ms", "ms", o.e2e.op2.clone()),
        Detail::Dist("jobs_per_s", "1/s", o.e2e.rate.clone()),
        Detail::Value("slots", "count", SLOTS as f64),
    ];
    o
}

/// Untraced run.
pub fn run(seed: u64, secs: f64) -> Outcome {
    drive(seed, secs, false, |_, _| {})
}

/// Traced run: the same closed loop with each job's PE-boundary times
/// recorded by its body.
pub fn traced(seed: u64, secs: f64) -> Outcome {
    let (mut submit, mut start, mut body, mut finish) = (
        Samples::new(),
        Samples::new(),
        Samples::new(),
        Samples::new(),
    );
    let (mut fresh, mut recycled) = (0u64, 0u64);
    let mut o = drive(seed, secs, true, |records, stats| {
        for r in records {
            submit.push_us(r.accepted - r.submitted);
            if let Some(Boundary {
                first_entry: Some(a),
                last_exit: Some(b),
            }) = r.boundary
            {
                start.push_ms(a - r.submitted);
                body.push_ms(b - a);
                finish.push_ms(r.resolved.wall - b);
            }
        }
        fresh += stats.arenas_fresh;
        recycled += stats.arenas_recycled;
    });
    o.layers = vec![
        Metric::new("server.submit_us", "us", submit.median()),
        Metric::new("server.start_ms", "ms", start.median()),
        Metric::new("server.body_ms", "ms", body.median()),
        Metric::new("server.finish_ms", "ms", finish.median()),
        Metric::new(
            "server.warm_arena_ratio",
            "ratio",
            recycled as f64 / (fresh + recycled) as f64,
        ),
    ];
    o
}
