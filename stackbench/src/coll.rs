//! `coll-coop128`: 128 PEs on the cooperative engine over 2 workers.
//! Each round is a ring put, `barrier_all`, an 8-element `sum_to_all`,
//! two more `barrier_all`s (the first closes the reduce's window, the
//! second is the timed barrier) and a small `broadcast`; at this scale
//! the default collectives run the hierarchical (`collectives::hier`)
//! algorithms and PEs share workers.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use tshmem::prelude::*;

use crate::checks::{self, stamp};
use crate::report::{Checks, Detail, Metric, Outcome};
use crate::stats::Samples;
use crate::sys::{self, Stamp};

pub const NPES: usize = 128;
pub const WORKERS: usize = 2;
const REDUCE_N: usize = 8;
const BCAST_N: usize = 4;
/// Rounds per launch (untraced): about two seconds of work, so a run
/// holds several launches and `setup_s` is a median, not one sample.
const ROUNDS: u64 = 150;
/// Rounds per launch of the traced driver, which does more per round.
const TRACED_ROUNDS: u64 = 40;

fn config() -> RuntimeConfig {
    RuntimeConfig::for_scale(NPES)
}

/// What one PE saw in one round.
#[derive(Clone, Copy, Debug, Default)]
struct Round {
    barrier: Duration,
    /// PE 0 only: process CPU time from barrier exit to barrier exit
    /// over a barrier, and over the reduce with its closing barrier.
    barrier_cpu: Option<Duration>,
    reduce_cpu: Option<Duration>,
    barrier_exit: Option<Instant>,
    reduce: Duration,
    bcast: Duration,
    // Traced driver only.
    barrier_hier: Duration,
    reduce_hier: Duration,
    bcast_hier: Duration,
    put_colocated: Duration,
    put_cross: Duration,
    wait_until: Duration,
    locality_hits: u64,
    redirected: u64,
    puts: u64,
}

struct Syms {
    ring: Sym<u64>,
    src: Sym<u64>,
    dst: Sym<u64>,
    bsrc: Sym<u64>,
    bdst: Sym<u64>,
    // Traced driver only.
    probe: Sym<u64>,
    flag: Sym<u64>,
}

fn alloc(ctx: &ShmemCtx) -> Syms {
    let s = Syms {
        ring: ctx.shmalloc(1),
        src: ctx.shmalloc(REDUCE_N),
        dst: ctx.shmalloc(REDUCE_N),
        bsrc: ctx.shmalloc(BCAST_N),
        bdst: ctx.shmalloc(BCAST_N),
        probe: ctx.shmalloc(REDUCE_N),
        flag: ctx.shmalloc(1),
    };
    ctx.local_fill(&s.flag, 0);
    ctx.barrier_all();
    s
}

/// One checked round: the left neighbour's pre-barrier put is visible
/// after the barrier, the reduce equals its closed form, and the
/// broadcast delivers the root's stamp. Returns this PE's view.
///
/// The reduce is closed by a barrier and followed by one more, so PE 0
/// can read the process CPU clock at barrier exits only: the reduce's
/// CPU is taken from the barrier before it to the barrier after it, and
/// a barrier's CPU between two barriers. No PE's work on either
/// operation lies outside its window, however early PE 0 leaves a call.
fn round(ctx: &ShmemCtx, s: &Syms, seed: u64, r: u64, chk: &mut Checks) -> Round {
    let me = ctx.my_pe();
    let n = ctx.n_pes();
    let world = ctx.world();
    let mut out = Round::default();
    // Only PE 0 reads the process CPU clock: the read sums every thread
    // of the process (256 here), so all PEs reading it would perturb the
    // round.
    let cpu = |me: usize| (me == 0).then(sys::process_cpu_time);

    ctx.p(&s.ring, 0, stamp(seed, r, me), (me + 1) % n);
    ctx.barrier_all();
    let reduce_from = cpu(me);
    let left = (me + n - 1) % n;
    chk.check(checks::equals(
        "ring after barrier",
        ctx.local_read(&s.ring, 0, 1)[0],
        stamp(seed, r, left),
    ));

    let src: Vec<u64> = (0..REDUCE_N)
        .map(|i| checks::reduce_input(seed, r, me, i))
        .collect();
    ctx.local_write(&s.src, 0, &src);
    let before = ctx.stats();
    let t = Instant::now();
    ctx.sum_to_all(&s.dst, &s.src, REDUCE_N, world);
    out.reduce = t.elapsed();
    let after = ctx.stats();
    ctx.barrier_all();
    let barrier_from = cpu(me);
    out.reduce_cpu = reduce_from.zip(barrier_from).map(|(a, b)| b - a);
    out.locality_hits = after.locality_hits - before.locality_hits;
    out.redirected = after.redirected - before.redirected;
    out.puts = after.puts - before.puts;

    let t = Instant::now();
    ctx.barrier_all();
    let exit = Instant::now();
    out.barrier_cpu = barrier_from.map(|c| sys::process_cpu_time() - c);
    out.barrier = exit - t;
    out.barrier_exit = Some(exit);
    chk.check(checks::reduce_matches(
        &ctx.local_read(&s.dst, 0, REDUCE_N),
        seed,
        r,
        n,
    ));

    let root = (r as usize * 37) % n;
    if me == root {
        ctx.local_write(&s.bsrc, 0, &[stamp(seed, r, root); BCAST_N]);
    }
    let t = Instant::now();
    ctx.broadcast(&s.bdst, &s.bsrc, BCAST_N, root, world);
    out.bcast = t.elapsed();
    if me != root {
        for v in ctx.local_read(&s.bdst, 0, BCAST_N) {
            chk.check(checks::equals("broadcast", v, stamp(seed, r, root)));
        }
    }
    out
}

/// The traced driver's extra probes after a checked round: the explicit
/// hierarchical collectives, 8-word puts to a same-worker and an
/// other-worker PE, and a flag put + `wait_until` across workers.
fn probes(ctx: &ShmemCtx, s: &Syms, r: u64, out: &mut Round) {
    let me = ctx.my_pe();
    let n = ctx.n_pes();
    let world = ctx.world();
    let t = Instant::now();
    ctx.barrier_hier_explicit(world);
    out.barrier_hier = t.elapsed();
    let t = Instant::now();
    ctx.reduce_hier(ReduceOp::Sum, &s.dst, &s.src, REDUCE_N, world, me);
    out.reduce_hier = t.elapsed();
    let t = Instant::now();
    ctx.broadcast_hier(&s.bdst, &s.bsrc, BCAST_N, (r as usize * 37) % n, world);
    out.bcast_hier = t.elapsed();

    // Workers own contiguous PE blocks of n / WORKERS: me ^ 1 shares my
    // worker, me + n/2 does not.
    let words = [r; REDUCE_N];
    let t = Instant::now();
    ctx.put(&s.probe, 0, &words, me ^ 1);
    out.put_colocated = t.elapsed();
    ctx.barrier_all();
    let t = Instant::now();
    ctx.put(&s.probe, 0, &words, (me + n / 2) % n);
    out.put_cross = t.elapsed();
    ctx.barrier_all();

    let t = Instant::now();
    ctx.p(&s.flag, 0, r + 1, (me + n / 2) % n);
    ctx.wait_until(&s.flag, 0, Cmp::Ge, r + 1);
    out.wait_until = t.elapsed();
    ctx.barrier_all();
}

type PeResult = (Instant, Vec<Round>, Checks);

/// One launch: its call stamp, the stamp when the last PE entered its
/// body, and every PE's rounds.
type Launch = (Stamp, Option<Stamp>, std::thread::Result<Vec<PeResult>>);

fn launch(seed: u64, first_round: u64, rounds: u64, traced: bool) -> Launch {
    let cfg = config();
    let arrived = AtomicUsize::new(0);
    let last_entry = Mutex::new(None);
    let call = Stamp::now();
    let res = std::panic::catch_unwind(|| {
        tshmem::launch_coop(&cfg, WORKERS, |ctx| {
            // Wall time on every PE; the CPU clock once, by the last PE
            // to enter (see `round`).
            let entered = Instant::now();
            if arrived.fetch_add(1, Ordering::SeqCst) + 1 == ctx.n_pes() {
                *last_entry.lock().expect("entry lock") = Some(Stamp::now());
            }
            let syms = alloc(ctx);
            let mut chk = Checks::default();
            let mut rs = Vec::with_capacity(rounds as usize);
            for r in first_round..first_round + rounds {
                let mut x = round(ctx, &syms, seed, r, &mut chk);
                if traced {
                    probes(ctx, &syms, r, &mut x);
                }
                rs.push(x);
            }
            (entered, rs, chk)
        })
    });
    let last = last_entry.into_inner().expect("entry lock");
    (call, last, res)
}

/// Per-round figure: the slowest PE's time for `f`.
fn slowest_per_round(per_pe: &[PeResult], i: usize, f: impl Fn(&Round) -> Duration) -> Duration {
    per_pe.iter().map(|p| f(&p.1[i])).max().unwrap_or_default()
}

/// The shared loop of [`run`] and [`traced`]: whole launches until
/// `secs` have passed. `each` sees every successful launch.
fn drive(
    seed: u64,
    secs: f64,
    rounds: u64,
    traced: bool,
    mut each: impl FnMut(&[PeResult]),
) -> Outcome {
    // Warm-up launch (one round): thread stacks and arenas; not counted.
    let _ = launch(seed, 1 << 40, 1, traced);
    let mut o = Outcome::default();
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(secs);
    let mut bcast = Samples::new();
    let mut next = 0;
    loop {
        let (call, last, res) = launch(seed, next, rounds, traced);
        let window = call.wall.elapsed();
        next += rounds;
        o.attempted += rounds;
        match (res, last) {
            (Ok(per_pe), Some(last)) => {
                let entered = Stamp {
                    wall: per_pe.iter().map(|p| p.0).max().expect("PEs"),
                    cpu: last.cpu,
                };
                o.e2e.push_setup(call, entered);
                for i in 0..rounds as usize {
                    let pe0 = &per_pe[0].1[i];
                    o.e2e
                        .op
                        .push_ms(pe0.reduce_cpu.expect("PE 0 reads the CPU clock"));
                    o.e2e
                        .op2
                        .push_ms(pe0.barrier_cpu.expect("PE 0 reads the CPU clock"));
                    o.e2e
                        .op_wall
                        .push_ms(slowest_per_round(&per_pe, i, |x| x.reduce));
                    o.e2e
                        .op2_wall
                        .push_ms(slowest_per_round(&per_pe, i, |x| x.barrier));
                    bcast.push_us(slowest_per_round(&per_pe, i, |x| x.bcast));
                }
                each(&per_pe);
                for p in per_pe {
                    o.checks.absorb(p.2);
                }
                o.e2e.rate.push(rounds as f64 / window.as_secs_f64());
            }
            _ => o.failed += rounds,
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    o.detail = vec![
        Detail::Dist("barrier_us", "us", o.e2e.op2_wall.clone().scaled(1e3)),
        Detail::Dist("reduce_us", "us", o.e2e.op_wall.clone().scaled(1e3)),
        Detail::Dist("bcast_us", "us", bcast),
        Detail::Dist("reduce_cpu_ms", "ms", o.e2e.op.clone()),
        Detail::Dist("barrier_cpu_ms", "ms", o.e2e.op2.clone()),
        Detail::Dist("rounds_per_s", "1/s", o.e2e.rate.clone()),
        Detail::Value(
            "workers",
            "count",
            tshmem::resolve_coop_workers(WORKERS, NPES) as f64,
        ),
    ];
    o
}

/// Untraced run.
pub fn run(seed: u64, secs: f64) -> Outcome {
    drive(seed, secs, ROUNDS, false, |_| {})
}

/// Traced run: the checked rounds plus per-layer probes.
pub fn traced(seed: u64, secs: f64) -> Outcome {
    let (mut bh, mut skew, mut rh, mut bch) = (
        Samples::new(),
        Samples::new(),
        Samples::new(),
        Samples::new(),
    );
    let (mut colo, mut cross, mut wait) = (Samples::new(), Samples::new(), Samples::new());
    let (mut hits, mut redir, mut puts) = (Samples::new(), Samples::new(), Samples::new());
    let mut o = drive(seed, secs, TRACED_ROUNDS, true, |per_pe| {
        for i in 0..per_pe[0].1.len() {
            bh.push_us(slowest_per_round(per_pe, i, |x| x.barrier_hier));
            rh.push_us(slowest_per_round(per_pe, i, |x| x.reduce_hier));
            bch.push_us(slowest_per_round(per_pe, i, |x| x.bcast_hier));
            let exits = per_pe.iter().filter_map(|p| p.1[i].barrier_exit);
            let (first, last) = exits.fold((None::<Instant>, None::<Instant>), |(lo, hi), e| {
                (
                    Some(lo.map_or(e, |l| l.min(e))),
                    Some(hi.map_or(e, |h| h.max(e))),
                )
            });
            if let (Some(f), Some(l)) = (first, last) {
                skew.push_us(l - f);
            }
            for p in per_pe {
                colo.push_us(p.1[i].put_colocated);
                cross.push_us(p.1[i].put_cross);
                wait.push_us(p.1[i].wait_until);
                hits.push(p.1[i].locality_hits as f64);
                redir.push(p.1[i].redirected as f64);
                puts.push(p.1[i].puts as f64);
            }
        }
    });
    o.layers = vec![
        Metric::new(
            "runtime.launch_coop_ms",
            "ms",
            o.e2e.setup_wall.median() * 1e3,
        ),
        Metric::new("collectives.barrier_hier_us", "us", bh.median()),
        Metric::new("sync.barrier_skew_us", "us", skew.median()),
        Metric::new("collectives.reduce_hier_us", "us", rh.median()),
        Metric::new("collectives.broadcast_hier_us", "us", bch.median()),
        Metric::new("rma.put_colocated_us", "us", colo.median()),
        Metric::new("rma.put_cross_us", "us", cross.median()),
        Metric::new("sync.wait_until_us", "us", wait.median()),
        Metric::new("rma.locality_hits", "count", hits.mean()),
        Metric::new("rma.redirected", "count", redir.mean()),
        Metric::new("rma.reduce_puts", "count", puts.mean()),
    ];
    o
}
