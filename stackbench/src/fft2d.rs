//! `fft2d-native`: the paper's 2D-FFT at its size (1024×1024 complex
//! floats) on the native engine with 2 PEs, alternating the `Direct`
//! (symmetric-heap) transpose with the `Nbi` (static-segment, redirected)
//! transpose.

use std::time::{Duration, Instant};

use tshmem::prelude::*;
use tshmem::types::Complex32;
use tshmem_apps::fft::{
    fft1d, fft2d_shmem, fft_flops, generate_image, row_range, Fft2dConfig, TransposeMode,
};
use tshmem_apps::rng::KeyedRng;

use crate::checks::{self, mix};
use crate::report::{Detail, Metric, Outcome};
use crate::stats::Samples;
use crate::sys::Stamp;

pub const N: usize = 1024;
pub const NPES: usize = 2;
/// Direct/Nbi pairs per launch. `fft2d_shmem` takes a fresh
/// static-segment receive block on every `Nbi` call and static
/// allocations are never reclaimed, so the private segment is sized for
/// this many calls and the run relaunches after them.
const PAIRS_PER_LAUNCH: usize = 4;
/// Output bins the traced driver compares with a direct DFT.
const SAMPLED_BINS: usize = 3;

fn max_rows() -> usize {
    row_range(N, NPES, 0).1
}

fn config(static_blocks: usize) -> RuntimeConfig {
    let block = (max_rows() + 1) * N * 8;
    RuntimeConfig::new(NPES)
        .with_partition_bytes(N * N * 8 + 2 * block + (1 << 20))
        .with_private_bytes(static_blocks * block + (64 << 10))
}

/// The generated input: its seed, and `Σ|x|²` for the Parseval check.
struct Input {
    seed: u64,
    energy: f64,
}

impl Input {
    fn new(seed: u64) -> (Self, Vec<Complex32>) {
        let image_seed = mix(seed, 0xFF7);
        let image = generate_image(N, image_seed);
        (
            Self {
                seed: image_seed,
                energy: checks::energy(&image),
            },
            image,
        )
    }
}

fn slowest(per_pe: &[Duration]) -> Duration {
    per_pe.iter().copied().max().unwrap_or_default()
}

/// The shared loop of [`run`] and [`traced`]: one warm-up launch, then
/// whole launches of `PAIRS_PER_LAUNCH` Direct/Nbi pairs until `secs`
/// have passed. `body` runs the pairs on one PE; `each` sees every
/// transform's per-PE stages of a successful launch.
fn drive(
    cfg: &RuntimeConfig,
    input: &Input,
    secs: f64,
    body: impl Fn(&ShmemCtx) -> Vec<Stages> + Send + Sync,
    mut each: impl FnMut(&mut Outcome, bool, &[&Stages]),
) -> Outcome {
    let launch_once = || {
        let call = Stamp::now();
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            tshmem::launch(cfg, |ctx| {
                let entered = Stamp::now();
                (entered, body(ctx))
            })
        }));
        (call, res)
    };
    let _ = launch_once();
    let mut o = Outcome::default();
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    loop {
        let (call, res) = launch_once();
        let window = call.wall.elapsed();
        o.attempted += 2 * PAIRS_PER_LAUNCH as u64;
        match res {
            Ok(per_pe) => {
                let entered = per_pe.iter().map(|p| p.0).reduce(Stamp::max).expect("PEs");
                o.e2e.push_setup(call, entered);
                for i in 0..2 * PAIRS_PER_LAUNCH {
                    let pes: Vec<&Stages> = per_pe.iter().map(|p| &p.1[i]).collect();
                    let direct = i % 2 == 0;
                    let total = slowest(&pes.iter().map(|s| s.total).collect::<Vec<_>>());
                    // PE 0's window: both PEs enter and leave a transform
                    // at its barriers, so this is the transform's CPU.
                    if direct {
                        o.e2e.op.push_ms(pes[0].cpu);
                        o.e2e.op_wall.push_ms(total);
                    } else {
                        o.e2e.op2.push_ms(pes[0].cpu);
                        o.e2e.op2_wall.push_ms(total);
                    }
                    for s in &pes {
                        o.checks
                            .check(checks::parseval(s.checksum, input.energy, N));
                    }
                    each(&mut o, direct, &pes);
                }
                o.e2e
                    .rate
                    .push(2.0 * PAIRS_PER_LAUNCH as f64 / window.as_secs_f64());
            }
            Err(_) => o.failed += 2 * PAIRS_PER_LAUNCH as u64,
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    o.detail = vec![
        Detail::Dist("fft_ms", "ms", o.e2e.op_wall.clone()),
        Detail::Dist("fft_nbi_ms", "ms", o.e2e.op2_wall.clone()),
        Detail::Dist("fft_cpu_ms", "ms", o.e2e.op.clone()),
        Detail::Dist("fft_nbi_cpu_ms", "ms", o.e2e.op2.clone()),
        Detail::Dist("transforms_per_s", "1/s", o.e2e.rate.clone()),
    ];
    o
}

/// Untraced run: the pairs through `tshmem_apps::fft::fft2d_shmem`,
/// timed from outside the call.
pub fn run(seed: u64, secs: f64) -> Outcome {
    let (input, _) = Input::new(seed);
    let body = |ctx: &ShmemCtx| {
        let mut out = Vec::with_capacity(2 * PAIRS_PER_LAUNCH);
        for _ in 0..PAIRS_PER_LAUNCH {
            for transpose in [TransposeMode::Direct, TransposeMode::Nbi] {
                let t = Stamp::now();
                let r = fft2d_shmem(
                    ctx,
                    &Fft2dConfig {
                        n: N,
                        seed: input.seed,
                        transpose,
                    },
                );
                let end = Stamp::now();
                out.push(Stages {
                    total: end.wall - t.wall,
                    cpu: end.cpu - t.cpu,
                    checksum: r.checksum,
                    ..Stages::default()
                });
            }
        }
        out
    };
    drive(&config(PAIRS_PER_LAUNCH), &input, secs, body, |_, _, _| {})
}

/// Per-PE timings of one transform in the stage-by-stage driver.
#[derive(Clone, Debug, Default)]
struct Stages {
    total: Duration,
    /// Process CPU time over this PE's transform window.
    cpu: Duration,
    shmalloc: Vec<Duration>,
    barriers: Vec<Duration>,
    fft1d: Duration,
    put: Duration,
    put_bytes: u64,
    puts: u64,
    quiet: Duration,
    redirected: u64,
    gather: Duration,
    serial: Duration,
    checksum: f64,
    /// PE 0 only: the sampled output bins.
    bins: Vec<Complex32>,
}

fn timed<R>(acc: &mut Duration, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    *acc += t.elapsed();
    r
}

fn barrier(ctx: &ShmemCtx, s: &mut Stages) {
    let t = Instant::now();
    ctx.barrier_all();
    s.barriers.push(t.elapsed());
}

fn transpose_square(m: &mut [Complex32], n: usize) {
    for i in 0..n {
        for j in i + 1..n {
            m.swap(i * n + j, j * n + i);
        }
    }
}

/// One transform built from the same calls `fft2d_shmem` makes, with a
/// timer around each call. `static_recv` is the launch's one
/// static-segment receive block (used by `Nbi`).
fn staged_transform(
    ctx: &ShmemCtx,
    image_seed: u64,
    mode: TransposeMode,
    static_recv: &Sym<Complex32>,
    bins: &[(usize, usize)],
) -> Stages {
    let mut s = Stages::default();
    let total = Stamp::now();
    let npes = ctx.n_pes();
    let me = ctx.my_pe();
    let (my_start, my_rows) = row_range(N, npes, me);
    let rows = max_rows();
    let alloc = |len: usize, s: &mut Stages| {
        let t = Instant::now();
        let sym = ctx.shmalloc::<Complex32>(len);
        s.shmalloc.push(t.elapsed());
        sym
    };
    let work = alloc(rows * N, &mut s);
    let heap_recv = (mode == TransposeMode::Direct).then(|| alloc(rows * N, &mut s));
    let recv = heap_recv.unwrap_or(*static_recv);
    let full = alloc(N * N, &mut s);

    // Input rows generated exactly as the app generates them.
    let mut local: Vec<Complex32> = Vec::with_capacity(my_rows * N);
    for r in 0..my_rows {
        let mut rng = KeyedRng::new(image_seed, (my_start + r) as u64);
        local.extend((0..N).map(|_| Complex32::new(rng.unit_f32(), 0.0)));
    }
    ctx.local_write(&work, 0, &local);
    barrier(ctx, &mut s);

    timed(&mut s.fft1d, || {
        ctx.with_local_mut(&work, |w| {
            (0..my_rows).for_each(|r| fft1d(&mut w[r * N..r * N + N], false))
        })
    });
    ctx.compute_flops(my_rows as f64 * fft_flops(N));
    ctx.quiet();
    barrier(ctx, &mut s);

    let before = ctx.stats();
    let mut pack: Vec<Complex32> = Vec::with_capacity(my_rows);
    for q in 0..npes {
        let (q_start, q_rows) = row_range(N, npes, q);
        for qr in 0..q_rows {
            pack.clear();
            ctx.with_local(&work, |w| {
                (0..my_rows).for_each(|j| pack.push(w[j * N + q_start + qr]))
            });
            let dst = recv.slice(qr * N + my_start, my_rows);
            match mode {
                TransposeMode::Nbi => timed(&mut s.put, || ctx.put_nbi(&dst, 0, &pack, q)),
                _ => timed(&mut s.put, || ctx.put(&dst, 0, &pack, q)),
            }
        }
        ctx.compute_intops((q_rows * my_rows) as f64 * 2.0);
    }
    if mode == TransposeMode::Nbi {
        timed(&mut s.quiet, || ctx.quiet());
    }
    let after = ctx.stats();
    s.puts = (after.puts + after.nbi_puts) - (before.puts + before.nbi_puts);
    s.put_bytes = after.put_bytes - before.put_bytes;
    s.redirected = after.redirected - before.redirected;
    barrier(ctx, &mut s);

    timed(&mut s.fft1d, || {
        ctx.with_local_mut(&recv, |w| {
            (0..my_rows).for_each(|r| fft1d(&mut w[r * N..r * N + N], false))
        })
    });
    ctx.compute_flops(my_rows as f64 * fft_flops(N));
    ctx.quiet();
    barrier(ctx, &mut s);

    timed(&mut s.gather, || {
        ctx.put_sym(&full, my_start * N, &recv, 0, my_rows * N, 0)
    });
    barrier(ctx, &mut s);
    if me == 0 {
        timed(&mut s.serial, || {
            ctx.with_local_mut(&full, |m| transpose_square(m, N))
        });
        ctx.quiet();
    }
    barrier(ctx, &mut s);
    // Checksum exactly as the app computes it, plus the sampled bins.
    let cs = ctx.shmalloc::<f64>(1);
    let cs_out = ctx.shmalloc::<f64>(1);
    let local_cs = if me == 0 {
        ctx.with_local(&full, |m| {
            s.bins = bins.iter().map(|&(u, v)| m[u * N + v]).collect();
            m.iter().map(|c| c.norm_sq() as f64).sum()
        })
    } else {
        0.0
    };
    ctx.local_write(&cs, 0, &[local_cs]);
    ctx.sum_to_all(&cs_out, &cs, 1, ctx.world());
    s.checksum = ctx.local_read(&cs_out, 0, 1)[0];
    ctx.shfree(cs_out);
    ctx.shfree(cs);
    ctx.shfree(full);
    if let Some(r) = heap_recv {
        ctx.shfree(r);
    }
    ctx.shfree(work);
    // The same window as the untraced run's call to `fft2d_shmem`.
    let end = Stamp::now();
    s.total = end.wall - total.wall;
    s.cpu = end.cpu - total.cpu;
    s
}

/// Traced run: the stage-by-stage driver for `secs`, reporting the
/// fft2d layers and the same end-to-end samples as [`run`].
pub fn traced(seed: u64, secs: f64) -> Outcome {
    let (input, image) = Input::new(seed);
    // Sampled bins: DC plus seeded ones, each checked against a direct
    // DFT computed once from the generated image.
    let bins: Vec<(usize, usize)> = std::iter::once((0, 0))
        .chain((1..SAMPLED_BINS as u64).map(|k| {
            (
                (mix(seed, k) % N as u64) as usize,
                (mix(seed, k + 99) % N as u64) as usize,
            )
        }))
        .collect();
    let want: Vec<(f64, f64)> = bins
        .iter()
        .map(|&(u, v)| checks::dft_bin(&image, N, u, v))
        .collect();
    drop(image);

    let (mut shmalloc_us, mut barrier_us) = (Samples::new(), Samples::new());
    let (mut fft1d_ms, mut put_ms, mut put_gbps, mut gather_ms, mut serial_ms) = (
        Samples::new(),
        Samples::new(),
        Samples::new(),
        Samples::new(),
        Samples::new(),
    );
    let (mut nbi_ms, mut quiet_ms) = (Samples::new(), Samples::new());
    let (mut puts, mut redirected) = (Samples::new(), Samples::new());
    let body = |ctx: &ShmemCtx| {
        // One static receive block per launch, reused by every Nbi call.
        let static_recv = ctx.static_sym::<Complex32>(max_rows() * N);
        let mut out = Vec::with_capacity(2 * PAIRS_PER_LAUNCH);
        for _ in 0..PAIRS_PER_LAUNCH {
            for mode in [TransposeMode::Direct, TransposeMode::Nbi] {
                out.push(staged_transform(ctx, input.seed, mode, &static_recv, &bins));
            }
        }
        out
    };
    let mut o = drive(&config(1), &input, secs, body, |o, direct, pes| {
        let worst =
            |f: fn(&Stages) -> Duration| slowest(&pes.iter().map(|s| f(s)).collect::<Vec<_>>());
        fft1d_ms.push_ms(worst(|s| s.fft1d));
        gather_ms.push_ms(worst(|s| s.gather));
        serial_ms.push_ms(pes[0].serial);
        for s in pes {
            s.shmalloc.iter().for_each(|d| shmalloc_us.push_us(*d));
            s.barriers.iter().for_each(|d| barrier_us.push_us(*d));
        }
        for (got, want) in pes[0].bins.iter().zip(&want) {
            o.checks
                .check(checks::bin_matches(*got, *want, input.energy));
        }
        if direct {
            let put = worst(|s| s.put);
            put_ms.push_ms(put);
            let bytes: u64 = pes.iter().map(|s| s.put_bytes).sum();
            put_gbps.push(bytes as f64 / put.as_secs_f64() / 1e9);
            puts.push(pes[0].puts as f64);
        } else {
            nbi_ms.push_ms(worst(|s| s.put));
            quiet_ms.push_ms(worst(|s| s.quiet));
            redirected.push(pes[0].redirected as f64);
        }
    });
    o.layers = vec![
        Metric::new("runtime.launch_ms", "ms", o.e2e.setup_wall.median() * 1e3),
        Metric::new("heap.shmalloc_us", "us", shmalloc_us.median()),
        Metric::new("apps.fft1d_ms", "ms", fft1d_ms.median()),
        Metric::new("rma.put_ms", "ms", put_ms.median()),
        Metric::new("rma.put_gbps", "GB/s", put_gbps.median()),
        Metric::new("rma.puts", "count", puts.median()),
        Metric::new("rma.gather_ms", "ms", gather_ms.median()),
        Metric::new("apps.serial_stage_ms", "ms", serial_ms.median()),
        Metric::new("sync.barrier_us", "us", barrier_us.median()),
        Metric::new("rma.put_nbi_ms", "ms", nbi_ms.median()),
        Metric::new("sync.quiet_ms", "ms", quiet_ms.median()),
        Metric::new("service.redirected", "count", redirected.median()),
    ];
    o
}
