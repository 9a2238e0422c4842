//! `figsim-timed`: regenerates a fixed figure set on the timed engine —
//! the Fig 8 barrier sweep, the Fig 12 reduce at 32 tiles and the Fig 13
//! FFT at 1 and 32 tiles on the TILE-Gx — through the `microbench`
//! figure functions. The simulated outputs are deterministic, so they
//! must repeat bit for bit within a run.

use std::time::{Duration, Instant};

use microbench::collectives::{collective_sweep, Collective};
use microbench::{appmodel, barrier, Figure};
use tile_arch::device::Device;
use tshmem::prelude::*;
use tshmem_apps::fft::{fft2d_shmem, Fft2dConfig};

use crate::checks::{self, mix};
use crate::report::{Detail, Metric, Outcome};
use crate::stats::Samples;
use crate::sys::{self, Stamp};

/// Per-PE payloads of the Fig 12 point set. The paper's reduce curve is
/// flat up to 16 kB; the larger sizes of the full figure only add host
/// time.
const FIG12_SIZES: [usize; 3] = [1 << 10, 4 << 10, 16 << 10];
const FIG12_TILES: usize = 32;
const FFT_N: usize = 1024;
const FFT_TILES: usize = 32;
/// Set-up probes per figure set: a timed launch reaches its 32 PE bodies
/// in a few ms, so thread start-up jitter is a large share of each one
/// and `setup_s` needs many of them for a steady median.
const SETUP_PROBES: usize = 8;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Piece {
    Fig8,
    Fig12,
    Fig13One,
    Fig13Wide,
}

/// The launch geometry `appmodel::fft_time_s` uses at `npes` tiles.
fn fft_config(npes: usize) -> RuntimeConfig {
    RuntimeConfig::for_device(Device::tile_gx8036(), npes)
        .with_partition_bytes(FFT_N * FFT_N * 8 + 4 * (FFT_N / npes + 1) * FFT_N * 8 + (1 << 20))
        .with_private_bytes(1 << 14)
        .with_temp_bytes(1 << 14)
}

/// A timed launch at the Fig 13 geometry whose PEs return at once: its
/// call stamp and the stamp when the last PE body ran.
fn setup_probe() -> (Stamp, Stamp) {
    let call = Stamp::now();
    let out = tshmem::launch_timed(&fft_config(FFT_TILES), |_| Stamp::now());
    let last = out.values.into_iter().reduce(Stamp::max).expect("PEs");
    (call, last)
}

/// The traced 32-tile FFT: simulated makespan (s), per-kind simulated
/// busy time summed over PEs (ns), and API operations simulated.
struct TracedFft {
    seconds: f64,
    kinds: Vec<(&'static str, f64)>,
    ops: u64,
}

fn traced_fft() -> TracedFft {
    let fcfg = Fft2dConfig {
        n: FFT_N,
        seed: 0x13,
        ..Fft2dConfig::default()
    };
    let out = tshmem::launch_timed(&fft_config(FFT_TILES).with_trace(), move |ctx| {
        let ns = fft2d_shmem(ctx, &fcfg).elapsed_ns;
        let s = ctx.stats();
        let ops = s.puts
            + s.gets
            + s.nbi_puts
            + s.nbi_gets
            + s.barriers
            + s.collectives
            + s.atomics
            + s.fences
            + s.quiets;
        (ns, ops)
    });
    let per_pe = tshmem::trace::summarize(out.trace.as_deref().unwrap_or_default(), FFT_TILES);
    let kinds = ["copy", "udn_send", "wait", "compute"]
        .into_iter()
        .map(|k| (k, per_pe.iter().filter_map(|m| m.get(k)).sum::<f64>()))
        .collect();
    TracedFft {
        seconds: out.values[0].0 / 1e9,
        kinds,
        ops: out.values.iter().map(|v| v.1).sum(),
    }
}

/// One regenerated figure set: its simulated values in a fixed order,
/// the host wall and CPU time of each piece, and the figures the checks
/// read.
#[derive(Default)]
struct Set {
    values: Vec<f64>,
    host: Vec<(Piece, Duration)>,
    cpu: Vec<(Piece, Duration)>,
    fig8: Option<Figure>,
    t1: f64,
    t32: f64,
    points: u64,
    traced: Option<TracedFft>,
}

fn regenerate(seed: u64, index: u64, traced: bool) -> Set {
    let mut order = [Piece::Fig8, Piece::Fig12, Piece::Fig13One, Piece::Fig13Wide];
    order.rotate_left((mix(seed, index) % 4) as usize);
    let mut set = Set::default();
    let (mut v8, mut v12) = (Vec::new(), Vec::new());
    for piece in order {
        let t = Instant::now();
        let c = sys::process_cpu_time();
        match piece {
            Piece::Fig8 => {
                let f = barrier::fig8();
                for s in &f.series {
                    v8.extend(s.points.iter().map(|p| p.1));
                }
                set.fig8 = Some(f);
            }
            Piece::Fig12 => {
                let rows = collective_sweep(
                    Device::tile_gx8036(),
                    Collective::ReduceNaive,
                    FIG12_TILES,
                    FIG12_SIZES.to_vec(),
                );
                v12.extend(rows.iter().map(|r| r.1));
            }
            Piece::Fig13One => set.t1 = appmodel::fft_time_s(Device::tile_gx8036(), FFT_N, 1),
            Piece::Fig13Wide if traced => {
                let tf = traced_fft();
                set.t32 = tf.seconds;
                set.traced = Some(tf);
            }
            Piece::Fig13Wide => {
                set.t32 = appmodel::fft_time_s(Device::tile_gx8036(), FFT_N, FFT_TILES)
            }
        }
        set.host.push((piece, t.elapsed()));
        set.cpu.push((piece, sys::process_cpu_time() - c));
    }
    set.points = (v8.len() + v12.len() + 2) as u64;
    set.values = [v8, v12, vec![set.t1, set.t32]].concat();
    set
}

fn time_of(times: &[(Piece, Duration)], piece: Piece) -> Duration {
    times.iter().filter(|h| h.0 == piece).map(|h| h.1).sum()
}

fn host_of(set: &Set, piece: Piece) -> Duration {
    time_of(&set.host, piece)
}

fn drive(seed: u64, secs: f64, traced: bool) -> (Outcome, Vec<Set>) {
    let _ = setup_probe(); // warm-up, not counted
    let mut o = Outcome::default();
    let mut sets = Vec::new();
    let mut first: Option<Vec<f64>> = None;
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(secs);
    let mut index = 0;
    loop {
        for _ in 0..SETUP_PROBES {
            let (call, last) = setup_probe();
            o.e2e.push_setup(call, last);
        }
        let set = regenerate(seed, index, traced);
        index += 1;
        o.attempted += set.points;
        let host: Duration = set.host.iter().map(|h| h.1).sum();
        o.e2e.op_wall.push_ms(host);
        o.e2e.op2_wall.push_ms(host_of(&set, Piece::Fig13Wide));
        o.e2e.rate.push(set.points as f64 / host.as_secs_f64());
        o.e2e.op.push_ms(set.cpu.iter().map(|h| h.1).sum());
        o.e2e.op2.push_ms(time_of(&set.cpu, Piece::Fig13Wide));
        match &first {
            None => first = Some(set.values.clone()),
            Some(f) => o
                .checks
                .check(checks::identical("figure set", f, &set.values)),
        }
        if let Some(f8) = &set.fig8 {
            let (best, worst) = (&f8.series[0], &f8.series[1]);
            for (b, w) in best.points.iter().zip(&worst.points) {
                o.checks.check(checks::best_le_worst(b.0, b.1, w.1));
            }
            o.checks.check(checks::matches_reference(
                "barrier_sim_us",
                worst.y_at(36.0),
                checks::BARRIER_SIM_US_REF,
            ));
        }
        o.checks.check(checks::speedup_in_band(set.t1, set.t32));
        o.checks.check(checks::matches_reference(
            "fft_sim_ms",
            set.t32 * 1e3,
            checks::FFT_SIM_MS_REF,
        ));
        sets.push(set);
        if Instant::now() >= deadline {
            break;
        }
    }
    let last = sets.last().expect("one set");
    let f8 = last.fig8.as_ref().expect("fig8");
    o.detail = vec![
        Detail::Dist("figs_s", "s", o.e2e.op_wall.clone().scaled(1e-3)),
        Detail::Dist("figs_cpu_s", "s", o.e2e.op.clone().scaled(1e-3)),
        Detail::Dist("fig13_32_host_ms", "ms", o.e2e.op2_wall.clone()),
        Detail::Dist("fig13_32_cpu_ms", "ms", o.e2e.op2.clone()),
        Detail::Dist("points_per_s", "1/s", o.e2e.rate.clone()),
        Detail::Value("fft_sim_ms", "ms", last.t32 * 1e3),
        Detail::Value("fft_sim_1tile_ms", "ms", last.t1 * 1e3),
        Detail::Value("fft_speedup_32", "x", last.t1 / last.t32),
        Detail::Value("barrier_sim_us", "us", f8.series[1].y_at(36.0)),
        Detail::Value("barrier_sim_best_us", "us", f8.series[0].y_at(36.0)),
    ];
    (o, sets)
}

/// Untraced run: whole figure sets until `secs` have passed.
pub fn run(seed: u64, secs: f64) -> Outcome {
    drive(seed, secs, false).0
}

/// Traced run: the same sets with the 32-tile FFT traced, reporting the
/// timed-engine layers and the simulated time split by trace kind.
pub fn traced(seed: u64, secs: f64) -> Outcome {
    let (mut o, sets) = drive(seed, secs, true);
    let per = |p: Piece| {
        let mut s = Samples::new();
        sets.iter()
            .for_each(|set| s.push(host_of(set, p).as_secs_f64()));
        s.median()
    };
    let (fig8_s, fig12_s) = (per(Piece::Fig8), per(Piece::Fig12));
    let fig13_s = {
        let mut s = Samples::new();
        sets.iter().for_each(|set| {
            s.push((host_of(set, Piece::Fig13One) + host_of(set, Piece::Fig13Wide)).as_secs_f64())
        });
        s.median()
    };
    let mut per_op = Samples::new();
    for set in &sets {
        let tf = set.traced.as_ref().expect("traced FFT");
        per_op.push(host_of(set, Piece::Fig13Wide).as_secs_f64() * 1e6 / tf.ops as f64);
    }
    let tf = sets
        .last()
        .and_then(|s| s.traced.as_ref())
        .expect("traced FFT");
    let total: f64 = tf.kinds.iter().map(|k| k.1).sum();
    let share = |k: &str| 100.0 * tf.kinds.iter().find(|x| x.0 == k).map_or(0.0, |x| x.1) / total;
    let f8 = sets.last().and_then(|s| s.fig8.as_ref()).expect("fig8");
    o.layers = vec![
        Metric::new("timed.launch_ms", "ms", o.e2e.setup_wall.median() * 1e3),
        Metric::new("timed.fig8_s", "s", fig8_s),
        Metric::new("timed.fig12_s", "s", fig12_s),
        Metric::new("timed.fig13_s", "s", fig13_s),
        Metric::new("timed.host_us_per_sim_op", "us", per_op.median()),
        Metric::new("sim.fft_copy_share", "%", share("copy")),
        Metric::new("sim.fft_udn_send_share", "%", share("udn_send")),
        Metric::new("sim.fft_wait_share", "%", share("wait")),
        Metric::new("sim.fft_compute_share", "%", share("compute")),
        Metric::new(
            "sim.barrier_best_ratio",
            "ratio",
            f8.series[0].y_at(36.0) / f8.series[1].y_at(36.0),
        ),
    ];
    for (k, ns) in &tf.kinds {
        o.detail.push(Detail::Value(
            match *k {
                "copy" => "sim.fft_copy_ms",
                "udn_send" => "sim.fft_udn_send_ms",
                "wait" => "sim.fft_wait_ms",
                _ => "sim.fft_compute_ms",
            },
            "ms",
            ns / FFT_TILES as f64 / 1e6,
        ));
    }
    o
}
