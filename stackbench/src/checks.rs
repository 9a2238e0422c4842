//! Correctness checks, each computed apart from the program under test,
//! and the seeded input generators they share with the workloads.

use tshmem::types::Complex32;
use tshmem::{JobOutcome, ServerStats};

/// SplitMix64: the benchmark's only source of seeded inputs.
pub fn mix(seed: u64, key: u64) -> u64 {
    let mut z = seed ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---- fft2d --------------------------------------------------------------

/// Parseval for the 2D DFT: `Σ|X|² = N²·Σ|x|²`. `input_energy` is
/// `Σ|x|²` of the generated image, summed in f64 by the benchmark.
pub fn parseval(checksum: f64, input_energy: f64, n: usize) -> Result<(), String> {
    let want = (n * n) as f64 * input_energy;
    let rel = (checksum - want).abs() / want;
    if rel <= 1e-4 {
        Ok(())
    } else {
        Err(format!(
            "spectrum energy {checksum} != N^2*sum|x|^2 = {want} (rel {rel:.2e})"
        ))
    }
}

pub fn energy(image: &[Complex32]) -> f64 {
    image.iter().map(|c| c.norm_sq() as f64).sum()
}

/// One bin `X[u][v]` of the 2D DFT of the row-major `n`×`n` image,
/// computed directly in f64.
pub fn dft_bin(image: &[Complex32], n: usize, u: usize, v: usize) -> (f64, f64) {
    let tw: Vec<(f64, f64)> = (0..n)
        .map(|k| {
            let a = -2.0 * std::f64::consts::PI * k as f64 / n as f64;
            (a.cos(), a.sin())
        })
        .collect();
    let (mut re, mut im) = (0.0, 0.0);
    for r in 0..n {
        // Inner sum over the row's columns at frequency v.
        let (mut rr, mut ri) = (0.0, 0.0);
        for c in 0..n {
            let x = image[r * n + c];
            let (wr, wi) = tw[(v * c) % n];
            rr += x.re as f64 * wr - x.im as f64 * wi;
            ri += x.re as f64 * wi + x.im as f64 * wr;
        }
        let (wr, wi) = tw[(u * r) % n];
        re += rr * wr - ri * wi;
        im += rr * wi + ri * wr;
    }
    (re, im)
}

/// A transformed bin against its direct DFT, to `1e-3` of the RMS bin
/// magnitude `sqrt(Σ|x|²)` (far above f32 rounding, far below the size
/// of any wrong bin).
pub fn bin_matches(got: Complex32, want: (f64, f64), input_energy: f64) -> Result<(), String> {
    let tol = 1e-3 * input_energy.sqrt();
    let err = ((got.re as f64 - want.0).powi(2) + (got.im as f64 - want.1).powi(2)).sqrt();
    if err <= tol {
        Ok(())
    } else {
        Err(format!(
            "bin ({}, {}) != direct DFT ({}, {}) (err {err:.3e} > {tol:.3e})",
            got.re, got.im, want.0, want.1
        ))
    }
}

// ---- coll ---------------------------------------------------------------

/// Element `i` of PE `pe`'s reduce source in `round`.
pub fn reduce_input(seed: u64, round: u64, pe: usize, i: usize) -> u64 {
    (mix(seed, round * 8 + i as u64) % 1_000_000) + (pe as u64) * (i as u64 + 1)
}

/// The closed-form sum of [`reduce_input`] over `npes` PEs.
pub fn reduce_expected(seed: u64, round: u64, npes: usize, i: usize) -> u64 {
    let n = npes as u64;
    n * (mix(seed, round * 8 + i as u64) % 1_000_000) + (i as u64 + 1) * n * (n - 1) / 2
}

pub fn reduce_matches(got: &[u64], seed: u64, round: u64, npes: usize) -> Result<(), String> {
    for (i, g) in got.iter().enumerate() {
        let want = reduce_expected(seed, round, npes, i);
        if *g != want {
            return Err(format!(
                "round {round}: sum_to_all[{i}] = {g}, closed form {want}"
            ));
        }
    }
    Ok(())
}

/// The stamp PE `pe` writes in `round` (never zero).
pub fn stamp(seed: u64, round: u64, pe: usize) -> u64 {
    (mix(seed ^ 0x5747, round << 12 | pe as u64) >> 1) | 1
}

pub fn equals(what: &str, got: u64, want: u64) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got}, want {want}"))
    }
}

// ---- serve --------------------------------------------------------------

/// A job passes when it completed on its first attempt (its body's ring
/// check panics on a wrong value, which faults the job).
pub fn job_completed(outcome: &JobOutcome) -> Result<(), String> {
    match outcome {
        JobOutcome::Completed { attempts: 1 } => Ok(()),
        other => Err(format!("job did not complete cleanly: {other:?}")),
    }
}

/// Server counters after a fault-free closed loop of `jobs` jobs: every
/// accepted job completed, nothing was refused, shed, faulted, evicted
/// or retried, and every launch checked out exactly one arena.
pub fn stats_balance(s: &ServerStats, jobs: u64) -> Result<(), String> {
    let ok = s.submitted == jobs
        && s.completed == jobs
        && s.rejected == 0
        && s.shed == 0
        && s.faulted == 0
        && s.evicted == 0
        && s.retries == 0
        && s.arenas_fresh + s.arenas_recycled == jobs;
    if ok {
        Ok(())
    } else {
        Err(format!(
            "server counters do not balance over {jobs} jobs: {s:?}"
        ))
    }
}

// ---- figsim -------------------------------------------------------------

/// Simulated figure values must repeat bit for bit within a run.
pub fn identical(what: &str, first: &[f64], again: &[f64]) -> Result<(), String> {
    if first.len() == again.len()
        && first
            .iter()
            .zip(again)
            .all(|(a, b)| a.to_bits() == b.to_bits())
    {
        Ok(())
    } else {
        Err(format!(
            "{what}: simulated values differ between regenerations"
        ))
    }
}

pub fn best_le_worst(tiles: f64, best: f64, worst: f64) -> Result<(), String> {
    if best <= worst {
        Ok(())
    } else {
        Err(format!(
            "fig8 at {tiles} tiles: best {best} us > worst {worst} us"
        ))
    }
}

/// The simulated Fig 13 TILE-Gx FFT makespan at 32 tiles, ms, and the
/// Fig 8 TILE-Gx worst-case barrier at 36 tiles, us, as the model gives
/// them today (the README compares both with the paper). A change that
/// moves the modelled result on purpose updates these with it.
pub const FFT_SIM_MS_REF: f64 = 52.34744258;
pub const BARRIER_SIM_US_REF: f64 = 5.199699;

/// A simulated value against its recorded reference, to 1e-9 relative:
/// the simulation is deterministic, so only a change to the model or to
/// the code it runs can move it.
pub fn matches_reference(what: &str, got: f64, want: f64) -> Result<(), String> {
    let rel = (got - want).abs() / want.abs();
    if rel <= 1e-9 {
        Ok(())
    } else {
        Err(format!(
            "{what} = {got}, recorded reference {want} (rel {rel:.2e})"
        ))
    }
}

/// The paper's Fig 13 TILE-Gx speedup levels off near 5 at 32 tiles.
pub const SPEEDUP_BAND: (f64, f64) = (4.0, 7.0);

pub fn speedup_in_band(t1: f64, t32: f64) -> Result<(), String> {
    let s = t1 / t32;
    if (SPEEDUP_BAND.0..=SPEEDUP_BAND.1).contains(&s) {
        Ok(())
    } else {
        Err(format!(
            "fig13 Gx speedup at 32 tiles {s:.2} outside {SPEEDUP_BAND:?}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce_off_by_one_is_rejected() {
        let (seed, round, npes) = (7, 3, 128);
        let mut got: Vec<u64> = (0..8)
            .map(|i| (0..npes).map(|pe| reduce_input(seed, round, pe, i)).sum())
            .collect();
        assert!(reduce_matches(&got, seed, round, npes).is_ok());
        got[5] += 1;
        assert!(reduce_matches(&got, seed, round, npes).is_err());
    }

    #[test]
    fn spectrum_breaking_parseval_is_rejected() {
        let n = 16;
        let mut img = tshmem_apps::fft::generate_image(n, 11);
        let e = energy(&img);
        tshmem_apps::fft::fft2d_serial(&mut img, n);
        assert!(parseval(energy(&img), e, n).is_ok());
        // A 1% error in the DC bin alone.
        img[0].re *= 1.01;
        assert!(parseval(energy(&img), e, n).is_err());
    }

    #[test]
    fn direct_dft_agrees_with_the_fft_and_catches_a_wrong_bin() {
        let n = 16;
        let input = tshmem_apps::fft::generate_image(n, 5);
        let e = energy(&input);
        let mut out = input.clone();
        tshmem_apps::fft::fft2d_serial(&mut out, n);
        for (u, v) in [(0, 0), (1, 2), (15, 3)] {
            assert!(bin_matches(out[u * n + v], dft_bin(&input, n, u, v), e).is_ok());
        }
        // The transposed bin is a different number for a real input.
        assert!(bin_matches(out[2 * n + 1], dft_bin(&input, n, 1, 2), e).is_err());
    }

    #[test]
    fn faulted_job_is_rejected() {
        assert!(job_completed(&JobOutcome::Completed { attempts: 1 }).is_ok());
        let faulted = JobOutcome::Faulted {
            attempts: 1,
            error: "ring check".into(),
        };
        assert!(job_completed(&faulted).is_err());
        assert!(job_completed(&JobOutcome::Completed { attempts: 2 }).is_err());
    }

    #[test]
    fn unbalanced_server_counters_are_rejected() {
        let good = ServerStats {
            submitted: 4,
            completed: 4,
            arenas_fresh: 1,
            arenas_recycled: 3,
            ..Default::default()
        };
        assert!(stats_balance(&good, 4).is_ok());
        assert!(stats_balance(&ServerStats { faulted: 1, ..good }, 4).is_err());
        assert!(stats_balance(
            &ServerStats {
                arenas_fresh: 2,
                ..good
            },
            4
        )
        .is_err());
    }

    #[test]
    fn differing_simulated_values_are_rejected() {
        let a = [0.052, 3.5];
        assert!(identical("fig13", &a, &a).is_ok());
        let b = [0.052, f64::from_bits(3.5f64.to_bits() + 1)];
        assert!(identical("fig13", &a, &b).is_err());
        assert!(best_le_worst(36.0, 3.5, 5.2).is_ok());
        assert!(best_le_worst(36.0, 5.3, 5.2).is_err());
        assert!(speedup_in_band(0.31, 0.052).is_ok());
        assert!(speedup_in_band(0.31, 0.31).is_err());
    }

    #[test]
    fn simulated_values_off_their_reference_are_rejected() {
        assert!(matches_reference("fft_sim_ms", FFT_SIM_MS_REF, FFT_SIM_MS_REF).is_ok());
        // The figure as the detail line prints it, after a unit change.
        assert!(matches_reference("barrier_sim_us", 5.199699000000001, BARRIER_SIM_US_REF).is_ok());
        assert!(matches_reference("fft_sim_ms", FFT_SIM_MS_REF * 1.3, FFT_SIM_MS_REF).is_err());
        assert!(matches_reference(
            "barrier_sim_us",
            BARRIER_SIM_US_REF * (1.0 + 1e-6),
            BARRIER_SIM_US_REF
        )
        .is_err());
    }

    #[test]
    fn stamps_are_nonzero_and_seeded() {
        assert_ne!(stamp(1, 0, 0), 0);
        assert_ne!(stamp(1, 0, 0), stamp(2, 0, 0));
        assert_eq!(reduce_expected(9, 1, 1, 0), reduce_input(9, 1, 0, 0));
    }
}
