//! Host probes: CPU speed calibration and peak memory.

use std::hint::black_box;
use std::time::Instant;

/// Side of the square matrices the calibration kernel multiplies.
const CALIB_N: usize = 128;
/// Multiplications per calibration and thread: 20–40 ms on a 2-vCPU VM.
const CALIB_REPS: usize = 80;

/// Time a fixed floating-point kernel owned by the benchmark, run on both
/// cores at once, in milliseconds (until the slower copy finishes).
///
/// The kernel is a cache-resident `f32` matrix multiply, bound by
/// arithmetic throughput like the training kernels, and it runs on as many
/// threads as the workloads keep busy. On a shared VM that throughput moves
/// with what the host's other tenants run, including whether the two vCPUs
/// currently share a physical core; a single-threaded or latency-bound
/// probe misses most of that. It touches nothing the program under test
/// owns, so a reader of the results can tell a slow host window
/// (calibration slower too) from a regression (calibration unchanged).
pub fn calibrate_ms() -> f64 {
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..crate::common::CORES as usize {
            s.spawn(matmul_kernel);
        }
    });
    t0.elapsed().as_secs_f64() * 1e3
}

fn matmul_kernel() {
    let n = CALIB_N;
    let a: Vec<f32> = (0..n * n).map(|i| (i % 7) as f32 * 0.25).collect();
    let b: Vec<f32> = (0..n * n).map(|i| (i % 5) as f32 * 0.5).collect();
    let mut c = vec![0.0f32; n * n];
    for _ in 0..CALIB_REPS {
        for i in 0..n {
            for k in 0..n {
                let aik = black_box(&a)[i * n + k];
                let (row, brow) = (&mut c[i * n..(i + 1) * n], &b[k * n..(k + 1) * n]);
                for (cv, bv) in row.iter_mut().zip(brow) {
                    *cv += aik * bv;
                }
            }
        }
        black_box(&mut c);
    }
}

/// Peak resident set size of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
