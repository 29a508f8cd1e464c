//! What a result is stamped with: host fingerprint, source revision,
//! a CPU calibration time and peak memory.

use std::hint::black_box;
use std::time::Instant;

/// Iterations of the calibration loop (about 0.1 s on a 3 GHz core).
const CALIB_ITERS: u64 = 60_000_000;

/// Time (ms) of a fixed, dependent-multiply CPU loop — median of three.
/// The same code on the same host should take the same time; a run
/// whose calibration is far off its usual value was taken in one of the
/// host's slow phases.
pub fn calib_ms() -> f64 {
    let mut times: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
            for i in 0..CALIB_ITERS {
                x = (x.rotate_left(5) ^ i).wrapping_mul(0x2545_F491_4F6C_DD1D);
            }
            black_box(x);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[1]
}

/// Peak resident set size of this process (MB), from the kernel's
/// high-water mark.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The source revision, read from `.git` in the working directory
/// without running git (and without looking outside the checkout).
/// `"unknown"` in an exported tree.
pub fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(format!(".git/{p}")).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(reference) {
        return rev.trim().to_string();
    }
    read("packed-refs")
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// One-line host fingerprint (`dbep_bench::hwinfo::report`, joined).
pub fn fingerprint() -> String {
    dbep_bench::hwinfo::report().replace('\n', "; ")
}
