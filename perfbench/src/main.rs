//! The repository benchmark. See `perfbench/README.md` for the
//! workloads, the metrics and what each per-layer metric should move.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig3-sf1|serve-sf0.1|wire-params-sf0.01|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a text report, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics` (the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`).
//! `--workload all` runs every workload untraced and then traced.

mod bindings;
mod engines;
mod fig3;
mod host;
mod layers;
mod report;
mod serve;
mod stats;
mod wire;

pub use report::{Report, Tally};
use std::process::ExitCode;
use std::time::Instant;

/// The seed a claim is made on, and the second seed it must also hold on.
pub const DEFAULT_SEED: u64 = 1;
pub const CONFIRM_SEED: u64 = 2;

pub const WORKLOADS: [&str; 3] = ["fig3-sf1", "serve-sf0.1", "wire-params-sf0.01"];

/// One invocation's settings.
#[derive(Clone, Copy, Debug)]
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Run {
    /// An independent seed for one use (data, schedule, bindings, …)
    /// derived from the workload seed.
    pub fn sub_seed(&self, tag: u64) -> u64 {
        let mut rng =
            dbep_core::runtime::SmallRng::seed_from_u64(self.seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64()
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}|all> [--seed <n>] [--seconds <s>] [--trace <0|1>]",
        WORKLOADS.join("|")
    );
    eprintln!("seeds: claims are made on seed {DEFAULT_SEED} (the default) and must also hold on seed {CONFIRM_SEED}");
    ExitCode::from(2)
}

fn run_one(workload: &str, run: Run) -> Report {
    let t0 = Instant::now();
    let calib_start = host::calib_ms();
    let mut report = match workload {
        "fig3-sf1" => fig3::run(run),
        "serve-sf0.1" => serve::run(run),
        "wire-params-sf0.01" => wire::run(run),
        other => unreachable!("workload {other} was validated"),
    };
    let calib_end = host::calib_ms();
    report.stamp("host", host::fingerprint());
    report.stamp("revision", host::git_revision());
    report.stamp("seed", run.seed);
    report.stamp("seconds", run.seconds);
    report.stamp(
        "calib_ms (start, end)",
        format!("{calib_start:.2}, {calib_end:.2}"),
    );
    report.stamp("peak_rss_mb", format!("{:.1}", host::peak_rss_mb()));
    report.stamp("wall_s", format!("{:.1}", t0.elapsed().as_secs_f64()));
    if let Some(l) = report.per_layer.iter_mut().find(|m| m.name == "host.calib_ms") {
        l.value = (calib_start + calib_end) / 2.0;
    }
    report
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut run = Run {
        seed: DEFAULT_SEED,
        seconds: 25.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => match value.parse() {
                Ok(s) => run.seed = s,
                Err(_) => return usage("--seed takes an unsigned integer"),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s <= 60.0 => run.seconds = s,
                _ => return usage("--seconds takes a number in (0, 60]"),
            },
            "--trace" => match value.as_str() {
                "0" => run.trace = false,
                "1" => run.trace = true,
                _ => return usage("--trace takes 0 or 1"),
            },
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    if workload == "all" {
        return run_all(run);
    }
    if !WORKLOADS.contains(&workload.as_str()) {
        return usage(&format!("unknown workload {workload:?}"));
    }
    let report = run_one(&workload, run);
    print!("{}", report.text());
    println!("{}", report.json());
    ExitCode::SUCCESS
}

/// Every workload, untraced then traced, each in a child process of its
/// own so peak memory is per workload. Each prints its own report.
fn run_all(run: Run) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    for w in WORKLOADS {
        for trace in ["0", "1"] {
            let status = std::process::Command::new(&exe)
                .args(["--workload", w, "--seed", &run.seed.to_string()])
                .args(["--seconds", &run.seconds.to_string(), "--trace", trace])
                .status()
                .expect("spawn a workload run");
            if !status.success() {
                eprintln!("perfbench: {w} (trace {trace}) failed: {status}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
