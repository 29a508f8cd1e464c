//! `fig3-sf1`: the paper's headline comparison. TPC-H and SSB at SF 1,
//! one client, one thread, one query at a time through `Session`, on
//! Typer and on Tectorwise with the paper's default bindings.

use crate::engines::{self, repeated_setup};
use crate::layers::{Layers, SchedulerFigures};
use crate::stats::{median, tail};
use crate::{Report, Run};
use std::time::Duration;

const SF: f64 = 1.0;
/// Set-ups per run; `setup_s` is their median. One takes about 1.6 s.
const SETUPS: usize = 3;
/// The tail percentile: a window holds about 150 executions, enough for
/// p90 (≥ 10 beyond it) but not for p99.
const TAIL: f64 = 0.90;
/// Complete rounds of 24 executions: 5 rounds give the 100 samples p90
/// needs.
const MIN_ROUNDS: usize = 5;

pub fn run(run: Run) -> Report {
    let mut r = Report::new("fig3-sf1", run.trace);
    let (dbs, [tpch_s, ssb_s, setup_s]) = repeated_setup(SF, SETUPS, run.sub_seed(1), |d| d);
    // Outside the clock: Typer and Tectorwise must agree on every query.
    let reference = engines::agreement_reference(&dbs);
    let window = Duration::from_secs_f64(run.seconds);
    // A traced round runs each pair three times; three rounds suffice
    // for its per-stage medians.
    let min_rounds = if run.trace { 3 } else { MIN_ROUNDS };
    let pass = engines::run(&dbs, &reference, window, min_rounds, run.sub_seed(2), run.trace);
    r.tally = pass.tally;
    r.stamp("sf", SF);
    r.stamp("threads", 1);
    r.stamp(
        "reference",
        "Typer and Tectorwise agree (checksum64), computed before the window",
    );
    r.stamp(
        "samples",
        format!(
            "{} executions in {} rounds, {} set-ups",
            pass.latencies_ms.len(),
            pass.rounds,
            SETUPS
        ),
    );
    let n = pass.latencies_ms.len();
    if !run.trace {
        let rounds = format!("geomean of 12 per-query medians, {} runs each", pass.rounds);
        r.e2e("typer_ms", pass.typer_ms, "ms", rounds.clone());
        r.e2e("tectorwise_ms", pass.tectorwise_ms, "ms", rounds);
        r.e2e(
            "qps",
            n as f64 / pass.elapsed_s,
            "1/s",
            format!("n={n}, one client"),
        );
        r.e2e("p50_ms", median(&pass.latencies_ms), "ms", format!("n={n}"));
        let t = tail(&pass.latencies_ms, TAIL).expect("MIN_ROUNDS guarantees the tail sample");
        r.e2e("tail_ms", t, "ms", format!("p90, n={n}"));
        r.e2e(
            "setup_s",
            setup_s,
            "s",
            format!("median of {SETUPS} data generations"),
        );
        r.e2e("rss_mb", crate::host::peak_rss_mb(), "MB", "peak resident");
        return r;
    }
    let t = pass.traced.as_ref().expect("traced pass");
    let mut l = Layers::from_pass(&pass);
    l.prepare_us = median(&t.prepare_us);
    l.plan_cache_hit_ratio = t.plan_cache_hit_ratio;
    l.set_scheduler(SchedulerFigures::from_stats(&pass.stats));
    l.tpch_s = tpch_s;
    l.ssb_s = ssb_s;
    l.trace_overhead_pct = t.trace_overhead_pct;
    l.emit(&mut r);
    r
}
