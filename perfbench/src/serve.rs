//! `serve-sf0.1`: closed loop, 2 clients, the mixed 12-query workload on
//! one 2-worker pool on `Engine::Adaptive` with the paper's default
//! bindings, warmed so every prepare hits the plan cache and Adaptive
//! has committed. Two queries always share the workers.

use crate::engines::{self, ms_since, pct, repeated_setup, shuffle, Dbs, Reference};
use crate::layers::{Layers, SchedulerFigures};
use crate::stats::{median, tail};
use crate::{Report, Run, Tally};
use dbep_core::prelude::*;
use dbep_core::runtime::SmallRng;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const SF: f64 = 0.1;
const WORKERS: usize = 2;
const CLIENTS: usize = 2;
const TAIL: f64 = 0.99;
/// Set-ups per run; `setup_s` is their median. One takes about 0.5 s.
const SETUPS: usize = 5;
/// Share of `--seconds` for the engine pass; the closed loop gets the
/// rest.
const ENGINE_SHARE: f64 = 0.25;
/// The traced run's wire phase: offered rate (requests/s) and share of
/// `--seconds`.
const NET_RATE: f64 = 40.0;
const NET_SHARE: f64 = 0.3;

/// A warmed serving set-up: one pool, one session per database.
struct Serving {
    dbs: Dbs,
    tpch: Session,
    ssb: Session,
}

impl Serving {
    fn start(dbs: Dbs) -> Serving {
        let pool = Arc::new(Scheduler::new(WORKERS));
        let cfg = ExecCfg::with_threads(WORKERS);
        let tpch = Session::with_scheduler(Arc::clone(&dbs.tpch), cfg, Arc::clone(&pool));
        let ssb = Session::with_scheduler(Arc::clone(&dbs.ssb), cfg, pool);
        let s = Serving { dbs, tpch, ssb };
        // Two exploration runs (one per candidate engine), then one
        // committed run: from here on every prepare hits and every run
        // uses the learned per-stage assignment.
        for q in QueryId::ALL {
            for _ in 0..3 {
                std::hint::black_box(s.session(q).prepare(q).run(Engine::Adaptive));
            }
            assert!(
                s.session(q).prepare(q).adaptive_choices().is_some(),
                "Adaptive has not committed on {}",
                q.name()
            );
        }
        s
    }

    fn session(&self, q: QueryId) -> &Session {
        if QueryId::SSB.contains(&q) {
            &self.ssb
        } else {
            &self.tpch
        }
    }

    fn cache_lookups(&self) -> (u64, u64) {
        let [a, b] = [&self.tpch, &self.ssb].map(Session::plan_cache_stats);
        (a.hits + b.hits, a.hits + a.misses + b.hits + b.misses)
    }
}

/// One closed-loop request.
struct Req {
    latency_ms: f64,
    done_s: f64,
    stats: RunStats,
    /// Whether this request ran with the per-layer timers on (every
    /// other request of a traced run).
    traced: bool,
    prepare_us: f64,
    explored: bool,
}

struct Loop {
    reqs: Vec<Req>,
    tally: Tally,
    window_s: f64,
}

impl Loop {
    /// Requests completed inside the window.
    fn in_window(&self) -> Vec<&Req> {
        self.reqs.iter().filter(|r| r.done_s <= self.window_s).collect()
    }

    fn latencies(&self, traced: bool) -> Vec<f64> {
        self.in_window()
            .iter()
            .filter(|r| r.traced == traced)
            .map(|r| r.latency_ms)
            .collect()
    }
}

/// Each client walks seeded permutations of the 12 queries: prepare (a
/// plan-cache hit), run on Adaptive, check. A
/// traced loop turns the per-layer timers on for every other request,
/// so traced and untraced requests share the same host conditions.
fn closed_loop(s: &Serving, reference: &Reference, window: Duration, seed: u64, traced: bool) -> Loop {
    let out = Mutex::new((Vec::new(), Tally::default()));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let out = &out;
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(seed.wrapping_add(c as u64));
                let mut order: Vec<usize> = (0..QueryId::ALL.len()).collect();
                let (mut reqs, mut tally) = (Vec::new(), Tally::default());
                for k in 0.. {
                    if start.elapsed() >= window {
                        break;
                    }
                    // A fresh permutation every cycle: each query runs once
                    // per cycle, and which queries share the workers varies.
                    if k % order.len() == 0 {
                        shuffle(&mut order, &mut rng);
                    }
                    let qi = order[k % order.len()];
                    let q = QueryId::ALL[qi];
                    let traced = traced && k % 2 == 0;
                    let t0 = Instant::now();
                    let p = s.session(q).prepare(q);
                    let prepare_us = if traced {
                        t0.elapsed().as_secs_f64() * 1e6
                    } else {
                        0.0
                    };
                    let explored = traced && p.adaptive_choices().is_none();
                    let (result, stats) = p.run_with_stats(Engine::Adaptive);
                    let latency_ms = ms_since(t0);
                    let done_s = start.elapsed().as_secs_f64();
                    tally.record(reference[qi] == Some(result.checksum64()));
                    reqs.push(Req {
                        latency_ms,
                        done_s,
                        stats,
                        traced,
                        prepare_us,
                        explored,
                    });
                }
                let mut o = out.lock().expect("closed-loop results");
                o.0.extend(reqs);
                o.1.add(tally);
            });
        }
    });
    let (reqs, tally) = out.into_inner().expect("closed-loop results");
    Loop {
        reqs,
        tally,
        window_s: window.as_secs_f64(),
    }
}

pub fn run(run: Run) -> Report {
    let mut r = Report::new("serve-sf0.1", run.trace);
    let (s, [tpch_s, ssb_s, setup_s]) = repeated_setup(SF, SETUPS, run.sub_seed(1), Serving::start);
    // Outside the clock: Volcano's checksums of the 12 default bindings.
    let reference = engines::volcano_reference(&s.dbs);
    let engine_window = Duration::from_secs_f64(run.seconds * ENGINE_SHARE);
    let loop_window = Duration::from_secs_f64(run.seconds * (1.0 - ENGINE_SHARE));
    let pass = engines::run(&s.dbs, &reference, engine_window, 3, run.sub_seed(2), run.trace);
    let before = s.cache_lookups();
    let lp = closed_loop(&s, &reference, loop_window, run.sub_seed(3), run.trace);
    let after = s.cache_lookups();
    r.tally = pass.tally;
    r.tally.add(lp.tally);
    r.stamp("sf", SF);
    r.stamp(
        "threads",
        format!("{WORKERS} workers, {CLIENTS} closed-loop clients, Adaptive"),
    );
    r.stamp(
        "reference",
        "Volcano checksum64 of each default binding, computed before the window",
    );
    let lat = lp.latencies(false);
    let n = lat.len();
    r.stamp(
        "samples",
        format!(
            "closed loop {n} requests in {:.1} s; engine pass {} rounds; {SETUPS} set-ups",
            lp.window_s, pass.rounds
        ),
    );
    if !run.trace {
        let rounds = format!("SF {SF} engine pass, {} runs per query", pass.rounds);
        r.e2e("typer_ms", pass.typer_ms, "ms", rounds.clone());
        r.e2e("tectorwise_ms", pass.tectorwise_ms, "ms", rounds);
        r.e2e("qps", n as f64 / lp.window_s, "1/s", format!("n={n}"));
        r.e2e("p50_ms", median(&lat), "ms", format!("n={n}"));
        let t = tail(&lat, TAIL).expect("a closed-loop window holds over 1000 requests");
        r.e2e("tail_ms", t, "ms", format!("p99, n={n}"));
        r.e2e(
            "setup_s",
            setup_s,
            "s",
            format!("median of {SETUPS}: data generation, pool start, Adaptive warm-up"),
        );
        r.e2e("rss_mb", crate::host::peak_rss_mb(), "MB", "peak resident");
        return r;
    }
    let in_window = lp.in_window();
    let mut l = Layers::from_pass(&pass);
    l.prepare_us = median(
        &in_window
            .iter()
            .filter(|q| q.traced)
            .map(|q| q.prepare_us)
            .collect::<Vec<_>>(),
    );
    l.plan_cache_hit_ratio = (after.0 - before.0) as f64 / (after.1 - before.1).max(1) as f64;
    l.adaptive_explore_runs = lp.reqs.iter().filter(|q| q.explored).count() as f64;
    l.set_scheduler(SchedulerFigures::from_stats(
        &in_window.iter().map(|q| q.stats).collect::<Vec<_>>(),
    ));
    // The net layer on this workload: the same data and default
    // bindings served over TCP at a quarter of the closed loop's rate.
    let net_window = run.seconds * NET_SHARE;
    r.tally.add(crate::wire::net_phase(
        &s.dbs,
        NET_RATE,
        net_window,
        run.sub_seed(4),
        &mut l,
    ));
    l.tpch_s = tpch_s;
    l.ssb_s = ssb_s;
    l.trace_overhead_pct = pct(median(&lp.latencies(true)), median(&lat));
    l.emit(&mut r);
    r
}
