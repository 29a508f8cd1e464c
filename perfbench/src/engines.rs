//! The engine pass: the paper's Fig. 3 measurement. One query at a time,
//! one thread, each of the 12 registered queries on Typer and on
//! Tectorwise through `Session`, in seeded order, in complete rounds.
//!
//! Every workload runs it on its own data, so `typer_ms` and
//! `tectorwise_ms` exist on each: at SF 1 (`fig3-sf1`) the working set
//! is far larger than the caches; at SF 0.1 and 0.01 it fits.

use crate::stats::{geomean, mean, median};
use crate::Tally;
use dbep_core::datagen;
use dbep_core::prelude::*;
use dbep_core::runtime::SmallRng;
use dbep_core::scheduler::StageTrace;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The two engines the paper compares.
pub const ENGINES: [Engine; 2] = [Engine::Typer, Engine::Tectorwise];

/// One workload's databases.
pub struct Dbs {
    pub tpch: Arc<Database>,
    pub ssb: Arc<Database>,
}

impl Dbs {
    pub fn for_query(&self, q: QueryId) -> &Arc<Database> {
        if QueryId::SSB.contains(&q) {
            &self.ssb
        } else {
            &self.tpch
        }
    }
}

/// Set up `setups` times: generate both databases at `sf`, then
/// `build` on them (server start, warm-up). Each set-up's predecessor
/// is dropped first, so memory holds one. Returns the last set-up and
/// the medians `[tpch_s, ssb_s, setup_s]`.
pub fn repeated_setup<T>(
    sf: f64,
    setups: usize,
    seed: u64,
    mut build: impl FnMut(Dbs) -> T,
) -> (T, [f64; 3]) {
    let mut times: Vec<[f64; 3]> = Vec::new();
    let mut last = None;
    for _ in 0..setups {
        drop(last.take());
        let t0 = Instant::now();
        let tpch = Arc::new(datagen::tpch::generate(sf, seed));
        let t1 = Instant::now();
        let ssb = Arc::new(datagen::ssb::generate(sf, seed));
        let t2 = Instant::now();
        last = Some(build(Dbs { tpch, ssb }));
        times.push([t1 - t0, t2 - t1, t0.elapsed()].map(|d| d.as_secs_f64()));
    }
    let medians = [0, 1, 2].map(|i| median(&times.iter().map(|t| t[i]).collect::<Vec<_>>()));
    (last.expect("at least one set-up"), medians)
}

/// Reference checksums of the 12 default bindings, in
/// `QueryId::ALL` order. `None` marks a query whose reference could not
/// be established (its executions all count as failed).
pub type Reference = Vec<Option<u64>>;

/// Reference by Volcano, the interpretation engine — a different code
/// path from both engines measured. Affordable up to SF 0.1.
pub fn volcano_reference(dbs: &Dbs) -> Reference {
    QueryId::ALL
        .iter()
        .map(|&q| {
            Some(dbep_queries::run(Engine::Volcano, q, dbs.for_query(q), &ExecCfg::default()).checksum64())
        })
        .collect()
}

/// Reference by agreement: Typer and Tectorwise must produce the same
/// checksum. For SF 1, where a Volcano pass takes 15–23 s.
pub fn agreement_reference(dbs: &Dbs) -> Reference {
    QueryId::ALL
        .iter()
        .map(|&q| {
            let db = dbs.for_query(q);
            let [t, v] = ENGINES.map(|e| dbep_queries::run(e, q, db, &ExecCfg::default()).checksum64());
            (t == v).then_some(t)
        })
        .collect()
}

/// What a pass measured.
pub struct Pass {
    /// Geometric mean over the queries of each query's median runtime.
    pub typer_ms: f64,
    pub tectorwise_ms: f64,
    /// Every untraced session execution's runtime (ms).
    pub latencies_ms: Vec<f64>,
    pub rounds: usize,
    pub elapsed_s: f64,
    pub tally: Tally,
    pub stats: Vec<RunStats>,
    /// Column bytes scanned per tuple scanned (exact counts).
    pub bytes_per_tuple: f64,
    pub traced: Option<TracedPass>,
}

/// The per-layer part of a traced pass.
pub struct TracedPass {
    /// `(metric name, median ms)` per declared stage and engine.
    pub stage_ms: Vec<(String, f64)>,
    /// Session run vs a direct `QueryPlan` call, per engine (%).
    pub session_overhead_pct: [f64; 2],
    /// Stage-traced session run vs untraced session run (%).
    pub trace_overhead_pct: f64,
    /// Timed `prepare_params` calls (µs).
    pub prepare_us: Vec<f64>,
    /// Plan-cache hits per timed re-prepare.
    pub plan_cache_hit_ratio: f64,
}

/// The ways a traced pass runs each (query, engine).
#[derive(Clone, Copy)]
enum Variant {
    /// `PreparedQuery::run_with_stats`, untraced: the measured run.
    Session,
    /// `QueryPlan::run` with the session's configuration.
    Direct,
    /// A session run with a `StageTrace` attached, then a re-prepare.
    Staged,
}

/// Per-(query, engine) sample lists, indexed `[query][engine]`.
type Grid = Vec<[Vec<f64>; 2]>;

fn grid() -> Grid {
    QueryId::ALL.iter().map(|_| [Vec::new(), Vec::new()]).collect()
}

/// Geomean over queries of the per-query median, per engine.
fn geomeans(g: &Grid) -> [f64; 2] {
    [0, 1].map(|e| geomean(&g.iter().map(|per| median(&per[e])).collect::<Vec<_>>()))
}

/// Run complete rounds until `window` has passed and at least
/// `min_rounds` are done. A traced pass runs every [`Variant`] of each
/// (query, engine).
pub fn run(
    dbs: &Dbs,
    reference: &Reference,
    window: Duration,
    min_rounds: usize,
    seed: u64,
    traced: bool,
) -> Pass {
    let sessions = (
        Session::new(Arc::clone(&dbs.tpch)),
        Session::new(Arc::clone(&dbs.ssb)),
    );
    let session = |q: QueryId| {
        if QueryId::SSB.contains(&q) {
            &sessions.1
        } else {
            &sessions.0
        }
    };
    let prepared: Vec<PreparedQuery> = QueryId::ALL.iter().map(|&q| session(q).prepare(q)).collect();
    let cache_stats = || [&sessions.0, &sessions.1].map(|s| s.plan_cache_stats());
    let cache_before = cache_stats();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut tally = Tally::default();
    let mut check = |qi: usize, r: &QueryResult| tally.record(reference[qi] == Some(r.checksum64()));

    let (mut untraced, mut direct, mut staged) = (grid(), grid(), grid());
    let mut stage_ns: Vec<[Vec<Vec<f64>>; 2]> = QueryId::ALL
        .iter()
        .map(|&q| [0, 1].map(|_| vec![Vec::new(); dbep_queries::plan(q).stages().len()]))
        .collect();
    let (mut latencies_ms, mut stats, mut prepare_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut bytes, mut tuples) = (0u64, 0u64);
    let mut pairs: Vec<(usize, usize)> = (0..QueryId::ALL.len()).flat_map(|q| [(q, 0), (q, 1)]).collect();
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < min_rounds || start.elapsed() < window {
        shuffle(&mut pairs, &mut rng);
        for &(qi, ei) in &pairs {
            let (q, engine, p) = (QueryId::ALL[qi], ENGINES[ei], &prepared[qi]);
            let plan = dbep_queries::plan(q);
            // A traced pass runs the three variants in seeded order, so
            // none of them always finds the caches warmed by another.
            let mut variants = [Variant::Session, Variant::Direct, Variant::Staged];
            let n = if traced { 3 } else { 1 };
            shuffle(&mut variants[..n], &mut rng);
            for v in variants.into_iter().take(n) {
                match v {
                    Variant::Session => {
                        let t0 = Instant::now();
                        let (result, st) = p.run_with_stats(engine);
                        let ms = ms_since(t0);
                        check(qi, &result);
                        untraced[qi][ei].push(ms);
                        latencies_ms.push(ms);
                        bytes += st.bytes_scanned;
                        tuples += p.tuples_scanned() as u64;
                        stats.push(st);
                    }
                    Variant::Direct => {
                        let t0 = Instant::now();
                        let result = plan.run(engine, dbs.for_query(q), session(q).cfg(), p.params());
                        direct[qi][ei].push(ms_since(t0));
                        check(qi, &result);
                    }
                    Variant::Staged => {
                        let trace = StageTrace::new(plan.stages().len());
                        let cfg = ExecCfg {
                            stage_trace: Some(&trace),
                            ..*session(q).cfg()
                        };
                        let t0 = Instant::now();
                        let result = p.run_with(engine, &cfg);
                        staged[qi][ei].push(ms_since(t0));
                        check(qi, &result);
                        for (s, ns) in trace.snapshot().into_iter().enumerate() {
                            stage_ns[qi][ei][s].push(ns as f64 / 1e6);
                        }
                        let t0 = Instant::now();
                        let again = session(q).prepare_params(p.params().clone());
                        prepare_us.push(t0.elapsed().as_secs_f64() * 1e6);
                        std::hint::black_box(again.cache_hit());
                    }
                }
            }
        }
        rounds += 1;
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    let [typer_ms, tectorwise_ms] = geomeans(&untraced);
    let traced = traced.then(|| {
        let base = [typer_ms, tectorwise_ms];
        let plain = geomeans(&direct);
        let with_trace = geomeans(&staged);
        let mut stage_ms = Vec::new();
        for (qi, &q) in QueryId::ALL.iter().enumerate() {
            for (ei, engine) in ENGINES.iter().enumerate() {
                for (s, desc) in dbep_queries::plan(q).stages().iter().enumerate() {
                    let name = stage_metric(q, desc.name, *engine);
                    stage_ms.push((name, median(&stage_ns[qi][ei][s])));
                }
            }
        }
        // The timed re-prepares only, not the first prepares above.
        let (hits, lookups) = cache_stats()
            .iter()
            .zip(&cache_before)
            .fold((0, 0), |(h, l), (a, b)| {
                (h + a.hits - b.hits, l + a.hits + a.misses - b.hits - b.misses)
            });
        TracedPass {
            stage_ms,
            session_overhead_pct: [0, 1].map(|e| pct(base[e], plain[e])),
            trace_overhead_pct: pct(mean(&with_trace), mean(&base)),
            prepare_us,
            plan_cache_hit_ratio: hits as f64 / lookups.max(1) as f64,
        }
    });
    Pass {
        typer_ms,
        tectorwise_ms,
        latencies_ms,
        rounds,
        elapsed_s,
        tally,
        stats,
        bytes_per_tuple: bytes as f64 / tuples.max(1) as f64,
        traced,
    }
}

/// The per-layer metric name of one stage on one engine.
pub fn stage_metric(q: QueryId, stage: &str, engine: Engine) -> String {
    format!("stage.{}.{}.{}_ms", q.name(), stage, engine.name())
}

/// How much larger `a` is than `b`, in percent.
pub fn pct(a: f64, b: f64) -> f64 {
    100.0 * (a / b - 1.0)
}

pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Fisher–Yates with the benchmark's seeded generator.
pub fn shuffle<T>(xs: &mut [T], rng: &mut SmallRng) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.gen_range(0..=i));
    }
}
