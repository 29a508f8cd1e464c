//! `wire-params-sf0.01`: open loop over TCP loopback against an
//! in-process `dbep_net::Server` (pool, 2 workers). Seeded Poisson
//! arrivals at three fixed offered rates, carried by 2 connections.
//! Every request is a RUN_PARAMS on `adaptive` whose binding is drawn
//! from its query's whole substitution domain, so the plan cache misses
//! and Adaptive explores on every new binding.

use crate::bindings;
use crate::engines::{self, pct, repeated_setup, Dbs, ENGINES};
use crate::layers::{Layers, SchedulerFigures};
use crate::stats::{backlog_grows, max_rate, mean, median, percentile, tail, RatePoint, Timing};
use crate::{Report, Run, Tally};
use dbep_core::prelude::*;
use dbep_core::runtime::SmallRng;
use dbep_net::{Client, Request, Response, RunOutcome, Server, ServerConfig};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const SF: f64 = 0.01;
const WORKERS: usize = 2;
const CONNS: usize = 2;
/// Offered rates (requests/s): ¼, ½ and 0.85 of 400/s. Capacity with
/// varied bindings was about 1000/s in a fast host phase but neared
/// saturation at 500/s in a slow one (README, "Measured spread"). The
/// middle rate carries `qps`, `p50_ms` and `tail_ms`.
pub const RATES: [f64; 3] = [100.0, 200.0, 340.0];
/// Share of the rate budget each rate's window gets: the middle rate
/// gets the most, for a steadier p99.
const RATE_SHARES: [f64; 3] = [0.2, 0.55, 0.25];
const MIDDLE: usize = 1;
/// The p99 limit `max_rate_qps` is judged against (ms).
pub const P99_LIMIT_MS: f64 = 50.0;
/// A request its sender could not start within this long after its
/// scheduled time is shed and counts as failed.
const SHED_AFTER_S: f64 = 5.0;
/// Share of `--seconds` for the in-process engine pass; the three rates
/// share the rest.
const ENGINE_SHARE: f64 = 0.1;
const TAIL: f64 = 0.99;
/// Set-ups per run; `setup_s` is their median. One takes about 0.05 s.
const SETUPS: usize = 9;

/// A running server with its client connections.
struct Wired {
    // Declared first so connections close before the server drains.
    clients: Vec<Client>,
    server: Server,
    dbs: Dbs,
}

impl Wired {
    fn start(dbs: Dbs) -> Wired {
        let cfg = ServerConfig {
            threads: WORKERS,
            pool: true,
            ..ServerConfig::default()
        };
        let server = Server::serve(
            "127.0.0.1:0",
            Some(std::sync::Arc::clone(&dbs.tpch)),
            Some(std::sync::Arc::clone(&dbs.ssb)),
            cfg,
        )
        .expect("bind a loopback port");
        let mut clients: Vec<Client> = (0..CONNS)
            .map(|_| Client::connect(server.local_addr()).expect("connect to the server"))
            .collect();
        // Warm-up: every query's default binding once per connection.
        for c in &mut clients {
            for q in QueryId::ALL {
                match c.run_params(q.name(), Engine::Adaptive.name(), "") {
                    Ok(Response::Result(_)) => {}
                    other => panic!("warm-up {} failed: {other:?}", q.name()),
                }
            }
        }
        Wired { clients, server, dbs }
    }
}

/// One scheduled request.
struct Planned {
    scheduled_s: f64,
    qi: usize,
    spec: String,
}

enum Kind {
    Result(RunOutcome),
    Retry,
    Error,
    Transport,
    Shed,
}

struct Outcome {
    timing: Timing,
    kind: Kind,
    /// Client round trip: send to response read (µs).
    rtt_us: f64,
    /// The frames, kept by a traced run for codec timing.
    frames: Option<(Request, Response)>,
}

/// A seeded Poisson schedule at `rate` over `window_s`, each arrival
/// with a query and a binding: drawn from the query's whole domain when
/// `varied`, the paper's default otherwise.
fn plan(rate: f64, window_s: f64, varied: bool, rng: &mut SmallRng) -> Vec<Planned> {
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        // Exponential gap from a uniform in (0, 1].
        let u = 1.0 - (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        t += -u.ln() / rate;
        if t >= window_s {
            return out;
        }
        let qi = rng.gen_range(0..QueryId::ALL.len());
        let q = QueryId::ALL[qi];
        let params = if varied {
            bindings::draw(q, rng)
        } else {
            Params::default_for(q)
        };
        let spec = params.to_spec();
        out.push(Planned {
            scheduled_s: t,
            qi,
            spec,
        });
    }
}

/// Send the schedule over every connection: whichever is free claims
/// the next arrival, sleeps until it is due, and sends. A late sender
/// sends at once; its lateness stays in the request's latency.
fn open_loop(clients: &mut [Client], addr: SocketAddr, planned: &[Planned], traced: bool) -> Vec<Outcome> {
    let next = AtomicUsize::new(0);
    let results = Mutex::new(Vec::with_capacity(planned.len()));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for client in clients.iter_mut() {
            let (next, results) = (&next, &results);
            scope.spawn(move || {
                let mut local = Vec::new();
                loop {
                    // ORDERING: a claim ticket; no data is published through it.
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(p) = planned.get(i) else { break };
                    let due = Duration::from_secs_f64(p.scheduled_s);
                    if let Some(wait) = due.checked_sub(start.elapsed()) {
                        std::thread::sleep(wait);
                    }
                    let sent = start.elapsed().as_secs_f64();
                    let mut timing = Timing {
                        scheduled: p.scheduled_s,
                        sent,
                        done: sent,
                    };
                    if timing.lateness() > SHED_AFTER_S {
                        local.push((
                            i,
                            Outcome {
                                timing,
                                kind: Kind::Shed,
                                rtt_us: 0.0,
                                frames: None,
                            },
                        ));
                        continue;
                    }
                    let request = Request::RunParams {
                        query: QueryId::ALL[p.qi].name().to_string(),
                        engine: Engine::Adaptive.name().to_string(),
                        spec: p.spec.clone(),
                    };
                    let t0 = Instant::now();
                    let response = client.call(&request);
                    let rtt_us = t0.elapsed().as_secs_f64() * 1e6;
                    timing.done = start.elapsed().as_secs_f64();
                    let (kind, frames) = match response {
                        Ok(resp) => {
                            let kind = match &resp {
                                Response::Result(o) => Kind::Result(o.clone()),
                                Response::Retry { .. } => Kind::Retry,
                                _ => Kind::Error,
                            };
                            // A traced run keeps every other request's
                            // frames; the rest are its untraced baseline.
                            (kind, (traced && i % 2 == 0).then_some((request, resp)))
                        }
                        Err(_) => {
                            // A broken connection is replaced; if that
                            // fails too, later sends on it fail as well.
                            if let Ok(c) = Client::connect(addr) {
                                *client = c;
                            }
                            (Kind::Transport, None)
                        }
                    };
                    local.push((
                        i,
                        Outcome {
                            timing,
                            kind,
                            rtt_us,
                            frames,
                        },
                    ));
                }
                results.lock().expect("open-loop results").extend(local);
            });
        }
    });
    let mut out = results.into_inner().expect("open-loop results");
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, o)| o).collect()
}

/// Reference `(checksum, rows)` per distinct binding: Typer and
/// Tectorwise, run directly through `QueryPlan`, must agree.
type References = HashMap<(usize, String), Option<(u64, u64)>>;

fn references(dbs: &Dbs, phases: &[Phase]) -> References {
    let mut refs = References::new();
    for p in phases.iter().flat_map(|ph| &ph.planned) {
        refs.entry((p.qi, p.spec.clone())).or_insert_with(|| {
            let q = QueryId::ALL[p.qi];
            let params = Params::from_spec(q, &p.spec).expect("drawn specs parse");
            let [t, v] =
                ENGINES.map(|e| dbep_queries::plan(q).run(e, dbs.for_query(q), &ExecCfg::default(), &params));
            (t.checksum64() == v.checksum64()).then(|| (t.checksum64(), t.len() as u64))
        });
    }
    refs
}

/// One measured rate phase, checked.
struct Phase {
    offered: f64,
    window_s: f64,
    planned: Vec<Planned>,
    outcomes: Vec<Outcome>,
    ok: Vec<bool>,
    tally: Tally,
}

impl Phase {
    fn check(&mut self, refs: &References) {
        for (p, o) in self.planned.iter().zip(&self.outcomes) {
            let expected = refs[&(p.qi, p.spec.clone())];
            let ok = matches!(&o.kind, Kind::Result(r) if expected == Some((r.checksum, r.rows)));
            self.ok.push(ok);
            self.tally.record(ok);
        }
    }

    fn ok_outcomes(&self) -> impl Iterator<Item = &Outcome> {
        self.outcomes
            .iter()
            .zip(&self.ok)
            .filter(|(_, ok)| **ok)
            .map(|(o, _)| o)
    }

    fn ok_results(&self) -> Vec<&RunOutcome> {
        self.ok_outcomes()
            .filter_map(|o| match &o.kind {
                Kind::Result(r) => Some(r),
                _ => None,
            })
            .collect()
    }

    fn latencies_ms(&self) -> Vec<f64> {
        self.ok_outcomes().map(|o| o.timing.latency() * 1e3).collect()
    }

    /// Latencies of the requests with (`true`) or without frames kept.
    fn latencies_traced_ms(&self, traced: bool) -> Vec<f64> {
        self.ok_outcomes()
            .filter(|o| o.frames.is_some() == traced)
            .map(|o| o.timing.latency() * 1e3)
            .collect()
    }

    fn goodput(&self) -> f64 {
        self.ok_outcomes()
            .filter(|o| o.timing.done <= self.window_s)
            .count() as f64
            / self.window_s
    }

    fn lateness_ms(&self) -> Vec<f64> {
        self.outcomes.iter().map(|o| o.timing.lateness() * 1e3).collect()
    }

    fn point(&self) -> RatePoint {
        RatePoint {
            offered: self.offered,
            p99_ms: tail(&self.latencies_ms(), TAIL),
            backlog_grows: backlog_grows(&self.lateness_ms(), P99_LIMIT_MS),
            failed: self.tally.failed,
        }
    }

    fn count(&self, f: impl Fn(&Kind) -> bool) -> usize {
        self.outcomes.iter().filter(|o| f(&o.kind)).count()
    }
}

/// Run one phase per `(rate, window_s)`, then check every response.
fn measure(w: &mut Wired, rates: &[(f64, f64)], varied: bool, seed: u64, traced: bool) -> Vec<Phase> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let planned: Vec<Vec<Planned>> = rates
        .iter()
        .map(|&(rate, window_s)| plan(rate, window_s, varied, &mut rng))
        .collect();
    let addr = w.server.local_addr();
    let mut phases: Vec<Phase> = planned
        .into_iter()
        .zip(rates)
        .map(|(planned, &(offered, window_s))| {
            let outcomes = open_loop(&mut w.clients, addr, &planned, traced);
            Phase {
                offered,
                window_s,
                planned,
                outcomes,
                ok: Vec::new(),
                tally: Tally::default(),
            }
        })
        .collect();
    // Outside the clock: the reference of every binding drawn.
    let refs = references(&w.dbs, &phases);
    for phase in &mut phases {
        phase.check(&refs);
    }
    phases
}

/// Median time (ns) of `Request::encode` plus `Response::decode` over
/// the recorded frames.
fn codec_ns(phase: &Phase) -> f64 {
    const REPS: u32 = 16;
    let times: Vec<f64> = phase
        .outcomes
        .iter()
        .filter_map(|o| o.frames.as_ref())
        .map(|(req, resp)| {
            let frame = resp.encode();
            let t0 = Instant::now();
            for _ in 0..REPS {
                std::hint::black_box(std::hint::black_box(req).encode());
                let decoded = Response::decode(frame[4], std::hint::black_box(&frame[5..]));
                std::hint::black_box(decoded.expect("a frame the server produced decodes"));
            }
            t0.elapsed().as_nanos() as f64 / f64::from(REPS)
        })
        .collect();
    median(&times)
}

/// Results whose binding had been answered fewer than twice before:
/// under explore-then-commit over two candidate engines those runs
/// explore. Counted over all phases in schedule order; reports the
/// count inside phase `which`.
fn explore_runs(phases: &[Phase], which: usize) -> f64 {
    let mut seen: HashMap<(usize, &str), u32> = HashMap::new();
    let mut count = 0;
    for (k, phase) in phases.iter().enumerate() {
        for (p, o) in phase.planned.iter().zip(&phase.outcomes) {
            if !matches!(o.kind, Kind::Result(_)) {
                continue;
            }
            let n = seen.entry((p.qi, p.spec.as_str())).or_insert(0);
            if *n < 2 && k == which {
                count += 1;
            }
            *n += 1;
        }
    }
    count as f64
}

/// The net and load-generator per-layer figures of one traced phase.
fn net_layers(phase: &Phase, l: &mut Layers) {
    let overhead: Vec<f64> = phase
        .ok_outcomes()
        .filter_map(|o| match &o.kind {
            Kind::Result(res) => Some(o.rtt_us - (res.latency_ns + res.planning_ns) as f64 / 1e3),
            _ => None,
        })
        .collect();
    l.rtt_overhead_us = median(&overhead);
    l.server_wire_us = median(
        &phase
            .ok_results()
            .iter()
            .map(|o| o.wire_ns as f64 / 1e3)
            .collect::<Vec<_>>(),
    );
    l.codec_ns = codec_ns(phase);
    l.retry_ratio = phase.count(|k| matches!(k, Kind::Retry)) as f64 / phase.outcomes.len().max(1) as f64;
    l.lateness_ms = percentile(&phase.lateness_ms(), TAIL);
    l.sent = phase.count(|k| !matches!(k, Kind::Shed)) as f64;
}

/// The wire path on another workload's data: a server over `dbs`, the
/// paper's default bindings at an open-loop `rate` for `window_s`,
/// traced. Fills the net and load-generator figures of `l`; returns
/// the checked tally.
pub fn net_phase(dbs: &Dbs, rate: f64, window_s: f64, seed: u64, l: &mut Layers) -> Tally {
    let mut w = Wired::start(Dbs {
        tpch: std::sync::Arc::clone(&dbs.tpch),
        ssb: std::sync::Arc::clone(&dbs.ssb),
    });
    let phases = measure(&mut w, &[(rate, window_s)], false, seed, true);
    net_layers(&phases[0], l);
    phases[0].tally
}

pub fn run(run: Run) -> Report {
    let mut r = Report::new("wire-params-sf0.01", run.trace);
    let (mut w, [tpch_s, ssb_s, setup_s]) = repeated_setup(SF, SETUPS, run.sub_seed(1), Wired::start);
    let reference = engines::volcano_reference(&w.dbs);
    let engine_window = Duration::from_secs_f64(run.seconds * ENGINE_SHARE);
    let pass = engines::run(&w.dbs, &reference, engine_window, 3, run.sub_seed(2), run.trace);
    let budget = run.seconds * (1.0 - ENGINE_SHARE);
    let rates: Vec<(f64, f64)> = RATES
        .iter()
        .zip(RATE_SHARES)
        .map(|(&r, s)| (r, budget * s))
        .collect();
    let phases = measure(&mut w, &rates, true, run.sub_seed(3), run.trace);
    r.tally = pass.tally;
    for p in &phases {
        r.tally.add(p.tally);
    }
    let mid = &phases[MIDDLE];
    let lat = mid.latencies_ms();
    let n = lat.len();
    let points: Vec<RatePoint> = phases.iter().map(Phase::point).collect();
    let max_rate_qps = max_rate(&points, P99_LIMIT_MS).unwrap_or(0.0);
    r.stamp("sf", SF);
    r.stamp(
        "threads",
        format!("server pool {WORKERS} workers, {CONNS} connections, RUN_PARAMS on adaptive"),
    );
    r.stamp(
        "reference",
        "per distinct binding, Typer and Tectorwise agree (checksum64, rows), computed after the window; \
         Volcano for the engine pass",
    );
    for (p, pt) in phases.iter().zip(&points) {
        r.stamp(
            "rate",
            format!(
                "offered {}/s: sent {}, goodput {:.1}/s, p50 {:.2} ms, p99 {}, backlog growing {}, failed {}",
                p.offered,
                p.outcomes.len(),
                p.goodput(),
                median(&p.latencies_ms()),
                pt.p99_ms.map_or("unsupported".into(), |v| format!("{v:.2} ms")),
                pt.backlog_grows,
                p.tally.failed
            ),
        );
    }
    r.stamp(
        "max_rate_qps",
        format!("{max_rate_qps} (highest offered rate with p99 <= {P99_LIMIT_MS} ms, no growing backlog, no failure)"),
    );
    r.stamp(
        "samples",
        format!(
            "{n} checked results at the middle rate in {:.1} s; engine pass {} rounds; {SETUPS} set-ups",
            mid.window_s, pass.rounds
        ),
    );
    if !run.trace {
        let rounds = format!("SF {SF} engine pass, {} runs per query", pass.rounds);
        r.e2e("typer_ms", pass.typer_ms, "ms", rounds.clone());
        r.e2e("tectorwise_ms", pass.tectorwise_ms, "ms", rounds);
        let offered = RATES[MIDDLE];
        r.e2e(
            "qps",
            mid.goodput(),
            "1/s",
            format!("goodput at {offered}/s offered, n={n}"),
        );
        r.e2e("p50_ms", median(&lat), "ms", format!("from schedule, n={n}"));
        let t = tail(&lat, TAIL).expect("the middle rate yields over 1000 results");
        r.e2e("tail_ms", t, "ms", format!("p99 from schedule, n={n}"));
        r.e2e(
            "setup_s",
            setup_s,
            "s",
            format!("median of {SETUPS}: data generation, server start, connect, warm-up"),
        );
        r.e2e("rss_mb", crate::host::peak_rss_mb(), "MB", "peak resident");
        return r;
    }
    let results = mid.ok_results();
    let field = |f: fn(&RunOutcome) -> f64| results.iter().map(|o| f(o)).collect::<Vec<_>>();
    let mut l = Layers::from_pass(&pass);
    l.prepare_us = median(&field(|o| o.planning_ns as f64 / 1e3));
    l.plan_cache_hit_ratio = mean(&field(|o| f64::from(u8::from(o.cache_hit))));
    l.adaptive_explore_runs = explore_runs(&phases, MIDDLE);
    // The RESULT frame carries the server-side `RunStats`.
    let stats: Vec<RunStats> = results
        .iter()
        .map(|o| RunStats {
            admission_wait: Duration::from_nanos(o.admission_wait_ns),
            queue_wait: Duration::from_nanos(o.queue_wait_ns),
            tasks: o.tasks,
            morsels: o.morsels,
            steals: o.steals,
            bytes_scanned: o.bytes_scanned,
        })
        .collect();
    l.set_scheduler(SchedulerFigures::from_stats(&stats));
    net_layers(mid, &mut l);
    l.max_rate_qps = max_rate_qps;
    l.tpch_s = tpch_s;
    l.ssb_s = ssb_s;
    l.trace_overhead_pct = pct(
        median(&mid.latencies_traced_ms(true)),
        median(&mid.latencies_traced_ms(false)),
    );
    l.emit(&mut r);
    r
}
