//! The per-layer metric set. Every workload reports every metric; a
//! layer the workload does not exercise reads 0 (the wire metrics on the
//! in-process workloads, for example).

use crate::engines::{Pass, ENGINES};
use crate::stats::{mean, median};
use crate::Report;
use dbep_core::scheduler::RunStats;

#[derive(Default)]
pub struct Layers {
    /// `(name, ms)` per declared stage and engine, from the engine pass.
    pub stage_ms: Vec<(String, f64)>,
    pub session_overhead_pct: [f64; 2],
    pub prepare_us: f64,
    pub plan_cache_hit_ratio: f64,
    pub adaptive_explore_runs: f64,
    pub queue_wait_ms: f64,
    pub admission_wait_ms: f64,
    pub switches_per_query: f64,
    pub morsels_per_query: f64,
    pub rtt_overhead_us: f64,
    pub server_wire_us: f64,
    pub codec_ns: f64,
    pub retry_ratio: f64,
    pub lateness_ms: f64,
    pub sent: f64,
    pub max_rate_qps: f64,
    pub tpch_s: f64,
    pub ssb_s: f64,
    pub bytes_per_tuple: f64,
    pub trace_overhead_pct: f64,
}

/// Scheduler counters of a set of executions, as the per-query figures
/// the scheduler layer reports.
pub struct SchedulerFigures {
    pub queue_wait_ms: f64,
    pub admission_wait_ms: f64,
    pub switches_per_query: f64,
    pub morsels_per_query: f64,
}

impl SchedulerFigures {
    pub fn from_stats(stats: &[RunStats]) -> Self {
        let f = |g: fn(&RunStats) -> f64| stats.iter().map(g).collect::<Vec<_>>();
        SchedulerFigures {
            queue_wait_ms: median(&f(|s| s.queue_wait.as_secs_f64() * 1e3)),
            admission_wait_ms: median(&f(|s| s.admission_wait.as_secs_f64() * 1e3)),
            switches_per_query: mean(&f(|s| s.steals as f64)),
            morsels_per_query: mean(&f(|s| s.morsels as f64)),
        }
    }
}

impl Layers {
    /// Seed the set from a traced engine pass.
    pub fn from_pass(pass: &Pass) -> Self {
        let t = pass.traced.as_ref().expect("a traced engine pass");
        Layers {
            stage_ms: t.stage_ms.clone(),
            session_overhead_pct: t.session_overhead_pct,
            bytes_per_tuple: pass.bytes_per_tuple,
            ..Layers::default()
        }
    }

    pub fn set_scheduler(&mut self, s: SchedulerFigures) {
        self.queue_wait_ms = s.queue_wait_ms;
        self.admission_wait_ms = s.admission_wait_ms;
        self.switches_per_query = s.switches_per_query;
        self.morsels_per_query = s.morsels_per_query;
    }

    /// Append every per-layer metric to `report`, in a fixed order.
    /// `host.calib_ms` is filled in by the caller, which times the
    /// calibration loop around the whole workload.
    pub fn emit(&self, r: &mut Report) {
        for (name, ms) in &self.stage_ms {
            r.layer(name, *ms, "ms");
        }
        for (e, engine) in ENGINES.iter().enumerate() {
            let name = format!("core.session_overhead.{}_pct", engine.name());
            r.layer(&name, self.session_overhead_pct[e], "%");
        }
        r.layer("core.prepare_us", self.prepare_us, "us");
        r.layer("core.plan_cache_hit_ratio", self.plan_cache_hit_ratio, "ratio");
        r.layer("core.adaptive_explore_runs", self.adaptive_explore_runs, "count");
        r.layer("scheduler.queue_wait_ms", self.queue_wait_ms, "ms");
        r.layer("scheduler.admission_wait_ms", self.admission_wait_ms, "ms");
        r.layer("scheduler.switches_per_query", self.switches_per_query, "count");
        r.layer("scheduler.morsels_per_query", self.morsels_per_query, "count");
        r.layer("net.rtt_overhead_us", self.rtt_overhead_us, "us");
        r.layer("net.server_wire_us", self.server_wire_us, "us");
        r.layer("net.codec_ns", self.codec_ns, "ns");
        r.layer("net.retry_ratio", self.retry_ratio, "ratio");
        r.layer("load.lateness_ms", self.lateness_ms, "ms");
        r.layer("load.sent", self.sent, "count");
        r.layer("load.max_rate_qps", self.max_rate_qps, "1/s");
        r.layer("datagen.tpch_s", self.tpch_s, "s");
        r.layer("datagen.ssb_s", self.ssb_s, "s");
        r.layer("storage.bytes_scanned_per_tuple", self.bytes_per_tuple, "B/tuple");
        r.layer("obs.trace_overhead_pct", self.trace_overhead_pct, "%");
        r.layer("host.calib_ms", 0.0, "ms");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::stage_metric;
    use dbep_core::queries::QueryId;

    /// The per-layer names declared in `BENCHMARK.json` are exactly the
    /// ones every traced run emits: a plan that gains, loses or renames
    /// a stage must update the declaration with it.
    #[test]
    fn emitted_names_match_the_declared_per_layer_metrics() {
        let mut layers = Layers::default();
        for q in QueryId::ALL {
            for engine in ENGINES {
                for s in dbep_core::queries::plan(q).stages() {
                    layers.stage_ms.push((stage_metric(q, s.name, engine), 1.0));
                }
            }
        }
        let mut r = Report::new("test", true);
        layers.emit(&mut r);
        let emitted: Vec<&str> = r.per_layer.iter().map(|m| m.name.as_str()).collect();

        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let per_layer = &text[text.find("\"per_layer\"").expect("a per_layer list")..];
        let declared: Vec<&str> = per_layer
            .split("\"name\": \"")
            .skip(1)
            .map(|s| &s[..s.find('"').expect("closing quote")])
            .collect();
        assert_eq!(emitted, declared);
    }
}
