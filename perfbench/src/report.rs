//! One model of a workload's result, rendered as text lines followed by
//! the one-line JSON object the benchmark's contract asks for.

/// Operations attempted and failed.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += usize::from(!ok);
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count or definition note for the text rendering.
    pub note: String,
}

pub struct Report {
    pub workload: &'static str,
    pub trace: bool,
    /// `key=value` stamp fields (host, revision, SF, threads, seed, …).
    pub stamp: Vec<(&'static str, String)>,
    pub tally: Tally,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Report {
    pub fn new(workload: &'static str, trace: bool) -> Self {
        Report {
            workload,
            trace,
            stamp: Vec::new(),
            tally: Tally::default(),
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
        }
    }

    pub fn stamp(&mut self, key: &'static str, value: impl ToString) {
        self.stamp.push((key, value.to_string()));
    }

    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.end_to_end.push(metric(name, value, unit, note));
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.per_layer.push(metric(name, value, unit, ""));
    }

    /// The metrics the JSON line carries: end-to-end untraced,
    /// per-layer traced.
    pub fn reported(&self) -> &[Metric] {
        if self.trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    pub fn text(&self) -> String {
        let mut out = format!("# perfbench {} (trace {})\n", self.workload, u8::from(self.trace));
        for (k, v) in &self.stamp {
            out += &format!("# {k}: {v}\n");
        }
        for m in self.end_to_end.iter().chain(&self.per_layer) {
            let note = if m.note.is_empty() {
                String::new()
            } else {
                format!("  ({})", m.note)
            };
            out += &format!("{:<44} {:>14.4} {}{note}\n", m.name, m.value, m.unit);
        }
        let share = 100.0 * self.tally.failed as f64 / self.tally.attempted.max(1) as f64;
        out += &format!(
            "# checked: {} attempted, {} failed ({share:.2}%)\n",
            self.tally.attempted, self.tally.failed
        );
        out
    }

    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .reported()
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.failed == 0 && self.tally.attempted > 0,
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

fn metric(name: &str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        note: note.into(),
    }
}

/// Full-precision JSON number. A non-finite value has no JSON form and
/// means a metric was computed from nothing — a bug, not a result.
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric value {v}");
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut r = Report::new("w", false);
        r.tally.record(true);
        r.e2e("a_ms", 1.5, "ms", "n=1");
        r.layer("b.c", 2.0, "count");
        assert_eq!(
            r.json(),
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"a_ms": {"value": 1.5, "unit": "ms"}}}"#
        );
        r.trace = true;
        r.tally.record(false);
        assert!(r
            .json()
            .starts_with(r#"{"correct": false, "attempted": 2, "failed": 1,"#));
        assert!(r.json().contains(r#""b.c": {"value": 2, "unit": "count"}"#));
    }
}
