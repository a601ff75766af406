//! The metric catalogue and the result line.
//!
//! An untraced run reports every end-to-end metric; a traced run reports
//! every per-layer metric. A per-layer metric of a layer the workload
//! never calls reads 0.

/// End-to-end metrics: name and unit, as listed in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("windows_per_s", "1/s"),
    ("items_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("labels_per_s", "1/s"),
];

/// Per-layer metrics: name and unit, as listed in `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("setup.world_s", "s"),
    ("setup.model_pass_s", "s"),
    ("setup.pool_score_s", "s"),
    ("sample.self_ns", "ns"),
    ("sample.allocs", "count"),
    ("prepare.self_ns", "ns"),
    ("prepare.allocs", "count"),
    ("prepare.calls", "count"),
    ("prepare.share_pct", "%"),
    ("prepare.track.self_ns", "ns"),
    ("prepare.track.allocs", "count"),
    ("prepare.consistency.self_ns", "ns"),
    ("prepare.consistency.allocs", "count"),
    ("check.self_ns", "ns"),
    ("check.allocs", "count"),
    ("check.share_pct", "%"),
    ("check.fire_rate.multibox", "ratio"),
    ("check.fire_rate.flicker", "ratio"),
    ("check.fire_rate.appear", "ratio"),
    ("check.fire_rate.ecg", "ratio"),
    ("uncertainty.self_ns", "ns"),
    ("db.record.self_ns", "ns"),
    ("db.retain.self_ns", "ns"),
    ("db.resident_rows_max", "count"),
    ("service.ingest.self_ns", "ns"),
    ("service.ingest.refused", "count"),
    ("service.drain.self_us", "us"),
    ("service.drain.windows", "count"),
    ("service.drain.overhead_ns_per_window", "ns"),
    ("service.poll.self_ns", "ns"),
    ("service.queue_depth_max", "count"),
    ("generator.lag_p99_ms", "ms"),
    ("runtime.fanout", "count"),
    ("pool.build.self_ms", "ms"),
    ("select.self_ms", "ms"),
    ("select.picked", "count"),
    ("select.fire_counts", "count"),
    ("claim.self_us", "us"),
    ("trace.residual_ns", "ns"),
    ("trace.residual_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.allocs_repeat", "bool"),
];

/// What one run measured.
pub struct Outcome {
    /// Operations attempted (windows, items or rounds).
    pub attempted: u64,
    /// Operations whose output was wrong or that were refused.
    pub failed: u64,
    values: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// An outcome with no operations and no metrics yet.
    pub fn new() -> Self {
        Self {
            attempted: 0,
            failed: 0,
            values: Vec::new(),
        }
    }

    /// Sets metric `name`, replacing an earlier value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// Counts operations and the failed ones among them.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// The result line: one JSON object with every metric of the
    /// catalogue for the mode, or an error naming a metric the workload
    /// did not set (untraced) or a value that is not a finite number.
    pub fn json_line(&self, traced: bool) -> Result<String, String> {
        let catalogue: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        if let Some((name, _)) = self
            .values
            .iter()
            .find(|(n, _)| !catalogue.iter().any(|(c, _)| c == n))
        {
            return Err(format!("metric {name} is not in the catalogue"));
        }
        let mut fields = Vec::with_capacity(catalogue.len());
        for &(name, unit) in catalogue {
            let value = match self.values.iter().find(|(n, _)| *n == name) {
                Some(&(_, v)) => v,
                None if traced => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untraced_line_needs_every_end_to_end_metric() {
        let mut o = Outcome::new();
        o.count(10, 0);
        for (name, _) in END_TO_END {
            o.set(name, 1.5);
        }
        let line = o.json_line(false).expect("complete");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0,"));
        assert!(line.contains("\"latency_p50_ms\": {\"value\": 1.5, \"unit\": \"ms\"}"));
        let mut missing = Outcome::new();
        missing.set("setup_s", 1.0);
        assert!(missing.json_line(false).is_err());
    }

    #[test]
    fn traced_line_fills_untouched_layers_with_zero() {
        let mut o = Outcome::new();
        o.count(3, 1);
        o.set("select.picked", 200.0);
        let line = o.json_line(true).expect("complete");
        assert!(line.starts_with("{\"correct\": false,"));
        assert!(line.contains("\"select.picked\": {\"value\": 200, \"unit\": \"count\"}"));
        assert!(line.contains("\"prepare.self_ns\": {\"value\": 0, \"unit\": \"ns\"}"));
        o.set("setup_s", 1.0);
        assert!(
            o.json_line(true).is_err(),
            "end-to-end names are not per-layer"
        );
        o.set("setup_s", f64::NAN);
        assert!(o.json_line(false).is_err());
    }
}
