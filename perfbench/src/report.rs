//! Metric names and units, the result of one run, and its output: a
//! human-readable report followed by one JSON line.

use std::collections::BTreeMap;

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("mean_avep", "AveP"),
    ("peak_rss_mb", "MiB"),
    ("freshness_p50_ms", "ms"),
];

/// Per-layer metrics, reported by every workload with tracing on. A layer
/// a workload does not use reads 0.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("serve.wait_ms", "ms"),
    ("serve.batch_size", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.stale_evictions", "count"),
    ("serve.rejected", "count"),
    ("router.shards_pruned_per_query", "count"),
    ("router.coarse_leg_ms", "ms"),
    ("router.rerank_leg_ms", "ms"),
    ("router.self_ms", "ms"),
    ("router.result_hit_ratio", "ratio"),
    ("router.outages", "count"),
    ("plan.ms", "ms"),
    ("encode.ms", "ms"),
    ("prune.ms", "ms"),
    ("coarse.ms", "ms"),
    ("coarse.vectors_scored", "count"),
    ("coarse.segments_probed", "count"),
    ("coarse.segments_pruned", "count"),
    ("coarse.filtered_out", "count"),
    ("rerank.ms", "ms"),
    ("rerank.frames", "count"),
    ("rerank.ms_per_frame", "ms"),
    ("aggregate.ms", "ms"),
    ("freshness_p90_ms", "ms"),
    ("ingest.batch_ms", "ms"),
    ("ingest.keyframe_ms", "ms"),
    ("ingest.encode_ms", "ms"),
    ("ingest.index_ms", "ms"),
    ("ingest.key_frames_per_frame", "ratio"),
    ("ingest.index_builds", "count"),
    ("store.sealed_segments", "count"),
    ("store.segments_merged", "count"),
    ("store.write_bytes_per_frame", "B"),
    ("store.bytes_per_patch", "B"),
    ("trace.queries", "count"),
    ("trace.query_ms", "ms"),
    ("trace.self_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.queries", "count"),
    ("failed_ratio", "ratio"),
];

/// A correctness check; any failed gate fails the run.
pub struct Gate {
    pub name: &'static str,
    pub passed: bool,
    pub detail: String,
}

#[derive(Default)]
pub struct Report {
    pub attempted: usize,
    pub failed: usize,
    pub gates: Vec<Gate>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Report {
    pub fn gate(&mut self, name: &'static str, passed: bool, detail: impl Into<String>) {
        self.gates.push(Gate {
            name,
            passed,
            detail: detail.into(),
        });
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn correct(&self) -> bool {
        self.gates.iter().all(|g| g.passed)
    }

    /// The human-readable report: notes, gates, then every metric with its
    /// unit. Metrics the selected mode does not emit in JSON are listed too.
    pub fn print(&self) {
        for line in &self.notes {
            println!("{line}");
        }
        for g in &self.gates {
            let verdict = if g.passed { "PASS" } else { "FAIL" };
            println!("gate {:<28} {verdict}  {}", g.name, g.detail);
        }
        println!(
            "operations attempted {}, failed {} (failed_ratio {})",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            if let Some(value) = self.metrics.get(name) {
                println!("metric {name:<32} {value:>14.4} {unit}");
            }
        }
    }

    /// The result line: `trace` selects the per-layer set, otherwise the
    /// end-to-end set. Fails when a metric of the set was not measured or
    /// is not a finite number.
    pub fn json(&self, trace: bool) -> Result<String, String> {
        if self.attempted == 0 {
            return Err("no operation was attempted".into());
        }
        let set: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut fields = Vec::new();
        for (name, unit) in set {
            let value = *self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}
