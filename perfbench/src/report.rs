//! The result of one benchmark run and its one-line JSON form.

use std::fmt::Write;

/// The end-to-end metrics of `BENCHMARK.json`: every workload's
/// untraced run reports each of them.
pub const END_TO_END: [&str; 6] =
    ["setup_s", "replay_kops", "wa", "pad_ratio", "durability_mean_us", "peak_rss_mib"];

/// The per-layer metrics of `BENCHMARK.json`: every workload's traced
/// run reports each of them. Metrics of a layer that only the serve
/// workloads enter (client-side and WAL timings, reads, checkpoint and
/// recovery spans) are printed in their table instead: engine-zipf has
/// no value for them.
pub const PER_LAYER: [&str; 28] = [
    "serve.gap_ns_per_op",
    "serve.ops_per_apply",
    "serve.idle_gc_steps",
    "lss.apply_ns_per_op",
    "lss.gc.passes",
    "lss.gc.migrated_per_pass",
    "lss.gc.select_ms",
    "lss.memory_bytes",
    "lss.flush.padded_share",
    "lss.buffer_absorbed_share",
    "wal.bytes_per_op",
    "wal.checkpoints",
    "recovery.records_applied",
    "recovery.sink_records_scanned",
    "core.place_user_ns",
    "core.place_gc_ns",
    "core.on_migrated_ns",
    "core.on_sealed_ns",
    "core.on_reclaimed_ns",
    "core.sla_expire_ns",
    "core.calls_per_op",
    "core.policy_bytes",
    "core.shadow_appends",
    "core.lazy_appends",
    "array.write_chunk_us",
    "array.chunks_per_op",
    "trace.floor_ns",
    "trace.overhead",
];

/// What one run measured and whether its outputs checked out.
#[derive(Debug, Default)]
pub struct Report {
    /// Every correctness check passed.
    pub correct: bool,
    /// Host operations attempted (set-up prefill included).
    pub attempted: u64,
    /// Operations that failed or were never acknowledged.
    pub failed: u64,
    /// `(name, value, unit)` in print order: every metric the run
    /// measured. The result line holds only those of [`END_TO_END`] or
    /// [`PER_LAYER`]; the rest are printed in the table alone.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines printed before the JSON (sample counts,
    /// retries, check results).
    pub notes: Vec<String>,
}

impl Report {
    pub fn new() -> Self {
        Self { correct: true, ..Self::default() }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Record a correctness check; a failure clears `correct`.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        let what = what.into();
        self.note(format!("check {}: {what}", if ok { "ok" } else { "FAILED" }));
        self.correct &= ok;
    }

    /// The result line: exactly the metrics named in `names`, in that
    /// order. A missing metric fails the run, and so does a non-finite
    /// value, which would not be JSON (it is written as 0).
    pub fn json(&mut self, names: &[&str]) -> String {
        let mut m = String::new();
        for name in names {
            let Some(&(_, value, unit)) = self.metrics.iter().find(|(n, ..)| n == name) else {
                self.check(false, format!("metric {name} measured"));
                continue;
            };
            let v = if value.is_finite() {
                value
            } else {
                self.check(false, format!("metric {name} is a finite number"));
                0.0
            };
            let sep = if m.is_empty() { "" } else { ", " };
            write!(m, "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
                .expect("writing to a String cannot fail");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_holds_the_named_metrics_in_order() {
        let mut r = Report::new();
        r.attempted = 10;
        r.metric("wa", 3.0, "ratio");
        r.metric("table_only", 7.0, "count");
        r.metric("setup_s", 0.5, "s");
        assert_eq!(
            r.json(&["setup_s", "wa"]),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"wa\": {\"value\": 3.0, \"unit\": \"ratio\"}}}"
        );
        assert!(r.correct);
    }

    #[test]
    fn a_missing_metric_fails_the_run() {
        let mut r = Report::new();
        r.metric("setup_s", 0.5, "s");
        r.json(&["setup_s", "wa"]);
        assert!(!r.correct);
    }

    /// The names in `BENCHMARK.json`'s `end_to_end` and `per_layer`
    /// lists, in order.
    fn manifest_names() -> (Vec<String>, Vec<String>) {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let section = |key: &str, end: &str| -> Vec<String> {
            let from = text.find(key).expect("section present");
            let to = text[from..].find(end).map_or(text.len(), |i| from + i);
            text[from..to]
                .split("\"name\": \"")
                .skip(1)
                .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
                .collect()
        };
        (section("\"end_to_end\"", "\"per_layer\""), section("\"per_layer\"", "]"))
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let (end_to_end, per_layer) = manifest_names();
        assert_eq!(end_to_end, END_TO_END);
        assert_eq!(per_layer, PER_LAYER);
    }
}
