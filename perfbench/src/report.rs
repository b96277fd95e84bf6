//! Metric declarations and the result line.
//!
//! The names and units here are the ones `BENCHMARK.json` declares; a
//! test keeps the two lists in step.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by an untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("closed_loop_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("mem_bytes_per_row", "B"),
];

/// Per-layer metrics, printed by a traced run (`--trace 1`). A metric of
/// a layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Request classes as the traced run's untraced requests saw them.
    ("oltp.ops_per_s", "1/s"),
    ("oltp.p50_us", "us"),
    ("oltp.p99_us", "us"),
    ("oltp.samples", "count"),
    ("oltp.lookup_p50_us", "us"),
    ("oltp.payment_p50_us", "us"),
    ("oltp.new_order_p50_us", "us"),
    ("oltp.cancel_p50_us", "us"),
    ("olap.q_per_s", "1/s"),
    ("olap.p50_ms", "ms"),
    ("olap.p99_ms", "ms"),
    ("olap.samples", "count"),
    // Where the traced time went: self time per layer, % of all traced
    // request time, and the point read's share of a lookup.
    ("self.bench_pct", "%"),
    ("self.txn_pct", "%"),
    ("self.core_pct", "%"),
    ("self.calc_pct", "%"),
    ("self.persist_pct", "%"),
    ("self.lookup_core_point_pct", "%"),
    ("self.payment_core_point_pct", "%"),
    // core read path
    ("core.read_view_us", "us"),
    ("core.point_p50_us", "us"),
    ("core.point_p99_us", "us"),
    ("core.vis_cache_misses_per_point", "count"),
    ("core.vis_cache_hit_ratio", "ratio"),
    // core write path (L1 insert and uniqueness probe)
    ("core.insert_us", "us"),
    ("core.update_where_us", "us"),
    ("core.delete_where_us", "us"),
    // txn
    ("txn.begin_us", "us"),
    ("txn.commit_p50_us", "us"),
    ("txn.commit_p99_us", "us"),
    // persist
    ("persist.log_records_per_commit", "ratio"),
    ("persist.records_per_fsync", "ratio"),
    ("persist.fsyncs", "count"),
    ("persist.flush_failures", "count"),
    ("persist.savepoint_p50_ms", "ms"),
    ("persist.savepoint_max_ms", "ms"),
    ("persist.reopen_s", "s"),
    ("persist.disk_bytes_per_row", "B"),
    // calc
    ("calc.compile_us", "us"),
    ("calc.optimize_us", "us"),
    ("calc.exec_ms", "ms"),
    ("calc.exec_ms.q1", "ms"),
    ("calc.exec_ms.q2", "ms"),
    ("calc.exec_ms.q3", "ms"),
    ("calc.exec_ms.q4", "ms"),
    ("calc.exec_ms.q5", "ms"),
    ("calc.full_scans", "count"),
    ("calc.indexed_scans", "count"),
    ("calc.zone_pruned_rows", "count"),
    ("calc.code_filtered_rows", "count"),
    ("calc.residue_rows", "count"),
    ("calc.bitmap_cache_hit_ratio", "ratio"),
    ("calc.governor_wait_us", "us"),
    ("calc.effective_parallelism", "count"),
    // merge
    ("merge.settle_ms", "ms"),
    ("merge.merges_done", "count"),
    ("merge.busy_ms", "ms"),
    ("merge.rows_in", "count"),
    ("merge.failures", "count"),
    ("merge.max_publication_stall_us", "us"),
    // governor
    ("governor.scans_queued", "count"),
    ("governor.scans_timed_out", "count"),
    ("governor.parallelism_downshifts", "count"),
    ("governor.merge_deferrals", "count"),
    // gc
    ("gc.cycles", "count"),
    ("gc.dead_versions", "count"),
    ("gc.vis_entries_evicted", "count"),
    // store
    ("store.main_bytes_per_row", "B"),
    ("store.l2_rows_end", "count"),
    ("store.main_parts_end", "count"),
    // the benchmark itself
    ("bench.generator_lag_us", "us"),
    ("bench.trace_overhead_pct", "%"),
    // P*Time row-store reference (never gates the engine)
    ("rowstore.ptime_op_us", "us"),
    ("rowstore.unified_vs_row_ratio", "ratio"),
];

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Every check passed.
    pub correct: bool,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that failed or answered wrongly.
    pub failed: u64,
    /// What the checks found wrong (printed to stderr).
    pub wrong: Vec<String>,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// An empty, correct report.
    pub fn new() -> Report {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    /// Set metric `name`, which must be declared.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        assert!(value.is_finite(), "metric {name} = {value}");
        self.values.insert(name, value);
    }

    /// Record a failed check.
    pub fn wrong(&mut self, what: String) {
        self.correct = false;
        self.wrong.push(what);
    }

    /// The result line: the end-to-end metrics (`trace = false`) or the
    /// per-layer ones. Every declared metric appears; a per-layer metric
    /// the workload did not exercise reads 0.
    pub fn json(&self, trace: bool) -> String {
        let declared = if trace { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = declared
            .iter()
            .map(|(name, unit)| {
                let v = match self.values.get(name) {
                    Some(v) => *v,
                    None if trace => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// One `name value unit` line per declared metric, for people.
    pub fn table(&self, trace: bool) -> String {
        let declared = if trace { PER_LAYER } else { END_TO_END };
        declared
            .iter()
            .map(|(name, unit)| {
                let v = self.values.get(name).copied().unwrap_or(0.0);
                format!("{name:<36} {:>16} {unit}\n", num(v))
            })
            .collect()
    }
}

/// A JSON number with every digit the value has.
fn num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` declares exactly these metrics with these units.
    #[test]
    fn declarations_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let body = &json[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |f: &str| {
                        let at = entry.find(&format!("\"{f}\": \"")).expect("field") + f.len() + 5;
                        entry[at..at + entry[at..].find('"').expect("closing quote")].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(section("end_to_end"), own(END_TO_END));
        assert_eq!(section("per_layer"), own(PER_LAYER));
    }

    #[test]
    fn json_line_has_every_declared_metric() {
        let mut r = Report::new();
        for (n, _) in END_TO_END {
            r.set(n, 1.25);
        }
        r.attempted = 3;
        let line = r.json(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        let traced = r.json(true);
        assert_eq!(traced.matches("\"value\"").count(), PER_LAYER.len());
        assert_eq!(num(2.0), "2.0");
        assert_eq!(num(0.1234567), "0.1234567");
    }
}
