//! Client loops shared by the workloads: one OLTP client issuing the op
//! stream, one OLAP client cycling the query set, and the statistics both
//! report.

use crate::olap::{self, ExecTotals};
use crate::oltp::{OpGen, Outcome, Shadow, UnifiedExec};
use crate::report::Report;
use crate::trace::{percentile, Tracer};
use hana_calc::ResultSet;
use hana_core::UnifiedTable;
use hana_txn::Snapshot;
use hana_workload::OltpOp;
use std::sync::Arc;

/// Percentile `p` of durations in ns, in µs.
pub fn pct_us(ns: &[u64], p: f64) -> f64 {
    let mut v = ns.to_vec();
    v.sort_unstable();
    percentile(&v, p).map_or(0.0, |x| x as f64 / 1e3)
}

/// Requests per second of client busy time: what a closed-loop client
/// achieves, without the benchmark's own checks between requests.
pub fn per_s(lat_ns: &[u64]) -> f64 {
    lat_ns.len() as f64 / (lat_ns.iter().sum::<u64>().max(1) as f64 / 1e9)
}

/// Mean of durations in ns.
pub fn mean_ns(v: &[u64]) -> f64 {
    v.iter().sum::<u64>() as f64 / v.len().max(1) as f64
}

/// Median of a non-empty sample.
pub fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    v[(v.len() - 1) / 2]
}

/// Bytes of L1, L2 and main per live row.
pub fn mem_bytes_per_row(table: &UnifiedTable, live_rows: usize) -> f64 {
    let s = table.stage_stats();
    (s.l1_bytes + s.l2_bytes + s.main_bytes) as f64 / live_rows.max(1) as f64
}

/// One OLTP client: the seeded op stream, the executor and the checks.
pub struct OltpClient {
    /// Executor over the unified table.
    pub exec: UnifiedExec,
    /// Op stream.
    pub gen: OpGen,
    /// Expected state of every live order.
    pub shadow: Shadow,
    /// This client's spans.
    pub tracer: Tracer,
    /// Recorded latencies per op class, ns.
    pub lat: [Vec<u64>; 4],
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed or read a wrong value.
    pub failed: u64,
    /// Ops committed.
    pub committed: u64,
    /// What wrong values were read.
    pub wrong: Vec<String>,
}

impl OltpClient {
    /// A client over `exec` starting from `shadow`.
    pub fn new(exec: UnifiedExec, gen: OpGen, shadow: Shadow, tracer: Tracer) -> OltpClient {
        OltpClient {
            exec,
            gen,
            shadow,
            tracer,
            lat: Default::default(),
            attempted: 0,
            failed: 0,
            committed: 0,
            wrong: Vec::new(),
        }
    }

    /// The next op of the stream.
    pub fn next(&mut self) -> (OltpOp, Option<usize>) {
        self.gen.next(&self.shadow)
    }

    /// Execute `op`, check it and, once acknowledged, apply it to the
    /// shadow.
    pub fn run(&mut self, op: &OltpOp, cancel_slot: Option<usize>) {
        self.attempted += 1;
        match self.exec.execute(op, &self.shadow, &mut self.tracer) {
            Outcome::Ok => {
                self.committed += 1;
                self.shadow.apply(op, cancel_slot);
            }
            Outcome::Wrong(w) => {
                self.failed += 1;
                self.wrong.push(w);
            }
            Outcome::Failed(e) => {
                self.failed += 1;
                eprintln!("perfbench: op failed: {e}");
            }
        }
    }

    /// All recorded latencies, ns.
    pub fn all_lat(&self) -> Vec<u64> {
        self.lat.iter().flatten().copied().collect()
    }

    /// Report the request-class metrics of the recorded ops; throughput
    /// only for a closed loop (an open loop's is its fixed rate).
    pub fn report_classes(&self, closed_loop: bool, r: &mut Report) {
        let all = self.all_lat();
        if closed_loop {
            r.set("oltp.ops_per_s", per_s(&all));
        }
        r.set("oltp.p50_us", pct_us(&all, 50.0));
        r.set("oltp.p99_us", pct_us(&all, 99.0));
        r.set("oltp.samples", all.len() as f64);
        for (name, lat) in [
            ("oltp.new_order_p50_us", &self.lat[0]),
            ("oltp.payment_p50_us", &self.lat[1]),
            ("oltp.lookup_p50_us", &self.lat[2]),
            ("oltp.cancel_p50_us", &self.lat[3]),
        ] {
            r.set(name, pct_us(lat, 50.0));
        }
    }

    /// Fold the outcome counters into the run's report.
    pub fn account(&mut self, r: &mut Report) {
        r.attempted += self.attempted;
        r.failed += self.failed;
        for w in self.wrong.drain(..) {
            r.wrong(w);
        }
    }
}

/// One OLAP client cycling Q1–Q5.
pub struct OlapClient {
    /// The table queried.
    pub table: Arc<UnifiedTable>,
    /// This client's spans.
    pub tracer: Tracer,
    /// Executor work counters of the recorded queries.
    pub totals: ExecTotals,
    /// Recorded latencies of untraced queries, ns.
    pub lat: Vec<u64>,
    /// Recorded latencies of traced queries, ns.
    pub traced_lat: Vec<u64>,
    /// Queries attempted.
    pub attempted: u64,
    /// Queries that failed or answered wrongly.
    pub failed: u64,
    /// What wrong answers were given.
    pub wrong: Vec<String>,
}

impl OlapClient {
    /// A client over `table`.
    pub fn new(table: Arc<UnifiedTable>, tracer: Tracer) -> OlapClient {
        OlapClient {
            table,
            tracer,
            totals: ExecTotals::default(),
            lat: Vec::new(),
            traced_lat: Vec::new(),
            attempted: 0,
            failed: 0,
            wrong: Vec::new(),
        }
    }

    /// Run query `q` under `snap`; `check` judges the answer. `record`
    /// keeps its latency and, when untraced, its work counters.
    pub fn query(
        &mut self,
        q: usize,
        snap: Snapshot,
        record: bool,
        check: impl FnOnce(&ResultSet) -> Result<(), String>,
    ) {
        self.attempted += 1;
        let traced = self.tracer.enabled();
        let mut unrecorded = ExecTotals::default();
        let totals = if record && !traced {
            &mut self.totals
        } else {
            &mut unrecorded
        };
        let t0 = std::time::Instant::now();
        let out = olap::run(&self.table, q, snap, &mut self.tracer, totals);
        let ns = t0.elapsed().as_nanos() as u64;
        match (record, traced) {
            (true, false) => self.lat.push(ns),
            (true, true) => self.traced_lat.push(ns),
            (false, _) => {}
        }
        match out.map(|rs| check(&rs)) {
            Ok(Ok(())) => {}
            Ok(Err(w)) => {
                self.failed += 1;
                self.wrong.push(w);
            }
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: Q{} failed: {e}", q + 1);
            }
        }
    }

    /// Report the request-class metrics of the recorded queries.
    pub fn report_classes(&self, r: &mut Report) {
        r.set("olap.q_per_s", per_s(&self.lat));
        r.set("olap.p50_ms", pct_us(&self.lat, 50.0) / 1e3);
        r.set("olap.p99_ms", pct_us(&self.lat, 99.0) / 1e3);
        r.set("olap.samples", self.lat.len() as f64);
    }

    /// Report the executor's work counters, per query.
    pub fn report_exec(&self, r: &mut Report) {
        let t = &self.totals;
        let n = t.queries.max(1) as f64;
        r.set("calc.full_scans", t.full_scans as f64 / n);
        r.set("calc.indexed_scans", t.indexed_scans as f64 / n);
        r.set("calc.zone_pruned_rows", t.zone_pruned_rows as f64 / n);
        r.set("calc.code_filtered_rows", t.code_filtered_rows as f64 / n);
        r.set("calc.residue_rows", t.residue_rows as f64 / n);
        let lookups = (t.bitmap_hits + t.bitmap_misses).max(1) as f64;
        r.set(
            "calc.bitmap_cache_hit_ratio",
            t.bitmap_hits as f64 / lookups,
        );
        r.set("calc.governor_wait_us", t.governor_wait_ns as f64 / n / 1e3);
        r.set("calc.effective_parallelism", t.parallelism as f64 / n);
    }

    /// Fold the outcome counters into the run's report.
    pub fn account(&mut self, r: &mut Report) {
        r.attempted += self.attempted;
        r.failed += self.failed;
        for w in self.wrong.drain(..) {
            r.wrong(w);
        }
    }
}
