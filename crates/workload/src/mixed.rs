//! The mixed HTAP driver.
//!
//! "Operational systems embed more and more statistical operations … into
//! the individual business process. … classical data-warehouse
//! infrastructures are required to capture transaction feeds for real-time
//! analytics" (§5). The mixed driver runs OLTP writer threads and OLAP
//! reader threads against the *same* unified table concurrently, with the
//! merge daemon propagating records in the background — the paper's whole
//! thesis as one executable scenario.

use crate::datagen::DataGen;
use crate::olap::{OlapQuery, OlapRunner, ALL_QUERIES};
use crate::oltp::{GroupOltp, OltpDriver, OltpEngine};
use crate::sales::SalesDataset;
use hana_common::Result;
use hana_core::Database;
use hana_txn::Snapshot;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Percentile summary of one operation class's latencies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyStats {
    /// Samples folded in.
    pub count: u64,
    /// Median latency (µs).
    pub p50_us: u64,
    /// 95th-percentile latency (µs).
    pub p95_us: u64,
    /// 99th-percentile latency (µs) — the number the governor defends.
    pub p99_us: u64,
    /// Worst observed latency (µs).
    pub max_us: u64,
}

impl LatencyStats {
    /// Fold a sample set (µs per operation); sorts in place.
    pub fn from_samples(samples: &mut [u64]) -> LatencyStats {
        if samples.is_empty() {
            return LatencyStats::default();
        }
        samples.sort_unstable();
        let pct = |p: usize| samples[(samples.len() - 1) * p / 100];
        LatencyStats {
            count: samples.len() as u64,
            p50_us: pct(50),
            p95_us: pct(95),
            p99_us: pct(99),
            max_us: *samples.last().unwrap(),
        }
    }
}

/// Results of a mixed run.
#[derive(Debug, Clone, Default)]
pub struct MixedReport {
    /// Committed OLTP operations across all writer threads.
    pub oltp_ops: u64,
    /// Write conflicts encountered (retryable, not counted as ops).
    pub oltp_conflicts: u64,
    /// Completed OLAP queries across all reader threads.
    pub olap_queries: u64,
    /// OLAP queries rejected retryably (governor admission timeouts).
    pub olap_rejected: u64,
    /// Per-commit OLTP latency percentiles.
    pub oltp_latency: LatencyStats,
    /// Per-query OLAP latency percentiles.
    pub olap_latency: LatencyStats,
    /// Wall-clock duration of the measured phase.
    pub elapsed: Duration,
}

impl MixedReport {
    /// OLTP throughput in operations per second.
    pub fn oltp_throughput(&self) -> f64 {
        self.oltp_ops as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// OLAP throughput in queries per second.
    pub fn olap_throughput(&self) -> f64 {
        self.olap_queries as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Configuration + execution of a mixed run.
pub struct MixedWorkload {
    /// OLTP writer threads.
    pub writers: usize,
    /// OLAP reader threads.
    pub readers: usize,
    /// Measured duration.
    pub duration: Duration,
    /// Zipf skew of the OLTP key distribution.
    pub skew: f64,
}

impl Default for MixedWorkload {
    fn default() -> Self {
        MixedWorkload {
            writers: 2,
            readers: 2,
            duration: Duration::from_millis(250),
            skew: 0.8,
        }
    }
}

impl MixedWorkload {
    /// Run against a loaded dataset; the caller decides whether the merge
    /// daemon runs.
    ///
    /// Writers commit through the database façade ([`GroupOltp`]; the
    /// group-commit pipeline when durable, plain MVCC commit in memory),
    /// so the resource governor's write-pressure signal sees every commit.
    /// Per-operation latencies are recorded per class and folded into
    /// p50/p95/p99 — the CH-benCHmark-style interference measurement.
    pub fn run(&self, db: &Arc<Database>, ds: &SalesDataset) -> Result<MixedReport> {
        let stop = Arc::new(AtomicBool::new(false));
        let oltp_ops = Arc::new(AtomicU64::new(0));
        let conflicts = Arc::new(AtomicU64::new(0));
        let olap_queries = Arc::new(AtomicU64::new(0));
        let olap_rejected = Arc::new(AtomicU64::new(0));
        let oltp_lat: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let olap_lat: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let driver = Arc::new(OltpDriver::new(
            ds.orders,
            ds.n_customers,
            ds.n_products,
            self.skew,
        ));

        let start = Instant::now();
        std::thread::scope(|scope| -> Result<()> {
            for w in 0..self.writers {
                let stop = Arc::clone(&stop);
                let ops = Arc::clone(&oltp_ops);
                let confl = Arc::clone(&conflicts);
                let lat = Arc::clone(&oltp_lat);
                let driver = Arc::clone(&driver);
                let engine = GroupOltp::new(Arc::clone(db), Arc::clone(&ds.sales));
                scope.spawn(move || {
                    let mut gen = DataGen::new(1000 + w as u64);
                    let mut local = Vec::new();
                    while !stop.load(Ordering::Relaxed) {
                        let op = driver.next_op(&mut gen);
                        let t0 = Instant::now();
                        match engine.execute(&op) {
                            Ok(_) => {
                                local.push(t0.elapsed().as_micros() as u64);
                                ops.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) if e.is_retryable() => {
                                confl.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(_) => { /* not-found on cancelled rows etc. */ }
                        }
                    }
                    lat.lock().append(&mut local);
                });
            }
            for r in 0..self.readers {
                let stop = Arc::clone(&stop);
                let queries = Arc::clone(&olap_queries);
                let rejected = Arc::clone(&olap_rejected);
                let lat = Arc::clone(&olap_lat);
                let sales = Arc::clone(&ds.sales);
                let mgr = Arc::clone(db.txn_manager());
                scope.spawn(move || {
                    let mut k = r;
                    let mut local = Vec::new();
                    while !stop.load(Ordering::Relaxed) {
                        let q: OlapQuery = ALL_QUERIES[k % ALL_QUERIES.len()];
                        k += 1;
                        let runner = OlapRunner::new(Snapshot::at(mgr.now()));
                        let t0 = Instant::now();
                        match runner.run_unified(&sales, q) {
                            Ok(_) => {
                                local.push(t0.elapsed().as_micros() as u64);
                                queries.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) if e.is_retryable() => {
                                // Governor admission timeout: back off and
                                // retry with a fresh snapshot.
                                rejected.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(_) => {}
                        }
                    }
                    lat.lock().append(&mut local);
                });
            }
            std::thread::sleep(self.duration);
            stop.store(true, Ordering::Relaxed);
            Ok(())
        })?;

        let oltp_latency = LatencyStats::from_samples(&mut oltp_lat.lock());
        let olap_latency = LatencyStats::from_samples(&mut olap_lat.lock());
        Ok(MixedReport {
            oltp_ops: oltp_ops.load(Ordering::Relaxed),
            oltp_conflicts: conflicts.load(Ordering::Relaxed),
            olap_queries: olap_queries.load(Ordering::Relaxed),
            olap_rejected: olap_rejected.load(Ordering::Relaxed),
            oltp_latency,
            olap_latency,
            elapsed: start.elapsed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hana_common::TableConfig;
    use hana_txn::IsolationLevel;

    #[test]
    fn mixed_run_makes_progress_and_stays_consistent() {
        let db = Database::in_memory();
        let cfg = TableConfig {
            l1_max_rows: 64,
            l2_max_rows: 256,
            ..TableConfig::default()
        };
        let ds = SalesDataset::load(&db, cfg, 500, 50, 20, 7).unwrap();
        db.start_merge_daemon(Duration::from_millis(5));
        let report = MixedWorkload {
            writers: 2,
            readers: 2,
            duration: Duration::from_millis(200),
            skew: 0.8,
        }
        .run(&db, &ds)
        .unwrap();
        db.stop_merge_daemon();
        assert!(report.oltp_ops > 0, "{report:?}");
        assert!(report.olap_queries > 0, "{report:?}");
        // Consistency: every order id visible exactly once.
        let r = db.begin(IsolationLevel::Transaction);
        let read = ds.sales.read(&r);
        let mut ids = std::collections::HashSet::new();
        let mut dupes = 0;
        read.for_each_visible(|row| {
            if !ids.insert(row.values[0].clone()) {
                dupes += 1;
            }
        });
        assert_eq!(dupes, 0, "no order id may be visible twice");
        // Lifecycle really ran under load.
        let stats = ds.sales.stage_stats();
        assert!(
            stats.main_rows > 0 || stats.l2_rows > 0,
            "daemon should have moved rows: {stats:?}"
        );
    }
}
