//! F10b — group commit: concurrent OLTP writers against a durable table,
//! fsync-per-commit vs the leader-based group-commit pipeline.
//!
//! Shape expected: serial mode is bounded by disk-sync latency regardless
//! of writer count; group mode amortizes one fsync over a whole batch, so
//! commits/sec scales with writers until the log device saturates. The
//! durability contract is identical in both modes (commit returns only
//! once its record is on disk), so any gap is pure batching.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hana_common::{CommitConfig, TableConfig};
use hana_core::Database;
use hana_workload::oltp::GroupOltp;
use hana_workload::{OltpDriver, SalesDataset};
use std::sync::Arc;

const ORDERS: i64 = 5_000;
const OPS_PER_THREAD: usize = 50;

fn bench_group_commit(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig10_oltp_group_commit");
    g.sample_size(10);

    for &threads in &[1usize, 4, 8] {
        g.throughput(Throughput::Elements((threads * OPS_PER_THREAD) as u64));
        for (label, cfg) in [
            ("serial_fsync", CommitConfig::serial()),
            ("group_commit", CommitConfig::default()),
        ] {
            let dir = tempfile::tempdir().unwrap();
            let db = Database::open(dir.path()).unwrap();
            db.set_commit_config(cfg);
            // The lifecycle daemon keeps the L1 small so insert cost stays
            // flat and the commit path dominates.
            let tcfg = TableConfig {
                l1_max_rows: 256,
                l2_max_rows: 1_000_000,
                ..TableConfig::default()
            };
            let ds = SalesDataset::load(&db, tcfg, ORDERS, 500, 100, 7).unwrap();
            db.start_merge_daemon(std::time::Duration::from_millis(1));
            let engine = GroupOltp::new(Arc::clone(&db), Arc::clone(&ds.sales));
            // Insert-heavy, conflict-free mix: commits dominate and no
            // Zipf-hot-key aborts muddy the commit-path comparison.
            let driver = OltpDriver::new(ORDERS, 500, 100, 0.9).with_mix((85, 0, 15, 0));
            let mut round = 0u64;
            g.bench_function(BenchmarkId::new(label, format!("{threads}w")), |b| {
                b.iter(|| {
                    round += 1;
                    let rep = driver
                        .run_concurrent(&engine, threads, OPS_PER_THREAD, 1000 * round)
                        .unwrap();
                    std::hint::black_box(rep.committed);
                })
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_group_commit);
criterion_main!(benches);
