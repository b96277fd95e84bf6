//! F11p — hash-partitioned unified tables: the sharded write path vs a
//! single-shard table, and the partition-parallel filtered scan.
//!
//! Shape expected: with one partition, every writer serializes on the same
//! shard's table locks and probes the same delta, so commits/sec collapses
//! as writers are added; with eight partitions the hash-routed writers work
//! disjoint shards whose delta budgets are one eighth the size, so
//! throughput holds. The scan group fans one filtered scan out across the
//! shards under a single snapshot; its gain is core-bound.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hana_common::{PartitionConfig, TableConfig, Value};
use hana_core::{ColumnPredicate, Database};
use hana_txn::{IsolationLevel, Snapshot};
use hana_workload::oltp::GroupOltp;
use hana_workload::sales::fact_cols;
use hana_workload::{DataGen, OltpDriver, SalesSchema};
use std::ops::Bound;
use std::sync::Arc;

const OPS_PER_THREAD: usize = 200;
const SCAN_ROWS: i64 = 60_000;

fn partitioned_engine(parts: usize) -> GroupOltp {
    let db = Database::in_memory();
    // One logical delta budget, divided across the shards.
    let tcfg = TableConfig {
        l1_max_rows: 8_192,
        l2_max_rows: 1_000_000,
        ..TableConfig::default()
    };
    let table = db
        .create_partitioned_table(
            SalesSchema::fact(),
            tcfg,
            PartitionConfig::new(parts, fact_cols::ORDER_ID),
        )
        .unwrap();
    db.start_merge_daemon(std::time::Duration::from_millis(1));
    GroupOltp::new(db, table)
}

fn bench_partitioned_writers(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig11p_partitioned_writers");
    g.sample_size(10);

    for &threads in &[1usize, 4, 8] {
        g.throughput(Throughput::Elements((threads * OPS_PER_THREAD) as u64));
        for &parts in &[1usize, 8] {
            let engine = partitioned_engine(parts);
            // Insert-heavy, conflict-free mix: the sharded write path
            // dominates, no hot-key aborts.
            let driver = OltpDriver::new(0, 500, 100, 0.9).with_mix((85, 0, 15, 0));
            let mut round = 0u64;
            g.bench_function(
                BenchmarkId::new(format!("{parts}p"), format!("{threads}w")),
                |b| {
                    b.iter(|| {
                        round += 1;
                        let rep = driver
                            .run_concurrent_partitioned(
                                &engine,
                                threads,
                                OPS_PER_THREAD,
                                1000 * round,
                            )
                            .unwrap();
                        std::hint::black_box(rep.total.committed);
                    })
                },
            );
        }
    }
    g.finish();
}

fn bench_partitioned_scan(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig11p_partitioned_scan");
    g.sample_size(10);
    g.throughput(Throughput::Elements(SCAN_ROWS as u64));

    for &parts in &[1usize, 8] {
        let db = Database::in_memory();
        let table = db
            .create_partitioned_table(
                SalesSchema::fact(),
                TableConfig::default(),
                PartitionConfig::new(parts, fact_cols::ORDER_ID),
            )
            .unwrap();
        let mut gen = DataGen::new(7);
        let mut id = 0i64;
        while id < SCAN_ROWS {
            let mut txn = db.begin(IsolationLevel::Transaction);
            for _ in 0..1_000 {
                table
                    .insert(&txn, SalesSchema::fact_row(&mut gen, id, 500, 100))
                    .unwrap();
                id += 1;
            }
            db.commit(&mut txn).unwrap();
            for p in table.partitions() {
                p.drain_l1().unwrap();
            }
        }
        for p in table.partitions() {
            p.force_full_merge().unwrap();
        }
        let preds = vec![ColumnPredicate::Range(
            fact_cols::ORDER_ID,
            Bound::Included(Value::Int(0)),
            Bound::Excluded(Value::Int(SCAN_ROWS / 10)),
        )];
        let snap = Snapshot::at(db.txn_manager().now());
        let table = Arc::clone(&table);
        g.bench_function(BenchmarkId::from_parameter(format!("{parts}p")), |b| {
            b.iter(|| {
                let read = table.read_at(snap);
                let (rows, _stats) = read.scan_filtered(&preds, None).unwrap();
                std::hint::black_box(rows.len());
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_partitioned_writers, bench_partitioned_scan);
criterion_main!(benches);
