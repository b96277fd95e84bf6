//! M1 — the title claim, OLTP side: the unified column table sustains the
//! ERP-style transaction mix.
//!
//! Shape expected (and honestly reported in EXPERIMENTS.md): the pure row
//! store wins raw OLTP throughput — it exists for nothing else — but the
//! unified table stays within a small constant factor, i.e. *viable* for
//! transactional work, which is the paper's actual claim.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hana_common::TableConfig;
use hana_core::Database;
use hana_txn::TxnManager;
use hana_workload::oltp::{GroupOltp, OltpEngine, RowOltp};
use hana_workload::sales::load_row_baseline;
use hana_workload::{DataGen, OltpDriver, SalesDataset};
use std::sync::Arc;
use std::time::Duration;

const ORDERS: i64 = 20_000;
const OPS: usize = 2_000;

fn bench_oltp_mix(c: &mut Criterion) {
    let mut g = c.benchmark_group("myth_oltp_mix");
    g.sample_size(10);
    g.throughput(Throughput::Elements(OPS as u64));

    // Unified table with the lifecycle daemon keeping the L1 small.
    {
        let cfg = TableConfig {
            l1_max_rows: 256,
            l2_max_rows: 1_000_000,
            ..TableConfig::default()
        };
        let db = Database::in_memory();
        let ds = SalesDataset::load(&db, cfg, ORDERS, 1_000, 200, 7).unwrap();
        ds.settle().unwrap();
        db.start_merge_daemon(Duration::from_millis(1));
        let engine = GroupOltp::new(Arc::clone(&db), Arc::clone(&ds.sales));
        let driver = OltpDriver::new(ORDERS, 1_000, 200, 0.9);
        let mut gen = DataGen::new(99);
        g.bench_function(BenchmarkId::from_parameter("unified"), |b| {
            b.iter(|| {
                let rep = driver.run(&engine, &mut gen, OPS).unwrap();
                std::hint::black_box(rep.committed);
            })
        });
        db.stop_merge_daemon();
    }

    // P*Time-style row baseline.
    {
        let mgr = TxnManager::new();
        let table = Arc::new(load_row_baseline(Arc::clone(&mgr), ORDERS, 1_000, 200, 7).unwrap());
        let engine = RowOltp { table, mgr };
        let driver = OltpDriver::new(ORDERS, 1_000, 200, 0.9);
        let mut gen = DataGen::new(99);
        g.bench_function(BenchmarkId::from_parameter("row_store"), |b| {
            b.iter(|| {
                let rep = driver.run(&engine, &mut gen, OPS).unwrap();
                std::hint::black_box(rep.committed);
            })
        });
    }
    g.finish();
}

fn bench_point_lookup(c: &mut Criterion) {
    // The paper's "very selective point queries", head to head.
    let mut g = c.benchmark_group("myth_point_lookup");
    g.sample_size(30);
    {
        let db = Database::in_memory();
        let ds = SalesDataset::load(&db, TableConfig::default(), ORDERS, 1_000, 200, 7).unwrap();
        ds.settle().unwrap();
        let engine = GroupOltp::new(Arc::clone(&db), Arc::clone(&ds.sales));
        let mut k = 0i64;
        g.bench_function(BenchmarkId::from_parameter("unified_main"), |b| {
            b.iter(|| {
                k = (k + 7919) % ORDERS;
                let found = engine.execute(&hana_workload::OltpOp::Lookup(k)).unwrap();
                assert!(found);
            })
        });
    }
    {
        let mgr = TxnManager::new();
        let table = Arc::new(load_row_baseline(Arc::clone(&mgr), ORDERS, 1_000, 200, 7).unwrap());
        let engine = RowOltp { table, mgr };
        let mut k = 0i64;
        g.bench_function(BenchmarkId::from_parameter("row_store"), |b| {
            b.iter(|| {
                k = (k + 7919) % ORDERS;
                let found = engine.execute(&hana_workload::OltpOp::Lookup(k)).unwrap();
                assert!(found);
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_oltp_mix, bench_point_lookup);
criterion_main!(benches);
