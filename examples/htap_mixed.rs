//! HTAP: concurrent OLTP writers and OLAP readers on one unified table,
//! with the background merge daemon propagating records — the paper's title
//! claim as a runnable scenario, including the row-store comparison.
//!
//! Run with `cargo run -p hana-examples --release --example htap_mixed`.

use hana_common::TableConfig;
use hana_core::Database;
use hana_txn::{Snapshot, TxnManager};
use hana_workload::olap::ALL_QUERIES;
use hana_workload::oltp::{GroupOltp, RowOltp};
use hana_workload::sales::load_row_baseline;
use hana_workload::{DataGen, MixedWorkload, OlapRunner, OltpDriver, SalesSchema};
use std::sync::Arc;
use std::time::{Duration, Instant};

const ORDERS: i64 = 20_000;
const CUSTOMERS: i64 = 1_000;
const PRODUCTS: i64 = 200;

fn main() -> hana_common::Result<()> {
    // A small L1 threshold keeps point operations fast: the L1-delta is the
    // only stage without an inverted index, and the incremental L1→L2 merge
    // is cheap enough to run often (Fig 6).
    let cfg = TableConfig {
        l1_max_rows: 256,
        l2_max_rows: 50_000,
        ..TableConfig::default()
    };

    // ---- Unified table under a mixed workload -------------------------
    println!("loading {ORDERS} orders into the unified table…");
    let db = Database::in_memory();
    let ds =
        hana_workload::sales::SalesDataset::load(&db, cfg.clone(), ORDERS, CUSTOMERS, PRODUCTS, 7)?;
    ds.settle()?;
    db.start_merge_daemon(Duration::from_millis(10));

    let report = MixedWorkload {
        writers: 3,
        readers: 2,
        duration: Duration::from_secs(2),
        skew: 0.9,
    }
    .run(&db, &ds)?;
    db.stop_merge_daemon();
    println!(
        "unified table : {:>8.0} OLTP ops/s  |  {:>6.1} OLAP queries/s  |  {} conflicts",
        report.oltp_throughput(),
        report.olap_throughput(),
        report.oltp_conflicts
    );
    let s = ds.sales.stage_stats();
    println!(
        "                lifecycle state: L1={} L2={} main={} ({} parts)",
        s.l1_rows, s.l2_rows, s.main_rows, s.main_parts
    );

    // ---- Row-store baseline vs a FRESH unified copy, sequential --------
    println!("\nloading fresh copies of the data for the sequential comparison…");
    let db2 = Database::in_memory();
    let ds2 = hana_workload::sales::SalesDataset::load(&db2, cfg, ORDERS, CUSTOMERS, PRODUCTS, 7)?;
    ds2.settle()?;
    // The lifecycle daemon keeps the L1-delta small during the OLTP run —
    // exactly the paper's point: the write-optimized stage is kept tiny by
    // cheap incremental merges.
    db2.start_merge_daemon(Duration::from_millis(1));
    let mgr = TxnManager::new();
    let row = Arc::new(load_row_baseline(
        Arc::clone(&mgr),
        ORDERS,
        CUSTOMERS,
        PRODUCTS,
        7,
    )?);

    // OLTP-only throughput, single thread, both engines; each engine gets
    // its own driver so generated order ids never collide.
    let n_ops = 20_000;

    let unified_engine = GroupOltp::new(Arc::clone(&db2), Arc::clone(&ds2.sales));
    let driver = OltpDriver::new(ORDERS, CUSTOMERS, PRODUCTS, 0.9);
    let mut gen = DataGen::new(99);
    let t0 = Instant::now();
    let rep = driver.run(&unified_engine, &mut gen, n_ops)?;
    let unified_oltp = rep.committed as f64 / t0.elapsed().as_secs_f64();

    let row_engine = RowOltp {
        table: Arc::clone(&row),
        mgr: Arc::clone(&mgr),
    };
    let driver = OltpDriver::new(ORDERS, CUSTOMERS, PRODUCTS, 0.9);
    let mut gen = DataGen::new(99);
    let t0 = Instant::now();
    let rep = driver.run(&row_engine, &mut gen, n_ops)?;
    let row_oltp = rep.committed as f64 / t0.elapsed().as_secs_f64();
    db2.stop_merge_daemon();

    println!("OLTP ops/s    : unified = {unified_oltp:>9.0} | row store = {row_oltp:>9.0}  (ratio {:.2}x)", unified_oltp / row_oltp);

    // OLAP latency, both engines.
    println!("\nOLAP query latencies (one pass each):");
    for &q in ALL_QUERIES {
        let snap_u = Snapshot::at(db2.txn_manager().now());
        let t0 = Instant::now();
        OlapRunner::new(snap_u).run_unified(&ds2.sales, q)?;
        let unified_ms = t0.elapsed().as_secs_f64() * 1e3;
        let snap_r = Snapshot::at(mgr.now());
        let t0 = Instant::now();
        OlapRunner::new(snap_r).run_row_baseline(&row, q);
        let row_ms = t0.elapsed().as_secs_f64() * 1e3;
        println!(
            "  {q:?}: unified {unified_ms:>8.2} ms | row {row_ms:>8.2} ms ({:.2}x)",
            row_ms / unified_ms.max(1e-9)
        );
    }
    println!(
        "\n(The unified column table serves both sides of the workload — the myth ends here.)"
    );
    let _ = SalesSchema::fact(); // keep the import obvious for readers
    Ok(())
}
