//! Workload-isolation governor: identity, saturation, and starvation.
//!
//! The resource governor may *schedule* analytical work — queue it, clamp
//! its fan-out, defer merges around it — but must never *change* it. Three
//! contracts are pinned here:
//!
//! 1. **Identity**: the same query stream returns bit-identical result
//!    sets with the governor off, on, and with admission forced through
//!    the wait queue (property-tested over random OLTP histories).
//! 2. **Saturation**: when the token bucket is exhausted, further scans
//!    queue FIFO, time out with a *retryable* error, and never deadlock
//!    against a concurrently merging daemon.
//! 3. **No starvation**: writers keep committing while a full queue of
//!    scans waits for admission.

use hana_common::{GovernorConfig, HanaError, TableConfig};
use hana_core::Database;
use hana_txn::Snapshot;
use hana_workload::olap::{OlapQuery, ALL_QUERIES};
use hana_workload::oltp::{GroupOltp, OltpDriver};
use hana_workload::{DataGen, OlapRunner, SalesDataset};
use parking_lot::Mutex;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A database + dataset with the given governor config and a deterministic
/// OLTP history applied on top of the initial load.
fn build(
    gcfg: GovernorConfig,
    orders: i64,
    seed: u64,
    ops: usize,
) -> (Arc<Database>, SalesDataset) {
    let db = Database::in_memory();
    db.set_governor_config(gcfg);
    let cfg = TableConfig {
        l1_max_rows: 64,
        l2_max_rows: 256,
        ..TableConfig::default()
    };
    let ds = SalesDataset::load(&db, cfg, orders, 20, 10, seed).unwrap();
    if ops > 0 {
        let driver = OltpDriver::new(orders, 20, 10, 0.9);
        let engine = GroupOltp::new(Arc::clone(&db), Arc::clone(&ds.sales));
        let mut gen = DataGen::new(seed ^ 0x00C0_FFEE);
        driver.run(&engine, &mut gen, ops).unwrap();
    }
    (db, ds)
}

/// Every OLAP query's result set on the given database.
fn all_results(db: &Arc<Database>, ds: &SalesDataset) -> Vec<hana_calc::ResultSet> {
    let runner = OlapRunner::new(Snapshot::at(db.txn_manager().now()));
    ALL_QUERIES
        .iter()
        .map(|&q| runner.run_unified(&ds.sales, q).unwrap())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Governor off, on, and queued-admission runs of the same history
    /// agree on every query, row for row.
    #[test]
    fn governed_scans_are_bit_identical(
        orders in 50i64..300,
        seed in 0u64..1_000,
        ops in 0usize..150,
    ) {
        let (db_off, ds_off) = build(GovernorConfig::disabled(), orders, seed, ops);
        let (db_on, ds_on) = build(GovernorConfig::default(), orders, seed, ops);
        // Single token, so the measured scan genuinely waits in the
        // admission queue while a holder thread sits on the bucket.
        let queued_cfg = GovernorConfig::default().with_max_concurrent_scans(1);
        let (db_q, ds_q) = build(queued_cfg, orders, seed, ops);

        let off = all_results(&db_off, &ds_off);
        let on = all_results(&db_on, &ds_on);

        let (permit, _) = db_q.governor().admit_scan().unwrap();
        let gov = Arc::clone(db_q.governor());
        let holder = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            drop(permit);
            let _ = gov;
        });
        let queued = all_results(&db_q, &ds_q);
        holder.join().unwrap();
        prop_assert!(db_q.governor_stats().scans_queued > 0, "queue never formed");

        prop_assert_eq!(&off, &on);
        prop_assert_eq!(&off, &queued);
    }
}

/// Exhausted bucket: scans queue FIFO, timeouts are retryable, and a
/// merging daemon never deadlocks against the admission queue.
#[test]
fn saturated_bucket_times_out_retryably_without_deadlock() {
    let gcfg = GovernorConfig::default()
        .with_max_concurrent_scans(1)
        .with_scan_queue_timeout_ms(40);
    let (db, ds) = build(gcfg, 200, 7, 0);
    db.start_merge_daemon(Duration::from_millis(1));

    // Hold the only token for the whole saturation phase.
    let (held, _) = db.governor().admit_scan().unwrap();
    assert!(held.is_some(), "first admission must be immediate");
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let db = &db;
            let ds = &ds;
            scope.spawn(move || {
                let runner = OlapRunner::new(Snapshot::at(db.txn_manager().now()));
                let err = runner
                    .run_unified(&ds.sales, OlapQuery::TotalRevenue)
                    .unwrap_err();
                assert!(err.is_retryable(), "admission timeout must be retryable");
                assert!(matches!(err, HanaError::Governor(_)), "{err:?}");
            });
        }
    });
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "saturated scans must fail fast, not deadlock"
    );
    let s = db.governor_stats();
    assert!(s.scans_queued >= 4, "{s:?}");
    assert!(s.scans_timed_out >= 4, "{s:?}");

    // FIFO drain: queued admissions are granted in arrival order.
    db.set_governor_config(
        GovernorConfig::default()
            .with_max_concurrent_scans(1)
            .with_scan_queue_timeout_ms(10_000),
    );
    let order = Arc::new(Mutex::new(Vec::new()));
    let queued_before = db.governor_stats().scans_queued;
    std::thread::scope(|scope| {
        for k in 0..3u32 {
            let gov = Arc::clone(db.governor());
            let order = Arc::clone(&order);
            scope.spawn(move || {
                let (_p, _) = gov.admit_scan().unwrap();
                order.lock().push(k);
            });
            // Wait until thread k is actually parked in the queue before
            // spawning k+1, so arrival order is deterministic.
            while db.governor_stats().scans_queued < queued_before + u64::from(k) + 1 {
                std::thread::yield_now();
            }
        }
        drop(held);
    });
    assert_eq!(*order.lock(), vec![0, 1, 2], "queue must drain FIFO");

    // The bucket recovered: a fresh scan is admitted and runs.
    let runner = OlapRunner::new(Snapshot::at(db.txn_manager().now()));
    runner
        .run_unified(&ds.sales, OlapQuery::TotalRevenue)
        .unwrap();
    db.stop_merge_daemon();
}

/// Writers are never starved by a saturated scan queue: commits flow while
/// eight analytical scans wait for admission.
#[test]
fn writers_commit_while_scans_are_queued() {
    let gcfg = GovernorConfig::default()
        .with_max_concurrent_scans(1)
        .with_scan_queue_timeout_ms(20_000);
    let (db, ds) = build(gcfg, 200, 11, 0);

    let (held, _) = db.governor().admit_scan().unwrap();
    assert!(held.is_some());
    let queued_base = db.governor_stats().scans_queued;
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let db = &db;
            let ds = &ds;
            scope.spawn(move || {
                let runner = OlapRunner::new(Snapshot::at(db.txn_manager().now()));
                runner
                    .run_unified(&ds.sales, OlapQuery::TotalRevenue)
                    .unwrap();
            });
        }
        // All eight scans parked in the admission queue.
        while db.governor_stats().scans_queued < queued_base + 8 {
            std::thread::yield_now();
        }
        let admitted_before = db.governor_stats().scans_admitted;

        // The write path must not touch the scan bucket: 50 commits land
        // while the queue is still full.
        let driver = OltpDriver::new(200, 20, 10, 0.9).with_mix((100, 0, 0, 0));
        let engine = GroupOltp::new(Arc::clone(&db), Arc::clone(&ds.sales));
        let mut gen = DataGen::new(42);
        let rep = driver.run(&engine, &mut gen, 50).unwrap();
        assert!(rep.committed >= 50, "writers starved: {rep:?}");
        assert_eq!(
            db.governor_stats().scans_admitted,
            admitted_before,
            "no scan may have been admitted while the token was held"
        );
        drop(held);
    });
    let s = db.governor_stats();
    assert_eq!(s.scans_timed_out, 0, "queued scans must complete: {s:?}");
}
