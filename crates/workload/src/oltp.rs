//! The OLTP transaction mix.
//!
//! ERP-style operations against the sales fact table: new-order inserts,
//! payment-style updates of a Zipf-hot key, order cancellations, and very
//! selective point queries — "thousands of concurrent users and
//! transactions with high update load and very selective point queries".
//! The driver runs against either engine through the [`OltpEngine`] trait,
//! so the unified table ([`GroupOltp`]) and the row baseline ([`RowOltp`])
//! execute the *same* op stream.

use crate::datagen::DataGen;
use crate::sales::{fact_cols, SalesSchema};
use crate::zipf::Zipf;
use hana_common::{ColumnId, HanaError, Result, Value};
use hana_core::{Database, IntoGroup, PartitionedTable};
use hana_rowstore::RowTable;
use hana_txn::{IsolationLevel, TxnManager};
use rand::Rng;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

/// One OLTP operation.
#[derive(Debug, Clone, PartialEq)]
pub enum OltpOp {
    /// Insert a fresh order.
    NewOrder(Vec<Value>),
    /// Mark an order paid and bump its amount.
    Payment {
        /// Target order id.
        order_id: i64,
        /// Amount delta.
        delta: i64,
    },
    /// Point lookup by order id.
    Lookup(i64),
    /// Cancel (delete) an order.
    Cancel(i64),
}

/// Outcome counters of a driver run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OltpReport {
    /// Successfully committed operations.
    pub committed: u64,
    /// Operations aborted on write conflicts (retryable).
    pub conflicts: u64,
    /// Lookups that found their row.
    pub hits: u64,
    /// Lookups that found nothing (e.g. cancelled orders).
    pub misses: u64,
}

/// An engine that can execute the OLTP mix.
pub trait OltpEngine: Send + Sync {
    /// Run one op in its own transaction; `Ok(found)` for lookups.
    fn execute(&self, op: &OltpOp) -> Result<bool>;
}

/// The unified-table engine. Every op routes through the table's partition
/// group to the one shard its order id hashes to (a plain table is its own
/// 1-shard group) and commits through [`Database::commit`] — the production
/// commit path, so commit records ride the group-commit pipeline and each
/// `execute` returns only once its transaction is durable (when the
/// database is).
pub struct GroupOltp {
    /// The database owning the group (routes commit/abort + lock release).
    pub db: Arc<Database>,
    /// The fact table's partition group.
    pub table: Arc<PartitionedTable>,
}

impl GroupOltp {
    /// An engine over `table` (a partition group or a plain table) of `db`.
    pub fn new(db: Arc<Database>, table: impl IntoGroup) -> Self {
        GroupOltp {
            db,
            table: table.into_group(),
        }
    }
}

impl OltpEngine for GroupOltp {
    fn execute(&self, op: &OltpOp) -> Result<bool> {
        let mut txn = self.db.begin(IsolationLevel::Transaction);
        let key_col = ColumnId(fact_cols::ORDER_ID as u16);
        let out = match op {
            OltpOp::NewOrder(row) => self.table.insert(&txn, row.clone()).map(|_| true),
            OltpOp::Payment { order_id, delta } => {
                let key = Value::Int(*order_id);
                let shard = self.table.route(&key);
                let rows = shard.read(&txn).point(fact_cols::ORDER_ID, &key)?;
                match rows.first() {
                    None => Err(HanaError::NotFound(format!("order {order_id}"))),
                    Some(row) => {
                        let amount = row[fact_cols::AMOUNT].as_int().unwrap_or(0) + delta;
                        shard
                            .update_where(
                                &txn,
                                key_col,
                                &key,
                                &[
                                    (ColumnId(fact_cols::AMOUNT as u16), Value::Int(amount)),
                                    (ColumnId(fact_cols::STATUS as u16), Value::Int(1)),
                                ],
                            )
                            .map(|_| true)
                    }
                }
            }
            OltpOp::Lookup(id) => {
                let key = Value::Int(*id);
                let shard = self.table.route(&key);
                Ok(!shard
                    .read(&txn)
                    .point(fact_cols::ORDER_ID, &key)?
                    .is_empty())
            }
            OltpOp::Cancel(id) => {
                let key = Value::Int(*id);
                self.table
                    .route(&key)
                    .delete_where(&txn, key_col, &key)
                    .map(|_| true)
            }
        };
        match out {
            Ok(found) => {
                self.db.commit(&mut txn)?;
                Ok(found)
            }
            Err(e) => {
                let _ = self.db.abort(&mut txn);
                Err(e)
            }
        }
    }
}

/// Row-baseline implementation.
pub struct RowOltp {
    /// The baseline table.
    pub table: Arc<RowTable>,
    /// Shared transaction manager.
    pub mgr: Arc<TxnManager>,
}

impl OltpEngine for RowOltp {
    fn execute(&self, op: &OltpOp) -> Result<bool> {
        let mut txn = self.mgr.begin(IsolationLevel::Transaction);
        let out = match op {
            OltpOp::NewOrder(row) => self.table.insert(&txn, row.clone()).map(|_| true),
            OltpOp::Payment { order_id, delta } => {
                let key = Value::Int(*order_id);
                match self.table.get(&txn.read_snapshot(), &key)? {
                    None => Err(HanaError::NotFound(format!("order {order_id}"))),
                    Some(row) => {
                        let amount = row[fact_cols::AMOUNT].as_int().unwrap_or(0) + delta;
                        self.table
                            .update(
                                &txn,
                                &key,
                                ColumnId(fact_cols::AMOUNT as u16),
                                Value::Int(amount),
                            )
                            .and_then(|_| {
                                self.table.update(
                                    &txn,
                                    &key,
                                    ColumnId(fact_cols::STATUS as u16),
                                    Value::Int(1),
                                )
                            })
                            .map(|_| true)
                    }
                }
            }
            OltpOp::Lookup(id) => Ok(self
                .table
                .get(&txn.read_snapshot(), &Value::Int(*id))?
                .is_some()),
            OltpOp::Cancel(id) => self.table.delete(&txn, &Value::Int(*id)).map(|_| true),
        };
        match out {
            Ok(found) => {
                txn.commit()?;
                self.table.finish_txn(txn.id());
                Ok(found)
            }
            Err(e) => {
                let _ = txn.abort();
                self.table.finish_txn(txn.id());
                Err(e)
            }
        }
    }
}

/// Generates and executes the OLTP mix.
pub struct OltpDriver {
    zipf: Zipf,
    next_order: AtomicI64,
    n_customers: i64,
    n_products: i64,
    /// Percentages of (insert, payment, lookup, cancel); must sum to 100.
    mix: (u32, u32, u32, u32),
}

impl OltpDriver {
    /// A driver over `existing_orders` pre-loaded rows with the default mix
    /// (25% inserts, 35% payments, 35% lookups, 5% cancels) and skew `s`.
    pub fn new(existing_orders: i64, n_customers: i64, n_products: i64, skew: f64) -> Self {
        OltpDriver {
            zipf: Zipf::new(existing_orders.max(1) as usize, skew),
            next_order: AtomicI64::new(existing_orders),
            n_customers,
            n_products,
            mix: (25, 35, 35, 5),
        }
    }

    /// Override the operation mix (insert, payment, lookup, cancel), in
    /// percent.
    pub fn with_mix(mut self, mix: (u32, u32, u32, u32)) -> Self {
        assert_eq!(mix.0 + mix.1 + mix.2 + mix.3, 100);
        self.mix = mix;
        self
    }

    /// Generate the next operation.
    pub fn next_op(&self, gen: &mut DataGen) -> OltpOp {
        let roll = gen.rng().gen_range(0..100u32);
        let (i, p, l, _) = self.mix;
        if roll < i {
            let id = self.next_order.fetch_add(1, Ordering::SeqCst);
            OltpOp::NewOrder(SalesSchema::fact_row(
                gen,
                id,
                self.n_customers,
                self.n_products,
            ))
        } else if roll < i + p {
            OltpOp::Payment {
                order_id: self.zipf.sample(gen.rng()) as i64,
                delta: gen.amount(100),
            }
        } else if roll < i + p + l {
            OltpOp::Lookup(self.zipf.sample(gen.rng()) as i64)
        } else {
            OltpOp::Cancel(self.zipf.sample(gen.rng()) as i64)
        }
    }

    /// Execute `ops` operations against `engine`, counting outcomes.
    /// Conflicts and not-found (cancelled rows) are counted, not fatal.
    pub fn run(
        &self,
        engine: &dyn OltpEngine,
        gen: &mut DataGen,
        ops: usize,
    ) -> Result<OltpReport> {
        let mut report = OltpReport::default();
        for _ in 0..ops {
            let op = self.next_op(gen);
            match engine.execute(&op) {
                Ok(found) => {
                    report.committed += 1;
                    if matches!(op, OltpOp::Lookup(_)) {
                        if found {
                            report.hits += 1;
                        } else {
                            report.misses += 1;
                        }
                    }
                }
                Err(HanaError::WriteConflict(_)) => report.conflicts += 1,
                Err(HanaError::NotFound(_)) => report.misses += 1,
                Err(e) => return Err(e),
            }
        }
        Ok(report)
    }

    /// Execute the mix from `threads` concurrent workers, `ops_per_thread`
    /// operations each (thread `k` seeds its generator with `seed + k`),
    /// and aggregate the per-thread reports. The shared `next_order`
    /// counter keeps inserted order ids disjoint across threads; conflicts
    /// on hot Zipf keys are counted, not fatal.
    pub fn run_concurrent(
        &self,
        engine: &dyn OltpEngine,
        threads: usize,
        ops_per_thread: usize,
        seed: u64,
    ) -> Result<OltpReport> {
        let reports = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|k| {
                    s.spawn(move || {
                        let mut gen = DataGen::new(seed + k as u64);
                        self.run(engine, &mut gen, ops_per_thread)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("oltp worker panicked"))
                .collect::<Vec<_>>()
        });
        let mut total = OltpReport::default();
        for r in reports {
            let r = r?;
            total.committed += r.committed;
            total.conflicts += r.conflicts;
            total.hits += r.hits;
            total.misses += r.misses;
        }
        Ok(total)
    }

    /// Partitioned writer mode: thread `k` is pinned to partition
    /// `k % partitions` and claims order ids from the shared counter until
    /// one hashes to its partition, so every writer works a disjoint key
    /// block and its transactions touch exactly one shard. Payments,
    /// lookups and cancels target ids the thread itself inserted, keeping
    /// the streams conflict-free across partitions. Returns per-partition
    /// outcome counters alongside the aggregate, so benchmarks can report
    /// per-partition throughput.
    pub fn run_concurrent_partitioned(
        &self,
        engine: &GroupOltp,
        threads: usize,
        ops_per_thread: usize,
        seed: u64,
    ) -> Result<PartitionedOltpReport> {
        let nparts = engine.table.partition_count();
        let reports = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|k| {
                    s.spawn(move || {
                        let part = k % nparts;
                        let mut gen = DataGen::new(seed + k as u64);
                        let mut my_ids: Vec<i64> = Vec::new();
                        let mut report = OltpReport::default();
                        for _ in 0..ops_per_thread {
                            let roll = gen.rng().gen_range(0..100u32);
                            let (i, p, l, _) = self.mix;
                            let op = if roll < i || my_ids.is_empty() {
                                // Claim ids until one routes to our shard.
                                let id = loop {
                                    let id = self.next_order.fetch_add(1, Ordering::SeqCst);
                                    if engine.table.route_index(&Value::Int(id)) == part {
                                        break id;
                                    }
                                };
                                my_ids.push(id);
                                OltpOp::NewOrder(SalesSchema::fact_row(
                                    &mut gen,
                                    id,
                                    self.n_customers,
                                    self.n_products,
                                ))
                            } else {
                                let id = my_ids[gen.rng().gen_range(0..my_ids.len())];
                                if roll < i + p {
                                    OltpOp::Payment {
                                        order_id: id,
                                        delta: gen.amount(100),
                                    }
                                } else if roll < i + p + l {
                                    OltpOp::Lookup(id)
                                } else {
                                    OltpOp::Cancel(id)
                                }
                            };
                            match engine.execute(&op) {
                                Ok(found) => {
                                    report.committed += 1;
                                    if matches!(op, OltpOp::Lookup(_)) {
                                        if found {
                                            report.hits += 1;
                                        } else {
                                            report.misses += 1;
                                        }
                                    }
                                }
                                Err(HanaError::WriteConflict(_)) => report.conflicts += 1,
                                Err(HanaError::NotFound(_)) => report.misses += 1,
                                Err(e) => return Err(e),
                            }
                        }
                        Ok((part, report))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("oltp worker panicked"))
                .collect::<Vec<_>>()
        });
        let mut out = PartitionedOltpReport {
            total: OltpReport::default(),
            per_partition: vec![OltpReport::default(); nparts],
        };
        for r in reports {
            let (part, r) = r?;
            out.total.committed += r.committed;
            out.total.conflicts += r.conflicts;
            out.total.hits += r.hits;
            out.total.misses += r.misses;
            let slot = &mut out.per_partition[part];
            slot.committed += r.committed;
            slot.conflicts += r.conflicts;
            slot.hits += r.hits;
            slot.misses += r.misses;
        }
        Ok(out)
    }
}

/// Outcome of a partitioned concurrent run: the aggregate plus one
/// [`OltpReport`] per partition (threads pinned to the same partition are
/// summed into its slot).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PartitionedOltpReport {
    /// Aggregate over all writers.
    pub total: OltpReport,
    /// Outcome counters per partition index.
    pub per_partition: Vec<OltpReport>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sales::SalesDataset;
    use hana_common::TableConfig;
    use hana_core::Database;

    #[test]
    fn mix_respects_ratios() {
        let driver = OltpDriver::new(1000, 100, 50, 0.8).with_mix((100, 0, 0, 0));
        let mut gen = DataGen::new(3);
        for _ in 0..50 {
            assert!(matches!(driver.next_op(&mut gen), OltpOp::NewOrder(_)));
        }
        let driver = OltpDriver::new(1000, 100, 50, 0.8).with_mix((0, 0, 100, 0));
        for _ in 0..50 {
            assert!(matches!(driver.next_op(&mut gen), OltpOp::Lookup(_)));
        }
    }

    #[test]
    fn unified_engine_executes_mix() {
        let db = Database::in_memory();
        let ds = SalesDataset::load(&db, TableConfig::small(), 300, 50, 20, 7).unwrap();
        let engine = GroupOltp::new(Arc::clone(&db), Arc::clone(&ds.sales));
        let driver = OltpDriver::new(300, 50, 20, 0.9);
        let mut gen = DataGen::new(11);
        let report = driver.run(&engine, &mut gen, 400).unwrap();
        assert!(report.committed > 300, "{report:?}");
        // Some rows were updated: status 1 must exist.
        let r = db.begin(IsolationLevel::Transaction);
        let paid = ds
            .sales
            .read(&r)
            .point(fact_cols::STATUS, &Value::Int(1))
            .unwrap();
        assert!(!paid.is_empty());
    }

    #[test]
    fn row_engine_executes_same_stream() {
        let mgr = TxnManager::new();
        let table =
            Arc::new(crate::sales::load_row_baseline(Arc::clone(&mgr), 300, 50, 20, 7).unwrap());
        let engine = RowOltp { table, mgr };
        let driver = OltpDriver::new(300, 50, 20, 0.9);
        let mut gen = DataGen::new(11);
        let report = driver.run(&engine, &mut gen, 400).unwrap();
        assert!(report.committed > 300, "{report:?}");
    }

    #[test]
    fn durable_engine_commits_concurrently_through_group_pipeline() {
        let dir = tempfile::tempdir().unwrap();
        let db = Database::open(dir.path()).unwrap();
        // A generous gather window makes batch formation deterministic even
        // on filesystems where fsync is nearly free.
        db.set_commit_config(hana_common::CommitConfig::default().with_max_wait_us(2000));
        let ds = SalesDataset::load(&db, TableConfig::small(), 200, 50, 20, 7).unwrap();
        let engine = GroupOltp::new(Arc::clone(&db), Arc::clone(&ds.sales));
        let driver = OltpDriver::new(200, 50, 20, 0.9);
        let report = driver.run_concurrent(&engine, 4, 60, 11).unwrap();
        assert!(report.committed > 150, "{report:?}");
        let stats = db.log_stats().unwrap();
        assert!(stats.records >= report.committed, "{stats:?}");
        // Group commit must have amortized fsyncs across the 4 writers.
        assert!(stats.fsyncs < stats.records, "{stats:?}");
    }

    #[test]
    fn partitioned_engine_reports_per_partition_and_routes_disjoint_blocks() {
        let db = Database::in_memory();
        let pt = db
            .create_partitioned_table(
                SalesSchema::fact(),
                TableConfig::small(),
                hana_common::PartitionConfig::new(4, fact_cols::ORDER_ID),
            )
            .unwrap();
        let engine = GroupOltp::new(Arc::clone(&db), Arc::clone(&pt));
        let driver = OltpDriver::new(0, 50, 20, 0.9).with_mix((50, 30, 15, 5));
        let report = driver
            .run_concurrent_partitioned(&engine, 4, 80, 9)
            .unwrap();
        assert_eq!(report.per_partition.len(), 4);
        assert_eq!(
            report
                .per_partition
                .iter()
                .map(|r| r.committed)
                .sum::<u64>(),
            report.total.committed
        );
        assert!(report.total.committed > 200, "{report:?}");
        // Each writer was pinned to one partition, so every partition
        // committed work and each shard holds only ids that hash to it.
        let r = db.begin(IsolationLevel::Transaction);
        let snap = r.read_snapshot();
        for (i, part) in pt.partitions().iter().enumerate() {
            assert!(report.per_partition[i].committed > 0, "{report:?}");
            for row in part.read_at(snap).collect_rows() {
                assert_eq!(pt.route_index(&row.values[fact_cols::ORDER_ID]), i);
            }
        }
    }

    #[test]
    fn both_engines_agree_on_lookup_hits() {
        // Same seed ⇒ same op stream ⇒ same hit/miss pattern (no cancels to
        // avoid timing-dependent misses, no payments to avoid different
        // conflict handling).
        let db = Database::in_memory();
        let ds = SalesDataset::load(&db, TableConfig::small(), 200, 50, 20, 7).unwrap();
        let unified = GroupOltp::new(Arc::clone(&db), Arc::clone(&ds.sales));
        let mgr2 = TxnManager::new();
        let row = RowOltp {
            table: Arc::new(
                crate::sales::load_row_baseline(Arc::clone(&mgr2), 200, 50, 20, 7).unwrap(),
            ),
            mgr: mgr2,
        };
        let driver = OltpDriver::new(200, 50, 20, 0.5).with_mix((0, 0, 100, 0));
        let mut g1 = DataGen::new(5);
        let mut g2 = DataGen::new(5);
        let r1 = driver.run(&unified, &mut g1, 200).unwrap();
        let r2 = driver.run(&row, &mut g2, 200).unwrap();
        assert_eq!(r1.hits, r2.hits);
        assert_eq!(r1.hits, 200); // all ids exist
    }
}
