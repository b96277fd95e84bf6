//! The database façade: catalog, transactions, durability, recovery.

use crate::gc::{GcShared, GcStats, TableGc};
use crate::governor::ResourceGovernor;
use crate::partition::{partition_name, shard_config, PartitionedTable};
use crate::scrub::Scrubber;
use crate::table::UnifiedTable;
use hana_common::{
    ColumnId, CommitConfig, GovernorConfig, GovernorStats, HanaError, PartitionConfig, Result,
    RowId, Schema, ScrubConfig, TableConfig, TableId, Timestamp, TxnId, Value,
};
use hana_merge::{MergeDaemon, MergePass, MergeTarget};
use hana_persist::{
    FaultInjector, HealthStats, IntegrityStats, LogRecord, LogStats, Persistence, DEFAULT_PAGE_SIZE,
};
use hana_txn::{IsolationLevel, Transaction, TxnManager};
use parking_lot::{Mutex, RwLock};
use rustc_hash::FxHashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// The table catalog: the tables plus id/name indexes so per-record
/// recovery replay and per-commit lookups are O(1) instead of scanning the
/// table list.
#[derive(Default)]
struct Catalog {
    list: Vec<Arc<UnifiedTable>>,
    by_id: FxHashMap<u32, usize>,
    by_name: FxHashMap<String, usize>,
}

impl Catalog {
    fn push(&mut self, t: Arc<UnifiedTable>) {
        self.by_id.insert(t.id().0, self.list.len());
        self.by_name
            .insert(t.schema().name.clone(), self.list.len());
        self.list.push(t);
    }

    fn by_id(&self, id: TableId) -> Option<&Arc<UnifiedTable>> {
        self.by_id.get(&id.0).map(|&i| &self.list[i])
    }
}

/// An embedded HANA-style database: a catalog of unified tables sharing one
/// transaction manager and (optionally) one persistence instance.
pub struct Database {
    mgr: Arc<TxnManager>,
    persist: Option<Arc<Persistence>>,
    fence: Arc<RwLock<()>>,
    /// Every shard, as a first-class catalog citizen with its own id.
    tables: RwLock<Catalog>,
    /// Every logical table as a partition group, by logical name: a plain
    /// table is a 1-shard group whose shard is the table itself.
    groups: RwLock<FxHashMap<String, Arc<PartitionedTable>>>,
    next_table_id: AtomicU32,
    daemon: Mutex<Option<MergeDaemon>>,
    /// Background MVCC GC state; `Some` once [`Database::enable_gc`] ran.
    gc: Mutex<Option<Arc<GcShared>>>,
    /// Background integrity-scrub config; `Some` once
    /// [`Database::enable_scrub`] ran.
    scrub: Mutex<Option<ScrubConfig>>,
    commit_cfg: RwLock<CommitConfig>,
    /// Database-wide resource governor: OLAP scan admission, dynamic
    /// parallelism clamping and merge/GC deferral while OLTP is hot.
    governor: Arc<ResourceGovernor>,
}

/// Wraps a merge/GC target so the daemon consults the governor before
/// running a pass: while OLTP is hot at most one pass per deferral window
/// runs; a deferred pass returns `Ok(false)` ("nothing due"), so the
/// daemon simply retries on its next tick — bounded backoff, never
/// starvation.
struct GovernedMerge {
    inner: Arc<dyn MergeTarget>,
    governor: Arc<ResourceGovernor>,
    /// Per-target hot-window slot: each governed target gets its own
    /// one-pass-per-window budget, so a busy shard merge can't starve the
    /// GC sweep (or vice versa) while writers stay hot.
    last_hot_pass_ns: AtomicU64,
}

impl MergeTarget for GovernedMerge {
    fn maybe_merge(&self) -> Result<MergePass> {
        if !self.governor.admit_merge_at(&self.last_hot_pass_ns) {
            return Ok(MergePass::default());
        }
        self.inner.maybe_merge()
    }
}

/// RAII marker for an in-flight commit: bumps the governor's committer
/// gauge (scans yield at chunk boundaries while it is non-zero) and
/// guarantees the exit on every return path.
struct CommitterGuard<'a>(&'a ResourceGovernor);

impl<'a> CommitterGuard<'a> {
    fn enter(g: &'a ResourceGovernor) -> Self {
        g.committer_enter();
        CommitterGuard(g)
    }
}

impl Drop for CommitterGuard<'_> {
    fn drop(&mut self) {
        self.0.committer_exit();
    }
}

impl Database {
    /// A purely in-memory database (no durability).
    pub fn in_memory() -> Arc<Self> {
        Arc::new(Database {
            mgr: TxnManager::new(),
            persist: None,
            fence: Arc::new(RwLock::new(())),
            tables: RwLock::new(Catalog::default()),
            groups: RwLock::new(FxHashMap::default()),
            next_table_id: AtomicU32::new(0),
            daemon: Mutex::new(None),
            gc: Mutex::new(None),
            scrub: Mutex::new(None),
            commit_cfg: RwLock::new(CommitConfig::default()),
            governor: ResourceGovernor::new(GovernorConfig::default()),
        })
    }

    /// Open a durable database in `dir`, running recovery if durable state
    /// exists: load the newest savepoint, then replay the REDO log.
    pub fn open(dir: &Path) -> Result<Arc<Self>> {
        Self::open_with_injector(dir, FaultInjector::new())
    }

    /// Open a durable database whose physical I/O runs through the given
    /// [`FaultInjector`] (the crash-everywhere harness arms it to kill the
    /// instance at an exact I/O operation). Recovery is the one pass
    /// [`Persistence::open_with_injector`] makes, so its page reads go
    /// through the injector too.
    pub fn open_with_injector(dir: &Path, injector: Arc<FaultInjector>) -> Result<Arc<Self>> {
        let (persist, recovered) =
            Persistence::open_with_injector(dir, DEFAULT_PAGE_SIZE, injector)?;
        let persist = Arc::new(persist);
        let mgr = TxnManager::new();
        mgr.advance_clock_to(recovered.clock);

        let db = Arc::new(Database {
            mgr,
            persist: Some(persist),
            fence: Arc::new(RwLock::new(())),
            tables: RwLock::new(Catalog::default()),
            groups: RwLock::new(FxHashMap::default()),
            next_table_id: AtomicU32::new(0),
            daemon: Mutex::new(None),
            gc: Mutex::new(None),
            scrub: Mutex::new(None),
            commit_cfg: RwLock::new(recovered.commit_config),
            governor: ResourceGovernor::new(recovered.governor_config),
        });

        // Pass 1 over the log: commit outcomes.
        let mut commits: FxHashMap<TxnId, Timestamp> = FxHashMap::default();
        let mut max_ts = recovered.clock;
        for rec in &recovered.log_records {
            if let LogRecord::Commit { txn, ts } = rec {
                commits.insert(*txn, *ts);
                max_ts = max_ts.max(*ts);
            }
        }
        db.mgr.advance_clock_to(max_ts);
        let resolve = |w: TxnId| commits.get(&w).copied();

        // Rebuild tables from savepoint images.
        let mut max_table_id = 0u32;
        for img in &recovered.images {
            max_table_id = max_table_id.max(img.table_id + 1);
            let t = db.new_shard(
                TableId(img.table_id),
                img.schema.clone(),
                img.config.clone(),
            );
            t.load_image(img, &resolve)?;
            db.tables.write().push(t);
        }

        // Pass 2: replay data records of committed transactions. Track the
        // current version location of every touched row via the table's
        // store-level search (the replayed sets are the post-savepoint tail,
        // typically small).
        for rec in &recovered.log_records {
            match rec {
                LogRecord::CreateTable {
                    table,
                    schema,
                    config,
                } => {
                    max_table_id = max_table_id.max(table.0 + 1);
                    // Idempotence: the table may already exist via an image.
                    if db.table_by_id(*table).is_none() {
                        let t = db.new_shard(*table, schema.clone(), config.clone());
                        db.tables.write().push(t);
                    }
                }
                LogRecord::InsertL1 {
                    table,
                    row_id,
                    txn,
                    row,
                } => {
                    let Some(cts) = commits.get(txn) else {
                        continue;
                    };
                    let Some(t) = db.table_by_id(*table) else {
                        continue;
                    };
                    t.replay_insert(*row_id, row.clone(), *cts);
                }
                LogRecord::BulkLoadL2 {
                    table,
                    first_row_id,
                    txn,
                    rows,
                } => {
                    let Some(cts) = commits.get(txn) else {
                        continue;
                    };
                    let Some(t) = db.table_by_id(*table) else {
                        continue;
                    };
                    t.replay_bulk_load(*first_row_id, rows.clone(), *cts)?;
                }
                LogRecord::Delete { table, row_id, txn } => {
                    let Some(cts) = commits.get(txn) else {
                        continue;
                    };
                    let Some(t) = db.table_by_id(*table) else {
                        continue;
                    };
                    t.replay_delete(*row_id, *cts);
                }
                LogRecord::Commit { .. }
                | LogRecord::Abort { .. }
                | LogRecord::MergeEvent { .. } => {}
            }
        }
        db.next_table_id.store(max_table_id, Ordering::SeqCst);
        db.regroup()?;
        Ok(db)
    }

    /// File every recovered shard into its logical group. A spec-less
    /// table is a 1-shard group under its own name. Partition shards carry
    /// a [`hana_common::PartitionSpec`] in their persisted config, so
    /// grouping by `group` and ordering by `index` reconstructs the group
    /// exactly. An incomplete group (a create torn by a crash before every
    /// shard's CreateTable record became durable) is left out of the
    /// registry; its shards stay catalog tables and hold no committed data.
    fn regroup(&self) -> Result<()> {
        let shards = self.tables.read().list.clone();
        let mut groups = self.groups.write();
        let mut sharded: FxHashMap<String, Vec<Arc<UnifiedTable>>> = FxHashMap::default();
        for t in shards {
            match &t.config().partition {
                None => {
                    let solo = PartitionedTable::solo(Arc::clone(&t));
                    groups.insert(t.schema().name.clone(), Arc::new(solo));
                }
                Some(spec) => sharded.entry(spec.group.clone()).or_default().push(t),
            }
        }
        for (group, mut parts) in sharded {
            parts.sort_by_key(|t| {
                t.config()
                    .partition
                    .as_ref()
                    .expect("grouped by spec")
                    .index
            });
            let spec = parts[0]
                .config()
                .partition
                .clone()
                .expect("grouped by spec");
            if parts.len() != spec.of as usize {
                continue; // torn create: shards recovered, group unusable
            }
            let mut schema = parts[0].schema().clone();
            schema.name = group.clone();
            let pt =
                PartitionedTable::from_parts(schema, ColumnId(spec.hash_column as u16), parts)?;
            groups.insert(group, Arc::new(pt));
        }
        Ok(())
    }

    /// The shared transaction manager.
    pub fn txn_manager(&self) -> &Arc<TxnManager> {
        &self.mgr
    }

    /// Whether this database persists to disk.
    pub fn is_durable(&self) -> bool {
        self.persist.is_some()
    }

    /// Create a table: a 1-shard partition group whose only shard carries
    /// the table's own name and config (no [`hana_common::PartitionSpec`]),
    /// so its log records, savepoint image and manifest are exactly those
    /// of an unpartitioned table. Returns that shard.
    pub fn create_table(
        self: &Arc<Self>,
        schema: Schema,
        config: TableConfig,
    ) -> Result<Arc<UnifiedTable>> {
        let group = self.create_group(schema, config, None)?;
        Ok(Arc::clone(&group.partitions()[0]))
    }

    /// Create a hash-partitioned table: `pcfg.partitions` unified tables,
    /// each a first-class catalog citizen with its own id, L1/L2/main, row
    /// locks, merge policy state and zone maps, named
    /// `"{name}::p{i}"`. The `config` describes the *logical* table — its
    /// delta thresholds are divided across the partitions (see
    /// [`shard_config`]). Every shard's CreateTable record carries its
    /// [`hana_common::PartitionSpec`], so savepoints and recovery rebuild
    /// the partitioned table transparently. A running merge daemon picks
    /// the new partitions up immediately.
    pub fn create_partitioned_table(
        self: &Arc<Self>,
        schema: Schema,
        config: TableConfig,
        pcfg: PartitionConfig,
    ) -> Result<Arc<PartitionedTable>> {
        if pcfg.partitions == 0 {
            return Err(HanaError::Schema("at least one partition required".into()));
        }
        if pcfg.hash_column >= schema.arity() {
            return Err(HanaError::Schema(format!(
                "hash column {} out of range for {}",
                pcfg.hash_column, schema.name
            )));
        }
        self.create_group(schema, config, Some(pcfg))
    }

    /// The one table-creation routine: log one CreateTable record per
    /// shard (flushed once), build the shards into the catalog, file the
    /// group under its logical name and register the shards with the
    /// merge daemon and GC. `pcfg: None` builds a plain table's 1-shard
    /// group.
    fn create_group(
        &self,
        schema: Schema,
        config: TableConfig,
        pcfg: Option<PartitionConfig>,
    ) -> Result<Arc<PartitionedTable>> {
        let key_col = ColumnId(pcfg.map_or(0, |p| p.hash_column) as u16);
        let shards: Vec<(Schema, TableConfig)> = match pcfg {
            None => vec![(schema.clone(), config)],
            Some(p) => {
                let n = p.partitions as u32;
                (0..n)
                    .map(|i| {
                        let mut shard_schema = schema.clone();
                        shard_schema.name = partition_name(&schema.name, i);
                        let cfg = shard_config(&config, &schema.name, key_col, i, n);
                        (shard_schema, cfg)
                    })
                    .collect()
            }
        };
        // Lock order: fence before the catalog locks, matching every other
        // writer — and holding it keeps a concurrent savepoint from
        // rotating the CreateTable records out of the log before the
        // shards are imaged in the catalog.
        let _fence = self.fence.read();
        let mut tables = self.tables.write();
        let mut groups = self.groups.write();
        let taken = Some(&schema.name)
            .filter(|n| groups.contains_key(*n))
            .or_else(|| {
                shards
                    .iter()
                    .map(|(s, _)| &s.name)
                    .find(|n| tables.by_name.contains_key(*n))
            });
        if let Some(name) = taken {
            return Err(HanaError::Schema(format!("table {name} already exists")));
        }
        let ids: Vec<TableId> = shards
            .iter()
            .map(|_| TableId(self.next_table_id.fetch_add(1, Ordering::SeqCst)))
            .collect();
        if let Some(p) = &self.persist {
            for ((shard_schema, cfg), id) in shards.iter().zip(&ids) {
                p.append_record(&LogRecord::CreateTable {
                    table: *id,
                    schema: shard_schema.clone(),
                    config: cfg.clone(),
                })?;
            }
            p.flush_records()?;
        }
        let parts: Vec<Arc<UnifiedTable>> = shards
            .into_iter()
            .zip(ids)
            .map(|((shard_schema, cfg), id)| {
                let t = self.new_shard(id, shard_schema, cfg);
                tables.push(Arc::clone(&t));
                t
            })
            .collect();
        let group = Arc::new(PartitionedTable::from_parts(schema, key_col, parts)?);
        groups.insert(group.schema().name.clone(), Arc::clone(&group));
        drop(groups);
        drop(tables);
        let gc = self.gc.lock().clone();
        self.register_targets(group.partitions(), gc.as_ref(), true);
        Ok(group)
    }

    /// Build one shard over this database's transaction manager,
    /// persistence, savepoint fence and governor (not yet in the catalog).
    fn new_shard(&self, id: TableId, schema: Schema, config: TableConfig) -> Arc<UnifiedTable> {
        UnifiedTable::create(
            id,
            schema,
            config,
            Arc::clone(&self.mgr),
            self.persist.clone(),
            Arc::clone(&self.fence),
            Arc::clone(&self.governor),
        )
    }

    /// Look up a logical table's partition group (a plain table resolves
    /// as its 1-shard group).
    pub fn partitioned_table(&self, name: &str) -> Result<Arc<PartitionedTable>> {
        self.groups
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| HanaError::NotFound(format!("partitioned table {name}")))
    }

    /// Look up a table by name (O(1) via the catalog index).
    pub fn table(&self, name: &str) -> Result<Arc<UnifiedTable>> {
        let tables = self.tables.read();
        tables
            .by_name
            .get(name)
            .map(|&i| Arc::clone(&tables.list[i]))
            .ok_or_else(|| HanaError::NotFound(format!("table {name}")))
    }

    /// Look up a table by id (O(1) via the catalog index).
    pub fn table_by_id(&self, id: TableId) -> Option<Arc<UnifiedTable>> {
        self.tables.read().by_id(id).cloned()
    }

    /// All tables.
    pub fn tables(&self) -> Vec<Arc<UnifiedTable>> {
        self.tables.read().list.clone()
    }

    /// Begin a transaction.
    pub fn begin(&self, level: IsolationLevel) -> Transaction {
        self.mgr.begin(level)
    }

    /// Commit: assign the commit timestamp, make the commit record durable
    /// through the group-commit pipeline, release row locks.
    ///
    /// Timestamp assignment runs inside the pipeline's sequencing section,
    /// so on-disk commit-record order always matches commit-timestamp
    /// order; when this returns, the record has been fsynced (possibly by a
    /// batch leader on another thread).
    pub fn commit(&self, txn: &mut Transaction) -> Result<Timestamp> {
        let id = txn.id();
        // Priority marker: while this is alive, admitted scans yield at
        // chunk boundaries and the governor's hot signal is raised.
        let _prio = CommitterGuard::enter(&self.governor);
        let ts = if let Some(p) = &self.persist {
            // Hold the savepoint fence so a concurrent savepoint cannot
            // truncate the commit record out of the log before the batch
            // fsync lands. Lock order: fence -> pipeline -> log writer.
            let _fence = self.fence.read();
            let cfg = *self.commit_cfg.read();
            p.commit_record(&cfg, || {
                let ts = self.mgr.commit(txn)?;
                Ok((LogRecord::Commit { txn: id, ts }, ts))
            })?
        } else {
            self.mgr.commit(txn)?
        };
        self.governor.note_commit();
        self.finish_touched(txn, id);
        Ok(ts)
    }

    /// Abort: mark the transaction aborted, log it durably, release row
    /// locks. The abort record rides the same pipeline as commits, so it is
    /// on disk when this returns (see `hana_persist::log` module docs).
    pub fn abort(&self, txn: &mut Transaction) -> Result<()> {
        let id = txn.id();
        self.mgr.abort(txn)?;
        if let Some(p) = &self.persist {
            let _fence = self.fence.read();
            let cfg = *self.commit_cfg.read();
            p.commit_record(&cfg, || Ok((LogRecord::Abort { txn: id }, ())))?;
        }
        self.finish_touched(txn, id);
        Ok(())
    }

    /// The daemon targets that drive `shards`, each wrapped in the
    /// governor's admission check: a merge target per shard when `merges`,
    /// plus a GC target per shard when `gc` is on. One target per shard
    /// means merging or collecting one shard never stalls a sibling
    /// (per-target claim and backoff).
    fn shard_targets(
        &self,
        shards: &[Arc<UnifiedTable>],
        gc: Option<&Arc<GcShared>>,
        merges: bool,
    ) -> Vec<Arc<dyn MergeTarget>> {
        let mut out = Vec::new();
        for t in shards {
            if merges {
                out.push(self.governed(Arc::clone(t) as Arc<dyn MergeTarget>));
            }
            if let Some(g) = gc {
                out.push(
                    self.governed(
                        TableGc::new(Arc::clone(t), Arc::clone(g)) as Arc<dyn MergeTarget>
                    ),
                );
            }
        }
        out
    }

    /// Wrap a merge/GC/scrub target in the governor's admission check
    /// before handing it to the daemon.
    fn governed(&self, inner: Arc<dyn MergeTarget>) -> Arc<dyn MergeTarget> {
        Arc::new(GovernedMerge {
            inner,
            governor: Arc::clone(&self.governor),
            last_hot_pass_ns: AtomicU64::new(0),
        })
    }

    /// Register `shards` with GC (so the cross-table trim gate counts them
    /// from the first cycle) and hand their targets to a running daemon.
    fn register_targets(
        &self,
        shards: &[Arc<UnifiedTable>],
        gc: Option<&Arc<GcShared>>,
        merges: bool,
    ) {
        if let Some(g) = gc {
            for t in shards {
                g.register_table(t.id().0);
            }
        }
        if let Some(d) = &*self.daemon.lock() {
            for target in self.shard_targets(shards, gc, merges) {
                d.add_target(target);
            }
        }
    }

    /// Release row locks on the tables the transaction actually wrote
    /// (instead of sweeping every table in the catalog).
    fn finish_touched(&self, txn: &Transaction, id: TxnId) {
        let tables = self.tables.read();
        for tid in txn.touched_tables() {
            if let Some(t) = tables.by_id(tid) {
                t.finish_txn(id);
            }
        }
    }

    /// Current commit/durability configuration.
    pub fn commit_config(&self) -> CommitConfig {
        *self.commit_cfg.read()
    }

    /// Replace the commit configuration. Takes effect for subsequent
    /// commits and is persisted with the next savepoint.
    pub fn set_commit_config(&self, cfg: CommitConfig) {
        *self.commit_cfg.write() = cfg;
    }

    /// The database-wide resource governor.
    pub fn governor(&self) -> &Arc<ResourceGovernor> {
        &self.governor
    }

    /// Current workload-isolation configuration.
    pub fn governor_config(&self) -> GovernorConfig {
        self.governor.config()
    }

    /// Replace the workload-isolation configuration. Takes effect for
    /// subsequent admissions (queued scans re-read it) and is persisted
    /// with the next savepoint.
    pub fn set_governor_config(&self, cfg: GovernorConfig) {
        self.governor.set_config(cfg);
    }

    /// Monotonic governor counters (admissions, queueing, timeouts,
    /// parallelism downshifts, merge deferrals).
    pub fn governor_stats(&self) -> GovernorStats {
        self.governor.stats()
    }

    /// Group-commit pipeline statistics (`None` for in-memory databases).
    pub fn log_stats(&self) -> Option<LogStats> {
        self.persist.as_ref().map(|p| p.log_stats())
    }

    /// Persistence health: I/O failure counters and whether repeated
    /// failures have flipped the instance into read-only degraded mode
    /// (`None` for in-memory databases, which have no I/O to fail).
    pub fn health_stats(&self) -> Option<HealthStats> {
        self.persist.as_ref().map(|p| p.health_stats())
    }

    /// Leave degraded mode after the operator has resolved the underlying
    /// device problem; subsequent writes are accepted again. No-op when
    /// the database is in-memory or not degraded.
    pub fn clear_degraded(&self) {
        if let Some(p) = &self.persist {
            p.clear_degraded();
        }
    }

    /// The fault injector wired through this database's physical I/O
    /// (`None` for in-memory databases). Test harnesses arm it; production
    /// code leaves it disarmed, where its overhead is one atomic load per
    /// I/O operation.
    pub fn injector(&self) -> Option<&Arc<FaultInjector>> {
        self.persist.as_ref().map(|p| p.injector())
    }

    /// The persistence layer itself, for introspection (page accounting,
    /// log statistics) by tests and tools. `None` for in-memory databases.
    pub fn persistence(&self) -> Option<&Arc<Persistence>> {
        self.persist.as_ref()
    }

    /// Write a savepoint: image every table under the exclusive fence, then
    /// persist + truncate the log. Returns the savepoint version.
    pub fn savepoint(&self) -> Result<u64> {
        let Some(p) = &self.persist else {
            return Err(HanaError::Persist(
                "in-memory database has no savepoints".into(),
            ));
        };
        let _fence = self.fence.write();
        let tables = self.tables.read().list.clone();
        let images: Vec<_> = tables.iter().map(|t| t.to_image()).collect();
        p.savepoint(
            self.mgr.now(),
            &self.commit_cfg.read(),
            &self.governor.config(),
            &images,
        )
    }

    /// Start the background merge daemon over all current tables with an
    /// auto-sized worker pool (one worker per logical CPU, capped by the
    /// table count).
    pub fn start_merge_daemon(&self, interval: std::time::Duration) {
        self.start_merge_daemon_pool(interval, 0)
    }

    /// Start the background merge daemon with an explicit pool size
    /// (`0` = auto), so several tables can merge concurrently.
    pub fn start_merge_daemon_pool(&self, interval: std::time::Duration, workers: usize) {
        let gc = self.gc.lock().clone();
        let mut targets = self.shard_targets(&self.tables(), gc.as_ref(), true);
        if let (Some(cfg), Some(p)) = (*self.scrub.lock(), &self.persist) {
            targets.push(self.governed(Scrubber::new(Arc::clone(p), cfg) as Arc<dyn MergeTarget>));
        }
        *self.daemon.lock() = Some(MergeDaemon::spawn_pool(targets, interval, workers));
    }

    /// Stop the background merge daemon (joins its workers).
    pub fn stop_merge_daemon(&self) {
        *self.daemon.lock() = None;
    }

    /// Snapshot of the merge daemon's aggregate statistics, if it runs.
    pub fn merge_daemon_stats(&self) -> Option<hana_merge::DaemonStats> {
        self.daemon.lock().as_ref().map(|d| d.stats())
    }

    /// Nudge the merge daemon to check thresholds now.
    pub fn nudge_merges(&self) {
        if let Some(d) = &*self.daemon.lock() {
            d.nudge();
        }
    }

    /// Enable background MVCC garbage collection: every catalog table (and
    /// every table or partition shard created afterwards) gets a
    /// [`TableGc`] target driven by the merge daemon. Idempotent in effect
    /// but each call resets the counters; call once, before or after
    /// [`Database::start_merge_daemon`].
    pub fn enable_gc(&self) {
        let shared = GcShared::new();
        *self.gc.lock() = Some(Arc::clone(&shared));
        self.register_targets(&self.tables(), Some(&shared), false);
    }

    /// Snapshot of the garbage collector's aggregate statistics, if GC is
    /// enabled (mirrors [`Database::merge_daemon_stats`]).
    pub fn gc_stats(&self) -> Option<GcStats> {
        self.gc.lock().as_ref().map(|g| g.stats())
    }

    /// Enable the background integrity scrub: the merge daemon gets a
    /// [`Scrubber`] target that re-verifies [`ScrubConfig::batch_pages`]
    /// on-disk pages per admitted tick (governor deferral applies, like
    /// merges and GC). No-op for in-memory databases. Call once, before or
    /// after [`Database::start_merge_daemon`].
    pub fn enable_scrub(&self, cfg: ScrubConfig) {
        if self.persist.is_none() {
            return;
        }
        *self.scrub.lock() = Some(cfg);
        if let (Some(d), Some(p)) = (&*self.daemon.lock(), &self.persist) {
            d.add_target(self.governed(Scrubber::new(Arc::clone(p), cfg) as Arc<dyn MergeTarget>));
        }
    }

    /// On-disk integrity counters: envelope verifications, detected
    /// corruptions, quarantined pages and scrub progress (`None` for
    /// in-memory databases, which have no disk to rot).
    pub fn integrity_stats(&self) -> Option<IntegrityStats> {
        self.persist.as_ref().map(|p| p.integrity_stats())
    }
}

impl UnifiedTable {
    /// Recovery replay of an `InsertL1` record.
    pub(crate) fn replay_insert(&self, row_id: RowId, row: Vec<Value>, cts: Timestamp) {
        self.l1.insert(row_id, row, cts);
        self.next_row_id.fetch_max(row_id.0 + 1, Ordering::SeqCst);
    }

    /// Recovery replay of a `BulkLoadL2` record.
    pub(crate) fn replay_bulk_load(
        &self,
        first: RowId,
        rows: Vec<Vec<Value>>,
        cts: Timestamp,
    ) -> Result<()> {
        let state = self.state.read();
        let batch: Vec<_> = rows
            .into_iter()
            .enumerate()
            .map(|(k, row)| {
                (
                    RowId(first.0 + k as u64),
                    row,
                    cts,
                    hana_common::COMMIT_TS_MAX,
                )
            })
            .collect();
        self.next_row_id
            .fetch_max(first.0 + batch.len() as u64, Ordering::SeqCst);
        state.l2.append_batch(&batch)?;
        state.l2.publish_all();
        Ok(())
    }

    /// Recovery replay of a `Delete` record: close the newest live version
    /// of `row_id` (replay is single-threaded; a store-level sweep is fine
    /// for the post-savepoint tail).
    pub(crate) fn replay_delete(&self, row_id: RowId, cts: Timestamp) {
        // L1 newest-last: walk backwards.
        let snap = self.l1.snapshot();
        for pos in (snap.start..snap.end).rev() {
            if let Some(slot) = snap.slot(pos) {
                if slot.row_id == row_id && slot.end() == hana_common::COMMIT_TS_MAX {
                    slot.store_end(cts);
                    return;
                }
            }
        }
        let state = self.state.read();
        for pos in (0..state.l2.len() as u32).rev() {
            if state.l2.row_id(pos) == row_id && state.l2.end(pos) == hana_common::COMMIT_TS_MAX {
                state.l2.store_end(pos, cts);
                return;
            }
        }
        for part in state.main.parts() {
            for pos in 0..part.len() as u32 {
                if part.row_id(pos) == row_id && part.end(pos) == hana_common::COMMIT_TS_MAX {
                    part.store_end(pos, cts);
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hana_common::{ColumnDef, DataType};
    use tempfile::tempdir;

    fn schema() -> Schema {
        Schema::new(
            "accounts",
            vec![
                ColumnDef::new("id", DataType::Int).unique(),
                ColumnDef::new("owner", DataType::Str),
                ColumnDef::new("balance", DataType::Int).not_null(),
            ],
        )
        .unwrap()
    }

    fn acct(id: i64, owner: &str, bal: i64) -> Vec<Value> {
        vec![Value::Int(id), Value::str(owner), Value::Int(bal)]
    }

    #[test]
    fn in_memory_end_to_end() {
        let db = Database::in_memory();
        let t = db.create_table(schema(), TableConfig::small()).unwrap();
        let mut txn = db.begin(IsolationLevel::Transaction);
        t.insert(&txn, acct(1, "ada", 100)).unwrap();
        db.commit(&mut txn).unwrap();
        let r = db.begin(IsolationLevel::Transaction);
        assert_eq!(t.read(&r).count(), 1);
        assert!(db.table("accounts").is_ok());
        assert!(db.table("nope").is_err());
        // Duplicate table name rejected.
        assert!(db.create_table(schema(), TableConfig::default()).is_err());
    }

    #[test]
    fn durable_recovery_log_only() {
        let dir = tempdir().unwrap();
        {
            let db = Database::open(dir.path()).unwrap();
            let t = db.create_table(schema(), TableConfig::small()).unwrap();
            let mut txn = db.begin(IsolationLevel::Transaction);
            t.insert(&txn, acct(1, "ada", 100)).unwrap();
            t.insert(&txn, acct(2, "bob", 50)).unwrap();
            db.commit(&mut txn).unwrap();
            // An uncommitted transaction at crash time.
            let open = db.begin(IsolationLevel::Transaction);
            t.insert(&open, acct(3, "eve", 1)).unwrap();
            std::mem::forget(open); // simulate crash: never commits/aborts
        }
        let db = Database::open(dir.path()).unwrap();
        let t = db.table("accounts").unwrap();
        let r = db.begin(IsolationLevel::Transaction);
        let read = t.read(&r);
        assert_eq!(read.count(), 2);
        assert_eq!(
            read.point(0, &Value::Int(1)).unwrap()[0][1],
            Value::str("ada")
        );
        // Uncommitted insert vanished.
        assert!(read.point(0, &Value::Int(3)).unwrap().is_empty());
        // New inserts get fresh row ids / keys still usable.
        let mut txn = db.begin(IsolationLevel::Transaction);
        t.insert(&txn, acct(3, "carol", 7)).unwrap();
        db.commit(&mut txn).unwrap();
    }

    #[test]
    fn durable_recovery_with_savepoint_and_tail() {
        let dir = tempdir().unwrap();
        {
            let db = Database::open(dir.path()).unwrap();
            let t = db.create_table(schema(), TableConfig::small()).unwrap();
            let mut txn = db.begin(IsolationLevel::Transaction);
            for i in 0..50 {
                t.insert(&txn, acct(i, "x", i * 10)).unwrap();
            }
            db.commit(&mut txn).unwrap();
            t.drain_l1().unwrap();
            t.merge_delta_as(hana_merge::MergeDecision::Classic)
                .unwrap();
            db.savepoint().unwrap();
            // Post-savepoint tail: update + delete + insert.
            let mut txn = db.begin(IsolationLevel::Transaction);
            t.update_where(
                &txn,
                hana_common::ColumnId(0),
                &Value::Int(10),
                &[(hana_common::ColumnId(2), Value::Int(999))],
            )
            .unwrap();
            t.delete_where(&txn, hana_common::ColumnId(0), &Value::Int(20))
                .unwrap();
            t.insert(&txn, acct(100, "new", 1)).unwrap();
            db.commit(&mut txn).unwrap();
        }
        let db = Database::open(dir.path()).unwrap();
        let t = db.table("accounts").unwrap();
        let r = db.begin(IsolationLevel::Transaction);
        let read = t.read(&r);
        assert_eq!(read.count(), 50); // 50 - 1 deleted + 1 inserted
        assert_eq!(
            read.point(0, &Value::Int(10)).unwrap()[0][2],
            Value::Int(999)
        );
        assert!(read.point(0, &Value::Int(20)).unwrap().is_empty());
        assert_eq!(read.point(0, &Value::Int(100)).unwrap().len(), 1);
        // The savepointed main survived as a real main structure.
        assert!(t.stage_stats().main_rows > 0);
    }

    #[test]
    fn savepoint_requires_durability() {
        let db = Database::in_memory();
        assert!(db.savepoint().is_err());
    }

    #[test]
    fn abort_through_database() {
        let db = Database::in_memory();
        let t = db.create_table(schema(), TableConfig::small()).unwrap();
        let mut txn = db.begin(IsolationLevel::Transaction);
        t.insert(&txn, acct(1, "ada", 1)).unwrap();
        db.abort(&mut txn).unwrap();
        let r = db.begin(IsolationLevel::Transaction);
        assert_eq!(t.read(&r).count(), 0);
    }

    #[test]
    fn partitioned_table_end_to_end() {
        let db = Database::in_memory();
        let pt = db
            .create_partitioned_table(
                schema(),
                TableConfig::small(),
                hana_common::PartitionConfig::new(4, 0),
            )
            .unwrap();
        assert_eq!(pt.partition_count(), 4);
        // Shards are first-class catalog citizens; the logical name is not
        // a plain table.
        assert!(db.table("accounts::p0").is_ok());
        assert!(db.table("accounts").is_err());
        assert!(db.partitioned_table("accounts").is_ok());
        // Duplicate logical or shard names rejected.
        assert!(db
            .create_partitioned_table(
                schema(),
                TableConfig::small(),
                hana_common::PartitionConfig::new(2, 0)
            )
            .is_err());
        let mut txn = db.begin(IsolationLevel::Transaction);
        for i in 0..40 {
            pt.insert(&txn, acct(i, "x", i)).unwrap();
        }
        db.commit(&mut txn).unwrap();
        let r = db.begin(IsolationLevel::Transaction);
        assert_eq!(pt.read(&r).count(), 40);
        // Commit released locks only on touched partitions — an immediate
        // second writer succeeds everywhere.
        let mut txn = db.begin(IsolationLevel::Transaction);
        for i in 0..40 {
            pt.update_where(
                &txn,
                &Value::Int(i),
                &[(hana_common::ColumnId(2), Value::Int(0))],
            )
            .unwrap();
        }
        db.commit(&mut txn).unwrap();
        let r = db.begin(IsolationLevel::Transaction);
        let (c, s) = pt.read(&r).aggregate_numeric(2).unwrap();
        assert_eq!(c, 40);
        assert_eq!(s, 0.0);
    }

    /// The accounts schema under another table name.
    fn named(name: &str) -> Schema {
        let mut s = schema();
        s.name = name.into();
        s
    }

    #[test]
    fn partitioned_table_survives_savepoint_and_recovery() {
        let dir = tempdir().unwrap();
        {
            let db = Database::open(dir.path()).unwrap();
            let pt = db
                .create_partitioned_table(
                    schema(),
                    TableConfig::small(),
                    hana_common::PartitionConfig::new(3, 0),
                )
                .unwrap();
            let plain = db
                .create_table(named("ledger"), TableConfig::small())
                .unwrap();
            let mut txn = db.begin(IsolationLevel::Transaction);
            for i in 0..30 {
                pt.insert(&txn, acct(i, "x", i * 10)).unwrap();
                plain.insert(&txn, acct(i, "y", i)).unwrap();
            }
            db.commit(&mut txn).unwrap();
            // Push one partition's lifecycle forward, then savepoint.
            pt.partitions()[0].drain_l1().unwrap();
            plain.drain_l1().unwrap();
            db.savepoint().unwrap();
            // Post-savepoint tail replayed from the log.
            let mut txn = db.begin(IsolationLevel::Transaction);
            pt.insert(&txn, acct(100, "tail", 1)).unwrap();
            plain.insert(&txn, acct(100, "tail", 1)).unwrap();
            db.commit(&mut txn).unwrap();
            // An uncommitted straggler must not survive.
            let open = db.begin(IsolationLevel::Transaction);
            pt.insert(&open, acct(200, "zombie", 1)).unwrap();
            std::mem::forget(open);
        }
        let db = Database::open(dir.path()).unwrap();
        let pt = db.partitioned_table("accounts").unwrap();
        assert_eq!(pt.partition_count(), 3);
        let snap = hana_txn::Snapshot::at(db.txn_manager().now());
        for i in 0..30 {
            let rows = pt.point(snap, &Value::Int(i)).unwrap();
            assert_eq!(rows.len(), 1, "committed row {i} lost");
            assert_eq!(rows[0][2], Value::Int(i * 10));
        }
        assert_eq!(pt.point(snap, &Value::Int(100)).unwrap().len(), 1);
        assert!(pt.point(snap, &Value::Int(200)).unwrap().is_empty());
        assert_eq!(pt.read_at(snap).count(), 31);
        // The partition spec round-tripped through the image codec.
        let spec = pt.partitions()[1].config().partition.clone().unwrap();
        assert_eq!(spec.group, "accounts");
        assert_eq!(spec.index, 1);
        assert_eq!(spec.of, 3);
        // The plain table resolves as a 1-shard group whose shard is the
        // table itself, still without a partition spec.
        let plain = db.partitioned_table("ledger").unwrap();
        assert_eq!(plain.partition_count(), 1);
        assert!(Arc::ptr_eq(
            &plain.partitions()[0],
            &db.table("ledger").unwrap()
        ));
        assert!(plain.partitions()[0].config().partition.is_none());
        assert_eq!(plain.read_at(snap).count(), 31);
        assert_eq!(plain.point(snap, &Value::Int(100)).unwrap().len(), 1);
        // The recovered tables keep accepting writes.
        let mut txn = db.begin(IsolationLevel::Transaction);
        pt.insert(&txn, acct(300, "fresh", 5)).unwrap();
        plain.insert(&txn, acct(300, "fresh", 5)).unwrap();
        db.commit(&mut txn).unwrap();
    }

    #[test]
    fn plain_table_logs_and_images_without_partition_spec() {
        let dir = tempdir().unwrap();
        {
            let db = Database::open(dir.path()).unwrap();
            db.create_table(schema(), TableConfig::small()).unwrap();
        }
        let recovered = Persistence::open(dir.path()).unwrap().1;
        let created: Vec<_> = recovered
            .log_records
            .iter()
            .filter_map(|r| match r {
                LogRecord::CreateTable { schema, config, .. } => Some((schema, config)),
                _ => None,
            })
            .collect();
        assert_eq!(created.len(), 1);
        assert_eq!(created[0].0.name, "accounts");
        assert_eq!(created[0].1.partition, None);
        {
            let db = Database::open(dir.path()).unwrap();
            db.savepoint().unwrap();
        }
        let recovered = Persistence::open(dir.path()).unwrap().1;
        assert_eq!(recovered.images.len(), 1);
        assert_eq!(recovered.images[0].schema.name, "accounts");
        assert_eq!(recovered.images[0].config.partition, None);
    }

    #[test]
    fn merge_daemon_picks_up_tables_created_after_start() {
        let db = Database::in_memory();
        db.enable_gc();
        db.start_merge_daemon(std::time::Duration::from_millis(2));
        let cfg = TableConfig {
            l1_max_rows: 8,
            l2_max_rows: 16,
            ..TableConfig::default()
        };
        let pt = db
            .create_partitioned_table(
                schema(),
                cfg.clone(),
                hana_common::PartitionConfig::new(2, 0),
            )
            .unwrap();
        db.create_table(named("ledger"), cfg).unwrap();
        let plain = db.partitioned_table("ledger").unwrap();
        // One merge and one GC target per shard: two partitions plus the
        // plain table's single shard.
        let targets = db.daemon.lock().as_ref().map(|d| d.target_count());
        assert_eq!(targets, Some(6));
        let mut txn = db.begin(IsolationLevel::Transaction);
        for i in 0..200 {
            pt.insert(&txn, acct(i, "x", i)).unwrap();
            plain.insert(&txn, acct(i, "x", i)).unwrap();
        }
        db.commit(&mut txn).unwrap();
        let shards: Vec<_> = pt.partitions().iter().chain(plain.partitions()).collect();
        for _ in 0..500 {
            let settled = shards.iter().all(|p| p.stage_stats().main_rows > 0);
            if settled {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        db.stop_merge_daemon();
        assert!(db.gc_stats().unwrap().cycles > 0, "GC swept the shards");
        for p in shards {
            assert!(
                p.stage_stats().main_rows > 0,
                "daemon must drive partitions registered after spawn"
            );
        }
    }

    #[test]
    fn merge_daemon_drives_lifecycle() {
        let db = Database::in_memory();
        let cfg = TableConfig {
            l1_max_rows: 8,
            l2_max_rows: 32,
            ..TableConfig::default()
        };
        let t = db.create_table(schema(), cfg).unwrap();
        db.start_merge_daemon(std::time::Duration::from_millis(2));
        let mut txn = db.begin(IsolationLevel::Transaction);
        for i in 0..200 {
            t.insert(&txn, acct(i, "x", i)).unwrap();
        }
        db.commit(&mut txn).unwrap();
        // Wait for the daemon to push rows down the pipeline.
        for _ in 0..500 {
            if t.stage_stats().main_rows > 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        db.stop_merge_daemon();
        let stats = t.stage_stats();
        assert!(stats.main_rows > 0, "daemon should have produced a main");
        let r = db.begin(IsolationLevel::Transaction);
        assert_eq!(t.read(&r).count(), 200);
    }
}
