//! The three workloads.
//!
//! * `oltp-point` — in-memory; one closed-loop client runs the ERP mix
//!   against 100k orders settled into main, merge daemon on. Time goes to
//!   the core point-read/visibility path, the L1 insert and the commit.
//! * `olap-scan` — in-memory, static; one closed-loop client cycles Q1–Q5
//!   over 1M orders (90% main, 10% unmerged L2, 2% updated and 1% deleted
//!   after the main was built). Time goes to calc and the scan kernels.
//! * `htap-durable` — on disk with group commit and fsync; an open-loop
//!   OLTP sender at a fixed rate and a closed-loop OLAP client share one
//!   table while the merge daemon, GC and periodic savepoints run. Ends
//!   with close, reopen and a durability check.
//!
//! Every workload repeats its set-up (see [`setup_done`]) and reports
//! the median set-up time. A traced run (`--trace 1`) traces every other
//! request (every other Q1–Q5 cycle), so traced and untraced requests see
//! the same table state: request-class metrics come from the untraced
//! ones, span metrics from the traced ones.

use crate::clients::{mean_ns, median, mem_bytes_per_row, pct_us, per_s, OlapClient, OltpClient};
use crate::olap::{self, canonical, same};
use crate::oltp::{class_of, preload_rows, OpGen, OpenLoop, Outcome, RowExec, Shadow, UnifiedExec};
use crate::report::Report;
use crate::trace::Tracer;
use crate::Args;
use hana_common::{ColumnId, Result, TableConfig, Value};
use hana_core::{Database, UnifiedTable};
use hana_txn::{IsolationLevel, Snapshot};
use hana_workload::olap::{OlapRunner, ALL_QUERIES};
use hana_workload::sales::{fact_cols, SalesSchema};
use hana_workload::DataGen;
use rand::Rng;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Workload names.
pub const NAMES: [&str; 3] = ["oltp-point", "olap-scan", "htap-durable"];

/// Set-up runs at least this often per untraced run...
const SETUP_MIN_REPS: usize = 3;
/// ...and, while the set-ups so far took less than this many seconds, up
/// to [`SETUP_MAX_REPS`] times, so cheap set-ups get a steadier median.
const SETUP_BUDGET_S: f64 = 2.0;
const SETUP_MAX_REPS: usize = 9;
/// Measured work before this much time has passed is not recorded, so
/// caches fill and lazy set-up finishes first.
const WARMUP: Duration = Duration::from_millis(500);
/// Raw spans kept per traced client thread.
const SPAN_CAP: usize = 200_000;
/// On `htap-durable` memory is sampled this often and reported as the
/// median sample.
const MEM_SAMPLE: Duration = Duration::from_millis(100);
/// On `oltp-point` memory is measured when the stream reaches this op.
const MEM_AT_OP: u64 = 20_000;
/// Rows per bulk-load batch.
const BATCH: usize = 4096;

/// Run workload `name`.
pub fn run(name: &str, args: &Args) -> Result<Report> {
    match name {
        "oltp-point" => oltp_point(args),
        "olap-scan" => olap_scan(args),
        "htap-durable" => htap_durable(args),
        _ => unreachable!("workload names are checked by the caller"),
    }
}

/// Whether enough set-ups (durations in `times`, s) have run. A traced
/// run sets up once.
fn setup_done(times: &[f64], trace: bool) -> bool {
    if trace {
        return !times.is_empty();
    }
    let spent: f64 = times.iter().sum();
    times.len() >= SETUP_MAX_REPS || (times.len() >= SETUP_MIN_REPS && spent >= SETUP_BUDGET_S)
}

/// Whether request `n` of a client is traced.
fn traced(args: &Args, n: u64) -> bool {
    args.trace && n % 2 == 1
}

/// Tracing overhead, %: traced against untraced median service time
/// (medians, so a stall landing on one side does not decide it).
fn overhead_pct(traced_ns: &[u64], untraced_ns: &[u64]) -> f64 {
    100.0 * (pct_us(traced_ns, 50.0) / pct_us(untraced_ns, 50.0).max(1e-3) - 1.0)
}

fn load(db: &Arc<Database>, table: &UnifiedTable, batches: Vec<Vec<Vec<Value>>>) -> Result<()> {
    let mut txn = db.begin(IsolationLevel::Transaction);
    for b in batches {
        table.bulk_load(&txn, b)?;
    }
    db.commit(&mut txn)?;
    Ok(())
}

fn batches(rows: &[Vec<Value>]) -> Vec<Vec<Vec<Value>>> {
    rows.chunks(BATCH).map(|c| c.to_vec()).collect()
}

/// Every visible row of `table`, read in a fresh transaction.
fn scan_all(db: &Arc<Database>, table: &Arc<UnifiedTable>) -> Result<Vec<Vec<Value>>> {
    let mut txn = db.begin(IsolationLevel::Transaction);
    let rows = table
        .read(&txn)
        .collect_rows()
        .into_iter()
        .map(|r| r.values)
        .collect();
    db.commit(&mut txn)?;
    Ok(rows)
}

/// Per-layer metrics read from the merged spans.
fn report_spans(tr: &Tracer, r: &mut Report) {
    let mean_us = |name: &str| {
        tr.agg(name)
            .map_or(0.0, |a| a.total_ns as f64 / a.count as f64 / 1e3)
    };
    let pct = |name: &str, p: f64| tr.agg(name).map_or(0.0, |a| pct_us(&a.durations_ns, p));
    let total: u64 = ["req.", "txn.", "core.", "calc.", "persist."]
        .iter()
        .map(|p| tr.self_ns_with_prefix(p))
        .sum();
    let share = |ns: u64| 100.0 * ns as f64 / total.max(1) as f64;
    r.set("self.bench_pct", share(tr.self_ns_with_prefix("req.")));
    r.set("self.txn_pct", share(tr.self_ns_with_prefix("txn.")));
    r.set("self.core_pct", share(tr.self_ns_with_prefix("core.")));
    r.set("self.calc_pct", share(tr.self_ns_with_prefix("calc.")));
    r.set(
        "self.persist_pct",
        share(tr.self_ns_with_prefix("persist.")),
    );
    for (metric, root) in [
        ("self.lookup_core_point_pct", "req.lookup"),
        ("self.payment_core_point_pct", "req.payment"),
    ] {
        let req = tr.agg(root).map_or(0, |a| a.total_ns);
        let point = tr.self_ns_under(root, "core.point");
        r.set(metric, 100.0 * point as f64 / req.max(1) as f64);
    }
    r.set("core.read_view_us", mean_us("core.read_view"));
    r.set("core.point_p50_us", pct("core.point", 50.0));
    r.set("core.point_p99_us", pct("core.point", 99.0));
    r.set("core.insert_us", mean_us("core.insert"));
    r.set("core.update_where_us", mean_us("core.update_where"));
    r.set("core.delete_where_us", mean_us("core.delete_where"));
    r.set("txn.begin_us", mean_us("txn.begin"));
    r.set("txn.commit_p50_us", pct("txn.commit", 50.0));
    r.set("txn.commit_p99_us", pct("txn.commit", 99.0));
    r.set(
        "persist.savepoint_p50_ms",
        pct("persist.savepoint", 50.0) / 1e3,
    );
    r.set(
        "persist.savepoint_max_ms",
        pct("persist.savepoint", 100.0) / 1e3,
    );
    r.set("calc.compile_us", mean_us("calc.compile"));
    r.set("calc.optimize_us", mean_us("calc.optimize"));
    r.set("calc.exec_ms", mean_us("calc.exec") / 1e3);
    for (q, metric) in [
        "calc.exec_ms.q1",
        "calc.exec_ms.q2",
        "calc.exec_ms.q3",
        "calc.exec_ms.q4",
        "calc.exec_ms.q5",
    ]
    .into_iter()
    .enumerate()
    {
        let n = tr.agg(olap::ROOTS[q]).map_or(0, |a| a.count);
        let ns = tr.self_ns_under(olap::ROOTS[q], "calc.exec");
        r.set(metric, ns as f64 / n.max(1) as f64 / 1e6);
    }
}

fn write_trace(name: &str, tr: &Tracer) {
    let path = crate::out_dir().join(format!("trace-{name}.tsv"));
    let written = std::fs::create_dir_all(crate::out_dir())
        .and_then(|_| std::fs::File::create(&path))
        .and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            tr.write_tsv(&mut w)?;
            std::io::Write::flush(&mut w)
        });
    match written {
        Ok(()) => eprintln!(
            "perfbench: spans written to {} ({} not kept)",
            path.display(),
            tr.dropped()
        ),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

/// Store-level metrics of the table at the end of the run.
fn report_store(table: &UnifiedTable, live: usize, r: &mut Report) {
    let s = table.stage_stats();
    r.set(
        "store.main_bytes_per_row",
        s.main_bytes as f64 / live.max(1) as f64,
    );
    r.set("store.l2_rows_end", (s.l2_rows + s.l2_frozen_rows) as f64);
    r.set("store.main_parts_end", s.main_parts as f64);
}

/// Merge-daemon, governor and GC counters accumulated over the run.
/// `daemon` is read before the daemon stops (stopping drops its counters).
fn report_background(
    db: &Database,
    table: &UnifiedTable,
    gov0: hana_common::GovernorStats,
    daemon: Option<hana_merge::DaemonStats>,
    r: &mut Report,
) {
    if let Some(d) = daemon {
        r.set("merge.merges_done", d.merges_done as f64);
        r.set("merge.busy_ms", d.merge_time.as_secs_f64() * 1e3);
        r.set("merge.rows_in", d.rows_in as f64);
        r.set("merge.failures", d.failures as f64);
    }
    r.set(
        "merge.max_publication_stall_us",
        table.max_publication_stall_ns() as f64 / 1e3,
    );
    let g = db.governor_stats();
    r.set(
        "governor.scans_queued",
        (g.scans_queued - gov0.scans_queued) as f64,
    );
    r.set(
        "governor.scans_timed_out",
        (g.scans_timed_out - gov0.scans_timed_out) as f64,
    );
    r.set(
        "governor.parallelism_downshifts",
        (g.parallelism_downshifts - gov0.parallelism_downshifts) as f64,
    );
    r.set(
        "governor.merge_deferrals",
        (g.merge_deferrals - gov0.merge_deferrals) as f64,
    );
    if let Some(gc) = db.gc_stats() {
        r.set("gc.cycles", gc.cycles as f64);
        r.set("gc.dead_versions", gc.dead_versions as f64);
        r.set("gc.vis_entries_evicted", gc.vis_entries_evicted as f64);
    }
}

fn point_stats(exec: &UnifiedExec, r: &mut Report) {
    let p = exec.points;
    r.set(
        "core.vis_cache_misses_per_point",
        p.misses as f64 / p.calls.max(1) as f64,
    );
    r.set(
        "core.vis_cache_hit_ratio",
        p.hits as f64 / (p.hits + p.misses).max(1) as f64,
    );
}

// ---------------------------------------------------------------- oltp-point

/// Preloaded orders of the OLTP workloads.
const OLTP_ORDERS: i64 = 100_000;

/// The repository's M1 configuration: a small L1 so the merge daemon
/// keeps it short, and an L2 large enough that no delta-to-main merge
/// runs during a run.
fn oltp_point_config() -> TableConfig {
    TableConfig {
        l1_max_rows: 256,
        l2_max_rows: 1_000_000,
        ..TableConfig::default()
    }
}

fn oltp_point(args: &Args) -> Result<Report> {
    let mut r = Report::new();
    let rows: Vec<Vec<Value>> = preload_rows(args.seed, OLTP_ORDERS).collect();
    let mut setup = Vec::new();
    let mut settle = Vec::new();
    let mut loaded = None;
    while !setup_done(&setup, args.trace) {
        drop(loaded.take());
        let b = batches(&rows);
        let t0 = Instant::now();
        let db = Database::in_memory();
        let table = db.create_table(SalesSchema::fact(), oltp_point_config())?;
        load(&db, &table, b)?;
        let t1 = Instant::now();
        table.force_full_merge()?;
        settle.push(t1.elapsed().as_secs_f64() * 1e3);
        db.start_merge_daemon_pool(Duration::from_millis(1), 1);
        setup.push(t0.elapsed().as_secs_f64());
        loaded = Some((db, table));
    }
    let (db, table) = loaded.expect("at least one set-up");
    r.set("setup_s", median(&setup));
    r.set("merge.settle_ms", median(&settle));
    let gov0 = db.governor_stats();

    let epoch = Instant::now();
    let mut client = OltpClient::new(
        UnifiedExec {
            db: Arc::clone(&db),
            table: Arc::clone(&table),
            points: Default::default(),
        },
        OpGen::new(args.seed, OLTP_ORDERS),
        Shadow::from_rows(&rows),
        Tracer::new(false, epoch, SPAN_CAP),
    );
    // The footprint is taken once the stream reaches a fixed op, so it
    // describes the same table state however fast the engine runs.
    let mut mem = None;
    let mut step = |client: &mut OltpClient| {
        let (op, slot) = client.next();
        let t0 = Instant::now();
        client.run(&op, slot);
        let ns = t0.elapsed().as_nanos() as u64;
        if mem.is_none() && client.attempted >= MEM_AT_OP {
            mem = Some(mem_bytes_per_row(&table, client.shadow.len()));
        }
        (class_of(&op), ns)
    };
    while epoch.elapsed() < WARMUP {
        step(&mut client);
    }
    let mut traced_ns = Vec::new();
    let start = Instant::now();
    for n in 0.. {
        if start.elapsed() >= args.seconds {
            break;
        }
        client.tracer.set_enabled(traced(args, n));
        let (class, ns) = step(&mut client);
        if client.tracer.enabled() {
            traced_ns.push(ns);
        } else {
            client.lat[class].push(ns);
        }
    }
    let mem = mem.unwrap_or_else(|| mem_bytes_per_row(&table, client.shadow.len()));
    let daemon = db.merge_daemon_stats();
    db.stop_merge_daemon();

    let all = client.all_lat();
    r.set("closed_loop_per_s", per_s(&all));
    r.set("latency_p50_us", pct_us(&all, 50.0));
    r.set("mem_bytes_per_row", mem);

    if let Err(w) = client.shadow.verify_scan(&scan_all(&db, &table)?) {
        r.wrong(format!("final table: {w}"));
    }
    if args.trace {
        client.report_classes(true, &mut r);
        report_spans(&client.tracer, &mut r);
        point_stats(&client.exec, &mut r);
        report_store(&table, client.shadow.len(), &mut r);
        report_background(&db, &table, gov0, daemon, &mut r);
        r.set("bench.trace_overhead_pct", overhead_pct(&traced_ns, &all));
        // The row-store reference replays the start of the same stream.
        let replayed = (client.attempted as usize).min(200_000);
        let row = RowExec::load(&rows)?;
        let mut shadow = Shadow::from_rows(&rows);
        let mut gen = OpGen::new(args.seed, OLTP_ORDERS);
        // Timed like the unified client: execute and apply, not generate.
        let mut busy = Duration::ZERO;
        for _ in 0..replayed {
            let (op, slot) = gen.next(&shadow);
            let t0 = Instant::now();
            match row.execute(&op, &shadow) {
                Outcome::Ok => shadow.apply(&op, slot),
                other => r.wrong(format!("row store: {op:?}: {other:?}")),
            }
            busy += t0.elapsed();
        }
        let row_us = busy.as_secs_f64() * 1e6 / replayed.max(1) as f64;
        r.set("rowstore.ptime_op_us", row_us);
        r.set(
            "rowstore.unified_vs_row_ratio",
            mean_ns(&all) / 1e3 / row_us,
        );
        write_trace("oltp-point", &client.tracer);
    }
    client.account(&mut r);
    Ok(r)
}

// ----------------------------------------------------------------- olap-scan

/// Orders merged into main.
const OLAP_MAIN_ROWS: i64 = 900_000;
/// Orders left in the unmerged L2 delta.
const OLAP_L2_ROWS: i64 = 100_000;

/// What happens to one order after the main is built.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Change {
    Keep,
    /// Shipped, with a new amount.
    Update(i64),
    Delete,
}

/// 2% of orders updated and 1% deleted, seeded.
fn olap_changes(seed: u64, n: i64) -> Vec<Change> {
    let mut gen = DataGen::new(seed ^ 0x01A9_5CA1);
    (0..n)
        .map(|_| match gen.rng().gen_range(0..100u32) {
            0 | 1 => Change::Update(gen.amount(10_000)),
            2 => Change::Delete,
            _ => Change::Keep,
        })
        .collect()
}

fn olap_scan(args: &Args) -> Result<Report> {
    let mut r = Report::new();
    let n = OLAP_MAIN_ROWS + OLAP_L2_ROWS;
    let rows: Vec<Vec<Value>> = preload_rows(args.seed, n).collect();
    let changes = olap_changes(args.seed, n);
    let key = ColumnId(fact_cols::ORDER_ID as u16);

    // The oracle: the same logical rows in the row store, queried by its
    // own full scans, before anything is timed.
    let expected: Vec<Vec<Vec<Value>>> = {
        let finals: Vec<Vec<Value>> = rows
            .iter()
            .zip(&changes)
            .filter_map(|(row, c)| match c {
                Change::Keep => Some(row.clone()),
                Change::Update(a) => {
                    let mut row = row.clone();
                    row[fact_cols::AMOUNT] = Value::Int(*a);
                    row[fact_cols::STATUS] = Value::Int(2);
                    Some(row)
                }
                Change::Delete => None,
            })
            .collect();
        let row = RowExec::load(&finals)?;
        let runner = OlapRunner::new(Snapshot::at(row.mgr.now()));
        ALL_QUERIES
            .iter()
            .map(|&q| canonical(&runner.run_row_baseline(&row.table, q)))
            .collect()
    };
    let live = changes.iter().filter(|c| **c != Change::Delete).count();

    let mut setup = Vec::new();
    let mut settle = Vec::new();
    let mut loaded = None;
    while !setup_done(&setup, args.trace) {
        drop(loaded.take());
        let main_batches = batches(&rows[..OLAP_MAIN_ROWS as usize]);
        let l2_batches = batches(&rows[OLAP_MAIN_ROWS as usize..]);
        let t0 = Instant::now();
        let db = Database::in_memory();
        let table = db.create_table(SalesSchema::fact(), TableConfig::default())?;
        load(&db, &table, main_batches)?;
        let t1 = Instant::now();
        table.force_full_merge()?;
        settle.push(t1.elapsed().as_secs_f64() * 1e3);
        load(&db, &table, l2_batches)?;
        let mut txn = db.begin(IsolationLevel::Transaction);
        for (id, c) in changes.iter().enumerate() {
            let k = Value::Int(id as i64);
            match c {
                Change::Keep => {}
                Change::Update(a) => {
                    let set = [
                        (ColumnId(fact_cols::AMOUNT as u16), Value::Int(*a)),
                        (ColumnId(fact_cols::STATUS as u16), Value::Int(2)),
                    ];
                    table.update_where(&txn, key, &k, &set)?;
                }
                Change::Delete => {
                    table.delete_where(&txn, key, &k)?;
                }
            }
        }
        db.commit(&mut txn)?;
        // Updated versions join the unmerged L2 delta.
        table.drain_l1()?;
        setup.push(t0.elapsed().as_secs_f64());
        loaded = Some((db, table));
    }
    let (db, table) = loaded.expect("at least one set-up");
    r.set("setup_s", median(&setup));
    r.set("merge.settle_ms", median(&settle));
    r.set("mem_bytes_per_row", mem_bytes_per_row(&table, live));
    let gov0 = db.governor_stats();

    let epoch = Instant::now();
    let mut client = OlapClient::new(Arc::clone(&table), Tracer::new(false, epoch, SPAN_CAP));
    // The table is static and nothing merges or collects garbage, so an
    // unpinned snapshot stays valid.
    let snap = || Snapshot::at(db.txn_manager().now());
    let check = |client: &mut OlapClient, record: bool| {
        for (q, want) in expected.iter().enumerate() {
            client.query(q, snap(), record, |rs| {
                let got = canonical(rs);
                if same(&got, want) {
                    Ok(())
                } else {
                    Err(format!("Q{}: {got:?}, row store says {want:?}", q + 1))
                }
            });
        }
    };
    while epoch.elapsed() < WARMUP {
        check(&mut client, false);
    }
    let start = Instant::now();
    // Whole Q1–Q5 cycles only, so per-query work counters repeat.
    for n in 0.. {
        if start.elapsed() >= args.seconds {
            break;
        }
        client.tracer.set_enabled(traced(args, n));
        check(&mut client, true);
    }
    r.set("closed_loop_per_s", per_s(&client.lat));
    // Latency is that of one report: a whole Q1–Q5 cycle at one snapshot.
    let cycles: Vec<u64> = client.lat.chunks(5).map(|c| c.iter().sum()).collect();
    r.set("latency_p50_us", pct_us(&cycles, 50.0));
    if args.trace {
        client.report_classes(&mut r);
        client.report_exec(&mut r);
        report_spans(&client.tracer, &mut r);
        report_store(&table, live, &mut r);
        report_background(&db, &table, gov0, None, &mut r);
        r.set(
            "bench.trace_overhead_pct",
            overhead_pct(&client.traced_lat, &client.lat),
        );
        write_trace("olap-scan", &client.tracer);
    }
    client.account(&mut r);
    Ok(r)
}

// -------------------------------------------------------------- htap-durable

/// OLTP requests per second of the open-loop sender: about a third of a
/// single closed-loop client's capacity on the durable table at the
/// parent of the commit that added this benchmark (fixed, so every
/// commit is measured at the same offered load).
const HTAP_RATE: u64 = 1_000;
/// How long past the end of the run the sender may keep draining a
/// backlog before the rest is abandoned.
const BACKLOG_GRACE: Duration = Duration::from_secs(1);
/// Savepoint period of the coordinating thread.
const SAVEPOINT_EVERY: Duration = Duration::from_secs(2);

/// Thresholds small enough that several L1→L2 and delta→main merges
/// complete per run.
fn htap_config() -> TableConfig {
    TableConfig {
        l1_max_rows: 256,
        l2_max_rows: 2_048,
        ..TableConfig::default()
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}

/// Removes the run's database directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn htap_durable(args: &Args) -> Result<Report> {
    let mut r = Report::new();
    let rows: Vec<Vec<Value>> = preload_rows(args.seed, OLTP_ORDERS).collect();
    let scratch = Scratch(crate::out_dir().join(format!("htap-{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&scratch.0);
    let dir = scratch.0.join("db");

    // Set-up builds the database on disk, savepoints it and reopens it
    // from disk, as a restarted server would.
    let mut setup = Vec::new();
    let mut settle = Vec::new();
    let mut loaded = None;
    while !setup_done(&setup, args.trace) {
        drop(loaded.take());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        let b = batches(&rows);
        let t0 = Instant::now();
        {
            let db = Database::open(&dir)?;
            let table = db.create_table(SalesSchema::fact(), htap_config())?;
            load(&db, &table, b)?;
            let t1 = Instant::now();
            table.force_full_merge()?;
            settle.push(t1.elapsed().as_secs_f64() * 1e3);
            db.savepoint()?;
        }
        let db = Database::open(&dir)?;
        let table = db.table("sales")?;
        setup.push(t0.elapsed().as_secs_f64());
        loaded = Some((db, table));
    }
    let (db, table) = loaded.expect("at least one set-up");
    r.set("setup_s", median(&setup));
    r.set("merge.settle_ms", median(&settle));
    let gov0 = db.governor_stats();
    let log0 = db.log_stats().expect("durable database");
    db.enable_gc();
    db.start_merge_daemon_pool(Duration::from_millis(1), 1);

    let epoch = Instant::now();
    let run_len = WARMUP + args.seconds;
    let stop = AtomicBool::new(false);
    let live = AtomicU64::new(rows.len() as u64);
    let mut coord = Tracer::new(args.trace, epoch, SPAN_CAP);
    let mut mem = Vec::new();
    let ((mut oltp, open_loop, overhead), mut olap) = std::thread::scope(|s| {
        // The open-loop OLTP sender.
        let oltp = s.spawn(|| {
            let mut c = OltpClient::new(
                UnifiedExec {
                    db: Arc::clone(&db),
                    table: Arc::clone(&table),
                    points: Default::default(),
                },
                OpGen::new(args.seed, OLTP_ORDERS),
                Shadow::from_rows(&rows),
                Tracer::new(false, epoch, SPAN_CAP),
            );
            let mut ol = OpenLoop::new(HTAP_RATE);
            // Service times (send to finish) of untraced and traced ops.
            let mut service: [Vec<u64>; 2] = Default::default();
            loop {
                let due = Duration::from_nanos(ol.next_due());
                if due >= run_len || epoch.elapsed() >= run_len + BACKLOG_GRACE {
                    break;
                }
                if let Some(wait) = (epoch + due).checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                c.tracer.set_enabled(traced(args, ol.sent));
                let (op, slot) = c.next();
                let sent = epoch.elapsed().as_nanos() as u64;
                c.run(&op, slot);
                let end = epoch.elapsed().as_nanos() as u64;
                let lat = ol.record(due.as_nanos() as u64, sent, end);
                live.store(c.shadow.len() as u64, Ordering::Relaxed);
                if due >= WARMUP {
                    let traced = c.tracer.enabled();
                    service[traced as usize].push(end - sent);
                    if !traced {
                        c.lat[class_of(&op)].push(lat);
                    }
                }
            }
            // Requests still queued when the backlog grace ran out were
            // never served: they count as failed.
            let abandoned = ol.due_before(run_len.as_nanos() as u64) - ol.sent;
            if abandoned > 0 {
                eprintln!("perfbench: {abandoned} OLTP requests abandoned in the backlog");
            }
            c.attempted += abandoned;
            c.failed += abandoned;
            // Tracing overhead compares service times: latency from the
            // due time also holds queueing behind savepoints.
            let overhead = overhead_pct(&service[1], &service[0]);
            (c, ol, overhead)
        });
        // The closed-loop OLAP client.
        let olap = s.spawn(|| {
            let mut c = OlapClient::new(Arc::clone(&table), Tracer::new(false, epoch, SPAN_CAP));
            for n in 0.. {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let since = epoch.elapsed();
                c.tracer.set_enabled(traced(args, n));
                // One snapshot per Q1–Q5 cycle, with the invariant its
                // answers must match. The read-only transaction pins the
                // snapshot against merges and GC while the cycle runs;
                // dropping it ends it without a log record.
                let txn = c
                    .tracer
                    .span("txn.begin", || db.begin(IsolationLevel::Transaction));
                let snap = txn.read_snapshot();
                let (count, sum) = match table.read_at(snap).aggregate_numeric(fact_cols::AMOUNT) {
                    Ok(v) => v,
                    Err(e) => {
                        c.attempted += 1;
                        c.failed += 1;
                        eprintln!("perfbench: invariant scan failed: {e}");
                        continue;
                    }
                };
                for q in 0..5 {
                    c.query(q, snap, since >= WARMUP, |rs| {
                        olap::check_invariant(q, rs, count, sum)
                    });
                }
                drop(txn);
            }
            c
        });
        // The coordinating thread: periodic savepoints and memory
        // samples until the run ends.
        let mut next_savepoint = epoch + SAVEPOINT_EVERY;
        let mut next_sample = epoch + WARMUP;
        while epoch.elapsed() < run_len {
            let now = Instant::now();
            if now >= next_savepoint {
                let sp = coord.request("req.savepoint", |t| {
                    t.span("persist.savepoint", || db.savepoint())
                });
                if let Err(e) = sp {
                    eprintln!("perfbench: savepoint failed: {e}");
                }
                next_savepoint += SAVEPOINT_EVERY;
            } else if now >= next_sample {
                mem.push(mem_bytes_per_row(
                    &table,
                    live.load(Ordering::Relaxed) as usize,
                ));
                next_sample += MEM_SAMPLE;
            } else {
                std::thread::sleep(next_sample.min(next_savepoint) - now);
            }
        }
        stop.store(true, Ordering::Relaxed);
        let oltp = oltp.join().expect("OLTP sender panicked");
        (oltp, olap.join().expect("OLAP client panicked"))
    });

    r.set("latency_p50_us", pct_us(&oltp.all_lat(), 50.0));
    r.set("closed_loop_per_s", per_s(&olap.lat));
    r.set("mem_bytes_per_row", median(&mem));
    let daemon = db.merge_daemon_stats();
    db.stop_merge_daemon();
    let log = db.log_stats().expect("durable database");
    db.savepoint()?;
    let live_rows = oltp.shadow.len();
    if args.trace {
        oltp.report_classes(false, &mut r);
        olap.report_classes(&mut r);
        olap.report_exec(&mut r);
        point_stats(&oltp.exec, &mut r);
        report_store(&table, live_rows, &mut r);
        report_background(&db, &table, gov0, daemon, &mut r);
        let records = log.records - log0.records;
        let fsyncs = log.fsyncs - log0.fsyncs;
        r.set(
            "persist.log_records_per_commit",
            records as f64 / oltp.committed.max(1) as f64,
        );
        r.set(
            "persist.records_per_fsync",
            records as f64 / fsyncs.max(1) as f64,
        );
        r.set("persist.fsyncs", fsyncs as f64);
        r.set(
            "persist.flush_failures",
            (log.flush_failures - log0.flush_failures) as f64,
        );
        r.set(
            "persist.disk_bytes_per_row",
            dir_bytes(&dir) as f64 / live_rows.max(1) as f64,
        );
        r.set("bench.generator_lag_us", open_loop.mean_lateness_us());
        r.set("bench.trace_overhead_pct", overhead);
    }
    oltp.account(&mut r);
    olap.account(&mut r);

    // Close, reopen, and check that every acknowledged write survived.
    let mut tr = std::mem::replace(&mut oltp.tracer, Tracer::off());
    tr.absorb(std::mem::replace(&mut olap.tracer, Tracer::off()));
    tr.absorb(coord);
    let shadow = std::mem::take(&mut oltp.shadow);
    drop((oltp, olap, table, db));
    let t0 = Instant::now();
    let db = Database::open(&dir)?;
    r.set("persist.reopen_s", t0.elapsed().as_secs_f64());
    let table = db.table("sales")?;
    if let Err(w) = shadow.verify_scan(&scan_all(&db, &table)?) {
        r.wrong(format!("after reopen: {w}"));
    }
    if args.trace {
        report_spans(&tr, &mut r);
        write_trace("htap-durable", &tr);
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cheap_set_ups_repeat_more() {
        assert!(!setup_done(&[], true));
        assert!(setup_done(&[5.0], true));
        // Expensive: the minimum of three.
        assert!(!setup_done(&[5.0, 5.0], false));
        assert!(setup_done(&[5.0, 5.0, 5.0], false));
        // Mid: until the budget is spent.
        assert!(!setup_done(&[0.5; 3], false));
        assert!(setup_done(&[0.5; 4], false));
        // Cheap: capped.
        assert!(!setup_done(&[0.01; 8], false));
        assert!(setup_done(&[0.01; 9], false));
    }
}
