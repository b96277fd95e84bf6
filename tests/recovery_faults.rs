//! Durability and failure injection: savepoints, torn logs, corrupt pages,
//! crash-points around the savepoint protocol.

use hana_common::{
    ColumnDef, ColumnId, CommitConfig, DataType, GovernorConfig, HanaError, Schema, TableConfig,
    Value,
};
use hana_core::Database;
use hana_persist::{Encoder, FaultErrorKind, FaultPolicy, IoOp, DEFAULT_PAGE_SIZE};
use hana_txn::IsolationLevel;
use std::io::{Seek, SeekFrom, Write};
use std::sync::Arc;

fn schema() -> Schema {
    Schema::new(
        "t",
        vec![
            ColumnDef::new("id", DataType::Int).unique(),
            ColumnDef::new("v", DataType::Str),
        ],
    )
    .unwrap()
}

fn insert(
    db: &std::sync::Arc<Database>,
    t: &std::sync::Arc<hana_core::UnifiedTable>,
    lo: i64,
    hi: i64,
) {
    let mut txn = db.begin(IsolationLevel::Transaction);
    for i in lo..hi {
        t.insert(&txn, vec![Value::Int(i), Value::str(format!("v{i}"))])
            .unwrap();
    }
    db.commit(&mut txn).unwrap();
}

fn count(db: &std::sync::Arc<Database>) -> usize {
    let t = db.table("t").unwrap();
    let r = db.begin(IsolationLevel::Transaction);
    t.read(&r).count()
}

#[test]
fn repeated_restart_cycles_preserve_data() {
    let dir = tempfile::tempdir().unwrap();
    for cycle in 0..4 {
        let db = Database::open(dir.path()).unwrap();
        let t = if cycle == 0 {
            db.create_table(schema(), TableConfig::small()).unwrap()
        } else {
            db.table("t").unwrap()
        };
        assert_eq!(count(&db), cycle * 50, "cycle {cycle}");
        insert(&db, &t, (cycle * 50) as i64, (cycle * 50 + 50) as i64);
        if cycle % 2 == 0 {
            // Alternate: sometimes a savepoint, sometimes log-only.
            t.force_full_merge().unwrap();
            db.savepoint().unwrap();
        }
    }
    let db = Database::open(dir.path()).unwrap();
    assert_eq!(count(&db), 200);
}

#[test]
fn torn_log_tail_loses_only_the_torn_suffix() {
    let dir = tempfile::tempdir().unwrap();
    {
        let db = Database::open(dir.path()).unwrap();
        let t = db.create_table(schema(), TableConfig::small()).unwrap();
        insert(&db, &t, 0, 30);
    }
    // Append garbage (half-written record) to the log.
    {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.path().join("redo.log"))
            .unwrap();
        f.write_all(&[0x77, 0x03, 0, 0, 1, 2, 3]).unwrap();
    }
    let db = Database::open(dir.path()).unwrap();
    assert_eq!(count(&db), 30);
    // The database stays writable after recovering a torn log.
    let t = db.table("t").unwrap();
    insert(&db, &t, 30, 35);
    assert_eq!(count(&db), 35);
}

#[test]
fn uncommitted_work_disappears_committed_work_stays() {
    let dir = tempfile::tempdir().unwrap();
    {
        let db = Database::open(dir.path()).unwrap();
        let t = db.create_table(schema(), TableConfig::small()).unwrap();
        insert(&db, &t, 0, 10);
        // Committed delete + uncommitted everything-else, then "crash".
        let mut del = db.begin(IsolationLevel::Transaction);
        t.delete_where(&del, ColumnId(0), &Value::Int(3)).unwrap();
        db.commit(&mut del).unwrap();
        let zombie = db.begin(IsolationLevel::Transaction);
        t.insert(&zombie, vec![Value::Int(100), Value::str("zombie")])
            .unwrap();
        t.delete_where(&zombie, ColumnId(0), &Value::Int(5))
            .unwrap();
        std::mem::forget(zombie);
    }
    let db = Database::open(dir.path()).unwrap();
    let t = db.table("t").unwrap();
    let r = db.begin(IsolationLevel::Transaction);
    let read = t.read(&r);
    assert_eq!(read.count(), 9); // 10 - deleted row 3
    assert!(read.point(0, &Value::Int(3)).unwrap().is_empty());
    assert_eq!(read.point(0, &Value::Int(5)).unwrap().len(), 1); // zombie delete undone
    assert!(read.point(0, &Value::Int(100)).unwrap().is_empty()); // zombie insert gone
}

#[test]
fn savepoint_image_covers_merged_structures() {
    let dir = tempfile::tempdir().unwrap();
    {
        let db = Database::open(dir.path()).unwrap();
        let t = db.create_table(schema(), TableConfig::small()).unwrap();
        insert(&db, &t, 0, 100);
        t.force_full_merge().unwrap();
        insert(&db, &t, 100, 130); // L1 tail
        t.drain_l1().unwrap(); // … moved to L2
        insert(&db, &t, 130, 140); // fresh L1 rows
        db.savepoint().unwrap();
        // Log is truncated: recovery must come purely from the image.
    }
    let db = Database::open(dir.path()).unwrap();
    let t = db.table("t").unwrap();
    assert_eq!(count(&db), 140);
    // The main structure came back as a main structure.
    assert_eq!(t.stage_stats().main_rows, 100);
    assert_eq!(t.stage_stats().l2_rows, 30);
    assert_eq!(t.stage_stats().l1_rows, 10);
}

#[test]
fn commit_between_savepoint_and_crash_replays() {
    let dir = tempfile::tempdir().unwrap();
    {
        let db = Database::open(dir.path()).unwrap();
        let t = db.create_table(schema(), TableConfig::small()).unwrap();
        // Transaction opens BEFORE the savepoint, commits after it: its
        // insert is only in the savepoint image (as a mark), its commit
        // record only in the post-savepoint log.
        let straddler = db.begin(IsolationLevel::Transaction);
        t.insert(&straddler, vec![Value::Int(1), Value::str("straddle")])
            .unwrap();
        db.savepoint().unwrap();
        let mut straddler = straddler;
        db.commit(&mut straddler).unwrap();
    }
    let db = Database::open(dir.path()).unwrap();
    assert_eq!(count(&db), 1);
}

#[test]
fn corrupt_page_store_superblock_falls_back_or_fails_loud() {
    let dir = tempfile::tempdir().unwrap();
    {
        let db = Database::open(dir.path()).unwrap();
        let t = db.create_table(schema(), TableConfig::small()).unwrap();
        insert(&db, &t, 0, 20);
        db.savepoint().unwrap();
        insert(&db, &t, 20, 25);
        db.savepoint().unwrap();
    }
    // Corrupt the newest superblock slot; recovery falls back to the older
    // savepoint, and the (truncated) log holds nothing — so the fallback
    // may lose the tail but must not lose savepoint-1 data or crash.
    let pages = dir.path().join("data.pages");
    let mut raw = std::fs::read(&pages).unwrap();
    // Savepoint 2 lives in slot 0 (version % 2).
    for b in raw.iter_mut().take(32) {
        *b ^= 0xFF;
    }
    std::fs::write(&pages, &raw).unwrap();
    let db = Database::open(dir.path()).unwrap();
    let n = count(&db);
    assert!(
        n == 20 || n == 25,
        "fell back to a consistent state, got {n}"
    );
}

/// Degraded-mode operation end to end: a persistently failing device flips
/// the database read-only after the consecutive-failure threshold; reads
/// keep working, writes and savepoints are rejected with a clear error;
/// clearing the degradation restores full service and nothing was lost.
#[test]
fn persistent_device_failure_degrades_to_read_only_and_recovers() {
    let dir = tempfile::tempdir().unwrap();
    let db = Database::open(dir.path()).unwrap();
    let t = db.create_table(schema(), TableConfig::small()).unwrap();
    insert(&db, &t, 0, 10);

    // Savepoints now hit a dead device: every page write fails.
    let injector = Arc::clone(db.injector().unwrap());
    injector.arm(FaultPolicy::fail_nth(IoOp::PageWrite, 0, FaultErrorKind::Eio).persistent());
    let threshold = db.health_stats().unwrap().degraded_threshold;
    for i in 0..threshold {
        assert!(db.savepoint().is_err(), "attempt {i} must fail");
    }

    let health = db.health_stats().unwrap();
    assert!(health.read_only, "threshold reached: {health:?}");
    assert_eq!(health.savepoint_failures, threshold);
    assert!(health.last_error.as_deref().unwrap().contains("EIO"));

    // Writes are rejected up front (even though inserts only touch the
    // log, which still works — a database that cannot savepoint must not
    // keep promising durability)…
    let txn = db.begin(IsolationLevel::Transaction);
    let err = t
        .insert(&txn, vec![Value::Int(100), Value::str("x")])
        .unwrap_err();
    assert!(err.to_string().contains("read-only"), "{err}");
    assert!(db.savepoint().is_err());
    // …while reads keep serving.
    assert_eq!(count(&db), 10);

    // Operator replaces the device and clears the degradation.
    injector.disarm();
    db.clear_degraded();
    assert!(!db.health_stats().unwrap().read_only);
    insert(&db, &t, 10, 15);
    db.savepoint().unwrap();
    drop(db);

    let db = Database::open(dir.path()).unwrap();
    assert_eq!(count(&db), 15, "no committed data lost across degradation");
}

#[test]
fn historic_table_archive_survives_restart() {
    let dir = tempfile::tempdir().unwrap();
    {
        let db = Database::open(dir.path()).unwrap();
        let t = db
            .create_table(schema(), TableConfig::small().with_history())
            .unwrap();
        insert(&db, &t, 0, 5);
        let mut upd = db.begin(IsolationLevel::Transaction);
        t.update_where(
            &upd,
            ColumnId(0),
            &Value::Int(2),
            &[(ColumnId(1), Value::str("new"))],
        )
        .unwrap();
        db.commit(&mut upd).unwrap();
        t.force_full_merge().unwrap(); // archives the superseded version
        assert_eq!(t.history().unwrap().len(), 1);
        db.savepoint().unwrap();
    }
    let db = Database::open(dir.path()).unwrap();
    let t = db.table("t").unwrap();
    let h = t.history().expect("historic flag survives restart");
    assert_eq!(h.len(), 1);
    assert_eq!(h.all_versions()[0].values[1], Value::str("v2"));
}

/// Satellite of the integrity work: a *clean torn tail* (incomplete final
/// record — a crash) and *mid-log rot* (complete record, wrong checksum —
/// a device problem) are different conditions with different handling.
/// The tear truncates silently and the database opens writable; the rot
/// refuses to open, naming the corruption.
#[test]
fn torn_tail_truncates_but_log_rot_fails_closed() {
    let build = || {
        let dir = tempfile::tempdir().unwrap();
        {
            let db = Database::open(dir.path()).unwrap();
            let t = db.create_table(schema(), TableConfig::small()).unwrap();
            insert(&db, &t, 0, 20);
        }
        dir
    };

    // Tear: an incomplete record appended at the tail.
    let torn = build();
    {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(torn.path().join("redo.log"))
            .unwrap();
        f.write_all(&[0x55, 0x02, 0, 0, 9, 9]).unwrap();
    }
    let db = Database::open(torn.path()).unwrap();
    assert_eq!(count(&db), 20, "tear truncates, committed data stays");
    let stats = db.integrity_stats().unwrap();
    assert_eq!(
        stats.log_corruptions, 0,
        "a tear is not corruption: {stats:?}"
    );
    assert!(stats.log_records_verified > 0, "{stats:?}");
    drop(db);

    // Rot: one flipped bit inside a complete, already-durable record.
    let rotted = build();
    {
        let path = rotted.path().join("redo.log");
        let mut raw = std::fs::read(&path).unwrap();
        let mid = 16 + (raw.len() - 16) / 2;
        raw[mid] ^= 0x04;
        std::fs::write(&path, &raw).unwrap();
    }
    match Database::open(rotted.path()) {
        Ok(_) => panic!("mid-log rot must fail closed"),
        Err(hana_common::HanaError::Corruption(m)) => {
            assert!(
                m.contains("checksum") || m.contains("corrupt"),
                "error must name the cause: {m}"
            );
        }
        Err(e) => panic!("expected HanaError::Corruption, got {e}"),
    }
}

/// Corruption detections count toward degraded mode exactly like I/O
/// errors: a background scrub over a store whose reads flip bits scores
/// enough failures to flip the database read-only; the operator clears it
/// after replacing the device and no committed data is lost.
#[test]
fn scrub_detected_corruption_degrades_to_read_only() {
    let dir = tempfile::tempdir().unwrap();
    let db = Database::open(dir.path()).unwrap();
    let t = db.create_table(schema(), TableConfig::small()).unwrap();
    insert(&db, &t, 0, 30);
    db.savepoint().unwrap();

    // Every page read now silently returns damaged bytes.
    let injector = std::sync::Arc::clone(db.injector().unwrap());
    injector.arm(FaultPolicy::flip_bit(IoOp::PageRead, 0, 21).persistent());

    // Drive the scrub directly (the daemon path is covered by the churn
    // soak): one generous batch walks both superblocks and every live
    // page, each detection scoring the health tracker.
    let p = std::sync::Arc::clone(db.persistence().unwrap());
    let tick = p.scrub_tick(1_024);
    assert!(tick.corrupt >= 3, "scrub missed the rot: {tick:?}");

    let health = db.health_stats().unwrap();
    assert!(health.read_only, "corruption must degrade: {health:?}");
    assert!(health.corruptions >= 3, "{health:?}");
    assert!(health.scrub_failures >= 3, "{health:?}");
    let stats = db.integrity_stats().unwrap();
    assert!(stats.scrub_corruptions >= 3, "{stats:?}");
    assert!(stats.pages_quarantined >= 3, "{stats:?}");

    // Degraded = writes rejected (at REDO entry or commit), reads still
    // served from memory.
    let mut txn = db.begin(IsolationLevel::Transaction);
    let rejected = t
        .insert(&txn, vec![Value::Int(100), Value::str("x")])
        .and_then(|_| db.commit(&mut txn));
    assert!(rejected.is_err(), "degraded mode must reject writes");
    let _ = db.abort(&mut txn);
    assert_eq!(count(&db), 30);

    // Operator swaps the device; fresh savepoints rewrite pages, and every
    // rewrite lifts that page's quarantine. Dead quarantined pages are
    // harmless (nothing reads them) and clear when the allocator reuses
    // them, so the contract is "shrinks", not "empties instantly".
    let quarantined_before = db.integrity_stats().unwrap().pages_quarantined;
    injector.disarm();
    db.clear_degraded();
    insert(&db, &t, 30, 35);
    db.savepoint().unwrap();
    db.savepoint().unwrap(); // second savepoint rewrites the other slot
    let quarantined_after = db.integrity_stats().unwrap().pages_quarantined;
    assert!(
        quarantined_after < quarantined_before,
        "rewrites must lift quarantine: {quarantined_before} -> {quarantined_after}"
    );
    drop(db);
    let db = Database::open(dir.path()).unwrap();
    assert_eq!(count(&db), 35, "no committed data lost across the episode");
}

/// A lost write leaves a live image page all zeros. That is corruption
/// wherever it is read: one scrub pass reports and quarantines it, and a
/// reopen that depends on it fails closed. The superblock slot no savepoint
/// has written is all zeros too, but it is *absent*: a healthy database
/// scrubs clean.
#[test]
fn scrub_flags_zeroed_live_page_and_blank_slot_stays_absent() {
    let dir = tempfile::tempdir().unwrap();
    {
        let db = Database::open(dir.path()).unwrap();
        let t = db.create_table(schema(), TableConfig::small()).unwrap();
        insert(&db, &t, 0, 30);
        // Version 1 lands in slot 1; slot 0 is never written.
        assert_eq!(db.savepoint().unwrap(), 1);
    }
    let db = Database::open(dir.path()).unwrap();
    assert_eq!(count(&db), 30);
    let p = Arc::clone(db.persistence().unwrap());
    for _ in 0..2 {
        let tick = p.scrub_tick(1_024);
        assert!(tick.completed_pass, "{tick:?}");
        assert_eq!(tick.corrupt, 0, "{tick:?}");
    }
    let stats = db.integrity_stats().unwrap();
    assert_eq!(stats.pages_corrupt, 0, "{stats:?}");
    assert_eq!(stats.pages_quarantined, 0, "{stats:?}");
    assert_eq!(stats.manifests_corrupt, 0, "{stats:?}");

    let victim = p.live_page_ids()[0];
    {
        let mut f = std::fs::OpenOptions::new()
            .write(true)
            .open(dir.path().join("data.pages"))
            .unwrap();
        f.seek(SeekFrom::Start(victim * DEFAULT_PAGE_SIZE as u64))
            .unwrap();
        f.write_all(&vec![0u8; DEFAULT_PAGE_SIZE]).unwrap();
        f.sync_all().unwrap();
    }
    let tick = p.scrub_tick(1_024);
    assert!(tick.completed_pass, "{tick:?}");
    assert!(
        tick.corrupt >= 1,
        "zeroed live page went unnoticed: {tick:?}"
    );
    assert!(p.integrity().is_quarantined(victim));
    drop(p);
    drop(db);
    match Database::open(dir.path()) {
        Ok(_) => panic!("the only savepoint references a zeroed page"),
        Err(HanaError::Corruption(_)) => {}
        Err(e) => panic!("expected HanaError::Corruption, got {e}"),
    }
}

/// CRC-32 (IEEE), the checksum the pre-envelope format framed with.
fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                0xEDB8_8320 ^ (crc >> 1)
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

/// One page in the pre-envelope format: `[len u32][crc32 u32][payload]`.
fn pre_envelope_page(payload: &[u8]) -> Vec<u8> {
    let mut buf = vec![0u8; DEFAULT_PAGE_SIZE];
    buf[0..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    buf[4..8].copy_from_slice(&crc32(payload).to_le_bytes());
    buf[8..8 + payload.len()].copy_from_slice(payload);
    buf
}

/// Write a database directory in the format used before the integrity
/// envelope: savepoint version 1 (manifest in `[crc32][bytes]` framing
/// inside slot 1, an explicit page list, a raw image blob) and an empty
/// `HANALOG1` log at epoch 1.
fn build_pre_envelope_dir(dir: &std::path::Path) {
    let src = Database::in_memory();
    let t = src.create_table(schema(), TableConfig::small()).unwrap();
    insert(&src, &t, 0, 10);
    let mut e = Encoder::new();
    t.to_image().encode(&mut e);
    let blob = e.into_bytes();
    let chunks: Vec<&[u8]> = blob.chunks(DEFAULT_PAGE_SIZE - 8).collect();

    let mut m = Encoder::new();
    m.u64(1); // version
    m.u64(1_000); // clock
    let cc = CommitConfig::default();
    m.bool(cc.group_commit);
    m.u64(cc.max_batch as u64);
    m.u64(cc.max_wait_us);
    let gc = GovernorConfig::default();
    m.bool(gc.enabled);
    m.u64(gc.max_concurrent_scans as u64);
    m.u64(gc.scan_queue_timeout_ms);
    m.u64(gc.oltp_p99_budget_us);
    m.u64(gc.min_scan_parallelism as u64);
    m.u32(1); // one virtual file
    m.u64(blob.len() as u64);
    m.u32(chunks.len() as u32);
    for i in 0..chunks.len() {
        m.u64(2 + i as u64);
    }
    let manifest = m.into_bytes();
    let mut framed = Encoder::new();
    framed.u32(crc32(&manifest));
    framed.bytes(&manifest);

    let mut pages = vec![0u8; DEFAULT_PAGE_SIZE]; // slot 0: never written
    pages.extend_from_slice(&pre_envelope_page(&framed.into_bytes()));
    for c in &chunks {
        pages.extend_from_slice(&pre_envelope_page(c));
    }
    std::fs::write(dir.join("data.pages"), &pages).unwrap();
    let mut log = b"HANALOG1".to_vec();
    log.extend_from_slice(&1u64.to_le_bytes());
    std::fs::write(dir.join("redo.log"), &log).unwrap();
}

/// There is one on-disk format. A directory in the format used before the
/// integrity envelope must fail closed with `HanaError::Corruption` — never
/// open as an empty database — whichever of its artifacts is read first.
#[test]
fn pre_envelope_directory_fails_closed() {
    let expect_corruption = |dir: &std::path::Path, cause: &str| match Database::open(dir) {
        Ok(db) => panic!(
            "opened with {} tables instead of failing closed on {cause}",
            db.tables().len()
        ),
        Err(HanaError::Corruption(m)) => assert!(m.contains(cause), "{m}"),
        Err(e) => panic!("expected HanaError::Corruption, got {e}"),
    };
    let dir = tempfile::tempdir().unwrap();
    build_pre_envelope_dir(dir.path());
    expect_corruption(dir.path(), "bad magic");
    // With a current-format log at the same epoch, the superblock itself
    // must refuse: its slot is not an envelope, so no savepoint survives.
    let mut log = b"HANALOG2".to_vec();
    log.extend_from_slice(&1u64.to_le_bytes());
    std::fs::write(dir.path().join("redo.log"), &log).unwrap();
    expect_corruption(dir.path(), "no recoverable savepoint manifest");
}
