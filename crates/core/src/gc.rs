//! Background MVCC garbage collection.
//!
//! Merges reclaim *rows* (superseded versions leave the structures when a
//! merge rebuilds them); this module reclaims everything merges cannot:
//!
//! * **Mark resolution** — begin/end stamps written by finished
//!   transactions are rewritten from `TXN_MARK | id` to their settled
//!   timestamps (commit ts, or `COMMIT_TS_MAX` for an aborted deleter), so
//!   readers stop paying commit-table lookups and — crucially — so the
//!   commit table itself can shrink.
//! * **Transaction-table trimming** — the [`TxnManager`]'s commit table and
//!   aborted set grow with every finished transaction; once no stamp
//!   anywhere references an entry, it is dropped. This is what keeps a
//!   days-long churn run's memory flat.
//! * **Visibility-bitmap cache eviction** — cached `(part, snapshot)`
//!   bitmaps whose snapshot fell below the MVCC low-watermark can never be
//!   used again and are evicted without waiting for cache-pressure
//!   replacement.
//! * **Accounting** — dead row versions (end ≤ watermark, awaiting their
//!   reclaiming merge) and dead dictionary codes in the L2-delta are
//!   counted and surfaced through [`GcStats`], mirroring
//!   [`DaemonStats`](hana_merge::DaemonStats).
//!
//! ## Safety of trimming the commit table
//!
//! Dropping an entry makes its id resolve as *aborted* (unknown ⇒ aborted),
//! so an entry may only be dropped when no stamp still carries its mark.
//! Each table's sweep reports the marks it could **not** rewrite
//! (`referenced`); the trim runs only against the union over *all* catalog
//! tables, with a commit-timestamp cutoff captured before the oldest sweep
//! started (any transaction committing mid-sweep lands above the cutoff, so
//! marks a sweep raced past stay resolvable). On top of that, an entry is
//! dropped only after being an eligible candidate for **two consecutive
//! cycles** — a reader that loaded a mark just before the first cycle's
//! sweep rewrote it has long resolved it by the time the entry actually
//! goes away. Aborted-set entries skip the deferral: an unknown id already
//! resolves as aborted, so dropping one can never change a resolution.
//!
//! ## Scheduling
//!
//! [`TableGc`] implements [`MergeTarget`], so the [`MergeDaemon`] drives it
//! with the same per-target claim/backoff machinery as the merges — one
//! target per table (and per partition shard: shards are first-class
//! catalog tables), so collecting one partition never stalls a sibling.
//! `maybe_merge` always returns `Ok(false)`: GC cycles are invisible to the
//! daemon's merge counters and never arm its failure backoff.
//!
//! [`MergeDaemon`]: hana_merge::MergeDaemon

use crate::table::UnifiedTable;
use hana_common::{Timestamp, TxnId, COMMIT_TS_MAX};
use hana_merge::{MergePass, MergeTarget};
use hana_store::L2Delta;
use hana_txn::{Resolution, TxnManager};
use parking_lot::Mutex;
use rustc_hash::{FxHashMap, FxHashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-main-part sweep memo, keyed by part generation.
struct PartMemo {
    /// `end_version()` when the part was last fully swept.
    end_version: u64,
    /// True if that sweep left no mark in the end stamps; together with an
    /// unchanged `end_version` this lets the whole end sweep be skipped.
    ends_clean: bool,
    /// Transactions of begin-stamp marks (immutable in a built part): must
    /// stay resolvable for the part's whole lifetime.
    begin_refs: Vec<u64>,
}

/// Per-table GC bookkeeping, stored on the [`UnifiedTable`].
#[derive(Default)]
pub struct TableGcState {
    parts: FxHashMap<u64, PartMemo>,
}

/// What one table sweep observed (input to the database-wide trim).
pub struct SweepReport {
    /// MVCC watermark captured *before* the sweep touched any stamp.
    pub watermark_start: Timestamp,
    /// Transaction ids still carried by some mark this sweep could not
    /// rewrite (in-flight writers, lost CAS races, immutable main begins).
    pub referenced: FxHashSet<u64>,
    /// Marks rewritten to settled timestamps.
    pub marks_resolved: u64,
    /// Vis-cache entries evicted below the watermark.
    pub vis_evicted: u64,
    /// Superseded/aborted versions awaiting their reclaiming merge.
    pub dead_versions: u64,
    /// L2 dictionary codes no live row references (reclaimed by the next
    /// delta-to-main merge's filtered dictionary build).
    pub dead_dict_codes: u64,
}

/// Monotonic GC counters (shared by every [`TableGc`] of a database).
#[derive(Default)]
struct GcCounters {
    cycles: AtomicU64,
    marks_resolved: AtomicU64,
    txn_entries_trimmed: AtomicU64,
    vis_entries_evicted: AtomicU64,
    dead_versions: AtomicU64,
    dead_dict_codes: AtomicU64,
    last_watermark: AtomicU64,
}

/// Snapshot of the garbage collector's aggregate statistics, surfaced like
/// [`DaemonStats`](hana_merge::DaemonStats).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcStats {
    /// Completed table sweeps.
    pub cycles: u64,
    /// Begin/end stamps rewritten from marks to settled timestamps.
    pub marks_resolved: u64,
    /// Commit-table + aborted-set entries dropped.
    pub txn_entries_trimmed: u64,
    /// Visibility-bitmap cache entries evicted below the watermark.
    pub vis_entries_evicted: u64,
    /// Latest observed count of dead versions awaiting merge reclaim.
    pub dead_versions: u64,
    /// Latest observed count of dead L2 dictionary codes.
    pub dead_dict_codes: u64,
    /// Watermark of the most recent sweep.
    pub last_watermark: u64,
}

struct GcSharedInner {
    /// Latest sweep per table id (trim requires one from every table).
    reports: FxHashMap<u32, (Timestamp, FxHashSet<u64>)>,
    /// Tables that must report before a trim may run.
    registered: FxHashSet<u32>,
    /// Commit-table candidates from the previous trim (two-cycle deferral).
    candidates: FxHashSet<u64>,
}

/// Database-wide GC state: counters plus the cross-table trim aggregator.
pub struct GcShared {
    counters: GcCounters,
    inner: Mutex<GcSharedInner>,
}

impl GcShared {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(GcShared {
            counters: GcCounters::default(),
            inner: Mutex::new(GcSharedInner {
                reports: FxHashMap::default(),
                registered: FxHashSet::default(),
                candidates: FxHashSet::default(),
            }),
        })
    }

    pub(crate) fn register_table(&self, id: u32) {
        self.inner.lock().registered.insert(id);
    }

    /// Current aggregate statistics.
    pub fn stats(&self) -> GcStats {
        GcStats {
            cycles: self.counters.cycles.load(Ordering::Relaxed),
            marks_resolved: self.counters.marks_resolved.load(Ordering::Relaxed),
            txn_entries_trimmed: self.counters.txn_entries_trimmed.load(Ordering::Relaxed),
            vis_entries_evicted: self.counters.vis_entries_evicted.load(Ordering::Relaxed),
            dead_versions: self.counters.dead_versions.load(Ordering::Relaxed),
            dead_dict_codes: self.counters.dead_dict_codes.load(Ordering::Relaxed),
            last_watermark: self.counters.last_watermark.load(Ordering::Relaxed),
        }
    }

    /// Deposit one table's sweep and, when every registered table has
    /// reported, run the transaction-table trim.
    fn absorb(&self, mgr: &TxnManager, table: u32, report: SweepReport) {
        self.counters.cycles.fetch_add(1, Ordering::Relaxed);
        self.counters
            .marks_resolved
            .fetch_add(report.marks_resolved, Ordering::Relaxed);
        self.counters
            .vis_entries_evicted
            .fetch_add(report.vis_evicted, Ordering::Relaxed);
        self.counters
            .dead_versions
            .store(report.dead_versions, Ordering::Relaxed);
        self.counters
            .dead_dict_codes
            .store(report.dead_dict_codes, Ordering::Relaxed);
        self.counters
            .last_watermark
            .store(report.watermark_start, Ordering::Relaxed);

        let mut inner = self.inner.lock();
        inner
            .reports
            .insert(table, (report.watermark_start, report.referenced));
        if !inner
            .registered
            .iter()
            .all(|id| inner.reports.contains_key(id))
        {
            return;
        }
        let mut referenced: FxHashSet<u64> = FxHashSet::default();
        let mut committed_before = Timestamp::MAX;
        for id in &inner.registered {
            let (wm, refs) = &inner.reports[id];
            committed_before = committed_before.min(*wm);
            referenced.extend(refs.iter().copied());
        }
        let approved = std::mem::take(&mut inner.candidates);
        let (removed, candidates) = mgr.trim_finished(&referenced, committed_before, &approved);
        inner.candidates = candidates;
        self.counters
            .txn_entries_trimmed
            .fetch_add(removed as u64, Ordering::Relaxed);
    }
}

/// Outcome of resolving one stamp against the transaction manager.
enum MarkFate {
    /// Not a mark, or settled already.
    Settled,
    /// Rewrite to this timestamp (commit ts, or `COMMIT_TS_MAX` for an
    /// aborted end stamp).
    Rewrite(Timestamp),
    /// Leave in place: `keep_ref` says whether the trim must preserve the
    /// transaction's entry (committed marks yes; active/aborted no — an
    /// active txn is not in the commit table, and unknown ids already
    /// resolve as aborted).
    Keep { txn: u64, keep_ref: bool },
}

fn end_fate(mgr: &TxnManager, ts: Timestamp) -> MarkFate {
    match TxnId::from_mark(ts) {
        None => MarkFate::Settled,
        Some(writer) => match mgr.resolve_mark(writer) {
            Resolution::Committed(cts) => MarkFate::Rewrite(cts),
            Resolution::Aborted => MarkFate::Rewrite(COMMIT_TS_MAX),
            Resolution::Uncommitted(_) => MarkFate::Keep {
                txn: writer.0,
                keep_ref: false,
            },
        },
    }
}

fn begin_fate(mgr: &TxnManager, ts: Timestamp) -> MarkFate {
    match TxnId::from_mark(ts) {
        None => MarkFate::Settled,
        Some(writer) => match mgr.resolve_mark(writer) {
            Resolution::Committed(cts) => MarkFate::Rewrite(cts),
            // An aborted begin stays a mark (the row is garbage a merge
            // will drop); unknown ids resolve as aborted, so the entry
            // needs no protection.
            Resolution::Aborted | Resolution::Uncommitted(_) => MarkFate::Keep {
                txn: match mgr.resolve_mark(writer) {
                    Resolution::Uncommitted(t) => t.0,
                    _ => writer.0,
                },
                keep_ref: false,
            },
        },
    }
}

impl UnifiedTable {
    /// One GC sweep over every stage of this table. Resolves marks, evicts
    /// stale visibility-cache entries, and reports what the database-wide
    /// transaction-table trim needs. Safe to run concurrently with writers
    /// and merges: every rewrite is a compare-exchange that loses to any
    /// racing real store.
    pub fn gc_sweep(&self) -> SweepReport {
        let watermark_start = self.mgr.watermark();
        let mut rep = SweepReport {
            watermark_start,
            referenced: FxHashSet::default(),
            marks_resolved: 0,
            vis_evicted: 0,
            dead_versions: 0,
            dead_dict_codes: 0,
        };

        // L1 slots.
        let snap = self.l1.snapshot();
        for (_, slot) in snap.iter() {
            let begin = slot.begin();
            match begin_fate(&self.mgr, begin) {
                MarkFate::Rewrite(cts) => {
                    if slot.resolve_begin(begin, cts) {
                        rep.marks_resolved += 1;
                    }
                }
                MarkFate::Settled | MarkFate::Keep { .. } => {}
            }
            let end = slot.end();
            match end_fate(&self.mgr, end) {
                MarkFate::Rewrite(settled) => {
                    if slot.resolve_end(end, settled) {
                        rep.marks_resolved += 1;
                        if settled <= watermark_start {
                            rep.dead_versions += 1;
                        }
                    }
                }
                MarkFate::Settled => {
                    if end <= watermark_start {
                        rep.dead_versions += 1;
                    }
                }
                MarkFate::Keep { .. } => {}
            }
        }

        // L2 deltas (open and frozen) and the main chain, captured under a
        // brief shared state hold; the sweep itself runs lock-free against
        // the shared structures.
        let (l2, frozen, main) = {
            let state = self.state.read();
            (
                Arc::clone(&state.l2),
                state.l2_frozen.clone(),
                Arc::clone(&state.main),
            )
        };
        self.sweep_l2(&l2, watermark_start, &mut rep);
        if let Some(f) = &frozen {
            self.sweep_l2(f, watermark_start, &mut rep);
        }

        let mut gc_state = self.gc_state.lock();
        let live_gens: FxHashSet<u64> = main.parts().iter().map(|p| p.generation()).collect();
        gc_state.parts.retain(|gen, _| live_gens.contains(gen));
        for part in main.parts() {
            rep.vis_evicted += part.evict_visibility_below(watermark_start) as u64;
            let gen = part.generation();
            let end_version = part.end_version();

            // Begin stamps of a built part are immutable; marks there (from
            // recovery images taken mid-transaction) pin their txn entries
            // for the part's lifetime. Computed once per generation.
            if part.begins_marked() && !gc_state.parts.contains_key(&gen) {
                let mut begin_refs = Vec::new();
                for pos in 0..part.len() as u32 {
                    if let Some(writer) = TxnId::from_mark(part.begin(pos)) {
                        begin_refs.push(writer.0);
                    }
                }
                gc_state.parts.insert(
                    gen,
                    PartMemo {
                        end_version: u64::MAX, // force the first end sweep
                        ends_clean: false,
                        begin_refs,
                    },
                );
            }
            if let Some(memo) = gc_state.parts.get(&gen) {
                rep.referenced.extend(memo.begin_refs.iter().copied());
                if memo.ends_clean && memo.end_version == end_version {
                    continue; // nothing can have changed since the last sweep
                }
            }

            let mut ends_clean = true;
            for pos in 0..part.len() as u32 {
                let end = part.end(pos);
                match end_fate(&self.mgr, end) {
                    MarkFate::Rewrite(settled) => {
                        if part.resolve_end(pos, end, settled) {
                            rep.marks_resolved += 1;
                        } else {
                            // Lost to a racing deleter; revisit next cycle.
                            ends_clean = false;
                        }
                    }
                    MarkFate::Settled => {}
                    MarkFate::Keep { txn, keep_ref } => {
                        ends_clean = false;
                        if keep_ref {
                            rep.referenced.insert(txn);
                        }
                    }
                }
            }
            let begin_refs = gc_state
                .parts
                .remove(&gen)
                .map(|m| m.begin_refs)
                .unwrap_or_default();
            gc_state.parts.insert(
                gen,
                PartMemo {
                    // Version *after* our rewrites: resolve_end never bumps
                    // it, so an unchanged value next cycle means no real
                    // deleter wrote in between.
                    end_version: part.end_version(),
                    ends_clean,
                    begin_refs,
                },
            );
        }
        rep
    }

    /// Sweep one L2-delta's published rows: resolve begin/end marks, count
    /// dead versions and dead dictionary codes.
    fn sweep_l2(&self, l2: &L2Delta, watermark: Timestamp, rep: &mut SweepReport) {
        let fence = l2.published_len();
        let arity = self.schema.arity();
        let mut live = vec![false; fence as usize];
        for pos in 0..fence {
            let begin = l2.begin(pos);
            let mut begin_live = true;
            match begin_fate(&self.mgr, begin) {
                MarkFate::Rewrite(cts) => {
                    if l2.resolve_begin(pos, begin, cts) {
                        rep.marks_resolved += 1;
                    }
                }
                MarkFate::Settled => {}
                MarkFate::Keep { .. } => {
                    // Aborted insert: the row is garbage. (An uncommitted
                    // insert is conservatively treated as live.)
                    if matches!(
                        self.mgr.resolve_mark(TxnId::from_mark(begin).unwrap()),
                        Resolution::Aborted
                    ) {
                        begin_live = false;
                        rep.dead_versions += 1;
                    }
                }
            }
            let end = l2.end(pos);
            let settled_end = match end_fate(&self.mgr, end) {
                MarkFate::Rewrite(settled) => {
                    if l2.resolve_end(pos, end, settled) {
                        rep.marks_resolved += 1;
                    }
                    settled
                }
                MarkFate::Settled => end,
                MarkFate::Keep { .. } => COMMIT_TS_MAX,
            };
            let dead = settled_end <= watermark;
            if dead && begin_live {
                rep.dead_versions += 1;
            }
            live[pos as usize] = begin_live && !dead;
        }
        // Dictionary codes no live row references: left behind by updates/
        // deletes, reclaimed when the next delta merge filters the dict.
        for col in 0..arity {
            rep.dead_dict_codes += l2.with_column(col, fence, |dict, codes| {
                let mut used = vec![false; dict.len()];
                for (pos, &code) in codes.iter().enumerate() {
                    if live[pos] && code != hana_store::L2_NULL_CODE {
                        used[code as usize] = true;
                    }
                }
                used.iter().filter(|u| !**u).count() as u64
            });
        }
    }
}

/// One table's (or partition shard's) GC driver: a [`MergeTarget`] the
/// merge daemon schedules alongside the merges with the same per-target
/// claim/backoff isolation.
pub struct TableGc {
    table: Arc<UnifiedTable>,
    shared: Arc<GcShared>,
    /// Minimum gap between sweeps of this table (the daemon may tick far
    /// faster than a sweep is worth).
    min_gap: Duration,
    last_run: Mutex<Option<Instant>>,
}

impl TableGc {
    /// Wrap `table` for registration with the merge daemon.
    pub fn new(table: Arc<UnifiedTable>, shared: Arc<GcShared>) -> Arc<Self> {
        Self::with_min_gap(table, shared, Duration::from_millis(25))
    }

    /// [`TableGc::new`] with an explicit sweep throttle (tests).
    pub fn with_min_gap(
        table: Arc<UnifiedTable>,
        shared: Arc<GcShared>,
        min_gap: Duration,
    ) -> Arc<Self> {
        shared.register_table(table.id().0);
        Arc::new(TableGc {
            table,
            shared,
            min_gap,
            last_run: Mutex::new(None),
        })
    }
}

impl MergeTarget for TableGc {
    fn maybe_merge(&self) -> hana_common::Result<MergePass> {
        {
            let mut last = self.last_run.lock();
            if let Some(t) = *last {
                if t.elapsed() < self.min_gap {
                    return Ok(MergePass::default());
                }
            }
            *last = Some(Instant::now());
        }
        let report = self.table.gc_sweep();
        self.shared
            .absorb(self.table.txn_manager(), self.table.id().0, report);
        // Never count as a merge, never arm the daemon's failure backoff.
        Ok(MergePass::default())
    }
}
