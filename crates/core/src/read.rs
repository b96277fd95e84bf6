//! Statement-scoped read views.
//!
//! A [`TableRead`] pins everything one statement may see: the MVCC snapshot,
//! an L1 segment view, the L2 structures with their row-count fences, and
//! the main chain `Arc`. Merges swap structures for *new* views; an existing
//! view keeps reading its pinned ones — the paper's "all running operations
//! either see the full L1-delta and the old end-of-delta border or the
//! truncated version … with the expanded version of the L2-delta", and
//! §4.1's "keep the old and the new versions … until all database operations
//! of open transactions … have finished".
//!
//! Main-store access runs through the parallel scan engine: per-part
//! visibility resolves once through the wholly-visible summary or a cached
//! per-snapshot bitmap (see [`MainPart::cached_visibility`]), then fixed-size
//! row chunks fan out over a bounded worker pool
//! ([`hana_merge::map_indexed`]) and reassemble in chain order, so a
//! parallel scan is bit-identical to the serial one. Index-probe hit lists
//! (point, range) read only their hits' own stamps when a part has few
//! hits (see `TableRead::retain_visible_hits`), so a point lookup costs
//! O(hits), not O(part rows).

use crate::filter::{zone_admits, ColumnPredicate, ScanStats};
use crate::scan::{plan_chunks, plan_ranges, PartVisibility};
use crate::table::UnifiedTable;
use hana_column::kernel::refine_bitmap;
use hana_column::{Bitmap, CodeMatcher, Pos};
use hana_common::{HanaError, Result, RowId, Timestamp, TxnId, Value};
use hana_dict::GlobalSortedDict;
use hana_merge::{effective_workers, map_indexed};
use hana_rowstore::L1Snapshot;
use hana_store::{L2Delta, MainStore, PartHit, VisBitmap, L2_NULL_CODE};
use hana_txn::{version_visible, Snapshot, Transaction};
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hana_store::MainPart;

/// The cutover of [`TableRead::retain_visible_hits`]: a part resolves its
/// hits per hit while `hits * PER_HIT_STAMP_COST < part.len()`.
///
/// Counted in cache lines, a bitmap build streams 16 bytes of stamps per
/// row (`len / 4` lines) while a per-hit check touches two lines (its begin
/// and its end stamp), so per-hit checks already touch fewer lines at
/// `hits * 8 < len`. Streamed lines are cheaper than random misses, and a
/// built bitmap may be reused by later statements at the same snapshot, so
/// the cutover keeps a further factor of 8 in the build's favour: per-hit
/// resolution applies while a part has fewer hits than its bitmap has
/// 64-bit words.
const PER_HIT_STAMP_COST: usize = 64;

/// A consistent, merge-proof view of one table under one snapshot.
pub struct TableRead {
    table: Arc<UnifiedTable>,
    snap: Snapshot,
    l1: L1Snapshot,
    l2: Arc<L2Delta>,
    l2_fence: Pos,
    l2_frozen: Option<(Arc<L2Delta>, Pos)>,
    main: Arc<MainStore>,
    /// Visibility-bitmap cache hits observed through this view.
    cache_hits: AtomicU64,
    /// Visibility bitmaps this view had to compute from raw stamps.
    cache_misses: AtomicU64,
    /// Set when this view is one shard of a partition fan-out: chunk-level
    /// parallelism is suppressed so the partition-level fan-out alone
    /// sizes the thread pool (see `PartitionedRead`).
    serial_shard: bool,
}

/// A visible row surfaced by a scan.
#[derive(Debug, Clone, PartialEq)]
pub struct VisibleRow {
    /// Stable record id.
    pub row_id: RowId,
    /// The row payload.
    pub values: Vec<Value>,
}

impl UnifiedTable {
    /// Open a read view for one statement of `txn`.
    pub fn read(self: &Arc<Self>, txn: &Transaction) -> TableRead {
        self.read_at(txn.read_snapshot())
    }

    /// Open a read view under an explicit snapshot (time travel uses
    /// `Snapshot::at(ts)`).
    pub fn read_at(self: &Arc<Self>, snap: Snapshot) -> TableRead {
        let state = self.state.read();
        TableRead {
            snap,
            l1: self.l1.snapshot(),
            l2: Arc::clone(&state.l2),
            l2_fence: state.l2.published_len(),
            l2_frozen: state
                .l2_frozen
                .as_ref()
                .map(|f| (Arc::clone(f), f.published_len())),
            main: Arc::clone(&state.main),
            table: Arc::clone(self),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            serial_shard: false,
        }
    }
}

/// Materialize one L2 row under a projection. `narrow` returns only the
/// projected columns (in projection order); otherwise unprojected columns
/// are `Null` placeholders so downstream column indexes stay stable.
fn l2_row(
    l2: &L2Delta,
    pos: Pos,
    arity: usize,
    proj: Option<&[usize]>,
    narrow: bool,
) -> Vec<Value> {
    match proj {
        None => l2.row(pos),
        Some(cols) if narrow => cols.iter().map(|&c| l2.value(pos, c)).collect(),
        Some(cols) => {
            let mut row = vec![Value::Null; arity];
            for &c in cols {
                row[c] = l2.value(pos, c);
            }
            row
        }
    }
}

/// Materialize an L1 slot's values under a projection, cloning only the
/// columns the caller asked for.
fn slot_row(values: &[Value], proj: Option<&[usize]>, narrow: bool) -> Vec<Value> {
    match proj {
        None => values.to_vec(),
        Some(cols) if narrow => cols.iter().map(|&c| values[c].clone()).collect(),
        Some(cols) => {
            let mut row = vec![Value::Null; values.len()];
            for &c in cols {
                row[c] = values[c].clone();
            }
            row
        }
    }
}

impl TableRead {
    /// The snapshot this view reads under.
    pub fn snapshot(&self) -> &Snapshot {
        &self.snap
    }

    /// Mark this view as one shard of a partition fan-out: chunk-level
    /// parallelism is suppressed so only the partition level fans out.
    pub(crate) fn set_serial_shard(&mut self) {
        self.serial_shard = true;
    }

    /// The table's (database-wide) resource governor — the engine layer
    /// takes scan admission tokens through this.
    pub fn governor(&self) -> &Arc<crate::governor::ResourceGovernor> {
        self.table.governor()
    }

    /// The pinned main chain (exposed for engine-layer operators).
    pub fn main(&self) -> &MainStore {
        &self.main
    }

    /// `(hits, misses)` of the per-part visibility-bitmap cache as seen by
    /// this view. A *hit* reused a bitmap cached by an earlier statement at
    /// the same snapshot; a *miss* computed one from raw MVCC stamps.
    /// Wholly-visible parts bypass the bitmaps entirely and count as
    /// neither.
    pub fn vis_cache_stats(&self) -> (u64, u64) {
        (
            self.cache_hits.load(Ordering::Relaxed),
            self.cache_misses.load(Ordering::Relaxed),
        )
    }

    fn visible(&self, begin: Timestamp, end: Timestamp) -> bool {
        version_visible(&self.table.mgr, &self.snap, begin, end)
    }

    fn schema_col(&self, col: usize) -> Result<()> {
        if col >= self.table.schema.arity() {
            return Err(HanaError::Schema(format!(
                "column index {col} out of range for {}",
                self.table.schema.name
            )));
        }
        Ok(())
    }

    fn check_projection(&self, proj: Option<&[usize]>) -> Result<()> {
        if let Some(cols) = proj {
            for &c in cols {
                self.schema_col(c)?;
            }
        }
        Ok(())
    }

    /// Resolve the scan fan-out degree for `jobs` chunks of work: the
    /// configured `scan_parallelism`, clamped by the governor (never more
    /// workers than cores; down to `min_scan_parallelism` while the OLTP
    /// signal is hot) and additionally forced serial when this read is one
    /// shard of a partition fan-out (the parallelism then lives at the
    /// partition level — nesting both fan-outs oversubscribes the pool).
    fn scan_workers(&self, jobs: usize) -> usize {
        if jobs <= 1 || self.serial_shard {
            return 1;
        }
        let requested = self.table.config.scan.scan_parallelism;
        if requested == 1 {
            1
        } else {
            self.table
                .governor
                .effective_parallelism(effective_workers(requested))
                .min(jobs)
        }
    }

    /// Resolve the visibility of main part `pi` under this snapshot:
    /// the wholly-visible summary when it applies, a cached bitmap when one
    /// matches, or a freshly computed bitmap. Whole-part readers use this;
    /// hit lists go through [`retain_visible_hits`](Self::retain_visible_hits).
    pub(crate) fn part_visibility(&self, pi: usize) -> PartVisibility {
        let part = &self.main.parts()[pi];
        self.known_visibility(part)
            .unwrap_or_else(|| self.build_visibility(part))
    }

    /// The part's visibility when it costs no stamp reads: the
    /// wholly-visible summary, or a bitmap an earlier statement cached at
    /// this snapshot.
    fn known_visibility(&self, part: &MainPart) -> Option<PartVisibility> {
        let ts = self.snap.ts();
        if part.fully_visible_at(ts) {
            return Some(PartVisibility::All);
        }
        let entry = part.cached_visibility(ts, self.snap.txn())?;
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
        Some(PartVisibility::Filtered(entry))
    }

    /// Build the part's visibility bitmap from its raw stamps (cached for
    /// later statements unless the snapshot timestamp lies in the future —
    /// time travel — where a later commit could still slide under it).
    fn build_visibility(&self, part: &MainPart) -> PartVisibility {
        let ts = self.snap.ts();
        let txn = self.snap.txn();
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
        // Capture the end-stamp version *before* reading any stamp: a
        // deletion landing mid-scan then invalidates the cached entry
        // instead of racing it.
        let end_version = part.end_version();
        let mut visible = Bitmap::zeros(part.len());
        let mut txn_sensitive = false;
        for pos in 0..part.len() as Pos {
            let begin = part.begin(pos);
            let end = part.end(pos);
            if TxnId::from_mark(begin).is_some() || TxnId::from_mark(end).is_some() {
                txn_sensitive = true;
            }
            if self.visible(begin, end) {
                visible.set(pos as usize);
            }
        }
        let entry = Arc::new(VisBitmap {
            ts,
            txn,
            txn_sensitive,
            end_version,
            visible,
        });
        if ts <= self.table.mgr.now() {
            part.store_visibility(Arc::clone(&entry), self.table.mgr.watermark());
        }
        PartVisibility::Filtered(entry)
    }

    /// Keep only the visible entries of a main hit list (index-probe
    /// results: point, range and the equality route of a filtered scan).
    ///
    /// Each part the list touches resolves once, cheapest first:
    /// 1. the wholly-visible summary;
    /// 2. a bitmap cached at this snapshot;
    /// 3. with fewer than `part.len() / PER_HIT_STAMP_COST` hits in the
    ///    part, each hit's own `begin`/`end` stamps — the predicate the
    ///    bitmap build applies per row, so the answer is the same;
    /// 4. otherwise a bitmap built (and cached) over the whole part.
    ///
    /// The cutover weighs the stamp reads of the two ways (see
    /// [`PER_HIT_STAMP_COST`]). Under OLTP every commit moves the snapshot
    /// and deletions bump the part's end version, so a cached bitmap is
    /// rarely found: a point lookup then costs O(hits) stamp reads instead
    /// of O(part rows).
    fn retain_visible_hits(&self, hits: &mut Vec<PartHit>) {
        let parts = self.main.parts();
        let mut per_part = vec![0usize; parts.len()];
        for h in hits.iter() {
            per_part[h.part] += 1;
        }
        // `None`: the part has no hits, or its hits check their own stamps.
        let vis: Vec<Option<PartVisibility>> = parts
            .iter()
            .zip(&per_part)
            .map(|(part, &n)| {
                if n == 0 {
                    return None;
                }
                self.known_visibility(part).or_else(|| {
                    (n * PER_HIT_STAMP_COST >= part.len()).then(|| self.build_visibility(part))
                })
            })
            .collect();
        hits.retain(|h| match &vis[h.part] {
            Some(v) => v.is_visible(h.pos),
            None => {
                let part = &parts[h.part];
                self.visible(part.begin(h.pos), part.end(h.pos))
            }
        });
    }

    /// Materialize one main row under a projection (see [`l2_row`] for the
    /// `narrow` semantics).
    fn main_row(&self, hit: PartHit, proj: Option<&[usize]>, narrow: bool) -> Vec<Value> {
        match proj {
            None => self.main.row_at(hit),
            Some(cols) if narrow => cols.iter().map(|&c| self.main.value_at(hit, c)).collect(),
            Some(cols) => {
                let mut row = vec![Value::Null; self.table.schema.arity()];
                for &c in cols {
                    row[c] = self.main.value_at(hit, c);
                }
                row
            }
        }
    }

    /// Upper bound on visible rows: used to pre-size collection output.
    fn row_upper_bound(&self) -> usize {
        self.main.total_rows()
            + self.l2_fence as usize
            + self.l2_frozen.as_ref().map_or(0, |(_, f)| *f as usize)
            + self.l1.len()
    }

    /// The scan core: visit every visible row, main first (chunked and
    /// fanned out over the scan pool, reassembled in chain order), then
    /// frozen L2, open L2, L1 — oldest store to newest, matching merge
    /// order.
    fn scan_visible(&self, proj: Option<&[usize]>, narrow: bool, f: &mut dyn FnMut(VisibleRow)) {
        let parts = self.main.parts();
        let vis: Vec<PartVisibility> = (0..parts.len())
            .map(|pi| self.part_visibility(pi))
            .collect();
        let chunks = plan_chunks(parts);
        let workers = self.scan_workers(chunks.len());
        let scan_epoch = self.table.governor.epoch();
        let produced = map_indexed(chunks.len(), workers, |ci| {
            let mut seen = scan_epoch;
            self.table.governor.chunk_yield(&mut seen);
            let ch = chunks[ci];
            let part = &parts[ch.part];
            let mut rows = Vec::new();
            for pos in ch.start..ch.end {
                if vis[ch.part].is_visible(pos) {
                    rows.push(VisibleRow {
                        row_id: part.row_id(pos),
                        values: self.main_row(PartHit { part: ch.part, pos }, proj, narrow),
                    });
                }
            }
            rows
        });
        for rows in produced {
            for r in rows {
                f(r);
            }
        }
        let arity = self.table.schema.arity();
        if let Some((frozen, fence)) = &self.l2_frozen {
            for pos in 0..*fence {
                if self.visible(frozen.begin(pos), frozen.end(pos)) {
                    f(VisibleRow {
                        row_id: frozen.row_id(pos),
                        values: l2_row(frozen, pos, arity, proj, narrow),
                    });
                }
            }
        }
        for pos in 0..self.l2_fence {
            if self.visible(self.l2.begin(pos), self.l2.end(pos)) {
                f(VisibleRow {
                    row_id: self.l2.row_id(pos),
                    values: l2_row(&self.l2, pos, arity, proj, narrow),
                });
            }
        }
        for (_, slot) in self.l1.iter() {
            if self.visible(slot.begin(), slot.end()) {
                f(VisibleRow {
                    row_id: slot.row_id,
                    values: slot_row(&slot.values, proj, narrow),
                });
            }
        }
    }

    /// Iterate every *visible* row, main first, then frozen L2, then open
    /// L2, then L1 — oldest store to newest, matching merge order.
    pub fn for_each_visible(&self, mut f: impl FnMut(VisibleRow)) {
        self.scan_visible(None, false, &mut f);
    }

    /// Materialize all visible rows.
    pub fn collect_rows(&self) -> Vec<VisibleRow> {
        self.collect_rows_projected(None)
    }

    /// Materialize all visible rows under a projection pushed down from the
    /// engine layer: unprojected columns stay `Null` placeholders so the
    /// caller's column indexes remain valid.
    pub fn collect_rows_projected(&self, proj: Option<&[usize]>) -> Vec<VisibleRow> {
        let mut out = Vec::with_capacity(self.row_upper_bound());
        self.scan_visible(proj, false, &mut |r| out.push(r));
        out
    }

    /// Late materialization: all visible rows narrowed to `cols`, in
    /// projection order. Only the requested columns are ever decoded or
    /// cloned.
    pub fn project(&self, cols: &[usize]) -> Result<Vec<VisibleRow>> {
        for &c in cols {
            self.schema_col(c)?;
        }
        let mut out = Vec::with_capacity(self.row_upper_bound());
        self.scan_visible(Some(cols), true, &mut |r| out.push(r));
        Ok(out)
    }

    /// Compressed-domain filtered scan: all visible rows satisfying *every*
    /// conjunct in `preds`, plus the pruning/filtering counters.
    ///
    /// The main chain never materializes a value to decide the filter: each
    /// conjunct is compiled per part into a [`CodeMatcher`]
    /// (see [`ColumnPredicate::compile_for_part`]), whole parts and
    /// 16Ki-row chunks whose zone maps contradict the compiled spans are
    /// skipped, and the surviving chunks run the encoding-aware kernels
    /// ([`hana_column::CodeVector::filter_range`]) in the parallel scan
    /// fan-out; hit bits are then ANDed with the snapshot-visibility
    /// resolution of PR 2 (summary or cached bitmap) before materializing
    /// only matching rows under `proj`. A non-null `Eq` conjunct routes
    /// through the inverted indexes instead of scanning, verifying the other
    /// conjuncts per hit — still in the code domain. The L2-deltas probe
    /// their unsorted dictionaries once per conjunct into code sets; only
    /// the (small) L1 is evaluated row-wise on values.
    ///
    /// With empty `preds` this is [`collect_rows_projected`]
    /// (Self::collect_rows_projected). Output order matches
    /// [`for_each_visible`](Self::for_each_visible): main in chunk order,
    /// then frozen L2, open L2, L1 — so parallel execution stays
    /// bit-identical to serial.
    pub fn scan_filtered(
        &self,
        preds: &[ColumnPredicate],
        proj: Option<&[usize]>,
    ) -> Result<(Vec<VisibleRow>, ScanStats)> {
        self.scan_filtered_with_fanout(preds, proj)
            .map(|(rows, stats, _)| (rows, stats))
    }

    /// [`scan_filtered`](Self::scan_filtered), also returning the worker
    /// fan-out the main-chain kernels ran with after the governor's clamp
    /// (0 when no chunked kernel scan ran). The fan-out is schedule, not
    /// work: it varies with the host and the OLTP load, so it is kept out
    /// of the deterministic [`ScanStats`].
    pub fn scan_filtered_with_fanout(
        &self,
        preds: &[ColumnPredicate],
        proj: Option<&[usize]>,
    ) -> Result<(Vec<VisibleRow>, ScanStats, usize)> {
        self.check_projection(proj)?;
        for p in preds {
            self.schema_col(p.column())?;
        }
        let mut stats = ScanStats::default();
        let mut fanout = 0;
        if preds.is_empty() {
            return Ok((self.collect_rows_projected(proj), stats, fanout));
        }
        let cols: Vec<usize> = preds.iter().map(|p| p.column()).collect();
        let mut out = Vec::new();

        // ---- Main chain ----
        let parts = self.main.parts();
        let matchers: Vec<Vec<CodeMatcher>> = (0..parts.len())
            .map(|pi| {
                preds
                    .iter()
                    .map(|p| p.compile_for_part(&self.main, pi))
                    .collect()
            })
            .collect();
        let eq_route = preds.iter().find_map(|p| match p {
            ColumnPredicate::Eq(c, v) if !v.is_null() => Some((*c, v)),
            _ => None,
        });
        if let Some((col, v)) = eq_route {
            // Selective point conjunct: inverted-index probe instead of a
            // scan; remaining conjuncts verify on raw codes per hit.
            stats.index_probes += 1;
            let mut hits = self.main.positions_eq(col, v);
            stats.code_filtered_rows += hits.len() as u64;
            hits.retain(|h| {
                matchers[h.part]
                    .iter()
                    .zip(&cols)
                    .all(|(m, &c)| m.matches(parts[h.part].code_at(h.pos, c)))
            });
            self.retain_visible_hits(&mut hits);
            for h in hits {
                out.push(VisibleRow {
                    row_id: parts[h.part].row_id(h.pos),
                    values: self.main_row(h, proj, false),
                });
            }
        } else {
            // Zone-map pruning: whole parts first, then chunks. A part whose
            // compiled filter is empty (dictionary proved no match) prunes
            // the same way.
            let mut part_active = vec![true; parts.len()];
            for (pi, part) in parts.iter().enumerate() {
                let dead = matchers[pi]
                    .iter()
                    .zip(&cols)
                    .any(|(m, &c)| m.never_matches() || !zone_admits(part.zone_map(c).part(), m));
                if dead && !part.is_empty() {
                    part_active[pi] = false;
                    stats.parts_pruned += 1;
                    stats.zone_pruned_rows += part.len() as u64;
                }
            }
            let chunks: Vec<_> = plan_chunks(parts)
                .into_iter()
                .filter(|ch| {
                    if !part_active[ch.part] {
                        return false;
                    }
                    let part = &parts[ch.part];
                    let dead = matchers[ch.part]
                        .iter()
                        .zip(&cols)
                        .any(|(m, &c)| !zone_admits(part.zone_map(c).chunk_at(ch.start), m));
                    if dead {
                        stats.chunks_pruned += 1;
                        stats.zone_pruned_rows += (ch.end - ch.start) as u64;
                    }
                    !dead
                })
                .collect();
            stats.code_filtered_rows += chunks
                .iter()
                .map(|ch| (ch.end - ch.start) as u64)
                .sum::<u64>();
            let vis: Vec<PartVisibility> = (0..parts.len())
                .map(|pi| {
                    if part_active[pi] && !parts[pi].is_empty() {
                        self.part_visibility(pi)
                    } else {
                        PartVisibility::All // never consulted for pruned parts
                    }
                })
                .collect();
            let workers = self.scan_workers(chunks.len());
            fanout = workers;
            let scan_epoch = self.table.governor.epoch();
            let produced = map_indexed(chunks.len(), workers, |ci| {
                // Chunk-boundary cooperation: surrender the timeslice when
                // a committer entered the pipeline, so a long scan never
                // monopolizes the pool while the commit path queues.
                let mut seen = scan_epoch;
                self.table.governor.chunk_yield(&mut seen);
                let ch = chunks[ci];
                let part = &parts[ch.part];
                let n = (ch.end - ch.start) as usize;
                let ms = &matchers[ch.part];
                let mut hits = Bitmap::zeros(n);
                part.code_vector(cols[0]).filter_range(
                    ch.start as usize,
                    ch.end as usize,
                    &ms[0],
                    &mut hits,
                );
                for (m, &c) in ms.iter().zip(&cols).skip(1) {
                    if hits.count_ones() == 0 {
                        break;
                    }
                    refine_bitmap(
                        |i| part.code_at(i as Pos, c),
                        ch.start as usize,
                        m,
                        &mut hits,
                    );
                }
                // Visibility-AND: fold the snapshot bitmap into the hit
                // bitmap word-wise instead of branching per hit.
                vis[ch.part].mask_hits(&mut hits, ch.start);
                let mut rows = Vec::with_capacity(hits.count_ones());
                for k in hits.iter_ones() {
                    let pos = ch.start + k as Pos;
                    rows.push(VisibleRow {
                        row_id: part.row_id(pos),
                        values: self.main_row(PartHit { part: ch.part, pos }, proj, false),
                    });
                }
                rows
            });
            out.extend(produced.into_iter().flatten());
        }

        // ---- L2 stages (frozen, then open) ----
        let arity = self.table.schema.arity();
        let l2_side = |l2: &L2Delta, fence: Pos, out: &mut Vec<VisibleRow>, st: &mut ScanStats| {
            if fence == 0 {
                return;
            }
            // One lock acquisition for every filter column + stamps; the
            // dictionaries are probed once per conjunct, then rows are
            // tested on raw codes. Visibility resolves inside the closure
            // (it only touches the txn manager, never the L2 lock).
            let keep: Vec<Pos> = l2.with_columns_stamped(&cols, fence, |views, begins, ends| {
                let ms: Vec<CodeMatcher> = preds
                    .iter()
                    .zip(views)
                    .map(|(p, (dict, _))| p.compile_for_l2(dict))
                    .collect();
                let mut keep = Vec::new();
                if ms.iter().any(|m| m.never_matches()) {
                    return keep;
                }
                let n = views[0].1.len();
                for pos in 0..n {
                    if !ms
                        .iter()
                        .zip(views)
                        .all(|(m, (_, codes))| m.matches(codes[pos]))
                    {
                        continue;
                    }
                    let begin = begins[pos].load(Ordering::Acquire);
                    let end = ends[pos].load(Ordering::Acquire);
                    if self.visible(begin, end) {
                        keep.push(pos as Pos);
                    }
                }
                keep
            });
            st.code_filtered_rows += fence as u64;
            for pos in keep {
                out.push(VisibleRow {
                    row_id: l2.row_id(pos),
                    values: l2_row(l2, pos, arity, proj, false),
                });
            }
        };
        if let Some((frozen, fence)) = &self.l2_frozen {
            l2_side(frozen, *fence, &mut out, &mut stats);
        }
        l2_side(&self.l2, self.l2_fence, &mut out, &mut stats);

        // ---- L1 (row store): row-wise on values ----
        for (_, slot) in self.l1.iter() {
            stats.rowwise_rows += 1;
            if preds
                .iter()
                .all(|p| p.matches_value(&slot.values[p.column()]))
                && self.visible(slot.begin(), slot.end())
            {
                out.push(VisibleRow {
                    row_id: slot.row_id,
                    values: slot_row(&slot.values, proj, false),
                });
            }
        }
        Ok((out, stats, fanout))
    }

    /// Count visible rows. Wholly-visible parts contribute their length,
    /// bitmap-resolved parts a popcount — no row is materialized.
    pub fn count(&self) -> usize {
        let parts = self.main.parts();
        let mut n = 0usize;
        for (pi, part) in parts.iter().enumerate() {
            n += self.part_visibility(pi).visible_rows(part.len());
        }
        if let Some((frozen, fence)) = &self.l2_frozen {
            for pos in 0..*fence {
                if self.visible(frozen.begin(pos), frozen.end(pos)) {
                    n += 1;
                }
            }
        }
        for pos in 0..self.l2_fence {
            if self.visible(self.l2.begin(pos), self.l2.end(pos)) {
                n += 1;
            }
        }
        for (_, slot) in self.l1.iter() {
            if self.visible(slot.begin(), slot.end()) {
                n += 1;
            }
        }
        n
    }

    /// Filter a main-store hit list by visibility
    /// ([`retain_visible_hits`](Self::retain_visible_hits)) and materialize
    /// the surviving rows, fanning large lists out over the scan pool
    /// (in-order reassembly keeps the output deterministic).
    fn materialize_main_hits(
        &self,
        mut hits: Vec<PartHit>,
        proj: Option<&[usize]>,
    ) -> Vec<Vec<Value>> {
        self.retain_visible_hits(&mut hits);
        let ranges = plan_ranges(hits.len());
        let workers = self.scan_workers(ranges.len());
        let produced = map_indexed(ranges.len(), workers, |ri| {
            let (start, end) = ranges[ri];
            hits[start..end]
                .iter()
                .map(|h| self.main_row(*h, proj, false))
                .collect::<Vec<_>>()
        });
        produced.into_iter().flatten().collect()
    }

    /// Point query: visible rows with `col = v`, via the dictionaries and
    /// inverted indexes of the column stages and a scan of the (small) L1.
    pub fn point(&self, col: usize, v: &Value) -> Result<Vec<Vec<Value>>> {
        self.point_projected(col, v, None)
    }

    /// [`point`](Self::point) with a projection pushed into materialization
    /// (unprojected columns are `Null` placeholders).
    pub fn point_projected(
        &self,
        col: usize,
        v: &Value,
        proj: Option<&[usize]>,
    ) -> Result<Vec<Vec<Value>>> {
        self.schema_col(col)?;
        self.check_projection(proj)?;
        let hits = self.main.positions_eq(col, v);
        let mut out = self.materialize_main_hits(hits, proj);
        let arity = self.table.schema.arity();
        if let Some((frozen, fence)) = &self.l2_frozen {
            for pos in frozen.positions_eq(col, v, *fence) {
                if self.visible(frozen.begin(pos), frozen.end(pos)) {
                    out.push(l2_row(frozen, pos, arity, proj, false));
                }
            }
        }
        for pos in self.l2.positions_eq(col, v, self.l2_fence) {
            if self.visible(self.l2.begin(pos), self.l2.end(pos)) {
                out.push(l2_row(&self.l2, pos, arity, proj, false));
            }
        }
        for (_, slot) in self.l1.iter() {
            if &slot.values[col] == v && self.visible(slot.begin(), slot.end()) {
                out.push(slot_row(&slot.values, proj, false));
            }
        }
        Ok(out)
    }

    /// Range query: visible rows with `col` in `[lo, hi]` bounds. The main
    /// resolves the range per part dictionary (Fig 10); the L2 through its
    /// unsorted dictionaries; the L1 by scan.
    pub fn range(
        &self,
        col: usize,
        lo: Bound<&Value>,
        hi: Bound<&Value>,
    ) -> Result<Vec<Vec<Value>>> {
        self.range_projected(col, lo, hi, None)
    }

    /// [`range`](Self::range) with a projection pushed into materialization
    /// (unprojected columns are `Null` placeholders).
    pub fn range_projected(
        &self,
        col: usize,
        lo: Bound<&Value>,
        hi: Bound<&Value>,
        proj: Option<&[usize]>,
    ) -> Result<Vec<Vec<Value>>> {
        self.schema_col(col)?;
        self.check_projection(proj)?;
        let in_range = |v: &Value| {
            !v.is_null()
                && (match lo {
                    Bound::Unbounded => true,
                    Bound::Included(b) => v >= b,
                    Bound::Excluded(b) => v > b,
                })
                && (match hi {
                    Bound::Unbounded => true,
                    Bound::Included(b) => v <= b,
                    Bound::Excluded(b) => v < b,
                })
        };
        let hits = self.main.positions_range(col, lo, hi);
        let mut out = self.materialize_main_hits(hits, proj);
        let arity = self.table.schema.arity();
        if let Some((frozen, fence)) = &self.l2_frozen {
            for pos in frozen.positions_range(col, lo, hi, *fence) {
                if self.visible(frozen.begin(pos), frozen.end(pos)) {
                    out.push(l2_row(frozen, pos, arity, proj, false));
                }
            }
        }
        for pos in self.l2.positions_range(col, lo, hi, self.l2_fence) {
            if self.visible(self.l2.begin(pos), self.l2.end(pos)) {
                out.push(l2_row(&self.l2, pos, arity, proj, false));
            }
        }
        for (_, slot) in self.l1.iter() {
            if in_range(&slot.values[col]) && self.visible(slot.begin(), slot.end()) {
                out.push(slot_row(&slot.values, proj, false));
            }
        }
        Ok(out)
    }

    /// One numeric decode table covering the *whole* main chain: global
    /// code → numeric value (`NaN` for non-numeric entries). Built once per
    /// scan — codes in part `p` never reference later parts, and every
    /// row's NULL sentinel is checked against its own part before lookup,
    /// so the sentinel slots colliding with the next part's base are
    /// harmless.
    fn chain_numeric_table(&self, col: usize) -> Vec<f64> {
        let mut table = vec![f64::NAN; self.main.next_base(col) as usize + 1];
        for p in self.main.parts() {
            let base = p.base(col) as usize;
            let dict = p.dict(col);
            for local in 0..dict.len() as u32 {
                if let Some(x) = dict.value_of(local).as_numeric() {
                    table[base + local as usize] = x;
                }
            }
        }
        table
    }

    /// Columnar aggregation over one numeric column: `(count, sum)` of
    /// visible non-null values. The main path decodes the chain's
    /// dictionaries once into a numeric lookup table and streams the
    /// compressed code vectors in parallel chunks — the OLAP fast path the
    /// unified table keeps even while serving OLTP. Chunk partials combine
    /// in chunk order, so the float sum is independent of the worker count.
    pub fn aggregate_numeric(&self, col: usize) -> Result<(u64, f64)> {
        self.schema_col(col)?;
        let parts = self.main.parts();
        let table = self.chain_numeric_table(col);
        let vis: Vec<PartVisibility> = (0..parts.len())
            .map(|pi| self.part_visibility(pi))
            .collect();
        let chunks = plan_chunks(parts);
        let workers = self.scan_workers(chunks.len());
        let scan_epoch = self.table.governor.epoch();
        let partials = map_indexed(chunks.len(), workers, |ci| {
            let mut seen = scan_epoch;
            self.table.governor.chunk_yield(&mut seen);
            let ch = chunks[ci];
            let part = &parts[ch.part];
            let null_code = part.null_code(col);
            let (mut c, mut s) = (0u64, 0.0f64);
            for pos in ch.start..ch.end {
                if !vis[ch.part].is_visible(pos) {
                    continue;
                }
                let code = part.code_at(pos, col);
                if code == null_code {
                    continue;
                }
                let x = table[code as usize];
                if !x.is_nan() {
                    c += 1;
                    s += x;
                }
            }
            (c, s)
        });
        let mut count = 0u64;
        let mut sum = 0.0f64;
        for (c, s) in partials {
            count += c;
            sum += s;
        }
        // L2 stages: decode via dictionary once; stamps come through the
        // same lock acquisition (never re-lock inside the closure).
        let mut l2_side = |l2: &L2Delta, fence: Pos| {
            l2.with_column_stamped(col, fence, |dict, codes, begins, ends| {
                let table: Vec<f64> = dict
                    .values()
                    .iter()
                    .map(|v| v.as_numeric().unwrap_or(f64::NAN))
                    .collect();
                for (pos, &code) in codes.iter().enumerate() {
                    let begin = begins[pos].load(Ordering::Acquire);
                    let end = ends[pos].load(Ordering::Acquire);
                    if code == L2_NULL_CODE || !self.visible(begin, end) {
                        continue;
                    }
                    let x = table[code as usize];
                    if !x.is_nan() {
                        count += 1;
                        sum += x;
                    }
                }
            });
        };
        if let Some((frozen, fence)) = &self.l2_frozen {
            l2_side(frozen, *fence);
        }
        l2_side(&self.l2, self.l2_fence);
        // L1 rows.
        for (_, slot) in self.l1.iter() {
            if !self.visible(slot.begin(), slot.end()) {
                continue;
            }
            if let Some(x) = slot.values[col].as_numeric() {
                count += 1;
                sum += x;
            }
        }
        Ok((count, sum))
    }

    /// Group-by aggregation: for each distinct value of `group_col`, the
    /// `(count, sum)` over `agg_col` of visible rows.
    ///
    /// Columnar fast path: main chunks aggregate over dictionary *codes*
    /// into dense accumulators in parallel, decode each surviving group key
    /// once, and merge in chunk order (deterministic float sums); the L2
    /// deltas aggregate per-code maps. Only the small L1 is processed
    /// row-wise.
    pub fn group_aggregate(
        &self,
        group_col: usize,
        agg_col: usize,
    ) -> Result<Vec<(Value, u64, f64)>> {
        self.schema_col(group_col)?;
        self.schema_col(agg_col)?;
        let mut groups: rustc_hash::FxHashMap<Value, (u64, f64)> = Default::default();

        // Main chunks: dense per-code accumulators over the chain-wide
        // numeric table (built once — not once per part).
        let parts = self.main.parts();
        let num = self.chain_numeric_table(agg_col);
        let vis: Vec<PartVisibility> = (0..parts.len())
            .map(|pi| self.part_visibility(pi))
            .collect();
        let chunks = plan_chunks(parts);
        let workers = self.scan_workers(chunks.len());
        let scan_epoch = self.table.governor.epoch();
        let partials: Vec<Vec<(Value, u64, f64)>> = map_indexed(chunks.len(), workers, |ci| {
            let mut seen = scan_epoch;
            self.table.governor.chunk_yield(&mut seen);
            let ch = chunks[ci];
            let part = &parts[ch.part];
            let g_null = part.null_code(group_col);
            let a_null = part.null_code(agg_col);
            let mut acc = vec![(0u64, 0.0f64); g_null as usize + 1];
            for pos in ch.start..ch.end {
                if !vis[ch.part].is_visible(pos) {
                    continue;
                }
                let g = part.code_at(pos, group_col) as usize;
                let e = &mut acc[g];
                e.0 += 1;
                let a = part.code_at(pos, agg_col);
                if a != a_null {
                    let x = num[a as usize];
                    if !x.is_nan() {
                        e.1 += x;
                    }
                }
            }
            acc.into_iter()
                .enumerate()
                .filter(|&(_, (c, _))| c > 0)
                .map(|(code, (c, s))| {
                    let key = if code as u32 == g_null {
                        Value::Null
                    } else {
                        self.main
                            .value_of_code(group_col, code as u32)
                            .expect("group code resolves in the chain")
                    };
                    (key, c, s)
                })
                .collect()
        });
        for chunk_groups in partials {
            for (key, c, s) in chunk_groups {
                let e = groups.entry(key).or_insert((0, 0.0));
                e.0 += c;
                e.1 += s;
            }
        }

        // L2 stages: per-code accumulation through the unsorted dictionary.
        let mut l2_side = |l2: &L2Delta, fence: Pos| {
            let (decoded, null_acc) = l2.with_two_columns_stamped(
                group_col,
                agg_col,
                fence,
                |gd, gc, ad, ac, begins, ends| {
                    let num_table: Vec<f64> = ad
                        .values()
                        .iter()
                        .map(|v| v.as_numeric().unwrap_or(f64::NAN))
                        .collect();
                    let mut acc: rustc_hash::FxHashMap<hana_dict::Code, (u64, f64)> =
                        Default::default();
                    let mut null_acc = (0u64, 0.0f64);
                    for pos in 0..gc.len() {
                        let begin = begins[pos].load(Ordering::Acquire);
                        let end = ends[pos].load(Ordering::Acquire);
                        if !self.visible(begin, end) {
                            continue;
                        }
                        let e = if gc[pos] == L2_NULL_CODE {
                            &mut null_acc
                        } else {
                            acc.entry(gc[pos]).or_insert((0, 0.0))
                        };
                        e.0 += 1;
                        let a = ac[pos];
                        if a != L2_NULL_CODE {
                            let x = num_table[a as usize];
                            if !x.is_nan() {
                                e.1 += x;
                            }
                        }
                    }
                    let decoded: Vec<(Value, u64, f64)> = acc
                        .into_iter()
                        .map(|(code, (c, s))| (gd.value_of(code).clone(), c, s))
                        .collect();
                    (decoded, null_acc)
                },
            );
            for (key, c, s) in decoded {
                let e = groups.entry(key).or_insert((0, 0.0));
                e.0 += c;
                e.1 += s;
            }
            if null_acc.0 > 0 {
                let e = groups.entry(Value::Null).or_insert((0, 0.0));
                e.0 += null_acc.0;
                e.1 += null_acc.1;
            }
        };
        if let Some((frozen, fence)) = &self.l2_frozen {
            l2_side(frozen, *fence);
        }
        l2_side(&self.l2, self.l2_fence);

        // L1 rows.
        for (_, slot) in self.l1.iter() {
            if !self.visible(slot.begin(), slot.end()) {
                continue;
            }
            let e = groups
                .entry(slot.values[group_col].clone())
                .or_insert((0, 0.0));
            e.0 += 1;
            if let Some(x) = slot.values[agg_col].as_numeric() {
                e.1 += x;
            }
        }

        let mut out: Vec<(Value, u64, f64)> =
            groups.into_iter().map(|(k, (c, s))| (k, c, s)).collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(out)
    }

    /// The merged global sorted dictionary over all three stages (§3.1),
    /// including values of rows not visible to this snapshot (a dictionary
    /// property, as in the paper).
    pub fn global_sorted_dict(&self, col: usize) -> Result<GlobalSortedDict> {
        self.schema_col(col)?;
        // Main side: if the chain has several parts, merge their dictionary
        // values into one sorted dictionary view first.
        let main_dict = if self.main.parts().len() == 1 {
            self.main.parts()[0].dict(col).clone()
        } else {
            let mut vals: Vec<Value> = Vec::new();
            for p in self.main.parts() {
                vals.extend(p.dict(col).iter());
            }
            hana_dict::SortedDict::from_values(vals)
        };
        let mut l1_values: Vec<Value> =
            self.l1.iter().map(|(_, s)| s.values[col].clone()).collect();
        // Frozen L2 values fold into the L1 side of the three-way merge.
        if let Some((frozen, fence)) = &self.l2_frozen {
            frozen.with_column(col, *fence, |dict, _| {
                l1_values.extend(dict.values().iter().cloned());
            });
        }
        Ok(self.l2.with_column(col, self.l2_fence, |dict, _| {
            GlobalSortedDict::build(&main_dict, dict, &l1_values)
        }))
    }

    /// Debugging: every physical version matching `col = v` with raw MVCC
    /// stamps, its stage, and whether this view considers it visible.
    #[doc(hidden)]
    pub fn debug_versions(&self, col: usize, v: &Value) -> Vec<(RowId, u64, u64, String, bool)> {
        let mut out = Vec::new();
        for hit in self.main.positions_eq(col, v) {
            let part = &self.main.parts()[hit.part];
            let (b, e) = (part.begin(hit.pos), part.end(hit.pos));
            out.push((
                part.row_id(hit.pos),
                b,
                e,
                format!("main[{}]", hit.part),
                self.visible(b, e),
            ));
        }
        if let Some((frozen, fence)) = &self.l2_frozen {
            for pos in frozen.positions_eq(col, v, *fence) {
                let (b, e) = (frozen.begin(pos), frozen.end(pos));
                out.push((
                    frozen.row_id(pos),
                    b,
                    e,
                    "l2-frozen".into(),
                    self.visible(b, e),
                ));
            }
        }
        for pos in self.l2.positions_eq(col, v, self.l2_fence) {
            let (b, e) = (self.l2.begin(pos), self.l2.end(pos));
            out.push((self.l2.row_id(pos), b, e, "l2".into(), self.visible(b, e)));
        }
        for (p, slot) in self.l1.iter() {
            if &slot.values[col] == v {
                let (b, e) = (slot.begin(), slot.end());
                out.push((slot.row_id, b, e, format!("l1@{p}"), self.visible(b, e)));
            }
        }
        out
    }

    /// Rows of this view per stage `(L1, frozen+open L2, main)` —
    /// diagnostics for the lifecycle benches.
    pub fn stage_row_counts(&self) -> (usize, usize, usize) {
        let l2 = self.l2_fence as usize + self.l2_frozen.as_ref().map_or(0, |(_, f)| *f as usize);
        (self.l1.len(), l2, self.main.total_rows())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hana_common::{ColumnDef, DataType, Schema, TableConfig};
    use hana_merge::MergeDecision;
    use hana_txn::{IsolationLevel, TxnManager};

    fn setup() -> (Arc<TxnManager>, Arc<UnifiedTable>) {
        let mgr = TxnManager::new();
        let schema = Schema::new(
            "sales",
            vec![
                ColumnDef::new("id", DataType::Int).unique(),
                ColumnDef::new("city", DataType::Str),
                ColumnDef::new("amount", DataType::Double),
            ],
        )
        .unwrap();
        let t = UnifiedTable::standalone(schema, TableConfig::default(), Arc::clone(&mgr));
        (mgr, t)
    }

    /// Insert `n` rows and move them all the way to the main store.
    fn main_resident(mgr: &Arc<TxnManager>, t: &Arc<UnifiedTable>, n: i64) {
        let mut txn = mgr.begin(IsolationLevel::Transaction);
        for i in 0..n {
            t.insert(
                &txn,
                vec![
                    Value::Int(i),
                    Value::str(if i % 2 == 0 { "even" } else { "odd" }),
                    Value::double(i as f64),
                ],
            )
            .unwrap();
        }
        txn.commit().unwrap();
        t.merge_l1().unwrap();
        t.merge_delta_as(MergeDecision::Classic).unwrap();
    }

    #[test]
    fn insert_then_read_through_l1() {
        let (mgr, t) = setup();
        let mut txn = mgr.begin(IsolationLevel::Transaction);
        t.insert(
            &txn,
            vec![Value::Int(1), Value::str("Los Gatos"), Value::double(10.0)],
        )
        .unwrap();
        txn.commit().unwrap();
        let reader = mgr.begin(IsolationLevel::Transaction);
        let read = t.read(&reader);
        assert_eq!(read.count(), 1);
        let rows = read.point(1, &Value::str("Los Gatos")).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::Int(1));
        let (c, s) = read.aggregate_numeric(2).unwrap();
        assert_eq!(c, 1);
        assert_eq!(s, 10.0);
        assert_eq!(read.stage_row_counts(), (1, 0, 0));
    }

    #[test]
    fn uncommitted_rows_invisible_to_others() {
        let (mgr, t) = setup();
        let txn = mgr.begin(IsolationLevel::Transaction);
        t.insert(&txn, vec![Value::Int(1), Value::str("x"), Value::Null])
            .unwrap();
        // Own statement sees it; others don't.
        assert_eq!(t.read(&txn).count(), 1);
        let other = mgr.begin(IsolationLevel::Transaction);
        assert_eq!(t.read(&other).count(), 0);
    }

    #[test]
    fn range_and_group_aggregate() {
        let (mgr, t) = setup();
        let mut txn = mgr.begin(IsolationLevel::Transaction);
        for (i, city) in ["Campbell", "Daily City", "Los Gatos", "Saratoga"]
            .iter()
            .enumerate()
        {
            t.insert(
                &txn,
                vec![
                    Value::Int(i as i64),
                    Value::str(*city),
                    Value::double(i as f64),
                ],
            )
            .unwrap();
        }
        t.insert(
            &txn,
            vec![Value::Int(9), Value::str("Campbell"), Value::double(5.0)],
        )
        .unwrap();
        txn.commit().unwrap();
        let reader = mgr.begin(IsolationLevel::Transaction);
        let read = t.read(&reader);
        let hits = read
            .range(
                1,
                Bound::Included(&Value::str("C")),
                Bound::Excluded(&Value::str("M")),
            )
            .unwrap();
        assert_eq!(hits.len(), 4); // Campbell ×2, Daily City, Los Gatos
        let groups = read.group_aggregate(1, 2).unwrap();
        let campbell = groups
            .iter()
            .find(|g| g.0 == Value::str("Campbell"))
            .unwrap();
        assert_eq!(campbell.1, 2);
        assert_eq!(campbell.2, 5.0);
    }

    #[test]
    fn global_dict_spans_stages() {
        let (mgr, t) = setup();
        let mut txn = mgr.begin(IsolationLevel::Transaction);
        for (i, c) in ["b", "a", "c"].iter().enumerate() {
            t.insert(
                &txn,
                vec![Value::Int(i as i64), Value::str(*c), Value::Null],
            )
            .unwrap();
        }
        txn.commit().unwrap();
        let reader = mgr.begin(IsolationLevel::Transaction);
        let g = t.read(&reader).global_sorted_dict(1).unwrap();
        let vals: Vec<Value> = g.iter().map(|(v, _)| v.clone()).collect();
        assert_eq!(vals, ["a", "b", "c"].map(Value::str).to_vec());
    }

    #[test]
    fn wholly_visible_main_skips_bitmaps() {
        let (mgr, t) = setup();
        main_resident(&mgr, &t, 100);
        let reader = mgr.begin(IsolationLevel::Transaction);
        let read = t.read(&reader);
        assert_eq!(read.count(), 100);
        // All rows committed, none deleted: the summary answers without
        // bitmaps, so neither hits nor misses accrue.
        assert_eq!(read.vis_cache_stats(), (0, 0));
    }

    #[test]
    fn visibility_bitmap_cached_across_statements() {
        let (mgr, t) = setup();
        main_resident(&mgr, &t, 100);
        // A deletion defeats the wholly-visible summary.
        let mut del = mgr.begin(IsolationLevel::Transaction);
        t.delete_where(&del, hana_common::ColumnId(0), &Value::Int(7))
            .unwrap();
        del.commit().unwrap();
        let reader = mgr.begin(IsolationLevel::Transaction);
        let r1 = t.read(&reader);
        assert_eq!(r1.count(), 99);
        assert_eq!(r1.vis_cache_stats(), (0, 1));
        // Second statement of the same transaction reuses the bitmap.
        let r2 = t.read(&reader);
        assert_eq!(r2.count(), 99);
        assert_eq!(r2.vis_cache_stats(), (1, 0));
        // A snapshot at a different timestamp recomputes.
        let later = mgr.begin(IsolationLevel::Transaction);
        let r3 = t.read(&later);
        assert_eq!(r3.count(), 99);
        assert_eq!(r3.vis_cache_stats(), (0, 1));
    }

    #[test]
    fn projection_narrows_rows() {
        let (mgr, t) = setup();
        main_resident(&mgr, &t, 10);
        let reader = mgr.begin(IsolationLevel::Transaction);
        let read = t.read(&reader);
        let narrow = read.project(&[2, 0]).unwrap();
        assert_eq!(narrow.len(), 10);
        assert_eq!(narrow[0].values.len(), 2);
        assert_eq!(narrow[3].values, vec![Value::double(3.0), Value::Int(3)]);
        // Full-width projected rows keep placeholders for untouched columns.
        let masked = read.collect_rows_projected(Some(&[0]));
        assert_eq!(
            masked[3].values,
            vec![Value::Int(3), Value::Null, Value::Null]
        );
        assert!(read.project(&[99]).is_err());
    }

    #[test]
    fn scan_filtered_matches_rowwise_filtering() {
        let (mgr, t) = setup();
        main_resident(&mgr, &t, 200);
        // Leave a few rows in L1 so every stage participates.
        let mut txn = mgr.begin(IsolationLevel::Transaction);
        for i in 200..210 {
            t.insert(
                &txn,
                vec![
                    Value::Int(i),
                    Value::str(if i % 2 == 0 { "even" } else { "odd" }),
                    Value::double(i as f64),
                ],
            )
            .unwrap();
        }
        txn.commit().unwrap();
        let reader = mgr.begin(IsolationLevel::Transaction);
        let read = t.read(&reader);
        let preds = vec![
            ColumnPredicate::Eq(1, Value::str("even")),
            ColumnPredicate::Range(
                0,
                Bound::Included(Value::Int(50)),
                Bound::Excluded(Value::Int(205)),
            ),
        ];
        let (rows, stats) = read.scan_filtered(&preds, None).unwrap();
        let expect: Vec<VisibleRow> = read
            .collect_rows()
            .into_iter()
            .filter(|r| preds.iter().all(|p| p.matches_value(&r.values[p.column()])))
            .collect();
        assert_eq!(rows, expect);
        assert!(!rows.is_empty());
        // The Eq conjunct routed through the inverted index.
        assert_eq!(stats.index_probes, 1);
        assert!(stats.code_filtered_rows > 0);
        assert_eq!(stats.rowwise_rows, 10);
    }

    #[test]
    fn scan_filtered_zone_pruning_and_empty_filters() {
        let (mgr, t) = setup();
        main_resident(&mgr, &t, 200);
        let reader = mgr.begin(IsolationLevel::Transaction);
        let read = t.read(&reader);
        // Range entirely above the part's max id: part-level zone map prunes
        // everything before any kernel runs.
        let preds = vec![ColumnPredicate::Range(
            0,
            Bound::Included(Value::Int(1_000)),
            Bound::Excluded(Value::Int(2_000)),
        )];
        let (rows, stats) = read.scan_filtered(&preds, None).unwrap();
        assert!(rows.is_empty());
        assert_eq!(stats.parts_pruned, 1);
        assert_eq!(stats.zone_pruned_rows, 200);
        assert_eq!(stats.code_filtered_rows, 0);
        // In-range kernel path (no Eq): decides rows in the code domain.
        let preds = vec![ColumnPredicate::Range(
            0,
            Bound::Included(Value::Int(10)),
            Bound::Excluded(Value::Int(20)),
        )];
        let (rows, stats) = read.scan_filtered(&preds, None).unwrap();
        assert_eq!(rows.len(), 10);
        assert_eq!(stats.code_filtered_rows, 200);
        assert_eq!(stats.index_probes, 0);
        // IS NULL on a never-null column: empty compiled filter + no nulls
        // in the zone map prunes the part.
        let (rows, _) = read
            .scan_filtered(&[ColumnPredicate::IsNull(1)], None)
            .unwrap();
        assert!(rows.is_empty());
    }

    #[test]
    fn parallel_scan_matches_serial_over_main() {
        let mgr = TxnManager::new();
        let schema = Schema::new(
            "sales",
            vec![
                ColumnDef::new("id", DataType::Int).unique(),
                ColumnDef::new("city", DataType::Str),
                ColumnDef::new("amount", DataType::Double),
            ],
        )
        .unwrap();
        let serial_t = UnifiedTable::standalone(
            schema.clone(),
            TableConfig::default().with_scan(hana_common::ScanConfig::serial()),
            Arc::clone(&mgr),
        );
        let par_t = UnifiedTable::standalone(
            schema,
            TableConfig::default()
                .with_scan(hana_common::ScanConfig::default().with_scan_parallelism(4)),
            Arc::clone(&mgr),
        );
        for t in [&serial_t, &par_t] {
            main_resident(&mgr, t, 500);
        }
        let reader = mgr.begin(IsolationLevel::Transaction);
        let rs = serial_t.read(&reader);
        let rp = par_t.read(&reader);
        let rows_s: Vec<Vec<Value>> = rs.collect_rows().into_iter().map(|r| r.values).collect();
        let rows_p: Vec<Vec<Value>> = rp.collect_rows().into_iter().map(|r| r.values).collect();
        assert_eq!(rows_s, rows_p);
        assert_eq!(
            rs.aggregate_numeric(2).unwrap(),
            rp.aggregate_numeric(2).unwrap()
        );
        assert_eq!(
            rs.group_aggregate(1, 2).unwrap(),
            rp.group_aggregate(1, 2).unwrap()
        );
    }

    /// `n` rows bulk-loaded and merged into a single main part.
    fn main_part_of(mgr: &Arc<TxnManager>, t: &Arc<UnifiedTable>, n: i64) {
        let mut txn = mgr.begin(IsolationLevel::Transaction);
        let rows = (0..n)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::str(if i % 2 == 0 { "even" } else { "odd" }),
                    Value::double(i as f64),
                ]
            })
            .collect();
        t.bulk_load(&txn, rows).unwrap();
        txn.commit().unwrap();
        t.merge_delta_as(MergeDecision::Classic).unwrap();
    }

    #[test]
    fn point_lookup_reads_only_its_hits_stamps() {
        let (mgr, t) = setup();
        main_part_of(&mgr, &t, 10_000);
        // A committed deletion bumps the part's end version, so neither the
        // wholly-visible summary nor any cached bitmap applies to a fresh
        // snapshot.
        let mut del = mgr.begin(IsolationLevel::Transaction);
        t.delete_where(&del, hana_common::ColumnId(0), &Value::Int(7))
            .unwrap();
        del.commit().unwrap();
        let reader = mgr.begin(IsolationLevel::Transaction);
        let read = t.read(&reader);
        let part = Arc::clone(&read.main().parts()[0]);
        assert_eq!(part.len(), 10_000);
        let cached = part.vis_cache_len();
        assert_eq!(read.point(0, &Value::Int(42)).unwrap().len(), 1);
        assert!(read.point(0, &Value::Int(7)).unwrap().is_empty());
        assert_eq!(
            read.vis_cache_stats(),
            (0, 0),
            "a point lookup built a bitmap"
        );
        assert_eq!(part.vis_cache_len(), cached);
        // A hit list past the cutover still builds (and caches) one bitmap.
        let lo = Value::Int(0);
        let hi = Value::Int(1_000);
        assert!(1_000 * PER_HIT_STAMP_COST >= part.len());
        let rows = read
            .range(0, Bound::Included(&lo), Bound::Excluded(&hi))
            .unwrap();
        assert_eq!(rows.len(), 999);
        assert_eq!(read.vis_cache_stats(), (0, 1));
        assert_eq!(part.vis_cache_len(), cached + 1);
    }

    /// A stamp-producing step of [`per_hit_visibility_matches_full_scan`].
    #[derive(Debug, Clone)]
    enum StampOp {
        /// Committed deletion.
        Delete(i64),
        /// Committed update (closes the main version, adds one to L1).
        Update(i64),
        /// Deletion by a transaction left open: an uncommitted end mark.
        OpenDelete(i64),
        /// Deletion by the reader itself.
        OwnDelete(i64),
        /// Update by the reader itself.
        OwnUpdate(i64),
        /// Remember the current timestamp for a time-travel read.
        Mark,
    }

    /// Rows in the property test's main part: ten hits per part sit exactly
    /// at the cutover, so id ranges of 1..40 land on both sides of it.
    const PROP_ROWS: i64 = 10 * PER_HIT_STAMP_COST as i64;

    fn stamp_op() -> impl proptest::prelude::Strategy<Value = StampOp> {
        use proptest::prelude::*;
        prop_oneof![
            3 => (0..PROP_ROWS).prop_map(StampOp::Delete),
            3 => (0..PROP_ROWS).prop_map(StampOp::Update),
            2 => (0..PROP_ROWS).prop_map(StampOp::OpenDelete),
            2 => (0..PROP_ROWS).prop_map(StampOp::OwnDelete),
            2 => (0..PROP_ROWS).prop_map(StampOp::OwnUpdate),
            1 => Just(StampOp::Mark),
        ]
    }

    /// Rows as sortable strings, for order-insensitive comparison.
    fn sorted(rows: impl IntoIterator<Item = Vec<Value>>) -> Vec<String> {
        let mut out: Vec<String> = rows.into_iter().map(|r| format!("{r:?}")).collect();
        out.sort();
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        #[test]
        fn per_hit_visibility_matches_full_scan(
            ops in proptest::collection::vec(stamp_op(), 0..30),
            ids in proptest::collection::vec(0..PROP_ROWS, 1..8),
            spans in proptest::collection::vec((0..PROP_ROWS, 1i64..40), 1..4),
        ) {
            let (mgr, t) = setup();
            main_part_of(&mgr, &t, PROP_ROWS);
            let id = hana_common::ColumnId(0);
            let amount = hana_common::ColumnId(2);
            let reader = mgr.begin(IsolationLevel::Transaction);
            let mut open = Vec::new();
            let mut marks = Vec::new();
            for op in &ops {
                match *op {
                    StampOp::Delete(k) | StampOp::Update(k) => {
                        let mut txn = mgr.begin(IsolationLevel::Transaction);
                        let done = if matches!(op, StampOp::Delete(_)) {
                            t.delete_where(&txn, id, &Value::Int(k)).is_ok()
                        } else {
                            t.update_where(&txn, id, &Value::Int(k), &[(amount, Value::double(-1.0))])
                                .is_ok()
                        };
                        if done {
                            txn.commit().unwrap();
                        } else {
                            txn.abort().unwrap();
                        }
                        t.finish_txn(txn.id());
                    }
                    StampOp::OpenDelete(k) => {
                        let txn = mgr.begin(IsolationLevel::Transaction);
                        let _ = t.delete_where(&txn, id, &Value::Int(k));
                        open.push(txn);
                    }
                    StampOp::OwnDelete(k) => {
                        let _ = t.delete_where(&reader, id, &Value::Int(k));
                    }
                    StampOp::OwnUpdate(k) => {
                        let _ = t.update_where(&reader, id, &Value::Int(k), &[(amount, Value::double(-2.0))]);
                    }
                    StampOp::Mark => marks.push(mgr.now()),
                }
            }
            // Probe every id an op touched as well as the random ones.
            let ids: Vec<i64> = ops
                .iter()
                .filter_map(|op| match *op {
                    StampOp::Delete(k)
                    | StampOp::Update(k)
                    | StampOp::OpenDelete(k)
                    | StampOp::OwnDelete(k)
                    | StampOp::OwnUpdate(k) => Some(k),
                    StampOp::Mark => None,
                })
                .chain(ids)
                .collect();
            let outsider = mgr.begin(IsolationLevel::Transaction);
            let snaps: Vec<Snapshot> = [reader.read_snapshot(), outsider.read_snapshot()]
                .into_iter()
                .chain(marks.into_iter().map(Snapshot::at))
                .collect();
            for snap in snaps {
                // Point and range answers first: a full scan caches bitmaps
                // that later statements at this snapshot would reuse.
                let read = t.read_at(snap);
                let points: Vec<_> = ids
                    .iter()
                    .map(|&k| sorted(read.point(0, &Value::Int(k)).unwrap()))
                    .collect();
                // Single-hit lookups never build a bitmap.
                assert_eq!(read.vis_cache_stats().1, 0);
                let buckets: Vec<_> = ["even", "odd"]
                    .iter()
                    .map(|c| sorted(read.point(1, &Value::str(*c)).unwrap()))
                    .collect();
                let ranges: Vec<_> = spans
                    .iter()
                    .map(|&(lo, w)| {
                        let (lo, hi) = (Value::Int(lo), Value::Int(lo + w));
                        sorted(read.range(0, Bound::Included(&lo), Bound::Excluded(&hi)).unwrap())
                    })
                    .collect();
                let all = t.read_at(snap).collect_rows();
                let expect = |keep: &dyn Fn(&[Value]) -> bool| {
                    sorted(all.iter().filter(|r| keep(&r.values)).map(|r| r.values.clone()))
                };
                for (&k, got) in ids.iter().zip(&points) {
                    assert_eq!(got, &expect(&|r| r[0] == Value::Int(k)), "point id {k} at {snap:?}");
                }
                for (c, got) in ["even", "odd"].iter().zip(&buckets) {
                    assert_eq!(got, &expect(&|r| r[1] == Value::str(*c)), "point city {c} at {snap:?}");
                }
                for (&(lo, w), got) in spans.iter().zip(&ranges) {
                    let inside = |r: &[Value]| r[0] >= Value::Int(lo) && r[0] < Value::Int(lo + w);
                    assert_eq!(got, &expect(&inside), "range [{lo}, {}) at {snap:?}", lo + w);
                }
            }
        }
    }
}
