//! The OLAP query stream: Q1–Q5 of `hana_workload::olap`, run through
//! calc compile → optimize → execute with one span per layer call.
//!
//! `OlapRunner::run_unified` runs all three steps in one call; the
//! builders below restate its five queries so each step can be timed on
//! its own. `OlapRunner::run_row_baseline` stays the row-store oracle.

use crate::trace::Tracer;
use hana_calc::{AggFunc, ExecStats, Executor, Expr, Predicate, Query, ResultSet};
use hana_common::{Result, Value};
use hana_core::UnifiedTable;
use hana_txn::Snapshot;
use hana_workload::sales::fact_cols;
use std::sync::Arc;

/// Root span names, one per query.
pub const ROOTS: [&str; 5] = ["req.q1", "req.q2", "req.q3", "req.q4", "req.q5"];

/// Query `q` (0-based) of the set, as a logical plan over `table`.
pub fn query(table: &Arc<UnifiedTable>, q: usize) -> Query {
    let scan = Query::scan(Arc::clone(table));
    match q {
        0 => scan.aggregate(vec![], vec![(AggFunc::Sum, fact_cols::AMOUNT)]),
        1 => scan.aggregate(
            vec![fact_cols::CITY],
            vec![(AggFunc::Count, 0), (AggFunc::Sum, fact_cols::AMOUNT)],
        ),
        2 => scan
            .filter(Predicate::Eq(fact_cols::CITY, Value::str("Los Gatos")))
            .aggregate(
                vec![],
                vec![(AggFunc::Count, 0), (AggFunc::Sum, fact_cols::AMOUNT)],
            ),
        3 => scan.aggregate(vec![fact_cols::STATUS], vec![(AggFunc::Count, 0)]),
        4 => scan
            .filter(Predicate::Between(
                fact_cols::AMOUNT,
                Value::Int(1_000),
                Value::Int(5_000),
            ))
            .project(vec![(
                "weighted",
                Expr::col(fact_cols::AMOUNT).mul(Expr::col(fact_cols::QUANTITY)),
            )])
            .aggregate(vec![], vec![(AggFunc::Sum, 0)]),
        _ => unreachable!("five queries"),
    }
}

/// Work counters summed over the queries run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecTotals {
    /// Queries folded in.
    pub queries: u64,
    /// Full table scans.
    pub full_scans: u64,
    /// Scans answered through index or dictionary resolution.
    pub indexed_scans: u64,
    /// Main rows skipped by zone maps.
    pub zone_pruned_rows: u64,
    /// Rows filtered on dictionary codes.
    pub code_filtered_rows: u64,
    /// Rows evaluated row-wise.
    pub residue_rows: u64,
    /// Visibility bitmaps reused.
    pub bitmap_hits: u64,
    /// Visibility bitmaps computed.
    pub bitmap_misses: u64,
    /// Governor admission wait, ns.
    pub governor_wait_ns: u64,
    /// Summed effective scan fan-out.
    pub parallelism: u64,
}

impl ExecTotals {
    fn add(&mut self, s: &ExecStats) {
        self.queries += 1;
        self.full_scans += s.full_scans as u64;
        self.indexed_scans += s.indexed_scans as u64;
        self.zone_pruned_rows += s.zone_pruned_rows;
        self.code_filtered_rows += s.code_filtered_rows;
        self.residue_rows += s.residue_rows;
        self.bitmap_hits += s.bitmap_cache_hits;
        self.bitmap_misses += s.bitmap_cache_misses;
        self.governor_wait_ns += s.governor_wait_ns;
        self.parallelism += s.effective_parallelism as u64;
    }
}

/// Run query `q` under `snap` as one request.
pub fn run(
    table: &Arc<UnifiedTable>,
    q: usize,
    snap: Snapshot,
    tr: &mut Tracer,
    totals: &mut ExecTotals,
) -> Result<ResultSet> {
    tr.request(ROOTS[q], |tr| {
        let plan = query(table, q);
        let mut g = tr.span("calc.compile", || plan.compile());
        tr.span("calc.optimize", || hana_calc::optimize(&mut g));
        let mut exec = Executor::new(snap);
        let out = tr.span("calc.exec", || exec.run(&g));
        totals.add(exec.stats());
        out
    })
}

/// Result rows in a canonical order, for comparison across engines.
pub fn canonical(rs: &ResultSet) -> Vec<Vec<Value>> {
    let mut rows = rs.rows.clone();
    rows.sort();
    rows
}

/// Whether two canonical results agree: same shape, equal strings,
/// numerically equal numbers (counts and sums may come back as integer or
/// double depending on the engine).
pub fn same(a: &[Vec<Value>], b: &[Vec<Value>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(ra, rb)| {
            ra.len() == rb.len()
                && ra
                    .iter()
                    .zip(rb)
                    .all(|(x, y)| match (x.as_numeric(), y.as_numeric()) {
                        (Some(p), Some(q)) => p == q,
                        _ => x == y,
                    })
        })
}

/// Check query `q`'s answer against the table's `(count, sum(amount))`
/// taken at the same snapshot.
pub fn check_invariant(
    q: usize,
    rs: &ResultSet,
    count: u64,
    sum: f64,
) -> std::result::Result<(), String> {
    let col = |c: usize| -> f64 {
        rs.rows
            .iter()
            .map(|r| r[c].as_numeric().unwrap_or(f64::NAN))
            .sum()
    };
    let ok = match q {
        0 => rs.rows.len() == 1 && col(0) == sum,
        1 => col(1) == count as f64 && col(2) == sum,
        2 => rs.rows.len() == 1 && col(0) <= count as f64 && col(1) <= sum,
        3 => col(1) == count as f64,
        4 => rs.rows.len() == 1 && (0.0..=20.0 * sum).contains(&col(0)),
        _ => unreachable!("five queries"),
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "Q{} answer {:?} contradicts count {count} / sum {sum} at its snapshot",
            q + 1,
            rs.rows
        ))
    }
}
