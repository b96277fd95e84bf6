//! The benchmark's own OLTP op stream, shadow model and executors.
//!
//! The stream is the ERP mix of `hana_workload::OltpDriver` (25% new
//! order, 35% payment, 35% lookup, 5% cancel, Zipf-skewed keys), made
//! stationary: payments and lookups draw Zipf keys from the preloaded
//! orders, and cancels delete only orders this run inserted, so the hot
//! keys stay live and every lookup must hit. A shadow model of every live
//! order checks each lookup and payment as it runs and the whole table at
//! the end.

use crate::trace::Tracer;
use hana_common::{ColumnId, HanaError, Result, Value};
use hana_core::{Database, UnifiedTable};
use hana_rowstore::RowTable;
use hana_txn::{IsolationLevel, TxnManager};
use hana_workload::sales::{fact_cols, SalesSchema};
use hana_workload::{DataGen, OltpOp, Zipf};
use rand::Rng;
use std::collections::HashMap;
use std::sync::Arc;

/// Customer cardinality of the generated orders.
pub const CUSTOMERS: i64 = 1_000;
/// Product cardinality of the generated orders.
pub const PRODUCTS: i64 = 200;
/// Zipf exponent of payment and lookup keys.
pub const SKEW: f64 = 0.9;

const KEY: ColumnId = ColumnId(fact_cols::ORDER_ID as u16);
const AMOUNT: ColumnId = ColumnId(fact_cols::AMOUNT as u16);
const STATUS: ColumnId = ColumnId(fact_cols::STATUS as u16);

/// Index of `op`'s class: new order, payment, lookup, cancel.
pub fn class_of(op: &OltpOp) -> usize {
    match op {
        OltpOp::NewOrder(_) => 0,
        OltpOp::Payment { .. } => 1,
        OltpOp::Lookup(_) => 2,
        OltpOp::Cancel(_) => 3,
    }
}

fn root_span(op: &OltpOp) -> &'static str {
    ["req.new_order", "req.payment", "req.lookup", "req.cancel"][class_of(op)]
}

/// The preloaded orders `0..n` of seed `seed`, in id order.
pub fn preload_rows(seed: u64, n: i64) -> impl Iterator<Item = Vec<Value>> {
    let mut gen = DataGen::new(seed);
    (0..n).map(move |id| SalesSchema::fact_row(&mut gen, id, CUSTOMERS, PRODUCTS))
}

/// Expected `(amount, status)` of every live order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Shadow {
    rows: HashMap<i64, (i64, i64)>,
    /// Orders this run inserted and has not cancelled, in insert order.
    own: Vec<i64>,
}

impl Shadow {
    /// Shadow of freshly loaded rows.
    pub fn from_rows<'a>(rows: impl IntoIterator<Item = &'a Vec<Value>>) -> Shadow {
        let mut s = Shadow::default();
        for r in rows {
            s.rows.insert(int(&r[fact_cols::ORDER_ID]), row_state(r));
        }
        s
    }

    /// Live orders.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Check a point-lookup result for `id`: exactly one row with the
    /// shadow's amount and status.
    pub fn check(&self, id: i64, rows: &[Vec<Value>]) -> Checked {
        let want = self.rows.get(&id);
        match (rows, want) {
            ([row], Some(&w)) if row_state(row) == w => Ok(()),
            _ => Err(format!(
                "order {id}: read {:?}, expected {want:?}",
                rows.iter().map(|r| row_state(r)).collect::<Vec<_>>()
            )),
        }
    }

    /// Apply an acknowledged op. `cancel_slot` is the index in the own
    /// list the generator drew the cancel from.
    pub fn apply(&mut self, op: &OltpOp, cancel_slot: Option<usize>) {
        match op {
            OltpOp::NewOrder(row) => {
                let id = int(&row[fact_cols::ORDER_ID]);
                self.rows.insert(id, row_state(row));
                self.own.push(id);
            }
            OltpOp::Payment { order_id, delta } => {
                let e = self
                    .rows
                    .get_mut(order_id)
                    .expect("payment of a live order");
                *e = (e.0 + delta, 1);
            }
            OltpOp::Lookup(_) => {}
            OltpOp::Cancel(id) => {
                self.rows.remove(id);
                self.own
                    .swap_remove(cancel_slot.expect("cancel drawn from the own list"));
            }
        }
    }

    /// Compare every visible row of a full scan with the model: each live
    /// order visible once with its amount and status, nothing else.
    pub fn verify_scan(&self, rows: &[Vec<Value>]) -> Checked {
        let mut seen: HashMap<i64, (i64, i64)> = HashMap::with_capacity(rows.len());
        for r in rows {
            let id = int(&r[fact_cols::ORDER_ID]);
            if seen.insert(id, row_state(r)).is_some() {
                return Err(format!("order {id} visible twice"));
            }
        }
        for (id, want) in &self.rows {
            match seen.get(id) {
                None => return Err(format!("acknowledged order {id} missing")),
                Some(got) if got != want => {
                    return Err(format!("order {id}: read {got:?}, expected {want:?}"))
                }
                Some(_) => {}
            }
        }
        if seen.len() != self.rows.len() {
            let extra = seen.keys().find(|id| !self.rows.contains_key(id));
            return Err(format!(
                "{} visible orders, {} expected (e.g. cancelled order {extra:?} visible)",
                seen.len(),
                self.rows.len()
            ));
        }
        Ok(())
    }
}

fn int(v: &Value) -> i64 {
    v.as_int().expect("integer column")
}

fn row_state(row: &[Value]) -> (i64, i64) {
    (int(&row[fact_cols::AMOUNT]), int(&row[fact_cols::STATUS]))
}

/// Seeded generator of the op stream.
pub struct OpGen {
    gen: DataGen,
    zipf: Zipf,
    next_id: i64,
}

impl OpGen {
    /// The stream of seed `seed` over `preloaded` orders `0..preloaded`.
    pub fn new(seed: u64, preloaded: i64) -> OpGen {
        OpGen {
            gen: DataGen::new(seed ^ 0x0417_0417),
            zipf: Zipf::new(preloaded as usize, SKEW),
            next_id: preloaded,
        }
    }

    /// The next op, and for a cancel the slot of the own list it deletes.
    /// With no own order left to cancel, a cancel roll becomes a new order.
    pub fn next(&mut self, shadow: &Shadow) -> (OltpOp, Option<usize>) {
        let roll = self.gen.rng().gen_range(0..100u32);
        if roll >= 95 && !shadow.own.is_empty() {
            let slot = self.gen.rng().gen_range(0..shadow.own.len());
            return (OltpOp::Cancel(shadow.own[slot]), Some(slot));
        }
        let op = match roll {
            25..=59 => OltpOp::Payment {
                order_id: self.zipf.sample(self.gen.rng()) as i64,
                delta: self.gen.amount(100),
            },
            60..=94 => OltpOp::Lookup(self.zipf.sample(self.gen.rng()) as i64),
            _ => {
                let id = self.next_id;
                self.next_id += 1;
                OltpOp::NewOrder(SalesSchema::fact_row(
                    &mut self.gen,
                    id,
                    CUSTOMERS,
                    PRODUCTS,
                ))
            }
        };
        (op, None)
    }
}

/// How one op ended.
#[derive(Debug)]
pub enum Outcome {
    /// Committed, and every value it read matched the shadow.
    Ok,
    /// It read a value the shadow contradicts (aborted).
    Wrong(String),
    /// The engine returned an error (aborted).
    Failed(HanaError),
}

/// What an op's reads showed: `Err` describes a value the shadow
/// contradicts.
type Checked = std::result::Result<(), String>;

/// The outcome of an op body that did not succeed, or `None` to commit.
fn failure(body: Result<Checked>) -> Option<Outcome> {
    match body {
        Ok(Ok(())) => None,
        Ok(Err(wrong)) => Some(Outcome::Wrong(wrong)),
        Err(e) => Some(Outcome::Failed(e)),
    }
}

/// Visibility-cache counters of the read views used by point reads.
#[derive(Debug, Clone, Copy, Default)]
pub struct PointStats {
    /// `TableRead::point` calls.
    pub calls: u64,
    /// Visibility bitmaps reused.
    pub hits: u64,
    /// Visibility bitmaps computed from raw stamps.
    pub misses: u64,
}

/// Executes ops against a unified table, committing through
/// `Database::commit`/`abort` (the production path), with one span per
/// call into a layer.
pub struct UnifiedExec {
    /// The database owning the table.
    pub db: Arc<Database>,
    /// The sales fact table.
    pub table: Arc<UnifiedTable>,
    /// Point-read cache counters.
    pub points: PointStats,
}

impl UnifiedExec {
    /// Run `op` as one transaction and check what it read.
    pub fn execute(&mut self, op: &OltpOp, shadow: &Shadow, tr: &mut Tracer) -> Outcome {
        tr.request(root_span(op), |tr| {
            let mut txn = tr.span("txn.begin", || self.db.begin(IsolationLevel::Transaction));
            let body: Result<Checked> = match op {
                OltpOp::NewOrder(row) => tr
                    .span("core.insert", || self.table.insert(&txn, row.clone()))
                    .map(|_| Ok(())),
                OltpOp::Payment { order_id, delta } => {
                    self.point(&txn, *order_id, tr).and_then(|rows| {
                        if let Err(e) = shadow.check(*order_id, &rows) {
                            return Ok(Err(e));
                        }
                        let amount = int(&rows[0][fact_cols::AMOUNT]) + delta;
                        let set = [(AMOUNT, Value::Int(amount)), (STATUS, Value::Int(1))];
                        tr.span("core.update_where", || {
                            self.table
                                .update_where(&txn, KEY, &Value::Int(*order_id), &set)
                        })
                        .map(|_| Ok(()))
                    })
                }
                OltpOp::Lookup(id) => self
                    .point(&txn, *id, tr)
                    .map(|rows| shadow.check(*id, &rows)),
                OltpOp::Cancel(id) => tr
                    .span("core.delete_where", || {
                        self.table.delete_where(&txn, KEY, &Value::Int(*id))
                    })
                    .map(|_| Ok(())),
            };
            match failure(body) {
                None => tr
                    .span("txn.commit", || self.db.commit(&mut txn))
                    .map_or_else(Outcome::Failed, |_| Outcome::Ok),
                Some(failed) => {
                    // An abort error would not change the outcome.
                    let _ = tr.span("txn.abort", || self.db.abort(&mut txn));
                    failed
                }
            }
        })
    }

    fn point(
        &mut self,
        txn: &hana_txn::Transaction,
        id: i64,
        tr: &mut Tracer,
    ) -> Result<Vec<Vec<Value>>> {
        let view = tr.span("core.read_view", || self.table.read(txn));
        let rows = tr.span("core.point", || {
            view.point(fact_cols::ORDER_ID, &Value::Int(id))
        });
        let (hits, misses) = view.vis_cache_stats();
        self.points.calls += 1;
        self.points.hits += hits;
        self.points.misses += misses;
        rows
    }
}

/// Executes the same ops against the P*Time-style row store (reference
/// only: it never gates the engine).
pub struct RowExec {
    /// The row table.
    pub table: RowTable,
    /// Its transaction manager.
    pub mgr: Arc<TxnManager>,
}

impl RowExec {
    /// A row table holding `rows`.
    pub fn load(rows: &[Vec<Value>]) -> Result<RowExec> {
        let mgr = TxnManager::new();
        let table = RowTable::new(SalesSchema::fact(), KEY, Arc::clone(&mgr))?;
        let mut txn = mgr.begin(IsolationLevel::Transaction);
        for r in rows {
            table.insert(&txn, r.clone())?;
        }
        txn.commit()?;
        table.finish_txn(txn.id());
        Ok(RowExec { table, mgr })
    }

    /// Run `op` as one transaction and check what it read.
    pub fn execute(&self, op: &OltpOp, shadow: &Shadow) -> Outcome {
        let mut txn = self.mgr.begin(IsolationLevel::Transaction);
        let snap = txn.read_snapshot();
        let get = |id: i64| -> Result<Vec<Vec<Value>>> {
            Ok(self
                .table
                .get(&snap, &Value::Int(id))?
                .into_iter()
                .collect())
        };
        let body: Result<Checked> = match op {
            OltpOp::NewOrder(row) => self.table.insert(&txn, row.clone()).map(|_| Ok(())),
            OltpOp::Payment { order_id, delta } => get(*order_id).and_then(|rows| {
                if let Err(e) = shadow.check(*order_id, &rows) {
                    return Ok(Err(e));
                }
                let key = Value::Int(*order_id);
                let amount = int(&rows[0][fact_cols::AMOUNT]) + delta;
                self.table.update(&txn, &key, AMOUNT, Value::Int(amount))?;
                self.table.update(&txn, &key, STATUS, Value::Int(1))?;
                Ok(Ok(()))
            }),
            OltpOp::Lookup(id) => get(*id).map(|rows| shadow.check(*id, &rows)),
            OltpOp::Cancel(id) => self.table.delete(&txn, &Value::Int(*id)).map(|_| Ok(())),
        };
        let outcome = match failure(body) {
            None => txn.commit().map_or_else(Outcome::Failed, |_| Outcome::Ok),
            Some(failed) => {
                let _ = txn.abort();
                failed
            }
        };
        self.table.finish_txn(txn.id());
        outcome
    }
}

/// Open-loop schedule: request `k` is due `k * interval_ns` after the
/// start, whether or not earlier requests have finished. Latency runs
/// from the due time, so a stall also delays every request queued behind
/// it; lateness is how long after its due time a request was sent.
#[derive(Debug, Clone, Default)]
pub struct OpenLoop {
    interval_ns: u64,
    next: u64,
    /// Requests sent.
    pub sent: u64,
    /// Summed lateness, ns.
    pub lateness_ns: u64,
}

impl OpenLoop {
    /// A schedule of `rate_per_s` requests per second.
    pub fn new(rate_per_s: u64) -> OpenLoop {
        OpenLoop {
            interval_ns: 1_000_000_000 / rate_per_s.max(1),
            ..OpenLoop::default()
        }
    }

    /// Due time (ns since start) of the next request; advances the
    /// schedule.
    pub fn next_due(&mut self) -> u64 {
        let due = self.next * self.interval_ns;
        self.next += 1;
        due
    }

    /// Account a request due at `due_ns`, sent at `sent_ns` and finished
    /// at `end_ns`; returns its latency from the due time.
    pub fn record(&mut self, due_ns: u64, sent_ns: u64, end_ns: u64) -> u64 {
        let late = sent_ns.saturating_sub(due_ns);
        self.sent += 1;
        self.lateness_ns += late;
        end_ns - due_ns
    }

    /// Requests due strictly before `end_ns`.
    pub fn due_before(&self, end_ns: u64) -> u64 {
        end_ns.div_ceil(self.interval_ns)
    }

    /// Mean lateness, µs.
    pub fn mean_lateness_us(&self) -> f64 {
        self.lateness_ns as f64 / self.sent.max(1) as f64 / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replay a single-sender open loop over given service times: a
    /// request is sent at its due time or when the previous one finished,
    /// whichever is later.
    fn simulate(rate: u64, service_ns: &[u64]) -> (OpenLoop, Vec<u64>) {
        let mut ol = OpenLoop::new(rate);
        let mut free_at = 0u64;
        let mut lat = Vec::new();
        for &s in service_ns {
            let due = ol.next_due();
            let sent = due.max(free_at);
            free_at = sent + s;
            lat.push(ol.record(due, sent, free_at));
        }
        (ol, lat)
    }

    #[test]
    fn open_loop_on_time_when_service_is_short() {
        // 1000/s = one request per ms, each served in 0.2 ms.
        let (ol, lat) = simulate(1_000, &[200_000; 5]);
        assert_eq!(lat, vec![200_000; 5]);
        assert_eq!(ol.lateness_ns, 0);
        assert_eq!(ol.sent, 5);
    }

    #[test]
    fn open_loop_charges_a_stall_to_every_request_queued_behind_it() {
        // The first request stalls for 3.5 ms: the next three were due
        // during the stall and are sent late; a closed loop would have
        // hidden that wait.
        let (ol, lat) = simulate(1_000, &[3_500_000, 100_000, 100_000, 100_000, 100_000]);
        // Sends at 3.5, 3.6, 3.7, 4.0 ms against dues of 1, 2, 3, 4 ms.
        assert_eq!(lat, vec![3_500_000, 2_600_000, 1_700_000, 800_000, 100_000]);
        assert_eq!(ol.lateness_ns, 2_500_000 + 1_600_000 + 700_000);
        assert!((ol.mean_lateness_us() - 960.0).abs() < 1e-9);
        // Five were due before 5 ms, the sixth only at 5 ms.
        assert_eq!(ol.due_before(5_000_000), 5);
        assert_eq!(ol.due_before(5_000_001), 6);
    }

    #[test]
    fn stream_is_seeded_and_cancels_only_own_orders() {
        let run = |seed| {
            let rows: Vec<_> = preload_rows(seed, 1_000).collect();
            let mut shadow = Shadow::from_rows(&rows);
            let mut gen = OpGen::new(seed, 1_000);
            let mut ops = Vec::new();
            for _ in 0..5_000 {
                let (op, slot) = gen.next(&shadow);
                if let OltpOp::Cancel(id) = op {
                    assert!(id >= 1_000, "cancelled a preloaded order");
                }
                shadow.apply(&op, slot);
                ops.push(op);
            }
            (ops, shadow)
        };
        let (a, sa) = run(3);
        let (b, _) = run(3);
        let (c, _) = run(4);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Every preloaded (Zipf-hot) order is still live.
        assert!((0..1_000).all(|id| sa.rows.contains_key(&id)));
        let mut counts = [0usize; 4];
        for op in &a {
            counts[class_of(op)] += 1;
        }
        let share = |n: usize| n as f64 / a.len() as f64;
        assert!((share(counts[1]) - 0.35).abs() < 0.03, "{counts:?}");
        assert!((share(counts[2]) - 0.35).abs() < 0.03, "{counts:?}");
        assert!((share(counts[3]) - 0.05).abs() < 0.02, "{counts:?}");
    }

    #[test]
    fn shadow_flags_wrong_and_missing_rows() {
        let rows: Vec<_> = preload_rows(1, 3).collect();
        let shadow = Shadow::from_rows(&rows);
        assert!(shadow.check(1, &rows[1..2]).is_ok());
        assert!(shadow.check(1, &[]).is_err());
        assert!(shadow.check(1, &rows[0..1]).is_err());
        let mut twice = rows.clone();
        twice.push(rows[2].clone());
        assert!(shadow.verify_scan(&rows).is_ok());
        assert!(shadow.verify_scan(&twice).is_err());
        assert!(shadow.verify_scan(&rows[..2]).is_err());
    }
}
