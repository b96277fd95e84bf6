//! Fig 3 — the calc-graph sample model.
//!
//! Claims regenerated: (a) a shared subexpression ("the result of an
//! operator may have multiple consumers") evaluates once, so the diamond
//! plan costs roughly one filtered scan, not two; (b) the optimizer's
//! filter-into-scan fusion turns a selective filter into an index lookup.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hana_bench::{staged_sales, Stage};
use hana_calc::{optimize, CalcGraph, CalcNode, Executor, Expr, Predicate};
use hana_common::Value;
use hana_core::IntoGroup;
use hana_txn::Snapshot;
use hana_workload::sales::fact_cols;
use std::sync::Arc;

const ROWS: i64 = 30_000;

fn diamond(table: &Arc<hana_core::UnifiedTable>, shared: bool) -> CalcGraph {
    let mut g = CalcGraph::new();
    let pred = Predicate::Gt(fact_cols::AMOUNT, Value::Int(5_000));
    let mk_branch = |g: &mut CalcGraph, f| {
        g.add(CalcNode::Project {
            input: f,
            exprs: vec![("a".into(), Expr::col(fact_cols::AMOUNT))],
        })
    };
    if shared {
        let s = g.add(CalcNode::TableSource {
            table: Arc::clone(table).into_group(),
            fused_filter: Predicate::True,
            projection: None,
        });
        let f = g.add(CalcNode::Filter { input: s, pred });
        let b1 = mk_branch(&mut g, f);
        let b2 = mk_branch(&mut g, f);
        let u = g.add(CalcNode::Union {
            inputs: vec![b1, b2],
        });
        g.set_root(u);
    } else {
        // The same logical plan with the subtree duplicated.
        let s1 = g.add(CalcNode::TableSource {
            table: Arc::clone(table).into_group(),
            fused_filter: Predicate::True,
            projection: None,
        });
        let f1 = g.add(CalcNode::Filter {
            input: s1,
            pred: pred.clone(),
        });
        let s2 = g.add(CalcNode::TableSource {
            table: Arc::clone(table).into_group(),
            fused_filter: Predicate::True,
            projection: None,
        });
        let f2 = g.add(CalcNode::Filter { input: s2, pred });
        let b1 = mk_branch(&mut g, f1);
        let b2 = mk_branch(&mut g, f2);
        let u = g.add(CalcNode::Union {
            inputs: vec![b1, b2],
        });
        g.set_root(u);
    }
    g
}

fn bench_shared_subexpression(c: &mut Criterion) {
    let st = staged_sales(ROWS, Stage::Main, 7);
    let snap = Snapshot::at(st.db.txn_manager().now());
    let mut g = c.benchmark_group("fig03_shared_subexpression");
    g.sample_size(15);
    for shared in [true, false] {
        let graph = diamond(&st.table, shared);
        g.bench_function(
            BenchmarkId::from_parameter(if shared { "shared" } else { "duplicated" }),
            |b| {
                b.iter(|| {
                    let rs = Executor::new(snap).run(&graph).unwrap();
                    std::hint::black_box(rs.len());
                })
            },
        );
    }
    g.finish();
}

fn bench_filter_fusion(c: &mut Criterion) {
    let st = staged_sales(ROWS, Stage::Main, 7);
    let snap = Snapshot::at(st.db.txn_manager().now());
    let build = || {
        hana_calc::Query::scan(Arc::clone(&st.table))
            .filter(Predicate::Eq(fact_cols::ORDER_ID, Value::Int(12_345)))
            .compile()
    };
    let naive = build();
    let mut fused = build();
    optimize(&mut fused);
    let mut g = c.benchmark_group("fig03_filter_fusion");
    g.sample_size(20);
    g.bench_function(BenchmarkId::from_parameter("naive_full_scan"), |b| {
        b.iter(|| {
            let rs = Executor::new(snap).run(&naive).unwrap();
            assert_eq!(rs.len(), 1);
        })
    });
    g.bench_function(BenchmarkId::from_parameter("fused_index_scan"), |b| {
        b.iter(|| {
            let rs = Executor::new(snap).run(&fused).unwrap();
            assert_eq!(rs.len(), 1);
        })
    });
    g.finish();
}

criterion_group!(benches, bench_shared_subexpression, bench_filter_fusion);
criterion_main!(benches);
