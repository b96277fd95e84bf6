//! Rule-based plan rewrites.
//!
//! §2.2: "the optimizer runs classical rule and cost-based optimization
//! procedures to restructure and transform the logical plan into a physical
//! plan." Implemented rules:
//!
//! 1. **Filter merging** — `Filter(Filter(x))` → one conjunctive filter;
//! 2. **Filter-into-scan fusion** — `Filter(TableSource)` folds the
//!    predicate into the scan node, where the executor resolves `Eq` /
//!    range conjuncts through the table's dictionaries and inverted indexes
//!    instead of scanning;
//! 3. **Projection collapsing** — `Project(Project(x))` composes the
//!    expressions when the inner projection is pure column selection;
//! 4. **Projection pushdown** — the set of columns each scan's consumers
//!    actually reference is computed backward from the root and recorded on
//!    the [`CalcNode::TableSource`], so the executor materializes only
//!    those columns (late materialization — unprojected columns stay
//!    `Null` placeholders, keeping downstream column indexes valid).
//!
//! Rewrites only apply to nodes with a single consumer — a shared
//! subexpression must stay shared (its memoized result is the point).
//! Projection pushdown is the exception: needed columns are unioned over
//! *all* consumers, so it is safe on shared scans too.

use crate::expr::Expr;
use crate::graph::{CalcGraph, CalcNode, NodeId};
use std::collections::BTreeSet;

/// Optimize the graph in place; returns the number of rewrites applied.
pub fn optimize(g: &mut CalcGraph) -> usize {
    let mut total = 0;
    loop {
        let applied = pass(g);
        total += applied;
        if applied == 0 {
            return total;
        }
    }
}

fn pass(g: &mut CalcGraph) -> usize {
    // Consumer counts over nodes reachable from the root only: rewrites can
    // orphan nodes, and a dead edge must not pin its input as "shared".
    let mut reachable = vec![false; g.len()];
    if let Some(root) = g.root() {
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut reachable[id.0], true) {
                continue;
            }
            stack.extend(g.inputs(id));
        }
    }
    let mut consumers = vec![0usize; g.len()];
    for (i, _) in reachable.iter().enumerate().filter(|(_, &r)| r) {
        for input in g.inputs(NodeId(i)) {
            consumers[input.0] += 1;
        }
    }
    let mut applied = 0;
    for i in (0..g.len()).filter(|&i| reachable[i]) {
        let id = NodeId(i);
        // Filter(x) rewrites.
        if let CalcNode::Filter { input, pred } = g.node(id).clone() {
            if consumers[input.0] > 1 || pred == crate::expr::Predicate::True {
                continue;
            }
            match g.node(input).clone() {
                // Rule 1: merge stacked filters.
                CalcNode::Filter {
                    input: inner_input,
                    pred: inner_pred,
                } => {
                    *g.node_mut(id) = CalcNode::Filter {
                        input: inner_input,
                        pred: inner_pred.and(pred),
                    };
                    applied += 1;
                }
                // Rule 2: fuse into the scan.
                CalcNode::TableSource {
                    table,
                    fused_filter,
                    projection,
                } => {
                    *g.node_mut(input) = CalcNode::TableSource {
                        table,
                        fused_filter: fused_filter.and(pred),
                        projection,
                    };
                    // The filter becomes a pass-through (identity filter).
                    *g.node_mut(id) = CalcNode::Filter {
                        input,
                        pred: crate::expr::Predicate::True,
                    };
                    applied += 1;
                }
                _ => {}
            }
        }
        // Rule 3: collapse Project(Project) when the inner is pure columns.
        if let CalcNode::Project { input, exprs } = g.node(id).clone() {
            if consumers[input.0] > 1 {
                continue;
            }
            if let CalcNode::Project {
                input: inner_input,
                exprs: inner_exprs,
            } = g.node(input).clone()
            {
                if let Some(composed) = compose_projections(&inner_exprs, &exprs) {
                    *g.node_mut(id) = CalcNode::Project {
                        input: inner_input,
                        exprs: composed,
                    };
                    applied += 1;
                }
            }
        }
    }
    applied + push_projections(g, &reachable)
}

/// Columns a node needs from its output's perspective: `None` = all.
type Needed = Option<BTreeSet<usize>>;

/// Rule 4: compute, backward from the root, which columns each scan's
/// consumers reference, and record the set on the scan when it is a strict
/// subset of the table's columns. Needs are unioned over every consumer,
/// so shared scans stay correct. Returns the number of scans whose
/// projection changed.
fn push_projections(g: &mut CalcGraph, reachable: &[bool]) -> usize {
    // needed[i] = columns of node i's *output* that some consumer reads.
    let mut needed: Vec<Needed> = vec![Some(BTreeSet::new()); g.len()];
    if let Some(root) = g.root() {
        needed[root.0] = None; // the result surface: everything.
    }
    // Node ids are topological (inputs are added before their consumers),
    // so one reverse walk sees every consumer before the node itself.
    for i in (0..g.len()).rev().filter(|&i| reachable[i]) {
        let own = needed[i].clone();
        match g.node(NodeId(i)) {
            CalcNode::TableSource { .. } => {}
            // Pass-through operators: the input must provide whatever this
            // node's consumers read, plus whatever the operator itself
            // evaluates.
            CalcNode::Filter { input, pred } => {
                let mut cols = Vec::new();
                pred.referenced_columns(&mut cols);
                require(&mut needed[input.0], own, cols);
            }
            CalcNode::Project { input, exprs } => {
                // Output columns are fresh expressions; the input only has
                // to provide the columns those expressions reference.
                let mut cols = Vec::new();
                for (_, e) in exprs {
                    e.referenced_columns(&mut cols);
                }
                require(&mut needed[input.0], Some(BTreeSet::new()), cols);
            }
            CalcNode::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let cols: Vec<usize> = group_by
                    .iter()
                    .copied()
                    .chain(aggs.iter().map(|(_, c)| *c))
                    .collect();
                require(&mut needed[input.0], Some(BTreeSet::new()), cols);
            }
            // Row-shape-preserving or opaque operators: conservatively
            // require every input column.
            CalcNode::Join { left, right, .. } => {
                needed[left.0] = None;
                needed[right.0] = None;
            }
            CalcNode::Union { inputs } => {
                for input in inputs {
                    needed[input.0] = None;
                }
            }
            CalcNode::SplitCombine { input, .. }
            | CalcNode::Conv { input, .. }
            | CalcNode::Custom { input, .. } => {
                needed[input.0] = None;
            }
        }
    }
    let mut applied = 0;
    for i in (0..g.len()).filter(|&i| reachable[i]) {
        if let CalcNode::TableSource {
            table,
            fused_filter,
            projection,
        } = g.node(NodeId(i))
        {
            let arity = table.schema().columns().len();
            let want: Option<Vec<usize>> = match &needed[i] {
                None => None,
                Some(set) => {
                    // The executor evaluates the fused residue on the
                    // materialized rows, so its columns are needed too.
                    let mut cols = Vec::new();
                    fused_filter.referenced_columns(&mut cols);
                    let mut set = set.clone();
                    set.extend(cols);
                    if (0..arity).all(|c| set.contains(&c)) {
                        None
                    } else {
                        Some(set.into_iter().collect())
                    }
                }
            };
            if *projection != want {
                let id = NodeId(i);
                if let CalcNode::TableSource { projection, .. } = g.node_mut(id) {
                    *projection = want;
                }
                applied += 1;
            }
        }
    }
    applied
}

/// Merge `own` (columns this node's consumers read; `None` = all) plus the
/// operator's own column references into the input's needed set.
fn require(input_needed: &mut Needed, own: Needed, extra: Vec<usize>) {
    match own {
        None => *input_needed = None,
        Some(own_cols) => {
            if let Some(set) = input_needed {
                set.extend(own_cols);
                set.extend(extra);
            }
        }
    }
}

/// Compose `outer` over `inner` when every outer column reference can be
/// substituted with the inner expression.
fn compose_projections(
    inner: &[(String, Expr)],
    outer: &[(String, Expr)],
) -> Option<Vec<(String, Expr)>> {
    fn substitute(e: &Expr, inner: &[(String, Expr)]) -> Option<Expr> {
        Some(match e {
            Expr::Column(i) => inner.get(*i)?.1.clone(),
            Expr::Literal(v) => Expr::Literal(v.clone()),
            Expr::Add(a, b) => Expr::Add(
                Box::new(substitute(a, inner)?),
                Box::new(substitute(b, inner)?),
            ),
            Expr::Sub(a, b) => Expr::Sub(
                Box::new(substitute(a, inner)?),
                Box::new(substitute(b, inner)?),
            ),
            Expr::Mul(a, b) => Expr::Mul(
                Box::new(substitute(a, inner)?),
                Box::new(substitute(b, inner)?),
            ),
            Expr::Div(a, b) => Expr::Div(
                Box::new(substitute(a, inner)?),
                Box::new(substitute(b, inner)?),
            ),
        })
    }
    outer
        .iter()
        .map(|(n, e)| Some((n.clone(), substitute(e, inner)?)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Predicate;
    use hana_common::{ColumnDef, DataType, Schema, TableConfig, Value};
    use hana_core::IntoGroup;
    use hana_txn::TxnManager;
    use std::sync::Arc;

    fn table() -> Arc<hana_core::UnifiedTable> {
        let mgr = TxnManager::new();
        let schema = Schema::new(
            "t",
            vec![
                ColumnDef::new("a", DataType::Int),
                ColumnDef::new("b", DataType::Int),
            ],
        )
        .unwrap();
        hana_core::UnifiedTable::standalone(schema, TableConfig::default(), mgr)
    }

    #[test]
    fn filter_fuses_into_scan() {
        let mut g = CalcGraph::new();
        let s = g.add(CalcNode::TableSource {
            table: table().into_group(),
            fused_filter: Predicate::True,
            projection: None,
        });
        let f = g.add(CalcNode::Filter {
            input: s,
            pred: Predicate::Eq(0, Value::Int(1)),
        });
        g.set_root(f);
        let n = optimize(&mut g);
        assert!(n >= 1);
        match g.node(s) {
            CalcNode::TableSource { fused_filter, .. } => {
                assert_eq!(*fused_filter, Predicate::Eq(0, Value::Int(1)));
            }
            _ => panic!("scan expected"),
        }
        match g.node(f) {
            CalcNode::Filter { pred, .. } => assert_eq!(*pred, Predicate::True),
            _ => panic!("filter expected"),
        }
    }

    #[test]
    fn stacked_filters_merge_then_fuse() {
        let mut g = CalcGraph::new();
        let s = g.add(CalcNode::TableSource {
            table: table().into_group(),
            fused_filter: Predicate::True,
            projection: None,
        });
        let f1 = g.add(CalcNode::Filter {
            input: s,
            pred: Predicate::Gt(0, Value::Int(0)),
        });
        let f2 = g.add(CalcNode::Filter {
            input: f1,
            pred: Predicate::Lt(0, Value::Int(10)),
        });
        g.set_root(f2);
        optimize(&mut g);
        match g.node(s) {
            CalcNode::TableSource { fused_filter, .. } => match fused_filter {
                Predicate::And(ps) => assert_eq!(ps.len(), 2),
                p => panic!("expected conjunction, got {p:?}"),
            },
            _ => panic!("scan expected"),
        }
    }

    #[test]
    fn projections_collapse() {
        let mut g = CalcGraph::new();
        let s = g.add(CalcNode::TableSource {
            table: table().into_group(),
            fused_filter: Predicate::True,
            projection: None,
        });
        let p1 = g.add(CalcNode::Project {
            input: s,
            exprs: vec![("b".into(), Expr::col(1))],
        });
        let p2 = g.add(CalcNode::Project {
            input: p1,
            exprs: vec![("b2".into(), Expr::col(0).mul(Expr::lit(2)))],
        });
        g.set_root(p2);
        optimize(&mut g);
        match g.node(p2) {
            CalcNode::Project { input, exprs } => {
                assert_eq!(*input, s);
                // col(0) of the outer was substituted by col(1) of the inner.
                assert_eq!(exprs[0].1, Expr::col(1).mul(Expr::lit(2)));
            }
            _ => panic!("project expected"),
        }
    }

    fn scan_projection(g: &CalcGraph, id: NodeId) -> Option<Vec<usize>> {
        match g.node(id) {
            CalcNode::TableSource { projection, .. } => projection.clone(),
            _ => panic!("scan expected"),
        }
    }

    #[test]
    fn projection_pushes_into_scan() {
        // scan(a, b) -> project(b) needs only column 1.
        let mut g = CalcGraph::new();
        let s = g.add(CalcNode::TableSource {
            table: table().into_group(),
            fused_filter: Predicate::True,
            projection: None,
        });
        let p = g.add(CalcNode::Project {
            input: s,
            exprs: vec![("b".into(), Expr::col(1))],
        });
        g.set_root(p);
        optimize(&mut g);
        assert_eq!(scan_projection(&g, s), Some(vec![1]));
        assert!(g.explain().contains("[project [1]]"));
    }

    #[test]
    fn pushdown_includes_filter_and_fused_columns() {
        // filter(a) over scan, projecting b: both columns stay needed, so
        // no strict subset exists and the projection stays None.
        let mut g = CalcGraph::new();
        let s = g.add(CalcNode::TableSource {
            table: table().into_group(),
            fused_filter: Predicate::True,
            projection: None,
        });
        let f = g.add(CalcNode::Filter {
            input: s,
            pred: Predicate::Gt(0, Value::Int(3)),
        });
        let p = g.add(CalcNode::Project {
            input: f,
            exprs: vec![("b".into(), Expr::col(1))],
        });
        g.set_root(p);
        optimize(&mut g);
        // The filter fused into the scan; its column 0 plus the projected
        // column 1 cover the whole table.
        assert_eq!(scan_projection(&g, s), None);
    }

    #[test]
    fn aggregate_inputs_push_into_scan() {
        let mut g = CalcGraph::new();
        let s = g.add(CalcNode::TableSource {
            table: table().into_group(),
            fused_filter: Predicate::True,
            projection: None,
        });
        let a = g.add(CalcNode::Aggregate {
            input: s,
            group_by: vec![1],
            aggs: vec![(crate::expr::AggFunc::Sum, 1)],
        });
        g.set_root(a);
        optimize(&mut g);
        assert_eq!(scan_projection(&g, s), Some(vec![1]));
    }

    #[test]
    fn root_scan_keeps_all_columns() {
        let mut g = CalcGraph::new();
        let s = g.add(CalcNode::TableSource {
            table: table().into_group(),
            fused_filter: Predicate::True,
            projection: None,
        });
        g.set_root(s);
        optimize(&mut g);
        assert_eq!(scan_projection(&g, s), None);
    }

    #[test]
    fn shared_scan_unions_consumer_needs() {
        // Two projections over one scan: col 0 and col 1 → both needed.
        let mut g = CalcGraph::new();
        let s = g.add(CalcNode::TableSource {
            table: table().into_group(),
            fused_filter: Predicate::True,
            projection: None,
        });
        let p1 = g.add(CalcNode::Project {
            input: s,
            exprs: vec![("a".into(), Expr::col(0))],
        });
        let p2 = g.add(CalcNode::Project {
            input: s,
            exprs: vec![("b".into(), Expr::col(1))],
        });
        let u = g.add(CalcNode::Union {
            inputs: vec![p1, p2],
        });
        g.set_root(u);
        optimize(&mut g);
        assert_eq!(scan_projection(&g, s), None);
    }

    #[test]
    fn shared_subexpressions_not_rewritten() {
        let mut g = CalcGraph::new();
        let s = g.add(CalcNode::TableSource {
            table: table().into_group(),
            fused_filter: Predicate::True,
            projection: None,
        });
        let f = g.add(CalcNode::Filter {
            input: s,
            pred: Predicate::Gt(0, Value::Int(0)),
        });
        // Two consumers of f.
        let p1 = g.add(CalcNode::Project {
            input: f,
            exprs: vec![("a".into(), Expr::col(0))],
        });
        let p2 = g.add(CalcNode::Project {
            input: f,
            exprs: vec![("b".into(), Expr::col(1))],
        });
        let u = g.add(CalcNode::Union {
            inputs: vec![p1, p2],
        });
        g.set_root(u);
        // f feeds two consumers; its filter must NOT fuse into the scan via
        // one of them only... (fusion through f itself is fine since s has
        // one consumer). Check that the structure stays valid.
        optimize(&mut g);
        // Both projects still read from f.
        assert_eq!(g.inputs(p1), vec![f]);
        assert_eq!(g.inputs(p2), vec![f]);
    }
}
