//! The fluent query builder — the stand-in for Fig 2's language compilers.
//!
//! "In a first step, a query string is translated into an internal optimized
//! representation … In a second step, the query expression is mapped to a
//! Calculation Graph." [`Query`] is that internal representation: callers
//! compose scans, filters, projections, joins and aggregations; `compile`
//! produces the [`CalcGraph`].

use crate::expr::{AggFunc, Expr, Predicate};
use crate::graph::{CalcGraph, CalcNode, CustomFn, NodeId, PipeOp};
use hana_core::{IntoGroup, PartitionedTable};
use rustc_hash::FxHashMap;
use std::sync::Arc;

enum Step {
    Scan(Arc<PartitionedTable>),
    Filter(Predicate),
    Project(Vec<(String, Expr)>),
    Aggregate {
        group_by: Vec<usize>,
        aggs: Vec<(AggFunc, usize)>,
    },
    Join {
        right: Box<Query>,
        left_col: usize,
        right_col: usize,
    },
    Union(Box<Query>),
    SplitCombine {
        ways: usize,
        split_col: usize,
        body: Vec<PipeOp>,
    },
    Conv {
        amount_col: usize,
        currency_col: usize,
        rates: FxHashMap<String, f64>,
    },
    Custom {
        name: String,
        f: CustomFn,
    },
}

/// A composable logical query.
pub struct Query {
    steps: Vec<Step>,
}

impl Query {
    /// Start from a table scan: a partition group, or a plain table as its
    /// own 1-shard group. The plan is the same either way; the executor
    /// fans out per shard and merges results and statistics.
    pub fn scan(table: impl IntoGroup) -> Self {
        Query {
            steps: vec![Step::Scan(table.into_group())],
        }
    }

    /// Add a filter.
    pub fn filter(mut self, pred: Predicate) -> Self {
        self.steps.push(Step::Filter(pred));
        self
    }

    /// Add a projection.
    pub fn project(mut self, exprs: Vec<(&str, Expr)>) -> Self {
        self.steps.push(Step::Project(
            exprs.into_iter().map(|(n, e)| (n.to_string(), e)).collect(),
        ));
        self
    }

    /// Add a group-by aggregation.
    pub fn aggregate(mut self, group_by: Vec<usize>, aggs: Vec<(AggFunc, usize)>) -> Self {
        self.steps.push(Step::Aggregate { group_by, aggs });
        self
    }

    /// Inner hash join against another query.
    pub fn join(mut self, right: Query, left_col: usize, right_col: usize) -> Self {
        self.steps.push(Step::Join {
            right: Box::new(right),
            left_col,
            right_col,
        });
        self
    }

    /// Union with another query of the same arity.
    pub fn union(mut self, other: Query) -> Self {
        self.steps.push(Step::Union(Box::new(other)));
        self
    }

    /// Partition-parallel section (split/combine).
    pub fn split_combine(mut self, ways: usize, split_col: usize, body: Vec<PipeOp>) -> Self {
        self.steps.push(Step::SplitCombine {
            ways,
            split_col,
            body,
        });
        self
    }

    /// Built-in currency conversion.
    pub fn convert_currency(
        mut self,
        amount_col: usize,
        currency_col: usize,
        rates: &[(&str, f64)],
    ) -> Self {
        self.steps.push(Step::Conv {
            amount_col,
            currency_col,
            rates: rates.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        });
        self
    }

    /// Custom operator / script node.
    pub fn custom(mut self, name: &str, f: CustomFn) -> Self {
        self.steps.push(Step::Custom {
            name: name.to_string(),
            f,
        });
        self
    }

    /// Compile into a fresh calc graph.
    pub fn compile(self) -> CalcGraph {
        let mut g = CalcGraph::new();
        let root = self.compile_into(&mut g);
        g.set_root(root);
        g
    }

    fn compile_into(self, g: &mut CalcGraph) -> NodeId {
        let mut current: Option<NodeId> = None;
        for step in self.steps {
            let node = match step {
                Step::Scan(table) => CalcNode::TableSource {
                    table,
                    fused_filter: Predicate::True,
                    projection: None,
                },
                Step::Filter(pred) => CalcNode::Filter {
                    input: current.expect("filter needs an input"),
                    pred,
                },
                Step::Project(exprs) => CalcNode::Project {
                    input: current.expect("project needs an input"),
                    exprs,
                },
                Step::Aggregate { group_by, aggs } => CalcNode::Aggregate {
                    input: current.expect("aggregate needs an input"),
                    group_by,
                    aggs,
                },
                Step::Join {
                    right,
                    left_col,
                    right_col,
                } => {
                    let right_id = right.compile_into(g);
                    CalcNode::Join {
                        left: current.expect("join needs a left input"),
                        right: right_id,
                        left_col,
                        right_col,
                    }
                }
                Step::Union(other) => {
                    let other_id = other.compile_into(g);
                    CalcNode::Union {
                        inputs: vec![current.expect("union needs a left input"), other_id],
                    }
                }
                Step::SplitCombine {
                    ways,
                    split_col,
                    body,
                } => CalcNode::SplitCombine {
                    input: current.expect("split needs an input"),
                    ways,
                    split_col,
                    body,
                },
                Step::Conv {
                    amount_col,
                    currency_col,
                    rates,
                } => CalcNode::Conv {
                    input: current.expect("conv needs an input"),
                    amount_col,
                    currency_col,
                    rates,
                },
                Step::Custom { name, f } => CalcNode::Custom {
                    input: current.expect("custom needs an input"),
                    name,
                    f,
                },
            };
            current = Some(g.add(node));
        }
        current.expect("query must contain at least a scan")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hana_common::{ColumnDef, DataType, Schema, TableConfig, Value};
    use hana_core::UnifiedTable;
    use hana_txn::TxnManager;

    fn table() -> Arc<UnifiedTable> {
        let mgr = TxnManager::new();
        let schema = Schema::new(
            "sales",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("city", DataType::Str),
            ],
        )
        .unwrap();
        UnifiedTable::standalone(schema, TableConfig::default(), mgr)
    }

    #[test]
    fn builder_compiles_linear_pipeline() {
        let g = Query::scan(table())
            .filter(Predicate::Eq(1, Value::str("Campbell")))
            .project(vec![("id", Expr::col(0))])
            .aggregate(vec![], vec![(AggFunc::Count, 0)])
            .compile();
        assert_eq!(g.len(), 4);
        assert!(g.root().is_some());
        let plan = g.explain();
        assert!(plan.contains("filter"));
        assert!(plan.contains("aggregate"));
    }

    #[test]
    fn builder_compiles_join_of_two_scans() {
        let g = Query::scan(table())
            .join(Query::scan(table()), 0, 0)
            .compile();
        assert_eq!(g.len(), 3);
        let plan = g.explain();
        assert!(plan.contains("join"));
    }

    #[test]
    fn builder_compiles_union_and_custom() {
        let g = Query::scan(table())
            .union(Query::scan(table()).filter(Predicate::Gt(0, Value::Int(5))))
            .custom("noop", Arc::new(Ok))
            .compile();
        assert!(g.explain().contains("custom"));
        assert!(g.explain().contains("union"));
    }
}
