//! Synthetic HTAP workloads.
//!
//! The paper motivates the unified table with ERP-style OLTP ("thousands of
//! concurrent users and transactions with high update load and very
//! selective point queries") plus warehouse-style OLAP ("aggregation queries
//! over a huge volume of data") on the *same* data. This crate provides a
//! sales schema, Zipf-skewed data generation, an OLTP transaction mix, an
//! OLAP query set, and a mixed driver — the substitution for SAP's
//! proprietary ERP/BW workloads (see DESIGN.md §2).

pub mod datagen;
pub mod mixed;
pub mod olap;
pub mod oltp;
pub mod sales;
pub mod zipf;

pub use datagen::DataGen;
pub use mixed::{LatencyStats, MixedReport, MixedWorkload};
pub use olap::{OlapQuery, OlapRunner};
pub use oltp::{
    GroupOltp, OltpDriver, OltpEngine, OltpOp, OltpReport, PartitionedOltpReport, RowOltp,
};
pub use sales::{SalesDataset, SalesSchema};
pub use zipf::Zipf;
