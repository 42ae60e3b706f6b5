//! # msc-sim — end-to-end simulation engine and experiment runners
//!
//! Wires the substrates together (PHYs → channel → tag → receivers) and
//! hosts one runner per table/figure of the paper's evaluation. The
//! `paper` binary dispatches to them:
//!
//! ```text
//! cargo run -p msc-sim --release --bin paper -- fig13
//! cargo run -p msc-sim --release --bin paper -- all
//! ```

#![warn(missing_docs)]

pub mod energy;
pub mod engine;
pub mod experiments;
pub mod idtraces;
pub mod memo;
pub mod pipeline;
pub mod replay;
pub mod report;
pub mod throughput;
pub mod tracecache;
pub mod wavecache;

// Traffic models moved down into msc-fleet (the fleet engine composes
// them per tag); re-exported here so existing `msc_sim::traffic` paths
// keep working.
pub use msc_fleet::traffic;

pub use pipeline::{AnyLink, CellSpec, Geometry, PacketOutcome, StopPolicy, TrialBatch};
pub use report::Report;
pub use wavecache::CellExcitation;
