//! # msc-channel — RF channel substrate
//!
//! Everything between the antennas: free-space / log-distance path loss,
//! wall occlusion, AWGN and thermal-noise bookkeeping, flat small-scale
//! fading, and the two-hop backscatter link budget the experiments use
//! to convert testbed geometry into SNRs.

#![warn(missing_docs)]

pub mod awgn;
pub mod fading;
pub mod link;
pub mod materials;
pub mod pathloss;

pub use fading::Fading;
pub use link::{Deployment, LinkBudget};
pub use materials::Occlusion;
