//! # msc-fleet — deployment-scale multi-tag backscatter simulation
//!
//! The paper evaluates one tag and one excitation source at a time; the
//! system it proposes is a *deployment* — many battery-free sensors
//! sharing the air with ambient Wi-Fi/BLE/ZigBee carriers. This crate
//! simulates that deployment at scale:
//!
//! - [`traffic`] — packet arrival processes ([`traffic::Arrivals`]) for
//!   carriers and sensor readings (moved down from `msc-sim`, which
//!   re-exports it).
//! - [`mac`] — the carrier-scheduling MAC: pluggable carrier-selection
//!   policies ([`mac::MacPolicy`]) promoting the paper's
//!   excitation-diversity heuristic into a policy layer, plus slotted
//!   binary-exponential backoff ([`mac::Backoff`]) and intra-packet TDM
//!   slot assignment ([`mac::slot_ranges`]).
//! - [`link`] — the calibrated link abstraction ([`link::LinkTable`]):
//!   PER-vs-SNR curves sampled from the full waveform pipeline once,
//!   interpolated per packet so the engine can resolve millions of
//!   outcomes per second.
//! - [`engine`] — the event-driven fleet engine ([`engine::run`],
//!   [`engine::run_many`]): tag setup fans out through `msc-par` with
//!   per-item derived seeds, carriers draw their arrivals a block ahead
//!   from their own derived seeds, and the merged stream is drawn once
//!   per `run_many` call, in blocks, for every scenario that shares it;
//!   each scenario's sequential MAC sweep resolves contention over those
//!   blocks, and the result is byte-identical at any `--threads`.
//! - [`obs`] — MAC event tracing: [`engine::run_with`] feeds every
//!   sweep event to a [`obs::MacObserver`]; [`obs::MacTrace`]
//!   aggregates ~1 s windows, keeps a bounded event log, and flags
//!   starvation / collision-burst incidents for `paper replay`.
//!
//! The `paper fleet` workload in `msc-sim` calibrates the link table,
//! builds the paper's four-carrier scenario, and reports fleet
//! throughput, Jain fairness, collision, and starvation statistics
//! through the schema-v3 `Report` path.

#![warn(missing_docs)]

pub mod engine;
pub mod link;
pub mod mac;
pub mod obs;
pub mod traffic;

pub use engine::{
    run, run_many, run_with, AttemptSample, CarrierTally, EnergyModel, FleetConfig, FleetResult,
};
pub use link::LinkTable;
pub use mac::{slot_ranges, Backoff, MacPolicy};
pub use obs::{Detectors, Incident, MacEvent, MacObserver, MacTrace, NoopObserver, WindowAgg};
