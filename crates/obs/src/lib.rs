//! # msc-obs — observability for the multiscatter stack
//!
//! The measurement substrate the rest of the workspace reports through:
//!
//! * **Metrics registry** ([`metrics`]): counters, gauges, and
//!   fixed-bucket histograms keyed by `(experiment, protocol, stage)`.
//!   Disabled by default; instrumented hot paths pay only an atomic
//!   load until [`metrics::enable`] is called.
//! * **Exporters** ([`export`]): JSON-lines and CSV serialization of a
//!   registry snapshot, plus a minimal JSON parser used for round-trip
//!   verification and bundle parsing.
//! * **Run manifests** ([`manifest`]): git revision, RNG seed, config
//!   knobs, and per-experiment wall-clock, written alongside results so
//!   any metrics file can be traced back to the run that produced it.
//! * **Span profiler** ([`profile`]): aggregates spans and stage
//!   timings into a call-tree profile with folded-stack
//!   (flamegraph-compatible) and JSON output (`paper --profile`).
//! * **Flight recorder** ([`flight`]): a bounded ring of per-trial
//!   context that dumps replayable failure bundles (`paper replay`).
//!   The trial record is the stack's one record channel: while a replay
//!   runs, [`note!`] lines (decode errors, uplink SNR) land in the
//!   replayed trial's record, and cost one relaxed atomic load
//!   otherwise.
//! * **Event stream** ([`events`]): a bounded run-scoped JSONL sink
//!   (`paper --events`) of schema-versioned, sequence-numbered run /
//!   experiment / cell / fleet-window records whose deterministic
//!   prefix is byte-identical at any thread count.
//! * **Live progress** ([`progress`]) and **pool utilization**
//!   ([`pool`]): run-level counters and the stderr ticker.
//! * **Estimator statistics** ([`stats`]): Wilson-score confidence
//!   intervals, clustered-sample corrections, and the interval-overlap
//!   significance test behind `--ci` columns and regression gating.
//! * **Run archive** ([`archive`]): content-addressed storage of report
//!   tables keyed by (experiment, seed, git rev, config hash), with an
//!   index and pruning.
//! * **Diff engine** ([`diff`]): joins cells across two archived runs
//!   and classifies each movement NOISE / SIGNIFICANT / NEW / GONE
//!   (`paper diff`).
//!
//! ## Naming scheme
//!
//! Note and metric names are dotted `layer.thing` pairs — `id.score`,
//! `overlay.tag_bits`, `rx.decode_err`, `pipe.stage_us` — and every
//! metric carries the `(experiment, protocol, stage)` label triple (any
//! of which may be `""` when not applicable). See DESIGN.md
//! ("Observability") for the full catalog and the recipe for adding an
//! instrumented stage.

#![warn(missing_docs)]

pub mod archive;
pub mod diff;
pub mod events;
pub mod export;
pub mod flight;
pub mod manifest;
pub mod metrics;
pub mod pool;
pub mod profile;
pub mod progress;
pub mod stats;

pub use manifest::RunManifest;
pub use metrics::Registry;

/// Version of every JSON artifact this stack writes (reports, metrics
/// exports, manifests, profiles, flight bundles). Bump whenever any
/// exported schema changes shape; `crates/obs/tests/schema_golden.rs`
/// pins the current shapes to this number.
///
/// v3: report tables carry per-row join keys and raw-count statistics
/// (`keys` / `stats` arrays); histogram exports carry p50/p90/p99
/// quantile summaries.
pub const SCHEMA_VERSION: u32 = 3;
