//! The fleet runners' reports at `24 42` must equal the seed-42
//! references of `paper all 24 42` in `benchmark/reference/`, byte for
//! byte (`common::reference_mismatch`); `paper_reference.rs` checks
//! the other runners.
//!
//! This is its own test binary because the fleet horizon
//! (`MSC_FLEET_HORIZON_S`) is read once per process, and these reports
//! need the default.

mod common;

use msc_sim::experiments::fleet;
use msc_sim::Report;

fn assert_matches_reference(id: &str, report: Report) {
    assert_eq!(fleet::horizon_s(), 180.0, "the references use the default fleet horizon");
    if let Some(mismatch) = common::reference_mismatch(id, &report) {
        panic!("{mismatch}");
    }
}

#[test]
fn fleet_matches_reference() {
    assert_matches_reference("fleet", fleet::run(24, 42));
}

#[test]
fn fleet_scale_matches_reference() {
    assert_matches_reference("fleet-scale", fleet::run_scale(24, 42));
}

#[test]
fn fleet_timeline_matches_reference() {
    assert_matches_reference("fleet-timeline", fleet::run_timeline(24, 42));
}
