//! Every runner but the three fleet runners, run in process at `24 42`
//! in registry order as `paper all 24 42` runs them: each report must
//! equal its seed-42 reference in `benchmark/reference/`, byte for byte
//! (`common::reference_mismatch`). The fleet runners have their own
//! binary, `fleet_reference.rs`, which pins the default fleet horizon.

mod common;

use msc_sim::experiments::REGISTRY;

#[test]
fn every_non_fleet_runner_matches_its_reference() {
    let runners: Vec<_> = REGISTRY.iter().filter(|e| !e.id.starts_with("fleet")).collect();
    assert_eq!(runners.len(), 30, "the registry's non-fleet runners");
    let mismatches: Vec<String> =
        runners.iter().filter_map(|e| common::reference_mismatch(e.id, &(e.run)(24, 42))).collect();
    assert!(
        mismatches.is_empty(),
        "{} report(s) moved:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}
