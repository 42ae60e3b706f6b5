//! The fleet runners' reports at `24 42` must equal the seed-42
//! references of `paper all 24 42` in `benchmark/reference/`, byte for
//! byte. The references are read only: a difference means the code
//! moved a report, and the code is what gets fixed.
//!
//! This is its own test binary because the fleet horizon
//! (`MSC_FLEET_HORIZON_S`) is read once per process, and these reports
//! need the default.

use msc_sim::experiments::fleet;
use msc_sim::Report;

fn assert_matches_reference(id: &str, report: Report) {
    assert_eq!(fleet::horizon_s(), 180.0, "the references use the default fleet horizon");
    let path = format!(
        "{}/../../benchmark/reference/seed42/paper-all/{id}.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let got = report.to_json();
    if let Some((i, (g, w))) = got.lines().zip(want.lines()).enumerate().find(|(_, (g, w))| g != w)
    {
        panic!("{id} differs from {path} at line {}:\n  got  {g}\n  want {w}", i + 1);
    }
    assert_eq!(got.len(), want.len(), "{id} differs from {path} in length");
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
