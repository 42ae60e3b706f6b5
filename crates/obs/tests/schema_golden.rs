//! Golden-file guard for every JSON artifact the workspace exports.
//!
//! Renders each export format from fixed inputs and compares the result
//! against `tests/golden/schema_v<N>.txt`, where `N` is
//! [`msc_obs::SCHEMA_VERSION`]. Changing any serialization without
//! bumping the version fails here (the golden no longer matches);
//! bumping the version also fails (no golden for the new version
//! exists) until the snapshot is regenerated — so a version bump and a
//! format change can only land together.
//!
//! Regenerate after an intentional change with:
//! `UPDATE_GOLDEN=1 cargo test -p msc-obs --test schema_golden`

use msc_obs::flight::{Dump, TrialRecord};
use msc_obs::metrics::{buckets, Key, Registry};
use msc_obs::profile::Profile;

fn key(name: &'static str, protocol: &'static str, stage: &'static str) -> Key {
    Key { name, experiment: "golden".to_string(), protocol, stage }
}

/// Deterministic sample of every export: no clocks, no host state.
fn fingerprint() -> String {
    let mut out = String::new();

    // metrics.jsonl / metrics.csv — a private registry with one of each
    // metric kind, fixed values.
    let reg = Registry::new();
    reg.counter_add(key("pipe.packets", "BLE", "decode"), 3);
    reg.gauge_set(key("id.accuracy", "ZigBee", "ordered"), 0.976);
    reg.hist_observe(key("pipe.stage_us", "BLE", "decode"), 12.5, buckets::LATENCY_US);
    let snap = reg.snapshot();
    out.push_str("== metrics.jsonl ==\n");
    out.push_str(&msc_obs::export::to_jsonl(&snap));
    out.push_str("== metrics.csv ==\n");
    out.push_str(&msc_obs::export::to_csv(&snap));

    // flight bundle — fixed dump.
    let dump = Dump {
        reason: "decode_fail".to_string(),
        record: TrialRecord {
            experiment: "fig13".to_string(),
            cell: "los/BLE/32".to_string(),
            index: 5,
            seed: 42,
            derived_seed: 12345,
            protocol: "BLE",
            scores: vec![("tag_errors", 7.0), ("tag_ber", 0.4375)],
            verdict: "decode_fail".to_string(),
            // Notes never reach the bundle: the golden shape is unchanged.
            notes: vec!["rx.decode_err protocol=BLE err=HeaderInvalid".to_string()],
        },
    };
    out.push_str("== flight bundle ==\n");
    out.push_str(&msc_obs::flight::bundle_to_json(&dump, 24));

    // profile.json / profile.folded — an empty profile (tree contents
    // are timing-dependent; the envelope and key set are not).
    let profile = Profile { nodes: Vec::new(), threads: Vec::new() };
    out.push_str("== profile.json ==\n");
    out.push_str(&profile.to_json(&[("tracecache.hits".to_string(), 9.0)]));
    out.push_str("== profile.folded ==\n");
    out.push_str(&profile.to_folded());

    out
}

#[test]
fn exports_match_golden_for_this_schema_version() {
    let got = fingerprint();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("schema_v{}.txt", msc_obs::SCHEMA_VERSION));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "no golden for schema v{} ({e}). If you bumped SCHEMA_VERSION \
             intentionally, regenerate with UPDATE_GOLDEN=1 cargo test -p msc-obs \
             --test schema_golden",
            msc_obs::SCHEMA_VERSION
        )
    });
    assert_eq!(
        got, want,
        "an export format changed without a SCHEMA_VERSION bump — bump \
         msc_obs::SCHEMA_VERSION and regenerate the golden (UPDATE_GOLDEN=1)"
    );
}

#[test]
fn every_export_declares_the_schema_version() {
    let fp = fingerprint();
    // jsonl meta line (compact) + flight bundle + profile.json (csv and
    // folded are headerless data formats).
    let n = fp.matches(&format!("\"schema_version\": {}", msc_obs::SCHEMA_VERSION)).count()
        + fp.matches(&format!("\"schema_version\":{}", msc_obs::SCHEMA_VERSION)).count();
    assert!(n >= 3, "{n} declarations in:\n{fp}");
}
