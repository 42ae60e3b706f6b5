//! Flight-recorder end-to-end contract: a decode failure captured
//! during a run yields a bundle whose replay reproduces the identical
//! matcher scores and verdict — at any thread count.

use msc_obs::flight::{self, FlightConfig};

/// Runs fig13 with the recorder armed and returns its failure dumps.
/// fig13's far LoS cells (24–28 m) are below decode sensitivity at
/// small n, so decode failures are guaranteed, not contrived.
fn record_failures(n: usize, seed: u64) -> Vec<flight::Dump> {
    flight::arm(FlightConfig::default());
    msc_obs::metrics::set_experiment("fig13");
    let _ = msc_sim::experiments::fig13::run(n, seed);
    let dumps = flight::take_dumps();
    flight::disarm();
    dumps
}

#[test]
fn forced_decode_failure_replays_identically_at_1_and_8_threads() {
    let _guard = flight::tests_serial();
    msc_par::set_threads(2);
    let dumps = record_failures(2, 7);
    assert!(!dumps.is_empty(), "fig13(2, 7) must produce decode failures at far distances");
    let dump = &dumps[0];
    assert_eq!(dump.reason, "decode_fail");
    assert!(!dump.record.scores.is_empty(), "record carries matcher scores");
    assert!(!dump.record.stages.is_empty(), "record carries stage timings");

    // The JSON round trip the `paper` binary performs.
    let bundle = flight::parse_bundle(&flight::bundle_to_json(dump, 2)).expect("bundle parses");
    assert_eq!(bundle.experiment, "fig13");
    assert_eq!(bundle.verdict, "decode_fail");

    for threads in [1, 8] {
        msc_par::set_threads(threads);
        let result = msc_sim::replay::replay(&bundle)
            .unwrap_or_else(|e| panic!("replay at {threads} threads: {e}"));
        assert!(result.matches, "replay at {threads} threads diverged: {:?}", result.diffs);
        assert_eq!(result.record.verdict, dump.record.verdict);
        assert_eq!(result.record.scores, dump.record.scores);
        assert_eq!(result.record.derived_seed, dump.record.derived_seed);
    }
    msc_par::set_threads(0);
}

#[test]
fn kept_bundles_do_not_depend_on_the_thread_count() {
    // fig14(2, 7) fails more trials than either dump cap, and its 32
    // cells finish in scheduling order; the recorder must still keep
    // the first failures in run order (cell, then trial index). The
    // small cap falls among the first cells, which run concurrently.
    let _guard = flight::tests_serial();
    let kept = |threads: usize, max_dumps: usize| {
        msc_par::set_threads(threads);
        flight::arm(FlightConfig { max_dumps, ..FlightConfig::default() });
        msc_obs::metrics::set_experiment("fig14");
        let _ = msc_sim::experiments::fig14::run(2, 7);
        let suppressed = flight::stats().suppressed;
        let dumps = flight::take_dumps();
        flight::disarm();
        let list: Vec<(String, u64, String)> =
            dumps.into_iter().map(|d| (d.record.cell, d.record.index, d.reason)).collect();
        (list, suppressed)
    };
    for cap in [8, FlightConfig::default().max_dumps] {
        let one = kept(1, cap);
        let eight = kept(8, cap);
        assert!(one.1 > 0, "fig14(2, 7) must fail more trials than the cap of {cap}");
        assert_eq!(one.0.len(), cap);
        assert_eq!(one, eight, "kept (cell, index, reason) and suppressed at cap {cap}");
    }
    msc_par::set_threads(0);
}

#[test]
fn tampered_bundle_is_reported_as_mismatch() {
    let _guard = flight::tests_serial();
    msc_par::set_threads(2);
    let dumps = record_failures(2, 7);
    let bundle_json = flight::bundle_to_json(&dumps[0], 2);
    let mut bundle = flight::parse_bundle(&bundle_json).expect("parse");
    // Corrupt one recorded score: replay must notice, not rubber-stamp.
    bundle.scores[0].1 += 1.0;
    let result = msc_sim::replay::replay(&bundle).expect("replay runs");
    assert!(!result.matches, "tampered score must be flagged");
    assert!(!result.diffs.is_empty());
    msc_par::set_threads(0);
}

#[test]
fn id_miss_trials_are_recorded_for_identification_experiments() {
    let _guard = flight::tests_serial();
    msc_par::set_threads(2);
    flight::arm(FlightConfig::default());
    msc_obs::metrics::set_experiment("fig8");
    // fig8's 2.5 Msps short-window row misidentifies often (the paper's
    // 0.485-accuracy regime), so id_miss dumps are expected.
    let _ = msc_sim::experiments::fig08::run(16, 42);
    let stats = flight::stats();
    let dumps = flight::take_dumps();
    flight::disarm();
    msc_par::set_threads(0);
    assert!(stats.trials > 0, "identification trials must be recorded");
    let miss = dumps.iter().find(|d| d.reason == "id_miss");
    let miss = miss.unwrap_or_else(|| panic!("expected an id_miss dump, got {dumps:?}"));
    assert!(miss.record.cell.starts_with("id/"), "{}", miss.record.cell);
    // Per-protocol matcher scores travel with the record.
    assert_eq!(miss.record.scores.len(), 4, "{:?}", miss.record.scores);
}

#[test]
fn paper_binary_writes_bundles_and_replays_them() {
    use std::process::Command;
    let dir = std::env::temp_dir().join(format!("msc-flight-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(["fig13", "2", "7", "--no-progress", "--metrics-out"])
        .arg(&dir)
        .output()
        .expect("run paper");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let bundles: Vec<_> = std::fs::read_dir(dir.join("flight"))
        .expect("flight dir exists")
        .map(|e| e.unwrap().path())
        .collect();
    assert!(!bundles.is_empty(), "no bundles written");

    for threads in ["1", "8"] {
        let replay = Command::new(env!("CARGO_BIN_EXE_paper"))
            .args(["replay"])
            .arg(&bundles[0])
            .args(["--threads", threads])
            .output()
            .expect("run replay");
        let stdout = String::from_utf8_lossy(&replay.stdout);
        assert!(
            replay.status.success() && stdout.contains("REPRODUCED"),
            "replay at {threads} threads: status {:?}\nstdout: {stdout}\nstderr: {}",
            replay.status,
            String::from_utf8_lossy(&replay.stderr)
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Records fig13(2, `seed`), round-trips its first dump through JSON
/// (after `edit`) and replays it.
fn replay_first_dump(seed: u64, edit: impl Fn(String) -> String) -> msc_sim::replay::ReplayResult {
    let _guard = flight::tests_serial();
    msc_par::set_threads(2);
    let dumps = record_failures(2, seed);
    let bundle = flight::parse_bundle(&edit(flight::bundle_to_json(&dumps[0], 2))).expect("parse");
    assert_eq!(bundle.seed, seed, "the base seed must round-trip exactly");
    let result = msc_sim::replay::replay(&bundle).expect("replay runs");
    msc_par::set_threads(0);
    result
}

#[test]
fn bundle_recorded_above_2_pow_53_replays_identically() {
    // 2^53 + 1 has no f64 representation.
    let result = replay_first_dump((1 << 53) + 1, |json| json);
    assert!(result.matches, "seed 2^53+1 replay diverged: {:?}", result.diffs);
}

#[test]
fn tampered_derived_seed_is_reported_as_mismatch() {
    let tamper = |json: String| {
        let at = json.find("\"derived_seed\": ").unwrap() + "\"derived_seed\": ".len();
        let end = at + json[at..].find(',').unwrap();
        format!("{}1{}", &json[..at], &json[end..])
    };
    let result = replay_first_dump(7, tamper);
    assert!(!result.matches, "a wrong derived seed must not reproduce");
    assert!(result.diffs[0].starts_with("derived_seed: bundle 1 vs"), "{:?}", result.diffs);
}
