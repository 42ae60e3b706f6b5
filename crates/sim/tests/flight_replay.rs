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

    // The JSON round trip the `paper` binary performs.
    let bundle = flight::parse_bundle(&flight::bundle_to_json(dump, 2)).expect("bundle parses");
    assert_eq!(bundle.experiment, "fig13");
    assert_eq!(bundle.verdict, "decode_fail");

    for threads in [1, 8] {
        msc_par::set_threads(threads);
        let result = msc_sim::replay::replay(&bundle)
            .unwrap_or_else(|e| panic!("replay at {threads} threads: {e}"));
        assert!(result.matches, "replay at {threads} threads diverged: {:?}", result.diffs);
        let record = result.record.expect("a trial replay carries its record");
        assert_eq!(record.verdict, dump.record.verdict);
        assert_eq!(record.scores, dump.record.scores);
        assert_eq!(record.derived_seed, dump.record.derived_seed);
    }
    msc_par::set_threads(0);
}

#[test]
fn replay_notes_name_the_decode_error_at_1_and_8_threads() {
    let _guard = flight::tests_serial();
    msc_par::set_threads(2);
    let dumps = record_failures(2, 7);
    let dump = &dumps[0];
    assert!(dump.record.notes.is_empty(), "notes are kept only while replaying");
    let bundle = flight::parse_bundle(&flight::bundle_to_json(dump, 2)).expect("parse");
    let notes = |threads: usize| {
        msc_par::set_threads(threads);
        let result = msc_sim::replay::replay(&bundle).expect("replay runs");
        result.record.expect("a trial replay carries its record").notes
    };
    let one = notes(1);
    assert!(one.iter().any(|n| n.starts_with("rx.decode_err ")), "{one:?}");
    assert!(one.iter().any(|n| n.starts_with("pipe.packet ")), "{one:?}");
    assert_eq!(one, notes(8), "notes must not depend on the thread count");
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
        flight::arm(FlightConfig { max_dumps });
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
fn per_trace_id_miss_replays_at_1_and_8_threads() {
    // Each runner digitizes trace i once per ADC configuration and
    // scores it with every matcher in one pool worker, so one trace's
    // trials of several cells interleave: abl-slope's five slopes from
    // one acquisition, fig5's five window splits of one 20 Msps
    // digitization, fig8's train and test seeds with three rows over two
    // ADC rates. A miss must still replay from its own `(cell, index)`.
    let _guard = flight::tests_serial();
    for (id, n, seed, cell) in [
        ("abl-slope", 10, 42, "id/slope0.00"),
        ("fig5", 10, 3, "id/lp40"),
        ("fig8", 16, 42, "id/2.5-std/test"),
    ] {
        msc_par::set_threads(2);
        let dumps = record_runner(id, n, seed);
        let dump = dumps.iter().find(|d| d.reason == "id_miss");
        let dump = dump.unwrap_or_else(|| panic!("{id}({n}, {seed}) kept no id_miss: {dumps:?}"));
        assert_eq!(dump.record.cell, cell, "{id}");
        let bundle = flight::parse_bundle(&flight::bundle_to_json(dump, n)).expect("bundle parses");
        for threads in [1, 8] {
            msc_par::set_threads(threads);
            let result = msc_sim::replay::replay(&bundle)
                .unwrap_or_else(|e| panic!("{id} replay at {threads} threads: {e}"));
            assert!(result.matches, "{id} at {threads} threads diverged: {:?}", result.diffs);
            let record = result.record.expect("a trial replay carries its record");
            assert_eq!(record.scores, dump.record.scores, "{id}");
        }
    }
    msc_par::set_threads(0);
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

/// Runs registry runner `id` at `(n, seed)` with the recorder armed
/// and returns its dumps.
fn record_runner(id: &str, n: usize, seed: u64) -> Vec<flight::Dump> {
    let exp = msc_sim::experiments::find(id).expect("registered runner");
    flight::arm(FlightConfig::default());
    msc_obs::metrics::set_experiment(exp.id);
    let _ = (exp.run)(n, seed);
    let dumps = flight::take_dumps();
    flight::disarm();
    dumps
}

#[test]
fn each_runner_keeps_its_own_failures_at_1_and_8_threads() {
    // One armed run of fig8 then fig14. fig8's misidentifications alone
    // exceed the cap, so a single run-wide cap would keep none of
    // fig14's decode failures; the per-(experiment, reason) cap keeps
    // both kinds, in run order, whatever the thread count.
    let _guard = flight::tests_serial();
    let kept = |threads: usize| {
        msc_par::set_threads(threads);
        flight::arm(FlightConfig::default());
        msc_obs::metrics::set_experiment("fig8");
        let _ = msc_sim::experiments::fig08::run(12, 7);
        msc_obs::metrics::set_experiment("fig14");
        let _ = msc_sim::experiments::fig14::run(2, 7);
        let dumps = flight::take_dumps();
        flight::disarm();
        dumps.into_iter().map(|d| (d.record.cell, d.record.index, d.reason)).collect::<Vec<_>>()
    };
    let one = kept(1);
    let count = |reason: &str| one.iter().filter(|(_, _, r)| r == reason).count();
    let cap = FlightConfig::default().max_dumps;
    assert_eq!(count("id_miss"), cap, "fig8 must fill its own cap");
    assert!(count("decode_fail") > 0, "fig14's decode failures must be kept too");
    assert_eq!(one, kept(8), "kept (cell, index, reason) at 1 vs 8 threads");
    msc_par::set_threads(0);
}

#[test]
fn per_trial_runner_failures_replay_at_1_and_8_threads() {
    // Each failure occurs on its own at its (n, seed): a ZigBee packet
    // lost at −2 dB with γ = 2, an 802.11n QPSK packet lost at 8 m, a
    // FreeRider pair whose original frame died behind the concrete
    // wall, and a collided BLE packet the filterless tag names 802.11n.
    let _guard = flight::tests_serial();
    for (id, n, seed, cell, reason) in [
        ("abl-gamma", 8, 1, "abl-gamma/2/-2", "decode_fail"),
        ("fig17", 8, 10, "fig17/OFDM-QPSK", "decode_fail"),
        ("fig9", 6, 42, "fig9/FreeRider/concrete wall", "decode_fail"),
        ("ext-filter", 10, 42, "ext-filter/filterless (paper)", "id_miss"),
    ] {
        msc_par::set_threads(2);
        let dumps = record_runner(id, n, seed);
        let dump = dumps.iter().find(|d| d.record.cell == cell);
        let dump = dump.unwrap_or_else(|| panic!("{id}({n}, {seed}): no failure in {cell}"));
        assert_eq!(dump.reason, reason, "{id}");
        let bundle = flight::parse_bundle(&flight::bundle_to_json(dump, n)).expect("bundle parses");
        for threads in [1, 8] {
            msc_par::set_threads(threads);
            let result = msc_sim::replay::replay(&bundle)
                .unwrap_or_else(|e| panic!("{id} replay at {threads} threads: {e}"));
            assert!(result.matches, "{id} at {threads} threads diverged: {:?}", result.diffs);
        }
    }
    msc_par::set_threads(0);
}

/// Runs `fleet::run(8, seed)` with the recorder armed and returns the
/// report and the first fleet-calibration bundle.
fn record_fleet_calibration(seed: u64) -> (msc_sim::Report, flight::Bundle) {
    use msc_sim::experiments::fleet;
    // Process-wide OnceLock: a short horizon keeps the MAC sweeps cheap.
    std::env::set_var("MSC_FLEET_HORIZON_S", "2.0");
    flight::arm(FlightConfig::default());
    msc_obs::metrics::set_experiment("fleet");
    let report = fleet::run(8, seed);
    let dumps = flight::take_dumps();
    flight::disarm();
    let _ = fleet::take_incidents();
    let dump = dumps.iter().find(|d| d.record.cell.starts_with("fleet/cal/"));
    let dump = dump.unwrap_or_else(|| panic!("fleet(8, {seed}) kept no calibration failure"));
    let bundle = flight::parse_bundle(&flight::bundle_to_json(dump, 8)).expect("bundle parses");
    (report, bundle)
}

#[test]
fn calibration_bundle_replays_after_a_memoized_fleet_run() {
    // The recording run leaves its link table in the process memo; the
    // replay must still run the captured calibration trial.
    let _guard = flight::tests_serial();
    msc_par::set_threads(2);
    let (_, bundle) = record_fleet_calibration(42);
    for threads in [1, 8] {
        msc_par::set_threads(threads);
        let result = msc_sim::replay::replay(&bundle)
            .unwrap_or_else(|e| panic!("replay at {threads} threads: {e}"));
        assert!(result.matches, "replay at {threads} threads diverged: {:?}", result.diffs);
    }
    msc_par::set_threads(0);
}

#[test]
fn calibration_replay_leaves_no_table_behind() {
    // Record with the memos off, so the process holds no table for
    // (8, 1); then replay, then run fleet again with the memos on. The
    // replay's placeholder outcomes must not become that run's table.
    let _guard = flight::tests_serial();
    msc_par::set_threads(2);
    msc_sim::memo::set_all_enabled(false);
    let (fresh, bundle) = record_fleet_calibration(1);
    msc_sim::memo::set_all_enabled(true);
    let result = msc_sim::replay::replay(&bundle).expect("replay runs");
    assert!(result.matches, "{:?}", result.diffs);
    let after = msc_sim::experiments::fleet::run(8, 1);
    assert_eq!(fresh.to_json(), after.to_json(), "a replay must not change a later fleet report");
    msc_par::set_threads(0);
}
