//! The parallel engine's contract: the report a run produces is
//! byte-identical at any thread count, because every Monte-Carlo packet
//! seeds its own RNG from `(seed, cell, index)` rather than drawing from
//! a shared stream.

use std::process::Command;

fn paper_stdout(args: &[&str]) -> String {
    let out =
        Command::new(env!("CARGO_BIN_EXE_paper")).args(args).output().expect("run paper binary");
    assert!(
        out.status.success(),
        "paper {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

#[test]
fn fig7_report_identical_at_1_and_8_threads() {
    let one = paper_stdout(&["fig7", "4", "42", "--threads", "1"]);
    let eight = paper_stdout(&["fig7", "4", "42", "--threads", "8"]);
    assert!(!one.trim().is_empty(), "fig7 produced no output");
    assert_eq!(one, eight, "fig7 output must not depend on thread count");
}

#[test]
fn fig13_report_identical_at_1_and_3_threads() {
    // A pipeline-heavy experiment (run_packets batches per cell).
    let one = paper_stdout(&["fig13", "2", "7", "--threads", "1"]);
    let three = paper_stdout(&["fig13", "2", "7", "--threads", "3"]);
    assert_eq!(one, three, "fig13 output must not depend on thread count");
}

#[test]
fn cached_and_fresh_reports_identical_at_1_4_8_threads() {
    // The analog trace memo holds a pure function of its key, so a
    // fixed-seed report must be byte-identical with the memo on or off,
    // at every thread count. fig7 reads its traces through the memo.
    let mut outputs = Vec::new();
    for threads in ["1", "4", "8"] {
        let cached = paper_stdout(&["fig7", "2", "7", "--threads", threads]);
        let fresh = paper_stdout(&["fig7", "2", "7", "--threads", threads, "--no-memo"]);
        assert!(!cached.trim().is_empty(), "fig7 produced no output at {threads} threads");
        assert_eq!(cached, fresh, "cache must not change results at {threads} threads");
        outputs.push(cached);
    }
    assert_eq!(outputs[0], outputs[1], "1 vs 4 threads");
    assert_eq!(outputs[0], outputs[2], "1 vs 8 threads");
}

#[test]
fn trace_cache_reports_identical_at_1_4_8_threads() {
    // The trace cache memoizes a pure, seed-keyed trace generation, so
    // an identification report must be byte-identical with the cache on
    // or off, at every thread count. fig7 exercises both the shared
    // train set (hit on the second experiment run) and the ^0x5a5a test
    // set under batched scoring and the incremental rule search.
    let mut outputs = Vec::new();
    for threads in ["1", "4", "8"] {
        let cached = paper_stdout(&["fig7", "4", "42", "--threads", threads]);
        let fresh = paper_stdout(&["fig7", "4", "42", "--threads", threads, "--no-memo"]);
        assert!(!cached.trim().is_empty(), "fig7 produced no output at {threads} threads");
        assert_eq!(cached, fresh, "trace cache must not change results at {threads} threads");
        outputs.push(cached);
    }
    assert_eq!(outputs[0], outputs[1], "trace cache: 1 vs 4 threads");
    assert_eq!(outputs[0], outputs[2], "trace cache: 1 vs 8 threads");
}

#[test]
fn no_memo_counts_only_bypasses_and_keeps_reports() {
    // `--no-memo` switches off all three memos: fig5 requests analog
    // trace sets, fleet requests waveforms (through calibration) and a
    // link table. Every request must count a bypass, none a miss, and
    // each report must match the memoized run byte for byte.
    let dir = std::env::temp_dir().join(format!("msc-no-memo-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut bypasses = std::collections::BTreeMap::new();
    for args in [["fig5", "4", "42"], ["fleet", "8", "42"]] {
        let run = |extra: &[&str]| {
            let out = Command::new(env!("CARGO_BIN_EXE_paper"))
                .args(args)
                .args(["--no-progress"])
                .args(extra)
                .env("MSC_FLEET_HORIZON_S", "2.0")
                .current_dir(&dir) // profile.json lands here
                .output()
                .expect("run paper binary");
            assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
            String::from_utf8(out.stdout).unwrap()
        };
        assert_eq!(run(&[]), run(&["--no-memo", "--profile"]), "--no-memo changed {args:?}");
        let text = std::fs::read_to_string(dir.join("profile.json")).expect("profile.json");
        let profile = msc_obs::export::parse_json(&text).expect("profile.json parses");
        let counters = profile.get("counters").expect("counters object");
        for memo in ["tracecache", "linkcache"] {
            let count = |field: &str| {
                let key = format!("{memo}.{field}");
                counters.get(&key).and_then(|v| v.as_f64()).unwrap_or_else(|| panic!("no {key}"))
            };
            assert_eq!(count("misses"), 0.0, "{memo} missed under --no-memo in {args:?}");
            assert_eq!(count("hits"), 0.0, "{memo} hit under --no-memo in {args:?}");
            *bypasses.entry(memo).or_insert(0.0) += count("bypasses");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(bypasses.values().all(|&b| b > 0.0), "every memo must be bypassed: {bypasses:?}");
}

#[test]
fn abl_slope_sweeps_without_the_memo_at_1_and_8_threads() {
    // abl-slope acquires each trace once for its five front ends and
    // scores it on the spot: its report must not depend on the thread
    // count, and it must ask the analog trace memo for nothing.
    let dir = std::env::temp_dir().join(format!("msc-slope-sweep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let one = paper_stdout(&["abl-slope", "10", "42", "--threads", "1", "--no-progress"]);
    let out = Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(["abl-slope", "10", "42", "--threads", "8", "--no-progress", "--profile"])
        .current_dir(&dir) // profile.json lands here
        .output()
        .expect("run paper binary");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(one, String::from_utf8(out.stdout).unwrap(), "abl-slope: 1 vs 8 threads");
    let text = std::fs::read_to_string(dir.join("profile.json")).expect("profile.json");
    let profile = msc_obs::export::parse_json(&text).expect("profile.json parses");
    let counters = profile.get("counters").expect("counters object");
    for field in ["hits", "misses", "bypasses"] {
        let key = format!("tracecache.{field}");
        let count = counters.get(&key).and_then(|v| v.as_f64());
        assert_eq!(count, Some(0.0), "abl-slope must not request a trace set ({key})");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn observability_flags_do_not_change_reports() {
    // `--metrics-out` (which arms the flight recorder), `--profile` and
    // `--events` only observe: fig13 (the one trial engine) and fig5 (the
    // one identification scoring pass) must match a plain run byte for
    // byte, at 1 and 8 threads.
    let dir = std::env::temp_dir().join(format!("msc-obs-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for exp in ["fig13", "fig5"] {
        let plain = paper_stdout(&[exp, "2", "7", "--threads", "1"]);
        assert!(!plain.trim().is_empty(), "{exp} produced no output");
        for threads in ["1", "8"] {
            for extra in
                [&[][..], &["--metrics-out", "m"], &["--profile"], &["--events", "e.jsonl"]]
            {
                let out = Command::new(env!("CARGO_BIN_EXE_paper"))
                    .args([exp, "2", "7", "--no-progress", "--threads", threads])
                    .args(extra)
                    .current_dir(&dir) // relative outputs and profile.* land here
                    .output()
                    .expect("run paper binary");
                assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
                let stdout = String::from_utf8(out.stdout).unwrap();
                assert_eq!(stdout, plain, "{extra:?} changed {exp} at {threads} threads");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fig13_event_stream_identical_at_1_4_8_threads() {
    // fig13's 32 cells run concurrently; each buffers its cell_start /
    // early_stop / cell_done events and the runner emits the buffers in
    // cell order, so the stripped stream cannot see the fan-out.
    let dir = std::env::temp_dir().join(format!("msc-cell-events-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let streams: Vec<Vec<String>> = ["1", "4", "8"]
        .iter()
        .map(|threads| {
            let path = dir.join(format!("events-{threads}.jsonl"));
            let out = Command::new(env!("CARGO_BIN_EXE_paper"))
                .args(["fig13", "6", "42", "--no-progress", "--threads", threads, "--events"])
                .arg(&path)
                .output()
                .expect("run paper binary");
            assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
            let text = std::fs::read_to_string(&path).expect("event stream written");
            text.lines().map(msc_obs::events::strip_volatile).collect()
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    let cells = streams[0].iter().filter(|l| l.contains("\"kind\":\"cell_done\"")).count();
    assert_eq!(cells, 32, "one cell_done per fig13 cell");
    assert_eq!(streams[0], streams[1], "events: 1 vs 4 threads");
    assert_eq!(streams[0], streams[2], "events: 1 vs 8 threads");
}

#[test]
fn no_early_stop_is_thread_count_invariant() {
    // `--no-early-stop` is the one engine flag left: every cell runs its
    // fixed budget on the batched lanes. It must stay byte-identical at
    // 1/4/8 threads like every other configuration.
    let mut outputs = Vec::new();
    for threads in ["1", "4", "8"] {
        outputs.push(paper_stdout(&["fig13", "2", "7", "--threads", threads, "--no-early-stop"]));
    }
    assert!(!outputs[0].trim().is_empty(), "fig13 produced no output with --no-early-stop");
    assert_eq!(outputs[0], outputs[1], "--no-early-stop: 1 vs 4 threads");
    assert_eq!(outputs[0], outputs[2], "--no-early-stop: 1 vs 8 threads");
}

#[test]
fn batch_width_does_not_change_reports() {
    // The width is fixed, but a cell whose trial count is not a multiple
    // of it ends in a narrower batch. Lanes are seeded per trial index,
    // never per batch, so trial `i` must come out the same whether it
    // sits in a full batch or in a short tail.
    use msc_core::overlay::Mode;
    use msc_phy::protocol::Protocol;
    use msc_sim::pipeline::{run_packets, AnyLink, Geometry};

    let link = AnyLink::new(Protocol::Ble, Mode::Mode1);
    let geo = Geometry::los(12.0);
    let run = |n: usize| -> Vec<String> {
        run_packets(&link, &geo, Mode::Mode1, 8, n, 7, "batch-width")
            .iter()
            .map(|o| format!("{o:?}"))
            .collect()
    };
    let full = run(17);
    assert_eq!(full.len(), 17);
    for n in [3, 11, 16] {
        assert_eq!(run(n), full[..n], "trials 0..{n} changed with the tail batch width");
    }
}

/// Asserts `paper <id> 8 42` prints the same report at 1, 4 and 8
/// threads under a shortened fleet horizon, which keeps the scenarios
/// cheap while still exercising contention and retries end-to-end.
fn assert_fleet_runner_thread_invariant(id: &str, title: &str) {
    let run = |threads: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_paper"))
            .args([id, "8", "42", "--threads", threads])
            .env("MSC_FLEET_HORIZON_S", "3.0")
            .output()
            .expect("run paper binary");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(out.stdout).expect("utf8 stdout")
    };
    let one = run("1");
    assert!(one.contains(title), "{id} produced no report:\n{one}");
    assert_eq!(one, run("4"), "{id} output must not depend on thread count (1 vs 4)");
    assert_eq!(one, run("8"), "{id} output must not depend on thread count (1 vs 8)");
}

#[test]
fn fleet_report_identical_at_1_4_8_threads() {
    // The fleet runner fans its two power-model groups across the
    // pool; each group fans tag setup out with per-tag derived seeds
    // and resolves each policy's MAC in its own sequential sweep over
    // the group's one merge of carrier streams. Rows are emitted in
    // scenario order on the caller, so the report — calibration cells
    // included — must be byte-identical at every thread count.
    assert_fleet_runner_thread_invariant("fleet", "fleet —");
}

#[test]
fn fleet_scale_report_identical_at_1_4_8_threads() {
    // The four fleet sizes run in parallel and report in size order.
    assert_fleet_runner_thread_invariant("fleet-scale", "fleet-scale —");
}

#[test]
fn fleet_timeline_report_identical_at_1_4_8_threads() {
    assert_fleet_runner_thread_invariant("fleet-timeline", "fleet-timeline —");
}

#[test]
fn in_process_batch_is_thread_count_invariant() {
    use msc_core::overlay::Mode;
    use msc_phy::protocol::Protocol;
    use msc_sim::pipeline::{run_packets, AnyLink, Geometry};

    let link = AnyLink::new(Protocol::WifiB, Mode::Mode1);
    let geo = Geometry::los(4.0);
    let fmt = |outs: Vec<msc_sim::pipeline::PacketOutcome>| format!("{outs:?}");
    msc_par::set_threads(1);
    let seq = fmt(run_packets(&link, &geo, Mode::Mode1, 8, 6, 42, "det-test"));
    msc_par::set_threads(3);
    let par = fmt(run_packets(&link, &geo, Mode::Mode1, 8, 6, 42, "det-test"));
    msc_par::set_threads(0);
    assert_eq!(seq, par);
}
