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
    // The waveform cache memoizes a pure synthesis, so a fixed-seed
    // report must be byte-identical with the cache on or off, at every
    // thread count.
    let mut outputs = Vec::new();
    for threads in ["1", "4", "8"] {
        let cached = paper_stdout(&["fig13", "2", "7", "--threads", threads]);
        let fresh = paper_stdout(&["fig13", "2", "7", "--threads", threads, "--no-wave-cache"]);
        assert!(!cached.trim().is_empty(), "fig13 produced no output at {threads} threads");
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
        let fresh = paper_stdout(&["fig7", "4", "42", "--threads", threads, "--no-trace-cache"]);
        assert!(!cached.trim().is_empty(), "fig7 produced no output at {threads} threads");
        assert_eq!(cached, fresh, "trace cache must not change results at {threads} threads");
        outputs.push(cached);
    }
    assert_eq!(outputs[0], outputs[1], "trace cache: 1 vs 4 threads");
    assert_eq!(outputs[0], outputs[2], "trace cache: 1 vs 8 threads");
}

#[test]
fn legacy_engine_flags_are_thread_count_invariant() {
    // `--batch 1 --no-early-stop` selects the pre-batch per-trial code
    // path (seed-compatible output); it must stay byte-identical at
    // 1/4/8 threads like every other configuration.
    let mut outputs = Vec::new();
    for threads in ["1", "4", "8"] {
        outputs.push(paper_stdout(&[
            "fig13",
            "2",
            "7",
            "--threads",
            threads,
            "--batch",
            "1",
            "--no-early-stop",
        ]));
    }
    assert!(!outputs[0].trim().is_empty(), "fig13 produced no output with legacy flags");
    assert_eq!(outputs[0], outputs[1], "legacy flags: 1 vs 4 threads");
    assert_eq!(outputs[0], outputs[2], "legacy flags: 1 vs 8 threads");
}

#[test]
fn batch_width_does_not_change_reports() {
    // Any width > 1 must produce identical results: lanes are seeded
    // per trial index, never per batch.
    let four = paper_stdout(&["fig13", "2", "7", "--threads", "2", "--batch", "4"]);
    let eight = paper_stdout(&["fig13", "2", "7", "--threads", "2", "--batch", "8"]);
    assert_eq!(four, eight, "fig13 output must not depend on batch width");
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
    // The fleet runner fans its six scenarios across the pool; each
    // scenario fans tag setup out with per-tag derived seeds and
    // resolves the MAC in one sequential sweep over lazily drawn
    // carrier streams. Rows are emitted in scenario order on the
    // caller, so the report — calibration cells included — must be
    // byte-identical at every thread count.
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
