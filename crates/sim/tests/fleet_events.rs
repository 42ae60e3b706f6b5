//! The event stream's determinism contract: with timestamps (and every
//! other volatile field — they all live inside the `"wall"` fragment)
//! stripped, the stream a fleet run emits is byte-identical at any
//! thread count, because every deterministic event is emitted either
//! from the sequential MAC sweep or from the sequential caller thread
//! of the cell pipeline. And the sink is purely observational: opening
//! it must not change the report by a byte (which is also why the
//! events flag stays outside the archive config hash).

use std::process::Command;

/// Runs `paper fleet 8 42` at the given thread count with the event
/// sink writing to `events_to` (when set), returning (stdout, events
/// file contents). The shortened horizon keeps the six scenario rows
/// cheap while still exercising contention, retries, and windows.
fn run_fleet(threads: &str, events_to: Option<&std::path::Path>) -> (String, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_paper"));
    cmd.args(["fleet", "8", "42", "--threads", threads, "--no-progress"])
        .env("MSC_FLEET_HORIZON_S", "2.0");
    if let Some(path) = events_to {
        cmd.args(["--events", path.to_str().expect("utf8 temp path")]);
    }
    let out = cmd.output().expect("run paper binary");
    assert!(
        out.status.success(),
        "paper fleet (threads={threads}) failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    let events = match events_to {
        Some(path) => std::fs::read_to_string(path).expect("read events file"),
        None => String::new(),
    };
    (stdout, events)
}

/// Maps a raw JSONL stream to its deterministic skeleton: one
/// `strip_volatile` line per event, volatile `"wall"` fragment removed.
fn stripped(stream: &str) -> Vec<String> {
    stream.lines().map(msc_obs::events::strip_volatile).collect()
}

#[test]
fn event_stream_identical_at_1_4_8_threads() {
    let dir = std::env::temp_dir();
    let mut streams = Vec::new();
    for threads in ["1", "4", "8"] {
        let path = dir.join(format!("msc_fleet_events_t{threads}_{}.jsonl", std::process::id()));
        let (_, raw) = run_fleet(threads, Some(&path));
        let _ = std::fs::remove_file(&path);
        assert!(!raw.trim().is_empty(), "no events written at {threads} threads");
        streams.push(stripped(&raw));
    }
    // The stream brackets the run and covers every layer: run lifecycle
    // from the driver, cell lifecycle from the pipeline (calibration
    // cells), window aggregates from the MAC trace.
    let one = &streams[0];
    assert!(one[0].contains("\"kind\":\"run_start\""), "first event: {}", one[0]);
    let last = one.last().expect("nonempty stream");
    assert!(last.contains("\"kind\":\"run_end\""), "last event: {last}");
    for kind in ["experiment_start", "cell_start", "cell_done", "fleet_window", "experiment_end"] {
        assert!(
            one.iter().any(|l| l.contains(&format!("\"kind\":\"{kind}\""))),
            "stream has no {kind} event"
        );
    }
    assert_eq!(streams[0], streams[1], "stripped event stream: 1 vs 4 threads");
    assert_eq!(streams[0], streams[2], "stripped event stream: 1 vs 8 threads");
}

#[test]
fn event_sink_does_not_change_the_report() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("msc_fleet_events_onoff_{}.jsonl", std::process::id()));
    let (with_sink, raw) = run_fleet("2", Some(&path));
    let _ = std::fs::remove_file(&path);
    let (without_sink, _) = run_fleet("2", None);
    assert!(with_sink.contains("fleet —"), "fleet produced no report:\n{with_sink}");
    assert!(!raw.trim().is_empty(), "sink run wrote no events");
    assert_eq!(with_sink, without_sink, "event sink must not change the report");
}

/// MAC tracing (windows, detectors, incident capture) rides the same
/// observational contract in process: the `FleetResult` and the
/// rendered report are identical with the trace on or off. Arming the
/// flight recorder turns the trace on.
#[test]
fn mac_trace_does_not_change_the_report() {
    use msc_obs::flight::{self, FlightConfig};
    let _guard = msc_obs::events::tests_serial();
    let _flight = flight::tests_serial();
    // Process-wide OnceLock: set before the first horizon_s() read.
    std::env::set_var("MSC_FLEET_HORIZON_S", "2.0");
    use msc_sim::experiments::fleet;
    let plain = fleet::run(8, 42);
    flight::arm(FlightConfig::default());
    let traced = fleet::run(8, 42);
    flight::disarm();
    let _ = flight::take_dumps();
    let _ = fleet::take_incidents();
    assert_eq!(plain.render(), traced.render(), "MAC trace must not change the rendered report");
    assert_eq!(plain.to_json(), traced.to_json(), "MAC trace must not change the JSON report");
}
