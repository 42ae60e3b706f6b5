//! `paper replay` over both bundle kinds: parsing never panics on any
//! input, a fleet incident replays REPRODUCED through the one verb, and
//! an unknown kind or an impossible field exits 2.

use msc_obs::flight::{bundle_to_json, Dump, TrialRecord};
use msc_sim::replay::{parse, Request};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::process::Command;

/// A flight bundle whose seeds have no exact f64 representation.
fn flight_fixture() -> String {
    let record = TrialRecord {
        experiment: "fig13".to_string(),
        cell: "los/BLE/32".to_string(),
        index: 5,
        seed: (1 << 53) + 1,
        derived_seed: u64::MAX,
        protocol: "BLE",
        stages: vec![("decode", 300.5)],
        scores: vec![("tag_errors", 7.0), ("tag_bits", 16.0)],
        verdict: "decode_fail".to_string(),
        notes: Vec::new(),
    };
    bundle_to_json(&Dump { reason: "decode_fail".to_string(), record }, 24)
}

/// A fleet incident bundle in the shape the fleet runner writes.
fn incident_fixture() -> String {
    concat!(
        r#"{"schema_version":3,"kind":"fleet_incident","reason":"tag_starved","#,
        r#""scenario":"fleet/paper/best-goodput/outdoor-harvest","policy":"best-goodput","#,
        r#""energy":{"charge_s":1.5,"run_s":0.25},"tags":500,"horizon_s":2.0,"#,
        r#""reading_rate":1.0,"reading_bits":64,"queue_cap":4,"sample_every":0,"#,
        r#""seed":42,"cal_n":8,"backoff":{"cw_min":8,"cw_max":256,"max_retries":6},"#,
        r#""carriers":["802.11n","802.11b","BLE","ZigBee"],"tag":17,"t0":0.25,"t1":1.25,"#,
        r#""truncated":0,"events":["0.500000 reading tag=17"]}"#
    )
    .to_string()
}

/// Literals a mutation splices into a valid bundle.
const TOKENS: [&str; 16] = [
    "0",
    "-3",
    "2.5",
    "1e30",
    "-1e400",
    "18446744073709551616",
    "null",
    "true",
    "\"x\"",
    "[",
    "]",
    "{",
    "}",
    ",",
    ":",
    "\"",
];

fn fixture(which: bool) -> String {
    if which {
        incident_fixture()
    } else {
        flight_fixture()
    }
}

/// Parses `text`; whatever it returns, a parsed incident must be one
/// the fleet engine can run.
fn check(text: &str) -> Result<(), TestCaseError> {
    if let Ok(Request::Incident(inc)) = parse(text) {
        prop_assert!(
            inc.cfg.tags > 0 && inc.cfg.tags <= u32::MAX as usize,
            "tags {}",
            inc.cfg.tags
        );
        prop_assert!(inc.cfg.horizon_s.is_finite(), "horizon {}", inc.cfg.horizon_s);
        prop_assert!(inc.cfg.readings.mean_rate() > 0.0);
    }
    Ok(())
}

#[test]
fn fixtures_parse_as_their_kind() {
    assert!(matches!(parse(&flight_fixture()), Ok(Request::Trial(_))));
    assert!(matches!(parse(&incident_fixture()), Ok(Request::Incident(_))));
    let unknown = incident_fixture().replace("fleet_incident", "fleet_window");
    let err = parse(&unknown).expect_err("unknown kind");
    assert!(err.contains("unknown bundle kind \"fleet_window\""), "{err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        check(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn truncated_bundles_never_panic(which in any::<bool>(), cut in any::<prop::sample::Index>()) {
        let text = fixture(which);
        check(&text[..cut.index(text.len() + 1)])?;
    }

    #[test]
    fn mutated_bundles_never_panic(
        which in any::<bool>(),
        at in any::<prop::sample::Index>(),
        width in 0usize..4,
        token in any::<prop::sample::Index>(),
    ) {
        // Replace `width` bytes at `at` with one token: numbers out of
        // range, wrong types, broken structure. The fixtures are ASCII,
        // so every byte offset is a char boundary.
        let text = fixture(which);
        let start = at.index(text.len() + 1);
        let end = (start + width).min(text.len());
        let edited = format!("{}{}{}", &text[..start], TOKENS[token.index(TOKENS.len())], &text[end..]);
        check(&edited)?;
    }

    #[test]
    fn mutated_field_values_never_panic(
        which in any::<bool>(),
        field in any::<prop::sample::Index>(),
        token in any::<prop::sample::Index>(),
    ) {
        // Replace one field's whole value, so the document stays JSON
        // and the field reader is what gets exercised.
        let text = fixture(which);
        let keys: Vec<usize> = text.match_indices("\":").map(|(i, _)| i + 2).collect();
        let at = keys[field.index(keys.len())];
        let at = at + text[at..].find(|c: char| !c.is_whitespace()).unwrap_or(0);
        let end = at + text[at..].find([',', '}', '\n']).unwrap_or(text.len() - at);
        let edited = format!("{}{}{}", &text[..at], TOKENS[token.index(6)], &text[end..]);
        check(&edited)?;
    }
}

fn paper(args: &[&str], env: &[(&str, &str)]) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_paper"));
    cmd.args(args);
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("run paper binary")
}

#[test]
fn removed_flags_and_verbs_are_rejected() {
    for args in [
        &["fig13", "2", "7", "--trace"][..],
        &["fig13", "2", "7", "--no-wave-cache"],
        &["fig13", "2", "7", "--no-trace-cache"],
        &["fig13", "2", "7", "--flight-slow-us", "100"],
        &["fleet", "8", "42", "--fleet-phy"],
        &["fleet-replay", "incident.json"],
    ] {
        let out = paper(args, &[]);
        assert_eq!(out.status.code(), Some(2), "paper {args:?} must exit 2");
    }
}

#[test]
fn incident_replays_through_paper_replay_and_bad_bundles_exit_2() {
    let dir = std::env::temp_dir().join(format!("msc-incident-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_str().expect("utf8 temp path");
    // A 31 s horizon outlasts the 30 s starvation threshold.
    let env = [("MSC_FLEET_HORIZON_S", "31")];
    let out = paper(&["fleet", "8", "42", "--no-progress", "--metrics-out", dir_s], &env);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let incident = std::fs::read_dir(dir.join("flight"))
        .expect("flight dir exists")
        .map(|e| e.unwrap().path())
        .find(|p| p.to_string_lossy().contains("tag_starved"))
        .expect("a starvation incident bundle");
    let incident_s = incident.to_str().unwrap();

    for threads in ["1", "8"] {
        let out = paper(&["replay", incident_s, "--threads", threads], &[]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.lines().any(|l| l.starts_with("REPRODUCED")),
            "replay at {threads} threads: {:?}\nstdout: {stdout}\nstderr: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
    }

    let text = std::fs::read_to_string(&incident).unwrap();
    let tags_at = text.find("\"tags\":").expect("tags field") + "\"tags\":".len();
    let tags_end = tags_at + text[tags_at..].find(',').unwrap();
    let no_tags = format!("{}0{}", &text[..tags_at], &text[tags_end..]);
    let unknown = text.replace("\"fleet_incident\"", "\"mystery\"");
    for (name, body) in [("tags0", no_tags), ("unknown-kind", unknown)] {
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, body).unwrap();
        let out = paper(&["replay", path.to_str().unwrap()], &[]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(2), "{name}: {}", String::from_utf8_lossy(&out.stderr));
        assert!(!stdout.contains("REPRODUCED"), "{name}: {stdout}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
