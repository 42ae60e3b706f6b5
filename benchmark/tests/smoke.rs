//! `run --smoke`: every workload at tiny `n`, one pass per thread count
//! plus the traced pass and the layer replay. Every metric named in
//! `BENCHMARK.json` must be emitted and every runner call must pass its
//! correctness checks.

use msc_obs::export::{parse_json, Json};
use std::path::Path;
use std::process::Command;

fn names(v: &Json, group: &str) -> Vec<String> {
    v.get(group)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).expect("metric name").to_string())
        .collect()
}

#[test]
fn smoke_run_emits_every_metric_with_no_failures() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let bench =
        parse_json(&std::fs::read_to_string(root.join("../BENCHMARK.json")).unwrap()).unwrap();
    let workloads: Vec<String> = bench
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect();
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let out = Command::new(env!("CARGO_BIN_EXE_msc-benchmark"))
        .args(["run", "--workload", "all", "--smoke", "--seed", "42", "--out"])
        .arg(&out_dir)
        .output()
        .expect("run the benchmark");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = parse_json(stdout.lines().last().expect("result line")).expect("result JSON");
    assert_eq!(last.get("correct"), Some(&Json::Bool(true)), "{stdout}");
    assert_eq!(last.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(last.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    let Some(Json::Obj(metrics)) = last.get("metrics") else { panic!("no metrics object") };
    for w in &workloads {
        assert!(stdout.contains(&format!("{w} fail_frac 0 ratio")), "{w}: fail_frac not 0");
        for name in names(&bench, "end_to_end").iter().chain(&names(&bench, "per_layer")) {
            let m = metrics.get(&format!("{w}/{name}")).unwrap_or_else(|| panic!("{w}/{name}"));
            assert!(m.get("value").and_then(Json::as_f64).is_some(), "{w}/{name} is not a number");
        }
        assert!(out_dir.join(format!("{w}.json")).is_file());
        assert!(out_dir.join(format!("{w}.trace.json")).is_file());
    }
}
