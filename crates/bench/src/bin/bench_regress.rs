//! Bench regression gate: compares a current `BENCH_*.json` against a
//! checked-in baseline and fails (exit 1) when any row regresses beyond
//! measurement noise *after* normalizing out the overall machine-speed
//! shift.
//!
//! ```text
//! bench_regress <baseline.json> <current.json> [--slack 0.10]
//! ```
//!
//! Shared CI runners differ in absolute speed from the machine that
//! recorded the baseline, so raw medians are not comparable. Every
//! common row's ratio `current/baseline` is computed and the median
//! ratio is taken as the machine shift. A row then fails only when its
//! measured spread interval `[low_ns, high_ns]`, normalized by the
//! shift, lies **entirely above** the baseline row's interval (widened
//! by `--slack` on each side) — the same interval-overlap significance
//! test `paper diff` applies to Monte-Carlo cells, here applied to
//! timing spreads. Overlapping intervals mean the movement is within
//! the runs' own jitter; a uniformly slower runner shifts every row and
//! is normalized away; only a kernel that got slower *relative to the
//! suite and beyond both runs' spread* fails.

use msc_obs::export::{parse_json, Json};
use msc_obs::stats::Interval;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// One benchmark row: its measured spread and median, nanoseconds.
#[derive(Clone, Copy, Debug)]
struct Row {
    interval: Interval,
    median: f64,
}

/// Reads a `BENCH_*.json` file through [`parse_rows`].
fn read_rows(path: &str) -> Result<BTreeMap<String, Row>, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_rows(&body).map_err(|e| format!("{path}: {e}"))
}

/// Parses the compat-criterion JSON sink: an array of objects with
/// `"name"`, `"low_ns"`, `"median_ns"`, `"high_ns"` fields, in any key
/// order and layout. Elements without a name or median are skipped.
/// Rows missing the spread fields fall back to a degenerate interval at
/// the median (old baseline files stay comparable).
fn parse_rows(body: &str) -> Result<BTreeMap<String, Row>, String> {
    let doc = parse_json(body)?;
    let items = doc.as_arr().ok_or("expected a JSON array of benchmark rows")?;
    let mut rows = BTreeMap::new();
    for item in items {
        let num = |key: &str| item.get(key).and_then(Json::as_f64);
        let (Some(name), Some(median)) =
            (item.get("name").and_then(Json::as_str), num("median_ns"))
        else {
            continue;
        };
        let low = num("low_ns").unwrap_or(median);
        let high = num("high_ns").unwrap_or(median);
        rows.insert(name.to_string(), Row { interval: Interval::new(low, high), median });
    }
    if rows.is_empty() {
        return Err("no benchmark rows found".to_string());
    }
    Ok(rows)
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut slack = 0.10f64;
    let mut paths = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            // `--threshold` kept as an alias so existing CI invocations
            // keep working.
            "--slack" | "--threshold" => {
                let Some(v) = it.next().and_then(|s| s.parse().ok()) else {
                    eprintln!("{a} needs a number");
                    return ExitCode::from(2);
                };
                slack = v;
            }
            s if s.starts_with("--") => {
                eprintln!("unknown flag: {s}");
                return ExitCode::from(2);
            }
            s => paths.push(s.to_string()),
        }
    }
    let [baseline_path, current_path] = paths.as_slice() else {
        eprintln!("usage: bench_regress <baseline.json> <current.json> [--slack 0.10]");
        return ExitCode::from(2);
    };

    let (baseline, current) = match (read_rows(baseline_path), read_rows(current_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_regress: {e}");
            return ExitCode::from(2);
        }
    };

    // Rows present in only one suite (a bench added or removed since
    // the baseline was recorded) are skipped with a warning, not an
    // error: the gate fails only on measured regressions.
    let mut pairs: Vec<(String, Row, Row)> = Vec::new();
    for (name, base) in &baseline {
        match current.get(name) {
            Some(cur) if base.median > 0.0 => pairs.push((name.clone(), *base, *cur)),
            Some(_) => eprintln!("bench_regress: skip {name}: baseline median is 0"),
            None => eprintln!("bench_regress: skip {name}: only in baseline (removed bench?)"),
        }
    }
    for name in current.keys() {
        if !baseline.contains_key(name) {
            eprintln!(
                "bench_regress: skip {name}: only in current (new bench — refresh the baseline)"
            );
        }
    }
    if pairs.is_empty() {
        eprintln!(
            "bench_regress: WARNING: no common rows between {baseline_path} and {current_path} — nothing compared, passing"
        );
        return ExitCode::SUCCESS;
    }

    let mut rs: Vec<f64> = pairs.iter().map(|(_, b, c)| c.median / b.median).collect();
    let shift = median(&mut rs);
    println!(
        "bench_regress: {} common rows, machine shift ×{shift:.2}, ±{:.0}% slack, \
         fail when normalized spreads are disjoint above",
        pairs.len(),
        slack * 100.0
    );

    let mut failures = 0u32;
    for (name, base, cur) in &pairs {
        // Normalize the current spread by the machine shift, then widen
        // the baseline spread by the slack factor on both sides — a
        // checked-in baseline is a single run and understates jitter.
        let normalized = cur.interval.scaled(1.0 / shift);
        let widened =
            Interval::new(base.interval.lo / (1.0 + slack), base.interval.hi * (1.0 + slack));
        let ratio = cur.median / base.median;
        let rel = ratio / shift;
        let regressed = !normalized.overlaps(&widened) && normalized.lo > widened.hi;
        let verdict = if regressed {
            failures += 1;
            "FAIL"
        } else if !normalized.overlaps(&widened) {
            // Disjoint *below*: a significant improvement — refresh the
            // baseline to tighten the gate, but never fail on it.
            "fast"
        } else {
            "ok"
        };
        println!(
            "  {verdict:4} {name}: ×{ratio:.2} raw, ×{rel:.2} vs suite, \
             [{:.0}, {:.0}] ns vs baseline [{:.0}, {:.0}] ns",
            normalized.lo, normalized.hi, widened.lo, widened.hi
        );
    }

    if failures > 0 {
        eprintln!("bench_regress: {failures} row(s) regressed beyond measured spread + slack");
        return ExitCode::FAILURE;
    }
    println!("bench_regress: no regressions");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(rows: &BTreeMap<String, Row>) -> Vec<(String, f64, f64, f64)> {
        rows.iter()
            .map(|(name, r)| (name.clone(), r.interval.lo, r.median, r.interval.hi))
            .collect()
    }

    #[test]
    fn layout_and_key_order_do_not_change_rows() {
        let one_per_line = r#"[
  {"name": "id_sweep/detect_start", "low_ns": 10.5, "median_ns": 12.0, "high_ns": 14.25},
  {"name": "fleet/tags100/h5", "low_ns": 925229.8, "median_ns": 1014888.8, "high_ns": 1219483.0},
  {"name": "legacy/no_spread", "median_ns": 3.0}
]
"#;
        let reordered = r#"
[ {
    "high_ns": 14.25,
    "median_ns": 12.0,
    "name": "id_sweep/detect_start",
    "low_ns": 10.5
  },
  { "median_ns": 3.0, "name": "legacy/no_spread" },
  {
    "median_ns": 1014888.8, "high_ns": 1219483.0,
    "low_ns": 925229.8,
    "name": "fleet/tags100/h5"
  } ]"#;
        let a = parse_rows(one_per_line).unwrap();
        let b = parse_rows(reordered).unwrap();
        assert_eq!(flat(&a), flat(&b));
        assert_eq!(a.len(), 3);
        assert_eq!(flat(&a)[2], ("legacy/no_spread".to_string(), 3.0, 3.0, 3.0));
    }

    #[test]
    fn committed_baseline_parses() {
        let body = include_str!("../../../../BENCH_e2e.json");
        let rows = parse_rows(body).unwrap();
        assert!(rows.keys().any(|k| k.starts_with("id_sweep/")));
        assert!(rows.values().all(|r| r.interval.lo <= r.median && r.median <= r.interval.hi));
    }

    #[test]
    fn malformed_or_empty_input_is_an_error() {
        assert!(parse_rows("").is_err());
        assert!(parse_rows("[]").is_err());
        assert!(parse_rows(r#"{"name": "x", "median_ns": 1}"#).is_err());
        assert!(parse_rows(r#"[{"name": "x", "median_ns": 1}"#).is_err());
    }
}
