//! `compare PARENT_DIR CHANGE_DIR`: classifies every (workload, metric)
//! pair of two sets of runs as improved, unchanged, regressed or
//! unresolved, by the bounds in `BENCHMARK.json`.
//!
//! Each directory holds run outputs (`<workload>.json`), directly or in
//! one subdirectory per run. Runs pair up in start order, so the i-th
//! parent run meets the i-th change run; run them alternately, each
//! pair with the same `--seed`.

use crate::catalog;
use crate::stats::iqr;
use msc_dsp::stats::median;
use msc_obs::export::{parse_json, Json};
use std::collections::BTreeMap;
use std::path::Path;

/// Pairs any verdict other than "unresolved" needs.
const MIN_PAIRS: usize = 10;

/// Share of pairs the change must win to claim a gain.
const WIN_SHARE: f64 = 0.9;

/// `setup_s` is a few milliseconds of exec and loader time; a move
/// below this absolute floor is not a regression whatever its share.
const SETUP_FLOOR_S: f64 = 0.005;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How one metric is judged.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub better: Better,
    /// Share of the parent median by which the metric may worsen;
    /// `None` for per-layer metrics, which have no bound.
    pub bound: Option<f64>,
    /// Absolute worsening always tolerated, in the metric's unit.
    pub floor: f64,
    /// The metric is a pure function of the seed: every pair must match.
    pub exact: bool,
}

/// How much worse `b` reads than `a`; negative when it reads better.
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    }
}

/// Pairs in which `change` reads better than `parent`; ties count for
/// neither side.
fn count_wins(parent: &[f64], change: &[f64], better: Better) -> usize {
    parent.iter().zip(change).filter(|(a, b)| worsening(better, **a, **b) < 0.0).count()
}

/// Classifies paired runs: `parent[i]` and `change[i]` ran as pair `i`.
pub fn verdict(parent: &[f64], change: &[f64], spec: Spec) -> Verdict {
    let pairs = parent.len().min(change.len());
    let (p, c) = (&parent[..pairs], &change[..pairs]);
    if spec.exact {
        return if pairs > 0 && p == c { Verdict::Unchanged } else { Verdict::Regressed };
    }
    if pairs < MIN_PAIRS {
        return Verdict::Unresolved;
    }
    let worse = |a: f64, b: f64| worsening(spec.better, a, b);
    let wins = count_wins(p, c, spec.better);
    let losses = count_wins(c, p, spec.better);
    let (mp, mc) = (median(p), median(c));
    let spread = iqr(p);
    let moved = worse(mp, mc);
    let decisive = |n: usize| n as f64 >= WIN_SHARE * pairs as f64;
    if decisive(wins) && -moved > spread {
        return Verdict::Improved;
    }
    match spec.bound {
        Some(bound) => {
            let allowed = (bound * mp.abs()).max(spec.floor);
            if spread > bound * mp.abs() {
                let all_better = p.iter().all(|a| c.iter().all(|b| worse(*a, *b) < 0.0));
                if all_better {
                    Verdict::Unchanged
                } else {
                    Verdict::Unresolved
                }
            } else if moved > allowed {
                Verdict::Regressed
            } else {
                Verdict::Unchanged
            }
        }
        None if decisive(losses) && moved > spread => Verdict::Regressed,
        None => Verdict::Unchanged,
    }
}

/// One run's metric values and start time.
struct Run {
    started: f64,
    metrics: BTreeMap<String, f64>,
}

fn load_run(path: &Path) -> Option<Run> {
    let v = parse_json(&std::fs::read_to_string(path).ok()?).ok()?;
    let started = v.get("started_unix")?.as_f64()?;
    let Some(Json::Obj(m)) = v.get("metrics") else { return None };
    let metrics =
        m.iter().filter_map(|(k, x)| Some((k.clone(), x.get("value")?.as_f64()?))).collect();
    Some(Run { started, metrics })
}

/// Runs of `workload` under `dir`, in start order.
fn load_runs(dir: &Path, workload: &str) -> Vec<Run> {
    let file = format!("{workload}.json");
    let mut paths = vec![dir.join(&file)];
    if let Ok(entries) = std::fs::read_dir(dir) {
        paths.extend(entries.flatten().map(|e| e.path().join(&file)));
    }
    let mut runs: Vec<Run> = paths.iter().filter_map(|p| load_run(p)).collect();
    runs.sort_by(|a, b| a.started.total_cmp(&b.started));
    runs
}

/// `(metric, spec)` for every metric `BENCHMARK.json` lists.
fn specs(benchmark_json: &str) -> Result<Vec<(String, Spec)>, String> {
    let v = parse_json(benchmark_json)?;
    let mut out = Vec::new();
    for (group, bounded) in [("end_to_end", true), ("per_layer", false)] {
        for m in v.get(group).and_then(Json::as_arr).ok_or(format!("no {group} list"))? {
            let name = m.get("name").and_then(Json::as_str).ok_or("metric without name")?;
            let better = match m.get("better").and_then(Json::as_str) {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                _ => return Err(format!("{name}: better must be lower or higher")),
            };
            let bound = if bounded {
                Some(m.get("bound").and_then(Json::as_f64).ok_or(format!("{name}: no bound"))?)
            } else {
                None
            };
            let floor = if name == "setup_s" { SETUP_FLOOR_S } else { 0.0 };
            let exact = catalog::is_exact(name);
            out.push((name.to_string(), Spec { better, bound, floor, exact }));
        }
    }
    Ok(out)
}

pub fn compare(args: &[String]) -> i32 {
    let [parent_dir, change_dir] = args else {
        eprintln!("usage: compare PARENT_DIR CHANGE_DIR");
        return 2;
    };
    let bench = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let specs =
        match std::fs::read_to_string(&bench).map_err(|e| e.to_string()).and_then(|s| specs(&s)) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("compare: {}: {e}", bench.display());
                return 2;
            }
        };
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    println!(
        "{:10} {:34} {:10} {:>14} {:>14} {:>12} {:>6}",
        "workload", "metric", "verdict", "parent_med", "change_med", "parent_iqr", "wins"
    );
    for w in catalog::WORKLOADS {
        let parent = load_runs(Path::new(parent_dir), w.name);
        let change = load_runs(Path::new(change_dir), w.name);
        if parent.is_empty() && change.is_empty() {
            continue;
        }
        for (name, spec) in &specs {
            let values = |runs: &[Run]| -> Vec<f64> {
                runs.iter().filter_map(|r| r.metrics.get(name).copied()).collect()
            };
            let (p, c) = (values(&parent), values(&change));
            if p.is_empty() && c.is_empty() {
                continue;
            }
            let v = if p.len() == parent.len() && c.len() == change.len() {
                verdict(&p, &c, *spec)
            } else {
                Verdict::Unresolved
            };
            let pairs = p.len().min(c.len());
            let wins = count_wins(&p, &c, spec.better);
            println!(
                "{:10} {:34} {:10} {:>14.6} {:>14.6} {:>12.6} {:>3}/{}",
                w.name,
                name,
                v.label(),
                median(&p),
                median(&c),
                iqr(&p),
                wins,
                pairs
            );
            *counts.entry(v.label()).or_default() += 1;
        }
    }
    let summary: Vec<String> = counts.iter().map(|(k, n)| format!("{n} {k}")).collect();
    println!("summary: {}", summary.join(", "));
    i32::from(counts.contains_key("regressed"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const E2E: Spec = Spec { better: Better::Lower, bound: Some(0.1), floor: 0.0, exact: false };

    fn runs(base: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| base + step * (i % 3) as f64).collect()
    }

    #[test]
    fn same_code_is_unchanged() {
        assert_eq!(verdict(&runs(5.0, 0.05), &runs(5.01, 0.05), E2E), Verdict::Unchanged);
    }

    #[test]
    fn consistent_gain_beyond_spread_is_improved() {
        assert_eq!(verdict(&runs(5.0, 0.05), &runs(4.0, 0.05), E2E), Verdict::Improved);
        let higher = Spec { better: Better::Higher, ..E2E };
        assert_eq!(verdict(&runs(0.5, 0.01), &runs(0.6, 0.01), higher), Verdict::Improved);
    }

    #[test]
    fn worsening_past_the_bound_regresses_within_it_does_not() {
        assert_eq!(verdict(&runs(5.0, 0.05), &runs(5.7, 0.05), E2E), Verdict::Regressed);
        assert_eq!(verdict(&runs(5.0, 0.05), &runs(5.3, 0.05), E2E), Verdict::Unchanged);
    }

    #[test]
    fn floor_absorbs_small_absolute_moves() {
        let setup = Spec { floor: SETUP_FLOOR_S, ..E2E };
        assert_eq!(verdict(&runs(0.002, 0.0), &runs(0.003, 0.0), setup), Verdict::Unchanged);
        assert_eq!(verdict(&runs(0.002, 0.0), &runs(0.003, 0.0), E2E), Verdict::Regressed);
    }

    #[test]
    fn spread_wider_than_bound_is_unresolved_unless_every_run_is_better() {
        let noisy = runs(5.0, 1.0);
        assert_eq!(verdict(&noisy, &runs(5.0, 1.0), E2E), Verdict::Unresolved);
        // Every change run beats every parent run, but the median gap
        // is no wider than the parent's spread: no gain, not unresolved.
        let parent = [7.0, 9.0, 7.0, 9.0, 7.0, 9.0, 7.0, 9.0, 7.0, 9.0];
        let change = [6.5; 10];
        assert_eq!(verdict(&parent, &change, E2E), Verdict::Unchanged);
    }

    #[test]
    fn too_few_pairs_is_unresolved() {
        assert_eq!(verdict(&[5.0; 9], &[4.0; 9], E2E), Verdict::Unresolved);
    }

    #[test]
    fn exact_metrics_must_repeat_pairwise() {
        let exact = Spec { exact: true, bound: None, ..E2E };
        assert_eq!(verdict(&[3.0, 4.0], &[3.0, 4.0], exact), Verdict::Unchanged);
        assert_eq!(verdict(&[3.0, 4.0], &[3.0, 5.0], exact), Verdict::Regressed);
    }

    #[test]
    fn per_layer_regresses_only_by_the_mirror_of_the_gain_rule() {
        let layer = Spec { bound: None, ..E2E };
        assert_eq!(verdict(&runs(5.0, 0.05), &runs(6.0, 0.05), layer), Verdict::Regressed);
        assert_eq!(verdict(&runs(5.0, 1.0), &runs(5.5, 1.0), layer), Verdict::Unchanged);
    }

    #[test]
    fn benchmark_json_specs_parse() {
        let json = std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .unwrap();
        let specs = specs(&json).unwrap();
        let setup = &specs.iter().find(|(n, _)| n == "setup_s").unwrap().1;
        assert_eq!(setup.floor, SETUP_FLOOR_S);
        assert!(specs.iter().any(|(n, s)| n == "fleet.carrier_pkts" && s.exact));
    }
}
