//! Correctness of every runner call, checked after the timed passes.
//!
//! A call fails when it panicked, when its report JSON differs from the
//! same runner's report in the run's first `T = 1` pass (reports are
//! thread-count invariant), or when it disagrees with the committed
//! reference: seedless tables must match byte for byte at any seed, and
//! at the reference seed `msc_obs::diff` must find no SIGNIFICANT or
//! GONE cell.

use crate::catalog::SEEDLESS;
use std::collections::BTreeMap;
use std::path::Path;

/// One runner call as the driver received it.
pub struct Call {
    pub id: String,
    pub secs: f64,
    /// The report JSON; `None` when the runner panicked.
    pub json: Option<String>,
}

/// Committed reference reports of one workload, by runner id.
pub struct Reference {
    pub reports: BTreeMap<String, String>,
    /// Whether the run's seed and `n` are the reference's, so seeded
    /// reports are comparable too.
    pub seeded: bool,
}

impl Reference {
    /// Loads `dir/<id>.json` for each runner that has one.
    pub fn load(dir: &Path, ids: &[&str], seeded: bool) -> Self {
        let reports = ids
            .iter()
            .filter_map(|id| {
                let body = std::fs::read_to_string(dir.join(format!("{id}.json"))).ok()?;
                Some((id.to_string(), body))
            })
            .collect();
        Reference { reports, seeded }
    }
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

/// Checks every call of every pass. `passes` pairs each pass's thread
/// count with its calls.
pub fn check(passes: &[(usize, &[Call])], reference: &Reference) -> Tally {
    let mut canonical: BTreeMap<&str, Option<&str>> = BTreeMap::new();
    for (_, calls) in passes.iter().filter(|(t, _)| *t == 1) {
        for c in *calls {
            canonical.entry(c.id.as_str()).or_insert(c.json.as_deref());
        }
    }
    let mut tally = Tally::default();
    for (_, calls) in passes {
        for c in *calls {
            tally.attempted += 1;
            let ok = c.json.as_deref().is_some_and(|json| {
                canonical.get(c.id.as_str()) == Some(&Some(json))
                    && matches_reference(&c.id, json, reference)
            });
            if !ok {
                eprintln!("check: runner {} failed its correctness check", c.id);
                tally.failed += 1;
            }
        }
    }
    tally
}

fn matches_reference(id: &str, json: &str, reference: &Reference) -> bool {
    let expected = reference.reports.get(id);
    if SEEDLESS.contains(&id) {
        return expected.is_some_and(|e| e == json);
    }
    if !reference.seeded {
        return true;
    }
    let Some(expected) = expected else { return false };
    match msc_obs::diff::diff_report_json(expected, json) {
        Ok((_, summary)) => summary.significant == 0 && summary.gone == 0,
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_dir(workload: &str) -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("reference/seed42").join(workload)
    }

    fn call(id: &str, json: &str) -> Call {
        Call { id: id.into(), secs: 0.0, json: Some(json.into()) }
    }

    #[test]
    fn committed_reports_pass_against_themselves() {
        let fig7 = std::fs::read_to_string(reference_dir("ident").join("fig7.json")).unwrap();
        let r = Reference::load(&reference_dir("ident"), &["fig7"], true);
        let calls = [call("fig7", &fig7)];
        let tally = check(&[(1, &calls), (2, &calls)], &r);
        assert_eq!(tally, Tally { attempted: 2, failed: 0 });
    }

    #[test]
    fn one_perturbed_reference_stat_fails_every_call() {
        let fig7 = std::fs::read_to_string(reference_dir("ident").join("fig7.json")).unwrap();
        // Move the first `id_err` count far outside its interval.
        let (head, tail) = fig7.split_once("\"name\": \"id_err\", \"num\": ").unwrap();
        let rest = tail.split_once(',').unwrap().1;
        let den: u64 =
            rest.split_once("\"den\": ").unwrap().1.split(',').next().unwrap().parse().unwrap();
        let perturbed = format!("{head}\"name\": \"id_err\", \"num\": {den},{rest}");
        let r =
            Reference { reports: BTreeMap::from([("fig7".to_string(), perturbed)]), seeded: true };
        let calls = [call("fig7", &fig7)];
        let tally = check(&[(1, &calls), (2, &calls)], &r);
        assert_eq!(tally, Tally { attempted: 2, failed: 2 });
        // At another seed the seeded report is not compared.
        let unseeded = Reference { seeded: false, ..r };
        assert_eq!(check(&[(1, &calls)], &unseeded).failed, 0);
    }

    #[test]
    fn seedless_tables_must_match_bytes_at_any_seed() {
        let tab2 = std::fs::read_to_string(reference_dir("paper-all").join("tab2.json")).unwrap();
        let r = Reference::load(&reference_dir("paper-all"), &["tab2"], false);
        let edited = tab2.replacen("133,364", "133,365", 1);
        assert_ne!(edited, tab2);
        let good = [call("tab2", &tab2)];
        let bad = [call("tab2", &edited)];
        assert_eq!(check(&[(1, &good)], &r).failed, 0);
        assert_eq!(check(&[(1, &bad)], &r).failed, 1);
    }

    #[test]
    fn panics_and_thread_variance_fail() {
        let r = Reference { reports: BTreeMap::new(), seeded: false };
        let t1 = [call("fig7", "{\"a\": 1}")];
        let tn = [call("fig7", "{\"a\": 2}"), Call { id: "fig6".into(), secs: 0.0, json: None }];
        let tally = check(&[(1, &t1), (2, &tn)], &r);
        assert_eq!(tally, Tally { attempted: 3, failed: 2 });
    }
}
